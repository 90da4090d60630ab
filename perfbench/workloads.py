"""The benchmark's workloads: inputs, set-up, one timed operation, checks.

Every workload drives the real entry point, ``qrewrite.cli.main``, in
process.  ``setup`` makes the inputs from the seed (gen-data plus arrange,
and for ``generate`` the fixture check), ``op`` runs the timed commands once
and ``finish`` checks what the operations wrote.  Each operation of a run
repeats the same commands on the same inputs, so their outputs must be
byte-identical; any difference is reported as an incorrect result.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import struct
import time
from dataclasses import dataclass
from pathlib import Path

from qrewrite import dataio
from qrewrite.vocab import Vocab

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixture"

# The toy model of tests/test_acceptance.py::TOY_CONFIG.  max_len is pinned
# (the CLI would derive needed + 8, which moves between 31 and 33 with the
# seed) so that every seed decodes the same number of positions.
TOY_MODEL = {
    "d_model": 64, "n_heads": 4, "d_ff": 128,
    "n_enc_layers": 2, "n_dec_layers": 2, "max_len": 33,
}
TOY_TRAINER = {"lr_alpha": 0.002, "batch_size": 8, "curriculum": "adaptive", "seed": 7}
ENTITIES = 40

# How the fixture checkpoint of the ``generate`` workload was made; build.py
# trains it from these, and ``generate`` regenerates this world and checks
# that it yields the fixture's vocabulary.
FIXTURE_DATA = {
    "hops": "1,2,3", "train": 200, "valid": 8, "test": 100,
    "entities": ENTITIES, "seed": 2024,
}
FIXTURE_TRAINER = {
    **TOY_TRAINER, "warmup_steps": 50, "epochs_per_main_complexity": 4,
    "val_max_examples": 12, "seed": 7,
}
FIXTURE_FILES = ("checkpoint.bin", "vocab.txt")


@dataclass
class Op:
    """One timed operation: its wall time and what it processed."""

    ok: bool
    wall_s: float        # all timed commands
    model_wall_s: float  # the command that runs the model (train or generate)
    items: int           # training examples, or test records
    tokens: int          # target tokens trained on, or question tokens emitted
    ref_s: float = 0.0   # reference kernel time around the operation (hostspeed)


def gen_data_args(out: Path, hops: str, train: int, valid: int, test: int,
                  entities: int, seed: int) -> list:
    return ["gen-data", "--out", out, "--hops", hops, "--train", train,
            "--valid", valid, "--test", test, "--entities", entities,
            "--seed", seed]


def arrange_in_place(h, path: Path) -> bool:
    tmp = path.with_suffix(".arr.jsonl")
    if not h.cli("arrange", "--in", path, "--out", tmp):
        return False
    tmp.replace(path)
    return True


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded_fixture_hashes() -> dict[str, str]:
    """``SHA256SUMS`` beside the fixture, in sha256sum's format."""
    hashes = {}
    for line in (FIXTURE_DIR / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        hashes[name] = digest
    return hashes


# ---------------------------------------------------------------------------
# training workloads


@dataclass
class TrainWorkload:
    """``qrewrite train`` on freshly generated, arranged records."""

    hops: str
    per_hop: int
    valid_per_hop: int
    trainer: dict
    data: Path | None = None
    first_out: Path | None = None
    first_metrics: bytes | None = None
    plan: tuple[int, int, int] = (0, 0, 0)  # updates, examples, target tokens

    def setup(self, h, d: Path) -> bool:
        data = d / "data"
        if not h.cli(*gen_data_args(data, self.hops, self.per_hop,
                                    self.valid_per_hop, 0, ENTITIES, h.seed)):
            return False
        (data / "test.jsonl").unlink()
        splits = ["train"]
        if self.valid_per_hop:
            splits.append("valid")
        else:
            (data / "valid.jsonl").unlink()
        if not all(arrange_in_place(h, data / f"{s}.jsonl") for s in splits):
            return False
        config = {**TOY_MODEL, **TOY_TRAINER, **self.trainer}
        (d / "config.json").write_text(json.dumps(config, sort_keys=True))
        self.data = d
        self.plan = self._plan(read_jsonl(data / "train.jsonl"), config)
        # the lr schedule rejects a plan no longer than its warmup
        h.check(self.plan[0] > config["warmup_steps"],
                f"plan of {self.plan[0]} updates does not exceed warmup")
        return True

    @staticmethod
    def _plan(records: list[dict], cfg: dict) -> tuple[int, int, int]:
        """Updates, examples and target tokens of the curriculum, counted
        from the records: every group up to the main complexity H plus
        floor(rho * n) of each harder group, one H-iteration per hop count.
        A subsampled group contributes its mean target length."""
        groups: dict[int, list[int]] = {}
        for rec in records:
            groups.setdefault(rec["hops"], []).append(len(rec["question"].split()) + 1)
        rho = cfg.get("rho", 0.1)
        epochs = cfg.get("epochs_per_main_complexity", 1)
        updates = examples = tokens = 0
        for main in sorted(groups):
            n_h = t_h = 0
            for hop, lengths in groups.items():
                take = len(lengths) if hop <= main else math.floor(rho * len(lengths))
                n_h += take
                t_h += round(take * sum(lengths) / len(lengths))
            updates += math.ceil(n_h / cfg["batch_size"]) * epochs
            examples += n_h * epochs
            tokens += t_h * epochs
        return updates, examples, tokens

    def op(self, h, i: int) -> Op:
        out = self.data / f"run{i}"
        t0 = time.perf_counter()
        ok = h.cli("train", "--config", self.data / "config.json",
                   "--data", self.data / "data", "--out", out)
        wall = time.perf_counter() - t0
        if ok:
            metrics = (out / "metrics.jsonl").read_bytes()
            if self.first_out is None:
                self.first_out, self.first_metrics = out, metrics
            else:
                h.check(metrics == self.first_metrics,
                        f"operation {i}: metrics.jsonl differs from operation 0")
                shutil.rmtree(out)
        return Op(ok, wall, wall, self.plan[1], self.plan[2])

    def finish(self, h) -> tuple[float, dict]:
        """Check the first successful operation's outputs; returns the
        quality score exp(-train_loss_end) and the raw loss."""
        if self.first_out is None:
            return 0.0, {}
        events = read_jsonl(self.first_out / "metrics.jsonl")
        validations = [e for e in events if e["event"] == "validation"]
        h.check(bool(validations), "metrics.jsonl has no validation record")
        if not validations:
            return 0.0, {}
        last = validations[-1]
        h.check(last["step"] == self.plan[0],
                f"{last['step']} updates logged, {self.plan[0]} planned")
        loss = float(last["train_loss"])
        h.check(math.isfinite(loss), f"train_loss_end {loss} is not finite")
        try:
            voc = Vocab.load(self.data / "data" / "vocab.txt")
            dataio.load_model(self.first_out / "checkpoint-final.bin",
                              expect_vocab_sha256=voc.sha256())
        except (ValueError, OSError, struct.error) as exc:
            h.check(False, f"final checkpoint does not load: {exc}")
        quality = math.exp(-loss) if math.isfinite(loss) else 0.0
        return quality, {"train_loss_end": loss, "updates": last["step"]}


# ---------------------------------------------------------------------------
# generation workload


@dataclass
class GenerateWorkload:
    """``qrewrite generate --emit-intermediates`` then ``qrewrite evaluate``
    with the committed fixture checkpoint, on seeded test records."""

    per_hop: int
    data: Path | None = None
    n_records: int = 0
    first_pred: bytes | None = None
    first_report: Path | None = None

    def setup(self, h, d: Path) -> bool:
        recorded = recorded_fixture_hashes()
        for name in FIXTURE_FILES:
            actual = sha256_of(FIXTURE_DIR / name)
            if actual != recorded.get(name):
                h.check(False, f"fixture {name} has SHA-256 {actual}, "
                               f"SHA256SUMS records {recorded.get(name)}")
                return False
        fx = FIXTURE_DATA
        data = d / "data"
        if not h.cli(*gen_data_args(data, fx["hops"], fx["train"], fx["valid"],
                                    fx["test"], fx["entities"], fx["seed"])):
            return False
        h.check((data / "vocab.txt").read_bytes()
                == (FIXTURE_DIR / "vocab.txt").read_bytes(),
                "gen-data no longer reproduces the fixture's vocabulary; "
                "rebuild the fixture with perfbench/fixture/build.py")
        if not arrange_in_place(h, data / "test.jsonl"):
            return False
        by_hop: dict[int, list[dict]] = {}
        for rec in read_jsonl(data / "test.jsonl"):
            by_hop.setdefault(rec["hops"], []).append(rec)
        rng = random.Random(h.seed)
        picked = [rec for hop in sorted(by_hop)
                  for rec in rng.sample(by_hop[hop], self.per_hop)]
        write_jsonl(d / "test.jsonl", picked)
        self.n_records = len(picked)
        dataio.load_model(FIXTURE_DIR / "checkpoint.bin",
                          expect_vocab_sha256=Vocab.load(FIXTURE_DIR / "vocab.txt").sha256())
        self.data = d
        return True

    def op(self, h, i: int) -> Op:
        pred = self.data / f"pred{i}.jsonl"
        report = self.data / f"report{i}.jsonl"
        t0 = time.perf_counter()
        ok = h.cli("generate", "--checkpoint", FIXTURE_DIR / "checkpoint.bin",
                   "--data", self.data / "test.jsonl",
                   "--vocab", FIXTURE_DIR / "vocab.txt", "--out", pred,
                   "--emit-intermediates")
        t1 = time.perf_counter()
        ok = ok and h.cli("evaluate", "--pred", pred,
                          "--gold", self.data / "test.jsonl", "--out", report)
        t2 = time.perf_counter()
        tokens = 0
        if ok:
            preds = read_jsonl(pred)
            h.attempted += len(preds)
            for p in preds:
                if "error" in p:
                    h.failed += 1
                    h.check(False, f"record {p['id']}: {p['error']}")
                tokens += len(p["prediction"].split())
                tokens += sum(len(q.split()) for q in p.get("intermediates", []))
            gold_ids = [r["id"] for r in read_jsonl(self.data / "test.jsonl")]
            h.check([p["id"] for p in preds] == gold_ids,
                    f"operation {i}: predictions do not match the input records")
            raw = pred.read_bytes()
            if self.first_pred is None:
                self.first_pred, self.first_report = raw, report
            else:
                h.check(raw == self.first_pred,
                        f"operation {i}: predictions differ from operation 0")
                pred.unlink()
                report.unlink()
        return Op(ok, t2 - t0, t1 - t0, self.n_records, tokens)

    def finish(self, h) -> tuple[float, dict]:
        """Check the evaluate summary; returns corpus ROUGE-L."""
        if self.first_report is None:
            return 0.0, {}
        summary = read_jsonl(self.first_report)[-1]
        h.check(summary.get("type") == "summary", "report has no summary line")
        per_hop = summary.get("per_hop", {})
        h.check(sorted(per_hop) == ["1", "2", "3"],
                f"summary has per-hop rows {sorted(per_hop)}, expected 1, 2, 3")
        h.check(summary["overall"]["count"] == self.n_records,
                "summary counts the wrong number of records")
        rouge = float(summary["overall"]["rouge_l"])
        h.check(0.0 < rouge <= 1.0, f"corpus ROUGE-L {rouge} outside (0, 1]")
        return rouge, {
            "gen_rouge_l": rouge,
            "rouge_l_per_hop": {k: v["rouge_l"] for k, v in per_hop.items()},
        }


def make_workloads() -> dict:
    # Sizes give operations of about 1 s (train-1hop, 16 updates), 2 s
    # (train-multihop, 3 updates plus three validations) and 3 s
    # (generate, 120 records), so a run holds ten or more of them.  Each
    # warmup_steps stays below its plan: lr_at rejects a plan no longer
    # than the warmup, a known defect of train() this benchmark steers
    # clear of.  rho * 2 < 1, so train-multihop's curriculum subsamples
    # no harder group and its example and token counts are exact.
    return {
        "train-1hop": TrainWorkload(
            hops="1", per_hop=128, valid_per_hop=0,
            trainer={"warmup_steps": 4, "epochs_per_main_complexity": 1},
        ),
        "train-multihop": TrainWorkload(
            hops="1,2,3", per_hop=2, valid_per_hop=1,
            trainer={"warmup_steps": 2, "epochs_per_main_complexity": 1,
                     "val_max_examples": 3},
        ),
        "generate": GenerateWorkload(per_hop=40),
    }
