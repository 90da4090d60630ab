"""Command-line entry point.

Subcommands: gen-data, arrange, train, generate, evaluate, grad-check.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure.

Only ``generate`` forks, to decode its independent packs on every usable
CPU; every other command, training included, runs in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pickle
import signal
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataio, metrics, model as model_module, synthetic, training
from .docgraph import ArrangedExample, make_step_inputs, step_tokens
from .errors import (
    ArrangementError,
    CompatibilityError,
    ConfigError,
    DataFormatError,
    DivergenceError,
    GenerationError,
    LengthError,
    ShapeError,
)
from .model import ModelConfig, QuestionRewriter, final_step_loss
from .vocab import Vocab

_DATA_ERRORS = (
    DataFormatError,
    CompatibilityError,
    ConfigError,
    ArrangementError,
    GenerationError,
    LengthError,
    OSError,  # a missing, unreadable or directory path at a file boundary
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _precision(name: str):
    return np.float32 if name == "f32" else np.float64


def _eprint(*args):
    print(*args, file=sys.stderr)


# ---------------------------------------------------------------------------
# gen-data


def _hop_counts(text: str) -> list[int]:
    """The hop counts that ``--hops`` lists: distinct integers in
    1..MAX_HOPS, separated by commas."""
    try:
        hops = [int(h) for h in text.split(",") if h]
    except ValueError:
        hops = []
    if (not hops or len(set(hops)) != len(hops)
            or not all(1 <= h <= synthetic.MAX_HOPS for h in hops)):
        raise GenerationError(
            f"--hops takes distinct hop counts in 1..{synthetic.MAX_HOPS} "
            f"separated by commas, got {text!r}"
        )
    return hops


def cmd_gen_data(args) -> int:
    hops = _hop_counts(args.hops)
    if args.seed < 0:
        raise GenerationError(f"--seed takes an integer >= 0, got {args.seed}")
    if args.entities < 1:
        raise GenerationError(f"--entities takes an integer >= 1, got {args.entities}")
    sizes = {
        "person": args.entities,
        "film": max(2, (args.entities * 4) // 5),
        "city": max(2, args.entities // 2),
        "country": max(2, args.entities // 2),
    }
    world = synthetic.generate_world(args.seed, sizes)
    splits = synthetic.make_splits(
        world, hops, (args.train, args.valid, args.test), args.seed
    )
    records_all = [r for part in splits.values() for r in part]
    voc = Vocab.build(synthetic.collect_tokens(records_all))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # every input is checked
    voc.save(out_dir / "vocab.txt")
    outputs = ["vocab.txt"]
    for split, records in splits.items():
        name = f"{split}.jsonl"
        dataio.write_records(out_dir / name, records)
        outputs.append(name)
    dataio.write_manifest(
        out_dir, "gen-data",
        {"hops": hops, "counts": [args.train, args.valid, args.test],
         "entities": args.entities, "sizes": sizes},
        args.seed, {}, outputs,
    )
    print(
        f"wrote {sum(len(r) for r in splits.values())} records "
        f"({', '.join(f'{k}={len(v)}' for k, v in splits.items())}), "
        f"vocab size {len(voc)}"
    )
    return 0


# ---------------------------------------------------------------------------
# arrange


def cmd_arrange(args) -> int:
    records = dataio.read_records(args.input)
    arranged, failures = [], 0
    for rec in records:
        try:
            arranged.append(dataio.arrange_record(rec))
        except (ArrangementError, DataFormatError) as exc:
            failures += 1
            _eprint(f"record {rec.get('id', '?')!r}: {exc}")
    dataio.write_records(args.out, arranged)
    out_dir = Path(args.out).parent
    dataio.write_manifest(
        out_dir, "arrange", {"input": str(args.input)}, None,
        {"input": args.input}, [Path(args.out).name],
    )
    print(f"arranged {len(arranged)} records, skipped {failures}")
    return 0


# ---------------------------------------------------------------------------
# train


def _load_examples(path: Path) -> list[ArrangedExample]:
    examples = [dataio.arranged_example(rec) for rec in dataio.read_records(path)]
    if not examples:
        raise DataFormatError(f"{path}: no records")
    return examples


def _required_max_len(examples) -> int:
    """Positions that the longest step input, or gold question with <bos>
    and <eos>, of ``examples`` needs."""
    need = 1
    for ex in examples:
        need = max(need, *map(len, step_tokens(ex)), len(ex.gold_question) + 2)
    return need


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    model_kw, train_kw = dataio.load_config(args.config) if args.config else ({}, {})
    if args.seed is not None:
        train_kw["seed"] = args.seed
    cfg_train = training.CurriculumConfig(**train_kw)

    voc = Vocab.load(data_dir / "vocab.txt")
    train_examples = _load_examples(data_dir / "train.jsonl")
    valid_path = data_dir / "valid.jsonl"
    valid_examples = _load_examples(valid_path) if valid_path.exists() else []

    if "vocab_size" in model_kw and model_kw["vocab_size"] != len(voc):
        raise ConfigError(
            f"config vocab_size={model_kw['vocab_size']} but vocabulary has "
            f"{len(voc)} tokens"
        )
    model_kw["vocab_size"] = len(voc)
    needed = _required_max_len([*train_examples, *valid_examples])
    if "max_len" not in model_kw:
        model_kw["max_len"] = needed + 8
    elif model_kw["max_len"] < needed:
        raise ConfigError(
            f"config max_len={model_kw['max_len']} below required {needed}"
        )
    for mode in args.ablate or []:
        model_kw[f"mode_accumulated_{mode}"] = False
    try:
        cfg_model = ModelConfig(**model_kw)
    except ShapeError as exc:  # dimensions the model cannot take
        raise ConfigError(f"{args.config}: {exc}") from exc

    model = QuestionRewriter(
        cfg_model, rng=np.random.default_rng(cfg_train.seed),
        dtype=_precision(args.precision),
    )
    out_dir.mkdir(parents=True, exist_ok=True)  # every input is checked
    vhash = voc.sha256()
    written: list[str] = []

    def on_checkpoint(label: str, m: QuestionRewriter):
        name = f"checkpoint-{label}.bin"
        dataio.save_checkpoint(out_dir / name, m, vhash)
        written.append(name)

    with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        def on_event(rec: dict) -> None:
            fh.write(dataio.json_line(rec) + "\n")
            fh.flush()

        result = training.train(
            model, train_examples, cfg_train, voc, val_examples=valid_examples,
            on_checkpoint=on_checkpoint, on_event=on_event,
        )
    written.append("metrics.jsonl")
    inputs = {"train": data_dir / "train.jsonl", "vocab": data_dir / "vocab.txt"}
    if valid_examples:
        inputs["valid"] = valid_path
    dataio.write_manifest(
        out_dir, "train",
        {"model": cfg_model.to_dict(), "trainer": cfg_train.to_dict(),
         "precision": args.precision},
        cfg_train.seed, inputs, written,
    )
    print(
        f"trained {result.total_steps} steps, final loss "
        f"{result.final_train_loss:.6f}, checkpoints: {', '.join(written[:-1])}"
    )
    return 0


# ---------------------------------------------------------------------------
# generate


def _workers(n_jobs: int) -> int:
    """Processes that run ``n_jobs`` independent jobs (packs) at once: up
    to one per usable CPU when this process can fork safely, else 1
    (in-process).  Forking is safe only from a single OS thread, so that
    no BLAS or other thread is copied in mid-lock; without procfs the
    count is unknown."""
    if n_jobs < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0))) if threads == 1 else 1


def _run_share(fn, share) -> dict:
    """{item: fn(item)} over ``share`` in order, up to the first item whose
    call raises; that item maps to its exception."""
    out = {}
    for item in share:
        try:
            out[item] = fn(item)
        except Exception as exc:
            out[item] = exc
            break
    return out


def _run_shares(fn, own, others: list) -> dict:
    """``_run_share`` of every share, merged: ``own`` in this process and
    each of ``others`` in a child forked for it, which works on the memory
    this process had at the fork, pickles its dict down a pipe and always
    leaves by ``os._exit``.  A share whose pipe or fork cannot be made runs
    here at once.  After its own share this process reads and reaps the
    children in share order; one that died without a result raises
    ``RuntimeError`` naming its exit status.  A child not yet read when this
    returns or raises is killed and reaped."""

    def reap(pid: int) -> int:
        children.pop(pid).close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    out, children = {}, {}
    try:
        for share in others:
            fds = []
            try:
                fds += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                out.update(_run_share(fn, share))
                continue
            if pid == 0:
                status = 1
                try:
                    os.close(fds[0])
                    with open(fds[1], "wb") as results:
                        pickle.dump(_run_share(fn, share), results, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds[1])
            children[pid] = open(fds[0], "rb")
        out.update(_run_share(fn, own))
        for pid in list(children):
            try:
                out.update(pickle.load(children[pid]))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"forked worker {pid} exited with status {reap(pid)} "
                                   "and no result") from None
            reap(pid)
        return out
    finally:
        for pid in list(children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            reap(pid)


def _rewrite_forked(model: QuestionRewriter, examples: list, bos: int, eos: int) -> list:
    """``model.rewrite_packed`` of ``examples``, one pack of ``PACK_SIZE`` a
    call, on W = ``_workers`` processes: share w holds packs w, w + W, ...,
    this process decodes the share with the most steps and forked children
    the others.  A pack's bits depend on its own examples only, so results
    and the error raised, the first failing pack's, are one process's."""
    size = model_module.PACK_SIZE
    packs = [examples[lo:lo + size] for lo in range(0, len(examples), size)]
    n_workers = _workers(len(packs))
    shares = [range(w, len(packs), n_workers) for w in range(n_workers)]
    own = max(shares, key=lambda share: sum(len(steps) for p in share for steps in packs[p]))
    outcomes = _run_shares(lambda p: model.rewrite_packed(packs[p], bos, eos), own,
                           [s for s in shares if s is not own])
    for p in range(len(packs)):
        if isinstance(outcomes[p], Exception):
            raise outcomes[p]
    return [res for p in range(len(packs)) for res in outcomes[p]]


def cmd_generate(args) -> int:
    voc = Vocab.load(args.vocab)
    overrides = {}
    for mode in args.ablate or []:
        overrides[f"mode_accumulated_{mode}"] = False
    model = dataio.load_model(
        args.checkpoint, expect_vocab_sha256=voc.sha256(),
        dtype=_precision(args.precision) if args.precision else None,
        mode_overrides=overrides,
    )
    records = dataio.read_records(args.data)
    prepared = []  # per record: (example, step inputs), or the error it raised
    for rec in records:
        try:
            ex = dataio.arranged_example(rec)
            prepared.append((ex, make_step_inputs(ex, voc, model.cfg.max_len)))
        except (DataFormatError, LengthError) as exc:
            _eprint(f"record {rec.get('id', '?')!r}: {exc}")
            prepared.append(exc)
    decodable = [p for p in prepared if not isinstance(p, Exception)]
    results = iter(_rewrite_forked(model, [steps for _, steps in decodable], voc.bos_id,
                                   voc.eos_id))
    out, truncated = [], []
    for rec, p in zip(records, prepared):
        if isinstance(p, Exception):
            # record-scoped: keep count parity, score as an empty prediction
            out.append({"id": rec.get("id", "?"), "hops": rec.get("hops", 0),
                        "prediction": "", "error": str(p)})
            continue
        ex, res = p[0], next(results)
        pred = {"id": ex.example_id, "hops": ex.hops,
                "prediction": " ".join(voc.decode(res.final_tokens))}
        if args.emit_intermediates:
            pred["intermediates"] = [
                " ".join(voc.decode(q)) for q in res.intermediate_tokens
            ]
        out.append(pred)
        if any(res.truncated):
            truncated.append(ex.example_id)
    failures = len(records) - len(decodable)
    if failures:
        _eprint(f"{failures} records failed; emitted empty predictions for them")
    dataio.write_records(args.out, out)
    out_dir = Path(args.out).parent
    dataio.write_manifest(
        out_dir, "generate",
        {"checkpoint": str(args.checkpoint), "ablate": args.ablate or [],
         "emit_intermediates": bool(args.emit_intermediates)},
        None,
        {"data": args.data, "checkpoint": args.checkpoint, "vocab": args.vocab},
        [Path(args.out).name],
        {"truncated_records": len(truncated), "truncated_ids": truncated},
    )
    print(f"generated {len(out)} predictions")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _by_id(path, fields: dict) -> dict:
    """Records of ``path`` keyed by id, in file order.  Each needs a string
    or integer id and a value of each type in ``fields`` under its key (see
    ``dataio.check_fields``); a repeated id fails."""
    out = {}
    for n, r in enumerate(dataio.read_records(path), start=1):
        dataio.check_fields(f"{path}: record {n}", r, {"id": (str, int)})
        rid = r["id"]
        dataio.check_fields(f"{path}: record {rid!r}", r, fields)
        if rid in out:
            raise DataFormatError(f"{path}: duplicated id {rid!r}")
        out[rid] = r
    return out


def cmd_evaluate(args) -> int:
    preds = _by_id(args.pred, {"prediction": str})
    golds = _by_id(args.gold, {"question": str, "hops": int})
    only_pred = sorted(set(preds) - set(golds))
    only_gold = sorted(set(golds) - set(preds))
    if only_pred or only_gold:
        raise DataFormatError(
            f"id mismatch between predictions and gold: "
            f"only in predictions {only_pred[:5]}, only in gold {only_gold[:5]}"
        )
    if not golds:
        raise DataFormatError(f"no records to score in {args.pred} and {args.gold}")
    pairs = []
    for gold in golds.values():
        pred = preds[gold["id"]]
        pair = metrics.EvalPair.from_strings(pred["prediction"], [gold["question"]])
        pairs.append((pred["id"], pair))

    lines = []
    names = tuple(metrics.METRICS)
    overall, records = metrics.corpus_eval(pairs, names)
    by_hop: dict[int, list[dict]] = {}
    for rec in records:
        rec["hops"] = golds[rec["id"]]["hops"]
        lines.append({"type": "example", **rec})
        by_hop.setdefault(rec["hops"], []).append(rec)
    per_hop = {str(hops): metrics.summarize(by_hop[hops], names)
               for hops in sorted(by_hop)}
    lines.append({"type": "summary", "overall": overall, "per_hop": per_hop})
    dataio.write_records(args.out, lines)
    dataio.write_manifest(
        Path(args.out).parent, "evaluate", {}, None,
        {"pred": args.pred, "gold": args.gold}, [Path(args.out).name],
    )
    print(json.dumps({"overall": overall, "per_hop": per_hop}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# grad-check


def cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    sizes = {"person": 10, "film": 8, "city": 6, "country": 6}
    world = synthetic.generate_world(args.seed, sizes)
    rec = synthetic.generate_example(world, args.steps, seed=args.seed)
    arranged = dataio.arranged_example(dataio.arrange_record(rec))
    voc = Vocab.build(synthetic.collect_tokens([rec]))

    cfg = ModelConfig(
        vocab_size=len(voc), d_model=16, n_heads=2, d_ff=24,
        n_enc_layers=1, n_dec_layers=1, max_len=64,
    )
    model = QuestionRewriter(cfg, rng=rng, dtype=np.float64)
    # check at a fixed random point, independent of the training init: at
    # N(0, 0.1) no softmax saturates and every gradient sits well above the
    # finite-difference noise floor
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = rng.normal(0.0, 0.1, p.data.shape)
    steps = make_step_inputs(arranged, voc, cfg.max_len)
    gold = voc.encode(arranged.gold_question)
    pinned = model.rewrite_forward(
        steps, voc.bos_id, voc.eos_id, gold_final=gold
    ).intermediate_tokens

    def f():
        res = model.rewrite_forward(
            steps, voc.bos_id, voc.eos_id, gold_final=gold,
            pinned_intermediates=pinned,
        )
        return final_step_loss(res.final_logits, gold, voc.eos_id)

    err = ad.grad_check(
        f, model.params, eps=args.eps, n_samples=args.coords,
        rng=np.random.default_rng(args.seed + 1),
    )
    print(f"max relative error over {args.coords} coordinates: {err:.3e}")
    if err > args.tolerance:
        # a ReLU kink inside the perturbation interval corrupts the central
        # difference without implicating the gradient; confirm on the same
        # coordinates at eps/10
        confirm = ad.grad_check(
            f, model.params, eps=args.eps / 10.0, n_samples=args.coords,
            rng=np.random.default_rng(args.seed + 1),
        )
        print(f"confirmation at eps={args.eps / 10.0:.1e}: {confirm:.3e}")
        if confirm > args.tolerance:
            _eprint(f"gradient check FAILED (tolerance {args.tolerance:.1e})")
            return 3
        print("eps-scale instability only (ReLU kink in the interval); "
              "gradient check passed at the confirming step size")
        return 0
    print("gradient check passed")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves no
    state in it (``--ablate`` appends to a fresh list, and ``_Parser.error``
    raises), so every ``main`` call can share it."""
    parser = _Parser(prog="qrewrite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic multi-hop dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--hops", default="1,2", help="comma-separated hop counts")
    p.add_argument("--train", type=int, default=1000, help="train examples per hop")
    p.add_argument("--valid", type=int, default=100)
    p.add_argument("--test", type=int, default=100)
    p.add_argument("--entities", type=int, default=24, help="entities per category")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("arrange", help="order documents and extract bridges")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_arrange)

    p = sub.add_parser("train", help="run curriculum training")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True, help="directory with arranged train/valid + vocab")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--ablate", action="append", choices=("sa", "ca"))
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="decode questions from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="arranged dataset file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--emit-intermediates", action="store_true")
    p.add_argument("--ablate", action="append", choices=("sa", "ca"))
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="score predictions against gold questions")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("grad-check", help="finite-difference check of the unrolled loss")
    p.add_argument("--steps", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--coords", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a numeric failure is reported by its typed error alone
        with np.errstate(all="ignore"):
            return args.fn(args)
    except UsageError as exc:
        _eprint(f"usage error: {exc}")
        return 1
    except _DATA_ERRORS as exc:
        _eprint(f"data error: {exc}")
        return 2
    except DivergenceError as exc:
        _eprint(f"numeric failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
