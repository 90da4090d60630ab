"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The toy-learning
criteria (8-11) share one full training run driven through the CLI; the
whole module is self-contained and deterministic.
"""

import json
import math
import resource
import time


import numpy as np
import pytest

from qrewrite import autodiff as ad
from qrewrite import dataio, synthetic
from qrewrite.autodiff import Tensor
from qrewrite.cli import main as cli
from qrewrite.docgraph import Document, arrange
from qrewrite.errors import ArrangementError
from qrewrite.metrics import EvalPair, bleu4, meteor_lite, rouge_l
from qrewrite.model import (
    ModelConfig,
    QuestionRewriter,
    StepInput,
    accumulated_attention,
    final_step_loss,
    within_step_causal_mask,
)
from qrewrite.training import CurriculumConfig, build_iteration_dataset, weighted_loss


from reference_impl import ref_replay, ref_seq2seq

BOS, EOS = 1, 2


def _pass(n: int, text: str) -> None:
    print(f"\n[PASS] criterion {n}: {text}")


def run_cli(*argv) -> int:
    return cli([str(a) for a in argv])


def _conditioned_model(seed: int, **overrides) -> QuestionRewriter:
    kw = dict(vocab_size=24, d_model=16, n_heads=2, d_ff=24,
              n_enc_layers=2, n_dec_layers=2, max_len=16)
    kw.update(overrides)
    m = QuestionRewriter(ModelConfig(**kw), rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1000)
    for p in m.params.values():
        if p.data.ndim == 2:
            p.data = rng.normal(0.0, 0.1, p.data.shape)
    return m


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_01_reduction_identity():
    """With empty caches (t=1) the forward equals a standard seq2seq
    transformer with the same weights, <= 1e-12, in under a second."""
    m = _conditioned_model(31, max_len=24)
    params = {k: v.data for k, v in m.params.items()}
    enc_ids = [3, 4, 5, 6, 7, 8]
    gold = [9, 10, 11, 12]

    start = time.perf_counter()
    res = m.rewrite_forward([StepInput(enc_ids, 1)], BOS, EOS, gold_final=gold)
    ref = ref_seq2seq(params, m.cfg.to_dict(), enc_ids, [BOS, *gold])
    deviation = np.abs(res.final_logits.data - ref).max()
    elapsed = time.perf_counter() - start

    assert res.intermediate_tokens == []
    assert deviation <= 1e-12
    assert elapsed < 1.0
    _pass(1, f"t=1 forward matches standard seq2seq (max dev {deviation:.2e}, "
             f"{elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_02_block_concatenation_oracle():
    """Accumulated attention over k stored blocks equals attention over the
    explicit concatenation with the equivalent mask, <= 1e-12, over >= 100
    random cases with k <= 4."""
    rng = np.random.default_rng(2)
    worst = 0.0
    cases = 0
    while cases < 120:
        d_k = int(rng.integers(2, 10))
        k = int(rng.integers(0, 5))
        blocks_k = [Tensor(rng.normal(size=(int(rng.integers(1, 6)), d_k)))
                    for _ in range(k)]
        blocks_v = [Tensor(rng.normal(size=b.shape)) for b in blocks_k]
        m = int(rng.integers(1, 6))
        cur_k = Tensor(rng.normal(size=(m, d_k)))
        cur_v = Tensor(rng.normal(size=(m, d_k)))
        q = Tensor(rng.normal(size=(m, d_k)))
        causal = bool(rng.integers(0, 2))

        got = accumulated_attention(q, blocks_k, blocks_v, cur_k, cur_v, causal).data

        # oracle: plain numpy over one concatenated block
        k_all = np.concatenate([b.data for b in blocks_k] + [cur_k.data])
        v_all = np.concatenate([b.data for b in blocks_v] + [cur_v.data])
        scores = (q.data / np.sqrt(d_k)) @ k_all.T
        if causal:
            allow = within_step_causal_mask(k_all.shape[0] - m, m)
            scores = np.where(allow, scores, -np.inf)
        z = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(z)
        expected = (e / e.sum(axis=1, keepdims=True)) @ v_all

        worst = max(worst, float(np.abs(got - expected).max()))
        cases += 1
    assert worst <= 1e-12
    _pass(2, f"{cases} random block-concatenation cases, max dev {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_03_cache_recompute_oracle():
    """Incremental sealed-cache decoding of random 3-step examples equals a
    full per-step batched replay, <= 1e-10 per logit."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(4):
        m = _conditioned_model(300 + trial, max_len=20)
        steps = [
            StepInput(list(map(int, rng.integers(3, 24, size=rng.integers(2, 7)))), t + 1)
            for t in range(3)
        ]
        res = m.rewrite_forward(steps, BOS, EOS, collect_logits=True)
        questions = [*res.intermediate_tokens, res.final_tokens]
        ref_logits = ref_replay(
            {k: v.data for k, v in m.params.items()}, m.cfg.to_dict(),
            [s.tokens for s in steps], [[BOS, *q] for q in questions],
        )
        for step_rows, ref_step in zip(res.step_logits, ref_logits):
            mine = np.concatenate([r.data for r in step_rows])
            worst = max(worst, float(np.abs(mine - ref_step).max()))
    assert worst <= 1e-10
    _pass(3, f"3-step incremental vs replay, max logit dev {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_04_gradient_check():
    """Finite differences at eps=1e-4 over >= 100 random coordinates match
    backward() within 1e-4 relative error for the 2- and 3-step unrolled
    losses, and gradient flows end-to-end into step-1 computations."""
    rng_tok = np.random.default_rng(44)
    worst = {}
    for n_steps in (2, 3):
        m = _conditioned_model(3, max_len=16)
        steps = [
            StepInput(list(map(int, rng_tok.integers(3, 24, size=4))), t + 1)
            for t in range(n_steps)
        ]
        gold = [9, 10, 11]
        pinned = m.rewrite_forward(steps, BOS, EOS, gold_final=gold).intermediate_tokens

        def f():
            res = m.rewrite_forward(
                steps, BOS, EOS, gold_final=gold, pinned_intermediates=pinned
            )
            return final_step_loss(res.final_logits, gold, EOS)

        err = ad.grad_check(f, m.params, eps=1e-4, n_samples=110,
                            rng=np.random.default_rng(4))
        # precondition: the same coordinates are stable at eps/10 (no ReLU
        # kink inside the interval), so the eps=1e-4 estimate is meaningful
        confirm = ad.grad_check(f, m.params, eps=1e-5, n_samples=110,
                                rng=np.random.default_rng(4))
        assert confirm <= 1e-4, "finite differences unstable at this point"
        assert err <= 1e-4
        worst[n_steps] = err

    # end-to-end flow: token 20 appears only in step 1's input
    m = _conditioned_model(3, max_len=16)
    steps = [StepInput([20, 4, 5], 1), StepInput([6, 7, 8], 2)]
    gold = [9, 10]
    pinned = m.rewrite_forward(steps, BOS, EOS, gold_final=gold).intermediate_tokens
    grads = {}
    for detach in (False, True):
        ad.zero_grads(m.params)
        res = m.rewrite_forward(steps, BOS, EOS, gold_final=gold,
                                pinned_intermediates=pinned, detach_cache=detach)
        final_step_loss(res.final_logits, gold, EOS).backward()
        grads[detach] = m.params["emb.tok"].grad[20].copy()
    assert np.abs(grads[False]).max() > 0.0
    through_cache = np.abs(grads[False] - grads[True]).max()
    assert through_cache > 1e-12
    _pass(4, f"grad check 2-step {worst[2]:.2e}, 3-step {worst[3]:.2e}; "
             f"step-1 flow via cache {through_cache:.2e}")


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_05_curriculum_composition():
    """Iteration composition matches the count law exactly on a grid, the
    weighted-loss hand case returns 2.0667, and the three named variants
    are reachable by configuration."""
    groups = {
        1: list(range(17)), 2: list(range(23)), 3: list(range(100)),
        4: list(range(9)),
    }
    rng = np.random.default_rng(5)
    checked = 0
    for h in (1, 2, 3, 4):
        for rho in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
            pool = build_iteration_dataset(groups, h, rho, rng)
            expected = sum(len(v) for g, v in groups.items() if g <= h)
            expected += sum(
                math.floor(rho * len(v)) for g, v in groups.items() if g > h
            )
            assert len(pool) == expected
            checked += 1

    hand = weighted_loss([2.0, 4.0, 6.0], [1, 2, 3], 2, 0.8, 0.1).item()
    assert hand == pytest.approx(2.0667, abs=1e-4)
    assert hand == pytest.approx((1.6 + 4.0 + 0.6) / 3, abs=1e-9)

    sbs = CurriculumConfig(curriculum="step_by_step").resolved()
    cum = CurriculumConfig(curriculum="cumulative").resolved()
    ada = CurriculumConfig(curriculum="adaptive").resolved()
    assert (sbs.gamma_low, sbs.gamma_high, sbs.rho) == (0.0, 0.0, 0.0)
    assert (cum.gamma_low, cum.gamma_high, cum.rho) == (1.0, 0.0, 0.0)
    assert (ada.rho, ada.gamma_low, ada.gamma_high) == (0.1, 0.8, 0.1)
    _pass(5, f"count law on {checked} (H, rho) points; hand case {hand:.4f}; "
             "variants reachable")


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_06_arrangement():
    """On 1,000 generated examples: answer document first, every later
    document bridges to an earlier one, no bridge set at the final step;
    disconnected fixtures raise the documented error."""
    world = synthetic.generate_world(6, {"person": 60, "film": 48,
                                         "city": 30, "country": 30})
    splits = synthetic.make_splits(world, [1, 2, 3, 4], (200, 25, 25), seed=6)
    records = [r for part in splits.values() for r in part]
    assert len(records) == 1000
    for rec in records:
        docs = [
            Document(i, d["title"].split(), d["text"].split(),
                     d["is_answer_doc"], frozenset(d["entities"]))
            for i, d in enumerate(rec["documents"])
        ]
        arranged = arrange(docs, rec["answer"].split())
        assert arranged.documents[0].is_answer_doc
        assert len(arranged.bridges) == rec["hops"] - 1
        ents = [frozenset(d.annotations) for d in arranged.documents]
        for k in range(1, len(ents)):
            assert any(ents[k] & ents[j] for j in range(k))

    disconnected = [
        Document(0, ["t"], ["x"], True, frozenset({"a"})),
        Document(1, ["t"], ["x"], False, frozenset({"a"})),
        Document(2, ["t"], ["x"], False, frozenset({"zzz"})),
    ]
    with pytest.raises(ArrangementError, match="unreachable"):
        arrange(disconnected, ["a"])
    _pass(6, f"{len(records)} arrangements verified; disconnected fixture raises")


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_07_metric_goldens():
    b = bleu4(EvalPair.from_strings("a b c d e", ["a b c d f"]))
    r = rouge_l(EvalPair.from_strings("a b c d", ["a c b d"]))
    m = meteor_lite(EvalPair.from_strings("the cat sat", ["the cat slept"]))
    assert b == pytest.approx(0.66874, abs=1e-5)
    assert r == pytest.approx(0.75, abs=1e-9)
    assert m == pytest.approx(0.625, abs=1e-4)
    ident = EvalPair.from_strings("a b c d e", ["a b c d e"])
    assert bleu4(ident) == pytest.approx(1.0)
    assert rouge_l(ident) == pytest.approx(1.0)
    _pass(7, f"BLEU-4 {b:.5f}, ROUGE-L {r:.2f}, METEOR-lite {m:.3f}, "
             "identical pairs score 1.0")


# ---------------------------------------------------------------------------
# criteria 8-11 share artifacts


TOY_CONFIG = {
    "d_model": 64, "n_heads": 4, "d_ff": 128,
    "n_enc_layers": 2, "n_dec_layers": 2,
    "lr_alpha": 0.002, "warmup_steps": 100, "batch_size": 8,
    "epochs_per_main_complexity": 6, "curriculum": "adaptive",
    "val_max_examples": 64, "seed": 7,
}


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """The criterion-8 pilot, frozen: 2,000 train (1,000 per hop level) /
    200 test 2-hop; d_model 64, 4 heads, 2+2 layers, batch 8, adaptive
    curriculum."""
    root = tmp_path_factory.mktemp("toy")
    data = root / "data"
    out = root / "run"
    assert run_cli("gen-data", "--out", data, "--hops", "1,2",
                   "--train", "1000", "--valid", "100", "--test", "100",
                   "--entities", "160", "--seed", "11") == 0
    for split in ("train", "valid", "test"):
        src = data / f"{split}.jsonl"
        tmp = data / f"{split}.arr.jsonl"
        assert run_cli("arrange", "--in", src, "--out", tmp) == 0
        tmp.replace(src)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TOY_CONFIG))

    # this process's CPU and that of the children it forked and reaped
    cpu_before = time.process_time()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert run_cli("train", "--config", cfg, "--data", data, "--out", out) == 0
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_minutes = (time.process_time() - cpu_before
                   + children.ru_utime - children_before.ru_utime
                   + children.ru_stime - children_before.ru_stime) / 60.0

    pred = out / "test.pred.jsonl"
    report = out / "report.jsonl"
    assert run_cli("generate", "--checkpoint", out / "checkpoint-final.bin",
                   "--data", data / "test.jsonl", "--vocab", data / "vocab.txt",
                   "--out", pred) == 0
    assert run_cli("evaluate", "--pred", pred, "--gold", data / "test.jsonl",
                   "--out", report) == 0
    return {
        "data": data, "out": out, "pred": pred, "report": report,
        "cpu_minutes": cpu_minutes, "config": cfg,
    }


def test_criterion_08_toy_learning(toy_run):
    """Final training loss < 0.1 and held-out 2-hop exact match >= 0.9
    within 15 CPU-minutes (thresholds frozen from the pilot runs)."""
    validations = [
        r for r in dataio.read_records(toy_run["out"] / "metrics.jsonl")
        if r["event"] == "validation"
    ]
    final_train_loss = validations[-1]["train_loss"]
    summary = dataio.read_records(toy_run["report"])[-1]
    em_2hop = summary["per_hop"]["2"]["exact_match"]

    assert final_train_loss < 0.1
    assert em_2hop >= 0.9
    assert toy_run["cpu_minutes"] < 15.0
    _pass(8, f"train loss {final_train_loss:.4f} < 0.1, 2-hop EM {em_2hop:.3f} "
             f">= 0.9, {toy_run['cpu_minutes']:.1f} CPU-min < 15")


def test_criterion_09_curriculum_direction(tmp_path_factory):
    """Step-by-step training yields strictly lower held-out 1-hop exact
    match than adaptive on a mixed 1-3-hop run (directional only)."""
    root = tmp_path_factory.mktemp("direction")
    data = root / "data"
    assert run_cli("gen-data", "--out", data, "--hops", "1,2,3",
                   "--train", "200", "--valid", "48", "--test", "48",
                   "--entities", "120", "--seed", "17") == 0
    for split in ("train", "valid", "test"):
        src = data / f"{split}.jsonl"
        tmp = data / f"{split}.arr.jsonl"
        assert run_cli("arrange", "--in", src, "--out", tmp) == 0
        tmp.replace(src)

    em_1hop = {}
    for variant in ("adaptive", "step_by_step"):
        cfg = root / f"{variant}.json"
        cfg.write_text(json.dumps({**TOY_CONFIG,
                                   "epochs_per_main_complexity": 4,
                                   "curriculum": variant}))
        out = root / variant
        assert run_cli("train", "--config", cfg, "--data", data,
                       "--out", out) == 0
        pred = out / "pred.jsonl"
        report = out / "report.jsonl"
        assert run_cli("generate", "--checkpoint", out / "checkpoint-final.bin",
                       "--data", data / "test.jsonl",
                       "--vocab", data / "vocab.txt", "--out", pred) == 0
        assert run_cli("evaluate", "--pred", pred, "--gold", data / "test.jsonl",
                       "--out", report) == 0
        summary = dataio.read_records(report)[-1]
        em_1hop[variant] = summary["per_hop"]["1"]["exact_match"]

    assert em_1hop["step_by_step"] < em_1hop["adaptive"]
    _pass(9, f"1-hop EM: step-by-step {em_1hop['step_by_step']:.3f} < "
             f"adaptive {em_1hop['adaptive']:.3f}")


def test_criterion_10_ablation_wiring(toy_run):
    """--ablate sa and --ablate ca each change at least one held-out
    prediction of the trained toy model, and leave 1-hop (t=1) outputs
    identical to the full model."""
    data, out = toy_run["data"], toy_run["out"]
    full = {r["id"]: r["prediction"] for r in dataio.read_records(toy_run["pred"])}
    hops = {r["id"]: r["hops"] for r in dataio.read_records(data / "test.jsonl")}
    changed = {}
    for mode in ("sa", "ca"):
        pred = out / f"pred-ablate-{mode}.jsonl"
        assert run_cli("generate", "--checkpoint", out / "checkpoint-final.bin",
                       "--data", data / "test.jsonl",
                       "--vocab", data / "vocab.txt", "--out", pred,
                       "--ablate", mode) == 0
        ablated = {r["id"]: r["prediction"] for r in dataio.read_records(pred)}
        diff_multi = [i for i in full if hops[i] > 1 and ablated[i] != full[i]]
        same_single = all(ablated[i] == full[i] for i in full if hops[i] == 1)
        assert diff_multi, f"--ablate {mode} changed nothing"
        assert same_single, f"--ablate {mode} changed a t=1 prediction"
        changed[mode] = len(diff_multi)
    _pass(10, f"--ablate sa changed {changed['sa']}, --ablate ca changed "
              f"{changed['ca']} multi-hop predictions; 1-hop outputs identical")


def test_criterion_11_determinism(toy_run, tmp_path_factory):
    """cmd_train twice with identical seed/config/data yields byte-identical
    metrics logs and checkpoints."""
    root = tmp_path_factory.mktemp("repeat")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({**TOY_CONFIG, "epochs_per_main_complexity": 1,
                               "val_max_examples": 8}))
    data = root / "data"
    assert run_cli("gen-data", "--out", data, "--hops", "1,2",
                   "--train", "24", "--valid", "8", "--test", "8",
                   "--entities", "40", "--seed", "23") == 0
    for split in ("train", "valid", "test"):
        src = data / f"{split}.jsonl"
        tmp = data / f"{split}.arr.jsonl"
        assert run_cli("arrange", "--in", src, "--out", tmp) == 0
        tmp.replace(src)

    outs = []
    for name in ("a", "b"):
        out = root / name
        assert run_cli("train", "--config", cfg, "--data", data,
                       "--out", out) == 0
        outs.append(out)
    compared = []
    for name in ("metrics.jsonl", "checkpoint-H1.bin", "checkpoint-H2.bin",
                 "checkpoint-final.bin"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    _pass(11, f"byte-identical across reruns: {', '.join(compared)}")
