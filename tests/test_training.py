import errno
import gc
import math
import os
import signal

import numpy as np
import pytest

from qrewrite import autodiff as ad
from qrewrite import dataio, synthetic, training
from qrewrite import model as model_module
from qrewrite.autodiff import Tensor
from qrewrite.errors import ConfigError, DivergenceError, LengthError
from qrewrite.docgraph import make_step_inputs
from qrewrite.model import ModelConfig, QuestionRewriter, final_step_loss
from qrewrite.training import (
    AdamW,
    ComplexityDataset,
    CurriculumConfig,
    _batch_losses,
    _example_loss,
    _validate,
    build_iteration_dataset,
    clip_grad_norm,
    loss_weight,
    lr_at,
    train,
    weighted_loss,
)
from qrewrite.vocab import Vocab


def groups_of(sizes):
    out = {}
    start = 0
    for h, n in sizes.items():
        out[h] = list(range(start, start + n))
        start += n
    return out


class TestBuildIterationDataset:
    def test_h_equals_n_takes_everything(self):
        groups = groups_of({1: 5, 2: 7, 3: 3})
        pool = build_iteration_dataset(groups, 3, 0.5, np.random.default_rng(0))
        assert len(pool) == 15
        assert sorted(c for c, _ in pool) == [1] * 5 + [2] * 7 + [3] * 3

    def test_step_by_step_setting(self):
        groups = groups_of({1: 5, 2: 7})
        pool = build_iteration_dataset(groups, 1, 0.0, np.random.default_rng(0))
        assert len(pool) == 5
        assert {c for c, _ in pool} == {1}

    def test_subsample_count(self):
        groups = groups_of({1: 4, 2: 6, 3: 100})
        pool = build_iteration_dataset(groups, 2, 0.1, np.random.default_rng(0))
        assert sum(1 for c, _ in pool if c == 3) == 10
        assert len(pool) == 4 + 6 + 10

    def test_count_law_over_grid(self):
        groups = groups_of({1: 13, 2: 29, 3: 7, 4: 41})
        rng = np.random.default_rng(5)
        for h in (1, 2, 3, 4):
            for rho in (0.0, 0.1, 0.33, 0.5, 1.0):
                pool = build_iteration_dataset(groups, h, rho, rng)
                expected = sum(len(groups[g]) for g in groups if g <= h)
                expected += sum(
                    math.floor(rho * len(groups[g])) for g in groups if g > h
                )
                assert len(pool) == expected

    def test_subsample_uniform_without_replacement(self):
        groups = groups_of({1: 2, 2: 50})
        pool = build_iteration_dataset(groups, 1, 0.5, np.random.default_rng(2))
        picked = [ex for c, ex in pool if c == 2]
        assert len(picked) == len(set(picked)) == 25

    def test_empty_main_group_rejected(self):
        with pytest.raises(ConfigError):
            build_iteration_dataset({1: [], 2: [1]}, 1, 0.0, np.random.default_rng(0))

    def test_variant_batch_composition(self):
        # what the trainer actually batches after zero-weight filtering:
        # step-by-step at H=2 sees only D_2, cumulative sees D_1 and D_2
        groups = groups_of({1: 5, 2: 7, 3: 4})
        rng = np.random.default_rng(1)
        for variant, expected in (("step_by_step", {2}), ("cumulative", {1, 2})):
            cfg = CurriculumConfig(curriculum=variant).resolved()
            pool = build_iteration_dataset(groups, 2, cfg.rho, rng)
            kept = {
                c for c, _ in pool
                if loss_weight(c, 2, cfg.gamma_low, cfg.gamma_high) != 0.0
            }
            assert kept == expected


class TestWeightedLoss:
    def test_all_at_main_complexity(self):
        out = weighted_loss([2.0, 4.0], [2, 2], 2, 0.5, 0.5)
        assert out.item() == pytest.approx(3.0)

    def test_unit_gammas_plain_mean(self):
        out = weighted_loss([1.0, 2.0, 3.0], [1, 2, 3], 2, 1.0, 1.0)
        assert out.item() == pytest.approx(2.0)

    def test_hand_case(self):
        out = weighted_loss([2.0, 4.0, 6.0], [1, 2, 3], 2, 0.8, 0.1)
        assert out.item() == pytest.approx(2.0667, abs=1e-4)
        assert out.item() == pytest.approx((1.6 + 4.0 + 0.6) / 3, abs=1e-12)

    def test_linear_in_each_loss(self):
        rng = np.random.default_rng(0)
        base = [2.0, 4.0, 6.0]
        for i in range(3):
            bumped = list(base)
            bumped[i] += 1.0
            delta = (
                weighted_loss(bumped, [1, 2, 3], 2, 0.8, 0.1).item()
                - weighted_loss(base, [1, 2, 3], 2, 0.8, 0.1).item()
            )
            expected = loss_weight(i + 1, 2, 0.8, 0.1) / 3
            assert delta == pytest.approx(expected, abs=1e-12)

    def test_tensor_losses_carry_gradients(self):
        losses = [Tensor(np.asarray(2.0), requires_grad=True) for _ in range(3)]
        out = weighted_loss(losses, [1, 2, 3], 2, 0.8, 0.1)
        out.backward()
        got = [float(l.grad) for l in losses]
        assert got == pytest.approx([0.8 / 3, 1.0 / 3, 0.1 / 3])

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigError):
            weighted_loss([1.0], [1, 2], 1, 0.5, 0.5)


class TestLrSchedule:
    def test_zero_at_start(self):
        assert lr_at(0, 100, 300, 3e-5) == 0.0

    def test_peak_at_warmup(self):
        assert lr_at(100, 100, 300, 3e-5) == pytest.approx(3e-5)

    def test_midpoint_interpolation(self):
        assert lr_at(200, 100, 300, 3e-5) == pytest.approx(1.5e-5)

    def test_zero_at_end(self):
        assert lr_at(300, 100, 300, 3e-5) == 0.0
        assert lr_at(999, 100, 300, 3e-5) == 0.0

    def test_contract_total_after_warmup(self):
        with pytest.raises(ConfigError):
            lr_at(5, 300, 300, 3e-5)


class TestCurriculumConfig:
    def test_variant_presets(self):
        base = CurriculumConfig(curriculum="step_by_step").resolved()
        assert (base.gamma_low, base.gamma_high, base.rho) == (0.0, 0.0, 0.0)
        cum = CurriculumConfig(curriculum="cumulative").resolved()
        assert (cum.gamma_low, cum.gamma_high, cum.rho) == (1.0, 0.0, 0.0)
        ada = CurriculumConfig(curriculum="adaptive").resolved()
        assert (ada.rho, ada.gamma_low, ada.gamma_high) == (0.1, 0.8, 0.1)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            CurriculumConfig(rho=1.5)
        with pytest.raises(ConfigError):
            CurriculumConfig(curriculum="nope")

    @pytest.mark.parametrize("key", ["seed", "val_max_examples", "plateau_patience",
                                     "warmup_steps", "lr_alpha", "weight_decay",
                                     "max_grad_norm"])
    def test_negative_values_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            CurriculumConfig(**{key: -1})
        with pytest.raises(ConfigError, match=key):
            CurriculumConfig(**{key: math.nan})
        assert getattr(CurriculumConfig(**{key: 0}), key) == 0  # 0 stays valid

    def test_dataset_group_validation(self):
        from qrewrite.docgraph import ArrangedExample, Document

        doc = Document(0, ["t"], ["x"], True)
        ex = ArrangedExample(["a"], [doc], [], ["q"], hops=1)
        with pytest.raises(ConfigError):
            ComplexityDataset({2: [ex]})


class TestAdamW:
    def test_single_step_direction(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([1.0, -1.0, 0.0])
        opt = AdamW({"p": p}, weight_decay=0.0)
        opt.step(lr=0.1)
        # bias-corrected first step moves by about lr against the gradient
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)
        assert p.data[1] == pytest.approx(0.1, rel=1e-6)
        assert p.data[2] == 0.0

    def test_decoupled_weight_decay(self):
        p = Tensor(np.ones(2) * 10.0, requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW({"p": p}, weight_decay=0.01)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, 10.0 - 0.1 * 0.01 * 10.0)

    def test_quadratic_convergence(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.0)
        for _ in range(400):
            ad.zero_grads([p])
            loss = ad.sum_all(ad.mul(p, p))
            loss.backward()
            opt.step(lr=0.05)
        assert np.abs(p.data).max() < 1e-2

    def test_clip_grad_norm(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm({"p": p}, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_train_plan_shorter_than_warmup_runs():
    # the warmup is clamped to the plan, so lr_at never sees total <= warmup
    world = synthetic.generate_world(3, {"person": 10, "film": 8, "city": 6, "country": 6})
    recs = [synthetic.generate_example(world, 1, seed=s) for s in range(4)]
    voc = Vocab.build(synthetic.collect_tokens(recs))
    dataset = ComplexityDataset(
        {1: [dataio.arranged_example(dataio.arrange_record(r)) for r in recs]}
    )
    model = QuestionRewriter(
        ModelConfig(vocab_size=len(voc), d_model=16, n_heads=2, d_ff=24,
                    n_enc_layers=1, n_dec_layers=1, max_len=32),
        rng=np.random.default_rng(0), dtype=np.float64,
    )
    cfg = CurriculumConfig(warmup_steps=100, batch_size=2, epochs_per_main_complexity=1)
    result = train(model, dataset, cfg, voc)
    assert result.total_steps == 2
    assert math.isfinite(result.final_train_loss)


def test_plateau_patience_ends_each_h_early():
    # at lr_alpha 0 no update moves the model, so the validation loss never
    # improves on an H's first epoch: patience 1 ends each H after its second
    # validation, and 0 (off) runs all three epochs
    examples, voc = mixed_hop_batch((1, 2, 1, 2))
    dataset = ComplexityDataset({h: [ex for ex in examples if ex.hops == h] for h in (1, 2)})
    validations = {}
    for patience in (0, 1):
        records = []
        cfg = CurriculumConfig(lr_alpha=0.0, warmup_steps=1, batch_size=2,
                               epochs_per_main_complexity=3, val_max_examples=2,
                               plateau_patience=patience)
        train(small_model(voc, n_enc_layers=1, n_dec_layers=1), dataset, cfg, voc,
              val_dataset=dataset, on_event=records.append)
        validations[patience] = [
            sum(r["event"] == "validation" and r["H"] == h for r in records) for h in (1, 2)]
    assert validations == {0: [3, 3], 1: [2, 2]}


def test_validation_encodes_each_step_once(monkeypatch):
    world = synthetic.generate_world(3, {"person": 10, "film": 8, "city": 6, "country": 6})
    rec = synthetic.generate_example(world, 2, seed=0)
    voc = Vocab.build(synthetic.collect_tokens([rec]))
    example = dataio.arranged_example(dataio.arrange_record(rec))
    model = QuestionRewriter(
        ModelConfig(vocab_size=len(voc), d_model=16, n_heads=2, d_ff=24,
                    n_enc_layers=1, n_dec_layers=1, max_len=48),
        rng=np.random.default_rng(0),
    )
    calls = []
    encode = QuestionRewriter.encode
    monkeypatch.setattr(QuestionRewriter, "encode",
                        lambda self, step: calls.append(step) or encode(self, step))
    record = _validate(model, [(2, example)], voc)
    assert len(calls) == 2
    assert math.isfinite(record["val_loss"])


# ---------------------------------------------------------------------------
# the batched graph pass

# (mode_accumulated_sa, mode_accumulated_ca): full model and each ablation
ACCUMULATION_MODES = [(True, True), (False, True), (True, False)]


def mixed_hop_batch(hops=(1, 3, 2, 1, 3, 2)):
    world = synthetic.generate_world(3, {"person": 10, "film": 8, "city": 6, "country": 6})
    recs = [synthetic.generate_example(world, h, seed=s) for s, h in enumerate(hops)]
    voc = Vocab.build(synthetic.collect_tokens(recs))
    examples = [dataio.arranged_example(dataio.arrange_record(r)) for r in recs]
    return examples, voc


def small_model(voc, seed=0, **overrides):
    kw = dict(vocab_size=len(voc), d_model=16, n_heads=2, d_ff=24,
              n_enc_layers=2, n_dec_layers=2, max_len=64)
    kw.update(overrides)
    return QuestionRewriter(ModelConfig(**kw), rng=np.random.default_rng(seed))


def batch_inputs(model, examples, voc):
    """Step inputs, gold questions and each example's greedy intermediate
    questions decoded alone."""
    steps = [make_step_inputs(ex, voc, model.cfg.max_len) for ex in examples]
    golds = [voc.encode(ex.gold_question) for ex in examples]
    pinned = [model.rewrite_forward(s, voc.bos_id, voc.eos_id, gold_final=g)
              .intermediate_tokens for s, g in zip(steps, golds)]
    return steps, golds, pinned


def batched_loss(model, examples, voc, steps, golds, pinned, detach=False):
    results, _ = model.rewrite_batch(steps, voc.bos_id, voc.eos_id, gold_finals=golds,
                                     pinned_intermediates=pinned, detach_cache=detach)
    losses = [final_step_loss(r.final_logits, g, voc.eos_id)
              for r, g in zip(results, golds)]
    return weighted_loss(losses, [ex.hops for ex in examples], 2, 0.8, 0.1)


def loss_and_grads(model, f):
    ad.zero_grads(model.params)
    loss = f()
    loss.backward()
    return loss.item(), {k: p.grad.copy() for k, p in model.params.items()
                         if p.grad is not None}


@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("sa, ca", ACCUMULATION_MODES)
def test_batch_graph_equals_per_example_losses(sa, ca, detach):
    # one graph over 1-, 2- and 3-hop examples gives the loss and every
    # gradient of the per-example graphs
    examples, voc = mixed_hop_batch()
    model = small_model(voc, mode_accumulated_sa=sa, mode_accumulated_ca=ca)
    steps, golds, pinned = batch_inputs(model, examples, voc)
    assert {len(p) for p in pinned} == {0, 1, 2}
    batch, batch_grads = loss_and_grads(
        model, lambda: batched_loss(model, examples, voc, steps, golds, pinned, detach))

    def per_example():
        losses = []
        for ex, s, p in zip(examples, steps, pinned):
            res = model.rewrite_forward(s, voc.bos_id, voc.eos_id, gold_final=golds[len(losses)],
                                        pinned_intermediates=p, detach_cache=detach)
            losses.append(final_step_loss(res.final_logits, golds[len(losses)], voc.eos_id))
        return weighted_loss(losses, [ex.hops for ex in examples], 2, 0.8, 0.1)

    alone, alone_grads = loss_and_grads(model, per_example)
    assert abs(batch - alone) <= 1e-12
    assert batch_grads.keys() == alone_grads.keys() == model.params.keys()
    for name, grad in batch_grads.items():
        assert np.abs(grad - alone_grads[name]).max() <= 1e-12, name


def test_batch_losses_pick_what_each_example_picks_alone():
    examples, voc = mixed_hop_batch()
    model = small_model(voc, seed=1)
    steps, golds, pinned = batch_inputs(model, examples, voc)
    losses = _batch_losses(model, examples, voc)
    for loss, ex, s, p in zip(losses, examples, steps, pinned, strict=True):
        assert abs(loss.item() - _example_loss(model, ex, voc, s, p).item()) <= 1e-12


def test_batch_graph_grad_check():
    examples, voc = mixed_hop_batch()
    model = small_model(voc, seed=2, n_enc_layers=1, n_dec_layers=1)
    # a fixed random point, as in criterion 4: no softmax saturates and
    # every gradient sits above the finite-difference noise floor
    rng = np.random.default_rng(9)
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = rng.normal(0.0, 0.1, p.data.shape)
    steps, golds, pinned = batch_inputs(model, examples, voc)

    def f():
        return batched_loss(model, examples, voc, steps, golds, pinned)

    # as `qrewrite grad-check` does, a coordinate off at eps is confirmed on
    # the same coordinates at eps / 10, which rules out a ReLU kink inside
    # the interval.  Not both: at 1e-5 the central difference of a gradient
    # near 3e-8 (one ff.w2 entry here) already carries 4e-4 relative noise.
    err = min(
        ad.grad_check(f, model.params, eps=eps, n_samples=100,
                      rng=np.random.default_rng(4))
        for eps in (1e-4, 1e-5)
    )
    assert err <= 1e-4


def test_training_encodes_each_step_once(monkeypatch):
    # the greedy picks of intermediate questions reuse the step's encoding
    examples, voc = mixed_hop_batch((1, 3, 2))
    model = small_model(voc)
    calls = []
    encode = QuestionRewriter.encode
    monkeypatch.setattr(QuestionRewriter, "encode",
                        lambda self, step: calls.append(len(step)) or encode(self, step))
    losses = _batch_losses(model, examples, voc)
    assert calls == [3, 2, 1]
    assert all(math.isfinite(loss.item()) for loss in losses)


def test_no_graph_outlives_its_backward(monkeypatch):
    # backward consumes the batch's graph: by the update and by validation
    # no tensor keeps a parent link, so no graph is alive
    examples, voc = mixed_hop_batch((1, 2, 3, 1, 2, 3, 3, 2, 1))
    dataset = ComplexityDataset({h: [ex for ex in examples if ex.hops == h]
                                 for h in (1, 2, 3)})
    model = small_model(voc)
    live = {"adamw": [], "validate": []}

    def graph_nodes():
        return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._parents)

    step, validate = AdamW.step, training._validate

    def counted_step(self, lr):
        live["adamw"].append(graph_nodes())
        step(self, lr)

    def counted_validate(*args):
        live["validate"].append(graph_nodes())
        return validate(*args)

    # a forked validation runs the probe above in the worker, where its
    # count is lost: count at the hand-off in this process instead (the
    # pool is one pack, so no other worker is submitted to here)
    submit = model_module.ForkedWorker.submit

    def counted_submit(self, *args):
        live["validate"].append(graph_nodes())
        submit(self, *args)

    monkeypatch.setattr(AdamW, "step", counted_step)
    monkeypatch.setattr(training, "_validate", counted_validate)
    monkeypatch.setattr(model_module.ForkedWorker, "submit", counted_submit)
    cfg = CurriculumConfig(warmup_steps=2, batch_size=2, rho=0.5)
    result = train(model, dataset, cfg, voc, val_dataset=dataset)
    assert len(live["adamw"]) == result.total_steps > 3
    assert len(live["validate"]) == 3
    assert live == {"adamw": [0] * result.total_steps, "validate": [0, 0, 0]}


# ---------------------------------------------------------------------------
# validation forked beside training


class TestForkedValidation:
    @pytest.fixture(autouse=True)
    def no_child_left(self, monkeypatch):
        monkeypatch.setattr(model_module, "PACK_SIZE", 3)

        def hung(signum, frame):
            raise TimeoutError("train still waits for a validation after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def train_on(monkeypatch, tmp_path, workers, fork_fails=False, **overrides):
        """``train`` of a 1/2/3-hop set, validated on itself, on ``workers``
        processes: its records, its checkpoints' bytes by label, what it
        raised (type and message) and the forks this process made, or
        tried to make if ``fork_fails``."""
        monkeypatch.setattr(model_module, "_workers", lambda n_jobs: min(n_jobs, workers))
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            if fork_fails:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        examples, voc = mixed_hop_batch((1, 2, 3, 1, 2, 3, 3, 2, 1))
        dataset = ComplexityDataset({h: [ex for ex in examples if ex.hops == h]
                                     for h in (1, 2, 3)})
        records, checkpoints = [], {}

        def save(label, m):
            path = tmp_path / f"{workers}-{label}.bin"
            dataio.save_checkpoint(path, m, "00" * 32)
            checkpoints[label] = path.read_bytes()

        cfg = CurriculumConfig(**{"lr_alpha": 1e-2, "warmup_steps": 2, "batch_size": 4,
                                  "epochs_per_main_complexity": 2, **overrides})
        raised = None
        try:
            train(small_model(voc, n_enc_layers=1, n_dec_layers=1), dataset, cfg, voc,
                  val_dataset=dataset, on_checkpoint=save, on_event=records.append)
        except (Exception, KeyboardInterrupt) as exc:
            raised = type(exc), str(exc)
        finally:
            monkeypatch.setattr(os, "fork", fork)
        return records, checkpoints, raised, len(forks)

    # 2 records: one pack; 9: three packs, so the validation child forks too
    @pytest.mark.parametrize("val_max_examples", [2, 9])
    @pytest.mark.parametrize("plateau_patience", [0, 1])
    def test_forked_equals_in_process_byte_for_byte(self, monkeypatch, tmp_path,
                                                    val_max_examples, plateau_patience):
        runs = [self.train_on(monkeypatch, tmp_path, workers,
                              val_max_examples=val_max_examples,
                              plateau_patience=plateau_patience)
                for workers in (1, 2)]
        (records, checkpoints, raised, forks), forked = runs
        assert raised is None and records and "val_loss" in records[0]
        assert set(checkpoints) == {"H1", "H2", "H3", "final"}
        assert forked[:3] == (records, checkpoints, None)
        # the first validation forks the run's one worker, unless patience
        # steers training by the loss: then each validation runs in-process
        # and forks for its second pack share
        validations = sum(r["event"] == "validation" for r in records)
        in_process = validations if val_max_examples == 9 else 0
        assert (forks, forked[3]) == (0, in_process if plateau_patience else 1)

    def test_a_divergence_after_a_forked_validation_emits_what_one_process_does(
            self, monkeypatch, tmp_path):
        batch_losses = training._batch_losses
        calls = []

        def diverging(model, examples, voc):
            calls.append(1)
            losses = batch_losses(model, examples, voc)
            return losses if len(calls) != 4 else [ad.scale(loss, math.nan) for loss in losses]

        monkeypatch.setattr(training, "_batch_losses", diverging)
        runs = [calls.clear() or self.train_on(monkeypatch, tmp_path, workers)
                for workers in (1, 2)]
        assert runs[0][2] == (DivergenceError, "non-finite loss nan at step 3, H=2")
        assert runs[0][:3] == runs[1][:3]
        assert [r["event"] for r in runs[0][0]] == ["validation"] * 2 + ["checkpoint"]
        assert runs[1][3] == 1  # the second validation was pending at the error

    def test_a_failing_validation_fails_alike_in_a_child(self, monkeypatch, tmp_path):
        def failing(model, examples, voc):
            raise LengthError("validation failed")

        monkeypatch.setattr(training, "_validate", failing)
        runs = [self.train_on(monkeypatch, tmp_path, workers) for workers in (1, 2)]
        assert runs[0][0] == runs[1][0] == []
        assert runs[0][2] == runs[1][2] == (LengthError, "validation failed")
        assert runs[1][3] == 1

    def test_an_interrupt_reaps_the_pending_validation(self, monkeypatch, tmp_path):
        batch_losses = training._batch_losses
        calls = []

        def interrupted(model, examples, voc):
            calls.append(1)
            if len(calls) == 4:  # H=2's second update: the second validation pends
                raise KeyboardInterrupt
            return batch_losses(model, examples, voc)

        monkeypatch.setattr(training, "_batch_losses", interrupted)
        records, _, raised, forks = self.train_on(monkeypatch, tmp_path, 2)
        assert raised == (KeyboardInterrupt, "") and forks == 1
        assert [r["event"] for r in records] == ["validation"]

    # 2 records: one pack; 9: three packs, so in-process validation forks too
    @pytest.mark.parametrize("val_max_examples", [2, 9])
    def test_a_fork_that_fails_validates_in_process(self, monkeypatch, tmp_path,
                                                    val_max_examples):
        open_fds = len(os.listdir("/proc/self/fd"))
        runs = [self.train_on(monkeypatch, tmp_path, workers, fork_fails=workers > 1,
                              val_max_examples=val_max_examples)
                for workers in (1, 2)]
        assert runs[0][2] is None and "val_loss" in runs[0][0][0]
        assert runs[1][:3] == runs[0][:3]
        # the worker's fork is tried once; each validation then tries one
        # for its second pack share
        validations = sum(r["event"] == "validation" for r in runs[0][0])
        assert runs[1][3] == 1 + (validations if val_max_examples == 9 else 0)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_a_worker_that_dies_between_validations_names_its_exit_status(
            self, monkeypatch, tmp_path):
        join = model_module.ForkedWorker.join
        killed = []

        def join_then_kill(self):
            result = join(self)
            if not killed:  # the first validation lands, then its worker dies
                os.kill(self.pid, signal.SIGKILL)
                os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)  # left unreaped
                killed.append(self.pid)
            return result

        monkeypatch.setattr(model_module.ForkedWorker, "join", join_then_kill)
        records, _, raised, forks = self.train_on(monkeypatch, tmp_path, 2,
                                                  val_max_examples=2)
        assert raised == (RuntimeError, f"forked worker {killed[0]} exited with status -9 "
                                         "and no result")
        assert [r["event"] for r in records] == ["validation"] and forks == 1
