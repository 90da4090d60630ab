import gc
import math

import numpy as np
import pytest

from qrewrite import autodiff as ad
from qrewrite import dataio, synthetic, training
from qrewrite.autodiff import Tensor
from qrewrite.errors import ConfigError, ShapeError
from qrewrite.docgraph import make_step_inputs
from qrewrite.model import ModelConfig, QuestionRewriter, final_step_loss
from qrewrite.training import (
    AdamW,
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
        # norms 5 and 1.5 (between max_norm and twice it) clip to 1; 0.5
        # stays as it is
        for grad, norm in (([3.0, 4.0], 5.0), ([0.9, 1.2], 1.5), ([0.3, 0.4], 0.5)):
            p = Tensor(np.zeros(2), requires_grad=True)
            p.grad = np.array(grad)
            assert clip_grad_norm({"p": p}, max_norm=1.0) == pytest.approx(norm)
            if norm > 1.0:
                assert np.linalg.norm(p.grad) == pytest.approx(1.0)
                assert np.allclose(p.grad * norm, grad, rtol=1e-12, atol=0)
            else:
                assert p.grad.tolist() == grad


class LoopAdamW:
    """The per-tensor AdamW that the flat one replaced, kept as its
    reference: one update per tensor, a new parameter array each step."""

    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params = dict(params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = p.data - lr * (update + self.weight_decay * p.data)


# shapes of the parameters the flat and the loop AdamW update side by side:
# a matrix, a bias, a scalar and a matrix that spans several chunks
FLAT_SHAPES = {"w": (7, 5), "b": (5,), "s": (), "big": (90, 130)}


def twin_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    arrays = {name: rng.normal(size=shape).astype(dtype) for name, shape in FLAT_SHAPES.items()}
    return [{name: Tensor(a.copy(), requires_grad=True) for name, a in arrays.items()}
            for _ in range(2)]


class TestFlatAdamW:
    @pytest.mark.parametrize("chunk_bytes", [training.STEP_CHUNK_BYTES, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_per_tensor_loop_byte_for_byte(self, monkeypatch, dtype, chunk_bytes):
        # gradients that backward accumulates into the buffer, one the caller
        # assigns, one left None or never reached, and -0.0 elements: every
        # parameter and moment has the loop's bytes after each of 25 steps
        monkeypatch.setattr(training, "STEP_CHUNK_BYTES", chunk_bytes)
        flat_params, loop_params = twin_params(dtype)
        flat, loop = AdamW(flat_params), LoopAdamW(loop_params)
        rng = np.random.default_rng(1)
        for step in range(25):
            flat.zero_grad()
            for name, shape in FLAT_SHAPES.items():
                g = rng.normal(size=shape).astype(dtype)
                if g.ndim:
                    g.flat[::3] = -0.0
                if name == "s" and step % 3 == 0:  # no gradient this step
                    if step % 2:
                        flat_params[name].grad = None
                    loop_params[name].grad = None
                elif name == "b":  # a gradient the caller assigns
                    flat_params[name].grad = g.copy()
                    loop_params[name].grad = g.copy()
                else:  # backward's first +=, and a fresh array in the loop
                    flat_params[name].grad += g
                    loop_params[name].grad = np.array(g)
            lr = 0.05 / (step + 1)
            flat.step(lr)
            loop.step(lr)
            for name in FLAT_SHAPES:
                mine, ref = flat_params[name], loop_params[name]
                assert mine.data.dtype == dtype
                assert mine.data.tobytes() == ref.data.tobytes(), (step, name)
        assert flat.m.tobytes() == np.concatenate(
            [loop.m[name].ravel() for name in FLAT_SHAPES]).tobytes()
        assert flat.v.tobytes() == np.concatenate(
            [loop.v[name].ravel() for name in FLAT_SHAPES]).tobytes()

    def test_parameters_are_views_of_the_buffer(self):
        params, _ = twin_params(np.float64)
        before = {name: p.data.copy() for name, p in params.items()}
        opt = AdamW(params)
        for name, p in params.items():
            assert np.shares_memory(p.data, opt.data)
            assert p.data.tobytes() == before[name].tobytes()
        opt.zero_grad()
        for p in params.values():
            assert np.shares_memory(p.grad, opt.grad)
            assert np.all(np.signbit(p.grad)) and not np.any(p.grad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_rebound_parameter_is_taken_not_skipped(self, dtype):
        # a parameter whose data is rebound after the optimizer is built is
        # updated from the new array, which the buffer then holds, as the
        # loop updates it
        flat_params, loop_params = twin_params(dtype)
        flat, loop = AdamW(flat_params), LoopAdamW(loop_params)
        rng = np.random.default_rng(2)
        for step in range(3):
            if step == 1:
                new = rng.normal(size=FLAT_SHAPES["w"]).astype(dtype)
                flat_params["w"].data = new.copy()
                loop_params["w"].data = new.copy()
            flat.zero_grad()
            for name, shape in FLAT_SHAPES.items():
                g = rng.normal(size=shape).astype(dtype)
                flat_params[name].grad += g
                loop_params[name].grad = g
            flat.step(0.1)
            loop.step(0.1)
            assert np.shares_memory(flat_params["w"].data, flat.data)
            for name in FLAT_SHAPES:
                assert (flat_params[name].data.tobytes()
                        == loop_params[name].data.tobytes()), (step, name)

    def test_mixed_dtypes_raise(self):
        params = {"a": Tensor(np.zeros(2), requires_grad=True),
                  "b": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}
        with pytest.raises(ShapeError):
            AdamW(params)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_grad_then_backward_gives_the_fresh_gradients(self, dtype):
        # backward into the cleared buffer gives each parameter the bytes
        # of the gradient it gets after ad.zero_grads, signed zeros and the
        # cast to the model's dtype included, twice accumulated too; a
        # parameter no path reaches keeps -0.0, which None stood for
        examples, voc = mixed_hop_batch((1, 2, 3))
        fresh, flat = (small_model(voc, dtype=dtype, n_enc_layers=1) for _ in range(2))
        opt = AdamW(flat.params)

        def backward(model):
            losses = _batch_losses(model, examples, voc)
            weighted_loss(losses, [ex.hops for ex in examples], 2, 0.8, 0.1).backward()

        ad.zero_grads(fresh.params)
        opt.zero_grad()
        for _ in range(2):
            backward(fresh)
            backward(flat)
            for name, p in fresh.params.items():
                mine = flat.params[name].grad
                assert np.shares_memory(mine, opt.grad) and mine.dtype == dtype
                if p.grad is None:
                    assert np.all(np.signbit(mine)) and not np.any(mine), name
                else:
                    assert mine.tobytes() == p.grad.tobytes(), name


def test_train_plan_shorter_than_warmup_runs():
    # the warmup is clamped to the plan, so lr_at never sees total <= warmup
    world = synthetic.generate_world(3, {"person": 10, "film": 8, "city": 6, "country": 6})
    recs = [synthetic.generate_example(world, 1, seed=s) for s in range(4)]
    voc = Vocab.build(synthetic.collect_tokens(recs))
    examples = [dataio.arranged_example(dataio.arrange_record(r)) for r in recs]
    model = QuestionRewriter(
        ModelConfig(vocab_size=len(voc), d_model=16, n_heads=2, d_ff=24,
                    n_enc_layers=1, n_dec_layers=1, max_len=32),
        rng=np.random.default_rng(0), dtype=np.float64,
    )
    cfg = CurriculumConfig(warmup_steps=100, batch_size=2, epochs_per_main_complexity=1)
    result = train(model, examples, cfg, voc)
    assert result.total_steps == 2
    assert math.isfinite(result.final_train_loss)


def test_no_examples_is_a_config_error():
    _, voc = mixed_hop_batch((1,))
    with pytest.raises(ConfigError, match="no examples at complexity 1"):
        train(small_model(voc), [], CurriculumConfig(), voc)


@pytest.mark.parametrize("curriculum", training.CURRICULUM_VARIANTS)
def test_standard_alone_trains_without_one_hop_examples(curriculum):
    # standard trains once, at the highest hop count, on the levels
    # present; the sweeps from H = 1 need every level up to the highest,
    # and an empty dataset has none under any curriculum
    examples, voc = mixed_hop_batch((2, 3, 2))
    cfg = CurriculumConfig(curriculum=curriculum, batch_size=2, warmup_steps=1)
    model = small_model(voc, n_enc_layers=1, n_dec_layers=1)
    if curriculum == "standard":
        result = train(model, examples, cfg, voc)
        assert result.total_steps == 2 and math.isfinite(result.final_train_loss)
    else:
        with pytest.raises(ConfigError, match="no examples at complexity 1"):
            train(model, examples, cfg, voc)
    with pytest.raises(ConfigError, match="no examples at complexity 1"):
        train(model, [], cfg, voc)


def test_train_groups_its_examples_by_hop(monkeypatch, tmp_path):
    # interleaved hop levels train as the same list stably sorted by hop:
    # the same records and checkpoint bytes.  Validation decodes the lowest
    # hops first, in input order within each hop, cut to val_max_examples
    examples, voc = mixed_hop_batch((2, 1, 3, 1, 2, 3, 3, 2, 1))
    pools = []
    validate = training._validate
    monkeypatch.setattr(training, "_validate", lambda model, pool, voc: (
        pools.append([ex.example_id for ex in pool]) or validate(model, pool, voc)))
    runs = []
    for order in (examples, sorted(examples, key=lambda ex: ex.hops)):
        records, checkpoints = [], {}

        def save(label, m):
            path = tmp_path / f"{label}.bin"
            dataio.save_checkpoint(path, m, "00" * 32)
            checkpoints[label] = path.read_bytes()

        cfg = CurriculumConfig(lr_alpha=1e-2, warmup_steps=2, batch_size=4,
                               val_max_examples=4)
        train(small_model(voc, n_enc_layers=1, n_dec_layers=1), order, cfg, voc,
              val_examples=order, on_checkpoint=save, on_event=records.append)
        runs.append((records, checkpoints))
    assert runs[0] == runs[1] and set(runs[0][1]) == {"H1", "H2", "H3", "final"}
    ids = [ex.example_id for ex in examples]
    assert pools[0] == [ids[1], ids[3], ids[8], ids[0]]
    assert pools == [pools[0]] * len(pools) and len(pools) == 6


def test_an_f32_model_trains_in_f32():
    examples, voc = mixed_hop_batch((1, 2, 1, 2))
    model = small_model(voc, dtype=np.float32, n_enc_layers=1, n_dec_layers=1)
    train(model, examples, CurriculumConfig(warmup_steps=1, batch_size=2, lr_alpha=0.01), voc)
    assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float32)}
    assert {p.grad.dtype for p in model.params.values()} == {np.dtype(np.float32)}


def test_plateau_patience_ends_each_h_early():
    # at lr_alpha 0 no update moves the model, so the validation loss never
    # improves on an H's first epoch: patience 1 ends each H after its second
    # validation, and 0 (off) runs all three epochs
    examples, voc = mixed_hop_batch((1, 2, 1, 2))
    validations = {}
    for patience in (0, 1):
        records = []
        cfg = CurriculumConfig(lr_alpha=0.0, warmup_steps=1, batch_size=2,
                               epochs_per_main_complexity=3, val_max_examples=2,
                               plateau_patience=patience)
        train(small_model(voc, n_enc_layers=1, n_dec_layers=1), examples, cfg, voc,
              val_examples=examples, on_event=records.append)
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
                        lambda self, steps: calls.append(steps) or encode(self, steps))
    record = _validate(model, [example], voc)
    assert len(calls) == 2
    assert math.isfinite(record["val_loss"])


def test_val_loss_is_the_mean_of_the_final_step_losses(monkeypatch):
    # the plain mean over the pool of each example's final-step loss,
    # computed here from the results of _validate's rewrite_packed
    examples, voc = mixed_hop_batch((1, 3, 2, 2))
    model = small_model(voc)
    results = []
    rewrite_packed = QuestionRewriter.rewrite_packed

    def kept(self, *args, **kw):
        results.extend(rewrite_packed(self, *args, **kw))
        return results

    monkeypatch.setattr(QuestionRewriter, "rewrite_packed", kept)
    record = _validate(model, examples, voc)
    losses = [final_step_loss(res.final_logits, voc.encode(ex.gold_question),
                              voc.eos_id).item()
              for res, ex in zip(results, examples, strict=True)]
    assert len(set(losses)) == len(losses) == 4
    assert abs(record["val_loss"] - math.fsum(losses) / len(losses)) <= 1e-12


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


def small_model(voc, seed=0, dtype=np.float64, **overrides):
    kw = dict(vocab_size=len(voc), d_model=16, n_heads=2, d_ff=24,
              n_enc_layers=2, n_dec_layers=2, max_len=64)
    kw.update(overrides)
    return QuestionRewriter(ModelConfig(**kw), rng=np.random.default_rng(seed), dtype=dtype)


def batch_inputs(model, examples, voc):
    """Step inputs, gold questions and each example's greedy intermediate
    questions decoded alone."""
    steps = [make_step_inputs(ex, voc, model.cfg.max_len) for ex in examples]
    golds = [voc.encode(ex.gold_question) for ex in examples]
    pinned = [model.rewrite_forward(s, voc.bos_id, voc.eos_id, gold_final=g)
              .intermediate_tokens for s, g in zip(steps, golds)]
    return steps, golds, pinned


def batched_loss(model, examples, voc, steps, golds, pinned, detach=False):
    results = model.rewrite_batch(steps, voc.bos_id, voc.eos_id, gold_finals=golds,
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
                        lambda self, steps: calls.append(len(steps)) or encode(self, steps))
    losses = _batch_losses(model, examples, voc)
    assert calls == [3, 2, 1]
    assert all(math.isfinite(loss.item()) for loss in losses)


def test_no_graph_outlives_its_backward(monkeypatch):
    # backward consumes the batch's graph: by the update and by validation
    # no tensor keeps a parent link, so no graph is alive
    examples, voc = mixed_hop_batch((1, 2, 3, 1, 2, 3, 3, 2, 1))
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

    monkeypatch.setattr(AdamW, "step", counted_step)
    monkeypatch.setattr(training, "_validate", counted_validate)
    cfg = CurriculumConfig(warmup_steps=2, batch_size=2, rho=0.5)
    result = train(model, examples, cfg, voc, val_examples=examples)
    assert len(live["adamw"]) == result.total_steps > 3
    assert len(live["validate"]) == 3
    assert live == {"adamw": [0] * result.total_steps, "validate": [0, 0, 0]}
