import contextlib
import itertools
import math

import numpy as np
import pytest

from qrewrite import autodiff as ad
from qrewrite import model as model_module
from qrewrite.autodiff import Tensor
from qrewrite.errors import LengthError, ShapeError
from qrewrite.model import (
    AttentionCache,
    ModelConfig,
    QuestionRewriter,
    StepInput,
    accumulated_attention,
    final_step_loss,
    parameter_shapes,
    within_step_causal_mask,
)

from reference_impl import ref_encode, ref_replay, ref_seq2seq
from test_autodiff import softmax_rows

BOS, EOS = 1, 2

# (mode_accumulated_sa, mode_accumulated_ca): full model and each ablation
ACCUMULATION_MODES = [(True, True), (False, True), (True, False)]
# f32 results are compared at 1e-5, about 80 f32 ulps at values of order 1;
# the f64 bounds stay those of the tests below
F32_TOLERANCE = 1e-5


def tiny_model(seed=0, vocab=40, dtype=np.float64, **overrides):
    kw = dict(
        vocab_size=vocab, d_model=16, n_heads=2, d_ff=24,
        n_enc_layers=2, n_dec_layers=2, max_len=32,
    )
    kw.update(overrides)
    cfg = ModelConfig(**kw)
    return QuestionRewriter(cfg, rng=np.random.default_rng(seed), dtype=dtype)


def decoder_variants():
    """(steps, mode_accumulated_sa, mode_accumulated_ca, dtype) for 1-4
    steps, each accumulation mode and both precisions."""
    return itertools.product(range(1, 5), ACCUMULATION_MODES, (np.float64, np.float32))


def param_arrays(model):
    return {k: v.data for k, v in model.params.items()}


def pack_of_one(m, n_steps=1):
    """An empty one-segment pack cache with room for ``n_steps`` steps."""
    return m._pack_cache(1, n_steps * m.cfg.max_len, n_steps * m.cfg.max_len)


def pack_blocks(pack, step_lengths, context_lengths):
    """Segment 0's sealed rows of ``pack`` as an ``AttentionCache`` of
    per-step blocks (constants) whose step t sealed ``step_lengths[t]``
    self-attention and ``context_lengths[t]`` cross-attention rows."""
    view = AttentionCache(len(pack.sa_k))
    for attr, stores, lengths in (
        ("sa_keys", pack.sa_k, step_lengths), ("sa_values", pack.sa_v, step_lengths),
        ("ca_keys", pack.ca_k, context_lengths), ("ca_values", pack.ca_v, context_lengths),
    ):
        bounds = np.cumsum([0, *lengths]).tolist()
        setattr(view, attr, [[Tensor(store[0, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
                             for store in stores])
    view.step_lengths, view.context_lengths = [list(step_lengths)], [list(context_lengths)]
    return view


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    @pytest.mark.parametrize("n_heads", [0, -2])
    def test_heads_must_be_positive(self, n_heads):
        with pytest.raises(ShapeError):
            ModelConfig(vocab_size=10, d_model=8, n_heads=n_heads)

    @pytest.mark.parametrize("layers", [dict(n_enc_layers=-1), dict(n_dec_layers=0),
                                        dict(n_dec_layers=-1)])
    def test_layer_counts_must_build_a_model(self, layers):
        # a decoder without layers never reads the document or the cache
        with pytest.raises(ShapeError):
            ModelConfig(vocab_size=10, **layers)

    def test_encoder_may_have_no_layers(self):
        assert ModelConfig(vocab_size=10, n_enc_layers=0).n_enc_layers == 0

    def test_the_parameter_cap_admits_a_model_of_exactly_its_size(self):
        # one vocabulary entry is two parameters: its embedding row of one
        # column and its output bias
        dims = dict(d_model=1, n_heads=1, d_ff=1, n_enc_layers=0, n_dec_layers=1)
        rest = sum(math.prod(shape) for _, shape in
                   parameter_shapes(ModelConfig(vocab_size=1, **dims))) - 2
        vocab = (model_module.MAX_PARAMETERS - rest) // 2
        cfg = ModelConfig(vocab_size=vocab, **dims)
        assert sum(math.prod(shape) for _, shape in parameter_shapes(cfg)) == (
            model_module.MAX_PARAMETERS)
        with pytest.raises(ShapeError, match="MAX_PARAMETERS"):
            ModelConfig(vocab_size=vocab + 1, **dims)


class TestEncoder:
    def test_output_shape(self):
        m = tiny_model()
        h, lens = m.encode([StepInput([3, 4, 5, 6, 7], 1)])
        assert h.shape == (5, m.cfg.d_model) and lens.tolist() == [5]

    def test_position_sensitivity(self):
        m = tiny_model()
        a = m.encode([StepInput([3, 4, 5], 1)])[0].data
        b = m.encode([StepInput([4, 3, 5], 1)])[0].data
        assert np.abs(a - b).max() > 1e-6

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            tiny_model().encode([StepInput([], 1)])

    def test_token_out_of_range(self):
        m = tiny_model(vocab=10)
        with pytest.raises(IndexError):
            m.encode([StepInput([11], 1)])

    def test_packed_inputs_encode_alone(self):
        m = tiny_model(seed=3)
        steps = [StepInput([4, 9, 8], 1), StepInput([5], 2),
                 StepInput([7, 3, 6, 6, 2], 3)]
        packed, lens = m.encode(steps)
        assert lens.tolist() == [3, 1, 5]
        bounds = np.cumsum([0, *lens]).tolist()
        for step, lo, hi in zip(steps, bounds, bounds[1:]):
            assert np.abs(packed.data[lo:hi] - m.encode([step])[0].data).max() <= 1e-12
        weights = np.random.default_rng(0).normal(size=packed.shape)
        weights[:bounds[2]] = 0.0  # the third input's rows only
        ad.sum_all(ad.mul(packed, Tensor(weights))).backward()  # encodings stay on the graph
        assert np.abs(m.params["enc.l0.sa.wq"].grad).max() > 0.0

    def test_matches_reference(self):
        m = tiny_model(seed=3)
        ids = [4, 9, 8, 3, 17]
        mine = m.encode([StepInput(ids, 1)])[0].data
        ref = ref_encode(param_arrays(m), m.cfg.to_dict(), ids)
        assert np.abs(mine - ref).max() <= 1e-12


class TestAccumulatedAttention:
    def test_width_mismatch(self):
        q = Tensor(np.zeros((2, 4)))
        k = Tensor(np.zeros((3, 5)))
        with pytest.raises(ShapeError):
            accumulated_attention(q, [], [], k, k, False)

    def test_no_prior_causal_equals_masked_self_attention(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(5, 8)))
        k = Tensor(rng.normal(size=(5, 8)))
        v = Tensor(rng.normal(size=(5, 8)))
        got = accumulated_attention(q, [], [], k, v, True).data
        # plain masked attention, written out directly
        scores = (q.data / np.sqrt(8)) @ k.data.T
        allow = np.tril(np.ones((5, 5), dtype=bool))
        z = np.where(allow, scores, -np.inf)
        z = z - z.max(axis=1, keepdims=True)
        w = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.abs(got - w @ v.data).max() <= 1e-12

    def test_block_concatenation_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d_k = int(rng.integers(2, 9))
            n_blocks = int(rng.integers(0, 4))
            blocks_k = [Tensor(rng.normal(size=(int(rng.integers(1, 5)), d_k)))
                        for _ in range(n_blocks)]
            blocks_v = [Tensor(rng.normal(size=b.shape)) for b in blocks_k]
            m = int(rng.integers(1, 5))
            cur_k = Tensor(rng.normal(size=(m, d_k)))
            cur_v = Tensor(rng.normal(size=(m, d_k)))
            # causal queries may be the last few rows of the current block
            causal = bool(rng.integers(0, 2))
            n_q = int(rng.integers(1, m + 1)) if causal else m
            q = Tensor(rng.normal(size=(n_q, d_k)))

            split = accumulated_attention(q, blocks_k, blocks_v, cur_k, cur_v, causal)

            merged_k = Tensor(np.concatenate([b.data for b in blocks_k] + [cur_k.data]))
            merged_v = Tensor(np.concatenate([b.data for b in blocks_v] + [cur_v.data]))
            n_prior = merged_k.shape[0] - n_q
            scores = ad.scale(ad.linear(q, Tensor(merged_k.data.T)), 1 / np.sqrt(d_k))
            allow = within_step_causal_mask(n_prior, n_q) if causal else None
            whole = ad.linear(softmax_rows(scores, allow), merged_v)
            assert np.abs(split.data - whole.data).max() <= 1e-12

    def test_mask_law(self):
        mask = within_step_causal_mask(4, 3)
        assert mask.shape == (3, 7)
        assert mask[:, :4].all()
        assert mask[0, 4] and not mask[0, 5:].any()
        assert mask[1, 4:6].all() and not mask[1, 6]
        assert mask[2].all()


class TestDecoding:
    def test_logits_shape(self):
        m = tiny_model()
        with ad.no_grad():
            state = m.start_step(*m.encode([StepInput([3, 4, 5], 1)]), pack_of_one(m))
            logits = m.decode_token(state, [BOS])
        assert logits.shape == (1, m.cfg.vocab_size)

    def test_incremental_equals_batched_teacher_forcing(self):
        # token by token in a pack's stores, against the pack's block pass
        # and a block pass on the graph
        m = tiny_model(seed=5)
        enc = StepInput([3, 4, 5, 6], 1)
        prefix = [7, 8, 9, 10, 11]
        with ad.no_grad():
            state = m.start_step(*m.encode([enc]), pack_of_one(m))
            rows = np.concatenate([m.decode_token(state, [tok]) for tok in [BOS, *prefix]])
            state = m.start_step(*m.encode([enc]), pack_of_one(m))
            packed, _ = m.teacher_forced_final(state, prefix, BOS, EOS)
        state = m.start_step(*m.encode([enc]), AttentionCache(m.cfg.n_dec_layers))
        graph = m._pass(state, [[BOS, *prefix]], True)
        assert graph.requires_grad
        for block in (packed, graph.data):
            assert np.abs(rows - block).max() <= 1e-10

    def test_max_len_exceeded(self):
        m = tiny_model(max_len=4)
        with ad.no_grad():
            state = m.start_step(*m.encode([StepInput([3, 4], 1)]), pack_of_one(m))
            for tok in [BOS, 5, 6, 7]:
                m.decode_token(state, [tok])
            with pytest.raises(LengthError):
                m.decode_token(state, [8])

    def test_forced_eos_gives_empty_question(self):
        m = tiny_model()
        m.params["out.b"].data[EOS] = 1e4  # always argmax to <eos>
        res = m.rewrite_forward([StepInput([3, 4], 1)], BOS, EOS)
        assert res.final_tokens == []
        assert res.cache.step_lengths == [[1]]  # the <bos> row only

    def test_pack_decoding_runs_no_multi_block_attention(self, monkeypatch):
        # a pack attends over its stores in place; only the encoder calls
        # the attention op, over its one block of keys
        m = tiny_model(seed=17, max_len=16)
        calls = []
        attention = ad.attention
        monkeypatch.setattr(ad, "attention", lambda q, k, v, *a: (
            calls.append(len(k)) or attention(q, k, v, *a)))
        with ad.no_grad():
            cache = pack_of_one(m, n_steps=2)
            state = m.start_step(*m.encode([StepInput([3, 4, 5], 1)]), cache)
            m.greedy_decode_step(state, BOS, EOS)
            m.seal_step(state, cache)
            state = m.start_step(*m.encode([StepInput([6, 7], 2)]), cache)
            out = m.greedy_decode_step(state, BOS, EOS)
            m.rewrite_packed([[StepInput([3, 4], 1), StepInput([5], 2)],
                              [StepInput([6, 7, 8], 1)]], BOS, EOS)
        assert len(out.question_tokens) > 1
        assert calls and set(calls) == {1}

    def test_tie_break_lowest_token_id(self):
        m = tiny_model()
        # identical embedding rows make every logit equal -> argmax is id 0
        m.params["emb.tok"].data[:] = m.params["emb.tok"].data[:1]
        m.params["out.b"].data[:] = 0.0
        with ad.no_grad():
            state = m.start_step(*m.encode([StepInput([3], 1)]), pack_of_one(m))
            out = m.greedy_decode_step(state, BOS, EOS)
        assert set(out.question_tokens) == {0}

    def test_graph_pass_reads_no_earlier_pass(self):
        # every pass over a graph step is a block pass from its first
        # position: a second pass on one state sees none of the first's rows
        m = tiny_model(seed=19)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2)]
        cache = m.rewrite_forward(steps[:1], BOS, EOS).cache

        def fresh():
            return m.start_step(*m.encode([steps[1]]), cache)

        state = fresh()
        m._pass(state, [[BOS, 8, 9, 10]], True)
        again = m._pass(state, [[BOS, 11]], True)
        alone = m._pass(fresh(), [[BOS, 11]], True)
        assert np.array_equal(again.data, alone.data)

    @pytest.mark.parametrize("name", ["decode_token", "greedy_decode_step",
                                      "teacher_forced_final"])
    def test_one_example_api_takes_no_graph_state(self, name):
        m = tiny_model()
        state = m.start_step(*m.encode([StepInput([3, 4], 1)]),
                             AttentionCache(m.cfg.n_dec_layers))
        args = {"decode_token": ([BOS],), "greedy_decode_step": (BOS, EOS),
                "teacher_forced_final": ([5, 6], BOS, EOS)}[name]
        with ad.no_grad(), pytest.raises(ShapeError):
            getattr(m, name)(state, *args)


class TestRewriteForward:
    def test_single_step_equals_plain_seq2seq(self):
        m = tiny_model(seed=9)
        enc_ids = [3, 4, 5, 6, 7]
        gold = [8, 9, 10]
        res = m.rewrite_forward([StepInput(enc_ids, 1)], BOS, EOS, gold_final=gold)
        assert res.intermediate_tokens == []
        ref = ref_seq2seq(param_arrays(m), m.cfg.to_dict(), enc_ids, [BOS, *gold])
        assert np.abs(res.final_logits.data - ref).max() <= 1e-12

    def test_three_steps_produce_two_intermediates(self):
        m = tiny_model(seed=9, max_len=12)
        steps = [StepInput([3, 4], 1), StepInput([5, 6], 2), StepInput([7, 8], 3)]
        res = m.rewrite_forward(steps, BOS, EOS)
        assert len(res.intermediate_tokens) == 2
        assert res.final_tokens is not None
        assert len(res.cache.step_lengths[0]) == 3

    def test_cache_size_law(self):
        m = tiny_model(seed=2, max_len=10)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2), StepInput([8], 3)]
        res = m.rewrite_forward(steps, BOS, EOS)
        qs = [*res.intermediate_tokens, res.final_tokens]
        assert res.cache.step_lengths == [[len(q) + 1 for q in qs]]
        assert res.cache.context_lengths == [[3, 2, 1]]
        for layer_blocks in res.cache.sa_keys:
            assert [b.shape for b in layer_blocks] == [
                (n, m.cfg.d_model) for n in res.cache.step_lengths[0]
            ]
        for layer_blocks in res.cache.ca_keys:
            assert [b.shape[0] for b in layer_blocks] == res.cache.context_lengths[0]

    def test_cache_recompute_equivalence(self):
        # greedy logits, with and without gradients, against a cache-free
        # replay
        rng = np.random.default_rng(31)
        cases = itertools.product(decoder_variants(), (False, True))
        for trial, ((n_steps, (sa, ca), dtype), grad) in enumerate(cases):
            m = tiny_model(seed=100 + trial, max_len=16, dtype=dtype,
                           mode_accumulated_sa=sa, mode_accumulated_ca=ca)
            steps = [
                StepInput(list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(2, 6))), t + 1)
                for t in range(n_steps)
            ]
            with ad.no_grad() if not grad else contextlib.nullcontext():
                res = m.rewrite_forward(steps, BOS, EOS, collect_logits=True)
            questions = [*res.intermediate_tokens, res.final_tokens]
            dec_inputs = [[BOS, *q] for q in questions]
            ref_logits = ref_replay(
                param_arrays(m), m.cfg.to_dict(),
                [s.tokens for s in steps], dec_inputs,
            )
            tol = 1e-10 if dtype == np.float64 else F32_TOLERANCE
            for step_rows, ref_step in zip(res.step_logits, ref_logits, strict=True):
                mine = np.concatenate([r.data for r in step_rows])
                assert mine.shape == ref_step.shape
                assert np.abs(mine - ref_step).max() <= tol, (n_steps, sa, ca, dtype, grad)

    def test_pinned_intermediates_match_greedy(self):
        m = tiny_model(seed=12, max_len=16)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2)]
        gold = [9, 10, 11]
        greedy = m.rewrite_forward(steps, BOS, EOS, gold_final=gold)
        pinned = m.rewrite_forward(
            steps, BOS, EOS, gold_final=gold,
            pinned_intermediates=greedy.intermediate_tokens,
        )
        assert np.abs(greedy.final_logits.data - pinned.final_logits.data).max() <= 1e-12

    def test_block_pass_seals_the_incremental_rows(self):
        # greedy, every step, the final one included, is picked and sealed:
        # under no_grad token by token into a pack's stores, with gradients
        # by a block pass.  Pinned, with the greedy final as gold, the
        # intermediate steps seal the same rows
        all_steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2),
                     StepInput([8, 9], 3), StepInput([10, 3, 6], 4)]
        for n_steps, (sa, ca), dtype in decoder_variants():
            m = tiny_model(seed=13, max_len=16, dtype=dtype,
                           mode_accumulated_sa=sa, mode_accumulated_ca=ca)
            steps = all_steps[:n_steps]
            pack, questions = pack_of_one(m, n_steps), []
            with ad.no_grad():
                for step in steps:
                    state = m.start_step(*m.encode([step]), pack)
                    questions.append(m.greedy_decode_step(state, BOS, EOS).question_tokens)
                    m.seal_step(state, pack)
            incremental = pack_blocks(pack, [len(q) + 1 for q in questions],
                                      [len(s.tokens) for s in steps])
            greedy = m.rewrite_forward(steps, BOS, EOS)
            pinned = m.rewrite_forward(
                steps, BOS, EOS, gold_final=questions[-1],
                pinned_intermediates=questions[:-1],
            )
            assert all(questions)
            assert greedy.final_tokens == questions[-1]
            tol = 1e-12 if dtype == np.float64 else F32_TOLERANCE
            for res, n_sealed in ((greedy, n_steps), (pinned, n_steps - 1)):
                assert res.intermediate_tokens == questions[:-1]
                assert res.cache.step_lengths == [incremental.step_lengths[0][:n_sealed]]
                assert res.cache.context_lengths == [
                    incremental.context_lengths[0][:n_sealed]]
                for blocks in ("sa_keys", "sa_values", "ca_keys", "ca_values"):
                    for mine, ref in zip(getattr(res.cache, blocks),
                                         getattr(incremental, blocks), strict=True):
                        for a, b in zip(mine, ref[:n_sealed], strict=True):
                            assert a.requires_grad and not b.requires_grad
                            assert np.abs(a.data - b.data).max() <= tol, (
                                n_steps, sa, ca, dtype, blocks
                            )

    def test_sealed_blocks_unchanged_by_later_steps(self):
        # graph blocks sealed by block passes under no_grad, and the rows of
        # a pack's stores sealed by greedy decoding
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2), StepInput([8, 9], 3)]
        for (sa, ca), store in itertools.product(ACCUMULATION_MODES, (False, True)):
            m = tiny_model(seed=16, max_len=16, mode_accumulated_sa=sa,
                           mode_accumulated_ca=ca)
            cache = pack_of_one(m, len(steps)) if store else AttentionCache(m.cfg.n_dec_layers)
            rows, contexts = [], []

            def blocks():
                view = pack_blocks(cache, rows, contexts) if store else cache
                return view.sa_keys + view.sa_values

            snapshots = []
            with ad.no_grad():
                for t, step in enumerate(steps):
                    state = m.start_step(*m.encode([step]), cache)
                    if store:
                        question = m.greedy_decode_step(state, BOS, EOS).question_tokens
                    else:
                        question = [10 + t] * (t + 1)
                        m._pass(state, [[BOS, *question]], want_logits=False)
                    m.seal_step(state, cache)
                    rows.append(len(question) + 1)
                    contexts.append(len(step.tokens))
                    snapshots.append([[b.data.copy() for b in layer]
                                      for layer in blocks()])
            final = blocks()
            for snapshot in snapshots:
                for copies, blocks in zip(snapshot, final, strict=True):
                    for old, block in zip(copies, blocks):
                        assert np.array_equal(old, block.data), (sa, ca)

    def test_intermediate_step_costs_one_block_pass(self):
        def reachable_nodes(loss):
            seen, stack = {id(loss)}, [loss]
            while stack:
                for p in stack.pop()._parents:
                    if p.requires_grad and id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            return len(seen)

        m = tiny_model(seed=14, max_len=16)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2)]
        gold = [9, 10]
        counts = []
        for question in ([11, 12], [11, 12, 13, 14, 15, 16, 17, 18, 19, 20]):
            res = m.rewrite_forward(steps, BOS, EOS, gold_final=gold,
                                    pinned_intermediates=[question])
            loss = final_step_loss(res.final_logits, gold, EOS)
            counts.append(reachable_nodes(loss))
        assert counts[0] == counts[1]

    def test_no_steps_rejected(self):
        with pytest.raises(ShapeError):
            tiny_model().rewrite_forward([], BOS, EOS)

    def test_pinned_intermediates_need_gold_finals(self):
        # pinned questions replay on the graph only, under gold finals: the
        # pack only picks, so it never holds a pinned step's rows
        m = tiny_model(seed=12, max_len=16)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2)]
        for grad in (True, False):
            with contextlib.nullcontext() if grad else ad.no_grad():
                with pytest.raises(ShapeError, match="need gold finals"):
                    m.rewrite_forward(steps, BOS, EOS, pinned_intermediates=[[8, 9]])
                with pytest.raises(ShapeError, match="need gold finals"):
                    m.rewrite_batch([steps, steps[:1]], BOS, EOS,
                                    pinned_intermediates=[[[8, 9]], []])


# steps per example of the packs below: segments leave at every step
PACK_STEPS = (1, 4, 2, 3, 2, 4)


def pack_examples(rng, vocab):
    return [
        [StepInput(list(rng.integers(3, vocab, size=rng.integers(2, 7))), t + 1)
         for t in range(n)]
        for n in PACK_STEPS
    ]


def pack_model(sa=True, ca=True, dtype=np.float64):
    # the <eos> bias makes the packed examples stop at different positions,
    # truncation at max_len included
    m = tiny_model(seed=41, max_len=12, dtype=dtype,
                   mode_accumulated_sa=sa, mode_accumulated_ca=ca)
    m.params["out.b"].data[EOS] += 5.0
    return m


class TestPackedDecoding:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("sa, ca", ACCUMULATION_MODES)
    def test_packed_equals_solo_and_replay(self, sa, ca, dtype):
        m = pack_model(sa, ca, dtype)
        examples = pack_examples(np.random.default_rng(5), m.cfg.vocab_size)
        packed = m.rewrite_packed(examples, BOS, EOS, collect_logits=True)
        first = [[*r.intermediate_tokens, r.final_tokens][0] for r in packed]
        assert len({len(q) for q in first}) >= 3
        assert any(r.truncated[0] for r in packed)
        tol = 1e-12 if dtype == np.float64 else F32_TOLERANCE
        ref_tol = 1e-10 if dtype == np.float64 else F32_TOLERANCE
        for steps, res in zip(examples, packed, strict=True):
            with ad.no_grad():
                solo = m.rewrite_forward(steps, BOS, EOS, collect_logits=True)
            questions = [*res.intermediate_tokens, res.final_tokens]
            assert questions == [*solo.intermediate_tokens, solo.final_tokens]
            assert res.truncated == solo.truncated
            ref = ref_replay(param_arrays(m), m.cfg.to_dict(),
                             [s.tokens for s in steps], [[BOS, *q] for q in questions])
            for rows, alone, ref_step in zip(res.step_logits, solo.step_logits, ref,
                                             strict=True):
                mine = np.concatenate([r.data for r in rows])
                alone = np.concatenate([r.data for r in alone])
                assert np.abs(mine - alone).max() <= tol
                assert np.abs(mine - ref_step).max() <= ref_tol, (sa, ca, dtype)

    @pytest.mark.parametrize("sa, ca", ACCUMULATION_MODES)
    def test_packed_teacher_forcing_equals_solo(self, sa, ca):
        m = pack_model(sa, ca)
        rng = np.random.default_rng(6)
        examples = pack_examples(rng, m.cfg.vocab_size)
        golds = [list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(1, 6)))
                 for _ in examples]
        packed = m.rewrite_packed(examples, BOS, EOS, gold_finals=golds)
        for steps, gold, res in zip(examples, golds, packed, strict=True):
            with ad.no_grad():
                forced = m.rewrite_forward(steps, BOS, EOS, gold_final=gold)
                greedy = m.rewrite_forward(steps, BOS, EOS)
            assert res.intermediate_tokens == forced.intermediate_tokens
            gap = res.final_logits.data - forced.final_logits.data
            assert np.abs(gap).max() <= 1e-12
            assert res.final_tokens == greedy.final_tokens

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("sa, ca", ACCUMULATION_MODES)
    @pytest.mark.parametrize("n_segments", [1, 3])
    def test_graph_and_pack_passes_give_the_same_bits(self, n_segments, sa, ca, dtype):
        # two steps each sealed by one block pass, then the third step
        # teacher-forced, on the graph and in a pack; segments of unequal
        # lengths, so the graph's passes attend over lists of two sealed
        # blocks and the current one.  With
        # both accumulations each segment's keys start at column 0 of its
        # padded row on both executors, so f64 is bit for bit.  An ablated
        # pack window starts after the masked sealed columns, so its softmax
        # sums and p @ v run over more columns than the graph's: last bits.
        # At f32 the pack stores round K/V rows to float32 and the graph
        # keeps its blocks at float64
        m = tiny_model(seed=23, dtype=dtype, mode_accumulated_sa=sa,
                       mode_accumulated_ca=ca)
        rng = np.random.default_rng(23)

        def rows(lengths, lo=3):
            return [list(rng.integers(lo, m.cfg.vocab_size, size=n)) for n in lengths]

        docs = [[StepInput(ids, t + 1) for ids in rows((4, 2, 5)[:n_segments])]
                for t in range(3)]
        questions = [[[BOS, *q] for q in rows(lengths[:n_segments])]
                     for lengths in ((5, 1, 6), (2, 7, 3))]
        golds = [[BOS, *g] for g in rows((4, 6, 2)[:n_segments])]
        encodings = [m.encode(step) for step in docs]
        cache = AttentionCache(m.cfg.n_dec_layers, n_segments)
        for encoding, step_questions in zip(encodings, questions):
            state = m.start_step(*encoding, cache)
            m._pass(state, step_questions, False)
            m.seal_step(state, cache)
        assert all(len(blocks) == 2 for blocks in cache.sa_keys + cache.ca_keys)
        graph = m._pass(m.start_step(*encodings[2], cache), golds, True).data
        with ad.no_grad():
            pack = m._pack_cache(n_segments, 3 * m.cfg.max_len, 15)
            for encoding, step_questions in zip(encodings, questions):
                state = m.start_step(*encoding, pack)
                m._pass(state, step_questions, False)
                m.seal_step(state, pack)
            packed = m._pass(m.start_step(*encodings[2], pack), golds, True)
        assert graph.shape == packed.shape == (sum(map(len, golds)), m.cfg.vocab_size)
        if dtype == np.float64 and sa and ca:
            assert np.array_equal(graph, packed)
        tol = 1e-12 if dtype == np.float64 else F32_TOLERANCE
        assert np.abs(graph - packed).max() <= tol

    def test_pack_state_misuse_is_rejected(self):
        m = pack_model()
        with ad.no_grad():
            encodings = m.encode([StepInput([3, 4], 1), StepInput([5], 1)])
            state = m.start_step(*encodings, m._pack_cache(2, 12, 12))
            with pytest.raises(ShapeError):  # one token for two segments
                m.decode_token(state, [BOS])
        with pytest.raises(ShapeError):  # store rows carry no graph
            m.decode_token(state, [BOS, BOS])

    def test_pack_capacity_is_checked(self):
        # a segment past its capacity would write into its neighbour's rows
        m = pack_model()
        with ad.no_grad():
            state = m.start_step(*m.encode([StepInput([3, 4], 1)]), m._pack_cache(2, 2, 12))
            m.decode_token(state, [BOS])
            m.decode_token(state, [5])
            with pytest.raises(ShapeError):
                m.decode_token(state, [6])
            with pytest.raises(ShapeError):
                m.start_step(*m.encode([StepInput([3, 4], 1)]), m._pack_cache(1, 12, 1))

    def test_graph_segments_seal_in_order(self):
        # block t of a graph cache holds the segments that sealed t steps
        m = pack_model()
        cache = AttentionCache(m.cfg.n_dec_layers, n_segments=2)
        state = m.start_step(*m.encode([StepInput([5], 1)]), cache, [1])
        m._pass(state, [[BOS, 7]], want_logits=False)
        m.seal_step(state, cache)
        state = m.start_step(*m.encode([StepInput([3, 4], 1), StepInput([6], 2)]),
                             cache, [0, 1])
        m._pass(state, [[BOS], [BOS]], want_logits=False)
        with pytest.raises(ShapeError):
            m.seal_step(state, cache)

    def test_one_pack_per_batch(self, monkeypatch):
        # every greedy pick of a batch decodes in the one pack it allocates
        m = pack_model()
        allocated = []
        pack_cache = m._pack_cache
        monkeypatch.setattr(m, "_pack_cache",
                            lambda *a: allocated.append(a) or pack_cache(*a))
        steps = [StepInput([3, 4], 1), StepInput([5, 6, 7], 2), StepInput([8], 3)]
        (res,) = m.rewrite_batch([steps], BOS, EOS)
        assert len(res.intermediate_tokens) == 2 and len(allocated) == 1

    def test_a_batch_shares_one_cache(self):
        m = pack_model()
        examples = [[StepInput([3, 4], 1), StepInput([5, 6, 7], 2)], [StepInput([8], 1)]]
        results = m.rewrite_batch(examples, BOS, EOS)
        cache = results[0].cache
        assert isinstance(cache, AttentionCache) and len(cache.step_lengths) == 2
        assert all(res.cache is cache for res in results)
        assert all(res.cache is None for res in m.rewrite_packed(examples, BOS, EOS))

    def test_teacher_forced_batch_opens_no_pack_step(self, monkeypatch):
        # a batch whose every step is teacher-forced or pinned picks nothing
        m = pack_model()
        opened = []
        start_step = m.start_step
        monkeypatch.setattr(m, "start_step", lambda enc, lens, cache, *a: (
            opened.append(type(cache)) or start_step(enc, lens, cache, *a)))
        one_hop = [[StepInput([3, 4], 1)], [StepInput([5], 1)], [StepInput([6, 7, 8], 1)]]
        m.rewrite_batch(one_hop, BOS, EOS, gold_finals=[[6], [7, 8], [9]])
        assert opened == [AttentionCache]
        two_hop = [[StepInput([3, 4], 1), StepInput([5], 2)]]
        m.rewrite_batch(two_hop, BOS, EOS, gold_finals=[[6]], pinned_intermediates=[[[7]]])
        assert opened == [AttentionCache] * 3

    def test_batch_picks_equal_packed_bit_for_bit(self):
        m = pack_model()
        rng = np.random.default_rng(8)
        examples = [
            [StepInput(list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(2, 7))),
                       t + 1) for t in range(n)]
            for n in (3, 1, 2, 3, 2)
        ]
        batch = m.rewrite_batch(examples, BOS, EOS, collect_logits=True)
        packed = m.rewrite_packed(examples, BOS, EOS, collect_logits=True)
        assert any(t for r in packed for t in r.truncated)
        for a, b in zip(batch, packed, strict=True):
            assert a.intermediate_tokens == b.intermediate_tokens
            assert a.final_tokens == b.final_tokens
            assert a.truncated == b.truncated
            for rows_a, rows_b in zip(a.step_logits, b.step_logits, strict=True):
                assert len(rows_a) == len(rows_b)
                for x, y in zip(rows_a, rows_b):
                    assert np.array_equal(x.data, y.data)

    def test_pack_passes_read_the_stores_in_place(self, monkeypatch):
        # a pack pass calls no attention op and builds no key index: its
        # attention kernel gets padded keys straight from the stores.  Fed
        # segments that are a contiguous run attend over views of the
        # stores, others over one copy taken by a fancy index on the
        # segment axis
        m = pack_model()
        with ad.no_grad():
            encodings = m.encode([StepInput([3, 4], 1), StepInput([5, 6, 7], 1),
                                  StepInput([8], 1)])
            cache = m._pack_cache(3, 12, 12)
            state = m.start_step(*encodings, cache)
        made, keys = [], []
        attention, attend = ad.attention, ad._attend
        monkeypatch.setattr(ad, "attention",
                            lambda *a: made.append(a) or attention(*a))
        monkeypatch.setattr(ad, "_attend", lambda q, k, v, *a: (
            keys.append((k, v)) or attend(q, k, v, *a)))
        with ad.no_grad():
            m._pass(state, [[BOS, 5], [BOS], [BOS, 6, 7]], want_logits=True)
            m.decode_token(state, [9, 10, 11])
            in_place = len(keys)
            m.decode_token(state, [12, 13], active=[0, 2])
        assert made == []
        # self- and cross-attention in every layer of each pass
        n_layers = m.cfg.n_dec_layers
        assert (in_place, len(keys) - in_place) == (4 * n_layers, 2 * n_layers)
        stores = cache.sa_k + cache.sa_v + cache.ca_k + cache.ca_v

        def views(k, v):
            return [any(np.shares_memory(a, store) for store in stores) for a in (k, v)]

        assert all(views(k, v) == [True, True] for k, v in keys[:in_place])
        assert all(views(k, v) == [False, False] for k, v in keys[in_place:])

    @pytest.mark.parametrize("sa, ca", [*ACCUMULATION_MODES, (False, False)])
    def test_padding_mask_is_exact(self, sa, ca):
        # before every pass, each store column outside a segment's window
        # is set to 1e30; every logit stays bit for bit what it is without
        m = pack_model(sa, ca)
        examples = [[StepInput([3, 4], 1), StepInput([5, 6, 7], 2)],
                    [StepInput([8], 1), StepInput([9, 10], 2)],
                    [StepInput([11, 12, 13], 1), StepInput([4], 2)]]
        passes = [([[BOS, 5], [BOS], [BOS, 6, 7]], None), ([[8], [9], [10]], None),
                  ([[11], [12]], [0, 2]), ([[13]], [1])]

        def poison(cache, state):
            for j, s in enumerate(state.segs.tolist()):
                sa_end = cache.sa_len[s] + state.n_fed[j]
                sa_first = 0 if sa else cache.sa_len[s]
                ca_first = 0 if ca else state.ca_from[j]
                for stores, first, end in ((cache.sa_k + cache.sa_v, sa_first, sa_end),
                                           (cache.ca_k + cache.ca_v, ca_first,
                                            state.ca_end[j])):
                    for store in stores:
                        store[s, :first] = store[s, end:] = 1e30

        def run(poisoned):
            cache, logits = m._pack_cache(3, 2 * m.cfg.max_len, 12), []
            with ad.no_grad():
                for t in range(2):
                    state = m.start_step(*m.encode([steps[t] for steps in examples]), cache)
                    for ids, active in passes:
                        if poisoned:
                            poison(cache, state)
                        logits.append(m._pass(state, ids, True, active))
                    m.seal_step(state, cache)
            return logits

        for clean, poisoned in zip(run(False), run(True), strict=True):
            assert np.array_equal(clean, poisoned), (sa, ca)

    @pytest.mark.parametrize("sa, ca", [*ACCUMULATION_MODES, (False, False)])
    def test_lockstep_layout_equals_general_layout(self, sa, ca, monkeypatch):
        # every pack pass, lockstep picks and teacher-forced blocks alike,
        # gets the rows and layouts that the general construction builds:
        # query offsets, a causal window per query row and np.repeat
        m = pack_model(sa, ca)
        rng = np.random.default_rng(9)
        examples = pack_examples(rng, m.cfg.vocab_size)
        golds = [list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(1, 6)))
                 for _ in examples]
        advance, lockstep = model_module.PackState.advance, []

        def general(state, lens, active, positions):
            segs = state.segs[active]
            start = state.cache.sa_len[segs]
            end = start + state.n_fed[active] + lens
            q_offsets = np.concatenate(([0], np.cumsum(lens)))
            rows = np.arange(lens.max())
            q_valid = rows < lens[:, None]
            q_index = (None if q_valid.all()
                       else q_offsets[:-1, None] + np.minimum(rows, lens[:, None] - 1))
            cols = np.arange(end.max())
            ends = np.minimum(end[:, None] - lens[:, None] + 1 + rows, end[:, None])
            allow = cols < ends[:, :, None]
            if not sa:
                allow &= cols >= start[:, None, None]
            ca_end = state.ca_end[active]
            ca_first = np.zeros_like(ca_end) if ca else state.ca_from[active]
            ca_cols = np.arange(ca_end.max())
            ca_allow = ((ca_cols < ca_end[:, None, None])
                        & (ca_cols >= ca_first[:, None, None]))
            return ((np.repeat(segs, lens), np.repeat(start, lens) + positions),
                    (end.max(), (lens.max(), q_index, q_valid,
                                 None if allow.all() else allow)),
                    (ca_end.max(), (lens.max(), q_index, q_valid,
                                    None if ca_allow.all() else ca_allow)))

        def same(a, b):
            if isinstance(a, tuple):
                return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
            if a is None or b is None:
                return a is None and b is None
            return np.shape(a) == np.shape(b) and np.array_equal(a, b)

        def checked(state, lens, active, positions):
            lockstep.append(lens is None)
            counts = np.ones(len(active), dtype=np.intp) if lens is None else lens
            expected = general(state, counts, active, positions)
            layout = advance(state, lens, active, positions)
            assert same((layout.rows, (layout.n_sa, layout.sa), (layout.n_ca, layout.ca)),
                        expected)
            return layout

        monkeypatch.setattr(model_module.PackState, "advance", checked)
        m.rewrite_packed(examples, BOS, EOS, gold_finals=golds)
        assert any(lockstep) and not all(lockstep)

    def test_non_contiguous_pack_equals_contiguous_and_solo(self, monkeypatch):
        # the middle example stops first at step 1, so later passes fetch
        # its neighbours' rows by a fancy index; moved to the end of the
        # pack, the same examples stay a contiguous run of segments
        m = pack_model()
        rng = np.random.default_rng(28)
        examples = [[StepInput(list(rng.integers(3, m.cfg.vocab_size,
                                                 size=rng.integers(2, 7))), t + 1)
                     for t in range(2)] for _ in range(3)]
        stores, copies, in_pass = [], [], []
        pack_cache, decoder_pass, attend = m._pack_cache, m._pass, ad._attend

        def spy_cache(*a):
            cache = pack_cache(*a)
            stores.extend(cache.sa_k + cache.sa_v + cache.ca_k + cache.ca_v)
            return cache

        def spy_pass(state, *a, **kw):
            in_pass.append(isinstance(state, model_module.PackState))
            try:
                return decoder_pass(state, *a, **kw)
            finally:
                in_pass.pop()

        def spy_attend(q, k, v, *a):
            if in_pass and in_pass[-1]:  # within a pack pass
                copies.append(not any(np.shares_memory(k, store) for store in stores))
            return attend(q, k, v, *a)

        monkeypatch.setattr(m, "_pack_cache", spy_cache)
        monkeypatch.setattr(m, "_pass", spy_pass)
        monkeypatch.setattr(ad, "_attend", spy_attend)
        middle_first = m.rewrite_packed(examples, BOS, EOS, collect_logits=True)
        fancy, copies[:] = sum(copies), []
        in_order = m.rewrite_packed([examples[0], examples[2], examples[1]], BOS, EOS,
                                    collect_logits=True)
        assert fancy > 0 and copies and sum(copies) == 0
        first = [len(r.intermediate_tokens[0]) for r in middle_first]
        assert first[1] < min(first[0], first[2])
        for j, res in ((0, in_order[0]), (2, in_order[1]), (1, in_order[2])):
            with ad.no_grad():
                solo = m.rewrite_forward(examples[j], BOS, EOS, collect_logits=True)
            mine = middle_first[j]
            for rows, other, alone in zip(mine.step_logits, res.step_logits,
                                          solo.step_logits, strict=True):
                assert len(rows) == len(other) == len(alone)
                for x, y, z in zip(rows, other, alone):
                    assert np.array_equal(x.data, y.data)
                    assert np.abs(x.data - z.data).max() <= 1e-12

    def test_packs_split_in_order(self, monkeypatch):
        m = pack_model()
        examples = pack_examples(np.random.default_rng(7), m.cfg.vocab_size)
        whole = m.rewrite_packed(examples, BOS, EOS)
        monkeypatch.setattr(model_module, "PACK_SIZE", 4)
        split = m.rewrite_packed(examples, BOS, EOS)
        assert ([[*r.intermediate_tokens, r.final_tokens] for r in split]
                == [[*r.intermediate_tokens, r.final_tokens] for r in whole])


def test_graph_passes_gather_no_key_rows(monkeypatch):
    # a 1/2/3-hop batch with gradients attends over lists of K/V blocks
    # through one key index per pass: the only row lookups left are token
    # embeddings and the gathers that seal a step's blocks
    m = tiny_model(seed=6)
    rng = np.random.default_rng(6)
    examples = [[StepInput(list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(2, 6))),
                           t + 1) for t in range(n)] for n in (1, 2, 3)]
    golds = [[5, 6], [7], [3, 8, 4]]
    sealing, lookups = [], []
    lookup = ad._lookup
    sealed_blocks = model_module.GraphState.sealed_blocks

    def spy_sealed_blocks(state, i):
        sealing.append(i)
        try:
            return sealed_blocks(state, i)
        finally:
            sealing.pop()

    monkeypatch.setattr(model_module.GraphState, "sealed_blocks", spy_sealed_blocks)
    monkeypatch.setattr(ad, "_lookup", lambda table, ids: lookups.append(
        "token" if table is m.params["emb.tok"].data else "seal" if sealing else "keys"
    ) or lookup(table, ids))
    results = m.rewrite_batch(examples, BOS, EOS, gold_finals=golds)
    losses = [final_step_loss(r.final_logits, g, EOS) for r, g in zip(results, golds)]
    ad.add(ad.add(losses[0], losses[1]), losses[2]).backward()
    assert set(lookups) == {"token", "seal"}
    # the last layer's keys reach the loss through the sealed blocks and
    # the teacher-forced pass
    last = m.cfg.n_dec_layers - 1
    for layer in (0, last):
        assert np.abs(m.params[f"dec.l{layer}.sa.wk"].grad).max() > 0.0


def test_pack_passes_make_no_autodiff_results(monkeypatch):
    # pack passes compute on plain arrays: lockstep picks (each through
    # decode_token) and rewrite_packed's teacher-forced finals create no
    # autodiff result, while graph passes, greedy or pinned, still build
    # their graph
    m = pack_model()
    rng = np.random.default_rng(12)
    examples = pack_examples(rng, m.cfg.vocab_size)
    golds = [list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(1, 6)))
             for _ in examples]
    deep = [ex for ex in examples if len(ex) in (2, 3)]
    pinned = [[[5 + t] * (t + 1) for t in range(len(ex) - 1)] for ex in deep]
    inside, made, calls = [], [], []
    result = ad._result

    def spy_result(data, parents, backward):
        out = result(data, parents, backward)
        made.append((tuple(inside), out))
        return out

    def spy(name, fn):
        def wrapper(state, *a, **kw):
            kind = "pack" if isinstance(state, model_module.PackState) else "graph"
            calls.append((name, kind, tuple(inside)))
            inside.append((name, kind))
            try:
                return fn(state, *a, **kw)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(ad, "_result", spy_result)
    for name in ("decode_token", "_pass"):
        monkeypatch.setattr(m, name, spy(name, getattr(m, name)))
    deep_golds = [golds[examples.index(ex)] for ex in deep]
    m.rewrite_packed(examples, BOS, EOS, gold_finals=golds)
    m.rewrite_batch(deep, BOS, EOS, gold_finals=deep_golds)
    m.rewrite_batch(deep, BOS, EOS, gold_finals=deep_golds, pinned_intermediates=pinned)
    in_pack = [out for where, out in made if ("_pass", "pack") in where]
    assert in_pack == []
    assert ("decode_token", "graph") not in {c[:2] for c in calls}
    picks = [c for c in calls if c[:2] == ("decode_token", "pack")]
    passes = [c for c in calls if c[:2] == ("_pass", "pack")]
    # every pick enters through decode_token; the other pack passes are
    # rewrite_packed's teacher-forced finals
    assert picks and len(passes) > len(picks)
    assert sum(c[2] == (("decode_token", "pack"),) for c in passes) == len(picks)
    graph = [out for where, out in made if ("_pass", "graph") in where]
    assert graph and any(out.requires_grad for out in graph)


def test_shape_fuzz():
    """Seeded draws of d_model, heads (1, 2 or 4) and 1-3 layers per stack:
    incremental decoding against the replay oracle, packed against solo
    decoding, and the batched loss of 1-3-step examples against each
    example's graph alone and against finite differences."""
    rng = np.random.default_rng(2024)
    for draw in range(10):
        n_heads = int(rng.choice([1, 2, 4]))
        # at d_model 2 every layer norm row is (+-1, -+1) whatever its input,
        # so its gradients vanish below the finite-difference noise
        m = tiny_model(
            seed=draw, vocab=int(rng.integers(12, 40)),
            d_model=4 * int(rng.integers(1, 6)), n_heads=n_heads,
            d_ff=int(rng.integers(8, 33)), n_enc_layers=int(rng.integers(1, 4)),
            n_dec_layers=int(rng.integers(1, 4)), max_len=10,
        )
        shape = (m.cfg.d_model, n_heads, m.cfg.n_enc_layers, m.cfg.n_dec_layers)
        examples = [
            [StepInput(list(rng.integers(3, m.cfg.vocab_size, size=rng.integers(1, 6))),
                       t + 1) for t in range(n)]
            for n in (3, 1, 2)
        ]
        packed = m.rewrite_packed(examples, BOS, EOS, collect_logits=True)
        for steps, res in zip(examples, packed):
            with ad.no_grad():
                solo = m.rewrite_forward(steps, BOS, EOS, collect_logits=True)
            questions = [*res.intermediate_tokens, res.final_tokens]
            assert questions == [*solo.intermediate_tokens, solo.final_tokens], shape
            ref = ref_replay(param_arrays(m), m.cfg.to_dict(),
                             [s.tokens for s in steps], [[BOS, *q] for q in questions])
            for rows, alone, ref_step in zip(res.step_logits, solo.step_logits, ref):
                mine = np.concatenate([r.data for r in rows])
                alone = np.concatenate([r.data for r in alone])
                assert np.abs(mine - alone).max() <= 1e-12
                assert np.abs(mine - ref_step).max() <= 1e-10, shape

        # gradients at a fixed random point (see test_grad_check_two_step_unrolled)
        # of the batched loss, against each example's graph alone
        for p in m.params.values():
            if p.data.ndim == 2:
                p.data = rng.normal(0.0, 0.1, p.data.shape)
        golds = [[5, 6], [7], [3, 8, 4]]
        pinned = [m.rewrite_forward(steps, BOS, EOS, gold_final=gold).intermediate_tokens
                  for steps, gold in zip(examples, golds)]

        def f(batched=True):
            if batched:
                results = m.rewrite_batch(examples, BOS, EOS, gold_finals=golds,
                                          pinned_intermediates=pinned)
            else:
                results = [m.rewrite_forward(steps, BOS, EOS, gold_final=gold,
                                             pinned_intermediates=p)
                           for steps, gold, p in zip(examples, golds, pinned)]
            losses = [final_step_loss(r.final_logits, gold, EOS)
                      for r, gold in zip(results, golds)]
            return ad.scale(ad.add(ad.add(losses[0], losses[1]), losses[2]), 1 / 3)

        grads = []
        for batched in (True, False):
            ad.zero_grads(m.params)
            f(batched).backward()
            grads.append({k: p.grad for k, p in m.params.items()})
        for name, grad in grads[0].items():
            assert np.abs(grad - grads[1][name]).max() <= 1e-12, (shape, name)

        # a ReLU kink inside the perturbation interval corrupts the central
        # difference; as `qrewrite grad-check` does, such a coordinate is
        # confirmed at eps / 10
        err = min(
            ad.grad_check(f, m.params, eps=eps, n_samples=20,
                          rng=np.random.default_rng(draw))
            for eps in (1e-4, 1e-5)
        )
        assert err <= 1e-4, shape


class TestAblations:
    def _two_step_final_logits(self, model, steps, gold):
        res = model.rewrite_forward(steps, BOS, EOS, gold_final=gold)
        return res.final_logits.data

    def test_sa_ablation_ignores_prior_blocks(self):
        base = tiny_model(seed=21, max_len=16)
        ablated = tiny_model(seed=21, max_len=16, mode_accumulated_sa=False)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7, 8], 2)]
        gold = [9, 10]

        got = self._two_step_final_logits(ablated, steps, gold)

        # cache-free oracle: run the full model but hand it a cache whose SA
        # blocks were emptied after step 1 sealed
        res1 = base.rewrite_forward([steps[0]], BOS, EOS)
        cache = res1.cache
        stripped = AttentionCache(base.cfg.n_dec_layers)
        stripped.ca_keys = cache.ca_keys
        stripped.ca_values = cache.ca_values
        stripped.step_lengths = list(cache.step_lengths)
        stripped.context_lengths = list(cache.context_lengths)
        state = base.start_step(*base.encode([steps[1]]), stripped)
        logits = base._pass(state, [[BOS, *gold]], want_logits=True)

        # same intermediate question either way (step 1 has no prior cache)
        assert res1.final_tokens == ablated.rewrite_forward(
            [steps[0]], BOS, EOS
        ).final_tokens
        assert np.abs(got - logits.data).max() <= 1e-12

    def test_ca_ablation_ignores_prior_context(self):
        ablated = tiny_model(seed=21, max_len=16, mode_accumulated_ca=False)
        full = tiny_model(seed=21, max_len=16)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7, 8], 2)]
        gold = [9, 10]
        a = self._two_step_final_logits(ablated, steps, gold)
        b = self._two_step_final_logits(full, steps, gold)
        assert np.abs(a - b).max() > 1e-9  # the mode really changes step 2

    def test_ablations_identical_at_t1(self):
        gold = [9, 10, 11]
        outs = []
        for sa, ca in [(True, True), (False, True), (True, False)]:
            m = tiny_model(seed=4, mode_accumulated_sa=sa, mode_accumulated_ca=ca)
            outs.append(
                m.rewrite_forward([StepInput([3, 4, 5], 1)], BOS, EOS,
                                  gold_final=gold).final_logits.data
            )
        assert np.abs(outs[0] - outs[1]).max() == 0.0
        assert np.abs(outs[0] - outs[2]).max() == 0.0


class TestTraining:
    def test_final_step_loss_uniform(self):
        m = tiny_model()
        logits = Tensor(np.zeros((3, m.cfg.vocab_size)))
        loss = final_step_loss(logits, [5, 6], EOS)
        assert abs(loss.item() - np.log(m.cfg.vocab_size)) < 1e-12

    def test_final_step_loss_length_mismatch(self):
        with pytest.raises(ShapeError):
            final_step_loss(Tensor(np.zeros((2, 10))), [5, 6], EOS)

    def test_saturated_gold_loss_near_zero(self):
        v = 12
        gold = [5, 6]
        targets = [5, 6, EOS]
        logits = np.full((3, v), -50.0)
        for i, tgt in enumerate(targets):
            logits[i, tgt] = 50.0
        loss = final_step_loss(Tensor(logits), gold, EOS)
        assert loss.item() < 1e-12

    def test_gradient_reaches_step1_computations(self):
        # token 30 appears only in step 1's input; its embedding row can
        # receive gradient through the sealed cache (end-to-end path) and
        # through the tied output head.  Detaching the cache removes only
        # the first path, so the difference isolates end-to-end flow.
        m = tiny_model(seed=8, max_len=16)
        steps = [StepInput([30, 4, 5], 1), StepInput([6, 7, 8], 2)]
        gold = [9, 10]
        pinned = m.rewrite_forward(steps, BOS, EOS, gold_final=gold).intermediate_tokens

        grads = {}
        for detach in (False, True):
            ad.zero_grads(m.params)
            res = m.rewrite_forward(
                steps, BOS, EOS, gold_final=gold,
                pinned_intermediates=pinned, detach_cache=detach,
            )
            loss = final_step_loss(res.final_logits, gold, EOS)
            loss.backward()
            grads[detach] = m.params["emb.tok"].grad[30].copy()
            if detach:
                assert np.allclose(loss.item(), baseline_loss)
            else:
                baseline_loss = loss.item()
        assert np.abs(grads[False]).max() > 0.0
        assert np.abs(grads[False] - grads[True]).max() > 1e-12

    def test_grad_check_two_step_unrolled(self):
        m = tiny_model(seed=15, vocab=24, max_len=12)
        # check at a fixed random point, independent of the training init:
        # at N(0, 0.1) no softmax saturates and every gradient sits well
        # above the finite-difference noise floor
        rng = np.random.default_rng(77)
        for p in m.params.values():
            if p.data.ndim == 2:
                p.data = rng.normal(0.0, 0.1, p.data.shape)
        steps = [StepInput([3, 4, 5], 1), StepInput([6, 7], 2)]
        gold = [9, 10]
        pinned = m.rewrite_forward(steps, BOS, EOS, gold_final=gold).intermediate_tokens

        def f():
            res = m.rewrite_forward(
                steps, BOS, EOS, gold_final=gold, pinned_intermediates=pinned
            )
            return final_step_loss(res.final_logits, gold, EOS)

        err = ad.grad_check(f, m.params, eps=1e-4, n_samples=40,
                            rng=np.random.default_rng(0))
        assert err <= 1e-4
