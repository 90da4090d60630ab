import math
import warnings

import numpy as np
import pytest

from qrewrite import autodiff as ad
from qrewrite.autodiff import Tensor
from qrewrite.errors import ShapeError
from qrewrite.model import within_step_causal_mask


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def softmax_rows(x: Tensor, allow: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax of a 2-D tensor with an optional boolean mask: the
    plain reference the fused ``ad.attention`` op is checked against.

    Disallowed entries get probability exactly zero and receive no
    gradient; each row must keep at least one allowed entry.
    """
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"softmax_rows expects a non-empty matrix, got {x.shape}")
    masked = x.data
    if allow is not None:
        allow = np.asarray(allow, dtype=bool)
        if allow.shape != x.shape:
            raise ShapeError("softmax_rows: mask shape differs from input")
        if not allow.any(axis=1).all():
            raise ShapeError("softmax_rows: a row has no permitted entries")
        masked = np.where(allow, x.data, -np.inf)
    e = np.exp(masked - masked.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        ad._accumulate(x, y * (g - dot))

    return ad._result(y, (x,), bwd)


class TestMatmul:
    """``linear(x, w)``, an affine map with neither bias nor residual: the
    plain matrix product."""

    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.linear(a, t(np.eye(2))).data, a.data)

    def test_hand_case(self):
        out = ad.linear(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_dimension_error(self):
        with pytest.raises(ShapeError):
            ad.linear(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = (t(rng.normal(size=(4, 5))), t(rng.normal(size=(5, 3))),
                       t(rng.normal(size=(3, 6))))
            left = ad.linear(ad.linear(a, b), c).data
            right = ad.linear(a, ad.linear(b, c)).data
            assert np.abs(left - right).max() <= 1e-9

    def test_backward_formulas(self):
        a = t([[1.0, 2.0], [3.0, 4.0]], grad=True)
        b = t([[5.0, 6.0], [7.0, 8.0]], grad=True)
        ad.sum_all(ad.linear(a, b)).backward()
        ones = np.ones((2, 2))
        np.testing.assert_allclose(a.grad, ones @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ ones)


def matmul_nn(a: Tensor, b: Tensor) -> Tensor:
    """a @ b as one node, written here so that the reference for
    ``ad.linear`` shares no code with it."""
    out = ad._result(a.data @ b.data, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            ad._accumulate(a, g @ b.data.T)
            ad._accumulate(b, a.data.T @ g)
        out._backward = bwd
    return out


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T as one node: the tied output head's product before
    ``ad.linear`` fused it, the reference for ``transpose``."""
    out = ad._result(a.data @ b.data.T, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            ad._accumulate(a, g @ b.data)
            ad._accumulate(b, g.T @ a.data)
        out._backward = bwd
    return out


def unfused_linear(x, w, b=None, residual=None, transpose=False):
    """``ad.linear`` as the chain of nodes it replaces."""
    y = matmul_nt(x, w) if transpose else matmul_nn(x, w)
    if b is not None:
        y = ad.add(y, b)
    return y if residual is None else ad.add(residual, y)


class TestLinear:
    @staticmethod
    def _loss(linear, leaves, transpose, bias, residual):
        # two pre-norm blocks whose attention reads keys and values
        # projected from one shared context, as a decoder's cross-attention
        # reads the encoder: the context's gradient sums four terms in the
        # order backward visits the nodes, which the parents' order sets
        ctx_in, u, x_in, wq, wk, w, b, g, beta = leaves
        ctx, x = ad.linear(ctx_in, u), ad.linear(x_in, u)
        for _ in range(2):
            keys, values = ad.linear(ctx, wk), ad.linear(ctx, wq)
            q = ad.linear(ad.layer_norm_rows(x, g, beta), wq)
            attended = ad.attention(q, [keys], [values], 2, *plain_layout(3, 5))
            x = linear(attended, w, b if bias else None, x if residual else None, transpose)
        return ad.cross_entropy(x, [0, 4, 5])

    @staticmethod
    def _leaves(seed):
        rng = np.random.default_rng(seed)
        shapes = [(5, 6), (6, 6), (3, 6), (6, 6), (6, 6), (6, 6), (6,), (6,), (6,)]
        return [t(rng.normal(size=shape), grad=True) for shape in shapes]

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("residual", [False, True])
    def test_bit_equal_to_unfused_chain(self, transpose, bias, residual):
        fused, unfused = self._leaves(5), self._leaves(5)
        lf = self._loss(ad.linear, fused, transpose, bias, residual)
        lu = self._loss(unfused_linear, unfused, transpose, bias, residual)
        assert np.array_equal(lf.data, lu.data)
        lf.backward()
        lu.backward()
        for i, (f, u) in enumerate(zip(fused, unfused)):
            if i == 6 and not bias:
                assert f.grad is None and u.grad is None
            else:
                assert np.array_equal(f.grad, u.grad), i

    @pytest.mark.parametrize("residual", [False, True])
    def test_relu_bit_equal_to_unfused_chain(self, residual):
        # the relu applied in place after the affine map gives the bytes of
        # relu(linear(...)), forward and backward
        def fused(x, w, b, res, transpose):
            return ad.linear(x, w, b, res, transpose, relu=True)

        def unfused(*args):
            return ad.relu(ad.linear(*args))

        mine, ref = self._leaves(7), self._leaves(7)
        lf = self._loss(fused, mine, False, True, residual)
        lu = self._loss(unfused, ref, False, True, residual)
        assert np.array_equal(lf.data, lu.data)
        lf.backward()
        lu.backward()
        for i, (f, u) in enumerate(zip(mine, ref)):
            assert f.grad.tobytes() == u.grad.tobytes(), i

    @pytest.mark.parametrize("transpose", [False, True])
    def test_grad_check(self, transpose):
        leaves = self._leaves(11)
        names = ["ctx_in", "u", "x_in", "wq", "wk", "w", "b", "g", "beta"]

        def f():
            return self._loss(ad.linear, leaves, transpose, True, True)

        err = ad.grad_check(f, dict(zip(names, leaves)), eps=1e-5, n_samples=80,
                            rng=np.random.default_rng(3))
        assert err <= 1e-6

    def test_shape_errors(self):
        x, w = t(np.ones((2, 3))), t(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            ad.linear(x, w, transpose=True)
        with pytest.raises(ShapeError):
            ad.linear(x, w, t(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.linear(x, w, residual=x)


class TestSoftmax:
    def test_uniform(self):
        out = softmax_rows(t([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=6)
            c = rng.normal() * 50
            a = softmax_rows(t([x])).data
            b = softmax_rows(t([x + c])).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_closed_form(self):
        out = softmax_rows(t([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_empty_vector(self):
        with pytest.raises(ShapeError):
            softmax_rows(t(np.zeros((1, 0))))

    def test_sums_to_one_for_extreme_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scale = 10 ** rng.uniform(-3, 2.7)
            x = rng.normal(size=rng.integers(1, 9)) * scale
            y = softmax_rows(t([x])).data
            assert abs(y.sum() - 1.0) <= 1e-12
            assert (y >= 0).all()  # extreme gaps may underflow to exact 0

    def test_rows_masked_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(6, 10)))
        allow = rng.random((6, 10)) < 0.5
        allow[:, 0] = True
        y = softmax_rows(x, allow).data
        np.testing.assert_allclose(y.sum(axis=1), np.ones(6), atol=1e-12)
        assert (y[~allow] == 0.0).all()


class TestLayerNorm:
    def test_constant_input(self):
        out = ad.layer_norm_rows(t([[3.0, 3.0, 3.0]]), t(np.ones(3)), t(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-2)

    def test_unit_pair(self):
        out = ad.layer_norm_rows(
            t([[1.0, -1.0]]), t(np.ones(2)), t(np.zeros(2)), eps=1e-12
        )
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_gives_bias(self):
        bias = t([5.0, -2.0, 0.5])
        out = ad.layer_norm_rows(t([[1.0, 2.0, 9.0]]), t(np.zeros(3)), bias)
        np.testing.assert_allclose(out.data, [bias.data], atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 7, 33])
    def test_equals_mean_var_formula(self, dtype, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(3.0, 5.0, size=(rows, 64)).astype(dtype)
        gain = rng.normal(size=64).astype(dtype)
        bias = rng.normal(size=64).astype(dtype)
        out = ad.layer_norm_rows(Tensor(x), Tensor(gain), Tensor(bias))
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        ref = (x - mean) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias
        assert out.dtype == dtype
        assert np.array_equal(out.data, ref)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = t(np.zeros((3, 4)))
        loss = ad.cross_entropy(logits, [0, 1, 2])
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_saturated_logits(self):
        logits = np.full((2, 5), -100.0)
        logits[0, 3] = 100.0
        logits[1, 1] = 100.0
        loss = ad.cross_entropy(t(logits), [3, 1])
        assert loss.item() < 1e-12

    def test_derived_value(self):
        loss = ad.cross_entropy(t([[0.0, math.log(3.0)]]), [1])
        assert abs(loss.item() - (-math.log(0.75))) < 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(t(np.zeros((1, 4))), [4])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = t(np.arange(4.0).reshape(2, 2), grad=True)
        ad.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_linear_gradient_outer_pattern(self):
        w = t(np.ones((2, 3)), grad=True)
        x = t([[1.0], [2.0], [3.0]])
        ad.sum_all(ad.linear(w, x)).backward()
        np.testing.assert_allclose(w.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))

    def test_unused_parameter_gets_no_gradient(self):
        used = t(np.ones((2, 2)), grad=True)
        unused = t(np.ones((2, 2)), grad=True)
        ad.sum_all(used).backward()
        assert unused.grad is None  # None stands for all-zero

    def test_gradients_accumulate_until_cleared(self):
        w = t(np.ones((2, 2)), grad=True)
        ad.sum_all(w).backward()
        ad.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones((2, 2)))
        ad.zero_grads([w])
        assert w.grad is None

    def test_first_gradients_of_a_shared_array_are_copies(self):
        # add hands its output gradient to both parents, linear to its
        # residual, attention over lists of blocks views of its stacked key
        # and value gradients to each block (the value blocks are the
        # leaves d and e): each parent keeps a copy, so the second backward
        # adds into each gradient once, no two gradients share a buffer and
        # none keeps a larger array alive
        rng = np.random.default_rng(7)
        a, b, c, x, d, e = (t(rng.normal(size=(2, 3)), grad=True) for _ in range(6))
        w = t(rng.normal(size=(3, 3)), grad=True)
        q, weights = (t(rng.normal(size=(3, 3))) for _ in range(2))
        layout = ad.segment_layout([3], [np.arange(4)])
        leaves = dict(zip("abcxwde", (a, b, c, x, w, d, e)))

        def backward():
            keys = [ad.add(a, b), ad.linear(x, w, residual=c)]
            out = ad.attention(q, keys, [d, e], 1, *layout)
            ad.sum_all(ad.mul(out, weights)).backward()

        backward()
        once = {name: p.grad.copy() for name, p in leaves.items()}
        backward()
        for name, p in leaves.items():
            np.testing.assert_array_equal(p.grad, 2 * once[name], err_msg=name)
        grads = [p.grad for p in leaves.values()]
        assert not any(np.shares_memory(g, h) for i, g in enumerate(grads)
                       for h in grads[i + 1:])
        assert all(g.base is None for g in grads)

    def test_non_scalar_backward_rejected(self):
        w = t(np.ones((2, 2)), grad=True)
        with pytest.raises(ShapeError):
            ad.linear(w, w).backward()

    def test_shared_subgraph(self):
        w = t([[2.0]], grad=True)
        y = ad.mul(w, w)
        ad.sum_all(ad.add(y, y)).backward()
        np.testing.assert_allclose(w.grad, [[8.0]])


def graph_of(loss):
    """Every node ``backward`` would visit from ``loss``."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestRelease:
    def test_backward_releases_interior_nodes(self):
        # loss = sum(relu(x @ w + x @ w)): every entry is positive, so
        # dw = 2 x^T 1 and dx = 2 * 1 w^T
        x = t([[1.0, 2.0], [3.0, 4.0]], grad=True)
        w = t([[0.5, 1.0], [1.5, 2.0]], grad=True)
        y = ad.linear(x, w)
        loss = ad.sum_all(ad.relu(ad.add(y, y)))
        nodes = graph_of(loss)
        leaves = [n for n in nodes if not n._parents]
        assert {id(n) for n in leaves} == {id(x), id(w)} and len(nodes) == 6
        loss.backward()
        for node in nodes:
            if any(node is leaf for leaf in leaves):
                continue
            assert node.grad is None and node._parents == ()
            assert node._backward.__closure__ is None  # keeps no array or tensor
        np.testing.assert_array_equal(w.grad, 2 * x.data.T @ np.ones((2, 2)))
        np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 2)) @ w.data.T)

    def test_second_backward_of_one_loss_rejected(self):
        # sum(x @ w) with x = 3: dw is 3; a second pass must not add the
        # first pass's interior gradients again
        w = t([[1.0]], grad=True)
        loss = ad.sum_all(ad.linear(t([[3.0]]), w))
        loss.backward()
        assert w.grad[0, 0] == 3.0
        with pytest.raises(ShapeError):
            loss.backward()
        assert w.grad[0, 0] == 3.0

    @pytest.mark.parametrize("other_leaf", [False, True])
    def test_loss_on_a_consumed_graph_rejected(self, other_leaf):
        # a new loss that reaches an interior tensor of a consumed graph,
        # alone or beside a leaf it could still reach
        w = t([[1.0, 2.0], [3.0, 4.0]], grad=True)
        v = t([[1.0], [-1.0]], grad=True)
        h = ad.linear(t(np.eye(2)), w)
        ad.sum_all(h).backward()
        before = w.grad.copy()
        again = ad.linear(h, v) if other_leaf else ad.mul(h, h)
        with pytest.raises(ShapeError):
            ad.sum_all(again).backward()
        np.testing.assert_array_equal(w.grad, before)
        assert v.grad is None


class TestNoGrad:
    def test_no_graph_recorded(self):
        w = t(np.ones((2, 2)), grad=True)
        with ad.no_grad():
            out = ad.sum_all(ad.linear(w, w))
        assert not out.requires_grad


class TestGradCheck:
    def test_quadratic_form_exact(self):
        rng = np.random.default_rng(0)
        w = t(rng.normal(size=(3, 3)), grad=True)
        a = rng.normal(size=(3, 3))

        def f():
            return ad.sum_all(ad.mul(ad.linear(w, t(a)), w))

        err = ad.grad_check(f, {"w": w}, eps=1e-5, n_samples=9, rng=rng)
        assert err <= 1e-8

    def test_zero_samples_warns(self):
        w = t(np.ones((2, 2)), grad=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = ad.grad_check(lambda: ad.sum_all(w), {"w": w}, n_samples=0)
        assert out == 0.0
        assert caught

    def test_composite_pipeline(self):
        # product -> layer norm -> softmax-weighted mix -> cross entropy
        rng = np.random.default_rng(42)
        w1 = t(rng.normal(size=(4, 6)), grad=True)
        w2 = t(rng.normal(size=(6, 5)), grad=True)
        g = t(np.ones(6), grad=True)
        b = t(np.zeros(6), grad=True)
        x = rng.normal(size=(3, 4))

        def f():
            h = ad.layer_norm_rows(ad.linear(t(x), w1), g, b)
            logits = ad.linear(softmax_rows(h), w2)
            return ad.cross_entropy(logits, [0, 2, 4])

        err = ad.grad_check(
            f, {"w1": w1, "w2": w2, "g": g, "b": b}, eps=1e-4, n_samples=60, rng=rng
        )
        assert err <= 1e-4


def plain_layout(m, n, causal=False):
    """``attention``'s index and layout for one segment: m queries over all
    n key rows, with ``causal`` the last m of them."""
    return ad.segment_layout([m], [np.arange(n)], causal)


def per_head_attention(q, k, v, n_heads, allow):
    """Plain numpy multi-head attention, one head at a time."""
    dk = q.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = (q[:, cols] / np.sqrt(dk)) @ k[:, cols].T
        if allow is not None:
            scores = np.where(allow, scores, -np.inf)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(outs, axis=1)


# (n_heads, query rows, key rows, causal within the last `query rows` keys)
ATTENTION_CASES = [
    (1, 3, 5, False), (1, 3, 5, True),
    (2, 4, 2, False), (2, 4, 7, True),
    (4, 1, 6, False), (4, 3, 8, True),
]


# (n_heads, [(queries, keys), ...] per segment, causal): unequal query and
# key counts across 2-3 segments
SEGMENT_CASES = [
    (1, [(2, 5), (1, 3)], False),
    (2, [(3, 4), (1, 6), (2, 2)], True),
    (4, [(1, 7), (3, 3)], True),
    (2, [(2, 2), (4, 9), (1, 1)], False),
]


def packed_inputs(rng, n_heads, shapes, causal, grad=False):
    """q and k/v with each segment's keys at a gap after the previous
    one's, the matching key index and layout, and each segment's
    (q, k, v, allow)."""
    d = 2 * n_heads
    q = t(rng.normal(size=(sum(m for m, _ in shapes), d)), grad=grad)
    starts = np.cumsum([0] + [n + 2 for _, n in shapes])[:-1]
    k, v = (t(rng.normal(size=(int(starts[-1]) + shapes[-1][1] + 1, d)), grad=grad)
            for _ in range(2))
    layout = ad.segment_layout([m for m, _ in shapes],
                               [np.arange(lo, lo + n) for (_, n), lo in zip(shapes, starts)],
                               causal)
    alone, q_lo = [], 0
    for (m, n), lo in zip(shapes, starts):
        allow = within_step_causal_mask(n - m, m) if causal else None
        keys = slice(lo, lo + n)
        alone.append((q.data[q_lo:q_lo + m], k.data[keys], v.data[keys], allow))
        q_lo += m
    return q, k, v, layout, alone


class TestAttention:
    @staticmethod
    def _inputs(rng, n_heads, m, n, causal, grad=False):
        d = 2 * n_heads
        q, k, v = (t(rng.normal(size=(rows, d)), grad=grad) for rows in (m, n, n))
        allow = within_step_causal_mask(n - m, m) if causal else None
        return q, k, v, allow

    @pytest.mark.parametrize("n_heads, m, n, causal", ATTENTION_CASES)
    def test_matches_per_head_loop(self, n_heads, m, n, causal):
        rng = np.random.default_rng(n_heads * 100 + m * 10 + n)
        q, k, v, allow = self._inputs(rng, n_heads, m, n, causal)
        got = ad.attention(q, [k], [v], n_heads, *plain_layout(m, n, causal)).data
        expected = per_head_attention(q.data, k.data, v.data, n_heads, allow)
        assert got.shape == (m, q.shape[1])
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_heads, m, n, causal", ATTENTION_CASES)
    def test_grad_check(self, n_heads, m, n, causal):
        rng = np.random.default_rng(n_heads * 100 + m * 10 + n + 1)
        q, k, v, _ = self._inputs(rng, n_heads, m, n, causal, grad=True)
        w = t(rng.normal(size=(m, q.shape[1])))
        layout = plain_layout(m, n, causal)

        def f():
            return ad.sum_all(ad.mul(ad.attention(q, [k], [v], n_heads, *layout), w))

        err = ad.grad_check(f, {"q": q, "k": k, "v": v}, eps=1e-5,
                            n_samples=60, rng=rng)
        assert err <= 1e-6

    def test_masked_keys_get_no_weight_or_gradient(self):
        rng = np.random.default_rng(5)
        q, k, v, _ = self._inputs(rng, 2, 2, 3, True, grad=True)
        # the last key is visible only to the last query
        layout = plain_layout(2, 3, causal=True)
        out = ad.attention(q, [k], [v], 2, *layout)
        shifted = t(v.data.copy())
        shifted.data[2] += 1e3
        np.testing.assert_array_equal(
            ad.attention(q, [k], [shifted], 2, *layout).data[0], out.data[0]
        )
        first_row = np.zeros(out.shape)
        first_row[0] = 1.0
        ad.sum_all(ad.mul(out, t(first_row))).backward()
        np.testing.assert_array_equal(k.grad[2], 0.0)
        np.testing.assert_array_equal(v.grad[2], 0.0)
        assert np.abs(k.grad[:2]).max() > 0.0

    def test_shape_errors(self):
        q = t(np.zeros((2, 4)))
        index = np.arange(3)[None]

        def masked(allow):  # a layout of two queries under an explicit mask
            return ad.Padded(2, None, np.ones((1, 2), dtype=bool), allow[None])

        with pytest.raises(ShapeError):
            ad.attention(q, [t(np.zeros((3, 6)))], [t(np.zeros((3, 6)))], 2, *plain_layout(2, 3))
        with pytest.raises(ShapeError):
            ad.attention(q, [t(np.zeros((3, 4)))], [t(np.zeros((3, 4)))], 3, *plain_layout(2, 3))
        with pytest.raises(ShapeError):
            ad.attention(q, [t(np.zeros((3, 4)))], [t(np.zeros((3, 4)))], 2, index,
                         masked(np.ones((2, 2), dtype=bool)))
        with pytest.raises(ShapeError):
            ad.attention(q, [t(np.zeros((3, 4)))], [t(np.zeros((3, 4)))], 2, index,
                         masked(np.array([[True, False, False], [False] * 3])))


    @pytest.mark.parametrize("n_heads, shapes, causal", SEGMENT_CASES)
    def test_segments_attend_alone(self, n_heads, shapes, causal):
        rng = np.random.default_rng(len(shapes) * 10 + n_heads)
        q, k, v, layout, alone = packed_inputs(rng, n_heads, shapes, causal)
        got = ad.attention(q, [k], [v], n_heads, *layout).data
        expected = np.concatenate(
            [per_head_attention(*qkv, n_heads, allow) for *qkv, allow in alone]
        )
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_heads, shapes, causal", SEGMENT_CASES)
    def test_segments_grad_check(self, n_heads, shapes, causal):
        rng = np.random.default_rng(len(shapes) * 10 + n_heads + 1)
        q, k, v, layout, _ = packed_inputs(rng, n_heads, shapes, causal, grad=True)
        w = t(rng.normal(size=q.shape))

        def f():
            out = ad.attention(q, [k], [v], n_heads, *layout)
            return ad.sum_all(ad.mul(out, w))

        err = ad.grad_check(f, {"q": q, "k": k, "v": v}, eps=1e-5,
                            n_samples=80, rng=rng)
        assert err <= 1e-6
        # rows outside every segment get no gradient
        outside = np.ones(k.shape[0], dtype=bool)
        starts = np.cumsum([0] + [n + 2 for _, n in shapes])[:-1]
        for lo, (_, n) in zip(starts, shapes):
            outside[lo:lo + n] = False
        np.testing.assert_array_equal(k.grad[outside], 0.0)
        np.testing.assert_array_equal(v.grad[outside], 0.0)

    @pytest.mark.parametrize("causal", [False, True])
    def test_one_segment_is_plain_attention(self, causal):
        # the built one-segment layout against every key row under an
        # explicit mask
        rng = np.random.default_rng(3)
        q, k, v, allow = TestAttention._inputs(rng, 2, 3, 5, causal, grad=True)
        masked = ad.Padded(3, None, np.ones((1, 3), dtype=bool),
                           None if allow is None else allow[None])
        plain = ad.attention(q, [k], [v], 2, np.arange(5)[None], masked)
        one = ad.attention(q, [k], [v], 2, *plain_layout(3, 5, causal))
        np.testing.assert_array_equal(one.data, plain.data)
        ad.sum_all(plain).backward()
        grads = [x.grad.copy() for x in (q, k, v)]
        ad.zero_grads([q, k, v])
        ad.sum_all(one).backward()
        for x, g in zip((q, k, v), grads):
            np.testing.assert_array_equal(x.grad, g)

    @pytest.mark.parametrize("causal", [False, True])
    def test_segments_sharing_key_rows_add_their_gradients(self, causal):
        # segments whose keys overlap, and one that lists its rows out of
        # order: each shared row gets the sum of the gradients that every
        # segment, attending alone over its own copy of the rows, gives it
        rng = np.random.default_rng(12)
        n_heads, counts = 2, [2, 1, 3]
        keys = [np.arange(1, 5), np.arange(3, 7), np.array([4, 0, 1, 2])]
        q = t(rng.normal(size=(sum(counts), 4)), grad=True)
        k, v = (t(rng.normal(size=(7, 4)), grad=True) for _ in range(2))
        w = t(rng.normal(size=q.shape))
        layout = ad.segment_layout(counts, keys, causal)

        def f():
            return ad.sum_all(ad.mul(ad.attention(q, [k], [v], n_heads, *layout), w))

        err = ad.grad_check(f, {"q": q, "k": k, "v": v}, eps=1e-5,
                            n_samples=60, rng=rng)
        assert err <= 1e-6
        ad.zero_grads([q, k, v])
        f().backward()
        expected = [np.zeros_like(k.data), np.zeros_like(v.data)]
        lo = 0
        for m, rows in zip(counts, keys):
            ks, vs = t(k.data[rows], grad=True), t(v.data[rows], grad=True)
            out = ad.attention(t(q.data[lo:lo + m]), [ks], [vs], n_heads,
                               *plain_layout(m, len(rows), causal))
            ad.sum_all(ad.mul(out, t(w.data[lo:lo + m]))).backward()
            for total, alone in zip(expected, (ks.grad, vs.grad)):
                np.add.at(total, rows, alone)
            lo += m
        assert len(np.intersect1d(keys[0], keys[1])) == 2
        for x, total in zip((k, v), expected):
            np.testing.assert_allclose(x.grad, total, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("keys", [
        [np.arange(0, 3), np.arange(3, 7)],          # every row once, in order
        [np.array([5, 2]), np.array([0, 3, 6])],     # unique rows, out of order
        [np.arange(1, 5), np.arange(3, 7)],          # rows 3 and 4 shared
    ], ids=["in-order", "unique", "shared"])
    def test_backward_scatters_each_key_column_into_its_row(self, keys):
        # the key and value gradients equal those of a copy of every
        # segment's padded keys, each column its own row, added into the
        # rows the columns came from
        rng = np.random.default_rng(5)
        n_heads, counts = 2, [1, 2]
        q = t(rng.normal(size=(sum(counts), 4)), grad=True)
        k, v = (t(rng.normal(size=(7, 4)), grad=True) for _ in range(2))
        w = t(rng.normal(size=q.shape))
        index, layout = ad.segment_layout(counts, keys)
        ad.sum_all(ad.mul(ad.attention(q, [k], [v], n_heads, index, layout), w)).backward()
        kc, vc = (t(x.data[index.ravel()], grad=True) for x in (k, v))
        copies = np.arange(index.size).reshape(index.shape)
        ad.sum_all(ad.mul(ad.attention(t(q.data), [kc], [vc], n_heads, copies, layout),
                          w)).backward()
        for x, copy in ((k, kc), (v, vc)):
            expected = np.zeros_like(x.data)
            np.add.at(expected, index.ravel(), copy.grad)
            np.testing.assert_array_equal(x.grad, expected)
        seen = np.unique(np.concatenate(keys))
        assert not np.any(np.delete(k.grad, seen, axis=0))

    @pytest.mark.parametrize("keys", [
        [np.arange(0, 5)],                           # every row once, in order
        [np.array([4, 1]), np.array([0, 1, 2])],     # rows shared and out of order
    ], ids=["in-order", "scattered"])
    def test_blocks_take_their_rows_of_the_stacked_gradient(self, keys):
        # attention over two blocks against the same attention over one
        # block of their stacked rows: the same bits forward, and each
        # block's gradient is its rows of the stacked one, bit for bit
        rng = np.random.default_rng(9)
        n_heads, counts = 2, [1] * (len(keys) - 1) + [2]
        q = t(rng.normal(size=(sum(counts), 4)), grad=True)
        ka, kb, va, vb = (t(rng.normal(size=(rows, 4)), grad=True) for rows in (3, 2, 3, 2))
        k, v = (t(np.concatenate([a.data, b.data]), grad=True) for a, b in ((ka, kb), (va, vb)))
        w = t(rng.normal(size=q.shape))
        index, layout = ad.segment_layout(counts, keys)
        split = ad.attention(q, [ka, kb], [va, vb], n_heads, index, layout)
        ad.sum_all(ad.mul(split, w)).backward()
        q_split = q.grad
        ad.zero_grads([q])
        whole = ad.attention(q, [k], [v], n_heads, index, layout)
        ad.sum_all(ad.mul(whole, w)).backward()
        assert np.array_equal(split.data, whole.data)
        assert np.array_equal(q_split, q.grad)
        for a, b, stacked in ((ka, kb, k), (va, vb, v)):
            assert np.array_equal(a.grad, stacked.grad[:3])
            assert np.array_equal(b.grad, stacked.grad[3:])
        assert np.abs(kb.grad).max() > 0.0 and np.abs(vb.grad).max() > 0.0

    def test_block_list_errors(self):
        # key and value lists of 2-D blocks as wide as q, in equal numbers
        # and with equal row totals
        q, index, layout = t(np.zeros((2, 4))), *plain_layout(2, 3)
        k2, k1 = t(np.zeros((2, 4))), t(np.zeros((1, 4)))
        for k, v in (([], []), ([k2, k1], [t(np.zeros((3, 4)))]),
                     ([k2, t(np.zeros((1, 6)))], [k2, k1]), ([k2, k1], [k2, k2]),
                     ([k2, t(np.zeros(4))], [k2, k1])):
            with pytest.raises(ShapeError):
                ad.attention(q, k, v, 2, index, layout)
        assert ad.attention(q, [k2, k1], [k1, k2], 2, index, layout).shape == (2, 4)

    def test_segments_shape_errors(self):
        q, k = t(np.zeros((3, 4))), t(np.zeros((5, 4)))
        with pytest.raises(ShapeError):  # a segment without queries
            ad.segment_layout([3, 0], [np.arange(2), np.arange(2, 5)])
        with pytest.raises(ShapeError):  # a segment without keys
            ad.segment_layout([1, 2], [np.arange(2), np.arange(0)])
        with pytest.raises(ShapeError):  # query counts for other segments
            ad.segment_layout([1, 2], [np.arange(5)])
        with pytest.raises(ShapeError):  # more causal queries than keys
            ad.segment_layout([3], [np.arange(2)], causal=True)
        ad.segment_layout([1, 2], [np.arange(2), np.arange(2, 5)])  # adjacent ranges
        with pytest.raises(ShapeError):  # keys past the end of k
            ad.attention(q, [k], [k], 2, *ad.segment_layout([1, 2], [np.arange(2),
                                                                 np.arange(3, 6)]))
        with pytest.raises(ShapeError):  # keys before the start of k
            ad.attention(q, [k], [k], 2, *ad.segment_layout([1, 2], [np.arange(-1, 1),
                                                                 np.arange(2, 5)]))
        with pytest.raises(ShapeError):  # queries do not cover q
            ad.attention(q, [k], [k], 2, *ad.segment_layout([1, 1], [np.arange(2),
                                                                 np.arange(2, 5)]))
        index, _ = plain_layout(3, 5)
        _, layout = ad.segment_layout([1, 2], [np.arange(2), np.arange(2, 5)])
        with pytest.raises(ShapeError):  # an index for another number of segments
            ad.attention(q, [k], [k], 2, index, layout)


def attend_where(q, k, v, n_heads, layout):
    """``ad._attend`` with the masked softmax of ``np.where`` and fresh
    temporaries, as it was before softmaxing in place: the reference."""
    qs, kh, vh = ad._operands(q, k, v, n_heads, layout)
    scores = qs @ kh.transpose(0, 1, 3, 2)
    if layout.allow is not None:
        scores = np.where(layout.allow[:, None], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    p = e / e.sum(axis=3, keepdims=True)
    return p, ad._unpad(ad._merge(p @ vh), layout)


@pytest.mark.parametrize("seed", range(8))
def test_attend_in_place_equals_where_formula(seed):
    # random segments: 1-4 queries each over a window of padded key
    # columns, causal or not, with or without a first column
    rng = np.random.default_rng(seed)
    n_heads = int(rng.choice([1, 2, 4]))
    n_seg, d = int(rng.integers(1, 6)), 4 * n_heads
    counts = rng.integers(1, 5, size=n_seg)
    if seed % 4 == 0:
        counts[:] = 1  # one query per segment, as a lockstep pick
    end = counts + rng.integers(0, 9, size=n_seg)
    first = None if seed % 2 else rng.integers(0, end - counts + 1)
    n_max = int(end.max()) + int(rng.integers(0, 3))
    allow = ad.window_mask(counts, first, end, n_max, causal=seed % 3 != 0)
    layout = ad.Padded(*ad.pad_queries(counts), allow)
    q = rng.normal(size=(int(counts.sum()), d))
    k, v = (rng.normal(size=(n_seg, n_max, d)) for _ in range(2))
    p, out = ad._attend(q, k, v, n_heads, layout)
    p_ref, out_ref = attend_where(q, k, v, n_heads, layout)
    assert np.array_equal(p, p_ref)
    assert np.array_equal(out, out_ref)


class TestStructuralOps:
    def test_embedding_scatter_add(self):
        table = t(np.ones((5, 2)), grad=True)
        rows = ad.embed(table, [1, 1, 3])
        np.testing.assert_array_equal(rows.data, np.ones((3, 2)))
        ad.sum_all(rows).backward()
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_embed_bit_equal_to_unfused_chain(self, dtype):
        # embed with scale and position rows is the lookup, scale and the
        # add of constant rows as one node: the same bytes forward and in
        # the table's gradient
        rng = np.random.default_rng(3)
        table = rng.normal(size=(6, 4)).astype(dtype)
        mine, ref = (Tensor(table.copy(), requires_grad=True) for _ in range(2))
        ids, pos = [1, 4, 1, 0], rng.normal(size=(4, 4)).astype(dtype)
        weights = Tensor(rng.normal(size=(4, 4)).astype(dtype))
        fused = ad.embed(mine, ids, 2.0, pos)
        chain = ad.add(ad.scale(ad.embed(ref, ids), 2.0), ad.constant(pos))
        assert fused.data.dtype == dtype and fused.data.tobytes() == chain.data.tobytes()
        ad.sum_all(ad.mul(fused, weights)).backward()
        ad.sum_all(ad.mul(chain, weights)).backward()
        assert mine.grad.tobytes() == ref.grad.tobytes()

    def test_embedding_bounds(self):
        table = t(np.ones((5, 2)))
        with pytest.raises(IndexError):
            ad.embed(table, [5])
        with pytest.raises(IndexError):
            ad.embed(table, [-1])

    def test_bias_add_broadcast(self):
        a = t(np.zeros((3, 2)), grad=True)
        bias = t([1.0, 2.0], grad=True)
        out = ad.add(a, bias)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))
        ad.sum_all(out).backward()
        np.testing.assert_array_equal(bias.grad, [3.0, 3.0])
