"""Dense tensors with reverse-mode automatic differentiation.

Flat row-major numpy buffers and the handful of differentiable operations a
small encoder-decoder transformer needs: matmul, row-wise (masked) softmax,
fused multi-head attention (also over row segments packed into one op),
layer normalization, embedding lookup, cross-entropy.  Every tensor is 2-D or smaller.  No general
broadcasting; the only implicit broadcast is a bias row added to every row
of a matrix.

Tensors are immutable after forward construction except for their ``grad``
buffers.  Gradients accumulate across backward calls until ``zero_grads``
resets them.  Graph recording can be suspended with ``no_grad()`` for
inference; the flag is a ``ContextVar`` so concurrent use on disjoint
graphs stays safe.
"""

from __future__ import annotations

import contextvars
import warnings
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ShapeError

_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "qrewrite_grad_enabled", default=True
)


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def grad_enabled() -> bool:
    return _grad_enabled.get()


class Tensor:
    """A dense numeric array with an optional backward-graph record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Operator sugar for the most common compositions.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def backward(self) -> None:
        """Propagate gradients from this scalar into every reachable tensor.

        Gradients accumulate; call ``zero_grads`` between backward passes
        that should not sum.
        """
        if self.data.shape != ():
            raise ShapeError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise ShapeError("backward() on a tensor with no graph attached")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        _accumulate(self, np.ones((), dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    # hot path: bypass Tensor.__init__ checks, op outputs are always float
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def zero_grads(params: Iterable[Tensor] | Mapping[str, Tensor]) -> None:
    tensors = params.values() if isinstance(params, Mapping) else params
    for t in tensors:
        t.grad = None


def constant(data: np.ndarray) -> Tensor:
    """Wrap a float array as a tensor without a graph, sharing its memory."""
    return _result(data, (), None)


def detach(a: Tensor) -> Tensor:
    """Same values, no backward graph: a gradient stopper."""
    return constant(a.data)


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a 1-D bias added to every row of 2-D ``a``."""
    bias_row = b.data.ndim == 1 and a.data.ndim == 2 and a.shape[1] == b.shape[0]
    if not bias_row and a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = _result(a.data + b.data, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0) if bias_row else g)
        out._backward = bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = _result(a.data * b.data, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)
        out._backward = bwd
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = _result(a.data * s, (a,), None)
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, g * s)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors.

    Backward: dA = dC @ B^T, dB = A^T @ dC.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    out = _result(a.data @ b.data, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        out._backward = bwd
    return out


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T without materializing the transpose."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"matmul_nt: incompatible shapes {a.shape} x {b.shape}")
    out = _result(a.data @ b.data.T, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            _accumulate(a, g @ b.data)
            _accumulate(b, g.T @ a.data)
        out._backward = bwd
    return out


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 2-D tensors vertically; backward splits the gradient back."""
    if not tensors:
        raise ShapeError("concat_rows of an empty sequence")
    width = tensors[0].shape[1]
    for t in tensors:
        if t.data.ndim != 2 or t.shape[1] != width:
            raise ShapeError("concat_rows: all blocks must share their width")
    out = _result(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), None)
    if out.requires_grad:
        offsets = np.cumsum([0] + [t.shape[0] for t in tensors])
        def bwd(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                _accumulate(t, g[lo:hi])
        out._backward = bwd
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] of shape {a.shape}")
    out = _result(a.data[start:stop].copy(), (a,), None)
    if out.requires_grad:
        def bwd(g):
            # only rows start:stop change: add into them in place
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g
        out._backward = bwd
    return out


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of ``table``; backward scatter-adds into the used rows."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("embedding expects a non-empty 1-D id sequence")
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be 2-D")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise IndexError(
            f"token id out of range [0, {table.shape[0]}): {idx.min()}..{idx.max()}"
        )
    out = _result(table.data[idx], (table,), None)
    if out.requires_grad:
        def bwd(g):
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            _accumulate(table, full)
        out._backward = bwd
    return out


def relu(a: Tensor) -> Tensor:
    out = _result(np.maximum(a.data, 0.0), (a,), None)
    if out.requires_grad:
        mask = a.data > 0
        out._backward = lambda g: _accumulate(a, g * mask)
    return out


class Segments:
    """Independent attention problems packed along the rows of one op.

    Segment s owns query rows ``q_offsets[s]:q_offsets[s + 1]`` and key rows
    ``k_starts[s]:k_starts[s] + k_lens[s]``, after segment s - 1's, so no
    two segments share a key row.  With ``causal`` its queries are the last
    rows of its keys and each sees the keys up to its own row; otherwise
    every query sees all of its segment's keys.
    """

    __slots__ = ("q_offsets", "k_starts", "k_lens", "causal", "_padded")

    def __init__(self, q_offsets, k_starts, k_lens, causal: bool = False):
        self.q_offsets = np.asarray(q_offsets, dtype=np.intp)
        self.k_starts = np.asarray(k_starts, dtype=np.intp)
        self.k_lens = np.asarray(k_lens, dtype=np.intp)
        self.causal = causal
        self._padded = None
        n_seg = self.k_lens.shape[0]
        if (n_seg == 0 or self.q_offsets.shape != (n_seg + 1,)
                or self.k_starts.shape != (n_seg,) or self.q_offsets[0] != 0):
            raise ShapeError("segments: q_offsets from 0, one more than the segments")
        counts = self.q_offsets[1:] - self.q_offsets[:-1]
        if min(counts.min(), self.k_lens.min()) < 1 or self.k_starts[0] < 0:
            raise ShapeError("segments: every segment needs queries and keys")
        if causal and (counts > self.k_lens).any():
            raise ShapeError("segments: causal queries exceed their segment's keys")
        if (self.k_starts[1:] < (self.k_starts + self.k_lens)[:-1]).any():
            raise ShapeError("segments: each segment's keys must follow the last's")

    def __len__(self) -> int:
        return self.k_lens.shape[0]

    def padded(self):
        """Gather plan for the (segments, rows, n_max) layout, built once:
        (m_max, n_max, q_index, q_valid, k_index, k_valid, allow).  Padding
        repeats a row of the segment; ``allow`` masks it, and is None when
        nothing needs masking.  ``q_index`` is None when every segment has
        m_max queries, which then are a plain reshape."""
        if self._padded is None:
            counts = np.diff(self.q_offsets)
            m_max, n_max = int(counts.max()), int(self.k_lens.max())
            rows, cols = np.arange(m_max), np.arange(n_max)
            q_valid = rows < counts[:, None]
            q_index = None
            if not q_valid.all():
                last = counts[:, None] - 1
                q_index = self.q_offsets[:-1, None] + np.minimum(rows, last)
            k_valid = cols < self.k_lens[:, None]
            k_last = self.k_lens[:, None] - 1
            k_index = self.k_starts[:, None] + np.minimum(cols, k_last)
            if self.causal:
                limit = (self.k_lens - counts)[:, None] + 1 + rows
            else:
                limit = np.broadcast_to(self.k_lens[:, None], q_valid.shape)
            allow = cols < limit[:, :, None]
            self._padded = (m_max, n_max, q_index, q_valid, k_index, k_valid,
                            None if allow.all() else allow)
        return self._padded


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    allow: np.ndarray | None = None,
    segments: Segments | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one graph node.

    ``q`` is (m, d), ``k`` and ``v`` are (n, d); head h owns columns
    h*d_k..(h+1)*d_k of each, and of the (m, d) result.  The optional
    boolean ``allow`` (m, n) mask is shared by every head; disallowed
    entries get probability exactly zero and every row must keep one.
    Inside the op heads are an array axis, (heads, rows, d_k).  Backward,
    per head with P the attention weights and dO the output gradient:
    dV = P^T dO, dP = dO V^T, dS = P * (dP - rowsum(dP * P)), then
    dQ = dS K / sqrt(d_k) and dK = dS^T Q / sqrt(d_k).

    ``segments`` (instead of ``allow``) packs independent problems into
    the rows.  One segment is plain attention over its key rows.  Several
    run as one padded (segments, heads, rows, n_max) batched matmul with a
    length mask, and the same backward per segment.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("attention expects 2-D q, k and v")
    (m, d), n = q.shape, k.shape[0]
    if k.shape != (n, d) or v.shape != (n, d) or n == 0:
        raise ShapeError(
            f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not fit"
        )
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention: width {d} not divisible by {n_heads} heads")
    dk = d // n_heads
    c = 1.0 / np.sqrt(dk)
    kd, vd, window = k.data, v.data, slice(0, n)
    if segments is not None:
        if allow is not None:
            raise ShapeError("attention: pass an allow mask or segments, not both")
        ends = segments.k_starts + segments.k_lens
        if segments.q_offsets[-1] != m or ends.max() > n:
            raise ShapeError(f"attention: segments do not fit q {q.shape}, k {k.shape}")
        if len(segments) > 1:
            return _packed_attention(q, k, v, n_heads, segments)
        lo, n_seg = int(segments.k_starts[0]), int(segments.k_lens[0])
        window = slice(lo, lo + n_seg)
        kd, vd = kd[window], vd[window]
        if segments.causal and m > 1:
            allow = np.arange(n_seg) < (n_seg - m + 1 + np.arange(m))[:, None]

    def split(a: np.ndarray) -> np.ndarray:  # (rows, d) -> (heads, rows, d_k)
        return a.reshape(a.shape[0], n_heads, dk).transpose(1, 0, 2)

    qs, kh, vh = split(q.data) * c, split(kd), split(vd)
    scores = qs @ kh.transpose(0, 2, 1)
    if allow is not None:
        allow = np.asarray(allow, dtype=bool)
        if allow.shape != scores.shape[1:]:
            raise ShapeError(f"attention: mask {allow.shape} != {scores.shape[1:]}")
        if not allow.any(axis=1).all():
            raise ShapeError("attention: a query row has no permitted keys")
        scores = np.where(allow, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    out = _result((p @ vh).transpose(1, 0, 2).reshape(m, d), (q, k, v), None)
    if out.requires_grad:
        def merge(a: np.ndarray) -> np.ndarray:  # (heads, rows, d_k) -> (rows, d)
            return a.transpose(1, 0, 2).reshape(a.shape[1], d)

        def bwd(g):
            gh = split(g)
            dp = gh @ vh.transpose(0, 2, 1)
            ds = p * (dp - (dp * p).sum(axis=2, keepdims=True))
            _accumulate(q, merge(ds @ kh) * c)
            for t, grad in ((k, merge(ds.transpose(0, 2, 1) @ qs)),
                            (v, merge(p.transpose(0, 2, 1) @ gh))):
                if grad.shape[0] != n:  # a segment's window of the rows
                    full = np.zeros_like(t.data)
                    full[window] = grad
                    grad = full
                _accumulate(t, grad)
        out._backward = bwd
    return out


def _packed_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, segments: Segments
) -> Tensor:
    """``attention`` over several segments, padded to (segments, heads,
    m_max, n_max); padded key columns are masked and padded query rows
    dropped from the result."""
    (m, d), n_seg = q.shape, len(segments)
    dk = d // n_heads
    c = 1.0 / np.sqrt(dk)
    m_max, n_max, q_index, q_valid, k_index, k_valid, allow = segments.padded()

    def split(a: np.ndarray) -> np.ndarray:  # (seg, rows, d) -> (seg, heads, rows, d_k)
        return a.reshape(n_seg, a.shape[1], n_heads, dk).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # (seg, heads, rows, d_k) -> (seg, rows, d)
        return a.transpose(0, 2, 1, 3).reshape(n_seg, a.shape[2], d)

    def unpad(a: np.ndarray) -> np.ndarray:  # (seg, m_max, d) -> (m, d)
        return a.reshape(m, d) if q_index is None else a[q_valid]

    def operands():  # scaled queries, keys and values, padded and split
        q3 = q.data.reshape(n_seg, m_max, d) if q_index is None else q.data[q_index]
        return split(q3) * c, split(k.data[k_index]), split(v.data[k_index])

    qs, kh, vh = operands()
    scores = qs @ kh.transpose(0, 1, 3, 2)
    if allow is not None:
        scores = np.where(allow[:, None], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    p = e / e.sum(axis=3, keepdims=True)
    out = _result(unpad(merge(p @ vh)), (q, k, v), None)
    if out.requires_grad:
        key_rows = k_index[k_valid]

        def scatter(t: Tensor, padded: np.ndarray) -> None:  # padded keys -> rows of t
            full = np.zeros_like(t.data)
            full[key_rows] = padded[k_valid]  # segments share no key row
            _accumulate(t, full)

        def bwd(g):
            qs, kh, vh = operands()  # rebuilt rather than kept alive until now
            if q_index is None:
                g3 = g.reshape(n_seg, m_max, d)
            else:
                g3 = np.zeros((n_seg, m_max, d), dtype=g.dtype)
                g3[q_valid] = g
            gh = split(g3)
            dp = gh @ vh.transpose(0, 1, 3, 2)
            ds = p * (dp - (dp * p).sum(axis=3, keepdims=True))
            _accumulate(q, unpad(merge(ds @ kh)) * c)
            scatter(k, merge(ds.transpose(0, 1, 3, 2) @ qs))
            scatter(v, merge(p.transpose(0, 1, 3, 2) @ gh))
        out._backward = bwd
    return out


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of ``x`` to zero mean / unit variance, then affine.

    The row means are the sums over ``d`` columns divided by ``d``, the same
    reductions ``np.mean`` and ``np.var`` run, so the result is bit-equal to
    theirs without their Python-level wrappers.
    """
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"layer_norm expects a non-empty matrix, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match the row width")
    centred = x.data - x.data.sum(axis=1, keepdims=True) / d
    var = np.square(centred).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = _result(xhat * gain.data + bias.data, (x, gain, bias), None)
    if out.requires_grad:
        def bwd(g):
            dxhat = g * gain.data
            gx = inv * (
                dxhat
                - dxhat.sum(axis=1, keepdims=True) / d
                - xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / d)
            )
            _accumulate(x, gx)
            _accumulate(gain, (g * xhat).sum(axis=0))
            _accumulate(bias, g.sum(axis=0))
        out._backward = bwd
    return out


def sum_all(a: Tensor) -> Tensor:
    out = _result(np.asarray(a.data.sum()), (a,), None)
    if out.requires_grad:
        out._backward = lambda g: _accumulate(a, np.full_like(a.data, float(g)))
    return out


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood over the positions.

    ``logits`` is (T, V); ``targets`` holds T token ids.  Computed as
    log-softmax with max subtraction.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    t, v = logits.shape
    idx = np.asarray(targets, dtype=np.intp)
    if idx.shape != (t,):
        raise ShapeError(f"cross_entropy: {t} logit rows vs {idx.shape} targets")
    if t == 0:
        raise ShapeError("cross_entropy: no positions")
    if idx.min() < 0 or idx.max() >= v:
        raise IndexError(f"target id out of range [0, {v})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(t), idx].sum() / t
    out = _result(np.asarray(loss), (logits,), None)
    if out.requires_grad:
        def bwd(g):
            probs = np.exp(logp)
            grad = probs.copy()
            grad[np.arange(t), idx] -= 1.0
            _accumulate(logits, grad * (float(g) / t))
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# verification harness


def grad_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    eps: float = 1e-4,
    n_samples: int = 100,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare ``backward`` gradients of ``f()`` against central differences.

    ``f`` must be a deterministic scalar function of ``params`` evaluated in
    double precision.  ``n_samples`` random coordinates are perturbed by
    ``eps`` in both directions; returns the maximum relative error
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if n_samples == 0:
        warnings.warn("grad_check called with n_samples=0; nothing checked")
        return 0.0
    rng = rng or np.random.default_rng(0)

    zero_grads(params)
    loss = f()
    loss.backward()
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }

    names = sorted(params)
    sizes = np.array([params[n].data.size for n in names])
    total = int(sizes.sum())
    worst = 0.0
    for flat in rng.choice(total, size=min(n_samples, total), replace=False):
        k = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        offset = int(flat - np.concatenate(([0], np.cumsum(sizes)))[k])
        p = params[names[k]]
        original = p.data.flat[offset]
        p.data.flat[offset] = original + eps
        hi = f().item()
        p.data.flat[offset] = original - eps
        lo = f().item()
        p.data.flat[offset] = original
        numeric = (hi - lo) / (2.0 * eps)
        a = float(analytic[names[k]].flat[offset])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
