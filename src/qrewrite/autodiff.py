"""Dense tensors with reverse-mode automatic differentiation.

Flat row-major numpy buffers and the handful of differentiable operations a
small encoder-decoder transformer needs: matmul, a fused affine map
(``linear``: matmul, bias and residual add as one node, bit-equal to the
chain), fused multi-head attention with a masked softmax over row segments
packed into one op (one index takes every segment's keys from stacked
rows, and backward scatter-adds into those rows), layer normalization,
embedding lookup, cross-entropy.  Every tensor is 2-D or smaller.  No
general broadcasting; the only implicit broadcast is a bias row added to
every row of a matrix.

The forward passes of the ops a decoder pass runs are array kernels
(``_lookup``, ``_affine``, ``_layer_norm`` and ``_attend``, the masked
softmax attention over keys padded by a ``Padded`` layout).  The ops call
them, and so does a pass that needs no graph (a pack's decoder pass in
``model``), so each piece of arithmetic has one definition and both give
the same bits.

Tensors are immutable after forward construction except for their ``grad``
buffers.  Gradients accumulate across backward calls until ``zero_grads``
resets them.  Graph recording can be suspended with ``no_grad()`` for
inference; the flag is a ``ContextVar`` so concurrent use on disjoint
graphs stays safe.
"""

from __future__ import annotations

import contextvars
import warnings
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    bias_row = b.data.ndim == 1 and a.data.ndim == 2 and a.data.shape[1] == b.data.shape[0]
    if not bias_row and a.data.shape != b.data.shape:
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
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    out = _result(a.data @ b.data, (a, b), None)
    if out.requires_grad:
        def bwd(g):
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        out._backward = bwd
    return out


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
            residual: np.ndarray | None = None) -> np.ndarray:
    """``residual + (x @ w + b)`` on arrays, the forward pass of ``linear``:
    the numpy operations of the matmul, bias add and residual add it fuses."""
    y = x @ w
    if b is not None:
        y += b
    if residual is not None:
        y += residual
    return y


def linear(x: Tensor, w: Tensor, b: Tensor | None = None,
           residual: Tensor | None = None, transpose: bool = False) -> Tensor:
    """The affine map ``residual + (x @ w + b)`` as one node (``w.T`` with
    ``transpose``), by the numpy operations of the matmul, bias add and
    residual add it fuses, so it is bit-equal to them.  Its parents are
    listed as ``(residual, x, w, b)``: backward then visits them, and
    accumulates into them, in the order of the unfused chain."""
    wt = w.data.T if transpose else w.data
    if x.data.ndim != 2 or wt.ndim != 2 or x.data.shape[1] != wt.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {wt.shape}")
    if b is not None and b.data.shape != (wt.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} for {wt.shape[1]} columns")
    if residual is not None and residual.data.shape != (x.data.shape[0], wt.shape[1]):
        raise ShapeError(f"linear: residual {residual.shape} for {x.shape} x {wt.shape}")
    y = _affine(x.data, wt, None if b is None else b.data,
                None if residual is None else residual.data)
    parents = (x, w) if b is None else (x, w, b)
    out = _result(y, parents if residual is None else (residual, *parents), None)
    if out.requires_grad:
        def bwd(g):
            if residual is not None:
                _accumulate(residual, g)
            if b is not None:
                _accumulate(b, np.add.reduce(g, axis=0))
            _accumulate(x, g @ (w.data if transpose else w.data.T))
            _accumulate(w, g.T @ x.data if transpose else x.data.T @ g)
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


def _lookup(table: np.ndarray, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``ids`` of ``table`` and their checked index, the forward pass
    of ``embedding``."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("embedding expects a non-empty 1-D id sequence")
    if table.ndim != 2:
        raise ShapeError("embedding table must be 2-D")
    if np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= table.shape[0]:
        raise IndexError(
            f"token id out of range [0, {table.shape[0]}): {idx.min()}..{idx.max()}"
        )
    return table[idx], idx


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of ``table``; backward scatter-adds into the used rows."""
    rows, idx = _lookup(table.data, ids)
    out = _result(rows, (table,), None)
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


class Padded(NamedTuple):
    """The segments' queries padded to m_max rows each and the key columns
    they see.  ``q_index`` takes segment s's padded queries from the rows
    of q, repeating its last one (None when every segment has m_max
    queries, which then are a plain reshape), and ``q_valid`` marks the
    real ones.  ``allow`` ((segments, m_max or 1, n_max), None when every
    column is seen) masks the keys."""

    m_max: int
    q_index: np.ndarray | None
    q_valid: np.ndarray
    allow: np.ndarray | None


def pad_queries(counts: np.ndarray) -> tuple[int, np.ndarray | None, np.ndarray]:
    """``Padded``'s (m_max, q_index, q_valid) for segments whose queries
    are ``counts[s]`` rows each, consecutive in segment order."""
    m_max = int(np.maximum.reduce(counts))
    if m_max == 1:  # one query each, as in a lockstep pick
        return 1, None, np.ones((len(counts), 1), dtype=bool)
    rows = np.arange(m_max)
    q_valid = rows < counts[:, None]
    if q_valid.all():
        return m_max, None, q_valid
    starts = np.cumsum(counts) - counts
    return m_max, starts[:, None] + np.minimum(rows, counts[:, None] - 1), q_valid


def window_mask(counts: np.ndarray, k_first: np.ndarray | None, k_end: np.ndarray,
                n_max: int, causal: bool) -> np.ndarray | None:
    """``Padded.allow`` for segments whose ``counts[s]`` queries see key
    columns ``k_first[s]:k_end[s]`` of their padded keys (from 0 when
    ``k_first`` is None).  With ``causal`` the queries are the last columns
    of that window and each sees the columns up to its own (a padded query
    repeats the last; a lone query sees its whole window either way)."""
    end = k_end[:, None, None]
    m_max = int(np.maximum.reduce(counts))
    if causal and m_max > 1:
        rows = np.arange(m_max)[:, None]
        end = np.minimum(end - counts[:, None, None] + 1 + rows, end)
    cols = np.arange(n_max)
    allow = cols < end
    if k_first is not None:
        allow &= cols >= k_first[:, None, None]
    return None if allow.all() else allow


def segment_layout(counts: Sequence[int], keys: Sequence[np.ndarray],
                   causal: bool = False) -> tuple[np.ndarray, Padded]:
    """``attention``'s key index and layout for segments whose ``counts[s]``
    queries, consecutive in segment order, attend to the rows ``keys[s]``
    of the stacked keys.  With ``causal`` the queries are the last of those
    rows and each sees them up to its own; otherwise each sees them all.
    The (segments, n_max) index repeats a segment's last row past its
    length.  Two segments may share rows, and rows may come in any order."""
    counts = np.asarray(counts, dtype=np.intp)
    k_lens = np.array([len(rows) for rows in keys], dtype=np.intp)
    if len(k_lens) == 0 or counts.shape != k_lens.shape:
        raise ShapeError("segment layout: one query count per segment's keys")
    if min(np.minimum.reduce(counts), np.minimum.reduce(k_lens)) < 1:
        raise ShapeError("segment layout: every segment needs queries and keys")
    if causal and (counts > k_lens).any():
        raise ShapeError("segment layout: causal queries exceed their segment's keys")
    n_max = int(np.maximum.reduce(k_lens))
    cols = np.minimum(np.arange(n_max), k_lens[:, None] - 1)
    index = np.concatenate(keys)[(np.cumsum(k_lens) - k_lens)[:, None] + cols]
    allow = window_mask(counts, None, k_lens, n_max, causal)
    return index, Padded(*pad_queries(counts), allow)


def _split(a: np.ndarray, n_heads: int) -> np.ndarray:  # -> (seg, heads, rows, d_k)
    n_seg, rows, d = a.shape
    return a.reshape(n_seg, rows, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge(a: np.ndarray) -> np.ndarray:  # (seg, heads, rows, d_k) -> (seg, rows, d)
    n_seg, n_heads, rows, dk = a.shape
    return a.transpose(0, 2, 1, 3).reshape(n_seg, rows, n_heads * dk)


def _unpad(a: np.ndarray, layout: Padded) -> np.ndarray:  # (seg, m_max, d) -> (m, d)
    return a.reshape(-1, a.shape[2]) if layout.q_index is None else a[layout.q_valid]


def _operands(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
              layout: Padded):
    """The scaled queries, keys and values of ``_attend``, split by head."""
    n_seg, _, d = k.shape
    q3 = q.reshape(n_seg, layout.m_max, d) if layout.q_index is None else q[layout.q_index]
    c = 1.0 / np.sqrt(d // n_heads)
    return _split(q3, n_heads) * c, _split(k, n_heads), _split(v, n_heads)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
            layout: Padded):
    """The masked softmax attention of every attention op: the (m, d)
    rows ``q`` over keys and values padded to (segments, n_max, d), by
    ``layout``.  Returns the weights, (segments, heads, m_max, n_max),
    and the (m, d) result."""
    qs, kh, vh = _operands(q, k, v, n_heads, layout)
    p = qs @ kh.transpose(0, 1, 3, 2)  # the scores, softmaxed in place
    if layout.allow is not None:
        np.copyto(p, -np.inf, where=~layout.allow[:, None])
    p -= np.maximum.reduce(p, axis=3, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=3, keepdims=True)
    return p, _unpad(_merge(p @ vh), layout)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, index: np.ndarray,
              layout: Padded) -> Tensor:
    """Multi-head scaled dot-product attention of segments packed along the
    rows of one graph node.

    ``q`` is (m, d); ``k`` and ``v`` are (n, d) stacked rows.  Head h owns
    columns h*d_k..(h+1)*d_k of each, and of the (m, d) result.  The
    (segments, n_max) ``index`` takes each segment's padded keys and values
    from the stacked rows, and ``layout`` pads its queries and masks its
    keys; ``segment_layout`` builds both.  Inside the op the segments run as
    one batched matmul over (segments, heads, rows, n_max), heads an array
    axis; masked keys get probability exactly zero.  Backward, per head
    with P the attention weights and dO the output gradient: dV = P^T dO,
    dP = dO V^T, dS = P * (dP - rowsum(dP * P)), then dQ = dS K / sqrt(d_k)
    and dK = dS^T Q / sqrt(d_k).  The gradients of the key columns some
    query sees scatter-add into the stacked rows they came from, so
    segments that share a row add their gradients there.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("attention expects 2-D q, k and v")
    (m, d), n = q.data.shape, k.data.shape[0]
    if k.data.shape != (n, d) or v.data.shape != (n, d) or n == 0:
        raise ShapeError(
            f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not fit"
        )
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention: width {d} not divisible by {n_heads} heads")
    n_seg, allow = len(layout.q_valid), layout.allow
    if index.ndim != 2 or index.shape[0] != n_seg:
        raise ShapeError(f"attention: key index {index.shape} for {n_seg} segments")
    if np.minimum.reduce(index, axis=None) < 0 or np.maximum.reduce(index, axis=None) >= n:
        raise ShapeError(f"attention: the key index leaves the {n} rows of k")
    if np.count_nonzero(layout.q_valid) != m:
        raise ShapeError(f"attention: the layout's queries do not cover q {q.shape}")
    if allow is not None:
        if allow.shape not in ((n_seg, layout.m_max, index.shape[1]),
                               (n_seg, 1, index.shape[1])):
            raise ShapeError(f"attention: mask {allow.shape} for keys {index.shape}")
        if not allow.any(axis=2).all():
            raise ShapeError("attention: a query row has no permitted keys")
    p, out = _attend(q.data, k.data[index], v.data[index], n_heads, layout)
    out = _result(out, (q, k, v), None)
    if out.requires_grad:
        seen = np.ones(index.shape, dtype=bool) if allow is None else allow.any(axis=1)
        rows = index[seen]  # the stacked row of each key column a query sees
        if len(rows) == n and (rows == np.arange(n)).all():
            rows = None  # every row once, in order

        def scatter(t: Tensor, padded: np.ndarray) -> None:  # padded keys -> rows of t
            grad = padded[seen]
            if rows is not None:
                grad = np.zeros_like(t.data)
                np.add.at(grad, rows, padded[seen])
            _accumulate(t, grad)

        def bwd(g):
            # rebuilt rather than kept alive until now
            qs, kh, vh = _operands(q.data, k.data[index], v.data[index], n_heads, layout)
            if layout.q_index is None:
                g3 = g.reshape(len(p), layout.m_max, d)
            else:
                g3 = np.zeros((len(p), layout.m_max, d), dtype=g.dtype)
                g3[layout.q_valid] = g
            gh = _split(g3, n_heads)
            dp = gh @ vh.transpose(0, 1, 3, 2)
            ds = p * (dp - (dp * p).sum(axis=3, keepdims=True))
            _accumulate(q, _unpad(_merge(ds @ kh), layout) * (1.0 / np.sqrt(d // n_heads)))
            scatter(k, _merge(ds.transpose(0, 1, 3, 2) @ qs))
            scatter(v, _merge(p.transpose(0, 1, 3, 2) @ gh))
        out._backward = bwd
    return out


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward pass of ``layer_norm_rows`` on arrays: the result, the
    normalized rows and the inverse row deviations (a column)."""
    d = x.shape[1]
    # the row statistics are 1-D and updated in place: fewer numpy calls
    # on tiny arrays, the same operations
    mean = np.add.reduce(x, 1)
    mean /= d
    centred = x - mean[:, None]
    var = np.add.reduce(np.square(centred), 1)
    var /= d
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)[:, None]
    xhat = centred * inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of ``x`` to zero mean / unit variance, then affine.

    The row means are the sums over ``d`` columns divided by ``d``, the same
    reductions ``np.mean`` and ``np.var`` run, so the result is bit-equal to
    theirs without their Python-level wrappers.
    """
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"layer_norm expects a non-empty matrix, got {x.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match the row width")
    y, xhat, inv = _layer_norm(x.data, gain.data, bias.data, eps)
    out = _result(y, (x, gain, bias), None)
    if out.requires_grad:
        def bwd(g):
            dxhat = g * gain.data
            gx = inv * (
                dxhat
                - np.add.reduce(dxhat, axis=1, keepdims=True) / d
                - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / d)
            )
            _accumulate(x, gx)
            _accumulate(gain, np.add.reduce(g * xhat, axis=0))
            _accumulate(bias, np.add.reduce(g, axis=0))
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
