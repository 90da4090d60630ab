"""Seq2seq transformer that rewrites a question over sequential steps.

Each step encodes one document (with the answer and bridge entities) and
decodes a question.  Decoder self-attention and cross-attention read key and
value blocks accumulated from every earlier step, so the question generated
at step t can be rewritten at step t+1 without ever re-feeding its tokens.
Only the final step carries supervision; gradients reach earlier steps
through the cached hidden-state blocks, not through the discrete token
choices made by greedy search.

Conventions, fixed here once:
  * sinusoidal positions restart at 0 for every step's encoder input and
    every step's decoder sequence; sealed cache rows keep the positions
    they were computed with;
  * the <bos> row of each step is cached, the <eos> row never is, so a
    sealed self-attention block for a step with question Q has len(Q) + 1
    rows;
  * greedy ties break toward the lowest token id;
  * pre-norm residual blocks, ReLU feed-forward;
  * the token embedding is drawn at std d_model**-0.5, which the sqrt(d_model)
    input scale assumes, and every other weight matrix at std fan_in**-0.5;
    biases start at 0 and LayerNorm at (1, 0);
  * the output head is the transpose of the token embedding (tied), which
    makes copy behaviour generalize to entities unseen as training targets;
  * a batch of examples runs in lockstep, each example a segment of the
    packed rows that attends only to its own rows: at step t one encoder
    pass serves the examples with at least t steps, and decoder passes
    feed rows of every live segment;
  * one step-major loop serves a batch on the graph and a pack without
    one: greedy tokens are chosen under no_grad, one position per pass,
    in the one pack of the batch, allocated when a step first picks, and
    the pack only picks.  Only a pack decodes token by token: decode_token
    feeds the lockstep picks, and it and the rest of the one-example API
    (greedy_decode_step, teacher_forced_final) take a pack's step state
    only;
  * one decoder pass serves both executors, from the token embedding to
    the tied output head: the step state places each layer's K/V rows and
    runs its attention, and a fixed table gives the pass's other ops, the
    autodiff ops on the graph or their array kernels in a pack (the same
    numpy operations, order and dtypes).  The encoder embeds by the
    graph's entry;
  * on the autodiff graph a batch is one graph, and a step is block passes
    only: at each step one decoder block pass over [<bos>] + gold
    teacher-forces the final questions and one over [<bos>] + question
    seals the others, whose greedy tokens come from the batch's pack; one
    backward serves the batch loss.  Every block pass starts at the step's
    first position and reads no earlier pass of its step, and the last
    pass's K/V rows are the step's sealed block.  A step whose every
    question is teacher-forced or pinned opens no pack step; intermediate
    questions are pinned only with gold finals, so such a batch picks
    nothing.
    The cache keeps one (rows, d_model) K/V block per layer and step,
    stacking the step's segments, with the heads packed along the columns;
    only the fused attention op splits them, as an array axis.  A pass
    attends over the stack of the sealed blocks and this step's blocks
    (cross-attention stacks its blocks once per step) by one key index
    that names each segment's sealed and new rows in it; the op's backward
    scatter-adds into the stacked rows, so the final loss reaches every
    earlier step of its own example.  A sealing pass skips the last
    layer's attention, feed-forward and output head, whose results nothing
    reads;
  * under no_grad a pack's cache is one preallocated, zeroed (segments,
    rows, d_model) K and one V store per layer (self- and cross-attention),
    sized upfront for the pack: a step writes its rows in place after the
    segment's sealed rows and sealing advances the segment's offset, so no
    row is copied or concatenated.  A pack pass computes on plain arrays,
    reads the weight arrays the pack bound once and records no graph.  It
    attends over the stores in place, as store[fed segments, :longest
    end], a view when the fed segments are a contiguous run, with a mask
    per segment; it builds no key index and gathers no rows.  A lockstep
    pick (one row per segment) is laid out from the segments' ends alone;
  * without a graph, packs of PACK_SIZE examples serve generation and
    validation; one example, with gradients or under no_grad, is the graph
    batch of one.  A pack's bits depend on its own examples only, so the
    packs run on up to one process per usable CPU when this process runs a
    single OS thread (BLAS pinned to one): forked workers decode the other
    shares of packs and pipe their results back.  Outputs repeat byte for
    byte whatever the CPU count; a worker's memory is not in this
    process's RSS.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import operator
import os
import pickle
import signal
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import LengthError, ShapeError


# the position table holds max_len rows and a pack's self-attention cache
# max_len rows per step, both allocated upfront
MAX_LEN_LIMIT = 2**16


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_len: int = 128
    mode_accumulated_sa: bool = True
    mode_accumulated_ca: bool = True

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_heads, self.d_ff, self.max_len) < 1:
            raise ShapeError("all model dimensions must be positive")
        if self.n_enc_layers < 0 or self.n_dec_layers < 1:
            # a decoder without layers reads neither the document nor the cache
            raise ShapeError("need n_enc_layers >= 0 and n_dec_layers >= 1")
        if self.max_len > MAX_LEN_LIMIT:
            raise ShapeError(f"max_len={self.max_len} above {MAX_LEN_LIMIT}")
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def parameter_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, one at a time, in the order init
    draws them and a checkpoint stores them.  q/k/v projections carry no
    bias (a key bias is provably inert: softmax removes per-row constant
    score shifts)."""
    d, f = cfg.d_model, cfg.d_ff
    norm = {"g": (d,), "b": (d,)}
    attn = {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d), "bo": (d,)}
    ff = {"w1": (d, f), "b1": (f,), "w2": (f, d), "b2": (d,)}
    yield "emb.tok", (cfg.vocab_size, d)
    for stack, n, blocks in (
        ("enc", cfg.n_enc_layers, {"ln1": norm, "sa": attn, "ln2": norm, "ff": ff}),
        ("dec", cfg.n_dec_layers, {"ln1": norm, "sa": attn, "ln2": norm, "ca": attn,
                                   "ln3": norm, "ff": ff}),
    ):
        for i in range(n):
            for block, ws in blocks.items():
                for w, shape in ws.items():
                    yield f"{stack}.l{i}.{block}.{w}", shape
        for w, shape in norm.items():
            yield f"{stack}.lnf.{w}", shape
    yield "out.b", (cfg.vocab_size,)


@dataclass
class StepInput:
    """Token ids of one assembled step input."""

    tokens: list[int]
    step_index: int


PACK_SIZE = 32  # examples decoded in lockstep per pack under no_grad


@dataclass
class StepOutput:
    question_tokens: list[int]
    truncated: bool = False
    logits_rows: list[Tensor] | None = None


class AttentionCache:
    """Per-layer K/V blocks sealed by completed steps of a batch of
    examples, on the autodiff graph.

    Each sealed step appends, per layer, one (rows, d_model) block of
    self-attention keys, self-attention values, cross-attention keys and
    cross-attention values, with the heads packed along the columns.  A
    block stacks the rows of the segments that sealed the step, in segment
    order.  Segment s sealed ``step_lengths[s][t]`` self-attention rows at
    step t (question length + 1 for <bos>) over ``context_lengths[s][t]``
    encoder rows.  A segment seals its steps in order, so block t holds the
    segments with more than t sealed steps.  Blocks are
    append-only: once a step seals, its blocks are never touched again.
    """

    def __init__(self, n_layers: int, n_segments: int = 1):
        self.sa_keys: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.sa_values: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.ca_keys: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.ca_values: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.step_lengths: list[list[int]] = [[] for _ in range(n_segments)]
        self.context_lengths: list[list[int]] = [[] for _ in range(n_segments)]


def _sealed_rows(
    lengths: Sequence[Sequence[int]], segs: Sequence[int]
) -> tuple[list[np.ndarray], int]:
    """Rows of each segment in ``segs`` in the stacked sealed blocks of an
    ``AttentionCache`` whose per-segment row counts are ``lengths``, and
    the stacked row count."""
    rows: dict[int, list[np.ndarray]] = {s: [] for s in segs}
    offset = 0
    for t in range(max(map(len, lengths), default=0)):
        for s, counts in enumerate(lengths):
            if t < len(counts):
                if s in rows:
                    rows[s].append(np.arange(offset, offset + counts[t]))
                offset += counts[t]
    empty = np.zeros(0, dtype=np.intp)
    return [np.concatenate(rows[s]) if rows[s] else empty for s in segs], offset


def _gather(blocks: Sequence[Tensor], index: np.ndarray | None = None) -> Tensor:
    """Rows ``index`` of the stacked ``blocks``; None takes them all."""
    rows = blocks[0] if len(blocks) == 1 else ad.concat_rows(blocks)
    # a row lookup whose backward scatter-adds into the looked-up rows
    return rows if index is None else ad.embedding(rows, index)


class PackCache:
    """K/V rows sealed by completed steps of a pack of examples (no_grad),
    and the weight arrays its passes read.

    Per decoder layer there is one self-attention K and V store and one
    cross-attention K and V store, each a zeroed (segments, capacity,
    d_model) array.  Segment s owns row s, whose first ``sa_len[s]``
    (``ca_len[s]``) columns are sealed; a step writes its rows after them
    in place and sealing advances the offsets.  The zeros keep masked
    columns finite: 0 times an uninitialised NaN would poison ``p @ v``.

    ``arrays`` holds every parameter's array by name and ``layers[i]``
    decoder layer i's by the rest of its name (``ln1.g``, ``sa.wq``, ...).
    They are bound once per pack: a pack lives within one rewrite, and no
    optimizer update rebinds a parameter's array there.
    """

    def __init__(self, arrays: dict[str, np.ndarray], layers: list[dict[str, np.ndarray]],
                 n_segments: int, d_model: int, dtype, sa_capacity: int, ca_capacity: int):
        def stores(capacity: int) -> list[np.ndarray]:
            return [np.zeros((n_segments, capacity, d_model), dtype) for _ in layers]

        self.arrays, self.layers = arrays, layers
        self.sa_capacity, self.ca_capacity = sa_capacity, ca_capacity
        self.sa_k, self.sa_v = stores(sa_capacity), stores(sa_capacity)
        self.ca_k, self.ca_v = stores(ca_capacity), stores(ca_capacity)
        self.sa_len = np.zeros(n_segments, dtype=np.intp)
        self.ca_len = np.zeros(n_segments, dtype=np.intp)

    def check_capacity(self, kind: str, rows: int) -> None:
        """Raise ``ShapeError`` unless ``rows`` rows fit in a segment of the
        ``kind`` ("sa" or "ca") stores."""
        capacity = getattr(self, f"{kind}_capacity")
        if rows > capacity:
            raise ShapeError(f"{rows} {kind} rows overflow a pack segment of {capacity}")


class GraphState:
    """Decoder state of one step for the segments ``segs`` of a batch, on
    the autodiff graph (or on constants under no_grad), which ``_pass``
    serves with the autodiff ops.

    Every pass is a block pass from the step's first position: its rows
    attend to their segment's sealed rows and to the pass's own rows up to
    themselves, never to an earlier pass of the step.  ``n_fed[j]`` rows of
    segment j were fed by the last pass (0 when it fed none), whose K/V
    rows ``blocks[i]`` are the step's block of layer i.  Self-attention
    keys stack the cache's sealed blocks ``sa_k[i]`` (with accumulated
    self-attention) and the pass's block; ``sealed[j]`` indexes segment
    j's rows in that stack and ``n_sealed`` counts the sealed rows.
    Cross-attention keys ``ca_k[i]`` stack the sealed context blocks (with
    accumulated cross-attention) and this step's block ``ca_current_k[i]``,
    once per step; ``ca_rows[j]`` index segment j's rows in that stack and
    ``ca_own[j]`` its rows in this step's block.  A pass attends over the
    stacks in place: one key index per pass names each fed segment's rows,
    and no row is copied out of its stack first.  The state serves its
    step until the step seals.
    """

    def __init__(self, cache: AttentionCache, segs: np.ndarray, ca_lens: np.ndarray,
                 ca_current_k: list[Tensor], ca_current_v: list[Tensor],
                 accumulated_sa: bool, accumulated_ca: bool):
        n_seg, seg_list = len(segs), segs.tolist()
        self.segs, self.ca_lens = segs, ca_lens
        self.n_fed = np.zeros(n_seg, dtype=np.intp)
        self.blocks: list[tuple[Tensor, Tensor] | None] = [None] * len(ca_current_k)
        with_sa = accumulated_sa and any(cache.sa_keys)
        self.sa_k = cache.sa_keys if with_sa else [[] for _ in cache.sa_keys]
        self.sa_v = cache.sa_values if with_sa else [[] for _ in cache.sa_values]
        self.sealed, self.n_sealed = [np.zeros(0, dtype=np.intp)] * n_seg, 0
        if with_sa:
            self.sealed, self.n_sealed = _sealed_rows(cache.step_lengths, seg_list)

        with_ca = accumulated_ca and any(cache.ca_keys)
        prior, n_prior = [np.zeros(0, dtype=np.intp)] * n_seg, 0
        if with_ca:
            prior, n_prior = _sealed_rows(cache.context_lengths, seg_list)
        offsets = np.cumsum(ca_lens) - ca_lens
        self.ca_own = [np.arange(o, o + n) for o, n in zip(offsets, ca_lens)]
        self.ca_rows = [np.concatenate((p, n_prior + own))
                        for p, own in zip(prior, self.ca_own)]
        self.ca_index = None  # this step's block rows that seal, None for all
        self.ca_current_k, self.ca_current_v = ca_current_k, ca_current_v
        self.ca_k = [_gather([*blocks, k] if with_ca else [k])
                     for blocks, k in zip(cache.ca_keys, ca_current_k)]
        self.ca_v = [_gather([*blocks, v] if with_ca else [v])
                     for blocks, v in zip(cache.ca_values, ca_current_v)]
        self._sa = self._ca = None

    def advance(self, lens: np.ndarray, active: np.ndarray, positions: np.ndarray) -> None:
        """Lay out a pass that feeds ``lens[j]`` rows to the segment at
        index ``active[j]``, in segment order: each fed segment's self-
        attention keys are its sealed rows, then its rows of the pass,
        whose ``positions`` start at 0."""
        ends = np.cumsum(lens)
        new = self.n_sealed + np.arange(ends[-1])
        sa_keys = [np.concatenate((self.sealed[j], new[lo:hi]))
                   for j, lo, hi in zip(active.tolist(), ends - lens, ends)]
        self.n_fed = np.zeros(len(self.segs), dtype=np.intp)
        self.n_fed[active] = lens
        self._sa = ad.segment_layout(lens, sa_keys, causal=True)
        self._ca = ad.segment_layout(lens, [self.ca_rows[j] for j in active.tolist()])

    def place(self, i: int, k: Tensor, v: Tensor) -> None:
        """Layer ``i``'s K/V rows of the pass, the step's block."""
        self.blocks[i] = (k, v)

    def attend_self(self, i: int, q: Tensor, n_heads: int) -> Tensor:
        """Layer ``i``'s self-attention of ``q`` over the sealed and new rows."""
        k, v = self.blocks[i]
        return ad.attention(q, _gather([*self.sa_k[i], k]), _gather([*self.sa_v[i], v]),
                            n_heads, *self._sa)

    def attend_cross(self, i: int, q: Tensor, n_heads: int) -> Tensor:
        return ad.attention(q, self.ca_k[i], self.ca_v[i], n_heads, *self._ca)

    def drop(self, js) -> None:
        """Leave out the segments at indices ``js`` (they are not sealed)."""
        keep = np.setdiff1d(np.arange(len(self.segs)), js)
        for name in ("segs", "ca_lens", "n_fed"):
            setattr(self, name, getattr(self, name)[keep])
        for name in ("sealed", "ca_own", "ca_rows"):
            setattr(self, name, [getattr(self, name)[j] for j in keep])
        if len(keep):  # only the kept segments' rows of this step's block seal
            self.ca_index = np.concatenate(self.ca_own)

    def sealed_blocks(self, i: int) -> tuple[Tensor, ...]:
        """Layer ``i``'s K/V blocks of this step, segment by segment: self-
        attention keys and values of the last pass, then cross-attention
        keys and values."""
        return (*self.blocks[i], _gather([self.ca_current_k[i]], self.ca_index),
                _gather([self.ca_current_v[i]], self.ca_index))


class PassLayout(NamedTuple):
    """Where a pack pass writes its rows and what it attends to.  ``rows``
    are the (segments, columns) of its new rows in the stores and
    ``slots`` the fed segments' rows of every store (a slice when they
    are a contiguous run).  Self-attention reads ``store[slots, :n_sa]``
    by the layout ``sa``, cross-attention ``store[slots, :n_ca]`` by
    ``ca``."""

    rows: tuple[np.ndarray, np.ndarray]
    slots: slice | np.ndarray
    n_sa: int
    sa: ad.Padded
    n_ca: int
    ca: ad.Padded


class PackState:
    """Decoder state of one step for the segments ``segs`` of a pack, whose
    rows live in the ``PackCache`` stores (no_grad), which ``_pass`` serves
    with the ops' array kernels: no pass over a pack makes a tensor.

    ``n_fed[j]`` rows of segment ``segs[j]`` are fed this step, right after
    its sealed rows.  Its cross-attention reads its context columns
    ``ca_from[j]:ca_end[j]`` (from 0 when ``ca_from`` is None, with
    accumulated cross-attention), where ``ca_lens[j]`` rows are this step's.
    ``advance`` lays out each pass as a ``PassLayout``, kept as ``layout``:
    a mask per segment over ``store[slots, :n_max]``, no key index.  The
    cross-attention mask is laid out once per step and sliced to the fed
    segments, and kept, with the slots, while the same segments are fed.
    """

    def __init__(self, cache: PackCache, segs: np.ndarray, ca_lens: np.ndarray,
                 accumulated_sa: bool, accumulated_ca: bool):
        self.cache, self.segs, self.ca_lens = cache, segs, ca_lens
        self.ca_end = cache.ca_len[segs] + ca_lens
        self.ca_from = None if accumulated_ca else self.ca_end - ca_lens
        self._ca_allow = ad.window_mask(ca_lens, self.ca_from, self.ca_end,
                                        int(self.ca_end.max()), causal=False)
        self.accumulated_sa = accumulated_sa
        self.n_fed = np.zeros(len(segs), dtype=np.intp)
        self._fed = None

    def advance(self, lens: np.ndarray | None, active: np.ndarray,
                positions: np.ndarray) -> PassLayout:
        """Place this pass's rows, ``lens[j]`` for the j-th segment indexed
        by ``active`` at ``positions``, and lay out its attention.  A
        lockstep pass (``lens`` None: one row per segment, at its fed
        count) is laid out from the segments' ends alone."""
        cache = self.cache
        segs = self.segs[active]
        if active.tobytes() != self._fed:  # else the last pass's
            self._fed = active.tobytes()
            lo, hi = segs[0], segs[0] + len(segs)
            self._slots = slice(lo, hi) if np.array_equal(segs, np.arange(lo, hi)) else segs
            self._n_ca = int(self.ca_end[active].max())
            allow = None if self._ca_allow is None else self._ca_allow[active, :, :self._n_ca]
            self._ca_mask = None if allow is None or allow.all() else allow
            self._one_each = np.ones(len(segs), dtype=np.intp)
            self._one_query = 1, None, np.ones((len(segs), 1), dtype=bool)
        start = cache.sa_len[segs]
        first = None if self.accumulated_sa else start
        if lens is None:  # each segment's one query sees its keys up to its own
            rows = (segs, start + positions)
            end = rows[1] + 1
            n_sa = int(np.maximum.reduce(end))
            queries, sa_allow = self._one_query, None
            if first is not None or np.minimum.reduce(end) < n_sa:
                sa_allow = ad.window_mask(self._one_each, first, end, n_sa, True)
        else:
            end = start + self.n_fed[active] + lens
            rows = (np.repeat(segs, lens), np.repeat(start, lens) + positions)
            n_sa = int(np.maximum.reduce(end))
            queries = ad.pad_queries(lens)
            sa_allow = ad.window_mask(lens, first, end, n_sa, True)
        cache.check_capacity("sa", n_sa)
        self.n_fed[active] += 1 if lens is None else lens
        self.layout = lay = PassLayout(rows, self._slots, n_sa, ad.Padded(*queries, sa_allow),
                                       self._n_ca, ad.Padded(*queries, self._ca_mask))
        # what the pass's place and attention read, bound once per pass
        self._sa_at, self._ca_at = (lay.slots, slice(n_sa)), (lay.slots, slice(lay.n_ca))
        return lay

    def place(self, i: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write layer ``i``'s K/V rows of the pass into the stores."""
        rows, cache = self.layout.rows, self.cache
        cache.sa_k[i][rows] = k
        cache.sa_v[i][rows] = v

    def attend_self(self, i: int, q: np.ndarray, n_heads: int) -> np.ndarray:
        """Layer ``i``'s self-attention of ``q`` over the stores in place."""
        at, cache = self._sa_at, self.cache
        return ad._attend(q, cache.sa_k[i][at], cache.sa_v[i][at], n_heads, self.layout.sa)[1]

    def attend_cross(self, i: int, q: np.ndarray, n_heads: int) -> np.ndarray:
        at, cache = self._ca_at, self.cache
        return ad._attend(q, cache.ca_k[i][at], cache.ca_v[i][at], n_heads, self.layout.ca)[1]

    def restart(self, active) -> None:
        """Forget the rows the segments at indices ``active`` fed this step,
        to decode it again."""
        self.n_fed[active] = 0


def _pack_only(state: GraphState | PackState) -> PackState:
    """``state``, which must be a pack's: a graph step is block passes
    only, so the one-example decoding API takes no ``GraphState``."""
    if not isinstance(state, PackState):
        raise ShapeError("a graph step decodes by block passes only; pass a pack's state")
    return state


# A decoder pass's ops besides attention, for each executor: the autodiff ops
# on the graph (the encoder embeds by them too), and their array kernels (the
# same numpy operations in the same order, no graph) in a pack.  embed(table,
# ids, scale, pos) = table[ids] * scale + pos, affine(x, w, b, residual) =
# residual + (x @ w + b) and the tied output head(x, g, b, table, bias) =
# layer_norm(x, g, b) @ table.T + bias
Ops = collections.namedtuple("Ops", "embed layer_norm matmul affine relu head")
GRAPH_OPS = Ops(
    lambda table, ids, scale, pos: ad.add(ad.scale(ad.embedding(table, ids), scale),
                                          ad.constant(pos)),
    ad.layer_norm_rows, ad.matmul, ad.linear, ad.relu,
    lambda x, g, b, table, bias: ad.linear(ad.layer_norm_rows(x, g, b), table, bias,
                                           transpose=True))
PACK_OPS = Ops(
    lambda table, ids, scale, pos: ad._lookup(table, ids)[0] * scale + pos,
    lambda x, g, b: ad._layer_norm(x, g, b)[0], operator.matmul, ad._affine,
    lambda h: np.maximum(h, 0.0, out=h),  # in place on its own rows
    lambda x, g, b, table, bias: ad._affine(ad._layer_norm(x, g, b)[0], table.T, bias))


def _decoder_layers(ops: Ops, layers: list, state, x, n_heads: int, want_logits: bool):
    """The decoder layers by the executor ``ops`` on ``layers``' parameters,
    over the rows ``x`` of a pass laid out in ``state``, which owns its K/V
    rows and attention.  Without ``want_logits`` it stops after the last
    layer's K/V rows, which complete a sealed step, and returns None."""
    ln, mm, affine, relu = ops.layer_norm, ops.matmul, ops.affine, ops.relu
    place, attend_self, attend_cross = state.place, state.attend_self, state.attend_cross
    last = len(layers) - 1
    for i, w in enumerate(layers):
        h = ln(x, w["ln1.g"], w["ln1.b"])
        place(i, mm(h, w["sa.wk"]), mm(h, w["sa.wv"]))
        if not want_logits and i == last:
            return None
        x = affine(attend_self(i, mm(h, w["sa.wq"]), n_heads), w["sa.wo"], w["sa.bo"], x)
        h = ln(x, w["ln2.g"], w["ln2.b"])
        x = affine(attend_cross(i, mm(h, w["ca.wq"]), n_heads), w["ca.wo"], w["ca.bo"], x)
        h = affine(ln(x, w["ln3.g"], w["ln3.b"]), w["ff.w1"], w["ff.b1"])
        x = affine(relu(h), w["ff.w2"], w["ff.b2"], x)
    return x


@dataclass
class RewriteResult:
    intermediate_tokens: list[list[int]]
    final_tokens: list[int] | None
    final_logits: Tensor | None
    truncated: list[bool]             # one flag per decoded step
    cache: AttentionCache | None
    step_logits: list[list[Tensor]] | None = None


def within_step_causal_mask(n_prior: int, n_step: int) -> np.ndarray:
    """Allow mask for step-local queries: every prior-step row plus the
    causal prefix of the current block."""
    allow = np.zeros((n_step, n_prior + n_step), dtype=bool)
    allow[:, :n_prior] = True
    allow[:, n_prior:] = np.tril(np.ones((n_step, n_step), dtype=bool))
    return allow


def accumulated_attention(
    q: Tensor,
    prior_keys: Sequence[Tensor],
    prior_values: Sequence[Tensor],
    current_k: Tensor,
    current_v: Tensor,
    causal_within_step: bool,
    n_heads: int = 1,
) -> Tensor:
    """Scaled dot-product attention over [prior blocks; current block].

    Queries always see every prior-step row.  With ``causal_within_step``
    the m queries belong to the last m rows of the current block (m may not
    exceed its row count) and query i sees the current rows up to its own;
    otherwise every query sees the whole current block.  Heads are packed
    along the columns of every argument and of the result.
    """
    width = q.shape[1]
    for blk in (*prior_keys, *prior_values, current_k, current_v):
        if blk.shape[1] != width:
            raise ShapeError(
                f"attention block width {blk.shape[1]} != query width {width}"
            )
    if len(prior_keys) != len(prior_values):
        raise ShapeError("prior key/value block counts differ")
    keys = ad.concat_rows([*prior_keys, current_k]) if prior_keys else current_k
    values = ad.concat_rows([*prior_values, current_v]) if prior_values else current_v
    if causal_within_step and q.shape[0] > current_k.shape[0]:
        raise ShapeError(
            "causal attention needs at most one query per current-block row"
        )
    # one segment: every row of the stack, the queries its last rows
    layout = ad.segment_layout([q.shape[0]], [np.arange(keys.shape[0])],
                               causal_within_step)
    return ad.attention(q, keys, values, n_heads, *layout)


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (dim // 2)) / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def _workers(n_jobs: int) -> int:
    """Processes that run ``n_jobs`` independent jobs (packs, or training
    beside validation) at once: up to one per usable CPU when this process
    can fork safely, else 1 (in-process).  Forking is safe only from a
    single OS thread, so that no BLAS or other thread is copied in
    mid-lock; without procfs the count is unknown."""
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


def _send(pipe, obj) -> None:
    """Pickle ``obj`` down ``pipe``, a buffered writer.  Large arrays go to
    the pipe from their own memory, with no copy in between."""
    pickle.dump(obj, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


class ForkedWorker:
    """A forked child that serves calls of ``fn``, one at a time:
    ``submit(*args)`` pipes it the pickled arguments, and ``join`` returns
    what ``fn(*args)`` returned there or re-raises what it raised.  The
    child works on the memory this process had at the fork, serves until
    ``close`` and always leaves by ``os._exit``, so it never returns into
    the caller's code.  If the pipes or the fork cannot be made, each call
    runs here instead, at once, at submit.  A child that dies makes
    ``submit`` or ``join`` raise ``RuntimeError`` naming its exit status;
    that raise, any other raise out of them, and ``close`` reap it."""

    def __init__(self, fn):
        self.fn, self.pid, self._pipes, self._outcome, self._busy = fn, None, None, None, False
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        requests_r, requests_w, results_r, results_w = fds
        if pid == 0:
            status = 1
            try:
                os.close(requests_w)
                os.close(results_r)
                requests, results = open(requests_r, "rb"), open(results_w, "wb")
                while (args := pickle.load(requests)) is not None:
                    try:
                        outcome = True, fn(*args)
                    except Exception as exc:
                        outcome = False, exc
                    _send(results, outcome)
                status = 0
            finally:
                os._exit(status)
        os.close(requests_r)
        os.close(results_w)
        self.pid, self._pipes = pid, (open(requests_w, "wb"), open(results_r, "rb"))

    def submit(self, *args) -> None:
        """Start ``fn(*args)``; the call before it must have been joined."""
        self._busy = True
        if self.pid is None:
            try:
                self._outcome = True, self.fn(*args)
            except Exception as exc:
                self._outcome = False, exc
            return
        try:
            _send(self._pipes[0], args)
        except BrokenPipeError:
            raise self._died() from None
        except BaseException:
            self.close()
            raise

    def join(self):
        """What the call submitted last returned; what it raised is raised."""
        if self.pid is None:
            outcome, self._outcome = self._outcome, None
        else:
            try:
                outcome = pickle.load(self._pipes[1])
            except (EOFError, pickle.UnpicklingError):
                raise self._died() from None
            except BaseException:
                self.close()
                raise
        self._busy = False
        returned, value = outcome
        if not returned:
            raise value
        return value

    def close(self) -> None:
        """Reap the child, if it still runs: an idle one is told to leave, a
        busy one is killed."""
        if self._pipes is not None:
            if not self._busy:
                with contextlib.suppress(OSError):  # it died: reaped all the same
                    _send(self._pipes[0], None)
            self._reap()

    def _died(self) -> RuntimeError:
        return RuntimeError(f"forked worker {self.pid} exited with status {self._reap()} "
                            "and no result")

    def _reap(self) -> int:
        """Close the pipes, kill the child if it is busy, and wait for it:
        its exit status."""
        requests, results = self._pipes
        self._pipes = None
        results.close()
        with contextlib.suppress(OSError):  # what a dead child left unread
            requests.close()
        if self._busy:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _run_shares(fn, own, others: list) -> dict:
    """``_run_share`` of every share, merged: ``own`` in this process and
    each of ``others`` in a ``ForkedWorker`` of its own.  Every worker is
    reaped before this returns or raises."""
    workers = []
    try:
        for share in others:
            workers.append(ForkedWorker(functools.partial(_run_share, fn)))
            workers[-1].submit(share)
        out = _run_share(fn, own)
        for worker in workers:
            out.update(worker.join())
        return out
    finally:
        for worker in workers:
            worker.close()


class QuestionRewriter:
    """Encoder-decoder with accumulated attention, parameters shared by all steps."""

    def __init__(
        self,
        cfg: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
        arrays: dict[str, np.ndarray] | None = None,
    ):
        """The parameters are those of ``parameter_shapes(cfg)``, in its
        order.  ``arrays`` (a checkpoint's, by name) give them in place of a
        random init drawn from ``rng``: their names and shapes are checked
        against the table, raising ``ShapeError``, before any parameter is
        allocated.  The table is read no further than one entry past the
        arrays, so a config's layer counts do not set the work of a check
        that fails."""
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ShapeError(f"unsupported precision {dtype}")
        table = parameter_shapes(cfg)
        shapes = dict(table if arrays is None else itertools.islice(table, len(arrays) + 1))
        if arrays is None:
            rng = rng or np.random.default_rng(0)

            def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
                if len(shape) == 2:
                    std = (cfg.d_model if name == "emb.tok" else shape[0]) ** -0.5
                    return rng.normal(0.0, std, shape)
                return np.ones(shape) if name.endswith(".g") else np.zeros(shape)
            arrays = {name: draw(name, shape) for name, shape in shapes.items()}
        elif set(arrays) != set(shapes):
            missing = set(shapes) ^ set(arrays)
            raise ShapeError(f"parameter name mismatch: {sorted(missing)[:5]}")
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ShapeError(f"shape mismatch for {name}")
        self.params: dict[str, Tensor] = {
            name: Tensor(arrays[name].astype(self.dtype), requires_grad=True)
            for name in shapes}
        # each layer's parameters by the rest of their name (ln1.g, sa.wq, ...),
        # built once: optimizers and checkpoints assign .data, never a tensor
        self._enc_layers, self._dec_layers = (
            [{name[len(pre):]: t for name, t in self.params.items() if name.startswith(pre)}
             for pre in (f"{stack}.l{i}." for i in range(n))]
            for stack, n in (("enc", cfg.n_enc_layers), ("dec", cfg.n_dec_layers)))
        self._pos = sinusoidal_positions(cfg.max_len, cfg.d_model).astype(self.dtype)

    # ------------------------------------------------------------------
    # embeddings and the encoder

    def _position_rows(self, n_ids: int, positions: np.ndarray) -> np.ndarray:
        """The position rows ``positions`` of ``n_ids`` ids, which must lie
        below max_len."""
        last = int(np.maximum.reduce(positions))
        if last >= self.cfg.max_len:
            raise LengthError(
                f"{n_ids} tokens reach position {last}, beyond "
                f"max_len={self.cfg.max_len}"
            )
        return self._pos[positions]

    def encode(self, step: StepInput | Sequence[StepInput]) -> Tensor | list[Tensor]:
        """Encoder stack over one step input; returns (l_t, d_model).  A list
        of step inputs runs as one packed pass, each input a segment that
        attends only to itself, and gives one encoding per input."""
        steps = [step] if isinstance(step, StepInput) else step
        if not all(s.tokens for s in steps):
            raise ShapeError("encode: empty token sequence")
        lens = [len(s.tokens) for s in steps]
        bounds = np.cumsum([0, *lens])
        layout = ad.segment_layout(lens, [np.arange(lo, hi) for lo, hi
                                          in zip(bounds[:-1], bounds[1:])])
        positions = np.concatenate([np.arange(n) for n in lens])
        ids = [t for s in steps for t in s.tokens]
        x = GRAPH_OPS.embed(self.params["emb.tok"], ids, math.sqrt(self.cfg.d_model),
                            self._position_rows(len(ids), positions))
        for w in self._enc_layers:
            h = ad.layer_norm_rows(x, w["ln1.g"], w["ln1.b"])
            k, v = ad.matmul(h, w["sa.wk"]), ad.matmul(h, w["sa.wv"])
            attended = ad.attention(ad.matmul(h, w["sa.wq"]), k, v, self.cfg.n_heads, *layout)
            x = ad.linear(attended, w["sa.wo"], w["sa.bo"], residual=x)
            h = ad.layer_norm_rows(x, w["ln2.g"], w["ln2.b"])
            h = ad.relu(ad.linear(h, w["ff.w1"], w["ff.b1"]))
            x = ad.linear(h, w["ff.w2"], w["ff.b2"], residual=x)
        out = ad.layer_norm_rows(x, self.params["enc.lnf.g"], self.params["enc.lnf.b"])
        if len(steps) == 1:
            return out if isinstance(step, StepInput) else [out]
        return [ad.slice_rows(out, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    # ------------------------------------------------------------------
    # decoder

    def _pack_cache(self, n_segments: int, sa_rows: int, ca_rows: int) -> PackCache:
        cfg = self.cfg
        arrays = {name: p.data for name, p in self.params.items()}
        layers = [{name: p.data for name, p in layer.items()} for layer in self._dec_layers]
        return PackCache(arrays, layers, n_segments, cfg.d_model, self.dtype,
                         sa_rows, ca_rows)

    def start_step(
        self,
        encoder_output: Tensor | Sequence[Tensor],
        cache: AttentionCache | PackCache,
        segments: Sequence[int] | None = None,
    ) -> GraphState | PackState:
        """Open a step: project its cross-attention rows and expose the
        sealed rows to it.

        ``encoder_output`` is one encoding per segment in ``segments``
        (default: the first ones), or one example's encoding.  With an
        ``AttentionCache`` the projected rows stay on the graph; with a
        ``PackCache`` they are written into the stores in place.
        """
        cfg = self.cfg
        encs = [encoder_output] if isinstance(encoder_output, Tensor) else encoder_output
        segs = np.arange(len(encs))
        if segments is not None:
            segs = np.asarray(segments, dtype=np.intp)
        lens = np.array([e.shape[0] for e in encs], dtype=np.intp)
        if not isinstance(cache, PackCache):
            rows = encs[0] if len(encs) == 1 else ad.concat_rows(encs)
            ks = [ad.matmul(rows, w["ca.wk"]) for w in self._dec_layers]
            vs = [ad.matmul(rows, w["ca.wv"]) for w in self._dec_layers]
            return GraphState(cache, segs, lens, ks, vs, cfg.mode_accumulated_sa,
                              cfg.mode_accumulated_ca)
        state = PackState(cache, segs, lens, cfg.mode_accumulated_sa,
                          cfg.mode_accumulated_ca)
        cache.check_capacity("ca", int(state.ca_end.max()))
        offsets = np.cumsum(lens) - lens
        dest = (np.repeat(segs, lens),
                np.repeat(state.ca_end - lens - offsets, lens) + np.arange(int(lens.sum())))
        rows = encs[0].data if len(encs) == 1 else np.concatenate([e.data for e in encs])
        for i, w in enumerate(cache.layers):
            cache.ca_k[i][dest] = rows @ w["ca.wk"]
            cache.ca_v[i][dest] = rows @ w["ca.wv"]
        return state

    def _pass(
        self,
        state: GraphState | PackState,
        ids: Sequence[Sequence[int]],
        want_logits: bool,
        active: Sequence[int] | None = None,
    ) -> Tensor | np.ndarray | None:
        """One decoder pass: ``ids[j]`` are the ids of the j-th fed segment
        of ``state`` (its segments in order, or those indexed by ``active``,
        in order).  The state's executor picks the ops and weights.

        On the graph it is a block pass from the step's first position: no
        row reads an earlier pass of the step, and the pass's K/V rows
        become the step's block.  In a pack (under no_grad only) each
        segment's rows follow those it fed this step, their K/V rows go
        into the stores in place, and no graph is recorded.  Returns logits
        of shape (rows fed, vocab), segment by segment, a tensor on the
        graph and an array in a pack; without ``want_logits`` it stops the
        last layer after its K/V projections, which complete a sealed step,
        and returns None.
        """
        pack = isinstance(state, PackState)
        if pack and ad.grad_enabled():
            raise ShapeError("a pack decodes under no_grad only")
        active = (np.arange(len(state.segs)) if active is None
                  else np.asarray(active, dtype=np.intp))
        if len(ids) != len(active):
            raise ShapeError(f"{len(ids)} id rows for {len(active)} segments")
        ops, w, layers = ((PACK_OPS, state.cache.arrays, state.cache.layers) if pack
                          else (GRAPH_OPS, self.params, self._dec_layers))
        flat = [t for row in ids for t in row]
        one_each = pack and len(flat) == len(ids) and all(map(len, ids))  # a lockstep pick
        lens = None if one_each else np.array([len(row) for row in ids], dtype=np.intp)
        # each segment's next step-local position
        positions = state.n_fed[active] if pack else np.zeros(len(ids), dtype=np.intp)
        if not one_each:
            positions = np.concatenate([np.arange(f, f + n) for f, n in zip(positions, lens)])
        x = ops.embed(w["emb.tok"], flat, math.sqrt(self.cfg.d_model),
                      self._position_rows(len(flat), positions))
        state.advance(lens, active, positions)
        x = _decoder_layers(ops, layers, state, x, self.cfg.n_heads, want_logits)
        if x is None:
            return None
        return ops.head(x, w["dec.lnf.g"], w["dec.lnf.b"], w["emb.tok"], w["out.b"])

    def decode_token(
        self,
        state: PackState,
        token: int | Sequence[int],
        want_logits: bool = True,
        active: Sequence[int] | None = None,
    ) -> np.ndarray | None:
        """Feed one token per segment of a pack at its next step-local
        position: ``token`` is one id for a one-segment state, else one id
        per segment of ``state`` (or per index in ``active``).

        Writes the positions' K/V rows into the stores and, when
        ``want_logits``, returns next-token logits of shape (segments fed,
        vocab) as an array.  A graph step is block passes only, so a
        ``GraphState`` raises ``ShapeError``.
        """
        tokens = [token] if isinstance(token, (int, np.integer)) else token
        return self._pass(_pack_only(state), [[t] for t in tokens], want_logits, active)

    def _greedy_lockstep(
        self,
        state: PackState,
        bos: int,
        eos: int,
        collect_logits: bool = False,
    ) -> list[StepOutput]:
        """Greedy-decode the step of every segment of a pack's ``state`` from
        its first position, in lockstep under ``no_grad``.

        Each pass feeds one token per live segment.  A segment leaves at
        <eos>, or when its step reaches max_len, which is flagged as
        truncation, not an error.  Ties break toward the lowest token id.
        """
        live = list(range(len(state.segs)))
        outs = {j: StepOutput([], False, [] if collect_logits else None) for j in live}
        tokens = [bos] * len(live)
        with ad.no_grad():
            while live:
                logits = self.decode_token(state, tokens, active=live)
                still, tokens = [], []
                picks = logits.argmax(axis=1).tolist()
                for row, (j, tok) in enumerate(zip(live, picks)):
                    out = outs[j]
                    if collect_logits:
                        out.logits_rows.append(ad.constant(logits[row : row + 1]))
                    if tok == eos:
                        continue
                    if len(out.question_tokens) + 1 >= self.cfg.max_len:
                        out.truncated = True
                        continue
                    out.question_tokens.append(tok)
                    still.append(j)
                    tokens.append(tok)
                live = still
        return list(outs.values())

    def greedy_decode_step(
        self,
        state: PackState,
        bos: int,
        eos: int,
        forced_tokens: Sequence[int] | None = None,
        collect_logits: bool = False,
    ) -> StepOutput:
        """Decode the step of a pack of one greedily, one position at a time
        under ``no_grad`` (or write ``forced_tokens`` verbatim by one block
        pass).  A graph step is block passes only, so a ``GraphState``
        raises ``ShapeError``.
        """
        if forced_tokens is not None:
            self._pass(_pack_only(state), [[bos, *forced_tokens]], want_logits=False)
            return StepOutput(list(forced_tokens))
        (out,) = self._greedy_lockstep(_pack_only(state), bos, eos, collect_logits)
        return out

    def seal_step(
        self,
        state: GraphState | PackState,
        cache: AttentionCache | PackCache,
        detach: bool = False,
    ) -> None:
        """Freeze this step's K/V into the cache.  Sealed rows are never
        modified by later steps.  ``detach`` drops the blocks' backward
        graph, cutting the gradient path from later losses into this step's
        computations (values are unchanged)."""
        if np.any(state.n_fed == 0):
            raise ShapeError("cannot seal a step before decoding any position")
        if isinstance(state, PackState):
            cache.sa_len[state.segs] += state.n_fed
            cache.ca_len[state.segs] = state.ca_end
            return
        n_sealed = max(map(len, cache.step_lengths))
        if any(len(cache.step_lengths[s]) != n_sealed for s in state.segs.tolist()):
            raise ShapeError("segments must seal their steps together, in order")
        wrap = ad.detach if detach else (lambda t: t)
        for i in range(self.cfg.n_dec_layers):
            for blocks, block in zip(
                (cache.sa_keys, cache.sa_values, cache.ca_keys, cache.ca_values),
                state.sealed_blocks(i),
            ):
                blocks[i].append(wrap(block))
        for s, rows, context in zip(state.segs.tolist(), state.n_fed.tolist(),
                                    state.ca_lens.tolist()):
            cache.step_lengths[s].append(rows)
            cache.context_lengths[s].append(context)

    def teacher_forced_final(
        self, state: PackState, gold_ids: Sequence[int], bos: int, eos: int
    ) -> tuple[np.ndarray, list[int]]:
        """Block pass over [<bos>] + gold in a pack of one; returns logits of
        shape (len(gold) + 1, vocab) as an array and the target ids
        (gold + <eos>).  A ``GraphState`` raises ``ShapeError``."""
        logits = self._pass(_pack_only(state), [[bos, *gold_ids]], want_logits=True)
        return logits, [*gold_ids, eos]

    # ------------------------------------------------------------------
    # the rewrite loop

    def rewrite_forward(
        self,
        steps: Sequence[StepInput],
        bos: int,
        eos: int,
        gold_final: Sequence[int] | None = None,
        pinned_intermediates: Sequence[Sequence[int]] | None = None,
        collect_logits: bool = False,
        detach_cache: bool = False,
    ) -> RewriteResult:
        """Run the full multi-step rewrite of one example.

        Steps 1..N-1 greedy-decode (or replay ``pinned_intermediates``, which
        need ``gold_final``) and seal their caches.  The final step
        greedy-decodes at inference time or, when ``gold_final`` is given,
        runs teacher forcing and returns per-position logits attached to
        the whole unrolled graph.  Greedy tokens are picked in a no_grad
        pack; on the graph every step is block passes over [<bos>] +
        question (or gold).
        ``detach_cache`` stops gradients at the sealed blocks; comparing
        gradients with and without it isolates the end-to-end path through
        earlier steps (forward values are identical).  This is the batch
        of one of ``rewrite_batch``, with gradients or under ``no_grad``;
        ``res.cache`` holds its sealed blocks.
        """
        (res,), res.cache = self.rewrite_batch(
            [steps], bos, eos, None if gold_final is None else [gold_final],
            None if pinned_intermediates is None else [pinned_intermediates],
            collect_logits, detach_cache,
        )
        return res

    def rewrite_batch(
        self,
        examples: Sequence[Sequence[StepInput]],
        bos: int,
        eos: int,
        gold_finals: Sequence[Sequence[int]] | None = None,
        pinned_intermediates: Sequence[Sequence[Sequence[int]]] | None = None,
        collect_logits: bool = False,
        detach_cache: bool = False,
    ) -> tuple[list[RewriteResult], AttentionCache]:
        """``rewrite_forward`` of every example of a batch, on one autodiff
        graph; returns the results, which follow ``examples``, and the
        batch's cache.

        Final steps with a gold question are teacher-forced by one block
        pass.  Every other step's question is pinned (with gold finals only)
        or picked greedily in the batch's one no_grad pack, then sealed by
        one more block pass."""
        cache = AttentionCache(self.cfg.n_dec_layers, len(examples))
        results = self._rewrite(examples, bos, eos, gold_finals, pinned_intermediates,
                                collect_logits, cache, detach_cache)
        return results, cache

    def rewrite_packed(
        self,
        examples: Sequence[Sequence[StepInput]],
        bos: int,
        eos: int,
        gold_finals: Sequence[Sequence[int]] | None = None,
        collect_logits: bool = False,
    ) -> list[RewriteResult]:
        """Rewrite many examples under ``no_grad`` and without a graph, in
        consecutive packs of ``PACK_SIZE`` decoded in lockstep; results
        follow ``examples``.

        Every step picks greedily in its pack; intermediate steps seal.
        With ``gold_finals`` each final step is also teacher-forced
        (``final_logits``) from the same step state.

        A pack's bits depend on its own examples only, so W = ``_workers``
        processes may decode the packs at once: share w holds packs w,
        w + W, ..., this process decodes the share with the most steps and
        forked children the others.  The error raised is that of the first
        failing pack, as in one process.
        """
        packs = [slice(lo, lo + PACK_SIZE) for lo in range(0, len(examples), PACK_SIZE)]

        def rewrite(p: int) -> list[RewriteResult]:
            golds = None if gold_finals is None else gold_finals[packs[p]]
            with ad.no_grad():
                return self._rewrite(examples[packs[p]], bos, eos, golds, None,
                                     collect_logits)

        n_workers = _workers(len(packs))
        shares = [range(w, len(packs), n_workers) for w in range(n_workers)]
        own = max(shares, key=lambda share: sum(
            len(steps) for p in share for steps in examples[packs[p]]))
        outcomes = _run_shares(rewrite, own, [s for s in shares if s is not own])
        results = []
        for p in range(len(packs)):
            if isinstance(outcomes[p], Exception):
                raise outcomes[p]
            results += outcomes[p]
        return results

    def _rewrite(
        self,
        examples: Sequence[Sequence[StepInput]],
        bos: int,
        eos: int,
        gold_finals: Sequence[Sequence[int]] | None,
        pinned: Sequence[Sequence[Sequence[int]]] | None,
        collect_logits: bool,
        cache: AttentionCache | None = None,
        detach_cache: bool = False,
    ) -> list[RewriteResult]:
        """The rewrite loop of ``rewrite_batch`` (on the graph's ``cache``)
        and of one pack of ``rewrite_packed`` (``cache`` None), step by step.

        At step t the segments are the examples with at least t steps, and
        one encoder pass serves them.  Every greedy pick decodes under
        no_grad in one ``PackCache`` whose segment s is example s,
        allocated when a step first picks, and the pack only picks.  Final
        steps with a gold question are teacher-forced by one pass: on the
        graph they pick nothing, and every other step seals on the graph by
        one more block pass; in a pack they pick too.  ``pinned``
        intermediate questions come with gold finals on the graph only, so
        a batch that pins them picks nothing.
        """
        n_steps = [len(steps) for steps in examples]
        if not examples or min(n_steps) == 0:
            raise ShapeError("rewrite: every example needs a step")
        graph = cache is not None
        if pinned is not None and not (graph and gold_finals is not None):
            raise ShapeError("pinned intermediates need gold finals on the graph")
        if pinned is not None and [len(p) + 1 for p in pinned] != n_steps:
            raise ShapeError("pinned intermediates do not match the steps")
        # the graph teacher-forces gold finals without picking them
        greedy_finals = gold_finals is None or not graph
        pack = None
        results = [RewriteResult([], None, None, [], None, [] if collect_logits else None)
                   for _ in examples]
        for t in range(max(n_steps)):
            live = [s for s, n in enumerate(n_steps) if t < n]
            final = [n_steps[s] == t + 1 for s in live]
            picking = [j for j, f in enumerate(final)
                       if pinned is None and (greedy_finals or not f)]
            encs = self.encode([examples[s][t] for s in live])
            state = self.start_step(encs, cache, live) if graph else None
            if picking:
                with ad.no_grad():
                    if pack is None:
                        pack = self._pack_cache(
                            len(examples), max(n_steps) * self.cfg.max_len,
                            max(sum(len(s.tokens) for s in steps) for steps in examples),
                        )
                    pack_state = self.start_step([encs[j] for j in picking], pack,
                                                 [live[j] for j in picking])
            forced = [j for j, f in enumerate(final) if f and gold_finals is not None]
            if forced:
                golds = [gold_finals[live[j]] for j in forced]
                # in a pack every step picks, so its segments are ``live``
                logits = self._pass(state if graph else pack_state,
                                    [[bos, *g] for g in golds], True, forced)
                logits = logits if graph else ad.constant(logits)
                row = 0
                for j, gold in zip(forced, golds):
                    res = results[live[j]]
                    res.final_logits = logits if len(forced) == 1 else ad.slice_rows(
                        logits, row, row + len(gold) + 1
                    )
                    row += len(gold) + 1
                if graph:
                    state.drop(forced)
                else:
                    pack_state.restart(forced)
            picks = {}
            if picking:
                with ad.no_grad():
                    outs = self._greedy_lockstep(pack_state, bos, eos, collect_logits)
                    self.seal_step(pack_state, pack)
                picks = dict(zip(picking, outs))
            rows = []
            for j, s in enumerate(live):
                if final[j] and j not in picks:  # teacher-forced on the graph
                    continue
                out = picks[j] if j in picks else StepOutput(list(pinned[s][t]))
                res = results[s]
                res.truncated.append(out.truncated)
                if collect_logits:
                    res.step_logits.append(out.logits_rows or [])
                if final[j]:
                    res.final_tokens = out.question_tokens
                else:
                    res.intermediate_tokens.append(out.question_tokens)
                rows.append([bos, *out.question_tokens])
            if graph and rows:
                self._pass(state, rows, want_logits=False)
                self.seal_step(state, cache, detach=detach_cache)
        return results


def final_step_loss(logits: Tensor, gold_ids: Sequence[int], eos: int) -> Tensor:
    """Cross-entropy of the teacher-forced final step against gold + <eos>."""
    targets = [*gold_ids, eos]
    if logits.shape[0] != len(targets):
        raise ShapeError(
            f"{logits.shape[0]} logit rows for {len(targets)} target positions"
        )
    return ad.cross_entropy(logits, targets)
