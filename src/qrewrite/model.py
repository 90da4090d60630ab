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
  * the cache keeps one (rows, d_model) K/V block per layer and step, with
    the heads packed along the columns; only the fused attention op splits
    them, as an array axis;
  * greedy tokens are chosen under no_grad, one position at a time; a step
    on the autodiff graph is then built by one block pass over
    [<bos>] + question, which seals its K/V rows and skips the last layer's
    attention, feed-forward and output head, whose results nothing reads;
  * a step whose first pass runs under no_grad decodes into preallocated
    numpy buffers, one K and one V per layer of (sealed rows + max_len,
    d_model): the sealed rows are copied in once, each pass writes its new
    rows in place and attends over one contiguous view, and sealing hands
    the cache the view of the step's own rows.  The buffer of a sealed step
    is never written again, since every step gets new buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import LengthError, ShapeError


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
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if min(self.vocab_size, self.d_model, self.d_ff, self.max_len) < 1:
            raise ShapeError("all model dimensions must be positive")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "n_enc_layers": self.n_enc_layers,
            "n_dec_layers": self.n_dec_layers,
            "max_len": self.max_len,
            "mode_accumulated_sa": self.mode_accumulated_sa,
            "mode_accumulated_ca": self.mode_accumulated_ca,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class StepInput:
    """Token ids of one assembled step input."""

    tokens: list[int]
    step_index: int


@dataclass
class StepOutput:
    question_tokens: list[int]
    encoder_output: Tensor
    truncated: bool = False
    logits_rows: list[Tensor] | None = None


class AttentionCache:
    """Per-layer K/V blocks sealed by completed steps.

    Each block is (rows, d_model) with the heads packed along the columns.
    Blocks are append-only: once a step seals, its blocks are never touched
    again.  ``step_lengths[i]`` is the number of self-attention rows sealed
    by step i (question length + 1 for <bos>); ``context_lengths[i]`` is
    that step's encoder input length.
    """

    def __init__(self, n_layers: int):
        self.sa_keys: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.sa_values: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.ca_keys: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.ca_values: list[list[Tensor]] = [[] for _ in range(n_layers)]
        self.step_lengths: list[int] = []
        self.context_lengths: list[int] = []

    @property
    def steps_completed(self) -> int:
        return len(self.step_lengths)

    @property
    def sa_rows(self) -> int:
        return sum(self.step_lengths)

    @property
    def ca_rows(self) -> int:
        return sum(self.context_lengths)


@dataclass
class StepState:
    """Decoder state for the step currently being decoded, one entry per
    layer."""

    encoder_output: Tensor
    sa_prior_k: list[Tensor | None]   # sealed self-attention rows, concatenated
    sa_prior_v: list[Tensor | None]
    ca_k: list[Tensor]                # accumulated (prior + current)
    ca_v: list[Tensor]
    ca_current_k: list[Tensor]        # this step's blocks, for sealing
    ca_current_v: list[Tensor]
    sa_k: list[Tensor | None]         # this step's self-attention rows so far
    sa_v: list[Tensor | None]
    n_fed: int = 0
    # set by a no_grad first pass: per layer, the sealed rows, then max_len
    # rows for this step
    sa_buf_k: list[np.ndarray] | None = None
    sa_buf_v: list[np.ndarray] | None = None


@dataclass
class RewriteResult:
    intermediate_tokens: list[list[int]]
    final_tokens: list[int] | None
    final_logits: Tensor | None
    final_targets: list[int] | None
    truncated: list[bool]
    cache: AttentionCache
    step_logits: list[list[Tensor]] | None = None
    final_encoder_output: Tensor | None = None


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
    allow = None
    if causal_within_step:
        if q.shape[0] > current_k.shape[0]:
            raise ShapeError(
                "causal attention needs at most one query per current-block row"
            )
        allow = within_step_causal_mask(keys.shape[0] - q.shape[0], q.shape[0])
    return ad.attention(q, keys, values, n_heads, allow)


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (dim // 2)) / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


class QuestionRewriter:
    """Encoder-decoder with accumulated attention, parameters shared by all steps."""

    def __init__(
        self,
        cfg: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ShapeError(f"unsupported precision {dtype}")
        rng = rng or np.random.default_rng(0)
        self.params: dict[str, Tensor] = {}
        self._init_params(rng)
        self._pos = sinusoidal_positions(cfg.max_len, cfg.d_model).astype(self.dtype)

    # ------------------------------------------------------------------
    # parameters

    def _add_param(self, name: str, arr: np.ndarray) -> None:
        self.params[name] = Tensor(arr.astype(self.dtype), requires_grad=True)

    def _init_attn(self, prefix: str, rng, d: int) -> None:
        # q/k/v projections carry no bias (a key bias is provably inert:
        # softmax removes per-row constant score shifts)
        for w in ("wq", "wk", "wv", "wo"):
            self._add_param(f"{prefix}.{w}", rng.normal(0.0, d**-0.5, (d, d)))
        self._add_param(f"{prefix}.bo", np.zeros(d))

    def _init_params(self, rng) -> None:
        cfg = self.cfg
        d, f = cfg.d_model, cfg.d_ff
        self._add_param("emb.tok", rng.normal(0.0, d**-0.5, (cfg.vocab_size, d)))
        for i in range(cfg.n_enc_layers):
            p = f"enc.l{i}"
            self._add_param(f"{p}.ln1.g", np.ones(d))
            self._add_param(f"{p}.ln1.b", np.zeros(d))
            self._init_attn(f"{p}.sa", rng, d)
            self._add_param(f"{p}.ln2.g", np.ones(d))
            self._add_param(f"{p}.ln2.b", np.zeros(d))
            self._add_param(f"{p}.ff.w1", rng.normal(0.0, d**-0.5, (d, f)))
            self._add_param(f"{p}.ff.b1", np.zeros(f))
            self._add_param(f"{p}.ff.w2", rng.normal(0.0, f**-0.5, (f, d)))
            self._add_param(f"{p}.ff.b2", np.zeros(d))
        self._add_param("enc.lnf.g", np.ones(d))
        self._add_param("enc.lnf.b", np.zeros(d))
        for i in range(cfg.n_dec_layers):
            p = f"dec.l{i}"
            self._add_param(f"{p}.ln1.g", np.ones(d))
            self._add_param(f"{p}.ln1.b", np.zeros(d))
            self._init_attn(f"{p}.sa", rng, d)
            self._add_param(f"{p}.ln2.g", np.ones(d))
            self._add_param(f"{p}.ln2.b", np.zeros(d))
            self._init_attn(f"{p}.ca", rng, d)
            self._add_param(f"{p}.ln3.g", np.ones(d))
            self._add_param(f"{p}.ln3.b", np.zeros(d))
            self._add_param(f"{p}.ff.w1", rng.normal(0.0, d**-0.5, (d, f)))
            self._add_param(f"{p}.ff.b1", np.zeros(f))
            self._add_param(f"{p}.ff.w2", rng.normal(0.0, f**-0.5, (f, d)))
            self._add_param(f"{p}.ff.b2", np.zeros(d))
        self._add_param("dec.lnf.g", np.ones(d))
        self._add_param("dec.lnf.b", np.zeros(d))
        self._add_param("out.b", np.zeros(cfg.vocab_size))

    def num_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def load_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            missing = set(self.params) ^ set(arrays)
            raise ShapeError(f"parameter name mismatch: {sorted(missing)[:5]}")
        for name, arr in arrays.items():
            tgt = self.params[name]
            if arr.shape != tgt.data.shape:
                raise ShapeError(f"shape mismatch for {name}")
            tgt.data = arr.astype(self.dtype)

    # ------------------------------------------------------------------
    # shared sublayers

    def _ln(self, x: Tensor, name: str) -> Tensor:
        return ad.layer_norm_rows(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _project(self, x: Tensor, prefix: str, which: str) -> Tensor:
        p = self.params
        out = ad.matmul(x, p[f"{prefix}.w{which}"])
        if which == "o":
            out = ad.add(out, p[f"{prefix}.bo"])
        return out

    def _mha(
        self,
        prefix: str,
        x_q: Tensor,
        prior_k: Sequence[Tensor],
        prior_v: Sequence[Tensor],
        cur_k: Tensor,
        cur_v: Tensor,
        causal_within_step: bool,
    ) -> Tensor:
        """Multi-head ``accumulated_attention``: ``prior_k`` holds sealed
        blocks (may be empty), ``cur_k`` the current block."""
        q = self._project(x_q, prefix, "q")
        attended = accumulated_attention(
            q, prior_k, prior_v, cur_k, cur_v, causal_within_step, self.cfg.n_heads
        )
        return self._project(attended, prefix, "o")

    def _ff(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        h = ad.relu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return ad.add(ad.matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def _embed(self, ids: Sequence[int], pos_start: int = 0) -> Tensor:
        n = len(ids)
        if pos_start + n > self.cfg.max_len:
            raise LengthError(
                f"sequence of {n} tokens from position {pos_start} exceeds "
                f"max_len={self.cfg.max_len}"
            )
        e = ad.scale(
            ad.embedding(self.params["emb.tok"], ids), math.sqrt(self.cfg.d_model)
        )
        return ad.add(e, ad.constant(self._pos[pos_start : pos_start + n]))

    # ------------------------------------------------------------------
    # encoder

    def encode(self, step: StepInput) -> Tensor:
        """Encoder stack over one step input; returns (l_t, d_model)."""
        if len(step.tokens) == 0:
            raise ShapeError("encode: empty token sequence")
        x = self._embed(step.tokens)
        for i in range(self.cfg.n_enc_layers):
            p = f"enc.l{i}"
            h = self._ln(x, f"{p}.ln1")
            k = self._project(h, f"{p}.sa", "k")
            v = self._project(h, f"{p}.sa", "v")
            x = ad.add(x, self._mha(f"{p}.sa", h, [], [], k, v, False))
            x = ad.add(x, self._ff(self._ln(x, f"{p}.ln2"), f"{p}.ff"))
        return self._ln(x, "enc.lnf")

    # ------------------------------------------------------------------
    # decoder

    def new_cache(self) -> AttentionCache:
        return AttentionCache(self.cfg.n_dec_layers)

    def start_step(self, encoder_output: Tensor, cache: AttentionCache) -> StepState:
        """Prepare per-step decoder state: project this step's cross-attention
        blocks and snapshot the accumulated views of the sealed cache."""
        cfg = self.cfg
        n = cfg.n_dec_layers
        state = StepState(
            encoder_output, sa_prior_k=[], sa_prior_v=[], ca_k=[], ca_v=[],
            ca_current_k=[], ca_current_v=[], sa_k=[None] * n, sa_v=[None] * n,
        )
        for i in range(n):
            p = f"dec.l{i}"
            k = self._project(encoder_output, f"{p}.ca", "k")
            v = self._project(encoder_output, f"{p}.ca", "v")
            state.ca_current_k.append(k)
            state.ca_current_v.append(v)
            if cfg.mode_accumulated_ca and cache.ca_keys[i]:
                k = ad.concat_rows([*cache.ca_keys[i], k])
                v = ad.concat_rows([*cache.ca_values[i], v])
            state.ca_k.append(k)
            state.ca_v.append(v)
            sealed = cfg.mode_accumulated_sa and cache.sa_keys[i]
            state.sa_prior_k.append(
                ad.concat_rows(cache.sa_keys[i]) if sealed else None
            )
            state.sa_prior_v.append(
                ad.concat_rows(cache.sa_values[i]) if sealed else None
            )
        return state

    def _decode_rows(
        self, state: StepState, ids: Sequence[int], want_logits: bool
    ) -> Tensor | None:
        """One decoder pass over ``ids`` at the next step-local positions.

        Appends their K/V rows to the step's state: into the step's buffers
        when its first pass ran under ``no_grad``, else as graph tensors.
        Each new row attends to the sealed rows, the step's earlier rows and
        the new rows up to itself.  Returns logits of shape (len(ids),
        vocab); without ``want_logits`` it stops the last layer after its
        K/V projections, where the rows a sealed step needs are complete.
        """
        cfg = self.cfg
        x = self._embed(ids, pos_start=state.n_fed)
        grad = ad.grad_enabled()
        if state.n_fed == 0 and not grad:
            state.sa_buf_k = [self._rows_buffer(b) for b in state.sa_prior_k]
            state.sa_buf_v = [self._rows_buffer(b) for b in state.sa_prior_v]
        elif grad and state.sa_buf_k is not None:
            # rows decoded under no_grad carry no graph; later rows join them
            rows = [self._step_rows(state, i) for i in range(cfg.n_dec_layers)]
            state.sa_k = [k for k, _ in rows]
            state.sa_v = [v for _, v in rows]
            state.sa_buf_k = state.sa_buf_v = None
        state.n_fed += len(ids)
        for i in range(cfg.n_dec_layers):
            p = f"dec.l{i}"
            h = self._ln(x, f"{p}.ln1")
            k = self._project(h, f"{p}.sa", "k")
            v = self._project(h, f"{p}.sa", "v")
            if state.sa_buf_k is not None:
                buf_k, buf_v = state.sa_buf_k[i], state.sa_buf_v[i]
                end = buf_k.shape[0] - cfg.max_len + state.n_fed
                buf_k[end - len(ids) : end] = k.data
                buf_v[end - len(ids) : end] = v.data
                prior_k, prior_v = [], []
                k, v = ad.constant(buf_k[:end]), ad.constant(buf_v[:end])
            else:
                own_k, own_v = state.sa_k[i], state.sa_v[i]
                prior_k = [b for b in (state.sa_prior_k[i], own_k) if b is not None]
                prior_v = [b for b in (state.sa_prior_v[i], own_v) if b is not None]
                state.sa_k[i] = k if own_k is None else ad.concat_rows([own_k, k])
                state.sa_v[i] = v if own_v is None else ad.concat_rows([own_v, v])
            if not want_logits and i == cfg.n_dec_layers - 1:
                return None
            # a single query sits at the newest position and may see every row
            x = ad.add(x, self._mha(f"{p}.sa", h, prior_k, prior_v, k, v, len(ids) > 1))
            h2 = self._ln(x, f"{p}.ln2")
            x = ad.add(
                x, self._mha(f"{p}.ca", h2, [], [], state.ca_k[i], state.ca_v[i], False)
            )
            x = ad.add(x, self._ff(self._ln(x, f"{p}.ln3"), f"{p}.ff"))
        return self._project_out(self._ln(x, "dec.lnf")) if want_logits else None

    def decode_token(
        self, state: StepState, token: int, want_logits: bool = True
    ) -> Tensor | None:
        """Feed one token at the next step-local position.

        Appends the position's K/V rows to the within-step state and, when
        ``want_logits``, returns next-token logits of shape (1, vocab).
        """
        return self._decode_rows(state, [token], want_logits)

    def _project_out(self, y: Tensor) -> Tensor:
        # output head tied to the token embedding: copying an input token to
        # the output then generalizes to tokens never emitted in training
        return ad.add(ad.matmul_nt(y, self.params["emb.tok"]), self.params["out.b"])

    def greedy_decode_step(
        self,
        state: StepState,
        bos: int,
        eos: int,
        forced_tokens: Sequence[int] | None = None,
        collect_logits: bool = False,
    ) -> StepOutput:
        """Decode one step greedily (or feed ``forced_tokens`` verbatim).

        Tokens are chosen under ``no_grad`` one position at a time: they are
        discrete, so no loss gradient flows through them.  With gradients on,
        the step's rows are then rebuilt on the graph by one block pass over
        [<bos>] + question; under ``no_grad`` the incremental rows stay.
        Pinned tokens go straight to the block pass.  Stops at <eos> or when
        the position table is exhausted; the truncation case is flagged, not
        an error.
        """
        if forced_tokens is not None:
            self._decode_rows(state, [bos, *forced_tokens], want_logits=False)
            return StepOutput(list(forced_tokens), state.encoder_output)

        question: list[int] = []
        logits_rows: list[Tensor] = []
        truncated = False
        tok = bos
        with ad.no_grad():
            while True:
                logits = self.decode_token(state, tok)
                if collect_logits:
                    logits_rows.append(logits)
                nxt = int(np.argmax(logits.data))
                if nxt == eos:
                    break
                if state.n_fed >= self.cfg.max_len:
                    truncated = True
                    break
                question.append(nxt)
                tok = nxt
        if ad.grad_enabled():
            n = self.cfg.n_dec_layers
            state.sa_k, state.sa_v, state.n_fed = [None] * n, [None] * n, 0
            state.sa_buf_k = state.sa_buf_v = None
            self._decode_rows(state, [bos, *question], want_logits=False)
        return StepOutput(
            question, state.encoder_output, truncated,
            logits_rows if collect_logits else None,
        )

    def _rows_buffer(self, sealed: Tensor | None) -> np.ndarray:
        """A (sealed rows + max_len, d_model) buffer holding ``sealed``."""
        n_sealed = 0 if sealed is None else sealed.shape[0]
        buf = np.empty((n_sealed + self.cfg.max_len, self.cfg.d_model), self.dtype)
        if sealed is not None:
            buf[:n_sealed] = sealed.data
        return buf

    def _step_rows(self, state: StepState, i: int) -> tuple[Tensor, Tensor]:
        """Layer ``i``'s self-attention K and V rows of the current step."""
        if state.sa_buf_k is None:
            return state.sa_k[i], state.sa_v[i]
        buf_k, buf_v = state.sa_buf_k[i], state.sa_buf_v[i]
        start = buf_k.shape[0] - self.cfg.max_len
        rows = slice(start, start + state.n_fed)
        return ad.constant(buf_k[rows]), ad.constant(buf_v[rows])

    def seal_step(
        self, state: StepState, cache: AttentionCache, detach: bool = False
    ) -> None:
        """Freeze this step's K/V into the cache.  Sealed blocks are never
        modified by later steps.  ``detach`` drops the blocks' backward
        graph, cutting the gradient path from later losses into this step's
        computations (values are unchanged)."""
        if state.n_fed == 0:
            raise ShapeError("cannot seal a step before decoding any position")
        wrap = ad.detach if detach else (lambda t: t)
        for i in range(self.cfg.n_dec_layers):
            k, v = self._step_rows(state, i)
            cache.sa_keys[i].append(wrap(k))
            cache.sa_values[i].append(wrap(v))
            cache.ca_keys[i].append(wrap(state.ca_current_k[i]))
            cache.ca_values[i].append(wrap(state.ca_current_v[i]))
        cache.step_lengths.append(state.n_fed)
        cache.context_lengths.append(state.encoder_output.shape[0])

    def teacher_forced_final(
        self, state: StepState, gold_ids: Sequence[int], bos: int, eos: int
    ) -> tuple[Tensor, list[int]]:
        """Block pass over [<bos>] + gold; returns logits of shape
        (len(gold) + 1, vocab) and the target ids (gold + <eos>)."""
        logits = self._decode_rows(state, [bos, *gold_ids], want_logits=True)
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
        """Run the full multi-step rewrite.

        Steps 1..N-1 greedy-decode (or replay ``pinned_intermediates``) and
        seal their caches.  The final step greedy-decodes at inference time
        or, when ``gold_final`` is given, runs teacher forcing and returns
        per-position logits attached to the whole unrolled graph.
        ``detach_cache`` stops gradients at the sealed blocks; comparing
        gradients with and without it isolates the end-to-end path through
        earlier steps (forward values are identical).
        """
        n = len(steps)
        if n == 0:
            raise ShapeError("rewrite_forward: no steps")
        if pinned_intermediates is not None and len(pinned_intermediates) != n - 1:
            raise ShapeError(
                f"{len(pinned_intermediates)} pinned steps for {n - 1} intermediates"
            )
        cache = self.new_cache()
        intermediates: list[list[int]] = []
        truncated: list[bool] = []
        step_logits: list[list[Tensor]] = []
        for t, step in enumerate(steps, start=1):
            h_enc = self.encode(step)
            state = self.start_step(h_enc, cache)
            if t < n:
                forced = (
                    pinned_intermediates[t - 1]
                    if pinned_intermediates is not None
                    else None
                )
                out = self.greedy_decode_step(
                    state, bos, eos, forced_tokens=forced,
                    collect_logits=collect_logits,
                )
                self.seal_step(state, cache, detach=detach_cache)
                intermediates.append(out.question_tokens)
                truncated.append(out.truncated)
                if collect_logits:
                    step_logits.append(out.logits_rows or [])
                continue
            if gold_final is not None:
                logits, targets = self.teacher_forced_final(state, gold_final, bos, eos)
                return RewriteResult(
                    intermediates, None, logits, targets, truncated, cache,
                    step_logits if collect_logits else None, h_enc,
                )
            out = self.greedy_decode_step(
                state, bos, eos, collect_logits=collect_logits
            )
            self.seal_step(state, cache)
            truncated.append(out.truncated)
            if collect_logits:
                step_logits.append(out.logits_rows or [])
            return RewriteResult(
                intermediates, out.question_tokens, None, None, truncated, cache,
                step_logits if collect_logits else None, h_enc,
            )
        raise AssertionError("unreachable")


def final_step_loss(logits: Tensor, gold_ids: Sequence[int], eos: int) -> Tensor:
    """Cross-entropy of the teacher-forced final step against gold + <eos>."""
    targets = [*gold_ids, eos]
    if logits.shape[0] != len(targets):
        raise ShapeError(
            f"{logits.shape[0]} logit rows for {len(targets)} target positions"
        )
    return ad.cross_entropy(logits, targets)
