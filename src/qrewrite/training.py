"""Adaptive curriculum training: loss reweighting by question complexity.

Training sweeps a main complexity H from 1 to N, the highest hop count of
its examples, which ``train`` takes as one list and groups by hop count
itself.  Each iteration trains on all examples up to complexity H plus a
rho-sized subsample of each harder group; losses below H are scaled by
gamma_low, above H by gamma_high.  The named variants wire the same loop
differently:

    standard     one pass with H fixed at N, everything unweighted
    step_by_step gamma_low=0, gamma_high=0, rho=0
    cumulative   gamma_low=1, gamma_high=0, rho=0
    adaptive     the configured (rho, gamma_low, gamma_high), default
                 (0.1, 0.8, 0.1)

Examples whose weight is exactly zero are dropped from the iteration before
batching (a step-by-step iteration at H=2 really trains on D_2 only);
``build_iteration_dataset`` itself keeps the full composition so the count
law |D| = sum_{h<=H} n(D_h) + sum_{h>H} floor(rho*n(D_h)) stays checkable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import metrics as M
from .autodiff import Tensor
from .docgraph import ArrangedExample, make_step_inputs
from .errors import ConfigError, DivergenceError, ShapeError
from .model import QuestionRewriter, StepInput, final_step_loss
from .vocab import Vocab

CURRICULUM_VARIANTS = ("adaptive", "standard", "step_by_step", "cumulative")


@dataclass
class CurriculumConfig:
    gamma_low: float = 0.8
    gamma_high: float = 0.1
    rho: float = 0.1
    lr_alpha: float = 3e-5
    warmup_steps: int = 1000
    batch_size: int = 8
    epochs_per_main_complexity: int = 1
    seed: int = 0
    curriculum: str = "adaptive"
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    val_max_examples: int = 64
    plateau_patience: int = 0  # 0 disables early switching of H

    def __post_init__(self):
        for name in ("gamma_low", "gamma_high", "rho"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}={v} outside [0, 1]")
        if self.curriculum not in CURRICULUM_VARIANTS:
            raise ConfigError(
                f"curriculum must be one of {CURRICULUM_VARIANTS}, "
                f"got {self.curriculum!r}"
            )
        if self.batch_size < 1 or self.epochs_per_main_complexity < 1:
            raise ConfigError("batch_size and epochs_per_main_complexity must be >= 1")
        for name in ("seed", "val_max_examples", "plateau_patience", "warmup_steps",
                     "lr_alpha", "weight_decay", "max_grad_norm"):
            v = getattr(self, name)
            if not v >= 0:  # NaN too
                raise ConfigError(f"{name}={v} must be >= 0")

    def resolved(self) -> "CurriculumConfig":
        """Apply the named variant's (gamma_low, gamma_high, rho) preset."""
        if self.curriculum == "step_by_step":
            return replace(self, gamma_low=0.0, gamma_high=0.0, rho=0.0)
        if self.curriculum == "cumulative":
            return replace(self, gamma_low=1.0, gamma_high=0.0, rho=0.0)
        if self.curriculum == "standard":
            return replace(self, gamma_low=1.0, gamma_high=1.0, rho=0.0)
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def build_iteration_dataset(
    groups: Mapping[int, Sequence],
    main_complexity: int,
    rho: float,
    rng: np.random.Generator,
) -> list[tuple[int, object]]:
    """The iteration's example pool, tagged with complexities and shuffled.

    All of D_1..D_H, plus a uniform subsample of floor(rho * n(D_h)) from
    each h > H.
    """
    n = max(groups)
    if not 1 <= main_complexity <= n:
        raise ConfigError(f"main complexity {main_complexity} outside 1..{n}")
    if not groups.get(main_complexity):
        raise ConfigError(f"no examples at main complexity {main_complexity}")
    pool: list[tuple[int, object]] = []
    for h in sorted(groups):
        examples = groups[h]
        if h <= main_complexity:
            pool.extend((h, ex) for ex in examples)
        else:
            take = math.floor(rho * len(examples))
            if take:
                picked = rng.choice(len(examples), size=take, replace=False)
                pool.extend((h, examples[int(i)]) for i in sorted(picked))
    order = rng.permutation(len(pool))
    return [pool[int(i)] for i in order]


def loss_weight(complexity: int, main_complexity: int, gamma_low: float, gamma_high: float) -> float:
    if complexity < main_complexity:
        return gamma_low
    if complexity > main_complexity:
        return gamma_high
    return 1.0


def weighted_loss(
    losses: Sequence[Tensor | float],
    complexities: Sequence[int],
    main_complexity: int,
    gamma_low: float,
    gamma_high: float,
) -> Tensor:
    """Mean of per-example losses scaled by their complexity weight."""
    if len(losses) != len(complexities):
        raise ConfigError("losses and complexities are not aligned")
    if not losses:
        raise ConfigError("weighted_loss of an empty batch")
    total: Tensor | None = None
    for loss, c in zip(losses, complexities):
        t = loss if isinstance(loss, Tensor) else Tensor(np.asarray(float(loss)))
        term = ad.scale(t, loss_weight(c, main_complexity, gamma_low, gamma_high))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / len(losses))


def lr_at(step: int, warmup_steps: int, total_steps: int, lr_alpha: float) -> float:
    """Linear ramp 0 -> lr_alpha over the warmup, then linear decay to 0."""
    if total_steps <= warmup_steps:
        raise ConfigError(
            f"total_steps={total_steps} must exceed warmup_steps={warmup_steps}"
        )
    if step < 0:
        raise ConfigError(f"negative step {step}")
    if step <= warmup_steps:
        return lr_alpha * (step / warmup_steps) if warmup_steps else lr_alpha
    if step >= total_steps:
        return 0.0
    return lr_alpha * (total_steps - step) / (total_steps - warmup_steps)


# bytes of each buffer that one pass of AdamW's step reads: the pass's six
# operands (128 KiB each) stay in a 2 MiB L2 cache.  On the benchmark's
# model this beat one pass over the whole buffers by about 15% (CHANGES.md)
STEP_CHUNK_BYTES = 1 << 17


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    The parameters, their gradients and both moments live in four flat
    buffers of the parameters' one dtype, in the order of ``params``.
    Each parameter's ``data`` is copied into the first and rebound to its
    view there.  ``zero_grad`` points each ``grad`` at its view of the
    gradient buffer, so backward accumulates there in place.  ``step``
    updates the buffers in place, a cache-sized chunk at a time, by the
    elementwise operations of one update per tensor in their order, so
    the bits are the same.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = dict(params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        tensors = list(self.params.values())
        dtypes = {p.data.dtype for p in tensors}
        if len(dtypes) > 1:
            raise ShapeError(f"AdamW: parameters of mixed dtypes {sorted(map(str, dtypes))}")
        bounds = np.cumsum([0] + [p.data.size for p in tensors]).tolist()
        self.data = np.empty(bounds[-1], *dtypes)
        for p, lo, hi in zip(tensors, bounds, bounds[1:]):
            data = self.data[lo:hi].reshape(p.data.shape)
            data[...] = p.data
            p.data = data
        self.grad = np.zeros_like(self.data)
        self.m, self.v = np.zeros_like(self.data), np.zeros_like(self.data)
        # the step's two chunk-sized temporaries, allocated once
        chunk = max(1, min(STEP_CHUNK_BYTES // self.data.itemsize, len(self.data)))
        self._scratch = np.empty((2, chunk), self.data.dtype)
        # each tensor's views of the parameter and gradient buffers
        self._views = [(p, p.data, self.grad[lo:hi].reshape(p.data.shape))
                       for p, lo, hi in zip(tensors, bounds, bounds[1:])]

    def zero_grad(self) -> None:
        """Clear every gradient to its view of the gradient buffer, filled
        with -0.0, the additive identity: backward's first ``+=`` then
        stores exactly the array a fresh gradient would hold, signed zeros
        and a cast to the parameters' dtype included."""
        self.grad.fill(-0.0)
        for p, _, grad in self._views:
            p.grad = grad

    def step(self, lr: float) -> None:
        """One update of every parameter.  A ``data`` rebound since the
        last step is copied into the buffer and rebound to its view; a
        ``grad`` assigned since ``zero_grad`` is copied into its view, and
        None (no gradient) counts as zeros."""
        for p, data, grad in self._views:
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
        self.t += 1
        b1, b2, eps, wd = self.beta1, self.beta2, self.eps, self.weight_decay
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        chunk = self._scratch.shape[1]
        for lo in range(0, len(self.data), chunk):
            at = slice(lo, lo + chunk)
            p, g, m, v = self.data[at], self.grad[at], self.m[at], self.v[at]
            a, update = self._scratch[0, :len(p)], self._scratch[1, :len(p)]
            # m*b1 + (1-b1)*g, v*b2 + (1-b2)*(g*g), then
            # p - lr*(update + wd*p) with update = (m/b1t) / (sqrt(v/b2t) + eps)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a)
            np.sqrt(np.divide(v, b2t, out=a), out=a)
            a += eps
            np.divide(np.divide(m, b1t, out=update), a, out=update)
            np.multiply(p, wd, out=a)
            a += update
            a *= lr
            p -= a


def clip_grad_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainResult:
    final_train_loss: float
    total_steps: int


def _example_loss(
    model: QuestionRewriter,
    example: ArrangedExample,
    voc: Vocab,
    steps: Sequence[StepInput],
    pinned: Sequence[Sequence[int]],
) -> Tensor:
    """The example's final-step loss on its own graph, with its
    intermediate questions ``pinned``: the batch of one of
    ``_batch_losses``."""
    gold = voc.encode(example.gold_question)
    result = model.rewrite_forward(
        steps, voc.bos_id, voc.eos_id, gold_final=gold, pinned_intermediates=pinned
    )
    return final_step_loss(result.final_logits, gold, voc.eos_id)


def _batch_losses(
    model: QuestionRewriter, examples: Sequence[ArrangedExample], voc: Vocab
) -> list[Tensor]:
    """Per-example final-step losses of a batch, from one graph: at each
    step one packed pass picks the intermediate questions greedily and
    seals them, or teacher-forces the final ones."""
    steps = [make_step_inputs(ex, voc, model.cfg.max_len) for ex in examples]
    golds = [voc.encode(ex.gold_question) for ex in examples]
    results = model.rewrite_batch(steps, voc.bos_id, voc.eos_id, gold_finals=golds)
    return [final_step_loss(res.final_logits, gold, voc.eos_id)
            for res, gold in zip(results, golds)]


def predict(
    model: QuestionRewriter, example: ArrangedExample, voc: Vocab
) -> tuple[list[str], list[list[str]]]:
    """Greedy final question plus intermediate questions, as token lists
    (the one-example case of ``rewrite_packed``)."""
    steps = make_step_inputs(example, voc, model.cfg.max_len)
    (result,) = model.rewrite_packed([steps], voc.bos_id, voc.eos_id)
    final = voc.decode(result.final_tokens)
    intermediates = [voc.decode(q) for q in result.intermediate_tokens]
    return final, intermediates


def _validate(
    model: QuestionRewriter, examples: Sequence[ArrangedExample], voc: Vocab
) -> dict:
    """Loss and greedy final question per example from one lockstep pass
    over the pool: each final step is teacher-forced for the loss, then
    greedy-decoded from the same step state."""
    steps = [make_step_inputs(ex, voc, model.cfg.max_len) for ex in examples]
    golds = [voc.encode(ex.gold_question) for ex in examples]
    results = model.rewrite_packed(steps, voc.bos_id, voc.eos_id, gold_finals=golds)
    losses = []
    pairs = []
    for ex, gold, res in zip(examples, golds, results):
        losses.append(final_step_loss(res.final_logits, gold, voc.eos_id).item())
        final = voc.decode(res.final_tokens)
        pairs.append(
            (ex.example_id,
             M.EvalPair.from_strings(" ".join(final), [" ".join(ex.gold_question)]))
        )
    summary, _ = M.corpus_eval(pairs, ("rouge_l", "exact_match"))
    return {
        "val_loss": sum(losses) / len(losses),
        "rouge_l": summary["rouge_l"],
        "exact_match": summary["exact_match"],
    }


def _planned_steps(groups, main, cfg: CurriculumConfig) -> int:
    """Optimizer updates one H-iteration will take per epoch, after
    zero-weight examples are dropped (deterministic, no rng needed)."""
    kept = 0
    for h in sorted(groups):
        n = len(groups[h])
        if h > main:
            n = math.floor(cfg.rho * n)
        w = loss_weight(h, main, cfg.gamma_low, cfg.gamma_high)
        if w != 0.0:
            kept += n
    return math.ceil(kept / cfg.batch_size)


def train(
    model: QuestionRewriter,
    examples: Sequence[ArrangedExample],
    config: CurriculumConfig,
    voc: Vocab,
    val_examples: Sequence[ArrangedExample] = (),
    on_checkpoint: Callable[[str, QuestionRewriter], None] | None = None,
    on_event: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Run the full curriculum; deterministic given (seed, config,
    examples).  The examples are grouped by hop count, in input order
    within each group.  Every main complexity the curriculum trains at
    needs an example: every count from 1 to the highest, or under
    ``standard`` the highest alone, so it trains on the levels present.
    Validation decodes the first ``val_max_examples`` of ``val_examples``
    stably sorted by hop count, so the lowest hops come first.

    Emits one metrics record per validation event (end of each epoch) and
    per checkpoint, each main complexity's and a final one, in the order
    they arise, and hands ``on_checkpoint`` the model at each checkpoint as
    it is reached.  A ``warmup_steps`` longer than the planned number of
    updates is clamped to the plan, so the learning rate then peaks at the
    last update.
    """
    cfg = config.resolved()
    groups: dict[int, list[ArrangedExample]] = {}
    for ex in examples:
        groups.setdefault(ex.hops, []).append(ex)
    n_max = max(groups, default=1)
    h_sequence = [n_max] if cfg.curriculum == "standard" else list(range(1, n_max + 1))
    for h in h_sequence:
        if not groups.get(h):
            raise ConfigError(f"dataset has no examples at complexity {h}")
    steps_per_h = {
        h: _planned_steps(groups, h, cfg) * cfg.epochs_per_main_complexity
        for h in h_sequence
    }
    total_steps = sum(steps_per_h.values())
    if total_steps == 0:
        raise ConfigError("training plan contains no optimizer steps")
    warmup_steps = min(cfg.warmup_steps, total_steps)

    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamW(model.params, weight_decay=cfg.weight_decay)
    global_step = 0
    last_loss = math.nan
    emit = on_event or (lambda record: None)

    val_pool = sorted(val_examples, key=lambda ex: ex.hops)[: cfg.val_max_examples]

    for main in h_sequence:
        best_val = math.inf
        stale = 0
        for epoch in range(cfg.epochs_per_main_complexity):
            pool = build_iteration_dataset(groups, main, cfg.rho, rng)
            pool = [
                (c, ex)
                for c, ex in pool
                if loss_weight(c, main, cfg.gamma_low, cfg.gamma_high) != 0.0
            ]
            epoch_losses = []
            for lo in range(0, len(pool), cfg.batch_size):
                batch = pool[lo : lo + cfg.batch_size]
                optimizer.zero_grad()
                losses = _batch_losses(model, [ex for _, ex in batch], voc)
                batch_loss = weighted_loss(
                    losses, [c for c, _ in batch], main,
                    cfg.gamma_low, cfg.gamma_high,
                )
                raw = batch_loss.item()
                if not math.isfinite(raw):
                    raise DivergenceError(
                        f"non-finite loss {raw} at step {global_step}, H={main}"
                    )
                batch_loss.backward()
                clip_grad_norm(model.params, cfg.max_grad_norm)
                # decay reaches zero one virtual step past the final update
                lr = lr_at(
                    min(global_step + 1, total_steps),
                    warmup_steps, total_steps + 1, cfg.lr_alpha,
                )
                optimizer.step(lr)
                global_step += 1
                epoch_losses.append(raw)
                last_loss = raw
            record = {
                "event": "validation",
                "step": global_step,
                "H": main,
                "epoch": epoch + 1,
                "train_loss": sum(epoch_losses) / max(len(epoch_losses), 1),
            }
            if val_pool:
                record.update(_validate(model, val_pool, voc))
                if not math.isfinite(record["val_loss"]):
                    raise DivergenceError(
                        f"non-finite validation loss {record['val_loss']} at step "
                        f"{global_step}, H={main}"
                    )
            emit(record)
            if cfg.plateau_patience and val_pool:
                if record["val_loss"] < best_val - 1e-6:
                    best_val = record["val_loss"]
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.plateau_patience:
                        break
        sq_norm = np.dot(optimizer.data, optimizer.data) if main == n_max else 0.0
        if not math.isfinite(sq_norm):  # no forward pass may read the last update
            raise DivergenceError(f"non-finite squared parameter norm {sq_norm} at step "
                                  f"{global_step}, H={main}")
        label = f"H{main}"
        emit({"event": "checkpoint", "step": global_step, "H": main, "label": label})
        if on_checkpoint is not None:
            on_checkpoint(label, model)
    if on_checkpoint is not None:
        on_checkpoint("final", model)
    return TrainResult(last_loss, global_step)
