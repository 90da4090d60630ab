"""Sentence-level generation metrics: BLEU-4, ROUGE-L, METEOR-lite, exact match.

METEOR here is the exact-match-only variant (no stemming or synonym stage),
so its absolute values are not comparable with toolkit METEOR scores; all
comparisons using it are internal to this artifact.  Corpus aggregation is
the arithmetic mean of sentence scores.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

_PUNCT = re.compile(r"([.,!?;:()\[\]\"'])")

ROUGE_BETA = 1.2
METEOR_NODE_BUDGET = 50_000


def eval_tokenize(text: str) -> list[str]:
    """Lowercase, detach punctuation, split on whitespace."""
    return _PUNCT.sub(r" \1 ", text.lower()).split()


@dataclass
class EvalPair:
    prediction: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise ValueError("EvalPair needs at least one reference")

    @classmethod
    def from_strings(cls, prediction: str, references: Iterable[str]) -> "EvalPair":
        return cls(eval_tokenize(prediction), [eval_tokenize(r) for r in references])


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def bleu4(pair: EvalPair) -> float:
    """Geometric mean of modified 1..4-gram precisions times the brevity
    penalty (closest reference length, ties to the shorter).  No smoothing:
    any zero n-gram precision zeroes the score."""
    pred = pair.prediction
    if not pred:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        total = len(pred) - n + 1
        if total <= 0:
            return 0.0
        best = Counter()
        for ref in pair.references:
            best |= _ngram_counts(ref, n)
        clipped = sum((_ngram_counts(pred, n) & best).values())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    ref_len = min(
        (abs(len(r) - len(pred)), len(r)) for r in pair.references
    )[1]
    bp = 1.0 if len(pred) >= ref_len else math.exp(1.0 - ref_len / len(pred))
    return bp * math.exp(log_sum / 4.0)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS (Hyyro 2004): after each token of ``b``, the zero
    bits of ``v`` count the LCS of ``a`` and the prefix of ``b`` read so far."""
    where: dict[str, int] = {}
    for i, x in enumerate(a):
        where[x] = where.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & where.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(pair: EvalPair) -> float:
    """LCS F-score with recall bias beta=1.2; max over references."""
    pred = pair.prediction
    if not pred:
        return 0.0
    best = 0.0
    b2 = ROUGE_BETA * ROUGE_BETA
    for ref in pair.references:
        if not ref:
            continue
        lcs = _lcs_length(pred, ref)
        if lcs == 0:
            continue
        r = lcs / len(ref)
        p = lcs / len(pred)
        best = max(best, (1 + b2) * r * p / (r + b2 * p))
    return best


def _best_alignment_chunks(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Maximum exact-match unigram alignment, then fewest chunks (maximal
    runs contiguous in both sequences).

    Exhaustive over the assignment choices of duplicated tokens with a node
    budget; beyond the budget the leftmost-first assignment is kept, which
    is still a maximum matching.
    """
    ref_positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        ref_positions.setdefault(tok, []).append(j)
    slots = [(i, ref_positions[tok]) for i, tok in enumerate(pred) if tok in ref_positions]
    if not slots:
        return 0, 0

    n_slots = len(slots)
    budget = METEOR_NODE_BUDGET
    best_matches, best_chunks = -1, 0

    # pairs are aligned in increasing pred position, so a pair continues the
    # last chunk exactly when it follows the last aligned pair in both
    def search(idx: int, used: int, matches: int, chunks: int, last_i: int, last_j: int):
        nonlocal budget, best_matches, best_chunks
        if budget <= 0:
            return
        budget -= 1
        if idx == n_slots:
            if matches > best_matches or (matches == best_matches and chunks < best_chunks):
                best_matches, best_chunks = matches, chunks
            return
        # even aligning every remaining token cannot beat the best
        if matches + (n_slots - idx) < best_matches:
            return
        i, candidates = slots[idx]
        for j in candidates:
            bit = 1 << j
            if used & bit:
                continue
            joins = i == last_i + 1 and j == last_j + 1
            search(idx + 1, used | bit, matches + 1, chunks + (not joins), i, j)
        # leaving this occurrence unaligned can reduce fragmentation when a
        # duplicate appears later; the first dfs path above already reaches
        # the maximum match count, so the bound prunes most skip branches
        search(idx + 1, used, matches, chunks, last_i, last_j)

    search(0, 0, 0, 0, -2, -2)
    return max(best_matches, 0), best_chunks


def meteor_lite(pair: EvalPair) -> float:
    """Unigram F-mean (recall-weighted 9:1) with a fragmentation penalty of
    0.5 * (chunks / matches)^3; exact matching only; max over references."""
    pred = pair.prediction
    if not pred:
        return 0.0
    best = 0.0
    for ref in pair.references:
        if not ref:
            continue
        matches, chunks = _best_alignment_chunks(pred, ref)
        if matches == 0:
            continue
        p = matches / len(pred)
        r = matches / len(ref)
        f_mean = 10.0 * p * r / (r + 9.0 * p)
        penalty = 0.5 * (chunks / matches) ** 3
        best = max(best, f_mean * (1.0 - penalty))
    return best


def exact_match(pair: EvalPair) -> float:
    return 1.0 if any(pair.prediction == r for r in pair.references) else 0.0


METRICS = {
    "bleu4": bleu4,
    "rouge_l": rouge_l,
    "meteor_lite": meteor_lite,
    "exact_match": exact_match,
}


def corpus_eval(
    pairs: Sequence[tuple[str, EvalPair]],
    metric_names: Sequence[str] = ("bleu4", "rouge_l", "meteor_lite", "exact_match"),
) -> tuple[dict[str, float], list[dict]]:
    """Mean sentence-level scores plus one record per example, in input order."""
    if not pairs:
        raise ValueError("corpus_eval needs at least one pair")
    records = []
    for example_id, pair in pairs:
        rec = {"id": example_id}
        for name in metric_names:
            rec[name] = METRICS[name](pair)
        records.append(rec)
    return summarize(records, metric_names), records


def summarize(records: Sequence[dict], metric_names: Sequence[str]) -> dict[str, float]:
    """Mean of each metric over per-example records, in their order, plus
    the record count."""
    summary = {
        name: sum(r[name] for r in records) / len(records) for name in metric_names
    }
    summary["count"] = len(records)
    return summary
