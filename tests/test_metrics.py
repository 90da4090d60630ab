import itertools
import math
from collections import Counter

import numpy as np
import pytest

from qrewrite.metrics import (
    METEOR_NODE_BUDGET,
    EvalPair,
    _best_alignment_chunks,
    _lcs_length,
    bleu4,
    corpus_eval,
    eval_tokenize,
    exact_match,
    meteor_lite,
    rouge_l,
)


def pair(pred, *refs):
    return EvalPair.from_strings(pred, refs)


class TestTokenize:
    def test_lowercase_and_punct_detach(self):
        assert eval_tokenize("Who directed Interstellar?") == [
            "who", "directed", "interstellar", "?",
        ]

    def test_idempotent(self):
        once = eval_tokenize("A b, C.")
        assert eval_tokenize(" ".join(once)) == once


class TestBleu4:
    def test_identical(self):
        assert bleu4(pair("a b c d e", "a b c d e")) == pytest.approx(1.0)

    def test_zero_four_gram_overlap(self):
        assert bleu4(pair("a b c d", "a x b y c z d")) == 0.0

    def test_hand_value(self):
        # p1=4/5 p2=3/4 p3=2/3 p4=1/2, BP=1
        got = bleu4(pair("a b c d e", "a b c d f"))
        assert got == pytest.approx(0.66874, abs=1e-5)

    def test_empty_prediction(self):
        assert bleu4(EvalPair([], [["a", "b"]])) == 0.0

    def test_brevity_penalty(self):
        # shorter prediction with perfect precisions is penalized
        full = bleu4(pair("a b c d e f", "a b c d e f"))
        short = bleu4(pair("a b c d e", "a b c d e f"))
        assert short < full

    def test_appending_junk_never_raises_score(self):
        rng = np.random.default_rng(0)
        letters = list("abcdefg")
        for _ in range(50):
            n = int(rng.integers(4, 9))
            ref = " ".join(rng.choice(letters, size=n))
            prd = " ".join(rng.choice(letters, size=n))
            base = bleu4(pair(prd, ref))
            extended = bleu4(pair(prd + " zzz", ref))
            assert extended <= base + 1e-12


class TestRougeL:
    def test_identical(self):
        assert rouge_l(pair("a b c d", "a b c d")) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_l(pair("a b", "c d")) == 0.0

    def test_hand_value(self):
        assert rouge_l(pair("a b c d", "a c b d")) == pytest.approx(0.75, abs=1e-9)

    def test_lcs_matches_brute_force(self):
        rng = np.random.default_rng(1)
        letters = list("abc")
        for _ in range(40):
            a = list(rng.choice(letters, size=int(rng.integers(1, 8))))
            b = list(rng.choice(letters, size=int(rng.integers(1, 8))))
            brute = 0
            for k in range(len(a), 0, -1):
                for comb in itertools.combinations(range(len(a)), k):
                    sub = [a[i] for i in comb]
                    it = iter(b)
                    if all(tok in it for tok in sub):
                        brute = k
                        break
                if brute:
                    break
            assert _lcs_length(a, b) == brute

    def test_recall_bias(self):
        # same LCS and prediction, shorter reference -> higher recall -> F
        # never drops
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            prd = " ".join(f"t{i}" for i in range(n))
            junk = ["x", "y", "z", "w"]
            long_ref = prd + " " + " ".join(junk)
            short_ref = prd + " " + " ".join(junk[:2])
            assert rouge_l(pair(prd, short_ref)) >= rouge_l(pair(prd, long_ref))

    def test_max_over_references(self):
        p = pair("a b c", "z z z", "a b c")
        assert rouge_l(p) == pytest.approx(1.0)


class TestMeteorLite:
    def test_hand_value(self):
        got = meteor_lite(pair("the cat sat", "the cat slept"))
        assert got == pytest.approx(0.625, abs=1e-4)

    def test_no_common_tokens(self):
        assert meteor_lite(pair("a b", "c d")) == 0.0

    def test_identical_formula(self):
        m = 5
        got = meteor_lite(pair("a b c d e", "a b c d e"))
        expected = 1.0 * (1.0 - 0.5 * (1.0 / m) ** 3)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_chunk_minimization_with_duplicates(self):
        # "a b a" vs "b a": two matches are forced; aligning the second "a"
        # keeps 'b a' contiguous, one chunk instead of two
        got = meteor_lite(pair("a b a", "b a"))
        p, r, matches, chunks = 2 / 3, 2 / 2, 2, 1
        f_mean = 10 * p * r / (r + 9 * p)
        expected = f_mean * (1 - 0.5 * (chunks / matches) ** 3)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_fragmentation_penalty_orders_scores(self):
        contiguous = meteor_lite(pair("a b c d", "a b c d x"))
        scattered = meteor_lite(pair("a b c d", "a x b y c z d"))
        assert contiguous > scattered


class TestCorpusEval:
    def test_single_pair_mean(self):
        summary, records = corpus_eval([("e1", pair("a b c d", "a b c d"))])
        assert summary["rouge_l"] == records[0]["rouge_l"] == pytest.approx(1.0)
        assert summary["count"] == 1

    def test_identical_pairs_all_ones(self):
        pairs = [(f"e{i}", pair("a b c d", "a b c d")) for i in range(3)]
        summary, _ = corpus_eval(pairs)
        assert summary["bleu4"] == pytest.approx(1.0)
        assert summary["rouge_l"] == pytest.approx(1.0)
        assert summary["exact_match"] == pytest.approx(1.0)

    def test_mean_of_zero_and_one(self):
        pairs = [
            ("good", pair("a b c d", "a b c d")),
            ("bad", pair("x y z w", "a b c d")),
        ]
        summary, records = corpus_eval(pairs, metric_names=("rouge_l",))
        assert summary["rouge_l"] == pytest.approx(0.5)
        assert [r["id"] for r in records] == ["good", "bad"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_eval([])


class TestExactMatch:
    def test_match_any_reference(self):
        assert exact_match(pair("a b", "c", "a b")) == 1.0
        assert exact_match(pair("a b", "a b c")) == 0.0

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(3)
        letters = list("abcd")
        for _ in range(60):
            prd = " ".join(rng.choice(letters, size=int(rng.integers(1, 8))))
            ref = " ".join(rng.choice(letters, size=int(rng.integers(1, 8))))
            p = pair(prd, ref)
            for fn in (bleu4, rouge_l, meteor_lite, exact_match):
                assert 0.0 <= fn(p) <= 1.0


# ---------------------------------------------------------------------------
# straightforward implementations that the optimized metrics must reproduce


def reference_bleu4(pair: EvalPair) -> float:
    def ngram_counts(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    pred = pair.prediction
    if not pred:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        pred_counts = ngram_counts(pred, n)
        total = sum(pred_counts.values())
        if total == 0:
            return 0.0
        best = Counter()
        for ref in pair.references:
            for gram, c in ngram_counts(ref, n).items():
                best[gram] = max(best[gram], c)
        clipped = sum(min(c, best[gram]) for gram, c in pred_counts.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    ref_len = min((abs(len(r) - len(pred)), len(r)) for r in pair.references)[1]
    bp = 1.0 if len(pred) >= ref_len else math.exp(1.0 - ref_len / len(pred))
    return bp * math.exp(log_sum / 4.0)


def reference_lcs_length(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def reference_alignment_chunks(pred, ref) -> tuple[int, int]:
    def chunks_of(alignment):
        chunks, prev = 0, None
        for i, j in sorted(alignment):
            if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
                chunks += 1
            prev = (i, j)
        return chunks

    ref_positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        ref_positions.setdefault(tok, []).append(j)
    slots = [(i, ref_positions[tok]) for i, tok in enumerate(pred) if tok in ref_positions]
    if not slots:
        return 0, 0
    budget = [METEOR_NODE_BUDGET]
    best = {"chunks": 0, "matches": -1}

    def search(idx, used, alignment):
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if idx == len(slots):
            matches = len(alignment)
            if matches < best["matches"]:
                return
            chunks = chunks_of(alignment)
            if matches > best["matches"] or chunks < best["chunks"]:
                best["matches"] = matches
                best["chunks"] = chunks
            return
        if len(alignment) + (len(slots) - idx) < best["matches"]:
            return
        i, candidates = slots[idx]
        for j in candidates:
            if j in used:
                continue
            used.add(j)
            alignment.append((i, j))
            search(idx + 1, used, alignment)
            alignment.pop()
            used.remove(j)
        search(idx + 1, used, alignment)

    search(0, set(), [])
    return max(best["matches"], 0), best["chunks"]


def seeded_pairs(seed: int, n: int, alphabet: int, max_len: int, max_refs: int):
    """``n`` random token pairs; a small ``alphabet`` makes duplicates
    common, ``max_refs`` > 1 gives several references per prediction."""
    rng = np.random.default_rng(seed)
    letters = [f"w{k}" for k in range(alphabet)]

    def tokens():
        return [str(t) for t in rng.choice(letters, size=int(rng.integers(0, max_len + 1)))]

    return [
        EvalPair(tokens(), [tokens() for _ in range(int(rng.integers(1, max_refs + 1)))])
        for _ in range(n)
    ]


# (seed, pairs, alphabet, max length, max references): 3,600 pairs in all
RANDOM_CORPORA = [
    (11, 1200, 3, 10, 1),    # duplicate-heavy
    (12, 1000, 5, 12, 3),    # duplicates and several references
    (13, 1000, 12, 16, 4),   # mostly distinct tokens, several references
    (14, 400, 2, 70, 1),     # long sequences: LCS past one machine word
]


class TestAgainstReferenceImplementations:
    @pytest.mark.parametrize("corpus", RANDOM_CORPORA, ids=lambda c: f"seed{c[0]}")
    def test_scores_equal_bit_for_bit(self, corpus):
        for p in seeded_pairs(*corpus):
            assert bleu4(p) == reference_bleu4(p)
            for ref in p.references:
                assert _lcs_length(p.prediction, ref) == reference_lcs_length(p.prediction, ref)
            if corpus[3] <= 16:
                for ref in p.references:
                    assert (_best_alignment_chunks(p.prediction, ref)
                            == reference_alignment_chunks(p.prediction, ref))

    def test_alignment_past_the_node_budget(self):
        # two letters and 22 tokens each side exceed the node budget, so
        # both searches stop at the same node
        for p in seeded_pairs(15, 3, 2, 22, 1):
            ref = p.references[0]
            assert (_best_alignment_chunks(p.prediction, ref)
                    == reference_alignment_chunks(p.prediction, ref))
