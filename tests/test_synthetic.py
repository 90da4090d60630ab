import numpy as np
import pytest

from qrewrite import synthetic as S
from qrewrite.docgraph import Document, arrange
from qrewrite.errors import GenerationError

SIZES = {"person": 24, "film": 20, "city": 12, "country": 12}


@pytest.fixture(scope="module")
def world():
    return S.generate_world(11, SIZES)


def docs_of(record):
    return [
        Document(
            i,
            d["title"].split(),
            d["text"].split(),
            d["is_answer_doc"],
            frozenset(d["entities"]),
        )
        for i, d in enumerate(record["documents"])
    ]


class TestWorld:
    def test_deterministic(self):
        a = S.generate_world(3, SIZES)
        b = S.generate_world(3, SIZES)
        assert a.facts == b.facts
        assert a.entities == b.entities

    def test_empty_world_errors_cleanly(self):
        empty = S.generate_world(3, 0)
        assert empty.facts == []
        with pytest.raises(GenerationError):
            S.sample_chain(empty, 1, np.random.default_rng(0))

    def test_referential_integrity(self, world):
        pool = {e for names in world.entities.values() for e in names}
        for f in world.facts:
            assert f.subj in pool and f.obj in pool
            rel = S.RELATION_BY_NAME[f.relation]
            assert f.subj.startswith(rel.subj_cat)
            assert f.obj.startswith(rel.obj_cat)

    def test_descriptor_uniqueness(self, world):
        # each (relation, role) slot holds an entity at most once, so every
        # descriptor resolves to exactly one entity
        seen = set()
        for f in world.facts:
            assert (f.relation, "subj", f.subj) not in seen
            assert (f.relation, "obj", f.obj) not in seen
            seen.add((f.relation, "subj", f.subj))
            seen.add((f.relation, "obj", f.obj))


class TestExamples:
    def test_one_hop_shape(self, world):
        rec = S.generate_example(world, 1, seed=2)
        assert rec["hops"] == 1
        assert len(rec["documents"]) == 1
        assert rec["reference_intermediates"] == []
        assert rec["question"].endswith("?")
        assert rec["answer"] in rec["documents"][0]["text"].split()

    def test_two_hop_is_one_substitution(self, world):
        rec = S.generate_example(world, 2, seed=3)
        q1 = rec["reference_intermediates"][0].split()
        q2 = rec["question"].split()
        # q2 restores to q1 when the descriptor collapses back to one token
        assert len(q2) > len(q1)
        ans, trail = S.reduce_question(world.facts, q2)
        assert [" ".join(t) for t in trail[:-1]] == [rec["question"], *[
            " ".join(q) for q in [q1]
        ]]
        assert ans == rec["answer"]

    def test_consecutive_docs_share_exactly_the_bridge(self, world):
        for seed in range(5):
            rec = S.generate_example(world, 3, seed=seed)
            docs = docs_of(rec)
            arr = arrange(docs, rec["answer"].split())
            ents = [frozenset(d.annotations) for d in arr.documents]
            for t in range(len(ents) - 1):
                shared = ents[t] & ents[t + 1]
                assert len(shared) == 1
            # non-consecutive docs share nothing
            for i in range(len(ents)):
                for j in range(i + 2, len(ents)):
                    assert not (ents[i] & ents[j])

    def test_answer_only_in_answer_document(self, world):
        for seed in range(5):
            rec = S.generate_example(world, 3, seed=10 + seed)
            for d in rec["documents"]:
                tokens = set(d["text"].split()) | {d["title"]}
                if d["is_answer_doc"]:
                    assert rec["answer"] in tokens
                else:
                    assert rec["answer"] not in tokens

    def test_distractors_present(self, world):
        rec = S.generate_example(world, 2, seed=4)
        for d in rec["documents"]:
            # fact sentence plus 1..2 distractors, each ending with "."
            n_sentences = d["text"].split().count(".")
            assert 2 <= n_sentences <= 3

    def test_reduction_over_many_examples(self, world):
        for hops in (1, 2, 3, 4):
            for seed in range(8):
                rec = S.generate_example(world, hops, seed=100 * hops + seed)
                ans, trail = S.reduce_question(world.facts, rec["question"].split())
                assert ans == rec["answer"]
                expected = [rec["question"], *reversed(rec["reference_intermediates"])]
                assert [" ".join(t) for t in trail[:-1]] == expected

    def test_arrangement_recovers_chain_order(self, world):
        for hops in (2, 3, 4):
            for seed in range(6):
                rec = S.generate_example(world, hops, seed=7 * hops + seed)
                arr = arrange(docs_of(rec), rec["answer"].split())
                assert arr.documents[0].is_answer_doc
                assert len(arr.bridges) == hops - 1
                for b in arr.bridges:
                    assert len(b) == 1
                # the recovered chain is the generation chain: titles follow
                # the entity sequence e_1..e_N
                titles = [" ".join(d.title) for d in arr.documents]
                q_tokens = set(rec["question"].split())
                assert titles[-1] in q_tokens  # e_N is the surviving mention

    def test_hops_out_of_range(self, world):
        with pytest.raises(GenerationError):
            S.enumerate_chains(world, 5)

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_enumeration_matches_set_based_search(self, hops):
        """Chains, their order and the first-chain-per-signature dedup are
        those of a search that tracks used entities and facts in sets."""
        # this world has 4-fact cycles, which no chain may close
        world = S.generate_world(12, SIZES)

        def fresh(entity, ents, facts):
            return [f for f in world.facts_of(entity)
                    if f not in set(facts) and f.other(entity) not in set(ents)]

        want, seen = [], set()

        def extend(facts, ents):
            if len(facts) == hops:
                if tuple(ents) not in seen:
                    seen.add(tuple(ents))
                    want.append(S.Chain(tuple(facts), tuple(ents)))
                return
            options = fresh(ents[-1], ents, facts)
            # sample_chain draws from the same options
            assert S._extensions(world, ents[-1], ents) == options
            for f in options:
                extend([*facts, f], [*ents, f.other(ents[-1])])

        for f1 in world.facts:
            extend([f1], [f1.subj, f1.obj])
        assert S.enumerate_chains(world, hops) == want


class TestSplits:
    def test_exact_counts(self, world):
        splits = S.make_splits(world, [1, 2], (30, 5, 8), seed=5)
        assert len(splits["train"]) == 60
        assert len(splits["valid"]) == 10
        assert len(splits["test"]) == 16

    def test_signature_disjointness(self, world):
        splits = S.make_splits(world, [1, 2, 3], (40, 6, 10), seed=6)

        # the (answer, question) pair pins the chain: templates are injective
        def sigs(recs):
            return {(r["answer"], r["question"]) for r in recs}

        assert not (sigs(splits["train"]) & sigs(splits["test"]))
        assert not (sigs(splits["train"]) & sigs(splits["valid"]))

    def test_renamed_train_records_selfconsistent(self, world):
        splits = S.make_splits(world, [2, 3], (25, 4, 6), seed=8)
        for rec in splits["train"][:30]:
            facts = S.parse_facts(rec)
            ans, trail = S.reduce_question(facts, rec["question"].split())
            assert ans == rec["answer"]
            expected = [rec["question"], *reversed(rec["reference_intermediates"])]
            assert [" ".join(t) for t in trail[:-1]] == expected
            arr = arrange(docs_of(rec), rec["answer"].split())
            assert arr.documents[0].is_answer_doc
            assert len(arr.bridges) == rec["hops"] - 1

    def test_rename_is_bijective_within_record(self, world):
        rec = S.generate_example(world, 3, seed=0)
        rng = np.random.default_rng(0)
        renamed, tok_map = S.rename_record_entities(world, rec, rng)
        assert sorted(tok_map) == sorted(set(tok_map.values()))
        # same structure, renamed surface
        assert len(renamed["question"].split()) == len(rec["question"].split())

    def test_regeneration_identical(self, world):
        a = S.make_splits(world, [1, 2], (10, 2, 3), seed=9)
        b = S.make_splits(world, [1, 2], (10, 2, 3), seed=9)
        assert a == b

    def test_vocabulary_closure(self, world):
        splits = S.make_splits(world, [1, 2], (10, 2, 3), seed=9)
        from qrewrite.vocab import UNK, Vocab

        records = [r for part in splits.values() for r in part]
        voc = Vocab.build(S.collect_tokens(records))
        unk = voc.index[UNK]
        for rec in records:
            for text in (
                rec["answer"],
                rec["question"],
                *(d["text"] for d in rec["documents"]),
                *(d["title"] for d in rec["documents"]),
            ):
                assert unk not in voc.encode(text.split())

    def test_insufficient_world(self):
        tiny = S.generate_world(1, {"person": 2, "film": 1, "city": 0, "country": 0})
        with pytest.raises(GenerationError, match="grow the world"):
            S.make_splits(tiny, [4], (10, 2, 3), seed=1)

    def test_ids_disjoint(self, world):
        splits = S.make_splits(world, [1, 2], (10, 2, 3), seed=9)
        ids = [r["id"] for part in splits.values() for r in part]
        assert len(ids) == len(set(ids))
