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
        empty = S.generate_world(3, {})
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
        chain = S.enumerate_chains(world, 3)[0]
        parts = S.ChainParts.of(world, chain)
        plain_rng, renamed_rng = np.random.default_rng(0), np.random.default_rng(0)
        rec = S.record_from_chain(world, chain, plain_rng, "x", parts)
        renamed = S.record_from_chain(world, chain, renamed_rng, "x", parts, set())
        # plain_rng now stands where the renaming's draws begin
        new = S.rename_entities(world, chain, parts, plain_rng, set())
        for pool in world.entities.values():
            assert sorted(map(new, pool)) == sorted(pool)
        # same structure, renamed surface
        assert renamed["answer"] == new(rec["answer"])
        assert len(renamed["question"].split()) == len(rec["question"].split())
        # every renamed training record annotates exactly the entities its
        # texts name
        entities = set(world.slots)
        for rec in S.make_splits(world, [1, 2, 3], (20, 2, 4), seed=3)["train"]:
            for d in rec["documents"]:
                named = {t for t in d["text"].split() if t in entities}
                assert d["entities"] == sorted(named) and d["title"] in named

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


# ---------------------------------------------------------------------------
# reference: the data stage as it drew records before they were drawn as
# structure and rendered once.  It re-filled every sentence, rebuilt the
# distractor candidate list after each draw and renamed a training record by
# re-splitting its finished text; make_splits must still equal it record for
# record, with the same rng draws in the same order.


def ref_sentence(fact):
    rel = S.RELATION_BY_NAME[fact.relation]
    return " ".join(S._fill(rel.fact, subj=fact.subj, obj=fact.obj))


def ref_fact_ids(world):
    ids = {}
    for k, f in enumerate(world.facts):
        for e in (f.subj, f.obj):
            ids.setdefault(e, set()).add(k)
    return ids


def ref_distractor_facts(world, ids, candidates, count, rng):
    picked = []
    for _ in range(count):
        if not candidates:
            break
        k = candidates[int(rng.integers(len(candidates)))]
        picked.append(k)
        f = world.facts[k]
        taken = ids[f.subj] | ids[f.obj]
        candidates[:] = [j for j in candidates if j not in taken]
    return picked


def ref_record_from_chain(world, chain, rng, example_id):
    ids = ref_fact_ids(world)
    questions = [" ".join(q) for q in S.chain_questions(chain)]
    taken = set().union(*(ids[e] for e in chain.entities))
    candidates = [k for k in range(len(world.facts)) if k not in taken]
    docs = []
    for t in range(chain.hops):
        n_distract = 1 + int(rng.integers(0, 2))
        distractors = ref_distractor_facts(world, ids, candidates, n_distract, rng)
        if not distractors:
            raise GenerationError(
                "not enough free entities for distractor sentences; "
                "grow the world sizes"
            )
        sentences = [ref_sentence(world.facts[k]) for k in distractors]
        slot = int(rng.integers(len(sentences) + 1))
        sentences.insert(slot, ref_sentence(chain.facts[t]))
        doc_entities = {chain.entities[t], chain.entities[t + 1]}
        doc_entities.update(
            e for k in distractors for e in (world.facts[k].subj, world.facts[k].obj)
        )
        docs.append({
            "title": chain.entities[t + 1],
            "text": " ".join(sentences),
            "is_answer_doc": t == 0,
            "entities": sorted(doc_entities),
        })
    order = rng.permutation(len(docs))
    return {
        "id": example_id,
        "hops": chain.hops,
        "answer": chain.entities[0],
        "question": questions[-1],
        "documents": [docs[int(i)] for i in order],
        "reference_intermediates": questions[:-1],
    }


def ref_rename_record_entities(world, rec, rng):
    flat = {}
    for cat in S.CATEGORIES:
        pool = world.entities[cat]
        flat.update(zip(pool, [pool[j] for j in rng.permutation(len(pool)).tolist()]))

    def m_text(text):
        return " ".join([flat.get(t, t) for t in text.split()])

    out = dict(rec)
    out["answer"] = m_text(rec["answer"])
    out["question"] = m_text(rec["question"])
    out["reference_intermediates"] = [m_text(q) for q in rec["reference_intermediates"]]
    out["documents"] = [
        {
            "title": m_text(d["title"]),
            "text": m_text(d["text"]),
            "is_answer_doc": d["is_answer_doc"],
            "entities": sorted([m_text(e) for e in d["entities"]]),
        }
        for d in rec["documents"]
    ]
    return out


def ref_renamed(world, rec, rng, reserved, attempts):
    """The reference's rename loop; appends how many attempts it took."""
    for n in range(1, 65):
        renamed = ref_rename_record_entities(world, rec, rng)
        if (renamed["answer"], renamed["question"]) not in reserved:
            attempts.append(n)
            return renamed
    raise GenerationError(
        "could not rename a training record away from held-out signatures"
    )


def ref_make_splits(world, hops_list, counts, seed, attempts):
    n_train, n_valid, n_test = counts
    splits = {"train": [], "valid": [], "test": []}
    for hops in hops_list:
        pool = S.enumerate_chains(world, hops)
        rng = np.random.default_rng((seed, hops, 0xC0FFEE))
        rng.shuffle(pool)
        wanted = sum(1 for c in counts if c > 0)
        if len(pool) < max(wanted, 3):
            raise GenerationError(
                f"only {len(pool)} distinct {hops}-hop chains available; "
                f"need at least {max(wanted, 3)}; grow the world sizes"
            )
        n_test_sig = max(1, min(n_test, len(pool) // 5)) if n_test else 0
        n_valid_sig = max(1, min(n_valid, len(pool) // 10)) if n_valid else 0
        chains = {
            "test": pool[:n_test_sig],
            "valid": pool[n_test_sig : n_test_sig + n_valid_sig],
            "train": pool[n_test_sig + n_valid_sig :],
        }
        reserved = {
            (c.entities[0], " ".join(S.chain_questions(c)[-1]))
            for c in (*chains["test"], *chains["valid"])
        }
        for split, want in (("train", n_train), ("valid", n_valid), ("test", n_test)):
            used = chains[split][:want]
            if want and not used:
                raise GenerationError(f"no {hops}-hop chains left for {split}")
            for i in range(want):
                rec = ref_record_from_chain(world, used[i % len(used)], rng,
                                            f"{split}-{hops}hop-{i:05d}")
                if split == "train":
                    rec = ref_renamed(world, rec, rng, reserved, attempts)
                splits[split].append(rec)
    return splits


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the GenerationError it raises."""
    try:
        return fn(*args)
    except GenerationError as exc:
        return repr(exc)


class TestAgainstReference:
    @pytest.mark.parametrize("world_seed, sizes, hops_list, counts, seed", [
        (11, SIZES, [1, 2, 3, 4], (12, 3, 4), 0),
        (11, SIZES, [1, 2, 3, 4], (9, 2, 5), 1),
        (5, SIZES, [2, 4], (7, 0, 3), 2),
        (7, {"person": 30, "film": 24, "city": 15, "country": 15}, [1, 2, 3], (20, 2, 6), 3),
        (2024, {"person": 40, "film": 32, "city": 20, "country": 20}, [3], (10, 1, 4), 2024),
    ])
    def test_make_splits_equals_reference(self, world_seed, sizes, hops_list,
                                          counts, seed):
        world = S.generate_world(world_seed, sizes)
        attempts = []
        want = ref_make_splits(world, hops_list, counts, seed, attempts)
        assert S.make_splits(world, hops_list, counts, seed) == want

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_each_record_and_rng_state_equal_reference(self, world, hops):
        """Record by record, renamed or not, the draws leave the rng where
        the reference leaves it."""
        chains = S.enumerate_chains(world, hops)[:6]
        reserved = {(c.entities[0], " ".join(S.chain_questions(c)[-1]))
                    for c in chains[:2]}
        for j, chain in enumerate(chains):
            parts = S.ChainParts.of(world, chain)
            for rename in (False, True):
                got_rng = np.random.default_rng((hops, j))
                ref_rng = np.random.default_rng((hops, j))
                for i in range(4):
                    got = S.record_from_chain(world, chain, got_rng, f"r{i}", parts,
                                              reserved if rename else None)
                    want = ref_record_from_chain(world, chain, ref_rng, f"r{i}")
                    if rename:
                        want = ref_renamed(world, want, ref_rng, reserved, [])
                    assert got == want
                    assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_tight_world_retries_renames_like_reference(self):
        # so few entities that renamings often land on a held-out pair
        world = S.generate_world(2, {"person": 4, "film": 4, "city": 2, "country": 2})
        attempts = []
        want = outcome(ref_make_splits, world, [1, 2], (30, 2, 3), 0, attempts)
        assert sum(n > 1 for n in attempts) >= 5
        assert outcome(S.make_splits, world, [1, 2], (30, 2, 3), 0) == want

    def test_distractors_running_out_raise_like_reference(self):
        world = S.generate_world(0, {"person": 3, "film": 3, "city": 2, "country": 2})
        want = outcome(ref_make_splits, world, [3], (4, 1, 1), 0, [])
        assert "not enough free entities" in want
        assert outcome(S.make_splits, world, [3], (4, 1, 1), 0) == want
