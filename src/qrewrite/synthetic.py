"""Deterministic generator of compositional multi-hop QG examples.

A world is a set of single-token entities plus relation instances sampled as
partial one-to-one matchings between category pools, so that every
descriptor phrase ("the director of film_3") identifies exactly one entity.
A chain of facts e_0 - f_1 - e_1 - ... - f_N - e_N yields one document per
fact; the 1-hop question asks for e_0 and each later fact rewrites the
previous question by replacing an entity mention with a descriptor.  The
gold N-hop question is therefore machine-reducible back to the answer.

Reference intermediate questions are emitted in a separate record field for
evaluation only; the trainer never reads them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import GenerationError

CATEGORIES = ("person", "film", "city", "country")


@dataclass(frozen=True)
class Relation:
    name: str
    subj_cat: str
    obj_cat: str
    fact: tuple[str, ...]       # sentence template, {subj}/{obj} placeholders
    question: tuple[str, ...]   # asks for the subject given the object
    subj_desc: tuple[str, ...]  # describes the subject via the object
    obj_desc: tuple[str, ...]   # describes the object via the subject


RELATIONS: tuple[Relation, ...] = (
    Relation(
        "directed_by", "person", "film",
        fact=("{subj}", "directed", "{obj}", "."),
        question=("who", "directed", "{obj}", "?"),
        subj_desc=("the", "director", "of", "{obj}"),
        obj_desc=("the", "film", "directed", "by", "{subj}"),
    ),
    Relation(
        "starred_in", "person", "film",
        fact=("{subj}", "starred", "in", "{obj}", "."),
        question=("who", "starred", "in", "{obj}", "?"),
        subj_desc=("the", "star", "of", "{obj}"),
        obj_desc=("the", "film", "starring", "{subj}"),
    ),
    Relation(
        "born_in", "person", "city",
        fact=("{subj}", "was", "born", "in", "{obj}", "."),
        question=("who", "was", "born", "in", "{obj}", "?"),
        subj_desc=("the", "person", "born", "in", "{obj}"),
        obj_desc=("the", "birthplace", "of", "{subj}"),
    ),
    Relation(
        "located_in", "city", "country",
        fact=("{subj}", "is", "located", "in", "{obj}", "."),
        question=("what", "city", "is", "located", "in", "{obj}", "?"),
        subj_desc=("the", "city", "located", "in", "{obj}"),
        obj_desc=("the", "country", "containing", "{subj}"),
    ),
)

RELATION_BY_NAME = {r.name: r for r in RELATIONS}

MAX_HOPS = 4


@dataclass(frozen=True)
class Fact:
    relation: str
    subj: str
    obj: str

    def other(self, entity: str) -> str:
        return self.obj if entity == self.subj else self.subj


@dataclass
class World:
    entities: dict[str, list[str]]   # category -> tokens
    facts: list[Fact]

    def facts_of(self, entity: str) -> list[Fact]:
        return self._by_entity.get(entity, [])

    def fact_ids_of(self, entity: str) -> frozenset[int]:
        """Positions in ``facts`` of the facts that name ``entity``."""
        return self._ids_by_entity.get(entity, frozenset())

    def finalize(self) -> "World":
        self._by_entity: dict[str, list[Fact]] = {}
        ids: dict[str, set[int]] = {}
        for k, f in enumerate(self.facts):
            for e in (f.subj, f.obj):
                self._by_entity.setdefault(e, []).append(f)
                ids.setdefault(e, set()).add(k)
        self._ids_by_entity = {e: frozenset(s) for e, s in ids.items()}
        # clashes[k]: positions, ascending, of the facts sharing an entity
        # with facts[k] (itself included)
        self.clashes = [sorted(ids[f.subj] | ids[f.obj]) for f in self.facts]
        # slots[e]: e's category (its index in CATEGORIES) and pool index
        self.slots = {e: (c, i) for c, cat in enumerate(CATEGORIES)
                      for i, e in enumerate(self.entities[cat])}
        return self


@dataclass(frozen=True)
class Chain:
    facts: tuple[Fact, ...]       # f_1..f_N
    entities: tuple[str, ...]     # e_0..e_N, e_0 is the answer

    @property
    def hops(self) -> int:
        return len(self.facts)


def generate_world(seed: int, sizes: Mapping[str, int]) -> World:
    """Entity pools plus one partial matching per relation type.

    ``sizes`` gives each category's entity count; a category it omits has
    none.  Matchings keep every descriptor direction unique: an entity fills
    each (relation, role) slot at most once.
    """
    rng = np.random.default_rng(seed)
    entities = {
        cat: [f"{cat}_{i}" for i in range(int(sizes.get(cat, 0)))]
        for cat in CATEGORIES
    }
    facts: list[Fact] = []
    for rel in RELATIONS:
        subjects = list(entities[rel.subj_cat])
        objects = list(entities[rel.obj_cat])
        k = min(len(subjects), len(objects))
        if k == 0:
            continue
        subj_pick = rng.permutation(len(subjects))[:k]
        obj_pick = rng.permutation(len(objects))[:k]
        for si, oi in zip(subj_pick, obj_pick):
            facts.append(Fact(rel.name, subjects[int(si)], objects[int(oi)]))
    return World(entities, facts).finalize()


# ---------------------------------------------------------------------------
# chains and questions


def _extensions(world: World, entity: str, ents: list[str]) -> list[Fact]:
    """Facts that can describe ``entity`` via a neighbor not in ``ents``.  A
    chain's facts join two of its entities, so none of them is offered."""
    return [f for f in world.facts_of(entity) if f.other(entity) not in ents]


def enumerate_chains(world: World, hops: int) -> list[Chain]:
    """All valid chains of the requested length, deduplicated by their
    entity signature, in deterministic order."""
    if not 1 <= hops <= MAX_HOPS:
        raise GenerationError(f"hops must be in 1..{MAX_HOPS}, got {hops}")
    chains: list[Chain] = []
    seen: set[tuple[str, ...]] = set()

    def extend(facts: list[Fact], ents: list[str]):
        if len(facts) == hops:
            signature = tuple(ents)
            if signature not in seen:
                seen.add(signature)
                chains.append(Chain(tuple(facts), signature))
            return
        tip = ents[-1]
        for f in _extensions(world, tip, ents):
            extend([*facts, f], [*ents, f.other(tip)])

    for f1 in world.facts:
        extend([f1], [f1.subj, f1.obj])
    return chains


def _fill(template: Sequence[str], subj: str | None = None, obj: str | None = None):
    out = []
    for tok in template:
        if tok == "{subj}":
            out.append(subj)
        elif tok == "{obj}":
            out.append(obj)
        else:
            out.append(tok)
    return out


def descriptor_tokens(fact: Fact, described: str) -> list[str]:
    """The phrase that uniquely identifies ``described`` using the fact's
    other entity."""
    rel = RELATION_BY_NAME[fact.relation]
    if described == fact.subj:
        return _fill(rel.subj_desc, obj=fact.obj)
    if described == fact.obj:
        return _fill(rel.obj_desc, subj=fact.subj)
    raise GenerationError(f"{described} is not part of {fact}")


# each relation's fact sentence as a format string over (subject, object)
SENTENCE_FORMATS = {r.name: " ".join(_fill(r.fact, "{0}", "{1}")) for r in RELATIONS}


def chain_questions(chain: Chain) -> list[list[str]]:
    """Q^1..Q^N by iterated descriptor substitution."""
    rel1 = RELATION_BY_NAME[chain.facts[0].relation]
    questions = [_fill(rel1.question, obj=chain.entities[1])]
    for t in range(1, chain.hops):
        prev = questions[-1]
        target = chain.entities[t]
        hits = [i for i, tok in enumerate(prev) if tok == target]
        if len(hits) != 1:
            raise GenerationError(
                f"entity {target} occurs {len(hits)} times in {' '.join(prev)}"
            )
        desc = descriptor_tokens(chain.facts[t], target)
        i = hits[0]
        questions.append([*prev[:i], *desc, *prev[i + 1 :]])
    return questions


def sample_chain(world: World, hops: int, rng: np.random.Generator) -> Chain:
    for _ in range(200):
        if not world.facts:
            break
        f1 = world.facts[int(rng.integers(len(world.facts)))]
        facts, ents = [f1], [f1.subj, f1.obj]
        ok = True
        while len(facts) < hops:
            options = _extensions(world, ents[-1], ents)
            if not options:
                ok = False
                break
            f = options[int(rng.integers(len(options)))]
            ents.append(f.other(ents[-1]))
            facts.append(f)
        if ok:
            return Chain(tuple(facts), tuple(ents))
    raise GenerationError(
        f"no {hops}-hop chain found; the world is too small or too sparse"
    )


# ---------------------------------------------------------------------------
# records


def _distractor_facts(
    world: World, candidates: list[int], count: int, rng: np.random.Generator
) -> list[int]:
    """Draw up to ``count`` facts from ``candidates`` (positions in
    ``world.facts``, ascending) and return their positions; after each draw,
    delete from ``candidates`` every fact that shares an entity with it."""
    picked: list[int] = []
    for _ in range(count):
        if not candidates:
            break
        k = candidates[int(rng.integers(len(candidates)))]
        picked.append(k)
        for j in world.clashes[k]:
            i = bisect_left(candidates, j)
            if i < len(candidates) and candidates[i] == j:
                del candidates[i]
    return picked


@dataclass(frozen=True)
class ChainParts:
    """What every record of one chain shares."""

    questions: tuple[str, ...]  # Q^1..Q^N, format strings over chain.entities
    free: tuple[int, ...]       # distractor candidates: positions in world.facts
                                # of the facts naming no chain entity

    @classmethod
    def of(cls, world: World, chain: Chain) -> "ChainParts":
        slot = {e: f"{{{j}}}" for j, e in enumerate(chain.entities)}
        taken = frozenset().union(*map(world.fact_ids_of, chain.entities))
        return cls(
            tuple(" ".join([slot.get(tok, tok) for tok in q])
                  for q in chain_questions(chain)),
            tuple([k for k in range(len(world.facts)) if k not in taken]),
        )


def rename_entities(
    world: World, chain: Chain, parts: ChainParts, rng: np.random.Generator,
    reserved: set[tuple[str, str]],
) -> Callable[[str], str]:
    """A bijective renaming of the world's entities within their category
    pools under which the chain's (answer, question) pair is not in
    ``reserved``.  Each attempt draws one permutation per pool; the map is
    applied only to the entities asked for."""
    pools = [world.entities[cat] for cat in CATEGORIES]
    slots = world.slots
    for _ in range(64):
        perms = [rng.permutation(len(pool)).tolist() for pool in pools]

        def new(e: str) -> str:
            c, i = slots[e]
            return pools[c][perms[c][i]]

        ents = [new(e) for e in chain.entities]
        if (ents[0], parts.questions[-1].format(*ents)) not in reserved:
            return new
    raise GenerationError(
        "could not rename a training record away from held-out signatures"
    )


def record_from_chain(
    world: World, chain: Chain, rng: np.random.Generator, example_id: str,
    parts: ChainParts, reserved: set[tuple[str, str]] | None = None,
) -> dict:
    """One dataset record: shuffled documents with entity annotations, the
    gold final question, and reference intermediates (evaluation only).
    ``parts`` is ``ChainParts.of(world, chain)``.  A training record passes
    the held-out (answer, question) pairs as ``reserved`` and is renamed by
    ``rename_entities``, so it describes a different, equally valid world."""
    # first the record as structure, each document's facts in sentence
    # order; distractors name no chain entity and no entity of another
    # distractor
    candidates = list(parts.free)
    docs = []
    for t in range(chain.hops):
        n_distract = 1 + int(rng.integers(0, 2))
        facts = [world.facts[k]
                 for k in _distractor_facts(world, candidates, n_distract, rng)]
        if not facts:
            raise GenerationError(
                "not enough free entities for distractor sentences; "
                "grow the world sizes"
            )
        facts.insert(int(rng.integers(len(facts) + 1)), chain.facts[t])
        docs.append(facts)
    order = rng.permutation(len(docs)).tolist()
    # then its text, once, through the names of the entities it mentions
    named = {e for facts in docs for f in facts for e in (f.subj, f.obj)}
    if reserved is None:
        name = dict(zip(named, named))
    else:
        new = rename_entities(world, chain, parts, rng, reserved)
        name = {e: new(e) for e in named}
    ents = [name[e] for e in chain.entities]
    questions = [q.format(*ents) for q in parts.questions]
    return {
        "id": example_id,
        "hops": chain.hops,
        "answer": ents[0],
        "question": questions[-1],
        "documents": [
            {
                "title": ents[t + 1],
                "text": " ".join([SENTENCE_FORMATS[f.relation].format(
                    name[f.subj], name[f.obj]) for f in docs[t]]),
                "is_answer_doc": t == 0,
                "entities": sorted({name[e] for f in docs[t] for e in (f.subj, f.obj)}),
            }
            for t in order
        ],
        "reference_intermediates": questions[:-1],
    }


def generate_example(world: World, hops: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    chain = sample_chain(world, hops, rng)
    return record_from_chain(
        world, chain, rng, f"ex-{hops}hop-{seed}", ChainParts.of(world, chain)
    )


def make_splits(
    world: World,
    hops_list: Sequence[int],
    counts: tuple[int, int, int],
    seed: int,
) -> dict[str, list[dict]]:
    """Train/validation/test records with disjoint chain signatures.

    Chain signatures are partitioned across splits (test and validation
    signatures never occur in train); records within a split may revisit a
    signature with fresh distractors and document order when more examples
    than signatures are requested.  Every training record additionally
    gets a category-preserving entity renaming, so the entity combinations
    seen in training churn while validation and test keep the fixed world;
    renamings that would collide with a held-out signature are rejected.
    """
    n_train, n_valid, n_test = counts
    if min(counts) < 0 or max(counts) == 0:
        raise GenerationError(f"bad split counts {counts}")
    splits: dict[str, list[dict]] = {"train": [], "valid": [], "test": []}
    for hops in hops_list:
        pool = enumerate_chains(world, hops)
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
        # a renamed world can express the same surface question through a
        # different entity chain, so reserve the observable pair
        reserved = {
            (c.entities[0], " ".join(chain_questions(c)[-1]))
            for c in (*chains["test"], *chains["valid"])
        }
        for split, want in (("train", n_train), ("valid", n_valid), ("test", n_test)):
            # the chains this split's records cycle through, each with the
            # parts its records share
            used = chains[split][:want]
            if want and not used:
                raise GenerationError(f"no {hops}-hop chains left for {split}")
            parts = [ChainParts.of(world, c) for c in used]
            for i in range(want):
                k = i % len(used)
                splits[split].append(record_from_chain(
                    world, used[k], rng, f"{split}-{hops}hop-{i:05d}", parts[k],
                    reserved if split == "train" else None,
                ))
    return splits


def collect_tokens(records: Sequence[dict]) -> set[str]:
    """Every token that appears anywhere in the given records."""
    tokens: set[str] = set()
    for rec in records:
        tokens.update(rec["answer"].split())
        tokens.update(rec["question"].split())
        for doc in rec["documents"]:
            tokens.update(doc["title"].split())
            tokens.update(doc["text"].split())
            for e in doc["entities"]:
                tokens.update(e.split())
        for q in rec.get("reference_intermediates", []):
            tokens.update(q.split())
    return tokens


# ---------------------------------------------------------------------------
# reduction oracle


def _find_subsequence(haystack: Sequence[str], needle: Sequence[str]) -> list[int]:
    hits = []
    n = len(needle)
    for i in range(len(haystack) - n + 1):
        if list(haystack[i : i + n]) == list(needle):
            hits.append(i)
    return hits


def parse_facts(record: dict) -> list[Fact]:
    """Recover the fact list from a record's document sentences by inverting
    the sentence templates.  Works on renamed records too, which carry
    their own self-consistent facts."""
    facts: list[Fact] = []
    for doc in record["documents"]:
        tokens = doc["text"].split()
        sentence: list[str] = []
        for tok in tokens:
            sentence.append(tok)
            if tok != ".":
                continue
            for rel in RELATIONS:
                if len(rel.fact) != len(sentence):
                    continue
                subj = obj = None
                for pat, got in zip(rel.fact, sentence):
                    if pat == "{subj}":
                        subj = got
                    elif pat == "{obj}":
                        obj = got
                    elif pat != got:
                        break
                else:
                    facts.append(Fact(rel.name, subj, obj))
                    break
            sentence = []
    return facts


def reduce_question(
    facts: Sequence[Fact], question: Sequence[str]
) -> tuple[str, list[list[str]]]:
    """Resolve a generated question back to its answer using only a fact
    table: repeatedly replace the innermost instantiated descriptor with the
    entity it identifies, then answer the remaining 1-hop question.

    Returns (answer, trail of progressively simpler questions).
    """
    q = list(question)
    trail = [list(q)]
    for _ in range(MAX_HOPS + 1):
        for rel in RELATIONS:
            for fact in facts:
                if fact.relation != rel.name:
                    continue
                filled = _fill(rel.question, obj=fact.obj)
                if q == filled:
                    trail.append([fact.subj])
                    return fact.subj, trail
        matches = []
        for fact in facts:
            for described in (fact.subj, fact.obj):
                desc = descriptor_tokens(fact, described)
                for pos in _find_subsequence(q, desc):
                    matches.append((pos, desc, described))
        if not matches:
            raise GenerationError(f"cannot reduce question: {' '.join(q)}")
        if len({(pos, tuple(desc)) for pos, desc, _ in matches}) != 1:
            raise GenerationError(
                f"ambiguous reduction of {' '.join(q)}: {matches}"
            )
        pos, desc, described = matches[0]
        q = [*q[:pos], described, *q[pos + len(desc) :]]
        trail.append(list(q))
    raise GenerationError("reduction did not terminate")
