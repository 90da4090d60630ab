"""Breadth-first arrangement of an example's documents and step assembly.

A document's entities are its record's ``entities`` annotations, nothing
more: two documents are linked when they share one.  ``arrange`` orders an
example's documents breadth-first from the answer document, stepping from a
document to every other one that shares an entity with it; no graph object
is built.  Each step input is laid out as

    <ans> answer <bridge> e1 <sep> e2 ... <doc> title <sep> text

with the <bridge> section omitted at the final step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import vocab as V
from .errors import ArrangementError, DataFormatError, LengthError
from .model import StepInput


@dataclass
class Document:
    doc_id: int
    title: list[str]
    text: list[str]
    is_answer_doc: bool = False
    annotations: frozenset[str] = frozenset()


@dataclass
class ArrangedExample:
    answer: list[str]
    documents: list[Document]          # C_1..C_N, C_1 holds the answer
    bridges: list[frozenset[str]]      # B_1..B_{N-1}
    gold_question: list[str]
    hops: int
    example_id: str = ""
    reference_intermediates: list[list[str]] = field(default_factory=list)


def arrange(docs: Sequence[Document], answer: Sequence[str]) -> ArrangedExample:
    """Order documents by BFS from the answer document and attach bridges.

    A document's entities are its ``annotations``.  Its neighbors, the
    documents sharing an entity with it, are visited in ascending document
    id.  B_t collects the entities of C_t shared with any later document.
    Raises ``ArrangementError`` naming the documents that no chain of
    neighbors reaches from the answer document, and for zero or multiple
    answer documents.
    """
    answer_docs = [d for d in docs if d.is_answer_doc]
    if len(answer_docs) != 1:
        raise ArrangementError(
            f"expected exactly one answer document, found {len(answer_docs)}"
        )
    ents = {d.doc_id: d.annotations for d in docs}
    ids = sorted(ents)
    by_id = {d.doc_id: d for d in docs}
    root = answer_docs[0].doc_id

    order: list[int] = []
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        order.append(node)
        for nb in ids:
            if nb not in seen and ents[node] & ents[nb]:
                seen.add(nb)
                queue.append(nb)
    if len(order) != len(docs):
        missing = sorted(set(by_id) - seen)
        raise ArrangementError(f"documents unreachable from the answer: {missing}")

    bridges: list[frozenset[str]] = []
    for t, doc_id in enumerate(order[:-1]):
        later = order[t + 1 :]
        shared = frozenset(
            e for e in ents[doc_id] if any(e in ents[s] for s in later)
        )
        bridges.append(shared)

    return ArrangedExample(
        answer=list(answer),
        documents=[by_id[i] for i in order],
        bridges=bridges,
        gold_question=[],
        hops=len(order),
    )


def assemble_step_tokens(
    answer: Sequence[str],
    bridge: Iterable[str] | None,
    doc: Document,
) -> list[str]:
    """Lay out one step input; ``bridge=None`` marks the final step."""
    entity_tokens = [] if bridge is None else [t for e in sorted(bridge) for t in e.split()]
    for tok in (*answer, *entity_tokens, *doc.title, *doc.text):
        if tok in V.SPECIAL_TOKENS:
            raise DataFormatError(f"reserved token {tok!r} inside step content")
    parts = [V.ANS, *answer]
    if bridge is not None:
        parts.append(V.BRIDGE)
        for i, entity in enumerate(sorted(bridge)):
            if i:
                parts.append(V.SEP)
            parts.extend(entity.split())
    parts.append(V.DOC)
    parts.extend(doc.title)
    parts.append(V.SEP)
    parts.extend(doc.text)
    return parts


def parse_step_tokens(tokens: Sequence[str]):
    """Inverse of ``assemble_step_tokens``.

    Returns (answer, bridges or None, title, text); used to verify the
    layout is lossless.
    """
    if not tokens or tokens[0] != V.ANS:
        raise DataFormatError("step input must start with <ans>")
    rest = list(tokens[1:])

    def take_until(seq, stops):
        for i, tok in enumerate(seq):
            if tok in stops:
                return seq[:i], seq[i:]
        return seq, []

    answer, rest = take_until(rest, {V.BRIDGE, V.DOC})
    bridges: list[str] | None = None
    if rest and rest[0] == V.BRIDGE:
        section, rest = take_until(rest[1:], {V.DOC})
        bridges = []
        current: list[str] = []
        for tok in section:
            if tok == V.SEP:
                bridges.append(" ".join(current))
                current = []
            else:
                current.append(tok)
        if current:
            bridges.append(" ".join(current))
    if not rest or rest[0] != V.DOC:
        raise DataFormatError("step input missing <doc> section")
    body = rest[1:]
    title, tail = take_until(body, {V.SEP})
    text = tail[1:] if tail else []
    return list(answer), bridges, list(title), list(text)


def step_tokens(example: ArrangedExample) -> Iterator[list[str]]:
    """Each step's assembled tokens, in step order: every step but the final
    one names its bridge entities."""
    n = example.hops
    for t in range(n):
        bridge = sorted(example.bridges[t]) if t < n - 1 else None
        yield assemble_step_tokens(example.answer, bridge, example.documents[t])


def make_step_inputs(
    example: ArrangedExample, vocabulary: V.Vocab, max_len: int
) -> list[StepInput]:
    """Assemble and encode all N step inputs for one arranged example."""
    steps = []
    for t, tokens in enumerate(step_tokens(example)):
        if len(tokens) > max_len:
            raise LengthError(
                f"assembled step {t + 1} has {len(tokens)} tokens > max_len={max_len}"
            )
        steps.append(StepInput(vocabulary.encode(tokens), t + 1))
    return steps
