import numpy as np
import pytest

from qrewrite import vocab as V
from qrewrite.docgraph import (
    Document,
    arrange,
    assemble_step_tokens,
    make_step_inputs,
    parse_step_tokens,
    step_tokens,
)
from qrewrite.errors import ArrangementError, DataFormatError, LengthError


def doc(i, text, answer=False, annotations=(), title="t"):
    return Document(i, title.split(), text.split(), answer, frozenset(annotations))


class TestBridgeEntities:
    """Bridges are the entities a document shares with later ones, read off
    ``arrange``."""

    def test_figure_style_bridge(self):
        texts = ["Interstellar was directed by Christopher Nolan",
                 "Christopher Nolan was born in London"]
        a = doc(0, texts[0], answer=True, annotations=("Christopher Nolan",))
        b = doc(1, texts[1], annotations=("Christopher Nolan",))
        arranged = arrange([a, b], ["Interstellar"])
        assert arranged.bridges == [{"Christopher Nolan"}]
        first = next(step_tokens(arranged))
        assert first[first.index(V.BRIDGE) + 1:first.index(V.DOC)] == ["Christopher", "Nolan"]
        # the same texts unannotated share no entity: capitalized words are
        # no entity of themselves
        with pytest.raises(ArrangementError, match=r"\[1\]"):
            arrange([doc(0, texts[0], answer=True), doc(1, texts[1])], ["Interstellar"])

    def test_disjoint_docs(self):
        docs = [doc(0, "Alpha here", answer=True), doc(1, "Beta there")]
        with pytest.raises(ArrangementError, match=r"\[1\]"):
            arrange(docs, ["a"])

    def test_three_doc_chain(self):
        docs = [
            doc(0, "x", annotations=("e1",)),
            doc(1, "x", annotations=("e1", "e2")),
            doc(2, "x", answer=True, annotations=("e2",)),
        ]
        arr = arrange(docs, ["a"])
        assert [d.doc_id for d in arr.documents] == [2, 1, 0]
        assert arr.bridges == [{"e2"}, {"e1"}]

    def test_symmetry_and_permutation_invariance(self):
        docs = [
            doc(0, "x", answer=True, annotations=("a", "b")),
            doc(1, "x", annotations=("b", "c")),
            doc(2, "x", annotations=("c", "a")),
        ]
        forward = arrange(docs, ["a"])
        backward = arrange(list(reversed(docs)), ["a"])
        assert [d.doc_id for d in forward.documents] == [0, 1, 2]
        assert [d.doc_id for d in backward.documents] == [0, 1, 2]
        assert forward.bridges == backward.bridges == [{"a", "b"}, {"c"}]


class TestArrange:
    def test_annotations_pass_through(self):
        a = doc(0, "person_7 directed film_3 .", answer=True,
                annotations=("person_7", "film_3"), title="")
        b = doc(1, "person_7 met person_9 at film_3 .",
                annotations=("film_3", "person_7", "person_9"), title="")
        arr = arrange([a, b], ["person_7"])
        assert arr.documents[0].annotations == {"person_7", "film_3"}
        assert arr.bridges == [{"person_7", "film_3"}]

    def test_single_document(self):
        arr = arrange([doc(0, "x", answer=True, annotations=("e",))], ["ans"])
        assert [d.doc_id for d in arr.documents] == [0]
        assert arr.bridges == []
        assert arr.hops == 1

    def test_chain_order_and_bridges(self):
        docs = [
            doc(0, "x", answer=True, annotations=("e1",)),
            doc(1, "x", annotations=("e1", "e2")),
            doc(2, "x", annotations=("e2",)),
        ]
        arr = arrange(docs, ["a"])
        assert [d.doc_id for d in arr.documents] == [0, 1, 2]
        assert arr.bridges == [frozenset({"e1"}), frozenset({"e2"})]

    def test_star_tie_break_ascending_id(self):
        docs = [
            doc(1, "x", answer=True, annotations=("s",)),
            doc(7, "x", annotations=("s",)),
            doc(3, "x", annotations=("s",)),
        ]
        arr = arrange(docs, ["a"])
        assert [d.doc_id for d in arr.documents] == [1, 3, 7]

    def test_disconnected_graph_names_unreachable(self):
        docs = [
            doc(0, "x", answer=True, annotations=("e1",)),
            doc(1, "x", annotations=("e1",)),
            doc(2, "x", annotations=("zzz",)),
        ]
        with pytest.raises(ArrangementError, match="2"):
            arrange(docs, ["a"])

    def test_answer_doc_cardinality(self):
        with pytest.raises(ArrangementError):
            arrange([doc(0, "x"), doc(1, "x")], ["a"])
        with pytest.raises(ArrangementError):
            arrange([doc(0, "x", answer=True), doc(1, "x", answer=True)], ["a"])

    def test_bfs_order_is_reconstructible(self):
        # random connected graphs: the produced order must be the BFS order
        # under ascending-id tie-break, rebuilt here independently
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            docs = []
            annos = [set() for _ in range(n)]
            # random spanning tree plus extras
            for i in range(1, n):
                j = int(rng.integers(0, i))
                annos[i].add(f"e{j}_{i}")
                annos[j].add(f"e{j}_{i}")
            for _ in range(int(rng.integers(0, n))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    key = f"x{min(a, b)}_{max(a, b)}"
                    annos[int(a)].add(key)
                    annos[int(b)].add(key)
            docs = [
                doc(i, "x", answer=(i == 0), annotations=tuple(annos[i]))
                for i in range(n)
            ]
            arr = arrange(docs, ["a"])
            adjacent = [[j for j in range(n) if j != i and annos[i] & annos[j]]
                        for i in range(n)]
            order, seen, queue = [], {0}, [0]
            while queue:
                cur = queue.pop(0)
                order.append(cur)
                for nb in adjacent[cur]:
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
            assert [d.doc_id for d in arr.documents] == order
            # every later doc shares an entity with an earlier one
            ents = [d.annotations for d in arr.documents]
            for k in range(1, len(ents)):
                assert any(ents[k] & ents[j] for j in range(k))


class TestAssembly:
    def test_layout_and_roundtrip(self):
        d = doc(0, "person_7 directed film_3 .", title="film_3")
        tokens = assemble_step_tokens(["person_7"], ["film_3", "city_2"], d)
        assert tokens[0] == V.ANS
        assert V.BRIDGE in tokens and V.DOC in tokens
        answer, bridges, title, text = parse_step_tokens(tokens)
        assert answer == ["person_7"]
        assert bridges == ["city_2", "film_3"]  # sorted at assembly
        assert title == ["film_3"]
        assert text == "person_7 directed film_3 .".split()

    def test_final_step_has_no_bridge_token(self):
        tokens = assemble_step_tokens(["a"], None, doc(0, "x y", title="t"))
        assert V.BRIDGE not in tokens
        answer, bridges, title, text = parse_step_tokens(tokens)
        assert bridges is None

    def test_empty_bridge_set(self):
        tokens = assemble_step_tokens(["a"], [], doc(0, "x", title="t"))
        i = tokens.index(V.BRIDGE)
        assert tokens[i + 1] == V.DOC
        _, bridges, _, _ = parse_step_tokens(tokens)
        assert bridges == []

    def test_multiword_entities_roundtrip(self):
        d = doc(0, "some text here", title="page")
        tokens = assemble_step_tokens(
            ["Helen", "Pitts"], ["Frederick Douglass", "Battle of Atlanta"], d
        )
        answer, bridges, title, text = parse_step_tokens(tokens)
        assert answer == ["Helen", "Pitts"]
        assert bridges == ["Battle of Atlanta", "Frederick Douglass"]

    def test_reserved_token_rejected(self):
        with pytest.raises(DataFormatError):
            assemble_step_tokens(["a"], None, doc(0, f"x {V.SEP} y", title="t"))

    def test_make_step_inputs_length_guard(self):
        from qrewrite.docgraph import ArrangedExample

        voc = V.Vocab.build(["a", "x", "t"])
        d = doc(0, "x " * 40, answer=True, title="t")
        ex = ArrangedExample(["a"], [d], [], ["q"], 1)
        with pytest.raises(LengthError):
            make_step_inputs(ex, voc, max_len=16)

    def test_make_step_inputs_shapes(self):
        from qrewrite.docgraph import ArrangedExample

        voc = V.Vocab.build("a x t e q".split())
        docs = [
            doc(0, "x e", answer=True, title="t"),
            doc(1, "e x", title="t"),
        ]
        ex = ArrangedExample(["a"], docs, [frozenset({"e"})], ["q"], 2)
        steps = make_step_inputs(ex, voc, max_len=32)
        assert len(steps) == 2
        assert steps[0].step_index == 1
        bridge_id = voc.index[V.BRIDGE]
        assert bridge_id in steps[0].tokens
        assert bridge_id not in steps[1].tokens
