import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import build_graph, random_graph
from tuple_list_graph import TupleListGraph
from kgembed.graph import GraphFrozenError, KnowledgeGraph, UnknownNodeError
from kgembed.graph_io import Triple


A, B, C = "http://ex/a", "http://ex/b", "http://ex/c"
P, Q = "http://ex/p", "http://ex/q"


class TestAdjacency:
    def test_out_edges_in_insertion_order(self):
        g = build_graph([(A, P, B), (A, Q, C)])
        pairs = [(g.resolve(p), g.resolve(o)) for p, o in g.out_edges(g.lookup(A))]
        assert pairs == [(P, B), (Q, C)]

    def test_sink_has_no_out_edges(self):
        g = build_graph([(A, P, B)])
        assert g.out_edges(g.lookup(B)) == []

    def test_duplicate_triple_leaves_adjacency_unchanged(self):
        g = KnowledgeGraph()
        g.add_triple(A, P, B)
        g.add_triple(A, P, B)
        assert g.out_edges(g.lookup(A)) == [(g.lookup(P), g.lookup(B))]
        assert g.in_edges(g.lookup(B)) == [(g.lookup(A), g.lookup(P))]
        assert g.num_edges == 1
        assert list(g.triples()) == [(0, 1, 2)]

    def test_in_edges(self):
        g = build_graph([(A, P, B)])
        assert [(g.resolve(s), g.resolve(p)) for s, p in g.in_edges(g.lookup(B))] == [(A, P)]
        assert g.in_edges(g.lookup(A)) == []

    def test_fan_in(self):
        g = build_graph([(A, P, B), (C, P, B)])
        assert len(g.in_edges(g.lookup(B))) == 2

    def test_degree(self):
        g = build_graph([(f"http://ex/s{i}", P, A) for i in range(5)] + [(A, P, B), (A, Q, C)])
        assert g.degree(g.lookup(A)) == (5, 2)

    def test_isolated_node_degree(self):
        g = build_graph([], extra_nodes=["http://ex/x"])
        assert g.degree(g.lookup("http://ex/x")) == (0, 0)

    def test_handshake_identity(self):
        g = random_graph(seed=11, n_nodes=40, n_edges=120)
        assert sum(len(g.out_edges(v)) for v in range(g.num_tokens)) == g.num_edges

    def test_adjacency_mirror_invariant(self):
        g = random_graph(seed=5, n_nodes=30, n_edges=90)
        for s, p, o in g.triples():
            if g.is_literal_id(o):
                continue
            assert o in {t for _, t in g.out_edges(s)}
            assert s in {x for x, _ in g.in_edges(o)}
        for v in range(g.num_tokens):
            for s, p in g.in_edges(v):
                assert (p, v) in g.out_edges(s)


class TestInterner:
    def test_round_trip(self):
        tokens = [A, B, P, '"lit with space"@en', "_:b1"]
        g = KnowledgeGraph()
        ids = {}
        for t in tokens[:2]:
            ids[t] = g.add_node(t)
        g.add_triple(A, P, '"lit with space"@en')
        g.add_triple("_:b1", P, B)
        for t in tokens:
            assert g.resolve(g.lookup(t)) == t

    def test_ids_stable_and_dense(self):
        g = build_graph([(A, P, B), (A, Q, C)])
        assert sorted({g.lookup(t) for t in (A, P, B, Q, C)}) == list(range(5))

    def test_unknown_token_and_id(self):
        g = build_graph([(A, P, B)])
        with pytest.raises(UnknownNodeError):
            g.lookup("http://ex/nope")
        with pytest.raises(UnknownNodeError):
            g.out_edges(999)
        with pytest.raises(UnknownNodeError):
            g.resolve(-1)


class TestLiterals:
    LIT = '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_literal_is_not_a_node_and_has_no_in_adjacency(self):
        g = build_graph([(A, P, self.LIT)])
        lid = g.lookup(self.LIT)
        assert g.is_literal_id(lid)
        assert not g.is_node(lid)
        assert g.in_edges(lid) == []
        assert g.num_nodes == 1  # only the subject

    def test_literal_edge_counts_in_out_adjacency(self):
        g = build_graph([(A, P, self.LIT)])
        assert g.num_edges == 1
        assert len(g.out_edges(g.lookup(A))) == 1

    def test_literal_subject_and_predicate_rejected(self):
        g = KnowledgeGraph()
        with pytest.raises(ValueError):
            g.add_triple(self.LIT, P, B)
        with pytest.raises(ValueError):
            g.add_triple(A, self.LIT, B)


class TestAddAll:
    def test_frozen(self):
        g = build_graph([(A, P, B)])
        with pytest.raises(GraphFrozenError):
            g.add_all([Triple(A, P, B)])


class TestLifecycle:
    def test_freeze_blocks_mutation(self):
        g = build_graph([(A, P, B)])
        with pytest.raises(GraphFrozenError):
            g.add_triple(A, P, C)

    def test_predicate_not_counted_as_node(self):
        g = build_graph([(A, P, B)])
        assert g.num_nodes == 2
        assert not g.is_node(g.lookup(P))

    def test_rebuild_from_edge_dump(self):
        g = random_graph(seed=9, n_nodes=25, n_edges=70)
        rebuilt = KnowledgeGraph()
        dump = list(g.resolved_triples())
        rebuilt.add_all(dump + dump[::2])  # the repeats are dropped at freeze
        assert rebuilt.num_nodes == g.num_nodes
        assert rebuilt.num_edges == g.num_edges
        for v in range(rebuilt.num_tokens):
            token = rebuilt.resolve(v)
            resolved_out = sorted(
                (rebuilt.resolve(p), rebuilt.resolve(o)) for p, o in rebuilt.out_edges(v)
            )
            original_out = sorted(
                (g.resolve(p), g.resolve(o)) for p, o in g.out_edges(g.lookup(token))
            )
            assert resolved_out == original_out

    def test_subject_ids(self):
        g = build_graph([(A, P, B), (B, P, C)])
        assert [g.resolve(i) for i in g.subject_ids()] == [A, B]

    def test_empty_graph_freezes(self):
        g = KnowledgeGraph().freeze()
        assert (g.num_tokens, g.num_nodes, g.num_edges) == (0, 0, 0)
        assert list(g.triples()) == list(g.nodes()) == g.subject_ids() == []
        assert g.adjacency().out.offsets.tolist() == [0]

    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda g: g.num_nodes, id="num_nodes"),
            pytest.param(lambda g: g.num_edges, id="num_edges"),
            pytest.param(lambda g: g.is_node(0), id="is_node"),
            pytest.param(lambda g: list(g.nodes()), id="nodes"),
            pytest.param(lambda g: list(g.triples()), id="triples"),
            pytest.param(lambda g: list(g.resolved_triples()), id="resolved_triples"),
            pytest.param(lambda g: g.adjacency(), id="adjacency"),
            pytest.param(lambda g: g.out_edges(0), id="out_edges"),
            pytest.param(lambda g: g.in_edges(0), id="in_edges"),
            pytest.param(lambda g: g.degree(0), id="degree"),
            pytest.param(lambda g: g.subject_ids(), id="subject_ids"),
        ],
    )
    def test_first_read_freezes(self, read):
        g = KnowledgeGraph()
        g.add_triple(A, P, B)
        g.add_triple(A, P, B)
        read(g)
        assert g.num_edges == 1
        with pytest.raises(GraphFrozenError):
            g.add_triple(A, P, C)
        with pytest.raises(GraphFrozenError):
            g.add_all([Triple(A, P, B)])
        with pytest.raises(GraphFrozenError):
            g.add_node(P)  # known token: it must not become a node either
        assert not g.is_node(g.lookup(P))

    def test_interner_reads_do_not_freeze(self):
        g = KnowledgeGraph()
        g.add_triple(A, P, B)
        assert (g.lookup(B), g.resolve(0), g.num_tokens, g.is_literal_id(2)) == (2, A, 3, False)
        g.add_triple(B, P, C)
        assert g.num_edges == 2


def _observe(g):
    """Everything the public interface tells about a graph, per id."""
    n = g.num_tokens
    return (
        [g.resolve(i) for i in range(n)],
        [g.lookup(g.resolve(i)) for i in range(n)],
        [(g.is_node(i), g.is_literal_id(i), g.out_edges(i), g.in_edges(i), g.degree(i)) for i in range(n)],
        (g.num_nodes, g.num_edges, n),
        list(g.nodes()),
        g.subject_ids(),
        list(g.triples()),
    )


def _apply(g, op):
    """Run one construction step; ``intern`` and ``add_node`` return the id,
    and a ValueError is part of the result."""
    kind, arg = op
    try:
        if kind == "intern":
            return g.intern(arg)
        if kind == "node":
            return g.add_node(arg)
        if kind == "triple":
            g.add_triple(*arg)
        else:
            g.add_all(Triple(*t) for t in arg)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return None


def _same_after_freeze(steps):
    """Run the steps on both graphs, then freeze both and compare."""
    g, ref = KnowledgeGraph(), TupleListGraph()
    for step in steps:
        assert _apply(g, step) == _apply(ref, step)
    g.freeze()
    ref.freeze()
    assert _observe(g) == _observe(ref)
    return g


# self-loops and duplicates come from the small token set; literals reach
# every position, so some steps raise
_GRAPH_TOKENS = st.sampled_from([A, B, C, P, A, B, C, P, "_:x", TestLiterals.LIT, '"x"@en'])
_TRIPLE = st.tuples(_GRAPH_TOKENS, _GRAPH_TOKENS, _GRAPH_TOKENS)
_STEP = st.one_of(
    st.tuples(st.just("intern"), _GRAPH_TOKENS),
    st.tuples(st.just("node"), _GRAPH_TOKENS),
    st.tuples(st.just("triple"), _TRIPLE),
    st.tuples(st.just("all"), st.lists(_TRIPLE, max_size=12)),
)
# IRIs only in subject and predicate position, so no add_all call stops
# early and every repeat reaches the columns
_IRI = st.sampled_from([A, B, C, P, "_:x"])
_VALID_TRIPLE = st.tuples(_IRI, _IRI, st.sampled_from([A, B, C, "_:x", TestLiterals.LIT, '"x"@en']))


class TestAgainstTupleListGraph:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_STEP, max_size=8))
    def test_same_graph_after_freeze(self, steps):
        """The two-state graph against the tuple-list one that drops
        duplicates as it goes: the same ids and errors per step,
        and after ``freeze`` the same ids, flags, counts, rows and triples."""
        g = _same_after_freeze(steps)
        with pytest.raises(GraphFrozenError):
            g.add_triple(A, P, "http://ex/new")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_VALID_TRIPLE, min_size=1, max_size=8),
        st.lists(st.integers(0, 7), max_size=40),
        st.lists(st.integers(0, 40), max_size=4),
        st.lists(_GRAPH_TOKENS, max_size=3),
        st.lists(_TRIPLE, max_size=3),
    )
    def test_heavy_duplication_over_several_add_all_calls(self, distinct, picks, cuts, nodes, tail):
        """Few distinct statements, each repeated many times, split over
        several ``add_all`` calls with ``add_node`` steps between them and a
        last call that may raise: freeze keeps the first of each statement
        in insertion order."""
        triples = [distinct[i % len(distinct)] for i in picks]
        bounds = [0, *sorted(cuts), len(triples)]
        steps = []
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            steps.append(("all", triples[a:b]))
            if k < len(nodes):
                steps.append(("node", nodes[k]))
        steps.append(("all", tail))
        g = _same_after_freeze(steps)
        first_seen = list(dict.fromkeys(triples))
        assert list(g.resolved_triples())[: len(first_seen)] == first_seen
