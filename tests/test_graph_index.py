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
        assert g.add_triple(A, P, B) is True
        assert g.add_triple(A, P, B) is False
        assert len(g.out_edges(g.lookup(A))) == 1
        assert g.num_edges == 1

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


def _state(g: KnowledgeGraph):
    # the node count is _node.count(1), and adjacency() holds every CSR row
    return (g._tokens, g._index, g._literal, g._node, g._s, g._p, g._o, g._seen, g.adjacency())


# mostly IRIs, so that most lists get past the first literal subject or predicate
_TOKENS = st.sampled_from([A, B, C, P, Q, A, B, C, P, Q, "_:x", TestLiterals.LIT, '"x"@en'])


class TestAddAll:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_TOKENS, _TOKENS, _TOKENS), max_size=25),
        st.lists(_TOKENS, max_size=3),
        st.integers(0, 25),
    )
    def test_matches_add_one_at_a_time(self, triples, preloaded, cut):
        """``add_all`` against the ``add`` loop it replaced, over two calls:
        same ids, adjacency, node flags, stored triples, counts and
        ValueError."""
        graphs, results = [], []
        for bulk in (False, True):
            g = KnowledgeGraph()
            for token in preloaded:
                g.intern(token)
            result = []
            try:
                for part in (triples[:cut], triples[cut:]):
                    if bulk:
                        result.append(g.add_all(Triple(*t) for t in part))
                    else:
                        result.append(sum(1 for t in part if g.add(Triple(*t))))
            except ValueError as exc:
                result.append(str(exc))
            graphs.append(_state(g))
            results.append(result)
        assert results[0] == results[1]
        assert graphs[0] == graphs[1]

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
        for t in g.resolved_triples():
            rebuilt.add(t)
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
    """Run one construction step; a ValueError is part of the result."""
    kind, arg = op
    try:
        if kind == "node":
            return g.add_node(arg)
        if kind == "triple":
            return g.add_triple(*arg)
        return g.add_all(Triple(*t) for t in arg)
    except ValueError as exc:
        return ("ValueError", str(exc))


# self-loops and duplicates come from the small token set; literals reach
# every position, so some steps raise
_GRAPH_TOKENS = st.sampled_from([A, B, C, P, A, B, C, P, "_:x", TestLiterals.LIT, '"x"@en'])
_TRIPLE = st.tuples(_GRAPH_TOKENS, _GRAPH_TOKENS, _GRAPH_TOKENS)
_STEP = st.one_of(
    st.tuples(st.just("node"), _GRAPH_TOKENS),
    st.tuples(st.just("triple"), _TRIPLE),
    st.tuples(st.just("all"), st.lists(_TRIPLE, max_size=12)),
)


class TestAgainstTupleListGraph:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_STEP, max_size=8))
    def test_same_graph_before_and_after_freeze(self, steps):
        """The flat-array graph against the tuple-list one it replaced: the
        same results and errors per step, and the same ids, flags, counts,
        rows and triples after every step (each read builds the CSR views
        that the next step drops) and after ``freeze``."""
        g, ref = KnowledgeGraph(), TupleListGraph()
        for step in steps:
            assert _apply(g, step) == _apply(ref, step)
            assert _observe(g) == _observe(ref)
        g.freeze()
        ref.freeze()
        assert g._seen is None
        assert _observe(g) == _observe(ref)
        for graph in (g, ref):
            with pytest.raises(GraphFrozenError):
                graph.add_triple(A, P, "http://ex/new")
