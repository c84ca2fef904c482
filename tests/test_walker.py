import gzip
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import (
    assert_corpus_valid,
    bidirectional_neighborhood,
    build_graph,
    enumerate_light_walks,
    random_graph,
)
from kgembed.cli import main
from kgembed.graph_io import write_ntriples
from kgembed.walker import (
    Walk,
    WalkConfig,
    _walk_rng,
    generate_classic_walks,
    generate_light_walks,
    read_corpus_tokens,
    write_corpus,
)

A, B, C, X = "http://ex/a", "http://ex/b", "http://ex/c", "http://ex/x"
P, Q = "http://ex/p", "http://ex/q"


def resolve_walks(g, corpus):
    return [[g.resolve(t) for t in w.tokens] for w in corpus.walks]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(walks_per_entity=0)
        with pytest.raises(ValueError):
            WalkConfig(depth=0)
        with pytest.raises(ValueError):
            WalkConfig(strategy="sideways")

    def test_strategy_guards(self):
        g = build_graph([(A, P, B)])
        with pytest.raises(ValueError):
            generate_light_walks(g, [B], WalkConfig(strategy="classic"))
        with pytest.raises(ValueError):
            generate_classic_walks(g, [A], WalkConfig(strategy="light"))


class TestLightWalks:
    def test_two_node_graph_single_possible_walk(self):
        g = build_graph([(A, P, B)])
        cfg = WalkConfig(walks_per_entity=1, depth=4, seed=1)
        corpus = generate_light_walks(g, [B], cfg)
        # exhaustive enumeration on this graph admits exactly one sequence
        assert enumerate_light_walks([(A, P, B)], B, 4) == {(A, P, B)}
        assert resolve_walks(g, corpus) == [[A, P, B]]
        assert corpus.walks[0].anchor == 2

    def test_isolated_entity_yields_bare_anchor_walks(self):
        g = build_graph([(A, P, B)], extra_nodes=[X])
        corpus = generate_light_walks(g, [X], WalkConfig(walks_per_entity=3, depth=5, seed=0))
        assert resolve_walks(g, corpus) == [[X], [X], [X]]
        assert [w.anchor for w in corpus.walks] == [0, 0, 0]

    def test_chain_walks_subset_of_enumeration(self):
        triples = [(A, P, B), (B, Q, C)]
        g = build_graph(triples)
        allowed = enumerate_light_walks(triples, B, 2)
        cfg = WalkConfig(walks_per_entity=50, depth=2, seed=9)
        corpus = generate_light_walks(g, [B], cfg)
        for walk in resolve_walks(g, corpus):
            assert tuple(walk) in allowed
            assert B in walk

    def test_corpus_size_is_walks_times_entities(self):
        g = build_graph([(A, P, B), (B, Q, C)])
        cfg = WalkConfig(walks_per_entity=7, depth=3, seed=2)
        corpus = generate_light_walks(g, [A, B, C], cfg)
        assert len(corpus.walks) == 7 * 3

    def test_missing_entity_warned_not_fatal(self):
        g = build_graph([(A, P, B)])
        cfg = WalkConfig(walks_per_entity=2, depth=2, seed=0)
        corpus = generate_light_walks(g, ["http://ex/ghost", A], cfg)
        assert corpus.missing_entities == ["http://ex/ghost"]
        assert len(corpus.walks) == 2

    def test_predicate_token_is_not_an_entity(self):
        g = build_graph([(A, P, B)])
        corpus = generate_light_walks(g, [P], WalkConfig(walks_per_entity=1, depth=1, seed=0))
        assert corpus.missing_entities == [P]
        assert corpus.walks == []

    def test_candidates_drawn_uniformly_over_the_union(self):
        # two ways backward, one way forward: each candidate should be hit
        # about a third of the time, not 50/50 by direction
        a1, a2 = "http://ex/in1", "http://ex/in2"
        g = build_graph([(a1, P, B), (a2, P, B), (B, Q, C)])
        n = 6000
        corpus = generate_light_walks(g, [B], WalkConfig(walks_per_entity=n, depth=1, seed=0))
        counts = {}
        for walk in resolve_walks(g, corpus):
            counts[tuple(walk)] = counts.get(tuple(walk), 0) + 1
        assert set(counts) == {(a1, P, B), (a2, P, B), (B, Q, C)}
        for count in counts.values():
            assert abs(count - n / 3) < 200  # ~5 sigma for a fair three-way draw

    def test_shared_edge_in_both_frontiers_goes_backward(self):
        # on a 2-cycle the second step's candidate edge is ingoing to the head
        # AND outgoing from the tail; it must be drawn once, as a backward step
        g = build_graph([(A, P, B), (B, Q, A)])
        n = 400
        corpus = generate_light_walks(g, [B], WalkConfig(walks_per_entity=n, depth=2, seed=3))
        outcomes = {(tuple(g.resolve(t) for t in w.tokens), w.anchor) for w in corpus.walks}
        assert outcomes == {
            ((B, Q, A, P, B), 4),  # backward first, then the shared edge prepends
            ((A, P, B, Q, A), 2),  # forward first, then the shared edge prepends
        }


class TestClassicWalks:
    def test_single_forward_path(self):
        g = build_graph([(A, P, B)])
        corpus = generate_classic_walks(g, [A], WalkConfig(walks_per_entity=4, depth=4, strategy="classic", seed=0))
        assert resolve_walks(g, corpus) == [[A, P, B]] * 4

    def test_sink_entity_bare_walks(self):
        g = build_graph([(A, P, B)])
        corpus = generate_classic_walks(g, [B], WalkConfig(walks_per_entity=3, depth=4, strategy="classic", seed=0))
        assert resolve_walks(g, corpus) == [[B]] * 3

    def test_depth_cutoff(self):
        g = build_graph([(A, P, B), (B, P, C)])
        corpus = generate_classic_walks(g, [A], WalkConfig(walks_per_entity=5, depth=1, strategy="classic", seed=0))
        assert resolve_walks(g, corpus) == [[A, P, B]] * 5

    def test_default_entities_are_all_subjects(self):
        g = build_graph([(A, P, B), (B, P, C)])
        corpus = generate_classic_walks(g, cfg=WalkConfig(walks_per_entity=2, depth=2, strategy="classic", seed=0))
        assert corpus.entities == g.subject_ids()
        assert len(corpus.walks) == 2 * 2


def _forward_edges(g, node, include_literals, state):
    state[0] += 1
    edges = g.out_edges(node)
    if include_literals:
        return edges
    return [e for e in edges if not g.is_literal_id(e[1])]


def _backward_edges(g, node, state):
    state[0] += 1
    return g.in_edges(node)


def _candidate_list_light_walk(g, entity, rng, cfg, state):
    """The light walk as it was written before it indexed its candidates:
    edge lists from the graph's public accessors, explicit candidate triples
    per step, and for the union a set of the backward ones plus a merged
    copy."""
    tokens = [entity]
    anchor = 0
    pred = _backward_edges(g, entity, state)
    succ = _forward_edges(g, entity, cfg.include_literals, state)
    hops = 0
    while hops < cfg.depth:
        head = tokens[0]
        tail = tokens[-1]
        back_cand = [(s, p, head) for s, p in pred]
        fwd_cand = [(tail, p, o) for p, o in succ]
        back_set = set(back_cand)
        cand = list(back_cand)
        for t in fwd_cand:
            if t not in back_set:
                cand.append(t)
        if not cand:
            break
        choice = cand[rng.randrange(len(cand))]
        backward = choice in back_set
        s, p, o = choice
        if backward:
            tokens[:0] = [s, p]
            anchor += 2
            pred = _backward_edges(g, s, state)
        else:
            tokens.extend([p, o])
            succ = [] if g.is_literal_id(o) else _forward_edges(g, o, cfg.include_literals, state)
        hops += 1
    return Walk(tokens, anchor)


def _edge_list_classic_walk(g, entity, rng, cfg, state):
    """The classic walk over the edge lists of the graph's public accessors."""
    tokens = [entity]
    current = entity
    for _ in range(cfg.depth):
        if g.is_literal_id(current):
            break
        edges = _forward_edges(g, current, cfg.include_literals, state)
        if not edges:
            break
        p, o = edges[rng.randrange(len(edges))]
        tokens.extend([p, o])
        current = o
    return Walk(tokens, 0)


def _reference_walks(g, ids, cfg, walk):
    """The walks of a reference walk function, on the walker's per-walk RNG
    streams, and the rows it fetched."""
    state = [0]
    walks = [walk(g, e, _walk_rng(cfg.seed, e, k), cfg, state) for e in ids for k in range(cfg.walks_per_entity)]
    return walks, state[0]


class TestLightWalkAgainstCandidateLists:
    NODES = [f"http://ex/n{i}" for i in range(4)]
    OBJECTS = NODES + ['"x"', '"y"@en']  # object index 4 and 5 are literals

    # edges as (subject, predicate, object) indices; small node sets give
    # self-loops, tail->head edges and edges shared by both frontiers
    @settings(max_examples=150, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 5)), max_size=14),
        depth=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        literals=st.booleans(),
    )
    @example(edges=[(0, 0, 0), (1, 0, 0), (0, 1, 1)], depth=4, seed=1, literals=False)
    @example(edges=[(0, 0, 1), (1, 0, 0), (1, 1, 4), (0, 0, 5)], depth=4, seed=2, literals=True)
    # the head's in-edges are fewer than the tail's out-edges, one of which is a self-loop
    @example(edges=[(0, 0, 1), (1, 0, 0), (1, 1, 2), (1, 1, 3), (1, 0, 2), (1, 0, 1)], depth=3, seed=4, literals=False)
    def test_same_walks_anchors_and_lookups(self, edges, depth, seed, literals):
        triples = [(self.NODES[s], f"http://ex/p{p}", self.OBJECTS[o]) for s, p, o in edges]
        g = build_graph(triples, extra_nodes=self.NODES)
        ids = [g.lookup(n) for n in self.NODES]
        cfg = WalkConfig(walks_per_entity=8, depth=depth, seed=seed, include_literals=literals)
        light = generate_light_walks(g, ids, cfg)
        reference = _reference_walks(g, light.entities, cfg, _candidate_list_light_walk)
        assert (light.walks, light.adjacency_lookups) == reference
        cfg = WalkConfig(walks_per_entity=4, depth=depth, seed=seed, strategy="classic", include_literals=literals)
        classic = generate_classic_walks(g, ids, cfg)
        walks, lookups = _reference_walks(g, classic.entities, cfg, _edge_list_classic_walk)
        assert classic.walks == walks
        # the walker also counts the row fetched for a tail at full depth, which
        # the edge-list walk never reads
        full = sum(len(w.tokens) == 2 * depth + 1 and not g.is_literal_id(w.tokens[-1]) for w in walks)
        assert classic.adjacency_lookups == lookups + full


class TestWalkProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 4))
    def test_light_walks_valid_anchored_and_bounded(self, seed, depth):
        g = random_graph(seed=seed % 97, n_nodes=25, n_edges=60)
        entities = [f"http://ex/r{i}" for i in range(0, 25, 5)]
        cfg = WalkConfig(walks_per_entity=4, depth=depth, seed=seed)
        corpus = generate_light_walks(g, entities, cfg)
        assert len(corpus.walks) == cfg.walks_per_entity * len(corpus.entities)
        assert_corpus_valid(g, corpus, depth=depth, light=True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_classic_walks_valid(self, seed):
        g = random_graph(seed=seed % 89, n_nodes=25, n_edges=60)
        cfg = WalkConfig(walks_per_entity=3, depth=3, strategy="classic", seed=seed)
        corpus = generate_classic_walks(g, cfg=cfg)
        assert_corpus_valid(g, corpus, depth=3, light=False)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_locality(self, seed):
        g = random_graph(seed=seed % 83, n_nodes=40, n_edges=100)
        entities = [f"http://ex/r{i}" for i in range(0, 40, 8)]
        cfg = WalkConfig(walks_per_entity=5, depth=3, seed=seed)
        corpus = generate_light_walks(g, entities, cfg)
        allowed = bidirectional_neighborhood(g, corpus.entities, depth=3)
        for walk in corpus.walks:
            assert set(walk.tokens[0::2]) <= allowed

    def test_determinism_and_seed_sensitivity(self):
        g = random_graph(seed=7, n_nodes=30, n_edges=90)
        entities = [f"http://ex/r{i}" for i in range(6)]
        cfg = WalkConfig(walks_per_entity=5, depth=3, seed=11)
        first = generate_light_walks(g, entities, cfg)
        second = generate_light_walks(g, entities, cfg)
        assert first.walks == second.walks
        other = generate_light_walks(g, entities, WalkConfig(walks_per_entity=5, depth=3, seed=12))
        assert first.walks != other.walks

    def test_walks_run_on_one_worker_only(self, tmp_path, capsys):
        g = random_graph(seed=13, n_nodes=30, n_edges=90)
        entities = [f"http://ex/r{i}" for i in range(8)]
        cfg = WalkConfig(walks_per_entity=6, depth=3, seed=5)
        assert generate_light_walks(g, entities, cfg, workers=1).walks == generate_light_walks(g, entities, cfg).walks
        with pytest.raises(ValueError, match="one thread"):
            generate_light_walks(g, entities, cfg, workers=2)
        graph_file = tmp_path / "g.nt"
        write_ntriples(g.resolved_triples(), graph_file)
        entities_file = tmp_path / "e.txt"
        entities_file.write_text("".join(f"{e}\n" for e in entities))
        out = tmp_path / "c.txt"
        rc = main(["walk", "--graph", str(graph_file), "--entities", str(entities_file),
                   "--workers", "2", "--out", str(out)])
        assert rc == 2
        assert "--workers applies to train" in capsys.readouterr().err
        assert not out.exists()

    def test_entity_order_does_not_change_output(self):
        g = random_graph(seed=13, n_nodes=30, n_edges=90)
        entities = [f"http://ex/r{i}" for i in range(8)]
        cfg = WalkConfig(walks_per_entity=3, depth=3, seed=5)
        forward = generate_light_walks(g, entities, cfg)
        backward = generate_light_walks(g, list(reversed(entities)), cfg)
        assert forward.walks == backward.walks

    def test_lookup_counts_are_additive_over_entities(self):
        g = random_graph(seed=17, n_nodes=40, n_edges=120)
        cfg = WalkConfig(walks_per_entity=4, depth=3, seed=3)
        group_a = [f"http://ex/r{i}" for i in range(0, 10)]
        group_b = [f"http://ex/r{i}" for i in range(10, 20)]
        la = generate_light_walks(g, group_a, cfg).adjacency_lookups
        lb = generate_light_walks(g, group_b, cfg).adjacency_lookups
        lab = generate_light_walks(g, group_a + group_b, cfg).adjacency_lookups
        assert lab == la + lb


class TestLiteralHandling:
    LIT = '"New York"@en'

    def fixture(self):
        return build_graph([(A, P, B), (B, Q, self.LIT), (B, P, C)])

    def test_literals_excluded_by_default(self):
        g = self.fixture()
        cfg = WalkConfig(walks_per_entity=30, depth=3, seed=1)
        corpus = generate_light_walks(g, [A, B, C], cfg)
        lit = g.lookup(self.LIT)
        for walk in corpus.walks:
            assert lit not in walk.tokens

    def test_included_literal_terminates_forward_extension(self):
        g = self.fixture()
        cfg = WalkConfig(walks_per_entity=40, depth=3, seed=2, include_literals=True)
        corpus = generate_light_walks(g, [A, B, C], cfg)
        lit = g.lookup(self.LIT)
        seen_literal = False
        for walk in corpus.walks:
            positions = [i for i, t in enumerate(walk.tokens) if t == lit]
            if positions:
                seen_literal = True
                assert positions == [len(walk.tokens) - 1]  # only ever the tail
        assert seen_literal

    def test_classic_literal_is_terminal(self):
        g = self.fixture()
        cfg = WalkConfig(walks_per_entity=40, depth=4, seed=3, strategy="classic", include_literals=True)
        corpus = generate_classic_walks(g, [A], cfg)
        lit = g.lookup(self.LIT)
        for walk in corpus.walks:
            if lit in walk.tokens:
                assert walk.tokens[-1] == lit


class TestCorpusFiles:
    def make_corpus(self):
        g = build_graph([(A, P, B), (B, Q, self.LIT), (B, P, C)])
        cfg = WalkConfig(walks_per_entity=5, depth=3, seed=8, include_literals=True)
        return g, generate_light_walks(g, [A, B, C], cfg)

    LIT = '"New York"@en'

    def test_line_count_matches_walks(self, tmp_path):
        g, corpus = self.make_corpus()
        path = tmp_path / "corpus.txt"
        assert write_corpus(corpus, path) == len(corpus.walks)
        assert len(path.read_text().splitlines()) == len(corpus.walks)

    def test_round_trip_reproduces_token_ids(self, tmp_path):
        g, corpus = self.make_corpus()
        path = tmp_path / "corpus.txt"
        write_corpus(corpus, path)
        loaded = [[g.lookup(t) for t in tokens] for tokens in read_corpus_tokens(path)]
        assert loaded == [w.tokens for w in corpus.walks]

    def test_gzip_round_trip(self, tmp_path):
        g, corpus = self.make_corpus()
        path = tmp_path / "corpus.txt.gz"
        write_corpus(corpus, path)
        with gzip.open(path, "rt") as fh:
            assert len(fh.read().splitlines()) == len(corpus.walks)
        assert read_corpus_tokens(path) == corpus.sentences()

    def test_empty_corpus_writes_empty_file(self, tmp_path):
        g = build_graph([(A, P, B)])
        corpus = generate_light_walks(g, [], WalkConfig(walks_per_entity=1, depth=1, seed=0))
        path = tmp_path / "corpus.txt"
        assert write_corpus(corpus, path) == 0
        assert path.read_text() == ""

    # str.split() would cut tokens at these; escape_token leaves them in place
    @pytest.mark.parametrize("char", ["\u00a0", "\u2028", "\u0085", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
    def test_unicode_whitespace_inside_tokens_round_trips(self, tmp_path, char):
        iri, lit = f"http://x/b{char}c", f'"x{char}y"'
        g = build_graph([(A, P, iri), (iri, Q, lit)])
        cfg = WalkConfig(walks_per_entity=4, depth=2, seed=0, include_literals=True)
        corpus = generate_light_walks(g, [iri], cfg)
        path = tmp_path / "corpus.txt"
        write_corpus(corpus, path)
        sentences = read_corpus_tokens(path)
        assert sentences == corpus.sentences()
        assert any(iri in s and lit in s for s in sentences)

    def test_tokens_with_spaces_survive(self, tmp_path):
        g, corpus = self.make_corpus()
        path = tmp_path / "corpus.txt"
        write_corpus(corpus, path)
        sentences = read_corpus_tokens(path)
        assert any(self.LIT in s for s in sentences)
        for line in path.read_text().splitlines():
            # the on-disk format never holds a raw space inside a token
            assert all(" " not in tok for tok in line.split(" "))


class TestCorpusBytesPinned:
    """The bytes of corpora from a fixed graph, pinned by sha256: a walker
    change that must not change walks fails here. The graph has a cycle, a
    self-loop, a tail-to-head edge that both frontiers share, literals (one
    with a space to escape) and dead ends in both directions."""

    TRIPLES = [
        ("http://ex/a", "http://ex/p", "http://ex/b"),
        ("http://ex/b", "http://ex/p", "http://ex/c"),
        ("http://ex/c", "http://ex/q", "http://ex/a"),
        ("http://ex/b", "http://ex/q", "http://ex/b"),
        ("http://ex/b", "http://ex/r", '"New York"@en'),
        ("http://ex/c", "http://ex/r", '"42"'),
        ("http://ex/d", "http://ex/p", "http://ex/a"),
        ("http://ex/a", "http://ex/q", "http://ex/e"),
        ("http://ex/f", "http://ex/r", '"x y"'),
        ("http://ex/e", "http://ex/p", "http://ex/a"),
    ]
    ENTITIES = ["http://ex/a", "http://ex/b", "http://ex/d", "http://ex/e", "http://ex/f"]
    CASES = {  # name: (strategy, include_literals)
        "light": ("light", False),
        "light-literals": ("light", True),
        "classic": ("classic", False),
        "classic-literals": ("classic", True),
    }
    # the same bytes for both routes: the CLI's graph interns tokens in the same order
    DIGESTS = {
        ("light", ".txt"): "dc2a190b4cfef408da52bfade18902a737fbbfaa27a9ea48d34647f1237db36e",
        ("light", ".txt.gz"): "1e2648cf793b8ef9f070f4eeb8b6cc9ac26730f4ec90b741773b106bed2fda15",
        ("light-literals", ".txt"): "babadaff4bfa7d4b84dc7afe401468d8298a9244735f55c211846235c1f033e6",
        ("light-literals", ".txt.gz"): "879385336a46a3a8631457a3824794272d1f02c269242db9ad3c3170a7e66c5d",
        ("classic", ".txt"): "0f3c52fd1693b582920c046550df0b45c9e584112bb0f19a8a24eb1f22a6b04a",
        ("classic", ".txt.gz"): "a0571ad4a05daa731f6576fa02bef6b8bcae1d42505e2efec535b1935d1df7f0",
        ("classic-literals", ".txt"): "5d00c2ead06bc9737e1ed8bfb4a94b54fd32a1dbbeb0b36bf405932e1afaa1ef",
        ("classic-literals", ".txt.gz"): "0dba95072d2f68c69e148377bfe093bfc5babc53203ff8bb985786c5ef95eb9e",
    }

    def digest(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_write_corpus(self, tmp_path, case, suffix):
        strategy, literals = self.CASES[case]
        g = build_graph(self.TRIPLES)
        cfg = WalkConfig(walks_per_entity=6, depth=3, strategy=strategy, include_literals=literals, seed=5)
        generate = generate_light_walks if strategy == "light" else generate_classic_walks
        out = tmp_path / f"corpus{suffix}"
        write_corpus(generate(g, self.ENTITIES, cfg), out)
        assert self.digest(out) == self.DIGESTS[case, suffix]

    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_cli_walk(self, tmp_path, case, suffix):
        strategy, literals = self.CASES[case]
        graph_file, entities_file = tmp_path / "g.nt", tmp_path / "e.txt"
        write_ntriples(self.TRIPLES, graph_file)
        entities_file.write_text("".join(f"{e}\n" for e in self.ENTITIES))
        out = tmp_path / f"corpus{suffix}"
        rc = main(["walk", "--graph", str(graph_file), "--entities", str(entities_file), "--mode", strategy,
                   "--walks", "6", "--depth", "3", "--seed", "5", "--out", str(out),
                   *(["--include-literals"] if literals else [])])
        assert rc == 0
        assert self.digest(out) == self.DIGESTS[case, suffix]
