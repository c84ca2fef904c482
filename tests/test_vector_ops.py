import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval
from kgembed.trainer import EmbeddingModel, UnknownTokenError, Vocabulary
from kgembed.vector_ops import (
    DegenerateVarianceError,
    NeighborIndex,
    NonPositiveCorrelationError,
    ZeroVectorError,
    average_ranks,
    cosine,
    harmonic_mean,
    nearest_neighbors,
    pearson,
    spearman,
    top_k,
)


def make_model(tokens, vectors):
    vectors = np.asarray(vectors, dtype=np.float32)
    vocab = Vocabulary(
        list(tokens),
        {t: i for i, t in enumerate(tokens)},
        np.ones(len(tokens), dtype=np.int64),
        np.full(len(tokens), 1.0 / len(tokens)),
    )
    return EmbeddingModel(vocab, vectors)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 4.5, 0.01])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_forty_five_degrees(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-8)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine([0.0, 0.0], [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=3, max_size=3),
        st.floats(0.01, 100.0),
    )
    def test_symmetric_and_scale_invariant(self, u, v, alpha):
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        scaled = [alpha * x for x in u]
        assert cosine(scaled, v) == pytest.approx(cosine(u, v), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    def test_equal_to_linalg_norm_cosine_to_the_last_bit(self, seed, d):
        """``math.sqrt(a.dot(a))`` is the norm ``np.linalg.norm`` computes
        for one real vector, over scales from 1e-20 to 1e20."""
        rng = np.random.default_rng(seed)
        for _ in range(8):
            u, v = rng.normal(size=(2, d)) * 10.0 ** rng.integers(-20, 20, size=(2, 1))
            assert cosine(u, v) == reference_eval.cosine(u, v)


class TestNearestNeighbors:
    def test_two_token_vocabulary(self):
        model = make_model(["a", "b"], [[1.0, 0.0], [0.5, 0.5]])
        assert nearest_neighbors(model, "a", 1)[0][0] == "b"

    def test_sorted_non_increasing(self):
        rng = np.random.default_rng(4)
        model = make_model([f"t{i}" for i in range(20)], rng.normal(size=(20, 6)))
        result = nearest_neighbors(model, "t3", 19)
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        tokens = [f"t{i}" for i in range(50)]
        model = make_model(tokens, rng.normal(size=(50, 8)))
        result = nearest_neighbors(model, "t17", 10)
        # independent brute force over pairwise cosine of the stored vectors
        vectors = model.vectors.astype(np.float64)
        expected = []
        q = vectors[17]
        for i, t in enumerate(tokens):
            if i == 17:
                continue
            s = float(np.dot(q, vectors[i]) / (np.linalg.norm(q) * np.linalg.norm(vectors[i])))
            expected.append((t, s))
        expected.sort(key=lambda ts: -ts[1])
        assert [t for t, _ in result] == [t for t, _ in expected[:10]]
        for (_, got), (_, want) in zip(result, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_total_ordering_consistent_with_pairwise(self):
        rng = np.random.default_rng(11)
        tokens = [f"t{i}" for i in range(12)]
        model = make_model(tokens, rng.normal(size=(12, 5)))
        full = nearest_neighbors(model, "t0", len(tokens) - 1)
        assert len(full) == len(tokens) - 1
        for (t1, s1), (t2, s2) in zip(full, full[1:]):
            assert s1 >= s2

    def test_ties_broken_by_vocabulary_index(self):
        vec = [1.0, 0.0]
        model = make_model(["q", "x", "y", "z"], [vec, [0.0, 1.0], vec, vec])
        result = nearest_neighbors(model, "q", 3)
        assert [t for t, _ in result] == ["y", "z", "x"]

    def test_k_capped_at_vocabulary(self):
        model = make_model(["a", "b", "c"], np.eye(3))
        assert len(nearest_neighbors(model, "a", 99)) == 2

    def test_unknown_token(self):
        model = make_model(["a"], [[1.0]])
        with pytest.raises(UnknownTokenError):
            nearest_neighbors(model, "nope", 1)

    def test_invalid_k(self):
        model = make_model(["a", "b"], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            nearest_neighbors(model, "a", 0)


def reference_top_k(scores, k):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def reference_nearest_neighbors(model, token, k=10):
    """The per-call float64 copy and Python sort that NeighborIndex replaced."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = model.vocabulary.index_of(token)
    matrix = model.vectors.astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVectorError(f"zero-norm vector for token {model.vocabulary.tokens[int(zero[0])]!r}")
    scores = (matrix @ matrix[query]) / (norms * norms[query])
    order = sorted((i for i in range(len(norms)) if i != query), key=lambda i: (-scores[i], i))
    return [(model.vocabulary.tokens[i], float(scores[i])) for i in order[:k]]


# integer-valued scores tie heavily; floats mostly do not
tie_heavy_scores = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40)
float_scores = st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False), min_size=1, max_size=40)
# entries from {-2, -1, 1, 2}: no zero rows, many parallel and duplicate rows
nonzero_entries = st.sampled_from([-2.0, -1.0, 1.0, 2.0])


@st.composite
def tie_heavy_models(draw):
    n = draw(st.integers(2, 25))
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(nonzero_entries, min_size=d, max_size=d), min_size=n, max_size=n))
    return make_model([f"t{i}" for i in range(n)], rows)


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tie_heavy_scores, float_scores), st.integers(1, 45))
    def test_matches_sorted_reference(self, scores, k):
        got = top_k(np.array(scores), k)
        assert got.tolist() == reference_top_k(scores, k)

    def test_ties_straddling_the_kth_position(self):
        scores = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 2.0, 0.0])
        # 3.0 at 1 and 3, then the 2.0 ties at 2, 4, 5 cut after the first
        assert top_k(scores, 3).tolist() == [1, 3, 2]
        assert top_k(scores, 4).tolist() == [1, 3, 2, 4]

    def test_k_one_and_k_beyond_length(self):
        scores = np.array([0.5, 0.9, 0.9])
        assert top_k(scores, 1).tolist() == [1]
        assert top_k(scores, 3).tolist() == [1, 2, 0]
        assert top_k(scores, 10).tolist() == [1, 2, 0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k(np.ones(3), 0)


class TestNeighborIndexAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_models(), st.data())
    def test_equal_to_reference_on_tie_heavy_models(self, model, data):
        n = len(model.vocabulary)
        token = f"t{data.draw(st.integers(0, n - 1))}"
        k = data.draw(st.sampled_from([1, 2, 10, 50, n - 1, n, n + 5]))
        assert nearest_neighbors(model, token, k) == reference_nearest_neighbors(model, token, k)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.sampled_from([1, 10, 50]))
    def test_equal_to_reference_on_random_models(self, seed, n, k):
        rng = np.random.default_rng(seed)
        model = make_model([f"t{i}" for i in range(n)], rng.normal(size=(n, 16)))
        index = NeighborIndex(model)
        for q in rng.integers(0, n, size=5):
            token = f"t{q}"
            expected = reference_nearest_neighbors(model, token, k)
            assert index.query(token, k) == expected
            assert nearest_neighbors(model, token, k) == expected


class TestIndexSimilarity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 300))
    def test_equal_to_cosine_to_the_last_bit(self, seed, n, d):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-20, 20, size=(n, 1))
        model = make_model([f"t{i}" for i in range(n)], rng.normal(size=(n, d)) * scale)
        index = NeighborIndex(model)
        for a, b in rng.integers(0, n, size=(8, 2)):
            left, right = f"t{a}", f"t{b}"
            assert index.similarity(left, right) == reference_eval.cosine(model.vector(left), model.vector(right))

    def test_zero_row_raises(self):
        index = NeighborIndex(make_model(["a", "z"], [[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ZeroVectorError):
            index.similarity("a", "z")
        with pytest.raises(ZeroVectorError):
            index.similarity("z", "z")

    def test_unknown_token_raises(self):
        index = NeighborIndex(make_model(["a"], [[1.0, 2.0]]))
        with pytest.raises(UnknownTokenError):
            index.similarity("a", "ghost")


class TestZeroRows:
    def zero_row_model(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(8, 4))
        vectors[3] = 0.0
        return make_model([f"t{i}" for i in range(8)], vectors)

    def test_index_flags_zero_rows(self):
        index = NeighborIndex(self.zero_row_model())
        assert index.zero.tolist() == [i == 3 for i in range(8)]
        assert index.is_zero("t3") and not index.is_zero("t0")

    def test_zero_rows_left_out_of_neighbor_lists(self):
        model = self.zero_row_model()
        for q in ("t0", "t7"):
            result = nearest_neighbors(model, q, 99)
            assert "t3" not in [t for t, _ in result]
            assert len(result) == 6

    def test_order_matches_the_model_without_the_zero_row(self):
        model = self.zero_row_model()
        keep = [i for i in range(8) if i != 3]
        reduced = make_model([f"t{i}" for i in keep], model.vectors[keep])
        for q in ("t0", "t5"):
            got = nearest_neighbors(model, q, 4)
            want = reference_nearest_neighbors(reduced, q, 4)
            assert [t for t, _ in got] == [t for t, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)

    def test_zero_query_raises(self):
        with pytest.raises(ZeroVectorError):
            nearest_neighbors(self.zero_row_model(), "t3", 5)

    def test_only_zero_rows_besides_query(self):
        model = make_model(["a", "z1", "z2"], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert nearest_neighbors(model, "a", 5) == []


def pearson_oracle(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_formula_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.normal(size=20).tolist()
            ys = rng.normal(size=20).tolist()
            assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestSpearman:
    def test_rank_difference_formula(self):
        # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d = (-2, 1, 1)
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_monotone_transform_invariance(self):
        xs = [0.3, 1.7, 2.2, 5.0, 9.1]
        assert spearman(xs, [math.exp(x) for x in xs]) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(8))))
    def test_exact_rank_formula_without_ties(self, ys):
        xs = list(range(8))
        d2 = sum((x - y) ** 2 for x, y in zip(average_ranks(xs), average_ranks(ys)))
        n = len(xs)
        expected = 1 - 6 * d2 / (n * (n * n - 1))
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_ties_use_average_ranks(self):
        xs, ys = [1, 1, 2], [1, 2, 3]
        # average ranks of xs are (1.5, 1.5, 3); oracle is pearson over ranks
        expected = pearson_oracle([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_average_ranks_values(self):
        assert average_ranks([10.0, 10.0, 5.0]).tolist() == [2.5, 2.5, 1.0]

    def test_signed_zeros_tie_and_each_nan_ranks_alone(self):
        ranks = average_ranks([math.nan, 0.0, -0.0, math.nan, 1.0, -math.inf])
        assert ranks.tolist() == [5.0, 2.5, 2.5, 6.0, 4.0, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]) | st.floats(), max_size=40))
    def test_average_ranks_equal_to_the_tie_loop(self, values):
        assert np.array_equal(average_ranks(values), reference_eval.average_ranks(values), equal_nan=True)


class TestHarmonicMean:
    def test_equal_inputs(self):
        assert harmonic_mean(0.5, 0.5) == pytest.approx(0.5)
        assert harmonic_mean(1.0, 1.0) == pytest.approx(1.0)

    def test_closed_form(self):
        assert harmonic_mean(0.3, 0.6) == pytest.approx(0.4, abs=1e-12)

    def test_non_positive_refused_with_values(self):
        with pytest.raises(NonPositiveCorrelationError) as err:
            harmonic_mean(-0.2, 0.7)
        assert err.value.values == (-0.2, 0.7)
        with pytest.raises(NonPositiveCorrelationError):
            harmonic_mean(0.2, 0.0)
