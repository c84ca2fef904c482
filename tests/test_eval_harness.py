import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval
from fixtures import star_fixture, two_cluster_fixture
from kgembed.eval_harness import (
    EvalError,
    FoldError,
    RankDeficientError,
    document_relatedness_eval,
    entity_relatedness_eval,
    knn_classification_cv,
    knn_cv,
    knn_predict,
    linear_regression_cv,
    load_document_relatedness_gold,
    load_entity_relatedness_gold,
    load_labeled_entities,
    load_regression_targets,
    regression_cv,
    results_csv,
    ridge_fit,
    ridge_predict,
    shuffled_folds,
    stratified_folds,
    walk_density,
)
from kgembed.trainer import EmbeddingModel, Vocabulary
from kgembed.walker import Walk, WalkConfig, WalkCorpus, generate_light_walks, read_corpus_tokens, write_corpus


def make_model(tokens, vectors):
    vectors = np.asarray(vectors, dtype=np.float32)
    vocab = Vocabulary(
        list(tokens),
        {t: i for i, t in enumerate(tokens)},
        np.ones(len(tokens), dtype=np.int64),
        np.full(len(tokens), 1.0 / len(tokens)),
    )
    return EmbeddingModel(vocab, vectors)


def cos64(u, v):
    u, v = np.asarray(u, float), np.asarray(v, float)
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def reference_knn_predict(train_x, train_y, test_x, k=3):
    """The per-test-row Python sort that the shared top-k kernel replaced."""
    tx = np.asarray(train_x, dtype=np.float64)
    tx = tx / np.linalg.norm(tx, axis=1, keepdims=True)
    qx = np.asarray(test_x, dtype=np.float64)
    qx = qx / np.linalg.norm(qx, axis=1, keepdims=True)
    sims = qx @ tx.T
    predictions = []
    for row in sims:
        order = sorted(range(row.shape[0]), key=lambda i: (-row[i], i))[:k]
        votes = {}
        for i in order:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
        best = max(votes.values())
        tied = {label for label, n in votes.items() if n == best}
        if len(tied) == 1:
            predictions.append(next(iter(tied)))
        else:
            predictions.append(next(train_y[i] for i in order if train_y[i] in tied))
    return predictions


def outcome(f, *args, **kwargs):
    """What the call returns, or the class and message of what it raises."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def cv_problems(draw):
    """Rows drawn from a small pool of nonzero points, so duplicate rows and
    exact similarity ties are common, with a fold count and a seed."""
    folds = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    point = st.lists(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]), min_size=d, max_size=d)
    pool = draw(st.lists(point, min_size=1, max_size=8))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=folds, max_size=30))
    return np.array([pool[i] for i in rows]), folds, draw(st.integers(0, 2**16))


@st.composite
def knn_problems(draw):
    """Small integer-valued points (no zero rows): many exact similarity ties
    and many vote ties."""
    d = draw(st.integers(1, 3))
    entry = st.sampled_from([-2.0, -1.0, 1.0, 2.0])
    point = st.lists(entry, min_size=d, max_size=d)
    train_x = draw(st.lists(point, min_size=1, max_size=20))
    test_x = draw(st.lists(point, min_size=1, max_size=6))
    train_y = draw(st.lists(st.sampled_from("abc"), min_size=len(train_x), max_size=len(train_x)))
    k = draw(st.integers(1, len(train_x) + 2))
    return np.array(train_x), train_y, np.array(test_x), k


class TestFolds:
    def test_stratified_every_fold_has_every_class(self):
        labels = ["a"] * 12 + ["b"] * 15
        assignment = stratified_folds(labels, folds=4, seed=1)
        for fold in range(4):
            fold_labels = {labels[i] for i, a in enumerate(assignment) if a == fold}
            assert fold_labels == {"a", "b"}

    def test_stratified_rejects_small_class(self):
        with pytest.raises(FoldError):
            stratified_folds(["a"] * 12 + ["b"] * 3, folds=4, seed=0)

    def test_shuffled_rejects_too_few_examples(self):
        with pytest.raises(FoldError):
            shuffled_folds(5, folds=10, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 40), st.integers(-2, 12), st.integers(0, 2**32 - 1))
    def test_shuffled_matches_its_own_shuffle(self, n, folds, seed):
        """The same assignment, or the same exception class and message."""
        assert outcome(shuffled_folds, n, folds, seed) == outcome(reference_eval.shuffled_folds, n, folds, seed)

    def test_assignments_are_seeded(self):
        labels = ["a"] * 10 + ["b"] * 10
        assert stratified_folds(labels, 5, seed=3) == stratified_folds(labels, 5, seed=3)
        assert stratified_folds(labels, 5, seed=3) != stratified_folds(labels, 5, seed=4)


class TestKnn:
    def test_perfectly_separated_classes(self):
        x = np.array([[1.0, 0.0]] * 10 + [[0.0, 1.0]] * 10)
        labels = ["left"] * 10 + ["right"] * 10
        accuracy, _ = knn_cv(x, labels, k=3, folds=5, seed=0)
        assert accuracy == 1.0

    def test_shuffled_labels_score_near_chance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 8))
        base = ["a"] * 20 + ["b"] * 20
        accuracies = []
        for seed in range(10):
            labels = list(base)
            np.random.default_rng(seed).shuffle(labels)
            accuracy, _ = knn_cv(x, labels, k=3, folds=10, seed=seed)
            accuracies.append(accuracy)
        assert 0.35 <= float(np.mean(accuracies)) <= 0.65

    def test_insufficient_class_rejected(self):
        x = np.eye(4)
        with pytest.raises(FoldError):
            knn_cv(x, ["a", "a", "a", "b"], k=1, folds=2, seed=0)

    def test_vote_tie_goes_to_nearest_neighbor(self):
        train_x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        train_y = ["red", "blue", "green"]
        # all three vote once; the closest neighbor is 'red'
        assert knn_predict(train_x, train_y, np.array([[1.0, 0.05]]), k=3) == ["red"]

    def test_majority_beats_proximity(self):
        train_x = np.array([[1.0, 0.0], [0.8, 0.2], [0.7, 0.3]])
        train_y = ["red", "blue", "blue"]
        assert knn_predict(train_x, train_y, np.array([[1.0, 0.01]]), k=3) == ["blue"]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        train_x = rng.normal(size=(30, 6))
        test_x = rng.normal(size=(8, 6))
        train_y = [f"c{i % 3}" for i in range(30)]
        got = knn_predict(train_x, train_y, test_x, k=3)
        expected = []
        for q in test_x:
            dists = sorted(
                ((1 - cos64(q, train_x[i]), i) for i in range(30)), key=lambda di: (di[0], di[1])
            )
            top = [train_y[i] for _, i in dists[:3]]
            counts = {y: top.count(y) for y in top}
            best = max(counts.values())
            tied = {y for y, c in counts.items() if c == best}
            expected.append(next(y for y in top if y in tied))
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(knn_problems())
    def test_same_labels_as_reference_loop(self, problem):
        train_x, train_y, test_x, k = problem
        assert knn_predict(train_x, train_y, test_x, k) == reference_knn_predict(train_x, train_y, test_x, k)

    def test_same_labels_as_reference_loop_on_random_points(self):
        rng = np.random.default_rng(21)
        train_x = rng.normal(size=(200, 8))
        test_x = rng.normal(size=(40, 8))
        train_y = [f"c{i % 4}" for i in range(200)]
        for k in (1, 3, 10, 250):
            assert knn_predict(train_x, train_y, test_x, k) == reference_knn_predict(train_x, train_y, test_x, k)

    def test_model_level_wrapper_drops_missing(self, caplog):
        model = make_model(["a", "b", "c", "d"], np.eye(4))
        data = [("a", "x"), ("b", "x"), ("c", "y"), ("d", "y"), ("ghost", "y")]
        with pytest.raises(FoldError):
            # after dropping 'ghost' there are 2 examples per class but folds=10
            knn_classification_cv(model, data, k=1, folds=10, seed=0)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 5))
        labels = [f"c{i % 2}" for i in range(30)]
        acc1, pred1 = knn_cv(x, labels, k=3, folds=5, seed=2)
        acc2, pred2 = knn_cv(3.7 * x, labels, k=3, folds=5, seed=2)
        assert acc1 == acc2
        assert pred1 == pred2


class TestOneFoldLoop:
    """``knn_cv`` and ``regression_cv`` share one held-out loop; each gives
    what its own loop gave, to the last bit."""

    @settings(max_examples=150, deadline=None)
    @given(cv_problems(), st.data())
    def test_knn_cv_matches_its_own_loop(self, problem, data):
        x, folds, seed = problem
        labels = data.draw(st.lists(st.sampled_from("abc"), min_size=len(x), max_size=len(x)))
        k = data.draw(st.integers(1, len(x)))
        got = outcome(knn_cv, x, labels, k=k, folds=folds, seed=seed)
        assert got == outcome(reference_eval.knn_cv, x, labels, k=k, folds=folds, seed=seed)

    @settings(max_examples=150, deadline=None)
    @given(cv_problems(), st.sampled_from([1e-3, 0.1, 1.0, 25.0]), st.data())
    def test_regression_cv_matches_its_own_loop(self, problem, ridge, data):
        x, folds, seed = problem
        y = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=len(x), max_size=len(x))))
        rmse, predictions = regression_cv(x, y, folds=folds, ridge=ridge, seed=seed)
        want_rmse, want_predictions = reference_eval.regression_cv(x, y, folds=folds, ridge=ridge, seed=seed)
        assert rmse.hex() == want_rmse.hex()
        assert predictions.tobytes() == want_predictions.tobytes()


class TestRegression:
    def test_constant_zero_targets(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 5))
        rmse, _ = regression_cv(x, np.zeros(30), folds=5, ridge=1e-2, seed=0)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_exact_linear_recoverability(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 10))
        y = x[:, 0]
        rmse, _ = regression_cv(x, y, folds=5, ridge=0.0, seed=0)
        assert rmse < 1e-6

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 10))
        y = rng.normal(size=30)
        ridge = 0.37
        folds, seed = 5, 4
        _, got = regression_cv(x, y, folds=folds, ridge=ridge, seed=seed)
        assignment = shuffled_folds(30, folds, seed)
        expected = np.empty(30)
        for fold in range(folds):
            test = [i for i, a in enumerate(assignment) if a == fold]
            train = [i for i, a in enumerate(assignment) if a != fold]
            xtr, ytr = x[train], y[train]
            mu, sd = xtr.mean(0), xtr.std(0)
            sd = np.where(sd == 0, 1.0, sd)
            ztr = (xtr - mu) / sd
            beta = np.linalg.inv(ztr.T @ ztr + ridge * np.eye(10)) @ ztr.T @ (ytr - ytr.mean())
            expected[test] = ((x[test] - mu) / sd) @ beta + ytr.mean()
        assert np.abs(got - expected).max() < 1e-8

    def test_rank_deficient_needs_ridge(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(30, 4))
        x = np.hstack([base, base[:, :1]])  # duplicated column
        y = rng.normal(size=30)
        with pytest.raises(RankDeficientError):
            regression_cv(x, y, folds=5, ridge=0.0, seed=0)
        rmse, _ = regression_cv(x, y, folds=5, ridge=1e-2, seed=0)
        assert math.isfinite(rmse)

    def test_singular_solve_is_rank_deficient(self, monkeypatch):
        """A non-zero ridge too small to make the normal equations
        invertible raises RankDeficientError, not numpy's LinAlgError."""

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(8, 3)), rng.normal(size=8)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(RankDeficientError, match="at ridge 1e-30; use a larger ridge penalty"):
            regression_cv(x, y, folds=2, ridge=1e-30, seed=0)

    @pytest.mark.parametrize("ridge", [1e-15, 1e-30])
    def test_negligible_ridge_on_rank_deficient_design_raises(self, ridge):
        """4 rows of 8 dimensions: a ridge within the Gram matrix's rounding
        would solve to noise, so it counts as zero."""
        rng = np.random.default_rng(6)
        with pytest.raises(RankDeficientError, match=f"at ridge {ridge!r}; use a larger ridge penalty"):
            ridge_fit(rng.normal(size=(4, 8)), rng.normal(size=4), ridge)

    def test_full_rank_design_solves_at_negligible_ridge(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 8))
        y = x @ rng.normal(size=8)
        params = ridge_fit(x, y, 1e-30)
        assert np.abs(ridge_predict(params, x) - y).max() < 1e-9

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        _, pred1 = regression_cv(x, y, folds=5, ridge=0.1, seed=1)
        _, pred2 = regression_cv(5.0 * x, y, folds=5, ridge=0.1, seed=1)
        assert np.abs(pred1 - pred2).max() < 1e-8

    def test_model_level_wrapper(self):
        rng = np.random.default_rng(5)
        tokens = [f"e{i}" for i in range(20)]
        model = make_model(tokens, rng.normal(size=(20, 4)))
        data = [(t, float(i)) for i, t in enumerate(tokens)]
        rmse = linear_regression_cv(model, data, folds=5, ridge=1e-2, seed=0)
        assert math.isfinite(rmse)


def angled_vectors(count):
    """Vectors at increasing angle from [1, 0]: cosine to the first one is
    strictly decreasing."""
    return [[math.cos(i * 0.2), math.sin(i * 0.2)] for i in range(count)]


class TestEntityRelatedness:
    def setup_model(self, n=6):
        tokens = ["seed"] + [f"c{i}" for i in range(n - 1)]
        return make_model(tokens, angled_vectors(n))

    def test_gold_equals_cosine_ranking(self):
        model = self.setup_model(6)
        gold = [("seed", ["c0", "c1", "c2", "c3", "c4"])]
        per_seed, mean = entity_relatedness_eval(model, gold)
        assert per_seed == [("seed", pytest.approx(1.0))]
        assert mean == pytest.approx(1.0)

    def test_reversed_gold(self):
        model = self.setup_model(6)
        gold = [("seed", ["c4", "c3", "c2", "c1", "c0"])]
        _, mean = entity_relatedness_eval(model, gold)
        assert mean == pytest.approx(-1.0)

    def test_adjacent_swap_matches_rank_formula(self):
        model = self.setup_model(6)
        gold = [("seed", ["c0", "c2", "c1", "c3", "c4"])]  # swap positions 2 and 3
        _, mean = entity_relatedness_eval(model, gold)
        # d = (0, 1, -1, 0, 0): rho = 1 - 6*2 / (5*24)
        assert mean == pytest.approx(1 - 12 / 120, abs=1e-12)

    def test_seed_skipped_when_over_half_candidates_missing(self):
        model = self.setup_model(4)  # knows c0..c2
        gold = [
            ("seed", ["c0", "ghost1", "ghost2", "ghost3"]),
            ("seed", ["c0", "c1", "c2"]),
        ]
        per_seed, _ = entity_relatedness_eval(model, gold)
        assert len(per_seed) == 1

    def test_all_seeds_unusable_is_an_error(self):
        model = self.setup_model(4)
        with pytest.raises(EvalError):
            entity_relatedness_eval(model, [("ghost", ["c0", "c1"])])

    def test_mean_over_multiple_seeds(self):
        model = self.setup_model(6)
        gold = [
            ("seed", ["c0", "c1", "c2", "c3", "c4"]),
            ("seed", ["c4", "c3", "c2", "c1", "c0"]),
        ]
        per_seed, mean = entity_relatedness_eval(model, gold)
        assert len(per_seed) == 2
        assert mean == pytest.approx(0.0, abs=1e-12)


class TestDocumentRelatedness:
    def test_gold_equal_to_predictions_scores_one(self):
        rng = np.random.default_rng(1)
        tokens = [f"e{i}" for i in range(12)]
        model = make_model(tokens, rng.normal(size=(12, 4)))
        documents = {f"d{i}": [tokens[2 * i], tokens[2 * i + 1]] for i in range(6)}
        centroids = {
            d: np.mean([model.vector(e) for e in ents], axis=0) for d, ents in documents.items()
        }
        pairs = []
        names = list(documents)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                pairs.append((a, b, cos64(centroids[a], centroids[b])))
        assert document_relatedness_eval(model, documents, pairs) == pytest.approx(1.0, abs=1e-9)

    def test_identical_documents_predict_cosine_one(self):
        model = make_model(["x", "y"], [[1.0, 2.0], [0.5, -1.0]])
        documents = {"d1": ["x", "y"], "d2": ["x", "y"], "d3": ["x"], "d4": ["y"]}
        centroid_pairs = [("d1", "d2", 5.0), ("d1", "d3", 1.0), ("d3", "d4", 0.5), ("d2", "d4", 0.7)]
        # the d1/d2 prediction must be exactly 1.0: identical centroids
        c = np.mean([model.vector("x"), model.vector("y")], axis=0)
        assert cos64(c, c) == pytest.approx(1.0)
        score = document_relatedness_eval(model, documents, centroid_pairs)
        assert math.isfinite(score)

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(7)
        tokens = [f"e{i}" for i in range(20)]
        model = make_model(tokens, rng.normal(size=(20, 5)))
        documents = {f"d{i}": rng.choice(tokens, size=3, replace=False).tolist() for i in range(10)}
        names = list(documents)
        pairs = []
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                pairs.append((a, b, float(rng.random())))
        got = document_relatedness_eval(model, documents, pairs)
        # composition oracle built from scratch
        centroids = {
            d: np.mean([np.asarray(model.vector(e), float) for e in ents], axis=0)
            for d, ents in documents.items()
        }
        predicted = [cos64(centroids[a], centroids[b]) for a, b, _ in pairs]
        gold = [s for _, _, s in pairs]

        def pearson_o(xs, ys):
            mx, my = np.mean(xs), np.mean(ys)
            return float(
                np.sum((np.array(xs) - mx) * (np.array(ys) - my))
                / math.sqrt(np.sum((np.array(xs) - mx) ** 2) * np.sum((np.array(ys) - my) ** 2))
            )

        def ranks_o(xs):
            order = sorted(range(len(xs)), key=lambda i: xs[i])
            out = [0.0] * len(xs)
            for position, i in enumerate(order):
                out[i] = position + 1.0
            return out

        p = pearson_o(predicted, gold)
        s = pearson_o(ranks_o(predicted), ranks_o(gold))
        expected = 2 * p * s / (p + s)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_documents_excluded(self):
        model = make_model(["x", "y"], [[1.0, 0.0], [0.0, 1.0]])
        documents = {"d1": ["x"], "d2": ["y"], "d3": ["ghost"]}
        pairs = [("d1", "d2", 0.5), ("d1", "d3", 0.9), ("d2", "d3", 0.4)]
        with pytest.raises(EvalError):  # only one scorable pair remains
            document_relatedness_eval(model, documents, pairs)


class TestWalkDensity:
    def corpus_of(self, token_walks, entities):
        return WalkCorpus([Walk(list(t), 0) for t in token_walks], list(entities), None)

    def test_single_walk(self):
        report = walk_density(self.corpus_of([["A", "p", "B"]], ["A"]))
        assert report.nodes == 2
        assert report.edges == 1
        assert report.density == pytest.approx(0.5)
        assert report.mean_anchor_degree == pytest.approx(1.0)

    def test_duplicate_walks_do_not_change_report(self):
        once = walk_density(self.corpus_of([["A", "p", "B"]], ["A"]))
        twice = walk_density(self.corpus_of([["A", "p", "B"]] * 5, ["A"]))
        assert once == twice

    def test_empty_corpus_rejected(self):
        with pytest.raises(EvalError):
            walk_density(self.corpus_of([], []))

    def test_cluster_fixture_denser_than_star_with_same_nodes(self):
        graph, nodes_a, nodes_b = two_cluster_fixture(size=6)
        cfg = WalkConfig(walks_per_entity=40, depth=4, seed=0)
        cluster_corpus = generate_light_walks(graph, nodes_a + nodes_b, cfg)
        cluster_report = walk_density(cluster_corpus)

        star_graph, leaves_a, leaves_b = star_fixture(leaves_per_hub=(cluster_report.nodes - 2) // 2)
        star_corpus = generate_light_walks(star_graph, leaves_a + leaves_b, cfg)
        star_report = walk_density(star_corpus)

        assert star_report.nodes == cluster_report.nodes
        assert cluster_report.density > star_report.density

    def test_round_trip_through_corpus_file(self, tmp_path):
        graph, nodes_a, nodes_b = two_cluster_fixture(size=4)
        cfg = WalkConfig(walks_per_entity=10, depth=3, seed=5)
        corpus = generate_light_walks(graph, nodes_a + nodes_b, cfg)
        before = walk_density(corpus)
        path = tmp_path / "walks.txt"
        write_corpus(corpus, path)
        walks = [Walk([graph.lookup(t) for t in tokens], 0) for tokens in read_corpus_tokens(path)]
        reloaded = WalkCorpus(walks, [graph.lookup(e) for e in nodes_a + nodes_b], cfg)
        assert walk_density(reloaded) == before

    def test_self_loop_and_parallel_predicates(self):
        report = walk_density(
            self.corpus_of([["A", "p", "A"], ["A", "p", "B"], ["A", "q", "B"]], ["A"])
        )
        assert report.edges == 3  # labeled transitions
        assert report.nodes == 2
        assert report.density == pytest.approx(0.5)  # one directed pair out of two
        assert 0.0 <= report.density <= 1.0


# whitespace to str.strip() that is not ASCII whitespace: part of a token
OTHER_WHITESPACE = ["\u00a0", "\u2028", "\x1c", "\x1d", "\x1e", "\x1f"]


def with_char(value, char):
    """``value`` with each ``~`` in its strings replaced by ``char``."""
    if isinstance(value, str):
        return value.replace("~", char)
    if isinstance(value, dict):
        return {with_char(k, char): with_char(v, char) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(with_char(v, char) for v in value)
    return value


class TestGoldLoaders:
    def test_labeled_entities(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("# comment\nhttp://ex/a\tcity\nhttp://ex/b\tcountry\n\n")
        assert load_labeled_entities(path) == [("http://ex/a", "city"), ("http://ex/b", "country")]

    def test_labeled_entities_bad_row(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("onlyonefield\n")
        with pytest.raises(EvalError):
            load_labeled_entities(path)

    def test_labeled_entities_duplicate(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("a\tx\na\ty\n")
        with pytest.raises(EvalError):
            load_labeled_entities(path)

    def test_regression_targets(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("http://ex/a\t1.5\nhttp://ex/b\t-2\n")
        assert load_regression_targets(path) == [("http://ex/a", 1.5), ("http://ex/b", -2.0)]

    def test_regression_rejects_non_finite(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("a\tnan\n")
        with pytest.raises(EvalError):
            load_regression_targets(path)

    def test_entity_relatedness_file(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("http://ex/seed1\n\thttp://ex/c1\n\thttp://ex/c2\nhttp://ex/seed2\n\thttp://ex/c3\n")
        gold = load_entity_relatedness_gold(path)
        assert gold == [
            ("http://ex/seed1", ["http://ex/c1", "http://ex/c2"]),
            ("http://ex/seed2", ["http://ex/c3"]),
        ]

    def test_entity_relatedness_candidate_without_seed(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("\thttp://ex/c1\n")
        with pytest.raises(EvalError):
            load_entity_relatedness_gold(path)

    def test_document_relatedness_file(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text(
            "doc\td1\thttp://ex/a http://ex/b\n"
            "doc\td2\thttp://ex/c\n"
            "pair\td1\td2\t3.25\n"
        )
        documents, pairs = load_document_relatedness_gold(path)
        assert documents == {"d1": ["http://ex/a", "http://ex/b"], "d2": ["http://ex/c"]}
        assert pairs == [("d1", "d2", 3.25)]

    @pytest.mark.parametrize("char", OTHER_WHITESPACE)
    def test_document_entities_split_on_spaces_only(self, tmp_path, char):
        path = tmp_path / "gold.tsv"
        path.write_text(f"doc\td1\t http://ex/a{char}b  http://ex/c \n", encoding="utf-8")
        documents, _ = load_document_relatedness_gold(path)
        assert documents == {"d1": [f"http://ex/a{char}b", "http://ex/c"]}

    @pytest.mark.parametrize("char", OTHER_WHITESPACE)
    @pytest.mark.parametrize(
        "load, text, expected",
        [
            (load_labeled_entities, " ~http://ex/a~ \t ~x~\r\n", [("~http://ex/a~", "~x~")]),
            (load_regression_targets, "\x0b~http://ex/a~\x0c\t 1.5 \r\n", [("~http://ex/a~", 1.5)]),
            (load_entity_relatedness_gold, " ~http://ex/s~\t\r\n\t ~http://ex/c~ \r\n", [("~http://ex/s~", ["~http://ex/c~"])]),
            (load_document_relatedness_gold, " doc \t d1 \t ~http://ex/a~ \r\n", ({"d1": ["~http://ex/a~"]}, [])),
        ],
        ids=["classify", "regress", "entity-rel", "doc-rel"],
    )
    def test_only_ascii_whitespace_is_trimmed(self, tmp_path, char, load, text, expected):
        """Spaces, tabs, CRs, VT and FF around a field go; any other
        whitespace (``~`` in the cases) is part of the token."""
        path = tmp_path / "gold.tsv"
        path.write_bytes(text.replace("~", char).encode("utf-8"))
        assert load(path) == with_char(expected, char)

    def test_document_relatedness_bad_kind(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("banana\td1\tx\n")
        with pytest.raises(EvalError):
            load_document_relatedness_gold(path)


class TestResultsCsv:
    def test_header_and_four_decimals(self):
        text = results_csv("Light_500_4_SG_100", "classify", [("accuracy", 0.95)])
        lines = text.splitlines()
        assert lines[0] == "strategy,task,metric,value"
        assert lines[1] == "Light_500_4_SG_100,classify,accuracy,0.9500"

    def test_integers_stay_integers(self):
        text = results_csv("s", "density", [("nodes", 12), ("density", 0.25)])
        assert "s,density,nodes,12" in text
        assert "s,density,density,0.2500" in text
