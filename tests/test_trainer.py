import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import bidirectional_neighborhood, two_cluster_fixture
from kgembed.trainer import (
    _MAX_ROW_UPDATE,
    _add_rows_clipped,
    _process_cbow_chunk,
    _process_sg_chunk,
    EmptyCorpusError,
    EmptyVocabularyError,
    ModelFormatError,
    TrainConfig,
    UnknownTokenError,
    build_vocabulary,
    load_model,
    save_model,
    sgns_gradient,
    sgns_loss,
    train,
)
from kgembed.vector_ops import cosine
from kgembed.walker import WalkConfig, generate_light_walks


def cluster_cosine_means(model, nodes_a, nodes_b):
    entities = nodes_a + nodes_b
    intra, inter = [], []
    for i, a in enumerate(entities):
        for b in entities[i + 1 :]:
            score = cosine(model.vector(a), model.vector(b))
            same = (a in nodes_a) == (b in nodes_a)
            (intra if same else inter).append(score)
    return float(np.mean(intra)), float(np.mean(inter))


class TestVocabulary:
    def test_single_walk_counts(self):
        vocab = build_vocabulary([["A", "p", "B"]], min_count=1)
        assert sorted(vocab.tokens) == ["A", "B", "p"]
        assert all(vocab.counts == 1)

    def test_min_count_floor_empties_vocabulary(self):
        vocab = build_vocabulary([["A", "p", "B"]], min_count=2)
        assert len(vocab) == 0
        with pytest.raises(EmptyVocabularyError):
            train([["A", "p", "B"]], TrainConfig(min_count=2, dimension=4))

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([], min_count=1)
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([[]], min_count=1)

    def test_sampling_table_power_law(self):
        vocab = build_vocabulary([["A"] * 8 + ["B"]], min_count=1)
        ia, ib = vocab.index["A"], vocab.index["B"]
        ratio = vocab.sampling_probs[ia] / vocab.sampling_probs[ib]
        assert ratio == pytest.approx(8 ** 0.75, rel=1e-12)

    def test_ordered_by_descending_frequency(self):
        vocab = build_vocabulary([["x", "y", "y", "z", "z", "z"]], min_count=1)
        assert vocab.tokens == ["z", "y", "x"]


class TestSgnsGradient:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(0)
        center, context = rng.normal(size=10), rng.normal(size=10)
        negatives = rng.normal(size=(4, 10))
        nc, nx, nn = sgns_gradient(center, context, negatives, lr=0.0)
        assert np.array_equal(nc, center)
        assert np.array_equal(nx, context)
        assert np.array_equal(nn, negatives)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            k = int(rng.integers(0, 6))
            center = rng.normal(size=10)
            context = rng.normal(size=10)
            negatives = rng.normal(size=(k, 10))
            analytic = _analytic_gradient(center, context, negatives)
            numeric = _fd_gradient(center, context, negatives)
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_saturated_pair_barely_moves(self):
        direction = np.ones(10) / np.sqrt(10)
        center = 20.0 * direction
        context = 20.0 * direction  # sigma(400) is 1 to machine precision
        nc, nx, _ = sgns_gradient(center, context, np.zeros((0, 10)), lr=0.1)
        assert np.linalg.norm(nc - center) < 1e-9
        assert np.linalg.norm(nx - context) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sgns_gradient(np.zeros(3), np.zeros(4), np.zeros((1, 3)), lr=0.1)
        with pytest.raises(ValueError):
            sgns_gradient(np.zeros(3), np.zeros(3), np.zeros((1, 4)), lr=0.1)

    def test_loss_decreases_along_the_step(self):
        rng = np.random.default_rng(2)
        center, context = rng.normal(size=8), rng.normal(size=8)
        negatives = rng.normal(size=(3, 8))
        before = sgns_loss(center, context, negatives)
        nc, nx, nn = sgns_gradient(center, context, negatives, lr=0.05)
        after = sgns_loss(nc, nx, nn)
        assert after < before


def _analytic_gradient(center, context, negatives):
    lr = 0.5
    nc, nx, nn = sgns_gradient(center, context, negatives, lr=lr)
    parts = [(center - nc) / lr, (context - nx) / lr]
    if negatives.size:
        parts.append(((negatives - nn) / lr).ravel())
    return np.concatenate(parts)


def _fd_gradient(center, context, negatives, h=1e-6):
    theta = np.concatenate([center, context, negatives.ravel()])
    dim = center.shape[0]

    def unpack(t):
        return t[:dim], t[dim : 2 * dim], t[2 * dim :].reshape(-1, dim)

    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (sgns_loss(*unpack(plus)) - sgns_loss(*unpack(minus))) / (2 * h)
    return grad


@pytest.fixture(scope="module")
def cluster_corpus():
    graph, nodes_a, nodes_b = two_cluster_fixture(size=6)
    cfg = WalkConfig(walks_per_entity=60, depth=4, seed=3)
    corpus = generate_light_walks(graph, nodes_a + nodes_b, cfg)
    return graph, nodes_a, nodes_b, corpus.sentences()


@pytest.fixture(scope="module")
def sg_cluster_model(cluster_corpus):
    _, _, _, sentences = cluster_corpus
    return train(sentences, TrainConfig(mode="sg", dimension=50, seed=3))


class TestTraining:
    def test_shape_contract(self, cluster_corpus):
        _, _, _, sentences = cluster_corpus
        cfg = TrainConfig(mode="sg", dimension=17, epochs=1, seed=0)
        model = train(sentences, cfg)
        assert model.vectors.shape == (len(model.vocabulary), 17)
        for token in model.vocabulary.tokens:
            assert model.vector(token).shape == (17,)
        assert np.isfinite(model.vectors).all()

    def test_deterministic_single_worker(self, cluster_corpus):
        _, _, _, sentences = cluster_corpus
        cfg = TrainConfig(mode="sg", dimension=12, epochs=2, seed=5)
        first = train(sentences, cfg)
        second = train(sentences, cfg)
        assert np.array_equal(first.vectors, second.vectors)
        assert np.array_equal(first.context_vectors, second.context_vectors)
        assert first.epoch_losses == second.epoch_losses

    def test_two_cluster_cosine_ordering_sg(self, cluster_corpus, sg_cluster_model):
        _, nodes_a, nodes_b, _ = cluster_corpus
        intra, inter = cluster_cosine_means(sg_cluster_model, nodes_a, nodes_b)
        assert intra > inter

    def test_two_cluster_cosine_ordering_cbow(self, cluster_corpus):
        _, nodes_a, nodes_b, sentences = cluster_corpus
        model = train(sentences, TrainConfig(mode="cbow", dimension=50, seed=3))
        intra, inter = cluster_cosine_means(model, nodes_a, nodes_b)
        assert intra > inter

    def test_loss_non_increasing_with_tolerance(self, sg_cluster_model):
        losses = sg_cluster_model.epoch_losses
        assert len(losses) == 5
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier * 1.05

    def test_vocabulary_within_walk_neighborhood(self, cluster_corpus):
        graph, nodes_a, nodes_b, sentences = cluster_corpus
        model = train(sentences, TrainConfig(mode="sg", dimension=8, epochs=1, seed=0))
        entity_ids = [graph.lookup(t) for t in nodes_a + nodes_b]
        allowed_nodes = {graph.resolve(i) for i in bidirectional_neighborhood(graph, entity_ids, depth=4)}
        predicates = {graph.resolve(p) for _, p, _ in graph.triples()}
        for token in model.vocabulary.tokens:
            assert token in allowed_nodes or token in predicates

    def test_multi_worker_keeps_cluster_ordering(self, cluster_corpus):
        _, nodes_a, nodes_b, sentences = cluster_corpus
        model = train(sentences, TrainConfig(mode="sg", dimension=32, seed=3), workers=3)
        intra, inter = cluster_cosine_means(model, nodes_a, nodes_b)
        assert intra > inter

    def test_singleton_sentences_yield_initialized_model(self):
        model = train([["only"]], TrainConfig(dimension=6, epochs=2, seed=1))
        assert model.vectors.shape == (1, 6)
        assert model.epoch_losses == []

    def test_negatives_zero_trains(self, cluster_corpus):
        _, _, _, sentences = cluster_corpus
        model = train(sentences, TrainConfig(mode="sg", dimension=8, epochs=1, negatives=0, seed=0))
        assert np.isfinite(model.vectors).all()

    def test_progress_logged_per_epoch(self, cluster_corpus, caplog):
        _, _, _, sentences = cluster_corpus
        with caplog.at_level(logging.INFO, logger="kgembed"):
            train(sentences, TrainConfig(mode="sg", dimension=4, epochs=2, negatives=2, seed=0))
        text = caplog.text
        assert "epoch=1" in text and "epoch=2" in text
        assert "tokens/sec=" in text and "loss=" in text

    @pytest.mark.parametrize("mode", ["sg", "cbow"])
    def test_epoch_stats_recorded(self, cluster_corpus, mode):
        _, _, _, sentences = cluster_corpus
        model = train(sentences, TrainConfig(mode=mode, dimension=8, epochs=3, negatives=3, seed=0))
        assert len(model.epoch_stats) == 3
        assert model.epoch_losses == [e.loss for e in model.epoch_stats]
        for stats in model.epoch_stats:
            assert stats.seconds > 0 and stats.pairs_per_s > 0
            assert stats.row_updates > 0
            assert 0 <= stats.rows_clipped <= stats.row_updates

    def test_config_validation(self):
        for bad in (
            dict(mode="glove"),
            dict(dimension=0),
            dict(window=0),
            dict(negatives=-1),
            dict(epochs=0),
            dict(min_count=0),
            dict(seed=-1),
            dict(initial_learning_rate=0.0),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_default_learning_rates(self):
        assert TrainConfig(mode="sg").learning_rate == 0.025
        assert TrainConfig(mode="cbow").learning_rate == 0.05
        assert TrainConfig(mode="sg", initial_learning_rate=0.1).learning_rate == 0.1


# --------------------------------------------------------------------------
# The reduce-by-key kernels against the np.add.at kernels they replaced
# --------------------------------------------------------------------------

F32_TOL = dict(rtol=1e-5, atol=1e-6)


def _reference_scatter_add_clipped(table, indices, updates):
    if indices.size == 0:
        return
    uniq, inverse = np.unique(indices, return_inverse=True)
    buf = np.zeros((uniq.size, table.shape[1]), dtype=table.dtype)
    np.add.at(buf, inverse, updates)
    norms = np.sqrt((buf * buf).sum(axis=1))
    np.maximum(norms, _MAX_ROW_UPDATE, out=norms)
    buf *= (_MAX_ROW_UPDATE / norms)[:, None]
    table[uniq] += buf


def _reference_sg_chunk(w_in, w_out, centers, contexts, negatives, lr):
    dim = w_out.shape[1]
    vc = w_in[centers]
    uo = w_out[contexts]
    pos = np.einsum("bd,bd->b", vc, uo)
    gp = 1.0 - 1.0 / (1.0 + np.exp(-pos))
    loss = float(np.logaddexp(0.0, -pos).sum(dtype=np.float64))
    duo = gp[:, None] * vc
    if negatives.size:
        un = w_out[negatives]
        ns = np.einsum("bd,bkd->bk", vc, un)
        live = negatives != contexts[:, None]
        gn = np.where(live, -1.0 / (1.0 + np.exp(-ns)), np.float32(0.0))
        loss += float(np.logaddexp(0.0, np.where(live, ns, np.float32(-np.inf))).sum(dtype=np.float64))
        dvc = gp[:, None] * uo + np.einsum("bk,bkd->bd", gn, un)
        dun = gn[..., None] * vc[:, None, :]
        out_rows = np.concatenate([contexts, negatives.ravel()])
        out_updates = np.concatenate([lr * duo, (lr * dun).reshape(-1, dim)])
    else:
        dvc = gp[:, None] * uo
        out_rows, out_updates = contexts, lr * duo
    _reference_scatter_add_clipped(w_in, centers, lr * dvc)
    _reference_scatter_add_clipped(w_out, out_rows, out_updates)
    return loss


def _reference_cbow_chunk(w_in, w_out, centers, ctx, mask, negatives, lr):
    dim = w_out.shape[1]
    vctx = w_in[ctx]
    counts = mask.sum(axis=1)
    h = np.einsum("bwd,bw->bd", vctx, mask) / counts[:, None]
    uc = w_out[centers]
    pos = np.einsum("bd,bd->b", h, uc)
    gp = 1.0 - 1.0 / (1.0 + np.exp(-pos))
    loss = float(np.logaddexp(0.0, -pos).sum(dtype=np.float64))
    dh = gp[:, None] * uc
    duc = gp[:, None] * h
    if negatives.size:
        un = w_out[negatives]
        ns = np.einsum("bd,bkd->bk", h, un)
        live = negatives != centers[:, None]
        gn = np.where(live, -1.0 / (1.0 + np.exp(-ns)), np.float32(0.0))
        loss += float(np.logaddexp(0.0, np.where(live, ns, np.float32(-np.inf))).sum(dtype=np.float64))
        dh = dh + np.einsum("bk,bkd->bd", gn, un)
        dun = gn[..., None] * h[:, None, :]
        out_rows = np.concatenate([centers, negatives.ravel()])
        out_updates = np.concatenate([lr * duc, (lr * dun).reshape(-1, dim)])
    else:
        out_rows, out_updates = centers, lr * duc
    _reference_scatter_add_clipped(w_out, out_rows, out_updates)
    dctx = (lr / counts)[:, None, None] * dh[:, None, :] * mask[..., None]
    _reference_scatter_add_clipped(w_in, ctx.ravel(), dctx.reshape(-1, dim))
    return loss


def _tables(rng, vocab, dim):
    w_in = (rng.random((vocab, dim)) - 0.5).astype(np.float32)
    w_out = (rng.random((vocab, dim)) - 0.5).astype(np.float32)
    return w_in, w_out


def _draws(rng, positives, vocab, k):
    negatives = rng.integers(0, vocab, size=(positives.shape[0], k))
    if k:
        negatives[0, 0] = positives[0]  # a draw equal to the positive
    return negatives


class TestReduceByKeyKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        vocab=st.integers(1, 6),
        dim=st.integers(1, 5),
        n=st.integers(0, 25),
        sources=st.integers(1, 5),
        scale=st.sampled_from([0.01, 1.0, 10.0]),
    )
    @example(seed=0, vocab=4, dim=3, n=0, sources=2, scale=1.0)  # empty input
    @example(seed=1, vocab=4, dim=3, n=1, sources=1, scale=1.0)  # a single row
    @example(seed=2, vocab=1, dim=3, n=12, sources=3, scale=0.01)  # one row, many duplicates
    @example(seed=3, vocab=3, dim=4, n=20, sources=4, scale=10.0)  # totals past the clip
    def test_matches_add_at_and_clip(self, seed, vocab, dim, n, sources, scale):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(vocab, dim)).astype(np.float32)
        rows = rng.integers(0, vocab, size=n)
        owner = rng.integers(0, sources, size=n)
        src = rng.normal(size=(sources, dim)).astype(np.float32)
        weights = (scale * rng.normal(size=n)).astype(np.float32)

        expected = table.copy()
        _reference_scatter_add_clipped(expected, rows, weights[:, None] * src[owner])
        updated, clipped = _add_rows_clipped(table, rows, src, owner, weights)

        np.testing.assert_allclose(table, expected, **F32_TOL)
        assert updated == np.unique(rows).size
        totals = np.zeros((vocab, dim))
        np.add.at(totals, rows, weights[:, None].astype(np.float64) * src[owner])
        norms = np.linalg.norm(totals, axis=1)
        assert (norms > _MAX_ROW_UPDATE * 1.001).sum() <= clipped <= (norms > _MAX_ROW_UPDATE * 0.999).sum()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        vocab=st.integers(1, 12),
        dim=st.integers(1, 6),
        batch=st.integers(1, 20),
        k=st.integers(0, 4),
        lr=st.sampled_from([0.025, 0.5, 4.0]),
    )
    @example(seed=0, vocab=5, dim=3, batch=6, k=0, lr=0.5)  # negatives=0
    def test_sg_chunk_matches_reference(self, seed, vocab, dim, batch, k, lr):
        rng = np.random.default_rng(seed)
        w_in, w_out = _tables(rng, vocab, dim)
        centers = rng.integers(0, vocab, size=batch)
        contexts = rng.integers(0, vocab, size=batch)
        negatives = _draws(rng, contexts, vocab, k)
        lr = np.float32(lr)

        ref_in, ref_out = w_in.copy(), w_out.copy()
        ref_loss = _reference_sg_chunk(ref_in, ref_out, centers, contexts, negatives, lr)
        loss, examples, updated, clipped = _process_sg_chunk(w_in, w_out, centers, contexts, negatives, lr)

        assert examples == batch
        assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-6)
        np.testing.assert_allclose(w_in, ref_in, **F32_TOL)
        np.testing.assert_allclose(w_out, ref_out, **F32_TOL)
        assert updated == np.unique(centers).size + np.unique(np.concatenate([contexts, negatives.ravel()])).size
        assert 0 <= clipped <= updated

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        vocab=st.integers(1, 12),
        dim=st.integers(1, 6),
        batch=st.integers(1, 20),
        window=st.integers(1, 3),
        k=st.integers(0, 4),
        lr=st.sampled_from([0.05, 0.5, 4.0]),
    )
    @example(seed=0, vocab=5, dim=3, batch=6, window=2, k=0, lr=0.5)  # negatives=0
    def test_cbow_chunk_matches_reference(self, seed, vocab, dim, batch, window, k, lr):
        rng = np.random.default_rng(seed)
        w_in, w_out = _tables(rng, vocab, dim)
        centers = rng.integers(0, vocab, size=batch)
        ctx = rng.integers(0, vocab, size=(batch, 2 * window))
        mask = (rng.random((batch, 2 * window)) < 0.6).astype(np.float32)
        mask[:, 0] = 1.0  # every group keeps at least one live slot
        negatives = _draws(rng, centers, vocab, k)
        lr = np.float32(lr)

        ref_in, ref_out = w_in.copy(), w_out.copy()
        ref_loss = _reference_cbow_chunk(ref_in, ref_out, centers, ctx, mask, negatives, lr)
        loss, examples, updated, clipped = _process_cbow_chunk(w_in, w_out, centers, ctx, mask, negatives, lr)

        assert examples == batch
        assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-6)
        np.testing.assert_allclose(w_in, ref_in, **F32_TOL)
        np.testing.assert_allclose(w_out, ref_out, **F32_TOL)
        live_slots = ctx[mask > 0]
        assert updated == np.unique(live_slots).size + np.unique(np.concatenate([centers, negatives.ravel()])).size
        assert 0 <= clipped <= updated


class TestModelFiles:
    LIT = '"New York"@en'

    def trained(self):
        sentences = [["http://ex/a", "http://ex/p", "http://ex/b", "http://ex/q", self.LIT]] * 4
        return train(sentences, TrainConfig(mode="sg", dimension=7, epochs=1, seed=2))

    def test_round_trip_exact(self, tmp_path):
        model = self.trained()
        path = tmp_path / "model.txt"
        assert save_model(model, path) == len(model.vocabulary)
        loaded = load_model(path)
        assert loaded.vocabulary.tokens == model.vocabulary.tokens
        assert loaded.vectors.dtype == np.float32
        assert np.array_equal(loaded.vectors, model.vectors)

    def test_round_trip_gzip(self, tmp_path):
        model = self.trained()
        path = tmp_path / "model.txt.gz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.vectors, model.vectors)

    def test_header_body_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("3 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("1 3\na 1 2\n")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert err.value.line == 2

    def test_bad_float(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("1 2\na 1 x\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("banana\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("2 1\na 1\na 2\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_token_lookup(self, tmp_path):
        model = self.trained()
        with pytest.raises(UnknownTokenError):
            model.vector("http://ex/ghost")
