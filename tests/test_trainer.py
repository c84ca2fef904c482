import logging
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_walk_examples as per_walk
import unbuffered_kernel
from fixtures import bidirectional_neighborhood, two_cluster_fixture
from kgembed.trainer import (
    MODES,
    _MAX_ROW_UPDATE,
    _WorkBuffers,
    _add_rows_clipped,
    _corpus_ids,
    _examples,
    _process_chunk,
    EmptyCorpusError,
    EmptyVocabularyError,
    ModelFormatError,
    TrainConfig,
    UnknownTokenError,
    clipping_warning,
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

    @pytest.mark.parametrize("mode", MODES)
    def test_warns_when_final_epoch_clips_most_rows(self, cluster_corpus, caplog, mode):
        _, _, _, sentences = cluster_corpus
        with caplog.at_level(logging.WARNING, logger="kgembed"):
            model = train(sentences, TrainConfig(mode=mode, dimension=8, epochs=1, initial_learning_rate=1e30))
        last = model.epoch_stats[-1]
        assert last.rows_clipped > last.row_updates / 2
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [clipping_warning(model)]
        assert "learning rate 1e+30" in warnings[0].getMessage()

    @pytest.mark.parametrize("mode", MODES)
    def test_default_rate_warns_of_nothing(self, cluster_corpus, caplog, mode):
        _, _, _, sentences = cluster_corpus
        with caplog.at_level(logging.WARNING, logger="kgembed"):
            model = train(sentences, TrainConfig(mode=mode, dimension=8, epochs=2))
        assert clipping_warning(model) is None
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

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


def _sg_examples(centers):
    # a skip-gram pair is an example with one always-live input slot
    return centers[:, None], np.broadcast_to(np.float32(1), (centers.shape[0], 1))


def _chunk(w_in, w_out, inputs, mask, targets, negatives, lr):
    """``_process_chunk`` on a work buffer set sized for this one chunk."""
    (batch, width), (groups, k) = inputs.shape, negatives.shape
    work = _WorkBuffers(batch, groups, width, k, w_in.shape[1], w_in.shape[0])
    return _process_chunk(w_in, w_out, inputs, mask, targets, negatives, lr, work)


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
        updated, clipped = _add_rows_clipped(table, rows, src, owner, weights, _WorkBuffers(n, 0, 1, 0, dim, vocab))

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
        loss, examples, updated, clipped = _chunk(w_in, w_out, *_sg_examples(centers), contexts, negatives, lr)

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
        loss, examples, updated, clipped = _chunk(w_in, w_out, ctx, mask, centers, negatives, lr)

        assert examples == batch
        assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-6)
        np.testing.assert_allclose(w_in, ref_in, **F32_TOL)
        np.testing.assert_allclose(w_out, ref_out, **F32_TOL)
        live_slots = ctx[mask > 0]
        assert updated == np.unique(live_slots).size + np.unique(np.concatenate([centers, negatives.ravel()])).size
        assert 0 <= clipped <= updated


# --------------------------------------------------------------------------
# Shared negatives: one row of draws per group of m consecutive examples,
# against the per-example np.add.at kernels with each group's row tiled
# --------------------------------------------------------------------------


def _group_draws(rng, positives, cap, vocab, k):
    # one row per group of at most cap examples, as train() draws them; the
    # kernel then sizes every group ceil(B / G), so that no group is empty
    groups = -(-positives.shape[0] // cap)
    m = -(-positives.shape[0] // groups)
    negatives = rng.integers(0, vocab, size=(groups, k))
    if k:
        negatives[:, 0] = positives[::m]  # each group's first example draws its own positive
    return negatives, negatives[np.arange(positives.shape[0]) // m]


class TestGroupedNegatives:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(MODES),
        vocab=st.integers(1, 12),
        dim=st.integers(1, 6),
        batch=st.integers(1, 20),
        cap=st.integers(1, 24),
        window=st.integers(1, 3),
        k=st.integers(0, 4),
        live_share=st.sampled_from([0.2, 0.6, 1.0]),
        lr=st.sampled_from([0.025, 0.5, 4.0]),
    )
    @example(seed=0, mode="sg", vocab=5, dim=3, batch=6, cap=4, window=1, k=0, live_share=1.0, lr=0.5)  # negatives=0
    @example(seed=0, mode="cbow", vocab=5, dim=3, batch=6, cap=2, window=2, k=0, live_share=0.6, lr=0.5)
    @example(seed=1, mode="sg", vocab=9, dim=4, batch=10, cap=4, window=1, k=3, live_share=1.0, lr=0.5)  # partial last group
    @example(seed=2, mode="cbow", vocab=9, dim=4, batch=11, cap=3, window=2, k=3, live_share=0.6, lr=0.5)
    @example(seed=3, mode="sg", vocab=8, dim=3, batch=7, cap=1, window=1, k=2, live_share=1.0, lr=0.5)  # G = B
    @example(seed=3, mode="cbow", vocab=8, dim=3, batch=7, cap=20, window=2, k=2, live_share=0.6, lr=0.5)  # G = 1
    @example(seed=4, mode="sg", vocab=1, dim=2, batch=9, cap=4, window=1, k=3, live_share=1.0, lr=4.0)  # every draw is the positive
    @example(seed=5, mode="cbow", vocab=3, dim=4, batch=12, cap=5, window=3, k=2, live_share=0.2, lr=4.0)  # mostly masked slots
    def test_matches_per_example_reference_with_tiled_negatives(
        self, seed, mode, vocab, dim, batch, cap, window, k, live_share, lr
    ):
        rng = np.random.default_rng(seed)
        w_in, w_out = _tables(rng, vocab, dim)
        centers = rng.integers(0, vocab, size=batch)
        lr = np.float32(lr)
        ref_in, ref_out = w_in.copy(), w_out.copy()
        if mode == "sg":
            contexts = rng.integers(0, vocab, size=batch)
            negatives, tiled = _group_draws(rng, contexts, cap, vocab, k)
            ref_loss = _reference_sg_chunk(ref_in, ref_out, centers, contexts, tiled, lr)
            loss, examples, updated, clipped = _chunk(w_in, w_out, *_sg_examples(centers), contexts, negatives, lr)
            live_slots, positives = centers, contexts
        else:
            ctx = rng.integers(0, vocab, size=(batch, 2 * window))
            mask = (rng.random((batch, 2 * window)) < live_share).astype(np.float32)
            mask[np.arange(batch), rng.integers(0, 2 * window, size=batch)] = 1.0  # one live slot at least
            negatives, tiled = _group_draws(rng, centers, cap, vocab, k)
            ref_loss = _reference_cbow_chunk(ref_in, ref_out, centers, ctx, mask, tiled, lr)
            loss, examples, updated, clipped = _chunk(w_in, w_out, ctx, mask, centers, negatives, lr)
            live_slots, positives = ctx[mask > 0], centers

        assert examples == batch
        assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-6)
        np.testing.assert_allclose(w_in, ref_in, **F32_TOL)
        np.testing.assert_allclose(w_out, ref_out, **F32_TOL)
        assert updated == np.unique(live_slots).size + np.unique(np.concatenate([positives, negatives.ravel()])).size
        assert 0 <= clipped <= updated


# --------------------------------------------------------------------------
# One buffer set reused across chunks, against the kernel that allocated
# every temporary: the same bytes, whatever the buffers held before
# --------------------------------------------------------------------------


class TestWorkBuffers:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(MODES),
        vocab=st.integers(1, 30),
        dim=st.integers(1, 8),
        batch=st.integers(1, 40),
        cap=st.integers(1, 24),
        window=st.integers(1, 3),
        k=st.integers(0, 4),
        lr=st.sampled_from([0.025, 0.5, 4.0]),
        shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    # a full chunk of 13 examples in 3 groups of 5 (two padding rows), then 9
    # in 2 groups of 5 (one), then a single example or a full chunk again
    @example(seed=0, mode="sg", vocab=20, dim=5, batch=13, cap=6, window=1, k=3, lr=0.5, shares=[0.7, 0.05])
    @example(seed=1, mode="cbow", vocab=20, dim=5, batch=13, cap=6, window=2, k=3, lr=0.5, shares=[0.7, 1.0])
    @example(seed=2, mode="sg", vocab=9, dim=4, batch=12, cap=1, window=1, k=2, lr=4.0, shares=[1.0, 0.5])  # G = B
    @example(seed=3, mode="cbow", vocab=9, dim=4, batch=12, cap=16, window=3, k=0, lr=0.5, shares=[1.0, 0.3])  # negatives=0
    def test_same_bytes_as_unbuffered_kernel(self, seed, mode, vocab, dim, batch, cap, window, k, lr, shares):
        rng = np.random.default_rng(seed)
        w_in, w_out = _tables(rng, vocab, dim)
        ref_in, ref_out = w_in.copy(), w_out.copy()
        lr = np.float32(lr)
        width = 1 if mode == "sg" else 2 * window
        # sized as train() sizes it, with groups of at most cap examples
        work = _WorkBuffers(batch, -(-batch // cap), width, k, dim, vocab)
        for buffer in vars(work).values():  # as if a diverging chunk had run before
            buffer.fill(np.nan if buffer.dtype.kind == "f" else -1)
        for share in [1.0, *shares]:  # the first chunk is a full one
            b = max(1, round(share * batch))
            targets = rng.integers(0, vocab, size=b)
            if mode == "sg":
                inputs, mask = _sg_examples(rng.integers(0, vocab, size=b))
            else:
                inputs = rng.integers(0, vocab, size=(b, width))
                mask = (rng.random((b, width)) < 0.6).astype(np.float32)
                mask[np.arange(b), rng.integers(0, width, size=b)] = 1.0  # one live slot at least
            negatives, _ = _group_draws(rng, targets, cap, vocab, k)

            expected = unbuffered_kernel.process_chunk(ref_in, ref_out, inputs, mask, targets, negatives, lr)
            got = _process_chunk(w_in, w_out, inputs, mask, targets, negatives, lr, work)

            assert got == expected  # the loss compared with ==
            assert w_in.tobytes() == ref_in.tobytes()
            assert w_out.tobytes() == ref_out.tobytes()


    def test_no_two_chunks_in_flight_share_a_buffer_set(self, cluster_corpus, monkeypatch):
        import kgembed.trainer as trainer

        _, _, _, sentences = cluster_corpus
        lock, in_flight, seen, overlaps = threading.Lock(), set(), set(), []
        kernel = trainer._process_chunk

        def tracked(*args):
            work = args[-1]
            with lock:
                if id(work) in in_flight:
                    overlaps.append(id(work))
                in_flight.add(id(work))
                seen.add(id(work))
            try:
                return kernel(*args)
            finally:
                with lock:
                    in_flight.discard(id(work))

        monkeypatch.setattr(trainer, "_process_chunk", tracked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            model = train(sentences, TrainConfig(mode="sg", dimension=8, epochs=2, negatives=3), workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert not overlaps
        assert 1 <= len(seen) <= 4
        assert np.isfinite(model.vectors).all()


class TestRowBoundsCheck:
    def test_out_of_range_negative_raises(self):
        rng = np.random.default_rng(0)
        w_in, w_out = _tables(rng, 5, 3)
        inputs, mask = _sg_examples(np.array([0, 1, 2]))
        for bad in (5, -1):
            negatives = np.array([[1, bad]])
            with pytest.raises(IndexError, match="out of range"):
                _chunk(w_in, w_out, inputs, mask, np.array([1, 2, 3]), negatives, np.float32(0.1))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("array", ["inputs", "targets"])
    def test_out_of_range_example_raises_before_training(self, monkeypatch, mode, array):
        import kgembed.trainer as trainer

        def bad_examples(ids, walk, window, mode):
            inputs, mask, targets = _examples(ids, walk, window, mode)
            inputs, targets = inputs.copy(), targets.copy()
            (inputs if array == "inputs" else targets).flat[-1] = ids.max() + 1
            return inputs, mask, targets

        monkeypatch.setattr(trainer, "_examples", bad_examples)
        with pytest.raises(IndexError, match="out of range"):
            train([["a", "b", "c"], ["b", "c", "a"]], TrainConfig(mode=mode, dimension=4, epochs=1))


class TestCbowWindow:
    SENTENCES = [["a", "p", "b", "q", "c"], ["b", "q", "c"], ["d", "p", "a"], ["e"]]  # longest walk: 5 tokens

    def test_columns_bounded_by_longest_walk(self):
        _, ids, walk = _corpus_ids(self.SENTENCES, 1)
        ctx, mask, centers = _examples(ids, walk, 1000, "cbow")
        assert ctx.shape == mask.shape == (centers.shape[0], 2 * 4)
        assert mask.sum(axis=1).min() >= 1

    def test_window_past_longest_walk_changes_nothing(self):
        for mode in MODES:
            narrow, *wide = [
                train(self.SENTENCES, TrainConfig(mode=mode, dimension=6, window=w, negatives=3, epochs=3, seed=5))
                for w in (4, 1000, 10**9)
            ]
            for model in wide:
                assert np.array_equal(narrow.vectors, model.vectors)
                assert np.array_equal(narrow.context_vectors, model.context_vectors)


# --------------------------------------------------------------------------
# The flat pass against the per-walk helpers it replaced (per_walk_examples)
# --------------------------------------------------------------------------


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


_WALK = st.lists(st.sampled_from("abcdefgh"), max_size=9)  # empty and one-token walks included


class TestFlatPassAgainstPerWalkBuilders:
    @settings(max_examples=300, deadline=None)
    @given(
        sentences=st.lists(_WALK, max_size=8),
        min_count=st.integers(1, 3),
        window=st.one_of(st.integers(1, 7), st.sampled_from([12, 10**9])),
        mode=st.sampled_from(MODES),
    )
    @example(sentences=[], min_count=1, window=5, mode="sg")  # no walks
    @example(sentences=[[], []], min_count=1, window=5, mode="cbow")  # walks without tokens
    @example(sentences=[["a"], ["b"], ["a"]], min_count=1, window=5, mode="cbow")  # one-token walks only
    @example(sentences=[["a", "x", "b", "a"], ["b", "a"]], min_count=2, window=2, mode="sg")  # x dropped mid-walk
    @example(sentences=[["a", "x", "b", "a"], ["b", "a"]], min_count=2, window=2, mode="cbow")
    @example(sentences=[["a", "b"], ["b", "x"]], min_count=3, window=5, mode="sg")  # every token dropped
    @example(sentences=[["a", "b"], ["a", "x", "a", "b"]], min_count=3, window=10**9, mode="cbow")  # only "a" is kept
    @example(sentences=[["a", "b"], ["a", "x", "a", "b"]], min_count=3, window=10**9, mode="sg")
    def test_same_vocabulary_and_examples(self, sentences, min_count, window, mode):
        try:
            ref_vocab, ref_examples = per_walk.examples(sentences, min_count, window, mode)
        except EmptyCorpusError:
            with pytest.raises(EmptyCorpusError):
                _corpus_ids(sentences, min_count)
            with pytest.raises(EmptyCorpusError):
                build_vocabulary(iter(sentences), min_count)
            return
        vocab, ids, walk = _corpus_ids(sentences, min_count)
        assert vocab.tokens == ref_vocab.tokens
        assert vocab.index == ref_vocab.index
        _assert_same_array(vocab.counts, ref_vocab.counts)
        _assert_same_array(vocab.sampling_probs, ref_vocab.sampling_probs)
        assert build_vocabulary(iter(sentences), min_count).tokens == ref_vocab.tokens
        if not len(vocab):
            return  # train() stops here with EmptyVocabularyError
        built = _examples(ids, walk, window, mode)
        for actual, expected in zip(built, ref_examples):
            _assert_same_array(actual, expected)
        assert built[1].strides == ref_examples[1].strides  # the zero-stride skip-gram mask

    def test_corpus_is_read_once(self):
        sentences = [["a", "p", "b"], ["b", "q", "c", "p", "a"], ["c"]]
        cfg = TrainConfig(dimension=4, window=2, negatives=2, epochs=2, seed=3)
        once = train((list(s) for s in sentences), cfg)
        listed = train(sentences, cfg)
        assert once.vocabulary.tokens == listed.vocabulary.tokens
        assert np.array_equal(once.vectors, listed.vectors)


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

    def test_header_dimension_checked_before_allocation(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("1 1000000000000\na 1\n")  # 4 TB of float32, were it allocated
        with pytest.raises(ModelFormatError, match="found 2 fields") as err:
            load_model(path)
        assert err.value.line == 2

    def test_bad_float(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("1 2\na 1 x\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e39"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "model.txt"
        path.write_text(f"2 2\na 1 2\nb 3 {value}\n")
        with pytest.raises(ModelFormatError, match="non-finite value") as err:
            load_model(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("banana\n")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text("0 1000000000000000000000\n")  # no body line to check, and past any array shape
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert err.value.line == 1

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("2 1\na 1\na 2\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_token_lookup(self, tmp_path):
        model = self.trained()
        with pytest.raises(UnknownTokenError):
            model.vector("http://ex/ghost")
