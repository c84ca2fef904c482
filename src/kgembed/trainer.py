"""Word2vec-style embedding training over walk corpora.

Skip-gram and CBOW with negative sampling. Updates are applied in vectorized
batches: gradients for a batch are computed against the tables as they stood
when the batch started, and each table receives them through one
reduce-by-key pass (a stable sort of the target rows, then one segment sum
per distinct row). The summation order depends only on the batch, so
single-worker runs are bit-reproducible. :func:`sgns_gradient` is the exact
one-pair reference step that the unit and finite-difference tests exercise.

The published vectors are the input table; context (output) vectors are kept
on the model for inspection but never used for similarity queries.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graph_io import escape_token, open_text_read, open_text_write, unescape_token

logger = logging.getLogger(__name__)

MODES = ("sg", "cbow")
_DEFAULT_LR = {"sg": 0.025, "cbow": 0.05}
_LR_FLOOR_RATIO = 1e-4  # final rate is initial / 10**4
_MAX_CHUNK = 4096
_MIN_CHUNK = 8


def _chunk_size(vocab_size: int, lr: float, negatives: int) -> int:
    # Gradients inside a chunk are computed against chunk-start tables, so a
    # row hit many times in one chunk accumulates stale updates. Expected
    # hits per row scale as chunk * (1 + negatives) / vocab and the runaway
    # threshold is roughly lr * hits ~ 2.5 (measured); stay well below it.
    # Rows hit far above expectation (hub tokens) are handled by the row
    # clipping in _add_rows_clipped.
    budget = vocab_size / (lr * (1 + negatives))
    return max(_MIN_CHUNK, min(_MAX_CHUNK, int(budget)))


_MAX_ROW_UPDATE = 0.5


def _add_rows_clipped(table, rows, src, owner, weights) -> tuple[int, int]:
    """Add ``weights[j] * src[owner[j]]`` to ``table[rows[j]]`` for every j.

    The terms are grouped by target row with a stable sort and summed per
    group with ``np.add.reduceat``, in their original order. Each row's total
    movement per chunk is then clipped to ``_MAX_ROW_UPDATE``: hub rows can
    be hit hundreds of times in one chunk with gradients taken at chunk-start
    values, and unclipped, that stale accumulation can overshoot and blow the
    tables up. Returns the number of rows updated and of rows clipped.
    """
    if rows.size == 0:
        return 0, 0
    order = np.argsort(rows, kind="stable")
    keys = rows[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    terms = src[owner[order]]
    terms *= weights[order][:, None]
    sums = np.add.reduceat(terms, starts, axis=0)
    norms = np.sqrt(np.einsum("ud,ud->u", sums, sums))
    clipped = int(np.count_nonzero(norms > _MAX_ROW_UPDATE))
    np.maximum(norms, _MAX_ROW_UPDATE, out=norms)
    sums *= (_MAX_ROW_UPDATE / norms)[:, None]
    table[keys[starts]] += sums
    return int(starts.size), clipped


class EmptyCorpusError(ValueError):
    """empty-corpus: no tokens at all to build a vocabulary from."""


class EmptyVocabularyError(ValueError):
    """No token survived the min_count floor."""


class TrainingDivergedError(RuntimeError):
    """Non-finite loss or vectors encountered during training."""


class ModelFormatError(ValueError):
    """Malformed model file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownTokenError(KeyError):
    def __str__(self) -> str:
        return self.args[0] if self.args else "unknown token"


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. ``initial_learning_rate=None`` selects the
    standard default for the mode (0.025 for sg, 0.05 for cbow)."""

    mode: str = "sg"
    dimension: int = 100
    window: int = 5
    negatives: int = 25
    epochs: int = 5
    initial_learning_rate: float | None = None
    min_count: int = 1
    seed: int = 42

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.initial_learning_rate is not None and not self.initial_learning_rate > 0:
            raise ValueError("initial_learning_rate must be > 0")

    @property
    def learning_rate(self) -> float:
        if self.initial_learning_rate is None:
            return _DEFAULT_LR[self.mode]
        return self.initial_learning_rate


@dataclass
class Vocabulary:
    """Dense token index with frequencies and the unigram^0.75 negative
    sampling distribution."""

    tokens: list[str]
    index: dict[str, int]
    counts: np.ndarray
    sampling_probs: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def index_of(self, token: str) -> int:
        i = self.index.get(token)
        if i is None:
            raise UnknownTokenError(f"unknown token: {token!r}")
        return i


def build_vocabulary(sentences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens and keep those occurring at least ``min_count`` times.

    Tokens are indexed by descending frequency (ties keep first-seen order).
    A corpus with no tokens at all raises :class:`EmptyCorpusError`; a corpus
    where nothing reaches the floor yields an empty vocabulary, which the
    trainer rejects downstream.
    """
    counts: dict[str, int] = {}
    total = 0
    for sentence in sentences:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
            total += 1
    if total == 0:
        raise EmptyCorpusError("empty-corpus: no tokens in input")
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: -counts[t])
    freq = np.array([counts[t] for t in kept], dtype=np.int64)
    if len(kept):
        weights = freq.astype(np.float64) ** 0.75
        probs = weights / weights.sum()
    else:
        probs = np.zeros(0, dtype=np.float64)
    return Vocabulary(kept, {t: i for i, t in enumerate(kept)}, freq, probs)


@dataclass(frozen=True)
class EpochStats:
    """What one training epoch did. ``pairs_per_s`` counts training examples:
    (center, context) pairs for sg, context groups for cbow. ``row_updates``
    counts the per-chunk row totals added to the two tables, and
    ``rows_clipped`` how many of those were clipped to the row-update cap."""

    loss: float
    seconds: float
    pairs_per_s: float
    row_updates: int
    rows_clipped: int


@dataclass
class EmbeddingModel:
    vocabulary: Vocabulary
    vectors: np.ndarray
    context_vectors: np.ndarray | None = None
    config: TrainConfig | None = None
    epoch_stats: list[EpochStats] = field(default_factory=list)

    @property
    def epoch_losses(self) -> list[float]:
        return [e.loss for e in self.epoch_stats]

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, token: str) -> bool:
        return token in self.vocabulary

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocabulary.index_of(token)]


# --------------------------------------------------------------------------
# The SGNS step, in reference (per-pair) and batched forms
# --------------------------------------------------------------------------


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _as_negatives(negatives, dim: int) -> np.ndarray:
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.size == 0:
        return negs.reshape(0, dim)
    return negs


def sgns_loss(center, context, negatives=()) -> float:
    """Negative-sampling loss for one pair:
    ``-log sigma(context . center) - sum_k log sigma(-neg_k . center)``."""
    v = np.asarray(center, dtype=np.float64)
    u = np.asarray(context, dtype=np.float64)
    negs = _as_negatives(negatives, v.shape[0])
    loss = np.logaddexp(0.0, -(u @ v))
    if negs.shape[0]:
        loss = loss + np.logaddexp(0.0, negs @ v).sum()
    return float(loss)


def sgns_gradient(center, context, negatives, lr):
    """One SGD step on :func:`sgns_loss`; returns updated copies of
    ``(center, context, negatives)``. ``lr=0`` leaves everything unchanged."""
    v = np.asarray(center, dtype=np.float64)
    u = np.asarray(context, dtype=np.float64)
    negs = _as_negatives(negatives, v.shape[0] if v.ndim else 0)
    if v.ndim != 1 or u.shape != v.shape or negs.ndim != 2 or negs.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch between center, context, and negatives")
    g_pos = _sigmoid(u @ v) - 1.0  # d loss / d (u.v)
    g_neg = _sigmoid(negs @ v)  # d loss / d (neg_k.v), one per negative
    d_center = g_pos * u + (g_neg @ negs if negs.shape[0] else 0.0)
    d_context = g_pos * v
    d_negs = g_neg[:, None] * v[None, :]
    return v - lr * d_center, u - lr * d_context, negs - lr * d_negs


def _process_sg_chunk(w_in, w_out, centers, contexts, negatives, lr):
    # overflow in a diverging run is caught by the loss guard, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        return _sg_chunk_inner(w_in, w_out, centers, contexts, negatives, lr)


def _add_output_rows(w_out, positives, negatives, src, gp, gn, lr) -> tuple[int, int]:
    # example b moves its positive row by lr*gp[b]*src[b] and its k-th
    # negative row by lr*gn[b, k]*src[b]
    b, k = negatives.shape
    rows = np.concatenate([positives, negatives.ravel()])
    owner = np.concatenate([np.arange(b), np.repeat(np.arange(b), k)])
    weights = lr * np.concatenate([gp, gn.ravel()])
    return _add_rows_clipped(w_out, rows, src, owner, weights)


def _sg_chunk_inner(w_in, w_out, centers, contexts, negatives, lr):
    vc = w_in[centers]
    uo = w_out[contexts]
    pos = np.einsum("bd,bd->b", vc, uo)
    gp = 1.0 - _sigmoid(pos)
    loss = float(np.logaddexp(0.0, -pos).sum(dtype=np.float64))
    un = w_out[negatives]
    ns = np.einsum("bd,bkd->bk", vc, un)
    live = negatives != contexts[:, None]  # a draw equal to the positive is skipped
    gn = np.where(live, -_sigmoid(ns), np.float32(0.0))
    loss += float(np.logaddexp(0.0, np.where(live, ns, np.float32(-np.inf))).sum(dtype=np.float64))
    dvc = gp[:, None] * uo + np.einsum("bk,bkd->bd", gn, un)
    b = centers.shape[0]
    in_rows, in_clipped = _add_rows_clipped(w_in, centers, dvc, np.arange(b), np.full(b, lr))
    out_rows, out_clipped = _add_output_rows(w_out, contexts, negatives, vc, gp, gn, lr)
    return loss, b, in_rows + out_rows, in_clipped + out_clipped


def _process_cbow_chunk(w_in, w_out, centers, ctx, mask, negatives, lr):
    with np.errstate(over="ignore", invalid="ignore"):
        return _cbow_chunk_inner(w_in, w_out, centers, ctx, mask, negatives, lr)


def _cbow_chunk_inner(w_in, w_out, centers, ctx, mask, negatives, lr):
    vctx = w_in[ctx]  # (B, 2w, d)
    counts = mask.sum(axis=1)  # >= 1 by construction
    h = np.einsum("bwd,bw->bd", vctx, mask) / counts[:, None]
    uc = w_out[centers]
    pos = np.einsum("bd,bd->b", h, uc)
    gp = 1.0 - _sigmoid(pos)
    loss = float(np.logaddexp(0.0, -pos).sum(dtype=np.float64))
    un = w_out[negatives]
    ns = np.einsum("bd,bkd->bk", h, un)
    live = negatives != centers[:, None]
    gn = np.where(live, -_sigmoid(ns), np.float32(0.0))
    loss += float(np.logaddexp(0.0, np.where(live, ns, np.float32(-np.inf))).sum(dtype=np.float64))
    dh = gp[:, None] * uc + np.einsum("bk,bkd->bd", gn, un)
    out_rows, out_clipped = _add_output_rows(w_out, centers, negatives, h, gp, gn, lr)
    # the mean distributes the head gradient equally over live context slots
    slot_owner, slot = np.nonzero(mask)
    in_rows, in_clipped = _add_rows_clipped(w_in, ctx[slot_owner, slot], dh, slot_owner, (lr / counts)[slot_owner])
    return loss, centers.shape[0], in_rows + out_rows, in_clipped + out_clipped


# --------------------------------------------------------------------------
# Corpus preparation
# --------------------------------------------------------------------------


def _encode_sentences(sentences, vocab: Vocabulary) -> list[np.ndarray]:
    index = vocab.index
    encoded = []
    for sentence in sentences:
        ids = [index[t] for t in sentence if t in index]
        if ids:
            encoded.append(np.asarray(ids, dtype=np.int64))
    return encoded


def _sg_pairs(encoded, window: int) -> tuple[np.ndarray, np.ndarray]:
    centers, contexts = [], []
    for a in encoded:
        n = a.shape[0]
        for off in range(1, min(window, n - 1) + 1):
            left, right = a[:-off], a[off:]
            centers.append(left)
            contexts.append(right)
            centers.append(right)
            contexts.append(left)
    if not centers:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(centers), np.concatenate(contexts)


def _cbow_groups(encoded, window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    width = 2 * window
    mats, masks, centers = [], [], []
    for a in encoded:
        n = a.shape[0]
        if n < 2:
            continue
        m = np.zeros((n, width), dtype=np.int64)
        k = np.zeros((n, width), dtype=np.float32)
        col = 0
        for off in range(1, window + 1):
            if off < n:
                m[off:, col] = a[:-off]
                k[off:, col] = 1.0
                m[:-off, col + 1] = a[off:]
                k[:-off, col + 1] = 1.0
            col += 2
        mats.append(m)
        masks.append(k)
        centers.append(a)
    if not centers:
        return (
            np.zeros((0, width), dtype=np.int64),
            np.zeros((0, width), dtype=np.float32),
            np.zeros(0, dtype=np.int64),
        )
    return np.concatenate(mats), np.concatenate(masks), np.concatenate(centers)


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------


def train(
    sentences: Sequence[Sequence[str]],
    cfg: TrainConfig | None = None,
    *,
    workers: int = 1,
) -> EmbeddingModel:
    """Train a model on an in-memory corpus of token sequences.

    The learning rate decays linearly from ``cfg.learning_rate`` to one
    ten-thousandth of it over all scheduled updates. With ``workers=1`` the
    result is bit-identical across runs for a fixed seed. More workers run
    chunks in threads that update the shared tables without locking, in the
    Hogwild style (Recht et al., 2011): concurrent chunks read stale rows and
    may overwrite each other's row updates, which the similarity contracts
    tolerate. On 2 vCPUs, skip-gram on a hub-heavy corpus (1.8k tokens, 524
    distinct, 5 epochs) trained ~1.5x faster with ``workers=2`` (median of
    five runs: 1.04 s against 1.53 s), at an epoch-1 loss of 15.8-16.5
    against 14.7 and a final loss of 4.17-4.26 against 4.08.

    Each epoch logs one line and appends an :class:`EpochStats` to
    ``model.epoch_stats``.
    """
    cfg = cfg or TrainConfig()
    if not isinstance(sentences, (list, tuple)):
        sentences = [list(s) for s in sentences]
    vocab = build_vocabulary(sentences, cfg.min_count)
    if len(vocab) == 0:
        raise EmptyVocabularyError(f"empty vocabulary: no token occurs at least min_count={cfg.min_count} times")

    rng = np.random.default_rng(cfg.seed)
    size, dim = len(vocab), cfg.dimension
    w_in = ((rng.random((size, dim)) - 0.5) / dim).astype(np.float32)
    w_out = np.zeros((size, dim), dtype=np.float32)

    encoded = _encode_sentences(sentences, vocab)
    total_tokens = sum(a.shape[0] for a in encoded)
    if cfg.mode == "sg":
        centers, contexts = _sg_pairs(encoded, cfg.window)
        n_updates = centers.shape[0]
    else:
        ctx_mat, ctx_mask, centers = _cbow_groups(encoded, cfg.window)
        n_updates = centers.shape[0]
    if n_updates == 0:
        # every sentence is a single token; the seeded initialization is the model
        logger.info("corpus has no context pairs; returning initialized vectors")
        return EmbeddingModel(vocab, w_in, w_out, cfg)

    cumulative = np.cumsum(vocab.sampling_probs)
    cumulative[-1] = 1.0  # guard float drift so sampled indices stay in range
    lr0 = cfg.learning_rate
    total_scheduled = n_updates * cfg.epochs
    chunk = _chunk_size(size, lr0, cfg.negatives)
    spans = [(s, min(s + chunk, n_updates)) for s in range(0, n_updates, chunk)]
    epoch_stats: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        started = time.perf_counter()

        def run_chunk(item):
            ci, (lo, hi) = item
            chunk_rng = np.random.default_rng((cfg.seed, epoch, ci))
            if cfg.negatives > 0:
                draws = chunk_rng.random((hi - lo, cfg.negatives))
                negatives = np.searchsorted(cumulative, draws).astype(np.int64)
            else:
                negatives = np.zeros((hi - lo, 0), dtype=np.int64)
            progress = (epoch * n_updates + lo) / total_scheduled
            lr = np.float32(lr0 * (1.0 - (1.0 - _LR_FLOOR_RATIO) * progress))
            if cfg.mode == "sg":
                return _process_sg_chunk(w_in, w_out, centers[lo:hi], contexts[lo:hi], negatives, lr)
            return _process_cbow_chunk(
                w_in, w_out, centers[lo:hi], ctx_mat[lo:hi], ctx_mask[lo:hi], negatives, lr
            )

        if workers <= 1:
            results = [run_chunk(item) for item in enumerate(spans)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_chunk, enumerate(spans)))
        mean_loss = sum(r[0] for r in results) / n_updates
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(
                f"non-finite loss {mean_loss} in epoch {epoch + 1} (initial rate {lr0}); lower the learning rate"
            )
        elapsed = time.perf_counter() - started
        stats = EpochStats(
            loss=mean_loss,
            seconds=elapsed,
            pairs_per_s=n_updates / elapsed if elapsed > 0 else float("inf"),
            row_updates=sum(r[2] for r in results),
            rows_clipped=sum(r[3] for r in results),
        )
        epoch_stats.append(stats)
        rate = total_tokens / elapsed if elapsed > 0 else float("inf")
        logger.info(
            "epoch=%d tokens/sec=%.0f pairs/sec=%.0f loss=%.6f clipped=%d/%d",
            epoch + 1, rate, stats.pairs_per_s, mean_loss, stats.rows_clipped, stats.row_updates,
        )

    if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
        raise TrainingDivergedError(f"non-finite vectors after training (initial rate {lr0})")
    return EmbeddingModel(vocab, w_in, w_out, cfg, epoch_stats)


# --------------------------------------------------------------------------
# Model files: header "<count> <dimension>", then one token and its floats
# per line. float32 values rendered with 9 significant digits round-trip
# exactly.
# --------------------------------------------------------------------------


def save_model(model: EmbeddingModel, path: str | Path) -> int:
    """Write the published (input) vectors as text. Returns the row count."""
    vectors = model.vectors
    with open_text_write(path) as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for i, token in enumerate(model.vocabulary.tokens):
            row = " ".join(f"{float(x):.9g}" for x in vectors[i])
            fh.write(f"{escape_token(token)} {row}\n")
    return int(vectors.shape[0])


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model file back. The format carries no frequencies, so the
    vocabulary gets unit counts and a uniform sampling distribution."""
    with open_text_read(path) as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ModelFormatError("empty model file", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ModelFormatError("header must be '<count> <dimension>'", line=1)
    try:
        size, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ModelFormatError(f"non-integer header {lines[0]!r}", line=1) from None
    if size < 0 or dim < 1:
        raise ModelFormatError(f"implausible header {lines[0]!r}", line=1)
    if len(lines) - 1 != size:
        raise ModelFormatError(
            f"header claims {size} vectors but the file has {len(lines) - 1} body lines",
            line=len(lines),
        )
    tokens: list[str] = []
    index: dict[str, int] = {}
    vectors = np.empty((size, dim), dtype=np.float32)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise ModelFormatError(f"expected a token and {dim} floats, found {len(parts)} fields", line=lineno)
        token = unescape_token(parts[0])
        if token in index:
            raise ModelFormatError(f"duplicate token {token!r}", line=lineno)
        try:
            vectors[lineno - 2] = [float(x) for x in parts[1:]]
        except ValueError:
            raise ModelFormatError("unparseable float", line=lineno) from None
        index[token] = lineno - 2
        tokens.append(token)
    counts = np.ones(size, dtype=np.int64)
    probs = np.full(size, 1.0 / size, dtype=np.float64) if size else np.zeros(0, dtype=np.float64)
    vocab = Vocabulary(tokens, index, counts, probs)
    return EmbeddingModel(vocab, vectors)
