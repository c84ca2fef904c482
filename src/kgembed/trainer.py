"""Word2vec-style embedding training over walk corpora.

Skip-gram and CBOW with negative sampling, trained by one chunk kernel. Each
example predicts a context (output) row from the masked mean of its input
rows: a CBOW example averages up to ``2 * window`` context slots around its
center, and a skip-gram pair is an example with one slot, the center itself,
whose mean is that row unchanged. The mode only decides how the examples are
laid out.

One Python pass over the corpus gives each token an id and a walk index; the
vocabulary comes from their counts. The examples are built without a loop over
walks: one numpy step per window offset finds every pair of tokens that far
apart in one walk and writes them into the skip-gram or CBOW arrays.

Negatives are shared (Lerer et al., PyTorch-BigGraph, SysML 2019): each run
of at most ``NEGATIVE_GROUP`` consecutive examples in a chunk is contrasted
with one draw of negatives. The group is scored against its gathered negative
rows with one batched matmul, and each negative row receives one summed update
per group rather than one per example. A draw equal to an example's own target
still counts for nothing in that example.

Updates are applied in vectorized batches: gradients for a batch are computed
against the tables as they stood when the batch started, and each table
receives them through one reduce-by-key pass (a stable sort of the target
rows, then one segment sum per distinct row). The summation order depends
only on the batch, and the chunks run in order on one thread, so every run is
bit-reproducible.

One set of work buffers (:class:`_WorkBuffers`), built once per :func:`train`
call from the chunk size, serves every chunk, and every kernel step writes into
views of it: gathers through ``np.take(..., mode="clip", out=...)``, matmuls
and segment sums through ``out=``. A chunk's temporaries are 0.3-0.8 MB each,
past glibc's mmap threshold, so allocating them per chunk handed the memory
back to the OS on every free and faulted it in again on the next chunk
(~80k minor faults per skip-gram run on the hub bench corpus, ~45% of its
training time). ``mode="clip"`` does no bounds check, so :func:`train` checks
the example arrays once and the kernel checks each chunk's negatives.
:func:`sgns_gradient` is the exact one-pair reference step that the unit and
finite-difference tests exercise.

The published vectors are the input table; context (output) vectors are kept
on the model for inspection but never used for similarity queries.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graph_io import escape_token, open_text_read, open_text_write, reading, unescape_token

logger = logging.getLogger(__name__)

MODES = ("sg", "cbow")
_DEFAULT_LR = {"sg": 0.025, "cbow": 0.05}
_LR_FLOOR_RATIO = 1e-4  # final rate is initial / 10**4
_MAX_CHUNK = 4096
_MIN_CHUNK = 8
NEGATIVE_GROUP = 16  # consecutive examples that share one draw of negatives


def _chunk_size(vocab_size: int, lr: float, negatives: int) -> int:
    # Gradients inside a chunk are computed against chunk-start tables, so a
    # row hit many times in one chunk accumulates stale updates. Expected
    # hits per row scale as chunk * (1 + negatives) / vocab and the runaway
    # threshold is roughly lr * hits ~ 2.5 (measured); stay well below it.
    # Shared negatives do not change this: a group's one update to a negative
    # row sums its examples' gradients, so in expectation the row moves as far
    # as under per-example draws, in fewer and larger steps. Rows hit far
    # above expectation (hub tokens) are handled by the row clipping in
    # _add_rows_clipped.
    budget = vocab_size / (lr * (1 + negatives))
    return max(_MIN_CHUNK, min(_MAX_CHUNK, int(budget)))


_MAX_ROW_UPDATE = 0.5
CLIP_WARNING_SHARE = 0.5  # a final epoch clipping more of its row totals than this is warned about


def _check_rows(ids: np.ndarray, size: int) -> None:
    """Raise ``IndexError`` unless every id is a row of a ``size``-row table.
    The kernel gathers with ``mode="clip"``, which does not check."""
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IndexError(f"row ids {ids.min()}..{ids.max()} out of range for a table of {size} rows")


class _WorkBuffers:
    """The work arrays that every :func:`_process_chunk` call of one
    :func:`train` run writes into (see the module docstring). They fit any
    chunk of at most ``batch`` examples with ``width`` input slots whose
    negatives are at most ``groups`` rows of ``negatives`` draws. A chunk
    still allocates what is not ``dim`` wide: the sort and mask indexes, and
    the loss's temporaries over the scores."""

    def __init__(self, batch: int, groups: int, width: int, negatives: int, dim: int, vocab: int):
        out_terms = batch + groups * negatives  # the targets, then one row per group and draw
        terms = max(out_terms, batch * width)
        padded = batch + groups  # g groups of ceil(b / g) pad fewer than g rows
        self.terms = np.empty((terms, dim), np.float32)  # the input gather, then each table's terms
        self.sums = np.empty((min(terms, vocab), dim), np.float32)  # one total per distinct row
        self.src = np.empty((out_terms, dim), np.float32)  # h, then the grouped negative updates
        self.ut = np.empty((batch, dim), np.float32)  # target rows, then the head gradient
        self.hg = np.empty((padded, dim), np.float32)  # h by group, then the negatives' head gradient
        self.un = np.empty((groups * negatives, dim), np.float32)  # negative rows
        self.scores = np.empty((2, padded * negatives), np.float32)  # scores and their gradients
        self.rows = np.empty(out_terms, np.int64)
        self.weights = np.empty(out_terms, np.float32)


def _add_rows_clipped(table, rows, src, owner, weights, work: _WorkBuffers) -> tuple[int, int]:
    """Add ``weights[j] * src[owner[j]]`` to ``table[rows[j]]`` for every j.

    The terms are grouped by target row with a stable sort and summed per
    group with ``np.add.reduceat``, in their original order. Each row's total
    movement per chunk is then clipped to ``_MAX_ROW_UPDATE``: hub rows can
    be hit hundreds of times in one chunk with gradients taken at chunk-start
    values, and unclipped, that stale accumulation can overshoot and blow the
    tables up. ``work`` takes the terms and totals.
    Returns the number of rows updated and of rows clipped.
    """
    n = rows.size
    if n == 0:
        return 0, 0
    order = np.argsort(rows, kind="stable")
    keys = rows[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    terms = np.take(src, owner[order], axis=0, mode="clip", out=work.terms[:n])
    terms *= weights[order][:, None]
    sums = np.add.reduceat(terms, starts, axis=0, out=work.sums[: starts.size])
    norms = np.sqrt(np.einsum("ud,ud->u", sums, sums))
    clipped = int(np.count_nonzero(norms > _MAX_ROW_UPDATE))
    np.maximum(norms, _MAX_ROW_UPDATE, out=norms)
    sums *= (_MAX_ROW_UPDATE / norms)[:, None]
    # table[unique] += sums through the spent terms buffer; the fancy += would allocate its own
    unique = keys[starts]
    moved = np.take(table, unique, axis=0, mode="clip", out=work.terms[: starts.size])
    moved += sums
    table[unique] = moved
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


def _corpus_ids(sentences: Iterable[Sequence[str]], min_count: int) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The one Python pass over the tokens: the vocabulary, then the id and
    walk index of each in-vocabulary token, in corpus order. Dropping the
    other tokens closes up their neighbours."""
    index: dict[str, int] = defaultdict(count().__next__)  # first-seen ids
    lengths: list[int] = []

    def walks():
        for sentence in sentences:
            lengths.append(len(sentence))
            yield sentence

    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(walks())), dtype=np.int64)
    if ids.size == 0:
        raise EmptyCorpusError("empty-corpus: no tokens in input")
    walk = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.bincount(ids)
    order = np.argsort(-counts, kind="stable")  # ties keep first-seen order
    order = order[counts[order] >= min_count]
    rank = np.full(counts.size, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    ids = rank[ids]
    kept = ids >= 0
    first_seen = list(index)
    tokens = [first_seen[i] for i in order.tolist()]
    freq = counts[order]
    weights = freq.astype(np.float64) ** 0.75
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)}, freq, weights / weights.sum())
    return vocab, ids[kept], walk[kept]


def build_vocabulary(sentences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens and keep those occurring at least ``min_count`` times.

    Tokens are indexed by descending frequency (ties keep first-seen order).
    A corpus with no tokens at all raises :class:`EmptyCorpusError`; a corpus
    where nothing reaches the floor yields an empty vocabulary, which the
    trainer rejects downstream.
    """
    return _corpus_ids(sentences, min_count)[0]


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

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocabulary.index_of(token)]


# --------------------------------------------------------------------------
# The SGNS step, in reference (per-pair) and batched forms
# --------------------------------------------------------------------------


def _sigmoid(x, out=None):
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x, out=out), out=out)
        e += 1.0
        return np.divide(1.0, e, out=out)


def _softplus(x):
    # log(1 + exp(x)) without overflow: np.logaddexp(0, x), several times
    # faster on float32 arrays
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


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


def _process_chunk(w_in, w_out, inputs, mask, targets, negatives, lr, work: _WorkBuffers):
    """One negative-sampling step for a chunk of examples. Example b predicts
    the ``w_out`` row ``targets[b]`` from the masked mean ``h[b]`` of its
    ``w_in`` rows ``inputs[b]``; a skip-gram pair is an example with one slot.

    ``negatives`` holds one row of draws per group of ``m = ceil(B / G)``
    consecutive examples, ``(G, K)`` for ``B`` examples, and example b is
    contrasted with row ``b // m`` (the last group may be partial). Each group
    is scored with one batched matmul against its ``K`` gathered rows, and
    moves each of them once, by the sum over its examples. ``G = B`` is the
    per-example step. ``inputs`` and ``targets`` must be rows of the tables
    (:func:`train` checks them once); ``negatives`` are checked here. Every
    step writes into ``work``, which must fit the chunk. Returns the summed
    loss, the example count, and the rows updated and clipped in the two
    tables."""
    (b, width), (g, k), dim = inputs.shape, negatives.shape, w_in.shape[1]
    _check_rows(negatives, w_out.shape[0])
    m = -(-b // g)
    n_out = b + g * k
    # overflow in a diverging run is caught by the loss guard, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        counts = mask.sum(axis=1)  # >= 1 by construction
        gathered = np.take(w_in, inputs, axis=0, mode="clip", out=work.terms[: b * width].reshape(b, width, dim))
        h = np.einsum("bwd,bw->bd", gathered, mask, out=work.src[:b])
        h /= counts[:, None]
        ut = np.take(w_out, targets, axis=0, mode="clip", out=work.ut[:b])
        pos = np.einsum("bd,bd->b", h, ut)
        gp = 1.0 - _sigmoid(pos)
        loss = float(_softplus(-pos).sum(dtype=np.float64))
        hg = work.hg[: g * m]
        hg[:b] = h
        hg[b:] = 0.0  # zero rows pad the last group
        hg = hg.reshape(g, m, dim)
        un = np.take(w_out, negatives, axis=0, mode="clip", out=work.un[: g * k].reshape(g, k, dim))
        ns, gn = (s[: g * m * k].reshape(g, m, k) for s in work.scores)
        np.matmul(hg, un.transpose(0, 2, 1), out=ns)
        padded = np.full(g * m, -1, dtype=targets.dtype)
        padded[:b] = targets
        dead = negatives[:, None, :] == padded.reshape(g, m, 1)  # a draw equal to the positive is skipped
        dead.reshape(g * m, k)[b:] = True  # and so are the padding rows
        np.negative(_sigmoid(ns, out=gn), out=gn)
        np.copyto(gn, np.float32(0.0), where=dead)
        np.copyto(ns, np.float32(-np.inf), where=dead)
        loss += float(_softplus(ns).sum(dtype=np.float64))
        # example b moves its target row by lr*gp[b]*h[b]; group j moves its
        # k-th negative row once, by the sum of lr*gn[b, k]*h[b] over its examples.
        # The scores, the target rows and then hg are spent, and are overwritten.
        lgn = np.multiply(lr, gn, out=ns)
        np.matmul(lgn.transpose(0, 2, 1), hg, out=work.src[b:n_out].reshape(g, k, dim))
        dh = np.multiply(ut, gp[:, None], out=ut)
        dh += np.matmul(gn, un, out=hg).reshape(g * m, dim)[:b]
        rows, weights = work.rows[:n_out], work.weights[:n_out]
        rows[:b], rows[b:] = targets, negatives.ravel()
        np.multiply(lr, gp, out=weights[:b])
        weights[b:] = 1.0
        out_rows, out_clipped = _add_rows_clipped(w_out, rows, work.src[:n_out], np.arange(n_out), weights, work)
        # the mean distributes the head gradient equally over live input slots
        slot_owner, slot = np.nonzero(mask)
        in_rows, in_clipped = _add_rows_clipped(
            w_in, inputs[slot_owner, slot], dh, slot_owner, (lr / counts)[slot_owner], work
        )
        return loss, b, in_rows + out_rows, in_clipped + out_clipped


# --------------------------------------------------------------------------
# Corpus preparation
# --------------------------------------------------------------------------


def _examples(ids: np.ndarray, walk: np.ndarray, window: int, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training examples ``(inputs, mask, targets)`` from token ids and their
    walk indexes, which must not decrease. The positions ``i`` with
    ``walk[i] == walk[i + off]`` are the neighbour pairs at offset ``off``.
    Skip-gram takes each pair both ways, ordered by walk, offset, direction
    and position. CBOW gives each token of a walk of two or more tokens its
    left and right neighbours at offset ``off`` in slots ``2 * off - 2`` and
    ``2 * off - 1``, masked where there is none."""
    sizes = np.bincount(walk)
    # offsets past the longest walk would find no pairs
    reach = min(window, int(sizes.max()) - 1)
    # a token alone in its walk has no neighbours and is no CBOW center
    sizes[sizes < 2] = 0
    kept = sizes[walk] > 0
    ids, walk = ids[kept], walk[kept]
    if mode == "cbow":
        inputs = np.zeros((ids.size, 2 * reach), dtype=np.int64)
        mask = np.zeros(inputs.shape, dtype=np.float32)
    else:
        # pairs go walk by walk, then offset by offset: the pairs (i, i + off)
        # in position order, then their reverses. A walk of n tokens has
        # 2 * (n - o) pairs at offset o, (off - 1) * (2 * n - off) below off.
        reaches = np.clip(sizes - 1, 0, reach)  # offsets with pairs, per walk
        pairs = reaches * (2 * sizes - reaches - 1)
        n = sizes[walk]
        # the slot of the first pair of each token's walk, less the walk's start
        first = (np.cumsum(pairs) - pairs - np.cumsum(sizes) + sizes)[walk]
        inputs = np.empty(int(pairs.sum()), dtype=np.int64)
        targets = np.empty_like(inputs)
    for off in range(1, reach + 1):
        left = np.flatnonzero(walk[:-off] == walk[off:])
        right = left + off
        if mode == "cbow":
            inputs[right, 2 * off - 2], mask[right, 2 * off - 2] = ids[left], 1.0
            inputs[left, 2 * off - 1], mask[left, 2 * off - 1] = ids[right], 1.0
        else:
            ahead = first[left] + left + (off - 1) * (2 * n[left] - off)
            back = ahead + n[left] - off
            inputs[ahead], targets[ahead] = ids[left], ids[right]
            inputs[back], targets[back] = ids[right], ids[left]
    if mode == "cbow":
        return inputs, mask, ids
    inputs = inputs[:, None]  # one always-live slot; the zero-stride mask takes no memory
    return inputs, np.broadcast_to(np.float32(1), inputs.shape), targets


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------


def train(
    sentences: Iterable[Sequence[str]],
    cfg: TrainConfig | None = None,
    *,
    workers: int = 1,
) -> EmbeddingModel:
    """Train a model on a corpus of token sequences, which is read once.

    The learning rate decays linearly from ``cfg.learning_rate`` to one
    ten-thousandth of it over all scheduled updates. The chunks run in order
    on the calling thread, so the result is bit-identical across runs for a
    fixed seed. ``workers`` is kept for callers that pass ``workers=1``; any
    other value raises ``ValueError``. Chunks in concurrent threads, updating
    the shared tables without locks (Hogwild, Recht et al., 2011), lost
    accuracy: predicate rows are in nearly every chunk, and one chunk's row
    update can overwrite another's. On the bench graphs (``bench/gen.py``
    seed 7, train seeds 21-25, median kNN accuracy with k = 3 over 10 folds),
    two threads scored 0.937 against 0.940 in skip-gram at 4 walks per
    entity, 0.983 against 0.993 in CBOW at 12 walks, and 0.950 against 1.000
    in CBOW at 500 walks, where they were 1.2-1.7x faster in wall-clock.

    Each epoch logs one line and appends an :class:`EpochStats` to
    ``model.epoch_stats``.
    """
    if workers != 1:
        raise ValueError("training runs on one thread: workers must be 1")
    cfg = cfg or TrainConfig()
    vocab, ids, walk = _corpus_ids(sentences, cfg.min_count)
    if len(vocab) == 0:
        raise EmptyVocabularyError(f"empty vocabulary: no token occurs at least min_count={cfg.min_count} times")

    rng = np.random.default_rng(cfg.seed)
    size, dim = len(vocab), cfg.dimension
    w_in = ((rng.random((size, dim)) - 0.5) / dim).astype(np.float32)
    w_out = np.zeros((size, dim), dtype=np.float32)

    inputs, mask, targets = _examples(ids, walk, cfg.window, cfg.mode)
    n_updates = targets.shape[0]
    if n_updates == 0:
        # every sentence is a single token; the seeded initialization is the model
        logger.info("corpus has no context pairs; returning initialized vectors")
        return EmbeddingModel(vocab, w_in, w_out, cfg)

    _check_rows(inputs, size)
    _check_rows(targets, size)
    cumulative = np.cumsum(vocab.sampling_probs)
    cumulative[-1] = 1.0  # guard float drift so sampled indices stay in range
    lr0 = cfg.learning_rate
    total_scheduled = n_updates * cfg.epochs
    chunk = _chunk_size(size, lr0, cfg.negatives)
    spans = [(s, min(s + chunk, n_updates)) for s in range(0, n_updates, chunk)]
    batch = min(chunk, n_updates)
    work = _WorkBuffers(batch, -(-batch // NEGATIVE_GROUP), inputs.shape[1], cfg.negatives, dim, size)
    epoch_stats: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        loss, row_updates, rows_clipped = 0.0, 0, 0
        for ci, (lo, hi) in enumerate(spans):
            chunk_rng = np.random.default_rng((cfg.seed, epoch, ci))
            draws = chunk_rng.random((-(-(hi - lo) // NEGATIVE_GROUP), cfg.negatives))
            negatives = np.searchsorted(cumulative, draws).astype(np.int64)
            progress = (epoch * n_updates + lo) / total_scheduled
            with np.errstate(over="ignore"):  # a rate past float32 range diverges, and the loss guard says so
                lr = np.float32(lr0 * (1.0 - (1.0 - _LR_FLOOR_RATIO) * progress))
            chunk_loss, _, rows, clipped = _process_chunk(
                w_in, w_out, inputs[lo:hi], mask[lo:hi], targets[lo:hi], negatives, lr, work
            )
            loss += chunk_loss
            row_updates += rows
            rows_clipped += clipped
        mean_loss = loss / n_updates
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(
                f"non-finite loss {mean_loss} in epoch {epoch + 1} (initial rate {lr0}); lower the learning rate"
            )
        elapsed = time.perf_counter() - started
        stats = EpochStats(
            loss=mean_loss,
            seconds=elapsed,
            pairs_per_s=n_updates / elapsed if elapsed > 0 else float("inf"),
            row_updates=row_updates,
            rows_clipped=rows_clipped,
        )
        epoch_stats.append(stats)
        rate = ids.size / elapsed if elapsed > 0 else float("inf")
        logger.info(
            "epoch=%d tokens/sec=%.0f pairs/sec=%.0f loss=%.6f clipped=%d/%d",
            epoch + 1, rate, stats.pairs_per_s, mean_loss, stats.rows_clipped, stats.row_updates,
        )

    if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
        raise TrainingDivergedError(f"non-finite vectors after training (initial rate {lr0})")
    model = EmbeddingModel(vocab, w_in, w_out, cfg, epoch_stats)
    warning = clipping_warning(model)
    if warning:
        logger.warning(warning)
    return model


def clipping_warning(model: EmbeddingModel) -> str | None:
    """A warning when the final epoch clipped more than ``CLIP_WARNING_SHARE``
    of its row totals, else None. The clip keeps the loss finite at a rate far
    too high for the corpus, so such a run ends without error; at the default
    rates a few percent are clipped."""
    if not model.epoch_stats or model.config is None:
        return None
    last = model.epoch_stats[-1]
    if last.rows_clipped <= CLIP_WARNING_SHARE * last.row_updates:
        return None
    return (
        f"the final epoch clipped {last.rows_clipped / last.row_updates:.0%} of its row totals "
        f"({last.rows_clipped} of {last.row_updates}) at learning rate {model.config.learning_rate:g}; "
        "the vectors may mean little, a lower learning rate should help"
    )


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
    with reading(path), open_text_read(path) as fh:
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
    if size < 0 or not 1 <= dim <= np.iinfo(np.intp).max:
        raise ModelFormatError(f"implausible header {lines[0]!r}", line=1)
    if len(lines) - 1 != size:
        raise ModelFormatError(
            f"header claims {size} vectors but the file has {len(lines) - 1} body lines",
            line=len(lines),
        )

    def fields(lineno: int) -> list[str]:
        parts = lines[lineno - 1].split(" ")
        if len(parts) != dim + 1:
            raise ModelFormatError(f"expected a token and {dim} floats, found {len(parts)} fields", line=lineno)
        return parts

    if size:
        fields(2)  # before the header's dimension sizes the array
    tokens: list[str] = []
    index: dict[str, int] = {}
    vectors = np.empty((size, dim), dtype=np.float32)
    # a double beyond float32 range is stored as inf and rejected below
    with np.errstate(over="ignore"):
        for lineno in range(2, size + 2):
            parts = fields(lineno)
            token = unescape_token(parts[0])
            if token in index:
                raise ModelFormatError(f"duplicate token {token!r}", line=lineno)
            try:
                vectors[lineno - 2] = [float(x) for x in parts[1:]]
            except ValueError:
                raise ModelFormatError("unparseable float", line=lineno) from None
            index[token] = lineno - 2
            tokens.append(token)
    # nan and inf parse as floats, but the service could not answer them in JSON
    non_finite = ~np.isfinite(vectors).all(axis=1)
    if non_finite.any():
        raise ModelFormatError("non-finite value", line=int(np.argmax(non_finite)) + 2)
    counts = np.ones(size, dtype=np.int64)
    probs = np.full(size, 1.0 / size, dtype=np.float64) if size else np.zeros(0, dtype=np.float64)
    vocab = Vocabulary(tokens, index, counts, probs)
    return EmbeddingModel(vocab, vectors)
