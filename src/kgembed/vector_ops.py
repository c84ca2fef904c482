"""Similarity and rank statistics over embedding vectors."""

from __future__ import annotations

import math

import numpy as np

from .trainer import EmbeddingModel


class ZeroVectorError(ValueError):
    """A zero-norm vector where a direction is required."""


class DegenerateVarianceError(ValueError):
    """degenerate-variance: a correlation input has no variance."""


class NonPositiveCorrelationError(ValueError):
    """non-positive-correlation: the harmonic mean is refused; both raw
    values travel with the error."""

    def __init__(self, a: float, b: float):
        super().__init__(f"non-positive-correlation: cannot combine {a} and {b}")
        self.values = (a, b)


def cosine(u, v) -> float:
    """Cosine similarity of two equal-dimension vectors."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(a.dot(a))  # what np.linalg.norm computes for one real vector
    nb = math.sqrt(b.dot(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero-norm vector is undefined")
    return float(a @ b / (na * nb))


def top_k(scores, k: int) -> np.ndarray:
    """Indices of the ``k`` largest ``scores``, by descending score with ties
    broken by ascending index: the first ``k`` of all indices sorted by the
    key ``(-score, index)``. ``k`` larger than ``len(scores)`` is capped. One
    ``partition`` finds the k-th largest score; only the candidates at or
    above it are sorted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s = np.asarray(scores)
    n = s.shape[0]
    if k >= n:
        return np.argsort(-s, kind="stable")
    kth = np.partition(s, n - k)[n - k]
    candidates = (s >= kth).nonzero()[0]
    return candidates[(-s[candidates]).argsort(kind="stable")[:k]]


class NeighborIndex:
    """Cosine neighbour queries over a model's vectors, prepared once: the
    float64 matrix, the row norms and the mask of zero-norm rows. Zero rows
    never appear in a neighbour list; querying one raises
    :class:`ZeroVectorError`. Read-only after construction, so threads may
    share it."""

    def __init__(self, model: EmbeddingModel):
        self.vocabulary = model.vocabulary
        self.matrix = model.vectors.astype(np.float64)
        self.norms = np.linalg.norm(self.matrix, axis=1)
        self.zero = self.norms == 0.0
        # A zero row divides by inf and scores 0 with no warning; it is left out anyway.
        self._divisors = np.where(self.zero, np.inf, self.norms)
        # Ascending, so index ties still break by vocabulary order; None when every row is live.
        self._live = np.flatnonzero(~self.zero) if self.zero.any() else None

    def is_zero(self, token: str) -> bool:
        return bool(self.zero[self.vocabulary.index_of(token)])

    def similarity(self, left: str, right: str) -> float:
        """:func:`cosine` of two tokens' float64 rows."""
        return cosine(self.matrix[self.vocabulary.index_of(left)], self.matrix[self.vocabulary.index_of(right)])

    def query(self, token: str, k: int = 10) -> list[tuple[str, float]]:
        """See :func:`nearest_neighbors`."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = self.vocabulary.index_of(token)
        norm = self.norms[q]
        if norm == 0.0:
            raise ZeroVectorError(f"zero-norm vector for token {token!r}")
        scores = (self.matrix @ self.matrix[q]) / (self._divisors * norm)
        if self._live is None:
            order = top_k(scores, k + 1)
        else:
            order = self._live[top_k(scores[self._live], k + 1)]
        tokens = self.vocabulary.tokens
        found = [(tokens[i], s) for i, s in zip(order.tolist(), scores[order].tolist()) if i != q]
        return found[:k]


def nearest_neighbors(model: EmbeddingModel, token: str, k: int = 10) -> list[tuple[str, float]]:
    """The ``k`` vocabulary tokens most cosine-similar to ``token``, query
    excluded, sorted by descending score with ties broken by ascending
    vocabulary index. ``k`` larger than the vocabulary is capped. Zero-norm
    rows are left out; a zero-norm ``token`` raises :class:`ZeroVectorError`.
    Builds a :class:`NeighborIndex` per call; keep one to answer many."""
    return NeighborIndex(model).query(token, k)


def _correlation_inputs(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least two points")
    return x, y


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _correlation_inputs(xs, ys)
    xc = x - x.mean()
    yc = y - y.mean()
    ssx = float(xc @ xc)
    ssy = float(yc @ yc)
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateVarianceError("degenerate-variance: constant input")
    return float((xc @ yc) / np.sqrt(ssx * ssy))


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties (``-0.0`` and ``0.0`` too) receive the mean of the
    positions they occupy. Each NaN ranks alone, after all numbers, by index."""
    a = np.asarray(values, dtype=np.float64)
    # return_index makes np.unique sort stably, which orders the NaNs by index
    _, _, inverse, counts = np.unique(a, return_index=True, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts - 1) + 1.0)[inverse]


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson over average-rank sequences."""
    x, y = _correlation_inputs(xs, ys)
    return pearson(average_ranks(x), average_ranks(y))


def harmonic_mean(a: float, b: float) -> float:
    """Harmonic mean of two positive values; non-positive inputs raise
    :class:`NonPositiveCorrelationError` instead of producing a misleading
    number."""
    if a <= 0 or b <= 0:
        raise NonPositiveCorrelationError(a, b)
    return 2.0 * a * b / (a + b)
