"""Evaluation harness: cross-validated k-NN classification and ridge
regression over entity vectors, relatedness scoring against gold files, and
walk-subgraph density reports.

Gold file formats (tab-separated, ``#`` comments and blank lines ignored):

* classification / regression: ``<entity IRI><TAB><label or numeric target>``
* entity relatedness: a seed IRI on its own line, followed by one
  tab-indented candidate IRI per line, most related first
* document relatedness: ``doc<TAB><id><TAB><entity> <entity> ...`` rows
  defining documents and ``pair<TAB><id><TAB><id><TAB><score>`` rows scoring
  them
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph_io import reading
from .trainer import EmbeddingModel
from .vector_ops import ZeroVectorError, cosine, harmonic_mean, pearson, spearman, top_k

logger = logging.getLogger(__name__)


class EvalError(ValueError):
    pass


class FoldError(EvalError):
    """Fold assignment impossible for the requested number of folds."""


class RankDeficientError(EvalError):
    """Singular normal equations: a rank-deficient design matrix with a zero
    or negligible ridge penalty."""


# --------------------------------------------------------------------------
# Fold assignment
# --------------------------------------------------------------------------


def stratified_folds(labels: Sequence[str], folds: int, seed: int) -> list[int]:
    """Seeded stratified assignment: returns a fold index per example, every
    fold receiving at least one example of every class."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    rng = random.Random(seed)
    assignment = [0] * len(labels)
    for label, idxs in by_class.items():
        if len(idxs) < folds:
            raise FoldError(f"class {label!r} has {len(idxs)} examples, fewer than folds={folds}")
        rng.shuffle(idxs)
        for j, i in enumerate(idxs):
            assignment[i] = j % folds
    return assignment


def shuffled_folds(n: int, folds: int, seed: int) -> list[int]:
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise FoldError(f"{n} examples, fewer than folds={folds}")
    idxs = list(range(n))
    random.Random(seed).shuffle(idxs)
    assignment = [0] * n
    for j, i in enumerate(idxs):
        assignment[i] = j % folds
    return assignment


# --------------------------------------------------------------------------
# k-NN classification
# --------------------------------------------------------------------------


def _unit_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroVectorError("zero-norm vector in k-NN input")
    return x / norms


def knn_predict(train_x: np.ndarray, train_y: Sequence[str], test_x: np.ndarray, k: int = 3) -> list[str]:
    """Majority vote over the k nearest training points by cosine distance
    (1 - cosine). A vote tie goes to the label of the nearest neighbor that
    holds one of the tied labels."""
    tx = _unit_rows(train_x)
    qx = _unit_rows(test_x)
    sims = qx @ tx.T
    predictions = []
    for row in sims:
        order = top_k(row, k)
        votes: dict[str, int] = {}
        for i in order:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
        best = max(votes.values())
        tied = {label for label, n in votes.items() if n == best}
        if len(tied) == 1:
            predictions.append(next(iter(tied)))
        else:
            predictions.append(next(train_y[i] for i in order if train_y[i] in tied))
    return predictions


def knn_cv(
    x: np.ndarray,
    labels: Sequence[str],
    *,
    k: int = 3,
    folds: int = 10,
    seed: int = 0,
) -> tuple[float, list[str]]:
    """Stratified cross validation; returns (mean accuracy over folds,
    held-out prediction per example)."""
    assignment = stratified_folds(labels, folds, seed)
    predictions: list[str | None] = [None] * len(labels)
    accuracies = []
    for fold in range(folds):
        test = [i for i, a in enumerate(assignment) if a == fold]
        train = [i for i, a in enumerate(assignment) if a != fold]
        predicted = knn_predict(x[train], [labels[i] for i in train], x[test], k)
        hits = 0
        for i, label in zip(test, predicted):
            predictions[i] = label
            hits += label == labels[i]
        accuracies.append(hits / len(test))
    return float(np.mean(accuracies)), predictions  # type: ignore[return-value]


def _model_matrix(model: EmbeddingModel, data, what: str) -> tuple[np.ndarray, list]:
    present = [(e, y) for e, y in data if e in model.vocabulary]
    dropped = len(data) - len(present)
    if dropped:
        logger.warning("dropping %d of %d %s entities missing from the vocabulary", dropped, len(data), what)
    if not present:
        raise EvalError(f"no {what} entity is present in the vocabulary")
    x = np.stack([model.vector(e) for e, _ in present]).astype(np.float64)
    return x, [y for _, y in present]


def knn_classification_cv(
    model: EmbeddingModel,
    data: Sequence[tuple[str, str]],
    k: int = 3,
    folds: int = 10,
    seed: int = 0,
) -> float:
    """Mean k-NN accuracy over stratified folds; entities missing from the
    vocabulary are reported and dropped."""
    x, labels = _model_matrix(model, data, "classification")
    accuracy, _ = knn_cv(x, labels, k=k, folds=folds, seed=seed)
    return accuracy


# --------------------------------------------------------------------------
# Ridge regression
# --------------------------------------------------------------------------


def ridge_fit(x: np.ndarray, y: np.ndarray, ridge: float):
    """Standardize features with training statistics, center the target, and
    solve the damped normal equations. Returns the prediction parameters."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    z = (x - mu) / sd
    if ridge == 0.0 and np.linalg.matrix_rank(z) < z.shape[1]:
        raise RankDeficientError("design matrix is rank deficient; use a non-zero ridge penalty")
    y_mean = float(y.mean())
    gram = z.T @ z + ridge * np.eye(z.shape[1])
    try:
        beta = np.linalg.solve(gram, z.T @ (y - y_mean))
    except np.linalg.LinAlgError:
        message = f"design matrix is rank deficient at ridge {ridge!r}; use a larger ridge penalty"
        raise RankDeficientError(message) from None
    return beta, mu, sd, y_mean


def ridge_predict(params, x: np.ndarray) -> np.ndarray:
    beta, mu, sd, y_mean = params
    return ((x - mu) / sd) @ beta + y_mean


def regression_cv(
    x: np.ndarray,
    y: np.ndarray,
    *,
    folds: int = 10,
    ridge: float = 1e-2,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Cross-validated ridge regression; returns (RMSE pooled over held-out
    folds, held-out prediction per example)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    assignment = shuffled_folds(len(y), folds, seed)
    predictions = np.empty(len(y), dtype=np.float64)
    squared = []
    for fold in range(folds):
        test = [i for i, a in enumerate(assignment) if a == fold]
        train = [i for i, a in enumerate(assignment) if a != fold]
        params = ridge_fit(x[train], y[train], ridge)
        p = ridge_predict(params, x[test])
        predictions[test] = p
        squared.append((p - y[test]) ** 2)
    rmse = float(np.sqrt(np.concatenate(squared).mean()))
    return rmse, predictions


def linear_regression_cv(
    model: EmbeddingModel,
    data: Sequence[tuple[str, float]],
    folds: int = 10,
    ridge: float = 1e-2,
    seed: int = 0,
) -> float:
    x, targets = _model_matrix(model, data, "regression")
    rmse, _ = regression_cv(x, np.asarray(targets, dtype=np.float64), folds=folds, ridge=ridge, seed=seed)
    return rmse


# --------------------------------------------------------------------------
# Relatedness
# --------------------------------------------------------------------------


def entity_relatedness_eval(
    model: EmbeddingModel,
    gold: Sequence[tuple[str, Sequence[str]]],
) -> tuple[list[tuple[str, float]], float]:
    """For each seed, Spearman correlation between the gold candidate order
    and the cosine ranking; returns per-seed scores and their mean. A seed is
    skipped when absent itself or when more than half its candidates are."""
    per_seed: list[tuple[str, float]] = []
    for seed_iri, candidates in gold:
        if seed_iri not in model.vocabulary:
            logger.warning("seed %s missing from the vocabulary; skipped", seed_iri)
            continue
        present = [c for c in candidates if c in model.vocabulary]
        missing = len(candidates) - len(present)
        if missing:
            logger.warning("%d of %d candidates for %s missing from the vocabulary", missing, len(candidates), seed_iri)
        if 2 * missing > len(candidates):
            logger.warning("seed %s skipped: more than half of its candidates are missing", seed_iri)
            continue
        if len(present) < 2:
            logger.warning("seed %s skipped: fewer than two usable candidates", seed_iri)
            continue
        seed_vec = model.vector(seed_iri)
        scores = [cosine(seed_vec, model.vector(c)) for c in present]
        gold_positions = list(range(1, len(present) + 1))
        rho = spearman(gold_positions, [-s for s in scores])
        per_seed.append((seed_iri, rho))
    if not per_seed:
        raise EvalError("no seed produced a relatedness score")
    return per_seed, float(np.mean([rho for _, rho in per_seed]))


def document_relatedness_eval(
    model: EmbeddingModel,
    documents: Mapping[str, Sequence[str]],
    pairs: Sequence[tuple[str, str, float]],
) -> float:
    """Documents are represented by the centroid of their in-vocabulary
    entity vectors; a pair's predicted score is the centroid cosine. Returns
    the harmonic mean of Pearson and Spearman correlation between predicted
    and gold scores over all scorable pairs."""
    centroids: dict[str, np.ndarray] = {}
    for doc, entities in documents.items():
        vectors = [model.vector(e) for e in entities if e in model.vocabulary]
        if vectors:
            centroids[doc] = np.mean(np.asarray(vectors, dtype=np.float64), axis=0)
        else:
            logger.warning("document %s has no in-vocabulary entities", doc)
    predicted, gold_scores = [], []
    excluded = 0
    for a, b, score in pairs:
        if a in centroids and b in centroids:
            predicted.append(cosine(centroids[a], centroids[b]))
            gold_scores.append(float(score))
        else:
            excluded += 1
    if excluded:
        logger.warning("excluded %d document pairs without scorable documents", excluded)
    if len(predicted) < 2:
        raise EvalError("need at least two scorable document pairs")
    return harmonic_mean(pearson(predicted, gold_scores), spearman(predicted, gold_scores))


# --------------------------------------------------------------------------
# Walk-subgraph density
# --------------------------------------------------------------------------


@dataclass
class DensityReport:
    """Shape of the graph assembled from the distinct (node, predicate, node)
    transitions occurring in a corpus. ``edges`` counts distinct labeled
    transitions; ``density`` uses the underlying simple directed graph
    (parallel predicates collapsed, loops excluded) so it stays within
    [0, 1], and is 0 when fewer than two nodes appear."""

    nodes: int
    edges: int
    density: float
    mean_anchor_degree: float


def walk_density(corpus) -> DensityReport:
    """Assemble the walk transition graph and report nodes, edges, density,
    and the mean in+out degree of the corpus anchors within it. Works on any
    corpus whose walks expose ``tokens``; duplicate walks have no effect."""
    walks = corpus.walks
    if not walks:
        raise EvalError("empty corpus")
    nodes = set()
    transitions = set()
    node_pairs = set()
    for walk in walks:
        tokens = walk.tokens
        nodes.update(tokens[0::2])
        for i in range(0, len(tokens) - 2, 2):
            s, p, o = tokens[i], tokens[i + 1], tokens[i + 2]
            transitions.add((s, p, o))
            if s != o:
                node_pairs.add((s, o))
    n = len(nodes)
    density = len(node_pairs) / (n * (n - 1)) if n > 1 else 0.0
    in_deg: dict = {}
    out_deg: dict = {}
    for s, _, o in transitions:
        out_deg[s] = out_deg.get(s, 0) + 1
        in_deg[o] = in_deg.get(o, 0) + 1
    anchors = list(corpus.entities)
    if anchors:
        mean_deg = float(np.mean([in_deg.get(a, 0) + out_deg.get(a, 0) for a in anchors]))
    else:
        mean_deg = 0.0
    return DensityReport(n, len(transitions), density, mean_deg)


# --------------------------------------------------------------------------
# Gold file loaders
# --------------------------------------------------------------------------


def _content_lines(path: str | Path) -> Iterable[tuple[int, str]]:
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def load_labeled_entities(path: str | Path) -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise EvalError(f"{path}:{lineno}: expected '<entity><TAB><label>'")
        entity = parts[0].strip()
        if entity in seen:
            raise EvalError(f"{path}:{lineno}: duplicate entity {entity!r}")
        seen.add(entity)
        rows.append((entity, parts[1].strip()))
    return rows


def load_regression_targets(path: str | Path) -> list[tuple[str, float]]:
    rows: list[tuple[str, float]] = []
    seen: set[str] = set()
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip():
            raise EvalError(f"{path}:{lineno}: expected '<entity><TAB><target>'")
        entity = parts[0].strip()
        if entity in seen:
            raise EvalError(f"{path}:{lineno}: duplicate entity {entity!r}")
        try:
            target = float(parts[1])
        except ValueError:
            raise EvalError(f"{path}:{lineno}: unparseable target {parts[1]!r}") from None
        if not math.isfinite(target):
            raise EvalError(f"{path}:{lineno}: non-finite target {parts[1]!r}")
        seen.add(entity)
        rows.append((entity, target))
    return rows


def load_entity_relatedness_gold(path: str | Path) -> list[tuple[str, list[str]]]:
    gold: list[tuple[str, list[str]]] = []
    for lineno, line in _content_lines(path):
        if line.startswith("\t"):
            if not gold:
                raise EvalError(f"{path}:{lineno}: candidate before any seed line")
            gold[-1][1].append(line.strip())
        else:
            gold.append((line.strip(), []))
    return gold


def load_document_relatedness_gold(
    path: str | Path,
) -> tuple[dict[str, list[str]], list[tuple[str, str, float]]]:
    documents: dict[str, list[str]] = {}
    pairs: list[tuple[str, str, float]] = []
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        kind = parts[0]
        if kind == "doc":
            if len(parts) != 3 or not parts[1]:
                raise EvalError(f"{path}:{lineno}: expected 'doc<TAB><id><TAB><entities>'")
            if parts[1] in documents:
                raise EvalError(f"{path}:{lineno}: duplicate document {parts[1]!r}")
            # entities are separated by spaces only; an IRI may hold other whitespace
            documents[parts[1]] = [e for e in parts[2].split(" ") if e]
        elif kind == "pair":
            if len(parts) != 4:
                raise EvalError(f"{path}:{lineno}: expected 'pair<TAB><id><TAB><id><TAB><score>'")
            try:
                score = float(parts[3])
            except ValueError:
                raise EvalError(f"{path}:{lineno}: unparseable score {parts[3]!r}") from None
            if not math.isfinite(score):
                raise EvalError(f"{path}:{lineno}: non-finite score {parts[3]!r}")
            pairs.append((parts[1], parts[2], score))
        else:
            raise EvalError(f"{path}:{lineno}: unknown row kind {kind!r}")
    return documents, pairs


# --------------------------------------------------------------------------
# Result rows
# --------------------------------------------------------------------------


def results_csv(strategy: str, task: str, metrics: Sequence[tuple[str, float | int]]) -> str:
    """Render metric rows as CSV with a ``strategy,task,metric,value``
    header; float values carry four decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy", "task", "metric", "value"])
    for name, value in metrics:
        rendered = str(value) if isinstance(value, (int, np.integer)) else f"{value:.4f}"
        writer.writerow([strategy, task, name, rendered])
    return buf.getvalue()
