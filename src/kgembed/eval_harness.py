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

Gold files and entity lists are read by :func:`~kgembed.graph_io.content_lines`.
Fields, lines and a document's entities lose only ASCII whitespace at their ends.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph_io import ASCII_WHITESPACE, content_lines
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
    """Seeded assignment of ``n`` examples: :func:`stratified_folds` of one class."""
    if n < folds and folds >= 2:
        raise FoldError(f"{n} examples, fewer than folds={folds}")
    return stratified_folds([""] * n, folds, seed)


def _held_out(assignment: list[int], folds: int, predictions, fit_predict: Callable) -> list[list[int]]:
    """Fill ``predictions`` fold by fold: ``fit_predict(train, test)`` fits on
    the other folds' rows and predicts this fold's. Returns each fold's rows."""
    tests = []
    for fold in range(folds):
        test = [i for i, a in enumerate(assignment) if a == fold]
        train = [i for i, a in enumerate(assignment) if a != fold]
        for i, predicted in zip(test, fit_predict(train, test)):
            predictions[i] = predicted
        tests.append(test)
    return tests


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
    predictions = [""] * len(labels)
    tests = _held_out(stratified_folds(labels, folds, seed), folds, predictions,
                      lambda train, test: knn_predict(x[train], [labels[i] for i in train], x[test], k))
    accuracies = [sum(predictions[i] == labels[i] for i in test) / len(test) for test in tests]
    return float(np.mean(accuracies)), predictions


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
    solve the damped normal equations. Returns the prediction parameters. A
    ridge within the Gram matrix's ``matrix_rank`` tolerance counts as zero."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    z = (x - mu) / sd
    gram = z.T @ z
    message = f"design matrix is rank deficient at ridge {ridge!r}; use a larger ridge penalty"
    # matrix_rank's tolerance is the largest singular value times this; the
    # trace bounds that value, so a usual ridge needs no SVD
    unit = gram.shape[0] * np.finfo(gram.dtype).eps
    if ridge <= np.trace(gram) * unit and ridge <= np.linalg.svd(gram, compute_uv=False).max() * unit:
        if np.linalg.matrix_rank(z) < z.shape[1]:
            raise RankDeficientError(message)
    y_mean = float(y.mean())
    try:
        beta = np.linalg.solve(gram + ridge * np.eye(z.shape[1]), z.T @ (y - y_mean))
    except np.linalg.LinAlgError:
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
    predictions = np.empty(len(y), dtype=np.float64)
    tests = _held_out(shuffled_folds(len(y), folds, seed), folds, predictions,
                      lambda train, test: ridge_predict(ridge_fit(x[train], y[train], ridge), x[test]))
    rmse = float(np.sqrt(np.concatenate([(predictions[test] - y[test]) ** 2 for test in tests]).mean()))
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


def _finite(field: str, what: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ValueError(f"unparseable {what} {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {field!r}")
    return value


def _entity_values(path: str | Path, value: str, parse: Callable[[str], object]) -> list:
    """Rows of ``<entity><TAB><value>``, each entity once. ``parse`` returns the
    row's value, ``""`` for a malformed row, or raises ``ValueError``."""
    rows = []
    seen: set[str] = set()
    for lineno, line in content_lines(path):
        parts = line.split("\t")
        entity = parts[0].strip(ASCII_WHITESPACE)
        try:
            parsed = parse(parts[1]) if len(parts) == 2 and entity else ""
        except ValueError as exc:
            raise EvalError(f"{path}:{lineno}: {exc}") from None
        if parsed == "":
            raise EvalError(f"{path}:{lineno}: expected '<entity><TAB><{value}>'")
        if entity in seen:
            raise EvalError(f"{path}:{lineno}: duplicate entity {entity!r}")
        seen.add(entity)
        rows.append((entity, parsed))
    return rows


def load_labeled_entities(path: str | Path) -> list[tuple[str, str]]:
    return _entity_values(path, "label", lambda field: field.strip(ASCII_WHITESPACE))


def load_regression_targets(path: str | Path) -> list[tuple[str, float]]:
    return _entity_values(path, "target", lambda field: _finite(field, "target"))


def load_entity_relatedness_gold(path: str | Path) -> list[tuple[str, list[str]]]:
    gold: list[tuple[str, list[str]]] = []
    for lineno, line in content_lines(path):
        iri = line.strip(ASCII_WHITESPACE)
        if not line.startswith("\t"):
            gold.append((iri, []))
        elif gold:
            gold[-1][1].append(iri)
        else:
            raise EvalError(f"{path}:{lineno}: candidate before any seed line")
    return gold


def load_document_relatedness_gold(
    path: str | Path,
) -> tuple[dict[str, list[str]], list[tuple[str, str, float]]]:
    documents: dict[str, list[str]] = {}
    pairs: list[tuple[str, str, float]] = []
    for lineno, line in content_lines(path):
        raw = line.split("\t")
        kind, *fields = [part.strip(ASCII_WHITESPACE) for part in raw]
        if kind == "doc":
            if len(raw) != 3 or not fields[0]:
                raise EvalError(f"{path}:{lineno}: expected 'doc<TAB><id><TAB><entities>'")
            if fields[0] in documents:
                raise EvalError(f"{path}:{lineno}: duplicate document {fields[0]!r}")
            # entities are separated by spaces only; an IRI may hold other whitespace
            documents[fields[0]] = [e for e in (t.strip(ASCII_WHITESPACE) for t in fields[1].split(" ")) if e]
        elif kind == "pair":
            if len(raw) != 4:
                raise EvalError(f"{path}:{lineno}: expected 'pair<TAB><id><TAB><id><TAB><score>'")
            try:
                pairs.append((fields[0], fields[1], _finite(raw[3], "score")))
            except ValueError as exc:
                raise EvalError(f"{path}:{lineno}: {exc}") from None
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
