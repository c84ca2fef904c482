"""Evaluation code as it was before each job got one path: a fold loop in
each of ``knn_cv`` and ``regression_cv``, a ``shuffled_folds`` that shuffled
by itself, a ``cosine`` that took ``np.linalg.norm`` and an ``average_ranks``
that walked tie runs in a Python loop. A test oracle for
:mod:`kgembed.eval_harness` and :mod:`kgembed.vector_ops`; only what the
tests compare is kept."""

from __future__ import annotations

import random

import numpy as np

from kgembed.eval_harness import FoldError, knn_predict, ridge_fit, ridge_predict, stratified_folds
from kgembed.vector_ops import ZeroVectorError


def cosine(u, v) -> float:
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero-norm vector is undefined")
    return float(a @ b / (na * nb))


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


def knn_cv(x, labels, *, k=3, folds=10, seed=0):
    assignment = stratified_folds(labels, folds, seed)
    predictions = [None] * len(labels)
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
    return float(np.mean(accuracies)), predictions


def regression_cv(x, y, *, folds=10, ridge=1e-2, seed=0):
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


def average_ranks(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.shape[0], dtype=np.float64)
    i = 0
    while i < a.shape[0]:
        j = i
        while j + 1 < a.shape[0] and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
