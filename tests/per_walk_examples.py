"""Training examples as they were built before the flat pass: a dict count
per token, one id array per walk and a Python loop over walks in each
builder. A test oracle for :mod:`kgembed.trainer`'s ``_corpus_ids`` and
``_examples``; only what the tests compare is kept."""

from __future__ import annotations

import numpy as np

from kgembed.trainer import EmptyCorpusError, Vocabulary


def build_vocabulary(sentences, min_count: int = 1) -> Vocabulary:
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


def encode_sentences(sentences, vocab: Vocabulary) -> list[np.ndarray]:
    index = vocab.index
    encoded = []
    for sentence in sentences:
        ids = [index[t] for t in sentence if t in index]
        if ids:
            encoded.append(np.asarray(ids, dtype=np.int64))
    return encoded


def sg_pairs(encoded, window: int):
    centers, contexts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for a in encoded:
        n = a.shape[0]
        for off in range(1, min(window, n - 1) + 1):
            left, right = a[:-off], a[off:]
            centers.append(left)
            contexts.append(right)
            centers.append(right)
            contexts.append(left)
    inputs = np.concatenate(centers)[:, None]
    return inputs, np.broadcast_to(np.float32(1), inputs.shape), np.concatenate(contexts)


def cbow_groups(encoded, window: int):
    window = min(window, max((a.shape[0] for a in encoded), default=1) - 1)
    width = 2 * window
    mats = [np.zeros((0, width), dtype=np.int64)]
    masks = [np.zeros((0, width), dtype=np.float32)]
    centers = [np.zeros(0, dtype=np.int64)]
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
    return np.concatenate(mats), np.concatenate(masks), np.concatenate(centers)


def examples(sentences, min_count: int, window: int, mode: str):
    """The parent's vocabulary and ``(inputs, mask, targets)`` for a corpus."""
    vocab = build_vocabulary(sentences, min_count)
    builder = sg_pairs if mode == "sg" else cbow_groups
    return vocab, builder(encode_sentences(sentences, vocab), window)
