"""The chunk kernel as it was before its work buffers: every step allocates
its own temporaries, and the rows are gathered by fancy indexing. A test
oracle for :mod:`kgembed.trainer`'s ``_process_chunk`` and
``_add_rows_clipped``, which must give the same bytes."""

from __future__ import annotations

import numpy as np

from kgembed.trainer import _MAX_ROW_UPDATE


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def add_rows_clipped(table, rows, src, owner, weights) -> tuple[int, int]:
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


def process_chunk(w_in, w_out, inputs, mask, targets, negatives, lr):
    with np.errstate(over="ignore", invalid="ignore"):
        counts = mask.sum(axis=1)
        h = np.einsum("bwd,bw->bd", w_in[inputs], mask) / counts[:, None]
        ut = w_out[targets]
        pos = np.einsum("bd,bd->b", h, ut)
        gp = 1.0 - _sigmoid(pos)
        loss = float(_softplus(-pos).sum(dtype=np.float64))
        (b, dim), (g, k) = h.shape, negatives.shape
        m = -(-b // g)
        hg = np.zeros((g * m, dim), dtype=h.dtype)
        hg[:b] = h
        hg = hg.reshape(g, m, dim)
        un = w_out[negatives]
        ns = np.matmul(hg, un.transpose(0, 2, 1))
        padded = np.full(g * m, -1, dtype=targets.dtype)
        padded[:b] = targets
        live = negatives[:, None, :] != padded.reshape(g, m, 1)
        live.reshape(g * m, k)[b:] = False
        gn = np.where(live, -_sigmoid(ns), np.float32(0.0))
        loss += float(_softplus(np.where(live, ns, np.float32(-np.inf))).sum(dtype=np.float64))
        dh = gp[:, None] * ut + np.matmul(gn, un).reshape(g * m, dim)[:b]
        grouped = np.matmul((lr * gn).transpose(0, 2, 1), hg).reshape(g * k, dim)
        rows = np.concatenate([targets, negatives.ravel()])
        src = np.concatenate([h, grouped])
        weights = np.concatenate([lr * gp, np.ones(g * k, dtype=gp.dtype)])
        out_rows, out_clipped = add_rows_clipped(w_out, rows, src, np.arange(rows.size), weights)
        slot_owner, slot = np.nonzero(mask)
        in_rows, in_clipped = add_rows_clipped(w_in, inputs[slot_owner, slot], dh, slot_owner, (lr / counts)[slot_owner])
        return loss, b, in_rows + out_rows, in_clipped + out_clipped
