"""Small shared NumPy idioms used across the batched kernels.

No paper section of its own: these are the offset/slicing primitives
the vectorized implementations of Algorithm 1's TP-BFS
(:mod:`repro.core.tp_bfs_batched`), its task generation, the induced
subgraph of :meth:`repro.graph.csr.CSRGraph.subgraph` and the Island
Consumer's task batch (§3.3, :mod:`repro.core.consumer_batched`) are
built from, plus the one sorted-dedup every graph-plumbing path uses
(:func:`sorted_unique`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["cumsum0", "flat_gather", "sorted_unique"]


def cumsum0(values) -> np.ndarray:
    """Exclusive-prefix-sum with a leading zero (CSR-style offsets).

    ``cumsum0(counts)[t] .. cumsum0(counts)[t + 1]`` is element ``t``'s
    slice of a flat array partitioned by ``counts`` — the offsets idiom
    every batched kernel (locator, consumer, pre-aggregation layout)
    leans on.
    """
    values = np.asarray(values)
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def flat_gather(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """CSR row gather positions for a set of rows.

    Returns ``(flat, counts, total)`` where ``indices[flat]`` lists
    every entry of ``rows`` in row-major order (each row's entries in
    their stored, sorted order), ``counts`` is each row's length and
    ``total`` their sum — so ``np.repeat(rows, counts)`` is the source
    row of every gathered entry.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    prefix = np.cumsum(counts) - counts
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - prefix, counts)
    return flat, counts, total


def sorted_unique(values) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array (``np.unique``).

    Sort plus a neighbour diff: on numpy 2.x, ``np.unique`` of an
    integer array takes a hash path that is ~60x slower on the
    multi-million-entry edge keys used here.  Input that is already
    strictly increasing — the edge keys of every canonical CSR — is
    detected in one comparison pass and returned as-is, so **the
    result may alias the input**: do not mutate one and rely on the
    other.  Otherwise the result is a new array.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        values = values.ravel()
    if len(values) < 2 or bool(np.all(values[1:] > values[:-1])):
        return values
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
