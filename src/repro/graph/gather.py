"""Vectorized multi-range gathers over CSR adjacency.

The inner loops of label propagation, BFS, and boundary detection all need
"for every vertex in this set, visit all its neighbors".  A Python loop over
vertices is orders of magnitude too slow; these helpers express the access
as a single fancy-index gather, which is the idiom the scientific-Python
optimization guidance calls for (vectorize the loop, mind contiguity).

The sort-based ``sorted_unique``/``unique_inverse`` stand in for
``np.unique`` on integer keys; the tier-1 suite rejects any bare
``np.unique(x)`` elsewhere in the package.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop.

    Returns an index array of length ``counts.sum()``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # For each output slot, the base is starts[i] minus the running prefix of
    # counts; adding a global arange then walks each range.
    prefix = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    return np.repeat(starts - prefix, counts) + np.arange(total, dtype=np.int64)


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in sorted
    ``s``."""
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for integer keys: one sort plus an adjacent compare.

    NumPy 2.x answers a bare ``np.unique`` with a hash kernel that is an
    order of magnitude slower on large key arrays than one (SIMD) sort;
    every dedupe in graph construction goes through here instead.  Returns
    the sorted distinct values of the flattened input, in its dtype.
    """
    s = np.sort(np.asarray(a).ravel())
    return s[_run_starts(s)]


def unique_inverse(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, return_inverse=True)`` for integer keys via one
    ``argsort``: ``(uniq, inv)`` with ``uniq[inv] == a.ravel()``."""
    a = np.asarray(a).ravel()
    order = np.argsort(a)
    s = a[order]
    first = _run_starts(s)
    inv = np.empty(a.size, dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return s[first], inv


def neighbor_gather(
    offsets: np.ndarray, adj: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the concatenated neighbor lists of ``verts``.

    Returns ``(neighbors, counts)`` where ``neighbors`` is the concatenation
    of each vertex's adjacency slice and ``counts[i]`` is ``degree(verts[i])``.
    """
    verts = np.asarray(verts, dtype=np.int64)
    starts = offsets[verts]
    counts = offsets[verts + 1] - starts
    idx = expand_ranges(starts, counts)
    return adj[idx], counts


def neighbor_gather_with_sources(
    offsets: np.ndarray, adj: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`neighbor_gather` but also returns, for every gathered
    neighbor, the *position in verts* of its source vertex.

    ``(neighbors, sources, counts)`` with ``len(neighbors) == len(sources)``;
    ``sources`` indexes into ``verts`` (0..len(verts)-1), which is exactly
    the row index needed for per-vertex ``bincount`` aggregation.
    """
    neighbors, counts = neighbor_gather(offsets, adj, verts)
    sources = np.repeat(np.arange(len(verts), dtype=np.int64), counts)
    return neighbors, sources, counts
