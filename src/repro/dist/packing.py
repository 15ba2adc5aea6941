"""Buffer packing for Alltoallv exchanges.

Algorithm 3 in the paper assembles a send buffer ordered by destination
rank (counts → prefix sums → fill).  These helpers are the vectorized
equivalent, in two flavors:

* :func:`pack_fields_by_rank` — struct-of-arrays: each record field stays
  a contiguous array in its own (narrowest sufficient) dtype, the layout
  :meth:`SimComm.Alltoallv_fields` ships as independently-typed planes.
  This is the compact wire format's packer.
* :func:`pack_by_rank` / :func:`unpack_fields` — the legacy ``gid64``
  format: records with ``k`` fields interleaved ``f0, f1, ..., f(k-1)``
  per record in one flat int64 buffer, exactly like the paper's
  ``(vertex, part)`` pairs.  Kept as the bit-identity verification mode.

Both are built on :func:`bucket_by_rank`, an O(n) stable counting-sort
bucketing (the argsort it replaces was O(n log n) comparison sorting).

Zero-copy contract: packers *produce* fresh buffers (fancy indexing
copies), so senders may hand them to a collective and forget them; the
matching *received* buffers may be sealed read-only views shared by every
in-process rank (:mod:`repro.simmpi.dataplane`), so consumers —
:func:`unpack_fields` included — must never write into them
(slice/index/cast, or :func:`repro.simmpi.dataplane.materialize` first).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def bucket_by_rank(
    nprocs: int, dest: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable O(n) bucketing of records by destination rank.

    Returns ``(order, record_counts)``: ``order`` permutes record indices
    into destination-rank-major order with the original order preserved
    within each rank (stable), and ``record_counts[r]`` is the number of
    records destined for rank ``r``.

    Complexity: destination keys are bounded by ``nprocs``, so the
    permutation is produced by counting sort — keys are narrowed to 8/16
    bits and handed to NumPy's stable integer sort, which dispatches to
    LSD radix sort (one or two O(n) counting passes) rather than an
    O(n log n) comparison sort.
    """
    dest = np.asarray(dest)
    if dest.size and (dest.min() < 0 or dest.max() >= nprocs):
        raise ValueError("destination rank out of range")
    counts = np.bincount(dest, minlength=nprocs).astype(np.int64)
    if nprocs <= np.iinfo(np.uint8).max:
        key = dest.astype(np.uint8)
    elif nprocs <= np.iinfo(np.uint16).max:
        key = dest.astype(np.uint16)
    else:  # pragma: no cover - simulated rank counts never get here
        key = dest
    order = np.argsort(key, kind="stable").astype(np.int64)
    return order, counts


def pack_fields_by_rank(
    nprocs: int, dest: np.ndarray, fields: Sequence[np.ndarray]
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Pack records into destination-ordered per-field planes (SoA).

    Parameters
    ----------
    nprocs:
        Number of ranks.
    dest:
        Destination rank of each record.
    fields:
        One or more equal-length arrays; record ``i`` is
        ``(fields[0][i], fields[1][i], ...)``.  Each field keeps its own
        dtype — nothing is widened to int64.

    Returns
    -------
    (planes, record_counts):
        ``planes[j]`` is ``fields[j]`` permuted into destination-rank-major
        order (stable within a rank); ``record_counts[r]`` counts *records*
        going to rank ``r`` — the unit
        :meth:`SimComm.Alltoallv_fields` expects.
    """
    if len(fields) == 0:
        raise ValueError("need at least one field")
    nrec = np.asarray(dest).shape[0]
    for f in fields:
        if np.asarray(f).shape[0] != nrec:
            raise ValueError("all fields must match dest length")
    order, counts = bucket_by_rank(nprocs, dest)
    planes = [np.ascontiguousarray(np.asarray(f)[order]) for f in fields]
    return planes, counts


def pack_by_rank(
    nprocs: int, dest: np.ndarray, fields: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack records into a destination-ordered flat int64 buffer (legacy
    ``gid64`` interleave).

    Returns
    -------
    (sendbuf, sendcounts):
        ``sendbuf`` is int64, records interleaved, grouped by destination in
        rank order; ``sendcounts[r]`` counts *buffer items* (records × k)
        going to rank ``r`` — the unit :meth:`SimComm.Alltoallv` expects.
    """
    k = len(fields)
    planes, counts = pack_fields_by_rank(nprocs, dest, fields)
    nrec = planes[0].shape[0]
    # contiguous (nrec, k) view: one write pass per field column, then one
    # flat ravel — replaces the k strided sendbuf[j::k] passes
    records = np.empty((nrec, k), dtype=np.int64)
    for j, plane in enumerate(planes):
        records[:, j] = plane
    return records.reshape(-1), counts * k


def unpack_fields(recvbuf: np.ndarray, k: int) -> List[np.ndarray]:
    """Inverse of the interleaving in :func:`pack_by_rank`."""
    if recvbuf.size % k:
        raise ValueError(f"buffer size {recvbuf.size} not divisible by {k}")
    records = recvbuf.reshape(-1, k)
    return [np.ascontiguousarray(records[:, j]) for j in range(k)]


def counts_to_record_ranges(
    recvcounts: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source-rank record ranges ``(starts, stops)`` in record units."""
    rc = np.asarray(recvcounts, dtype=np.int64)
    if np.any(rc % k):
        raise ValueError("received counts not divisible by record width")
    rec = rc // k
    stops = np.cumsum(rec)
    starts = stops - rec
    return starts, stops
