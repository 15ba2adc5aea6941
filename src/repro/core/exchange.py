"""The paper's ExchangeUpdates communication routine (Algorithm 3).

After a propagation sweep, each rank ships the updates of its *updated*
owned vertices to every rank holding a ghost copy (the vertex's off-rank
neighbor owners), via a counts Alltoall followed by a payload Alltoallv —
exactly the paper's two-step exchange, with the per-vertex ``toSend`` rank
sets precomputed at DistGraph build time.

Two wire formats (:mod:`repro.dist.wire`):

* ``gid64`` — the paper's literal record: interleaved 64-bit
  ``(vertex gid, new part)`` pairs, resolved on receive with a
  ``searchsorted`` over the ghost gids (16 B/record);
* ``compact`` (default) — owner-relative addressing: each record is the
  destination rank's ghost slot index (``DistGraph.send_ghost_slot``,
  narrowest unsigned dtype) plus the part label (narrowest signed dtype),
  shipped as independently-typed field planes and applied by direct
  indexed assignment (4–8 B/record, no per-exchange gid lookup).

Both formats send the same records in the same stable destination-major
order, so the receive-side writes — and everything downstream — are
bit-identical.

Receive buffers are consumed read-only (indexed assignment *from* them
into the rank-local ``parts`` array), which is what lets the in-process
backends deliver them as sealed views shared by every rank
(:mod:`repro.simmpi.dataplane`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.packing import pack_by_rank, pack_fields_by_rank, unpack_fields
from repro.dist.wire import WireSpec
from repro.graph.gather import expand_ranges
from repro.simmpi.comm import SimComm


def exchange_updates(
    comm: SimComm,
    dg: DistGraph,
    parts: np.ndarray,
    updated_lids: np.ndarray,
    wire: Optional[WireSpec] = None,
) -> np.ndarray:
    """Propagate part updates for ``updated_lids`` (owned local ids) and
    apply incoming updates to this rank's ghost entries of ``parts``.

    ``wire`` selects the message format (None → legacy ``gid64``).
    Returns the local ids of the ghost entries that were updated (each
    ghost has one owner, so the ids are unique) — the frontier engine
    seeds the next active set from them.  Collective: all ranks must call
    it each sweep (possibly with empty updates) and agree on the format.
    """
    updated_lids = np.asarray(updated_lids, dtype=np.int64)
    # destination ranks: each updated vertex goes to all its neighbor ranks
    starts = dg.send_rank_offsets[updated_lids]
    counts = dg.send_rank_offsets[updated_lids + 1] - starts
    idx = expand_ranges(starts, counts)
    dest = dg.send_rank_adj[idx]
    new_parts = np.repeat(parts[updated_lids], counts)

    if wire is not None and wire.compact:
        slots = dg.send_ghost_slot[idx].astype(wire.slot_dtype)
        planes, reccounts = pack_fields_by_rank(
            comm.size, dest, (slots, new_parts.astype(wire.part_dtype))
        )
        recv, _ = comm.Alltoallv_fields(planes, reccounts)
        rslots, rparts = recv
        if rslots.size == 0:
            return np.empty(0, dtype=np.int64)
        ghost_lids = rslots.astype(np.int64) + dg.n_local
        parts[ghost_lids] = rparts
        return ghost_lids

    gids = np.repeat(dg.l2g[updated_lids], counts)
    sendbuf, sendcounts = pack_by_rank(comm.size, dest, (gids, new_parts))
    recvbuf, _ = comm.Alltoallv(sendbuf, sendcounts)
    if recvbuf.size == 0:
        return np.empty(0, dtype=np.int64)
    rgids, rparts = unpack_fields(recvbuf, 2)
    ghost_lids = dg.ghost_lids(rgids)
    parts[ghost_lids] = rparts
    return ghost_lids
