"""Construct a :class:`~repro.dist.distgraph.DistGraph` inside an SPMD run.

Each rank slices its owned vertices' adjacency from the input graph,
discovers the ghost layer, converts global ids to local ids, and
precomputes the per-vertex neighbor-rank lists used by the paper's
``ExchangeUpdates`` (Algorithm 3 recomputes ``toSend`` from the edges each
exchange; precomputing at build time sends the identical messages).

The input :class:`~repro.graph.csr.Graph` is shared read-only across rank
threads — this models the load phase (in the paper each rank reads its
slice from parallel I/O) and is excluded from partitioning-time metering
via the ``"build"`` phase tag.
"""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.distribution import Distribution
from repro.dist.packing import bucket_by_rank
from repro.graph.csr import Graph
from repro.graph.gather import neighbor_gather
from repro.simmpi.comm import SimComm


def _localize(
    dist: Distribution,
    rank: int,
    owned_gids: np.ndarray,
    neighbor_gids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map neighbor gids → local ids; returns (local_adj, ghost_gids, owners)."""
    owner_of = dist.owner(neighbor_gids) if neighbor_gids.size else np.empty(
        0, dtype=np.int32
    )
    mine = owner_of == rank
    local_adj = np.empty(neighbor_gids.size, dtype=np.int64)
    if np.any(mine):
        local_adj[mine] = dist.lid(rank, neighbor_gids[mine])
    other = ~mine
    ghost_gids = np.unique(neighbor_gids[other]) if np.any(other) else np.empty(
        0, dtype=np.int64
    )
    if np.any(other):
        local_adj[other] = (
            np.searchsorted(ghost_gids, neighbor_gids[other]) + owned_gids.size
        )
    ghost_owners = (
        dist.owner(ghost_gids).astype(np.int32)
        if ghost_gids.size
        else np.empty(0, dtype=np.int32)
    )
    return local_adj, ghost_gids, ghost_owners


def _send_rank_lists(
    nprocs: int,
    src: np.ndarray,
    local_adj: np.ndarray,
    n_local: int,
    ghost_owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per owned vertex, the sorted unique off-rank owners of its neighbors
    (``src`` is the owned row of every arc)."""
    is_ghost = local_adj >= n_local
    src_g = src[is_ghost]
    owners_g = ghost_owners[local_adj[is_ghost] - n_local].astype(np.int64)
    if src_g.size == 0:
        return np.zeros(n_local + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    key = np.unique(src_g * np.int64(nprocs) + owners_g)
    verts = key // nprocs
    ranks = key % nprocs
    sr_offsets = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(np.bincount(verts, minlength=n_local), out=sr_offsets[1:])
    return sr_offsets, ranks


def _ghost_routing(
    comm: SimComm,
    ghost_gids: np.ndarray,
    ghost_owners: np.ndarray,
    sr_adj: np.ndarray,
) -> np.ndarray:
    """One-time collective: learn each send pair's destination ghost slot.

    Every rank tells each ghost's owner *where in its own ghost array* that
    ghost lives (ghosts grouped owner-major, gid-minor).  The owner's
    incoming chunk from rank ``r`` is therefore ordered by its owned gids
    that are ghosts on ``r`` — exactly its ``(vertex, r)`` send pairs in
    vertex order — so one stable bucketing of ``sr_adj`` aligns the slots
    with ``send_rank_adj``.  Compact-wire sends then address ghost copies
    by these precomputed slots instead of 64-bit gids.
    """
    order, gcounts = bucket_by_rank(comm.size, ghost_owners)
    # order[i] is the ghost-array position of the i-th outgoing entry
    slots_in, _ = comm.Alltoallv(order, gcounts)
    if slots_in.size != sr_adj.size:
        raise AssertionError(
            f"rank {comm.rank}: ghost routing received {slots_in.size} "
            f"slots for {sr_adj.size} send pairs"
        )
    send_ghost_slot = np.empty(sr_adj.size, dtype=np.uint32)
    perm, _ = bucket_by_rank(comm.size, sr_adj)
    send_ghost_slot[perm] = slots_in
    return send_ghost_slot


def _ghost_incidence(
    src: np.ndarray,
    local_adj: np.ndarray,
    n_local: int,
    n_ghost: int,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR transpose of the ghost columns: for each ghost lid, the owned
    vertices adjacent to it (sorted ascending within each ghost's slice;
    ``src`` is the owned row of every arc).

    The frontier engine uses this to turn an incoming ghost part update
    into the set of owned vertices that must re-evaluate their scores —
    ghosts own no forward CSR row, so the reverse structure is required.
    """
    is_ghost = local_adj >= n_local
    targets = local_adj[is_ghost] - n_local
    sources = src[is_ghost]
    # sources ascend already, so a stable sort by target keeps them
    # ascending within each ghost's slice
    order = np.argsort(targets, kind="stable")
    gin_offsets = np.zeros(n_ghost + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n_ghost), out=gin_offsets[1:])
    return gin_offsets, sources[order]


def build_dist_graph(
    comm: SimComm, graph: Graph, dist: Distribution
) -> DistGraph:
    """SPMD: build this rank's local view of ``graph`` under ``dist``.

    Must be called collectively (all ranks).  ``graph`` must be undirected
    (symmetric CSR) so that owning a vertex implies owning all its incident
    edges, the invariant the partitioner's bookkeeping relies on.
    """
    if dist.n != graph.n:
        raise ValueError(
            f"distribution covers {dist.n} vertices, graph has {graph.n}"
        )
    if dist.nprocs != comm.size:
        raise ValueError(
            f"distribution built for {dist.nprocs} ranks, comm has {comm.size}"
        )
    with comm.phase("build"):
        rank = comm.rank
        owned_gids = dist.owned(rank)
        neighbor_gids, counts = neighbor_gather(
            graph.offsets, graph.adj, owned_gids
        )
        offsets = np.zeros(owned_gids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # owned row of every arc, shared by the helpers below and kept
        # on the graph for the sweep kernels
        arc_src = np.repeat(
            np.arange(owned_gids.size, dtype=np.int64), counts
        )
        local_adj, ghost_gids, ghost_owners = _localize(
            dist, rank, owned_gids, neighbor_gids
        )
        l2g = np.concatenate([owned_gids, ghost_gids])
        # ghost degrees read from the shared input (static data; a real MPI
        # build exchanges them once — volume negligible and one-time)
        degrees_full = graph.degrees[l2g].astype(np.int64)
        sr_offsets, sr_adj = _send_rank_lists(
            comm.size, arc_src, local_adj, owned_gids.size, ghost_owners
        )
        send_ghost_slot = _ghost_routing(comm, ghost_gids, ghost_owners, sr_adj)
        max_ghost_global = comm.allreduce(int(ghost_gids.size), op="max")
        gin_offsets, gin_adj = _ghost_incidence(
            arc_src, local_adj, owned_gids.size, ghost_gids.size
        )
        # sanity rendezvous: global edge count must be conserved
        total_local = comm.allreduce(int(local_adj.size), op="sum")
        if total_local != graph.num_directed_edges:
            raise AssertionError(
                f"edge conservation violated: {total_local} != "
                f"{graph.num_directed_edges}"
            )
        return DistGraph(
            dist=dist,
            rank=rank,
            offsets=offsets,
            adj=local_adj,
            l2g=l2g,
            ghost_owners=ghost_owners,
            degrees_full=degrees_full,
            send_rank_offsets=sr_offsets,
            send_rank_adj=sr_adj,
            send_ghost_slot=send_ghost_slot,
            max_ghost_global=max_ghost_global,
            ghost_in_offsets=gin_offsets,
            ghost_in_adj=gin_adj,
            global_n=graph.n,
            global_m=graph.num_edges,
            arc_src=arc_src,
        )
