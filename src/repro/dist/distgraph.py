"""Per-rank view of a distributed graph (paper §III.A).

Each rank owns a subset of vertices and their incident edges in a local
CSR; vertices in the one-hop neighborhood owned elsewhere are **ghosts**.
Local ids are ``0 .. n_local-1`` for owned vertices (in global-id order)
followed by ``n_local .. n_local+n_ghost-1`` for ghosts (also in global-id
order).  Part labels and other per-vertex arrays are sized
``n_local + n_ghost`` so algorithms index them directly with local
adjacency entries.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dist.distribution import Distribution
from repro.graph.gather import expand_ranges, neighbor_gather


class DistGraph:
    """One rank's local graph.  Built by :func:`repro.dist.build.build_dist_graph`."""

    __slots__ = (
        "dist",
        "rank",
        "n_local",
        "n_ghost",
        "offsets",
        "adj",
        "l2g",
        "ghost_owners",
        "degrees_full",
        "local_degrees",
        "arc_src",
        "arc_deg",
        "send_rank_offsets",
        "send_rank_adj",
        "send_ghost_slot",
        "max_ghost_global",
        "ghost_in_offsets",
        "ghost_in_adj",
        "global_n",
        "global_m",
        "dir_out_offsets",
        "dir_out_adj",
        "dir_in_offsets",
        "dir_in_adj",
    )

    def __init__(
        self,
        dist: Distribution,
        rank: int,
        offsets: np.ndarray,
        adj: np.ndarray,
        l2g: np.ndarray,
        ghost_owners: np.ndarray,
        degrees_full: np.ndarray,
        send_rank_offsets: np.ndarray,
        send_rank_adj: np.ndarray,
        send_ghost_slot: np.ndarray,
        max_ghost_global: int,
        ghost_in_offsets: np.ndarray,
        ghost_in_adj: np.ndarray,
        global_n: int,
        global_m: int,
        arc_src: np.ndarray,
    ) -> None:
        self.dist = dist
        self.rank = int(rank)
        self.n_local = int(dist.count(rank))
        self.n_ghost = int(l2g.size - self.n_local)
        self.offsets = offsets
        self.adj = adj
        self.l2g = l2g
        self.ghost_owners = ghost_owners
        self.degrees_full = degrees_full
        #: Degrees of owned vertices (== global degrees: every incident
        #: edge of an owned vertex is stored locally).
        self.local_degrees = np.diff(offsets)
        #: Per-arc arrays aligned with ``adj``, built once per graph: the
        #: owned row of each arc and its target's degree as float64, so a
        #: contiguous lid block reads its sources and tally weights as
        #: plain CSR slices (16 bytes per arc).
        self.arc_src = arc_src
        self.arc_deg = degrees_full[adj].astype(np.float64)
        self.send_rank_offsets = send_rank_offsets
        self.send_rank_adj = send_rank_adj
        #: Compact-wire routing table, aligned with ``send_rank_adj``:
        #: entry ``i`` is the *destination rank's* ghost slot index of this
        #: vertex (position in that rank's gid-sorted ghost array), learned
        #: by a one-time build exchange.  A receiver applies an update with
        #: ``parts[n_local + slot] = part`` — no gid lookup per exchange.
        self.send_ghost_slot = send_ghost_slot
        #: Max ghost count over all ranks (Allreduced once at build);
        #: bounds every slot index, so it fixes the compact slot dtype.
        self.max_ghost_global = int(max_ghost_global)
        self.ghost_in_offsets = ghost_in_offsets
        self.ghost_in_adj = ghost_in_adj
        self.global_n = int(global_n)
        self.global_m = int(global_m)
        # directed views (filled by repro.analytics.engine.attach_directed)
        self.dir_out_offsets: Optional[np.ndarray] = None
        self.dir_out_adj: Optional[np.ndarray] = None
        self.dir_in_offsets: Optional[np.ndarray] = None
        self.dir_in_adj: Optional[np.ndarray] = None
        for arr in (offsets, adj, l2g, ghost_owners, degrees_full,
                    self.local_degrees, arc_src, self.arc_deg,
                    send_rank_offsets, send_rank_adj, send_ghost_slot,
                    ghost_in_offsets, ghost_in_adj):
            arr.setflags(write=False)

    # -- id mapping ---------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Owned + ghost vertex count (size of per-vertex work arrays)."""
        return self.n_local + self.n_ghost

    @property
    def owned_gids(self) -> np.ndarray:
        return self.l2g[: self.n_local]

    @property
    def ghost_gids(self) -> np.ndarray:
        return self.l2g[self.n_local:]

    def ghost_lids(self, gids: np.ndarray) -> np.ndarray:
        """Local ids of ghost gids (must all be ghosts of this rank)."""
        gids = np.asarray(gids, dtype=np.int64)
        ghosts = self.ghost_gids
        pos = np.searchsorted(ghosts, gids)
        if gids.size and (
            pos.max(initial=0) >= ghosts.size or np.any(ghosts[pos] != gids)
        ):
            raise ValueError(f"rank {self.rank}: gids include non-ghosts")
        return pos + self.n_local

    def owned_lids(self, gids: np.ndarray) -> np.ndarray:
        return self.dist.lid(self.rank, gids)

    # -- adjacency ------------------------------------------------------------

    def neighbors(self, lid: int) -> np.ndarray:
        """Local-id adjacency slice of an owned vertex."""
        return self.adj[self.offsets[lid]:self.offsets[lid + 1]]

    def neighbor_block(self, lids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return neighbor_gather(self.offsets, self.adj, lids)

    @property
    def num_local_edges(self) -> int:
        return int(self.adj.size)

    def neighbor_ranks(self, lid: int) -> np.ndarray:
        """Unique off-rank owners among an owned vertex's neighbors (the
        paper's per-vertex ``toSend`` set, precomputed at build time)."""
        return self.send_rank_adj[
            self.send_rank_offsets[lid]:self.send_rank_offsets[lid + 1]
        ]

    @property
    def boundary_mask(self) -> np.ndarray:
        """Owned vertices with at least one off-rank neighbor."""
        return np.diff(self.send_rank_offsets) > 0

    def ghost_touch_sources(self, ghost_lids: np.ndarray) -> np.ndarray:
        """Owned vertices adjacent to the given ghost local ids.

        The local CSR has rows only for owned vertices, so reacting to a
        ghost part update ("which owned vertices must re-evaluate?") needs
        this reverse ghost→owned incidence, built once at construction
        time.  Returns the concatenated owned lids (ascending within each
        ghost's slice; may repeat across ghosts — callers dedupe via masks).
        """
        idx = np.asarray(ghost_lids, dtype=np.int64) - self.n_local
        starts = self.ghost_in_offsets[idx]
        counts = self.ghost_in_offsets[idx + 1] - starts
        return self.ghost_in_adj[expand_ranges(starts, counts)]

    def __repr__(self) -> str:
        return (
            f"DistGraph(rank={self.rank}/{self.dist.nprocs}, "
            f"n_local={self.n_local}, n_ghost={self.n_ghost}, "
            f"local_edges={self.num_local_edges})"
        )
