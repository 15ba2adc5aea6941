"""Per-rank partitioning state shared by all XtraPuLP phases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.params import PulpParams
from repro.dist.distgraph import DistGraph
from repro.dist.wire import WireSpec, make_wire_spec
from repro.graph.gather import expand_ranges
from repro.simmpi.comm import SimComm

UNASSIGNED = np.int64(-1)


@dataclass
class RankState:
    """One rank's partitioning state.

    ``parts`` covers owned + ghost vertices (local-id indexed).  Global
    per-part totals ``Sv``/``Se``/``Sc`` are kept consistent across ranks by
    Allreduce at iteration boundaries; within an iteration each rank tracks
    its local deltas ``Cv``/``Ce``/``Cc`` and *estimates* global sizes as
    ``S + mult * C`` (the paper's distributed-update throttle, §III.C).
    """

    dg: DistGraph
    num_parts: int
    params: PulpParams
    parts: np.ndarray = field(init=False)
    iter_tot: int = 0
    rng: np.random.Generator = field(init=False)
    work_pending: float = 0.0
    edges_touched: float = 0.0
    sweep_log: List[Tuple[str, int, int, int, float]] = field(
        default_factory=list
    )
    vweights: np.ndarray = field(init=False)
    global_vweight: float = field(init=False)
    wire: WireSpec = field(init=False)
    #: Last Allreduced global per-part totals, stored by each phase at its
    #: end.  Phases re-Allreduce at entry, so these are *not* read on the
    #: hot path — they exist so a phase-boundary checkpoint captures the
    #: totals the run had agreed on (diagnostics + snapshot fidelity).
    Sv: Optional[np.ndarray] = None
    Se: Optional[np.ndarray] = None
    Sc: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.parts = np.full(self.dg.n_total, UNASSIGNED, dtype=np.int64)
        self.rng = np.random.default_rng(self.params.seed + 7919 * self.dg.rank)
        # resolved from global quantities, so every rank picks the same
        # record dtypes (a cross-rank invariant of the wire protocol)
        self.wire = make_wire_spec(
            self.params.wire, self.dg.max_ghost_global, self.num_parts
        )
        # unit vertex weights by default; see set_vertex_weights
        self.vweights = np.ones(self.dg.n_local, dtype=np.float64)
        self.global_vweight = float(self.dg.global_n)

    def set_vertex_weights(self, weights: np.ndarray, total: float) -> None:
        """Enable weighted vertex balancing: ``weights`` are this rank's
        owned vertices' weights, ``total`` the global sum (the balance
        target becomes ``(1 + Rat_v) * total / p``)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.dg.n_local,):
            raise ValueError("weights must cover exactly the owned vertices")
        if weights.size and weights.min() <= 0:
            raise ValueError("vertex weights must be positive")
        self.vweights = weights
        self.global_vweight = float(total)

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything that crosses a phase boundary, as plain data.

        Captured at the step boundaries of the driver's plan (see
        :mod:`repro.ft.checkpoint`): the part labels over owned + ghost
        vertices, the iteration counter, the RNG bit-generator state, and
        the work/sweep accounting.  Phase-local structures (frontier,
        size estimates) are rebuilt by each phase at entry and need no
        capture.  ``pickle`` of the result is deterministic for equal
        states — checkpoint payloads are part of the bit-reproducible
        communication record.
        """
        return {
            "format": 1,
            "rank": int(self.dg.rank),
            "n_local": int(self.dg.n_local),
            "n_total": int(self.dg.n_total),
            "parts": self.parts.copy(),
            "iter_tot": int(self.iter_tot),
            "rng_state": self.rng.bit_generator.state,
            "work_pending": float(self.work_pending),
            "edges_touched": float(self.edges_touched),
            "sweep_log": list(self.sweep_log),
            "Sv": None if self.Sv is None else np.asarray(self.Sv).copy(),
            "Se": None if self.Se is None else np.asarray(self.Se).copy(),
            "Sc": None if self.Sc is None else np.asarray(self.Sc).copy(),
        }

    def restore(self, snap: dict) -> None:
        """Re-enter the state captured by :meth:`snapshot` (same rank of
        the same distributed graph; shape mismatches raise)."""
        for key, want in (("rank", self.dg.rank),
                          ("n_local", self.dg.n_local),
                          ("n_total", self.dg.n_total)):
            if int(snap[key]) != int(want):
                raise ValueError(
                    f"snapshot {key}={snap[key]} does not match this "
                    f"rank's {key}={want}"
                )
        parts = np.asarray(snap["parts"], dtype=np.int64)
        if parts.shape != self.parts.shape:
            raise ValueError(
                f"snapshot parts shape {parts.shape} != {self.parts.shape}"
            )
        self.parts[:] = parts
        self.iter_tot = int(snap["iter_tot"])
        self.rng.bit_generator.state = snap["rng_state"]
        self.work_pending = float(snap["work_pending"])
        self.edges_touched = float(snap["edges_touched"])
        self.sweep_log = list(snap["sweep_log"])
        self.Sv = snap["Sv"]
        self.Se = snap["Se"]
        self.Sc = snap["Sc"]

    # -- targets -------------------------------------------------------------

    @property
    def target_max_vertices(self) -> float:
        """``Imb_v = (1 + Rat_v) W(V) / p`` (eq. 1; weighted if weights set)."""
        return (
            (1.0 + self.params.vert_imbalance)
            * self.global_vweight / self.num_parts
        )

    @property
    def target_max_edges(self) -> float:
        """``Imb_e``, degree-based (2m directed entries total)."""
        total_deg = 2.0 * self.dg.global_m
        return (1.0 + self.params.edge_imbalance) * total_deg / self.num_parts

    def mult(self, comm: SimComm) -> float:
        return self.params.mult(comm.size, self.iter_tot)

    # -- global totals ---------------------------------------------------------

    def flush_work(self, comm: SimComm) -> None:
        """Charge accumulated sweep work to the next collective."""
        if self.work_pending:
            comm.charge(self.work_pending)
            self.work_pending = 0.0

    def compute_vertex_sizes(self, comm: SimComm) -> np.ndarray:
        """Global per-part vertex weight ``Sv`` (Allreduce of local sums;
        plain counts when weights are the default units)."""
        comm.charge(self.dg.n_local)
        owned = self.parts[: self.dg.n_local]
        ok = owned >= 0
        local = np.bincount(
            owned[ok], weights=self.vweights[ok], minlength=self.num_parts
        )
        return comm.Allreduce(local, op="sum")

    def compute_edge_sizes(self, comm: SimComm) -> np.ndarray:
        """Global per-part edge sizes ``Se`` = sum of member degrees."""
        comm.charge(self.dg.n_local)
        owned = self.parts[: self.dg.n_local]
        deg = self.dg.local_degrees
        ok = owned >= 0
        local = np.bincount(
            owned[ok], weights=deg[ok].astype(np.float64),
            minlength=self.num_parts,
        ).astype(np.int64)
        return comm.Allreduce(local, op="sum")

    def compute_cut_sizes(self, comm: SimComm) -> np.ndarray:
        """Global per-part cut sizes ``Sc``: cut edges touching each part.

        Counting from the owned endpoint of every stored arc credits each
        undirected cut edge once to each of its two endpoint parts.
        """
        comm.charge(self.dg.adj.size)
        p_src = self.parts[self.dg.arc_src]
        cut = p_src != self.parts[self.dg.adj]
        local = np.bincount(p_src[cut], minlength=self.num_parts)
        return comm.Allreduce(local, op="sum")

    # -- neighbor-part score matrices -------------------------------------------

    def block_part_counts(
        self,
        lids: np.ndarray,
        *,
        degree_weighted: bool,
        need_plain: bool = True,
        sparse: Optional[bool] = None,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Per-vertex, per-part neighbor tallies for a block.

        Returns ``(weighted, plain)``: ``weighted[i, k]`` sums
        ``degree(u)`` over neighbors ``u`` of ``lids[i]`` in part k;
        ``plain`` is the unweighted tally (needed for cut deltas).
        Neighbors still UNASSIGNED are ignored.  Only the tallies a caller
        uses are built: with ``degree_weighted=False`` the unit-weighted
        tally *is* ``plain`` and both slots hold that one integer matrix;
        ``need_plain=False`` skips the unweighted tally of a degree-weighted
        call (its slot is None).

        ``lids`` must be strictly ascending (every sweep block is).  A
        block that is a contiguous lid range — every full sweep — reads
        its arcs as one slice of the CSR and its weights from
        ``DistGraph.arc_deg``; other blocks gather their arc ranges.  Both
        give the same arcs in the same order, so the tallies are
        bit-identical.

        For large ``num_parts`` the dense ``nb × p`` bincount is mostly
        zeros (each vertex's neighbors span few parts), so a sparse tally
        — ``np.unique`` over ``srcs * p + nparts`` keys, counts scattered
        into the dense result — avoids streaming a huge mostly-zero
        histogram per pass.  ``sparse=None`` picks by a density heuristic;
        both paths produce bit-identical matrices (the per-key summation
        order is preserved by ``unique``'s stable inverse).
        """
        dg = self.dg
        p = self.num_parts
        nb = lids.size
        if nb and int(lids[-1]) - int(lids[0]) + 1 == nb:
            lo = int(lids[0])
            arcs = slice(int(dg.offsets[lo]), int(dg.offsets[lo + nb]))
            key = dg.arc_src[arcs] - lo
        else:
            starts = dg.offsets[lids]
            counts = dg.offsets[lids + 1] - starts
            arcs = expand_ranges(starts, counts)
            key = np.repeat(np.arange(nb, dtype=np.int64), counts)
        neigh = dg.adj[arcs]
        nparts = self.parts[neigh]
        w = dg.arc_deg[arcs] if degree_weighted else None
        if nparts.size and nparts.min() < 0:
            ok = nparts >= 0
            key, nparts = key[ok], nparts[ok]
            if w is not None:
                w = w[ok]
        key *= p
        key += nparts
        # sweep cost: gather + tally passes over the block's edges, plus the
        # per-part weight/cap vector work
        self.work_pending += 2.0 * key.size + float(nb) + float(p)
        self.edges_touched += float(key.size)
        if sparse is None:
            # sparse pays an O(E log E) sort to skip O(nb * p) histogram
            # passes; worthwhile once the dense matrix is <1/8 occupied
            # and wide enough for the difference to matter
            sparse = p >= 64 and key.size * 8 < nb * p
        if sparse:
            uniq, inv = np.unique(key, return_inverse=True)

        def tally(weights: Optional[np.ndarray]) -> np.ndarray:
            if not sparse:
                return np.bincount(
                    key, weights=weights, minlength=nb * p
                ).reshape(nb, p)
            out = np.zeros(
                nb * p, dtype=np.int64 if weights is None else np.float64
            )
            out[uniq] = np.bincount(inv, weights=weights, minlength=uniq.size)
            return out.reshape(nb, p)

        plain = tally(None) if need_plain or w is None else None
        weighted = plain if w is None else tally(w)
        return weighted, plain
