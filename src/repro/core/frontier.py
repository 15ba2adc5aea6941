"""Active-set (frontier) sweep engine for the label-propagation phases.

Late balance/refine iterations move very few vertices, yet a full sweep
re-gathers and re-tallies the neighborhood of *every* owned vertex each
iteration.  This engine restricts every iteration after the first to the
*active set*: vertices that moved, or that are adjacent to a vertex
(owned or ghost) that moved since their last evaluation — the active-set
local search of dKaMinPar (arXiv:2303.01417) and distributed
unconstrained local search (arXiv:2406.03169), adapted to the XtraPuLP
BSP skeleton.

Seeding rules, per phase iteration:

* iteration 0 of a phase sweeps all owned vertices (the part weights,
  capacities, and ratchets change discontinuously at phase boundaries,
  so every vertex's score is stale);
* a vertex that moved re-enters the frontier (the global size estimates
  it was scored against keep drifting);
* owned neighbors of a locally moved vertex enter the frontier — the
  graph is symmetric and every incident edge of an owned vertex is
  stored locally, so the owned-side CSR transpose *is* the forward
  adjacency restricted to targets ``< n_local``;
* owned neighbors of every ghost copy rewritten by ``exchange_updates``
  enter the frontier, via the ghost→owned reverse incidence
  (``DistGraph.ghost_touch_sources``) built once at construction time —
  ghosts own no forward CSR row, so the reverse structure is required;
* neighbor touches *accumulate* rather than activate immediately: a
  vertex re-enters the frontier once its touch count since its last
  evaluation reaches ``max(1, DIRT_FRACTION * degree)``.  For low-degree
  vertices this is the plain one-touch rule; for hubs — whose plurality
  over hundreds of neighbors cannot flip because one of them moved — it
  suppresses the constant re-scoring that otherwise dominates
  edges-touched on skewed graphs.  Touches are never discarded, so any
  sustained neighborhood drift still reactivates the vertex.

Vertices outside the frontier keep their last decision; they can miss a
part's capacity re-opening, which is the standard active-set
approximation (bounded by the property tests: same balance constraints,
edge cut within a few percent of the exhaustive sweeps).

Determinism: the active set lives in a boolean mask over owned lids and
is materialized with ``flatnonzero`` (ascending lids), then chunked with
the same ``params.block_size`` as a full sweep.  A full active set
therefore yields bit-identical blocks — hence bit-identical moves — to
an exhaustive sweep (``params.frontier = "full"`` forces this every
iteration; ``False`` bypasses the engine's bookkeeping entirely).  Every
block is strictly ascending, as ``RankState.block_part_counts``
requires; a full-sweep block is a contiguous lid range, which that
kernel reads as one CSR slice instead of gathering it.

Work model: scoring work is charged by ``block_part_counts`` only for
blocks actually swept, so a shrinking active set shrinks
``CommStats.work_by_tag()`` and the modeled gamma term directly;
frontier maintenance charges the transpose edges it walks plus one
O(n_local) mask pass per iteration (the same convention used for other
full-vector passes, e.g. ``compute_vertex_sizes``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.core.exchange import exchange_updates
from repro.core.state import RankState
from repro.simmpi.comm import SimComm

#: A vertex reactivates once touches-since-last-eval >= max(1, frac * deg).
DIRT_FRACTION = 1.0 / 16.0


class FrontierSweeper:
    """Drives one phase's sweep iterations over the active set.

    Usage, as the inner loop of every label-propagation phase::

        sweeper = FrontierSweeper(state, phase="vertex_balance")
        for _ in range(iters):
            for lids in sweeper.blocks():
                ...score block, admit moves...
                sweeper.note_moves(moved)
            sweeper.exchange(comm)       # flush work + ExchangeUpdates
            ...Allreduce size deltas...

    ``blocks()`` yields the iteration's active lid chunks; ``note_moves``
    feeds admitted moves back; ``exchange`` runs the collective update
    exchange (all moved vertices, exactly as the legacy path) and seeds
    the next iteration's frontier from local and ghost touches.
    """

    def __init__(
        self,
        state: RankState,
        phase: str,
        cleanup_iter: Optional[int] = None,
        seed_lids: Optional[np.ndarray] = None,
    ) -> None:
        self.state = state
        self.dg = state.dg
        self.phase = phase
        #: iteration index (0-based) forced to a full sweep — refine phases
        #: schedule one late exhaustive cleanup pass (a few iterations
        #: before the end, so subsequent active sweeps damp its
        #: simultaneous-move overshoot) to catch moves the active-set
        #: approximation missed
        self.cleanup_iter = cleanup_iter
        self._iter = 0
        mode = state.params.frontier
        # track=False → legacy full sweeps with zero frontier bookkeeping;
        # "full" keeps the bookkeeping but re-seeds everything (bit-identity
        # verification mode)
        self.track = bool(mode)
        self.force_full = mode == "full"
        #: active owned lids for the current iteration; None = all owned
        self._frontier: Optional[np.ndarray] = None
        self._moved: List[np.ndarray] = []
        self._edges_mark = state.edges_touched
        if self.track and not self.force_full:
            # per-vertex touch accumulator + activation thresholds
            self._dirt = np.zeros(self.dg.n_local, dtype=np.int64)
            self._thresh = np.maximum(
                DIRT_FRACTION * self.dg.local_degrees, 1.0
            )
        else:
            self._dirt = None
            self._thresh = None
        if seed_lids is not None and self.track and not self.force_full:
            # caller knows where the action is (e.g. multilevel projection
            # seeds cluster boundaries): start from that active set instead
            # of the exhaustive iteration-0 sweep.  The cleanup pass still
            # catches anything the seed missed.
            self._frontier = np.unique(
                np.asarray(seed_lids, dtype=np.int64)
            )

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """The sweeper's mid-phase position as plain data.

        The driver checkpoints only at phase boundaries — where no sweeper
        is live — so this is not on the checkpoint path; it exists so
        finer-than-phase checkpointing (and tests) can capture an active
        set mid-phase and resume it bit-identically via :meth:`restore`.
        """
        return {
            "phase": self.phase,
            "iter": int(self._iter),
            "frontier": (
                None if self._frontier is None else self._frontier.copy()
            ),
            "moved": [m.copy() for m in self._moved],
            "dirt": None if self._dirt is None else self._dirt.copy(),
            "edges_mark": float(self._edges_mark),
        }

    def restore(self, snap: dict) -> None:
        if snap["phase"] != self.phase:
            raise ValueError(
                f"snapshot is for phase {snap['phase']!r}, "
                f"this sweeper drives {self.phase!r}"
            )
        self._iter = int(snap["iter"])
        fr = snap["frontier"]
        self._frontier = None if fr is None else np.asarray(fr, dtype=np.int64)
        self._moved = [np.asarray(m, dtype=np.int64) for m in snap["moved"]]
        if self._dirt is not None and snap["dirt"] is not None:
            self._dirt[:] = snap["dirt"]
        self._edges_mark = float(snap["edges_mark"])

    # -- iteration body ------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Owned vertices swept in the current iteration."""
        return (
            self.dg.n_local if self._frontier is None else self._frontier.size
        )

    def blocks(self) -> Iterator[np.ndarray]:
        """Yield the iteration's active lids in ``block_size`` chunks.

        A full sweep yields contiguous ``arange`` chunks of owned lids;
        an explicit full frontier (``frontier="full"``) yields the same
        lids with the same boundaries, preserving the between-block
        estimate-refresh schedule bit-for-bit.
        """
        self._edges_mark = self.state.edges_touched
        if self._iter == self.cleanup_iter:
            self._frontier = None  # cleanup: exhaustive final pass
        bs = self.state.params.block_size
        if self._frontier is None:
            n = self.dg.n_local
            for start in range(0, n, bs):
                stop = min(start + bs, n)
                yield np.arange(start, stop, dtype=np.int64)
        else:
            lids = self._frontier
            for start in range(0, lids.size, bs):
                yield lids[start:start + bs]

    def note_moves(self, moved: np.ndarray) -> None:
        """Record owned lids moved in the current iteration (per block)."""
        if moved.size:
            self._moved.append(moved)

    # -- iteration boundary --------------------------------------------------

    def exchange(self, comm: SimComm) -> np.ndarray:
        """Finish the iteration: flush charged sweep work, run
        ``exchange_updates`` for every vertex moved this iteration, and
        seed the next iteration's frontier.  Returns the moved lids."""
        state = self.state
        moved = (
            np.concatenate(self._moved) if self._moved
            else np.empty(0, dtype=np.int64)
        )
        self._moved = []
        state.sweep_log.append((
            self.phase,
            state.iter_tot,
            self.active_count,
            self.dg.n_local,
            state.edges_touched - self._edges_mark,
        ))
        state.flush_work(comm)
        ghost_lids = exchange_updates(
            comm, self.dg, state.parts, moved, wire=state.wire
        )
        self._iter += 1
        if self.track:
            if self.force_full:
                # verification mode: seed every owned vertex, exercising
                # the explicit-lids chunking path; charges nothing extra,
                # so stats AND partitions must match the legacy path
                self._frontier = np.arange(self.dg.n_local, dtype=np.int64)
            else:
                self._seed_next(moved, ghost_lids)
                # frontier-maintenance work rides the iteration's trailing
                # collective (every phase Allreduces its size deltas next)
                state.flush_work(comm)
        return moved

    def _seed_next(self, moved: np.ndarray, ghost_lids: np.ndarray) -> None:
        """Next active set = moved ∪ {touched vertices over their
        degree-proportional activation threshold}."""
        dg, state = self.dg, self.state
        n = dg.n_local
        dirt = self._dirt
        touched = 0.0
        if moved.size:
            neigh, _ = dg.neighbor_block(moved)
            owned = neigh[neigh < n]
            if owned.size:
                dirt += np.bincount(owned, minlength=n)
            touched += float(neigh.size)
        if ghost_lids.size:
            srcs = dg.ghost_touch_sources(ghost_lids)
            if srcs.size:
                dirt += np.bincount(srcs, minlength=n)
            touched += float(srcs.size)
        mask = dirt >= self._thresh
        if moved.size:
            mask[moved] = True  # movers always re-score (sizes keep drifting)
        dirt[mask] = 0  # evaluated next iteration: touches consumed
        # transpose touches + the O(n) dirt/mask passes
        state.work_pending += touched + float(n)
        self._frontier = np.flatnonzero(mask).astype(np.int64)
