"""XtraPuLP edge balancing and refinement stage (§III.E).

Same skeleton as the vertex phases, with three coupled quantities tracked
per part: vertices ``Sv``, edges ``Se`` (sum of member degrees — the
incrementally-trackable edge size), and cut edges ``Sc`` (cut edges
touching the part).  Neighbor tallies are weighted by
``Re * We(k) + Rc * Wc(k)``:

* ``We(k) = max(Imb_e / est_e(k) - 1, 0)`` attracts vertices to parts
  underweight in edges;
* ``Wc(k) = max(Maxc / est_c(k) - 1, 0)`` attracts to parts underweight in
  cut, which both balances the per-part cut and lowers its max;
* ``Re`` ramps while the edge-balance constraint is unmet, then freezes and
  ``Rc`` ramps (the paper's two-regime bias schedule).

Moving vertex ``v`` (degree d, n_x neighbors in old part x, n_w in new part
w) changes cut sizes by ``ΔSc(x) = 2 n_x − d`` and ``ΔSc(w) = d − 2 n_w``;
other parts are unchanged.  The (X, Y)-scheduled multiplier throttles all
three estimates, and per-part admissions are capacity-limited in vertex,
degree, and cut units (:mod:`repro.core.capacity`).

Both phases sweep the :class:`repro.core.frontier.FrontierSweeper` active
set: a full first iteration, then only vertices that moved or saw a
neighbor (owned or ghost) move.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import enforce_weight_capacity
from repro.core.frontier import FrontierSweeper
from repro.core.state import RankState
from repro.simmpi.comm import SimComm


def _commit(
    state: RankState,
    lids: np.ndarray,
    cand: np.ndarray,
    w: np.ndarray,
    plain: np.ndarray,
    Cv: np.ndarray,
    Ce: np.ndarray,
    Cc: np.ndarray,
) -> np.ndarray:
    """Apply the admitted moves; fold deltas into Cv/Ce/Cc."""
    p = state.num_parts
    moved = lids[cand]
    if moved.size == 0:
        return moved
    old = state.parts[moved].copy()
    new = w[cand]
    deg = state.dg.local_degrees[moved].astype(np.float64)
    mw = state.vweights[moved]
    n_x = plain[cand, old].astype(np.float64)
    n_w = plain[cand, new].astype(np.float64)
    state.parts[moved] = new
    Cv += np.bincount(new, weights=mw, minlength=p)
    Cv -= np.bincount(old, weights=mw, minlength=p)
    Ce += np.bincount(new, weights=deg, minlength=p)
    Ce -= np.bincount(old, weights=deg, minlength=p)
    Cc += np.bincount(old, weights=2.0 * n_x - deg, minlength=p)
    Cc += np.bincount(new, weights=deg - 2.0 * n_w, minlength=p)
    return moved


def _finish_iteration(
    comm: SimComm,
    state: RankState,
    sweeper: FrontierSweeper,
    Sv: np.ndarray,
    Se: np.ndarray,
    Sc: np.ndarray,
    Cv: np.ndarray,
    Ce: np.ndarray,
    Cc: np.ndarray,
) -> None:
    sweeper.exchange(comm)
    deltas = comm.Allreduce(np.stack([Cv, Ce, Cc]), op="sum")
    Sv += deltas[0]
    Se += deltas[1]
    Sc += deltas[2]
    state.iter_tot += 1


def edge_balance_phase(comm: SimComm, state: RankState, iters: int) -> None:
    """Edge balancing iterations (the §III.E analog of Algorithm 4)."""
    p = state.num_parts
    dg = state.dg
    imb_v = state.target_max_vertices
    imb_e = state.target_max_edges
    params = state.params
    with comm.phase("edge_balance"):
        from repro.core.initialization import reseed_dead_parts

        reseed_dead_parts(comm, state)
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        Se = state.compute_edge_sizes(comm).astype(np.float64)
        Sc = state.compute_cut_sizes(comm).astype(np.float64)
        re_bias = params.re_init
        rc_bias = params.rc_init
        maxv = max(float(Sv.max()), imb_v)
        maxe = max(float(Se.max()), imb_e)
        sweeper = FrontierSweeper(state, phase="edge_balance")
        for _ in range(iters):
            # ratchet: balancing must not push any maximum above its entry level
            maxv = max(min(maxv, float(Sv.max())), imb_v)
            maxe = max(min(maxe, float(Se.max())), imb_e)
            maxc = max(float(Sc.max()), 1.0)
            mult = state.mult(comm)
            if float(Se.max()) > imb_e:
                re_bias += params.re_step
            else:
                rc_bias += params.rc_step
            Cv = np.zeros(p, dtype=np.float64)
            Ce = np.zeros(p, dtype=np.float64)
            Cc = np.zeros(p, dtype=np.float64)
            for lids in sweeper.blocks():
                est_v = Sv + mult * Cv
                est_e = Se + mult * Ce
                est_c = Sc + mult * Cc
                We = np.maximum(imb_e / np.maximum(est_e, 1.0) - 1.0, 0.0)
                Wc = np.maximum(maxc / np.maximum(est_c, 1.0) - 1.0, 0.0)
                weighted, plain = state.block_part_counts(
                    lids, arc_weights=dg.arc_deg
                )
                scores = weighted * (re_bias * We + rc_bias * Wc)
                deg = dg.local_degrees[lids].astype(np.float64)
                vw = state.vweights[lids]
                blocked = (est_v[None, :] + vw[:, None] > maxv) | (
                    est_e[None, :] + deg[:, None] > maxe
                )
                scores[blocked] = 0.0
                x = state.parts[lids]
                wsel = np.argmax(scores, axis=1)
                rows = np.arange(lids.size)
                move = (
                    (wsel != x)
                    & (scores[rows, wsel] > scores[rows, x])
                    & (scores[rows, wsel] > 0.0)
                )
                cand = np.flatnonzero(move)
                if cand.size:
                    cap_v = (maxv - est_v) / max(mult, 1e-12)
                    # two-tier edge capacity: a part below the target fills
                    # only to Imb_e (the We weight's zero-crossing); a part
                    # already above it may still take cut-balancing moves up
                    # to the ratcheted maximum
                    limit_e = np.where(est_e < imb_e, imb_e, maxe)
                    cap_e = (limit_e - est_e) / max(mult, 1e-12)
                    keep = enforce_weight_capacity(wsel[cand], vw[cand], cap_v)
                    keep &= enforce_weight_capacity(
                        wsel[cand], deg[cand], cap_e
                    )
                    cand = cand[keep]
                moved = _commit(state, lids, cand, wsel, plain, Cv, Ce, Cc)
                sweeper.note_moves(moved)
            _finish_iteration(comm, state, sweeper, Sv, Se, Sc, Cv, Ce, Cc)
        state.Sv, state.Se, state.Sc = Sv, Se, Sc  # for boundary snapshots


def edge_refine_phase(comm: SimComm, state: RankState, iters: int) -> None:
    """Edge-stage refinement: plurality moves constrained by the current
    vertex, edge, *and* cut maxima (the paper's final stage)."""
    p = state.num_parts
    dg = state.dg
    imb_v = state.target_max_vertices
    imb_e = state.target_max_edges
    with comm.phase("edge_refine"):
        Sv = state.compute_vertex_sizes(comm).astype(np.float64)
        Se = state.compute_edge_sizes(comm).astype(np.float64)
        Sc = state.compute_cut_sizes(comm).astype(np.float64)
        maxv = max(float(Sv.max()), imb_v)
        maxe = max(float(Se.max()), imb_e)
        # late full cleanup pass, damped by the remaining active sweeps
        # (see vertex refinement)
        sweeper = FrontierSweeper(
            state, phase="edge_refine", cleanup_iter=max(0, iters - 3)
        )
        for _ in range(iters):
            # ratchet: the vertex/edge maxima may only tighten
            maxv = max(min(maxv, float(Sv.max())), imb_v)
            maxe = max(min(maxe, float(Se.max())), imb_e)
            maxc = max(float(Sc.max()), 1.0)
            mult = state.mult(comm)
            Cv = np.zeros(p, dtype=np.float64)
            Ce = np.zeros(p, dtype=np.float64)
            Cc = np.zeros(p, dtype=np.float64)
            for lids in sweeper.blocks():
                est_v = Sv + mult * Cv
                est_e = Se + mult * Ce
                est_c = Sc + mult * Cc
                _, plain = state.block_part_counts(lids, arc_weights=None)
                scores = plain.astype(np.float64)
                deg = dg.local_degrees[lids].astype(np.float64)
                vw = state.vweights[lids]
                d_cut_gain = deg[:, None] - 2.0 * plain  # ΔSc at the target
                blocked = (
                    (est_v[None, :] + vw[:, None] > maxv)
                    | (est_e[None, :] + deg[:, None] > maxe)
                    | (est_c[None, :] + d_cut_gain > maxc)
                )
                scores[blocked] = 0.0
                x = state.parts[lids]
                wsel = np.argmax(scores, axis=1)
                rows = np.arange(lids.size)
                move = (wsel != x) & (scores[rows, wsel] > scores[rows, x])
                cand = np.flatnonzero(move)
                if cand.size:
                    cap_v = (maxv - est_v) / max(mult, 1e-12)
                    cap_e = (maxe - est_e) / max(mult, 1e-12)
                    cap_c = (maxc - est_c) / max(mult, 1e-12)
                    gain = deg[cand] - 2.0 * plain[cand, wsel[cand]]
                    keep = enforce_weight_capacity(wsel[cand], vw[cand], cap_v)
                    keep &= enforce_weight_capacity(wsel[cand], deg[cand], cap_e)
                    keep &= enforce_weight_capacity(wsel[cand], gain, cap_c)
                    cand = cand[keep]
                moved = _commit(state, lids, cand, wsel, plain, Cv, Ce, Cc)
                sweeper.note_moves(moved)
            _finish_iteration(comm, state, sweeper, Sv, Se, Sc, Cv, Ce, Cc)
        state.Sv, state.Se, state.Sc = Sv, Se, Sc  # for boundary snapshots
