"""Distributed coarsening: clustering + contraction, one level at a time.

Clustering (the "matcher") runs in one of two modes:

* ``"lp"`` — size-constrained label-propagation clustering, distributed:
  every owned vertex adopts the cluster holding the heaviest share of its
  incident edge weight, subject to a cluster-mass cap.  Cluster ids are
  *global vertex ids* of the current level, so cross-rank membership needs
  no negotiation; ghost labels are resolved through the existing
  ghost-exchange machinery (:class:`repro.dist.ops.ExchangePlan`) and
  cluster masses through a sparse delta Allgatherv.  This is the
  coarsening of KaHIP/dKaMinPar adapted to the BSP skeleton.
* ``"hem"`` — heavy-edge matching on each rank's owned-induced subgraph,
  reusing the shared-memory matcher
  (:func:`repro.multilevel.kernels.heavy_edge_matching`) verbatim.
  Clusters never cross ranks (the ParMETIS-style local-matching
  compromise), so no label exchange is needed.

Contraction then Allgathers the owned labels — every rank deterministically
assembles the same coarse weighted graph (the same replicated-input
convention the flat pipeline uses for the level-0 graph, with each rank
charged for its own share of the aggregation work) — and rebuilds ghost
routing tables for the coarse level via :func:`repro.dist.build.build_dist_graph`.

Both cluster-mass conservation and edge-weight conservation are collective
invariants checked at every contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from repro.dist.build import build_dist_graph
from repro.dist.distgraph import DistGraph
from repro.dist.distribution import Distribution, RandomDistribution
from repro.dist.ops import ExchangePlan
from repro.graph.csr import Graph
from repro.graph.gather import expand_ranges
from repro.multilevel.kernels import heavy_edge_matching, segment_best_label
from repro.simmpi.comm import SimComm

#: Label-propagation clustering rounds per level (the KaHIP default, same
#: as the shared-memory kernel's ``iters``).
LP_CLUSTER_ITERS = 3

#: A level whose clustering shrinks the vertex count by less than this
#: fraction has stagnated; coarsening stops there (hub-dominated graphs).
MIN_SHRINK = 0.02


@dataclass
class MLLevel:
    """One hierarchy level, as seen by one rank.

    The global ``graph``/``eweights``/``vweights`` arrays are replicated
    (the simulator's shared-read-only-input convention); ``dg`` and
    ``ew_local`` are this rank's distributed view.  ``fine2coarse`` maps
    the *finer* level's global ids onto this level's (None at level 0).
    """

    graph: Graph
    dist: Distribution
    dg: DistGraph
    eweights: np.ndarray      # global, aligned with graph.adj
    ew_local: np.ndarray      # this rank's arcs, aligned with dg.adj
    vweights: np.ndarray      # global per-vertex mass
    fine2coarse: Optional[np.ndarray]


def local_eweights(graph: Graph, eweights: np.ndarray, dg: DistGraph) -> np.ndarray:
    """Slice the global per-arc weights down to this rank's arcs.

    The local CSR is the concatenation of the owned gids' global adjacency
    slices (in owned-gid order), so the same ``expand_ranges`` index that
    built ``dg.adj`` selects the matching weights.
    """
    owned = dg.owned_gids
    starts = graph.offsets[owned]
    counts = graph.offsets[owned + 1] - starts
    return eweights[expand_ranges(starts, counts)]


def make_level0(
    comm: SimComm,
    graph: Graph,
    dist: Distribution,
    vertex_weights: Optional[np.ndarray],
) -> MLLevel:
    """The finest level: unit edge weights, given (or unit) vertex weights."""
    dg = build_dist_graph(comm, graph, dist)
    eweights = np.ones(graph.adj.size, dtype=np.float64)
    vweights = (
        np.asarray(vertex_weights, dtype=np.float64)
        if vertex_weights is not None
        else np.ones(graph.n, dtype=np.float64)
    )
    return MLLevel(
        graph=graph, dist=dist, dg=dg, eweights=eweights,
        ew_local=local_eweights(graph, eweights, dg),
        vweights=vweights, fine2coarse=None,
    )


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def _cluster_rng(params, rank: int, level: int) -> np.random.Generator:
    return np.random.default_rng(params.seed + 7919 * rank + 131 * (level + 1))


def lp_cluster_labels(
    comm: SimComm,
    level: MLLevel,
    num_parts: int,
    params,
    level_index: int,
) -> np.ndarray:
    """Distributed size-constrained LP clustering; returns owned labels.

    Labels are global vertex ids of the current level (initially every
    vertex is its own singleton cluster).  Each round every owned vertex
    computes its heaviest-incident-weight neighboring cluster, moves are
    admitted in per-rank random order while the target cluster's mass stays
    under the cap, mass deltas are reconciled by a sparse Allgatherv, and
    ghost labels are re-pulled through the exchange plan.  The cap —
    ``max(W(V)/(2p), max vertex mass)``, the KaHIP rule shared with the
    baseline — guarantees at least ``2p`` clusters survive, so the coarse
    graph always admits a ``p``-way partition.
    """
    dg = level.dg
    n = dg.n_local
    vw_all = level.vweights
    total_vw = float(vw_all.sum())
    max_cluster = max(total_vw / (2.0 * num_parts), float(vw_all.max()))
    rng = _cluster_rng(params, dg.rank, level_index)
    labels = dg.l2g.copy()
    vw = vw_all[dg.owned_gids]
    # cluster mass, dense over this level's global ids (cluster id == gid)
    mass = vw_all.astype(np.float64).copy()
    with comm.phase("coarsen"):
        plan = ExchangePlan(comm, dg)
        for _ in range(LP_CLUSTER_ITERS):
            best, _bw = segment_best_label(
                dg.arc_src, labels[dg.adj], level.ew_local, n
            )
            # scoring: lexsort + reduceat over local arcs, plus the
            # per-vertex selection passes
            comm.charge(3.0 * level.ew_local.size + float(n))
            cand = np.flatnonzero((best >= 0) & (best != labels[:n]))
            if cand.size:
                cand = cand[rng.permutation(cand.size)]
                tgt = best[cand]
                room = mass[tgt] + vw[cand] <= max_cluster
                cand, tgt = cand[room], tgt[room]
            else:
                tgt = np.empty(0, dtype=np.int64)
            old = labels[cand]
            labels[cand] = tgt
            # reconcile cluster masses: aggregate this rank's deltas
            # sparsely, Allgatherv, apply everywhere (deterministic order:
            # rank-major concatenation)
            delta_ids = np.concatenate([tgt, old])
            delta_w = np.concatenate([vw[cand], -vw[cand]])
            uid, uinv = np.unique(delta_ids, return_inverse=True)
            usum = (
                np.bincount(uinv, weights=delta_w, minlength=uid.size)
                if uid.size else np.empty(0, dtype=np.float64)
            )
            comm.charge(2.0 * delta_ids.size)
            all_ids, _ = comm.Allgatherv(uid.astype(np.int64))
            all_w, _ = comm.Allgatherv(usum)
            np.add.at(mass, all_ids, all_w)
            plan.pull(comm, labels)
            moved_total = comm.allreduce(int(cand.size), op="sum")
            if moved_total == 0:
                break
    return labels[:n].copy()


def hem_cluster_labels(
    comm: SimComm,
    level: MLLevel,
    params,
    level_index: int,
) -> np.ndarray:
    """Heavy-edge matching on the owned-induced subgraph; returns owned
    labels (global ids; matched pairs share the lower partner's gid).

    Cross-rank edges are never matched — the standard local-matching
    compromise of distributed multilevel partitioners — so the result
    needs no ghost resolution.  Runs the exact shared-memory matcher the
    baseline uses, once per rank on its own subgraph.
    """
    dg = level.dg
    n = dg.n_local
    with comm.phase("coarsen"):
        owned_arc = dg.adj < n
        sub = sparse.csr_matrix(
            (level.ew_local[owned_arc],
             (dg.arc_src[owned_arc], dg.adj[owned_arc])),
            shape=(n, n),
        )
        rng = _cluster_rng(params, dg.rank, level_index)
        match = heavy_edge_matching(sub, rng)
        # 4 proposal rounds + claim/two-hop passes over the local subgraph
        comm.charge(4 * 2.0 * sub.nnz + float(n))
        labels = dg.owned_gids[match] if n else np.empty(0, dtype=np.int64)
        # rendezvous so every rank advances in lockstep (and the charge
        # above lands on a coarsen-tagged collective)
        comm.allreduce(int(n), op="max")
    return labels


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def contract_level(
    comm: SimComm,
    level: MLLevel,
    owned_labels: np.ndarray,
    params,
    level_index: int,
    min_vertices: int,
) -> Optional[MLLevel]:
    """Contract the clustering into the next coarser level.

    Allgathers owned labels, relabels clusters densely ``0..nc-1``, builds
    the weighted coarse graph identically on every rank (duplicate arcs
    dedup-summed, self-arcs dropped), and rebuilds the distributed view
    through :func:`build_dist_graph`.  Returns None — collectively, all
    ranks agree — when the clustering stagnated or the coarse graph would
    drop below ``min_vertices``; the caller then stops coarsening and uses
    the current level as the coarsest.
    """
    g = level.graph
    dg = level.dg
    with comm.phase("coarsen"):
        # each rank contributes the labels of its owned vertices; the
        # replicated aggregation below is charged per-rank at its share
        comm.charge(2.0 * dg.adj.size + float(dg.n_local))
        all_labels, counts = comm.Allgatherv(owned_labels.astype(np.int64))
        full = np.empty(g.n, dtype=np.int64)
        off = 0
        for r in range(comm.size):
            gids = level.dist.owned(r)
            full[gids] = all_labels[off:off + gids.size]
            off += gids.size
        uniq, fine2coarse = np.unique(full, return_inverse=True)
        fine2coarse = fine2coarse.astype(np.int64)
        nc = int(uniq.size)
        shrink = 1.0 - nc / max(g.n, 1)
        stop = nc < min_vertices or shrink < MIN_SHRINK
        # collective agreement on the stop decision (inputs are identical,
        # so this is a cheap cross-rank sanity rendezvous, not a vote)
        agreed = comm.allreduce(int(nc), op="max")
        if agreed != nc:  # pragma: no cover - determinism violation
            raise AssertionError(
                f"ranks disagree on coarse size: {agreed} != {nc}"
            )
        if stop:
            return None
        # weighted coarse arcs: aggregate fine arcs by (coarse src, coarse
        # dst) key; keys sort ascending == CSR order
        src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
        cs = fine2coarse[src]
        cd = fine2coarse[g.adj]
        off_diag = cs != cd
        key = cs[off_diag] * np.int64(nc) + cd[off_diag]
        uk, kinv = np.unique(key, return_inverse=True)
        cw = np.bincount(kinv, weights=level.eweights[off_diag],
                         minlength=uk.size)
        csrc = uk // nc
        cdst = uk % nc
        coffsets = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(np.bincount(csrc, minlength=nc), out=coffsets[1:])
        coarse = Graph(coffsets, cdst, directed=False, validate=False)
        cvw = np.bincount(fine2coarse, weights=level.vweights, minlength=nc)
        # conservation invariants: vertex mass exactly, edge weight up to
        # the intra-cluster weight folded away by the contraction
        if not np.isclose(cvw.sum(), level.vweights.sum()):
            raise AssertionError("contraction lost vertex weight")
        intra = float(level.eweights[~off_diag].sum())
        if not np.isclose(cw.sum() + intra, level.eweights.sum()):
            raise AssertionError("contraction lost edge weight")
    cdist = RandomDistribution(
        nc, comm.size, seed=params.seed + 211 * (level_index + 1)
    )
    cdg = build_dist_graph(comm, coarse, cdist)
    return MLLevel(
        graph=coarse, dist=cdist, dg=cdg, eweights=cw,
        ew_local=local_eweights(coarse, cw, cdg),
        vweights=cvw, fine2coarse=fine2coarse,
    )
