"""LP: label-propagation community detection (Raghavan et al. [26])."""

from __future__ import annotations

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.ops import ExchangePlan
from repro.multilevel.kernels import segment_best_label
from repro.simmpi.comm import SimComm


def label_propagation_communities(
    comm: SimComm,
    dg: DistGraph,
    plan: ExchangePlan,
    *,
    iters: int = 10,
    seed: int = 1,
) -> np.ndarray:
    """Community label per owned vertex after ``iters`` sweeps.

    Each vertex adopts the most frequent label among its neighbors
    (lowest label breaks ties); labels start as global ids.  Fixed sweep
    count as in the paper's analytics suite — LP is used as a benchmark
    kernel, not run to convergence.
    """
    labels = dg.l2g.astype(np.int64).copy()
    rng = np.random.default_rng(seed + dg.rank)
    _ = rng
    ones = np.ones(dg.adj.size, dtype=np.float64)
    for _ in range(max(1, iters)):
        changed = 0
        if dg.n_local:
            comm.charge(2 * dg.adj.size)  # gather + sort-dominated sweep
            # plurality label per source (counts are exact in float64;
            # ties go to the smaller label)
            winner, _ = segment_best_label(
                dg.arc_src, labels[dg.adj], ones, dg.n_local
            )
            upd = (winner >= 0) & (winner != labels[: dg.n_local])
            changed = int(upd.sum())
            labels[: dg.n_local][upd] = winner[upd]
        plan.pull(comm, labels)
        total = comm.allreduce(changed, op="sum")
        if total == 0:
            break
    return labels[: dg.n_local].copy()
