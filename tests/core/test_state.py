"""RankState: targets, sweep blocks, tally matrices vs reference."""

import numpy as np
import pytest

from repro.core.frontier import FrontierSweeper
from repro.core.params import PulpParams
from repro.core.state import UNASSIGNED, RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import rmat, ring
from repro.graph.gather import expand_ranges, neighbor_gather_with_sources
from repro.simmpi import Runtime


def make_state(graph, p, nprocs=2, params=None, seed=0):
    dist = make_distribution("random", graph.n, nprocs, seed=seed)
    params = params or PulpParams(seed=seed)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        return RankState(dg=dg, num_parts=p, params=params), comm

    # single collection run: return states via Runtime
    states = Runtime(nprocs).run(
        lambda comm: RankState(
            dg=build_dist_graph(comm, graph, dist), num_parts=p, params=params
        )
    )
    return states


def test_initial_parts_unassigned():
    g = ring(12)
    for state in make_state(g, 3):
        assert np.all(state.parts == UNASSIGNED)
        assert state.parts.size == state.dg.n_total


def test_targets_match_formula():
    g = rmat(8, 10, seed=1)
    (state, *_rest) = make_state(g, 4, nprocs=1)
    assert state.target_max_vertices == pytest.approx(1.10 * g.n / 4)
    assert state.target_max_edges == pytest.approx(
        1.10 * 2 * g.num_edges / 4
    )


def test_full_sweep_blocks_cover_all_vertices():
    g = rmat(8, 10, seed=1)
    (state,) = make_state(g, 4, nprocs=1, params=PulpParams(block_size=37))
    blocks = list(FrontierSweeper(state, phase="t").blocks())
    seen = np.concatenate(blocks)
    np.testing.assert_array_equal(seen, np.arange(state.dg.n_local))
    # every block but the last has exactly block_size entries, and each is
    # a contiguous lid range (the CSR-slice path of block_part_counts)
    sizes = [lids.size for lids in blocks]
    assert all(s == 37 for s in sizes[:-1])
    assert all(np.all(np.diff(lids) == 1) for lids in blocks)


def _reference_counts(state, lids, degree_weighted):
    """The per-block gather tally, written out as the reference oracle."""
    p = state.num_parts
    neigh, srcs, _ = neighbor_gather_with_sources(
        state.dg.offsets, state.dg.adj, lids
    )
    nparts = state.parts[neigh]
    ok = nparts >= 0
    neigh, srcs, nparts = neigh[ok], srcs[ok], nparts[ok]
    key = srcs * p + nparts
    plain = np.bincount(key, minlength=lids.size * p).reshape(lids.size, p)
    if not degree_weighted:
        return plain, plain
    w = state.dg.degrees_full[neigh].astype(np.float64)
    weighted = np.bincount(key, weights=w, minlength=lids.size * p)
    return weighted.reshape(lids.size, p), plain


def _labelled_state(p=5, seed=3):
    g = rmat(9, 12, seed=seed)
    (state,) = make_state(g, p, nprocs=1)
    rng = np.random.default_rng(seed)
    state.parts[:] = rng.integers(0, p, state.parts.size)
    state.parts[::5] = UNASSIGNED  # some neighbors carry no label yet
    return state


@pytest.mark.parametrize("degree_weighted", [True, False])
@pytest.mark.parametrize("sparse", [False, True])
def test_contiguous_block_matches_gather_path(degree_weighted, sparse):
    state = _labelled_state()
    lids = np.arange(30, 94, dtype=np.int64)
    weighted, plain = state.block_part_counts(
        lids, degree_weighted=degree_weighted, sparse=sparse
    )
    # the same lids, forced through the gather path by splitting the
    # block into two gapped halves and interleaving their rows back
    w_even, p_even = state.block_part_counts(
        lids[::2], degree_weighted=degree_weighted, sparse=sparse
    )
    w_odd, p_odd = state.block_part_counts(
        lids[1::2], degree_weighted=degree_weighted, sparse=sparse
    )
    np.testing.assert_array_equal(plain[::2], p_even)
    np.testing.assert_array_equal(plain[1::2], p_odd)
    np.testing.assert_array_equal(weighted[::2], w_even)
    np.testing.assert_array_equal(weighted[1::2], w_odd)
    w_ref, p_ref = _reference_counts(state, lids, degree_weighted)
    np.testing.assert_array_equal(plain, p_ref)
    np.testing.assert_array_equal(weighted, w_ref)
    assert weighted.dtype == w_ref.dtype


def test_gapped_block_takes_gather_path(monkeypatch):
    import repro.core.state as state_mod

    state = _labelled_state()
    calls = []

    def spy(starts, counts):
        calls.append(starts.size)
        return expand_ranges(starts, counts)

    monkeypatch.setattr(state_mod, "expand_ranges", spy)
    contiguous = np.arange(10, 50, dtype=np.int64)
    state.block_part_counts(contiguous, degree_weighted=True)
    assert calls == []
    gapped = np.concatenate([np.arange(10, 30), np.arange(31, 51)])
    weighted, plain = state.block_part_counts(gapped, degree_weighted=True)
    assert calls == [gapped.size]
    w_ref, p_ref = _reference_counts(state, gapped, True)
    np.testing.assert_array_equal(plain, p_ref)
    np.testing.assert_array_equal(weighted, w_ref)


@pytest.mark.parametrize("sparse", [False, True])
def test_block_part_counts_builds_only_requested_tallies(sparse):
    state = _labelled_state()
    lids = np.arange(64, dtype=np.int64)
    w_both, p_both = state.block_part_counts(
        lids, degree_weighted=True, sparse=sparse
    )
    w_only, none = state.block_part_counts(
        lids, degree_weighted=True, need_plain=False, sparse=sparse
    )
    assert none is None
    np.testing.assert_array_equal(w_only, w_both)
    # unit weights: the weighted slot is the plain tally itself
    unit, plain = state.block_part_counts(
        lids, degree_weighted=False, sparse=sparse
    )
    assert unit is plain
    np.testing.assert_array_equal(plain, p_both)


def test_sweep_charge_same_on_both_block_paths():
    state = _labelled_state()
    lids = np.arange(40, dtype=np.int64)
    state.block_part_counts(lids, degree_weighted=True)
    contiguous = (state.work_pending, state.edges_touched)
    state.work_pending = state.edges_touched = 0.0
    state.block_part_counts(lids[::2], degree_weighted=True)
    state.block_part_counts(lids[1::2], degree_weighted=True)
    # split charges one extra per-part vector term
    p = state.num_parts
    assert state.edges_touched == contiguous[1]
    assert state.work_pending == contiguous[0] + p


def test_block_part_counts_against_reference():
    g = rmat(8, 10, seed=3)
    (state,) = make_state(g, 5, nprocs=1)
    rng = np.random.default_rng(0)
    state.parts[: state.dg.n_local] = rng.integers(0, 5, state.dg.n_local)
    lids = np.arange(40, dtype=np.int64)
    weighted, plain = state.block_part_counts(lids, degree_weighted=True)
    for i, lid in enumerate(lids):
        neigh = state.dg.neighbors(int(lid))
        for k in range(5):
            members = neigh[state.parts[neigh] == k]
            assert plain[i, k] == members.size
            assert weighted[i, k] == pytest.approx(
                float(state.dg.degrees_full[members].sum())
            )


def test_block_part_counts_sparse_dense_equivalence():
    # many parts, few neighbors per vertex: the regime the sparse tally
    # targets; both paths must agree bit-for-bit (weighted sums included —
    # the per-key accumulation order is identical)
    g = rmat(9, 12, seed=8)
    p = 97
    (state,) = make_state(g, p, nprocs=1)
    rng = np.random.default_rng(1)
    state.parts[:] = rng.integers(0, p, state.parts.size)
    state.parts[::7] = UNASSIGNED  # exercise the unassigned filter too
    lids = np.arange(64, dtype=np.int64)
    for dw in (True, False):
        wd, pd = state.block_part_counts(
            lids, degree_weighted=dw, sparse=False
        )
        ws, ps = state.block_part_counts(
            lids, degree_weighted=dw, sparse=True
        )
        np.testing.assert_array_equal(pd, ps)
        np.testing.assert_array_equal(wd, ws)
        assert ps.dtype == pd.dtype


def test_block_part_counts_heuristic_picks_sparse_when_wide():
    # with p >> degree the auto path must equal both explicit paths
    g = rmat(8, 6, seed=9)
    p = 128
    (state,) = make_state(g, p, nprocs=1)
    rng = np.random.default_rng(2)
    state.parts[:] = rng.integers(0, p, state.parts.size)
    lids = np.arange(state.dg.n_local, dtype=np.int64)
    w_auto, p_auto = state.block_part_counts(lids, degree_weighted=True)
    w_dense, p_dense = state.block_part_counts(
        lids, degree_weighted=True, sparse=False
    )
    np.testing.assert_array_equal(p_auto, p_dense)
    np.testing.assert_array_equal(w_auto, w_dense)


def test_block_part_counts_ignores_unassigned():
    g = ring(10)
    (state,) = make_state(g, 2, nprocs=1)
    state.parts[:] = UNASSIGNED
    state.parts[0] = 1
    lids = np.arange(state.dg.n_local, dtype=np.int64)
    _, plain = state.block_part_counts(lids, degree_weighted=False)
    assert plain.sum() == 2  # only vertex 0's two neighbors see a label


def test_compute_sizes_cross_check():
    g = rmat(9, 12, seed=4)
    p = 4
    dist = make_distribution("random", g.n, 3, seed=1)
    params = PulpParams(seed=1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=p, params=params)
        rng = np.random.default_rng(42)  # same on all ranks
        global_parts = rng.integers(0, p, g.n)
        state.parts[: dg.n_local] = global_parts[dg.owned_gids]
        state.parts[dg.n_local:] = global_parts[dg.ghost_gids]
        return (
            state.compute_vertex_sizes(comm),
            state.compute_edge_sizes(comm),
            state.compute_cut_sizes(comm),
            global_parts,
        )

    sv, se, sc, parts = Runtime(3).run(main)[0]
    np.testing.assert_array_equal(sv, np.bincount(parts, minlength=p))
    np.testing.assert_array_equal(
        se,
        np.bincount(parts, weights=g.degrees.astype(float), minlength=p),
    )
    from repro.core.quality import cut_edges_per_part

    np.testing.assert_array_equal(sc, cut_edges_per_part(g, parts, p))


def test_mult_delegates_to_params():
    g = ring(8)
    (state, other) = make_state(g, 2, nprocs=2, params=PulpParams(x=2.0, y=2.0))

    class FakeComm:
        size = 2

    assert state.mult(FakeComm()) == pytest.approx(4.0)
    state.iter_tot = 10_000
    assert state.mult(FakeComm()) == pytest.approx(4.0)
    _ = other
