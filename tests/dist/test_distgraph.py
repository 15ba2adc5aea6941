"""DistGraph API details beyond the construction tests."""

import pickle

import numpy as np
import pytest

from repro.dist import build_dist_graph, make_distribution
from repro.graph import ring, rmat, star
from repro.simmpi import Runtime


def build_one(graph, nprocs=2, kind="block", seed=0):
    dist = make_distribution(kind, graph.n, nprocs, seed=seed)
    return Runtime(nprocs).run(
        lambda comm: build_dist_graph(comm, graph, dist)
    )


def test_n_total_and_gid_views():
    g = ring(12)
    for dg in build_one(g, 3):
        assert dg.n_total == dg.n_local + dg.n_ghost
        np.testing.assert_array_equal(
            dg.l2g, np.concatenate([dg.owned_gids, dg.ghost_gids])
        )
        # owned and ghost gid sets are disjoint and sorted
        assert np.all(np.diff(dg.owned_gids) > 0)
        assert np.all(np.diff(dg.ghost_gids) > 0)
        assert not set(dg.owned_gids) & set(dg.ghost_gids)


def test_local_degrees_match_global():
    g = rmat(8, 10, seed=1)
    for dg in build_one(g, 4, kind="random", seed=3):
        np.testing.assert_array_equal(
            dg.local_degrees, g.degrees[dg.owned_gids]
        )


def test_owned_lids_roundtrip():
    g = ring(10)
    for dg in build_one(g, 2):
        lids = dg.owned_lids(dg.owned_gids)
        np.testing.assert_array_equal(lids, np.arange(dg.n_local))


def test_star_hub_neighbor_ranks():
    g = star(16)
    dgs = build_one(g, 4)
    # the hub (vertex 0, owned by rank 0) neighbors every other rank
    hub_owner = dgs[0]
    lid = int(hub_owner.owned_lids(np.array([0]))[0])
    np.testing.assert_array_equal(hub_owner.neighbor_ranks(lid), [1, 2, 3])
    # leaves on other ranks neighbor only rank 0
    for dg in dgs[1:]:
        for leaf in range(dg.n_local):
            np.testing.assert_array_equal(dg.neighbor_ranks(leaf), [0])


def test_arrays_read_only():
    g = ring(8)
    dg = build_one(g, 2)[0]
    for arr in (dg.offsets, dg.adj, dg.l2g, dg.degrees_full,
                dg.local_degrees, dg.arc_src, dg.arc_deg):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_per_arc_arrays_match_csr():
    g = rmat(8, 10, seed=5)
    for dg in build_one(g, 3, kind="random", seed=1):
        assert dg.arc_src.shape == dg.adj.shape == dg.arc_deg.shape
        for lid in range(dg.n_local):
            arcs = slice(dg.offsets[lid], dg.offsets[lid + 1])
            assert np.all(dg.arc_src[arcs] == lid)
            np.testing.assert_array_equal(
                dg.arc_deg[arcs], dg.degrees_full[dg.neighbors(lid)]
            )
        assert dg.arc_deg.dtype == np.float64
        np.testing.assert_array_equal(
            dg.local_degrees, np.diff(dg.offsets)
        )
        # built once: repeated reads return the same array object
        assert dg.local_degrees is dg.local_degrees


def test_pickle_round_trip_keeps_per_arc_arrays():
    g = rmat(8, 10, seed=6)
    for dg in build_one(g, 2, kind="random", seed=2):
        back = pickle.loads(pickle.dumps(dg))
        for name in ("offsets", "adj", "degrees_full", "local_degrees",
                     "arc_src", "arc_deg", "ghost_in_adj"):
            got, want = getattr(back, name), getattr(dg, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert (back.rank, back.n_local, back.n_ghost) == (
            dg.rank, dg.n_local, dg.n_ghost
        )


def test_global_metadata():
    g = rmat(8, 10, seed=2)
    for dg in build_one(g, 3):
        assert dg.global_n == g.n
        assert dg.global_m == g.num_edges


def test_directed_slots_default_none():
    g = ring(8)
    dg = build_one(g, 2)[0]
    assert dg.dir_out_offsets is None
    assert dg.dir_in_adj is None
