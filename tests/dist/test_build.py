"""Distributed graph construction: ghosts, id maps, edge conservation."""

import numpy as np
import pytest

from repro.dist import build_dist_graph, make_distribution
from repro.graph import from_edges, rmat, ring
from repro.simmpi import Runtime
from repro.suite import get_graph, suite_names


def build_all(graph, nprocs, kind="block", seed=0):
    dist = make_distribution(kind, graph.n, nprocs, seed=seed)
    rt = Runtime(nprocs)
    return rt.run(lambda comm: build_dist_graph(comm, graph, dist)), dist


@pytest.mark.parametrize("kind", ["block", "random"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_edge_conservation(kind, nprocs):
    g = rmat(9, 12, seed=3)
    dgs, _ = build_all(g, nprocs, kind)
    assert sum(dg.num_local_edges for dg in dgs) == g.num_directed_edges
    assert sum(dg.n_local for dg in dgs) == g.n


def test_local_adjacency_matches_global():
    g = rmat(8, 10, seed=5)
    dgs, dist = build_all(g, 3, "random", seed=1)
    for dg in dgs:
        for lid in range(dg.n_local):
            gid = dg.l2g[lid]
            local_neigh = dg.neighbors(lid)
            neigh_gids = np.sort(dg.l2g[local_neigh])
            np.testing.assert_array_equal(neigh_gids, g.neighbors(gid))


def test_ghosts_are_exactly_one_hop_remote():
    g = rmat(8, 10, seed=5)
    dgs, dist = build_all(g, 4, "block")
    for dg in dgs:
        ghosts = set(dg.ghost_gids.tolist())
        expected = set()
        for gid in dg.owned_gids:
            for u in g.neighbors(gid):
                if dist.owner(int(u)) != dg.rank:
                    expected.add(int(u))
        assert ghosts == expected
        # ghost owners correct
        for ggid, owner in zip(dg.ghost_gids, dg.ghost_owners):
            assert dist.owner(int(ggid)) == owner
            assert owner != dg.rank


def test_ghost_degrees_are_global_degrees():
    g = rmat(8, 10, seed=7)
    dgs, _ = build_all(g, 3, "random", seed=2)
    for dg in dgs:
        np.testing.assert_array_equal(dg.degrees_full, g.degrees[dg.l2g])


def test_send_rank_lists():
    g = ring(12)
    dgs, dist = build_all(g, 3, "block")
    for dg in dgs:
        for lid in range(dg.n_local):
            gid = dg.l2g[lid]
            expected = sorted(
                {
                    int(dist.owner(int(u)))
                    for u in g.neighbors(gid)
                    if dist.owner(int(u)) != dg.rank
                }
            )
            np.testing.assert_array_equal(dg.neighbor_ranks(lid), expected)


def test_boundary_mask():
    g = ring(12)
    dgs, _ = build_all(g, 3, "block")
    for dg in dgs:
        mask = dg.boundary_mask
        # in a block-distributed ring only the two endpoints are boundary
        assert mask.sum() == 2
        assert mask[0] and mask[-1]


def test_ghost_lids_lookup():
    g = ring(8)
    dgs, _ = build_all(g, 2, "block")
    dg = dgs[0]
    lids = dg.ghost_lids(dg.ghost_gids)
    np.testing.assert_array_equal(
        lids, np.arange(dg.n_ghost) + dg.n_local
    )
    with pytest.raises(ValueError):
        dg.ghost_lids(dg.owned_gids[:1])


def test_single_rank_has_no_ghosts():
    g = rmat(8, 10, seed=1)
    dgs, _ = build_all(g, 1)
    assert dgs[0].n_ghost == 0
    assert dgs[0].n_local == g.n


def test_build_validates_inputs():
    g = ring(8)
    wrong_dist = make_distribution("block", 9, 2)
    with pytest.raises(ValueError):
        Runtime(2).run(lambda comm: build_dist_graph(comm, g, wrong_dist))
    dist = make_distribution("block", 8, 3)
    with pytest.raises(ValueError):
        Runtime(2).run(lambda comm: build_dist_graph(comm, g, dist))


def test_repr():
    g = ring(8)
    dgs, _ = build_all(g, 2, "block")
    assert "rank=0/2" in repr(dgs[0])


@pytest.mark.parametrize("kind", ["block", "random"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_ghost_routing_table(kind, nprocs):
    """Every (vertex, rank) send pair's precomputed slot addresses exactly
    the destination rank's ghost copy of that vertex."""
    g = rmat(8, 10, seed=9)
    dgs, _ = build_all(g, nprocs, kind, seed=4)
    for dg in dgs:
        assert dg.send_ghost_slot.dtype == np.uint32
        assert dg.send_ghost_slot.shape == dg.send_rank_adj.shape
        for lid in range(dg.n_local):
            lo, hi = dg.send_rank_offsets[lid], dg.send_rank_offsets[lid + 1]
            for r, slot in zip(dg.send_rank_adj[lo:hi],
                               dg.send_ghost_slot[lo:hi]):
                peer = dgs[r]
                assert peer.ghost_gids[slot] == dg.l2g[lid]
                assert peer.ghost_owners[slot] == dg.rank


def test_max_ghost_global_is_global_max():
    g = rmat(8, 10, seed=9)
    dgs, _ = build_all(g, 3, "random", seed=4)
    true_max = max(dg.n_ghost for dg in dgs)
    assert all(dg.max_ghost_global == true_max for dg in dgs)


# -- reference construction --------------------------------------------------
# The binary-search / hash-unique construction the sort-and-gather build
# replaced, kept here as the oracle: every DistGraph array must match it.


def _ref_owned(dist, rank):
    return np.flatnonzero(dist.owner(np.arange(dist.n)) == rank).astype(np.int64)


def _ref_localize(dist, rank, owned_gids, neighbor_gids):
    owner_of = dist.owner(neighbor_gids) if neighbor_gids.size else np.empty(
        0, dtype=np.int32
    )
    mine = owner_of == rank
    local_adj = np.empty(neighbor_gids.size, dtype=np.int64)
    if np.any(mine):
        local_adj[mine] = np.searchsorted(owned_gids, neighbor_gids[mine])
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


def _ref_send_rank_lists(nprocs, src, local_adj, n_local, ghost_owners):
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


def _ref_ghost_incidence(src, local_adj, n_local, n_ghost):
    is_ghost = local_adj >= n_local
    targets = local_adj[is_ghost] - n_local
    sources = src[is_ghost]
    order = np.argsort(targets, kind="stable")
    gin_offsets = np.zeros(n_ghost + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n_ghost), out=gin_offsets[1:])
    return gin_offsets, sources[order]


def _ref_rank_view(graph, dist, rank):
    owned = _ref_owned(dist, rank)
    counts = (graph.offsets[owned + 1] - graph.offsets[owned]).astype(np.int64)
    offsets = np.zeros(owned.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    neighbor_gids = (
        np.concatenate([graph.neighbors(int(g)) for g in owned])
        if owned.size else np.empty(0, dtype=graph.adj.dtype)
    )
    arc_src = np.repeat(np.arange(owned.size, dtype=np.int64), counts)
    local_adj, ghost_gids, ghost_owners = _ref_localize(
        dist, rank, owned, neighbor_gids
    )
    l2g = np.concatenate([owned, ghost_gids])
    degrees_full = graph.degrees[l2g].astype(np.int64)
    sr_offsets, sr_adj = _ref_send_rank_lists(
        dist.nprocs, arc_src, local_adj, owned.size, ghost_owners
    )
    gin_offsets, gin_adj = _ref_ghost_incidence(
        arc_src, local_adj, owned.size, ghost_gids.size
    )
    return {
        "offsets": offsets,
        "adj": local_adj,
        "l2g": l2g,
        "ghost_owners": ghost_owners,
        "degrees_full": degrees_full,
        "local_degrees": np.diff(offsets),
        "arc_src": arc_src,
        "arc_deg": degrees_full[local_adj].astype(np.float64),
        "send_rank_offsets": sr_offsets,
        "send_rank_adj": sr_adj,
        "ghost_in_offsets": gin_offsets,
        "ghost_in_adj": gin_adj,
    }


def _isolated_graph():
    """40 vertices, edges only among the first few and one far pair: most
    vertices are isolated, and under 8 block ranks some ranks own only
    isolated vertices (no arcs, no ghosts)."""
    return from_edges(40, np.array([0, 1, 2, 3, 30]), np.array([1, 2, 3, 9, 31]))


REFERENCE_GRAPHS = [f"suite:{name}" for name in suite_names()] + ["isolated"]


@pytest.mark.parametrize("nprocs", [1, 3, 8])
@pytest.mark.parametrize("kind", ["block", "random"])
@pytest.mark.parametrize("gname", REFERENCE_GRAPHS)
def test_build_matches_reference_construction(gname, kind, nprocs):
    g = (
        _isolated_graph() if gname == "isolated"
        else get_graph(gname.split(":", 1)[1], "tiny")
    )
    dgs, dist = build_all(g, nprocs, kind, seed=7)
    refs = [_ref_rank_view(g, dist, r) for r in range(nprocs)]
    for dg, ref in zip(dgs, refs):
        for name, want in ref.items():
            got = getattr(dg, name)
            assert got.dtype == want.dtype, (dg.rank, name)
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert dg.n_local == ref["offsets"].size - 1
        assert dg.n_ghost == ref["l2g"].size - dg.n_local
        assert dg.max_ghost_global == max(
            r["l2g"].size - (r["offsets"].size - 1) for r in refs
        )
        # routing slot: position of this vertex in the peer's ghost array
        for lid in range(dg.n_local):
            lo, hi = ref["send_rank_offsets"][lid], ref["send_rank_offsets"][lid + 1]
            for i in range(lo, hi):
                peer = refs[int(ref["send_rank_adj"][i])]
                n_peer = peer["offsets"].size - 1
                slot = np.searchsorted(peer["l2g"][n_peer:], ref["l2g"][lid])
                assert dg.send_ghost_slot[i] == slot
    if gname == "isolated" and nprocs == 8:
        assert any(dg.n_ghost == 0 and dg.n_local for dg in dgs)
