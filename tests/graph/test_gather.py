"""Vectorized multi-range gather helpers (hot-path primitives)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph.gather import (
    expand_ranges,
    neighbor_gather,
    neighbor_gather_with_sources,
    sorted_unique,
    unique_inverse,
)
from repro.graph import rmat


def test_expand_ranges_basic():
    idx = expand_ranges(np.array([0, 10, 20]), np.array([2, 0, 3]))
    np.testing.assert_array_equal(idx, [0, 1, 20, 21, 22])


def test_expand_ranges_empty():
    assert expand_ranges(np.array([], dtype=int), np.array([], dtype=int)).size == 0
    assert expand_ranges(np.array([5]), np.array([0])).size == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=0,
        max_size=20,
    )
)
def test_expand_ranges_matches_python_loop(ranges):
    starts = np.array([r[0] for r in ranges], dtype=np.int64)
    counts = np.array([r[1] for r in ranges], dtype=np.int64)
    expected = [s + i for s, c in ranges for i in range(c)]
    np.testing.assert_array_equal(expand_ranges(starts, counts), expected)


def test_neighbor_gather_matches_loop():
    g = rmat(8, 10, seed=9)
    verts = np.array([0, 5, 17, 200])
    neigh, counts = neighbor_gather(g.offsets, g.adj, verts)
    expected = np.concatenate([g.neighbors(int(v)) for v in verts])
    np.testing.assert_array_equal(neigh, expected)
    np.testing.assert_array_equal(
        counts, [g.neighbors(int(v)).size for v in verts]
    )


def test_neighbor_gather_with_sources():
    g = rmat(8, 10, seed=9)
    verts = np.array([3, 100])
    neigh, sources, counts = neighbor_gather_with_sources(
        g.offsets, g.adj, verts
    )
    assert neigh.size == sources.size == counts.sum()
    # sources index *positions in verts*
    assert set(np.unique(sources)) <= {0, 1}
    np.testing.assert_array_equal(
        neigh[sources == 0], g.neighbors(3)
    )
    np.testing.assert_array_equal(
        neigh[sources == 1], g.neighbors(100)
    )


KEY_DTYPES = [np.int32, np.int64, np.uint32, np.uint64, np.uint8]


@st.composite
def key_arrays(draw):
    """Integer key arrays: any dtype above, small value ranges (so repeats
    and all-equal runs are common), negatives for the signed ones."""
    dtype = np.dtype(draw(st.sampled_from(KEY_DTYPES)))
    info = np.iinfo(dtype)
    span = draw(st.sampled_from([1, 3, 50, int(info.max)]))
    lo = max(int(info.min), -span)
    hi = min(int(info.max), span)
    return draw(hnp.arrays(
        dtype, st.integers(min_value=0, max_value=300),
        elements=st.integers(min_value=lo, max_value=hi),
    ))


@settings(max_examples=200, deadline=None)
@given(key_arrays())
def test_sorted_unique_matches_np_unique(a):
    got = sorted_unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(key_arrays())
def test_unique_inverse_matches_np_unique(a):
    uniq, inv = unique_inverse(a)
    want_uniq, want_inv = np.unique(a, return_inverse=True)
    assert uniq.dtype == want_uniq.dtype
    assert inv.dtype == want_inv.dtype
    np.testing.assert_array_equal(uniq, want_uniq)
    np.testing.assert_array_equal(inv, want_inv.ravel())
    np.testing.assert_array_equal(uniq[inv], a)


@pytest.mark.parametrize("dtype", KEY_DTYPES)
@pytest.mark.parametrize("values", [[], [7], [5, 5, 5, 5], [3, 1, 3, 2, 1]])
def test_unique_helpers_edge_cases(dtype, values):
    a = np.array(values, dtype=dtype)
    np.testing.assert_array_equal(sorted_unique(a), np.unique(a))
    assert sorted_unique(a).dtype == a.dtype
    uniq, inv = unique_inverse(a)
    np.testing.assert_array_equal(uniq, np.unique(a))
    np.testing.assert_array_equal(uniq[inv], a)


def test_unique_helpers_negative_keys():
    a = np.array([-3, 7, -3, -(2**40), 0, 7], dtype=np.int64)
    np.testing.assert_array_equal(sorted_unique(a), [-(2**40), -3, 0, 7])
    uniq, inv = unique_inverse(a)
    np.testing.assert_array_equal(inv, [1, 3, 1, 0, 2, 3])


def test_sorted_unique_leaves_input_alone():
    a = np.array([4, 2, 4, 1])
    a.setflags(write=False)
    np.testing.assert_array_equal(sorted_unique(a), [1, 2, 4])
    np.testing.assert_array_equal(a, [4, 2, 4, 1])
