"""segment_best_label against the two-lexsort formulation it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges
from repro.multilevel.kernels import segment_best_label


def _reference_best_label(src, lab, w, n):
    """Reference oracle: group by ``lexsort((lab, src))``, then pick the
    first max-sum group per source with ``lexsort((-sums, g_src))``."""
    best_label = np.full(n, -1, dtype=np.int64)
    best_weight = np.zeros(n, dtype=np.float64)
    if src.size == 0:
        return best_label, best_weight
    order = np.lexsort((lab, src))
    s, l, ww = src[order], lab[order], w[order]
    group = np.empty(s.size, dtype=bool)
    group[0] = True
    group[1:] = (s[1:] != s[:-1]) | (l[1:] != l[:-1])
    starts = np.flatnonzero(group)
    sums = np.add.reduceat(ww, starts)
    g_src = s[starts]
    g_lab = l[starts]
    order2 = np.lexsort((-sums, g_src))
    g_src2 = g_src[order2]
    first = np.empty(g_src2.size, dtype=bool)
    first[0] = True
    first[1:] = g_src2[1:] != g_src2[:-1]
    sel = order2[first]
    best_label[g_src[sel]] = g_lab[sel]
    best_weight[g_src[sel]] = sums[sel]
    return best_label, best_weight


def _assert_bit_equal(src, lab, w, n):
    got = segment_best_label(src, lab, w, n)
    ref = _reference_best_label(src, lab, w, n)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])
    assert got[0].dtype == ref[0].dtype and got[1].dtype == ref[1].dtype


def _random_arcs(rng, n, m, n_labels, sort_src):
    src = rng.integers(0, n, m).astype(np.int64)
    if sort_src:
        src = np.sort(src)
    lab = rng.integers(0, n_labels, m).astype(np.int64)
    return src, lab


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("sort_src", [True, False])
def test_tied_quarter_step_weights(seed, sort_src):
    # weights on a quarter grid: many groups tie on their sum
    rng = np.random.default_rng(seed)
    src, lab = _random_arcs(rng, 60, 900, 12, sort_src)
    w = np.round(rng.random(src.size) * 8) / 4
    _assert_bit_equal(src, lab, w, 60)


@pytest.mark.parametrize("seed", range(4))
def test_unit_weights_ties_go_to_smaller_label(seed):
    rng = np.random.default_rng(100 + seed)
    src, lab = _random_arcs(rng, 40, 400, 6, sort_src=False)
    w = np.ones(src.size)
    _assert_bit_equal(src, lab, w, 40)
    best, weight = segment_best_label(src, lab, w, 40)
    for v in np.unique(src):
        counts = np.bincount(lab[src == v])
        assert best[v] == int(np.argmax(counts))  # argmax: first max
        assert weight[v] == counts.max()


@pytest.mark.parametrize("seed", range(4))
def test_jittered_float_weights(seed):
    # heavy-edge matching's tie-breaking jitter on arbitrary float weights
    rng = np.random.default_rng(200 + seed)
    src, lab = _random_arcs(rng, 300, 5000, 300, sort_src=True)
    w = rng.random(src.size) * 3.0
    w *= 1.0 + 1e-6 * rng.random(src.size)
    _assert_bit_equal(src, lab, w, 300)


def test_large_label_span():
    # gid-valued labels far above the vertex count (level-0 clustering)
    rng = np.random.default_rng(7)
    src, _ = _random_arcs(rng, 50, 600, 1, sort_src=True)
    lab = rng.integers(0, 2**40, src.size)
    lab[::3] = lab[0]  # share some labels so groups merge
    _assert_bit_equal(src, lab, np.ones(src.size), 50)


def test_empty_input():
    e = np.empty(0, dtype=np.int64)
    best, weight = segment_best_label(e, e, np.empty(0), 5)
    np.testing.assert_array_equal(best, np.full(5, -1))
    np.testing.assert_array_equal(weight, np.zeros(5))


def test_vertices_without_arcs():
    src = np.array([1, 1, 4], dtype=np.int64)
    lab = np.array([3, 0, 2], dtype=np.int64)
    w = np.array([1.0, 1.0, 0.5])
    best, weight = segment_best_label(src, lab, w, 6)
    np.testing.assert_array_equal(best, [-1, 0, -1, -1, 2, -1])
    np.testing.assert_array_equal(weight, [0, 1.0, 0, 0, 0.5, 0])
    _assert_bit_equal(src, lab, w, 6)


def test_negative_label_raises():
    src = np.array([0, 1], dtype=np.int64)
    lab = np.array([2, -1], dtype=np.int64)
    with pytest.raises(ValueError):
        segment_best_label(src, lab, np.ones(2), 2)


def test_key_overflow_raises():
    src = np.array([0, 1], dtype=np.int64)
    lab = np.array([2**62, 0], dtype=np.int64)
    with pytest.raises(ValueError):
        segment_best_label(src, lab, np.ones(2), 2)


@st.composite
def graph_arcs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    g = from_edges(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))
    n_labels = draw(st.integers(min_value=1, max_value=n))
    labels = rng.integers(0, n_labels, g.n).astype(np.int64)
    w = np.round(rng.random(src.size) * 4) / 2
    return src, labels[g.adj], w, g.n


@settings(max_examples=60, deadline=None)
@given(graph_arcs())
def test_matches_reference_on_random_graphs(case):
    _assert_bit_equal(*case)
