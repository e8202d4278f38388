"""Top-k index selection: exactness and tie handling."""

import numpy as np
import pytest

from dks.linalg import loaded_matvec
from dks.points import indicator, top_k_indices

from conftest import random_graph


def test_simple_selection():
    assert top_k_indices([3.0, 1.0, 2.0], 2).tolist() == [0, 2]
    assert top_k_indices([1.0, 2.0, 3.0], 1).tolist() == [2]


def test_edge_sizes():
    v = [5.0, 1.0, 3.0]
    assert top_k_indices(v, 0).tolist() == []
    assert top_k_indices(v, 3).tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        top_k_indices(v, 4)
    with pytest.raises(ValueError):
        top_k_indices(v, -1)


def test_ties_go_to_lowest_index():
    assert top_k_indices([1.0, 1.0, 1.0, 1.0], 2).tolist() == [0, 1]
    assert top_k_indices([0.0, 2.0, 2.0, 2.0], 2).tolist() == [1, 2]
    # one entry above, one tie resolved low
    assert top_k_indices([2.0, 1.0, 3.0, 2.0], 2).tolist() == [0, 2]


def test_against_stable_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        # coarse values force plenty of ties
        v = rng.integers(0, 5, size=n).astype(np.float64)
        k = int(rng.integers(0, n + 1))
        got = top_k_indices(v, k)
        # oracle: stable sort on (-value, index) and take the first k
        want = sorted(sorted(range(n), key=lambda i: (-v[i], i))[:k])
        assert got.tolist() == want
        assert got.dtype == np.int64


def lexsort_top_k(v, k):
    """Reference: order by (-value, index) and keep the first k, sorted."""
    return np.sort(np.lexsort((np.arange(len(v)), -v))[:k])


def test_against_lexsort_reference_on_tie_heavy_inputs():
    rng = np.random.default_rng(2)
    n = 2000
    mostly_zero = np.where(rng.random(n) < 0.9, 0.0, rng.integers(1, 4, n))
    # 2 (A + I) x at an integral x, as FW's gradient at an integral iterate
    g = random_graph(n, 0.005, rng)
    x = indicator(rng.choice(n, 50, replace=False), n)
    fw_gradient = 2.0 * loaded_matvec(g, 1.0, x)
    for v in (np.ones(n), np.zeros(n), mostly_zero, fw_gradient, -fw_gradient):
        for k in (0, 1, 2, 50, n // 2, n - 1, n):
            got = top_k_indices(v, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, lexsort_top_k(v, k))


def test_selected_sum_is_maximal():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        v = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        got = v[top_k_indices(v, k)].sum()
        best = np.sort(v)[-k:].sum()
        assert got == pytest.approx(best, abs=1e-12)


def test_indicator():
    x = indicator([0, 2], 4)
    assert x.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert x.dtype == np.float64
    assert indicator([], 3).tolist() == [0.0, 0.0, 0.0]
