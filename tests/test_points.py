"""Feasible-set helpers: uniform point, feasibility, capped-simplex projection,
and top-k selection (exactness and tie handling) with its indicator."""

import numpy as np
import pytest

from dks.linalg import loaded_matvec
from dks.points import (indicator, is_feasible, project_capped_simplex,
                        random_feasible_point, top_k_indices, uniform_point)

from conftest import random_graph


def test_uniform_point():
    x = uniform_point(4, 3)
    assert x.tolist() == [0.75, 0.75, 0.75, 0.75]
    assert is_feasible(x, 3)


def test_is_feasible():
    assert is_feasible([1.0, 0.0, 1.0], 2)
    assert not is_feasible([1.0, 0.5, 1.0], 2)      # sum is 2.5
    assert not is_feasible([1.5, 0.5, 0.0], 2)      # box violated
    assert not is_feasible([-0.5, 1.0, 1.0], 2)
    assert is_feasible([1.0 + 1e-12, 0.0, 1.0], 2)  # inside tolerance


def test_projection_fixed_points():
    x = np.array([1.0, 0.0, 1.0, 0.0])
    assert project_capped_simplex(x, 2) == pytest.approx(x, abs=1e-9)
    u = uniform_point(5, 2)
    assert project_capped_simplex(u, 2) == pytest.approx(u, abs=1e-9)


def test_projection_hand_cases():
    # (2, 1, 0) already sums to 2 after capping: tau = 0
    got = project_capped_simplex(np.array([2.0, 1.0, 0.0]), 2)
    assert got == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)
    # (2, 0.6, 0): shift up by 0.2 and cap the first coordinate
    got = project_capped_simplex(np.array([2.0, 0.6, 0.0]), 2)
    assert got == pytest.approx([1.0, 0.8, 0.2], abs=1e-9)


def assert_exact_form(x, u):
    # x = clip(u - tau, 0, 1): free coordinates share one shift tau,
    # coordinates at 0 have u_i <= tau and coordinates at 1 have u_i >= tau + 1
    tol = 1e-9 * max(1.0, np.abs(u).max())
    free = (x > 0.0) & (x < 1.0)
    if free.any():
        shift = u[free] - x[free]
        tau = shift[0]
        assert np.all(np.abs(shift - tau) <= tol)
        assert np.all(u[x == 0.0] <= tau + tol)
        assert np.all(u[x == 1.0] >= tau + 1.0 - tol)
    elif (x == 0.0).any() and (x == 1.0).any():
        assert u[x == 0.0].max() <= u[x == 1.0].min() - 1.0 + tol


def test_projection_feasibility_and_optimality():
    rng = np.random.default_rng(2)
    inputs = [lambda n: rng.standard_normal(n) * 3.0,
              # integer-valued: many ties, breakpoints that coincide
              lambda n: rng.integers(-2, 3, n).astype(np.float64),
              # magnitudes spread over eight decades
              lambda n: rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2, n)]
    for draw in inputs:
        for _ in range(200):
            n = int(rng.integers(1, 25))
            k = int(rng.integers(0, n + 1))
            u = draw(n)
            x = project_capped_simplex(u, k)
            assert is_feasible(x, k, tol=1e-8)
            assert_exact_form(x, u)
            # optimality: no better point among random feasible competitors
            d2 = ((x - u) ** 2).sum()
            for _ in range(5):
                y = random_feasible_point(n, k, rng)
                assert d2 <= ((y - u) ** 2).sum() + 1e-8


def test_projection_preserves_order():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        u = rng.standard_normal(n)
        x = project_capped_simplex(u, int(rng.integers(1, n + 1)))
        order = np.argsort(u)
        assert np.all(np.diff(x[order]) >= -1e-12)


def test_projection_rejects_bad_k():
    with pytest.raises(ValueError):
        project_capped_simplex(np.zeros(3), 4)


def test_random_feasible_point_is_feasible_and_fractional():
    rng = np.random.default_rng(4)
    frac_seen = 0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        x = random_feasible_point(n, k, rng)
        assert is_feasible(x, k, tol=1e-8)
        if np.any((x > 1e-9) & (x < 1 - 1e-9)):
            frac_seen += 1
    assert frac_seen > 50  # the generator should usually land strictly inside


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
