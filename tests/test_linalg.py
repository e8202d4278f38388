"""Spectral primitives: loaded matvec, quadratic form, eigensolver estimates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from dks import (Graph, leading_eigenpair, loaded_matvec, quadratic_form,
                 spectral_norm, top_two_singular_values)
from dks.linalg import (CERT_MAX_ITERS, CERT_TOL, STEP_MAX_ITERS, STEP_TOL,
                        collatz_wielandt)
from dks.oracle import dense_eig
from dks.verify import small_graph_family

from conftest import random_graph


def test_loaded_matvec_triangle(triangle):
    x = np.array([1.0, 1.0, 1.0])
    assert loaded_matvec(triangle, 1.0, x).tolist() == [3.0, 3.0, 3.0]
    assert loaded_matvec(triangle, 0.0, x).tolist() == [2.0, 2.0, 2.0]


def test_loaded_matvec_shape_check(triangle):
    with pytest.raises(ValueError):
        loaded_matvec(triangle, 1.0, np.ones(4))


def test_loaded_matvec_adds_in_place():
    # The loading term is added into scipy's product: the same sum, bit for
    # bit, while the call holds two n-vectors instead of three.
    rng = np.random.default_rng(13)
    n = 10_000
    g = Graph.from_edges(n, rng.integers(0, n, size=(50_000, 2)))
    x = rng.random(n)
    for lam in (0.0, 1.0, 1.5, 3.7):
        np.testing.assert_array_equal(loaded_matvec(g, lam, x),
                                      g.matrix.dot(x) + lam * x)
    loaded_matvec(g, 1.5, x)  # first calls may cache allocations
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        loaded_matvec(g, 1.5, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (8 * n) <= 2.1


def test_quadratic_form_known_values(triangle):
    # indicator of an edge: 2 edges-in-both-directions + loading * 2
    assert quadratic_form(triangle, 1.0, np.array([1.0, 1.0, 0.0])) == 4.0
    assert quadratic_form(triangle, 1.0, np.full(3, 2.0 / 3.0)) == pytest.approx(4.0)
    assert quadratic_form(triangle, 0.5, np.array([1.0, 0.0, 0.0])) == 0.5


def test_quadratic_form_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.2, 0.8)), rng)
        lam = float(rng.uniform(0.0, 2.0))
        x = rng.random(g.n)
        a = g.matrix.toarray() + lam * np.eye(g.n)
        assert quadratic_form(g, lam, x) == pytest.approx(x @ a @ x, rel=1e-12)


def test_spectral_norm_known_values(triangle, star5, edgeless4):
    assert spectral_norm(triangle, 1.0).value == pytest.approx(3.0, abs=1e-8)
    # K_{1,4} adjacency has eigenvalues +/-2: bipartite case at loading 0
    assert spectral_norm(star5, 0.0).value == pytest.approx(2.0, abs=1e-8)
    assert spectral_norm(edgeless4, 0.0).value == 0.0
    assert spectral_norm(edgeless4, 2.0).value == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("loading", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_spectral_norm_rejects_bad_loading(triangle, loading):
    with pytest.raises(ValueError, match="loading"):
        spectral_norm(triangle, loading)


def test_spectral_norm_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = random_graph(int(rng.integers(2, 14)), float(rng.uniform(0.1, 0.9)), rng)
        lam = float(rng.uniform(0.0, 2.0))
        w, _ = np.linalg.eigh(g.matrix.toarray() + lam * np.eye(g.n))
        want = float(np.abs(w).max())
        got = leading_eigenpair(g, tol=1e-12, max_iters=20000).value + lam
        assert got == pytest.approx(want, abs=1e-8)
        assert got <= want + 1e-12  # norm-growth never overshoots


def test_leading_eigenpair_triangle(triangle):
    res = leading_eigenpair(triangle, tol=1e-12, max_iters=10000)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.vector == pytest.approx(np.full(3, 1.0 / np.sqrt(3)), abs=1e-8)


def test_leading_eigenpair_residual_is_small():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.2, 0.9)), rng)
        res = leading_eigenpair(g, tol=1e-10, max_iters=20000)
        u, theta = res.vector, res.value
        assert np.linalg.norm(g.matrix.dot(u) - theta * u) <= 1e-9 * max(1.0, theta)
        assert u[np.argmax(np.abs(u))] > 0
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)


def test_top_two_singular_values_known(triangle, single_edge, star5, path3, edgeless4,
                                       two_triangles):
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    for g, want1, want2 in [
        (triangle, 2.0, 1.0),
        (single_edge, 1.0, 1.0),
        (star5, 2.0, 2.0),           # bipartite: eigenvalues come as +/- 2
        (path3, np.sqrt(2), np.sqrt(2)),
        (edgeless4, 0.0, 0.0),
        # the deflated operator annihilates the all-ones vector on these
        (c4, 2.0, 2.0),
        (k33, 3.0, 3.0),
        (two_triangles, 2.0, 2.0),   # repeated top eigenvalue
    ]:
        s1, u1, s2 = top_two_singular_values(g, tol=1e-12, max_iters=20000)
        assert s1 == pytest.approx(want1, abs=1e-8)
        assert s2 == pytest.approx(want2, abs=1e-8)
        assert u1.shape == (g.n,)


def test_top_two_singular_values_match_dense():
    rng = np.random.default_rng(9)
    for _ in range(60):
        g = random_graph(int(rng.integers(2, 13)), float(rng.uniform(0.05, 0.95)), rng)
        w, _ = dense_eig(g)
        mags = np.sort(np.abs(w))[::-1]
        s1, _, s2 = top_two_singular_values(g, tol=1e-12, max_iters=20000)
        assert s1 == pytest.approx(mags[0], abs=1e-8)
        want2 = mags[1] if g.n > 1 else 0.0
        assert s2 == pytest.approx(want2, abs=1e-8)


def test_power_result_reports_nonconvergence(k5):
    res = leading_eigenpair(k5, tol=1e-12, max_iters=1)
    assert not res.converged
    assert res.value > 0


def test_eigensolves_default_to_the_certificate_settings():
    # the bound, rank1 and a sweep call both at their defaults; spectral_norm
    # runs at the looser settings of the option1/option2 step rules
    g = random_graph(60, 0.15, np.random.default_rng(9))
    lead = leading_eigenpair(g)
    cert = leading_eigenpair(g, tol=CERT_TOL, max_iters=CERT_MAX_ITERS)
    assert (lead.value, lead.converged) == (cert.value, cert.converged)
    assert np.array_equal(lead.vector, cert.vector)
    s1, u1, s2 = top_two_singular_values(g)
    c1, v1, c2 = top_two_singular_values(g, tol=CERT_TOL, max_iters=CERT_MAX_ITERS)
    assert (s1, s2) == (c1, c2) and np.array_equal(u1, v1)
    loose = leading_eigenpair(g, tol=STEP_TOL, max_iters=STEP_MAX_ITERS)
    step = spectral_norm(g, 0.5)
    assert step.value == loose.value + 0.5
    assert np.array_equal(step.vector, loose.vector)
    assert not np.array_equal(loose.vector, cert.vector)


@pytest.mark.parametrize("solve, kwargs, match", [
    (leading_eigenpair, {"tol": np.nan}, "tol"),
    (leading_eigenpair, {"tol": np.inf}, "tol"),
    (leading_eigenpair, {"tol": 0.0}, "tol"),
    (leading_eigenpair, {"max_iters": 0}, "max_iters"),
    (leading_eigenpair, {"max_iters": -5}, "max_iters"),
    (top_two_singular_values, {"tol": np.nan}, "tol"),
    (top_two_singular_values, {"max_iters": 0}, "max_iters"),
], ids=["nan-tol", "inf-tol", "zero-tol", "zero-iters", "negative-iters",
        "top-two-nan-tol", "top-two-zero-iters"])
def test_eigensolves_reject_bad_settings(triangle, solve, kwargs, match):
    # a NaN tol used to run the whole budget, an infinite one to stop after
    # one step at a wrong value, and a budget below 1 to return theta = 0
    with pytest.raises(ValueError, match=match):
        solve(triangle, **kwargs)


def _two_stars():
    # K_{1,50} beside K_{1,49}: theta1 = sqrt 50 sits just above sqrt 49
    return Graph.from_edges(101, [(0, leaf) for leaf in range(1, 51)]
                            + [(51, leaf) for leaf in range(52, 101)])


def _clique_beside_hub():
    # a 12-clique (lambda 11) beside a degree-130 hub (theta1 = sqrt 130)
    return Graph.from_edges(2000, [(i, j) for i in range(12) for j in range(i + 1, 12)]
                            + [(12, leaf) for leaf in range(13, 143)])


def _underflow_repro():
    # K_{1,16}, K_{1,17} and one edge, on which the plain power loop underflowed
    return Graph.from_edges(37, [(0, leaf) for leaf in range(1, 17)]
                            + [(17, leaf) for leaf in range(18, 35)] + [(35, 36)])


def test_perron_pair_is_tight_under_collatz_wielandt(two_triangles):
    # The polished u1 reads theta1 back through the bound's sigma1 term, on
    # disconnected graphs too, where noise on the other components used to
    # send the term to the degree cap
    k4_p5 = Graph.from_edges(9, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                             + [(i, i + 1) for i in range(4, 8)])
    rng = np.random.default_rng(29)
    graphs = [g for _, g in small_graph_family(seed=0, random_count=30)]
    graphs += [random_graph(int(rng.integers(2, 40)), float(rng.uniform(0.02, 0.5)), rng)
               for _ in range(40)]
    graphs += [_underflow_repro(), two_triangles, k4_p5, _two_stars()]
    for g in graphs:
        lead = leading_eigenpair(g)
        theta1 = np.linalg.eigvalsh(g.matrix.toarray())[-1]
        assert lead.converged
        assert lead.value == pytest.approx(theta1, abs=1e-10)
        cw = collatz_wielandt(g, lead.vector, g.matrix.dot(lead.vector))
        assert cw <= lead.value * (1 + 1e-10)


def _counted(g):
    """``g`` with an adjacency matrix that counts its products in ``calls``."""
    class Counting(scipy.sparse.csr_matrix):
        calls = 0

        def dot(self, other):
            Counting.calls += 1
            return super().dot(other)

    return dataclasses.replace(g, matrix=Counting(g.matrix))


@pytest.mark.parametrize("make, theta1", [(_two_stars, np.sqrt(50)),
                                          (_clique_beside_hub, np.sqrt(130))],
                         ids=["two-stars", "clique-hub"])
def test_leading_eigenpair_matvec_count(make, theta1):
    # small spectral gaps: the plain power loop took 2 602 and 709 products
    g = _counted(make())
    lead = leading_eigenpair(g)
    assert lead.converged and g.matrix.calls <= 60
    assert lead.value == pytest.approx(theta1, abs=1e-10)
    # LOPCG and the polish share the budget, counted in products
    for budget in (1, 2, 3, 5, g.matrix.calls - 1, g.matrix.calls):
        h = _counted(make())
        capped = leading_eigenpair(h, max_iters=budget)
        assert h.matrix.calls <= budget
        assert capped.converged == (budget > 5)


def test_leading_eigenpair_memory_is_a_fixed_handful_of_vectors():
    # LOPCG holds x, w, p and their products; the plain power loop held 5
    rng = np.random.default_rng(13)
    n = 10_000
    g = Graph.from_edges(n, rng.integers(0, n, size=(50_000, 2)))
    leading_eigenpair(g)  # first calls may cache allocations
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        leading_eigenpair(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (8 * n) <= 7.5
