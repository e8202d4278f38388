"""Greedy and rank-1 baselines plus the spectral density bound."""

import numpy as np
import pytest

from dks import Graph, density_upper_bound, greedy_feige, rank1_lrbo
from dks.linalg import CERT_MAX_ITERS, CERT_TOL, top_two_singular_values
from dks.oracle import exact_dks

from conftest import random_graph


def test_greedy_star_picks_hub(star5):
    sel = greedy_feige(star5, 2)
    assert 0 in sel.vertices.tolist()
    assert sel.induced_edges == 1
    assert sel.normalized_density == 1.0


def test_greedy_two_triangles(two_triangles):
    sel = greedy_feige(two_triangles, 3)
    # degrees all tie at 2, so the core is {0, 1} and the best-attached
    # vertex is 2, recovering the first triangle
    assert sel.vertices.tolist() == [0, 1, 2]
    assert sel.normalized_density == 1.0


def test_greedy_clique(k5):
    for k in range(2, 6):
        sel = greedy_feige(k5, k)
        assert sel.normalized_density == 1.0


def test_greedy_k_range(triangle):
    with pytest.raises(ValueError):
        greedy_feige(triangle, 1)
    with pytest.raises(ValueError):
        greedy_feige(triangle, 4)


def test_greedy_returns_k_distinct_vertices():
    rng = np.random.default_rng(40)
    for _ in range(100):
        g = random_graph(int(rng.integers(4, 40)), float(rng.uniform(0.1, 0.9)), rng)
        k = int(rng.integers(2, g.n + 1))
        sel = greedy_feige(g, k)
        verts = sel.vertices.tolist()
        assert len(verts) == k
        assert len(set(verts)) == k
        assert all(0 <= v < g.n for v in verts)


def test_rank1_triangle(triangle):
    sel = rank1_lrbo(triangle, 2)
    assert sel.induced_edges == 1
    assert sel.normalized_density == 1.0


def test_rank1_unbalanced_components():
    # K4 plus a disjoint edge: u1 lives on the clique, so the selection does too
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]
    g = Graph.from_edges(6, edges)
    sel = rank1_lrbo(g, 3)
    assert set(sel.vertices.tolist()) <= {0, 1, 2, 3}
    assert sel.normalized_density == 1.0


def test_rank1_k_range(triangle):
    with pytest.raises(ValueError):
        rank1_lrbo(triangle, 0)


def test_bound_examples(triangle, edgeless4, k5):
    # frozen reference outputs
    assert density_upper_bound(k5, 3) == 1.0
    assert density_upper_bound(triangle, 2) == 1.0
    assert density_upper_bound(edgeless4, 3) == 0.0


def test_bound_dominates_every_subset_density():
    rng = np.random.default_rng(41)
    for _ in range(60):
        g = random_graph(int(rng.integers(4, 12)), float(rng.uniform(0.2, 0.8)), rng)
        eig = top_two_singular_values(g, tol=1e-12, max_iters=20000)
        for k in range(2, g.n + 1):
            bound = density_upper_bound(g, k, eig=eig)
            value, sel = exact_dks(g, k, 1.0)
            assert bound >= sel.normalized_density
            assert bound <= 1.0


def test_bound_precomputed_eig_matches_fresh(two_triangles):
    eig = top_two_singular_values(two_triangles, tol=1e-12, max_iters=20000)
    for k in range(2, 7):
        assert density_upper_bound(two_triangles, k, eig=eig) == pytest.approx(
            density_upper_bound(two_triangles, k), abs=1e-9)


def test_rank1_alone_solves_for_the_sweep_triple_u1(monkeypatch):
    # eig is a pure cache: rank1's own eigensolve gives the u1 of the triple a
    # sweep computes, bit for bit, so its selection cannot depend on the route
    import dks.baselines

    solve, seen = dks.baselines.leading_eigenpair, []

    def spied(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(dks.baselines, "leading_eigenpair", spied)
    g = random_graph(80, 0.1, np.random.default_rng(42))
    rank1_lrbo(g, 5)
    _, u1, _ = top_two_singular_values(g, tol=CERT_TOL, max_iters=CERT_MAX_ITERS)
    assert len(seen) == 1
    assert np.array_equal(seen[0].vector, u1)


@pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("rest", ["path", "matching"])
def test_bound_sound_when_eigensolves_stop_unconverged(rest, max_iters):
    # K4 (density 1) beside a large component the iterations cannot settle on
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    if rest == "path":  # 10 000 vertices
        other = [(i, i + 1) for i in range(4, 10003)]
    else:  # 5 000 disjoint edges
        other = [(i, i + 1) for i in range(4, 10004, 2)]
    g = Graph.from_edges(other[-1][1] + 1, k4 + other)
    eig = top_two_singular_values(g, tol=CERT_TOL, max_iters=max_iters)
    assert density_upper_bound(g, 4, eig=eig) >= 1.0


def test_bound_k_validation(triangle):
    with pytest.raises(ValueError):
        density_upper_bound(triangle, 1)
    with pytest.raises(ValueError):
        density_upper_bound(triangle, 4)
