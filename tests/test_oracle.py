"""Reference computations: enumeration, cliques, simplex QP, dense eig."""

import numpy as np
import pytest

from dks import Graph
from dks.linalg import quadratic_form
from dks.graph import ProblemInstance
from dks.oracle import (dense_eig, exact_dks, max_clique, maximal_cliques,
                        project_scaled_simplex, simplex_qp_max)

from conftest import random_graph


def test_exact_dks_triangle(triangle):
    value, sel = exact_dks(triangle, 2, 1.0)
    assert value == 4.0
    assert sel.vertices.tolist() == [0, 1]


def test_exact_dks_two_triangles(two_triangles):
    value, sel = exact_dks(two_triangles, 3, 1.0)
    assert value == 9.0
    assert sel.vertices.tolist() == [0, 1, 2]  # lexicographic tie-break


def test_exact_dks_loading_shifts_value(star5):
    v1, _ = exact_dks(star5, 2, 1.0)
    v2, _ = exact_dks(star5, 2, 2.0)
    assert v1 == 4.0
    assert v2 == 6.0


def test_exact_dks_beats_every_subset():
    rng = np.random.default_rng(50)
    from itertools import combinations
    for _ in range(30):
        g = random_graph(int(rng.integers(3, 9)), float(rng.uniform(0.2, 0.8)), rng)
        k = int(rng.integers(1, g.n + 1))
        value, sel = exact_dks(g, k, 1.0)
        inst = ProblemInstance(graph=g, k=k, loading=1.0)
        for subset in combinations(range(g.n), k):
            x = np.zeros(g.n)
            x[list(subset)] = 1.0
            assert value >= quadratic_form(inst.graph, inst.loading, x) - 1e-9
        assert value == pytest.approx(
            2.0 * sel.induced_edges + 1.0 * k)


def test_exact_dks_guards():
    g = Graph.from_edges(40, [(i, i + 1) for i in range(39)])
    with pytest.raises(ValueError, match="guard"):
        exact_dks(g, 20, 1.0)
    with pytest.raises(ValueError):
        exact_dks(g, 0, 1.0)


def test_max_clique_known(k5, two_triangles, star5, path3, triangle):
    assert max_clique(k5) == (5, [0, 1, 2, 3, 4])
    size, members = max_clique(two_triangles)
    assert size == 3
    assert members in ([0, 1, 2], [3, 4, 5])
    assert max_clique(star5)[0] == 2
    assert max_clique(path3)[0] == 2
    assert max_clique(triangle)[0] == 3


def test_max_clique_edgeless(edgeless4):
    assert max_clique(edgeless4)[0] == 1


def test_max_clique_against_enumeration():
    from itertools import combinations
    rng = np.random.default_rng(51)
    for _ in range(40):
        g = random_graph(int(rng.integers(3, 10)), float(rng.uniform(0.3, 0.9)), rng)
        want = 1
        for size in range(2, g.n + 1):
            for subset in combinations(range(g.n), size):
                if all(g.has_edge(a, b) for a, b in combinations(subset, 2)):
                    want = max(want, size)
        assert max_clique(g)[0] == want


def test_max_clique_is_first_longest_maximal_clique():
    from dks.verify import small_graph_family
    rng = np.random.default_rng(52)
    graphs = [g for _, g in small_graph_family()]
    graphs += [random_graph(int(rng.integers(1, 25)), float(rng.uniform(0.0, 0.9)), rng)
               for _ in range(60)]
    for g in graphs:
        cliques = maximal_cliques(g)
        size = max(len(c) for c in cliques)
        first = next(c for c in cliques if len(c) == size)
        assert max_clique(g) == (size, first)


def test_maximal_cliques_two_triangles(two_triangles):
    cliques = sorted(maximal_cliques(two_triangles))
    assert cliques == [[0, 1, 2], [3, 4, 5]]


def test_clique_guard():
    g = Graph.from_edges(33, [(0, 1)])
    with pytest.raises(ValueError, match="guard"):
        max_clique(g)


def test_project_scaled_simplex_properties():
    rng = np.random.default_rng(52)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        u = rng.normal(size=n) * rng.uniform(0.1, 10)
        scale = float(rng.uniform(0.1, 5))
        x = project_scaled_simplex(u, scale)
        assert np.all(x >= 0)
        assert x.sum() == pytest.approx(scale, abs=1e-9)
        # optimality: no closer feasible competitor among random probes
        for _ in range(5):
            w = rng.random(n)
            y = scale * w / w.sum()
            assert np.sum((x - u) ** 2) <= np.sum((y - u) ** 2) + 1e-9


def test_project_scaled_simplex_known():
    x = project_scaled_simplex(np.array([1.0, 0.0]), 1.0)
    assert x.tolist() == [1.0, 0.0]
    x = project_scaled_simplex(np.array([0.6, 0.6]), 1.0)
    assert np.allclose(x, [0.5, 0.5])
    with pytest.raises(ValueError):
        project_scaled_simplex(np.array([1.0]), 0.0)


def test_simplex_qp_triangle_values(triangle):
    # unit-simplex maxima of x^T(A + lam I)x on K3: clique-uniform points
    value, x = simplex_qp_max(triangle, 0.5, 1.0)
    assert value == pytest.approx(5.0 / 6.0, abs=1e-9)
    assert np.allclose(x, [1 / 3] * 3, atol=1e-6)
    value, _ = simplex_qp_max(triangle, 0.0, 2.0)
    assert value == pytest.approx(8.0 / 3.0, abs=1e-9)
    value, _ = simplex_qp_max(triangle, 1.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_simplex_qp_dominates_clique_point():
    # the scaled uniform-on-max-clique point is always a candidate, so the
    # reported value can never fall below its objective
    rng = np.random.default_rng(53)
    for _ in range(25):
        g = random_graph(int(rng.integers(3, 10)), float(rng.uniform(0.3, 0.8)), rng)
        lam = float(rng.choice([0.25, 0.5, 0.75]))
        scale = float(rng.choice([1.0, 2.0]))
        size, members = max_clique(g)
        x = np.zeros(g.n)
        x[members] = scale / size
        clique_value = float(quadratic_at(g, lam, x))
        value, point = simplex_qp_max(g, lam, scale)
        assert value >= clique_value - 1e-12
        assert np.all(point >= -1e-12)
        assert point.sum() == pytest.approx(scale, abs=1e-8)


def quadratic_at(g, loading, x):
    a = g.matrix.toarray()
    return x @ a @ x + loading * (x @ x)


def test_dense_eig_triangle(triangle):
    values, vectors = dense_eig(triangle)
    assert np.allclose(values, [2.0, -1.0, -1.0])
    # matching columns really are eigenvectors, orthonormal
    a = triangle.matrix.toarray()
    assert np.allclose(a @ vectors, vectors * values, atol=1e-9)
    assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-9)


def test_dense_eig_guard():
    g = Graph.from_edges(65, [(0, 1)])
    with pytest.raises(ValueError, match="guard"):
        dense_eig(g)
