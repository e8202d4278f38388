"""Monotone rounding, the single step, selections, and the top-k projection."""

import numpy as np
import pytest

from dks import Graph, ProblemInstance, round_to_integral, rounding_step
from dks.fw import is_integral
from dks.linalg import quadratic_form
from dks.points import is_feasible, random_feasible_point, uniform_point
from dks.rounding import make_selection, project_top_k

from conftest import random_graph


def test_make_selection_two_triangles(two_triangles):
    sel = make_selection(two_triangles, [2, 0, 1], loading=1.0)
    assert sel.vertices.tolist() == [0, 1, 2]
    assert sel.induced_edges == 3
    assert sel.normalized_density == 1.0
    assert sel.objective_at_loading == 9.0
    assert sel.k == 3


def test_make_selection_k1_density_zero(triangle):
    sel = make_selection(triangle, [1], loading=2.0)
    assert sel.normalized_density == 0.0
    assert sel.objective_at_loading == 2.0


def test_make_selection_validation(triangle):
    with pytest.raises(ValueError):
        make_selection(triangle, [0, 0])
    with pytest.raises(ValueError):
        make_selection(triangle, [0, 3])


def test_project_top_k(two_triangles):
    x = np.array([0.9, 0.8, 0.7, 0.1, 0.2, 0.0])
    sel = project_top_k(two_triangles, x, 3)
    assert sel.vertices.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        project_top_k(two_triangles, np.ones(2), 3)


def test_rounding_step_hand_case(star5):
    # hub half full, one leaf half full: mass flows toward the hub
    inst = ProblemInstance(graph=star5, k=2, loading=1.0)
    x0 = np.array([0.5, 0.5, 1.0, 0.0, 0.0])
    x1, i, j, delta, is_edge = rounding_step(inst, x0)
    assert (i, j) == (0, 1)
    assert delta == pytest.approx(0.5)
    assert is_edge
    assert x1.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0]
    assert (quadratic_form(inst.graph, inst.loading, x1)
            >= quadratic_form(inst.graph, inst.loading, x0) - 1e-12)
    assert quadratic_form(inst.graph, inst.loading, x1) == pytest.approx(4.0)


def test_rounding_step_needs_two_fractional(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError):
        rounding_step(inst, np.array([1.0, 1.0, 0.0]))


def test_rounding_step_delta_identity():
    # the reported objective change matches the closed form
    rng = np.random.default_rng(30)
    for _ in range(200):
        g = random_graph(int(rng.integers(3, 25)), float(rng.uniform(0.2, 0.8)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x = random_feasible_point(g.n, k, rng)
        if len(np.flatnonzero((x > 1e-9) & (x < 1 - 1e-9))) < 2:
            continue
        before = quadratic_form(inst.graph, inst.loading, x)
        s = g.matrix.dot(x)
        x1, i, j, delta, edge = rounding_step(inst, x)
        gain = quadratic_form(inst.graph, inst.loading, x1) - before
        dscore = (lam * x[i] + s[i]) - (lam * x[j] + s[j])
        curvature = (lam - 1.0) if edge else lam
        want = 2.0 * delta * dscore + 2.0 * curvature * delta * delta
        assert gain == pytest.approx(want, abs=1e-8)
        assert gain >= -1e-9 * max(1.0, abs(before))


def test_round_to_integral_hand_case():
    from dks import Graph
    # vertex 0 is adjacent to the saturated vertex 2, vertex 1 is not,
    # so the half unit of mass on 1 migrates to 0
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    inst = ProblemInstance(graph=g, k=2, loading=1.0)
    x = round_to_integral(inst, np.array([0.5, 0.5, 1.0, 0.0]))
    assert x.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert quadratic_form(inst.graph, inst.loading, x) == pytest.approx(4.0)


def test_round_never_decreases_objective():
    rng = np.random.default_rng(31)
    for _ in range(300):
        g = random_graph(int(rng.integers(2, 30)), float(rng.uniform(0.1, 0.9)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x0 = random_feasible_point(g.n, k, rng)
        x1 = round_to_integral(inst, x0)
        assert is_integral(x1)
        assert is_feasible(x1, k, tol=0.0)
        assert int(x1.sum()) == k
        before = quadratic_form(inst.graph, inst.loading, x0)
        after = quadratic_form(inst.graph, inst.loading, x1)
        assert after >= before - 1e-9 * max(1.0, abs(before))


def test_round_strict_increase_above_loading_one():
    rng = np.random.default_rng(32)
    seen = 0
    while seen < 50:
        g = random_graph(int(rng.integers(4, 20)), float(rng.uniform(0.3, 0.7)), rng)
        k = int(rng.integers(2, g.n))
        inst = ProblemInstance(graph=g, k=k, loading=1.5)
        x0 = random_feasible_point(g.n, k, rng)
        frac = np.flatnonzero((x0 > 1e-9) & (x0 < 1 - 1e-9))
        if len(frac) < 2:
            continue
        x1 = round_to_integral(inst, x0)
        assert (quadratic_form(inst.graph, inst.loading, x1)
                > quadratic_form(inst.graph, inst.loading, x0))
        seen += 1


def test_round_preserves_integral_input(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    x0 = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert round_to_integral(inst, x0).tolist() == x0.tolist()


def test_round_rejects_small_loading(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=0.5)
    with pytest.raises(ValueError, match="loading"):
        round_to_integral(inst, np.array([0.7, 0.7, 0.6]))


def test_round_rejects_infeasible_point(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError, match="feasible"):
        round_to_integral(inst, np.array([0.9, 0.9, 0.9]))


def test_round_snaps_near_integral_noise(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    x0 = np.array([1.0 - 1e-12, 1e-12, 1.0, 1.0, 0.0, 0.0])
    x1 = round_to_integral(inst, x0)
    assert x1.tolist() == [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]


C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
EDGELESS4 = Graph.from_edges(4, [])
K33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])


@pytest.mark.parametrize("graph, k, loading, want", [
    (C6, 3, 1.0, [1, 0, 0, 0, 1, 1]),
    (C6, 3, 1.5, [1, 0, 0, 0, 1, 1]),
    (EDGELESS4, 2, 1.0, [1, 0, 1, 0]),
    (K33, 2, 1.0, [1, 0, 0, 1, 0, 0]),
], ids=["C6-1", "C6-1.5", "edgeless4", "K33"])
def test_round_uniform_point_tie_breaking(graph, k, loading, want):
    # these graphs are regular, so every score ties at the uniform point and
    # the lowest-index choices alone fix the rounded vertex set
    inst = ProblemInstance(graph=graph, k=k, loading=loading)
    x = round_to_integral(inst, uniform_point(graph.n, k))
    assert x.tolist() == want
