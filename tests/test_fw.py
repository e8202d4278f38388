"""Frank-Wolfe solver: step rules, ascent, stationarity certificate."""

import numpy as np
import pytest

from dks import (FwConfig, ProblemInstance, SolverError, fw_multi_start,
                 fw_solve)
from dks.fw import is_integral, lmp_top_k
from dks.linalg import quadratic_form
from dks.points import is_feasible, random_feasible_point, uniform_point

from conftest import random_graph


def test_objective_examples(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    assert quadratic_form(inst.graph, inst.loading, [1.0, 1.0, 0.0]) == 4.0
    assert (quadratic_form(inst.graph, inst.loading, np.full(3, 2.0 / 3.0))
            == pytest.approx(4.0))


def test_lmp_top_k_is_indicator():
    s = lmp_top_k(np.array([0.5, 2.0, 1.0, 2.0]), 2)
    assert s.tolist() == [0.0, 1.0, 0.0, 1.0]
    # tie at the threshold value goes to the lowest index
    s = lmp_top_k(np.array([1.0, 1.0, 1.0]), 2)
    assert s.tolist() == [1.0, 1.0, 0.0]


def test_is_integral():
    assert is_integral([1.0, 0.0, 1.0])
    assert is_integral([1.0 - 1e-12, 1e-12, 1.0])
    assert not is_integral([0.5, 0.5, 1.0])


def test_triangle_k2_reaches_optimum(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    rep = fw_solve(inst)
    assert rep.converged
    assert rep.selection.objective_at_loading == pytest.approx(4.0)
    assert rep.selection.normalized_density == 1.0
    assert rep.selection.k == 2


def test_two_triangles_k3(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    rep = fw_solve(inst)
    assert rep.selection.objective_at_loading == pytest.approx(9.0)
    assert rep.selection.vertices.tolist() in ([0, 1, 2], [3, 4, 5])
    assert rep.selection.normalized_density == 1.0


def test_trace_never_decreases_option1():
    rng = np.random.default_rng(10)
    for _ in range(25):
        g = random_graph(int(rng.integers(4, 30)), float(rng.uniform(0.2, 0.7)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([0.0, 0.5, 1.0, 1.5]))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x0 = random_feasible_point(g.n, k, rng)
        rep = fw_solve(inst, x0=x0, validate_iterates=True)
        tr = rep.objective_trace
        scale = max(1.0, float(np.abs(tr).max()))
        assert np.all(np.diff(tr) >= -1e-9 * scale)
        assert rep.fw_gap >= 0.0


def test_option2_also_solves(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    rep = fw_solve(inst, FwConfig(step_rule="option2"))
    assert rep.solver_name == "fw-option2"
    assert rep.selection.objective_at_loading == pytest.approx(9.0)


def test_gap_certificate_on_convergence():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_graph(12, 0.4, rng)
        inst = ProblemInstance(graph=g, k=4, loading=1.5)
        rep = fw_solve(inst, FwConfig(gap_tol=1e-7))
        if rep.converged:
            assert rep.fw_gap <= 1e-7


def test_vertex_start_stops_immediately(two_triangles):
    # an optimal 0/1 point is a fixed point of the top-k linear map
    x0 = np.zeros(6)
    x0[[0, 1, 2]] = 1.0
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    rep = fw_solve(inst, x0=x0)
    assert rep.iterations == 0
    assert rep.converged
    assert rep.integral


def test_infeasible_x0_rejected(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError):
        fw_solve(inst, x0=np.array([1.0, 1.0, 1.0]))


def test_budget_exhaustion_reported(k5):
    inst = ProblemInstance(graph=k5, k=2, loading=1.0)
    rep = fw_solve(inst, FwConfig(max_iters=1, gap_tol=0.0),
                   x0=random_feasible_point(5, 2, np.random.default_rng(0)))
    assert rep.iterations <= 1
    if not rep.converged:
        assert rep.fw_gap > 0.0
    assert len(rep.objective_trace) == rep.iterations + 1


def test_config_validation():
    with pytest.raises(ValueError):
        FwConfig(step_rule="option3")
    with pytest.raises(ValueError):
        FwConfig(max_iters=0)
    with pytest.raises(ValueError):
        FwConfig(gap_tol=-1.0)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FwConfig(gap_tol=tol)


def test_lipschitz_override_matches_default(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    a = fw_solve(inst)
    b = fw_solve(inst, lipschitz=3.0)  # exact ||A + I||_2 for a triangle component
    assert a.selection.vertices.tolist() == b.selection.vertices.tolist()
    assert a.objective_trace == pytest.approx(b.objective_trace)


def test_multi_start_yields_n_plus_one_runs(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    reports = list(fw_multi_start(inst))
    assert len(reports) == 4
    best = max(r.selection.objective_at_loading for r in reports)
    assert best == pytest.approx(4.0)


def test_multi_start_breaks_symmetric_stall(two_triangles):
    # the uniform point is first-order stationary here; perturbed starts
    # must still locate an optimal triangle
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    reports = list(fw_multi_start(inst))
    values = [r.selection.objective_at_loading for r in reports]
    assert max(values) == pytest.approx(9.0)


def test_final_point_always_feasible():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(int(rng.integers(3, 20)), float(rng.uniform(0.2, 0.8)), rng)
        k = int(rng.integers(1, g.n + 1))
        rep = fw_solve(ProblemInstance(graph=g, k=k, loading=1.0))
        assert is_feasible(rep.final_point, k, tol=1e-8)
        assert len(rep.selection.vertices) == k


def test_uniform_start_used_by_default(star5):
    inst = ProblemInstance(graph=star5, k=2, loading=1.0)
    rep = fw_solve(inst, FwConfig(max_iters=1))
    assert rep.objective_trace[0] == pytest.approx(
        quadratic_form(inst.graph, inst.loading, uniform_point(5, 2)))
