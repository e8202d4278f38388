"""Frank-Wolfe solver: step rules, ascent, stationarity certificate."""

import numpy as np
import pytest

from dks import (FwConfig, Graph, ProblemInstance, SolverError,
                 fw_multi_start, fw_solve)
from dks.fw import curvature, exact_step, finish_report, lmp_top_k
from dks.linalg import loaded_matvec, quadratic_form, spectral_norm
from dks.points import (indicator, is_feasible, random_feasible_point,
                        top_k_indices, uniform_point)
from dks.report import solve_with
from dks.rounding import fractional_indices

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


def test_fractional_indices(triangle):
    # a report's integral flag reads rounding's one integrality predicate
    inst = ProblemInstance(graph=triangle, k=2)
    for x, frac in (([1.0, 0.0, 1.0], []), ([1.0 - 1e-12, 1e-12, 1.0], []),
                    ([0.5, 0.5, 1.0], [0, 1])):
        x = np.array(x)
        assert fractional_indices(x).tolist() == frac
        rep = finish_report("probe", inst, 0.0, x, [0.0], None, 0, True)
        assert rep.integral == (not frac)


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


def test_trace_never_decreases_default_rule():
    rng = np.random.default_rng(10)
    for _ in range(25):
        g = random_graph(int(rng.integers(4, 30)), float(rng.uniform(0.2, 0.7)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([0.0, 0.5, 1.0, 1.5]))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x0 = random_feasible_point(g.n, k, rng)
        rep = fw_solve(inst, x0=x0)
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
    # one stop rule: converged exactly when the gap is within 1e-8 (1 + |f|)
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_graph(12, 0.4, rng)
        inst = ProblemInstance(graph=g, k=4, loading=1.5)
        rep = fw_solve(inst)
        tol = 1e-8 * (1.0 + abs(rep.objective_trace[-1]))
        assert rep.converged == (rep.fw_gap <= tol)


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


def test_budget_exhaustion_reported():
    # two triangles joined by the edge (2, 3): neither paper rule reaches a
    # stationary point from the uniform start in one step
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    inst = ProblemInstance(graph=g, k=3, loading=1.0)
    for rule in ("option1", "option2"):
        rep = fw_solve(inst, FwConfig(step_rule=rule, max_iters=1))
        assert rep.iterations == 1
        assert not rep.converged
        assert rep.fw_gap > 1e-8 * (1.0 + abs(rep.objective_trace[-1]))
        assert len(rep.objective_trace) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        FwConfig(step_rule="option3")
    with pytest.raises(ValueError):
        FwConfig(max_iters=0)


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


def random_cells(seed, count):
    """(graph, k, loading, feasible x) cells at the loadings the paper uses."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = random_graph(int(rng.integers(4, 40)), float(rng.uniform(0.1, 0.7)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([0.0, 0.5, 1.0, 1.5]))
        yield g, k, lam, random_feasible_point(g.n, k, rng), rng


def test_curvature_matches_direct_matvec():
    # d^T Q d from 2e(S) + loading*k - 2 s^T Qx + x^T Qx against a matvec of d,
    # for the top-k vertex of the gradient and for an arbitrary k-set
    for g, k, lam, x, rng in random_cells(21, 60):
        qx = loaded_matvec(g, lam, x)
        val = float(x @ qx)
        for top in (top_k_indices(qx, k), np.sort(rng.permutation(g.n)[:k])):
            d = indicator(top, g.n) - x
            direct = float(d @ loaded_matvec(g, lam, d))
            scale = 1.0 + abs(val) + 2.0 * g.m + lam * k
            assert curvature(g, lam, top, qx, val) == pytest.approx(
                direct, abs=1e-12 * scale), (g.n, k, lam)


def test_exact_step_never_below_option1_step():
    # from the same iterate, the exact step reaches at least the objective
    # that option1's gap / (L ||d||^2) reaches
    for g, k, lam, x, _ in random_cells(22, 60):
        lips = spectral_norm(g, lam).value
        qx = loaded_matvec(g, lam, x)
        val = float(x @ qx)
        top = top_k_indices(qx, k)
        d = indicator(top, g.n) - x
        gap = float(qx @ d)
        if gap <= 1e-12 or lips <= 0.0:
            continue
        exact = exact_step(gap, curvature(g, lam, top, qx, val))
        short = min(1.0, gap / (lips * float(d @ d)))
        f_exact = quadratic_form(g, lam, x + exact * d)
        f_short = quadratic_form(g, lam, x + short * d)
        assert f_exact >= f_short - 1e-9 * max(1.0, abs(f_short)), (g.n, k, lam)
        assert 0.0 < exact <= 1.0


def test_exact_step_rule():
    assert exact_step(2.0, 0.0) == 1.0
    assert exact_step(2.0, 3.0) == 1.0
    assert exact_step(2.0, -8.0) == 0.25
    assert exact_step(2.0, -1.0) == 1.0


def test_exact_is_the_default_rule(two_triangles):
    assert FwConfig().step_rule == "exact"
    rep = fw_solve(ProblemInstance(graph=two_triangles, k=3, loading=1.0))
    assert rep.solver_name == "fw-exact"


def test_option1_trace_never_decreases():
    for g, k, lam, x, _ in random_cells(23, 25):
        rep = fw_solve(ProblemInstance(graph=g, k=k, loading=lam),
                       FwConfig(step_rule="option1"), x0=x)
        tr = rep.objective_trace
        assert np.all(np.diff(tr) >= -1e-9 * max(1.0, float(np.abs(tr).max())))


def test_exact_rule_runs_no_eigensolve(eigensolves, two_triangles):
    rng = np.random.default_rng(24)
    for g in (two_triangles, random_graph(30, 0.3, rng)):
        inst = ProblemInstance(graph=g, k=3, loading=1.0)
        fw_solve(inst)
        solve_with("fw", inst)
        list(fw_multi_start(inst))
        assert eigensolves == []
    # the wrapper does see the Lipschitz estimate of the paper's rules
    fw_solve(inst, FwConfig(step_rule="option1"))
    assert len(eigensolves) == 1


def test_every_iterate_is_checked_against_the_polytope(monkeypatch, star5):
    # a step past 1 leaves the polytope; fw_solve must catch it with no flag
    # set (the uniform point is not stationary on a star, so a step is taken)
    import dks.fw

    monkeypatch.setattr(dks.fw, "exact_step", lambda gap, curv: 1.5)
    inst = ProblemInstance(graph=star5, k=2, loading=1.0)
    with pytest.raises(SolverError, match="left the feasible polytope"):
        fw_solve(inst)
