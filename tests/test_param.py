"""Sigmoid parameterization: mapping, analytic gradient, ascent driver."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dks import (Graph, OptimizerConfig, ProblemInstance, SolverError, param_solve,
                 theta_to_x)
import dks.param
from dks.param import (BETA1, BETA2, EPSILON, LEARNING_RATE, SETTLE_ITERS,
                       param_objective_and_gradient)
from dks.linalg import quadratic_form
from dks.points import top_k_indices

from conftest import random_graph


def test_theta_to_x_saturated_low():
    x = theta_to_x(np.full(5, -50.0), 3)
    assert np.all(x < 1e-20)


def test_theta_to_x_boundary_case():
    # n=2, k=1, theta=0: the sigmoids sum to exactly k, branches agree
    x = theta_to_x(np.zeros(2), 1)
    assert x == pytest.approx([0.5, 0.5])


def test_theta_to_x_normalized_branch():
    x = theta_to_x(np.zeros(3), 1)
    assert x == pytest.approx([1.0 / 3.0] * 3)


def test_theta_to_x_range_property():
    rng = np.random.default_rng(20)
    for _ in range(10000 // 25):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        theta = rng.standard_normal(n) * 4.0
        x = theta_to_x(theta, k)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert x.sum() <= k + 1e-9


def test_theta_to_x_continuity_at_boundary():
    # construct thetas whose sigmoids sum to k exactly; both branch
    # formulas coincide there (the normalizing denominator is 1)
    for n, k in [(4, 2), (6, 3)]:
        theta = np.zeros(n)
        sig = 1.0 / (1.0 + np.exp(-theta))
        assert sig.sum() == pytest.approx(k)
        plain = sig
        scaled = k * sig / sig.sum()
        assert plain == pytest.approx(scaled, abs=1e-15)


def test_gradient_hand_case(triangle):
    # K3, k=2, lambda=1, theta=0: plain branch, grad = 3 * 0.25 each
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    value, grad = param_objective_and_gradient(inst, np.zeros(3))
    assert value == pytest.approx(
        quadratic_form(inst.graph, inst.loading, np.full(3, 0.5)))
    assert grad == pytest.approx([0.75, 0.75, 0.75])


def test_gradient_zero_on_independent_set_support(edgeless4):
    # loading 0 on an edgeless graph: objective identically 0
    inst = ProblemInstance(graph=edgeless4, k=4, loading=0.0)
    value, grad = param_objective_and_gradient(inst, np.full(4, -3.0))
    assert value == pytest.approx(0.0)
    assert grad == pytest.approx(np.zeros(4), abs=1e-12)


def _fd_gradient(inst, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy(); up[i] += h
        dn = theta.copy(); dn[i] -= h
        fu, _ = param_objective_and_gradient(inst, up)
        fd, _ = param_objective_and_gradient(inst, dn)
        grad[i] = (fu - fd) / (2.0 * h)
    return grad


def test_gradient_matches_finite_differences_both_branches():
    rng = np.random.default_rng(21)
    plain = normalized = 0
    while plain < 10 or normalized < 10:
        g = random_graph(int(rng.integers(3, 20)), float(rng.uniform(0.2, 0.8)), rng)
        theta = rng.standard_normal(g.n) * 2.0
        sig_sum = float((1.0 / (1.0 + np.exp(-theta))).sum())
        k = int(rng.integers(1, g.n + 1))
        # stay away from the nondifferentiable boundary S = k
        if abs(sig_sum - k) < 0.05:
            continue
        branch = "plain" if sig_sum < k else "normalized"
        inst = ProblemInstance(graph=g, k=k, loading=float(rng.uniform(0.0, 2.0)))
        _, grad = param_objective_and_gradient(inst, theta)
        fd = _fd_gradient(inst, theta)
        err = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        assert err <= 1e-5, f"{branch} branch gradient off by {err}"
        if branch == "plain":
            plain += 1
        else:
            normalized += 1


@pytest.fixture
def fixed_run(monkeypatch):
    """Turn the settle rule off, so param runs all of max_iters as the paper does."""
    monkeypatch.setattr(dks.param, "SETTLE_ITERS", 10**9)


def test_param_solve_triangle(triangle, fixed_run):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    rep = param_solve(inst)
    assert rep.solver_name == "param"
    assert not rep.converged
    assert rep.iterations == 200
    assert len(rep.objective_trace) == 201
    assert rep.selection.normalized_density == 1.0
    assert rep.selection.objective_at_loading == pytest.approx(4.0)


def test_param_solve_triangle_settles(triangle):
    # By symmetry x stays uniform, so the top-k set is {0, 1} at every
    # evaluation: the run stops at evaluation SETTLE_ITERS, before its update.
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    rep = param_solve(inst)
    assert not rep.converged
    assert rep.iterations == SETTLE_ITERS - 1
    assert len(rep.objective_trace) == SETTLE_ITERS
    assert rep.selection.normalized_density == 1.0
    assert rep.selection.objective_at_loading == pytest.approx(4.0)


def _planted_clique(n, p, size, rng):
    """G(n, p) with a clique on ``size`` random vertices, and those vertices."""
    clique = rng.choice(n, size, replace=False)
    base = random_graph(n, p, rng)
    rows, cols = base.matrix.nonzero()
    pairs = [(a, b) for a in clique for b in clique if a < b]
    return Graph.from_edges(n, np.concatenate([np.column_stack([rows, cols]), pairs])), clique


def test_param_settle_rule_stops_a_prefix_of_the_fixed_run(monkeypatch):
    # A settled run is the fixed run cut short: its trace is a prefix, bit
    # for bit, its point is the fixed run's point after as many updates,
    # and it stops at the first evaluation where the top-k set of x has been
    # the same SETTLE_ITERS times in a row.
    rng = np.random.default_rng(27)
    g, clique = _planted_clique(300, 0.03, 20, rng)
    inst = ProblemInstance(graph=g, k=20, loading=1.0)
    rep = param_solve(inst)
    monkeypatch.setattr(dks.param, "SETTLE_ITERS", 10**9)
    full = param_solve(inst)
    t = rep.iterations
    assert SETTLE_ITERS <= t < full.iterations == 200
    assert len(rep.objective_trace) == t + 1
    assert not rep.converged
    assert rep.objective_trace.tolist() == full.objective_trace[:t + 1].tolist()
    assert rep.selection.normalized_density == 1.0
    assert rep.selection.objective_at_loading == full.selection.objective_at_loading

    def point_after(updates):
        if updates == 0:
            return theta_to_x(np.zeros(g.n), inst.k)
        return param_solve(inst, OptimizerConfig(max_iters=updates)).final_point

    assert np.array_equal(rep.final_point, point_after(t))
    settled = top_k_indices(rep.final_point, inst.k)
    assert settled.tolist() == sorted(clique.tolist())
    for updates in range(t - SETTLE_ITERS + 1, t):
        assert np.array_equal(top_k_indices(point_after(updates), inst.k), settled)
    assert not np.array_equal(top_k_indices(point_after(t - SETTLE_ITERS), inst.k), settled)


def test_param_solve_two_triangles(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    rep = param_solve(inst)
    assert rep.selection.normalized_density == 1.0
    assert rep.selection.objective_at_loading == pytest.approx(9.0)


def test_param_solve_edgeless_full_budget(edgeless4):
    # with k=n the objective loading*||x||^2 pushes every sigmoid to 1
    inst = ProblemInstance(graph=edgeless4, k=4, loading=1.0)
    rep = param_solve(inst)
    assert rep.objective_trace[-1] == pytest.approx(4.0, abs=1e-3)


def test_windowed_trend_on_moderate_graphs():
    # adaptive-moment ascent is not monotone step to step, but over
    # 20-iteration windows the trace should not lose ground on graphs
    # large enough that the landscape is not dominated by symmetry
    rng = np.random.default_rng(22)
    for _ in range(4):
        n = int(rng.integers(60, 200))
        g = random_graph(n, float(rng.uniform(0.05, 0.3)), rng)
        k = int(rng.integers(5, n // 4))
        rep = param_solve(ProblemInstance(graph=g, k=k, loading=1.0))
        tr = rep.objective_trace
        scale = max(1.0, float(np.abs(tr).max()))
        lag = 20
        assert np.all(tr[lag:] - tr[:-lag] >= -1e-5 * scale)


def test_param_solve_respects_custom_config(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    rep = param_solve(inst, OptimizerConfig(max_iters=10))
    assert rep.iterations == 10
    assert len(rep.objective_trace) == 11


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_param_solve_nonfinite_aborts(triangle):
    # at 1e300 the objective fits (the instance accepts it), but Adam's
    # squared gradient overflows: caught, not silently propagated
    inst = ProblemInstance(graph=triangle, k=2, loading=1e300)
    with pytest.raises(SolverError, match="non-finite"):
        param_solve(inst)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


def _reference_param_solve(inst, cfg):
    """The Adam loop written with a fresh array per operation, in the solver's order."""
    g, k, lam = inst.graph, inst.k, inst.loading
    theta, m, v, trace = np.zeros(g.n), np.zeros(g.n), np.zeros(g.n), []
    for t in range(1, cfg.max_iters + 1):
        sig = theta_to_x(theta, g.n)  # the bare sigmoid
        slope = sig * (1.0 - sig)
        total = float(sig.sum())
        x = sig if total <= k else k * sig / total
        dfdx = 2.0 * (g.matrix.dot(x) + lam * x)
        if total <= k:
            grad = dfdx * slope
        else:
            grad = (k * slope / total**2) * (total * dfdx - float(sig @ dfdx))
        trace.append(0.5 * float(x @ dfdx))
        descent = -grad
        m = BETA1 * m + (1.0 - BETA1) * descent
        v = BETA2 * v + (1.0 - BETA2) * descent * descent
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        theta = theta - LEARNING_RATE * (m_hat / (np.sqrt(v_hat) + EPSILON))
    return trace, theta_to_x(theta, k)


def test_param_solve_matches_allocating_reference(fixed_run):
    # In-place updates in the same order give bit-identical results, on
    # both branches of the budget map.
    rng = np.random.default_rng(25)
    cfg = OptimizerConfig(max_iters=40)
    for n, k in [(150, 5), (150, 120), (400, 30)]:
        inst = ProblemInstance(graph=random_graph(n, 0.05, rng), k=k, loading=1.0)
        rep = param_solve(inst, cfg)
        trace, x = _reference_param_solve(inst, cfg)
        assert rep.objective_trace[:-1].tolist() == trace
        assert np.array_equal(rep.final_point, x)


@pytest.mark.filterwarnings("error")
def test_param_solve_overflow_is_a_solver_failure(fixed_run):
    # At a huge loading Adam's squared gradient is not a finite float, and
    # theta would stop moving: the run fails as a SolverError, with no
    # RuntimeWarning.  Every loading below that keeps its result bit for bit.
    rng = np.random.default_rng(26)
    cfg = OptimizerConfig(max_iters=30)
    g4 = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    g150 = random_graph(150, 0.05, rng)
    for g, k in [(g4, 2), (g150, 5), (g150, 120)]:
        for loading in (0.0, 1.0, 1e100, 1e150, 1e154):
            inst = ProblemInstance(graph=g, k=k, loading=loading)
            rep = param_solve(inst, cfg)
            trace, x = _reference_param_solve(inst, cfg)
            assert rep.objective_trace[:-1].tolist() == trace
            assert np.array_equal(rep.final_point, x)
        for loading in (1e200, 1e300):
            with pytest.raises(SolverError, match="overflow"):
                param_solve(ProblemInstance(graph=g, k=k, loading=loading), cfg)


def test_sigmoid_matches_expit():
    # The sigmoid is numpy's own; scipy's expit is the reference here only.
    expit = pytest.importorskip("scipy.special").expit
    rng = np.random.default_rng(23)
    theta = np.concatenate([
        rng.standard_normal(20000) * 30.0, rng.uniform(-800.0, 800.0, 20000),
        np.linspace(-750.0, 750.0, 30001),
        [0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        # k = n keeps the plain branch, so this is the bare sigmoid
        got = theta_to_x(theta, len(theta))
    want = expit(theta)
    normal = want >= np.finfo(np.float64).tiny
    assert np.all(np.abs(got - want)[normal] <= 4 * np.spacing(want[normal]))
    assert np.all(np.abs(got - want)[~normal] <= 1e-307)
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_param_solve_works_in_fixed_buffers():
    # The Adam loop works in preallocated n-vectors; each iteration adds only
    # the gradient and the mat-vec's temporaries.  A loop that builds every
    # step from fresh temporaries (the reference above) peaks at about 15.
    rng = np.random.default_rng(24)
    n = 10_000
    g = Graph.from_edges(n, rng.integers(0, n, size=(50_000, 2)))
    inst = ProblemInstance(graph=g, k=50, loading=1.0)
    cfg = OptimizerConfig(max_iters=5)
    param_solve(inst, cfg)  # first calls may cache allocations
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        param_solve(inst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (8 * n) <= 9


def test_import_does_not_load_scipy_special():
    # Nothing in dks needs scipy.special: not the import, nor the param
    # solver's sigmoid, nor a sweep that runs it.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "; ".join([
        "import sys, numpy as np, dks, dks.cli",
        "from dks.report import run_sweep",
        "dks.theta_to_x(np.zeros(4), 2)",
        "g = dks.Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])",
        "dks.param_solve(dks.ProblemInstance(graph=g, k=2), dks.OptimizerConfig(max_iters=3))",
        "run_sweep(g, 1.0, [3], ['param'])",
        "print('scipy.special' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.strip() == "False"
