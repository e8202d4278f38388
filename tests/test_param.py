"""Sigmoid parameterization: mapping, analytic gradient, ascent driver."""

import os
import subprocess
import sys

import numpy as np
import pytest

from dks import (OptimizerConfig, ProblemInstance, SolverError, param_solve,
                 theta_to_x)
from dks.param import param_objective_and_gradient
from dks.linalg import quadratic_form

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


def test_param_solve_triangle(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    rep = param_solve(inst)
    assert rep.solver_name == "param"
    assert not rep.converged
    assert rep.iterations == 200
    assert len(rep.objective_trace) == 201
    assert rep.selection.normalized_density == 1.0
    assert rep.selection.objective_at_loading == pytest.approx(4.0)


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
    # a loading large enough to overflow the objective must be caught,
    # not silently propagated through the trace
    inst = ProblemInstance(graph=triangle, k=2, loading=1.6e308)
    with pytest.raises(SolverError, match="non-finite"):
        param_solve(inst)


def test_theta0_validation(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError):
        param_solve(inst, theta0=np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        param_solve(inst, theta0=np.array([np.inf, 0.0, 0.0]))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            OptimizerConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


def test_import_does_not_load_scipy_special():
    # scipy.special is imported on first use by the param solver only
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, dks, dks.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.strip() == "False"
