"""Sigmoid parameterization of the budgeted polytope and its ascent driver.

The free variables theta map to x_i = sigmoid(theta_i) scaled back onto
the budget set {x in [0,1]^n : sum x <= k} whenever the raw sigmoids
exceed the budget.  The objective pulled back to theta-space is smooth
except on the budget boundary, and its gradient is computable in
O(m + n) via the rank-1 structure of the normalization Jacobian.  A
self-contained adaptive-moment optimizer (Adam) drives the ascent;
defaults follow learning rate 3, 200 iterations, and θ starts at 0.

The sigmoid is numpy's, computed in a form that cannot overflow; it
agrees with scipy's ``expit`` to a few ulp, so the module needs nothing
from scipy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import ProblemInstance
from .fw import SolveReport, SolverError, is_integral
from .linalg import loaded_matvec
from .points import is_feasible
from .rounding import project_top_k


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerConfig:
    """Adaptive-moment (Adam) ascent settings."""

    learning_rate: float = 3.0
    max_iters: int = 200

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def _sigmoid(theta: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write 1/(1 + e^-theta) into ``out`` as e^min(theta,0) / (1 + e^-|theta|).

    No exponent is positive, so nothing overflows: a very negative theta
    underflows to 0 instead.  ``scratch`` is an n-vector it may overwrite.
    """
    np.minimum(theta, 0.0, out=out)
    np.exp(out, out=out)
    np.abs(theta, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    scratch += 1.0
    out /= scratch
    return out


def _scale_to_budget(sig: np.ndarray, k: int, out: np.ndarray):
    """The sigmoids' sum S and the point: ``sig`` itself if S <= k, else k*sig/S in ``out``."""
    total = float(sig.sum())
    if total <= k:
        return total, sig
    np.multiply(sig, k, out=out)
    out /= total
    return total, out


def theta_to_x(theta, k: int) -> np.ndarray:
    """Map free variables onto the budget set: x = sigmoid(theta), rescaled.

    When the sigmoids sum to S <= k the map is the plain sigmoid;
    otherwise every coordinate is scaled by k/S.  Both branches agree on
    the boundary S = k, so the map is continuous everywhere.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    theta = np.asarray(theta, dtype=np.float64)
    sig = _sigmoid(theta, np.empty_like(theta), np.empty_like(theta))
    return _scale_to_budget(sig, k, sig)[1]


def param_objective_and_gradient(inst: ProblemInstance, theta):
    """Objective at theta_to_x(theta) and its analytic theta-gradient.

    Plain branch (S <= k): grad_j = (df/dx_j) * sig_j * (1 - sig_j).
    Normalized branch (S > k): the Jacobian is diagonal plus rank-1, so
    the chain rule collapses to
        grad_j = (k * sig_j * (1-sig_j) / S^2) * (S * df/dx_j - sum_l sig_l * df/dx_l),
    computed with two dot products — no n x n Jacobian is formed.  On the
    boundary S = k exactly, the plain-branch formula is the chosen
    subgradient.
    """
    theta = np.asarray(theta, dtype=np.float64)
    value, grad, _ = _objective_and_gradient(
        inst, theta, *(np.empty_like(theta) for _ in range(3)))
    return value, grad


def _objective_and_gradient(inst: ProblemInstance, theta, sig, slope, x):
    """``param_objective_and_gradient`` worked in the n-vectors ``sig``, ``slope``, ``x``.

    Returns the value, the gradient (a new n-vector) and the point
    theta_to_x(theta), which is ``sig`` or ``x``.  ``slope`` is left
    overwritten.
    """
    g, k, lam = inst.graph, inst.k, inst.loading
    _sigmoid(theta, out=sig, scratch=slope)
    np.subtract(1.0, sig, out=slope)
    slope *= sig
    total, point = _scale_to_budget(sig, k, x)
    grad = loaded_matvec(g, lam, point)
    grad *= 2.0  # df/dx
    value = 0.5 * float(point @ grad)
    if point is sig:
        grad *= slope
    else:
        weighted = float(sig @ grad)
        slope *= k
        slope /= total**2
        grad *= total
        grad -= weighted
        grad *= slope
    return value, grad, point


def param_solve(inst: ProblemInstance, cfg: OptimizerConfig = None) -> SolveReport:
    """Adaptive-moment ascent on the parameterized objective.

    Runs for the full iteration budget.  With no gap certificate in
    theta-space and no convergence test, ``converged`` is always False.
    A non-finite value or an overflow (Adam's squared gradient, at a huge
    loading) raises SolverError.  The final selection is the top-k
    projection of the final x, which also repairs any budget shortfall
    left by the <=k relaxation.
    """
    t_start = time.perf_counter()
    cfg = cfg or OptimizerConfig()
    try:
        with np.errstate(over="raise"):
            trace, x = _adam_ascent(inst, cfg)
    except FloatingPointError:
        raise SolverError(f"non-finite value: overflow at loading {inst.loading}"
                          " (loading too large?)") from None
    return SolveReport(
        solver_name="param",
        objective_trace=np.asarray(trace),
        iterations=cfg.max_iters,
        converged=False,
        integral=is_integral(x) and is_feasible(x, inst.k),
        final_point=x,
        selection=project_top_k(inst.graph, x, inst.k, inst.loading),
        wall_time_s=time.perf_counter() - t_start,
    )


def _adam_ascent(inst: ProblemInstance, cfg: OptimizerConfig):
    """The objective trace and the final x of ``param_solve``'s Adam loop.

    The loop works in six n-vectors allocated once: theta, Adam's two
    moments, and three that hold the objective's intermediates and then
    serve as the update's scratch.  Each iteration allocates only the
    gradient and the mat-vec's own temporaries, and drops the gradient
    before the next mat-vec, so the loop peaks at about 8 n-vectors; all
    but x are freed on return, before the selection's own temporaries.
    """
    g = inst.graph
    theta = np.zeros(g.n)
    m = np.zeros(g.n)
    v = np.zeros(g.n)
    sig, slope, x = (np.empty(g.n) for _ in range(3))
    trace = []
    for t in range(1, cfg.max_iters + 1):
        value, grad, _ = _objective_and_gradient(inst, theta, sig, slope, x)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            raise SolverError(
                f"non-finite objective or gradient at iteration {t} "
                "(learning rate too large?)")
        trace.append(value)
        # Minimize the negated objective.
        descent = np.negative(grad, out=grad)
        # m = BETA1*m + (1-BETA1)*descent and v = BETA2*v + (1-BETA2)*descent^2
        m *= BETA1
        m += np.multiply(descent, 1.0 - BETA1, out=slope)
        v *= BETA2
        square = np.multiply(descent, 1.0 - BETA2, out=slope)
        square *= descent
        v += square
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), with the bias-corrected moments
        m_hat = np.divide(m, 1.0 - BETA1**t, out=x)
        v_hat = np.divide(v, 1.0 - BETA2**t, out=slope)
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPSILON
        step = np.divide(m_hat, v_hat, out=x)
        step *= cfg.learning_rate
        theta -= step
        del grad, descent  # so the next mat-vec runs without the old gradient

    final_value, _, x = _objective_and_gradient(inst, theta, sig, slope, x)
    if not np.isfinite(final_value):
        raise SolverError("non-finite objective after the final update "
                          "(learning rate too large?)")
    trace.append(final_value)
    return trace, x
