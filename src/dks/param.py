"""Sigmoid parameterization of the budgeted polytope and its ascent driver.

The free variables theta map to x_i = sigmoid(theta_i) scaled back onto
the budget set {x in [0,1]^n : sum x <= k} whenever the raw sigmoids
exceed the budget.  The objective pulled back to theta-space is smooth
except on the budget boundary, and its gradient is computable in
O(m + n) via the rank-1 structure of the normalization Jacobian.  A
self-contained adaptive-moment optimizer (Adam) drives the ascent;
defaults follow learning rate 3, 200 iterations, theta0 = 0.
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


def theta_to_x(theta, k: int) -> np.ndarray:
    """Map free variables onto the budget set: x = sigmoid(theta), rescaled.

    When the sigmoids sum to S <= k the map is the plain sigmoid;
    otherwise every coordinate is scaled by k/S.  Both branches agree on
    the boundary S = k, so the map is continuous everywhere.
    """
    # Imported on first use, so that `import dks` does not load scipy.special.
    from scipy.special import expit

    if k < 1:
        raise ValueError("k must be >= 1")
    sig = expit(np.asarray(theta, dtype=np.float64))
    total = float(sig.sum())
    if total <= k:
        return sig
    return k * sig / total


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
    from scipy.special import expit

    theta = np.asarray(theta, dtype=np.float64)
    g, k, lam = inst.graph, inst.k, inst.loading
    sig = expit(theta)
    slope = sig * (1.0 - sig)
    total = float(sig.sum())
    if total <= k:
        x = sig
        dfdx = 2.0 * loaded_matvec(g, lam, x)
        grad = dfdx * slope
    else:
        x = k * sig / total
        dfdx = 2.0 * loaded_matvec(g, lam, x)
        weighted = float(sig @ dfdx)
        grad = (k * slope / total**2) * (total * dfdx - weighted)
    value = 0.5 * float(x @ dfdx)
    return value, grad


def param_solve(inst: ProblemInstance, cfg: OptimizerConfig = None,
                theta0=None) -> SolveReport:
    """Adaptive-moment ascent on the parameterized objective.

    Runs for the full iteration budget.  With no gap certificate in
    theta-space and no convergence test, ``converged`` is always False.
    A non-finite value raises SolverError.  The final selection is the top-k
    projection of the final x, which also repairs any budget shortfall
    left by the <=k relaxation.
    """
    t_start = time.perf_counter()
    cfg = cfg or OptimizerConfig()
    g, k, lam = inst.graph, inst.k, inst.loading
    theta = np.zeros(g.n) if theta0 is None else np.asarray(theta0, dtype=np.float64).copy()
    if theta.shape != (g.n,):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 must be finite")

    m = np.zeros(g.n)
    v = np.zeros(g.n)
    trace = []
    for t in range(1, cfg.max_iters + 1):
        value, grad = param_objective_and_gradient(inst, theta)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            raise SolverError(
                f"non-finite objective or gradient at iteration {t} "
                "(learning rate too large?)")
        trace.append(value)
        # Minimize the negated objective.
        descent = -grad
        m = BETA1 * m + (1.0 - BETA1) * descent
        v = BETA2 * v + (1.0 - BETA2) * descent * descent
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        theta = theta - cfg.learning_rate * (m_hat / (np.sqrt(v_hat) + EPSILON))

    x = theta_to_x(theta, k)
    final_value, _ = param_objective_and_gradient(inst, theta)
    if not np.isfinite(final_value):
        raise SolverError("non-finite objective after the final update "
                          "(learning rate too large?)")
    trace.append(final_value)
    return SolveReport(
        solver_name="param",
        objective_trace=np.asarray(trace),
        iterations=cfg.max_iters,
        converged=False,
        integral=is_integral(x) and is_feasible(x, k, tol=1e-9),
        final_point=x,
        selection=project_top_k(g, x, k, lam),
        wall_time_s=time.perf_counter() - t_start,
    )
