"""Frank-Wolfe solver for the relaxed densest-k-subgraph problem.

Maximizes x^T(A + loading*I)x over the polytope {x in [0,1]^n : sum x = k}.
The linear maximization step is a top-k selection on the gradient, so one
iteration costs O(m + n).  Three step-size rules are provided:

- "exact" (the default): the exact line search on the segment from x to
  the top-k vertex s.  The objective along it is a quadratic in the step,
  and its curvature d^T Q d (Q = A + loading*I, d = s - x) comes from
  quantities already in hand, so the rule needs no Lipschitz constant and
  no eigensolve.
- "option1": the short step gap / (L ||d||^2), with L = ||Q||_2 read from
  ``spectral_norm`` inside ``fw_solve``; monotone ascent, as in the paper.
- "option2": the fixed-upper-bound step gap / (2kL), as in the paper.

The exact step never ends below the point option1's step reaches from the
same iterate, since option1 maximizes a lower bound of the same quadratic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import ProblemInstance, induced_edge_count
from .linalg import loaded_matvec, spectral_norm
from .points import (indicator, is_feasible, project_capped_simplex,
                     top_k_indices, uniform_point)
from .rounding import VertexSelection, fractional_indices, project_top_k

STEP_RULES = ("exact", "option1", "option2")

# How far fw_multi_start pushes the uniform point toward each vertex.
MULTI_START_PERTURBATION = 0.5


class SolverError(RuntimeError):
    """A solver detected an internal inconsistency or diverged."""


@dataclass
class FwConfig:
    """Knobs for fw_solve.

    ``step_rule`` is one of STEP_RULES.  The default "exact" line search
    reads no Lipschitz constant; "option1" and "option2" are the paper's
    rules and need ||A + loading*I||_2, which costs each ``fw_solve`` one
    Perron eigensolve.  ``max_iters`` is the step budget.
    """

    step_rule: str = "exact"
    max_iters: int = 1000

    def __post_init__(self):
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    """What a solve run produced, for reporting and comparison."""

    solver_name: str
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    integral: bool
    final_point: np.ndarray
    selection: VertexSelection
    wall_time_s: float
    fw_gap: float


def finish_report(solver_name: str, inst: ProblemInstance, t_start: float, x,
                  trace, selection: VertexSelection, iterations: int,
                  converged: bool, fw_gap: float = float("nan")) -> SolveReport:
    """The report of a run started at ``t_start`` (``time.perf_counter``) that
    ended at the point x with ``selection``: ``integral`` is whether x is a 0/1
    point of the polytope, and the wall time ends now.  NaN is "no FW gap"."""
    return SolveReport(
        solver_name=solver_name, objective_trace=np.asarray(trace),
        iterations=iterations, converged=converged,
        integral=is_feasible(x, inst.k) and not len(fractional_indices(x)),
        final_point=x, selection=selection,
        wall_time_s=time.perf_counter() - t_start, fw_gap=fw_gap)


def lmp_top_k(gradient, k: int) -> np.ndarray:
    """Maximize the linearized objective over the polytope: a 0/1 top-k vertex."""
    gradient = np.asarray(gradient, dtype=np.float64)
    return indicator(top_k_indices(gradient, k), len(gradient))


def curvature(g, loading: float, top, qx, val: float) -> float:
    """d^T Q d for d = 1_S - x, where S = ``top``, qx = Qx and val = x^T Q x.

    d^T Q d = s^T Q s - 2 s^T Q x + x^T Q x, and s^T Q s = 2 e(S) + loading*|S|,
    so the cost is one O(vol S) edge count plus a k-term sum.
    """
    sqs = 2.0 * induced_edge_count(g, top) + loading * len(top)
    return sqs - 2.0 * float(qx[top].sum()) + val


def exact_step(gap: float, curv: float) -> float:
    """The step in [0, 1] maximizing val + 2*gamma*gap + gamma^2*curv (gap > 0)."""
    if curv >= 0.0:
        return 1.0
    return min(1.0, gap / -curv)


def fw_solve(inst: ProblemInstance, cfg: FwConfig = None, x0=None) -> SolveReport:
    """Run Frank-Wolfe from x0 (default: the uniform point k/n).

    Stops when the Frank-Wolfe gap grad.(s - x) is at most
    1e-8 * (1 + |objective|), a first-order stationarity certificate (a
    vertex whose top-k map returns itself stops at once), or when the
    iteration budget runs out.  The reported selection is always the
    top-k projection of the final point, integral or not.  The "option1"
    and "option2" rules read L = ||A + loading*I||_2 = theta1 + loading
    from ``spectral_norm``; the "exact" rule reads no L and runs no
    eigensolve.  An iterate outside the polytope raises SolverError.
    """
    t_start = time.perf_counter()
    cfg = cfg or FwConfig()
    g, k, lam = inst.graph, inst.k, inst.loading
    if x0 is None:
        x = uniform_point(g.n, k)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        if not is_feasible(x, k):
            raise ValueError("x0 is not feasible for the box-and-sum polytope")

    exact = cfg.step_rule == "exact"
    lips = None if exact else spectral_norm(g, lam).value
    trace = []
    iterations = 0
    converged = False
    gap = float("nan")

    for t in range(cfg.max_iters + 1):
        grad = loaded_matvec(g, lam, x)
        val = float(x @ grad)
        trace.append(val)
        top = top_k_indices(grad, k)
        s = indicator(top, g.n)
        d = s - x
        gap = float(grad @ d)
        if gap < -1e-9 * (1.0 + abs(val)):
            raise SolverError(f"negative FW gap {gap}: top-k LMP is inconsistent")
        gap = max(gap, 0.0)
        if gap <= 1e-8 * (1.0 + abs(val)):
            converged = True
            break
        if t == cfg.max_iters:
            break
        if exact:
            gamma = exact_step(gap, curvature(g, lam, top, grad, val))
        elif lips <= 0.0:
            raise SolverError("nonpositive Lipschitz estimate with nonzero gradient")
        elif cfg.step_rule == "option1":
            gamma = min(1.0, gap / (lips * float(d @ d)))
        else:
            gamma = min(1.0, gap / (2.0 * k * lips))
        x = x + gamma * d
        iterations += 1
        if not is_feasible(x, k):
            raise SolverError(f"iterate {iterations} left the feasible polytope")

    return finish_report(f"fw-{cfg.step_rule}", inst, t_start, x, trace,
                         project_top_k(g, x, k, lam), iterations, converged, gap)


def fw_multi_start(inst: ProblemInstance, cfg: FwConfig = None):
    """Default start plus one start nudged toward each vertex.

    Yields the SolveReport of the uniform start followed by n runs whose
    starts are the projection of uniform + MULTI_START_PERTURBATION * e_j
    back onto the polytope.  Useful on symmetric instances where the
    uniform point is already first-order stationary.
    """
    g, k = inst.graph, inst.k
    yield fw_solve(inst, cfg)
    base = uniform_point(g.n, k)
    for j in range(g.n):
        bumped = base.copy()
        bumped[j] += MULTI_START_PERTURBATION
        yield fw_solve(inst, cfg, x0=project_capped_simplex(bumped, k))
