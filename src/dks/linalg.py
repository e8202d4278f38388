"""Sparse linear-algebra kernels for the loaded quadratic objective.

Everything here runs in O(m + n) per pass over the graph: the loaded
mat-vec (A + loading*I)x, the quadratic form x^T(A + loading*I)x, and
power-iteration estimates of the spectral quantities the solvers and the
density bound need.  One iteration finds the Perron pair (theta1, u1) of
A; the spectral norm of A + loading*I is read off it, and a second,
deflated iteration gives the second singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, check_loading

# Eigensolve settings of the density-bound certificate, much tighter than a
# step rule's (spectral_norm's), and the defaults of leading_eigenpair and
# top_two_singular_values: a sweep's shared triple and rank1's own solve
# agree bit for bit, so the triple is a pure cache.
CERT_TOL = 1e-12
CERT_MAX_ITERS = 20000
# The option1/option2 step rules' settings: enough for a step size.
STEP_TOL = 1e-6
STEP_MAX_ITERS = 1000


def loaded_matvec(g: Graph, loading: float, x: np.ndarray) -> np.ndarray:
    """Compute (A + loading*I) x in one pass over the adjacency.

    This is also the half-gradient of the quadratic objective: the true
    gradient of x^T(A + loading*I)x is twice this vector.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({g.n},)")
    y = g.matrix.dot(x)
    y += loading * x
    return y


def quadratic_form(g: Graph, loading: float, x: np.ndarray) -> float:
    """The objective x^T A x + loading*||x||^2 (each edge counted twice)."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ loaded_matvec(g, loading, x))


@dataclass
class PowerResult:
    """Outcome of a power-iteration estimate.

    ``value`` is the spectral estimate, ``vector`` the final unit iterate,
    ``converged`` whether the eigen-residual fell within tolerance.
    An unconverged result is still the best available estimate, not an
    error (callers use it as a step-size safeguard).
    """

    value: float
    vector: np.ndarray
    converged: bool


def _unit_start(n: int, seed: int, positive: bool) -> np.ndarray:
    """A seeded random unit vector; positive ones overlap every Perron vector."""
    rng = np.random.default_rng(seed)
    x = rng.random(n) if positive else rng.standard_normal(n)
    return x / float(np.linalg.norm(x))


def leading_eigenpair(g: Graph, tol: float = CERT_TOL,
                      max_iters: int = CERT_MAX_ITERS) -> PowerResult:
    """Leading (Perron) eigenpair of the adjacency matrix A.

    Power iteration runs on A + I so the target eigenvalue is strictly
    dominant in magnitude even on bipartite graphs, starting from a
    seeded positive vector (which always overlaps the nonnegative Perron
    direction).  Convergence is judged on the eigen-residual
    ||A u - theta u||, not on the value estimate: the value settles
    quadratically faster than the vector, and downstream deflation needs
    the vector itself to be accurate.  The vector is sign-normalized so
    its largest-magnitude entry is positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = _unit_start(g.n, 0, positive=True)
    theta = 0.0
    converged = False
    for _ in range(max_iters):
        y = g.matrix.dot(x) + x
        ax = y - x  # A x, reusing the shifted product
        theta = float(x @ ax)
        residual = float(np.linalg.norm(ax - theta * x))
        if residual <= tol * max(1.0, abs(theta)):
            converged = True
            break
        x = y / float(np.linalg.norm(y))
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return PowerResult(value=theta, vector=x, converged=converged)


def spectral_norm(g: Graph, loading: float) -> PowerResult:
    """||A + loading*I||_2 = theta1 + loading, from ``leading_eigenpair``
    at the step rules' settings ``STEP_TOL`` and ``STEP_MAX_ITERS``.

    The identity holds for loading >= 0, where the matrix is entrywise
    nonnegative, even on a bipartite graph (where -theta1 is also an
    eigenvalue of A).
    """
    check_loading(loading)
    lead = leading_eigenpair(g, tol=STEP_TOL, max_iters=STEP_MAX_ITERS)
    return PowerResult(value=lead.value + loading, vector=lead.vector,
                       converged=lead.converged)


def top_two_singular_values(g: Graph, tol: float = CERT_TOL,
                            max_iters: int = CERT_MAX_ITERS):
    """(sigma1, u1, sigma2) of the adjacency matrix A.

    sigma1 and u1 come from the leading eigenpair (for a nonnegative
    symmetric matrix the top singular value is the Perron eigenvalue);
    sigma2 is the spectral norm of the deflated operator
    M: x -> Ax - theta1 * u1 (u1^T x), estimated by a second power
    iteration.  Its estimate at step t is ||M x_t|| for the unit iterate
    x_t; for symmetric M this sequence is nondecreasing and converges to
    the spectral norm even when the deflated spectrum's extremes are a
    +/- pair (where a Rayleigh quotient would stall).  Its start is drawn
    independently of the Perron start: from the same start, the part of
    a repeated top eigenvalue's eigenspace that the start covers would be
    exactly the part the deflation removes.  That start is generic, so a
    zero product means M is zero.  sigma2 is inf when either iteration
    stops unconverged, since an unconverged estimate may lie below the
    true value.
    """
    lead = leading_eigenpair(g, tol=tol, max_iters=max_iters)
    theta1, u1 = lead.value, lead.vector
    x = _unit_start(g.n, 1, positive=False)
    sigma2, prev = 0.0, None
    converged = False
    for _ in range(max_iters):
        y = g.matrix.dot(x) - theta1 * u1 * float(u1 @ x)
        sigma2 = float(np.linalg.norm(y))
        if sigma2 == 0.0:
            converged = True
            break
        x = y / sigma2
        if prev is not None and abs(sigma2 - prev) <= tol * max(1.0, sigma2):
            converged = True
            break
        prev = sigma2
    if not (lead.converged and converged):
        sigma2 = np.inf
    return max(theta1, 0.0), u1, sigma2
