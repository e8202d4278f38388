"""Sparse linear-algebra kernels for the loaded quadratic objective.

Everything here runs in O(m + n) per pass over the graph: the loaded
mat-vec (A + loading*I)x, the quadratic form x^T(A + loading*I)x, and
iterative estimates of the spectral quantities the solvers and the
density bound need.  One eigensolve finds the Perron pair (theta1, u1) of
A: locally optimal CG to the residual tolerance, then a Collatz-Wielandt
polish by power steps on A + I, both within one budget of products with
A.  The spectral norm of A + loading*I is read off that pair, and a
deflated power iteration gives the second singular value.
``collatz_wielandt`` is the one place the bound max_i (A u)_i / u_i on
theta1 is read, for the polish and for the density bound.
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
    """Outcome of an eigensolve.

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


def collatz_wielandt(g: Graph, u: np.ndarray, au: np.ndarray) -> float:
    """Upper bound on theta1 from a vector u and its product ``au`` = A u.

    For nonnegative A and any u > 0, the Collatz-Wielandt inequality gives
    theta1 <= max_i (A u)_i / u_i, whether or not u is an eigenvector, and
    a power step u -> (A + I) u never raises that maximum.  An entry of u
    that is not positive reads as +inf.  When no edge joins the set Z of
    those entries to the rest, A is block diagonal over Z and its
    complement, so theta1 is the larger of the blocks' top eigenvalues: the
    ratios bound the complement's, and Z's degrees bound Z's, so each entry
    of Z reads its degree instead.  The result is not capped by the maximum
    degree: a capped maximum would stop falling under power steps while
    the ratios below the cap still fall.
    """
    positive = u > 0
    ratios = np.divide(au, u, out=np.full(g.n, np.inf), where=positive)
    if not positive.all():
        zero = ~positive
        if not g.matrix.dot(positive.astype(np.float64))[zero].any():
            ratios[zero] = g.degrees[zero]
    return float(ratios.max())


def _lopcg(g: Graph, tol: float, max_iters: int):
    """Phase 1 of ``leading_eigenpair``: (x, theta, passed, matvecs)."""
    x = _unit_start(g.n, 0, positive=True)
    ax = g.matrix.dot(x)
    w = np.empty_like(x)
    matvecs, exact = 1, True
    p = ap = None
    while True:
        theta = float(x @ ax)
        np.multiply(x, -theta, out=w)
        w += ax
        passed = float(np.linalg.norm(w)) <= tol * max(1.0, abs(theta))
        if (passed and exact) or matvecs >= max_iters:
            return x, theta, passed and exact, matvecs
        matvecs += 1
        if passed:
            ax = g.matrix.dot(x)
            exact = True
            continue
        w -= float(x @ w) * x
        w /= float(np.linalg.norm(w))
        aw = g.matrix.dot(w)
        basis, images = [x, w], [ax, aw]
        if p is not None:
            for b, ab in zip(basis, images):
                c = float(b @ p)
                p -= c * b
                ap -= c * ab
            norm = float(np.linalg.norm(p))
            if norm > 0:
                p /= norm
                ap /= norm
                basis.append(p)
                images.append(ap)
        h = np.array([[b @ ab for ab in images] for b in basis])
        c = np.linalg.eigh((h + h.T) / 2)[1][:, -1]
        # the new direction is the Ritz vector's part outside x
        if len(basis) == 2:
            p, ap = c[1] * w, c[1] * aw
        else:
            p *= c[2]
            p += c[1] * w
            ap *= c[2]
            ap += c[1] * aw
        x *= c[0]
        x += p
        ax *= c[0]
        ax += ap
        norm = float(np.linalg.norm(x))
        x /= norm
        ax /= norm
        exact = False


def _cw_polish(g: Graph, x: np.ndarray, theta: float, tol: float,
               budget: int):
    """Phase 2 of ``leading_eigenpair``: (u, theta, passed) from unit x."""
    u = np.abs(x)
    au = g.matrix.dot(u)
    bound = collatz_wielandt(g, u, au)
    for _ in range(budget - 1):
        if bound <= theta * (1.0 + tol):
            break
        y = au + u
        y /= float(np.linalg.norm(y))
        ay = g.matrix.dot(y)
        next_bound = collatz_wielandt(g, y, ay)
        if not next_bound < bound:
            break
        u, au, bound = y, ay, next_bound
    theta = float(u @ au)
    au -= theta * u
    return u, theta, float(np.linalg.norm(au)) <= tol * max(1.0, abs(theta))


def leading_eigenpair(g: Graph, tol: float = CERT_TOL,
                      max_iters: int = CERT_MAX_ITERS) -> PowerResult:
    """Leading (Perron) eigenpair of the adjacency matrix A.

    Two phases share one budget of ``max_iters`` products with A:

    1. Locally optimal CG (LOBPCG with block size 1; Knyazev, SIAM J. Sci.
       Comput. 23(2), 2001) from a seeded positive start, which overlaps
       the nonnegative Perron direction.  Each step maximizes the Rayleigh
       quotient over span{x, w, p}: w is the residual A x - theta x and p
       the previous step's direction, each made orthonormal to the vectors
       before it.  A step costs one product, A w, since A x and A p are
       carried by the recurrence.  The stop rule is the eigen-residual
       test ||A x - theta x|| <= tol * max(1, |theta|), on the vector
       rather than the value, since deflation downstream needs the vector;
       a pass on the carried A x, which drifts, is confirmed on an exact
       product before the phase ends.
    2. A Collatz-Wielandt polish, only after phase 1 passed and while
       budget remains: plain power steps on A + I from |x|, until
       ``collatz_wielandt``'s bound is within theta * (1 + tol) or stops
       falling.  Each step shrinks every eigencomponent but theta1's, so
       the noise that phase 1 leaves on components away from theta1's
       settles on their own Perron vectors, whose ratios lie below theta1.
       The density bound's sigma1 term reads this vector.

    ``converged`` says that the returned pair passed the residual test on
    an exact product.  An unconverged result is the best estimate within
    the budget, not an error.  The vector is sign-normalized so its
    largest-magnitude entry is positive.  A ``tol`` that is not finite and
    positive, or a ``max_iters`` below 1, raises ``ValueError``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    x, theta, converged, matvecs = _lopcg(g, tol, max_iters)
    if converged and matvecs < max_iters:
        x, theta, converged = _cw_polish(g, x, theta, tol, max_iters - matvecs)
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

