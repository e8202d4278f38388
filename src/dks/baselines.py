"""Baseline selection heuristics and the spectral density upper bound.

Two classic constructions to compare the solvers against — the
half-degrees greedy procedure and the leading-eigenvector (rank-1)
selection — plus a certificate: an upper bound on the normalized density
of any k-subgraph built from the top two singular values of the
adjacency matrix.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, check_k
from .linalg import leading_eigenpair, top_two_singular_values
from .rounding import VertexSelection, make_selection
from .topk import indicator, top_k_indices


def greedy_feige(g: Graph, k: int, loading: float = 1.0) -> VertexSelection:
    """Half max-degree core plus best-attached complement.

    Picks H = ceil(k/2) vertices of maximum degree, then fills the
    remaining k - |H| slots with the vertices outside H that have the
    most neighbors inside H.  All ties go to the lowest index.
    """
    check_k(k, 2, g.n)
    h_size = (k + 1) // 2
    core = top_k_indices(g.degrees, h_size)
    attached = g.matrix.dot(indicator(core, g.n))
    attached[core] = -1.0  # exclude the core from the second phase
    rest = top_k_indices(attached, k - h_size)
    return make_selection(g, np.concatenate([core, rest]), loading)


def rank1_lrbo(g: Graph, k: int, loading: float = 1.0,
               eig=None) -> VertexSelection:
    """Top-k entries of the leading adjacency eigenvector.

    The rank-1 surrogate objective x^T (theta1 u1 u1^T) x over 0/1
    sum-to-k vectors is maximized by the k largest entries of u1 (sign
    flipped so its largest-magnitude entry is positive).  On a
    disconnected graph u1 concentrates on the dominant component and the
    selection follows it; that is the documented behavior, not an error.
    ``eig`` may pass a (sigma1, u1, sigma2) triple as in
    ``density_upper_bound``; without it u1 is solved for at
    ``leading_eigenpair``'s default settings, the triple's own, so both
    routes see a bit-identical u1.
    """
    check_k(k, 1, g.n)
    u1 = leading_eigenpair(g).vector if eig is None else eig[1]
    return make_selection(g, top_k_indices(u1, k), loading)


def density_upper_bound(g: Graph, k: int, eig=None) -> float:
    """Certified upper bound on the normalized density of any k-subgraph.

    Returns min of three terms: the trivial cap 1; the rank-1 surrogate
    density of the top-k eigenvector selection plus a sigma2 correction,
    theta1 * (sum of u1 over the selection)^2 / (k(k-1)) + sigma2/(k-1);
    and sigma1/(k-1).  ``eig`` may pass a precomputed
    (sigma1, u1, sigma2) triple to amortize the eigensolves across many
    values of k.  Without it the bound solves at the default settings of
    ``top_two_singular_values``, the certificate's.

    The iterative eigenvalue estimates converge from below, so plugging
    them in verbatim could undercut the true bound by an ulp and break
    the >= guarantee exactly when the bound is tight (e.g. a single
    edge, k=2, where sigma1/(k-1) and the true density are both 1).  Two
    corrections make the evaluation one-sided:

    * Residual shift: for a symmetric matrix the leading eigenvalue lies
      within ||A u - theta u|| of the Rayleigh quotient once the
      iteration has locked onto the Perron direction, so theta +
      residual over-estimates theta1.  The sigma2 term gets the same
      allowance to absorb the error the approximate deflation
      introduces.
    * Rounding guard: the Rayleigh dot product itself carries a forward
      rounding error of order (n + maxdeg) * eps * theta that the
      residual cannot see (the computed u can be an exact eigenvector
      while fl(u'Au) still rounds below the true eigenvalue), so every
      eigenvalue-derived term is inflated by that standard relative
      error bound.

    Both corrections assume the eigen-iterations converged.  When either
    did not, ``top_two_singular_values`` reports sigma2 = inf and the bound
    falls back to min(1, maxdeg/(k-1)), which holds because sigma1 never
    exceeds the maximum degree.
    """
    check_k(k, 2, g.n)
    if eig is None:
        eig = top_two_singular_values(g)
    _, u1, sigma2 = eig
    maxdeg = float(g.degrees.max()) if g.n else 0.0
    guard = 1.0 + (g.n + maxdeg + 16.0) * np.finfo(np.float64).eps
    if not np.isfinite(sigma2):
        return float(min(1.0, maxdeg / (k - 1) * guard))
    au = g.matrix.dot(u1)
    theta = float(u1 @ au)
    residual = float(np.linalg.norm(au - theta * u1))
    theta_cert = (theta + residual) * guard
    sigma1_cert = max(theta_cert, 0.0)
    sigma2_cert = (sigma2 + 4.0 * residual) * guard
    sel = top_k_indices(u1, k)
    surrogate = sigma1_cert * float(u1[sel].sum()) ** 2 / (k * (k - 1))
    term2 = (surrogate + sigma2_cert / (k - 1)) * guard
    term3 = sigma1_cert / (k - 1) * guard
    return float(min(1.0, term2, term3))
