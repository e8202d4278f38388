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

    * sigma1 term: for nonnegative A and any vector u > 0, the
      Collatz-Wielandt inequality gives theta1 <= max_i (A u)_i / u_i, so
      the ratio at u1 bounds theta1 whether or not the iteration
      converged.  An entry of u1 that is not positive (underflow on a
      disconnected graph) reads as +inf, and the maximum degree, which
      theta1 never exceeds, caps the term.
    * sigma2 allowance: the sigma2 term adds 4 * ||A u - theta u|| to
      absorb the error the approximate deflation introduces.  An
      unconverged sigma2 is reported as inf, which drops the term from
      the minimum.
    * Rounding guard: every eigenvalue-derived term is inflated by
      1 + (n + maxdeg + 16) * eps, the standard relative error bound of
      its dot products and of the row sums (A u)_i of at most maxdeg
      terms, so the bound stays >= the true value where it is tight
      (e.g. a single edge, k=2, where sigma1/(k-1) and the true density
      are both 1).
    """
    check_k(k, 2, g.n)
    if eig is None:
        eig = top_two_singular_values(g)
    _, u1, sigma2 = eig
    maxdeg = float(g.degrees.max())
    guard = 1.0 + (g.n + maxdeg + 16.0) * np.finfo(np.float64).eps
    au = g.matrix.dot(u1)
    ratios = np.divide(au, u1, out=np.full(g.n, np.inf), where=u1 > 0)
    sigma1_cert = min(maxdeg, float(ratios.max())) * guard
    theta = float(u1 @ au)
    residual = float(np.linalg.norm(au - theta * u1))
    sigma2_cert = (sigma2 + 4.0 * residual) * guard
    sel = top_k_indices(u1, k)
    surrogate = sigma1_cert * float(u1[sel].sum()) ** 2 / (k * (k - 1))
    term2 = (surrogate + sigma2_cert / (k - 1)) * guard
    term3 = sigma1_cert / (k - 1) * guard
    return float(min(1.0, term2, term3))
