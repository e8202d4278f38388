"""The box-and-sum polytope {x in [0,1]^n : sum x = k}: its feasible points,
the Euclidean projection onto it, and its top-k vertex map."""

from __future__ import annotations

import numpy as np

from .graph import check_k


def uniform_point(n: int, k: int) -> np.ndarray:
    """The fully symmetric feasible point x_i = k/n."""
    return np.full(n, k / n, dtype=np.float64)


def is_feasible(x, k: int, tol: float = 1e-9) -> bool:
    x = np.asarray(x, dtype=np.float64)
    return (x.min() >= -tol and x.max() <= 1.0 + tol
            and abs(float(x.sum()) - k) <= tol * max(1.0, k))


def project_capped_simplex(u, k: int) -> np.ndarray:
    """Euclidean projection of ``u`` onto {x in [0,1]^n : sum x = k}.

    The projection has the form clip(u - tau, 0, 1) for a scalar shift tau.
    f(tau) = sum(clip(u - tau, 0, 1)) is nonincreasing and piecewise linear
    with breakpoints u_i - 1 and u_i, so prefix sums over the sorted u give
    f at every breakpoint, and tau is interpolated between the two adjacent
    breakpoints that bracket k (Wang & Lu 2015, arXiv 1503.01002).
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[0]
    check_k(k, 0, n)
    if k == 0:
        return np.zeros(n)
    v = np.sort(u)
    tail = np.append(np.cumsum(v[::-1])[::-1], 0.0)  # tail[a] = v[a:].sum()

    def excess(t):
        # sum of (v_i - t) over v_i > t, for every t in the array at once
        a = np.searchsorted(v, t, side="right")
        return tail[a] - (n - a) * t

    t = np.sort(np.concatenate([v - 1.0, v]))
    f = excess(t) - excess(t + 1.0)
    # f = n at min(u) - 1 (pinned against rounding) and f = 0 exactly at
    # max(u), so with 0 < k <= n some p has f[p] >= k > f[p + 1].
    f[0] = n
    p = np.flatnonzero(f >= k)[-1]
    tau = t[p] + (f[p] - k) / (f[p] - f[p + 1]) * (t[p + 1] - t[p])
    return np.clip(u - tau, 0.0, 1.0)


def random_feasible_point(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A random interior-ish feasible point: project uniform noise onto the set."""
    return project_capped_simplex(rng.random(n) * 2.0, k)


def top_k_indices(values, k: int) -> np.ndarray:
    """Indices of the k largest entries of ``values``, ties to lowest index.

    Returns a sorted int64 array.  The selection is exact: every returned
    index has a value strictly above the k-th largest, or equal to it and
    among the lowest-indexed entries at that value.  The threshold comes
    from a values-only partition: where most entries tie, as in an FW
    gradient at an integral point, an argpartition is many times slower.
    The cost is O(n) plus the sort of the k winners.
    """
    v = np.asarray(values)
    n = v.shape[0]
    check_k(k, 0, n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k == n:
        return np.arange(n, dtype=np.int64)
    threshold = np.partition(v, n - k)[n - k]
    above = np.flatnonzero(v > threshold)
    need = k - len(above)
    at = np.flatnonzero(v == threshold)[:need]
    return np.sort(np.concatenate([above, at])).astype(np.int64)


def indicator(indices, n: int) -> np.ndarray:
    """0/1 float vector of length n with ones at ``indices``."""
    x = np.zeros(n, dtype=np.float64)
    x[np.asarray(indices, dtype=np.int64)] = 1.0
    return x
