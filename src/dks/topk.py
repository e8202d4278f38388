"""Deterministic top-k index selection with lowest-index tie handling."""

from __future__ import annotations

import numpy as np

from .graph import check_k


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
