"""Monotone rounding of fractional points and the top-k projection.

The rounding procedure repeatedly transfers mass between two fractional
coordinates, picking the pair so the loaded objective never decreases
when the diagonal loading is at least 1 (and strictly increases when it
exceeds 1).  It terminates at a 0/1 point with exactly k ones.  The
plain top-k projection is the cheap post-processing step solvers apply
to their final (possibly fractional) iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, ProblemInstance, induced_edge_count
from .points import is_feasible
from .topk import top_k_indices

# Coordinates closer than this to 0 or 1 count as integral and are snapped.
SNAP_TOL = 1e-9


@dataclass(frozen=True)
class VertexSelection:
    """An integral solution: a k-subset with its density statistics.

    ``objective_at_loading`` satisfies the integral identity
    2*induced_edges + loading*k.  ``normalized_density`` is defined as 0
    for k = 1 (a single vertex spans no pairs).
    """

    vertices: np.ndarray
    induced_edges: int
    normalized_density: float
    objective_at_loading: float

    @property
    def k(self) -> int:
        return len(self.vertices)


def make_selection(g: Graph, vertices, loading: float = 1.0) -> VertexSelection:
    """Build a VertexSelection with edge count and densities filled in."""
    verts = np.sort(np.asarray(vertices, dtype=np.int64))
    if len(np.unique(verts)) != len(verts):
        raise ValueError("selection contains duplicate vertices")
    if len(verts) and (verts[0] < 0 or verts[-1] >= g.n):
        raise ValueError("vertex id out of range")
    k = len(verts)
    edges = induced_edge_count(g, verts)
    density = 2.0 * edges / (k * (k - 1)) if k >= 2 else 0.0
    return VertexSelection(vertices=verts, induced_edges=edges,
                           normalized_density=density,
                           objective_at_loading=2.0 * edges + loading * k)


def project_top_k(g: Graph, x, k: int, loading: float = 1.0) -> VertexSelection:
    """Top-k projection: keep the k largest coordinates (ties to lowest index)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < k:
        raise ValueError(f"vector of length {len(x)} cannot yield k={k}")
    return make_selection(g, top_k_indices(x, k), loading)


def _fractional_indices(x: np.ndarray) -> np.ndarray:
    return np.flatnonzero((x > SNAP_TOL) & (x < 1.0 - SNAP_TOL))


def _transfer(g: Graph, lam: float, x: np.ndarray, s: np.ndarray,
              frac: np.ndarray):
    """The step of ``rounding_step`` over the sorted fractional indices ``frac``.

    Updates ``x`` and its neighbor sums ``s`` in place; returns (i, j, delta).
    """
    scores = lam * x[frac] + s[frac]
    top = int(np.argmax(scores))
    i = int(frac[top])
    scores[top] = np.inf
    j = int(frac[np.argmin(scores)])
    delta = float(min(x[j], 1.0 - x[i]))
    for v, change in ((i, delta), (j, -delta)):
        old = x[v]
        x[v] += change
        if x[v] <= SNAP_TOL:
            x[v] = 0.0
        elif x[v] >= 1.0 - SNAP_TOL:
            x[v] = 1.0
        s[g.neighbors_of(v)] += x[v] - old
    return i, j, delta


def rounding_step(inst: ProblemInstance, x):
    """One mass transfer between the extreme-scoring fractional pair.

    Scores are loading*x_i + s_i with s_i the sum of x over i's neighbors.
    The donor j has the minimum score, the receiver i the maximum (ties to
    lowest index), so the objective change
    2*delta*(score_i - score_j) + 2*loading*delta^2            (non-edge)
    2*delta*(score_i - score_j) + 2*(loading-1)*delta^2        (edge)
    is nonnegative whenever loading >= 1.  Returns
    (new_x, i, j, delta, is_edge).
    """
    g = inst.graph
    x = np.asarray(x, dtype=np.float64).copy()
    frac = _fractional_indices(x)
    if len(frac) < 2:
        raise ValueError("rounding step needs at least two fractional coordinates")
    i, j, delta = _transfer(g, inst.loading, x, g.matrix.dot(x), frac)
    return x, i, j, delta, g.has_edge(i, j)


def round_to_integral(inst: ProblemInstance, x) -> np.ndarray:
    """Round a feasible fractional point to a 0/1 point with k ones.

    Requires loading >= 1 (below that the no-decrease guarantee fails).
    Neighbor sums are maintained incrementally, so a full pass costs
    O(sum of degrees of the touched vertices), not O(n*m).
    """
    g, lam = inst.graph, inst.loading
    if lam < 1.0:
        raise ValueError(f"rounding requires loading >= 1, got {lam}")
    x = np.asarray(x, dtype=np.float64).copy()
    if not is_feasible(x, inst.k, tol=1e-9):
        raise ValueError("point is not feasible for the box-and-sum polytope")

    near_int = (x <= SNAP_TOL) | (x >= 1.0 - SNAP_TOL)
    x[near_int] = np.round(x[near_int])
    s = g.matrix.dot(x)
    # Coordinates outside ``frac`` are exactly 0 or 1, and a transfer snaps
    # its pair or leaves it inside (0, 1); filtering keeps ``frac`` sorted.
    frac = _fractional_indices(x)

    for _ in range(g.n + 1):
        if len(frac) < 2:
            break
        _transfer(g, lam, x, s, frac)
        frac = frac[(x[frac] > 0.0) & (x[frac] < 1.0)]
    else:
        raise RuntimeError("rounding failed to terminate (infeasible input?)")

    # At most one fractional coordinate is left, and it can only carry
    # accumulated snap drift (< n * SNAP_TOL), so snapping it to the
    # nearest integer is the exact budget repair.
    x[frac] = np.round(x[frac])

    ones = int(np.round(x.sum()))
    if ones != inst.k:
        # Defensive repair; unreachable for inputs within the feasibility
        # tolerance since total drift stays far below one unit of mass.
        scores = lam * x + g.matrix.dot(x)
        if ones > inst.k:
            on = np.flatnonzero(x == 1.0)
            drop = on[np.argsort(scores[on], kind="stable")[: ones - inst.k]]
            x[drop] = 0.0
        else:
            off = np.flatnonzero(x == 0.0)
            add = off[np.argsort(-scores[off], kind="stable")[: inst.k - ones]]
            x[add] = 1.0
    return x
