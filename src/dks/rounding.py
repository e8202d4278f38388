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

from .graph import (Graph, ProblemInstance, check_loading, check_objective_fits,
                    induced_edge_count)
from .points import is_feasible, top_k_indices

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
    """Build a VertexSelection with edge count and densities filled in,
    refusing a loading at which the objective of k = len(vertices) overflows."""
    check_loading(loading)
    verts = np.sort(vertices)
    check_objective_fits(len(verts), loading)
    edges = induced_edge_count(g, verts)  # checks the ids
    verts = verts.astype(np.int64, copy=False)
    k = len(verts)
    density = 2.0 * edges / (k * (k - 1)) if k >= 2 else 0.0
    return VertexSelection(vertices=verts, induced_edges=edges,
                           normalized_density=density,
                           objective_at_loading=2.0 * edges + loading * k)


def project_top_k(g: Graph, x, k: int, loading: float = 1.0) -> VertexSelection:
    """Top-k projection: keep the k largest coordinates (ties to lowest index)."""
    return make_selection(g, top_k_indices(x, k), loading)


def fractional_indices(x: np.ndarray) -> np.ndarray:
    """Indices of the coordinates more than SNAP_TOL away from 0 and 1."""
    return np.flatnonzero((x > SNAP_TOL) & (x < 1.0 - SNAP_TOL))


def _move(x: np.ndarray, s: np.ndarray, v: int, nbrs: np.ndarray,
          change: float) -> float:
    """Add ``change`` to x[v], snap it if it lands within SNAP_TOL of 0 or 1,
    and carry the difference into the sums ``s`` over v's neighbors
    ``nbrs``.  Returns the new x[v]."""
    old = x.item(v)
    new = old + change
    if new <= SNAP_TOL:
        new = 0.0
    elif new >= 1.0 - SNAP_TOL:
        new = 1.0
    x[v] = new
    s[nbrs] += new - old
    return new


def _transfers(g: Graph, loading: float, x: np.ndarray):
    """Make the rounding transfers on ``x`` in place, yielding (i, j, delta)
    after each pair moves and before the pair's neighbors are rescored.

    Each transfer makes i or j integral, so there are at most n.  It
    rescores only N(i), N(j) and {i, j}, the scores it changes, and finds
    the donor with one argmin over n; the receiver is re-picked with a full
    argmax only when it leaves the fractional set or its score falls.
    """
    s = g.matrix.dot(x)
    # Only i and j ever leave the fractional set ``frac``: a step snaps its
    # pair or leaves it inside (0, 1).  A score is loading*x_v + s_v; ``up``
    # and ``down`` hold loading*x_v on fractional coordinates and +inf and
    # -inf on the rest, so up + s and down + s are the scores with the rest
    # pushed out of argmin and argmax.  ``lo`` holds up + s with +inf also
    # on the receiver i, whose score is ``top``.
    frac = fractional_indices(x)
    up = np.full(g.n, np.inf)
    up[frac] = loading * x[frac]
    down = np.where(up < np.inf, up, -np.inf)
    lo = up + s
    i = int((down + s).argmax())
    top = lo.item(i)
    lo[i] = np.inf
    live = len(frac)
    # s[nbrs] += ... runs about 1.7x slower with int32 indices than intp.
    nbrs, offsets = g.neighbors.astype(np.intp, copy=False), g.row_offsets.tolist()

    for _ in range(g.n + 1):
        if live < 2:
            break
        j = int(lo.argmin())
        delta = min(x.item(j), 1.0 - x.item(i))
        ni = nbrs[offsets[i]:offsets[i + 1]]
        nj = nbrs[offsets[j]:offsets[j + 1]]
        for v, nv, change in ((i, ni, delta), (j, nj, -delta)):
            new = _move(x, s, v, nv, change)
            if 0.0 < new < 1.0:
                up[v] = down[v] = loading * new
            else:
                up[v], down[v] = np.inf, -np.inf
                live -= 1
        yield i, j, delta
        # Sorted, so the first-index argmax over it is the lowest-index tie;
        # the stable sort merges the two sorted neighbor lists in one pass.
        touched = np.concatenate((ni, nj, (i, j)))
        touched.sort(kind="stable")
        st = s[touched]
        lo[touched] = up[touched] + st
        high = down[touched] + st
        # Untouched scores did not change, and i beat all of them before
        # the step.  Unless its own score fell, it still does, so the new
        # receiver is the best touched one (i is touched).
        if down.item(i) + s.item(i) < top:
            scores = down + s
            i = int(scores.argmax())
            top = scores.item(i)
        else:
            best = int(high.argmax())
            i, top = int(touched[best]), high.item(best)
        lo[i] = np.inf
    else:
        raise RuntimeError("rounding failed to terminate (infeasible input?)")


def rounding_step(inst: ProblemInstance, x):
    """The first transfer of ``round_to_integral``, from x as given (unsnapped).

    Scores are loading*x_i + s_i with s_i the sum of x over i's neighbors.
    The donor j has the minimum score, the receiver i the maximum (ties to
    lowest index), so the objective change
    2*delta*(score_i - score_j) + 2*loading*delta^2            (non-edge)
    2*delta*(score_i - score_j) + 2*(loading-1)*delta^2        (edge)
    is nonnegative whenever loading >= 1.  Returns (new_x, i, j, delta, is_edge).
    """
    x = np.asarray(x, dtype=np.float64).copy()
    if len(fractional_indices(x)) < 2:
        raise ValueError("rounding step needs at least two fractional coordinates")
    i, j, delta = next(_transfers(inst.graph, float(inst.loading), x))
    return x, i, j, delta, inst.graph.has_edge(i, j)


def round_to_integral(inst: ProblemInstance, x) -> np.ndarray:
    """Round a feasible fractional point to a 0/1 point with k ones.

    Requires loading >= 1 (below that the no-decrease guarantee fails).
    Snaps coordinates within SNAP_TOL of 0 or 1, then makes the transfers
    of ``rounding_step`` until at most one coordinate is fractional.
    """
    g, lam = inst.graph, inst.loading
    if lam < 1.0:
        raise ValueError(f"rounding requires loading >= 1, got {lam}")
    x = np.asarray(x, dtype=np.float64).copy()
    if not is_feasible(x, inst.k):
        raise ValueError("point is not feasible for the box-and-sum polytope")

    near_int = (x <= SNAP_TOL) | (x >= 1.0 - SNAP_TOL)
    x[near_int] = np.round(x[near_int])
    lam = float(lam)  # so loading*x_v is a float64 product in Python as in numpy
    for _ in _transfers(g, lam, x):
        pass

    # At most one fractional coordinate is left, and it can only carry
    # accumulated snap drift (< n * SNAP_TOL), so snapping it to the
    # nearest integer is the exact budget repair.
    frac = np.flatnonzero((x > 0.0) & (x < 1.0))
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
