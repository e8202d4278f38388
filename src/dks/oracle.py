"""Exhaustive and high-accuracy reference computations for small graphs.

Everything here is ground truth for the solvers: exact densest-k-subgraph
by enumeration, exact maximum clique (bitmask Bron-Kerbosch), a
multi-start projected-gradient maximizer of the loaded quadratic over a
scaled simplex (seeded with the uniform point of every maximal clique,
so the clique-based maximizer is always among the candidates), and a
dense eigendecomposition.  Guards refuse instance sizes where
enumeration stops being exact-and-fast.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .graph import Graph, check_k
from .linalg import loaded_matvec, quadratic_form
from .rounding import VertexSelection, make_selection

SUBSET_GUARD = 10**7
CLIQUE_GUARD = 32
DENSE_GUARD = 64


def _adjacency_masks(g: Graph):
    masks = [0] * g.n
    for i in range(g.n):
        bits = 0
        for j in g.neighbors_of(i):
            bits |= 1 << int(j)
        masks[i] = bits
    return masks


def exact_dks(g: Graph, k: int, loading: float = 1.0):
    """Exhaustive densest-k-subgraph: (best value, best selection).

    Enumerates every k-subset in lexicographic order and keeps the first
    strict maximum of 2*edges + loading*k, so the reported argmax is the
    lexicographically smallest one.
    """
    check_k(k, 1, g.n)
    if math.comb(g.n, k) > SUBSET_GUARD:
        raise ValueError(f"C({g.n},{k}) exceeds the enumeration guard {SUBSET_GUARD}")
    masks = _adjacency_masks(g)
    best_edges = -1
    best_subset = None
    for subset in combinations(range(g.n), k):
        smask = 0
        for v in subset:
            smask |= 1 << v
        edges = sum((masks[v] & smask).bit_count() for v in subset) // 2
        if edges > best_edges:
            best_edges = edges
            best_subset = subset
    value = 2.0 * best_edges + loading * k
    return value, make_selection(g, np.array(best_subset, dtype=np.int64), loading)


def _bron_kerbosch(masks, on_clique):
    """Visit every maximal clique (as a bitmask) with pivoting.

    Recursive form; n <= 32 keeps the depth trivial.
    """
    n = len(masks)

    def expand(r, p, x):
        if p == 0 and x == 0:
            on_clique(r)
            return
        both = p | x
        pivot, best = -1, -1
        probe = both
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            cnt = (masks[u] & p).bit_count()
            if cnt > best:
                best, pivot = cnt, u
        candidates = p & ~masks[pivot]
        while candidates:
            vbit = candidates & -candidates
            v = vbit.bit_length() - 1
            candidates &= candidates - 1
            expand(r | vbit, p & masks[v], x & masks[v])
            p &= ~vbit
            x |= vbit

    expand(0, (1 << n) - 1, 0)


def maximal_cliques(g: Graph):
    """All maximal cliques as sorted vertex lists: by Moon-Moser, at most
    3^10 * 2 = 118 098 under the clique guard's n <= 32."""
    if g.n > CLIQUE_GUARD:
        raise ValueError(f"n={g.n} exceeds the clique guard {CLIQUE_GUARD}")
    found = []
    _bron_kerbosch(_adjacency_masks(g), lambda mask: found.append(
        [i for i in range(g.n) if mask >> i & 1]))
    return found


def max_clique(g: Graph):
    """(size, members) of a maximum clique: the first longest maximal clique."""
    members = max(maximal_cliques(g), key=len)
    return len(members), members


def project_scaled_simplex(u, scale: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0 : sum x = scale} (sort-based, exact)."""
    u = np.asarray(u, dtype=np.float64)
    if scale <= 0:
        raise ValueError("scale must be positive")
    srt = np.sort(u)[::-1]
    csum = np.cumsum(srt) - scale
    rho = np.nonzero(srt - csum / np.arange(1, len(u) + 1) > 0)[0][-1]
    tau = csum[rho] / (rho + 1.0)
    return np.maximum(u - tau, 0.0)


def _polish(g: Graph, loading: float, scale: float, x):
    """Projected gradient ascent from x for at most 300 steps; only accepts improving ones."""
    value = quadratic_form(g, loading, x)
    step = 1.0 / (float(g.degrees.max(initial=0)) + abs(loading) + 1.0)
    stall = 0
    for _ in range(300):
        grad = 2.0 * loaded_matvec(g, loading, x)
        y = project_scaled_simplex(x + step * grad, scale)
        new_value = quadratic_form(g, loading, y)
        if new_value > value + 1e-14:
            x, value = y, new_value
            step *= 1.2
            stall = 0
        else:
            step *= 0.5
            stall += 1
            if step < 1e-13 or stall > 30:
                break
    return value, x


def simplex_qp_max(g: Graph, loading: float, scale: float,
                   restarts: int = 5, seed: int = 0):
    """Estimate max of x^T(A + loading*I)x over the scale-sum simplex.

    Candidates are the uniform point of every maximal clique (scaled)
    plus ``restarts`` seeded random interior points; the most promising
    candidates are polished by projected gradient ascent.  Deterministic
    given the seed.  Returns (best value, best point).
    """
    candidates = []
    for clique in maximal_cliques(g):
        x = np.zeros(g.n)
        x[clique] = scale / len(clique)
        candidates.append(x)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        u = rng.random(g.n) + 1e-3
        candidates.append(scale * u / u.sum())

    scored = [(quadratic_form(g, loading, x), i) for i, x in enumerate(candidates)]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    best_value, best_idx = scored[0]
    best_x = candidates[best_idx]
    polish_set = {i for _, i in scored[:10]} | set(
        range(len(candidates) - restarts, len(candidates)))
    for i in sorted(polish_set):
        value, x = _polish(g, loading, scale, candidates[i])
        if value > best_value:
            best_value, best_x = value, x
    return best_value, best_x


def dense_eig(g: Graph):
    """Full symmetric eigendecomposition of the dense adjacency matrix.

    Returns (eigenvalues descending, eigenvectors as matching columns).
    This is the reference the iterative eigen-estimates are checked
    against, so it deliberately goes through a dense solver rather than
    any of the sparse iterative paths.
    """
    if g.n > DENSE_GUARD:
        raise ValueError(f"n={g.n} exceeds the dense guard {DENSE_GUARD}")
    dense = g.matrix.toarray()
    values, vectors = np.linalg.eigh(dense)
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]
