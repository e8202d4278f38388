"""Why loading >= 1 matters: monotone rounding and a tight relaxation.

Three short experiments on small graphs where exhaustive enumeration is
available as ground truth:

1. at loading 1, rounding any fractional feasible point never loses
   objective value, and the best rounded value hits the exact integral
   optimum;
2. at loading 1.5, a single mass-transfer step strictly increases the
   objective — fractional points are never local maxima;
3. below loading 1 the relaxation opens a strict gap: the continuous
   maximum over the scaled simplex exceeds every integral point whenever
   k is smaller than the clique number.
"""

import numpy as np

from dks import (Graph, ProblemInstance, quadratic_form, round_to_integral,
                 rounding_step)
from dks.oracle import exact_dks, max_clique, simplex_qp_max
from dks.points import random_feasible_point


def main():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                             (4, 5), (5, 6), (4, 6), (5, 3)])
    k = 3
    rng = np.random.default_rng(7)

    print("1) rounding at loading 1 is monotone and reaches the optimum")
    inst = ProblemInstance(graph=g, k=k, loading=1.0)
    opt, best_sel = exact_dks(g, k, 1.0)
    print(f"   exhaustive optimum: {opt:.1f} at {best_sel.vertices.tolist()}")
    best = -np.inf
    for _ in range(200):
        x = random_feasible_point(g.n, k, rng)
        before = quadratic_form(inst.graph, inst.loading, x)
        after = quadratic_form(inst.graph, inst.loading, round_to_integral(inst, x))
        assert after >= before - 1e-9
        best = max(best, after)
    print(f"   best of 200 rounded random points: {best:.1f} (never above opt)")

    print("\n2) one step strictly gains when loading > 1")
    inst15 = ProblemInstance(graph=g, k=k, loading=1.5)
    x = random_feasible_point(g.n, k, rng)
    stepped, i, j, delta, is_edge = rounding_step(inst15, x)
    gain = (quadratic_form(inst15.graph, inst15.loading, stepped)
            - quadratic_form(inst15.graph, inst15.loading, x))
    print(f"   moved {delta:.3f} units from vertex {j} to {i} "
          f"({'edge' if is_edge else 'non-edge'} pair): gain {gain:.5f} > 0")

    print("\n3) below loading 1 the continuous relaxation strictly wins")
    omega, clique = max_clique(g)
    k_small, lam = 2, 0.5
    integral, _ = exact_dks(g, k_small, lam)
    simplex, _ = simplex_qp_max(g, lam, scale=float(k_small))
    print(f"   clique number {omega} (clique {clique}); k={k_small} "
          f"loading={lam}")
    print(f"   integral optimum k(k+loading-1) = {integral:.4f}")
    print(f"   continuous maximum             = {simplex:.4f}  "
          f"(predicted floor k^2 + k^2(loading-1)/omega = "
          f"{k_small**2 + k_small**2 * (lam - 1) / omega:.4f})")


if __name__ == "__main__":
    main()
