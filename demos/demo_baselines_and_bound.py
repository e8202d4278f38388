"""Baselines vs the solver, with the spectral density certificate.

Runs the half-degrees greedy heuristic, the rank-1 eigenvector
selection, and the Frank-Wolfe solver across several k on one seeded
sparse graph, and prints the certified spectral upper bound alongside:
no selection of size k — by any method, ever — can beat that bound.
"""

import argparse

import numpy as np

from dks import (FwConfig, ProblemInstance, density_upper_bound, fw_solve,
                 greedy_feige, rank1_lrbo)
from dks.linalg import top_two_singular_values
from dks.verify import random_gnp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--p", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    g = random_gnp(args.n, args.p, rng)
    print(f"graph: n={g.n} m={g.m}")

    # one eigensolve, at the certificate's settings, serves every k
    eig = top_two_singular_values(g)

    header = f"{'k':>4}  {'greedy':>8}  {'rank1':>8}  {'fw':>8}  {'bound':>8}"
    print("\nnormalized density by method")
    print(header)
    print("-" * len(header))
    for k in (5, 10, 20, 40, 80):
        d_greedy = greedy_feige(g, k).normalized_density
        d_rank1 = rank1_lrbo(g, k).normalized_density
        inst = ProblemInstance(graph=g, k=k, loading=1.0)
        d_fw = fw_solve(inst, FwConfig()).selection.normalized_density
        bound = density_upper_bound(g, k, eig=eig)
        print(f"{k:>4}  {d_greedy:>8.4f}  {d_rank1:>8.4f}  "
              f"{d_fw:>8.4f}  {bound:>8.4f}")
        assert max(d_greedy, d_rank1, d_fw) <= bound + 1e-12


if __name__ == "__main__":
    main()
