"""Frank-Wolfe on the loaded quadratic: traces, gaps, and integrality.

Solves max x^T (A + I) x over {x in [0,1]^n : sum x = k} with the
conditional-gradient method whose linear subproblem is just a top-k
selection on the gradient.  Shows the monotone objective trace, the
duality-gap certificate at termination, and that the final point is
(usually) already integral — the relaxation at loading 1 is tight.
Runs all three step rules on one instance: the default exact line search
(no Lipschitz constant) and the paper's option1 and option2.
"""

import argparse

import numpy as np

from dks import FwConfig, Graph, ProblemInstance, fw_solve
from dks.fw import STEP_RULES
from dks.verify import random_gnp


def show(name, inst, cfg):
    rep = fw_solve(inst, cfg)
    trace = rep.objective_trace
    print(f"\n{name}: n={inst.graph.n} k={inst.k} loading={inst.loading} "
          f"rule={cfg.step_rule}")
    print(f"  objective {trace[0]:.4f} -> {trace[-1]:.4f} "
          f"in {rep.iterations} iterations (trace is nondecreasing: "
          f"{bool(np.all(np.diff(trace) >= -1e-12))})")
    print(f"  converged={rep.converged} fw_gap={rep.fw_gap:.3e} "
          f"integral={rep.integral}")
    sel = rep.selection
    print(f"  selection: {sel.vertices.tolist()[:12]}"
          f"{'...' if sel.k > 12 else ''} density={sel.normalized_density:.4f}")
    return rep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    two_tri = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                   (3, 4), (4, 5), (3, 5)])
    inst = ProblemInstance(graph=two_tri, k=3, loading=1.0)
    show("two triangles", inst, FwConfig())

    rng = np.random.default_rng(args.seed)
    g = random_gnp(120, 0.08, rng)
    inst = ProblemInstance(graph=g, k=10, loading=1.0)
    reps = {rule: show("G(120, 0.08)", inst, FwConfig(step_rule=rule))
            for rule in STEP_RULES}
    print("\nevery step rule, same instance: " + ", ".join(
        f"{rule} {rep.selection.objective_at_loading:.1f} in {rep.iterations} it."
        for rule, rep in reps.items()))


if __name__ == "__main__":
    main()
