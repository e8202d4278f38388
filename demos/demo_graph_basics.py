"""Build graphs, load an edge list, and measure subgraph densities.

Walks through the two ways of constructing a Graph (explicit edges and a
SNAP-style edge-list file), then scores a few vertex subsets with the
normalized density 2 * edges / (k * (k-1)) — the quantity every solver
in the package is trying to push toward 1.
"""

import os
import tempfile

from dks import Graph, load_edge_list, make_selection


def main():
    # two disjoint triangles: the smallest graph where "which k vertices"
    # actually matters
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    print(f"two triangles: n={g.n} m={g.m}")
    print(f"degrees: {g.degrees.tolist()}")
    print(f"neighbors of 1: {g.neighbors_of(1).tolist()}")

    for subset in ([0, 1, 2], [0, 1, 3], [1, 2, 3, 4]):
        sel = make_selection(g, subset)
        print(f"subset {subset}: induced edges={sel.induced_edges} "
              f"density={sel.normalized_density:.4f}")

    # the loader deduplicates, drops self-loops, and remaps arbitrary
    # vertex labels to 0..n-1 (original labels kept for reporting)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "toy.txt")
        with open(path, "w") as fh:
            fh.write("# comment lines are skipped\n")
            fh.write("10 20\n20 10\n20 30\n30 30\n10 30\n30 99\n")
        loaded = load_edge_list(path)
        print(f"\nloaded toy.txt: n={loaded.n} m={loaded.m} "
              f"(1 duplicate + 1 self-loop dropped)")
        print(f"original labels: {loaded.original_ids.tolist()}")
        dense_part = loaded.index_of([10, 20, 30])
        print(f"density of labels 10,20,30: "
              f"{make_selection(loaded, dense_part).normalized_density:.4f}")


if __name__ == "__main__":
    main()
