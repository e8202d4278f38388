"""Seeded Chung-Lu edge lists with a planted clique, written as SNAP-style text.

The files are deliberately untidy so that every path of the loader runs:
a ``#`` header, vertex labels that are large and non-contiguous, repeated
and reversed pairs, and self-loops.  Everything is a pure function of the
seed, so the same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Extra lines, as shares of the drawn pairs: verbatim repeats, reversed
# repeats and self-loops.
DUP_FRAC, REV_FRAC, LOOP_FRAC = 0.01, 0.01, 0.002


@dataclass(frozen=True)
class GraphSpec:
    """Size and shape of one generated graph."""

    n: int            # vertices before labels are scrambled
    draws: int        # Chung-Lu endpoint-pair draws (duplicates included)
    beta: float       # power-law exponent of the expected degrees
    clique: int       # size of the planted clique


@dataclass
class GeneratedGraph:
    """What the benchmark knows about a file independently of ``dks``.

    ``labels`` lists every vertex label in order of first appearance in
    the file, which is the compact-id order the loader promises.
    ``edges`` holds each undirected non-loop edge once as (lo, hi) labels.
    """

    path: str
    labels: np.ndarray
    edges: np.ndarray
    planted: np.ndarray
    lines: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)


def chung_lu_pairs(spec: GraphSpec, rng: np.random.Generator):
    """Edge draws on vertices 0..n-1 as an (E, 2) array, planted clique included,
    and the sorted clique members."""
    weights = (np.arange(spec.n) + 10.0) ** (-1.0 / (spec.beta - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ends = np.searchsorted(cdf, rng.random(2 * spec.draws), side="right")
    pairs = np.minimum(ends, spec.n - 1).reshape(-1, 2)
    members = np.sort(rng.choice(spec.n, size=spec.clique, replace=False))
    iu, ju = np.triu_indices(spec.clique, k=1)
    clique = np.column_stack([members[iu], members[ju]])
    dup = pairs[rng.integers(0, len(pairs), int(DUP_FRAC * len(pairs)))]
    rev = pairs[rng.integers(0, len(pairs), int(REV_FRAC * len(pairs)))][:, ::-1]
    loop_v = rng.integers(0, spec.n, int(LOOP_FRAC * len(pairs)))
    loops = np.column_stack([loop_v, loop_v])
    allp = np.concatenate([pairs, clique, dup, rev, loops])
    allp = allp[rng.permutation(len(allp))]
    return allp, members


def write_graph(path: str, spec: GraphSpec, seed: int) -> GeneratedGraph:
    """Generate the graph for ``seed`` and write it to ``path``."""
    rng = np.random.default_rng(seed)
    pairs, members = chung_lu_pairs(spec, rng)
    # Scramble ids into sparse labels well above n so compaction matters.
    label_of = rng.choice(50 * spec.n, size=spec.n, replace=False) + 1_000_003
    lab = label_of[pairs]
    header = (f"# Chung-Lu power-law graph, seed {seed}\n"
              f"# n={spec.n} draws={spec.draws} beta={spec.beta} "
              f"planted clique={spec.clique}\n")
    body = ("%d %d\n" * len(lab)) % tuple(lab.ravel().tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.write(body)

    flat = lab.ravel()
    _, first = np.unique(flat, return_index=True)
    labels = flat[np.sort(first)]
    keep = lab[lab[:, 0] != lab[:, 1]]
    edges = np.unique(np.sort(keep, axis=1), axis=0)
    return GeneratedGraph(path=path, labels=labels, edges=edges,
                          planted=np.sort(label_of[members]), lines=len(lab) + 2)


def induced_edges(gen: GeneratedGraph, labels) -> int:
    """Edges of the generated graph with both ends in ``labels``."""
    inside = np.isin(gen.edges, np.asarray(labels, dtype=np.int64))
    return int(np.count_nonzero(inside[:, 0] & inside[:, 1]))
