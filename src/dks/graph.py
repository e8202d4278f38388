"""Sparse undirected simple graphs in CSR form, plus edge-list loading.

Graphs are immutable after construction: loaders and constructors remove
self-loops, merge parallel edges, symmetrize directed input, and compact
vertex ids to 0..n-1 in first-appearance order.  The original labels are
kept so results can be reported in the input's id space.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph stored as a sorted CSR adjacency structure.

    Attributes
    ----------
    n : number of vertices
    m : number of undirected edges (each counted once)
    row_offsets : int64 array of length n+1; vertex i's neighbors live in
        ``neighbors[row_offsets[i]:row_offsets[i+1]]``
    neighbors : int64 array of length 2m; each neighbor list is strictly
        increasing, contains no self-loops, and is symmetric (j in i's list
        iff i in j's list)
    degrees : int64 array of per-vertex degrees; sums to 2m
    original_ids : labels from the input file, indexed by compact id
    """

    n: int
    m: int
    row_offsets: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    original_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.original_ids is None:
            object.__setattr__(self, "original_ids", np.arange(self.n, dtype=np.int64))

    @classmethod
    def from_edges(cls, n, edges, original_ids=None) -> "Graph":
        """Build a graph on ``n`` vertices from an iterable/array of id pairs.

        Self-loops are dropped, duplicate and reversed duplicates merged.
        Ids must already be compact (0 <= id < n).
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError(f"vertex id out of range [0, {n})")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.size:
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            uniq = np.unique(lo * np.int64(n) + hi)
            lo, hi = uniq // n, uniq % n
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        m = len(lo)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        degrees = np.bincount(src, minlength=n).astype(np.int64)
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=row_offsets[1:])
        ids = None if original_ids is None else np.asarray(original_ids)
        return cls(n=n, m=m, row_offsets=row_offsets, neighbors=dst,
                   degrees=degrees, original_ids=ids)

    @cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """Adjacency matrix as a scipy CSR matrix (0/1 entries, float64)."""
        data = np.ones(len(self.neighbors), dtype=np.float64)
        return scipy.sparse.csr_matrix((data, self.neighbors, self.row_offsets),
                                       shape=(self.n, self.n))

    @cached_property
    def _label_index(self) -> dict:
        return {int(lbl): i for i, lbl in enumerate(self.original_ids)}

    def neighbors_of(self, i) -> np.ndarray:
        return self.neighbors[self.row_offsets[i]:self.row_offsets[i + 1]]

    def has_edge(self, i, j) -> bool:
        row = self.neighbors_of(i)
        pos = np.searchsorted(row, j)
        return pos < len(row) and row[pos] == j

    def edges(self):
        """Yield each undirected edge once as (i, j) with i < j."""
        for i in range(self.n):
            for j in self.neighbors_of(i):
                if j > i:
                    yield i, int(j)

    def index_of(self, labels) -> np.ndarray:
        """Map original input labels back to compact vertex ids."""
        try:
            return np.array([self._label_index[int(x)] for x in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown vertex label {exc.args[0]}") from None


def load_edge_list(path) -> Graph:
    """Load a whitespace-separated edge list (SNAP style) into a Graph.

    Lines starting with '#' and blank lines are skipped.  Files ending in
    '.gz' are decompressed transparently.  Exactly two integer tokens are
    expected per line; anything else (including edge weights) is an error
    reported with its line number.  Self-loops are removed, parallel and
    reversed duplicates merged, and vertex ids compacted to 0..n-1 in
    first-appearance order.  Directed arcs are symmetrized.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    index: dict = {}
    edges = []
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two vertex ids, got {len(tokens)} tokens")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer vertex id") from None
            for lbl in (u, v):
                if lbl not in index:
                    index[lbl] = len(index)
            edges.append((index[u], index[v]))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    labels = np.fromiter(index.keys(), dtype=np.int64, count=len(index))
    return Graph.from_edges(len(index), np.array(edges, dtype=np.int64),
                            original_ids=labels)


@dataclass(frozen=True)
class ProblemInstance:
    """A graph together with the subgraph size k and the diagonal loading.

    The loading parameter is the constant added to the adjacency diagonal
    in the quadratic objective x^T (A + loading*I) x.
    """

    graph: Graph
    k: int
    loading: float = 1.0

    def __post_init__(self):
        if not 1 <= self.k <= self.graph.n:
            raise ValueError(f"k={self.k} outside [1, {self.graph.n}]")
        if self.loading < 0:
            raise ValueError("loading must be nonnegative")


def induced_edge_count(g: Graph, subset) -> int:
    """Number of edges with both endpoints in ``subset`` (each counted once)."""
    s = np.asarray(subset, dtype=np.int64)
    if s.size and (s.min() < 0 or s.max() >= g.n):
        raise ValueError("vertex id out of range")
    if len(np.unique(s)) != len(s):
        raise ValueError("subset contains duplicate vertices")
    mask = np.zeros(g.n, dtype=bool)
    mask[s] = True
    total = 0
    for v in s:
        total += int(np.count_nonzero(mask[g.neighbors_of(v)]))
    return total // 2


def normalized_density(g: Graph, subset) -> float:
    """Induced edge count divided by k*(k-1)/2; equals 1 for a clique."""
    k = len(subset)
    if k < 2:
        raise ValueError("normalized density needs at least two vertices")
    return 2.0 * induced_edge_count(g, subset) / (k * (k - 1))
