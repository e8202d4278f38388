"""Graph construction, edge-list loading, and instance validation."""

import gzip

import numpy as np
import pytest

from dks import Graph, ProblemInstance, load_edge_list
from dks.graph import induced_edge_count, normalized_density

from conftest import random_graph


def test_from_edges_triangle(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert triangle.degrees.tolist() == [2, 2, 2]
    assert sorted(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_from_edges_merges_duplicates_and_reversals():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.m == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_from_edges_drops_self_loops():
    g = Graph.from_edges(3, [(0, 0), (1, 1), (0, 2)])
    assert g.m == 1
    assert sorted(g.edges()) == [(0, 2)]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_neighbor_lists_sorted_and_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.1, 0.9)), rng)
        assert g.degrees.sum() == 2 * g.m
        for i in range(g.n):
            row = g.neighbors_of(i)
            assert np.all(np.diff(row) > 0)
            for j in row:
                assert g.has_edge(int(j), i)


def test_has_edge(path3):
    assert path3.has_edge(0, 1)
    assert path3.has_edge(1, 0)
    assert not path3.has_edge(0, 2)


def test_matrix_matches_edge_list(two_triangles):
    a = two_triangles.matrix.toarray()
    assert a.shape == (6, 6)
    assert np.array_equal(a, a.T)
    assert a.sum() == 2 * two_triangles.m
    assert a[0, 1] == 1 and a[2, 0] == 1 and a[0, 3] == 0


def test_edgeless_graph(edgeless4):
    assert edgeless4.m == 0
    assert edgeless4.degrees.tolist() == [0, 0, 0, 0]
    assert list(edgeless4.edges()) == []


def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n\n10 20\n20 30\n30 10\n")
    g = load_edge_list(p)
    assert g.n == 3
    assert g.m == 3
    # compaction follows first appearance: 10 -> 0, 20 -> 1, 30 -> 2
    assert g.original_ids.tolist() == [10, 20, 30]
    assert g.index_of([30, 10]).tolist() == [2, 0]


def test_load_edge_list_gzip(tmp_path):
    p = tmp_path / "g.txt.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("0 1\n1 2\n")
    g = load_edge_list(p)
    assert g.n == 3 and g.m == 2


def test_load_edge_list_merges_directed_duplicates(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("0 1\n1 0\n1 2\n")
    g = load_edge_list(p)
    assert g.m == 2


def test_load_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected two vertex ids"):
        load_edge_list(bad)
    bad.write_text("0 x\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_edge_list(bad)
    bad.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no edges"):
        load_edge_list(bad)


def test_index_of_unknown_label(triangle):
    with pytest.raises(ValueError, match="unknown vertex label"):
        triangle.index_of([7])


def test_problem_instance_validation(triangle):
    ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(graph=triangle, k=0)
    with pytest.raises(ValueError):
        ProblemInstance(graph=triangle, k=4)
    with pytest.raises(ValueError):
        ProblemInstance(graph=triangle, k=2, loading=-0.5)


def test_induced_edge_count(two_triangles):
    assert induced_edge_count(two_triangles, [0, 1, 2]) == 3
    assert induced_edge_count(two_triangles, [0, 1, 3]) == 1
    assert induced_edge_count(two_triangles, [0, 3]) == 0
    with pytest.raises(ValueError):
        induced_edge_count(two_triangles, [0, 0])
    with pytest.raises(ValueError):
        induced_edge_count(two_triangles, [0, 6])


def test_normalized_density(two_triangles, star5):
    assert normalized_density(two_triangles, [0, 1, 2]) == 1.0
    assert normalized_density(star5, [0, 1, 2]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        normalized_density(two_triangles, [0])


def test_random_graph_density_against_matrix():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_graph(int(rng.integers(3, 20)), float(rng.uniform(0.2, 0.8)), rng)
        k = int(rng.integers(2, g.n + 1))
        subset = rng.choice(g.n, size=k, replace=False)
        ind = np.zeros(g.n)
        ind[subset] = 1.0
        expected = ind @ g.matrix.dot(ind) / 2.0
        assert induced_edge_count(g, subset) == int(expected)
