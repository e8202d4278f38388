"""Shared fixtures: the small named graphs used throughout the tests."""

import os
import socket
import sys

import numpy as np
import pytest

import dks.linalg
from dks import Graph


@pytest.fixture
def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def two_triangles():
    # two disjoint triangles: {0,1,2} and {3,4,5}
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


@pytest.fixture
def star5():
    # K_{1,4} with the hub at vertex 0
    return Graph.from_edges(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def single_edge():
    return Graph.from_edges(2, [(0, 1)])


@pytest.fixture
def edgeless4():
    return Graph.from_edges(4, [])


@pytest.fixture
def k5():
    return Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


@pytest.fixture
def no_network(monkeypatch):
    """Fail the test on any attempt to resolve a host or open a connection."""
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted")
    monkeypatch.setattr(socket, "getaddrinfo", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr(socket.socket, "connect", refuse)


@pytest.fixture
def eigensolves(monkeypatch):
    """Count calls of ``dks.linalg.leading_eigenpair``, however a module got it.

    Returns the list a wrapper appends to on every call; every dks module
    that holds the function under that name is patched.
    """
    original = dks.linalg.leading_eigenpair
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "dks"
                and getattr(mod, "leading_eigenpair", None) is original):
            monkeypatch.setattr(mod, "leading_eigenpair", counted)
    return calls


def random_graph(n, p, rng):
    """G(n, p) as a Graph; may be edgeless for small p."""
    mask = np.triu(rng.random((n, n)) < p, k=1)
    rows, cols = np.nonzero(mask)
    edges = np.column_stack([rows, cols]) if len(rows) else []
    return Graph.from_edges(n, edges)


def facebook_path():
    """Path to the SNAP ego-Facebook edge list if the user has fetched it.

    Looked up under $DKS_DATA_DIR (default: <repo>/data).  The tests that
    need it skip with a download hint when the file is absent.
    """
    data_dir = os.environ.get(
        "DKS_DATA_DIR", os.path.join(os.path.dirname(os.path.dirname(__file__)), "data"))
    for name in ("facebook_combined.txt", "facebook_combined.txt.gz"):
        cand = os.path.join(data_dir, name)
        if os.path.exists(cand):
            return cand
    return None


FACEBOOK_SKIP = ("needs the SNAP ego-Facebook edge list; download "
                 "https://snap.stanford.edu/data/facebook_combined.txt.gz "
                 "into ./data/ or point DKS_DATA_DIR at it")
