"""Monotone rounding, the single step, selections, and the top-k projection."""

import numpy as np
import pytest

from dks import (Graph, ProblemInstance, greedy_feige, rank1_lrbo,
                 round_to_integral, rounding_step)
from dks.linalg import quadratic_form
from dks.points import is_feasible, random_feasible_point, uniform_point
from dks.report import score_labels
from dks.rounding import SNAP_TOL, fractional_indices, make_selection, project_top_k

from conftest import random_graph


def test_make_selection_two_triangles(two_triangles, star5):
    sel = make_selection(two_triangles, [2, 0, 1], loading=1.0)
    assert sel.vertices.tolist() == [0, 1, 2]
    assert sel.induced_edges == 3
    assert sel.normalized_density == 1.0
    assert sel.objective_at_loading == 9.0
    assert sel.k == 3
    assert make_selection(star5, [0, 1, 2]).normalized_density == pytest.approx(2.0 / 3.0)


def test_make_selection_k1_density_zero(triangle):
    sel = make_selection(triangle, [1], loading=2.0)
    assert sel.normalized_density == 0.0
    assert sel.objective_at_loading == 2.0


def test_make_selection_validation(triangle):
    with pytest.raises(ValueError):
        make_selection(triangle, [0, 0])
    with pytest.raises(ValueError):
        make_selection(triangle, [0, 3])
    # fractional and bool ids are refused, not truncated to [0, 1]
    for ids in ([0.9, 1.2], np.array([True, True, False])):
        with pytest.raises(ValueError, match="integers"):
            make_selection(triangle, ids)


@pytest.mark.parametrize("loading", [np.nan, np.inf, -5.0, 1e308],
                         ids=["nan", "inf", "negative", "huge"])
@pytest.mark.parametrize("build", [
    lambda g, lam: make_selection(g, [0, 1], lam),
    lambda g, lam: greedy_feige(g, 2, lam),
    lambda g, lam: rank1_lrbo(g, 2, lam),
    lambda g, lam: score_labels(g, [0, 1], lam),  # dks score's selection scoring
], ids=["make_selection", "greedy_feige", "rank1_lrbo", "score_selection"])
def test_selections_reject_bad_loading(triangle, build, loading):
    with pytest.raises(ValueError, match="loading"):
        build(triangle, loading)


def test_project_top_k(two_triangles):
    x = np.array([0.9, 0.8, 0.7, 0.1, 0.2, 0.0])
    sel = project_top_k(two_triangles, x, 3)
    assert sel.vertices.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        project_top_k(two_triangles, np.ones(2), 3)


def test_rounding_step_hand_case(star5):
    # hub half full, one leaf half full: mass flows toward the hub
    inst = ProblemInstance(graph=star5, k=2, loading=1.0)
    x0 = np.array([0.5, 0.5, 1.0, 0.0, 0.0])
    x1, i, j, delta, is_edge = rounding_step(inst, x0)
    assert (i, j) == (0, 1)
    assert delta == pytest.approx(0.5)
    assert is_edge
    assert x1.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0]
    assert (quadratic_form(inst.graph, inst.loading, x1)
            >= quadratic_form(inst.graph, inst.loading, x0) - 1e-12)
    assert quadratic_form(inst.graph, inst.loading, x1) == pytest.approx(4.0)


def test_rounding_step_needs_two_fractional(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError):
        rounding_step(inst, np.array([1.0, 1.0, 0.0]))


def test_rounding_step_delta_identity():
    # the reported objective change matches the closed form
    rng = np.random.default_rng(30)
    for _ in range(200):
        g = random_graph(int(rng.integers(3, 25)), float(rng.uniform(0.2, 0.8)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x = random_feasible_point(g.n, k, rng)
        if len(np.flatnonzero((x > 1e-9) & (x < 1 - 1e-9))) < 2:
            continue
        before = quadratic_form(inst.graph, inst.loading, x)
        s = g.matrix.dot(x)
        x1, i, j, delta, edge = rounding_step(inst, x)
        gain = quadratic_form(inst.graph, inst.loading, x1) - before
        dscore = (lam * x[i] + s[i]) - (lam * x[j] + s[j])
        curvature = (lam - 1.0) if edge else lam
        want = 2.0 * delta * dscore + 2.0 * curvature * delta * delta
        assert gain == pytest.approx(want, abs=1e-8)
        assert gain >= -1e-9 * max(1.0, abs(before))


def test_round_to_integral_hand_case():
    from dks import Graph
    # vertex 0 is adjacent to the saturated vertex 2, vertex 1 is not,
    # so the half unit of mass on 1 migrates to 0
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    inst = ProblemInstance(graph=g, k=2, loading=1.0)
    x = round_to_integral(inst, np.array([0.5, 0.5, 1.0, 0.0]))
    assert x.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert quadratic_form(inst.graph, inst.loading, x) == pytest.approx(4.0)


def test_round_never_decreases_objective():
    rng = np.random.default_rng(31)
    for _ in range(300):
        g = random_graph(int(rng.integers(2, 30)), float(rng.uniform(0.1, 0.9)), rng)
        k = int(rng.integers(1, g.n + 1))
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x0 = random_feasible_point(g.n, k, rng)
        x1 = round_to_integral(inst, x0)
        assert not len(fractional_indices(x1))
        assert is_feasible(x1, k, tol=0.0)
        assert int(x1.sum()) == k
        before = quadratic_form(inst.graph, inst.loading, x0)
        after = quadratic_form(inst.graph, inst.loading, x1)
        assert after >= before - 1e-9 * max(1.0, abs(before))


def test_round_strict_increase_above_loading_one():
    rng = np.random.default_rng(32)
    seen = 0
    while seen < 50:
        g = random_graph(int(rng.integers(4, 20)), float(rng.uniform(0.3, 0.7)), rng)
        k = int(rng.integers(2, g.n))
        inst = ProblemInstance(graph=g, k=k, loading=1.5)
        x0 = random_feasible_point(g.n, k, rng)
        frac = np.flatnonzero((x0 > 1e-9) & (x0 < 1 - 1e-9))
        if len(frac) < 2:
            continue
        x1 = round_to_integral(inst, x0)
        assert (quadratic_form(inst.graph, inst.loading, x1)
                > quadratic_form(inst.graph, inst.loading, x0))
        seen += 1


def test_round_preserves_integral_input(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    x0 = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert round_to_integral(inst, x0).tolist() == x0.tolist()


def test_round_rejects_small_loading(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=0.5)
    with pytest.raises(ValueError, match="loading"):
        round_to_integral(inst, np.array([0.7, 0.7, 0.6]))


def test_round_rejects_infeasible_point(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError, match="feasible"):
        round_to_integral(inst, np.array([0.9, 0.9, 0.9]))


def test_round_snaps_near_integral_noise(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    x0 = np.array([1.0 - 1e-12, 1e-12, 1.0, 1.0, 0.0, 0.0])
    x1 = round_to_integral(inst, x0)
    assert x1.tolist() == [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]


C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
EDGELESS4 = Graph.from_edges(4, [])
K33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])


@pytest.mark.parametrize("graph, k, loading, want", [
    (C6, 3, 1.0, [1, 0, 0, 0, 1, 1]),
    (C6, 3, 1.5, [1, 0, 0, 0, 1, 1]),
    (EDGELESS4, 2, 1.0, [1, 0, 1, 0]),
    (K33, 2, 1.0, [1, 0, 0, 1, 0, 0]),
], ids=["C6-1", "C6-1.5", "edgeless4", "K33"])
def test_round_uniform_point_tie_breaking(graph, k, loading, want):
    # these graphs are regular, so every score ties at the uniform point and
    # the lowest-index choices alone fix the rounded vertex set
    inst = ProblemInstance(graph=graph, k=k, loading=loading)
    x = round_to_integral(inst, uniform_point(graph.n, k))
    assert x.tolist() == want


def _reference_round(inst, x):
    """The scan loop ``round_to_integral`` replaced, kept verbatim as the
    reference: every step rescores all fractional coordinates."""
    g, lam = inst.graph, inst.loading
    x = np.asarray(x, dtype=np.float64).copy()
    near_int = (x <= SNAP_TOL) | (x >= 1.0 - SNAP_TOL)
    x[near_int] = np.round(x[near_int])
    s = g.matrix.dot(x)
    frac = np.flatnonzero((x > SNAP_TOL) & (x < 1.0 - SNAP_TOL))
    for _ in range(g.n + 1):
        if len(frac) < 2:
            break
        scores = lam * x[frac] + s[frac]
        top = int(np.argmax(scores))
        i = int(frac[top])
        scores[top] = np.inf
        j = int(frac[np.argmin(scores)])
        delta = float(min(x[j], 1.0 - x[i]))
        for v, change in ((i, delta), (j, -delta)):
            old = x[v]
            x[v] += change
            if x[v] <= SNAP_TOL:
                x[v] = 0.0
            elif x[v] >= 1.0 - SNAP_TOL:
                x[v] = 1.0
            s[g.neighbors_of(v)] += x[v] - old
        frac = frac[(x[frac] > 0.0) & (x[frac] < 1.0)]
    else:
        raise RuntimeError("rounding failed to terminate (infeasible input?)")
    x[frac] = np.round(x[frac])
    ones = int(np.round(x.sum()))
    if ones != inst.k:
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


def _reference_move(x, s, v, nbrs, change):
    """``_move`` as it stood beside ``_reference_step``, kept verbatim."""
    old = x.item(v)
    new = old + change
    if new <= SNAP_TOL:
        new = 0.0
    elif new >= 1.0 - SNAP_TOL:
        new = 1.0
    x[v] = new
    s[nbrs] += new - old
    return new


def _reference_step(inst, x):
    """The O(m) scan ``rounding_step`` was before it became the first
    transfer of ``round_to_integral``, kept verbatim as the reference."""
    g, lam = inst.graph, inst.loading
    x = np.asarray(x, dtype=np.float64).copy()
    frac = np.flatnonzero((x > SNAP_TOL) & (x < 1.0 - SNAP_TOL))
    if len(frac) < 2:
        raise ValueError("rounding step needs at least two fractional coordinates")
    s = g.matrix.dot(x)
    scores = lam * x[frac] + s[frac]
    top = int(np.argmax(scores))
    i = int(frac[top])
    scores[top] = np.inf
    j = int(frac[np.argmin(scores)])
    delta = float(min(x[j], 1.0 - x[i]))
    _reference_move(x, s, i, g.neighbors_of(i), delta)
    _reference_move(x, s, j, g.neighbors_of(j), -delta)
    return x, i, j, delta, g.has_edge(i, j)


def _relabel(n, edges, rng):
    label = rng.permutation(n)
    return Graph.from_edges(n, [(label[a], label[b]) for a, b in edges])


def _hub_graph(n, hubs, rng):
    """``hubs`` mutually adjacent hubs, each leaf joined to a random subset
    of them, randomly relabelled so the hubs sit at any index."""
    edges = [(a, b) for a in range(hubs) for b in range(a + 1, hubs)]
    edges += [(h, v) for v in range(hubs, n) for h in range(hubs)
              if rng.random() < 0.7]
    return _relabel(n, edges, rng)


def _equal_stars(stars, leaves, rng):
    """Disjoint copies of one star.  Their hubs tie, so at loading 1 the
    receiver's score can fall by an ulp below an untouched twin hub."""
    size = leaves + 1
    edges = [(c * size, c * size + t) for c in range(stars)
             for t in range(1, size)]
    return _relabel(stars * size, edges, rng)


def _quarter_point(n, k, rng):
    """A feasible point with every coordinate a multiple of 1/4, so many
    scores tie exactly."""
    units = rng.choice(4 * n, size=4 * k, replace=False) // 4
    return np.bincount(units, minlength=n) / 4.0


def test_round_matches_reference_scan_loop():
    # The incremental loop must pick the same pairs with the same
    # arithmetic as the scan loop, so the outputs are bit-identical.
    rng = np.random.default_rng(60)
    for case in range(1500):
        n = int(rng.integers(2, 41))
        kind, start = case % 3, (case // 3) % 3
        loading = float(rng.choice([1.0, 1.5, 2.0]))
        if kind == 0:
            g = random_graph(n, float(rng.uniform(0.05, 0.9)), rng)
        elif kind == 1:
            g = _hub_graph(n, int(rng.integers(1, min(4, n) + 1)), rng)
        else:
            # equal stars from the uniform point at loading 1: the case
            # where the receiver's score falls and the receiver is re-picked
            g = _equal_stars(int(rng.integers(2, 5)), int(rng.integers(1, 9)), rng)
            n, start, loading = g.n, 1, 1.0
        k = int(rng.integers(1, n + 1))
        inst = ProblemInstance(graph=g, k=k, loading=loading)
        if start == 0:
            x0 = random_feasible_point(n, k, rng)
        elif start == 1:
            x0 = uniform_point(n, k)
        else:
            x0 = _quarter_point(n, k, rng)
        want = _reference_round(inst, x0)
        assert np.array_equal(round_to_integral(inst, x0), want), case


def _near_integral(x, rng):
    """x with about a third of its coordinates moved to within SNAP_TOL of
    0 or 1, unsnapped, so the step scores them as they are."""
    x = x.copy()
    near = rng.random(len(x)) < 1 / 3
    noise = rng.choice([SNAP_TOL, SNAP_TOL / 2, 1e-12, 0.0], size=len(x))
    x[near] = np.where(rng.random(len(x)) < 0.5, noise, 1.0 - noise)[near]
    return x


def test_rounding_step_matches_reference_scan():
    # rounding_step is the first transfer of round_to_integral; it must
    # pick the pair and move it exactly as the O(m) scan did.
    rng = np.random.default_rng(61)
    checked = 0
    for case in range(1600):
        n = int(rng.integers(2, 41))
        kind, start = case % 3, (case // 3) % 4
        loading = float(rng.choice([1.0, 1.5, 2.0, 3.7]))
        if kind == 0:
            g = random_graph(n, float(rng.uniform(0.05, 0.9)), rng)
        elif kind == 1:
            g = _hub_graph(n, int(rng.integers(1, min(4, n) + 1)), rng)
        else:
            g = _equal_stars(int(rng.integers(2, 5)), int(rng.integers(1, 9)), rng)
            n = g.n
        k = int(rng.integers(1, n + 1))
        inst = ProblemInstance(graph=g, k=k, loading=loading)
        if start == 0:
            x0 = random_feasible_point(n, k, rng)
        elif start == 1:
            x0 = uniform_point(n, k)
        elif start == 2:
            x0 = _quarter_point(n, k, rng)
        else:
            x0 = _near_integral(random_feasible_point(n, k, rng), rng)
        try:
            want = _reference_step(inst, x0)
        except ValueError:
            with pytest.raises(ValueError, match="two fractional"):
                rounding_step(inst, x0)
            continue
        got = rounding_step(inst, x0)
        assert np.array_equal(got[0], want[0]), case
        assert got[1:] == want[1:], case
        checked += 1
    assert checked >= 1000
