"""Property suites that check the theory the solvers rely on.

Four suites, each exhaustive-or-seeded and deterministic:

- ``motzkin``: the simplex maximum of the loaded quadratic equals
  1 + (loading - 1)/omega (omega = clique number), attained by the
  uniform point over a maximum clique, for loading in [0, 1].
- ``rounding``: the rounding procedure never decreases the objective for
  loading >= 1 and always lands on an integral feasible point.
- ``tightness``: at loading = 1 the best rounded value matches the
  exhaustive integral optimum (relaxation is tight); below 1 the scaled
  simplex strictly beats the integral optimum whenever k is smaller than
  the clique number (relaxation has a gap) — both directions verified.
- ``landscape``: for loading > 1 a single rounding step strictly
  increases the objective by at least the predicted quadratic increment,
  so no non-integral point is locally maximal.

The suites are the library behind the ``verify`` CLI subcommand and the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fw import FwConfig, fw_multi_start
from .graph import Graph, ProblemInstance
from .linalg import quadratic_form
from .oracle import exact_dks, max_clique, simplex_qp_max
from .points import random_feasible_point
from .rounding import fractional_indices, round_to_integral, rounding_step

MOTZKIN_LOADINGS = (0.0, 0.25, 0.5, 0.75, 1.0)
GAP_LOADINGS = (0.0, 0.5)
ROUNDING_LOADINGS = (1.0, 1.5, 2.0)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    details: str = ""
    failure: str = field(default="")

    def __post_init__(self):
        # A suite that checked nothing has shown nothing: never a pass.
        if self.checks == 0 and self.passed:
            self.passed = False
            self.failure = "no checks ran"

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.checks} checks"
        if self.details:
            line += f"; {self.details}"
        line += ")"
        if not self.passed and self.failure:
            line += "\n" + self.failure
        return line


def _edge_list_str(g: Graph) -> str:
    return " ".join(f"{i}-{j}" for i, j in g.edges())


def random_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Seeded Erdos-Renyi graph; resamples until at least one edge exists."""
    while True:
        upper = rng.random((n, n)) < p
        rows, cols = np.nonzero(np.triu(upper, k=1))
        if len(rows):
            edges = np.column_stack([rows, cols]).astype(np.int64)
            return Graph.from_edges(n, edges)


def _gnp_pool(seed: int, max_n: int):
    """The seeded generator and the 25 graphs it draws first, n in [5, max_n]."""
    rng = np.random.default_rng(seed)
    return rng, [random_gnp(int(rng.integers(5, max_n + 1)),
                            float(rng.uniform(0.1, 0.7)), rng) for _ in range(25)]


def small_graph_family(seed: int = 0, random_count: int = 50,
                       max_n: int = 12):
    """The canonical small-graph test family as (name, Graph) pairs.

    One representative of every isomorphism class of connected graphs on
    2..6 vertices (via the networkx graph atlas), plus ``random_count``
    seeded random graphs with 7..12 vertices.  ``max_n`` truncates the
    family (used by the CLI to keep quick runs quick).
    """
    try:
        import networkx as nx
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise ImportError(
            "the graph atlas family needs networkx; install the test extra "
            "(pip install 'dks[test]')") from exc
    family = []
    for idx, ag in enumerate(nx.graph_atlas_g()):
        n = ag.number_of_nodes()
        if n < 2 or n > min(6, max_n):
            continue
        if not nx.is_connected(ag):
            continue
        edges = np.array([(int(u), int(v)) for u, v in ag.edges()], dtype=np.int64)
        family.append((f"atlas{idx}", Graph.from_edges(n, edges)))
    if max_n >= 7:
        rng = np.random.default_rng(seed)
        for i in range(random_count):
            n = int(rng.integers(7, min(12, max_n) + 1))
            p = float(rng.uniform(0.2, 0.8))
            family.append((f"rand{i}-n{n}", random_gnp(n, p, rng)))
    return family


def suite_motzkin(max_n: int = 12, seed: int = 0,
                  random_count: int = 50) -> SuiteResult:
    """Simplex maximum = 1 + (loading-1)/omega, attained on a max clique."""
    family = small_graph_family(seed, random_count, max_n)
    checks = 0
    for name, g in family:
        omega, clique = max_clique(g)
        uniform_clique = np.zeros(g.n)
        uniform_clique[clique] = 1.0 / omega
        for lam in MOTZKIN_LOADINGS:
            predicted = 1.0 + (lam - 1.0) / omega
            value, _ = simplex_qp_max(g, lam, scale=1.0, restarts=3, seed=seed)
            attained = quadratic_form(g, lam, uniform_clique)
            checks += 1
            if not (predicted - 1e-6 <= value <= predicted + 1e-9):
                return SuiteResult(
                    "motzkin", False, checks,
                    failure=f"graph {name} ({_edge_list_str(g)}), loading={lam}: "
                            f"oracle value {value!r} vs predicted {predicted!r}")
            if abs(attained - predicted) > 1e-12:
                return SuiteResult(
                    "motzkin", False, checks,
                    failure=f"graph {name} ({_edge_list_str(g)}), loading={lam}: "
                            f"clique-uniform value {attained!r} != {predicted!r}")
    return SuiteResult("motzkin", True, checks,
                       details=f"{len(family)} graphs x {len(MOTZKIN_LOADINGS)} loadings")


def suite_rounding(seed: int = 0, trials: int = 10000,
                   max_n: int = 50) -> SuiteResult:
    """Objective never decreases under rounding; output integral feasible."""
    rng, pool = _gnp_pool(seed, max_n)
    checks = 0
    for trial in range(trials):
        g = pool[trial % len(pool)]
        lam = ROUNDING_LOADINGS[trial % len(ROUNDING_LOADINGS)]
        k = int(rng.integers(1, g.n + 1))
        inst = ProblemInstance(graph=g, k=k, loading=lam)
        x = random_feasible_point(g.n, k, rng)
        before = quadratic_form(g, lam, x)
        rounded = round_to_integral(inst, x)
        after = quadratic_form(g, lam, rounded)
        checks += 1
        integral = np.all((rounded == 0.0) | (rounded == 1.0))
        if (after < before - 1e-9 * (1.0 + abs(before))
                or not integral or int(rounded.sum()) != k):
            return SuiteResult(
                "rounding", False, checks,
                failure=f"graph ({_edge_list_str(g)}), k={k}, loading={lam}, "
                        f"x={x.tolist()!r}: value {before!r} -> {after!r}, "
                        f"integral={bool(integral)}")
    return SuiteResult("rounding", True, checks,
                       details=f"{len(pool)} graphs, loadings {ROUNDING_LOADINGS}")


def best_rounded_value(inst: ProblemInstance, seed: int = 0,
                       random_points: int = 200) -> float:
    """Best objective over rounded multi-start FW runs and random points.

    Candidates: the final point of every Frank-Wolfe multi-start run
    (uniform start plus one bumped start per vertex), the rounding of each
    of those finals, and the rounding of ``random_points`` seeded random
    feasible points.  All candidates are integral before scoring (FW
    finals go through the top-k projection).
    """
    g, k, lam = inst.graph, inst.k, inst.loading
    best = -np.inf
    cfg = FwConfig(max_iters=200)
    for report in fw_multi_start(inst, cfg):
        best = max(best, report.selection.objective_at_loading)
        if not report.integral:
            rounded = round_to_integral(inst, report.final_point)
            best = max(best, quadratic_form(g, lam, rounded))
    rng = np.random.default_rng(seed)
    for _ in range(random_points):
        x = random_feasible_point(g.n, k, rng)
        rounded = round_to_integral(inst, x)
        best = max(best, quadratic_form(g, lam, rounded))
    return best


def suite_tightness(max_n: int = 10, seed: int = 0, random_count: int = 50,
                    random_points: int = 200) -> SuiteResult:
    """Tight at loading 1; strict relaxation gap below 1 when k < omega."""
    family = small_graph_family(seed, random_count)
    checks = 0
    for name, g in family:
        if g.n > max_n:
            continue
        omega, _ = max_clique(g)
        for k in range(1, g.n + 1):
            inst = ProblemInstance(graph=g, k=k, loading=1.0)
            opt, _ = exact_dks(g, k, 1.0)
            best = best_rounded_value(inst, seed=seed, random_points=random_points)
            checks += 1
            if best > opt + 1e-9:
                return SuiteResult(
                    "tightness", False, checks,
                    failure=f"graph {name} ({_edge_list_str(g)}), k={k}, loading=1: "
                            f"rounded value {best!r} exceeds optimum {opt!r}")
            if best < opt - 1e-9:
                return SuiteResult(
                    "tightness", False, checks,
                    failure=f"graph {name} ({_edge_list_str(g)}), k={k}, loading=1: "
                            f"best rounded value {best!r} misses optimum {opt!r}")
        # Below loading 1 and below the clique number the scaled-simplex
        # maximum strictly exceeds the integral optimum k(k+loading-1).
        for k in range(1, omega):
            for lam in GAP_LOADINGS:
                predicted_integral = k * (k + lam - 1.0)
                opt, _ = exact_dks(g, k, lam)
                simplex_floor = k**2 + k**2 * (lam - 1.0) / omega
                value, _ = simplex_qp_max(g, lam, scale=float(k), restarts=3, seed=seed)
                checks += 1
                if abs(opt - predicted_integral) > 1e-9:
                    return SuiteResult(
                        "tightness", False, checks,
                        failure=f"graph {name} ({_edge_list_str(g)}), k={k}, "
                                f"loading={lam}: integral optimum {opt!r} != "
                                f"k(k+loading-1) = {predicted_integral!r}")
                if value < simplex_floor - 1e-6 or value <= opt:
                    return SuiteResult(
                        "tightness", False, checks,
                        failure=f"graph {name} ({_edge_list_str(g)}), k={k}, "
                                f"loading={lam}: simplex value {value!r}, "
                                f"floor {simplex_floor!r}, integral {opt!r} "
                                "(strict gap expected)")
    return SuiteResult("tightness", True, checks,
                       details="equality at loading 1 and strict gap below 1")


def suite_landscape(seed: int = 0, trials: int = 1000, loading: float = 1.5,
                    max_n: int = 50) -> SuiteResult:
    """One rounding step strictly increases the objective when loading > 1."""
    rng, pool = _gnp_pool(seed, max_n)
    checks = 0
    done = 0
    while done < trials:
        g = pool[done % len(pool)]
        k = int(rng.integers(1, g.n))
        x = random_feasible_point(g.n, k, rng)
        if len(fractional_indices(x)) < 2:
            continue
        inst = ProblemInstance(graph=g, k=k, loading=loading)
        before = quadratic_form(g, loading, x)
        stepped, i, j, delta, is_edge = rounding_step(inst, x)
        after = quadratic_form(g, loading, stepped)
        floor = (2.0 * (loading - 1.0) if is_edge else 2.0 * loading) * delta**2
        checks += 1
        done += 1
        if after - before < floor - 1e-9:
            return SuiteResult(
                "landscape", False, checks,
                failure=f"graph ({_edge_list_str(g)}), k={k}, loading={loading}, "
                        f"x={x.tolist()!r}: increase {after - before!r} below "
                        f"predicted floor {floor!r} (i={i}, j={j}, delta={delta}, "
                        f"edge={is_edge})")
    return SuiteResult("landscape", True, checks,
                       details=f"loading {loading}, strict quadratic increase")


# Each suite's quick run at a shared size cap ``max_n``, keyed by its name.
SUITES = {
    "motzkin": lambda max_n, seed: suite_motzkin(
        max_n=max_n, seed=seed, random_count=20 if max_n >= 7 else 0),
    "rounding": lambda max_n, seed: suite_rounding(
        seed=seed, trials=2000, max_n=max(5, min(50, max_n * 5))),
    "tightness": lambda max_n, seed: suite_tightness(
        max_n=max_n, seed=seed, random_count=20 if max_n >= 7 else 0,
        random_points=100),
    "landscape": lambda max_n, seed: suite_landscape(
        seed=seed, trials=1000, max_n=max(5, min(50, max_n * 5))),
}


def run_suites(names, max_n: int, seed: int):
    """Run the named suites' quick runs from ``SUITES``; returns SuiteResults."""
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.append(SUITES[name](max_n, seed))
    return results
