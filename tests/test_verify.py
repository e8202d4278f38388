"""Quick runs of the property suites and the family generator."""

import numpy as np
import pytest

from dks.graph import ProblemInstance
from dks.oracle import exact_dks
from dks.verify import (SUITES, SuiteResult, best_rounded_value, random_gnp,
                        run_suites, small_graph_family, suite_landscape,
                        suite_motzkin, suite_rounding, suite_tightness)


def test_family_shape():
    family = small_graph_family(seed=0, random_count=10)
    names = [name for name, _ in family]
    atlas = [g for name, g in family if name.startswith("atlas")]
    randoms = [g for name, g in family if name.startswith("rand")]
    # one representative per isomorphism class of connected graphs on 2..6
    # vertices: 1 + 2 + 6 + 21 + 112
    assert len(atlas) == 142
    assert len(randoms) == 10
    assert all(2 <= g.n <= 6 for g in atlas)
    assert all(7 <= g.n <= 12 for g in randoms)
    assert all(g.m >= 1 for g in randoms)
    assert len(set(names)) == len(names)


def test_family_max_n_truncation():
    family = small_graph_family(seed=0, random_count=10, max_n=4)
    assert all(g.n <= 4 for _, g in family)
    assert not any(name.startswith("rand") for name, _ in family)


def test_family_deterministic():
    fam1 = small_graph_family(seed=3, random_count=5)
    fam2 = small_graph_family(seed=3, random_count=5)
    for (n1, g1), (n2, g2) in zip(fam1, fam2):
        assert n1 == n2
        assert list(g1.edges()) == list(g2.edges())


def test_random_gnp_has_edge():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_gnp(6, 0.05, rng)
        assert g.m >= 1


def test_suite_motzkin_quick():
    result = suite_motzkin(max_n=5, random_count=0)
    assert result.passed
    assert result.checks > 0
    assert "PASS" in result.summary()


def test_suite_with_zero_checks_fails():
    result = suite_motzkin(max_n=1)
    assert result.checks == 0
    assert not result.passed
    assert "FAIL" in result.summary()


def test_suite_rounding_quick():
    result = suite_rounding(trials=300, max_n=15)
    assert result.passed
    assert result.checks == 300


def test_suite_tightness_quick():
    result = suite_tightness(max_n=4, random_count=0, random_points=50)
    assert result.passed
    assert result.checks > 0


def test_suite_landscape_quick():
    result = suite_landscape(trials=200, max_n=15)
    assert result.passed
    assert result.checks == 200


def test_best_rounded_value_triangle(triangle):
    inst = ProblemInstance(graph=triangle, k=2, loading=1.0)
    opt, _ = exact_dks(triangle, 2, 1.0)
    assert best_rounded_value(inst, random_points=20) == pytest.approx(opt)


def test_run_suites_dispatch():
    results = run_suites(["motzkin", "landscape"], max_n=4, seed=0)
    assert [r.name for r in results] == ["motzkin", "landscape"]
    assert all(r.passed for r in results)


def test_run_suites_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nonsense"], max_n=8, seed=0)


@pytest.mark.parametrize("max_n, random_count, pool_n", [(4, 0, 20), (7, 20, 35)])
def test_run_suites_quick_settings(monkeypatch, max_n, random_count, pool_n):
    # the quick runs behind `dks verify`: each suite's settings and the seed
    calls = []
    for name in SUITES:
        def recorder(name=name, **kwargs):
            calls.append((name, kwargs))
            return SuiteResult(name, True, 1)
        monkeypatch.setattr(f"dks.verify.suite_{name}", recorder)
    results = run_suites(list(SUITES), max_n=max_n, seed=3)
    assert [r.name for r in results] == list(SUITES)
    assert calls == [
        ("motzkin", dict(max_n=max_n, seed=3, random_count=random_count)),
        ("rounding", dict(seed=3, trials=2000, max_n=pool_n)),
        ("tightness", dict(max_n=max_n, seed=3, random_count=random_count,
                           random_points=100)),
        ("landscape", dict(seed=3, trials=1000, max_n=pool_n)),
    ]
    # an unknown name raises after the suites named before it have run
    calls.clear()
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["rounding", "nonsense", "motzkin"], max_n=max_n, seed=3)
    assert [name for name, _ in calls] == ["rounding"]


def test_summary_failure_format():
    result = SuiteResult("demo", False, 7, failure="graph X: broke")
    text = result.summary()
    assert "FAIL" in text
    assert "7 checks" in text
    assert "graph X: broke" in text
