"""Sweep records, serialization round-trips, and selection scoring."""

import json

import numpy as np
import pytest

from dks import Graph
from dks.report import (SOLVER_NAMES, ExperimentRecord, format_float,
                        load_selection_file, read_report, run_sweep,
                        score_selection, solve_with, write_report)
from dks.graph import ProblemInstance

from conftest import random_graph


def make_record(**overrides):
    base = dict(dataset="toy", n=6, m=6, k=3, loading=1.0, solver="fw",
                normalized_density=1.0, objective=9.0, iterations=4,
                wall_time_s=0.0123456789012345, integral_before_projection=True,
                upper_bound=1.0, status="ok")
    base.update(overrides)
    return ExperimentRecord(**base)


def test_format_float_sig_digits():
    assert format_float(1.0) == "1"
    assert format_float(1.0 / 3.0) == "0.333333333333"
    assert format_float(1234567.25) == "1234567.25"


def test_round_trip_csv_and_json(tmp_path):
    records = [make_record(), make_record(solver="greedy", k=2,
                                          normalized_density=2.0 / 3.0),
               make_record(solver="param", status="failed: boom",
                           normalized_density=None, objective=None,
                           iterations=None, wall_time_s=None,
                           integral_before_projection=None, upper_bound=None)]
    for name in ("out.csv", "out.json"):
        path = tmp_path / name
        write_report(records, path)
        back = read_report(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for f in ("dataset", "n", "m", "k", "solver", "status",
                      "iterations", "integral_before_projection",
                      "upper_bound"):
                assert getattr(a, f) == getattr(b, f), f
            assert b.loading == a.loading
            if a.normalized_density is None:
                assert b.normalized_density is None
            else:
                assert b.normalized_density == pytest.approx(
                    a.normalized_density, rel=1e-11)


def test_write_report_explicit_fmt_wins(tmp_path):
    path = tmp_path / "data.json"
    write_report([make_record()], path, fmt="csv")
    text = path.read_text()
    assert text.startswith("dataset,")
    assert read_report(path, fmt="csv")[0].k == 3


def test_write_report_empty(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        write_report([], tmp_path / "x.csv")
    with pytest.raises(ValueError, match="format"):
        write_report([make_record()], tmp_path / "x.csv", fmt="xml")


def test_solve_with_dispatch(two_triangles):
    inst = ProblemInstance(graph=two_triangles, k=3, loading=1.0)
    for name in ("fw", "param", "greedy", "rank1"):
        rep = solve_with(name, inst)
        assert rep.solver_name.startswith(name)
        assert rep.selection.k == 3
        assert rep.selection.objective_at_loading == pytest.approx(9.0)
    with pytest.raises(ValueError, match="unknown solver"):
        solve_with("annealing", inst)


def test_run_sweep_two_triangles(two_triangles):
    records = run_sweep(two_triangles, 1.0, [2, 3], ["fw", "greedy"], dataset="2tri")
    assert len(records) == 4
    # sorted by (dataset, solver, k)
    assert [(r.solver, r.k) for r in records] == [
        ("fw", 2), ("fw", 3), ("greedy", 2), ("greedy", 3)]
    for r in records:
        assert r.status == "ok"
        assert r.normalized_density == pytest.approx(1.0)
        assert r.upper_bound >= r.normalized_density
        assert r.n == 6 and r.m == 6 and r.dataset == "2tri"


def test_run_sweep_k_equals_n(two_triangles):
    records = run_sweep(two_triangles, 1.0, [6], ["greedy"])
    # whole graph: density is 2m / (n(n-1))
    assert records[0].normalized_density == pytest.approx(12.0 / 30.0)


def test_run_sweep_failed_cell(star5):
    # greedy refuses k=1, so that cell reports "failed" and the rest run
    records = run_sweep(star5, 1.0, [1, 2], ["greedy"])
    by_k = {r.k: r for r in records}
    assert by_k[1].status.startswith("failed")
    assert by_k[1].normalized_density is None
    assert by_k[1].upper_bound is None
    assert by_k[2].status == "ok"


def test_run_sweep_validation(triangle):
    with pytest.raises(ValueError, match="sorted"):
        run_sweep(triangle, 1.0, [3, 2], ["greedy"])
    with pytest.raises(ValueError, match="strictly"):
        run_sweep(triangle, 1.0, [2, 2], ["greedy"])
    with pytest.raises(ValueError, match="outside"):
        run_sweep(triangle, 1.0, [4], ["greedy"])
    with pytest.raises(ValueError, match="unknown solver"):
        run_sweep(triangle, 1.0, [2], ["magic"])


def test_run_sweep_runs_one_perron_iteration(monkeypatch, eigensolves,
                                             two_triangles, star5):
    # one eigensolve serves the density bound and rank1; fw needs none
    import dks.report

    chosen = {}
    standalone = dks.report.solve_with

    def recorded(name, inst, **kwargs):
        rep = standalone(name, inst, **kwargs)
        chosen[name, inst.k] = rep.selection.vertices
        return rep

    monkeypatch.setattr(dks.report, "solve_with", recorded)
    rng = np.random.default_rng(11)
    family = [two_triangles, star5] + [
        random_graph(int(rng.integers(8, 25)), float(rng.uniform(0.2, 0.6)), rng)
        for _ in range(4)]
    for g in family:
        ks = sorted({2, 3, g.n // 2, g.n})
        eigensolves.clear()
        chosen.clear()
        records = run_sweep(g, 1.0, ks, ["fw", "rank1"])
        assert len(eigensolves) == 1
        assert all(r.status == "ok" for r in records)
        assert len(chosen) == 2 * len(ks)
        for (name, k), vertices in chosen.items():
            alone = standalone(name, ProblemInstance(graph=g, k=k, loading=1.0))
            np.testing.assert_array_equal(vertices, alone.selection.vertices)


def test_run_sweep_jobs_match(two_triangles):
    serial = run_sweep(two_triangles, 1.0, [2, 3], ["fw", "rank1"], jobs=1)
    parallel = run_sweep(two_triangles, 1.0, [2, 3], ["fw", "rank1"], jobs=4)
    for a, b in zip(serial, parallel):
        assert (a.solver, a.k) == (b.solver, b.k)
        assert a.normalized_density == b.normalized_density
        assert a.objective == b.objective
        assert a.iterations == b.iterations


def test_score_selection_with_labels():
    # labels are non-contiguous; scoring goes through the label index
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)],
                         original_ids=np.array([10, 20, 30, 40]))
    rec = score_selection(g, [10, 20, 30], dataset="labeled")
    assert rec.k == 3
    assert rec.normalized_density == pytest.approx(1.0)
    assert rec.solver == "external"
    assert rec.status == "ok"
    with pytest.raises(ValueError, match="duplicate vertices"):
        score_selection(g, [10, 10, 20])


def test_load_selection_file(tmp_path):
    path = tmp_path / "sel.txt"
    path.write_text("# chosen vertices\n10\n\n20\n30\n")
    assert load_selection_file(path) == [10, 20, 30]
    bad = tmp_path / "bad.txt"
    bad.write_text("10\npotato\n")
    with pytest.raises(ValueError, match="expected one integer"):
        load_selection_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no vertex ids"):
        load_selection_file(empty)


def test_run_sweep_fw_matches_standalone_solve(monkeypatch, two_triangles, star5):
    # every solver runs its default config in a sweep, and rank1 alone solves
    # at the eigen settings of the sweep's triple, so each cell must equal a
    # standalone solve bit for bit
    import dks.report

    standalone = dks.report.solve_with
    swept = {}

    def recorded(name, inst, **kwargs):
        swept[name, inst.k] = standalone(name, inst, **kwargs)
        return swept[name, inst.k]

    monkeypatch.setattr(dks.report, "solve_with", recorded)
    rng = np.random.default_rng(31)
    cases = [(random_graph(int(rng.integers(60, 200)),
                           float(rng.uniform(0.03, 0.15)), rng),
              [5, 10, 20, 40], SOLVER_NAMES) for _ in range(8)]
    # u1 has exactly tied entries here, so rank1's top-k cuts through ties
    cycle6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    cases += [(g, list(range(1, g.n + 1)), ["rank1"])
              for g in (two_triangles, star5, cycle6)]
    for g, ks, names in cases:
        swept.clear()
        for r in run_sweep(g, 1.0, ks, names):
            cell = swept[r.solver, r.k]
            alone = standalone(r.solver, ProblemInstance(graph=g, k=r.k, loading=1.0))
            where = (g.n, r.solver, r.k)
            assert r.status == "ok", where
            assert np.array_equal(cell.selection.vertices,
                                  alone.selection.vertices), where
            assert r.objective == alone.selection.objective_at_loading, where
            assert cell.iterations == alone.iterations, where
            assert np.array_equal(cell.final_point, alone.final_point), where


COLUMNS = ["dataset", "n", "m", "k", "lambda", "solver", "normalized_density",
           "objective", "iterations", "wall_time_s",
           "integral_before_projection", "upper_bound", "status"]


def test_wire_format(tmp_path):
    # the bytes a reader of the files sees: header, column order, empty cells
    failed = make_record(solver="param", normalized_density=None, objective=None,
                         iterations=None, wall_time_s=None,
                         integral_before_projection=None, upper_bound=0.5,
                         status="failed: boom")
    records = [make_record(), failed]
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    write_report(records, csv_path)
    write_report(records, json_path)
    assert csv_path.read_bytes().decode("utf-8").split("\r\n") == [
        ",".join(COLUMNS),
        "toy,6,6,3,1,fw,1,9,4,0.0123456789012,true,1,ok",
        "toy,6,6,3,1,param,,,,,,0.5,failed: boom",
        ""]
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert [list(d) for d in payload] == [COLUMNS, COLUMNS]
    assert list(payload[0].values()) == [
        "toy", 6, 6, 3, 1.0, "fw", 1.0, 9.0, 4, 0.0123456789012, True, 1.0, "ok"]
    assert list(payload[1].values())[6:] == [None] * 5 + [0.5, "failed: boom"]


def test_read_report_empty_cells_are_none(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text(",".join(COLUMNS) + "\ntoy,6,6,3,1.5,fw,,,,,,,ok\n",
                    encoding="utf-8")
    [rec] = read_report(path)
    assert (rec.dataset, rec.n, rec.m, rec.k, rec.loading, rec.solver,
            rec.status) == ("toy", 6, 6, 3, 1.5, "fw", "ok")
    for f in ("normalized_density", "objective", "iterations", "wall_time_s",
              "integral_before_projection", "upper_bound"):
        assert getattr(rec, f) is None, f
    path.write_text(",".join(COLUMNS) + "\ntoy,6,6,3,1.5,fw,0.25,2,7,0.5,false,1,ok\n",
                    encoding="utf-8")
    [rec] = read_report(path)
    assert (rec.normalized_density, rec.objective, rec.iterations,
            rec.wall_time_s, rec.integral_before_projection,
            rec.upper_bound) == (0.25, 2.0, 7, 0.5, False, 1.0)
    assert type(rec.iterations) is int and type(rec.objective) is float
