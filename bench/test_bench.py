"""Tests of the benchmark itself: python -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from gen import GraphSpec, induced_edges, write_graph  # noqa: E402
from run import Run  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import (ROUND_KS, SWEEP_KS, SWEEP_SOLVERS, WORKLOADS,  # noqa: E402
                       Inputs, check)

SMALL = GraphSpec(n=3000, draws=15000, beta=2.5, clique=20)


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")


@pytest.fixture
def inputs(tmp_path):
    gen = write_graph(str(tmp_path / "g.txt"), SMALL, seed=5)
    tiny = write_graph(str(tmp_path / "tiny.txt"), GraphSpec(24, 40, 2.5, 5), seed=5)
    return Inputs(graph=gen, tiny=tiny, work=tmp_path)


def test_same_seed_gives_byte_identical_files(tmp_path):
    a = write_graph(str(tmp_path / "a.txt"), SMALL, seed=3)
    b = write_graph(str(tmp_path / "b.txt"), SMALL, seed=3)
    c = write_graph(str(tmp_path / "c.txt"), SMALL, seed=4)
    text = Path(a.path).read_bytes()
    assert text == Path(b.path).read_bytes()
    assert text != Path(c.path).read_bytes()
    assert np.array_equal(a.planted, b.planted)


def test_generated_file_exercises_the_loader(inputs):
    import dks

    gen = inputs.graph
    lines = Path(gen.path).read_text().splitlines()
    assert lines[0].startswith("#")
    pairs = np.array([ln.split() for ln in lines if not ln.startswith("#")],
                     dtype=np.int64)
    assert (pairs[:, 0] == pairs[:, 1]).any()                      # self-loops
    assert len(np.unique(np.sort(pairs, axis=1), axis=0)) < len(pairs)  # repeats
    assert pairs.min() > gen.n                                     # sparse labels
    g = dks.load_edge_list(gen.path)
    assert (g.n, g.m) == (gen.n, gen.m)
    assert np.array_equal(g.original_ids, gen.labels)
    assert induced_edges(gen, gen.planted) == SMALL.clique * (SMALL.clique - 1) // 2


def solve_payload(gen, verts):
    return json.dumps({"vertices": [int(v) for v in verts],
                       "induced_edges": induced_edges(gen, verts)})


def test_solve_check_catches_a_wrong_edge_count(inputs):
    gen = inputs.graph
    verts = np.concatenate([gen.planted, gen.labels[:60]])
    verts = np.unique(verts)[:60]
    wl = WORKLOADS["solve-large"]
    good = solve_payload(gen, verts)
    assert check(wl, inputs, 0, good)[0] == []
    bad = json.loads(good)
    bad["induced_edges"] += 1
    assert check(wl, inputs, 0, json.dumps(bad))[0]
    dup = json.loads(good)
    dup["vertices"][1] = dup["vertices"][0]
    assert check(wl, inputs, 0, json.dumps(dup))[0]
    assert check(wl, inputs, 4, good)[0] == ["exit code 4"]


def write_sweep(inputs, density, bound):
    gen = inputs.graph
    records = [{"k": k, "solver": s, "n": gen.n, "m": gen.m, "status": "ok",
                "normalized_density": density, "upper_bound": bound}
               for k in SWEEP_KS for s in SWEEP_SOLVERS]
    (inputs.work / "out").write_text(json.dumps(records))
    return records


def test_sweep_check_catches_density_above_bound(inputs):
    wl = WORKLOADS["sweep-medium"]
    write_sweep(inputs, 0.5, 0.6)
    fails, quality = check(wl, inputs, 0, "")
    assert fails == [] and quality["bound_ratio"] == pytest.approx(0.5 / 0.6)
    records = write_sweep(inputs, 0.5, 0.6)
    records[3]["normalized_density"] = 0.7
    (inputs.work / "out").write_text(json.dumps(records))
    assert check(wl, inputs, 0, "")[0]
    records[3]["normalized_density"] = 0.5
    records[5]["status"] = "failed: boom"
    (inputs.work / "out").write_text(json.dumps(records))
    assert check(wl, inputs, 0, "")[0]
    (inputs.work / "out").write_text(json.dumps(records[:-1]))
    assert check(wl, inputs, 0, "")[0]


def test_round_check_passes_real_output_and_catches_tampering(inputs):
    from op import round_op

    wl = WORKLOADS["round-medium"]
    out = inputs.work / "out.npz"
    round_op(inputs.graph.path, ROUND_KS, str(out))
    fails, quality = check(wl, inputs, 0, "")
    assert fails == [] and quality["objective_ratio"] >= 1.0
    with np.load(out) as res:
        data = {k: res[k] for k in res.files}
    tampered = dict(data, x20=np.where(data["x20"] == 1.0, 0.5, data["x20"]))
    np.savez(out, **tampered)
    assert check(wl, inputs, 0, "")[0]
    np.savez(out, **dict(data, bound200=np.array(0.0)))
    assert check(wl, inputs, 0, "")[0]


def test_run_counts_failures_and_output_drift(inputs):
    gen = inputs.graph
    outside = gen.labels[~np.isin(gen.labels, gen.planted)]
    first = solve_payload(gen, outside[:60])
    drifted = solve_payload(gen, np.concatenate([gen.planted, outside[:40]]))
    wrong = json.loads(first)
    wrong["induced_edges"] += 1
    run = Run(WORKLOADS["solve-large"], inputs, deadline=0.0)
    for payload in (first, drifted, json.dumps(wrong), first):
        run.record(0, payload)
    assert (run.attempted, run.failed) == (4, 2)


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, "op"],
             ["report.run_sweep", 1.0, 9.0, 0, "op"],
             ["fw.fw_solve", 2.0, 5.0, 1, "op"],
             ["linalg.spectral_norm", 2.5, 3.0, 2, "op"]]
    assert self_times(spans) == pytest.approx([2.0, 5.0, 2.5, 0.5])


def test_traced_child_reports_every_layer(inputs):
    work = inputs.work
    plan = {"kind": "cli", "argv": ["solve", "--graph", inputs.tiny.path, "--k", "4",
                                    "--output", "json"],
            "stdout": str(work / "op.out"), "probe_graph": inputs.tiny.path,
            "probe_lines": inputs.tiny.lines, "tiny": inputs.tiny.path, "k": 4,
            "scratch": str(work / "report.json"), "spans": str(work / "spans.json")}
    (work / "plan.json").write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(BENCH / "op.py"), "trace", "--plan",
                           str(work / "plan.json")], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["code"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in res["metrics"] and not m["name"].startswith("trace.")]
    assert missing == []
    spans = json.loads((work / "spans.json").read_text())
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(-1 <= s[3] < i for i, s in enumerate(spans))
    assert {"report.solve_with", "fw.fw_solve", "graph.load_edge_list"} <= {
        s[0] for s in spans if s[4] == "op"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_follows_the_contract():
    import re

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
