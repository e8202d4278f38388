"""The three workloads: their inputs, one operation each, and its checks.

Each check reads only the operation's output and what the generator
knows about its own graph, so it does not trust ``dks`` to grade itself.
A check returns a list of failure messages (empty when the output is
correct) and the quality figures of that output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import GeneratedGraph, GraphSpec, induced_edges, write_graph

TOL = 1e-9
SWEEP_KS = (10, 40, 100, 300, 1000)
SWEEP_SOLVERS = ("fw", "param", "greedy", "rank1")
ROUND_KS = (20, 200, 2000)

# The tiny graph every workload's traced run hands to the oracle.
TINY = GraphSpec(n=24, draws=40, beta=2.5, clique=5)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: GraphSpec
    k: int             # the k handed to probes in the traced run


# Why each workload exists is in BENCHMARK.json.  The planted clique's
# eigenvalue stands apart from the rest of the spectrum on every seed, so
# the power iterations take about the same number of steps on every seed;
# at beta=2.5 a 20-clique on n=7e3 did not, and the bound's cost varied 5x.
WORKLOADS = {w.name: w for w in (
    Workload("solve-large", GraphSpec(100_000, 1_000_000, 2.5, 60), 60),
    Workload("sweep-medium", GraphSpec(15_000, 150_000, 3.0, 40), 40),
    Workload("round-medium", GraphSpec(5_000, 50_000, 3.0, 20), 200),
)}


@dataclass
class Inputs:
    graph: GeneratedGraph
    tiny: GeneratedGraph
    work: Path


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's graph files for ``seed`` into ``work``."""
    graph = write_graph(str(work / f"{wl.name}.txt"), wl.spec, seed)
    tiny = write_graph(str(work / "tiny.txt"), TINY, seed)
    return Inputs(graph=graph, tiny=tiny, work=work)


def command(wl: Workload, inp: Inputs, bench_dir: Path) -> tuple[list, dict]:
    """The operation as a child-process argv, and what the trace replay needs."""
    out = inp.work / "out"
    if wl.name == "solve-large":
        args = ["solve", "--graph", inp.graph.path, "--k", "60", "--output", "json"]
    elif wl.name == "sweep-medium":
        args = ["sweep", "--graph", inp.graph.path,
                "--k-list", ",".join(map(str, SWEEP_KS)),
                "--solvers", ",".join(SWEEP_SOLVERS),
                "--format", "json", "--out", str(out)]
    else:
        argv = [sys.executable, str(bench_dir / "op.py"), "round",
                "--graph", inp.graph.path,
                "--ks", ",".join(map(str, ROUND_KS)), "--out", f"{out}.npz"]
        return argv, {"kind": "round", "graph": inp.graph.path,
                      "ks": list(ROUND_KS), "out": f"{out}.npz"}
    return [sys.executable, "-m", "dks", *args], {"kind": "cli", "argv": args}


def check(wl: Workload, inp: Inputs, code: int, stdout: str) -> tuple[list, dict]:
    """Failures and quality figures of one finished operation."""
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        return CHECKS[wl.name](inp, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}


def check_solve(inp: Inputs, stdout: str):
    gen = inp.graph
    k = 60
    payload = json.loads(stdout)
    verts = np.asarray(payload["vertices"], dtype=np.int64)
    fails = []
    if len(verts) != k or len(np.unique(verts)) != k:
        fails.append(f"expected {k} distinct vertices, got {len(verts)}")
    if not np.isin(verts, gen.labels).all():
        fails.append("a reported vertex is not a label of the input file")
    edges = induced_edges(gen, verts)
    if payload["induced_edges"] != edges:
        fails.append(f"induced_edges {payload['induced_edges']} != recount {edges}")
    quality = {"density.fw": 2.0 * edges / (k * (k - 1)),
               "recovery": np.isin(gen.planted, verts).mean()}
    return fails, quality


def check_sweep(inp: Inputs, stdout: str):
    gen = inp.graph
    records = json.loads((inp.work / "out").read_text(encoding="utf-8"))
    fails = []
    cells = {(r["k"], r["solver"]): r for r in records}
    want = {(k, s) for k in SWEEP_KS for s in SWEEP_SOLVERS}
    if set(cells) != want or len(records) != len(want):
        fails.append(f"grid has {len(records)} cells, want {len(want)}")
    for (k, s), r in sorted(cells.items()):
        if r["status"] != "ok":
            fails.append(f"k={k} {s}: status {r['status']!r}")
        elif r["n"] != gen.n or r["m"] != gen.m:
            fails.append(f"k={k} {s}: n, m = {r['n']}, {r['m']}, "
                         f"want {gen.n}, {gen.m}")
        elif r["upper_bound"] is not None and \
                r["normalized_density"] > r["upper_bound"] + TOL:
            fails.append(f"k={k} {s}: density {r['normalized_density']} "
                         f"above bound {r['upper_bound']}")
    if fails:
        return fails, {}
    dens = {s: [cells[k, s]["normalized_density"] for k in SWEEP_KS]
            for s in SWEEP_SOLVERS}
    best = [max(cells[k, s]["normalized_density"] for s in SWEEP_SOLVERS)
            for k in SWEEP_KS]
    ratios = [b / cells[k, "fw"]["upper_bound"] for k, b in zip(SWEEP_KS, best)
              if cells[k, "fw"]["upper_bound"] < 1.0]
    quality = {"density.fw": np.mean(dens["fw"]),
               "density.param": np.mean(dens["param"]),
               "density.best": np.mean(best),
               "bound_ratio": np.mean(ratios) if ratios else 1.0}
    return fails, quality


def check_round(inp: Inputs, stdout: str):
    gen = inp.graph
    with np.load(inp.work / "out.npz") as res:
        data = {key: res[key] for key in res.files}
    fails = []
    if int(data["n"]) != gen.n:
        return [f"graph has n={int(data['n'])}, want {gen.n}"], {}
    dens, ratios, recovery = [], [], 0.0
    for k in ROUND_KS:
        x = data[f"x{k}"]
        if not np.isin(x, (0.0, 1.0)).all() or int(x.sum()) != k:
            fails.append(f"k={k}: rounded point is not 0/1 with {k} ones")
            continue
        chosen = gen.labels[np.flatnonzero(x == 1.0)]
        edges = induced_edges(gen, chosen)
        if int(data[f"edges{k}"]) != edges:
            fails.append(f"k={k}: make_selection counts {int(data[f'edges{k}'])} "
                         f"edges, recount {edges}")
        density = 2.0 * edges / (k * (k - 1))
        bound = float(data[f"bound{k}"])
        if density > bound + TOL:
            fails.append(f"k={k}: density {density} above bound {bound}")
        # At loading 1 the uniform start is worth (k/n)^2 * 2m + k^2/n and
        # a 0/1 point with e edges is worth 2e + k.
        start = (k / gen.n) ** 2 * 2 * gen.m + k * k / gen.n
        ratio = (2.0 * edges + k) / start
        if ratio < 1.0 - TOL:
            fails.append(f"k={k}: rounding lost value, ratio {ratio}")
        dens.append(density)
        ratios.append(ratio)
        if k == len(gen.planted):
            recovery = np.isin(gen.planted, chosen).mean()
    if fails:
        return fails, {}
    return fails, {"density.round": np.mean(dens),
                   "objective_ratio": min(ratios), "recovery": recovery}


CHECKS = {"solve-large": check_solve, "sweep-medium": check_sweep,
          "round-medium": check_round}
