"""Child processes of the benchmark; each runs with the checkout's src on PYTHONPATH.

    op.py setup [--graph FILE]      time `import dks` plus loading FILE
    op.py round --graph FILE --ks 20,200 --out OUT.npz
                                    the round-medium library operation
    op.py trace --plan PLAN.json [--untraced]
                                    replay one operation with spans, then
                                    measure the layers it did not reach

Every mode prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np


def round_op(graph: str, ks, out: str) -> None:
    """Round the uniform point for each k, then score and bound the result."""
    import dks

    g = dks.load_edge_list(graph)
    arrays = {"n": np.array(g.n)}
    for k in ks:
        inst = dks.ProblemInstance(graph=g, k=k, loading=1.0)
        x = dks.round_to_integral(inst, dks.uniform_point(g.n, k))
        sel = dks.make_selection(g, np.flatnonzero(x == 1.0), 1.0)
        arrays[f"x{k}"] = x
        arrays[f"edges{k}"] = np.array(sel.induced_edges)
        arrays[f"bound{k}"] = np.array(dks.density_upper_bound(g, k))
    np.savez(out, **arrays)


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import dks
    t1 = time.perf_counter()
    if args.graph:
        dks.load_edge_list(args.graph)
    return {"import_s": t1 - t0, "load_s": time.perf_counter() - t1}


def cmd_round(args) -> dict:
    round_op(args.graph, [int(k) for k in args.ks.split(",")], args.out)
    return {}


def timed_per_call(fn, budget: float = 0.3, min_calls: int = 5) -> float:
    """Median seconds per call over repeated calls filling ``budget``."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def compact_pairs(g) -> np.ndarray:
    """The graph's edges as pre-parsed compact (i, j) pairs, i < j."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_offsets))
    keep = src < g.neighbors
    return np.column_stack([src[keep], g.neighbors[keep]])


def direct_metrics(dks, g, k: int, lines: int, load_s: float) -> dict:
    """Per-call kernel timings and their computed work counts."""
    pairs = compact_pairs(g)
    fresh = dks.Graph.from_edges(g.n, pairs)
    t = time.perf_counter()
    mat = fresh.matrix
    matrix_s = time.perf_counter() - t
    x = np.random.default_rng(0).random(g.n)
    matvec_s = timed_per_call(lambda: dks.loaded_matvec(g, 1.0, x))
    nnz = int(mat.nnz)
    flops = 2 * nnz + 2 * g.n
    # Computed, not counted: the CSR arrays once, x read once, A x and
    # the result written once.
    moved = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes + 3 * 8 * g.n
    return {
        "graph.matrix_s": matrix_s,
        "graph.lines_per_s": lines / load_s,
        "linalg.loaded_matvec_s": matvec_s,
        "linalg.matvec_flops": flops,
        "linalg.matvec_bytes": moved,
        "linalg.matvec_gbps": moved / matvec_s / 1e9,
        "topk.top_k_indices_s": timed_per_call(lambda: dks.top_k_indices(x, k)),
    }


def probe_args(dks, ctx):
    """Arguments of one direct call per target, on the workload's graph.

    The oracle works on the tiny graph because it enumerates subsets.
    Each value is a thunk, so only the probes that run build arguments.
    """
    g, k, tiny = ctx["g"], ctx["k"], ctx["tiny"]
    inst = dks.ProblemInstance(graph=g, k=k, loading=1.0)

    def window():
        # Fractional on 2k coordinates only: rounding the all-fractional
        # uniform point is quadratic and would dominate large graphs.
        x = np.zeros(g.n)
        x[: 2 * k] = 0.5
        return (inst, x), {}

    def records():
        if "records" not in ctx:
            ctx["records"] = ctx["run_sweep"](g, 1.0, [k], ["greedy"])
        return (ctx["records"], ctx["scratch"]), {"fmt": "json"}

    return {
        "graph.load_edge_list": lambda: ((ctx["graph"],), {}),
        "graph.from_edges": lambda: ((dks.Graph, g.n, compact_pairs(g)), {}),
        "linalg.spectral_norm": lambda: ((g, 1.0), {}),
        "linalg.leading_eigenpair": lambda: ((g,), {}),
        "linalg.top_two_singular_values": lambda: ((g,), {}),
        "fw.fw_solve": lambda: ((inst,), {}),
        "param.param_solve": lambda: ((inst,), {}),
        "rounding.round_to_integral": window,
        "rounding.project_top_k": lambda: ((g, g.degrees, k), {}),
        "rounding.make_selection": lambda: ((g, dks.top_k_indices(g.degrees, k)), {}),
        "points.project_capped_simplex": lambda: (
            (np.random.default_rng(0).random(g.n) * 2.0, k), {}),
        "baselines.greedy_feige": lambda: ((g, k), {}),
        "baselines.rank1_lrbo": lambda: ((g, k), {}),
        "baselines.density_upper_bound": lambda: ((g, k), {}),
        "oracle.max_clique": lambda: ((tiny,), {}),
        "oracle.exact_dks": lambda: ((tiny, 4), {}),
        "oracle.simplex_qp_max": lambda: ((tiny, 1.0, 1.0), {}),
        "verify.motzkin": lambda: ((), {"max_n": 4, "random_count": 0}),
        "verify.rounding": lambda: ((), {"trials": 100, "max_n": 10}),
        "verify.tightness": lambda: (
            (), {"max_n": 4, "random_count": 0, "random_points": 20}),
        "verify.landscape": lambda: ((), {"trials": 100, "max_n": 10}),
        "report.solve_with": lambda: (("greedy", inst), {}),
        "report.run_sweep": lambda: ((g, 1.0, [k], ["greedy"]), {}),
        "report.write_report": records,
    }


def cmd_trace(args) -> dict:
    from spans import Tracer, phase_metrics

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import dks
    import dks.cli
    import_s = time.perf_counter() - t0

    def operation():
        if plan["kind"] == "round":
            round_op(plan["graph"], plan["ks"], plan["out"])
            return 0
        with open(plan["stdout"], "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            return dks.cli.main(plan["argv"])

    if args.untraced:
        code = operation()
        return {"code": code, "op_s": time.perf_counter() - t0}
    tracer = Tracer()
    tracer.install()
    code = tracer.root("cli.main", operation)
    op_s = time.perf_counter() - t0

    tracer.phase = "probe"
    graph = plan["probe_graph"]
    t = time.perf_counter()
    g = tracer.originals["graph.load_edge_list"](graph)
    load_s = time.perf_counter() - t
    tiny = tracer.originals["graph.load_edge_list"](plan["tiny"])
    ctx = {"g": g, "k": plan["k"], "tiny": tiny, "graph": graph,
           "scratch": plan["scratch"],
           "run_sweep": tracer.originals.get("report.run_sweep", dks.run_sweep)}
    reached = tracer.reached()
    for name, make_args in probe_args(dks, ctx).items():
        if name in reached or name not in tracer.originals:
            continue
        args, kwargs = make_args()
        result = tracer.probe(name, tracer.originals[name], args, kwargs)
        if name == "report.run_sweep":
            ctx["records"] = result

    spans = tracer.spans
    metrics = {**phase_metrics(spans, "probe"), **phase_metrics(spans, "op")}
    metrics.update(direct_metrics(dks, g, plan["k"], plan["probe_lines"], load_s))
    metrics["cli.import_s"] = import_s
    metrics["cli.main_s"] = spans[0][2] - spans[0][1]
    metrics["cli.overhead_s"] = metrics.get("cli.self_s", 0.0)
    metrics["trace.spans"] = sum(1 for s in spans if s[4] == "op")
    with open(plan["spans"], "w", encoding="utf-8") as fh:
        json.dump([s[:5] for s in spans], fh)
    return {"code": code, "op_s": op_s, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="op.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--graph")
    p = sub.add_parser("round")
    p.add_argument("--graph", required=True)
    p.add_argument("--ks", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("trace")
    p.add_argument("--plan", required=True)
    p.add_argument("--untraced", action="store_true")
    args = parser.parse_args(argv)
    handler = {"setup": cmd_setup, "round": cmd_round, "trace": cmd_trace}[args.mode]
    print(json.dumps(handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
