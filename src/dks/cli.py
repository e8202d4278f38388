"""Command-line front end: solve, sweep, verify, and score subcommands.

Exit codes: 0 success; 1 verify-suite failure; 2 bad flags or invalid
parameter combinations; 3 I/O problems (missing/malformed input files,
unwritable output); 4 solver failure.  JSON output is byte-identical
across runs with the same inputs, except for timing fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fw import STEP_RULES, FwConfig
from .graph import (ProblemInstance, check_loading, check_objective_fits,
                    load_edge_list, load_selection_file)
from .param import OptimizerConfig
from .report import (SOLVER_NAMES, format_float, json_value, run_sweep,
                     score_labels, solve_with, write_report)
from .rounding import VertexSelection
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_FLAGS = 2
EXIT_IO = 3
EXIT_SOLVER = 4


class _Parser(argparse.ArgumentParser):
    """A parser (subcommands' too) whose refusals are one ``dks: `` line, exit 2."""

    def error(self, message):
        raise SystemExit(_refuse(EXIT_BAD_FLAGS, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dks",
        description="Densest k-subgraph via a diagonally loaded quadratic "
                    "relaxation: solvers, baselines, bounds, and theory checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance and print the result")
    solve.add_argument("--graph", required=True, help="edge-list file (optionally .gz)")
    solve.add_argument("--k", type=int, required=True, help="subgraph size")
    solve.add_argument("--lambda", dest="loading", type=float, default=1.0,
                       help="diagonal loading (default 1)")
    solve.add_argument("--solver", choices=SOLVER_NAMES, default="fw")
    solve.add_argument("--step-rule", choices=STEP_RULES, default="exact",
                       help="Frank-Wolfe step-size rule (default: exact line "
                            "search; option1/option2 are the paper's rules)")
    solve.add_argument("--max-iters", type=int, default=None,
                       help="iteration budget (default: 1000 fw; for param a cap of "
                            "200, as it stops once its top-k set settles)")
    solve.add_argument("--output", choices=("text", "json"), default="text")

    sweep = sub.add_parser("sweep", help="run solvers across a list of k values")
    sweep.add_argument("--graph", required=True)
    sweep.add_argument("--k-list", required=True,
                       help="comma-separated distinct subgraph sizes")
    sweep.add_argument("--solvers", required=True,
                       help=f"comma-separated subset of {','.join(SOLVER_NAMES)}")
    sweep.add_argument("--out", required=True, help="report file to write")
    sweep.add_argument("--format", choices=("csv", "json"), default=None,
                       help="report format (default: json for a .json --out, else csv)")
    sweep.add_argument("--lambda", dest="loading", type=float, default=1.0)

    verify = sub.add_parser("verify", help="run the theory property suites")
    verify.add_argument("--max-n", type=int, default=8,
                        help="largest graph size to include (default 8)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--suite", choices=("all",) + tuple(SUITES),
                        default="all")

    score = sub.add_parser("score",
                           help="score an externally produced vertex selection")
    score.add_argument("--graph", required=True)
    score.add_argument("--selection", required=True,
                       help="file with one original vertex id per line")
    score.add_argument("--lambda", dest="loading", type=float, default=1.0)
    score.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _refuse(code: int, message: str) -> int:
    """Print ``dks: message`` to stderr and return the exit code ``code``."""
    print(f"dks: {message}", file=sys.stderr)
    return code


def _load(reader, path: str, what: str):
    """``reader(path)``, or exit 3 with ``dks: cannot load <what>: ...``."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(_refuse(EXIT_IO, f"cannot load {what}: {exc}")) from exc


def _selection_fields(sel: VertexSelection, loading: float, labels: list) -> dict:
    """The selection block ``solve`` and ``score`` both print, in order."""
    return {"k": sel.k, "lambda": loading, "vertices": labels,
            "induced_edges": sel.induced_edges,
            "normalized_density": sel.normalized_density,
            "objective": sel.objective_at_loading}


def _print_payload(payload: dict, output: str) -> None:
    """Print ``payload`` as indented JSON or as ``key: value`` lines.

    Every value goes through ``report.json_value`` first, so both forms
    give a float at 12 significant digits and a NaN (param, greedy and
    rank1 have no ``fw_gap``) as null.
    """
    payload = {key: json_value(value) for key, value in payload.items()}
    if output == "json":
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if key == "vertices":
            value = " ".join(str(v) for v in value)
        elif isinstance(value, float):
            value = format_float(value)
        elif isinstance(value, bool) or value is None:
            value = json.dumps(value)
        print(f"{key}: {value}")


def cmd_solve(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    # both configs are built, so a bad --max-iters is refused whichever solver runs
    iters = {} if args.max_iters is None else {"max_iters": args.max_iters}
    try:
        inst = ProblemInstance(graph=g, k=args.k, loading=args.loading)
        fw_cfg = FwConfig(step_rule=args.step_rule, **iters)
        opt_cfg = OptimizerConfig(**iters)
        rep = solve_with(args.solver, inst, fw_cfg=fw_cfg, opt_cfg=opt_cfg)
    except ValueError as exc:  # an input check, e.g. greedy's k >= 2
        return _refuse(EXIT_BAD_FLAGS, str(exc))
    except Exception as exc:  # noqa: BLE001 - reported as solver failure
        return _refuse(EXIT_SOLVER, f"solver failed: {exc}")
    sel = rep.selection
    _print_payload({
        "solver": rep.solver_name, "graph": args.graph, "n": g.n, "m": g.m,
        # labels in compact-id order
        **_selection_fields(sel, args.loading, g.original_ids[sel.vertices].tolist()),
        "iterations": rep.iterations, "converged": rep.converged,
        "fw_gap": rep.fw_gap, "integral_before_projection": rep.integral,
        "wall_time_s": rep.wall_time_s}, args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    try:
        ks = sorted(int(tok) for tok in args.k_list.split(",") if tok.strip())
    except ValueError:
        return _refuse(EXIT_BAD_FLAGS, "--k-list must be comma-separated "
                       f"integers, got {args.k_list!r}")
    solvers = [tok.strip() for tok in args.solvers.split(",") if tok.strip()]
    if not ks or not solvers:
        return _refuse(EXIT_BAD_FLAGS, "--k-list and --solvers must be nonempty")
    try:
        records = run_sweep(g, args.loading, ks, solvers,
                            dataset=os.path.basename(args.graph))
    except ValueError as exc:
        # run_sweep checks its k values and solver names before any work
        return _refuse(EXIT_BAD_FLAGS, str(exc))
    except Exception as exc:  # noqa: BLE001
        return _refuse(EXIT_SOLVER, f"sweep failed: {exc}")
    try:
        write_report(records, args.out, fmt=args.format)
    except OSError as exc:
        return _refuse(EXIT_IO, f"cannot write report: {exc}")
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        return _refuse(EXIT_BAD_FLAGS, f"--seed must be >= 0, got {args.seed}")
    if args.max_n < 1:
        return _refuse(EXIT_BAD_FLAGS, f"--max-n must be >= 1, got {args.max_n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        results = run_suites(names, max_n=args.max_n, seed=args.seed)
    except ImportError as exc:  # the atlas family's networkx is a test extra
        return _refuse(EXIT_BAD_FLAGS, str(exc))
    all_passed = True
    for res in results:
        print(res.summary())
        all_passed = all_passed and res.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def cmd_score(args) -> int:
    g = _load(load_edge_list, args.graph, "graph")
    labels = _load(load_selection_file, args.selection, "selection")
    try:
        check_objective_fits(len(labels), args.loading)
    except ValueError as exc:
        return _refuse(EXIT_BAD_FLAGS, str(exc))
    try:
        sel, bound = score_labels(g, labels, args.loading)
    except ValueError as exc:
        return _refuse(EXIT_IO, f"invalid selection: {exc}")
    _print_payload({"graph": args.graph, "selection": args.selection,
                    **_selection_fields(sel, args.loading, sorted(labels)),
                    "upper_bound": bound}, args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 2 from _Parser.error, 0 after --help
        return int(exc.code or 0)
    try:
        check_loading(getattr(args, "loading", 0.0))
    except ValueError as exc:
        return _refuse(EXIT_BAD_FLAGS, f"--lambda: {exc}")
    handlers = {"solve": cmd_solve, "sweep": cmd_sweep,
                "verify": cmd_verify, "score": cmd_score}
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
