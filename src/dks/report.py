"""Experiment records, density/time sweeps, and CSV/JSON serialization.

A sweep runs each requested solver at each requested subgraph size,
attaches the spectral density upper bound per size, and emits records
whose fields, in order, are the report's columns.  Floats are serialized
with 12 significant digits (``json_value`` is the rule for every JSON
output, the CLI's too); a failed solver produces a record with status
"failed" and null metrics instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .baselines import density_upper_bound, greedy_feige, rank1_lrbo
from .fw import FwConfig, SolveReport, fw_solve
from .graph import Graph, ProblemInstance, check_objective_fits
from .linalg import CERT_MAX_ITERS, CERT_TOL, top_two_singular_values
from .param import OptimizerConfig, param_solve
from .rounding import make_selection

SOLVER_NAMES = ("fw", "param", "greedy", "rank1")


@dataclass(kw_only=True)
class ExperimentRecord:
    """One (dataset, solver, k) cell of a sweep.

    The fields, in order, are the report's columns; the metrics stay None
    in a failed cell.
    """

    dataset: str
    n: int
    m: int
    k: int
    loading: float
    solver: str
    normalized_density: Optional[float] = None
    objective: Optional[float] = None
    iterations: Optional[int] = None
    wall_time_s: Optional[float] = None
    integral_before_projection: Optional[bool] = None
    upper_bound: Optional[float]
    status: str = "ok"

    def as_dict(self) -> dict:
        """The record keyed by wire name, in column order."""
        return {wire: getattr(self, name) for name, wire, _ in _COLUMNS}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentRecord":
        """Inverse of as_dict; also reads CSV strings, where "" is None."""
        return cls(**{name: parse(d[wire]) for name, wire, parse in _COLUMNS})


def _optional(parse):
    return lambda v: None if v is None or v == "" else parse(v)


def _parse_bool(v) -> bool:
    return v if isinstance(v, bool) else str(v).strip().lower() == "true"


# Parser of a serialized value, keyed by the field's annotation as written
# (annotations stay strings in this module); a field with any other
# annotation fails here, at import.
_PARSERS = {"str": str, "int": int, "float": float,
            "Optional[float]": _optional(float), "Optional[int]": _optional(int),
            "Optional[bool]": _optional(_parse_bool)}
# (field name, wire name, parser) per column; "lambda" is the loading's
# wire name.
_COLUMNS = tuple((f.name, "lambda" if f.name == "loading" else f.name,
                  _PARSERS[f.type]) for f in fields(ExperimentRecord))
FIELD_ORDER = tuple(wire for _, wire, _ in _COLUMNS)


def format_float(v: float) -> str:
    """12-significant-digit decimal form used in every serialized float."""
    return f"{v:.12g}"


def solve_with(name: str, inst: ProblemInstance, fw_cfg: FwConfig = None,
               opt_cfg: OptimizerConfig = None, eig=None) -> SolveReport:
    """Dispatch a solver by name onto a common SolveReport shape.

    ``eig``, a (sigma1, u1, sigma2) triple from ``top_two_singular_values``
    at CERT_TOL and CERT_MAX_ITERS, spares rank1 its eigensolve and is read
    by nothing else.  rank1 alone solves at those same settings, so every
    solver gives the same report with or without ``eig``.
    """
    if name == "fw":
        return fw_solve(inst, fw_cfg)
    if name == "param":
        return param_solve(inst, opt_cfg)
    if name in ("greedy", "rank1"):
        t0 = time.perf_counter()
        if name == "greedy":
            sel = greedy_feige(inst.graph, inst.k, inst.loading)
        else:
            sel = rank1_lrbo(inst.graph, inst.k, inst.loading, eig=eig)
        x = np.zeros(inst.graph.n)
        x[sel.vertices] = 1.0
        return SolveReport(
            solver_name=name, objective_trace=np.array([sel.objective_at_loading]),
            iterations=0, converged=True, integral=True, final_point=x,
            selection=sel, wall_time_s=time.perf_counter() - t0)
    raise ValueError(f"unknown solver {name!r}; choose from {SOLVER_NAMES}")


def run_sweep(g: Graph, loading: float, k_values, solver_names,
              dataset: str = "graph", jobs: int = 1):
    """Run every solver at every k; returns sorted ExperimentRecords.

    ``k_values`` must be strictly ascending and within [1, n], with a
    finite objective at the loading; unknown solver names are rejected up
    front.  Each cell runs its solver's default config, so it equals a
    standalone ``solve_with``; one eigensolve serves the bound and every
    rank1 cell.  A failing solver yields a "failed" record and the sweep
    continues.  Densities and iteration counts are reproducible; timings
    of course are not.
    """
    ks = [int(k) for k in k_values]
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("k values must be sorted strictly ascending")
    for k in ks:
        if not 1 <= k <= g.n:
            raise ValueError(f"k={k} outside [1, {g.n}]")
        check_objective_fits(k, loading)
    for name in solver_names:
        if name not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {name!r}; choose from {SOLVER_NAMES}")

    eig = top_two_singular_values(g, tol=CERT_TOL, max_iters=CERT_MAX_ITERS)
    bounds = {k: (density_upper_bound(g, k, eig=eig) if k >= 2 else None)
              for k in ks}

    def run_cell(cell):
        k, solver = cell
        inst = ProblemInstance(graph=g, k=k, loading=loading)
        ident = dict(dataset=dataset, n=g.n, m=g.m, k=k, loading=loading,
                     solver=solver, upper_bound=bounds[k])
        try:
            rep = solve_with(solver, inst, eig=eig)
            sel = rep.selection
            return ExperimentRecord(
                **ident, normalized_density=sel.normalized_density,
                objective=sel.objective_at_loading, iterations=rep.iterations,
                wall_time_s=rep.wall_time_s,
                integral_before_projection=rep.integral)
        except Exception as exc:  # noqa: BLE001 - sweep must survive a cell
            return ExperimentRecord(**ident, status=f"failed: {exc}")

    cells = [(k, s) for k in ks for s in solver_names]
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_cell, cells))
    else:
        records = [run_cell(c) for c in cells]
    records.sort(key=lambda r: (r.dataset, r.solver, r.k))
    return records


def score_labels(g: Graph, vertex_labels, loading: float):
    """The selection of original vertex labels (checked and counted once, by
    ``make_selection``) and the density bound at its size, None below 2."""
    sel = make_selection(g, g.index_of(vertex_labels), loading)
    return sel, (density_upper_bound(g, sel.k) if sel.k >= 2 else None)


def score_selection(g: Graph, vertex_labels, loading: float = 1.0,
                    dataset: str = "graph") -> ExperimentRecord:
    """Score an externally produced selection (original vertex labels)."""
    sel, bound = score_labels(g, vertex_labels, loading)
    return ExperimentRecord(
        dataset=dataset, n=g.n, m=g.m, k=sel.k, loading=loading, solver="external",
        normalized_density=sel.normalized_density,
        objective=sel.objective_at_loading, iterations=0, wall_time_s=0.0,
        integral_before_projection=True, upper_bound=bound)


def load_selection_file(path) -> list:
    """Read one vertex id per line ('#' comments and blanks skipped)."""
    labels = []
    with open(path, "rt", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected one integer vertex id") from None
    if not labels:
        raise ValueError(f"{path}: no vertex ids found")
    return labels


def _cell_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def json_value(v):
    """``v`` as every JSON output writes it: a float at ``format_float``'s
    12 significant digits, a NaN as null, anything else as it is."""
    if isinstance(v, float):
        return None if math.isnan(v) else float(format_float(v))
    return v


def _report_format(path, fmt):
    """``fmt`` if given, else json for a .json path and csv otherwise."""
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    return fmt


def write_report(records, path, fmt: str = None) -> None:
    """Serialize records to CSV (header + rows) or a JSON array.

    When ``fmt`` is omitted it is inferred from the file extension, the
    same rule read_report uses.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    if _report_format(path, fmt) == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELD_ORDER)
            for rec in records:
                writer.writerow([_cell_value(v) for v in rec.as_dict().values()])
    else:
        payload = [{wire: json_value(v) for wire, v in rec.as_dict().items()}
                   for rec in records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def read_report(path, fmt: str = None):
    """Parse a report written by write_report back into records."""
    if _report_format(path, fmt) == "csv":
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return [ExperimentRecord.from_dict(row) for row in csv.DictReader(fh)]
    with open(path, "r", encoding="utf-8") as fh:
        return [ExperimentRecord.from_dict(d) for d in json.load(fh)]
