"""Spans around calls into the public functions of each ``dks`` module.

The tracer replaces each target function, in every ``dks`` module that
holds a reference to it, with a wrapper that records a span: name, start,
end, parent.  Spans stay in memory; the caller writes them out once the
run is over.  Hot per-element kernels (``loaded_matvec``,
``quadratic_form``, ``top_k_indices``) are not wrapped, so their time is
part of the caller's self time; the benchmark times them by direct calls.

Per-layer metrics come from one traced run in two phases.  The ``op``
phase replays the workload's operation.  The ``probe`` phase then calls,
once and directly, every target the operation did not reach, with the
workload's own graph, so each layer is measured on every workload.  A
metric takes its value from the ``op`` phase where that phase has it.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute).  A span name is "<layer>.<function>".
TARGETS = (
    ("graph.load_edge_list", "graph", "load_edge_list"),
    ("graph.from_edges", "graph", "Graph.from_edges"),
    ("linalg.spectral_norm", "linalg", "spectral_norm"),
    ("linalg.leading_eigenpair", "linalg", "leading_eigenpair"),
    ("linalg.top_two_singular_values", "linalg", "top_two_singular_values"),
    ("fw.fw_solve", "fw", "fw_solve"),
    ("param.param_solve", "param", "param_solve"),
    ("rounding.round_to_integral", "rounding", "round_to_integral"),
    ("rounding.project_top_k", "rounding", "project_top_k"),
    ("rounding.make_selection", "rounding", "make_selection"),
    ("points.project_capped_simplex", "points", "project_capped_simplex"),
    ("baselines.greedy_feige", "baselines", "greedy_feige"),
    ("baselines.rank1_lrbo", "baselines", "rank1_lrbo"),
    ("baselines.density_upper_bound", "baselines", "density_upper_bound"),
    ("oracle.max_clique", "oracle", "max_clique"),
    ("oracle.exact_dks", "oracle", "exact_dks"),
    ("oracle.simplex_qp_max", "oracle", "simplex_qp_max"),
    ("verify.motzkin", "verify", "suite_motzkin"),
    ("verify.rounding", "verify", "suite_rounding"),
    ("verify.tightness", "verify", "suite_tightness"),
    ("verify.landscape", "verify", "suite_landscape"),
    ("report.solve_with", "report", "solve_with"),
    ("report.run_sweep", "report", "run_sweep"),
    ("report.write_report", "report", "write_report"),
)

def _info(name, args, kwargs, result):
    """Cheap facts about one call, kept with its span (references only).

    Fields are read with defaults, so a renamed field costs a metric, not
    the run.
    """
    if name in ("fw.fw_solve", "param.param_solve", "linalg.spectral_norm"):
        return {"iterations": getattr(result, "iterations", 0),
                "gap": float(getattr(result, "fw_gap", 0.0)),
                "converged": bool(getattr(result, "converged", False))}
    if name == "rounding.round_to_integral":
        inst, x = (list(args) + list(kwargs.values()))[:2]
        return {"refs": (inst, x, result)}
    if name.startswith("verify."):
        return {"checks": getattr(result, "checks", 0)}
    if name == "report.run_sweep":
        return {"cells": len(result),
                "failed": sum(getattr(r, "status", "ok") != "ok" for r in result)}
    return None


class Tracer:
    """Records spans around the target functions of an imported ``dks``."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, phase, info]
        self.stack = []
        self.phase = "op"
        self.suspended = False
        self.originals = {}

    def _record(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.phase, None]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        span[5] = _info(name, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)
        return traced

    def install(self):
        """Patch every target present in the imported ``dks`` modules."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "dks" or k.startswith("dks."))]
        for name, modname, attr in TARGETS:
            mod = sys.modules.get(f"dks.{modname}")
            if mod is None:
                continue
            if attr == "Graph.from_edges":
                raw = mod.Graph.__dict__.get("from_edges")
                if isinstance(raw, classmethod):
                    self.originals[name] = raw.__func__
                    mod.Graph.from_edges = classmethod(self._wrap(name, raw.__func__))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            self.originals[name] = orig
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def root(self, name, fn, *args):
        """Run ``fn`` as the root span of the current phase."""
        return self._record(name, fn, args, {})

    def probe(self, name, fn, args, kwargs):
        """Time one direct call of an original target, no spans inside it."""
        self.suspended = True
        try:
            return self._record(name, fn, args, kwargs)
        finally:
            self.suspended = False

    def reached(self):
        return {s[0] for s in self.spans if s[4] == "op"}


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def phase_metrics(spans, phase):
    """Per-layer metrics from the spans of one phase (see module docstring)."""
    own = self_times(spans)
    sel = [(s, own[i]) for i, s in enumerate(spans) if s[4] == phase]
    out = {}
    for s, self_s in sel:
        layer = s[0].split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        key = f"{s[0]}_s"
        out[key] = out.get(key, 0.0) + (s[2] - s[1])
    by = {}
    for s, _ in sel:
        by.setdefault(s[0], []).append(s[5] or {})
    if "fw.fw_solve" in by:
        infos = by["fw.fw_solve"]
        out["fw.iterations"] = sum(i["iterations"] for i in infos)
        out["fw.gap"] = max(i["gap"] for i in infos)
        out["fw.converged"] = float(all(i["converged"] for i in infos))
        out["fw.s_per_iter"] = out["fw.fw_solve_s"] / max(1, out["fw.iterations"])
    if "param.param_solve" in by:
        iters = sum(i["iterations"] for i in by["param.param_solve"])
        out["param.s_per_iter"] = out["param.param_solve_s"] / max(1, iters)
    if "linalg.spectral_norm" in by:
        out["linalg.spectral_norm_converged"] = float(
            all(i["converged"] for i in by["linalg.spectral_norm"]))
    if "points.project_capped_simplex" in by:
        out["points.calls"] = len(by["points.project_capped_simplex"])
    for suite in ("motzkin", "rounding", "tightness", "landscape"):
        if f"verify.{suite}" in by:
            out[f"verify.{suite}_checks"] = sum(
                i["checks"] for i in by[f"verify.{suite}"])
    if "report.run_sweep" in by:
        out["report.cells"] = sum(i["cells"] for i in by["report.run_sweep"])
        out["report.cells_failed"] = sum(i["failed"] for i in by["report.run_sweep"])
    if "rounding.round_to_integral" in by:
        out.update(rounding_facts([i["refs"] for i in by["rounding.round_to_integral"]]))
    return out


def rounding_facts(calls):
    """Fractional coordinates fed to rounding, and the worst value ratio."""
    import numpy as np
    from dks.linalg import quadratic_form

    frac = 0
    worst = float("inf")
    for inst, x, out in calls:
        x = np.asarray(x, dtype=np.float64)
        frac += int(np.count_nonzero((x > 1e-9) & (x < 1.0 - 1e-9)))
        before = quadratic_form(inst.graph, inst.loading, x)
        after = quadratic_form(inst.graph, inst.loading, out)
        if before > 0:
            worst = min(worst, after / before)
    return {"rounding.fractional_in": frac,
            "rounding.objective_ratio": worst if worst != float("inf") else 1.0}
