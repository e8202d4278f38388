"""The dks benchmark: one workload, one closed-loop client, correctness checked.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it runs the program from ``src``.
The inputs are generated from ``--seed`` into ``bench/.work`` and removed
afterwards.  Each operation runs in a fresh child process, the next one
starting when the previous one has returned, until ``--seconds`` have
passed.  Every output is checked (see workloads.py); an operation fails on
a non-zero exit or a failed check.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json: seconds per operation, set-up time (``import dks`` plus
loading the graph, the median of several fresh processes) and the peak
resident memory of the operation's process.  With ``--trace 1`` it
carries the per-layer metrics from one traced replay of the operation
(see spans.py) and the tracing overhead.  The lines before it print every
metric by name with its unit, the quality figures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
# Set-up is timed at least SETUP_REPS times and for at least SETUP_MIN_S,
# so that small graphs get more samples than one large one.
SETUP_REPS = 3
SETUP_MIN_S = 5.0
RUN_LIMIT_S = 170.0
# Pinned so numbers do not depend on how many cores a machine offers.
PINNED_ENV = {"DKS_JOBS": "1", "OPENBLAS_NUM_THREADS": "1"}
QUALITY_UNITS = {"density.fw": "ratio", "density.param": "ratio",
                 "density.best": "ratio", "density.round": "ratio",
                 "recovery": "ratio", "bound_ratio": "ratio",
                 "objective_ratio": "ratio"}


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), **PINNED_ENV}


class Run:
    """One benchmark run: its child processes, and the operations' tally."""

    def __init__(self, wl, inp, deadline: float):
        self.wl, self.inp, self.deadline = wl, inp, deadline
        self.env = dict(os.environ, **PINNED_ENV)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failures = []
        self.quality = None

    def child(self, argv, out_name: str):
        """Run one child to completion: (exit code, wall s, peak RSS MB, stdout).

        A child still running at the run's deadline is killed.
        """
        path = self.inp.work / out_name
        with open(path, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                path.read_text(encoding="utf-8"))

    def record(self, code: int, stdout: str) -> None:
        """Check one operation's output and count it."""
        from workloads import check

        self.attempted += 1
        fails, quality = check(self.wl, self.inp, code, stdout)
        quality = {k: float(v) for k, v in quality.items()}
        if not fails and self.quality is not None and quality != self.quality:
            fails = [f"output differs from the first operation: {quality}"]
        if fails:
            self.failures.append(fails)
        elif self.quality is None:
            self.quality = quality

    @property
    def failed(self) -> int:
        return len(self.failures)

    def closed_loop(self, seconds: float) -> dict:
        from workloads import command

        argv, _ = command(self.wl, self.inp, BENCH)
        walls, rss = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            code, wall, peak, stdout = self.child(argv, "op.out")
            self.record(code, stdout)
            walls.append(wall)
            rss.append(peak)
        return {"wall_s": statistics.median(walls), "walls": walls,
                "peak_rss_mb": statistics.median(rss), "ops": len(walls)}

    def setup_seconds(self) -> float:
        """Median of fresh-process `import dks` plus graph load, in seconds."""
        argv = [sys.executable, str(BENCH / "op.py"), "setup"]
        self.child(argv, "setup.out")  # warm the bytecode cache
        argv += ["--graph", self.inp.graph.path]
        times = []
        start = time.perf_counter()
        while len(times) < SETUP_REPS or time.perf_counter() - start < SETUP_MIN_S:
            code, _, _, text = self.child(argv, "setup.out")
            if code != 0:
                raise RuntimeError(f"set-up child exited {code}")
            res = last_json(text)
            times.append(res["import_s"] + res["load_s"])
        return statistics.median(times)

    def traced(self) -> dict:
        from workloads import command

        wl, inp = self.wl, self.inp
        _, plan = command(wl, inp, BENCH)
        plan.update(stdout=str(inp.work / "op.out"), probe_graph=inp.graph.path,
                    probe_lines=inp.graph.lines, tiny=inp.tiny.path, k=wl.k,
                    scratch=str(inp.work / "probe-report.json"),
                    spans=str(WORK / f"spans-{wl.name}.json"))
        plan_path = inp.work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        argv = [sys.executable, str(BENCH / "op.py"), "trace", "--plan", str(plan_path)]
        runs = {}
        for mode, extra in (("untraced", ["--untraced"]), ("traced", [])):
            code, _, _, text = self.child(argv + extra, "trace.out")
            res = last_json(text) if code == 0 else {"code": code}
            out = inp.work / "op.out"
            self.record(res["code"], out.read_text(encoding="utf-8") if out.exists() else "")
            runs[mode] = res
        metrics = dict(runs["traced"].get("metrics", {}))
        if "op_s" in runs["traced"] and "op_s" in runs["untraced"]:
            metrics["trace.wall_s"] = runs["traced"]["op_s"]
            metrics["trace.untraced_s"] = runs["untraced"]["op_s"]
            metrics["trace.overhead_s"] = runs["traced"]["op_s"] - runs["untraced"]["op_s"]
        return metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    # A terminated run still kills its child and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dks" / "__init__.py").is_file():
        print(f"run.py: no dks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(wl, make_inputs(wl, args.seed, work), started + RUN_LIMIT_S)
        if args.trace:
            measured = run.traced()
            wanted = spec["per_layer"]
        else:
            # Set-up first: its processes also warm the file cache and the
            # allocator, so the first timed operation is not a cold one.
            setup_s = run.setup_seconds()
            measured = run.closed_loop(args.seconds)
            measured["setup_s"] = setup_s
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in sorted((run.quality or {}).items()):
        print(f"{name} = {value:.6g} {QUALITY_UNITS[name]}")
    print(f"fail_frac = {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for fails in run.failures[:5]:
        print("failed: " + "; ".join(fails[:3]))
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "ops": measured.get("ops", run.attempted),
                      "op_walls_s": measured.get("walls"),
                      "quality": run.quality, "environment": environment()}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
