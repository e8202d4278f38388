"""The dks command line, driven in-process through main(argv)."""

import bz2
import gzip
import json
import lzma
import os
import sys

import pytest

import dks.baselines
import dks.graph
from dks import Graph
from dks.cli import main
from dks.report import format_float


@pytest.fixture
def graph_file(tmp_path):
    # two triangles {0,1,2} and {3,4,5}
    path = tmp_path / "2tri.txt"
    path.write_text("# two triangles\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_text(graph_file, capsys):
    code, out, err = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3"])
    assert code == 0
    assert "normalized_density: 1" in out
    assert "objective: 9" in out
    assert "k: 3" in out


def test_solve_json_fields(graph_file, capsys):
    code, out, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3", "--output", "json"])
    assert code == 0
    payload = loads(out)
    assert payload["objective"] == 9.0
    assert sorted(payload["vertices"]) in ([0, 1, 2], [3, 4, 5])
    assert payload["converged"] is True
    assert payload["n"] == 6 and payload["m"] == 6


def test_solve_json_deterministic_modulo_timing(graph_file, capsys):
    argv = ["solve", "--graph", graph_file, "--k", "2", "--solver", "param",
            "--output", "json"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    p1, p2 = loads(out1), loads(out2)
    p1.pop("wall_time_s"), p2.pop("wall_time_s")
    assert p1 == p2


def test_solve_each_solver(graph_file, capsys):
    for solver in ("fw", "param", "greedy", "rank1"):
        code, out, _ = run_cli(capsys, [
            "solve", "--graph", graph_file, "--k", "3", "--solver", solver,
            "--output", "json"])
        assert code == 0
        assert loads(out)["normalized_density"] == 1.0


def test_solve_bad_k(graph_file, capsys):
    code, _, err = run_cli(capsys, ["solve", "--graph", graph_file, "--k", "9"])
    assert code == 2
    assert "--k must be in" in err


def test_solve_negative_loading(graph_file, capsys):
    code, _, err = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "2", "--lambda", "-1"])
    assert code == 2
    assert "nonnegative" in err


def test_solve_missing_graph(tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "solve", "--graph", str(tmp_path / "nope.txt"), "--k", "2"])
    assert code == 3
    assert "cannot load graph" in err


def test_solve_missing_url_shaped_graph(tmp_path, monkeypatch, capsys, no_network):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, ["solve", "--graph", "http://x.txt", "--k", "2"])
    assert code == 3
    assert "cannot load graph" in err


def test_solve_label_outside_int64_exits_3(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("1 2\n99999999999999999999 3\n")
    code, _, err = run_cli(capsys, ["solve", "--graph", str(path), "--k", "1"])
    assert code == 3
    assert f"{path}:2: vertex id outside the int64 range" in err


def test_solve_malformed_graph(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2 junk\n")
    code, _, err = run_cli(capsys, ["solve", "--graph", str(path), "--k", "2"])
    assert code == 3


def test_solve_solver_failure_is_exit_4(graph_file, capsys, monkeypatch):
    from dks.fw import SolverError

    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("dks.report.fw_solve", boom)
    code, _, err = run_cli(capsys, ["solve", "--graph", graph_file, "--k", "2"])
    assert code == 4
    assert "solver failed" in err


def test_unknown_flag_exits_2(graph_file, capsys):
    code, _, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "2", "--frobnicate"])
    assert code == 2


def test_sweep_writes_csv_and_json(graph_file, tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    code, out, _ = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2,3",
        "--solvers", "fw,greedy", "--out", str(out_csv)])
    assert code == 0
    assert "wrote 4 records" in out
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("dataset,")
    assert len(lines) == 5

    out_json = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2,3",
        "--solvers", "fw,greedy", "--out", str(out_json), "--format", "json"])
    assert code == 0
    payload = loads(out_json.read_text())
    assert len(payload) == 4
    assert all(rec["status"] == "ok" for rec in payload)
    assert all(rec["normalized_density"] == 1.0 for rec in payload)


def test_sweep_deterministic_modulo_timing(graph_file, tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        run_cli(capsys, ["sweep", "--graph", graph_file, "--k-list", "2,3",
                         "--solvers", "fw,param,greedy,rank1",
                         "--out", str(path), "--format", "json"])
        payload = loads(path.read_text())
        for rec in payload:
            rec.pop("wall_time_s")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_sweep_bad_inputs(graph_file, tmp_path, capsys):
    code, _, _ = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2,x",
        "--solvers", "fw", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    code, _, _ = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2",
        "--solvers", "bogus", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    code, _, _ = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "99",
        "--solvers", "fw", "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_sweep_unwritable_output(graph_file, tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2", "--solvers", "greedy",
        "--out", str(tmp_path / "missing-dir" / "r.csv")])
    assert code == 3
    assert "cannot write report" in err


def test_sweep_jobs_env(graph_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DKS_JOBS", "2")
    code, out, _ = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2,3",
        "--solvers", "greedy", "--out", str(tmp_path / "r.csv")])
    assert code == 0
    assert "wrote 2 records" in out


@pytest.mark.parametrize("flags", [
    ["--max-iters", "-5"],
    ["--max-iters", "0"],
    ["--max-iters", "0", "--solver", "param"],
    ["--gap-tol", "-1"],
    ["--gap-tol", "nan"],
    ["--lr", "0"],
    ["--lr", "nan", "--solver", "param"],
    ["--lambda", "nan"],
    ["--lambda", "inf"],
    ["--lambda", "1e308"],
])
def test_solve_bad_values_exit_2(graph_file, capsys, flags):
    code, _, err = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "2", *flags])
    assert code == 2
    assert err.startswith("dks: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--k-list", "2,3", "--solvers", "fw", "--lambda", "-1"],
    ["sweep", "--k-list", "2,3", "--solvers", "fw", "--lambda", "nan"],
    ["sweep", "--k-list", "2,3", "--solvers", "fw", "--lambda", "1e308"],
    ["sweep", "--k-list", "2,2", "--solvers", "greedy"],
    ["score", "--lambda", "-1"],
    ["score", "--lambda", "nan"],
    ["score", "--lambda", "1e308"],
])
def test_sweep_and_score_bad_values_exit_2(graph_file, tmp_path, capsys, argv):
    out, sel = tmp_path / "r.csv", tmp_path / "sel.txt"
    sel.write_text("0\n1\n")
    files = {"sweep": ["--out", str(out)], "score": ["--selection", str(sel)]}
    code, _, err = run_cli(capsys, [*argv, "--graph", graph_file,
                                    *files[argv[0]]])
    assert code == 2
    assert err.startswith("dks: ")
    assert not out.exists()


@pytest.mark.parametrize("loading, code", [("1e300", 0), ("1e308", 2)])
@pytest.mark.parametrize("command", ["solve", "score", "sweep"])
def test_lambda_at_the_objective_overflow(graph_file, tmp_path, capsys,
                                          command, loading, code):
    # k(k-1) + lambda*k at k = 3 is finite at 1e300 and overflows at 1e308
    out, sel = tmp_path / "r.json", tmp_path / "sel.txt"
    sel.write_text("0\n1\n2\n")
    flags = {"solve": ["--k", "3", "--output", "json"],
             "score": ["--selection", str(sel), "--output", "json"],
             "sweep": ["--k-list", "2,3", "--solvers", "fw,greedy",
                       "--out", str(out), "--format", "json"]}[command]
    got, stdout, err = run_cli(capsys, [command, "--graph", graph_file,
                                        "--lambda", loading, *flags])
    assert got == code
    if code:
        assert err.startswith("dks: ") and "overflow" in err
        assert stdout == "" and not out.exists()
    else:
        payload = loads(out.read_text() if command == "sweep" else stdout)
        records = payload if command == "sweep" else [payload]
        assert records and all(rec["objective"] >= rec["k"] * 1e300 for rec in records)


@pytest.mark.parametrize("flags, env", [
    (["--jobs", "0"], None),
    (["--jobs", "-3"], None),
    ([], "abc"),
    ([], "0"),
])
def test_sweep_bad_jobs_exit_2(graph_file, tmp_path, capsys, monkeypatch,
                               flags, env):
    if env is not None:
        monkeypatch.setenv("DKS_JOBS", env)
    code, _, err = run_cli(capsys, [
        "sweep", "--graph", graph_file, "--k-list", "2", "--solvers", "greedy",
        "--out", str(tmp_path / "r.csv"), *flags])
    assert code == 2
    assert err.startswith("dks: ")


def test_verify_with_zero_checks_exits_1(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--suite", "motzkin", "--max-n", "1"])
    assert code == 1
    assert "motzkin: FAIL (0 checks" in out


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "--suite", "motzkin", "--max-n", "4", "--seed", "-1"])
    assert code == 2
    assert err.startswith("dks: ") and "--seed" in err
    assert out == ""


@pytest.mark.parametrize("suite", ["motzkin", "rounding"])
@pytest.mark.parametrize("max_n", ["-5", "0"])
def test_verify_max_n_below_one_exits_2(capsys, suite, max_n):
    # a bad flag, not a failed suite, and not a pass with the size clamped
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--max-n", max_n])
    assert code == 2
    assert err.startswith("dks: ") and "--max-n" in err
    assert out == ""


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--suite", "motzkin", "--max-n", "4"])
    assert code == 0
    assert "motzkin: PASS" in out


def test_score(graph_file, tmp_path, capsys):
    sel = tmp_path / "sel.txt"
    sel.write_text("0\n1\n2\n")
    code, out, _ = run_cli(capsys, [
        "score", "--graph", graph_file, "--selection", str(sel),
        "--output", "json"])
    assert code == 0
    payload = loads(out)
    assert payload["normalized_density"] == 1.0
    assert payload["induced_edges"] == 3
    assert payload["upper_bound"] >= 1.0


@pytest.mark.parametrize("loading", ["1e16", "1e17"])
def test_score_counts_edges_at_large_lambda(graph_file, tmp_path, capsys, loading):
    # lambda*k swamps 2*edges in the objective's float; the count must not
    # be recovered from it
    sel = tmp_path / "sel.txt"
    sel.write_text("0\n1\n2\n")
    code, out, _ = run_cli(capsys, [
        "score", "--graph", graph_file, "--selection", str(sel),
        "--lambda", loading, "--output", "json"])
    assert code == 0
    assert loads(out)["induced_edges"] == 3


def test_score_duplicate_vertex_exits_3(graph_file, tmp_path, capsys):
    sel = tmp_path / "sel.txt"
    sel.write_text("0\n0\n1\n")
    code, _, err = run_cli(capsys, [
        "score", "--graph", graph_file, "--selection", str(sel)])
    assert code == 3
    assert "invalid selection" in err


def test_score_unknown_vertex_exits_3(graph_file, tmp_path, capsys):
    sel = tmp_path / "sel.txt"
    sel.write_text("42\n")
    code, _, _ = run_cli(capsys, [
        "score", "--graph", graph_file, "--selection", str(sel)])
    assert code == 3


def test_score_missing_selection_exits_3(graph_file, tmp_path, capsys):
    code, _, _ = run_cli(capsys, [
        "score", "--graph", graph_file,
        "--selection", str(tmp_path / "nope.txt")])
    assert code == 3


def test_solve_json_fw_gap(graph_file, capsys):
    # fw reports its gap certificate; greedy has none and prints null,
    # since NaN is not valid JSON
    _, out, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3", "--output", "json"])
    payload = loads(out)
    assert payload["solver"] == "fw-exact"
    assert isinstance(payload["fw_gap"], float) and payload["fw_gap"] >= 0.0
    _, out, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3", "--solver", "greedy",
        "--output", "json"])
    assert "NaN" not in out
    assert loads(out)["fw_gap"] is None
    _, out, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3", "--solver", "greedy"])
    assert "fw_gap: null" in out.splitlines()


@pytest.mark.parametrize("rule", ["exact", "option1", "option2"])
def test_solve_step_rules(graph_file, capsys, rule):
    code, out, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3", "--step-rule", rule,
        "--output", "json"])
    assert code == 0
    payload = loads(out)
    assert payload["solver"] == f"fw-{rule}"
    assert payload["objective"] == 9.0


def test_solve_default_runs_no_eigensolve(graph_file, capsys, eigensolves):
    assert run_cli(capsys, ["solve", "--graph", graph_file, "--k", "3"])[0] == 0
    assert eigensolves == []
    assert run_cli(capsys, ["solve", "--graph", graph_file, "--k", "3",
                            "--step-rule", "option1"])[0] == 0
    assert len(eigensolves) == 1


def test_solve_param_reports_not_converged(graph_file, capsys):
    # param has no convergence test, so even a one-iteration run must not
    # read as converged
    code, out, _ = run_cli(capsys, [
        "solve", "--graph", graph_file, "--k", "3", "--solver", "param",
        "--max-iters", "1", "--output", "json"])
    assert code == 0
    assert '"converged": false' in out
    assert loads(out)["iterations"] == 1


@pytest.mark.parametrize("suite, code", [
    ("motzkin", 2), ("tightness", 2), ("all", 2), ("rounding", 0), ("landscape", 0)])
def test_verify_without_networkx(capsys, monkeypatch, suite, code):
    # networkx is a test extra, not a runtime dependency: without it the
    # atlas suites are refused with the fix named (exit 2, not a failed
    # suite's 1), and the suites that need no atlas still run
    monkeypatch.setitem(sys.modules, "networkx", None)
    got, out, err = run_cli(capsys, ["verify", "--suite", suite, "--max-n", "4"])
    assert got == code
    assert "Traceback" not in err
    if code:
        assert err.startswith("dks: ") and "pip install 'dks[test]'" in err
        assert out == ""
    else:
        assert f"{suite}: PASS" in out


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _floats(item)


def test_json_floats_at_12_significant_digits(tmp_path, capsys):
    # solve and score write every float, wall_time_s too, by the one JSON
    # rule: format_float's 12 significant digits
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in [
        (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (1, 6)]))
    sel = tmp_path / "sel.txt"
    sel.write_text("6\n0\n1\n2\n3\n4\n5\n")
    lam = ["--lambda", "0.1234567890123456"]
    runs = [["solve", "--graph", str(path), "--k", "7", "--solver", solver, *lam]
            for solver in ("fw", "param", "greedy", "rank1")]
    runs.append(["score", "--graph", str(path), "--selection", str(sel), *lam])
    for argv in runs:
        code, out, _ = run_cli(capsys, [*argv, "--output", "json"])
        assert code == 0
        floats = list(_floats(loads(out)))
        assert len(floats) >= 4
        assert all(v == float(format_float(v)) for v in floats), argv


def test_score_runs_each_step_once(graph_file, tmp_path, capsys, monkeypatch):
    # one dks score maps its labels once, checks and counts the selection
    # once (induced_edge_count, through make_selection) and bounds it once
    calls = []

    def spy(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(Graph, "index_of", spy("index_of", Graph.index_of))
    for name, original in [("induced_edge_count", dks.graph.induced_edge_count),
                           ("density_upper_bound", dks.baselines.density_upper_bound)]:
        counted = spy(name, original)
        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "dks"
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    sel = tmp_path / "sel.txt"
    sel.write_text("2\n0\n1\n")
    code, out, _ = run_cli(capsys, ["score", "--graph", graph_file,
                                    "--selection", str(sel), "--output", "json"])
    assert code == 0 and loads(out)["induced_edges"] == 3
    assert sorted(calls) == ["density_upper_bound", "index_of", "induced_edge_count"]


@pytest.mark.parametrize("line, message", [
    (b"\xff1", "not UTF-8"),
    (b"1_0", "non-integer vertex id"),
    ("\u0663".encode(), "non-integer vertex id"),  # ARABIC-INDIC DIGIT THREE
    (str(2**70).encode(), "vertex id outside the int64 range"),
    (b"1 # note", "expected one vertex id, got 3 tokens"),
], ids=["not-utf8", "underscore", "arabic-indic", "beyond-int64", "hash-after-data"])
def test_score_names_the_bad_selection_line(graph_file, tmp_path, capsys, line, message):
    # a selection is read by the edge-list grammar, one id per line
    sel = tmp_path / "sel.txt"
    sel.write_bytes(b"# chosen\n0\n" + line + b"\n2\n")
    code, out, err = run_cli(capsys, ["score", "--graph", graph_file,
                                      "--selection", str(sel)])
    assert code == 3 and out == ""
    assert err == f"dks: cannot load selection: {sel}:3: {message}\n"


def test_score_reads_a_gzipped_selection(graph_file, tmp_path, capsys):
    plain, packed = tmp_path / "sel.txt", tmp_path / "sel.txt.gz"
    plain.write_text("# chosen\n2\n0\n1\n")
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    outputs = []
    for sel in (plain, packed):
        code, out, _ = run_cli(capsys, ["score", "--graph", graph_file,
                                        "--selection", str(sel), "--output", "json"])
        assert code == 0
        outputs.append({**loads(out), "selection": None})
    assert outputs[0] == outputs[1] and outputs[0]["induced_edges"] == 3


_CUT_SHORT = "Compressed file ended before the end-of-stream marker was reached"


@pytest.mark.parametrize("name, pack, message", [
    ("cut.txt.gz", lambda raw: gzip.compress(raw)[:-12], _CUT_SHORT),
    ("cut.txt.bz2", lambda raw: bz2.compress(raw)[:-12], _CUT_SHORT),
    ("cut.txt.xz", lambda raw: lzma.compress(raw)[:-12], _CUT_SHORT),
    ("zip.txt.gz", lambda raw: b"PK" + raw, "Not a gzipped file (b'PK')"),
    ("zip.txt.bz2", lambda raw: b"PK" + raw, "Invalid data stream"),
], ids=["truncated-gz", "truncated-bz2", "truncated-xz", "not-gz", "not-bz2"])
@pytest.mark.parametrize("flag", ["--graph", "--selection"])
def test_load_names_a_bad_compressed_file(graph_file, tmp_path, capsys,
                                          flag, name, pack, message):
    sel, bad = tmp_path / "sel.txt", tmp_path / name
    sel.write_text("0\n1\n2\n")
    bad.write_bytes(pack(b"0 1\n1 2\n0 2\n" if flag == "--graph" else b"0\n1\n2\n"))
    files = {"--graph": graph_file, "--selection": str(sel), flag: str(bad)}
    code, out, err = run_cli(capsys, ["score", "--graph", files["--graph"],
                                      "--selection", files["--selection"]])
    what = flag.lstrip("-")
    assert code == 3 and out == ""
    assert err == f"dks: cannot load {what}: {bad}: {message}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--k-list", "3,2,3", "k=3 repeated"),
    ("--solvers", "greedy,fw,greedy", "solver 'greedy' repeated"),
], ids=["k-list", "solvers"])
def test_sweep_names_a_repeated_value(graph_file, tmp_path, capsys, flag, value, message):
    argv = ["sweep", "--graph", graph_file, "--k-list", "2,3", "--solvers", "greedy",
            "--out", str(tmp_path / "r.csv")]
    argv[argv.index(flag) + 1] = value
    code, _, err = run_cli(capsys, argv)
    assert code == 2 and message in err
    assert not (tmp_path / "r.csv").exists()


# The exit-code contract, one row per (subcommand, numeric flag or DKS_JOBS,
# value) and per (subcommand, file fault).  Each subcommand's base arguments
# are valid, so a row's exit code is its own flag's or file's.
_BASE_ARGV = {"solve": ["--graph", "--k", "2"],
              "sweep": ["--graph", "--k-list", "2,3", "--solvers", "greedy", "--out"],
              "verify": ["--suite", "rounding", "--max-n", "4"],
              "score": ["--graph", "--selection"]}
_VALUES = {"negative": ("-5", "-5"), "zero": ("0", "0"),
           "huge": ("1" + "0" * 30, "1e308"),  # (integer flag, float flag)
           "nan": ("nan", "nan"), "inf": ("inf", "inf"), "non-numeric": ("x", "x")}
# (subcommand, flag, is a float flag, the value kinds that exit 0; all others exit 2)
_NUMERIC_FLAGS = [
    ("solve", "--k", False, ()),
    ("solve", "--lambda", True, ("zero",)),
    ("solve", "--max-iters", False, ("huge",)),
    ("solve", "--gap-tol", True, ("zero", "huge")),
    ("solve", "--lr", True, ("huge",)),
    ("sweep", "--k-list", False, ()),
    ("sweep", "--lambda", True, ("zero",)),
    ("sweep", "--jobs", False, ("huge",)),
    ("sweep", "DKS_JOBS", False, ("huge",)),
    ("verify", "--max-n", False, ("huge",)),
    ("verify", "--seed", False, ("zero", "huge")),
    ("score", "--lambda", True, ("zero",)),
]
# (file fault, file name, as a graph, as a selection); None is a missing
# file.  A selection is read by the edge-list reader, compressed ones too.
_FILE_FAULTS = [
    ("missing", "missing.txt", None, None),
    ("empty", "empty.txt", b"", b""),
    ("comments-only", "comments.txt", *[b"# a header\n\n# and nothing else\n"] * 2),
    ("bad-token", "token.txt", b"0 1\n1 x\n", b"0\nx\n"),
    ("hash-after-data", "hash.txt", b"0 1\n1 2 # a note\n", b"0\n1 # a note\n"),
    # a gzip header before a deflate block of the reserved type 3
    ("corrupt-gz", "g.txt.gz", *[b"\x1f\x8b\x08\0\0\0\0\0\0\xff" + b"\xff" * 8] * 2),
    ("truncated-gz", "g.txt.gz", *[gzip.compress(b"0 1\n1 2\n")[:-12]] * 2),
    ("corrupt-bz2", "g.txt.bz2", *[b"BZh9" + b"garbage" * 4] * 2),
    ("corrupt-xz", "g.txt.xz", *[b"\xfd7zXZ\0" + b"\0" * 20] * 2),
    ("not-utf8", "latin.txt", b"0 1\n1 \xff2\n", b"0\n\xff1\n"),
]
_CONTRACT_ROWS = [
    pytest.param(command, flag, _VALUES[kind][is_float], 0 if kind in ok else 2,
                 id=f"{command}-{flag}-{kind}")
    for command, flag, is_float, ok in _NUMERIC_FLAGS for kind in _VALUES
] + [
    # a file fault's value is (file name, content)
    pytest.param(command, flag, (name, as_graph if flag == "--graph" else as_selection),
                 3, id=f"{command}-{flag}-{fault}")
    for command, flag in [("solve", "--graph"), ("sweep", "--graph"),
                          ("score", "--graph"), ("score", "--selection")]
    for fault, name, as_graph, as_selection in _FILE_FAULTS
] + [pytest.param("sweep", "--out", ("missing-dir/r.csv", None), 3,
                  id="sweep---out-unwritable"),
      pytest.param("sweep", "--k-list", "2,2", 2, id="sweep---k-list-repeated"),
      pytest.param("sweep", "--solvers", "fw,fw", 2, id="sweep---solvers-repeated")]


@pytest.mark.parametrize("command, flag, value, code", _CONTRACT_ROWS)
def test_cli_contract(graph_file, tmp_path, capsys, monkeypatch,
                      command, flag, value, code):
    sel, out = tmp_path / "sel.txt", tmp_path / "r.csv"
    sel.write_text("0\n1\n2\n")
    files = {"--graph": graph_file, "--selection": str(sel), "--out": str(out)}
    monkeypatch.setenv("DKS_JOBS", "1")
    if isinstance(value, tuple):
        name, content = value
        files[flag] = str(tmp_path / name)
        if content is not None:
            (tmp_path / name).write_bytes(content)
    argv = [command]
    for arg in _BASE_ARGV[command]:
        argv += [arg, files[arg]] if arg in files else [arg]
    if flag == "DKS_JOBS":
        monkeypatch.setenv("DKS_JOBS", value)
    elif not isinstance(value, tuple):
        if flag in argv:  # a base argument: replace its value
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    got, _, err = run_cli(capsys, argv)
    assert got == code, (argv, err)
    assert "Traceback" not in err
    if code:
        # argparse's refusals too: one "dks: " line, no usage block
        assert err.startswith("dks: ") and err.count("\n") == 1, err
        assert not os.path.exists(files["--out"])
