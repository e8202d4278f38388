"""Graph construction, edge-list loading, and instance validation."""

import bz2
import gzip
import io
import json
import lzma
import os
import random
import re
import signal
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

import dks.graph as graph_module
from dks import (Graph, ProblemInstance, density_upper_bound, exact_dks,
                 greedy_feige, load_edge_list, project_capped_simplex,
                 rank1_lrbo, run_sweep, top_k_indices)
from dks.cli import main
from dks.graph import induced_edge_count

from conftest import random_graph


def test_from_edges_triangle(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert triangle.degrees.tolist() == [2, 2, 2]
    assert sorted(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_from_edges_merges_duplicates_and_reversals():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.m == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_from_edges_drops_self_loops():
    g = Graph.from_edges(3, [(0, 0), (1, 1), (0, 2)])
    assert g.m == 1
    assert sorted(g.edges()) == [(0, 2)]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_from_edges_matches_set_reference():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = 1 if trial < 5 else int(rng.integers(2, 40))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        loops = np.repeat(rng.integers(0, n, size=(len(pairs) // 5, 1)), 2, axis=1)
        pairs = np.concatenate([pairs, pairs[: len(pairs) // 3, ::-1],
                                pairs[: len(pairs) // 4], loops])
        pairs = pairs[rng.permutation(len(pairs))]
        g = Graph.from_edges(n, pairs)

        adjacent = [set() for _ in range(n)]
        for a, b in pairs.tolist():
            if a != b:
                adjacent[a].add(b)
                adjacent[b].add(a)
        degrees = [len(s) for s in adjacent]
        assert g.n == n
        assert g.m == sum(degrees) // 2
        assert g.degrees.tolist() == degrees
        assert g.row_offsets.tolist() == [0] + np.cumsum(degrees).tolist()
        assert g.neighbors.tolist() == [j for s in adjacent for j in sorted(s)]
        for arr in (g.row_offsets, g.neighbors):
            assert arr.dtype == g.matrix.indices.dtype
        for bad in ([0, n], [-1, 0]):
            with pytest.raises(ValueError, match="out of range"):
                Graph.from_edges(n, np.vstack([pairs, [bad]]))


def test_from_edges_leaves_caller_edges_unchanged():
    # The build sorts and overwrites its buffer, so from_edges must hand it a
    # copy of the caller's array, even one that is already int64 (E, 2).
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 12, size=(60, 2))
    edges = np.concatenate([edges, edges[:10, ::-1], edges[:10], [[3, 3], [7, 7]]])
    before = edges.copy()
    g = Graph.from_edges(12, edges)
    assert edges.dtype == np.int64 and np.array_equal(edges, before)
    assert not np.shares_memory(g.neighbors, edges)


def test_load_edge_list_peak_memory(tmp_path):
    # Compaction and the CSR build work over the parsed (E, 2) int64 pairs in
    # place, so the load's transient memory stays within 3x those pairs.
    rng = np.random.default_rng(12)
    lines = 200_000
    labels = rng.choice(10**12, size=20_000, replace=False)
    path = tmp_path / "g.txt"
    np.savetxt(path, labels[rng.integers(0, len(labels), size=(lines, 2))], fmt="%d")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert g.n == len(labels)
    assert peak <= 3 * lines * 2 * np.dtype(np.int64).itemsize


def test_adjacency_is_stored_once(tmp_path):
    # row_offsets and neighbors are the CSR matrix's own index arrays, and
    # degrees is derived from row_offsets, on every way a graph is built
    rng = np.random.default_rng(5)
    plain = tmp_path / "g.txt"
    plain.write_text("".join(f"{a} {b}\n" for a, b in rng.integers(-50, 50, (200, 2))))
    packed = tmp_path / "g.txt.gz"
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    graphs = [Graph.from_edges(1, []), Graph.from_edges(1, [(0, 0)]),
              Graph.from_edges(5, []), random_graph(30, 0.2, rng),
              load_edge_list(plain), load_edge_list(packed)]
    for g in graphs:
        assert np.shares_memory(g.row_offsets, g.matrix.indptr)
        # an empty array shares memory with nothing, so an edgeless graph's
        # neighbors are checked by identity alone
        assert g.neighbors is g.matrix.indices
        assert g.m == 0 or np.shares_memory(g.neighbors, g.matrix.indices)
        assert np.array_equal(g.degrees, np.diff(g.row_offsets))
        assert g.matrix.shape == (g.n, g.n) and g.matrix.nnz == 2 * g.m
    assert set(Graph.__dataclass_fields__) == {"n", "m", "matrix", "original_ids"}


def test_neighbor_lists_sorted_and_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.1, 0.9)), rng)
        assert g.degrees.sum() == 2 * g.m
        for i in range(g.n):
            row = g.neighbors_of(i)
            assert np.all(np.diff(row) > 0)
            for j in row:
                assert g.has_edge(int(j), i)


def test_has_edge(path3):
    assert path3.has_edge(0, 1)
    assert path3.has_edge(1, 0)
    assert not path3.has_edge(0, 2)


def test_matrix_matches_edge_list(two_triangles):
    a = two_triangles.matrix.toarray()
    assert a.shape == (6, 6)
    assert np.array_equal(a, a.T)
    assert a.sum() == 2 * two_triangles.m
    assert a[0, 1] == 1 and a[2, 0] == 1 and a[0, 3] == 0


def test_edgeless_graph(edgeless4):
    assert edgeless4.m == 0
    assert edgeless4.degrees.tolist() == [0, 0, 0, 0]
    assert list(edgeless4.edges()) == []


def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n\n10 20\n20 30\n30 10\n")
    g = load_edge_list(p)
    assert g.n == 3
    assert g.m == 3
    # compaction follows first appearance: 10 -> 0, 20 -> 1, 30 -> 2
    assert g.original_ids.tolist() == [10, 20, 30]
    assert g.index_of([30, 10]).tolist() == [2, 0]


def test_load_edge_list_gzip(tmp_path):
    p = tmp_path / "g.txt.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("0 1\n1 2\n")
    g = load_edge_list(p)
    assert g.n == 3 and g.m == 2

    plain = tmp_path / "untidy.txt"
    plain.write_bytes(untidy_text().encode())
    packed = tmp_path / "untidy.txt.gz"
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    assert_same_graph(load_edge_list(packed), load_edge_list(plain))


def assert_same_graph(g, h):
    assert (g.n, g.m) == (h.n, h.m)
    for name in ("row_offsets", "neighbors", "degrees", "original_ids"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def untidy_text():
    """A seeded edge list with every form the grammar allows, CRLF-terminated."""
    rng = np.random.default_rng(3)
    labels = [-7, 0, 3, 10**12, -(2**63), 2**63 - 1] + rng.integers(-10**9, 10**9, 40).tolist()
    lines = ["# header line", ""]
    for _ in range(200):
        a, b = (labels[i] for i in rng.integers(0, len(labels), 2))
        form = int(rng.integers(0, 6))
        if form == 0:
            lines.append(f"{b}\t{a}")
        elif form == 1:
            lines.append(f"  {a}   {a}  ")
        elif form == 2:
            lines.append(f"\t{a} \t {b}\t")
        elif form == 3 and len(lines) > 2:
            lines.append(lines[-1])
        else:
            lines.append(f"{a} {b}")
    lines[60:60] = ["   # comment mid-file", "", " \t "]
    return "\r\n".join(lines) + "\r\n"


def test_load_edge_list_untidy_file_matches_reference(tmp_path):
    text = untidy_text()
    path = tmp_path / "untidy.txt"
    path.write_bytes(text.encode())

    index, edges = {}, set()
    for line in text.split("\r\n"):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        u, v = (int(t) for t in tokens)
        for label in (u, v):
            index.setdefault(label, len(index))
        if u != v:
            edges.add(frozenset((index[u], index[v])))

    g = load_edge_list(path)
    assert g.original_ids.tolist() == list(index)
    assert g.n == len(index)
    assert g.m == len(edges)
    assert {frozenset(e) for e in g.edges()} == edges
    for i in range(g.n):
        assert np.all(np.diff(g.neighbors_of(i)) > 0)


@pytest.mark.parametrize("suffix, compress", [
    (".bz2", bz2.compress), (".xz", lzma.compress),
    (".lzma", lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE))],
    ids=["bz2", "xz", "lzma"])
def test_load_edge_list_bz2_and_xz(tmp_path, suffix, compress):
    # numpy's parser decompresses these suffixes itself, so the loader's own
    # read, which checks the grammar numpy does not, must decompress them too.
    plain = tmp_path / "untidy.txt"
    plain.write_bytes(untidy_text().encode())
    packed = tmp_path / f"untidy.txt{suffix}"
    packed.write_bytes(compress(plain.read_bytes()))
    assert_same_graph(load_edge_list(packed), load_edge_list(plain))

    bad = tmp_path / f"bad.txt{suffix}"
    bad.write_bytes(compress(b"0 1\n1 2 # note\n"))
    with pytest.raises(ValueError, match=r"bad\.txt\S*:2: expected two vertex ids, got 4 tokens"):
        load_edge_list(bad)
    bad.write_bytes(b"0 1\n1 2\n")  # not compressed at all
    with pytest.raises(OSError):
        load_edge_list(bad)


@pytest.mark.parametrize("suffix, compress", [
    ("", bytes), (".gz", gzip.compress), (".xz", lzma.compress)],
    ids=["plain", "gz", "xz"])
def test_bad_line_after_lone_cr_endings(tmp_path, suffix, compress):
    # The error path streams the file's lines in text mode, whose universal
    # newlines end a line at a lone CR as well as at LF and CR LF.
    path = tmp_path / f"cr.txt{suffix}"
    path.write_bytes(compress(b"10 20\r20 30\r\n30 x\r40 50\r"))
    with pytest.raises(ValueError, match=r"cr\.txt\S*:3: non-integer vertex id"):
        load_edge_list(path)


@pytest.mark.parametrize("suffix, compress", [
    ("", bytes), (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress)],
    ids=["plain", "gz", "bz2", "xz"])
def test_byte_that_is_not_utf8_names_its_line(tmp_path, suffix, compress):
    # The decoder's own error gives a position within its chunk, not a line.
    lines = [b"%d %d\r\n" % (i, i + 1) for i in range(4000)]
    lines[3000] = b"3000 \xff3001\r\n"
    path = tmp_path / f"latin.txt{suffix}"
    path.write_bytes(compress(b"".join(lines)))
    with pytest.raises(ValueError, match=r"latin\.txt\S*:3001: not UTF-8"):
        load_edge_list(path)
    path.write_bytes(compress(b"0 1\n# caf\xe9\n1 2\n"))  # in a comment too
    with pytest.raises(ValueError, match=r"latin\.txt\S*:2: not UTF-8"):
        load_edge_list(path)


def test_load_edge_list_url_shaped_path_stays_local(tmp_path, monkeypatch, no_network):
    # numpy opens a relative string path as a URL when it parses as one; the
    # loader must read 'http://x.txt' as the local file http:/x.txt.
    (tmp_path / "http:").mkdir()
    (tmp_path / "http:" / "x.txt").write_text("5 6\n6 7\n")
    monkeypatch.chdir(tmp_path)
    g = load_edge_list("http://x.txt")
    assert g.original_ids.tolist() == [5, 6, 7]
    assert_same_graph(g, load_edge_list(tmp_path / "http:" / "x.txt"))
    with pytest.raises(FileNotFoundError):
        load_edge_list("http://missing.txt")


# 2 * ROUTE_LINES labels leave 63 - 7 bits for a label's offset from the minimum.
ROUTE_LINES = 40
PACK_LIMIT = 1 << (63 - (2 * ROUTE_LINES - 1).bit_length())


@pytest.mark.parametrize("lo, hi", [
    (-5, -5 + PACK_LIMIT - 1), (-5, -5 + PACK_LIMIT),
    (-(2**63), -(2**63) + PACK_LIMIT - 1), (2**63 - 1 - PACK_LIMIT, 2**63 - 1),
    (-(2**63), 2**63 - 1)],
    ids=["inside", "outside", "inside-at-min", "outside-at-max", "int64-extremes"])
def test_load_edge_list_both_compaction_routes(tmp_path, monkeypatch, lo, hi):
    # Labels are packed with their positions into one int64 sort key while
    # their span stays below PACK_LIMIT; at or above it the loader falls back
    # to a stable argsort.  Both routes must give the first-appearance and
    # edge-set reference.
    rand = random.Random(f"{lo} {hi}")
    pool = [lo, hi] + [rand.randint(lo, hi) for _ in range(12)]
    lines = [(lo, hi), (hi, hi)] + [(rand.choice(pool), rand.choice(pool))
                                    for _ in range(ROUTE_LINES - 2)]
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in lines))

    index, adjacent = {}, {}
    for u, v in lines:
        for label in (u, v):
            adjacent.setdefault(index.setdefault(label, len(index)), set())
        if u != v:
            adjacent[index[u]].add(index[v])
            adjacent[index[v]].add(index[u])

    kinds = []
    real_argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    g = load_edge_list(path)
    assert ("stable" in kinds) == (hi - lo >= PACK_LIMIT)
    assert g.original_ids.tolist() == list(index)
    assert g.row_offsets.tolist() == [0] + np.cumsum(
        [len(adjacent[i]) for i in range(len(index))]).tolist()
    assert g.neighbors.tolist() == [j for i in range(len(index)) for j in sorted(adjacent[i])]


def test_load_edge_list_merges_directed_duplicates(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("0 1\n1 0\n1 2\n")
    g = load_edge_list(p)
    assert g.m == 2


def test_load_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected two vertex ids"):
        load_edge_list(bad)
    bad.write_text("0 x\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_edge_list(bad)
    bad.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no edges"):
        load_edge_list(bad)

    bad.write_text("0 1\n1 2 # note\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected two vertex ids, got 4 tokens"):
        load_edge_list(bad)
    bad.write_text("# header\n0 1\n\n1 2\n7\n2 3\n")
    with pytest.raises(ValueError, match=r"bad\.txt:5: expected two vertex ids, got 1 tokens"):
        load_edge_list(bad)
    bad.write_text("0 1\n\n0 x\n")
    with pytest.raises(ValueError, match=r"bad\.txt:3: non-integer vertex id"):
        load_edge_list(bad)
    bad.write_text("# only\n\n   \n# comments\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(bad)


def test_comment_guard_across_block_boundaries(tmp_path, monkeypatch):
    # The '#'-after-data guard reads the file a block at a time and carries
    # each block's unfinished line into the next.  Over every block size up
    # to the file's length, a boundary splits each CR LF and falls between
    # each '#' and the data before it on its line.  A lone CR ends a line.
    good = b"# header\r\n10 20\r# after a lone CR\r20 30\r\n  # mid-file\r\n30 10\r\n"
    files = {"good.txt": good, "good.txt.gz": gzip.compress(good),
             "bad.txt": b"10 20\r\n20 30 # note\r\n30 10\r\n",
             "cr.txt": b"10 20\r20 30\r30 40 #\r"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    reference = load_edge_list(tmp_path / "good.txt")
    assert reference.original_ids.tolist() == [10, 20, 30] and reference.m == 3
    for size in range(1, max(map(len, files.values())) + 1):
        monkeypatch.setattr(graph_module, "_TEXT_BLOCK", size)
        assert_same_graph(load_edge_list(tmp_path / "good.txt"), reference)
        assert_same_graph(load_edge_list(tmp_path / "good.txt.gz"), reference)
        with pytest.raises(ValueError, match=r"bad\.txt:2: expected two vertex ids, got 4 tokens"):
            load_edge_list(tmp_path / "bad.txt")
        with pytest.raises(ValueError, match=r"cr\.txt:3: expected two vertex ids, got 3 tokens"):
            load_edge_list(tmp_path / "cr.txt")


def test_load_edge_list_integer_grammar(tmp_path):
    # Signed ASCII digits within int64 are vertex ids; underscores,
    # non-ASCII digits and values outside int64 are errors at their line.
    path = tmp_path / "g.txt"
    path.write_text(f"+5 -5\n007 {2**63 - 1}\n{-(2**63)} +5\n")
    g = load_edge_list(path)
    assert g.original_ids.tolist() == [5, -5, 7, 2**63 - 1, -(2**63)]
    assert g.m == 3
    for line, message in [("1_000 2", "non-integer vertex id"),
                          ("1 \u0663", "non-integer vertex id"),
                          ("1.5 2", "non-integer vertex id"),
                          ("1e3 2", "non-integer vertex id"),
                          ("99999999999999999999 3", "vertex id outside the int64 range"),
                          (f"{-(2**63) - 1} 3", "vertex id outside the int64 range")]:
        path.write_text(f"0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"g\.txt:2: {message}"):
            load_edge_list(path)


def test_load_edge_list_rejects_int_via_float_fallback(tmp_path, monkeypatch):
    # Some numpy releases parse a token that is not an integer as a float,
    # cast it and only emit a DeprecationWarning.  Mimic that parser: the
    # loader must still report the line instead of loading the cast value.
    real_loadtxt = np.loadtxt

    def loadtxt_with_float_fallback(fname, dtype=float, **kwargs):
        with open(fname, encoding=kwargs["encoding"]) as fh:  # a path, as the loader passes
            text = fh.read()
        try:
            return real_loadtxt(io.StringIO(text), dtype=dtype, **kwargs)
        except ValueError:
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string") from exc
            return real_loadtxt(io.StringIO(text), dtype=float, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_float_fallback)
    path = tmp_path / "g.txt"
    for line, message in [("1.5 2", "non-integer vertex id"),
                          ("1e3 2", "non-integer vertex id"),
                          ("99999999999999999999 3", "vertex id outside the int64 range")]:
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match=rf"g\.txt:2: {message}"):
            load_edge_list(path)


# Lines of the files below that are over the sidecar threshold.
OVER_THRESHOLD_LINES = graph_module._SIDECAR_MIN_BYTES // 18


def write_over_threshold(path, seed, pool=3000, lines=OVER_THRESHOLD_LINES):
    """A seeded edge list of int64 labels whose file is over the sidecar
    threshold; its lines draw from ``pool`` labels, or from all of int64
    when ``pool`` is None, which keeps a gzipped file that large too."""
    rng = np.random.default_rng(seed)
    shape = (lines, 2)
    if pool is None:
        pairs = rng.integers(-(2**63), 2**63 - 1, size=shape, endpoint=True)
    else:
        pairs = rng.choice(10**15, size=pool, replace=False)[rng.integers(0, pool, shape)]
    text = "".join(f"{a} {b}\n" for a, b in pairs.tolist()).encode()
    path.write_bytes(gzip.compress(text) if path.suffix == ".gz" else text)
    assert path.stat().st_size >= graph_module._SIDECAR_MIN_BYTES
    return path


def sidecar_of(path):
    return path.with_name(f".{path.name}.dks.npz")


def parsed(path, monkeypatch):
    """The graph of ``path`` from a parse, with the sidecar out of play."""
    with monkeypatch.context() as m:
        m.setattr(graph_module, "_SIDECAR_MIN_BYTES", float("inf"))
        return load_edge_list(path)


def warm(path, monkeypatch):
    """``load_edge_list(path)``, failing the test if it parses the file."""
    def no_parse(*args):
        raise AssertionError("the load parsed the file")

    with monkeypatch.context() as m:
        m.setattr(graph_module, "_read_ids", no_parse)
        return load_edge_list(path)


@pytest.mark.parametrize("name, pool", [("g.txt", 3000), ("g.txt.gz", None)],
                         ids=["plain", "gz"])
def test_warm_load_equals_cold(tmp_path, monkeypatch, name, pool):
    # A load of a file over the threshold leaves its CSR arrays in a sidecar,
    # and the next load builds the graph from them without a parse: the same
    # values and dtypes, with the index arrays still the matrix's own.
    path = write_over_threshold(tmp_path / name, 1, pool)
    cold = load_edge_list(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, sidecar_of(path).name])
    hot = warm(path, monkeypatch)
    assert_same_graph(hot, cold)
    assert hot.matrix.indptr.dtype == cold.matrix.indptr.dtype == np.int32
    assert np.shares_memory(hot.row_offsets, hot.matrix.indptr)
    assert np.shares_memory(hot.neighbors, hot.matrix.indices)
    assert np.array_equal(hot.matrix.data, cold.matrix.data)
    assert hot.matrix.data.dtype == np.float64
    assert_same_graph(cold, parsed(path, monkeypatch))


def test_cli_prints_the_same_warm_and_cold(tmp_path, capsys):
    path = write_over_threshold(tmp_path / "g.txt", 2)
    g = load_edge_list(path)
    sidecar_of(path).unlink()
    selection = tmp_path / "sel.txt"
    selection.write_text("".join(f"{x}\n" for x in g.original_ids[:8].tolist()))
    commands = {"solve": ["solve", "--graph", str(path), "--k", "10", "--output", "json"],
                "score": ["score", "--graph", str(path), "--selection", str(selection),
                          "--output", "json"]}
    for name, argv in commands.items():
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("wall_time_s", None)
            outputs.append(payload)
            assert sidecar_of(path).exists()
        assert outputs[0] == outputs[1], name
        sidecar_of(path).unlink()


def test_file_rewritten_at_same_size_and_mtime_is_reloaded(tmp_path, monkeypatch):
    # The sidecar trusts the file's bytes, not its size and mtime.
    path = write_over_threshold(tmp_path / "g.txt", 3)
    old = load_edge_list(path)
    st = path.stat()
    text = path.read_bytes()
    first, rest = text.split(b"\n", 1)
    a, b = first.split()
    new_text = b" ".join([b"9" * len(a), b"8" * len(b)]) + b"\n" + rest
    assert len(new_text) == len(text)
    path.write_bytes(new_text)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    new = load_edge_list(path)
    assert new.original_ids[:2].tolist() == [int(b"9" * len(a)), int(b"8" * len(b))]
    assert new.original_ids.tolist() != old.original_ids.tolist()
    assert_same_graph(new, parsed(path, monkeypatch))
    assert_same_graph(warm(path, monkeypatch), new)  # the sidecar was replaced


def _stored(sidecar):
    with np.load(sidecar) as z:
        return {name: z[name] for name in z.files}


def _write_npy(sidecar, array):
    buf = io.BytesIO()
    np.save(buf, array)
    sidecar.write_bytes(buf.getvalue())


def _with(array, i, value):
    array = array.copy()
    array[i] = value
    return array


def _rewrite_sidecar(sidecar, **changes):
    arrays = {**_stored(sidecar), **changes}
    with open(sidecar, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("damage", [
    lambda s, other: s.write_bytes(s.read_bytes()[:len(s.read_bytes()) // 2]),
    lambda s, other: s.write_bytes(np.random.default_rng(0).bytes(4096)),
    lambda s, other: s.write_bytes(b"PK\x03\x04" + bytes(100)),
    lambda s, other: s.write_bytes(b""),
    lambda s, other: _write_npy(s, other["indices"]),
    lambda s, other: _rewrite_sidecar(s, **other, sha256=np.zeros(32, np.uint8)),
    lambda s, other: _rewrite_sidecar(s, **other, format=np.int64(2)),
    lambda s, other: _rewrite_sidecar(s, original_ids=_stored(s)["original_ids"] + 0.0),
    lambda s, other: _rewrite_sidecar(s, original_ids=other["original_ids"][:-1]),
    lambda s, other: _rewrite_sidecar(s, indices=other["indices"][:-2]),
    lambda s, other: _rewrite_sidecar(s, indices=_with(_stored(s)["indices"], 0, 10**6)),
    lambda s, other: _rewrite_sidecar(s, indices=_with(_stored(s)["indices"], -1, -1)),
    lambda s, other: _rewrite_sidecar(s, indptr=_with(_stored(s)["indptr"], 1, 10**4)),
], ids=["truncated", "garbage", "zip-magic-then-zeros", "empty", "npy", "wrong-digest",
        "other-format", "wrong-dtype", "wrong-shape", "wrong-length", "index-past-n",
        "negative-index", "falling-indptr"])
def test_bad_sidecar_is_ignored_and_replaced(tmp_path, monkeypatch, damage):
    # Each damaged sidecar is a miss: the load parses the file, never raises,
    # and leaves a good sidecar.  The wrong-digest and other-format sidecars
    # hold another graph's arrays, so taking them would show.  The last three
    # keep the right digest, shapes and dtypes, with one index past n, one
    # below 0, or an indptr that falls after its first row (n = 3000, and
    # 2m is above 10**4).
    path = write_over_threshold(tmp_path / "g.txt", 4)
    other_path = write_over_threshold(tmp_path / "other.txt", 5)
    g = load_edge_list(path)
    other = load_edge_list(other_path)
    other = {"indptr": other.row_offsets, "indices": other.neighbors,
             "original_ids": other.original_ids}
    damage(sidecar_of(path), other)
    assert_same_graph(load_edge_list(path), g)
    assert_same_graph(warm(path, monkeypatch), g)


def test_sidecar_that_is_a_directory_is_a_miss(tmp_path):
    path = write_over_threshold(tmp_path / "g.txt", 6)
    sidecar_of(path).mkdir()
    g = load_edge_list(path)
    assert_same_graph(load_edge_list(path), g)
    assert sidecar_of(path).is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["g.txt", sidecar_of(path).name])


def test_sidecar_that_is_a_fifo_is_a_miss(tmp_path, monkeypatch):
    # Opening a FIFO for reading waits for a writer; the load must not.
    path = write_over_threshold(tmp_path / "g.txt", 6)
    os.mkfifo(sidecar_of(path))

    class Blocked(BaseException):
        """Not an Exception, so the sidecar read cannot take it for a miss."""

    def stuck(*args):
        raise Blocked("the load blocked on the FIFO")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        g = load_edge_list(path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_same_graph(g, parsed(path, monkeypatch))
    assert_same_graph(warm(path, monkeypatch), g)  # the FIFO was replaced


def _truncated_gz(path):
    write_over_threshold(path, 7, None)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 1000])


@pytest.mark.parametrize("name, make, error, message", [
    ("bad.txt", lambda p: p.write_bytes(write_over_threshold(p, 8).read_bytes() + b"1 2 3\n"),
     ValueError, "{path}:{lines}: expected two vertex ids, got 3 tokens"),
    ("bad.txt", lambda p: p.write_bytes(write_over_threshold(p, 8).read_bytes() + b"1 2 # x\n"),
     ValueError, "{path}:{lines}: expected two vertex ids, got 4 tokens"),
    ("bad.txt.gz", _truncated_gz,
     OSError, "{path}: Compressed file ended before the end-of-stream marker was reached"),
], ids=["bad-line", "comment-after-data", "truncated-gz"])
def test_failed_load_writes_no_sidecar(tmp_path, name, make, error, message):
    path = tmp_path / name
    make(path)
    with pytest.raises(error) as exc:
        load_edge_list(path)
    assert str(exc.value) == message.format(path=path, lines=OVER_THRESHOLD_LINES + 1)
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _refuse_write(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("target", [(tempfile, "mkstemp"), (os, "replace")],
                         ids=["temp-file", "rename"])
def test_sidecar_that_cannot_be_written_is_skipped(tmp_path, monkeypatch, target):
    # The load still returns the graph, says nothing, and leaves no file.
    path = write_over_threshold(tmp_path / "g.txt", 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            m.setattr(*target, _refuse_write)
            g = load_edge_list(path)
    assert_same_graph(g, parsed(path, monkeypatch))
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


def test_file_changed_during_the_load_is_not_cached(tmp_path, monkeypatch):
    # The stat taken before the hash must still hold after the parse.
    path = write_over_threshold(tmp_path / "g.txt", 10)
    real = graph_module._read_ids

    def touching_read_ids(*args):
        ids = real(*args)
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        return ids

    monkeypatch.setattr(graph_module, "_read_ids", touching_read_ids)
    load_edge_list(path)
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


def test_sidecar_starts_at_the_threshold(tmp_path):
    # A file one byte below the threshold is parsed on every load and gets
    # no sidecar; at the threshold it gets one.  So the small files of the
    # grammar and block-boundary tests above are parsed on every load.
    limit = graph_module._SIDECAR_MIN_BYTES
    head = b"10 20\n20 30\n30 10\n"
    for size, cached in ((limit - 1, False), (limit, True)):
        path = tmp_path / f"{size}.txt"
        path.write_bytes(head + b"#" * (size - len(head) - 1) + b"\n")
        assert path.stat().st_size == size
        for _ in range(2):
            assert load_edge_list(path).original_ids.tolist() == [10, 20, 30]
        assert sidecar_of(path).exists() == cached


def test_sidecar_keeps_the_input_permissions(tmp_path):
    path = write_over_threshold(tmp_path / "g.txt", 11)
    path.chmod(0o640)
    load_edge_list(path)
    assert sidecar_of(path).stat().st_mode & 0o777 == 0o640


def test_warm_load_peak_memory(tmp_path):
    # A warm load reads the sidecar's arrays a slice at a time into the
    # graph's own arrays: beside the graph it holds no parse-sized buffer
    # (the parse's is 16 B per line).  Measured: 10 kB above the graph's
    # 1.6 MB, where the bound allows 1 B per line, 58 kB.
    lines = 58_254
    path = write_over_threshold(tmp_path / "g.txt", 12, pool=20_000, lines=lines)
    load_edge_list(path)  # cold: parse and write the sidecar
    assert sidecar_of(path).exists()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    graph_bytes = sum(a.nbytes for a in (g.matrix.indptr, g.matrix.indices,
                                         g.matrix.data, g.original_ids))
    assert peak <= graph_bytes + lines


def test_index_of_unknown_label(triangle):
    with pytest.raises(ValueError, match="unknown vertex label"):
        triangle.index_of([7])


@pytest.mark.parametrize("ids", [[0.5, 1.7], np.array([0.0, 1.0]), np.array([True, False])],
                         ids=["fractions", "whole-floats", "bools"])
@pytest.mark.parametrize("entry", [
    lambda g, ids: Graph.from_edges(3, [ids]),
    lambda g, ids: induced_edge_count(g, ids),
    lambda g, ids: g.index_of(ids),
], ids=["from_edges", "induced_edge_count", "index_of"])
def test_vertex_ids_must_be_integers(triangle, entry, ids):
    # ids are refused, not truncated: (0.5, 1.7) is not the edge (0, 1)
    with pytest.raises(ValueError, match="integers"):
        entry(triangle, ids)


def test_integer_ids_of_any_width_pass(triangle):
    assert Graph.from_edges(3, []).m == 0
    assert Graph.from_edges(3, np.array([[0, 1]], dtype=np.uint8)).m == 1
    assert induced_edge_count(triangle, np.array([0, 2], dtype=np.int32)) == 1
    assert triangle.index_of(np.array([2], dtype=np.uint64)).tolist() == [2]


def test_problem_instance_validation(triangle):
    ProblemInstance(graph=triangle, k=2, loading=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(graph=triangle, k=0)
    with pytest.raises(ValueError):
        ProblemInstance(graph=triangle, k=4)
    with pytest.raises(ValueError):
        ProblemInstance(graph=triangle, k=2, loading=-0.5)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(graph=triangle, k=2, loading=lam)
    for lam in (1e308, np.float64(1e308)):
        with pytest.raises(ValueError, match="overflow"):
            ProblemInstance(graph=triangle, k=2, loading=lam)


# Every entry point that takes a subgraph size k, with the lowest k it takes.
_K_ENTRY_POINTS = [
    ("project_capped_simplex", 0, lambda g, k: project_capped_simplex(
        np.linspace(0.0, 1.0, g.n), k)),
    ("top_k_indices", 0, lambda g, k: top_k_indices(g.degrees, k)),
    ("greedy_feige", 2, greedy_feige),
    ("rank1_lrbo", 1, rank1_lrbo),
    ("density_upper_bound", 2, density_upper_bound),
    ("ProblemInstance", 1, lambda g, k: ProblemInstance(graph=g, k=k)),
    ("exact_dks", 1, exact_dks),
    ("run_sweep", 1, lambda g, k: run_sweep(g, 1.0, [k], ["rank1"])),
]


@pytest.mark.parametrize("lo, entry", [pytest.param(lo, entry, id=name)
                                       for name, lo, entry in _K_ENTRY_POINTS])
def test_k_range_is_one_rule(two_triangles, lo, entry):
    g = two_triangles
    entry(g, lo)
    entry(g, g.n)
    for k in (lo - 1, g.n + 1):
        with pytest.raises(ValueError, match=re.escape(f"k={k} outside [{lo}, {g.n}]")):
            entry(g, k)


def test_induced_edge_count(two_triangles):
    assert induced_edge_count(two_triangles, [0, 1, 2]) == 3
    assert induced_edge_count(two_triangles, [0, 1, 3]) == 1
    assert induced_edge_count(two_triangles, [0, 3]) == 0
    with pytest.raises(ValueError):
        induced_edge_count(two_triangles, [0, 0])
    with pytest.raises(ValueError):
        induced_edge_count(two_triangles, [0, 6])


def test_induced_edge_count_matches_pair_count():
    # brute force over every pair of the subset, on random graphs and
    # subsets of every size from empty to the whole vertex set
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = random_graph(int(rng.integers(1, 25)), float(rng.uniform(0.0, 0.9)), rng)
        edges = set(g.edges())
        for k in sorted({0, 1, int(rng.integers(0, g.n + 1)), g.n}):
            subset = rng.permutation(g.n)[:k]
            expected = sum((min(a, b), max(a, b)) in edges
                           for i, a in enumerate(subset.tolist())
                           for b in subset.tolist()[i + 1:])
            assert induced_edge_count(g, subset) == expected, (g.n, k)
    assert induced_edge_count(g, []) == 0
    assert induced_edge_count(g, np.arange(g.n)) == g.m


def test_random_graph_density_against_matrix():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_graph(int(rng.integers(3, 20)), float(rng.uniform(0.2, 0.8)), rng)
        k = int(rng.integers(2, g.n + 1))
        subset = rng.choice(g.n, size=k, replace=False)
        ind = np.zeros(g.n)
        ind[subset] = 1.0
        expected = ind @ g.matrix.dot(ind) / 2.0
        assert induced_edge_count(g, subset) == int(expected)
