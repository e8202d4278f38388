"""Sparse undirected simple graphs in CSR form, and the vertex-id file loaders.

A graph holds its adjacency once, as one scipy CSR matrix; the index
arrays the solvers walk are that matrix's own.  Graphs are immutable after
construction: loaders and constructors remove self-loops, merge parallel
edges, symmetrize directed input, and compact vertex ids to 0..n-1 in
first-appearance order.  The original labels are kept so results can be
reported in the input's id space.  An edge list of at least 128 KiB keeps
its parsed arrays in a content-hashed sidecar file beside it, which later
loads of the same bytes read instead of parsing (see ``load_edge_list``).
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import hashlib
import lzma
import os
import re
import stat
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
# What a byte that is not UTF-8 decodes to under errors="surrogateescape".
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_EXPECTED_IDS = {1: "one vertex id", 2: "two vertex ids"}
# The suffixes numpy's loadtxt decompresses when it gets a path; the
# '#'-after-data guard must read the same text, so it opens them alike.
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}
# Bytes per read of the '#'-after-data guard, which holds about one block
# at a time, never the whole file.  On the benchmark's files 64 KiB blocks
# scanned faster than 1 MiB ones and left the load a lower peak RSS.  The
# sidecar's hash reads by the same blocks, as fast as by 1 MiB ones.
_TEXT_BLOCK = 1 << 16
# Elements per slice of the loader's in-place passes: large enough that
# numpy's per-call cost does not show, small enough that no pass allocates
# a temporary the size of its buffer.
_CHUNK = 1 << 14
# An edge-list file of at least this many bytes keeps its parsed CSR arrays
# in a sidecar beside it (see load_edge_list).  Reading a sidecar costs about
# 0.5 ms whatever its size, and writing one about 0.3 ms plus 1.3 ms per MB
# of input.  Measured in process on benchmark-style files: a warm load beats
# the parse from about 30 kB, and its saving covers the first load's extra
# cost from about 90 kB (+0.54 ms first, -0.82 ms on each later load at
# 131 kB), so from this size a file read twice has already gained.
_SIDECAR_MIN_BYTES = 1 << 17
# Raised whenever the sidecar's arrays or their meaning change, so an old
# sidecar reads as a miss.
_SIDECAR_FORMAT = 1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph stored once, as a scipy CSR adjacency matrix.

    Attributes
    ----------
    n : number of vertices
    m : number of undirected edges (each counted once)
    matrix : the n x n adjacency matrix as a scipy CSR matrix (0/1 entries,
        float64); its ``indptr`` and ``indices`` are the graph's
        ``row_offsets`` and ``neighbors``
    original_ids : labels from the input file, indexed by compact id

    ``row_offsets`` (length n+1) and ``neighbors`` (length 2m) are views of
    the matrix's index arrays, in the index dtype scipy picks: int32 while
    n and 2m fit, int64 beyond.  Vertex i's neighbors live in
    ``neighbors[row_offsets[i]:row_offsets[i+1]]``; each list is strictly
    increasing, contains no self-loops, and is symmetric (j in i's list iff
    i in j's list).  ``degrees`` is computed from ``row_offsets`` on access.
    """

    n: int
    m: int
    matrix: scipy.sparse.csr_matrix
    original_ids: np.ndarray

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build a graph on ``n`` vertices from an iterable/array of id pairs.

        Self-loops are dropped, duplicate and reversed duplicates merged.
        Ids must already be compact (0 <= id < n), and each is its own
        label.  The edges are first copied into an int64 array that the
        build then sorts and overwrites, so the caller's array is never
        modified.
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = _integer_ids(list(edges) if not isinstance(edges, np.ndarray) else edges)
        pairs = np.array(pairs, dtype=np.int64, order="C").reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError(f"vertex id out of range [0, {n})")
        indices, row_offsets = _arcs_in_place(n, pairs.reshape(-1))
        del pairs  # before the matrix's data is allocated
        return cls(n=n, m=len(indices) // 2, matrix=_csr(n, indices, row_offsets),
                   original_ids=np.arange(n, dtype=np.int64))

    @property
    def row_offsets(self) -> np.ndarray:
        return self.matrix.indptr

    @property
    def neighbors(self) -> np.ndarray:
        return self.matrix.indices

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    @cached_property
    def _label_index(self) -> dict:
        return {int(lbl): i for i, lbl in enumerate(self.original_ids)}

    def neighbors_of(self, i) -> np.ndarray:
        return self.neighbors[self.row_offsets[i]:self.row_offsets[i + 1]]

    def has_edge(self, i, j) -> bool:
        row = self.neighbors_of(i)
        pos = np.searchsorted(row, j)
        return pos < len(row) and row[pos] == j

    def edges(self):
        """Yield each undirected edge once as (i, j) with i < j."""
        for i in range(self.n):
            for j in self.neighbors_of(i):
                if j > i:
                    yield i, int(j)

    def index_of(self, labels) -> np.ndarray:
        """Map original input labels back to compact vertex ids."""
        labels = _integer_ids(labels).tolist()
        try:
            return np.array([self._label_index[x] for x in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown vertex label {exc.args[0]}") from None


def load_edge_list(path) -> Graph:
    """Load a whitespace-separated edge list (SNAP style) into a Graph.

    Lines starting with '#' and blank lines are skipped.  Files ending in
    '.gz', '.bz2', '.xz' or '.lzma' are decompressed transparently.  Exactly
    two integer tokens are expected per line: ASCII digits with an optional
    sign, within int64.  Anything else (including edge weights, a trailing
    comment, or '1_000') is an error reported with its line number.
    Self-loops are removed, parallel and reversed duplicates merged, and
    vertex ids compacted to 0..n-1 in first-appearance order.  Directed
    arcs are symmetrized.

    The parsed (E, 2) int64 labels, 16 bytes per line, are the one buffer
    the load works in.  Compaction writes each label's id over it, beside
    one sort buffer of the same size; the CSR build writes the arc keys over
    those ids and sorts them in place, and the buffer is freed before the
    matrix's data is allocated.  The peak, set by compaction, is about twice
    the parsed array.

    A regular file of at least ``_SIDECAR_MIN_BYTES`` keeps what its parse
    built in a hidden sidecar beside it, ``.<name>.dks.npz``: an
    uncompressed npz of a format number, the SHA-256 of the file's raw
    bytes, and the CSR ``indptr`` and ``indices`` and ``original_ids``.  A
    later load hashes the file and, when the digest and the format number
    match, the arrays' shapes and dtypes check out, every index lies in
    [0, n) and ``indptr`` never falls, builds the same graph from those
    arrays without parsing.  Anything else (no sidecar, one that is not a
    regular file or cannot be read, any mismatch) is a miss: the file is
    parsed and the sidecar replaced, by a temp file in the same directory
    and a rename.  A load that fails writes nothing, a write that fails is
    skipped silently, and a file whose size or mtime changed during the load
    is not cached.
    Deleting a sidecar is always safe.
    """
    key = _cache_key(path)
    if key is not None:
        before, digest, sidecar = key
        g = _cached_graph(sidecar, digest)
        if g is not None:
            return g
    ids = _read_ids(path, 2).reshape(-1)
    if not len(ids):
        raise ValueError(f"{path}: no edges found")
    labels = _first_appearance_ids(ids)
    n = len(labels)
    indices, row_offsets = _arcs_in_place(n, ids)
    del ids  # before the matrix's data is allocated
    g = Graph(n=n, m=len(indices) // 2, matrix=_csr(n, indices, row_offsets),
              original_ids=labels)
    if key is not None and _signature(_regular_stat(path)) == _signature(before):
        # The sidecar is as readable as its input, as a .pyc is as its source.
        _write_sidecar(sidecar, stat.S_IMODE(before.st_mode) & 0o666,
                       format=np.int64(_SIDECAR_FORMAT),
                       sha256=np.frombuffer(digest, dtype=np.uint8),
                       indptr=g.row_offsets, indices=g.neighbors, original_ids=labels)
    return g


def _regular_stat(path):
    """``os.stat(path)`` if it names a regular file, else None."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st if stat.S_ISREG(st.st_mode) else None


def _signature(st):
    """What tells a file rewritten since ``st`` was taken, short of its bytes."""
    return None if st is None else (st.st_size, st.st_mtime_ns)


def _cache_key(path):
    """(stat, SHA-256 digest, sidecar path) of a file the sidecar serves, else None.

    The stat is taken before the hash, so that the caller can tell a file
    rewritten since.  A file that cannot be read here is left to the parse,
    which reports it as it would without the cache.
    """
    before = _regular_stat(path)
    if before is None or before.st_size < _SIDECAR_MIN_BYTES:
        return None
    digest = hashlib.sha256()
    block = bytearray(_TEXT_BLOCK)
    try:
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(block):
                digest.update(memoryview(block)[:size])
    except OSError:
        return None
    head, tail = os.path.split(os.fsdecode(path))
    return before, digest.digest(), os.path.join(head, f".{tail}.dks.npz")


def _cached_graph(sidecar: str, digest: bytes):
    """The graph stored in ``sidecar`` for input bytes of this digest, or None.

    None on any read error and any mismatch.  zipfile checks each member's
    CRC as it reads, so a sidecar damaged after it was written is a miss too.
    A damaged zip or npy header can raise almost anything from zipfile or
    numpy's header parser (NotImplementedError for an unknown compression
    method, tokenize.TokenError), and a file that is no zip at all loads as
    one array that is no context manager, so every Exception counts as a
    miss: the parse that follows is always right.
    """
    try:
        # Opened here, not by np.load, which leaves its file open when the
        # zip directory cannot be read.  O_NONBLOCK keeps a FIFO at the path
        # from blocking the open; anything but a regular file is a miss.
        fd = os.open(sidecar, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        with open(fd, "rb") as fh:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                return None
            with np.load(fh, allow_pickle=False) as z:
                fmt = z["format"]
                if fmt.dtype != np.int64 or fmt.shape != () or fmt != _SIDECAR_FORMAT:
                    return None
                if z["sha256"].tobytes() != digest:
                    return None
                indptr, indices, labels = z["indptr"], z["indices"], z["original_ids"]
    except Exception:  # noqa: BLE001 - see the docstring
        return None
    n, arcs = labels.size, indices.size
    if not (labels.shape == (n,) and indptr.shape == (n + 1,) and indices.shape == (arcs,)
            and n >= 1 and arcs % 2 == 0 and labels.dtype == np.int64
            and indptr.dtype == indices.dtype == _index_dtype(n, arcs)
            and indptr[0] == 0 and indptr[-1] == arcs):
        return None
    # The digest is of bytes anyone who reads the input can hash, so whoever
    # can write beside it can plant a sidecar that matches.  scipy checks
    # neither of these, and its kernels index by both unchecked: an index
    # outside [0, n) or a falling indptr would read past the arrays.
    if arcs and (indices.min() < 0 or indices.max() >= n):
        return None
    starts, ends = indptr[:-1], indptr[1:]
    if not all((ends[i:i + _CHUNK] >= starts[i:i + _CHUNK]).all() for i in range(0, n, _CHUNK)):
        return None
    return Graph(n=n, m=arcs // 2, matrix=_csr(n, indices, indptr), original_ids=labels)


def _write_sidecar(sidecar: str, mode: int, **arrays) -> None:
    """Write ``arrays`` as an uncompressed npz at ``sidecar`` with permission
    bits ``mode``, or write nothing.

    The arrays go to a temp file in the sidecar's directory, which one
    rename puts in place, so a reader sees a whole sidecar or none.  The
    cache only saves time, so an OSError skips the write without a word and
    leaves no temp file behind.
    """
    head, tail = os.path.split(sidecar)
    try:
        fd, tmp = tempfile.mkstemp(prefix=tail, suffix=".tmp", dir=head or os.curdir)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.chmod(tmp, mode)
        os.replace(tmp, sidecar)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after the rename


def load_selection_file(path) -> list:
    """The labels of a vertex-selection file, in file order, as Python ints.

    Its grammar, suffixes and ``path:lineno`` errors are ``load_edge_list``'s,
    with one vertex id per line in place of two.
    """
    ids = _read_ids(path, 1).reshape(-1)
    if not len(ids):
        raise ValueError(f"{path}: no vertex ids found")
    return ids.tolist()


def _read_ids(path, per_line: int) -> np.ndarray:
    """The file's data lines as an (E, per_line) int64 array of labels.

    numpy's text parser reads the whole file in one call; only when it
    fails is the text scanned line by line, to name the first bad line.
    """
    try:
        if _file_has_comment_after_data(path):
            raise ValueError("'#' after data")
        # numpy opens a string path through np.lib._datasource, which would
        # fetch one that parses as a URL ('http://x.txt'); an absolute path
        # never does.  Given a path, its C reader pulls the file in blocks.
        return _parse_ids(os.path.abspath(os.fsdecode(path)), per_line)
    except ValueError as exc:
        _raise_first_bad_line(path, per_line)
        raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _opened(path, mode: str):
    """The file, decompressed by suffix, open in ``mode``: "rb", or "rt" for
    UTF-8 text whose lines end at LF, CR LF or a lone CR, and in which a byte
    that is not UTF-8 reads as a lone surrogate.  A corrupt or truncated
    stream raises OSError naming the path."""
    opener = _OPENERS.get(os.path.splitext(os.fsdecode(path))[1], open)
    text = {"encoding": "utf-8", "errors": "surrogateescape"} if mode == "rt" else {}
    try:
        with opener(path, mode, **text) as fh:
            yield fh
    except (OSError, lzma.LZMAError, zlib.error, EOFError) as exc:
        if getattr(exc, "errno", None) is not None:  # a file-system error names the path
            raise
        raise OSError(f"{path}: {exc}") from None


def _file_has_comment_after_data(path) -> bool:
    """``_comment_after_data`` over the file, read ``_TEXT_BLOCK`` bytes at a time.

    Each block's unfinished last line is carried into the next.  A carriage
    return ends a line as a line feed does, as in text-mode reading; CR LF
    becomes a line break and an empty line, which the guard cannot tell
    from one break.
    """
    carry = b""
    with _opened(path, "rb") as fh:
        while block := fh.read(_TEXT_BLOCK):
            text = carry + block
            if b"\r" in text:
                text = text.replace(b"\r", b"\n")
            # A '#' on the unfinished line has all its line's data before it
            # here already, so scanning it now gives the same answer as later.
            if _comment_after_data(text):
                return True
            carry = text[text.rfind(b"\n") + 1:]
    return False


def _parse_ids(source: str, per_line: int) -> np.ndarray:
    """The (E, per_line) int64 labels of the data lines; ValueError on any bad line."""
    with warnings.catch_warnings():
        # An input with only comments and blank lines is reported by the caller.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy releases that still have the 1.23 fallback read a token that
        # is not an integer ('1.5', '1e3', one outside int64) as a float,
        # cast it and only warn; as an error, loadtxt raises ValueError.
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        ids = np.loadtxt(source, dtype=np.int64, ndmin=2, comments="#",
                         encoding="utf-8")
    if not ids.size:
        return ids.reshape(0, per_line)
    if ids.shape[1] != per_line:
        raise ValueError(f"{ids.shape[1]} columns")
    return ids


def _comment_after_data(raw: bytes) -> bool:
    """Whether some '#' follows data on its line.

    Such a line is an error ('1 2 # note' has four tokens), but loadtxt
    would cut the comment off and accept it.  Only the '#' characters are
    visited, so a file whose comments are a header costs one scan.
    """
    pos = raw.find(b"#")
    while pos >= 0:
        start = raw.rfind(b"\n", 0, pos) + 1
        if raw[start:pos].decode("utf-8", "replace").strip():
            return True
        end = raw.find(b"\n", pos)
        if end < 0:
            return False
        pos = raw.find(b"#", end)
    return False


def _raise_first_bad_line(path, per_line: int) -> None:
    """Raise the ``path:lineno`` error for the first line breaking the grammar."""
    with _opened(path, "rt") as lines:
        for lineno, line in enumerate(lines, start=1):
            if _NOT_UTF8.search(line):
                raise ValueError(f"{path}:{lineno}: not UTF-8")
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if len(tokens) != per_line:
                raise ValueError(f"{path}:{lineno}: expected {_EXPECTED_IDS[per_line]}, "
                                 f"got {len(tokens)} tokens")
            if not all(_INT_TOKEN.fullmatch(t) for t in tokens):
                raise ValueError(f"{path}:{lineno}: non-integer vertex id")
            if not all(_INT64_MIN <= int(t) <= _INT64_MAX for t in tokens):
                raise ValueError(f"{path}:{lineno}: vertex id outside the int64 range")


def _arcs_in_place(n: int, ids: np.ndarray):
    """The CSR column indices and row offsets of the id pairs in ``ids``.

    ``ids`` is a C-contiguous int64 buffer that the caller hands over: pairs
    (u, v) of ids in [0, n), back to back.  Each pair's slots receive its two
    arc keys u*n + v and v*n + u, and one in-place sort orders the arcs by
    source, then target, and puts duplicates next to each other.  A key is a
    multiple of n+1 exactly when src == dst (src*n + dst is dst - src modulo
    n+1).  Each slice's kept arcs are moved to the front of the buffer.  The
    column indices come back in a new array of the index dtype scipy picks,
    int32 while n and the arc count fit, so the caller can free the buffer
    before the matrix is built and scipy keeps the array as it is.
    """
    pairs = ids.reshape(-1, 2)
    for s in range(0, len(pairs), _CHUNK):
        u, v = pairs[s:s + _CHUNK].T
        forward = u * n
        forward += v
        v *= n
        v += u
        u[:] = forward
    ids.sort()
    kept, prev = 0, -1  # no key is negative
    for s in range(0, len(ids), _CHUNK):
        part = ids[s:s + _CHUNK]
        multiple = part // (n + 1)  # floor division: several times faster than %
        multiple *= n + 1
        keep = multiple != part
        keep[0] &= part[0] != prev
        keep[1:] &= part[1:] != part[:-1]
        prev = part[-1]
        arcs = part[keep]
        ids[kept:kept + len(arcs)] = arcs
        kept += len(arcs)
    arcs = ids[:kept]
    # Source i's arcs are the kept keys in [i*n, (i+1)*n).
    row_offsets = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
    columns = np.empty(kept, dtype=_index_dtype(n, kept))
    for s in range(0, kept, _CHUNK):
        part = arcs[s:s + _CHUNK]
        source = part // n
        source *= n
        np.subtract(part, source, out=columns[s:s + _CHUNK], casting="unsafe")
    return columns, row_offsets


def _index_dtype(n: int, arcs: int):
    """The CSR index dtype scipy keeps for n vertices and ``arcs`` arcs."""
    return np.int32 if max(n, arcs) <= np.iinfo(np.int32).max else np.int64


def _csr(n: int, indices: np.ndarray, row_offsets: np.ndarray) -> scipy.sparse.csr_matrix:
    """The n x n 0/1 adjacency matrix with the given CSR index arrays."""
    return scipy.sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.float64), indices, row_offsets), shape=(n, n))


def _first_appearance_ids(labels: np.ndarray) -> np.ndarray:
    """Write each label's compact id over ``labels``; return the distinct labels.

    ``labels`` is a 1-D int64 buffer that the caller hands over.  Ids are
    0..n-1 in first-appearance order, and the returned array lists the
    labels by id.  A first pass over the stably sorted labels writes each
    label's rank among the distinct labels over it, and a second maps those
    ranks to first-appearance order.  Beside ``labels`` only the sort's
    output is full size; every other step works on a slice of it.
    """
    heads, firsts = [], []
    group, prev = -1, None
    for run, pos in _sorted_runs(labels):
        starts = np.empty(len(run), dtype=bool)
        starts[0] = prev is None or run[0] != prev
        np.not_equal(run[1:], run[:-1], out=starts[1:])
        prev = run[-1]
        ranks = np.cumsum(starts)
        ranks += group
        group = ranks[-1]
        heads.append(run[starts])
        # The sort is stable, so each group's first position is where it first appears.
        firsts.append(pos[starts])
        labels[pos] = ranks
    order = np.argsort(np.concatenate(firsts))
    to_id = np.empty_like(order)
    to_id[order] = np.arange(len(order))
    for s in range(0, len(labels), _CHUNK):
        labels[s:s + _CHUNK] = to_id[labels[s:s + _CHUNK]]
    return np.concatenate(heads)[order]


def _sorted_runs(labels: np.ndarray):
    """The int64 ``labels`` in stable sorted order with their positions, a slice at a time.

    A value sort is several times faster than an argsort, so each label is
    packed with its position into one key, (label - min) << b | position,
    where b bits hold any position.  Only when the label span leaves fewer
    than 63 - b bits does it fall back to a stable argsort.  Each slice is
    read only when the next one is asked for, so the caller may overwrite
    the positions of the slices it has had.
    """
    lo = int(labels.min())
    b = (len(labels) - 1).bit_length()
    if int(labels.max()) - lo >= 1 << (63 - b):
        perm = np.argsort(labels, kind="stable")
        for s in range(0, len(perm), _CHUNK):
            pos = perm[s:s + _CHUNK]
            yield labels[pos], pos
        return
    keys = np.empty_like(labels)
    for s in range(0, len(keys), _CHUNK):
        part = keys[s:s + _CHUNK]
        np.subtract(labels[s:s + _CHUNK], lo, out=part)
        part <<= b
        part |= np.arange(s, s + len(part), dtype=np.int64)
    keys.sort()
    for s in range(0, len(keys), _CHUNK):
        part = keys[s:s + _CHUNK]
        run = part >> b
        run += lo
        yield run, part & ((1 << b) - 1)


@dataclass(frozen=True)
class ProblemInstance:
    """A graph together with the subgraph size k and the diagonal loading.

    The loading parameter is the constant added to the adjacency diagonal
    in the quadratic objective x^T (A + loading*I) x.
    """

    graph: Graph
    k: int
    loading: float = 1.0

    def __post_init__(self):
        check_k(self.k, 1, self.graph.n)
        check_loading(self.loading)
        check_objective_fits(self.k, self.loading)


def _integer_ids(ids) -> np.ndarray:
    """``ids`` as an array unless it is a nonempty one of a non-integer dtype:
    floats and bools are refused, as the loader refuses '1.5' in a file."""
    arr = np.asarray(ids)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers within int64, got dtype {arr.dtype}")
    return arr


def check_k(k: int, lo: int, n: int) -> None:
    """Reject a subgraph size k outside [lo, n]."""
    if not lo <= k <= n:
        raise ValueError(f"k={k} outside [{lo}, {n}]")


def check_loading(loading) -> None:
    """Reject a diagonal loading that is NaN, infinite or negative."""
    if not 0 <= loading < np.inf:
        raise ValueError(f"loading must be finite and nonnegative, got {loading}")


def check_objective_fits(k: int, loading: float) -> None:
    """Reject a loading at which k(k-1) + loading*k, the largest objective
    a k-set can have, is not a finite float."""
    k = int(k)  # Python arithmetic: a numpy scalar would warn on overflow
    if not np.isfinite(k * (k - 1) + float(loading) * k):
        raise ValueError(f"loading {loading} makes the objective "
                         f"k(k-1) + loading*k overflow at k={k}")


def induced_edge_count(g: Graph, subset) -> int:
    """Number of edges with both endpoints in ``subset`` (each counted once).

    This is where a vertex set is checked: distinct integer ids in [0, n).
    One O(vol S) gather: the positions of every neighbour-list entry of the
    subset are built with ``np.repeat``, and one mask lookup counts the
    entries whose neighbour is in the subset too.
    """
    s = _integer_ids(subset).astype(np.int64, copy=False)
    if s.size and (s.min() < 0 or s.max() >= g.n):
        raise ValueError("vertex id out of range")
    if len(np.unique(s)) != len(s):
        raise ValueError("subset contains duplicate vertices")
    mask = np.zeros(g.n, dtype=bool)
    mask[s] = True
    # The subset's degrees from row_offsets: O(|S|), where g.degrees is O(n).
    starts = g.row_offsets[s]
    degs = g.row_offsets[s + 1] - starts
    ends = np.cumsum(degs)
    # entry j of the gather is position j - (ends - degs)[v] of v's list
    pos = np.repeat(starts - (ends - degs), degs)
    pos += np.arange(len(pos))
    return int(np.count_nonzero(mask[g.neighbors[pos]])) // 2
