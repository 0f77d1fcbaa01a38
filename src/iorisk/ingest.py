"""Counter and job feed parsing, and cumulative-to-binned delta conversion.

Feeds are plain CSV. counters.csv carries one cumulative snapshot per
(timestamp, node, filesystem) row with the 21 counters; jobs.csv carries
scheduler accounting. Parsed feeds and binned usage are held columnar:
one numpy array per column, with the node and filesystem names kept once
in registries that the integer code columns index. Jobs are one such
table too, checked for exclusive node allocation where it is built.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import mmap
import os
import pickle
import signal
import sys
import threading
import types
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import Config, check
from .ops import COUNTER_NAMES, N_COUNTERS

COUNTER_HEADER = ("ts", "node", "fs") + COUNTER_NAMES
JOB_HEADER = ("job_id", "project", "command", "nodes",
              "start_ts", "end_ts", "cores_per_node")


class FeedFormatError(ValueError):
    """A feed violated its schema; carries the offending line and field."""

    def __init__(self, message, line_no=None, feed_field=None):
        detail = message
        if line_no is not None:
            detail += f" (line {line_no}"
            if feed_field is not None:
                detail += f", field {feed_field!r}"
            detail += ")"
        super().__init__(detail)
        self.line_no = line_no
        self.feed_field = feed_field


@dataclass
class CounterFeed:
    """Cumulative counter snapshots, one row per feed line, in feed order."""

    ts: np.ndarray        # int64 (n,)
    node_idx: np.ndarray  # int32 (n,)
    fs_idx: np.ndarray    # int32 (n,)
    values: np.ndarray    # int64 (n, 21)
    nodes: tuple[str, ...]
    filesystems: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ts)


def _check_header(row, expected, what):
    if row is None:
        raise FeedFormatError(f"{what}: empty input, missing header")
    if tuple(row) != tuple(expected):
        missing = [c for c in expected if c not in row]
        extra = [c for c in row if c not in expected]
        raise FeedFormatError(
            f"{what}: bad header (missing={missing}, extra={extra}, "
            f"expected exactly {','.join(expected)})", line_no=1)


# rows per chunk of parsing and binning: the row budget of the temporaries
# that ingest holds next to the binned rows
_PARSE_CHUNK = 16384
# the fewest bytes of counter file a range binned in a process of its own
# holds (see _cuts): on a 2-core x86 machine with its second core free,
# prefixes of simgen's perf feed took less wall time in two ranges than in
# one read from 12 MB on (6 of 8 alternating runs; at 8 and 10 MB 1 and 0
# of 8). Forking costs 10 to 20% more CPU time at every size, all of it
# wall time when the two processes share one core
_SEGMENT_BYTES = 6 << 20
# rows per block of write_csv: a block's temporaries, a text object per
# field and their join, take about four times a parsed row's memory, and
# at a whole chunk they outgrew the heap that streaming ingest leaves, so
# that writing node usage faulted in 16 MB afresh
_WRITE_CHUNK = _PARSE_CHUNK // 4
# ASCII characters numpy's C integer parser skips as space and int() rejects
_C_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_INT64 = np.iinfo(np.int64)
# ints in [0, _SMALL_INT) are written from a text table per separator
_SMALL_INT = 4096
_SMALL_INT_TEXTS = {sep: np.array([f"{sep}{i}" for i in range(_SMALL_INT)],
                                  dtype=object) for sep in ",\n"}


def _codes(keys, registry) -> np.ndarray:
    """int32 codes of keys; new keys join registry in order of first
    appearance."""
    get = registry.__getitem__
    try:
        return np.fromiter(map(get, keys), np.int32, len(keys))
    except KeyError:
        for key in dict.fromkeys(keys):
            registry.setdefault(key, len(registry))
    return np.fromiter(map(get, keys), np.int32, len(keys))


def _load_chunk(lines, dtype):
    """numpy's C reading of raw lines, or None where it could differ from
    csv.reader's: non-ASCII text (its integer parser misreads some), a
    character only it takes for space, a blank line (it skips those), a
    record spanning lines, or a row it rejects."""
    text = "".join(lines)
    if not text.isascii() or any(c in text for c in _C_ONLY_SPACE):
        return None
    # a quoted field left open on the last line swallows this row
    sentinel = ",".join("0" * (len(dtype.names) - 1 + N_COUNTERS))
    try:
        table = np.loadtxt(lines + [sentinel], dtype=dtype, delimiter=",",
                           comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    return table[:-1] if len(table) == len(lines) + 1 else None


def _check_int64(text, what, line_no, feed_field) -> int:
    """int(text); FeedFormatError unless int() reads it as an int64."""
    try:
        value = int(text)
    except ValueError:
        raise FeedFormatError(f"{what}: non-integer value {text!r}",
                              line_no=line_no, feed_field=feed_field) from None
    if not _INT64.min <= value <= _INT64.max:
        raise FeedFormatError(f"{what}: value out of int64 range {text!r}",
                              line_no=line_no, feed_field=feed_field)
    return value


def _read_records(lines, schema, dtype, first_line, what):
    """csv.reader's reading of a chunk of records into dtype; locates a
    fault by line and field."""
    rows = []
    for row in itertools.islice(csv.reader(lines), _PARSE_CHUNK):
        if len(row) != len(schema):
            raise FeedFormatError(
                f"{what}: expected {len(schema)} fields, got {len(row)}",
                line_no=first_line + len(rows))
        rows.append(row)
    cols = list(zip(*rows))
    lead = len(dtype.names) - 1
    ints = [j for j in range(len(schema)) if j >= lead or dtype[j] != object]
    try:
        arrays = {j: np.asarray(cols[j], dtype=np.int64) for j in ints}
    except (ValueError, OverflowError):
        for i, r in enumerate(rows):  # slow rescan to locate the fault
            for j in ints:
                _check_int64(r[j], what, first_line + i, schema[j])
        raise
    table = np.empty(len(rows), dtype)
    for j in range(lead):
        table[schema[j]] = (arrays[j] if j in arrays
                            else np.array(cols[j], dtype=object))
    table["counters"] = np.stack([arrays[j] for j in ints[-N_COUNTERS:]],
                                 axis=1)
    return table


def _line_count(path) -> int:
    r"""1 + the line ends of a file, "\r\n", "\n" or a lone "\r" each
    counted once: a bound on the records of a CSV file, made loose only by
    line breaks inside quoted fields."""
    block = np.empty(1 << 16, np.uint8)
    count, cr_end = 1, False
    with open(path, "rb") as f:
        while size := f.readinto(block):
            lf = block[:size] == ord("\n")
            count += np.count_nonzero(lf)
            cr = block[:size] == ord("\r")
            if cr_end or cr.any():  # a "\r\n" counts at its "\n" only
                count += (np.count_nonzero(cr[:-1] & ~lf[1:]) + bool(cr[-1])
                          - bool(cr_end and lf[0]))
            cr_end = bool(cr[-1])
    return count


class _Unsplittable(Exception):
    """A range of a counter file cannot be read apart from the rest: a
    chunk needs csv.reader, whose records may run on past a cut, or a row
    is malformed, whose line the range cannot number."""


def _read_keyed_table(stream, schema, registries, what, check=None,
                      capacity=0, keep=True, split=False):
    """Parse the rows of a CSV table of integers keyed by strings.

    The last N_COUNTERS columns are counters; registries maps each key
    column to the dict that codes it, extended in place. Returns {column:
    array}: int32 codes for keys, int64 for the other leading columns and
    (n, 21) int64 "counters". Each chunk of lines goes through numpy's C
    reader, or through csv.reader where the two could read it differently.
    check(chunk, first_line) runs on each chunk before the next is read;
    line numbers count records, the first after the header being 2.

    The columns are allocated once, for capacity records (a bound such as
    _line_count gives, or 0 for a stream of unknown length), and each
    chunk is copied into them as it is read; they double in capacity when
    a chunk would overflow them. The arrays returned are views of the
    parsed length. With keep=False each chunk is copied over the one
    before it instead, so the columns stay one chunk long: check sees
    every chunk, and the arrays returned are the last one's. With split,
    the stream is a range of a file cut at line ends, and a chunk that
    needs csv.reader raises _Unsplittable.
    """
    dtype = np.dtype([(name, "O" if name in registries else "i8")
                      for name in schema[:-N_COUNTERS]]
                     + [("counters", "i8", (N_COUNTERS,))])
    cols = {name: np.empty((capacity,) + dtype[name].shape,
                           np.int32 if name in registries else np.int64)
            for name in dtype.names}
    n, first_line = 0, 2
    while lines := list(itertools.islice(stream, _PARSE_CHUNK)):
        table = _load_chunk(lines, dtype)
        if table is None and split:
            raise _Unsplittable
        if table is None:  # a quoted newline may pull in further lines
            table = _read_records(itertools.chain(lines, stream), schema,
                                  dtype, first_line, what)
        lo = n if keep else 0
        n = lo + len(table)
        if n > capacity:
            capacity = max(n, 2 * capacity)
            grown = {name: np.empty((capacity,) + col.shape[1:], col.dtype)
                     for name, col in cols.items()}
            for name, col in cols.items():
                grown[name][:lo] = col[:lo]
            cols = grown
        for name, col in cols.items():
            col[lo:n] = (_codes(table[name], registries[name])
                         if name in registries else table[name])
        del table  # the next chunk's table takes its memory
        if check is not None:
            check({name: col[lo:n] for name, col in cols.items()},
                  first_line)
        first_line += n - lo
    return {name: col[:n] for name, col in cols.items()}


def _check_counter_chunk(chunk, first_line):
    ts, values = chunk["ts"], chunk["counters"]
    bad = ts <= 0
    if bad.any():
        i = int(bad.argmax())
        raise FeedFormatError(
            f"counter feed: timestamp must be > 0, got {ts[i]}",
            line_no=first_line + i, feed_field="ts")
    neg = values < 0
    if neg.any():
        i, c = divmod(int(neg.argmax()), N_COUNTERS)
        raise FeedFormatError(
            f"counter feed: negative counter value {values[i, c]}",
            line_no=first_line + i, feed_field=COUNTER_NAMES[c])


def parse_counter_feed(stream, capacity: int = 0, sink=None,
                       split=False) -> CounterFeed:
    """Parse a counters.csv stream into a CounterFeed.

    Raises FeedFormatError with the line number and offending field for
    malformed rows; the header must match COUNTER_HEADER exactly. Rows are
    converted in chunks so large feeds never sit in memory as strings.
    capacity, a bound on the rows, sizes the columns up front (see
    _read_keyed_table).

    With sink, each chunk of rows, once checked, goes to sink(ts,
    node_idx, fs_idx, values) and is not kept: the next chunk is read into
    the same columns, so sink must copy what it keeps. The CounterFeed
    returned then has no rows, only the registries that sink's codes
    index. split is _read_keyed_table's.
    """
    stream = iter(stream)
    _check_header(next(csv.reader(stream), None), COUNTER_HEADER,
                  "counter feed")
    return _counter_rows(stream, capacity, sink, split)


def _counter_rows(stream, capacity=0, sink=None, split=False) -> CounterFeed:
    """parse_counter_feed of the lines after the header."""
    nodes: dict[str, int] = {}
    filesystems: dict[str, int] = {}

    def check(chunk, first_line):
        _check_counter_chunk(chunk, first_line)
        if sink is not None:
            sink(chunk["ts"], chunk["node"], chunk["fs"], chunk["counters"])

    cols = _read_keyed_table(stream, COUNTER_HEADER,
                             {"node": nodes, "fs": filesystems},
                             "counter feed", check, capacity,
                             keep=sink is None, split=split)
    if sink is not None:  # no views that hold the chunk's columns
        cols = {name: col[:0].copy() for name, col in cols.items()}
    return CounterFeed(cols["ts"], cols["node"], cols["fs"],
                       cols["counters"], tuple(nodes), tuple(filesystems))


def _quoted(texts, alone: bool) -> list[str]:
    r"""Each text as a field csv.writer writes it, QUOTE_MINIMAL with a
    "\r\n" terminator, so a lone "\r" is quoted too: csv.reader ends a
    record at an unquoted "\r". A field alone in its row is quoted when
    empty."""
    lines: list[str] = []  # csv.writer writes each row with one call
    writer = csv.writer(types.SimpleNamespace(write=lines.append),
                        lineterminator="\r\n")
    writer.writerows(((text,) if alone else (text, "")) for text in texts)
    cut = 2 if alone else 3  # the terminator, and the empty field's ","
    return [line[:-cut] for line in lines]


def _int_texts(values, sep: str) -> np.ndarray:
    table = values.clip(0, _SMALL_INT - 1)
    texts = _SMALL_INT_TEXTS[sep][table]
    big = table != values
    if big.any():
        texts[big] = [f"{sep}{v}" for v in values[big].tolist()]
    return texts


def _block_texts(block, sep: str, alone: bool):
    """(lo, hi) -> the (hi - lo, width) texts of the block's rows lo:hi,
    each led by sep."""
    if isinstance(block, tuple):
        codes, names = block
        table = np.array([sep + q for q in _quoted(names, alone)],
                         dtype=object)
        return lambda lo, hi: table[codes[lo:hi, None]]
    if block.dtype.kind in "iu":
        return lambda lo, hi: _int_texts(block[lo:hi], sep)
    if block.dtype.kind == "f":
        return lambda lo, hi: np.array(
            [f"{sep}{v!r}" for v in block[lo:hi].ravel().tolist()],
            dtype=object).reshape(hi - lo, block.shape[1])
    raise TypeError(f"no CSV text for a {block.dtype} column")


def key_column(texts) -> tuple[np.ndarray, tuple[str, ...]]:
    """A key column for write_csv: codes into the distinct texts."""
    registry: dict[str, int] = {}
    codes = _codes(texts, registry)
    return codes, tuple(registry)


def repeated_ints(values) -> tuple[np.ndarray, list[str]]:
    """A key column for write_csv from an int column that repeats a few
    values, such as bin starts: each distinct value is formatted once."""
    distinct, codes = np.unique(values, return_inverse=True)
    return codes, [str(v) for v in distinct.tolist()]


def write_csv(out, header, columns) -> None:
    """Write a CSV table to a path or a stream, whole columns at a time.

    A column is an int array, a float array (a 2-D array is one column
    per array column) or a key column (codes, names): int codes into a
    sequence of texts. The header and the key texts are quoted as
    _quoted says, each distinct text once; ints are written as str
    writes them, floats as repr does. Rows go out _WRITE_CHUNK at a time,
    each chunk as one joined string.
    """
    blocks = []  # key columns and 2-D arrays, in column order
    for column in columns:
        if isinstance(column, tuple):
            blocks.append(column)
        else:
            block = column if column.ndim == 2 else column[:, None]
            # the first column of a row takes another separator
            blocks += [block] if blocks else [block[:, :1], block[:, 1:]]
    widths = [1 if isinstance(b, tuple) else b.shape[1] for b in blocks]
    lengths = {len(b[0] if isinstance(b, tuple) else b) for b in blocks}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n, alone = lengths.pop(), len(header) == 1
    # each row is "\n" + its first field, then "," + each later field
    texts = [_block_texts(b, "," if i else "\n", alone)
             for i, b in enumerate(blocks)]
    stops = np.cumsum(widths).tolist()
    with (contextlib.nullcontext(out) if hasattr(out, "write")
          else open(out, "w", newline="")) as f:
        f.write(",".join(_quoted(header, alone)))
        for lo in range(0, n, _WRITE_CHUNK):
            hi = min(lo + _WRITE_CHUNK, n)
            cells = np.empty((hi - lo, len(header)), dtype=object)
            for block_texts, width, stop in zip(texts, widths, stops):
                cells[:, stop - width:stop] = block_texts(lo, hi)
            f.write("".join(cells.ravel().tolist()))
        f.write("\n")


def write_counter_csv(feed: CounterFeed, out) -> None:
    """Serialize a CounterFeed back to counters.csv format (row order kept)."""
    write_csv(out, COUNTER_HEADER,
              [repeated_ints(feed.ts), (feed.node_idx, feed.nodes),
               (feed.fs_idx, feed.filesystems), feed.values])


@dataclass
class JobTable:
    """Scheduler accounting, one row per job in feed order.

    Job i holds the nodes slot_node[node_ptr[i]:node_ptr[i + 1]]: codes
    into nodes, which is sorted by name, so each job's nodes come in name
    order. Build one with job_table, which checks the feed's rules.
    """

    job_ids: tuple[str, ...]
    projects: tuple[str, ...]
    commands: tuple[str, ...]
    start_ts: np.ndarray        # int64 (n,)
    end_ts: np.ndarray          # int64 (n,)
    cores_per_node: np.ndarray  # int64 (n,)
    node_ptr: np.ndarray        # int64 (n + 1,)
    slot_node: np.ndarray       # int32 (node_ptr[-1],)
    nodes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.job_ids)

    @property
    def runtime_s(self) -> np.ndarray:
        return self.end_ts - self.start_ts

    @property
    def node_counts(self) -> np.ndarray:
        return np.diff(self.node_ptr)

    @property
    def core_s(self) -> np.ndarray:  # job_table bounds its sum in int64
        return self.node_counts * self.cores_per_node * self.runtime_s


class AttributionConflictError(ValueError):
    """Two jobs claim the same node at the same time."""

    def __init__(self, node_id, job_a, job_b):
        super().__init__(
            f"attribution conflict on node {node_id!r}: jobs {job_a!r} "
            f"and {job_b!r} overlap in time")
        self.node_id = node_id
        self.job_ids = (job_a, job_b)


def job_table(job_ids, projects, commands, node_lists, start_ts, end_ts,
              cores_per_node) -> JobTable:
    """The JobTable of per-job sequences in feed order; job i holds the
    nodes named in node_lists[i], in any order and with repeats.

    Job ids must be unique, each end_ts after its start_ts, each node list
    non-empty and each cores_per_node positive, and the jobs' core-seconds
    must sum within int64. The first job that breaks a rule raises
    FeedFormatError naming its line in a feed, 2 + i. Two jobs holding one
    node at the same time raise AttributionConflictError; of several such
    pairs, the one reported is the first in (node name, start, end, feed
    position) order.
    """
    n = len(job_ids)
    ids = np.array(job_ids, dtype=object)
    start = np.array(start_ts, dtype=np.int64)
    end = np.array(end_ts, dtype=np.int64)
    cores = np.array(cores_per_node, dtype=np.int64)

    def first_bad(mask, message, feed_field=None):
        if mask.any():
            i = int(mask.argmax())
            raise FeedFormatError(f"job feed: {message(i)}",
                                  line_no=2 + i, feed_field=feed_field)

    _, first, inverse = np.unique(ids, return_index=True,
                                  return_inverse=True)
    first = first[inverse]
    first_bad(first != np.arange(n), lambda i: (
        f"duplicate job_id {ids[i]!r} (first at line {2 + first[i]})"),
        "job_id")
    first_bad(end <= start, lambda i: (
        f"job {ids[i]}: end_ts {end[i]} must be after start_ts {start[i]}"))

    # each (job, node) pair once, by job and then node name
    nodes, slot_node = np.unique(np.array(
        list(itertools.chain.from_iterable(node_lists)), dtype=object),
        return_inverse=True)
    slot_job = np.repeat(np.arange(n), [len(names) for names in node_lists])
    order, starts = _kernels.sort_groups(slot_job, slot_node)
    slot_job, slot_node = slot_job[order[starts]], slot_node[order[starts]]
    node_ptr = np.searchsorted(slot_job, np.arange(n + 1))
    first_bad(node_ptr[1:] == node_ptr[:-1],
              lambda i: f"job {ids[i]}: empty node list")
    first_bad(cores <= 0, lambda i: (
        f"job {ids[i]}: cores_per_node must be > 0, got {cores[i]}"))

    # Python ints: exact however far past int64 a sum goes
    core_s = np.cumsum(np.diff(node_ptr).astype(object) * cores.astype(object)
                       * (end.astype(object) - start.astype(object)))
    first_bad(core_s > _INT64.max, lambda i: (
        f"job {ids[i]}: core-seconds of the jobs up to this one sum to "
        f"{core_s[i]}, beyond int64"), "end_ts")

    # by node, then start: a node's overlapping jobs include a neighbour pair
    order = np.lexsort((slot_job, end[slot_job], start[slot_job], slot_node))
    on, oj = slot_node[order], slot_job[order]
    clash = np.flatnonzero((on[1:] == on[:-1])
                           & (start[oj[1:]] < end[oj[:-1]]))
    if clash.size:
        k = clash[0]
        raise AttributionConflictError(nodes[on[k]], ids[oj[k]],
                                       ids[oj[k + 1]])
    return JobTable(tuple(job_ids), tuple(projects), tuple(commands), start,
                    end, cores, node_ptr, slot_node.astype(np.int32),
                    tuple(nodes))


def parse_job_feed(stream,
                   default_cores: int = Config.cores_per_node) -> JobTable:
    """Parse a jobs.csv stream into a JobTable (see job_table for the
    rules it checks). An empty cores_per_node field falls back to
    default_cores."""
    reader = csv.reader(stream)
    _check_header(next(reader, None), JOB_HEADER, "job feed")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(JOB_HEADER):
            raise FeedFormatError(
                f"job feed: expected {len(JOB_HEADER)} fields, "
                f"got {len(row)}", line_no=line_no)
        job_id, project, command, nodes_s, start_s, end_s, cores_s = row
        rows.append((
            job_id, project, command,
            [name for name in nodes_s.split(";") if name],
            _check_int64(start_s, "job feed", line_no, "start_ts"),
            _check_int64(end_s, "job feed", line_no, "end_ts"),
            _check_int64(cores_s, "job feed", line_no, "cores_per_node")
            if cores_s.strip() else default_cores))
    return job_table(*(list(zip(*rows)) or [()] * 7))


def write_jobs_csv(jobs: JobTable, out) -> None:
    """Serialize a JobTable to jobs.csv format (nodes ';'-joined)."""
    names = np.array(jobs.nodes, dtype=object)[jobs.slot_node].tolist()
    ptr = jobs.node_ptr.tolist()
    write_csv(out, JOB_HEADER,
              [key_column(jobs.job_ids), key_column(jobs.projects),
               key_column(jobs.commands),
               key_column([";".join(names[a:b])
                           for a, b in zip(ptr, ptr[1:])]),
               jobs.start_ts, jobs.end_ts, jobs.cores_per_node])


@dataclass(frozen=True)
class BinCounts:
    """What deltify_and_bin read and set aside: the snapshots it binned,
    the pairs of them it dropped as further apart than max_gap_bins, and
    the other pairs across which a counter went down, taken as a reset."""

    samples: int
    gap_pairs: int
    reset_pairs: int


@dataclass
class UsageTable:
    """Per-node, per-fs counter deltas accrued in each time bin, grouped by
    (node, fs) and sorted by bin within each group."""

    bin_start: np.ndarray  # int64 (m,)
    node_idx: np.ndarray   # int32 (m,)
    fs_idx: np.ndarray     # int32 (m,)
    deltas: np.ndarray     # int64 (m, 21)
    nodes: tuple[str, ...]
    filesystems: tuple[str, ...]
    bin_width: int = Config.bin_width_s
    counts: BinCounts | None = None  # None when read back from the store

    def __len__(self) -> int:
        return len(self.bin_start)


def deltify_and_bin(feed: CounterFeed | str | os.PathLike,
                    bin_width: int = Config.bin_width_s, *,
                    max_gap_bins: int | None = Config.max_gap_bins,
                    pre_differenced: bool = False) -> UsageTable:
    """Convert cumulative snapshots to per-bin deltas.

    feed is a CounterFeed or the path of a counters.csv file. A sample at
    time t covers activity since the previous sample of the same (node,
    fs) stream; a bin labelled b covers (b, b+w]. Deltas spanning several
    bins are apportioned by time overlap (the rule in _kernels, exact
    sum). Counter decreases are treated as resets (the new value is the
    delta since the restart). Gaps longer than max_gap_bins bins are
    dropped. Input order does not matter; rows are sorted internally.
    The table lists only the nodes and filesystems that have rows, in order
    of first appearance in its rows, as the store reads them back.

    With pre_differenced=True each row's values are taken directly as the
    delta for the bin its timestamp closes.

    A CounterFeed is binned as one segment (see _SegmentBinner). A file is
    binned one parsed chunk at a time, each chunk a segment, so the
    counter matrix is never held; a large file is cut into byte ranges
    binned side by side (see _bin_ranges). If a stream's rows go back in
    time from one chunk or range to a later one, the file is read again
    whole and binned as one segment.
    """
    check("bin_width_s", bin_width, "deltify_and_bin")
    options = (bin_width, max_gap_bins, pre_differenced)
    if not isinstance(feed, CounterFeed):
        try:
            return _bin_file(feed, options)
        except _BackInTime:
            pass  # read again outside the handler, which holds the binners
        feed = read_counter_file(feed)
    binner = _SegmentBinner(*options)
    binner.add(feed.ts, feed.node_idx, feed.fs_idx, feed.values)
    return binner.table(feed.nodes, feed.filesystems)


def _bin_file(path, options) -> UsageTable:
    """The counter file at path binned as it is read: in byte ranges on
    several CPUs where _cuts makes more than one, else, or where a range
    cannot be read on its own, in one sequential read."""
    cuts = _cuts(path)
    if len(cuts) > 2:
        try:
            return _bin_ranges(path, cuts, options)
        except _Unsplittable:
            pass
    binner = _SegmentBinner(*options)
    with open(path, newline="") as f:
        registries = parse_counter_feed(f, sink=binner.add)
    return binner.table(registries.nodes, registries.filesystems)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _cuts(path) -> list[int]:
    r"""Byte offsets 0 = c[0] < c[1] < .. < c[k] = the file's size, each
    c[i] just after the first "\n" at or past i / k of the file: k ranges
    that end at line ends, one per usable CPU, but fewer where a range
    would hold less than _SEGMENT_BYTES or no line end. One without
    os.fork, and where other threads run: a forked worker would find the
    locks they hold held for good."""
    size = os.path.getsize(path)
    k = min(_usable_cpus(), size // _SEGMENT_BYTES)
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [0, size]
    cuts = [0]
    with open(path, "rb") as f:
        for i in range(1, k):
            f.seek(max(cuts[-1], i * size // k - 1))
            f.readline()
            if cuts[-1] < f.tell() < size:
                cuts.append(f.tell())
    return cuts + [size]


def _bin_ranges(path, cuts, options) -> UsageTable:
    """The counter file at path binned in the byte ranges between cuts:
    the first here, through parse_counter_feed, each later one in a forked
    process (see _send_range) from an empty carry. Each later range is
    then joined in order (see _SegmentBinner.join), so the table is the
    one sequential read gives.

    Raises _BackInTime when a stream goes back in time within a range or
    across a cut, and _Unsplittable when a range cannot be read on its
    own or no worker can be forked. Every worker is killed and reaped
    before this returns or raises.
    """
    # a forked copy of a buffer is never written: the worker ends in
    # os._exit, and the parent's copy is empty
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []  # (pid, the read end of its pipe)
    try:
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                workers.append(_fork_range(path, lo, hi, options,
                                           [pipe for _, pipe in workers]))
        except OSError:  # no process or pipe to be had
            raise _Unsplittable from None
        binner = _SegmentBinner(*options)
        try:
            with _open_range(path, 0, cuts[1]) as f:
                feed = parse_counter_feed(f, sink=binner.add, split=True)
        except ValueError:  # one sequential read numbers the line
            raise _Unsplittable from None
        nodes = {name: i for i, name in enumerate(feed.nodes)}
        filesystems = {name: i for i, name in enumerate(feed.filesystems)}
        for _, pipe in workers:
            segment = _load(pipe)
            if segment is _BackInTime:
                raise _BackInTime
            parts = (_load(pipe) for _ in range(segment.n_parts))
            binner.join(segment, parts, nodes, filesystems)
        return binner.table(tuple(nodes), tuple(filesystems))
    finally:
        for pid, pipe in workers:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


class _ByteRange(io.RawIOBase):
    """Bytes lo:hi of a file."""

    def __init__(self, path, lo, hi):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(lo)
        self._left = hi - lo

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self):
        self._file.close()
        super().close()


def _open_range(path, lo, hi):
    """Bytes lo:hi of a file as text, read as open(path, newline="")
    reads the file."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, lo, hi)),
                            newline="")


@dataclass
class _Segment:
    """What a worker sends of its range before the range's binned parts
    (see _SegmentBinner): the registries its codes index, its carry,
    each stream's first snapshot in the range, its counts, and how many
    parts follow."""

    nodes: tuple[str, ...]
    filesystems: tuple[str, ...]
    carry: _Carry
    heads: _Carry
    counts: BinCounts
    n_parts: int


def _fork_range(path, lo, hi, options, inherited):
    """(pid, pipe): a forked worker binning bytes lo:hi of the counter
    file, and the read end of the pipe it sends its range down. inherited
    are the pipes of the workers before it, which it closes."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:  # the worker never returns, nor runs the parent's exit handlers
        os.close(read_fd)
        for pipe in inherited:
            os.close(pipe.fileno())
        with open(write_fd, "wb") as out:
            _send_range(out, path, lo, hi, options)
    finally:
        os._exit(0)


def _send_range(out, path, lo, hi, options):
    """Bin bytes lo:hi of the counter file from an empty carry and pickle
    to out _BackInTime, or a _Segment and then its parts, one at a time.
    Any other failure raises, and the worker ends having sent nothing
    more (see _load). Should the parent be gone, the write raises
    BrokenPipeError (Python ignores SIGPIPE)."""
    binner = _SegmentBinner(*options)
    try:
        with _open_range(path, lo, hi) as f:
            feed = _counter_rows(f, sink=binner.add, split=True)
    except _BackInTime:
        return pickle.dump(_BackInTime, out)
    # protocol 5 writes an array's buffer without copying it
    pickle.dump(_Segment(feed.nodes, feed.filesystems, binner.carry,
                         binner.heads, binner.counts(), len(binner.parts)),
                out, pickle.HIGHEST_PROTOCOL)
    for part in binner.parts:
        pickle.dump(part, out, pickle.HIGHEST_PROTOCOL)


def _load(pipe):
    """The next object a worker pickled. Raises _Unsplittable if the
    worker ended first: its range could not be read on its own, it failed
    otherwise, or it was killed."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise _Unsplittable from None


class _BackInTime(Exception):
    """A stream's rows go back before the snapshot carried for it."""


@dataclass
class _Carry:
    """Each stream's last snapshot in the rows binned so far."""

    stream: np.ndarray  # int64 (k,), ascending: node code << 32 | fs code
    ts: np.ndarray      # int64 (k,)
    values: np.ndarray  # int64 (k, 21)

    def find(self, stream):
        """(at, held): where each of the given streams goes in this
        carry's, and whether the carry holds it there."""
        at = np.searchsorted(self.stream, stream)
        held = at < len(self.stream)
        held[held] = self.stream[at[held]] == stream[held]
        return at, held

    def updated(self, stream, ts, values) -> _Carry:
        """This carry with the snapshots of streams, distinct and in any
        order, in place of the ones it holds for them."""
        at, held = self.find(stream)
        kept = np.ones(len(self.stream), bool)
        kept[at[held]] = False
        merged = np.concatenate((self.stream[kept], stream))
        by_stream = np.argsort(merged, kind="stable")
        return _Carry(merged[by_stream],
                      np.concatenate((self.ts[kept], ts))[by_stream],
                      np.concatenate((self.values[kept], values))[by_stream])


def _no_snapshots() -> _Carry:
    return _Carry(np.empty(0, np.int64), np.empty(0, np.int64),
                  np.empty((0, N_COUNTERS), np.int64))


class _SegmentBinner:
    """Bins a counter feed one segment of rows at a time, each segment
    against the carry that the segments before it left, and sums the
    binned rows per (node, fs, bin) once, at the end.

    A segment's rows are sorted by (stream, ts) and binned in pieces of
    about _PARSE_CHUNK rows that never split a stream, each gathered into
    and differenced in the same two workspaces, which grow only when a
    piece outgrows them. So memory beyond the rows given is a piece's
    temporaries, the carry and the binned rows. The workspaces and the
    binned rows are memory maps (see _mapped). The rows of a later range
    of the feed, binned by a binner of their own, join through the carry
    (see join).
    """

    def __init__(self, bin_width, max_gap_bins, pre_differenced):
        self.bin_width = bin_width
        self.max_gap_s = (np.iinfo(np.int64).max // 4 if max_gap_bins is None
                          else max_gap_bins * bin_width)
        self.pre_differenced = pre_differenced
        self.carry = _no_snapshots()
        # each stream's first snapshot, which a binner of the rows before
        # it pairs with its own carry (see join)
        self.heads = _no_snapshots()
        # the binned rows: each part's (stream, bin, deltas), copied into
        # slabs filled in turn, each twice the size of the one before, so
        # no binned row moves again; parts holds the copies, as views. The
        # first part types an empty table.
        self.parts = [(np.empty(0, np.int64), np.empty(0, np.int64),
                       np.empty((0, N_COUNTERS), np.int64))]
        self._slab, self._filled = _map_slab(2 * _PARSE_CHUNK), 0
        self.samples = self.gap_pairs = self.reset_pairs = 0
        self._gathered = np.empty((0, N_COUNTERS), np.int64)
        self._differenced = np.empty((0, N_COUNTERS), np.int64)

    def counts(self) -> BinCounts:
        return BinCounts(self.samples, self.gap_pairs, self.reset_pairs)

    def add(self, ts, node_idx, fs_idx, values):
        """Bin one segment of rows after those added before it."""
        self.samples += len(ts)
        self.carry, parts = self.bin_segment(
            self.carry, (ts, node_idx, fs_idx, values))
        self._keep(parts)

    def join(self, segment, parts, nodes, filesystems):
        """Add the rows of a later range of the feed, binned by another
        binner from an empty carry: segment is its _Segment, parts its
        binned parts. Its codes join nodes and filesystems, the dicts that
        this binner's codes index, extended in place. Each stream's pair
        across the cut, from this carry to the stream's first snapshot in
        the range, is formed here, once; then the range's carry takes the
        place of this one's for its streams.

        Raises _BackInTime when a stream's first snapshot in the range
        goes back before the snapshot carried for it."""
        node_code = _codes(segment.nodes, nodes).astype(np.int64) << 32
        fs_code = _codes(segment.filesystems, filesystems).astype(np.int64)

        def recode(stream):
            return node_code[stream >> 32] | fs_code[stream & 0xFFFFFFFF]

        heads, carry = segment.heads, segment.carry
        head = recode(heads.stream)
        self.carry, stitched = self.bin_segment(
            self.carry,
            (heads.ts, head >> 32, head & 0xFFFFFFFF, heads.values))
        self.carry = self.carry.updated(recode(carry.stream), carry.ts,
                                        carry.values)
        self._keep(stitched)
        for stream, bins, deltas in parts:
            self._keep([(recode(stream), bins, deltas)])
        self.samples += segment.counts.samples
        self.gap_pairs += segment.counts.gap_pairs
        self.reset_pairs += segment.counts.reset_pairs

    def _keep(self, parts):
        for part in parts:
            n, room = len(part[0]), len(self._slab[0])
            if self._filled + n > room:
                self._slab, self._filled = _map_slab(max(n, 2 * room)), 0
            lo, self._filled = self._filled, self._filled + n
            kept = tuple(col[lo:self._filled] for col in self._slab)
            for dst, src in zip(kept, part):
                dst[...] = src
            self.parts.append(kept)

    def bin_segment(self, carry, rows):
        """(carry, parts): rows (ts, node_idx, fs_idx, values), in any
        order, binned after the snapshots carry holds, and the carry that
        leaves. Each stream's carried snapshot goes just before its rows,
        sorted by time, a tie in feed order, so the pair across the carry
        is formed here, once. The parts share no memory with rows.

        Raises _BackInTime when a stream's rows go back before its carried
        snapshot. With pre_differenced the rows form no pairs, so nothing
        is carried.
        """
        ts, node_idx, fs_idx, values = rows
        if not len(ts):
            return carry, []
        # a stream is its code pair: the registries may grow mid-feed, so
        # node * len(filesystems) + fs would renumber earlier streams
        stream = (node_idx.astype(np.int64) << 32) | fs_idx
        order = np.lexsort((ts, stream))
        stream = stream[order]
        starts = np.flatnonzero(np.append(True, stream[1:] != stream[:-1]))
        ts = ts[order]
        # where carried snapshots go among the sorted rows, and their values
        carried, carried_values = np.empty(0, np.intp), values[:0]
        if not self.pre_differenced:
            at, held = carry.find(stream[starts])
            c, first = at[held], starts[held]
            if (ts[first] < carry.ts[c]).any():
                raise _BackInTime
            carried_values = carry.values[c]
            new = starts[~held]
            self.heads = self.heads.updated(stream[new], ts[new],
                                            values[order[new]])
            # the carry leaves each stream's last row
            last = np.append(starts[1:], len(order)) - 1
            new_carry = carry.updated(stream[starts], ts[last],
                                      values[order[last]])
            if len(c):
                ts = np.insert(ts, first, carry.ts[c])
                stream = np.insert(stream, first, stream[first])
                order = np.insert(order, first, 0)  # a row set below
                carried = first + np.arange(len(first))
            carry = new_carry
        # a parsed chunk and its carried snapshots make one piece
        pieces = list(key_ranges(stream, _PARSE_CHUNK + len(carried)))
        self._reserve(max(hi - lo for lo, hi in pieces))
        parts = []
        for lo, hi in pieces:
            # mode="clip": with the default mode, take buffers its output
            gathered = np.take(values, order[lo:hi], axis=0, mode="clip",
                               out=self._gathered[:hi - lo])
            here = slice(*np.searchsorted(carried, (lo, hi)))
            gathered[carried[here] - lo] = carried_values[here]
            parts.append(self._bin(stream[lo:hi], ts[lo:hi], gathered))
        return carry, parts

    def table(self, nodes, filesystems) -> UsageTable:
        """The binned rows summed per (node, fs, bin) into a UsageTable
        whose codes index nodes and filesystems; each segment's rows are
        freed as they are added in."""
        self._gathered = self._differenced = self._slab = None
        streams, bins, deltas = (list(col) for col in zip(*self.parts))
        self.parts = []
        keys = [np.concatenate(streams), np.concatenate(bins)]
        del streams, bins  # views that would hold every slab to the end
        (streams, bins), deltas = _kernels.group_sum(keys, deltas)
        node_idx, nodes = _recode(streams >> 32, nodes)
        fs_idx, filesystems = _recode(streams & 0xFFFFFFFF, filesystems)
        return UsageTable(
            bin_start=bins, node_idx=node_idx, fs_idx=fs_idx, deltas=deltas,
            nodes=nodes, filesystems=filesystems, bin_width=self.bin_width,
            counts=self.counts())

    def _reserve(self, rows):
        if len(self._gathered) < rows:
            size = max(rows, 2 * len(self._gathered))
            self._gathered = _mapped(size * N_COUNTERS).reshape(
                size, N_COUNTERS)
            self._differenced = _mapped((size - 1) * N_COUNTERS).reshape(
                size - 1, N_COUNTERS)

    def _bin(self, stream, ts, values):
        part, gap_pairs, reset_pairs = _bin_chunk(
            stream, ts, values, self.bin_width, self.max_gap_s,
            self.pre_differenced, self._differenced)
        self.gap_pairs += gap_pairs
        self.reset_pairs += reset_pairs
        return part


def _mapped(n):
    """An int64 array of n values in a private anonymous memory map of its
    own. Kept in the allocator's heap, a buffer that lives from one chunk
    to the next and is allocated after the first splits the space that
    each chunk's parse frees and the next reuses: the allocator then gave
    it back and faulted it in afresh every chunk, and ingest took 2.7
    times the minor page faults. The map asks for huge pages, as numpy
    does for its own large arrays."""
    buf = mmap.mmap(-1, 8 * max(n, 1),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, np.int64)[:n]


def _map_slab(rows):
    """Empty (stream, bin, deltas) columns for rows binned rows, in one
    memory map (see _mapped)."""
    table = _mapped((2 + N_COUNTERS) * rows)
    return (table[:rows], table[rows:2 * rows],
            table[2 * rows:].reshape(rows, N_COUNTERS))


def key_ranges(key, size=None):
    """(lo, hi) ranges over rows sorted by key (a stream code, a bin), of
    at most size rows (default _PARSE_CHUNK) and cut where the key
    changes; a key held by more rows than that is a range of its own."""
    size = _PARSE_CHUNK if size is None else size
    ends = np.append(np.flatnonzero(key[1:] != key[:-1]) + 1, len(key))
    lo = 0
    while lo < len(key):
        fits = np.searchsorted(ends, lo + size, side="right") - 1
        first = np.searchsorted(ends, lo, side="right")
        hi = int(ends[max(fits, first)])
        yield lo, hi
        lo = hi


def _bin_chunk(stream, ts, values, bin_width, max_gap_s, pre_differenced,
               differenced):
    """Binned deltas of whole streams sorted by (stream, ts): ((stream,
    bin, deltas), gap_pairs, reset_pairs), the rows with all-zero ones
    dropped and duplicate (stream, bin) rows summed, sorted by (stream,
    bin), and deltify_pairs' counts. The rows share no memory with values
    or with differenced, deltify_pairs' workspace."""
    gap_pairs = reset_pairs = 0
    if pre_differenced:
        s_codes, deltas = stream, values
        bins = bin_width * ((ts - 1) // bin_width)
    else:
        s_codes, bins, deltas, gap_pairs, reset_pairs = \
            _kernels.deltify_pairs(stream, ts, values, bin_width, max_gap_s,
                                   out=differenced)

    # idle snapshots and all-zero shares of spanning pairs are dropped:
    # the table stays sparse
    keep = deltas.any(axis=1)
    if not keep.all():
        s_codes, bins, deltas = s_codes[keep], bins[keep], deltas[keep]
    (s_codes, bins), deltas = _kernels.group_sum([s_codes, bins], deltas)
    return (s_codes, bins, deltas), gap_pairs, reset_pairs


def _recode(codes, names):
    """Renumber codes in order of first appearance, keeping only the names
    in use: the registry the store's reader builds from the same rows, so
    that a UsageTable written and read back is the same table."""
    used, first, inverse = np.unique(codes, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(used), dtype=np.int32)
    rank[order] = np.arange(len(used), dtype=np.int32)
    return rank[inverse], tuple(names[i] for i in used[order])


def read_counter_file(path) -> CounterFeed:
    capacity = _line_count(path)
    with open(path, newline="") as f:
        return parse_counter_feed(f, capacity)


def read_job_file(path,
                  default_cores: int = Config.cores_per_node) -> JobTable:
    with open(path, newline="") as f:
        return parse_job_feed(f, default_cores=default_cores)


def read_probe_file(path) -> tuple[np.ndarray, np.ndarray]:
    """A probe's (timestamps, values) from a two-column CSV with a header
    naming them; raises FeedFormatError with the file, line and field."""
    what = f"probe file {path}"
    ts, values = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or len(header) != 2:
            raise FeedFormatError(f"{what}: expected 2-column CSV with "
                                  f"header", line_no=1)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise FeedFormatError(
                    f"{what}: expected 2 fields, got {len(row)}",
                    line_no=line_no)
            ts.append(_check_int64(row[0], what, line_no, header[0]))
            try:
                value = float(row[1])
            except ValueError:
                raise FeedFormatError(
                    f"{what}: non-numeric value {row[1]!r}",
                    line_no=line_no, feed_field=header[1]) from None
            if not math.isfinite(value):
                raise FeedFormatError(f"{what}: non-finite value {row[1]!r}",
                                      line_no=line_no, feed_field=header[1])
            values.append(value)
    return np.asarray(ts, dtype=np.int64), np.asarray(values)


def feed_to_csv_text(feed: CounterFeed) -> str:
    buf = io.StringIO()
    write_counter_csv(feed, buf)
    return buf.getvalue()
