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
import re
import types
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._fork import can_fork, fork
from ._fork import usable_cpus as _usable_cpus
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


# rows per chunk of parsing and binning, about the rows per block of node
# usage (see NodeUsage) and the rows per slice of the job metrics: the row
# budget of the temporaries that ingest and analyze hold. The heap keeps a
# chunk's freed temporaries, so they set the floor of each stage's peak:
# with node usage in blocks, staged ingest and analyze of a week of
# simgen's perf preset peaked at 56.9 and 51.0 MB at 16,384 rows, and at
# 46.0 and 43.7 MB at 4,096 rows, which cost 5 to 15% more wall time in
# more chunks and blocks (2-core x86 machine)
_PARSE_CHUNK = 4096
# the fewest bytes of counter file a range binned in a process of its own
# holds (see _cuts): on a 2-core x86 machine with its second core free,
# prefixes of simgen's perf feed took less wall time in two ranges than in
# one read from 12 MB on (6 of 8 alternating runs; at 8 and 10 MB 1 and 0
# of 8). Forking costs 10 to 20% more CPU time at every size, all of it
# wall time when the two processes share one core
_SEGMENT_BYTES = 6 << 20
# rows per binned part that the final merge takes, each in a memory map of
# its own and unmapped once its last stream is summed into a block. A part
# is sorted by key; a piece of a chunk in collector order spans every
# stream, so a whole piece would stay mapped until the last block. When
# the merge built one table, of 4,096-row chunks, 512-row parts lifted
# ingest's peak by 6.1 MB and 2,048-row parts by 4.3 MB (a week of
# simgen's perf preset)
_MERGE_ROWS = 2048
# bytes of a huge page on x86-64 Linux (see _mapped)
_HUGE_PAGE = 2 << 20
# rows per block of write_csv: a block's temporaries, a text object per
# field and their join, take up to 3 KB a row of 24 large ints. At a
# whole chunk they outgrew the heap that streaming ingest leaves, so that
# writing node usage faulted in 16 MB afresh; at 4,096 rows such a table
# peaked 11.8 MB above its columns, at 1,024 rows 3.0 MB
_WRITE_CHUNK = 1024
# ASCII characters numpy's C integer parser skips as space and int() rejects
_C_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# int64's range as Python ints: no numpy lookup per field checked
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
# the characters that make csv.writer quote a field (see _quoted)
_QUOTE_CHARS = re.compile('[,"\r\n]')
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
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise FeedFormatError(f"{what}: value out of int64 range {text!r}",
                              line_no=line_no, feed_field=feed_field)
    return value


def _check_text(text, what, line_no, feed_field) -> None:
    """FeedFormatError where text holds a byte that is not UTF-8, which a
    CSV input, opened with errors="surrogateescape", reads as a lone
    surrogate: the parser rejects it where it knows the line and field."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise FeedFormatError(
            f"{what}: byte 0x{ord(text[exc.start]) - 0xDC00:02x} is not "
            f"UTF-8", line_no=line_no, feed_field=feed_field) from None


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
        if j not in arrays:  # a key column
            for i, text in enumerate(cols[j]):
                _check_text(text, what, first_line + i, schema[j])
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


def _keyed_chunks(stream, schema, registries, what, split=False,
                  place=None):
    """Parse the rows of a CSV table of integers keyed by strings, a chunk
    of up to _PARSE_CHUNK records at a time.

    The last N_COUNTERS columns are counters; registries maps each key
    column to the dict that codes it, extended in place. Every such table
    has an "fs" key column, and the names a chunk adds to it are checked
    (see _check_fs_names). Yields each chunk's {column: array} and the
    line number of its first record (the first after the header is 2):
    int32 codes for keys, int64 for the other leading columns and (n, 21)
    int64 "counters". place(n), given,
    returns the {column: array} of n rows that a chunk is copied into;
    by default they are columns that the next chunk is read into, so a
    caller copies what it keeps. Each chunk of lines goes through numpy's
    C reader, or through csv.reader where the two could read it
    differently. With split, the stream is a range of a file cut at line
    ends, and a chunk that needs csv.reader raises _Unsplittable.
    """
    dtype = _keyed_dtype(schema, registries)
    if place is None:
        cols = _keyed_columns(dtype, registries, 0)

        def place(n):
            nonlocal cols
            if n > len(cols["counters"]):
                cols = _keyed_columns(dtype, registries, n)
            return {name: col[:n] for name, col in cols.items()}

    first_line = 2
    while lines := list(itertools.islice(stream, _PARSE_CHUNK)):
        table = _load_chunk(lines, dtype)
        if table is None and split:
            raise _Unsplittable
        if table is None:  # a quoted newline may pull in further lines
            table = _read_records(itertools.chain(lines, stream), schema,
                                  dtype, first_line, what)
        chunk = place(len(table))
        known = len(registries["fs"])
        for name, col in chunk.items():
            col[...] = (_codes(table[name], registries[name])
                        if name in registries else table[name])
        _check_fs_names(registries["fs"], known, chunk["fs"], what,
                        first_line)
        del table  # the next chunk's table takes its memory
        yield chunk, first_line
        first_line += len(chunk["counters"])


def _check_fs_names(registry, known, codes, what, first_line):
    """FeedFormatError at the first row of each filesystem name that joined
    registry from code known on and is not one path component: empty,
    "." or "..", or holding "/" or NUL. The report writes a directory
    under --out named after each filesystem."""
    for code, fs in enumerate(itertools.islice(registry, known, None), known):
        if fs in ("", ".", "..") or "/" in fs or "\0" in fs:
            raise FeedFormatError(
                f"{what}: filesystem name {fs!r} is not a directory name",
                line_no=first_line + int(np.argmax(codes == code)),
                feed_field="fs")


def _keyed_dtype(schema, registries):
    """The record dtype a chunk of a keyed table is parsed into."""
    return np.dtype([(name, "O" if name in registries else "i8")
                     for name in schema[:-N_COUNTERS]]
                    + [("counters", "i8", (N_COUNTERS,))])


def _keyed_columns(dtype, registries, capacity):
    """Empty columns of a keyed table for capacity rows (see
    _keyed_chunks)."""
    return {name: np.empty((capacity,) + dtype[name].shape,
                           np.int32 if name in registries else np.int64)
            for name in dtype.names}


def _read_keyed_table(stream, schema, registries, what, check=None,
                      capacity=0):
    """The whole of a keyed table (see _keyed_chunks) as {column: array}.
    check(chunk, first_line) runs on each chunk before the next is read.

    The columns are allocated once, for capacity records (a bound such as
    _line_count gives, or 0 for a stream of unknown length), and each
    chunk is parsed into them; they double in capacity when a chunk would
    overflow them. The arrays returned are views of the parsed length.
    """
    dtype = _keyed_dtype(schema, registries)
    cols = _keyed_columns(dtype, registries, capacity)
    n = 0

    def place(rows):
        nonlocal cols
        if n + rows > len(cols["counters"]):
            grown = _keyed_columns(dtype, registries,
                                   max(n + rows, 2 * len(cols["counters"])))
            for name, col in cols.items():
                grown[name][:n] = col[:n]
            cols = grown
        return {name: col[n:n + rows] for name, col in cols.items()}

    for chunk, first_line in _keyed_chunks(stream, schema, registries, what,
                                           place=place):
        if check is not None:
            check(chunk, first_line)
        n += len(chunk["counters"])
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
    index. split is _keyed_chunks'.
    """
    stream = iter(stream)
    _check_header(next(csv.reader(stream), None), COUNTER_HEADER,
                  "counter feed")
    return _counter_rows(stream, capacity, sink, split)


def _counter_rows(stream, capacity=0, sink=None, split=False) -> CounterFeed:
    """parse_counter_feed of the lines after the header."""
    nodes: dict[str, int] = {}
    filesystems: dict[str, int] = {}
    registries = {"node": nodes, "fs": filesystems}
    if sink is None:
        cols = _read_keyed_table(stream, COUNTER_HEADER, registries,
                                 "counter feed", _check_counter_chunk,
                                 capacity)
    else:
        for chunk, first_line in _keyed_chunks(
                stream, COUNTER_HEADER, registries, "counter feed", split):
            _check_counter_chunk(chunk, first_line)
            sink(chunk["ts"], chunk["node"], chunk["fs"], chunk["counters"])
        cols = _keyed_columns(_keyed_dtype(COUNTER_HEADER, registries),
                              registries, 0)
    return CounterFeed(cols["ts"], cols["node"], cols["fs"],
                       cols["counters"], tuple(nodes), tuple(filesystems))


def _quoted(texts, alone: bool) -> list[str]:
    r"""Each text as a field csv.writer writes it, QUOTE_MINIMAL with a
    "\r\n" terminator, so a lone "\r" is quoted too: csv.reader ends a
    record at an unquoted "\r". A field alone in its row is quoted when
    empty."""
    texts = list(texts)
    # csv.writer writes a text with no delimiter, quote or line break as
    # it is; the others, and empty ones, go through it. The joined texts
    # hold such a character where some text does, so one search clears
    # them all
    if all(texts) and not _QUOTE_CHARS.search("".join(texts)):
        return texts
    odd = [i for i, text in enumerate(texts)
           if not text or _QUOTE_CHARS.search(text)]
    lines: list[str] = []  # csv.writer writes each row with one call
    writer = csv.writer(types.SimpleNamespace(write=lines.append),
                        lineterminator="\r\n")
    writer.writerows(((texts[i],) if alone else (texts[i], "")) for i in odd)
    cut = 2 if alone else 3  # the terminator, and the empty field's ","
    for i, line in zip(odd, lines):
        texts[i] = line[:-cut]
    return texts


def _int_texts(values, sep: str) -> np.ndarray:
    table = values.clip(0, _SMALL_INT - 1)
    texts = _SMALL_INT_TEXTS[sep][table]
    big = table != values
    if big.any():
        texts[big] = [f"{sep}{v}" for v in values[big].tolist()]
    return texts


def _block_texts(block, sep: str, alone: bool, known: list):
    """(lo, hi) -> the (hi - lo, width) texts of the block's rows lo:hi,
    each led by sep. known holds the names of the key column written
    before in the block's place and their texts, or nothing: the texts
    of the same names object are reused."""
    if isinstance(block, tuple):
        codes, names = block
        if not known or known[0] is not names:
            known[:] = names, np.array(
                [sep + q for q in _quoted(names, alone)], dtype=object)
        table = known[1]
        return lambda lo, hi: table[codes[lo:hi, None]]
    if block.dtype.kind in "iu":
        return lambda lo, hi: _int_texts(block[lo:hi], sep)
    if block.dtype.kind == "f":
        # each distinct value formatted once; distinct by its bits, since
        # 0.0 and -0.0 compare equal but print apart
        bits = np.ascontiguousarray(block, np.float64).view(np.int64)
        distinct, codes = np.unique(bits, return_inverse=True)
        table = np.array([f"{sep}{v!r}" for v in
                          distinct.view(np.float64).tolist()], dtype=object)
        codes = codes.reshape(block.shape)
        return lambda lo, hi: table[codes[lo:hi]]
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
    """Write a CSV table to a path or a stream, whole columns at a time
    (see csv_writer)."""
    with csv_writer(out, header) as write:
        write(columns)


@contextlib.contextmanager
def csv_writer(out, header):
    """Write a CSV table to a path or a stream: yields write(columns),
    which appends the rows of columns, and ends the table on exit.

    A column is an int array, a float array (a 2-D array is one column
    per array column) or a key column (codes, names): int codes into a
    sequence of texts. The header and the key texts are quoted as
    _quoted says, each distinct text once, and once for the writes that
    give a key column the same names object; ints are written as str
    writes them, floats as repr does. Rows go out _WRITE_CHUNK at a time,
    each chunk as one joined string.
    """
    alone, known = len(header) == 1, {}
    with (contextlib.nullcontext(out) if hasattr(out, "write")
          else open(out, "w", newline="")) as f:
        f.write(",".join(_quoted(header, alone)))
        yield lambda columns: _write_rows(f, len(header), alone, columns,
                                          known)
        f.write("\n")


def _write_rows(f, width, alone, columns, known) -> None:
    """csv_writer's write, for a table of width fields."""
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
    n = lengths.pop()
    # each row is "\n" + its first field, then "," + each later field
    texts = [_block_texts(b, "," if i else "\n", alone,
                          known.setdefault(i, []))
             for i, b in enumerate(blocks)]
    stops = np.cumsum(widths).tolist()
    for lo in range(0, n, _WRITE_CHUNK):
        hi = min(lo + _WRITE_CHUNK, n)
        cells = np.empty((hi - lo, width), dtype=object)
        for block_texts, block_width, stop in zip(texts, widths, stops):
            cells[:, stop - block_width:stop] = block_texts(lo, hi)
        f.write("".join(cells.ravel().tolist()))


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
              cores_per_node, what="job feed") -> JobTable:
    """The JobTable of per-job sequences in feed order; job i holds the
    nodes named in node_lists[i], in any order and with repeats.

    Job ids must be unique, each end_ts after its start_ts, each node list
    non-empty and each cores_per_node positive, and the jobs' core-seconds
    must sum within int64. The first job that breaks a rule raises
    FeedFormatError naming what and its line in a feed, 2 + i. Two jobs
    holding one node at the same time raise AttributionConflictError; of
    several such pairs, the one reported is the first in (node name,
    start, end, feed position) order.
    """
    n = len(job_ids)
    ids = np.array(job_ids, dtype=object)
    start = np.array(start_ts, dtype=np.int64)
    end = np.array(end_ts, dtype=np.int64)
    cores = np.array(cores_per_node, dtype=np.int64)

    def first_bad(mask, message, feed_field=None):
        if mask.any():
            i = int(mask.argmax())
            raise FeedFormatError(f"{what}: {message(i)}",
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
    first_bad(core_s > _INT64_MAX, lambda i: (
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


def parse_job_feed(stream, default_cores: int = Config.cores_per_node,
                   what: str = "job feed") -> JobTable:
    """Parse a jobs.csv stream into a JobTable (see job_table for the
    rules it checks); errors start with what. An empty cores_per_node
    field falls back to default_cores."""
    reader = csv.reader(stream)
    _check_header(next(reader, None), JOB_HEADER, what)
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(JOB_HEADER):
            raise FeedFormatError(
                f"{what}: expected {len(JOB_HEADER)} fields, "
                f"got {len(row)}", line_no=line_no)
        for text, name in zip(row, JOB_HEADER[:4]):
            _check_text(text, what, line_no, name)
        job_id, project, command, nodes_s, start_s, end_s, cores_s = row
        rows.append((
            job_id, project, command,
            [name for name in nodes_s.split(";") if name],
            _check_int64(start_s, what, line_no, "start_ts"),
            _check_int64(end_s, what, line_no, "end_ts"),
            _check_int64(cores_s, what, line_no, "cores_per_node")
            if cores_s.strip() else default_cores))
    return job_table(*(list(zip(*rows)) or [()] * 7), what=what)


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
    """Counter deltas accrued in each time bin per key: node usage keyed
    by ("node", "fs"), job usage by ("job_id", "fs"), fs totals and the
    unattributed ledger by ("fs",). codes holds each key's int32 column
    (m,), indexing the names of the same key. Rows are grouped by key and
    sorted by bin within each group; job usage and fs totals are sorted by
    their codes."""

    codes: dict[str, np.ndarray]
    names: dict[str, tuple[str, ...]]
    bin_start: np.ndarray  # int64 (m,)
    deltas: np.ndarray     # int64 (m, 21)
    bin_width: int = Config.bin_width_s

    def __len__(self) -> int:
        return len(self.bin_start)


class NodeUsage:
    """Node usage as a stream of blocks, taken once by iterating it: each
    block a UsageTable keyed by ("node", "fs") that holds whole (node, fs)
    streams, about _PARSE_CHUNK rows unless one stream holds more, and
    the blocks in stream order, so that joined they are the one table of
    every row. A block's codes index its names, which each later block's
    names extend. No stage holds every block at once: binning yields them
    from its parts, the store writes and reads them one at a time, and
    attribution takes them one at a time.

    counts is deltify_and_bin's, and None for node usage read from the
    store. rows and names are those of the blocks taken so far: once the
    blocks are all taken, the table's row count and registries.
    """

    def __init__(self, blocks, bin_width: int,
                 counts: BinCounts | None = None):
        self._blocks = blocks
        self.bin_width = bin_width
        self.counts = counts
        self.rows = 0
        self.names: dict[str, tuple[str, ...]] = {"node": (), "fs": ()}

    def __iter__(self):
        blocks, self._blocks = self._blocks, None
        if blocks is None:
            raise RuntimeError("node usage blocks are taken once")
        # map holds no block once it has given it
        return map(self._taken, blocks)

    def _taken(self, block: UsageTable) -> UsageTable:
        self.rows += len(block)
        self.names = block.names
        return block


def deltify_and_bin(feed: CounterFeed | str | os.PathLike,
                    bin_width: int = Config.bin_width_s, *,
                    max_gap_bins: int | None = Config.max_gap_bins,
                    pre_differenced: bool = False) -> NodeUsage:
    """Convert cumulative snapshots to per-bin deltas.

    feed is a CounterFeed or the path of a counters.csv file. A sample at
    time t covers activity since the previous sample of the same (node,
    fs) stream; a bin labelled b covers (b, b+w]. Deltas spanning several
    bins are apportioned by time overlap (the rule in _kernels, exact
    sum). Counter decreases are treated as resets (the new value is the
    delta since the restart). Gaps longer than max_gap_bins bins are
    dropped. Input order does not matter; rows are sorted internally.
    The snapshots are binned here; the binned rows are summed into blocks
    as the blocks are taken (see _SegmentBinner.usage). Every block's
    registries list the nodes and filesystems that have rows, in order of
    first appearance in the joined blocks, as the store reads them back.

    With pre_differenced=True each row's values are taken directly as the
    delta for the bin its timestamp closes.

    A CounterFeed is binned as one segment (see _SegmentBinner). A file is
    binned one parsed chunk at a time, so the counter matrix is never
    held, and a large file in byte ranges side by side (see _bin_ranges):
    each chunk and range a segment binned from an empty carry and stitched
    on through the carry. If a stream's rows go back in time from one
    segment to a later one, the file is read again whole and binned as
    one segment.
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
    return binner.usage(feed.nodes, feed.filesystems)


def _bin_file(path, options) -> NodeUsage:
    """The counter file at path binned as it is read: in byte ranges on
    several CPUs where _cuts makes more than one, else, or where a range
    cannot be read on its own, as one range."""
    cuts = _cuts(path)
    try:
        return _bin_ranges(path, cuts, options)
    except _Unsplittable:
        return _bin_ranges(path, [0, cuts[-1]], options)


def _cuts(path) -> list[int]:
    r"""Byte offsets 0 = c[0] < c[1] < .. < c[k] = the file's size, each
    c[i] just after the first "\n" at or past i / k of the file: k ranges
    that end at line ends, one per usable CPU, but fewer where a range
    would hold less than _SEGMENT_BYTES or no line end. One where k
    ranges cannot be binned in forked workers (see _fork.can_fork)."""
    size = os.path.getsize(path)
    k = min(_usable_cpus(), size // _SEGMENT_BYTES)
    if not can_fork(k):
        return [0, size]
    cuts = [0]
    with open(path, "rb") as f:
        for i in range(1, k):
            f.seek(max(cuts[-1], i * size // k - 1))
            f.readline()
            if cuts[-1] < f.tell() < size:
                cuts.append(f.tell())
    return cuts + [size]


def _bin_ranges(path, cuts, options) -> NodeUsage:
    """The counter file at path binned in the byte ranges between cuts:
    the first here, through parse_counter_feed, each later one in a forked
    process (see _send_range) from an empty carry. Each later range is
    then joined in order (see _SegmentBinner.join), so the node usage is
    the one sequential read gives. With cuts [0, size] the file is one
    range, read sequentially in this process, and a malformed row raises
    its FeedFormatError, which names the line.

    Raises _BackInTime when a stream goes back in time within a range or
    across a cut, and, with more than one range, _Unsplittable when a
    range cannot be read on its own or no worker can be forked. Every
    worker is killed and reaped before this returns or raises.
    """
    split = len(cuts) > 2
    with contextlib.ExitStack() as stack:
        try:
            workers = [stack.enter_context(fork(_send_range, path, lo, hi,
                                                options))
                       for lo, hi in zip(cuts[1:-1], cuts[2:])]
        except OSError:  # no process or pipe to be had
            raise _Unsplittable from None
        binner = _SegmentBinner(*options)
        try:
            with _open_range(path, 0, cuts[1]) as f:
                feed = parse_counter_feed(f, sink=binner.add, split=split)
        except ValueError:
            if not split:
                raise
            raise _Unsplittable from None  # one range numbers the line
        nodes = {name: i for i, name in enumerate(feed.nodes)}
        filesystems = {name: i for i, name in enumerate(feed.filesystems)}
        try:
            for worker in workers:
                segment = worker.load()
                if segment is _BackInTime:
                    raise _BackInTime
                parts = (worker.load() for _ in range(segment.n_parts))
                binner.join(segment, parts, nodes, filesystems)
        except ChildProcessError:  # the worker failed or was killed
            raise _Unsplittable from None
        return binner.usage(tuple(nodes), tuple(filesystems))


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
    """Bytes lo:hi of a file as text, read as the CSV inputs are read (see
    _check_text)."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, lo, hi)),
                            newline="", errors="surrogateescape")


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


def _send_range(out, path, lo, hi, options):
    """Bin bytes lo:hi of the counter file from an empty carry and pickle
    to out _BackInTime, or a _Segment and then its parts, one at a time,
    as they are kept (see _SegmentBinner._keep).
    Any other failure raises, and the worker sends nothing more (see
    _fork.Child.load)."""
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


class _BackInTime(Exception):
    """A stream's rows go back before the snapshot carried for it."""


@dataclass
class _Carry:
    """A snapshot per stream, sorted by stream in a binner's carry."""

    stream: np.ndarray  # int64 (k,): node code << 32 | fs code
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
    """Bins a counter feed one segment of rows at a time and sums the
    binned rows per (node, fs, bin) once, at the end, a block at a time.

    Each segment is binned from an empty carry (see bin_segment) and
    stitched on after the segments before it (see _stitch): a parsed chunk
    of the rows added here, or a later range of the feed, binned by a
    binner of its own (see join). So memory beyond the rows given is a
    piece's temporaries, the carry and the binned rows, and a piece holds
    about _PARSE_CHUNK binned rows however many bins its pairs span. The
    workspaces and the binned rows are memory maps (see _mapped). A part
    keeps only its counter columns that are not all zero, as uint32 where
    all their deltas fit, and int64 otherwise (see _keep): 54 and 55
    bytes a row on the benchmark's feeds, whose parts keep 9.5 and 9.8
    of the 21 columns on average, against 184 for 21 int64 deltas.
    The final merge puts each part's columns back into int64 blocks, sums
    the parts' rows into blocks of whole streams, in stream order, and
    unmaps each part once its last stream is out (see usage), so what it
    holds is the parts still to come and one block.
    """

    def __init__(self, bin_width, max_gap_bins, pre_differenced):
        self.bin_width = bin_width
        self.max_gap_s = (np.iinfo(np.int64).max // 4 if max_gap_bins is None
                          else max_gap_bins * bin_width)
        self.pre_differenced = pre_differenced
        self.carry = _no_snapshots()
        # each stream's first snapshot, which a binner of the rows before
        # it pairs with its own carry (see _stitch)
        self.heads = _no_snapshots()
        # the binned rows: (stream, bin, cols, cells) parts of 1 to
        # _MERGE_ROWS rows sorted by (stream, bin), each copied into a
        # memory map of its own, which is unmapped once usage() has summed
        # its rows in (see _keep)
        self.parts = []
        self.samples = self.gap_pairs = self.reset_pairs = 0
        self._gathered = np.empty((0, N_COUNTERS), np.int64)
        self._differenced = np.empty((0, N_COUNTERS), np.int64)

    def counts(self) -> BinCounts:
        return BinCounts(self.samples, self.gap_pairs, self.reset_pairs)

    def add(self, ts, node_idx, fs_idx, values):
        """Bin one segment of rows after those added before it."""
        self.samples += len(ts)
        # a stream is its code pair: the registries may grow mid-feed, so
        # node * len(filesystems) + fs would renumber earlier streams
        stream = (node_idx.astype(np.int64) << 32) | fs_idx
        self._stitch(*self.bin_segment(stream, ts, values))

    def join(self, segment, parts, nodes, filesystems):
        """Add the rows of a later range of the feed, binned by another
        binner from an empty carry: segment is its _Segment, parts its
        binned parts, recoded as they come, so they are never all held.
        Its codes join nodes and filesystems, the dicts that this binner's
        codes index, extended in place."""
        node_code = _codes(segment.nodes, nodes).astype(np.int64) << 32
        fs_code = _codes(segment.filesystems, filesystems).astype(np.int64)

        def recode(stream):
            return node_code[stream >> 32] | fs_code[stream & 0xFFFFFFFF]

        def resorted(stream, bins, cols, cells):
            # a part is sorted by (stream, bin), and the recoded streams
            # may sort in another order; each stream keeps its bin order,
            # and the part its columns
            stream = recode(stream)
            order = np.argsort(stream, kind="stable")
            return stream[order], bins[order], cols, cells[order]

        heads, carry = (_Carry(recode(s.stream), s.ts, s.values)
                        for s in (segment.heads, segment.carry))
        self._stitch(heads, carry, (resorted(*part) for part in parts))
        self.samples += segment.counts.samples
        self.gap_pairs += segment.counts.gap_pairs
        self.reset_pairs += segment.counts.reset_pairs

    def _stitch(self, heads, carry, parts):
        """Keep a segment's parts, binned from an empty carry, and bin
        each stream's pair across the cut: this carry's snapshot, then the
        segment's head. Then take the segment's carry for its streams.
        Raises _BackInTime, the carry unchanged, where a head precedes its
        stream's carried snapshot."""
        at, held = self.carry.find(heads.stream)
        c = at[held]
        if (heads.ts[held] < self.carry.ts[c]).any():
            raise _BackInTime
        # the carried snapshot first, so a tie keeps feed order
        self._keep(self.bin_segment(
            np.tile(heads.stream[held], 2),
            np.concatenate((self.carry.ts[c], heads.ts[held])),
            np.concatenate((self.carry.values[c], heads.values[held])))[2])
        self.heads = self.heads.updated(heads.stream[~held], heads.ts[~held],
                                        heads.values[~held])
        self.carry = self.carry.updated(carry.stream, carry.ts, carry.values)
        self._keep(parts)

    def _keep(self, parts):
        """Copy binned parts into memory maps of their own, of up to
        _MERGE_ROWS rows each. A part is (stream, bins, cols, cells): each
        row's deltas are its cells in the counter columns cols and zero in
        the others. A kept part holds only the columns in which some row
        of it is not zero, as uint32 where every kept delta fits and as
        int64 otherwise: 16 + 4k bytes a row of k columns, or 16 + 8k,
        against 184 for the 21 int64 deltas."""
        for stream, bins, cols, cells in parts:
            for lo in range(0, len(stream), _MERGE_ROWS):
                n = min(len(stream) - lo, _MERGE_ROWS)
                piece = cells[lo:lo + n]
                # a column's bitwise or is 0 where all its deltas are, and
                # lies in [0, 2**32) where all of them do
                ors = np.bitwise_or.reduce(piece, axis=0)
                used = np.flatnonzero(ors)
                narrow = ors.min() >= 0 and ors.max() <= 0xFFFFFFFF
                words = n * len(used)
                table = _mapped(2 * n + ((words + 1) // 2 if narrow
                                         else words))
                kept = (table[2 * n:].view(np.uint32)[:words] if narrow
                        else table[2 * n:]).reshape(n, len(used))
                np.take(piece, used, axis=1, out=kept, mode="clip")
                table[:n] = stream[lo:lo + n]
                table[n:2 * n] = bins[lo:lo + n]
                self.parts.append((table[:n], table[n:2 * n], cols[used],
                                   kept))

    def bin_segment(self, stream, ts, values):
        """(heads, carry, parts): each stream's first and last snapshot (a
        tie in feed order) and the binned parts of rows (stream, ts,
        values), in any order, from an empty carry. The rows are sorted by
        (stream, ts) and binned in pieces that never split a stream, each
        of about _PARSE_CHUNK binned rows: a row weighs as many as the bins
        its pair with the row before meets, so a piece of pairs that span
        several bins holds fewer rows. Each piece is gathered and
        differenced in the same two workspaces, which grow only when a
        piece outgrows them; the parts share no memory with the rows. With
        pre_differenced the rows form no pairs, so there are no snapshots
        to stitch and every row weighs one."""
        if not len(ts):
            return _no_snapshots(), _no_snapshots(), []
        order = np.lexsort((ts, stream))
        stream, ts = stream[order], ts[order]
        first = np.flatnonzero(np.append(True, stream[1:] != stream[:-1]))
        last = np.append(first[1:], len(order)) - 1
        if self.pre_differenced:
            heads = carry = _no_snapshots()
        else:
            heads, carry = (_Carry(stream[at], ts[at], values[order[at]])
                            for at in (first, last))
        pieces = list(key_ranges(stream, self._weights(stream, ts)))
        self._reserve(max(hi - lo for lo, hi in pieces))
        parts = []
        for lo, hi in pieces:
            # mode="clip": with the default mode, take buffers its output
            gathered = np.take(values, order[lo:hi], axis=0, mode="clip",
                               out=self._gathered[:hi - lo])
            part, gap_pairs, reset_pairs = _bin_chunk(
                stream[lo:hi], ts[lo:hi], gathered, self.bin_width,
                self.max_gap_s, self.pre_differenced, self._differenced)
            self.gap_pairs += gap_pairs
            self.reset_pairs += reset_pairs
            parts.append(part)
        return heads, carry, parts

    def _weights(self, stream, ts):
        """The most binned rows each of the rows, sorted by (stream, ts),
        gives: the bins that its pair with the row before meets, or one for
        a stream's first row, a pair that spans no time or more than
        max_gap_s, and a pre-differenced row."""
        weight = np.ones(len(ts), np.int64)
        if not self.pre_differenced:
            t0, t1 = ts[:-1], ts[1:]
            met = _kernels.bins_spanned(t0, t1, self.bin_width)
            met[(stream[1:] != stream[:-1]) | (t1 - t0 > self.max_gap_s)] = 1
            np.maximum(met, 1, out=weight[1:])  # no time spanned: 0 or 1
        return weight

    def usage(self, nodes, filesystems) -> NodeUsage:
        """The binned rows summed per (node, fs, bin), as NodeUsage whose
        codes index nodes and filesystems. The parts are taken out of the
        binner and summed a block at a time as the blocks are taken: a
        block's streams are found in every part, by search, since a part
        is sorted, and a part is unmapped once its last stream is out."""
        self._gathered = self._differenced = None
        parts, self.parts = self.parts, []
        return NodeUsage(_summed_blocks(parts, nodes, filesystems,
                                        self.bin_width),
                         self.bin_width, self.counts())

    def _reserve(self, rows):
        if len(self._gathered) < rows:
            size = max(rows, 2 * len(self._gathered))
            self._gathered = _mapped(size * N_COUNTERS).reshape(
                size, N_COUNTERS)
            self._differenced = _mapped((size - 1) * N_COUNTERS).reshape(
                size - 1, N_COUNTERS)


def _summed_blocks(parts, nodes, filesystems, bin_width):
    """The blocks of _SegmentBinner.usage: parts are its binned parts,
    which this takes over. A block's deltas are int64, each part's cells
    put into their counter columns (see _SegmentBinner._keep), so
    group_sum sums them in int64."""
    # every stream with rows, in order, and its rows over the parts: the
    # parts' rows of a stream sum to at most as many table rows
    distinct = [np.unique(part[0], return_counts=True) for part in parts]
    (streams,), weight = _kernels.group_sum(
        [np.concatenate([np.empty(0, np.int64)] + [s for s, _ in distinct])],
        np.concatenate([np.empty(0, np.int64)] + [n for _, n in distinct]))
    del distinct
    # the rows are grouped by stream, so each stream's first row is where
    # its codes first appear
    node_idx, nodes = _recode(streams >> 32, nodes)
    fs_idx, filesystems = _recode(streams & 0xFFFFFFFF, filesystems)
    names = {"node": nodes, "fs": filesystems}
    ranges = list(key_ranges(streams, weight))
    if not ranges:  # no rows
        return
    # where each block's streams start in each part, and the last block
    # that takes rows from each part
    starts = np.append(streams[[lo for lo, _ in ranges]], streams[-1:] + 1)
    cuts = np.array([np.searchsorted(part[0], starts) for part in parts])
    takes = cuts[:, 1:] > cuts[:, :-1]
    last = len(ranges) - 1 - np.argmax(takes[:, ::-1], axis=1)

    def block(b):
        # the block's rows in every part that has some, each part's cells
        # put into their columns of a zeroed int64 block: a part whose
        # last rows they are is dropped, and its map goes with them
        pieces = [(parts[p], cuts[p, b], cuts[p, b + 1])
                  for p in np.flatnonzero(takes[:, b])]
        for p in np.flatnonzero(last == b):
            parts[p] = None
        stream, bins = (np.concatenate([part[i][lo:hi]
                                        for part, lo, hi in pieces])
                        for i in (0, 1))
        deltas = np.zeros((len(stream), N_COUNTERS), np.int64)
        at = 0
        for (_, _, cols, cells), lo, hi in pieces:
            deltas[at:at + hi - lo, cols] = cells[lo:hi]
            at += hi - lo
        del pieces
        (stream, bins), sums = _kernels.group_sum([stream, bins], deltas)
        row = np.searchsorted(streams, stream)
        return UsageTable({"node": node_idx[row], "fs": fs_idx[row]}, names,
                          bins, sums, bin_width)

    for b in range(len(ranges)):
        yield block(b)  # held by no name here once given


def _mapped(n):
    """An int64 array of n values in a private anonymous memory map of its
    own. Kept in the allocator's heap, a buffer that lives from one chunk
    to the next and is allocated after the first splits the space that
    each chunk's parse frees and the next reuses: the allocator then gave
    it back and faulted it in afresh every chunk, and ingest took 2.7
    times the minor page faults. A map of a huge page (2 MB) or more asks
    for huge pages, as numpy does for its own large arrays; a smaller one,
    such as a binned part, has its pages put in at once (MAP_POPULATE),
    which took half the time of a fault per page for a part of 2,048
    rows written in full, and more than lazy huge pages from 3 MB on."""
    size = 8 * max(n, 1)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    if size < _HUGE_PAGE:
        flags |= getattr(mmap, "MAP_POPULATE", 0)
    buf = mmap.mmap(-1, size, flags=flags)
    if size >= _HUGE_PAGE and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, np.int64)[:n]


def key_ranges(key, weight=None):
    """(lo, hi) ranges over rows sorted by key (a stream code), of
    at most _PARSE_CHUNK rows, or of rows whose weights sum to at most
    that, and cut where the key changes; a key that outweighs that is a
    range of its own."""
    if not len(key):
        return
    ends = np.append(np.flatnonzero(key[1:] != key[:-1]) + 1, len(key))
    # the weight of the rows before each key's end
    load = ends if weight is None else np.cumsum(weight)[ends - 1]
    lo, at = 0, 0
    while lo < len(key):
        before = load[at - 1] if at else 0
        fits = np.searchsorted(load, before + _PARSE_CHUNK, side="right") - 1
        at = max(fits, at) + 1
        hi = int(ends[at - 1])
        yield lo, hi
        lo = hi


def _bin_chunk(stream, ts, values, bin_width, max_gap_s, pre_differenced,
               differenced):
    """Binned deltas of whole streams sorted by (stream, ts): ((stream,
    bin, cols, deltas), gap_pairs, reset_pairs), the rows with all-zero
    deltas dropped and duplicate (stream, bin) rows summed, sorted by
    (stream, bin), as a part of every counter column (see
    _SegmentBinner._keep), and deltify_pairs' counts. The rows share no
    memory with values or with differenced, deltify_pairs' workspace."""
    gap_pairs = reset_pairs = 0
    if pre_differenced:
        s_codes, deltas = stream, values
        bins = _kernels.closing_bin(ts, bin_width)
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
    part = (s_codes, bins, np.arange(N_COUNTERS), deltas)
    return part, gap_pairs, reset_pairs


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
    with open(path, newline="", errors="surrogateescape") as f:
        return parse_counter_feed(f, capacity)


def read_job_file(path,
                  default_cores: int = Config.cores_per_node) -> JobTable:
    with open(path, newline="", errors="surrogateescape") as f:
        return parse_job_feed(f, default_cores=default_cores)


def read_probe_file(path) -> tuple[np.ndarray, np.ndarray]:
    """A probe's (timestamps, values) from a two-column CSV with a header
    naming them; raises FeedFormatError with the file, line and field."""
    what = f"probe file {path}"
    ts, values = [], []
    with open(path, newline="", errors="surrogateescape") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or len(header) != 2:
            raise FeedFormatError(f"{what}: expected 2-column CSV with "
                                  f"header", line_no=1)
        _check_text(",".join(header), what, 1, None)
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
