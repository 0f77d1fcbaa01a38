"""Row-by-row counter feed parser: the oracle for ``iorisk.ingest``.

This is the ``csv.reader`` parser the package shipped before counter
feeds went through numpy's C reader: one Python list per row, keys coded
as rows arrive, integers converted in chunks of ``_PARSE_CHUNK`` rows and
faults located by a scalar ``int()`` rescan. It is kept unchanged but for
one rule: the rescan names a value outside int64 as a feed error, where
the old parser let numpy's bare ``OverflowError`` through.
The chunked parser in ``iorisk.ingest`` must return an equal
``CounterFeed`` or raise the same error for every input.
"""
from __future__ import annotations

import csv

import numpy as np

from iorisk.ingest import (COUNTER_HEADER, CounterFeed, FeedFormatError,
                           _check_header)
from iorisk.ops import COUNTER_NAMES, N_COUNTERS

_PARSE_CHUNK = 65536


def _convert_chunk(rows, first_line):
    """String rows -> (ts, values) arrays; locates faults on failure."""
    cols = list(zip(*rows))
    try:
        ts = np.asarray(cols[0], dtype=np.int64)
        values = np.empty((len(rows), N_COUNTERS), dtype=np.int64)
        for c in range(N_COUNTERS):
            values[:, c] = np.asarray(cols[3 + c], dtype=np.int64)
    except (ValueError, OverflowError):
        for i, r in enumerate(rows):  # slow rescan to locate the fault
            for j, name in (((0, "ts"),) + tuple(
                    (3 + c, COUNTER_NAMES[c]) for c in range(N_COUNTERS))):
                try:
                    v = int(r[j])
                except ValueError:
                    raise FeedFormatError(
                        f"counter feed: non-integer value {r[j]!r}",
                        line_no=first_line + i, feed_field=name) from None
                if not -2**63 <= v < 2**63:
                    raise FeedFormatError(
                        f"counter feed: value out of int64 range {r[j]!r}",
                        line_no=first_line + i, feed_field=name)
        raise
    bad = np.flatnonzero(ts <= 0)
    if bad.size:
        i = int(bad[0])
        raise FeedFormatError(
            f"counter feed: timestamp must be > 0, got {ts[i]}",
            line_no=first_line + i, feed_field="ts")
    neg = np.argwhere(values < 0)
    if neg.size:
        i, c = int(neg[0, 0]), int(neg[0, 1])
        raise FeedFormatError(
            f"counter feed: negative counter value {values[i, c]}",
            line_no=first_line + i, feed_field=COUNTER_NAMES[c])
    return ts, values


def parse_counter_feed(stream, schema=COUNTER_HEADER) -> CounterFeed:
    """Parse a counters.csv stream into a CounterFeed.

    Raises FeedFormatError with the line number and offending field for
    malformed rows; the header must match the schema exactly. Rows are
    converted in chunks so large feeds never sit in memory as strings.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    _check_header(header, schema, "counter feed")

    node_code: dict[str, int] = {}
    fs_code: dict[str, int] = {}
    node_idx: list[int] = []
    fs_idx: list[int] = []
    ts_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    pending: list[list[str]] = []
    first_line = 2
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(schema):
            raise FeedFormatError(
                f"counter feed: expected {len(schema)} fields, "
                f"got {len(row)}", line_no=line_no)
        node_idx.append(node_code.setdefault(row[1], len(node_code)))
        fs_idx.append(fs_code.setdefault(row[2], len(fs_code)))
        pending.append(row)
        if len(pending) >= _PARSE_CHUNK:
            ts, values = _convert_chunk(pending, first_line)
            ts_chunks.append(ts)
            value_chunks.append(values)
            first_line = line_no + 1
            pending = []
    if pending:
        ts, values = _convert_chunk(pending, first_line)
        ts_chunks.append(ts)
        value_chunks.append(values)

    if ts_chunks:
        ts_all = np.concatenate(ts_chunks)
        values_all = np.concatenate(value_chunks)
    else:
        ts_all = np.empty(0, dtype=np.int64)
        values_all = np.empty((0, N_COUNTERS), dtype=np.int64)
    return CounterFeed(ts_all,
                       np.asarray(node_idx, dtype=np.int32),
                       np.asarray(fs_idx, dtype=np.int32),
                       values_all,
                       tuple(node_code), tuple(fs_code))
