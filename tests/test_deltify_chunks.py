"""Chunked and streamed deltify against the whole-feed oracle in
scalar_deltify.py.

deltify_and_bin bins an in-memory feed as one segment, sorted and cut
into pieces of about _PARSE_CHUNK rows that never split a stream; it bins
a counter file one parsed chunk at a time, a large file in byte ranges
side by side, each later range in a forked worker. Every chunk and range
is a segment binned from an empty carry and stitched on through the carry
of each stream's last snapshot, and the file is read again whole when a
stream goes back in time.
At every budget and range count it must return the oracle's table array
for array, registries included, and count the pairs it dropped for a gap
and the resets it saw as the scalar loop does. Streaming ingest's memory
beyond the binned rows stays a few chunk tables, however many snapshots
the same bins receive.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iorisk import ingest
from iorisk.cli import run
from iorisk.ingest import (COUNTER_HEADER, CounterFeed, NodeUsage,
                           deltify_and_bin)
from iorisk.ops import COUNTER_NAMES, N_COUNTERS

import scalar_deltify as ref
from conftest import usage_columns, whole
import scalar_kernels

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
BUDGETS = (1, 2, 3, ingest._PARSE_CHUNK)


@st.composite
def feeds(draw):
    """Unsorted counter feeds over several nodes and filesystems: off-grid
    cadence, duplicate timestamps, long gaps, idle intervals and resets."""
    w = draw(st.sampled_from([60, 360]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    magnitude = draw(st.sampled_from([3, 1000, 2 ** 40]))
    n_nodes, n_fs = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ts, node, fs, values = [], [], [], []
    for _ in range(draw(st.integers(1, 6))):
        # a (node, fs) pair drawn twice interleaves into one stream
        ni = draw(st.integers(0, n_nodes - 1))
        fi = draw(st.integers(0, n_fs - 1))
        t = draw(st.integers(1, 3 * w))
        cum = np.zeros(N_COUNTERS, dtype=np.int64)
        for _ in range(draw(st.integers(1, 12))):
            t += draw(st.one_of(st.integers(1, 3 * w),      # off-grid
                                st.just(0),                 # duplicate ts
                                st.integers(1, 6).map(lambda k: k * w),
                                st.integers(4 * w, 30 * w)))  # long gap
            kind = draw(st.sampled_from(["grow", "grow", "idle", "reset"]))
            if kind == "grow":
                step = rng.integers(0, magnitude, size=N_COUNTERS)
                cum = cum + step * (rng.random(N_COUNTERS) < 0.7)
            elif kind == "reset":
                cum = rng.integers(0, 50, size=N_COUNTERS)
            ts.append(t)
            node.append(ni)
            fs.append(fi)
            values.append(cum.copy())
    shuffle = rng.permutation(len(ts))
    feed = CounterFeed(np.asarray(ts, dtype=np.int64)[shuffle],
                       np.asarray(node, dtype=np.int32)[shuffle],
                       np.asarray(fs, dtype=np.int32)[shuffle],
                       np.asarray(values, dtype=np.int64)[shuffle],
                       tuple(f"n{i}" for i in range(n_nodes)),
                       tuple(f"fs{i}" for i in range(n_fs)))
    options = dict(max_gap_bins=draw(st.one_of(st.none(), st.integers(1, 6))),
                   pre_differenced=draw(st.booleans()))
    return feed, w, options


def _joined(usage):
    """The blocks of node usage joined, once each is checked to hold
    whole streams, and at most _PARSE_CHUNK rows unless it holds one, in
    int64 deltas."""
    seen = set()

    def checked(block):
        streams = set(zip(block.codes["node"].tolist(),
                          block.codes["fs"].tolist()))
        assert not streams & seen
        assert len(block) <= ingest._PARSE_CHUNK or len(streams) == 1
        assert block.deltas.dtype == np.int64
        seen.update(streams)
        return block

    return whole(NodeUsage(map(checked, usage), usage.bin_width))


def _same_table(got, want):
    """Two tables, or node usage's blocks joined, are the same."""
    got, want = (_joined(t) if isinstance(t, NodeUsage) else t
                 for t in (got, want))
    assert (got.names, got.bin_width) == (want.names, want.bin_width)
    wanted = usage_columns(want)
    for name, x in usage_columns(got).items():
        y = wanted[name]
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert np.array_equal(x, y), name


@PROPERTY
@given(feeds())
def test_chunked_deltify_matches_whole_feed_oracle(case):
    feed, w, options = case
    want = ref.deltify_and_bin(feed, w, **options)
    for budget in BUDGETS:
        with mock.patch.object(ingest, "_PARSE_CHUNK", budget):
            _same_table(deltify_and_bin(feed, w, **options), want)


def test_chunks_cut_only_at_stream_boundaries(monkeypatch):
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 4)
    stream = np.repeat(np.arange(5), [2, 2, 7, 1, 3])
    assert list(ingest.key_ranges(stream)) \
        == [(0, 4), (4, 11), (11, 15)]


def _sparse_feed(n_streams=64, n_samples=600, bin_width=360):
    """On-grid snapshots of nodes whose counters move in about 15% of the
    intervals and stand still otherwise, like the 13% of pairs that carry
    counter changes in simgen's perf preset."""
    rng = np.random.default_rng(7)
    busy = rng.random((n_streams, n_samples)) < 0.15
    steps = rng.integers(0, 1000, size=(n_streams, n_samples, N_COUNTERS))
    cum = np.cumsum(steps * busy[:, :, None], axis=1)
    ts = np.tile(bin_width * np.arange(1, n_samples + 1), n_streams)
    node = np.repeat(np.arange(n_streams, dtype=np.int32), n_samples)
    return CounterFeed(ts, node, np.zeros_like(node),
                       cum.reshape(-1, N_COUNTERS),
                       tuple(f"n{i}" for i in range(n_streams)), ("fs0",))


def test_memory_beyond_the_feed_is_a_fraction_of_the_counter_matrix(
        monkeypatch):
    # An in-memory feed, as a file read again whole, is one segment.
    # numpy reports its array allocations to tracemalloc. The peak counts
    # the sort order, one piece's temporaries, the carry and one block of
    # the node usage, taken and dropped: the workspaces and the binned
    # rows live in memory maps of their own, which tracemalloc does not
    # see. When the table was returned whole the peak was about 0.3 of the
    # counter matrix. The whole-feed oracle peaks at 3.3 times the counter
    # matrix on this feed.
    feed = _sparse_feed()
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    assert len(feed) >= 8 * ingest._PARSE_CHUNK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows = _taken(deltify_and_bin(feed))[0]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rows
    assert peak < 0.5 * feed.values.nbytes, peak / feed.values.nbytes


@pytest.mark.parametrize("pre_differenced", [False, True])
def test_deltas_share_no_memory_with_the_feed_or_the_workspaces(
        monkeypatch, pre_differenced):
    # every chunk is gathered and differenced into the same two buffers;
    # the table must hold copies, not views of them
    feed = _sparse_feed(n_streams=8, n_samples=50)
    workspaces = []
    bin_chunk = ingest._bin_chunk

    def spy(stream, ts, values, *args):
        workspaces.extend(a if a.base is None else a.base
                          for a in (values, args[-1]))
        return bin_chunk(stream, ts, values, *args)

    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 64)
    monkeypatch.setattr(ingest, "_bin_chunk", spy)
    usage = list(deltify_and_bin(feed, pre_differenced=pre_differenced))
    assert len(usage) and len(workspaces) >= 2 * 6
    # one gather buffer and one difference buffer for all the chunks
    assert len({id(w) for w in workspaces}) == 2
    for buffer in [feed.values] + workspaces:
        for block in usage:
            assert not np.shares_memory(block.deltas, buffer)


# --- streaming: a counter file binned one parsed chunk at a time ---------


def _write_rows(path, rows):
    """rows: (ts, node, fs, values) in file order."""
    lines = [",".join(COUNTER_HEADER)]
    lines += [",".join([str(t), node, fs] + [str(v) for v in values])
              for t, node, fs, values in rows]
    Path(path).write_text("\n".join(lines) + "\n")


@st.composite
def ordered_feeds(draw):
    """Counter feed rows in which each stream's rows come in time order,
    the streams interleaved at random: off-grid cadence, duplicate
    timestamps, multi-bin pairs, long gaps, idle intervals and resets, and
    streams that start late, so that a node or a filesystem first appears
    mid-feed. With back_in_time, one stream's last row is moved to the
    front of the feed."""
    w = draw(st.sampled_from([60, 360]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    magnitude = draw(st.sampled_from([3, 1000, 2 ** 40]))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                          min_size=1, max_size=5, unique=True))
    streams = []
    for ni, fi in pairs:
        t = draw(st.integers(1, 20 * w))
        cum = np.zeros(N_COUNTERS, dtype=np.int64)
        rows = []
        for _ in range(draw(st.integers(1, 12))):
            t += draw(st.one_of(st.integers(1, 3 * w),      # off-grid
                                st.just(0),                 # duplicate ts
                                st.integers(1, 6).map(lambda k: k * w),
                                st.integers(4 * w, 30 * w)))  # long gap
            kind = draw(st.sampled_from(["grow", "grow", "idle", "reset"]))
            if kind == "grow":
                step = rng.integers(0, magnitude, size=N_COUNTERS)
                cum = cum + step * (rng.random(N_COUNTERS) < 0.7)
            elif kind == "reset":
                cum = rng.integers(0, 50, size=N_COUNTERS)
            rows.append((t, f"n{ni}", f"fs{fi}", cum.tolist()))
        streams.append(rows)
    feed = []
    while streams:  # a random merge that keeps each stream's order
        k = int(rng.integers(len(streams)))
        feed.append(streams[k].pop(0))
        if not streams[k]:
            streams.pop(k)
    if draw(st.booleans()) and draw(st.booleans()):  # back in time
        key = feed[-1][1:3]
        feed.insert(0, feed.pop(max(i for i, row in enumerate(feed)
                                    if row[1:3] == key)))
    options = dict(max_gap_bins=draw(st.one_of(st.none(), st.integers(1, 6))),
                   pre_differenced=draw(st.booleans()))
    return feed, w, options


def _goes_back_in_time(rows, chunk, cuts=(0,)):
    """Whether a stream's row falls before a row of it in an earlier chunk
    of chunk rows, the chunks counted afresh from each row index in cuts:
    the file must then be read again whole."""
    ends = list(cuts[1:]) + [len(rows)]
    starts = sorted({lo for a, b in zip(cuts, ends)
                     for lo in range(a, b, chunk)})
    latest = {}  # stream -> its latest ts in the chunks before
    for lo, hi in zip(starts, starts[1:] + [len(rows)]):
        block = rows[lo:hi]
        if any(t < latest.get((node, fs), t) for t, node, fs, _ in block):
            return True
        for t, node, fs, _ in block:
            latest[node, fs] = max(t, latest.get((node, fs), t))
    return False


def _scalar_counts(feed, w, max_gap_bins, pre_differenced):
    """(samples, gap pairs, reset pairs) of a parsed feed, counted pair by
    pair over its rows sorted by stream and time."""
    if pre_differenced:
        return len(feed), 0, 0
    order = np.lexsort((feed.ts, feed.fs_idx, feed.node_idx))
    stream = (feed.node_idx[order].astype(np.int64)
              * len(feed.filesystems) + feed.fs_idx[order])
    max_gap_s = (np.iinfo(np.int64).max // 4 if max_gap_bins is None
                 else max_gap_bins * w)
    return (len(feed), *scalar_kernels._deltify_drops(
        stream, feed.ts[order], feed.values[order], max_gap_s))


def _streamed(path, w, options, chunk):
    """deltify_and_bin of a counter file at a chunk budget: its blocks
    joined, its counts, and whether it read the file again whole."""
    with mock.patch.object(ingest, "_PARSE_CHUNK", chunk), \
            mock.patch.object(ingest, "read_counter_file",
                              wraps=ingest.read_counter_file) as reread:
        usage = deltify_and_bin(path, w, **options)
        return _joined(usage), usage.counts, reread.called


@PROPERTY
@given(ordered_feeds())
def test_streamed_file_matches_whole_feed_oracle(case):
    rows, w, options = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counters.csv"
        _write_rows(path, rows)
        feed = ingest.read_counter_file(path)
        want = ref.deltify_and_bin(feed, w, **options)
        counts = ingest.BinCounts(*_scalar_counts(feed, w, **options))
        for chunk in BUDGETS:
            usage, got_counts, reread = _streamed(path, w, options, chunk)
            _same_table(usage, want)
            assert got_counts == counts
            assert reread == (not options["pre_differenced"]
                              and _goes_back_in_time(rows, chunk))


def test_a_stream_back_in_time_across_chunks_reads_the_file_again(tmp_path):
    # n1's third snapshot comes after n2's rows; at one row a chunk it is
    # behind n1's carried snapshot, within one chunk it is merely unsorted
    rows = [(360, "n1", "fs1", [5] * N_COUNTERS),
            (1080, "n1", "fs1", [9] * N_COUNTERS),
            (360, "n2", "fs1", [1] * N_COUNTERS),
            (720, "n1", "fs1", [7] * N_COUNTERS)]
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    want = ref.deltify_and_bin(ingest.read_counter_file(path), 360)
    for chunk, reread_expected in ((1, True), (2, True), (4, False)):
        usage, _, reread = _streamed(path, 360, {}, chunk)
        assert reread == reread_expected
        _same_table(usage, want)


def _straddling_feed():
    """One stream on a 360 s grid whose reset (rows 5 to 6) and long gap
    (rows 11 to 12) each cross a chunk boundary at 1, 2 and 3 rows a
    chunk; the last chunk of 3 rows is short."""
    ts = [360 * (i + 1) for i in range(12)] + [360 * 22, 360 * 23]
    read_kb = [100 * (i + 1) for i in range(6)] + [5 + 100 * i
                                                  for i in range(8)]
    values = [[kb] + [0] * (N_COUNTERS - 1) for kb in read_kb]
    return [(t, "n1", "fs1", v) for t, v in zip(ts, values)]


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_gap_and_reset_straddling_chunks_are_counted_once(tmp_path, chunk):
    path = tmp_path / "counters.csv"
    _write_rows(path, _straddling_feed())
    want = ref.deltify_and_bin(ingest.read_counter_file(path), 360,
                               max_gap_bins=3)
    usage, counts, reread = _streamed(path, 360, {"max_gap_bins": 3}, chunk)
    assert not reread
    _same_table(usage, want)
    assert counts == ingest.BinCounts(samples=14, gap_pairs=1,
                                            reset_pairs=1)


@pytest.mark.parametrize("command", ["ingest", "all"])
def test_summary_line_reports_gaps_and_resets(tmp_path, capsys, command):
    _write_rows(tmp_path / "counters.csv", _straddling_feed())
    (tmp_path / "jobs.csv").write_text(
        ",".join(ingest.JOB_HEADER) + "\nj1,p,cmd,n1,0,720,24\n")
    assert run([command, "--counters", str(tmp_path / "counters.csv"),
                "--jobs", str(tmp_path / "jobs.csv"), "--max-gap-bins", "3",
                "--out", str(tmp_path / "out")]) == 0
    assert ("ingested 14 samples -> 12 node-bin rows, 1 jobs; dropped 1 "
            "pairs over the gap limit, saw 1 counter resets") \
        in capsys.readouterr().out


def _collector_feed(path, cadence, n_streams=32, hours=30,
                    moving=N_COUNTERS):
    """A counters.csv in collector order, by time: n_streams nodes whose
    first moving counters move in every interval of cadence seconds, so
    that every cadence fills the same 360 s bins; the others stay 0."""
    n = hours * 3600 // cadence + 1
    rng = np.random.default_rng(5)
    cum = np.cumsum(rng.integers(1, 1000, size=(n, n_streams, N_COUNTERS)),
                    axis=0)
    cum[:, :, moving:] = 0
    node = np.tile(np.arange(n_streams, dtype=np.int32), n)
    ingest.write_counter_csv(CounterFeed(
        np.repeat(360 + cadence * np.arange(n), n_streams), node,
        np.zeros_like(node), cum.reshape(-1, N_COUNTERS),
        tuple(f"n{i}" for i in range(n_streams)), ("fs0",)), path)
    return n * n_streams


def test_streaming_memory_beyond_the_binned_rows_is_a_few_chunk_tables(
        tmp_path, monkeypatch):
    _check_streaming_memory(tmp_path, monkeypatch)


def test_streaming_memory_in_ranges_is_a_few_chunk_tables(tmp_path,
                                                          monkeypatch):
    # in two ranges the parent keeps within the same bound: its range's
    # chunks, and a worker's binned parts copied into memory maps one at
    # a time
    monkeypatch.setattr(ingest, "_SEGMENT_BYTES", 1)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 2)
    _check_streaming_memory(tmp_path, monkeypatch)


def _taken(usage):
    """(rows, bytes) of node usage's blocks, taken one at a time."""
    rows = nbytes = 0
    for block in usage:
        rows += len(block)
        nbytes += sum(a.nbytes for a in usage_columns(block).values())
    return rows, nbytes


def _check_streaming_memory(tmp_path, monkeypatch):
    # numpy reports its array allocations to tracemalloc; the binning
    # workspaces and the binned rows live in memory maps of their own,
    # which it does not see, and the rows are summed into one block at a
    # time, each dropped once taken. Streaming ingest holds one chunk at a
    # time (its lines, its parsed table, the columns it is copied into and
    # a piece's binned rows) and the carry, 5.7 tables here, and in the
    # final merge a block and its sort, 2.9. When the merge returned one
    # table, the peak beyond that table read 0.9 tables here, and 3.5 when
    # the merge kept the key columns and each row's part beside the table.
    # None of that grows with the snapshots: four times as many in the
    # same bins leave the peak where it was. Parsing the whole feed first
    # holds its counter matrix, 33 tables at the 90 s cadence.
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    table = ingest._PARSE_CHUNK * (3 * 8 + 8 * N_COUNTERS)
    beyond, rows_out = {}, set()
    for cadence in (360, 90):
        path = tmp_path / f"counters_{cadence}.csv"
        samples = _collector_feed(path, cadence)
        assert samples >= 8 * ingest._PARSE_CHUNK
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            usage = deltify_and_bin(path)
            rows, _ = _taken(usage)
            beyond[cadence] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert usage.counts.samples == samples
        rows_out.add(rows)
    assert len(rows_out) == 1  # the same bins
    assert beyond[360] < 6 * table, beyond[360] / table
    assert beyond[90] < beyond[360] + table, (beyond[90] - beyond[360]) / table


def _tally_maps(monkeypatch):
    """{"live": bytes, "peak": bytes} of the memory maps that ingest's
    _mapped makes from here on: a map counts until the last view of it is
    freed."""
    tally = {"live": 0, "peak": 0}
    mapped = ingest._mapped

    def freed(size):
        tally["live"] -= size

    def counting(n):
        array = mapped(n)
        size = 8 * max(n, 1)
        tally["live"] += size
        tally["peak"] = max(tally["peak"], tally["live"])
        # every view of the map is a view of array.base
        weakref.finalize(array.base, freed, size)
        return array

    monkeypatch.setattr(ingest, "_mapped", counting)
    return tally


@pytest.mark.parametrize("cadence, hours", [(360, 30), (1000, 120)])
def test_binning_peak_with_its_maps_is_one_table_and_a_few_chunk_tables(
        tmp_path, monkeypatch, cadence, hours):
    # tracemalloc sees numpy's heap arrays but not the memory maps that
    # hold the binned parts and the workspaces, so the maps are tallied
    # apart; the sum of the two peaks bounds the peak of the two together.
    # The node usage's blocks are taken one at a time and dropped, so no
    # table is held: the binner holds the binned parts (about half a
    # table, in uint32 deltas), a chunk's lines, columns and pieces, and
    # in the final merge one block and its sort. Beyond one table, that
    # reads 3.8 chunk tables here on the grid and -6.7 off it, where each
    # pair meets three or four bins and a chunk's pieces are the peak;
    # with parts of int64 deltas, 7.9 and 10.0. When the merge returned
    # a table, the same sum read two tables and 3.1 and 6.4 chunk tables,
    # against a bound of two tables and 8 chunk tables, and the feeds
    # here are 9 and 36 chunk tables of node usage. When pieces were cut
    # at a chunk of snapshots, they held four chunk tables of binned rows
    # off the grid, and the parts shared slabs that doubled in size: the
    # same feeds read 9.7 and 37 chunk tables beyond two tables.
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    monkeypatch.setattr(ingest, "_MERGE_ROWS", 1024 // 8)
    table = ingest._PARSE_CHUNK * (3 * 8 + 8 * N_COUNTERS)
    path = tmp_path / "counters.csv"
    samples = _collector_feed(path, cadence, hours=hours)
    assert samples >= 8 * ingest._PARSE_CHUNK
    tally = _tally_maps(monkeypatch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        usage = deltify_and_bin(path)
        # the workspaces are dropped: what is mapped is the binned parts,
        # all of them, before the merge unmaps any
        parts = tally["live"]
        rows, nbytes = _taken(usage)
        traced = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rows >= 8 * ingest._PARSE_CHUNK
    beyond = traced + tally["peak"] - nbytes
    assert beyond < 12 * table, beyond / table
    # nbytes is the int64 bytes of the binned rows too, 184 a row: parts
    # of uint32 deltas take 100 a row, and a (stream, bin) binned in two
    # pieces is a row of each
    assert parts < 0.6 * nbytes, parts / nbytes


@pytest.mark.parametrize("moving", [1, 3, 8])
def test_parts_keep_only_the_counters_that_move(tmp_path, monkeypatch,
                                                moving):
    # a part keeps the stream and bin columns and, of the deltas, only
    # the moving columns as uint32: 16 + 4 * moving bytes a row against
    # the 184 of a row of node usage. The parts hold a little more than
    # that: a (stream, bin) binned in two pieces is a row of each. Read
    # once deltify_and_bin returns, before the merge unmaps any part,
    # that is 1.02 times the share at each count here, and 5.1, 3.6 and
    # 2.1 times with all 21 columns kept
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    monkeypatch.setattr(ingest, "_MERGE_ROWS", 1024 // 8)
    path = tmp_path / "counters.csv"
    _collector_feed(path, 1000, hours=120, moving=moving)
    tally = _tally_maps(monkeypatch)
    usage = deltify_and_bin(path)
    parts = tally["live"]
    rows, nbytes = _taken(usage)
    assert rows >= 8 * ingest._PARSE_CHUNK
    share = (16 + 4 * moving) / 184
    assert parts < 1.15 * share * nbytes, parts / nbytes / share


# --- ranges: a counter file cut at line ends and binned side by side -----


RANGES = settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)


def _row_cuts(path):
    """The row index each byte range of a counter file of one line a row
    starts at, as _cuts cuts it."""
    text = Path(path).read_bytes()
    return [max(text[:c].count(b"\n") - 1, 0)
            for c in ingest._cuts(path)[:-1]]


def _in_ranges(path, w, options, chunk, cpus):
    """_streamed of a file cut into as many ranges as cpus, however small
    it is, and the row indices the ranges start at."""
    with mock.patch.object(ingest, "_SEGMENT_BYTES", 1), \
            mock.patch.object(ingest, "_usable_cpus", lambda: cpus):
        return (*_streamed(path, w, options, chunk), _row_cuts(path))


def _cut_before(path, rows_at):
    """_cuts patched to cut the file just before each data row index in
    rows_at."""
    ends = np.cumsum([len(line) + 1 for line in
                      Path(path).read_bytes().split(b"\n")])
    cuts = [0] + [int(ends[i]) for i in rows_at] + [path.stat().st_size]
    return mock.patch.object(ingest, "_cuts", lambda _: cuts)


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@RANGES
@given(ordered_feeds())
def test_file_in_ranges_matches_one_read_and_oracle(case):
    rows, w, options = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counters.csv"
        _write_rows(path, rows)
        feed = ingest.read_counter_file(path)
        want = ref.deltify_and_bin(feed, w, **options)
        counts = ingest.BinCounts(*_scalar_counts(feed, w, **options))
        for chunk in (1, 2, ingest._PARSE_CHUNK):
            one, one_counts, _ = _streamed(path, w, options, chunk)
            for cpus in (1, 2, 3, 4):
                usage, got_counts, reread, cuts = _in_ranges(
                    path, w, options, chunk, cpus)
                assert len(cuts) <= cpus
                _same_table(usage, one)
                _same_table(usage, want)
                assert got_counts == one_counts == counts
                assert reread == (not options["pre_differenced"]
                                  and _goes_back_in_time(rows, chunk, cuts))
    _no_worker_left()


def test_ranges_are_cut_at_line_ends_one_per_cpu(tmp_path):
    path = tmp_path / "counters.csv"
    _write_rows(path, _straddling_feed())
    text = path.read_bytes()
    for cpus in (1, 2, 3, 4):
        with mock.patch.object(ingest, "_SEGMENT_BYTES", 1), \
                mock.patch.object(ingest, "_usable_cpus", lambda: cpus):
            cuts = ingest._cuts(path)
        assert len(cuts) == cpus + 1
        assert cuts[0] == 0 and cuts[-1] == len(text)
        assert all(text[c - 1:c] == b"\n" for c in cuts[1:])
    with mock.patch.object(ingest, "_usable_cpus", lambda: 4):
        # a range holds _SEGMENT_BYTES or more
        with mock.patch.object(ingest, "_SEGMENT_BYTES", len(text) // 2):
            assert len(ingest._cuts(path)) == 3
        # no fork while another thread runs
        with mock.patch.object(ingest, "_SEGMENT_BYTES", 1):
            done = threading.Event()
            thread = threading.Thread(target=done.wait)
            thread.start()
            try:
                assert ingest._cuts(path) == [0, len(text)]
            finally:
                done.set()
                thread.join(timeout=10)
            assert not thread.is_alive()


def _cut_feed():
    """n1's reset and long gap (see _straddling_feed), with n2 on fs1
    snapshotted three times at one timestamp among them and n3 on fs2
    first seen in the last two rows."""
    rows = []
    for i, row in enumerate(_straddling_feed()):
        rows.append(row)
        if 2 <= i <= 4:
            rows.append((1440, "n2", "fs1", [10 * i] * N_COUNTERS))
    rows.append((2160, "n2", "fs1", [90] * N_COUNTERS))
    rows += [(360 * 22, "n3", "fs2", [1] * N_COUNTERS),
             (360 * 23, "n3", "fs2", [5] * N_COUNTERS)]
    return rows


@pytest.mark.parametrize("pre_differenced", [False, True])
def test_every_cut_gives_the_one_read_table(tmp_path, pre_differenced):
    # a cut between any two rows: inside the run of equal timestamps,
    # across the reset and the long gap, before the first rows of a node
    # and of a filesystem
    rows = _cut_feed()
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    options = {"max_gap_bins": 3, "pre_differenced": pre_differenced}
    feed = ingest.read_counter_file(path)
    want = ref.deltify_and_bin(feed, 360, **options)
    counts = ingest.BinCounts(*_scalar_counts(feed, 360, **options))
    if not pre_differenced:
        assert counts == ingest.BinCounts(len(rows), 1, 1)
    splits = [[i] for i in range(1, len(rows))]
    splits += [[i, i + 7] for i in range(1, len(rows) - 7, 3)]
    for rows_at in splits:
        with _cut_before(path, rows_at):
            usage, got_counts, reread = _streamed(path, 360, options,
                                                  ingest._PARSE_CHUNK)
        assert not reread, rows_at
        _same_table(usage, want)
        assert got_counts == counts, rows_at
    _no_worker_left()


def test_a_stream_back_in_time_across_a_cut_reads_the_file_again(tmp_path):
    # n1's last snapshot, 720, comes after its 1080 one: within one range
    # it is merely unsorted, across a cut it goes back in time
    rows = [(360, "n1", "fs1", [5] * N_COUNTERS),
            (1080, "n1", "fs1", [9] * N_COUNTERS),
            (360, "n2", "fs1", [1] * N_COUNTERS),
            (720, "n1", "fs1", [7] * N_COUNTERS)]
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    want = ref.deltify_and_bin(ingest.read_counter_file(path), 360)
    for rows_at, reread_expected in (([1], False), ([2], True), ([3], True),
                                     ([1, 3], True), ([1, 2], True)):
        with _cut_before(path, rows_at):
            usage, _, reread = _streamed(path, 360, {}, ingest._PARSE_CHUNK)
        assert reread == reread_expected, rows_at
        _same_table(usage, want)
        _no_worker_left()


EDGE = 2 ** 32


def _uint32_edge_feed(pre_differenced):
    """Rows whose deltas sit at uint32's edge, on a 360 s grid: on n1, a
    delta of 2**32 - 1 and one of 2**32 in one bin, a jump to 2**40, a
    reset to 2**35 and a pair of 3 * 2**32 over three bins; on n3, two
    deltas of 2**32 - 1 into one bin, whose rows sum past 2**32 once
    joined, though each fits uint32 (pre-differenced, the rows are those
    deltas). n2 beside them moves by ones."""
    def row(t, node, *values):
        return (t, node, "fs1", [*values] + [0] * (N_COUNTERS - len(values)))

    return [row(360, "n1"), row(360, "n2"), row(720, "n3"),
            row(720, "n1", EDGE - 1, EDGE), row(720, "n2", 1),
            row(800, "n3", 0, 0, EDGE - 1),
            row(900, "n3", 0, 0, (1 + (not pre_differenced)) * (EDGE - 1)),
            row(1080, "n2", 2), row(1080, "n1", EDGE - 1, EDGE, 0, 2 ** 40),
            row(1440, "n1", EDGE - 1, EDGE, 0, 2 ** 35),
            row(2520, "n1", 4 * EDGE - 1, EDGE, 0, 2 ** 35),
            row(2520, "n2", 3)]


@pytest.mark.parametrize("pre_differenced", [False, True])
def test_deltas_at_the_uint32_edge_are_exact(tmp_path, pre_differenced):
    # a part keeps its deltas as uint32 when they all fit and as int64
    # otherwise; the merge sums them in int64, in one read and in two
    # byte ranges, whose worker pickles its parts
    rows = _uint32_edge_feed(pre_differenced)
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    options = {"max_gap_bins": None, "pre_differenced": pre_differenced}
    feed = ingest.read_counter_file(path)
    want = ref.deltify_and_bin(feed, 360, **options)
    for value in (EDGE - 1, EDGE, 2 * EDGE - 2, 2 ** 35):
        assert (want.deltas == value).any(), value
    assert want.deltas.dtype == np.int64
    for chunk in BUDGETS:
        usage, _, reread = _streamed(path, 360, options, chunk)
        assert not reread
        _same_table(usage, want)
        for rows_at in ([4], [6], [9]):
            with _cut_before(path, rows_at):
                usage, _, reread = _streamed(path, 360, options, chunk)
            assert not reread
            _same_table(usage, want)
    _no_worker_left()


def test_parts_are_uint32_only_where_every_delta_fits(monkeypatch):
    # one part a stream, each holding only the counter columns its rows
    # move: n0's deltas fit uint32, one of n1's reaches 2**32 and one of
    # n2's, in a feed given in memory, is negative
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1)
    values = np.zeros((6, N_COUNTERS), np.int64)
    values[:2, 0] = [EDGE - 1, 7]
    values[1, 9] = 3
    values[2:4, 4] = [EDGE, 7]
    values[4:, 20] = [-3, 5]
    binner = ingest._SegmentBinner(360, None, True)
    binner.add(np.tile([360, 720], 3), np.repeat([0, 1, 2], 2),
               np.zeros(6, np.int32), values)
    assert [(cols.tolist(), cells.dtype) for _, _, cols, cells
            in binner.parts] == [([0, 9], np.dtype(np.uint32)),
                                 ([4], np.dtype(np.int64)),
                                 ([20], np.dtype(np.int64))]
    assert binner.parts[0][3].tolist() == [[EDGE - 1, 0], [7, 3]]
    assert binner.parts[1][3].tolist() == [[EDGE], [7]]
    assert binner.parts[2][3].tolist() == [[-3], [5]]
    usage = _joined(binner.usage(("n0", "n1", "n2"), ("fs0",)))
    assert usage.deltas.dtype == np.int64
    assert np.array_equal(usage.deltas, values)


def _compact_feed():
    """Cumulative rows off a 360 s grid whose parts keep few columns: n1
    moves read_kb and read_ops, then from 1000 s write_kb and write_ops
    too, so its rows on either side of a cut there keep other columns
    and its 360 s bin sums a row of each, then resets read_kb at 1500 s;
    n2 moves sdr once, in one bin and one row; n3 moves getattr by ones
    and, once, unlink past 2**32."""
    def row(t, node, **counters):
        return (t, node, "fs1", [counters.get(name, 0)
                                 for name in COUNTER_NAMES])

    return [row(100, "n1", read_kb=10, read_ops=20), row(200, "n2"),
            row(300, "n3", getattr=1),
            row(500, "n1", read_kb=1000, read_ops=3000), row(650, "n2"),
            row(700, "n1", read_kb=5000, read_ops=6000),
            row(900, "n3", getattr=2, unlink=2 * EDGE + 5),
            row(1000, "n1", read_kb=5000, read_ops=6000, write_kb=70,
                write_ops=80),
            row(1100, "n2"), row(1300, "n2", sdr=7),
            row(1400, "n3", getattr=3, unlink=2 * EDGE + 5),
            row(1500, "n1", read_kb=3, read_ops=6000, write_kb=900,
                write_ops=800),
            row(2200, "n1", read_kb=50, read_ops=6000, write_kb=900,
                write_ops=800)]


@pytest.mark.parametrize("pre_differenced", [False, True])
def test_parts_of_few_columns_are_exact(tmp_path, pre_differenced):
    # at every budget, in one read and in two and three byte ranges, whose
    # workers pickle their parts as they keep them
    rows = _compact_feed()
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    options = {"max_gap_bins": None, "pre_differenced": pre_differenced}
    feed = ingest.read_counter_file(path)
    want = ref.deltify_and_bin(feed, 360, **options)
    assert (want.deltas[:, COUNTER_NAMES.index("unlink")] > EDGE).any()
    assert np.count_nonzero(want.deltas[:, COUNTER_NAMES.index("sdr")]) == 1
    if not pre_differenced:
        assert ingest.BinCounts(*_scalar_counts(feed, 360, **options)) \
            == ingest.BinCounts(len(rows), 0, 1)
    splits = [[i] for i in range(1, len(rows))]
    splits += [[i, i + 4] for i in range(1, len(rows) - 4, 2)]
    for chunk in BUDGETS:
        usage, _, reread = _streamed(path, 360, options, chunk)
        assert not reread
        _same_table(usage, want)
        for rows_at in splits:
            with _cut_before(path, rows_at):
                usage, _, reread = _streamed(path, 360, options, chunk)
            assert not reread, rows_at
            _same_table(usage, want)
    _no_worker_left()


def _error_of(path):
    with pytest.raises(ingest.FeedFormatError) as exc:
        deltify_and_bin(path)
    return str(exc.value), exc.value.line_no, exc.value.feed_field


@pytest.mark.parametrize("bad", ["x", "-5"])
@pytest.mark.parametrize("bad_row", [3, 14, 29])
def test_a_bad_value_in_any_range_raises_the_one_read_error(tmp_path, bad,
                                                            bad_row):
    rows = [(360 * (i + 1), f"n{i % 2}", "fs1",
             [i] * (N_COUNTERS - 1) + [bad if i == bad_row else i])
            for i in range(30)]
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    want = _error_of(path)
    assert want[1] == 2 + bad_row and want[2] == "cdr"
    with _cut_before(path, [10, 20]):
        assert _error_of(path) == want
    _no_worker_left()


def test_the_error_reported_is_the_one_read_chunks_first(tmp_path):
    # a chunk reports a bad timestamp before a negative counter: at one
    # read the zero timestamp of row 15 shares a chunk with the negative
    # counter of row 3, which the first range would report alone
    rows = [(0 if i == 15 else 360 * (i + 1), "n1", "fs1",
             [-1 if i == 3 else i] * N_COUNTERS) for i in range(30)]
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    want = _error_of(path)
    assert want[1:] == (17, "ts")
    with _cut_before(path, [10, 20]):
        assert _error_of(path) == want
    _no_worker_left()


def test_a_quoted_line_break_across_a_cut_gives_the_one_read_table(tmp_path):
    rows = [(360 * (i + 1), '"a\nb"' if i % 3 else "n1", "fs1",
             [i] * N_COUNTERS) for i in range(12)]
    path = tmp_path / "counters.csv"
    _write_rows(path, rows)
    text = path.read_bytes()
    inside = [i + 3 for i in range(len(text)) if text.startswith(b'"a\n', i)]
    want = _joined(deltify_and_bin(path))
    assert set(want.names["node"]) == {"a\nb", "n1"}
    ends = [i + 1 for i in range(len(text)) if text[i:i + 1] == b"\n"]
    for cuts in ([0, inside[2], len(text)],
                 [0, ends[2], inside[5], len(text)]):
        with mock.patch.object(ingest, "_cuts", lambda _: cuts):
            _same_table(deltify_and_bin(path), want)
    _no_worker_left()


def test_ingest_in_ranges_prints_its_summary_once(tmp_path):
    # stdout to a file is block-buffered: a forked copy of its buffer,
    # flushed too, would print the lines before the fork twice
    _write_rows(tmp_path / "counters.csv", _straddling_feed())
    (tmp_path / "jobs.csv").write_text(
        ",".join(ingest.JOB_HEADER) + "\nj1,p,cmd,n1,0,720,24\n")
    code = ("import sys\n"
            "from iorisk import cli, ingest\n"
            "ingest._SEGMENT_BYTES = 1\n"
            "ingest._usable_cpus = lambda: 3\n"
            "print('ranges', len(ingest._cuts('counters.csv')) - 1)\n"
            "sys.exit(cli.run(sys.argv[1:]))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ingest.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    with open(tmp_path / "stdout.txt", "w") as out:
        subprocess.run([sys.executable, "-c", code, "ingest", "--counters",
                        "counters.csv", "--jobs", "jobs.csv", "--out", "out"],
                       cwd=tmp_path, env=env, stdout=out, check=True)
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert lines[0] == "ranges 3"
    assert len(lines) == 2 and lines[1].startswith("ingested 14 samples")


def test_no_process_to_fork_reads_the_file_in_one(tmp_path):
    path = tmp_path / "counters.csv"
    _write_rows(path, _cut_feed())
    want = deltify_and_bin(path)
    with _cut_before(path, [5, 10]), \
            mock.patch.object(ingest.os, "fork", side_effect=BlockingIOError):
        _same_table(deltify_and_bin(path), want)
    _no_worker_left()


def _dies_at_once(out, *args):
    os._exit(1)


def _dies_after_its_segment(out, path, lo, hi, options):
    segment = ingest._Segment((), (), ingest._no_snapshots(),
                              ingest._no_snapshots(),
                              ingest.BinCounts(0, 0, 0), n_parts=3)
    ingest.pickle.dump(segment, out)
    out.flush()
    os._exit(1)


def _raises(out, *args):
    raise RuntimeError("the worker failed")


@pytest.mark.parametrize("worker", [_dies_at_once, _dies_after_its_segment,
                                    _raises])
def test_a_worker_that_dies_leaves_the_one_read_table(tmp_path, worker):
    path = tmp_path / "counters.csv"
    _write_rows(path, _cut_feed())
    want = deltify_and_bin(path)
    with _cut_before(path, [5, 10]), \
            mock.patch.object(ingest, "_send_range", worker):
        _same_table(deltify_and_bin(path), want)
    _no_worker_left()


# --- a parent killed mid-run leaves no worker behind ----------------------


def _state(pid: int) -> str | None:
    """The process state letter of pid, None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _kill_parent_then_check_child(tmp_path, code, *args):
    """Run code, whose forked child writes its pid to child.pid and then
    blocks, kill the parent with SIGKILL, and check that the child ends."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(ingest.__file__).resolve().parents[1])}
    parent = subprocess.Popen([sys.executable, "-c", code, *args],
                              cwd=tmp_path, env=env,
                              stdout=subprocess.DEVNULL)
    pid_file = tmp_path / "child.pid"
    try:
        deadline = time.monotonic() + 120
        while not pid_file.exists():
            assert parent.poll() is None, "the parent ended first"
            assert time.monotonic() < deadline, "no child started"
            time.sleep(0.02)
    finally:
        parent.kill()
        parent.wait(timeout=60)
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 30
    while _state(child) not in (None, "Z", "X"):
        if time.monotonic() > deadline:
            os.kill(child, signal.SIGKILL)
            pytest.fail(f"child {child} outlived its parent")
        time.sleep(0.02)


_BLOCKED = ("import os, sys, time\n"
            "def blocked(*args):\n"
            "    with open('child.tmp', 'w') as f:\n"
            "        f.write(str(os.getpid()))\n"
            "    os.rename('child.tmp', 'child.pid')\n"
            "    time.sleep(600)\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the kernel ends a child with its parent on Linux")
def test_a_killed_parent_leaves_no_range_worker_behind(tmp_path):
    _write_rows(tmp_path / "counters.csv", _cut_feed())
    code = _BLOCKED + ("from iorisk import ingest\n"
                       "ingest._SEGMENT_BYTES = 1\n"
                       "ingest._usable_cpus = lambda: 2\n"
                       "ingest._send_range = blocked\n"
                       "ingest.deltify_and_bin(sys.argv[1])\n")
    _kill_parent_then_check_child(tmp_path, code, "counters.csv")
