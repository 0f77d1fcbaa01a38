"""Chunked and streamed deltify against the whole-feed oracle in
scalar_deltify.py.

deltify_and_bin bins an in-memory feed as one segment, sorted and cut
into pieces of about _PARSE_CHUNK rows that never split a stream; it bins
a counter file one parsed chunk at a time against the carry of each
stream's last snapshot, a large file in byte ranges side by side, each
range in a forked worker from an empty carry and joined through the
carry, and reads the file again whole when a stream goes back in time.
At every budget and range count it must return the oracle's table array
for array, registries included, and count the pairs it dropped for a gap
and the resets it saw as the scalar loop does. Streaming ingest's memory
beyond the binned rows stays a few chunk tables, however many snapshots
the same bins receive.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iorisk import ingest
from iorisk.cli import run
from iorisk.ingest import COUNTER_HEADER, CounterFeed, deltify_and_bin
from iorisk.ops import N_COUNTERS

import scalar_deltify as ref
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


def _same_table(got, want):
    assert (got.nodes, got.filesystems, got.bin_width) \
        == (want.nodes, want.filesystems, want.bin_width)
    for name in ("bin_start", "node_idx", "fs_idx", "deltas"):
        x, y = getattr(got, name), getattr(want, name)
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
    # the sort order, one piece's temporaries, the carry and the returned
    # table, about 0.3 of the counter matrix: the workspaces and the
    # binned rows live in memory maps of their own, which tracemalloc does
    # not see. The whole-feed oracle peaks at 3.3 times the counter matrix
    # on this feed.
    feed = _sparse_feed()
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    assert len(feed) >= 8 * ingest._PARSE_CHUNK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        usage = deltify_and_bin(feed)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(usage)
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
    usage = deltify_and_bin(feed, pre_differenced=pre_differenced)
    assert len(usage) and len(workspaces) >= 2 * 6
    # one gather buffer and one difference buffer for all the chunks
    assert len({id(w) for w in workspaces}) == 2
    for buffer in [feed.values] + workspaces:
        assert not np.shares_memory(usage.deltas, buffer)


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
    """deltify_and_bin of a counter file at a chunk budget, and whether it
    read the file again whole."""
    with mock.patch.object(ingest, "_PARSE_CHUNK", chunk), \
            mock.patch.object(ingest, "read_counter_file",
                              wraps=ingest.read_counter_file) as reread:
        usage = deltify_and_bin(path, w, **options)
    return usage, reread.called


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
            usage, reread = _streamed(path, w, options, chunk)
            _same_table(usage, want)
            assert usage.counts == counts
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
        usage, reread = _streamed(path, 360, {}, chunk)
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
    usage, reread = _streamed(path, 360, {"max_gap_bins": 3}, chunk)
    assert not reread
    _same_table(usage, want)
    assert usage.counts == ingest.BinCounts(samples=14, gap_pairs=1,
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


def _collector_feed(path, cadence, n_streams=32, hours=30):
    """A counters.csv in collector order, by time: n_streams nodes whose
    counters move in every interval of cadence seconds, so that every
    cadence fills the same 360 s bins."""
    n = hours * 3600 // cadence + 1
    rng = np.random.default_rng(5)
    cum = np.cumsum(rng.integers(1, 1000, size=(n, n_streams, N_COUNTERS)),
                    axis=0)
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


def _check_streaming_memory(tmp_path, monkeypatch):
    # numpy reports its array allocations to tracemalloc; the binning
    # workspaces and the binned rows live in memory maps of their own,
    # which it does not see, until the rows are summed into the table
    # returned. Beyond that table, streaming ingest holds one chunk at a
    # time (its lines, its parsed table and the columns it is copied
    # into), the carry, and at the end the sort of the binned rows' keys:
    # 3.5 tables here.
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
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert usage.counts.samples == samples
        rows_out.add(len(usage))
        beyond[cadence] = peak - sum(a.nbytes for a in (
            usage.bin_start, usage.node_idx, usage.fs_idx, usage.deltas))
    assert len(rows_out) == 1  # the same bins
    assert beyond[360] < 6 * table, beyond[360] / table
    assert beyond[90] < beyond[360] + table, (beyond[90] - beyond[360]) / table


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
        usage, reread = _streamed(path, w, options, chunk)
        return usage, reread, _row_cuts(path)


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
            one, _ = _streamed(path, w, options, chunk)
            for cpus in (1, 2, 3, 4):
                usage, reread, cuts = _in_ranges(path, w, options, chunk,
                                                 cpus)
                assert len(cuts) <= cpus
                _same_table(usage, one)
                _same_table(usage, want)
                assert usage.counts == one.counts == counts
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
            usage, reread = _streamed(path, 360, options, ingest._PARSE_CHUNK)
        assert not reread, rows_at
        _same_table(usage, want)
        assert usage.counts == counts, rows_at
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
            usage, reread = _streamed(path, 360, {}, ingest._PARSE_CHUNK)
        assert reread == reread_expected, rows_at
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
    want = deltify_and_bin(path)
    assert set(want.nodes) == {"a\nb", "n1"}
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


@pytest.mark.parametrize("worker", [_dies_at_once, _dies_after_its_segment])
def test_a_worker_that_dies_leaves_the_one_read_table(tmp_path, worker):
    path = tmp_path / "counters.csv"
    _write_rows(path, _cut_feed())
    want = deltify_and_bin(path)
    with _cut_before(path, [5, 10]), \
            mock.patch.object(ingest, "_send_range", worker):
        _same_table(deltify_and_bin(path), want)
    _no_worker_left()
