"""Chunked deltify against the whole-feed oracle in scalar_deltify.py.

deltify_and_bin bins the sorted feed in chunks of about _PARSE_CHUNK rows
that never split a stream. At every budget it must return the oracle's
table array for array, registries included, and its memory beyond the
feed must stay a fraction of the counter matrix.
"""
from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iorisk import ingest
from iorisk.ingest import CounterFeed, deltify_and_bin
from iorisk.ops import N_COUNTERS

import scalar_deltify as ref

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
    assert list(ingest._stream_chunks(stream)) \
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
    # numpy reports its array allocations to tracemalloc. The peak counts
    # the sort order, one chunk's temporaries and the returned table, the
    # last one twice while it is assembled: tracemalloc counts the
    # preallocated result in full before its pages are written. The whole-
    # feed oracle peaks at 3.3 times the counter matrix on this feed.
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
