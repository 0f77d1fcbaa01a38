"""The vectorized kernels against the scalar reference loops in
scalar_kernels.py, on generated inputs: off-grid cadence, resets,
duplicate timestamps, long gaps, partial-bin job edges and bins shared by
several jobs and the unattributed remainder."""
from __future__ import annotations

import time

import numpy as np
from hypothesis import example, given, settings, strategies as st

from iorisk import _kernels
from iorisk.ops import N_COUNTERS

import scalar_kernels as ref

# the max_gap_s that deltify_and_bin passes for max_gap_bins=None
NO_GAP_LIMIT = np.iinfo(np.int64).max // 4

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def _sorted_rows(*cols):
    """Order-independent view of a kernel's output rows."""
    deltas = cols[-1]
    keys = [deltas[:, c] for c in range(N_COUNTERS - 1, -1, -1)]
    order = np.lexsort(keys + [np.asarray(c) for c in cols[-2::-1]])
    return [np.asarray(c)[order] for c in cols]


def _assert_same_rows(a, b):
    for x, y in zip(_sorted_rows(*a), _sorted_rows(*b)):
        np.testing.assert_array_equal(x, y)


_magnitude = st.sampled_from([3, 1000, 2 ** 40])


@st.composite
def apportion_cases(draw):
    k_count = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    overlap = np.array(draw(st.lists(
        st.lists(st.integers(0, 40), min_size=k_count, max_size=k_count),
        min_size=n, max_size=n)), dtype=np.int64)
    overlap[overlap.sum(axis=1) == 0, -1] = 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    deltas = rng.integers(0, draw(_magnitude), size=(n, N_COUNTERS))
    return deltas, overlap, overlap.sum(axis=1)


@PROPERTY
@given(apportion_cases())
def test_apportion_matches_scalar_rule(case):
    deltas, overlap, span = case
    shares = _kernels.apportion(deltas, overlap, span)
    np.testing.assert_array_equal(shares.sum(axis=1), deltas)
    assert (shares >= 0).all()
    for i in range(len(deltas)):
        for c in range(N_COUNTERS):
            assert shares[i, :, c].tolist() == ref.split_ref(
                int(deltas[i, c]), overlap[i].tolist(), int(span[i]))


def test_apportion_half_even_ties_residue_and_carry():
    def split(d, overlaps):
        deltas = np.full((1, N_COUNTERS), d, dtype=np.int64)
        ov = np.array([overlaps], dtype=np.int64)
        return _kernels.apportion(deltas, ov, ov.sum(axis=1))[0, :, 0]

    assert split(1, (1, 1)).tolist() == [0, 1]   # 0.5 -> 0, residue last
    assert split(3, (1, 1)).tolist() == [2, 1]   # 1.5 -> 2, negative residue
    assert split(5, (3, 3, 3, 1)).tolist() == [2, 2, 1, 0]  # carry walks back
    assert split(7, (4,)).tolist() == [7]        # one claimant: identity


@st.composite
def snapshot_streams(draw):
    """Sorted (stream, ts, cumulative values) plus bin width and gap."""
    w = draw(st.sampled_from([60, 360]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    magnitude = draw(_magnitude)
    stream, ts, values = [], [], []
    for s in range(draw(st.integers(1, 4))):
        t = draw(st.integers(1, 3 * w))
        cum = np.zeros(N_COUNTERS, dtype=np.int64)
        for _ in range(draw(st.integers(1, 10))):
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
            stream.append(s)
            ts.append(t)
            values.append(cum.copy())
    gap_bins = draw(st.one_of(st.none(), st.integers(1, 6)))
    max_gap_s = NO_GAP_LIMIT if gap_bins is None else gap_bins * w
    return (np.asarray(stream, dtype=np.int64),
            np.asarray(ts, dtype=np.int64),
            np.asarray(values, dtype=np.int64), w, max_gap_s)


@PROPERTY
@given(snapshot_streams())
def test_deltify_pairs_matches_scalar_reference(case):
    got = _kernels.deltify_pairs(*case)
    want = ref.deltify_pairs_ref(*case)
    _assert_same_rows(got[:3], want[:3])
    assert got[3:] == want[3:]  # pairs dropped for a gap, resets
    assert (got[2] >= 0).all()
    assert (got[1] % case[3] == 0).all()


@st.composite
def attribution_cases(draw):
    """Node-bin rows and per-node CSR job intervals, non-overlapping."""
    w = draw(st.sampled_from([60, 360]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_nodes = draw(st.integers(1, 4))
    node_ptr, starts, ends = [0], [], []
    for _ in range(n_nodes):
        t = draw(st.integers(0, 3 * w))
        for _ in range(draw(st.integers(0, 5))):
            t += draw(st.one_of(st.just(0), st.integers(1, 2 * w)))
            dur = draw(st.one_of(st.integers(1, w), st.integers(w, 4 * w)))
            starts.append(t)
            ends.append(t + dur)
            t += dur
        node_ptr.append(len(starts))
    horizon_bins = max(ends, default=0) // w + 2
    m = draw(st.integers(1, 30))
    node_idx = rng.integers(0, n_nodes, size=m).astype(np.int32)
    fs_idx = rng.integers(0, 2, size=m).astype(np.int32)
    bin_start = rng.integers(0, horizon_bins, size=m).astype(np.int64) * w
    deltas = rng.integers(0, draw(_magnitude), size=(m, N_COUNTERS))
    job_of = rng.permutation(len(starts)).astype(np.int32)
    return (node_idx, fs_idx, bin_start, deltas, w,
            np.asarray(node_ptr, dtype=np.int64),
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64), job_of)


@PROPERTY
@given(attribution_cases())
def test_attribute_shares_matches_scalar_reference(case):
    node_idx, fs_idx, bin_start, deltas, w, node_ptr, starts, ends, job_of \
        = case
    j0, j1 = _kernels.claim_ranges(node_idx, bin_start, w, node_ptr,
                                   starts, ends)
    want = ref.attribute_rows_ref(*case)
    got = _kernels.attribute_shares(fs_idx, bin_start, deltas, w, j0, j1,
                                    starts, ends, job_of)
    _assert_same_rows(got, want)
    assert (got[3] >= 0).all()
    assert got[3].sum() == deltas.sum()
    # any subset of the rows, in any order, gets the same claimants
    rows = np.random.default_rng(len(bin_start)).permutation(
        len(bin_start))[:len(bin_start) // 2]
    _assert_same_rows(
        _kernels.attribute_shares(fs_idx[rows], bin_start[rows],
                                  deltas[rows], w, j0[rows], j1[rows],
                                  starts, ends, job_of),
        ref.attribute_rows_ref(node_idx[rows], fs_idx[rows], bin_start[rows],
                               deltas[rows], w, node_ptr, starts, ends,
                               job_of))


@st.composite
def grouping_cases(draw):
    """1-3 key columns of few distinct values, so that groups repeat, and
    int values of one or several columns."""
    n = draw(st.integers(0, 40))
    keys = [np.asarray(draw(st.lists(st.integers(-2, 2), min_size=n,
                                     max_size=n)),
                       dtype=draw(st.sampled_from([np.int32, np.int64])))
            for _ in range(draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    width = draw(st.sampled_from([(), (3,)]))
    return keys, rng.integers(-50, 50, size=(n,) + width)


@PROPERTY
@example(([np.empty(0, np.int32), np.empty(0, np.int64)],
          np.empty((0, N_COUNTERS), np.int64)))
@example(([np.array([7], np.int64)], np.array([[1.5, -2.0]])))
@given(grouping_cases())
def test_group_sum_matches_dict_oracle(case):
    keys, values = case
    groups = ref.group_rows_ref(keys, len(values))
    want_keys = sorted(groups)  # ascending, the first key major

    order, starts = _kernels.sort_groups(*keys)
    bounds = np.append(starts, len(order)).tolist()
    assert [order[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])] \
        == [groups[key] for key in want_keys]

    got_keys, sums = _kernels.group_sum(keys, values)
    assert [k.dtype for k in got_keys] == [k.dtype for k in keys]
    assert list(zip(*(k.tolist() for k in got_keys))) == want_keys
    assert sums.dtype == values.dtype
    assert sums.shape == (len(want_keys),) + values.shape[1:]
    for group, key in enumerate(want_keys):
        want = values[groups[key][0]]
        for row in groups[key][1:]:
            want = want + values[row]
        np.testing.assert_array_equal(sums[group], want)

    # the same rows as a list of arrays, which group_sum empties, as it
    # does the list of key columns; one row an array never repeats a group
    # within an array
    for n_parts in (1, 2, 5, max(len(values), 1)):
        parts, key_list = np.array_split(values, n_parts), list(keys)
        part_keys, part_sums = _kernels.group_sum(key_list, parts)
        assert parts == [] and key_list == []
        assert [k.tolist() for k in part_keys] \
            == [k.tolist() for k in got_keys]
        assert (part_sums.dtype, part_sums.shape) == (sums.dtype, sums.shape)
        np.testing.assert_array_equal(part_sums, sums)


@st.composite
def merge_cases(draw):
    """Two tables of (job, fs, bin) sums with distinct keys in key order,
    keys that they share and keys of their own, from no rows to a few
    dozen; bins near the int64 limits, whose ranges do not pack into one
    int64 column, or on a grid."""
    far = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tables = []
    for _ in range(2):
        n = draw(st.integers(0, 30))
        job = rng.integers(-1, 4, n).astype(np.int32)
        fs = rng.integers(0, 2, n).astype(np.int32)
        bins = (rng.choice([-2 ** 62, 0, 2 ** 62], n) if far
                else rng.integers(0, 6, n) * 360)
        (job, fs, bins), sums = _kernels.group_sum(
            [job, fs, bins], rng.integers(-9, 9, (n, N_COUNTERS)))
        tables.append(([job, fs, bins], sums))
    return tables


@PROPERTY
@example([([np.empty(0, np.int32), np.empty(0, np.int32),
            np.empty(0, np.int64)], np.empty((0, N_COUNTERS), np.int64))] * 2)
@given(merge_cases())
def test_merge_sums_matches_dict_oracle(case):
    # the table merged into grows in place: its arrays stay the same
    # objects, and the merged table is the two tables' rows summed by key
    (keys, sums), (more_keys, more_sums) = case
    want = {}
    for cols, rows in ((keys, sums), (more_keys, more_sums)):
        for key, row in zip(zip(*(c.tolist() for c in cols)), rows.tolist()):
            want[key] = [a + b for a, b in
                         zip(want.get(key, [0] * N_COUNTERS), row)]
    arrays = [*keys, sums]
    _kernels.merge_sums(keys, sums, more_keys, more_sums)
    assert all(a is b for a, b in zip(arrays, [*keys, sums]))
    assert [k.dtype for k in keys] == [np.int32, np.int32, np.int64]
    assert list(zip(*(k.tolist() for k in keys))) == sorted(want)
    assert sums.tolist() == [want[key] for key in sorted(want)]


@PROPERTY
@example(0, 0, 1)
@example(_kernels._SHORT_GROUP + 1, 1, 2)
@given(st.integers(0, 3 * _kernels._SHORT_GROUP),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_group_sum_segments_match_dict_oracle_and_reduceat(size, spread,
                                                           seed):
    # groups of about size rows, from one group holding every row (spread
    # 0) to many groups on both sides of the short-group limit; the values
    # are near the int64 limits, so that most sums wrap
    rng = np.random.default_rng(seed)
    n = size * (1 + spread)
    key = rng.integers(0, spread + 1, size=n)
    info = np.iinfo(np.int64)
    values = rng.integers(info.min, info.max, size=(n, 3), endpoint=True)
    groups = ref.group_rows_ref([key], n)
    (got_key,), sums = _kernels.group_sum([key], values)
    assert got_key.tolist() == [k for k, in sorted(groups)]
    assert (sums.dtype, sums.shape) == (np.int64, (len(groups), 3))
    for group, k in enumerate(sorted(groups)):
        want = [0, 0, 0]  # Python ints, wrapped into int64 below
        for row in groups[k]:
            want = [a + int(b) for a, b in zip(want, values[row])]
        assert [(x - info.min) % 2 ** 64 + info.min for x in want] \
            == sums[group].tolist()
    order, starts = _kernels.sort_groups(key)
    want = (np.add.reduceat(values[order], starts, axis=0) if n
            else values[:0])
    assert sums.tobytes() == want.tobytes()


def test_sort_groups_orders_as_lexsort_at_the_edges_of_int64():
    # integer keys whose ranges multiply to at most 2**63 are packed into
    # one int64 column, every partial sum inside int64; wider ones, and
    # keys of another kind, are sorted by np.lexsort
    big = 2 ** 62
    cases = [
        # spans 2 and 2**62: packed, one low positive and one negative
        [np.array([big + 1, big, big + 1, big, big]),
         np.array([-big // 2, big // 2 - 1, -big // 2, 0, big // 2 - 1])],
        [np.array([-big, -big + 1, -big, -big + 1]),
         np.array([2 ** 63 - 1, 2 ** 63 - 2, 2 ** 63 - 2, 2 ** 63 - 1])],
        # spans past 2**63 together
        [np.array([0, big, 0, big]), np.array([big, 0, 0, big])],
        [np.array([2, 1, 2], np.uint32), np.array([0, 1, 0])],
        [np.array([2.0, 1.0, 2.0]), np.array([0, 1, 0])],
    ]
    for keys in cases:
        order, starts = _kernels.sort_groups(*keys)
        want = np.lexsort(keys[::-1])
        assert order.tolist() == want.tolist()
        sorted_keys = list(zip(*(key[want].tolist() for key in keys)))
        assert starts.tolist() == [i for i in range(len(want)) if not i or
                                   sorted_keys[i] != sorted_keys[i - 1]]


def test_group_sum_of_one_long_group_is_one_reduceat():
    # 100k rows in one group: summed at once, not row rank by row rank
    n = 100_000
    values = np.arange(n * 21, dtype=np.int64).reshape(n, 21)
    start = time.perf_counter()
    (key,), sums = _kernels.group_sum([np.zeros(n, np.int32)], values)
    assert time.perf_counter() - start < 2.0
    assert key.tolist() == [0]
    np.testing.assert_array_equal(sums, values.sum(axis=0, keepdims=True))


def test_risk_contribs_matches_scalar_reference(rng):
    for _ in range(5):
        m, n_fs = 80, 3
        deltas = rng.integers(0, 2000, size=(m, N_COUNTERS)).astype(
            np.float64)
        fs_idx = rng.integers(0, n_fs, size=m).astype(np.int32)
        avg = rng.uniform(0, 50, size=(n_fs, N_COUNTERS))
        avg[rng.random(avg.shape) < 0.3] = 0.0  # exercise the beta path
        md_total = rng.uniform(0, 300, size=n_fs)
        md_total[0] = 0.0  # degenerate fs
        args = (deltas, fs_idx, avg, md_total, 2.0, 0.25, 1.0)
        np.testing.assert_array_equal(_kernels.risk_contribs(*args),
                                      ref.risk_contribs_ref(*args))


def test_pipeline_matches_scalar_kernels(monkeypatch, rng):
    # one off-grid feed through the public pipeline, once per kernel set
    from iorisk.attribute import attribute_usage, fs_bin_totals
    from iorisk.metrics import compute_baselines, compute_job_metrics
    from conftest import (binned, blocks_of, feed_from_rows, risk_contribs,
                          simple_job)
    from scalar_analytics import as_table

    rows = []
    jobs = []
    for j in range(6):
        node = f"n{j}"
        start = int(rng.integers(0, 900))
        jobs.append(simple_job(f"j{j}", node, start,
                               start + int(rng.integers(500, 4000))))
        t = int(rng.integers(1, 300))
        cum = np.zeros(21, dtype=np.int64)
        for _ in range(12):
            t += int(rng.integers(60, 1000))
            cum = cum + rng.integers(0, 700, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    rows.reverse()  # unsorted feed order

    def run_pipeline():
        usage = binned(feed_from_rows(rows), 360)
        attribution = attribute_usage(blocks_of(usage), as_table(jobs))
        baselines = compute_baselines(fs_bin_totals(attribution))
        jm = compute_job_metrics(attribution.job_usage, baselines)
        return usage, attribution, jm, risk_contribs(attribution.job_usage,
                                                     baselines)

    u_vec, a_vec, m_vec, c_vec = run_pipeline()
    monkeypatch.setattr(_kernels, "deltify_pairs", ref.deltify_pairs_ref)
    monkeypatch.setattr(_kernels, "attribute_shares",
                        ref.attribute_shares_ref)
    monkeypatch.setattr(_kernels, "risk_contribs", ref.risk_contribs_ref)
    u_ref, a_ref, m_ref, c_ref = run_pipeline()

    np.testing.assert_array_equal(u_vec.deltas, u_ref.deltas)
    np.testing.assert_array_equal(u_vec.bin_start, u_ref.bin_start)
    np.testing.assert_array_equal(a_vec.job_usage.deltas,
                                  a_ref.job_usage.deltas)
    np.testing.assert_array_equal(a_vec.unattributed.deltas,
                                  a_ref.unattributed.deltas)
    np.testing.assert_array_equal(c_vec, c_ref)
    np.testing.assert_array_equal(m_vec.risk_oss, m_ref.risk_oss)


def test_round_half_even_matches_python():
    # the reference rounding, and numpy's rint that apportion relies on
    rhe = ref._round_half_even
    for x, expected in ((0.5, 0), (1.5, 2), (2.5, 2), (3.5, 4),
                        (0.49, 0), (0.51, 1), (7.0, 7), (0.0, 0)):
        assert rhe(x) == expected
        assert rhe(x) == round(x)
        assert rhe(x) == int(np.rint(x))
