from __future__ import annotations

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_kernels
from conftest import binned, blocks_of, feed_from_rows, simple_job, values_row
from iorisk import ingest
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.ingest import (AttributionConflictError, UsageTable,
                           parse_job_feed)
from iorisk.ops import COUNTER_NAMES, N_COUNTERS, READ_OPS, WRITE_KB
from scalar_analytics import as_table


def usage_from(rows, bin_width=360):
    return binned(feed_from_rows(rows), bin_width,
                           max_gap_bins=None)


def job_rows(job_usage) -> dict[tuple[str, str, int], list[int]]:
    """{(job, fs, bin): deltas} of a job usage table."""
    ju = job_usage
    return {(ju.names["job_id"][j], ju.names["fs"][f], b): d
            for j, f, b, d in zip(ju.codes["job_id"], ju.codes["fs"],
                                  ju.bin_start.tolist(), ju.deltas.tolist())}


def test_full_bin_inside_job_interval_fully_attributed():
    usage = usage_from([
        [360, "n1", "fs2"] + values_row(read_ops=0),
        [720, "n1", "fs2"] + values_row(read_ops=100)])
    job = simple_job("j1", "n1", start=360, end=1080)
    res = attribute_usage(blocks_of(usage), as_table([job]))
    assert len(res.job_usage) == 1
    rows = job_rows(res.job_usage)
    assert list(rows) == [("j1", "fs2", 360)]
    assert rows["j1", "fs2", 360][READ_OPS] == 100
    assert len(res.unattributed) == 0


def test_half_covered_bin_split_with_residue():
    # job covers (360, 540) of bin (360,720]: fraction 1/2 of delta 101.
    # round-half-even gives 50 to the job; the +1 residue lands on the
    # unattributed remainder (last claimant) -> 51.
    usage = usage_from([
        [360, "n1", "fs2"] + values_row(read_ops=0),
        [720, "n1", "fs2"] + values_row(read_ops=101)])
    job = simple_job("j1", "n1", start=180, end=540)
    res = attribute_usage(blocks_of(usage), as_table([job]))
    assert res.job_usage.deltas[0, READ_OPS] == 50
    assert int(res.unattributed.deltas[0, READ_OPS]) == 51


def test_unowned_bin_goes_to_unattributed_ledger():
    usage = usage_from([
        [360, "n1", "fs2"] + values_row(write_kb=0),
        [720, "n1", "fs2"] + values_row(write_kb=77)])
    res = attribute_usage(blocks_of(usage),
                          as_table([simple_job("j1", "n9", 0, 360)]))
    assert len(res.job_usage) == 0
    assert len(res.unattributed) == 1
    assert int(res.unattributed.deltas[0, WRITE_KB]) == 77


def test_conflicting_jobs_rejected_with_both_ids():
    jobs = [simple_job("j1", "n1", 0, 1000),
            simple_job("j2", "n1", 500, 1500)]
    with pytest.raises(AttributionConflictError) as exc:
        as_table(jobs)
    assert set(exc.value.job_ids) == {"j1", "j2"}
    with pytest.raises(AttributionConflictError):
        parse_job_feed(io.StringIO(
            "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"
            "j1,p,cmd,n1,0,1000,24\nj2,p,cmd,n1,500,1500,24\n"))


def test_back_to_back_jobs_do_not_conflict():
    jobs = [simple_job("j1", "n1", 0, 720),
            simple_job("j2", "n1", 720, 1440)]
    as_table(jobs)


def test_sequential_jobs_split_one_bin():
    # j1 holds (360, 540), j2 holds (540, 720): each gets half of 100
    usage = usage_from([
        [360, "n1", "fs2"] + values_row(getattr=0),
        [720, "n1", "fs2"] + values_row(getattr=100)])
    jobs = [simple_job("j1", "n1", 0, 540),
            simple_job("j2", "n1", 540, 1440)]
    res = attribute_usage(blocks_of(usage), as_table(jobs))
    got = {job: d[COUNTER_NAMES.index("getattr")]
           for (job, _, _), d in job_rows(res.job_usage).items()}
    assert got == {"j1": 50, "j2": 50}
    assert len(res.unattributed) == 0


def _brute_force_attribution(usage, jobs, w):
    """Independent oracle: per usage row, overlap fractions by scanning all
    jobs; shares via python round() (half-even) with residue to the last
    claimant."""
    attributed = {}
    unattributed = {}
    for node_i, fs_i, bin_start, deltas in zip(
            usage.codes["node"], usage.codes["fs"], usage.bin_start.tolist(),
            usage.deltas.tolist()):
        node_id, fs_id = usage.names["node"][node_i], usage.names["fs"][fs_i]
        claimants = []
        for job in jobs:
            if node_id not in job.nodes:
                continue
            ov = min(job.end_ts, bin_start + w) - max(job.start_ts,
                                                      bin_start)
            if ov > 0:
                claimants.append((job.start_ts, job.job_id, ov))
        claimants.sort()
        covered = sum(ov for _, _, ov in claimants)
        parts = [(job_id, ov) for _, job_id, ov in claimants]
        if covered < w:
            parts.append((None, w - covered))
        for c in range(N_COUNTERS):
            d = deltas[c]
            shares = [round(d * ov / w) for _, ov in parts]
            shares[-1] += d - sum(shares)
            i = len(shares) - 1
            while shares[i] < 0:
                shares[i - 1] += shares[i]
                shares[i] = 0
                i -= 1
            for (job_id, _), s in zip(parts, shares):
                if job_id is None:
                    key = (fs_id, bin_start)
                    unattributed.setdefault(key, [0] * N_COUNTERS)[c] += s
                else:
                    key = (job_id, fs_id, bin_start)
                    attributed.setdefault(key, [0] * N_COUNTERS)[c] += s
    return attributed, unattributed


def test_randomized_conservation_and_oracle_equality(rng):
    # DERIVED oracle: attributed + unattributed must equal input deltas
    # exactly, and shares must match the brute-force reimplementation.
    w = 360
    for trial in range(5):
        n_nodes, n_jobs = 40, 20
        rows = []
        for node in range(n_nodes):
            t = int(rng.integers(1, 720))
            cum = np.zeros(21, dtype=np.int64)
            for _ in range(12):
                t += int(rng.integers(60, 720))
                cum = cum + rng.integers(0, 300, size=21)
                for fs in ("fs2", "fs3"):
                    rows.append([t, f"n{node:02d}", fs] + cum.tolist())
        usage = usage_from(rows)

        jobs = []
        for j in range(n_jobs):
            node_set = {f"n{int(i):02d}"
                        for i in rng.choice(n_nodes, size=2, replace=False)}
            start = int(rng.integers(0, 4000))
            jobs.append(simple_job(f"job{j:02d}", start=start,
                                   end=start + int(rng.integers(200, 3000)),
                                   nodes=node_set))
        try:
            as_table(jobs)
        except AttributionConflictError:
            # overlapping random intervals: drop later conflicting jobs
            kept = []
            busy = {}
            for job in jobs:
                if all(not (job.start_ts < e and s < job.end_ts)
                       for n in job.nodes
                       for s, e in busy.get(n, [])):
                    kept.append(job)
                    for n in job.nodes:
                        busy.setdefault(n, []).append(
                            (job.start_ts, job.end_ts))
            jobs = kept

        res = attribute_usage(blocks_of(usage), as_table(jobs))

        # exact conservation per (fs, counter)
        total_in = usage.deltas.sum(axis=0)
        total_out = (res.job_usage.deltas.sum(axis=0)
                     + res.unattributed.deltas.sum(axis=0))
        np.testing.assert_array_equal(total_in, total_out)

        # oracle equality
        want_attr, want_un = _brute_force_attribution(usage, jobs, w)
        got_attr = job_rows(res.job_usage)
        want_attr = {k: v for k, v in want_attr.items() if any(v)}
        got_attr = {k: v for k, v in got_attr.items() if any(v)}
        assert got_attr == want_attr
        got_un = {}
        un = res.unattributed
        for i in range(len(un)):
            key = (un.names["fs"][un.codes["fs"][i]], int(un.bin_start[i]))
            got_un[key] = un.deltas[i].tolist()
        want_un = {k: v for k, v in want_un.items() if any(v)}
        got_un = {k: v for k, v in got_un.items() if any(v)}
        assert got_un == want_un


def test_deterministic_under_input_shuffle(rng):
    rows = []
    for node in ("a", "b", "c"):
        t = 100
        cum = np.zeros(21, dtype=np.int64)
        for _ in range(6):
            t += 360
            cum = cum + rng.integers(0, 100, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    jobs = [simple_job("j1", "a", 0, 1200),
            simple_job("j2", "b", 360, 2000),
            simple_job("j3", "c", 100, 900)]
    base = attribute_usage(blocks_of(usage_from(rows)), as_table(jobs))
    for trial in range(3):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        res = attribute_usage(blocks_of(usage_from(shuffled)),
                              as_table(list(reversed(jobs))))
        assert job_rows(res.job_usage) == job_rows(base.job_usage)


def test_fs_bin_totals_sums_nodes():
    usage = usage_from([
        [400, "n1", "fs2"] + values_row(read_ops=0),
        [700, "n1", "fs2"] + values_row(read_ops=10),
        [400, "n2", "fs2"] + values_row(read_ops=0),
        [700, "n2", "fs2"] + values_row(read_ops=32)])
    job = simple_job("j1", "n1", start=450, end=600)
    totals = fs_bin_totals(attribute_usage(blocks_of(usage), as_table([job])))
    assert len(totals) == 1
    assert int(totals.deltas[0, READ_OPS]) == 42


def _usage(keys, deltas, n_nodes, n_fs, w):
    """A UsageTable of (node, fs, bin) keys, sorted as ingest sorts them."""
    node, fs, b = np.asarray(keys, np.int64).reshape(-1, 3).T
    order = np.lexsort((b, fs, node))
    return UsageTable({"node": node[order].astype(np.int32),
                       "fs": fs[order].astype(np.int32)},
                      {"node": tuple(f"n{i}" for i in range(n_nodes)),
                       "fs": tuple(f"fs{i}" for i in range(n_fs))},
                      b[order] * w,
                      np.asarray(deltas, np.int64).reshape(-1, N_COUNTERS)[
                          order], w)


@st.composite
def attribution_feeds(draw):
    """Node usage over a few bins, where one bin holds up to ten rows, and
    jobs holding their nodes exclusively: edges off the bin grid, nodes
    that no job holds, jobs on nodes with no usage, no jobs at all, zero
    usage rows and all-zero delta rows."""
    w = draw(st.sampled_from([60, 360]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_nodes, n_fs = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    n_bins = draw(st.integers(1, 5))
    present = rng.random((n_nodes, n_fs, n_bins)) < draw(
        st.sampled_from([0.6, 1.0, 0.0]))
    keys = list(zip(*np.nonzero(present)))
    deltas = rng.integers(0, draw(st.sampled_from([3, 1000, 2 ** 40])),
                          size=(len(keys), N_COUNTERS))
    deltas[rng.random(len(keys)) < 0.2] = 0
    jobs, held = [], {}
    for k in range(draw(st.integers(0, 6))):
        # node n{n_nodes} has no usage
        nodes = {f"n{i}" for i in rng.choice(
            n_nodes + 1, size=int(rng.integers(1, 3)), replace=False)}
        start = int(rng.integers(-w, (n_bins + 1) * w))
        end = start + int(draw(st.sampled_from([1, w // 2, w, 3 * w])))
        if all(end <= s or e <= start for node in nodes
               for s, e in held.get(node, [])):
            jobs.append(simple_job(f"j{k}", start=start, end=end,
                                   nodes=nodes))
            for node in nodes:
                held.setdefault(node, []).append((start, end))
    return _usage(keys, deltas, n_nodes, n_fs, w), jobs


def _attribution_oracle(usage, jobs):
    """(job rows, unattributed rows, fs totals) as dicts keyed (job, fs,
    bin), (fs, bin) and (fs, bin), the claimant rows from the scalar loop
    of scalar_kernels and summed one by one."""
    # each usage node's jobs, by start: the CSR the loop reads
    held = [sorted((job.start_ts, job.end_ts, j) for j, job in
                   enumerate(jobs) if name in job.nodes)
            for name in usage.names["node"]]
    node_ptr = np.cumsum([0] + [len(h) for h in held])
    start, end, job_of = (np.array([t[c] for h in held for t in h],
                                   np.int64) for c in range(3))
    claims = scalar_kernels.attribute_rows_ref(
        usage.codes["node"], usage.codes["fs"], usage.bin_start,
        usage.deltas, usage.bin_width, node_ptr, start, end,
        job_of.astype(np.int32))
    job_rows, free_rows, totals = {}, {}, {}

    def add(table, key, row):
        table[key] = [a + b for a, b in
                      zip(table.get(key, [0] * N_COUNTERS), row)]

    for j, f, b, row in zip(*(c.tolist() for c in claims)):
        if j < 0:
            add(free_rows, (f, b), row)
        else:
            add(job_rows, (j, f, b), row)
    for f, b, row in zip(usage.codes["fs"].tolist(), usage.bin_start.tolist(),
                         usage.deltas.tolist()):
        add(totals, (f, b), row)
    return job_rows, free_rows, totals


def _assert_table(got_cols, want, dtypes):
    """The key columns and deltas of a table equal the sorted dict."""
    keys = sorted(want)
    for col, dtype, want_col in zip(got_cols, dtypes, zip(*keys) if keys
                                    else [()] * len(dtypes)):
        assert col.dtype == dtype
        assert col.tolist() == list(want_col)
    deltas = got_cols[-1]
    assert (deltas.dtype, deltas.shape) == (np.int64, (len(keys), N_COUNTERS))
    assert deltas.tolist() == [want[k] for k in keys]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@example((_usage([], [], 2, 1, 360), [simple_job("j0", "n0", 0, 500)]))
@example((_usage([(0, 0, 1), (1, 0, 1), (1, 0, 2)], np.ones((3, 21)),
                 2, 1, 360), []))
@given(attribution_feeds())
def test_block_attribution_matches_scalar_loop_and_dict_oracle(case):
    # node usage in blocks of whole streams of about 1, 2, 3 and the
    # default budget's rows: each block's sums merged into the result
    usage, jobs = case
    job_rows, free_rows, totals = _attribution_oracle(usage, jobs)
    for budget in (1, 2, 3, ingest._PARSE_CHUNK):
        with mock.patch.object(ingest, "_PARSE_CHUNK", budget):
            res = attribute_usage(blocks_of(usage), as_table(jobs))
            fs_totals = fs_bin_totals(res)
        ju, un = res.job_usage, res.unattributed
        _assert_table((ju.codes["job_id"], ju.codes["fs"], ju.bin_start,
                       ju.deltas),
                      job_rows, (np.int32, np.int32, np.int64))
        _assert_table((un.codes["fs"], un.bin_start, un.deltas), free_rows,
                      (np.int32, np.int64))
        # conservation, exact per (fs, bin): jobs + unattributed = usage
        _assert_table((fs_totals.codes["fs"], fs_totals.bin_start,
                       fs_totals.deltas), totals, (np.int32, np.int64))


@st.composite
def fs_total_feeds(draw):
    """Node usage on two or three filesystems, node n0 in every bin of each
    and held by no job, and either no jobs or jobs holding the other nodes
    one after another, every job edge inside a bin."""
    w = draw(st.sampled_from([60, 360]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_nodes, n_fs = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    n_bins = draw(st.integers(1, 5))
    present = rng.random((n_nodes, n_fs, n_bins)) < 0.7
    present[0] = True
    keys = list(zip(*np.nonzero(present)))
    deltas = rng.integers(0, 2 ** 40, size=(len(keys), N_COUNTERS))
    jobs = []
    for node in range(1, n_nodes) if draw(st.booleans()) else ():
        t = int(rng.integers(-w, n_bins * w))
        while t < (n_bins + 1) * w:
            t += t % w == 0  # edges off the bin grid
            end = t + int(rng.integers(1, 3 * w))
            end += end % w == 0
            jobs.append(simple_job(f"j{len(jobs)}", f"n{node}", t, end))
            t = end + int(rng.integers(0, w))
    return _usage(keys, deltas, n_nodes, n_fs, w), jobs


# a bin index whose bin starts past 2**62 at w = 60: with bins near 0 on
# two filesystems, the (fs, bin) keys' ranges multiply past 2**63, so they
# do not pack into one int64 column (see _kernels._packed)
_FAR = 2 ** 62 // 60 + 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example((_usage([(n, f, b) for n in range(2) for f in range(2)
                  for b in (0, 1, _FAR - 1, _FAR)],
                 np.arange(16 * N_COUNTERS), 2, 2, 60),
          [simple_job("j0", "n1", 30, 90),
           simple_job("j1", "n1", 60 * _FAR - 30, 60 * _FAR + 30)]))
@given(fs_total_feeds())
def test_fs_totals_of_an_attribution_are_the_node_usage_sums(case):
    # the totals are summed in slices of 1 row and of the default budget's,
    # each slice's sums merged into them
    usage, jobs = case
    want = {}
    for f, b, row in zip(usage.codes["fs"].tolist(), usage.bin_start.tolist(),
                         usage.deltas.tolist()):
        want[f, b] = [a + d for a, d in
                      zip(want.get((f, b), [0] * N_COUNTERS), row)]
    for budget in (1, ingest._PARSE_CHUNK):
        with mock.patch.object(ingest, "_PARSE_CHUNK", budget):
            totals = fs_bin_totals(attribute_usage(blocks_of(usage),
                                                   as_table(jobs)))
        assert (totals.names["fs"], totals.bin_width) == (usage.names["fs"],
                                                          usage.bin_width)
        _assert_table((totals.codes["fs"], totals.bin_start, totals.deltas),
                      want, (np.int32, np.int64))


def _busy_nodes(n_bins, w=360, n_nodes=64):
    """Node usage of n_nodes nodes in every bin, and groups of eight nodes
    each running one job after another, edges off the bin grid."""
    rng = np.random.default_rng(3)
    keys = [(n, 0, b) for n in range(n_nodes) for b in range(n_bins)]
    usage = _usage(keys, rng.integers(0, 1000, size=(len(keys), N_COUNTERS)),
                   n_nodes, 1, w)
    jobs = []
    for g in range(n_nodes // 8):
        nodes = {f"n{8 * g + i}" for i in range(8)}
        t = int(rng.integers(1, w))
        while t < n_bins * w:
            end = t + int(rng.integers(w // 2, 20 * w))
            jobs.append(simple_job(f"j{len(jobs)}", start=t, end=end,
                                   nodes=nodes))
            t = end + int(rng.integers(0, w))
    return usage, as_table(jobs)


def _traced_peak(fn):
    """(result, traced peak) of fn()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _nbytes(*tables) -> int:
    """The bytes of the tables' array columns."""
    return sum(col.nbytes for t in tables for col in vars(t).values()
               if isinstance(col, np.ndarray))


@pytest.mark.parametrize("stage", ["attribute_usage", "fs_bin_totals"])
def test_attribution_memory_beyond_its_tables_is_a_few_block_tables(
        monkeypatch, stage):
    # attribute_usage takes the node usage a block at a time (views of one
    # table here, so the blocks cost nothing traced) and holds, beyond the
    # tables it returns, the jobs' slots and end points, one block's
    # claimant rows and their sums, and in a merge each result row's keys
    # packed. The result grows in place, so it is never held twice.
    # Nothing else grows with the bins; a block's sums do, a little, as
    # longer streams put fewer nodes of a job in one block. The rest reads
    # 2.1 block tables at 128 bins and 2.6 at 512. The bin-slice version
    # allowed two slice tables beyond its tables and four int64 columns
    # over the usage rows; that allowance at 128 bins, kept fixed, bounds
    # the rest at both sizes.
    # fs_bin_totals reads the attribution's tables only, a slice of rows at
    # a time, and holds beyond the totals it returns one slice's sort
    # indices and sums and a merge's copies of them, never a copy of the
    # tables' deltas. The slice's sums grow with the (fs, bin) groups it
    # meets, up to its rows: the rest reads 0.29 of the tables' bytes at
    # 128 bins and 0.35 at 512 (0.22 and 0.20 when the tables were summed
    # whole, their key columns and sort indices held), under half.
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    table = ingest._PARSE_CHUNK * (3 * 8 + 8 * N_COUNTERS)
    rest = {}
    for n_bins in (128, 512):
        usage, jobs = _busy_nodes(n_bins)
        assert len(usage) >= 8 * ingest._PARSE_CHUNK
        if n_bins == 128:
            bound = 2 * table + 8 * 4 * len(usage)
        blocks = blocks_of(usage)
        if stage == "attribute_usage":
            res, peak = _traced_peak(lambda: attribute_usage(blocks, jobs))
            rest[n_bins] = peak - _nbytes(res.job_usage, res.unattributed)
            assert rest[n_bins] < bound, rest[n_bins] / table
        else:
            attribution = attribute_usage(blocks, jobs)
            read = _nbytes(attribution.job_usage, attribution.unattributed)
            res, peak = _traced_peak(lambda: fs_bin_totals(attribution))
            beyond = peak - _nbytes(res)
            assert beyond < read / 2, beyond / read
    if stage == "attribute_usage":
        assert rest[512] < rest[128] + table, (rest[512] - rest[128]) / table
