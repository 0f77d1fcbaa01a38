from __future__ import annotations

import numpy as np
import pytest

from conftest import binned, blocks_of, feed_from_rows, simple_job, values_row
import scalar_analytics
from iorisk.analytics import (build_scatter, detect_slowdown, job_measures,
                              summarize_jobs)
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.config import Config
from iorisk.metrics import (JobMetrics, compute_baselines,
                            compute_job_metrics)
from iorisk.ops import READ_KB, READ_OPS
from scalar_analytics import as_table, runtime_bin_count

W = 360


# --- grouping ---------------------------------------------------------------


def _slowdown(jobs, factor=1.5, min_group=3):
    """detect_slowdown on JobRecords -> (flagged ids, group means, ratios)."""
    table = as_table(jobs)
    rows, means = detect_slowdown(table, factor, min_group)
    return ([table.job_ids[r] for r in rows], means.tolist(),
            (table.runtime_s[rows] / means).tolist())


def test_same_command_one_group():
    jobs = [simple_job("a", command="solver -n 8", start=0, end=100),
            simple_job("b", command="solver -n 8", start=200, end=400,
                       node="n2")]
    # one group of two: mean 150, and 200 >= 1.2 * 150
    assert _slowdown(jobs, 1.2, 2)[:2] == (["b"], [150.0])


def test_command_differing_by_flag_splits_groups():
    jobs = [simple_job("a", command="solver -n 8", end=100),
            simple_job("b", command="solver -n 16", end=400, node="n2")]
    # one group would flag b; two groups of one are below min_group
    assert _slowdown(jobs, 1.2, 2)[0] == []


def test_grouping_is_partition_matching_oracle(rng):
    # DERIVED: 300 jobs vs the record-by-record grouping and slowdown
    commands = [f"app{k} --mode {k % 5}" for k in range(40)]
    jobs = []
    for i in range(300):
        cmd = commands[int(rng.integers(0, len(commands)))]
        start = int(rng.integers(0, 10000))
        jobs.append(simple_job(f"j{i:03d}", command=cmd, start=start,
                               end=start + int(rng.integers(10, 5000)),
                               node=f"n{i}"))
    for factor, min_group in ((1.1, 2), (1.5, 3), (2.5, 8)):
        want = scalar_analytics.detect_slowdown(
            scalar_analytics.group_applications(jobs), factor, min_group)
        ids, means, ratios = _slowdown(jobs, factor, min_group)
        assert ids == [f.job_id for f in want]
        assert means == [f.group_mean_s for f in want]
        assert ratios == [f.ratio for f in want]
        assert want or factor == 2.5


# --- slowdown ---------------------------------------------------------------


def _group_jobs(runtimes, command="cmd"):
    return [simple_job(f"r{i}", command=command, start=0, end=rt,
                       node=f"n{i}")
            for i, rt in enumerate(runtimes)]


def test_slowdown_160_of_mean_120_is_not_flagged():
    # mean 120 -> threshold 180 at factor 1.5: 160 stays unflagged
    assert _slowdown(_group_jobs([100, 100, 160]))[0] == []


def test_slowdown_400_of_mean_200_is_flagged():
    ids, means, ratios = _slowdown(_group_jobs([100, 100, 400]))
    assert ids == ["r2"]
    assert means == [pytest.approx(200.0)]
    assert ratios == [pytest.approx(2.0)]


def test_equal_runtimes_no_findings():
    assert _slowdown(_group_jobs([500] * 6))[0] == []


def test_small_groups_skipped():
    jobs = _group_jobs([100, 400])
    assert _slowdown(jobs, 1.5, min_group=3)[0] == []
    assert _slowdown(jobs, 1.5, min_group=2)[0] == ["r1"]


def test_threshold_boundary_inclusive():
    # mean of {100, 100, 100, 180} is 120; 180 == 1.5 * 120 exactly
    assert _slowdown(_group_jobs([100, 100, 100, 180]))[0] == ["r3"]


def test_findings_invariant_under_uniform_runtime_scaling():
    base = [110, 95, 100, 240, 105]
    for scale in (1, 3, 60):
        ids, _, ratios = _slowdown(_group_jobs([r * scale for r in base]))
        assert ids == ["r3"]
        assert ratios == [pytest.approx(240 / 130)]


def test_slowdown_parameter_validation():
    jobs = as_table(_group_jobs([100, 100, 100]))
    with pytest.raises(ValueError):
        detect_slowdown(jobs, factor=1.0)
    with pytest.raises(ValueError):
        detect_slowdown(jobs, factor=1.5, min_group=1)


# --- scatter ----------------------------------------------------------------


def _metrics_for(jobs, rows, params=Config()):
    usage = binned(feed_from_rows(rows), W)
    attribution = attribute_usage(blocks_of(usage), as_table(jobs))
    baselines = compute_baselines(fs_bin_totals(attribution))
    jm = compute_job_metrics(attribution.job_usage, baselines, params)
    return jm


def _scatter(jobs, jm, min_total_risk):
    """build_scatter on JobRecords -> {job id: (oss, mds, quality)}, in
    the order of its rows."""
    table = as_table(jobs)
    rows, averages = build_scatter(table, jm, min_total_risk)
    return {table.job_ids[r]: tuple(a) for r, a in
            zip(rows.tolist(), averages.tolist())}


def test_runtime_bin_count():
    # one job-bin row of risk 1: the average divides by the bins spanned
    for start, end, n_bins in ((0, 360, 1), (0, 361, 2), (100, 300, 1),
                               (350, 370, 2)):
        table = as_table([simple_job(start=start, end=end)])
        jm = JobMetrics(
            job_idx=np.zeros(1, np.int32), fs_idx=np.zeros(1, np.int32),
            bin_start=np.zeros(1, np.int64), risk_oss=np.ones(1), risk_mds=np.zeros(1),
            read_kb_ops=np.zeros(1), write_kb_ops=np.zeros(1),
            has_io=np.zeros(1, bool), job_ids=table.job_ids,
            filesystems=("fs2",), bin_width=W)
        _, averages = build_scatter(table, jm, 1e-9)
        assert averages.tolist() == [[1 / n_bins, 0.0, 0.0]]


def test_scatter_threshold_inclusive_and_exclusive(rng):
    # two jobs on separate nodes; one hammers the fs for 3 bins, one is
    # tiny; a long quiet tail keeps the baseline average low
    rows = [[W, "n1", "fs2"] + values_row(),
            [W, "n2", "fs2"] + values_row()]
    c1 = c2 = 0
    for k in range(30):
        t = (k + 2) * W
        c1 += 10000 if k < 3 else 0
        c2 += 10
        rows.append([t, "n1", "fs2"] + values_row(mkdir=c1))
        rows.append([t, "n2", "fs2"] + values_row(mkdir=c2))
    jobs = [simple_job("big", "n1", start=W, end=4 * W),
            simple_job("small", "n2", start=W, end=32 * W)]
    jm = _metrics_for(jobs, rows)
    points = _scatter(jobs, jm, min_total_risk=1.0)
    assert "big" in points and "small" not in points
    # boundary inclusion: threshold exactly at the big job's average
    exact = points["big"][0] + points["big"][1]
    assert list(_scatter(jobs, jm, exact)) == ["big"]
    assert _scatter(jobs, jm, exact + 1e-9) == {}


def test_scatter_matches_brute_force_filter_oracle(rng):
    # DERIVED: 100 jobs; recompute averages and the filter by brute force
    rows = []
    jobs = []
    n_jobs = 100
    for j in range(n_jobs):
        node = f"n{j:03d}"
        start_bin = int(rng.integers(1, 4))
        n_bins = int(rng.integers(1, 10))
        jobs.append(simple_job(f"j{j:03d}", node, start_bin * W,
                               (start_bin + n_bins) * W))
        t = W
        cum = np.zeros(21, dtype=np.int64)
        rows.append([t, node, "fs2"] + cum.tolist())
        for k in range(16):
            t += W
            cum = cum + rng.integers(0, 300, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    jm = _metrics_for(jobs, rows)
    threshold = 15.0
    points = _scatter(jobs, jm, threshold)

    # oracle: per job, sum risk over rows, divide by runtime bins
    sums: dict[str, list[float]] = {j.job_id: [0.0, 0.0] for j in jobs}
    for i in range(len(jm)):
        jid = jm.job_ids[jm.job_idx[i]]
        sums[jid][0] += float(jm.risk_oss[i])
        sums[jid][1] += float(jm.risk_mds[i])
    want = set()
    for j in jobs:
        nb = runtime_bin_count(j, W)
        if (sums[j.job_id][0] + sums[j.job_id][1]) / nb >= threshold:
            want.add(j.job_id)
    assert set(points) == want
    for job_id, (avg_oss, _, _) in points.items():
        nb = runtime_bin_count(next(x for x in jobs
                                    if x.job_id == job_id), W)
        assert avg_oss == pytest.approx(sums[job_id][0] / nb, abs=1e-9)


def test_scatter_quality_excludes_idle_bins(rng):
    # one job, activity in 2 of its 4 bins
    rows = [[W, "n1", "fs2"] + values_row()]
    cum_ops, cum_kb = 0, 0
    for k in range(4):
        t = (k + 2) * W
        if k < 2:
            cum_ops += 1024
            cum_kb += 1024 * 1024
        rows.append([t, "n1", "fs2"]
                    + values_row(read_ops=cum_ops, read_kb=cum_kb))
    jobs = [simple_job("j1", "n1", start=W, end=6 * W)]
    jm = _metrics_for(jobs, rows)
    points = _scatter(jobs, jm, min_total_risk=0.0)
    # both active bins have quality exactly 1.0; idle bins are excluded
    assert points["j1"][2] == pytest.approx(1.0)


# --- summaries --------------------------------------------------------------


def test_core_h_arithmetic():
    job = simple_job("j1", "n1", start=0, end=12 * 3600, cores=24)
    rows = [[W, "n1", "fs2"] + values_row()]
    usage = binned(feed_from_rows(rows), W)
    table = as_table([job])
    res = attribute_usage(blocks_of(usage), table)
    assert summarize_jobs(table, res.job_usage).tolist() == [[0, 0, 0, 0]]
    assert table.core_s.tolist() == [288 * 3600]


def test_read_gib_unit_identity():
    rows = [[W, "n1", "fs2"] + values_row(),
            [2 * W, "n1", "fs2"] + values_row(read_kb=2 ** 20)]
    job = simple_job("j1", "n1", start=W, end=2 * W)
    usage = binned(feed_from_rows(rows), W)
    table = as_table([job])
    totals = summarize_jobs(
        table, attribute_usage(blocks_of(usage), table).job_usage)
    # read_gib, write_gib, mean_read_ops_s, mean_write_ops_s
    assert job_measures(table, totals).tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_job_read_totals_plus_unattributed_equal_fs_total(rng):
    # jobs cover only part of the node-bins: the rest must show up in the
    # unattributed ledger so fs totals balance
    rows = []
    jobs = []
    for j in range(8):
        node = f"n{j:02d}"
        if j < 5:  # three nodes never belong to any job
            jobs.append(simple_job(f"j{j:02d}", node, start=W,
                                   end=W + int(rng.integers(2, 7)) * W))
        t = W
        cum = np.zeros(21, dtype=np.int64)
        rows.append([t, node, "fs2"] + cum.tolist())
        for k in range(9):
            t += W
            cum = cum + rng.integers(0, 400, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    usage = binned(feed_from_rows(rows), W)
    table = as_table(jobs)
    res = attribute_usage(blocks_of(usage), table)
    totals = summarize_jobs(table, res.job_usage)
    job_read_kb = int(totals[:, 0].sum())
    unattributed_read_kb = int(res.unattributed.deltas[:, READ_KB].sum())
    fs_total = int(usage.deltas[:, READ_KB].sum())
    assert job_read_kb + unattributed_read_kb == fs_total


def test_summaries_conserve_attribution_totals(rng):
    rows = []
    jobs = []
    for j in range(12):
        node = f"n{j:02d}"
        jobs.append(simple_job(f"j{j:02d}", node, start=W,
                               end=W + int(rng.integers(2, 9)) * W))
        t = W
        cum = np.zeros(21, dtype=np.int64)
        rows.append([t, node, "fs2"] + cum.tolist())
        for k in range(10):
            t += W
            cum = cum + rng.integers(0, 500, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    usage = binned(feed_from_rows(rows), W)
    table = as_table(jobs)
    res = attribute_usage(blocks_of(usage), table)
    totals = summarize_jobs(table, res.job_usage)
    measures = job_measures(table, totals)
    total_read_kb = measures[:, 0].sum() * 2 ** 20
    want = res.job_usage.deltas[:, READ_KB].sum()
    assert total_read_kb == pytest.approx(float(want), rel=1e-12)
    assert totals[:, 1].sum() == \
        res.job_usage.deltas[:, READ_OPS].sum()
    assert all(mean == pytest.approx(ops / (j.end_ts - j.start_ts),
                                     abs=1e-12)
               for mean, ops, j in zip(measures[:, 2], totals[:, 1], jobs))
