from __future__ import annotations

import numpy as np
import pytest

from conftest import feed_from_rows, simple_job, values_row
from iorisk.analytics import (build_scatter, detect_slowdown,
                              group_applications, runtime_bin_count,
                              summarize_jobs)
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.config import Config
from iorisk.ingest import deltify_and_bin
from iorisk.metrics import (compute_baselines,
                            compute_job_metrics)
from iorisk.ops import OpKind

W = 360


# --- grouping ---------------------------------------------------------------


def test_same_command_one_group():
    jobs = [simple_job("a", command="solver -n 8", start=0, end=100),
            simple_job("b", command="solver -n 8", start=200, end=400,
                       node="n2")]
    groups = group_applications(jobs)
    assert len(groups) == 1
    assert groups[0].run_ids == ("a", "b")
    assert groups[0].mean_runtime == pytest.approx(150.0)


def test_command_differing_by_flag_splits_groups():
    jobs = [simple_job("a", command="solver -n 8", end=100),
            simple_job("b", command="solver -n 16", end=100, node="n2")]
    assert len(group_applications(jobs)) == 2


def test_grouping_is_partition_matching_oracle(rng):
    # DERIVED: 300 jobs vs a brute-force map-by-command partition
    commands = [f"app{k} --mode {k % 5}" for k in range(40)]
    jobs = []
    for i in range(300):
        cmd = commands[int(rng.integers(0, len(commands)))]
        start = int(rng.integers(0, 10000))
        jobs.append(simple_job(f"j{i:03d}", command=cmd, start=start,
                               end=start + int(rng.integers(10, 5000))))
    groups = group_applications(jobs)
    want: dict[str, list] = {}
    for j in jobs:
        want.setdefault(j.command, []).append(j.job_id)
    assert {g.command: list(g.run_ids) for g in groups} == want
    all_ids = [jid for g in groups for jid in g.run_ids]
    assert sorted(all_ids) == sorted(j.job_id for j in jobs)
    assert len(all_ids) == len(set(all_ids))
    for g in groups:
        assert g.mean_runtime == pytest.approx(
            sum(g.runtimes) / len(g.runtimes))


# --- slowdown ---------------------------------------------------------------


def _group_jobs(runtimes, command="cmd"):
    return [simple_job(f"r{i}", command=command, start=0, end=rt,
                       node=f"n{i}")
            for i, rt in enumerate(runtimes)]


def test_slowdown_160_of_mean_120_is_not_flagged():
    # mean 120 -> threshold 180 at factor 1.5: 160 stays unflagged
    groups = group_applications(_group_jobs([100, 100, 160]))
    assert detect_slowdown(groups, 1.5, 3) == []


def test_slowdown_400_of_mean_200_is_flagged():
    groups = group_applications(_group_jobs([100, 100, 400]))
    findings = detect_slowdown(groups, 1.5, 3)
    assert len(findings) == 1
    f = findings[0]
    assert f.job_id == "r2"
    assert f.group_mean_s == pytest.approx(200.0)
    assert f.ratio == pytest.approx(2.0)


def test_equal_runtimes_no_findings():
    groups = group_applications(_group_jobs([500] * 6))
    assert detect_slowdown(groups, 1.5, 3) == []


def test_small_groups_skipped():
    groups = group_applications(_group_jobs([100, 400]))
    assert detect_slowdown(groups, 1.5, min_group=3) == []
    findings = detect_slowdown(groups, 1.5, min_group=2)
    assert [f.job_id for f in findings] == ["r1"]


def test_threshold_boundary_inclusive():
    # mean of {100, 100, 100, 180} is 120; 180 == 1.5 * 120 exactly
    groups = group_applications(_group_jobs([100, 100, 100, 180]))
    findings = detect_slowdown(groups, 1.5, 3)
    assert [f.job_id for f in findings] == ["r3"]


def test_findings_invariant_under_uniform_runtime_scaling():
    base = [110, 95, 100, 240, 105]
    for scale in (1, 3, 60):
        groups = group_applications(_group_jobs([r * scale for r in base]))
        findings = detect_slowdown(groups, 1.5, 3)
        assert [f.job_id for f in findings] == ["r3"]
        assert findings[0].ratio == pytest.approx(240 / 130)


def test_slowdown_parameter_validation():
    groups = group_applications(_group_jobs([100, 100, 100]))
    with pytest.raises(ValueError):
        detect_slowdown(groups, factor=1.0)
    with pytest.raises(ValueError):
        detect_slowdown(groups, factor=1.5, min_group=1)


# --- scatter ----------------------------------------------------------------


def _metrics_for(jobs, rows, params=Config()):
    usage = deltify_and_bin(feed_from_rows(rows), W)
    attribution = attribute_usage(usage, jobs)
    baselines = compute_baselines(fs_bin_totals(usage))
    jm = compute_job_metrics(attribution.job_usage, baselines, params)
    return jm


def test_runtime_bin_count():
    assert runtime_bin_count(simple_job(start=0, end=360), W) == 1
    assert runtime_bin_count(simple_job(start=0, end=361), W) == 2
    assert runtime_bin_count(simple_job(start=100, end=300), W) == 1
    assert runtime_bin_count(simple_job(start=350, end=370), W) == 2


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
    points = build_scatter(jobs, jm, min_total_risk=1.0)
    ids = [p.job_id for p in points]
    assert "big" in ids and "small" not in ids
    # boundary inclusion: threshold exactly at the big job's average
    big = next(p for p in points if p.job_id == "big")
    exact = big.avg_risk_oss + big.avg_risk_mds
    assert [p.job_id for p in build_scatter(jobs, jm, exact)] == ["big"]
    assert build_scatter(jobs, jm, exact + 1e-9) == []


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
    points = build_scatter(jobs, jm, threshold)

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
    assert {p.job_id for p in points} == want
    for p in points:
        nb = runtime_bin_count(next(x for x in jobs
                                    if x.job_id == p.job_id), W)
        assert p.avg_risk_oss == pytest.approx(sums[p.job_id][0] / nb,
                                               abs=1e-9)


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
    points = build_scatter(jobs, jm, min_total_risk=0.0)
    # both active bins have quality exactly 1.0; idle bins are excluded
    assert points[0].avg_quality == pytest.approx(1.0)


# --- summaries --------------------------------------------------------------


def test_core_h_arithmetic():
    job = simple_job("j1", "n1", start=0, end=12 * 3600, cores=24)
    rows = [[W, "n1", "fs2"] + values_row()]
    usage = deltify_and_bin(feed_from_rows(rows), W)
    res = attribute_usage(usage, [job])
    s = summarize_jobs([job], res.job_usage)[0]
    assert s.core_h == pytest.approx(288.0)
    assert s.core_s == 288 * 3600


def test_read_gib_unit_identity():
    rows = [[W, "n1", "fs2"] + values_row(),
            [2 * W, "n1", "fs2"] + values_row(read_kb=2 ** 20)]
    job = simple_job("j1", "n1", start=W, end=2 * W)
    usage = deltify_and_bin(feed_from_rows(rows), W)
    s = summarize_jobs([job], attribute_usage(usage, [job]).job_usage)[0]
    assert s.read_gib == 1.0
    assert s.mean_read_ops_s == 0.0


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
    usage = deltify_and_bin(feed_from_rows(rows), W)
    res = attribute_usage(usage, jobs)
    summaries = summarize_jobs(jobs, res.job_usage)
    col = OpKind.READ_KB.column
    job_read_kb = sum(round(s.read_gib * 2 ** 20) for s in summaries)
    unattributed_read_kb = int(res.unattributed.deltas[:, col].sum())
    fs_total = int(usage.deltas[:, col].sum())
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
    usage = deltify_and_bin(feed_from_rows(rows), W)
    res = attribute_usage(usage, jobs)
    summaries = summarize_jobs(jobs, res.job_usage)
    total_read_kb = sum(s.read_gib for s in summaries) * 2 ** 20
    want = res.job_usage.deltas[:, OpKind.READ_KB.column].sum()
    assert total_read_kb == pytest.approx(float(want), rel=1e-12)
    assert sum(s.read_ops_total for s in summaries) == \
        res.job_usage.deltas[:, OpKind.READ_OPS.column].sum()
    assert all(s.mean_read_ops_s == pytest.approx(
        s.read_ops_total / (j.end_ts - j.start_ts), abs=1e-12)
        for s, j in zip(summaries, jobs))
