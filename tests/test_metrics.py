from __future__ import annotations

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (binned, blocks_of, feed_from_rows, risk_contribs,
                      simple_job, values_row)
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk import ingest
from iorisk.ingest import UsageTable
from iorisk.config import Config
from iorisk.metrics import (FS_SUBJECT, FsBaselines, compute_baselines,
                            compute_fs_metrics, compute_job_metrics)
from scalar_analytics import as_table
from scalar_metrics import (JobBinUsage, fs_baselines, fs_bin_aggregate,
                            job_bin_quality, job_bin_risk, one_baseline,
                            op_risk)
from iorisk.ops import (COUNTER_NAMES, MDS_COUNTERS, MDS_SLICE,
                        N_COUNTERS, OSS_COUNTERS, READ_KB, READ_OPS,
                        WRITE_KB, WRITE_OPS)

W = 360


# --- independent oracle of the metric definitions --------------------------

def oracle_contributions(deltas: dict[str, float], avg: dict[str, float],
                         md_total_avg: float, alpha=2.0, beta=0.25,
                         threshold=1.0) -> dict[str, float]:
    """Plain-python reimplementation of the per-counter risk rules."""
    out = {}
    for name in OSS_COUNTERS:
        a = avg[name]
        if a <= 0:
            out[name] = 0.0
            continue
        out[name] = max(0.0, (deltas[name] - alpha * a) / (alpha * a))
    for name in MDS_COUNTERS:
        a = avg[name]
        if alpha * a >= threshold:
            denom = alpha * a
        else:
            denom = beta * md_total_avg
            if denom <= 0:
                denom = threshold
        if denom <= 0:
            out[name] = 0.0
        else:
            out[name] = max(0.0, (deltas[name] - denom) / denom)
    return out


def oracle_quality(read_kb, read_ops, write_kb, write_ops):
    q_read = (read_ops * 1024 / read_kb) if read_kb > 0 \
        else float(read_ops * 1024)
    q_write = (write_ops * 1024 / write_kb) if write_kb > 0 \
        else float(write_ops * 1024)
    return q_read, q_write


def make_baseline(fs_id="fs2", **avgs):
    avg = np.zeros(N_COUNTERS)
    for name, v in avgs.items():
        avg[COUNTER_NAMES.index(name)] = v
    return one_baseline(fs_id, avg, float(sum(avg[5:])))


def jb_usage(fs_id="fs2", bin_start=0, job_id="j1", **deltas) -> JobBinUsage:
    return JobBinUsage(job_id, fs_id, bin_start,
                       np.asarray(values_row(**deltas), dtype=np.int64))


# --- compute_baselines ------------------------------------------------------


def usage_for_baseline(rows):
    usage = binned(feed_from_rows(rows), W, max_gap_bins=None)
    return fs_bin_totals(attribute_usage(blocks_of(usage), as_table([])))


def test_baseline_single_bin():
    totals = usage_for_baseline([
        [400, "n1", "fs2"] + values_row(read_ops=0),
        [700, "n1", "fs2"] + values_row(read_ops=100)])
    b = compute_baselines(totals)
    assert b.filesystems == ("fs2",)
    assert b.avg[0, READ_OPS] == 100.0
    assert b.n_bins[0] == 1


def test_baseline_two_bins_arithmetic_mean():
    totals = usage_for_baseline([
        [400, "n1", "fs2"] + values_row(read_ops=0),
        [700, "n1", "fs2"] + values_row(read_ops=100),
        [1060, "n1", "fs2"] + values_row(read_ops=400)])
    b = compute_baselines(totals)
    assert b.avg[0, READ_OPS] == 200.0


def test_baseline_counts_empty_bins_as_zeros():
    # activity in bins 360 and 1800 only; slots 360..1800 = 5 bins
    totals = usage_for_baseline([
        [400, "n1", "fs2"] + values_row(mkdir=0),
        [700, "n1", "fs2"] + values_row(mkdir=100),
        [2100, "n1", "fs2"] + values_row(mkdir=150)])
    b = compute_baselines(totals)
    assert b.n_bins[0] == 5
    assert b.avg[0, COUNTER_NAMES.index("mkdir")] == pytest.approx(150 / 5)
    assert b.md_total_avg[0] == pytest.approx(150 / 5)


@st.composite
def fs_totals(draw):
    """fs totals over up to 4 filesystems, some with no rows, in shuffled
    row order, and None or a trailing window from under one bin to many
    times the data's span. Each delta stays below 2**40 and a table holds
    at most 60 rows, so every float sum of them is exact."""
    w = draw(st.sampled_from([60, 360, 3600]))
    n_fs = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(0, n_fs - 1),
                                    st.integers(0, 40)),
                          unique=True, max_size=60))
    order = draw(st.permutations(range(len(cells))))
    cells = [cells[i] for i in order]
    deltas = draw(st.lists(st.lists(st.integers(0, 2 ** 40 - 1),
                                    min_size=N_COUNTERS,
                                    max_size=N_COUNTERS),
                           min_size=len(cells), max_size=len(cells)))
    totals = UsageTable(
        {"fs": np.asarray([fs for fs, _ in cells], np.int32)},
        {"fs": tuple(f"fs{i}" for i in range(n_fs))},
        np.asarray([W * 5000 + w * k for _, k in cells], np.int64),
        np.asarray(deltas, np.int64).reshape(-1, N_COUNTERS), w)
    days = draw(st.none() | st.floats(1e-4, 10.0))
    return totals, days


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fs_totals())
def test_baselines_match_scalar_oracle_bit_for_bit(case):
    totals, days = case
    b = compute_baselines(totals, baseline_days=days)
    want = fs_baselines(totals, days)
    assert b.filesystems == totals.names["fs"]
    assert b.avg.tolist() == [avg for avg, _, _ in want]
    assert b.md_total_avg.tolist() == [md for _, md, _ in want]
    assert b.n_bins.tolist() == [n for _, _, n in want]
    assert len(b) == sum(n > 0 for _, _, n in want)


def test_job_metrics_reject_baselines_of_other_filesystems(rng):
    _, attribution, baselines, _ = _pipeline_metrics(rng)
    assert attribution.job_usage.names["fs"] == ("fs2",)
    for filesystems in ((), ("fs3",), ("fs2", "fs3"), ("fs3", "fs2")):
        other = dataclasses.replace(baselines, filesystems=filesystems)
        with pytest.raises(ValueError, match="baselines are for "
                                             "filesystems"):
            compute_job_metrics(attribution.job_usage, other)


def test_baseline_trailing_days():
    rows = []
    t = 360
    cum = 0
    for k in range(2 * 240):  # two days of bins
        t += W
        cum += 10 if k < 240 else 30
        rows.append([t, "n1", "fs2"] + values_row(read_ops=cum))
    totals = usage_for_baseline([[360, "n1", "fs2"] + values_row()] + rows)
    full = compute_baselines(totals)
    assert full.avg[0, READ_OPS] == pytest.approx(20.0)
    trailing = compute_baselines(totals, baseline_days=1)
    assert trailing.avg[0, READ_OPS] == pytest.approx(30.0)
    assert trailing.n_bins[0] == 240


def test_baseline_30day_fixture_matches_accumulation_oracle(rng):
    # DERIVED: independent accumulation over a long synthetic series
    rows = [[360, "n1", "fs2"] + values_row()]
    t = 360
    cum = np.zeros(21, dtype=np.int64)
    per_bin = []
    n_bins = 30 * 24 * 10  # 30 days of 360 s bins
    for _ in range(n_bins):
        t += W
        d = rng.integers(0, 50, size=21)
        per_bin.append(d)
        cum = cum + d
        rows.append([t, "n1", "fs2"] + cum.tolist())
    totals = usage_for_baseline(rows)
    b = compute_baselines(totals)
    stacked = np.stack(per_bin)
    want = stacked.sum(axis=0) / n_bins  # includes zero bins implicitly
    np.testing.assert_allclose(b.avg[0], want, rtol=0, atol=1e-9)
    assert b.md_total_avg[0] == pytest.approx(
        stacked[:, 5:].sum() / n_bins, abs=1e-9)


# --- op_risk ----------------------------------------------------------------


def test_op_risk_hand_values():
    assert op_risk(200, 100, 2.0) == 0.0
    assert op_risk(600, 100, 2.0) == 2.0
    assert op_risk(50, 100, 2.0) == -0.75


def test_op_risk_rejects_nonpositive_avg():
    with pytest.raises(ValueError):
        op_risk(10, 0.0)
    with pytest.raises(ValueError):
        op_risk(10, -1.0)


# --- job_bin_risk -----------------------------------------------------------


def test_risk_zero_when_deltas_equal_scaled_average():
    avgs = {name: 50.0 for name in COUNTER_NAMES}
    baseline = make_baseline(**avgs)
    usage = jb_usage(**{name: 100 for name in COUNTER_NAMES})
    point = job_bin_risk(usage, baseline)
    assert point.risk_oss == 0.0
    assert point.risk_mds == 0.0


def test_mkdir_storm_beta_path_hand_value():
    # alpha*avg[mkdir] = 0.2 < 1.0 threshold: beta path with
    # denominator 0.25 * 100 = 25 -> (500 - 25) / 25 = 19.0
    avg = np.zeros(N_COUNTERS)
    avg[COUNTER_NAMES.index("mkdir")] = 0.1
    baseline = one_baseline("fs2", avg, md_total_avg=100.0)
    point = job_bin_risk(jb_usage(mkdir=500), baseline)
    assert point.per_op_risk["mkdir"] == 19.0
    assert point.risk_mds == 19.0
    assert point.risk_oss == 0.0


def test_negative_contributions_clamped_to_zero():
    baseline = make_baseline(read_ops=100.0, open=100.0)
    point = job_bin_risk(jb_usage(read_ops=50, open=10), baseline)
    assert point.per_op_risk["read_ops"] == 0.0
    assert point.per_op_risk["open"] == 0.0
    assert all(v >= 0 for v in point.per_op_risk.values())


def test_oss_zero_baseline_contributes_zero():
    baseline = make_baseline(open=100.0)  # all OSS averages zero
    point = job_bin_risk(jb_usage(read_kb=10 ** 9), baseline)
    assert point.risk_oss == 0.0


def test_degenerate_md_total_uses_threshold_floor(caplog):
    baseline = one_baseline("fs2", np.zeros(N_COUNTERS), md_total_avg=0.0)
    with caplog.at_level(logging.WARNING, logger="iorisk.metrics"):
        point = job_bin_risk(jb_usage(mkdir=5), baseline,
                             Config(md_small_avg_threshold=1.0))
    assert point.per_op_risk["mkdir"] == 4.0  # (5 - 1) / 1
    assert any("degenerate" in r.message for r in caplog.records)


def test_degenerate_baselines_warn_once_each_in_fs_order(caplog):
    # fs1 and fs3 have zero metadata averages and metadata activity; fs0
    # has no activity, fs2 a metadata average, fs4 no rows
    avg = np.zeros((5, N_COUNTERS))
    avg[2, COUNTER_NAMES.index("open")] = 5.0
    baselines = FsBaselines(tuple(f"fs{i}" for i in range(5)), avg,
                            avg[:, 5:].sum(axis=1), np.ones(5))
    fs = np.asarray([3, 0, 1, 2, 3, 1], np.int32)
    deltas = np.zeros((len(fs), N_COUNTERS), np.int64)
    deltas[[0, 2, 3], COUNTER_NAMES.index("mkdir")] = 7
    deltas[1, READ_OPS] = 9
    usage = UsageTable({"job_id": np.zeros(len(fs), np.int32), "fs": fs},
                       {"job_id": ("j1",), "fs": baselines.filesystems},
                       np.arange(len(fs), dtype=np.int64) * W, deltas, W)
    with caplog.at_level(logging.WARNING, logger="iorisk.metrics"):
        compute_job_metrics(usage, baselines)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "degenerate baseline for fs1", "degenerate baseline for fs3"]


def _job_usage(rng, m, n_fs=4):
    """m job-bin rows over n_fs filesystems, a third of their deltas
    zero."""
    deltas = rng.integers(0, 500, (m, N_COUNTERS))
    deltas *= rng.random((m, N_COUNTERS)) < 0.6
    return UsageTable({"job_id": rng.integers(0, 5, m).astype(np.int32),
                       "fs": rng.integers(0, n_fs, m).astype(np.int32)},
                      {"job_id": tuple(f"j{i}" for i in range(5)),
                       "fs": tuple(f"fs{i}" for i in range(n_fs))},
                      rng.integers(0, 100, m) * W, deltas, W)


@pytest.mark.parametrize("budget", [1, 2, 3, ingest._PARSE_CHUNK])
def test_job_metrics_in_slices_match_the_one_row_oracle(caplog, monkeypatch,
                                                        budget):
    # compute_job_metrics works one slice of _PARSE_CHUNK rows at a time;
    # at every budget each row's metrics are the bytes that the metrics
    # of its row alone take, and a degenerate baseline warns once however
    # many slices hold its filesystem's metadata activity: fs1 and fs3
    # have zero metadata averages and activity, fs0 a zero average and no
    # metadata activity
    rng = np.random.default_rng(11)
    usage = _job_usage(rng, 40)
    fs = usage.codes["fs"]
    usage.deltas[fs == 0, MDS_SLICE] = 0
    avg = rng.uniform(0, 30, (4, N_COUNTERS))
    avg[[0, 1, 3], MDS_SLICE] = 0.0
    baselines = FsBaselines(usage.names["fs"], avg,
                            avg[:, MDS_SLICE].sum(axis=1), np.ones(4))
    for f in (1, 3):  # in more than one slice of three rows
        assert usage.deltas[fs == f, MDS_SLICE].any(axis=1).sum() > 3
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", budget)
    points = [job_bin_risk(JobBinUsage(usage.names["job_id"][j],
                                       usage.names["fs"][f], int(b), d),
                           baselines)
              for j, f, b, d in zip(usage.codes["job_id"], fs,
                                    usage.bin_start, usage.deltas)]
    quality = [job_bin_quality(JobBinUsage("j", "fs", 0, d))
               for d in usage.deltas]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="iorisk.metrics"):
        jm = compute_job_metrics(usage, baselines)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "degenerate baseline for fs1", "degenerate baseline for fs3"]
    io = usage.deltas[:, (READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)] > 0
    for got, want in ((jm.risk_oss, [p.risk_oss for p in points]),
                      (jm.risk_mds, [p.risk_mds for p in points]),
                      (jm.read_kb_ops, [q.read_kb_ops for q in quality]),
                      (jm.write_kb_ops, [q.write_kb_ops for q in quality]),
                      (jm.has_io, io.any(axis=1))):
        want = np.asarray(want)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert (jm.job_idx, jm.fs_idx, jm.bin_start) \
        == (usage.codes["job_id"], fs, usage.bin_start)


def test_job_metrics_memory_beyond_input_and_output_does_not_grow(
        monkeypatch):
    # numpy reports its array allocations to tracemalloc. Beyond the
    # usage and the metrics it returns, compute_job_metrics holds one
    # slice's temporaries, (rows, 21) float64 tables, 3.2 slice tables
    # here at either size; over the whole table they were three such
    # tables of m rows, which grew with m
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    table = ingest._PARSE_CHUNK * (3 * 8 + 8 * N_COUNTERS)
    rest = {}
    for m in (8 * ingest._PARSE_CHUNK, 32 * ingest._PARSE_CHUNK):
        rng = np.random.default_rng(m)
        usage = _job_usage(rng, m)
        avg = rng.uniform(0, 30, (4, N_COUNTERS))
        baselines = FsBaselines(usage.names["fs"], avg,
                                avg[:, MDS_SLICE].sum(axis=1), np.ones(4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            jm = compute_job_metrics(usage, baselines)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        out = sum(a.nbytes for a in (jm.risk_oss, jm.risk_mds,
                                     jm.read_kb_ops, jm.write_kb_ops,
                                     jm.has_io))
        rest[m] = peak - out
    small, large = rest.values()
    assert large - small < table, (small / table, large / table)


def test_fs_mismatch_rejected():
    with pytest.raises(ValueError):
        job_bin_risk(jb_usage(fs_id="fs3"), make_baseline(fs_id="fs2"))


def test_risk_point_sums_match_per_op_decomposition(rng):
    for _ in range(20):
        avgs = {name: float(rng.uniform(0, 20)) for name in COUNTER_NAMES}
        baseline = make_baseline(**avgs)
        usage = jb_usage(**{name: int(rng.integers(0, 200))
                            for name in COUNTER_NAMES})
        p = job_bin_risk(usage, baseline)
        oss = sum(p.per_op_risk[op] for op in OSS_COUNTERS)
        mds = sum(p.per_op_risk[op] for op in MDS_COUNTERS)
        assert p.risk_oss == pytest.approx(oss, abs=1e-9)
        assert p.risk_mds == pytest.approx(mds, abs=1e-9)


def test_random_job_bins_match_brute_force_oracle(rng):
    # DERIVED: 200 random job-bins against the plain-python oracle
    avgs = {name: float(rng.uniform(0, 30) * (rng.random() < 0.7))
            for name in COUNTER_NAMES}
    baseline = make_baseline(**avgs)
    params = Config()
    for _ in range(200):
        deltas = {name: int(rng.integers(0, 500))
                  for name in COUNTER_NAMES}
        point = job_bin_risk(jb_usage(**deltas), baseline, params)
        want = oracle_contributions(deltas, avgs, baseline.md_total_avg[0])
        for op in COUNTER_NAMES:
            assert point.per_op_risk[op] == pytest.approx(
                want[op], abs=1e-9), op


# --- quality ----------------------------------------------------------------


def test_quality_identities():
    q = job_bin_quality(jb_usage(read_ops=1024, read_kb=1048576))
    assert q.read_kb_ops == 1.0
    q = job_bin_quality(jb_usage(read_ops=4096, read_kb=1024))
    assert q.read_kb_ops == 4096.0
    q = job_bin_quality(jb_usage())
    assert q.read_kb_ops == 0.0 and q.write_kb_ops == 0.0
    # ops without bytes: floor denominator of 1 KiB
    q = job_bin_quality(jb_usage(write_ops=3))
    assert q.write_kb_ops == 3072.0
    # bytes without ops: zero (no operations to rate)
    q = job_bin_quality(jb_usage(write_kb=5000))
    assert q.write_kb_ops == 0.0


def test_quality_matches_oracle(rng):
    for _ in range(100):
        vals = {k: int(rng.integers(0, 10000) * (rng.random() < 0.8))
                for k in ("read_kb", "read_ops", "write_kb", "write_ops")}
        q = job_bin_quality(jb_usage(**vals))
        want_r, want_w = oracle_quality(**vals)
        assert q.read_kb_ops == pytest.approx(want_r, abs=1e-9)
        assert q.write_kb_ops == pytest.approx(want_w, abs=1e-9)


# --- fs_bin_aggregate -------------------------------------------------------


def test_single_job_aggregate_is_identity():
    baseline = make_baseline(read_ops=10.0, open=20.0)
    usage = jb_usage(read_ops=100, open=10)
    rp = job_bin_risk(usage, baseline)
    qp = job_bin_quality(usage)
    fs_risk, fs_quality = fs_bin_aggregate([rp], [qp])
    assert fs_risk.subject == FS_SUBJECT
    assert fs_risk.risk_oss == pytest.approx(rp.risk_oss, abs=1e-9)
    assert fs_risk.risk_mds == pytest.approx(rp.risk_mds, abs=1e-9)
    assert fs_quality.read_kb_ops == qp.read_kb_ops


def test_zero_risk_job_quality_excluded():
    baseline = make_baseline(read_ops=1000.0)
    active = jb_usage(job_id="busy", read_ops=5000, read_kb=1250)
    quiet = jb_usage(job_id="quiet", read_ops=1, read_kb=1)
    rp_a = job_bin_risk(active, baseline)
    rp_q = job_bin_risk(quiet, baseline)
    assert rp_a.risk_oss > 0
    assert rp_q.risk_oss == 0.0
    qp_a = job_bin_quality(active)
    qp_q = job_bin_quality(quiet)
    assert qp_q.read_kb_ops == 1024.0
    _, fs_quality = fs_bin_aggregate([rp_a, rp_q], [qp_a, qp_q])
    assert fs_quality.read_kb_ops == pytest.approx(qp_a.read_kb_ops)


def test_aggregate_rejects_mixed_bins():
    baseline = make_baseline(read_ops=10.0)
    rp = job_bin_risk(jb_usage(bin_start=0), baseline)
    qp = job_bin_quality(jb_usage(bin_start=360))
    with pytest.raises(ValueError):
        fs_bin_aggregate([rp], [qp])


def test_fifty_job_aggregate_matches_summation_oracle(rng):
    baseline = make_baseline(**{n: float(rng.uniform(1, 10))
                                for n in COUNTER_NAMES})
    rps, qps = [], []
    for j in range(50):
        usage = jb_usage(job_id=f"j{j}",
                         **{n: int(rng.integers(0, 100))
                            for n in COUNTER_NAMES})
        rps.append(job_bin_risk(usage, baseline))
        qps.append(job_bin_quality(usage))
    fs_risk, fs_quality = fs_bin_aggregate(rps, qps)
    assert fs_risk.risk_oss == pytest.approx(
        sum(p.risk_oss for p in rps), abs=1e-9)
    assert fs_risk.risk_mds == pytest.approx(
        sum(p.risk_mds for p in rps), abs=1e-9)
    want_q = sum(q.read_kb_ops for q, p in zip(qps, rps) if p.risk_oss > 0)
    assert fs_quality.read_kb_ops == pytest.approx(want_q, abs=1e-9)


# --- batch metrics and invariants -------------------------------------------


def _pipeline_metrics(rng, n_jobs=10, n_bins=8, params=Config()):
    rows = []
    jobs = []
    for j in range(n_jobs):
        node = f"n{j:02d}"
        start = int(rng.integers(0, 3)) * W
        length = int(rng.integers(2, n_bins)) * W
        jobs.append(simple_job(f"j{j:02d}", node, start,
                               start + length))
        t = W
        cum = np.zeros(21, dtype=np.int64)
        rows.append([W, node, "fs2"] + cum.tolist())
        for _ in range(n_bins):
            t += W
            cum = cum + rng.integers(0, 120, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    usage = binned(feed_from_rows(rows), W)
    attribution = attribute_usage(blocks_of(usage), as_table(jobs))
    baselines = compute_baselines(fs_bin_totals(attribution))
    jm = compute_job_metrics(attribution.job_usage, baselines, params)
    return usage, attribution, baselines, jm


def test_no_negative_stored_contribution_and_reclamp_idempotent(rng):
    _, attribution, baselines, _ = _pipeline_metrics(rng)
    contrib = risk_contribs(attribution.job_usage, baselines)
    assert (contrib >= 0).all()
    np.testing.assert_array_equal(np.maximum(contrib, 0.0), contrib)


def test_fs_series_decomposes_into_job_series(rng):
    _, _, _, jm = _pipeline_metrics(rng)
    fm = compute_fs_metrics(jm)
    for i in range(len(fm)):
        sel = (jm.fs_idx == fm.fs_idx[i]) & \
            (jm.bin_start == fm.bin_start[i])
        assert fm.risk_oss[i] == pytest.approx(
            float(jm.risk_oss[sel].sum()), abs=1e-9)
        assert fm.risk_mds[i] == pytest.approx(
            float(jm.risk_mds[sel].sum()), abs=1e-9)


def test_monotonicity_in_single_counter_delta(rng):
    baseline = make_baseline(**{n: float(rng.uniform(0.1, 10))
                                for n in COUNTER_NAMES})
    base_deltas = {n: int(rng.integers(0, 50)) for n in COUNTER_NAMES}
    p0 = job_bin_risk(jb_usage(**base_deltas), baseline)
    for name in COUNTER_NAMES:
        bumped = dict(base_deltas)
        bumped[name] += int(rng.integers(1, 100))
        p1 = job_bin_risk(jb_usage(**bumped), baseline)
        assert (p1.risk_oss + p1.risk_mds
                >= p0.risk_oss + p0.risk_mds - 1e-12)


def test_doubling_alpha_never_increases_contribution_on_stable_paths(rng):
    # stable paths: every MDS average is either far above the threshold
    # for both alphas or below it for both
    avgs = {}
    for name in OSS_COUNTERS:
        avgs[name] = float(rng.uniform(0.5, 10))
    for i, name in enumerate(MDS_COUNTERS):
        avgs[name] = float(rng.uniform(5, 20)) if i % 2 else 0.0
    baseline = make_baseline(**avgs)
    for _ in range(20):
        deltas = {n: int(rng.integers(0, 400)) for n in COUNTER_NAMES}
        p1 = job_bin_risk(jb_usage(**deltas), baseline,
                          Config(alpha=2.0))
        p2 = job_bin_risk(jb_usage(**deltas), baseline,
                          Config(alpha=4.0))
        for op in COUNTER_NAMES:
            assert p2.per_op_risk[op] <= p1.per_op_risk[op] + 1e-12


def test_beta_path_selection_is_deterministic_function_of_baseline():
    baseline = make_baseline(mkdir=0.4, open=10.0)
    params = Config(alpha=2.0, md_small_avg_threshold=1.0)
    # mkdir: 2*0.4 = 0.8 < 1.0 -> beta path; open: 20 >= 1.0 -> alpha path
    for x in (0, 1, 10, 1000):
        p = job_bin_risk(jb_usage(mkdir=x), baseline, params)
        beta_denom = 0.25 * baseline.md_total_avg[0]
        want = max(0.0, (x - beta_denom) / beta_denom)
        assert p.per_op_risk["mkdir"] == pytest.approx(want, abs=1e-9)


def test_compute_job_metrics_requires_baselines(rng):
    _, attribution, baselines, _ = _pipeline_metrics(rng)
    none = dataclasses.replace(baselines,
                               n_bins=np.zeros_like(baselines.n_bins))
    with pytest.raises(ValueError,
                       match=r"no baseline for filesystems \['fs2'\]"):
        compute_job_metrics(attribution.job_usage, none)


def test_quality_agg_mean_option(rng):
    _, _, _, jm = _pipeline_metrics(rng)
    fs_sum = compute_fs_metrics(jm, "sum")
    fs_mean = compute_fs_metrics(jm, "mean")
    for i in range(len(fs_sum)):
        sel = (jm.fs_idx == fs_sum.fs_idx[i]) & \
            (jm.bin_start == fs_sum.bin_start[i])
        k = int((jm.risk_oss[sel] > 0).sum())
        if k:
            assert fs_mean.read_kb_ops[i] == pytest.approx(
                fs_sum.read_kb_ops[i] / k, abs=1e-9)
    with pytest.raises(ValueError):
        compute_fs_metrics(jm, "median")


def test_risk_params_validation():
    usage, baseline = jb_usage(), make_baseline()
    with pytest.raises(ValueError):
        job_bin_risk(usage, baseline, Config(alpha=0))
    with pytest.raises(ValueError):
        job_bin_risk(usage, baseline, Config(beta=-1))
    with pytest.raises(ValueError):
        job_bin_risk(usage, baseline, Config(md_small_avg_threshold=-0.1))
