from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from conftest import binned, blocks_of, feed_from_rows, simple_job, values_row
from iorisk.analytics import job_measures
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.config import Config
from iorisk.metrics import (compute_baselines,
                            compute_fs_metrics, compute_job_metrics)
from iorisk.report import (BREAKDOWN_LABELS, MEASURES, bin_exp,
                           breakdown_bin_index, build_breakdown,
                           build_heatmap, correlate_series, emit_timeseries,
                           node_bin_label, render_heatmap_svg,
                           resample_to_bins, volume_bin_label,
                           write_heatmap_csv, write_risk_timeseries_csv)
from scalar_analytics import as_table, node_bin_index, volume_bin_exp

W = 360


def summary(job_id="j1", nodes=1, core_h=None, read_gib=0.0, write_gib=0.0,
            read_ops=0, write_ops=0, elapsed_s=3600, cores=24):
    """One job as (JobRecord, its summarize_jobs totals row); core_h, when
    given, sets one core per node and the runtime to match."""
    if core_h is not None:
        cores, elapsed_s = 1, round(core_h * 3600 / nodes)
    job = simple_job(job_id, start=0, end=elapsed_s, cores=cores,
                     nodes=[f"{job_id}-{k}" for k in range(nodes)])
    return job, [round(read_gib * 2 ** 20), read_ops,
                 round(write_gib * 2 ** 20), write_ops]


def summaries(jobs):
    """The JobTable and totals of summary()s."""
    records, totals = zip(*jobs) if jobs else ((), ())
    return (as_table(list(records)),
            np.array(totals, dtype=np.int64).reshape(len(jobs), 4))


# --- binning helpers --------------------------------------------------------


def test_node_bin_index_and_labels():
    assert bin_exp(1) == 0
    assert node_bin_label(1) == "[1,1]"
    assert node_bin_label(2) == "(1,2]"
    assert node_bin_label(3) == "(2,4]"
    assert node_bin_label(4) == "(2,4]"
    assert node_bin_label(64) == "(32,64]"
    assert node_bin_label(65) == "(64,128]"
    counts = np.arange(1, 5000)
    assert bin_exp(counts).tolist() == [node_bin_index(int(n))
                                        for n in counts]


def test_volume_bin_exp_and_labels():
    assert volume_bin_label(0.0) == "0"
    assert volume_bin_label(1.0) == "(0.5,1]"
    assert volume_bin_label(1.5) == "(1,2]"
    assert volume_bin_label(2.0) == "(1,2]"
    assert volume_bin_label(2.0001) == "(2,4]"
    assert volume_bin_label(0.25) == "(0.125,0.25]"
    assert bin_exp(2 ** 40) == 40
    assert bin_exp(2 ** -20) == -20


def test_volume_bin_exp_brute_force(rng):
    for _ in range(300):
        v = float(rng.uniform(0, 1) * 10.0 ** float(rng.integers(-6, 6)))
        if v == 0:
            continue
        k = int(bin_exp(v))
        assert 2.0 ** (k - 1) < v <= 2.0 ** k
        assert k == volume_bin_exp(v)
        for edge in (2.0 ** k, np.nextafter(2.0 ** k, np.inf)):
            assert bin_exp(edge) == volume_bin_exp(edge)


# --- heatmaps ---------------------------------------------------------------


def test_heatmap_hand_case_64_nodes_1p5_gib():
    hm = build_heatmap(*summaries([summary(nodes=64, core_h=288.0,
                                           write_gib=1.5)]), "write_gib")
    r = hm.row_labels.index("(32,64]")
    c = hm.col_labels.index("(1,2]")
    assert hm.weights[r, c] == pytest.approx(288.0)
    assert hm.weights.sum() == pytest.approx(288.0)


def test_heatmap_zero_measure_lands_in_zero_column():
    hm = build_heatmap(*summaries([summary(write_gib=0.0, core_h=10.0)]),
                       "write_gib")
    assert hm.col_labels == ("0",)
    assert hm.weights[0, 0] == pytest.approx(10.0)


def test_heatmap_unknown_measure_rejected():
    with pytest.raises(ValueError):
        build_heatmap(*summaries([summary()]), "bogus")
    with pytest.raises(ValueError):
        build_heatmap(*summaries([]), "read_gib")


def test_heatmap_mass_conservation_and_unique_cells(rng):
    # DERIVED: integer core-second mass is conserved exactly and each job
    # lands in exactly one cell
    jobs, totals = summaries([summary(
        job_id=f"j{i}", nodes=int(rng.integers(1, 600)),
        read_gib=float(rng.uniform(0, 3000) * (rng.random() < 0.8)),
        elapsed_s=int(rng.integers(360, 100000))) for i in range(200)])
    hm = build_heatmap(jobs, totals, "read_gib")
    assert int(hm.weights_core_s.sum()) == int(jobs.core_s.sum())
    assert hm.weights.sum() == pytest.approx(
        float(jobs.core_s.sum()) / 3600, rel=1e-12)
    read_gib = job_measures(jobs, totals)[:, 0].tolist()
    for n, v in zip(jobs.node_counts.tolist(), read_gib):
        r = node_bin_index(n)
        exp = volume_bin_exp(v)
        col = 0 if exp is None else hm.col_labels.index(
            volume_bin_label(v))
        assert hm.weights_core_s[r, col] > 0


def test_heatmap_all_four_measures(rng):
    jobs, totals = summaries([
        summary(job_id=f"j{i}", nodes=i + 1, read_gib=i * 0.7,
                write_gib=i * 1.3, read_ops=i * 1000, write_ops=i * 500)
        for i in range(8)])
    for measure in MEASURES:
        hm = build_heatmap(jobs, totals, measure)
        assert int(hm.weights_core_s.sum()) == int(jobs.core_s.sum())


# --- breakdown --------------------------------------------------------------


def test_breakdown_bin_edges_per_table():
    assert BREAKDOWN_LABELS == ("(0,4)", "[4,32)", "[32,256)",
                                "[256,2048)", "[2048,inf)")
    assert breakdown_bin_index(0.0) == 0    # zero-I/O in the first bin
    assert breakdown_bin_index(3.999) == 0
    assert breakdown_bin_index(4.0) == 1    # boundary goes right
    assert breakdown_bin_index(31.999) == 1
    assert breakdown_bin_index(32.0) == 2
    assert breakdown_bin_index(256.0) == 3
    assert breakdown_bin_index(2048.0) == 4
    assert breakdown_bin_index(10 ** 9) == 4


def test_breakdown_all_small_reads():
    table = build_breakdown(*summaries([summary(job_id=f"j{i}", read_gib=1.0)
                                        for i in range(5)]))
    assert table.read_pct == (100.0, 0.0, 0.0, 0.0, 0.0)


def test_breakdown_60_40_split():
    table = build_breakdown(*summaries([
        summary(job_id="a", core_h=60.0, read_gib=1.0),
        summary(job_id="b", core_h=40.0, read_gib=10.0)]))
    assert table.read_pct[0] == pytest.approx(60.0, abs=0.1)
    assert table.read_pct[1] == pytest.approx(40.0, abs=0.1)
    assert sum(table.read_pct) == pytest.approx(100.0, abs=0.1)
    assert sum(table.write_pct) == pytest.approx(100.0, abs=0.1)


def test_breakdown_requires_positive_core_h():
    with pytest.raises(ValueError):
        build_breakdown(*summaries([]))


# --- correlation ------------------------------------------------------------


def brute_force_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def test_self_correlation_is_one(rng):
    ts = np.arange(1, 40) * W
    vals = rng.uniform(0, 10, size=39)
    r, n = correlate_series((ts, vals), (ts, vals), W)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert n == 39


def test_negation_correlation_is_minus_one(rng):
    ts = np.arange(1, 40) * W
    vals = rng.uniform(0, 10, size=39)
    r, _ = correlate_series((ts, vals), (ts, -vals), W)
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_correlation_matches_brute_force(rng):
    ts = np.arange(1, 100) * W
    x = rng.uniform(0, 5, size=99)
    y = 0.5 * x + rng.uniform(0, 2, size=99)
    r, _ = correlate_series((ts, x), (ts, y), W)
    assert r == pytest.approx(brute_force_pearson(list(x), list(y)),
                              abs=1e-9)


def test_zero_variance_is_undefined():
    ts = np.arange(1, 10) * W
    flat = np.ones(9)
    wavy = np.arange(9, dtype=float)
    assert correlate_series((ts, flat), (ts, wavy), W) == (None, 9)


def test_too_few_overlapping_bins_rejected():
    ts = np.asarray([W, 2 * W])
    with pytest.raises(ValueError):
        correlate_series((ts, np.ones(2)), (ts, np.ones(2)), W)


def test_resampling_finer_series_by_per_bin_mean():
    # 1-second samples resampled onto 360 s bins
    ts = np.asarray([10, 20, 350, 370, 380])
    vals = np.asarray([1.0, 2.0, 3.0, 10.0, 20.0])
    bins, means = resample_to_bins(ts, vals, W)
    assert bins.tolist() == [0, 360]
    assert means.tolist() == [2.0, 15.0]


def test_correlation_with_lag():
    ts = np.arange(1, 30) * W
    x = np.sin(np.arange(29) * 0.7) + 2
    # b is a copy of x delayed by 2 bins: matching a(t) with b(t + 2 bins)
    r, n = correlate_series((ts, x), (ts + 2 * W, x), W, lag=2)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert n == 29


def test_a_lag_past_the_span_pairs_no_bins():
    ts = np.arange(1, 30) * W
    x = np.sin(np.arange(29) * 0.7) + 2
    assert correlate_series((ts, x), (ts, x), W, lag=26)[1] == 3
    for lag in (29, -29, 10 ** 16, 10 ** 17, -10 ** 17, 2 ** 63, -2 ** 70):
        with pytest.raises(ValueError, match="got 0"):
            correlate_series((ts, x), (ts, x), W, lag=lag)


# --- time-series emission ---------------------------------------------------


def _full_metrics(rng, n_jobs=5, n_bins=12):
    rows = []
    jobs = []
    for j in range(n_jobs):
        node = f"n{j}"
        jobs.append(simple_job(f"j{j}", node, start=W,
                               end=(n_bins + 1) * W, command=f"cmd{j}"))
        t = W
        cum = np.zeros(21, dtype=np.int64)
        rows.append([t, node, "fs2"] + cum.tolist())
        for _ in range(n_bins):
            t += W
            cum = cum + rng.integers(0, 200, size=21)
            rows.append([t, node, "fs2"] + cum.tolist())
    usage = binned(feed_from_rows(rows), W)
    attribution = attribute_usage(blocks_of(usage), as_table(jobs))
    baselines = compute_baselines(fs_bin_totals(attribution))
    jm = compute_job_metrics(attribution.job_usage, baselines, Config())
    fm = compute_fs_metrics(jm)
    return jobs, attribution, jm, fm


def _read_series(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_single_job_series_equals_fs_series(rng, tmp_path):
    jobs, _, jm, fm = _full_metrics(rng, n_jobs=1)
    files = emit_timeseries(fm, jm, tmp_path, top_k=3)
    rows = _read_series(files[0])
    by_bin = {}
    for r in rows:
        by_bin.setdefault(r["bin_start"], {})[r["subject"]] = (
            float(r["risk_oss"]), float(r["risk_mds"]))
    for b, subjects in by_bin.items():
        assert subjects["__fs__"] == subjects["j0"]
        assert subjects["__other__"] == (0.0, 0.0)


def test_topk_plus_other_decomposition(rng, tmp_path):
    jobs, _, jm, fm = _full_metrics(rng, n_jobs=5)
    files = emit_timeseries(fm, jm, tmp_path, top_k=2)
    rows = _read_series([f for f in files if f.suffix == ".csv"][0])
    per_bin: dict[str, dict[str, tuple]] = {}
    for r in rows:
        per_bin.setdefault(r["bin_start"], {})[r["subject"]] = (
            float(r["risk_oss"]), float(r["risk_mds"]))
    assert per_bin
    for b, subjects in per_bin.items():
        total = subjects.pop("__fs__")
        assert len(subjects) == 3  # 2 top jobs + __other__
        for k in (0, 1):
            assert sum(v[k] for v in subjects.values()) == pytest.approx(
                total[k], abs=1e-9)


def test_empty_day_produces_header_only_file(rng, tmp_path):
    # two active days with an idle day between them; the inter-day gap is
    # longer than max_gap_bins so its delta is dropped, not smeared
    rows = [[W, "n1", "fs2"] + values_row()]
    cum = 0
    for day in (0, 2):
        for k in range(5):
            t = day * 86400 + (k + 2) * W
            cum += 100
            rows.append([t, "n1", "fs2"] + values_row(read_ops=cum))
    usage = binned(feed_from_rows(rows), W)
    job = simple_job("j1", "n1", start=W, end=3 * 86400)
    attribution = attribute_usage(blocks_of(usage), as_table([job]))
    baselines = compute_baselines(fs_bin_totals(attribution))
    jm = compute_job_metrics(attribution.job_usage, baselines, Config())
    fm = compute_fs_metrics(jm)
    files = emit_timeseries(fm, jm, tmp_path, top_k=2)
    assert len(files) == 3
    middle = _read_series(files[1])
    assert middle == []
    assert files[1].read_text().startswith("bin_start,subject")


def test_emitted_csvs_byte_identical_across_runs(rng, tmp_path):
    jobs, attribution, jm, fm = _full_metrics(rng)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    files_a = emit_timeseries(fm, jm, a, top_k=2)
    files_b = emit_timeseries(fm, jm, b, top_k=2)
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()
    write_risk_timeseries_csv(a / "risk.csv", fm, jm)
    write_risk_timeseries_csv(b / "risk.csv", fm, jm)
    assert (a / "risk.csv").read_bytes() == (b / "risk.csv").read_bytes()


def test_risk_timeseries_csv_shape(rng, tmp_path):
    jobs, _, jm, fm = _full_metrics(rng, n_jobs=2)
    path = tmp_path / "risk_timeseries.csv"
    write_risk_timeseries_csv(path, fm, jm)
    rows = _read_series(path)
    subjects = {r["subject"] for r in rows}
    assert "__fs__" in subjects
    assert {"j0", "j1"} <= subjects
    fs_rows = [r for r in rows if r["subject"] == "__fs__"]
    assert len(fs_rows) == len(fm)


def test_heatmap_svg_smoke(tmp_path):
    hm = build_heatmap(*summaries([
        summary(nodes=64, core_h=288.0, write_gib=1.5),
        summary(job_id="j2", nodes=3, core_h=10.0, write_gib=0.0)]),
        "write_gib")
    out = tmp_path / "hm.svg"
    render_heatmap_svg(out, hm)
    text = out.read_text()
    assert text.startswith("<svg")
    assert "data-norm-log" in text and "data-norm-linear" in text
    assert "(32,64]" in text
    write_heatmap_csv(tmp_path / "hm.csv", hm)
    with open(tmp_path / "hm.csv") as f:
        header = f.readline().strip().split(",")
    assert header[0] == "nodes_bin"
