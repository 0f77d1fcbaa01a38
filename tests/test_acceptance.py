"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with -s to see them inline).

Fixtures come from the deterministic scenario generator; its ledger is the
ground-truth oracle for the conservation chain.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from test_metrics import oracle_contributions, oracle_quality
from test_report import brute_force_pearson

from iorisk.analytics import (build_scatter, detect_slowdown, job_measures,
                              summarize_jobs)
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.cli import run
from iorisk.config import Config
from iorisk.ingest import read_counter_file, read_job_file
from iorisk.metrics import (compute_baselines, compute_fs_metrics,
                            compute_job_metrics)
from iorisk.ops import (COUNTER_NAMES, N_COUNTERS, READ_KB, READ_OPS,
                        WRITE_KB, WRITE_OPS)
from iorisk.report import (BREAKDOWN_LABELS, build_breakdown, build_heatmap,
                           correlate_series)
from iorisk.simgen import generate, preset_scenario

from conftest import (binned, blocks_of, feed_from_rows, risk_contribs,
                      simple_job, values_row)
from scalar_analytics import (as_table, node_bin_index, volume_bin_exp,
                              volume_bin_label)
from scalar_metrics import JobBinUsage, job_bin_risk, one_baseline


def _report(n: int, desc: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"criterion {n} [{desc}]: FAIL")
        raise
    print(f"criterion {n} [{desc}]: PASS")


@pytest.fixture(scope="module")
def metric_run(tmp_path_factory):
    """The <= 50 jobs x <= 100 bins x 2 fs randomized fixture, recovered."""
    out = tmp_path_factory.mktemp("metric")
    spec = preset_scenario("metric")
    ledger = generate(spec, out)
    feed = read_counter_file(out / "counters.csv")
    jobs = read_job_file(out / "jobs.csv")
    usage = binned(feed, spec.bin_width_s)
    attribution = attribute_usage(blocks_of(usage), jobs)
    totals = fs_bin_totals(attribution)
    baselines = compute_baselines(totals)
    jm = compute_job_metrics(attribution.job_usage, baselines)
    return dict(spec=spec, ledger=ledger, feed=feed, jobs=jobs,
                usage=usage, attribution=attribution, totals=totals,
                baselines=baselines, jm=jm, out=out)


def test_criterion_1_metric_oracle_equivalence(metric_run):
    def check():
        spec = metric_run["spec"]
        jobs = metric_run["jobs"]
        assert len(jobs) <= 50
        assert spec.n_bins <= 100
        assert len(spec.filesystems) == 2

        t0 = time.monotonic()
        jm = compute_job_metrics(metric_run["attribution"].job_usage,
                                 metric_run["baselines"])
        baselines = metric_run["baselines"]
        ju = metric_run["attribution"].job_usage
        checked = 0
        for i in range(len(ju)):
            fs = ju.codes["fs"][i]
            deltas = {name: int(ju.deltas[i, c])
                      for c, name in enumerate(COUNTER_NAMES)}
            avg = {name: float(baselines.avg[fs, c])
                   for c, name in enumerate(COUNTER_NAMES)}
            want = oracle_contributions(deltas, avg,
                                        float(baselines.md_total_avg[fs]),
                                        alpha=2.0, beta=0.25, threshold=1.0)
            want_oss = sum(want[n] for n in COUNTER_NAMES[:5])
            want_mds = sum(want[n] for n in COUNTER_NAMES[5:])
            assert abs(jm.risk_oss[i] - want_oss) < 1e-9
            assert abs(jm.risk_mds[i] - want_mds) < 1e-9
            want_qr, want_qw = oracle_quality(
                deltas["read_kb"], deltas["read_ops"],
                deltas["write_kb"], deltas["write_ops"])
            assert abs(jm.read_kb_ops[i] - want_qr) < 1e-9
            assert abs(jm.write_kb_ops[i] - want_qw) < 1e-9
            checked += 1
        elapsed = time.monotonic() - t0
        assert checked > 100, "fixture too small to be meaningful"
        assert elapsed < 10.0, f"metric oracle check took {elapsed:.1f} s"

    _report(1, "metric oracle equivalence within 1e-9, < 10 s", check)


def test_criterion_2_paper_constant_defaults():
    def check():
        cfg = Config()
        assert cfg.alpha == 2.0
        assert cfg.beta == 0.25
        assert cfg.slowdown_factor == 1.5
        assert cfg.scatter_min_risk == 25.0
        params = Config()
        assert params.alpha == 2.0
        assert params.beta == 0.25
        assert BREAKDOWN_LABELS == ("(0,4)", "[4,32)", "[32,256)",
                                    "[256,2048)", "[2048,inf)")
        import inspect
        assert inspect.signature(detect_slowdown).parameters[
            "factor"].default == 1.5
        assert inspect.signature(build_scatter).parameters[
            "min_total_risk"].default == 25.0

    _report(2, "shipped defaults equal the published constants", check)


def test_criterion_3_clamp_and_decomposition(metric_run):
    def check():
        jm = metric_run["jm"]
        contrib = risk_contribs(metric_run["attribution"].job_usage,
                                metric_run["baselines"])
        assert (contrib >= 0.0).all(), "negative stored contribution"
        fm = compute_fs_metrics(jm)
        for i in range(len(fm)):
            sel = (jm.fs_idx == fm.fs_idx[i]) \
                & (jm.bin_start == fm.bin_start[i])
            assert abs(fm.risk_oss[i] - jm.risk_oss[sel].sum()) < 1e-9
            assert abs(fm.risk_mds[i] - jm.risk_mds[sel].sum()) < 1e-9

        # beta-path fixture: mkdir 500 against avg 0.1, md_total_avg 100
        avg = np.zeros(N_COUNTERS)
        avg[COUNTER_NAMES.index("mkdir")] = 0.1
        baseline = one_baseline("fsx", avg, md_total_avg=100.0)
        usage = JobBinUsage("j", "fsx", 0, np.asarray(
            values_row(mkdir=500), dtype=np.int64))
        point = job_bin_risk(usage, baseline)
        assert point.per_op_risk["mkdir"] == 19.0
        assert point.risk_mds == 19.0

    _report(3, "clamped contributions and fs = sum(jobs) per bin", check)


def test_criterion_4_quality_identity():
    def check():
        # 1 MiB per op: 4096 ops x 4,194,304 KiB over one bin
        rows = [[360, "n1", "fs2"] + values_row(),
                [720, "n1", "fs2"] + values_row(write_ops=4096,
                                                write_kb=4096 * 1024),
                [360, "n2", "fs2"] + values_row(),
                [720, "n2", "fs2"] + values_row(write_ops=4096,
                                                write_kb=4096)]
        jobs = [simple_job("mib", "n1", 360, 720),
                simple_job("kib", "n2", 360, 720)]
        usage = binned(feed_from_rows(rows), 360)
        attribution = attribute_usage(blocks_of(usage), as_table(jobs))
        jm = compute_job_metrics(attribution.job_usage,
                                 compute_baselines(fs_bin_totals(attribution)))
        quality = {jm.job_ids[jm.job_idx[i]]: jm.write_kb_ops[i]
                   for i in range(len(jm))}
        assert quality["mib"] == 1.0
        assert quality["kib"] == 1024.0

    _report(4, "1 MiB/op and 1 KiB/op quality identities, exact", check)


def test_criterion_5_conservation_chain(metric_run):
    def check():
        ledger = metric_run["ledger"]
        totals = metric_run["totals"]
        attribution = metric_run["attribution"]
        jobs = metric_run["jobs"]

        # ledger -> ingest: per fs and per (fs, bin), exactly
        for fs_i, fs in enumerate(totals.names["fs"]):
            mask = totals.codes["fs"] == fs_i
            np.testing.assert_array_equal(
                totals.deltas[mask].sum(axis=0), ledger.feed_totals[fs])
            got = {int(b): d.tolist() for b, d in
                   zip(totals.bin_start[mask], totals.deltas[mask])}
            want = {b: v for b, v in ledger.fs_bin_totals[fs].items()
                    if any(v)}
            assert got == want

        # ingest -> attribution: attributed + unattributed = input
        np.testing.assert_array_equal(
            attribution.job_usage.deltas.sum(axis=0)
            + attribution.unattributed.deltas.sum(axis=0),
            metric_run["usage"].deltas.sum(axis=0))

        # attribution -> ledger per job, all 21 counters
        ju = attribution.job_usage
        job_ids = ju.names["job_id"]
        per_job = {j: np.zeros(N_COUNTERS, dtype=np.int64) for j in job_ids}
        for i in range(len(ju)):
            per_job[job_ids[ju.codes["job_id"][i]]] += ju.deltas[i]
        for job_id, want in ledger.job_totals.items():
            np.testing.assert_array_equal(per_job[job_id], want,
                                          err_msg=job_id)

        # attribution -> job summaries
        summary = summarize_jobs(jobs, attribution.job_usage)
        gib = job_measures(jobs, summary)[:, :2]
        for job_id, totals, (read_gib, write_gib) in zip(
                jobs.job_ids, summary.tolist(), gib.tolist()):
            want = ledger.job_totals[job_id]
            assert totals == [want[col] for col in (
                READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)]
            assert read_gib == want[READ_KB] / 2 ** 20
            assert write_gib == want[WRITE_KB] / 2 ** 20

    _report(5, "ledger = ingest = attribution = summaries, exact", check)


def test_criterion_6_heatmap_and_breakdown_mass(metric_run):
    def check():
        jobs = metric_run["jobs"]
        totals = summarize_jobs(jobs, metric_run["attribution"].job_usage)
        total_core_s = int(jobs.core_s.sum())
        for m, measure in enumerate(("read_gib", "write_gib")):
            hm = build_heatmap(jobs, totals, measure)
            assert int(hm.weights_core_s.sum()) == total_core_s
            # one cell per job: re-derive each job's cell and check that
            # removing per-job mass empties the matrix
            cells = np.zeros_like(hm.weights_core_s)
            for n, v, core_s in zip(jobs.node_counts.tolist(),
                                    job_measures(jobs, totals)[:, m].tolist(),
                                    jobs.core_s.tolist()):
                r = node_bin_index(n)
                exp = volume_bin_exp(v)
                c = 0 if exp is None else \
                    hm.col_labels.index(volume_bin_label(v))
                cells[r, c] += core_s
            np.testing.assert_array_equal(cells, hm.weights_core_s)
        table = build_breakdown(jobs, totals)
        assert abs(sum(table.read_pct) - 100.0) <= 0.1
        assert abs(sum(table.write_pct) - 100.0) <= 0.1

    _report(6, "heatmap mass conserved exactly; breakdown sums to 100",
            check)


def test_criterion_7_slowdown_exact_set(tmp_path_factory):
    def check():
        out = tmp_path_factory.mktemp("slowdown")
        ledger = generate(preset_scenario("slowdown"), out)
        jobs = read_job_file(out / "jobs.csv")
        rows, _ = detect_slowdown(jobs, factor=1.5, min_group=3)
        assert sorted(jobs.job_ids[r] for r in rows) == \
            sorted(ledger.slowdown_job_ids)
        assert len(ledger.slowdown_job_ids) == 2

    _report(7, "slowdown findings equal the scripted outlier set", check)


def test_criterion_8_correlation_sanity(tmp_path_factory):
    def check():
        ts = np.arange(1, 60) * 360
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 10, size=59)
        assert correlate_series((ts, vals), (ts, vals), 360)[0] \
            == pytest.approx(1.0, abs=1e-12)
        assert correlate_series((ts, vals), (ts, -vals), 360)[0] \
            == pytest.approx(-1.0, abs=1e-12)

        out = tmp_path_factory.mktemp("contention")
        spec = preset_scenario("contention")
        generate(spec, out)
        feed = read_counter_file(out / "counters.csv")
        jobs = read_job_file(out / "jobs.csv")
        usage = binned(feed, spec.bin_width_s)
        attribution = attribute_usage(blocks_of(usage), jobs)
        jm = compute_job_metrics(attribution.job_usage,
                                 compute_baselines(fs_bin_totals(attribution)))
        fm = compute_fs_metrics(jm)
        from iorisk.report import binned_series_instants, resample_to_bins
        risk = (binned_series_instants(fm.bin_start, spec.bin_width_s),
                fm.risk_oss + fm.risk_mds)

        probe_rows = (out / "probe.csv").read_text().splitlines()[1:]
        pts = np.asarray([int(r.split(",")[0]) for r in probe_rows])
        pv = np.asarray([float(r.split(",")[1]) for r in probe_rows])
        r, n = correlate_series(risk, (pts, pv), spec.bin_width_s)
        assert r is not None and r > 0.8, f"risk/probe correlation {r}"

        # brute-force Pearson on the same resampled overlap
        rb, rv = resample_to_bins(risk[0], risk[1], spec.bin_width_s)
        pb, pvm = resample_to_bins(pts, pv, spec.bin_width_s)
        common, ia, ib = np.intersect1d(rb, pb, return_indices=True)
        want = brute_force_pearson(list(rv[ia]), list(pvm[ib]))
        assert abs(r - want) < 1e-9
        assert n == common.size

    _report(8, "self/negation correlation and contention probe > 0.8",
            check)


def test_criterion_9_determinism_and_scale(tmp_path_factory):
    def check():
        base = tmp_path_factory.mktemp("perf")
        t0 = time.monotonic()
        feeds = base / "feeds"
        rc = run(["simulate", "--preset", "perf", "--out", str(feeds)])
        assert rc == 0
        feed_rows = sum(1 for _ in open(feeds / "counters.csv")) - 1
        assert feed_rows >= 300_000, f"only {feed_rows} node-bin records"
        out_a = base / "a"
        assert run(["all", "--counters", str(feeds / "counters.csv"),
                    "--jobs", str(feeds / "jobs.csv"),
                    "--out", str(out_a)]) == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"end-to-end took {elapsed:.1f} s"

        out_b = base / "b"
        assert run(["all", "--counters", str(feeds / "counters.csv"),
                    "--jobs", str(feeds / "jobs.csv"),
                    "--out", str(out_b)]) == 0

        files_a = {p.relative_to(out_a): p for p in out_a.rglob("*")
                   if p.is_file()}
        files_b = {p.relative_to(out_b): p for p in out_b.rglob("*")
                   if p.is_file()}
        assert files_a.keys() == files_b.keys()
        for rel, pa in files_a.items():
            assert pa.read_bytes() == files_b[rel].read_bytes(), rel

    _report(9, "byte-identical reruns; 1000-job week < 60 s", check)
