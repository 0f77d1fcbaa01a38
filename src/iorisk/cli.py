"""Command-line entry point wiring the pipeline.

Subcommands: simulate (synthetic feeds), ingest (feeds -> binned store),
analyze (attribution + metrics), report (all report artifacts), all
(ingest + analyze + report in one in-memory pass, same bytes as running
the stages). all makes the stages' own calls in order, in one process;
the stages load their inputs from the store instead of taking them from
the stage before. ingest removes what analyze and report derived from an
earlier store, and analyze what report derived. Every stage stores the
Config it ran with; analyze and report start from the stored one (see
config.py).
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

# OpenBLAS's thread pool cost 0.07 s per start-up, for one 2 x n corrcoef
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # an explicit value wins

from . import store  # noqa: E402  (numpy loads after the default is set)
from ._kernels import groups
from .analytics import build_scatter, detect_slowdown, summarize_jobs
from .attribute import attribute_usage, fs_bin_totals
from .config import FIELDS, Config, add_config_flags, resolve_config
from .ingest import deltify_and_bin, read_job_file, read_probe_file
from .metrics import compute_baselines, compute_fs_metrics, \
    compute_job_metrics
from .report import (MEASURES, binned_series_instants, build_breakdown,
                     build_heatmap, correlate_series, emit_timeseries,
                     render_heatmap_svg, write_breakdown_csv,
                     write_correlation_csv, write_heatmap_csv,
                     write_job_summary_csv, write_risk_timeseries_csv,
                     write_scatter_csv, write_slowdown_csv,
                     write_unattributed_csv)


def _config_from_args(args, stage: str) -> Config:
    """The stage's Config: analyze and report start from the stored one."""
    stored = store.read_config(args.out) if stage != "ingest" else None
    overrides = {name: getattr(args, name) for name in FIELDS}
    return resolve_config(args.config, overrides, stored, stage)


def cmd_simulate(args) -> int:
    from . import simgen  # here: the other commands skip its import time

    spec = (simgen.spec_from_json(args.scenario) if args.scenario
            else simgen.preset_scenario(args.preset))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = Path(args.out)
    ledger = simgen.generate(spec, out)
    print(f"simulated {len(ledger.job_totals)} jobs over "
          f"{spec.duration_s} s on {spec.node_count} nodes "
          f"-> {out}/counters.csv, jobs.csv, ledger.json"
          + (", probe.csv" if spec.emit_probe else ""))
    return 0


def _ingest(args, cfg: Config, out: Path):
    """Bin the counter feed as it is read, parse the job feed, remove what
    analyze and report derived from an earlier store and write the store's
    config and jobs; returns the node usage, whose blocks go to the store
    as they are taken (see store.write_node_usage), and the jobs. A bad
    feed or a job conflict fails before anything is removed or created."""
    usage = deltify_and_bin(args.counters, cfg.bin_width_s,
                            max_gap_bins=cfg.max_gap_bins,
                            pre_differenced=cfg.pre_differenced)
    jobs = read_job_file(args.jobs, default_cores=cfg.cores_per_node)
    _clear_derived(out)
    store.store_dir(out).mkdir(parents=True, exist_ok=True)
    store.write_config(out, cfg)
    usage = store.write_node_usage(out, usage)
    store.write_jobs(out, jobs)
    return usage, jobs


def _print_ingested(usage, jobs) -> None:
    """The summary line of ingest, once the node usage's blocks are all
    taken."""
    counts = usage.counts
    print(f"ingested {counts.samples} samples -> {usage.rows} node-bin "
          f"rows, {len(jobs)} jobs; dropped {counts.gap_pairs} pairs over "
          f"the gap limit, saw {counts.reset_pairs} counter resets")


def _metrics(totals, job_usage, cfg: Config):
    """Per-fs baselines from the fs bin totals, then job and fs metrics."""
    baselines = compute_baselines(totals, baseline_days=cfg.baseline_days)
    jm = compute_job_metrics(job_usage, baselines, cfg)
    return baselines, jm, compute_fs_metrics(jm, cfg.quality_agg)


def _analyze(cfg: Config, out: Path, attribution):
    """Write the analysis artifacts of node usage's attribution to jobs
    and the fs bin totals report reads; returns the job usage and its job
    and fs metrics."""
    totals = fs_bin_totals(attribution)
    baselines, jm, fm = _metrics(totals, attribution.job_usage, cfg)
    store.write_job_usage(out, attribution.job_usage)
    store.write_fs_usage(out, totals)
    write_unattributed_csv(out / "unattributed.csv",
                           attribution.unattributed)
    write_risk_timeseries_csv(out / "risk_timeseries.csv", fm, jm)
    print(f"analyzed {len(attribution.job_usage)} job-bin rows on "
          f"{len(baselines)} filesystems")
    return attribution.job_usage, jm, fm


def cmd_ingest(args, cfg: Config) -> int:
    usage, jobs = _ingest(args, cfg, Path(args.out))
    # each block is written as it is taken, and dropped
    collections.deque(usage, maxlen=0)
    _print_ingested(usage, jobs)
    return 0


def cmd_analyze(args, cfg: Config) -> int:
    """Attribute the stored node usage, read a block at a time, then clear
    what a report wrote and write the analysis: a bad store row fails
    before anything is removed or written."""
    out = Path(args.out)
    usage = store.read_node_usage(out, cfg.bin_width_s)
    jobs = store.read_jobs(out)
    attribution = attribute_usage(usage, jobs)
    _clear_report_artifacts(out)
    store.write_config(out, cfg)
    _analyze(cfg, out, attribution)
    return 0


def _clear_report_artifacts(out: Path) -> None:
    """Remove what a report wrote, before analyze or report writes: a
    report writes some of these only for some inputs and flags, and
    timeseries/ one file per day of data."""
    for name in ["job_summary.csv", "scatter.csv", "slowdown.csv",
                 "correlation.csv", "breakdown.csv"] + [
            f"heatmap_{m}.{ext}" for m in MEASURES for ext in ("csv", "svg")]:
        (out / name).unlink(missing_ok=True)
    if (out / "timeseries").exists():
        shutil.rmtree(out / "timeseries")


def _clear_derived(out: Path) -> None:
    """Remove what analyze and report derived from an earlier store, so
    that no later stage pairs it with a new ingest's jobs."""
    for path in (store.store_dir(out) / store.JOB_USAGE_NAME,
                 store.store_dir(out) / store.FS_USAGE_NAME,
                 out / "unattributed.csv", out / "risk_timeseries.csv"):
        path.unlink(missing_ok=True)
    _clear_report_artifacts(out)


def _read_aliases(path) -> dict[str, str] | None:
    """The --alias file's {command: label} map, None without the flag;
    raises ValueError naming the file where it holds anything else."""
    if path is None:
        return None
    try:
        aliases = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"alias file {path}: {exc}") from None
    if not isinstance(aliases, dict) or not all(
            isinstance(label, str) for label in aliases.values()):
        raise ValueError(f"alias file {path}: expected a JSON object of "
                         f"command: label strings")
    return aliases


def _report(args, cfg: Config, out: Path, jobs, job_usage, jm, fm,
            probe, aliases) -> None:
    """Write the report artifacts from the jobs, their usage and metrics,
    the probe series (None without --probe) and the alias map (None
    without --alias)."""
    bin_width = job_usage.bin_width
    totals = summarize_jobs(jobs, job_usage)
    slow_rows, group_mean_s = detect_slowdown(jobs, cfg.slowdown_factor,
                                              cfg.min_group)
    scatter_rows, averages = build_scatter(jobs, jm, cfg.scatter_min_risk)

    _clear_report_artifacts(out)
    write_job_summary_csv(out / "job_summary.csv", jobs, totals)
    write_scatter_csv(out / "scatter.csv", jobs, scatter_rows, averages,
                      aliases)
    write_slowdown_csv(out / "slowdown.csv", jobs, slow_rows, group_mean_s,
                       aliases)
    if len(jobs):
        write_breakdown_csv(out / "breakdown.csv",
                            build_breakdown(jobs, totals))
        for measure in MEASURES:
            hm = build_heatmap(jobs, totals, measure)
            write_heatmap_csv(out / f"heatmap_{measure}.csv", hm)
            if args.svg:
                render_heatmap_svg(out / f"heatmap_{measure}.svg", hm)
    emit_timeseries(fm, jm, out, top_k=cfg.top_k, svg=args.svg,
                    day_offset=cfg.day_offset_s)

    if probe is not None:
        rows = []
        for fs_i, sel in groups(fm.fs_idx):
            fs_id = fm.filesystems[fs_i]
            risk = (binned_series_instants(fm.bin_start[sel], bin_width),
                    fm.risk_oss[sel] + fm.risk_mds[sel])
            try:
                r, n = correlate_series(risk, probe, bin_width,
                                        lag=args.lag)
            except ValueError as exc:
                print(f"correlation skipped for {fs_id}: {exc}",
                      file=sys.stderr)
                continue
            rows.append((f"risk:{fs_id}", "probe", args.lag, r, n))
        write_correlation_csv(out / "correlation.csv", rows)

    print(f"reported {len(jobs)} job summaries, {len(scatter_rows)} "
          f"scatter points, {len(slow_rows)} slowdown findings -> {out}")


def cmd_report(args, cfg: Config) -> int:
    out = Path(args.out)
    probe = read_probe_file(args.probe) if args.probe else None
    aliases = _read_aliases(args.alias)
    jobs = store.read_jobs(out)
    totals = store.read_fs_usage(out, cfg.bin_width_s)
    job_usage = store.read_job_usage(out, cfg.bin_width_s, jobs.job_ids,
                                     totals.names["fs"])
    _, jm, fm = _metrics(totals, job_usage, cfg)
    store.write_config(out, cfg)
    _report(args, cfg, out, jobs, job_usage, jm, fm, probe, aliases)
    return 0


def cmd_all(args, cfg: Config) -> int:
    """ingest, analyze and report in one pass: the stages' calls in
    order, each layer handing its tables to the next, so the store is
    written, never read back. Each block of node usage is written to the
    store and then attributed."""
    out = Path(args.out)
    probe = read_probe_file(args.probe) if args.probe else None
    aliases = _read_aliases(args.alias)
    usage, jobs = _ingest(args, cfg, out)
    attribution = attribute_usage(usage, jobs)
    _print_ingested(usage, jobs)
    job_usage, jm, fm = _analyze(cfg, out, attribution)
    _report(args, cfg, out, jobs, job_usage, jm, fm, probe, aliases)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iorisk",
        description="Parallel-filesystem counter telemetry analysis: "
                    "per-job I/O attribution, risk/quality metrics and "
                    "workload reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="generate synthetic feeds with a ledger")
    group = p_sim.add_mutually_exclusive_group()
    group.add_argument("--preset", default="demo",
                       help="built-in scenario (demo, metric, slowdown, "
                            "contention, perf, resets)")
    group.add_argument("--scenario", metavar="FILE",
                       help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, help="override scenario seed")
    p_sim.add_argument("--out", required=True, metavar="DIR")
    p_sim.set_defaults(func=lambda a: cmd_simulate(a))

    for name, fn, needs_feeds in (
            ("ingest", cmd_ingest, True),
            ("analyze", cmd_analyze, False),
            ("report", cmd_report, False),
            ("all", cmd_all, True)):
        p = sub.add_parser(name, help=f"{name} stage")
        if needs_feeds:
            p.add_argument("--counters", required=True, metavar="FILE")
            p.add_argument("--jobs", required=True, metavar="FILE")
        if name in ("report", "all"):
            p.add_argument("--probe", metavar="FILE",
                           help="probe response-time series "
                                "(ts,latency CSV) to correlate with risk")
            p.add_argument("--lag", type=int, default=0,
                           help="lag in bins for the probe correlation")
            p.add_argument("--svg", action="store_true",
                           help="also render SVG charts")
            p.add_argument("--alias", metavar="FILE",
                           help="JSON {command: label} relabeling for "
                                "reports")
        p.add_argument("--out", required=True, metavar="DIR")
        add_config_flags(p)
        stage = "ingest" if name == "all" else name
        p.set_defaults(func=lambda a, fn=fn, stage=stage: fn(
            a, _config_from_args(a, stage)))
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"iorisk: missing input: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"iorisk: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
