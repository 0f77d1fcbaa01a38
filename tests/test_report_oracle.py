"""Every report artifact against the row-by-row writers of scalar_report.py.

Each analytics function and writer the pipeline calls is wrapped. The
analytics wrappers also run the record-by-record functions of
scalar_analytics.py on the job table's records; the writer wrappers have
the row-by-row writers write the same tables, or those records' results
in place of the column ones, into a second directory."""
from __future__ import annotations

from pathlib import Path

import pytest

from iorisk import cli
from iorisk.simgen import generate, preset_scenario

import scalar_analytics as ref
import scalar_report

# writers called as writer(path, *tables)
PATH_WRITERS = ("write_job_summary_csv", "write_scatter_csv",
                "write_slowdown_csv", "write_breakdown_csv",
                "write_heatmap_csv", "write_unattributed_csv",
                "write_risk_timeseries_csv", "write_correlation_csv")


def _with_oracle(monkeypatch, out: Path, oracle: Path) -> None:
    results = {}  # the record-by-record results of the run

    def record(name, oracle_fn):
        def both(*args, _real=getattr(cli, name)):
            results[name] = oracle_fn(*args)
            return _real(*args)
        monkeypatch.setattr(cli, name, both)

    record("summarize_jobs", lambda jobs, usage: ref.summarize_jobs(
        ref.records_of(jobs), usage))
    record("detect_slowdown", lambda jobs, factor, min_group:
           ref.detect_slowdown(ref.group_applications(ref.records_of(jobs)),
                               factor, min_group))
    record("build_scatter", lambda jobs, jm, min_risk: ref.build_scatter(
        ref.records_of(jobs), jm, min_risk))
    record("build_breakdown", lambda jobs, totals: ref.build_breakdown(
        results["summarize_jobs"]))
    record("build_heatmap", lambda jobs, totals, measure: {
        **results.get("build_heatmap", {}),
        measure: ref.build_heatmap(results["summarize_jobs"], measure)})

    # the tables the row-by-row writer takes, from the pipeline writer's
    tables_of = {
        "write_job_summary_csv": lambda jobs, totals: (
            results["summarize_jobs"],),
        "write_scatter_csv": lambda jobs, rows, averages, aliases: (
            results["build_scatter"], aliases),
        "write_slowdown_csv": lambda jobs, rows, means, aliases: (
            results["detect_slowdown"], aliases),
        "write_breakdown_csv": lambda table: (results["build_breakdown"],),
        "write_heatmap_csv": lambda hm: (
            results["build_heatmap"][hm.measure],),
    }
    for name in PATH_WRITERS:
        def both(path, *tables, _real=getattr(cli, name),
                 _ref=getattr(scalar_report, name),
                 _tables=tables_of.get(name, lambda *t: t)):
            _real(path, *tables)
            _ref(oracle / Path(path).relative_to(out), *_tables(*tables))
        monkeypatch.setattr(cli, name, both)

    def emit_both(fm, jm, out_dir, _real=cli.emit_timeseries, **kw):
        written = _real(fm, jm, out_dir, **kw)
        scalar_report.emit_timeseries(fm, jm, oracle, **kw)
        return written
    monkeypatch.setattr(cli, "emit_timeseries", emit_both)


def _lone_cr_feeds(root: Path) -> Path:
    """The feed of test_keys_with_a_lone_carriage_return_survive_the_store:
    a node, a filesystem, a job id and a command holding a lone "\\r"."""
    from iorisk.ingest import COUNTER_HEADER
    rows = [",".join(COUNTER_HEADER)]
    for ts in range(360, 3600, 360):
        for node, fs in (('"a\rb"', "fs2"), ("n1", '"fs\r3"')):
            rows.append(",".join([str(ts), node, fs]
                                 + [str(ts * (c + 1)) for c in range(21)]))
    (root / "counters.csv").write_text("\n".join(rows) + "\n", newline="")
    (root / "jobs.csv").write_text(
        "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"
        '"j\r1",p,"cmd\r","a\rb;n1",500,2000,24\n'
        "j2,p,cmd,n1,2000,3000,24\n", newline="")
    return root


def _tied_feeds(root: Path) -> Path:
    """jb and ja do the same I/O on nodes of their own, so their
    integrated risk ties and the ranking falls back to the job id."""
    from iorisk.ingest import COUNTER_HEADER
    rows = [",".join(COUNTER_HEADER)]
    cum = dict.fromkeys(("n1", "n2", "n3"), 0)
    for k, ts in enumerate(range(360, 4 * 4320, 360)):
        for node in cum:
            if k:
                cum[node] += 5 if node == "n3" else (
                    1000 if 3 <= k <= 5 else 1)
            rows.append(",".join([str(ts), node, "fs2"]
                                 + [str(cum[node] * (c + 7))
                                    for c in range(21)]))
    (root / "counters.csv").write_text("\n".join(rows) + "\n")
    (root / "jobs.csv").write_text(
        "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"
        "jb,p,cmd,n1,360,3960,24\nja,p,cmd,n2,360,3960,24\n"
        "jc,p,cmd,n3,360,3960,24\n")
    return root


def _feeds(name: str, root: Path) -> Path:
    root.mkdir()
    if name == "lone-cr":
        return _lone_cr_feeds(root)
    if name == "tied":
        return _tied_feeds(root)
    generate(preset_scenario(name), root)
    return root


@pytest.mark.parametrize("name, flags", [
    ("demo", ("--svg",)), ("resets", ("--svg", "--day-offset", "3600")),
    ("metric", ()),
    ("lone-cr", ("--svg",)), ("tied", ("--svg", "--top-k", "1"))])
def test_report_artifacts_equal_the_row_by_row_writers(
        tmp_path, monkeypatch, name, flags):
    feeds = _feeds(name, tmp_path / "feeds")
    if (feeds / "probe.csv").exists():
        flags += ("--probe", str(feeds / "probe.csv"))
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    oracle.mkdir()
    _with_oracle(monkeypatch, out, oracle)
    assert cli.run(["all", "--counters", str(feeds / "counters.csv"),
                    "--jobs", str(feeds / "jobs.csv"), "--out", str(out),
                    *flags]) == 0
    expected = {p.relative_to(oracle): p.read_bytes()
                for p in oracle.rglob("*") if p.is_file()}
    # the store has its own oracle; the heatmap SVGs have none
    written = {p.relative_to(out): p.read_bytes()
               for p in out.rglob("*") if p.is_file()
               and p.relative_to(out).parts[0] != "store"
               and not p.match("heatmap_*.svg")}
    assert written.keys() == expected.keys()
    for rel, data in expected.items():
        assert written[rel] == data, rel
    if name == "tied":  # the top-1 job is the one first by job id
        day = (out / "timeseries" / "fs2" / "1970-01-01.csv").read_text()
        assert ",ja," in day and ",jb," not in day
