from __future__ import annotations

import argparse
import csv
import dataclasses
import filecmp
import json
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from iorisk import cli, ingest, store
from iorisk.cli import build_parser, run
from iorisk.config import FIELDS, load_config_file
from iorisk.ops import N_COUNTERS
from iorisk.simgen import generate, preset_scenario

from conftest import blocks_of, usage_columns, whole

ARTIFACTS = ("risk_timeseries.csv", "unattributed.csv", "job_summary.csv",
             "scatter.csv", "slowdown.csv", "breakdown.csv",
             "heatmap_read_gib.csv", "heatmap_write_gib.csv",
             "heatmap_mean_read_ops_s.csv", "heatmap_mean_write_ops_s.csv")


@pytest.fixture(scope="module")
def demo_feeds(tmp_path_factory):
    feeds = tmp_path_factory.mktemp("feeds")
    generate(preset_scenario("demo"), feeds)
    return feeds


def _run_all(feeds, out, extra=()) -> int:
    return run(["all", "--counters", str(feeds / "counters.csv"),
                "--jobs", str(feeds / "jobs.csv"), "--out", str(out),
                *extra])


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code != 0


def test_missing_inputs_exit_nonzero(tmp_path, capsys):
    rc = run(["all", "--counters", str(tmp_path / "nope.csv"),
              "--jobs", str(tmp_path / "nada.csv"),
              "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "missing input" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--alpha", "-1"), ("--alpha", "inf"),
                                  ("--baseline-days", "inf"),
                                  ("--baseline-days", "1e305"),
                                  ("--bin-width", str(10 ** 19)),
                                  ("--day-offset", str(10 ** 20)),
                                  ("--day-offset", str(-2 ** 63 - 1)),
                                  ("--top-k", str(10 ** 19))])
def test_bad_config_value_exits_nonzero(demo_feeds, tmp_path, capsys, flag):
    # a baseline window of 1e305 days is finite, but its seconds are not
    rc = _run_all(demo_feeds, tmp_path / "out", flag)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("iorisk: ")
    assert flag[0][2:].replace("-", "_") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, budget", [
    *((command, budget) for command in ("ingest", "all", "analyze")
      for budget in (64, ingest._PARSE_CHUNK)),
    ("analyze", 1), ("analyze", 2), ("analyze", 3)])
def test_node_usage_is_freed_before_the_job_metrics(demo_feeds, tmp_path,
                                                    monkeypatch, command,
                                                    budget):
    # node usage, the largest table, comes a block at a time, and no stage
    # holds it whole: when a block is taken every block before it is
    # freed, no block holds every row, and none is left by the job metrics.
    # Blocks of 1 to 3 rows are read from the store; binning at such
    # budgets parses the feed a line or three at a time, which is slow
    out = tmp_path / "out"
    if command == "analyze":
        assert _run_all(demo_feeds, out) == 0
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", budget)
    made, alive, dead = [], [], []
    taken = ingest.NodeUsage._taken

    def track(self, block):
        # the store's writer passes on the binner's blocks: a block is
        # taken once from each
        held = [ref() for ref in made if ref() is not None]
        alive.append(sum(deltas is not block.deltas for deltas in held))
        if not any(deltas is block.deltas for deltas in held):
            made.append(weakref.ref(block.deltas))
        return taken(self, block)

    def check_refs(*args, **kwargs):
        dead.append([ref() is None for ref in made])
        return compute_job_metrics(*args, **kwargs)

    compute_job_metrics = cli.compute_job_metrics
    monkeypatch.setattr(ingest.NodeUsage, "_taken", track)
    monkeypatch.setattr(cli, "compute_job_metrics", check_refs)
    if command == "analyze":
        assert run(["analyze", "--out", str(out)]) == 0
    else:
        assert run([command, "--counters", str(demo_feeds / "counters.csv"),
                    "--jobs", str(demo_feeds / "jobs.csv"),
                    "--out", str(out)]) == 0
    rows = len(store.read_usage(store.store_dir(out) / store.NODE_USAGE_NAME,
                                ("node", "fs"), 360))
    assert len(made) > 1 if budget < rows else len(made) >= 1
    assert alive == [0] * len(alive)
    assert all(ref() is None for ref in made)
    assert dead == ([] if command == "ingest" else [[True] * len(made)])


def _window_feeds(root: Path, n_bins: int, n_nodes: int = 128) -> None:
    """On-grid snapshots of n_nodes nodes over n_bins bins of 360 s, each
    node's counters moving in about half the bins, and two jobs of 64
    nodes each in the first 40 bins: longer windows add node usage and
    fs bins, not job usage."""
    rng = np.random.default_rng(n_bins)
    steps = rng.integers(0, 1000, (n_nodes, n_bins, N_COUNTERS))
    steps *= rng.random((n_nodes, n_bins, 1)) < 0.5
    cum = np.cumsum(steps, axis=1)
    root.mkdir()
    with open(root / "counters.csv", "w") as f:
        f.write(",".join(ingest.COUNTER_HEADER) + "\n")
        for b in range(n_bins):
            f.writelines(f"{360 * (b + 1)},n{n},fs1,"
                         + ",".join(map(str, cum[n, b].tolist())) + "\n"
                         for n in range(n_nodes))
    half = n_nodes // 2
    (root / "jobs.csv").write_text(
        ",".join(ingest.JOB_HEADER) + "\n"
        + "".join(f"j{k},p,cmd,{';'.join(f'n{n}' for n in nodes)},"
                  f"{180 + 3600 * k},{180 + 3600 * k + 7200},24\n"
                  for k, nodes in enumerate((range(half),
                                             range(half, n_nodes)))))


def test_staged_peaks_do_not_grow_with_the_window(tmp_path, monkeypatch):
    # The same nodes over four times as many bins: node usage grows from 8
    # to 32 block tables, and the job usage stays as it is. Neither staged
    # ingest nor analyze holds the node usage whole, so their traced peaks
    # grow by less than two block tables: here 0.7 or less and 0.8. What
    # grows is per fs bin (the fs bin totals, the unattributed ledger and
    # the fs risk series, 0.4 tables each) or per binned part (a few
    # Python objects). The CSV writer's texts, a fixed allowance of
    # _WRITE_CHUNK rows, are kept below the fs tables' rows, so that they
    # do not grow with them. The binned parts themselves live in memory
    # maps, which tracemalloc does not see: test_deltify_chunks bounds
    # them. When ingest built one node-usage table and analyze read one,
    # the peaks grew by 27 and 26 tables.
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", 128)
    table = ingest._PARSE_CHUNK * (3 * 8 + 8 * N_COUNTERS)
    peaks, rows = {}, {}
    for n_bins in (128, 512):
        feeds, out = tmp_path / f"feeds{n_bins}", tmp_path / f"out{n_bins}"
        _window_feeds(feeds, n_bins)
        ingest_args = ["ingest", "--counters", str(feeds / "counters.csv"),
                       "--jobs", str(feeds / "jobs.csv")]
        for stage, args in (("ingest", ingest_args),
                            ("analyze", ["analyze"])):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert run([*args, "--out", str(out)]) == 0
                peaks[stage, n_bins] = (tracemalloc.get_traced_memory()[1]
                                        - before)
            finally:
                tracemalloc.stop()
        rows[n_bins] = len(store.read_usage(
            store.store_dir(out) / store.NODE_USAGE_NAME, ("node", "fs"), 360))
    assert rows[128] > 7 * ingest._PARSE_CHUNK
    assert rows[512] > 4 * rows[128] - ingest._PARSE_CHUNK
    for stage in ("ingest", "analyze"):
        growth = peaks[stage, 512] - peaks[stage, 128]
        assert growth < 2 * table, (stage, growth / table)


def test_all_produces_artifact_set(demo_feeds, tmp_path):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--probe",
                                      str(demo_feeds / "probe.csv"),
                                      "--svg")) == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert (out / "correlation.csv").exists()
    assert (out / "store" / "node_usage.csv").exists()
    assert (out / "store" / "job_usage.csv").exists()
    assert (out / "store" / "jobs.csv").exists()
    assert (out / "store" / "meta.json").exists()
    ts_files = list((out / "timeseries").rglob("*.csv"))
    assert ts_files
    assert list((out / "timeseries").rglob("*.svg"))
    assert list(out.glob("heatmap_*.svg"))


def test_all_runs_are_byte_identical(demo_feeds, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    extra = ("--svg", "--probe", str(demo_feeds / "probe.csv"))
    assert _run_all(demo_feeds, out_a, extra) == 0
    assert _run_all(demo_feeds, out_b, extra) == 0
    assert _tree_bytes(out_a) == _tree_bytes(out_b)


def test_staged_run_equals_all(demo_feeds, tmp_path):
    out_a = tmp_path / "staged"
    counters = str(demo_feeds / "counters.csv")
    jobs = str(demo_feeds / "jobs.csv")
    assert run(["ingest", "--counters", counters, "--jobs", jobs,
                "--out", str(out_a)]) == 0
    assert run(["analyze", "--out", str(out_a)]) == 0
    assert run(["report", "--out", str(out_a)]) == 0
    out_b = tmp_path / "oneshot"
    assert _run_all(demo_feeds, out_b) == 0
    assert _tree_bytes(out_a) == _tree_bytes(out_b)


def test_explicit_default_alpha_equals_default_run(demo_feeds, tmp_path):
    out_a = tmp_path / "default"
    out_b = tmp_path / "explicit"
    assert _run_all(demo_feeds, out_a) == 0
    assert _run_all(demo_feeds, out_b, ("--alpha", "2")) == 0
    assert _tree_bytes(out_a) == _tree_bytes(out_b)


def test_config_file_and_flag_precedence(demo_feeds, tmp_path, monkeypatch):
    conf = tmp_path / "iorisk.conf"
    conf.write_text("scatter_min_risk = 1.0\n")
    out_env = tmp_path / "via_env"
    monkeypatch.setenv("IORISK_CONFIG", str(conf))
    assert _run_all(demo_feeds, out_env) == 0
    monkeypatch.delenv("IORISK_CONFIG")
    out_flag = tmp_path / "via_flag"
    assert _run_all(demo_feeds, out_flag,
                    ("--config", str(conf))) == 0
    assert (out_env / "scatter.csv").read_bytes() == \
        (out_flag / "scatter.csv").read_bytes()
    # flag overrides the file: a huge threshold empties the scatter
    out_override = tmp_path / "override"
    assert _run_all(demo_feeds, out_override,
                    ("--config", str(conf),
                     "--scatter-min-risk", "1e12")) == 0
    scatter = (out_override / "scatter.csv").read_text().splitlines()
    assert len(scatter) == 1  # header only


def test_all_idle_scenario_still_produces_artifacts(tmp_path):
    from iorisk.simgen import JobTemplate, ScenarioSpec, generate
    feeds = tmp_path / "feeds"
    generate(ScenarioSpec(
        seed=3, duration_s=7200, node_count=2, filesystems=("fs2",),
        templates=(JobTemplate("quiet", "noop.sh", "support", "idle",
                               count=2, nodes=1, runtime_bins=(2, 6)),)),
        feeds)
    out = tmp_path / "out"
    assert _run_all(feeds, out) == 0
    assert (out / "job_summary.csv").read_text().count("\n") == 3
    assert (out / "risk_timeseries.csv").read_text().count("\n") == 1
    scatter = (out / "scatter.csv").read_text()
    assert scatter.count("\n") == 1  # header only


def test_analyze_without_store_exits_nonzero(tmp_path, capsys):
    rc = run(["analyze", "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "missing input" in capsys.readouterr().err


def test_report_with_probe_and_lag(demo_feeds, tmp_path):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--probe",
                                      str(demo_feeds / "probe.csv"),
                                      "--lag", "1")) == 0
    lines = (out / "correlation.csv").read_text().splitlines()
    assert lines[0] == "series_a,series_b,lag_bins,pearson_r,n_bins"
    assert len(lines) >= 2
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "1"
        assert int(fields[4]) >= 3


@pytest.mark.parametrize("lag", [str(10 ** 16), str(10 ** 17),
                                 str(-10 ** 17), str(10 ** 30)])
def test_a_lag_past_the_series_skips_the_correlation(demo_feeds, tmp_path,
                                                    capsys, lag):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--probe",
                                      str(demo_feeds / "probe.csv"),
                                      "--lag", lag)) == 0
    err = capsys.readouterr().err
    for fs in ("fs2", "fs3"):
        assert (f"correlation skipped for {fs}: need >= 3 overlapping "
                f"bins, got 0") in err
    assert (out / "correlation.csv").read_text() == \
        "series_a,series_b,lag_bins,pearson_r,n_bins\n"


def test_a_day_offset_is_taken_modulo_a_day(demo_feeds, tmp_path):
    # near -2**63: it fits int64, but a bin less it does not
    offsets = {"near": 3600, "far": 3600 - 86400 * 106751991167300}
    for name, offset in offsets.items():
        assert _run_all(demo_feeds, tmp_path / name,
                        (f"--day-offset={offset}",)) == 0
    near, far = (_tree_bytes(tmp_path / name / "timeseries")
                 for name in offsets)
    assert len(near) > 1
    assert far == near


def test_simulate_subcommand_writes_scenario_outputs(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--preset", "resets", "--out", str(out)]) == 0
    assert (out / "counters.csv").exists()
    assert (out / "jobs.csv").exists()
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["bin_width_s"] == 360


def test_simulate_seed_override_changes_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["simulate", "--preset", "resets", "--out",
                str(out_a)]) == 0
    assert run(["simulate", "--preset", "resets", "--seed", "99",
                "--out", str(out_b)]) == 0
    assert (out_a / "counters.csv").read_bytes() != \
        (out_b / "counters.csv").read_bytes()


def test_simulate_from_scenario_json(tmp_path):
    from iorisk.simgen import spec_to_json
    scenario = tmp_path / "scenario.json"
    spec_to_json(preset_scenario("resets"), scenario)
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", str(scenario),
                "--out", str(out)]) == 0
    ref = tmp_path / "ref"
    assert run(["simulate", "--preset", "resets", "--out", str(ref)]) == 0
    assert filecmp.cmp(out / "counters.csv", ref / "counters.csv",
                       shallow=False)


def test_seed_overrides_a_scenario_file_as_it_does_a_preset(tmp_path):
    from iorisk.simgen import spec_to_json
    scenario = tmp_path / "scenario.json"
    spec_to_json(preset_scenario("resets"), scenario)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert run(["simulate", "--scenario", str(scenario), "--seed", "5",
                "--out", str(out)]) == 0
    assert run(["simulate", "--preset", "resets", "--seed", "5",
                "--out", str(ref)]) == 0
    assert filecmp.cmp(out / "counters.csv", ref / "counters.csv",
                       shallow=False)


def _scenario_text(template=(), **changes) -> bytes:
    """The resets preset as a scenario file, with changes to its fields
    and to those of its one template."""
    doc = {**dataclasses.asdict(preset_scenario("resets")), **changes}
    doc["templates"] = [{**doc["templates"][0], **dict(template)}]
    return json.dumps(doc).encode()


@pytest.mark.parametrize("text", [
    b"{", b'{"seed": 1, "emit_prob": true}', b"\xff",
    _scenario_text(seed="x"),
    _scenario_text(seed=-1),
    _scenario_text({"intensity": float("nan")}),
    _scenario_text(episodes=[{"start_s": 0, "end_s": 360,
                              "load_multiplier": float("inf")}]),
    _scenario_text(emit_probe=True, probe_cadence_s=0),
    _scenario_text({"nodes": 0}),
    _scenario_text({"runtime_bins": [5, 2]}),
    _scenario_text({"cores_per_node": 0}),
    _scenario_text({"nodes": 7}),
    _scenario_text(resets=[["n9", "fs2", 18000]]),
    _scenario_text(start_ts=-100000),
    _scenario_text({"intensity": 1e17}),
    _scenario_text({"intensity": 3e13}),
    _scenario_text(episodes=[{"start_s": 0, "end_s": 360,
                              "load_multiplier": 1e15}])],
    ids=["not JSON", "an unknown key", "not UTF-8", "a string seed",
         "a negative seed", "a NaN intensity", "an infinite multiplier",
         "a zero probe cadence", "zero nodes", "runtime_bins low above high",
         "zero cores per node", "more nodes than node_count",
         "a reset on no node", "a negative start_ts",
         "an intensity of 1e17", "an intensity of 3e13",
         "a load multiplier of 1e15"])
def test_a_bad_scenario_file_exits_before_writing(tmp_path, capsys, text):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(text)
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", str(scenario),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"iorisk: scenario {scenario}: "), err
    assert not out.exists()


def test_a_negative_seed_flag_exits_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--preset", "demo", "--seed", "-1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "iorisk: seed must be >= 0\n"
    assert not out.exists()


def test_a_scenario_that_cannot_be_placed_exits_before_writing(
        tmp_path, capsys):
    # two runs of the whole window on one node
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(_scenario_text(
        {"count": 2, "runtime_bins": 100}, node_count=1, resets=[]))
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", str(scenario),
                "--out", str(out)]) == 1
    assert "more concurrent jobs than nodes" in capsys.readouterr().err
    assert not out.exists()


def test_alias_file_relabels_commands(demo_feeds, tmp_path):
    import csv
    base = tmp_path / "base"
    assert _run_all(demo_feeds, base, ("--scatter-min-risk", "1e-9",)) == 0
    with open(base / "scatter.csv") as f:
        commands = {r["command"] for r in csv.DictReader(f)}
    assert commands, "fixture produced no scatter points"
    target = sorted(commands)[0]
    aliases = tmp_path / "aliases.json"
    aliases.write_text(json.dumps({target: "friendly-name"}))
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--scatter-min-risk", "1e-9",
                                      "--alias", str(aliases))) == 0
    text = (out / "scatter.csv").read_text()
    assert "friendly-name" in text
    assert target not in text


@pytest.mark.parametrize("flag", [("--min-group", "1"),
                                  ("--slowdown-factor", "0.5")])
def test_bad_slowdown_config_fails_before_writing(demo_feeds, tmp_path,
                                                  capsys, flag):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, flag) == 1
    assert flag[0][2:].replace("-", "_") in capsys.readouterr().err
    for name in ("store", "risk_timeseries.csv", "unattributed.csv"):
        assert not (out / name).exists(), name


def test_rerun_leaves_no_stale_report_artifacts(tmp_path):
    from iorisk.simgen import JobTemplate, ScenarioSpec
    spec = ScenarioSpec(
        seed=5, duration_s=2 * 86400, node_count=4, filesystems=("fs2",),
        templates=(JobTemplate("scan", "scan --files index.db",
                               "materials", "small-read", count=8,
                               nodes=1, runtime_bins=(4, 12)),),
        emit_probe=True)
    feeds = tmp_path / "feeds"
    generate(spec, feeds)
    # the same feed cut to its first day
    short = tmp_path / "short"
    short.mkdir()
    header, *rows = (feeds / "counters.csv").read_text().splitlines(True)
    (short / "counters.csv").write_text("".join(
        [header] + [r for r in rows
                    if int(r.split(",")[0]) <= spec.start_ts + 86400]))
    (short / "jobs.csv").write_bytes((feeds / "jobs.csv").read_bytes())

    out = tmp_path / "out"
    assert _run_all(feeds, out, ("--probe", str(feeds / "probe.csv"),
                                 "--svg")) == 0
    assert (out / "correlation.csv").exists()
    assert len(list((out / "timeseries" / "fs2").glob("*.csv"))) == 2
    assert _run_all(short, out) == 0
    fresh = tmp_path / "fresh"
    assert _run_all(short, fresh) == 0
    assert len(list((fresh / "timeseries" / "fs2").glob("*.csv"))) == 1
    assert _tree_bytes(out) == _tree_bytes(fresh)


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys

    import iorisk
    src = Path(iorisk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "iorisk", "simulate", "--preset", "demo",
         "--out", str(tmp_path / "sim")],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sim" / "counters.csv").exists()


def _reorder_feeds(root: Path) -> Path:
    """Node n0 has rows only on fs3; n1 has rows on fs2 and fs3, with fs2
    first in the feed. A lone n0,fs2 snapshot makes no pair, so the store
    lists fs3 before fs2."""
    from iorisk.ingest import COUNTER_HEADER
    rows = [",".join(COUNTER_HEADER)]

    def snap(ts, node, fs, base):
        rows.append(",".join([str(ts), node, fs]
                             + [str(base + c) for c in range(21)]))

    snap(360, "n0", "fs2", 0)
    for ts in range(360, 3600, 360):
        snap(ts, "n1", "fs2", ts)
        snap(ts, "n0", "fs3", 2 * ts)
        snap(ts, "n1", "fs3", 3 * ts)
    root.mkdir()
    (root / "counters.csv").write_text("\n".join(rows) + "\n")
    (root / "jobs.csv").write_text(
        "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"
        "j1,p,cmd,n0;n1,500,2000,24\n"
        "j2,p,cmd,n1,2000,3000,24\n"
        "j3,p,cmd,n0,2100,3300,\n")
    return root


def test_staged_equals_all_when_store_order_differs_from_feed(
        tmp_path, monkeypatch):
    from iorisk import cli, store
    feeds = _reorder_feeds(tmp_path / "feeds")
    analyzed = []
    attribute = cli.attribute_usage
    monkeypatch.setattr(cli, "attribute_usage", lambda usage, jobs: (
        analyzed.append(whole(usage))
        or attribute(blocks_of(analyzed[-1]), jobs)))
    oneshot = tmp_path / "oneshot"
    assert _run_all(feeds, oneshot) == 0
    staged = tmp_path / "staged"
    assert run(["ingest", "--counters", str(feeds / "counters.csv"),
                "--jobs", str(feeds / "jobs.csv"),
                "--out", str(staged)]) == 0
    assert run(["analyze", "--out", str(staged)]) == 0
    assert run(["report", "--out", str(staged)]) == 0
    assert _tree_bytes(staged) == _tree_bytes(oneshot)

    usage = analyzed[0]
    assert usage.names["fs"] == ("fs3", "fs2")
    again = tmp_path / "again"
    store.store_dir(again).mkdir(parents=True)
    for _ in store.write_node_usage(again, blocks_of(usage)):
        pass
    back = whole(store.read_node_usage(again, usage.bin_width))
    assert (back.names, back.bin_width) == (usage.names, usage.bin_width)
    want = usage_columns(usage)
    for name, a in usage_columns(back).items():
        b = want[name]
        assert a.dtype == b.dtype and (a == b).all(), name


def test_all_parses_once_and_never_reads_the_store(demo_feeds, tmp_path,
                                                    monkeypatch):
    from iorisk import cli, ingest, store
    out = tmp_path / "out"
    calls = {"parse_counter_feed": 0, "fs_bin_totals": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def forbidden(*args, **kwargs):
        raise AssertionError("all read the store back")

    with monkeypatch.context() as m:
        for name in ("read_node_usage", "read_fs_usage", "read_job_usage",
                     "read_jobs"):
            m.setattr(store, name, forbidden)
        counted(ingest, "parse_counter_feed")
        counted(cli, "fs_bin_totals")
        assert _run_all(demo_feeds, out) == 0
    assert calls == {"parse_counter_feed": 1, "fs_bin_totals": 1}

    before = _tree_bytes(out)
    assert run(["report", "--out", str(out)]) == 0
    assert _tree_bytes(out) == before


def _ingest_and_analyze(feeds, out) -> None:
    assert run(["ingest", "--counters", str(feeds / "counters.csv"),
                "--jobs", str(feeds / "jobs.csv"), "--out", str(out)]) == 0
    assert run(["analyze", "--out", str(out)]) == 0


def test_report_reads_fs_totals_not_node_usage(demo_feeds, tmp_path,
                                                monkeypatch):
    from iorisk import cli, store
    extra = ("--svg", "--probe", str(demo_feeds / "probe.csv"))
    assert _run_all(demo_feeds, tmp_path / "all", extra) == 0
    staged = tmp_path / "staged"
    _ingest_and_analyze(demo_feeds, staged)

    def forbidden(*args, **kwargs):
        raise AssertionError("report rebuilt the fs totals")

    monkeypatch.setattr(store, "read_node_usage", forbidden)
    monkeypatch.setattr(cli, "fs_bin_totals", forbidden)
    assert run(["report", "--out", str(staged), *extra]) == 0
    assert _tree_bytes(staged) == _tree_bytes(tmp_path / "all")


def test_analyze_removes_what_an_earlier_report_wrote(demo_feeds, tmp_path):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--svg", "--probe",
                                      str(demo_feeds / "probe.csv"))) == 0
    assert run(["analyze", "--out", str(out), "--alpha", "3"]) == 0
    # only what ingest and this analysis wrote: no alpha-2 report is left
    # beside the alpha-3 analysis
    fresh = tmp_path / "fresh"
    assert run(["ingest", "--counters", str(demo_feeds / "counters.csv"),
                "--jobs", str(demo_feeds / "jobs.csv"),
                "--out", str(fresh)]) == 0
    assert run(["analyze", "--out", str(fresh), "--alpha", "3"]) == 0
    assert not (out / "timeseries").exists()
    assert _tree_bytes(out) == _tree_bytes(fresh)


def _files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("clear, kept", [
    ("_clear_derived", []),
    ("_clear_report_artifacts", ["risk_timeseries.csv", "store/fs_usage.csv",
                                 "store/job_usage.csv", "unattributed.csv"])],
    ids=["derived", "report-artifacts"])
def test_clearing_a_stage_leaves_only_what_the_stages_before_wrote(
        demo_feeds, tmp_path, clear, kept):
    # every artifact of a full run, --svg and --probe ones too: a file the
    # clean-up lists miss would outlive the store it was derived from
    from iorisk import cli
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--svg", "--probe",
                                      str(demo_feeds / "probe.csv"))) == 0
    getattr(cli, clear)(out)
    assert _files(out) == sorted(["store/jobs.csv", "store/meta.json",
                                  "store/node_usage.csv", *kept])


# a flag that would change meta.json, had the stage got as far as writing
STAGE_FLAGS = {"analyze": ("--alpha", "3"), "report": ("--top-k", "1")}


def _swap_first_columns(path: Path) -> None:
    """Rewrite a CSV table with its first two columns swapped, header and
    rows alike."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [r[1], r[0], *r[2:]] for r in rows)


@pytest.mark.parametrize("fault", ["empty", "reordered"])
@pytest.mark.parametrize("stage, table", [
    ("analyze", "node_usage.csv"), ("report", "job_usage.csv"),
    ("report", "fs_usage.csv")])
def test_a_store_table_with_a_bad_header_exits_before_writing(
        demo_feeds, tmp_path, capsys, stage, table, fault):
    out = tmp_path / "out"
    _ingest_and_analyze(demo_feeds, out)
    path = out / "store" / table
    if fault == "empty":
        path.write_text("")
    else:  # read by position, the keys would land in each other's columns
        _swap_first_columns(path)
    capsys.readouterr()
    before = _tree_bytes(out)
    assert run([stage, "--out", str(out), *STAGE_FLAGS[stage]]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "header" in err, err
    assert _tree_bytes(out) == before


# the stage that writes each store file
STORE_WRITER = {"meta.json": "ingest", "node_usage.csv": "ingest",
                "jobs.csv": "ingest", "fs_usage.csv": "analyze",
                "job_usage.csv": "analyze"}


@pytest.mark.parametrize("damage", ["missing", "empty", "garbled"])
@pytest.mark.parametrize("stage, name", [
    ("analyze", "meta.json"), ("analyze", "node_usage.csv"),
    ("analyze", "jobs.csv"), ("report", "meta.json"), ("report", "jobs.csv"),
    ("report", "fs_usage.csv"), ("report", "job_usage.csv")])
def test_a_damaged_store_file_is_named_and_nothing_is_written(
        demo_feeds, tmp_path, capsys, stage, name, damage):
    out = tmp_path / "out"
    _ingest_and_analyze(demo_feeds, out)
    path = out / "store" / name
    if damage == "missing":
        path.unlink()
    else:  # "{" is neither JSON nor the table's header
        path.write_text("" if damage == "empty" else "{\n")
    capsys.readouterr()
    before = _tree_bytes(out)
    assert run([stage, "--out", str(out), *STAGE_FLAGS[stage]]) == 1
    err = capsys.readouterr().err
    assert f"store {path}" in err, err
    if damage == "missing":
        assert f"rerun the {STORE_WRITER[name]} stage" in err, err
    assert _tree_bytes(out) == before


def _put_byte_ff(path: Path, line: int) -> None:
    """Put a 0xff byte, which is not UTF-8, before the second field of the
    line of a CSV file."""
    lines = path.read_bytes().split(b"\n")
    head, sep, rest = lines[line - 1].partition(b",")
    lines[line - 1] = head + sep + b"\xff" + rest
    path.write_bytes(b"\n".join(lines))


# (stage, the input given a byte that is not UTF-8, its line, the error)
NOT_UTF8 = {
    "counters": ("ingest", "counters.csv", 3,
                 "counter feed: byte 0xff is not UTF-8 (line 3, field "
                 "'node')"),
    "jobs": ("ingest", "jobs.csv", 3,
             "job feed: byte 0xff is not UTF-8 (line 3, field 'project')"),
    "node usage": ("analyze", "out/store/node_usage.csv", 3,
                   "store {path}: byte 0xff is not UTF-8 (line 3, field "
                   "'fs')"),
    "stored jobs": ("report", "out/store/jobs.csv", 3,
                    "store {path}: byte 0xff is not UTF-8 (line 3, field "
                    "'project')"),
    "probe": ("report", "probe.csv", 1,
              "probe file {path}: byte 0xff is not UTF-8 (line 1)"),
    "config": ("ingest", "config.txt", 2,
               "config {path}: 'utf-8' codec can't decode byte 0xff"),
}


@pytest.mark.parametrize("case", NOT_UTF8)
def test_a_byte_that_is_not_utf8_is_named_and_nothing_is_written(
        demo_feeds, tmp_path, capsys, case):
    stage, name, line, message = NOT_UTF8[case]
    out = tmp_path / "out"
    _ingest_and_analyze(demo_feeds, out)
    for feed in ("counters.csv", "jobs.csv", "probe.csv"):
        shutil.copy(demo_feeds / feed, tmp_path)
    (tmp_path / "config.txt").write_text(
        "alpha = 2.0\n# the default, as a file gives it\n")
    path = tmp_path / name
    _put_byte_ff(path, line)
    flags = {
        "ingest": ["--counters", str(tmp_path / "counters.csv"),
                   "--jobs", str(tmp_path / "jobs.csv")],
        "analyze": [],
        "report": ["--probe", str(tmp_path / "probe.csv")],
    }[stage] + ["--config", str(tmp_path / "config.txt")]
    capsys.readouterr()
    before = _tree_bytes(out)
    assert run([stage, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert message.format(path=path) in err, err
    assert _tree_bytes(out) == before


def test_report_after_a_reingest_exits_before_writing(demo_feeds,
                                                      tmp_path, capsys):
    out = tmp_path / "out"
    _ingest_and_analyze(demo_feeds, out)
    assert run(["report", "--out", str(out)]) == 0
    other = tmp_path / "other"
    assert run(["simulate", "--preset", "demo", "--seed", "3",
                "--out", str(other)]) == 0
    # a feed that fails to parse removes nothing
    bad = tmp_path / "bad_jobs.csv"
    bad.write_text((other / "jobs.csv").read_text() + "j-bad,p,c\n")
    before = _tree_bytes(out)
    assert run(["ingest", "--counters", str(other / "counters.csv"),
                "--jobs", str(bad), "--out", str(out)]) == 1
    assert _tree_bytes(out) == before
    assert run(["ingest", "--counters", str(other / "counters.csv"),
                "--jobs", str(other / "jobs.csv"), "--out", str(out)]) == 0
    capsys.readouterr()
    # only the new ingest's store is left: nothing the old analysis and
    # report derived
    assert _files(out) == [
        "store/jobs.csv", "store/meta.json", "store/node_usage.csv"]
    before = _tree_bytes(out)
    assert run(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "fs_usage.csv" in err and "rerun the analyze stage" in err
    assert _tree_bytes(out) == before


def _import_cli(extra_env: dict) -> list[str]:
    """OPENBLAS_NUM_THREADS and the thread count after importing the cli
    in a fresh interpreter whose environment sets the variable only as
    extra_env does."""
    import os
    import subprocess
    import sys

    import iorisk
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    src = Path(iorisk.__file__).resolve().parents[1]
    env.update(extra_env, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, iorisk.cli\n"
         "status = open('/proc/self/status').read()\n"
         "print(os.environ['OPENBLAS_NUM_THREADS'],"
         " status.split('Threads:')[1].split()[0])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc")
def test_importing_the_cli_starts_one_blas_thread():
    assert _import_cli({}) == ["1", "1"]
    # an explicit value wins (OpenBLAS caps its threads at the core count)
    assert _import_cli({"OPENBLAS_NUM_THREADS": "2"})[0] == "2"


@pytest.mark.parametrize("command", ["ingest", "all"])
def test_counter_beyond_int64_exits_before_writing(demo_feeds, tmp_path,
                                                   capsys, command):
    header, first, *rest = (demo_feeds / "counters.csv").read_text() \
        .splitlines(True)
    fields = first.split(",")
    fields[5] = "9" * 20
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    (feeds / "counters.csv").write_text(
        "".join([header, ",".join(fields)] + rest))
    out = tmp_path / "out"
    rc = run([command, "--counters", str(feeds / "counters.csv"),
              "--jobs", str(demo_feeds / "jobs.csv"), "--out", str(out)])
    assert rc == 1
    assert ("counter feed: value out of int64 range "
            f"'{'9' * 20}' (line 2, field 'write_kb')"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "all"])
def test_job_conflict_exits_before_writing(demo_feeds, tmp_path, capsys,
                                           command):
    header, first, *rest = (demo_feeds / "jobs.csv").read_text() \
        .splitlines(True)
    job_id, tail = first.split(",", 1)
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    (feeds / "jobs.csv").write_text(
        "".join([header, first, f"{job_id}-again,{tail}"] + rest))
    out = tmp_path / "out"
    rc = run([command, "--counters", str(demo_feeds / "counters.csv"),
              "--jobs", str(feeds / "jobs.csv"), "--out", str(out)])
    assert rc == 1
    assert "attribution conflict on node" in capsys.readouterr().err
    assert not out.exists()


def test_keys_with_a_lone_carriage_return_survive_the_store(tmp_path):
    from iorisk.ingest import COUNTER_HEADER
    rows = [",".join(COUNTER_HEADER)]
    for ts in range(360, 3600, 360):
        for node, fs in (('"a\rb"', "fs2"), ("n1", '"fs\r3"')):
            rows.append(",".join([str(ts), node, fs]
                                 + [str(ts * (c + 1)) for c in range(21)]))
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    (feeds / "counters.csv").write_text("\n".join(rows) + "\n", newline="")
    (feeds / "jobs.csv").write_text(
        "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"
        '"j\r1",p,"cmd\r","a\rb;n1",500,2000,24\n'
        "j2,p,cmd,n1,2000,3000,24\n", newline="")
    oneshot = tmp_path / "oneshot"
    assert _run_all(feeds, oneshot) == 0
    staged = tmp_path / "staged"
    assert run(["ingest", "--counters", str(feeds / "counters.csv"),
                "--jobs", str(feeds / "jobs.csv"),
                "--out", str(staged)]) == 0
    assert run(["analyze", "--out", str(staged)]) == 0
    assert run(["report", "--out", str(staged)]) == 0
    assert _tree_bytes(staged) == _tree_bytes(oneshot)
    store = oneshot / "store"
    assert b'\n"a\rb",fs2,' in (store / "node_usage.csv").read_bytes()
    assert b'\nn1,"fs\r3",' in (store / "node_usage.csv").read_bytes()
    assert b'\n"j\r1","fs\r3",' in (store / "job_usage.csv").read_bytes()
    assert (b'\n"j\r1",p,"cmd\r","a\rb;n1",'
            in (store / "jobs.csv").read_bytes())
    # every CSV, report artifacts included, reads back row by row
    for path in sorted(oneshot.rglob("*.csv")):
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        short = [r for r in rows if len(r) != len(header)]
        assert not short, (path.relative_to(oneshot), short[:3])


# --- the stored config -------------------------------------------------------

def _staged(feeds, out, ingest=(), analyze=(), report=()) -> list[int]:
    return [run(["ingest", "--counters", str(feeds / "counters.csv"),
                 "--jobs", str(feeds / "jobs.csv"), "--out", str(out),
                 *ingest]),
            run(["analyze", "--out", str(out), *analyze]),
            run(["report", "--out", str(out), *report])]


def test_staged_run_inherits_alpha_given_at_analyze(demo_feeds, tmp_path):
    staged = tmp_path / "staged"
    assert _staged(demo_feeds, staged, analyze=("--alpha", "3")) == [0] * 3
    oneshot = tmp_path / "oneshot"
    assert _run_all(demo_feeds, oneshot, ("--alpha", "3")) == 0
    assert _tree_bytes(staged) == _tree_bytes(oneshot)
    stored = json.loads((staged / "store" / "meta.json").read_text())
    assert stored["alpha"] == 3.0


@pytest.mark.parametrize("source", ["flag", "file"])
def test_changing_an_ingest_parameter_later_exits_before_writing(
        demo_feeds, tmp_path, capsys, source):
    out = tmp_path / "out"
    assert run(["ingest", "--counters", str(demo_feeds / "counters.csv"),
                "--jobs", str(demo_feeds / "jobs.csv"), "--out", str(out),
                "--bin-width", "600"]) == 0
    before = _tree_bytes(out)
    conf = tmp_path / "iorisk.conf"
    conf.write_text("bin_width_s = 360\n")
    given = (("--bin-width", "360") if source == "flag"
             else ("--config", str(conf)))
    capsys.readouterr()
    assert run(["analyze", "--out", str(out), *given]) == 1
    err = capsys.readouterr().err
    assert "bin_width_s" in err and "360" in err and "600" in err
    assert _tree_bytes(out) == before
    # the stored value itself is no conflict
    assert run(["analyze", "--out", str(out), "--bin-width", "600"]) == 0


def test_report_rejects_an_analyze_parameter_that_differs(demo_feeds,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--alpha", "3")) == 0
    before = _tree_bytes(out)
    assert run(["report", "--out", str(out), "--alpha", "2"]) == 1
    assert "alpha" in capsys.readouterr().err
    assert _tree_bytes(out) == before


def _meta_with(**values) -> str:
    """meta.json holding every Config field, the given ones garbled."""
    return json.dumps({**{name: f.default for name, f in FIELDS.items()},
                       **values}) + "\n"


@pytest.mark.parametrize("meta", [
    '{"bin_width_s": 360}\n', "[]\n",
    pytest.param(_meta_with(bin_width_s="360"), id="bin_width_s-a-string"),
    pytest.param(_meta_with(alpha=-1), id="alpha-below-its-bound"),
    pytest.param(_meta_with(day_offset_s=10 ** 20),
                 id="day_offset_s-past-int64")])
def test_store_without_the_full_config_exits(demo_feeds, tmp_path, capsys,
                                             meta):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out) == 0
    meta_json = out / "store" / "meta.json"
    meta_json.write_text(meta)
    before = _tree_bytes(out)
    for stage in ("analyze", "report"):
        assert run([stage, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"iorisk: store {meta_json}: ")
        assert "rerun the ingest stage" in err
    assert _tree_bytes(out) == before


@pytest.fixture(scope="module")
def metric_feeds(tmp_path_factory):
    """The metric preset with cores_per_node left empty in jobs.csv, so
    that --cores-per-node reaches the job summaries."""
    feeds = tmp_path_factory.mktemp("metric")
    generate(preset_scenario("metric"), feeds)
    jobs = feeds / "jobs.csv"
    header, *rows = jobs.read_text().splitlines(True)
    jobs.write_text("".join([header] + [r.rsplit(",", 1)[0] + ",\n"
                                        for r in rows]))
    return feeds


# A value other than the default for every Config field
NON_DEFAULT = {
    "bin_width_s": "720", "max_gap_bins": "1", "pre_differenced": None,
    "cores_per_node": "32", "alpha": "3", "beta": "0.5",
    "md_small_avg_threshold": "40", "baseline_days": "0.2",
    "quality_agg": "mean", "slowdown_factor": "1.05", "min_group": "2",
    "scatter_min_risk": "1", "top_k": "1", "day_offset_s": "3600",
}


@pytest.fixture(scope="module")
def metric_default(metric_feeds, tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert _run_all(metric_feeds, out) == 0
    return _tree_bytes(out)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_staged_equals_all_for_each_parameter_at_its_stage(
        metric_feeds, metric_default, tmp_path, name):
    meta = FIELDS[name].metadata
    flag = (meta["flag"],) + ((NON_DEFAULT[name],)
                              if NON_DEFAULT[name] is not None else ())
    staged = tmp_path / "staged"
    assert _staged(metric_feeds, staged, **{meta["stage"]: flag}) == [0] * 3
    oneshot = tmp_path / "oneshot"
    assert _run_all(metric_feeds, oneshot, flag) == 0
    assert _tree_bytes(staged) == _tree_bytes(oneshot)
    assert _tree_bytes(oneshot) != metric_default


def test_flags_config_keys_and_fields_are_one_set(tmp_path):
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for stage in ("ingest", "analyze", "report", "all"):
        actions = subparsers.choices[stage]._actions
        dests = {a.dest: a.option_strings for a in actions}
        config_dests = {d for d in dests if d in FIELDS}
        assert config_dests == set(FIELDS), stage
        for name, f in FIELDS.items():
            assert dests[name] == [f.metadata["flag"]]
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{name} = {NON_DEFAULT[name] or 'yes'}\n"
                            for name in FIELDS))
    assert set(load_config_file(conf)) == set(FIELDS)


def test_importing_the_cli_leaves_the_feed_generator_unloaded():
    import os
    import subprocess
    import sys

    import iorisk
    src = Path(iorisk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, iorisk.cli; print('iorisk.simgen' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_full_run_leaves_numpy_ma_unloaded(demo_feeds, tmp_path):
    # a bare np.unique(x) imports numpy.ma, about 15 ms of each process
    import os
    import subprocess
    import sys

    import iorisk
    src = Path(iorisk.__file__).resolve().parents[1]
    args = ["all", "--counters", str(demo_feeds / "counters.csv"),
            "--jobs", str(demo_feeds / "jobs.csv"), "--out",
            str(tmp_path / "out"), "--svg", "--probe",
            str(demo_feeds / "probe.csv")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from iorisk.cli import run; "
         "rc = run(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)",
         *args],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_fs_risk_series_has_rows_only_for_bins_with_job_rows(demo_feeds,
                                                             tmp_path):
    """Known defect, pinned: the fs risk series, and the correlation built
    on it, skips the bins no job has a row in, while each baseline counts
    every bin slot of its filesystem's span, idle ones as zeros."""
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out) == 0
    with open(out / "risk_timeseries.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    fs_bins = {(r["fs"], int(r["bin_start"])) for r in rows
               if r["subject"] == "__fs__"}
    assert fs_bins == {(r["fs"], int(r["bin_start"])) for r in rows
                       if r["subject"] != "__fs__"}
    with open(out / "store" / "node_usage.csv", newline="") as f:
        usage_bins = {(r["fs"], int(r["bin_start"]))
                      for r in csv.DictReader(f)}
    counts = {}
    for fs in sorted({fs for fs, _ in usage_bins}):
        bins = [b for f, b in usage_bins if f == fs]
        slots = (max(bins) - min(bins)) // 360 + 1
        counts[fs] = (sum(f == fs for f, _ in fs_bins), slots)
    assert counts == {"fs2": (130, 225), "fs3": (95, 236)}


def test_job_time_beyond_int64_exits_before_writing(demo_feeds, tmp_path,
                                                    capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text("job_id,project,command,nodes,start_ts,end_ts,"
                    "cores_per_node\n"
                    "j1,p,cmd,n1,1577836800,100000000000000000000,24\n")
    out = tmp_path / "out"
    rc = run(["all", "--counters", str(demo_feeds / "counters.csv"),
              "--jobs", str(jobs), "--out", str(out)])
    assert rc == 1
    assert ("job feed: value out of int64 range '100000000000000000000' "
            "(line 2, field 'end_ts')" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "all"])
def test_job_core_seconds_beyond_int64_exit_before_writing(
        demo_feeds, tmp_path, capsys, command):
    jobs = tmp_path / "jobs.csv"
    demo = (demo_feeds / "jobs.csv").read_text()
    jobs.write_text(demo + f"zz,p,cmd,zz_lonely,1,{2 ** 62},24\n")
    out = tmp_path / "out"
    rc = run([command, "--counters", str(demo_feeds / "counters.csv"),
              "--jobs", str(jobs), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "job zz: core-seconds of the jobs up to this one sum to" in err
    line = demo.count("\n") + 1
    assert f"beyond int64 (line {line}, field 'end_ts')" in err
    assert not out.exists()


BAD_PROBES = {
    "short-row": ("1577837100\n", "expected 2 fields, got 1 (line 2)"),
    "text-timestamp": ("abc,1.0\n",
                       "non-integer value 'abc' (line 2, field 'ts')"),
    "text-latency": ("1577837100,slow\n",
                     "non-numeric value 'slow' (line 2, field "
                     "'latency_ms')"),
    "nan-latency": ("1577837100,1.5\n1577843040,nan\n",
                    "non-finite value 'nan' (line 3, field 'latency_ms')"),
    "inf-latency": ("1577837100,-inf\n",
                    "non-finite value '-inf' (line 2, field "
                    "'latency_ms')"),
}


def _bad_probe(tmp_path, rows) -> Path:
    path = tmp_path / "probe.csv"
    path.write_text("ts,latency_ms\n" + rows)
    return path


@pytest.mark.parametrize("rows, message", BAD_PROBES.values(),
                         ids=BAD_PROBES)
def test_bad_probe_fails_all_before_writing(demo_feeds, tmp_path, capsys,
                                            rows, message):
    probe = _bad_probe(tmp_path, rows)
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--probe", str(probe))) == 1
    assert f"probe file {probe}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, message", BAD_PROBES.values(),
                         ids=BAD_PROBES)
def test_bad_probe_fails_report_before_writing(demo_feeds, tmp_path,
                                               capsys, rows, message):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--svg",)) == 0
    before = _tree_bytes(out)
    probe = _bad_probe(tmp_path, rows)
    # a report that got as far as writing would drop the SVGs
    assert run(["report", "--probe", str(probe), "--out", str(out)]) == 1
    assert f"probe file {probe}: {message}" in capsys.readouterr().err
    assert _tree_bytes(out) == before


BAD_ALIASES = {
    "not-json": ("{not json", "Expecting property name"),
    "a-list": ("[1, 2]", "expected a JSON object of command: label"),
    "a-number-label": ('{"cmd": 1}',
                       "expected a JSON object of command: label"),
}


def _bad_alias(tmp_path, text) -> Path:
    path = tmp_path / "alias.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text, message", BAD_ALIASES.values(),
                         ids=BAD_ALIASES)
def test_bad_alias_fails_all_before_writing(demo_feeds, tmp_path, capsys,
                                            text, message):
    alias = _bad_alias(tmp_path, text)
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--alias", str(alias))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"iorisk: alias file {alias}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", BAD_ALIASES.values(),
                         ids=BAD_ALIASES)
def test_bad_alias_fails_report_before_writing(demo_feeds, tmp_path,
                                               capsys, text, message):
    out = tmp_path / "out"
    assert _run_all(demo_feeds, out, ("--svg",)) == 0
    before = _tree_bytes(out)
    alias = _bad_alias(tmp_path, text)
    # --top-k would change meta.json, had report got as far as writing it
    assert run(["report", "--alias", str(alias), "--top-k", "1",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"iorisk: alias file {alias}: ") and message in err
    assert _tree_bytes(out) == before


def _header_only_counters(demo_feeds, feeds):
    header = (demo_feeds / "counters.csv").read_text().splitlines(True)[0]
    (feeds / "counters.csv").write_text(header)
    shutil.copy(demo_feeds / "jobs.csv", feeds / "jobs.csv")


def _jobs_without_usage(demo_feeds, feeds):
    shutil.copy(demo_feeds / "counters.csv", feeds / "counters.csv")
    (feeds / "jobs.csv").write_text(
        "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"
        "j1,p,cmd,idle1;idle2,1577836800,1577840400,24\n"
        "j2,p,cmd,idle3,1577836800,1577850400,\n")


@pytest.mark.parametrize("make_feeds", [_header_only_counters,
                                        _jobs_without_usage])
def test_feeds_with_no_job_usage_run_and_staged_equals_all(
        demo_feeds, tmp_path, make_feeds):
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    make_feeds(demo_feeds, feeds)
    extra = ("--svg", "--probe", str(demo_feeds / "probe.csv"))
    assert _run_all(feeds, tmp_path / "all", extra) == 0
    assert _staged(feeds, tmp_path / "staged", report=extra) == [0, 0, 0]
    assert _tree_bytes(tmp_path / "all") == _tree_bytes(tmp_path / "staged")
    lines = (tmp_path / "all" / "risk_timeseries.csv").read_text()
    assert lines.count("\n") == 1  # header only: no job-bin rows


def test_a_store_write_that_fails_exits_before_the_analysis(demo_feeds,
                                                            tmp_path, capsys):
    out = tmp_path / "out"
    path = out / "store" / "node_usage.csv"
    path.mkdir(parents=True)  # the write cannot open it
    assert _run_all(demo_feeds, out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("iorisk: ")
    assert repr(str(path)) in captured.err, captured.err
    assert captured.out == ""
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "store", "store/meta.json", "store/node_usage.csv"]


def test_all_forks_no_process_for_a_feed_under_one_segment(demo_feeds,
                                                           tmp_path):
    from unittest import mock

    from iorisk import _fork, ingest
    assert (demo_feeds / "counters.csv").stat().st_size \
        < ingest._SEGMENT_BYTES
    with mock.patch.object(_fork, "usable_cpus", lambda: 2), \
            mock.patch.object(ingest, "_usable_cpus", lambda: 2), \
            mock.patch.object(_fork, "fork", wraps=_fork.fork) as fork, \
            mock.patch.object(ingest, "fork", fork):
        assert _run_all(demo_feeds, tmp_path / "out") == 0
    assert fork.call_count == 0
