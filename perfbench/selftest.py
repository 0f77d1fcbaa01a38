"""Self-test of the benchmark harness at toy scale (a few seconds).

Usage: python3 perfbench/selftest.py

Runs each workload shape on a toy feed with tracing on and checks that the
harness reports every metric BENCHMARK.json names, that its correctness
checks catch corrupted outputs, that the off-grid builder keeps its
promises, that compare.py refuses mixed backends, and that run.py fails
without printing a result when the program's sources are absent.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import compare
import run
import workloads

ROOT = run.ROOT
SEED = 3
# Toy sizes of the same workload shapes.
TOY_WORKLOADS = {
    name: dataclasses.replace(w, count_mult=0.02, nodes=16 * len(
        w.filesystems), days=1)
    for name, w in workloads.WORKLOADS.items()}


def check_metric_names(spec) -> None:
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"], w
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.LAYER_METRICS)


def check_toy_runs(spec, work: Path) -> None:
    wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, w in TOY_WORKLOADS.items():
        result = run.bench(w, SEED, 0, True, work / name)
        assert result.failed == 0, [r.failures for r in result.runs]
        assert set(result.metrics) == wanted, set(result.metrics) ^ wanted
        m = result.metrics
        assert m["ingest.parse_counter_feed.s"] > 0
        assert m["metrics.compute_job_metrics.calls"] == 2
        assert (m["ingest.deltify_and_bin.multi_span_pairs"] > 0) \
            == w.offgrid, name
        assert (m["attribute.attribute_usage.partial_node_bins"] > 0) \
            == w.offgrid, name
        with contextlib.redirect_stdout(io.StringIO()):
            summary = run.report(result, True)
        assert summary["correct"] and summary["failed"] == 0
        print(f"selftest: toy {name} ok "
              f"({m['trace.wall_s']:.2f} s traced)")


def check_offgrid_builder(work: Path) -> None:
    w = TOY_WORKLOADS["offgrid-busy"]
    feeds = workloads.build(w, SEED, work)
    s = workloads.read_snapshots(feeds.counters)
    lo, hi = workloads.OFFGRID_CADENCE_S
    for node in range(len(s.node_names)):
        steps = np.diff(np.sort(s.ts[s.node == node]))
        assert steps.min() >= lo and steps.max() <= hi, steps
    for _, start, end in feeds.job_edges:
        assert start % feeds.bin_width and end % feeds.bin_width
    assert feeds.ledger_job_totals is None
    print("selftest: off-grid builder ok")


def check_corruption_caught(work: Path) -> None:
    w = TOY_WORKLOADS["grid-week"]
    feeds = workloads.build(w, SEED, work)
    out = work / "out"
    cmds = run.pipeline_commands(w, feeds, out, staged=False)
    s, _ = run.run_pipeline(cmds, out, work / "log",
                            time.perf_counter() + 120)
    assert s.rc == 0
    fails, reference, _ = checks.check_run(out, feeds, None)
    assert not fails, fails

    node_usage = out / "store" / "node_usage.csv"
    original = node_usage.read_text()
    lines = original.splitlines()
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    node_usage.write_text("\n".join([lines[0], ",".join(cells)]
                                    + lines[2:]) + "\n")
    fails, _, _ = checks.check_run(out, feeds, reference)
    assert any("vs feed" in f for f in fails), fails
    assert any("digest" in f for f in fails), fails
    node_usage.write_text(original)

    summary = out / "job_summary.csv"
    summary.write_text(summary.read_text().replace(",0,", ",1,", 1))
    fails, _, _ = checks.check_run(out, feeds, reference)
    assert any("job summary" in f for f in fails), fails
    print("selftest: corrupted outputs are caught")


def check_compare_refuses_mixed_backends(work: Path) -> None:
    for side, backend in (("a", "numpy"), ("b", "numba")):
        (work / f"{side}.json").write_text(json.dumps(
            {"env": {"workload": "grid-week", "kernel_backend": backend},
             "metrics": {"wall_s": 1.0}}))
    rc = compare.main([str(work / "a.json"), str(work / "b.json")])
    assert rc == 3, rc
    print("selftest: compare refuses mixed backends")


def check_fails_without_program(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-week",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and not p.stdout, (p.returncode, p.stdout)
    print("selftest: run.py fails without the program's sources")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / run.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_metric_names(spec)
        for step in (check_toy_runs, check_offgrid_builder,
                     check_corruption_caught,
                     check_compare_refuses_mixed_backends,
                     check_fails_without_program):
            d = work / step.__name__
            d.mkdir(parents=True)
            if step is check_toy_runs:
                step(spec, d)
            else:
                step(d)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
