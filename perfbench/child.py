"""Run one iorisk CLI command and record its own peak RSS and, if asked,
a span around each pipeline layer.

Usage: python child.py STATS_JSON TRACE RUN_ID CLI_ARGS...

STATS_JSON receives, when the command ends, the process's VmHWM (peak
RSS of this program image only: the ru_maxrss that wait4 reports for a
spawned child also counts the spawning process's own peak) and, with
TRACE=1, the spans. For those, each function in TARGETS is replaced, where
the pipeline looks it up, by a wrapper that records (name, start, end,
parent span) in memory. No pipeline source changes; a target missing from
the program is listed in the file instead.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module where the pipeline looks the function up, attribute, span name)
TARGETS = (
    ("iorisk.cli", "cmd_ingest", "cli.cmd_ingest"),
    ("iorisk.cli", "cmd_analyze", "cli.cmd_analyze"),
    ("iorisk.cli", "cmd_report", "cli.cmd_report"),
    ("iorisk.ingest", "parse_counter_feed", "ingest.parse_counter_feed"),
    ("iorisk.ingest", "parse_job_feed", "ingest.parse_job_feed"),
    ("iorisk.store", "parse_job_feed", "ingest.parse_job_feed"),
    ("iorisk.cli", "deltify_and_bin", "ingest.deltify_and_bin"),
    ("iorisk._kernels", "deltify_pairs", "kernels.deltify_pairs"),
    ("iorisk.cli", "attribute_usage", "attribute.attribute_usage"),
    ("iorisk._kernels", "attribute_shares", "kernels.attribute_shares"),
    ("iorisk.cli", "fs_bin_totals", "attribute.fs_bin_totals"),
    ("iorisk.cli", "compute_baselines", "metrics.compute_baselines"),
    ("iorisk.cli", "compute_job_metrics", "metrics.compute_job_metrics"),
    ("iorisk.cli", "compute_fs_metrics", "metrics.compute_fs_metrics"),
    ("iorisk._kernels", "risk_contribs", "kernels.risk_contribs"),
    ("iorisk.cli", "summarize_jobs", "analytics.summarize_jobs"),
    ("iorisk.cli", "detect_slowdown", "analytics.detect_slowdown"),
    ("iorisk.cli", "build_scatter", "analytics.build_scatter"),
    ("iorisk.cli", "emit_timeseries", "report.emit_timeseries"),
    ("iorisk.cli", "write_risk_timeseries_csv",
     "report.write_risk_timeseries_csv"),
    ("iorisk.cli", "build_heatmap", "report.heatmaps"),
    ("iorisk.cli", "write_heatmap_csv", "report.heatmaps"),
    ("iorisk.cli", "render_heatmap_svg", "report.heatmaps"),
    ("iorisk.cli", "correlate_series", "report.correlate_series"),
    ("iorisk.store", "write_node_usage", "store.write_node_usage"),
    ("iorisk.store", "read_node_usage", "store.read_node_usage"),
    ("iorisk.store", "write_job_usage", "store.write_job_usage"),
    ("iorisk.store", "read_job_usage", "store.read_job_usage"),
)


class Recorder:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent]
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][1:3] = start, end

        return traced

    def to_json(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [{"name": n, "start": s, "end": e, "parent": p,
                           "run_id": self.run_id}
                          for n, s, e, p in self.spans]}


def peak_rss_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    stats_path, trace, run_id, cli_args = (argv[0], argv[1] == "1", argv[2],
                                           argv[3:])
    rec = Recorder(run_id)
    missing = []
    for module, attr, name in TARGETS if trace else ():
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
        else:
            setattr(mod, attr, rec.wrap(fn, name))
    from iorisk.cli import run

    try:
        return run(cli_args)
    finally:
        with open(stats_path, "w") as f:
            json.dump({**rec.to_json(), "missing": missing,
                       "peak_rss_kb": peak_rss_kb()}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
