"""End-to-end benchmark of the iorisk pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's feeds from the seed (see workloads.py) and
the totals the outputs are checked against. The benchmark then runs the
real CLI (``iorisk.cli.run``) on them again and again for S seconds, one
fresh interpreter per command and one command at a time, and checks every
run's outputs (checks.py). Every command runs under child.py, which
reports its peak RSS; with ``--trace 1`` one more run has child.py record
a span around each layer, and their self times and the counts measured
from outside are the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
(environment, every run, every span) goes to .perfbench_results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"
# Every invocation must end within 180 s; stop starting runs well before.
DEADLINE_S = 165.0
MB = 2 ** 20
# Set-up (feed generation and expected totals) is timed this many times and
# its median reported; one build is a few seconds and noisy on its own.
SETUP_REPEATS = 3

E2E_METRICS = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
)

# Self time of each traced layer, in seconds.
_SELF_TIMES = tuple(dict.fromkeys(name for _, _, name in child.TARGETS))
LAYER_METRICS = tuple((f"{n}.s", "s") for n in _SELF_TIMES) + (
    ("ingest.parse_counter_feed.rows_per_s", "rows/s"),
    ("ingest.parse_counter_feed.mb_per_s", "MB/s"),
    ("ingest.deltify_and_bin.pairs", "count"),
    ("ingest.deltify_and_bin.multi_span_pairs", "count"),
    ("ingest.deltify_and_bin.rows_out", "rows"),
    ("attribute.attribute_usage.rows_out", "rows"),
    ("attribute.attribute_usage.partial_node_bins", "count"),
    ("attribute.attribute_usage.attributed_mass_ratio", "ratio"),
    ("attribute.fs_bin_totals.calls", "count"),
    ("metrics.compute_job_metrics.calls", "count"),
    ("store.read_node_usage.calls", "count"),
    ("store.bytes_written", "bytes"),
    ("report.bytes_out", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Sample:
    """One pipeline run: all its commands, in fresh interpreters."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    rc: int = 0
    kind: str = "timed"
    failures: list[str] = field(default_factory=list)


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def spawn(argv: list[str], log: Path, timeout: float):
    """Run python with argv; return (rc, wall, rusage of that child)."""
    if timeout <= 0:
        raise Timeout
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return os.waitstatus_to_exitcode(status), wall, usage


def pipeline_commands(w, feeds, out: Path, staged: bool) -> list[list[str]]:
    c, j, o = str(feeds.counters), str(feeds.jobs), str(out)
    report = ["--svg", "--probe", str(feeds.probe)] if w.probe_svg else []
    if staged:
        return [["ingest", "--counters", c, "--jobs", j, "--out", o],
                ["analyze", "--out", o],
                ["report", *report, "--out", o]]
    return [["all", "--counters", c, "--jobs", j, *report, "--out", o]]


def run_pipeline(cmds, out: Path, log: Path, deadline: float,
                 trace: bool = False) -> tuple[Sample, list[dict]]:
    """Run the commands one after another into a fresh out directory.

    Returns the run and what child.py recorded for each command.
    """
    shutil.rmtree(out, ignore_errors=True)
    s, docs = Sample(), []
    stats = log.with_name("child-stats.json")
    for cmd in cmds:
        stats.unlink(missing_ok=True)
        argv = [str(HERE / "child.py"), str(stats), str(int(trace)), cmd[0],
                *cmd]
        try:
            rc, wall, usage = spawn(argv, log,
                                    deadline - time.perf_counter())
        except Timeout:
            s.rc = -signal.SIGKILL
            s.failures.append(f"{cmd[0]} hit the benchmark deadline")
            return s, docs
        s.wall_s += wall
        s.cpu_s += usage.ru_utime + usage.ru_stime
        if stats.exists():
            docs.append(json.loads(stats.read_text()))
            s.peak_rss_mb = max(s.peak_rss_mb,
                                docs[-1]["peak_rss_kb"] * 1024 / MB)
        if rc:
            s.rc = rc
            s.failures.append(f"{cmd[0]} exited with {rc}; see {log}")
            return s, docs
    return s, docs


def self_times(docs: list[dict]) -> tuple[dict, Counter]:
    """Per span name: duration minus the time its child spans cover."""
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] >= 0:
                child[sp["parent"]] += sp["end"] - sp["start"]
        for sp, c in zip(spans, child):
            own[sp["name"]] += sp["end"] - sp["start"] - c
            calls[sp["name"]] += 1
    return own, calls


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def layer_metrics(docs, traced: Sample, wall_s: float, feeds, tables,
                  out: Path) -> dict[str, float]:
    own, calls = self_times(docs)
    m = {f"{n}.s": own.get(n, 0.0) for n in _SELF_TIMES}
    parse_s = own.get("ingest.parse_counter_feed", 0.0)
    m["ingest.parse_counter_feed.rows_per_s"] = (
        feeds.rows / parse_s if parse_s else 0.0)
    m["ingest.parse_counter_feed.mb_per_s"] = (
        feeds.bytes / MB / parse_s if parse_s else 0.0)
    m["ingest.deltify_and_bin.pairs"] = feeds.pairs
    m["ingest.deltify_and_bin.multi_span_pairs"] = feeds.multi_span_pairs
    nu, ju = tables.node_usage, tables.job_usage
    m["ingest.deltify_and_bin.rows_out"] = len(nu)
    m["attribute.attribute_usage.rows_out"] = len(ju)
    m["attribute.attribute_usage.partial_node_bins"] = partial_node_bins(
        nu, feeds)
    node_mass = int(nu.values.sum())
    m["attribute.attribute_usage.attributed_mass_ratio"] = (
        int(ju.values.sum()) / node_mass if node_mass else 0.0)
    for n in ("attribute.fs_bin_totals", "metrics.compute_job_metrics",
              "store.read_node_usage"):
        m[f"{n}.calls"] = calls.get(n, 0)
    store_bytes = _tree_bytes(out / "store")
    m["store.bytes_written"] = store_bytes
    m["report.bytes_out"] = _tree_bytes(out) - store_bytes
    m["trace.wall_s"] = traced.wall_s
    m["trace.overhead_s"] = traced.wall_s - wall_s
    return m


def partial_node_bins(node_usage, feeds) -> int:
    """Node-bin rows that a job edge cuts, so attribution must split them."""
    w = feeds.bin_width
    cut = {(node, w * (t // w))
           for nodes, start, end in feeds.job_edges
           for t in (start, end) if t % w
           for node in nodes.split(";")}
    return sum((n, b) in cut for n, b in zip(
        node_usage.keys["node"].tolist(),
        map(int, node_usage.keys["bin_start"].tolist())))


def environment(feeds, w, seed: int) -> dict:
    import numpy

    try:
        from iorisk import _kernels
        backend = _kernels.backend_name()
    except (ImportError, AttributeError):
        backend = None
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": backend,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "workload": w.name, "seed": seed,
            "rows": feeds.rows, "bytes": feeds.bytes, "jobs": feeds.n_jobs,
            "nodes": feeds.n_nodes, "filesystems": len(feeds.fs_totals)}


@dataclass
class Result:
    env: dict
    setup_s: float
    runs: list[Sample]
    metrics: dict[str, float]
    units: dict[str, str]
    spans: list[dict]
    notes: list[str]

    @property
    def failed(self) -> int:
        return sum(bool(s.failures) for s in self.runs)


def bench(w, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    """Set up one workload, then time, check and optionally trace it."""
    import checks
    import workloads

    deadline = time.perf_counter() + DEADLINE_S
    log = work / "pipeline.log"
    out = work / "out"
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        feeds = workloads.build(w, seed, work)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(builds)
    cmds = pipeline_commands(w, feeds, out, w.staged)
    runs: list[Sample] = []
    reference = None
    if w.staged:
        # the staged runs are checked against the digest of one `all` run
        ref_out = work / "ref_out"
        s, _ = run_pipeline(pipeline_commands(w, feeds, ref_out, False),
                            ref_out, log, deadline)
        s.kind = "reference"
        fails, reference, _ = checks.check_run(ref_out, feeds, None)
        s.failures += fails
        runs.append(s)
        shutil.rmtree(ref_out, ignore_errors=True)

    timed: list[Sample] = []
    t_measure = time.perf_counter()
    while True:
        s, _ = run_pipeline(cmds, out, log, deadline)
        if not s.rc:
            fails, digests, _ = checks.check_run(out, feeds, reference)
            s.failures += fails
            if reference is None and not fails:
                reference = digests  # first clean run fixes the reference
        runs.append(s)
        timed.append(s)
        now = time.perf_counter()
        reserve = (2.5 if trace else 1.5) * s.wall_s + 5
        if s.rc or now - t_measure >= seconds or now + reserve > deadline:
            break

    wall_s = statistics.median(s.wall_s for s in timed)
    metrics = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(s.cpu_s for s in timed),
        "rows_per_s": feeds.rows / wall_s if wall_s else 0.0,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in timed),
        "setup_s": setup_s,
    }
    units = dict(E2E_METRICS)
    spans: list[dict] = []
    notes: list[str] = []
    if trace:
        s, docs = run_pipeline(cmds, out, log, deadline, trace=True)
        s.kind = "traced"
        tables = None
        if not s.rc:
            fails, _, tables = checks.check_run(out, feeds, reference)
            s.failures += fails
        runs.append(s)
        spans = [sp for d in docs for sp in d["spans"]]
        notes += [f"trace target absent from the program, its metrics "
                  f"read 0: {m}"
                  for m in sorted({m for d in docs for m in d["missing"]})]
        if tables is not None:
            metrics.update(layer_metrics(docs, s, wall_s, feeds, tables,
                                         out))
        units.update(LAYER_METRICS)
    result = Result(environment(feeds, w, seed), setup_s, runs, metrics,
                    units, spans, notes)
    metrics["success_rate"] = 1.0 - result.failed / len(runs)
    return result


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(result: Result, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    runs = result.runs
    print(f"perfbench {result.env['workload']} seed {result.env['seed']}: "
          f"{sum(r.kind == 'timed' for r in runs)} timed runs, "
          f"{len(runs)} attempted, {result.failed} failed")
    print("env " + json.dumps(result.env, sort_keys=True))
    for r in runs:
        for f in r.failures:
            print(f"FAILED {r.kind} run: {f}")
    for note in result.notes:
        print(f"note: {note}")
    names = [n for n, _ in E2E_METRICS]
    for n in names:
        if n in result.metrics:
            print(f"  {n:<44} {_fmt(result.metrics[n]):>14} "
                  f"{result.units[n]}")
        if n == "success_rate":
            print(f"  {'error_rate':<44} "
                  f"{_fmt(result.failed / len(runs)):>14} ratio")
    if trace:
        names = [n for n, _ in LAYER_METRICS]
        for n in names:
            if n in result.metrics:
                print(f"  {n:<44} {_fmt(result.metrics[n]):>14} "
                      f"{result.units[n]}")
    return {"correct": result.failed == 0,
            "attempted": len(runs),
            "failed": result.failed,
            "metrics": {n: {"value": result.metrics[n],
                            "unit": result.units[n]}
                        for n in names if n in result.metrics}}


def save(result: Result, trace: bool, summary: dict) -> Path:
    d = ROOT / RESULTS_DIR
    d.mkdir(exist_ok=True)
    path = d / (f"{result.env['workload']}-seed{result.env['seed']}"
                f"-trace{int(trace)}.json")
    path.write_text(json.dumps({
        "env": result.env, "trace": trace, "setup_s": result.setup_s,
        "runs": [asdict(r) for r in result.runs],
        "metrics": result.metrics, "units": result.units,
        "notes": result.notes, "summary": summary, "spans": result.spans},
        indent=1) + "\n")
    return path


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through spawn, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    args = parse_args(argv)
    if not (ROOT / "src" / "iorisk" / "cli.py").is_file():
        print(f"perfbench: no iorisk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = ROOT / WORK_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench(workloads.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = report(result, bool(args.trace))
    path = save(result, bool(args.trace), summary)
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
