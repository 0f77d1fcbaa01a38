"""Benchmark workloads: feed generation, the off-grid builder and the
totals the pipeline's outputs are checked against.

Every workload starts from the ``perf`` preset of ``iorisk.simgen`` (seeded
from the benchmark seed). The off-grid workload then resamples simgen's
on-grid cumulative streams at a per-node phase and a jittered cadence and
moves every job edge inward off the bin grid. The program only ever sees
``feeds/counters.csv``, ``feeds/jobs.csv`` and ``feeds/probe.csv``; the
simgen ledger is moved to ``ref/`` before any run.
"""
from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Cadence range of the off-grid collector, seconds. The maximum must stay
# at or below max_gap_bins * bin width (3 * 360 = 1080 s), so that no
# snapshot pair is dropped as a long gap and feed totals stay exact.
OFFGRID_CADENCE_S = (700, 1000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    count_mult: float         # multiplier on the perf template counts
    nodes: int
    filesystems: tuple[str, ...]
    days: int = 7
    offgrid: bool = False     # resample snapshots and job edges off-grid
    staged: bool = False      # ingest/analyze/report instead of all
    probe_svg: bool = False   # --probe and --svg on the report


# BENCHMARK.json lists grid-week and offgrid-busy. scale-2fs runs on
# request only: it costs about 45 s per invocation, and with it in the set
# the measuring window has to shrink to 20 s, which was not steady on a
# 2-core machine whose speed shifts by tens of percent from minute to minute.
WORKLOADS = {
    "grid-week": Workload(
        "grid-week",
        "perf preset with probe, staged ingest/analyze/report: counter "
        "parsing dominates, full writer set and store round trip",
        count_mult=1, nodes=200, filesystems=("fs2",),
        staged=True, probe_svg=True),
    "offgrid-busy": Workload(
        "offgrid-busy",
        "5x job density over 3 days, snapshots at a jittered 700-1000 s "
        "cadence and job edges off the grid: multi-bin deltify and "
        "partial-bin attribution",
        # 3 days, not 7: one run then takes 5-6 s on 2 cores, so a window
        # holds enough runs for a steady median
        count_mult=5 * 3 / 7, nodes=200, filesystems=("fs2",), days=3,
        offgrid=True),
    "scale-2fs": Workload(
        "scale-2fs",
        "1.5x jobs on 300 nodes and two filesystems, on-grid: the largest "
        "feed, where parse time and peak memory grow with rows",
        count_mult=1.5, nodes=300, filesystems=("fs2", "fs3")),
}

@dataclass
class Snapshots:
    """Counter snapshot rows, one per (ts, node, fs)."""

    header: str
    ts: np.ndarray       # int64 (n,)
    node: np.ndarray     # int64 (n,), index into node_names
    fs: np.ndarray       # int64 (n,), index into fs_names
    values: np.ndarray   # int64 (n, 21)
    node_names: np.ndarray
    fs_names: np.ndarray


@dataclass
class Feeds:
    """Generated inputs of one workload plus what their outputs must be."""

    counters: Path
    jobs: Path
    probe: Path | None
    ledger_job_totals: dict[str, list[int]] | None  # on-grid only
    fs_totals: dict[str, np.ndarray]  # fs -> sum over streams of last-first
    counter_names: tuple[str, ...]
    rows: int
    bytes: int
    n_jobs: int
    n_nodes: int
    pairs: int
    multi_span_pairs: int            # pairs covering 3 or more bins
    bin_width: int
    job_edges: list[tuple[str, int, int]]  # (nodes ';'-joined, start, end)


def scenario(w: Workload, seed: int):
    from iorisk import simgen

    base = simgen.preset_scenario("perf", seed=seed)
    templates = tuple(
        dataclasses.replace(t, count=max(1, round(t.count * w.count_mult)))
        for t in base.templates)
    return dataclasses.replace(
        base, node_count=w.nodes, filesystems=w.filesystems,
        duration_s=w.days * 86400, templates=templates,
        emit_probe=w.probe_svg)


def read_snapshots(path: Path) -> Snapshots:
    with open(path) as f:
        header = f.readline().rstrip("\n")
    n_cols = len(header.split(","))
    nums = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                      usecols=[0] + list(range(3, n_cols)), ndmin=2)
    keys = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str,
                      usecols=(1, 2), ndmin=2)
    node_names, node = np.unique(keys[:, 0], return_inverse=True)
    fs_names, fs = np.unique(keys[:, 1], return_inverse=True)
    return Snapshots(header, nums[:, 0].copy(), node.astype(np.int64),
                     fs.astype(np.int64), np.ascontiguousarray(nums[:, 1:]),
                     node_names, fs_names)


def write_snapshots(s: Snapshots, path: Path) -> None:
    order = np.lexsort((s.node, s.fs, s.ts))  # collector order: by time
    ts = s.ts[order].tolist()
    nodes = s.node_names[s.node[order]].tolist()
    fss = s.fs_names[s.fs[order]].tolist()
    vals = s.values[order].tolist()
    with open(path, "w") as f:
        f.write(s.header + "\n")
        f.writelines(f"{t},{n},{fs}," + ",".join(map(str, v)) + "\n"
                     for t, n, fs, v in zip(ts, nodes, fss, vals))


def resample_offgrid(s: Snapshots, start_ts: int, bin_width: int,
                     rng) -> Snapshots:
    """Resample on-grid cumulative streams at off-grid times.

    Each node's collector starts at a random phase and then samples at a
    jittered cadence drawn from OFFGRID_CADENCE_S. A value between two grid
    snapshots is the earlier one plus the floor of the linearly
    interpolated increment, so every stream stays monotone (no spurious
    resets) and its last-minus-first is known exactly.
    """
    w = bin_width
    n_nodes, n_fs = len(s.node_names), len(s.fs_names)
    stream = s.node * n_fs + s.fs
    order = np.lexsort((s.ts, stream))
    n_steps = len(s.ts) // (n_nodes * n_fs)
    cum = s.values[order].reshape(n_nodes * n_fs, n_steps, -1)
    grid = s.ts[order].reshape(n_nodes * n_fs, n_steps)
    if not (grid == start_ts + w * np.arange(n_steps)).all():
        raise ValueError("off-grid builder needs every stream sampled on "
                         "the full bin grid")
    span = (n_steps - 1) * w
    cum = np.concatenate((cum, cum[:, -1:]), axis=1)  # t == span lookups
    lo, hi = OFFGRID_CADENCE_S
    ts_out, node_out, fs_out, val_out = [], [], [], []
    max_samples = span // lo + 2
    for node in range(n_nodes):
        steps = rng.integers(lo, hi + 1, size=max_samples)
        t_rel = int(rng.integers(0, hi)) + np.concatenate(
            ([0], np.cumsum(steps[:-1])))
        t_rel = t_rel[t_rel <= span]
        k = t_rel // w
        frac = (t_rel - k * w)[:, None]
        for fs in range(n_fs):
            c = cum[node * n_fs + fs]
            val_out.append(c[k] + ((c[k + 1] - c[k]) * frac) // w)
            ts_out.append(start_ts + t_rel)
            node_out.append(np.full(len(t_rel), node, dtype=np.int64))
            fs_out.append(np.full(len(t_rel), fs, dtype=np.int64))
    return Snapshots(s.header, np.concatenate(ts_out),
                     np.concatenate(node_out), np.concatenate(fs_out),
                     np.concatenate(val_out), s.node_names, s.fs_names)


def move_job_edges(path: Path, bin_width: int, rng) -> None:
    """Move each job's start and end 1 to w-1 s inward, off the grid.

    Shrinking every interval keeps node allocation exclusive. Each move is
    also capped below half the runtime, so a one-bin job keeps a positive
    length.
    """
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    i_start, i_end = header.index("start_ts"), header.index("end_ts")
    for row in body:
        start, end = int(row[i_start]), int(row[i_end])
        cap = min(bin_width - 1, (end - start) // 2 - 1)
        a, b = rng.integers(1, cap + 1, size=2)
        row[i_start], row[i_end] = str(start + a), str(end - b)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header] + body)


def _read_job_edges(path: Path) -> list[tuple[str, int, int]]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return [(r["nodes"], int(r["start_ts"]), int(r["end_ts"]))
                for r in reader]


def feed_totals(s: Snapshots, bin_width: int):
    """Per-fs sum over streams of (last - first), plus pair counts.

    Raises if a stream ever decreases: the builder must emit monotone
    streams, or last - first would not be what the pipeline conserves.
    """
    w = bin_width
    n_fs = len(s.fs_names)
    stream = s.node * n_fs + s.fs
    order = np.lexsort((s.ts, stream))
    st, ts, vals = stream[order], s.ts[order], s.values[order]
    same = st[1:] == st[:-1]
    if (vals[1:][same] < vals[:-1][same]).any():
        raise ValueError("generated counter stream decreases")
    t0, t1 = ts[:-1][same], ts[1:][same]
    bins_covered = (w * ((t1 - 1) // w) - w * (t0 // w)) // w + 1
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    last = np.concatenate((first[1:] - 1, [len(st) - 1]))
    growth = vals[last] - vals[first]
    fs_of = st[first] % n_fs
    totals = {}
    for i, name in enumerate(s.fs_names.tolist()):
        totals[name] = growth[fs_of == i].sum(axis=0)
    return totals, int(same.sum()), int((bins_covered >= 3).sum())


def build(w: Workload, seed: int, work: Path) -> Feeds:
    """Generate the workload's feeds under work/feeds and its checks."""
    from iorisk import simgen

    spec = scenario(w, seed)
    feeds, ref = work / "feeds", work / "ref"
    ref.mkdir(parents=True, exist_ok=True)
    ledger = simgen.generate(spec, feeds)
    (feeds / "ledger.json").replace(ref / "ledger.json")
    counters, jobs = feeds / "counters.csv", feeds / "jobs.csv"
    snaps = read_snapshots(counters)
    if w.offgrid:
        rng = np.random.default_rng([seed, 1])
        snaps = resample_offgrid(snaps, spec.start_ts, spec.bin_width_s,
                                 rng)
        write_snapshots(snaps, counters)
        move_job_edges(jobs, spec.bin_width_s, rng)
    totals, pairs, multi = feed_totals(snaps, spec.bin_width_s)
    edges = _read_job_edges(jobs)
    return Feeds(
        counters=counters, jobs=jobs,
        probe=feeds / "probe.csv" if w.probe_svg else None,
        ledger_job_totals=None if w.offgrid else ledger.job_totals,
        fs_totals=totals,
        counter_names=tuple(snaps.header.split(",")[3:]),
        rows=len(snaps.ts), bytes=counters.stat().st_size,
        n_jobs=len(edges), n_nodes=len(snaps.node_names),
        pairs=pairs, multi_span_pairs=multi,
        bin_width=spec.bin_width_s, job_edges=edges)
