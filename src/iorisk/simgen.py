"""Deterministic synthetic workload generator with a ground-truth ledger.

Generates counters.csv / jobs.csv feeds (schema-identical to real inputs)
plus ledger.json holding the exact per-job and per-fs-bin totals the
pipeline must recover. Jobs are aligned to the reporting cadence and nodes
are exclusively allocated, so the whole conservation chain is exact.
Identical seeds produce byte-identical output.
"""
from __future__ import annotations

import json
import math
import types
import typing
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _kernels
from .ingest import (CounterFeed, job_table, write_counter_csv, write_csv,
                     write_jobs_csv)
from .ops import (COUNTER_NAMES, MDS_SLICE, N_COUNTERS,
                  READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)
from .report import node_bin_label, volume_bin_label

PATTERNS = ("streaming-write", "small-read", "metadata-storm", "task-farm",
            "idle")

# 2020-01-01 00:00:00 UTC; divisible by 360 and a UTC midnight
DEFAULT_START_TS = 1_577_836_800

# no pattern books more counts of one counter on one node in one bin, per
# unit of intensity above 1 (the most is streaming-write's write_kb: 1024
# per op, up to 1,199 ops)
PEAK_COUNT = 2 ** 21

_COL = {name: i for i, name in enumerate(COUNTER_NAMES)}


class ScenarioError(ValueError):
    pass


def _is_kind(value, kind) -> bool:
    """value is of the annotated kind: a bool is no int, an int is a
    float, and a tuple[...] holds its items' kinds."""
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):
        return any(_is_kind(value, k) for k in args)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_is_kind(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_is_kind, value, args))
    if kind in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_kinds(spec, where: str = "") -> None:
    """Raise ScenarioError naming the first field of a scenario dataclass
    whose value is not of its annotated kind."""
    kinds = typing.get_type_hints(type(spec))
    for field in fields(spec):
        value = getattr(spec, field.name)
        if not _is_kind(value, kinds[field.name]):
            raise ScenarioError(f"{where}{field.name} must be {field.type}, "
                                f"got {value!r:.60}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(f"{where}{field.name} must be finite, "
                                f"got {value!r}")


def _bounds(value) -> tuple[int, int]:
    """The (lo, hi) of a fixed int or an inclusive range."""
    return (value, value) if isinstance(value, int) else value


@dataclass(frozen=True)
class JobTemplate:
    """A family of runs sharing a command and an I/O pattern."""

    name: str
    command: str
    project: str
    pattern: str
    count: int
    nodes: int | tuple[int, int] = 1           # fixed or inclusive range
    runtime_bins: int | tuple[int, int] = 4    # duration in bins
    intensity: float = 1.0
    slow_runs: int = 0        # trailing runs scripted to run slower
    slow_factor: float = 2.0
    cores_per_node: int = 24

    def __post_init__(self):
        where = f"template {self.name}: "
        _check_kinds(self, where)
        if self.pattern not in PATTERNS:
            raise ScenarioError(f"unknown pattern {self.pattern!r}; "
                                f"expected one of {PATTERNS}")
        for name in ("count", "intensity", "slow_factor", "cores_per_node"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{where}{name} must be > 0")
        for name in ("nodes", "runtime_bins"):
            lo, hi = _bounds(getattr(self, name))
            if not 1 <= lo <= hi:
                raise ScenarioError(
                    f"{where}{name} must be >= 1, a range's low at most its "
                    f"high, got {getattr(self, name)!r}")
        if self.slow_runs < 0 or self.slow_runs > self.count:
            raise ScenarioError(f"{where}slow_runs out of range")


@dataclass(frozen=True)
class ContentionEpisode:
    """A time range (offsets from scenario start) with multiplied load."""

    start_s: int
    end_s: int
    load_multiplier: float = 4.0
    fs_id: str | None = None  # None: all filesystems

    def __post_init__(self):
        _check_kinds(self, "episode: ")
        if self.end_s <= self.start_s:
            raise ScenarioError("episode end must be after start")
        if self.load_multiplier <= 0:
            raise ScenarioError("episode multiplier must be > 0")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    duration_s: int
    node_count: int
    filesystems: tuple[str, ...]
    templates: tuple[JobTemplate, ...]
    episodes: tuple[ContentionEpisode, ...] = ()
    bin_width_s: int = 360
    start_ts: int = DEFAULT_START_TS
    resets: tuple[tuple[str, str, int], ...] = ()  # (node, fs, offset_s)
    emit_probe: bool = False
    probe_cadence_s: int = 60

    def __post_init__(self):
        _check_kinds(self)
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        for name in ("node_count", "bin_width_s", "start_ts",
                     "probe_cadence_s"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be > 0")
        if self.duration_s <= 0 or self.duration_s % self.bin_width_s:
            raise ScenarioError(
                "duration_s must be a positive multiple of bin_width_s")
        if not self.filesystems:
            raise ScenarioError("at least one filesystem required")
        if len(set(self.filesystems)) != len(self.filesystems):
            raise ScenarioError("filesystems must be unique")
        if not self.templates:
            raise ScenarioError("at least one job template required")
        names = [t.name for t in self.templates]
        if len(set(names)) != len(names):
            raise ScenarioError("template names must be unique")
        for t in self.templates:
            if (want := _bounds(t.nodes)[1]) > self.node_count:
                raise ScenarioError(f"template {t.name}: runs want up to "
                                    f"{want} nodes, scenario has "
                                    f"{self.node_count}")
        for ep in self.episodes:
            if ep.fs_id is not None and ep.fs_id not in self.filesystems:
                raise ScenarioError(f"episode: fs_id {ep.fs_id!r} is not one "
                                    f"of filesystems {self.filesystems}")
        nodes = set(self.node_names)
        for reset in self.resets:
            node_id, fs_id, offset_s = reset
            if node_id not in nodes or fs_id not in self.filesystems:
                raise ScenarioError(f"reset {reset} names no stream of the "
                                    f"scenario")
            if offset_s % self.bin_width_s \
                    or not 0 < offset_s < self.duration_s:
                raise ScenarioError(
                    f"reset offset {offset_s} must be a bin-aligned snapshot "
                    f"inside the scenario")
        # episodes multiply a node's peak; the feed's int64 counters must
        # hold every node's peak in every bin summed
        total = (self.node_count * self.n_bins * PEAK_COUNT
                 * max(max(1.0, t.intensity) for t in self.templates)
                 * math.prod(max(1.0, ep.load_multiplier)
                             for ep in self.episodes))
        if not total < 2 ** 63:
            raise ScenarioError(
                f"intensity and load multipliers too large: a counter could "
                f"total node_count x bins x {PEAK_COUNT} x max(1, "
                f"intensity) x the multipliers above 1 = {total:.3g}, past "
                f"int64")

    @property
    def n_bins(self) -> int:
        return self.duration_s // self.bin_width_s

    @property
    def node_names(self) -> list[str]:
        return [f"n{i:04d}" for i in range(self.node_count)]


@dataclass
class GroundTruthLedger:
    """Exact totals the pipeline must recover from the generated feeds."""

    bin_width_s: int
    start_ts: int
    duration_s: int
    job_totals: dict[str, list[int]]          # job_id -> 21 counters
    job_fs: dict[str, str]                    # job_id -> home fs
    fs_bin_totals: dict[str, dict[int, list[int]]]
    feed_totals: dict[str, list[int]]         # fs -> 21 counters
    project_job_counts: dict[str, int]
    slowdown_job_ids: list[str]
    heatmap_cells: dict[str, dict[str, str]]  # job_id -> measure -> cell
    resets_applied: list[list]                # [node, fs, offset_s]
    resets_skipped: list[list]

    def to_json(self, path) -> None:
        doc = {
            "bin_width_s": self.bin_width_s,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
            "job_totals": {k: list(map(int, v))
                           for k, v in sorted(self.job_totals.items())},
            "job_fs": dict(sorted(self.job_fs.items())),
            "fs_bin_totals": {
                fs: {str(b): list(map(int, v))
                     for b, v in sorted(bins.items())}
                for fs, bins in sorted(self.fs_bin_totals.items())},
            "feed_totals": {k: list(map(int, v))
                            for k, v in sorted(self.feed_totals.items())},
            "project_job_counts": dict(
                sorted(self.project_job_counts.items())),
            "slowdown_job_ids": sorted(self.slowdown_job_ids),
            "heatmap_cells": {k: dict(v) for k, v in
                              sorted(self.heatmap_cells.items())},
            "resets_applied": self.resets_applied,
            "resets_skipped": self.resets_skipped,
            "counter_order": list(COUNTER_NAMES),
        }
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=False)
                              + "\n")


def _draw(rng, value) -> int:
    """Fixed int or inclusive (lo, hi) range."""
    if isinstance(value, int):
        return value
    lo, hi = value
    return int(rng.integers(lo, hi + 1))


def _pattern_deltas(rng, pattern: str, nb: int, nodes: int,
                    intensity: float) -> np.ndarray:
    """Per-bin whole-job deltas for one run, shape (nb, 21)."""
    d = np.zeros((nb, N_COUNTERS), dtype=np.int64)
    scale = intensity * nodes
    if pattern == "idle":
        return d
    if pattern == "streaming-write":
        ops = np.rint(rng.integers(800, 1200, size=nb)
                      * scale).astype(np.int64)
        d[:, WRITE_OPS] = ops
        d[:, WRITE_KB] = 1024 * ops  # 1 MiB per op: optimal quality
        d[:, _COL["open"]] = rng.integers(1, 4, size=nb) * nodes
        d[:, _COL["close"]] = d[:, _COL["open"]]
        d[:, _COL["getattr"]] = rng.integers(0, 5, size=nb) * nodes
    elif pattern == "small-read":
        ops = np.rint(rng.integers(2000, 4000, size=nb)
                      * scale).astype(np.int64)
        d[:, READ_OPS] = ops
        d[:, READ_KB] = 4 * ops  # 4 KiB reads: poor quality
        d[:, _COL["open"]] = rng.integers(5, 20, size=nb) * nodes
        d[:, _COL["getattr"]] = rng.integers(10, 40, size=nb) * nodes
    elif pattern == "metadata-storm":
        for name in ("mkdir", "open", "unlink", "getattr", "setattr"):
            d[:, _COL[name]] = np.rint(
                rng.integers(400, 1600, size=nb) * scale).astype(np.int64)
        ops = rng.integers(0, 50, size=nb).astype(np.int64)
        d[:, READ_OPS] = ops
        d[:, READ_KB] = 64 * ops
    elif pattern == "task-farm":
        d[:, _COL["open"]] = np.rint(
            rng.integers(50, 200, size=nb) * intensity).astype(np.int64)
        d[:, _COL["close"]] = d[:, _COL["open"]]
        d[:, _COL["getattr"]] = np.rint(
            rng.integers(80, 300, size=nb) * intensity).astype(np.int64)
        ops = np.rint(rng.integers(10, 60, size=nb)
                      * intensity).astype(np.int64)
        d[:, WRITE_OPS] = ops
        d[:, WRITE_KB] = 64 * ops  # 64 KiB writes
    return d


@dataclass
class _PlacedJob:
    job_id: str
    template: JobTemplate
    fs_i: int
    start_bin: int
    node_idxs: np.ndarray
    deltas: np.ndarray  # (runtime_bins, 21)
    is_slow: bool


def _free_nodes(busy, start, end, want, order):
    """The first `want` nodes of `order` free over bins [start, end), or
    None; busy is the nodes x bins grid of booked bins."""
    free = order[~busy[order, start:end].any(axis=1)]
    return free[:want] if len(free) >= want else None


def _place_jobs(spec: ScenarioSpec, rng) -> list[_PlacedJob]:
    n_bins = spec.n_bins
    busy = np.zeros((spec.node_count, n_bins), dtype=bool)
    placed = []
    for template in spec.templates:
        for k in range(template.count):
            nodes_k = _draw(rng, template.nodes)
            runtime = _draw(rng, template.runtime_bins)
            is_slow = k >= template.count - template.slow_runs
            if is_slow:
                runtime = int(round(runtime * template.slow_factor))
            runtime = max(1, min(runtime, n_bins))
            for _ in range(20):
                start_bin = int(rng.integers(0, n_bins - runtime + 1))
                found = _free_nodes(busy, start_bin, start_bin + runtime,
                                    nodes_k, rng.permutation(spec.node_count))
                if found is not None:
                    break
            else:  # deterministic sweep: earliest start with capacity
                for start_bin in range(n_bins - runtime + 1):
                    found = _free_nodes(busy, start_bin, start_bin + runtime,
                                        nodes_k, np.arange(spec.node_count))
                    if found is not None:
                        break
            if found is None:
                raise ScenarioError(
                    f"more concurrent jobs than nodes: could not place "
                    f"run {k} of template {template.name!r} "
                    f"({nodes_k} nodes wanted)")
            chosen = np.sort(found)
            busy[chosen, start_bin:start_bin + runtime] = True
            fs_i = int(rng.integers(0, len(spec.filesystems)))
            deltas = _pattern_deltas(rng, template.pattern, runtime,
                                     nodes_k, template.intensity)
            placed.append(_PlacedJob(job_id=f"{template.name}-{k:04d}",
                                     template=template,
                                     fs_i=fs_i, start_bin=start_bin,
                                     node_idxs=chosen, deltas=deltas,
                                     is_slow=is_slow))
    return placed


def _apply_episodes(spec: ScenarioSpec, job: _PlacedJob) -> None:
    if not spec.episodes:
        return
    w = spec.bin_width_s
    nb = job.deltas.shape[0]
    offsets = (job.start_bin + np.arange(nb)) * w
    for ep in spec.episodes:
        if ep.fs_id is not None \
                and ep.fs_id != spec.filesystems[job.fs_i]:
            continue
        mask = (offsets >= ep.start_s) & (offsets < ep.end_s)
        if mask.any():
            job.deltas[mask] = np.rint(
                job.deltas[mask] * ep.load_multiplier).astype(np.int64)


def generate(spec: ScenarioSpec, out_dir) -> GroundTruthLedger:
    """Write counters.csv, jobs.csv, ledger.json and, where spec emits one,
    probe.csv to out_dir, made once the feed is booked; else an old
    probe.csv, another run's, is removed.

    The feed is booked on one snapshot array (bin + 1, fs, node, counter):
    each node's delta of bin k goes to snapshot k + 1, the snapshots are
    summed in place, and each scripted reset shifts its stream's later
    snapshots in place."""
    rng = np.random.default_rng(spec.seed)
    w = spec.bin_width_s
    n_bins = spec.n_bins
    n_nodes = spec.node_count
    n_fs = len(spec.filesystems)
    node_names = spec.node_names

    placed = _place_jobs(spec, rng)
    jobs = job_table(*zip(*sorted(  # in job id order
        (j.job_id, j.template.project, j.template.command,
         [node_names[i] for i in j.node_idxs],
         spec.start_ts + w * j.start_bin,
         spec.start_ts + w * (j.start_bin + len(j.deltas)),
         j.template.cores_per_node) for j in placed)))
    for job in placed:
        _apply_episodes(spec, job)

    # each job's deltas split exactly over its nodes, the first nodes
    # taking the remainders, at the snapshots that close its bins
    snaps = np.zeros((n_bins + 1, n_fs, n_nodes, N_COUNTERS), dtype=np.int64)
    covered = np.zeros((n_fs, n_bins), dtype=bool)  # bins a job runs in
    for job in placed:
        span = slice(job.start_bin, job.start_bin + len(job.deltas))
        n_share = len(job.node_idxs)
        base, rem = np.divmod(job.deltas[:, None], n_share)
        snaps[1:][span, job.fs_i, job.node_idxs] += \
            base + (rem > np.arange(n_share)[:, None])
        covered[job.fs_i, span] = True
    # fs usage, (fs, bin, counter)
    by_bin = snaps[1:].sum(axis=2).transpose(1, 0, 2)

    # scripted resets in time order, so that a stream's earlier resets
    # shape the snapshots a later one sees; each keeps its bin's delta
    resets = [(reset, snaps[:, spec.filesystems.index(reset[1]),
                            node_names.index(reset[0])], reset[2] // w)
              for reset in sorted(spec.resets,
                                  key=lambda r: (r[2], r[0], r[1]))]
    bin_deltas = [stream[k_r + 1].copy() for _, stream, k_r in resets]
    # snapshot k reports the cumulative activity of bins < k
    np.cumsum(snaps, axis=0, out=snaps)
    resets_applied: list[list] = []
    resets_skipped: list[list] = []
    for (reset, stream, k_r), bin_delta in zip(resets, bin_deltas):
        pre = stream[k_r]  # the last snapshot before the reset
        # detectable only if the stream has history and every counter
        # either drops or had none
        if pre.any() and bool(np.all((bin_delta < pre) | (pre == 0))):
            # snapshot k_r + 1 becomes bin k_r's delta, and later ones
            # shift with it
            stream[k_r + 1:] -= stream[k_r + 1] - bin_delta
            resets_applied.append(list(reset))
        else:
            resets_skipped.append(list(reset))

    # emit counters.csv: rows by snapshot, then fs, then node
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_counter_csv(CounterFeed(
        np.repeat(spec.start_ts + w * np.arange(n_bins + 1), n_fs * n_nodes),
        np.tile(np.arange(n_nodes), (n_bins + 1) * n_fs),
        np.tile(np.repeat(np.arange(n_fs), n_nodes), n_bins + 1),
        snaps.reshape(-1, N_COUNTERS), tuple(node_names), spec.filesystems),
        out_dir / "counters.csv")
    del snaps

    write_jobs_csv(jobs, out_dir / "jobs.csv")

    job_totals = {j.job_id: j.deltas.sum(axis=0).tolist() for j in placed}
    heatmap_cells = {}
    for job in placed:
        totals = job_totals[job.job_id]
        cells = {"nodes": node_bin_label(len(job.node_idxs))}
        for measure, col in (("read_gib", READ_KB), ("write_gib", WRITE_KB)):
            cells[measure] = volume_bin_label(totals[col] / 2 ** 20)
        heatmap_cells[job.job_id] = cells

    ledger = GroundTruthLedger(
        bin_width_s=w,
        start_ts=spec.start_ts,
        duration_s=spec.duration_s,
        job_totals=job_totals,
        job_fs={j.job_id: spec.filesystems[j.fs_i] for j in placed},
        fs_bin_totals={  # every bin a job runs in, idle jobs' too
            fs: dict(zip((spec.start_ts + w * np.flatnonzero(runs)).tolist(),
                         usage[runs].tolist()))
            for fs, usage, runs in zip(spec.filesystems, by_bin, covered)},
        feed_totals={fs: usage.sum(axis=0).tolist()
                     for fs, usage in zip(spec.filesystems, by_bin)},
        project_job_counts=dict(Counter(jobs.projects)),
        slowdown_job_ids=[j.job_id for j in placed if j.is_slow],
        heatmap_cells=heatmap_cells,
        resets_applied=resets_applied,
        resets_skipped=resets_skipped)
    ledger.to_json(out_dir / "ledger.json")

    if spec.emit_probe:
        _emit_probe(spec, by_bin, out_dir / "probe.csv", rng)
    else:
        (out_dir / "probe.csv").unlink(missing_ok=True)

    return ledger


def _emit_probe(spec: ScenarioSpec, by_bin, path, rng) -> None:
    """Synthetic per-tick response-time probe tracking total fs load;
    by_bin holds each fs's (n_bins, 21) usage."""
    w = spec.bin_width_s
    load = np.zeros(spec.n_bins, dtype=np.float64)
    for usage in by_bin:
        load += (usage[:, READ_OPS] + usage[:, WRITE_OPS]
                 + usage[:, MDS_SLICE].sum(axis=1))
    peak = load.max() if load.max() > 0 else 1.0
    ticks = np.arange(spec.probe_cadence_s, spec.duration_s + 1,
                      spec.probe_cadence_s, dtype=np.int64)
    jitter = rng.uniform(0.0, 0.05, size=ticks.size)
    k = np.minimum(_kernels.closing_bin(ticks, w) // w, spec.n_bins - 1)
    write_csv(path, ("ts", "latency_ms"),
              [spec.start_ts + ticks, 1.0 + 9.0 * load[k] / peak + jitter])


# ---------------------------------------------------------------------------
# scenario (de)serialization and named presets
# ---------------------------------------------------------------------------


def spec_to_json(spec: ScenarioSpec, path) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=1) + "\n")


def _frozen(value):
    """A JSON value with its lists, at any depth, as tuples."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _entry(cls, doc):
    """cls(**doc) of a JSON object, its lists as tuples."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"a {cls.__name__} must be a JSON object, "
                            f"got {doc!r:.60}")
    return cls(**{key: _frozen(value) for key, value in doc.items()})


def spec_from_json(path) -> ScenarioSpec:
    """The ScenarioSpec of a JSON file: its keys are ScenarioSpec's fields,
    each template's JobTemplate's and each episode's ContentionEpisode's,
    an absent key taking the field's default. Raises ScenarioError naming
    the file where it holds anything else."""
    try:
        doc = json.loads(Path(path).read_text())
        if isinstance(doc, dict):
            for key, cls in (("templates", JobTemplate),
                             ("episodes", ContentionEpisode)):
                if key in doc:
                    doc[key] = [_entry(cls, e) for e in doc[key]]
        return _entry(ScenarioSpec, doc)
    except (TypeError, ValueError) as exc:  # ScenarioError is a ValueError
        raise ScenarioError(f"scenario {path}: {exc}") from None


def preset_scenario(name: str, seed: int | None = None) -> ScenarioSpec:
    """Built-in scenarios used by the demo, tests and benchmarks."""
    if name == "demo":
        return ScenarioSpec(
            seed=7 if seed is None else seed,
            duration_s=86400, node_count=24,
            filesystems=("fs2", "fs3"),
            templates=(
                JobTemplate("atmos", "atmos.exe -c conf.nml", "climate",
                            "streaming-write", count=12, nodes=(2, 6),
                            runtime_bins=(6, 20)),
                JobTemplate("scan", "scan --files index.db", "materials",
                            "small-read", count=10, nodes=(1, 2),
                            runtime_bins=(4, 12)),
                JobTemplate("mdstorm", "untar_many.sh inputs/",
                            "biomolecular", "metadata-storm", count=6,
                            nodes=1, runtime_bins=(2, 6)),
                JobTemplate("farm", "farm_worker.py --shard auto",
                            "materials", "task-farm", count=30, nodes=1,
                            runtime_bins=(1, 3)),
                JobTemplate("quiet", "noop.sh", "support", "idle", count=4,
                            nodes=1, runtime_bins=(4, 8)),
            ),
            episodes=(ContentionEpisode(start_s=36000, end_s=43200,
                                        load_multiplier=5.0),),
            emit_probe=True)
    if name == "metric":
        # <= 50 jobs x <= 100 bins x 2 fs, for the metric oracle fixture
        return ScenarioSpec(
            seed=11 if seed is None else seed,
            duration_s=100 * 360, node_count=30,
            filesystems=("fs2", "fs3"),
            templates=(
                JobTemplate("wr", "writer.exe", "climate",
                            "streaming-write", count=16, nodes=(1, 4),
                            runtime_bins=(5, 30)),
                JobTemplate("rd", "reader.exe", "cfd", "small-read",
                            count=16, nodes=(1, 3), runtime_bins=(5, 25)),
                JobTemplate("md", "mdstress.sh", "materials",
                            "metadata-storm", count=12, nodes=1,
                            runtime_bins=(3, 15)),
                JobTemplate("idle", "sleep.sh", "support", "idle", count=4,
                            nodes=1, runtime_bins=(5, 10)),
            ))
    if name == "slowdown":
        return ScenarioSpec(
            seed=13 if seed is None else seed,
            duration_s=86400, node_count=40,
            filesystems=("fs2",),
            templates=(
                JobTemplate("steady", "solver.exe -n 32", "cfd",
                            "streaming-write", count=12, nodes=2,
                            runtime_bins=10, slow_runs=2, slow_factor=2.0),
                JobTemplate("mixed", "analyse.py stage2", "climate",
                            "small-read", count=9, nodes=1,
                            runtime_bins=(10, 12)),
                JobTemplate("pair", "tiny.sh", "support", "idle", count=2,
                            nodes=1, runtime_bins=(4, 40)),
            ))
    if name == "contention":
        return ScenarioSpec(
            seed=17 if seed is None else seed,
            duration_s=86400, node_count=32,
            filesystems=("fs2",),
            templates=(
                JobTemplate("background", "steady.exe", "climate",
                            "streaming-write", count=10, nodes=(1, 3),
                            runtime_bins=(20, 60)),
                JobTemplate("burst", "burst.exe", "cfd", "small-read",
                            count=8, nodes=(2, 4), runtime_bins=(10, 30)),
            ),
            episodes=(
                ContentionEpisode(start_s=28800, end_s=36000,
                                  load_multiplier=25.0),
                ContentionEpisode(start_s=61200, end_s=64800,
                                  load_multiplier=15.0),
            ),
            emit_probe=True)
    if name == "perf":
        # 1,000 jobs / 200 nodes / 7 days at 360 s bins, one fs
        return ScenarioSpec(
            seed=23 if seed is None else seed,
            duration_s=7 * 86400, node_count=200,
            filesystems=("fs2",),
            templates=(
                JobTemplate("big", "sim.exe --grid 4096", "climate",
                            "streaming-write", count=250, nodes=(2, 8),
                            runtime_bins=(10, 40)),
                JobTemplate("scan", "postproc.py", "cfd", "small-read",
                            count=250, nodes=(1, 4), runtime_bins=(5, 30)),
                JobTemplate("meta", "pack_results.sh", "materials",
                            "metadata-storm", count=100, nodes=1,
                            runtime_bins=(2, 10)),
                JobTemplate("farm", "farm_item.py", "materials",
                            "task-farm", count=400, nodes=1,
                            runtime_bins=(1, 4)),
            ))
    if name == "resets":
        # six one-node jobs too long to stack: every node is busy and has
        # accumulated history well before both reset offsets
        return ScenarioSpec(
            seed=29 if seed is None else seed,
            duration_s=100 * 360, node_count=6,
            filesystems=("fs2",),
            templates=(
                JobTemplate("wr", "writer.exe", "climate",
                            "streaming-write", count=6, nodes=1,
                            runtime_bins=(60, 90)),
            ),
            resets=(("n0000", "fs2", 18000), ("n0001", "fs2", 25200)))
    raise ScenarioError(f"unknown preset {name!r}; expected one of "
                        f"demo, metric, slowdown, contention, perf, resets")
