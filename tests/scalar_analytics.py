"""Per-job analytics one job record at a time: the oracle for the column
functions of ``iorisk.analytics`` and ``iorisk.report``.

These are the job record, grouping, slowdown, scatter, summary, heatmap
and breakdown code the package shipped before jobs became one column
table, kept verbatim: Python loops over ``JobRecord``s and their per-job
result records. ``as_table`` turns a list of records into the
``JobTable`` the package takes, and ``records_of`` turns one back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from iorisk.config import Config, check
from iorisk.ingest import (AttributionConflictError, JobTable, UsageTable,
                           job_table)
from iorisk.metrics import JobMetrics
from iorisk.ops import READ_KB, READ_OPS, WRITE_KB, WRITE_OPS
from iorisk.report import (BREAKDOWN_EDGES_GIB, BREAKDOWN_LABELS, MEASURES,
                           BreakdownTable, Heatmap)

KIB_PER_GIB = 2 ** 20


@dataclass(frozen=True)
class JobRecord:
    """Scheduler accounting for one job."""

    job_id: str
    command: str
    project: str
    nodes: frozenset[str]
    start_ts: int
    end_ts: int
    cores_per_node: int = Config.cores_per_node

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if self.end_ts <= self.start_ts:
            raise ValueError(
                f"job {self.job_id}: end_ts {self.end_ts} must be after "
                f"start_ts {self.start_ts}")
        if not self.nodes:
            raise ValueError(f"job {self.job_id}: empty node list")
        check("cores_per_node", self.cores_per_node, f"job {self.job_id}")

    @property
    def runtime_s(self) -> int:
        return self.end_ts - self.start_ts


def validate_exclusive_allocation(jobs) -> None:
    """Raise AttributionConflictError if any node is double-booked."""
    by_node: dict[str, list[tuple[int, int, str]]] = {}
    for job in jobs:
        for node in job.nodes:
            by_node.setdefault(node, []).append(
                (job.start_ts, job.end_ts, job.job_id))
    for node, intervals in by_node.items():
        intervals.sort()
        for (s0, e0, id0), (s1, e1, id1) in zip(intervals, intervals[1:]):
            if s1 < e0:
                raise AttributionConflictError(node, id0, id1)



@dataclass(frozen=True)
class ApplicationGroup:
    """All runs sharing one exact command string."""

    command: str
    run_ids: tuple[str, ...]
    mean_runtime: float
    runtimes: tuple[int, ...]  # aligned with run_ids


def group_applications(jobs) -> list[ApplicationGroup]:
    """Partition jobs by byte-identical command, sorted by command."""
    by_command: dict[str, list[JobRecord]] = {}
    for job in jobs:
        by_command.setdefault(job.command, []).append(job)
    groups = []
    for command in sorted(by_command):
        members = by_command[command]
        runtimes = tuple(j.runtime_s for j in members)
        groups.append(ApplicationGroup(
            command=command,
            run_ids=tuple(j.job_id for j in members),
            mean_runtime=sum(runtimes) / len(runtimes),
            runtimes=runtimes))
    return groups


@dataclass(frozen=True)
class SlowdownFinding:
    """One run whose runtime reached factor x its group mean."""

    job_id: str
    command: str
    runtime_s: int
    group_mean_s: float
    ratio: float


def detect_slowdown(groups, factor: float = Config.slowdown_factor,
                    min_group: int = Config.min_group
                    ) -> list[SlowdownFinding]:
    """Flag runs with runtime >= factor * group mean runtime.

    Groups smaller than min_group are skipped; the mean includes the
    candidate run itself. A factor of 1 or less, or groups of fewer than
    two runs, would flag runs that are no slower than their peers, and
    raise ValueError.
    """
    check("slowdown_factor", factor, "detect_slowdown")
    check("min_group", min_group, "detect_slowdown")
    findings = []
    for group in groups:
        if len(group.run_ids) < min_group:
            continue
        threshold = factor * group.mean_runtime
        for job_id, runtime in zip(group.run_ids, group.runtimes):
            if runtime >= threshold:
                findings.append(SlowdownFinding(
                    job_id=job_id, command=group.command,
                    runtime_s=runtime, group_mean_s=group.mean_runtime,
                    ratio=runtime / group.mean_runtime))
    return findings


@dataclass(frozen=True)
class ScatterPoint:
    """Per-run average risk and quality for the application scatter."""

    job_id: str
    command: str
    avg_risk_oss: float
    avg_risk_mds: float
    avg_quality: float


def runtime_bin_count(job: JobRecord, bin_width: int) -> int:
    """Number of bin slots overlapping [start_ts, end_ts)."""
    w = bin_width
    first = w * (job.start_ts // w)
    last = w * ((job.end_ts - 1) // w)
    return int((last - first) // w + 1)


def build_scatter(jobs, job_metrics: JobMetrics,
                  min_total_risk: float = Config.scatter_min_risk
                  ) -> list[ScatterPoint]:
    """One point per job whose average total risk reaches the threshold.

    Risk averages divide by the number of bins the run spans (idle bins
    count as zero risk); the quality average covers only bins with any
    read/write activity. The threshold comparison is inclusive.
    """
    jobs = list(jobs)
    by_id = {j.job_id: j for j in jobs}
    jm = job_metrics
    n = len(jm.job_ids)
    sum_oss = np.zeros(n, dtype=np.float64)
    sum_mds = np.zeros(n, dtype=np.float64)
    sum_quality = np.zeros(n, dtype=np.float64)
    io_bins = np.zeros(n, dtype=np.int64)
    np.add.at(sum_oss, jm.job_idx, jm.risk_oss)
    np.add.at(sum_mds, jm.job_idx, jm.risk_mds)
    q = (jm.read_kb_ops + jm.write_kb_ops) * jm.has_io
    np.add.at(sum_quality, jm.job_idx, q)
    np.add.at(io_bins, jm.job_idx, jm.has_io.astype(np.int64))

    points = []
    for idx, job_id in enumerate(jm.job_ids):
        job = by_id.get(job_id)
        if job is None:
            raise ValueError(f"metrics reference unknown job {job_id!r}")
        nbins = runtime_bin_count(job, jm.bin_width)
        avg_oss = float(sum_oss[idx]) / nbins
        avg_mds = float(sum_mds[idx]) / nbins
        if avg_oss + avg_mds < min_total_risk:
            continue
        avg_q = float(sum_quality[idx]) / io_bins[idx] if io_bins[idx] else 0.0
        points.append(ScatterPoint(job_id=job_id, command=job.command,
                                   avg_risk_oss=avg_oss,
                                   avg_risk_mds=avg_mds,
                                   avg_quality=avg_q))
    points.sort(key=lambda p: p.job_id)
    return points


@dataclass(frozen=True)
class JobIoSummary:
    """Aggregated per-job I/O totals (the service reporting feed)."""

    job_id: str
    project: str
    command: str
    nodes_count: int
    core_s: int  # nodes * cores_per_node * runtime seconds, exact
    read_gib: float
    write_gib: float
    read_ops_total: int
    write_ops_total: int
    mean_read_ops_s: float
    mean_write_ops_s: float

    @property
    def core_h(self) -> float:
        return self.core_s / 3600.0


def summarize_jobs(jobs, job_usage: UsageTable) -> list[JobIoSummary]:
    """Per-job I/O totals across all filesystems, in input job order."""
    jobs = list(jobs)
    job_ids, job_idx = job_usage.names["job_id"], job_usage.codes["job_id"]
    pos_of = {job_id: i for i, job_id in enumerate(job_ids)}
    n = len(job_ids)
    totals = np.zeros((n, 4), dtype=np.int64)  # read_kb, read_ops, write_kb, write_ops
    for t, c in enumerate((READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)):
        np.add.at(totals[:, t], job_idx, job_usage.deltas[:, c])

    out = []
    for job in jobs:
        idx = pos_of.get(job.job_id)
        read_kb, read_ops, write_kb, write_ops = (
            (int(v) for v in totals[idx]) if idx is not None
            else (0, 0, 0, 0))
        elapsed = job.runtime_s
        out.append(JobIoSummary(
            job_id=job.job_id,
            project=job.project,
            command=job.command,
            nodes_count=len(job.nodes),
            core_s=len(job.nodes) * job.cores_per_node * elapsed,
            read_gib=read_kb / KIB_PER_GIB,
            write_gib=write_kb / KIB_PER_GIB,
            read_ops_total=read_ops,
            write_ops_total=write_ops,
            mean_read_ops_s=read_ops / elapsed,
            mean_write_ops_s=write_ops / elapsed))
    return out


def _pow2(k: int) -> str:
    v = 2.0 ** k
    return f"{int(v)}" if v >= 1 else f"{v:g}"


def node_bin_index(n: int) -> int:
    """Row index of a job size: 0 for [1,1], k for (2^(k-1), 2^k]."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return 0 if n == 1 else (n - 1).bit_length()


def volume_bin_exp(v: float) -> int | None:
    """Column exponent of a volume: None for 0, else k with 2^(k-1) < v <= 2^k."""
    if v < 0:
        raise ValueError(f"volume must be >= 0, got {v}")
    if v == 0:
        return None
    k = math.ceil(math.log2(v))
    while 2.0 ** (k - 1) >= v:
        k -= 1
    while v > 2.0 ** k:
        k += 1
    return k


def node_bin_label(n: int) -> str:
    k = node_bin_index(n)
    return "[1,1]" if k == 0 else f"({_pow2(k - 1)},{_pow2(k)}]"


def volume_bin_label(v: float) -> str:
    k = volume_bin_exp(v)
    return "0" if k is None else f"({_pow2(k - 1)},{_pow2(k)}]"


def build_heatmap(summaries, measure: str) -> Heatmap:
    """Bin every job into one (size, volume) cell weighted by its core-h."""
    if measure not in MEASURES:
        raise ValueError(f"unknown heatmap measure {measure!r}; "
                         f"expected one of {MEASURES}")
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no job summaries to bin")

    rows = []
    for s in summaries:
        value = getattr(s, measure)
        rows.append((node_bin_index(s.nodes_count), volume_bin_exp(value),
                     s.core_s))

    max_row = max(r for r, _, _ in rows)
    exps = [e for _, e, _ in rows if e is not None]
    if exps:
        kmin, kmax = min(exps), max(exps)
        col_exps = list(range(kmin, kmax + 1))
    else:
        col_exps = []
    col_of = {e: i + 1 for i, e in enumerate(col_exps)}

    weights_core_s = np.zeros((max_row + 1, len(col_exps) + 1),
                              dtype=np.int64)
    for r, e, core_s in rows:
        c = 0 if e is None else col_of[e]
        weights_core_s[r, c] += core_s

    row_labels = ["[1,1]"] + [f"({_pow2(k - 1)},{_pow2(k)}]"
                              for k in range(1, max_row + 1)]
    col_labels = ["0"] + [f"({_pow2(k - 1)},{_pow2(k)}]" for k in col_exps]
    return Heatmap(measure=measure,
                   row_labels=tuple(row_labels),
                   col_labels=tuple(col_labels),
                   weights=weights_core_s / 3600.0,
                   weights_core_s=weights_core_s)


def breakdown_bin_index(v: float) -> int:
    """Bin of a per-job GiB volume; zero-I/O jobs land in the first bin."""
    for i, edge in enumerate(BREAKDOWN_EDGES_GIB):
        if v < edge:
            return i
    return len(BREAKDOWN_EDGES_GIB)


def build_breakdown(summaries) -> BreakdownTable:
    summaries = list(summaries)
    total = sum(s.core_s for s in summaries)
    if total <= 0:
        raise ValueError("total core-h must be positive")
    nbins = len(BREAKDOWN_LABELS)
    read_core_s = [0] * nbins
    write_core_s = [0] * nbins
    for s in summaries:
        read_core_s[breakdown_bin_index(s.read_gib)] += s.core_s
        write_core_s[breakdown_bin_index(s.write_gib)] += s.core_s
    return BreakdownTable(
        labels=BREAKDOWN_LABELS,
        read_pct=tuple(100.0 * c / total for c in read_core_s),
        write_pct=tuple(100.0 * c / total for c in write_core_s))


def as_table(jobs) -> JobTable:
    """The JobTable of JobRecords, in list order."""
    return job_table([j.job_id for j in jobs], [j.project for j in jobs],
                     [j.command for j in jobs], [j.nodes for j in jobs],
                     [j.start_ts for j in jobs], [j.end_ts for j in jobs],
                     [j.cores_per_node for j in jobs])


def records_of(jobs: JobTable) -> list[JobRecord]:
    """The JobRecords of a JobTable, in table order."""
    names = [jobs.nodes[c] for c in jobs.slot_node.tolist()]
    ptr = jobs.node_ptr.tolist()
    return [JobRecord(job_id, command, project, frozenset(names[a:b]),
                      start_ts, end_ts, cores)
            for job_id, project, command, a, b, start_ts, end_ts, cores in zip(
                jobs.job_ids, jobs.projects, jobs.commands, ptr, ptr[1:],
                jobs.start_ts.tolist(), jobs.end_ts.tolist(),
                jobs.cores_per_node.tolist())]
