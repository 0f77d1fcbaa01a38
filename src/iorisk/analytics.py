"""Application grouping, slowdown detection, scatter profiles, job summaries.

Runs are grouped by the byte-identical launch command. A run is flagged as
slowed down when its runtime reaches the configured factor times its
group's mean runtime (groups below the minimum size are skipped). Scatter
points average each run's risk over its own runtime bins; the per-job I/O
summary is the aggregated feed handed to the service reporting side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribute import JobUsageTable
from .config import Config, check
from .ingest import JobRecord
from .metrics import JobMetrics
from .ops import READ_KB, READ_OPS, WRITE_KB, WRITE_OPS

KIB_PER_GIB = 2 ** 20


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


def summarize_jobs(jobs, job_usage: JobUsageTable) -> list[JobIoSummary]:
    """Per-job I/O totals across all filesystems, in input job order."""
    jobs = list(jobs)
    pos_of = {job_id: i for i, job_id in enumerate(job_usage.job_ids)}
    n = len(job_usage.job_ids)
    totals = np.zeros((n, 4), dtype=np.int64)  # read_kb, read_ops, write_kb, write_ops
    for t, c in enumerate((READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)):
        np.add.at(totals[:, t], job_usage.job_idx, job_usage.deltas[:, c])

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
