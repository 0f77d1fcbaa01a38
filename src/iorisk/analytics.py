"""Per-job analytics on a JobTable: I/O summaries, slowdown findings and
scatter profiles, each as arrays aligned with the table's rows.

Runs are grouped by the byte-identical launch command. A run is flagged as
slowed down when its runtime reaches the configured factor times its
group's mean runtime (groups below the minimum size are skipped). Scatter
points average each run's risk over its own runtime bins; the per-job I/O
summary is the aggregated feed handed to the service reporting side.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .config import Config, check
from .ingest import JobTable, UsageTable
from .metrics import JobMetrics
from .ops import READ_KB, READ_OPS, WRITE_KB, WRITE_OPS

KIB_PER_GIB = 2 ** 20


def _check_aligned(jobs: JobTable, job_ids) -> None:
    if tuple(job_ids) != jobs.job_ids:
        raise ValueError("job usage and metrics must list the job table's "
                         "jobs, in its order")


def id_rank(job_ids) -> np.ndarray:
    """Each job's position in job id order."""
    return np.argsort(sorted(range(len(job_ids)), key=job_ids.__getitem__))


def summarize_jobs(jobs: JobTable, job_usage: UsageTable) -> np.ndarray:
    """Per-job I/O totals across all filesystems: an (n, 4) int64 array
    of read_kb, read_ops, write_kb and write_ops, aligned with jobs."""
    _check_aligned(jobs, job_usage.names["job_id"])
    totals = np.zeros((len(jobs), 4), dtype=np.int64)
    np.add.at(totals, job_usage.codes["job_id"],
              job_usage.deltas[:, [READ_KB, READ_OPS, WRITE_KB, WRITE_OPS]])
    return totals


def job_measures(jobs: JobTable, totals) -> np.ndarray:
    """(n, 4) float64: read_gib, write_gib, mean_read_ops_s and
    mean_write_ops_s of each job, from summarize_jobs' totals. The op
    rates divide Python ints, so each rounds once, as int / int does;
    float64 operands would be rounded first above 2**53."""
    rates = (totals[:, [1, 3]].astype(object)
             / jobs.runtime_s[:, None].astype(object))
    return np.column_stack((totals[:, [0, 2]] / KIB_PER_GIB,
                            rates.astype(np.float64)))


def detect_slowdown(jobs: JobTable, factor: float = Config.slowdown_factor,
                    min_group: int = Config.min_group
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Flag runs with runtime >= factor * the mean runtime of the runs
    sharing their command -> (rows, group_mean_s).

    rows are the flagged jobs' rows, by command in string order and then
    in feed order; group_mean_s holds each one's group mean. Groups
    smaller than min_group are skipped; the mean includes the candidate
    run itself. A factor of 1 or less, or groups of fewer than two runs,
    would flag runs that are no slower than their peers, and raise
    ValueError.
    """
    check("slowdown_factor", factor, "detect_slowdown")
    check("min_group", min_group, "detect_slowdown")
    _, group = np.unique(np.array(jobs.commands, dtype=object),
                         return_inverse=True)
    order, starts = _kernels.sort_groups(group)
    sizes = np.diff(np.append(starts, len(order)))
    # Python ints and floats: the mean and the comparison stay exact
    runtime = jobs.runtime_s[order].astype(object)
    mean = np.add.reduceat(runtime, starts) / sizes.astype(object)
    per_run = np.repeat(mean, sizes)
    flagged = ((runtime >= factor * per_run)
               & np.repeat(sizes >= min_group, sizes))
    return order[flagged], per_run[flagged].astype(np.float64)


def build_scatter(jobs: JobTable, job_metrics: JobMetrics,
                  min_total_risk: float = Config.scatter_min_risk
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The jobs whose average total risk reaches the threshold ->
    (rows, averages), rows in job id order and averages (k, 3) float64:
    avg_risk_oss, avg_risk_mds and avg_quality.

    Risk averages divide by the number of bins the run spans (idle bins
    count as zero risk); the quality average covers only bins with any
    read/write activity. The threshold comparison is inclusive.
    """
    jm = job_metrics
    _check_aligned(jobs, jm.job_ids)
    n = len(jobs)

    def per_job(values):  # adds each job's rows in row order
        return np.bincount(jm.job_idx, values, minlength=n)

    n_bins = _kernels.bins_spanned(jobs.start_ts, jobs.end_ts, jm.bin_width)
    avg_oss = per_job(jm.risk_oss) / n_bins
    avg_mds = per_job(jm.risk_mds) / n_bins
    io_bins = np.bincount(jm.job_idx[jm.has_io], minlength=n)
    quality = per_job((jm.read_kb_ops + jm.write_kb_ops) * jm.has_io)
    avg_q = np.where(io_bins > 0, quality / np.maximum(io_bins, 1), 0.0)
    kept = np.flatnonzero(~(avg_oss + avg_mds < min_total_risk))
    rows = kept[np.argsort(id_rank(jobs.job_ids)[kept])]
    return rows, np.column_stack((avg_oss[rows], avg_mds[rows],
                                  avg_q[rows]))
