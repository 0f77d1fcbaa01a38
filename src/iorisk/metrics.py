"""Risk and I/O-quality metrics per job-bin, aggregated per filesystem-bin.

The risk of one counter x against its filesystem baseline is
(x - alpha*avg) / (alpha*avg); negative values are ignored when summing.
MDS counters whose scaled average sits below a small threshold instead
measure against the beta-scaled average of all metadata operations.
Quality is operations per MiB moved: 1.0 means 1 MiB mean transfers,
large values mean small, inefficient accesses.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import Config, check
from .ingest import UsageTable
from .ops import (MDS_SLICE, N_COUNTERS, OSS_SLICE, READ_KB, READ_OPS,
                  WRITE_KB, WRITE_OPS)

log = logging.getLogger(__name__)

FS_SUBJECT = "__fs__"


@dataclass(frozen=True, eq=False)
class FsBaseline:
    """Mean per-bin fs-wide deltas over a time window."""

    fs_id: str
    avg: np.ndarray  # (21,) float64, counter column order
    md_total_avg: float
    window: tuple[int, int]  # [first_bin, last_bin] used, inclusive
    n_bins: int


def _window_slots(first_bin: int, last_bin: int, w: int) -> int:
    return int((last_bin - first_bin) // w + 1)


def compute_baseline(totals: UsageTable, fs_id: str,
                     baseline_days: float | None = None) -> FsBaseline:
    """Average the fs-wide per-bin deltas of one filesystem.

    Bins inside the window with no activity count as zeros: the divisor is
    the number of bin slots spanned, not the number of rows. The window is
    the full extent of the filesystem's data, or the trailing
    baseline_days of it.
    """
    w = totals.bin_width
    try:
        fs = totals.names["fs"].index(fs_id)
    except ValueError:
        raise ValueError(f"no usage rows for filesystem {fs_id!r}") from None
    mask = totals.codes["fs"] == fs
    if not mask.any():
        raise ValueError(f"no usage rows for filesystem {fs_id!r}")
    bins = totals.bin_start[mask]
    deltas = totals.deltas[mask]

    last = int(bins.max())
    if baseline_days is not None:
        check("baseline_days", baseline_days, "compute_baseline")
        n_slots = max(1, int(round(baseline_days * 86400 / w)))
        first = last - (n_slots - 1) * w
    else:
        first = int(bins.min())

    inside = bins >= first
    n_slots = _window_slots(first, last, w)
    avg = deltas[inside].sum(axis=0, dtype=np.float64) / n_slots
    md_total_avg = float(
        deltas[inside, MDS_SLICE].sum(dtype=np.float64) / n_slots)
    return FsBaseline(fs_id=fs_id, avg=avg, md_total_avg=md_total_avg,
                      window=(first, last), n_bins=n_slots)


def compute_baselines(totals: UsageTable,
                      baseline_days: float | None = None
                      ) -> dict[str, FsBaseline]:
    out = {}
    for i, fs in enumerate(totals.names["fs"]):
        if (totals.codes["fs"] == i).any():
            out[fs] = compute_baseline(totals, fs,
                                       baseline_days=baseline_days)
    return out


def _quality_arrays(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    read_kb = deltas[:, READ_KB].astype(np.float64)
    read_ops = deltas[:, READ_OPS].astype(np.float64)
    write_kb = deltas[:, WRITE_KB].astype(np.float64)
    write_ops = deltas[:, WRITE_OPS].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_read = np.where(read_kb > 0, read_ops * 1024.0 / read_kb,
                          read_ops * 1024.0)
        q_write = np.where(write_kb > 0, write_ops * 1024.0 / write_kb,
                           write_ops * 1024.0)
    return q_read, q_write


def _baseline_matrix(filesystems, baselines):
    avg = np.zeros((len(filesystems), N_COUNTERS), dtype=np.float64)
    md_total = np.zeros(len(filesystems), dtype=np.float64)
    present = np.zeros(len(filesystems), dtype=bool)
    for i, fs in enumerate(filesystems):
        b = baselines.get(fs)
        if b is not None:
            avg[i] = b.avg
            md_total[i] = b.md_total_avg
            present[i] = True
    return avg, md_total, present


@dataclass
class JobMetrics:
    """Risk and quality for every job-bin row, aligned with a job usage
    table."""

    job_idx: np.ndarray
    fs_idx: np.ndarray
    bin_start: np.ndarray
    risk_oss: np.ndarray      # (m,)
    risk_mds: np.ndarray      # (m,)
    read_kb_ops: np.ndarray   # (m,)
    write_kb_ops: np.ndarray  # (m,)
    has_io: np.ndarray        # (m,) bool: any read/write bytes or ops
    job_ids: tuple[str, ...]
    filesystems: tuple[str, ...]
    bin_width: int

    def __len__(self) -> int:
        return len(self.bin_start)


def compute_job_metrics(job_usage: UsageTable,
                        baselines: dict[str, FsBaseline],
                        params: Config = Config()) -> JobMetrics:
    """Evaluate risk and quality for every job-bin row under the risk
    rule's parameters: params' alpha, beta and md_small_avg_threshold."""
    for name in ("alpha", "beta", "md_small_avg_threshold"):
        check(name, getattr(params, name), "compute_job_metrics")
    job_idx, fs_idx = job_usage.codes["job_id"], job_usage.codes["fs"]
    job_ids, filesystems = job_usage.names["job_id"], job_usage.names["fs"]
    avg, md_total, present = _baseline_matrix(filesystems, baselines)
    missing = [filesystems[i] for i in np.flatnonzero(np.bincount(fs_idx))
               if not present[i]]
    if missing:
        raise ValueError(f"no baseline for filesystems {missing}")

    # the clamped per-counter risk, summed over each server class
    contrib = _kernels.risk_contribs(job_usage.deltas.astype(np.float64),
                                     fs_idx, avg, md_total,
                                     params.alpha, params.beta,
                                     params.md_small_avg_threshold)
    risk_oss = contrib[:, OSS_SLICE].sum(axis=1)
    risk_mds = contrib[:, MDS_SLICE].sum(axis=1)
    del contrib
    for i, fs in enumerate(filesystems):
        if not present[i] or md_total[i] > 0:
            continue
        rows = fs_idx == i
        if rows.any() and job_usage.deltas[rows][:, MDS_SLICE].any():
            log.warning(
                "degenerate baseline for %s: zero metadata average with "
                "nonzero metadata activity; beta-path denominator floored "
                "at %g", fs, params.md_small_avg_threshold)

    q_read, q_write = _quality_arrays(job_usage.deltas)
    io_cols = (READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)
    has_io = (job_usage.deltas[:, io_cols] > 0).any(axis=1)
    return JobMetrics(job_idx=job_idx,
                      fs_idx=fs_idx,
                      bin_start=job_usage.bin_start,
                      risk_oss=risk_oss,
                      risk_mds=risk_mds,
                      read_kb_ops=q_read,
                      write_kb_ops=q_write,
                      has_io=has_io,
                      job_ids=job_ids,
                      filesystems=filesystems,
                      bin_width=job_usage.bin_width)


@dataclass
class FsMetrics:
    """Per-(fs, bin) aggregates over job metrics rows."""

    fs_idx: np.ndarray
    bin_start: np.ndarray
    risk_oss: np.ndarray
    risk_mds: np.ndarray
    read_kb_ops: np.ndarray   # quality sums over jobs with risk_oss > 0
    write_kb_ops: np.ndarray
    filesystems: tuple[str, ...]
    bin_width: int

    def __len__(self) -> int:
        return len(self.bin_start)


def compute_fs_metrics(jm: JobMetrics,
                       quality_agg: str = Config.quality_agg) -> FsMetrics:
    """Aggregate job metrics to fs-level series.

    Risk sums over every job; quality aggregates only jobs with
    risk_oss > 0 (ignoring jobs with a low quantity of I/O). quality_agg
    "sum" totals the contributing jobs' values, "mean" divides by their
    count.
    """
    check("quality_agg", quality_agg, "compute_fs_metrics")
    order, starts = _kernels.sort_groups(jm.fs_idx, jm.bin_start)
    contributes = (jm.risk_oss[order] > 0).astype(np.float64)
    q_read = jm.read_kb_ops[order] * contributes
    q_write = jm.write_kb_ops[order] * contributes

    agg_oss = np.add.reduceat(jm.risk_oss[order], starts)
    agg_mds = np.add.reduceat(jm.risk_mds[order], starts)
    agg_qr = np.add.reduceat(q_read, starts)
    agg_qw = np.add.reduceat(q_write, starts)
    if quality_agg == "mean":
        counts = np.add.reduceat(contributes, starts)
        with np.errstate(invalid="ignore"):
            agg_qr = np.where(counts > 0, agg_qr / counts, 0.0)
            agg_qw = np.where(counts > 0, agg_qw / counts, 0.0)

    first = order[starts]
    return FsMetrics(fs_idx=jm.fs_idx[first], bin_start=jm.bin_start[first],
                     risk_oss=agg_oss, risk_mds=agg_mds,
                     read_kb_ops=agg_qr, write_kb_ops=agg_qw,
                     filesystems=jm.filesystems, bin_width=jm.bin_width)
