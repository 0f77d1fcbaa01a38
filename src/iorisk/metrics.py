"""Risk and I/O-quality metrics per job-bin, aggregated per filesystem-bin.

The baselines are one table with a row per filesystem of the fs registry
(FsBaselines), computed from the fs bin totals; the job metrics index it
by the job usage's fs codes. The risk of one counter x against its
filesystem baseline is (x - alpha*avg) / (alpha*avg); negative values
are ignored when summing.
MDS counters whose scaled average sits below a small threshold instead
measure against the beta-scaled average of all metadata operations.
Quality is operations per MiB moved: 1.0 means 1 MiB mean transfers,
large values mean small, inefficient accesses.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels, ingest
from .config import Config, check
from .ingest import UsageTable
from .ops import (MDS_SLICE, N_COUNTERS, OSS_SLICE, READ_KB, READ_OPS,
                  WRITE_KB, WRITE_OPS)

log = logging.getLogger(__name__)

FS_SUBJECT = "__fs__"


@dataclass(frozen=True, eq=False)
class FsBaselines:
    """Mean per-bin fs-wide deltas, one row per filesystem of the fs
    registry, in its order."""

    filesystems: tuple[str, ...]
    avg: np.ndarray           # (F, 21) float64, counter column order
    md_total_avg: np.ndarray  # (F,) float64, over the MDS counters
    n_bins: np.ndarray        # (F,) float64 bin slots averaged; 0: no rows

    def __len__(self) -> int:
        """The number of filesystems that have a baseline."""
        return int(np.count_nonzero(self.n_bins))


def compute_baselines(totals: UsageTable,
                      baseline_days: float | None = None) -> FsBaselines:
    """Average each filesystem's fs-wide per-bin deltas, in one pass over
    the fs totals grouped by fs code.

    Bins inside the window with no activity count as zeros: the divisor is
    the number of bin slots spanned, not the number of rows, and is held
    as a float, as a trailing window of many days can span more slots
    than an int64 counts. The window is the full extent of the
    filesystem's data, or the trailing baseline_days of it.
    """
    if baseline_days is not None:
        check("baseline_days", baseline_days, "compute_baselines")
    w, n_fs = totals.bin_width, len(totals.names["fs"])
    avg, md_total_avg = np.zeros((n_fs, N_COUNTERS)), np.zeros(n_fs)
    n_bins = np.zeros(n_fs)
    for fs, rows in _kernels.groups(totals.codes["fs"]):
        bins, deltas = totals.bin_start[rows], totals.deltas[rows]
        last = int(bins.max())
        first = int(bins.min()) if baseline_days is None else \
            last - (max(1, round(baseline_days * 86400 / w)) - 1) * w
        inside = bins >= first
        n_bins[fs] = n_slots = (last - first) // w + 1
        avg[fs] = deltas[inside].sum(axis=0, dtype=np.float64) / n_slots
        md_total_avg[fs] = (
            deltas[inside, MDS_SLICE].sum(dtype=np.float64) / n_slots)
    return FsBaselines(totals.names["fs"], avg, md_total_avg, n_bins)


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


def compute_job_metrics(job_usage: UsageTable, baselines: FsBaselines,
                        params: Config = Config()) -> JobMetrics:
    """Evaluate risk and quality for every job-bin row under the risk
    rule's parameters: params' alpha, beta and md_small_avg_threshold.
    baselines must be aligned with the job usage's fs registry.

    The rows are evaluated one slice of ingest._PARSE_CHUNK at a time
    into results allocated once, so beyond the usage and the results the
    temporaries are one slice's (rows, 21) float64 tables. A degenerate
    baseline is logged once per filesystem, after the last slice."""
    for name in ("alpha", "beta", "md_small_avg_threshold"):
        check(name, getattr(params, name), "compute_job_metrics")
    job_idx, fs_idx = job_usage.codes["job_id"], job_usage.codes["fs"]
    job_ids, filesystems = job_usage.names["job_id"], job_usage.names["fs"]
    if baselines.filesystems != filesystems:
        raise ValueError(f"baselines are for filesystems "
                         f"{list(baselines.filesystems)}, the job usage "
                         f"for {list(filesystems)}")
    missing = [filesystems[i] for i in np.flatnonzero(
        (baselines.n_bins == 0)
        & (np.bincount(fs_idx, minlength=len(filesystems)) > 0))]
    if missing:
        raise ValueError(f"no baseline for filesystems {missing}")

    m = len(job_usage)
    risk_oss, risk_mds, q_read, q_write = (np.empty(m) for _ in range(4))
    has_io = np.empty(m, dtype=bool)
    mds_active = np.zeros(len(filesystems), dtype=bool)
    io_cols = (READ_KB, READ_OPS, WRITE_KB, WRITE_OPS)
    for lo in range(0, m, ingest._PARSE_CHUNK):
        rows = slice(lo, lo + ingest._PARSE_CHUNK)
        deltas, fs = job_usage.deltas[rows], fs_idx[rows]
        # the clamped per-counter risk, summed over each server class
        contrib = _kernels.risk_contribs(
            deltas.astype(np.float64), fs, baselines.avg,
            baselines.md_total_avg, params.alpha, params.beta,
            params.md_small_avg_threshold)
        contrib[:, OSS_SLICE].sum(axis=1, out=risk_oss[rows])
        contrib[:, MDS_SLICE].sum(axis=1, out=risk_mds[rows])
        del contrib
        mds_active[fs[deltas[:, MDS_SLICE].any(axis=1)]] = True
        q_read[rows], q_write[rows] = _quality_arrays(deltas)
        (deltas[:, io_cols] > 0).any(axis=1, out=has_io[rows])
    for i in np.flatnonzero(mds_active & ~(baselines.md_total_avg > 0)):
        log.warning(
            "degenerate baseline for %s: zero metadata average with "
            "nonzero metadata activity; beta-path denominator floored "
            "at %g", filesystems[i], params.md_small_avg_threshold)

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
