"""One job-bin at a time: the per-record metric oracles.

The package computes risk and quality for whole columnar tables
(``compute_job_metrics``) and aggregates them per fs-bin
(``compute_fs_metrics``). These helpers state the same rules for a single
job-bin record and a list of such records, so the rule tests can be
written one bin at a time. ``job_bin_risk`` runs the package's own
``compute_job_metrics`` on a one-row table; ``fs_bin_aggregate`` is an
independent per-point summation, and ``fs_baselines`` states
``compute_baselines`` one filesystem and one row at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from iorisk.config import Config
from iorisk.ingest import UsageTable
from iorisk.metrics import (FS_SUBJECT, FsBaselines,
                            _quality_arrays, compute_job_metrics)
from iorisk.ops import (COUNTER_NAMES, MDS_COUNTERS, MDS_SLICE,
                        N_COUNTERS, OSS_COUNTERS)

from conftest import risk_contribs


@dataclass(frozen=True, eq=False)
class JobBinUsage:
    """Per-job, per-fs counter deltas for one time bin."""

    job_id: str
    fs_id: str
    bin_start: int
    deltas: np.ndarray  # (21,), int64


@dataclass(frozen=True, eq=False)
class RiskPoint:
    """Clamped risk contributions of one subject in one fs-bin."""

    subject: str
    fs_id: str
    bin_start: int
    risk_oss: float
    risk_mds: float
    per_op_risk: dict[str, float] = field(repr=False)  # by counter name


@dataclass(frozen=True)
class QualityPoint:
    """Read/write quality of one subject in one fs-bin."""

    subject: str
    fs_id: str
    bin_start: int
    read_kb_ops: float
    write_kb_ops: float


def op_risk(x: float, avg: float, alpha: float = Config.alpha) -> float:
    """Risk of one operation count against its scaled average, unclamped."""
    if avg <= 0:
        raise ValueError(f"op_risk needs avg > 0, got {avg}")
    scaled = alpha * avg
    return (x - scaled) / scaled


def one_baseline(fs_id: str, avg, md_total_avg: float) -> FsBaselines:
    """The baselines of a registry of one filesystem, over one bin."""
    return FsBaselines((fs_id,), np.asarray(avg, np.float64)[None, :],
                       np.asarray([md_total_avg], np.float64), np.ones(1))


def job_bin_risk(usage: JobBinUsage, baselines: FsBaselines,
                 params: Config = Config()) -> RiskPoint:
    """Risk contributions of a single job-bin against its filesystem's
    row of baselines."""
    if usage.fs_id not in baselines.filesystems:
        raise ValueError(f"baselines are for {baselines.filesystems}, "
                         f"usage is for {usage.fs_id!r}")
    fs = baselines.filesystems.index(usage.fs_id)
    table = UsageTable({"job_id": np.zeros(1, np.int32),
                        "fs": np.full(1, fs, np.int32)},
                       {"job_id": (usage.job_id,),
                        "fs": baselines.filesystems},
                       np.asarray([usage.bin_start], np.int64),
                       usage.deltas[None, :], 360)
    jm = compute_job_metrics(table, baselines, params)
    contrib = risk_contribs(table, baselines, params)
    return RiskPoint(subject=usage.job_id, fs_id=usage.fs_id,
                     bin_start=usage.bin_start,
                     risk_oss=float(jm.risk_oss[0]),
                     risk_mds=float(jm.risk_mds[0]),
                     per_op_risk={op: float(contrib[0, col])
                                  for col, op in enumerate(COUNTER_NAMES)})


def fs_baselines(totals: UsageTable, baseline_days: float | None = None
                 ) -> list[tuple[list[float], float, int]]:
    """Per filesystem of the registry, in its order, (avg, md_total_avg,
    n_bins): the window is the span of the filesystem's bins, or its last
    max(1, round(baseline_days days / bin width)) bin slots; each
    counter's deltas inside it are summed exactly, as Python ints, and
    divided by the number of slots, empty ones included. A filesystem
    with no rows gets zeros."""
    w = totals.bin_width
    out = []
    for fs in range(len(totals.names["fs"])):
        rows = [(int(b), [int(v) for v in d]) for code, b, d in
                zip(totals.codes["fs"], totals.bin_start, totals.deltas)
                if code == fs]
        if not rows:
            out.append(([0.0] * N_COUNTERS, 0.0, 0))
            continue
        last = max(b for b, _ in rows)
        if baseline_days is None:
            n_slots = (last - min(b for b, _ in rows)) // w + 1
        else:
            n_slots = max(1, round(baseline_days * 86400 / w))
        sums = [0] * N_COUNTERS
        for b, d in rows:
            if b > last - n_slots * w:
                sums = [s + v for s, v in zip(sums, d)]
        out.append(([s / n_slots for s in sums],
                    sum(sums[MDS_SLICE]) / n_slots, n_slots))
    return out


def job_bin_quality(usage: JobBinUsage) -> QualityPoint:
    """Quality metrics for one job-bin (1.0 = 1 MiB mean transfer)."""
    q_read, q_write = _quality_arrays(usage.deltas[None, :])
    return QualityPoint(subject=usage.job_id, fs_id=usage.fs_id,
                        bin_start=usage.bin_start,
                        read_kb_ops=float(q_read[0]),
                        write_kb_ops=float(q_write[0]))


def fs_bin_aggregate(risk_points, quality_points
                     ) -> tuple[RiskPoint, QualityPoint]:
    """Aggregate one fs-bin's job points into the fs point.

    All points must share fs_id and bin_start. Quality sums cover only
    subjects whose risk_oss is greater than zero.
    """
    risk_points = list(risk_points)
    quality_points = list(quality_points)
    if not risk_points and not quality_points:
        raise ValueError("nothing to aggregate")
    ref = risk_points[0] if risk_points else quality_points[0]
    for p in risk_points + quality_points:
        if p.fs_id != ref.fs_id or p.bin_start != ref.bin_start:
            raise ValueError(
                f"point {p.subject!r} at ({p.fs_id}, {p.bin_start}) does "
                f"not belong to fs-bin ({ref.fs_id}, {ref.bin_start})")

    per_op = {op: 0.0 for op in COUNTER_NAMES}
    for p in risk_points:
        for op, v in p.per_op_risk.items():
            per_op[op] += v
    risk_oss = sum(p.per_op_risk[op] for p in risk_points
                   for op in OSS_COUNTERS)
    risk_mds = sum(p.per_op_risk[op] for p in risk_points
                   for op in MDS_COUNTERS)

    oss_of = {p.subject: p.risk_oss for p in risk_points}
    q_read = 0.0
    q_write = 0.0
    for q in quality_points:
        if oss_of.get(q.subject, 0.0) > 0:
            q_read += q.read_kb_ops
            q_write += q.write_kb_ops

    fs_risk = RiskPoint(subject=FS_SUBJECT, fs_id=ref.fs_id,
                        bin_start=ref.bin_start,
                        risk_oss=float(risk_oss), risk_mds=float(risk_mds),
                        per_op_risk=per_op)
    fs_quality = QualityPoint(subject=FS_SUBJECT, fs_id=ref.fs_id,
                              bin_start=ref.bin_start,
                              read_kb_ops=q_read, write_kb_ops=q_write)
    return fs_risk, fs_quality
