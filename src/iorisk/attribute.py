"""Attribute binned node usage to the jobs that held the nodes.

Node allocation is exclusive (whole-node scheduling): two jobs may not hold
the same node at the same time, which job_table checks. A bin partially
covered by a job's interval is split by time-overlap fraction; whatever no
job claims goes to a per-fs unattributed ledger so fs totals stay auditable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ingest import JobTable, UsageTable, key_ranges


@dataclass
class JobUsageTable:
    """Per-job, per-fs counter deltas in each time bin, sorted by
    (job, fs, bin)."""

    job_idx: np.ndarray   # int32 (m,), index into job_ids
    fs_idx: np.ndarray    # int32 (m,)
    bin_start: np.ndarray  # int64 (m,)
    deltas: np.ndarray    # int64 (m, 21)
    job_ids: tuple[str, ...]
    filesystems: tuple[str, ...]
    bin_width: int

    def __len__(self) -> int:
        return len(self.bin_start)


@dataclass
class FsUsageTable:
    """Per-fs, per-bin counter deltas, sorted by (fs, bin)."""

    fs_idx: np.ndarray     # int32 (m,)
    bin_start: np.ndarray  # int64 (m,)
    deltas: np.ndarray     # int64 (m, 21)
    filesystems: tuple[str, ...]
    bin_width: int

    def __len__(self) -> int:
        return len(self.bin_start)


@dataclass
class AttributionResult:
    job_usage: JobUsageTable
    unattributed: FsUsageTable


def _by_bin_slices(bin_start, summed):
    """summed(rows) -> (keys, sums) over slices of about ingest's
    _PARSE_CHUNK rows that never split a bin, merged into one table in
    key order.

    Each slice's rows and temporaries are dropped before the next. The
    keys include the bin, so no key is summed in two slices, and the
    final group_sum only scatters the slice sums into key order, dropping
    each as it goes (its list form): only the key columns are
    concatenated.
    """
    order = np.argsort(bin_start, kind="stable")
    ranges = list(key_ranges(bin_start[order]))
    parts = [summed(order[:0])]  # types an empty table
    parts += [summed(order[lo:hi]) for lo, hi in ranges]
    del order
    keys = [np.concatenate(col) for col in zip(*(p[0] for p in parts))]
    sums = [p[1] for p in parts]
    del parts
    return _kernels.group_sum(keys, sums)


def fs_bin_totals(usage: UsageTable) -> FsUsageTable:
    """Aggregate node usage to fs-wide per-bin totals."""
    (fs, bins), deltas = _by_bin_slices(usage.bin_start, lambda rows: (
        _kernels.group_sum([usage.fs_idx[rows], usage.bin_start[rows]],
                           np.take(usage.deltas, rows, axis=0))))
    return FsUsageTable(fs, bins, deltas, usage.filesystems, usage.bin_width)


def attribute_usage(node_usage: UsageTable, jobs: JobTable
                    ) -> AttributionResult:
    """Assign node-bin deltas to the jobs holding the nodes.

    Bins partially covered by a job interval are apportioned by overlap
    fraction (the rule in _kernels, exact sum) between the jobs in start
    order, with the unattributed remainder last. Deltas on nodes no job
    held go to the unattributed ledger. The jobs must hold their nodes
    exclusively, as job_table ensures.

    Each row's claiming jobs are found once, over the whole table; the
    claimant rows are built, apportioned and summed a bin slice at a time.
    """
    # each job's slots recoded to the usage table's nodes; -1 has no usage
    node_of = {name: i for i, name in enumerate(node_usage.nodes)}
    recode = np.array([node_of.get(name, -1) for name in jobs.nodes],
                      dtype=np.int64)
    slot_node = recode[jobs.slot_node]
    slot_job = np.repeat(np.arange(len(jobs)), jobs.node_counts)
    start, end = jobs.start_ts[slot_job], jobs.end_ts[slot_job]
    # by node, then start: a node's jobs are disjoint, so starts differ
    order = np.lexsort((start, slot_node))
    order = order[slot_node[order] >= 0]
    node_ptr = np.searchsorted(slot_node[order],
                               np.arange(len(node_usage.nodes) + 1))
    job_start, job_end = start[order], end[order]
    job_of = slot_job[order].astype(np.int32)
    j0, j1 = _kernels.claim_ranges(
        node_usage.node_idx, node_usage.bin_start, node_usage.bin_width,
        node_ptr, job_start, job_end)

    def attributed(rows):
        *claim_keys, claim_deltas = _kernels.attribute_shares(
            rows, node_usage.fs_idx, node_usage.bin_start, node_usage.deltas,
            node_usage.bin_width, j0, j1, job_start, job_end, job_of)
        return _kernels.group_sum(claim_keys, claim_deltas)

    (job, fs, bins), deltas = _by_bin_slices(node_usage.bin_start,
                                             attributed)
    free = int(np.searchsorted(job, 0))  # the remainder, job -1, sorts first
    job_usage = JobUsageTable(job[free:], fs[free:], bins[free:],
                              deltas[free:], jobs.job_ids,
                              node_usage.filesystems, node_usage.bin_width)
    unattributed = FsUsageTable(fs[:free], bins[:free], deltas[:free],
                                node_usage.filesystems, node_usage.bin_width)
    return AttributionResult(job_usage, unattributed)
