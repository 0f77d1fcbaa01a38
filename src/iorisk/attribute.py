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
class AttributionResult:
    job_usage: UsageTable     # keyed by job_id and fs
    unattributed: UsageTable  # keyed by fs


def fs_bin_totals(attribution: AttributionResult) -> UsageTable:
    """Fs-wide per-bin totals of the node usage an attribution split: its
    job usage plus its unattributed ledger, whose shares sum to each
    node-bin row's deltas exactly (the apportioning rule in _kernels)."""
    ju, free = attribution.job_usage, attribution.unattributed
    (fs, bins), deltas = _kernels.group_sum(
        [np.concatenate((ju.codes["fs"], free.codes["fs"])),
         np.concatenate((ju.bin_start, free.bin_start))],
        [ju.deltas, free.deltas])
    return UsageTable({"fs": fs}, free.names, bins, deltas, free.bin_width)


def attribute_usage(node_usage: UsageTable, jobs: JobTable
                    ) -> AttributionResult:
    """Assign node-bin deltas to the jobs holding the nodes.

    Bins partially covered by a job interval are apportioned by overlap
    fraction (the rule in _kernels, exact sum) between the jobs in start
    order, with the unattributed remainder last. Deltas on nodes no job
    held go to the unattributed ledger. The jobs must hold their nodes
    exclusively, as job_table ensures.

    Each row's claiming jobs are found once, over the whole table; the
    claimant rows are built, apportioned and summed a bin slice at a time,
    and each slice's sums go straight into their place in the result,
    which its claimant keys, found first, fix. So beyond the node usage
    and the result, it holds a few columns over the usage rows and one
    slice's claimant rows.
    """
    node_ptr, job_start, job_end, job_of = _node_jobs(node_usage, jobs)
    j0, j1 = _kernels.claim_ranges(
        node_usage.codes["node"], node_usage.bin_start, node_usage.bin_width,
        node_ptr, job_start, job_end)

    # slices of about ingest's _PARSE_CHUNK rows never split a bin, so no
    # key, which includes the bin, is summed in two slices. Each slice's
    # distinct claimant keys, found first without shares, fix where its
    # sums go in the result. Then each slice's rows are apportioned and
    # summed, and the sums go straight into place before the next slice's
    # are built (group_sum's iterator form): the result is the one table
    # of sums held. The empty slice (0, 0) types an empty table.
    order = np.argsort(node_usage.bin_start, kind="stable")
    slices = [(0, 0), *key_ranges(node_usage.bin_start[order])]
    rule = (node_usage.bin_width, j0, j1, job_start, job_end, job_of)
    (job, fs, bins), deltas = _kernels.group_sum(
        *_slice_claims(node_usage, order, slices, rule))
    filesystems = node_usage.names["fs"]
    free = int(np.searchsorted(job, 0))  # the remainder, job -1, sorts first
    job_usage = UsageTable({"job_id": job[free:], "fs": fs[free:]},
                           {"job_id": jobs.job_ids, "fs": filesystems},
                           bins[free:], deltas[free:], node_usage.bin_width)
    unattributed = UsageTable({"fs": fs[:free]}, {"fs": filesystems},
                              bins[:free], deltas[:free],
                              node_usage.bin_width)
    return AttributionResult(job_usage, unattributed)


def _node_jobs(node_usage: UsageTable, jobs: JobTable):
    """(node_ptr, job_start, job_end, job_of): the jobs' slots on the
    usage table's nodes as CSR segments, each node's jobs in start order,
    and each slot's job; slots on nodes without usage are left out."""
    # each job's slots recoded to the usage table's nodes; -1 has no usage
    nodes = node_usage.names["node"]
    node_of = {name: i for i, name in enumerate(nodes)}
    recode = np.array([node_of.get(name, -1) for name in jobs.nodes],
                      dtype=np.int64)
    slot_node = recode[jobs.slot_node]
    slot_job = np.repeat(np.arange(len(jobs)), jobs.node_counts)
    start, end = jobs.start_ts[slot_job], jobs.end_ts[slot_job]
    # by node, then start: a node's jobs are disjoint, so starts differ
    order = np.lexsort((start, slot_node))
    order = order[slot_node[order] >= 0]
    node_ptr = np.searchsorted(slot_node[order],
                               np.arange(len(nodes) + 1))
    job_start, job_end = start[order], end[order]
    job_of = slot_job[order].astype(np.int32)
    return node_ptr, job_start, job_end, job_of


def _slice_claims(node_usage, order, slices, rule):
    """group_sum's arguments that merge the slices' claimant sums: the
    slices' distinct claimant keys, each slice's in key order, an iterator
    of the slices' sums, and each slice's count of keys. A slice is the
    node-bin rows order[lo:hi]; rule is attribute_shares' arguments after
    the deltas."""
    fs_idx, bin_start = node_usage.codes["fs"], node_usage.bin_start
    keys = []
    for lo, hi in slices:
        claimed = _kernels.claim_keys(order[lo:hi], fs_idx, bin_start, *rule)
        by_key, starts = _kernels.sort_groups(*claimed)
        keys.append([key[by_key[starts]] for key in claimed])
    sizes = [len(job) for job, _, _ in keys]
    sums = (_slice_sums(order[lo:hi], node_usage, rule) for lo, hi in slices)
    return [np.concatenate(col) for col in zip(*keys)], sums, sizes


def _slice_sums(rows, node_usage, rule):
    """The node-bin rows picked by rows apportioned between their claimants
    (see _kernels.attribute_shares) and summed per (job, fs, bin), in key
    order."""
    *claimed, shares = _kernels.attribute_shares(
        rows, node_usage.codes["fs"], node_usage.bin_start,
        node_usage.deltas, *rule)
    return _kernels.group_sum(claimed, shares)[1]
