"""Attribute binned node usage to the jobs that held the nodes.

Node allocation is exclusive (whole-node scheduling): two jobs may not hold
the same node at the same time, which job_table checks. A bin partially
covered by a job's interval is split by time-overlap fraction; whatever no
job claims goes to a per-fs unattributed ledger so fs totals stay auditable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, ingest
from .ingest import JobTable, NodeUsage, UsageTable
from .ops import N_COUNTERS


@dataclass
class AttributionResult:
    job_usage: UsageTable     # keyed by job_id and fs
    unattributed: UsageTable  # keyed by fs


def fs_bin_totals(attribution: AttributionResult) -> UsageTable:
    """Fs-wide per-bin totals of the node usage an attribution split: its
    job usage plus its unattributed ledger, whose shares sum to each
    node-bin row's deltas exactly (the apportioning rule in _kernels).

    Each table is summed per (fs, bin) a slice of ingest._PARSE_CHUNK rows
    at a time, and each slice's sums are merged into the totals in place,
    as attribute_usage builds the job usage."""
    keys = [np.empty(0, np.int32), np.empty(0, np.int64)]
    deltas = np.empty((0, N_COUNTERS), np.int64)
    for table in (attribution.job_usage, attribution.unattributed):
        for lo in range(0, len(table), ingest._PARSE_CHUNK):
            rows = slice(lo, lo + ingest._PARSE_CHUNK)
            _kernels.merge_sums(keys, deltas, *_kernels.group_sum(
                [table.codes["fs"][rows], table.bin_start[rows]],
                table.deltas[rows]))
    free = attribution.unattributed
    return UsageTable({"fs": keys[0]}, free.names, keys[1], deltas,
                      free.bin_width)


def attribute_usage(node_usage: NodeUsage, jobs: JobTable
                    ) -> AttributionResult:
    """Assign node-bin deltas to the jobs holding the nodes.

    Bins partially covered by a job interval are apportioned by overlap
    fraction (the rule in _kernels, exact sum) between the jobs in start
    order, with the unattributed remainder last. Deltas on nodes no job
    held go to the unattributed ledger. The jobs must hold their nodes
    exclusively, as job_table ensures.

    A node-bin row's claimants are its own node's jobs, so the node usage
    is attributed a block at a time as its blocks are taken: each block's
    rows are apportioned and summed per (job, fs, bin), and the block's
    sums are merged into the result in place. So beyond the result it
    holds the jobs' slots, one block, its claimant rows and their sums.
    """
    node_ptr, job_start, job_end, job_of = _node_jobs(jobs)
    slot_of = {name: i for i, name in enumerate(jobs.nodes)}
    # each usage node's code among the jobs' nodes; a node that no job
    # holds gets the empty segment past theirs
    recode: list[int] = []
    # the sums so far, which grow in place (see _kernels.merge_sums)
    keys = [np.empty(0, np.int32), np.empty(0, np.int32),
            np.empty(0, np.int64)]
    deltas = np.empty((0, N_COUNTERS), np.int64)
    w = node_usage.bin_width
    for block in node_usage:
        recode += [slot_of.get(name, len(jobs.nodes))
                   for name in block.names["node"][len(recode):]]
        _kernels.merge_sums(keys, deltas, *_block_sums(
            block, np.array(recode, np.int64), node_ptr, job_start, job_end,
            job_of))
        del block
    job, fs, bins = keys
    filesystems = node_usage.names["fs"]
    free = int(np.searchsorted(job, 0))  # the remainder, job -1, sorts first
    job_usage = UsageTable({"job_id": job[free:], "fs": fs[free:]},
                           {"job_id": jobs.job_ids, "fs": filesystems},
                           bins[free:], deltas[free:], w)
    unattributed = UsageTable({"fs": fs[:free]}, {"fs": filesystems},
                              bins[:free], deltas[:free], w)
    return AttributionResult(job_usage, unattributed)


def _node_jobs(jobs: JobTable):
    """(node_ptr, job_start, job_end, job_of): the jobs' slots on each of
    their nodes as CSR segments, each node's jobs in start order, and one
    empty segment more; each slot's job."""
    slot_job = np.repeat(np.arange(len(jobs)), jobs.node_counts)
    start, end = jobs.start_ts[slot_job], jobs.end_ts[slot_job]
    # by node, then start: a node's jobs are disjoint, so starts differ
    order = np.lexsort((start, jobs.slot_node))
    node_ptr = np.searchsorted(jobs.slot_node[order],
                               np.arange(len(jobs.nodes) + 2))
    return node_ptr, start[order], end[order], slot_job[order].astype(
        np.int32)


def _block_sums(block, recode, node_ptr, job_start, job_end, job_of):
    """A block's rows apportioned between their claimants and summed per
    (job, fs, bin) (group_sum's result); recode gives each of its nodes'
    code among the jobs' nodes (see _node_jobs)."""
    w = block.bin_width
    j0, j1 = _kernels.claim_ranges(recode[block.codes["node"]],
                                   block.bin_start, w, node_ptr, job_start,
                                   job_end)
    *claimed, shares = _kernels.attribute_shares(
        block.codes["fs"], block.bin_start, block.deltas, w, j0, j1,
        job_start, job_end, job_of)
    del j0, j1
    return _kernels.group_sum(claimed, shares)
