from __future__ import annotations

import io

import numpy as np
import pytest

from iorisk import _kernels, ingest
from iorisk.config import Config
from iorisk.ingest import (COUNTER_HEADER, CounterFeed, NodeUsage,
                           UsageTable, deltify_and_bin, parse_counter_feed)
from iorisk.ops import COUNTER_NAMES, N_COUNTERS
from scalar_analytics import JobRecord


def counter_csv(rows) -> io.StringIO:
    """rows: iterables of (ts, node, fs, *21 counters)."""
    lines = [",".join(COUNTER_HEADER)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return io.StringIO("\n".join(lines) + "\n")


def feed_from_rows(rows) -> CounterFeed:
    return parse_counter_feed(counter_csv(rows))


def values_row(**counters) -> list[int]:
    """21-counter row with named overrides, zero elsewhere."""
    vals = [0] * N_COUNTERS
    for name, v in counters.items():
        vals[COUNTER_NAMES.index(name)] = v
    return vals


def simple_job(job_id="j1", node="n1", start=0, end=720, command="cmd",
               project="proj", cores=24, nodes=None) -> JobRecord:
    return JobRecord(job_id=job_id, command=command, project=project,
                     nodes=frozenset(nodes if nodes else [node]),
                     start_ts=start, end_ts=end, cores_per_node=cores)


def risk_contribs(job_usage, baselines, params=Config()) -> np.ndarray:
    """The (m, 21) clamped per-counter risk that compute_job_metrics sums
    into risk_oss and risk_mds, from _kernels.risk_contribs."""
    return _kernels.risk_contribs(
        job_usage.deltas.astype(np.float64), job_usage.codes["fs"],
        baselines.avg, baselines.md_total_avg, params.alpha, params.beta,
        params.md_small_avg_threshold)


def whole(usage: NodeUsage) -> UsageTable:
    """The blocks of node usage joined into the one table of every row.
    Every block's codes index the last block's names, which extend
    theirs."""
    blocks = list(usage)
    return UsageTable(
        {key: np.concatenate([np.empty(0, np.int32)]
                             + [b.codes[key] for b in blocks])
         for key in ("node", "fs")}, usage.names,
        np.concatenate([np.empty(0, np.int64)]
                       + [b.bin_start for b in blocks]),
        np.concatenate([np.empty((0, N_COUNTERS), np.int64)]
                       + [b.deltas for b in blocks]), usage.bin_width)


def binned(*args, **kwargs) -> UsageTable:
    """deltify_and_bin's node usage as one table."""
    return whole(deltify_and_bin(*args, **kwargs))


def blocks_of(table: UsageTable) -> NodeUsage:
    """A node-usage table, its rows grouped by (node, fs) stream, as
    NodeUsage: blocks of whole streams of about ingest._PARSE_CHUNK rows,
    as the block sources cut them, each a view of the table's rows."""
    stream = (table.codes["node"].astype(np.int64) << 32) | table.codes["fs"]
    return NodeUsage((UsageTable({key: col[lo:hi] for key, col
                                  in table.codes.items()}, table.names,
                                 table.bin_start[lo:hi],
                                 table.deltas[lo:hi], table.bin_width)
                      for lo, hi in list(ingest.key_ranges(stream))),
                     table.bin_width)


def usage_columns(usage) -> dict[str, np.ndarray]:
    """The arrays of a UsageTable by name: its key codes, then bin_start
    and deltas."""
    return {**usage.codes, "bin_start": usage.bin_start,
            "deltas": usage.deltas}


def assert_same_jobs(a, b) -> None:
    """Two JobTables hold the same jobs."""
    assert (a.job_ids, a.projects, a.commands, a.nodes) == (
        b.job_ids, b.projects, b.commands, b.nodes)
    for name in ("start_ts", "end_ts", "cores_per_node", "node_ptr",
                 "slot_node"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _isolate_config_env(monkeypatch):
    # a config file in the outer environment must not leak into tests
    monkeypatch.delenv("IORISK_CONFIG", raising=False)
