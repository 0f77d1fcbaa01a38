"""The column analytics and the job table's allocation check against the
record-by-record oracles of scalar_analytics.py, on generated job sets:
shared commands, equal runtimes, job ids ordered differently from the
feed, multi-node jobs, zero-I/O jobs, thresholds hit exactly and jobs
sharing nodes."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iorisk.analytics import (build_scatter, detect_slowdown, job_measures,
                              summarize_jobs)
from iorisk.ingest import AttributionConflictError, UsageTable
from iorisk.metrics import JobMetrics
from iorisk.ops import N_COUNTERS
from iorisk.report import MEASURES, build_breakdown, build_heatmap

import scalar_analytics as ref

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)
W = 360


@st.composite
def job_sets(draw):
    """JobRecords on nodes of their own, a seed for their usage rows and
    the slowdown parameters."""
    n = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(n)))  # "j10" sorts before "j2"
    runtime = st.one_of(st.sampled_from([100, 180, 360, 361, 2 ** 50 + 1]),
                        st.integers(1, 5000))
    jobs = [ref.JobRecord(
        job_id=f"j{ids[i]}",
        command=draw(st.sampled_from(["a", "b", "a b", "B", "é"])),
        project=draw(st.sampled_from(["p", "q"])),
        nodes=frozenset(f"n{i}-{k}"
                        for k in range(draw(st.integers(1, 5)))),
        start_ts=(start := draw(st.integers(-1000, 10 ** 6))),
        end_ts=start + draw(runtime),
        cores_per_node=draw(st.integers(1, 64))) for i in range(n)]
    return (jobs, draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.sampled_from([1.2, 1.5, 2.0, 3.0])),
            draw(st.integers(2, 4)))


def _usage(jobs, seed) -> UsageTable:
    """Job-bin rows for some of the jobs; the rest have no I/O."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 3 * len(jobs) + 1))
    scale = rng.choice([10, 2 ** 20, 2 ** 55], size=(m, 1))
    return UsageTable(
        codes={"job_id": rng.integers(0, len(jobs), size=m).astype(np.int32),
               "fs": np.zeros(m, np.int32)},
        names={"job_id": tuple(j.job_id for j in jobs), "fs": ("fs2",)},
        bin_start=np.zeros(m, np.int64),
        deltas=rng.integers(0, scale, size=(m, N_COUNTERS)), bin_width=W)


def _metrics(jobs, seed) -> JobMetrics:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 3 * len(jobs) + 1))

    def risk():  # zero in about a third of the rows
        return rng.uniform(0, 90, size=m) * (rng.random(m) < 0.7)

    return JobMetrics(
        job_idx=rng.integers(0, len(jobs), size=m).astype(np.int32),
        fs_idx=np.zeros(m, np.int32), bin_start=np.zeros(m, np.int64),
        risk_oss=risk(),
        risk_mds=risk(), read_kb_ops=risk(), write_kb_ops=risk(),
        has_io=rng.random(m) < 0.6, job_ids=tuple(j.job_id for j in jobs),
        filesystems=("fs2",), bin_width=W)


@PROPERTY
@given(job_sets())
def test_summaries_heatmaps_and_breakdown_match_the_oracle(case):
    jobs, seed, _, _ = case
    table, usage = ref.as_table(jobs), _usage(jobs, seed)
    want = ref.summarize_jobs(jobs, usage)

    totals = summarize_jobs(table, usage)
    measures = job_measures(table, totals)
    assert [[s.job_id, s.project, s.command, s.nodes_count, s.core_s,
             s.read_gib, s.write_gib, s.read_ops_total, s.write_ops_total,
             s.mean_read_ops_s, s.mean_write_ops_s] for s in want] == [
        [*row, n, core_s, *m[:2], t[1], t[3], *m[2:]]
        for row, n, core_s, m, t in zip(
            zip(table.job_ids, table.projects, table.commands),
            table.node_counts.tolist(), table.core_s.tolist(),
            measures.tolist(), totals.tolist())]

    for measure in MEASURES:
        got, hm = build_heatmap(table, totals, measure), \
            ref.build_heatmap(want, measure)
        assert (got.row_labels, got.col_labels) == (hm.row_labels,
                                                    hm.col_labels)
        assert got.weights_core_s.tolist() == hm.weights_core_s.tolist()
        assert got.weights.tolist() == hm.weights.tolist()
    assert build_breakdown(table, totals) == ref.build_breakdown(want)


def _runs(*runtimes):
    return [ref.JobRecord(f"r{i}", "cmd", "p", frozenset({f"n{i}"}), 0, rt,
                          cores_per_node=1) for i, rt in enumerate(runtimes)]


@PROPERTY
@example((_runs(100, 100, 100, 180), 0, 1.5, 3))  # 180 == 1.5 * 120
# a group sum past 2**53: a float64 sum would round before the mean
@example((_runs(2 ** 52 + 1, 2 ** 52 + 3, 2 ** 52 + 1, 2 ** 53 + 1), 0,
          1.2, 3))
@given(job_sets())
def test_slowdown_matches_the_oracle(case):
    jobs, _, factor, min_group = case
    table = ref.as_table(jobs)
    want = ref.detect_slowdown(ref.group_applications(jobs), factor,
                               min_group)

    rows, means = detect_slowdown(table, factor, min_group)
    runtime = table.runtime_s[rows]
    assert [(f.job_id, f.command, f.runtime_s, f.group_mean_s, f.ratio)
            for f in want] == list(zip(
                [table.job_ids[r] for r in rows],
                [table.commands[r] for r in rows], runtime.tolist(),
                means.tolist(), (runtime / means).tolist()))


@PROPERTY
@given(job_sets(), st.integers(0, 2))
def test_scatter_matches_the_oracle(case, pick):
    jobs, seed, _, _ = case
    table, jm = ref.as_table(jobs), _metrics(jobs, seed)
    # thresholds hit exactly: each job's own average total risk
    everyone = ref.build_scatter(jobs, jm, -1.0)
    sums = sorted(p.avg_risk_oss + p.avg_risk_mds for p in everyone)
    for threshold in (sums[pick * (len(sums) - 1) // 2], 25.0):
        want = ref.build_scatter(jobs, jm, threshold)
        rows, averages = build_scatter(table, jm, threshold)
        assert [(p.job_id, p.command, p.avg_risk_oss, p.avg_risk_mds,
                 p.avg_quality) for p in want] == [
            (table.job_ids[r], table.commands[r], *a)
            for r, a in zip(rows.tolist(), averages.tolist())]


@PROPERTY
@given(st.lists(st.tuples(st.sets(st.sampled_from("abcd"), min_size=1),
                          st.integers(0, 20), st.integers(1, 10)),
                min_size=1, max_size=8))
def test_allocation_conflicts_match_the_oracle(specs):
    jobs = [ref.JobRecord(f"j{i}", "c", "p", frozenset(nodes), start,
                          start + length)
            for i, (nodes, start, length) in enumerate(specs)]
    try:
        ref.validate_exclusive_allocation(jobs)
    except AttributionConflictError:
        with pytest.raises(AttributionConflictError) as exc:
            ref.as_table(jobs)
        # the pair reported does overlap on the node reported
        a, b = (jobs[int(job_id[1:])] for job_id in exc.value.job_ids)
        assert exc.value.node_id in a.nodes & b.nodes
        assert a.start_ts < b.end_ts and b.start_ts < a.end_ts
    else:
        assert len(ref.as_table(jobs)) == len(jobs)
