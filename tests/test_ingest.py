from __future__ import annotations

import io

import numpy as np
import pytest

from conftest import (assert_same_jobs, binned, counter_csv,
                      feed_from_rows, values_row)
from iorisk.ingest import (COUNTER_HEADER, AttributionConflictError,
                           CounterFeed, FeedFormatError, deltify_and_bin,
                           parse_counter_feed, parse_job_feed,
                           read_counter_file, write_counter_csv,
                           write_jobs_csv)
from iorisk.ops import COUNTER_NAMES, READ_KB, READ_OPS, WRITE_OPS
from scalar_analytics import JobRecord, as_table


def assert_same_feed(a: CounterFeed, b: CounterFeed) -> None:
    assert (a.nodes, a.filesystems) == (b.nodes, b.filesystems)
    for name in ("ts", "node_idx", "fs_idx", "values"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def csv_text(feed: CounterFeed) -> str:
    buf = io.StringIO()
    write_counter_csv(feed, buf)
    return buf.getvalue()


def by_bin(usage, col: int) -> dict[int, int]:
    return dict(zip(usage.bin_start.tolist(),
                    usage.deltas[:, col].tolist()))


def test_parse_single_valid_row():
    feed = feed_from_rows([[500, "n1", "fs2"] + list(range(21))])
    assert len(feed) == 1
    assert feed.ts[0] == 500
    assert feed.nodes[feed.node_idx[0]] == "n1"
    assert feed.filesystems[feed.fs_idx[0]] == "fs2"
    assert feed.values[0, READ_KB] == 0
    assert feed.values[0, COUNTER_NAMES.index("cdr")] == 20
    assert feed.values.shape == (1, 21)


def test_negative_counter_rejected_with_line_and_field():
    rows = [[500, "n1", "fs2"] + [0] * 21,
            [600, "n1", "fs2"] + values_row(read_kb=-5)]
    with pytest.raises(FeedFormatError) as exc:
        feed_from_rows(rows)
    assert exc.value.line_no == 3
    assert exc.value.feed_field == "read_kb"


def test_non_integer_value_rejected_with_line_and_field():
    rows = [[500, "n1", "fs2"] + [0] * 21]
    text = counter_csv(rows).getvalue().replace("500", "oops")
    with pytest.raises(FeedFormatError) as exc:
        parse_counter_feed(io.StringIO(text))
    assert exc.value.line_no == 2
    assert exc.value.feed_field == "ts"


def test_zero_timestamp_rejected():
    with pytest.raises(FeedFormatError) as exc:
        feed_from_rows([[0, "n1", "fs2"] + [0] * 21])
    assert exc.value.feed_field == "ts"


def test_error_line_numbers_survive_chunked_parsing():
    # a fault deep in the second conversion chunk still names its line
    from iorisk.ingest import _PARSE_CHUNK
    n = _PARSE_CHUNK + 50
    rows = [[i + 1, "n1", "fs2"] + [0] * 21 for i in range(n)]
    rows[-1][3] = -1
    with pytest.raises(FeedFormatError) as exc:
        feed_from_rows(rows)
    assert exc.value.line_no == n + 1
    assert exc.value.feed_field == "read_kb"
    feed = feed_from_rows(rows[:-1])
    assert len(feed) == n - 1
    assert feed.ts[_PARSE_CHUNK] == _PARSE_CHUNK + 1


def test_missing_and_extra_columns_are_schema_errors():
    bad = ",".join(COUNTER_HEADER[:-1]) + "\n"
    with pytest.raises(FeedFormatError):
        parse_counter_feed(io.StringIO(bad))
    bad = ",".join(COUNTER_HEADER + ("bogus",)) + "\n"
    with pytest.raises(FeedFormatError):
        parse_counter_feed(io.StringIO(bad))
    with pytest.raises(FeedFormatError):
        parse_counter_feed(io.StringIO(""))


def test_short_row_rejected():
    text = ",".join(COUNTER_HEADER) + "\n1,900,n1,fs2\n"
    with pytest.raises(FeedFormatError) as exc:
        parse_counter_feed(io.StringIO(text))
    assert exc.value.line_no == 2


def test_round_trip_parse_serialize_parse_identical():
    rows = [[500, "n1", "fs2"] + list(range(21)),
            [600, "n2", "fs3"] + list(range(100, 121)),
            [700, "n1", "fs2"] + list(range(5, 26))]
    feed = feed_from_rows(rows)
    text = csv_text(feed)
    again = parse_counter_feed(io.StringIO(text))
    assert_same_feed(again, feed)
    assert csv_text(again) == text


def test_round_trip_keeps_keys_with_a_lone_carriage_return():
    feed = CounterFeed(np.array([360, 720]), np.zeros(2, np.int32),
                       np.zeros(2, np.int32),
                       np.arange(42, dtype=np.int64).reshape(2, 21),
                       ("a\rb",), ("fs\r2",))
    text = csv_text(feed)
    assert '\n360,"a\rb","fs\r2",0,' in text
    again = parse_counter_feed(io.StringIO(text, newline=""))
    assert_same_feed(again, feed)


# --- job feed -------------------------------------------------------------

JOB_HEADER_LINE = "job_id,project,command,nodes,start_ts,end_ts,cores_per_node"


def job_csv(lines) -> io.StringIO:
    return io.StringIO(JOB_HEADER_LINE + "\n" + "\n".join(lines) + "\n")


def test_job_row_with_two_nodes():
    jobs = parse_job_feed(job_csv(['j1,projA,cmd,n2;n1;n2,100,200,24']))
    assert len(jobs) == 1
    assert jobs.nodes == ("n1", "n2")
    assert jobs.slot_node.tolist() == [0, 1]
    assert jobs.node_ptr.tolist() == [0, 2]
    assert jobs.runtime_s.tolist() == [100]


def test_job_end_before_start_rejected():
    with pytest.raises(FeedFormatError):
        parse_job_feed(job_csv(['j1,projA,cmd,n1,200,100,24']))


def test_job_empty_node_list_rejected():
    with pytest.raises(FeedFormatError):
        parse_job_feed(job_csv(['j1,projA,cmd,,100,200,24']))


def test_job_empty_cores_defaults_to_24():
    jobs = parse_job_feed(job_csv(['j1,projA,cmd,n1,100,200,']))
    assert jobs.cores_per_node.tolist() == [24]
    jobs = parse_job_feed(job_csv(['j1,projA,cmd,n1,100,200,']),
                          default_cores=36)
    assert jobs.cores_per_node.tolist() == [36]


@pytest.mark.parametrize("field", ["start_ts", "end_ts", "cores_per_node"])
def test_job_integer_beyond_int64_names_line_and_field(field):
    values = {"start_ts": "100", "end_ts": "200", "cores_per_node": "24",
              field: "9" * 20}
    row = "j1,p,c,n1," + ",".join(values.values())
    with pytest.raises(FeedFormatError,
                       match="value out of int64 range") as exc:
        parse_job_feed(job_csv(['j0,p,c,n0,1,2,24', row]))
    assert (exc.value.line_no, exc.value.feed_field) == (3, field)


def test_job_command_with_commas_round_trips():
    jobs = as_table([JobRecord("j1", 'run -a 1,2 -b "x"', "p",
                               frozenset({"n1"}), 100, 200)])
    buf = io.StringIO()
    write_jobs_csv(jobs, buf)
    again = parse_job_feed(io.StringIO(buf.getvalue()))
    assert again.commands == ('run -a 1,2 -b "x"',)
    assert_same_jobs(again, jobs)


def test_job_core_seconds_beyond_int64_name_line_and_end_ts():
    top = 2 ** 63 - 1  # one node, one core: core-seconds = runtime
    assert parse_job_feed(job_csv([f'j1,p,c,n1,0,{top},1'])).core_s \
        .tolist() == [top]
    with pytest.raises(FeedFormatError, match="beyond int64") as exc:
        parse_job_feed(job_csv([f'j1,p,c,n1,0,{top // 2},2',
                                f'j2,p,c,n1;n2,-1,{top // 4},24']))
    assert (exc.value.line_no, exc.value.feed_field) == (3, "end_ts")
    # the feed's sum, not only each job's, stays within int64
    with pytest.raises(FeedFormatError, match="sum to 9223372036854775808"
                       ) as exc:
        parse_job_feed(job_csv(['j1,p,c,n1,0,2,1', 'j0,p,c,n2,0,3,24',
                                f'j2,p,c,n3,0,{top - 73},1']))
    assert (exc.value.line_no, exc.value.feed_field) == (4, "end_ts")


def test_first_of_several_conflicts_is_reported():
    # j1 holds both nodes; which of its conflicts is reported must not
    # depend on the order a set of node names iterates in
    with pytest.raises(AttributionConflictError) as exc:
        parse_job_feed(job_csv(['j1,p,c,zz;aa,100,200,24',
                                'j2,p,c,zz,150,300,24',
                                'j3,p,c,aa,199,300,24']))
    assert (exc.value.node_id, exc.value.job_ids) == ("aa", ("j1", "j3"))


def test_duplicate_job_id_rejected():
    with pytest.raises(FeedFormatError) as exc:
        parse_job_feed(job_csv(['j1,p,c,n1,1,2,24', 'j1,p,c,n2,5,9,24']))
    assert "duplicate" in str(exc.value)


# --- deltify_and_bin ------------------------------------------------------


def test_delta_within_one_bin():
    # both snapshots inside (0, 360]: delta lands in that bin
    feed = feed_from_rows([
        [100, "n1", "fs2"] + values_row(read_ops=1000),
        [300, "n1", "fs2"] + values_row(read_ops=1500)])
    usage = binned(feed, 360)
    assert len(usage) == 1
    assert by_bin(usage, READ_OPS) == {0: 500}
    assert usage.deltas[0].sum() == 500


def test_counter_reset_yields_new_value_as_delta():
    feed = feed_from_rows([
        [100, "n1", "fs2"] + values_row(read_ops=1500),
        [300, "n1", "fs2"] + values_row(read_ops=100)])
    usage = binned(feed, 360)
    assert len(usage) == 1
    assert usage.deltas[0, READ_OPS] == 100


def test_spanning_delta_apportioned_proportionally():
    # (100, 500] spans bins (0,360] and (360,720]: overlaps 260 s and 140 s
    feed = feed_from_rows([
        [100, "n1", "fs2"] + values_row(write_ops=0),
        [500, "n1", "fs2"] + values_row(write_ops=400)])
    usage = binned(feed, 360)
    assert by_bin(usage, WRITE_OPS) == {0: 260, 360: 140}


def test_boundary_snapshot_closes_earlier_bin():
    # a sample exactly at 360 reports the (0, 360] bin
    feed = feed_from_rows([
        [360, "n1", "fs2"] + values_row(read_ops=0),
        [720, "n1", "fs2"] + values_row(read_ops=50)])
    usage = binned(feed, 360)
    assert len(usage) == 1
    assert by_bin(usage, READ_OPS) == {360: 50}


def test_long_gap_drops_interval():
    feed = feed_from_rows([
        [100, "n1", "fs2"] + values_row(read_ops=0),
        [100 + 4 * 360, "n1", "fs2"] + values_row(read_ops=999)])
    usage = binned(feed, 360, max_gap_bins=3)
    assert len(usage) == 0
    usage = binned(feed, 360, max_gap_bins=4)
    assert usage.deltas[:, READ_OPS].sum() == 999


def test_unsorted_interleaved_input_is_sorted_internally():
    rows = [
        [700, "n2", "fs2"] + values_row(read_ops=70),
        [400, "n1", "fs2"] + values_row(read_ops=10),
        [700, "n1", "fs2"] + values_row(read_ops=40),
        [400, "n2", "fs2"] + values_row(read_ops=30),
    ]
    usage = binned(feed_from_rows(rows), 360)
    got = {(usage.names["node"][n], b): d for n, b, d in zip(
        usage.codes["node"], usage.bin_start.tolist(),
        usage.deltas[:, READ_OPS].tolist())}
    assert got == {("n1", 360): 30, ("n2", 360): 40}


def test_conservation_on_random_monotone_walk(rng):
    # DERIVED oracle: without resets, binned deltas sum to last - first
    for trial in range(10):
        rows = []
        t = int(rng.integers(1, 1000))
        cum = rng.integers(0, 100, size=21)
        first = cum.copy()
        for _ in range(50):
            t += int(rng.integers(1, 800))
            cum = cum + rng.integers(0, 500, size=21)
            rows.append([t, "n1", "fs2"] + cum.tolist())
        usage = binned(feed_from_rows(
            [[1, "n1", "fs2"] + first.tolist()] + rows), 360,
            max_gap_bins=None)
        np.testing.assert_array_equal(usage.deltas.sum(axis=0), cum - first)


def test_apportioned_shares_never_negative(rng):
    # property: rounding residue correction keeps every share >= 0
    for trial in range(200):
        t0 = int(rng.integers(1, 2000))
        t1 = t0 + int(rng.integers(1, 5000))
        delta = int(rng.integers(0, 10))
        feed = feed_from_rows([
            [t0, "n1", "fs2"] + values_row(mkdir=0),
            [t1, "n1", "fs2"] + values_row(mkdir=delta)])
        usage = binned(feed, 360, max_gap_bins=None)
        shares = usage.deltas[:, COUNTER_NAMES.index("mkdir")].tolist()
        assert all(s >= 0 for s in shares)
        assert sum(shares) == delta


def test_duplicate_timestamp_pair_assigned_to_closing_bin():
    feed = feed_from_rows([
        [400, "n1", "fs2"] + values_row(read_ops=100),
        [400, "n1", "fs2"] + values_row(read_ops=130)])
    usage = binned(feed, 360)
    assert len(usage) == 1
    assert by_bin(usage, READ_OPS) == {360: 30}


def test_pre_differenced_passthrough():
    feed = feed_from_rows([
        [300, "n1", "fs2"] + values_row(read_ops=100),
        [660, "n1", "fs2"] + values_row(read_ops=40)])
    usage = binned(feed, 360, pre_differenced=True)
    assert by_bin(usage, READ_OPS) == {0: 100, 360: 40}


def test_bin_width_must_be_positive():
    with pytest.raises(ValueError):
        deltify_and_bin(feed_from_rows([]), 0)


def test_blank_line_is_a_field_count_error(tmp_path):
    # numpy's C reader skips blank lines; the feed contract rejects them
    rows = [[500 + 100 * i, "n1", "fs2"] + [0] * 21 for i in range(3)]
    lines = counter_csv(rows).getvalue().splitlines(keepends=True)
    path = tmp_path / "counters.csv"
    path.write_text("".join(lines[:3] + ["\n"] + lines[3:]))
    with pytest.raises(FeedFormatError,
                       match="expected 24 fields, got 0") as exc:
        read_counter_file(path)
    assert exc.value.line_no == 4
