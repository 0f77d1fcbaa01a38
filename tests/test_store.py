"""The store tables read back through the chunked reader: round trips with
awkward keys, and malformed rows named by file, line and field."""
from __future__ import annotations

import re

import numpy as np
import pytest

from iorisk import ingest, store
from iorisk.attribute import JobUsageTable
from iorisk.ingest import UsageTable
from iorisk.ops import N_COUNTERS

# plain, comma, quote, newline and non-ASCII keys
NODES = ("n1", "n,2", 'n"3', "n\n4", "nœ5")
JOB_IDS = ("j1", "j,2", 'j"3', "j\n4", "jœ5", "j6-without-rows")
FILESYSTEMS = ("fs2", "fs 3")
BIN_WIDTH = 360


def _columns(m):
    deltas = np.arange(m * N_COUNTERS, dtype=np.int64).reshape(m, N_COUNTERS)
    return (np.arange(m, dtype=np.int64) * BIN_WIDTH,
            (np.arange(m) % 5).astype(np.int32),
            (np.arange(m) % 2).astype(np.int32), deltas)


def _usage(m=11) -> UsageTable:
    bins, nodes, fs, deltas = _columns(m)
    return UsageTable(bins, nodes, fs, deltas, NODES, FILESYSTEMS, BIN_WIDTH)


def _job_usage(m=11) -> JobUsageTable:
    bins, jobs, fs, deltas = _columns(m)
    return JobUsageTable(jobs, fs, bins, deltas, JOB_IDS, FILESYSTEMS,
                         BIN_WIDTH)


def _assert_same_arrays(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.fixture
def out(tmp_path):
    store.store_dir(tmp_path).mkdir()
    return tmp_path


@pytest.mark.parametrize("chunk", [2, 65536])
def test_usage_tables_round_trip(out, monkeypatch, chunk):
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
    usage, job_usage = _usage(), _job_usage()
    store.write_node_usage(out, usage)
    store.write_job_usage(out, job_usage)

    again = store.read_node_usage(out, BIN_WIDTH)
    assert (again.nodes, again.filesystems) == (NODES, FILESYSTEMS)
    _assert_same_arrays(again, usage,
                        ("bin_start", "node_idx", "fs_idx", "deltas"))
    again = store.read_job_usage(out, BIN_WIDTH, JOB_IDS, FILESYSTEMS)
    _assert_same_arrays(again, job_usage,
                        ("bin_start", "job_idx", "fs_idx", "deltas"))


def _rewrite_line(path, line_no, edit):
    lines = path.read_text().split("\n")
    lines[line_no - 1] = edit(lines[line_no - 1])
    path.write_text("\n".join(lines))


def test_short_store_row_names_file_and_line(out):
    store.write_node_usage(out, _usage(m=3))
    path = store.store_dir(out) / store.NODE_USAGE_NAME
    _rewrite_line(path, 3, lambda s: s.rsplit(",", 1)[0])
    with pytest.raises(ValueError, match=re.escape(
            f"store {path}: expected 24 fields, got 23 (line 3)")):
        store.read_node_usage(out, BIN_WIDTH)


def test_non_integer_store_field_names_file_line_and_field(out):
    store.write_job_usage(out, _job_usage(m=3))
    path = store.store_dir(out) / store.JOB_USAGE_NAME
    _rewrite_line(path, 4, lambda s: s.replace(",720,", ",7x0,"))
    with pytest.raises(ValueError, match=re.escape(
            f"store {path}: non-integer value '7x0' "
            f"(line 4, field 'bin_start')")):
        store.read_job_usage(out, BIN_WIDTH, JOB_IDS, FILESYSTEMS)


def test_job_usage_job_missing_from_jobs_csv(out):
    store.write_job_usage(out, _job_usage())
    path = store.store_dir(out) / store.JOB_USAGE_NAME
    with pytest.raises(ValueError, match=re.escape(
            f"store {path}: job 'jœ5' not in jobs.csv; rerun the analyze "
            f"stage")):
        store.read_job_usage(out, BIN_WIDTH, JOB_IDS[:4], FILESYSTEMS)


def test_job_usage_filesystem_missing_from_node_usage(out):
    store.write_job_usage(out, _job_usage())
    path = store.store_dir(out) / store.JOB_USAGE_NAME
    with pytest.raises(ValueError, match=re.escape(
            f"store {path}: filesystem 'fs 3' not in the node usage store; "
            f"rerun the analyze stage")):
        store.read_job_usage(out, BIN_WIDTH, JOB_IDS, FILESYSTEMS[:1])
