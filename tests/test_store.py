"""The store tables: the bulk writers against the row-by-row oracle in
scalar_store.py, round trips through the chunked reader with awkward keys,
and malformed rows named by file, line and field."""
from __future__ import annotations

import re

import numpy as np
import pytest

from iorisk import ingest, store
from iorisk.attribute import JobUsageTable, attribute_usage, fs_bin_totals
from iorisk.ingest import UsageTable
from iorisk.ops import N_COUNTERS

import scalar_store as ref
from scalar_analytics import as_table

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


# keys csv.writer must quote or keep as they are: comma, doubled quote,
# newline, empty, non-ASCII, leading and trailing spaces
ODD_KEYS = ("k,1", 'k"2', 'k""3', "k\n4", "", "kœ5", " k6 ", "k\r\n7", "k8")
ODD_FS = ("fs,2", " fs3", "")


def _odd_tables(m):
    deltas = np.arange(m * N_COUNTERS, dtype=np.int64).reshape(m, N_COUNTERS)
    deltas[::3] = np.iinfo(np.int64).max
    deltas[1::4] = 0
    bins = np.arange(m, dtype=np.int64) * BIN_WIDTH
    keys = (np.arange(m) * 7 % len(ODD_KEYS)).astype(np.int32)
    fs = (np.arange(m) % len(ODD_FS)).astype(np.int32)
    return (UsageTable(bins, keys, fs, deltas, ODD_KEYS, ODD_FS, BIN_WIDTH),
            JobUsageTable(keys, fs, bins, deltas, ODD_KEYS, ODD_FS,
                          BIN_WIDTH))


@pytest.mark.parametrize("m, chunk", [(0, 1024), (1, 1024), (23, 2),
                                      (23, 1024)])
def test_writers_match_row_by_row_oracle(tmp_path, monkeypatch, m, chunk):
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
    usage, job_usage = _odd_tables(m)
    files = {}
    for name, write_node, write_job in (
            ("bulk", store.write_node_usage, store.write_job_usage),
            ("oracle", ref.write_node_usage, ref.write_job_usage)):
        store.store_dir(tmp_path / name).mkdir(parents=True)
        write_node(tmp_path / name, usage)
        write_job(tmp_path / name, job_usage)
        files[name] = [(store.store_dir(tmp_path / name) / table)
                       .read_bytes() for table in (store.NODE_USAGE_NAME,
                                                   store.JOB_USAGE_NAME)]
    assert files["bulk"] == files["oracle"]


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
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
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


def _reordered_usage() -> UsageTable:
    """Node usage listing fs3 before fs2, as ingest stores it when the
    first node has rows only on fs3."""
    nodes = np.array([0, 0, 1, 1, 1, 1], dtype=np.int32)
    fs = np.array([0, 0, 1, 1, 0, 0], dtype=np.int32)
    bins = np.array([0, 1, 0, 1, 0, 2], dtype=np.int64) * BIN_WIDTH
    deltas = np.arange(6 * N_COUNTERS, dtype=np.int64).reshape(6, N_COUNTERS)
    return UsageTable(bins, nodes, fs, deltas, ("n0", "n1"), ("fs3", "fs2"),
                      BIN_WIDTH)


def _empty_usage() -> UsageTable:
    bins, nodes, fs, deltas = _columns(0)
    return UsageTable(bins, nodes, fs, deltas, (), (), BIN_WIDTH)


@pytest.mark.parametrize("chunk", [2, 65536])
@pytest.mark.parametrize("make_usage", [
    _reordered_usage, _empty_usage, lambda: _odd_tables(23)[0]],
    ids=["fs3-before-fs2", "empty", "odd-keys"])
def test_fs_totals_round_trip(out, monkeypatch, chunk, make_usage):
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
    usage = make_usage()
    totals = fs_bin_totals(attribute_usage(usage, as_table([])))
    store.write_fs_usage(out, totals)

    again = store.read_fs_usage(out, BIN_WIDTH)
    assert (again.filesystems, again.bin_width) == (usage.filesystems,
                                                    BIN_WIDTH)
    _assert_same_arrays(again, totals, ("fs_idx", "bin_start", "deltas"))


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
            f"store {path}: filesystem 'fs 3' not in fs_usage.csv; "
            f"rerun the analyze stage")):
        store.read_job_usage(out, BIN_WIDTH, JOB_IDS, FILESYSTEMS[:1])
