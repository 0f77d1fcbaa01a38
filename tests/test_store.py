"""The store tables: the bulk writers against the row-by-row oracle in
scalar_store.py, round trips through the chunked reader with awkward keys,
and malformed rows named by file, line and field."""
from __future__ import annotations

import re

import numpy as np
import pytest

from iorisk import ingest, store
from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.ingest import UsageTable
from iorisk.ops import N_COUNTERS

import scalar_store as ref
from conftest import blocks_of, usage_columns, whole
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
    return UsageTable({"node": nodes, "fs": fs},
                      {"node": NODES, "fs": FILESYSTEMS}, bins, deltas,
                      BIN_WIDTH)


def _job_usage(m=11) -> UsageTable:
    bins, jobs, fs, deltas = _columns(m)
    return UsageTable({"job_id": jobs, "fs": fs},
                      {"job_id": JOB_IDS, "fs": FILESYSTEMS}, bins, deltas,
                      BIN_WIDTH)


# keys csv.writer must quote or keep as they are: comma, doubled quote,
# newline, empty, non-ASCII, leading and trailing spaces
ODD_KEYS = ("k,1", 'k"2', 'k""3', "k\n4", "", "kœ5", " k6 ", "k\r\n7", "k8")
# "..fs4" is one path component, so a filesystem name (an empty one is not)
ODD_FS = ("fs,2", " fs3", "..fs4")


def _odd_tables(m):
    deltas = np.arange(m * N_COUNTERS, dtype=np.int64).reshape(m, N_COUNTERS)
    deltas[::3] = np.iinfo(np.int64).max
    deltas[1::4] = 0
    bins = np.arange(m, dtype=np.int64) * BIN_WIDTH
    keys = (np.arange(m) * 7 % len(ODD_KEYS)).astype(np.int32)
    fs = (np.arange(m) % len(ODD_FS)).astype(np.int32)
    return tuple(UsageTable({key: keys, "fs": fs},
                            {key: ODD_KEYS, "fs": ODD_FS}, bins, deltas,
                            BIN_WIDTH) for key in ("node", "job_id"))


def _write_node_usage(out_dir, table) -> None:
    """Write a node-usage table to the store a block at a time."""
    for _ in store.write_node_usage(out_dir, blocks_of(table)):
        pass


@pytest.mark.parametrize("m, chunk", [(0, 1024), (1, 1024), (23, 2),
                                      (23, 1024)])
def test_writers_match_row_by_row_oracle(tmp_path, monkeypatch, m, chunk):
    # with chunks of 2 rows, node usage goes out in blocks of 1 or 2 rows
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
    usage, job_usage = _odd_tables(m)
    files = {}
    for name, write_node, write_job in (
            ("bulk", _write_node_usage, store.write_job_usage),
            ("oracle", ref.write_node_usage, ref.write_job_usage)):
        store.store_dir(tmp_path / name).mkdir(parents=True)
        write_node(tmp_path / name, usage)
        write_job(tmp_path / name, job_usage)
        files[name] = [(store.store_dir(tmp_path / name) / table)
                       .read_bytes() for table in (store.NODE_USAGE_NAME,
                                                   store.JOB_USAGE_NAME)]
    assert files["bulk"] == files["oracle"]


@pytest.fixture
def out(tmp_path):
    store.store_dir(tmp_path).mkdir()
    return tmp_path


def _reordered_usage() -> UsageTable:
    """Node usage listing fs3 before fs2, as ingest stores it when the
    first node has rows only on fs3."""
    nodes = np.array([0, 0, 1, 1, 1, 1], dtype=np.int32)
    fs = np.array([0, 0, 1, 1, 0, 0], dtype=np.int32)
    bins = np.array([0, 1, 0, 1, 0, 2], dtype=np.int64) * BIN_WIDTH
    deltas = np.arange(6 * N_COUNTERS, dtype=np.int64).reshape(6, N_COUNTERS)
    return UsageTable({"node": nodes, "fs": fs},
                      {"node": ("n0", "n1"), "fs": ("fs3", "fs2")}, bins,
                      deltas, BIN_WIDTH)


def _empty_usage() -> UsageTable:
    bins, nodes, fs, deltas = _columns(0)
    return UsageTable({"node": nodes, "fs": fs}, {"node": (), "fs": ()},
                      bins, deltas, BIN_WIDTH)


USAGES = {"fs3-before-fs2": _reordered_usage, "empty": _empty_usage,
          "odd-keys": lambda: _odd_tables(23)[0]}
TABLES = ["node", "job"] + [f"{kind}-{case}" for kind in ("fs", "unattributed")
                            for case in USAGES]


def _table(name):
    """A table to round-trip and the names its reader is given (see
    store.read_usage): node or job usage, or the fs totals or the
    unattributed ledger of node usage that no job holds."""
    if name == "node":
        return _usage(), None
    if name == "job":
        return _job_usage(), {"job_id": (JOB_IDS, store.JOBS_NAME),
                              "fs": (FILESYSTEMS, store.FS_USAGE_NAME)}
    kind, case = name.split("-", 1)
    attribution = attribute_usage(blocks_of(USAGES[case]()), as_table([]))
    if kind == "fs":
        return fs_bin_totals(attribution), None
    return attribution.unattributed, None


@pytest.mark.parametrize("chunk", [2, 65536])
@pytest.mark.parametrize("table", TABLES)
def test_usage_tables_round_trip(tmp_path, monkeypatch, chunk, table):
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
    monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
    usage, known = _table(table)
    store.write_usage(tmp_path / "usage.csv", usage)

    again = store.read_usage(tmp_path / "usage.csv", tuple(usage.codes),
                             BIN_WIDTH, known)
    assert (again.names, again.bin_width) == (usage.names, BIN_WIDTH)
    want = usage_columns(usage)
    for name, x in usage_columns(again).items():
        y = want[name]
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _streams(m, n_nodes, n_fs):
    """A node-usage table of m rows over n_nodes x n_fs streams of
    uneven lengths, grouped by stream, as ingest stores it."""
    rng = np.random.default_rng(m)
    stream = np.sort(rng.integers(0, n_nodes * n_fs, m))
    deltas = rng.integers(0, 2 ** 40, (m, N_COUNTERS))
    return UsageTable({"node": (stream // n_fs).astype(np.int32),
                       "fs": (stream % n_fs).astype(np.int32)},
                      {"node": NODES[:n_nodes], "fs": FILESYSTEMS[:n_fs]},
                      np.arange(m, dtype=np.int64) * BIN_WIDTH, deltas,
                      BIN_WIDTH)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("m", [0, 1, 5, 40])
def test_node_usage_round_trips_a_block_at_a_time(out, monkeypatch, chunk,
                                                  m):
    # the reader cuts each parsed chunk at its last stream, whose rows go
    # to the next block: every block holds whole streams, and the blocks
    # joined are the table written
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", chunk)
    usage = _streams(m, 3, 2)
    _write_node_usage(out, usage)
    back = store.read_node_usage(out, BIN_WIDTH)
    assert back.counts is None
    blocks = [(b.codes["node"].copy(), b.codes["fs"].copy(), len(b))
              for b in back]
    assert back.rows == m
    streams = [set(zip(node.tolist(), fs.tolist()))
               for node, fs, _ in blocks]
    assert all(not a & b for i, a in enumerate(streams)
               for b in streams[i + 1:])
    # one block per chunk, and the last chunk's last stream one more; a
    # block is a chunk's rows and the rows of a stream it goes on with
    assert all(n for _, _, n in blocks)
    assert len(blocks) <= -(-m // chunk) + 1
    stream = usage.codes["node"] * 2 + usage.codes["fs"]
    longest = max(np.unique(stream, return_counts=True)[1], default=0)
    assert all(n <= chunk + longest for _, _, n in blocks)
    _write_node_usage(out, usage)
    again = whole(store.read_node_usage(out, BIN_WIDTH))
    # the reader names the nodes and filesystems that have rows
    assert again.names["node"] == tuple(
        usage.names["node"][i] for i in dict.fromkeys(
            usage.codes["node"].tolist()))
    want = {name: col for name, col in usage_columns(usage).items()}
    got = usage_columns(again)
    for name in ("bin_start", "deltas"):
        assert np.array_equal(got[name], want[name]), name
    for key in ("node", "fs"):
        assert [again.names[key][i] for i in got[key].tolist()] == [
            usage.names[key][i] for i in want[key].tolist()]


def test_node_usage_blocks_are_taken_once(out):
    _write_node_usage(out, _streams(5, 2, 1))
    usage = store.read_node_usage(out, BIN_WIDTH)
    assert len(whole(usage)) == 5
    with pytest.raises(RuntimeError, match="taken once"):
        list(usage)


def _rewrite_line(path, line_no, edit):
    lines = path.read_text().split("\n")
    lines[line_no - 1] = edit(lines[line_no - 1])
    path.write_text("\n".join(lines))


def test_short_store_row_names_file_and_line(out):
    _write_node_usage(out, _usage(m=3))
    path = store.store_dir(out) / store.NODE_USAGE_NAME
    _rewrite_line(path, 3, lambda s: s.rsplit(",", 1)[0])
    usage = store.read_node_usage(out, BIN_WIDTH)
    with pytest.raises(ValueError, match=re.escape(
            f"store {path}: expected 24 fields, got 23 (line 3)")):
        whole(usage)


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
