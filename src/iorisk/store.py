"""Plain-file intermediate store so pipeline stages compose.

ingest writes store/node_usage.csv + store/jobs.csv + store/meta.json;
analyze reads node usage and jobs and adds store/job_usage.csv and
store/fs_usage.csv, the per-fs bin totals the baselines come from. report
reads jobs, fs usage and job usage, never node usage. meta.json holds the
full Config the last stage ran with, which a later stage inherits.

The three usage files and analyze's unattributed.csv are UsageTables in
one layout: the key columns (node,fs; job_id,fs; fs; fs), then bin_start,
then the 21 counters. _written is its one writer, and _keyed_chunks
(ingest) its one parser. Node usage is written and read a block at a time
(see NodeUsage), the other tables whole. Everything is auditable CSV/JSON
with deterministic ordering; no database. `all` writes the same files but
never reads them back: they serve audits and staged reruns.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import FIELDS, Config, check
from .ingest import (JobTable, NodeUsage, UsageTable, _check_header,
                     _keyed_chunks, _line_count, _read_keyed_table,
                     csv_writer, parse_job_feed, repeated_ints,
                     write_jobs_csv)
from .ops import COUNTER_NAMES

NODE_USAGE_NAME = "node_usage.csv"
JOB_USAGE_NAME = "job_usage.csv"
FS_USAGE_NAME = "fs_usage.csv"
JOBS_NAME = "jobs.csv"
META_NAME = "meta.json"
# the stage that writes each store file
_WRITTEN_BY = {NODE_USAGE_NAME: "ingest", JOBS_NAME: "ingest",
               META_NAME: "ingest", JOB_USAGE_NAME: "analyze",
               FS_USAGE_NAME: "analyze"}


def usage_header(*keys: str) -> tuple[str, ...]:
    """The header of a usage table keyed by keys."""
    return keys + ("bin_start",) + COUNTER_NAMES


NODE_USAGE_HEADER = usage_header("node", "fs")
JOB_USAGE_HEADER = usage_header("job_id", "fs")
FS_USAGE_HEADER = usage_header("fs")
# what a key's names are called in the closed-registry message
_KEY_NOUN = {"job_id": "job", "fs": "filesystem"}


def store_dir(out_dir) -> Path:
    return Path(out_dir) / "store"


def _stored(out_dir, name) -> Path:
    """The path of a store file to read; raises FileNotFoundError naming
    it and the stage to rerun where there is none."""
    path = store_dir(out_dir) / name
    if not path.exists():
        raise FileNotFoundError(f"store {path}: no such file; rerun the "
                                f"{_WRITTEN_BY[name]} stage")
    return path


def write_config(out_dir, cfg: Config) -> None:
    (store_dir(out_dir) / META_NAME).write_text(
        json.dumps(asdict(cfg), sort_keys=True) + "\n")


def read_config(out_dir) -> dict:
    """{field: value} of the Config the last stage ran with."""
    path = _stored(out_dir, META_NAME)
    try:
        stored = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"store {path}: {exc}") from None
    if not isinstance(stored, dict) or set(stored) != set(FIELDS):
        raise ValueError(f"store {path}: does not hold the full config; "
                         f"rerun the ingest stage")
    try:
        for name, value in stored.items():
            check(name, value, f"store {path}")
    except ValueError as exc:
        raise ValueError(f"{exc}; rerun the ingest stage") from None
    return stored


def write_usage(path, usage: UsageTable) -> None:
    for _ in _written(open(path, "w", newline=""), tuple(usage.codes),
                      [usage]):
        pass


def _written(f, keys, tables):
    """The tables, each written to the usage file f, keyed by keys, before
    it is given: the file ends and is closed once the last is."""
    def write_table(table):
        write([*zip(table.codes.values(), table.names.values()),
               repeated_ints(table.bin_start), table.deltas])
        return table

    with f, csv_writer(f, usage_header(*keys)) as write:
        # map holds no table once it has given it
        yield from map(write_table, tables)


def read_usage(path, keys, bin_width_s: int, known=None) -> UsageTable:
    """Load a usage table keyed by keys. known maps a key to (names, the
    store file they come from): its codes index those names, so they stay
    stable even for names without rows, and a name not among them fails."""
    known = known or {}
    registries = {key: {name: i for i, name in enumerate(known[key][0])}
                  if key in known else {} for key in keys}

    def check_known(chunk, first_line):
        # a key missing from its file was coded past the end of its names
        for key, (names, source) in known.items():
            if len(registries[key]) > len(names):
                raise ValueError(
                    f"store {path}: {_KEY_NOUN[key]} "
                    f"{list(registries[key])[len(names)]!r} not in "
                    f"{source}; rerun the analyze stage")

    with _opened(path, keys) as f:
        cols = _read_keyed_table(f, usage_header(*keys), registries,
                                 f"store {path}", check_known,
                                 _line_count(path))
    return UsageTable({key: cols[key] for key in keys},
                      {key: tuple(registries[key]) for key in keys},
                      cols["bin_start"], cols["counters"], bin_width_s)


def _opened(path, keys):
    """The usage file at path, keyed by keys, open past its header, which
    is checked."""
    f = open(path, newline="", errors="surrogateescape")
    try:
        _check_header(next(csv.reader(f), None), usage_header(*keys),
                      f"store {path}")
    except BaseException:
        f.close()
        raise
    return f


def write_node_usage(out_dir, usage: NodeUsage) -> NodeUsage:
    """The node usage whose blocks each go to node_usage.csv as they are
    taken, before they are given; the file ends with the last. The file
    is created here, so a store that cannot take it fails at once."""
    f = open(store_dir(out_dir) / NODE_USAGE_NAME, "w", newline="")
    return NodeUsage(_written(f, ("node", "fs"), usage), usage.bin_width,
                     usage.counts)


def read_node_usage(out_dir, bin_width_s: int) -> NodeUsage:
    """The node usage of node_usage.csv, read a block at a time as the
    blocks are taken: each chunk of the parser's, less its last stream's
    rows, which the next chunk may go on with and which go to the next
    block. The file's presence and header are checked here, its rows as
    they are read."""
    path = _stored(out_dir, NODE_USAGE_NAME)
    return NodeUsage(_node_blocks(_opened(path, ("node", "fs")), path,
                                  bin_width_s), bin_width_s)


def _node_blocks(f, path, bin_width_s):
    registries = {"node": {}, "fs": {}}
    held = None  # the rows read of the last stream so far
    with f:
        for chunk, _ in _keyed_chunks(f, NODE_USAGE_HEADER, registries,
                                      f"store {path}"):
            node, fs = chunk["node"], chunk["fs"]
            other = np.flatnonzero((node != node[-1]) | (fs != fs[-1]))
            cut = other[-1] + 1 if len(other) else 0
            # the rows before the chunk's last stream end a block: some of
            # the chunk's, or the held rows of another stream
            if cut or held is not None and (
                    held["node"][0] != node[0] or held["fs"][0] != fs[0]):
                yield _node_table(_joined(held, chunk, 0, cut), registries,
                                  bin_width_s)
                held = None
            held = _joined(held, chunk, cut, None)
        if held is not None:
            yield _node_table(held, registries, bin_width_s)


def _joined(held, chunk, lo, hi):
    """The rows lo:hi of a parsed chunk after the rows held, copied."""
    return {name: col[lo:hi].copy() if held is None
            else np.concatenate((held[name], col[lo:hi]))
            for name, col in chunk.items()}


def _node_table(rows, registries, bin_width_s) -> UsageTable:
    return UsageTable({"node": rows["node"], "fs": rows["fs"]},
                      {key: tuple(names) for key, names in registries.items()},
                      rows["bin_start"], rows["counters"], bin_width_s)


def write_fs_usage(out_dir, totals: UsageTable) -> None:
    write_usage(store_dir(out_dir) / FS_USAGE_NAME, totals)


def read_fs_usage(out_dir, bin_width_s: int) -> UsageTable:
    """The per-fs bin totals. They are sorted by (fs, bin), so the
    filesystems come in the node usage's order."""
    return read_usage(_stored(out_dir, FS_USAGE_NAME), ("fs",), bin_width_s)


def write_job_usage(out_dir, job_usage: UsageTable) -> None:
    write_usage(store_dir(out_dir) / JOB_USAGE_NAME, job_usage)


def read_job_usage(out_dir, bin_width_s: int, job_ids,
                   filesystems) -> UsageTable:
    """Job usage coded by the jobs of jobs.csv and the filesystems of
    fs_usage.csv."""
    return read_usage(_stored(out_dir, JOB_USAGE_NAME), ("job_id", "fs"),
                      bin_width_s, {"job_id": (job_ids, JOBS_NAME),
                                    "fs": (filesystems, FS_USAGE_NAME)})


def write_jobs(out_dir, jobs: JobTable) -> None:
    write_jobs_csv(jobs, store_dir(out_dir) / JOBS_NAME)


def read_jobs(out_dir) -> JobTable:
    path = _stored(out_dir, JOBS_NAME)
    with open(path, newline="", errors="surrogateescape") as f:
        return parse_job_feed(f, what=f"store {path}")
