"""Plain-file intermediate store so pipeline stages compose.

ingest writes store/node_usage.csv + store/jobs.csv + store/meta.json;
analyze reads node usage and jobs and adds store/job_usage.csv and
store/fs_usage.csv, the per-fs bin totals the baselines come from. report
reads jobs, fs usage and job usage, never node usage. meta.json holds the
full Config the last stage ran with, which a later stage inherits.
Everything is auditable CSV/JSON with deterministic ordering; no
database. `all` writes the same files but never reads them back: they
serve audits and staged reruns.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .attribute import FsUsageTable, JobUsageTable
from .config import FIELDS, Config
from .ingest import (JobTable, UsageTable, _check_header, _line_count,
                     _read_keyed_table, parse_job_feed, repeated_ints,
                     write_csv, write_jobs_csv)
from .ops import COUNTER_NAMES

NODE_USAGE_NAME = "node_usage.csv"
JOB_USAGE_NAME = "job_usage.csv"
FS_USAGE_NAME = "fs_usage.csv"
JOBS_NAME = "jobs.csv"
META_NAME = "meta.json"
NODE_USAGE_HEADER = ("node", "fs", "bin_start") + COUNTER_NAMES
JOB_USAGE_HEADER = ("job_id", "fs", "bin_start") + COUNTER_NAMES
FS_USAGE_HEADER = ("fs", "bin_start") + COUNTER_NAMES
# the stage that writes each store file
_WRITTEN_BY = {NODE_USAGE_NAME: "ingest", JOBS_NAME: "ingest",
               META_NAME: "ingest", JOB_USAGE_NAME: "analyze",
               FS_USAGE_NAME: "analyze"}


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
    return stored


def _read_table(path, schema, registries, check=None):
    """The columns of a store table whose header must be schema."""
    capacity = _line_count(path)
    what = f"store {path}"
    with open(path, newline="", errors="surrogateescape") as f:
        _check_header(next(csv.reader(f), None), schema, what)
        return _read_keyed_table(f, schema, registries, what, check,
                                 capacity)


def write_node_usage(out_dir, usage: UsageTable) -> None:
    write_csv(store_dir(out_dir) / NODE_USAGE_NAME, NODE_USAGE_HEADER,
              [(usage.node_idx, usage.nodes),
               (usage.fs_idx, usage.filesystems),
               repeated_ints(usage.bin_start), usage.deltas])


def read_node_usage(out_dir, bin_width_s: int) -> UsageTable:
    nodes: dict[str, int] = {}
    filesystems: dict[str, int] = {}
    cols = _read_table(_stored(out_dir, NODE_USAGE_NAME), NODE_USAGE_HEADER,
                       {"node": nodes, "fs": filesystems})
    return UsageTable(
        bin_start=cols["bin_start"], node_idx=cols["node"],
        fs_idx=cols["fs"], deltas=cols["counters"],
        nodes=tuple(nodes), filesystems=tuple(filesystems),
        bin_width=bin_width_s)


def write_fs_usage(out_dir, totals: FsUsageTable) -> None:
    write_csv(store_dir(out_dir) / FS_USAGE_NAME, FS_USAGE_HEADER,
              [(totals.fs_idx, totals.filesystems),
               repeated_ints(totals.bin_start), totals.deltas])


def read_fs_usage(out_dir, bin_width_s: int) -> FsUsageTable:
    """Load the per-fs bin totals. They are sorted by (fs, bin), so the
    filesystems come in the node usage's order."""
    filesystems: dict[str, int] = {}
    cols = _read_table(_stored(out_dir, FS_USAGE_NAME), FS_USAGE_HEADER,
                       {"fs": filesystems})
    return FsUsageTable(
        fs_idx=cols["fs"], bin_start=cols["bin_start"],
        deltas=cols["counters"], filesystems=tuple(filesystems),
        bin_width=bin_width_s)


def write_job_usage(out_dir, ju: JobUsageTable) -> None:
    write_csv(store_dir(out_dir) / JOB_USAGE_NAME, JOB_USAGE_HEADER,
              [(ju.job_idx, ju.job_ids), (ju.fs_idx, ju.filesystems),
               repeated_ints(ju.bin_start), ju.deltas])


def read_job_usage(out_dir, bin_width_s: int, job_ids,
                   filesystems) -> JobUsageTable:
    """Load job usage; job/fs registries come from jobs.csv and
    fs_usage.csv so indices stay stable even for jobs without rows."""
    path = _stored(out_dir, JOB_USAGE_NAME)
    job_of = {j: i for i, j in enumerate(job_ids)}
    fs_of = {f: i for i, f in enumerate(filesystems)}
    n_jobs, n_fs = len(job_of), len(fs_of)

    def check_known(chunk, first_line):
        # a key missing from jobs.csv or fs_usage.csv was coded past the
        # end of its registry
        if len(job_of) > n_jobs:
            raise ValueError(f"store {path}: job {list(job_of)[n_jobs]!r} "
                             f"not in jobs.csv; rerun the analyze stage")
        if len(fs_of) > n_fs:
            raise ValueError(
                f"store {path}: filesystem {list(fs_of)[n_fs]!r} not in "
                f"{FS_USAGE_NAME}; rerun the analyze stage")

    cols = _read_table(path, JOB_USAGE_HEADER,
                       {"job_id": job_of, "fs": fs_of}, check_known)
    return JobUsageTable(
        job_idx=cols["job_id"], fs_idx=cols["fs"],
        bin_start=cols["bin_start"], deltas=cols["counters"],
        job_ids=tuple(job_ids), filesystems=tuple(filesystems),
        bin_width=bin_width_s)


def write_jobs(out_dir, jobs: JobTable) -> None:
    write_jobs_csv(jobs, store_dir(out_dir) / JOBS_NAME)


def read_jobs(out_dir) -> JobTable:
    path = _stored(out_dir, JOBS_NAME)
    with open(path, newline="", errors="surrogateescape") as f:
        return parse_job_feed(f, what=f"store {path}")
