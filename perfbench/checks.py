"""Correctness checks applied to the output directory of every timed run.

All checks read the pipeline's CSV artifacts from outside and compare them
with totals the benchmark computed from its own generated feeds:

- per fs and counter, the node-usage store sums to the feed's
  sum over streams of (last - first);
- job usage plus unattributed usage equals node usage, per fs and counter;
- job_summary.csv read/write totals equal the job-usage sums per job;
- on on-grid workloads, per-job totals equal the simgen ledger exactly;
- every file under --out has the reference sha256.
"""
from __future__ import annotations

import csv
import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KIB_PER_GIB = 2 ** 20


@dataclass
class Table:
    """Key columns as strings and counter columns as int64."""

    keys: dict[str, np.ndarray]
    values: np.ndarray  # (n, n_counters)
    counters: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.values)

    def sums_by(self, key: str) -> dict[str, np.ndarray]:
        names, inv = np.unique(self.keys[key], return_inverse=True)
        out = np.zeros((len(names), self.values.shape[1]), dtype=np.int64)
        np.add.at(out, inv, self.values)
        return dict(zip(names.tolist(), out))


def read_table(path: Path, key_cols: tuple[str, ...],
               counters: tuple[str, ...]) -> Table:
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # header-only files are valid
        values = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                            usecols=[header.index(c) for c in counters],
                            ndmin=2)
        keys = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str,
                          usecols=[header.index(c) for c in key_cols],
                          ndmin=2)
    keys = keys.reshape(len(values), len(key_cols))
    return Table({c: keys[:, i] for i, c in enumerate(key_cols)},
                 values.reshape(len(values), len(counters)), counters)


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[p.relative_to(root).as_posix()] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    return out


def _diff(label: str, got: dict, want: dict, width: int) -> list[str]:
    zero = np.zeros(width, dtype=np.int64)
    bad = [k for k in sorted(set(got) | set(want))
           if not np.array_equal(got.get(k, zero), want.get(k, zero))]
    if not bad:
        return []
    k = bad[0]
    return [f"{label}: {len(bad)} keys differ, first {k!r}: "
            f"got {np.asarray(got.get(k, zero)).tolist()} "
            f"want {np.asarray(want.get(k, zero)).tolist()}"]


@dataclass
class RunTables:
    node_usage: Table
    job_usage: Table
    unattributed: Table


def load_tables(out: Path, counters: tuple[str, ...]) -> RunTables:
    store = out / "store"
    return RunTables(
        read_table(store / "node_usage.csv", ("node", "fs", "bin_start"),
                   counters),
        read_table(store / "job_usage.csv", ("job_id", "fs"), counters),
        read_table(out / "unattributed.csv", ("fs",), counters))


def check_run(out: Path, feeds, reference: dict[str, str] | None
              ) -> tuple[list[str], dict[str, str], RunTables | None]:
    """Check one run's outputs; returns (failures, digests, tables)."""
    digests = digest_tree(out) if out.is_dir() else {}
    try:
        tables = load_tables(out, feeds.counter_names)
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"], digests, None
    width = len(feeds.counter_names)
    failures = []
    node_fs = tables.node_usage.sums_by("fs")
    failures += _diff("node usage vs feed last-first", node_fs,
                      feeds.fs_totals, width)
    job_fs = tables.job_usage.sums_by("fs")
    un_fs = tables.unattributed.sums_by("fs")
    both = {fs: job_fs.get(fs, 0) + un_fs.get(fs, 0)
            for fs in set(job_fs) | set(un_fs)}
    failures += _diff("job + unattributed vs node usage", both, node_fs,
                      width)

    per_job = tables.job_usage.sums_by("job_id")
    failures += _check_summary(out / "job_summary.csv", per_job,
                               feeds.counter_names)
    if feeds.ledger_job_totals is not None:
        ledger = {j: np.asarray(v, dtype=np.int64)
                  for j, v in feeds.ledger_job_totals.items()}
        failures += _diff("job totals vs ledger", per_job, ledger, width)
    if reference is not None and digests != reference:
        changed = sorted(k for k in set(digests) | set(reference)
                         if digests.get(k) != reference.get(k))
        failures.append(f"artifact digest differs from the reference in "
                        f"{len(changed)} files, first {changed[0]}")
    return failures, digests, tables


def _check_summary(path: Path, per_job: dict[str, np.ndarray],
                   counters: tuple[str, ...]) -> list[str]:
    col = {c: counters.index(c)
           for c in ("read_kb", "read_ops", "write_kb", "write_ops")}
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        return [f"job summary unreadable: {exc}"]
    zero = np.zeros(len(counters), dtype=np.int64)
    for r in rows:
        d = per_job.get(r["job_id"], zero)
        want = (d[col["read_kb"]] / KIB_PER_GIB, d[col["write_kb"]]
                / KIB_PER_GIB, int(d[col["read_ops"]]),
                int(d[col["write_ops"]]))
        got = (float(r["read_gib"]), float(r["write_gib"]),
               int(r["read_ops"]), int(r["write_ops"]))
        if got != want:
            return [f"job summary {r['job_id']}: read/write totals {got} "
                    f"!= job usage {want}"]
    missing = set(per_job) - {r["job_id"] for r in rows}
    if missing:
        return [f"job summary lacks {len(missing)} jobs with usage, first "
                f"{sorted(missing)[0]}"]
    return []
