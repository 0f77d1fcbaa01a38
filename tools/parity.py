"""List the sha256 of every feed and artifact one iorisk source tree makes.

Usage: python tools/parity.py SRC_DIR [--work DIR]

Runs the command line of the iorisk package under SRC_DIR (the directory
holding ``iorisk/``) on fixed inputs: the six simgen presets, the
``offgrid-busy`` benchmark workload as ``perfbench/workloads.py`` builds it,
five hand-written feeds (keys holding a lone carriage return; two
jobs whose integrated risk ties; the demo counters with no jobs, and with
two jobs in conflict; the perf counters with their last row moved to the
front, so a stream goes back in time and ingest reads the file again
whole), and the demo feeds again as ``windowed``. Each input goes through
``all --svg --probe`` and through the staged
``ingest``/``analyze``/``report --svg --probe``. ``windowed`` also takes
analyze-stage flags (a trailing baseline window, mean quality): ``all``
and ``analyze`` get them, and ``report`` takes them from the store.
Every simgen output, every file under each ``--out`` and each command's
exit code and output are then listed as ``sha256  path``, one line each,
sorted by path; a character of a path that does not print, such as a
carriage return, lists as its Python escape (``\\r``). Two source trees
give the same artifacts when their listings are identical:

    python tools/parity.py /path/to/old/src > old.txt
    python tools/parity.py src > new.txt
    diff old.txt new.txt

The inputs are written under --work (a temporary directory, removed
afterwards, when not given); commands run there, with relative paths, so
their output does not depend on where it is.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("demo", "metric", "slowdown", "contention", "perf", "resets")
OFFGRID = "offgrid-busy"
OFFGRID_SEED = 11
# extra flags per input, as the report oracle test runs them
FLAGS = {"resets": ("--day-offset", "3600"), "tied": ("--top-k", "1")}
# extra analyze-stage flags per input
ANALYZE_FLAGS = {"windowed": ("--baseline-days", "0.3",
                              "--quality-agg", "mean")}
COUNTER_HEADER = ("ts,node,fs,read_kb,read_ops,write_kb,write_ops,other,"
                  "open,close,mknod,link,unlink,mkdir,rmdir,ren,getattr,"
                  "setattr,getxattr,setxattr,statfs,sync,sdr,cdr")
JOB_HEADER = "job_id,project,command,nodes,start_ts,end_ts,cores_per_node\n"


def lone_cr_feeds(root: Path) -> None:
    """A node, a filesystem, a job id and a command holding a lone "\\r"."""
    rows = [COUNTER_HEADER]
    for ts in range(360, 3600, 360):
        for node, fs in (('"a\rb"', "fs2"), ("n1", '"fs\r3"')):
            rows.append(",".join([str(ts), node, fs]
                                 + [str(ts * (c + 1)) for c in range(21)]))
    (root / "counters.csv").write_text("\n".join(rows) + "\n", newline="")
    (root / "jobs.csv").write_text(
        JOB_HEADER + '"j\r1",p,"cmd\r","a\rb;n1",500,2000,24\n'
        "j2,p,cmd,n1,2000,3000,24\n", newline="")


def tied_feeds(root: Path) -> None:
    """jb and ja do the same I/O on nodes of their own, so their
    integrated risk ties and the top-k ranking falls back to the job id."""
    rows = [COUNTER_HEADER]
    cum = dict.fromkeys(("n1", "n2", "n3"), 0)
    for k, ts in enumerate(range(360, 4 * 4320, 360)):
        for node in cum:
            if k:
                cum[node] += 5 if node == "n3" else (
                    1000 if 3 <= k <= 5 else 1)
            rows.append(",".join([str(ts), node, "fs2"]
                                 + [str(cum[node] * (c + 7))
                                    for c in range(21)]))
    (root / "counters.csv").write_text("\n".join(rows) + "\n")
    (root / "jobs.csv").write_text(
        JOB_HEADER + "jb,p,cmd,n1,360,3960,24\nja,p,cmd,n2,360,3960,24\n"
        "jc,p,cmd,n3,360,3960,24\n")


def no_jobs_feeds(root: Path) -> None:
    """The demo counters and a job feed holding only its header."""
    shutil.copy(root.parents[1] / "demo" / "feeds" / "counters.csv", root)
    (root / "jobs.csv").write_text(JOB_HEADER)


def conflict_feeds(root: Path) -> None:
    """The demo counters and two jobs holding one node at once."""
    shutil.copy(root.parents[1] / "demo" / "feeds" / "counters.csv", root)
    (root / "jobs.csv").write_text(
        JOB_HEADER + "j1,p,cmd,n0000,1577836800,1577840400,24\n"
        "j2,p,cmd,n0000,1577838000,1577842000,24\n")


def windowed_feeds(root: Path) -> None:
    """The demo counters and jobs, for a run with analyze-stage flags."""
    demo = root.parents[1] / "demo" / "feeds"
    for name in ("counters.csv", "jobs.csv"):
        shutil.copy(demo / name, root)


def back_in_time_feeds(root: Path) -> None:
    """The perf counters with their last row moved to just after the
    header, and the perf jobs. The perf feed is many parsed chunks, so the
    moved row's stream goes back behind it in a later chunk."""
    perf = root.parents[1] / "perf" / "feeds"
    header, *rows = (perf / "counters.csv").read_bytes().splitlines(True)
    (root / "counters.csv").write_bytes(b"".join([header, rows[-1],
                                                  *rows[:-1]]))
    shutil.copy(perf / "jobs.csv", root)


def build_offgrid(src: Path, work: Path) -> None:
    """The benchmark's offgrid-busy feeds, from src's simgen."""
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    workloads.build(workloads.WORKLOADS[OFFGRID], OFFGRID_SEED,
                    work / OFFGRID)
    shutil.move(work / OFFGRID / "ref" / "ledger.json",
                work / OFFGRID / "feeds" / "ledger.json")
    shutil.rmtree(work / OFFGRID / "ref")


class Runner:
    """Runs src's command line in work, logging each command's exit code
    and output to a file of its own."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.env.pop("IORISK_CONFIG", None)

    def __call__(self, log: str, *args: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "iorisk", *args],
                              cwd=self.work, env=self.env,
                              capture_output=True, text=True)
        path = self.work / "logs" / f"{log}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(f"rc {proc.returncode}\n--- stdout\n{proc.stdout}"
                        f"--- stderr\n{proc.stderr}")


def run_case(run: Runner, name: str) -> None:
    feeds = f"{name}/feeds"
    probe = (f"{feeds}/probe.csv"
             if (run.work / feeds / "probe.csv").exists()
             else "demo/feeds/probe.csv")
    inputs = ("--counters", f"{feeds}/counters.csv",
              "--jobs", f"{feeds}/jobs.csv")
    report = ("--svg", "--probe", probe, *FLAGS.get(name, ()))
    analyze = ANALYZE_FLAGS.get(name, ())
    run(f"{name}-all", "all", *inputs, "--out", f"{name}/all", *analyze,
        *report)
    staged = ("--out", f"{name}/staged")
    run(f"{name}-ingest", "ingest", *inputs, *staged)
    run(f"{name}-analyze", "analyze", *staged, *analyze)
    run(f"{name}-report", "report", *staged, *report)


def listing(work: Path) -> list[str]:
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{_escaped(p.relative_to(work).as_posix())}"
            for p in sorted(work.rglob("*")) if p.is_file()]


def _escaped(path: str) -> str:
    """path with each character that does not print, a line break among
    them, as its Python escape, so that each path lists on one line."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape")
                   .decode() for c in path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path,
                        help="directory holding the iorisk package")
    parser.add_argument("--work", type=Path,
                        help="empty or new directory for the runs (default "
                             "a temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "iorisk" / "__init__.py").exists():
        parser.error(f"{src} holds no iorisk package")
    work = (args.work or Path(tempfile.mkdtemp(prefix="parity-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Runner(src, work)
        for name in PRESETS:
            run(f"{name}-simulate", "simulate", "--preset", name,
                "--out", f"{name}/feeds")
        build_offgrid(src, work)
        written = {"lone-cr": lone_cr_feeds, "tied": tied_feeds,
                   "no-jobs": no_jobs_feeds, "conflict": conflict_feeds,
                   "back-in-time": back_in_time_feeds,
                   "windowed": windowed_feeds}
        for name, write in written.items():
            (work / name / "feeds").mkdir(parents=True)
            write(work / name / "feeds")
        for name in (*PRESETS, OFFGRID, *written):
            run_case(run, name)
        print("\n".join(listing(work)))
    finally:
        if args.work is None:
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
