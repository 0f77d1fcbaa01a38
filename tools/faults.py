"""Wall time, minor page faults and peak RSS of each iorisk command.

Usage: python tools/faults.py SRC_DIR [--work DIR] [--seed N]

Simulates simgen's ``perf`` preset with the iorisk package under SRC_DIR
(the directory holding ``iorisk/``), then runs ``ingest``, ``analyze``,
``report --svg --probe`` and ``all --svg --probe`` on it (the probe is the
``demo`` preset's, as ``tools/parity.py`` takes it), and ``all --svg
--probe`` once more on the ``offgrid-busy`` benchmark feeds, built as
``tools/parity.py`` builds them: five times the job density, where
attribution weighs most. Each command runs in a fresh interpreter, and
per command it prints the wall time and the child's ``ru_minflt`` and
``ru_maxrss`` as ``getrusage(RUSAGE_CHILDREN)`` reports them.
Interpreter start-up and imports are included. Run it on two trees to
compare their memory churn:

    python tools/faults.py /path/to/old/src
    python tools/faults.py src
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from parity import OFFGRID, build_offgrid


def measure(src: Path, work: Path, *args: str) -> tuple[float, int, int]:
    """(wall s, minor faults, peak RSS kB) of one command in a fresh
    interpreter, run by a helper process so that the rusage of its
    children is that command's alone."""
    code = ("import resource, subprocess, sys, time\n"
            "t = time.perf_counter()\n"
            "subprocess.run(sys.argv[1:], check=True,\n"
            "               stdout=subprocess.DEVNULL)\n"
            "wall = time.perf_counter() - t\n"
            "r = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
            "print(wall, r.ru_minflt, r.ru_maxrss)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("IORISK_CONFIG", None)
    wall, minflt, maxrss = subprocess.run(
        [sys.executable, "-c", code, sys.executable, "-m", "iorisk", *args],
        cwd=work, env=env, check=True, capture_output=True, text=True,
    ).stdout.split()
    return float(wall), int(minflt), int(maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path,
                        help="directory holding the iorisk package")
    parser.add_argument("--work", type=Path,
                        help="empty or new directory for the runs (default "
                             "a temporary one, removed afterwards)")
    parser.add_argument("--seed", default="7", help="simgen seed")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "iorisk" / "__init__.py").exists():
        parser.error(f"{src} holds no iorisk package")
    work = (args.work or Path(tempfile.mkdtemp(prefix="faults-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    feeds = ("--counters", "feeds/counters.csv", "--jobs", "feeds/jobs.csv")
    report = ("--svg", "--probe", "demo/probe.csv")
    commands = {"ingest": ("ingest", *feeds, "--out", "staged"),
                "analyze": ("analyze", "--out", "staged"),
                "report": ("report", "--out", "staged", *report),
                "all": ("all", *feeds, "--out", "all", *report),
                f"all {OFFGRID}": (
                    "all", "--counters", f"{OFFGRID}/feeds/counters.csv",
                    "--jobs", f"{OFFGRID}/feeds/jobs.csv",
                    "--out", f"{OFFGRID}/all", *report)}
    try:
        measure(src, work, "simulate", "--preset", "perf", "--seed",
                args.seed, "--out", "feeds")
        measure(src, work, "simulate", "--preset", "demo", "--out", "demo")
        build_offgrid(src, work)
        print(f"{'command':<16} {'wall_s':>7} {'minflt':>8} "
              f"{'maxrss_mb':>9}")
        for name, cmd in commands.items():
            wall, minflt, maxrss = measure(src, work, *cmd)
            print(f"{name:<16} {wall:7.3f} {minflt:8d} "
                  f"{maxrss / 1024:9.1f}")
    finally:
        if args.work is None:
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
