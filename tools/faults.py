"""Wall time, CPU time, minor page faults and peak RSS of each iorisk
command.

Usage: python tools/faults.py SRC_DIR [--work DIR] [--seed N] [--days N]

Simulates simgen's ``perf`` preset with the iorisk package under SRC_DIR
(the directory holding ``iorisk/``), over ``--days`` days (7, the
preset's own window, by default) with each template's job count scaled
by days / 7, so that the jobs keep their density as the window grows,
then runs ``ingest``, ``analyze``,
``report --svg --probe`` and ``all --svg --probe`` on it (the probe is the
``demo`` preset's, as ``tools/parity.py`` takes it), then ``ingest``,
``analyze``, ``report --svg --probe`` and ``all --svg --probe`` once
more on the ``offgrid-busy``
benchmark feeds, built as ``tools/parity.py`` builds them: five times the
job density, where attribution weighs most, and snapshots off the bin
grid, where binning does. Each command runs in a fresh interpreter, and
per command it prints the wall time and what
``getrusage(RUSAGE_CHILDREN)`` reports: the CPU seconds (user + system)
of the command and of the workers it forked and reaped, so that forking
shows, and the command's ``ru_minflt`` and ``ru_maxrss`` (the largest
of the processes, not their sum). Beside ``ru_maxrss`` it prints the
command's own VmHWM, its peak RSS without its workers', which is what
the benchmark's ``peak_rss_mb`` reads. Interpreter start-up and imports
are included. Before the table it prints the parallel headroom: how long
two CPU-bound processes take side by side against one alone, 1.0 where
a second CPU is free and 2.0 where the two share one, so that each
timing says whether work forked beside the parent could pay off. Run it
on two trees to compare their memory churn:

    python tools/faults.py /path/to/old/src
    python tools/faults.py src

and at several windows to see what grows with the window:

    python tools/faults.py src --days 28
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from parity import OFFGRID, build_offgrid

# runs the iorisk command line on its arguments, then writes the peak RSS
# of this process alone, its VmHWM in kB, as the last line of stderr
COMMAND = ("import sys\n"
           "from iorisk.cli import run\n"
           "code = run(sys.argv[1:])\n"
           "with open('/proc/self/status') as f:\n"
           "    hwm = [line.split()[1] for line in f\n"
           "           if line.startswith('VmHWM:')]\n"
           "print(hwm[0], file=sys.stderr)\n"
           "sys.exit(code)\n")
# a CPU-bound loop of about 0.3 s, which prints its own duration
SPIN = ("import time\n"
        "t = time.perf_counter()\n"
        "sum(range(10_000_000))\n"
        "print(time.perf_counter() - t)\n")


def headroom() -> float:
    """The wall time of the slower of two CPU-bound processes run side by
    side over that of one run alone (each the best of 3): 1.0 where a
    second CPU is free, 2.0 where the two share one."""
    def spin(n: int) -> float:
        procs = [subprocess.Popen([sys.executable, "-c", SPIN],
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(n)]
        return max(float(p.communicate()[0]) for p in procs)

    return (min(spin(2) for _ in range(3))
            / min(spin(1) for _ in range(3)))


def perf_scenario(src: Path, days: int, path: Path) -> None:
    """Write src's simgen ``perf`` preset over days days, each template's
    count scaled by days / 7, as a scenario file."""
    sys.path.insert(0, str(src))
    from iorisk import simgen

    spec = simgen.preset_scenario("perf")
    templates = tuple(dataclasses.replace(t, count=round(t.count * days / 7))
                      for t in spec.templates)
    simgen.spec_to_json(dataclasses.replace(
        spec, duration_s=days * 86400, templates=templates), path)


def measure(src: Path, work: Path,
            *args: str) -> tuple[float, float, int, int, int]:
    """(wall s, CPU s, minor faults, peak RSS kB of the largest process,
    VmHWM kB of the command's own) of one command in a fresh interpreter,
    run by a helper process so that the rusage of its children is that
    command's and its workers' alone."""
    code = ("import resource, subprocess, sys, time\n"
            "t = time.perf_counter()\n"
            "subprocess.run(sys.argv[1:], check=True,\n"
            "               stdout=subprocess.DEVNULL)\n"
            "wall = time.perf_counter() - t\n"
            "r = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
            "print(wall, r.ru_utime + r.ru_stime, r.ru_minflt,\n"
            "      r.ru_maxrss)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("IORISK_CONFIG", None)
    done = subprocess.run(
        [sys.executable, "-c", code, sys.executable, "-c", COMMAND, *args],
        cwd=work, env=env, check=True, capture_output=True, text=True)
    wall, cpu, minflt, maxrss = done.stdout.split()
    hwm = done.stderr.splitlines()[-1]
    return float(wall), float(cpu), int(minflt), int(maxrss), int(hwm)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path,
                        help="directory holding the iorisk package")
    parser.add_argument("--work", type=Path,
                        help="empty or new directory for the runs (default "
                             "a temporary one, removed afterwards)")
    parser.add_argument("--seed", default="7", help="simgen seed")
    parser.add_argument("--days", type=int, default=7,
                        help="days the perf preset spans (default 7)")
    args = parser.parse_args(argv)
    if args.days < 1:
        parser.error("--days must be at least 1")
    src = args.src.resolve()
    if not (src / "iorisk" / "__init__.py").exists():
        parser.error(f"{src} holds no iorisk package")
    work = (args.work or Path(tempfile.mkdtemp(prefix="faults-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    feeds = ("--counters", "feeds/counters.csv", "--jobs", "feeds/jobs.csv")
    offgrid = ("--counters", f"{OFFGRID}/feeds/counters.csv",
               "--jobs", f"{OFFGRID}/feeds/jobs.csv")
    report = ("--svg", "--probe", "demo/probe.csv")
    commands = {"ingest": ("ingest", *feeds, "--out", "staged"),
                "analyze": ("analyze", "--out", "staged"),
                "report": ("report", "--out", "staged", *report),
                "all": ("all", *feeds, "--out", "all", *report),
                f"ingest {OFFGRID}": ("ingest", *offgrid, "--out",
                                      f"{OFFGRID}/staged"),
                f"analyze {OFFGRID}": ("analyze", "--out", f"{OFFGRID}/staged"),
                f"report {OFFGRID}": ("report", "--out", f"{OFFGRID}/staged",
                                      *report),
                f"all {OFFGRID}": ("all", *offgrid, "--out", f"{OFFGRID}/all",
                                   *report)}
    try:
        perf_scenario(src, args.days, work / "perf.json")
        measure(src, work, "simulate", "--scenario", "perf.json", "--seed",
                args.seed, "--out", "feeds")
        measure(src, work, "simulate", "--preset", "demo", "--out", "demo")
        build_offgrid(src, work)
        print(f"perf preset over {args.days} days; parallel headroom "
              f"{headroom():.2f} (two CPU-bound processes against one; "
              f"1.0: a second CPU is free)")
        print(f"{'command':<20} {'wall_s':>7} {'cpu_s':>7} {'minflt':>8} "
              f"{'maxrss_mb':>9} {'vmhwm_mb':>9}")
        for name, cmd in commands.items():
            wall, cpu, minflt, maxrss, hwm = measure(src, work, *cmd)
            print(f"{name:<20} {wall:7.3f} {cpu:7.3f} {minflt:8d} "
                  f"{maxrss / 1024:9.1f} {hwm / 1024:9.1f}")
    finally:
        if args.work is None:
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
