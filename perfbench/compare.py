"""Compare two sets of benchmark results, workload by workload.

Usage: python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are each a result file written by run.py, a directory of
them, or baseline.json. For every workload in both sets the script prints
each metric's median, quartiles and change, and flags a change worse than
the bound in BENCHMARK.json. It refuses to compare results taken on
different kernel backends, Python or numpy versions, or core counts.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Results differing in any of these were not measured on the same program.
MUST_MATCH = ("kernel_backend", "python", "numpy", "nproc")


def load(path: Path) -> list[dict]:
    if path.is_dir():
        return [r for p in sorted(path.glob("*.json")) for r in load(p)]
    doc = json.loads(path.read_text())
    return doc["records"] if "records" in doc else [doc]


def by_workload(records) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for r in records:
        out[r["env"]["workload"]].append(r)
    return out


def env_conflicts(before, after) -> list[str]:
    """A program without backend selection records no backend (null);
    it is comparable with any result of a single named backend."""
    conflicts = []
    for key in MUST_MATCH:
        a = {r["env"].get(key) for r in before}
        b = {r["env"].get(key) for r in after}
        if key == "kernel_backend":
            a, b = a - {None}, b - {None}
            if not a or not b:
                continue
        if a != b:
            conflicts.append(f"{key}: {sorted(map(str, a))} vs "
                             f"{sorted(map(str, b))}")
    return conflicts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load(Path(a)) for a in argv)
    conflicts = env_conflicts(before, after)
    if conflicts:
        print("refusing to compare results from different environments:\n  "
              + "\n  ".join(conflicts), file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_w, b_w = by_workload(before), by_workload(after)
    regressed = False
    for w in sorted(set(a_w) & set(b_w)):
        print(f"{w}: {len(a_w[w])} before, {len(b_w[w])} after")
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in a_w[w] if name in r["metrics"]]
            b = [r["metrics"][name] for r in b_w[w] if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag = f"  WORSE than bound {m['bound']:.0%}"
                regressed = True
            print(f"  {name:<46} {qa[1]:>12.5g} -> {qb[1]:>12.5g} "
                  f"{m['unit']:<7} {change:+7.1%}  "
                  f"(IQR {qa[0]:.4g}-{qa[2]:.4g} | {qb[0]:.4g}-{qb[2]:.4g})"
                  f"{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
