"""Compare the end-to-end results of two commits, workload by workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result.json files that bench/run.py writes under
.bench_work/ (searched at any depth), one per run with --trace 0.  Runs pair
up by workload and seed, so run the parent and the change on the same seeds,
alternating which of the two goes first from pair to pair.

For each workload and end-to-end metric the verdict is:

* improved: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's own
  quartile spread;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, and the parent's quartile spread is
  within that bound or the change loses at least 9 of every 10 pairs;
* unresolved: fewer than ten pairs, or the parent's quartile spread is
  wider than the bound and not every change run beats every parent run;
* unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
# Environment fields that must agree: results from different machines or
# toolchains are never compared.
MACHINE_KEYS = ("nproc", "affinity_cpus", "cpu_model", "python", "numpy", "blas_threads")


def load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.rglob("result.json")):
        record = json.loads(path.read_text())
        if record["trace"] == 0 and not record["smoke"]:
            runs[(record["workload"], record["seed"])] = record
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (value) is a cost
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    losses = sum(1 for p, c in pairs if sign * c > sign * p)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_iqr = q3 - q1
    if wins >= WIN_SHARE * len(pairs) and sign * (p_med - c_med) > p_iqr:
        return "improved"
    spread_ok = p_iqr <= bound * abs(p_med)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse" if spread_ok or losses >= WIN_SHARE * len(pairs) else "unresolved"
    if not spread_ok and not max(sign * c for c in change) < min(sign * p for p in parent):
        return "unresolved"
    return "unchanged"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{statistics.median(values):.5g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = (load(Path(a)) for a in argv)
    machines = {json.dumps({k: r["environment"][k] for k in MACHINE_KEYS}, sort_keys=True) for r in [*parent.values(), *change.values()]}
    if len(machines) > 1:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for machine in sorted(machines):
            print(f"  {machine}", file=sys.stderr)
        return 2
    print(f"{'workload':18} {'metric':16} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'wins':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        failed = {side: sum(not runs[(workload, s)]["result"]["correct"] for s in seeds) for side, runs in (("parent", parent), ("change", change))}
        if any(failed.values()):
            print(f"{workload:18} runs with failed invocations: parent {failed['parent']}, change {failed['change']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["result"]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["result"]["metrics"][name]["value"] for s in seeds]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * b < sign * a)
            print(
                f"{workload:18} {name:16} {quartiles(p):34} {quartiles(c):34} {wins:>3}/{len(seeds):<3}  "
                + verdict(p, c, metric["better"], metric["bound"])
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
