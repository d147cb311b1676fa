"""Compare benchmark results of a parent commit and a change, or show steadiness.

    python3 perfbench/run.py --workload W --seed S --seconds 15 --save perfbench/out/parent
    python3 perfbench/compare.py perfbench/out/parent [perfbench/out/change]

Reads the untraced results that run.py --save wrote. For every workload and
end-to-end metric it prints each side's median and quartiles and the spread
(interquartile distance over the median) against the metric's bound.

With two directories it pairs runs by seed and prints the change's win rate
and a verdict:
  gain        the change wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's quartile spread;
  regression  the change's median is worse than the parent's by more than the bound;
  unresolved  the parent's own spread is wider than the bound, and not every
              run of the change beats every run of the parent;
  same        none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {seed: metrics}} of the untraced results in a directory."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record["metrics"]
    return runs


def stats(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median, q3


def verdict(parent: dict, change: dict, metric: dict) -> tuple[str, str]:
    name, lower = metric["name"], metric["better"] == "lower"
    seeds = sorted(set(parent) & set(change))
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(change[s][name]["value"], parent[s][name]["value"]) for s in seeds)
    pv = [parent[s][name]["value"] for s in parent]
    cv = [change[s][name]["value"] for s in change]
    (pq1, pmed, pq3), (_, cmed, _) = stats(pv), stats(cv)
    worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if seeds and wins >= 0.9 * len(seeds) and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        label = "gain"
    elif worse_by > metric["bound"]:
        label = "regression"
    elif (pq3 - pq1) / pmed > metric["bound"] and not all(better(c, p) for c in cv for p in pv):
        label = "unresolved"
    else:
        label = "same"
    return label, f"wins {wins}/{len(seeds)}"


def fmt(values: list[float]) -> str:
    q1, med, q3 = stats(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}] spread {(q3 - q1) / med:6.1%}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(Path(d)) for d in argv]
    for workload in sorted(set().union(*sides)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for side in sides:
                runs = side.get(workload, {})
                values = [m[name]["value"] for m in runs.values()]
                cols.append(f"{fmt(values)} (n={len(values)})" if values else "no runs")
            line = f"{workload}/{name} [{metric['unit']}, bound {bound:.0%}]: " + "  |  ".join(cols)
            if len(sides) == 2 and all(workload in s for s in sides):
                label, wins = verdict(sides[0][workload], sides[1][workload], metric)
                line += f"  -> {label} ({wins})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
