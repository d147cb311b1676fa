"""Benchmark of hilb: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

A single workload prints `workload/metric value unit` lines and, as its last
line, one JSON object {correct, attempted, failed, metrics}. A run makes
whole passes over the workload's tasks, at least two and as many as fit in
--seconds on the reference machine when it runs slow; a task's time is the best of its passes, each task run on the
CPU found fastest just before it. With --trace 0 the JSON metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, from one pass in
which every task runs untraced and then traced. `--workload all` prints the
lines of every workload. Every output is checked against goldens or
oracles; any wrong output makes the exit code 1. Workloads and metrics are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TAILS = (90, 99)


def tail_percentiles(n: int) -> list[int]:
    """Percentiles above the median that leave at least ten of n samples beyond them."""
    return [p for p in TAILS if n * (100 - p) >= 10 * 100]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_REPEATS times, then run the workload's closed loop: whole
    passes for about `seconds`, each task timed as the best of its passes,
    or with `trace` one traced pass."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        return closed_loop(workload, seed, seconds, trace, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def closed_loop(workload, seed: int, seconds: float, trace: bool, cpus: list[int]) -> dict:
    setups, failures = [], []
    for _ in range(SETUP_REPEATS):
        wl = workload(seed, cpus)
        t0 = perf_counter()
        failure = wl.setup()
        setups.append(perf_counter() - t0)
        failures += [failure] if failure else []
    result = {"metrics": {"setup_s": statistics.median(setups)}, "samples": 0,
              "attempted": SETUP_REPEATS, "failures": failures}
    # A failed warm-up means the program under test is wrong: report, do not time it.
    if failures:
        return result
    if trace:
        return traced_pass(wl, result)
    runs: dict = {}
    failed = set()
    # A fixed number of passes for a given --seconds: the best of more
    # passes reads lower, so a count that followed the host's speed would
    # carry that speed into the figures.
    result["passes"] = wl.pass_count(seconds)
    for index in range(result["passes"]):
        for task in wl.start_pass(index, traced=False):
            elapsed, failure = wl.run(task, traced=False)
            runs.setdefault(task, []).append(elapsed)
            if failure:
                failures.append(failure)
                failed.add(task)
            result["attempted"] += 1
        wl.end_pass()
    times = [min(t) for t in runs.values()]
    result["metrics"].update({
        "tasks_per_s": (len(runs) - len(failed)) / sum(times),
        "task_ms_p50": statistics.median(times) * 1e3,
        **{f"task_ms_p{p}": percentile(times, p) * 1e3 for p in tail_percentiles(len(times))},
        "peak_rss_mb": wl.peak_kb / 1024,
    })
    result["samples"] = len(times)
    return result


def traced_pass(wl, result: dict) -> dict:
    """Pass 0 with every task run untraced and then traced, so both sides
    of trace.overhead_pct run the same tasks at nearly the same time."""
    times: dict[bool, list[float]] = {False: [], True: []}
    spins = []
    for task in wl.start_pass(0, traced=True):
        for traced in (False, True):
            elapsed, failure = wl.run(task, traced)
            times[traced].append(elapsed)
            result["attempted"] += 1
            if failure:
                result["failures"].append(failure)
        # The host's own speed, for diagnosis only.
        spins.append(workloads.spin_s(200_000) * 1e3)
    wl.end_pass()
    totals = wl.totals
    metrics = {
        "host.spin_ms": statistics.median(spins),
        "trace.overhead_pct": (sum(times[True]) / sum(times[False]) - 1) * 100,
        "cli.import_ms": totals["cli.import_ns"] / 1e6 / totals["cli.imports"],
        "cli.out_bytes": totals.get("cli.out_bytes", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = totals.get(f"{layer}.self_ns", 0) / 1e6 / len(times[True])
        metrics[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0)
    for counter, _ in COUNTERS.values():
        metrics[counter] = totals.get(counter, 0)
    result["metrics"] = metrics
    result["samples"], result["passes"] = len(times[True]), 1
    return result


def unit(metric: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == metric:
            return m["unit"]
    return "ms" if "_ms" in metric else "count"


def report(name: str, result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric measured as `workload/metric value unit`; return
    the metrics of the JSON line, which are those BENCHMARK.json names."""
    measured = result["metrics"]
    for metric, value in measured.items():
        note = f"  ({result['samples']} tasks, best of {result['passes']} passes)" if metric.startswith("task_ms_") else ""
        print(f"{name}/{metric} {value:.6g} {unit(metric, spec)}{note}")
    failed = len(result["failures"])
    print(f"{name}/fail_ratio {failed / result['attempted']:.6g} 1  ({failed} of {result['attempted']} tasks)")
    for failure in result["failures"][:5]:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="also write the result as JSON into this directory")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hilb" / "__init__.py").is_file():
        print(f"error: no hilb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2

    ok = True
    for name in names:
        result = measure(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        metrics = report(name, result, spec, bool(args.trace))
        line = {
            "correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": metrics,
        }
        ok = ok and line["correct"]
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **line}
            (args.save / f"{name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record) + "\n")
    if len(names) == 1:
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
