"""Worker process of the in-process workloads, library-large and verify-suite.

Usage: libworker.py WARMUP_TASK [SPAN_FILE]   (with src/ on PYTHONPATH)

Times `import hilb.cli`, which imports every layer, builds the oracle
tables and runs WARMUP_TASK (a JSON list) untimed, then writes one JSON line
{"import_ns", "failure"}. For each task then read from stdin as a JSON
list it times one call into hilb, checks the result against the oracles
and writes {"elapsed", "failure"}. With SPAN_FILE every task is traced
and the spans are written there once stdin closes.
"""

import json
import sys
from time import perf_counter, perf_counter_ns

from spans import Tracer, write
from workloads import LibraryOracle, call_library, decode_task


def run_task(h, oracle: LibraryOracle, task: tuple) -> tuple[float, str | None]:
    t0 = perf_counter()
    try:
        result = call_library(h, task)
        elapsed = perf_counter() - t0
        return elapsed, oracle.check(task, result)
    except Exception as e:  # a raising call or an unreadable result fails the task
        return perf_counter() - t0, f"{task}: {type(e).__name__}: {e}"


def reply(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main() -> None:
    warmup = decode_task(json.loads(sys.argv[1]))
    span_file = sys.argv[2] if len(sys.argv) > 2 else None
    t0 = perf_counter_ns()
    import hilb.cli  # noqa: F401
    import_ns = perf_counter_ns() - t0
    h = sys.modules["hilb"]
    oracle = LibraryOracle()
    reply({"import_ns": import_ns, "failure": run_task(h, oracle, warmup)[1]})
    tracer = Tracer()
    for line in sys.stdin:
        task = decode_task(json.loads(line))
        if span_file:
            tracer.task += 1
            tracer.install(h)
        try:
            elapsed, failure = run_task(h, oracle, task)
        finally:
            tracer.uninstall()
        reply({"elapsed": elapsed, "failure": failure})
    if span_file:
        write(span_file, tracer.dump())


if __name__ == "__main__":
    main()
