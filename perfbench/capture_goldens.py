"""Record the golden output of every CLI task and every verify-suite check.

    python3 perfbench/capture_goldens.py

Runs each cli-oneshot catalogue entry twice against the sources in src/
and records the SHA-256, length and exit code of its stdout; runs each
verify-suite task (and its warm-up) twice in this process and records the
check's scope, outcome and detail. Output that differs between the two
runs, or a check that does not pass, is refused. Rewrites
perfbench/goldens.json. Run it only on a commit whose output is known to
be right; the benchmark compares every later commit against it.
"""

import hashlib
import json
import subprocess
import sys

from workloads import GOLDENS, SRC, VERIFY_WARMUP, child_env, cli_entries, verify_tasks


def record(args: tuple[str, ...]) -> dict:
    env = child_env()
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "hilb.cli", *args], env=env, capture_output=True, timeout=300)
        runs.append({"sha256": hashlib.sha256(proc.stdout).hexdigest(), "bytes": len(proc.stdout), "exit": proc.returncode})
    if runs[0] != runs[1]:
        raise SystemExit(f"output of {' '.join(args)} differs between two runs")
    return runs[0]


def check_record(run_checks, task: tuple) -> list:
    _, nmax, name = task
    runs = [[(r.scope, r.passed, r.detail) for r in run_checks(nmax, [name])] for _ in range(2)]
    if runs[0] != runs[1] or len(runs[0]) != 1 or not runs[0][0][1]:
        raise SystemExit(f"check {name} at nmax {nmax} is not a single passing, repeatable result: {runs}")
    return list(runs[0][0])


def main() -> None:
    sys.path.insert(0, str(SRC))
    from hilb.verify import run_checks

    goldens = {
        "cli-oneshot": {" ".join(args): record(args) for args in cli_entries()},
        "verify-suite": {
            f"{task[1]} {task[2]}": check_record(run_checks, task) for task in (VERIFY_WARMUP, *verify_tasks())
        },
    }
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(g) for g in goldens.values())} goldens to {GOLDENS}")


if __name__ == "__main__":
    main()
