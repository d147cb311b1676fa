"""Seeded tasks of the three workloads and the code that runs one task.

Each workload is a closed loop with one client: the benchmark process makes
the next task only after the previous one has finished. A run is a whole
number of passes; each pass holds every task of the run once, in an order
drawn from the seed and the pass number, and starts from a fresh import of
hilb. A task's time in the run is the best of its passes, and every task
runs on the CPU that a short probe found fastest just before it, so a slow
spell of the host moves the figures as little as it can.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import oracles
from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUT = HERE / "out"
TASK_TIMEOUT_S = 60


def child_env() -> dict:
    """The environment of every process that runs hilb: the caller's, with
    src/ on the path and no HILB_* settings, which would change the output
    the goldens were captured with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HILB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spin_s(iterations: int) -> float:
    """Seconds a fixed pure-Python loop of `iterations` steps takes here."""
    t0 = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return perf_counter() - t0


def pin_fastest(cpus: list[int], *pids: int) -> None:
    """Move this process, and the processes `pids`, to the CPU of `cpus` on
    which a 0.2 ms loop (best of three) runs fastest now; children started
    afterwards inherit the choice. On a shared host each CPU can run up to
    1.5x slower for seconds at a time, independently of the others."""
    speeds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(spin_s(3000) for _ in range(3)), cpu))
    fastest = {min(speeds)[1]}
    for pid in (0, *pids):
        os.sched_setaffinity(pid, fastest)


def shuffled(items, workload: str, seed: int, index: int) -> list:
    """Pass `index` of a workload: its items in an order drawn from the seed."""
    items = list(items)
    random.Random(f"{workload}:{seed}:{index}").shuffle(items)
    return items


def run_child(cmd: list[str]) -> dict:
    """Run one process to its end with stdout and stderr captured.

    Returns its wall time in seconds, stdout, stderr, exit code (None when it
    was killed after TASK_TIMEOUT_S) and peak resident set in KiB, read from
    the child's own resource usage.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        expired = threading.Event()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(TASK_TIMEOUT_S, lambda: (expired.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "elapsed": elapsed,
            "stdout": out.read(),
            "stderr": err.read(),
            "exit": None if expired.is_set() else proc.returncode,
            "rss_kb": usage.ru_maxrss,
        }


# ----------------------------------------------------------------- cli-oneshot

FORMATS = ("table", "json", "csv")


def cli_invocations() -> list[tuple[str, ...]]:
    """Sub-second invocations: the README examples (without `nakajima --n 200`
    and `verify`) plus one larger size of every other subcommand. Few enough
    that a run repeats each a dozen times."""
    p2, k3 = "1,0,1,0,1", "1,0,22,0,1"
    return [
        ("partitions", "--n", "5"),
        ("betti", "--space", "p2", "--n", "3"),
        ("betti", "--space", "punctual", "--n", "3"),
        ("betti", "--space", "affine", "--n", "6", "--rho", "2,15"),
        ("incidence", "--n", "12", "--check", "all"),
        ("strata", "--n", "8"),
        ("lattice", "--blowup", "4", "--square-exceptional"),
        ("lattice", "--blowup", "3"),
        ("goettsche", "--betti", p2, "--torder", "6", "--compare-fixed-points"),
        ("goettsche", "--betti", k3, "--torder", "8"),
        ("partitions", "--n", "25"),
        ("betti", "--space", "p2", "--n", "8"),
        ("incidence", "--n", "14", "--check", "euler"),
        ("strata", "--n", "14"),
        ("nakajima", "--n", "60", "--method", "both"),
        ("lattice", "--blowup", "8", "--square-exceptional"),
        ("goettsche", "--betti", k3, "--torder", "10"),
    ]


def cli_entries() -> list[tuple[str, ...]]:
    """The whole catalogue: every invocation in every format."""
    return [args + ("--format", f) for args in cli_invocations() for f in FORMATS]


def cli_tasks(seed: int) -> list[tuple[str, ...]]:
    """The tasks of a run: every invocation once, in a format drawn from the seed."""
    rng = random.Random(f"cli-oneshot:{seed}")
    return [args + ("--format", rng.choice(FORMATS)) for args in cli_invocations()]


def cli_pass(seed: int, index: int) -> list[tuple[str, ...]]:
    return shuffled(cli_tasks(seed), "cli-oneshot", seed, index)


# --------------------------------------------------------------- library-large

def library_tasks() -> list[tuple]:
    """The distinct (entry point, size) tasks of a run. They are the same
    for every seed, which sets only their order: seeded sizes changed a
    run's work by up to about 5 %, and the runs compared are made with
    different seeds. A pass takes 1.2-2 s, so that a run repeats every task
    some fifteen times."""
    return [
        *[("enumerate_partitions", n) for n in (26, 30, 34)],
        *[("poincare_affine", n, rho) for n in (12, 15, 18)
          for rho in (None, (1, 2 * n * n + 3), (2 * n * n + 3, 1))],
        *[("poincare_p2", n, rho) for n in (6, 8)
          for rho in (None, (1, 2 * n * n + 3), (2, 4 * n * n + 7))],
        *[("poincare_p2", n, None) for n in (7, 9)],
        *[("nakajima_recurrence", n) for n in (60, 90, 120)],
        *[("euler_incidence", n) for n in (14, 17, 20)],
        *[("strata_table", n) for n in (100, 200, 300)],
        *[("goettsche_series", n) for n in (10, 15, 20)],
        *[("fock_character", n) for n in (10, 15, 20)],
        *[("commutator_check", d, m, k, alpha, beta) for d in (5, 6, 7)
          for m, k, alpha, beta in ((1, 1, "h", "h"), (2, 2, "1", "pt"), (3, 1, "pt", "1"))],
    ]


def library_pass(seed: int, index: int) -> list[tuple]:
    """Pass `index`: every task of the run once, kinds interleaved."""
    return shuffled(library_tasks(), "library-large", seed, index)


LIBRARY_WARMUP = ("poincare_p2", 4, None)


# ---------------------------------------------------------------- verify-suite

# The checks of `hilb verify --all` whose cost grows with nmax, each timed at
# two nmax. `nakajima` is left out: it always runs the N = 200 recurrence,
# one indivisible call of about 0.7 s, which library-large times at smaller N.
VERIFY_SCALED = (
    "partition-counts", "conjugate-involution", "cover-duality", "generator-socle",
    "hilbert-burch", "jump-bound", "tangent-weights", "affine-closed-form",
    "chamber-independence", "punctual-cells", "euler-incidence",
    "goettsche-vs-fixed-points", "fock-character",
)
VERIFY_NMAX = (8, 12)
VERIFY_WARMUP = ("run_checks", 4, "fock-character")


def verify_tasks() -> list[tuple]:
    """One check of the suite at one nmax per task. Checks of a fixed size
    run once; commutator probing runs at nmax 3 and 4, as at 5 one call
    takes 0.8 s."""
    return [
        *[("run_checks", k, name) for k in VERIFY_NMAX for name in VERIFY_SCALED],
        ("run_checks", 12, "strata-bounds"),
        ("run_checks", 12, "exceptional-square"),
        *[("run_checks", k, "commutators") for k in (3, 4)],
    ]


def verify_pass(seed: int, index: int) -> list[tuple]:
    return shuffled(verify_tasks(), "verify-suite", seed, index)


def decode_task(item: list) -> tuple:
    """A task sent as a JSON list back to the tuple it was made as."""
    return tuple(tuple(x) if isinstance(x, list) else x for x in item)


def call_library(h, task: tuple):
    """The timed part of an in-process task: one call into a layer."""
    kind, n, *rest = task
    if kind == "enumerate_partitions":
        return h.partitions.enumerate_partitions(n)
    if kind == "poincare_affine":
        rho = h.equivariant.CharVector(*rest[0]) if rest[0] else None
        return h.equivariant.poincare_affine(n, rho)
    if kind == "poincare_p2":
        rho = h.equivariant.CharVector(*rest[0]) if rest[0] else None
        return h.equivariant.poincare_p2(n, rho)
    if kind == "nakajima_recurrence":
        return h.lattice.nakajima_recurrence(n)
    if kind == "euler_incidence":
        return h.incidence.euler_incidence(n)
    if kind == "strata_table":
        return h.incidence.strata_table(n)
    if kind in ("goettsche_series", "fock_character"):
        return getattr(h.heisenberg, kind)(h.heisenberg.k3_surface(), n)
    if kind == "run_checks":
        return h.verify.run_checks(n, [rest[0]])
    if kind == "commutator_check":
        m, k, alpha, beta = rest
        surface = h.heisenberg.p2_surface()
        probes = [
            h.heisenberg.FockState(surface, {mono: 1})
            for mono in h.heisenberg.basis_monomials(surface, n)
        ]
        return h.heisenberg.commutator_check(surface, m, k, alpha, beta, probes)
    raise ValueError(f"unknown task kind {kind!r}")


class LibraryOracle:
    """Expected results of every in-process task: for library-large from
    oracles.py only, for verify-suite the check results in goldens.json."""

    def __init__(self):
        self.checks = json.loads(GOLDENS.read_text())["verify-suite"]
        self.p2 = oracles.product_series((1, 0, 1, 0, 1), 10)
        self.k3 = oracles.product_series((1, 0, 22, 0, 1), 20)
        self.euler = oracles.nested_pair_counts(22)

    def check(self, task: tuple, result) -> str | None:
        """None when the result is right, else what is wrong with it."""
        kind, n, *rest = task
        if kind == "enumerate_partitions":
            parts = [lam.parts for lam in result]
            ok = (
                len(parts) == oracles.partition_count(n)
                and all(sum(p) == n and list(p) == sorted(p, reverse=True) and min(p) > 0 for p in parts)
                and all(a > b for a, b in zip(parts, parts[1:]))
            )
        elif kind == "poincare_affine":
            ok = result.coeffs == oracles.affine_poincare(n)
        elif kind == "poincare_p2":
            ok = (
                result.evaluate(1) == oracles.p2_fixed_point_count(n)
                and result.coeffs == {u: c for (t, u), c in self.p2.items() if t == n}
            )
        elif kind == "nakajima_recurrence":
            ok = result.values == oracles.nakajima_constants(n)
        elif kind == "euler_incidence":
            ok = result == self.euler[n] == oracles.nested_pair_count_by_parts(n)
        elif kind == "strata_table":
            ok = result.n == n and dict(result.bounds) == oracles.strata_bounds(n)
        elif kind in ("goettsche_series", "fock_character"):
            ok = result.truncation == n and result.coeffs == oracles.truncate(self.k3, n)
        elif kind == "run_checks":
            got = [(r.name, r.scope, r.passed, r.detail) for r in result]
            ok = got == [(rest[0], *self.checks[f"{n} {rest[0]}"])]
        else:
            m, k, alpha, beta = rest
            ok = (
                result.passed
                and result.scalar == oracles.commutator_scalar(m, k, alpha, beta)
                and result.probes_checked == oracles.p2_probe_count(n)
            )
        return None if ok else f"{task}: result differs from the oracle"


class WorkerLost(Exception):
    """The library worker died, or gave no reply within TASK_TIMEOUT_S."""


class LibraryWorker:
    """One `libworker.py` process: a fresh import of hilb that runs `warmup`
    untimed, then the in-process tasks sent to it, one at a time, and times
    each call."""

    def __init__(self, warmup: tuple, span_file: Path | None = None):
        cmd = [sys.executable, str(HERE / "libworker.py"), json.dumps(warmup), *([str(span_file)] if span_file else [])]
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready = self._reply()
        self.import_ns = ready["import_ns"]
        self.warmup_failure = ready["failure"]

    def call(self, task: tuple) -> tuple[float, str | None]:
        self.proc.stdin.write(json.dumps(task) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        return reply["elapsed"], reply["failure"]

    def _reply(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], TASK_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.proc.kill()
            self.close()
            raise WorkerLost("the library worker died or timed out")
        return json.loads(line)

    def close(self) -> int:
        """End the worker and return its peak resident set in KiB."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        if self.proc.returncode is not None:
            return 0
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss


# ------------------------------------------------------------------- workloads


class Workload:
    """The seeded tasks of one workload plus the code that runs and checks one.

    A run calls setup(), then for each pass start_pass(), run() on each of
    its tasks and end_pass(). With `traced` a pass also runs every task
    traced, right after its untraced run. Every task, and the warm-up, runs
    on the fastest of `cpus` (pin_fastest).
    """

    name = ""
    pass_s = 1.0  # seconds one pass takes on the reference machine when it runs slow (README)

    def __init__(self, seed: int, cpus: list[int]):
        self.seed = seed
        self.cpus = cpus
        self.peak_kb = 0  # largest resident set of a timed, untraced task's process
        self.totals: dict = {}  # per-layer sums over the traced tasks
        self.task_id = 0

    def pass_count(self, seconds: float) -> int:
        """Whole passes, at least two, that fit in `seconds` on the reference machine."""
        return max(2, int(seconds / self.pass_s))

    def setup(self) -> str | None:
        """Everything before the first timed task: loading what the checks
        need, generating the tasks and one untimed warm-up task. Returns the
        warm-up's failure, if any."""
        raise NotImplementedError

    def start_pass(self, index: int, traced: bool) -> list:
        """The tasks of pass `index`, in order."""
        raise NotImplementedError

    def run(self, task, traced: bool) -> tuple[float, str | None]:
        """Run one task; return its wall time in seconds and its failure, if any."""
        raise NotImplementedError

    def end_pass(self) -> None:
        pass

    def add_totals(self, summary: dict) -> None:
        for key, value in summary.items():
            self.totals[key] = self.totals.get(key, 0) + value


class CliOneshot(Workload):
    """Each task is one fresh `python -m hilb.cli ...` process."""

    name = "cli-oneshot"
    warmup = ("partitions", "--n", "5", "--format", "table")
    pass_s = 2.6

    def setup(self):
        with open(GOLDENS) as fh:
            self.goldens = json.load(fh)[self.name]
        self.first_pass = cli_pass(self.seed, 0)
        return self.run(self.warmup, traced=False, timed=False)[1]

    def start_pass(self, index, traced):
        return cli_pass(self.seed, index) if index else self.first_pass

    def run(self, args, traced, timed=True):
        if traced:
            self.task_id += 1
            span_file = OUT / f"spans-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(span_file), str(self.task_id), *args]
        else:
            cmd = [sys.executable, "-m", "hilb.cli", *args]
        pin_fastest(self.cpus)
        child = run_child(cmd)
        if child["exit"] is None:
            return child["elapsed"], f"{' '.join(args)}: timed out"
        failure = self.compare(args, child)
        if traced:
            failure = failure or self._add_spans(span_file, len(child["stdout"]))
        elif timed:
            self.peak_kb = max(self.peak_kb, child["rss_kb"])
        return child["elapsed"], failure

    def compare(self, args, child) -> str | None:
        out = child["stdout"]
        want = self.goldens.get(" ".join(args))
        got = {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out), "exit": child["exit"]}
        if want != got:
            return f"{' '.join(args)}: got {got}, golden {want}; stderr {child['stderr'][-300:]!r}"
        return None

    def _add_spans(self, span_file: Path, out_bytes: int) -> str | None:
        if not span_file.exists():
            return f"{span_file.name}: the traced run wrote no spans"
        with open(span_file) as fh:
            record = json.load(fh)
        span_file.unlink()
        self.add_totals({
            **summarize(record),
            "cli.import_ns": record["import_ns"],
            "cli.imports": 1,
            "cli.out_bytes": out_bytes,
        })
        return None


class LibraryLarge(Workload):
    """Each task is one call into a layer's heavy entry point, made and
    timed inside a worker process (libworker.py) that imports hilb.

    Every pass runs in its own fresh worker and no task repeats within a
    pass, so no cache can carry work from one call of a task to the next.
    """

    name = "library-large"
    warmup = LIBRARY_WARMUP
    pass_s = 2.05

    def make_pass(self, index: int) -> list:
        return library_pass(self.seed, index)

    def setup(self):
        self.first_pass = self.make_pass(0)
        pin_fastest(self.cpus)
        try:
            worker = LibraryWorker(self.warmup)
        except WorkerLost as e:
            return f"{self.warmup}: {e}"
        worker.close()
        return worker.warmup_failure

    def start_pass(self, index, traced):
        self.workers = {False: LibraryWorker(self.warmup)}
        if traced:
            OUT.mkdir(exist_ok=True)
            self.span_file = OUT / f"spans-{self.name}-{os.getpid()}.json"
            self.workers[True] = LibraryWorker(self.warmup, self.span_file)
        return self.make_pass(index) if index else self.first_pass

    def run(self, task, traced):
        worker = self.workers[traced]
        pin_fastest(self.cpus, worker.proc.pid)
        try:
            return worker.call(task)
        except WorkerLost as e:
            self.workers[traced] = LibraryWorker(self.warmup, self.span_file if traced else None)
            return TASK_TIMEOUT_S, f"{task}: {e}"

    def end_pass(self):
        self.peak_kb = max(self.peak_kb, self.workers[False].close())
        if True in self.workers:
            self.workers[True].close()
            with open(self.span_file) as fh:
                record = json.load(fh)
            self.span_file.unlink()
            self.add_totals(summarize(record))
        for worker in self.workers.values():
            self.add_totals({"cli.import_ns": worker.import_ns, "cli.imports": 1})


class VerifySuite(LibraryLarge):
    """Each task is one check of `hilb verify --all` at one nmax, run like
    a library-large task: in-process, one fresh worker per pass. The checks
    of one pass share the worker, as they share the process of one
    `hilb verify` run."""

    name = "verify-suite"
    warmup = VERIFY_WARMUP
    pass_s = 1.65

    def make_pass(self, index):
        return verify_pass(self.seed, index)


WORKLOADS = {w.name: w for w in (CliOneshot, LibraryLarge, VerifySuite)}
