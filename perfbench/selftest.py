"""Tests of the benchmark itself: task generation, percentiles, oracles,
tracing and the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the default pytest collection, so
they never share a process with the timing-sensitive tests under tests/.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hilb.cli  # noqa: E402  (hilb.cli imports every layer the tracer wraps)
import oracles  # noqa: E402
import workloads  # noqa: E402
from run import percentile, tail_percentiles  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

PASSES = (workloads.cli_pass, workloads.library_pass, workloads.verify_pass)
P2_LABELS = ("1", "h", "pt")


@pytest.mark.parametrize("make", PASSES)
def test_task_generation_is_seeded(make):
    assert make(7, 0) == make(7, 0)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_library_pass_repeats_no_task_and_every_pass_holds_the_same_tasks():
    tasks = workloads.library_pass(3, 0)
    assert len(tasks) == len(set(tasks))
    assert sorted(tasks, key=repr) == sorted(workloads.library_pass(3, 4), key=repr)
    assert [workloads.decode_task(json.loads(json.dumps(task))) for task in tasks] == tasks


def test_cli_pass_runs_every_invocation_once_in_one_catalogue_format():
    tasks = workloads.cli_pass(5, 2)
    assert sorted(tasks) == sorted(workloads.cli_pass(5, 0))
    assert sorted(task[:-2] for task in tasks) == sorted(workloads.cli_invocations())
    assert set(tasks) <= set(workloads.cli_entries())


def test_verify_suite_times_every_check_but_nakajima_and_has_a_golden_for_each():
    names = {name for _, _, name in workloads.verify_tasks()}
    assert names == {name for name, _ in hilb.verify.ALL_CHECKS} - {"nakajima"}
    goldens = json.loads(workloads.GOLDENS.read_text())["verify-suite"]
    for _, nmax, name in (workloads.VERIFY_WARMUP, *workloads.verify_tasks()):
        assert f"{nmax} {name}" in goldens


def test_pin_fastest_picks_one_allowed_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    try:
        workloads.pin_fastest(cpus)
        assert len(os.sched_getaffinity(0)) == 1 and os.sched_getaffinity(0) <= set(cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def test_every_seed_measures_the_same_library_mix():
    def kinds(tasks):
        return sorted(task[0] for task in tasks)

    assert kinds(workloads.library_pass(1, 0)) == kinds(workloads.library_pass(2, 5))


def test_percentile_rule_keeps_ten_samples_beyond():
    for n in range(2, 2100):
        values = list(range(n))
        for p in tail_percentiles(n):
            cut = percentile(values, p)
            assert sum(v > cut for v in values) >= 10
    assert tail_percentiles(99) == [] and tail_percentiles(100) == [90]
    assert tail_percentiles(1000) == [90, 99]


def test_oracles_agree_with_hilb_at_small_sizes():
    for n in range(12):
        assert oracles.partition_count(n) == len(hilb.enumerate_partitions(n))
        assert oracles.nested_pair_count_by_parts(n) == len(hilb.nested_pairs(n))
        assert oracles.nested_pair_counts(11)[n] == hilb.euler_incidence(n)
    for n in range(9):
        assert oracles.affine_poincare(n) == hilb.poincare_affine(n).coeffs
    p2 = oracles.product_series((1, 0, 1, 0, 1), 5)
    for n in range(6):
        assert oracles.p2_fixed_point_count(n) == len(hilb.fixed_points_p2(n))
        assert {u: c for (t, u), c in p2.items() if t == n} == hilb.poincare_p2(n).coeffs
    for n in range(1, 12):
        assert oracles.strata_bounds(n) == dict(hilb.strata_table(n).bounds)
    assert oracles.nakajima_constants(30) == hilb.nakajima_recurrence(30).values
    assert oracles.product_series((1, 0, 22, 0, 1), 6) == hilb.goettsche_series(hilb.k3_surface(), 6).coeffs
    surface = hilb.p2_surface()
    for depth in range(5):
        assert oracles.p2_probe_count(depth) == len(hilb.basis_monomials(surface, depth))
    for m in (1, 2):
        for k in (1, 2):
            for a in P2_LABELS:
                for b in P2_LABELS:
                    report = hilb.commutator_check(surface, m, k, a, b)
                    assert report.scalar == oracles.commutator_scalar(m, k, a, b)


def test_library_checks_pass_on_hilb_and_catch_a_wrong_result():
    oracle = workloads.LibraryOracle()
    small = [
        workloads.LIBRARY_WARMUP, ("enumerate_partitions", 9), ("poincare_affine", 7, (1, 101)),
        ("nakajima_recurrence", 12), ("euler_incidence", 8), ("strata_table", 9),
        ("goettsche_series", 5), ("fock_character", 5), ("commutator_check", 3, 2, 2, "h", "h"),
        workloads.VERIFY_WARMUP, ("run_checks", 8, "cover-duality"),
    ]
    for task in small:
        assert oracle.check(task, workloads.call_library(hilb, task)) is None, task
    wrong = hilb.enumerate_partitions(9)[:-1]
    assert oracle.check(("enumerate_partitions", 9), wrong) is not None
    other = hilb.verify.run_checks(12, ["cover-duality"])
    assert oracle.check(("run_checks", 8, "cover-duality"), other) is not None


def test_library_worker_times_checks_and_reports_its_peak():
    worker = workloads.LibraryWorker(workloads.LIBRARY_WARMUP)
    try:
        assert worker.warmup_failure is None and worker.import_ns > 0
        elapsed, failure = worker.call(("poincare_affine", 7, (1, 101)))
        assert failure is None and elapsed > 0
    finally:
        peak_kb = worker.close()
    assert peak_kb > 1024


def test_children_run_without_hilb_settings(monkeypatch):
    monkeypatch.setenv("HILB_THREADS", "2")
    env = workloads.child_env()
    assert "HILB_THREADS" not in env
    assert env["PYTHONPATH"] == str(workloads.SRC)


def test_tracer_nests_spans_counts_exactly_and_restores():
    original = hilb.incidence.nested_pairs
    tracer = Tracer()
    totals = []
    for _ in range(2):
        tracer.spans.clear()
        tracer.install(hilb)
        try:
            hilb.incidence.euler_incidence(6)
        finally:
            tracer.uninstall()
        totals.append(summarize(tracer.dump()))
    assert hilb.incidence.nested_pairs is original
    counts = {k: v for k, v in totals[0].items() if not k.endswith("_ns")}
    assert counts == {k: v for k, v in totals[1].items() if not k.endswith("_ns")}
    assert counts["incidence.nested_pairs"] == oracles.nested_pair_counts(6)[6]
    assert counts["partitions.yielded"] == 2 * oracles.partition_count(6) + oracles.partition_count(7)
    top = [s for s in tracer.spans if s[3] == -1]
    assert [tracer.names[s[0]] for s in top] == ["incidence.euler_incidence"]
    assert sum(v for k, v in totals[1].items() if k.endswith("self_ns")) == top[0][2] - top[0][1]


def _copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    if with_sources:
        (root / "src").symlink_to(HERE.parent / "src")
    return root


def _run(root: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["cli-oneshot", "verify-suite"])
def test_a_corrupted_golden_fails_the_run(tmp_path, workload):
    root = _copy_benchmark(tmp_path, with_sources=True)
    goldens_file = root / "perfbench" / "goldens.json"
    goldens = json.loads(goldens_file.read_text())
    for key, entry in goldens[workload].items():
        if workload == "cli-oneshot":
            entry["bytes"] += 1
        else:
            goldens[workload][key] = [entry[0], entry[1], entry[2] + "!"]
    goldens_file.write_text(json.dumps(goldens))
    proc = _run(root, workload)
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["failed"] > 0 and not line["correct"]
    assert f"{workload}/fail_ratio 1 1" in proc.stdout


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_sources=False)
    proc = _run(root, "library-large")
    assert proc.returncode != 0
    assert proc.stdout == ""
