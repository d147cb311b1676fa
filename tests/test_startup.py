"""Start-up: the lazy package root, records without dataclasses, and what
each subcommand and each refusal loads and prints as a process."""

import hashlib
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hilb
from hilb import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = (
    "errors", "common", "partitions", "monomial", "equivariant", "strata",
    "incidence", "lattice", "series", "heisenberg", "verify", "cli",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Runs `main` on the given arguments in a fresh interpreter, then writes the
# exit code, whether `dataclasses` was loaded, and the hilb modules loaded.
PROBE = """
import sys
from hilb.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "hilb" or m.startswith("hilb."))
sys.stderr.write(" ".join([str(code), str("dataclasses" in sys.modules), *loaded]))
"""

BASE = {"hilb", "hilb.cli", "hilb.errors"}
CELLS = {"hilb.common", "hilb.partitions", "hilb.equivariant"}
STRATA = {"hilb.common", "hilb.strata"}
# incidence re-exports the strata tables, so it loads their module too
INCIDENCE = STRATA | {"hilb.partitions", "hilb.monomial", "hilb.incidence"}
LATTICE = {"hilb.common", "hilb.lattice"}
SERIES = {"hilb.common", "hilb.series"}


# argv, the hilb modules it loads beyond BASE, and its exit code; a refusal
# happens before any layer loads
LOAD_RUNS = [
    ("partitions --n 3", {"hilb.partitions"}, 0),
    ("betti --space affine --n 3", CELLS, 0),
    ("betti --space punctual --n 3", CELLS, 0),
    ("incidence --n 3", INCIDENCE, 0),
    ("strata --n 3", STRATA, 0),
    ("nakajima --n 3", LATTICE, 0),
    ("lattice --blowup 2", LATTICE, 0),
    ("goettsche --betti 1,0,1,0,1 --torder 2", SERIES, 0),
    ("goettsche --betti 1,0,1,0,1 --torder 2 --compare-fixed-points", SERIES | CELLS, 0),
    ("verify --all --nmax 2", {f"hilb.{layer}" for layer in LAYERS}, 0),
    ("verify --nmax 4", set(), 2),
    ("verify --all --nmax 0", set(), 2),
]


@pytest.mark.parametrize(
    "argv, layers, code", LOAD_RUNS,
    # pytest's own ids would end in the exit code; these keep "<argv>-layers<row>"
    ids=[f"{argv}-layers{row}" for row, (argv, *_) in enumerate(LOAD_RUNS)],
)
def test_subcommand_loads_only_its_layers(argv, layers, code):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PROBE, *argv.split(), "--format", "json"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    # the probe's report is the last stderr line, after any refusal
    got, dataclasses_loaded, *loaded = proc.stderr.splitlines()[-1].split()
    assert (got, dataclasses_loaded) == (str(code), "False")
    assert set(loaded) == BASE | layers


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from hilb import *", namespace)
    assert set(hilb.__all__) <= set(namespace)


def test_each_reexport_is_its_layers_object():
    exported = {"__version__"}
    for layer, names in hilb._EXPORTS.items():
        module = importlib.import_module(f"hilb.{layer}")
        for name in names:
            assert getattr(hilb, name) is getattr(module, name), name
        exported.update(names)
    assert exported == set(hilb.__all__)


def test_dir_lists_layers_and_reexports():
    assert set(hilb.__all__) | set(LAYERS) <= set(dir(hilb))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="^module 'hilb' has no attribute 'no_such_name'$"):
        hilb.no_such_name
    assert not hasattr(hilb, "no_such_name")


def test_non_generic_error_is_one_class():
    assert hilb.equivariant.NonGenericError is hilb.errors.NonGenericError
    assert hilb.NonGenericError is hilb.errors.NonGenericError


@pytest.mark.parametrize(
    "name, loaded",
    [
        ("NonGenericError", {"hilb", "hilb.errors"}),
        ("IntersectionLattice", {"hilb", "hilb.errors", "hilb.common"}),
        ("strata_table", {"hilb", "hilb.errors", "hilb.common", "hilb.strata"}),
        ("goettsche_series", {"hilb", "hilb.errors", "hilb.common", "hilb.series"}),
    ],
)
def test_leaf_reexport_loads_only_its_module(name, loaded):
    probe = (
        f"import sys, hilb; hilb.{name}; "
        "print(*(m for m in sys.modules if m == 'hilb' or m.startswith('hilb.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (set(proc.stdout.split()), proc.stderr) == (loaded, "")


@pytest.mark.parametrize(
    "record, shown",
    [
        (
            hilb.NestedPair(hilb.Partition((2,)), hilb.Partition((2, 1))),
            "NestedPair(lower=Partition(2,), upper=Partition(2, 1))",
        ),
        (hilb.strata_table(2), "StrataBoundTable(n=2, bounds={1: 6, 2: 4, 3: 2})"),
        (hilb.DivisorClass((1, -2)), "DivisorClass(coords=(1, -2))"),
        (hilb.NakajimaSequence((1, -2)), "NakajimaSequence(values=(1, -2))"),
        (hilb.p2_lattice(), "IntersectionLattice(gram=((1,),), labels=('H',))"),
        (hilb.poincare_affine(2), "PoincarePoly({0: 1, 2: 1})"),
        (hilb.goettsche_series(hilb.p2_surface(), 2), "GradedSeries(truncation=2, terms=9)"),
        (hilb.vacuum(hilb.p2_surface()), "FockState(1*vac)"),
        (hilb.p2_surface(), "SurfaceModel(betti=(1, 0, 1, 0, 1))"),
    ],
)
def test_validated_records_are_frozen_values(record, shown):
    assert repr(record) == shown
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(record, field)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert record != tuple(getattr(record, name) for name in type(record).__slots__)


def test_value_semantics_live_in_record_only():
    # a new value type subclasses Record and brings no copy of its own;
    # SurfaceModel names (betti, h2) as its defining fields instead, and
    # IntersectionLattice pickles by its sparse entries, not by the dense
    # Gram its __init__ takes
    for layer in LAYERS:
        importlib.import_module(f"hilb.{layer}")
    assert not hasattr(hilb.common, "Frozen")
    found, todo = set(), [hilb.common.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("hilb."):
                found.add(sub)
                todo.append(sub)
    own = {
        (c.__name__, name)
        for c in found
        for name in ("__eq__", "__hash__", "__reduce__")
        if name in vars(c)
    }
    assert own == {("IntersectionLattice", "__reduce__")}


# One cli-oneshot golden per subcommand that has one, spread over the three formats.
PROCESS_GOLDENS = [
    "partitions --n 5 --format table",
    "betti --space p2 --n 3 --format json",
    "incidence --n 12 --check all --format csv",
    "strata --n 8 --format table",
    "nakajima --n 60 --method both --format json",
    "lattice --blowup 3 --format csv",
    "goettsche --betti 1,0,1,0,1 --torder 6 --compare-fixed-points --format table",
]


def run_process(argv: str) -> subprocess.CompletedProcess:
    """`python -W error -m hilb.cli <argv>`, its stdout and stderr as bytes."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "hilb.cli", *argv.split()],
        env=child_env(), capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("argv", PROCESS_GOLDENS)
def test_process_output_matches_bench_goldens(argv):
    # as `python -m hilb.cli`, where cli runs as __main__ and its handlers'
    # relative imports resolve through the package
    goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["cli-oneshot"]
    proc = run_process(argv)
    got = {
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "bytes": len(proc.stdout),
        "exit": proc.returncode,
    }
    assert (got, proc.stderr) == (goldens[argv], b"")


def test_verify_process_matches_in_process(capsys):
    # no golden holds verify's stdout, so compare the process with main()
    argv = "verify --all --nmax 4 --format json"
    proc = run_process(argv)
    code = cli.main(argv.split())
    assert code == 0
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (code, capsys.readouterr().out, b"")


# Every subcommand and every refusal as a process: (argv, exit code, stderr).
# Exit 0 prints one JSON record of argv's subcommand and nothing on stderr;
# exit 2 prints nothing on stdout and exactly one "error: ..." line.
PROCESS_RUNS = [
    ("partitions --n 4 --format json", 0, ""),
    ("betti --space affine --n 3 --format json", 0, ""),
    ("betti --space punctual --n 3 --format json", 0, ""),
    ("incidence --n 4 --format json", 0, ""),
    ("incidence --n 4 --check jumps --format json", 0, ""),
    ("incidence --n 4 --check euler --format json", 0, ""),
    ("strata --n 4 --format json", 0, ""),
    ("nakajima --n 5 --format json", 0, ""),
    ("nakajima --n 5 --method recurrence --format json", 0, ""),
    ("nakajima --n 5 --method closed --format json", 0, ""),
    ("nakajima --n 3000 --method both --format json", 0, ""),
    ("lattice --blowup 2 --format json", 0, ""),
    ("lattice --blowup 4 --square-exceptional --format json", 0, ""),
    ("lattice --blowup 3000 --square-exceptional --format json", 0, ""),
    ("goettsche --betti 1,0,1,0,1 --torder 3 --compare-fixed-points --format json", 0, ""),
    ("goettsche --betti 1,0,22,0,1 --torder 4 --format json", 0, ""),
    ("goettsche --betti 1,0,22,0,1 --torder 30 --format json", 0, ""),
    ("goettsche --betti 1,0,3000,0,1 --torder 3 --format json", 0, ""),
    ("verify --all --nmax 12 --format json", 0, ""),
    ("partitions --n -1", 2, "error: --n must be at least 0, got -1\n"),
    ("betti --space affine --n -1", 2, "error: --n must be at least 0, got -1\n"),
    ("betti --space p2 --n -1", 2, "error: --n must be at least 0, got -1\n"),
    ("betti --space punctual --n 0", 2, "error: punctual locus undefined for n = 0\n"),
    ("betti --space affine --n 2 --rho zap", 2,
     "error: --rho wants two comma-separated integers, got 'zap'\n"),
    ("betti --space affine --n 2 --rho a,b", 2,
     "error: --rho wants two comma-separated integers, got 'a,b'\n"),
    ("betti --space affine --n 2 --rho 1,1", 2,
     "error: non-generic one-parameter subgroup: rho=(1, 1) pairs to zero with weight (-1, 1)\n"),
    ("betti --space p2 --n 3 --rho 0,0", 2,
     "error: non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with weight (3, 0)\n"),
    ("betti --space affine --n 0 --rho 0,0", 2,
     "error: non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with every weight\n"),
    ("betti --space p2 --n 0 --rho 0,0", 2,
     "error: non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with every weight\n"),
    ("betti --space punctual --n 3 --rho 1,5", 2,
     "error: --rho does not apply to the punctual locus\n"),
    ("incidence --n -1", 2, "error: --n must be at least 0, got -1\n"),
    ("strata --n 0", 2, "error: --n must be at least 1, got 0\n"),
    ("nakajima --n 0", 2, "error: --n must be at least 1, got 0\n"),
    ("lattice --blowup -1", 2, "error: --blowup must be at least 0, got -1\n"),
    ("lattice --blowup 0 --square-exceptional", 2,
     "error: --square-exceptional needs at least one blown-up point\n"),
    ("goettsche --betti 1,0,1,0,1 --torder -1", 2, "error: --torder must be at least 0, got -1\n"),
    ("goettsche --betti 1,0,1 --torder 2", 2,
     "error: --betti wants five comma-separated integers, got '1,0,1'\n"),
    ("goettsche --betti 1,0,-1,0,1 --torder 2", 2,
     "error: Betti numbers must be non-negative, got (1, 0, -1, 0, 1)\n"),
    ("goettsche --betti 1,1,1,0,1 --torder 2", 2,
     "error: Betti numbers must be symmetric, got (1, 1, 1, 0, 1)\n"),
    ("goettsche --betti 1,0,1,0,2 --torder 2", 2,
     "error: a connected surface needs b0 = b4 = 1, got (1, 0, 1, 0, 2)\n"),
    ("goettsche --betti 1,1,1,1,1 --torder 2", 2, "error: odd cohomology unsupported\n"),
    ("goettsche --betti 1,0,22,0,1 --torder 2 --compare-fixed-points", 2,
     "error: --compare-fixed-points needs the projective-plane Betti numbers 1,0,1,0,1\n"),
    ("verify --nmax 4", 2, "error: pass --all to run the invariant suite\n"),
    ("verify --all --nmax 0", 2, "error: --nmax must be at least 1, got 0\n"),
]


@pytest.mark.parametrize("argv, code, stderr", PROCESS_RUNS, ids=[row[0] for row in PROCESS_RUNS])
def test_process_run(argv, code, stderr):
    proc = run_process(argv)
    assert (proc.returncode, proc.stderr.decode()) == (code, stderr)
    if code:
        assert proc.stdout == b""
    else:
        assert json.loads(proc.stdout)["command"] == argv.split()[0]
