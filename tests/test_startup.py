"""Start-up: the lazy package root, records without dataclasses, and the
command line as processes.

`importtime_process` starts every non-streaming Python process of the
tests: `python -W error -X importtime <args>`, read back as its exit code,
stdout, the rest of its stderr and the modules its import log names.
Every module pin reads that import log. `PROCESS_RUNS` is the one table
of CLI processes: each row is an argv, its exit code, its exact stderr
and the hilb modules it loads. Each row runs once as `-m hilb.cli <argv>`;
it must load no `dataclasses`, and `cli.main` in process must print the
same stdout and stderr and return the same exit code.
`test_cli_output_matches_bench_goldens` pins the in-process stdout of the
benchmark's calls byte for byte."""

import functools
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
        # a layer that hilb.__getattr__ loads on first access shows in the log too
        pytest.param(
            "series; hilb.enumerate_partitions",
            {"hilb", "hilb.errors", "hilb.common", "hilb.series", "hilb.partitions"},
            id="series-enumerate_partitions",
        ),
    ],
)
def test_leaf_reexport_loads_only_its_module(name, loaded):
    code, out, rest, log = importtime_process("-c", f"import hilb; hilb.{name}")
    assert (code, out, rest) == (0, "", "")
    assert hilb_modules(log) == loaded


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


# The hilb modules a process loads. Under -m the CLI module runs as
# __main__, so BASE is the package and errors: a logged hilb.cli would be
# a second copy of the CLI. The CLI checks its own arguments before a
# handler imports a layer, so a refused argument loads BASE alone.
BASE = {"hilb", "hilb.errors"}
PARTITIONS = BASE | {"hilb.partitions"}
CELLS = BASE | {"hilb.common", "hilb.partitions", "hilb.equivariant"}
STRATA = BASE | {"hilb.common", "hilb.strata"}
# incidence re-exports the strata tables, so it loads their module too
INCIDENCE = STRATA | {"hilb.partitions", "hilb.monomial", "hilb.incidence"}
LATTICE = BASE | {"hilb.common", "hilb.lattice"}
SERIES = BASE | {"hilb.common", "hilb.series"}
EVERY = {"hilb", *(f"hilb.{layer}" for layer in LAYERS if layer != "cli")}

# Every subcommand and every refusal as a process: (argv, exit code,
# stderr, hilb modules loaded). test_process_run pins the first three and
# test_subcommand_loads_only_its_layers the modules. Exit 0 prints nothing on stderr, and in
# json one record of argv's subcommand; the table and csv rows are the
# benchmark's cli-oneshot calls. Exit 2 prints nothing on stdout and
# exactly one "error: ..." line. No golden holds verify's stdout, so its
# row's comparison with cli.main is what pins it.
PROCESS_RUNS = [
    ("partitions --n 4 --format json", 0, "", PARTITIONS),
    ("partitions --n 5 --format table", 0, "", PARTITIONS),
    ("betti --space affine --n 3 --format json", 0, "", CELLS),
    ("betti --space p2 --n 3 --format json", 0, "", CELLS),
    ("betti --space punctual --n 3 --format json", 0, "", CELLS),
    ("incidence --n 4 --format json", 0, "", INCIDENCE),
    ("incidence --n 4 --check jumps --format json", 0, "", INCIDENCE),
    ("incidence --n 4 --check euler --format json", 0, "", INCIDENCE),
    ("incidence --n 12 --check all --format csv", 0, "", INCIDENCE),
    ("strata --n 4 --format json", 0, "", STRATA),
    ("strata --n 8 --format table", 0, "", STRATA),
    ("nakajima --n 5 --format json", 0, "", LATTICE),
    ("nakajima --n 5 --method recurrence --format json", 0, "", LATTICE),
    ("nakajima --n 5 --method closed --format json", 0, "", LATTICE),
    ("nakajima --n 60 --method both --format json", 0, "", LATTICE),
    ("nakajima --n 3000 --method both --format json", 0, "", LATTICE),
    ("lattice --blowup 2 --format json", 0, "", LATTICE),
    ("lattice --blowup 3 --format csv", 0, "", LATTICE),
    ("lattice --blowup 4 --square-exceptional --format json", 0, "", LATTICE),
    ("lattice --blowup 3000 --square-exceptional --format json", 0, "", LATTICE),
    ("goettsche --betti 1,0,1,0,1 --torder 3 --compare-fixed-points --format json", 0, "",
     SERIES | CELLS),
    ("goettsche --betti 1,0,1,0,1 --torder 6 --compare-fixed-points --format table", 0, "",
     SERIES | CELLS),
    ("goettsche --betti 1,0,22,0,1 --torder 4 --format json", 0, "", SERIES),
    ("goettsche --betti 1,0,22,0,1 --torder 30 --format json", 0, "", SERIES),
    ("goettsche --betti 1,0,3000,0,1 --torder 3 --format json", 0, "", SERIES),
    ("verify --all --nmax 12 --format json", 0, "", EVERY),
    ("partitions --n -1", 2, "error: --n must be at least 0, got -1\n", BASE),
    ("betti --space affine --n -1", 2, "error: --n must be at least 0, got -1\n", BASE),
    ("betti --space p2 --n -1", 2, "error: --n must be at least 0, got -1\n", BASE),
    ("betti --space punctual --n 0", 2, "error: punctual locus undefined for n = 0\n", CELLS),
    ("betti --space affine --n 2 --rho zap", 2,
     "error: --rho wants two comma-separated integers, got 'zap'\n", BASE),
    ("betti --space affine --n 2 --rho a,b", 2,
     "error: --rho wants two comma-separated integers, got 'a,b'\n", BASE),
    ("betti --space affine --n 2 --rho 1,1", 2,
     "error: non-generic one-parameter subgroup: rho=(1, 1) pairs to zero with weight (-1, 1)\n",
     CELLS),
    ("betti --space affine --n 1 --rho 1,-2", 2,
     "error: rho=(1, -2) does not contract the affine plane: both entries must be positive\n",
     CELLS),
    ("betti --space p2 --n 3 --rho 0,0", 2,
     "error: non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with weight (3, 0)\n",
     CELLS),
    ("betti --space affine --n 0 --rho 0,0", 2,
     "error: non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with every weight\n",
     CELLS),
    ("betti --space p2 --n 0 --rho 0,0", 2,
     "error: non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with every weight\n",
     CELLS),
    ("betti --space punctual --n 3 --rho 1,5", 2,
     "error: --rho does not apply to the punctual locus\n", BASE),
    ("incidence --n -1", 2, "error: --n must be at least 0, got -1\n", BASE),
    ("strata --n 0", 2, "error: --n must be at least 1, got 0\n", BASE),
    ("nakajima --n 0", 2, "error: --n must be at least 1, got 0\n", BASE),
    ("lattice --blowup -1", 2, "error: --blowup must be at least 0, got -1\n", BASE),
    ("lattice --blowup 0 --square-exceptional", 2,
     "error: --square-exceptional needs at least one blown-up point\n", BASE),
    ("goettsche --betti 1,0,1,0,1 --torder -1", 2,
     "error: --torder must be at least 0, got -1\n", BASE),
    ("goettsche --betti 1,0,1 --torder 2", 2,
     "error: --betti wants five comma-separated integers, got '1,0,1'\n", BASE),
    ("goettsche --betti 1,0,-1,0,1 --torder 2", 2,
     "error: Betti numbers must be non-negative, got (1, 0, -1, 0, 1)\n", SERIES),
    ("goettsche --betti 1,1,1,0,1 --torder 2", 2,
     "error: Betti numbers must be symmetric, got (1, 1, 1, 0, 1)\n", SERIES),
    ("goettsche --betti 1,0,1,0,2 --torder 2", 2,
     "error: a connected surface needs b0 = b4 = 1, got (1, 0, 1, 0, 2)\n", SERIES),
    ("goettsche --betti 1,1,1,1,1 --torder 2", 2, "error: odd cohomology unsupported\n", SERIES),
    ("goettsche --betti 1,0,99999999999999999999,0,1 --torder 1", 2,
     "error: b2 must be at most 100000, got 99999999999999999999\n", SERIES),
    ("goettsche --betti 1,0,22,0,1 --torder 2 --compare-fixed-points", 2,
     "error: --compare-fixed-points needs the projective-plane Betti numbers 1,0,1,0,1\n",
     SERIES),
    ("verify --nmax 4", 2, "error: pass --all to run the invariant suite\n", BASE),
    ("verify --all --nmax 0", 2, "error: --nmax must be at least 1, got 0\n", BASE),
]


def importtime_process(*args: str) -> tuple:
    """`python -W error -X importtime <args>`: its exit code, stdout, the
    rest of its stderr and the modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "importtime", *args],
        env=child_env(), capture_output=True, timeout=120,
    )
    # each "import time:" line ends in "| <module>", indented by its depth;
    # the log has what import statements and __import__ load, not
    # importlib.import_module
    log, rest = [], []
    for line in proc.stderr.decode().splitlines(keepends=True):
        (log if line.startswith("import time:") else rest).append(line)
    loaded = frozenset(line.rsplit("|", 1)[1].strip() for line in log)
    return proc.returncode, proc.stdout.decode(), "".join(rest), loaded


@functools.cache
def cli_process(argv: str) -> tuple:
    """`python -W error -X importtime -m hilb.cli <argv>`, run once per argv."""
    return importtime_process("-m", "hilb.cli", *argv.split())


def hilb_modules(loaded) -> set:
    return {m for m in loaded if m == "hilb" or m.startswith("hilb.")}


# one test id per row, its argv
each_process_run = pytest.mark.parametrize(
    "argv, code, stderr, layers", PROCESS_RUNS, ids=[row[0] for row in PROCESS_RUNS]
)


@each_process_run
def test_process_run(argv, code, stderr, layers, capsys):
    got, out, rest, _ = cli_process(argv)
    assert (got, rest) == (code, stderr)
    if code:
        assert out == ""
    elif "--format json" in argv:
        assert json.loads(out)["command"] == argv.split()[0]
    assert cli.main(argv.split()) == code
    assert capsys.readouterr() == (out, stderr)


@each_process_run
def test_subcommand_loads_only_its_layers(argv, code, stderr, layers):
    loaded = cli_process(argv)[3]
    assert "dataclasses" not in loaded
    assert hilb_modules(loaded) == layers
