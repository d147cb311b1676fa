"""Acceptance criteria: criterion 1 runs the CLI, criteria 2-11 are rows
of the `hilb verify` registry, each asserting its check's outcome, exact
scope and wall-clock budget. Every test prints one ACCEPTANCE line
(visible under pytest -s); the budgets are the only tolerances.
"""

import json
import time

import pytest

from hilb import cli, commutator_check, p2_surface, vacuum
from hilb.verify import run_checks


def report(k, label, elapsed):
    print(f"ACCEPTANCE {k}: {label}: PASS ({elapsed:.2f} s)")


def test_acceptance_01_nakajima_constants_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["nakajima", "--n", "200", "--method", "both", "--format", "json"])
    elapsed = time.perf_counter() - start
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    payload = record["payload"]
    assert payload["all_equal"] is True
    assert len(payload["rows"]) == 200
    for n, rec, closed, equal in payload["rows"]:
        want = n if n % 2 else -n
        assert rec == closed == want
        assert equal is True
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "recurrence = closed form = (-1)^(n-1) n for n <= 200 via CLI", elapsed)


# (k, check, nmax, scope, budget in seconds or None, label); {detail} in a
# label is filled from the check's report.
ROWS = [
    (2, "exceptional-square", 50, "n<=50", 1.0,
     "total exceptional square is -n for n <= 50 over 3 base lattices"),
    (3, "generator-socle", 25, "n<=25", 5.0,
     "generators = socle + 1 ({detail}, n <= 25)"),
    (4, "jump-bound", 20, "n<=20", 5.0,
     "generator count jumps by at most 1 ({detail}, n <= 20)"),
    (5, "strata-bounds", 40, "n<=40", 1.0,
     "strata bounds <= 2n+4-2i and codim hypotheses hold for n <= 40"),
    (6, "punctual-cells", 25, "n<=25", 5.0,
     "punctual locus: top cell n-1, cell count p(n), for n <= 25"),
    (7, "goettsche-vs-fixed-points", 6, "n<=6", 60.0,
     "fixed-point Betti numbers equal the product-series slices, n <= 6"),
    (8, "chamber-independence", 12, "affine n<=12, p2 n<=8", None,
     "Betti polynomials identical across 3 generic subgroups, affine n <= 12, P2 n <= 8"),
    (9, "euler-incidence", 20, "n<=20", 5.0,
     "|nested pairs| = sum of generators = sum of socles for n <= 20"),
    (10, "commutators", 6, "m,k<=5", None,
     "commutator scalar is delta * (-1)^(m-1) m <a,b> ({detail})"),
    (11, "fock-character", 8, "t<=8", None,
     "Fock character equals the product series to t-order 8 (P2 and K3 models)"),
]


def _pin_commutator_scalars():
    # the scalar itself, for m, k <= 5 over all plane labels; the vacuum suffices
    surface = p2_surface()
    labels = surface.labels()
    for m in range(1, 6):
        for k in range(1, 6):
            for alpha in labels:
                for beta in labels:
                    rep = commutator_check(surface, m, k, alpha, beta, [vacuum(surface)])
                    want = (m if m % 2 else -m) * surface.pair(alpha, beta) if m == k else 0
                    assert rep.passed and rep.scalar == want


@pytest.mark.parametrize(
    "k, check, nmax, scope, budget, label", ROWS, ids=[row[1] for row in ROWS]
)
def test_acceptance(k, check, nmax, scope, budget, label, capsys):
    start = time.perf_counter()
    [result] = run_checks(nmax, [check])
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert result.scope == scope
    assert budget is None or elapsed < budget
    if check == "generator-socle":
        assert int(result.detail.split()[0]) > 2000  # "9295 partitions checked"
    if check == "commutators":
        _pin_commutator_scalars()
    with capsys.disabled():
        report(k, label.format(detail=result.detail), elapsed)
