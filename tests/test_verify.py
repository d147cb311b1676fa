"""The check registry behind `hilb verify`: caps, order, errors and failure paths."""

import json
from pathlib import Path

import pytest

from hilb import (
    CommutatorReport,
    HilbertBurchMatrix,
    Partition,
    PoincarePoly,
    StaircaseIdeal,
    StrataBoundTable,
    cli,
    hilbert_burch,
    incidence,
    pentagonal_partition_count,
    poincare_affine,
    staircase,
    verify,
)
from hilb.verify import ALL_CHECKS, run_checks
from test_acceptance import ROWS

# (check, nmax, scope): every check that no acceptance row runs, at an nmax
# where each of its sizes has reached its cap.
CAP_ROWS = [
    ("partition-counts", 30, "n<=30"),
    ("conjugate-involution", 20, "n<=20"),
    ("cover-duality", 20, "n<=20"),
    ("hilbert-burch", 15, "n<=15"),
    ("tangent-weights", 10, "n<=10"),
    ("affine-closed-form", 12, "n<=12"),
]


def doubled_corner(lam):
    """hilbert_burch(lam) with the coefficient of its (0, 0) entry doubled:
    every minor keeps its monomial, and the minors through that entry get
    the coefficient +-2."""
    m = hilbert_burch(lam)
    (corner, *row), *rows = m.entries
    return m._replace(entries=((corner._replace(coeff=2 * corner.coeff), *row), *rows))


def socles_lost(n):
    """The real euler_incidence with every socle count 0: its three-way count raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "socle_count", lambda mu: 0)
        return incidence.euler_incidence(n)


# A wrong stand-in for one library function, seen from hilb.verify, and the
# counterexample the check must then report. A row is named by its check,
# or by the id of its pytest.param.
BROKEN = [
    ("exceptional-square", "exceptional_total_square", lambda n, base: 0,
     "base rank 0, n=1: 0"),
    ("generator-socle", "generator_count", lambda lam: 0,
     "(1): generators 0, socle 1, distinct 1, conjugate 0"),
    ("fock-character", "fock_character", lambda surface, top: None,
     "betti (1, 0, 1, 0, 1)"),
    ("commutators", "commutator_checks",
     lambda surface, quads, probes: [
         CommutatorReport(m, k, alpha, beta, 0, 1, (0,)) for m, k, alpha, beta in quads
     ],
     "[a_1(1), a_-1(1)]"),
    ("nakajima", "nakajima_closed_form", lambda n: 0, "mismatch at n=1"),
    ("strata-bounds", "strata_propagate", lambda t: t, "step from n=1 misses the closed form"),
    ("partition-counts", "pentagonal_partition_count", lambda n: n + 7, "p(0): 1 != 7"),
    # one cell of dimension rho.a: the polynomial moves with the chamber
    ("chamber-independence", "_cell_tables_at", lambda hooks, rho: (rho, [{0: {rho.a: 1}}]),
     "affine n=0 rho=(2, 1)"),
    ("hilbert-burch", "staircase", lambda lam: StaircaseIdeal(lam, staircase(lam).generators[1:]),
     "failed at (1)"),
    # only the row-by-row sign test sees it
    pytest.param("hilbert-burch", "hilbert_burch", doubled_corner, "failed at (1)",
                 id="hilbert-burch-sign"),
    ("punctual-cells", "poincare_punctual", lambda n: poincare_affine(n - 1), "count at n=2"),
    # right count and top cell, wrong cells in between
    ("punctual-cells", "poincare_punctual",
     lambda n: PoincarePoly({0: pentagonal_partition_count(n) - 1, 2 * n - 2: 1}),
     "cells at n=3: 2 + q^4 != 1 + q^2 + q^4"),
    ("jump-bound", "generator_count", lambda lam: 2 * sum(lam), "(1) -> (2)"),
    ("tangent-weights", "tangent_weights", lambda lam, u, v: [], "count at (1)"),
    # the right number of weights, but they move with the chart
    pytest.param("tangent-weights", "tangent_weights", lambda lam, u, v: [u] * (2 * sum(lam)),
                 "conjugate multiset at (1)", id="tangent-weights-swap"),
    ("affine-closed-form", "poincare_affine", lambda n: poincare_affine(n + 1), "slice n=1"),
    # the library's own cross-check fires, and its message is the detail
    ("euler-incidence", "euler_incidence", socles_lost,
     "incidence count mismatch at n=0: pairs 1, generator sum 1, socle sum 0"),
    # a count the three routes never see: one extra pair at every n
    pytest.param("euler-incidence", "euler_incidence", lambda n: incidence.euler_incidence(n) + 1,
                 "n=0: 2 pairs, p(0) + ... + p(0) = 1", id="euler-incidence-sum"),
    ("goettsche-vs-fixed-points", "poincare_p2", poincare_affine, "slice 1"),
    pytest.param("goettsche-vs-fixed-points", "fixed_points_p2", lambda n: [], "Euler 0",
                 id="goettsche-vs-fixed-points-euler"),
]


def test_registry_names_are_unique_and_ordered():
    assert [name for name, _ in ALL_CHECKS] == [
        "partition-counts",
        "conjugate-involution",
        "cover-duality",
        "generator-socle",
        "hilbert-burch",
        "jump-bound",
        "tangent-weights",
        "affine-closed-form",
        "chamber-independence",
        "punctual-cells",
        "euler-incidence",
        "strata-bounds",
        "exceptional-square",
        "nakajima",
        "goettsche-vs-fixed-points",
        "fock-character",
        "commutators",
    ]


@pytest.mark.parametrize("check, nmax, scope", CAP_ROWS, ids=[row[0] for row in CAP_ROWS])
def test_check_passes_at_its_cap(check, nmax, scope):
    [result] = run_checks(nmax, [check])
    assert result.passed, result.detail
    assert result.scope == scope


def test_checks_match_the_bench_goldens():
    # the benchmark's record of every verify-suite task: name, scope, outcome, detail
    goldens = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
    entries = json.loads(goldens.read_text())["verify-suite"]
    assert len(entries) == 31
    for key, want in entries.items():
        nmax, name = key.split()
        [result] = run_checks(int(nmax), [name])
        assert result.name == name, key
        assert [result.scope, result.passed, result.detail] == want, key


def test_every_check_runs_at_its_cap():
    # nakajima sweeps n <= 200 at every nmax, so test_cli::test_verify_small
    # already runs it at its cap
    capped = {row[1] for row in ROWS} | {row[0] for row in CAP_ROWS}
    assert [name for name, _ in ALL_CHECKS if name not in capped] == ["nakajima"]


def test_run_checks_rejects_bad_arguments(size_gate):
    with pytest.raises(ValueError, match="unknown checks: no-such, other"):
        run_checks(4, ["partition-counts", "no-such", "other"])
    # a bare string used to be read letter by letter: "unknown checks: n, a, k, ..."
    with pytest.raises(
        ValueError, match="^names must be a list of check names, got the string 'nakajima'$"
    ):
        run_checks(4, "nakajima")
    # a name that is no string is unknown too, and the message still words it
    with pytest.raises(ValueError, match=r"^unknown checks: 5$"):
        run_checks(4, [5])
    with pytest.raises(ValueError, match=r"^unknown checks: \['x'\]$"):
        run_checks(4, [["x"]])
    with pytest.raises(ValueError, match="nmax must be at least 1, got 0"):
        run_checks(0)
    with pytest.raises(ValueError, match="nmax must be at least 1, got -3"):
        run_checks(-3, ["nakajima"])
    size_gate(lambda nmax: run_checks(nmax, ["partition-counts"]), "nmax", 1)


@pytest.mark.parametrize(
    "check, attr, fake, detail", BROKEN,
    ids=[getattr(row, "id", None) or row[0] for row in BROKEN],
)
def test_broken_library_fails_its_check(monkeypatch, check, attr, fake, detail):
    [good] = run_checks(4, [check])
    assert good.passed
    monkeypatch.setattr(verify, attr, fake)
    [bad] = run_checks(4, [check])
    assert (bad.name, bad.scope, bad.passed, bad.detail) == (check, good.scope, False, detail)


def test_a_library_consistency_error_fails_only_its_row(monkeypatch, capsys):
    monkeypatch.setattr(verify, "euler_incidence", socles_lost)
    results = run_checks(4)
    assert [r.name for r in results] == [name for name, _ in ALL_CHECKS]
    assert [r.name for r in results if not r.passed] == ["euler-incidence"]
    # the CLI prints the whole table, not one stderr line
    code = cli.main(["verify", "--all", "--nmax", "4", "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert len(out.splitlines()) == 1 + len(ALL_CHECKS)
    assert out.count(",fail,") == 1


def test_a_library_value_error_fails_only_its_row(monkeypatch, capsys):
    # run_checks has validated nmax and the names, so a ValueError raised
    # inside a check is a library fault: a failing row, not exit 2
    monkeypatch.setattr(verify, "strata_table", lambda n: StrataBoundTable(n, {1: 2 * n + 3}))
    code = cli.main(["verify", "--all", "--nmax", "4", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    rows = json.loads(out)["payload"]["rows"]
    assert [row[0] for row in rows] == [name for name, _ in ALL_CHECKS]
    assert [row for row in rows if row[2] != "pass"] == [[
        "strata-bounds", "n<=40", "fail",
        "malformed table: principal stratum must carry bound 4 at size 1",
    ]]


def test_a_short_codim_fails_strata_bounds(monkeypatch):
    # base, step and closed form agree on a table whose stratum 2 has codim
    # 1 < 2, so only the codim comparison sees it
    def short(n):
        return StrataBoundTable(n, {1: 2 * n + 2, 2: 2 * n + 1})

    monkeypatch.setattr(verify, "strata_table", short)
    monkeypatch.setattr(verify, "strata_base", lambda: short(1))
    monkeypatch.setattr(verify, "strata_propagate", lambda t: short(t.n + 1))
    [bad] = run_checks(4, ["strata-bounds"])
    assert (bad.scope, bad.passed, bad.detail) == ("n<=40", False, "codim fails at n=1")


def test_euler_incidence_compares_every_count_up_to_its_cap(monkeypatch):
    # one extra pair above n = 10 only, past the nmax of the BROKEN rows
    real = incidence.euler_incidence
    monkeypatch.setattr(verify, "euler_incidence", lambda n: real(n) + (n > 10))
    [good] = run_checks(10, ["euler-incidence"])
    assert good.passed
    [bad] = run_checks(20, ["euler-incidence"])
    assert (bad.scope, bad.passed, bad.detail) == (
        "n<=20", False, "n=11: 196 pairs, p(0) + ... + p(11) = 195"
    )


def test_short_minor_list_fails_hilbert_burch(monkeypatch):
    # every minor left still matches its row; only the count sees the loss
    real = HilbertBurchMatrix.maximal_minors
    monkeypatch.setattr(HilbertBurchMatrix, "maximal_minors", lambda m: real(m)[:-1])
    [bad] = run_checks(4, ["hilbert-burch"])
    assert (bad.scope, bad.passed, bad.detail) == ("n<=4", False, "failed at (1)")


def test_broken_conjugate_fails_conjugate_involution(monkeypatch):
    # a conjugate that adds a box: twice applied, it adds two
    monkeypatch.setattr(Partition, "conjugate", lambda lam: Partition([*lam, 1]))
    [bad] = run_checks(4, ["conjugate-involution"])
    assert (bad.scope, bad.passed, bad.detail) == ("n<=4", False, "failed at ()")


def test_conjugate_involution_compares_with_the_transpose(monkeypatch):
    # a conjugate that returns lambda above size 8 is still an involution
    real = Partition.conjugate
    monkeypatch.setattr(Partition, "conjugate", lambda lam: lam if sum(lam) > 8 else real(lam))
    [bad] = run_checks(12, ["conjugate-involution"])
    assert (bad.scope, bad.passed, bad.detail) == ("n<=12", False, "failed at (9)")


def test_broken_cocovers_fail_cover_duality(monkeypatch):
    # the check reads every cocover list through Partition.cocovers
    real = Partition.cocovers
    monkeypatch.setattr(Partition, "cocovers", lambda lam: real(lam)[:-1])
    [bad] = run_checks(4, ["cover-duality"])
    assert (bad.scope, bad.passed, bad.detail) == ("n<=4", False, "() missing under (1)")


def test_broken_covers_fail_cover_duality(monkeypatch):
    # the new-row cover is lost and the first cover repeated in its place, so
    # every cover count still holds and only the adjunction sees it
    real = Partition.covers
    monkeypatch.setattr(Partition, "covers", lambda lam: real(lam)[:-1] + real(lam)[:1])
    [bad] = run_checks(4, ["cover-duality"])
    assert (bad.scope, bad.passed, bad.detail) == ("n<=4", False, "(1,1) missing over (1)")


@pytest.mark.parametrize(
    "nmax, n_quads, n_probes", [(3, 129, 5_667), (4, 192, 20_256), (6, 273, 101_247)]
)
def test_commutators_probe_counts(monkeypatch, nmax, n_quads, n_probes):
    # sharing images across quadruples must not drop a single comparison
    real, reports = verify.commutator_checks, []

    def counted(surface, quads, probes):
        got = real(surface, quads, probes)
        reports.extend(got)
        return got

    monkeypatch.setattr(verify, "commutator_checks", counted)
    [result] = run_checks(nmax, ["commutators"])
    assert result.passed
    assert len(reports) == n_quads
    assert sum(rep.probes_checked for rep in reports) == n_probes


def test_cli_verify_exits_1_and_names_the_failure(monkeypatch, capsys):
    monkeypatch.setattr(verify, "exceptional_total_square", lambda n, base: 0)
    code = cli.main(["verify", "--all", "--nmax", "4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert code == 1
    assert payload["passed"] is False
    assert payload["failures"] == ["exceptional-square"]
    statuses = {row[0]: row[2] for row in payload["rows"]}
    assert statuses.pop("exceptional-square") == "fail"
    assert set(statuses.values()) == {"pass"}
