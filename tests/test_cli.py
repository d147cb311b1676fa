"""Command-line front end: formats, determinism, exit codes, frozen outputs."""

import doctest
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hilb import (
    IntersectionLattice,
    StrataBoundTable,
    __version__,
    cli,
    equivariant,
    incidence,
    lattice,
    monomial,
    poincare_affine,
    strata,
    verify,
)
from test_startup import child_env


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert err == ""
    return code, json.loads(out)


def test_nakajima_both_frozen(capsys):
    code, record = run_json(capsys, ["nakajima", "--n", "5", "--method", "both"])
    assert code == 0
    assert record["command"] == "nakajima"
    assert record["version"] == __version__
    payload = record["payload"]
    assert payload["columns"] == ["n", "recurrence", "closed", "equal"]
    assert len(payload["rows"]) == 5
    assert payload["rows"][-1] == [5, 5, 5, True]
    assert payload["all_equal"] is True


def test_nakajima_table_renders_booleans(capsys):
    code, out, err = run(capsys, ["nakajima", "--n", "5", "--method", "both"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"hilb nakajima (version {__version__})"
    assert lines[-1].split() == ["5", "5", "5", "true"]


def test_lattice_square_frozen(capsys):
    code, record = run_json(
        capsys, ["lattice", "--blowup", "4", "--square-exceptional"]
    )
    assert code == 0
    assert record["payload"]["exceptional_square"] == -4


def test_lattice_gram_table(capsys):
    code, record = run_json(capsys, ["lattice", "--blowup", "2"])
    assert code == 0
    payload = record["payload"]
    assert payload["rank"] == 3
    assert payload["columns"] == ["class", "H", "E1", "E2"]
    assert payload["rows"] == [
        ["H", 1, 0, 0],
        ["E1", 0, -1, 0],
        ["E2", 0, 0, -1],
    ]


def test_lattice_builds_the_dense_gram_once(capsys, monkeypatch):
    # gram rebuilds the whole matrix on each access; once per row is cubic
    dense, builds = IntersectionLattice.gram.fget, []

    def counted(lattice):
        builds.append(lattice.rank)
        return dense(lattice)

    monkeypatch.setattr(IntersectionLattice, "gram", property(counted))
    code, record = run_json(capsys, ["lattice", "--blowup", "5"])
    assert code == 0
    assert len(record["payload"]["rows"]) == 6
    assert builds == [6]


def test_betti_punctual_frozen(capsys):
    code, record = run_json(capsys, ["betti", "--space", "punctual", "--n", "3"])
    assert code == 0
    payload = record["payload"]
    assert payload["series"] == "1 + q^2 + q^4"
    assert payload["fixed_points"] == 3
    assert "rho" not in record["parameters"]


def test_betti_rho_echoed(capsys):
    code, record = run_json(capsys, ["betti", "--space", "affine", "--n", "3"])
    assert code == 0
    # default subgroup (1, 2n^2+1) echoed for auditability
    assert record["parameters"]["rho"] == [1, 19]
    code, record = run_json(
        capsys, ["betti", "--space", "affine", "--n", "3", "--rho", "3,1"]
    )
    assert code == 0
    assert record["parameters"]["rho"] == [3, 1]
    assert record["payload"]["series"] == "1 + q^2 + q^4"


def test_betti_p2_matches_library(capsys):
    code, record = run_json(capsys, ["betti", "--space", "p2", "--n", "2"])
    assert code == 0
    assert record["payload"]["series"] == "1 + 2q^2 + 3q^4 + 2q^6 + q^8"
    assert record["payload"]["rows"][0] == [0, 1]


def test_betti_computes_each_weight_list_once(capsys, monkeypatch):
    from hilb import equivariant, pentagonal_partition_count

    calls = []
    original = equivariant._arm_legs

    def counted(lam, width):
        calls.append(lam)
        return original(lam, width)

    def unused(*args):
        raise AssertionError("betti must not build tangent weight lists")

    monkeypatch.setattr(equivariant, "_arm_legs", counted)
    monkeypatch.setattr(equivariant, "tangent_weights", unused)
    code, record = run_json(capsys, ["betti", "--space", "p2", "--n", "4"])
    assert code == 0
    assert record["parameters"]["rho"] == [1, 33]
    # one (arm, leg) list per partition of every size 0..4, shared by the charts
    assert len(calls) == len(set(calls)) == sum(
        pentagonal_partition_count(s) for s in range(5)
    )
    calls.clear()
    code, record = run_json(capsys, ["betti", "--space", "affine", "--n", "6"])
    assert code == 0
    assert len(calls) == len(set(calls)) == pentagonal_partition_count(6)


def test_incidence_all(capsys):
    code, record = run_json(capsys, ["incidence", "--n", "6", "--check", "all"])
    assert code == 0
    payload = record["payload"]
    assert payload["passed"] is True
    assert len(payload["rows"]) == 7
    assert all(row[-1] is True for row in payload["rows"])
    euler_row = payload["rows"][3]
    assert euler_row[0] == 3 and euler_row[1] == 7


def test_incidence_specific_checks(capsys):
    expected = {
        "jumps": ["n", "pairs", "max_jump", "ok"],
        "euler": ["n", "pairs", "generator_sum", "socle_sum", "ok"],
        "all": ["n", "pairs", "max_jump", "generator_sum", "socle_sum", "ok"],
    }
    assert cli._INCIDENCE_COLUMNS == expected
    for check in cli._INCIDENCE_COLUMNS:
        code, record = run_json(capsys, ["incidence", "--n", "4", "--check", check])
        assert code == 0
        assert record["payload"]["columns"] == expected[check]


def test_incidence_check_choices_are_the_column_modes(capsys):
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if a.dest == "command"]
    [check] = [a for a in sub.choices["incidence"]._actions if a.dest == "check"]
    assert list(check.choices) == list(cli._INCIDENCE_COLUMNS)
    # a mode outside the table is argparse's usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["incidence", "--n", "4", "--check", "fibers"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'fibers'" in captured.err


def test_incidence_builds_pairs_once_and_checks_the_sums(capsys, monkeypatch):
    from hilb import incidence

    calls = []
    original = incidence.nested_pairs

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(incidence, "nested_pairs", counted)
    for check in cli._INCIDENCE_COLUMNS:
        calls.clear()
        code, record = run_json(capsys, ["incidence", "--n", "5", "--check", check])
        assert code == 0 and record["payload"]["passed"] is True
        assert calls == ([] if check == "euler" else list(range(6)))

    def no_pairs(lower, upper):
        raise AssertionError(f"built a NestedPair {lower} -> {upper}")

    # euler shows the counted pairs of euler_incidence and builds none
    with monkeypatch.context() as mp:
        mp.setattr(incidence, "NestedPair", no_pairs)
        code, record = run_json(capsys, ["incidence", "--n", "5", "--check", "euler"])
        assert code == 0 and record["payload"]["passed"] is True
    monkeypatch.setattr(incidence, "socle_count", lambda mu: 0)
    for check in [c for c in cli._INCIDENCE_COLUMNS if c != "jumps"]:
        code, out, err = run(capsys, ["incidence", "--n", "3", "--check", check])
        assert (code, out) == (1, "")
        assert err == (
            "error: incidence count mismatch at n=0: pairs 1, generator sum 1, socle sum 0\n"
        )


def test_strata_frozen(capsys):
    code, record = run_json(capsys, ["strata", "--n", "2"])
    assert code == 0
    payload = record["payload"]
    assert payload["ambient_dim"] == 6
    assert payload["passed"] is True
    assert payload["rows"][0] == [1, 6, 6, 0, "-", "pinned"]
    assert payload["rows"][1] == [2, 4, 4, 2, 0, "ok"]
    assert payload["rows"][2] == [3, 2, 2, 4, 0, "ok"]
    assert payload["rows"][3] == [4, None, 0, None, "-", "vacuous"]


def test_strata_table_renders_empty(capsys):
    code, out, err = run(capsys, ["strata", "--n", "2"])
    assert code == 0
    assert "vacuous" in out
    assert "empty" in out  # the absent bound prints as "empty", never 0


@pytest.mark.parametrize(
    "table, margins, statuses",
    [
        # stratum 3 is two dimensions too big
        (StrataBoundTable(2, {1: 6, 2: 4, 3: 4}), [0, -2], ["ok", "FAIL", "vacuous"]),
        # stratum 2 has codim 1 < 2
        (StrataBoundTable(2, {1: 6, 2: 5, 3: 2}), [-1, 0], ["FAIL", "ok", "vacuous"]),
        # only stratum 3 fails, codim 3 < 4; strata 2 and 4 sit at margin 0
        (StrataBoundTable(3, {1: 8, 2: 6, 3: 5, 4: 2}), [0, -1, 0],
         ["ok", "FAIL", "ok", "vacuous"]),
    ],
    ids=["margin-2-at-3", "margin-1-at-2", "margin-1-at-3"],
)
def test_strata_fails_exactly_the_short_codims(capsys, monkeypatch, table, margins, statuses):
    # a row fails exactly when its margin codim - (2i - 2) is negative
    monkeypatch.setattr(strata, "strata_table", lambda n: table)
    code, record = run_json(capsys, ["strata", "--n", str(table.n)])
    assert code == 1
    payload = record["payload"]
    assert payload["passed"] is False
    rows = payload["rows"][1:]
    assert [r[4] for r in rows] == [*margins, "-"]
    assert [r[5] for r in rows] == statuses


def test_goettsche_compare(capsys):
    code, record = run_json(
        capsys,
        [
            "goettsche",
            "--betti",
            "1,0,1,0,1",
            "--torder",
            "3",
            "--compare-fixed-points",
        ],
    )
    assert code == 0
    payload = record["payload"]
    assert payload["passed"] is True
    assert payload["columns"][-1] == "matches_fixed_points"
    assert payload["rows"][2][1] == "1 + 2u^2 + 3u^4 + 2u^6 + u^8"
    assert [row[2] for row in payload["rows"]] == [1, 3, 9, 22]


def test_partitions_command(capsys):
    code, record = run_json(capsys, ["partitions", "--n", "4"])
    assert code == 0
    payload = record["payload"]
    assert payload["count"] == 5
    assert payload["rows"][0] == [0, "(4)"]
    assert payload["rows"][-1] == [4, "(1,1,1,1)"]


def test_verify_small(capsys):
    code, record = run_json(capsys, ["verify", "--all", "--nmax", "4"])
    assert code == 0
    payload = record["payload"]
    assert payload["passed"] is True
    assert payload["failures"] == []
    statuses = {row[0]: row[2] for row in payload["rows"]}
    assert set(statuses.values()) == {"pass"}
    assert list(statuses) == [name for name, _ in verify.ALL_CHECKS]


@pytest.mark.parametrize(
    "module, name, fake, argv, verdict",
    [
        (monomial, "generator_count", lambda lam: 2 * sum(lam),
         "incidence --n 3 --check jumps", "passed"),
        (strata, "strata_table", lambda n: StrataBoundTable(2, {1: 6, 2: 4, 3: 4}),
         "strata --n 2", "passed"),
        (lattice, "nakajima_closed_form", lambda n: 0,
         "nakajima --n 4 --method both", "all_equal"),
        (equivariant, "poincare_p2", poincare_affine,
         "goettsche --betti 1,0,1,0,1 --torder 3 --compare-fixed-points", "passed"),
    ],
    ids=["incidence", "strata", "nakajima", "goettsche"],
)
def test_false_verdict_exits_1(capsys, monkeypatch, module, name, fake, argv, verdict):
    # a broken library function turns the printed verdict false, and that
    # verdict alone makes the exit code 1; nothing raises, stderr stays empty
    monkeypatch.setattr(module, name, fake)
    code, record = run_json(capsys, argv.split())
    assert code == 1
    assert record["payload"][verdict] is False
    # csv spells each false cell "false"
    falses = sum(v is False for row in record["payload"]["rows"] for v in row)
    code, out, err = run(capsys, argv.split() + ["--format", "csv"])
    assert (code, err, out.count("false")) == (1, "", falses)


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nakajima", "--n", "5", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def parse_exit(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def spy_on_parser(monkeypatch) -> list:
    """The subcommand names that main asks build_parser for, in call order."""
    asked, real = [], cli.build_parser

    def spy(command=None):
        asked.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    return asked


SUBCOMMANDS = [
    "partitions", "betti", "incidence", "strata", "nakajima", "lattice", "goettsche", "verify",
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_lean_parser_reads_as_the_full_one(capsys, monkeypatch, command):
    # main builds the arguments of the invoked subcommand only; its help,
    # a missing required flag and a bad --format read as the full parser's
    full = cli.build_parser().parse_args
    asked = spy_on_parser(monkeypatch)
    cases = [[command, "--help"], [command, "--format", "xml"]]
    if command != "verify":  # the one subcommand without a required flag
        cases.append([command])
    for argv in cases:
        lean = parse_exit(cli.main, argv, capsys)
        assert lean == parse_exit(full, argv, capsys), argv
        assert lean[0] == (0 if "--help" in argv else 2), argv
    assert asked == [command] * len(cases)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"], ["--version"], [], ["nosuch"],
        # the first word is not the subcommand
        ["-x", "betti", "--space", "p2", "--n", "3"], ["nosuch", "betti"],
        ["--help", "betti"], ["--", "betti", "--n", "3"],
    ],
    ids=repr,
)
def test_top_level_parse_reads_as_the_full_one(capsys, monkeypatch, argv):
    # main never builds the full parser: only the first word that names a
    # subcommand gets its arguments, and with none, no subcommand does
    full = cli.build_parser().parse_args
    asked = spy_on_parser(monkeypatch)
    assert parse_exit(cli.main, argv, capsys) == parse_exit(full, argv, capsys)
    assert asked == [next((word for word in argv if word in SUBCOMMANDS), "")]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_closed_stdout_exits_quietly(fmt):
    # over 160 KB in every format, more than a pipe buffer holds, so the
    # writes outlive the reader, which keeps one line and closes the pipe
    argv = ["partitions", "--n", "30", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "hilb.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_determinism_all_formats(capsys):
    for fmt in ("table", "json", "csv"):
        argv = ["betti", "--space", "p2", "--n", "3", "--format", fmt]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1


def test_csv_payload_only(capsys):
    code, out, err = run(
        capsys, ["nakajima", "--n", "3", "--method", "both", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == [
        "n,recurrence,closed,equal",
        "1,1,1,true",
        "2,-2,-2,true",
        "3,3,3,true",
    ]


def test_threads_is_always_one(capsys, monkeypatch):
    # the echoed parameter stays in every record; no setting changes it
    monkeypatch.setenv("HILB_THREADS", "8")
    code, record = run_json(capsys, ["partitions", "--n", "2"])
    assert code == 0
    assert record["parameters"]["threads"] == 1


def test_json_is_sorted_and_typed(capsys):
    code, out, err = run(
        capsys, ["strata", "--n", "1", "--format", "json"]
    )
    assert code == 0
    record = json.loads(out)
    assert list(record) == sorted(record)
    assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"
    # vacuous bounds serialize as JSON null, never 0
    assert record["payload"]["rows"][-1][1] is None


def test_cli_output_matches_bench_goldens(capsys):
    # the benchmark's record of every cli-oneshot call: stdout byte for byte
    goldens = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
    entries = json.loads(goldens.read_text())["cli-oneshot"]
    assert len(entries) == 51
    for key, want in entries.items():
        code, out, _ = run(capsys, key.split())
        stdout = out.encode()
        got = {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout), "exit": code}
        assert got == want, key


def test_readme_examples_run():
    # the README's one-liners, so it cannot name a removed function
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert doctest.testfile(str(readme), module_relative=False).failed == 0
