"""Command-line front end.

Every command prints one output record: the command name, the echoed
parameters (including the one-parameter subgroup actually used, so
chamber choices are auditable), an integer-exact payload, and the
package version. Formats: aligned text table (default), JSON with
sorted keys, or CSV of the payload table. Output is byte-identical
across runs; there is no floating point anywhere. Each handler returns
`(parameters, payload)`, and `main` picks the exit code: 1 when the
payload's verdict (`passed`, or `all_equal`) is false.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import ConsistencyError, as_size

# Each handler runs the CLI's own argument checks, then imports the
# modules it runs, and _emit the json or csv module it writes with, so one
# invocation loads only what it uses (`partitions` loads no cell, lattice
# or Fock code, `strata` no partition code, `goettsche` only the series,
# not the Fock operators, and a refused argument no layer at all).


def _int_list(raw: str, count: int, wanted: str) -> tuple[int, ...]:
    """`count` comma-separated integers; `wanted` opens the error message."""
    bits = raw.split(",")
    if len(bits) == count:
        try:
            return tuple(int(b) for b in bits)
        except ValueError:
            pass
    raise ValueError(f"{wanted} comma-separated integers, got {raw!r}")


def cmd_partitions(args) -> tuple[dict, dict]:
    n = as_size(args.n, 0, "--n")
    from .partitions import enumerate_partitions

    lams = enumerate_partitions(n)
    rows = [[i, str(lam)] for i, lam in enumerate(lams)]
    payload = {"count": len(lams), "columns": ["index", "partition"], "rows": rows}
    return {"n": args.n}, payload


def cmd_betti(args) -> tuple[dict, dict]:
    n = as_size(args.n, 0, "--n")
    if args.rho is not None and args.space == "punctual":
        raise ValueError("--rho does not apply to the punctual locus")
    rho = None if args.rho is None else _int_list(args.rho, 2, "--rho wants two")
    from .equivariant import CharVector, cell_tables, poincare_from_tables, poincare_punctual

    params: dict = {"space": args.space, "n": n}
    if args.space == "punctual":
        poly = poincare_punctual(n)
    else:
        rho, tables = cell_tables(args.space, n, None if rho is None else CharVector(*rho))
        params["rho"] = [rho.a, rho.b]
        poly = poincare_from_tables(tables, n)
    rows = [[d, poly.coeffs[d]] for d in sorted(poly.coeffs)]
    payload = {
        "series": str(poly),
        "fixed_points": poly.evaluate(1),
        "columns": ["degree", "coefficient"],
        "rows": rows,
    }
    return params, payload


_INCIDENCE_COLUMNS = {
    "jumps": ["n", "pairs", "max_jump", "ok"],
    "euler": ["n", "pairs", "generator_sum", "socle_sum", "ok"],
    "all": ["n", "pairs", "max_jump", "generator_sum", "socle_sum", "ok"],
}


def _incidence_row(n: int, columns: list[str]) -> list:
    """One `incidence` row; `ok` is the jump bound, computed only if shown.

    Every mode but `jumps` shows `euler_incidence(n)`, the pair count once
    matched to the generator and socle sums; a mismatch raises
    ConsistencyError, exit 1. Validated pairs are built only for `max_jump`.
    """
    from .incidence import euler_incidence, nested_pairs
    from .monomial import generator_count

    prs = nested_pairs(n) if "max_jump" in columns else []
    jump = max(
        (abs(generator_count(p.upper) - generator_count(p.lower)) for p in prs), default=0
    )
    count = len(prs) if columns == _INCIDENCE_COLUMNS["jumps"] else euler_incidence(n)
    return [{"n": n, "max_jump": jump}.get(c, count) for c in columns[:-1]] + [jump <= 1]


def cmd_incidence(args) -> tuple[dict, dict]:
    as_size(args.n, 0, "--n")
    columns = _INCIDENCE_COLUMNS[args.check]
    rows = [_incidence_row(n, columns) for n in range(args.n + 1)]
    payload = {"passed": all(r[-1] for r in rows), "columns": columns, "rows": rows}
    return {"n": args.n, "check": args.check}, payload


def cmd_strata(args) -> tuple[dict, dict]:
    n = as_size(args.n, 1, "--n")
    from .strata import strata_table

    t = strata_table(n)
    rows: list[list] = [
        [1, t.bound(1), t.ambient_dim, 0, "-", "pinned"],
    ]
    for i in range(2, t.max_index + 2):
        cap = 2 * t.n + 4 - 2 * i
        b = t.bounds.get(i)
        if b is None:
            rows.append([i, None, cap, None, "-", "vacuous"])
        else:
            codim = t.ambient_dim - b
            margin = codim - (2 * i - 2)
            rows.append([i, b, cap, codim, margin, "ok" if margin >= 0 else "FAIL"])
    payload = {
        "ambient_dim": t.ambient_dim,
        "passed": all(r[-1] != "FAIL" for r in rows),
        "columns": ["i", "bound", "cap", "codim", "margin", "status"],
        "rows": rows,
    }
    return {"n": args.n}, payload


def cmd_nakajima(args) -> tuple[dict, dict]:
    as_size(args.n, 1, "--n")
    from .lattice import nakajima_closed_form, nakajima_recurrence

    params = {"n": args.n, "method": args.method}
    ns = range(1, args.n + 1)
    table: dict = {"n": list(ns)}
    if args.method != "closed":
        table["recurrence"] = list(nakajima_recurrence(args.n).values)
    if args.method != "recurrence":
        table["closed"] = [nakajima_closed_form(n) for n in ns]
    payload: dict = {}
    if args.method == "both":
        table["equal"] = [r == c for r, c in zip(table["recurrence"], table["closed"])]
        payload["all_equal"] = all(table["equal"])
    payload["columns"] = list(table)
    payload["rows"] = [list(row) for row in zip(*table.values())]
    return params, payload


def cmd_lattice(args) -> tuple[dict, dict]:
    as_size(args.blowup, 0, "--blowup")
    if args.square_exceptional and args.blowup < 1:
        raise ValueError("--square-exceptional needs at least one blown-up point")
    from .lattice import blow_up, exceptional_total_square, p2_lattice

    params = {"blowup": args.blowup, "base": "p2"}
    if args.square_exceptional:
        square = exceptional_total_square(args.blowup, p2_lattice())
        payload = {
            "exceptional_square": square,
            "columns": ["quantity", "value"],
            "rows": [["exceptional_square", square]],
        }
        return params, payload
    blown = blow_up(p2_lattice(), args.blowup)
    # gram builds the dense matrix on each access, so read it once
    rows = [[label, *row] for label, row in zip(blown.labels, blown.gram)]
    payload = {
        "rank": blown.rank,
        "columns": ["class"] + list(blown.labels),
        "rows": rows,
    }
    return params, payload


def cmd_goettsche(args) -> tuple[dict, dict]:
    betti = _int_list(args.betti, 5, "--betti wants five")
    as_size(args.torder, 0, "--torder")
    from .series import SurfaceModel, goettsche_series

    surface = SurfaceModel(betti)
    series = goettsche_series(surface, args.torder)
    params = {"betti": list(betti), "torder": args.torder}
    rows = [[n, series.slice_str(n), series.u_one(n)] for n in range(args.torder + 1)]
    payload = {"columns": ["n", "slice", "euler"], "rows": rows}
    if not args.compare_fixed_points:
        return params, payload
    if betti != (1, 0, 1, 0, 1):
        raise ValueError(
            "--compare-fixed-points needs the projective-plane Betti "
            "numbers 1,0,1,0,1"
        )
    from .equivariant import poincare_p2

    top = params["compare_max"] = min(args.torder, 6)
    for n, row in enumerate(rows):
        row.append(series.t_slice(n) == poincare_p2(n).coeffs if n <= top else "-")
    payload["columns"].append("matches_fixed_points")
    payload["passed"] = all(row[-1] for row in rows[: top + 1])
    return params, payload


def cmd_verify(args) -> tuple[dict, dict]:
    if not args.all:
        raise ValueError("pass --all to run the invariant suite")
    nmax = as_size(args.nmax, 1, "--nmax")
    from .verify import run_checks

    results = run_checks(nmax)
    rows = [
        [r.name, r.scope, "pass" if r.passed else "fail", r.detail] for r in results
    ]
    failures = [r.name for r in results if not r.passed]
    payload = {
        "passed": not failures,
        "failures": failures,
        "columns": ["check", "scope", "status", "detail"],
        "rows": rows,
    }
    return {"nmax": args.nmax, "all": True}, payload


_N = ("--n", {"type": int, "required": True})
# name -> (handler, help, arguments after --format), in `hilb --help` order
_COMMANDS = {
    "partitions": (cmd_partitions, "list the partitions of n", [_N]),
    "betti": (cmd_betti, "Poincare polynomial of a Hilbert scheme", [
        ("--space", {"choices": ("affine", "p2", "punctual"), "required": True}),
        _N,
        ("--rho", {"help": "one-parameter subgroup A,B (default: generic)"}),
    ]),
    "incidence": (cmd_incidence, "nested-pair checks up to size n", [
        _N,
        ("--check", {"choices": tuple(_INCIDENCE_COLUMNS), "default": "all"}),
    ]),
    "strata": (cmd_strata, "generator-count strata bounds at size n", [_N]),
    "nakajima": (cmd_nakajima, "Nakajima constants c_1..c_n", [
        _N,
        ("--method", {"choices": ("recurrence", "closed", "both"), "default": "both"}),
    ]),
    "lattice": (cmd_lattice, "blow-up intersection lattice", [
        ("--blowup", {"type": int, "required": True, "metavar": "K"}),
        ("--square-exceptional", {"action": "store_true"}),
    ]),
    "goettsche": (cmd_goettsche, "bigraded series of a surface model", [
        ("--betti", {"required": True, "metavar": "B0,B1,B2,B3,B4"}),
        ("--torder", {"type": int, "required": True}),
        ("--compare-fixed-points", {"action": "store_true"}),
    ]),
    "verify": (cmd_verify, "run the full invariant suite", [
        ("--all", {"action": "store_true"}),
        ("--nmax", {"type": int, "default": 12}),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hilb` parser; given a subcommand's name, only it gets its arguments.

    Each call of the CLI parses one subcommand, so building the others'
    arguments, and their -h, is start-up time spent for nothing. Every
    subcommand is still registered with its help text, so the top-level
    usage and errors read the same. `main` always passes a name, "" when
    argv names no subcommand, which builds none of their arguments; with
    no name, all eight are built, as the tests' reference.
    """
    parser = argparse.ArgumentParser(
        prog="hilb",
        description="Exact combinatorics of Hilbert schemes of points on surfaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        if command is not None and name != command:
            # named in the top-level usage, but never parses
            sub.add_parser(name, help=help_text, add_help=False)
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default table)",
        )
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def _cell(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "empty"
    return str(v)


def _param_str(v) -> str:
    if isinstance(v, list):
        return ",".join(_cell(x) for x in v)
    return _cell(v)


def _emit(record: dict, fmt: str) -> None:
    payload = record["payload"]
    if fmt == "json":
        import json

        print(json.dumps(record, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_cell(v) for v in row])
        return
    print(f"hilb {record['command']} (version {record['version']})")
    for key in sorted(record["parameters"]):
        print(f"{key}: {_param_str(record['parameters'][key])}")
    scalars = {
        k: v for k, v in payload.items() if k not in ("columns", "rows")
    }
    for key in sorted(scalars):
        print(f"{key}: {_param_str(scalars[key])}")
    print()
    columns = payload["columns"]
    rows = [[_cell(v) for v in row] for row in payload["rows"]]
    widths = [
        max(len(str(columns[i])), max((len(r[i]) for r in rows), default=0))
        for i in range(len(columns))
    ]
    print("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads the first word that is no option as the subcommand and
    # stops at top level unless it names one, so only the first word that
    # names a subcommand can need its arguments
    command = next((word for word in argv if word in _COMMANDS), "")
    args = build_parser(command).parse_args(argv)
    try:
        parameters, payload = args.handler(args)
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parameters["threads"] = 1  # kept in every record; the CLI is single-threaded
    record = {
        "command": args.command,
        "parameters": parameters,
        "payload": payload,
        "version": __version__,
    }
    try:
        _emit(record, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: stop writing, and send what is
        # still buffered to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if payload.get("passed", payload.get("all_equal", True)) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
