"""Command-line front end.

Every command prints one output record: the command name, the echoed
parameters (including the one-parameter subgroup actually used, so
chamber choices are auditable), an integer-exact payload, and the
package version. Formats: aligned text table (default), JSON with
sorted keys, or CSV of the payload table. Output is byte-identical
across runs; there is no floating point anywhere.

HILB_THREADS, when set, caps worker parallelism. All documented
invocations finish in well under a second single-threaded, so the cap
is currently a validated no-op recorded in the echoed parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .equivariant import (
    CharVector,
    NonGenericError,
    cell_tables,
    poincare_from_tables,
    poincare_p2,
    poincare_punctual,
)
from .errors import ConsistencyError
from .heisenberg import SurfaceModel, goettsche_series, p2_surface
from .incidence import (
    check_codim_hypotheses,
    euler_incidence,
    local_generator_count,
    nested_pairs,
    strata_table,
)
from .lattice import (
    blow_up,
    exceptional_total_square,
    nakajima_closed_form,
    nakajima_recurrence,
    p2_lattice,
)
from .monomial import socle_count
from .partitions import enumerate_partitions
from .verify import run_checks


def _parse_threads() -> int:
    raw = os.environ.get("HILB_THREADS")
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"HILB_THREADS must be a positive integer, got {raw!r}")
    if threads < 1:
        raise ValueError(f"HILB_THREADS must be a positive integer, got {raw!r}")
    return threads


def _parse_rho(raw: str) -> CharVector:
    bits = raw.split(",")
    if len(bits) != 2:
        raise ValueError(f"--rho wants two comma-separated integers, got {raw!r}")
    try:
        return CharVector(int(bits[0]), int(bits[1]))
    except ValueError:
        raise ValueError(f"--rho wants two comma-separated integers, got {raw!r}")


def _parse_betti(raw: str) -> tuple[int, ...]:
    bits = raw.split(",")
    if len(bits) != 5:
        raise ValueError(f"--betti wants five comma-separated integers, got {raw!r}")
    try:
        return tuple(int(b) for b in bits)
    except ValueError:
        raise ValueError(f"--betti wants five comma-separated integers, got {raw!r}")


def cmd_partitions(args) -> tuple[dict, dict, int]:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    lams = enumerate_partitions(args.n)
    rows = [[i, str(lam)] for i, lam in enumerate(lams)]
    payload = {"count": len(lams), "columns": ["index", "partition"], "rows": rows}
    return {"n": args.n}, payload, 0


def cmd_betti(args) -> tuple[dict, dict, int]:
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be non-negative, got {n}")
    params: dict = {"space": args.space, "n": n}
    if args.space == "punctual":
        if args.rho is not None:
            raise ValueError("--rho does not apply to the punctual locus")
        poly = poincare_punctual(n)
    else:
        rho = _parse_rho(args.rho) if args.rho is not None else None
        rho, tables = cell_tables(args.space, n, rho)
        params["rho"] = [rho.a, rho.b]
        poly = poincare_from_tables(tables, n)
    rows = [[d, poly.coeffs[d]] for d in sorted(poly.coeffs)]
    payload = {
        "series": str(poly),
        "fixed_points": poly.evaluate(1),
        "columns": ["degree", "coefficient"],
        "rows": rows,
    }
    return params, payload, 0


def cmd_incidence(args) -> tuple[dict, dict, int]:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    sizes = range(args.n + 1)
    rows = []
    if args.check == "jumps":
        columns = ["n", "pairs", "max_jump", "ok"]
        for n in sizes:
            prs = nested_pairs(n)
            jump = max(
                (
                    abs(local_generator_count(p.upper) - local_generator_count(p.lower))
                    for p in prs
                ),
                default=0,
            )
            rows.append([n, len(prs), jump, jump <= 1])
    elif args.check == "euler":
        columns = ["n", "pairs", "generator_sum", "socle_sum", "ok"]
        for n in sizes:
            count = euler_incidence(n)
            gen_sum = sum(local_generator_count(lam) for lam in enumerate_partitions(n))
            socle_sum = sum(socle_count(mu) for mu in enumerate_partitions(n + 1))
            rows.append([n, count, gen_sum, socle_sum, count == gen_sum == socle_sum])
    elif args.check == "fibers":
        columns = ["n", "pairs", "phi_fibers", "gamma_fibers", "ok"]
        for n in sizes:
            prs = nested_pairs(n)
            phi = sum(local_generator_count(lam) for lam in enumerate_partitions(n))
            gamma = sum(socle_count(mu) for mu in enumerate_partitions(n + 1))
            rows.append([n, len(prs), phi, gamma, len(prs) == phi == gamma])
    else:
        columns = ["n", "pairs", "max_jump", "generator_sum", "socle_sum", "ok"]
        for n in sizes:
            prs = nested_pairs(n)
            jump = max(
                (
                    abs(local_generator_count(p.upper) - local_generator_count(p.lower))
                    for p in prs
                ),
                default=0,
            )
            count = euler_incidence(n)
            gen_sum = sum(local_generator_count(lam) for lam in enumerate_partitions(n))
            socle_sum = sum(socle_count(mu) for mu in enumerate_partitions(n + 1))
            rows.append(
                [
                    n,
                    count,
                    jump,
                    gen_sum,
                    socle_sum,
                    jump <= 1 and count == gen_sum == socle_sum,
                ]
            )
    all_ok = all(r[-1] for r in rows)
    payload = {"passed": all_ok, "columns": columns, "rows": rows}
    return {"n": args.n, "check": args.check}, payload, 0 if all_ok else 1


def cmd_strata(args) -> tuple[dict, dict, int]:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    t = strata_table(args.n)
    report = check_codim_hypotheses(t)
    rows: list[list] = [
        [1, t.bound(1), t.ambient_dim, 0, "-", "pinned"],
    ]
    for e in report.entries:
        cap = 2 * t.n + 4 - 2 * e.index
        if e.vacuous:
            rows.append([e.index, None, cap, None, "-", "vacuous"])
        else:
            rows.append(
                [
                    e.index,
                    e.bound,
                    cap,
                    e.codim,
                    e.margin,
                    "ok" if e.satisfied else "FAIL",
                ]
            )
    payload = {
        "ambient_dim": t.ambient_dim,
        "passed": report.all_satisfied,
        "columns": ["i", "bound", "cap", "codim", "margin", "status"],
        "rows": rows,
    }
    return {"n": args.n}, payload, 0 if report.all_satisfied else 1


def cmd_nakajima(args) -> tuple[dict, dict, int]:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    params = {"n": args.n, "method": args.method}
    if args.method == "recurrence":
        seq = nakajima_recurrence(args.n)
        rows = [[n, seq.value(n)] for n in range(1, args.n + 1)]
        payload = {"columns": ["n", "recurrence"], "rows": rows}
        return params, payload, 0
    if args.method == "closed":
        rows = [[n, nakajima_closed_form(n)] for n in range(1, args.n + 1)]
        payload = {"columns": ["n", "closed"], "rows": rows}
        return params, payload, 0
    seq = nakajima_recurrence(args.n)
    rows = [
        [n, seq.value(n), nakajima_closed_form(n), seq.value(n) == nakajima_closed_form(n)]
        for n in range(1, args.n + 1)
    ]
    payload = {
        "all_equal": all(r[3] for r in rows),
        "columns": ["n", "recurrence", "closed", "equal"],
        "rows": rows,
    }
    return params, payload, 0 if payload["all_equal"] else 1


def cmd_lattice(args) -> tuple[dict, dict, int]:
    if args.blowup < 0:
        raise ValueError(f"--blowup must be non-negative, got {args.blowup}")
    params = {"blowup": args.blowup, "base": "p2"}
    if args.square_exceptional:
        if args.blowup < 1:
            raise ValueError("--square-exceptional needs at least one blown-up point")
        square = exceptional_total_square(args.blowup, p2_lattice())
        payload = {
            "exceptional_square": square,
            "columns": ["quantity", "value"],
            "rows": [["exceptional_square", square]],
        }
        return params, payload, 0
    blown = blow_up(p2_lattice(), args.blowup)
    rows = [
        [blown.labels[i]] + list(blown.gram[i]) for i in range(blown.rank)
    ]
    payload = {
        "rank": blown.rank,
        "columns": ["class"] + list(blown.labels),
        "rows": rows,
    }
    return params, payload, 0


def cmd_goettsche(args) -> tuple[dict, dict, int]:
    betti = _parse_betti(args.betti)
    if args.torder < 0:
        raise ValueError(f"--torder must be non-negative, got {args.torder}")
    surface = SurfaceModel(betti)
    series = goettsche_series(surface, args.torder)
    params = {"betti": list(betti), "torder": args.torder}
    compare_top = -1
    if args.compare_fixed_points:
        if betti != (1, 0, 1, 0, 1):
            raise ValueError(
                "--compare-fixed-points needs the projective-plane Betti "
                "numbers 1,0,1,0,1"
            )
        compare_top = min(args.torder, 6)
        params["compare_max"] = compare_top
    rows = []
    ok = True
    for n in range(args.torder + 1):
        row: list = [n, series.slice_str(n), series.u_one(n)]
        if args.compare_fixed_points:
            if n <= compare_top:
                match = series.t_slice(n) == poincare_p2(n).coeffs
                ok = ok and match
                row.append(match)
            else:
                row.append("-")
        rows.append(row)
    columns = ["n", "slice", "euler"]
    if args.compare_fixed_points:
        columns.append("matches_fixed_points")
    payload = {"columns": columns, "rows": rows}
    if args.compare_fixed_points:
        payload["passed"] = ok
    return params, payload, 0 if ok else 1


def cmd_verify(args) -> tuple[dict, dict, int]:
    if not args.all:
        raise ValueError("pass --all to run the invariant suite")
    results = run_checks(args.nmax)
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
    return {"nmax": args.nmax, "all": True}, payload, 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilb",
        description="Exact combinatorics of Hilbert schemes of points on surfaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default table)",
        )
        p.set_defaults(handler=handler)
        return p

    p = add("partitions", cmd_partitions, "list the partitions of n")
    p.add_argument("--n", type=int, required=True)

    p = add("betti", cmd_betti, "Poincare polynomial of a Hilbert scheme")
    p.add_argument("--space", choices=("affine", "p2", "punctual"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", help="one-parameter subgroup A,B (default: generic)")

    p = add("incidence", cmd_incidence, "nested-pair checks up to size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--check", choices=("jumps", "euler", "fibers", "all"), default="all"
    )

    p = add("strata", cmd_strata, "generator-count strata bounds at size n")
    p.add_argument("--n", type=int, required=True)

    p = add("nakajima", cmd_nakajima, "Nakajima constants c_1..c_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("recurrence", "closed", "both"), default="both"
    )

    p = add("lattice", cmd_lattice, "blow-up intersection lattice")
    p.add_argument("--blowup", type=int, required=True, metavar="K")
    p.add_argument("--square-exceptional", action="store_true")

    p = add("goettsche", cmd_goettsche, "bigraded series of a surface model")
    p.add_argument("--betti", required=True, metavar="B0,B1,B2,B3,B4")
    p.add_argument("--torder", type=int, required=True)
    p.add_argument("--compare-fixed-points", action="store_true")

    p = add("verify", cmd_verify, "run the full invariant suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--nmax", type=int, default=12)

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
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    if fmt == "csv":
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = _parse_threads()
        parameters, payload, code = args.handler(args)
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NonGenericError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parameters["threads"] = threads
    record = {
        "command": args.command,
        "parameters": parameters,
        "payload": payload,
        "version": __version__,
    }
    _emit(record, args.format)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
