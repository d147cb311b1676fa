"""Self-contained invariant suite behind `hilb verify`.

Every check recomputes its expected values from scratch, through closed
forms, classical recurrences, or brute enumeration, so a failure points
at the library rather than at the checker. Checks scale with nmax but
cap themselves where exhaustive enumeration stops being desk-scale.
Each check is declared once, by `_check`, with its name and scope. A
`ConsistencyError` or `ValueError` raised inside a check is that check's
failing row, the message its detail: `run_checks` has validated its
arguments before, so either one is a library fault, not bad input.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .equivariant import (
    AFFINE_CHART,
    CharVector,
    PoincarePoly,
    _cell_tables_at,
    _hook_lists,
    fixed_points_p2,
    poincare_affine,
    poincare_from_tables,
    poincare_p2,
    poincare_punctual,
    tangent_weights,
)
from .errors import ConsistencyError, as_size
from .heisenberg import FockState, basis_monomials, commutator_checks
from .incidence import euler_incidence, nested_pairs
from .lattice import (
    IntersectionLattice,
    exceptional_total_square,
    nakajima_closed_form,
    nakajima_recurrence,
    p2_lattice,
    rank_zero_lattice,
)
from .monomial import generator_count, hilbert_burch, socle_count, staircase
from .partitions import enumerate_partitions, pentagonal_partition_count
from .series import SurfaceModel, fock_character, goettsche_series, k3_surface, p2_surface
from .strata import strata_base, strata_propagate, strata_table


class CheckResult(NamedTuple):
    name: str
    scope: str
    passed: bool
    detail: str


def _expect(ok: bool, detail: str, *args) -> None:
    """Fail the running check unless ok; detail.format(*args) is built only then."""
    if not ok:
        raise ConsistencyError(detail.format(*args))


_REGISTRY: list[tuple[str, Callable[[int], CheckResult]]] = []


def _check(name: str, scope: str, **caps: Callable[[int], int]):
    """Register a check body, in declaration order, as `fn(nmax) -> CheckResult`.

    Each cap maps nmax to a size; the body gets the sizes as keywords and
    returns its detail, and `scope` is formatted from the same sizes.
    """

    def register(body: Callable[..., str]) -> Callable[[int], CheckResult]:
        def run(nmax: int) -> CheckResult:
            sizes = {key: cap(nmax) for key, cap in caps.items()}
            where = scope.format(**sizes)
            try:
                return CheckResult(name, where, True, body(**sizes))
            except (ConsistencyError, ValueError) as failure:
                return CheckResult(name, where, False, str(failure))

        _REGISTRY.append((name, run))
        return run

    return register


def _sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _colored_partition_counts(colors: int, tmax: int) -> list[int]:
    # Independent Euler route: n*a_n = colors * sum sigma(k) a_{n-k}.
    out = [1]
    for n in range(1, tmax + 1):
        total = sum(colors * _sigma(k) * out[n - k] for k in range(1, n + 1))
        _expect(total % n == 0, "divisor sum {} at n={} not divisible by n", total, n)
        out.append(total // n)
    return out


@_check("partition-counts", "n<={top}", top=lambda nmax: min(nmax, 30))
def check_partition_counts(top: int) -> str:
    """Enumeration length vs the pentagonal-number recurrence."""
    for n in range(top + 1):
        got = len(enumerate_partitions(n))
        want = pentagonal_partition_count(n)
        _expect(got == want, "p({}): {} != {}", n, got, want)
    return "enumeration matches recurrence"


@_check("conjugate-involution", "n<={top}", top=lambda nmax: min(nmax, 20))
def check_conjugate_involution(top: int) -> str:
    """conjugate vs the transpose built row by row; equal, it is an involution."""
    for n in range(top + 1):
        for lam in enumerate_partitions(n):
            want: list[int] = []
            for i, (p, q) in enumerate(zip(lam, [*lam[1:], 0])):
                # columns past row i+1's end, up to row i's end, have height i + 1
                want[:0] = [i + 1] * (p - q)
            _expect(list(lam.conjugate()) == want, "failed at {}", lam)
    return "transpose is an involution"


@_check("cover-duality", "n<={top}", top=lambda nmax: min(nmax, 20))
def check_cover_duality(top: int) -> str:
    """covers/cocovers adjunction plus the distinct-part count formulas.

    Each size is enumerated once and carried forward, each partition's
    covers and cocovers built once; a neighbour of another size is missing.
    """
    here, covers_below, cocovers_here = enumerate_partitions(0), {}, {}
    for n in range(top + 1):
        above = enumerate_partitions(n + 1)
        covers_here = {lam: lam.covers() for lam in here}
        cocovers_above = {mu: mu.cocovers() for mu in above}
        for lam in here:
            ups = covers_here[lam]
            _expect(len(ups) == lam.distinct_part_count() + 1, "cover count at {}", lam)
            for mu in ups:
                _expect(lam in cocovers_above.get(mu, ()), "{} missing under {}", lam, mu)
            if lam:
                downs = cocovers_here[lam]
                _expect(len(downs) == lam.distinct_part_count(), "cocover count at {}", lam)
                for nu in downs:
                    _expect(lam in covers_below.get(nu, ()), "{} missing over {}", lam, nu)
        here, covers_below, cocovers_here = above, covers_here, cocovers_above
    return "adjunction and counts hold"


@_check("generator-socle", "n<={top}", top=lambda nmax: min(nmax, 25))
def check_generator_socle(top: int) -> str:
    """Generator count = socle count + 1 = distinct parts + 1, both routes."""
    total = 0
    for n in range(1, top + 1):
        for lam in enumerate_partitions(n):
            g = generator_count(lam)
            s = socle_count(lam)
            d = lam.distinct_part_count()
            gc = generator_count(lam.conjugate())
            _expect(
                g == s + 1 == d + 1 and gc == g,
                "{}: generators {}, socle {}, distinct {}, conjugate {}", lam, g, s, d, gc,
            )
            total += 1
    return f"{total} partitions checked"


@_check("hilbert-burch", "n<={top}", top=lambda nmax: min(nmax, 15))
def check_hilbert_burch(top: int) -> str:
    """Maximal minors reproduce the staircase generators up to sign.

    The minors are tested row by row against the matrix's generators
    (monomial equal, sign +-1), and those as a set against the staircase's.
    """
    total = 0
    for n in range(1, top + 1):
        for lam in enumerate_partitions(n):
            m = hilbert_burch(lam)
            gens = set(staircase(lam).generators)
            _expect(m.matches_generators() and set(m.generators) == gens, "failed at {}", lam)
            total += 1
    return f"{total} matrices checked"


@_check("jump-bound", "n<={top}", top=lambda nmax: min(nmax, 20))
def check_jump_bound(top: int) -> str:
    """Generator count moves by at most one along nested pairs."""
    pairs = 0
    for n in range(1, top + 1):
        for pr in nested_pairs(n):
            jump = abs(generator_count(pr.upper) - generator_count(pr.lower))
            _expect(jump <= 1, "{} -> {}", pr.lower, pr.upper)
            pairs += 1
    return f"{pairs} nested pairs checked"


@_check("tangent-weights", "n<={top}", top=lambda nmax: min(nmax, 10))
def check_tangent_weights(top: int) -> str:
    """2n weights per point; multiset symmetric under conjugate + chart swap."""
    u, v = AFFINE_CHART
    for n in range(top + 1):
        for lam in enumerate_partitions(n):
            ws = tangent_weights(lam, u, v)
            _expect(len(ws) == 2 * n, "count at {}", lam)
            swapped = tangent_weights(lam.conjugate(), v, u)
            _expect(sorted(ws) == sorted(swapped), "conjugate multiset at {}", lam)
    return "counts and symmetry hold"


@_check("affine-closed-form", "n<={top}", top=lambda nmax: min(nmax, 12))
def check_affine_closed_form(top: int) -> str:
    """Cell-count polynomial vs the partition-length closed form."""
    for n in range(top + 1):
        want = PoincarePoly.from_cell_dims(n - len(lam) for lam in enumerate_partitions(n))
        _expect(poincare_affine(n) == want, "slice n={}", n)
    return "matches length statistic"


@_check(
    "chamber-independence", "affine n<={top_a}, p2 n<={top_p}",
    top_a=lambda nmax: min(nmax, 12), top_p=lambda nmax: min(nmax, 8),
)
def check_chamber_independence(top_a: int, top_p: int) -> str:
    """Same Poincare polynomials across three unrelated generic subgroups."""
    for n in range(top_a + 1):
        rhos = (CharVector(1, n + 2), CharVector(n + 2, 1), CharVector(2, 2 * n + 3))
        _expect_same_cells("affine", n, rhos)
    for n in range(top_p + 1):
        rhos = (CharVector(1, 2 * n * n + 3), CharVector(2 * n * n + 3, 1),
                CharVector(2, 4 * n * n + 7))
        _expect_same_cells("p2", n, rhos)
    return "polynomials agree in all chambers tried"


def _expect_same_cells(space: str, n: int, rhos: tuple[CharVector, ...]) -> None:
    """One Poincare polynomial for every rho.

    The hook lists are built once; each rho gets its own pairing and wall scan.
    """
    hooks = _hook_lists(space, n)
    base = poincare_from_tables(_cell_tables_at(hooks, rhos[0])[1], n)
    for rho in rhos[1:]:
        got = poincare_from_tables(_cell_tables_at(hooks, rho)[1], n)
        _expect(got == base, "{} n={} rho={}", space, n, tuple(rho))


@_check("punctual-cells", "n<={top}", top=lambda nmax: min(nmax, 25))
def check_punctual(top: int) -> str:
    """Punctual cells from tangent weights vs the Ellingsrud-Stromme product.

    rows[n] is the t^n row of prod_{m>=1} 1/(1 - q^(2m-2) t^m) as {q-degree:
    count}, expanded one factor at a time; no partition is enumerated.
    """
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(top)]
    for m in range(1, top + 1):
        for n in range(m, top + 1):
            for d, c in rows[n - m].items():
                rows[n][d + 2 * m - 2] = rows[n].get(d + 2 * m - 2, 0) + c
    for n in range(1, top + 1):
        poly = poincare_punctual(n)
        want = PoincarePoly(rows[n])
        _expect(poly.evaluate(1) == pentagonal_partition_count(n), "count at n={}", n)
        _expect(poly.degree == 2 * (n - 1), "top dim at n={}", n)
        _expect(poly == want, "cells at n={}: {} != {}", n, poly, want)
    return "count, top dim, Euler all match"


@_check("euler-incidence", "n<={top}", top=lambda nmax: min(nmax, 20))
def check_euler_incidence(top: int) -> str:
    """Nested-pair count vs the running sum of p(k) over k <= n.

    A lambda of n has one cover per distinct part plus one, and the
    distinct parts of all lambda of n number p(0) + ... + p(n - 1), so
    the pairs number p(0) + ... + p(n). euler_incidence confirms its
    count three ways and raises ConsistencyError on a mismatch.
    """
    want = 0
    for n in range(top + 1):
        want += pentagonal_partition_count(n)
        got = euler_incidence(n)
        _expect(got == want, "n={}: {} pairs, p(0) + ... + p({}) = {}", n, got, n, want)
    return "pairs = generator sum = socle sum"


@_check("strata-bounds", "n<={top}", top=lambda nmax: max(nmax, 40))
def check_strata_bounds(top: int) -> str:
    """The closed form 2n + 4 - 2i by induction: base case and step; codim >= 2i - 2."""
    t = strata_table(1)
    _expect(t == strata_base(), "base case: {} at n=1", t)
    for n in range(1, top + 1):
        codims = all(t.ambient_dim - b >= 2 * i - 2 for i, b in t.bounds.items())
        _expect(codims, "codim fails at n={}", n)
        if n < top:
            up = strata_table(n + 1)
            _expect(strata_propagate(t) == up, "step from n={} misses the closed form", n)
            t = up
    return "bounds and codims verified"


@_check("exceptional-square", "n<={top}", top=lambda nmax: 50)
def check_exceptional_square(top: int) -> str:
    """E.E = -n over three different bases."""
    bases = (
        rank_zero_lattice(),
        p2_lattice(),
        IntersectionLattice(((2, 3), (3, -4)), ("A", "B")),
    )
    for base in bases:
        for n in range(1, top + 1):
            got = exceptional_total_square(n, base)
            _expect(got == -n, "base rank {}, n={}: {}", base.rank, n, got)
    return "three bases, all -n"


@_check("nakajima", "n<={top}", top=lambda nmax: max(nmax, 200))
def check_nakajima(top: int) -> str:
    """Recurrence equals closed form."""
    seq = nakajima_recurrence(top)
    for n in range(1, top + 1):
        _expect(seq.value(n) == nakajima_closed_form(n), "mismatch at n={}", n)
    return "recurrence matches closed form"


@_check("goettsche-vs-fixed-points", "n<={top}", top=lambda nmax: min(nmax, 6))
def check_goettsche_vs_fixed_points(top: int) -> str:
    """Series slices equal projective-plane fixed-point Poincare polynomials."""
    series = goettsche_series(p2_surface(), top)
    for n in range(top + 1):
        _expect(series.t_slice(n) == poincare_p2(n).coeffs, "slice {}", n)
        _expect(series.u_one(n) == len(fixed_points_p2(n)), "Euler {}", n)
    return "slices and Euler counts agree"


@_check("fock-character", "t<={top}", top=lambda nmax: min(nmax, 8))
def check_fock_character(top: int) -> str:
    """Per-generator character equals the Betti-indexed product, two models."""
    for surface in (p2_surface(), k3_surface()):
        series = goettsche_series(surface, top)
        _expect(fock_character(surface, top) == series, "betti {}", surface.betti)
        colored = _colored_partition_counts(surface.euler_characteristic(), top)
        for n in range(top + 1):
            _expect(
                series.u_one(n) == colored[n], "u=1 slice {} of betti {}", n, surface.betti
            )
    return "both models, both routes"


@_check(
    "commutators", "m,k<={mk}",
    mk=lambda nmax: min(nmax, 5), depth=lambda nmax: min(nmax, 6),
)
def check_commutators(mk: int, depth: int) -> str:
    """Heisenberg relation on spanning probes, plus an off-diagonal pairing."""
    plane = p2_surface()
    labels = plane.labels()
    quads = [
        (m, k, alpha, beta)
        for m in range(1, mk + 1)
        for k in range(1, mk + 1)
        for alpha in labels
        for beta in labels
    ]
    probes = _expect_commutators(plane, quads, depth, "")
    skew = SurfaceModel((1, 0, 2, 0, 1), IntersectionLattice(((0, 1), (1, 0)), ("f1", "f2")))
    labels = skew.labels()
    quads = [
        (m, m, alpha, beta)
        for m in range(1, min(mk, 3) + 1)
        for alpha in labels
        for beta in labels
    ]
    probes2 = _expect_commutators(skew, quads, min(depth, 4), "skew model ")
    return f"{probes} probes on the plane model, {probes2} on the skew model"


def _expect_commutators(surface: SurfaceModel, quads: list, depth: int, prefix: str) -> int:
    """Probe every quadruple on the monomials through t-weight `depth`; the probe count."""
    probes = [FockState._of(surface, {mono: 1}) for mono in basis_monomials(surface, depth)]
    for rep in commutator_checks(surface, quads, probes):
        _expect(
            rep.passed, prefix + "[a_{}({}), a_-{}({})]", rep.m, rep.alpha, rep.k, rep.beta
        )
    return len(probes)


ALL_CHECKS: tuple[tuple[str, Callable[[int], CheckResult]], ...] = tuple(_REGISTRY)


def run_checks(nmax: int, names: Optional[list[str]] = None) -> list[CheckResult]:
    """Run the suite (or a named subset) scaled by nmax."""
    nmax = as_size(nmax, 1, "nmax")
    if isinstance(names, str):
        raise ValueError(f"names must be a list of check names, got the string {names!r}")
    selected = names if names is not None else [n for n, _ in ALL_CHECKS]
    table = dict(ALL_CHECKS)
    unknown = [n for n in selected if not isinstance(n, str) or n not in table]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(map(str, unknown))}")
    return [table[n](nmax) for n in selected]
