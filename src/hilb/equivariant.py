"""Torus-fixed-point tangent weights and attracting-cell dimensions.

A fixed point of the Hilbert scheme of n points on a 2-torus chart is a
partition of n. Its tangent space splits into 2n one-dimensional
characters; pairing each against a generic one-parameter subgroup and
counting negative pairings gives the attracting-cell dimension, and
summing q^(2 dim) over fixed points gives the Poincare polynomial.
The projective plane is compact, so any generic subgroup will do there;
the affine plane is not, and its cells count its Betti numbers only for
a subgroup that contracts it, one with both entries positive
(Ellingsrud and Stromme, Invent. Math. 87, 1987).

Weight convention for a box with arm a and leg l, in chart coordinates
with characters (u, v):

    (a+1) u - l v        and        -a u + (l+1) v.

The convention is pinned by tests rather than by fiat: conjugating the
partition while swapping u and v must preserve the weight multiset, the
affine Poincare polynomial must match the partition-length closed form,
and the small-n projective values must come out right.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional

from .common import Record, format_poly
from .errors import NonGenericError, as_int, as_size
from .partitions import Partition, as_partition, enumerate_partitions

# NonGenericError and format_poly are defined in leaf modules, so that
# the CLI and the series layer need not load this one; both stay
# importable from here.


class CharVector(NamedTuple):
    """An integer character of the 2-torus."""

    a: int
    b: int


def _character(value, what: str) -> CharVector:
    """value as a CharVector, entries through errors.as_int; ValueError unless a pair."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a pair of integers, got {value!r}") from None
    what = f"{what} entries must be integers"
    return CharVector(as_int(a, what), as_int(b, what))


def tangent_weights(lam, u: CharVector, v: CharVector) -> list[CharVector]:
    """The 2|lam| tangent characters at the fixed point of a chart.

    u and v are the characters of the two chart coordinates and must be
    linearly independent over the rationals; arms and legs come from `_arm_legs`.
    """
    lam = as_partition(lam)
    u, v = _character(u, "chart character"), _character(v, "chart character")
    if u.a * v.b - u.b * v.a == 0:
        raise ValueError(f"degenerate chart: characters {u} and {v} are dependent")
    (ua, ub), (va, vb) = u, v
    width = sum(lam) + 1
    out = []
    for h in _arm_legs(lam, width):
        a, l = divmod(h, width)
        out.append(CharVector((a + 1) * ua - l * va, (a + 1) * ub - l * vb))
        out.append(CharVector(-a * ua + (l + 1) * va, -a * ub + (l + 1) * vb))
    return out


def cell_dimension(weights: Iterable[CharVector], rho: CharVector) -> int:
    """Number of weights pairing negatively against rho.

    A zero pairing means rho sits on a wall of the chamber structure and
    the attracting cell is not defined there.
    """
    rho = _character(rho, "rho")
    dim = 0
    for w in weights:
        p = rho.a * w.a + rho.b * w.b
        if p == 0:
            raise NonGenericError(
                f"non-generic one-parameter subgroup: rho={tuple(rho)} "
                f"pairs to zero with weight {tuple(w)}"
            )
        if p < 0:
            dim += 1
    return dim


class PoincarePoly(Record):
    """Even-degree polynomial in q with non-negative integer coefficients.

    `coeffs` is a read-only {degree: coefficient} view.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
        clean: dict[int, int] = {}
        for d, c in (coeffs or {}).items():
            # exact ints need no coercion, and every Betti polynomial is built here
            if type(d) is not int or type(c) is not int:
                d = as_int(d, "degrees must be integers")
                c = as_int(c, "coefficients must be integers")
            if d < 0 or d % 2:
                raise ValueError(f"degrees must be even and non-negative, got {d}")
            if c < 0:
                raise ValueError(f"coefficients must be non-negative, got {c}")
            if c:
                clean[d] = c
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @classmethod
    def from_cell_dims(cls, dims: Iterable[int]) -> "PoincarePoly":
        coeffs: dict[int, int] = {}
        for d in dims:
            coeffs[2 * d] = coeffs.get(2 * d, 0) + 1
        return cls(coeffs)

    def coefficient(self, degree: int) -> int:
        return self.coeffs.get(as_int(degree, "degrees must be integers"), 0)

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def evaluate(self, x: int = 1) -> int:
        x = as_int(x, "evaluation points must be integers")
        return sum(c * x**d for d, c in self.coeffs.items())

    def __repr__(self) -> str:
        return f"PoincarePoly({dict(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self.coeffs, "q")


# Chart characters of the standard torus action: affine plane, then the
# three coordinate charts of the projective plane.
AFFINE_CHART: tuple[CharVector, CharVector] = (CharVector(1, 0), CharVector(0, 1))
P2_CHART_WEIGHTS: tuple[tuple[CharVector, CharVector], ...] = (
    (CharVector(1, 0), CharVector(0, 1)),
    (CharVector(-1, 0), CharVector(-1, 1)),
    (CharVector(0, -1), CharVector(1, -1)),
)


def default_rho(n: int) -> CharVector:
    """The subgroup (1, K), K = 2n^2 + 1, which lies on no wall up to size n.

    Every box of a partition of size at most n has arm a and leg l at
    most n - 1 < K. Against (1, K) the two weights of a box pair, chart
    by chart of P2_CHART_WEIGHTS (the first is also the affine chart), to

        chart 0:  (a+1) - l*K            and  (l+1)*K - a
        chart 1:  -(a+1) - l*(K-1)       and  (l+1)*(K-1) + a
        chart 2:  -K*(a+1-l) - l         and  K*(a-l-1) + l + 1.

    Chart 1's values are negative and positive outright. The other four
    are x*K + y with integers x, y and |y| <= n < K, so each vanishes only
    if x = y = 0; but chart 0 has y = a+1 and x = l+1, and chart 2 has
    (x, y) = (l-a-1, -l) and y = l+1, never zero together.
    """
    n = as_size(n, 0, "length")
    return CharVector(1, 2 * n * n + 1)


# A cell table maps a chart size s to {cell dimension: number of
# partitions of s with that dimension} in that chart.
CellTable = dict[int, dict[int, int]]


def _arm_legs(lam: Partition, width: int) -> list[int]:
    """arm * width + leg of every box of lam, row-major; legs read off the conjugate."""
    cols = lam.column_lengths()
    return [
        (p - c - 1) * width + cols[c] - r - 1 for r, p in enumerate(lam) for c in range(p)
    ]


class _HookLists(NamedTuple):
    """The rho-free part of a space's cell tables at size n.

    A box's (arm, leg) is coded as the int arm * width + leg, width = n + 1:
    no arm or leg of a partition of size at most n exceeds n - 1.
    """

    n: int
    charts: tuple[tuple[CharVector, CharVector], ...]
    hooks: dict[int, list[list[int]]]  # chart size -> their coded (arm, leg) lists
    pairs: set[int]  # every distinct coded (arm, leg) pair


def _hook_lists(space: str, n: int) -> _HookLists:
    """The coded (arm, leg) lists of the partitions of every chart size, built once."""
    n = as_size(n, 0, "length")
    if space == "affine":
        charts, sizes = (AFFINE_CHART,), (n,)
    elif space == "p2":
        charts, sizes = P2_CHART_WEIGHTS, range(n, -1, -1)
    else:
        raise ValueError(f"no cell tables for space {space!r}")
    hooks = {s: [_arm_legs(lam, n + 1) for lam in enumerate_partitions(s)] for s in sizes}
    pairs = {h for hl in hooks.values() for hs in hl for h in hs}
    return _HookLists(n, charts, hooks, pairs)


def _cell_tables_at(
    shape: _HookLists, rho: Optional[CharVector]
) -> tuple[CharVector, list[CellTable]]:
    """cell_tables for one rho over hook lists that _hook_lists built."""
    rho = default_rho(shape.n) if rho is None else _character(rho, "rho")
    if shape.n == 0 and rho == (0, 0):
        # no weight to name; at n > 0 the wall scan below names the first
        raise NonGenericError(
            "non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with every weight"
        )
    width = shape.n + 1
    tables = []
    for u, v in shape.charts:
        pu, pv = rho.a * u.a + rho.b * u.b, rho.a * v.a + rho.b * v.b
        neg = [0] * (width * width)  # coded (arm, leg) -> its negative weights
        on_wall = False
        for h in shape.pairs:
            a, l = divmod(h, width)
            p1, p2 = (a + 1) * pu - l * pv, (l + 1) * pv - a * pu
            on_wall = on_wall or not (p1 and p2)
            neg[h] = (p1 < 0) + (p2 < 0)
        if on_wall:
            # rho is on a wall: cell_dimension raises at its first zero weight
            for s in shape.hooks:
                for lam in enumerate_partitions(s):
                    cell_dimension(tangent_weights(lam, u, v), rho)
        table: CellTable = {}
        for s, hl in shape.hooks.items():
            counts = table[s] = {}
            for hs in hl:
                d = sum(map(neg.__getitem__, hs))
                counts[d] = counts.get(d, 0) + 1
        tables.append(table)
    if shape.charts == (AFFINE_CHART,) and (rho.a <= 0 or rho.b <= 0):
        # after the wall scan, so a rho on a wall is still named as one
        raise ValueError(
            f"rho={tuple(rho)} does not contract the affine plane: "
            "both entries must be positive"
        )
    return rho, tables


def cell_tables(
    space: str, n: int, rho: Optional[CharVector] = None
) -> tuple[CharVector, list[CellTable]]:
    """The subgroup used and one cell table per chart of a Hilbert scheme.

    space "affine" has the single chart of the plane at size n; "p2" has
    the three charts of the projective plane at every size n..0, since a
    fixed point spreads n points over them. The (arm, leg) list of each
    partition is computed once, each pair coded as the int a*(n+1) + l,
    and shared by every chart. A chart pairs rho with its characters u
    and v once, to pu and pv; the two weights of a box then pair to
    (a+1)*pu - l*pv and (l+1)*pv - a*pu, worked out once per distinct
    (arm, leg) pair into a list of negative-weight counts indexed by its
    code, so a cell dimension sums list entries. With rho omitted it is
    default_rho(n), wall-free by proof and still scanned like any other.
    Only a rho on a wall builds weight vectors: cell_dimension over
    tangent_weights, in chart, size and partition order, raises
    NonGenericError naming the first zero weight. On the affine plane a
    rho off every wall must still have both entries positive, or no cell
    count is its Betti numbers: ValueError naming rho.

    The hook lists do not depend on rho: _hook_lists builds them and
    _cell_tables_at pairs them with one rho, so a caller that tries
    several subgroups at one size builds them once.
    """
    return _cell_tables_at(_hook_lists(space, n), rho)


def poincare_from_tables(tables: list[CellTable], n: int) -> PoincarePoly:
    """Poincare polynomial of the fixed points whose chart sizes sum to n.

    A fixed point's cell dimension is the sum of its charts' dimensions,
    so the cell counts are the convolution of the per-chart tables.
    """
    n = as_size(n, 0, "length")
    acc: CellTable = {0: {0: 1}}
    for table in tables:
        nxt: CellTable = {}
        for s1, dims1 in acc.items():
            for s2, dims2 in table.items():
                if s1 + s2 > n:
                    continue
                out = nxt.setdefault(s1 + s2, {})
                for d1, c1 in dims1.items():
                    for d2, c2 in dims2.items():
                        out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        acc = nxt
    return PoincarePoly({2 * d: c for d, c in acc.get(n, {}).items()})


def poincare_affine(n: int, rho: Optional[CharVector] = None) -> PoincarePoly:
    """Poincare polynomial of the Hilbert scheme of n points on the plane.

    With rho omitted default_rho(n) is used; a non-generic rho raises
    NonGenericError, and one with an entry <= 0 ValueError.
    """
    return poincare_from_tables(cell_tables("affine", n, rho)[1], n)


def fixed_points_p2(n: int) -> list[tuple[Partition, Partition, Partition]]:
    """All torus-fixed points of the Hilbert scheme of n points on P^2.

    Triples of partitions, one per chart of P2_CHART_WEIGHTS, with sizes
    summing to n, sizes enumerated in descending order chart by chart.
    """
    n = as_size(n, 0, "length")
    lams = [enumerate_partitions(s) for s in range(n + 1)]
    return [
        (la, lb, lc)
        for a in range(n, -1, -1)
        for b in range(n - a, -1, -1)
        for la in lams[a]
        for lb in lams[b]
        for lc in lams[n - a - b]
    ]


def poincare_p2(n: int, rho: Optional[CharVector] = None) -> PoincarePoly:
    """Poincare polynomial of the Hilbert scheme of n points on P^2.

    Equal to summing q^(2 dim) over fixed_points_p2(n), computed as a
    convolution of per-chart cell tables instead.
    """
    return poincare_from_tables(cell_tables("p2", n, rho)[1], n)


def poincare_punctual(n: int) -> PoincarePoly:
    """Poincare polynomial of the punctual locus: all n points at one point.

    The scaling action of the plane retracts the Hilbert scheme of n
    points on it onto the punctual locus at the origin (Ellingsrud and
    Stromme, Invent. Math. 87, 1987), so the two share their Betti numbers
    and this is poincare_affine(n), counted from the same cells.
    """
    if as_size(n, 0, "length") == 0:
        raise ValueError("punctual locus undefined for n = 0")
    return poincare_affine(n)
