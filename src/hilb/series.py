"""Goettsche-type generating series of surfaces with even cohomology.

The bigraded Betti series of all Hilbert schemes of points on a surface
with even cohomology (b0, 0, b2, 0, b4) is the product over levels
m >= 1 and even degrees d of (1 - t^m u^(2m-2+d))^(-b_d). The same
series is the character of a free commutative algebra with one creation
generator a_{-m}(gamma) of bidegree (m, 2m-2+deg gamma) per level and
cohomology class; `hilb.heisenberg` builds the Fock model on it.

The two series are computed by deliberately different routes so their
coefficient-wise equality is a real cross-check:
  * goettsche_series expands each Betti-indexed factor with
    negative-binomial coefficients;
  * fock_character multiplies one plain geometric series per creation
    generator and never touches a binomial.
Both keep the t^n row of the series as one packed int, whose slot h of
_slot_bits(surface, truncation) bits holds the coefficient of u^(2h), so
multiplying a row by t^m u^(2k) is one shift and adding rows is one
integer addition. A slot is one bit wider than p_chi(T), the number of
chi-coloured partitions of the truncation T, which bounds every
coefficient; so no slot ever carries into the next (_slot_bits proves
the width), and one unpacker builds the validated GradedSeries.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Optional

from .common import IntersectionLattice, Record, format_poly
from .errors import as_int, as_size

# The largest b2 a SurfaceModel takes. Its basis, pairing and default form
# grow linearly in b2 and are built before any series work: b2 = 100,000
# takes about 0.1 s, and an unbounded b2 grew until it exhausted memory.
MAX_B2 = 100_000


class SurfaceModel(Record):
    """Even-cohomology surface: Betti numbers plus the intersection pairing.

    The basis holds one class "1" in degree 0, the b2 classes of `h2` in
    degree 2, and one class "pt" in degree 4. The pairing couples "1" with
    "pt" with value 1 and degree-2 classes through `h2`, an
    IntersectionLattice of rank b2 (default: the identity form on
    e1..e_b2, built in O(b2)); no other block is nonzero. A b2 above
    MAX_B2 is refused before any of it is built. An immutable value
    defined by (betti, h2): it compares, hashes and pickles by them
    alone, and unpickling sends them back through `__init__`.
    `basis`, `_degrees` and `_pairing` are derived from them for the Fock
    kernels' lookups.
    """

    __slots__ = ("betti", "h2", "basis", "_degrees", "_pairing")
    _fields = ("betti", "h2")

    def __init__(
        self,
        betti: tuple[int, int, int, int, int],
        h2: Optional[IntersectionLattice] = None,
    ):
        betti = tuple(as_int(b, "Betti numbers must be integers") for b in betti)
        if len(betti) != 5:
            raise ValueError(f"need five Betti numbers, got {betti}")
        b0, b1, b2, b3, b4 = betti
        if b0 != 1 or b4 != 1:
            raise ValueError(f"a connected surface needs b0 = b4 = 1, got {betti}")
        if b1 != b3:
            raise ValueError(f"Betti numbers must be symmetric, got {betti}")
        if b1 != 0:
            raise ValueError("odd cohomology unsupported")
        if any(b < 0 for b in betti):
            raise ValueError(f"Betti numbers must be non-negative, got {betti}")
        if b2 > MAX_B2:
            raise ValueError(f"b2 must be at most {MAX_B2}, got {b2}")
        if h2 is None:
            h2 = IntersectionLattice.from_entries(
                {(i, i): 1 for i in range(b2)}, tuple(f"e{i + 1}" for i in range(b2))
            )
        if not isinstance(h2, IntersectionLattice):
            raise ValueError(f"h2 must be an IntersectionLattice, got {type(h2).__name__}")
        if h2.rank != b2:
            raise ValueError(f"h2 must have rank b2 = {b2}, got rank {h2.rank}")
        if {"1", "pt"} & set(h2.labels):
            raise ValueError('labels "1" and "pt" are reserved')

        basis = (("1", 0),) + tuple((lbl, 2) for lbl in h2.labels) + (("pt", 4),)
        pairing = {("1", "pt"): 1, ("pt", "1"): 1}
        for (i, j), x in h2.entries().items():
            pairing[(h2.labels[i], h2.labels[j])] = x
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_degrees", dict(basis))
        object.__setattr__(self, "_pairing", pairing)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.basis)

    def degree(self, label: str) -> int:
        try:
            return self._degrees[label]
        except (KeyError, TypeError):
            raise ValueError(f"no cohomology class named {label!r}") from None

    def pair(self, a: str, b: str) -> int:
        self.degree(a)
        self.degree(b)
        return self._pairing.get((a, b), 0)

    def euler_characteristic(self) -> int:
        return sum(self.betti)

    def __repr__(self) -> str:
        return f"SurfaceModel(betti={self.betti})"


def p2_surface() -> SurfaceModel:
    """The projective plane: Betti numbers (1, 0, 1, 0, 1), h.h = 1."""
    return SurfaceModel((1, 0, 1, 0, 1), IntersectionLattice(((1,),), ("h",)))


def k3_surface() -> SurfaceModel:
    """A K3-shaped model: Betti numbers (1, 0, 22, 0, 1), diagonal pairing."""
    return SurfaceModel((1, 0, 22, 0, 1))


class GradedSeries(Record):
    """Truncated bigraded series: integer coefficients on (t-degree, u-degree).

    Truncation is in the t-degree; u-degrees are even and bounded by 4n
    at t-degree n, which the constructor enforces. `coeffs` is a read-only
    view.
    """

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs: Optional[dict] = None):
        truncation = as_size(truncation, 0, "truncation")
        clean: dict[tuple[int, int], int] = {}
        for key, c in (coeffs or {}).items():
            try:
                n, m = key
            except (TypeError, ValueError):
                raise ValueError(
                    f"series keys must be (t-degree, u-degree) pairs, got {key!r}"
                ) from None
            # exact ints need no coercion, and every series term is built here
            if type(n) is not int or type(m) is not int or type(c) is not int:
                n = as_int(n, "t-degrees must be integers")
                m = as_int(m, "u-degrees must be integers")
                c = as_int(c, "series coefficients must be integers")
            if not 0 <= n <= truncation:
                raise ValueError(f"t-degree out of range: {n}")
            if m < 0 or m % 2 or m > 4 * n:
                raise ValueError(f"bad u-degree {m} at t-degree {n}")
            if c:
                clean[(n, m)] = c
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    def t_slice(self, n: int) -> dict[int, int]:
        """Coefficients of t^n as a {u-degree: coefficient} map, by ascending u-degree."""
        n = as_size(n, 0, "t-degree")
        if n > self.truncation:
            raise ValueError(f"t-degree out of range: {n}")
        get = self.coeffs.get
        return {m: c for m in range(0, 4 * n + 1, 2) if (c := get((n, m)))}

    def u_one(self, n: int) -> int:
        """Specialize u = 1 in the t^n slice (an Euler characteristic)."""
        return sum(self.t_slice(n).values())

    def slice_str(self, n: int) -> str:
        return format_poly(self.t_slice(n), "u")

    def __repr__(self) -> str:
        return f"GradedSeries(truncation={self.truncation}, terms={len(self.coeffs)})"


def _slot_bits(surface: SurfaceModel, truncation: int) -> int:
    """Bits per u-slot of a packed series row: bit_length(p_chi(T)) + 1.

    A packed row n is one int whose slot h, bits [h*B, (h+1)*B), holds
    the coefficient of t^n u^(2h). Slots never carry. Every factor of
    either product has non-negative coefficients and constant term 1, so
    no partial product or partial sum exceeds the final coefficient.
    With chi = sum(betti) classes there are chi generators per level, so
    the final row n sums at u = 1 to p_chi(n), the number of
    chi-coloured partitions of n, and each of its coefficients is at
    most p_chi(n) <= p_chi(T) for n <= T (adding a part 1 is an
    injection): its bit length is below B, so the top bit of every slot
    stays clear. Shifting row n - m by k = m - 1 + d/2 slots keeps
    h <= 2n, since row n - m ends at slot 2(n - m) and
    2(n - m) + k <= 2n - m + 1 <= 2n.

    p_chi(T) comes from the Euler transform of prod (1 - t^k)^(-chi),
    n a_n = chi * sum_k sigma(k) a_(n-k), and not from either series.
    """
    chi = surface.euler_characteristic()
    sigma = [0] * truncation  # sigma[k - 1]: the sum of the divisors of k
    for d in range(1, truncation + 1):
        for k in range(d - 1, truncation, d):
            sigma[k] += d
    counts = [1]  # p_chi(0), ..., p_chi(n - 1)
    for n in range(1, truncation + 1):
        counts.append(chi * sum(map(operator.mul, sigma, reversed(counts))) // n)
    return counts[-1].bit_length() + 1


def _series(rows: list[int], bits: int) -> GradedSeries:
    """The validated series whose t^n u^(2h) coefficient is slot h of rows[n]."""
    mask = (1 << bits) - 1
    coeffs = {}
    for n, row in enumerate(rows):
        h = 0
        while row:
            coeffs[(n, 2 * h)] = row & mask
            row >>= bits
            h += 1
    return GradedSeries(len(rows) - 1, coeffs)


def goettsche_series(surface: SurfaceModel, truncation: int) -> GradedSeries:
    """Bigraded Betti series of all Hilbert schemes of points on the surface.

    Product over levels m and even degrees d of
    (1 - t^m u^(2m-2+d))^(-b_d), truncated in t.

    Rows are packed ints (see _slot_bits). Multiplying by
    (1 - t^m u^(2k))^(-b) adds comb(b-1+j, j) times row n - jm, shifted
    by jk slots, to row n for every j >= 1. Rows are updated from the top
    down, so every row read is still without the factor.
    """
    truncation = as_size(truncation, 0, "truncation")
    bits = _slot_bits(surface, truncation)
    rows = [1] + [0] * truncation
    for m in range(1, truncation + 1):
        for d in (0, 2, 4):
            b = surface.betti[d]
            if not b:
                continue
            shift = (m - 1 + d // 2) * bits
            binomials = [math.comb(b - 1 + j, j) for j in range(truncation // m + 1)]
            for n in range(truncation, m - 1, -1):
                acc = rows[n]
                for j in range(1, n // m + 1):
                    acc += binomials[j] * rows[n - j * m] << j * shift
                rows[n] = acc
    return _series(rows, bits)


def fock_character(surface: SurfaceModel, truncation: int) -> GradedSeries:
    """Bigraded character of the free algebra on the creation generators.

    One plain geometric factor per generator a_{-m}(gamma); must agree
    with goettsche_series coefficient by coefficient.

    Rows are packed ints (see _slot_bits). Multiplying by
    1/(1 - t^m u^(2k)) is the in-place recurrence
    rows[n] += rows[n - m] << k slots over ascending n, since row n - m
    already carries the factor when row n reads it.
    """
    truncation = as_size(truncation, 0, "truncation")
    bits = _slot_bits(surface, truncation)
    rows = [1] + [0] * truncation
    for m in range(1, truncation + 1):
        for _, d in surface.basis:
            shift = (m - 1 + d // 2) * bits
            for n in range(m, truncation + 1):
                rows[n] += rows[n - m] << shift
    return _series(rows, bits)
