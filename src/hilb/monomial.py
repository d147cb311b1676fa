"""Monomial-ideal realization of a partition.

Dictionary: box (r, c) of the diagram is the monomial x^c y^r of the
quotient basis; the ideal holds every monomial outside the diagram. The
minimal generators sit at the inner corners of the staircase, the socle
at the outer (removable) corners, and consecutive generators are tied by
one bidiagonal column of first syzygies.

All arithmetic is exponent arithmetic on integers; no polynomial algebra
package is involved, so the maximal-minor check is exact by construction.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

from .errors import as_size
from .partitions import Partition, as_partition


class Monomial(NamedTuple):
    xexp: int
    yexp: int

    def __str__(self) -> str:
        if self.xexp == 0 and self.yexp == 0:
            return "1"
        out = ""
        if self.xexp:
            out += "x" if self.xexp == 1 else f"x^{self.xexp}"
        if self.yexp:
            out += "y" if self.yexp == 1 else f"y^{self.yexp}"
        return out


class Term(NamedTuple):
    """A monomial with an integer sign, for syzygy-matrix entries and minors."""

    coeff: int
    monomial: Monomial

    def times(self, other: "Term") -> "Term":
        return Term(
            self.coeff * other.coeff,
            Monomial(
                self.monomial.xexp + other.monomial.xexp,
                self.monomial.yexp + other.monomial.yexp,
            ),
        )

    def __str__(self) -> str:
        body = str(self.monomial)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


class StaircaseIdeal(NamedTuple):
    """Monomial ideal of a partition: shape plus minimal generators.

    Generators are sorted by xexp ascending (so yexp strictly descending).
    """

    shape: Partition
    generators: tuple[Monomial, ...]

    def contains(self, m) -> bool:
        """Membership of a Monomial or any (x, y) exponent pair: it lies
        outside the diagram.

        A non-pair is a ValueError; both exponents go through
        errors.as_size with least 0.
        """
        try:
            x, y = m
        except (TypeError, ValueError):
            raise ValueError(f"a monomial must be an (x, y) exponent pair, got {m!r}") from None
        x = as_size(x, 0, "x exponent")
        y = as_size(y, 0, "y exponent")
        parts = self.shape
        return y >= len(parts) or x >= parts[y]

    def quotient_basis(self) -> list[Monomial]:
        """Monomials inside the diagram, row-major."""
        return [Monomial(b.col, b.row) for b in self.shape.boxes()]

    def socle(self) -> list[Monomial]:
        """Quotient monomials killed by both x and y, row-major.

        Only the last box of a row can be killed by x, so only those boxes
        are tested, on their exponents, and only the socle is built.
        """
        parts = self.shape
        return [Monomial(parts[y] - 1, y) for y in _socle_rows(parts)]


def _socle_rows(parts: tuple[int, ...]) -> list[int]:
    """Rows y whose last box (x, y), x = parts[y] - 1, is killed by x and y.

    x takes it to (parts[y], y), outside the diagram for every row; y
    takes it to (x, y + 1), outside unless row y + 1 reaches column x.
    """
    last = len(parts) - 1
    return [y for y, part in enumerate(parts) if y == last or part > parts[y + 1]]


def staircase(lam) -> StaircaseIdeal:
    """Minimal monomial generators of the ideal cutting out the diagram.

    The empty partition gives the unit ideal, generated by 1.
    """
    lam = as_partition(lam)
    if not lam:
        return StaircaseIdeal(lam, (Monomial(0, 0),))
    gens = [Monomial(lam[0], 0)]
    for b in range(1, len(lam)):
        if lam[b] < lam[b - 1]:
            gens.append(Monomial(lam[b], b))
    gens.append(Monomial(0, len(lam)))
    gens.sort()
    return StaircaseIdeal(lam, tuple(gens))


def generator_count(lam) -> int:
    """Minimal number of local generators of the ideal.

    At the support point this is the staircase generator count: x^(first
    part), y^(number of rows), and one generator x^(part b) y^b at every
    row b shorter than the row above it, read off the parts without
    building the ideal. The empty partition is the unit ideal, the ideal
    at any point off the support, which is locally principal: its count
    is 1.
    """
    parts = as_partition(lam)
    if not parts:
        return 1
    return 2 + sum(map(operator.gt, parts, parts[1:]))


def socle_count(lam) -> int:
    """Dimension of the socle of the quotient (always generator_count - 1).

    Counts the row-end boxes killed by both x and y, as
    StaircaseIdeal.socle finds them, without building the ideal.
    """
    lam = as_partition(lam)
    if not lam:
        raise ValueError("socle undefined for the empty partition")
    return len(_socle_rows(lam))


class HilbertBurchMatrix(NamedTuple):
    """Bidiagonal g x (g-1) matrix of first syzygies of a staircase ideal.

    Rows run over the generators in xexp-descending order; column j ties
    generators j and j+1, with a y-power at (j, j) and minus an x-power
    at (j+1, j). Deleting row i and taking the determinant recovers
    generator i up to sign.
    """

    generators: tuple[Monomial, ...]
    entries: tuple[tuple[Optional[Term], ...], ...]

    @property
    def rows(self) -> int:
        return len(self.generators)

    @property
    def cols(self) -> int:
        return len(self.generators) - 1

    def minor(self, i: int) -> Term:
        """Determinant after deleting row i, as a signed monomial.

        Deleting row i leaves a block-triangular matrix, so the value is
        the product of the diagonal entries above the cut and the
        subdiagonal entries below it.
        """
        i = as_size(i, 0, "row index")
        if i >= self.rows:
            raise ValueError(f"row index out of range: {i}")
        return self.maximal_minors()[i]

    def maximal_minors(self) -> tuple[Term, ...]:
        """minor(i) for every row i, in O(g) for g rows.

        Minor i is the prefix product of the diagonal before i times the
        suffix product of the subdiagonal from i on. Each product is kept
        as its coefficient and two exponents, plain ints, and one Term is
        built per minor.
        """
        e, cols = self.entries, self.cols
        c, x, y = 1, 0, 0
        suffix = [(c, x, y)]
        for j in range(cols - 1, -1, -1):
            tc, (tx, ty) = e[j + 1][j]
            c, x, y = c * tc, x + tx, y + ty
            suffix.append((c, x, y))
        suffix.reverse()  # suffix[i] = product of the subdiagonal entries j >= i
        out = []
        c, x, y = 1, 0, 0
        for i, (sc, sx, sy) in enumerate(suffix):
            out.append(Term(c * sc, Monomial(x + sx, y + sy)))
            if i < cols:
                tc, (tx, ty) = e[i][i]
                c, x, y = c * tc, x + tx, y + ty
        return tuple(out)

    def matches_generators(self) -> bool:
        """One maximal minor per row, each its row's generator up to sign."""
        minors = self.maximal_minors()
        return len(minors) == self.rows and all(
            t.monomial == g and t.coeff in (1, -1) for t, g in zip(minors, self.generators)
        )

    def __str__(self) -> str:
        cells = [
            [str(self.entries[r][c]) if self.entries[r][c] else "0" for c in range(self.cols)]
            for r in range(self.rows)
        ]
        width = max((len(s) for row in cells for s in row), default=1)
        return "\n".join("[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells)


def hilbert_burch(lam) -> HilbertBurchMatrix:
    """Syzygy matrix between consecutive staircase generators."""
    lam = as_partition(lam)
    if not lam:
        raise ValueError("no syzygy matrix for the unit ideal (empty partition)")
    gens = tuple(sorted(staircase(lam).generators, key=lambda m: -m.xexp))
    g = len(gens)
    grid: list[list[Optional[Term]]] = [[None] * (g - 1) for _ in range(g)]
    for j in range(g - 1):
        # lcm of neighbours j, j+1 is x^{a_j} y^{b_{j+1}}
        grid[j][j] = Term(1, Monomial(0, gens[j + 1].yexp - gens[j].yexp))
        grid[j + 1][j] = Term(-1, Monomial(gens[j].xexp - gens[j + 1].xexp, 0))
    return HilbertBurchMatrix(gens, tuple(tuple(row) for row in grid))
