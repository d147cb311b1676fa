"""Integer partitions and the box combinatorics of Young diagrams.

A partition of n indexes a torus-fixed point of the Hilbert scheme of n
points on the plane; its diagram is the quotient basis of the matching
monomial ideal. Everything downstream (tangent weights, staircase
generators, incidence counts) is driven by the combinatorics here.

Conventions, fixed once and used everywhere:
  * parts are weakly decreasing positive integers; the empty partition
    is allowed and stands for the empty subscheme;
  * boxes are 0-based (row, col) in English orientation, present iff
    col < parts[row];
  * arm = boxes strictly right of the box in its row,
    leg = boxes strictly below it in its column.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple

from .errors import as_int, as_size


class Box(NamedTuple):
    """A cell of a Young diagram, 0-based."""

    row: int
    col: int


class Partition(tuple):
    """Weakly decreasing tuple of positive integer parts.

    Equal to, hashed and ordered (lexicographically) as the plain tuple of
    its parts. Every instance, unpickled ones too, is shape-checked by _shaped.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        return _shaped([as_int(p, "parts must be positive integers") for p in parts])

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple."""
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    def __reduce__(self):
        return (Partition, (tuple(self),))

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"

    def box_in(self, box) -> bool:
        r, c = _coordinates(box)
        return 0 <= r < len(self) and 0 <= c < self[r]

    def boxes(self) -> Iterator[Box]:
        """All boxes, row-major."""
        for r, p in enumerate(self):
            for c in range(p):
                yield Box(r, c)

    def arm(self, box) -> int:
        """Boxes strictly to the right of `box` in its row."""
        if not self.box_in(box):
            raise ValueError(f"box not in partition: {tuple(box)} not in {self}")
        r, c = _coordinates(box)
        return self[r] - c - 1

    def leg(self, box) -> int:
        """Boxes strictly below `box` in its column."""
        if not self.box_in(box):
            raise ValueError(f"box not in partition: {tuple(box)} not in {self}")
        r, c = _coordinates(box)
        return sum(1 for rr in range(r + 1, len(self)) if self[rr] > c)

    def conjugate(self) -> "Partition":
        """Transpose the diagram."""
        return _shaped(self.column_lengths())

    def column_lengths(self) -> list[int]:
        """Column heights, left to right: the parts of the conjugate.

        One pass over rows and columns together, O(rows + columns).
        """
        rows = len(self)
        out = []
        for c in range(self[0] if self else 0):
            while self[rows - 1] <= c:
                rows -= 1
            out.append(rows)
        return out

    def distinct_part_count(self) -> int:
        return len(set(self))

    def contains(self, other: "Partition") -> bool:
        """Diagram containment, box by box."""
        if len(other) > len(self):
            return False
        return all(map(operator.le, other, self))

    def covers(self) -> list["Partition"]:
        """Partitions of size+1 whose diagram adds one box, by ascending row.

        There is one per addable corner; the count is always the number
        of distinct part values plus one (the new-row slot).
        """
        out = []
        r = 0
        while r < len(self):
            # r is the top row of its run of equal parts: the run's corner
            p = self[r]
            out.append(_shaped([*self[:r], p + 1, *self[r + 1 :]]))
            r += self.count(p)
        out.append(_shaped([*self, 1]))
        return out

    def cocovers(self) -> list["Partition"]:
        """Partitions of size-1 whose diagram removes one box, by ascending row.

        One per removable corner; the count equals the number of
        distinct part values.
        """
        if not self:
            raise ValueError("no cocovers: the empty partition has no removable box")
        out = []
        for r, p in enumerate(self):
            if p == (self[r + 1] if r + 1 < len(self) else 0):
                continue
            out.append(_shaped([*self[:r], *((p - 1,) if p > 1 else ()), *self[r + 1 :]]))
        return out


def _shaped(pts: list[int]) -> Partition:
    """Shape-check a list of parts already made ints; every Partition is built here."""
    # A weakly decreasing list whose last part is positive is valid;
    # anything else goes through the part-by-part scan for its error.
    if pts and (pts[-1] <= 0 or pts != sorted(pts, reverse=True)):
        pts = tuple(pts)
        for i, p in enumerate(pts):
            if p <= 0:
                raise ValueError(f"parts must be positive integers, got {p}")
            if i > 0 and pts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {pts}")
    return tuple.__new__(Partition, pts)


def _coordinates(box) -> tuple[int, int]:
    """(row, col) of a box, each coerced by as_int; ValueError unless a pair."""
    try:
        r, c = box
    except (TypeError, ValueError):
        raise ValueError(f"a box must be a (row, col) pair, got {box!r}") from None
    what = "box coordinates must be integers"
    return as_int(r, what), as_int(c, what)


def as_partition(lam) -> Partition:
    """Coerce a Partition or an iterable of parts to a Partition."""
    return lam if isinstance(lam, Partition) else Partition(lam)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    enumerate_partitions(3) gives (3), (2,1), (1,1,1).
    """
    return list(map(_shaped, _descending_lex(as_size(n, 0, "partition size"))))


def _descending_lex(n: int) -> Iterator[list[int]]:
    """Partitions of n as part lists, in descending lexicographic order.

    Iterative descending-composition generator (Zoghbi-Stojmenovic ZS1,
    the descending encoding compared by Kelleher and O'Sullivan,
    arXiv:0909.2331). x holds the parts followed by ones; m is the part
    count and h the index of the last part larger than 1. Each step
    lowers x[h] by one and refills the tail greedily with parts no larger
    than it, in constant amortised time per partition.
    """
    if n == 0:
        yield []
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield [n]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield x[:m]


def pentagonal_partition_count(n: int) -> int:
    """Partition count p(n) by Euler's pentagonal-number recurrence.

    p(m) = sum over k >= 1 of (-1)^(k-1) * (p(m - g_k) + p(m - g_k - k)),
    with g_k = k(3k-1)/2 and p of a negative number 0, is filled in bottom-up
    for m = 1..n, so no size reaches the recursion limit. Deliberately shares
    no code with enumerate_partitions so the two can cross-check each other.
    """
    n = as_int(n, "partition size must be an integer")
    if n < 0:
        return 0
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - g]
            if g + k <= m:
                total += sign * p[m - g - k]
            k += 1
        p.append(total)
    return p[n]
