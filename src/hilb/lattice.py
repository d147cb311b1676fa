"""Intersection lattices, blow-ups, and the Nakajima constants.

Blowing up n points adds n pairwise-orthogonal classes of self-pairing
-1, so the sum E of all exceptional classes has E.E = -n on any base.
That single integral drives the recurrence

    c_1 = 1,        c_{n+1} / (n+1) = c_n * (E.E) / n^2 = -c_n / n,

whose steps are exact integer divisions with the integrality of every
c_n asserted, and whose values the closed form (-1)^(n-1) n must
reproduce. The recurrence blows up the empty base once, at N - 1 points,
and step n pairs E = e_1 + ... + e_n with itself on that lattice. The
degree n+1 comes from the generically finite projection of the one-point
locus upstairs, the 1/n^2 from pairing against the n-fold fiber class on
both sides.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .common import Record
from .errors import ConsistencyError, as_int, as_size


class DivisorClass(Record):
    """Integer coordinate vector in a fixed lattice basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        coords = tuple(coords)
        # exact ints need no coercion, and the recurrence builds a long class per step
        if not {int}.issuperset(map(type, coords)):
            coords = tuple(as_int(c, "coordinates must be integers") for c in coords)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coords) != len(other.coords):
            raise ValueError("cannot add classes of different rank")
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "DivisorClass":
        k = as_int(k, "a class scales by integers only")
        return DivisorClass(tuple(k * a for a in self.coords))


class IntersectionLattice:
    """Free abelian group with a symmetric integer pairing and named basis.

    The pairing is stored sparsely, as a {column: value} dict of the
    nonzero entries of each row that has any; `gram` is the dense view.
    Instances are immutable.
    """

    __slots__ = ("labels", "_rows")

    def __init__(self, gram, labels):
        gram = tuple(map(tuple, gram))
        labels = tuple(labels)
        r = len(labels)
        if len(gram) != r or any(len(row) != r for row in gram):
            raise ValueError(f"gram matrix must be {r} x {r}")
        self._set({(i, j): x for i, row in enumerate(gram) for j, x in enumerate(row)}, labels)

    @classmethod
    def from_entries(
        cls, entries: Mapping[tuple[int, int], int], labels
    ) -> "IntersectionLattice":
        """Lattice from its nonzero Gram entries {(i, j): value}, in O(entries)."""
        lattice = cls.__new__(cls)
        lattice._set(entries, labels)
        return lattice

    def _set(self, entries: Mapping[tuple[int, int], int], labels) -> None:
        """Store the nonzero entries after the label, integrality, range and symmetry checks."""
        labels = tuple(labels)
        r = len(labels)
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"basis labels must be strings, got {label!r}")
        if len(set(labels)) != r:
            raise ValueError(f"duplicate basis labels in {labels}")
        rows: dict[int, dict[int, int]] = {}
        for (i, j), x in entries.items():
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"gram entry ({i}, {j}) outside a {r} x {r} matrix")
            x = as_int(x, "gram entries must be integers")
            if x:
                rows.setdefault(i, {})[j] = x
        for i, row in rows.items():
            for j, x in row.items():
                if rows.get(j, {}).get(i) != x:
                    raise ValueError(f"gram matrix not symmetric at ({i}, {j})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (IntersectionLattice.from_entries, (self.entries(), self.labels))

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix, built on each access."""
        empty: dict[int, int] = {}
        return tuple(
            tuple(self._rows.get(i, empty).get(j, 0) for j in range(self.rank))
            for i in range(self.rank)
        )

    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero Gram entries as {(i, j): value}."""
        return {(i, j): x for i, row in self._rows.items() for j, x in row.items()}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntersectionLattice)
            and self.labels == other.labels
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.labels, frozenset(self.entries().items())))

    def __repr__(self) -> str:
        return f"IntersectionLattice(gram={self.gram!r}, labels={self.labels!r})"

    def cls(self, label: str) -> DivisorClass:
        """Basis class by name."""
        if label not in self.labels:
            raise ValueError(f"no basis class named {label!r}")
        i = self.labels.index(label)
        return DivisorClass(tuple(1 if j == i else 0 for j in range(self.rank)))

    def pair(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Intersection number, summed over the stored entries only."""
        c1, c2 = d1.coords, d2.coords
        if len(c1) != self.rank or len(c2) != self.rank:
            raise ValueError(
                f"coordinate length mismatch: lattice rank {self.rank}, "
                f"classes of length {len(c1)} and {len(c2)}"
            )
        total = 0
        for i, row in self._rows.items():
            a = c1[i]
            if a:
                for j, x in row.items():
                    b = c2[j]
                    if b:
                        total += a * x * b
        return total


def p2_lattice() -> IntersectionLattice:
    """Rank-one lattice of the projective plane: H with H.H = 1."""
    return IntersectionLattice(((1,),), ("H",))


def rank_zero_lattice() -> IntersectionLattice:
    """The empty base, for purely exceptional computations."""
    return IntersectionLattice((), ())


def blow_up(L: IntersectionLattice, k: int) -> IntersectionLattice:
    """Adjoin k exceptional classes: self-pairing -1, orthogonal to everything.

    Old classes keep their pairings; the new classes are numbered E<m+1>,
    E<m+2>, ... after the largest m of any existing E<digits> label.
    """
    k = as_size(k, 0, "the number of blown-up points")
    r = L.rank
    taken = [int(lbl[1:]) for lbl in L.labels if lbl[:1] == "E" and lbl[1:].isdecimal()]
    start = max(taken, default=0) + 1
    labels = L.labels + tuple(f"E{start + i}" for i in range(k))
    entries = L.entries()
    for i in range(r, r + k):
        entries[(i, i)] = -1
    return IntersectionLattice.from_entries(entries, labels)


def exceptional_total_square(n: int, base: Optional[IntersectionLattice] = None) -> int:
    """Self-intersection of the sum of all n exceptional classes: always -n.

    Computed through the lattice pairing, never short-circuited, so the
    orthogonality bookkeeping is exercised on every call.
    """
    n = as_size(n, 1, "the number of exceptional classes")
    if base is None:
        base = rank_zero_lattice()
    blown = blow_up(base, n)
    r = base.rank
    total = DivisorClass(tuple(0 if i < r else 1 for i in range(blown.rank)))
    return blown.pair(total, total)


def nakajima_closed_form(n: int) -> int:
    """The n-th Nakajima constant, (-1)^(n-1) n."""
    n = as_size(n, 1, "constant index")
    return (-1) ** (n - 1) * n


class NakajimaSequence(Record):
    """Constants c_1..c_N with the sign/size invariants enforced on build."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        if not values:
            raise ValueError("empty sequence")
        if values[0] != 1:
            raise ConsistencyError(f"c_1 must be 1, got {values[0]}")
        for idx, c in enumerate(values, start=1):
            if abs(c) != idx:
                raise ConsistencyError(f"|c_{idx}| must be {idx}, got {c}")
            if idx >= 2 and c * values[idx - 2] >= 0:
                raise ConsistencyError(f"signs must alternate at c_{idx}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, n: int) -> int:
        """c_n, 1-indexed."""
        n = as_size(n, 1, "constant index")
        if n > len(self.values):
            raise ValueError(f"index out of range: {n}")
        return self.values[n - 1]


def nakajima_recurrence(N: int) -> NakajimaSequence:
    """Constants c_1..c_N by the exceptional-class recurrence.

    One lattice, the empty base blown up at N - 1 points, serves every
    step: step n pairs e_1 + ... + e_n with itself through
    IntersectionLattice.pair, so each -n factor comes from the lattice's
    pairing, in O(N) work. Each step is the integer division
    c_n * (E.E) * (n+1) / n^2; a non-zero remainder raises ConsistencyError.
    """
    N = as_size(N, 1, "the number of constants")
    blown = blow_up(rank_zero_lattice(), N - 1)
    values = [1]
    for n in range(1, N):
        total = DivisorClass((1,) * n + (0,) * (N - 1 - n))
        e2 = blown.pair(total, total)
        step, rest = divmod(values[-1] * e2 * (n + 1), n * n)
        if rest:
            raise ConsistencyError(f"non-integral constant at n={n + 1}")
        values.append(step)
    return NakajimaSequence(tuple(values))
