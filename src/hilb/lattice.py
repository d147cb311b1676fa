"""Intersection lattices, blow-ups, and the Nakajima constants.

Blowing up n points adds n pairwise-orthogonal classes of self-pairing
-1, so the sum E of all exceptional classes has E.E = -n on any base.
That single integral drives the recurrence

    c_1 = 1,        c_{n+1} / (n+1) = c_n * (E.E) / n^2 = -c_n / n,

whose steps are exact integer divisions with the integrality of every
c_n asserted, and whose values the closed form (-1)^(n-1) n must
reproduce. The recurrence blows up the empty base once, at N - 1 points,
and carries the square of E = e_1 + ... + e_n on that lattice from step
to step, reading each e_n's stored entries once. The degree n+1 comes
from the generically finite projection of the one-point locus upstairs,
the 1/n^2 from pairing against the n-fold fiber class on both sides.
"""

from __future__ import annotations

from typing import Optional

from .common import DivisorClass, IntersectionLattice, Record
from .errors import ConsistencyError, as_int, as_size

# DivisorClass and IntersectionLattice live in the leaf module common, so
# the series layer takes a form without loading this one; both stay here too.


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
        values = tuple(as_int(v, "Nakajima constants must be integers") for v in values)
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
    step. Step n carries the square of E = e_1 + ... + e_n: it adds the
    entries of e_n's row and column up to e_n, 2 (E - e_n).e_n + e_n.e_n,
    grouped once from the lattice's entries. So the -n comes from the
    lattice's pairing, any wrong stored entry shows, and a run is O(N).
    Each step is the integer division c_n * (E.E) * (n+1) / n^2; a
    non-zero remainder raises ConsistencyError.
    """
    N = as_size(N, 1, "the number of constants")
    blown = blow_up(rank_zero_lattice(), N - 1)
    # grows[i]: the entries that E.E gains when e_(i+1) joins E
    grows = [0] * N
    for (i, j), x in blown.entries().items():
        grows[max(i, j)] += x
    values, e2 = [1], 0
    for n in range(1, N):
        e2 += grows[n - 1]
        step, rest = divmod(values[-1] * e2 * (n + 1), n * n)
        if rest:
            raise ConsistencyError(f"non-integral constant at n={n + 1}")
        values.append(step)
    return NakajimaSequence(tuple(values))
