"""Strata dimension bounds of the nested Hilbert scheme.

Stratifying by the local generator count i, the dimension of each
stratum is bounded by bound(i, n) = 2n + 4 - 2i for 1 <= i <= n + 1. The
propagation step pushes bounds from size n to n+1 through the incidence
variety of nested subschemes of lengths (n, n+1): a stratum needing i
generators upstairs can only sit over strata needing i-1, i, or i+1
downstairs, the downstairs fiber adds j-1, and the upstairs fiber
subtracts i-2. From the exact size-1 table {1: 4, 2: 2}, induction on n
shows that the step yields this closed form at every size, so
strata_table writes it down directly.

In the ambient dimension 2n + 2 the stratum i >= 2 then has codimension
2i - 2, exactly the margin the blow-up description of the incidence
variety needs: codim >= i at i = 2 and codim >= i + 1 for i >= 3. The
strata-bounds check of `hilb verify` and `hilb strata` read these
codimensions off the table.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import Mapping, Optional

from .common import Record
from .errors import as_size


def _natural(x) -> int:
    """operator.index(x), or -1 for a value that is no integer."""
    try:
        return operator.index(x)
    except TypeError:
        return -1


class StrataBoundTable(Record):
    """Dimension bounds for the loci needing i local generators, fixed size n.

    Absent indices are genuinely empty strata (no propagation source),
    never encoded as 0 or a sentinel number. Propagated bounds may be
    vacuous for strata that happen to be empty; that is harmless, the
    bound still holds. `bounds` is a read-only copy of the caller's
    mapping, each index and bound stored as an exact int.
    """

    __slots__ = ("n", "bounds")

    def __init__(self, n: int, bounds: Mapping[int, int]):
        n = as_size(n, 1, "table size")
        table: dict[int, int] = {}
        for i, b in bounds.items():
            # exact ints, the common case, skip the call
            index = i if type(i) is int else _natural(i)
            bound = b if type(b) is int else _natural(b)
            if index < 1:
                raise ValueError(f"malformed table: bad index {i}")
            if bound < 0:
                raise ValueError(f"malformed table: bad bound {b} at i={i}")
            table[index] = bound
        if table.get(1) != 2 * n + 2:
            raise ValueError(
                f"malformed table: principal stratum must carry bound "
                f"{2 * n + 2} at size {n}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bounds", MappingProxyType(table))

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    @property
    def max_index(self) -> int:
        return max(self.bounds)

    def bound(self, i: int) -> Optional[int]:
        """Bound at index i, or None for an empty stratum."""
        return self.bounds.get(as_size(i, 1, "stratum index"))


def strata_base() -> StrataBoundTable:
    """Exact dimensions at size 1: the product surface and its diagonal."""
    return StrataBoundTable(1, {1: 4, 2: 2})


def strata_propagate(t: StrataBoundTable) -> StrataBoundTable:
    """Push bounds from size n to size n+1 through the nested scheme.

    bound(i, n+1) = max over nonempty j in {i-1, i, i+1} of
    bound(j, n) + (j - 1), minus (i - 2); the principal stratum is pinned
    to the full ambient dimension 2(n+1) + 2.
    """
    if not isinstance(t, StrataBoundTable):
        raise ValueError(f"malformed table: {t!r}")
    # score[j] = bound(j, n) + (j - 1) over j = 0 .. max_index + 2, or -1 for
    # an empty stratum; every real score is non-negative, so a window
    # maximum of -1 means no source
    score = [-1] * (t.max_index + 3)
    for j, b in t.bounds.items():
        score[j] = b + j - 1
    bounds = {1: 2 * t.n + 4}
    # the window score[i-1], score[i], score[i+1] for i = 2 .. max_index + 1
    for i, a, b, c in zip(range(2, len(score)), score[1:], score[2:], score[3:]):
        best = a if a > b else b
        if c > best:
            best = c
        if best >= 0:
            bounds[i] = best - i + 2
    return StrataBoundTable(t.n + 1, bounds)


def strata_table(n: int) -> StrataBoundTable:
    """Table at size n: bound(i, n) = 2n + 4 - 2i for 1 <= i <= n + 1.

    This is strata_base() pushed n - 1 times through strata_propagate, by
    induction on n. At n = 1 the form is the base {1: 4, 2: 2}. If the
    table at n has the form, the scores bound(j) + j - 1 are 2n + 2 at
    j = 1 and 2n + 3 - j for 2 <= j <= n + 1. The window maximum at i >= 2
    is then score(i - 1) = 2n + 4 - i (at i = 2 it is score(1) = 2n + 2,
    the same number), so bound(i, n + 1) = 2(n + 1) + 4 - 2i for
    2 <= i <= n + 2, and index n + 3 has no source. The strata-bounds
    check of `hilb verify` tests the base case and the step.
    """
    n = as_size(n, 1, "table size")
    return StrataBoundTable(n, {i: 2 * n + 4 - 2 * i for i in range(1, n + 2)})
