"""Nested pairs and projection fibers.

The incidence variety of nested subschemes of lengths (n, n+1) projects
to both Hilbert schemes. Over a fixed point its fibers are projective
spaces whose dimensions are read off the staircase: generator count
minus one downstairs, socle count minus one upstairs. A fiber P^k holds
k + 1 fixed points, so the generator sum at size n and the socle sum at
size n+1 both count the nested pairs: the three-way Euler cross-check.

The strata dimension bounds of this variety are in `hilb.strata`.
"""

from __future__ import annotations

from .common import Record
from .errors import ConsistencyError, as_size
from .monomial import generator_count, socle_count
from .partitions import Partition, as_partition, enumerate_partitions

# read here by perfbench/workloads.py until ROADMAP item 21 deletes it
from .strata import strata_table


class NestedPair(Record):
    """Partitions (lower, upper) with the upper diagram one box larger."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Partition, upper: Partition):
        lower, upper = as_partition(lower), as_partition(upper)
        if sum(upper) != sum(lower) + 1 or not upper.contains(lower):
            raise ValueError(f"not nested with one extra box: {lower} -> {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def nested_pairs(n: int) -> list[NestedPair]:
    """Fixed points of the nested Hilbert scheme of lengths (n, n+1)."""
    n = as_size(n, 0, "length")
    return [
        NestedPair(lam, mu)
        for lam in enumerate_partitions(n)
        for mu in lam.covers()
    ]


def euler_incidence(n: int) -> int:
    """Fixed-point count of the nested scheme, verified three ways.

    The pairs over each lambda of n are its covers, so they are counted,
    as the sum of len(lambda.covers()), and not built. That count, summed
    generator counts at size n, and summed socle counts at size n+1 must
    agree; disagreement raises ConsistencyError. The partitions of n are
    enumerated once, for the pair count and the generator sum.
    """
    n = as_size(n, 0, "length")
    lams = enumerate_partitions(n)
    pair_count = sum(len(lam.covers()) for lam in lams)
    gen_sum = sum(map(generator_count, lams))
    socle_sum = sum(map(socle_count, enumerate_partitions(n + 1)))
    if not pair_count == gen_sum == socle_sum:
        raise ConsistencyError(
            f"incidence count mismatch at n={n}: pairs {pair_count}, "
            f"generator sum {gen_sum}, socle sum {socle_sum}"
        )
    return pair_count
