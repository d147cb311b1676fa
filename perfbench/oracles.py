"""Expected values for the library-large workload, computed without hilb.

Every function here is written from the classical formula and imports
nothing from the program under test, so a wrong kernel cannot also
produce a matching oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        total += sign * partition_count(n - k * (3 * k - 1) // 2)
        total += sign * partition_count(n - k * (3 * k + 1) // 2)
        k += 1
    return total


@lru_cache(maxsize=None)
def partitions_with_parts(n: int, k: int) -> int:
    """Partitions of n into exactly k parts: p(n, k) = p(n-1, k-1) + p(n-k, k)."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return partitions_with_parts(n - 1, k - 1) + partitions_with_parts(n - k, k)


def affine_poincare(n: int) -> dict[int, int]:
    """Hilb^n(C^2): one cell of dimension n - length per partition."""
    if n == 0:
        return {0: 1}
    return {2 * (n - k): partitions_with_parts(n, k) for k in range(1, n + 1)}


def p2_fixed_point_count(n: int) -> int:
    """Sum over a + b + c = n of p(a) p(b) p(c)."""
    return sum(
        partition_count(a) * partition_count(b) * partition_count(n - a - b)
        for a in range(n + 1)
        for b in range(n - a + 1)
    )


def euler_product_counts(exponent, nmax: int) -> list[int]:
    """Coefficients of prod_m (1 - t^m)^(-exponent(m)) up to t^nmax.

    Uses the divisor-sum recurrence n a_n = sum_k (sum_{d | k} d c_d) a_{n-k}.
    """
    s = [sum(d * exponent(d) for d in range(1, k + 1) if k % d == 0) for k in range(nmax + 1)]
    out = [1]
    for n in range(1, nmax + 1):
        out.append(sum(s[k] * out[n - k] for k in range(1, n + 1)) // n)
    return out


def nested_pair_counts(nmax: int) -> list[int]:
    """Euler counts of the nested Hilbert schemes: the generating function is
    prod_m (1 - t^m)^(-1) times (1 - t)^(-1)."""
    return euler_product_counts(lambda m: 2 if m == 1 else 1, nmax)


def partitions_of(n: int, largest: int | None = None):
    """Plain recursive generator of the partitions of n as tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def nested_pair_count_by_parts(n: int) -> int:
    """Sum over partitions of n of (distinct parts + 1): one addable corner
    per distinct part value plus the new row."""
    return sum(len(set(lam)) + 1 for lam in partitions_of(n))


def product_series(betti: tuple[int, int, int, int, int], tmax: int) -> dict:
    """Bigraded series prod_{m, d} (1 - t^m u^(2m-2+d))^(-b_d), truncated at t^tmax.

    Returned as {(t-degree, u-degree): coefficient} without zero entries.
    Built one t-degree slice at a time, unlike the library's term-wise loops.
    """
    slices: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(tmax)]
    for m in range(1, tmax + 1):
        for d in (0, 2, 4):
            b = betti[d]
            if not b:
                continue
            du = 2 * m - 2 + d
            new = [dict() for _ in range(tmax + 1)]
            for t in range(tmax + 1):
                for j in range(t // m + 1):
                    mult = comb(b - 1 + j, j)
                    for u, c in slices[t - j * m].items():
                        key = u + j * du
                        new[t][key] = new[t].get(key, 0) + c * mult
            slices = new
    return {(t, u): c for t, sl in enumerate(slices) for u, c in sl.items() if c}


def truncate(series: dict, tmax: int) -> dict:
    return {k: c for k, c in series.items() if k[0] <= tmax}


def strata_bounds(n: int) -> dict[int, int]:
    """The stratum bounds 2n + 4 - 2i for i = 1 .. n + 1 (i = 1 is the ambient 2n + 2)."""
    return {i: 2 * n + 4 - 2 * i for i in range(1, n + 2)}


def nakajima_constants(n: int) -> tuple[int, ...]:
    return tuple((-1) ** (k - 1) * k for k in range(1, n + 1))


P2_PAIRING = {("1", "pt"): 1, ("pt", "1"): 1, ("h", "h"): 1}


def commutator_scalar(m: int, k: int, alpha: str, beta: str) -> int:
    """delta_{mk} (-1)^(m-1) m <alpha, beta> on the projective plane."""
    return (-1) ** (m - 1) * m * P2_PAIRING.get((alpha, beta), 0) if m == k else 0


def p2_probe_count(depth: int) -> int:
    """Creation monomials of t-weight <= depth on the plane: three classes per level."""
    return sum(euler_product_counts(lambda m: 3, depth))
