"""The incidence variety of nested subschemes and its strata bounds.

Pairs (length n inside length n+1) project two ways: forgetting the big
scheme (fibers = choices of where to grow, one per ideal generator) and
forgetting the small one (fibers = choices of where to shrink, one per
socle element). Both descriptions must count the same fixed points.
An induction on n then bounds the strata where the ideal needs many
generators; this script prints the audit trail.

Run:  python3 demos/03_incidence_and_strata.py
"""

from hilb import (
    Partition,
    euler_incidence,
    generator_count,
    nested_pairs,
    socle_count,
    strata_base,
    strata_propagate,
    strata_table,
)

print("=== Nested pairs at n = 3 ===")
for pr in nested_pairs(3):
    print(
        f"  {str(pr.lower):10} in {str(pr.upper):12} "
        f"generators {generator_count(pr.lower)} -> "
        f"{generator_count(pr.upper)}"
    )

print()
print("=== One count, three routes ===")
print("   n   pairs   sum of generator counts   sum of socle counts")
for n in range(9):
    total = euler_incidence(n)  # asserts all three routes agree
    print(f"  {n:2}   {total:5}   {total:23}   {total:19}")

print()
print("=== Fiber dimensions of the two projections ===")
# growing picks one generator to extend, shrinking one socle box to drop:
# projective spaces of dimension generator count - 1 and socle count - 1
for parts in ((1,), (3,), (2, 1), (4, 4, 2)):
    lam = Partition(parts)
    print(
        f"  {str(lam):10} growing: P^{generator_count(lam) - 1}   "
        f"shrinking: P^{socle_count(lam) - 1}"
    )

print()
print("=== Strata dimension bounds, propagated from n = 1 ===")
table = strata_base()
print("stratum i = locus where the ideal needs exactly i generators")
for _ in range(6):
    bounds = "  ".join(
        f"i={i}:{table.bound(i)}" for i in range(1, table.max_index + 1)
    )
    caps = "  ".join(
        f"{2 * table.n + 4 - 2 * i}" for i in range(1, table.max_index + 1)
    )
    print(f"  n={table.n}: bounds {bounds}   (caps 2n+4-2i: {caps})")
    table = strata_propagate(table)

print()
print("=== Codimension audit at n = 6 (ambient dimension 2n+2) ===")
table = strata_table(6)
satisfied = True
for i in range(2, table.max_index + 2):
    bound = table.bound(i)
    if bound is None:
        print(f"  i={i}: empty stratum (vacuous)")
        continue
    codim = table.ambient_dim - bound
    margin = codim - (2 * i - 2)
    satisfied = satisfied and margin >= 0
    print(
        f"  i={i}: bound {bound}, codim {codim}, "
        f"margin over 2i-2: {margin} -> {'ok' if margin >= 0 else 'FAIL'}"
    )
print(f"all hypotheses satisfied: {satisfied}")
print("codim >= i (i >= 2) and codim >= i+1 (i >= 3) are what the blow-up")
print("description of the incidence variety needs; both follow from the")
print("margin being non-negative.")
