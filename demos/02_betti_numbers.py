"""Betti numbers of Hilbert schemes from torus fixed points.

Each fixed point contributes one attracting cell whose dimension is the
number of negative tangent characters under a chosen one-parameter
subgroup rho. Summing q^(2 dim) over fixed points gives the Poincare
polynomial. The answer must not depend on which generic rho is used --
this script shows the bookkeeping and the independence.

Run:  python3 demos/02_betti_numbers.py
"""

from hilb import (
    AFFINE_CHART,
    CharVector,
    Partition,
    cell_dimension,
    enumerate_partitions,
    poincare_affine,
    poincare_p2,
    poincare_punctual,
    tangent_weights,
)

print("=== Tangent characters at the fixed points of length 2 ===")
rho = CharVector(3, 1)
for parts in ((2,), (1, 1)):
    lam = Partition(parts)
    ws = tangent_weights(lam, *AFFINE_CHART)
    pairings = [3 * a + 1 * b for a, b in ws]
    dim = cell_dimension(ws, rho)
    print(f"  {str(lam):6} weights {[tuple(w) for w in ws]}")
    print(f"         pairings with rho={tuple(rho)}: {pairings} -> cell dim {dim}")

print()
print("=== Affine plane: Poincare polynomials ===")
for n in range(7):
    print(f"  n={n}: {poincare_affine(n)}")
print("(the q^(2k) coefficient counts partitions of n with n-k parts)")

print()
print("=== Same computation in three different chambers ===")
n = 5
for rho in (CharVector(1, 6), CharVector(6, 1), CharVector(2, 13)):
    print(f"  rho={tuple(rho)!s:9} -> {poincare_affine(n, rho)}")
print("every generic rho gives the same polynomial; a non-generic one")
print("(zero pairing with some weight) raises NonGenericError instead of")
print("silently miscounting.")

print()
print("=== Projective plane: three charts glued ===")
for n in range(5):
    poly = poincare_p2(n)
    print(f"  n={n}: {poly}   (total fixed points: {poly.evaluate(1)})")
print("the n=2 polynomial 1 + 2q^2 + 3q^4 + 2q^6 + q^8 is the classical one.")

print()
print("=== Punctual locus: everything piled at one point ===")
# the closed form, one cell of dimension n - (largest part) per partition,
# beside the polynomial the tangent-weight cells give
for n in range(1, 8):
    dims = sorted(n - lam.parts[0] for lam in enumerate_partitions(n))
    print(f"  n={n}: cell dims {dims} -> {poincare_punctual(n)}")
print("one cell per partition, top dimension n-1: the locus is a cone of")
print("dimension n-1, exactly one dimension short of the n+1-dimensional")
print("locus where the support point is allowed to move.")
