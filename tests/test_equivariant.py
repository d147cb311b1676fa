"""Torus weights, attracting-cell dimensions, and Betti polynomials."""

import pickle

import pytest

from hilb import equivariant
from hilb import (
    AFFINE_CHART,
    P2_CHART_WEIGHTS,
    CharVector,
    NonGenericError,
    Partition,
    PoincarePoly,
    cell_dimension,
    cell_tables,
    default_rho,
    enumerate_partitions,
    fixed_points_p2,
    format_poly,
    poincare_affine,
    poincare_from_tables,
    poincare_p2,
    poincare_punctual,
    tangent_weights,
)

STD = AFFINE_CHART


def chamber_triple(n):
    # three generic positive one-parameter subgroups
    return (
        CharVector(1, n + 1),
        CharVector(n + 1, 1),
        CharVector(2, 2 * n + 3),
    )


def affine_betti_oracle(n):
    # closed form: one cell of dimension n - (number of parts) per partition
    coeffs = {}
    for lam in enumerate_partitions(n):
        d = 2 * (n - len(lam))
        coeffs[d] = coeffs.get(d, 0) + 1
    return coeffs


def test_tangent_weights_two_boxes_frozen():
    assert sorted(tangent_weights(Partition((2,)), *STD)) == sorted(
        [(2, 0), (-1, 1), (1, 0), (0, 1)]
    )
    assert sorted(tangent_weights(Partition((1, 1)), *STD)) == sorted(
        [(0, 2), (1, -1), (0, 1), (1, 0)]
    )


def test_tangent_weights_single_box():
    assert sorted(tangent_weights(Partition((1,)), *STD)) == [(0, 1), (1, 0)]


def test_degenerate_chart_rejected():
    with pytest.raises(ValueError, match="degenerate chart"):
        tangent_weights(Partition((1,)), CharVector(1, 0), CharVector(2, 0))
    # chart characters are pairs of integers; bools pass
    for u, shown in (
        ((1.5, 0), r"chart character entries must be integers, got 1\.5"),
        (("1", 0), "chart character entries must be integers, got '1'"),
        ((1, 0, 0), r"chart character must be a pair of integers, got \(1, 0, 0\)"),
    ):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            tangent_weights(Partition((1,)), u, (0, 1))
    assert tangent_weights(Partition((1,)), (True, False), (0, 1)) == [(1, 0), (0, 1)]


def test_cell_dimension_frozen():
    rho = CharVector(3, 1)
    assert cell_dimension(tangent_weights(Partition((2,)), *STD), rho) == 1
    assert cell_dimension(tangent_weights(Partition((1, 1)), *STD), rho) == 0
    assert cell_dimension(tangent_weights(Partition((1,)), CharVector(1, 0), CharVector(0, 1)), CharVector(5, 7)) == 0


def test_cell_dimension_rejects_zero_pairing():
    weights = tangent_weights(Partition((1, 1)), *STD)  # contains (1, -1)
    with pytest.raises(NonGenericError, match="non-generic"):
        cell_dimension(weights, CharVector(1, 1))
    with pytest.raises(ValueError, match=r"^rho entries must be integers, got 1\.5$"):
        cell_dimension(weights, (1.5, 1))


def test_poincare_poly_type():
    poly = PoincarePoly({0: 1, 2: 2, 4: 1})
    assert poly.coefficient(2) == 2
    assert poly.coefficient(6) == 0
    assert poly.degree == 4
    assert poly.evaluate(1) == 4
    assert str(poly) == "1 + 2q^2 + q^4"
    with pytest.raises(ValueError):
        PoincarePoly({1: 1})
    with pytest.raises(ValueError):
        PoincarePoly({2: -1})
    # degrees and coefficients are integers; bools pass
    for coeffs, shown in (
        ({2: 1.5}, r"coefficients must be integers, got 1\.5"),
        ({2.0: 1}, r"degrees must be integers, got 2\.0"),
        ({"2": 1}, r"degrees must be integers, got '2'"),
    ):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            PoincarePoly(coeffs)
    assert PoincarePoly({False: True}) == PoincarePoly({0: 1})
    # coefficient(2.5) used to answer 0
    with pytest.raises(ValueError, match=r"^degrees must be integers, got 2\.5$"):
        PoincarePoly({0: 1, 2: 1}).coefficient(2.5)
    assert PoincarePoly({0: 1, 2: 1}).coefficient(False) == 1
    # evaluate(0.5) used to answer the float 1.3125
    with pytest.raises(ValueError, match=r"^evaluation points must be integers, got 0\.5$"):
        poly.evaluate(0.5)
    assert poly.evaluate(True) == 4
    assert format_poly({0: 1, 2: 1}, "u") == "1 + u^2"
    # the coefficient map is read-only, so no odd or negative term gets in
    with pytest.raises(TypeError):
        poly.coeffs[3] = -7
    with pytest.raises(AttributeError, match="^PoincarePoly is immutable$"):
        poly.coeffs = {3: -7}
    assert str(poly) == "1 + 2q^2 + q^4"
    copy = pickle.loads(pickle.dumps(poly))
    assert (copy, hash(copy), repr(copy)) == (poly, hash(poly), "PoincarePoly({0: 1, 2: 2, 4: 1})")


def test_poincare_affine_frozen():
    assert poincare_affine(0).coeffs == {0: 1}
    assert poincare_affine(1).coeffs == {0: 1}
    assert poincare_affine(2).coeffs == {0: 1, 2: 1}
    assert str(poincare_affine(3)) == "1 + q^2 + q^4"


def test_default_rho_is_generic(size_gate):
    # default_rho(2.5) used to answer (1, 13.5)
    size_gate(default_rho, "length", 0)
    for n in range(11):
        rho = default_rho(n)
        assert rho.a == 1 and rho.b > 2 * n * n
        assert poincare_affine(n, rho).coeffs == affine_betti_oracle(n)
    # the proof in default_rho's docstring: every box of a partition of
    # size <= n has a + l <= n - 1, and none of its weights is on a wall
    for n in range(61):
        rho = default_rho(n)
        for a in range(n):
            for l in range(n - a):
                for u, v in P2_CHART_WEIGHTS:
                    for w in (
                        ((a + 1) * u.a - l * v.a, (a + 1) * u.b - l * v.b),
                        (-a * u.a + (l + 1) * v.a, -a * u.b + (l + 1) * v.b),
                    ):
                        assert rho.a * w[0] + rho.b * w[1] != 0, (n, a, l, u, v)


def test_fixed_points_p2_counts(size_gate):
    size_gate(fixed_points_p2, "length", 0)
    for n, want in enumerate([1, 3, 9, 22]):
        pts = fixed_points_p2(n)
        assert len(pts) == want
        for pt in pts:
            assert len(pt) == 3
            assert sum(p.size for p in pt) == n


def test_fixed_points_p2_order():
    # sizes descend chart by chart, partitions in enumerate_partitions order
    for n in range(6):
        assert fixed_points_p2(n) == [
            (la, lb, lc)
            for a in range(n, -1, -1)
            for b in range(n - a, -1, -1)
            for la in enumerate_partitions(a)
            for lb in enumerate_partitions(b)
            for lc in enumerate_partitions(n - a - b)
        ]


def test_poincare_p2_frozen():
    assert str(poincare_p2(0)) == "1"
    assert str(poincare_p2(1)) == "1 + q^2 + q^4"
    assert str(poincare_p2(2)) == "1 + 2q^2 + 3q^4 + 2q^6 + q^8"


def test_poincare_p2_shape():
    for n in range(5):
        poly = poincare_p2(n)
        assert poly.evaluate(1) == len(fixed_points_p2(n))
        assert poly.degree <= 4 * n
        # Poincare duality of a smooth projective variety of dimension 2n
        assert all(
            poly.coefficient(d) == poly.coefficient(4 * n - d)
            for d in range(0, 4 * n + 1, 2)
        )


def test_chamber_independence_affine():
    for n in range(13):
        first, *rest = [poincare_affine(n, rho) for rho in chamber_triple(n)]
        assert all(p == first for p in rest)
        assert first == poincare_affine(n)


def test_chamber_independence_p2():
    # P^2 is compact, so the triple turned a quarter out of the positive
    # quadrant counts the same cells
    for n in range(9):
        rhos = [*chamber_triple(n), *(CharVector(-b, a) for a, b in chamber_triple(n))]
        first, *rest = [poincare_p2(n, rho) for rho in rhos]
        assert all(p == first for p in rest)
        assert first == poincare_p2(n)


def test_p2_chart_weights_constant():
    assert P2_CHART_WEIGHTS == (
        (CharVector(1, 0), CharVector(0, 1)),
        (CharVector(-1, 0), CharVector(-1, 1)),
        (CharVector(0, -1), CharVector(1, -1)),
    )


def test_punctual_cells_frozen():
    assert poincare_punctual(1) == PoincarePoly({0: 1})
    assert poincare_punctual(2) == PoincarePoly({0: 1, 2: 1})
    assert str(poincare_punctual(3)) == "1 + q^2 + q^4"
    assert str(poincare_punctual(4)) == "1 + q^2 + 2q^4 + q^6"
    assert str(poincare_punctual(6)) == "1 + q^2 + 2q^4 + 3q^6 + 3q^8 + q^10"
    with pytest.raises(ValueError, match="^punctual locus undefined for n = 0$"):
        poincare_punctual(0)
    with pytest.raises(ValueError, match="^length must be at least 0, got -2$"):
        poincare_punctual(-2)
    for bad, shown in ((2.5, r"2\.5"), ("3", "'3'")):
        with pytest.raises(ValueError, match=f"^length must be an integer, got {shown}$"):
            poincare_punctual(bad)
    assert poincare_punctual(True) == poincare_punctual(1)


def brute_poincare_p2(n, rho=None):
    # the former route: every fixed point's whole weight list, one by one
    wlists = [
        [w for lam, (u, v) in zip(pt, P2_CHART_WEIGHTS) for w in tangent_weights(lam, u, v)]
        for pt in fixed_points_p2(n)
    ]
    if rho is None:
        rho = default_rho(n)
    return rho, PoincarePoly.from_cell_dims(cell_dimension(ws, rho) for ws in wlists)


def test_poincare_p2_matches_fixed_point_sum():
    for n in range(8):
        rho, want = brute_poincare_p2(n)
        assert poincare_p2(n) == want
        assert cell_tables("p2", n)[0] == rho
        for rho in (CharVector(1, 2 * n * n + 3), CharVector(2, 4 * n * n + 7)):
            assert poincare_p2(n, rho) == brute_poincare_p2(n, rho)[1]


def test_poincare_affine_rho_matches_partition_weights():
    for n in range(10):
        rho = default_rho(n)
        weights = [tangent_weights(lam, *STD) for lam in enumerate_partitions(n)]
        assert cell_tables("affine", n)[0] == rho
        assert poincare_affine(n) == PoincarePoly.from_cell_dims(
            cell_dimension(ws, rho) for ws in weights
        )


def test_poincare_p2_wall_rho_rejected():
    # (1, 1) pairs to zero with the chart-0 weight (1, -1) of the column (1, 1)
    for rho in (CharVector(1, 1), CharVector(0, 1), CharVector(1, 0)):
        with pytest.raises(NonGenericError, match="non-generic"):
            poincare_p2(3, rho)
        with pytest.raises(NonGenericError):
            brute_poincare_p2(3, rho)
    # a float rho used to hide the wall (1, 3) under rounding and return
    # ... + 7q^16 + q^18 + q^20; a non-integer or non-pair rho is refused
    for call, n, rho, shown in (
        (poincare_p2, 5, (0.1, 0.3), r"rho entries must be integers, got 0\.1"),
        (poincare_affine, 2, ("1", "2"), "rho entries must be integers, got '1'"),
        (poincare_affine, 2, (1, 2, 3), r"rho must be a pair of integers, got \(1, 2, 3\)"),
        (poincare_affine, 2, 5, "rho must be a pair of integers, got 5"),
    ):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            call(n, rho)


def test_cell_tables_rejects_unknown_space(size_gate):
    with pytest.raises(ValueError):
        cell_tables("punctual", 2)
    # every Betti entry point takes its length through errors.as_size
    size_gate(lambda n: cell_tables("p2", n), "length", 0)
    size_gate(poincare_affine, "length", 0)
    size_gate(poincare_p2, "length", 0)
    tables = cell_tables("affine", 2)[1]
    size_gate(lambda n: poincare_from_tables(tables, n), "length", 0)


def reference_tables(space, n, rho):
    # the independent route: every (chart, partition) weight list, in order
    charts, sizes = (
        ((AFFINE_CHART,), (n,)) if space == "affine" else (P2_CHART_WEIGHTS, range(n, -1, -1))
    )
    tables = []
    for u, v in charts:
        table = {}
        for s in sizes:
            counts = table[s] = {}
            for lam in enumerate_partitions(s):
                d = cell_dimension(tangent_weights(lam, u, v), rho)
                counts[d] = counts.get(d, 0) + 1
        tables.append(table)
    return tables


def outcome(tables):
    # the tables, or the message of the wall or rho that refused them
    try:
        return tables()
    except ValueError as e:
        return str(e)


def not_contracting(rho):
    return f"rho={tuple(rho)} does not contract the affine plane: both entries must be positive"


@pytest.mark.parametrize("space, top", [("affine", 8), ("p2", 5)])
def test_cell_tables_match_reference_on_every_small_rho(space, top):
    walls = 0
    for n in range(top + 1):
        for a in range(-6, 7):
            for b in range(-6, 7):
                rho = CharVector(a, b)
                got = outcome(lambda: cell_tables(space, n, rho)[1])
                if n == 0 and rho == (0, 0):
                    # no weight exists to pair with, yet the zero subgroup is refused
                    assert got == "non-generic one-parameter subgroup: rho=(0, 0) pairs to zero with every weight"
                    continue
                want = outcome(lambda: reference_tables(space, n, rho))
                if space == "affine" and min(rho) <= 0 and not isinstance(want, str):
                    # off every wall, yet it does not contract the plane
                    want = not_contracting(rho)
                assert got == want, (n, rho)
                walls += isinstance(got, str) and got.startswith("non-generic")
    assert walls > 0
    assert cell_tables("p2", 3, (1, 19)) == cell_tables("p2", 3, CharVector(1, 19))



def test_cell_tables_reach_the_longest_arm_and_leg():
    # (12) and (1^12) hold the arms and legs up to n - 1 = 11, the largest
    # codes of the hook lists
    n = 12
    for lam in (Partition((n,)), Partition((1,) * n)):
        arms = [n - 1 - c for c in range(n)]
        legs = [0] * n
        if lam != Partition((n,)):
            arms, legs = legs, arms
        assert equivariant._arm_legs(lam, n + 1) == [
            a * (n + 1) + l for a, l in zip(arms, legs)
        ]
    for rho in (default_rho(n), CharVector(2 * n, 1), CharVector(1, -2 * n),
                CharVector(2 * n, -1), CharVector(-3, 40)):
        assert cell_tables("p2", n, rho)[1] == reference_tables("p2", n, rho), rho
        want = reference_tables("affine", n, rho) if min(rho) > 0 else not_contracting(rho)
        assert outcome(lambda: cell_tables("affine", n, rho)[1]) == want, rho


def test_arm_leg_codes_match_the_per_box_arm_and_leg():
    # the kernel's code of each box, in lam.boxes() order, against
    # Partition.arm and Partition.leg; a swap of the two shows here
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert equivariant._arm_legs(lam, n + 1) == [
                lam.arm(b) * (n + 1) + lam.leg(b) for b in lam.boxes()
            ], lam


def test_cell_tables_on_a_wall_name_the_first_zero_weight():
    # (2, 3) pairs to zero with the weight (-3, 2) of a box with arm 2, leg 1
    shown = "non-generic one-parameter subgroup: rho=(2, 3) pairs to zero with weight (-3, 2)"
    for call in (
        lambda: cell_tables("affine", 5, CharVector(2, 3)),
        lambda: cell_tables("p2", 5, (2, 3)),
        lambda: poincare_affine(5, (2, 3)),
        lambda: poincare_p2(5, (2, 3)),
    ):
        with pytest.raises(NonGenericError) as err:
            call()
        assert str(err.value) == shown
    assert outcome(lambda: reference_tables("p2", 5, CharVector(2, 3))) == shown
