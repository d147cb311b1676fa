"""Staircase ideals, socle counts, and determinantal matrices."""

import re

import pytest

from hilb import (
    Monomial,
    Partition,
    Term,
    enumerate_partitions,
    generator_count,
    hilbert_burch,
    socle_count,
    staircase,
)


def brute_minimal_generators(lam):
    # independent route: monomials outside the diagram whose two parents lie inside
    parts = lam.parts
    width = (parts[0] if parts else 0) + 2
    height = len(parts) + 2

    def inside(a, b):
        return b < len(parts) and a < parts[b]

    gens = set()
    for b in range(height):
        for a in range(width):
            if inside(a, b):
                continue
            if (a == 0 or inside(a - 1, b)) and (b == 0 or inside(a, b - 1)):
                gens.add((a, b))
    return gens


def exponents(ideal):
    return [(m.xexp, m.yexp) for m in ideal.generators]


def test_monomial_str():
    assert str(Monomial(0, 0)) == "1"
    assert str(Monomial(1, 0)) == "x"
    assert str(Monomial(0, 2)) == "y^2"
    assert str(Monomial(3, 1)) == "x^3y"


def test_staircase_frozen():
    assert exponents(staircase(Partition((1,)))) == [(0, 1), (1, 0)]
    assert exponents(staircase(Partition((2, 1)))) == [(0, 2), (1, 1), (2, 0)]
    assert exponents(staircase(Partition((3, 1)))) == [(0, 2), (1, 1), (3, 0)]
    assert exponents(staircase(Partition((5, 3, 3, 1)))) == [
        (0, 4),
        (1, 3),
        (3, 1),
        (5, 0),
    ]
    # the empty partition gives the unit ideal
    assert exponents(staircase(Partition())) == [(0, 0)]


def test_staircase_against_brute_force():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert set(
                (m.xexp, m.yexp) for m in staircase(lam).generators
            ) == brute_minimal_generators(lam)


def test_quotient_basis_is_the_diagram():
    for n in range(11):
        for lam in enumerate_partitions(n):
            basis = staircase(lam).quotient_basis()
            assert len(basis) == n
            assert set(basis) == {
                Monomial(box.col, box.row) for box in lam.boxes()
            }


def test_counts_match_the_built_ideal():
    # generator_count and socle_count read the parts; staircase builds the ideal
    for n in range(13):
        for lam in enumerate_partitions(n):
            ideal = staircase(lam)
            assert generator_count(lam) == len(ideal.generators), lam
            if n:
                assert socle_count(lam) == len(ideal.socle()), lam


def test_generator_count_frozen():
    assert generator_count(Partition((4, 4, 2))) == 3
    assert generator_count(Partition((1,))) == 2
    assert generator_count(Partition((3, 2, 1))) == 4
    # the unit ideal, at any point off the support, is locally principal
    assert generator_count(Partition()) == 1


def brute_socle(lam):
    # independent route: boxes whose right and lower neighbours are both outside
    return [
        Monomial(c, r)
        for r, c in lam.boxes()
        if not lam.box_in((r, c + 1)) and not lam.box_in((r + 1, c))
    ]


def test_socle_against_box_scan():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert staircase(lam).socle() == brute_socle(lam)


def test_socle_count_frozen():
    assert socle_count(Partition((2, 2))) == 1
    assert socle_count(Partition((2, 1))) == 2
    assert socle_count(Partition((5, 3, 3, 1))) == 3


def test_socle_count_refuses_the_empty_partition():
    with pytest.raises(ValueError, match="^socle undefined for the empty partition$"):
        socle_count(())


def test_hilbert_burch_single_box():
    mat = hilbert_burch(Partition((1,)))
    assert len(mat.entries) == 2 and len(mat.entries[0]) == 1
    assert mat.entries[0][0] == Term(1, Monomial(0, 1))
    assert mat.entries[1][0] == Term(-1, Monomial(1, 0))
    assert mat.matches_generators()


def test_hilbert_burch_hook_frozen(size_gate):
    mat = hilbert_burch(Partition((2, 1)))
    # rows ordered by descending x-exponent: x^2, xy, y^2
    assert [(m.xexp, m.yexp) for m in mat.generators] == [(2, 0), (1, 1), (0, 2)]
    diag = [mat.entries[j][j] for j in range(2)]
    sub = [mat.entries[j + 1][j] for j in range(2)]
    assert diag == [Term(1, Monomial(0, 1)), Term(1, Monomial(0, 1))]
    assert sub == [Term(-1, Monomial(1, 0)), Term(-1, Monomial(1, 0))]
    minors = mat.maximal_minors()
    assert {(t.monomial.xexp, t.monomial.yexp) for t in minors} == {
        (2, 0),
        (1, 1),
        (0, 2),
    }
    assert all(t.coeff in (1, -1) for t in minors)
    assert [str(t) for t in minors] == ["x^2", "-xy", "y^2"]
    assert str(Term(3, Monomial(2, 1))) == "3*x^2y"
    assert str(mat) == "[  y   0 ]\n[ -x   y ]\n[  0  -x ]"
    size_gate(mat.minor, "row index", 0)
    with pytest.raises(ValueError, match="^row index out of range: 3$"):
        mat.minor(3)


def test_maximal_minors_match_row_by_row_products():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            mat = hilbert_burch(lam)
            minors = mat.maximal_minors()
            assert len(minors) == mat.rows
            for i in range(mat.rows):
                # reference: the diagonal above row i times the subdiagonal below it
                want = Term(1, Monomial(0, 0))
                for j in range(i):
                    want = want.times(mat.entries[j][j])
                for j in range(i, mat.cols):
                    want = want.times(mat.entries[j + 1][j])
                assert minors[i] == mat.minor(i) == want, (lam, i)


def test_hilbert_burch_shape():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            mat = hilbert_burch(lam)
            g = generator_count(lam)
            assert len(mat.entries) == g
            assert all(len(row) == g - 1 for row in mat.entries)
            # bidiagonal: everything off the two relevant diagonals is empty
            for i, row in enumerate(mat.entries):
                for j, entry in enumerate(row):
                    if j in (i, i - 1):
                        assert entry is not None
                    else:
                        assert entry is None


def test_hilbert_burch_rejects_unit_ideal():
    with pytest.raises(ValueError):
        hilbert_burch(Partition())


def test_membership():
    ideal = staircase(Partition((3, 1)))
    assert ideal.contains(Monomial(0, 2))
    assert ideal.contains(Monomial(4, 5))
    assert not ideal.contains(Monomial(0, 0))
    assert not ideal.contains(Monomial(2, 0))


def test_membership_gates_exponents(size_gate):
    ideal = staircase(Partition((2, 1)))
    # a negative y exponent used to read a row from the end, or past it
    for m in (Monomial(0, -1), Monomial(5, -3)):
        with pytest.raises(ValueError, match=f"^y exponent must be at least 0, got {m.yexp}$"):
            ideal.contains(m)
    with pytest.raises(ValueError, match="^x exponent must be an integer, got 1.5$"):
        ideal.contains(Monomial(1.5, 0))
    size_gate(lambda x: ideal.contains(Monomial(x, 0)), "x exponent", 0)
    size_gate(lambda y: ideal.contains(Monomial(0, y)), "y exponent", 0)
    # any (x, y) pair reads as its Monomial; anything else is refused
    assert [ideal.contains((1, 2)), ideal.contains([1, 0])] == [True, False]
    for m in (3, (1, 2, 3), None):
        message = f"a monomial must be an (x, y) exponent pair, got {m!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ideal.contains(m)
