"""Partition layer: frozen examples plus exhaustive small-n invariants."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilb.partitions
from hilb import Partition, enumerate_partitions, generator_count, pentagonal_partition_count


def dp_partition_count(n):
    # third, test-local route: bounded-part dynamic programming
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            dp[s] += dp[s - part]
    return dp[n]


def brute_conjugate(lam):
    # transpose the incidence matrix of the diagram
    if not lam.parts:
        return ()
    grid = [[c < p for c in range(lam.parts[0])] for p in lam.parts]
    cols = [sum(1 for row in grid if row[c]) for c in range(lam.parts[0])]
    return tuple(cols)


partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=9), min_size=0, max_size=8
).map(lambda xs: Partition(sorted(xs, reverse=True)))


def test_validation(size_gate):
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition((3, -1))
    assert Partition().size == 0
    assert Partition((3, 1)).size == 4
    # parts are coerced with operator.index: no truncation, no parsing
    for bad, shown in (((2.5, 1), "2.5"), ((2.0,), "2.0"), (("3", "1"), "'3'")):
        with pytest.raises(ValueError, match=f"^parts must be positive integers, got {shown}$"):
            Partition(bad)
    with pytest.raises(ValueError, match="got 2.9"):
        generator_count([2.9, 1.2])
    assert Partition((True, True)).parts == (1, 1)
    assert type(Partition((True,)).parts[0]) is int
    # so are box coordinates: arm((0, 0.5)) used to answer 1.5
    lam = Partition((3, 2))
    for call in (lam.box_in, lam.arm, lam.leg):
        for box in ((0, 0.5), (0.5, 0)):
            with pytest.raises(ValueError, match=r"^box coordinates must be integers, got 0\.5$"):
                call(box)
        # a box that is no pair used to raise TypeError or "too many values"
        for box, shown in ((5, "5"), ((0, 0, 0), r"\(0, 0, 0\)")):
            message = rf"^a box must be a \(row, col\) pair, got {shown}$"
            with pytest.raises(ValueError, match=message):
                call(box)
    assert (lam.box_in((True, 2)), lam.arm((True, 0)), lam.leg((False, True))) == (False, 1, 1)
    size_gate(enumerate_partitions, "partition size", 0)
    # p(n) of a negative n is 0, so only the integer check applies
    for bad, shown in ((2.5, r"2\.5"), ("3", "'3'")):
        with pytest.raises(ValueError, match=f"^partition size must be an integer, got {shown}$"):
            pentagonal_partition_count(bad)
    assert pentagonal_partition_count(-1) == 0
    assert pentagonal_partition_count(True) == 1


def test_partition_is_a_frozen_tuple_of_its_parts():
    lam = Partition((3, 1))
    for field in ("parts", "size"):
        with pytest.raises(AttributeError):
            setattr(lam, field, (1, 3))
        with pytest.raises(AttributeError):
            delattr(lam, field)
    assert (lam, str(lam), repr(lam), lam.size) == ((3, 1), "(3,1)", "Partition(3, 1)", 4)
    assert type(lam.parts) is tuple and lam.parts == (3, 1)
    assert lam == (3, 1) and hash(lam) == hash((3, 1)) and lam in {(3, 1)}
    assert Partition((2, 2)) < lam < Partition((3, 2))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(lam, protocol))
        assert type(copy) is Partition and copy == lam


def test_enumerate_small_frozen():
    assert enumerate_partitions(0) == [Partition()]
    assert enumerate_partitions(1) == [Partition((1,))]
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(5)] == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_count_ten_is_42():
    assert len(enumerate_partitions(10)) == 42
    assert pentagonal_partition_count(10) == 42


def test_counts_match_two_independent_oracles():
    for n in range(31):
        want = dp_partition_count(n)
        assert len(enumerate_partitions(n)) == want
        assert pentagonal_partition_count(n) == want


def test_pentagonal_count_at_large_sizes():
    # far past the recursion limit that a recursive recurrence would hit
    assert pentagonal_partition_count(1000) == 24061467864032622473692149727991
    assert pentagonal_partition_count(500) == 2300165032574323995027
    assert pentagonal_partition_count(-1) == 0


def test_descending_lex_order():
    for n in range(15):
        parts = [p.parts for p in enumerate_partitions(n)]
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_conjugate_frozen():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition().conjugate() == Partition()
    assert Partition((1,)).conjugate() == Partition((1,))


def test_conjugate_involution_and_transpose():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert lam.conjugate().parts == brute_conjugate(lam)


def test_arm_leg_frozen():
    lam = Partition((2, 2))
    assert lam.arm((0, 0)) == 1
    assert lam.leg((0, 0)) == 1
    assert lam.arm((1, 1)) == 0
    assert lam.leg((1, 1)) == 0
    lam = Partition((3, 1))
    assert lam.arm((0, 0)) == 2
    assert lam.leg((0, 0)) == 1
    assert lam.arm((0, 2)) == 0
    assert lam.leg((0, 2)) == 0


def test_arm_leg_out_of_range():
    lam = Partition((2, 1))
    for box in ((0, 2), (1, 1), (2, 0), (-1, 0)):
        with pytest.raises(ValueError, match="box not in partition"):
            lam.arm(box)
        with pytest.raises(ValueError, match="box not in partition"):
            lam.leg(box)


def test_arm_leg_via_conjugate():
    # leg of a box is the arm of the transposed box in the conjugate
    for n in range(13):
        for lam in enumerate_partitions(n):
            conj = lam.conjugate()
            for box in lam.boxes():
                assert lam.leg(box) == conj.arm((box.col, box.row))


def test_covers_frozen():
    assert [p.parts for p in Partition((2, 1)).covers()] == [
        (3, 1),
        (2, 2),
        (2, 1, 1),
    ]
    assert [p.parts for p in Partition().covers()] == [(1,)]
    assert [p.parts for p in Partition((1,)).covers()] == [(2,), (1, 1)]


def test_cocovers_frozen():
    assert [p.parts for p in Partition((2, 2)).cocovers()] == [(2, 1)]
    assert [p.parts for p in Partition((2, 1)).cocovers()] == [(1, 1), (2,)]
    with pytest.raises(ValueError, match="no cocovers"):
        Partition().cocovers()


def test_covers_against_brute_force():
    # independent route: all partitions of n+1 that contain lam
    for n in range(13):
        bigger = enumerate_partitions(n + 1)
        for lam in enumerate_partitions(n):
            want = [mu for mu in bigger if mu.contains(lam)]
            assert sorted(p.parts for p in lam.covers()) == sorted(
                p.parts for p in want
            )


def test_covers_equal_a_scan_of_every_row():
    # covers jumps from corner to corner; the scan tries every row and
    # keeps the addable ones, in the same ascending-row order
    def scan(parts):
        out = []
        for r in range(len(parts) + 1):
            cur = parts[r] if r < len(parts) else 0
            if r == 0 or parts[r - 1] > cur:
                out.append(parts[:r] + (cur + 1,) + parts[r + 1 :])
        return out

    for n in range(16):
        for lam in enumerate_partitions(n):
            assert [mu.parts for mu in lam.covers()] == scan(lam.parts)


def test_containment():
    assert Partition((3, 1)).contains(Partition((2, 1)))
    assert not Partition((2, 2)).contains(Partition((3,)))
    assert Partition((1,)).contains(Partition())


@settings(derandomize=True, max_examples=200)
@given(partitions_strategy)
def test_conjugate_involution_hypothesis(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


@settings(derandomize=True, max_examples=200)
@given(partitions_strategy)
def test_cover_adjunction_hypothesis(lam):
    for mu in lam.covers():
        assert lam in mu.cocovers()


def recursive_descending_lex(n, max_part):
    # the former recursive route, kept here as the oracle for the iterative one
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in recursive_descending_lex(n - first, first):
            yield (first,) + rest


def test_enumeration_matches_recursive_route():
    for n in range(23):
        got = [lam.parts for lam in enumerate_partitions(n)]
        assert got == list(recursive_descending_lex(n, n))


def test_validation_errors_name_the_first_fault():
    with pytest.raises(ValueError, match="positive"):
        Partition((2, 0, 1))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((2, 1, 3, 0))
    with pytest.raises(ValueError, match="positive"):
        Partition((2, 2, 0))


@settings(derandomize=True, max_examples=200)
@given(partitions_strategy)
def test_column_lengths_are_conjugate(lam):
    assert tuple(lam.column_lengths()) == brute_conjugate(lam)
    assert lam.conjugate().parts == brute_conjugate(lam)


def test_produced_partitions_equal_public_construction():
    # the producers skip the coercion, not the shape check: each partition
    # they make equals the one the public constructor builds from its parts
    def same(lam):
        assert type(lam) is Partition
        public = Partition(lam.parts)
        assert (lam.parts, lam.size) == (public.parts, public.size)
        assert all(type(p) is int for p in lam.parts)

    for n in range(21):
        for lam in enumerate_partitions(n):
            same(lam)
            same(lam.conjugate())
            for mu in lam.covers():
                same(mu)
            for nu in lam.cocovers() if lam else ():
                same(nu)


def test_enumeration_shape_checks_what_the_generator_yields(monkeypatch):
    for bad, message in (((1, 2), "weakly decreasing"), ((2, 0), "positive")):
        with pytest.raises(ValueError) as public:
            Partition(bad)
        assert message in str(public.value)
        monkeypatch.setattr(hilb.partitions, "_descending_lex", lambda n, bad=bad: iter([bad]))
        with pytest.raises(ValueError) as produced:
            enumerate_partitions(3)
        assert str(produced.value) == str(public.value)
