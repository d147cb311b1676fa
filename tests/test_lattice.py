"""Blow-up lattices, the exceptional self-intersection, and the constants."""

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb import lattice
from hilb import (
    ConsistencyError,
    DivisorClass,
    IntersectionLattice,
    NakajimaSequence,
    blow_up,
    exceptional_total_square,
    nakajima_closed_form,
    nakajima_recurrence,
    p2_lattice,
)

GENUS_GRAM = ((2, 3), (3, -4))  # an abstract surface-like symmetric form
GENUS_LATTICE = IntersectionLattice(GENUS_GRAM, ("A", "B"))


def test_p2_lattice():
    lat = p2_lattice()
    assert lat.rank == 1
    assert lat.labels == ("H",)
    h = lat.cls("H")
    assert lat.pair(h, h) == 1


def test_blow_up_gram_frozen():
    once = blow_up(p2_lattice(), 1)
    assert once.gram == ((1, 0), (0, -1))
    assert once.labels == ("H", "E1")
    twice = blow_up(p2_lattice(), 2)
    h, e1, e2 = (twice.cls(x) for x in ("H", "E1", "E2"))
    conic = 2 * h - e1 - e2
    assert twice.pair(conic, conic) == 2
    assert twice.pair(e1, e2) == 0
    assert twice.pair(e1, e1) == -1
    line = h - e1
    assert twice.pair(line, line) == 0
    assert twice.pair(h, e1) == 0


def test_blow_up_identity_and_stacking():
    lat = p2_lattice()
    assert blow_up(lat, 0) == lat
    stacked = blow_up(blow_up(lat, 2), 1)
    assert stacked.labels == ("H", "E1", "E2", "E3")
    assert stacked == blow_up(lat, 3)
    with pytest.raises(ValueError):
        blow_up(lat, -1)
    # new classes are numbered after the largest E<digits> label, never onto one
    assert blow_up(IntersectionLattice(((1,),), ("E2",)), 1).labels == ("E2", "E3")
    assert blow_up(IntersectionLattice(((1,),), ("Eta",)), 2).labels == ("Eta", "E1", "E2")


def test_lattice_validation():
    with pytest.raises(ValueError):
        IntersectionLattice(((1, 2), (3, 4)), ("A", "B"))  # not symmetric
    with pytest.raises(ValueError):
        IntersectionLattice(((1,),), ("A", "B"))  # label count mismatch
    with pytest.raises(ValueError, match=r"^duplicate basis labels in \('A', 'A'\)$"):
        IntersectionLattice(((1, 0), (0, 1)), ("A", "A"))
    # non-integers are refused, not truncated; bools are integers
    with pytest.raises(ValueError, match=r"^gram entries must be integers, got 2\.7$"):
        IntersectionLattice(((2.7,),), ("A",))
    assert IntersectionLattice(((True,),), ("A",)).gram == ((1,),)
    lat = p2_lattice()
    with pytest.raises(ValueError, match="mismatch"):
        lat.pair(DivisorClass((1, 2)), lat.cls("H"))


def test_non_string_labels_are_refused():
    # blow_up reads labels as strings; a number used to fail there with a TypeError
    with pytest.raises(ValueError, match="^basis labels must be strings, got 5$"):
        IntersectionLattice(((1,),), (5,))
    with pytest.raises(ValueError, match=r"^basis labels must be strings, got \(1, 2\)$"):
        IntersectionLattice.from_entries({}, ("A", (1, 2)))


def test_divisor_arithmetic():
    lat = blow_up(p2_lattice(), 2)
    h, e1 = lat.cls("H"), lat.cls("E1")
    assert (h + e1).coords == (1, 1, 0)
    assert (h - e1).coords == (1, -1, 0)
    assert (3 * h).coords == (3, 0, 0)
    assert (-h).coords == (-1, 0, 0)
    assert (True * h).coords == DivisorClass((True, 0, 0)).coords == (1, 0, 0)
    with pytest.raises(ValueError, match=r"^coordinates must be integers, got 2\.5$"):
        DivisorClass((2.5, 1))
    with pytest.raises(ValueError, match=r"^a class scales by integers only, got 2\.5$"):
        2.5 * h


def test_exceptional_total_square_frozen():
    assert exceptional_total_square(1) == -1
    assert exceptional_total_square(3) == -3
    assert exceptional_total_square(5, GENUS_LATTICE) == -5
    with pytest.raises(ValueError):
        exceptional_total_square(0)


def test_closed_form_frozen():
    assert nakajima_closed_form(1) == 1
    assert nakajima_closed_form(2) == -2
    assert nakajima_closed_form(3) == 3
    assert nakajima_closed_form(10) == -10
    assert nakajima_closed_form(41) == 41
    with pytest.raises(ValueError):
        nakajima_closed_form(0)


def test_recurrence_frozen():
    assert nakajima_recurrence(1).values == (1,)
    assert nakajima_recurrence(3).values == (1, -2, 3)
    assert nakajima_recurrence(10).value(10) == -10


def test_sequence_validation():
    NakajimaSequence((1, -2, 3))
    with pytest.raises(ConsistencyError):
        NakajimaSequence((2, -2))  # wrong start
    with pytest.raises(ConsistencyError):
        NakajimaSequence((1, 2))  # wrong sign
    with pytest.raises(ConsistencyError):
        NakajimaSequence((1, -3))  # wrong magnitude
    # any iterable is kept as a tuple, so the record stays hashable
    for given in ([1, -2], iter([1, -2])):
        seq = NakajimaSequence(given)
        assert seq == NakajimaSequence((1, -2)) and hash(seq) == hash(NakajimaSequence((1, -2)))
        assert repr(seq) == "NakajimaSequence(values=(1, -2))"
    # constants are integers: a float or a string is an input error, not a
    # failed identity, and a bool is stored as the int it stands for
    for bad, shown in ((1.0, "1.0"), ("1", "'1'"), (None, "None")):
        with pytest.raises(ValueError, match=f"^Nakajima constants must be integers, got {shown}$"):
            NakajimaSequence((bad, -2))
    seq = NakajimaSequence((True, -2))
    assert seq.values == (1, -2) and type(seq.values[0]) is int


def test_empty_sequence_is_refused():
    with pytest.raises(ValueError, match="^empty sequence$"):
        NakajimaSequence(())
    assert len(NakajimaSequence((1, -2, 3))) == 3


def test_class_arithmetic_refusals():
    lat = p2_lattice()
    with pytest.raises(ValueError, match="^cannot add classes of different rank$"):
        lat.cls("H") + DivisorClass((1, 0))
    with pytest.raises(ValueError, match="^no basis class named 'E1'$"):
        lat.cls("E1")


coords3 = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@settings(derandomize=True, max_examples=200)
@given(coords3, coords3, coords3, st.integers(min_value=-9, max_value=9))
def test_pair_symmetric_bilinear(u, v, w, c):
    lat = blow_up(GENUS_LATTICE, 1)
    du, dv, dw = DivisorClass(u), DivisorClass(v), DivisorClass(w)
    assert lat.pair(du, dv) == lat.pair(dv, du)
    assert lat.pair(du + dv, dw) == lat.pair(du, dw) + lat.pair(dv, dw)
    assert lat.pair(c * du, dv) == c * lat.pair(du, dv)


@st.composite
def symmetric_lattices_with_classes(draw):
    # a random symmetric base, blown up at a few points, and two classes on it
    r = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=-6, max_value=6)
    upper = {(i, j): draw(entry) for i in range(r) for j in range(i, r)}
    gram = tuple(
        tuple(upper[(min(i, j), max(i, j))] for j in range(r)) for i in range(r)
    )
    base = IntersectionLattice(gram, tuple(f"B{i}" for i in range(r)))
    lat = blow_up(base, draw(st.integers(min_value=0, max_value=4)))
    coords = st.lists(
        st.integers(min_value=-20, max_value=20), min_size=lat.rank, max_size=lat.rank
    )
    return lat, DivisorClass(tuple(draw(coords))), DivisorClass(tuple(draw(coords)))


@settings(derandomize=True, max_examples=300)
@given(symmetric_lattices_with_classes())
def test_sparse_pair_equals_dense_double_sum(case):
    lat, d1, d2 = case
    g = lat.gram
    dense = sum(
        d1.coords[i] * g[i][j] * d2.coords[j]
        for i in range(lat.rank)
        for j in range(lat.rank)
    )
    assert lat.pair(d1, d2) == dense
    assert IntersectionLattice(g, lat.labels) == lat


@settings(derandomize=True, max_examples=100)
@given(symmetric_lattices_with_classes(), st.integers(0, 3), st.integers(0, 3))
def test_blow_up_stacks_on_any_base(case, a, b):
    lat = case[0]
    stacked = blow_up(blow_up(lat, a), b)
    assert stacked == blow_up(lat, a + b)
    assert hash(stacked) == hash(blow_up(lat, a + b))
    r = lat.rank
    g = stacked.gram
    assert all(g[i][: r] == lat.gram[i] for i in range(r))
    assert all(
        g[i][j] == (-1 if i == j else 0)
        for i in range(r, r + a + b)
        for j in range(r + a + b)
    )


def test_lattice_from_entries_validation():
    lat = IntersectionLattice.from_entries({(0, 0): 2, (0, 1): 3, (1, 0): 3}, ("A", "B"))
    assert lat.gram == ((2, 3), (3, 0))
    assert lat == IntersectionLattice(((2, 3), (3, 0)), ("A", "B"))
    with pytest.raises(ValueError, match="symmetric"):
        IntersectionLattice.from_entries({(0, 1): 3}, ("A", "B"))
    # the first asymmetric entry in the caller's order is named
    with pytest.raises(ValueError, match=r"^gram matrix not symmetric at \(1, 0\)$"):
        IntersectionLattice.from_entries(
            {(0, 2): 4, (1, 0): 2, (0, 1): 3, (2, 0): 4}, ("a", "b", "c")
        )
    with pytest.raises(ValueError, match="outside"):
        IntersectionLattice.from_entries({(2, 2): -1}, ("A", "B"))
    with pytest.raises(ValueError, match=r"^gram entries must be integers, got 1\.9$"):
        IntersectionLattice.from_entries({(0, 0): 1.9}, ("A",))
    with pytest.raises(ValueError, match=r"^duplicate basis labels in \('B', 'C', 'B'\)$"):
        IntersectionLattice.from_entries({}, ("B", "C", "B"))
    # an index goes through as_int like an entry, and a key must be a pair
    with pytest.raises(
        ValueError, match=r"^gram entry \(0\.5, 0\.5\) needs integer indices, got 0\.5$"
    ):
        IntersectionLattice.from_entries({(0.5, 0.5): 3}, ("a",))
    for key, shown in [(1, "1"), ((0, 0, 0), r"\(0, 0, 0\)")]:
        with pytest.raises(
            ValueError, match=rf"^gram entry keys must be pairs \(i, j\), got {shown}$"
        ):
            IntersectionLattice.from_entries({key: 2}, ("a",))
    assert IntersectionLattice.from_entries({(True, True): 3}, ("a", "b")) == (
        IntersectionLattice(((0, 0), (0, 3)), ("a", "b"))
    )
    with pytest.raises(AttributeError):
        lat.labels = ("C", "D")


def test_lattice_value_is_its_labels_and_entries():
    labels = ("A", "B", "C")
    by_gram = IntersectionLattice(((2, 3, 0), (3, -4, 0), (0, 0, 0)), labels)
    by_entries = IntersectionLattice.from_entries(
        {(0, 0): 2, (0, 1): 3, (1, 0): 3, (1, 1): -4}, labels
    )
    pickled = pickle.loads(pickle.dumps(by_gram))
    assert by_gram == by_entries == pickled
    assert repr(pickled) == repr(by_gram) == repr(by_entries)
    assert hash(by_gram) == hash(by_entries) == hash(pickled)
    assert pickle.dumps(by_gram) == pickle.dumps(by_entries)
    # entries() is a copy: writing to it leaves the lattice as it was
    copy = by_gram.entries()
    copy[2, 2] = 5
    assert by_gram == by_entries and by_gram.gram[2] == (0, 0, 0)


def test_integer_arguments_are_coerced(size_gate):
    # 2.5 used to give a complex constant or a TypeError from range
    seq = nakajima_recurrence(3)
    size_gate(nakajima_closed_form, "constant index", 1)
    size_gate(nakajima_recurrence, "the number of constants", 1)
    size_gate(exceptional_total_square, "the number of exceptional classes", 1)
    size_gate(lambda k: blow_up(p2_lattice(), k), "the number of blown-up points", 0)
    size_gate(seq.value, "constant index", 1)
    with pytest.raises(ValueError, match="^index out of range: 4$"):
        seq.value(4)
    # bools are integers, as everywhere in the library
    assert nakajima_closed_form(True) == 1
    assert nakajima_recurrence(True).values == (1,)
    assert exceptional_total_square(True) == -1
    assert blow_up(p2_lattice(), True) == blow_up(p2_lattice(), 1)


def test_recurrence_blows_up_once(monkeypatch):
    calls = []

    def counting(base, k):
        calls.append((base.rank, k))
        return blow_up(base, k)

    monkeypatch.setattr(lattice, "blow_up", counting)
    assert nakajima_recurrence(40).values == tuple(nakajima_closed_form(n) for n in range(1, 41))
    assert calls == [(0, 39)]


def planted(extra):
    """blow_up, then extra's entries {(i, j): x} that fit, written at (i, j) and (j, i)."""

    def blow(base, k):
        blown = blow_up(base, k)
        entries = blown.entries()
        for (i, j), x in extra.items():
            if max(i, j) < blown.rank:
                entries[i, j] = entries[j, i] = x
        return IntersectionLattice.from_entries(entries, blown.labels)

    return blow


def test_recurrence_reads_each_square_off_the_pairing(monkeypatch):
    # with every new class squaring to -2, E.E = -2n and c_2 comes out as -4
    monkeypatch.setattr(lattice, "blow_up", planted({(i, i): -2 for i in range(4)}))
    with pytest.raises(ConsistencyError, match=r"^\|c_2\| must be 2, got -4$"):
        nakajima_recurrence(5)


def test_recurrence_refuses_a_non_integral_step(monkeypatch):
    # e_1.e_1 = -1 and, for i >= 2, e_i.e_i = -2 and e_(i-1).e_i = 1 (a chain):
    # E.E = -1 at every n, so step 2 is (-2)(-1)(3)/4, not an integer
    chain = {(i, i): -2 for i in range(1, 9)} | {(i - 1, i): 1 for i in range(1, 9)}
    monkeypatch.setattr(lattice, "blow_up", planted(chain))
    blown = lattice.blow_up(lattice.rank_zero_lattice(), 9)
    totals = [DivisorClass((1,) * n + (0,) * (9 - n)) for n in range(1, 10)]
    assert [blown.pair(e, e) for e in totals] == [-1] * 9
    assert nakajima_recurrence(2).values == (1, -2)
    with pytest.raises(ConsistencyError, match="^non-integral constant at n=3$"):
        nakajima_recurrence(3)


@pytest.mark.parametrize(
    "pair, message",
    [
        # E.E = 0 from n = 2 on: c_3 = 0
        ((0, 1), r"^\|c_3\| must be 3, got 0$"),
        # E.E = 2 - n from n = 4 on: c_5 = (-4)(-2)(5)/16
        ((1, 3), "^non-integral constant at n=5$"),
    ],
    ids=["e1.e2", "e2.e4"],
)
def test_recurrence_reads_a_planted_off_diagonal_entry(monkeypatch, pair, message):
    # one wrong entry e_i.e_j = 1 between two exceptional classes
    monkeypatch.setattr(lattice, "blow_up", planted({pair: 1}))
    with pytest.raises(ConsistencyError, match=message):
        nakajima_recurrence(40)


def test_recurrence_budget():
    # linear in N: the square is carried, not re-paired at every step
    start = time.perf_counter()
    seq = nakajima_recurrence(3000)
    elapsed = time.perf_counter() - start
    assert seq.values == tuple(map(nakajima_closed_form, range(1, 3001)))
    assert elapsed < 0.25
