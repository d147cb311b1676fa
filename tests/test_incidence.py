"""Nested pairs, Euler triple count, strata bounds."""

import pytest

from hilb import (
    NestedPair,
    Partition,
    StrataBoundTable,
    enumerate_partitions,
    euler_incidence,
    nested_pairs,
    socle_count,
    strata_base,
    strata_propagate,
    strata_table,
)


def test_nested_pair_validation():
    NestedPair(Partition((2,)), Partition((2, 1)))
    with pytest.raises(ValueError):
        NestedPair(Partition((2,)), Partition((1, 1)))  # not contained
    with pytest.raises(ValueError):
        NestedPair(Partition((1,)), Partition((3,)))  # sizes differ by 2
    # parts are coerced like every other partition input
    pair = NestedPair((1,), (2,))
    assert (type(pair.lower), type(pair.upper)) == (Partition, Partition)
    assert pair == NestedPair(Partition((1,)), Partition((2,)))


def test_nested_pairs_frozen():
    assert [(p.lower.parts, p.upper.parts) for p in nested_pairs(0)] == [
        ((), (1,))
    ]
    assert len(nested_pairs(1)) == 2
    assert len(nested_pairs(2)) == 4
    assert len(nested_pairs(3)) == 7
    assert len(nested_pairs(4)) == 12
    assert [(p.lower.parts, p.upper.parts) for p in nested_pairs(2)] == [
        ((2,), (3,)),
        ((2,), (2, 1)),
        ((1, 1), (2, 1)),
        ((1, 1), (1, 1, 1)),
    ]


def test_euler_incidence_frozen():
    assert euler_incidence(0) == 1
    assert euler_incidence(1) == 2
    assert euler_incidence(2) == 4
    assert euler_incidence(3) == 7
    assert euler_incidence(4) == 12


def test_euler_incidence_range():
    for n in range(21):
        count = euler_incidence(n)
        assert count == len(nested_pairs(n))
        assert count == sum(
            socle_count(mu) for mu in enumerate_partitions(n + 1)
        )


def test_euler_incidence_counts_covers_and_enumerates_n_once(monkeypatch):
    from hilb import incidence

    def no_pairs(lower, upper):
        raise AssertionError(f"built a NestedPair {lower} -> {upper}")

    sizes = []

    def counted(n):
        sizes.append(n)
        return enumerate_partitions(n)

    monkeypatch.setattr(incidence, "NestedPair", no_pairs)
    monkeypatch.setattr(incidence, "enumerate_partitions", counted)
    for n, pairs in ((0, 1), (5, 19), (12, 272)):
        sizes.clear()
        assert euler_incidence(n) == pairs
        assert sizes == [n, n + 1]


def test_strata_base_frozen():
    table = strata_base()
    assert table.n == 1
    assert table.bound(1) == 4
    assert table.bound(2) == 2
    assert table.bound(3) is None
    assert table.ambient_dim == 4
    with pytest.raises(ValueError):
        table.bound(0)


def test_strata_table_validation():
    with pytest.raises(ValueError, match="malformed"):
        StrataBoundTable(1, {1: 5})  # open stratum must be 2n+2
    with pytest.raises(ValueError, match="malformed"):
        StrataBoundTable(1, {2: 2})  # missing the open stratum
    with pytest.raises(ValueError):
        StrataBoundTable(1, {1: 4, 0: 1})
    with pytest.raises(ValueError, match="^malformed table: bad index a$"):
        StrataBoundTable(1, {"a": 1, 1: 4})  # the type is tested before the order
    with pytest.raises(ValueError, match=r"^malformed table: bad bound 2\.0 at i=2$"):
        StrataBoundTable(1, {1: 4, 2: 2.0})
    # bools are integers, stored as exact ints like every other record's
    table = StrataBoundTable(1, {True: 4, 2: True})
    assert [type(x) for x in (*table.bounds, *table.bounds.values())] == [int] * 4
    assert table == StrataBoundTable(1, {1: 4, 2: 1})
    assert repr(table) == "StrataBoundTable(n=1, bounds={1: 4, 2: 1})"


def test_strata_refusals():
    with pytest.raises(ValueError, match="^malformed table: bad bound -1 at i=2$"):
        StrataBoundTable(1, {1: 4, 2: -1})
    with pytest.raises(ValueError, match=r"^malformed table: \{1: 4, 2: 2\}$"):
        strata_propagate({1: 4, 2: 2})


def test_strata_tables_keep_their_own_bounds():
    # the table used to store the caller's dict, so both writes went through
    given = {1: 4, 2: 2}
    table = StrataBoundTable(1, given)
    given[1] = 0
    assert table.bound(1) == 4 and table == strata_base()
    three = strata_table(3)
    with pytest.raises(TypeError):
        three.bounds[1] = 0
    assert three.bound(1) == 8
    assert repr(three) == "StrataBoundTable(n=3, bounds={1: 8, 2: 6, 3: 4, 4: 2})"


def test_strata_propagate_frozen():
    two = strata_propagate(strata_base())
    assert two.n == 2
    assert two.bounds == {1: 6, 2: 4, 3: 2}
    assert two.bound(4) is None
    three = strata_propagate(two)
    assert three.bounds == {1: 8, 2: 6, 3: 4, 4: 2}


def test_strata_table_equals_public_steps():
    # the closed form is what the public one-step rule gives, key order too
    t = strata_base()
    for n in range(1, 121):
        got = strata_table(n)
        assert got == t
        assert list(got.bounds.items()) == list(t.bounds.items())
        t = strata_propagate(t)


def test_strata_bounds_closed_form_to_300():
    # propagating from the base meets the closed form 2n + 4 - 2i exactly
    t = strata_base()
    for n in range(1, 301):
        assert t.n == n
        assert t.bounds == {i: 2 * n + 4 - 2 * i for i in range(1, n + 2)}
        t = strata_propagate(t)
    assert strata_table(300).bounds == {i: 604 - 2 * i for i in range(1, 302)}


def test_strata_propagate_skips_empty_strata():
    # with i = 3 empty, each new bound takes the best present neighbour:
    # bound(j) + (j - 1) is 8, 7, 4 at j = 1, 2, 4
    t = StrataBoundTable(3, {1: 8, 2: 6, 4: 1})
    assert strata_propagate(t).bounds == {1: 10, 2: 8, 3: 6, 4: 2, 5: 1}
    # here the i + 1 neighbour wins at i = 3: bound(4) + 3 = 12 beats 8 and 1
    t = StrataBoundTable(3, {1: 8, 2: 0, 4: 9})
    assert strata_propagate(t).bounds == {1: 10, 2: 8, 3: 11, 4: 10, 5: 9}


def test_integer_arguments_are_coerced(size_gate):
    # StrataBoundTable(2.5, {1: 7}) used to build, since 2 * 2.5 + 2 == 7
    with pytest.raises(ValueError, match=r"^table size must be an integer, got 2\.5$"):
        StrataBoundTable(2.5, {1: 7})
    size_gate(lambda n: StrataBoundTable(n, {1: 4}), "table size", 1)
    size_gate(strata_table, "table size", 1)
    size_gate(nested_pairs, "length", 0)
    size_gate(euler_incidence, "length", 0)
    # bound(2.5) used to answer None, as for an empty stratum
    size_gate(strata_base().bound, "stratum index", 1)
    assert StrataBoundTable(True, {1: 4, 2: 2}) == strata_base()
    assert strata_table(True) == strata_base()
    assert len(nested_pairs(True)) == 2


def test_strata_table_builds_one_table(monkeypatch):
    # the closed form is written down once, not propagated from n = 1
    sizes = []
    validate = StrataBoundTable.__init__

    def counting(self, n, bounds):
        sizes.append(n)
        validate(self, n, bounds)

    monkeypatch.setattr(StrataBoundTable, "__init__", counting)
    strata_table(25)
    assert sizes == [25]
