"""Generating series, Fock-space operators, and commutator scalars."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilb.heisenberg
import hilb.series
from hilb.errors import as_int
from hilb import (
    FockState,
    IntersectionLattice,
    SurfaceModel,
    annihilate,
    basis_monomials,
    commutator_check,
    commutator_checks,
    create,
    fock_character,
    goettsche_series,
    k3_surface,
    nakajima_closed_form,
    p2_surface,
    vacuum,
)

P2 = p2_surface()
K3 = k3_surface()
NO_H2 = SurfaceModel((1, 0, 0, 0, 1))  # b2 = 0: no degree-2 factors
# rank-2 middle cohomology with an off-diagonal pairing
SKEW = SurfaceModel((1, 0, 2, 0, 1), IntersectionLattice(((0, 1), (1, 0)), ("f1", "f2")))
# a class pairing with two others, so annihilation can cancel terms
DENSE = SurfaceModel((1, 0, 2, 0, 1), IntersectionLattice(((1, 2), (2, -1)), ("g1", "g2")))
# b2 = 11: sorted label order ("e10" < "e2") differs from basis order; e2 pairs with e10
ELEVEN = SurfaceModel(
    (1, 0, 11, 0, 1),
    IntersectionLattice.from_entries(
        {**{(i, i): 1 for i in range(11)}, (1, 9): 1, (9, 1): 1},
        tuple(f"e{i + 1}" for i in range(11)),
    ),
)


def brute_character(surface, tmax):
    # independent oracle: enumerate every multiset of creation generators
    gens = [
        (m, 2 * m - 2 + surface.degree(label))
        for m in range(1, tmax + 1)
        for label in surface.labels()
    ]
    coeffs = {}

    def rec(i, t, u):
        if i == len(gens):
            coeffs[(t, u)] = coeffs.get((t, u), 0) + 1
            return
        dt, du = gens[i]
        mult = 0
        while t + mult * dt <= tmax:
            rec(i + 1, t + mult * dt, u + mult * du)
            mult += 1

    rec(0, 0, 0)
    return coeffs


def dense_product(surface, tmax):
    # reference for the packed rows: rows[n][h] is the t^n u^(2h) coefficient
    # in plain lists, times one geometric factor per creation generator
    rows = [[0] * (2 * n + 1) for n in range(tmax + 1)]
    rows[0][0] = 1
    for m in range(1, tmax + 1):
        for label in surface.labels():
            k = m - 1 + surface.degree(label) // 2
            for n in range(m, tmax + 1):
                for h, c in enumerate(rows[n - m]):
                    rows[n][h + k] += c
    return {(n, 2 * h): c for n, row in enumerate(rows) for h, c in enumerate(row) if c}


def test_surface_model_validation():
    with pytest.raises(ValueError, match="odd cohomology unsupported"):
        SurfaceModel((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        SurfaceModel((2, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        SurfaceModel((1, 0, 1, 0))
    # non-integers are refused, not truncated or parsed; bools are integers
    with pytest.raises(ValueError, match=r"^Betti numbers must be integers, got 1\.5$"):
        SurfaceModel((1, 0, 1.5, 0, 1))
    with pytest.raises(ValueError, match="^Betti numbers must be integers, got '2'$"):
        SurfaceModel((1, 0, "2", 0, 1))
    # the degree-2 form is validated by IntersectionLattice alone
    with pytest.raises(ValueError, match=r"^gram entries must be integers, got 1\.0$"):
        SurfaceModel((1, 0, 1, 0, 1), IntersectionLattice(((1.0,),), ("h",)))
    assert SurfaceModel((True, 0, 1, 0, True)).betti == (1, 0, 1, 0, 1)


def test_surface_model_refuses_asymmetric_and_negative_betti():
    with pytest.raises(
        ValueError, match=r"^Betti numbers must be symmetric, got \(1, 1, 1, 0, 1\)$"
    ):
        SurfaceModel((1, 1, 1, 0, 1))
    with pytest.raises(
        ValueError, match=r"^Betti numbers must be non-negative, got \(1, 0, -1, 0, 1\)$"
    ):
        SurfaceModel((1, 0, -1, 0, 1))


def test_surface_model_refuses_b2_over_budget_before_building_its_form(monkeypatch):
    def unbuilt(entries, labels):
        raise AssertionError("IntersectionLattice.from_entries called")

    monkeypatch.setattr(IntersectionLattice, "from_entries", unbuilt)
    for b2 in (hilb.series.MAX_B2 + 1, 10**20):
        with pytest.raises(ValueError, match=rf"^b2 must be at most 100000, got {b2}$"):
            SurfaceModel((1, 0, b2, 0, 1))
    # at the budget the default form is built
    with pytest.raises(AssertionError, match="from_entries called"):
        SurfaceModel((1, 0, hilb.series.MAX_B2, 0, 1))


def test_degree_two_form_is_a_lattice_of_rank_b2():
    with pytest.raises(ValueError, match="^h2 must have rank b2 = 2, got rank 1$"):
        SurfaceModel((1, 0, 2, 0, 1), IntersectionLattice(((1,),), ("h",)))
    # the tuple-of-tuples form of the old h2_pairing parameter
    with pytest.raises(ValueError, match="^h2 must be an IntersectionLattice, got tuple$"):
        SurfaceModel((1, 0, 1, 0, 1), ((1,),))
    with pytest.raises(ValueError, match='^labels "1" and "pt" are reserved$'):
        SurfaceModel((1, 0, 1, 0, 1), IntersectionLattice(((1,),), ("pt",)))
    # the default form on e1..e_b2 pairs e_i.e_j = delta_ij
    three = SurfaceModel((1, 0, 3, 0, 1))
    assert three.labels() == ("1", "e1", "e2", "e3", "pt")
    for i, j in itertools.product(range(1, 4), repeat=2):
        assert three.pair(f"e{i}", f"e{j}") == (i == j)


def test_non_string_labels_are_refused():
    with pytest.raises(ValueError, match="^basis labels must be strings, got 3$"):
        SurfaceModel((1, 0, 1, 0, 1), IntersectionLattice(((1,),), (3,)))
    with pytest.raises(ValueError, match="^basis labels must be strings, got None$"):
        SurfaceModel((1, 0, 2, 0, 1), IntersectionLattice(((1, 0), (0, 1)), ("a", None)))


def test_surface_model_is_immutable():
    surface = p2_surface()
    for field in SurfaceModel.__slots__:
        with pytest.raises(AttributeError, match="^SurfaceModel is immutable$"):
            setattr(surface, field, None)
        with pytest.raises(AttributeError, match="^SurfaceModel is immutable$"):
            delattr(surface, field)
    # the two routes of the fock-character check read the one surface
    assert fock_character(surface, 3) == goettsche_series(surface, 3)
    # unpickling goes back through __init__; surfaces compare by value
    copy = pickle.loads(pickle.dumps(SKEW))
    assert (copy.betti, copy.h2, copy.basis) == (SKEW.betti, SKEW.h2, SKEW.basis)
    assert [copy.pair(a, b) for a in copy.labels() for b in copy.labels()] == [
        SKEW.pair(a, b) for a in SKEW.labels() for b in SKEW.labels()
    ]
    assert copy == SKEW and copy is not SKEW and len({copy, SKEW}) == 1
    assert SKEW != p2_surface() and SKEW != DENSE
    assert repr(copy) == "SurfaceModel(betti=(1, 0, 2, 0, 1))"



def test_surface_model_is_defined_by_betti_and_h2():
    # the derived slots take no part in comparing, hashing or pickling
    assert SurfaceModel._fields == ("betti", "h2")
    for surface in (P2, SKEW, ELEVEN, NO_H2):
        assert hash(surface) == hash((surface.betti, surface.h2))
        assert surface.__reduce__() == (SurfaceModel, (surface.betti, surface.h2))
        assert hash(vacuum(surface)) == hash((surface, frozenset({((), 1)})))
    big = SurfaceModel((1, 0, 3000, 0, 1))
    assert big == SurfaceModel((1, 0, 3000, 0, 1)) != SurfaceModel((1, 0, 2999, 0, 1))

def test_series_coefficients_are_read_only():
    series = goettsche_series(P2, 2)
    with pytest.raises(TypeError):
        series.coeffs[(1, 2)] = -7
    for field, value in (("coeffs", {}), ("truncation", 5)):
        with pytest.raises(AttributeError, match="^GradedSeries is immutable$"):
            setattr(series, field, value)
    assert series.t_slice(1) == {0: 1, 2: 1, 4: 1}
    copy = pickle.loads(pickle.dumps(series))
    assert copy == series and copy is not series
    assert repr(copy) == "GradedSeries(truncation=2, terms=9)"


def test_p2_surface_basis_and_pairing():
    assert P2.labels() == ("1", "h", "pt")
    assert P2.degree("1") == 0
    assert P2.degree("h") == 2
    assert P2.degree("pt") == 4
    assert P2.pair("1", "pt") == 1
    assert P2.pair("pt", "1") == 1
    assert P2.pair("h", "h") == 1
    assert P2.pair("1", "h") == 0
    assert P2.euler_characteristic() == 3
    assert K3.euler_characteristic() == 24
    assert len(K3.labels()) == 24


def test_goettsche_p2_slices_frozen():
    series = goettsche_series(P2, 3)
    assert series.t_slice(0) == {0: 1}
    assert series.t_slice(1) == {0: 1, 2: 1, 4: 1}
    assert series.t_slice(2) == {0: 1, 2: 2, 4: 3, 6: 2, 8: 1}
    assert series.slice_str(1) == "1 + u^2 + u^4"


def test_euler_specialization_frozen():
    series = goettsche_series(P2, 4)
    assert [series.u_one(n) for n in range(5)] == [1, 3, 9, 22, 51]
    k3 = goettsche_series(K3, 3)
    assert [k3.u_one(n) for n in range(4)] == [1, 24, 324, 3200]


def test_character_matches_brute_enumeration():
    for surface, tmax in ((P2, 5), (K3, 3), (NO_H2, 6), (SKEW, 5)):
        want = brute_character(surface, tmax)
        got = fock_character(surface, tmax)
        assert got.coeffs == {k: v for k, v in want.items() if v}
        assert goettsche_series(surface, tmax).coeffs == got.coeffs


def test_series_validation(size_gate):
    from hilb import GradedSeries

    with pytest.raises(ValueError):
        GradedSeries(2, {(1, 1): 1})  # odd u-degree
    with pytest.raises(ValueError):
        GradedSeries(2, {(3, 0): 1})  # beyond truncation
    with pytest.raises(ValueError):
        GradedSeries(2, {(1, 6): 1})  # u-degree above 4n
    # the truncation, both degrees and the coefficients are integers, keyed
    # by (t-degree, u-degree) pairs; bools pass
    pairs = r"series keys must be \(t-degree, u-degree\) pairs"
    for call, shown in (
        (lambda: GradedSeries(2.5, {}), r"truncation must be an integer, got 2\.5"),
        (lambda: GradedSeries(2, {(1.0, 2): 1}), r"t-degrees must be integers, got 1\.0"),
        (lambda: GradedSeries(2, {(1, "2"): 1}), r"u-degrees must be integers, got '2'"),
        (lambda: GradedSeries(2, {(1, 2): 1.5}), r"series coefficients must be integers, got 1\.5"),
        (lambda: GradedSeries(2, {1: 1}), rf"{pairs}, got 1"),
        (lambda: GradedSeries(2, {(1,): 1}), rf"{pairs}, got \(1,\)"),
        (lambda: GradedSeries(2, {(1, 2, 3): 1}), rf"{pairs}, got \(1, 2, 3\)"),
    ):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            call()
    assert GradedSeries(True, {(True, 2): True}) == GradedSeries(1, {(1, 2): 1})
    series = goettsche_series(P2, 2)
    with pytest.raises(ValueError, match="^t-degree out of range: 3$"):
        series.t_slice(3)
    size_gate(lambda t: GradedSeries(t, {}), "truncation", 0)
    size_gate(lambda t: goettsche_series(P2, t), "truncation", 0)
    size_gate(lambda t: fock_character(K3, t), "truncation", 0)
    # t_slice(2.5) used to answer {} and u_one(2.5) 0
    size_gate(series.t_slice, "t-degree", 0)
    size_gate(series.u_one, "t-degree", 0)
    size_gate(series.slice_str, "t-degree", 0)


def test_vacuum_and_create():
    vac = vacuum(P2)
    one = create(vac, 1, "pt")
    assert one.terms == {((1, "pt"),): 1}
    two = create(one, 1, "pt")
    assert two.terms == {((1, "pt"), (1, "pt")): 1}
    assert two.bidegree(((1, "pt"), (1, "pt"))) == (2, 8)
    deep = create(vac, 2, "1")
    assert deep.bidegree(next(iter(deep.terms))) == (2, 2)
    with pytest.raises(ValueError):
        create(vac, 0, "pt")
    with pytest.raises(ValueError):
        create(vac, 1, "nope")


def test_state_linear_algebra():
    vac = vacuum(P2)
    a = create(vac, 1, "h")
    b = create(vac, 2, "h")
    combo = 3 * a + b - a
    assert combo == 2 * a + b
    assert (a - a).is_zero()
    assert repr(a - a) == "FockState(0)"
    # a state of another surface is checked against this one
    with pytest.raises(ValueError, match="no cohomology class"):
        vac + create(vacuum(SKEW), 1, "f1")
    # canonical ordering: products in either order agree
    assert create(create(vac, 1, "h"), 2, "pt") == create(
        create(vac, 2, "pt"), 1, "h"
    )


def test_fock_states_hold_integers_only(size_gate):
    h = ((1, "h"),)
    with pytest.raises(ValueError, match="Fock coefficients must be integers, got 1.5"):
        FockState(P2, {h: 1.5})
    with pytest.raises(ValueError, match="creation levels must be integers, got 1.0"):
        FockState(P2, {((1.0, "h"),): 1})
    with pytest.raises(ValueError, match="scales by integers only, got 2.5"):
        2.5 * vacuum(P2)
    # bools are integers, as for every other integer input
    assert FockState(P2, {((True, "h"),): True}) == FockState(P2, {h: 1})
    assert True * vacuum(P2) == vacuum(P2)
    with pytest.raises(ValueError, match="^creation level must be at least 1, got 0$"):
        FockState(P2, {((0, "h"),): 1})
    # malformed monomials: not iterable, a factor that is no pair, and
    # labels that do not sort, which used to raise TypeError or a bare
    # unpacking ValueError
    for terms, shown in (
        ({5: 1}, r"Fock monomials must be iterables of \(level, label\) factors, got 5"),
        ({((1, "h", 3),): 1}, r"Fock factors must be \(level, label\) pairs, got \(1, 'h', 3\)"),
        ({((1, 5), (1, "h")): 1}, "no cohomology class named 5"),
    ):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            FockState(P2, terms)
    # create(vac, 1.5, "h") used to build the state a[-1.5](h)
    size_gate(lambda m: create(vacuum(P2), m, "h"), "creation level", 1)
    size_gate(lambda m: annihilate(create(vacuum(P2), 1, "h"), m, "h"), "annihilation level", 1)
    size_gate(lambda t: basis_monomials(P2, t), "t-weight", 0)


def reference_canonical_terms(surface, terms):
    # the public constructor's canonicalisation before its one-pass check:
    # every monomial has its shape checked, its levels coerced, then is
    # sorted, then checked; labels that do not sort name the first non-str
    clean = {}
    for mono, c in terms.items():
        try:
            mono = list(mono)
        except TypeError:
            raise ValueError(
                f"Fock monomials must be iterables of (level, label) factors, got {mono!r}"
            ) from None
        for i, factor in enumerate(mono):
            try:
                mono[i] = tuple(factor)
            except TypeError:
                mono[i] = ()
            if len(mono[i]) != 2:
                raise ValueError(f"Fock factors must be (level, label) pairs, got {factor!r}")
        if any(type(level) is not int for level, _ in mono):
            mono = [(as_int(lv, "creation levels must be integers"), lb) for lv, lb in mono]
        try:
            mono = tuple(sorted(mono))
        except TypeError:
            surface.degree(next(lb for _, lb in mono if not isinstance(lb, str)))
        for level, label in mono:
            if level < 1:
                raise ValueError(f"creation level must be at least 1, got {level}")
            surface.degree(label)
        c = as_int(c, "Fock coefficients must be integers") + clean.get(mono, 0)
        if c:
            clean[mono] = c
        else:
            clean.pop(mono, None)
    return clean


@st.composite
def raw_terms(draw):
    # unsorted factors with bool levels, and each monomial maybe again in
    # reverse with the opposite coefficient, so that terms cancel to zero;
    # half the draws also hold level 0, a float level, an unknown label, a
    # label that is no str or a factor that is no pair
    surface = draw(st.sampled_from((P2, SKEW, ELEVEN)))
    level = st.one_of(st.integers(1, 3), st.just(True))
    label = st.sampled_from(surface.labels())
    factor = st.tuples(level, label)
    if draw(st.booleans()):
        level = st.one_of(level, st.sampled_from((0, False, 2.5)))
        label = st.one_of(label, st.sampled_from(("nope", 1, None)))
        factor = st.one_of(st.tuples(level, label), st.sampled_from(((1,), (1, "pt", 3))))
    monos = st.lists(factor, max_size=4).map(tuple)
    terms = {}
    for mono, c, cancel in draw(
        st.lists(st.tuples(monos, st.integers(-2, 2), st.booleans()), max_size=5)
    ):
        terms[mono] = c
        if cancel:
            terms[mono[::-1]] = -c
    return surface, terms


def canonicalised(call):
    try:
        return repr(call())
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=200)
@given(raw_terms())
def test_fock_state_canonicalises_as_the_reference(drawn):
    # the one-pass check of exact valid factors gives the same terms, and a
    # failing monomial the same error naming the same factor
    surface, terms = drawn
    want = canonicalised(lambda: reference_canonical_terms(surface, terms))
    assert canonicalised(lambda: dict(FockState(surface, terms).terms)) == want


def test_fock_states_are_immutable():
    vac = vacuum(P2)
    # the invariant could be broken after construction, and vac then
    # printed FockState(1*vac + 0*a[-1](nope))
    with pytest.raises(TypeError):
        vac.terms[((1, "nope"),)] = 0
    for field in FockState.__slots__:
        with pytest.raises(AttributeError, match="^FockState is immutable$"):
            setattr(vac, field, None)
        with pytest.raises(AttributeError, match="^FockState is immutable$"):
            delattr(vac, field)
    assert vac == vacuum(vac.surface) and repr(vac) == "FockState(1*vac)"
    one = create(vac, 1, "pt")
    for made in (one, annihilate(one, 1, "1"), one + vac, one - one, 2 * one):
        with pytest.raises(TypeError):
            made.terms[()] = 5
    # unpickling goes back through __init__, onto a copy of the surface
    copy = pickle.loads(pickle.dumps(one))
    assert copy.terms == one.terms and repr(copy) == "FockState(1*a[-1](pt))"


@pytest.mark.parametrize("surface", [P2, K3, SKEW, DENSE], ids=["p2", "k3", "skew", "dense"])
def test_pickled_fock_state_is_an_equal_value(surface):
    # the copy lives on an equal but distinct surface, so it is equal and
    # hashes equal, and the operators take it as a state of the original
    label = surface.labels()[1]
    state = 3 * create(create(vacuum(surface), 2, label), 1, "pt") - vacuum(surface)
    copy = pickle.loads(pickle.dumps(state))
    assert copy.surface == surface and copy.surface is not surface
    assert copy == state and hash(copy) == hash(state) and len({copy, state}) == 1
    assert (copy - state).is_zero() and (state + copy) == 2 * state
    # the same terms on a surface with the opposite form are another value
    opposite = IntersectionLattice.from_entries(
        {ij: -x for ij, x in surface.h2.entries().items()}, surface.h2.labels
    )
    assert state != FockState(SurfaceModel(surface.betti, opposite), state.terms)


@st.composite
def two_states_and_a_factor(draw):
    # monomials are drawn unsorted and may repeat up to order, so the public
    # constructor has sorting, merging and zero-dropping to do
    surface = draw(st.sampled_from((P2, SKEW, DENSE)))
    factor = st.tuples(st.integers(1, 3), st.sampled_from(surface.labels()))
    terms = st.dictionaries(
        st.lists(factor, max_size=4).map(tuple), st.integers(-3, 3), max_size=5
    )
    return FockState(surface, draw(terms)), FockState(surface, draw(terms)), draw(factor)


@settings(derandomize=True, max_examples=150)
@given(two_states_and_a_factor(), st.integers(-3, 3))
def test_fock_operations_keep_states_canonical(states, k):
    s, t, (m, label) = states
    surface = s.surface
    made = create(s, m, label)
    results = [made, annihilate(s, m, label), s + t, s - t, k * s]
    for r in results:
        # sorted monomials, no zero coefficient, every factor valid
        assert r == FockState(surface, r.terms)
    assert made.terms == {
        tuple(sorted(mono + ((m, label),))): c for mono, c in s.terms.items()
    }
    assert (s - t) + t == s
    assert s - t == s + (-1) * t
    assert (s - s).is_zero() and (0 * s).is_zero()
    other = surface.labels()[-1]
    lhs = annihilate(create(s, m, other), m, label) - create(annihilate(s, m, label), m, other)
    assert lhs == nakajima_closed_form(m) * surface.pair(label, other) * s


def test_annihilate_frozen():
    vac = vacuum(P2)
    assert annihilate(vac, 1, "1").is_zero()
    assert annihilate(create(vac, 1, "pt"), 1, "1") == vacuum(P2)
    assert annihilate(create(vac, 2, "h"), 1, "h").is_zero()  # level mismatch
    # c_2 = -2 shows up against a level-2 generator
    assert annihilate(create(vac, 2, "pt"), 2, "1") == -2 * vac
    # <g1, g1> = 1 and <g1, g2> = 2 cancel, leaving no zero term behind
    cancelling = FockState(DENSE, {((1, "g1"),): 2, ((1, "g2"),): -1})
    assert annihilate(cancelling, 1, "g1").terms == {}
    with pytest.raises(ValueError):
        annihilate(vac, 0, "1")


def test_annihilate_is_a_derivation():
    vac = vacuum(P2)
    square = create(create(vac, 1, "pt"), 1, "pt")
    assert annihilate(square, 1, "1") == 2 * create(vac, 1, "pt")
    mixed = create(create(vac, 1, "pt"), 2, "h")
    assert annihilate(mixed, 1, "1") == create(vac, 2, "h")
    assert annihilate(mixed, 2, "h") == -2 * create(vac, 1, "pt")


def test_basis_monomials_counts():
    # one monomial per 3-colored partition of each t-weight
    monos = basis_monomials(P2, 4)
    by_t = {}
    for mono in monos:
        t = sum(level for level, _ in mono)
        by_t[t] = by_t.get(t, 0) + 1
    assert by_t == {0: 1, 1: 3, 2: 9, 3: 22, 4: 51}
    assert len(set(monos)) == len(monos)


def brute_basis_monomials(surface, max_t):
    # independent route: every multiset of generators of t-weight <= max_t,
    # in the order of its multiplicity vector over the generators
    gens = [(m, label) for m in range(1, max_t + 1) for label in surface.labels()]
    monos = [
        tuple(sorted(mono))
        for size in range(max_t + 1)
        # a multiset of `size` generators has no level above max_t - size + 1
        for mono in itertools.combinations_with_replacement(
            [g for g in gens if g[0] <= max_t - size + 1], size
        )
        if sum(level for level, _ in mono) <= max_t
    ]
    return sorted(monos, key=lambda mono: [mono.count(g) for g in gens])


def test_basis_monomials_match_brute_force():
    # K3 stops at depth 4: depth 5 has 205,455 monomials
    for surface, top in ((P2, 5), (K3, 4), (SKEW, 5)):
        for depth in range(top + 1):
            assert basis_monomials(surface, depth) == brute_basis_monomials(surface, depth)


def test_commutator_scalars_frozen():
    r = commutator_check(P2, 1, 1, "1", "pt")
    assert r.passed and r.scalar == 1 and r.probes_checked > 0
    r = commutator_check(P2, 2, 3, "h", "h")
    assert r.passed and r.scalar == 0
    r = commutator_check(P2, 2, 2, "1", "pt")
    assert r.passed and r.scalar == -2
    r = commutator_check(P2, 3, 3, "h", "h")
    assert r.passed and r.scalar == 3


def test_commutator_on_skew_pairing_model():
    assert SKEW.pair("f1", "f1") == 0
    assert SKEW.pair("f1", "f2") == 1
    probes = [vacuum(SKEW)] + [
        FockState(SKEW, {mono: 1}) for mono in basis_monomials(SKEW, 3)
    ]
    r = commutator_check(SKEW, 2, 2, "f1", "f1", probes=probes)
    assert r.passed and r.scalar == 0
    r = commutator_check(SKEW, 2, 2, "f1", "f2", probes=probes)
    assert r.passed and r.scalar == -2


def full_grid(surface, top, labels=None):
    labels = labels or surface.labels()
    return [
        (m, k, alpha, beta)
        for m in range(1, top + 1)
        for k in range(1, top + 1)
        for alpha in labels
        for beta in labels
    ]


def basis_probes(surface, depth):
    return [FockState(surface, {mono: 1}) for mono in basis_monomials(surface, depth)]


def test_commutator_checks_match_one_quadruple_at_a_time():
    for surface, top, depth in ((P2, 4, 4), (SKEW, 3, 3)):
        probes = basis_probes(surface, depth)
        # a probe with several terms, so images overlap and cancel in the merge
        probes.append(3 * probes[1] - probes[-1] + probes[depth])
        quads = full_grid(surface, top)
        reports = commutator_checks(surface, quads, probes)
        assert reports == [commutator_check(surface, *quad, probes) for quad in quads]
        assert all(rep.passed for rep in reports)
        assert {rep.scalar for rep in reports} != {0}


def test_commutator_checks_catch_a_broken_annihilator(monkeypatch):
    kernel = hilb.heisenberg._annihilated_packed

    def doubled(*args):
        return {key: 2 * c for key, c in kernel(*args).items()}

    monkeypatch.setattr(hilb.heisenberg, "_annihilated_packed", doubled)
    probes = basis_probes(P2, 3)
    for rep in commutator_checks(P2, full_grid(P2, 3), probes):
        # the doubled commutator is 2 * scalar, so every probe fails iff scalar != 0
        want = tuple(range(len(probes))) if rep.scalar else ()
        assert rep.failures == want, rep


def break_annihilators(monkeypatch, bad):
    """a_m(alpha) wrongly kills every monomial that holds the factor `bad`.

    Both kernels break alike: the tuple one that `annihilate` uses, and
    the packed one of commutator_checks, which drops every key whose slot
    for `bad` is nonzero.
    """
    tuples, packed = hilb.heisenberg._annihilated, hilb.heisenberg._annihilated_packed

    def drops_bad(terms, partners):
        return tuples({m: c for m, c in terms.items() if bad not in m}, partners)

    def drops_bad_keys(keys, partners, unit, bits):
        slot = unit.get(bad, 0) * ((1 << bits) - 1)
        return packed({key: c for key, c in keys.items() if not key & slot}, partners, unit, bits)

    monkeypatch.setattr(hilb.heisenberg, "_annihilated", drops_bad)
    monkeypatch.setattr(hilb.heisenberg, "_annihilated_packed", drops_bad_keys)


def reference_failures(surface, quad, probes):
    # one probe at a time, through the public operators only
    m, k, alpha, beta = quad
    scalar = nakajima_closed_form(m) * surface.pair(alpha, beta) if m == k else 0
    return tuple(
        idx
        for idx, probe in enumerate(probes)
        if annihilate(create(probe, k, beta), m, alpha)
        - create(annihilate(probe, m, alpha), k, beta)
        != scalar * probe
    )


def mixed_probes(surface, depth):
    basis = basis_probes(surface, depth)
    return [
        vacuum(surface),
        FockState(surface),  # the zero state
        *basis[1 :: max(1, len(basis) // 6)],
        basis[-1],
        basis[-1],  # a repeated probe
        3 * basis[1] - 2 * basis[-1] + basis[len(basis) // 2],
        -5 * basis[2] + 7 * basis[3] - basis[0],
    ]


def stacked_probes(surface, factor, counts):
    # one factor held up to max(counts) times, so creating it once more fills
    # its slot to max(counts) + 1, beside probes that do not hold it
    other = (2, "pt")
    return [
        vacuum(surface),
        FockState(surface, {(other,): 1}),
        *[FockState(surface, {(factor,) * n: 1}) for n in counts],
        FockState(surface, {(factor,) * 3 + (other,): 2, (factor,): -1}),
    ]


@pytest.mark.parametrize("broken", [False, True], ids=["real", "broken"])
@pytest.mark.parametrize(
    "surface, labels, top, probes, bad",
    [
        (P2, None, 3, mixed_probes(P2, 4), (1, "h")),
        (SKEW, None, 3, mixed_probes(SKEW, 3), (1, "f1")),
        (K3, ("1", "e1", "e2", "pt"), 2, mixed_probes(K3, 2), (1, "e1")),
        (ELEVEN, ("1", "e2", "e10", "e11", "pt"), 2, mixed_probes(ELEVEN, 2), (1, "e10")),
        # a slot filled to 7 + 1 = 2^3 and to 8 + 1; creators at level 3 lie
        # above every probe level
        (P2, None, 3, stacked_probes(P2, (1, "h"), (1, 3, 4, 7)), (1, "h")),
        (P2, None, 3, stacked_probes(P2, (1, "h"), (1, 3, 4, 7, 8)), (1, "h")),
    ],
    ids=["p2", "skew", "k3", "b2-11", "slots-7", "slots-8"],
)
def test_commutator_checks_match_a_per_probe_reference(
    monkeypatch, broken, surface, labels, top, probes, bad
):
    if broken:
        break_annihilators(monkeypatch, bad)
    quads = full_grid(surface, top, labels)
    reports = commutator_checks(surface, quads, probes)
    assert [rep.failures for rep in reports] == [
        reference_failures(surface, quad, probes) for quad in quads
    ]
    assert {rep.probes_checked for rep in reports} == {len(probes)}
    nonzero = {idx for idx, probe in enumerate(probes) if not probe.is_zero()}
    partial = [rep for rep in reports if rep.failures and set(rep.failures) < nonzero]
    # only the broken run fails, and there only on some of the probes
    assert bool(partial) == broken
    assert all(rep.passed for rep in reports) != broken


@pytest.mark.parametrize("broken", [False, True], ids=["real", "broken"])
@pytest.mark.parametrize("surface", [P2, SKEW], ids=["p2", "skew"])
def test_commutator_checks_default_probes_are_the_basis_through_t_weight_6(
    monkeypatch, broken, surface
):
    if broken:
        break_annihilators(monkeypatch, (1, "1"))
    quads = full_grid(surface, 2) + [(7, 7, "pt", "1"), (1, 9, "1", "pt")]
    explicit = basis_probes(surface, 6)
    reports = commutator_checks(surface, quads)
    assert reports == commutator_checks(surface, quads, explicit)
    # broken, some probes fail but not all, at the same indices either way
    assert any(0 < len(rep.failures) < len(explicit) for rep in reports) == broken


def test_commutator_checks_take_levels_far_above_the_probes():
    # a factor's slot does not depend on its level
    big = 10**12
    quads = [(big, big, "h", "h"), (big, big, "1", "pt"), (big, 1, "pt", "1"), (1, big, "h", "h")]
    reports = commutator_checks(P2, quads)
    assert [rep.scalar for rep in reports] == [-big, -big, 0, 0]
    assert all(rep.passed and rep.probes_checked == 415 for rep in reports)


def test_commutator_checks_refuse_too_many_default_probes(monkeypatch):
    # the count comes first: no default probe is built before the refusal
    def unbuilt(surface, max_t):
        raise AssertionError("basis_monomials called")

    monkeypatch.setattr(hilb.heisenberg, "basis_monomials", unbuilt)
    message = "^1279175 default probes exceed 60000; pass probes$"
    with pytest.raises(ValueError, match=message):
        commutator_checks(K3, [(1, 1, "e1", "e1")])
    with pytest.raises(ValueError, match=message):
        commutator_check(K3, 1, 1, "e1", "e1")
    # the plane's 415 probes sit exactly at a limit of 415
    monkeypatch.setattr(hilb.heisenberg, "MAX_DEFAULT_PROBES", 414)
    with pytest.raises(ValueError, match="^415 default probes exceed 414;"):
        commutator_checks(P2, [(1, 1, "h", "h")])
    monkeypatch.undo()
    monkeypatch.setattr(hilb.heisenberg, "MAX_DEFAULT_PROBES", 415)
    [rep] = commutator_checks(P2, [(1, 1, "h", "h")])
    assert rep.passed and rep.probes_checked == 415
    # explicit probes are not counted
    [rep] = commutator_checks(K3, [(1, 1, "e1", "e1")], [vacuum(K3)])
    assert rep.passed and rep.scalar == 1


def test_commutator_checks_keep_monomials_sorted_by_label_not_basis_order():
    # every probe through t-weight 2 of ELEVEN, so some hold e10 before e2, and
    # creators that fall between them: a factor code out of sorted label order
    # would insert them at the wrong place
    probes = basis_probes(ELEVEN, 2)
    quads = full_grid(ELEVEN, 2, ("e2", "e5", "e10", "e11"))
    reports = commutator_checks(ELEVEN, quads, probes)
    assert [rep.failures for rep in reports] == [
        reference_failures(ELEVEN, quad, probes) for quad in quads
    ]
    assert all(rep.passed for rep in reports)
    assert {rep.scalar for rep in reports} == {0, 1, -2}


def test_commutator_checks_revalidate_probes_from_another_surface(monkeypatch):
    foreign = FockState(K3, {((1, "e5"),): 1})  # e5 is no class of the plane
    with pytest.raises(ValueError, match="no cohomology class named 'e5'"):
        commutator_checks(P2, [(1, 1, "h", "h")], [foreign])
    # no probe may be touched: every quadruple reaches the packed kernel
    monkeypatch.setattr(hilb.heisenberg, "_annihilated_packed", None)
    with pytest.raises(ValueError, match="no cohomology class named 'e5'"):
        commutator_checks(P2, [(1, 1, "h", "h")], [vacuum(P2), foreign])
    monkeypatch.undo()
    # another model of the plane: its labels are valid here, so it is checked
    twin = p2_surface()
    probe = 2 * create(vacuum(twin), 1, "h") - vacuum(twin)
    native = FockState(P2, probe.terms)
    assert commutator_checks(P2, full_grid(P2, 2), [probe]) == commutator_checks(
        P2, full_grid(P2, 2), [native]
    )


@pytest.mark.parametrize("probes", [[], None], ids=["no-probes", "default-probes"])
def test_commutator_checks_validate_every_quadruple(probes, size_gate):
    bad = [
        ((0, 1, "h", "h"), "annihilation level must be at least 1, got 0"),
        ((1, -2, "h", "h"), "creation level must be at least 1, got -2"),
        ((1.5, 1, "h", "h"), r"annihilation level must be an integer, got 1\.5"),
        ((1, 1.5, "h", "h"), r"creation level must be an integer, got 1\.5"),
        ((1, 2, "zz", "h"), "no cohomology class named 'zz'"),
        ((2, 1, "h", "zz"), "no cohomology class named 'zz'"),
    ]
    for quad, message in bad:
        with pytest.raises(ValueError, match=message):
            commutator_check(P2, *quad, probes)
        with pytest.raises(ValueError, match=message):
            # a valid quadruple first: the bad one is still refused
            commutator_checks(P2, [(1, 1, "h", "h"), quad], probes)
    # these used to raise TypeError "cannot unpack non-iterable int object"
    # and "not enough values to unpack"
    for quad, shown in ((5, "5"), ((1, 1, "h"), r"\(1, 1, 'h'\)")):
        message = rf"^a quadruple must be \(m, k, alpha, beta\), got {shown}$"
        with pytest.raises(ValueError, match=message):
            commutator_checks(P2, [(1, 1, "h", "h"), quad], probes)
    # the reports carry the coerced levels
    size_gate(lambda m: commutator_check(P2, m, 1, "h", "h", probes), "annihilation level", 1)
    size_gate(lambda k: commutator_check(P2, 1, k, "h", "h", probes), "creation level", 1)
    assert type(commutator_check(P2, True, True, "h", "h", probes).m) is int


def test_fock_equals_goettsche_to_order_14():
    for surface in (P2, K3):
        for tmax in range(15):
            assert fock_character(surface, tmax) == goettsche_series(surface, tmax)


@pytest.mark.parametrize(
    "surface, tmax",
    [(P2, 25), (K3, 25), (SKEW, 20), (SurfaceModel((1, 0, 3000, 0, 1)), 3)],
    ids=["p2", "k3", "skew", "b2-3000"],
)
def test_packed_series_match_a_dense_product(surface, tmax):
    want = dense_product(surface, tmax)
    bits = hilb.series._slot_bits(surface, tmax)
    for series in (goettsche_series(surface, tmax), fock_character(surface, tmax)):
        assert series.coeffs == want
        # no slot carries into the next: the top bit of every slot stays clear
        for n in range(tmax + 1):
            assert max(series.t_slice(n).values()).bit_length() < bits


def test_series_match_those_of_the_old_slot_width(monkeypatch):
    # rows n <= T of a series do not depend on T, so one series per surface
    # at the old width T * bit_length(2 chi) is the reference for every T
    tops = [(P2, 60), (K3, 60), (SKEW, 60), (SurfaceModel((1, 0, 3000, 0, 1)), 3)]
    with monkeypatch.context() as patched:
        patched.setattr(
            hilb.series,
            "_slot_bits",
            lambda surface, t: max(1, t * (2 * surface.euler_characteristic()).bit_length()),
        )
        wide = [(s, top, goettsche_series(s, top), fock_character(s, top)) for s, top in tops]
    for surface, top, old_goettsche, old_fock in wide:
        assert old_goettsche == old_fock
        for tmax in range(top + 1):
            want = {key: c for key, c in old_fock.coeffs.items() if key[0] <= tmax}
            assert goettsche_series(surface, tmax).coeffs == want
            assert fock_character(surface, tmax).coeffs == want
    # bit_length(p_24(T)) + 1, not the 600 / 1,200 / 2,400 bits of the old width
    assert [hilb.series._slot_bits(K3, t) for t in (100, 200, 400)] == [136, 205, 304]


def test_degree_rejects_unknown_labels():
    for label in ("e1", "H", "", None, ["h"]):
        with pytest.raises(ValueError, match="no cohomology class"):
            P2.degree(label)
    with pytest.raises(ValueError, match="no cohomology class"):
        P2.pair("h", "x")
    with pytest.raises(ValueError, match="no cohomology class"):
        FockState(P2, {((1, "x"),): 1})
    assert [K3.degree(label) for label in ("1", "e1", "e22", "pt")] == [0, 2, 2, 4]
