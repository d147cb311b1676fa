"""The Heisenberg Fock model on a surface's cohomology.

The creation operators a_{-m}(gamma) generate a free commutative
algebra on the cohomology of a `SurfaceModel`, whose character is the
Goettsche series; the models and both series are in `hilb.series`. Fock
states are immutable, with a read-only `terms` view. Annihilation
operators act as derivations with

    [a_m(alpha), a_{-k}(beta)] = delta_{mk} * c_m * <alpha, beta> * id,

where c_m is the m-th Nakajima constant, imported from the intersection
calculus rather than re-derived.
commutator_checks verifies the relation on spanning probe states for a
list of (m, k, alpha, beta): it packs every probe monomial into one int
key, a multiset with one slot per factor (level, label) that counts its
copies and the probe's index as a tag above every slot, and puts all
probes into one state. Creation adds one slot unit to every key,
annihilation subtracts one from each key whose slot is nonzero (no slot
carries or borrows; _annihilated_packed proves it), so each kernel makes
a single pass over all probes on ints only, and a probe fails iff its
tag survives in the residue. commutator_check is its one-quadruple
case. The public operators keep their own tuple kernels, _created and
_annihilated, which the tests use as an independent reference.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain
from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional

from .common import Record
from .errors import as_int, as_size
from .lattice import nakajima_closed_form
from .series import SurfaceModel, fock_character

# read here by perfbench/workloads.py until ROADMAP item 21 deletes them
from .series import goettsche_series, k3_surface, p2_surface


# A Fock monomial is a sorted tuple of (level, class-label) factors; the
# empty tuple is the vacuum.
FockMonomial = tuple[tuple[int, str], ...]


class FockState(Record):
    """Integer linear combination of commuting creation monomials.

    Invariant: `terms` maps sorted monomials to non-zero integer
    coefficients, and every factor has an integer level >= 1 and a label
    of `surface`. Immutable: `terms` is a read-only view. Only this
    public constructor validates and canonicalises its input, coercing
    levels and coefficients with errors.as_int; `create`, `annihilate`,
    `+`, `-` and `k *` (which coerces k the same way) start from states
    that already hold the invariant and build canonical terms directly
    through `_of`, which checks nothing.
    """

    __slots__ = ("surface", "terms")

    def __init__(self, surface: SurfaceModel, terms: Optional[dict] = None):
        clean: dict[FockMonomial, int] = {}
        for mono, c in (terms or {}).items():
            # exact valid factors need one pass and a sort; this loop runs
            # once per probe, and only a monomial that fails it, or that it
            # cannot unpack, takes _canonical
            try:
                for level, label in mono:
                    if not (
                        type(level) is int
                        and level >= 1
                        and type(label) is str
                        and label in surface._degrees
                    ):
                        raise ValueError
            except (TypeError, ValueError):
                mono = _canonical(surface, mono)
            else:
                mono = tuple(sorted(mono))
            if type(c) is not int:
                c = as_int(c, "Fock coefficients must be integers")
            c += clean.get(mono, 0)
            if c:
                clean[mono] = c
            else:
                clean.pop(mono, None)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _of(cls, surface: SurfaceModel, terms: dict) -> "FockState":
        """A state whose `terms` already hold the invariant; nothing is checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "surface", surface)
        object.__setattr__(state, "terms", MappingProxyType(terms))
        return state

    def is_zero(self) -> bool:
        return not self.terms

    def bidegree(self, mono: FockMonomial) -> tuple[int, int]:
        t = sum(level for level, _ in mono)
        u = sum(2 * level - 2 + self.surface.degree(label) for level, label in mono)
        return (t, u)

    def _plus(self, other: "FockState", sign: int) -> "FockState":
        merged = _added(dict(self.terms), other.terms, sign)
        if other.surface is not self.surface:
            # other's labels were checked against its own surface only
            return FockState(self.surface, merged)
        return FockState._of(self.surface, merged)

    def __add__(self, other: "FockState") -> "FockState":
        return self._plus(other, 1)

    def __sub__(self, other: "FockState") -> "FockState":
        return self._plus(other, -1)

    def __rmul__(self, k: int) -> "FockState":
        k = as_int(k, "a Fock state scales by integers only")
        terms = {m: k * c for m, c in self.terms.items()} if k else {}
        return FockState._of(self.surface, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "FockState(0)"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            body = (
                "*".join(f"a[-{lv}]({lb})" for lv, lb in mono) if mono else "vac"
            )
            bits.append(f"{c}*{body}")
        return "FockState(" + " + ".join(bits) + ")"


def _canonical(surface: SurfaceModel, mono) -> FockMonomial:
    """mono with its levels coerced, then sorted, then checked factor by factor.

    A monomial that cannot be iterated, or a factor that is no (level,
    label) pair, is refused before anything is coerced. Then the first
    factor in sorted order that fails names the error; if the labels do
    not sort, the first label in mono's order that is no str does.
    """
    try:
        factors = list(mono)
    except TypeError:
        raise ValueError(
            f"Fock monomials must be iterables of (level, label) factors, got {mono!r}"
        ) from None
    for i, factor in enumerate(factors):
        try:
            level, label = factor
        except (TypeError, ValueError):
            raise ValueError(
                f"Fock factors must be (level, label) pairs, got {factor!r}"
            ) from None
        factors[i] = (level, label)
    for level, _ in factors:
        if type(level) is not int:
            factors = [(as_int(lv, "creation levels must be integers"), lb) for lv, lb in factors]
            break
    try:
        mono = tuple(sorted(factors))
    except TypeError:
        for _, label in factors:
            if not isinstance(label, str):
                surface.degree(label)
        raise
    for level, label in mono:
        if level < 1:
            raise ValueError(f"creation level must be at least 1, got {level}")
        surface.degree(label)
    return mono


def vacuum(surface: SurfaceModel) -> FockState:
    """The empty monomial with coefficient 1."""
    return FockState(surface, {(): 1})


def _added(a: dict, b: dict, sign: int) -> dict:
    """Canonical a, with sign * b added in place, for canonical a and b."""
    for mono, c in b.items():
        c = a.get(mono, 0) + sign * c
        if c:
            a[mono] = c
        else:
            del a[mono]
    return a


def _created(terms: dict, factor) -> dict:
    """Canonical terms times one valid factor, inserted at its sorted place.

    Distinct monomials stay distinct, so no coefficient merges or vanishes.
    """
    out = {}
    for mono, c in terms.items():
        pos = bisect(mono, factor)
        out[mono[:pos] + (factor,) + mono[pos:]] = c
    return out


def _partners(pairing: dict, m: int, alpha: str, cm: int) -> list:
    """(factor a_{-m}(beta), weight c_m <alpha, beta>) for each beta that alpha pairs with."""
    return [((m, b), cm * ip) for (a, b), ip in pairing.items() if a == alpha]


def _annihilated(terms: dict, partners: list) -> dict:
    """Canonical terms under the annihilator whose partners _partners listed.

    Each partner factor present in a monomial is removed once,
    contributing its multiplicity times its weight.
    """
    out: dict = {}
    for mono, c in terms.items():
        for factor, weight in partners:
            copies = mono.count(factor)
            if copies:
                pos = mono.index(factor)
                reduced = mono[:pos] + mono[pos + 1 :]
                out[reduced] = out.get(reduced, 0) + c * copies * weight
    return {mono: c for mono, c in out.items() if c}


def _annihilated_packed(keys: dict, partners: list, unit: dict, bits: int) -> dict:
    """Packed keys under the annihilator whose partners _partners listed.

    commutator_checks packs each monomial as one int key, a multiset:
    every factor f in use owns a slot of `bits` bits, from the bit of
    unit[f] = 1 << (its slot index) * bits, that counts the copies of f,
    and the probe's tag lies above every slot. A partner f present in a
    key is removed once, as key - unit[f], contributing its multiplicity
    key >> shift & mask times its weight; a partner with no slot is in
    no key.

    No slot carries or borrows, so the tag is never touched. With
    `longest` the most factors in one probe monomial, bits is
    bit_length(longest + 1). A slot holds at most `longest` copies from
    the probe, plus one created factor, so at most longest + 1 <
    2^bits: creation, adding unit[f], never carries. Annihilation
    subtracts unit[f] only from a key whose slot f is nonzero, so it
    never borrows. For one partner the keys key - unit[f] are distinct
    and their coefficients nonzero; merging the per-partner dicts adds
    and cancels the rest.
    """
    mask = (1 << bits) - 1
    out: dict = {}
    for factor, weight in partners:
        u = unit.get(factor)
        if u is None:
            continue
        shift = u.bit_length() - 1
        part = {
            key - u: c * copies * weight
            for key, c in keys.items()
            if (copies := key >> shift & mask)
        }
        out = _added(out, part, 1) if out else part
    return out


def create(state: FockState, m: int, gamma: str) -> FockState:
    """Multiply by the creation generator a_{-m}(gamma)."""
    m = as_size(m, 1, "creation level")
    state.surface.degree(gamma)
    return FockState._of(state.surface, _created(state.terms, (m, gamma)))


def annihilate(state: FockState, m: int, alpha: str) -> FockState:
    """Apply a_m(alpha) as a derivation; kills the vacuum.

    Every beta of a state was checked when it entered, so the pairing is
    read without re-validating it.
    """
    m = as_size(m, 1, "annihilation level")
    surface = state.surface
    surface.degree(alpha)
    partners = _partners(surface._pairing, m, alpha, nakajima_closed_form(m))
    terms = _annihilated(state.terms, partners)
    return FockState._of(surface, terms)


def basis_monomials(surface: SurfaceModel, max_t: int) -> list[FockMonomial]:
    """All creation monomials of t-weight at most max_t, deterministic order."""
    max_t = as_size(max_t, 0, "t-weight")
    gens = [(m, name) for m in range(1, max_t + 1) for name, _ in surface.basis]
    # a monomial lists its generators in gens order, which is sorted
    # unless a label sorts before an earlier one ("e10" < "e2" on K3)
    ordered = gens == sorted(gens)
    out: list[FockMonomial] = []

    def rec(i: int, budget: int, acc: FockMonomial):
        # gens ascend by level: once one exceeds the budget, so do the rest
        if i == len(gens) or gens[i][0] > budget:
            out.append(acc if ordered else tuple(sorted(acc)))
            return
        gen = gens[i]
        while True:
            rec(i + 1, budget, acc)
            budget -= gen[0]
            if budget < 0:
                return
            acc += (gen,)

    rec(0, max_t, ())
    return out


# Default probes through t-weight 6 number 56,680 at b2 = 10 (about 0.11 s
# for one quadruple, building the probes included, on CPython 3.11 on a
# 2-core x86-64 host) and 1,279,175 on k3_surface(); more than this are
# refused.
MAX_DEFAULT_PROBES = 60_000


class CommutatorReport(NamedTuple):
    """Result of probing [a_m(alpha), a_{-k}(beta)] against its scalar."""

    m: int
    k: int
    alpha: str
    beta: str
    scalar: int
    probes_checked: int
    failures: tuple[int, ...]  # indices into the probe list

    @property
    def passed(self) -> bool:
        return not self.failures


def commutator_checks(
    surface: SurfaceModel,
    quads: Iterable[tuple[int, int, str, str]],
    probes: Optional[Iterable[FockState]] = None,
) -> list[CommutatorReport]:
    """Verify [a_m(alpha), a_{-k}(beta)] on probe states, one report per quadruple.

    Each (m, k, alpha, beta) must act as delta_{mk} * c_m * <alpha, beta>
    times the identity. Every level and label, and every probe built on
    another surface, is validated before any probe is touched. Default
    probes span every monomial of `surface` through t-weight 6; they are
    counted from fock_character(surface, 6) first, and more than
    MAX_DEFAULT_PROBES raise ValueError.

    The kernels run on packed keys (see _annihilated_packed). Each factor
    (level, label) of a probe or a creator gets one slot, numbered in
    order of first use, so a key's width does not grow with the levels.
    Probe i's monomials carry the tag i above every slot and all go
    into one state, so each kernel makes one pass over all probes:
    a_{-k}(beta) adds one unit to every key, once per (k, beta);
    a_m(alpha) runs once per (m, alpha); and the residue
    [a_m(alpha), a_{-k}(beta)] - scalar once per quadruple. A probe
    fails iff its tag survives in the residue. Nothing is kept after the
    call.
    """
    checked = []
    for q in quads:
        try:
            m, k, alpha, beta = q
        except (TypeError, ValueError):
            raise ValueError(f"a quadruple must be (m, k, alpha, beta), got {q!r}") from None
        m = as_size(m, 1, "annihilation level")
        k = as_size(k, 1, "creation level")
        ip = surface.pair(alpha, beta)
        cm = nakajima_closed_form(m)
        checked.append((m, k, alpha, beta, cm, cm * ip if m == k else 0))
    if probes is None:
        count = sum(map(fock_character(surface, 6).u_one, range(7)))
        if count > MAX_DEFAULT_PROBES:
            raise ValueError(f"{count} default probes exceed {MAX_DEFAULT_PROBES}; pass probes")
        # canonical monomials on this surface's own labels
        terms = [{mono: 1} for mono in basis_monomials(surface, 6)]
    else:
        # a probe's labels were checked against its own surface only
        terms = [
            (p if p.surface is surface else FockState(surface, p.terms)).terms
            for p in probes
        ]
    monos = [mono for probe in terms for mono in probe]
    slots = dict.fromkeys(chain.from_iterable(monos))
    slots.update(dict.fromkeys((k, beta) for _, k, _, beta, _, _ in checked))
    bits = (max(map(len, monos), default=0) + 1).bit_length()
    unit = {factor: 1 << i * bits for i, factor in enumerate(slots)}
    tagshift = len(unit) * bits
    tagged = {
        sum(map(unit.__getitem__, mono), i << tagshift): c
        for i, probe in enumerate(terms)
        for mono, c in probe.items()
    }
    pairing = surface._pairing
    created: dict[int, dict] = {}
    annihilated: dict[tuple[int, str], tuple[list, dict]] = {}
    reports = []
    for m, k, alpha, beta, cm, scalar in checked:
        u = unit[k, beta]
        if u not in created:
            created[u] = {key + u: c for key, c in tagged.items()}
        if (m, alpha) not in annihilated:
            partners = _partners(pairing, m, alpha, cm)
            annihilated[m, alpha] = partners, _annihilated_packed(tagged, partners, unit, bits)
        partners, image = annihilated[m, alpha]
        residue = _added(
            _annihilated_packed(created[u], partners, unit, bits),
            {key + u: c for key, c in image.items()},
            -1,
        )
        if scalar:
            _added(residue, tagged, -scalar)
        failures = tuple(sorted({key >> tagshift for key in residue}))
        reports.append(
            CommutatorReport(m, k, alpha, beta, scalar, len(terms), failures)
        )
    return reports


def commutator_check(
    surface: SurfaceModel,
    m: int,
    k: int,
    alpha: str,
    beta: str,
    probes: Optional[Iterable[FockState]] = None,
) -> CommutatorReport:
    """Verify the commutation relation on probe states.

    Expected action: delta_{mk} * c_m * <alpha, beta> * identity. Default
    probes span every monomial through t-weight 6, at most
    MAX_DEFAULT_PROBES of them. This is the one-quadruple case of
    commutator_checks, which runs each kernel once over all probes.
    """
    return commutator_checks(surface, [(m, k, alpha, beta)], probes)[0]
