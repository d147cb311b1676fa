"""Leaf helpers shared by several layers: immutable records, intersection
forms and polynomial text.

IntersectionLattice is the one validator of a symmetric integer form: the
blow-up lattices and each surface's degree-2 block are its instances.
Nothing here imports a hilb module but hilb.errors, so a layer can use
these without loading any other layer.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .errors import as_int


class Record:
    """Immutable record over the defining fields of its class, in order.

    The one base of hilb's value classes. A subclass validates in
    `__init__` and stores each slot with `object.__setattr__`; after
    that, assignment and deletion raise AttributeError. Its defining
    fields are the class attribute `_fields`, by default its
    `__slots__`; a class whose other slots are derived from them names
    only those, which are its `__init__` arguments. Compared (with
    records of the same class only), hashed, shown as
    `Name(field=value, ...)` and pickled by its defining fields;
    unpickling goes back through `__init__`, so it validates again. A
    field held as a read-only `MappingProxyType` view compares as its
    mapping, is shown and pickled as a dict, and hashes as the frozenset
    of its items; a plain dict field hashes the same way.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        """The defining fields in order, each read-only mapping view as a dict."""
        values = (getattr(self, name) for name in self._fields)
        return tuple(dict(v) if type(v) is MappingProxyType else v for v in values)

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(
            frozenset(v.items()) if type(v) is dict else v for v in self._values()
        ))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())


class DivisorClass(Record):
    """Integer coordinate vector in a fixed lattice basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        coords = tuple(as_int(c, "coordinates must be integers") for c in coords)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coords) != len(other.coords):
            raise ValueError("cannot add classes of different rank")
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "DivisorClass":
        k = as_int(k, "a class scales by integers only")
        return DivisorClass(tuple(k * a for a in self.coords))


class IntersectionLattice(Record):
    """Free abelian group with a symmetric integer pairing and named basis.

    The pairing is stored sparsely, as a read-only {(i, j): value} view
    of the nonzero Gram entries; `gram` is the dense view. Instances are
    immutable records, compared and hashed by labels and entries.
    """

    __slots__ = ("labels", "_entries")

    def __init__(self, gram, labels):
        gram = tuple(map(tuple, gram))
        labels = tuple(labels)
        r = len(labels)
        if len(gram) != r or any(len(row) != r for row in gram):
            raise ValueError(f"gram matrix must be {r} x {r}")
        self._set({(i, j): x for i, row in enumerate(gram) for j, x in enumerate(row)}, labels)

    @classmethod
    def from_entries(
        cls, entries: Mapping[tuple[int, int], int], labels
    ) -> "IntersectionLattice":
        """Lattice from its nonzero Gram entries {(i, j): value}, in O(entries)."""
        lattice = cls.__new__(cls)
        lattice._set(entries, labels)
        return lattice

    def _set(self, entries: Mapping[tuple[int, int], int], labels) -> None:
        """Store the nonzero entries after the label, integrality, range and symmetry checks."""
        labels = tuple(labels)
        r = len(labels)
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"basis labels must be strings, got {label!r}")
        if len(set(labels)) != r:
            raise ValueError(f"duplicate basis labels in {labels}")
        stored: dict[tuple[int, int], int] = {}
        for key, x in entries.items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise ValueError(f"gram entry keys must be pairs (i, j), got {key!r}") from None
            # exact ints need no coercion, and blow-ups build large lattices
            if type(i) is not int or type(j) is not int:
                i = as_int(i, f"gram entry {key!r} needs integer indices")
                j = as_int(j, f"gram entry {key!r} needs integer indices")
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"gram entry ({i}, {j}) outside a {r} x {r} matrix")
            x = as_int(x, "gram entries must be integers")
            if x:
                stored[i, j] = x
        for (i, j), x in stored.items():
            if stored.get((j, i)) != x:
                raise ValueError(f"gram matrix not symmetric at ({i}, {j})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_entries", MappingProxyType(stored))

    def __reduce__(self):
        return (IntersectionLattice.from_entries, (self.entries(), self.labels))

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix, built on each access."""
        get, r = self._entries.get, range(self.rank)
        return tuple(tuple(get((i, j), 0) for j in r) for i in r)

    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero Gram entries as {(i, j): value}."""
        return dict(self._entries)

    def __repr__(self) -> str:
        return f"IntersectionLattice(gram={self.gram!r}, labels={self.labels!r})"

    def cls(self, label: str) -> DivisorClass:
        """Basis class by name."""
        if label not in self.labels:
            raise ValueError(f"no basis class named {label!r}")
        i = self.labels.index(label)
        return DivisorClass(tuple(1 if j == i else 0 for j in range(self.rank)))

    def pair(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Intersection number, summed over the stored entries only."""
        c1, c2 = d1.coords, d2.coords
        if len(c1) != self.rank or len(c2) != self.rank:
            raise ValueError(
                f"coordinate length mismatch: lattice rank {self.rank}, "
                f"classes of length {len(c1)} and {len(c2)}"
            )
        return sum(c1[i] * x * c2[j] for (i, j), x in self._entries.items())


def format_poly(coeffs: dict[int, int], var: str) -> str:
    """Render {degree: coeff} as '1 + 2q^2 + q^4', ascending degrees."""
    terms = []
    for d in sorted(coeffs):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"{var}^{d}")
        else:
            terms.append(f"{c}{var}^{d}")
    return " + ".join(terms) if terms else "0"
