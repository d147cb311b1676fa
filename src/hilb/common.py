"""Leaf helpers shared by several layers: immutable records and polynomial text.

Nothing here imports another hilb module, so a layer can use these
without loading any other layer.
"""


class Record:
    """Immutable record over the `__slots__` of its class, in slot order.

    Compared (with records of the same class only), hashed, shown as
    `Name(field=value, ...)` and pickled by its fields. A subclass validates
    in `__init__` and stores each field with `object.__setattr__`; any
    later assignment or deletion raises AttributeError. Unpickling goes
    back through `__init__`, so it validates again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())


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
