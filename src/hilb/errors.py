"""Shared exception types and the integer checks of numeric input."""

import operator


def as_int(value, what: str) -> int:
    """value by operator.index (ints and bools pass), else ValueError "<what>, got <value>"."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


def as_size(value, least: int, what: str) -> int:
    """A size, level or index: as_int, then refused below `least`.

    The messages are "<what> must be an integer, got <value>" and
    "<what> must be at least <least>, got <value>".
    """
    # an exact int needs no coercion, and sizes are read in inner loops
    n = value if type(value) is int else as_int(value, f"{what} must be an integer")
    if n < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return n


class ConsistencyError(RuntimeError):
    """A cross-checked identity failed at runtime.

    Raised when two independently computed quantities that must agree
    (generator/socle counts, Euler-style triple counts, integrality of
    the recurrence steps) do not. Always a bug signal, never an input
    error: the CLI exits 1 on it, and `hilb verify` reports one raised
    inside a check as that check's failing row, its message the detail.
    """


class NonGenericError(ValueError):
    """A one-parameter subgroup paired to zero against a tangent weight."""
