"""Shared exception types and the integer check of numeric input."""

import operator


def as_int(value, what: str) -> int:
    """value by operator.index (ints and bools pass), else ValueError "<what>, got <value>"."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


class ConsistencyError(RuntimeError):
    """A cross-checked identity failed at runtime.

    Raised when two independently computed quantities that must agree
    (generator/socle counts, Euler-style triple counts, integrality of
    the recurrence steps) do not. Always a bug signal, never an input
    error.
    """


class NonGenericError(ValueError):
    """A one-parameter subgroup paired to zero against a tangent weight."""
