"""Shared fixtures."""

import re

import pytest


def _check_size_gate(call, what, least):
    """call(value) takes a size, level or index through errors.as_size.

    2.5 and "3" are refused as non-integers and least - 1 as too small, each
    by a full-match message naming the value; True is accepted as 1.
    """
    name = re.escape(what)
    for bad in (2.5, "3"):
        shown = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {least - 1}$"):
        call(least - 1)
    assert call(True) == call(1)


@pytest.fixture
def size_gate():
    """The checker of one entry point's size gate: size_gate(call, what, least)."""
    return _check_size_gate
