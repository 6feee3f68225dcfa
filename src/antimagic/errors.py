"""Exception types shared across the package."""

from __future__ import annotations

import reprlib
from typing import Any


class AntimagicError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidParameterError(AntimagicError, ValueError):
    """A structural parameter is malformed or out of range."""


class NotAPathError(AntimagicError):
    """The underlying undirected graph is not a path."""


class InvalidDistanceSetError(AntimagicError, ValueError):
    """A distance set is empty, negative, or exceeds the partial diameter."""


class TheoremPreconditionError(AntimagicError):
    """An operation was invoked outside the hypotheses it needs."""


def is_int(value: object) -> bool:
    """True for a plain int; bool is an int subclass but never a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(name: str, value: Any, lo: int | None = None,
                hi: int | None = None) -> int:
    """Return value when it is an int inside [lo, hi], else raise.

    Either bound may be None for no limit on that side.
    """
    if (not is_int(value) or (lo is not None and value < lo)
            or (hi is not None and value > hi)):
        if hi is None:
            wanted = "an integer" if lo is None else f"an integer >= {lo}"
        else:
            wanted = f"an integer from {lo} to {hi}"
        raise InvalidParameterError(
            f"{name} must be {wanted}, got {reprlib.repr(value)}")
    return value
