"""Shared exception types, and the one seed check and number check.

Every module raises from this small hierarchy so callers (and the CLI exit
code mapping) can distinguish bad arguments, illegal state transitions, and
corrupted data without string matching.
"""

import math
import numbers


class DrrError(Exception):
    """Base class for all library errors."""


class InvalidInputError(DrrError, ValueError):
    """An argument violates a documented precondition."""


class StateError(DrrError, RuntimeError):
    """The operation is not legal in the object's current state."""


class ExhaustedStreamError(DrrError):
    """A pop was attempted with no bytes left to renormalize from."""


class InsufficientInitialBitsError(DrrError):
    """Bits-back encoding ran out of auxiliary bits to sample latents from."""


class DataCorruptionError(DrrError):
    """Serialized bytes or a stored buffer failed a consistency check."""


class DegenerateInputError(DrrError, ValueError):
    """A numeric input has no well-defined result (e.g. a zero-norm vector)."""


def check_seed(seed, name: str = "seed") -> None:
    """Raise InvalidInputError unless `seed` is a nonnegative integer or a
    list or tuple of them: the seeds numpy's generators accept."""
    values = seed if isinstance(seed, (list, tuple)) else [seed]
    if any(not isinstance(v, numbers.Integral) or v < 0 for v in values):
        raise InvalidInputError(f"{name} must be a nonnegative integer, got {seed!r}")


def check_finite(value, name: str, positive: bool) -> None:
    """Raise InvalidInputError unless `value` is finite and positive, or
    with positive=False finite and nonnegative."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise InvalidInputError(f"{name} must be finite and {kind}, got {value!r}")
