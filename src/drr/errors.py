"""Shared exception types, and the one seed check.

Every module raises from this small hierarchy so callers (and the CLI exit
code mapping) can distinguish bad arguments, illegal state transitions, and
corrupted data without string matching.
"""

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
