"""Exception types shared across the package, and the check of a counting index."""

from __future__ import annotations

import operator


class SphcavError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SphcavError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(SphcavError, RuntimeError):
    """A series failed to converge within the allotted number of terms.

    Carries the partial sum and the size of the last term so callers can
    decide whether the partial result is salvageable.
    """

    def __init__(self, message: str, partial_sum: float, last_term: float):
        super().__init__(f"{message} (partial_sum={partial_sum!r}, last_term={last_term!r})")
        self.partial_sum = partial_sum
        self.last_term = last_term


class RootSearchError(SphcavError, RuntimeError):
    """A bracketing scan or refinement failed; diagnostics attached."""

    def __init__(self, message: str, window: tuple[float, float] | None = None):
        if window is not None:
            message = f"{message} (scan window {window[0]:g}..{window[1]:g})"
        super().__init__(message)
        self.window = window


class ClassificationError(SphcavError, ValueError):
    """An (nu, m) pair is not reachable in the requested geometry."""


class ImpedanceUndefinedError(SphcavError, ZeroDivisionError):
    """A wave-impedance ratio was requested at a field null."""


class IntegrationError(SphcavError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class FixtureLookupError(SphcavError, KeyError):
    """No bundled reference fixture with the requested name."""


def positive_index(value, name: str) -> int:
    """``value`` by operator.index, if that is >= 1; else DomainError, for a whole float too."""
    try:
        if (index := operator.index(value)) >= 1:
            return index
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
