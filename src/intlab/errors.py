"""Shared exception types.

At a public entry point non-finite input raises DomainError, and an overflowing
result or coupling square RangeError, so callers can tell "you fed me a bad
point" from "the algorithm gave up".  Some huge but finite states still leak
numpy's RuntimeWarning instead, such as the flow of a pair system whose gap
grows beyond about 5.6e102, where the gradient's cube overflows.
"""


class IntlabError(Exception):
    """Base class for all library-specific failures."""


class DomainError(IntlabError):
    """Input lies outside the open domain an operation is defined on."""


class StructureError(IntlabError):
    """A matrix does not have the structure the operation requires."""


class ConvergenceError(IntlabError):
    """An iteration or series failed to reach the requested accuracy."""


class RangeError(IntlabError):
    """Intermediate quantities would overflow double precision."""


class DegeneracyError(DomainError):
    """Eigenvalues too close to separate reliably."""


class ChartError(DomainError):
    """A coordinate chart is not defined at the requested point."""


class StiffnessError(IntlabError):
    """Adaptive integration step size underflowed."""
