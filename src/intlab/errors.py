"""Shared exception types.

Every failure mode promised by the public API maps onto one of these, so
callers can distinguish "you fed me a bad point" from "the algorithm gave up".
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


class RegularityError(DomainError):
    """A regularity condition (simple spectrum, nonvanishing factor) fails."""


class DegeneracyError(RegularityError):
    """Eigenvalues too close to separate reliably."""


class FactorizationError(IntlabError):
    """A matrix factorization does not exist or could not be computed."""


class ChartError(DomainError):
    """A coordinate chart is not defined at the requested point."""


class StiffnessError(IntlabError):
    """Adaptive integration step size underflowed."""
