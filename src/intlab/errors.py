"""Shared exception types.

At a public entry point non-finite input raises DomainError, and an overflowing
result or coupling square RangeError, so callers can tell "you fed me a bad
point" from "the algorithm gave up".  Overflow is decided one way: a kernel
computes the value so that it overflows to inf quietly (numpy under
np.errstate, or Python float products, not powers) and raises RangeError
unless every entry of it is finite.  Within a flow the integrator alone decides:
a non-finite trial stage fails its error test, and a step too small raises
StiffnessError.
"""


class IntlabError(Exception):
    """Base class for all library-specific failures."""


class DomainError(IntlabError):
    """Input lies outside the open domain an operation is defined on."""


class StructureError(IntlabError):
    """A matrix does not have the structure the operation requires."""


class ConvergenceError(IntlabError):
    """A flow is not yet asymptotically free where scattering data is read off it,
    or an eigensolver did not converge."""


class RangeError(IntlabError):
    """Intermediate quantities would overflow double precision."""


class DegeneracyError(DomainError):
    """Eigenvalues too close to separate reliably."""


class ChartError(DomainError):
    """A coordinate chart is not defined at the requested point."""


class StiffnessError(IntlabError):
    """Adaptive integration step size underflowed."""
