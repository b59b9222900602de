"""Exception types raised by the evaluation kernels.

Every domain violation raises a typed error instead of returning NaN or
infinity, so that no caller (a closed form's order class, a reflection
formula) can silently consume a value produced outside a kernel's validity
region.
"""


class KelvinError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(KelvinError):
    """Gamma or digamma evaluated at a nonpositive integer."""


class GammaOverflowError(KelvinError, OverflowError):
    """Gamma exceeds the double range (argument above ~171.62), or Gamma or
    digamma does near 0 (|argument| below ~5.6e-309, where both are ~1/x)."""


class PowerOverflowError(KelvinError, OverflowError):
    """(z/2)^nu leaves the double range (large order at large |z|, or a
    large negative power at small |z|), or underflows it at a large negative
    order, whose series needs the power to full precision."""


class SeriesOverflowError(KelvinError, OverflowError):
    """A series sum is not finite: its terms exceed the double range (far
    outside the working envelope, e.g. x = 1000)."""


class ConvergenceError(KelvinError):
    """A sum cannot bound its error: the K sum past |z| = 30 (its steps
    are calibrated to 30) or where z/2 underflows to 0 (no log(z/2)), or
    an integral representation whose quadrature misses its target."""


class DenominatorPoleError(KelvinError):
    """A lower hypergeometric parameter is a nonpositive integer."""


class BranchError(KelvinError):
    """z^nu undefined: z = 0 with negative order."""


class ArgumentZeroError(KelvinError):
    """Macdonald function requested at z = 0."""


class OrderClassError(KelvinError):
    """Closed form evaluated outside its order class (an excluded integer or
    half-integer, or a non-integer order for the integer finite sums)."""


class DomainError(KelvinError):
    """Argument outside the function's real domain (e.g. ker at x = 0)."""


class NegativeIntegerOrderError(KelvinError):
    """Integer-order finite sums are defined for n >= 0 only."""
