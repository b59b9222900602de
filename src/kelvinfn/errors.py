"""Exception types raised by the evaluation kernels.

Every domain violation raises a typed error instead of returning NaN or
infinity, so that no caller (a closed form's order class, a reflection
formula) can silently consume a value produced outside a kernel's validity
region.  A refused argument is one type, :class:`DomainError`, whatever
the reason; the overflow types stay apart because they are also
``OverflowError``s, which ``quad.integrate_finite`` tells from bare ones.
"""


class KelvinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KelvinError):
    """An argument the function does not take: outside the computed region
    (ker at x = 0, K at Re z < 0, z = 0 at a negative non-integer order),
    at a pole (Gamma or digamma at a nonpositive integer, a nonpositive
    integer lower hypergeometric parameter), outside a closed form's order
    class (an excluded integer or half-integer, a non-integer or negative
    order for the integer finite sums), or a name or range the function
    does not take (a suite, a variant, a table range)."""


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
