"""Semantic exceptions raised by the capacity solvers.

Callers that need to distinguish "bad input" from "solver gave up" should
catch the specific subclass; ``CapacityError`` catches everything this
package raises on purpose.
"""


class CapacityError(Exception):
    """Base class for all errors raised by capbound."""


class InvalidChannel(CapacityError, ValueError):
    """Channel matrix fails validation (NaN, negative entries, bad row sums)."""


class DimensionMismatch(CapacityError, ValueError):
    """Vector/matrix shapes are inconsistent."""


class Infeasible(CapacityError):
    """The average-cost constraint cannot be met by any input distribution."""


class NewtonStall(CapacityError):
    """The damped Newton solve for the normalization multipliers failed to converge."""


class AssumptionViolated(CapacityError):
    """A strict-positivity assumption on the (truncated) channel does not hold."""


class InvalidOrder(CapacityError, ValueError):
    """Tail order k outside its admissible range."""


class NeedLargerM(CapacityError):
    """Closed-form tail bound requires a larger truncation level."""


class CertificateViolated(CapacityError):
    """A reported bound pair breaks its own invariant (lower bound above upper)."""


def require_sandwich(c_lb: float, c_ub: float, what: str) -> None:
    """Raise CertificateViolated unless c_lb <= c_ub up to 1e-9 (NaN fails)."""
    if not c_lb <= c_ub + 1e-9:
        raise CertificateViolated(f"{what}: lower bound {c_lb!r} above upper bound {c_ub!r}")
