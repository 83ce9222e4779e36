"""Exception hierarchy.

Two broad families matter for callers (and for CLI exit codes): problems with
the problem statement itself (``ValidationError``) and failures of the solve
(``NumericalError``).
"""
import math


class AuxFieldError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AuxFieldError):
    """The system specification or quantum numbers violate an invariant."""


class InvalidExponent(ValidationError):
    """Power-law exponent outside the allowed range for the kinematics."""


class ZeroMassNonrelativistic(ValidationError):
    """Massless particles require semirelativistic kinematics."""


class WrongModeCount(ValidationError):
    """A system of N particles carries exactly N-1 internal oscillator modes."""


class InvalidCoefficient(ValidationError):
    """Sign rules on potential coefficients violated."""


class UnsupportedForm(ValidationError):
    """Potential form not usable in the requested context."""


class UnsupportedCombination(ValidationError):
    """Operation does not cover this combination of terms or masses."""


class NotSymmetric(ValidationError):
    """Eigensolver input matrix is not symmetric within tolerance."""


class SingularMasses(ValidationError):
    """Non-positive particle mass where a positive one is required."""


class NoRestoringForce(ValidationError):
    """An oscillator mode has no restoring force: its spring is not positive."""


class NotClosedShell(ValidationError):
    """No integer Fermi band fills N-1 modes exactly."""


class NonPositiveSlope(ValidationError):
    """Effective linear slope a + b*sqrt(N(N-1)/2) must be positive."""


class NumericalError(AuxFieldError):
    """The solve failed: no root, collapse, no bound level, or no convergence."""


class DomainError(NumericalError):
    """Argument outside the domain of a root function."""


class NoPositiveRoot(NumericalError):
    """The auxiliary-scale equation has no positive solution (collapse)."""


class OverCritical(NumericalError):
    """Coupling beyond the critical value: square-root argument non-positive."""


class UnstableConfiguration(NumericalError):
    """Attraction/repulsion balance outside the stability window."""


class NoBoundState(NumericalError):
    """Coupling too weak to support the requested bound level."""


class NonConvergence(NumericalError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class UnboundedBelow(NumericalError):
    """Variational expectation decreases without bound."""


def require_finite(**values: float) -> None:
    """Reject NaN and +-inf arguments of a closed form by name.

    The particle count ``n`` must be an int (not a bool) >= 2, or
    ValidationError is raised. The particle mass ``m`` raises SingularMasses;
    any other argument raises InvalidCoefficient.
    """
    for name, value in values.items():
        if name == "n":
            if isinstance(value, bool) or not isinstance(value, int) or value < 2:
                raise ValidationError(f"need an integer particle count >= 2, got {value!r}")
        elif not math.isfinite(value):
            error = SingularMasses if name == "m" else InvalidCoefficient
            raise error(f"{name} = {value} is not finite")


def require_tolerance(tolerance: float) -> None:
    """Reject a solver tolerance that is not a finite positive number."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValidationError(f"tolerance = {tolerance} must be finite and positive")
