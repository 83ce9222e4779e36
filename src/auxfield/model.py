"""Shared data model: systems, potentials, quantum numbers, solver output.

All types are immutable values; they can be shared freely between threads.
Energies, masses and lengths are carried in one consistent unit system chosen
by the caller (e.g. GeV and GeV^-1); no unit conversion happens anywhere.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import (
    DomainError,
    InvalidCoefficient,
    InvalidExponent,
    SingularMasses,
    UnsupportedCombination,
    UnsupportedForm,
    ValidationError,
    WrongModeCount,
    ZeroMassNonrelativistic,
)

_LOG_MAX = math.log(sys.float_info.max)


class Kinematics(Enum):
    """Kinetic-energy model.

    The ultrarelativistic case is SEMIRELATIVISTIC with mass exactly zero.
    Nonrelativistic systems never carry a kinetic auxiliary field; it is
    pinned to the particle mass.
    """

    NONRELATIVISTIC = "nonrelativistic"
    SEMIRELATIVISTIC = "semirelativistic"


class BoundCharacter(Enum):
    """Position of an approximate mass relative to the exact eigenvalue.

    EXACT marks the degenerate case where the surrogate potential equals the
    genuine one (purely quadratic interactions with nonrelativistic
    kinematics), so upper and lower bounds coincide.
    """

    UPPER_BOUND = "upper"
    LOWER_BOUND = "lower"
    EXACT = "exact"
    UNKNOWN = "unknown"


class Scope(Enum):
    ONE_BODY = "one_body"
    PAIRWISE = "pairwise"


@dataclass(frozen=True)
class PowerLaw:
    """V(r) = coefficient * sgn(exponent) * r**exponent.

    The sign convention makes a positive coefficient always attractive-binding:
    a rising well for exponent > 0, an attractive singular tail for
    exponent < 0. A negative coefficient flips that (repulsion), which is only
    accepted when mixed with another, binding, term.
    """

    coefficient: float
    exponent: float

    def evaluate(self, r: float) -> float:
        sign = math.copysign(1.0, self.exponent)
        try:
            return self.coefficient * sign * r**self.exponent
        except OverflowError:
            # r**exponent leaves the float range; the product may not
            if self.coefficient == 0.0:
                return 0.0
            log_mag = math.log(abs(self.coefficient)) + self.exponent * math.log(r)
            mag = math.exp(log_mag) if log_mag <= _LOG_MAX else math.inf
            return math.copysign(mag, self.coefficient * sign)


@dataclass(frozen=True)
class GaussianWell:
    """V(r) = -depth * exp(-(range_ * r)**2), an attractive well of finite depth."""

    depth: float
    range_: float

    def evaluate(self, r: float) -> float:
        u = self.range_ * r  # u * u is inf past the float range, where ** raises
        return -self.depth * math.exp(-(u * u))


PotentialForm = Union[PowerLaw, GaussianWell]


@dataclass(frozen=True)
class PotentialTerm:
    scope: Scope
    form: PotentialForm

    def evaluate(self, r: float) -> float:
        return self.form.evaluate(r)


@dataclass(frozen=True)
class Identical:
    """All N particles share one mass (zero allowed only semirelativistically)."""

    m: float


@dataclass(frozen=True)
class PerParticle:
    """Distinct positive masses; accepted only by the exact-oscillator module."""

    values: tuple[float, ...]


Masses = Union[Identical, PerParticle]


@dataclass(frozen=True)
class SystemSpec:
    """Problem statement: particle count, masses, kinematics, interactions."""

    n: int
    masses: Masses
    kinematics: Kinematics
    one_body: tuple[PotentialTerm, ...] = ()
    pairwise: tuple[PotentialTerm, ...] = ()

    @property
    def identical_mass(self) -> float:
        if not isinstance(self.masses, Identical):
            raise SingularMasses("operation requires identical particle masses")
        return self.masses.m

    @property
    def terms(self) -> tuple[PotentialTerm, ...]:
        return self.one_body + self.pairwise


@dataclass(frozen=True)
class QuantumNumbers:
    """Per-mode (n_i, l_i) labels for the N-1 internal oscillator modes."""

    modes: tuple[tuple[int, int], ...]

    @property
    def band(self) -> int:
        """Band number B = sum(2 n_i + l_i)."""
        return sum(2 * n + l for n, l in self.modes)

    @property
    def q(self) -> float:
        """Total principal number Q = B + 3(N-1)/2 with N-1 = len(modes)."""
        return self.band + 1.5 * len(self.modes)

    @staticmethod
    def ground(n: int) -> "QuantumNumbers":
        return QuantumNumbers(((0, 0),) * (n - 1))


@dataclass(frozen=True)
class AFMSolution:
    """Full output of an auxiliary-field solve.

    mu0 is the mean one-particle kinetic energy, tied to the auxiliary scale
    by mu0**2 - m**2 = Q*X0/N. r0_one and r0_pair are the tangency radii where
    the quadratic surrogate touches the genuine one-body and pairwise
    potentials.
    """

    mass: float
    x0: float
    mu0: float
    r0_one: float
    r0_pair: float
    bound_character: BoundCharacter

    @classmethod
    def at_scale(
        cls,
        n: int,
        m: float,
        q: float,
        x0: float,
        mass: float,
        bound: BoundCharacter,
    ) -> "AFMSolution":
        """Solution record of N particles of mass m at the auxiliary scale X0.

        Everything but the mass follows from X0: mu0 = sqrt(m^2 + Q X0 / N),
        so mu0^2 - m^2 = Q X0 / N holds by construction, and the tangency
        radii are r0_one = sqrt(Q / (N X0)) and r0_pair = sqrt(2Q / ((N-1) X0)).
        An X0 that is not a positive float (it under- or overflowed) raises
        DomainError.
        """
        if not 0.0 < x0 < math.inf:
            raise DomainError(f"auxiliary scale X0 = {x0} is not a positive float")
        r_one, r_pair = _tangency_radii(n, q, x0)
        mu0 = math.sqrt(m * m + q * x0 / n)
        if mu0 == math.inf:  # m * m overflowed
            mu0 = math.hypot(m, math.sqrt(q * x0 / n))
        return cls(
            mass=mass,
            x0=x0,
            mu0=mu0,
            r0_one=r_one,
            r0_pair=r_pair,
            bound_character=bound,
        )


def _tangency_radii(n: int, q: float, x0: float) -> tuple[float, float]:
    return math.sqrt(q / (n * x0)), math.sqrt(2.0 * q / ((n - 1) * x0))


def _validate_term(term: PotentialTerm, kinematics: Kinematics) -> None:
    form = term.form
    if isinstance(form, PowerLaw):
        lam = form.exponent
        if not math.isfinite(form.coefficient):
            raise InvalidCoefficient(f"coefficient {form.coefficient} is not finite")
        if not math.isfinite(lam):
            raise InvalidExponent(f"exponent {lam} is not finite")
        if lam == 0.0:
            raise InvalidExponent("exponent 0 is not a potential (sgn undefined)")
        if kinematics is Kinematics.SEMIRELATIVISTIC and lam < -1.0:
            raise InvalidExponent(
                f"exponent {lam} < -1 not allowed with semirelativistic kinematics"
            )
        if kinematics is Kinematics.NONRELATIVISTIC and lam <= -2.0:
            raise InvalidExponent(
                f"exponent {lam} <= -2 not allowed with nonrelativistic kinematics"
            )
    elif isinstance(form, GaussianWell):
        if not (0.0 < form.depth < math.inf and 0.0 < form.range_ < math.inf):
            raise InvalidCoefficient(
                "gaussian well needs finite depth > 0 and finite range > 0"
            )
        if term.scope is not Scope.PAIRWISE:
            raise UnsupportedForm("gaussian well is only supported pairwise")
        if kinematics is not Kinematics.NONRELATIVISTIC:
            raise UnsupportedForm(
                "gaussian well is only supported with nonrelativistic kinematics"
            )
    else:
        raise UnsupportedForm(f"unknown potential form {form!r}")


def validate(
    spec: SystemSpec, q: QuantumNumbers
) -> tuple[SystemSpec, QuantumNumbers]:
    """Check every type invariant; return the pair unchanged if all hold.

    Every solver accepts at most one term per scope; a second one raises
    UnsupportedCombination. Idempotent: validating an accepted pair again
    accepts identical content.
    """
    if not isinstance(spec.n, int) or spec.n < 2:
        raise ValidationError(f"need an integer particle count >= 2, got {spec.n!r}")

    if isinstance(spec.masses, Identical):
        m = spec.masses.m
        if not 0.0 <= m < math.inf:
            raise SingularMasses(f"mass must be finite and non-negative, got {m}")
        if m == 0.0 and spec.kinematics is Kinematics.NONRELATIVISTIC:
            raise ZeroMassNonrelativistic(
                "massless particles require semirelativistic kinematics"
            )
    elif isinstance(spec.masses, PerParticle):
        if len(spec.masses.values) != spec.n:
            raise SingularMasses(
                f"expected {spec.n} masses, got {len(spec.masses.values)}"
            )
        if not all(0.0 < mi < math.inf for mi in spec.masses.values):
            raise SingularMasses("per-particle masses must all be finite and positive")
    else:
        raise ValidationError(f"unknown masses container {spec.masses!r}")

    for scope, terms in ((Scope.ONE_BODY, spec.one_body), (Scope.PAIRWISE, spec.pairwise)):
        for term in terms:
            if term.scope is not scope:
                raise ValidationError(f"term {term!r} listed under the wrong scope")
            _validate_term(term, spec.kinematics)

    power_terms = [t for t in spec.terms if isinstance(t.form, PowerLaw)]
    if len(power_terms) == 1 and power_terms[0].form.coefficient < 0.0:
        raise InvalidCoefficient(
            "a single power-law term must have a non-negative coefficient"
        )
    if len(power_terms) >= 2 and all(t.form.coefficient <= 0.0 for t in power_terms):
        raise InvalidCoefficient("at least one power-law coefficient must be positive")

    if len(q.modes) != spec.n - 1:
        raise WrongModeCount(
            f"{spec.n} particles need {spec.n - 1} modes, got {len(q.modes)}"
        )
    for n_i, l_i in q.modes:
        if not (isinstance(n_i, int) and isinstance(l_i, int)) or n_i < 0 or l_i < 0:
            raise ValidationError(f"mode ({n_i!r}, {l_i!r}) must be non-negative integers")
    if len(spec.one_body) > 1 or len(spec.pairwise) > 1:
        raise UnsupportedCombination("at most one term per scope")

    return spec, q
