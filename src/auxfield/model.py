"""Shared data model: systems, potentials, quantum numbers, solver output.

All types are immutable values; they can be shared freely between threads.
The value types are slotted records built on `_Value`: equality, hash, repr,
pickle and copy behave as they always have, and no helper replaces a field,
so build a new value (a new `SystemSpec`, say) to change one.
Energies, masses and lengths are carried in one consistent unit system chosen
by the caller (e.g. GeV and GeV^-1); no unit conversion happens anywhere.
"""
from __future__ import annotations

import math
import sys
from enum import Enum
from operator import attrgetter
from typing import Union

from .errors import (
    DomainError,
    InvalidCoefficient,
    InvalidExponent,
    NumericalError,
    SingularMasses,
    UnsupportedCombination,
    UnsupportedForm,
    ValidationError,
    WrongModeCount,
    ZeroMassNonrelativistic,
    require_finite,
)

_LOG_MAX = math.log(sys.float_info.max)


def _exp(x: float) -> float:
    """e^x, read as inf past the float range (and for NaN)."""
    return math.exp(x) if x <= _LOG_MAX else math.inf


_set_field = object.__setattr__


class _ValueType(type):
    """Metaclass of `_Value`: the annotated names of a class body are its fields.

    They become the class's __slots__, in order, and a value written next to
    one becomes its default, kept in the class-level dict _defaults.
    """

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = fields
        if len(fields) == 1:  # attrgetter of one name returns the bare value
            get = attrgetter(*fields)
            namespace["_fields"] = staticmethod(lambda value: (get(value),))
        elif fields:
            namespace["_fields"] = attrgetter(*fields)  # the fields as a tuple, in C
        return super().__new__(mcs, name, bases, namespace)


class _Value(metaclass=_ValueType):
    """Immutable slotted record, compared and hashed by class and fields."""

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in slot order from call arguments, as a def would bind them."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [n for n in names if n not in values and n not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments {missing!r}")
        return [values[n] if n in values else cls._defaults[n] for n in names]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash((self.__class__, self._fields(self)))

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)


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


class PowerLaw(_Value):
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
            mag = _exp(math.log(abs(self.coefficient)) + self.exponent * math.log(r))
            return math.copysign(mag, self.coefficient * sign)


class GaussianWell(_Value):
    """V(r) = -depth * exp(-(range_ * r)**2), an attractive well of finite depth."""

    depth: float
    range_: float

    def evaluate(self, r: float) -> float:
        u = self.range_ * r  # u * u is inf past the float range, where ** raises
        return -self.depth * math.exp(-(u * u))


PotentialForm = Union[PowerLaw, GaussianWell]


class PotentialTerm(_Value):
    scope: Scope
    form: PotentialForm

    def evaluate(self, r: float) -> float:
        return self.form.evaluate(r)


class Identical(_Value):
    """All N particles share one mass (zero allowed only semirelativistically)."""

    m: float


class PerParticle(_Value):
    """Distinct positive masses; accepted only by the exact-oscillator module."""

    values: tuple[float, ...]


Masses = Union[Identical, PerParticle]


class SystemSpec(_Value):
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


class QuantumNumbers(_Value):
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


class AFMSolution(_Value):
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
        DomainError, and a mass that is not a finite float (inf or NaN) raises
        NumericalError, so no solver returns either.
        """
        if not 0.0 < x0 < math.inf:
            raise DomainError(f"auxiliary scale X0 = {x0} is not a positive float")
        if not math.isfinite(mass):
            raise NumericalError(f"mass {mass} at X0 = {x0} is not a finite float")
        r_one, r_pair = _tangency_radii(n, q, x0)
        mu0 = math.sqrt(m * m + q * x0 / n)
        if mu0 == math.inf:  # m * m overflowed
            mu0 = math.hypot(m, math.sqrt(q * x0 / n))
        return cls(mass, x0, mu0, r_one, r_pair, bound)


def _tangency_radii(n: int, q: float, x0: float) -> tuple[float, float]:
    r_one, r_pair = math.sqrt(q / (n * x0)), math.sqrt(2.0 * q / ((n - 1) * x0))
    if r_pair == math.inf or r_one == 0.0:  # a quotient left the float range
        root = math.sqrt(x0)
        r_one, r_pair = math.sqrt(q / n) / root, math.sqrt(2.0 * q / (n - 1)) / root
    return r_one, r_pair


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
    require_finite(n=spec.n)

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
