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
from typing import Iterable, Union

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

    @classmethod
    def of(cls, kinematics: Kinematics, forms: Iterable[PotentialForm]) -> BoundCharacter:
        """Label of the mass of a spec with these kinematics and potential forms.

        The quadratic surrogate is tangent to each genuine potential; written
        as g(r^2), a concave g keeps the surrogate above the potential and a
        convex g below it (curvature_sign). Exact nonrelativistic kinetics
        then turns those into an upper or lower bound; the semirelativistic
        kinetic replacement is itself an upper bound, so only the concave
        case survives there.
        """
        signs = [form.curvature_sign() for form in forms]
        has_neg = any(s < 0.0 for s in signs)
        has_pos = any(s > 0.0 for s in signs)
        if kinematics is Kinematics.SEMIRELATIVISTIC:
            return cls.UNKNOWN if has_pos else cls.UPPER_BOUND
        if has_neg != has_pos:
            return cls.UPPER_BOUND if has_neg else cls.LOWER_BOUND
        return cls.UNKNOWN if has_neg or not signs else cls.EXACT


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

    def curvature_sign(self) -> float:
        """Sign of g'' for V(r) = g(r^2): that of coefficient (lam - 2), 0 at lam = 2.

        Taken from the two signs, so a subnormal coefficient keeps its sign.
        """
        if self.coefficient == 0.0 or self.exponent == 2.0:
            return 0.0
        coef = self.coefficient if self.exponent > 2.0 else -self.coefficient
        return math.copysign(1.0, coef)


class GaussianWell(_Value):
    """V(r) = -depth * exp(-(range_ * r)**2), an attractive well of finite depth."""

    depth: float
    range_: float

    def evaluate(self, r: float) -> float:
        u = self.range_ * r  # u * u is inf past the float range, where ** raises
        return -self.depth * math.exp(-(u * u))

    def curvature_sign(self) -> float:
        """Sign of g'' for V(r) = g(r^2): a well of positive depth is concave."""
        return math.copysign(1.0, -self.depth) if self.depth else 0.0


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
        Each is formed from the roots of its factors, so it is a float wherever
        its value is. An X0 that is not a positive float (it under- or
        overflowed) raises DomainError, and a mass, mu0 or radius that is not
        a finite float raises NumericalError (_finite), so no solver returns
        either.
        """
        if not 0.0 < x0 < math.inf:
            raise DomainError(f"auxiliary scale X0 = {x0} is not a positive float")
        r_one, r_pair = _tangency_radii(n, q, x0)
        mu0 = math.hypot(m, math.sqrt(q / n) * math.sqrt(x0))
        radii = _finite(r_one, "r0_one"), _finite(r_pair, "r0_pair")
        return cls(_finite(mass), x0, _finite(mu0, "mu0"), *radii, bound)


def _finite(value: float, what: str = "mass") -> float:
    """value, unless it is inf or NaN: then NumericalError, so no solver returns it."""
    if not math.isfinite(value):
        raise NumericalError(f"{what} {value} is not a finite float")
    return value


def _ratio(top: float, bottom: float) -> float:
    """top / bottom for top >= 0 where bottom may have underflowed to 0 (then 0 or inf)."""
    return top / bottom if bottom else (math.inf if top else 0.0)


def _tangency_radii(n: int, q: float, x0: float) -> tuple[float, float]:
    root = math.sqrt(x0)
    return math.sqrt(q / n) / root, math.sqrt(2.0) * math.sqrt(q / (n - 1)) / root


def _times_pow2(x: float, e: float) -> float:
    """x 2^e: exact where e is whole and the result a normal float; inf past the float range."""
    whole = math.floor(e)
    try:
        return math.ldexp(x * 2.0 ** (e - whole), whole)
    except OverflowError:
        return math.copysign(math.inf, x)


def rescale(spec: SystemSpec, k: int) -> SystemSpec:
    """spec with every length times 2^k, so that every mass M of it is 2^-k times spec's.

    The particle mass goes to 2^-k m and each power-law coefficient c of
    r^lam to 2^(-k (lam + 1)) c, so that the potential at 2^k r is 2^-k times
    the old one at r; a gaussian well's depth and its range_ (an inverse
    length) each go to 2^-k times themselves. One law serves both
    kinematics, since p and p^2 / 2m both scale as 2^-k when m does. Exact
    where each factor is a whole power of two and each result a normal
    float; a value past the float range reads as inf. Identical masses
    only: per-particle masses raise SingularMasses.
    """
    if not k:
        return spec

    def term(t: PotentialTerm) -> PotentialTerm:
        f = t.form
        if isinstance(f, PowerLaw):
            f = PowerLaw(_times_pow2(f.coefficient, -k * (f.exponent + 1.0)), f.exponent)
        else:
            f = GaussianWell(_times_pow2(f.depth, -k), _times_pow2(f.range_, -k))
        return PotentialTerm(t.scope, f)

    masses = Identical(_times_pow2(spec.identical_mass, -k))
    one_body, pairwise = tuple(map(term, spec.one_body)), tuple(map(term, spec.pairwise))
    return SystemSpec(spec.n, masses, spec.kinematics, one_body, pairwise)


def _unit_scale(spec: SystemSpec) -> tuple[int, list[float | None]]:
    """The k at which rescale(spec, k) has its typical mass scale nearest 1, and each term's scale.

    A term's scale, in spec.terms order, is log2 of the inverse of the length
    where it balances the kinetic energy (2^(k - scale) in rescale(spec, k)):
    |c|^(1/(lam+1)) semirelativistically, (m |c|)^(1/(lam+2))
    nonrelativistically and for a massive semirelativistic r^-1 term (the
    Bohr scale m |c|), range_ for a gaussian well, and None where c = 0 or
    an r^-1 term is massless. k is the
    rounded median of the scales and of log2 m where m > 0, or 0 where there
    are none; the median, unlike the mean, is not pulled away by a term too
    weak to matter. k is then clamped to the interval where every rescaled
    input x keeps |log2 |x|| <= 511, so that its square is a normal float, or
    set to 0 where that interval is empty. A gaussian well's curvature at its
    bottom, depth range_^2, counts as an input: it goes to 2^-3k times itself.
    """
    m = spec.identical_mass
    semirel = spec.kinematics is Kinematics.SEMIRELATIVISTIC
    scales: list[float | None] = []
    inputs = [(math.log2(m), -1.0)] if m > 0.0 else []  # log2 |x| and its change per unit of k
    for t in spec.terms:
        f = t.form
        scale = None
        if isinstance(f, PowerLaw):
            if f.coefficient:
                log_c = math.log2(abs(f.coefficient))
                if semirel and f.exponent != -1.0:
                    scale = log_c / (f.exponent + 1.0)
                elif m > 0.0:
                    scale = (log_c + math.log2(m)) / (f.exponent + 2.0)
                inputs.append((log_c, -(f.exponent + 1.0)))
        else:
            log_depth, scale = math.log2(f.depth), math.log2(f.range_)
            inputs += [(log_depth, -1.0), (scale, -1.0), (log_depth + 2.0 * scale, -3.0)]
        scales.append(scale)
    logs = sorted([s for s in scales if s is not None] + ([math.log2(m)] if m > 0.0 else []))
    half = len(logs) // 2
    k = round((logs[half] + logs[~half]) / 2.0) if logs else 0
    edge = sys.float_info.max_exp // 2 - 1  # 511
    lo, hi = -math.inf, math.inf
    for log_x, rate in inputs:
        if rate:
            ends = [(e - log_x) / rate for e in (-edge, edge)]
            lo, hi = max(lo, min(ends)), min(hi, max(ends))
    if k < lo:
        k = math.ceil(lo)
    if k > hi:
        k = math.floor(hi)
    return (k if lo <= k <= hi else 0), scales


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
