"""Generic auxiliary field method for N identical particles.

Each potential term V(r) is replaced by a tunable quadratic nu * r^2 plus the
field-dependent offset V(I(nu)) - nu I(nu)^2, where K(r) = V'(r) / (r^2)' and
I = K^(-1). With identical particles the optimal fields coincide term by term,
everything collapses to a single positive scale X0 = sqrt(2 mu0 (nu0 + N
nubar0)), and the mass follows from one scalar equation for X0. Closed forms
for specific interactions live in dedicated functions; afm_mass always solves
the X0 equation numerically so the two routes stay independent checks of each
other.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import (
    DomainError,
    NonPositiveSlope,
    NoPositiveRoot,
    NumericalError,
    UnsupportedCombination,
    UnsupportedForm,
    require_finite,
    require_tolerance,
)
from .model import (
    AFMSolution,
    BoundCharacter,
    GaussianWell,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    _tangency_radii,
    validate,
)
from .special import cubic_root, quartic_root


def auxiliary_k(term: PotentialTerm) -> Callable[[float], float]:
    """Tangency map K(x) = V'(x) / (x^2)' of a potential term.

    Power law: K(x) = coefficient |lam| / 2 * x^(lam-2), a constant spring
    coefficient for lam = 2, read as +-inf where the power overflows; gaussian
    well: K(x) = depth range^2 exp(-(range x)^2).
    """
    form = term.form
    if isinstance(form, PowerLaw):
        half = form.coefficient * abs(form.exponent) / 2.0

        def k(x: float, half=half, lam=form.exponent) -> float:
            try:
                return half * x ** (lam - 2.0)
            except OverflowError:
                return math.copysign(math.inf, half) if half else 0.0

        return k
    if isinstance(form, GaussianWell):
        cap = form.depth * form.range_ * form.range_

        def k(x: float, cap=cap, rng=form.range_) -> float:
            u = rng * x  # u * u is inf past the float range, where ** raises
            return cap * math.exp(-(u * u))

        return k
    raise UnsupportedForm(f"no tangency map for {form!r}")


def _convexity_sign(form) -> float:
    """Sign of g'' for V(r) = g(r^2); 0 for a quadratic term."""
    if isinstance(form, PowerLaw):
        lam = form.exponent
        return form.coefficient * math.copysign(1.0, lam) * (lam / 2.0) * (lam / 2.0 - 1.0)
    if isinstance(form, GaussianWell):
        return -form.depth
    raise UnsupportedForm(f"no convexity rule for {form!r}")


def bound_character(spec: SystemSpec) -> BoundCharacter:
    """Classify the solver output against the exact eigenvalue.

    The quadratic surrogate is tangent to each genuine potential; written as
    g(r^2), a concave g keeps the surrogate above the potential and a convex g
    below it. Exact nonrelativistic kinetics then turns those into an upper or
    lower bound; the semirelativistic kinetic replacement is itself an upper
    bound, so only the concave case survives there.
    """
    signs = [_convexity_sign(t.form) for t in spec.terms]
    has_neg = any(s < 0.0 for s in signs)
    has_pos = any(s > 0.0 for s in signs)
    if spec.kinematics is Kinematics.SEMIRELATIVISTIC:
        return BoundCharacter.UPPER_BOUND if not has_pos else BoundCharacter.UNKNOWN
    if has_neg and not has_pos:
        return BoundCharacter.UPPER_BOUND
    if has_pos and not has_neg:
        return BoundCharacter.LOWER_BOUND
    if not signs or (has_neg and has_pos):
        return BoundCharacter.UNKNOWN
    return BoundCharacter.EXACT


def _mass_at_x0(spec: SystemSpec, q: float, x0: float) -> float:
    n = spec.n
    m = spec.identical_mass
    r1, r2 = _tangency_radii(n, q, x0)
    pot = 0.0
    if spec.one_body:
        pot += n * spec.one_body[0].evaluate(r1)
    if spec.pairwise:
        pot += n * (n - 1) / 2.0 * spec.pairwise[0].evaluate(r2)
    if spec.kinematics is Kinematics.SEMIRELATIVISTIC:
        return n * math.sqrt(m * m + q * x0 / n) + pot
    return n * m + q * x0 / (2.0 * m) + pot


def _scale_candidates(spec: SystemSpec, q: float) -> list[float]:
    """Rough magnitudes of X0 used to center the root-scan grid."""
    n = spec.n
    m = spec.identical_mass
    out = [max(1.0, m * m, q)]
    for term in spec.terms:
        form = term.form
        if isinstance(form, PowerLaw):
            lam = form.exponent
            coef = abs(form.coefficient)
            if coef == 0.0:
                continue
            try:
                if term.scope is Scope.ONE_BODY:
                    amp = coef * abs(lam) * (n / q) ** ((2.0 - lam) / 2.0)
                else:
                    amp = coef * abs(lam) * n * ((n - 1) / (2.0 * q)) ** ((2.0 - lam) / 2.0)
            except OverflowError:
                continue  # no finite magnitude from this term
            powers = []
            if m > 0.0:
                powers.append((m * amp, 2.0 / (lam + 2.0)))
            if lam + 1.0 > 0.0:
                powers.append(((q / n) * amp * amp, 1.0 / (lam + 1.0)))
            for base, exponent in powers:
                try:
                    out.append(base**exponent)
                except OverflowError:
                    pass  # this candidate has no finite magnitude
        else:
            cap = form.depth * form.range_ * form.range_  # inf past the float range
            m_eff = m if m > 0.0 else 1.0
            out.append(math.sqrt(2.0 * m_eff * n * cap))
    return [s for s in out if math.isfinite(s) and s > 0.0]


def _solve_x0_roots(
    h: Callable[[float], float], scales: list[float], tolerance: float
) -> list[float]:
    """All positive roots of h by log-grid scan plus bisection."""
    lo = min(scales, default=0.0) * 1e-10
    hi = max(scales, default=0.0) * 1e10
    if lo == 0.0 or not math.isfinite(hi / lo):
        raise DomainError(f"root-scan grid [{lo}, {hi}] leaves the floating-point range")
    decades = math.log10(hi / lo)
    points = max(int(decades * 24), 48) + 1
    ratio = (hi / lo) ** (1.0 / (points - 1))
    roots = []
    x_prev = lo
    h_prev = h(x_prev)
    x = lo
    for _ in range(points - 1):
        x *= ratio
        h_cur = h(x)
        if h_prev == 0.0:
            roots.append(x_prev)
        elif (h_prev > 0.0) != (h_cur > 0.0):
            a, b = x_prev, x
            fa = h_prev
            while (b - a) > tolerance * b:
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break  # adjacent floats: no finer bracket exists
                fm = h(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fa > 0.0) == (fm > 0.0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(0.5 * (a + b))
        x_prev, h_prev = x, h_cur
    return roots


def afm_mass(
    spec: SystemSpec, q: QuantumNumbers, tolerance: float = 1e-12
) -> AFMSolution:
    """Auxiliary-field mass of an identical-particle system.

    Solves the scale equation
    X0^2 = 2 sqrt(m^2 + Q X0 / N) [K(r_one) + N Kbar(r_pair)] with the
    tangency radii r_one = sqrt(Q/(N X0)), r_pair = sqrt(2Q/((N-1) X0))
    (the square root pinned to m for nonrelativistic kinematics), then
    assembles M = N mu0 + N V(r_one) + N(N-1)/2 Vbar(r_pair). Accepts at most
    one term per scope. When several positive roots exist (e.g. gaussian
    wells) the one minimizing the assembled mass wins, ties toward smaller X0.
    Roots are bisected to a relative width of tolerance, which must be finite
    and positive (else ValidationError), or to adjacent floats. A mass that
    leaves the float range raises NumericalError.
    """
    validate(spec, q)
    require_tolerance(tolerance)
    if len(spec.one_body) > 1 or len(spec.pairwise) > 1:
        raise UnsupportedCombination("at most one term per scope")
    if not spec.terms:
        raise UnsupportedCombination("need at least one potential term")
    n = spec.n
    m = spec.identical_mass
    qq = q.q
    k_one = auxiliary_k(spec.one_body[0]) if spec.one_body else None
    k_pair = auxiliary_k(spec.pairwise[0]) if spec.pairwise else None

    def field_sum(x0: float) -> float:
        r1, r2 = _tangency_radii(n, qq, x0)
        total = 0.0
        if k_one is not None:
            total += k_one(r1)
        if k_pair is not None:
            total += n * k_pair(r2)
        return total

    semirel = spec.kinematics is Kinematics.SEMIRELATIVISTIC
    all_quadratic = all(
        isinstance(t.form, PowerLaw) and t.form.exponent == 2.0 for t in spec.terms
    )
    if not semirel and all_quadratic:
        kappa = field_sum(1.0)  # constant for quadratic terms
        if kappa <= 0.0:
            raise NoPositiveRoot(f"net spring constant {kappa} <= 0")
        x0 = math.sqrt(2.0 * m * kappa)
        if not 0.0 < x0 < math.inf:
            raise DomainError(f"auxiliary scale X0 = {x0} is not a positive float")
    else:
        # h(X0) = 2 mu F(X0) / X0 - X0 has the sign of 2 mu F - X0^2 for X0 > 0
        # and no X0^2 to overflow into a false sign change near sqrt(DBL_MAX)
        if semirel:

            def h(x0: float) -> float:
                return 2.0 * math.sqrt(m * m + qq * x0 / n) * field_sum(x0) / x0 - x0

        else:

            def h(x0: float) -> float:
                return 2.0 * m * field_sum(x0) / x0 - x0

        roots = _solve_x0_roots(h, _scale_candidates(spec, qq), tolerance)
        if not roots:
            raise NoPositiveRoot("the auxiliary-scale equation has no positive root")
        x0 = min(roots, key=lambda r: (_mass_at_x0(spec, qq, r), r))
    mass = _mass_at_x0(spec, qq, x0)
    if not math.isfinite(mass):
        raise NumericalError(f"mass {mass} at X0 = {x0} is not a finite float")
    return AFMSolution.at_scale(n, m, qq, x0, mass, bound_character(spec))


def _extract_equal_powers(spec: SystemSpec) -> tuple[float, float, float]:
    """(a, b, lam) from a one-body and/or pairwise power-law system."""
    if len(spec.one_body) > 1 or len(spec.pairwise) > 1:
        raise UnsupportedCombination("at most one term per scope")
    a = b = 0.0
    lams = set()
    if spec.one_body:
        form = spec.one_body[0].form
        if not isinstance(form, PowerLaw):
            raise UnsupportedForm("equal-power route needs power-law terms")
        a = form.coefficient
        lams.add(form.exponent)
    if spec.pairwise:
        form = spec.pairwise[0].form
        if not isinstance(form, PowerLaw):
            raise UnsupportedForm("equal-power route needs power-law terms")
        b = form.coefficient
        lams.add(form.exponent)
    if not lams:
        raise UnsupportedCombination("need at least one power-law term")
    if len(lams) != 1:
        raise UnsupportedCombination("one-body and pairwise exponents must be equal")
    return a, b, lams.pop()


def _m00_mass(n: int, m: float, qq: float, lam: float, x0: float) -> float:
    return (n * lam * m * m + qq * (lam + 1.0) * x0) / (
        lam * math.sqrt(m * m + qq * x0 / n)
    )


def equal_power_mass(spec: SystemSpec, q: QuantumNumbers) -> AFMSolution:
    """Closed-form mass when the one-body and pairwise exponents coincide.

    The scale equation collapses to X0^(lam+2) = C^2 (m^2 + Q X0 / N) with
    C the combined amplitude; the mass is then
    (N lam m^2 + Q (lam+1) X0) / (lam sqrt(m^2 + Q X0/N)). Nonrelativistic
    kinematics and the massless limit are closed for every exponent; with a
    finite mass the equation is algebraic for lam in {-1, 1, 2}, and other
    exponents fall back to the numeric solve of afm_mass.
    """
    validate(spec, q)
    a, b, lam = _extract_equal_powers(spec)
    n = spec.n
    m = spec.identical_mass
    qq = q.q

    amp_one = a * abs(lam) * (n / qq) ** ((2.0 - lam) / 2.0)
    amp_pair = b * abs(lam) * n * ((n - 1) / (2.0 * qq)) ** ((2.0 - lam) / 2.0)
    c = amp_one + amp_pair
    if c <= 0.0:
        raise NoPositiveRoot(f"combined amplitude {c} <= 0: no binding")

    if spec.kinematics is Kinematics.NONRELATIVISTIC:
        x0 = (m * c) ** (2.0 / (lam + 2.0))
        mass = n * m + (lam + 2.0) / (2.0 * lam) * qq * (c * c / m**lam) ** (
            1.0 / (lam + 2.0)
        )
    elif m == 0.0:
        if lam == -1.0:
            raise NoPositiveRoot(
                "massless pure inverse-distance systems have no scale; the mass"
                " tends to zero"
            )
        try:
            x0 = ((qq / n) * c * c) ** (1.0 / (lam + 1.0))
            mass = (lam + 1.0) / lam * (
                qq ** (lam + 2.0) * n**lam * c * c
            ) ** (1.0 / (2.0 * (lam + 1.0)))
        except OverflowError:
            x0 = mass = math.inf  # past the float range; at_scale rejects X0
    else:
        if lam == 2.0:
            s = (c * c * qq / (2.0 * n)) ** (1.0 / 3.0)
            y = 4.0 * c * c * m * m / (3.0 * s**4)
            x0 = s * quartic_root(y)
        elif lam == 1.0:
            s = c * math.sqrt(qq / (3.0 * n))
            y = c * c * m * m / (2.0 * s**3)
            x0 = s * cubic_root(y)
        elif lam == -1.0:
            frac = c * c * qq / n
            if frac >= 1.0:
                raise NoPositiveRoot("attraction beyond the collapse threshold")
            x0 = c * c * m * m / (1.0 - frac)
        else:
            return afm_mass(spec, q)
        mass = _m00_mass(n, m, qq, lam, x0)
    return AFMSolution.at_scale(n, m, qq, x0, mass, bound_character(spec))


def linear_mass(n: int, m: float, a: float, b: float, q: float) -> AFMSolution:
    """Semirelativistic mass for linear confinement, one-body and/or pairwise.

    The two slopes combine into c = a + b sqrt(N(N-1)/2); eliminating the
    fields leaves the cubic x^3 - 3x - 2Y = 0 with Y = 3^(3/2) N m^2 / (2Qc),
    giving M = N m sqrt(F/(2Y)) (F + 3/F). Massless particles give the linear
    trajectory M^2 = 4NcQ.
    """
    require_finite(n=n, m=m, a=a, b=b, q=q)
    c = a + b * math.sqrt(n * (n - 1) / 2.0)
    if c <= 0.0:
        raise NonPositiveSlope(f"combined slope {c} <= 0")
    if m < 0.0:
        raise NonPositiveSlope(f"mass must be non-negative, got {m}")
    if m == 0.0:
        mass = math.sqrt(4.0 * n * c * q)
        x0 = c
    else:
        y = 3.0**1.5 * n * m * m / (2.0 * q * c)
        froot = cubic_root(y)
        x0 = c * froot / math.sqrt(3.0)
        mass = n * m * math.sqrt(froot / (2.0 * y)) * (froot + 3.0 / froot)
    return AFMSolution.at_scale(n, m, q, x0, mass, BoundCharacter.UPPER_BOUND)
