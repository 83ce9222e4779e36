"""Independent numerical checks of the closed-form masses.

numeric_afm_minimize extremizes the three-field mass function directly, never
touching the scale equation the closed forms come from, so agreement between
the two routes is a genuine cross-check. Each field is one record: its spring
in s = nu + N nubar, its weight in the mass, the sense of its stationary point
and its offset V(I) - nu I^2. Line searches use function values only, except
along fields whose stationary point is a maximum: there one Newton function
steps on the analytic derivatives of the mass, accepts the point they reach
on three mass values (itself and its two neighbours), and leaves Brent's
search as the safeguard. gaussian_trial_bound
evaluates a one-parameter correlated-Gaussian variational state analytically
and is a true upper bound on the exact ground level of nonrelativistic
pairwise systems.
"""
from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable

from .errors import (
    DomainError,
    NonConvergence,
    UnboundedBelow,
    UnsupportedCombination,
    UnsupportedForm,
)
from .model import (
    GaussianWell,
    Kinematics,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    _exp,
    _Value,
    validate,
)

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of an interval
# Line searches stop once the minimum is bracketed to this absolute width in
# log space (relative width in the field). Near a smooth minimum the values
# are level to rounding within ~sqrt(eps) ~ 1.5e-8 of it, so they cannot place
# it closer than that; the bracket shrinks to this width mainly at a barrier
# edge, where the values keep changing.
_LINE_TOL = 1e-9
# A smooth minimum ends the search earlier: once the three best points lie
# within _LEVEL_SPAN of each other and their values agree to _LEVEL_RTOL
# relative (4 ulp), no further evaluation can move the minimum.
_LEVEL_SPAN = 1e-6
_LEVEL_RTOL = 4.0 * sys.float_info.epsilon
_FLOAT_MIN = sys.float_info.min  # smallest normal float
_LOG_LO = -700.0  # fields confined to roughly [1e-304, 1e304], where exp is finite
_LOG_HI = 700.0
# A field starts at its |K| at unit radius, clamped to [e^-40, e^40]: from
# further out, as for steep powers with tiny coefficients, the mass can be
# flat to rounding along the field and the searches stall there.
_START_LO = math.exp(-40.0)
_START_HI = math.exp(40.0)
# First bracket step in log space. Within one solve each search direction
# starts its next bracket at _WARM_GROWTH times its last move, clamped to
# [_STEP_MIN, _STEP_MAX]; doubling still reaches a far minimum.
_STEP_MAX = 0.5
_STEP_MIN = 1e-4
_WARM_GROWTH = 4.0
_KAPPA_SPAN = 34.5  # trial widths confined to roughly [1e-15, 1e15]
# Newton steps toward a max-sense field's maximum are clamped to _NEWTON_STEP
# in log space; they converge once a step is at most _NEWTON_TOL and give up
# after _NEWTON_ITERS steps. The point is accepted only if the mass there is
# not below the mass _NEWTON_DELTA away on either side. A converged point lies
# within _NEWTON_TOL of the maximizer, far inside the ~sqrt(eps) ~ 1.5e-8
# rounding plateau where values cannot place it any closer. The settled point
# of the whole extremization must likewise have a finite mass _NEWTON_DELTA
# away along each minimized direction, or it lies against a barrier.
_NEWTON_STEP = 1.0
_NEWTON_TOL = 1e-9
_NEWTON_ITERS = 40
_NEWTON_DELTA = 2.5e-7
# Field extremization ends after two passes in a row that move the mass by
# at most this much relative to max(1, |M|).
_PASS_TOL = 1e-12


class Verdict(Enum):
    MATCH = "match"
    VIOLATION = "violation"


class OracleReport(_Value):
    """Closed-form value against an independently computed one."""

    closed_form: float
    oracle_value: float
    relative_gap: float
    verdict: Verdict
    tolerance: float


def compare(closed_form: float, oracle_value: float, tolerance: float) -> OracleReport:
    """Equality check: MATCH iff the relative gap stays within tolerance."""
    gap = abs(closed_form - oracle_value) / max(1.0, abs(closed_form))
    verdict = Verdict.MATCH if gap <= tolerance else Verdict.VIOLATION
    return OracleReport(closed_form, oracle_value, gap, verdict, tolerance)


def compare_ordering(
    closed_form: float, oracle_value: float, tolerance: float = 1e-10
) -> OracleReport:
    """Ordering check: MATCH iff oracle_value <= closed_form (within slack)."""
    gap = (oracle_value - closed_form) / max(1.0, abs(closed_form))
    verdict = Verdict.MATCH if gap <= tolerance else Verdict.VIOLATION
    return OracleReport(closed_form, oracle_value, gap, verdict, tolerance)


# ---------------------------------------------------------------------------
# direct extremization of the three-field mass function


def _brent_min(
    g: Callable[[float], float], a: float, x: float, fx: float, b: float
) -> tuple[float, float]:
    """Minimize g on [a, b] from a point a <= x <= b with g(x) = fx.

    Brent's localmin (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 5): parabolic steps through the three best points, with a
    golden-section step whenever the parabola is not trusted. A non-finite
    value makes the parabola non-finite and so forces the golden step, which
    lets inf act as a barrier. Stops once the minimum is bracketed to within
    _LINE_TOL, or earlier once the three best points x, w, v are distinct,
    within _LEVEL_SPAN of each other and level to _LEVEL_RTOL in value;
    returns the lowest point evaluated and its value.
    """
    w, fw = v, fv = x, fx
    d = e = 0.0
    tol2 = 2.0 * _LINE_TOL
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx
        if (
            x != w != v != x
            and max(x, w, v) - min(x, w, v) <= _LEVEL_SPAN
            and abs(fw - fx) <= _LEVEL_RTOL * abs(fx)
            and abs(fv - fx) <= _LEVEL_RTOL * abs(fx)
        ):
            return x, fx
        p = q = r = 0.0
        if abs(e) > _LINE_TOL:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q  # parabolic step
            u = x + d
            if u - a < tol2 or b - u < tol2:
                d = _LINE_TOL if x < mid else -_LINE_TOL
        else:
            e = (b - x) if x < mid else (a - x)
            d = _CGOLD * e  # golden-section step
        u = x + (d if abs(d) >= _LINE_TOL else math.copysign(_LINE_TOL, d))
        fu = g(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _bracket_min(
    g: Callable[[float], float],
    u0: float,
    f0: float,
    lo: float,
    hi: float,
    step: float = _STEP_MAX,
) -> tuple[float, float, float, float, float, float]:
    """Grow a bracket around a minimum of g by doubling steps from u0.

    The first probes sit at u0 -/+ step. The bracket stays inside [lo, hi].
    Returns (ul, fl, u0, f0, uh, fh) where f0 = g(u0) is the lowest value
    found inside; fl < f0 or fh < f0 means g still descends at that edge of
    the domain.
    """
    ul, uh = max(u0 - step, lo), min(u0 + step, hi)
    fl, fh = g(ul), g(uh)
    while fl < f0 and ul > lo:
        uh, fh = u0, f0
        u0, f0 = ul, fl
        step *= 2.0
        ul = max(u0 - step, lo)
        fl = g(ul)
    while fh < f0 and uh < hi:
        ul, fl = u0, f0
        u0, f0 = uh, fh
        step *= 2.0
        uh = min(u0 + step, hi)
        fh = g(uh)
    return ul, fl, u0, f0, uh, fh


def _log_objective(f: Callable[[float], float], sense: int) -> Callable[[float], float]:
    """u -> sense f(e^u), with non-finite values read as +inf, a barrier."""

    def g(u: float) -> float:
        v = f(math.exp(u))
        return sense * v if math.isfinite(v) else math.inf

    return g


def _extremize_log_line(
    f: Callable[[float], float], x0: float, sense: int, step: float = _STEP_MAX
) -> tuple[float, float]:
    """Extremize f over a positive variable by Brent's method in log space.

    sense +1 minimizes, -1 maximizes; non-finite values act as a barrier for
    either sense. The bracket is grown outward from x0 by doubling steps that
    start at `step`. Returns the extremum and how far it lies from x0 in log
    space. A minimizing search whose bracket grows to _LOG_LO or _LOG_HI and
    still descends there, or meets a non-finite value only there, raises
    UnboundedBelow: f falls until the field leaves the float range.
    """
    g = _log_objective(f, sense)
    u_start = u0 = min(max(math.log(x0), _LOG_LO), _LOG_HI)
    f0 = g(u0)
    if not math.isfinite(f0):
        # the warm start sits outside the valid field region; probe outward
        # geometrically until some direction gives a finite value
        probe = 0.5
        while probe <= _LOG_HI - _LOG_LO:
            for cand in (u0 - probe, u0 + probe):
                if _LOG_LO <= cand <= _LOG_HI:
                    fc = g(cand)
                    if math.isfinite(fc):
                        u0, f0 = cand, fc
                        break
            else:
                probe *= 2.0
                continue
            break
        if not math.isfinite(f0):
            return x0, 0.0  # no valid point anywhere along this line
    ul, fl, u0, f0, uh, fh = _bracket_min(g, u0, f0, _LOG_LO, _LOG_HI, step)
    if sense > 0 and (
        (ul == _LOG_LO and not f0 <= fl < math.inf)
        or (uh == _LOG_HI and not f0 <= fh < math.inf)
    ):
        raise UnboundedBelow("the mass still falls at the edge of the field range")
    u = _brent_min(g, ul, u0, f0, uh)[0]
    return math.exp(u), abs(u - u_start)


class _FieldTerm(_Value):
    spring: float        # ds/dt: the field's sign, times N for a pairwise term
    weight: float        # N, or N(N-1)/2 for a pairwise term
    sense: int           # +1: stationary point is a minimum along this field
    offset: Callable[[float], float]  # V(I) - nu I^2 as a function of |field|
    init: float          # |K| at unit radius
    power: float | None  # d ln|offset| / d ln|field| of a power law, else None


def _field_term(term, n: int) -> _FieldTerm:
    form = term.form
    # a pairwise field enters s = nu + N nubar N times, and the mass once per pair
    weight, fold = (n * (n - 1) / 2.0, n) if term.scope is Scope.PAIRWISE else (n, 1)
    if isinstance(form, PowerLaw):
        coef, lam = form.coefficient, form.exponent
        mag = abs(coef) * abs(lam) / 2.0
        sign = 1.0 if coef > 0.0 else -1.0
        # With x = I(t) = (t/mag)^(1/(lam-2)), t x^2 = mag x^lam, so
        # coef sgn(lam) x^lam - sign t x^2 = scale (t/mag)^(lam/(lam-2)).
        scale = coef * math.copysign(1.0, lam) * (1.0 - lam / 2.0)
        power = lam / (lam - 2.0)

        # Where t/mag or its power leaves the float range, the product is
        # formed in logs: a tiny scale times a huge power stays finite, and a
        # product past the float range reads as inf, a barrier. Elsewhere the
        # direct power keeps every digit; the log form would carry an error of
        # about eps times its exponent.
        def offset(t: float, mag=mag, scale=scale, power=power):
            y = t / mag
            if y >= _FLOAT_MIN:
                try:
                    v = scale * y**power
                    if v and v * 0.0 == 0.0:  # finite and nonzero
                        return v
                except OverflowError:
                    pass
            if not scale:  # coef (1 - lam/2) underflowed
                return 0.0
            log_v = math.log(abs(scale)) + power * (math.log(t) - math.log(mag))
            return math.copysign(_exp(log_v), scale)

        # Along a binding concave direction the stationary point is a
        # minimum; repulsion or convex growth flips it to a maximum.
        sense = +1 if coef * (2.0 - lam) > 0.0 else -1
        return _FieldTerm(sign * fold, weight, sense, offset, mag, power)
    if isinstance(form, GaussianWell):
        depth, rng = form.depth, form.range_
        cap = depth * rng * rng

        def offset(t: float, cap=cap, rng=rng):
            if t >= cap:
                return math.inf
            return t / (rng * rng) * (math.log(t / cap) - 1.0)

        return _FieldTerm(
            float(fold), weight, +1, offset, cap * math.exp(-(rng * rng)), None
        )
    raise UnsupportedForm(f"no field term for {form!r}")


def _newton_max(
    f: Callable[[float], float],
    field: _FieldTerm,
    base: float,
    mu: float,
    qq: float,
    t: float,
) -> tuple[float, float] | None:
    """Maximum of f along one power-law field, by Newton steps from the field t.

    Along the field the mass f is weight offset(t) + qq sqrt(2 s / mu) plus a
    constant, with s = base + spring t. Where t lies past the kinetic barrier
    (s <= 0, with spring < 0 < base), the steps start halfway to it instead,
    at t = base / (2 |spring|). They run in u = ln t: since
    offset = scale (t/mag)^power, its first and second u-derivatives are
    power offset and power^2 offset; those of the kinetic root
    K = qq sqrt(2 s / mu) are K r and K r (1 - r), with r = spring t / (2 s).
    Every iterate must give finite values and a negative second derivative;
    steps are clamped to _NEWTON_STEP, and the run converges once a step is
    at most _NEWTON_TOL. The point it converges to is accepted if f is finite
    there and at u -/+ _NEWTON_DELTA, and not below either neighbour: three
    evaluations. Returns t and f there, or None where a safeguard fails,
    _NEWTON_ITERS steps do not converge or the point is refused.
    """
    c, power = field.spring, field.power
    if c < 0.0 < base and base + c * t <= 0.0:
        t = base / (-2.0 * c)
    u = math.log(t)
    weight_power, two_over_mu = field.weight * power, 2.0 / mu
    for _ in range(_NEWTON_ITERS):
        if not _LOG_LO <= u <= _LOG_HI:
            return None
        t = math.exp(u)
        ct = c * t
        s = base + ct
        if not s > 0.0:
            return None
        r = 0.5 * ct / s
        k_r = qq * math.sqrt(two_over_mu * s) * r
        slope = weight_power * field.offset(t)
        d1 = slope + k_r
        d2 = power * slope + k_r * (1.0 - r)
        if not (-math.inf < d2 < 0.0 and math.isfinite(d1)):
            return None
        du = min(max(-d1 / d2, -_NEWTON_STEP), _NEWTON_STEP)
        u += du
        if -_NEWTON_TOL <= du <= _NEWTON_TOL:
            break
    else:
        return None
    g = _log_objective(f, -1)
    lo, hi = u - _NEWTON_DELTA, u + _NEWTON_DELTA
    if not _LOG_LO <= lo < hi <= _LOG_HI:
        return None
    gu = g(u)
    if not (gu < math.inf and gu <= g(lo) < math.inf and gu <= g(hi) < math.inf):
        return None
    return math.exp(u), -gu


def numeric_afm_minimize(
    spec: SystemSpec,
    q: QuantumNumbers,
    max_evals: int = 100_000,
) -> float:
    """Extremal mass of the three-field function, found without closed forms.

    The function
    M = N/2 (mu + m^2/mu) + N [V(I(nu)) - nu I^2] + N(N-1)/2 [Vbar(...)]
      + sqrt(2 (nu + N nubar) / mu) Q
    is extremized by nested line searches in the logs of the positive
    fields: directions whose stationary point is a maximum (repulsive or
    convex power terms) are solved innermost, the rest are cyclically
    minimized by Brent's method until two passes in a row change the mass by
    at most 1e-12 max(1, |M|). Each innermost maximum is found by safeguarded
    Newton steps on the analytic derivatives of M along that field, started
    halfway to the kinetic barrier where the warm field lies past it; the
    point they converge to is accepted when M there is not below M 2.5e-7
    away in the log on either side, three mass evaluations in all. Where that
    is refused, Brent's search from a grown bracket runs instead. Quadratic
    terms pin their field to the spring constant; nonrelativistic kinematics
    pins mu to the particle mass. Every mass evaluation counts toward
    max_evals. A minimizing search that still descends where a field leaves
    the float range raises UnboundedBelow, and so does a settled point whose
    mass is not finite 2.5e-7 away in the log along some minimized direction:
    the mass fell until it left the float range and read as a barrier there,
    so the point is a boundary, not a stationary point. Deterministic for
    fixed input.
    """
    validate(spec, q)
    if not spec.terms:
        raise UnsupportedCombination("need at least one potential term")
    n = spec.n
    m = spec.identical_mass
    qq = q.q
    semirel = spec.kinematics is Kinematics.SEMIRELATIVISTIC

    # s = nu + N nubar is s0, the springs of the pinned quadratic terms, plus
    # each field times its spring; with at most one term per scope, this sums
    # the same floats as nu + N nubar
    s0 = 0.0
    field_terms: list[_FieldTerm] = []
    for term in spec.terms:
        form = term.form
        if isinstance(form, PowerLaw) and form.exponent == 2.0:
            s0 += form.coefficient * (n if term.scope is Scope.PAIRWISE else 1)
        else:
            ft = _field_term(term, n)
            if not 0.0 < ft.init < math.inf:
                raise DomainError(f"field scale {ft.init} of {form!r} is not a positive float")
            field_terms.append(ft)

    evals = [0]

    def mass(mu: float, ts: list[float]) -> float:
        evals[0] += 1
        if evals[0] > max_evals:
            raise NonConvergence(f"evaluation budget {max_evals} exhausted")
        s = s0
        total = n * m if not semirel else n / 2.0 * (mu + m * m / mu)
        for ft, t in zip(field_terms, ts):
            s += ft.spring * t
            total += ft.weight * ft.offset(t)
        if s <= 0.0:
            return math.inf
        mu_eff = mu if semirel else m
        kinetic = math.sqrt(2.0 * s / mu_eff)
        if kinetic == math.inf:  # only the quotient left the float range
            kinetic = math.sqrt(2.0 * s) / math.sqrt(mu_eff)
        return total + kinetic * qq

    mu = math.sqrt(m * m + qq)
    ts = [min(max(ft.init, _START_LO), _START_HI) for ft in field_terms]
    for _ in range(200):  # deterministic repair of an invalid start
        if math.isfinite(mass(mu, ts)):
            break
        for j, ft in enumerate(field_terms):
            if ft.spring < 0.0:
                ts[j] *= 0.5

    max_idx = [j for j, ft in enumerate(field_terms) if ft.sense < 0]
    min_idx = [j for j, ft in enumerate(field_terms) if ft.sense > 0]
    steps = [_STEP_MAX] * (len(field_terms) + 1)  # field j, then mu at -1

    def search(f: Callable[[float], float], x0: float, sense: int, k: int) -> float:
        x, move = _extremize_log_line(f, x0, sense, steps[k])
        steps[k] = min(max(_WARM_GROWTH * move, _STEP_MIN), _STEP_MAX)
        return x

    def hull(mu_: float, ts_: list[float]) -> float:
        """Resolve the max-sense fields for fixed minimized ones (in place).

        Each is a power-law field: Newton steps on the mass along it
        (_newton_max); where they are refused, the derivative-free search runs
        as for every other field. Returns the mass at the resolved fields.
        """
        value = None
        for j in max_idx:

            def fj(t: float, j=j) -> float:
                prev = ts_[j]
                ts_[j] = t
                v = mass(mu_, ts_)
                ts_[j] = prev
                return v

            base = s0 + sum(
                ft.spring * t for k, (ft, t) in enumerate(zip(field_terms, ts_)) if k != j
            )
            found = _newton_max(fj, field_terms[j], base, mu_ if semirel else m, qq, ts_[j])
            if found is None:
                ts_[j], value = search(fj, ts_[j], -1, j), None
            else:
                ts_[j], value = found
        return mass(mu_, ts_) if value is None else value

    # a max-sense field that adds to s can always lift it above 0
    lifted = any(field_terms[j].spring > 0.0 for j in max_idx)

    def interior() -> bool:
        """Whether the settled point has a finite mass _NEWTON_DELTA either
        side in the log along each minimized direction (mu, then each
        min-sense field). A point where the max-sense fields cannot make
        s > 0 is past the kinetic barrier and is not counted."""
        moves = [math.exp(-_NEWTON_DELTA), math.exp(_NEWTON_DELTA)]
        points = [(mu * r, list(ts)) for r in moves] if semirel else []
        for j in min_idx:
            for r in moves:
                scratch = list(ts)
                scratch[j] *= r
                points.append((mu, scratch))
        for mu_, ts_ in points:
            s_min = s0 + sum(field_terms[k].spring * ts_[k] for k in min_idx)
            if (lifted or s_min > 0.0) and not math.isfinite(hull(mu_, ts_)):
                return False
        return True

    cur = hull(mu, ts)
    small_steps = 0
    for _ in range(120):
        prev = cur
        if semirel:

            def fmu(v: float) -> float:
                return hull(v, list(ts))

            mu = search(fmu, mu, +1, -1)
        for j in min_idx:

            def fj(t: float, j=j) -> float:
                scratch = list(ts)
                scratch[j] = t
                return hull(mu, scratch)

            ts[j] = search(fj, ts[j], +1, j)
        cur = hull(mu, ts)
        if abs(prev - cur) <= _PASS_TOL * max(1.0, abs(cur)):
            small_steps += 1
            if small_steps >= 2:
                if not interior():
                    raise UnboundedBelow("the mass falls to a barrier, not a stationary point")
                return cur
        else:
            small_steps = 0
    raise NonConvergence("field extremization did not settle within the pass limit")


# ---------------------------------------------------------------------------
# correlated-Gaussian variational bound


def pair_moment_power(gamma: float, eta: float) -> float:
    """<r^eta> over the pair density r^2 exp(-gamma r^2)."""
    return gamma ** (-eta / 2.0) * math.gamma((3.0 + eta) / 2.0) / math.gamma(1.5)


def pair_moment_gaussian(gamma: float, beta: float) -> float:
    """<exp(-beta^2 r^2)> over the pair density r^2 exp(-gamma r^2)."""
    return (gamma / (gamma + beta * beta)) ** 1.5


def gaussian_trial_bound(spec: SystemSpec) -> float:
    """Variational ground-state bound from exp(-kappa sum r_ij^2) trial states.

    For N identical nonrelativistic particles with one pairwise term the
    expectation is analytic: the kinetic part is 3 N (N-1) kappa / (2m) and
    every pair sees the density r^2 exp(-kappa N r^2), giving Gamma-function
    moments for powers and a closed ratio for gaussian wells. Minimized over
    kappa > 0 by Brent's method; the result bounds the exact ground-state
    internal energy (rest mass excluded) from above. The quadratic pair
    potential is reproduced exactly since the trial family then contains the
    true ground state.
    """
    validate(spec, QuantumNumbers.ground(spec.n))
    if spec.kinematics is not Kinematics.NONRELATIVISTIC:
        raise UnsupportedCombination("trial bound is nonrelativistic only")
    if spec.one_body or len(spec.pairwise) != 1:
        raise UnsupportedCombination("trial bound needs exactly one pairwise term")
    n = spec.n
    m = spec.identical_mass
    npair = n * (n - 1) / 2.0
    form = spec.pairwise[0].form

    if isinstance(form, PowerLaw):
        coef, eta = form.coefficient, form.exponent
        sgn = math.copysign(1.0, eta)

        def pair_term(gamma: float) -> float:
            return coef * sgn * pair_moment_power(gamma, eta)

    elif isinstance(form, GaussianWell):
        depth, rng = form.depth, form.range_

        def pair_term(gamma: float) -> float:
            return -depth * pair_moment_gaussian(gamma, rng)

    else:
        raise UnsupportedForm(f"no trial moments for {form!r}")

    def energy(kappa: float) -> float:
        return 3.0 * n * (n - 1.0) * kappa / (2.0 * m) + npair * pair_term(kappa * n)

    g = _log_objective(energy, +1)
    ul, fl, u0, f0, uh, fh = _bracket_min(g, 0.0, g(0.0), -_KAPPA_SPAN, _KAPPA_SPAN)
    if fl < f0 or fh < f0:  # still descending at the domain edge
        edge = fl if fl < f0 else fh
        if edge < -1e-12 * max(1.0, abs(f0)):
            raise UnboundedBelow("trial expectation decreases without bound")
        return edge
    return _brent_min(g, ul, u0, f0, uh)[1]
