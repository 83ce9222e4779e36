"""Independent numerical checks of the closed-form masses.

numeric_afm_minimize extremizes the three-field mass function directly, never
touching the scale equation the closed forms come from, so agreement between
the two routes is a genuine cross-check. Each field is one record: its spring
in s = nu + N nubar, its weight in the mass, the sense of its stationary point,
its offset V(I) - nu I^2 and its start, |K| at its term's balance radius. The
search runs over one coordinate vector, mu then the fields, and two index lists
name the coordinates it minimizes and those it maximizes. Line searches use
function values only, except along fields whose stationary point is a maximum:
there one Newton function steps on the analytic derivatives of the mass,
accepts the point they reach on three mass values (itself and its two
neighbours; a lone such field whose maximum lies within float spacing of the
kinetic barrier s > 0 settles at the barrier's last float inside), and leaves
Brent's search as the safeguard; a field past the barrier moves inside it
before either runs. The searches only search; one verdict on the settled point
tells a stationary point from a boundary, and the passes stop on a change of M
relative to max(|M|, N m), alike at every length scale.
gaussian_trial_bound takes the least energy of a one-width correlated-Gaussian
state, a true upper bound on nonrelativistic pairwise ground levels, without a
search over the width: in closed form for a power law, and by one Brent search
on a bracket known in advance for a gaussian well.

Both solve the spec at unit scale: rescale(spec, k) (model.rescale, every
length times 2^k) at the k of model._unit_scale, whose masses and levels are
2^-k times the spec's, and return 2^k times the result, an exact product.
So each is scale covariant wherever the clamp on k does not bind.
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
)
from .model import (
    Kinematics,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    _exp,
    _finite,
    _times_pow2,
    _unit_scale,
    _Value,
    rescale,
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
# First bracket step in log space. Within one solve each search direction
# starts its next bracket at _WARM_GROWTH times its last move, clamped to
# [_STEP_MIN, _STEP_MAX]; doubling still reaches a far minimum.
_STEP_MAX = 0.5
_STEP_MIN = 1e-4
_WARM_GROWTH = 4.0
# Newton steps toward a max-sense field's maximum are clamped to _NEWTON_STEP
# in log space; they converge once a step is at most _NEWTON_TOL and give up
# after _NEWTON_ITERS steps. The point is accepted only if the mass there is
# not below the mass _NEWTON_DELTA away on either side. A converged point lies
# within _NEWTON_TOL of the maximizer, far inside the ~sqrt(eps) ~ 1.5e-8
# rounding plateau where values cannot place it any closer.
_NEWTON_STEP = 1.0
_NEWTON_TOL = 1e-9
_NEWTON_ITERS = 40
_NEWTON_DELTA = 2.5e-7
# Field extremization ends after two passes in a row that move the mass by
# at most this much relative to max(|M|, N m), which scales as M does.
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
    step: float,
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
    f: Callable[[float], float], x0: float, sense: int, step: float
) -> tuple[float, float]:
    """Extremize f over a positive variable by Brent's method in log space.

    sense +1 minimizes, -1 maximizes; non-finite values act as a barrier for
    either sense. The caller starts the search inside that barrier: a start x0
    where f is not finite has nothing to search from and is returned as it
    is. The bracket grows from x0 by doubling steps from `step`, inside
    [_LOG_LO, _LOG_HI]. Returns the extremum and its log distance from x0.
    """
    g = _log_objective(f, sense)
    u_start = u0 = min(max(math.log(x0), _LOG_LO), _LOG_HI)
    f0 = g(u0)
    if not math.isfinite(f0):
        return x0, 0.0
    ul, _, u0, f0, uh, _ = _bracket_min(g, u0, f0, _LOG_LO, _LOG_HI, step)
    u = _brent_min(g, ul, u0, f0, uh)[0]
    return math.exp(u), abs(u - u_start)


class _FieldTerm(_Value):
    spring: float        # ds/dt: the field's sign, times N for a pairwise term
    weight: float        # N, or N(N-1)/2 for a pairwise term
    sense: int           # +1: stationary point is a minimum along this field
    offset: Callable[[float], float]  # V(I) - nu I^2 as a function of |field|
    init: float          # the start: |K| at the term's balance radius, in [e^-700, e^700]
    power: float | None  # d ln|offset| / d ln|field| of a power law, else None


def _field_term(term, n: int, log2_r: float = 0.0) -> _FieldTerm:
    """The field of one non-quadratic term, starting at |K| = |V'(r) / 2r| at r = 2^log2_r."""
    form = term.form
    log_r = log2_r * math.log(2.0)
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

        # Along a concave direction (binding below lam = 2) the stationary
        # point is a minimum; repulsion or convex growth flips it to a maximum.
        sense = +1 if form.curvature_sign() < 0.0 else -1
        spring, k0, log_shape = sign * fold, mag, (lam - 2.0) * log_r  # |K| = mag r^(lam-2)
    else:  # a gaussian well: validate admits no third form
        depth, rng = form.depth, form.range_
        cap = depth * rng * rng

        # Past the cap t = depth range^2, the well's curvature at r = 0, the
        # quadratic t r^2 touches the well only at its bottom, and the offset
        # stays at -depth: continuous, with zero slope, so the cap is no
        # barrier and a stationary field just below it is told from a boundary.
        def offset(t: float, cap=cap, rng=rng, depth=depth):
            if t >= cap:
                return -depth
            y = t / cap  # formed in logs where it underflows
            log_y = math.log(y) if y >= _FLOAT_MIN else math.log(t) - math.log(cap)
            return t / (rng * rng) * (log_y - 1.0)

        spring, sense, power, k0 = float(fold), +1, None, cap
        log_shape = -_exp(2.0 * (math.log(rng) + log_r))  # |K| = cap e^-(range r)^2
    if not 0.0 < k0 < math.inf:
        raise DomainError(f"field scale {k0} of {form!r} is not a positive float")
    init = math.exp(min(max(math.log(k0) + log_shape, _LOG_LO), _LOG_HI))
    return _FieldTerm(spring, weight, sense, offset, init, power)


def _newton_max(
    f: Callable[[float], float],
    field: _FieldTerm,
    base: float,
    mu: float,
    qq: float,
    t: float,
    barrier_max: bool = False,
) -> tuple[float, float] | None:
    """Maximum of f along one power-law field, by Newton steps from the field t.

    Along the field the mass f is weight offset(t) + qq sqrt(2 s / mu) plus a
    constant, with s = base + spring t; the caller starts t inside the kinetic
    barrier s > 0, and a start past it is refused. The steps run in u = ln t:
    since offset = scale (t/mag)^power, its first and second u-derivatives are
    power offset and power^2 offset; those of the kinetic root
    K = qq sqrt(2 s / mu) are K r and K r (1 - r), with r = spring t / (2 s).
    Every iterate must give finite values and a negative second derivative;
    steps are clamped to _NEWTON_STEP, and the run converges once a step is
    at most _NEWTON_TOL. A step that would cross the barrier s = 0 is
    refused, unless barrier_max: then it goes to the last float inside the
    barrier instead; where the step from there again points across, the
    maximum lies within float spacing of the barrier (the kinetic root is too
    small there to hold it off at the float's precision) and the run
    converges at that float, and where it points back inside, the run is
    refused. The point it converges to is accepted if f is finite there and
    at u -/+ _NEWTON_DELTA, and not below either neighbour (the neighbour
    past the barrier left out): three evaluations, two at the barrier.
    Returns t and f there, or None where a safeguard fails, _NEWTON_ITERS
    steps do not converge or the point is refused.
    """
    c, power = field.spring, field.power
    u = math.log(t)
    t = math.exp(u)
    weight_power, two_over_mu = field.weight * power, 2.0 / mu
    at_barrier = False
    for _ in range(_NEWTON_ITERS):
        if not _LOG_LO <= u <= _LOG_HI:
            return None
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
        t_next = math.exp(u + du)
        if not base + c * t_next > 0.0:  # the step crosses the barrier
            if not barrier_max:
                return None
            if at_barrier:
                break
            # the last float inside: t* = -base / c, moved by whole floats
            t, toward = -base / c, (math.inf if c > 0.0 else 0.0)
            while not base + c * t > 0.0:
                t = math.nextafter(t, toward)
            u, at_barrier = math.log(t), True
            continue
        if at_barrier:
            return None
        u += du
        t = t_next
        if -_NEWTON_TOL <= du <= _NEWTON_TOL:
            break
    else:
        return None
    g = _log_objective(f, -1)
    lo, hi = u - _NEWTON_DELTA, u + _NEWTON_DELTA
    if not _LOG_LO <= lo < hi <= _LOG_HI:
        return None
    value = f(t)
    gu = -value if math.isfinite(value) else math.inf
    if not (  # the neighbour past the barrier is left out
        gu < math.inf
        and (at_barrier and c > 0.0 or gu <= g(lo) < math.inf)
        and (at_barrier and c < 0.0 or gu <= g(hi) < math.inf)
    ):
        return None
    return t, value


def numeric_afm_minimize(
    spec: SystemSpec,
    q: QuantumNumbers,
    max_evals: int = 100_000,
) -> float:
    """Extremal mass of the three-field function, found without closed forms.

    The function
    M = N/2 (mu + m^2/mu) + N [V(I(nu)) - nu I^2] + N(N-1)/2 [Vbar(...)]
      + sqrt(2 (nu + N nubar) / mu) Q
    is extremized by nested line searches in the logs of one coordinate
    vector x: x[0] is mu and x[j + 1] is field j. Quadratic terms pin their
    field to the spring constant and get no coordinate; nonrelativistic
    kinematics pins x[0] to the particle mass. The index list maxs holds the
    fields whose stationary point is a maximum (repulsive or convex power
    terms); they are solved innermost. The list mins holds the rest, mu first
    when it is free, then the min-sense fields; they are cyclically
    minimized by Brent's method until two passes in a row change the mass by
    at most 1e-12 max(|M|, N m), alike at every length scale (r -> r/s takes
    m to s m and M to s M). Each innermost maximum is found by safeguarded
    Newton steps on the analytic derivatives of M along that field; the point
    they converge to is accepted when M there is not below M 2.5e-7 away in
    the log on either side, three mass evaluations in all. A lone max-sense
    field whose maximum lies closer to the kinetic barrier than float
    spacing settles at the barrier's last float inside, checked on its one
    inner side. Where that is refused, Brent's search from a grown bracket
    runs instead. Every mass evaluation counts toward max_evals.

    All of this runs at unit scale: on rescale(spec, k), every length times
    2^k, with k the rounded median of log2 of the spec's mass scales (m, and
    per term the inverse of the length where it balances the kinetic
    energy), clamped so that every rescaled input, and a gaussian well's
    curvature depth range_^2, keeps |log2| <= 511; the mass returned is 2^k
    times that of the rescaled spec. Where the clamp does not bind, a spec
    with every length times 2^j gives exactly 2^-j times the mass; where it
    binds, the solve runs at the nearest allowed k. mu starts at
    sqrt(m^2 + Q) and each field at |K(r)| = |V'(r) / 2r|, its stationary
    value, with r its own term's balance radius (1 where it has no scale),
    clamped into [e^-700, e^700].

    M is finite only inside the kinetic barrier s = nu + N nubar > 0: along a
    max-sense field of spring c, on one side of t* = -(s - c t) / c. Before
    Newton or Brent runs, a field on the other side moves to t*/2 (c < 0) or
    2 t* (c > 0). A start whose mass is still not finite raises
    UnboundedBelow: with one term per scope, s stays <= 0 only where a term
    -|a| r^lam with lam >= 2 outgrows every other, so the potential falls
    without bound. The searches stay in [e^-700, e^700] and only search; a
    settled point raises it too where it is a boundary, not a stationary
    point: where the log of a searched coordinate lies within 4e-9 (four
    line-search widths) of that range's edge, or M is not finite 4e-9 away
    in the log along a coordinate in mins. Deterministic.
    """
    validate(spec, q)
    if not spec.terms:
        raise UnsupportedCombination("need at least one potential term")
    k, scales = _unit_scale(spec)
    radii = [0.0 if scale is None else k - scale for scale in scales]
    return _finite(_times_pow2(_extremize(rescale(spec, k), q, max_evals, radii), k))


def _extremize(spec: SystemSpec, q: QuantumNumbers, max_evals: int, radii: list[float]) -> float:
    """numeric_afm_minimize at the spec's own scale; radii: log2 of each term's balance radius."""
    n = spec.n
    m = spec.identical_mass
    qq = q.q
    semirel = spec.kinematics is Kinematics.SEMIRELATIVISTIC

    # s = nu + N nubar is s0, the springs of the pinned quadratic terms, plus
    # each field times its spring; with at most one term per scope, this sums
    # the same floats as nu + N nubar
    s0 = 0.0
    field_terms: list[_FieldTerm] = []
    for term, log2_r in zip(spec.terms, radii):
        form = term.form
        if isinstance(form, PowerLaw) and form.exponent == 2.0:
            s0 += form.coefficient * (n if term.scope is Scope.PAIRWISE else 1)
        else:
            field_terms.append(_field_term(term, n, log2_r))

    evals = [0]

    def mass(x: list[float]) -> float:
        evals[0] += 1
        if evals[0] > max_evals:
            raise NonConvergence(f"evaluation budget {max_evals} exhausted")
        s = s0
        mu = x[0]
        total = n * m if not semirel else n / 2.0 * (mu + m * m / mu)
        for ft, t in zip(field_terms, x[1:]):
            s += ft.spring * t
            total += ft.weight * ft.offset(t)
        if s <= 0.0:
            return math.inf
        # one root per factor: a float wherever sqrt(2 s / mu) is
        return total + math.sqrt(2.0) * math.sqrt(s) / math.sqrt(mu) * qq

    # x[0] is mu, pinned to m for nonrelativistic kinematics; x[j + 1] is field j
    x = [math.sqrt(m * m + qq) if semirel else m] + [ft.init for ft in field_terms]

    maxs = [j for j, ft in enumerate(field_terms, 1) if ft.sense < 0]
    mins = ([0] if semirel else []) + [j for j, ft in enumerate(field_terms, 1) if ft.sense > 0]
    steps = [_STEP_MAX] * len(x)

    def search(f: Callable[[float], float], x0: float, sense: int, k: int) -> float:
        xk, move = _extremize_log_line(f, x0, sense, steps[k])
        steps[k] = min(max(_WARM_GROWTH * move, _STEP_MIN), _STEP_MAX)
        return xk

    def hull(x_: list[float]) -> float:
        """Resolve the max-sense fields for fixed minimized coordinates (in place).

        Each is a power-law field, first moved inside the kinetic barrier:
        Newton steps on the mass along it (_newton_max), or where they are
        refused the derivative-free search from the same start. A maximum
        within float spacing of the barrier is taken only for a lone
        max-sense field: with two, each can stop at the barrier given the
        other, a point of the sweep that is no joint maximum, since moving
        both along s = 0 raises M. Returns the mass at the resolved fields.
        """
        value = None
        for j in maxs:

            def fj(t: float, j=j) -> float:
                prev = x_[j]
                x_[j] = t
                v = mass(x_)
                x_[j] = prev
                return v

            ft = field_terms[j - 1]
            base = s0 + sum(
                fk.spring * t for k, (fk, t) in enumerate(zip(field_terms, x_[1:]), 1) if k != j
            )
            t_star = -base / ft.spring  # the kinetic barrier s = 0 along this field
            if base + ft.spring * x_[j] <= 0.0 and t_star > 0.0:
                x_[j] = 0.5 * t_star if ft.spring < 0.0 else 2.0 * t_star
            found = _newton_max(fj, ft, base, x_[0], qq, x_[j], len(maxs) == 1)
            x_[j], value = found or (search(fj, x_[j], -1, j), None)
        return mass(x_) if value is None else value

    def interior() -> bool:
        """No boundary: searched logs lie w inside the range, and M is finite w off x along mins."""
        w = 4.0 * _LINE_TOL  # just past a line search's resolution
        if not all(_LOG_LO + w <= math.log(x[k]) <= _LOG_HI - w for k in mins + maxs):
            return False
        rs = (math.exp(-w), math.exp(w))
        return all(math.isfinite(hull(x[:k] + [x[k] * r] + x[k + 1 :])) for k in mins for r in rs)

    cur = hull(x)
    if not math.isfinite(cur):
        raise UnboundedBelow("no max-sense field lifts the start above the kinetic barrier")
    small_steps = 0
    for _ in range(120):
        prev = cur
        for k in mins:

            def fk(t: float, k=k) -> float:
                scratch = list(x)
                scratch[k] = t
                return hull(scratch)

            x[k] = search(fk, x[k], +1, k)
        cur = hull(x)
        if abs(prev - cur) <= _PASS_TOL * max(abs(cur), n * m):
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


def log_pair_moment_power(gamma: float, eta: float) -> float:
    """ln <r^eta> over the pair density r^2 exp(-gamma r^2), for eta > -3."""
    return math.lgamma((3.0 + eta) / 2.0) - math.lgamma(1.5) - eta / 2.0 * math.log(gamma)


def gaussian_trial_bound(spec: SystemSpec) -> float:
    """Variational ground-state bound from exp(-kappa sum r_ij^2) trial states.

    For N identical nonrelativistic particles with one pairwise term the
    expectation E(kappa) is analytic: the kinetic part is a kappa, with
    a = 3 N (N-1) / (2m), and every pair sees the density
    r^2 exp(-kappa N r^2). The least E over kappa > 0 bounds the exact
    ground-state internal energy (rest mass excluded) from above; it is
    taken without a search over kappa:

    - A power law c sgn(eta) r^eta adds b kappa^p, with p = -eta/2 and
      b = N(N-1)/2 c sgn(eta) <r^eta>, a Gamma-function moment. For c > 0,
      E is least at kappa* = (-b p / a)^(1/(1-p)), where it is
      (1 + 2/eta) a kappa*; kappa* is formed in logs. For c = 0 the bound
      is 0. No energy is evaluated.
    - A gaussian well -depth exp(-beta^2 r^2) gives, in t = ln w with
      w = beta^2 / (N kappa + beta^2), E = A expm1(-t) - D (-expm1(t))^1.5,
      with A = 3 (N-1) beta^2 / (2m) and D = N(N-1)/2 depth. E has one
      interior minimum; it solves w^2 sqrt(1 - w) = 2A / (3D) =: c with
      w < 4/5, so w >= sqrt(c). One Brent search over
      [ln(c)/2 - 1, ln(4/5)] finds it, and the bound is min(0, E there):
      0 where the trial family holds no bound state.

    The quadratic pair potential is reproduced exactly since the trial family
    then contains the true ground state. Solved at unit scale, so the bound
    is scale covariant: with every length times 2^j it is 2^-j times the
    bound (where the clamp on k does not bind). A bound past the float range
    raises NumericalError.
    """
    validate(spec, QuantumNumbers.ground(spec.n))
    if spec.kinematics is not Kinematics.NONRELATIVISTIC:
        raise UnsupportedCombination("trial bound is nonrelativistic only")
    if spec.one_body or len(spec.pairwise) != 1:
        raise UnsupportedCombination("trial bound needs exactly one pairwise term")
    k, _ = _unit_scale(spec)
    spec = rescale(spec, k)
    n = spec.n
    m = spec.identical_mass
    npair = n * (n - 1) / 2.0
    form = spec.pairwise[0].form

    if isinstance(form, PowerLaw):  # validate admits c >= 0 and -2 < eta != 0 here
        coef, eta = form.coefficient, form.exponent
        if not coef:
            return 0.0
        # -b p / a = c m |eta| / 6 <r^eta> with the moment at gamma = N; a = 3 N(N-1) / (2m)
        log_ratio = math.log(coef) + math.log(m) + math.log(abs(eta) / 6.0)
        kappa = _exp((log_ratio + log_pair_moment_power(n, eta)) / (1.0 + eta / 2.0))
        bound = (1.0 + 2.0 / eta) * 3.0 * npair * (kappa / m)
    else:  # a gaussian well: validate admits no third form
        # E / D in t = ln w; below the least normal c, E / D is -1 to the last digit
        rng = form.range_
        c = max(2.0 * (rng / m) * (rng / form.depth) / n, _FLOAT_MIN)

        def energy(t: float) -> float:
            return 1.5 * c * math.expm1(-t) - (-math.expm1(t)) ** 1.5

        # the minimum has w >= sqrt(c); one fixed-point step of w = sqrt(c) (1-w)^-1/4 starts it
        log_w, hi = 0.5 * math.log(c), math.log(0.8)
        t = min(log_w - 0.25 * math.log1p(-min(math.sqrt(c), 0.8)), hi)
        least = _brent_min(energy, min(log_w - 1.0, hi), t, energy(t), hi)[1]
        bound = min(0.0, least) * form.depth * npair
    return _finite(_times_pow2(bound, k), "bound")
