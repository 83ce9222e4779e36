"""Generic auxiliary field method for N identical particles.

Each potential term V(r) is replaced by a tunable quadratic nu * r^2 plus the
field-dependent offset V(I(nu)) - nu I(nu)^2, where K(r) = V'(r) / (r^2)' and
I = K^(-1). With identical particles the optimal fields coincide term by term,
everything collapses to a single positive scale X0 = sqrt(2 mu0 (nu0 + N
nubar0)), and the mass follows from one scalar equation for X0. Closed forms
for specific interactions live in dedicated functions; afm_mass has no
closed-form branch and always solves the X0 equation numerically, so the two
routes stay independent checks of each other. equal_power_mass hands a spec to
afm_mass only where it has no closed form: massive kinematics at exponents
outside {-1, 1, 2}, or a massive amplitude that is not a positive float.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import (
    DomainError,
    NonPositiveSlope,
    NoPositiveRoot,
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
    _exp,
    _tangency_radii,
    validate,
)
from .special import cubic_root, quartic_root

_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)
_T_MIN = math.log(math.ulp(0.0))  # t = ln X0 of the least positive float
_T_MAX = math.log(sys.float_info.max)
_STEP = 0.5 * math.log(10.0)  # half a decade of X0: first bracketing step
_T_FLOOR = 4.0 * _EPS * -_T_MIN  # _zero's floor 4 eps max(1, |t|) at its widest


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


def _binding_at_x0(spec: SystemSpec, q: float, x0: float) -> float:
    """Binding E = M - N m of the AFM mass at the scale X0.

    The kinetic part is Q X0 / (2m) (NR) or N (mu - m) = Q X0 / (mu + m)
    with mu = sqrt(m^2 + Q X0 / N) (SR), so no rest mass swamps it. Both
    parts are formed in quarters and summed before they are scaled back, so
    neither overflows on its own where their sum is finite.
    """
    n = spec.n
    m = spec.identical_mass
    r1, r2 = _tangency_radii(n, q, x0)
    quarter = 0.0
    if spec.one_body:
        quarter += 0.25 * n * spec.one_body[0].evaluate(r1)
    if spec.pairwise:
        quarter += 0.125 * n * (n - 1) * spec.pairwise[0].evaluate(r2)
    if spec.kinematics is Kinematics.SEMIRELATIVISTIC:
        p = math.sqrt(q / n) * math.sqrt(x0)  # mu^2 - m^2 = p^2
        quarter += 0.25 * n * p * (p / (math.hypot(m, p) + m))
    else:
        quarter += 0.125 * q * x0 / m
    return 4.0 * quarter


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


def _zero(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fb: float,
    tolerance: float,
    h: Callable[[float], float] | None,
) -> float:
    """Root X0 = e^t of f by Brent's zero (1973, ch. 4) on [a, b] in t = ln X0.

    fa and fb differ in sign, or a = b and fa = fb = 0 for an exact zero. A
    bracket width in t is a relative width in X0, so Brent stops once its
    bracket is at most tolerance wide, or as narrow as the float spacing of t
    allows, 4 eps max(1, |t|) wide. A tolerance below that floor goes on with
    _bisect on h, if given, which has the sign of f as a function of X0, from
    the best point widened by that floor either side, down to adjacent floats.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(2.0 * _EPS * max(1.0, abs(b)), 0.5 * tolerance)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            floor = 4.0 * _EPS * max(1.0, abs(b))
            if h is None or floor <= tolerance:
                return math.exp(b)
            return _bisect(h, math.exp(b), math.exp(b - floor), math.exp(b + floor), tolerance)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _bisect(
    h: Callable[[float], float], x: float, a: float, b: float, tolerance: float
) -> float:
    """Root of h on [a, b] by bisection in X0.

    Stops once the bracket is at most tolerance wide relative to its upper end,
    or at adjacent floats; returns x where h shows no sign change on [a, b].
    """
    fa, fb = h(a), h(b)
    if a == 0.0 or not (math.isfinite(fa) and math.isfinite(fb)):
        return x
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa > 0.0) == (fb > 0.0):
        return x
    while (b - a) > tolerance * b:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break  # adjacent floats: no finer bracket exists
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fa > 0.0) == (fm > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _solve_x0_roots(
    h: Callable[[float], float], scales: list[float], tolerance: float
) -> list[float]:
    """All positive roots of h by a log-grid scan.

    The grid runs from min(scales) 1e-10 to max(scales) 1e10, clamped to the
    normal floats [DBL_MIN, DBL_MAX] (all of them when no scale is given), at
    24 points per decade; each sign change is polished by _zero in t = ln X0.
    """
    lo = max(min(scales, default=0.0) * 1e-10, sys.float_info.min)
    hi = min(max(scales, default=math.inf) * 1e10, sys.float_info.max)
    span = hi / lo  # inf only for a window wider than 308 decades
    decades = math.log10(span) if span < math.inf else math.log10(hi) - math.log10(lo)
    points = max(int(decades * 24), 48) + 1
    ratio = span ** (1.0 / (points - 1)) if span < math.inf else 10.0 ** (decades / (points - 1))

    def h_of_t(t: float) -> float:
        return h(math.exp(t))

    roots = []
    x_prev = lo
    h_prev = h(x_prev)
    x = lo
    for _ in range(points - 1):
        x = min(x * ratio, hi)
        h_cur = h(x)
        if h_prev == 0.0:
            roots.append(x_prev)
        elif (h_prev > 0.0) != (h_cur > 0.0):
            roots.append(_zero(h_of_t, math.log(x_prev), math.log(x), h_prev, h_cur, tolerance, h))
        x_prev, h_prev = x, h_cur
    return roots


def _merge(terms: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """Sum signed terms (exponent, sign, ln magnitude) of equal exponent; sort by exponent."""
    merged: dict[float, tuple[float, float]] = {}
    for e, s, l in terms:
        if e not in merged:
            merged[e] = (s, l)
            continue
        s0, l0 = merged.pop(e)
        if l < l0:
            s, l, s0, l0 = s0, l0, s, l
        d = l0 - l  # s e^l + s0 e^l0 = s e^l (1 + s s0 e^d), d <= 0
        if s == s0:
            merged[e] = (s, l + math.log1p(math.exp(d)))
        elif d < 0.0:
            merged[e] = (s, l + math.log(-math.expm1(d)))
    return [(e, s, l) for e, (s, l) in sorted(merged.items())]


def _power_terms(spec: SystemSpec, qq: float) -> list[tuple[float, float, float]] | None:
    """The field sum F(X0) = sum w X0^p as merged (p, sign w, ln|w|) terms.

    K(r) = coefficient |lam| / 2 r^(lam-2) at r^2 = rho / X0 gives
    p = (2 - lam) / 2. None when a term is not a power law.
    """
    n = spec.n
    out = []
    for term in spec.terms:
        form = term.form
        if not isinstance(form, PowerLaw):
            return None
        coef, lam = form.coefficient, form.exponent
        if coef == 0.0:
            continue
        log_w = math.log(abs(coef)) + math.log(abs(lam)) - _LN2
        if term.scope is Scope.ONE_BODY:
            log_w += 0.5 * (lam - 2.0) * math.log(qq / n)
        else:
            log_w += math.log(n) + 0.5 * (lam - 2.0) * math.log(2.0 * qq / (n - 1))
        if not math.isfinite(log_w):
            return None  # the amplitude's log overflows at a huge exponent
        out.append((1.0 - 0.5 * lam, math.copysign(1.0, coef), log_w))
    return _merge(out)


def _softplus(x: float) -> float:
    """ln(1 + e^x) without overflow; 0 at x = -inf."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _log_sum(terms: list[tuple[float, float]], t: float) -> float:
    """ln of sum e^(a + e t) over (e, a) terms; -inf for none."""
    if not terms:
        return -math.inf
    xs = [a + e * t for e, a in terms]
    top = max(xs)
    if len(xs) == 1:
        return top
    return top + math.log(sum([math.exp(x - top) for x in xs]))


def _sign_changes(terms: list[tuple[float, float, float]]) -> int:
    return sum(a[1] != b[1] for a, b in zip(terms, terms[1:]))


def _switch_point(terms: list[tuple[float, float, float]]) -> float:
    """Where the largest term of the leading sign gives way to one of the other.

    terms are sorted by exponent with one sign change; the root lies within
    ln(len(terms)) / (exponent gap) of this point.
    """
    k = next(i for i, term in enumerate(terms) if term[1] != terms[0][1])
    return max(
        min((la - lb) / (eb - ea) for eb, _, lb in terms[k:]) for ea, _, la in terms[:k]
    )


def _bracket(
    f: Callable[[float], float], t: float, ft: float, direction: float
) -> tuple[float, float, float, float] | None:
    """Step from t with doubling steps until f changes sign: (a, b, f(a), f(b)).

    None when the walk leaves the float range of X0 = e^t first.
    """
    step = _STEP
    while True:
        nxt = min(max(t + direction * step, _T_MIN), _T_MAX)
        fn = f(nxt)
        if fn == 0.0 or (fn > 0.0) != (ft > 0.0):
            return t, nxt, ft, fn
        if nxt in (_T_MIN, _T_MAX):
            return None
        t, ft = nxt, fn
        step *= 2.0


def _power_law_roots(
    spec: SystemSpec, qq: float, f_terms: list[tuple[float, float, float]], tolerance: float
) -> list[float] | None:
    """Roots X0 of the scale equation of a power-law spec; None if not certified.

    In t = ln X0 the scale equation X0^2 = 2 mu F(X0) reads u(t) = 1 with
    u = 2 mu F / X0^2 a sum of signed terms e^(a + e t), times mu / m for
    massive semirelativistic kinematics. Each term is formed in logs, and the
    residual compares the logs of the positive and the negative part, so it is
    finite wherever X0 is. Descartes' rule of signs, which holds for real
    exponents (Jameson, Math. Gazette 90 (2006) 223), bounds the roots by the
    sign changes s of the coefficients, ordered by exponent, of u - 1, or with
    mu = sqrt(m^2 + Q X0 / N) and m > 0 of u^2 - 1 = 4 mu^2 F^2 / X0^4 - 1, whose
    roots with F < 0 are dropped. One sign change is one root; two powers of
    u have one turning point and at most one root on each side of it. Massive
    kinematics with s >= 2 returns None.
    """
    n, m = spec.n, spec.identical_mass
    log_qn = math.log(qq / n)
    massive = spec.kinematics is Kinematics.SEMIRELATIVISTIC and m > 0.0
    if spec.kinematics is Kinematics.SEMIRELATIVISTIC and not massive:
        shift, de = _LN2 + 0.5 * log_qn, -1.5  # u = 2 sqrt(Q / N) F / X0^(3/2)
    else:
        shift, de = _LN2 + math.log(m), -2.0  # u = 2 m F / X0^2 (times mu / m)
    u_terms = [(p + de, s, l + shift) for p, s, l in f_terms]
    if massive:
        log_m2 = 2.0 * math.log(m)
        square = [(0.0, -1.0, 0.0)]
        for i, (pi, si, li) in enumerate(f_terms):
            for j in range(i, len(f_terms)):
                pj, sj, lj = f_terms[j]
                l = 2.0 * _LN2 + li + lj + (_LN2 if j > i else 0.0)
                square.append((pi + pj - 4.0, si * sj, l + log_m2))
                square.append((pi + pj - 3.0, si * sj, l + log_qn))
        count = _merge(square)
    else:
        count = _merge(u_terms + [(0.0, -1.0, 0.0)])
    if not count:
        return None  # u = 1 identically
    if not all(math.isfinite(abs(l) - _T_MIN * abs(e)) for e, _, l in u_terms + count):
        return None  # a term's log a + e t can overflow within the float range of X0
    sign_changes = _sign_changes(count)
    if sign_changes == 0:
        return []
    if massive and sign_changes > 1:
        return None  # no turning-point rule for u^2 - 1: the grid decides
    pos = [(e, a) for e, s, a in u_terms if s > 0.0]
    neg = [(e, a) for e, s, a in u_terms if s < 0.0]
    z0 = log_qn - log_m2 if massive else 0.0

    def u_logs(t: float) -> tuple[float, float]:
        """ln of the positive and of the negative part of u(t)."""
        k = 0.5 * _softplus(t + z0) if massive else 0.0  # ln(mu / m)
        return _log_sum(pos, t) + k, _log_sum(neg, t) + k

    def residual(t: float) -> float:
        """Has the sign of u - 1, or of |u| - 1 for massive kinematics."""
        lp, ln = u_logs(t)  # u = P - N
        if lp >= ln or not massive:
            return lp - _softplus(ln)  # ln P - ln(N + 1)
        return ln - _softplus(lp)  # ln N - ln(P + 1)

    # h finishes a root in X0 where tolerance is below the float spacing of t
    h = _scale_residual(spec, qq) if tolerance < _T_FLOOR else None
    found: list[float] = []
    beyond = False

    def walk(t: float, rt: float, direction: float) -> None:
        nonlocal beyond
        bracket = _bracket(residual, t, rt, direction)
        if bracket is None:
            beyond = True
        else:
            found.append(_zero(residual, *bracket, tolerance, h))

    if sign_changes == 1:
        t0 = min(max(_switch_point(count), _T_MIN), _T_MAX)
        r0 = residual(t0)
        if r0 == 0.0:
            found.append(_zero(residual, t0, t0, r0, r0, tolerance, h))
        else:
            walk(t0, r0, 1.0 if (r0 > 0.0) == (count[0][1] > 0.0) else -1.0)
    else:
        # two powers, s = 2: u' vanishes at most once, at t*; u is monotone
        # on either side, with a root on each side if u(t*) - 1 has the other sign
        (e1, s1, a1), (e2, s2, a2) = [term for term in u_terms if term[0] != 0.0]
        if s1 * e1 * s2 * e2 < 0.0:
            t_star = (a1 - a2 + math.log(abs(e1 / e2))) / (e2 - e1)
            t_star = min(max(t_star, _T_MIN), _T_MAX)
            r_star = residual(t_star)
            if r_star == 0.0:
                found.append(_zero(residual, t_star, t_star, r_star, r_star, tolerance, h))
            elif (r_star > 0.0) != (count[0][1] > 0.0):
                walk(t_star, r_star, -1.0)
                walk(t_star, r_star, 1.0)
    if massive and neg:  # drop the roots of u = -1, where F < 0
        logs = [u_logs(math.log(x)) for x in found]
        found = [x for x, (lp, ln) in zip(found, logs) if lp > ln]
    if not found and beyond:
        raise DomainError("the scale equation's roots lie outside the float range of X0")
    return sorted(found)


def _scale_residual(spec: SystemSpec, qq: float) -> Callable[[float], float]:
    """h(X0) = 2 mu F(X0) / X0 - X0, mu = sqrt(m^2 + Q X0 / N) or m.

    F(X0) = K(r_one) + N Kbar(r_pair) at the tangency radii of X0. h has the
    sign of 2 mu F - X0^2 for X0 > 0, and no X0^2 to overflow into a false
    sign change near sqrt(DBL_MAX); where 2 mu F overflows, F / X0 is formed
    first.
    """
    n, m = spec.n, spec.identical_mass
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

    relativistic = spec.kinematics is Kinematics.SEMIRELATIVISTIC

    def h(x0: float) -> float:
        mu = math.sqrt(m * m + qq * x0 / n) if relativistic else m
        f = field_sum(x0)
        y = 2.0 * mu * f / x0
        if abs(y) == math.inf:
            y = 2.0 * mu * (f / x0)
        return y - x0

    return h


def _scale_roots(spec: SystemSpec, qq: float, tolerance: float) -> list[float]:
    """Positive roots X0 of the scale equation, ascending.

    Power-law specs take the structured solve of _power_law_roots; gaussian
    wells, whose roots have no such bound, and the cases it leaves open scan
    the log grid of _solve_x0_roots.
    """
    f_terms = _power_terms(spec, qq)
    roots = None if f_terms is None else _power_law_roots(spec, qq, f_terms, tolerance)
    if roots is None:
        h = _scale_residual(spec, qq)
        roots = _solve_x0_roots(h, _scale_candidates(spec, qq), tolerance)
    return roots


def afm_mass(
    spec: SystemSpec, q: QuantumNumbers, tolerance: float = 1e-12
) -> AFMSolution:
    """Auxiliary-field mass of an identical-particle system.

    Solves the scale equation
    X0^2 = 2 sqrt(m^2 + Q X0 / N) [K(r_one) + N Kbar(r_pair)] with the
    tangency radii r_one = sqrt(Q/(N X0)), r_pair = sqrt(2Q/((N-1) X0))
    (the square root pinned to m for nonrelativistic kinematics), then
    assembles the binding E = N (mu0 - m) + N V(r_one) + N(N-1)/2 Vbar(r_pair)
    and returns M = N m + E. Accepts at most one term per scope. When several
    positive roots exist (e.g. gaussian wells) the one with the lowest binding
    wins, ties toward smaller X0, so a rest mass that swamps E cannot pick the
    root; a root whose binding leaves the float range loses to any root with
    a finite one.
    Power-law specs find their roots in t = ln X0 with a count certified by
    Descartes' rule of signs (_power_law_roots); gaussian wells, and the
    power-law cases that count leaves open, scan a log grid. Each root is
    polished by Brent's zero in t until its bracket is at most tolerance wide
    relative to X0. A tolerance below the float spacing of t, 4 eps
    max(1, |t|), is met by bisecting in X0 down to adjacent floats, where
    2 mu F / X0 - X0 is a finite float around the root; elsewhere (e.g. where
    F overflows) that spacing is the floor. tolerance must be finite and
    positive (else ValidationError). A non-finite mass raises NumericalError,
    and roots that all lie outside the float range raise DomainError.
    """
    validate(spec, q)
    require_tolerance(tolerance)
    if not spec.terms:
        raise UnsupportedCombination("need at least one potential term")
    qq = q.q
    roots = _scale_roots(spec, qq, tolerance)
    if not roots:
        raise NoPositiveRoot("the auxiliary-scale equation has no positive root")
    candidates = [(_binding_at_x0(spec, qq, r), r) for r in roots]
    binding, x0 = min([c for c in candidates if math.isfinite(c[0])] or candidates)
    mass = spec.n * spec.identical_mass + binding
    return AFMSolution.at_scale(
        spec.n, spec.identical_mass, qq, x0, mass, bound_character(spec)
    )


def _extract_equal_powers(spec: SystemSpec) -> tuple[float, float, float]:
    """(a, b, lam) from a one-body and/or pairwise power-law system."""
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


def equal_power_mass(spec: SystemSpec, q: QuantumNumbers) -> AFMSolution:
    """Closed-form mass when the one-body and pairwise exponents coincide.

    The scale equation collapses to X0^(lam+2) = C^2 (m^2 + Q X0 / N) with
    C the combined amplitude; the mass is then
    (N lam m^2 + Q (lam+1) X0) / (lam sqrt(m^2 + Q X0/N)). Nonrelativistic
    kinematics and the massless limit are closed for every exponent: ln C,
    ln X0 and the log of the mass's binding part are formed from the logs of
    their factors, and X0 and the mass are exponentiated once, past the float
    range as inf (which AFMSolution.at_scale rejects). With a finite mass the
    equation is algebraic for lam in {-1, 1, 2}; other exponents, and an
    amplitude C that is not a positive float, take the numeric solve of
    afm_mass.
    """
    validate(spec, q)
    a, b, lam = _extract_equal_powers(spec)
    n = spec.n
    m = spec.identical_mass
    qq = q.q

    # C = a |lam| (N/Q)^((2-lam)/2) + b |lam| N ((N-1)/(2Q))^((2-lam)/2)
    half = 0.5 * (2.0 - lam)
    log_lam = math.log(abs(lam))
    amplitude = _merge(
        [
            (0.0, math.copysign(1.0, coef), math.log(abs(coef)) + log_lam + log_base)
            for coef, log_base in (
                (a, half * math.log(n / qq)),
                (b, math.log(n) + half * math.log((n - 1) / (2.0 * qq))),
            )
            if coef != 0.0
        ]
    )
    if not amplitude or amplitude[0][1] < 0.0:
        raise NoPositiveRoot("combined amplitude <= 0: no binding")
    log_c = amplitude[0][2]

    if spec.kinematics is Kinematics.SEMIRELATIVISTIC and m > 0.0:
        c = _exp(log_c)
        if lam not in (2.0, 1.0, -1.0) or not 0.0 < c < math.inf:
            return afm_mass(spec, q)
        if lam == 2.0:
            s = (c * c * qq / (2.0 * n)) ** (1.0 / 3.0)
            y = 4.0 * c * c * m * m / (3.0 * s**4)
            x0 = s * quartic_root(y)
        elif lam == 1.0:
            s = c * math.sqrt(qq / (3.0 * n))
            y = c * c * m * m / (2.0 * s**3)
            x0 = s * cubic_root(y)
        else:
            frac = c * c * qq / n
            if frac >= 1.0:
                raise NoPositiveRoot("attraction beyond the collapse threshold")
            x0 = c * c * m * m / (1.0 - frac)
        mass = (n * lam * m * m + qq * (lam + 1.0) * x0) / (
            lam * math.sqrt(m * m + qq * x0 / n)
        )
        return AFMSolution.at_scale(n, m, qq, x0, mass, bound_character(spec))
    if spec.kinematics is Kinematics.NONRELATIVISTIC:
        # X0 = (m C)^g, M = N m + (lam+2)/(2 lam) Q C^g m^(-lam/(lam+2)), g = 2/(lam+2)
        g = 2.0 / (lam + 2.0)
        log_x0 = g * (math.log(m) + log_c)
        rest, factor = n * m, (lam + 2.0) / (2.0 * lam)
        log_binding = math.log(qq) + g * log_c - lam / (lam + 2.0) * math.log(m)
    elif lam == -1.0:
        raise NoPositiveRoot(
            "massless pure inverse-distance systems have no scale; the mass tends to zero"
        )
    else:
        # X0 = (Q C^2 / N)^(1/(lam+1)), M = (lam+1)/lam sqrt(Q N X0)
        log_x0 = (math.log(qq / n) + 2.0 * log_c) / (lam + 1.0)
        rest, factor = 0.0, (lam + 1.0) / lam
        log_binding = 0.5 * (math.log(qq) + math.log(n) + log_x0)
    mass = rest + math.copysign(_exp(math.log(abs(factor)) + log_binding), factor)
    return AFMSolution.at_scale(n, m, qq, _exp(log_x0), mass, bound_character(spec))


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
