"""Generic auxiliary field method for N identical particles.

Each potential term V(r) is replaced by a tunable quadratic nu * r^2 plus the
field-dependent offset V(I(nu)) - nu I(nu)^2, where K(r) = V'(r) / (r^2)' and
I = K^(-1). With identical particles the optimal fields coincide term by term,
everything collapses to a single positive scale X0 = sqrt(2 mu0 (nu0 + N
nubar0)), and the mass follows from one scalar equation for X0. Closed forms
for specific interactions live in dedicated functions; afm_mass has no
closed-form branch and always solves the X0 equation numerically, so the two
routes stay independent checks of each other. equal_power_mass hands massive
semirelativistic specs at exponents 1 and 2 to the named closed forms
linear_mass and ho.srho_mass, and a spec to afm_mass only where it has no
closed form: massive kinematics at exponents outside {-1, 1, 2}, or a massive
amplitude that is not a positive float.

The scale equation has one solver for every spec: in t' = -ln r_one^2 it is a
sum of terms s exp(a + e t' - c e^(-t')), whose roots _isolate counts and
brackets by Rolle's theorem, so no root is left to a scan.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import (
    DomainError,
    NonPositiveSlope,
    NoPositiveRoot,
    SingularMasses,
    UnsupportedCombination,
    UnsupportedForm,
    require_finite,
)
from .model import (
    AFMSolution,
    BoundCharacter,
    GaussianWell,
    Kinematics,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    _exp,
    _ratio,
    _tangency_radii,
    validate,
)
from .special import cubic_root

_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)
_T_MIN = math.log(math.ulp(0.0))  # t = ln X0 of the least positive float
_T_MAX = math.log(sys.float_info.max)
_STEP = 0.5 * math.log(10.0)  # half a decade of X0: first bracketing step
_TOLERANCE = 1e-12  # _zero's bracket width in t: a relative width in X0
# (e, sign, ln magnitude, ln c): the term sign exp(ln magnitude + e t' - c e^(-t'))
_Term = tuple[float, float, float, float]


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


def _zero(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """Root of f by Brent's zero (1973, ch. 4) on [a, b] in t = ln X0 + const.

    fa and fb differ in sign; either may be infinite. A bracket width in t is
    a relative width in X0, so Brent stops once its bracket is at most
    _TOLERANCE wide, or as narrow as the float spacing of t allows. The mass
    is stationary in X0, so its error is of the order of the square of that
    width: far below one unit in its last place.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(2.0 * _EPS * max(1.0, abs(b)), 0.5 * _TOLERANCE)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
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


def _merge(terms: list[_Term]) -> list[_Term]:
    """Sum terms of equal (e, ln c); sort by (e, ln c)."""
    merged: dict[tuple[float, float], tuple[float, float]] = {}
    for e, s, l, lc in terms:
        key = (e, lc)
        if key not in merged:
            merged[key] = (s, l)
            continue
        s0, l0 = merged.pop(key)
        if l < l0:
            s, l, s0, l0 = s0, l0, s, l
        d = l0 - l  # s e^l + s0 e^l0 = s e^l (1 + s s0 e^d), d <= 0
        if s == s0:
            merged[key] = (s, l + math.log1p(math.exp(d)))
        elif d < 0.0:
            merged[key] = (s, l + math.log(-math.expm1(d)))
    return [(e, s, l, lc) for (e, lc), (s, l) in sorted(merged.items())]


def _field_terms(spec: SystemSpec) -> list[_Term]:
    """The field sum F = K(r_one) + N Kbar(r_pair) as terms in t' = -ln r_one^2.

    A term (e, s, a, ln c) is s exp(a + e t' - c e^(-t')) (_Term). With
    r_one^2 = e^(-t') and r_pair^2 = rho e^(-t'), rho = 2N / (N-1), a power
    law gives e = 1 - lam/2 and c = 0, and a gaussian well e = 0 and
    c = range^2 rho; a is finite for every finite coefficient and exponent.
    """
    n = spec.n
    log_rho = math.log(2.0 * n / (n - 1))
    out = []
    for term in spec.terms:
        form = term.form
        if isinstance(form, GaussianWell):  # pairwise only
            l_r2 = 2.0 * math.log(form.range_)
            out.append((0.0, 1.0, math.log(n) + math.log(form.depth) + l_r2, l_r2 + log_rho))
        elif form.coefficient != 0.0:
            lam = form.exponent
            a = math.log(abs(form.coefficient)) + math.log(abs(lam)) - _LN2
            if term.scope is Scope.PAIRWISE:
                a += math.log(n) + 0.5 * (lam - 2.0) * log_rho
            out.append((1.0 - 0.5 * lam, math.copysign(1.0, form.coefficient), a, -math.inf))
    return out


def _softplus(x: float) -> float:
    """ln(1 + e^x) without overflow; 0 at x = -inf."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _part_logs(terms: list[_Term], tp: float) -> list[float]:
    """ln of the positive and of the negative part of a sum of terms at t' = tp."""
    parts = []
    for sign in (1.0, -1.0):
        xs = [a + e * tp - _exp(lc - tp) for e, s, a, lc in terms if s == sign]
        top = max(xs, default=-math.inf)
        if len(xs) > 1 and math.isfinite(top):
            top += math.log(sum([math.exp(x - top) for x in xs]))
        parts.append(top)
    return parts


def _slope(terms: list[_Term]) -> list[_Term]:
    """Terms of the derivative in t' of a sum: each term times e + c e^(-t')."""
    out = []
    for e, s, a, lc in terms:
        if e != 0.0:
            out.append((e, s if e > 0.0 else -s, a + math.log(abs(e)), lc))
        if lc > -math.inf:
            out.append((e - 1.0, s, a + lc, lc))
    return out


def _switch_point(terms: list[_Term]) -> float:
    """Where the largest term of the leading sign gives way to one of the other.

    terms are sorted by exponent with one sign change; the root lies within
    ln(len(terms)) / (exponent gap) of this point.
    """
    k = next(i for i, term in enumerate(terms) if term[1] != terms[0][1])
    return max(
        min((la - lb) / (eb - ea) for eb, _, lb, _ in terms[k:]) for ea, _, la, _ in terms[:k]
    )


def _bracket(
    f: Callable[[float], float],
    t: float,
    ft: float,
    direction: float,
    span: tuple[float, float],
) -> tuple[float, float, float, float] | None:
    """Step from t with doubling steps until f changes sign: (a, b, f(a), f(b)).

    None when the walk leaves span, the float range of X0, first.
    """
    step = _STEP
    while True:
        nxt = min(max(t + direction * step, span[0]), span[1])
        fn = f(nxt)
        if fn == 0.0 or (fn > 0.0) != (ft > 0.0):
            return t, nxt, ft, fn
        if nxt in span:
            return None
        t, ft = nxt, fn
        step *= 2.0


def _polish(
    f: Callable[[float], float],
    splits: list[tuple[float, float]],
    signs: tuple[float, float],
    span: tuple[float, float],
) -> list[float]:
    """Roots of f, ascending, where f is monotone between and beyond the splits.

    splits are points (t', f(t')) in ascending t' within span, and f tends to
    the signs below and above them. Each piece whose ends differ in sign holds
    one root; an outer piece is walked with _bracket when its sign at infinity
    differs, and its root reads as -inf or inf past span.
    """
    roots = [t for t, ft in splits if ft == 0.0]
    for (a, fa), (b, fb) in zip(splits, splits[1:]):
        if fa and fb and (fa > 0.0) != (fb > 0.0):
            roots.append(_zero(f, a, b, fa, fb))
    for (t, ft), sign, direction in zip((splits[0], splits[-1]), signs, (-1.0, 1.0)):
        if ft and (ft > 0.0) != (sign > 0.0):
            bracket = _bracket(f, t, ft, direction, span)
            beyond = direction * math.inf
            roots.append(beyond if bracket is None else _zero(f, *bracket))
    return sorted(roots)


def _isolate(terms: list[_Term], span: tuple[float, float]) -> list[float]:
    """Roots t' of a sum of terms, ascending; -inf or inf past span.

    Rolle's theorem counts them, as in the proof of Descartes' rule for real
    exponents (Jameson, Math. Gazette 90 (2006) 223; Polya-Szego II, Part V):
    divided by one of its plain terms (c = 0), the sum has the same roots, and
    its derivative, a sum of the same kind with one plain term fewer, vanishes
    between any two of them. The divisor is the plain term of least |e|, so
    that no huge exponent absorbs the others when it is subtracted from them.
    The derivative's roots, found the same way, split t' into pieces on which
    the sum is monotone; a sum left with no plain term drops its common factor
    e^(-c e^(-t')) > 0, and a plain sum with one sign change has one root,
    walked to from its switch point.
    """
    terms = _merge(terms)
    if all(lc > -math.inf for *_, lc in terms):
        terms = [(e, s, a, -math.inf) for e, s, a, _ in terms]  # one gaussian: one c
    if len({s for _, s, _, _ in terms}) < 2:
        return []
    plain = [term for term in terms if term[3] == -math.inf]
    if len(plain) == len(terms) and sum(a[1] != b[1] for a, b in zip(terms, terms[1:])) == 1:
        cuts = [_switch_point(terms)]
    else:
        e0, s0, a0, _ = min(plain, key=lambda term: abs(term[0]))
        quotient = [(e - e0, s * s0, a - a0, lc) for e, s, a, lc in terms]
        cuts = _isolate(_slope(quotient), span) or [0.0]

    def residual(tp: float) -> float:
        """Has the sign of the sum at t' = tp: ln P - ln N of its parts."""
        lp, ln = _part_logs(terms, tp)
        return lp - ln if lp != ln else 0.0

    splits = [(t, residual(t)) for t in (min(max(t, span[0]), span[1]) for t in cuts)]
    # plain terms dominate as t' -> -inf, the largest exponent as t' -> inf
    hi = max(terms, key=lambda term: (term[0], term[2]))[1]
    return _polish(residual, splits, (plain[0][1], hi), span)


def _walk_start(a_terms: list[_Term], log_m: float, z: float) -> float:
    """Where the walk to the one root of |u| = 1 starts, for massive kinematics.

    For a one-term A, u^2 - 1 = m^2 A^2 (1 + w) - 1 is a sum of three plain
    terms (_massive_roots has the notation). Where two of them merge, as for
    a Coulomb A (e = -1/2), the switch point of the two left is their root,
    so the walk starts on the root up to rounding; elsewhere it starts at
    w = 1.
    """
    if len(a_terms) == 1:
        e, _, a, lc = a_terms[0]
        l2 = 2.0 * (a + log_m)  # ln (m A)^2 at t' = 0
        terms = _merge(
            [(2.0 * e, 1.0, l2, lc), (2.0 * e + 1.0, 1.0, l2 + z, lc), (0.0, -1.0, 0.0, lc)]
        )
        if len(terms) == 2 and terms[0][1] != terms[1][1]:
            return _switch_point(terms)
    return -z


def _massive_roots(
    a_terms: list[_Term],
    log_qn: float,
    log_m: float,
    span: tuple[float, float],
) -> list[float]:
    """Roots t' of |u| = 1 with F > 0 for massive semirelativistic kinematics.

    u = mu A with A = 2F / X0^2, a merged power sum, and
    mu = m sqrt(1 + w), w = e^(t' + z), z = 2 ln(Q/N) - 2 ln m. |u| is
    monotone between the roots of F and those of u' = m D / (2 sqrt(1 + w)),
    D = 2 A' (1 + w) + A w, both plain sums isolated as such; u^2 - 1 is never
    expanded, since near a root of F that cancels every digit. Each root is
    polished on the log residual of |u| - 1, which reads -inf at a root of F.
    F's sign on each piece follows from its sign at the low end of span and
    the parity of its roots below, since one can lie below the float range.
    """
    if not a_terms:
        return []
    z = 2.0 * (log_qn - log_m)
    # 2 A' with ln(2 |e|) in one log, so that D's w terms cancel exactly
    # where 2 e + 1 = 0 (a Coulomb A) and leave no false root of D
    slope = [
        (e, s if e > 0.0 else -s, a + math.log(2.0 * abs(e)), lc) for e, s, a, lc in a_terms if e
    ]
    d_terms = slope + [(e + 1.0, s, a + z, lc) for e, s, a, lc in slope + a_terms]
    f_roots = _isolate(a_terms, span)
    zeros = [t for t in f_roots if math.isfinite(t)]

    def u_residual(tp: float) -> float:
        """Has the sign of |u| - 1: ln(mu |P - N|) against ln(mu min(P, N) + 1)."""
        big, small = sorted(_part_logs(a_terms, tp), reverse=True)
        k = log_m + 0.5 * _softplus(tp + z)  # ln mu
        return big + k - _softplus(small + k) if big != small else -math.inf

    cuts = [t for t in _isolate(d_terms, span) + f_roots if t not in zeros]
    if not cuts and not zeros:
        cuts = [_walk_start(a_terms, log_m, z)]  # |u| is monotone throughout
    cuts = [min(max(t, span[0]), span[1]) for t in cuts]
    splits = sorted([(t, -math.inf) for t in zeros] + [(t, u_residual(t)) for t in cuts])
    # |u| -> inf as t' -> -inf; as t' -> inf, |u| ~ e^(ln(Q/N) + a + (e + 1/2) t')
    # for A's top term
    e_top, _, a_top, _ = a_terms[-1]
    hi = 1.0 if e_top == -0.5 and log_qn + a_top > 0.0 else -1.0
    roots = _polish(u_residual, splits, (1.0, hi), span)
    lp, ln = _part_logs(a_terms, span[0])
    f_low = lp > ln  # F > 0 at the low end of span
    return [t for t in roots if not math.isfinite(t) or f_low != sum(r < t for r in zeros) % 2]


def _scale_roots(spec: SystemSpec, qq: float) -> list[float]:
    """Positive roots X0 of the scale equation, ascending.

    The equation reads u = 1 with u = 2 mu F / X0^2, in t' = ln(X0 N / Q).
    For nonrelativistic (mu = m) and massless (mu = sqrt(Q X0 / N)) kinematics
    u - 1 is a sum of terms, isolated by _isolate; massive kinematics takes
    _massive_roots. Each root is polished in t' to _TOLERANCE and returned
    as X0 = e^(t' + ln(Q/N)). Roots that all lie outside the float range of
    X0 raise DomainError.
    """
    n, m = spec.n, spec.identical_mass
    log_qn = math.log(qq / n)
    relativistic = spec.kinematics is Kinematics.SEMIRELATIVISTIC
    # X0^2 = e^(2 t' + 2 ln(Q/N)); massless mu = e^((t' + 2 ln(Q/N)) / 2)
    if relativistic and m > 0.0:
        de, da = -2.0, _LN2 - 2.0 * log_qn
    elif relativistic:
        de, da = -1.5, _LN2 - log_qn
    else:
        de, da = -2.0, _LN2 + math.log(m) - 2.0 * log_qn
    u_terms = [(e + de, s, a + da, lc) for e, s, a, lc in _field_terms(spec)]
    span = (_T_MIN - log_qn, _T_MAX - log_qn)  # the float range of X0 in t'
    if relativistic and m > 0.0:
        roots = _massive_roots(_merge(u_terms), log_qn, math.log(m), span)
    else:
        roots = _isolate(u_terms + [(0.0, -1.0, 0.0, -math.inf)], span)
    inside = [t for t in roots if math.isfinite(t)]
    if roots and not inside:
        raise DomainError("the scale equation's roots lie outside the float range of X0")
    return [math.exp(t + log_qn) for t in inside]


def afm_mass(spec: SystemSpec, q: QuantumNumbers) -> AFMSolution:
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
    Every root is isolated with a certified count (_scale_roots: Rolle's
    theorem on the equation as a sum of exponential terms) and polished by
    Brent's zero in ln X0 until its bracket is at most 1e-12 wide relative
    to X0, or as narrow as the float spacing of ln X0 allows. The mass is
    stationary in X0, so that width moves it by about its square: one
    precision serves every spec. A non-finite mass raises NumericalError,
    and roots that all lie outside the float range raise DomainError.
    """
    validate(spec, q)
    if not spec.terms:
        raise UnsupportedCombination("need at least one potential term")
    qq = q.q
    roots = _scale_roots(spec, qq)
    if not roots:
        raise NoPositiveRoot("the auxiliary-scale equation has no positive root")
    candidates = [(_binding_at_x0(spec, qq, r), r) for r in roots]
    binding, x0 = min([c for c in candidates if math.isfinite(c[0])] or candidates)
    mass = spec.n * spec.identical_mass + binding
    bound = BoundCharacter.of(spec.kinematics, [t.form for t in spec.terms])
    return AFMSolution.at_scale(spec.n, spec.identical_mass, qq, x0, mass, bound)


def _extract_equal_powers(spec: SystemSpec) -> tuple[float, float, float]:
    """(a, b, lam) from a one-body and/or pairwise power-law system.

    A validated spec has a power law as its one-body term, if any; only the
    pairwise term can be a gaussian well.
    """
    a = b = 0.0
    lams = set()
    if spec.one_body:
        form = spec.one_body[0].form
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
    equation is algebraic for lam in {-1, 1, 2}: lam = 1 and 2 are handed to
    linear_mass and ho.srho_mass, and lam = -1 gives
    M = N m sqrt(1 - C^2 Q / N). Other exponents, and an amplitude C that is
    not a positive float, take the numeric solve of afm_mass.
    """
    validate(spec, q)
    a, b, lam = _extract_equal_powers(spec)
    n = spec.n
    m = spec.identical_mass
    qq = q.q
    bound = BoundCharacter.of(spec.kinematics, [t.form for t in spec.terms])

    # C = a |lam| (N/Q)^((2-lam)/2) + b |lam| N ((N-1)/(2Q))^((2-lam)/2)
    half = 0.5 * (2.0 - lam)
    log_lam = math.log(abs(lam))
    amplitude = _merge(
        [
            (0.0, math.copysign(1.0, coef), math.log(abs(coef)) + log_lam + log_base, -math.inf)
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
        if lam == 1.0:
            return linear_mass(n, m, a, b, qq)
        if lam == 2.0:
            from .ho import srho_mass  # solve and verify never load ho

            return srho_mass(n, m, a, b, qq)
        # lam = -1: X0 = (C m)^2 / (1 - C^2 Q / N), M = N m sqrt(1 - C^2 Q / N)
        frac = c * c * qq / n
        if frac >= 1.0:
            raise NoPositiveRoot("attraction beyond the collapse threshold")
        x0 = (c * m) * (c * m) / (1.0 - frac)
        return AFMSolution.at_scale(n, m, qq, x0, n * m * math.sqrt(1.0 - frac), bound)
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
    return AFMSolution.at_scale(n, m, qq, _exp(log_x0), mass, bound)


def linear_mass(n: int, m: float, a: float, b: float, q: float) -> AFMSolution:
    """Semirelativistic mass for linear confinement, one-body and/or pairwise.

    The two slopes combine into c = a + b sqrt(N(N-1)/2); eliminating the
    fields leaves the cubic x^3 - 3x - 2Y = 0 with Y = 3^(3/2) N m^2 / (2Qc)
    and root F, so X0 = c F / sqrt(3) and M = sqrt(NQcF / 3^(3/2)) (F + 3/F)
    (_linear_cubic). m enters only through Y: m = 0 is its Y = 0 end,
    F = sqrt(3), the linear trajectory M^2 = 4NcQ.
    """
    require_finite(n=n, m=m, a=a, b=b, q=q)
    c = a + b * math.sqrt(n * (n - 1) / 2.0)
    if c <= 0.0:
        raise NonPositiveSlope(f"combined slope {c} <= 0")
    if m < 0.0:
        raise SingularMasses(f"mass must be non-negative, got {m}")
    mass, froot = _linear_cubic(n, m, c, q)
    bound = BoundCharacter.of(Kinematics.SEMIRELATIVISTIC, (PowerLaw(a, 1.0), PowerLaw(b, 1.0)))
    return AFMSolution.at_scale(n, m, q, c * froot / math.sqrt(3.0), mass, bound)


def _linear_cubic(weight: float, m: float, c: float, q: float) -> tuple[float, float]:
    """linear_mass's M and F, weight in place of N: r = m / t with t = sqrt(Q c / weight).

    t and the factor weight t of M take their roots one factor at a time. Where
    Y overflows, F = sqrt(3) x^2 with x^3 = r, and cubic_root(r / 2) is x to 1e-100.
    """
    root_q, root_c = math.sqrt(q), math.sqrt(c)
    r = _ratio(m, root_q / math.sqrt(weight) * root_c)
    y = 0.5 * 3.0**1.5 * r * r
    froot = cubic_root(y) if y < math.inf else 3.0**0.5 * cubic_root(0.5 * r) ** 2
    scale = math.sqrt(weight) * root_q * root_c
    return scale * (math.sqrt(froot / 3.0**1.5) * (froot + 3.0 / froot)), froot
