import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from auxfield import oracles
from auxfield.engine import afm_mass, equal_power_mass
from auxfield.errors import (
    NoBoundState,
    NonConvergence,
    NoPositiveRoot,
    NumericalError,
    UnboundedBelow,
    UnsupportedCombination,
    ValidationError,
)
from auxfield.ho import ho_energy_identical, srho_mass
from auxfield.model import (
    GaussianWell,
    Identical,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    rescale,
    validate,
)
from auxfield.oracles import (
    OracleReport,
    Verdict,
    _bracket_min,
    _brent_min,
    _extremize_log_line,
    _field_term,
    _newton_max,
    compare,
    compare_ordering,
    gaussian_trial_bound,
    numeric_afm_minimize,
    pair_moment_gaussian,
    pair_moment_power,
)
from auxfield.systems import atomic_mass, baryonic_ur, gaussian_spectrum
from conftest import gaussian_system, ground, power_system, wide_draw

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC


# ---------------------------------------------------------------------------
# oracle reports


def test_compare_verdicts():
    assert compare(1.0, 1.0 + 1e-12, 1e-8).verdict is Verdict.MATCH
    assert compare(1.0, 1.1, 1e-8).verdict is Verdict.VIOLATION
    assert compare_ordering(1.0, 0.5).verdict is Verdict.MATCH
    assert compare_ordering(1.0, 1.5).verdict is Verdict.VIOLATION


def test_report_is_a_slotted_frozen_value():
    report = compare(1.0, 1.0 + 1e-12, 1e-8)
    assert report == compare(1.0, 1.0 + 1e-12, 1e-8)
    assert report != compare(1.0, 1.1, 1e-8)
    assert not hasattr(report, "__dict__")
    with pytest.raises(AttributeError):
        report.tolerance = 1.0


# ---------------------------------------------------------------------------
# line search


def test_brent_min_smooth_function():
    calls = []

    def g(u):
        calls.append(u)
        return math.cosh(u - 0.7)

    x, fx = _brent_min(g, -3.0, 0.0, g(0.0), 3.0)
    # function values resolve the minimum only to ~sqrt(machine epsilon)
    assert x == pytest.approx(0.7, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-15)
    assert len(calls) < 40  # golden section alone needs 47 to reach 1e-9


def test_brent_min_inf_barrier():
    # the barrier covers the true minimum at 2: the search must stop at the
    # barrier's edge and never return an infinite value
    def g(u):
        return math.inf if u > 1.0 else (u - 2.0) ** 2

    x, fx = _brent_min(g, -3.0, 0.0, g(0.0), 3.0)
    assert 1.0 - 1e-8 < x <= 1.0
    assert fx == pytest.approx(1.0, abs=1e-7)
    # a barrier away from the minimum does not disturb it
    def h(u):
        return math.inf if u < -1.0 else (u - 0.7) ** 2 + 1.0

    x, fx = _brent_min(h, -3.0, -0.5, h(-0.5), 3.0)
    assert x == pytest.approx(0.7, abs=1e-7)
    assert fx == pytest.approx(1.0, abs=1e-15)


def test_brent_min_stops_at_rounding_floor():
    # near a smooth minimum the three best values become level to rounding
    # long before the bracket shrinks to the line tolerance; the search must
    # stop there instead of spending its last calls on rounding noise
    for c in (0.7, 0.123, -2.5):
        calls = []

        def g(u, c=c):
            calls.append(u)
            return math.cosh(u - c)

        x, fx = _brent_min(g, -3.0, 0.0, g(0.0), 3.0)
        assert fx == 1.0
        assert x == pytest.approx(c, abs=1e-7)
        assert len(calls) <= 15


def test_bracket_min_small_step_reaches_far_minimum():
    # a warm-started search begins with a tiny step; doubling must still
    # bracket a minimum 20 log-units away, in a few dozen calls
    calls = []

    def g(u):
        calls.append(u)
        return (u - 20.0) ** 2

    ul, fl, u0, f0, uh, fh = _bracket_min(g, 0.0, g(0.0), -40.0, 40.0, 1e-4)
    assert ul < 20.0 < uh
    assert f0 <= fl and f0 <= fh
    assert len(calls) <= 25
    x, fx = _brent_min(g, ul, u0, f0, uh)
    assert x == pytest.approx(20.0, abs=1e-7)


# ---------------------------------------------------------------------------
# field offsets


@pytest.mark.parametrize("lam", [-1.5, -1.0, -0.5, 0.5, 1.0, 3.0, 36.97])
@pytest.mark.parametrize("coef", [0.8, -1.7])
def test_power_offset_matches_two_power_form(coef, lam):
    # offset(t) = coef sgn(lam) x^lam - sign t x^2 at x = (t/mag)^(1/(lam-2))
    offset = _field_term(PotentialTerm(Scope.PAIRWISE, PowerLaw(coef, lam)), 3).offset
    mag = abs(coef) * abs(lam) / 2.0
    sign = math.copysign(1.0, coef)
    for t in (1e-6, 0.03, 0.7, 1.0, 4.2, 1e3, 1e6):
        x = (t / mag) ** (1.0 / (lam - 2.0))
        two_power = coef * math.copysign(1.0, lam) * x**lam - sign * t * x * x
        assert offset(t) == pytest.approx(two_power, rel=1e-13, abs=0.0)  # some below 1e-12


@pytest.mark.parametrize(
    "coef,lam,t,expected",
    [
        (33.69, 33.69, 1e300, -math.inf),  # (t/mag)^1.06 past the float range
        (-2.2, 36.97, 1e300, math.inf),  # (t/mag)^1.06
        (0.5, 1.5, 1e-300, math.inf),  # (t/mag)^-3
        (1.2e229, 1.0, 1e-300, math.inf),  # t/mag underflows to 0, then ^-1
    ],
)
def test_power_offset_overflow_reads_as_barrier(coef, lam, t, expected):
    offset = _field_term(PotentialTerm(Scope.PAIRWISE, PowerLaw(coef, lam)), 3).offset
    assert offset(t) == expected


def test_power_offset_past_float_range_stays_finite():
    # t/mag = 1.8e308 overflows, but the tiny coefficient keeps the offset
    # finite: the two-power form, taken in logs, gives about -4.77e137
    coef, lam, t = 1.54e-175, 300.0, 4.1e135
    offset = _field_term(PotentialTerm(Scope.PAIRWISE, PowerLaw(coef, lam)), 3).offset
    log_x = (math.log(t) - math.log(coef * lam / 2.0)) / (lam - 2.0)
    two_power = math.exp(math.log(coef) + lam * log_x) - math.exp(math.log(t) + 2.0 * log_x)
    assert offset(t) == pytest.approx(two_power, rel=1e-12)
    assert offset(t) == pytest.approx(-4.7716e137, rel=1e-4)
    # a scale that underflows to zero leaves no log to take
    tiny = _field_term(PotentialTerm(Scope.PAIRWISE, PowerLaw(5e-324, 3.0)), 3).offset
    assert tiny(1e300) == 0.0


def test_oracle_power_past_float_range():
    # the field sits where t/mag leaves the float range; reading the offset
    # as a barrier there gave 6.0e148 against the closed form's 1.5e160
    spec = power_system(5, 2.06e-156, NR, pair=(1.54e-175, 300.0))
    q = QuantumNumbers(((124, 32), (53, 390), (475, 120), (791, 1095)))
    closed = equal_power_mass(spec, q).mass
    assert closed == pytest.approx(1.5375441142344256e160, rel=1e-12)
    assert numeric_afm_minimize(spec, q) == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize(
    "scope,form,spring,weight",
    [
        (Scope.ONE_BODY, PowerLaw(0.5, 1.0), 1.0, 4),
        (Scope.ONE_BODY, PowerLaw(-0.5, 1.0), -1.0, 4),
        (Scope.PAIRWISE, PowerLaw(0.5, 1.0), 4.0, 6.0),
        (Scope.PAIRWISE, PowerLaw(-0.5, -1.0), -4.0, 6.0),
        (Scope.PAIRWISE, GaussianWell(2.0, 0.5), 4.0, 6.0),
    ],
)
def test_field_record_spring_and_weight(scope, form, spring, weight):
    # s = nu + N nubar gains the field's sign, N times for a pairwise term;
    # the offset enters the mass N times, or once per pair
    ft = _field_term(PotentialTerm(scope, form), 4)
    assert (ft.spring, ft.weight) == (spring, weight)


def test_field_sense_of_a_subnormal_coefficient():
    # 1e-323 r^1.9 is concave, so its stationary point is a minimum; the
    # product coef (2 - lam) underflowed to 0 and read as a maximum
    ft = _field_term(PotentialTerm(Scope.ONE_BODY, PowerLaw(1e-323, 1.9)), 3)
    assert ft.sense == +1


# ---------------------------------------------------------------------------
# Newton steps along a max-sense field


def _max_sense_line(rng, scope, kinematics, lam):
    """One power field whose stationary point is a maximum, with the mass
    along it (a rest part, weight offset(t) and the kinetic root of
    s = base + spring t, inf where s <= 0 as in the oracle's mass function),
    the arguments of _newton_max after the mass, and the exact maximizer, by
    bisection on the t-derivative."""
    coef = float(rng.uniform(0.1, 2.0)) * (1.0 if lam > 2.0 else -1.0)
    n = int(rng.integers(2, 7))
    ft = _field_term(PotentialTerm(scope, PowerLaw(coef, lam)), n)
    assert ft.sense < 0
    pair = scope is Scope.PAIRWISE
    assert ft.weight == (n * (n - 1) / 2.0 if pair else n)
    assert ft.spring == math.copysign(n if pair else 1, coef)
    weight, c = ft.weight, ft.spring
    m = float(rng.uniform(0.5, 3.0))
    qq = float(rng.uniform(1.5, 8.0)) * n
    base = float(rng.uniform(0.1, 3.0))  # springs of the other fields
    if kinematics is NR:
        mu, rest = m, n * m
    else:
        mu = float(rng.uniform(0.5, 2.0)) * math.sqrt(m * m + qq)
        rest = n / 2.0 * (mu + m * m / mu)

    def f(t):
        s = base + c * t
        if s <= 0.0:
            return math.inf
        return rest + weight * ft.offset(t) + qq * math.sqrt(2.0 * s / mu)

    def rising(u):  # df/dt > 0, with d offset/dt = power offset / t
        t = math.exp(u)
        kinetic = math.sqrt(2.0 * (base + c * t) / mu)
        return weight * ft.power * ft.offset(t) / t + qq * c / (mu * kinetic) > 0.0

    lo, hi = -60.0, (math.log(base / -c) if c < 0 else 60.0)
    assert rising(lo) and not rising(hi - 1e-9)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    return f, (ft, base, mu, qq), lo


@pytest.mark.parametrize("lam", [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5, 3.0, 36.97])
@pytest.mark.parametrize("kinematics", [NR, SR])
@pytest.mark.parametrize("scope", [Scope.ONE_BODY, Scope.PAIRWISE])
def test_newton_max_matches_brent_line_search(scope, kinematics, lam):
    # from a warm start, as inside the oracle: Newton lands on the exact
    # maximizer, and the point it certifies on the mass the line search finds;
    # a refused start leaves the oracle with the line search itself
    rng = np.random.default_rng([int(abs(lam) * 100), scope is Scope.PAIRWISE, kinematics is SR])
    accepted = 0
    for _ in range(8):
        f, args, u_max = _max_sense_line(rng, scope, kinematics, lam)
        u0 = u_max + float(rng.uniform(-0.25, 0.25))
        t_ref = _extremize_log_line(f, math.exp(u0), -1, oracles._STEP_MAX)[0]
        found = _newton_max(f, *args, math.exp(u0))
        if found is None:
            continue
        t, value = found
        assert value == f(t)
        accepted += 1
        assert math.log(t) == pytest.approx(u_max, abs=1e-8)
        # values place a maximum only to within their rounding plateau, and
        # round to the largest of the terms they sum
        assert math.log(t) == pytest.approx(math.log(t_ref), abs=1e-6)
        ft = args[0]
        part = ft.weight * ft.offset(t_ref)
        size = abs(f(t_ref) - part) + abs(part)
        assert abs(f(t) - f(t_ref)) <= 4.0 * sys.float_info.epsilon * size
    assert accepted >= 4


def test_newton_max_refuses_a_field_past_the_barrier():
    # a repulsive pair field whose other springs leave s = base + c t <= 0
    # for every t: Newton has no finite value to step from, so it refuses
    # without a mass evaluation
    rng = np.random.default_rng(7)
    f, (ft, base, mu, qq), _ = _max_sense_line(rng, Scope.PAIRWISE, SR, -1.0)
    assert ft.spring < 0.0
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    t_start = 0.5 * base / abs(ft.spring)  # inside the barrier for base > 0
    assert math.isfinite(f(t_start))
    assert _newton_max(counted, ft, -base, mu, qq, t_start) is None
    assert _newton_max(counted, ft, 0.0, mu, qq, t_start) is None
    assert calls == []


def test_newton_max_refuses_an_iterate_past_the_barrier(monkeypatch):
    # half a unit below the maximum in ln t the Newton step is 1.13, clamped
    # to 1; that lands past the kinetic barrier s = base + c t = 0, where the
    # iterate has no finite value, so the run is refused with the offset
    # evaluated only at the start and no mass evaluation: the caller falls
    # back on the Brent search. Steps clamped to 0.5 stay inside and converge.
    rng = np.random.default_rng(7)
    f, args, u_max = _max_sense_line(rng, Scope.PAIRWISE, SR, -1.0)
    ft, base = args[:2]
    u0 = u_max - 0.5
    assert u0 + oracles._NEWTON_STEP > math.log(base / -ft.spring) > u_max
    iterates, calls = [], []

    class Watched:  # the field, with every Newton iterate recorded
        spring, weight, power = ft.spring, ft.weight, ft.power

        @staticmethod
        def offset(t):
            iterates.append(t)
            return ft.offset(t)

    def counted(t):
        calls.append(t)
        return f(t)

    assert _newton_max(counted, Watched, *args[1:], math.exp(u0)) is None
    assert len(iterates) == 1 and calls == []
    # allowed to settle at the barrier, the run goes to the last float inside
    # it, where the step points back inside: refused all the same
    assert _newton_max(counted, Watched, *args[1:], math.exp(u0), barrier_max=True) is None
    assert len(iterates) == 3 and calls == []
    monkeypatch.setattr(oracles, "_NEWTON_STEP", 0.5)
    t, _ = _newton_max(counted, Watched, *args[1:], math.exp(u0))
    assert math.log(t) == pytest.approx(u_max, abs=1e-8)


def test_newton_max_settles_at_the_barrier_when_asked():
    # a convex one-body field (0.5 r^4, N = 2) with base = -1, so the barrier
    # s = t - 1 = 0 sits at t = 1, and a kinetic root too small to hold the
    # maximum off it: that lies at s = (qq t)^2 / (2 mu (d offset / d ln t)^2)
    # ~ 3e-21, below the float spacing 2.2e-16 at t = 1. With barrier_max
    # the steps stop at the last float inside, whose mass the line search
    # cannot beat; without it the step across is refused as before
    ft = _field_term(PotentialTerm(Scope.ONE_BODY, PowerLaw(0.5, 4.0)), 2)
    assert ft.sense < 0 and ft.spring == 1.0
    base, mu, qq = -1.0, 1e20, 1.5

    def f(t):
        s = base + t
        return ft.weight * ft.offset(t) + qq * math.sqrt(2.0 * s / mu) if s > 0.0 else math.inf

    assert _newton_max(f, ft, base, mu, qq, 2.0) is None
    t, value = _newton_max(f, ft, base, mu, qq, 2.0, barrier_max=True)
    assert t == math.nextafter(1.0, math.inf) and value == f(t)
    t_ref = _extremize_log_line(f, 2.0, -1, oracles._STEP_MAX)[0]
    assert t_ref > t and f(t_ref) < value


@pytest.mark.parametrize("newton", [True, False], ids=["newton", "brent-fallback"])
@pytest.mark.parametrize(
    "spec, side",
    [
        # atomic: the repulsive pair field has c < 0 < base
        (power_system(3, 1.0, SR, one=(0.3, -1.0), pair=(-0.1, -1.0)), -1.0),
        # pair-falls-one-body-lifts: the convex one-body field has base < 0 < c
        (power_system(5, 1.5549250190665247, NR, one=(0.23956158196246702, 3.0),
                      pair=(-0.1431486749983486, 3.0)), +1.0),
    ],
    ids=["atomic", "pair-falls-one-body-lifts"],
)
def test_hull_starts_every_max_search_inside_the_barrier(monkeypatch, spec, side, newton):
    # hull moves a max-sense field that lies past the kinetic barrier
    # s = base + c t = 0 to t*/2 (c < 0) or 2 t* (c > 0), t* = -base / c,
    # before either search runs: Newton and, where Newton is refused (here
    # always in the fallback run), Brent's search both start at that t
    starts, fallbacks = [], []
    newton_max, extremize = oracles._newton_max, oracles._extremize_log_line

    def watched_newton(f, field, base, mu, qq, t, barrier_max):
        starts.append((field.spring, base, t))
        return newton_max(f, field, base, mu, qq, t, barrier_max) if newton else None

    def watched_search(f, x0, sense, step):
        if sense < 0:
            fallbacks.append(x0)
            assert x0 == starts[-1][2]
        return extremize(f, x0, sense, step)

    monkeypatch.setattr(oracles, "_newton_max", watched_newton)
    monkeypatch.setattr(oracles, "_extremize_log_line", watched_search)
    if side < 0:
        closed = atomic_mass(3, 1.0, 0.3, 0.1, 3.0)
        assert numeric_afm_minimize(spec, ground(3)) == pytest.approx(closed, rel=1e-8)
    else:
        with pytest.raises(UnboundedBelow):
            numeric_afm_minimize(spec, ground(5))
    assert all(base + c * t > 0.0 for c, base, t in starts)
    assert all(math.copysign(1.0, c) == side for c, _, _ in starts)
    assert any(t == (0.5 if c < 0.0 else 2.0) * (-base / c) for c, base, t in starts)
    if not newton:
        assert len(fallbacks) == len(starts)


def test_newton_max_without_convergence_is_refused(monkeypatch):
    # a Newton run cut off by its step limit returns no point, so the oracle
    # falls back on the line search rather than certify an unconverged one
    rng = np.random.default_rng(11)
    f, args, u_max = _max_sense_line(rng, Scope.PAIRWISE, NR, -1.0)
    t0 = math.exp(u_max + 0.5)  # six steps converge from here
    t, _ = _newton_max(f, *args, t0)
    assert math.log(t) == pytest.approx(u_max, abs=1e-8)
    monkeypatch.setattr(oracles, "_NEWTON_ITERS", 3)
    assert _newton_max(f, *args, t0) is None


# ---------------------------------------------------------------------------
# field extremization against closed forms


def test_oracle_matches_semirelativistic_oscillator():
    spec = power_system(3, 1.0, SR, one=(0.3, 2.0), pair=(0.2, 2.0))
    closed = srho_mass(3, 1.0, 0.3, 0.2, 3.0).mass
    oracle = numeric_afm_minimize(spec, ground(3))
    assert oracle == pytest.approx(closed, rel=1e-8)


def test_oracle_matches_massless_linear_coulomb():
    spec = power_system(3, 0.0, SR, one=(0.2, 1.0), pair=(0.6, -1.0))
    closed = baryonic_ur(3, 0.2, 0.6, 3.0).mass
    oracle = numeric_afm_minimize(spec, ground(3))
    assert oracle == pytest.approx(closed, rel=1e-8)


def test_oracle_matches_gaussian_well():
    spec = gaussian_system(3, 1.0, 2.0, 0.5)
    closed = 3.0 + gaussian_spectrum(3, 1.0, 2.0, 0.5, 3.0).energy
    oracle = numeric_afm_minimize(spec, ground(3))
    assert oracle == pytest.approx(closed, rel=1e-8)


def test_oracle_handles_mixed_sign_stationary_point():
    # one-body attraction with pairwise repulsion: the stationary point is a
    # saddle, maximal along the repulsive field
    from auxfield.systems import atomic_mass

    spec = power_system(3, 1.0, SR, one=(0.3, -1.0), pair=(-0.1, -1.0))
    closed = atomic_mass(3, 1.0, 0.3, 0.1, 3.0)
    oracle = numeric_afm_minimize(spec, ground(3))
    assert oracle == pytest.approx(closed, rel=1e-8)


def test_oracle_handles_convex_growth():
    # steeper-than-quadratic potential: stationary point maximal in its field
    spec = power_system(3, 1.0, NR, pair=(0.4, 3.0))
    closed = equal_power_mass(spec, ground(3)).mass
    oracle = numeric_afm_minimize(spec, ground(3))
    assert oracle == pytest.approx(closed, rel=1e-8)


def test_oracle_is_deterministic():
    specs = (
        power_system(3, 1.0, SR, one=(0.3, 1.0), pair=(0.2, -1.0)),
        # atomic: the pairwise repulsion is a max-sense field
        power_system(4, 2.3, SR, one=(0.9, -1.0), pair=(-0.15, -1.0)),
        # convex growth in both scopes: two max-sense fields
        power_system(3, 1.0, NR, one=(0.3, 3.0), pair=(0.4, 3.0)),
    )
    for spec in specs:
        first = numeric_afm_minimize(spec, ground(spec.n))
        second = numeric_afm_minimize(spec, ground(spec.n))
        assert first == second  # bitwise


def test_oracle_warm_state_is_deterministic():
    # an atomic draw: its pairwise repulsion is a max-sense field, so the
    # searches reuse their step sizes within a solve; that state must neither
    # change a repeated solve nor leak into the next one
    spec = power_system(4, 2.3, SR, one=(0.9, -1.0), pair=(-0.15, -1.0))
    q = QuantumNumbers(((1, 0), (0, 0), (0, 0)))
    first = numeric_afm_minimize(spec, q)
    other = power_system(3, 1.0, SR, one=(0.3, -1.0), pair=(-0.1, -1.0))
    numeric_afm_minimize(other, ground(3))
    second = numeric_afm_minimize(spec, q)
    assert first == second  # bitwise
    assert first == pytest.approx(atomic_mass(4, 2.3, 0.9, 0.15, q.q), rel=1e-8)


def test_oracle_steep_power_with_tiny_coefficient():
    # even at unit scale (k = -3) |K| at unit radius is ~1e-176, far below
    # the field's stationary value of ~2^-8 (K grows as r^98); the search
    # must start from a field clamped to e^-40, not from that flat region
    spec = power_system(3, 4.98, SR, pair=(1.65e-270, 100.0))
    q = QuantumNumbers(((196, 1999), (209, 498)))
    closed = equal_power_mass(spec, q).mass
    assert numeric_afm_minimize(spec, q) == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize(
    "spec",
    [
        # |K| = 1.5e-300 as given; at unit scale it is ~2^995, clamped to e^40
        power_system(3, 1e-200, NR, pair=(1e-300, 3.0)),
        # a well starts at its cap depth range^2, here 6.3e-31 at unit scale
        # and clamped to e^-40 past it, where its offset stays -depth; the
        # other well's field at unit radius underflows to 0
        gaussian_system(3, 1.0, 1e-20, 1e-20),
        gaussian_system(3, 1.0, 1e6, 100.0),
    ],
    ids=["power-offset-overflows-at-the-clamp", "gaussian-range-1e-20", "gaussian-range-100"],
)
def test_oracle_starts_each_field_where_its_offset_is_finite(spec):
    closed = afm_mass(spec, ground(3)).mass  # 3e-200 on the first spec
    assert numeric_afm_minimize(spec, ground(3)) == pytest.approx(closed, rel=1e-8, abs=0.0)


def test_oracle_reads_a_non_finite_field_range_edge_as_a_barrier():
    # the minimizing bracket grows from the pair field's start straight to
    # e^-700, past the minimum near 3.7e-253, and the mass is not finite
    # there; that edge is a barrier, not a mass still falling
    spec = power_system(2, 6.88771467455052e-126, NR, one=(-6.53486143663082e-250, 1.9),
                        pair=(1.3261738126510833e-243, 1.9))
    q = QuantumNumbers(((11, 48),))
    closed = afm_mass(spec, q).mass  # 1.4e-125
    assert numeric_afm_minimize(spec, q) == pytest.approx(closed, rel=1e-8, abs=0.0)


def test_oracle_budget_exhaustion():
    spec = power_system(3, 1.0, SR, one=(0.3, 1.0), pair=(0.2, -1.0))
    with pytest.raises(NonConvergence):
        numeric_afm_minimize(spec, ground(3), max_evals=50)


def _atomic_check(n, m, alpha, alphabar, q, **kwargs):
    spec = power_system(n, m, SR, one=(alpha, -1.0), pair=(-alphabar, -1.0))
    oracle = numeric_afm_minimize(spec, q, **kwargs)
    assert oracle == pytest.approx(atomic_mass(n, m, alpha, alphabar, q.q), rel=1e-8)


def test_oracle_hard_atomic_draw_within_default_budget():
    # a criterion-4 draw that used to exhaust the default 100 000 evaluations
    _atomic_check(6, 4.846, 0.987, 0.0707, ground(6))


@pytest.mark.parametrize(
    "budget",
    [
        25_000,  # nested line searches stay well below the 100 000 default
        8_000,  # line searches stop at the rounding floor
        4_800,  # each search's first bracket step follows its last move
        2_600,  # the repulsive field's maximum is reached by Newton steps
        1_300,  # each such maximum costs three mass evaluations
    ],
)
def test_oracle_atomic_cost_guard(budget):
    # machine-independent cost bound on criterion-4 atomic draws; each budget
    # holds only with the refinement named beside it and those above it
    rng = np.random.default_rng(2718)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = float(rng.uniform(0.5, 5.0))
        band = int(rng.integers(0, 2))
        q = QuantumNumbers(((band, 0),) + ((0, 0),) * (n - 2))
        alpha = float(rng.uniform(0.1, 0.8)) * q.q / n
        alphabar = float(rng.uniform(0.1, 0.6)) * alpha * n * n / (
            n * (n - 1) / 2.0
        ) ** 1.5
        _atomic_check(n, m, alpha, alphabar, q, max_evals=budget)


@pytest.mark.parametrize(
    "spec",
    [
        power_system(3, 2.223, NR, one=(0.2111, -1.0), pair=(-0.3962, 0.5)),
        power_system(2, 2.094, NR, one=(0.3319, 1.0), pair=(-0.3984, 1.0)),
        power_system(3, 0.6446887959414613, NR, one=(-0.4086620820568579, 1.5),
                     pair=(0.8974629504068266, -0.5)),
        power_system(5, 1.5549250190665247, NR, one=(0.23956158196246702, 3.0),
                     pair=(-0.1431486749983486, 3.0)),
    ],
    ids=["coulomb+pair-sqrt", "linear+pair-linear", "one-body-falls",
         "pair-falls-one-body-lifts"],
)
def test_oracle_on_unbound_spec_raises(spec):
    # a potential that falls without bound at large r: the scale equation
    # has no root. On the first two specs the minimizing searches descend
    # until the fields leave the float range, where they used to stop and
    # return -8.3e100 and -9.0e301. On the last two the max-sense field's
    # maximum falls without bound along the minimized field, until the mass
    # leaves the float range and reads as a barrier; the searches used to
    # settle against it, a log-step of 1e-9 from a mass of +inf, and return
    # -5.4e307 and -1.5e308
    with pytest.raises(NoPositiveRoot):
        afm_mass(spec, ground(spec.n))
    with pytest.raises(UnboundedBelow):
        numeric_afm_minimize(spec, ground(spec.n))


def test_oracle_start_past_the_barrier_raises_at_once():
    # both fields are min-sense and -0.415 r^3 pulls s below 0 at the start:
    # no field can lift it, so the first mass evaluation decides
    spec = power_system(5, 2.027008731084414, SR, one=(-0.415385834875269, 3.0),
                        pair=(0.4727501031229764, 0.5))
    with pytest.raises(UnboundedBelow, match="kinetic barrier"):
        numeric_afm_minimize(spec, ground(5), max_evals=1)


def test_oracle_mixed_negative_powers():
    # the oracle settled at 7.9822 where afm_mass gives 8.4029
    spec = power_system(3, 2.800975178752582, SR, one=(-0.715724427018972, -0.30073736913186855),
                        pair=(0.32535687472919594, -0.2851146091013037))
    q = QuantumNumbers(((2, 0), (0, 0)))
    assert afm_mass(spec, q).mass == pytest.approx(8.40292553572761, rel=1e-12)
    assert numeric_afm_minimize(spec, q) == pytest.approx(8.40292553572761, rel=1e-8)


def test_oracle_unbound_spec_settled_at_the_kinetic_barrier():
    # the oracle returned 14.5666, settled against s = 0; no field can lift
    # the start above the barrier, and -0.415 r^3 falls without bound
    spec = power_system(5, 2.027008731084414, SR, one=(-0.415385834875269, 3.0),
                        pair=(0.4727501031229764, 0.5))
    with pytest.raises(NumericalError):
        numeric_afm_minimize(spec, ground(5))


@pytest.mark.parametrize(
    "spec, q",
    [
        (power_system(5, 7.331567537127229e86, SR, one=(-1.3178860277406158e142, 1.5),
                      pair=(1.865005238678732e201, 1.0)),
         QuantumNumbers(((0, 0), (0, 0), (16, 47), (0, 0)))),
        (power_system(4, 0.0, SR, one=(-1.2379466107753153e108, 1.0),
                      pair=(7.161338485299651e247, 1.5)),
         QuantumNumbers(((6, 28), (0, 0), (0, 0)))),
        (gaussian_system(3, 1.0, 2.0, 1e-9), ground(3)),
    ],
    ids=["massive-pair-field-near-e700", "massless-pair-field-near-e700", "gaussian-range-1e-9"],
)
def test_oracle_settles_near_a_boundary_on_bound_specs(spec, q):
    # bound specs whose stationary point lies close to a boundary. On the
    # first two the pair field settles near 1e297-1e301, a few units below
    # e^700 in the log; a bracket that doubles past the minimum to that edge
    # finds the mass there below its last point, though above the minimum,
    # and an edge rule read that as a mass still falling. The wide well's
    # field settles a few 1e-9 in the log below its cap, where M stopped
    # being finite, so a probe 2.5e-7 wide read it as a barrier
    closed = afm_mass(spec, q).mass
    assert numeric_afm_minimize(spec, q) == pytest.approx(closed, rel=1e-8, abs=0.0)


def test_gaussian_offset_stays_at_the_well_bottom_past_its_cap():
    # past t = depth range^2 the quadratic t r^2 touches the well only at
    # r = 0, so the offset V(I) - t I^2 is -depth there: continuous, with a
    # zero slope, where it read inf and made the cap a barrier
    offset = _field_term(PotentialTerm(Scope.PAIRWISE, GaussianWell(2.0, 0.5)), 3).offset
    cap = 2.0 * 0.5 * 0.5
    assert offset(cap) == offset(2.0 * cap) == offset(1e300) == -2.0
    assert offset(cap * (1.0 - 1e-8)) == pytest.approx(-2.0, rel=1e-15)


def test_oracle_solves_a_wide_well_at_every_scale():
    # the wide well's field settles 1.7e-9 to 3.9e-9 in the log below its
    # cap, depending on the scale it is solved at (2^-20..2^5 measured). While
    # M was not finite past the cap, the settled-point probe 4e-9 wide read
    # every one of those but the scale as given (k = 0) as a barrier, the
    # unit scale k = -15 included
    spec = gaussian_system(3, 1.0, 2.0, 1e-9)
    closed = afm_mass(spec, ground(3)).mass
    for k in range(-20, 6):
        oracle = numeric_afm_minimize(rescale(spec, k), ground(3))
        assert math.ldexp(oracle, k) == pytest.approx(closed, rel=1e-12, abs=0.0), k


_SCALES = tuple(range(-900, 901, 100)) + (-60, -20, 20, 60)


def _scaled_family(lam, k, kinematics=SR):
    """N = 3, mass 1.3, one-body 0.4 r^lam and pairwise 0.3 r^lam with every
    length divided by s = 2^k (model.rescale): mass 1.3 s, coefficients
    0.4 s^(lam+1) and 0.3 s^(lam+1), so its mass is exactly s times the
    k = 0 mass wherever those inputs are normal floats."""
    return rescale(power_system(3, 1.3, kinematics, one=(0.4, lam), pair=(0.3, lam)), -k)


@pytest.mark.parametrize("kinematics", [SR, NR])
@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5, 1.0, 1.5])
def test_oracle_is_scale_covariant(lam, kinematics):
    # afm_mass keeps M / s to a few ulp across these scales, and the oracle,
    # which solves every spec at unit scale, must follow it. Searched at the
    # scale as given, from fixed starting constants, it did not: the Coulomb
    # member (lam = -1) was 22 % high from 2^60 up and raised NonConvergence
    # from 2^-60 down, and a pass test absolute below |M| = 1 left it 3.3e-6
    # off at 2^-40 (lam = 1)
    base = _scaled_family(lam, 0, kinematics)
    tested = 0
    for k in _SCALES:
        spec = _scaled_family(lam, k, kinematics)
        if rescale(spec, k) != base:
            continue  # an input left the normal float range
        try:
            closed = afm_mass(spec, ground(3)).mass
        except NumericalError:
            continue  # X0 ~ s^2 leaves the float range
        oracle = numeric_afm_minimize(spec, ground(3))
        assert oracle == pytest.approx(closed, rel=1e-12, abs=0.0), k
        tested += 1
    assert tested >= 13  # afm_mass has a value from 2^-500 (2^-400 at lam = 1.5) to 2^500


def test_oracle_nearly_constant_potential():
    # solved at its unit scale k = -442; searched at the scale as given, from
    # fixed starting constants, it raised UnboundedBelow
    spec = power_system(2, 0.0, SR, pair=(1e-133, 1e-24))
    q = QuantumNumbers(((859, 0),))
    closed = afm_mass(spec, q).mass  # 1e-133: no absolute slack, or any tiny value would pass
    assert numeric_afm_minimize(spec, q) == pytest.approx(closed, rel=1e-8, abs=0.0)


# Open defects: each test asserts the outcome a stationarity certificate of
# the settled point should give, and fails (strictly) until it does.


@pytest.mark.xfail(
    strict=True,
    raises=UnboundedBelow,
    reason='FOUND: "the oracle\'s `UnboundedBelow` also fires for massless specs whose mass'
    ' falls toward 0, not without bound"',
)
def test_oracle_massless_mass_falling_to_zero():
    spec = power_system(2, 0.0, SR, one=(-0.4811630071173038, -0.5),
                        pair=(0.4545130720956754, -0.5))
    with pytest.raises(NoBoundState):
        numeric_afm_minimize(spec, ground(2))


_FAMILY_EXPONENTS = (0.5, -0.5, -1.0, -1.5, 1.0, 1.5, 2.0, 3.0)


def _family_draw(rng):
    """N in 2-5, NR or SR (30 % of SR massless, else m in U(0.5, 3)), one
    one-body and one pairwise power with coefficient U(-0.8, 0.8) and an
    exponent from _FAMILY_EXPONENTS, and one excited mode."""
    n = int(rng.integers(2, 6))
    sr = bool(rng.random() < 0.5)
    m = 0.0 if sr and rng.random() < 0.3 else float(rng.uniform(0.5, 3.0))
    one, pair = (
        (float(rng.uniform(-0.8, 0.8)), _FAMILY_EXPONENTS[int(rng.integers(8))])
        for _ in range(2)
    )
    modes = [(0, 0)] * (n - 1)
    radial = int(rng.integers(0, 3))
    modes[int(rng.integers(n - 1))] = (radial, int(rng.integers(0 if radial else 1, 3)))
    return power_system(n, m, SR if sr else NR, one=one, pair=pair), QuantumNumbers(tuple(modes))


def _value_or_none(solve):
    try:
        return solve()
    except NumericalError:
        return None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open on 300 draws, the same counts with the oracle at unit scale: 13 where"
    " afm_mass raises and the oracle returns a mass,"
    " each the free limit N m exactly, 1 where the oracle raises"
    " UnboundedBelow on a potential that falls without bound and afm_mass returns"
    " a local stationary point, 0 where both return and differ",
)
def test_engine_and_oracle_agree_on_random_specs():
    # the two routes to an AFM mass on a seeded family: a spec passes when
    # both agree to 1e-8 or both raise
    rng = np.random.default_rng(1)
    failures = {}
    drawn = 0
    while drawn < 300:
        spec, q = _family_draw(rng)
        try:
            validate(spec, q)
        except ValidationError:
            continue
        drawn += 1
        a, o = (_value_or_none(solve) for solve in (
            lambda: afm_mass(spec, q).mass, lambda: numeric_afm_minimize(spec, q)))
        if a is None or o is None:
            kind = None if a is o else "afm raises" if a is None else "oracle raises"
        else:
            kind = None if compare(a, o, 1e-8).verdict is Verdict.MATCH else "differ"
        if kind:
            failures[kind] = failures.get(kind, 0) + 1
    assert not failures, failures


# The draws of wide_draw(default_rng(5)) on which the oracle agrees with
# afm_mass to 1e-8 relative. Solving every spec as given (k = 0) it agreed
# on the 105 of _WIDE_AGREEMENTS; at unit scale it agrees on those and on
# the 10 of _WIDE_GAINED. Pinned agreements may only grow.
_WIDE_AGREEMENTS = frozenset({
    0, 6, 7, 8, 11, 12, 13, 16, 17, 18, 19, 21, 22, 23, 26, 30, 31, 32, 33, 37, 38, 39, 43,
    44, 45, 46, 49, 53, 54, 56, 58, 62, 64, 65, 66, 68, 69, 70, 71, 72, 73, 74, 76, 79, 80,
    82, 83, 84, 85, 86, 87, 88, 94, 96, 98, 99, 101, 102, 103, 105, 106, 108, 109, 112, 114,
    118, 119, 120, 124, 126, 127, 128, 129, 130, 131, 132, 134, 136, 140, 143, 145, 149, 150,
    151, 152, 154, 157, 161, 167, 170, 171, 172, 173, 177, 179, 180, 182, 184, 185, 186,
    187, 188, 190, 198, 199
})
_WIDE_GAINED = frozenset({15, 81, 95, 117, 122, 133, 135, 144, 175, 178})


def test_oracle_agrees_with_afm_mass_on_wide_draws():
    rng = np.random.default_rng(5)
    agree = set()
    drawn = 0
    while drawn < 200:
        spec, q = wide_draw(rng)
        try:
            validate(spec, q)
        except ValidationError:
            continue
        if not spec.terms:
            continue
        a, o = (_value_or_none(solve) for solve in (
            lambda: afm_mass(spec, q).mass, lambda: numeric_afm_minimize(spec, q)))
        if a is not None and o is not None and abs(a - o) <= 1e-8 * abs(a):
            agree.add(drawn)
        drawn += 1
    pinned = _WIDE_AGREEMENTS | _WIDE_GAINED
    assert agree >= pinned, sorted(pinned - agree)


def test_oracle_wide_draw_with_two_balanced_potentials():
    # the well 3.9e-85 r^4 - 9.5e41 r_12^2.1 is 1e182 deep, set by the two
    # potentials balancing each other, not by either against the kinetic
    # energy, which is ~1e-330 of it: the r^4 field's maximum lies closer to
    # the kinetic barrier than float spacing. Newton steps that stopped at
    # the barrier were refused, and the line search in their place placed
    # the field only to 1e-9 in the log, so M moved ~1e-9 from pass to pass
    # and met the 1e-12 pass test only by chance: after 59 563 evaluations
    # at k = 0, and not within the default 100 000 at the unit scale k = 45.
    # Newton now settles such a field at the barrier's own float, and the
    # passes converge in under 400 evaluations
    spec = power_system(2, 3.5481002403408065e100, SR, one=(3.9211497119422867e-85, 4.0),
                        pair=(-9.451881117041851e41, 2.1))
    q = QuantumNumbers(((24, 40),))
    closed = afm_mass(spec, q).mass  # -1.0630424828339101e182
    assert numeric_afm_minimize(spec, q, max_evals=1_000) == pytest.approx(
        closed, rel=1e-8, abs=0.0)


def test_oracle_takes_no_barrier_maximum_with_two_max_sense_fields():
    # wide draw 48: both fields are max-sense and each one's maximum, given
    # the other, lies within float spacing of the kinetic barrier. Taken
    # there, the sweep stopped with both at the barrier, no joint maximum,
    # and returned -1.6e176; only a lone max-sense field settles there, so
    # this spec gets a typed error or the closed form, never a wrong value
    spec = power_system(2, 3.1197960637934598e-27, SR, one=(1.4740894945107322e-22, 3.0),
                        pair=(-4.7972278619437876e132, 0.5))
    q = QuantumNumbers(((46, 0),))
    closed = afm_mass(spec, q).mass  # -2.9449921992870545e163
    try:
        oracle = numeric_afm_minimize(spec, q, max_evals=2_000)
    except NumericalError:
        return
    assert oracle == pytest.approx(closed, rel=1e-8, abs=0.0)


def test_oracle_keeps_a_well_curvature_in_the_float_range():
    # NR, m = 2^-500, a one-body oscillator 2^-900 r^2 and a pairwise well of
    # depth 2^-300 and range_ 2^200: the scales' median puts k at -311, where
    # every input is a normal float but the well's curvature depth range_^2,
    # which scales as 2^-3k, is 2^1033 = inf, and the oracle raised DomainError
    # ("field scale inf"). Counted as an input, it holds k at -137
    spec = SystemSpec(3, Identical(2.0**-500), NR,
                      (PotentialTerm(Scope.ONE_BODY, PowerLaw(2.0**-900, 2.0)),),
                      (PotentialTerm(Scope.PAIRWISE, GaussianWell(2.0**-300, 2.0**200)),))
    closed = afm_mass(spec, ground(3)).mass
    assert numeric_afm_minimize(spec, ground(3)) == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_oracle_types_its_error_on_a_well_far_from_unit_scale():
    # no k brings m = 2^-400 and a well of depth and range_ 2^300 (curvature
    # 2^900) all within 2^+-511, so the oracle solves the spec as given; t/cap
    # at the field's floor e^-700 underflowed to 0 and its log raised
    # ValueError. The well is too weak to bind: afm_mass has no root either
    spec = SystemSpec(3, Identical(2.0**-400), NR, (),
                      (PotentialTerm(Scope.PAIRWISE, GaussianWell(2.0**300, 2.0**300)),))
    with pytest.raises(NoPositiveRoot):
        afm_mass(spec, ground(3))
    with pytest.raises(UnboundedBelow):
        numeric_afm_minimize(spec, ground(3))


def test_oracle_imports_no_solver_layer():
    # the oracle is an independent check: it must not reach the closed forms,
    # the scale-equation solver or the exact oscillator, even indirectly
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys, auxfield.oracles\n"
        "names = ['auxfield.engine', 'auxfield.systems', 'auxfield.ho', 'auxfield.special',"
        " 'numpy']\n"
        "loaded = [name for name in names if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_oracle_rejects_empty_system():
    spec = power_system(3, 1.0, SR)
    with pytest.raises(UnsupportedCombination):
        numeric_afm_minimize(spec, ground(3))


# ---------------------------------------------------------------------------
# trial moments against quadrature


def test_pair_moments_match_quadrature():
    gamma = 1.7

    def density_moment(f):
        num = quad(lambda r: f(r) * r * r * math.exp(-gamma * r * r), 0.0, math.inf)[0]
        den = quad(lambda r: r * r * math.exp(-gamma * r * r), 0.0, math.inf)[0]
        return num / den

    for eta in (-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0):
        oracle = density_moment(lambda r: r**eta)
        assert pair_moment_power(gamma, eta) == pytest.approx(oracle, rel=1e-10)
    beta = 0.9
    oracle = density_moment(lambda r: math.exp(-beta * beta * r * r))
    assert pair_moment_gaussian(gamma, beta) == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# correlated-Gaussian variational bound


def test_trial_bound_exact_for_quadratic_pairs():
    spec = power_system(4, 1.5, NR, pair=(0.8, 2.0))
    bound = gaussian_trial_bound(spec)
    exact = ho_energy_identical(4, 1.5, 0.0, 0.8, ground(4).q)
    assert bound == pytest.approx(exact, rel=1e-12)


def test_trial_bound_below_gaussian_level():
    # rescaled units: two particles at depth 10; the variational optimum must
    # undercut the fixed-scale auxiliary-field level
    spec = gaussian_system(2, 1.0, 10.0, 1.0)
    bound = gaussian_trial_bound(spec)
    afm = gaussian_spectrum(2, 1.0, 10.0, 1.0, 1.5).energy
    assert afm == pytest.approx(-1.759422931255742, rel=1e-12)
    assert bound <= afm + 1e-12


def test_trial_bound_below_linear_afm():
    spec = power_system(3, 1.0, NR, pair=(0.2, 1.0))
    bound = gaussian_trial_bound(spec)
    afm_binding = equal_power_mass(spec, ground(3)).mass - 3.0
    assert bound <= afm_binding + 1e-12
    assert bound > 0.0  # rising potential still costs kinetic energy


def test_trial_bound_at_threshold_without_a_trial_bound_state():
    # the trial family holds no bound state of this shallow well: the
    # expectation still descends at the edge of the kappa range, so the
    # bound is that edge value, at the threshold up to rounding
    bound = gaussian_trial_bound(gaussian_system(3, 1.0, 0.1, 1.0))
    assert 0.0 <= bound <= 1e-12


@pytest.mark.parametrize("lam, power", [(2.0, 4), (-1.0, 1)], ids=["oscillator", "coulomb"])
def test_trial_bound_is_scale_covariant(lam, power):
    # N = 3, m = 1 and pairwise 0.5 s^power r^lam: the level is s^2 times
    # that at s = 1 (the exact 3 sqrt(3) for the oscillator). With its kappa
    # span centred on 1 in place of unit scale, the oscillator read 898.89 s^2
    # at s = 2^30 and the Coulomb pair raised UnboundedBelow there
    base = gaussian_trial_bound(power_system(3, 1.0, NR, pair=(0.5, lam)))
    if lam == 2.0:
        assert base == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-15)
    for k in range(-30, 31, 10):
        s = 2.0**k
        bound = gaussian_trial_bound(power_system(3, 1.0, NR, pair=(0.5 * s**power, lam)))
        assert bound == pytest.approx(s * s * base, rel=1e-12, abs=0.0), k


def test_trial_bound_flags_runaway():
    # absurdly strong attraction pushes the optimum beyond the supported
    # kappa range; the bound cannot be trusted there. Unit scale does not
    # reach it: k sits halfway between log2 m = 0 and the Bohr scale
    # log2(m c) = 133, so the optimum still lies ~e^93 past kappa = 1
    spec = power_system(3, 1.0, NR, pair=(1e40, -1.0))
    with pytest.raises(UnboundedBelow):
        gaussian_trial_bound(spec)


def test_trial_bound_requires_pairwise_only():
    spec = power_system(3, 1.0, NR, one=(0.2, 1.0), pair=(0.2, 1.0))
    with pytest.raises(UnsupportedCombination):
        gaussian_trial_bound(spec)
    with pytest.raises(UnsupportedCombination):
        gaussian_trial_bound(power_system(3, 1.0, SR, pair=(0.2, 1.0)))
