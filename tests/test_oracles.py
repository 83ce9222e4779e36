import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from auxfield import oracles
from auxfield.engine import afm_mass, equal_power_mass
from auxfield.errors import (
    NonConvergence,
    NoPositiveRoot,
    UnboundedBelow,
    UnsupportedCombination,
)
from auxfield.ho import ho_energy_identical, srho_mass
from auxfield.model import (
    GaussianWell,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
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
from conftest import gaussian_system, ground, power_system

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
        assert offset(t) == pytest.approx(two_power, rel=1e-13)


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
        t_ref = _extremize_log_line(f, math.exp(u0), -1)[0]
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
    # for every t: Newton has no finite value to step from and no point to
    # restart at, so it refuses without a mass evaluation
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
    monkeypatch.setattr(oracles, "_NEWTON_STEP", 0.5)
    t, _ = _newton_max(counted, Watched, *args[1:], math.exp(u0))
    assert math.log(t) == pytest.approx(u_max, abs=1e-8)


def test_newton_max_restarts_inside_the_barrier():
    # a start where s = base + c t <= 0: Newton restarts halfway to the
    # barrier and reaches the maximum that the fallback Brent search, which
    # probes back into the valid region, finds, with three evaluations of the
    # mass and no line search
    rng = np.random.default_rng(7)
    f, args, u_max = _max_sense_line(rng, Scope.PAIRWISE, SR, -1.0)
    ft, base = args[:2]
    t_bad = 4.0 * base / abs(ft.spring)
    assert f(t_bad) == math.inf
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    t_newton, value = _newton_max(counted, *args, t_bad)
    assert len(calls) == 3
    assert value == f(t_newton)
    assert math.log(t_newton) == pytest.approx(u_max, abs=1e-8)
    t_fallback = _extremize_log_line(f, t_bad, -1)[0]
    assert math.log(t_fallback) == pytest.approx(math.log(t_newton), abs=1e-6)
    assert abs(f(t_fallback) - value) <= 4.0 * sys.float_info.epsilon * abs(value)


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
    # |K| at unit radius is ~1e-268, far below the field's stationary value;
    # the search must start from a clamped field, not from that flat region
    spec = power_system(3, 4.98, SR, pair=(1.65e-270, 100.0))
    q = QuantumNumbers(((196, 1999), (209, 498)))
    closed = equal_power_mass(spec, q).mass
    assert numeric_afm_minimize(spec, q) == pytest.approx(closed, rel=1e-8)


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


def test_trial_bound_flags_runaway():
    # absurdly strong attraction pushes the optimum beyond the supported
    # field range; the bound cannot be trusted there
    spec = power_system(3, 1.0, NR, pair=(1e40, -1.0))
    with pytest.raises(UnboundedBelow):
        gaussian_trial_bound(spec)


def test_trial_bound_requires_pairwise_only():
    spec = power_system(3, 1.0, NR, one=(0.2, 1.0), pair=(0.2, 1.0))
    with pytest.raises(UnsupportedCombination):
        gaussian_trial_bound(spec)
    with pytest.raises(UnsupportedCombination):
        gaussian_trial_bound(power_system(3, 1.0, SR, pair=(0.2, 1.0)))
