import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from auxfield.errors import (
    InvalidCoefficient,
    InvalidExponent,
    NumericalError,
    UnsupportedForm,
    ValidationError,
    WrongModeCount,
    ZeroMassNonrelativistic,
)
from auxfield.model import (
    AFMSolution,
    BoundCharacter,
    GaussianWell,
    Identical,
    Kinematics,
    PerParticle,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    _unit_scale,
    rescale,
    validate,
)
from auxfield.engine import afm_mass, equal_power_mass
from auxfield.ho import HOSpectrumEntry, srho_mass
from auxfield.oracles import OracleReport, Verdict, _FieldTerm, gaussian_trial_bound
from auxfield.systems import BaryonParams, BaryonVariant, GaussianSpectrum, baryonic_ur
from conftest import gaussian_system, ground, power_system, wide_draw


def test_accepts_ground_state_quadratic():
    spec = power_system(3, 1.0, Kinematics.NONRELATIVISTIC, pair=(1.0, 2.0))
    q = QuantumNumbers(((0, 0), (0, 0)))
    spec2, q2 = validate(spec, q)
    assert spec2 is spec and q2 is q
    assert q.q == 3.0
    assert q.band == 0


def test_wrong_mode_count_rejected():
    spec = power_system(3, 1.0, Kinematics.NONRELATIVISTIC, pair=(1.0, 2.0))
    with pytest.raises(WrongModeCount):
        validate(spec, QuantumNumbers(((0, 0),)))


def test_semirelativistic_exponent_floor():
    spec = power_system(2, 1.0, Kinematics.SEMIRELATIVISTIC, pair=(1.0, -1.5))
    with pytest.raises(InvalidExponent):
        validate(spec, ground(2))


def test_nonrelativistic_exponent_floor():
    ok = power_system(2, 1.0, Kinematics.NONRELATIVISTIC, pair=(1.0, -1.5))
    validate(ok, ground(2))
    bad = power_system(2, 1.0, Kinematics.NONRELATIVISTIC, pair=(1.0, -2.0))
    with pytest.raises(InvalidExponent):
        validate(bad, ground(2))


def test_exponent_zero_rejected():
    spec = power_system(2, 1.0, Kinematics.NONRELATIVISTIC, pair=(1.0, 0.0))
    with pytest.raises(InvalidExponent):
        validate(spec, ground(2))


def test_zero_mass_needs_semirelativistic():
    spec = power_system(2, 0.0, Kinematics.NONRELATIVISTIC, pair=(1.0, 1.0))
    with pytest.raises(ZeroMassNonrelativistic):
        validate(spec, ground(2))
    validate(
        power_system(2, 0.0, Kinematics.SEMIRELATIVISTIC, pair=(1.0, 1.0)), ground(2)
    )


def test_single_negative_coefficient_rejected():
    spec = power_system(3, 1.0, Kinematics.SEMIRELATIVISTIC, pair=(-0.5, -1.0))
    with pytest.raises(InvalidCoefficient):
        validate(spec, ground(3))


def test_mixed_signs_accepted_when_one_positive():
    spec = power_system(
        3, 1.0, Kinematics.SEMIRELATIVISTIC, one=(0.3, -1.0), pair=(-0.1, -1.0)
    )
    validate(spec, ground(3))
    both_negative = power_system(
        3, 1.0, Kinematics.SEMIRELATIVISTIC, one=(-0.3, -1.0), pair=(-0.1, -1.0)
    )
    with pytest.raises(InvalidCoefficient):
        validate(both_negative, ground(3))


def test_gaussian_pairwise_nonrelativistic_only():
    term = PotentialTerm(Scope.PAIRWISE, GaussianWell(1.0, 0.5))
    good = SystemSpec(2, Identical(1.0), Kinematics.NONRELATIVISTIC, pairwise=(term,))
    validate(good, ground(2))
    bad_kin = SystemSpec(
        2, Identical(1.0), Kinematics.SEMIRELATIVISTIC, pairwise=(term,)
    )
    with pytest.raises(UnsupportedForm):
        validate(bad_kin, ground(2))
    one_body = PotentialTerm(Scope.ONE_BODY, GaussianWell(1.0, 0.5))
    bad_scope = SystemSpec(
        2, Identical(1.0), Kinematics.NONRELATIVISTIC, one_body=(one_body,)
    )
    with pytest.raises(UnsupportedForm):
        validate(bad_scope, ground(2))


NAN, INF = math.nan, math.inf
SR = Kinematics.SEMIRELATIVISTIC


def per_particle_oscillator(masses):
    quadratic = PotentialTerm(Scope.PAIRWISE, PowerLaw(1.0, 2.0))
    return SystemSpec(
        3, PerParticle(masses), Kinematics.NONRELATIVISTIC, pairwise=(quadratic,)
    )


@pytest.mark.parametrize(
    "spec",
    [
        power_system(3, NAN, SR, pair=(0.2, 1.0)),
        power_system(3, INF, SR, pair=(0.2, 1.0)),
        power_system(3, 1.0, SR, pair=(NAN, 1.0)),
        power_system(3, 1.0, SR, pair=(INF, 1.0)),
        power_system(3, 1.0, SR, one=(0.2, 1.0), pair=(-INF, 1.0)),
        power_system(3, 1.0, SR, pair=(0.2, NAN)),
        power_system(3, 1.0, SR, pair=(0.2, INF)),
        power_system(3, 1.0, Kinematics.NONRELATIVISTIC, pair=(0.2, -INF)),
        per_particle_oscillator((1.0, NAN, 2.0)),
        per_particle_oscillator((1.0, INF, 2.0)),
        gaussian_system(3, 1.0, NAN, 0.5),
        gaussian_system(3, 1.0, INF, 0.5),
        gaussian_system(3, 1.0, 2.0, NAN),
        gaussian_system(3, 1.0, 2.0, INF),
    ],
)
def test_non_finite_inputs_rejected(spec):
    with pytest.raises(ValidationError):
        validate(spec, ground(3))


def test_per_particle_masses_validated():
    spec = SystemSpec(
        3,
        PerParticle((1.0, 2.0, 3.0)),
        Kinematics.NONRELATIVISTIC,
        pairwise=(PotentialTerm(Scope.PAIRWISE, PowerLaw(1.0, 2.0)),),
    )
    validate(spec, ground(3))


@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8
    )
)
def test_q_band_identity(modes):
    q = QuantumNumbers(tuple(modes))
    n = len(modes) + 1
    assert q.q == q.band + 1.5 * (n - 1)
    assert q.band >= 0
    assert q.band == int(q.band)


@given(st.integers(2, 9), st.integers(0, 6))
def test_validate_idempotent(n, band):
    modes = ((band, 0),) + ((0, 0),) * (n - 2)
    spec = power_system(n, 1.0, Kinematics.SEMIRELATIVISTIC, pair=(0.4, 1.0))
    q = QuantumNumbers(modes)
    first = validate(spec, q)
    second = validate(*first)
    assert second == (spec, q)


def test_potential_evaluation_sign_convention():
    rising = PowerLaw(0.5, 1.0)
    assert rising.evaluate(2.0) == pytest.approx(1.0)
    attractive_tail = PowerLaw(0.5, -1.0)
    assert attractive_tail.evaluate(2.0) == pytest.approx(-0.25)
    well = GaussianWell(2.0, 0.5)
    assert well.evaluate(0.0) == pytest.approx(-2.0)
    assert well.evaluate(2.0) == pytest.approx(-2.0 * math.exp(-1.0))


@pytest.mark.parametrize(
    "form, sign",
    [
        (PowerLaw(0.5, 1.0), -1.0),  # binding below lam = 2: concave
        (PowerLaw(0.5, -1.0), -1.0),
        (PowerLaw(0.5, 3.0), 1.0),  # convex growth
        (PowerLaw(-0.5, 1.0), 1.0),  # repulsion
        (PowerLaw(-0.5, 3.0), -1.0),
        (PowerLaw(0.5, 2.0), 0.0),  # quadratic: the surrogate is the potential
        (PowerLaw(0.0, 1.0), 0.0),
        (PowerLaw(5e-324, 0.5), -1.0),  # a subnormal coefficient keeps its sign
        (PowerLaw(-5e-324, 2.0000000000000004), -1.0),
        (GaussianWell(2.0, 0.5), -1.0),
    ],
)
def test_curvature_sign_of_g_in_r_squared(form, sign):
    assert form.curvature_sign() == sign


def test_power_evaluation_past_float_range():
    # r**exponent overflows, but the product with a small coefficient does not
    assert PowerLaw(1e-300, 300.0).evaluate(10.0) == pytest.approx(1.0, rel=1e-12)
    assert PowerLaw(1e-300, -300.0).evaluate(0.1) == pytest.approx(-1.0, rel=1e-12)
    assert PowerLaw(-2e-300, 300.0).evaluate(10.0) == pytest.approx(-2.0, rel=1e-12)
    assert PowerLaw(0.5, 300.0).evaluate(1e3) == math.inf
    assert PowerLaw(0.5, -300.0).evaluate(1e-3) == -math.inf
    assert PowerLaw(0.0, 300.0).evaluate(1e3) == 0.0


def test_at_scale_mu0_stays_finite_when_mass_squared_overflows():
    # m * m is inf above m ~ 1.3e154; Q X0 / N is negligible next to m^2 here
    sol = AFMSolution.at_scale(
        3, 1.53e249, 3.0, 2.7e133, 4.59e249, BoundCharacter.UPPER_BOUND
    )
    assert sol.mu0 == 1.53e249


def test_at_scale_mu0_is_the_plain_square_root_below_overflow():
    m, q, x0 = 1.7, 3.0, 2.3
    sol = AFMSolution.at_scale(3, m, q, x0, 1.0, BoundCharacter.UPPER_BOUND)
    assert sol.mu0 == math.sqrt(m * m + q * x0 / 3)


def test_at_scale_fields_stay_finite_where_q_x0_and_2q_overflow():
    # Q X0 = 1e400 and 2Q = 3.4e308 overflow; mu0 = sqrt(Q/N) sqrt(X0) and
    # r0_pair = sqrt(2) sqrt(Q/(N-1)) / sqrt(X0) do not (these read inf)
    sol = baryonic_ur(2, 1e200, 0.0, 1e200)
    assert sol.mu0 == pytest.approx(math.sqrt(0.5e200) * 1e100, rel=1e-15)
    sol = srho_mass(2, 0.0, 0.0, 5e-324, 1.7e308)
    assert sol.r0_pair == pytest.approx(2.0 * sol.r0_one, rel=1e-15)  # sqrt(2N/(N-1))
    assert sol.r0_pair == pytest.approx(3.25253082750063e210, rel=1e-14)


@pytest.mark.parametrize(
    "n, m, q, x0, field",
    [
        (2, 0.0, 1.7e308, 5e-324, "r0_one"),  # sqrt(Q/N) / sqrt(X0) = 9.2e315
        (3, 0.0, 1.7e308, 4e-309, "r0_pair"),  # r0_one = 1.2e308 stays finite
        (2, 1.7e308, 1.7e308, 1.7e308, "mu0"),
    ],
)
def test_at_scale_raises_where_a_field_leaves_the_float_range(n, m, q, x0, field):
    with pytest.raises(NumericalError, match=field):
        AFMSolution.at_scale(n, m, q, x0, 1.0, BoundCharacter.UPPER_BOUND)


def test_at_scale_fields_within_four_ulp_of_50_digits():
    # mu0 = hypot(m, sqrt(Q/N) sqrt(X0)), r0_one = sqrt(Q/N) / sqrt(X0) and
    # r0_pair = sqrt(2) sqrt(Q/(N-1)) / sqrt(X0) are one formula each across
    # the float range: every field whose value is a normal float comes back
    # within 4 ulp of it, and a raise means some field leaves the float range
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(29)
    ulp4 = 4 * sys.float_info.epsilon
    tiny, huge = sys.float_info.min, sys.float_info.max
    with mpmath.workdps(50):
        mp = mpmath.mpf
        for _ in range(2000):
            n = 2 + int(5 * rng.random())
            m = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-320.0, 308.0)
            q = 10.0 ** rng.uniform(-300.0, 300.0)
            x0 = 10.0 ** rng.uniform(-320.0, 308.0)
            exact = {
                "mu0": mpmath.sqrt(mp(m) ** 2 + mp(q) * mp(x0) / n),
                "r0_one": mpmath.sqrt(mp(q) / (n * mp(x0))),
                "r0_pair": mpmath.sqrt(2 * mp(q) / ((n - 1) * mp(x0))),
            }
            args = (n, m, q, x0)
            try:
                sol = AFMSolution.at_scale(n, m, q, x0, 1.0, BoundCharacter.UPPER_BOUND)
            except NumericalError:
                assert any(value > huge for value in exact.values()), args
                continue
            for name, value in exact.items():
                if tiny <= value <= huge:
                    assert abs(getattr(sol, name) - value) <= ulp4 * value, (name, args)


# ---------------------------------------------------------------------------
# the scaling law: rescale(spec, k) has every length times 2^k

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC


def test_rescale_applies_the_scaling_law():
    spec = SystemSpec(
        3, Identical(1.5), SR,
        (PotentialTerm(Scope.ONE_BODY, PowerLaw(0.75, 1.0)),),
        (PotentialTerm(Scope.PAIRWISE, PowerLaw(3.0, -0.5)),),
    )
    # m -> 2^-k m and c -> 2^(-k (lam + 1)) c
    assert rescale(spec, 2) == SystemSpec(
        3, Identical(0.375), SR,
        (PotentialTerm(Scope.ONE_BODY, PowerLaw(0.046875, 1.0)),),
        (PotentialTerm(Scope.PAIRWISE, PowerLaw(1.5, -0.5)),),
    )
    # a well's depth and its inverse length range_ each go to 2^-k times themselves
    assert rescale(gaussian_system(3, 2.0, 8.0, 0.5), -3) == gaussian_system(3, 16.0, 64.0, 4.0)


def test_rescale_round_trip_is_exact_and_validates():
    # whole powers of two at every k of a half-integer exponent: exact where
    # every input stays a normal float, and past the float range an input
    # reads inf, which validate rejects
    rng = random.Random(31)
    exponents = (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    for _ in range(200):
        kinematics = rng.choice((NR, SR))
        lams = [lam for lam in exponents if kinematics is NR or lam >= -1.0]
        spec = power_system(rng.randint(2, 6), rng.uniform(0.1, 10.0), kinematics,
                            one=(rng.uniform(0.1, 5.0), rng.choice(lams)),
                            pair=(rng.uniform(0.1, 5.0), rng.choice(lams)))
        q = ground(spec.n)
        for k in range(-200, 201, 20):  # every input stays a normal float
            scaled = rescale(spec, k)
            assert rescale(scaled, -k) == spec, k
            validate(scaled, q)
    with pytest.raises(ValidationError):
        validate(rescale(power_system(3, 1.0, SR, pair=(1.0, 1.0)), -600), ground(3))


def test_unit_scale_keeps_every_input_square_a_normal_float():
    # the oracle and the trial bound solve rescale(spec, k) at k = _unit_scale(spec):
    # every input of that spec, and a well's curvature depth range_^2 where
    # the oracle starts its field, keeps |log2 |x|| <= 511 unless no k does,
    # and then k = 0; validate accepts the rescaled spec either way
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 300:
        spec, q = wide_draw(rng, (NR, SR)[checked % 2])
        try:
            validate(spec, q)
        except ValidationError:
            continue
        if not spec.terms:
            continue
        checked += 1
        k = _unit_scale(spec)
        scaled = rescale(spec, k)
        validate(scaled, q)
        logs = [math.log2(scaled.masses.m)] if scaled.masses.m else []
        for t in scaled.terms:  # the coefficient of r^-1 does not scale
            if not isinstance(t.form, PowerLaw):
                log_depth, log_range = math.log2(t.form.depth), math.log2(t.form.range_)
                logs += [log_depth, log_range, log_depth + 2.0 * log_range]
            elif t.form.exponent != -1.0:
                logs.append(math.log2(abs(t.form.coefficient)))
        if k:
            assert all(abs(x) <= 511.0 for x in logs), (spec, k)


def test_unit_scale_is_covariant():
    # k of the spec with every length times 2^j is k - j, wherever the clamp
    # does not bind: both routes then solve the same spec
    for kinematics in (NR, SR):
        for lam in (-1.0, -0.5, 0.5, 1.0, 1.5, 3.0):
            spec = power_system(3, 1.3, kinematics, one=(0.4, lam), pair=(0.3, lam))
            k = _unit_scale(spec)
            for j in range(-200, 201, 40):
                assert _unit_scale(rescale(spec, j)) == k - j, (kinematics, lam, j)
    assert _unit_scale(power_system(2, 0.0, SR, pair=(0.5, -1.0))) == 0  # no scale at all


# One seeded covariance test per route: at k in _COVARIANCE_KS each value of
# rescale(spec, k) equals its value on spec times its power of 2^-k (mass,
# mu0: 1; X0: 2; the tangency radii: -1), within the pinned ulp counts of
# (mass, the other fields). Measured, then pinned; a pin may only tighten.
# afm_mass finds X0 by a search in logs, and a nonrelativistic mass is
# N m + E: the 2048 is a mass of -0.047 next to N m = 14.1.
_COVARIANCE_KS = (-200, -100, 0, 100, 200)
_FIELD_POWERS = (("mass", 1), ("x0", 2), ("mu0", 1), ("r0_one", -1), ("r0_pair", -1))
_ROUTE_PINS = {
    "afm-sr": (32, 653),
    "afm-nr": (2048, 2924),
    "afm-gaussian": (48, 473),
    "linear": (0, 0),
    "srho": (0, 0),
    "trial-bound": (0, 0),
}


def _route_draw(rng, route):
    """A bound spec of the route and its quantum numbers."""
    n = rng.randint(2, 5)
    modes = [(0, 0)] * (n - 1)
    modes[rng.randrange(n - 1)] = (rng.randint(0, 2), rng.randint(0, 2))
    q = QuantumNumbers(tuple(modes))
    m = rng.uniform(0.3, 3.0)
    exponents = (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    if route in ("afm-sr", "afm-nr"):
        kinematics = SR if route == "afm-sr" else NR
        lams = [lam for lam in exponents if kinematics is NR or lam >= -1.0]
        if kinematics is SR and rng.random() < 0.3:
            m = 0.0
        return power_system(n, m, kinematics, one=(rng.uniform(0.05, 2.0), rng.choice(lams)),
                            pair=(rng.uniform(0.05, 2.0), rng.choice(lams))), q
    if route in ("afm-gaussian", "trial-bound") and (route == "afm-gaussian" or rng.random() < 0.3):
        return gaussian_system(n, m, rng.uniform(5.0, 50.0), rng.uniform(0.05, 2.0)), ground(n)
    if route == "trial-bound":
        return power_system(n, m, NR, pair=(rng.uniform(0.05, 2.0), rng.choice(exponents[2:]))), None
    lam = 1.0 if route == "linear" else 2.0  # equal_power_mass hands these to linear_mass, srho_mass
    return power_system(n, m, SR, one=(rng.uniform(0.05, 2.0), lam), pair=(rng.uniform(0.05, 2.0), lam)), q


def _route_values(route, spec, q):
    """Each value of the route on spec with the power of 2^-k it scales by."""
    if route == "trial-bound":
        return {"bound": (gaussian_trial_bound(spec), 1)}
    solve = afm_mass if route.startswith("afm") else equal_power_mass
    sol = solve(spec, q)
    return {name: (getattr(sol, name), power) for name, power in _FIELD_POWERS}


@pytest.mark.parametrize("route", list(_ROUTE_PINS))
def test_route_is_scale_covariant(route):
    rng = random.Random(route)
    mass_pin, field_pin = _ROUTE_PINS[route]
    solved = 0
    while solved < 40:
        spec, q = _route_draw(rng, route)
        try:
            base = _route_values(route, spec, q)
        except NumericalError:
            continue  # no bound state
        solved += 1
        for k in _COVARIANCE_KS:
            for name, (value, power) in _route_values(route, rescale(spec, k), q).items():
                expected = math.ldexp(base[name][0], -power * k)
                pin = mass_pin if name in ("mass", "bound") else field_pin
                assert abs(value - expected) <= pin * math.ulp(expected), (name, spec, k)


# ---------------------------------------------------------------------------
# the value-record contract: every value type compares, hashes, prints,
# pickles and copies as it did as a frozen dataclass, and cannot be changed

_PAIR = PotentialTerm(Scope.PAIRWISE, PowerLaw(1.0, 2.0))

# (builder of a fresh value, the value's repr as a frozen dataclass printed it)
RECORDS = [
    pytest.param(
        lambda: PowerLaw(1.0, 2.0), "PowerLaw(coefficient=1.0, exponent=2.0)", id="PowerLaw"
    ),
    pytest.param(
        lambda: GaussianWell(2.0, 0.5), "GaussianWell(depth=2.0, range_=0.5)", id="GaussianWell"
    ),
    pytest.param(
        lambda: PotentialTerm(Scope.PAIRWISE, PowerLaw(1.0, 2.0)),
        "PotentialTerm(scope=<Scope.PAIRWISE: 'pairwise'>, "
        "form=PowerLaw(coefficient=1.0, exponent=2.0))",
        id="PotentialTerm",
    ),
    pytest.param(lambda: Identical(1.0), "Identical(m=1.0)", id="Identical"),
    pytest.param(
        lambda: PerParticle((1.0, 2.5)), "PerParticle(values=(1.0, 2.5))", id="PerParticle"
    ),
    pytest.param(
        lambda: SystemSpec(2, Identical(1.0), Kinematics.NONRELATIVISTIC, pairwise=(_PAIR,)),
        "SystemSpec(n=2, masses=Identical(m=1.0), "
        "kinematics=<Kinematics.NONRELATIVISTIC: 'nonrelativistic'>, one_body=(), "
        "pairwise=(PotentialTerm(scope=<Scope.PAIRWISE: 'pairwise'>, "
        "form=PowerLaw(coefficient=1.0, exponent=2.0)),))",
        id="SystemSpec",
    ),
    pytest.param(
        lambda: QuantumNumbers(((1, 0), (0, 2))),
        "QuantumNumbers(modes=((1, 0), (0, 2)))",
        id="QuantumNumbers",
    ),
    pytest.param(
        lambda: AFMSolution(3.5, 0.25, 1.5, 2.0, 3.0, BoundCharacter.UPPER_BOUND),
        "AFMSolution(mass=3.5, x0=0.25, mu0=1.5, r0_one=2.0, r0_pair=3.0, "
        "bound_character=<BoundCharacter.UPPER_BOUND: 'upper'>)",
        id="AFMSolution",
    ),
    pytest.param(
        lambda: OracleReport(1.0, 1.5, 0.5, Verdict.VIOLATION, 1e-08),
        "OracleReport(closed_form=1.0, oracle_value=1.5, relative_gap=0.5, "
        "verdict=<Verdict.VIOLATION: 'violation'>, tolerance=1e-08)",
        id="OracleReport",
    ),
    pytest.param(
        lambda: _FieldTerm(-3.0, 3.0, 1, math.sqrt, 0.5, None),
        "_FieldTerm(spring=-3.0, weight=3.0, sense=1, "
        "offset=<built-in function sqrt>, init=0.5, power=None)",
        id="_FieldTerm",
    ),
    pytest.param(
        lambda: BaryonParams(0.2, 0.4, BaryonVariant.M2),
        "BaryonParams(lambda_string=0.2, alpha_s=0.4, variant=<BaryonVariant.M2: 'm2'>)",
        id="BaryonParams",
    ),
    pytest.param(
        lambda: GaussianSpectrum(-0.5, 3.0, 1.5, 0.25, 2.0, BoundCharacter.UNKNOWN),
        "GaussianSpectrum(energy=-0.5, g=3.0, g_critical=1.5, y=0.25, w0=2.0, "
        "bound_character=<BoundCharacter.UNKNOWN: 'unknown'>)",
        id="GaussianSpectrum",
    ),
    pytest.param(
        lambda: HOSpectrumEntry((1.0, 2.0), 4.5),
        "HOSpectrumEntry(omegas=(1.0, 2.0), energy=4.5)",
        id="HOSpectrumEntry",
    ),
]


def _field_values(value):
    return [getattr(value, name) for name in value.__slots__]


@pytest.mark.parametrize("make, text", RECORDS)
def test_equal_fields_give_equal_values_and_hashes(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # keywords bind as positions do
    assert type(a)(**dict(zip(a.__slots__, _field_values(a)))) == a


@pytest.mark.parametrize("make, text", RECORDS)
def test_repr_is_the_frozen_dataclass_repr(make, text):
    assert repr(make()) == text


def test_values_of_different_classes_never_compare_equal():
    assert PowerLaw(1.0, 2.0) != GaussianWell(1.0, 2.0)
    assert PowerLaw(1.0, 2.0) != (1.0, 2.0)
    assert Identical(1.0) != PerParticle(1.0)
    values = [param.values[0]() for param in RECORDS]
    for i, a in enumerate(values):
        assert a != tuple(_field_values(a))
        for b in values[i + 1:]:
            assert a != b and b != a


@pytest.mark.parametrize("make, text", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(make, text):
    value = make()
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0.0
    assert not hasattr(value, "__dict__")
    assert repr(value) == text


@pytest.mark.parametrize("make, text", RECORDS)
def test_pickle_and_copy_round_trip(make, text):
    value = make()
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == text


@pytest.mark.parametrize("make, text", RECORDS)
def test_missing_unknown_or_duplicate_field_raises_type_error(make, text):
    value = make()
    cls, names, values = type(value), value.__slots__, _field_values(value)
    with pytest.raises(TypeError):  # the first field never has a default
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, unknown=1.0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, 1.0)


def test_record_defaults():
    spec = SystemSpec(3, Identical(1.0), Kinematics.NONRELATIVISTIC)
    assert spec.one_body == () and spec.pairwise == ()
    assert BaryonParams(0.2, 0.4).variant is BaryonVariant.M0
    level = GaussianSpectrum(energy=-0.5, g=3.0, g_critical=1.5, y=0.25, w0=2.0)
    assert level.bound_character is BoundCharacter.UPPER_BOUND
    assert level == GaussianSpectrum(-0.5, 3.0, 1.5, 0.25, 2.0, BoundCharacter.UPPER_BOUND)
