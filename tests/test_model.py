import math

import pytest
from hypothesis import given, strategies as st

from auxfield.errors import (
    InvalidCoefficient,
    InvalidExponent,
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
    validate,
)
from conftest import gaussian_system, ground, power_system


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
