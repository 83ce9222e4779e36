import copy
import math
import pickle

import numpy as np
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
from auxfield.ho import HOSpectrumEntry, QuadraticForm
from auxfield.oracles import OracleReport, Verdict, _FieldTerm
from auxfield.systems import BaryonParams, BaryonVariant, GaussianSpectrum
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


def _quadratic_form():
    return QuadraticForm(*(np.full((1, 1), float(k)) for k in range(6)))


QUADRATIC_FORM_REPR = (
    "QuadraticForm(u=array([[0.]]), b=array([[1.]]), lam=array([[2.]]), "
    "f=array([[3.]]), g=array([[4.]]), j=array([[5.]]))"
)


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


@pytest.mark.parametrize(
    "make, text",
    RECORDS + [pytest.param(_quadratic_form, QUADRATIC_FORM_REPR, id="QuadraticForm")],
)
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


def test_quadratic_form_keeps_identity_equality():
    form = _quadratic_form()
    assert form == form and hash(form) == hash(form)
    assert form != _quadratic_form()  # arrays have no value equality
    for back in (pickle.loads(pickle.dumps(form)), copy.copy(form), copy.deepcopy(form)):
        assert type(back) is QuadraticForm
        assert all(np.array_equal(x, y) for x, y in zip(_field_values(back), _field_values(form)))


def test_record_defaults():
    spec = SystemSpec(3, Identical(1.0), Kinematics.NONRELATIVISTIC)
    assert spec.one_body == () and spec.pairwise == ()
    assert BaryonParams(0.2, 0.4).variant is BaryonVariant.M0
    level = GaussianSpectrum(energy=-0.5, g=3.0, g_critical=1.5, y=0.25, w0=2.0)
    assert level.bound_character is BoundCharacter.UPPER_BOUND
    assert level == GaussianSpectrum(-0.5, 3.0, 1.5, 0.25, 2.0, BoundCharacter.UPPER_BOUND)
