import contextlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from auxfield import engine
from auxfield.engine import (
    afm_mass,
    auxiliary_k,
    bound_character,
    equal_power_mass,
    linear_mass,
)
from auxfield.errors import (
    DomainError,
    NonPositiveSlope,
    NoPositiveRoot,
    NumericalError,
    UnsupportedCombination,
    ValidationError,
)
from auxfield.ho import ho_energy_identical, srho_mass
from auxfield.model import (
    BoundCharacter,
    GaussianWell,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
)
from auxfield.oracles import _field_term, numeric_afm_minimize
from auxfield.systems import baryonic_ur, gaussian_spectrum
from conftest import gaussian_system, ground, power_system

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC


# ---------------------------------------------------------------------------
# tangency maps


def test_power_tangency_map():
    k = auxiliary_k(PotentialTerm(Scope.ONE_BODY, PowerLaw(2.0, 1.0)))
    for x in (0.3, 1.0, 2.5):
        assert k(x) == pytest.approx(1.0 / x, rel=1e-14)


def test_quadratic_term_is_degenerate():
    # an exponent of exactly 2 makes K the constant spring coefficient
    k = auxiliary_k(PotentialTerm(Scope.ONE_BODY, PowerLaw(1.0, 2.0)))
    for x in (0.37, 1.0, 4.2):
        assert k(x) == pytest.approx(1.0)


def offset_round_trip_gap(term, x):
    """The oracle's offset V(I(nu)) - nu I(nu)^2 at nu = K(x), against V(x) - K(x) x^2.

    The two agree only if the oracle's inverse I sends K(x) back to x.
    """
    nu = auxiliary_k(term)(x)
    expected = term.evaluate(x) - nu * x * x
    return abs(_field_term(term).offset(nu) - expected) / abs(expected)


@pytest.mark.parametrize("coef,lam", [(2.0, 1.0), (0.5, -1.0), (1.3, 1.5), (0.7, 3.0)])
def test_power_inverse_round_trip(coef, lam):
    term = PotentialTerm(Scope.PAIRWISE, PowerLaw(coef, lam))
    for x in np.linspace(0.1, 3.0, 7):
        assert offset_round_trip_gap(term, x) < 1e-10


def test_gaussian_inverse_round_trip():
    term = PotentialTerm(Scope.PAIRWISE, GaussianWell(10.0, 1.0))
    for x in np.linspace(0.1, 3.0, 9):
        assert offset_round_trip_gap(term, x) < 1e-10


# ---------------------------------------------------------------------------
# generic solve against the dedicated closed forms


def x0_residual(spec, q, sol):
    n, m, qq = spec.n, spec.identical_mass, q.q
    r1 = math.sqrt(qq / (n * sol.x0))
    r2 = math.sqrt(2.0 * qq / ((n - 1) * sol.x0))
    total = 0.0
    if spec.one_body:
        total += auxiliary_k(spec.one_body[0])(r1)
    if spec.pairwise:
        total += n * auxiliary_k(spec.pairwise[0])(r2)
    if spec.kinematics is SR:
        rhs = 2.0 * math.sqrt(m * m + qq * sol.x0 / n) * total
    else:
        rhs = 2.0 * m * total
    return abs(rhs - sol.x0**2) / sol.x0**2


def test_ur_linear_coulomb_matches_baryonic_closed_form():
    spec = power_system(3, 0.0, SR, one=(0.2, 1.0), pair=(0.6, -1.0))
    sol = afm_mass(spec, ground(3))
    closed = baryonic_ur(3, 0.2, 0.6, 3.0)
    assert sol.mass == pytest.approx(closed.mass, rel=1e-10)
    assert sol.x0 == pytest.approx(closed.x0, rel=1e-9)
    assert x0_residual(spec, ground(3), sol) < 1e-10


def test_nr_quadratic_reduces_to_oscillator():
    spec = power_system(4, 1.5, NR, pair=(0.8, 2.0))
    sol = afm_mass(spec, ground(4))
    exact = ho_energy_identical(4, 1.5, 0.0, 0.8, ground(4).q)
    assert sol.mass - 4 * 1.5 == pytest.approx(exact, rel=1e-12)
    assert sol.bound_character is BoundCharacter.EXACT


def test_sr_pairwise_linear_matches_linear_mass():
    spec = power_system(3, 1.0, SR, pair=(0.2, 1.0))
    sol = afm_mass(spec, ground(3))
    closed = linear_mass(3, 1.0, 0.0, 0.2, 3.0)
    assert sol.mass == pytest.approx(closed.mass, rel=1e-10)
    assert x0_residual(spec, ground(3), sol) < 1e-10


def test_kinetic_identity_and_tangency_reconstruction():
    # every producer of a solution record: the generic solve and each closed form
    cases = [
        (spec, afm_mass(spec, ground(spec.n)))
        for spec in (
            power_system(3, 1.0, SR, one=(0.3, 1.0), pair=(0.2, -1.0)),
            power_system(4, 0.5, SR, pair=(0.7, 1.0)),
            power_system(3, 2.0, NR, one=(0.4, 1.5), pair=(0.3, 1.5)),
            gaussian_system(3, 1.0, 2.0, 0.5),
        )
    ]
    cases += [
        (spec, equal_power_mass(spec, ground(spec.n)))
        for spec in (
            power_system(3, 2.0, NR, one=(0.4, 1.5), pair=(0.3, 1.5)),
            power_system(3, 0.0, SR, one=(0.2, 1.5), pair=(0.1, 1.5)),
            power_system(3, 1.2, SR, one=(0.4, 2.0), pair=(0.2, 2.0)),
            power_system(4, 1.2, SR, one=(0.3, 1.0), pair=(0.25, 1.0)),
            power_system(3, 1.0, SR, one=(0.3, -1.0), pair=(-0.1, -1.0)),
        )
    ]
    for m in (0.0, 1.0):
        spec = power_system(3, m, SR, one=(0.2, 1.0), pair=(0.15, 1.0))
        cases.append((spec, linear_mass(3, m, 0.2, 0.15, 3.0)))
        spec = power_system(3, m, SR, one=(0.4, 2.0), pair=(0.2, 2.0))
        cases.append((spec, srho_mass(3, m, 0.4, 0.2, 3.0)))
    spec = power_system(3, 0.0, SR, one=(0.2, 1.0), pair=(0.6, -1.0))
    cases.append((spec, baryonic_ur(3, 0.2, 0.6, 3.0)))
    for spec, sol in cases:
        q = ground(spec.n)
        n, m, qq = spec.n, spec.identical_mass, q.q
        assert sol.mu0**2 - m * m == pytest.approx(qq * sol.x0 / n, rel=1e-10)
        assert sol.x0 > 0
        assert sol.r0_one == pytest.approx(math.sqrt(qq / (n * sol.x0)), rel=1e-15)
        assert sol.r0_pair == pytest.approx(
            math.sqrt(2.0 * qq / ((n - 1) * sol.x0)), rel=1e-15
        )
        pot = 0.0
        if spec.one_body:
            pot += n * spec.one_body[0].evaluate(sol.r0_one)
        if spec.pairwise:
            pot += n * (n - 1) / 2.0 * spec.pairwise[0].evaluate(sol.r0_pair)
        if spec.kinematics is SR:
            reconstructed = n * sol.mu0 + pot
        else:
            reconstructed = n * m + qq * sol.x0 / (2.0 * m) + pot
        assert sol.mass == pytest.approx(reconstructed, rel=1e-10)
        assert x0_residual(spec, q, sol) < 1e-10


def test_dedicated_closed_forms_satisfy_scale_equation():
    # X0 from the specialized formulas must solve the same scale equation
    q = ground(3)
    spec = power_system(3, 1.0, SR, one=(0.2, 1.0), pair=(0.15, 1.0))
    assert x0_residual(spec, q, linear_mass(3, 1.0, 0.2, 0.15, q.q)) < 1e-12
    spec = power_system(3, 1.2, SR, one=(0.4, 2.0), pair=(0.2, 2.0))
    assert x0_residual(spec, q, srho_mass(3, 1.2, 0.4, 0.2, q.q)) < 1e-12
    spec = power_system(3, 1.0, SR, one=(0.3, -1.0), pair=(-0.1, -1.0))
    assert x0_residual(spec, q, equal_power_mass(spec, q)) < 1e-12
    spec = power_system(3, 0.0, SR, one=(0.2, 1.0), pair=(0.6, -1.0))
    assert x0_residual(spec, q, baryonic_ur(3, 0.2, 0.6, q.q)) < 1e-12


def test_mixed_exponent_couple_through_numeric_solver():
    # unequal one-body/pairwise exponents only have the generic route; it must
    # still agree with the direct field extremization
    from auxfield.oracles import numeric_afm_minimize

    spec = power_system(3, 1.0, SR, one=(0.4, -0.5), pair=(0.3, -1.0))
    sol = afm_mass(spec, ground(3))
    assert sol.mass == pytest.approx(numeric_afm_minimize(spec, ground(3)), rel=1e-8)
    assert x0_residual(spec, ground(3), sol) < 1e-10


@pytest.mark.parametrize("kinematics", [NR, SR], ids=["nr", "sr"])
@pytest.mark.parametrize("scope", ["one", "pair"])
@pytest.mark.parametrize("lam", [100.0, 150.0, 300.0])
def test_steep_power_overflow_reads_as_infinite_field(lam, scope, kinematics):
    # x^(lam - 2) overflows on the outer root-scan grid; the tangency map must
    # read that as an infinite field rather than raise OverflowError
    spec = power_system(3, 1.0, kinematics, **{scope: (0.3, lam)})
    sol = afm_mass(spec, ground(3))
    assert sol.mass == pytest.approx(numeric_afm_minimize(spec, ground(3)), rel=1e-12)


def test_excited_steep_power_skips_overflowing_scale_candidate():
    # at Q ~ 2000 the grid-centering magnitude of a lam = 299 term overflows;
    # the other candidates still bracket the root
    spec = power_system(3, 1.0, SR, pair=(0.2, 299.0))
    q = QuantumNumbers(((0, 0), (2000, 0)))
    sol = afm_mass(spec, q)
    assert sol.mass == pytest.approx(numeric_afm_minimize(spec, q), rel=1e-12)


def test_no_false_root_where_x0_squared_overflows():
    # X0^2 reached inf at X0 = sqrt(DBL_MAX), a false sign change of the
    # scale equation that gave -2.75e153; the true root X0 = 6.7e164 lies
    # where the field sum itself overflows
    spec = power_system(3, 1.0, NR, pair=(10.0, -1.99))
    q = ground(3)
    try:
        mass = afm_mass(spec, q).mass
    except NumericalError:
        return
    assert mass == pytest.approx(equal_power_mass(spec, q).mass, rel=1e-12)


def test_root_where_the_field_sum_overflows():
    # 2 mu F(X0) leaves the float range at the root X0 = 6.66e164; the
    # structured solve works in logs, where the grid scan found no root
    spec = power_system(3, 1.0, NR, pair=(10.0, -1.99))
    q = ground(3)
    sol = afm_mass(spec, q)
    assert sol.mass == pytest.approx(equal_power_mass(spec, q).mass, rel=1e-12)
    assert sol.mass == pytest.approx(-5.02023e162, rel=1e-6)


def test_root_below_the_grid_window():
    # the root X0 = 1.4e-308 lies below any log grid centred on the scale
    # candidates, and 2Q / ((N-1) X0) overflows where the radius does not
    spec = power_system(8, 690.0, SR, pair=(1e-260, 1e-48))
    q = QuantumNumbers(((500, 1000),) * 7)
    oracle = numeric_afm_minimize(spec, q)
    assert oracle == pytest.approx(5520.0, rel=1e-12)
    assert afm_mass(spec, q).mass == pytest.approx(oracle, rel=1e-12)
    assert equal_power_mass(spec, q).mass == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize(
    "m,depth,range_",
    [(1e150, 2.0, 0.5), (1e300, 1e300, 1.0)],
    ids=["window-past-dbl-max", "no-finite-scale"],
)
def test_grid_window_clamped_to_the_float_range(m, depth, range_):
    # 1e10 m^2 leaves the float range, and with m^2 and 2 m N depth range^2
    # both past it no scale is finite: the grid scans the normal floats. In
    # the second well 2 m F overflows near the root, where 2 m F / X0 does not
    spec = gaussian_system(3, m, depth, range_)
    q = ground(3)
    sol = afm_mass(spec, q)
    closed = 3.0 * m + gaussian_spectrum(3, m, depth, range_, q.q).energy
    assert sol.mass == pytest.approx(closed, rel=1e-12, abs=1e-12 * 3.0 * m)
    # a deep well holds each pair at its bottom: X0^2 = 2 m N depth range^2
    assert sol.x0 == pytest.approx(math.sqrt(6.0 * depth) * range_ * math.sqrt(m), rel=1e-12)


@pytest.mark.parametrize(
    "kinematics,mass,one,pair",
    [
        (SR, 0.0, None, (5.0, -0.999)),
        (NR, 1.0, (5.0, -0.999), (0.1, 1.0)),
        (SR, 1.0, (5.0, -0.999), (0.1, 1.0)),
    ],
    ids=["massless-pair", "nr-mixed", "sr-mixed"],
)
def test_overflowing_scale_candidate_is_skipped(kinematics, mass, one, pair):
    # (Q/N amp^2)^(1/(lam+1)) overflows for lam + 1 = 0.001; the solve must
    # end in a mass or a typed error, not OverflowError
    spec = power_system(3, mass, kinematics, one=one, pair=pair)
    try:
        sol = afm_mass(spec, ground(3))
    except NumericalError:
        return
    assert sol.mass == pytest.approx(numeric_afm_minimize(spec, ground(3)), rel=1e-12)


def test_equal_power_massless_overflowing_scale_is_domain_error():
    spec = power_system(3, 0.0, SR, pair=(5.0, -0.999))
    with pytest.raises(DomainError):
        equal_power_mass(spec, ground(3))


def test_mass_past_the_float_range_raises():
    # X0 = 3.4e302 is a float, the mass -2.7e313 is not
    spec = power_system(3, 1e-12, NR, pair=(2e27, -1.9))
    for solve in (afm_mass, equal_power_mass):
        with pytest.raises(NumericalError):
            solve(spec, ground(3))


def test_mass_whose_parts_overflow():
    # the kinetic and potential parts, 4.8e308 and -5.1e308, leave the float
    # range but their sum does not: the binding is summed in quarters and
    # scaled back; the closed form takes the sum in logs (50-digit value)
    spec = power_system(3, 1e-12, NR, pair=(1e27, -1.9))
    sol = afm_mass(spec, ground(3))
    closed = equal_power_mass(spec, ground(3))
    assert sol.mass == pytest.approx(closed.mass, rel=1e-13)
    assert closed.mass == pytest.approx(-2.5533234713086065e307, rel=1e-13)
    assert sol.x0 == pytest.approx(3.2342097303242318e296, rel=1e-12)
    assert closed.x0 == pytest.approx(3.2342097303242318e296, rel=1e-12)


def test_gaussian_tie_picks_the_deep_well():
    # both roots give masses that round to 3 m = 3e300; their bindings,
    # about -3e10 in the well and ~0 far apart, are not tied. The well's
    # root is X0 = sqrt(2 m N depth) range = 2.45e155
    m, depth = 1e300, 1e10
    spec = gaussian_system(3, m, depth, 1.0)
    sol = afm_mass(spec, ground(3))
    assert sol.x0 == pytest.approx(math.sqrt(6.0 * depth) * math.sqrt(m), rel=1e-12)
    closed = 3.0 * m + gaussian_spectrum(3, m, depth, 1.0, ground(3).q).energy
    assert sol.mass == pytest.approx(closed, rel=1e-12)


def test_mass_monotone_in_pair_strength():
    masses = []
    for b in (0.1, 0.2, 0.4, 0.8):
        spec = power_system(3, 1.0, SR, pair=(b, 1.0))
        masses.append(afm_mass(spec, ground(3)).mass)
    assert all(later > earlier for earlier, later in zip(masses, masses[1:]))


def test_no_positive_root_when_over_critical():
    # attraction beyond collapse: inverse-distance coupling too strong
    spec = power_system(3, 1.0, SR, one=(3.0, -1.0))
    with pytest.raises(NoPositiveRoot):
        afm_mass(spec, ground(3))


def test_afm_mass_rejects_multiple_terms_per_scope():
    term = PotentialTerm(Scope.PAIRWISE, PowerLaw(0.2, 1.0))
    spec = power_system(3, 1.0, SR, pair=(0.2, 1.0))
    doubled = type(spec)(
        n=spec.n,
        masses=spec.masses,
        kinematics=spec.kinematics,
        one_body=(),
        pairwise=(term, term),
    )
    with pytest.raises(UnsupportedCombination):
        afm_mass(doubled, ground(3))


# ---------------------------------------------------------------------------
# equal powers


def test_equal_power_massless_linear():
    spec = power_system(3, 0.0, SR, pair=(0.2, 1.0))
    sol = equal_power_mass(spec, ground(3))
    c = 0.2 * math.sqrt(3.0)
    assert sol.mass == pytest.approx(math.sqrt(4.0 * 3.0 * c * 3.0), rel=1e-13)
    assert sol.mass == pytest.approx(3.5313971476592543, rel=1e-13)


def test_equal_power_nonrelativistic_linear():
    spec = power_system(3, 1.0, NR, one=(0.2, 1.0))
    sol = equal_power_mass(spec, ground(3))
    assert sol.mass == pytest.approx(
        3.0 + 1.5 * (3.0 * 9.0 * 0.04) ** (1.0 / 3.0), rel=1e-13
    )
    assert sol.mass == pytest.approx(4.538978352009027, rel=1e-13)


@pytest.mark.parametrize("m", [0.0, 1.0, 2.7])
def test_equal_power_quadratic_equals_oscillator_formula(m):
    spec = power_system(3, m, SR, one=(0.4, 2.0), pair=(0.2, 2.0))
    sol = equal_power_mass(spec, ground(3))
    osc = srho_mass(3, m, 0.4, 0.2, 3.0)
    assert sol.mass == pytest.approx(osc.mass, rel=1e-12)
    assert sol.x0 == pytest.approx(osc.x0, rel=1e-12)


def test_equal_power_numeric_fallback_matches_generic():
    spec = power_system(3, 1.0, SR, pair=(0.5, 0.5))
    via_fallback = equal_power_mass(spec, ground(3))
    generic = afm_mass(spec, ground(3))
    assert via_fallback.mass == pytest.approx(generic.mass, rel=1e-11)


def test_equal_power_sr_linear_matches_linear_mass():
    spec = power_system(4, 1.2, SR, one=(0.3, 1.0), pair=(0.25, 1.0))
    sol = equal_power_mass(spec, ground(4))
    closed = linear_mass(4, 1.2, 0.3, 0.25, ground(4).q)
    assert sol.mass == pytest.approx(closed.mass, rel=1e-13)


STEEP_MASSLESS = [(60.0, (2000, 0)), (150.0, (2000, 0)), (300.0, (2000, 0)), (300.0, (55, 1))]
STEEP_NR = [(1e3, 150.0, 3000.0051475), (1e-3, 150.0, 4291.8976507), (1e-5, 60.0, 335416.11193)]


@pytest.mark.parametrize("lam,mode", STEEP_MASSLESS)
def test_equal_power_massless_steep_excited_matches_afm_mass(lam, mode):
    # X0 and the mass are finite although c*c (lam 60, 150) or the amplitude
    # itself (lam 300: its power overflows, or at Q = 114 its product) leaves
    # the float range
    spec = power_system(3, 0.0, SR, pair=(0.2, lam))
    q = QuantumNumbers(((0, 0), mode))
    sol = equal_power_mass(spec, q)
    assert sol.mass == pytest.approx(afm_mass(spec, q).mass, rel=1e-12)


@pytest.mark.parametrize("m,lam,expected", STEEP_NR)
def test_equal_power_nonrelativistic_steep_power_is_finite(m, lam, expected):
    # m**lam and c * c leave the float range where X0 and the mass do not
    spec = power_system(3, m, NR, pair=(0.2, lam))
    sol = equal_power_mass(spec, ground(3))
    assert sol.mass == pytest.approx(afm_mass(spec, ground(3)).mass, rel=1e-12)
    assert sol.mass == pytest.approx(expected, rel=1e-10)


def test_equal_power_nonrelativistic_and_massless_never_call_afm_mass():
    # otherwise the two steep tests above would compare afm_mass with itself
    cases = [
        (power_system(3, 0.0, SR, pair=(0.2, lam)), QuantumNumbers(((0, 0), mode)))
        for lam, mode in STEEP_MASSLESS
    ]
    cases += [(power_system(3, m, NR, pair=(0.2, lam)), ground(3)) for m, lam, _ in STEEP_NR]
    with mock.patch.object(engine, "afm_mass", side_effect=AssertionError("afm_mass called")):
        for spec, q in cases:
            assert math.isfinite(equal_power_mass(spec, q).mass)


@pytest.mark.parametrize(
    "spec",
    [
        power_system(3, 1.0, NR, one=(0.1, 1.0), pair=(-1.0, 1.0)),
        power_system(3, 0.0, SR, pair=(0.5, -1.0)),
        power_system(3, 1.0, SR, one=(5.0, -1.0), pair=(5.0, -1.0)),
    ],
    ids=["non-binding-amplitude", "massless-inverse-distance", "massive-beyond-collapse"],
)
def test_equal_power_no_positive_root(spec):
    with pytest.raises(NoPositiveRoot):
        equal_power_mass(spec, ground(3))


def test_equal_power_requires_matching_exponents():
    spec = power_system(3, 1.0, SR, one=(0.2, 1.0), pair=(0.3, -1.0))
    with pytest.raises(UnsupportedCombination):
        equal_power_mass(spec, ground(3))


# ---------------------------------------------------------------------------
# linear systems


def test_linear_massless_matches_baryonic_without_coulomb():
    sol = linear_mass(3, 0.0, 0.2, 0.0, 3.0)
    assert sol.mass == pytest.approx(math.sqrt(7.2), rel=1e-14)
    assert sol.mass == pytest.approx(baryonic_ur(3, 0.2, 0.0, 3.0).mass, rel=1e-14)


def test_linear_massive_frozen_values():
    sol = linear_mass(3, 1.0, 0.2, 0.0, 3.0)
    y = 3.0**1.5 * 3.0 / (2.0 * 3.0 * 0.2)
    assert y == pytest.approx(12.990381056766578, rel=1e-14)
    assert sol.mass == pytest.approx(4.497528980141728, rel=1e-13)


def test_linear_nonrelativistic_limit_ratio():
    # binding over the nonrelativistic closed value approaches one from above
    n, a, q = 3, 0.2, 3.0
    ratios = []
    for m in (1e2, 1e3, 1e4):
        binding = linear_mass(n, m, a, 0.0, q).mass - n * m
        nr_value = 1.5 * (n * q * q * a * a / m) ** (1.0 / 3.0)
        ratios.append(binding / nr_value)
    assert abs(ratios[1] - 1.0) < 1e-3
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_linear_rejects_nonpositive_slope():
    with pytest.raises(NonPositiveSlope):
        linear_mass(3, 1.0, 0.0, 0.0, 3.0)


# ---------------------------------------------------------------------------
# bound character


def test_bound_character_rules():
    assert bound_character(gaussian_system(3, 1.0, 2.0, 0.5)) is BoundCharacter.UPPER_BOUND
    assert (
        bound_character(power_system(3, 1.0, NR, pair=(1.0, 2.0)))
        is BoundCharacter.EXACT
    )
    assert (
        bound_character(power_system(3, 1.0, SR, pair=(0.5, -1.0)))
        is BoundCharacter.UPPER_BOUND
    )
    assert (
        bound_character(power_system(3, 1.0, NR, pair=(0.5, 3.0)))
        is BoundCharacter.LOWER_BOUND
    )
    assert (
        bound_character(power_system(3, 1.0, SR, pair=(0.5, 3.0)))
        is BoundCharacter.UNKNOWN
    )
    assert (
        bound_character(power_system(3, 1.0, NR, one=(0.5, 1.0), pair=(0.5, 3.0)))
        is BoundCharacter.UNKNOWN
    )


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_afm_mass_rejects_unusable_tolerance(tolerance):
    spec = power_system(3, 1.0, Kinematics.SEMIRELATIVISTIC, pair=(0.2, 1.0))
    with pytest.raises(ValidationError):
        afm_mass(spec, ground(3), tolerance=tolerance)


# ---------------------------------------------------------------------------
# structured scale-equation solve against the log-grid scan


def _grid_only():
    # without power terms _scale_roots falls back to the grid, as every spec did
    return mock.patch.object(engine, "_power_terms", lambda spec, qq: None)


def _solve_routes(spec, q):
    """(roots, solution or error type) by the structured solve, then by the grid."""
    out = []
    for route in (contextlib.nullcontext(), _grid_only()):
        with route:
            try:
                roots = engine._scale_roots(spec, q.q, 1e-12)
            except NumericalError as exc:
                roots = type(exc)
            try:
                result = afm_mass(spec, q)
            except NumericalError as exc:
                result = type(exc)
        out.append((roots, result))
    return out


def _mass_parts(spec, q, x0):
    """Sum of the magnitudes of the kinetic and potential parts of the mass at X0."""
    n, m = spec.n, spec.identical_mass
    r1, r2 = math.sqrt(q.q / (n * x0)), math.sqrt(2.0 * q.q / ((n - 1) * x0))
    parts = n * math.hypot(m, math.sqrt(q.q * x0 / n))
    parts += sum(n * abs(t.evaluate(r1)) for t in spec.one_body)
    return parts + sum(n * (n - 1) / 2.0 * abs(t.evaluate(r2)) for t in spec.pairwise)


@st.composite
def _power_specs(draw):
    """One- and two-power specs: NR, massless and massive SR, either sign."""
    kind = draw(st.sampled_from(["nr", "massless", "massive"]))
    m = 0.0 if kind == "massless" else draw(st.floats(0.1, 5.0))
    lam_min = -1.5 if kind == "nr" else -0.8
    n = draw(st.integers(2, 6))
    layout = draw(st.sampled_from(["one", "pair", "both"]))
    signs = (1.0, 1.0) if layout != "both" else draw(
        st.sampled_from([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)])
    )
    exponent = st.one_of(st.floats(lam_min, -0.1), st.floats(0.1, 3.0))
    lams = [draw(exponent)]
    lams.append(lams[0] if draw(st.booleans()) else draw(exponent))
    # nearly equal distinct powers cancel in F: neither route then holds X0
    # to 1e-12, since rounding moves the root by eps / (exponent gap)
    assume(lams[1] == lams[0] or abs(lams[1] - lams[0]) >= 0.05)
    terms = [(sign * draw(st.floats(0.05, 3.0)), lam) for sign, lam in zip(signs, lams)]
    one = terms[0] if layout != "pair" else None
    pair = terms[1] if layout != "one" else None
    spec = power_system(n, m, NR if kind == "nr" else SR, one=one, pair=pair)
    q = QuantumNumbers(((draw(st.integers(0, 3)), 0),) + ((0, 0),) * (n - 2))
    return spec, q


@settings(max_examples=300, deadline=None)
@given(_power_specs())
def test_structured_solve_matches_grid(case):
    spec, q = case
    (roots, result), (grid_roots, grid_result) = _solve_routes(spec, q)
    scales = engine._scale_candidates(spec, q.q)
    # the grid spans 1e-10 min(scales) to 1e10 max(scales) at 24 points per
    # decade: compare where it sees every root and resolves each one, and
    # where its field terms do not underflow into false sign changes
    lo, hi = min(scales) * 1e-7, max(scales) * 1e7
    assume(hi / lo < 1e50)
    found = [r for r in (roots, grid_roots) if isinstance(r, list)]
    assume(all(lo < x < hi for r in found for x in r))
    assume(all(b / a > 1.5 for r in found for a, b in zip(r, r[1:])))
    if isinstance(result, type) or isinstance(grid_result, type):
        assert result is grid_result
        return
    assert len(roots) == len(grid_roots)
    for x, x_grid in zip(roots, grid_roots):
        assert x == pytest.approx(x_grid, rel=1e-12)
        rest = spec.n * spec.identical_mass
        mass = rest + engine._binding_at_x0(spec, q.q, x)
        grid_mass = rest + engine._binding_at_x0(spec, q.q, x_grid)
        # a mass that cancels its parts is known to their rounding only
        assert mass == pytest.approx(grid_mass, rel=1e-13, abs=1e-13 * _mass_parts(spec, q, x))
    assert result.x0 == pytest.approx(grid_result.x0, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        power_system(3, 1e150, NR, pair=(1.0, 1.0)),
        power_system(3, 1e140, NR, pair=(1.0, 0.5)),
        power_system(3, 1e100, SR, pair=(1.0, 1.0)),
        gaussian_system(3, 1.0, 2.0, 0.5),
    ],
    ids=["nr-x0-1e100", "nr-x0-7e111", "sr-x0-7e66", "gaussian-grid"],
)
def test_tiny_tolerance_resolves_x0_to_adjacent_floats(spec):
    # t = ln X0 is ~230 at X0 = 1e100, so its float spacing is ~230 times
    # coarser than that of X0: below it the root is bisected in X0 itself
    q = ground(3)
    x0 = afm_mass(spec, q, tolerance=1e-20).x0
    h = engine._scale_residual(spec, q.q)
    below, above = math.nextafter(x0, 0.0), math.nextafter(x0, math.inf)
    assert (h(below) > 0.0) != (h(above) > 0.0)
    assert x0 == pytest.approx(afm_mass(spec, q).x0, rel=1e-12)


def test_tiny_tolerance_where_h_is_not_finite_keeps_the_float_spacing_of_t():
    # F overflows at the root X0 = 6.66e164, so bisection in X0 has no finite
    # h to work with and the floor stays 4 eps |ln X0| relative
    spec = power_system(3, 1.0, NR, pair=(10.0, -1.99))
    x0 = afm_mass(spec, ground(3), tolerance=1e-20).x0
    assert x0 == afm_mass(spec, ground(3)).x0 == 6.660174264961239e164


def test_unreached_sign_change_bound_falls_back_to_the_grid():
    # massive kinematics with a repulsive term: u^2 - 1 has more sign changes
    # than the equation has roots, and no turning-point rule settles the
    # count, so the grid decides, as it did for every spec before
    spec = power_system(3, 1.0, SR, one=(0.5, 1.0), pair=(-0.1, 0.5))
    q = ground(3)
    assert engine._power_law_roots(spec, q.q, engine._power_terms(spec, q.q), 1e-12) is None
    (roots, sol), (grid_roots, grid_sol) = _solve_routes(spec, q)
    assert roots == grid_roots
    assert sol.mass == grid_sol.mass == pytest.approx(5.272585800226621, rel=1e-13)
    assert sol.x0 == pytest.approx(0.6889831181056407, rel=1e-12)


def test_exponent_whose_logs_overflow_takes_the_grid():
    # (lam - 2)/2 ln(Q/N) overflows at lam = 1.7e308: the log-space terms are
    # not floats, so the grid decides, as for every spec before
    spec = power_system(8, 1.467229365877803e-08, SR, one=(2.0, 1.7e308))
    q = QuantumNumbers(((0, 1000), (1, 0), (1, 0), (5, 3), (2000, 3), (2000, 1000), (2000, 0)))
    assert engine._power_terms(spec, q.q) is None
    assert afm_mass(spec, q).mass == pytest.approx(14030.5, rel=1e-12)


def _criterion_4_power_draws(rng, count):
    """Power-law draws of acceptance criterion 4: srho, linear, equal powers,
    baryonic and atomic, each at one of its bands."""
    for _ in range(count):
        n = int(rng.integers(2, 6))
        q = QuantumNumbers(((int(rng.integers(0, 3)), 0),) + ((0, 0),) * (n - 2))
        m = float(rng.uniform(0.0, 3.0)) if rng.random() > 0.2 else 0.0
        yield power_system(n, m, SR, one=(float(rng.uniform(0.0, 3.0)), 2.0), pair=(0.7, 2.0)), q
        yield power_system(n, m, SR, one=(float(rng.uniform(0.05, 1.5)), 1.0), pair=(0.4, 1.0)), q
        a, b = rng.uniform(0.05, 2.0, size=2)
        if rng.random() < 0.5:
            kin, lam = NR, float(rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5, 3.0]))
        else:
            kin, lam = SR, float(rng.choice([-0.5, 0.5, 1.0, 2.0]))
        yield power_system(n, m + 0.3, kin, one=(float(a), lam), pair=(float(b), lam)), q
        b_max = q.q * n / (n * (n - 1) / 2.0) ** 1.5
        b = float(rng.uniform(0.05, 0.8)) * b_max
        yield power_system(n, 0.0, SR, one=(float(rng.uniform(0.05, 1.0)), 1.0), pair=(b, -1.0)), q
        alpha = float(rng.uniform(0.1, 0.8)) * q.q / n
        alphabar = float(rng.uniform(0.1, 0.6)) * alpha * n * n / (n * (n - 1) / 2.0) ** 1.5
        yield power_system(n, m + 0.5, SR, one=(alpha, -1.0), pair=(-alphabar, -1.0)), q


def _nr_quadratic_draws(rng, count):
    """Nonrelativistic oscillators: the srho family of criterion 4 with m > 0."""
    for _ in range(count):
        n = int(rng.integers(2, 6))
        q = QuantumNumbers(((int(rng.integers(0, 3)), 0),) + ((0, 0),) * (n - 2))
        m, k = (float(x) for x in rng.uniform(0.05, 3.0, size=2))
        yield power_system(n, m, NR, one=(k, 2.0), pair=(0.7, 2.0)), q


def test_structured_solve_cost_guard():
    # machine-independent cost: evaluations of the scale equation per solve,
    # counted as calls of its two implementations (u_logs in t, h in X0)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("u_logs", "h"):
            if frame.f_code.co_filename == engine.__file__:
                calls.append(frame.f_code.co_name)

    draws = list(_criterion_4_power_draws(np.random.default_rng(314), 40))
    draws += _nr_quadratic_draws(np.random.default_rng(315), 40)
    for spec, q in draws:
        calls.clear()
        sys.setprofile(count)
        try:
            afm_mass(spec, q)
        finally:
            sys.setprofile(None)
        assert "h" not in calls  # no grid scan
        assert len(calls) <= 60
