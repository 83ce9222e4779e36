import math

import numpy as np
import pytest

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
from auxfield.systems import baryonic_ur
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


@pytest.mark.parametrize(
    "lam,mode", [(60.0, (2000, 0)), (150.0, (2000, 0)), (300.0, (2000, 0)), (300.0, (55, 1))]
)
def test_equal_power_massless_steep_excited_matches_afm_mass(lam, mode):
    # X0 and the mass are finite although c*c (lam 60, 150) or the amplitude
    # itself (lam 300: its power overflows, or at Q = 114 its product) leaves
    # the float range
    spec = power_system(3, 0.0, SR, pair=(0.2, lam))
    q = QuantumNumbers(((0, 0), mode))
    sol = equal_power_mass(spec, q)
    assert sol.mass == pytest.approx(afm_mass(spec, q).mass, rel=1e-12)


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
