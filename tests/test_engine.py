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
    equal_power_mass,
    linear_mass,
)
from auxfield.errors import (
    DomainError,
    NonPositiveSlope,
    NoPositiveRoot,
    NumericalError,
    SingularMasses,
    UnsupportedCombination,
)
from auxfield.ho import ho_energy_identical, srho_mass
from auxfield.model import (
    BoundCharacter,
    GaussianWell,
    Identical,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    _tangency_radii,
)
from auxfield.oracles import _field_term, numeric_afm_minimize
from auxfield.systems import (
    atomic_mass,
    baryonic_ur,
    gaussian_critical_coupling,
    gaussian_spectrum,
    two_body_linear_mass,
)
from conftest import gaussian_system, ground, power_system

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC


# ---------------------------------------------------------------------------
# tangency maps: the float reference K and scale residual h of these tests


def auxiliary_k(term):
    """Tangency map K(x) = V'(x) / (x^2)' of a potential term.

    Power law: K(x) = coefficient |lam| / 2 * x^(lam-2), a constant spring
    coefficient for lam = 2, read as +-inf where the power overflows; gaussian
    well: K(x) = depth range^2 exp(-(range x)^2).
    """
    form = term.form
    if isinstance(form, PowerLaw):
        half = form.coefficient * abs(form.exponent) / 2.0

        def k(x, half=half, lam=form.exponent):
            try:
                return half * x ** (lam - 2.0)
            except OverflowError:
                return math.copysign(math.inf, half) if half else 0.0

        return k
    cap = form.depth * form.range_ * form.range_

    def k(x, cap=cap, rng=form.range_):
        u = rng * x  # u * u is inf past the float range, where ** raises
        return cap * math.exp(-(u * u))

    return k


def scale_residual(spec, qq):
    """h(X0) = 2 mu F(X0) / X0 - X0, mu = sqrt(m^2 + Q X0 / N) or m.

    F(X0) = K(r_one) + N Kbar(r_pair) at the tangency radii of X0. h has the
    sign of 2 mu F - X0^2 for X0 > 0, and no X0^2 to overflow into a false
    sign change near sqrt(DBL_MAX); where 2 mu F overflows, F / X0 is formed
    first.
    """
    n, m = spec.n, spec.identical_mass
    k_one = auxiliary_k(spec.one_body[0]) if spec.one_body else None
    k_pair = auxiliary_k(spec.pairwise[0]) if spec.pairwise else None
    relativistic = spec.kinematics is SR

    def h(x0):
        r1, r2 = _tangency_radii(n, qq, x0)
        f = 0.0
        if k_one is not None:
            f += k_one(r1)
        if k_pair is not None:
            f += n * k_pair(r2)
        mu = math.sqrt(m * m + qq * x0 / n) if relativistic else m
        y = 2.0 * mu * f / x0
        if abs(y) == math.inf:
            y = 2.0 * mu * (f / x0)
        return y - x0

    return h


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
    return abs(_field_term(term, 3).offset(nu) - expected) / abs(expected)


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


def test_linear_mass_matches_afm_mass_where_y_squared_overflows():
    # Y = 7e160 lies past the square root of the float range: Y^2 overflows
    spec = power_system(3, 1e80, SR, one=(0.2, 1.0), pair=(0.1, 1.0))
    sol = afm_mass(spec, ground(3))
    closed = linear_mass(3, 1e80, 0.2, 0.1, 3.0)
    assert closed.mass == pytest.approx(sol.mass, rel=1e-12)
    assert closed.x0 == pytest.approx(sol.x0, rel=1e-12)
    assert x0_residual(spec, ground(3), closed) < 1e-10


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
    # at Q ~ 2000 the grid-centering magnitude of a lam = 299 term overflowed,
    # and the old grid relied on the other candidates to bracket the root
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
    # both past it no scale is finite: the old grid had to scan all normal
    # floats. In the second well 2 m F overflows near the root, where
    # 2 m F / X0 does not
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


@pytest.mark.parametrize("n, m", [(2, 0.5), (3, 1.0), (4, 2.7), (3, 1e-200), (3, 1e300)])
def test_equal_power_massive_linear_and_oscillator_are_the_named_closed_forms(n, m):
    # the cubic and the quartic elimination live in linear_mass and srho_mass only
    q = ground(n)
    linear = power_system(n, m, SR, one=(0.3, 1.0), pair=(0.25, 1.0))
    assert equal_power_mass(linear, q) == linear_mass(n, m, 0.3, 0.25, q.q)
    oscillator = power_system(n, m, SR, one=(0.4, 2.0), pair=(0.2, 2.0))
    assert equal_power_mass(oscillator, q) == srho_mass(n, m, 0.4, 0.2, q.q)


def test_equal_power_inverse_distance_is_the_atomic_form():
    # M = N m sqrt(1 - C^2 Q / N) is atomic_mass's N m sqrt(1 - D^2)
    spec = power_system(3, 1.3, SR, one=(0.6, -1.0), pair=(-0.2, -1.0))
    sol = equal_power_mass(spec, ground(3))
    assert sol.mass == pytest.approx(atomic_mass(3, 1.3, 0.6, 0.2, 3.0), rel=1e-15)
    assert sol.mass == pytest.approx(afm_mass(spec, ground(3)).mass, rel=1e-12)
    # m^2 = 0 beside a subnormal amplitude divided by zero here
    light = power_system(2, 5e-324, SR, pair=(1e-320, -1.0))
    with pytest.raises(DomainError):
        equal_power_mass(light, ground(2))


@pytest.mark.parametrize("m", [1e160, 1e200, 1e300])
def test_closed_forms_where_m_squared_overflows_match_afm_mass(m):
    # Y overflows; the cubic and quartic roots take their asymptotes
    for lam, solve in ((1.0, linear_mass), (2.0, srho_mass)):
        spec = power_system(3, m, SR, one=(0.2, lam), pair=(0.1, lam))
        ref = afm_mass(spec, ground(3))
        for sol in (solve(3, m, 0.2, 0.1, 3.0), equal_power_mass(spec, ground(3))):
            assert sol.mass == pytest.approx(ref.mass, rel=1e-12)
            assert sol.x0 == pytest.approx(ref.x0, rel=1e-12)
    two_body = two_body_linear_mass(2.0, m, 0.3, 1.5)
    assert two_body == pytest.approx(linear_mass(2, m, 0.0, 0.3, 1.5).mass, rel=1e-14)


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


def test_linear_rejects_negative_mass_as_its_twins_do():
    # two_body_linear_mass and srho_mass raise SingularMasses for m < 0
    with pytest.raises(SingularMasses):
        linear_mass(3, -1.0, 0.2, 0.1, 3.0)


# ---------------------------------------------------------------------------
# bound character


def _label(spec):
    return BoundCharacter.of(spec.kinematics, [term.form for term in spec.terms])


def test_bound_character_rules():
    assert _label(gaussian_system(3, 1.0, 2.0, 0.5)) is BoundCharacter.UPPER_BOUND
    assert (
        _label(power_system(3, 1.0, NR, pair=(1.0, 2.0)))
        is BoundCharacter.EXACT
    )
    assert (
        _label(power_system(3, 1.0, SR, pair=(0.5, -1.0)))
        is BoundCharacter.UPPER_BOUND
    )
    assert (
        _label(power_system(3, 1.0, NR, pair=(0.5, 3.0)))
        is BoundCharacter.LOWER_BOUND
    )
    assert (
        _label(power_system(3, 1.0, SR, pair=(0.5, 3.0)))
        is BoundCharacter.UNKNOWN
    )
    assert (
        _label(power_system(3, 1.0, NR, one=(0.5, 1.0), pair=(0.5, 3.0)))
        is BoundCharacter.UNKNOWN
    )


def test_bound_character_reads_the_sign_of_a_subnormal_coefficient():
    # 5e-324 r^0.5 is concave however small its coefficient; the product
    # coefficient (lam/2) (lam/2 - 1) underflowed to 0, which left only the
    # quadratic pair term and read as EXACT
    spec = power_system(3, 1.0, NR, one=(5e-324, 0.5), pair=(0.3, 2.0))
    assert _label(spec) is BoundCharacter.UPPER_BOUND


# ---------------------------------------------------------------------------
# isolated scale-equation roots against the log-grid scan


def _scale_candidates(spec, q: float) -> list[float]:
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


def _solve_x0_roots(h, scales: list[float]) -> list[float]:
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
            t = engine._zero(h_of_t, math.log(x_prev), math.log(x), h_prev, h_cur)
            roots.append(math.exp(t))
        x_prev, h_prev = x, h_cur
    return roots


def _grid_scale_roots(spec, qq):
    """The log-grid scan that afm_mass ran before the isolator: the reference."""
    return _solve_x0_roots(scale_residual(spec, qq), _scale_candidates(spec, qq))


def _grid_only():
    return mock.patch.object(engine, "_scale_roots", _grid_scale_roots)


def _solve_routes(spec, q):
    """(roots, solution or error type) by the isolator, then by the grid."""
    out = []
    for route in (contextlib.nullcontext(), _grid_only()):
        with route:
            try:
                roots = engine._scale_roots(spec, q.q)
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
def _scale_specs(draw):
    """One- and two-power specs (NR, massless and massive SR, either sign),
    gaussian wells, and gaussian wells beside a one-body power."""
    kind = draw(st.sampled_from(["nr", "massless", "massive", "gaussian", "gaussian+power"]))
    n = draw(st.integers(2, 6))
    q = QuantumNumbers(((draw(st.integers(0, 3)), 0),) + ((0, 0),) * (n - 2))
    if kind.startswith("gaussian"):
        depth, range_ = 10.0 ** draw(st.floats(-3.0, 4.0)), 10.0 ** draw(st.floats(-2.0, 2.0))
        spec = gaussian_system(n, 10.0 ** draw(st.floats(-2.0, 2.0)), depth, range_)
        if kind == "gaussian+power":
            lam = draw(st.one_of(st.floats(-1.5, -0.1), st.floats(0.1, 3.0)))
            form = PowerLaw(10.0 ** draw(st.floats(-2.0, 1.0)), lam)
            spec = SystemSpec(
                spec.n, spec.masses, spec.kinematics,
                one_body=(PotentialTerm(Scope.ONE_BODY, form),), pairwise=spec.pairwise,
            )
        return spec, q
    m = 0.0 if kind == "massless" else draw(st.floats(0.1, 5.0))
    lam_min = -1.5 if kind == "nr" else -0.8
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
    return spec, q


@settings(max_examples=300, deadline=None)
@given(_scale_specs())
def test_structured_solve_matches_grid(case):
    spec, q = case
    (roots, result), (grid_roots, grid_result) = _solve_routes(spec, q)
    scales = _scale_candidates(spec, q.q)
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
    ids=["nr-x0-1e100", "nr-x0-7e111", "sr-x0-7e66", "gaussian"],
)
def test_x0_lies_within_the_solve_precision_of_a_sign_change_of_h(spec):
    # t = ln X0 is ~230 at X0 = 1e100, so its float spacing is ~230 times
    # coarser than that of X0; the polish in t still holds X0 to 1e-12
    q = ground(3)
    x0 = afm_mass(spec, q).x0
    h = scale_residual(spec, q.q)
    assert (h(x0 * (1.0 - 1e-12)) > 0.0) != (h(x0 * (1.0 + 1e-12)) > 0.0)


def test_root_where_f_overflows_keeps_its_bits():
    # F overflows at the root X0 = 6.66e164, so h has no finite value there:
    # the root comes from the polish in t alone
    spec = power_system(3, 1.0, NR, pair=(10.0, -1.99))
    assert afm_mass(spec, ground(3)).x0 == 6.660174264961239e164


def test_massive_repulsive_spec_matches_the_grid():
    # massive kinematics with a repulsive term: u^2 - 1 has more sign changes
    # than the equation has roots, which took the grid before the isolator
    spec = power_system(3, 1.0, SR, one=(0.5, 1.0), pair=(-0.1, 0.5))
    q = ground(3)
    (roots, sol), (grid_roots, grid_sol) = _solve_routes(spec, q)
    assert roots == pytest.approx(grid_roots, rel=1e-12)
    assert sol.mass == pytest.approx(grid_sol.mass, rel=1e-13)
    assert sol.mass == pytest.approx(5.272585800226621, rel=1e-13)
    assert sol.x0 == pytest.approx(0.6889831181056407, rel=1e-12)


def test_exponent_whose_logs_overflow_in_ln_x0():
    # (lam - 2)/2 ln(Q/N) overflows at lam = 1.7e308, which took the grid
    # before the isolator; measured from t' = -ln r_one^2 the amplitude is finite
    spec = power_system(8, 1.467229365877803e-08, SR, one=(2.0, 1.7e308))
    q = QuantumNumbers(((0, 1000), (1, 0), (1, 0), (5, 3), (2000, 3), (2000, 1000), (2000, 0)))
    assert afm_mass(spec, q).mass == pytest.approx(14030.5, rel=1e-12)


def _mp_scale_residual(mpmath, spec, qq, x0):
    """h(X0) = 2 mu F(X0) / X0 - X0 at the working precision of mpmath."""
    n, x0 = spec.n, mpmath.mpf(x0)
    total = mpmath.mpf(0)
    for terms, weight, r2 in (
        (spec.one_body, 1, mpmath.mpf(qq) / (n * x0)),
        (spec.pairwise, n, 2 * mpmath.mpf(qq) / ((n - 1) * x0)),
    ):
        for term in terms:
            form = term.form
            if isinstance(form, PowerLaw):
                lam = mpmath.mpf(form.exponent)
                total += weight * form.coefficient * abs(lam) / 2 * r2 ** ((lam - 2) / 2)
            else:
                c = mpmath.mpf(form.range_) ** 2
                total += weight * form.depth * c * mpmath.exp(-c * r2)
    m = mpmath.mpf(spec.identical_mass)
    mu = mpmath.sqrt(m * m + qq * x0 / n) if spec.kinematics is SR else m
    return 2 * mu * total / x0 - x0


def _is_certified_root(spec, qq, x0):
    """h changes sign at 50 digits between X0 (1 -+ 1e-10)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x0 = mpmath.mpf(x0)
        below, above = (
            _mp_scale_residual(mpmath, spec, qq, x0 * (1 + d * mpmath.mpf("1e-10")))
            for d in (-1, 1)
        )
        return (below > 0) != (above > 0)


@settings(max_examples=200, deadline=None)
@given(_scale_specs())
def test_every_isolated_root_is_a_sign_change_at_50_digits(case):
    pytest.importorskip("mpmath")
    spec, q = case
    try:
        roots = engine._scale_roots(spec, q.q)
    except NumericalError:
        return
    for x0 in roots:
        assert _is_certified_root(spec, q.q, x0)


def test_close_root_pair_beside_a_one_body_power():
    # a gaussian well beside a one-body power has three roots; the first two
    # lie 4 % apart, within one step of the grid, which finds only the last
    power = PowerLaw(1.7285312896822957, -0.10523548515602554)
    well = GaussianWell(860.7051709043824, 0.10181443976904277)
    spec = SystemSpec(
        n=4,
        masses=Identical(0.03412957965935609),
        kinematics=Kinematics.NONRELATIVISTIC,
        one_body=(PotentialTerm(Scope.ONE_BODY, power),),
        pairwise=(PotentialTerm(Scope.PAIRWISE, well),),
    )
    q = QuantumNumbers(((1, 0), (0, 0), (0, 0)))
    roots = engine._scale_roots(spec, q.q)
    assert roots == pytest.approx([2.8792e-3, 3.0063e-3, 1.5401], rel=1e-4)
    assert all(_is_certified_root(spec, q.q, x0) for x0 in roots)
    assert _grid_scale_roots(spec, q.q) == pytest.approx(roots[-1:], rel=1e-12)


def test_massive_root_below_the_grid_window():
    # a repulsive one-body term with massive kinematics: the one root,
    # X0 = 8.2e-26, lies below the grid, which found none (NoPositiveRoot)
    spec = power_system(
        2, 4.508873961551444, SR,
        one=(-1.6611889449875474, -0.539082270107401),
        pair=(1.1675940407044259, -0.4889100041740698),
    )
    q = QuantumNumbers(((3, 0),))
    sol = afm_mass(spec, q)
    assert _is_certified_root(spec, q.q, sol.x0)
    assert sol.mass == pytest.approx(numeric_afm_minimize(spec, q), rel=1e-12)
    assert sol.mass == pytest.approx(9.01774788182434, rel=1e-13)
    assert _grid_scale_roots(spec, q.q) == []


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


def _gaussian_draws(rng, count):
    """Gaussian wells of the verify family: depth 2-50 times the critical coupling."""
    for _ in range(count):
        n = int(rng.integers(2, 7))
        q = QuantumNumbers(((int(rng.integers(0, 3)), 0),) + ((0, 0),) * (n - 2))
        m, beta = (float(x) for x in rng.uniform([0.5, 0.3], [3.0, 2.0]))
        g = float(rng.uniform(2.0, 50.0)) * gaussian_critical_coupling(n, q.q)
        yield gaussian_system(n, m, g * beta * beta / m, beta), q


def _residual_calls(spec, q):
    """Names of the residual closures called by one solve of the scale
    equation, in order, and the roots it returns."""
    names = ("residual", "u_residual")
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name in names:
            if frame.f_code.co_filename == engine.__file__:
                calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        roots = engine._scale_roots(spec, q.q)
    finally:
        sys.setprofile(None)
    return calls, roots


def test_structured_solve_cost_guard():
    # machine-independent cost: evaluations of the scale equation and of the
    # derivatives that split it per solve, counted as calls of the residuals
    # in t
    draws = list(_criterion_4_power_draws(np.random.default_rng(314), 40))
    draws += _nr_quadratic_draws(np.random.default_rng(315), 40)
    draws += _gaussian_draws(np.random.default_rng(316), 40)
    for spec, q in draws:
        calls, _ = _residual_calls(spec, q)
        assert 0 < len(calls) <= 60


def test_massive_walk_starts_on_the_root_where_it_can():
    # massive srho, linear and atomic draws have no split point: |u| is
    # monotone, and one walk finds its root. From the root of u^2 - 1 where
    # that is two terms (atomic), it costs at most 3 evaluations (the walk
    # from w = 1 took up to 18), and never more than from w = 1; the roots
    # agree to the solve's tolerance
    draws = _criterion_4_power_draws(np.random.default_rng(314), 40)
    for i, (spec, q) in enumerate(draws):
        if i % 5 not in (0, 1, 4) or spec.identical_mass == 0.0:
            continue
        calls, roots = _residual_calls(spec, q)
        with mock.patch.object(engine, "_walk_start", lambda a_terms, log_m, z: -z):
            w1_calls, w1_roots = _residual_calls(spec, q)
        assert len(calls) <= len(w1_calls)
        if i % 5 == 4:
            assert len(calls) <= 3
        assert len(roots) == len(w1_roots) == 1
        assert roots[0] == pytest.approx(w1_roots[0], rel=1e-12)
