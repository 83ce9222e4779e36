import io
import itertools
import json
import math
import random
import sys

import pytest

from auxfield import cli, errors
from auxfield.engine import afm_mass, equal_power_mass, linear_mass
from auxfield.errors import (
    AuxFieldError,
    DomainError,
    InvalidCoefficient,
    NoBoundState,
    NonConvergence,
    NotSymmetric,
    NumericalError,
    OverCritical,
    SingularMasses,
    UnstableConfiguration,
    UnsupportedCombination,
    UnsupportedForm,
    ValidationError,
)
from auxfield.ho import (
    build_quadratic_form,
    ground_state_q,
    ho_energies_general,
    ho_energy_3body_closed,
    ho_energy_identical,
    srho_mass,
)
from auxfield.model import (
    BoundCharacter,
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
from auxfield.oracles import gaussian_trial_bound, numeric_afm_minimize
from auxfield.special import symmetric_eigen
from auxfield.systems import (
    BaryonParams,
    BaryonVariant,
    atomic_binding_parameter,
    atomic_mass,
    atomic_mass_nr,
    atomic_stable,
    baryon_mass,
    baryon_single_gaussian_ground,
    baryon_table,
    baryonic_ur,
    coulomb_critical_coupling,
    coulomb_nbody,
    duality_identities,
    funnel_nbody_ur,
    gaussian_critical_coupling,
    gaussian_dual,
    gaussian_energy_alt,
    gaussian_spectrum,
    linear_dual,
    pairwise_g_dual,
    pairwise_sigma_dual,
    twobody_reduction,
    two_body_coulomb_ground,
    two_body_funnel_ur,
    two_body_gaussian_energy,
    two_body_linear_mass,
)
from conftest import gaussian_system, ground, power_system

SR = Kinematics.SEMIRELATIVISTIC


# ---------------------------------------------------------------------------
# two-body reduction


def test_reduction_is_identity_at_two_bodies():
    seen = {}

    def evaluator(m_prime, sigma_prime):
        seen["args"] = (m_prime, sigma_prime)
        return 7.25

    assert twobody_reduction(2, 1.3, evaluator) == pytest.approx(7.25)
    assert seen["args"][0] == pytest.approx(1.3)
    assert seen["args"][1] == pytest.approx(2.0)


def test_reduction_reproduces_coulomb_formula():
    m, b = 1.0, 0.3

    def evaluator(m_prime, sigma_prime):
        return two_body_coulomb_ground(sigma_prime, m_prime, b, 1.0)

    for n in (2, 3, 4, 6):
        assert twobody_reduction(n, m, evaluator) == pytest.approx(
            coulomb_nbody(n, m, b), rel=1e-12
        )


def test_reduction_linear_monotone_in_n():
    def evaluator(m_prime, sigma_prime):
        return two_body_linear_mass(sigma_prime, m_prime, 0.2, 1.5)

    values = [twobody_reduction(n, 1.0, evaluator) for n in (2, 3, 4, 5, 6)]
    assert all(v > 0 and math.isfinite(v) for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Coulomb systems


def test_coulomb_two_body_specialization():
    m, b = 1.0, 0.3
    assert coulomb_nbody(2, m, b) == pytest.approx(
        2.0 * m * math.sqrt(1.0 - b * b / 4.0), rel=1e-14
    )


def test_coulomb_critical_scaling():
    b2 = 1.7
    assert coulomb_critical_coupling(3, b2) == pytest.approx(b2 / math.sqrt(3.0), rel=1e-14)


def test_coulomb_large_n_with_scaled_coupling():
    b_tilde = 1.2
    for n in (10, 100, 1000):
        mass = coulomb_nbody(n, 1.0, b_tilde / n)
        arg = 1.0 - n * (n - 1) * (b_tilde / n) ** 2 / 8.0
        assert arg > 1.0 - b_tilde**2 / 8.0 - 1e-9
        assert mass == pytest.approx(n * math.sqrt(arg), rel=1e-12)


def test_coulomb_over_critical():
    with pytest.raises(OverCritical):
        coulomb_nbody(10, 1.0, 1.0)


# ---------------------------------------------------------------------------
# baryonic systems


def test_baryonic_frozen_value():
    sol = baryonic_ur(3, 0.2, 0.6, 3.0)
    direct = 2.0 * math.sqrt(0.2) * math.sqrt(9.0 - 0.6 * 27.0**0.5)
    assert sol.mass == pytest.approx(direct, rel=1e-14)
    assert sol.mass == pytest.approx(2.169296392174388, rel=1e-13)
    assert sol.x0 == pytest.approx(0.306002309434949, rel=1e-13)


def test_baryonic_without_coulomb_matches_linear():
    sol = baryonic_ur(4, 0.3, 0.0, 4.5)
    assert sol.mass == pytest.approx(math.sqrt(4.0 * 0.3 * 4.0 * 4.5), rel=1e-14)
    assert sol.mass == pytest.approx(linear_mass(4, 0.0, 0.3, 0.0, 4.5).mass, rel=1e-14)


def test_baryonic_reduces_to_three_quark_formula():
    lam, als = 0.2, 0.4
    for band in range(7):
        q = band + 3.0
        sol = baryonic_ur(3, lam, 2.0 * als / 3.0, q)
        m0 = math.sqrt(12.0 * lam * (band + 3.0 - 2.0 * als / math.sqrt(3.0)))
        assert sol.mass == pytest.approx(m0, rel=1e-13)


def test_baryonic_over_critical():
    with pytest.raises(OverCritical):
        baryonic_ur(3, 0.2, 2.0, 3.0)


def test_baryon_table_reference_rows():
    rows = {(b, l): (m0, m1, m2) for b, l, m0, m1, m2 in baryon_table(0.2, 0.4)}
    assert rows[(0, 0)][0] == pytest.approx(2.468, abs=5e-4)
    assert rows[(0, 0)][1] == pytest.approx(2.168, abs=5e-4)
    assert rows[(1, 1)] == pytest.approx((2.914, 2.596, 2.596), abs=5e-4)
    assert rows[(4, 2)][2] == pytest.approx(3.460, abs=5e-4)


def test_baryon_single_gaussian_matches_m1_ground():
    assert baryon_single_gaussian_ground(0.2, 0.4) == pytest.approx(
        baryon_mass(BaryonParams(0.2, 0.4, BaryonVariant.M1), 0, 0), rel=1e-14
    )


def test_baryon_over_critical_coupling():
    with pytest.raises(OverCritical):
        baryon_mass(BaryonParams(0.2, 2.7, BaryonVariant.M0), 0, 0)


# ---------------------------------------------------------------------------
# atomic systems


def test_atomic_frozen_values():
    d = atomic_binding_parameter(3, 0.3, 0.1, 3.0)
    assert d == pytest.approx(0.24226497308103742, rel=1e-14)
    assert atomic_mass(3, 1.0, 0.3, 0.1, 3.0) == pytest.approx(
        2.910630369071689, rel=1e-13
    )
    assert atomic_mass_nr(3, 1.0, 0.3, 0.1, 3.0) == pytest.approx(
        2.9119615242270664, rel=1e-13
    )


def test_atomic_zero_binding_point():
    # pairwise repulsion tuned to cancel the one-body attraction exactly
    n, alpha, q = 3, 0.3, 3.0
    alphabar = alpha * n * n / (n * (n - 1) / 2.0) ** 1.5
    assert atomic_binding_parameter(n, alpha, alphabar, q) == pytest.approx(0.0, abs=1e-15)
    assert atomic_mass(n, 1.7, alpha, alphabar, q) == pytest.approx(3 * 1.7, rel=1e-14)


def test_atomic_mass_vanishes_at_collapse():
    n, q, alphabar = 3, 3.0, 0.0
    for eps in (1e-2, 1e-4, 1e-6):
        alpha = (1.0 - eps) * q / n
        mass = atomic_mass(n, 1.0, alpha, alphabar, q)
        assert 0.0 < mass < 3.0 * math.sqrt(2.2 * eps)


def test_atomic_unstable_rejected():
    with pytest.raises(UnstableConfiguration):
        atomic_mass(3, 1.0, 1.1, 0.0, 3.0)
    assert not atomic_stable(3, 1.1, 0.0, 3.0)
    assert atomic_stable(3, 0.3, 0.1, 3.0)


def test_atomic_stability_independent_of_mass():
    n, q = 4, 4.5
    almost = 0.999 * q / n
    beyond = 1.001 * q / n
    for m in (1e-2, 1e-1, 1.0, 1e1, 1e2):
        atomic_mass(n, m, almost, 0.0, q)
        with pytest.raises(UnstableConfiguration):
            atomic_mass(n, m, beyond, 0.0, q)


# ---------------------------------------------------------------------------
# gaussian wells


def test_gaussian_two_body_critical_is_9e_over_4():
    assert gaussian_critical_coupling(2, 1.5) == pytest.approx(
        9.0 * math.e / 4.0, rel=1e-15
    )


def test_gaussian_critical_symmetric_ground_ratio():
    for n in (2, 3, 4, 7):
        gn = gaussian_critical_coupling(n, 1.5 * (n - 1))
        gnp = gaussian_critical_coupling(n + 1, 1.5 * n)
        assert gnp / gn == pytest.approx(n / (n + 1.0), rel=1e-14)
        assert gn == pytest.approx(9.0 * math.e / (2.0 * n), rel=1e-14)


def test_gaussian_rescaled_two_body_frozen_values():
    # rescaled units: m = 1, beta = 1, depth alpha = g
    level = gaussian_spectrum(2, 1.0, 10.0, 1.0, 1.5)
    assert level.y == pytest.approx(-0.23717082451262844, rel=1e-14)
    assert level.w0 == pytest.approx(-0.3298463844839664, rel=1e-13)
    assert level.energy == pytest.approx(-1.759422931255742, rel=1e-13)


def test_gaussian_alternative_form_agrees():
    for n, m, alpha, beta, q in (
        (2, 1.0, 10.0, 1.0, 1.5),
        (3, 1.7, 5.0, 0.4, 3.0),
        (5, 0.8, 30.0, 1.3, 6.0),
        (3, 1.0, 1e300, 1e-150, 1.5),  # Y^2 and W0^2 underflow
        (3, 1.0, 1e300, 1e-300, 1.5),  # Y underflows
    ):
        level = gaussian_spectrum(n, m, alpha, beta, q)
        assert level.energy == pytest.approx(
            gaussian_energy_alt(n, m, alpha, beta, q), rel=1e-12
        )


def test_gaussian_below_critical_rejected():
    with pytest.raises(NoBoundState):
        gaussian_spectrum(2, 1.0, 1.0, 1.0, 1.5)


def test_gaussian_small_range_oscillator_expansion():
    n, m, alpha, q = 3, 1.0, 2.0, 3.0
    residuals = []
    for beta in (1e-2, 1e-3):
        energy = gaussian_spectrum(n, m, alpha, beta, q).energy
        expansion = -n * (n - 1) / 2.0 * alpha + math.sqrt(
            2.0 * alpha * beta * beta * n / m
        ) * q
        residuals.append(energy - expansion)
    assert abs(residuals[0]) < 1e-2
    assert residuals[0] / residuals[1] == pytest.approx(100.0, rel=0.1)


@pytest.mark.parametrize(
    "m,alpha,beta",
    [(2.0, 1.5, 1e-232), (2.5e45, 7.8e293, 2.0)],
    ids=["range-squared-underflows", "y-underflows"],
)
def test_gaussian_limit_past_float_range(m, alpha, beta):
    # beta^2 or Y underflows to 0: every pair sits at the bottom of its well
    level = gaussian_spectrum(3, m, alpha, beta, 3.0)
    assert level.energy == pytest.approx(-3.0 * alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# funnel potential


def test_linear_two_body_specialization():
    m, b, q = 1.0, 0.3, 1.5
    assert linear_mass(2, m, 0.0, b, q).mass == pytest.approx(
        two_body_linear_mass(2.0, m, b, q), rel=1e-14
    )


def test_funnel_two_body_specialization():
    a, b, q = 0.2, 0.3, 1.5
    direct = funnel_nbody_ur(2, a, b, q)
    assert direct**2 == pytest.approx(8.0 * a * q - 4.0 * a * b, rel=1e-13)
    assert direct == pytest.approx(two_body_funnel_ur(2.0, a, b, q), rel=1e-14)


def test_funnel_frozen_value():
    mass = funnel_nbody_ur(3, 0.2, 0.6, 3.0)
    assert mass**2 == pytest.approx(0.2 * math.sqrt(48.0) * 9.0 - 4.32, rel=1e-13)
    assert mass == pytest.approx(2.854954608132311, rel=1e-13)


def test_funnel_without_coulomb_matches_pairwise_linear():
    n, a, q = 3, 0.2, 3.0
    assert funnel_nbody_ur(n, a, 0.0, q) == pytest.approx(
        linear_mass(n, 0.0, 0.0, a, q).mass, rel=1e-13
    )


def test_funnel_over_critical():
    with pytest.raises(OverCritical):
        funnel_nbody_ur(3, 0.2, 10.0, 3.0)


def test_funnel_masses_whose_square_overflows():
    # M^2 leaves the float range at a = 1e308 while M is 3.5e154: formed as
    # one product, M^2 raised NumericalError ("mass inf") where baryonic_ur,
    # with the same mass at N = 2 and b = 0, returns it
    expected = baryonic_ur(2, 1e308, 0.0, 1.5).mass
    assert funnel_nbody_ur(2, 1e308, 0.0, 1.5) == pytest.approx(expected, rel=1e-15)
    assert two_body_funnel_ur(2.0, 1e308, 0.0, 1.5) == pytest.approx(expected, rel=1e-15)


def test_funnel_masses_across_the_float_range():
    # every normal mass on the grid is returned within 4 ulp of 50 digits;
    # b is half its critical value, or 0
    mpmath = pytest.importorskip("mpmath")
    grid = [10.0**k for k in range(-300, 301, 25)]
    with mpmath.workdps(50):
        for a, q, half in itertools.product(grid, grid, (0.0, 0.5)):
            b3, b2 = half * q / math.sqrt(3.0), half * 2.0 * q
            a_, q_ = mpmath.mpf(a), mpmath.mpf(q)
            for form, args, exact in (
                (funnel_nbody_ur, (3, a, b3, q),
                 mpmath.sqrt(a_ * mpmath.sqrt(48) * 3 * q_ - 36 * a_ * mpmath.mpf(b3))),
                (two_body_funnel_ur, (2.0, a, b2, q),
                 2 * mpmath.sqrt(a_ * (2 * q_ - mpmath.mpf(b2)))),
            ):
                if sys.float_info.min <= exact <= sys.float_info.max:
                    assert abs(form(*args) - exact) <= 4 * sys.float_info.epsilon * exact, args


# ---------------------------------------------------------------------------
# duality maps


def test_gaussian_dual_identity():
    m, alpha, beta = 1.0, 20.0, 1.0
    for n in (2, 3, 4, 6):
        q = 1.5 * (n - 1)
        direct = gaussian_spectrum(n, m, alpha, beta, q).energy
        mapped = gaussian_dual(n, two_body_gaussian_energy, m, alpha, beta, q)
        assert mapped == pytest.approx(direct, rel=1e-12)


def test_linear_dual_identity():
    for n in (2, 3, 4, 6):
        q = 1.5 * (n - 1)
        direct = linear_mass(n, 1.0, 0.2, 0.0, q).mass
        mapped = linear_dual(n, two_body_linear_mass, 1.0, 0.2, 0.0, q)
        assert mapped == pytest.approx(direct, rel=1e-12)
        with_pair = linear_mass(n, 1.0, 0.1, 0.25, q).mass
        mapped_pair = linear_dual(n, two_body_linear_mass, 1.0, 0.1, 0.25, q)
        assert mapped_pair == pytest.approx(with_pair, rel=1e-12)


def test_pairwise_g_identity_at_two_bodies():
    # with g = sigma (N-1)/2 and N = 2 the map must be the identity
    a, b, q = 0.2, 0.3, 1.5

    def evaluator(sigma, g, q2):
        return two_body_funnel_ur(sigma, g * a, g * b, q2)

    mapped = pairwise_g_dual(2, evaluator, q, g=1.0)
    assert mapped == pytest.approx(two_body_funnel_ur(2.0, a, b, q), rel=1e-14)


def test_funnel_direct_equals_duality_route():
    a, b = 0.2, 0.3

    def evaluator(sigma, g, q2):
        return two_body_funnel_ur(sigma, g * a, g * b, q2)

    for n in (2, 3, 4, 6):
        q = 1.5 * (n - 1)
        direct = funnel_nbody_ur(n, a, b, q)
        for g in (1.0, 2.5):
            mapped = pairwise_g_dual(n, evaluator, q, g=g)
            assert mapped == pytest.approx(direct, rel=1e-12)
        sigma_route = pairwise_sigma_dual(n, evaluator, q, sigma=2.0)
        assert sigma_route == pytest.approx(direct, rel=1e-12)


def test_two_body_linear_sigma_formula_against_minimization():
    # independent oracle: coordinate golden-section descent on the two-field
    # mass function sigma/2 (mu + m^2/mu) + sqrt(2 sigma nu / mu) Q + c^2/(4 nu)
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def golden(f, a, b):
        x1, x2 = b - phi * (b - a), a + phi * (b - a)
        f1, f2 = f(x1), f(x2)
        while b - a > 1e-13 * (abs(a) + abs(b)):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1 = f(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2 = f(x2)
        return 0.5 * (a + b)

    for sigma, m, c, q in ((3.0, 1.2, 0.4, 2.5), (2.0, 0.7, 0.3, 1.5), (5.5, 2.0, 1.1, 4.5)):

        def mass(u, v):
            mu, nu = math.exp(u), math.exp(v)
            return (
                sigma / 2.0 * (mu + m * m / mu)
                + math.sqrt(2.0 * sigma * nu / mu) * q
                + c * c / (4.0 * nu)
            )

        u, v = 0.0, 0.0
        cur = mass(u, v)
        for _ in range(200):
            prev = cur
            u = golden(lambda t: mass(t, v), u - 3.0, u + 3.0)
            v = golden(lambda t: mass(u, t), v - 3.0, v + 3.0)
            cur = mass(u, v)
            if abs(prev - cur) < 1e-15 * max(1.0, abs(cur)):
                break
        assert two_body_linear_mass(sigma, m, c, q) == pytest.approx(cur, rel=1e-10)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(linear_mass, (3, NAN, 0.2, 0.1, 3.0), id="linear-m"),
        pytest.param(linear_mass, (3, 1.0, INF, 0.1, 3.0), id="linear-a"),
        pytest.param(linear_mass, (3, 1.0, 0.2, 0.1, -INF), id="linear-q"),
        pytest.param(srho_mass, (3, 1.0, NAN, 0.2, 3.0), id="srho-k"),
        pytest.param(srho_mass, (3, INF, 0.3, 0.2, 3.0), id="srho-m"),
        pytest.param(baryonic_ur, (3, 0.2, NAN, 3.0), id="baryonic-b"),
        pytest.param(baryonic_ur, (3, INF, 0.1, 3.0), id="baryonic-a"),
        pytest.param(baryon_mass, (BaryonParams(NAN, 0.4), 0, 0), id="baryon-lambda"),
        pytest.param(baryon_mass, (BaryonParams(0.2, INF), 0, 0), id="baryon-alpha"),
        pytest.param(atomic_mass, (3, NAN, 0.3, 0.1, 3.0), id="atomic-m"),
        pytest.param(atomic_mass, (3, 1.0, 0.3, NAN, 3.0), id="atomic-alphabar"),
        pytest.param(atomic_mass_nr, (3, 1.0, INF, 0.1, 3.0), id="atomic-nr-alpha"),
        pytest.param(gaussian_spectrum, (3, 1.0, NAN, 0.5, 3.0), id="gaussian-alpha"),
        pytest.param(gaussian_spectrum, (3, 1.0, 2.0, 0.5, INF), id="gaussian-q"),
        pytest.param(coulomb_nbody, (3, 1.0, NAN), id="coulomb-b"),
        pytest.param(coulomb_nbody, (3, INF, 0.1), id="coulomb-m"),
        pytest.param(funnel_nbody_ur, (3, 0.2, NAN, 3.0), id="funnel-b"),
        pytest.param(funnel_nbody_ur, (3, 0.2, 0.1, INF), id="funnel-q"),
        pytest.param(gaussian_energy_alt, (3, 1.0, NAN, 0.5, 3.0), id="gaussian-alt-alpha"),
        pytest.param(gaussian_energy_alt, (3, 1.0, 2.0, 0.5, INF), id="gaussian-alt-q"),
        pytest.param(two_body_linear_mass, (2.0, NAN, 0.2, 1.5), id="two-body-linear-m"),
        pytest.param(two_body_funnel_ur, (2.0, 0.2, NAN, 1.5), id="two-body-funnel-b"),
        pytest.param(two_body_coulomb_ground, (2.0, 1.0, NAN), id="two-body-coulomb-b"),
        pytest.param(ho_energy_identical, (3, NAN, 0.3, 0.2, 3.0), id="ho-identical-m"),
        pytest.param(ho_energy_identical, (3, INF, 0.3, 0.2, 3.0), id="ho-identical-inf-m"),
        pytest.param(ho_energy_identical, (3, 1.0, NAN, 0.2, 3.0), id="ho-identical-k"),
        pytest.param(ho_energy_identical, (3, 1.0, 0.3, NAN, 3.0), id="ho-identical-kbar"),
        pytest.param(coulomb_critical_coupling, (3, NAN), id="coulomb-critical-b2"),
        pytest.param(twobody_reduction, (3, NAN, lambda m, sigma: sigma * m),
                     id="reduction-m"),
    ],
)
def test_closed_forms_reject_non_finite_arguments(fn, args):
    with pytest.raises(ValidationError):
        fn(*args)


def _funnel_two_body(sigma, g, q2):
    return two_body_funnel_ur(sigma, 0.2 * g, 0.3 * g, q2)


# every closed form that takes N, with N = 3 arguments that it solves
N_TAKERS = [
    pytest.param(gaussian_spectrum, (1.0, 20.0, 1.0, 3.0), id="gaussian_spectrum"),
    pytest.param(gaussian_energy_alt, (1.0, 20.0, 1.0, 3.0), id="gaussian_energy_alt"),
    pytest.param(gaussian_critical_coupling, (3.0,), id="gaussian_critical_coupling"),
    pytest.param(srho_mass, (1.0, 0.3, 0.2, 3.0), id="srho_mass"),
    pytest.param(ho_energy_identical, (1.0, 0.3, 0.2, 3.0), id="ho_energy_identical"),
    pytest.param(ground_state_q, (), id="ground_state_q"),
    pytest.param(linear_mass, (1.0, 0.2, 0.1, 3.0), id="linear_mass"),
    pytest.param(atomic_mass, (1.0, 0.3, 0.1, 3.0), id="atomic_mass"),
    pytest.param(atomic_mass_nr, (1.0, 0.3, 0.1, 3.0), id="atomic_mass_nr"),
    pytest.param(atomic_binding_parameter, (0.3, 0.1, 3.0), id="atomic_binding_parameter"),
    pytest.param(atomic_stable, (0.3, 0.1, 3.0), id="atomic_stable"),
    pytest.param(coulomb_nbody, (1.0, 0.1), id="coulomb_nbody"),
    pytest.param(coulomb_critical_coupling, (0.5,), id="coulomb_critical_coupling"),
    pytest.param(baryonic_ur, (0.2, 0.1, 3.0), id="baryonic_ur"),
    pytest.param(funnel_nbody_ur, (0.2, 0.3, 3.0), id="funnel_nbody_ur"),
    pytest.param(twobody_reduction, (1.0, lambda m, sigma: sigma * m), id="twobody_reduction"),
    pytest.param(pairwise_g_dual, (_funnel_two_body, 3.0), id="pairwise_g_dual"),
    pytest.param(pairwise_sigma_dual, (_funnel_two_body, 3.0), id="pairwise_sigma_dual"),
    pytest.param(
        gaussian_dual, (two_body_gaussian_energy, 1.0, 20.0, 1.0, 3.0), id="gaussian_dual"
    ),
    pytest.param(
        linear_dual, (two_body_linear_mass, 1.0, 0.2, 0.15, 3.0), id="linear_dual"
    ),
    pytest.param(duality_identities, (), id="duality_identities"),
]


@pytest.mark.parametrize("n", [0, 1, 2.5, True], ids=["0", "1", "2.5", "True"])
@pytest.mark.parametrize("fn, args", N_TAKERS)
def test_closed_forms_need_an_integer_particle_count_of_two_or_more(fn, args, n):
    # the rule model.validate applies to SystemSpec.n: at N = 1 these divided
    # by N - 1, and at N = 2.5 some returned a mass
    fn(3, *args)
    with pytest.raises(ValidationError, match="integer particle count"):
        fn(n, *args)


# every argument that carries a quantum number, at a value no state has: at
# the parent these returned a number (energy -6.0 at Q = 0, a mass at
# n_tot = -1), NaN, or raised ZeroDivisionError or ValueError
@pytest.mark.parametrize(
    "fn, args, error",
    [
        pytest.param(gaussian_spectrum, (3, 1.0, 2.0, 0.5, 0.0), InvalidCoefficient,
                     id="gaussian-q0"),
        pytest.param(ho_energy_identical, (3, 1.0, 0.2, 0.1, -3.0), InvalidCoefficient,
                     id="ho-identical-q-negative"),
        pytest.param(gaussian_dual, (3, two_body_gaussian_energy, 1.0, 20.0, 1.0, -1.0),
                     InvalidCoefficient, id="gaussian-dual-q-negative"),
        pytest.param(linear_dual, (3, two_body_linear_mass, 1.0, 0.2, 0.15, 0.0),
                     InvalidCoefficient, id="linear-dual-q0"),
        pytest.param(pairwise_g_dual, (3, _funnel_two_body, -3.0), InvalidCoefficient,
                     id="pairwise-g-dual-q-negative"),
        pytest.param(pairwise_sigma_dual, (3, _funnel_two_body, 0.0), InvalidCoefficient,
                     id="pairwise-sigma-dual-q0"),
        pytest.param(baryon_mass, (BaryonParams(0.2, 0.4), -1, 0), ValidationError,
                     id="baryon-n-tot-negative"),
        pytest.param(baryon_mass, (BaryonParams(0.2, 0.4), 0.5, 0), ValidationError,
                     id="baryon-n-tot-fraction"),
        pytest.param(baryon_mass, (BaryonParams(0.2, 0.4), 0, True), ValidationError,
                     id="baryon-l-tot-bool"),
        pytest.param(gaussian_critical_coupling, (3, NAN), InvalidCoefficient,
                     id="gaussian-critical-q-nan"),
        pytest.param(atomic_binding_parameter, (3, NAN, 0.01, 3.0), InvalidCoefficient,
                     id="atomic-binding-alpha-nan"),
        pytest.param(linear_mass, (3, 1.0, 0.2, 0.1, 0.0), InvalidCoefficient,
                     id="linear-q0"),
        pytest.param(atomic_mass, (3, 1.0, 0.3, 0.1, 0.0), InvalidCoefficient,
                     id="atomic-q0"),
        pytest.param(atomic_stable, (3, 0.3, 0.1, 0.0), InvalidCoefficient,
                     id="atomic-stable-q0"),
        pytest.param(coulomb_nbody, (3, 1.0, 0.1, 0.0), InvalidCoefficient,
                     id="coulomb-q-c0"),
        pytest.param(two_body_coulomb_ground, (2.0, 1.0, 0.1, 0.0), InvalidCoefficient,
                     id="two-body-coulomb-q-c0"),
        pytest.param(two_body_linear_mass, (2.0, 0.0, 0.2, 0.0), InvalidCoefficient,
                     id="two-body-linear-q2-0"),
        pytest.param(srho_mass, (3, 1.0, 0.3, 0.2, -3.0), InvalidCoefficient,
                     id="srho-q-negative"),
        pytest.param(ground_state_q, (7, "antisymmetric", 1.5), ValidationError,
                     id="ground-state-fractional-degeneracy"),
    ],
)
def test_closed_forms_reject_quantum_numbers_no_state_has(fn, args, error):
    with pytest.raises(error):
        fn(*args)


def _linear_mass(*args):
    return linear_mass(*args).mass


def _gaussian_energy(*args):
    return gaussian_spectrum(*args).energy


_SUBNORMAL_SLACK = 4 * 5e-324


@pytest.mark.parametrize(
    "fn,args,expected",
    [
        # Y = 3^(3/2) N m^2 / (2 Q c) below the smallest normal float: the
        # massless end of the formula
        pytest.param(_linear_mass, (3, 1e-170, 0.2, 0.1, 3.0), 3.665430794224324,
                     id="linear-y-zero"),
        pytest.param(two_body_linear_mass, (2.0, 1e-170, 0.3, 1.5), 1.8973665961010275,
                     id="two-body-linear-y-zero"),
        pytest.param(two_body_linear_mass, (2.0, 1e-160, 1e-9, 5.5),
                     two_body_linear_mass(2.0, 0.0, 1e-9, 5.5), id="two-body-linear-y-subnormal"),
        # an energy past the float range, and a Y whose sqrt(2 N m alpha)
        # underflowed (W0 of that Y lies off the real branch)
        pytest.param(ho_energy_identical, (3, 1e-300, 1e10, 0.0, 3.0), NumericalError,
                     id="ho-identical-inf"),
        pytest.param(gaussian_energy_alt, (3, 1e-200, 1e-200, 1e-150, 3.0), NumericalError,
                     id="gaussian-alt-root-underflow"),
        # 2 N m alpha = 6e-320 is subnormal, with digits lost before the root;
        # the reference is the level evaluated at 50 digits
        pytest.param(_gaussian_energy, (3, 1e-160, 1e-160, 1e-171, 3.0),
                     -2.9999999999265153e-160, id="gaussian-root-subnormal"),
        # a product in a denominator underflows to 0: a zero numerator takes
        # the massless (or uncoupled) limit, any other raises a typed error;
        # subnormal masses are held to a few units of the subnormal spacing
        # (the references are 2 sqrt(N Q c) and the oscillator level and mu0
        # at 50 digits); a two-body weight sigma or coupling g <= 0 is refused
        pytest.param(_linear_mass, (2, 0.0, 0.0, 1e-320, 1e-320),
                     pytest.approx(2.0 * math.sqrt(2.0) * 1e-320, abs=_SUBNORMAL_SLACK),
                     id="linear-massless"),
        pytest.param(_linear_mass, (2, 1.0, 0.0, 1e-320, 1e-320), DomainError, id="linear"),
        pytest.param(lambda *x: (srho_mass(*x).mass, srho_mass(*x).mu0),
                     (2, 1e-320, 0.0, 1e-320, 1e-320),
                     pytest.approx((3.7995624532904732e-320, 1.4901995297961257e-320),
                                   abs=_SUBNORMAL_SLACK),
                     id="srho-massless"),
        pytest.param(srho_mass, (2, 1.0, 0.0, 1e-320, 1e-320), DomainError, id="srho"),
        pytest.param(coulomb_nbody, (2, 1e-320, 0.0, 1e-320), coulomb_nbody(2, 1e-320, 0.0),
                     id="coulomb-uncoupled"),
        pytest.param(coulomb_nbody, (2, 1.0, 0.5, 1e-200), OverCritical, id="coulomb"),
        pytest.param(two_body_coulomb_ground, (1.0, 1e-320, 0.0, 1e-320), 1e-320,
                     id="two-body-coulomb-uncoupled"),
        pytest.param(two_body_coulomb_ground, (0.0, 1e-320, 0.0, 1e-320), InvalidCoefficient,
                     id="two-body-coulomb-sigma0"),
        pytest.param(two_body_linear_mass, (1.0, 0.0, 1e-320, 1e-320),
                     pytest.approx(2e-320, abs=_SUBNORMAL_SLACK), id="two-body-linear-massless"),
        pytest.param(two_body_linear_mass, (0.0, 0.0, 1e-320, 1e-320), InvalidCoefficient,
                     id="two-body-linear-sigma0"),
        pytest.param(two_body_linear_mass, (-1.0, 0.0, 1e-320, 0.5), InvalidCoefficient,
                     id="two-body-linear-sigma-negative"),
        pytest.param(pairwise_sigma_dual, (3, _funnel_two_body, 1.5, 0.0), InvalidCoefficient,
                     id="pairwise-sigma-dual-sigma0"),
        pytest.param(pairwise_g_dual, (3, _funnel_two_body, 1.5, 0.0), InvalidCoefficient,
                     id="pairwise-g-dual-g0"),
    ],
)
def test_closed_forms_at_the_ends_of_the_float_range(fn, args, expected):
    if isinstance(expected, float):
        assert fn(*args) == pytest.approx(expected, rel=1e-14, abs=0.0)
    elif not isinstance(expected, type):
        assert fn(*args) == expected
    else:
        with pytest.raises(expected):
            fn(*args)


# ---------------------------------------------------------------------------
# the closed-form contract: a finite mass or energy, or a typed error

EDGES = (0.0, -1.0, 5e-324, 1e-320, 1e-200, 0.5, 3.0, 1e200, 1.7e308)
NS = (2, 3)


def _coulomb_pair(m, sigma):
    return two_body_coulomb_ground(sigma, m, 0.3)


def _baryon(lam, als, variant, n_tot, l_tot):
    return baryon_mass(BaryonParams(lam, als, variant), n_tot, l_tot)


def _edge_draws(ns, count):
    """Seeded points of the grid, count per N.

    Each holds N, then N masses, N one-body springs and the N(N-1)/2 pair
    springs (12, 13, ..., 23, ...), each a value of EDGES.
    """
    rng = random.Random(24)
    return [
        (n,) + tuple(rng.choice(EDGES) for _ in range(n * (n + 3) // 2))
        for n in ns
        for _ in range(count)
    ]


def _ho_general(draw):
    n, x = draw[0], draw[1:]
    pairs = iter(x[2 * n:])  # only the strict upper triangle of kbar is read
    kbar = [[next(pairs) if j > i else 0.0 for j in range(n)] for i in range(n)]
    return ho_energies_general(x[:n], x[n:2 * n], kbar, [(0, 0)] * (n - 1)).energy


def _ho_3body(draw):
    return ho_energy_3body_closed(draw[1:4], draw[4:7], draw[7:], (0, 0), (0, 0))


def _record(solve):
    """Every field of the solution record that solve returns, as a list."""
    def fields(*args):
        sol = solve(*args)
        return [sol.mass, sol.x0, sol.mu0, sol.r0_one, sol.r0_pair]

    return fields


def _equal_power(n, kinematics, lam, m, a, b):
    spec = power_system(n, m, kinematics, one=(a, lam), pair=(b, lam))
    return equal_power_mass(spec, ground(n))


# every public closed form of systems and ho, linear_mass and equal_power_mass:
# (the mass or energy it returns, or every field of its solution record; one
# axis of values per argument). The oscillator solvers that take arrays have
# grids of 9^5 and 9^9 points, so they sweep one axis of seeded draws from
# them; the closed three-body form exists at N = 3 only. equal_power_mass
# takes a one-body and a pairwise term of one exponent: -1 and 0.5 keep their
# own branches, 1 and 2 are handed to linear_mass and srho_mass.
CONTRACT = {
    "ho_energies_general": (_ho_general, (_edge_draws(NS, 1500),)),
    "ho_energy_3body_closed": (_ho_3body, (_edge_draws((3,), 1500),)),
    "linear_mass": (_record(linear_mass), (NS,) + (EDGES,) * 4),
    "equal_power_mass": (
        _record(_equal_power),
        (NS, (SR, Kinematics.NONRELATIVISTIC), (-1.0, 0.5, 1.0, 2.0)) + (EDGES,) * 3,
    ),
    "srho_mass": (_record(srho_mass), (NS,) + (EDGES,) * 4),
    "ho_energy_identical": (ho_energy_identical, (NS,) + (EDGES,) * 4),
    "coulomb_nbody": (coulomb_nbody, (NS,) + (EDGES,) * 3),
    "baryonic_ur": (_record(baryonic_ur), (NS,) + (EDGES,) * 3),
    "atomic_mass": (atomic_mass, (NS,) + (EDGES,) * 4),
    "atomic_mass_nr": (atomic_mass_nr, (NS,) + (EDGES,) * 4),
    "gaussian_spectrum": (_gaussian_energy, (NS,) + (EDGES,) * 4),
    "gaussian_energy_alt": (gaussian_energy_alt, (NS,) + (EDGES,) * 4),
    "funnel_nbody_ur": (funnel_nbody_ur, (NS,) + (EDGES,) * 3),
    "twobody_reduction": (
        lambda n, m: twobody_reduction(n, m, _coulomb_pair), (NS, EDGES)
    ),
    "pairwise_sigma_dual": (
        lambda n, *x: pairwise_sigma_dual(n, _funnel_two_body, *x), (NS, EDGES, EDGES)
    ),
    "pairwise_g_dual": (
        lambda n, *x: pairwise_g_dual(n, _funnel_two_body, *x), (NS, EDGES, EDGES)
    ),
    "gaussian_dual": (
        lambda n, *x: gaussian_dual(n, two_body_gaussian_energy, *x), (NS,) + (EDGES,) * 4
    ),
    "linear_dual": (
        lambda n, *x: linear_dual(n, two_body_linear_mass, *x), (NS,) + (EDGES,) * 4
    ),
    "duality_identities": (
        lambda n: [v for _, *pair in duality_identities(n) for v in pair], (NS,)
    ),
    "two_body_linear_mass": (two_body_linear_mass, (EDGES,) * 4),
    "two_body_funnel_ur": (two_body_funnel_ur, (EDGES,) * 4),
    "two_body_coulomb_ground": (two_body_coulomb_ground, (EDGES,) * 4),
    "two_body_gaussian_energy": (two_body_gaussian_energy, (EDGES,) * 4),
    "baryon_mass": (_baryon, (EDGES, EDGES, tuple(BaryonVariant), (0, 1), (0, 2))),
    "baryon_single_gaussian_ground": (baryon_single_gaussian_ground, (EDGES, EDGES)),
    "baryon_table": (
        lambda *x: [v for row in baryon_table(*x) for v in row[2:]], (EDGES, EDGES)
    ),
}

# points off the grid, just inside the float range, where a product overflows
# to inf or a quotient of two such products is NaN
OFF_GRID = [
    ("coulomb_nbody", (2, 1e-320, 1e200, 1e200)),
    ("two_body_coulomb_ground", (1.0, 1e-320, 1e200, 1e200)),
    ("funnel_nbody_ur", (2, 0.5, 0.0, 1e308)),
    ("atomic_mass", (2, 1e308, 0.0, 0.0, 1.5)),
    ("atomic_mass_nr", (2, 1e308, 0.0, 0.0, 1.5)),
    ("gaussian_spectrum", (2, 1e-320, 0.5, 1e-320, 0.5)),
    ("gaussian_energy_alt", (2, 0.5, 1e308, 3.0, 1e308)),
    ("two_body_linear_mass", (1e-200, 0.0, 1e200, 1e308)),
    ("two_body_funnel_ur", (1e-200, 1e308, 0.0, 1e308)),
    ("baryon_mass", (1e308, 0.0, BaryonVariant.M0, 0, 0)),
]


def test_closed_forms_return_a_finite_value_or_a_typed_error():
    # every argument at every value of EDGES, at N = 2 and 3: about 167 000
    # calls, none of which may return inf or NaN (in any field of a solution
    # record) or raise outside AuxFieldError
    calls = [
        (name, args)
        for name, (_, axes) in CONTRACT.items()
        for args in itertools.product(*axes)
    ]
    failures = []
    for name, args in calls + OFF_GRID:
        try:
            out = CONTRACT[name][0](*args)
        except AuxFieldError:
            continue
        except Exception as exc:  # noqa: BLE001 - the contract allows only AuxFieldError
            failures.append(f"{name}{args}: {exc!r}")
            continue
        if not all(math.isfinite(v) for v in (out if isinstance(out, list) else [out])):
            failures.append(f"{name}{args} = {out!r}")
    assert not failures, f"{len(failures)} calls broke the contract: {failures[:10]}"


# ---------------------------------------------------------------------------
# bound labels: each closed form labels a mass as afm_mass does on its spec


def _linear_label_pair(n, m, a, b):
    spec = power_system(n, m, SR, one=(a, 1.0), pair=(b, 1.0))
    return linear_mass(n, m, a, b, ground(n).q), spec


def _baryonic_label_pair(n, a, b):
    spec = power_system(n, 0.0, SR, one=(a, 1.0), pair=(b, -1.0))
    return baryonic_ur(n, a, b, ground(n).q), spec


def _srho_label_pair(n, m, k, kbar):
    spec = power_system(n, m, SR, one=(k, 2.0), pair=(kbar, 2.0))
    return srho_mass(n, m, k, kbar, ground(n).q), spec


def _label_draws(seed, count):
    """Linear, baryonic and oscillator specs with mixed signs: fixed, then seeded."""
    rng = random.Random(seed)
    draws = [
        (_linear_label_pair, (3, 1.0, -0.1, 0.5)),  # negative one-body slope
        (_linear_label_pair, (3, 1.0, 1.0, -0.1)),  # negative pairwise slope
        (_baryonic_label_pair, (3, 0.5, -0.1)),  # repulsive Coulomb term
        (_srho_label_pair, (3, 1.0, -0.5, 0.4)),  # k < 0 < k + N kbar
    ]
    for _ in range(count):
        n = rng.randint(2, 5)
        m = rng.choice((0.0, rng.uniform(0.1, 3.0)))
        draws.append(
            (_linear_label_pair, (n, m, rng.uniform(-0.3, 1.0), rng.uniform(-0.3, 1.0)))
        )
        pull = rng.uniform(-0.5, 0.8) * 1.5 * (n - 1) * n / (n * (n - 1) / 2.0) ** 1.5
        draws.append((_baryonic_label_pair, (n, rng.uniform(0.05, 1.0), pull)))
        kbar = rng.uniform(0.05, 2.0)
        draws.append((_srho_label_pair, (n, m, rng.uniform(-0.9, 1.0) * n * kbar, kbar)))
    return draws


def test_closed_form_labels_match_afm_mass():
    compared = set()
    for i, (pair, args) in enumerate(_label_draws(23, 40)):
        try:
            closed, spec = pair(*args)
            reference = afm_mass(spec, ground(spec.n))
        except AuxFieldError:
            assert i >= 4, "each fixed spec has a mass by both routes"
            continue
        assert closed.bound_character is reference.bound_character, (pair.__name__, args)
        compared.add((pair.__name__, closed.bound_character))
    # each family is compared, and the mixed signs reach the UNKNOWN label
    assert {name for name, _ in compared} == {
        "_linear_label_pair", "_baryonic_label_pair", "_srho_label_pair"
    }
    assert ("_linear_label_pair", BoundCharacter.UNKNOWN) in compared
    assert ("_baryonic_label_pair", BoundCharacter.UNKNOWN) in compared


# ---------------------------------------------------------------------------
# typed raises that no other test reaches

_K3, _KBAR3 = [0.1, 0.2, 0.3], [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
_PAIR_SPRING = (PotentialTerm(Scope.PAIRWISE, PowerLaw(1.0, 2.0)),)
_NR = Kinematics.NONRELATIVISTIC


def _validate(masses=Identical(1.0), one_body=(), pairwise=_PAIR_SPRING, modes=None):
    modes = ((0, 0), (0, 0)) if modes is None else modes
    return validate(SystemSpec(3, masses, _NR, one_body, pairwise), QuantumNumbers(modes))


@pytest.mark.parametrize(
    "fn, args, error",
    [
        # systems
        pytest.param(coulomb_nbody, (3, 0.0, 0.1), SingularMasses, id="coulomb-m0"),
        pytest.param(gaussian_spectrum, (3, 0.0, 2.0, 0.5, 3.0), SingularMasses,
                     id="gaussian-m0"),
        pytest.param(gaussian_spectrum, (3, 1.0, 0.0, 0.5, 3.0), InvalidCoefficient,
                     id="gaussian-alpha0"),
        pytest.param(gaussian_spectrum, (3, 1.0, 2.0, -0.5, 3.0), InvalidCoefficient,
                     id="gaussian-beta-negative"),
        pytest.param(gaussian_energy_alt, (3, -1.0, 2.0, 0.5, 3.0), SingularMasses,
                     id="gaussian-alt-m-negative"),
        pytest.param(gaussian_energy_alt, (3, 1.0, -2.0, 0.5, 3.0), InvalidCoefficient,
                     id="gaussian-alt-alpha-negative"),
        pytest.param(gaussian_energy_alt, (3, 1.0, 2.0, 0.0, 3.0), InvalidCoefficient,
                     id="gaussian-alt-beta0"),
        pytest.param(two_body_coulomb_ground, (2.0, 0.0, 0.1), SingularMasses,
                     id="two-body-coulomb-m0"),
        pytest.param(two_body_coulomb_ground, (2.0, 1.0, 3.0), OverCritical,
                     id="two-body-coulomb-over-critical"),
        pytest.param(baryonic_ur, (3, 0.0, 0.1, 3.0), InvalidCoefficient, id="baryonic-a0"),
        pytest.param(funnel_nbody_ur, (3, -0.2, 0.1, 3.0), InvalidCoefficient,
                     id="funnel-a-negative"),
        pytest.param(two_body_funnel_ur, (2.0, 0.0, 0.1, 1.5), InvalidCoefficient,
                     id="two-body-funnel-a0"),
        pytest.param(two_body_funnel_ur, (2.0, 0.2, 5.0, 1.5), OverCritical,
                     id="two-body-funnel-over-critical"),
        pytest.param(baryon_mass, (BaryonParams(0.0, 0.4), 0, 0), InvalidCoefficient,
                     id="baryon-lambda0"),
        pytest.param(baryon_mass, (BaryonParams(0.2, -0.1), 0, 0), InvalidCoefficient,
                     id="baryon-alpha-negative"),
        pytest.param(baryon_mass, (BaryonParams(0.2, 2.0, BaryonVariant.M1), 0, 0),
                     OverCritical, id="baryon-m1-over-critical"),
        pytest.param(baryon_mass, (BaryonParams(0.2, 2.0, BaryonVariant.M2), 0, 0),
                     OverCritical, id="baryon-m2-over-critical"),
        pytest.param(atomic_mass, (3, 0.0, 0.3, 0.1, 3.0), SingularMasses, id="atomic-m0"),
        pytest.param(atomic_mass, (3, 1.0, -0.3, 0.1, 3.0), InvalidCoefficient,
                     id="atomic-alpha-negative"),
        pytest.param(atomic_mass, (3, 1.0, 0.0, 3.0, 3.0), UnstableConfiguration,
                     id="atomic-d-below-minus-one"),
        pytest.param(two_body_linear_mass, (2.0, 1.0, 0.0, 1.5), InvalidCoefficient,
                     id="two-body-linear-slope0"),
        pytest.param(two_body_linear_mass, (2.0, -1.0, 0.2, 1.5), SingularMasses,
                     id="two-body-linear-m-negative"),
        # ho
        pytest.param(build_quadratic_form, ([1.0, -1.0, 1.0], _K3, _KBAR3), SingularMasses,
                     id="quadratic-form-mass-negative"),
        pytest.param(build_quadratic_form, ([1.0, 1.0, 1.0], _K3, _KBAR3, 0.0),
                     SingularMasses, id="quadratic-form-reference-mass0"),
        pytest.param(build_quadratic_form, ([1.0], [0.1], [[0.0]]), ValidationError,
                     id="quadratic-form-one-particle"),
        pytest.param(build_quadratic_form, ([1.0, 1.0, 1.0], _K3[:2], _KBAR3), ValidationError,
                     id="quadratic-form-k-shape"),
        pytest.param(ho_energies_general, ([1.0, 1.0, 1.0], _K3, _KBAR3, [(0, 0)]),
                     ValidationError, id="ho-general-mode-count"),
        pytest.param(ho_energy_3body_closed, ([1.0, 1.0], _K3, [0.5] * 3, (0, 0), (0, 0)),
                     ValidationError, id="ho-3body-lengths"),
        pytest.param(ho_energy_3body_closed, ([1.0, 0.0, 1.0], _K3, [0.5] * 3, (0, 0), (0, 0)),
                     SingularMasses, id="ho-3body-mass0"),
        # all three negative: the mass ratios are positive, so only the
        # masses themselves show it
        pytest.param(ho_energy_3body_closed, ([-1.0] * 3, _K3, [0.5] * 3, (0, 0), (0, 0)),
                     SingularMasses, id="ho-3body-masses-negative"),
        pytest.param(ho_energy_identical, (3, 0.0, 0.3, 0.2, 3.0), SingularMasses,
                     id="ho-identical-m0"),
        pytest.param(srho_mass, (3, -1.0, 0.3, 0.2, 3.0), SingularMasses,
                     id="srho-m-negative"),
        pytest.param(ground_state_q, (3, "mixed"), ValidationError, id="ground-state-symmetry"),
        # model
        pytest.param(lambda: SystemSpec(3, PerParticle((1.0,) * 3), _NR).identical_mass, (),
                     SingularMasses, id="identical-mass-of-per-particle"),
        pytest.param(_validate, (PerParticle((1.0, 1.0)),), SingularMasses,
                     id="per-particle-length"),
        pytest.param(_validate, (1.0,), ValidationError, id="unknown-masses-container"),
        pytest.param(_validate, (Identical(1.0), (), (PotentialTerm(Scope.PAIRWISE, "spring"),)),
                     UnsupportedForm, id="unknown-form"),
        pytest.param(_validate, (Identical(1.0), _PAIR_SPRING, ()), ValidationError,
                     id="term-under-the-wrong-scope"),
        pytest.param(_validate, (Identical(1.0), (), _PAIR_SPRING, ((0, 0), (-1, 0))),
                     ValidationError, id="negative-mode"),
        pytest.param(_validate, (Identical(1.0), (), _PAIR_SPRING, ((0, 0), (0.5, 0))),
                     ValidationError, id="fractional-mode"),
        # engine
        pytest.param(equal_power_mass, (gaussian_system(3, 1.0, 2.0, 0.5), ground(3)),
                     UnsupportedForm, id="equal-power-gaussian"),
        pytest.param(equal_power_mass, (SystemSpec(3, Identical(1.0), _NR), ground(3)),
                     UnsupportedCombination, id="equal-power-no-term"),
    ],
)
def test_typed_raise(fn, args, error):
    with pytest.raises(error):
        fn(*args)


def _cli(tmp_path, argv, doc=None):
    """Run cli.main with --format json and raise the error type it reports.

    doc, when given, is written to a spec file passed as --spec. The exit
    code must be 2 for a ValidationError and 3 for any other error.
    """
    if doc is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--spec", str(path)]
    out = io.StringIO()
    code = cli.main(argv + ["--format", "json"], out=out)
    report = json.loads(out.getvalue().splitlines()[-1])["error"]
    error = getattr(errors, report["type"])
    validation = issubclass(error, ValidationError)
    assert code == (cli.EXIT_VALIDATION if validation else cli.EXIT_NUMERICAL)
    raise error(report["message"])


_SPRING_FORM = SystemSpec(3, Identical(1.0), _NR, (), (PotentialTerm(Scope.PAIRWISE, "spring"),))


@pytest.mark.parametrize(
    "patch, call, error",
    [
        # special
        pytest.param(None, lambda tmp: symmetric_eigen([[1.0, 2.0, 3.0]]), NotSymmetric,
                     id="eigen-not-square"),
        # oracles: a pass tolerance no pass meets runs out the pass limit
        pytest.param(("auxfield.oracles._PASS_TOL", -1.0),
                     lambda tmp: numeric_afm_minimize(power_system(3, 1.0, _NR, pair=(1.0, 1.0)),
                                                      ground(3)),
                     NonConvergence, id="oracle-pass-limit"),
        pytest.param(None, lambda tmp: numeric_afm_minimize(_SPRING_FORM, ground(3)),
                     UnsupportedForm, id="oracle-unknown-form"),
        pytest.param(None, lambda tmp: gaussian_trial_bound(_SPRING_FORM), UnsupportedForm,
                     id="trial-bound-unknown-form"),
        # cli
        pytest.param(None, lambda tmp: _cli(tmp, ["solve"], [1.0, 2.0]), ValidationError,
                     id="cli-spec-not-an-object"),
        pytest.param(("auxfield.systems.duality_identities", lambda n: [("broken", 1.0, 2.0)]),
                     lambda tmp: _cli(tmp, ["duality-check", "--n", "3"]), NumericalError,
                     id="cli-duality-violated"),
    ],
)
def test_typed_raise_in_special_oracles_and_cli(tmp_path, monkeypatch, patch, call, error):
    if patch is not None:
        monkeypatch.setattr(*patch)
    with pytest.raises(error):
        call(tmp_path)
