import math

import pytest

from auxfield.engine import linear_mass
from auxfield.errors import (
    NoBoundState,
    OverCritical,
    UnstableConfiguration,
    ValidationError,
)
from auxfield.ho import ground_state_q, ho_energy_identical, srho_mass
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
