import math

import numpy as np
import pytest

from auxfield.errors import NoRestoringForce, NotClosedShell, NumericalError
from auxfield.ho import (
    build_quadratic_form,
    ground_state_q,
    ho_energies_general,
    ho_energy_3body_closed,
    ho_energy_identical,
    srho_mass,
)


def pair_matrix(n, value):
    kbar = np.full((n, n), float(value))
    np.fill_diagonal(kbar, 0.0)
    return kbar


def filled_shell_q(n, d):
    """Enumeration oracle: pile N-1 modes into oscillator bands, d per orbital."""
    remaining = n - 1
    q = 1.5 * (n - 1)
    band = 0
    while remaining > 0:
        states = d * (band + 1) * (band + 2) // 2
        if states > remaining:
            raise ValueError("not a closed shell")
        q += states * band
        remaining -= states
        band += 1
    return q


# ---------------------------------------------------------------------------
# quadratic form


def test_identical_particles_give_diagonal_j():
    n = 3
    qf = build_quadratic_form([1.0] * n, [0.5] * n, pair_matrix(n, 0.25))
    expected = 0.5 + n * 0.25
    assert np.allclose(qf.j, np.diag([expected] * (n - 1)), atol=1e-12)


def test_u_and_b_are_inverse():
    qf = build_quadratic_form([1.0, 2.0, 3.0, 4.0], [0.1] * 4, pair_matrix(4, 0.7))
    assert np.max(np.abs(qf.u @ qf.b - np.eye(4))) < 1e-12


def test_eigen_sum_equals_trace():
    qf = build_quadratic_form([1.0, 2.0, 3.0], [0.0] * 3, pair_matrix(3, 1.0))
    evals = np.linalg.eigvalsh(qf.j)
    assert np.sum(evals) == pytest.approx(np.trace(qf.j), rel=1e-12)


def test_f_and_g_positive_semidefinite():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        masses = rng.uniform(0.1, 10.0, size=n)
        k = rng.uniform(0.0, 5.0, size=n)
        kbar = rng.uniform(0.0, 5.0, size=(n, n))
        kbar = 0.5 * (kbar + kbar.T)
        np.fill_diagonal(kbar, 0.0)
        qf = build_quadratic_form(masses, k, kbar)
        assert np.min(np.linalg.eigvalsh(qf.f)) >= -1e-12
        assert np.min(np.linalg.eigvalsh(qf.g)) >= -1e-12


def loop_reference(masses, kbar):
    """u, b and the unscaled pairwise form, built element by element."""
    n = len(masses)
    alpha = np.asarray(masses) / masses[0]
    cum = np.cumsum(alpha)
    u = np.zeros((n, n))
    for i in range(n - 1):
        u[i, : i + 1] = alpha[: i + 1] / cum[i]
        u[i, i + 1] = -1.0
    u[n - 1, :] = alpha / cum[-1]
    b = np.zeros((n, n))
    for l in range(n - 1):
        b[: l + 1, l] = alpha[l + 1] / cum[l + 1]
        b[l + 1, l] = -cum[l] / cum[l + 1]
    b[:, n - 1] = 1.0
    pair = np.zeros((n - 1, n - 1))
    for i in range(n):
        for j in range(i + 1, n):
            diff = b[i, : n - 1] - b[j, : n - 1]
            pair += kbar[i, j] * np.outer(diff, diff)
    return u, b, pair


def test_quadratic_form_matches_loop_reference():
    # u and b use the same arithmetic as the loops, so they must agree
    # bitwise; the pairwise sum runs in another order, so g agrees to rounding
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 16):
        masses = rng.uniform(0.1, 10.0, size=n)
        kbar = np.triu(rng.uniform(0.0, 5.0, size=(n, n)), 1)
        qf = build_quadratic_form(masses, rng.uniform(0.0, 5.0, size=n), kbar + kbar.T)
        u, b, pair = loop_reference(masses, kbar)
        assert np.array_equal(qf.u, u)
        assert np.array_equal(qf.b, b)
        g = np.outer(qf.lam, qf.lam) * pair
        assert np.max(np.abs(qf.g - g)) <= 1e-13 * np.max(np.abs(g))


def test_only_strict_upper_triangle_of_kbar_is_read():
    rng = np.random.default_rng(9)
    n = 6
    masses = rng.uniform(0.1, 10.0, size=n)
    k = rng.uniform(0.0, 5.0, size=n)
    upper = np.triu(rng.uniform(0.0, 5.0, size=(n, n)), 1)
    garbage = np.tril(rng.normal(scale=1e3, size=(n, n)))
    garbage[1, 1], garbage[4, 2] = math.nan, -math.inf
    clean = build_quadratic_form(masses, k, upper + upper.T)
    dirty = build_quadratic_form(masses, k, upper + garbage)
    assert np.array_equal(dirty.j, clean.j)


# ---------------------------------------------------------------------------
# general vs closed three-body solution


def test_general_unequal_masses_ground_level():
    # oracle: closed three-body expression with s = 132, r = 108, delta = sqrt(1872)
    s, r = 132.0, 108.0
    delta = math.sqrt(s * s - 4.0 * 1.0 * 2.0 * 3.0 * 6.0 * r)
    assert delta == pytest.approx(math.sqrt(1872.0))
    oracle = (math.sqrt(s + delta) + math.sqrt(s - delta)) * 1.5 / math.sqrt(36.0)
    assert oracle == pytest.approx(5.6646674455010935, rel=1e-13)

    entry = ho_energies_general([1.0, 2.0, 3.0], [0.0] * 3, pair_matrix(3, 1.0), ((0, 0), (0, 0)))
    assert entry.energy == pytest.approx(oracle, rel=1e-12)


def test_reference_mass_invariance():
    masses = [1.0, 2.0, 3.0]
    for mref in (1.0, 6.0, 7.0):
        entry = ho_energies_general(
            masses, [0.2, 0.1, 0.3], pair_matrix(3, 1.0), ((0, 0), (0, 0)), mref
        )
        base = ho_energies_general(
            masses, [0.2, 0.1, 0.3], pair_matrix(3, 1.0), ((0, 0), (0, 0))
        )
        assert entry.energy == pytest.approx(base.energy, rel=1e-10)


def test_closed_3body_identical_collapses():
    e = ho_energy_3body_closed([1.0] * 3, [0.0] * 3, [1.0] * 3, (0, 0), (0, 0))
    assert e == pytest.approx(3.0 * math.sqrt(6.0), rel=1e-13)


def test_closed_3body_permutation_symmetry():
    base = ho_energy_3body_closed([1.0, 2.0, 3.0], [0.4, 0.2, 0.1], [1.0, 2.0, 0.5], (0, 0), (0, 0))
    # relabeling (1,2,3) -> (3,1,2): new pair (12,13,23) reads old (13,23,12)
    perm = ho_energy_3body_closed([3.0, 1.0, 2.0], [0.1, 0.4, 0.2], [2.0, 0.5, 1.0], (0, 0), (0, 0))
    assert perm == pytest.approx(base, rel=1e-12)


def test_closed_3body_excited_mode_pairing():
    # the first closed-form mode excites the stiffer internal mode, the
    # general solver pairs modes with eigenvalues ascending
    masses, k, kb = [1.0, 2.0, 3.0], [0.3, 0.1, 0.2], [1.0, 0.4, 0.7]
    closed = ho_energy_3body_closed(masses, k, kb, (1, 0), (0, 1))
    kbar = np.zeros((3, 3))
    kbar[0, 1] = kbar[1, 0] = kb[0]
    kbar[0, 2] = kbar[2, 0] = kb[1]
    kbar[1, 2] = kbar[2, 1] = kb[2]
    general = ho_energies_general(masses, k, kbar, ((0, 1), (1, 0)))
    assert closed == pytest.approx(general.energy, rel=1e-12)


def test_closed_vs_general_random_draws():
    rng = np.random.default_rng(202)
    for _ in range(200):
        masses = rng.uniform(0.1, 10.0, size=3)
        k = rng.uniform(0.0, 5.0, size=3)
        kb = rng.uniform(0.0, 5.0, size=3)
        if np.sum(k) + np.sum(kb) < 1e-3:
            kb[0] = 1.0
        closed = ho_energy_3body_closed(masses, k, kb, (0, 0), (0, 0))
        kbar = np.zeros((3, 3))
        kbar[0, 1] = kbar[1, 0] = kb[0]
        kbar[0, 2] = kbar[2, 0] = kb[1]
        kbar[1, 2] = kbar[2, 1] = kb[2]
        general = ho_energies_general(masses, k, kbar, ((0, 0), (0, 0)))
        assert closed == pytest.approx(general.energy, rel=1e-10)


@pytest.mark.parametrize("spread", [1e-3, 1e-6, 1e-9])
def test_closed_3body_near_degenerate_masses(spread):
    # equal springs and nearly equal masses make the two internal frequencies
    # nearly coincide; the closed form must keep full precision there, with
    # either mode excited
    rng = np.random.default_rng(31)
    for _ in range(30):
        masses = list(rng.uniform(0.1, 10.0) * (1.0 + spread * rng.uniform(-1.0, 1.0, 3)))
        k = [rng.uniform(0.0, 5.0)] * 3
        kb = [rng.uniform(0.05, 5.0)] * 3
        kbar = np.full((3, 3), kb[0])
        np.fill_diagonal(kbar, 0.0)
        for stiff, soft in (((1, 0), (0, 0)), ((0, 1), (2, 0))):
            closed = ho_energy_3body_closed(masses, k, kb, stiff, soft)
            general = ho_energies_general(masses, k, kbar, (soft, stiff))
            assert closed == pytest.approx(general.energy, rel=1e-12)


# ---------------------------------------------------------------------------
# identical particles


def test_identical_energy_examples():
    assert ho_energy_identical(3, 1.0, 0.0, 1.0, 3.0) == pytest.approx(
        3.0 * math.sqrt(6.0), rel=1e-14
    )
    assert ho_energy_identical(2, 1.0, 0.0, 1.0, 1.5) == pytest.approx(3.0, rel=1e-14)


def test_identical_energy_cross_check_general():
    n, m, k, kbar = 5, 2.0, 1.0, 0.5
    q = ground_state_q(n)
    assert q == pytest.approx(6.0)
    direct = ho_energy_identical(n, m, k, kbar, q)
    assert direct == pytest.approx(6.0 * math.sqrt(3.5), rel=1e-12)
    general = ho_energies_general(
        [m] * n, [k] * n, pair_matrix(n, kbar), ((0, 0),) * (n - 1)
    )
    assert direct == pytest.approx(general.energy, rel=1e-12)


@pytest.mark.parametrize("n", [40, 64])
def test_general_beyond_33_particles_matches_library_eigenvalues(n):
    rng = np.random.default_rng(n)
    masses = rng.uniform(0.1, 10.0, size=n)
    k = rng.uniform(0.0, 5.0, size=n)
    upper = np.triu(rng.uniform(0.0, 5.0, size=(n, n)), 1)
    modes = ((1, 2),) + ((0, 0),) * (n - 3) + ((0, 1),)
    entry = ho_energies_general(masses, k, upper + upper.T, modes)
    evals = np.linalg.eigvalsh(build_quadratic_form(masses, k, upper + upper.T).j)
    omegas = np.sqrt(2.0 * evals / masses[0])
    assert np.max(np.abs(np.array(entry.omegas) - omegas)) <= 1e-12 * omegas[-1]
    energy = sum(w * (2 * ni + li + 1.5) for w, (ni, li) in zip(omegas, modes))
    assert entry.energy == pytest.approx(energy, rel=1e-12)


def test_general_energy_past_the_float_range_raises():
    # a subnormal mass makes every frequency sqrt(2 d / m) inf
    with pytest.raises(NumericalError):
        ho_energies_general([2.2e-309] * 3, [2.0] * 3, pair_matrix(3, 0.0), [(0, 0)] * 2)


@pytest.mark.parametrize(
    "k, kbar",
    [
        pytest.param([0.0] * 3, pair_matrix(3, 0.0), id="no-springs"),
        pytest.param([-1.0] * 3, pair_matrix(3, -0.5), id="repulsive"),
        pytest.param([2.0] * 3, pair_matrix(3, -1.0), id="repulsive-pairs"),
        # eigenvalues -0.22 and 2.01: one mode bound, the other not
        pytest.param([1.0, -8.0, 1.0], pair_matrix(3, 0.2), id="mixed-sign"),
    ],
)
def test_energy_requires_restoring_force(k, kbar):
    # each quadratic form has an eigenvalue at or below zero; that mode was
    # given a zero frequency and the level a finite energy, and the closed
    # three-body form gave 0.0 or a math domain ValueError
    masses = [1.0, 2.5, 0.7]
    with pytest.raises(NoRestoringForce):
        ho_energies_general(masses, k, kbar, [(0, 0)] * 2)
    pairs = (kbar[0, 1], kbar[0, 2], kbar[1, 2])
    with pytest.raises(NoRestoringForce):
        ho_energy_3body_closed(masses, k, pairs, (0, 0), (0, 0))


def test_general_energy_free_mode_at_rounding_raises():
    # two pairs joined by no spring: the relative mode of the pairs is free,
    # and its eigenvalue comes out within rounding of zero, not exactly zero
    rng = np.random.default_rng(3)
    masses = rng.uniform(0.1, 10.0, size=4)
    kbar = np.zeros((4, 4))
    kbar[0, 1] = kbar[1, 0] = 1.7
    kbar[2, 3] = kbar[3, 2] = 0.9
    with pytest.raises(NoRestoringForce):
        ho_energies_general(masses, [0.0] * 4, kbar, [(0, 0)] * 3)
    # one weak one-body spring binds it
    entry = ho_energies_general(masses, [1e-6, 0.0, 0.0, 0.0], kbar, [(0, 0)] * 3)
    assert min(entry.omegas) > 0.0


def test_three_body_closed_rejects_a_nan_mass():
    # a NaN mass passed the positivity check and gave a NaN energy
    for masses in ([math.nan, 2.0, 3.0], [1.0, math.nan, 3.0]):
        with pytest.raises(NumericalError):
            ho_energy_3body_closed(masses, [1.0] * 3, [0.5] * 3, (0, 0), (0, 0))


def test_identical_energy_requires_restoring_force():
    with pytest.raises(NoRestoringForce):
        ho_energy_identical(3, 1.0, 0.0, 0.0, 3.0)


# ---------------------------------------------------------------------------
# ground-state principal number


def test_symmetric_ground_q():
    assert ground_state_q(4) == pytest.approx(4.5)


def test_antisymmetric_closed_shell():
    assert ground_state_q(9, "antisymmetric", degeneracy=2) == pytest.approx(18.0)
    assert filled_shell_q(9, 2) == pytest.approx(18.0)
    for n, d in ((5, 1), (21, 2), (11, 1)):
        assert ground_state_q(n, "antisymmetric", degeneracy=d) == pytest.approx(
            filled_shell_q(n, d)
        )


def test_not_closed_shell_rejected():
    with pytest.raises(NotClosedShell):
        ground_state_q(10, "antisymmetric", degeneracy=1)


def test_antisymmetric_asymptotic_limit():
    # largest closed shell near 1e4 particles: bands 0..38 hold 10660 modes
    n = 10661
    q = ground_state_q(n, "antisymmetric", degeneracy=1)
    limit = (81.0 / 32.0) ** (1.0 / 3.0) * n ** (4.0 / 3.0)
    assert abs(q - limit) / limit < 0.02


# ---------------------------------------------------------------------------
# semirelativistic oscillator


def test_srho_massless_value():
    sol = srho_mass(2, 0.0, 0.0, 1.0, 1.5)
    assert sol.mass == pytest.approx(1.5 * 18.0 ** (1.0 / 3.0), rel=1e-14)
    assert sol.mass == pytest.approx(3.9311120913133446, rel=1e-13)


def test_srho_massless_continuity():
    tiny = srho_mass(2, 1e-6, 0.0, 1.0, 1.5).mass
    zero = srho_mass(2, 0.0, 0.0, 1.0, 1.5).mass
    assert abs(tiny - zero) / zero < 1e-5


def test_srho_mass_below_float_range_takes_massless_limit():
    # m^2 underflows in Y: the massless limit, not a division by zero
    light = srho_mass(3, 4.5e-203, 1.2e-38, 0.0, 3000.0)
    assert light.mass == pytest.approx(srho_mass(3, 0.0, 1.2e-38, 0.0, 3000.0).mass, rel=1e-15)


def test_srho_scale_identity():
    # mu0 and X0 must satisfy mu0^2 - m^2 = Q X0 / N
    for n, m, k, kbar, q in ((3, 1.0, 0.0, 0.2, 3.0), (4, 2.5, 1.0, 0.3, 6.5)):
        sol = srho_mass(n, m, k, kbar, q)
        assert sol.mu0**2 - m * m == pytest.approx(q * sol.x0 / n, rel=1e-11)


def test_srho_increasing_in_q():
    masses = [srho_mass(3, 1.0, 0.0, 0.2, q).mass for q in (3.0, 4.0, 5.0, 7.5, 10.0)]
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_srho_needs_restoring_force():
    with pytest.raises(NoRestoringForce):
        srho_mass(3, 1.0, 0.0, 0.0, 3.0)


def test_srho_two_body_reduction_consistency():
    # the N = 2, k = 0 case must agree with evaluating the same closed form
    # directly from its quartic ingredients
    m, kbar, q = 1.3, 0.8, 1.5
    sol = srho_mass(2, m, 0.0, kbar, q)
    y = (4.0 * m * m / 3.0) * (8.0 / (2.0 * kbar * q * q)) ** (2.0 / 3.0)
    from auxfield.special import quartic_root

    g = quartic_root(y)
    expected = 2.0 * 2.0 * m / math.sqrt(3.0 * y) * (1.0 / g + g * g)
    assert sol.mass == pytest.approx(expected, rel=1e-14)
