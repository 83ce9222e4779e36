"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from auxfield.engine import afm_mass, equal_power_mass, linear_mass
from auxfield.ho import ho_energies_general, ho_energy_3body_closed, srho_mass
from auxfield.model import Kinematics, QuantumNumbers
from auxfield.oracles import gaussian_trial_bound, numeric_afm_minimize
from auxfield.special import cubic_root, lambert_w0, quartic_root
from auxfield.systems import (
    atomic_mass,
    baryon_single_gaussian_ground,
    baryon_table,
    baryonic_ur,
    coulomb_critical_coupling,
    funnel_nbody_ur,
    gaussian_critical_coupling,
    gaussian_dual,
    gaussian_energy_alt,
    gaussian_spectrum,
    linear_dual,
    pairwise_g_dual,
    two_body_funnel_ur,
    two_body_gaussian_energy,
    two_body_linear_mass,
)
from auxfield.errors import UnstableConfiguration
from conftest import gaussian_system, ground, power_system

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC

# Reference table for string tension 0.2 GeV^2 and strong coupling 0.4:
# (band, L, benchmark mass from a large oscillator-basis diagonalization,
#  M0, M1, M2), all in GeV, printed to three decimals.
REFERENCE_TABLE = (
    (0, 0, 2.128, 2.468, 2.168, 2.168),
    (1, 1, 2.606, 2.914, 2.596, 2.596),
    (2, 0, 2.739, 3.300, 2.962, 2.811),
    (2, 2, 2.959, 3.300, 2.962, 2.962),
    (3, 1, 3.125, 3.646, 3.288, 3.152),
    (3, 3, 3.299, 3.646, 3.288, 3.288),
    (4, 0, 3.260, 3.961, 3.585, 3.332),
    (4, 2, 3.422, 3.961, 3.585, 3.460),
    (4, 4, 3.581, 3.961, 3.585, 3.585),
    (5, 1, 3.584, 4.253, 3.858, 3.625),
    (5, 3, 3.716, 4.253, 3.858, 3.743),
    (5, 5, 3.861, 4.253, 3.858, 3.858),
    (6, 0, 3.721, 4.527, 4.114, 3.782),
    (6, 2, 3.838, 4.527, 4.114, 3.895),
    (6, 4, 3.966, 4.527, 4.114, 4.006),
    (6, 6, 4.103, 4.527, 4.114, 4.114),
)


def excited(n, band):
    return QuantumNumbers(((band, 0),) + ((0, 0),) * (n - 2))


def test_criterion_1_baryon_table_reproduction():
    start = time.perf_counter()
    rows = baryon_table(0.2, 0.4)
    computed = {(b, l): (m0, m1, m2) for b, l, m0, m1, m2 in rows}
    for band, l, benchmark, ref_m0, ref_m1, ref_m2 in REFERENCE_TABLE:
        m0, m1, m2 = computed[(band, l)]
        assert abs(m0 - ref_m0) <= 5e-4, (band, l, "M0")
        assert abs(m1 - ref_m1) <= 5e-4, (band, l, "M1")
        assert abs(m2 - ref_m2) <= 5e-4, (band, l, "M2")
        # every M0 value must stay above the benchmark eigenmass
        assert m0 > benchmark, (band, l, "upper-bound property")
    # the single-Gaussian variational ground state improves on M0 at band 0
    gaussian_ground = baryon_single_gaussian_ground(0.2, 0.4)
    assert computed[(0, 0)][0] >= gaussian_ground
    assert abs(computed[(0, 0)][0] - 2.468) <= 5e-4
    assert abs(gaussian_ground - 2.168) <= 5e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1 (baryon table, 16 rows x 3 columns +-0.0005): PASS [{elapsed:.3f}s]")


def test_criterion_2_ho_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        masses = rng.uniform(0.1, 10.0, size=3)
        k = rng.uniform(0.0, 5.0, size=3)
        kb = rng.uniform(0.0, 5.0, size=3)
        if k.sum() + kb.sum() < 1e-3:
            kb[0] = 1.0
        closed = ho_energy_3body_closed(masses, k, kb, (0, 0), (0, 0))
        kbar = np.zeros((3, 3))
        kbar[0, 1] = kbar[1, 0] = kb[0]
        kbar[0, 2] = kbar[2, 0] = kb[1]
        kbar[1, 2] = kbar[2, 1] = kb[2]
        general = ho_energies_general(masses, k, kbar, ((0, 0), (0, 0))).energy
        assert abs(closed - general) <= 1e-10 * abs(general)

        # permutation symmetry: relabel (1,2,3) -> (2,3,1)
        perm = ho_energy_3body_closed(
            (masses[1], masses[2], masses[0]),
            (k[1], k[2], k[0]),
            (kb[2], kb[0], kb[1]),
            (0, 0),
            (0, 0),
        )
        assert abs(perm - closed) <= 1e-10 * abs(closed)

        # reference-mass invariance
        other = ho_energies_general(
            masses, k, kbar, ((0, 0), (0, 0)), reference_mass=float(masses.sum())
        ).energy
        assert abs(other - general) <= 1e-10 * abs(general)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2 (3-body closed form vs diagonalization, 200 draws): PASS [{elapsed:.3f}s]")


def test_criterion_3_root_function_residuals():
    start = time.perf_counter()
    ys = np.logspace(-6, 3, 1000)
    for y in ys:
        f = cubic_root(y)
        assert abs(f**3 - 3.0 * f - 2.0 * y) <= 1e-12 * max(1.0, 2.0 * y)
        g = quartic_root(y)
        assert abs(4.0 * g**4 - 8.0 * g - 3.0 * y) <= 1e-12 * max(1.0, 3.0 * y)
    xs = np.concatenate(
        [np.logspace(-6, 3, 500), -np.exp(-1.0) + np.logspace(-9, -0.44, 500)]
    )
    for x in xs:
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3 (root residual sweeps, 1000 points each): PASS [{elapsed:.3f}s]")


def _check(closed, oracle, label):
    assert abs(closed - oracle) <= 1e-8 * abs(closed), (label, closed, oracle)


def test_criterion_4_closed_forms_vs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(77)

    for _ in range(50):  # semirelativistic oscillator
        n = int(rng.integers(2, 7))
        m = float(rng.uniform(0.0, 4.0)) if rng.random() > 0.15 else 0.0
        k = float(rng.uniform(0.0, 3.0))
        kbar = float(rng.uniform(0.05, 3.0))
        q = excited(n, int(rng.integers(0, 3)))
        spec = power_system(n, m, SR, one=(k, 2.0) if k > 0 else None, pair=(kbar, 2.0))
        closed = srho_mass(n, m, k, kbar, q.q).mass
        _check(closed, numeric_afm_minimize(spec, q), "srho")

    for _ in range(50):  # linear confinement
        n = int(rng.integers(2, 7))
        m = float(rng.uniform(0.0, 3.0)) if rng.random() > 0.2 else 0.0
        a = float(rng.uniform(0.0, 1.5))
        b = float(rng.uniform(0.05, 1.5))
        q = excited(n, int(rng.integers(0, 3)))
        spec = power_system(n, m, SR, one=(a, 1.0) if a > 0 else None, pair=(b, 1.0))
        closed = linear_mass(n, m, a, b, q.q).mass
        _check(closed, numeric_afm_minimize(spec, q), "linear")

    for _ in range(50):  # equal powers, nonrelativistic and semirelativistic
        n = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            kin, m = NR, float(rng.uniform(0.3, 4.0))
            lam = float(rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5, 3.0]))
        else:
            kin = SR
            lam = float(rng.choice([-1.0, -0.5, 0.5, 1.0, 2.0]))
            m = float(rng.uniform(0.3, 3.0)) if lam <= 0 or rng.random() > 0.2 else 0.0
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.05, 2.0))
        q = excited(n, int(rng.integers(0, 2)))
        if kin is SR and lam == -1.0:
            # keep inverse-distance attraction clear of the collapse threshold
            amp = a * (n / q.q) ** 1.5 + b * n * ((n - 1) / (2.0 * q.q)) ** 1.5
            strength = amp * math.sqrt(q.q / n)
            if strength >= 0.7:
                a *= 0.7 / strength
                b *= 0.7 / strength
        spec = power_system(n, m, kin, one=(a, lam), pair=(b, lam))
        closed = equal_power_mass(spec, q).mass
        _check(closed, numeric_afm_minimize(spec, q), f"equal-power lam={lam}")

    for _ in range(50):  # massless linear plus Coulomb
        n = int(rng.integers(2, 6))
        a = float(rng.uniform(0.05, 1.0))
        q = excited(n, int(rng.integers(0, 3)))
        b_max = q.q * n / (n * (n - 1) / 2.0) ** 1.5
        b = float(rng.uniform(0.05, 0.8)) * b_max
        spec = power_system(n, 0.0, SR, one=(a, 1.0), pair=(b, -1.0))
        closed = baryonic_ur(n, a, b, q.q).mass
        _check(closed, numeric_afm_minimize(spec, q), "baryonic")

    for _ in range(50):  # atom-like Coulomb systems
        n = int(rng.integers(2, 7))
        m = float(rng.uniform(0.5, 5.0))
        q = excited(n, int(rng.integers(0, 2)))
        alpha = float(rng.uniform(0.1, 0.8)) * q.q / n
        alphabar = float(rng.uniform(0.1, 0.6)) * alpha * n * n / (
            n * (n - 1) / 2.0
        ) ** 1.5
        spec = power_system(n, m, SR, one=(alpha, -1.0), pair=(-alphabar, -1.0))
        closed = atomic_mass(n, m, alpha, alphabar, q.q)
        _check(closed, numeric_afm_minimize(spec, q), "atomic")

    for _ in range(50):  # gaussian wells
        n = int(rng.integers(2, 7))
        m = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(0.3, 2.0))
        q = ground(n)
        g = float(rng.uniform(2.0, 50.0)) * gaussian_critical_coupling(n, q.q)
        alpha = g * beta * beta / m
        spec = gaussian_system(n, m, alpha, beta)
        closed = n * m + gaussian_spectrum(n, m, alpha, beta, q.q).energy
        _check(closed, numeric_afm_minimize(spec, q), "gaussian")

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 (6 closed forms vs oracle, 50 draws each, 1e-8): PASS [{elapsed:.1f}s]")


def test_criterion_5_duality_identities():
    start = time.perf_counter()
    m, alpha, beta = 1.0, 20.0, 1.0
    a, b = 0.2, 0.3
    for n in (2, 3, 4, 6):
        q = 1.5 * (n - 1)

        direct = gaussian_spectrum(n, m, alpha, beta, q).energy
        mapped = gaussian_dual(n, two_body_gaussian_energy, m, alpha, beta, q)
        assert abs(direct - mapped) <= 1e-12 * max(1.0, abs(direct))

        direct = linear_mass(n, m, 0.1, 0.25, q).mass
        mapped = linear_dual(n, two_body_linear_mass, m, 0.1, 0.25, q)
        assert abs(direct - mapped) <= 1e-12 * max(1.0, abs(direct))

        direct = funnel_nbody_ur(n, a, b, q)
        for g in (1.0, 2.5):
            mapped = pairwise_g_dual(
                n,
                lambda sigma, gg, q2: two_body_funnel_ur(sigma, gg * a, gg * b, q2),
                q,
                g=g,
            )
            assert abs(direct - mapped) <= 1e-12 * max(1.0, abs(direct))
    elapsed = time.perf_counter() - start
    print(f"criterion 5 (duality identities at 1e-12, N in 2,3,4,6): PASS [{elapsed:.3f}s]")


def test_criterion_6_gaussian_criticals():
    start = time.perf_counter()
    # zero crossing of the level against the closed critical coupling
    n, m, beta, q = 3, 1.0, 1.0, 3.0
    g_closed = gaussian_critical_coupling(n, q)

    def level(g):
        return gaussian_energy_alt(n, m, g * beta * beta / m, beta, q)

    lo, hi = 0.9 * g_closed, 1.1 * g_closed
    assert level(lo) > 0.0 > level(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if level(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - g_closed) <= 1e-8 * g_closed

    assert gaussian_critical_coupling(2, 1.5) == pytest.approx(
        9.0 * math.e / 4.0, rel=1e-14
    )
    for n in (2, 3, 4, 5, 6):
        ratio = gaussian_critical_coupling(n + 1, 1.5 * n) / gaussian_critical_coupling(
            n, 1.5 * (n - 1)
        )
        # analytically exact; the two evaluation routes may differ by rounding
        assert ratio == pytest.approx(n / (n + 1.0), rel=1e-15)
    elapsed = time.perf_counter() - start
    print(f"criterion 6 (gaussian criticals): PASS [{elapsed:.3f}s]")


def test_criterion_7_limits():
    start = time.perf_counter()
    # gaussian well approaches its oscillator expansion at small range
    n, m, alpha, q = 3, 1.0, 2.0, 3.0
    residuals = []
    for beta in (1e-2, 1e-3):
        energy = gaussian_spectrum(n, m, alpha, beta, q).energy
        expansion = -n * (n - 1) / 2.0 * alpha + math.sqrt(
            2.0 * alpha * beta * beta * n / m
        ) * q
        residuals.append(energy - expansion)
    assert abs(residuals[0] / residuals[1] - 100.0) <= 10.0  # scales as beta^2
    assert abs(residuals[0]) <= 10.0 * 1e-4

    # semirelativistic oscillator approaches the massless closed form
    tiny = srho_mass(2, 1e-6, 0.0, 1.0, 1.5).mass
    zero = srho_mass(2, 0.0, 0.0, 1.0, 1.5).mass
    assert abs(tiny - zero) <= 1e-5 * zero

    # heavy linear systems approach the nonrelativistic binding
    n, a, q = 3, 0.2, 3.0
    m = 1e3
    binding = linear_mass(n, m, a, 0.0, q).mass - n * m
    nr_value = 1.5 * (n * q * q * a * a / m) ** (1.0 / 3.0)
    assert abs(binding - nr_value) <= 1e-3 * nr_value
    elapsed = time.perf_counter() - start
    print(f"criterion 7 (limit checks): PASS [{elapsed:.3f}s]")


def test_criterion_8_ordering_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        q = ground(n)
        ratio = float(np.exp(rng.uniform(math.log(1.05), math.log(100.0))))
        g = ratio * gaussian_critical_coupling(n, q.q)
        m = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(0.3, 2.0))
        alpha = g * beta * beta / m
        bound = gaussian_trial_bound(gaussian_system(n, m, alpha, beta))
        afm = gaussian_spectrum(n, m, alpha, beta, q.q).energy
        assert bound <= afm + 1e-10 * max(1.0, abs(afm)), (n, g, bound, afm)

    assert coulomb_critical_coupling(3, 1.0) == pytest.approx(
        1.0 / math.sqrt(3.0), rel=1e-14
    )

    # atomic stability is independent of the particle mass across 4 decades
    n, q = 4, 4.5
    almost, beyond = 0.999 * q / n, 1.001 * q / n
    for m in (1e-2, 1e-1, 1.0, 1e1, 1e2):
        atomic_mass(n, m, almost, 0.0, q)
        with pytest.raises(UnstableConfiguration):
            atomic_mass(n, m, beyond, 0.0, q)
    elapsed = time.perf_counter() - start
    print(f"criterion 8 (ordering and stability properties): PASS [{elapsed:.3f}s]")
