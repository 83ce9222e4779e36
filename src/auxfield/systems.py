"""Domain-specialized closed formulas and duality maps.

Everything here is a thin closed-form layer over the generic engine: baryonic
linear-plus-Coulomb systems, atom-like Coulomb systems, gaussian wells, the
funnel potential, and the exact maps that express an N-body mass through a
two-body one with rescaled parameters.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .errors import (
    InvalidCoefficient,
    NoBoundState,
    OverCritical,
    SingularMasses,
    UnstableConfiguration,
    require_finite,
)
from .model import AFMSolution, BoundCharacter, Kinematics, PowerLaw, _finite, _ratio, _Value
from .special import lambert_w0

_MIN_NORMAL = math.ldexp(1.0, -1022)  # the smallest normal float


# ---------------------------------------------------------------------------
# ground-state reduction to a two-body problem


def twobody_reduction(
    n: int, m: float, two_body_mass: Callable[[float, float], float]
) -> float:
    """Ground-state N-body mass from a two-body evaluator.

    The evaluator must return the ground-state mass of
    sigma * sqrt(p^2 + m'^2) + Vbar(r); it is called with the rescaled mass
    m' = m sqrt(N / (2(N-1))) and weight sigma' = sqrt(8 / (N(N-1))), and the
    result is multiplied by the pair count N(N-1)/2. At N = 2 this is the
    identity map.
    """
    require_finite(n=n, m=m)
    m_prime = m * math.sqrt(n / (2.0 * (n - 1.0)))
    sigma_prime = math.sqrt(8.0 / (n * (n - 1.0)))
    return _finite(n * (n - 1.0) / 2.0 * two_body_mass(m_prime, sigma_prime))


# ---------------------------------------------------------------------------
# Coulomb systems


def coulomb_nbody(n: int, m: float, b: float, q_c: float = 1.0) -> float:
    """Ground-state mass of N particles bound by pairwise -b/r attraction.

    M = N m sqrt(1 - N(N-1) b^2 / (8 q_c^2)), with q_c the effective radial
    quantum number of the two-body ground level (n + l + 1 = 1 by default;
    callers may pass an improved coupling-dependent value).
    """
    require_finite(n=n, m=m, b=b, q_c=q_c)
    if m <= 0.0:
        raise SingularMasses("coulomb systems need massive particles")
    arg = 1.0 - _ratio(n * (n - 1.0) * b * b, 8.0 * q_c * q_c)
    if arg < 0.0:
        raise OverCritical(f"coupling {b} beyond collapse for N={n}")
    return _finite(n * m * math.sqrt(arg))


def coulomb_critical_coupling(n: int, b_2: float) -> float:
    """Critical pairwise Coulomb strength for N bodies from the two-body one."""
    require_finite(n=n, b_2=b_2)
    return math.sqrt(2.0 / (n * (n - 1.0))) * b_2


# ---------------------------------------------------------------------------
# baryonic-like systems: one-body linear plus pairwise Coulomb, massless


def baryonic_ur(n: int, a: float, b: float, q: float) -> AFMSolution:
    """Massless N-body mass for one-body linear confinement a r_i plus
    pairwise Coulomb attraction -b/r_ij.

    M = 2 sqrt(a) sqrt(Q N - b (N(N-1)/2)^(3/2)); the square-root argument
    must stay positive, which caps either the particle number at fixed b or
    the coupling at fixed N.
    """
    require_finite(n=n, a=a, b=b, q=q)
    if a <= 0.0:
        raise InvalidCoefficient(f"string tension a = {a} must be positive")
    pair_pull = b * (n * (n - 1.0) / 2.0) ** 1.5
    if q * n - pair_pull <= 0.0:
        raise OverCritical(f"Coulomb coupling {b} beyond the critical value")
    mass = 2.0 * math.sqrt(a) * math.sqrt(q * n - pair_pull)
    x0 = a / (1.0 - pair_pull / (q * n))
    bound = BoundCharacter.of(Kinematics.SEMIRELATIVISTIC, (PowerLaw(a, 1.0), PowerLaw(b, -1.0)))
    return AFMSolution.at_scale(n, 0.0, q, x0, mass, bound)


# ---------------------------------------------------------------------------
# light baryons: three massless quarks


class BaryonVariant(Enum):
    M0 = "m0"
    M1 = "m1"
    M2 = "m2"


class BaryonParams(_Value):
    """String tension (energy^2), strong coupling, and formula variant.

    Only the M0 variant is a guaranteed upper bound on the exact masses; M1
    rescales the prefactor and coupling to the single-Gaussian variational
    ground state, and M2 additionally lifts the band degeneracy with the
    radial weight pi/2 known from two-body spectra.
    """

    lambda_string: float
    alpha_s: float
    variant: BaryonVariant = BaryonVariant.M0


#: (band, angular momentum) pairs of the standard 16-row table.
BARYON_TABLE_BANDS = (
    (0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2),
    (4, 4), (5, 1), (5, 3), (5, 5), (6, 0), (6, 2), (6, 4), (6, 6),
)


def baryon_mass(params: BaryonParams, n_tot: int, l_tot: int) -> float:
    """Mass of a three-quark state with total radial/orbital excitation.

    The band number is B = 2 n_tot + l_tot; the M2 variant replaces it by
    B' = (pi/2) n_tot + l_tot.
    """
    lam, als = params.lambda_string, params.alpha_s
    require_finite(lambda_string=lam, alpha_s=als, n_tot=n_tot, l_tot=l_tot)
    if lam <= 0.0:
        raise InvalidCoefficient(f"string tension {lam} must be positive")
    if als < 0.0:
        raise InvalidCoefficient(f"strong coupling {als} must be non-negative")
    band = 2 * n_tot + l_tot
    if params.variant is BaryonVariant.M0:
        arg = band + 3.0 - 2.0 * als / math.sqrt(3.0)
        if arg <= 0.0:
            raise OverCritical(f"coupling {als} too strong for band {band}")
        return _finite(math.sqrt(12.0 * lam * arg))
    if params.variant is BaryonVariant.M2:
        band_eff = math.pi / 2.0 * n_tot + l_tot
    else:
        band_eff = float(band)
    arg = band_eff + 3.0 - math.sqrt(3.0) * als
    if arg <= 0.0:
        raise OverCritical(f"coupling {als} too strong for band {band}")
    return _finite(math.sqrt(32.0 / math.pi * lam * arg))


def baryon_single_gaussian_ground(lambda_string: float, alpha_s: float) -> float:
    """Variational ground-state bound from a single Gaussian trial state.

    Coincides with the M1 variant at band 0 and improves on the M0 value.
    """
    return baryon_mass(
        BaryonParams(lambda_string, alpha_s, BaryonVariant.M1), 0, 0
    )


def baryon_table(
    lambda_string: float, alpha_s: float
) -> list[tuple[int, int, float, float, float]]:
    """Rows (B, L, M0, M1, M2) over the standard 16 (band, L) combinations."""
    rows = []
    for band, l_tot in BARYON_TABLE_BANDS:
        n_tot = (band - l_tot) // 2
        masses = tuple(
            baryon_mass(BaryonParams(lambda_string, alpha_s, v), n_tot, l_tot)
            for v in (BaryonVariant.M0, BaryonVariant.M1, BaryonVariant.M2)
        )
        rows.append((band, l_tot) + masses)
    return rows


# ---------------------------------------------------------------------------
# atom-like systems: one-body Coulomb attraction, pairwise Coulomb repulsion


def atomic_binding_parameter(n: int, alpha: float, alphabar: float, q: float) -> float:
    """D = [alpha N - (alphabar/N) (N(N-1)/2)^(3/2)] / Q; binding needs D < 1.

    Independent of the particle mass.
    """
    require_finite(n=n, alpha=alpha, alphabar=alphabar, q=q)
    return (alpha * n - alphabar / n * (n * (n - 1.0) / 2.0) ** 1.5) / q


def atomic_stable(n: int, alpha: float, alphabar: float, q: float) -> bool:
    """Stability predicate D < 1, independent of the particle mass."""
    return atomic_binding_parameter(n, alpha, alphabar, q) < 1.0


def _atomic_d(n: int, m: float, alpha: float, alphabar: float, q: float) -> float:
    require_finite(n=n, m=m, alpha=alpha, alphabar=alphabar, q=q)
    if m <= 0.0:
        raise SingularMasses("atom-like systems need massive particles")
    if alpha < 0.0 or alphabar < 0.0:
        raise InvalidCoefficient("couplings must be non-negative")
    d = atomic_binding_parameter(n, alpha, alphabar, q)
    if d >= 1.0:
        raise UnstableConfiguration(f"binding parameter D = {d} >= 1: collapse")
    if d <= -1.0:
        raise UnstableConfiguration(f"binding parameter D = {d} <= -1: unbound")
    return d


def atomic_mass(n: int, m: float, alpha: float, alphabar: float, q: float) -> float:
    """Semirelativistic mass M = m_t sqrt(1 - D^2) of an atom-like system."""
    d = _atomic_d(n, m, alpha, alphabar, q)
    return _finite(n * m * math.sqrt(1.0 - d * d))


def atomic_mass_nr(n: int, m: float, alpha: float, alphabar: float, q: float) -> float:
    """Nonrelativistic variant m_t (1 - D^2 / 2), valid for small D."""
    d = _atomic_d(n, m, alpha, alphabar, q)
    return _finite(n * m * (1.0 - d * d / 2.0))


# ---------------------------------------------------------------------------
# gaussian pairwise wells (nonrelativistic)


class GaussianSpectrum(_Value):
    """Binding energy of one level of a pairwise-gaussian system.

    energy excludes the rest mass m_t = N m (add it back for a total mass).
    g is the dimensionless well depth m*alpha/beta^2, g_critical the depth at
    which this level reaches zero binding.
    """

    energy: float
    g: float
    g_critical: float
    y: float
    w0: float
    bound_character: BoundCharacter = BoundCharacter.UPPER_BOUND


def gaussian_critical_coupling(n: int, q: float) -> float:
    """Depth g below which the level with principal number Q is unbound."""
    require_finite(n=n, q=q)
    return 2.0 * math.e * q * q / (n * (n - 1.0) ** 2)


def _gaussian_y(n: int, m: float, alpha: float, beta: float, q: float) -> float:
    """Y = -beta Q / ((N-1) sqrt(2 N m alpha)) of the gaussian level.

    Where 2 N m alpha is below the smallest normal float it has lost digits,
    or all of them, so its root is taken factor by factor.
    """
    if 2.0 * n * m * alpha >= _MIN_NORMAL:
        root = math.sqrt(2.0 * n * m * alpha)
    else:
        root = math.sqrt(2.0 * n * m) * math.sqrt(alpha)
    return -beta * q / ((n - 1.0) * root)


def gaussian_spectrum(
    n: int, m: float, alpha: float, beta: float, q: float
) -> GaussianSpectrum:
    """Binding energy of N particles in pairwise wells -alpha exp(-beta^2 r^2).

    Only g = m alpha / beta^2 matters after rescaling. With
    Y = -beta Q / ((N-1) sqrt(2 N m alpha)) the level reads
    E = -(beta^2/m) (Q^2/(N-1)) (1 + 2 W0(Y)) / (4 W0(Y)^2), an upper bound
    of the exact level; it crosses zero at g = 2e Q^2 / (N (N-1)^2).
    """
    require_finite(n=n, m=m, alpha=alpha, beta=beta, q=q)
    if m <= 0.0:
        raise SingularMasses("gaussian wells are nonrelativistic: need m > 0")
    if alpha <= 0.0 or beta <= 0.0:
        raise InvalidCoefficient("need well depth alpha > 0 and range beta > 0")
    g = m * alpha / beta / beta  # beta * beta may underflow to 0
    g_crit = gaussian_critical_coupling(n, q)
    if g <= g_crit:
        raise NoBoundState(
            f"depth g = {g} at or below the critical value {g_crit} for this level"
        )
    y = _gaussian_y(n, m, alpha, beta, q)
    w0 = lambert_w0(y)
    if w0 == 0.0:  # Y underflowed; W0(Y) ~ Y leaves every pair at the well bottom
        energy = -n * (n - 1.0) / 2.0 * alpha
    else:  # beta / W0 stays finite where beta^2 and W0^2 underflow
        r = beta / w0
        energy = -(q * q / (m * (n - 1.0))) * (1.0 + 2.0 * w0) / 4.0 * r * r
    return GaussianSpectrum(_finite(energy, "energy"), g, g_crit, y, w0)


def gaussian_energy_alt(n: int, m: float, alpha: float, beta: float, q: float) -> float:
    """Same level through the equivalent form -N(N-1)/2 alpha Y^2 (1+2W)/W^2.

    No critical-coupling check: above the zero crossing the level is positive.
    """
    require_finite(n=n, m=m, alpha=alpha, beta=beta, q=q)
    if m <= 0.0:
        raise SingularMasses("gaussian wells are nonrelativistic: need m > 0")
    if alpha <= 0.0 or beta <= 0.0:
        raise InvalidCoefficient("need well depth alpha > 0 and range beta > 0")
    y = _gaussian_y(n, m, alpha, beta, q)
    w0 = lambert_w0(y)
    if w0 == 0.0:  # Y underflowed; W0(Y) ~ Y leaves every pair at the well bottom
        return _finite(-n * (n - 1.0) / 2.0 * alpha, "energy")
    ratio = y / w0  # finite where Y^2 and W0^2 underflow
    return _finite(-n * (n - 1.0) / 2.0 * alpha * ratio * ratio * (1.0 + 2.0 * w0), "energy")


# ---------------------------------------------------------------------------
# funnel potential (pairwise a r - b / r, massless)


def funnel_nbody_ur(n: int, a: float, b: float, q: float) -> float:
    """Massless N-body mass for pairwise funnel interactions a r - b/r.

    M^2 = a sqrt(8 N (N-1)) N Q - a b N^2 (N-1)^2; equals the route through
    the two-body duality map, which is a useful cross-check. It is formed
    factored, M = 2 sqrt(a) P^(1/4) sqrt(N Q - b P^(3/2)) with P = N(N-1)/2,
    so that M^2 never has to be a float.
    """
    require_finite(n=n, a=a, b=b, q=q)
    if a <= 0.0:
        raise InvalidCoefficient(f"slope a = {a} must be positive")
    pairs = n * (n - 1.0) / 2.0
    arg = n * q - b * pairs**1.5
    if arg <= 0.0:
        raise OverCritical(f"Coulomb part b = {b} beyond the critical value")
    return _finite(2.0 * math.sqrt(a) * pairs**0.25 * math.sqrt(arg))


# ---------------------------------------------------------------------------
# duality maps: N-body masses through two-body evaluators
#
# The pairwise-only maps rescale the principal number to
# Q* = Q sqrt(2/(N(N-1))) and call two_body(sigma, g, Q*), the mass of
# sigma sqrt(p^2 + m^2) + g Vbar(r); the result does not depend on the free
# choice of sigma (or g).


def pairwise_sigma_dual(
    n: int, two_body: Callable, q: float, sigma: float = 2.0
) -> float:
    """N-body mass of a pairwise-only system, two-body weight sigma."""
    require_finite(n=n, q=q, sigma=sigma)
    q_star = q * math.sqrt(2.0 / (n * (n - 1.0)))
    return _finite(n / sigma * two_body(sigma, (n - 1.0) / 2.0 * sigma, q_star))


def pairwise_g_dual(n: int, two_body: Callable, q: float, g: float = 1.0) -> float:
    """N-body mass of a pairwise-only system, two-body coupling g."""
    require_finite(n=n, q=q, g=g)
    q_star = q * math.sqrt(2.0 / (n * (n - 1.0)))
    return _finite(n * (n - 1.0) / (2.0 * g) * two_body(2.0 * g / (n - 1.0), g, q_star))


def gaussian_dual(
    n: int, two_body: Callable, m: float, alpha: float, beta: float, q: float
) -> float:
    """N-body gaussian level through two_body(m, alpha', beta', Q).

    Q stays; the well deepens to alpha N(N-1)/2 and widens to beta/sqrt(N-1).
    """
    require_finite(n=n, m=m, alpha=alpha, beta=beta, q=q)
    energy = two_body(m, alpha * n * (n - 1.0) / 2.0, beta / math.sqrt(n - 1.0), q)
    return _finite(energy, "energy")


def linear_dual(
    n: int, two_body: Callable, m: float, a: float, b: float, q: float
) -> float:
    """N-body linear mass through two_body(sigma, m, slope, Q).

    The pairwise slope b joins the one-body slope a in the effective slope
    a + b sqrt(N(N-1)/2), at sigma = N.
    """
    require_finite(n=n, m=m, a=a, b=b, q=q)
    slope = a + b * math.sqrt(n * (n - 1.0) / 2.0)
    return _finite(two_body(float(n), m, slope, q))


def duality_identities(n: int) -> list[tuple[str, float, float]]:
    """Rows (name, direct, mapped): one level at N bodies by both routes.

    The gaussian well (m = 1, alpha = 20, beta = 1), the linear system
    (m = 1, a = 0.2, b = 0.15) and the massless funnel (a = 0.2, b = 0.3)
    are taken at Q = 1.5 (N-1); direct and mapped agree to rounding.
    """
    require_finite(n=n)
    from .engine import linear_mass  # its only use here: baryon-table never loads engine

    q = 1.5 * (n - 1)
    a, b = 0.2, 0.3
    return [
        (
            "gaussian-dual",
            gaussian_spectrum(n, 1.0, 20.0, 1.0, q).energy,
            gaussian_dual(n, two_body_gaussian_energy, 1.0, 20.0, 1.0, q),
        ),
        (
            "linear-dual",
            linear_mass(n, 1.0, 0.2, 0.15, q).mass,
            linear_dual(n, two_body_linear_mass, 1.0, 0.2, 0.15, q),
        ),
        (
            "funnel-dual",
            funnel_nbody_ur(n, a, b, q),
            pairwise_g_dual(
                n, lambda sigma, g, q2: two_body_funnel_ur(sigma, g * a, g * b, q2), q
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# two-body evaluators for the duality maps


def two_body_linear_mass(sigma: float, m: float, slope: float, q2: float) -> float:
    """Mass of sigma sqrt(p^2 + m^2) + slope * r.

    linear_mass's formula (engine._linear_cubic) with sigma in place of N and
    slope in place of c; m = 0 is its Y = 0 end, M^2 = 4 sigma slope Q.
    """
    from .engine import _linear_cubic  # the duals load engine, baryon tables do not
    require_finite(sigma=sigma, m=m, slope=slope, q2=q2)
    if slope <= 0.0:
        raise InvalidCoefficient(f"slope {slope} must be positive")
    if m < 0.0:
        raise SingularMasses(f"mass must be non-negative, got {m}")
    return _finite(_linear_cubic(sigma, m, slope, q2)[0])


def two_body_funnel_ur(sigma: float, a: float, b: float, q2: float) -> float:
    """Massless funnel mass 2 sqrt(a (sigma Q - b)) for sigma sqrt(p^2) + ar - b/r."""
    require_finite(sigma=sigma, a=a, b=b, q2=q2)
    if a <= 0.0:
        raise InvalidCoefficient(f"slope a = {a} must be positive")
    arg = sigma * q2 - b
    if arg <= 0.0:
        raise OverCritical(f"Coulomb part b = {b} beyond sigma Q = {sigma * q2}")
    return _finite(2.0 * math.sqrt(a) * math.sqrt(arg))


def two_body_coulomb_ground(sigma: float, m: float, b: float, q_c: float = 1.0) -> float:
    """Ground-state mass sigma m sqrt(1 - b^2/(sigma^2 q_c^2)) of a Coulomb pair."""
    require_finite(sigma=sigma, m=m, b=b, q_c=q_c)
    if m <= 0.0:
        raise SingularMasses("coulomb systems need massive particles")
    arg = 1.0 - _ratio(b * b, sigma * sigma * q_c * q_c)
    if arg < 0.0:
        raise OverCritical(f"coupling {b} beyond collapse at sigma = {sigma}")
    return _finite(sigma * m * math.sqrt(arg))


def two_body_gaussian_energy(m: float, alpha: float, beta: float, q: float) -> float:
    """Two-body binding energy of a gaussian well, for the gaussian dual map."""
    return gaussian_spectrum(2, m, alpha, beta, q).energy
