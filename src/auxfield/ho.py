"""Exact N-body harmonic oscillator solutions.

Nonrelativistic systems with arbitrary masses and one-body plus pairwise
quadratic interactions decouple exactly in renormalized internal coordinates:
the transform to coordinates joining partial centers of mass to the next
particle separates the global motion, and a single orthogonal rotation
diagonalizes the quadratic form. Identical particles need no rotation at all,
and the semirelativistic identical-particle oscillator reduces to one quartic
root once the kinetic square roots are replaced by an auxiliary field.
"""
from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import (
    NoRestoringForce,
    NotClosedShell,
    NumericalError,
    SingularMasses,
    ValidationError,
    require_finite,
)
from .model import AFMSolution, BoundCharacter, Kinematics, PowerLaw, _finite, _ratio, _Value
from .special import cbrt, quartic_root, symmetric_eigen

if TYPE_CHECKING:
    import numpy as np

ModePair = tuple[int, int]

# An eigensolver leaves a zero eigenvalue of the unit-diagonal form within
# about eps of the largest one; up to this multiple of that it is read as zero.
_FREE_MODE_RTOL = 8.0 * sys.float_info.epsilon


class HOSpectrumEntry(_Value):
    """Mode frequencies and the resulting level energy."""

    omegas: tuple[float, ...]
    energy: float


def build_quadratic_form(
    masses: Sequence[float],
    k: Sequence[float],
    kbar: np.ndarray,
    reference_mass: float | None = None,
) -> np.ndarray:
    """The (N-1) x (N-1) internal quadratic form for given spring constants.

    k holds the N one-body constants, kbar the pairwise ones as a symmetric
    matrix whose strict upper triangle is read. The form is
    lam lam^T * (B^T (diag(k + W 1) - W) B): B maps the N-1 internal Jacobi
    coordinates to particle positions, lam holds their kinematic scale
    factors, and diag(W 1) - W is the graph Laplacian of the pairwise
    springs W. The reference mass defaults to the first particle's mass;
    energies downstream do not depend on it. A form holding inf or NaN, where
    the float range runs out, raises NumericalError.
    """
    import numpy as np

    n = len(masses)
    if n < 2:
        raise ValidationError("need at least two particles")
    if reference_mass is None:
        reference_mass = float(masses[0])
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0.0):
        raise SingularMasses("all masses must be positive for the exact oscillator")
    if reference_mass <= 0.0:
        raise SingularMasses(f"reference mass must be positive, got {reference_mass}")
    k = np.asarray(k, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    if k.shape != (n,) or kbar.shape != (n, n):
        raise ValidationError("k must have length N and kbar shape (N, N)")

    # an overflow shows as inf or NaN in the form, which is checked below
    with np.errstate(all="ignore"):
        alpha = masses / reference_mass
        cum = np.cumsum(alpha)
        b = np.triu(np.tile(alpha[1:] / cum[1:], (n, 1)))
        b[1:] -= np.diag(cum[:-1] / cum[1:])
        lam = np.sqrt(cum[1:] / (alpha[1:] * cum[:-1]))
        w = np.triu(kbar, 1) + np.triu(kbar, 1).T
        form = np.outer(lam, lam) * (b.T @ ((np.diag(k + w.sum(axis=1)) - w) @ b))
    if not np.isfinite(form).all():
        raise NumericalError("the quadratic form holds inf or NaN")
    return form


def ho_energies_general(
    masses: Sequence[float],
    k: Sequence[float],
    kbar: np.ndarray,
    modes: Sequence[ModePair],
    reference_mass: float | None = None,
) -> HOSpectrumEntry:
    """Exact level energy of the general nonrelativistic oscillator system.

    Eigenvalues d_i of the total quadratic form give mode frequencies
    omega_i = sqrt(2 d_i / m_ref); the level energy is
    sum_i omega_i (2 n_i + l_i + 3/2). Eigenvalues are sorted ascending and
    paired with the caller's mode list in order, so the caller controls which
    mode is excited. A mode without a restoring force, a form that is not
    positive definite (_lowest_unit_eigenvalue), raises NoRestoringForce. A
    form or an energy that is not finite raises NumericalError, the form
    before the eigensolver sees it.
    """
    n = len(masses)
    if len(modes) != n - 1:
        raise ValidationError(f"need {n - 1} modes for {n} particles")
    if reference_mass is None:
        reference_mass = float(masses[0])
    form = build_quadratic_form(masses, k, kbar, reference_mass)
    lowest = _lowest_unit_eigenvalue(form)
    if lowest <= 0.0:
        raise NoRestoringForce(f"an internal mode has scaled spring eigenvalue {lowest}, not > 0")
    evals = symmetric_eigen(form).tolist()
    if evals[0] <= 0.0:
        raise NumericalError(f"the eigensolver lost a positive eigenvalue: {evals[0]}")
    omegas = tuple(math.sqrt(2.0 * d / reference_mass) for d in evals)
    energy = sum(
        w * (2 * ni + li + 1.5) for w, (ni, li) in zip(omegas, modes)
    )
    return HOSpectrumEntry(omegas, _finite(energy, "energy"))


def _lowest_unit_eigenvalue(form: np.ndarray) -> float:
    """Smallest eigenvalue of D^(-1/2) A D^(-1/2), D = diag(A), or 0 where it is rounding.

    By Sylvester's law of inertia this unit-diagonal form is positive definite
    exactly when A is, and a fixed threshold on it means the same at every
    mass ratio: an eigenvalue up to _FREE_MODE_RTOL times the largest is read
    as 0. A diagonal entry <= 0 already shows a mode without a restoring
    force. On a definite form every scaled entry is at most 1 in magnitude,
    so one that is not finite shows an indefinite one.
    """
    import numpy as np

    diag = np.diag(form)
    if not (diag > 0.0).all():
        return 0.0
    with np.errstate(all="ignore"):  # a subnormal diagonal may overflow an indefinite form
        root = np.sqrt(diag)
        unit = form / root[:, None] / root
    if not np.isfinite(unit).all():
        return 0.0
    evals = np.linalg.eigvalsh(unit)
    return float(evals[0]) if evals[0] > _FREE_MODE_RTOL * evals[-1] else 0.0


def ho_energy_3body_closed(
    masses: Sequence[float],
    k: Sequence[float],
    kbar_pairs: Sequence[float],
    mode1: ModePair,
    mode2: ModePair,
) -> float:
    """Closed-form level energy of the three-body oscillator.

    kbar_pairs holds (kbar_12, kbar_13, kbar_23). The result is symmetric
    under any relabeling of the three particles and independent of the
    reference mass, fixed internally to sqrt(m_min) sqrt(m_max) so that the
    mass ratios and their squares are floats wherever the level is. mode1
    excites the stiffer internal mode (the larger frequency), mode2 the softer
    one. A mode without a restoring force raises NoRestoringForce, as in
    ho_energies_general; an energy that is not a finite float raises
    NumericalError.
    """
    if len(masses) != 3 or len(k) != 3 or len(kbar_pairs) != 3:
        raise ValidationError("three masses, three one-body and three pairwise constants")
    if min(masses) <= 0.0:
        raise SingularMasses("all masses must be positive")
    mref = math.sqrt(float(min(masses))) * math.sqrt(float(max(masses)))
    # Python floats, so that a square past the float range raises, not warns
    a1, a2, a3 = (float(mi) / mref for mi in masses)
    k1, k2, k3 = map(float, k)
    kb12, kb13, kb23 = map(float, kbar_pairs)
    al = a1 + a2 + a3
    a12, a13, a23 = a1 + a2, a1 + a3, a2 + a3
    k12, k13, k23 = k1 + k2, k1 + k3, k2 + k3

    s = (
        k1 * a2 * a3 * a23
        + k2 * a1 * a3 * a13
        + k3 * a1 * a2 * a12
        + al * (kb12 * a3 * a12 + kb13 * a2 * a13 + kb23 * a1 * a23)
    )
    try:
        r = (
            k1 * k2 * a3**2
            + k1 * k3 * a2**2
            + k2 * k3 * a1**2
            + al**2 * (kb12 * kb13 + kb13 * kb23 + kb12 * kb23)
            + kb12 * (k12 * a3**2 + k3 * a12**2)
            + kb13 * (k13 * a2**2 + k2 * a13**2)
            + kb23 * (k23 * a1**2 + k1 * a23**2)
        )
        # The internal quadratic form in mass-weighted Jacobi coordinates, scaled
        # by P = a1 a2 a3 al, is the symmetric 2x2 [[j11, j12], [j12, j22]] with
        # trace s and determinant P r. Its discriminant as a sum of squares keeps
        # full precision when the two internal frequencies nearly coincide.
        p = a1 * a2 * a3 * al
        j11 = (
            a3 * al * (k1 * a2**2 + k2 * a1**2 + kb12 * a12**2 + kb13 * a2**2 + kb23 * a1**2) / a12
        )
        j22 = a1 * a2 * (k12 * a3**2 + k3 * a12**2 + (kb13 + kb23) * al**2) / a12
        j12 = math.sqrt(p) * (a3 * (k1 * a2 - k2 * a1) + al * (kb13 * a2 - kb23 * a1)) / a12
        delta = math.sqrt((j11 - j22) ** 2 + 4.0 * j12 * j12)
    except OverflowError as exc:
        raise NumericalError(f"the three-body form leaves the float range: {exc}") from exc
    stiff = s + delta
    # stiff and P r are twice the larger eigenvalue and the determinant
    if stiff <= 0.0 or r <= 0.0:
        raise NoRestoringForce("an internal mode has a spring eigenvalue <= 0")
    soft = 4.0 * p * r / stiff  # Vieta: (s - delta) without cancellation

    (n1, l1), (n2, l2) = mode1, mode2
    pref = _ratio(1.0, math.sqrt(mref * p))  # inf where mref P underflows
    energy = pref * (
        math.sqrt(stiff) * (2 * n1 + l1 + 1.5) + math.sqrt(soft) * (2 * n2 + l2 + 1.5)
    )
    return _finite(energy, "energy")


def ho_energy_identical(n: int, m: float, k: float, kbar: float, q: float) -> float:
    """Level energy sqrt(2 (k + N kbar) / m) * Q for N identical particles.

    An energy that is not a finite float raises NumericalError.
    """
    require_finite(n=n, m=m, k=k, kbar=kbar, q=q)
    if m <= 0.0:
        raise SingularMasses(f"mass must be positive, got {m}")
    kappa = k + n * kbar
    if kappa <= 0.0:
        raise NoRestoringForce(f"k + N kbar = {kappa} must be positive")
    return _finite(math.sqrt(2.0 * kappa / m) * q, "energy")


def ground_state_q(n: int, symmetry: str = "symmetric", degeneracy: int = 1) -> float:
    """Principal number Q of the ground state for the given exchange symmetry.

    Spatially symmetric states put every internal mode in (0, 0), so
    Q = 3(N-1)/2. For completely antisymmetric states the modes pile up to a
    Fermi band: with degeneracy d per orbital, a closed shell at band B_f
    holds N - 1 = d (B_f+1)(B_f+2)(B_f+3)/6 modes and gives
    Q = 3(N-1)(B_f+2)/4. Particle numbers that do not close a shell are
    rejected rather than interpolated.
    """
    require_finite(n=n)
    if symmetry == "symmetric":
        return 1.5 * (n - 1)
    if symmetry != "antisymmetric":
        raise ValidationError(f"unknown symmetry {symmetry!r}")
    require_finite(degeneracy=degeneracy)
    target = 6 * (n - 1)
    bf = 0
    while degeneracy * (bf + 1) * (bf + 2) * (bf + 3) < target:
        bf += 1
    if degeneracy * (bf + 1) * (bf + 2) * (bf + 3) != target:
        raise NotClosedShell(
            f"N={n} with degeneracy {degeneracy} does not fill a closed shell"
        )
    return 0.75 * (n - 1) * (bf + 2)


def srho_mass(n: int, m: float, k: float, kbar: float, q: float) -> AFMSolution:
    """Semirelativistic identical-particle oscillator mass via one auxiliary field.

    Replacing each kinetic square root by (mu + (p^2 + m^2)/mu)/2 leaves an
    exactly solvable oscillator; eliminating mu reduces to the positive root
    G of 4X^4 - 8X - 3Y = 0 with Y = 4r^2/3, r = m/s and
    s = ((k + N kbar) Q^2 / (2N^2))^(1/3), formed from cube roots alone
    (special.cbrt), so its error does not grow with |ln kappa|. Then
    mu0 = s G^2 and M = N s (1/G + G^2), an upper bound on the exact level,
    in which m enters only through Y: massless particles are the Y = 0 end,
    G = 2^(1/3), the limit M = (3/2) (2N (k + N kbar) Q^2)^(1/3). Where Y
    overflows, G takes its asymptote sqrt(r).
    """
    require_finite(n=n, m=m, k=k, kbar=kbar, q=q)
    if m < 0.0:
        raise SingularMasses(f"mass must be non-negative, got {m}")
    kappa = k + n * kbar
    if kappa <= 0.0:
        raise NoRestoringForce(f"k + N kbar = {kappa} must be positive")
    s = cbrt(0.5 * kappa) * cbrt(q / n) ** 2
    r = _ratio(m, s)
    y = 4.0 / 3.0 * r * r
    g = quartic_root(y) if y < math.inf else math.sqrt(r)
    mu0 = s * g * g
    mass = n * s * (1.0 / g + g * g)
    x0 = math.sqrt(2.0 * mu0) * math.sqrt(kappa)
    bound = BoundCharacter.of(Kinematics.SEMIRELATIVISTIC, (PowerLaw(k, 2.0), PowerLaw(kbar, 2.0)))
    return AFMSolution.at_scale(n, m, q, x0, mass, bound)
