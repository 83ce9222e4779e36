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
from .model import AFMSolution, BoundCharacter, _Value
from .special import quartic_root, symmetric_eigen

if TYPE_CHECKING:
    import numpy as np

ModePair = tuple[int, int]

# Jacobi leaves a zero eigenvalue of the quadratic form within about eps of
# the largest one; up to this multiple of that it is read as zero.
_FREE_MODE_RTOL = 8.0 * sys.float_info.epsilon


class QuadraticForm(_Value):
    """Internal-coordinate machinery for one oscillator problem.

    u maps particle coordinates to internal ones, b is its inverse, lam holds
    the N-1 kinematic scale factors, and f, g, j are the one-body, pairwise
    and total quadratic forms in the rescaled coordinates (j = f + g).
    """

    u: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    f: np.ndarray
    g: np.ndarray
    j: np.ndarray

    # arrays have no value equality, so forms compare and hash by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class HOSpectrumEntry(_Value):
    """Mode frequencies and the resulting level energy."""

    omegas: tuple[float, ...]
    energy: float


def _relative_masses(masses: Sequence[float], reference_mass: float) -> np.ndarray:
    import numpy as np

    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0.0):
        raise SingularMasses("all masses must be positive for the exact oscillator")
    if reference_mass <= 0.0:
        raise SingularMasses(f"reference mass must be positive, got {reference_mass}")
    return masses / reference_mass


def build_quadratic_form(
    masses: Sequence[float],
    k: Sequence[float],
    kbar: np.ndarray,
    reference_mass: float | None = None,
) -> QuadraticForm:
    """Assemble the internal-coordinate matrices for given spring constants.

    k holds the N one-body constants, kbar the pairwise ones as a symmetric
    matrix whose strict upper triangle is read. The reference mass defaults to
    the first particle's mass; energies downstream do not depend on it.
    """
    import numpy as np

    n = len(masses)
    if n < 2:
        raise ValidationError("need at least two particles")
    if reference_mass is None:
        reference_mass = float(masses[0])
    alpha = _relative_masses(masses, reference_mass)
    k = np.asarray(k, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    if k.shape != (n,) or kbar.shape != (n, n):
        raise ValidationError("k must have length N and kbar shape (N, N)")

    cum = np.cumsum(alpha)
    u = np.tril(alpha / cum[:, None]) - np.eye(n, k=1)
    b = np.triu(np.tile(np.append(alpha[1:] / cum[1:], 1.0), (n, 1)))
    b -= np.diag(cum[:-1] / cum[1:], k=-1)
    lam = np.sqrt(cum[1:] / (alpha[1:] * cum[:-1]))

    # one-body springs act on each particle, pairwise ones through the graph
    # Laplacian diag(W 1) - W of the spring weights W
    w = np.triu(kbar, 1) + np.triu(kbar, 1).T
    bi = b[:, : n - 1]  # internal columns only
    scale = np.outer(lam, lam)
    f = scale * (bi.T @ (k[:, None] * bi))
    g = scale * (bi.T @ ((np.diag(w.sum(axis=1)) - w) @ bi))

    return QuadraticForm(u, b, lam, f, g, f + g)


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
    mode is excited. A mode without a restoring force, an eigenvalue at or
    below zero, raises NoRestoringForce; an eigenvalue up to _FREE_MODE_RTOL
    times the largest one is rounding of zero and counts as zero. An energy
    that is not a finite float raises NumericalError.
    """
    n = len(masses)
    if len(modes) != n - 1:
        raise ValidationError(f"need {n - 1} modes for {n} particles")
    if reference_mass is None:
        reference_mass = float(masses[0])
    qf = build_quadratic_form(masses, k, kbar, reference_mass)
    evals = symmetric_eigen(qf.j).tolist()
    if evals[0] <= _FREE_MODE_RTOL * evals[-1]:
        raise NoRestoringForce(f"an internal mode has spring eigenvalue {evals[0]}, not > 0")
    omegas = tuple(math.sqrt(2.0 * d / reference_mass) for d in evals)
    energy = sum(
        w * (2 * ni + li + 1.5) for w, (ni, li) in zip(omegas, modes)
    )
    if not math.isfinite(energy):
        raise NumericalError(f"energy {energy} is not a finite float")
    return HOSpectrumEntry(omegas, energy)


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
    reference mass (fixed internally to the first mass). mode1 excites the
    stiffer internal mode (the larger frequency), mode2 the softer one. A
    mode without a restoring force raises NoRestoringForce, as in
    ho_energies_general; an energy that is not a finite float raises
    NumericalError.
    """
    if len(masses) != 3 or len(k) != 3 or len(kbar_pairs) != 3:
        raise ValidationError("three masses, three one-body and three pairwise constants")
    mref = float(masses[0])
    a1, a2, a3 = (mi / mref for mi in masses)
    if min(a1, a2, a3) <= 0.0:
        raise SingularMasses("all masses must be positive")
    k1, k2, k3 = k
    kb12, kb13, kb23 = kbar_pairs
    al = a1 + a2 + a3
    a12, a13, a23 = a1 + a2, a1 + a3, a2 + a3
    k12, k13, k23 = k1 + k2, k1 + k3, k2 + k3

    s = (
        k1 * a2 * a3 * a23
        + k2 * a1 * a3 * a13
        + k3 * a1 * a2 * a12
        + al * (kb12 * a3 * a12 + kb13 * a2 * a13 + kb23 * a1 * a23)
    )
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
    stiff = s + delta
    # stiff and P r are twice the larger eigenvalue and the determinant
    if stiff <= 0.0 or r <= 0.0:
        raise NoRestoringForce("an internal mode has a spring eigenvalue <= 0")
    soft = 4.0 * p * r / stiff  # Vieta: (s - delta) without cancellation

    (n1, l1), (n2, l2) = mode1, mode2
    pref = 1.0 / math.sqrt(mref * p)
    energy = pref * (
        math.sqrt(stiff) * (2 * n1 + l1 + 1.5) + math.sqrt(soft) * (2 * n2 + l2 + 1.5)
    )
    if not math.isfinite(energy):
        raise NumericalError(f"energy {energy} is not a finite float")
    return energy


def ho_energy_identical(n: int, m: float, k: float, kbar: float, q: float) -> float:
    """Level energy sqrt(2 (k + N kbar) / m) * Q for N identical particles."""
    require_finite(n=n, m=m, k=k, kbar=kbar, q=q)
    if m <= 0.0:
        raise SingularMasses(f"mass must be positive, got {m}")
    kappa = k + n * kbar
    if kappa <= 0.0:
        raise NoRestoringForce(f"k + N kbar = {kappa} must be positive")
    return math.sqrt(2.0 * kappa / m) * q


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
    if degeneracy < 1:
        raise ValidationError("degeneracy must be a positive integer")
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
    of 4X^4 - 8X - 3Y = 0 with Y = (4m^2/3) (2N^2 / ((k + N kbar) Q^2))^(2/3).
    The result is an upper bound on the exact level. Massless particles give
    the simple limit M = (3/2) (2N (k + N kbar) Q^2)^(1/3).
    """
    require_finite(n=n, m=m, k=k, kbar=kbar, q=q)
    if m < 0.0:
        raise SingularMasses(f"mass must be non-negative, got {m}")
    kappa = k + n * kbar
    if kappa <= 0.0:
        raise NoRestoringForce(f"k + N kbar = {kappa} must be positive")

    y = 0.0
    if m != 0.0:
        y = (4.0 * m * m / 3.0) * (2.0 * n * n / (kappa * q * q)) ** (2.0 / 3.0)
    if y == 0.0:  # massless, or so light that Y underflows: the massless limit
        mass = 1.5 * (2.0 * n * kappa * q * q) ** (1.0 / 3.0)
        mu0 = (2.0 * kappa * q * q / (n * n)) ** (1.0 / 3.0)
    else:
        g = quartic_root(y)
        mu0 = 2.0 * m * g * g / math.sqrt(3.0 * y)
        mass = 2.0 * n * m / math.sqrt(3.0 * y) * (1.0 / g + g * g)
    x0 = math.sqrt(2.0 * mu0 * kappa)
    return AFMSolution.at_scale(n, m, q, x0, mass, BoundCharacter.UPPER_BOUND)
