"""Closed-form root functions and a small dense symmetric eigensolver.

The two polynomial roots show up when eliminating the kinetic auxiliary field
against linear and quadratic interactions; the Lambert function appears for
gaussian wells. Closed forms are evaluated first and then polished with a few
Newton steps, because the quartic expression cancels badly for large
arguments while Newton converges in one or two steps from it.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, NonConvergence, NotSymmetric

if TYPE_CHECKING:
    import numpy as np

_INV_E = math.exp(-1.0)


def lambert_residual(w: float, x: float) -> float:
    return w * math.exp(w) - x


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert function, W*exp(W) = x for x >= -1/e.

    Series initial guesses (near the branch point, near zero, asymptotic for
    large x) followed by Halley iteration; the residual |W exp(W) - x| is
    driven below 1e-14 * max(1, |x|). Returns W >= -1.
    """
    if x < -_INV_E:
        if x > -_INV_E - 1e-15 * _INV_E:  # rounding at the branch point
            return -1.0
        raise DomainError(f"lambert_w0 argument {x} < -1/e")
    if x == 0.0:
        return 0.0

    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif abs(x) < 0.5:
        w = x * (1.0 - x + 1.5 * x * x)
    elif x < 2.0:
        w = 0.7 * math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    for _ in range(64):
        e = math.exp(w)
        f = w * e - x
        if abs(f) <= 1e-15 * max(1.0, abs(x)):
            break
        w1 = w + 1.0
        # Halley step; the correction to the denominator keeps it stable
        # when w approaches the branch point at -1.
        dw = f / (e * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= 1e-17 * (1.0 + abs(w)):
            break
    return max(w, -1.0)


def cubic_residual(x: float, y: float) -> float:
    return x**3 - 3.0 * x - 2.0 * y


def cubic_root(y: float) -> float:
    """Root x >= sqrt(3) of x**3 - 3x - 2y = 0 for y >= 0.

    Trigonometric branch for y < 1, Cardano branch for y >= 1, then Newton
    polish down to a residual of 1e-12 * max(1, 2y).
    """
    if y < 0.0:
        raise DomainError(f"cubic_root argument {y} < 0")
    if y < 1.0:
        x = 2.0 * math.cos(math.acos(y) / 3.0)
    else:
        t = (y + math.sqrt(y * y - 1.0)) ** (1.0 / 3.0)
        x = t + 1.0 / t
    for _ in range(4):
        f = cubic_residual(x, y)
        if abs(f) <= 1e-13 * max(1.0, 2.0 * y):
            break
        x -= f / (3.0 * x * x - 3.0)
    return x


def quartic_residual(x: float, y: float) -> float:
    return 4.0 * x**4 - 8.0 * x - 3.0 * y


def quartic_root(y: float) -> float:
    """Positive root of 4x**4 - 8x - 3y = 0 for y >= 0.

    The auxiliary quantity v(y) loses precision for large y (difference of two
    nearly equal cube-root terms), so the closed form only seeds a Newton
    iteration that enforces a residual of 1e-12 * max(1, 3y).
    """
    if not 0.0 <= y < math.inf:
        raise DomainError(f"quartic_root argument {y} outside [0, inf)")
    try:
        t = (2.0 + math.sqrt(4.0 + y**3)) ** (1.0 / 3.0)
        v = t - y / t
    except OverflowError:  # y**3 past the float range: v has cancelled anyway
        v = 0.0
    if v <= 0.0:  # cancellation for very large y; asymptotic seed instead
        x = (0.75 * y) ** 0.25
    else:
        x = 0.5 * math.sqrt(v) + 0.5 * math.sqrt(max(4.0 / math.sqrt(v) - v, 0.0))
    for _ in range(16):
        f = quartic_residual(x, y)
        if abs(f) <= 1e-13 * max(1.0, 3.0 * y):
            break
        x -= f / (16.0 * x**3 - 8.0)
    return x


def symmetric_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a small dense symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, orthogonal matrix O) with columns of O the
    matching eigenvectors, so a = O @ diag(w) @ O.T. Row-major sweep order and
    a fixed convergence threshold (off-diagonal Frobenius mass below
    1e-14 * ||a||) keep the result reproducible; a matrix that misses the
    threshold after 100 sweeps raises NonConvergence.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if d > 32:
        raise NotSymmetric(f"dimension {d} exceeds the supported 32")
    scale = np.max(np.abs(a)) if d else 0.0
    if scale > 0.0 and np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")

    w = 0.5 * (a + a.T)
    o = np.eye(d)
    norm = np.linalg.norm(w)
    for sweep in range(101):
        if np.linalg.norm(w - np.diag(np.diag(w))) <= 1e-14 * max(norm, 1e-300):
            break
        if sweep == 100:
            raise NonConvergence(
                "off-diagonal mass above 1e-14 relative after 100 Jacobi sweeps"
            )
        for p in range(d - 1):
            for qi in range(p + 1, d):
                apq = w[p, qi]
                if abs(apq) <= 1e-300:
                    continue
                theta = (w[qi, qi] - w[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:  # theta**2 would overflow
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * w[:, p] - s * w[:, qi]
                rot_q = s * w[:, p] + c * w[:, qi]
                w[:, p], w[:, qi] = rot_p, rot_q
                rot_p = c * w[p, :] - s * w[qi, :]
                rot_q = s * w[p, :] + c * w[qi, :]
                w[p, :], w[qi, :] = rot_p, rot_q
                rot_p = c * o[:, p] - s * o[:, qi]
                rot_q = s * o[:, p] + c * o[:, qi]
                o[:, p], o[:, qi] = rot_p, rot_q

    evals = np.diag(w).copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], o[:, order]
