"""Closed-form root functions and a dense symmetric eigenvalue routine.

The two polynomial roots show up when eliminating the kinetic auxiliary field
against linear and quadratic interactions; the Lambert function appears for
gaussian wells. Closed forms are evaluated first and then polished with a few
Newton steps, because the quartic expression cancels badly for large
arguments while Newton converges in one or two steps from it.

The eigenvalue routine is round-robin Jacobi: each sweep visits the pairs in
the circle-method ordering of Brent and Luk (SIAM J. Sci. Stat. Comput. 6
(1985) 69-84), whose rounds hold disjoint pairs and so rotate as one block.
Luk and Park (SIAM J. Sci. Stat. Comput. 10 (1989) 18-26) prove the ordering
equivalent to the cyclic-by-rows one, so it converges in the same way.
"""
from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _round_robin(d: int) -> list[np.ndarray]:
    """Flat indices of the circle-method rounds for a d x d matrix.

    The circle method pads an odd d with one idle index, keeps index 0 fixed
    and turns the others one place per round, so d - 1 rounds (d rounds for
    odd d) pair every index with every other exactly once; the pairs of a
    round are disjoint. Each round is a 4 x k array holding the flat
    positions of (p,p), (q,q), (p,q) and (q,p) for its k pairs p < q.
    """
    import numpy as np

    width = d + d % 2
    ring = list(range(1, width))
    rounds = []
    for _ in range(width - 1):
        order = [0] + ring
        pairs = [
            (min(i, j), max(i, j))
            for i, j in zip(order[: width // 2], reversed(order[width // 2 :]))
            if j < d and i < d
        ]
        ring = ring[-1:] + ring[:-1]
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            rounds.append(np.stack([p * (d + 1), q * (d + 1), p * d + q, q * d + p]))
    return rounds


def symmetric_eigen(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a dense symmetric matrix by round-robin Jacobi.

    Each sweep visits the d(d-1)/2 off-diagonal pairs in the round-robin
    (circle-method) ordering of Brent and Luk, SIAM J. Sci. Stat. Comput. 6
    (1985) 69-84: d - 1 rounds of disjoint pairs (d rounds for odd d). The
    rotations of one round commute, so each round is applied as one
    orthogonal block, w <- J^T w J. Luk and Park, SIAM J. Sci. Stat. Comput.
    10 (1989) 18-26, show this ordering is equivalent to the cyclic-by-rows
    one, so it converges like it. Every rotation takes the minimal angle,
    |phi| <= pi/4; a pair whose |a_pq| is below about 1e-300 of the largest
    entry is left alone. The matrix is scaled by a power of two, so entries
    anywhere in the float range are solved; an eigenvalue outside it raises
    DomainError.

    Only the eigenvalues are formed: the rotations act on the matrix alone
    and no eigenvector matrix is accumulated. A fixed ordering and a fixed
    convergence threshold (off-diagonal Frobenius mass below 1e-14 * ||a||)
    keep the result reproducible; a matrix that misses the threshold after
    100 sweeps raises NonConvergence.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    scale = np.max(np.abs(a)) if d else 0.0
    # Work in units of the power of two at or just below the largest entry:
    # the scaling is exact, and the squares inside the norms neither
    # overflow nor underflow to 0 (which ended the sweeps before the first).
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1) if 0.0 < scale < math.inf else 1.0
    a = a / unit
    if scale > 0.0 and np.max(np.abs(a - a.T)) > 1e-12 * (scale / unit):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")

    w = 0.5 * (a + a.T)
    norm = np.linalg.norm(w)
    rounds = _round_robin(d)
    for sweep in range(101):
        if np.linalg.norm(w - np.diag(np.diag(w))) <= 1e-14 * norm:
            break
        if sweep == 100:
            raise NonConvergence(
                "off-diagonal mass above 1e-14 relative after 100 Jacobi sweeps"
            )
        for index in rounds:
            app, aqq, apq = w.ravel()[index[:3]]
            skip = np.abs(apq) <= 1e-300
            # t = tan(phi) = sign(theta) / (|theta| + sqrt(theta^2 + 1)) with
            # theta = h / apq, multiplied through by |apq|: hypot keeps theta^2
            # from overflowing, so the large-|theta| form t = 1 / (2 theta)
            # needs no branch of its own.
            h = 0.5 * (aqq - app)
            den = h + np.copysign(np.hypot(h, apq), h)
            den[skip] = 1.0
            t = apq / den
            t[skip] = 0.0
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            j = np.eye(d)
            j.ravel()[index[:2]] = c
            j.ravel()[index[2:]] = np.stack([s, -s])
            w = j.T @ w @ j

    evals = np.sort(np.diag(w))
    if d and float(np.max(np.abs(evals))) * unit == math.inf:
        raise DomainError("an eigenvalue lies outside the float range")
    return evals * unit
