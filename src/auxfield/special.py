"""Closed-form root functions and a dense symmetric eigenvalue routine.

The two polynomial roots show up when eliminating the kinetic auxiliary field
against linear and quadratic interactions; the Lambert function appears for
gaussian wells. Each root starts from a seed and is ended by one rule
(_refine): Newton or Halley corrections are applied for as long as each is
smaller in magnitude than the one before, so the iteration runs to the
rounding floor and needs neither a tolerance nor a cap. cbrt, the real cube
root, stands in for math.cbrt, which Python 3.10 lacks. The eigenvalue
routine, symmetric_eigen, is round-robin Jacobi.
"""
from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, NonConvergence, NotSymmetric

if TYPE_CHECKING:
    import numpy as np

_INV_E = math.exp(-1.0)


def _refine(x: float, step: Callable[[float], float]) -> float:
    """x less the corrections step(x) for as long as each is smaller than the last.

    A strictly shrinking run of float magnitudes must end, and a NaN
    correction ends it at once, so no tolerance and no cap is needed: the
    iterate returned is the one whose correction stopped shrinking.
    """
    last = math.inf
    dx = step(x)
    while abs(dx) < last:
        x, last = x - dx, abs(dx)
        dx = step(x)
    return x


def cbrt(x: float) -> float:
    """Real cube root of a float, to within about an ulp over the float range.

    x = f 2^(3e + r) with 1/2 <= f < 1 and r in {0, 1, 2}: the power 1/3 of
    a = f 2^r in [1/2, 4), where the inexact float 1/3 costs at most ~1e-17,
    is polished by one Newton step on y^3 = a and scaled by 2^e exactly.
    """
    if not x or not math.isfinite(x):
        return x
    f, e = math.frexp(abs(x))
    e, r = divmod(e, 3)
    a = math.ldexp(f, r)
    y = a ** (1.0 / 3.0)
    y -= (y - a / y / y) / 3.0
    return math.copysign(math.ldexp(y, e), x)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert function, W*exp(W) = x for x >= -1/e.

    The branch-point series seeds x < -1/4, and log(1 + x) >= W(x) every
    other x; Halley steps then run for as long as each is smaller than the
    one before. An x that rounds to the branch point gives -1. Returns W >= -1.
    """
    if not x > -_INV_E:  # NaN too
        if x > -_INV_E - 1e-15 * _INV_E:  # rounding at the branch point
            return -1.0
        raise DomainError(f"lambert_w0 argument {x} < -1/e" if x < 0.0 else "lambert_w0 of NaN")
    if x == 0.0:
        return 0.0

    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        w = math.log1p(x)

    def halley(w: float) -> float:
        # Halley's correction, written with the residual over exp(w) so that
        # it stays finite up to x = 1.8e308, and multiplied through by w + 1
        # so that it stays finite at the branch point w = -1
        g = w - x * math.exp(-w)
        w1 = w + 1.0
        return 2.0 * g * w1 / (2.0 * w1 * w1 - (w + 2.0) * g)

    return max(_refine(w, halley), -1.0)


def cubic_residual(x: float, y: float) -> float:
    return x**3 - 3.0 * x - 2.0 * y


def cubic_root(y: float) -> float:
    """Root x >= sqrt(3) of x**3 - 3x - 2y = 0 for y >= 0.

    Newton steps, for as long as each is smaller than the one before, from
    x = u + sqrt(3) with u = (2y)^(1/3): the residual there is
    3 sqrt(3) u^2 + 6u >= 0, so they descend on the convex cubic from above.
    Where y^2 overflows, x^3 would too; there x = (2y)^(1/3) is the root to
    rounding, polished by one Newton step on x^3 = 2y formed without x^3 or 2y.
    """
    if not 0.0 <= y < math.inf:
        raise DomainError(f"cubic_root argument {y} outside [0, inf)")
    if y * y == math.inf:
        x = 2.0 ** (1.0 / 3.0) * y ** (1.0 / 3.0)
        return (2.0 * x + 2.0 * (y / x / x)) / 3.0
    return _refine(
        (2.0 * y) ** (1.0 / 3.0) + math.sqrt(3.0),
        lambda x: cubic_residual(x, y) / (3.0 * x * x - 3.0),
    )


def quartic_root(y: float) -> float:
    """Positive root of 4x**4 - 8x - 3y = 0 for y >= 0.

    Newton steps on the quarter residual x^4 - 2x - 3y/4, finite for every
    finite y, for as long as each is smaller than the one before. They start
    at s + c with s = (3y/4)^(1/4) and c = 2^(1/3), above the root because
    (s + c)^4 >= 3y/4 + 8s + 2c, and descend on the convex residual.
    """
    if not 0.0 <= y < math.inf:
        raise DomainError(f"quartic_root argument {y} outside [0, inf)")
    return _refine(
        (0.75 * y) ** 0.25 + 2.0 ** (1.0 / 3.0),
        lambda x: (x**4 - 2.0 * x - 0.75 * y) / (4.0 * x**3 - 2.0),
    )


@functools.lru_cache(maxsize=64)
def _round_robin(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat indices of the circle-method rounds for a d x d matrix.

    The circle method pads an odd d with one idle index, keeps index 0 fixed
    and turns the others one place per round, so d - 1 rounds (d rounds for
    odd d) pair every index with every other exactly once; the pairs of a
    round are disjoint. Each round is a 4 x k array holding the flat
    positions of (p,p), (q,q), (p,q) and (q,p) for its k pairs p < q, kept
    with its ravel, which places (c, c, s, -s) in one scatter.
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
            index = np.stack([p * (d + 1), q * (d + 1), p * d + q, q * d + p])
            rounds.append((index, index.ravel()))
    return rounds


def symmetric_eigen(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a dense symmetric matrix by round-robin Jacobi.

    Each sweep visits the d(d-1)/2 off-diagonal pairs in the round-robin
    (circle-method) ordering of Brent and Luk, SIAM J. Sci. Stat. Comput. 6
    (1985) 69-84: d - 1 rounds of disjoint pairs (d rounds for odd d). The
    rotations of one round commute, so each round is one orthogonal matrix
    J, assembled from the identity by one scatter of its cosines and sines,
    and applied as w <- J^T w J. Luk and Park, SIAM J. Sci. Stat. Comput. 10
    (1989) 18-26, show this ordering is equivalent to the cyclic-by-rows
    one, so it converges like it. Every rotation takes the minimal angle,
    |phi| <= pi/4; a pair whose |a_pq| is below about 1e-300 of the largest
    entry is left alone. The matrix is scaled by a power of two, so entries
    anywhere in the float range are solved; an eigenvalue outside it raises
    DomainError.

    Only the eigenvalues are formed: the rotations act on the matrix alone
    and no eigenvector matrix is accumulated. A fixed ordering and a fixed
    convergence threshold (off-diagonal Frobenius mass below 1e-14 * ||a||)
    keep the result reproducible; a matrix that misses the threshold after
    100 sweeps raises NonConvergence, and so does one holding inf or NaN,
    at once and without a sweep.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonConvergence("the matrix holds inf or NaN")
    d = a.shape[0]
    scale = np.max(np.abs(a)) if d else 0.0
    # Work in units of the power of two at or just below the largest entry:
    # the scaling is exact, and the squares inside the norms neither
    # overflow nor underflow to 0 (which ended the sweeps before the first).
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1) if scale > 0.0 else 1.0
    a = a / unit
    if scale > 0.0 and np.max(np.abs(a - a.T)) > 1e-12 * (scale / unit):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")

    w = 0.5 * (a + a.T)
    norm = np.linalg.norm(w)
    rounds, eye = _round_robin(d), np.eye(d)
    for sweep in range(101):
        if np.linalg.norm(w - np.diag(np.diag(w))) <= 1e-14 * norm:
            break
        if sweep == 100:
            raise NonConvergence(
                "off-diagonal mass above 1e-14 relative after 100 Jacobi sweeps"
            )
        for index, flat in rounds:
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
            j = eye.copy()
            j.ravel()[flat] = np.concatenate((c, c, s, -s))
            w = j.T @ w @ j

    evals = np.sort(np.diag(w))
    if d and float(np.max(np.abs(evals))) * unit == math.inf:
        raise DomainError("an eigenvalue lies outside the float range")
    return evals * unit
