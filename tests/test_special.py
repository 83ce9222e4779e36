import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auxfield.errors import DomainError, NonConvergence, NotSymmetric
from auxfield.special import (
    cbrt,
    cubic_residual,
    cubic_root,
    lambert_w0,
    quartic_root,
    symmetric_eigen,
)


def lambert_residual(w, x):
    return w * math.exp(w) - x


def quartic_residual(x, y):
    return 4.0 * x**4 - 8.0 * x - 3.0 * y


def bisect(f, a, b, iters=200):
    fa = f(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Lambert W


def test_lambert_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)


def test_lambert_unit_value():
    # fixed point of w*exp(w) = 1, frozen from Halley iteration run separately
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-14)


def test_lambert_domain_error():
    with pytest.raises(DomainError):
        lambert_w0(-0.5)


@given(st.floats(min_value=-0.3678, max_value=1e3))
@settings(max_examples=200)
def test_lambert_residual_property(x):
    w = lambert_w0(x)
    assert abs(lambert_residual(w, x)) <= 1e-14 * max(1.0, abs(x))
    assert w >= -1.0


# ---------------------------------------------------------------------------
# cubic root of x^3 - 3x - 2y


def test_cubic_trivial_points():
    assert cubic_root(1.0) == pytest.approx(2.0, rel=1e-14)
    assert cubic_root(0.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_cubic_against_bisection():
    # independent oracle: bisection of x^3 - 3x - 10 over [sqrt(3), 3]
    oracle = bisect(lambda x: x**3 - 3 * x - 10.0, math.sqrt(3.0), 3.0)
    assert oracle == pytest.approx(2.6128878647175444, rel=1e-13)
    assert cubic_root(5.0) == pytest.approx(oracle, rel=1e-13)


def test_cubic_domain_error():
    with pytest.raises(DomainError):
        cubic_root(-0.1)
    with pytest.raises(DomainError):
        cubic_root(math.inf)


@given(st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=200)
def test_cubic_residual_property(y):
    x = cubic_root(y)
    assert abs(cubic_residual(x, y)) <= 1e-12 * max(1.0, 2.0 * y)
    assert x >= math.sqrt(3.0) - 1e-12


def test_cubic_monotone():
    ys = np.logspace(-3, 3, 400)
    vals = [cubic_root(y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# quartic root of 4x^4 - 8x - 3y


def test_quartic_trivial_points():
    assert quartic_root(0.0) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert quartic_root(100.0) == pytest.approx(3.0, rel=1e-13)  # exact root


def test_quartic_against_bisection():
    oracle = bisect(lambda x: 4 * x**4 - 8 * x - 12.0, 1.0, 3.0)
    assert oracle == pytest.approx(1.5747430738870214, rel=1e-13)
    assert quartic_root(4.0) == pytest.approx(oracle, rel=1e-13)


def test_quartic_large_argument_bracket():
    y = 100.0
    lo = (0.75 * y) ** 0.25
    oracle = bisect(lambda x: 4 * x**4 - 8 * x - 3 * y, lo, lo + 2.0)
    assert quartic_root(y) == pytest.approx(oracle, rel=1e-13)


def test_quartic_domain_error():
    with pytest.raises(DomainError):
        quartic_root(-1e-9)


@pytest.mark.parametrize(
    "y", [1e100, 1.34e154, 1.35e154, 1e200, 6e307, 7e307, 9e307, 1e308, sys.float_info.max]
)
def test_roots_up_to_the_float_range(y):
    # y^2, and x^3 with it, overflows past 1.34e154, where cubic_root takes
    # its asymptote, and 3y in the quartic's residual past 6e307; the
    # residuals are formed exactly here
    x, fy = cubic_root(y), Fraction(y)
    assert math.isfinite(x)
    assert abs(Fraction(x) ** 3 - 3 * Fraction(x) - 2 * fy) <= 1e-13 * 2 * fy
    x = quartic_root(y)
    assert math.isfinite(x)
    assert abs(4 * Fraction(x) ** 4 - 8 * Fraction(x) - 3 * fy) <= 1e-13 * 3 * fy


@given(st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=200)
def test_quartic_residual_property(y):
    x = quartic_root(y)
    assert abs(quartic_residual(x, y)) <= 1e-12 * max(1.0, 3.0 * y)
    assert x > 0.0


def test_quartic_monotone():
    ys = np.logspace(-3, 3, 400)
    vals = [quartic_root(y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_quartic_huge_argument_stays_accurate():
    # far above the root's 2^(1/3) floor, where a closed form cancels badly
    for y in (1e6, 1e8, 1e10):
        x = quartic_root(y)
        assert abs(4 * x**4 - 8 * x - 3 * y) <= 1e-12 * 3 * y


def test_quartic_argument_past_cube_range():
    # y**3 overflows, which the quartic's closed form could not survive; a
    # non-finite argument is a domain error rather than a NaN root
    y = 1e202
    x = quartic_root(y)
    assert x == pytest.approx((0.75 * y) ** 0.25, rel=1e-12)
    assert abs(quartic_residual(x, y)) <= 1e-12 * 3.0 * y
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            quartic_root(bad)


# ---------------------------------------------------------------------------
# the three roots against 50 digits

ULP4 = 4 * sys.float_info.epsilon  # four units in the last place, relative


def _log_uniform(rng, lo, hi, count):
    return [10.0 ** rng.uniform(lo, hi) for _ in range(count)]


def _mp_newton(mpmath, f, df, x):
    """Root of f by Newton from x, which lies above it on a convex rise."""
    for _ in range(200):
        dx = f(x) / df(x)
        x -= dx
        if abs(dx) <= mpmath.mpf(10) ** -45 * abs(x):
            return x
    raise AssertionError("the reference Newton iteration did not converge")


def test_roots_within_four_ulp_of_50_digits():
    # Each root is refined while its correction shrinks, so it ends at the
    # rounding floor; the parent's residual tolerances left the quartic
    # ~100 ulp and Lambert ~3e4 ulp (at |x| ~ 1e-4) short of it
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(28)
    with mpmath.workdps(50):
        mp = mpmath.mpf

        def check(value, exact, what):
            assert abs(value - exact) <= ULP4 * abs(exact), (what, value, exact)

        for y in [0.0] + _log_uniform(rng, -300, 307, 150):
            s = mp(y) * 3 / 4
            exact = _mp_newton(
                mpmath, lambda x: x**4 - 2 * x - s, lambda x: 4 * x**3 - 2,
                mpmath.root(s, 4) + mpmath.cbrt(2),
            )
            check(quartic_root(y), exact, ("quartic", y))
        for y in [0.0] + [rng.uniform(0.0, 2.0) for _ in range(50)] + _log_uniform(
            rng, -300, 153, 150
        ):
            exact = _mp_newton(
                mpmath, lambda x: x**3 - 3 * x - 2 * mp(y), lambda x: 3 * x * x - 3,
                mpmath.cbrt(2 * mp(y)) + 2,
            )
            check(cubic_root(y), exact, ("cubic", y))
        xs = [rng.uniform(-0.3, 10.0) for _ in range(100)] + _log_uniform(rng, 1, 308, 100)
        xs += [rng.choice((-1.0, 1.0)) * x for x in _log_uniform(rng, -300, -1, 100)]
        for x in xs + [1e308]:
            check(lambert_w0(x), mpmath.lambertw(mp(x)).real, ("lambert", x))


@pytest.mark.parametrize("x, root", [(8.0, 2.0), (-27.0, -3.0), (0.001, 0.1), (2.0**-1074, 2.0**-358)])
def test_cbrt_exact_cubes(x, root):
    assert cbrt(x) == root


def test_cbrt_keeps_zero_and_non_finite_values():
    for x in (0.0, -0.0, math.inf, -math.inf):
        assert math.copysign(1.0, cbrt(x)) == math.copysign(1.0, x) and abs(cbrt(x)) == abs(x)
    assert math.isnan(cbrt(math.nan))


def test_cbrt_within_one_ulp_of_50_digits():
    # the binary exponent is taken out before the power 1/3, so the inexact
    # float 1/3 is never multiplied by a large log; measured at <= 0.63 eps
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(31)
    xs = [rng.choice((-1.0, 1.0)) * x for x in _log_uniform(rng, -323, 308, 2000)]
    with mpmath.workdps(50):
        for x in xs + [sys.float_info.max, 5e-324]:
            exact = mpmath.cbrt(abs(mpmath.mpf(x)))
            assert abs(abs(cbrt(x)) - exact) <= sys.float_info.epsilon * exact, x


def test_lambert_next_to_the_branch_point_within_its_conditioning():
    # W is ill-conditioned at x -> -1/e: a relative change eps in x moves W
    # by eps |x| / (e^W (1 + W)), which no iteration can beat; stay within
    # twice that
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(29)
    xs, x = [], -math.exp(-1.0)
    for _ in range(20):
        x = math.nextafter(x, 0.0)
        xs.append(x)
    with mpmath.workdps(50):
        branch = -mpmath.exp(-1)
        xs += [float(branch + 10 ** mpmath.mpf(rng.uniform(-16, -0.6))) for _ in range(100)]
        for x in xs:
            w = mpmath.lambertw(mpmath.mpf(x)).real
            bound = sys.float_info.epsilon * abs(x) / (mpmath.exp(w) * (1 + w) * abs(w))
            assert abs(lambert_w0(x) - w) <= 2 * bound * abs(w), x


# ---------------------------------------------------------------------------
# symmetric eigenvalues


def test_eigen_2x2():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    w = symmetric_eigen(a)
    assert w == pytest.approx([1.0, 3.0], rel=1e-12)
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-12


def test_eigen_identity():
    w = symmetric_eigen(np.eye(4))
    assert w == pytest.approx([1.0] * 4)
    assert np.allclose(w, np.linalg.eigvalsh(np.eye(4)), rtol=0.0, atol=1e-12)


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(5, 5))
    a = 0.5 * (a + a.T)
    w = symmetric_eigen(a)
    assert w.shape == (5,)
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-10 * np.max(np.abs(a))
    assert np.all(np.diff(w) >= -1e-14)


def test_eigen_reconstruction_many_small_matrices():
    # sweeps must continue until the off-diagonal mass itself is below the
    # threshold, which a difference of two nearly equal norms cannot resolve
    rng = np.random.default_rng(20)
    for i in range(400):
        dim = 3 + i % 4
        a = rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.T)
        w = symmetric_eigen(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * np.max(np.abs(a)), i


def test_eigen_raises_when_sweeps_run_out(monkeypatch):
    # with no rounds to rotate, the off-diagonal mass never shrinks
    import auxfield.special

    monkeypatch.setattr(auxfield.special, "_round_robin", lambda d: [])
    with pytest.raises(NonConvergence, match="after 100 Jacobi sweeps"):
        symmetric_eigen(np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, math.inf], [math.inf, 1.0]],  # inf off the diagonal
        [[math.inf, 0.0], [0.0, 1.0]],  # inf on the diagonal
        [[1.0, math.nan], [math.nan, 1.0]],
    ],
)
def test_eigen_raises_on_non_finite_entries_at_once(a):
    # the message shows the check before the sweeps, not the 100-sweep cap
    with pytest.raises(NonConvergence, match="inf or NaN"):
        symmetric_eigen(np.array(a))


def test_eigen_matches_library_solver():
    # even and odd sizes take different round-robin schedules (odd ones
    # leave one index idle per round)
    rng = np.random.default_rng(3)
    for dim in range(1, 65):
        a = rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.T)
        w = symmetric_eigen(a)
        assert w == pytest.approx(np.linalg.eigvalsh(a), rel=1e-10, abs=1e-10)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * np.linalg.norm(a), dim


def _assert_matches_library(a):
    w = symmetric_eigen(a)
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * np.linalg.norm(a)


def test_eigen_block_diagonal():
    # pairs across blocks are exact zeros with equal diagonal entries, which
    # the skip mask must leave alone rather than divide 0 by 0
    rng = np.random.default_rng(12)
    blocks = [rng.normal(size=(k, k)) for k in (2, 3, 4, 3)]
    a = np.zeros((12, 12))
    start = 0
    for b in blocks:
        k = b.shape[0]
        a[start : start + k, start : start + k] = b + b.T
        start += k
    np.fill_diagonal(a, 1.0)
    _assert_matches_library(a)


def test_eigen_identity_plus_rank_one():
    # d - 1 equal eigenvalues 1 and one 1 + |v|^2
    rng = np.random.default_rng(13)
    for dim in (5, 8, 17):
        v = rng.normal(size=dim)
        a = np.eye(dim) + np.outer(v, v)
        _assert_matches_library(a)
        w = symmetric_eigen(a)
        assert w[:-1] == pytest.approx(np.ones(dim - 1), abs=1e-12 * np.linalg.norm(a))
        assert w[-1] == pytest.approx(1.0 + v @ v, rel=1e-12)


def test_eigen_pair_with_huge_theta():
    # the pair (0, 1) has theta = (a11 - a00) / (2 a01) = 5e159, past the
    # 1e150 where theta^2 + 1 would overflow; the pair (0, 2) keeps the
    # sweeps going
    a = np.array([[0.0, 1e-160, 1.0], [1e-160, 1.0, 0.0], [1.0, 0.0, 2.0]])
    _assert_matches_library(a)
    rng = np.random.default_rng(14)
    b = rng.normal(size=(6, 6))
    b = b + b.T
    b[0, 1] = b[1, 0] = 1e-158 * (b[1, 1] - b[0, 0])
    _assert_matches_library(b)


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e160, 1e307])
def test_eigen_entries_near_the_float_range(scale):
    # the squares inside the norms would under- or overflow: a tiny matrix
    # came back unrotated, its diagonal read as the eigenvalues
    rng = np.random.default_rng(16)
    b = rng.normal(size=(5, 5))
    a = scale * (b + b.T)
    w = symmetric_eigen(a)
    ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_eigen_past_the_float_range_is_domain_error():
    with pytest.raises(DomainError):
        symmetric_eigen(np.full((2, 2), 1.5e308))


def test_eigen_is_reproducible():
    rng = np.random.default_rng(15)
    for dim in (7, 32, 33):
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        assert symmetric_eigen(a).tobytes() == symmetric_eigen(a.copy()).tobytes()


def test_eigen_similarity_invariance():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    a = 0.5 * (a + a.T)
    # random rotation from QR of a gaussian matrix
    qmat, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    b = qmat @ a @ qmat.T
    wa = symmetric_eigen(a)
    wb = symmetric_eigen(0.5 * (b + b.T))
    assert wa == pytest.approx(wb, rel=1e-10, abs=1e-10)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eigen(np.array([[1.0, 2.0], [0.5, 1.0]]))
