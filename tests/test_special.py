import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auxfield.errors import DomainError, NonConvergence, NotSymmetric
from auxfield.special import (
    cubic_residual,
    cubic_root,
    lambert_residual,
    lambert_w0,
    quartic_residual,
    quartic_root,
    symmetric_eigen,
)


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
    # the closed form cancels badly here; Newton polish must rescue it
    for y in (1e6, 1e8, 1e10):
        x = quartic_root(y)
        assert abs(4 * x**4 - 8 * x - 3 * y) <= 1e-12 * 3 * y


def test_quartic_argument_past_cube_range():
    # y**3 overflows: the asymptotic seed still converges, and a non-finite
    # argument is a domain error rather than a NaN root
    y = 1e202
    x = quartic_root(y)
    assert x == pytest.approx((0.75 * y) ** 0.25, rel=1e-12)
    assert abs(quartic_residual(x, y)) <= 1e-12 * 3.0 * y
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            quartic_root(bad)


# ---------------------------------------------------------------------------
# symmetric eigensolver


def test_eigen_2x2():
    w, o = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert w == pytest.approx([1.0, 3.0], rel=1e-12)
    assert np.max(np.abs(o.T @ o - np.eye(2))) < 1e-12


def test_eigen_identity():
    w, o = symmetric_eigen(np.eye(4))
    assert w == pytest.approx([1.0] * 4)
    assert np.allclose(o.T @ o, np.eye(4), atol=1e-12)


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(5, 5))
    a = 0.5 * (a + a.T)
    w, o = symmetric_eigen(a)
    recon = o @ np.diag(w) @ o.T
    assert np.max(np.abs(recon - a)) <= 1e-10 * np.max(np.abs(a))
    assert np.max(np.abs(o.T @ o - np.eye(5))) <= 1e-12
    assert np.all(np.diff(w) >= -1e-14)


def test_eigen_reconstruction_many_small_matrices():
    # sweeps must continue until the off-diagonal mass itself is below the
    # threshold, which a difference of two nearly equal norms cannot resolve
    rng = np.random.default_rng(20)
    for i in range(400):
        dim = 3 + i % 4
        a = rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.T)
        w, o = symmetric_eigen(a)
        recon = o @ np.diag(w) @ o.T
        assert np.max(np.abs(recon - a)) <= 1e-12 * np.max(np.abs(a)), i


def test_eigen_raises_when_sweeps_run_out():
    with pytest.raises(NonConvergence):
        symmetric_eigen(np.array([[1.0, math.nan], [math.nan, 1.0]]))


def test_eigen_matches_library_solver():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 6, 12):
        a = rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.T)
        w, _ = symmetric_eigen(a)
        assert w == pytest.approx(np.linalg.eigvalsh(a), rel=1e-10, abs=1e-10)


def test_eigen_similarity_invariance():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    a = 0.5 * (a + a.T)
    # random rotation from QR of a gaussian matrix
    qmat, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    b = qmat @ a @ qmat.T
    wa, _ = symmetric_eigen(a)
    wb, _ = symmetric_eigen(0.5 * (b + b.T))
    assert wa == pytest.approx(wb, rel=1e-10, abs=1e-10)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eigen(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_eigen_rejects_oversized():
    with pytest.raises(NotSymmetric):
        symmetric_eigen(np.eye(33))
