import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.special import gammaln, roots_genlaguerre, roots_hermite

from dunkl_lab.orthopoly import (
    _hermite_coeffs,
    _laguerre_coeffs,
    _polish,
    density_a_exact,
    density_b_exact,
    hermite_eval,
    hermite_zeros,
    laguerre_eval,
    laguerre_zeros,
)


def test_hermite_eval_values():
    # H_2(x) = 4x^2 - 2, H_2'(x) = 8x
    v, d = hermite_eval(2, 1.0)
    assert v == pytest.approx(2.0)
    assert d == pytest.approx(8.0)
    v0, d0 = hermite_eval(3, 0.0)
    assert v0 == pytest.approx(0.0)
    assert d0 == pytest.approx(-12.0)  # H_3' = 6 H_2, H_2(0) = -2


def test_laguerre_eval_values():
    # L_1^{(a)}(x) = 1 + a - x
    a = 0.7
    v, d = laguerre_eval(1, a, 2.0)
    assert v == pytest.approx(a - 1.0)
    assert d == pytest.approx(-1.0)
    # value at 0 is binom(n+a, n)
    v0, _ = laguerre_eval(3, a, 0.0)
    assert v0 == pytest.approx(
        math.gamma(4 + a) / (math.gamma(1 + a) * math.factorial(3)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: hermite_eval(-1, 0.5), ValueError, "n >= 0"),
    (lambda: laguerre_eval(-1, 0.5, 0.5), ValueError, "n >= 0"),
    (lambda: laguerre_eval(2, -1.5, 0.5), ValueError, "alpha > -1"),
    # a float n raised a bare TypeError or, in the evaluators, read the
    # recurrence at ceil(n); a NaN or infinite alpha gave LinAlgError
    (lambda: hermite_eval(2.5, 0.5), ValueError, "n = 2.5: an integer n >= 0"),
    (lambda: hermite_zeros(2.5), ValueError, "n = 2.5: an integer n >= 1"),
    (lambda: laguerre_zeros(3, math.nan), ValueError, "alpha = nan: .*alpha > -1"),
    (lambda: laguerre_zeros(3, math.inf), ValueError, "alpha = inf: .*alpha > -1"),
    # H_1000(44) and L_1000^(1)(3000) exceed the largest double
    (lambda: hermite_eval(1000, 44.0), FloatingPointError, "n=1000"),
    (lambda: laguerre_eval(1000, 1.0, 3000.0), FloatingPointError, "n=1000"),
], ids=["hermite_negative_n", "laguerre_negative_n", "laguerre_alpha", "hermite_float_n",
        "hermite_zeros_float_n", "laguerre_zeros_nan_alpha", "laguerre_zeros_inf_alpha",
        "hermite_overflow", "laguerre_overflow"])
def test_eval_rejects_out_of_range(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("n", [1, 2, 5, 12, 25, 40, 300, 1000])
def test_hermite_zeros_vs_scipy(n):
    z = hermite_zeros(n).zeros
    ref = roots_hermite(n)[0]
    assert np.max(np.abs(z - ref)) < 1e-10
    assert np.all(np.diff(z) > 0)
    # sum of squares of the zeros of H_n: n(n-1)/2
    assert np.sum(z * z) == pytest.approx(n * (n - 1) / 2.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 25])
@pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 3.0])
def test_laguerre_zeros_vs_scipy(n, alpha):
    z = laguerre_zeros(n, alpha).zeros
    ref = roots_genlaguerre(n, alpha)[0]
    assert np.max(np.abs(z - ref) / np.maximum(1.0, ref)) < 1e-10
    assert np.all(z > 0)


@pytest.mark.parametrize("alpha", [-0.4, 1.3, 20.0])
def test_laguerre_zeros_large_n_sum(alpha):
    # sum of the zeros of L_n^(alpha): n(n+alpha); at n=1000 the polynomial
    # overflows near its largest zeros, so the polish must work rescaled
    n = 1000
    z = laguerre_zeros(n, alpha).zeros
    assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0) and z[0] > 0
    assert np.sum(z) == pytest.approx(n * (n + alpha), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
def test_laguerre_derivative_identity(alpha):
    # d/dx L_n^(a)(x) = -L_{n-1}^(a+1)(x), at x = 0 as well
    n = 60
    x = np.concatenate([[0.0], np.linspace(0.1, 200.0, 41)])
    _, deriv = laguerre_eval(n, alpha, x)
    ref, _ = laguerre_eval(n - 1, alpha + 1, x)
    np.testing.assert_allclose(deriv, -ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


def _recurrence_with_squares(a, b, x):
    """orthopoly._recurrence as it was when every caller paid for the sum of
    p_k^2, kept as the oracle that skipping the sum leaves p_n and p_n'."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    logscale = np.zeros_like(x)
    for ak, bk, bk1 in zip(a[:-1].tolist(), b[:-1].tolist(), b[1:].tolist()):
        total = total + p * p
        c = x - ak
        p_prev, p, d_prev, d = (
            p, (c * p - bk * p_prev) / bk1, d, (c * d + p - bk * d_prev) / bk1)
        size = np.maximum(np.abs(p), np.abs(d))
        big = size > 1e120
        if np.any(big):
            factor = np.where(big, size, 1.0)
            p, p_prev, d, d_prev = p / factor, p_prev / factor, d / factor, d_prev / factor
            total = total / (factor * factor)
            logscale = logscale + np.log(factor)
    return p, d, total, logscale


@pytest.mark.parametrize("zeros, coeffs", [
    (lambda: hermite_zeros(300), lambda: _hermite_coeffs(300)),
    (lambda: laguerre_zeros(300, 0.5), lambda: _laguerre_coeffs(300, 0.5)),
    (lambda: laguerre_zeros(300, -0.4), lambda: _laguerre_coeffs(300, -0.4)),
    # rescaled past 1e120 near the largest zeros
    (lambda: laguerre_zeros(1000, 20.0), lambda: _laguerre_coeffs(1000, 20.0)),
], ids=["H300", "L300_0.5", "L300_-0.4", "L1000_20"])
def test_zeros_match_the_summing_recurrence_bit_for_bit(zeros, coeffs):
    a, b = coeffs()
    n = len(a) - 1
    jac = np.diag(a[:n]) + np.diag(b[1:n], 1) + np.diag(b[1:n], -1)
    guess = np.linalg.eigvalsh(jac)
    ref = np.sort(_polish(lambda t: _recurrence_with_squares(a, b, t)[:2], guess))
    assert np.array_equal(zeros().zeros, ref)


def test_polish_rejects_non_finite_values():
    # NaN fails every comparison, so it must not pass the certification
    def nan_poly(z):
        return np.full_like(z, np.nan), np.ones_like(z)

    with pytest.raises(FloatingPointError):
        _polish(nan_poly, np.zeros(3))


def test_zero_interlacing():
    for n in range(2, 15):
        lo = hermite_zeros(n - 1).zeros
        hi = hermite_zeros(n).zeros
        assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])


def test_density_a_exact_values():
    # N=1 reduces to the standard normal with variance t
    t = 0.7
    y = np.linspace(-2, 2, 9)
    expected = np.exp(-y * y / (2 * t)) / math.sqrt(2 * math.pi * t)
    assert np.allclose(density_a_exact(1, t, y), expected, atol=1e-12)
    # N=3 center value 1.5/sqrt(2 pi)
    assert density_a_exact(3, 1.0, np.array([0.0]))[0] == pytest.approx(
        1.5 / math.sqrt(2 * math.pi))
    with pytest.raises(ValueError, match="n >= 1 required"):
        density_a_exact(0, t, y)
    # a float n raised a bare TypeError, a NaN t gave NaN and t = inf zeros
    with pytest.raises(ValueError, match="n = 2.5: an integer n >= 1 required"):
        density_a_exact(2.5, t, y)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match=f"t = {bad}: a finite t > 0 required"):
            density_a_exact(3, bad, y)
    # a NaN y gave NaN at that point
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="y has a non-finite entry"):
            density_a_exact(3, t, [bad, 0.0])


def test_density_a_symmetry():
    y = np.linspace(0.1, 3, 7)
    assert np.allclose(density_a_exact(4, 2.0, y), density_a_exact(4, 2.0, -y))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_density_a_mass(n):
    val, _ = quad(lambda y: density_a_exact(n, 1.3, np.array([y]))[0],
                  -np.inf, np.inf, limit=200)
    assert val == pytest.approx(n, rel=1e-6)


def test_density_b_exact_values():
    # N=1, nu=1/2, t=1/2, y=1
    assert density_b_exact(1, 0.5, 0.5, np.array([1.0]))[0] == pytest.approx(
        2 * math.exp(-1.0) / (math.sqrt(math.pi) / 2), rel=1e-12)
    # N=1 closed form (2/y) u^{nu+1} e^{-u} / Gamma(nu+1), u = y^2/2t
    nu, t = 1.5, 0.8
    y = np.linspace(0.2, 3, 8)
    u = y * y / (2 * t)
    expected = (2 / y) * u ** (nu + 1) * np.exp(-u) / math.gamma(nu + 1)
    assert np.allclose(density_b_exact(1, nu, t, y), expected, rtol=1e-12)
    with pytest.raises(ValueError, match="n >= 1 required"):
        density_b_exact(0, nu, t, y)
    # a NaN nu or t gave NaN
    with pytest.raises(ValueError, match="alpha = nan: .*alpha > -1 required"):
        density_b_exact(3, math.nan, t, y)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t = {bad}: a finite t > 0 required"):
            density_b_exact(3, nu, bad, y)
    # a NaN y passed the y > 0 test and gave NaN at that point
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="y has a non-finite entry"):
            density_b_exact(3, nu, t, [bad, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("nu", [0.5, 1.5])
def test_density_b_mass(n, nu):
    val, _ = quad(lambda y: density_b_exact(n, nu, 0.9, np.array([y]))[0],
                  1e-12, np.inf, limit=200)
    assert val == pytest.approx(n, rel=1e-6)


def _density_b_by_sum(n, nu, t, y):
    # sum_{k<N} phi_k(u)^2 du/dy, u = y^2/2t, with the orthonormal Laguerre
    # functions phi_k = sqrt(k!/Gamma(k+nu+1)) u^{nu/2} e^{-u/2} L_k^nu(u)
    # from their normalised three-term recurrence; the prefactor underflows
    # past u ~ 1490, so it is carried as a log scale, which also absorbs the
    # values whenever they pass 1e100
    u = y * y / (2 * t)
    log_scale = nu / 2 * np.log(u) - u / 2 - 0.5 * gammaln(nu + 1)
    p_prev, p = np.zeros_like(u), np.ones_like(u)
    total = p * p
    for k in range(n - 1):
        a = math.sqrt((k + 1) / (k + nu + 1))
        b = math.sqrt(k * (k + 1) / ((k + nu) * (k + nu + 1))) if k > 0 else 0.0
        p, p_prev = ((2 * k + nu + 1 - u) * a * p - (k + nu) * b * p_prev) / (k + 1), p
        total += p * p
        big = np.abs(p) > 1e100
        if np.any(big):
            factor = np.where(big, np.abs(p), 1.0)
            p, p_prev, total = p / factor, p_prev / factor, total / (factor * factor)
            log_scale = log_scale + np.log(factor)
    return np.exp(np.log(total) + 2 * log_scale) * y / t


@pytest.mark.parametrize("nu", [0.5, 2.5])
def test_density_b_exact_large_n_matches_direct_sum(nu):
    # at N = 150 the Laguerre values overflow a double; the density sums
    # the squared orthonormal values, rescaled with their log scale.  At
    # N = 400 the grid passes u = y^2/2t ~ 1490, where e^{-u/2} underflows
    t = 1.3
    for n in (150, 400):
        edge = math.sqrt(2.0 * t * (4 * n + 2 * nu + 2))
        y = np.linspace(1.2 * edge / 2001, 1.2 * edge, 2001)
        dens = density_b_exact(n, nu, t, y)
        ref = _density_b_by_sum(n, nu, t, y)
        assert np.all(np.isfinite(ref)) and np.all(np.isfinite(dens))
        assert np.max(np.abs(dens - ref)) <= 1e-9 * np.max(ref), n


@pytest.mark.parametrize("n", [400, 1000])
@pytest.mark.parametrize("nu", [None, 0.5, 2.5])
def test_density_mass_large_n(n, nu):
    # trapezoid mass out to 1.3x the spectral edge, type A (nu None) or B;
    # the density is analytic and negligible past the edge, so the rule is
    # accurate far below the tolerance
    t = 1.1
    if nu is None:
        edge = 2.0 * math.sqrt(n * t)
        y = np.linspace(-1.3 * edge, 1.3 * edge, 40001)
        dens = density_a_exact(n, t, y)
    else:
        edge = math.sqrt(2.0 * t * (4 * n + 2 * nu + 2))
        y = np.linspace(0.0, 1.3 * edge, 40001)
        dens = np.concatenate([[0.0], density_b_exact(n, nu, t, y[1:])])
    assert np.all(np.isfinite(dens)) and np.all(dens >= 0)
    assert trapezoid(dens, y) == pytest.approx(n, rel=1e-9)


def test_density_nonnegative_large_n():
    # the bracket combinations suffer cancellation at large argument; the
    # density must stay nonnegative out in the tails
    y = np.linspace(-12, 12, 401)
    assert np.all(density_a_exact(7, 0.5, y) >= 0)
    yb = np.linspace(1e-3, 12, 301)
    assert np.all(density_b_exact(7, 0.5, 0.5, yb) >= 0)
