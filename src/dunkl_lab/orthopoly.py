"""Hermite / associated Laguerre evaluation, zeros, and exact beta=2 densities.

Zeros come from the eigenvalues of the symmetric tridiagonal Jacobi matrix
of the three-term recurrence (Golub-Welsch), then a few vectorized Newton
steps on the recurrence-evaluated polynomial polish each zero to machine
precision independently of the eigensolver's own accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

HERMITE = "hermite"
LAGUERRE = "laguerre"


@dataclass(frozen=True)
class PolyZeros:
    kind: str
    n: int
    alpha: float | None
    zeros: np.ndarray


def _hermite_scaled(n: int, x):
    """(h, h_prev, logscale) with H_n(x) = h e^logscale and
    H_{n-1}(x) = h_prev e^logscale, by the recurrence with periodic rescaling.

    The common factor keeps the recurrence finite at large n; the ratio
    H_n / H_{n-1} needs no rescaling back.
    """
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)  # H_{-1} := 0
    h = np.ones_like(x)
    logscale = np.zeros_like(x)
    for k in range(n):
        h_prev, h = h, 2 * x * h - 2 * k * h_prev
        big = np.abs(h) > 1e120
        if np.any(big):
            factor = np.where(big, np.abs(h), 1.0)
            h = h / factor
            h_prev = h_prev / factor
            logscale = logscale + np.log(factor)
    return h, h_prev, logscale


def hermite_eval(n: int, x):
    """Physicists' Hermite H_n: returns (value, derivative).

    Three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1}; H_n' = 2n H_{n-1}.
    """
    x = np.asarray(x, dtype=float)
    h, h_prev, logscale = _hermite_scaled(n, x)
    scale = np.exp(logscale)
    value = h * scale
    deriv = 2 * n * h_prev * scale
    if x.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _laguerre_scaled(n: int, alpha: float, x):
    """(l, d, logscale) with L_n^(alpha)(x) = l e^logscale and its
    x-derivative d e^logscale.

    Recurrence (k+1) L_{k+1} = (2k+alpha+1-x) L_k - (k+alpha) L_{k-1}, and
    its x-derivative (k+1) L'_{k+1} = (2k+alpha+1-x) L'_k - L_k
    - (k+alpha) L'_{k-1} carried alongside, with periodic rescaling: O(n),
    finite where L_n overflows, and exact at x = 0 (the quotient relation
    x L' = n L - (n+a) L_{n-1} is not).
    """
    x = np.asarray(x, dtype=float)
    l_prev = np.zeros_like(x)
    l = np.ones_like(x)
    d_prev = np.zeros_like(x)
    d = np.zeros_like(x)
    logscale = np.zeros_like(x)
    for k in range(n):
        c = 2 * k + alpha + 1 - x
        l_prev, l, d_prev, d = (
            l,
            (c * l - (k + alpha) * l_prev) / (k + 1),
            d,
            (c * d - l - (k + alpha) * d_prev) / (k + 1),
        )
        size = np.maximum(np.abs(l), np.abs(d))
        big = size > 1e120
        if np.any(big):
            factor = np.where(big, size, 1.0)
            l, l_prev, d, d_prev = l / factor, l_prev / factor, d / factor, d_prev / factor
            logscale = logscale + np.log(factor)
    return l, d, logscale


def laguerre_eval(n: int, alpha: float, x):
    """Associated Laguerre L_n^(alpha): returns (value, derivative)."""
    x = np.asarray(x, dtype=float)
    l, d, logscale = _laguerre_scaled(n, alpha, x)
    scale = np.exp(logscale)
    value, deriv = l * scale, d * scale
    if x.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _polish(f, z):
    """Vectorized Newton polish; f(z) -> (value, derivative).

    Only the ratio value/derivative and their relative size are used, so f
    may return both scaled by any common positive factor per point.
    """
    def finite(z):
        val, der = f(z)
        if not (np.all(np.isfinite(val)) and np.all(np.isfinite(der))):
            raise FloatingPointError("zero refinement met a non-finite polynomial value")
        return val, der

    for _ in range(4):
        val, der = finite(z)
        step = np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), 0.0)
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(z))):
            break
    val, der = finite(z)
    if np.any(np.abs(val) > 1e-10 * np.abs(der) * np.maximum(1.0, np.abs(z))):
        raise RuntimeError("zero refinement failed to certify")
    return z


def hermite_zeros(n: int) -> PolyZeros:
    """All n real zeros of H_n, ascending."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        return PolyZeros(HERMITE, 1, None, np.array([0.0]))
    off = np.sqrt(np.arange(1, n) / 2.0)  # monic recurrence p_{k+1}=x p_k-(k/2)p_{k-1}
    jac = np.diag(off, 1) + np.diag(off, -1)
    guess = np.sort(np.linalg.eigvalsh(jac))

    def scaled(t):
        h, h_prev, _ = _hermite_scaled(n, t)
        return h, 2 * n * h_prev

    zeros = _polish(scaled, guess)
    return PolyZeros(HERMITE, n, None, np.sort(zeros))


def laguerre_zeros(n: int, alpha: float) -> PolyZeros:
    """All n zeros of L_n^(alpha) (alpha > -1), ascending, all positive."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if alpha <= -1:
        raise ValueError("alpha > -1 required")
    if n == 1:
        return PolyZeros(LAGUERRE, 1, alpha, np.array([alpha + 1.0]))
    k = np.arange(n)
    diag = 2 * k + alpha + 1
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    guess = np.sort(np.linalg.eigvalsh(jac))
    zeros = _polish(lambda t: _laguerre_scaled(n, alpha, t)[:2], guess)
    return PolyZeros(LAGUERRE, n, alpha, np.sort(zeros))


def _logsign(scaled):
    """(log|p|, sign p) from a scaled recurrence's (value, _, logscale);
    -inf where p is 0."""
    value, _, logscale = scaled
    with np.errstate(divide="ignore"):
        return np.log(np.abs(value)) + logscale, np.sign(value)


def _signed_sum(terms):
    """(bracket, top) with sum of sign e^logmag over terms = bracket e^top.

    terms are (logmag, sign) pairs; top is their largest finite logmag, so
    sums of factorially large polynomial products stay in range.
    """
    top = np.maximum.reduce([logmag for logmag, _ in terms])
    top = np.where(np.isfinite(top), top, 0.0)
    return sum(sign * np.exp(logmag - top) for logmag, sign in terms), top


def density_a_exact(n: int, t: float, y):
    """Exact one-point particle density for the beta=2 type-A process.

    sigma_N(y, t) = e^{-y^2/2t} / (2^N (N-1)! sqrt(2 pi t))
                    * [H_N(u)^2 - H_{N+1}(u) H_{N-1}(u)],  u = y / sqrt(2t).
    Integrates to N over the real line.  Combined in log-magnitude + sign
    space: the bracket mixes factorially large Hermite values at large N.
    """
    if t <= 0:
        raise ValueError("t > 0 required")
    y = np.asarray(y, dtype=float)
    u = y / math.sqrt(2 * t)
    ln_n, sn_n = _logsign(_hermite_scaled(n, u))
    ln_p, sn_p = _logsign(_hermite_scaled(n + 1, u))
    ln_m, sn_m = _logsign(_hermite_scaled(n - 1, u))
    bracket, top = _signed_sum([(2 * ln_n, 1.0), (ln_p + ln_m, -sn_p * sn_m)])
    lognorm = n * math.log(2.0) + gammaln(n) + 0.5 * math.log(2 * math.pi * t)
    dens = np.maximum(bracket, 0.0) * np.exp(top - u * u - lognorm)
    return float(dens) if dens.ndim == 0 else dens


def density_b_exact(n: int, nu: float, t: float, y):
    """Exact one-point density for the beta=2 type-B process started at 0.

    (N!/Gamma(nu+N)) { N [L_N(u)]^2 + L_N L_{N-1} - (N+1) L_{N+1} L_{N-1} }
        * (2/y) u^nu e^{-u},   u = y^2 / 2t,  Laguerre parameter nu.
    Integrates to N on (0, inf).  Combined in log-magnitude + sign space,
    as in `density_a_exact`.
    """
    if t <= 0:
        raise ValueError("t > 0 required")
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("y > 0 required")
    u = y * y / (2 * t)
    ln_n, sn_n = _logsign(_laguerre_scaled(n, nu, u))
    ln_m, sn_m = _logsign(_laguerre_scaled(n - 1, nu, u))
    ln_p, sn_p = _logsign(_laguerre_scaled(n + 1, nu, u))
    bracket, top = _signed_sum([
        (math.log(n) + 2 * ln_n, 1.0),
        (ln_n + ln_m, sn_n * sn_m),
        (math.log(n + 1) + ln_p + ln_m, -sn_p * sn_m),
    ])
    logpref = gammaln(n + 1) - gammaln(nu + n)
    dens = np.maximum(bracket, 0.0) * np.exp(
        top + logpref + nu * np.log(u) - u + np.log(2.0) - np.log(y)
    )
    return float(dens) if dens.ndim == 0 else dens
