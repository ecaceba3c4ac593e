"""Hermite / associated Laguerre evaluation, zeros, and exact beta=2 densities.

One orthonormal three-term recurrence, fed each family's coefficients,
serves everything.  Zeros come from the eigenvalues of the symmetric
tridiagonal Jacobi matrix of the same coefficients (Golub-Welsch), then a
few vectorized Newton steps on the recurrence polish each zero to machine
precision independently of the eigensolver's own accuracy.  The beta=2
densities are the diagonal of the Christoffel-Darboux kernel, the sum of
the squared orthonormal functions, summed along the same recurrence.
Each input is checked once, at the door: a degree by `_degree`, a time by
`_time`, the Laguerre parameter by `_laguerre_coeffs`; each raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

HERMITE = "hermite"
LAGUERRE = "laguerre"


@dataclass(frozen=True)
class PolyZeros:
    kind: str
    n: int
    alpha: float | None
    zeros: np.ndarray


def _degree(n, least: int):
    """ValueError unless the degree n is an integer >= least."""
    if not isinstance(n, Integral) or n < least:
        raise ValueError(f"n = {n!r}: an integer n >= {least} required")


def _time(t):
    """ValueError unless the time t lies in (0, inf)."""
    if not 0 < t < math.inf:
        raise ValueError(f"t = {t!r}: a finite t > 0 required")


def _hermite_coeffs(n: int):
    """Orthonormal recurrence coefficients (a_k, b_k), k = 0..n, for e^{-x^2}."""
    return np.zeros(n + 1), np.sqrt(np.arange(n + 1) / 2.0)


def _laguerre_coeffs(n: int, alpha: float):
    """Orthonormal recurrence coefficients (a_k, b_k), k = 0..n, for x^alpha e^{-x}."""
    if not -1 < alpha < math.inf:  # NaN fails this test, not alpha <= -1
        raise ValueError(f"alpha = {alpha!r}: a finite Laguerre parameter alpha > -1 required")
    k = np.arange(n + 1)
    return 2 * k + alpha + 1.0, np.sqrt(k * (k + alpha))


def _recurrence(a, b, x, squares=False):
    """(p_n, p_n', sum_{k<n} p_k^2 if squares else None, logscale) at x, n = len(a) - 1.

    Runs x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1} from p_0 = 1, so
    the p_k are orthonormal for the weight divided by its mass.  The true
    values are p_n e^logscale, p_n' e^logscale and the sum e^{2 logscale}:
    a point is divided by its largest carried magnitude once that passes
    1e120, so the recurrence stays finite where p_n overflows.  The
    x-derivative b_{k+1} p_{k+1}' = (x - a_k) p_k' + p_k - b_k p_{k-1}' is
    carried alongside: O(n) and exact at x = 0, where a quotient relation
    for p_n' is not.
    """
    x = np.asarray(x, dtype=float)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x) if squares else None
    logscale = np.zeros_like(x)
    for ak, bk, bk1 in zip(a[:-1].tolist(), b[:-1].tolist(), b[1:].tolist()):
        total = total + p * p if squares else None
        c = x - ak
        p_prev, p, d_prev, d = (
            p,
            (c * p - bk * p_prev) / bk1,
            d,
            (c * d + p - bk * d_prev) / bk1,
        )
        size = np.maximum(np.abs(p), np.abs(d))
        big = size > 1e120
        if np.any(big):
            factor = np.where(big, size, 1.0)
            p, p_prev, d, d_prev = p / factor, p_prev / factor, d / factor, d_prev / factor
            total = total / (factor * factor) if squares else None
            logscale = logscale + np.log(factor)
    return p, d, total, logscale


def _unscaled(name: str, n: int, p, d, shift):
    """(p e^shift, d e^shift), formed in log space; FloatingPointError where
    either leaves the float range."""
    with np.errstate(over="ignore", divide="ignore"):
        value, deriv = (np.sign(v) * np.exp(np.log(np.abs(v)) + shift) for v in (p, d))
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(deriv))):
        raise FloatingPointError(f"{name} or its derivative leaves the float range at n={n}")
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def hermite_eval(n: int, x):
    """Physicists' Hermite H_n: returns (value, derivative).

    H_n = sqrt(2^n n!) p_n, with p_n from the orthonormal recurrence.
    """
    _degree(n, 0)
    p, d, _, logscale = _recurrence(*_hermite_coeffs(n), x)
    lognorm = 0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
    return _unscaled("H_n", n, p, d, logscale + lognorm)


def laguerre_eval(n: int, alpha: float, x):
    """Associated Laguerre L_n^(alpha) (alpha > -1): returns (value, derivative).

    L_n^(alpha) = (-1)^n sqrt(Gamma(n+alpha+1) / (n! Gamma(alpha+1))) p_n,
    with p_n from the orthonormal recurrence.
    """
    _degree(n, 0)
    p, d, _, logscale = _recurrence(*_laguerre_coeffs(n, alpha), x)
    lognorm = 0.5 * (math.lgamma(n + alpha + 1) - math.lgamma(n + 1) - math.lgamma(alpha + 1))
    sign = (-1) ** n
    return _unscaled("L_n", n, sign * p, sign * d, logscale + lognorm)


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


def _zeros(a, b):
    """Zeros of p_n, n = len(a) - 1: Jacobi-matrix eigenvalues, polished."""
    n = len(a) - 1
    jac = np.diag(a[:n]) + np.diag(b[1:n], 1) + np.diag(b[1:n], -1)
    guess = np.linalg.eigvalsh(jac)
    return np.sort(_polish(lambda t: _recurrence(a, b, t)[:2], guess))


def hermite_zeros(n: int) -> PolyZeros:
    """All n real zeros of H_n, ascending."""
    _degree(n, 1)
    return PolyZeros(HERMITE, n, None, _zeros(*_hermite_coeffs(n)))


def laguerre_zeros(n: int, alpha: float) -> PolyZeros:
    """All n zeros of L_n^(alpha) (alpha > -1), ascending, all positive."""
    _degree(n, 1)
    return PolyZeros(LAGUERRE, n, alpha, _zeros(*_laguerre_coeffs(n, alpha)))


def density_a_exact(n: int, t: float, y):
    """Exact one-point particle density for the beta=2 type-A process.

    sigma_N(y, t) = sum_{k<N} h_k(u)^2 / sqrt(2t),  u = y / sqrt(2t),
    over the orthonormal Hermite functions h_k; by Christoffel-Darboux this
    equals e^{-y^2/2t} / (2^N (N-1)! sqrt(2 pi t))
                    * [H_N(u)^2 - H_{N+1}(u) H_{N-1}(u)].
    Integrates to N over the real line.  Summed as squares along the
    recurrence, so unlike the bracket it has no cancellation.
    """
    _degree(n, 1)
    _time(t)
    y = np.asarray(y, dtype=float)
    u = y / math.sqrt(2 * t)
    _, _, total, logscale = _recurrence(*_hermite_coeffs(n), u, squares=True)
    dens = np.exp(np.log(total) + 2 * logscale - u * u - 0.5 * math.log(2 * math.pi * t))
    return float(dens) if dens.ndim == 0 else dens


def density_b_exact(n: int, nu: float, t: float, y):
    """Exact one-point density for the beta=2 type-B process started at 0.

    sum_{k<N} l_k(u)^2 du/dy,  u = y^2 / 2t, over the orthonormal Laguerre
    functions l_k (parameter nu); by Christoffel-Darboux this equals
    (N!/Gamma(nu+N)) { N [L_N(u)]^2 + L_N L_{N-1} - (N+1) L_{N+1} L_{N-1} }
        * (2/y) u^nu e^{-u}.
    Integrates to N on (0, inf).  Summed as squares, as in `density_a_exact`.
    """
    _degree(n, 1)
    _time(t)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("y > 0 required")
    u = y * y / (2 * t)
    _, _, total, logscale = _recurrence(*_laguerre_coeffs(n, nu), u, squares=True)
    with np.errstate(divide="ignore"):  # y^2 may underflow: log 0 = -inf gives u^nu = 0
        u_nu = nu * np.log(u) if nu else 0.0  # u^0 = 1, also at u = 0
    dens = np.exp(np.log(total) + 2 * logscale + u_nu - u - math.lgamma(nu + 1)) * y / t
    return float(dens) if dens.ndim == 0 else dens
