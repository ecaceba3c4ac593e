"""Intertwining operators on symmetric polynomials, their large-parameter
limits, generalized hypergeometric series of two vector arguments,
generalized Bessel (reflection-symmetrized exponential) kernels, frozen
kernel approximations, the radial transition density, and a Monte Carlo
check of the kernel-reproducing Gaussian integral.

Conventions: the Jack parameter is alpha = 2/beta.  Type-B objects live in
squared variables; a SymPoly returned by a type-B operation with partition
key tau stands for the monomial/Jack polynomial evaluated at
(x_1^2, ..., x_N^2).

Every operation on a root system takes a RootSystemConfig; `hyper_series`
is the generic series of two vector arguments and takes its own
HyperSeriesParams.  Each fact that tells the types apart is stated once: the
monomial-image prefactor in `_image_prefactor`, type B's lower parameter b
in `_lower_param`, the squared kernel variables in `_kernel_shells`, and, in
`rootsys`, the group order |W| (`weyl_order`) and the complement of the root
span (`span_complement`).  Every series term carries the filter weight
c_tau / (c'_tau (N/alpha)_tau [(b)_tau]) of `_tau_weight`, computed once per
(tau, alpha, N, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from . import symfunc
from .rootsys import (
    TYPE_A,
    TYPE_B,
    RootSystemConfig,
    gamma,
    log_selberg_const,
    log_weight,
    rank,
    span_complement,
    weyl_order,
)
from .symfunc import SymPoly, gen_pochhammer, jack_coeffs, multinomial_m, partitions_of


@dataclass(frozen=True)
class HyperSeriesParams:
    alpha: float
    n_vars: int
    max_degree: int = 30
    b: float | None = None  # lower parameter; None selects the 0F0 series

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha > 0 required")
        if self.max_degree < 0:
            raise ValueError("max_degree >= 0 required")


def _fact_partition(lam):
    out = 1
    for p in lam:
        out *= math.factorial(p)
    return out


def _lower_param(cfg):
    """Lower parameter b = beta (nu + N - 1/2)/2 + 1/2 of type B's 0F1
    series; None for type A, whose series is 0F0."""
    if cfg.kind == TYPE_A:
        return None
    return cfg.beta * (cfg.nu + cfg.n - 0.5) / 2.0 + 0.5


# ---------------------------------------------------------------------------
# operators on monomial symmetric polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tau_weight(tau, alpha, n, b):
    """c_tau / c'_tau / ((N/alpha)_tau [(b)_tau]); the bracket only when b is set."""
    c, c_prime = symfunc._hook_products(tau, alpha)
    w = c / c_prime / gen_pochhammer(n / alpha, tau, alpha)
    return w if b is None else w / gen_pochhammer(b, tau, alpha)


def _image_prefactor(cfg, lam):
    """lam! M(lam,N) for type A; (2 lam)! M(lam,N) / 2^{2|lam|} for type B,
    whose image lives in squared variables."""
    if cfg.kind == TYPE_A:
        return _fact_partition(lam) * multinomial_m(lam, cfg.n)
    return _fact_partition(tuple(2 * p for p in lam)) * multinomial_m(lam, cfg.n) / 4.0 ** sum(lam)


def v_on_monomial(cfg: RootSystemConfig, lam) -> SymPoly:
    """Intertwined image of m_lambda in the Jack(2/beta) basis:

    coefficient on P_tau: pref(lam) (c_tau/c'_tau) u_{tau,lam}(alpha)
                          / ((beta N / 2)_tau [(b)_tau]),   alpha = 2/beta,
    summed over |tau| = |lam|, l(tau) <= N, with pref = _image_prefactor
    and b = _lower_param (type B only).
    """
    lam = tuple(lam)
    n, alpha, b = cfg.n, 2.0 / cfg.beta, _lower_param(cfg)
    pref = _image_prefactor(cfg, lam)
    coeffs = {}
    for tau in partitions_of(sum(lam), n):
        u = jack_coeffs(tau, alpha, n).coeffs.get(lam, 0.0)
        if u != 0.0:
            coeffs[tau] = pref * _tau_weight(tau, alpha, n, b) * u
    return SymPoly("jack", coeffs, n, alpha=alpha)


def _power_sum_expansion(k: int, n_vars: int, scale: float) -> dict:
    """Monomial coefficients of scale * (x_1 + ... + x_N)^k."""
    out = {}
    for tau in partitions_of(k, n_vars):
        out[tau] = scale * math.factorial(k) / _fact_partition(tau)
    return out


def v_limit_beta(cfg: RootSystemConfig, lam) -> SymPoly:
    """Large-beta limit of the image, monomial basis; cfg.beta is ignored.

    Only one-row tau survive, with filter product 1/(N^k k!), k = |lam|, so
    the limit is pref(lam) / (lam! N^k) (sum x_j)^k for type A.  Type B's
    image falls like beta^{-k} through (b)_tau ~ (beta (nu+N-1/2)/2)^k; the
    limit of beta^k times it carries the extra factor (2/(nu+N-1/2))^k.
    """
    lam = tuple(lam)
    n, k = cfg.n, sum(lam)
    scale = _image_prefactor(cfg, lam)
    den = _fact_partition(lam) * float(n) ** k
    if cfg.kind == TYPE_B:
        scale *= 2.0**k
        den *= (cfg.nu + n - 0.5) ** k
    return SymPoly("monomial", _power_sum_expansion(k, n, scale / den), n)


def v_limit_nu(cfg: RootSystemConfig, lam) -> SymPoly:
    """Large-nu limit of nu^{|lam|} times the type-B image; cfg.nu is ignored.

    ((2 lam)!/lam!) times the type-A image evaluated at u = x^2/(2 beta);
    by homogeneity that is a uniform coefficient rescale by (2 beta)^{-|lam|}.
    """
    if cfg.kind != TYPE_B:
        raise ValueError("the nu limit applies to type B only")
    lam = tuple(lam)
    k = sum(lam)
    base = symfunc.jack_to_monomial(v_on_monomial(replace(cfg, kind=TYPE_A, nu=None), lam))
    factor = _fact_partition(tuple(2 * p for p in lam)) / _fact_partition(lam)
    factor /= (2.0 * cfg.beta) ** k
    return SymPoly(
        "monomial", {mu: factor * c for mu, c in base.coeffs.items()}, cfg.n
    )


def linear_intertwiner(cfg: RootSystemConfig) -> np.ndarray:
    """Action on linear polynomials as an N x N matrix.

    M = (1/(1 + beta gamma / d)) [ I + (beta gamma / d) P ], with d the root
    span dimension and P = rootsys.span_complement(cfg) the orthogonal
    projector onto the complement of the root span.
    """
    bg_d = cfg.beta * gamma(cfg) / rank(cfg)
    return (np.eye(cfg.n) + bg_d * span_complement(cfg)) / (1.0 + bg_d)


# ---------------------------------------------------------------------------
# hypergeometric series and kernels
# ---------------------------------------------------------------------------

def _series_shells(params: HyperSeriesParams, x, ybatch):
    """Per-degree shell values of the series, vectorized over ybatch (..., N).

    shell_d = sum over |tau| = d of
        (c_tau / c'_tau) P_tau(x) P_tau(y) / ((N/alpha)_tau [(b)_tau]).
    x is one point (N,) or a stack of k points (k, N); the shells have shape
    (D+1,) + ybatch.shape[:-1], with a k axis after the degree axis for a
    stack.  Each shell makes one pass on each side: m_mu(x) is evaluated once
    per partition mu of d, every P_tau(x) is formed from those values, and
    the tau sum is collapsed to monomial coefficients in y (one per x point),
    so each m_mu(y) is evaluated once for all x points.
    """
    alpha, n, b = params.alpha, params.n_vars, params.b
    x = np.asarray(x, dtype=float)
    ybatch = np.asarray(ybatch, dtype=float)
    shells = np.zeros((params.max_degree + 1,) + x.shape[:-1] + ybatch.shape[:-1])
    for d in range(params.max_degree + 1):
        taus = partitions_of(d, n)
        m_x = {mu: symfunc.monomial_eval(mu, x) for mu in taus}
        mu_coeffs: dict = {}
        for tau in taus:
            jack = jack_coeffs(tau, alpha, n)
            p_x = sum(c * m_x[mu] for mu, c in jack.coeffs.items())
            w = _tau_weight(tau, alpha, n, b) * p_x
            if not np.any(w):
                continue
            for mu, c in jack.coeffs.items():
                mu_coeffs[mu] = mu_coeffs.get(mu, 0.0) + w * c
        for mu, c in mu_coeffs.items():
            shells[d] += np.multiply.outer(c, symfunc.monomial_eval(mu, ybatch))
    return shells


def hyper_series(params: HyperSeriesParams, x, y):
    """Truncated series value and the last-shell magnitude diagnostic.

    0F1 when params.b is set, 0F0 otherwise; callers should treat a last
    shell above ~1e-8 of the partial sum as unconverged.
    """
    shells = _series_shells(params, x, np.asarray(y, dtype=float))
    return float(shells.sum()), float(abs(shells[-1]))


def _kernel_shells(cfg: RootSystemConfig, x, y, max_degree: int):
    """(|W|, series shells) of bessel_kernel(cfg, x, y); type B's series
    runs in the squared variables x^2/2, y^2/2."""
    params = HyperSeriesParams(alpha=2.0 / cfg.beta, n_vars=cfg.n,
                               max_degree=max_degree, b=_lower_param(cfg))
    if cfg.kind == TYPE_B:
        x, y = x * x / 2.0, y * y / 2.0
    return weyl_order(cfg), _series_shells(params, x, y)


def bessel_kernel(cfg: RootSystemConfig, x, y, max_degree: int = 30):
    """Reflection-symmetrized exponential kernel, including the group-order
    prefactor.

    Type A: N! 0F0^(2/beta)(x, y); type B: 2^N N! 0F1(b; x^2/2, y^2/2) with
    b = beta (nu + N - 1/2)/2 + 1/2.  y may be batched with shape (..., N).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref, shells = _kernel_shells(cfg, x, y, max_degree)
    out = pref * shells.sum(axis=0)
    return float(out) if out.ndim == 0 else out


def frozen_kernel(cfg: RootSystemConfig, x, y, corrected: bool = False) -> float:
    """Large-beta closed form of bessel_kernel(cfg, sqrt(beta) x, y).

    With P = rootsys.span_complement(cfg) and x_r = x - P x the part of x in
    the root span,

        |W| exp( sqrt(beta) <P x, P y> + |x_r|^2 |y_r|^2 / (2 (gamma + eps)) ).

    The exact limit takes eps = 0; corrected=True takes the smooth
    quadratic-root form

        eps_beta = -gamma/2 + sqrt(gamma^2/4 + |x_r|^2 |y_r|^2 / beta),

    which interpolates the small-argument |x_r|^2|y_r|^2/(beta gamma) and
    large-argument |x_r||y_r|/sqrt(beta) regimes.  The quadratic term is 0
    when x_r or y_r is 0, which covers type A at N = 1 (no roots).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    proj = span_complement(cfg)
    px, py = proj @ x, proj @ y
    xr, yr = x - px, y - py
    r2 = float(xr @ xr) * float(yr @ yr)
    quad = 0.0
    if r2 > 0.0:
        g = gamma(cfg)
        eps = 0.0
        if corrected:
            eps = -g / 2.0 + math.sqrt(g * g / 4.0 + r2 / cfg.beta)
        quad = r2 / (2 * (g + eps))
    return weyl_order(cfg) * math.exp(math.sqrt(cfg.beta) * float(px @ py) + quad)


@dataclass
class TransitionLogDensity:
    value: float
    last_shell_ratio: float
    converged: bool


def radial_transition_logdensity(cfg: RootSystemConfig, t: float, y, x,
                                 max_degree: int = 30) -> TransitionLogDensity:
    """Log transition density of the chamber-radial process from x to y in
    time t:

    log w(y/sqrt t) - (|y|^2+|x|^2)/2t - log c_beta - (N/2) log t
        + log( symmetrized kernel at (x, y/t) ).
    """
    if t <= 0:
        raise ValueError("t > 0 required")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref, shells = _kernel_shells(cfg, x, y / t, max_degree)
    total = float(shells.sum())
    kern = pref * total
    # truncation diagnostic: relative size of the top degree shell
    ratio = abs(float(shells[-1])) / max(abs(total), np.finfo(float).tiny)
    value = (
        log_weight(cfg, y / math.sqrt(t))
        - (float(y @ y) + float(x @ x)) / (2 * t)
        - log_selberg_const(cfg)
        - cfg.n / 2.0 * math.log(t)
        + math.log(kern)
    )
    return TransitionLogDensity(value=value, last_shell_ratio=ratio,
                                converged=ratio <= 1e-8)


# ---------------------------------------------------------------------------
# Gaussian-weight sampling and the kernel-reproducing Monte Carlo check
# ---------------------------------------------------------------------------

#: float64 entries in one block of dense matrices handed to eigvalsh (2 MB)
_EIG_BLOCK_ENTRIES = 1 << 18


def sample_gaussian_weight(cfg: RootSystemConfig, n_samples: int, seed: int) -> np.ndarray:
    """Exact samples of e^{-|x|^2/2} w_beta(x) / c_beta folded into the Weyl
    chamber (each row ascending), from the Dumitriu-Edelman beta-ensembles
    (J. Math. Phys. 43 (2002) 5830), all through one batched eigvalsh:

    Type A: eigenvalues of the tridiagonal Hermite model, diagonal N(0, 1),
    off-diagonal k = 1..N-1 sqrt(chi^2_{beta(N-k)} / 2).
    Type B: square roots of the eigenvalues of B B^T, B lower bidiagonal with
    diagonal chi_{2a - beta i} (i = 0..N-1, a = _lower_param(cfg)) and
    subdiagonal k = 1..N-1 chi_{beta(N-k)} (the Laguerre model in x^2).

    The symmetrized kernel is W-invariant in each argument, so kernel
    expectations such as kernel_reproducing_check are exact under the
    folded law.
    """
    n = cfg.n
    rng = Generator(Philox(key=int(seed)))
    df = cfg.beta * np.arange(n - 1, 0, -1)
    if cfg.kind == TYPE_A:
        diag = rng.standard_normal((n_samples, n))
        off = np.sqrt(rng.chisquare(df, size=(n_samples, n - 1)) / 2.0)
    else:
        d = np.sqrt(rng.chisquare(2.0 * _lower_param(cfg) - cfg.beta * np.arange(n),
                                  size=(n_samples, n)))
        e = np.sqrt(rng.chisquare(df, size=(n_samples, n - 1)))
        # B B^T is tridiagonal: d_i^2 + e_i^2 on the diagonal, e_{i+1} d_i below
        diag = d * d
        diag[:, 1:] += e * e
        off = e * d[:, :-1]
    # eigvalsh reads only the lower triangle; one reused block of dense
    # matrices bounds the memory, and the values do not depend on the blocking
    rows = max(1, _EIG_BLOCK_ENTRIES // (n * n))
    t = np.zeros((min(rows, n_samples), n, n))
    idx = np.arange(n)
    lam = np.empty((n_samples, n))
    for lo in range(0, n_samples, rows):
        hi = min(lo + rows, n_samples)
        t[:hi - lo, idx, idx] = diag[lo:hi]
        t[:hi - lo, idx[1:], idx[:-1]] = off[lo:hi]
        lam[lo:hi] = np.linalg.eigvalsh(t[:hi - lo])
    return lam if cfg.kind == TYPE_A else np.sqrt(np.maximum(lam, 0.0, out=lam), out=lam)


def kernel_reproducing_check(cfg: RootSystemConfig, y, z, n_samples: int,
                             max_degree: int = 30, seed: int = 0):
    """Monte Carlo check of the Gaussian reproducing identity for the
    symmetrized kernel K(x, y) = bessel_kernel(cfg, x, y):

        (1/c_beta) int K(x,y) K(x,z) e^{-|x|^2/2} w(x) dx
            = |W| e^{(|y|^2+|z|^2)/2} K(y, z).

    K(., y) and K(., z) come from one series pass over each chunk of samples.
    Returns (lhs_estimate, rhs_value, std_error).
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    xs = sample_gaussian_weight(cfg, n_samples, seed)
    yz = np.stack([y, z])
    vals = np.empty(n_samples)
    step = 1 << 16
    for lo in range(0, n_samples, step):
        chunk = xs[lo:lo + step]
        pref, shells = _kernel_shells(cfg, yz, chunk, max_degree)
        k_y, k_z = pref * shells.sum(axis=0)
        vals[lo:lo + len(chunk)] = k_y * k_z
    lhs = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    rhs = (
        weyl_order(cfg)
        * math.exp((float(y @ y) + float(z @ z)) / 2.0)
        * bessel_kernel(cfg, y, z, max_degree=max_degree)
    )
    return lhs, rhs, se
