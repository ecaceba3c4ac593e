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
in `_lower_param`, the squared kernel variables in `_kernel_series`, and, in
`rootsys`, the group order |W| (`weyl_order`) and the complement of the root
span (`span_complement`).  Every series term carries the filter weight
c_tau / (c'_tau (N/alpha)_tau [(b)_tau]) of `_tau_weight`, computed once per
(tau, alpha, N, b).  Every kernel, transition and reproducing check sums its
series in `_series_shells`: monomial coefficients from the x side, two
products per degree with the cached Jack triangle (`_jack_triangle`), then a
nested Horner evaluation over the exponent vectors on blocks of y points,
whose buffers (`_SERIES_BLOCK_ENTRIES`) are the series' one memory bound.
The series takes one x point; it also hands back its top shell, the
truncation measure, as a monomial-basis SymPoly from the same coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.random import Generator, Philox

from . import symfunc
from .rootsys import (
    TYPE_A,
    TYPE_B,
    RootSystemConfig,
    _point,
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
        if not 0 < self.alpha < math.inf:
            raise ValueError("0 < alpha < inf required")
        if self.b is not None and not math.isfinite(self.b):
            raise ValueError("a finite b required")
        if not isinstance(self.n_vars, Integral) or self.n_vars < 1:
            raise ValueError("n_vars must be an integer >= 1")
        if not isinstance(self.max_degree, Integral) or self.max_degree < 0:
            raise ValueError("max_degree must be an integer >= 0")
        if self.b is not None:  # a zero factor of (b)_tau, formed as gen_pochhammer forms it,
            # in a row i <= n_vars at a k >= 0: tau_1..tau_i > k needs |tau| >= i(k+1)
            for i in range(1, min(self.n_vars, self.max_degree) + 1):
                for k in range(self.max_degree // i):
                    if self.b - (i - 1) / self.alpha + k == 0.0:
                        raise ValueError(f"b = {self.b} is a pole of the series: "
                                         f"b - (i - 1)/alpha + k = 0 at row i = {i}, k = {k}")


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
    whose image lives in squared variables.  lam must be a partition."""
    lam = symfunc._check_partition(lam)
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
    projector onto the complement of the root span.  With no roots (type A,
    N = 1, d = 0) beta gamma / d is taken as 0, and M is the identity.
    """
    d = rank(cfg)
    bg_d = cfg.beta * gamma(cfg) / d if d else 0.0
    return (np.eye(cfg.n) + bg_d * span_complement(cfg)) / (1.0 + bg_d)


# ---------------------------------------------------------------------------
# hypergeometric series and kernels
# ---------------------------------------------------------------------------

#: float64 entries in the Horner buffers of one block of y points (1 MB)
_SERIES_BLOCK_ENTRIES = 1 << 17


@lru_cache(maxsize=None)
def _jack_triangle(d, alpha, n):
    """The Jack triangle U_d, read-only: row tau, column mu, both over
    partitions_of(d, n), entry u_{tau,mu} of jack_coeffs(tau, alpha, n)."""
    taus = partitions_of(d, n)
    u = np.array([[jack_coeffs(tau, alpha, n).coeffs.get(mu, 0.0) for mu in taus] for tau in taus])
    u.flags.writeable = False
    return u


@lru_cache(maxsize=None)
def _simplex_keys(n, top):
    """The exponent vectors a of n variables with |a| <= top as nested lists:
    entry [a_1]...[a_n] is the partition of a's sorted nonzero parts, the key
    of the monomial coefficient that a's term carries (the tuple cached by
    symfunc._partition_keys, so the table holds no copies)."""
    def key(a):
        return symfunc._partition_keys(sum(a), n)[tuple(sorted(filter(None, a), reverse=True))]

    def build(prefix, budget):
        if len(prefix) == n - 1:
            return [key(prefix + (e,)) for e in range(budget + 1)]
        return [build(prefix + (e,), budget - e) for e in range(budget + 1)]

    return build((), top)


def _lead(keys):
    """The key at exponents (0, ..., 0) of a nested key list."""
    while isinstance(keys, list):
        keys = keys[0]
    return keys


def _horner(keys, coeffs, budget, ys, bufs, level=0):
    """Sum over the exponent vectors a of the variables level.. with |a| <=
    budget of c_a y^a, c_a = coeffs[keys[a]], by nested Horner
    steps in y_level, into bufs[level]: each coefficient costs one in-place
    multiply and one add."""
    acc, y = bufs[level], ys[level]
    acc[...] = coeffs[_lead(keys[budget])]
    for e in range(budget - 1, -1, -1):
        acc *= y
        if level == len(ys) - 1:
            acc += coeffs[keys[e]]
        else:
            acc += _horner(keys[e], coeffs, budget - e, ys, bufs, level + 1)
    return acc


def _series_shells(params: HyperSeriesParams, x, ybatch):
    """Sum of the series at one x point (N,), vectorized over ybatch (..., N),
    and its top shell as a polynomial in y.

    shell_d = sum over |tau| = d of
        (c_tau / c'_tau) P_tau(x) P_tau(y) / ((N/alpha)_tau [(b)_tau]).
    The sum shell_0 + ... + shell_D has shape ybatch.shape[:-1].
    The x side runs first, degree by degree: with m the vector of m_mu(x)
    over the partitions mu of d (one monomial_eval call each), U the Jack
    triangle (`_jack_triangle`) and w the `_tau_weight`s, the monomial
    coefficients in y are c = U^T (w * (U m)), since U m lists the P_tau(x).
    The y side is then the polynomial sum_a c_sort(a) y^a over the exponent
    vectors a with |a| <= D, evaluated by nested Horner steps over the
    variables (`_horner`), with no table of powers.  The points go in
    blocks: the y columns and one buffer per variable after the first, all
    in one reused buffer of at most _SERIES_BLOCK_ENTRIES entries, 2n - 1
    per point; the sum is written straight into the output.  Each point sees
    the same operations alone and in a batch, so it gets the same bits.
    Returns (sum, top): top is the monomial-basis SymPoly of shell_D, the
    sum of c_mu m_mu over the partitions mu of D.
    An x of any shape but (n_vars,), a last axis of ybatch other than
    n_vars, or a non-finite coordinate raises ValueError.
    """
    alpha, n, b, top = params.alpha, params.n_vars, params.b, params.max_degree
    x = np.asarray(x, dtype=float)
    ybatch = np.asarray(ybatch, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, but the series takes one x point of shape "
                         f"({n},), in n_vars = {n} variables")
    if ybatch.shape[-1:] != (n,):
        raise ValueError(f"y has shape {ybatch.shape}, but the series is in n_vars = {n} "
                         f"variables: its last axis must have length {n}")
    for name, pts in (("x", x), ("y", ybatch)):
        if not np.isfinite(pts).all():
            raise ValueError(f"{name} has a non-finite coordinate: the series sums at "
                             "finite points only")
    coeffs: dict = {}
    for d in range(top + 1):
        taus = partitions_of(d, n)
        u = _jack_triangle(d, alpha, n)
        w = np.array([_tau_weight(tau, alpha, n, b) for tau in taus])
        m_x = np.array([symfunc.monomial_eval(mu, x) for mu in taus])
        shell = dict(zip(taus, (u.T @ (w * (u @ m_x))).tolist()))
        coeffs.update(shell)
    keys = _simplex_keys(n, top)
    ys = ybatch.reshape(-1, n)
    m = len(ys)
    out = np.empty(m)
    per_row = 2 * n - 1  # y columns, level buffers
    rows = max(1, _SERIES_BLOCK_ENTRIES // per_row)
    buf = np.empty(per_row * min(rows, m))
    for lo in range(0, m, rows):
        h = min(rows, m - lo)
        cols = buf[:n * h].reshape(n, h)
        np.copyto(cols, ys[lo:lo + h].T)
        levels = list(buf[n * h:per_row * h].reshape(n - 1, h))
        _horner(keys, coeffs, top, cols, [out[lo:lo + h]] + levels)
    return out.reshape(ybatch.shape[:-1]), SymPoly("monomial", shell, n)


def hyper_series(params: HyperSeriesParams, x, y):
    """Truncated series value and the last-shell magnitude diagnostic.

    0F1 when params.b is set, 0F0 otherwise, at one point x and one point y,
    each of shape (n_vars,); the last shell is the series' own top shell
    evaluated at y.  Callers should treat a last shell
    above ~1e-8 of the partial sum as unconverged.  It is an estimate, not a
    bound: where x or y is a Weyl image of its own negative, every odd shell
    is 0.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError(f"hyper_series takes one x point and one y point: x has shape "
                         f"{x.shape} and y has shape {y.shape}, in n_vars = {params.n_vars} "
                         "variables")
    total, top = _series_shells(params, x, y)
    return float(total), abs(symfunc.sympoly_eval(top, y))


def _kernel_series(cfg: RootSystemConfig, x, y, max_degree: int):
    """(params, x, y) of the series that bessel_kernel(cfg, x, y) sums and
    multiplies by |W|; type B's series runs in the squared variables x^2/2,
    y^2/2."""
    params = HyperSeriesParams(alpha=2.0 / cfg.beta, n_vars=cfg.n,
                               max_degree=max_degree, b=_lower_param(cfg))
    if cfg.kind == TYPE_B:
        with np.errstate(over="ignore"):  # refused below, where the input was finite
            sq = x * x / 2.0, y * y / 2.0
        for name, v, v2 in zip("xy", (x, y), sq):
            if np.isfinite(v).all() and not np.isfinite(v2).all():
                raise ValueError(f"{name} has a coordinate whose squared variable {name}^2/2 "
                                 "overflows: type B's series runs in x^2/2 and y^2/2")
        x, y = sq
    return params, x, y


def bessel_kernel(cfg: RootSystemConfig, x, y, max_degree: int = 30):
    """Reflection-symmetrized exponential kernel, including the group-order
    prefactor.

    Type A: N! 0F0^(2/beta)(x, y); type B: 2^N N! 0F1(b; x^2/2, y^2/2) with
    b = beta (nu + N - 1/2)/2 + 1/2.  x is one point (N,); y may be batched
    with shape (..., N).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total, _ = _series_shells(*_kernel_series(cfg, x, y, max_degree))
    out = weyl_order(cfg) * total
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
    x, y = _point(cfg, x), _point(cfg, y)
    for name, v in (("x", x), ("y", y)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has a non-finite coordinate: the closed form takes "
                             "finite points only")
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

    x and y are single points of the system (`rootsys._point`).  A t outside
    (0, inf) raises ValueError; a truncated series that does not sum to a
    positive value has no logarithm and raises ArithmeticError.
    last_shell_ratio, the series' top shell at y over the sum, estimates
    the truncation error; it does not bound it.
    At an odd max_degree it reads 0 where x or y is a Weyl image of its own
    negative (A3 beta=2, x = (-1, 0, 1), y = (-2, 0.5, 3), t = 0.5, degree 5:
    converged, and off by 1.33).
    """
    if not 0 < t < math.inf:
        raise ValueError(f"need 0 < t < inf, got t = {t}")
    x, y = _point(cfg, x), _point(cfg, y)
    params, xs, ys = _kernel_series(cfg, x, y / t, max_degree)
    total, top = _series_shells(params, xs, ys)
    total = float(total)
    kern = weyl_order(cfg) * total
    # truncation diagnostic: relative size of the top degree shell
    ratio = abs(symfunc.sympoly_eval(top, ys)) / max(abs(total), np.finfo(float).tiny)
    if not kern > 0:
        raise ArithmeticError(f"the kernel series truncated at max_degree = {max_degree} sums "
                              f"to {total}, not a positive value (last-shell ratio {ratio:.3g})")
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
    if not isinstance(n_samples, Integral) or n_samples < 0:
        raise ValueError(f"n_samples = {n_samples}: the sampler needs an integer count "
                         "of at least 0 samples")
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

    K(., y) and K(., z) are two bessel_kernel calls on the same samples.
    Returns (lhs_estimate, rhs_value, std_error); n_samples must be an integer >= 2.
    """
    if not isinstance(n_samples, Integral) or n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}: the standard error needs an integer count "
                         "of at least 2 samples")
    y, z = _point(cfg, y), _point(cfg, z)
    xs = sample_gaussian_weight(cfg, n_samples, seed)
    vals = bessel_kernel(cfg, y, xs, max_degree)
    vals *= bessel_kernel(cfg, z, xs, max_degree)
    lhs = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    rhs = (
        weyl_order(cfg)
        * math.exp((float(y @ y) + float(z @ z)) / 2.0)
        * bessel_kernel(cfg, y, z, max_degree=max_degree)
    )
    return lhs, rhs, se
