"""Log-gas potentials, Fekete-point (peak set) solver, steady-state density,
Gaussian large-beta approximation, the stationary Fokker–Planck residual,
and the gradient identity connecting the potential to the leading
Calogero–Moser-type term.

Both types share one potential, a sum over the positive roots alpha with
multiplicity kappa (`rootsys.root_table`):

    F(v) = |v|^2/2 - sum_alpha kappa_alpha log|alpha . v|.

Type A has the roots e_j - e_i, so F = |v|^2/2 - sum_{i<j} log|v_j - v_i|.
Type B adds e_j + e_i and the coordinate roots e_j with kappa = nu + 1/2, so
its pair term -sum_{i<j} log|v_j^2 - v_i^2| splits into the e_j - e_i and
e_j + e_i roots and F = |v|^2/2 - (2 nu + 1)/2 sum log|v_i| - sum_{i<j}
log|v_j^2 - v_i^2|.  F is strictly convex on the chamber; the unique
interior minimizer is the Hermite zero set (A) or the elementwise square
root of the Laguerre zero set with parameter nu - 1/2 (B).  The chamber
gate (every alpha . v > 0, `rootsys.chamber_dot`) hands the value it guards
the same alpha . v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rootsys import (
    TYPE_A,
    RootSystemConfig,
    _point,
    chamber_dot,
    freezing_constant,
    gamma,
    root_table,
    weyl_orbit,
    weyl_order,
)


@dataclass
class PotentialReport:
    minimizer: np.ndarray
    potential_at_min: float
    freezing_constant: float
    #: the potential's Hessian at the minimizer, from the last Newton iteration
    hessian: np.ndarray
    identity_residuals: dict = field(default_factory=dict)
    newton_iterations: int = 0
    #: Newton decrement g^T H^-1 g at the minimizer, the solver's error measure
    newton_decrement: float = 0.0
    #: potential evaluations, line-search trials included
    potential_evaluations: int = 0


def potential(cfg: RootSystemConfig, v):
    """(value, gradient, hessian) of the log-gas potential at interior v.

    With a = alpha . v over the root table: gradient v - sum kappa alpha / a
    and Hessian I + sum kappa alpha alpha^T / a^2.
    """
    v = np.asarray(v, dtype=float)
    a = chamber_dot(cfg, v)
    t = root_table(cfg)
    g = t.kappa / a
    hess = t.outer(g / a)
    hess.flat[::t.n + 1] += 1.0
    return _value(t, v, a), v - t.spread(g), hess


def _value(t, v, a):
    """F(v) from a = alpha . v through |a|: reflection invariant, +inf on a wall."""
    with np.errstate(divide="ignore"):
        return 0.5 * float(v @ v) - float(t.kappa @ np.log(np.abs(a)))


def peak_set(cfg: RootSystemConfig) -> PotentialReport:
    """Damped-Newton minimization of the potential from the Weyl vector
    sum kappa alpha (2 rho), scaled to |v|^2 = gamma as the minimizer is.

    Stops when the Newton decrement g^T H^-1 g falls to (64 eps)^2 times
    the size of F's terms, |v|^2/2 + sum kappa |log alpha.v|, or, once
    below 1e-6 of that size, stops falling: the rounding floor.  The
    line search compares values with a slack of 64 eps times that size.
    The report carries the exact freezing identities |F(v*) - K| and
    | |v*|^2 - gamma | as residuals, and the final decrement.
    """
    t = root_table(cfg)
    w = t.spread(t.kappa)  # 2 rho: alpha . w > 0 for every positive root
    ww = float(w @ w)
    v = w * math.sqrt(gamma(cfg) / ww) if ww else w  # |v|^2 = gamma; 0 at A1
    a = t.dot(v)  # alpha . v at the current point, carried from its line search
    tol = 64 * np.finfo(float).eps
    evals = 0
    prev = math.inf
    for iters in range(1, 101):
        val, grad, hess = potential(cfg, v)
        evals += 1
        step = np.linalg.solve(hess, grad)
        dec = float(grad @ step)
        size = max(1.0, 0.5 * float(v @ v) + float(t.kappa @ np.abs(np.log(a))))
        if dec <= tol**2 * size or (dec <= 1e-6 * size and dec >= prev):
            break
        prev = dec
        h = 1.0
        for _ in range(60):
            cand = v - h * step
            a = t.dot(cand)
            if np.all(a > 0):
                evals += 1
                if _value(t, cand, a) <= val - 0.25 * h * dec + tol * size:
                    break
            h *= 0.5
        else:
            raise RuntimeError("Newton line search failed")
        v = cand
    else:
        raise RuntimeError("Newton did not converge within 100 iterations")
    k = freezing_constant(cfg)
    report = PotentialReport(
        minimizer=v,
        potential_at_min=val,
        freezing_constant=k,
        newton_iterations=iters,
        newton_decrement=dec,
        potential_evaluations=evals,
        hessian=hess,
    )
    report.identity_residuals = {
        "potential_minus_constant": abs(val - k),
        "sq_norm_minus_gamma": abs(float(v @ v) - gamma(cfg)),
        "gradient_norm": float(np.linalg.norm(grad)),
    }
    return report


def potential_b_tilde(v):
    """Single-particle reduced potential for type B: (value, gradient).

    F~(v) = |v|^2/2 - (1/2) sum log v_i^2 - N/2; minimum 0 at v = (1,...,1).
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("all coordinates must be positive")
    n = len(v)
    val = 0.5 * float(v @ v) - float(np.sum(np.log(v))) - n / 2.0
    grad = v - 1.0 / v
    return val, grad


def steady_state_logdensity(cfg: RootSystemConfig, v) -> float:
    """Log of the scaled steady-state density (large-beta normalization).

    Type A: log[N! (beta/2pi)^{N/2}] - beta (F(v) - K);
    type B: log[N! (2 beta)^{N/2}] - beta (F(v) - K).
    Defined by reflection symmetry on all of R^N (F is evaluated through
    |alpha . v|, as the FKE reflections need); -inf on chamber walls.
    """
    v = _point(cfg, v)
    n, b = cfg.n, cfg.beta
    pref = math.lgamma(n + 1) + n / 2.0 * math.log(
        b / (2 * math.pi) if cfg.kind == TYPE_A else 2 * b)
    t = root_table(cfg)
    return pref - b * (_value(t, v, t.dot(v)) - freezing_constant(cfg))


_PEAK_CACHE: dict = {}


def _cached_peak(cfg):
    """The peak set s of cfg, the potential's Hessian H at s and log det H,
    computed once for all configs that differ only in beta: none of them
    depends on beta."""
    key = replace(cfg, beta=1.0)
    if key not in _PEAK_CACHE:
        rep = peak_set(cfg)
        s, hess = rep.minimizer, rep.hessian
        sign, logdet = np.linalg.slogdet(hess)
        if sign <= 0:
            raise ArithmeticError("Hessian not positive definite at the peak set")
        _PEAK_CACHE[key] = s, hess, logdet
    return _PEAK_CACHE[key]


def gaussian_steady_approx(cfg: RootSystemConfig, v) -> float:
    """Sum-of-Gaussians approximation of the steady state, valid at large beta.

    (beta^{N/2} sqrt(det H) / ((2 pi)^{N/2} |W|))
        * sum over the reflection orbit of the peak set s of
          exp(-beta (v - rho s)^T H (v - rho s) / 2),
    with H the potential Hessian at s.
    """
    v = _point(cfg, v)
    n, b = cfg.n, cfg.beta
    s, hess, logdet = _cached_peak(cfg)
    orbit = weyl_orbit(cfg, s)
    diffs = v[None, :] - orbit
    quad = np.einsum("ki,ij,kj->k", diffs, hess, diffs)
    pref = (
        n / 2.0 * math.log(b)
        + 0.5 * logdet
        - n / 2.0 * math.log(2 * math.pi)
        - math.log(weyl_order(cfg))
    )
    return float(np.exp(pref) * np.sum(np.exp(-b * quad / 2.0)))


@dataclass
class FkeResidual:
    value: float
    term_scale: float


def fke_residual(cfg: RootSystemConfig, logdensity_fn, v) -> FkeResidual:
    """Residual of the stationary scaled Fokker–Planck equation at v.

    For a time-independent density f the right-hand side

        (1/beta) Lap f
        - sum over positive roots alpha of kappa(alpha) *
            [ (alpha . grad f)/(alpha . v)
              - (|alpha|^2/2) (f(v) + f(sigma_alpha v)) / (alpha . v)^2 ]
        + v . grad f + N f

    must vanish; it is evaluated with central differences of step
    h = 1e-4 * max(1, |v|).  Returns the residual together with the
    magnitude of the largest constituent term, which sets the natural
    relative scale.
    """
    v = np.asarray(v, dtype=float)
    a = chamber_dot(cfg, v)
    n, t = cfg.n, root_table(cfg)
    h = 1e-4 * max(1.0, float(np.linalg.norm(v)))
    # boundary margin: all stencil points must stay off the chamber walls
    if np.any(a <= 2 * h):
        raise ValueError("insufficient margin to the chamber boundary")

    def f(pt):
        return math.exp(logdensity_fn(pt))  # 0 where the log-density is -inf

    f0 = f(v)
    eye = np.eye(n)
    fp = np.array([f(v + d) for d in h * eye])
    fm = np.array([f(v - d) for d in h * eye])
    grad = (fp - fm) / (2 * h)
    lap = sum((fp + fm - 2 * f0) / h**2)  # in coordinate order, from 0
    refl_f = np.array([f(r) for r in t.reflect(v)])
    t1 = -t.kappa * t.dot(grad) / a
    t2 = t.kappa * t.norm2 / 2.0 * (f0 + refl_f) / a**2
    terms = [lap / cfg.beta, float(v @ grad), n * f0, *t1, *t2]
    return FkeResidual(value=float(sum(terms)), term_scale=float(max(map(abs, terms))))


def cm_gradient_identity_residual(cfg: RootSystemConfig, v) -> float:
    """|  |grad F(v)|^2  -  ( |v|^2 - 2 gamma + sum |alpha|^2 kappa^2/(alpha.v)^2 ) |.

    The left side comes from the potential gradient, the right side from
    the root table; the identity ties the log-gas potential to
    the leading inverse-square interaction term of the associated
    Calogero–Moser-type Hamiltonian.
    """
    v = np.asarray(v, dtype=float)
    _, grad, _ = potential(cfg, v)
    t = root_table(cfg)
    rhs = float(v @ v) - 2.0 * gamma(cfg)
    rhs += float(np.sum(t.norm2 * t.kappa**2 / t.dot(v) ** 2))
    return abs(float(grad @ grad) - rhs)
