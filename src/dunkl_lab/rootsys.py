"""Root-system data for the two particle systems.

Type A describes N interacting Brownian motions (pairwise log repulsion,
Weyl chamber x_1 < ... < x_N).  Type B describes N interacting Bessel
processes (additional repulsion from the origin and from mirror images,
chamber 0 < x_1 < ... < x_N).  Everything downstream — SDE drifts,
log-gas potentials, series kernels — is parameterized by the config
defined here.

`root_table` lists the positive roots with their multiplicities as index
arrays, so a sum over roots is `RootTable.dot` or one of its transposes
(`spread`, `outer`); no dense root matrix is built.  Type B's pair factor
log|x_j^2 - x_i^2| is the sum of two roots, e_j - e_i and e_j + e_i.
The chamber is {x : alpha . x > 0 for every positive root alpha}: the
chamber test, the chamber gate `chamber_dot` and the log weight read alpha . x
from `RootTable.dot`.  `_point` is the one length check of a single point: a
float vector of shape (N,), or ValueError.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

TYPE_A = "A"
TYPE_B = "B"

#: largest N whose reflection orbit weyl_orbit enumerates
_WEYL_CAP = {TYPE_A: 8, TYPE_B: 6}


@dataclass(frozen=True)
class RootSystemConfig:
    """Immutable description of one particle system.

    kind  -- TYPE_A or TYPE_B
    n     -- particle count N >= 1
    beta  -- inverse temperature (0 < beta < inf for A, 1 <= beta < inf for B)
    nu    -- Bessel index (type B only, 0 <= nu < inf)
    """

    kind: str
    n: int
    beta: float
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in (TYPE_A, TYPE_B):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not isinstance(self.n, Integral) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.kind == TYPE_A:
            if not 0 < self.beta < math.inf:
                raise ValueError("type A requires 0 < beta < inf")
            if self.nu is not None:
                raise ValueError("nu is a type-B parameter")
        else:
            if not 1 <= self.beta < math.inf:
                # the SDE below beta = 1 picks up boundary local time and is
                # outside what the integrator can honestly simulate
                raise ValueError("type B requires 1 <= beta < inf")
            if self.nu is None or not 0 <= self.nu < math.inf:
                raise ValueError("type B requires 0 <= nu < inf")


def rank(cfg: RootSystemConfig) -> int:
    """Dimension of the span of the roots: N-1 for type A, N for type B."""
    return cfg.n - 1 if cfg.kind == TYPE_A else cfg.n


def span_complement(cfg: RootSystemConfig) -> np.ndarray:
    """Orthogonal projector onto the complement of the root span, N x N: the
    all-ones direction, ones/N, for type A; zero for type B, whose roots
    span R^N."""
    if cfg.kind == TYPE_A:
        return np.full((cfg.n, cfg.n), 1.0 / cfg.n)
    return np.zeros((cfg.n, cfg.n))


def gamma(cfg: RootSystemConfig) -> float:
    """Sum of the multiplicity function over the positive roots."""
    return float(root_table(cfg).kappa.sum())


@dataclass(frozen=True, eq=False)
class RootTable:
    """Positive roots alpha = e_j + s e_i of R^n as read-only index arrays,
    with multiplicities kappa and |alpha|^2 = 1 + s^2 (norm2): pair roots have
    j > i and s = -1, or s = +1 (type B); type B's coordinate roots e_j have
    s = 0 and i = j.  Each alpha_p is 0 or +-1, so |alpha_p| = alpha_p^2.
    ji = j n + i is the flat position of entry (j, i) of an n x n matrix."""

    n: int
    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    kappa: np.ndarray
    norm2: np.ndarray
    ji: np.ndarray

    def dot(self, v):
        """alpha . v for every root, shape (n_roots, ...) for v of shape
        (N, ...): one point, or a particle-first batch gathered by rows."""
        return v[self.j] + self.s.reshape((-1,) + (1,) * (v.ndim - 1)) * v[self.i]

    def spread(self, c, unsigned=False):
        """dot's transpose: sum_alpha c_alpha alpha (|alpha| if unsigned), shape (N,)."""
        si = self.s**2 if unsigned else self.s
        return np.add(np.bincount(self.j, c, self.n), np.bincount(self.i, si * c, self.n),
                      dtype=float)  # bincount over no roots (type A, N = 1) counts in ints

    def outer(self, c):
        """sum_alpha c_alpha alpha alpha^T, shape (N, N)."""
        n, diag = self.n, self.spread(c, unsigned=True)  # first: lower peak memory
        off = np.bincount(self.ji, self.s * c, n * n).reshape(n, n)  # 0 on i = j
        out = np.add(off, off.T, dtype=float)
        out.flat[::n + 1] = diag
        return out

    def reflect(self, v):
        """v - 2 (alpha . v) / |alpha|^2 alpha for every root, shape (n_roots, N)."""
        c = 2 * self.dot(v) / self.norm2
        step, rows = np.zeros((len(c), self.n)), np.arange(len(c))
        step[rows, self.j] = c
        step[rows, self.i] += self.s * c  # 0 on a coordinate root, where i = j
        return v - step


def root_table(cfg: RootSystemConfig) -> RootTable:
    """The positive roots of cfg, built on first use and cached on (kind, n, nu);
    only kappa depends on nu."""
    return _root_table(cfg.kind, cfg.n, cfg.nu)


@functools.lru_cache(maxsize=32)
def _root_layout(kind, n):
    """i, j, s, norm2 and ji of the roots of (kind, n), read-only; cached, so
    the tables of every nu share one copy."""
    j, i = np.tril_indices(n, -1)  # j > i, in the order (1,0), (2,0), (2,1), ...
    s = np.full(len(i), -1.0)
    if kind == TYPE_B:  # e_j - e_i and e_j + e_i side by side, then the e_j
        k = np.arange(n)
        i, j = np.concatenate([np.repeat(i, 2), k]), np.concatenate([np.repeat(j, 2), k])
        s = np.concatenate([np.tile([-1.0, 1.0], len(s)), np.zeros(n)])
    norm2, ji = 1.0 + s**2, j * n + i
    for a in (i, j, s, norm2, ji):
        a.flags.writeable = False
    return i, j, s, norm2, ji


@functools.lru_cache(maxsize=32)
def _root_table(kind, n, nu):
    """Only kappa depends on nu; the layout arrays come from `_root_layout`."""
    i, j, s, norm2, ji = _root_layout(kind, n)
    kappa = np.ones(len(s))
    if kind == TYPE_B:
        kappa[-n:] = nu + 0.5  # the coordinate roots e_j
    kappa.flags.writeable = False
    return RootTable(n, i, j, s, kappa, norm2, ji)


def log_weight(cfg: RootSystemConfig, x) -> float | np.ndarray:
    """log w_beta(x) = beta sum_alpha kappa_alpha log|alpha . x|; -inf where a
    repulsion factor vanishes.

    Accepts a single vector or an array of shape (..., N) (vectorized over
    leading axes).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (cfg.n,):
        raise ValueError(f"coordinate vector has wrong length: shape {x.shape}, N = {cfg.n}")
    t = root_table(cfg)
    a = t.dot(np.moveaxis(x, -1, 0))  # alpha . x, root axis first
    with np.errstate(divide="ignore"):
        np.log(np.abs(a, out=a), out=a)
    a *= t.kappa.reshape((-1,) + (1,) * (a.ndim - 1))
    # root by root in table order, so a point gets the same bits alone and
    # in a batch; type A at N = 1 has no roots and weight 1
    total = np.add.accumulate(a, axis=0, out=a)[-1] if len(a) else np.zeros(a.shape[1:])
    out = cfg.beta * total
    return float(out) if x.ndim == 1 else out


def log_selberg_const(cfg: RootSystemConfig) -> float:
    """log of the Gaussian normalization c_beta = integral of e^{-x^2/2} w_beta.

    Closed Selberg-integral product, evaluated entirely with log-gamma so it
    stays finite where the raw product overflows.
    """
    n, b = cfg.n, cfg.beta
    if cfg.kind == TYPE_A:
        out = 0.0
        for j in range(1, n + 1):
            out += 0.5 * math.log(2 * math.pi) + math.lgamma(1 + j * b / 2) - math.lgamma(1 + b / 2)
        return out
    nu = cfg.nu
    out = (b * gamma(cfg) + n) / 2.0 * math.log(2.0)
    for j in range(1, n + 1):
        out += (
            math.lgamma(1 + j * b / 2)
            + math.lgamma(b / 2 * (nu + j - 0.5) + 0.5)
            - math.lgamma(b / 2 + 1)
        )
    return out


def freezing_constant(cfg: RootSystemConfig) -> float:
    """Value of the log-gas potential at its minimizer (beta-independent).

    Type A: (N/4)(N-1)(1+log 2) - (1/2) sum i log i.
    Type B: (N/2)(N+nu-1/2) - (1/2) sum i log i
            - (1/2) sum (nu+i-1/2) log(nu+i-1/2).
    """
    n = cfg.n
    s_ilogi = sum(i * math.log(i) for i in range(2, n + 1))
    if cfg.kind == TYPE_A:
        return n * (n - 1) * (1 + math.log(2.0)) / 4.0 - 0.5 * s_ilogi
    nu = cfg.nu
    s_b = sum((nu + i - 0.5) * math.log(nu + i - 0.5) for i in range(1, n + 1))
    return n / 2.0 * (n + nu - 0.5) - 0.5 * s_ilogi - 0.5 * s_b


def _point(cfg: RootSystemConfig, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n,):
        raise ValueError(f"coordinate vector has wrong length: shape {x.shape}, N = {cfg.n}")
    return x


def in_weyl_chamber(cfg: RootSystemConfig, x) -> bool:
    """Strict chamber membership, alpha . x > 0 for every positive root, so
    a type-B +inf coordinate is outside: its root reads inf + 0 inf = NaN."""
    return bool(np.all(root_table(cfg).dot(_point(cfg, x)) > 0))


def chamber_dot(cfg: RootSystemConfig, x) -> np.ndarray:
    """alpha . x over the root table for x strictly inside the chamber; ValueError otherwise."""
    a = root_table(cfg).dot(_point(cfg, x))
    if not np.all(a > 0):
        raise ValueError("point is not strictly inside the Weyl chamber")
    return a


def weyl_order(cfg: RootSystemConfig) -> int:
    """|W|: N! permutations (A), 2^N N! signed permutations (B)."""
    return math.factorial(cfg.n) * (2**cfg.n if cfg.kind == TYPE_B else 1)


def weyl_orbit(cfg: RootSystemConfig, s) -> np.ndarray:
    """All images of s under the reflection group: permutations (A) or
    signed permutations (B).  Capped at small N (factorial growth)."""
    s = _point(cfg, s)
    if cfg.n > _WEYL_CAP[cfg.kind]:
        raise ValueError("Weyl orbit enumeration capped at small N")
    perms = np.array(list(itertools.permutations(s)))
    if cfg.kind == TYPE_A:
        return perms
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=cfg.n)))
    return (signs[:, None, :] * perms[None, :, :]).reshape(-1, cfg.n)
