"""Root-system data for the two particle systems.

Type A describes N interacting Brownian motions (pairwise log repulsion,
Weyl chamber x_1 < ... < x_N).  Type B describes N interacting Bessel
processes (additional repulsion from the origin and from mirror images,
chamber 0 < x_1 < ... < x_N).  Everything downstream — SDE drifts,
log-gas potentials, series kernels — is parameterized by the config
defined here.

`root_table` lists the positive roots with their multiplicities as index
arrays, so a sum over roots is a gather and a `np.bincount` or a sum over
the root axis; no dense root matrix is built.  Type B's pair factor
log|x_j^2 - x_i^2| is the sum of two roots, e_j - e_i and e_j + e_i.
The chamber is {x : alpha . x > 0 for every positive root alpha}: the
chamber test and the log weight read alpha . x from `RootTable.dot`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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
    beta  -- inverse temperature (> 0 for A, >= 1 for B)
    nu    -- Bessel index (type B only, >= 0)
    """

    kind: str
    n: int
    beta: float
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in (TYPE_A, TYPE_B):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.kind == TYPE_A:
            if not self.beta > 0:
                raise ValueError("type A requires beta > 0")
            if self.nu is not None:
                raise ValueError("nu is a type-B parameter")
        else:
            if not self.beta >= 1:
                # the SDE below beta = 1 picks up boundary local time and is
                # outside what the integrator can honestly simulate
                raise ValueError("type B requires beta >= 1")
            if self.nu is None or self.nu < 0:
                raise ValueError("type B requires nu >= 0")


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
    n = cfg.n
    if cfg.kind == TYPE_A:
        return n * (n - 1) / 2.0
    return n * (n + cfg.nu - 0.5)


@dataclass(frozen=True, eq=False)
class RootTable:
    """Positive roots alpha = e_j + s e_i as read-only index arrays, with
    multiplicities kappa: pair roots have j > i and s = -1, or s = +1 (type
    B); type B's coordinate roots e_j have s = 0 and i = j.  So every row
    has alpha . v = v[j] + s v[i] and |alpha|^2 = 1 + s^2."""

    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    kappa: np.ndarray

    def dot(self, v):
        """alpha . v for every root, shape (n_roots, ...) for v of shape
        (N, ...): one point, or a particle-first batch gathered by rows."""
        return v[self.j] + self.s.reshape((-1,) + (1,) * (v.ndim - 1)) * v[self.i]


def root_table(cfg: RootSystemConfig) -> RootTable:
    """The positive roots of cfg, built on first use and cached on (kind, n, nu)."""
    return _root_table(cfg.kind, cfg.n, cfg.nu)


@functools.lru_cache(maxsize=32)
def _root_table(kind, n, nu):
    j, i = np.tril_indices(n, -1)  # j > i, in the order (1,0), (2,0), (2,1), ...
    s = np.full(len(i), -1.0)
    kappa = np.ones(len(i))
    if kind == TYPE_B:  # e_j - e_i and e_j + e_i side by side, then the e_j
        k = np.arange(n)
        i, j = np.concatenate([np.repeat(i, 2), k]), np.concatenate([np.repeat(j, 2), k])
        s = np.concatenate([np.tile([-1.0, 1.0], len(s)), np.zeros(n)])
        kappa = np.concatenate([np.ones(2 * len(kappa)), np.full(n, nu + 0.5)])
    for a in (i, j, s, kappa):
        a.flags.writeable = False
    return RootTable(i, j, s, kappa)


def log_weight(cfg: RootSystemConfig, x) -> float | np.ndarray:
    """log w_beta(x) = beta sum_alpha kappa_alpha log|alpha . x|; -inf where a
    repulsion factor vanishes.

    Accepts a single vector or an array of shape (..., N) (vectorized over
    leading axes).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != cfg.n:
        raise ValueError("coordinate vector has wrong length")
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


def in_weyl_chamber(cfg: RootSystemConfig, x) -> bool:
    """Strict chamber membership, alpha . x > 0 for every positive root, so
    a type-B +inf coordinate is outside: its root reads inf + 0 inf = NaN."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n,):
        raise ValueError("coordinate vector has wrong length")
    return bool(np.all(root_table(cfg).dot(x) > 0))


def weyl_order(cfg: RootSystemConfig) -> int:
    """|W|: N! permutations (A), 2^N N! signed permutations (B)."""
    return math.factorial(cfg.n) * (2**cfg.n if cfg.kind == TYPE_B else 1)


def weyl_orbit(cfg: RootSystemConfig, s) -> np.ndarray:
    """All images of s under the reflection group: permutations (A) or
    signed permutations (B).  Capped at small N (factorial growth)."""
    s = np.asarray(s, dtype=float)
    if cfg.n > _WEYL_CAP[cfg.kind]:
        raise ValueError("Weyl orbit enumeration capped at small N")
    perms = np.array(list(itertools.permutations(s)))
    if cfg.kind == TYPE_A:
        return perms
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=cfg.n)))
    return (signs[:, None, :] * perms[None, :, :]).reshape(-1, cfg.n)
