"""Euler–Maruyama integration of the interacting Brownian (type A) and
interacting Bessel (type B) particle SDEs.  The drift, and its stiffness
bound below, are sums over the positive roots alpha with multiplicities
kappa of `rootsys.root_table`:

    dX = dB + (beta/2) sum_alpha kappa_alpha alpha / (alpha . X) dt.

After every step the state is projected back to the Weyl chamber (sort for
type A, absolute value then sort for type B): this is the chamber-radial
process, so projecting the numerical path is consistent with the model.

A batch of m paths is held particle-major, as an array of shape (N, m)
with one contiguous row per particle (`_Batch`), so each root of the drift
reads two whole rows and accumulates into buffers that every step reuses.
One routine, `_Batch.step`, takes the step x += b h + sqrt(h) noise^T and
projects; the ensemble, the noise-free schedule path, `euler_step` and
`drift` (m = 1) all go through it.  The projection re-sorts only the paths
that left the chamber: after the absolute value (type B) it flags the
columns with a descent, a tie or a zero, and `_project` sorts and unties
those alone, which is bit-identical to sorting every path on every step.

The step dt of a plan is the largest step.  Near a stiff start, where
particles begin close together (or, for type B, close to the origin), the
first steps are shorter: each is bounded by the inverse of the drift's
stiffness along the noise-free path, so explicit Euler does not throw the
particles past where the drift would take them.  A start that is not stiff
at dt gets uniform steps of dt.

Ensembles are integrated in fixed-size path chunks; each chunk draws its
noise as (m, N) from its own counter-based Philox stream keyed by (seed,
chunk index), so results are bit-identical regardless of how many workers
run the chunks.  The default is sequential: each running chunk holds its
own buffers, and on a 2-core machine two chunk workers raised the peak
resident memory of the benchmark's two-chunk N = 7 ensemble from 66.3 to
73.1 MB (+10%) for 15% less wall time, so DUNKL_LAB_THREADS must ask for them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .rootsys import TYPE_B, RootSystemConfig, in_weyl_chamber, root_table

_CHUNK = 1 << 14  # fixed: part of the deterministic stream layout


@dataclass
class ParticleState:
    positions: np.ndarray
    time: float


@dataclass(frozen=True)
class SimPlan:
    cfg: RootSystemConfig
    dt: float
    t_final: float
    n_paths: int
    seed: int
    initial: tuple

    def __post_init__(self):
        if not 0 < self.dt <= self.t_final:
            raise ValueError("need 0 < dt <= t_final")
        if self.n_paths < 1:
            raise ValueError("n_paths >= 1 required")
        x0 = np.asarray(self.initial, dtype=float)
        if x0.shape != (self.cfg.n,):
            raise ValueError("initial condition has wrong length")
        if not in_weyl_chamber(self.cfg, x0):  # on a wall the drift is singular
            raise ValueError("initial point must lie strictly inside the Weyl chamber")
        object.__setattr__(self, "initial", tuple(float(v) for v in x0))


@dataclass
class InitStats:
    """First two moments of the initial distribution (point mass: variance 0)."""
    mean: np.ndarray
    variance_total: float = 0.0

    def __post_init__(self):
        if self.variance_total < 0:
            raise ValueError("variance must be nonnegative")


def relaxation_bound(stats: InitStats, beta: float) -> float:
    """Time scale after which the scaled law is near the steady state:
    (s^2 + |mean|^2) * max(1, beta)."""
    mean = np.asarray(stats.mean, dtype=float)
    return (stats.variance_total + float(mean @ mean)) * max(1.0, beta)


def drift(cfg: RootSystemConfig, x) -> np.ndarray:
    """SDE drift at a single interior configuration."""
    x = np.asarray(x, dtype=float)
    if not in_weyl_chamber(cfg, x):
        raise ValueError("drift requires a strictly interior configuration")
    return _Batch(cfg, x.reshape(-1, 1)).drift()[:, 0]


class _Batch:
    """m paths held particle-major as x of shape (N, m), one contiguous row
    per particle, with the buffers that its Euler–Maruyama step reuses.

    The step x += b h + sqrt(h) noise^T rounds exactly as the same step
    written on (m, N) rows: the drift b sums the root table in its order,
    and b h and sqrt(h) noise are formed before they are added to x.
    """

    def __init__(self, cfg, x):
        self.cfg = cfg
        self.x = x
        n, m = x.shape
        self.b = np.empty_like(x)
        self._g = np.empty(m)
        # one row per chamber wall: x_{k+1} > x_k, and for type B x_1 > 0 first
        self._walls = np.empty((n - 1 + (cfg.kind == TYPE_B), m), dtype=bool)
        self._ok = np.empty(m, dtype=bool)
        t = root_table(cfg)
        # per root: its sign s, the rows of x and b it reads and writes, kappa
        self._terms = [(s, x[j], x[i], self.b[j], self.b[i], k) for i, j, s, k in
                       zip(t.i.tolist(), t.j.tolist(), t.s.tolist(), t.kappa.tolist())]

    def drift(self):
        """The drift of x into self.b (kappa = 1 on pair roots); no domain checks."""
        b, g = self.b, self._g
        b.fill(0.0)
        for s, xj, xi, bj, bi, k in self._terms:
            if s < 0:
                np.divide(1.0, np.subtract(xj, xi, out=g), out=g)
                bj += g
                bi -= g
            elif s > 0:
                np.divide(1.0, np.add(xj, xi, out=g), out=g)
                bj += g
                bi += g
            else:  # coordinate root e_j
                bj += np.divide(k, xj, out=g)
        b *= self.cfg.beta / 2.0
        return b

    def step(self, h, noise=None):
        """One step of length h, then the chamber projection; returns the
        number of tie and zero repairs.  noise, of shape (m, N), is scaled
        in place; without it the step follows the noise-free path."""
        b = self.drift()
        b *= h
        if noise is not None:
            noise *= math.sqrt(h)
            b += noise.T
        self.x += b
        return self.project()

    def project(self):
        """In-place chamber projection: reflect (B), then hand _project only
        the paths that are not strictly inside the chamber (a descent, a tie,
        a zero for B, or a NaN); returns its repair count."""
        x, ok, rises = self.x, self._ok, self._walls
        if self.cfg.kind == TYPE_B:
            np.abs(x, out=x)
            np.greater(x[0], 0.0, out=rises[0])
            rises = rises[1:]
        np.greater(x[1:], x[:-1], out=rises)
        np.logical_and.reduce(self._walls, axis=0, out=ok)
        if ok.all():
            return 0
        cols = np.flatnonzero(~ok)
        rows = np.ascontiguousarray(x[:, cols].T)
        repairs = _project(self.cfg, rows)
        x[:, cols] = rows.T
        return repairs


def _project(cfg, x):
    """In-place chamber projection of paths held as rows, shape (m, N):
    reflect (B), sort, untie."""
    if cfg.kind == TYPE_B:
        np.abs(x, out=x)
    x.sort(axis=1)
    repairs = 0
    if cfg.kind == TYPE_B:
        zero = x[:, 0] == 0.0
        if np.any(zero):
            repairs += int(zero.sum())
            x[zero, 0] = np.finfo(float).tiny
    for k in range(cfg.n - 1):
        tied = x[:, k + 1] <= x[:, k]
        if np.any(tied):
            repairs += int(tied.sum())
            bump = np.finfo(float).eps * np.maximum(1.0, np.abs(x[tied, k]))
            x[tied, k + 1] = x[tied, k] + bump
    return repairs


def euler_step(cfg: RootSystemConfig, state: ParticleState, dt: float, noise) -> ParticleState:
    """One Euler–Maruyama step followed by the chamber projection."""
    x = np.array(state.positions, dtype=float).reshape(-1, 1)
    _Batch(cfg, x).step(dt, np.array(noise, dtype=float).reshape(1, -1))
    return ParticleState(positions=x[:, 0], time=state.time + dt)


def _stiffness(cfg, y):
    """Gershgorin bound on the largest eigenvalue of minus the drift Jacobian.

    The Jacobian is -(beta/2) sum_alpha kappa_alpha alpha alpha^T / (alpha . y)^2
    over the root table; bounding row p by its absolute sum gives
    (beta/2) max_p sum_alpha kappa_alpha |alpha_p| |alpha|_1 / (alpha . y)^2.
    The bound is zero when there are no roots (type A, N = 1).
    """
    t = root_table(cfg)
    abs_s = np.abs(t.s)  # |alpha_i|; |alpha_j| = 1 and |alpha|_1 = 1 + |s|
    with np.errstate(over="ignore", divide="ignore"):  # inf is reported by the caller
        w = t.kappa * (1.0 + abs_s) / t.dot(y) ** 2
    rows = np.bincount(t.j, w, cfg.n) + np.bincount(t.i, abs_s * w, cfg.n)
    return cfg.beta / 2.0 * float(rows.max())


def _step_schedule(cfg, x0, dt, t_final):
    """Step sizes from x0 landing exactly on t_final.

    Near a stiff start the steps follow the noise-free Euler path y and are
    1/lambda(y), lambda from _stiffness, so no step overshoots the
    linearised drift; once 1/lambda >= dt the steps are uniform dt with the
    final partial step shortened.  A start with 1/lambda(x0) >= dt gets the
    uniform schedule from t = 0.
    """
    path = _Batch(cfg, np.array(x0, dtype=float).reshape(-1, 1))
    steps = []
    t = 0.0
    while True:
        lam = _stiffness(cfg, path.x[:, 0])
        if not math.isfinite(lam):
            raise FloatingPointError("step schedule: the drift's stiffness overflows; "
                                     "the start is too close to a chamber wall")
        if lam * dt <= 1.0:
            break
        h = 1.0 / lam
        if t + h >= t_final:
            steps.append(t_final - t)
            return steps
        steps.append(h)
        t += h
        path.step(h)
    rest = t_final - t
    n_full = int(math.floor(rest / dt + 1e-9))
    rem = rest - n_full * dt
    steps += [dt] * n_full
    if rem > 1e-12 * t_final:
        steps.append(rem)
    return steps


def _run_chunk(plan, chunk_index, lo, hi, steps):
    """Finals (m, N) and repair count of paths lo..hi, the chunk's noise drawn
    as (m, N) from its own Philox stream."""
    key = (int(plan.seed) & ((1 << 64) - 1)) + (chunk_index << 64)
    rng = Generator(Philox(key=key))
    m = hi - lo
    x = np.repeat(np.asarray(plan.initial, dtype=float)[:, None], m, axis=1)
    paths = _Batch(plan.cfg, x)
    noise = np.empty((m, plan.cfg.n))
    repairs = 0
    for h in steps:
        repairs += paths.step(h, rng.standard_normal(out=noise))
    return x.T, repairs


def simulate_paths(plan: SimPlan, return_stats: bool = False):
    """Integrate n_paths independent trajectories; returns finals (n_paths, N).

    Deterministic for a given plan regardless of the worker count: each
    fixed-size chunk of paths owns a Philox stream keyed by (seed, chunk).
    Worker count is taken from DUNKL_LAB_THREADS (0 or unset = sequential,
    the default for its memory cost; see the module docstring).
    plan.dt is the largest step; steps near a stiff start are shorter (see
    _step_schedule), and all chunks share the one schedule.
    """
    steps = _step_schedule(plan.cfg, plan.initial, plan.dt, plan.t_final)
    bounds = [(c, lo, min(lo + _CHUNK, plan.n_paths))
              for c, lo in enumerate(range(0, plan.n_paths, _CHUNK))]
    threads = int(os.environ.get("DUNKL_LAB_THREADS", "0") or 0)
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda b: _run_chunk(plan, b[0], b[1], b[2], steps),
                bounds,
            ))
    else:
        results = [_run_chunk(plan, c, lo, hi, steps) for c, lo, hi in bounds]
    finals = np.concatenate([r[0] for r in results], axis=0)
    if return_stats:
        total_repairs = sum(r[1] for r in results)
        stats = {
            "repairs": total_repairs,
            "particle_steps": plan.n_paths * len(steps) * plan.cfg.n,
            "n_steps": len(steps),
        }
        return finals, stats
    return finals


@dataclass
class DensityHistogram:
    lo: float
    hi: float
    bin_width: float
    counts: np.ndarray
    total_particles: int
    scale_factor: float
    underflow: int = 0
    overflow: int = 0

    @property
    def n_bins(self):
        return len(self.counts)

    def edges(self):
        return self.lo + self.bin_width * np.arange(self.n_bins + 1)

    def density(self, n_paths: int):
        """Per-bin density normalized so the histogram integrates to N."""
        return self.counts / (n_paths * self.bin_width)


def scaled_histogram(finals, scale_factor: float, lo: float, hi: float,
                     bin_width: float) -> DensityHistogram:
    """Bin every particle coordinate of every path after dividing by the scale.

    Out-of-range coordinates land in the underflow/overflow counters, so
    sum(counts)/(n_paths*bin_width) integrates to N up to that loss.
    """
    if bin_width <= 0 or lo >= hi:
        raise ValueError("need bin_width > 0 and lo < hi")
    n_bins = int(round((hi - lo) / bin_width))
    if n_bins < 1:
        raise ValueError(f"bin width {bin_width} leaves no bin in [{lo}, {hi}]")
    if not 0 < scale_factor < math.inf:  # else inf/NaN would count as underflow
        raise ValueError(f"scale factor must be finite and > 0, got {scale_factor}")
    finals = np.asarray(finals, dtype=float)
    v = finals.ravel() / scale_factor
    hi = lo + n_bins * bin_width  # snap to a whole number of bins
    idx = np.floor((v - lo) / bin_width).astype(int)
    under = int(np.sum(idx < 0))
    over = int(np.sum(idx >= n_bins))
    idx = idx[(idx >= 0) & (idx < n_bins)]
    counts = np.bincount(idx, minlength=n_bins)
    return DensityHistogram(
        lo=lo, hi=hi, bin_width=bin_width, counts=counts,
        total_particles=v.size, scale_factor=scale_factor,
        underflow=under, overflow=over,
    )
