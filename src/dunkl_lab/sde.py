"""Euler–Maruyama integration of the interacting Brownian (type A) and
interacting Bessel (type B) particle SDEs.  The drift, and its stiffness
bound below, are sums over the positive roots alpha with multiplicities
kappa of `rootsys.root_table`:

    dX = dB + (beta/2) sum_alpha kappa_alpha alpha / (alpha . X) dt.

After every step the state is projected back to the Weyl chamber (sort for
type A, absolute value then sort for type B): this is the chamber-radial
process, so projecting the numerical path is consistent with the model.

The step dt of a plan is the largest step.  Near a stiff start, where
particles begin close together (or, for type B, close to the origin), the
first steps are shorter: each is bounded by the inverse of the drift's
stiffness along the noise-free path, so explicit Euler does not throw the
particles past where the drift would take them.  A start that is not stiff
at dt gets uniform steps of dt.

Ensembles are integrated in fixed-size path chunks; each chunk draws its
noise from its own counter-based Philox stream keyed by (seed, chunk
index), so results are bit-identical regardless of how many workers run
the chunks.
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
    return _drift_batch(cfg, x[None, :])[0]


def _drift_batch(cfg, x):
    """Drift for a batch of configurations, shape (m, N), in one pass over the
    root table in its order (kappa = 1 on pair roots); no domain checks."""
    t = root_table(cfg)
    out = np.zeros_like(x)
    for i, j, s, k in zip(t.i.tolist(), t.j.tolist(), t.s.tolist(), t.kappa.tolist()):
        if s < 0:
            g = 1.0 / (x[:, j] - x[:, i])
            out[:, j] += g
            out[:, i] -= g
        elif s > 0:
            g = 1.0 / (x[:, j] + x[:, i])
            out[:, j] += g
            out[:, i] += g
        else:  # coordinate root e_j
            out[:, j] += k / x[:, j]
    return cfg.beta / 2.0 * out


def _project(cfg, x):
    """In-place chamber projection of a batch: reflect (B), sort, untie."""
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
    noise = np.asarray(noise, dtype=float)
    x = state.positions[None, :].astype(float).copy()
    x += _drift_batch(cfg, x) * dt + math.sqrt(dt) * noise[None, :]
    _project(cfg, x)
    return ParticleState(positions=x[0], time=state.time + dt)


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
    y = np.array([x0], dtype=float)
    steps = []
    t = 0.0
    while True:
        lam = _stiffness(cfg, y[0])
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
        y += _drift_batch(cfg, y) * h
        _project(cfg, y)
    rest = t_final - t
    n_full = int(math.floor(rest / dt + 1e-9))
    rem = rest - n_full * dt
    steps += [dt] * n_full
    if rem > 1e-12 * t_final:
        steps.append(rem)
    return steps


def _run_chunk(plan, chunk_index, lo, hi, steps, collect):
    cfg = plan.cfg
    key = (int(plan.seed) & ((1 << 64) - 1)) + (chunk_index << 64)
    rng = Generator(Philox(key=key))
    m = hi - lo
    x = np.tile(np.asarray(plan.initial, dtype=float), (m, 1))
    repairs = 0
    for dt_k in steps:
        noise = rng.standard_normal((m, cfg.n))
        x += _drift_batch(cfg, x) * dt_k + math.sqrt(dt_k) * noise
        repairs += _project(cfg, x)
    if collect:
        return x, repairs
    return x, 0


def simulate_paths(plan: SimPlan, return_stats: bool = False):
    """Integrate n_paths independent trajectories; returns finals (n_paths, N).

    Deterministic for a given plan regardless of the worker count: each
    fixed-size chunk of paths owns a Philox stream keyed by (seed, chunk).
    Worker count is taken from DUNKL_LAB_THREADS (0 or unset = sequential).
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
                lambda b: _run_chunk(plan, b[0], b[1], b[2], steps, return_stats),
                bounds,
            ))
    else:
        results = [_run_chunk(plan, c, lo, hi, steps, return_stats)
                   for c, lo, hi in bounds]
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
