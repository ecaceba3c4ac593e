"""Euler–Maruyama integration of the interacting Brownian (type A) and
interacting Bessel (type B) particle SDEs.  The drift, and its stiffness
bound below, are sums over the positive roots alpha with multiplicities
kappa of `rootsys.root_table`:

    dX = dB + (beta/2) sum_alpha kappa_alpha alpha / (alpha . X) dt.

After every step the state is projected back to the Weyl chamber (sort for
type A, absolute value then sort for type B): this is the chamber-radial
process, so projecting the numerical path is consistent with the model.

A batch of m paths is held particle-major, as an array of shape (N, m)
with one contiguous row per particle (`_Batch`).  The drift is taken one
row j at a time, as one (j, m) block for both types: 1/(x_j - x_i) over
i < j, or for type B, whose roots e_j - e_i and e_j + e_i give a pair the
term 2 x_j / ((x_j - x_i)(x_j + x_i)), 1/((x_j - x_i)(x_j + x_i)).  The
block is summed into S_j and subtracted from the rows below, so every S_k
accumulates its pairs in the root table's order; then b = (beta/2) S, or
for type B b = beta (x S + (kappa/2) / x), kappa = nu + 1/2 from the
coordinate roots.  One routine, `_Batch.step`, takes the step
x += b h + sqrt(h) noise^T and projects; the ensemble, the noise-free
schedule path, `euler_step` and `drift` (m = 1) all go through it.  The
projection re-sorts only the paths that left the chamber: after the
absolute value (type B) it flags the columns with a descent, a tie or a
zero, then sorts and unties those alone, which is bit-identical to sorting
every path on every step.  The projection's reflection at 0 is read from
the coordinate roots.

The step dt of a plan is the largest step.  Near a stiff start, where
particles begin close together (or, for type B, close to the origin), the
first steps are shorter: each is bounded by the inverse of the drift's
stiffness along the noise-free path, so explicit Euler does not throw the
particles past where the drift would take them.  A start that is not stiff
at dt gets uniform steps of dt.

Lane l, paths 1024 l to 1024 l + 1023, draws its noise from its own SFC64
stream keyed by (seed, l), so a path's bits depend only on the plan.  Tiles
of whole lanes, one per core that the CPU affinity allows and more where one
would hold over _TILE_MAX particles, each draw their own noise and run the
whole schedule on a thread, with no per-step wait; cores + 1 hold buffers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .rootsys import RootSystemConfig, _point, chamber_dot, in_weyl_chamber, root_table

_LANE = 1 << 10  # paths per noise stream: fixed, part of the deterministic stream layout
_TILE = 1 << 13  # fewest particles (paths x N) worth a worker of their own
_TILE_MAX = 1 << 16  # most particles in a tile of more than one lane


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
        if not 0 < self.dt <= self.t_final < math.inf:
            raise ValueError("need 0 < dt <= t_final < inf")
        if not isinstance(self.n_paths, Integral) or self.n_paths < 1:
            raise ValueError("n_paths must be an integer >= 1")
        x0 = np.asarray(self.initial, dtype=float)
        if x0.shape != (self.cfg.n,):
            raise ValueError(f"initial has {x0.size} values, n is {self.cfg.n}")
        if not in_weyl_chamber(self.cfg, x0):  # on a wall the drift is singular
            raise ValueError("initial point must lie strictly inside the Weyl chamber")
        object.__setattr__(self, "initial", tuple(float(v) for v in x0))


@dataclass
class InitStats:
    """First two moments of the initial distribution (point mass: variance 0)."""
    mean: np.ndarray
    variance_total: float = 0.0

    def __post_init__(self):
        if not 0 <= self.variance_total < math.inf:
            raise ValueError(f"variance must be finite and nonnegative, got {self.variance_total}")
        if not np.all(np.isfinite(np.asarray(self.mean, dtype=float))):
            raise ValueError("mean must be finite")


def relaxation_bound(stats: InitStats, beta: float) -> float:
    """Time scale after which the scaled law is near the steady state:
    (s^2 + |mean|^2) * max(1, beta), for beta in (0, inf)."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    mean = np.asarray(stats.mean, dtype=float)
    return (stats.variance_total + float(mean @ mean)) * max(1.0, beta)


def drift(cfg: RootSystemConfig, x) -> np.ndarray:
    """SDE drift at a single interior configuration; FloatingPointError where
    it is not finite."""
    chamber_dot(cfg, x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        b = _Batch(cfg, np.asarray(x, dtype=float).reshape(-1, 1)).drift()[:, 0]
    if not np.all(np.isfinite(b)):
        raise FloatingPointError("drift: the drift overflows; "
                                 "the point is too close to a chamber wall")
    return b


class _Batch:
    """m paths held particle-major as x of shape (N, m), one contiguous row
    per particle, with the buffers that its Euler–Maruyama step reuses.

    The step x += b h + sqrt(h) noise^T rounds exactly as the same step
    written on (m, N) rows: the drift b sums its pairs in the root table's
    order, and b h and sqrt(h) noise are formed before they are added to x.
    Row j's pair block, and for type B a second one for x_j + x_i, are
    (j, w) slices of one buffer of the largest row's size, whose first N
    rows also hold kappa / 2x, so the drift adds no other buffer.
    bias accumulates sum_k |h_k b(X_k)|^2 per path, summed particle by particle.
    """

    def __init__(self, cfg, x):
        self.cfg = cfg
        self.x = x
        n, m = x.shape
        self.bias = np.zeros(m)
        # numpy sums a one-column block pairwise, not row by row, so a single
        # path is worked as two equal columns and read back from the first
        w = max(m, 2)
        self.b = np.empty((n, w))
        t = root_table(cfg)
        # The table lists the pair roots row by row, j = 1..N-1 and i < j in
        # order (e_j - e_i, then e_j + e_i where the e_j are roots too), and
        # the coordinate roots e_j last, each with one kappa.
        coord = t.s == 0  # roots e_j: 0 < x_1 < ... < x_N, reflect at 0
        blk = np.empty((1 + bool(coord.any()), max(n - 1, 1), w))  # the largest row's blocks
        self._coord = None
        if coord.any():
            self._coord = t.kappa[coord][:, None] / 2.0, blk.reshape(-1, w)[:n]
        self._walls = np.empty((n - 1 + bool(self._coord), m), dtype=bool)  # a row per wall
        self._ok = np.empty(m, dtype=bool)
        self._rows = [(x[j], x[:j], blk[0, :j], blk[-1, :j], self.b[j], self.b[:j])
                      for j in range(1, n)]

    def drift(self):
        """The drift of x, as a view of self.b of x's shape; no domain checks.

        Row j takes its pair roots as one (j, w) block: x_j - x_i, or where
        the e_j are roots, and with them both e_j - e_i and e_j + e_i, the
        product (x_j - x_i)(x_j + x_i).  The block's reciprocals are summed
        into S_j and subtracted from S_i for i < j, so every S_k accumulates
        its pairs in table order.  Then b = (beta/2) S, or with the e_j
        b = beta (x S + (kappa/2) / x), as the two roots of a pair give
        1/(x_j - x_i) + 1/(x_j + x_i) = 2 x_j / ((x_j - x_i)(x_j + x_i)).
        The product is never formed as x_j^2 - x_i^2, which rounds to 0 at
        a gap of one ulp.
        """
        b, x, m = self.b, self.x, self.x.shape[1]
        b[0] = 0.0
        for xj, xlo, blk, plus, bj, blo in self._rows:
            np.subtract(xj, xlo, out=blk)
            if self._coord:
                np.multiply(blk, np.add(xj, xlo, out=plus), out=blk)
            np.divide(1.0, blk, out=blk)
            np.add.reduce(blk, axis=0, out=bj)
            blo -= blk
        if self._coord:
            half_kappa, buf = self._coord
            b *= x
            b += np.divide(half_kappa, x, out=buf)
            b *= self.cfg.beta
        else:
            b *= self.cfg.beta / 2.0
        return b[:, :m]

    def step(self, h, noise=None):
        """One step of length h, then the chamber projection; returns the
        number of tie and zero repairs.  noise, of shape (m, N), is scaled
        in place; without it the step follows the noise-free path."""
        b = self.drift()
        b *= h
        self.bias += np.einsum("ij,ij->j", b, b)
        if noise is not None:
            noise *= math.sqrt(h)
            b += noise.T
        self.x += b
        return self.project()

    def project(self):
        """In-place chamber projection: reflect at 0 where the e_j are roots,
        then sort and untie only the paths not strictly inside the chamber (a
        zero, a descent, a tie or a NaN); returns the tie and zero repairs."""
        x, ok, rises = self.x, self._ok, self._walls
        if self._coord:
            np.abs(x, out=x)
            np.greater(x[0], 0.0, out=rises[0])
            rises = rises[1:]
        np.greater(x[1:], x[:-1], out=rises)
        np.logical_and.reduce(self._walls, axis=0, out=ok)
        if ok.all():
            return 0
        cols = np.flatnonzero(~ok)
        y = np.sort(x[:, cols], axis=0)
        repairs = 0
        if self._coord:
            zero = y[0] == 0.0
            if np.any(zero):
                repairs += int(zero.sum())
                y[0, zero] = np.finfo(float).tiny
        for k in range(len(y) - 1):
            tied = y[k + 1] <= y[k]
            if np.any(tied):
                repairs += int(tied.sum())
                bump = np.finfo(float).eps * np.maximum(1.0, np.abs(y[k, tied]))
                y[k + 1, tied] = y[k, tied] + bump
        x[:, cols] = y
        return repairs


def euler_step(cfg: RootSystemConfig, state: ParticleState, dt: float, noise) -> ParticleState:
    """One Euler–Maruyama step from an interior point, then the chamber projection."""
    drift(cfg, state.positions)  # the chamber gate, and a finite drift
    noise = _point(cfg, noise)
    if not np.all(np.isfinite(noise)):
        raise ValueError("noise must be finite")
    x = np.array(state.positions, dtype=float).reshape(-1, 1)
    _Batch(cfg, x).step(dt, noise.reshape(1, -1).copy())
    return ParticleState(positions=x[:, 0], time=state.time + dt)


def _stiffness(cfg, y):
    """Gershgorin bound on the largest eigenvalue of minus the drift Jacobian.

    The Jacobian is -(beta/2) sum_alpha kappa_alpha alpha alpha^T / (alpha . y)^2
    over the root table; bounding row p by its absolute sum gives (beta/2)
    max_p sum_alpha kappa_alpha |alpha_p| |alpha|_1 / (alpha . y)^2, where
    |alpha|_1 = |alpha|^2.  It is zero with no roots (type A, N = 1).
    """
    t = root_table(cfg)
    with np.errstate(over="ignore", divide="ignore"):  # inf is reported by the caller
        w = t.kappa * t.norm2 / t.dot(y) ** 2
    return cfg.beta / 2.0 * float(t.spread(w, unsigned=True).max())


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


def _workers():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tiles(m, n, workers):
    """Path edges (a, c) of the tiles of m paths of N = n particles:
    contiguous groups of whole lanes, one per worker, each of at least _TILE
    particles, and more wherever a tile would hold over _TILE_MAX particles;
    only a single lane may exceed that."""
    lanes = -(-m // _LANE)
    most = max(1, _TILE_MAX // (_LANE * n))  # lanes that fit in _TILE_MAX
    k = max(1, min(workers, lanes, m * n // _TILE), -(-lanes // most))
    return [(min(m, _LANE * (lanes * q // k)), min(m, _LANE * (lanes * (q + 1) // k)))
            for q in range(k)]


def _tile(plan, a, c):
    """The buffers of paths a..c, a a multiple of _LANE: the batch at the
    start, the (c - a, N) noise, and each lane's stream with its noise rows."""
    seed = int(plan.seed) & ((1 << 64) - 1)
    x = np.repeat(np.asarray(plan.initial, dtype=float)[:, None], c - a, axis=1)
    noise = np.empty((c - a, plan.cfg.n))
    lanes = [(Generator(SFC64(SeedSequence(seed, spawn_key=(p // _LANE,)))),
              noise[p - a:min(p + _LANE, c) - a]) for p in range(a, c, _LANE)]
    return _Batch(plan.cfg, x), noise, lanes


def _run_tile(batch, noise, lanes, steps, finals, bias):
    """Each step, fill each lane's rows of noise from its stream and step the
    batch; then write its finals and per-path bias; returns the repair count."""
    repairs = 0
    for h in steps:
        for rng, rows in lanes:
            rng.standard_normal(out=rows)
        repairs += batch.step(h, noise)
    finals[:], bias[:] = batch.x.T, batch.bias
    return repairs


def simulate_paths(plan: SimPlan, return_stats: bool = False):
    """Integrate n_paths independent trajectories; returns finals (n_paths, N).

    Deterministic for a given plan at any core count: each lane of 1024
    paths owns an SFC64 stream keyed by (seed, lane).  plan.dt is the
    largest step; steps near a stiff start are shorter (see _step_schedule).
    The stats' `euler_bias` is the mean of sum_k |h_k b(X_k)|^2: as x . b(x)
    = beta gamma / 2 and the projection keeps |x|^2, it is exactly explicit
    Euler's excess of E|X_t|^2 over |x_0|^2 + (N + beta gamma) t.
    """
    steps = _step_schedule(plan.cfg, plan.initial, plan.dt, plan.t_final)
    finals, bias = np.empty((plan.n_paths, plan.cfg.n)), np.empty(plan.n_paths)
    workers = _workers()
    tiles = _tiles(plan.n_paths, plan.cfg.n, workers)
    done = []
    with ThreadPoolExecutor(workers) as pool:
        for a, c in tiles:
            tile = _tile(plan, a, c)  # made before the wait: workers + 1 tiles hold buffers
            if len(done) >= workers:
                done[-workers].result()
            done.append(pool.submit(_run_tile, *tile, steps, finals[a:c], bias[a:c]))
        repairs = sum(f.result() for f in done)
    if not return_stats:
        return finals
    return finals, {
        "repairs": repairs,
        "particle_steps": plan.n_paths * len(steps) * plan.cfg.n,
        "n_steps": len(steps),
        "euler_bias": float(bias.sum() / plan.n_paths),
        "workers": workers,
        "tiles": len(tiles),
    }


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
    sum(counts)/(n_paths*bin_width) integrates to N up to that loss; a NaN
    or infinite coordinate raises ValueError, as do non-finite bounds.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(bin_width)):
        raise ValueError(f"need finite lo, hi and bin width, got {lo}, {hi}, {bin_width}")
    if bin_width <= 0 or lo >= hi:
        raise ValueError("need bin_width > 0 and lo < hi")
    n_bins = (hi - lo) / bin_width
    if not math.isfinite(n_bins):
        raise ValueError(f"bin width {bin_width} gives no finite bin count in [{lo}, {hi}]")
    n_bins = int(round(n_bins))
    if n_bins < 1:
        raise ValueError(f"bin width {bin_width} leaves no bin in [{lo}, {hi}]")
    if not 0 < scale_factor < math.inf:  # else inf/NaN would count as underflow
        raise ValueError(f"scale factor must be finite and > 0, got {scale_factor}")
    finals = np.asarray(finals, dtype=float)
    bad = finals.size - int(np.count_nonzero(np.isfinite(finals)))
    if bad:  # a NaN has no bin, and an infinite final is no result to bin
        raise ValueError(f"{bad} of {finals.size} coordinates are not finite")
    v = finals.ravel() / scale_factor
    hi = lo + n_bins * bin_width  # snap to a whole number of bins
    pos = np.floor((v - lo) / bin_width)
    np.clip(pos, -1, n_bins, out=pos)  # before the int cast, where a far coordinate would wrap
    counts = np.bincount(pos.astype(int) + 1, minlength=n_bins + 2)  # underflow, bins, overflow
    return DensityHistogram(
        lo=lo, hi=hi, bin_width=bin_width, counts=counts[1:-1],
        total_particles=v.size, scale_factor=scale_factor,
        underflow=int(counts[0]), overflow=int(counts[-1]),
    )
