import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import SFC64, SeedSequence

from dunkl_lab import sde
from dunkl_lab.rootsys import TYPE_A, TYPE_B, RootSystemConfig, gamma, in_weyl_chamber, root_table
from dunkl_lab.sde import (
    InitStats,
    ParticleState,
    SimPlan,
    drift,
    euler_step,
    relaxation_bound,
    scaled_histogram,
    simulate_paths,
)

CFG_A2 = RootSystemConfig(TYPE_A, 2, 2.0)


def _drift_by_pairs(cfg, x):
    """The pair-loop drift that the root-table pass replaced, kept as its
    oracle.  Type B takes each pair e_i - e_j, e_i + e_j as one reciprocal:
    b = beta (x S + ((nu + 1/2) / 2) / x), S_i the sum over j of
    1/((x_i - x_j)(x_i + x_j))."""
    n = cfg.n
    out = np.zeros_like(x)
    for i in range(n):
        for j in range(i):
            if cfg.kind == TYPE_B:
                inv = 1.0 / ((x[:, i] - x[:, j]) * (x[:, i] + x[:, j]))
            else:
                inv = 1.0 / (x[:, i] - x[:, j])
            out[:, i] += inv
            out[:, j] -= inv
    if cfg.kind == TYPE_B:
        out *= x
        out += ((cfg.nu + 0.5) / 2.0) / x
        return cfg.beta * out
    return cfg.beta / 2.0 * out


def _drift_by_two_reciprocals(cfg, x):
    """The pair loop with type B's two roots of a pair taken as two
    reciprocals, 1/(x_i - x_j) and 1/(x_i + x_j): the form that the folded
    pair replaced, kept as its accuracy reference."""
    n = cfg.n
    b_half = cfg.beta / 2.0
    out = np.zeros_like(x)
    for i in range(n):
        for j in range(i):
            inv = 1.0 / (x[:, i] - x[:, j])
            out[:, i] += inv
            out[:, j] -= inv
            if cfg.kind == TYPE_B:
                inv = 1.0 / (x[:, i] + x[:, j])
                out[:, i] += inv
                out[:, j] += inv
    if cfg.kind == TYPE_B:
        out += (2 * cfg.nu + 1) / (2.0 * x)
    return b_half * out


def _drift_rows(cfg, x):
    """The drift on paths held as rows, shape (m, N), one pass over the root
    table: the (m, N) layout that the particle-major batch replaced, kept as
    its oracle.  Where the e_j are roots, the pair e_j - e_i, e_j + e_i is
    one reciprocal 1/((x_j - x_i)(x_j + x_i)), as in _drift_by_pairs."""
    t = root_table(cfg)
    folded = cfg.kind == TYPE_B
    out = np.zeros_like(x)
    for i, j, s in zip(t.i.tolist(), t.j.tolist(), t.s.tolist()):
        if s < 0:
            g = x[:, j] - x[:, i]
            if folded:
                g = g * (x[:, j] + x[:, i])
            g = 1.0 / g
            out[:, j] += g
            out[:, i] -= g
    if not folded:
        return cfg.beta / 2.0 * out
    out *= x
    for j, s, k in zip(t.j.tolist(), t.s.tolist(), t.kappa.tolist()):
        if s == 0:
            out[:, j] += (k / 2.0) / x[:, j]
    return cfg.beta * out


def _project_rows(cfg, x):
    """In-place chamber projection of paths held as rows, shape (m, N):
    reflect (B), sort every row, untie.  The full sort that the selective
    particle-major projection replaced, kept as its oracle."""
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


def _signs(gen, rows, n):
    """A lane's (rows, n) signs +-1 for one step, from ceil(rows n / 64) raw
    words of its SFC64 stream: sign k, row by row, is bit k % 64 of word
    k // 64 counted from the least significant bit, and a 1 bit is +1."""
    words = gen.random_raw(-(-rows * n // 64))
    k = np.arange(rows * n)
    bits = (words[k // 64] >> (k % 64).astype(np.uint64)) & np.uint64(1)
    return (2.0 * bits - 1.0).reshape(rows, n)


def _run_chunk_rows(plan, lo, hi, steps):
    """Paths lo..hi of sde.simulate_paths on (m, N) rows with a full sort
    every step, kept as its oracle: lane l, paths 1024 l to 1024 l + 1023,
    draws its rows of each step's signs from its own SFC64 stream, keyed by
    (seed, l).  Returns the finals, the repair count and each path's sum of
    |h b|^2."""
    cfg = plan.cfg
    seed = int(plan.seed) & ((1 << 64) - 1)
    edges = list(range(lo, hi, 1024)) + [hi]
    lanes = [(SFC64(SeedSequence(seed, spawn_key=(a // 1024,))), c - a)
             for a, c in zip(edges, edges[1:])]
    x = np.tile(np.asarray(plan.initial, dtype=float), (hi - lo, 1))
    repairs, bias = 0, np.zeros(hi - lo)
    for dt_k in steps:
        noise = np.concatenate([_signs(gen, rows, cfg.n) for gen, rows in lanes])
        hb = _drift_rows(cfg, x) * dt_k
        sq = np.zeros(hi - lo)
        for k in range(cfg.n):  # particle by particle, as the step sums them
            sq += hb[:, k] * hb[:, k]
        bias += sq
        x += hb + math.sqrt(dt_k) * noise
        repairs += _project_rows(cfg, x)
    return x, repairs, bias


def _run_tile(plan, lo, hi, steps):
    """Paths lo..hi as one tile of sde._run_tile: finals, repairs and each
    path's Euler bias."""
    finals, bias = np.empty((hi - lo, plan.cfg.n)), np.empty(hi - lo)
    repairs = sde._run_tile(*sde._tile(plan, lo, hi), steps, finals, bias)
    return finals, repairs, bias


def _simulate(monkeypatch, plan, workers):
    """simulate_paths as on `workers` cores, with its pool's submit count."""
    monkeypatch.setattr(sde, "_workers", lambda: workers)
    monkeypatch.setattr(sde, "ThreadPoolExecutor", _CountingPool)
    _CountingPool.submitted = 0
    return *simulate_paths(plan, return_stats=True), _CountingPool.submitted


class _CountingPool(ThreadPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        type(self).submitted += 1
        return super().submit(*args, **kwargs)


def _stiffness_dense(cfg, y):
    """The dense N x N Gershgorin bound that the root-table sum replaced."""
    gap = y[:, None] - y[None, :]
    np.fill_diagonal(gap, np.inf)
    rows = (gap ** -2.0).sum(axis=1)
    if cfg.kind == TYPE_B:
        mirror = y[:, None] + y[None, :]
        np.fill_diagonal(mirror, np.inf)
        rows += (mirror ** -2.0).sum(axis=1) + (cfg.nu + 0.5) / (2.0 * y ** 2)
    return cfg.beta * float(rows.max())


def _schedule_by_dense(cfg, x0, dt, t_final):
    """sde._step_schedule with the dense stiffness bound and the pair drift."""
    y = np.array([x0], dtype=float)
    steps, t = [], 0.0
    while _stiffness_dense(cfg, y[0]) * dt > 1.0:
        h = 1.0 / _stiffness_dense(cfg, y[0])
        if t + h >= t_final:
            return steps + [t_final - t]
        steps.append(h)
        t += h
        y += _drift_by_pairs(cfg, y) * h
        _project_rows(cfg, y)
    rest = t_final - t
    n_full = int(math.floor(rest / dt + 1e-9))
    rem = rest - n_full * dt
    return steps + [dt] * n_full + ([rem] if rem > 1e-12 * t_final else [])


def _chamber_batch(cfg, m, seed):
    rng = np.random.default_rng(seed)
    lo = 0.01 if cfg.kind == TYPE_B else -5.0
    return np.sort(rng.uniform(lo, 5.0, (m, cfg.n)), axis=1)


_TABLE_CFGS = [RootSystemConfig(TYPE_A, n, 2.0) for n in (1, 2, 3, 7, 32)] + [
    RootSystemConfig(TYPE_B, n, 2.0, nu=nu) for n in (1, 2, 3, 7, 32) for nu in (0.0, 0.5, 1e4)
] + [RootSystemConfig(TYPE_A, 5, 3.7), RootSystemConfig(TYPE_B, 5, 3.7, nu=0.5)]  # beta/2 inexact


@pytest.mark.parametrize("cfg", _TABLE_CFGS, ids=lambda c: f"{c.kind}{c.n}_nu{c.nu}")
def test_table_drift_matches_pair_loop_bit_for_bit(cfg):
    x = _chamber_batch(cfg, 256, seed=cfg.n)
    batch = sde._Batch(cfg, np.ascontiguousarray(x.T))  # particle-major (N, m)
    assert np.array_equal(batch.drift().T, _drift_by_pairs(cfg, x))


_ROW_CASES = [RootSystemConfig(TYPE_A, n, 2.0) for n in (9, 17, 32, 100)] + [
    RootSystemConfig(TYPE_B, n, 3.7, nu=0.5) for n in (9, 17, 32, 100)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cfg", _ROW_CASES, ids=lambda c: f"{c.kind}{c.n}")
def test_row_blocked_drift_matches_pair_loop_on_few_paths(cfg, m):
    # numpy sums a one-column block pairwise; rows of 8 or more roots show it
    x = _chamber_batch(cfg, m, seed=cfg.n + m)
    ref = _drift_by_pairs(cfg, x)
    assert np.array_equal(sde._Batch(cfg, np.ascontiguousarray(x.T)).drift().T, ref)
    if m == 1:
        assert np.array_equal(drift(cfg, x[0]), ref[0])


def _exact_drift(cfg, x):
    """The type-B drift at one point summed root by root in exact rationals,
    and each particle's sum of its terms' magnitudes."""
    half = Fraction(cfg.beta) / 2
    xs = [Fraction(v) for v in x]
    exact, size = [], []
    for k, xk in enumerate(xs):
        terms = [(Fraction(cfg.nu) + Fraction(1, 2)) / xk]
        for i, xi in enumerate(xs):
            if i != k:
                terms += [1 / (xk - xi), 1 / (xk + xi)]
        exact.append(half * sum(terms))
        size.append(half * sum(abs(t) for t in terms))
    return exact, size


def _gamma(k):
    """gamma_k = k u / (1 - k u): k roundings of unit roundoff u = eps/2."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


@pytest.mark.parametrize("n", [2, 7, 32])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1e4])
def test_folded_drift_is_within_its_rounding_bound(n, nu):
    # Errors against exact rationals, in units of eps times the sum of the
    # magnitudes of the per-root terms (beta/2)(1/(x_k -+ x_i) and kappa/x_k).
    # The folded pair takes 4 roundings, its sum N - 2, then x S, kappa/2x,
    # their sum and beta 4 more: gamma_(N+5), as 2 x_k / ((x_k - x_i)(x_k + x_i))
    # is the sum of the pair's two terms.  The two-reciprocal form takes 2 a
    # term, 2N - 2 to sum them and one for beta/2: gamma_(2N+1).  The folded
    # form is also held to 4 eps, which the two-reciprocal form exceeds at
    # N = 32 (5.3 eps here, against the fold's 3.1).
    cfg = RootSystemConfig(TYPE_B, n, 3.7, nu=nu)
    rng = np.random.default_rng(n)
    x = np.sort(np.exp(rng.uniform(math.log(1e-4), math.log(10.0), (64, n))), axis=1)
    folded = sde._Batch(cfg, np.ascontiguousarray(x.T)).drift().T
    two = _drift_by_two_reciprocals(cfg, x)
    err = {"folded": [], "two": []}
    for p in range(len(x)):
        exact, size = _exact_drift(cfg, x[p])
        for k in range(n):
            unit = np.finfo(float).eps * float(size[k])
            err["folded"].append(float(abs(Fraction(folded[p, k]) - exact[k])) / unit)
            err["two"].append(float(abs(Fraction(two[p, k]) - exact[k])) / unit)
    eps = np.finfo(float).eps
    assert max(err["folded"]) <= min(4.0, _gamma(n + 5) / eps)
    assert max(err["two"]) <= _gamma(2 * n + 1) / eps
    if n > 2:
        # with several pairs the lower particle's two reciprocals cancel, and
        # the fold's worst case is no worse; with one pair the fold's extra
        # roundings of the product and of x S leave it at 1.19 eps, the two
        # reciprocals at 0.94 eps
        assert max(err["folded"]) <= max(err["two"])


_ONE_TILE_CASES = [
    # the crowded benchmark's sizes: no path leaves the chamber
    (RootSystemConfig(TYPE_A, 32, 2.0), tuple(np.linspace(-16.0, 16.0, 32)), 1e-3, 10, 4096),
    (RootSystemConfig(TYPE_B, 32, 2.0, nu=0.5), tuple(np.arange(1.0, 33.0)), 1e-3, 10, 4096),
    # criterion 4's stiff start and type B's: shortened steps, then uniform ones
    (RootSystemConfig(TYPE_A, 7, 1e4), tuple(0.01 * i for i in range(-3, 4)), 5e-5, 100, 1024),
    (RootSystemConfig(TYPE_B, 7, 1e4, nu=0.5), tuple(0.01 * i for i in range(1, 8)), 5e-5, 100,
     1024),
    # about 8% and 23% of the paths re-sorted each step
    (RootSystemConfig(TYPE_A, 3, 0.5), (0.0, 0.05, 0.1), 5e-2, 40, 2048),
    (RootSystemConfig(TYPE_B, 4, 1.0, nu=0.0), (0.01, 0.02, 0.03, 0.04), 2e-2, 40, 2048),
]


@pytest.mark.parametrize("cfg, x0, dt, n_steps, m", _ONE_TILE_CASES,
                         ids=["A32", "B32_nu0.5", "criterion4", "B7_beta1e4", "A3_beta0.5",
                              "B4_nu0"])
def test_particle_major_chunk_matches_rows_bit_for_bit(cfg, x0, dt, n_steps, m):
    # all m paths as one tile, run through the whole schedule at once
    plan = SimPlan(cfg=cfg, dt=dt, t_final=dt * n_steps, n_paths=m, seed=7, initial=x0)
    steps = sde._step_schedule(cfg, x0, dt, plan.t_final)
    finals, repairs, bias = _run_tile(plan, 0, m, steps)
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert repairs == ref_repairs
    assert np.array_equal(bias, ref_bias)
    if cfg.n == 32:
        assert repairs == 0


_TILED_CASES = [
    (RootSystemConfig(TYPE_A, 32, 2.0), tuple(np.linspace(-16.0, 16.0, 32)), 1e-3, 10, 4096),
    (RootSystemConfig(TYPE_B, 32, 2.0, nu=0.5), tuple(np.arange(1.0, 33.0)), 1e-3, 10, 4096),
    # uneven tiles (4 lanes and 5, the last of 3 paths), about 8% of the
    # paths re-sorted each step
    (RootSystemConfig(TYPE_A, 3, 0.5), (0.0, 0.05, 0.1), 5e-2, 40, 8195),
    (RootSystemConfig(TYPE_A, 7, 1e4), tuple(0.01 * i for i in range(-3, 4)), 5e-5, 100, 8192),
]


@pytest.mark.parametrize("cfg, x0, dt, n_steps, m", _TILED_CASES,
                         ids=["A32", "B32_nu0.5", "A3_beta0.5_uneven", "criterion4"])
def test_tiled_chunk_matches_rows_bit_for_bit(monkeypatch, cfg, x0, dt, n_steps, m):
    plan = SimPlan(cfg=cfg, dt=dt, t_final=dt * n_steps, n_paths=m, seed=7, initial=x0)
    steps = sde._step_schedule(cfg, x0, dt, plan.t_final)
    finals, stats, submitted = _simulate(monkeypatch, plan, workers=2)
    assert len(sde._tiles(m, cfg.n, 2)) == stats["tiles"] == submitted == 2  # a submit per tile
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert stats["repairs"] == ref_repairs
    assert stats["euler_bias"] == ref_bias.sum() / m


def test_tiled_chunk_with_more_workers_than_cores(monkeypatch):
    # three tiles on four threads, switching every 10 us: a lost update to
    # a shared buffer or a draw from another lane's stream would change the bits
    cfg = RootSystemConfig(TYPE_B, 4, 1.0, nu=0.0)
    m = 6150
    plan = SimPlan(cfg=cfg, dt=2e-2, t_final=0.4, n_paths=m, seed=9,
                   initial=(0.01, 0.02, 0.03, 0.04))
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        finals, stats, submitted = _simulate(monkeypatch, plan, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert submitted == 3
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert stats["repairs"] == ref_repairs
    assert stats["euler_bias"] == ref_bias.sum() / m


@pytest.mark.parametrize("cfg, m", [
    # tiles of two and three whole lanes, each under _TILE_MAX particles
    (RootSystemConfig(TYPE_A, 20, 2.0), 7 * 1024 + 5),
    # a lane of 1024 paths holds over _TILE_MAX particles, so each is a tile
    (RootSystemConfig(TYPE_B, 100, 2.0, nu=0.5), 2 * 1024 + 52),
], ids=["A20", "B100"])
@pytest.mark.parametrize("workers", [1, 2])
def test_more_tiles_than_workers_match_rows_bit_for_bit(monkeypatch, cfg, m, workers):
    x0 = tuple(np.arange(1.0, cfg.n + 1.0))
    plan = SimPlan(cfg=cfg, dt=1e-3, t_final=3e-3, n_paths=m, seed=12, initial=x0)
    tiles = sde._tiles(m, cfg.n, workers)
    assert len(tiles) == 3 > workers
    assert all((c - a) * cfg.n <= max(sde._LANE * cfg.n, sde._TILE_MAX) for a, c in tiles)
    finals, stats, submitted = _simulate(monkeypatch, plan, workers)
    assert stats["tiles"] == submitted == 3
    steps = sde._step_schedule(cfg, x0, plan.dt, plan.t_final)
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert stats["repairs"] == ref_repairs
    assert stats["euler_bias"] == ref_bias.sum() / m


def test_memory_is_bounded_by_tiles_not_paths(monkeypatch):
    # A300, 16384 paths on two workers: the finals are 39 MB, and the three
    # one-lane tiles in flight add about 11 MB each, not N x 16384 buffers
    # for x, the noise and the drift
    monkeypatch.setattr(sde, "_workers", lambda: 2)
    cfg = RootSystemConfig(TYPE_A, 300, 2.0)
    plan = SimPlan(cfg=cfg, dt=1e-3, t_final=2e-3, n_paths=16384, seed=13,
                   initial=tuple(np.linspace(-30.0, 30.0, 300)))
    tracemalloc.start()
    try:
        simulate_paths(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_finals_do_not_depend_on_the_pool(monkeypatch, workers):
    # 22 whole lanes and one of 3 paths in two tiles, or in four on four
    # workers; about 8% of the paths are re-sorted each step
    cfg = RootSystemConfig(TYPE_A, 3, 0.5)
    n_paths = 22 * sde._LANE + 3
    plan = SimPlan(cfg=cfg, dt=5e-2, t_final=1.0, n_paths=n_paths, seed=10,
                   initial=(0.0, 0.05, 0.1))
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, n_paths, steps)
    finals, stats, submitted = _simulate(monkeypatch, plan, workers)
    assert np.array_equal(finals, ref)
    assert stats["repairs"] == ref_repairs
    assert stats["euler_bias"] == ref_bias.sum() / n_paths
    assert stats["workers"] == workers
    assert stats["tiles"] == submitted == max(workers, 2)


def test_whole_lanes_keep_their_bits():
    # paths beyond the last whole lane do not move the bits of those before
    cfg = RootSystemConfig(TYPE_B, 3, 1.0, nu=0.0)
    kw = dict(cfg=cfg, dt=2e-2, t_final=0.4, seed=11, initial=(0.01, 0.02, 0.03))
    whole = simulate_paths(SimPlan(n_paths=2 * sde._LANE, **kw))
    more = simulate_paths(SimPlan(n_paths=2 * sde._LANE + 5, **kw))
    assert np.array_equal(more[:2 * sde._LANE], whole)


def test_two_chunks_and_a_partial_one_do_not_depend_on_the_pool(monkeypatch):
    # 2 x 16384 + 300 paths, on every core, on one and on two: two tiles of
    # 16 and 17 lanes, the last of 300 paths, on one or two workers
    cfg = RootSystemConfig(TYPE_B, 2, 1.0, nu=0.0)
    n_paths = 32 * sde._LANE + 300
    plan = SimPlan(cfg=cfg, dt=2e-2, t_final=0.1, n_paths=n_paths, seed=6,
                   initial=(0.01, 0.02))
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, n_paths, steps)
    finals, stats = simulate_paths(plan, return_stats=True)
    assert stats["workers"] == len(os.sched_getaffinity(0))
    assert stats["tiles"] == len(sde._tiles(n_paths, cfg.n, stats["workers"]))
    assert np.array_equal(finals, ref)
    assert stats["repairs"] == ref_repairs
    assert stats["euler_bias"] == ref_bias.sum() / n_paths
    for workers in (1, 2):
        f, st, submitted = _simulate(monkeypatch, plan, workers)
        assert np.array_equal(f, ref)
        assert st["repairs"] == ref_repairs and st["euler_bias"] == stats["euler_bias"]
        assert st["tiles"] == submitted == 2


def test_partial_chunk_matches_rows_bit_for_bit():
    # 16 whole lanes and one of 300 paths, each lane on its own SFC64
    # stream; about 13% of the paths are re-sorted each step
    cfg = RootSystemConfig(TYPE_B, 2, 1.0, nu=0.0)
    n_paths = 16 * sde._LANE + 300
    plan = SimPlan(cfg=cfg, dt=2e-2, t_final=0.2, n_paths=n_paths, seed=5,
                   initial=(0.01, 0.02))
    finals, stats = simulate_paths(plan, return_stats=True)
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, n_paths, steps)
    assert np.array_equal(finals, ref)
    assert stats["repairs"] == ref_repairs
    assert stats["euler_bias"] == ref_bias.sum() / n_paths


@pytest.mark.parametrize("kind", [TYPE_A, TYPE_B])
def test_selective_projection_matches_full_sort(kind):
    # in-order paths, descents, ties, signed zeros and a NaN: re-sorting only
    # the flagged columns gives the full sort's bits and repair count
    cfg = RootSystemConfig(kind, 3, 2.0, nu=0.5 if kind == TYPE_B else None)
    rows = np.array([
        [0.1, 0.2, 0.3], [0.3, 0.1, 0.2], [0.2, 0.2, 0.3], [-0.1, 0.2, 0.3],
        [0.0, 0.1, 0.2], [-0.0, 0.0, 0.1], [0.1, np.nan, 0.2], [0.5, 0.5, 0.5],
        [-0.3, -0.2, -0.1], [1e300, -1e300, 0.0],
    ])
    ref = rows.copy()
    ref_repairs = _project_rows(cfg, ref)
    batch = sde._Batch(cfg, np.ascontiguousarray(rows.T))
    assert batch.project() == ref_repairs > 0
    assert np.array_equal(batch.x.T, ref, equal_nan=True)
    assert np.array_equal(np.signbit(batch.x.T), np.signbit(ref))


@pytest.mark.parametrize("cfg", _TABLE_CFGS, ids=lambda c: f"{c.kind}{c.n}_nu{c.nu}")
def test_table_stiffness_matches_dense_bound(cfg):
    for y in _chamber_batch(cfg, 32, seed=100 + cfg.n):
        ref = _stiffness_dense(cfg, y)
        assert abs(sde._stiffness(cfg, y) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("cfg, x0, dt, t", [
    # criterion 4, criterion 5 and the type-B stiff start
    (RootSystemConfig(TYPE_A, 7, 1e4), tuple(0.01 * i for i in range(-3, 4)), 5e-5, 1.0),
    (RootSystemConfig(TYPE_B, 7, 2.0, nu=1e4), tuple(0.1 * i for i in range(1, 8)), 2e-5, 0.5),
    (RootSystemConfig(TYPE_B, 7, 1e4, nu=0.5), tuple(0.01 * i for i in range(1, 8)), 5e-5, 0.05),
    # the stiff phase reaches t_final, so every step is shorter than dt
    (RootSystemConfig(TYPE_A, 7, 1e4), tuple(0.01 * i for i in range(-3, 4)), 5e-5, 1e-4),
    (RootSystemConfig(TYPE_B, 7, 1e4, nu=0.5), tuple(0.01 * i for i in range(1, 8)), 5e-5, 1e-4),
], ids=["criterion4", "criterion5", "B7_beta1e4", "A7_beta1e4_stiff_to_end",
        "B7_beta1e4_stiff_to_end"])
def test_step_schedule_matches_dense_reference(cfg, x0, dt, t):
    steps = np.array(sde._step_schedule(cfg, x0, dt, t))
    ref = np.array(_schedule_by_dense(cfg, x0, dt, t))
    assert len(steps) == len(ref)
    assert np.max(np.abs(steps - ref) / ref) <= 1e-13
    assert steps[0] < dt  # the start is stiff, so the reference is not trivial


def test_plan_validation():
    with pytest.raises(ValueError):
        SimPlan(cfg=CFG_A2, dt=0.0, t_final=1.0, n_paths=10, seed=0, initial=(0.0, 1.0))
    for t_final in (math.inf, math.nan):  # inf would fail later, in the step count
        with pytest.raises(ValueError, match="t_final < inf"):
            SimPlan(cfg=CFG_A2, dt=0.1, t_final=t_final, n_paths=10, seed=0, initial=(0.0, 1.0))
    with pytest.raises(ValueError):
        SimPlan(cfg=CFG_A2, dt=0.1, t_final=1.0, n_paths=0, seed=0, initial=(0.0, 1.0))
    for n_paths in (2.5, 8.0):  # a float count used to fail later, in simulate_paths
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            SimPlan(cfg=CFG_A2, dt=0.1, t_final=1.0, n_paths=n_paths, seed=0, initial=(0.0, 1.0))
    plan = SimPlan(cfg=CFG_A2, dt=0.1, t_final=0.2, n_paths=np.int64(8), seed=0,
                   initial=(0.0, 1.0))
    assert simulate_paths(plan).shape == (8, 2)
    with pytest.raises(ValueError):
        SimPlan(cfg=CFG_A2, dt=0.1, t_final=1.0, n_paths=5, seed=0, initial=(1.0,))
    with pytest.raises(ValueError):  # tied coordinates make the drift singular
        SimPlan(cfg=CFG_A2, dt=0.1, t_final=1.0, n_paths=5, seed=0, initial=(0.0, 0.0))
    cfgb = RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5)
    with pytest.raises(ValueError):
        SimPlan(cfg=cfgb, dt=0.1, t_final=1.0, n_paths=5, seed=0, initial=(-0.1, 1.0))
    with pytest.raises(ValueError):  # the wall x_1 = 0 makes the type-B drift singular
        SimPlan(cfg=cfgb, dt=0.1, t_final=1.0, n_paths=5, seed=0, initial=(0.0, 1.0))


def test_relaxation_bound_values():
    assert relaxation_bound(InitStats(mean=np.array([0.0, 1.0, 2.0])), 2.0) == 10.0
    assert relaxation_bound(InitStats(mean=np.array([1.0, 2.0, 3.0])), 2.0) == 28.0
    assert relaxation_bound(InitStats(mean=np.zeros(3)), 0.5) == 0.0
    # beta below 1 does not shrink the bound
    assert relaxation_bound(InitStats(mean=np.array([2.0]), variance_total=1.0),
                            0.25) == 5.0


def test_relaxation_bound_refuses_what_makes_it_meaningless():
    # a NaN beta gave 1.0 through max(1.0, nan), and a NaN variance a NaN bound
    stats = InitStats(mean=np.array([0.0, 1.0]))
    for beta in (math.nan, math.inf, 0.0, -2.0):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            relaxation_bound(stats, beta)
    for variance in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="variance must be finite and nonnegative"):
            InitStats(mean=np.zeros(2), variance_total=variance)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="mean must be finite"):
            InitStats(mean=np.array([0.0, bad]))


def test_drift_hand_values():
    # type A, (0,1), beta=2: pair term 1/(x_i - x_j)
    d = drift(CFG_A2, np.array([0.0, 1.0]))
    assert np.allclose(d, [-1.0, 1.0])
    # type B, N=1: beta (2 nu + 1) / (4 x)
    cfgb = RootSystemConfig(TYPE_B, 1, 3.0, nu=0.5)
    db = drift(cfgb, np.array([2.0]))
    assert db[0] == pytest.approx(3.0 * 2.0 / (4 * 2.0))
    # type B, (1, 2), beta=2, nu=0.5: (-1/(2-1) + 1/(2+1) + 1/1, 1 + 1/3 + 1/2)
    db = drift(RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5), np.array([1.0, 2.0]))
    assert list(db) == pytest.approx([1 / 3, 11 / 6], rel=1e-15)
    with pytest.raises(ValueError, match="not strictly inside the Weyl chamber"):
        drift(CFG_A2, np.array([1.0, 1.0]))


def test_euler_step_moves_and_projects():
    state = ParticleState(positions=np.array([0.0, 1.0]), time=0.0)
    out = euler_step(CFG_A2, state, 1e-3, np.array([0.0, 0.0]))
    assert out.time == pytest.approx(1e-3)
    assert np.allclose(out.positions, [-1e-3, 1.0 + 1e-3])
    # a noise kick that swaps the order must come back sorted
    out2 = euler_step(CFG_A2, state, 1e-4, np.array([200.0, -200.0]))
    assert out2.positions[0] < out2.positions[1]


def test_euler_step_refuses_a_point_off_the_chamber_interior():
    # a tie would step to [-inf, 2.02, inf] with only a RuntimeWarning
    cfg = RootSystemConfig(TYPE_A, 3, 2.0)
    for x in ([1.0, 1.0, 2.0], [2.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="not strictly inside the Weyl chamber"):
            euler_step(cfg, ParticleState(positions=np.array(x), time=0.0), 0.01, np.zeros(3))


@pytest.mark.parametrize("cfg, x", [
    (RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5), [1e-320, 2e-320]),  # was [nan, inf]
    (CFG_A2, [0.0, 5e-324]),  # was [-inf, inf]
    # the pair's product (x_2 - x_1)(x_2 + x_1) underflows below about 1e-154
    (RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5), [1e-300, 2e-300]),
], ids=["B2_subnormal", "A2_subnormal_gap", "B2_product_underflow"])
def test_a_point_whose_drift_is_not_finite_is_refused(cfg, x):
    with pytest.raises(FloatingPointError, match="the drift overflows; the point is too close"):
        drift(cfg, np.array(x))
    state = ParticleState(positions=np.array(x), time=0.0)
    with pytest.raises(FloatingPointError, match="the drift overflows; the point is too close"):
        euler_step(cfg, state, 0.01, np.zeros(2))


def test_drift_stays_finite_above_the_product_edge():
    # (-1/2e-150 + 1/4e-150 + 1/1e-150, 1/2e-150 + 1/4e-150 + 1/3e-150)
    cfg = RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5)
    x = np.array([1e-150, 3e-150])
    assert list(drift(cfg, x)) == pytest.approx([0.75e150, 13 / 12 * 1e150], rel=1e-15)
    out = euler_step(cfg, ParticleState(positions=x, time=0.0), 1e-300, np.zeros(2))
    assert np.all(np.isfinite(out.positions))


def test_euler_step_refuses_non_finite_noise():
    # a NaN or infinite kick would land in the state without a word
    state = ParticleState(positions=np.array([0.0, 1.0]), time=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise must be finite"):
            euler_step(CFG_A2, state, 0.01, np.array([bad, 0.0]))


def test_n1_type_a_is_brownian_motion():
    cfg = RootSystemConfig(TYPE_A, 1, 5.0)  # beta must not matter at N=1
    plan = SimPlan(cfg=cfg, dt=1e-2, t_final=1.0, n_paths=20000, seed=11,
                   initial=(0.3,))
    fin = simulate_paths(plan)
    assert fin.mean() == pytest.approx(0.3, abs=0.03)
    assert fin.var() == pytest.approx(1.0, rel=0.05)


def test_n1_type_b_is_bessel():
    # dY = dB + beta(2nu+1)/(4Y) dt; d(Y^2) = 2Y dB + (beta(2nu+1)/2 + 1) dt
    beta, nu, t = 2.0, 0.5, 1.0
    cfg = RootSystemConfig(TYPE_B, 1, beta, nu=nu)
    plan = SimPlan(cfg=cfg, dt=2e-4, t_final=t, n_paths=20000, seed=12,
                   initial=(0.5,))
    fin = simulate_paths(plan)
    expected = 0.25 + (beta * (2 * nu + 1) / 2.0 + 1.0) * t
    assert float((fin ** 2).mean()) == pytest.approx(expected, rel=0.02)


def test_sum_of_squares_growth_identity():
    # E[sum x_t^2] = sum x_0^2 + (N + beta gamma) t for type A, any beta
    cfg = RootSystemConfig(TYPE_A, 3, 3.0)
    plan = SimPlan(cfg=cfg, dt=1e-3, t_final=0.5, n_paths=20000, seed=4,
                   initial=(-1.0, 0.0, 1.0))
    fin = simulate_paths(plan)
    expected = 2.0 + (3 + cfg.beta * gamma(cfg)) * 0.5
    assert float((fin ** 2).sum(axis=1).mean()) == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("cfg, x0", [
    (RootSystemConfig(TYPE_A, 7, 1e4), tuple(0.01 * i for i in range(-3, 4))),
    (RootSystemConfig(TYPE_B, 7, 1e4, nu=0.5), tuple(0.01 * i for i in range(1, 8))),
])
def test_sum_of_squares_identity_from_stiff_start(cfg, x0):
    # E|X_t|^2 = |x0|^2 + (N + beta gamma) t holds for both types; uniform
    # steps of dt from spacing 0.01 at beta = 1e4 overshoot and miss it by ~50-100%
    dt, t = 5e-5, 0.05
    steps = sde._step_schedule(cfg, x0, dt, t)
    assert steps[0] < dt and max(steps) == dt
    assert sum(steps) == pytest.approx(t, rel=1e-12)
    plan = SimPlan(cfg=cfg, dt=dt, t_final=t, n_paths=512, seed=8, initial=x0)
    fin = simulate_paths(plan)
    expected = float(np.dot(x0, x0)) + (cfg.n + cfg.beta * gamma(cfg)) * t
    assert float((fin ** 2).sum(axis=1).mean()) == pytest.approx(expected, rel=0.01)


def test_euler_bias_predicts_the_msq_excess():
    # the benchmark's A7 freezing leg: explicit Euler adds sum_k h_k^2 E|b(X_k)|^2
    # to E|X_t|^2 (about +12.9 here), and the monitor reports that sum
    cfg = RootSystemConfig(TYPE_A, 7, 1e4)
    x0 = tuple(0.01 * i for i in range(-3, 4))
    plan = SimPlan(cfg=cfg, dt=5e-5, t_final=0.01, n_paths=4096, seed=16, initial=x0)
    fin, stats = simulate_paths(plan, return_stats=True)
    r2 = (fin ** 2).sum(axis=1)
    excess = r2.mean() - (np.dot(x0, x0) + (cfg.n + cfg.beta * gamma(cfg)) * plan.t_final)
    se = r2.std(ddof=1) / math.sqrt(plan.n_paths)
    assert excess > 20 * se  # the bias is resolved at this size
    assert abs(excess - stats["euler_bias"]) <= 4 * se


@pytest.mark.parametrize("cfg, x0", [
    (RootSystemConfig(TYPE_A, 3, 0.5), (0.0, 0.5, 2.0)),
    (RootSystemConfig(TYPE_B, 4, 3.0, nu=1.5), (0.1, 0.2, 0.3, 4.0)),
    (RootSystemConfig(TYPE_B, 1, 2.0, nu=0.0), (1e-3,)),
], ids=["A3", "B4", "B1"])
def test_msq_moments_are_the_noncentral_chi_square_law(cfg, x0):
    # |X_t|^2 / t is chi'^2(N + beta gamma, |x0|^2 / t); scipy's moments
    from scipy.stats import ncx2
    t = 0.7
    plan = SimPlan(cfg=cfg, dt=0.1, t_final=t, n_paths=2, seed=0, initial=x0)
    k = cfg.n + cfg.beta * gamma(cfg)
    mean, var, kurt = ncx2.stats(k, np.dot(x0, x0) / t, moments="mvk")
    ref = (t * mean, t * t * var, t ** 4 * (kurt + 3.0) * var * var)
    assert sde.msq_moments(plan) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("cfg, x0, t", [
    # delta = beta + 1 at a pair wall and beta (nu + 1/2) + 1 at a coordinate
    # wall: 5 here, so E|b|^4 is finite and Euler's excess is O(dt)
    (RootSystemConfig(TYPE_A, 3, 4.0), (0.0, 0.5, 2.0), 0.5),
    # delta = 4 at every wall
    (RootSystemConfig(TYPE_B, 3, 3.0, nu=0.5), (0.5, 1.0, 2.0), 0.5),
    # the ensemble benchmark's start: spacing 1, which t = 0.025 keeps far from a wall
    (RootSystemConfig(TYPE_A, 7, 2.0), tuple(np.arange(7) - 3.0), 0.025),
], ids=["A3_beta4", "B3_beta3_nu0.5", "A7_beta2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_msq_mean_and_variance_match_the_squared_bessel_law(cfg, x0, t, seed):
    # |X_t|^2 is BESQ(N + beta gamma) for both types, so its mean and
    # variance are exact; signs with mean 0 and variance 1 keep both up to
    # Euler's O(dt) excess
    m = 32768
    plan = SimPlan(cfg=cfg, dt=1e-3, t_final=t, n_paths=m, seed=seed, initial=x0)
    fin, stats = simulate_paths(plan, return_stats=True)
    mean, var, mu4 = sde.msq_moments(plan)
    r2 = (fin ** 2).sum(axis=1)
    assert abs(r2.mean() - mean) <= 4 * math.sqrt(var / m)
    s2 = r2.var(ddof=1)
    assert stats["msq_var_ratio"] == pytest.approx(s2 / var, rel=1e-12)
    se = math.sqrt((mu4 - var * var * (m - 3) / (m - 1)) / m)
    assert stats["msq_var_z"] == pytest.approx((s2 - var) / se, rel=1e-9, abs=1e-12)
    assert abs(stats["msq_var_z"]) <= 4


def test_a_single_path_has_no_variance_to_report():
    plan = SimPlan(cfg=CFG_A2, dt=0.1, t_final=0.2, n_paths=1, seed=0, initial=(0.0, 1.0))
    stats = simulate_paths(plan, return_stats=True)[1]
    assert math.isnan(stats["msq_var_ratio"]) and math.isnan(stats["msq_var_z"])


def test_type_a_n1_finals_lie_on_a_lattice():
    # N = 1 has no drift, so each step adds +-sqrt(dt): after n steps the
    # finals are x0 + sqrt(dt) (n - 2j), a lattice of spacing 2 sqrt(dt).
    # sqrt(dt) = 1/8 here, so every sum is exact
    dt, n, x0 = 2.0 ** -6, 20, 0.5
    plan = SimPlan(cfg=RootSystemConfig(TYPE_A, 1, 2.0), dt=dt, t_final=n * dt, n_paths=4096,
                   seed=3, initial=(x0,))
    fin = simulate_paths(plan)
    offsets = (fin[:, 0] - x0) / math.sqrt(dt)
    assert set(offsets.tolist()) <= set(range(-n, n + 1, 2))
    # bins half the lattice spacing wide: every other one is empty
    h = scaled_histogram(fin, 1.0, x0 - 3.0 - 0.0625, x0 + 3.0 - 0.0625, math.sqrt(dt))
    assert h.counts[1::2].sum() == 0 and h.counts[::2].sum() == fin.size


def test_well_separated_start_keeps_uniform_schedule():
    # 1/stiffness at the start is at least dt, so no shorter steps are taken
    # and outputs stay bit-identical to the plain uniform schedule
    assert sde._step_schedule(CFG_A2, (0.0, 1.0), 1e-2, 0.1) == [1e-2] * 10
    # no roots at all (type A, N = 1): zero stiffness
    cfg1 = RootSystemConfig(TYPE_A, 1, 2.0)
    assert sde._step_schedule(cfg1, (0.0,), 0.3, 1.0) == [0.3, 0.3, 0.3, 1.0 - 3 * 0.3]


def test_start_too_close_to_a_wall_raises():
    # a gap of 1e-170 overflows the stiffness bound: refuse rather than spin
    plan = SimPlan(cfg=CFG_A2, dt=1e-2, t_final=0.1, n_paths=4, seed=0,
                   initial=(0.0, 1e-170))
    with pytest.raises(FloatingPointError):
        simulate_paths(plan)


def test_translation_covariance_type_a():
    base = SimPlan(cfg=CFG_A2, dt=1e-3, t_final=0.3, n_paths=8192, seed=21,
                   initial=(0.0, 1.0))
    shifted = SimPlan(cfg=CFG_A2, dt=1e-3, t_final=0.3, n_paths=8192, seed=22,
                      initial=(1.5, 2.5))
    f0 = simulate_paths(base)
    f1 = simulate_paths(shifted)
    m0 = f0.mean(axis=0).mean()
    m1 = f1.mean(axis=0).mean()
    se = math.sqrt(f0.sum(axis=1).var() + f1.sum(axis=1).var()) / (
        2 * math.sqrt(8192))
    assert abs((m1 - m0) - 1.5) <= 3 * se


def test_finals_stay_in_chamber():
    cfg = RootSystemConfig(TYPE_B, 3, 2.0, nu=0.5)
    plan = SimPlan(cfg=cfg, dt=1e-3, t_final=0.2, n_paths=512, seed=2,
                   initial=(0.1, 0.2, 0.3))
    fin, stats = simulate_paths(plan, return_stats=True)
    assert np.all(np.diff(fin, axis=1) >= 0)
    assert np.all(fin >= 0)
    # the tie-repair projection must be a rare event at sane step sizes
    assert stats["repairs"] / stats["particle_steps"] < 1e-6


def test_seed_changes_output():
    p1 = SimPlan(cfg=CFG_A2, dt=1e-2, t_final=0.1, n_paths=64, seed=1,
                 initial=(0.0, 1.0))
    p2 = SimPlan(cfg=CFG_A2, dt=1e-2, t_final=0.1, n_paths=64, seed=2,
                 initial=(0.0, 1.0))
    assert not np.array_equal(simulate_paths(p1), simulate_paths(p2))


def test_partial_final_step_lands_on_t_final():
    # t_final not an integer multiple of dt
    plan = SimPlan(cfg=RootSystemConfig(TYPE_A, 1, 2.0), dt=0.3, t_final=1.0,
                   n_paths=4096, seed=5, initial=(0.0,))
    fin = simulate_paths(plan)
    assert fin.var() == pytest.approx(1.0, rel=0.08)  # variance t = 1 exactly


@pytest.mark.parametrize("lo, hi, width, message", [
    (math.nan, 4.0, 0.01, "finite lo, hi and bin width"),
    (-4.0, math.inf, 0.01, "finite lo, hi and bin width"),
    (-4.0, 4.0, math.nan, "finite lo, hi and bin width"),
    (-math.inf, 4.0, 0.1, "finite lo, hi and bin width"),
    (0.0, 1e300, 1e-300, "bin width 1e-300 gives no finite bin count"),
])
def test_scaled_histogram_refuses_non_finite_bounds(lo, hi, width, message):
    # each raised "cannot convert float NaN/infinity to integer"
    with pytest.raises(ValueError, match=message):
        scaled_histogram([[0.5, 1.0]], 1.0, lo, hi, width)


def test_scaled_histogram_bookkeeping():
    finals = np.array([[-5.0, 0.05], [0.15, 0.25], [0.15, 9.0]])
    h = scaled_histogram(finals, 1.0, 0.0, 0.3, 0.1)
    assert h.n_bins == 3
    assert h.underflow == 1 and h.overflow == 1
    assert list(h.counts) == [1, 2, 1]
    assert h.counts.sum() + h.underflow + h.overflow == finals.size
    # density integrates to N minus the out-of-range loss
    dens = h.density(3)
    assert float(dens.sum() * h.bin_width) == pytest.approx((finals.size - 2) / 3)
    with pytest.raises(ValueError):
        scaled_histogram(finals, 1.0, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="no bin"):  # width 5 on [-1, 1]
        scaled_histogram(finals, 1.0, -1.0, 1.0, 5.0)
    # a zero or NaN scale would send every coordinate to +-inf or NaN
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale factor"):
            scaled_histogram(finals, bad, 0.0, 0.3, 0.1)
    # a coordinate beyond the int64 range of bins is still out of range
    h = scaled_histogram([[1e20, -1e20, 0.05]], 1.0, 0.0, 0.3, 0.1)
    assert (h.underflow, h.overflow, list(h.counts)) == (1, 1, [1, 0, 0])
    # a NaN has no bin, and an infinite final is no result: both are refused
    with pytest.raises(ValueError, match="2 of 4 coordinates are not finite"):
        scaled_histogram([[math.nan, 1.0], [0.5, math.inf]], 1.0, 0.0, 0.3, 0.1)
