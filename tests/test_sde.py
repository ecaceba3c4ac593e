import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

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
    """The pair-loop drift that the root-table pass replaced, kept as its oracle."""
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
    its oracle."""
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
        else:
            out[:, j] += k / x[:, j]
    return cfg.beta / 2.0 * out


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


def _run_chunk_rows(plan, lo, hi, steps):
    """sde._run_chunk on (m, N) rows with a full sort every step, kept as its
    oracle: lane l, paths 1024 l to 1024 l + 1023, draws its rows of each
    step's noise from its own SFC64 stream, keyed by (seed, l).  Returns
    the finals, the repair count and each path's sum of |h b|^2."""
    cfg = plan.cfg
    seed = int(plan.seed) & ((1 << 64) - 1)
    edges = list(range(lo, hi, 1024)) + [hi]
    lanes = [(Generator(SFC64(SeedSequence(seed, spawn_key=(a // 1024,)))), c - a)
             for a, c in zip(edges, edges[1:])]
    x = np.tile(np.asarray(plan.initial, dtype=float), (hi - lo, 1))
    repairs, bias = 0, np.zeros(hi - lo)
    for dt_k in steps:
        noise = np.concatenate([rng.standard_normal((rows, cfg.n)) for rng, rows in lanes])
        hb = _drift_rows(cfg, x) * dt_k
        sq = np.zeros(hi - lo)
        for k in range(cfg.n):  # particle by particle, as the step sums them
            sq += hb[:, k] * hb[:, k]
        bias += sq
        x += hb + math.sqrt(dt_k) * noise
        repairs += _project_rows(cfg, x)
    return x, repairs, bias


def _run_chunk(plan, lo, hi, steps, workers=1):
    """sde._run_chunk on a pool of the given size, with the pool's submit count."""
    with _CountingPool(workers) as pool:
        return *sde._run_chunk(plan, lo, hi, steps, pool), pool.submitted


class _CountingPool(ThreadPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
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


_CHUNK_CASES = [
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


@pytest.mark.parametrize("cfg, x0, dt, n_steps, m", _CHUNK_CASES,
                         ids=["A32", "B32_nu0.5", "criterion4", "B7_beta1e4", "A3_beta0.5",
                              "B4_nu0"])
def test_particle_major_chunk_matches_rows_bit_for_bit(cfg, x0, dt, n_steps, m):
    plan = SimPlan(cfg=cfg, dt=dt, t_final=dt * n_steps, n_paths=m, seed=7, initial=x0)
    steps = sde._step_schedule(cfg, x0, dt, plan.t_final)
    finals, repairs, bias, submitted = _run_chunk(plan, 0, m, steps)
    assert submitted == 1  # one tile, run through the whole schedule at once
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert repairs == ref_repairs
    assert bias == ref_bias.sum()
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
def test_tiled_chunk_matches_rows_bit_for_bit(cfg, x0, dt, n_steps, m):
    plan = SimPlan(cfg=cfg, dt=dt, t_final=dt * n_steps, n_paths=m, seed=7, initial=x0)
    steps = sde._step_schedule(cfg, x0, dt, plan.t_final)
    finals, repairs, bias, submitted = _run_chunk(plan, 0, m, steps, workers=2)
    assert len(sde._tiles(m, cfg.n, 2)) == submitted == 2  # one submit per tile
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert repairs == ref_repairs
    assert bias == ref_bias.sum()


def test_tiled_chunk_with_more_workers_than_cores():
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
        finals, repairs, bias, submitted = _run_chunk(plan, 0, m, steps, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert submitted == 3
    ref, ref_repairs, ref_bias = _run_chunk_rows(plan, 0, m, steps)
    assert np.array_equal(finals, ref)
    assert repairs == ref_repairs
    assert bias == ref_bias.sum()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_finals_do_not_depend_on_the_pool(monkeypatch, workers):
    # a full chunk of four tiles at most and a partial one of two at most,
    # seven lanes, the last of 3 paths; about 8% of the paths are re-sorted
    # each step
    cfg = RootSystemConfig(TYPE_A, 3, 0.5)
    n_paths = sde._CHUNK + 6 * sde._LANE + 3
    plan = SimPlan(cfg=cfg, dt=5e-2, t_final=1.0, n_paths=n_paths, seed=10,
                   initial=(0.0, 0.05, 0.1))
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    full, r0, b0 = _run_chunk_rows(plan, 0, sde._CHUNK, steps)
    part, r1, b1 = _run_chunk_rows(plan, sde._CHUNK, n_paths, steps)
    monkeypatch.setattr(sde, "_workers", lambda: workers)
    finals, stats = simulate_paths(plan, return_stats=True)
    assert np.array_equal(finals, np.concatenate([full, part]))
    assert stats["repairs"] == r0 + r1
    assert stats["euler_bias"] == (b0.sum() + b1.sum()) / n_paths
    assert stats["workers"] == workers
    assert stats["tiles"] == min(workers, 4) + min(workers, 2)


def test_whole_lanes_keep_their_bits():
    # paths beyond the last whole lane do not move the bits of those before
    cfg = RootSystemConfig(TYPE_B, 3, 1.0, nu=0.0)
    kw = dict(cfg=cfg, dt=2e-2, t_final=0.4, seed=11, initial=(0.01, 0.02, 0.03))
    whole = simulate_paths(SimPlan(n_paths=2 * sde._LANE, **kw))
    more = simulate_paths(SimPlan(n_paths=2 * sde._LANE + 5, **kw))
    assert np.array_equal(more[:2 * sde._LANE], whole)


def test_two_chunks_and_a_partial_one_do_not_depend_on_the_pool():
    cfg = RootSystemConfig(TYPE_B, 2, 1.0, nu=0.0)
    n_paths = 2 * sde._CHUNK + 300
    plan = SimPlan(cfg=cfg, dt=2e-2, t_final=0.1, n_paths=n_paths, seed=6,
                   initial=(0.01, 0.02))
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    bounds = [(0, sde._CHUNK), (sde._CHUNK, 2 * sde._CHUNK), (2 * sde._CHUNK, n_paths)]
    serial = [_run_chunk(plan, lo, hi, steps) for lo, hi in bounds]
    pooled = [_run_chunk(plan, lo, hi, steps, workers=2) for lo, hi in bounds]
    for (f0, r0, b0, _), (f1, r1, b1, _) in zip(serial, pooled):
        assert np.array_equal(f0, f1) and r0 == r1 and b0 == b1
    finals, stats = simulate_paths(plan, return_stats=True)
    assert np.array_equal(finals, np.concatenate([f for f, _, _, _ in serial]))
    assert stats["repairs"] == sum(r for _, r, _, _ in serial)
    assert stats["workers"] == len(os.sched_getaffinity(0))
    assert stats["tiles"] == 2 * min(2, stats["workers"]) + 1


def test_partial_chunk_matches_rows_bit_for_bit():
    # a full chunk and a partial second one, each lane on its own SFC64
    # stream; about 13% of the paths are re-sorted each step
    cfg = RootSystemConfig(TYPE_B, 2, 1.0, nu=0.0)
    n_paths = sde._CHUNK + 300
    plan = SimPlan(cfg=cfg, dt=2e-2, t_final=0.2, n_paths=n_paths, seed=5,
                   initial=(0.01, 0.02))
    finals, stats = simulate_paths(plan, return_stats=True)
    steps = sde._step_schedule(cfg, plan.initial, plan.dt, plan.t_final)
    full, r0, _ = _run_chunk_rows(plan, 0, sde._CHUNK, steps)
    part, r1, _ = _run_chunk_rows(plan, sde._CHUNK, n_paths, steps)
    assert np.array_equal(finals, np.concatenate([full, part]))
    assert stats["repairs"] == r0 + r1


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
    with pytest.raises(ValueError):
        SimPlan(cfg=CFG_A2, dt=0.1, t_final=1.0, n_paths=0, seed=0, initial=(0.0, 1.0))
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


def test_drift_hand_values():
    # type A, (0,1), beta=2: pair term 1/(x_i - x_j)
    d = drift(CFG_A2, np.array([0.0, 1.0]))
    assert np.allclose(d, [-1.0, 1.0])
    # type B, N=1: beta (2 nu + 1) / (4 x)
    cfgb = RootSystemConfig(TYPE_B, 1, 3.0, nu=0.5)
    db = drift(cfgb, np.array([2.0]))
    assert db[0] == pytest.approx(3.0 * 2.0 / (4 * 2.0))
    with pytest.raises(ValueError):
        drift(CFG_A2, np.array([1.0, 1.0]))


def test_euler_step_moves_and_projects():
    state = ParticleState(positions=np.array([0.0, 1.0]), time=0.0)
    out = euler_step(CFG_A2, state, 1e-3, np.array([0.0, 0.0]))
    assert out.time == pytest.approx(1e-3)
    assert np.allclose(out.positions, [-1e-3, 1.0 + 1e-3])
    # a noise kick that swaps the order must come back sorted
    out2 = euler_step(CFG_A2, state, 1e-4, np.array([200.0, -200.0]))
    assert out2.positions[0] < out2.positions[1]


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
