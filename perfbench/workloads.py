"""The benchmark's workloads: which calls into dunkl_lab, on which inputs,
and how each result is checked.

`build(name, seed, tiny)` returns a workload's operations.  An Op's `call`
makes the timed program calls through `lab`, a namespace of freshly
imported dunkl_lab modules, and returns what the program returned.  Its
`check(out, obs)` runs after the timer stops and raises
oracles.CheckFailed on a wrong result.  Inputs depend on the seed alone;
`tiny` shrinks run lengths (paths, points, samples, N) for the
benchmark's own tests.

An Op with `defect` set failed on the program when this benchmark was
written, for the reason given.  It is run, timed and counted like any
other operation, and its failure shows in `failed`; only a failure of an
operation without `defect` makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("ensemble", "crowded", "series", "equilibrium")

#: the sde module's fixed path-chunk size (its Philox stream layout)
CHUNK = 1 << 14
#: seed convention of `dunkl-lab verify --suite kernel`: default seed + N
REPRODUCING_SEED = 20140313


@dataclass
class Op:
    name: str
    call: Callable
    check: Callable
    defect: str = ""
    work: dict = field(default_factory=dict)


def build(name, seed, tiny=False):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return globals()["_" + name](int(seed), bool(tiny))


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _chamber_points(rng, m, n, lo, hi, gap):
    """m sorted points in (lo, hi)^n whose coordinates differ by >= gap.

    The gap keeps the Vandermonde divisors of the determinant oracles away
    from zero, where they would lose digits to cancellation.
    """
    out = np.empty((m, n))
    k = 0
    while k < m:
        cand = np.sort(rng.uniform(lo, hi, size=(2 * m, n)), axis=1)
        cand = cand[np.min(np.diff(cand, axis=1), axis=1) >= gap]
        take = min(m - k, len(cand))
        out[k:k + take] = cand[:take]
        k += take
    return out


def _monomials(max_degree, n):
    """Monomials a degree-max_degree series in n variables sums: the number
    of partitions of d = 0..max_degree with at most n parts."""
    table = [[1] + [0] * max_degree for _ in range(n + 1)]  # table[k][d]: parts <= k
    for k in range(1, n + 1):
        for d in range(1, max_degree + 1):
            table[k][d] = table[k - 1][d] + (table[k][d - k] if d >= k else 0)
    return sum(table[n])


# ---------------------------------------------------------------------------
# ensemble and crowded: the particle SDE
# ---------------------------------------------------------------------------

def _sde_leg(name, kind, n, beta, nu, x0, dt, steps, paths, sde_seed, bins, defect=""):
    t = dt * steps
    scale = math.sqrt(beta * t)
    lo, hi, width = bins
    x0 = tuple(float(v) for v in x0)
    sde_seed = int(sde_seed)

    def call(lab):
        cfg = lab.rootsys.RootSystemConfig(kind, n, beta, nu)
        plan = lab.sde.SimPlan(cfg=cfg, dt=dt, t_final=t, n_paths=paths, seed=sde_seed,
                               initial=x0)
        finals, _ = lab.sde.simulate_paths(plan, return_stats=True)
        return finals, lab.sde.scaled_histogram(finals, scale, lo, hi, width)

    def check(out, obs):
        finals, hist = out
        oracles.check_ensemble(obs, finals, x0, kind, beta, nu, t)
        oracles.check_histogram(hist.counts, hist.underflow, hist.overflow,
                                hist.total_particles, finals, scale, lo, width)

    return Op(name, call, check, defect, {"particle_steps": paths * steps * n})


def _ensemble(seed, tiny):
    rng = _rng(seed, 1)
    paths, steps = (256, 3) if tiny else (2 * CHUNK, 25)
    seeds = rng.integers(1 << 62, size=3)
    x_a = np.arange(7) - 3.0 + rng.uniform(-0.2, 0.2, 7)
    y_b = np.arange(1, 8) + rng.uniform(-0.2, 0.2, 7)
    return [
        _sde_leg("sde.A7_beta2", "A", 7, 2.0, None, x_a, 1e-3, steps, paths, seeds[0],
                 (-20.0, 20.0, 0.02)),
        _sde_leg("sde.B7_beta2_nu0.5", "B", 7, 2.0, 0.5, y_b, 1e-3, steps, paths, seeds[1],
                 (0.0, 40.0, 0.02)),
        # the criterion-4 start: spacing 0.01 at beta = 1e4
        _sde_leg("sde.A7_freezing", "A", 7, 1e4, None, 0.01 * np.arange(-3, 4), 5e-5,
                 5 if tiny else 200, 128 if tiny else CHUNK, seeds[2], (-8.0, 8.0, 0.01),
                 defect="ROADMAP defect 1: explicit Euler steps from spacing 0.01 at "
                        "beta=1e4 overshoot, so E|X_t|^2 misses its exact value"),
    ]


def _crowded(seed, tiny):
    rng = _rng(seed, 2)
    n, paths, steps = (8, 64, 3) if tiny else (32, 4096, 20)
    seeds = rng.integers(1 << 62, size=2)
    x_a = np.linspace(-n / 2, n / 2, n) + rng.uniform(-0.2, 0.2, n)
    y_b = np.arange(1, n + 1) + rng.uniform(-0.2, 0.2, n)
    return [
        _sde_leg(f"sde.A{n}_beta2", "A", n, 2.0, None, x_a, 1e-3, steps, paths, seeds[0],
                 (-100.0, 100.0, 0.05)),
        _sde_leg(f"sde.B{n}_beta2_nu0.5", "B", n, 2.0, 0.5, y_b, 1e-3, steps, paths, seeds[1],
                 (0.0, 200.0, 0.05)),
    ]


# ---------------------------------------------------------------------------
# series: kernels, transition densities and the reproducing identity
# ---------------------------------------------------------------------------

def _kernel_op(name, cfg_args, x, ys, degree, reference, rtol=oracles.RTOL_DET):
    def call(lab):
        cfg = lab.rootsys.RootSystemConfig(*cfg_args)
        return lab.intertwine.bessel_kernel(cfg, x, ys, max_degree=degree)

    def check(out, obs):
        oracles.check_kernel(out, reference(), name, rtol)

    work = {"point_monomials": len(ys) * _monomials(degree, cfg_args[1])}
    return Op(name, call, check, work=work)


def _transition_op(name, t, y, x, degree):
    def call(lab):
        cfg = lab.rootsys.RootSystemConfig("A", 3, 2.0)
        return lab.intertwine.radial_transition_logdensity(cfg, t, y, x, max_degree=degree)

    def check(out, obs):
        oracles.check_transition(obs, out.value, out.last_shell_ratio, out.converged, t, y, x)

    return Op(name, call, check)


def _reproducing_op(n, beta, n_samples, degree, defect=""):
    y = np.linspace(0.2, 0.5, n)
    z = np.linspace(-0.4, 0.1, n)

    def call(lab):
        cfg = lab.rootsys.RootSystemConfig("A", n, beta)
        return lab.intertwine.kernel_reproducing_check(
            cfg, y, z, n_samples=n_samples, max_degree=degree, seed=REPRODUCING_SEED + n)

    def check(out, obs):
        oracles.check_reproducing(obs, *out)

    return Op(f"intertwine.reproducing_A{n}_beta{beta:g}", call, check, defect)


def _series(seed, tiny):
    rng = _rng(seed, 3)
    degree = 18
    points = 64 if tiny else 16384
    ops = []
    x = _chamber_points(rng, 1, 3, -0.6, 0.6, 0.15)[0]
    ys = _chamber_points(rng, points, 3, -0.6, 0.6, 0.15)
    ops.append(_kernel_op("intertwine.kernel_A3_beta2", ("A", 3, 2.0), x, ys, degree,
                          lambda: oracles.kernel_a_beta2(x, ys)))
    xb = _chamber_points(rng, 1, 3, 0.1, 1.2, 0.15)[0]
    ysb = _chamber_points(rng, points // 4, 3, 0.1, 1.2, 0.15)
    ops.append(_kernel_op("intertwine.kernel_B3_beta2_nu0.5", ("B", 3, 2.0, 0.5), xb, ysb,
                          degree, lambda: oracles.kernel_b_beta2(xb, ysb, 0.5)))
    for beta in (0.7, 2.0, 5.0):
        x2 = rng.uniform(-0.8, 0.8, 2)
        ys2 = rng.uniform(-0.8, 0.8, (points // 8, 2))
        ops.append(_kernel_op(
            f"intertwine.kernel_A2_beta{beta:g}", ("A", 2, beta), x2, ys2, degree,
            lambda x2=x2, ys2=ys2, beta=beta: oracles.kernel_a_n2(x2, ys2, beta),
            oracles.RTOL_CLOSED_FORM))
    for k in range(1 if tiny else 3):
        t = float(rng.uniform(0.8, 1.2))
        x0, y = _chamber_points(rng, 2, 3, -0.8, 0.8, 0.15)
        ops.append(_transition_op(f"intertwine.transition_A3_{k}", t, y, x0, 24))
    samples = 4096 if tiny else 1 << 14
    ops.append(_reproducing_op(2, 2.0, samples, degree))
    ops.append(_reproducing_op(3, 8.0, samples, degree, defect=(
        "ROADMAP defect 4: the Gaussian-weight sampler's acceptance falls below 1e-3 "
        "at N=3, beta=8, and it raises")))
    return ops


# ---------------------------------------------------------------------------
# equilibrium: Fekete points, zeros, beta = 2 densities and the CLI
# ---------------------------------------------------------------------------

def _peak_op(kind, n, nu):
    def call(lab):
        return lab.equilibrium.peak_set(lab.rootsys.RootSystemConfig(kind, n, 2.0, nu))

    def check(out, obs):
        oracles.check_peak_set(out.minimizer, out.potential_at_min, kind, n, nu)

    suffix = f"_nu{nu:g}" if kind == "B" else ""
    return Op(f"equilibrium.peak_{kind}{n}{suffix}", call, check)


def _sweep_op(max_n):
    configs = [(kind, n, nu) for n in range(1, max_n + 1)
               for kind, nu in (("A", None), ("B", 0.5), ("B", 1.0), ("B", 2.5))]

    def call(lab):
        cfg = lab.rootsys.RootSystemConfig
        return [lab.equilibrium.peak_set(cfg(kind, n, 2.0, nu)) for kind, n, nu in configs]

    def check(out, obs):
        for (kind, n, nu), rep in zip(configs, out, strict=True):
            oracles.check_peak_set(rep.minimizer, rep.potential_at_min, kind, n, nu)

    return Op(f"equilibrium.freezing_sweep_n1-{max_n}", call, check)


def _zeros_ops(n, alpha, hermite_defect):
    def hermite(lab):
        return lab.orthopoly.hermite_zeros(n).zeros

    def laguerre(lab):
        return lab.orthopoly.laguerre_zeros(n, alpha).zeros

    return [
        Op(f"orthopoly.hermite_zeros_{n}", hermite,
           lambda out, obs: oracles.check_hermite_zeros(out, n), hermite_defect),
        Op(f"orthopoly.laguerre_zeros_{n}", laguerre,
           lambda out, obs: oracles.check_laguerre_zeros(out, n, alpha)),
    ]


def _density_ops(n, t, nu, b_defect):
    edge = 2.0 * math.sqrt(n * t)  # spectral edge of the type-A density
    ya = np.linspace(-1.2 * edge, 1.2 * edge, 2001)
    edge_b = math.sqrt(2.0 * t * (4 * n + 2 * nu + 2))
    yb = np.linspace(1.2 * edge_b / 2001, 1.2 * edge_b, 2001)
    return [
        Op(f"orthopoly.density_a_{n}",
           lambda lab: lab.orthopoly.density_a_exact(n, t, ya),
           lambda out, obs: oracles.check_density(
               out, oracles.density_a_beta2(n, t, ya), f"density_a_exact({n})")),
        Op(f"orthopoly.density_b_{n}",
           lambda lab: lab.orthopoly.density_b_exact(n, nu, t, yb),
           lambda out, obs: oracles.check_density(
               out, oracles.density_b_beta2(n, nu, t, yb), f"density_b_exact({n})"),
           b_defect),
    ]


def _verify_op(suites, seed):
    argv = ["verify"] + [a for s in suites for a in ("--suite", s)] + ["--seed", str(seed)]

    def call(lab):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = lab.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        return code, buf.getvalue()

    def check(out, obs):
        code, text = out
        try:
            payload = json.loads(text)
        except ValueError:
            raise oracles.CheckFailed(f"verify printed no JSON (exit code {code})") from None
        oracles.check_verify(code, payload)

    return Op("cli.verify_" + "_".join(suites), call, check)


def _equilibrium(seed, tiny):
    rng = _rng(seed, 4)
    if tiny:
        peaks = [("A", 10, None), ("A", 20, None), ("B", 6, 0.5), ("B", 12, 2.5)]
        sweep_n, zeros_n, density_n = 4, 30, 10
    else:
        peaks = [("A", 100, None), ("A", 300, None), ("B", 60, 0.5), ("B", 60, 2.5),
                 ("B", 120, 0.5), ("B", 120, 2.5)]
        sweep_n, zeros_n, density_n = 25, 300, 150
    ops = [_peak_op(*p) for p in peaks]
    ops.append(_sweep_op(sweep_n))
    ops += _zeros_ops(zeros_n, float(rng.uniform(0.25, 3.0)), hermite_defect=(
        "hermite_eval overflows for large n, so hermite_zeros(300) returns NaN "
        "without raising"))
    ops += _density_ops(density_n, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.5)),
                        b_defect="ROADMAP defect 3: density_b_exact overflows to inf/NaN "
                                 "at N >= 150")
    ops.append(_verify_op(("freezing", "fke", "jack", "limits"),
                          int(rng.integers(1 << 31))))
    return ops
