"""End-to-end acceptance checks, one per numbered requirement.

Each test prints a single PASS/FAIL line with the measured quantity so the
suite output doubles as a run report.  Criteria 1, 7, 8, 9 and 10 run the
suites of `dunkl_lab.checks` (freezing, limits, jack, kernel, fke), the
registry behind `dunkl-lab verify`, at larger sizes than verify does; their
tolerances live there, their runtime bounds here.  Criterion 3 runs a
reduced fast variant by default (t=20, tolerance 0.15); set
DUNKL_LAB_FULL=1 for the full t=100 run with 10^5 paths (single-core
runtime well over an hour).
"""

import math
import os
import time

import numpy as np

from dunkl_lab import checks, intertwine, orthopoly, sde, symfunc
from dunkl_lab.rootsys import TYPE_A, TYPE_B, RootSystemConfig


def _report(k, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def _run_suite(k, suite, max_seconds, **sizes):
    """Criterion k is the registry suite at the criterion's sizes, within
    max_seconds; the line names the worst check relative to its bound."""
    t0 = time.time()
    records = checks.SUITES[suite](**sizes)
    dur = time.time() - t0
    failed = [r["name"] for r in records if not r["passed"]]
    worst = max(records, key=lambda r: r["value"] / r["tol"])
    _report(k, not failed and dur < max_seconds,
            f"{len(records)} checks, worst {worst['name']} = {worst['value']:.2e} "
            f"(tol {worst['tol']:g}), failed {failed}, runtime {dur:.2f}s")


def test_criterion_1_freezing_identities():
    _run_suite(1, "freezing", 5.0, ns=range(1, 26))


def test_criterion_2_log_discriminant_identities():
    t0 = time.time()
    worst = 0.0
    a = 1.5
    for n in range(2, 21):
        h = orthopoly.hermite_zeros(n).zeros
        lhs = 2 * sum(math.log(abs(h[j] - h[i]))
                      for i in range(n) for j in range(i + 1, n))
        rhs = sum(i * math.log(i) for i in range(1, n + 1)) \
            - n / 2 * (n - 1) * math.log(2)
        worst = max(worst, abs(lhs - rhs))
        l = orthopoly.laguerre_zeros(n, a).zeros
        lhs2 = 2 * sum(math.log(abs(l[j] - l[i]))
                       for i in range(n) for j in range(i + 1, n))
        rhs2 = sum((i - 1) * math.log(a + i) + i * math.log(i)
                   for i in range(1, n + 1))
        worst = max(worst, abs(lhs2 - rhs2))
    dur = time.time() - t0
    _report(2, worst <= 1e-9 and dur < 1.0,
            f"worst residual {worst:.2e}, runtime {dur:.2f}s")


def test_criterion_3_beta2_relaxation():
    full = os.environ.get("DUNKL_LAB_FULL") == "1"
    if full:
        t, dt, paths, tol = 100.0, 2e-4, 100000, 0.08
    else:
        t, dt, paths, tol = 20.0, 5e-4, 12000, 0.15
    cfg = RootSystemConfig(TYPE_A, 3, 2.0)
    plan = sde.SimPlan(cfg=cfg, dt=dt, t_final=t, n_paths=paths, seed=20140313,
                       initial=(0.0, 1.0, 2.0))
    fin = sde.simulate_paths(plan)
    s = math.sqrt(t)
    lo, hi, w = -4.0, 4.0, 0.05
    hist = sde.scaled_histogram(fin, s, lo, hi, w)
    dens = hist.density(paths)
    mids = 0.5 * (hist.edges()[:-1] + hist.edges()[1:])
    fine = np.linspace(lo, hi, 8 * len(mids) + 1)
    ef = orthopoly.density_a_exact(3, t, fine * s) * s
    exact = 0.5 * (ef[:-1] + ef[1:]).reshape(len(mids), 8).mean(axis=1)
    d1 = dens / (dens.sum() * w)
    e1 = exact / (exact.sum() * w)
    l1 = float(np.abs(d1 - e1).sum() * w)
    variant = "full" if full else "fast"
    _report(3, l1 <= tol,
            f"{variant} variant t={t:g}, L1 distance {l1:.4f} (tol {tol})")


def test_criterion_4_freezing_simulation():
    t0 = time.time()
    cfg = RootSystemConfig(TYPE_A, 7, 1e4)
    plan = sde.SimPlan(cfg=cfg, dt=5e-5, t_final=1.0, n_paths=50000,
                       seed=20140313,
                       initial=(-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03))
    fin = sde.simulate_paths(plan)
    scaled = fin / math.sqrt(cfg.beta * 1.0)
    means = scaled.mean(axis=0)
    target = orthopoly.hermite_zeros(7).zeros
    err = np.abs(means - target)
    dur = time.time() - t0
    _report(4, float(err.max()) <= 0.05,
            f"scaled means {np.round(means, 4).tolist()}, per-particle errors "
            f"{np.round(err, 4).tolist()}, max {err.max():.4f} (tol 0.05), "
            f"runtime {dur:.0f}s")


def test_criterion_5_nu_collapse():
    beta, nu, t = 2.0, 1e4, 0.5
    cfg = RootSystemConfig(TYPE_B, 7, beta, nu=nu)
    plan = sde.SimPlan(cfg=cfg, dt=2e-5, t_final=t, n_paths=2048,
                       seed=20140313, initial=tuple(0.1 * i for i in range(1, 8)))
    fin = sde.simulate_paths(plan)
    means = fin.mean(axis=0) / math.sqrt(beta * nu * t)
    err = np.abs(means - 1.0)
    _report(5, float(err.max()) <= 0.05,
            f"scaled means {np.round(means, 4).tolist()}, max deviation "
            f"{err.max():.4f} (tol 0.05)")


def test_criterion_6_intertwiner_closed_forms():
    n, beta, nu = 3, 2.0, 0.5
    a = symfunc.jack_to_monomial(
        intertwine.v_on_monomial(RootSystemConfig(TYPE_A, n, beta), (2,)))
    err = max(abs(a.coeffs[(2,)] - (beta + 2) / (beta * n + 2)),
              abs(a.coeffs[(1, 1)] - 2 * beta / (beta * n + 2)))
    b = symfunc.jack_to_monomial(
        intertwine.v_on_monomial(RootSystemConfig(TYPE_B, n, beta, nu=nu), (2,)))
    d = (beta * (nu + n - 0.5) + 1) * (beta * (nu + n - 0.5) + 3) * (beta * n + 2)
    err = max(err, abs(b.coeffs[(2,)] - 3 * (beta + 2) / d),
              abs(b.coeffs[(1, 1)] - 6 * beta / d))
    _report(6, err <= 1e-12, f"worst coefficient error {err:.2e}")


def test_criterion_7_limit_convergence():
    _run_suite(7, "limits", 10.0, ns=range(1, 5), degrees=range(1, 5))


def test_criterion_8_jack_specializations():
    _run_suite(8, "jack", 5.0, degrees=range(1, 7), seed=7)


def test_criterion_9_kernel_identities():
    _run_suite(9, "kernel", 120.0, n_samples=10**6, max_degree=18, seed=20140313)


def test_criterion_10_fke_residual():
    _run_suite(10, "fke", 5.0, ns=(2, 3), seed=37)


def test_criterion_11_relaxation_bound_values():
    b1 = sde.relaxation_bound(sde.InitStats(mean=np.array([0.0, 1.0, 2.0])), 2.0)
    b2 = sde.relaxation_bound(sde.InitStats(mean=np.array([1.0, 2.0, 3.0])), 2.0)
    _report(11, b1 == 10.0 and b2 == 28.0, f"bounds ({b1:g}, {b2:g}) vs (10, 28)")
