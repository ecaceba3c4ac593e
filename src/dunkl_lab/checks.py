"""One registry of the paper's numerical checks, shared by `dunkl-lab
verify` (small sizes) and tests/test_acceptance.py (criteria 1, 7-10).

Each suite in SUITES runs at the sizes and seed its caller passes and
returns records {name, value, tol, passed, seconds}: value is the measured
error (a residual, a relative distance or a Monte Carlo |z|), passed is
value <= tol (False on NaN) and seconds the wall time of that one check.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import equilibrium, intertwine, orthopoly, symfunc
from .rootsys import TYPE_A, TYPE_B, RootSystemConfig


def _record(name, value, tol, t0):
    value = float(value)
    return {"name": name, "value": value, "tol": tol,
            "passed": bool(value <= tol), "seconds": time.perf_counter() - t0}


def _rel_distance(p, q):
    """Worst coefficientwise distance of p from q, relative to q."""
    return max(abs(p.get(k, 0.0) - q.get(k, 0.0)) / max(abs(q.get(k, 0.0)), 1e-300)
               for k in set(p) | set(q))


def zero_oracle(cfg: RootSystemConfig) -> np.ndarray:
    """The freezing-limit peak set from polynomial zeros: the Hermite zeros
    (type A), the square roots of the Laguerre zeros with parameter nu - 1/2
    (type B)."""
    if cfg.kind == TYPE_A:
        return orthopoly.hermite_zeros(cfg.n).zeros
    return np.sqrt(orthopoly.laguerre_zeros(cfg.n, cfg.nu - 0.5).zeros)


def freezing(ns):
    """Type A and type B (nu in 0.5, 1, 2.5) at beta = 2 for each N in ns:
    the freezing identities and the peak set against the zero oracle, then
    the potential's Hessian at the peak set, whose eigenvalues are exactly
    c k, k = 1..N, with c = 1 (A) or 2 (B)."""
    out = []
    for n in ns:
        cases = [RootSystemConfig(TYPE_A, n, 2.0)]
        cases += [RootSystemConfig(TYPE_B, n, 2.0, nu=nu) for nu in (0.5, 1.0, 2.5)]
        for cfg in cases:
            t0 = time.perf_counter()
            rep = equilibrium.peak_set(cfg)
            err = max(rep.identity_residuals["potential_minus_constant"],
                      rep.identity_residuals["sq_norm_minus_gamma"],
                      float(np.max(np.abs(rep.minimizer - zero_oracle(cfg)))))
            suffix = f"{cfg.kind}_n{n}" + (f"_nu{cfg.nu}" if cfg.kind == TYPE_B else "")
            out.append(_record(f"freezing_{suffix}", err, 1e-9, t0))
            t0 = time.perf_counter()
            spectrum = (1.0 if cfg.kind == TYPE_A else 2.0) * np.arange(1, n + 1)
            err = np.max(np.abs(np.linalg.eigvalsh(rep.hessian) / spectrum - 1.0))
            out.append(_record(f"hessian_{suffix}", err, 1e-9, t0))
    return out


def limits(ns, degrees):
    """Every partition of each degree with at most N parts, for each N in ns."""
    out = []
    for n in ns:
        for lam in (lam for d in degrees for lam in symfunc.partitions_of(d, n)):
            # type B's image falls like beta^-|lambda| and converges at the
            # same O(1/beta) rate with a larger constant (~16/beta at
            # |lambda|=4, N=1), so beta = 1e8 there
            for cfg in (RootSystemConfig(TYPE_A, n, 1e6), RootSystemConfig(TYPE_B, n, 1e8, 0.5)):
                t0 = time.perf_counter()
                fin = symfunc.jack_to_monomial(intertwine.v_on_monomial(cfg, lam))
                rate = cfg.beta ** sum(lam) if cfg.kind == TYPE_B else 1.0
                scaled = {k: rate * c for k, c in fin.coeffs.items()}
                dist = _rel_distance(scaled, intertwine.v_limit_beta(cfg, lam).coeffs)
                out.append(_record(f"limit_{cfg.kind}_n{n}_{lam}", dist, 1e-5, t0))
            # filter product c / (c' (N/alpha)_tau) at alpha = 2e-8 (beta = 1e8):
            # 1/(N^d d!) on one-row partitions, 0 on the others
            t0 = time.perf_counter()
            v = intertwine._tau_weight(lam, 2e-8, n, None)
            tgt = 1.0 / (n ** lam[0] * math.factorial(lam[0])) if len(lam) == 1 else 0.0
            err = abs(v - tgt) / (tgt or 1.0)
            out.append(_record(f"filter_product_n{n}_{lam}", err, 1e-6, t0))
    return out


def jack(degrees, seed):
    """Every partition of each degree with at most 4 parts, at a random
    point of (0.3, 1.6)^4, then the P_(2) coefficient at N = 3."""
    rng = np.random.default_rng(seed)
    out = []
    for lam in (lam for d in degrees for lam in symfunc.partitions_of(d, 4)):
        t0 = time.perf_counter()
        x = rng.uniform(0.3, 1.6, size=4)
        ps = symfunc.schur_eval(lam, x)
        rel = abs(symfunc.jack_eval(lam, 1.0, x) - ps) / max(1.0, abs(ps))
        out.append(_record(f"jack_schur_{lam}", rel, 1e-9, t0))
    for a in (0.1, 1.0, 2.0, 10.0):
        t0 = time.perf_counter()
        err = abs(symfunc.jack_coeffs((2,), a, 3).coeffs[(1, 1)] - 2.0 / (1.0 + a))
        out.append(_record(f"jack_p2_alpha{a:g}", err, 1e-12, t0))
    return out


def kernel(n_samples, max_degree, seed):
    """exp(sum x) = 0F0(x; 1) at alpha = 1, degree 30, at three fixed random
    points of [-1, 1]^3; then the reproducing identity at beta = 2 for type A
    at N = 1 and 2 and for type B (nu = 0.5) at N = 2, with the Gaussian-weight
    sampler seeded seed + N."""
    out = []
    rng = np.random.default_rng(19)
    params = intertwine.HyperSeriesParams(alpha=1.0, n_vars=3, max_degree=30)
    for k in range(3):
        t0 = time.perf_counter()
        x = rng.uniform(-1.0, 1.0, size=3)
        val, _ = intertwine.hyper_series(params, x, np.ones(3))
        out.append(_record(f"exp_identity_{k}", abs(val - math.exp(float(x.sum()))),
                           1e-10, t0))
    cases = [(RootSystemConfig(TYPE_A, n, 2.0), np.linspace(-0.4, 0.1, n)) for n in (1, 2)]
    cases.append((RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5), np.linspace(0.1, 0.4, 2)))
    for cfg, z in cases:
        t0 = time.perf_counter()
        lhs, rhs, se = intertwine.kernel_reproducing_check(
            cfg, np.linspace(0.2, 0.5, cfg.n), z, n_samples=n_samples,
            max_degree=max_degree, seed=seed + cfg.n)
        out.append(_record(f"kernel_reproducing_{cfg.kind}_n{cfg.n}", abs(lhs - rhs) / se,
                           3.0, t0))
    return out


def fke(ns, seed):
    """Ten random chamber points (gaps >= 0.05) for type A and type B
    (nu = 0.5) at beta = 2 for each N in ns; the residual is relative to the
    size of its terms."""
    rng = np.random.default_rng(seed)
    out = []
    for kind, nu in ((TYPE_A, None), (TYPE_B, 0.5)):
        for n in ns:
            cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
            fn = lambda v, c=cfg: equilibrium.steady_state_logdensity(c, v)  # noqa: E731
            done = 0
            while done < 10:
                t0 = time.perf_counter()
                v = np.sort(rng.uniform(0.3 if kind == TYPE_B else -2.0, 2.0, size=n))
                if n > 1 and np.min(np.diff(v)) < 0.05:
                    continue
                r = equilibrium.fke_residual(cfg, fn, v)
                out.append(_record(f"fke_{kind}_n{n}_{done}", abs(r.value) / r.term_scale,
                                   1e-4, t0))
                done += 1
    return out


SUITES = {"freezing": freezing, "fke": fke, "kernel": kernel, "jack": jack,
          "limits": limits}
