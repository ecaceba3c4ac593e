"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

A tiny run of every workload must print every metric BENCHMARK.json
declares, with its unit; each oracle must accept the program's own output
and reject a slightly perturbed copy; the span recorder must put back what
it wraps; and without the program the benchmark must fail with no result.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.use_program_source()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def lab():
    return run.fresh_import()


def _rejects(check, *args):
    with pytest.raises(oracles.CheckFailed):
        check(*args)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    p = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.fullmatch(m["name"])
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"metric {m['name']} = " in p.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert p.stdout == ""


def test_monomial_count_matches_the_series():
    assert workloads._monomials(18, 3) == 274


def test_ensemble_oracle_rejects_a_shifted_ensemble(lab):
    x0 = (-1.5, -0.5, 0.5, 1.5)
    cfg = lab.rootsys.RootSystemConfig("A", 4, 2.0)
    plan = lab.sde.SimPlan(cfg=cfg, dt=1e-3, t_final=0.02, n_paths=4096, seed=3, initial=x0)
    finals = lab.sde.simulate_paths(plan)
    oracles.check_ensemble({}, finals, x0, "A", 2.0, None, 0.02)
    _rejects(oracles.check_ensemble, {}, finals + 0.01, x0, "A", 2.0, None, 0.02)

    y0 = (0.5, 1.0, 1.5, 2.0)
    cfg = lab.rootsys.RootSystemConfig("B", 4, 2.0, 0.5)
    plan = lab.sde.SimPlan(cfg=cfg, dt=1e-3, t_final=0.02, n_paths=4096, seed=4, initial=y0)
    finals = lab.sde.simulate_paths(plan)
    oracles.check_ensemble({}, finals, y0, "B", 2.0, 0.5, 0.02)
    _rejects(oracles.check_ensemble, {}, finals * 1.01, y0, "B", 2.0, 0.5, 0.02)


def test_histogram_oracle_rejects_a_moved_count(lab):
    finals = np.random.default_rng(1).normal(size=(500, 3))
    h = lab.sde.scaled_histogram(finals, 2.0, -1.0, 1.0, 0.1)
    args = (h.underflow, h.overflow, h.total_particles, finals, 2.0, -1.0, 0.1)
    oracles.check_histogram(h.counts, *args)
    moved = h.counts.copy()
    moved[5] -= 1
    moved[6] += 1
    _rejects(oracles.check_histogram, moved, *args)


def test_kernel_oracles_reject_a_scaled_kernel(lab):
    rng = np.random.default_rng(2)
    cases = [
        (("A", 3, 2.0), (-0.6, 0.6), lambda x, ys: oracles.kernel_a_beta2(x, ys),
         oracles.RTOL_DET),
        (("B", 3, 2.0, 0.5), (0.1, 1.2), lambda x, ys: oracles.kernel_b_beta2(x, ys, 0.5),
         oracles.RTOL_DET),
        (("A", 2, 0.7), (-0.8, 0.8), lambda x, ys: oracles.kernel_a_n2(x, ys, 0.7),
         oracles.RTOL_CLOSED_FORM),
    ]
    for cfg_args, (lo, hi), reference, rtol in cases:
        n = cfg_args[1]
        x = workloads._chamber_points(rng, 1, n, lo, hi, 0.15)[0]
        ys = workloads._chamber_points(rng, 64, n, lo, hi, 0.15)
        values = lab.intertwine.bessel_kernel(lab.rootsys.RootSystemConfig(*cfg_args), x, ys,
                                              max_degree=18)
        ref = reference(x, ys)
        oracles.check_kernel(values, ref, str(cfg_args), rtol)
        _rejects(oracles.check_kernel, values * (1 + 1e-6), ref, str(cfg_args), rtol)


def test_transition_oracle_rejects_a_shifted_log_density(lab):
    x = np.array([-0.5, 0.0, 0.4])
    y = np.array([-0.3, 0.2, 0.7])
    r = lab.intertwine.radial_transition_logdensity(lab.rootsys.RootSystemConfig("A", 3, 2.0),
                                                    1.0, y, x, max_degree=24)
    oracles.check_transition({}, r.value, r.last_shell_ratio, r.converged, 1.0, y, x)
    _rejects(oracles.check_transition, {}, r.value + 1e-6, r.last_shell_ratio, r.converged,
             1.0, y, x)


def test_reproducing_oracle_rejects_a_shifted_estimate(lab):
    cfg = lab.rootsys.RootSystemConfig("A", 2, 2.0)
    lhs, rhs, se = lab.intertwine.kernel_reproducing_check(
        cfg, np.linspace(0.2, 0.5, 2), np.linspace(-0.4, 0.1, 2), n_samples=4096,
        max_degree=18, seed=workloads.REPRODUCING_SEED + 2)
    oracles.check_reproducing({}, lhs, rhs, se)
    _rejects(oracles.check_reproducing, {}, rhs + 4 * se, rhs, se)


def test_zero_oracles_reject_a_moved_zero(lab):
    h = lab.orthopoly.hermite_zeros(20).zeros
    oracles.check_hermite_zeros(h, 20)
    _rejects(oracles.check_hermite_zeros, h + np.eye(20)[0] * 1e-6, 20)
    lz = lab.orthopoly.laguerre_zeros(20, 1.5).zeros
    oracles.check_laguerre_zeros(lz, 20, 1.5)
    _rejects(oracles.check_laguerre_zeros, lz * (1 + 1e-6), 20, 1.5)


def test_peak_set_oracle_rejects_a_perturbed_report(lab):
    for kind, n, nu in (("A", 10, None), ("B", 8, 2.5)):
        rep = lab.equilibrium.peak_set(lab.rootsys.RootSystemConfig(kind, n, 2.0, nu))
        oracles.check_peak_set(rep.minimizer, rep.potential_at_min, kind, n, nu)
        _rejects(oracles.check_peak_set, rep.minimizer, rep.potential_at_min + 1e-6,
                 kind, n, nu)
        _rejects(oracles.check_peak_set, rep.minimizer * (1 + 1e-6), rep.potential_at_min,
                 kind, n, nu)


def test_density_oracles_reject_a_scaled_density(lab):
    y = np.linspace(-8.0, 8.0, 401)
    d = lab.orthopoly.density_a_exact(10, 1.0, y)
    ref = oracles.density_a_beta2(10, 1.0, y)
    oracles.check_density(d, ref, "a")
    _rejects(oracles.check_density, d * (1 + 1e-6), ref, "a")
    yb = np.linspace(0.02, 9.0, 401)
    d = lab.orthopoly.density_b_exact(10, 1.5, 1.0, yb)
    ref = oracles.density_b_beta2(10, 1.5, 1.0, yb)
    oracles.check_density(d, ref, "b")
    _rejects(oracles.check_density, d * (1 + 1e-6), ref, "b")


def test_verify_oracle_rejects_a_failed_suite():
    op = workloads._verify_op(("jack",), 5)
    code, text = op.call(run.fresh_import())
    op.check((code, text), {})
    payload = json.loads(text)
    payload["suites"]["jack"][0]["passed"] = False
    _rejects(oracles.check_verify, code, payload)
    _rejects(oracles.check_verify, 1, json.loads(text))


def test_span_recorder_times_layers_and_restores_them():
    fresh = run.fresh_import()
    original = fresh.symfunc.monomial_eval
    rec = spans.SpanRecorder()
    rec.install(vars(fresh), run.SPAN_HOOKS)
    assert fresh.symfunc.monomial_eval is not original
    assert fresh.intertwine.jack_coeffs is fresh.symfunc.jack_coeffs
    rec.enabled = True
    cfg = fresh.rootsys.RootSystemConfig("A", 3, 2.0)
    fresh.intertwine.bessel_kernel(cfg, np.array([0.1, 0.2, 0.4]), np.ones((8, 3)) * [0, 1, 2],
                                   max_degree=4)
    fresh.equilibrium.peak_set(fresh.rootsys.RootSystemConfig("A", 5, 2.0))
    rec.enabled = False
    rec.uninstall()
    assert fresh.symfunc.monomial_eval is original
    s = spans.summarize(rec.spans)
    assert s["calls"]["intertwine.bessel_kernel"] == 1
    assert s["calls"]["symfunc.monomial_eval"] > 1
    assert s["attrs"]["equilibrium.peak_set"]["newton_iterations"] >= 1
    assert s["attrs"]["equilibrium.potential"]["pairs"] == 10 * s["calls"]["equilibrium.potential"]
    roots = sum(t1 - t0 for _, parent, t0, t1, *_ in rec.spans if parent is None)
    assert math.isclose(sum(s["self"].values()), roots, rel_tol=1e-9)
    by_name = {sp[0] for sp in rec.spans}
    assert "symfunc.jack_coeffs" in by_name and "equilibrium.potential" in by_name
