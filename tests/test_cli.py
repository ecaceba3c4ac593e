import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dunkl_lab
from dunkl_lab import checks, orthopoly, sde
from dunkl_lab.cli import DEFAULT_SEED, build_parser, main


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--type", "A"])  # missing required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["nonsense"])
    assert exc.value.code == 2


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: the library runs on numpy alone
    src = os.path.dirname(os.path.dirname(dunkl_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, dunkl_lab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_fekete_stdout(capsys):
    assert main(["fekete", "--type", "A", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_max_delta"] < 1e-9
    assert payload["identity_residuals"]["potential_minus_constant"] < 1e-9
    assert len(payload["minimizer"]) == 4
    # the solver's own error measure and cost
    assert 0.0 <= payload["newton_decrement"] < 1e-20
    assert payload["potential_evaluations"] >= payload["newton_iterations"] >= 1


def test_fekete_writes_file_and_manifest(tmp_path):
    out = tmp_path / "peaks.json"
    assert main(["fekete", "--type", "B", "--n", "3", "--nu", "1.0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gamma"] == 3 * 3.5
    manifest = json.loads((tmp_path / "peaks.json.manifest.json").read_text())
    assert manifest["command"] == "fekete"
    assert manifest["parameters"]["n"] == 3


def test_simulate_csv_and_manifest(tmp_path):
    out = tmp_path / "dens.csv"
    rc = main(["simulate", "--type", "A", "--n", "2", "--beta", "2",
               "--t", "0.5", "--dt", "1e-2", "--paths", "512",
               "--init", "0,1", "--scale", "none", "--bins=-4:4:0.5",
               "--exact", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "density", "exact"]
    assert len(rows) == 17
    dens = np.array([float(r[2]) for r in rows[1:]])
    # mass is N up to out-of-range loss
    assert 0.0 < dens.sum() * 0.5 <= 2.0 + 1e-9
    # beta=2 so the exact column is populated
    assert any(float(r[3]) > 0 for r in rows[1:])
    manifest = json.loads((tmp_path / "dens.csv.manifest.json").read_text())
    assert manifest["seed"] == DEFAULT_SEED
    assert manifest["parameters"]["paths"] == 512
    # 50 uniform steps from a start that is not stiff at dt
    plan = sde.SimPlan(cfg=dunkl_lab.RootSystemConfig("A", 2, 2.0), dt=1e-2, t_final=0.5,
                       n_paths=512, seed=DEFAULT_SEED, initial=(0.0, 1.0))
    bias = sde.simulate_paths(plan, return_stats=True)[1]["euler_bias"]
    assert bias > 0
    assert manifest["sde"] == {"n_steps": 50, "particle_steps": 512 * 50 * 2, "repairs": 0,
                               "euler_bias": bias, "workers": len(os.sched_getaffinity(0))}


def test_simulate_exact_column_empty_off_beta2(tmp_path):
    out = tmp_path / "dens.csv"
    rc = main(["simulate", "--type", "A", "--n", "2", "--beta", "4",
               "--t", "0.2", "--dt", "1e-2", "--paths", "64",
               "--init", "0,1", "--scale", "beta_t", "--bins=-3:3:0.5",
               "--exact", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(r[3] == "" for r in rows)


def test_simulate_type_b_exact_column(tmp_path):
    # the default type-B start and the exact beta = 2 column of type B: the
    # scaled density at the bin centres, 0 left of the origin
    out = tmp_path / "dens.csv"
    rc = main(["simulate", "--type", "B", "--n", "3", "--t", "0.5", "--dt", "1e-2",
               "--paths", "64", "--bins=-2:2:0.5", "--exact", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    mids = np.array([(float(r[0]) + float(r[1])) / 2.0 for r in rows])
    exact = np.array([float(r[3]) for r in rows])
    scale = math.sqrt(2.0 * 0.5)
    right = mids > 0
    assert np.all(exact[~right] == 0.0)
    ref = orthopoly.density_b_exact(3, 0.5, 0.5, mids[right] * scale) * scale
    assert np.allclose(exact[right], ref, rtol=1e-9, atol=0.0) and np.all(ref > 0)
    manifest = json.loads((tmp_path / "dens.csv.manifest.json").read_text())
    assert manifest["parameters"]["init"] == [0.01, 0.02, 0.03]


def test_simulate_bad_bins_is_usage_error(tmp_path, capsys):
    for spec, message in (("junk", "lo:hi:width"), ("0:1", "lo:hi:width"),  # malformed, arity
                          ("-1:1:5", "lo:hi:width"),  # no bin
                          ("1:-1:0.1", "lo < hi and width > 0")):  # reversed
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--type", "A", "--n", "2", "--t", "0.1",
                  "--init", "0,1", f"--bins={spec}", "--out",
                  str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"error: --bins needs {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, options", [
    (["simulate", "--type", "B", "--n", "2", "--nu", "-1", "--t", "0.1"], ["--nu"]),
    (["simulate", "--type", "A", "--n", "0", "--t", "0.1"], ["--n"]),
    (["simulate", "--type", "A", "--n", "2", "--init", "0,1,2", "--t", "0.1"], ["--init"]),
    (["intertwine", "--type", "B", "--n", "2", "--beta", "0.5"], ["--beta"]),
    (["simulate", "--type", "A", "--n", "2", "--init", "0,x", "--t", "0.1"], ["--init"]),
    (["intertwine", "--type", "A", "--n", "3", "--lambda", "a"], ["--lambda"]),
    (["intertwine", "--type", "A", "--n", "3", "--lambda", "2,-1"], ["--lambda"]),
    (["intertwine", "--type", "B", "--n", "3", "--lambda", "1,2"], ["--lambda"]),
    (["simulate", "--type", "A", "--n", "2", "--t", "1", "--dt", "2"], ["--dt", "--t"]),
    (["simulate", "--type", "A", "--n", "2", "--t", "0.1", "--paths", "0"], ["--paths"]),
    (["simulate", "--type", "A", "--n", "2", "--t", "-1"], ["--dt", "--t"]),
    (["simulate", "--type", "A", "--n", "2", "--init", "0,0", "--t", "0.1"], ["--init"]),
], ids=["negative_nu", "zero_n", "init_length", "type_b_beta_below_1", "init_not_a_number",
        "lambda_not_an_integer", "lambda_negative_part", "lambda_increasing", "dt_above_t",
        "zero_paths", "negative_t", "tied_init"])
def test_rejected_config_is_usage_error(argv, options, tmp_path, capsys):
    # arguments the config or the plan refuses are usage errors, not
    # numeric failures, nothing is written, and the message names the
    # options, not the library's field names
    out = tmp_path / "x.csv"
    if argv[0] == "simulate":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for option in options:
        assert re.search(rf"{option}\b", err), err
    for field in ("t_final", "n_paths", "initial"):
        assert field not in err
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("a", "--lambda needs comma-separated int values, got 'a'"),
    ("2,-1", "--lambda 2,-1: parts must be positive"),
    ("1,2", "--lambda 1,2: parts must be weakly decreasing"),
    ("1,1,1,1", "--lambda 1,1,1,1 has 4 parts, --n is 3"),
])
def test_intertwine_bad_lambda_names_the_option(spec, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["intertwine", "--type", "A", "--n", "3", f"--lambda={spec}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_zero_scale_is_usage_error(tmp_path, capsys):
    # nu = 0 makes the beta_nu_t scale zero: refuse instead of writing zeros;
    # type A has no nu to scale by
    out = tmp_path / "x.csv"
    for kind, init, message in (("B", "0.5,1", "gives 0.0"), ("A", "0,1", "requires --type B")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--type", kind, "--n", "2", "--nu", "0", "--t", "0.1",
                  "--dt", "1e-2", "--paths", "8", "--init", init,
                  "--scale", "beta_nu_t", "--out", str(out)])
        assert exc.value.code == 2
        assert f"error: --scale beta_nu_t {message}" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_numeric_failure_exit_3(tmp_path, capsys):
    # a valid start whose gap of 1e-170 overflows the drift's stiffness bound
    rc = main(["simulate", "--type", "A", "--n", "2", "--t", "0.1",
               "--init", "0,1e-170", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "stiffness overflows" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_verify_selected_suites(tmp_path):
    out = tmp_path / "report.json"
    suites = ["freezing", "fke", "jack", "limits"]
    rc = main(["verify"] + [a for s in suites for a in ("--suite", s)] + ["--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert set(payload["suites"]) == set(suites)
    for r in (r for records in payload["suites"].values() for r in records):
        assert set(r) == {"name", "value", "tol", "passed", "seconds"}
        assert r["passed"] is True and r["value"] <= r["tol"] and r["seconds"] >= 0.0


def test_verify_failing_record_exits_1(monkeypatch, capsys):
    record = {"name": "x", "value": 2.0, "tol": 1.0, "passed": False, "seconds": 0.0}
    monkeypatch.setitem(checks.SUITES, "jack", lambda **sizes: [record])
    assert main(["verify", "--suite", "jack", "--suite", "limits"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    assert payload["suites"]["jack"] == [record]


def test_verify_raising_suite_exits_3(monkeypatch, capsys):
    def boom(**sizes):
        raise FloatingPointError("overflow")
    monkeypatch.setitem(checks.SUITES, "limits", boom)
    assert main(["verify", "--suite", "limits"]) == 3
    assert "suite limits aborted: overflow" in capsys.readouterr().err


def test_verify_suite_choices_are_the_registry():
    sub = build_parser()._subparsers._group_actions[0].choices["verify"]
    (suite,) = [a for a in sub._actions if a.dest == "suite"]
    assert list(suite.choices) == list(checks.SUITES)


def test_intertwine_stdout_matches_closed_form(capsys):
    rc = main(["intertwine", "--type", "A", "--lambda", "2", "--n", "3",
               "--beta", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"]["2"] == pytest.approx(0.5, abs=1e-12)
    assert payload["coefficients"]["1,1"] == pytest.approx(0.5, abs=1e-12)


def test_intertwine_nu_limit_requires_type_b(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["intertwine", "--type", "A", "--lambda", "1", "--n", "2", "--limit", "nu"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: the nu limit applies to type B only\n"


def test_intertwine_b_limit(capsys):
    rc = main(["intertwine", "--type", "B", "--lambda", "1", "--n", "2",
               "--beta", "2", "--nu", "0.5", "--limit", "beta"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # (2 lam)! M / (2 lam! N (nu+N-1/2)) = 2*2/(2*1*2*2) = 0.5 on (sum x^2)^1
    assert payload["coefficients"]["1"] == pytest.approx(0.5, abs=1e-12)
    assert payload["squared_variables"] is True
