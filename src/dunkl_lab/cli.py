"""Command-line front end.

Subcommands:
  simulate    integrate the particle SDE ensemble and emit a density CSV
  fekete      solve for the log-gas equilibrium configuration (JSON)
  verify      run the check suites of `checks.SUITES` at small sizes (JSON
              records {name, value, tol, passed, seconds}; exit 1 on failure)
  intertwine  coefficient table of the intertwined image of a monomial

Every file written comes with a JSON manifest sufficient to re-run the
command bit-identically: `simulate`'s CSV, and the JSON of `fekete` and
`verify` when --out is given.  `intertwine` and the other commands without
--out print to stdout only.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, checks, equilibrium, intertwine, orthopoly, sde, symfunc
from .rootsys import TYPE_A, TYPE_B, RootSystemConfig, gamma

DEFAULT_SEED = 20140313


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _refused(exc):
    """Usage error for a refused config or plan, naming each field by its option."""
    option = {"n": "--n", "beta": "--beta", "nu": "--nu", "dt": "--dt", "t_final": "--t",
              "n_paths": "--paths", "initial": "--init"}
    _usage_error(re.sub(r"\w+", lambda m: option.get(m[0], m[0]), str(exc)))


def _make_config(args) -> RootSystemConfig:
    kind = TYPE_A if args.type == "A" else TYPE_B
    nu = getattr(args, "nu", None) if kind == TYPE_B else None
    beta = getattr(args, "beta", 2.0)  # fekete has no --beta
    try:
        return RootSystemConfig(kind=kind, n=args.n, beta=beta, nu=nu)
    except ValueError as exc:
        _refused(exc)


def _write_manifest(path, command, params, seed, duration, **records):
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "artifact_version": __version__,
        "wall_clock_seconds": duration,
        **records,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_json(args, payload, command, params, seed, t0):
    """Print payload, or write it to --out with its manifest."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w") as fh:
        fh.write(text)
    _write_manifest(args.out + ".manifest.json", command, params, seed, time.time() - t0)


def _parse_bins(spec):
    try:
        lo, hi, width = (float(p) for p in spec.split(":"))
    except ValueError:
        _usage_error("--bins needs lo:hi:width")
    if width <= 0 or lo >= hi:
        _usage_error("--bins needs lo < hi and width > 0")
    if round((hi - lo) / width) < 1:
        _usage_error(f"--bins needs lo:hi:width with at least one bin, {spec} has none")
    return lo, hi, width


def _parse_values(option, spec, convert):
    """The comma-separated values of an option; malformed input is a usage error."""
    try:
        return tuple(convert(p) for p in spec.split(","))
    except ValueError:
        _usage_error(f"{option} needs comma-separated {convert.__name__} values, got {spec!r}")


def cmd_simulate(args) -> int:
    t0 = time.time()
    cfg = _make_config(args)
    if args.init:
        init = _parse_values("--init", args.init, float)
    elif cfg.kind == TYPE_A:
        init = tuple(1e-2 * (i - (cfg.n - 1) / 2.0) for i in range(cfg.n))
    else:
        init = tuple(1e-2 * i for i in range(1, cfg.n + 1))
    try:
        plan = sde.SimPlan(cfg=cfg, dt=args.dt, t_final=args.t,
                           n_paths=args.paths, seed=args.seed, initial=init)
    except ValueError as exc:
        _refused(exc)
    if args.scale == "beta_t":
        scale = math.sqrt(cfg.beta * args.t)
    elif args.scale == "beta_nu_t":
        if cfg.nu is None:
            _usage_error("--scale beta_nu_t requires --type B")
        scale = math.sqrt(cfg.beta * cfg.nu * args.t)
    else:
        scale = 1.0
    lo, hi, width = _parse_bins(args.bins)
    if not 0 < scale < math.inf:
        _usage_error(f"--scale {args.scale} gives {scale}, not a finite scale > 0")
    finals, stats = sde.simulate_paths(plan, return_stats=True)
    hist = sde.scaled_histogram(finals, scale, lo, hi, width)
    dens = hist.density(plan.n_paths)
    edges = hist.edges()
    exact_col = None
    if args.exact and cfg.beta == 2.0:
        mids = 0.5 * (edges[:-1] + edges[1:]) * scale
        if cfg.kind == TYPE_A:
            exact_col = orthopoly.density_a_exact(cfg.n, args.t, mids) * scale
        else:
            safe = np.maximum(np.abs(mids), 1e-300)
            exact_col = np.where(
                mids > 0, orthopoly.density_b_exact(cfg.n, cfg.nu, args.t, safe) * scale, 0.0
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "density", "exact"])
        for k in range(hist.n_bins):
            row = [f"{edges[k]:.10g}", f"{edges[k + 1]:.10g}", f"{dens[k]:.10g}"]
            row.append(f"{exact_col[k]:.10g}" if exact_col is not None else "")
            writer.writerow(row)
    _write_manifest(args.out + ".manifest.json", "simulate", {
        "type": args.type, "n": args.n, "beta": cfg.beta, "nu": cfg.nu,
        "t": args.t, "dt": args.dt, "paths": args.paths, "init": list(init),
        "scale": args.scale, "bins": args.bins, "exact": bool(args.exact),
        "out": args.out,
    }, args.seed, time.time() - t0,
        sde={k: v for k, v in stats.items() if k != "tiles"})
    return 0


def cmd_fekete(args) -> int:
    t0 = time.time()
    cfg = _make_config(args)
    report = equilibrium.peak_set(cfg)
    oracle = checks.zero_oracle(cfg)
    payload = {
        "minimizer": report.minimizer.tolist(),
        "potential_at_min": report.potential_at_min,
        "freezing_constant": report.freezing_constant,
        "identity_residuals": report.identity_residuals,
        "newton_iterations": report.newton_iterations,
        "newton_decrement": report.newton_decrement,
        "potential_evaluations": report.potential_evaluations,
        "polynomial_zero_oracle": oracle.tolist(),
        "oracle_max_delta": float(np.max(np.abs(report.minimizer - oracle))),
        "gamma": gamma(cfg),
    }
    _emit_json(args, payload, "fekete", {
        "type": args.type, "n": args.n, "nu": cfg.nu, "out": args.out}, None, t0)
    return 0


def cmd_verify(args) -> int:
    t0 = time.time()
    sizes = {
        "freezing": dict(ns=range(1, 9)),
        "fke": dict(ns=(3,), seed=args.seed),
        "kernel": dict(n_samples=int(args.paths), max_degree=24, seed=args.seed),
        "jack": dict(degrees=(2, 3, 4), seed=args.seed),
        "limits": dict(ns=(3,), degrees=(1, 2)),
    }
    selected = args.suite or list(checks.SUITES)
    report = {}
    all_pass = True
    for name in selected:
        try:
            records = checks.SUITES[name](**sizes[name])
        except Exception as exc:  # numeric failure, not a verification failure
            print(f"error: suite {name} aborted: {exc}", file=sys.stderr)
            return 3
        report[name] = records
        all_pass &= all(r["passed"] for r in records)
    payload = {"suites": report, "all_passed": all_pass,
               "wall_clock_seconds": time.time() - t0}
    _emit_json(args, payload, "verify", {"suite": selected, "paths": args.paths},
               args.seed, t0)
    return 0 if all_pass else 1


def cmd_intertwine(args) -> int:
    lam = _parse_values("--lambda", args.lam, int) if args.lam else ()
    try:
        lam = symfunc._check_partition(lam)
    except ValueError as exc:
        _usage_error(f"--lambda {args.lam}: {exc}")
    cfg = _make_config(args)
    if len(lam) > cfg.n:
        _usage_error(f"--lambda {args.lam} has {len(lam)} parts, --n is {cfg.n}")
    if args.limit == "nu" and cfg.kind == TYPE_A:
        _usage_error("the nu limit applies to type B only")
    operator = {"none": intertwine.v_on_monomial, "beta": intertwine.v_limit_beta,
                "nu": intertwine.v_limit_nu}[args.limit]
    poly = operator(cfg, lam)
    if args.basis == "monomial":
        poly = symfunc.jack_to_monomial(poly)
    payload = {
        "type": args.type, "lambda": list(lam), "n": args.n,
        "beta": args.beta, "nu": cfg.nu,
        "limit": args.limit, "basis": poly.basis,
        "jack_alpha": poly.alpha,
        "squared_variables": cfg.kind == TYPE_B,
        "coefficients": {",".join(map(str, k)) or "": v
                         for k, v in sorted(poly.coeffs.items(), reverse=True)},
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dunkl-lab",
        description="numerical laboratory for radial Dunkl particle systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the SDE ensemble")
    p.add_argument("--type", choices=["A", "B"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float, default=2e-4)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--init", type=str, default="")
    p.add_argument("--scale", choices=["beta_t", "beta_nu_t", "none"], default="beta_t")
    p.add_argument("--bins", type=str, default="-4:4:0.01",
                   help="lo:hi:width in the scaled variable")
    p.add_argument("--exact", action="store_true",
                   help="add the exact beta=2 density column")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fekete", help="log-gas equilibrium configuration")
    p.add_argument("--type", choices=["A", "B"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--out", type=str, default="")
    p.set_defaults(func=cmd_fekete)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append",
                   choices=list(checks.SUITES))
    p.add_argument("--paths", type=float, default=2e5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=str, default="")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("intertwine", help="intertwined image of a monomial")
    p.add_argument("--type", choices=["A", "B"], required=True)
    p.add_argument("--lambda", dest="lam", type=str, default="")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--basis", choices=["jack", "monomial"], default="monomial")
    p.add_argument("--limit", choices=["none", "beta", "nu"], default="none")
    p.set_defaults(func=cmd_intertwine)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
