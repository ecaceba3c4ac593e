"""dunkl-lab benchmark: time to a checked result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout; dunkl_lab is imported from ./src, so
nothing is installed or built.  A run builds the workload's inputs from
the seed (workloads.py), then repeats passes over the workload's operations
until T seconds have gone: at least one pass, and no pass is started that
would end after T.  Every pass imports dunkl_lab afresh, so its caches
start cold as they do for a CLI user.  The program calls of each operation
are timed; the result is checked against an exact oracle (oracles.py)
after the timer stops.

--trace 0 prints the end-to-end metrics:
  wall_s       time to a checked result: the sum over operations of each
               one's median time over the passes
  setup_s      median over fresh interpreters of the time to import the
               package and build the inputs, from process start
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (spans.py); trace.overhead_s is the traced
minus the untraced wall time.

Standard output ends with one JSON line holding `correct`, `attempted`,
`failed` and `metrics`.  A failure of an operation marked as a known defect
counts in `failed` but leaves `correct` true.  A report with machine facts
and every operation's times and failure messages, and the spans of a
traced run, go to perfbench/out/.  The benchmark sets no thread or BLAS
knob of the program and starts no threads; the set-up probes are separate
interpreters run one at a time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

import oracles
import workloads
from spans import SpanRecorder, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "dunkl_lab"
LAYERS = ("rootsys", "orthopoly", "symfunc", "equilibrium", "sde", "intertwine", "cli")
THREAD_ENV = ("DUNKL_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
#: a run stops its current operation after this long, to finish within 180 s
RUN_LIMIT_S = 160

# counters read off program results at the span boundary (traced run only)
SPAN_HOOKS = {
    "sde.simulate_paths": lambda a, k, r: {
        key: r[1][key] for key in ("particle_steps", "n_steps", "repairs")},
    "equilibrium.peak_set": lambda a, k, r: {"newton_iterations": r.newton_iterations},
    "equilibrium.potential": lambda a, k, r: {"pairs": a[0].n * (a[0].n - 1) // 2},
}


class RunTimeLimit(BaseException):
    """Raised by the alarm when a run nears its time limit.  A BaseException,
    so the program's own `except Exception` handlers do not swallow it."""


def _on_alarm(signum, frame):
    raise RunTimeLimit()


def use_program_source():
    """Put ./src first on sys.path; fail when the program is not there."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / PACKAGE}; run from a checkout")
    sys.path.insert(0, str(SRC))


def fresh_import():
    """Import the program's modules anew, dropping earlier imports."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    where = Path(sys.modules[PACKAGE].__file__).resolve().parent
    if where != SRC / PACKAGE:
        raise SystemExit(f"error: imported {PACKAGE} from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_setup(args):
    """Median wall time of fresh interpreters that import the package and
    build the inputs (run.py --setup-probe), one at a time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=30)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def rng_floor_ns():
    """ns per Philox standard normal at the SDE chunk shape (16384 x 7):
    the noise floor of an Euler step, which no program change moves."""
    rng = np.random.Generator(np.random.Philox(key=12345))
    shape = (1 << 14, 7)
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        rng.standard_normal(shape)
        samples.append((time.perf_counter() - t0) * 1e9 / (shape[0] * shape[1]))
    return statistics.median(samples)


def run_op(op, lab, recorder):
    """Time op.call, then check its result.  Returns the op's record."""
    t0 = time.perf_counter()
    out, error, stop = None, None, False
    try:
        if recorder is not None:
            recorder.enabled = True
            out = recorder.wrap("bench." + op.name, op.call, lambda a, k, r: dict(op.work))(lab)
        else:
            out = op.call(lab)
    except RunTimeLimit:
        error, stop = "stopped at the run's time limit", True
    except Exception as exc:  # any error the program raises is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        if recorder is not None:
            recorder.enabled = False
    obs = {}
    if error is None:
        try:
            op.check(out, obs)
        except oracles.CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # the result does not have the documented form
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"name": op.name, "seconds": seconds, "error": error, "obs": obs, "stop": stop}


def run_pass(ops, recorder=None):
    gc.collect()  # free the previous pass's modules, so peak RSS does not grow with passes
    lab = fresh_import()
    first = len(recorder.spans) if recorder is not None else 0
    if recorder is not None:
        recorder.install(vars(lab), SPAN_HOOKS)
    records = []
    try:
        for op in ops:
            records.append(run_op(op, lab, recorder))
            if records[-1]["stop"]:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()
    jack = getattr(lab.symfunc.jack_coeffs, "cache_info", None)
    return {
        "traced": recorder is not None,
        "wall": sum(r["seconds"] for r in records),
        "ops": records,
        "stopped": any(r["stop"] for r in records),
        "spans": (first, len(recorder.spans)) if recorder is not None else None,
        "jack_cache": jack()._asdict() if jack is not None else None,
    }


def run_passes(ops, seconds, recorder):
    """Passes until `seconds` have gone; in a traced run every second pass
    is traced and at least one of each kind runs."""
    deadline = time.perf_counter() + seconds
    passes = []
    longest = 0.0
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        started = time.perf_counter()
        try:
            passes.append(run_pass(ops, recorder if traced else None))
        except RunTimeLimit:
            break
        longest = max(longest, time.perf_counter() - started)
        enough = len(passes) >= (2 if recorder is not None else 1)
        if passes[-1]["stopped"] or (enough and time.perf_counter() + longest > deadline):
            break
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _wall(passes):
    """Time to a checked result of one pass: the sum over operations of
    each one's median time over the complete passes.  A burst of load on
    the machine then moves one operation's sample, not the whole pass."""
    complete = [p for p in passes if not p["stopped"]] or passes
    times = {}
    for p in complete:
        for r in p["ops"]:
            times.setdefault(r["name"], []).append(r["seconds"])
    return sum(statistics.median(v) for v in times.values())


def end_to_end(passes, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (_wall(passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(p, recorder, ops):
    """Per-layer metrics of one traced pass."""
    s = summarize(recorder.spans, *p["spans"])
    t, calls, attrs, cpu = s["time"], s["calls"], s["attrs"], s["cpu"]
    obs = {}
    for r in p["ops"]:
        for key, value in r["obs"].items():
            obs[key] = max(obs.get(key, 0.0), value)
    sim = attrs["sde.simulate_paths"]
    steps = sim.get("particle_steps", 0)
    point_monomials = sum(op.work.get("point_monomials", 0) for op in ops)
    newton = attrs["equilibrium.peak_set"].get("newton_iterations", 0)
    potential_calls = calls["equilibrium.potential"]
    jack = p["jack_cache"] or {}
    trans = "intertwine.radial_transition_logdensity"
    return {
        "sde.simulate_paths_s": (t["sde.simulate_paths"], "s"),
        "sde.ns_per_particle_step": (_ratio(t["sde.simulate_paths"] * 1e9, steps), "ns"),
        "sde.cpu_s": (cpu["sde.simulate_paths"], "s"),
        "sde.n_steps": (sim.get("n_steps", 0), "count"),
        "sde.repair_rate": (_ratio(sim.get("repairs", 0), steps), "ratio"),
        "sde.scaled_histogram_s": (t["sde.scaled_histogram"], "s"),
        "sde.msq_identity_z": (obs.get("sde.msq_identity_z", 0.0), "sigma"),
        "intertwine.bessel_kernel_s": (t["intertwine.bessel_kernel"], "s"),
        "intertwine.ns_per_point_per_monomial": (
            _ratio(s["direct"]["intertwine.bessel_kernel"] * 1e9, point_monomials), "ns"),
        "intertwine.transition_s_per_call": (_ratio(t[trans], calls[trans]), "s"),
        "intertwine.sample_gaussian_weight_s": (t["intertwine.sample_gaussian_weight"], "s"),
        "intertwine.kernel_reproducing_check_s": (
            t["intertwine.kernel_reproducing_check"], "s"),
        "intertwine.self_s": (s["self"]["intertwine"], "s"),
        "intertwine.last_shell_ratio": (obs.get("intertwine.last_shell_ratio", 0.0), "ratio"),
        "symfunc.monomial_eval_s": (t["symfunc.monomial_eval"], "s"),
        "symfunc.monomial_eval_calls": (calls["symfunc.monomial_eval"], "count"),
        "symfunc.jack_coeffs_s": (t["symfunc.jack_coeffs"], "s"),
        "symfunc.jack_cache_hit_ratio": (
            _ratio(jack.get("hits", 0), jack.get("hits", 0) + jack.get("misses", 0)), "ratio"),
        "symfunc.self_s": (s["self"]["symfunc"], "s"),
        "equilibrium.peak_set_s": (t["equilibrium.peak_set"], "s"),
        "equilibrium.potential_s": (t["equilibrium.potential"], "s"),
        "equilibrium.potential_calls": (potential_calls, "count"),
        "equilibrium.newton_iterations": (newton, "count"),
        "equilibrium.accepted_step_ratio": (_ratio(newton, potential_calls), "ratio"),
        "equilibrium.ns_per_pair": (
            _ratio(t["equilibrium.potential"] * 1e9,
                   attrs["equilibrium.potential"].get("pairs", 0)), "ns"),
        "orthopoly.hermite_zeros_s": (t["orthopoly.hermite_zeros"], "s"),
        "orthopoly.laguerre_zeros_s": (t["orthopoly.laguerre_zeros"], "s"),
        "orthopoly.density_exact_s": (
            t["orthopoly.density_a_exact"] + t["orthopoly.density_b_exact"], "s"),
        "rootsys.log_weight_s": (t["rootsys.log_weight"], "s"),
        "rootsys.log_weight_calls": (calls["rootsys.log_weight"], "count"),
        "cli.verify_s": (t["cli.cmd_verify"], "s"),
        "cli.self_s": (s["self"]["cli"], "s"),
    }


def per_layer(passes, recorder, ops):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [layer_metrics(p, recorder, ops) for p in traced]
    metrics = {name: (statistics.median(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()} if rows else {}
    metrics["sde.rng_floor_ns"] = (rng_floor_ns(), "ns")
    overhead = _wall(traced) - _wall(untraced) if traced and untraced else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every size (for the benchmark's own tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    use_program_source()
    args = parse_args(argv)
    if args.setup_probe:
        fresh_import()
        workloads.build(args.workload, args.seed, args.tiny)
        return 0

    started = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, args.tiny)
    fresh_import()  # also writes the bytecode caches the set-up probes reuse
    setup = measure_setup(args) if args.trace == 0 else None
    recorder = SpanRecorder() if args.trace else None

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(max(1, int(RUN_LIMIT_S - (time.perf_counter() - started))))
    try:
        passes = run_passes(ops, args.seconds, recorder)
    finally:
        signal.alarm(0)
    if not passes:
        print("error: no pass finished within the run's time limit", file=sys.stderr)
        return 3

    if args.trace:
        metrics = per_layer(passes, recorder, ops)
    else:
        metrics = end_to_end(passes, setup[0])
    records = [r for p in passes for r in p["ops"]]
    defects = {op.name: op.defect for op in ops}
    failures = [r for r in records if r["error"]]
    result = {
        "correct": not any(not defects[r["name"]] for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts()
    report = {
        "args": vars(args), "machine": facts,
        "setup_samples_s": setup[1] if setup else None,
        "passes": [{k: p[k] for k in ("traced", "wall", "stopped", "jack_cache")}
                   | {"ops": [{k: r[k] for k in ("name", "seconds", "error", "obs")}
                              for r in p["ops"]]} for p in passes],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if recorder is not None:
        recorder.write(OUT / f"{stem}-spans.jsonl", started)

    print("machine " + json.dumps(facts))
    kinds = "traced and untraced" if args.trace else "untraced"
    print(f"passes {len(passes)} ({kinds}); report {OUT.relative_to(ROOT) / (stem + '.json')}")
    for op in ops:
        times = [r["seconds"] for r in records if r["name"] == op.name]
        errors = sorted({r["error"] for r in records if r["name"] == op.name and r["error"]})
        if not times:
            print(f"op {op.name}: not reached before the run's time limit")
            continue
        line = f"op {op.name}: median {statistics.median(times):.4f} s over {len(times)}"
        print(line + ("" if not errors else f"; FAILED{' (known defect)' if op.defect else ''}: "
                      + " | ".join(errors)))
    print(f"failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    steps = sum(op.work.get("particle_steps", 0) for op in ops)
    if steps and not args.trace:
        print(f"particle_steps_per_s {steps / metrics['wall_s'][0]:.6g} 1/s "
              f"({steps} particle-steps per pass)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
