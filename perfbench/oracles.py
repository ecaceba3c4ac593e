"""Exact oracles for the benchmark's checks.

Each check takes what the program returned, plus the inputs it was given,
and raises CheckFailed with a message when the output misses its oracle.
The oracles use numpy and scipy only, never dunkl_lab, so a change to the
program cannot move its own reference.  Checks write what they measured
(z-scores, ratios) into the `obs` dict before deciding, so a failed check
still reports how far off the output was.

Every tolerance is fixed here.  The relative tolerances sit at least a
factor of 50 above the agreement measured on correct outputs and at least
a factor of 100 below a 1e-6 relative perturbation, so a result scaled by
1 + 1e-6 is rejected.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, hyp0f1, roots_genlaguerre, roots_hermite

#: z-score limit for the SDE moment identities: ~6e-7 false alarms per test
Z_MAX_SDE = 5.0
#: the project's own pass rule for the Monte Carlo reproducing identity
Z_MAX_REPRODUCING = 3.0
#: determinant forms (HCIZ, Gross-Richards) lose digits to cancellation
RTOL_DET = 1e-8
RTOL_CLOSED_FORM = 1e-12
ATOL_LOG_DENSITY = 1e-10
RTOL_DENSITY = 1e-9
RTOL_ZEROS = 1e-10
RTOL_FREEZING = 1e-10
RTOL_MINIMIZER = 1e-9


class CheckFailed(Exception):
    """An output missed its oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _finite(values, what):
    values = np.asarray(values, dtype=float)
    bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
    _require(bad == 0, f"{what}: {bad} of {np.size(values)} values are not finite")
    return values


def vandermonde(x):
    """prod_{i<j} (x_i - x_j) over the last axis."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape[:-1])
    n = x.shape[-1]
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (x[..., i] - x[..., j])
    return out


def gamma_sum(kind, n, nu):
    """Sum of the root multiplicities: N(N-1)/2 (A), N(N+nu-1/2) (B)."""
    return n * (n - 1) / 2.0 if kind == "A" else n * (n + nu - 0.5)


# ---------------------------------------------------------------------------
# particle SDE
# ---------------------------------------------------------------------------

def check_ensemble(obs, finals, x0, kind, beta, nu, t):
    """Final positions of an ensemble started at x0 and run for time t.

    E|X_t|^2 = |x0|^2 + (N + beta gamma) t holds for both types; for type A
    the centre of mass sum_i X_i is exactly N(sum x0, N t).  Each is tested
    as a z-score against Z_MAX_SDE.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    finals = _finite(finals, "final positions")
    _require(finals.ndim == 2 and finals.shape[1] == n and finals.shape[0] >= 2,
             f"final positions have shape {finals.shape}, expected (paths, {n})")
    m = finals.shape[0]
    inside = np.all(np.diff(finals, axis=1) > 0, axis=1)
    if kind == "B":
        inside &= finals[:, 0] > 0
    _require(bool(np.all(inside)), f"{int(m - inside.sum())} paths outside the Weyl chamber")
    r2 = np.einsum("ij,ij->i", finals, finals)
    expected = float(x0 @ x0) + (n + beta * gamma_sum(kind, n, nu)) * t
    z = (float(r2.mean()) - expected) / (float(r2.std(ddof=1)) / math.sqrt(m))
    obs["sde.msq_identity_z"] = abs(z)
    _require(abs(z) <= Z_MAX_SDE,
             f"E|X_t|^2 = {r2.mean():.6g} against exact {expected:.6g}: z = {z:.3g}")
    if kind == "A":
        s = finals.sum(axis=1)
        var = n * t
        z_mean = (float(s.mean()) - float(x0.sum())) / math.sqrt(var / m)
        z_var = (float(s.var(ddof=1)) / var - 1.0) / math.sqrt(2.0 / (m - 1))
        obs["sde.centre_of_mass_z"] = max(abs(z_mean), abs(z_var))
        _require(abs(z_mean) <= Z_MAX_SDE, f"centre-of-mass mean z = {z_mean:.3g}")
        _require(abs(z_var) <= Z_MAX_SDE, f"centre-of-mass variance z = {z_var:.3g}")


def check_histogram(counts, underflow, overflow, total, finals, scale, lo, width):
    """Histogram of finals/scale on bins [lo + k width, lo + (k+1) width)."""
    counts = np.asarray(counts)
    v = np.asarray(finals, dtype=float).ravel() / scale
    edges = lo + width * np.arange(len(counts) + 1)
    idx = np.searchsorted(edges, v, side="right") - 1
    inside = (idx >= 0) & (idx < len(counts))
    ref = np.bincount(idx[inside], minlength=len(counts))
    _require(total == v.size, f"histogram total {total}, expected {v.size}")
    _require(underflow == int(np.sum(idx < 0)) and overflow == int(np.sum(idx >= len(counts))),
             f"under/overflow ({underflow}, {overflow}) wrong")
    diff = int(np.abs(counts - ref).sum())
    _require(diff == 0, f"histogram counts differ from the binned positions in {diff} places")


# ---------------------------------------------------------------------------
# kernel series and transition density
# ---------------------------------------------------------------------------

def kernel_a_beta2(x, ys):
    """Type-A beta=2 kernel N! 0F0^(1)(x; y) by the HCIZ formula:
    N! prod_{p<N} p! det[exp(x_i y_j)] / (V(x) V(y))."""
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(x)
    const = math.factorial(n) * math.prod(math.factorial(p) for p in range(n))
    det = np.linalg.det(np.exp(x[None, :, None] * ys[:, None, :]))
    return const * det / (vandermonde(x) * vandermonde(ys))


def kernel_b_beta2(x, ys, nu):
    """Type-B beta=2 kernel 2^N N! 0F1^(1)(nu + N; x^2/2, y^2/2) by the
    Gross-Richards determinant: 0F1^(1)(b; X, Y) =
    prod_i (N-i)! Gamma(b-i+1) det[f(X_i Y_j)] / (V(X) V(Y)) with
    f(z) = 0F1(; b-N+1; z) / Gamma(b-N+1)."""
    xx = np.asarray(x, dtype=float) ** 2 / 2.0
    yy = np.asarray(ys, dtype=float) ** 2 / 2.0
    n = len(xx)
    b = nu + n  # beta (nu + N - 1/2)/2 + 1/2 at beta = 2
    log_c = sum(math.lgamma(n - i + 1) + math.lgamma(b - i + 1) for i in range(1, n + 1))
    f = hyp0f1(b - n + 1, xx[None, :, None] * yy[:, None, :]) / math.gamma(b - n + 1)
    det = np.linalg.det(f)
    return 2**n * math.factorial(n) * math.exp(log_c) * det / (vandermonde(xx) * vandermonde(yy))


def kernel_a_n2(x, ys, beta):
    """Type-A N=2 kernel in closed form:
    2 exp((x1+x2)(y1+y2)/2) 0F1(; beta/2 + 1/2; (x1-x2)^2 (y1-y2)^2 / 16)."""
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    arg = (x[0] - x[1]) ** 2 * (ys[:, 0] - ys[:, 1]) ** 2 / 16.0
    return 2.0 * np.exp(x.sum() * ys.sum(axis=1) / 2.0) * hyp0f1(beta / 2.0 + 0.5, arg)


def check_kernel(values, ref, what, rtol=RTOL_DET):
    values = _finite(values, what)
    _require(values.shape == ref.shape, f"{what}: shape {values.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(values - ref) / np.abs(ref)))
    _require(err <= rtol, f"{what}: max relative error {err:.3e} > {rtol:g}")


def log_transition_beta2(t, y, x):
    """log of the Karlin-McGregor density of N Brownian motions killed at
    collision, conditioned to survive: (V(y)/V(x)) det[g_t(y_j - x_i)]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.exp(-(y[None, :] - x[:, None]) ** 2 / (2 * t)) / math.sqrt(2 * math.pi * t)
    return math.log(float(vandermonde(y) / vandermonde(x)) * float(np.linalg.det(g)))


def check_transition(obs, value, last_shell_ratio, converged, t, y, x):
    obs["intertwine.last_shell_ratio"] = float(last_shell_ratio)
    ref = log_transition_beta2(t, y, x)
    _require(math.isfinite(value), f"log density {value} is not finite")
    err = abs(float(value) - ref)
    _require(err <= ATOL_LOG_DENSITY,
             f"log density {value:.15g} against Karlin-McGregor {ref:.15g}: error {err:.3e}")
    _require(bool(converged), f"series reported unconverged (last shell ratio {last_shell_ratio:.3e})")


def check_reproducing(obs, lhs, rhs, se):
    _require(all(math.isfinite(v) for v in (lhs, rhs, se)) and se > 0,
             f"non-finite estimate: lhs={lhs}, rhs={rhs}, se={se}")
    z = abs(lhs - rhs) / se
    obs["intertwine.reproducing_z"] = z
    _require(z <= Z_MAX_REPRODUCING, f"reproducing identity |z| = {z:.3g} > {Z_MAX_REPRODUCING:g}")


# ---------------------------------------------------------------------------
# equilibria, zeros and beta = 2 densities
# ---------------------------------------------------------------------------

def freezing_constant(kind, n, nu):
    s = sum(i * math.log(i) for i in range(2, n + 1))
    if kind == "A":
        return n * (n - 1) * (1 + math.log(2.0)) / 4.0 - 0.5 * s
    s_b = sum((nu + i - 0.5) * math.log(nu + i - 0.5) for i in range(1, n + 1))
    return n / 2.0 * (n + nu - 0.5) - 0.5 * s - 0.5 * s_b


def fekete_points(kind, n, nu):
    """Minimizer of the log-gas potential: Hermite zeros (A), square roots
    of the Laguerre zeros with parameter nu - 1/2 (B)."""
    if kind == "A":
        return np.sort(roots_hermite(n)[0])
    return np.sqrt(np.sort(roots_genlaguerre(n, nu - 0.5)[0]))


def check_peak_set(minimizer, potential_at_min, kind, n, nu):
    """Freezing identities F(v*) = K and |v*|^2 = gamma, and v* itself."""
    v = _finite(minimizer, f"peak set {kind}{n}")
    _require(v.shape == (n,), f"peak set has shape {v.shape}, expected ({n},)")
    k = freezing_constant(kind, n, nu)
    g = gamma_sum(kind, n, nu)
    err_k = abs(float(potential_at_min) - k)
    _require(err_k <= RTOL_FREEZING * max(1.0, abs(k)),
             f"{kind}{n}: |F(v*) - K| = {err_k:.3e} (K = {k:.10g})")
    err_g = abs(float(v @ v) - g)
    _require(err_g <= RTOL_FREEZING * max(1.0, g), f"{kind}{n}: ||v*|^2 - gamma| = {err_g:.3e}")
    ref = fekete_points(kind, n, nu)
    err_v = float(np.max(np.abs(v - ref)))
    _require(err_v <= RTOL_MINIMIZER * max(1.0, float(np.max(np.abs(ref)))),
             f"{kind}{n}: minimizer differs from the polynomial zeros by {err_v:.3e}")


def check_hermite_zeros(zeros, n):
    z = _finite(zeros, f"hermite_zeros({n})")
    _require(z.shape == (n,) and bool(np.all(np.diff(z) > 0)), f"hermite_zeros({n}) not {n} ascending values")
    exact = n * (n - 1) / 2.0
    err = abs(float(z @ z) - exact)
    _require(err <= RTOL_ZEROS * exact, f"hermite_zeros({n}): sum z^2 off by {err:.3e} from {exact:g}")


def check_laguerre_zeros(zeros, n, alpha):
    z = _finite(zeros, f"laguerre_zeros({n}, {alpha:g})")
    _require(z.shape == (n,) and bool(np.all(np.diff(z) > 0)) and z[0] > 0,
             f"laguerre_zeros({n}) not {n} ascending positive values")
    exact = n * (n + alpha)
    err = abs(float(z.sum()) - exact)
    _require(err <= RTOL_ZEROS * exact, f"laguerre_zeros({n}): sum z off by {err:.3e} from {exact:g}")


def density_a_beta2(n, t, y):
    """One-point density of N beta=2 type-A particles started at 0:
    sum_{k<N} h_k(u)^2 / sqrt(2t), u = y/sqrt(2t), with orthonormal Hermite
    functions h_k from their stable three-term recurrence."""
    u = np.asarray(y, dtype=float) / math.sqrt(2 * t)
    h_prev = np.zeros_like(u)
    h = np.pi ** -0.25 * np.exp(-u * u / 2)
    total = h * h
    for k in range(1, n):
        h, h_prev = math.sqrt(2.0 / k) * u * h - math.sqrt((k - 1) / k) * h_prev, h
        total += h * h
    return total / math.sqrt(2 * t)


def density_b_beta2(n, nu, t, y):
    """One-point density of N beta=2 type-B particles started at 0:
    sum_{k<N} l_k(u)^2 du/dy, u = y^2/2t, with orthonormal Laguerre
    functions l_k = sqrt(k!/Gamma(k+nu+1)) u^{nu/2} e^{-u/2} L_k^nu(u)."""
    y = np.asarray(y, dtype=float)
    u = y * y / (2 * t)
    p_prev = np.zeros_like(u)
    p = np.exp(nu / 2 * np.log(u) - u / 2 - 0.5 * gammaln(nu + 1))
    total = p * p
    for k in range(n - 1):
        a = math.sqrt((k + 1) / (k + nu + 1))
        b = math.sqrt((k + 1) * k / ((k + nu + 1) * (k + nu))) if k > 0 else 0.0
        p, p_prev = ((2 * k + nu + 1 - u) * a * p - (k + nu) * b * p_prev) / (k + 1), p
        total += p * p
    return total * y / t


def check_density(values, ref, what):
    values = _finite(values, what)
    _require(values.shape == ref.shape, f"{what}: shape {values.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(values - ref))) / float(np.max(ref))
    _require(err <= RTOL_DENSITY, f"{what}: max error {err:.3e} of the peak density")


def check_verify(code, payload):
    """In-process `dunkl-lab verify`: exit code 0 and every check passed."""
    failed = [c.get("name", "?") for checks in payload.get("suites", {}).values()
              for c in checks if not c.get("passed")]
    _require(code == 0 and payload.get("all_passed") is True and not failed,
             f"verify exit code {code}, failed checks {failed}")
