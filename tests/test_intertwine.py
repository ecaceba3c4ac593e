import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp0f1

from dunkl_lab import intertwine, symfunc
from dunkl_lab.intertwine import (
    HyperSeriesParams,
    bessel_kernel,
    frozen_kernel,
    hyper_series,
    kernel_reproducing_check,
    linear_intertwiner,
    radial_transition_logdensity,
    sample_gaussian_weight,
    v_limit_beta,
    v_limit_nu,
    v_on_monomial,
)
from dunkl_lab.rootsys import TYPE_A, TYPE_B, RootSystemConfig, gamma
from dunkl_lab.symfunc import (
    SymPoly,
    gen_pochhammer,
    hook_c,
    hook_c_prime,
    jack_coeffs,
    multinomial_m,
    partitions_of,
)


def _coeff_distance(p, q):
    keys = set(p.coeffs) | set(q.coeffs)
    return max(
        abs(p.coeffs.get(k, 0.0) - q.coeffs.get(k, 0.0))
        / max(abs(q.coeffs.get(k, 0.0)), 1e-300)
        for k in keys
    )


# The type-split operators these functions replaced, kept verbatim as
# oracles: the config-driven image and limits must match them bit for bit.

def _fact_partition(lam):
    out = 1
    for p in lam:
        out *= math.factorial(p)
    return out


def _tau_weight(tau, alpha, n, b):
    w = hook_c(tau, alpha) / hook_c_prime(tau, alpha) / gen_pochhammer(n / alpha, tau, alpha)
    return w if b is None else w / gen_pochhammer(b, tau, alpha)


def _power_sum_expansion(k, n_vars, scale):
    return {tau: scale * math.factorial(k) / _fact_partition(tau)
            for tau in partitions_of(k, n_vars)}


def _v_a_on_monomial(lam, n_vars, beta):
    lam = tuple(lam)
    alpha = 2.0 / beta
    pref = _fact_partition(lam) * multinomial_m(lam, n_vars)
    coeffs = {}
    for tau in partitions_of(sum(lam), n_vars):
        u = jack_coeffs(tau, alpha, n_vars).coeffs.get(lam, 0.0)
        if u != 0.0:
            coeffs[tau] = pref * _tau_weight(tau, alpha, n_vars, None) * u
    return SymPoly("jack", coeffs, n_vars, alpha=alpha)


def _v_b_on_monomial(lam, n_vars, beta, nu):
    lam = tuple(lam)
    alpha = 2.0 / beta
    b = beta * (nu + n_vars - 0.5) / 2.0 + 0.5
    pref = (
        _fact_partition(tuple(2 * p for p in lam))
        * multinomial_m(lam, n_vars)
        / 4.0 ** sum(lam)
    )
    coeffs = {}
    for tau in partitions_of(sum(lam), n_vars):
        u = jack_coeffs(tau, alpha, n_vars).coeffs.get(lam, 0.0)
        if u != 0.0:
            coeffs[tau] = pref * _tau_weight(tau, alpha, n_vars, b) * u
    return SymPoly("jack", coeffs, n_vars, alpha=alpha)


def _v_a_limit(lam, n_vars):
    lam = tuple(lam)
    k = sum(lam)
    scale = multinomial_m(lam, n_vars) / float(n_vars) ** k
    return SymPoly("monomial", _power_sum_expansion(k, n_vars, scale), n_vars)


def _v_b_limit_beta(lam, n_vars, nu):
    lam = tuple(lam)
    k = sum(lam)
    scale = (
        _fact_partition(tuple(2 * p for p in lam))
        * multinomial_m(lam, n_vars)
        / (2.0**k * _fact_partition(lam) * float(n_vars) ** k
           * (nu + n_vars - 0.5) ** k)
    )
    return SymPoly("monomial", _power_sum_expansion(k, n_vars, scale), n_vars)


def _v_b_limit_nu(lam, n_vars, beta):
    lam = tuple(lam)
    k = sum(lam)
    base = symfunc.jack_to_monomial(_v_a_on_monomial(lam, n_vars, beta))
    factor = _fact_partition(tuple(2 * p for p in lam)) / _fact_partition(lam)
    factor /= (2.0 * beta) ** k
    return SymPoly(
        "monomial", {mu: factor * c for mu, c in base.coeffs.items()}, n_vars
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_config_operators_match_type_split_oracles_bit_for_bit(n):
    # every partition of degree <= 5, beta in {1, 2, 7.5, 1e6}, nu in {0, 0.5, 2.5};
    # the beta-limit must ignore cfg.beta and the nu-limit cfg.nu
    for lam in (lam for d in range(6) for lam in partitions_of(d, n)):
        for beta in (1.0, 2.0, 7.5, 1e6):
            cfg = RootSystemConfig(TYPE_A, n, beta)
            assert v_on_monomial(cfg, lam).coeffs == _v_a_on_monomial(lam, n, beta).coeffs
            assert v_limit_beta(cfg, lam).coeffs == _v_a_limit(lam, n).coeffs
            for nu in (0.0, 0.5, 2.5):
                cfg = RootSystemConfig(TYPE_B, n, beta, nu=nu)
                got = v_on_monomial(cfg, lam)
                assert got.coeffs == _v_b_on_monomial(lam, n, beta, nu).coeffs
                assert v_limit_beta(cfg, lam).coeffs == _v_b_limit_beta(lam, n, nu).coeffs
        for beta in (1.0, 2.0, 4.0):
            for nu in (0.0, 0.5, 2.5):
                got = v_limit_nu(RootSystemConfig(TYPE_B, n, beta, nu=nu), lam)
                assert got.coeffs == _v_b_limit_nu(lam, n, beta).coeffs


def test_nu_limit_refuses_type_a():
    with pytest.raises(ValueError, match="type B only"):
        v_limit_nu(RootSystemConfig(TYPE_A, 2, 2.0), (1,))


def test_type_a_closed_form_degree_two():
    # image of m_(2) at any N: [(beta+2) m_(2) + 2 beta m_(11)] / (beta N + 2)
    for n, beta in ((3, 2.0), (4, 1.0), (5, 7.5)):
        got = symfunc.jack_to_monomial(v_on_monomial(RootSystemConfig(TYPE_A, n, beta), (2,)))
        assert got.coeffs[(2,)] == pytest.approx((beta + 2) / (beta * n + 2),
                                                 abs=1e-12)
        assert got.coeffs[(1, 1)] == pytest.approx(2 * beta / (beta * n + 2),
                                                   abs=1e-12)


def test_type_b_closed_form_degree_two():
    # squared-variable image of m_(2): [3(beta+2) m_(2) + 6 beta m_(11)] / D,
    # D = (beta(nu+N-1/2)+1)(beta(nu+N-1/2)+3)(beta N+2)
    for n, beta, nu in ((3, 2.0, 0.5), (2, 1.0, 1.5), (4, 3.0, 0.0)):
        cfg = RootSystemConfig(TYPE_B, n, beta, nu=nu)
        got = symfunc.jack_to_monomial(v_on_monomial(cfg, (2,)))
        d = (beta * (nu + n - 0.5) + 1) * (beta * (nu + n - 0.5) + 3) * (beta * n + 2)
        assert got.coeffs[(2,)] == pytest.approx(3 * (beta + 2) / d, abs=1e-12)
        assert got.coeffs[(1, 1)] == pytest.approx(6 * beta / d, abs=1e-12)


def test_degree_preserved_and_identity_on_constants():
    cfg = RootSystemConfig(TYPE_A, 3, 2.0)
    p = v_on_monomial(cfg, ())
    assert symfunc.jack_to_monomial(p).coeffs == {(): 1.0}
    for mu in symfunc.jack_to_monomial(v_on_monomial(cfg, (2, 1))).coeffs:
        assert sum(mu) == 3


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)])
def test_type_a_limit_convergence(lam):
    cfg = RootSystemConfig(TYPE_A, 3, 1e6)
    fin = symfunc.jack_to_monomial(v_on_monomial(cfg, lam))
    assert _coeff_distance(fin, v_limit_beta(cfg, lam)) < 1e-5


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1)])
def test_type_b_limit_convergence(lam):
    beta = 1e6
    cfg = RootSystemConfig(TYPE_B, 3, beta, nu=0.5)
    fin = symfunc.jack_to_monomial(v_on_monomial(cfg, lam))
    fin = symfunc.SymPoly(
        "monomial", {k: v * beta ** sum(lam) for k, v in fin.coeffs.items()}, 3)
    assert _coeff_distance(fin, v_limit_beta(cfg, lam)) < 1e-5


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1), (2, 1)])
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_type_b_nu_limit_identity(lam, beta):
    # the large-nu limit, and its defining identity against the finite-nu image
    nu = 1e7
    cfg = RootSystemConfig(TYPE_B, 3, beta, nu=nu)
    lim = v_limit_nu(cfg, lam)
    fin = symfunc.jack_to_monomial(v_on_monomial(cfg, lam))
    fin = symfunc.SymPoly(
        "monomial", {k: v * nu ** sum(lam) for k, v in fin.coeffs.items()}, 3)
    assert _coeff_distance(fin, lim) < 1e-5
    # and the closed form: ((2 lam)!/lam!) (2 beta)^{-|lam|} x type-A image
    base = symfunc.jack_to_monomial(v_on_monomial(RootSystemConfig(TYPE_A, 3, beta), lam))
    factor = 1.0
    for p in lam:
        factor *= math.factorial(2 * p) / math.factorial(p)
    factor /= (2.0 * beta) ** sum(lam)
    scaled = symfunc.SymPoly(
        "monomial", {k: factor * v for k, v in base.coeffs.items()}, 3)
    assert _coeff_distance(scaled, lim) < 1e-12


def test_filter_product_limit():
    beta = 1e8
    alpha = 2.0 / beta
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            for tau in partitions_of(d, n):
                v = hook_c(tau, alpha) / (
                    hook_c_prime(tau, alpha)
                    * gen_pochhammer(beta * n / 2.0, tau, alpha))
                if len(tau) == 1:
                    tgt = 1.0 / (n ** d * math.factorial(d))
                    assert abs(v - tgt) / tgt < 1e-6
                else:
                    assert abs(v) < 1e-6


def test_series_0f0_at_all_ones():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=3)
    params = HyperSeriesParams(alpha=1.0, n_vars=3, max_degree=30)
    val, last = hyper_series(params, x, np.ones(3))
    assert val == pytest.approx(math.exp(float(x.sum())), abs=1e-10)
    assert last < 1e-12


def test_series_0f1_matches_scipy_n1():
    # N=1: 0F1(b; x y) against scipy's confluent limit function
    b = 1.7
    params = HyperSeriesParams(alpha=1.0, n_vars=1, max_degree=40, b=b)
    val, _ = hyper_series(params, np.array([0.8]), np.array([1.3]))
    assert val == pytest.approx(float(hyp0f1(b, 0.8 * 1.3)), rel=1e-12)


def test_kernel_type_a_beta2_determinant_formula():
    # at beta=2 the symmetrized kernel has the determinant closed form
    #   N! * prod_{k<N} k! * det(e^{x_i y_j}) / (Delta(x) Delta(y))
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    x = np.array([0.3, 0.8])
    y = np.array([-0.4, 0.6])
    det = (math.exp(x[0] * y[0] + x[1] * y[1])
           - math.exp(x[0] * y[1] + x[1] * y[0]))
    expected = 2 * det / ((x[1] - x[0]) * (y[1] - y[0]))
    assert bessel_kernel(cfg, x, y) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("beta", [0.7, 2.0, 5.0])
def test_kernel_type_a_n2_closed_form_any_beta(beta):
    # rank-one Dunkl kernel: at N=2 the type-A kernel is
    #   2 e^{(x1+x2)(y1+y2)/2} 0F1(; beta/2 + 1/2; (x1-x2)^2 (y1-y2)^2 / 16)
    cfg = RootSystemConfig(TYPE_A, 2, beta)
    rng = np.random.default_rng(21)
    x = rng.uniform(-0.8, 0.8, 2)
    ys = rng.uniform(-0.8, 0.8, (64, 2))
    arg = (x[0] - x[1]) ** 2 * (ys[:, 0] - ys[:, 1]) ** 2 / 16.0
    expected = 2.0 * np.exp(x.sum() * ys.sum(axis=1) / 2.0) * hyp0f1(beta / 2.0 + 0.5, arg)
    np.testing.assert_allclose(bessel_kernel(cfg, x, ys, max_degree=40), expected,
                               rtol=1e-12)


def test_kernel_degree_by_degree_expansion():
    # the symmetrized kernel expands as
    #   sum_mu N!/(mu! M(mu,N)) m_mu(y) [V m_mu](x);
    # check that against the Jack-series shells through total degree 4.
    from dunkl_lab.symfunc import multinomial_m, sympoly_eval, monomial_eval
    for n in (2, 3):
        beta = 2.0
        rng = np.random.default_rng(n)
        x = rng.uniform(-0.9, 0.9, size=n)
        y = rng.uniform(-0.9, 0.9, size=n)
        params = HyperSeriesParams(alpha=2.0 / beta, n_vars=n, max_degree=4)
        shells = intertwine._series_shells(params, x, y) * math.factorial(n)
        for deg in range(5):
            brute = 0.0
            for mu in partitions_of(deg, n):
                fact = 1.0
                for p in mu:
                    fact *= math.factorial(p)
                vx = sympoly_eval(v_on_monomial(RootSystemConfig(TYPE_A, n, beta), mu), x)
                brute += math.factorial(n) * monomial_eval(mu, y) * vx / (
                    fact * multinomial_m(mu, n))
            assert float(shells[deg]) == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_plain_exponential_symmetrization_expansion():
    # without the intertwining the classical identity holds:
    #   sum_rho e^{rho x . y} = sum_mu N!/(mu! M(mu,N)) m_mu(x) m_mu(y)
    from dunkl_lab.symfunc import multinomial_m, monomial_eval
    n = 3
    rng = np.random.default_rng(14)
    x = rng.uniform(-0.6, 0.6, size=n)
    y = rng.uniform(-0.6, 0.6, size=n)
    lhs = sum(math.exp(float(x[list(rho)] @ y))
              for rho in itertools.permutations(range(n)))
    rhs = 0.0
    for deg in range(40):
        for mu in partitions_of(deg, n):
            fact = 1.0
            for p in mu:
                fact *= math.factorial(p)
            rhs += math.factorial(n) * monomial_eval(mu, x) * monomial_eval(mu, y) \
                / (fact * multinomial_m(mu, n))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kernel_type_b_n1_closed_form():
    # N=1, nu=1/2, beta=2 -> b = 3/2 and 0F1(3/2; u) = sinh(2 sqrt u)/(2 sqrt u)
    cfg = RootSystemConfig(TYPE_B, 1, 2.0, nu=0.5)
    x, y = 0.7, 0.9
    u = (x * y) ** 2 / 4.0
    expected = 2 * math.sinh(2 * math.sqrt(u)) / (2 * math.sqrt(u))
    assert bessel_kernel(cfg, np.array([x]), np.array([y])) == pytest.approx(
        expected, rel=1e-12)


def test_kernel_symmetry_in_arguments():
    cfg = RootSystemConfig(TYPE_A, 3, 3.0)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    assert bessel_kernel(cfg, x, y) == pytest.approx(bessel_kernel(cfg, y, x),
                                                     rel=1e-12)
    # reflection invariance in each argument separately
    assert bessel_kernel(cfg, x[[1, 0, 2]], y) == pytest.approx(
        bessel_kernel(cfg, x, y), rel=1e-12)


def test_frozen_kernel_matches_series_at_large_beta():
    beta = 1e4
    # small arguments so the series in sqrt(beta) x stays inside degree 40
    for kind, nu in ((TYPE_A, None), (TYPE_B, 0.5)):
        cfg = RootSystemConfig(kind, 2, beta, nu=nu)
        x = np.array([0.05, 0.12]) if kind == TYPE_A else np.array([0.05, 0.12])
        y = np.array([-0.3, 0.4]) if kind == TYPE_A else np.array([0.3, 0.4])
        series = bessel_kernel(cfg, math.sqrt(beta) * x, y, max_degree=40)
        closed = frozen_kernel(cfg, x, y, corrected=True)
        assert closed == pytest.approx(series, rel=2e-2)
        exact = frozen_kernel(cfg, x, y)
        assert exact > 0.0


@pytest.mark.parametrize("x, y", [
    ([0.05, 0.12], [-0.3, 0.4]),
    ([0.02, 0.05, 0.12], [-0.3, 0.1, 0.4]),
], ids=["A2", "A3"])
def test_frozen_exact_limit_keeps_centre_of_mass_factor(x, y):
    # the all-ones direction carries exp(sqrt(beta) sum x sum y / N) at every
    # beta, so the exact limit keeps it: without it the ratio to the series
    # is 0.43 (A2) and 0.28 (A3) here
    beta = 1e4
    cfg = RootSystemConfig(TYPE_A, len(x), beta)
    x, y = np.array(x), np.array(y)
    series = bessel_kernel(cfg, math.sqrt(beta) * x, y, max_degree=40)
    exact = frozen_kernel(cfg, x, y)
    assert exact == pytest.approx(series, rel=1e-3)


def test_frozen_kernel_n1_type_a():
    cfg = RootSystemConfig(TYPE_A, 1, 1e6)
    # no roots at N=1: the kernel is exactly exp(sqrt(beta) x y)
    v = frozen_kernel(cfg, np.array([0.002]), np.array([0.5]))
    assert v == pytest.approx(math.exp(1e3 * 0.001), rel=1e-12)


def test_linear_intertwiner():
    cfg = RootSystemConfig(TYPE_A, 3, 2.0)
    m = linear_intertwiner(cfg)
    # fixes the all-ones direction exactly
    assert np.allclose(m @ np.ones(3), np.ones(3))
    # contracts the root span by 1/(1 + beta gamma / rank)
    u = np.array([1.0, -1.0, 0.0])
    bg = cfg.beta * gamma(cfg)
    assert np.allclose(m @ u, u / (1 + bg / 2))
    cfgb = RootSystemConfig(TYPE_B, 3, 2.0, nu=0.5)
    mb = linear_intertwiner(cfgb)
    assert np.allclose(mb, np.eye(3) / (1 + cfgb.beta * gamma(cfgb) / 3))


def test_transition_density_n1_type_a_gaussian():
    cfg = RootSystemConfig(TYPE_A, 1, 2.0)
    for (t, x0, y0) in ((1.0, 0.2, 0.5), (0.3, -1.0, 0.4)):
        ld = radial_transition_logdensity(cfg, t, np.array([y0]), np.array([x0]))
        assert ld.converged
        expected = -0.5 * math.log(2 * math.pi * t) - (y0 - x0) ** 2 / (2 * t)
        assert ld.value == pytest.approx(expected, abs=1e-10)


def test_transition_density_n1_type_b_mass():
    cfg = RootSystemConfig(TYPE_B, 1, 2.0, nu=0.5)
    f = lambda y: math.exp(radial_transition_logdensity(  # noqa: E731
        cfg, 0.5, np.array([y]), np.array([0.7])).value)
    val, _ = quad(f, 1e-9, 8.0, limit=100)
    assert val == pytest.approx(1.0, rel=1e-8)


def test_transition_density_marginal_matches_exact_density():
    # from a start near the origin the one-point function (sum of both
    # order-statistic marginals) must match the exact beta=2 density
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    from dunkl_lab.orthopoly import density_a_exact
    t = 1.0
    x = np.array([-1e-4, 1e-4])
    for y0 in (-0.8, 0.3, 1.1):
        lo = quad(lambda z: math.exp(radial_transition_logdensity(
            cfg, t, np.array([min(z, y0), max(z, y0)]), x, max_degree=8).value),
            -7, 7, limit=80, points=[y0])[0]
        assert lo == pytest.approx(density_a_exact(2, t, np.array([y0]))[0],
                                   rel=1e-4)


def test_sample_gaussian_weight_moments():
    # type A N=2 beta=2 against quadrature of the unnormalized density
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    xs = sample_gaussian_weight(cfg, 40000, seed=3)
    assert xs.shape == (40000, 2)
    from scipy.integrate import dblquad
    num = dblquad(lambda y, x: (x * x + y * y) * (y - x) ** 2
                  * math.exp(-(x * x + y * y) / 2),
                  -9, 9, lambda x: x, lambda x: 9)[0]
    den = dblquad(lambda y, x: (y - x) ** 2 * math.exp(-(x * x + y * y) / 2),
                  -9, 9, lambda x: x, lambda x: 9)[0]
    got = float(np.einsum("ij,ij->i", xs, xs).mean())
    assert got == pytest.approx(num / den, rel=0.03)
    # w is homogeneous of degree beta gamma, so E|x|^2 = N + beta gamma exactly;
    # these sizes and betas are past where a Gaussian-envelope rejection
    # sampler's acceptance collapses
    for cfg in (RootSystemConfig(TYPE_A, 3, 8.0), RootSystemConfig(TYPE_A, 7, 2.0),
                RootSystemConfig(TYPE_B, 3, 2.0, nu=0.5),
                RootSystemConfig(TYPE_B, 4, 5.0, nu=2.5)):
        xs = sample_gaussian_weight(cfg, 200000, seed=11)
        r2 = np.einsum("ij,ij->i", xs, xs)
        se = r2.std(ddof=1) / math.sqrt(len(r2))
        exact = cfg.n + cfg.beta * gamma(cfg)
        assert abs(r2.mean() - exact) <= 4 * se, (cfg, r2.mean(), exact, se)


@pytest.mark.parametrize("cfg", [RootSystemConfig(TYPE_A, 3, 8.0),
                                 RootSystemConfig(TYPE_B, 4, 5.0, nu=2.5)], ids=["A3", "B4"])
def test_sample_gaussian_weight_blocks_match_one_shot(cfg, monkeypatch):
    # the same Philox draws through 28 eigvalsh blocks (the last one partial)
    # and through a single block give the same samples bit for bit
    monkeypatch.setattr(intertwine, "_EIG_BLOCK_ENTRIES", 1 << 30)
    one_shot = sample_gaussian_weight(cfg, 1000, seed=5)
    monkeypatch.setattr(intertwine, "_EIG_BLOCK_ENTRIES", 37 * cfg.n * cfg.n)
    assert np.array_equal(sample_gaussian_weight(cfg, 1000, seed=5), one_shot)


def _bin_integrals(density, edges):
    """Integral of density over each bin by 8-point Gauss-Legendre."""
    g, gw = np.polynomial.legendre.leggauss(8)
    lo, hi = edges[:-1, None], edges[1:, None]
    pts = (lo + hi) / 2 + (hi - lo) / 2 * g
    return (density(pts.ravel()).reshape(pts.shape) * gw).sum(axis=1) * (hi - lo)[:, 0] / 2


@pytest.mark.parametrize("cfg, lo, hi", [
    (RootSystemConfig(TYPE_A, 3, 2.0), -5.0, 5.0),
    (RootSystemConfig(TYPE_B, 4, 2.0, nu=0.5), 1e-9, 6.5),
], ids=["A3", "B4_nu0.5"])
def test_sample_gaussian_weight_beta2_histogram(cfg, lo, hi):
    # at beta = 2 every particle position, pooled, has the exact one-point
    # density at t = 1; compare 40 bin counts with the density's bin
    # integrals (midpoint values would bias the tails by many sigma)
    from dunkl_lab.orthopoly import density_a_exact, density_b_exact
    n_samples = 200000
    xs = sample_gaussian_weight(cfg, n_samples, seed=12)
    edges = np.linspace(lo, hi, 41)
    obs, _ = np.histogram(xs, edges)
    if cfg.kind == TYPE_A:
        exp = n_samples * _bin_integrals(lambda y: density_a_exact(cfg.n, 1.0, y), edges)
    else:
        exp = n_samples * _bin_integrals(
            lambda y: density_b_exact(cfg.n, cfg.nu, 1.0, y), edges)
    assert exp.min() > 20
    chi2_dof = float(((obs - exp) ** 2 / exp).sum()) / len(exp)
    assert chi2_dof < 2.0, chi2_dof


def test_series_shells_stacked_points_match_single_points():
    rng = np.random.default_rng(8)
    ys = rng.uniform(-0.8, 0.8, size=(500, 3))
    xs = rng.uniform(-0.8, 0.8, size=(2, 3))
    for b in (None, 2.3):
        params = HyperSeriesParams(alpha=0.7, n_vars=3, max_degree=12, b=b)
        stacked = intertwine._series_shells(params, xs, ys)
        assert stacked.shape == (13, 2, 500)
        for k in range(2):
            assert np.array_equal(stacked[:, k], intertwine._series_shells(params, xs[k], ys))


def test_kernel_reproducing_small_sample():
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    lhs, rhs, se = kernel_reproducing_check(
        cfg, np.array([0.2, 0.5]), np.array([-0.4, 0.1]),
        n_samples=30000, max_degree=20, seed=6)
    assert abs(lhs - rhs) <= 4 * se
    assert se < 0.1 * rhs
