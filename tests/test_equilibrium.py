import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import roots_genlaguerre, roots_hermite

from dunkl_lab import equilibrium
from dunkl_lab.equilibrium import (
    cm_gradient_identity_residual,
    fke_residual,
    gaussian_steady_approx,
    peak_set,
    potential,
    potential_b_tilde,
    steady_state_logdensity,
)
from dunkl_lab.orthopoly import hermite_zeros, laguerre_zeros
from dunkl_lab.rootsys import (
    TYPE_A,
    TYPE_B,
    RootSystemConfig,
    chamber_dot,
    freezing_constant,
    gamma,
    in_weyl_chamber,
    log_selberg_const,
    weyl_orbit,
    weyl_order,
)


def _rand_interior(cfg, rng, spread=2.0):
    while True:
        v = np.sort(rng.uniform(0.2 if cfg.kind == TYPE_B else -spread, spread,
                                size=cfg.n))
        if np.min(np.diff(v)) > 0.15 if cfg.n > 1 else True:
            return v


def _roots_by_hand(cfg):
    # (coefficients {index: c}, kappa) of every positive root
    roots = []
    for j in range(cfg.n):
        for i in range(j):
            roots.append(({j: 1.0, i: -1.0}, 1.0))
            if cfg.kind == TYPE_B:
                roots.append(({j: 1.0, i: 1.0}, 1.0))
    if cfg.kind == TYPE_B:
        roots += [({j: 1.0}, cfg.nu + 0.5) for j in range(cfg.n)]
    return roots


def _potential_by_loop(cfg, v):
    """Brute-force root loop: F through |alpha.v|, its gradient and Hessian,
    each with the summed magnitudes of its terms (the tolerance scale)."""
    n = cfg.n
    val = mag_val = 0.5 * sum(x * x for x in v)
    grad, mag_grad = np.array(v, dtype=float), np.abs(v)
    hess, mag_hess = np.eye(n), np.eye(n)
    for coef, kap in _roots_by_hand(cfg):
        a = sum(c * v[k] for k, c in coef.items())
        val -= kap * math.log(abs(a))
        mag_val += abs(kap * math.log(abs(a)))
        for k, c in coef.items():
            grad[k] -= kap * c / a
            mag_grad[k] += abs(kap * c / a)
            for m, d in coef.items():
                hess[k, m] += kap * c * d / a**2
                mag_hess[k, m] += abs(kap * c * d / a**2)
    return (val, grad, hess), (mag_val, mag_grad, mag_hess)


@st.composite
def _config_and_point(draw, chamber):
    kind = draw(st.sampled_from([TYPE_A, TYPE_B]))
    n = draw(st.integers(1, 6))
    nu = draw(st.floats(0.0, 5.0)) if kind == TYPE_B else None
    beta = draw(st.floats(1.0, 10.0))
    v = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    cfg = RootSystemConfig(kind, n, beta, nu=nu)
    if chamber:
        v = np.sort(np.abs(v) if kind == TYPE_B else v)
        assume(in_weyl_chamber(cfg, v))
    return cfg, v


@settings(max_examples=150, deadline=None)
@given(_config_and_point(chamber=True))
def test_potential_matches_root_loop(case):
    cfg, v = case
    # keep 1/(alpha.v)^2 inside the float range
    assume(all(abs(sum(c * v[i] for i, c in coef.items())) >= 1e-6
               for coef, _ in _roots_by_hand(cfg)))
    got = potential(cfg, v)
    ref, mag = _potential_by_loop(cfg, v)
    for g, r, m in zip(got, ref, mag):
        assert np.all(np.abs(np.asarray(g) - r) <= 1e-12 * np.asarray(m))
    res = cm_gradient_identity_residual(cfg, v)
    terms = float(mag[1] @ mag[1]) + float(v @ v) + 2 * gamma(cfg)
    assert res <= 1e-12 * terms


@settings(max_examples=150, deadline=None)
@given(_config_and_point(chamber=False), st.randoms(use_true_random=False))
def test_steady_state_logdensity_matches_root_loop(case, rnd):
    cfg, v = case
    n, b = cfg.n, cfg.beta
    pref = math.lgamma(n + 1) + n / 2 * math.log(
        b / (2 * math.pi) if cfg.kind == TYPE_A else 2 * b)
    k = freezing_constant(cfg)
    on_wall = any(sum(c * v[i] for i, c in coef.items()) == 0.0
                  for coef, _ in _roots_by_hand(cfg))
    got = steady_state_logdensity(cfg, v)
    if on_wall:
        assert got == -math.inf
        return
    with np.errstate(all="ignore"):  # the unused Hessian may overflow
        (val, _, _), (mag, _, _) = _potential_by_loop(cfg, v)
    scale = abs(pref) + b * (mag + abs(k))
    assert abs(got - (pref - b * (val - k))) <= 1e-12 * scale
    # invariant under the reflection group: permutations (A), signed ones (B)
    img = v[rnd.sample(range(n), n)]
    if cfg.kind == TYPE_B:
        img = img * np.array([rnd.choice([-1.0, 1.0]) for _ in range(n)])
    assert abs(steady_state_logdensity(cfg, img) - got) <= 1e-12 * scale


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 0.0), (TYPE_B, 1.5)])
def test_steady_state_logdensity_is_minus_inf_on_walls(kind, nu):
    cfg = RootSystemConfig(kind, 3, 2.0, nu=nu)
    walls = [np.array([0.5, 0.5, 1.0]), np.array([-1.0, 0.2, -1.0])]
    if kind == TYPE_B:
        walls += [np.array([0.0, 0.4, 1.0]), np.array([0.3, -0.3, 1.2])]
    for w in walls:
        assert steady_state_logdensity(cfg, w) == -math.inf


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 0.5), (TYPE_B, 2.5)])
def test_potential_derivatives_match_finite_differences(kind, nu):
    cfg = RootSystemConfig(kind, 4, 2.0, nu=nu)
    rng = np.random.default_rng(3)
    v = _rand_interior(cfg, rng)
    val, grad, hess = potential(cfg, v)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        vp, gp, _ = potential(cfg, v + e)
        vm, gm, _ = potential(cfg, v - e)
        assert grad[i] == pytest.approx((vp - vm) / (2 * h), rel=1e-6, abs=1e-6)
        assert np.allclose(hess[:, i], (gp - gm) / (2 * h), rtol=1e-5, atol=1e-5)


def test_potential_rejects_wall_points():
    # every routine that needs an interior point says why it refuses one:
    # a wrong length, a tie (A), a zero or negative coordinate (B)
    cases = [(TYPE_A, None, [0.5, 1.0, 2.0], "wrong length"),
             (TYPE_A, None, [1.0, 1.0], "not strictly inside the Weyl chamber"),
             (TYPE_B, 0.5, [0.5], "wrong length"),
             (TYPE_B, 0.5, [0.0, 1.0], "not strictly inside the Weyl chamber"),
             (TYPE_B, 0.5, [-0.5, 1.0], "not strictly inside the Weyl chamber")]
    fke = lambda cfg, v: fke_residual(cfg, lambda x: 0.0, v)  # noqa: E731
    for kind, nu, v, message in cases:
        cfg = RootSystemConfig(kind, 2, 2.0, nu=nu)
        for fn in (potential, fke, cm_gradient_identity_residual):
            with pytest.raises(ValueError, match=message):
                fn(cfg, np.array(v))


@pytest.mark.parametrize("kind,n,nu", [(TYPE_A, 7, None), (TYPE_A, 50, None),
                                       (TYPE_B, 7, 0.5), (TYPE_B, 40, 0.0), (TYPE_B, 25, 2.5)])
def test_hessian_at_the_peak_set_has_spectrum_c_k(kind, n, nu):
    # the report's Hessian is the potential's at the minimizer, bit for bit,
    # and its eigenvalues are 1, 2, ..., N (A) and 2, 4, ..., 2N (B, any nu)
    cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
    rep = peak_set(cfg)
    assert np.array_equal(rep.hessian, potential(cfg, rep.minimizer)[2])
    spectrum = (1.0 if kind == TYPE_A else 2.0) * np.arange(1, n + 1)
    assert np.max(np.abs(np.linalg.eigvalsh(rep.hessian) / spectrum - 1.0)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_peak_set_type_a_is_hermite_zero_set(n):
    rep = peak_set(RootSystemConfig(TYPE_A, n, 2.0))
    assert np.max(np.abs(rep.minimizer - hermite_zeros(n).zeros)) < 1e-9
    assert rep.identity_residuals["potential_minus_constant"] < 1e-9
    assert rep.identity_residuals["sq_norm_minus_gamma"] < 1e-9


@pytest.mark.parametrize("n", [1, 3, 8, 15])
@pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
def test_peak_set_type_b_is_sqrt_laguerre_zero_set(n, nu):
    rep = peak_set(RootSystemConfig(TYPE_B, n, 2.0, nu=nu))
    oracle = np.sqrt(laguerre_zeros(n, nu - 0.5).zeros)
    assert np.max(np.abs(rep.minimizer - oracle)) < 1e-9
    assert rep.identity_residuals["potential_minus_constant"] < 1e-9
    assert rep.identity_residuals["sq_norm_minus_gamma"] < 1e-9


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.5, 1e4])
def test_peak_set_b1_converges_in_one_newton_iteration(nu):
    # the start sqrt(nu + 1/2) is the minimizer of v^2/2 - (nu + 1/2) log v
    rep = peak_set(RootSystemConfig(TYPE_B, 1, 2.0, nu=nu))
    assert rep.newton_iterations == 1
    assert abs(rep.minimizer[0] - math.sqrt(nu + 0.5)) <= 4e-16 * math.sqrt(nu + 0.5)


@pytest.mark.parametrize("kind,n,nu", [
    (TYPE_A, 1, None), (TYPE_A, 2, None), (TYPE_A, 7, None), (TYPE_B, 1, 0.0),
    (TYPE_B, 1, 1e4), (TYPE_B, 7, 0.0), (TYPE_B, 7, 1e4)])
def test_newton_starts_at_the_scaled_weyl_vector(kind, n, nu, monkeypatch):
    # the first point Newton evaluates is sum kappa alpha (2 rho) scaled to
    # |v|^2 = gamma, strictly inside the chamber; type A at N = 1 has no
    # roots and starts at its minimizer, 0
    cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
    points = []
    monkeypatch.setattr(equilibrium, "potential",
                        lambda c, v: points.append(np.array(v)) or potential(c, v))
    peak_set(cfg)
    v0, g = points[0], gamma(cfg)
    if g == 0.0:
        assert np.array_equal(v0, np.zeros(1))
        return
    assert np.all(chamber_dot(cfg, v0) > 0)
    assert abs(float(v0 @ v0) - g) <= 1e-14 * g
    w = np.zeros(n)  # sum kappa alpha over the roots listed by hand
    for coef, kap in _roots_by_hand(cfg):
        for p, c in coef.items():
            w[p] += kap * c
    assert np.allclose(v0 * np.linalg.norm(w), w * math.sqrt(g), rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind,n,nu", [
    (TYPE_A, 300, None), (TYPE_B, 200, 0.5), (TYPE_B, 300, 2.5), (TYPE_A, 1000, None)])
def test_peak_set_large_n(kind, n, nu):
    # the stop must scale with the size of F's terms: a rule on |grad| never
    # stopped at B200, and a decrement bound of 16 eps * size stops 1e-7 short
    # of the zeros at A300
    cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
    rep = peak_set(cfg)
    if kind == TYPE_A:
        oracle = np.sort(roots_hermite(n)[0])
    else:
        oracle = np.sqrt(np.sort(roots_genlaguerre(n, nu - 0.5)[0]))
    v = rep.minimizer
    assert np.max(np.abs(v - oracle)) <= 1e-12 * max(1.0, float(np.max(oracle)))
    k, g = freezing_constant(cfg), gamma(cfg)
    assert abs(rep.potential_at_min - k) <= 1e-13 * max(1.0, abs(k))
    assert abs(float(v @ v) - g) <= 1e-13 * g
    assert 0.0 <= rep.newton_decrement <= 1e-20
    assert rep.potential_evaluations >= rep.newton_iterations


def test_log_discriminant_identities():
    for n in range(2, 21):
        h = hermite_zeros(n).zeros
        lhs = 2 * sum(math.log(abs(h[j] - h[i]))
                      for i in range(n) for j in range(i + 1, n))
        rhs = sum(i * math.log(i) for i in range(1, n + 1)) \
            - n / 2 * (n - 1) * math.log(2)
        assert lhs == pytest.approx(rhs, abs=1e-9)
        a = 1.5
        l = laguerre_zeros(n, a).zeros
        assert float(np.sum(np.log(l))) == pytest.approx(
            sum(math.log(a + i) for i in range(1, n + 1)), abs=1e-9)
        lhs2 = 2 * sum(math.log(abs(l[j] - l[i]))
                       for i in range(n) for j in range(i + 1, n))
        rhs2 = sum((i - 1) * math.log(a + i) + i * math.log(i)
                   for i in range(1, n + 1))
        assert lhs2 == pytest.approx(rhs2, abs=1e-9)


def test_potential_b_tilde():
    val, grad = potential_b_tilde(np.ones(4))
    assert val == pytest.approx(0.0)
    assert np.allclose(grad, 0.0)
    val2, grad2 = potential_b_tilde(np.array([2.0]))
    assert val2 == pytest.approx(2.0 - math.log(2.0) - 0.5)
    assert grad2[0] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        potential_b_tilde(np.array([-1.0, 1.0]))


def test_steady_state_chamber_mass_closed_form():
    # the chamber integral of the density has the exact value
    #   N! (beta/2pi)^{N/2} e^{beta K} beta^{-(N+beta*gamma)/2} c_beta / |W|
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    val, _ = dblquad(
        lambda y, x: math.exp(steady_state_logdensity(cfg, np.array([x, y]))),
        -8, 8, lambda x: x, lambda x: 8)
    b, g = cfg.beta, gamma(cfg)
    expected = math.exp(
        math.lgamma(cfg.n + 1) + cfg.n / 2 * math.log(b / (2 * math.pi))
        + b * freezing_constant(cfg) - (cfg.n + b * g) / 2 * math.log(b)
        + log_selberg_const(cfg) - math.log(weyl_order(cfg)))
    assert val == pytest.approx(expected, rel=1e-6)


def test_steady_state_reflection_symmetry():
    cfg = RootSystemConfig(TYPE_A, 3, 4.0)
    v = np.array([-0.8, 0.1, 1.2])
    base = steady_state_logdensity(cfg, v)
    for img in weyl_orbit(cfg, v):
        assert steady_state_logdensity(cfg, img) == pytest.approx(base, abs=1e-10)
    cfgb = RootSystemConfig(TYPE_B, 2, 2.0, nu=1.0)
    vb = np.array([0.4, 1.1])
    baseb = steady_state_logdensity(cfgb, vb)
    assert steady_state_logdensity(cfgb, np.array([-0.4, 1.1])) == pytest.approx(
        baseb, abs=1e-10)


def test_weyl_orbit_and_order():
    cfg = RootSystemConfig(TYPE_A, 3, 2.0)
    assert weyl_order(cfg) == 6
    assert weyl_orbit(cfg, np.array([1.0, 2.0, 3.0])).shape == (6, 3)
    cfgb = RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5)
    assert weyl_order(cfgb) == 8
    assert weyl_orbit(cfgb, np.array([1.0, 2.0])).shape == (8, 2)


def test_gaussian_steady_approx_mass_large_beta():
    # at beta = 20 the sum-of-Gaussians approximation integrates to ~1
    cfg = RootSystemConfig(TYPE_A, 2, 20.0)
    val, _ = dblquad(
        lambda y, x: gaussian_steady_approx(cfg, np.array([x, y])),
        -3, 3, lambda x: -3.0, lambda x: 3.0)
    assert val == pytest.approx(1.0, rel=0.02)


def _gaussian_steady_by_potential(cfg, v):
    """gaussian_steady_approx with the Hessian rebuilt on every call, the form
    that the cached Hessian replaced, kept as its oracle."""
    s = peak_set(cfg).minimizer
    _, _, hess = potential(cfg, s)
    diffs = v[None, :] - weyl_orbit(cfg, s)
    quad = np.einsum("ki,ij,kj->k", diffs, hess, diffs)
    _, logdet = np.linalg.slogdet(hess)
    pref = (cfg.n / 2.0 * math.log(cfg.beta) + 0.5 * logdet
            - cfg.n / 2.0 * math.log(2 * math.pi) - math.log(weyl_order(cfg)))
    return float(np.exp(pref) * np.sum(np.exp(-cfg.beta * quad / 2.0)))


@pytest.mark.parametrize("cfg", [RootSystemConfig(TYPE_A, 2, 20.0),
                                 RootSystemConfig(TYPE_A, 4, 3.0),
                                 RootSystemConfig(TYPE_B, 3, 7.5, nu=0.5)],
                         ids=["A2", "A4", "B3"])
def test_gaussian_steady_approx_builds_the_hessian_once(cfg, monkeypatch):
    monkeypatch.setattr(equilibrium, "_PEAK_CACHE", {})
    calls = []
    monkeypatch.setattr(equilibrium, "potential",
                        lambda *a: calls.append(1) or potential(*a))
    rng = np.random.default_rng(cfg.n)
    points = [_rand_interior(cfg, rng) for _ in range(5)]
    values = [gaussian_steady_approx(cfg, points[0])]
    first = len(calls)  # the peak set's Newton solve and the Hessian
    assert first > 0
    values += [gaussian_steady_approx(cfg, v) for v in points[1:]]
    # another beta reuses the peak set, the Hessian and its determinant
    other = RootSystemConfig(cfg.kind, cfg.n, 2 * cfg.beta, nu=cfg.nu)
    assert gaussian_steady_approx(other, points[0]) > 0
    assert len(calls) == first
    assert values == [_gaussian_steady_by_potential(cfg, v) for v in points]


def test_gaussian_steady_matches_exact_density_at_large_beta():
    # the two objects carry different normalizations: the approximation has
    # unit mass on R^N while the steady form uses the N!(beta/2pi)^{N/2}
    # prefactor, so their pointwise ratio is N! |W| / sqrt(det H)
    cfg = RootSystemConfig(TYPE_A, 2, 200.0)
    s = peak_set(cfg).minimizer
    _, _, hess = potential(cfg, s)
    ratio = math.factorial(2) * weyl_order(cfg) / math.sqrt(np.linalg.det(hess))
    for dv in (0.0, 0.03, -0.05):
        v = s + dv
        approx = gaussian_steady_approx(cfg, v)
        exact = math.exp(steady_state_logdensity(cfg, v))
        assert approx * ratio == pytest.approx(exact, rel=0.05)


def test_fke_residual_vanishes_on_steady_state():
    rng = np.random.default_rng(42)
    for kind, nu in ((TYPE_A, None), (TYPE_B, 0.5)):
        cfg = RootSystemConfig(kind, 2, 2.0, nu=nu)
        fn = lambda v, c=cfg: steady_state_logdensity(c, v)  # noqa: E731
        for _ in range(4):
            v = _rand_interior(cfg, rng, spread=1.5)
            r = fke_residual(cfg, fn, v)
            assert abs(r.value) <= 1e-4 * r.term_scale


def test_fke_residual_n1_ornstein_uhlenbeck():
    cfg = RootSystemConfig(TYPE_A, 1, 3.0)
    fn = lambda v: -cfg.beta * float(v[0]) ** 2 / 2.0  # noqa: E731
    r = fke_residual(cfg, fn, np.array([0.6]))
    assert abs(r.value) <= 1e-6 * r.term_scale


def test_fke_residual_rejects_wrong_density():
    # a Gaussian without the interaction weight is far from stationary
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    fn = lambda v: -cfg.beta * float(v @ v) / 2.0  # noqa: E731
    r = fke_residual(cfg, fn, np.array([-0.5, 0.7]))
    assert abs(r.value) >= 1e-2 * r.term_scale


def test_fke_residual_boundary_margin_error():
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    fn = lambda v: steady_state_logdensity(cfg, v)  # noqa: E731
    with pytest.raises(ValueError):
        fke_residual(cfg, fn, np.array([0.0, 1e-6]))


def test_cm_gradient_identity():
    # hand value: type A, N=2, v=(0,1), beta=2: |grad F|^2 = 1
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    assert cm_gradient_identity_residual(cfg, np.array([0.0, 1.0])) < 1e-12
    rng = np.random.default_rng(9)
    for kind, nu in ((TYPE_A, None), (TYPE_B, 1.5)):
        c = RootSystemConfig(kind, 3, 2.5, nu=nu)
        for _ in range(5):
            v = _rand_interior(c, rng)
            assert cm_gradient_identity_residual(c, v) < 1e-8
