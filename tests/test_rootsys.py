import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from dunkl_lab import equilibrium, intertwine, sde
from dunkl_lab.rootsys import (
    TYPE_A,
    TYPE_B,
    RootSystemConfig,
    chamber_dot,
    freezing_constant,
    gamma,
    in_weyl_chamber,
    log_selberg_const,
    log_weight,
    rank,
    root_table,
    span_complement,
    weyl_orbit,
)


def test_config_validation():
    with pytest.raises(ValueError):
        RootSystemConfig(TYPE_A, 0, 2.0)
    with pytest.raises(ValueError):
        RootSystemConfig(TYPE_A, 3, -1.0)
    with pytest.raises(ValueError):
        RootSystemConfig(TYPE_A, 3, 2.0, nu=1.0)  # nu is a type-B parameter
    with pytest.raises(ValueError):
        RootSystemConfig(TYPE_B, 3, 0.5, nu=1.0)  # type B needs beta >= 1
    with pytest.raises(ValueError):
        RootSystemConfig(TYPE_B, 3, 2.0)  # nu required
    with pytest.raises(ValueError):
        RootSystemConfig(TYPE_B, 3, 2.0, nu=-0.1)
    # beta and nu must be finite: NaN fails every comparison, inf only the bound
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="type A requires 0 < beta < inf"):
            RootSystemConfig(TYPE_A, 3, beta)
        with pytest.raises(ValueError, match="type B requires 1 <= beta < inf"):
            RootSystemConfig(TYPE_B, 3, beta, nu=1.0)
    for nu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="type B requires 0 <= nu < inf"):
            RootSystemConfig(TYPE_B, 3, 2.0, nu=nu)
    # N must be an integer: a float N used to fail later, in the root table
    for n in (2.5, 3.0, "3"):
        for kind, nu in ((TYPE_A, None), (TYPE_B, 0.5)):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                RootSystemConfig(kind, n, 2.0, nu=nu)
    assert gamma(RootSystemConfig(TYPE_A, np.int64(3), 2.0)) == 3.0


def test_rank_and_gamma():
    assert rank(RootSystemConfig(TYPE_A, 5, 2.0)) == 4
    assert rank(RootSystemConfig(TYPE_B, 5, 2.0, nu=1.0)) == 5
    assert gamma(RootSystemConfig(TYPE_A, 4, 3.0)) == 6.0
    assert gamma(RootSystemConfig(TYPE_B, 4, 3.0, nu=0.5)) == 4 * 4.0
    assert gamma(RootSystemConfig(TYPE_B, 3, 3.0, nu=0.3)) == 8.4  # 6 + 3 (0.3 + 0.5)


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 0.5), (TYPE_B, 2.5)])
@pytest.mark.parametrize("n", range(1, 9))
def test_gamma_equals_multiplicity_sum(kind, nu, n):
    cfg = RootSystemConfig(kind, n, 1.7, nu=nu)
    roots, kappas = _positive_roots_by_loop(cfg)
    assert roots.shape == (len(kappas), n)
    assert abs(gamma(cfg) - float(np.sum(kappas))) < 1e-12


def _dense_roots(cfg):
    # the table as a dense (n_roots, N) root matrix and its multiplicities
    t = root_table(cfg)
    roots = np.zeros((len(t.kappa), cfg.n))
    roots[np.arange(len(t.kappa)), t.j] = 1.0
    roots[np.arange(len(t.kappa)), t.i] += t.s
    return roots, t.kappa


def _positive_roots_by_loop(cfg):
    # the dense listing as it was written before the root table
    n = cfg.n
    roots, kappas = [], []
    for i in range(n):
        for j in range(i):
            r = np.zeros(n)
            r[i], r[j] = 1.0, -1.0
            roots.append(r)
            kappas.append(1.0)
            if cfg.kind == TYPE_B:
                r = np.zeros(n)
                r[i], r[j] = 1.0, 1.0
                roots.append(r)
                kappas.append(1.0)
    if cfg.kind == TYPE_B:
        for i in range(n):
            r = np.zeros(n)
            r[i] = 1.0
            roots.append(r)
            kappas.append(cfg.nu + 0.5)
    return np.reshape(roots, (len(kappas), n)), np.asarray(kappas)


def test_positive_roots_hand_listed():
    roots, kappas = _dense_roots(RootSystemConfig(TYPE_A, 3, 2.0))
    assert np.array_equal(roots, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert np.array_equal(kappas, [1, 1, 1])
    roots, kappas = _dense_roots(RootSystemConfig(TYPE_B, 2, 2.0, nu=1.5))
    assert np.array_equal(roots, [[-1, 1], [1, 1], [1, 0], [0, 1]])
    assert np.array_equal(kappas, [1, 1, 2, 2])
    roots, kappas = _dense_roots(RootSystemConfig(TYPE_A, 1, 2.0))
    assert roots.shape == (0, 1) and kappas.shape == (0,)
    for kind, nu in ((TYPE_A, None), (TYPE_B, 0.0), (TYPE_B, 2.5)):
        for n in range(1, 7):
            cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
            roots, kappas = _dense_roots(cfg)
            ref_roots, ref_kappas = _positive_roots_by_loop(cfg)
            assert np.array_equal(roots, ref_roots)
            assert np.array_equal(kappas, ref_kappas)


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 0.5)])
@pytest.mark.parametrize("n", range(1, 6))
def test_span_complement_projects_off_the_roots(kind, nu, n):
    # a symmetric projector of rank N - rank that annihilates every root
    cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
    p = span_complement(cfg)
    roots, _ = _dense_roots(cfg)
    assert np.allclose(p, p.T) and np.allclose(p @ p, p, atol=1e-15)
    assert np.allclose(roots @ p, 0.0, atol=1e-15)
    assert round(float(np.trace(p))) == n - rank(cfg)


def test_root_table_is_cached_and_read_only():
    cfg = RootSystemConfig(TYPE_B, 4, 2.0, nu=0.5)
    t = root_table(cfg)
    assert root_table(RootSystemConfig(TYPE_B, 4, 7.0, nu=0.5)) is t  # beta is not in the key
    assert root_table(RootSystemConfig(TYPE_B, 4, 2.0, nu=1.5)) is not t
    v = np.array([0.3, 0.7, 1.1, 2.0])
    roots, _ = _dense_roots(cfg)
    assert np.array_equal(t.dot(v), roots @ v)
    with pytest.raises(ValueError):
        t.kappa[0] = 0.0
    # a particle-first batch (N, ...) is the per-column dot, bit for bit,
    # signed zeros, infinities and NaNs included
    pts = np.random.default_rng(5).normal(size=(4, 6, 3))
    pts[0, 0, 0], pts[1, 2, 1], pts[2, 3, 2], pts[3, 5, 0] = -0.0, math.inf, math.nan, -math.inf
    with np.errstate(invalid="ignore"):  # 0 inf on the coordinate roots
        batch = t.dot(pts)
        cols = np.stack([[t.dot(pts[:, p, q]) for q in range(3)] for p in range(6)])
    assert batch.shape == (len(t.kappa), 6, 3)
    assert np.moveaxis(cols, -1, 0).tobytes() == batch.tobytes()


def test_root_layout_is_shared_across_nu():
    # only kappa depends on nu: B120 at nu = 0.5 and 2.5 share one copy of
    # the other arrays (576 kB each) instead of holding two
    n = 120
    lo, hi = (root_table(RootSystemConfig(TYPE_B, n, 2.0, nu=nu)) for nu in (0.5, 2.5))
    assert lo is not hi
    for name in ("i", "j", "s", "norm2", "ji"):
        a, b = getattr(lo, name), getattr(hi, name)
        assert np.shares_memory(a, b) and np.array_equal(a, b), name
    assert np.array_equal(lo.kappa[:-n], hi.kappa[:-n]) and np.all(lo.kappa[:-n] == 1.0)
    assert np.all(lo.kappa[-n:] == 1.0) and np.all(hi.kappa[-n:] == 3.0)
    assert not np.shares_memory(lo.kappa, hi.kappa)


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 1.5)])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_transposes_of_dot_match_the_dense_roots(kind, nu, n):
    # integer weights keep every sum exact, so each map is compared with the
    # dense root rows bit for bit; type A at N = 1 has no roots
    cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
    t = root_table(cfg)
    roots, _ = _positive_roots_by_loop(cfg)
    norm2 = (roots**2).sum(axis=1)
    rng = np.random.default_rng(n)
    c = rng.integers(-5, 6, size=len(roots)).astype(float)
    v = rng.normal(size=n)
    for got, want in ((t.spread(c), roots.T @ c),
                      (t.spread(c, unsigned=True), np.abs(roots).T @ c),
                      (t.outer(c), roots.T @ (c[:, None] * roots)),
                      (t.norm2, norm2),
                      (t.reflect(v), v - (2 * (roots @ v) / norm2)[:, None] * roots)):
        assert got.dtype == float and got.shape == want.shape
        assert np.array_equal(got, want)
    assert t.n == n and not (t.norm2.flags.writeable or t.ji.flags.writeable)
    if not len(roots):  # np.bincount over no weights counts in integers
        _, grad, hess = equilibrium.potential(cfg, [0.3])
        assert hess.dtype == float and np.array_equal(hess, [[1.0]])
        assert np.array_equal(grad, [0.3])


def test_log_weight_hand_values():
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    assert log_weight(cfg, np.array([0.0, 1.0])) == pytest.approx(0.0)
    # type B, N=2, beta=2, nu=1/2: product |x1 x2|^2 |x2^2-x1^2|^2 = 36 at (1,2)
    cfgb = RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5)
    assert log_weight(cfgb, np.array([1.0, 2.0])) == pytest.approx(math.log(36.0))


def test_log_weight_vanishes_on_walls():
    assert log_weight(RootSystemConfig(TYPE_A, 2, 2.0), np.array([0.3, 0.3])) == -math.inf
    assert log_weight(RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5),
                      np.array([0.0, 1.0])) == -math.inf


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    st.floats(0.2, 4.0),
)
def test_log_weight_homogeneity_type_a(coords, c):
    cfg = RootSystemConfig(TYPE_A, 3, 1.5)
    x = np.array(coords)
    # c * x rounds each coordinate, which moves a near-tied gap by a relative
    # amount far above 1e-8; log_weight is then right about the rounded
    # input, not about the exact scaling, so skip near-tied draws
    assume(np.diff(np.sort(x)).min() >= 1e-6 * max(1.0, np.abs(x).max()))
    lw = log_weight(cfg, x)
    scaled = log_weight(cfg, c * x)
    assert scaled == pytest.approx(lw + cfg.beta * gamma(cfg) * math.log(c), abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3), st.permutations([0, 1, 2]))
def test_log_weight_reflection_invariance(coords, perm):
    # the weight is invariant under coordinate permutations (A) and
    # additionally under sign flips (B)
    xa = np.array(coords)
    cfg_a = RootSystemConfig(TYPE_A, 3, 2.0)
    assert log_weight(cfg_a, xa[perm]) == pytest.approx(log_weight(cfg_a, xa), abs=1e-9)
    cfg_b = RootSystemConfig(TYPE_B, 3, 2.0, nu=1.0)
    flipped = xa[perm] * np.array([1.0, -1.0, 1.0])
    assert log_weight(cfg_b, flipped) == pytest.approx(log_weight(cfg_b, xa), abs=1e-9)


def test_log_weight_batched():
    cfg = RootSystemConfig(TYPE_A, 2, 2.0)
    pts = np.array([[0.0, 1.0], [0.0, 2.0]])
    out = log_weight(cfg, pts)
    assert out.shape == (2,)
    assert out[1] == pytest.approx(2 * math.log(2.0))
    # leading axes of any shape; a wall gives -inf inside a batch
    cfgb = RootSystemConfig(TYPE_B, 3, 2.0, nu=0.5)
    pts = np.random.default_rng(3).normal(size=(4, 5, 3))
    pts[1, 2, 0] = 0.0
    out = log_weight(cfgb, pts)
    assert out.shape == (4, 5) and out[1, 2] == -math.inf
    # the root sum runs in table order for one point and for a batch, so each
    # point's value is the per-row call's bit for bit
    rows = np.array([[log_weight(cfgb, p) for p in row] for row in pts])
    assert np.array_equal(out, rows)
    # type A at N = 1 has no roots: weight 1 at every point of a batch
    assert np.array_equal(log_weight(RootSystemConfig(TYPE_A, 1, 2.0), pts[..., :1]),
                          np.zeros((4, 5)))
    x = pts[3, 4]  # |x1 x2 x3|^2 prod_{i<j} (x_j^2 - x_i^2)^2 at beta = 2, nu = 1/2
    ref = math.log(x.prod() ** 2 * np.prod([(x[j] ** 2 - x[i] ** 2) ** 2 for j, i in
                                            ((1, 0), (2, 0), (2, 1))]))
    assert out[3, 4] == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))


def test_selberg_constant_n1():
    # N=1 type A: plain Gaussian integral
    assert log_selberg_const(RootSystemConfig(TYPE_A, 1, 7.3)) == pytest.approx(
        0.5 * math.log(2 * math.pi))
    # N=1 type B: int |x|^{beta(nu+1/2)} e^{-x^2/2} dx by quadrature
    cfg = RootSystemConfig(TYPE_B, 1, 2.0, nu=1.5)
    val, _ = quad(lambda x: abs(x) ** 4 * math.exp(-x * x / 2), -np.inf, np.inf)
    assert log_selberg_const(cfg) == pytest.approx(math.log(val), abs=1e-9)


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.5])
def test_selberg_constant_n2_type_a_quadrature(beta):
    cfg = RootSystemConfig(TYPE_A, 2, beta)
    val, _ = dblquad(
        lambda y, x: abs(y - x) ** beta * math.exp(-(x * x + y * y) / 2),
        -np.inf, np.inf, lambda x: -np.inf, lambda x: np.inf)
    assert log_selberg_const(cfg) == pytest.approx(math.log(val), rel=1e-8)


def test_selberg_constant_n2_type_b_quadrature():
    beta, nu = 2.0, 0.5
    cfg = RootSystemConfig(TYPE_B, 2, beta, nu=nu)
    e = beta * (nu + 0.5)
    val, _ = dblquad(
        lambda y, x: abs(x * y) ** e * abs(y * y - x * x) ** beta
        * math.exp(-(x * x + y * y) / 2),
        -9, 9, lambda x: -9, lambda x: 9)
    assert log_selberg_const(cfg) == pytest.approx(math.log(val), rel=1e-7)


def test_freezing_constant_n1():
    # N=1 type A: F(v)=v^2/2 has minimum 0
    assert freezing_constant(RootSystemConfig(TYPE_A, 1, 2.0)) == pytest.approx(0.0)
    # N=1 type B: minimize v^2/2 - (nu+1/2) log v directly
    nu = 1.5
    k = (nu + 0.5) / 2 - (nu + 0.5) / 2 * math.log(nu + 0.5)
    assert freezing_constant(RootSystemConfig(TYPE_B, 1, 2.0, nu=nu)) == pytest.approx(k)


def test_in_weyl_chamber():
    cfg = RootSystemConfig(TYPE_A, 3, 2.0)
    assert in_weyl_chamber(cfg, np.array([-1.0, 0.0, 2.0]))
    assert not in_weyl_chamber(cfg, np.array([0.0, 0.0, 2.0]))
    cfgb = RootSystemConfig(TYPE_B, 2, 2.0, nu=0.5)
    assert in_weyl_chamber(cfgb, np.array([0.5, 1.0]))
    assert not in_weyl_chamber(cfgb, np.array([-0.5, 1.0]))
    assert not in_weyl_chamber(cfgb, np.array([0.0, 1.0]))
    # a type-B coordinate root at +inf reads inf + 0 inf = NaN, so the point
    # is outside, where the order test let it in; type A is unchanged
    x = np.array([0.5, math.inf])
    with np.errstate(invalid="ignore"):
        assert _in_chamber_by_order(cfgb, x) and not in_weyl_chamber(cfgb, x)
    assert in_weyl_chamber(RootSystemConfig(TYPE_A, 2, 2.0), x)
    # a wrong length names the shape and N, for one point and for a batch
    cases = [(in_weyl_chamber, [0.5, 1.0, 2.0]), (chamber_dot, [0.5, 1.0, 2.0]),
             (log_weight, [[0.5, 1.0, 2.0]] * 4)]
    for fn, x in cases:
        with pytest.raises(ValueError, match=re.escape(f"wrong length: shape {np.shape(x)}, N = 2")):
            fn(cfgb, x)


_CFG_A3 = RootSystemConfig(TYPE_A, 3, 2.0)
_X3 = [-1.0, 0.0, 1.0]


# every public function that takes one point of the system checks its length
@pytest.mark.parametrize("call", [
    lambda v: equilibrium.steady_state_logdensity(_CFG_A3, v),
    lambda v: equilibrium.gaussian_steady_approx(_CFG_A3, v),
    lambda v: sde.euler_step(_CFG_A3, sde.ParticleState(v, 0.0), 0.01, np.zeros(3)),
    lambda v: sde.euler_step(_CFG_A3, sde.ParticleState(_X3, 0.0), 0.01, v),
    lambda v: intertwine.frozen_kernel(_CFG_A3, v, _X3),
    lambda v: intertwine.frozen_kernel(_CFG_A3, _X3, v),
    lambda v: weyl_orbit(_CFG_A3, v),
    lambda v: intertwine.radial_transition_logdensity(_CFG_A3, 0.5, _X3, v),
    lambda v: intertwine.radial_transition_logdensity(_CFG_A3, 0.5, v, _X3),
    lambda v: intertwine.kernel_reproducing_check(_CFG_A3, v, _X3, n_samples=4),
    lambda v: intertwine.kernel_reproducing_check(_CFG_A3, _X3, v, n_samples=4),
], ids=["steady_state_logdensity", "gaussian_steady_approx", "euler_step_positions",
        "euler_step_noise", "frozen_kernel_x", "frozen_kernel_y", "weyl_orbit",
        "transition_x", "transition_y", "reproducing_check_y", "reproducing_check_z"])
@pytest.mark.parametrize("v", [[-1.0, 0.0, 1.0, 5.0], [-1.0, 1.0], [[-1.0, 0.0, 1.0]] * 2],
                         ids=["longer", "shorter", "batched"])
def test_a_point_of_the_wrong_length_is_refused(call, v):
    with pytest.raises(ValueError, match="wrong length"):
        call(np.array(v))


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 0.5)])
def test_chamber_dot_gates_on_the_chamber_test(kind, nu):
    # alpha . x for every point in_weyl_chamber lets in, a refusal for every other
    cfg = RootSystemConfig(kind, 2, 2.0, nu=nu)
    for x in itertools.product(_EDGE_VALUES, repeat=2):
        x = np.array(x)
        with np.errstate(invalid="ignore"):  # inf - inf, 0 inf
            if in_weyl_chamber(cfg, x):
                assert np.array_equal(chamber_dot(cfg, x), root_table(cfg).dot(x))
            else:
                with pytest.raises(ValueError, match="not strictly inside the Weyl chamber"):
                    chamber_dot(cfg, x)


def _in_chamber_by_order(cfg, x):
    # the chamber as it was written by type before the root table:
    # ascending (A), positive and ascending (B)
    if cfg.kind == TYPE_B and not np.all(x > 0):
        return False
    return bool(np.all(np.diff(x) > 0)) if cfg.n > 1 else True


_EDGE_VALUES = (-math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 1.0 + 2**-52, math.nan)


@pytest.mark.parametrize("kind,nu", [(TYPE_A, None), (TYPE_B, 0.5)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_in_weyl_chamber_matches_order_test_on_edge_values(kind, nu, n):
    # every tuple of signed zeros, subnormals, one-ulp gaps, -inf and NaN
    cfg = RootSystemConfig(kind, n, 2.0, nu=nu)
    for x in itertools.product(_EDGE_VALUES, repeat=n):
        x = np.array(x)
        with np.errstate(invalid="ignore"):  # inf - inf, 0 inf
            assert in_weyl_chamber(cfg, x) == _in_chamber_by_order(cfg, x), x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(TYPE_A, None), (TYPE_B, 0.5)]),
       st.lists(st.floats(), min_size=1, max_size=5), st.booleans())
def test_in_weyl_chamber_matches_order_test_on_draws(kind_nu, coords, ascending):
    kind, nu = kind_nu
    cfg = RootSystemConfig(kind, len(coords), 2.0, nu=nu)
    x = np.sort(coords) if ascending else np.array(coords)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 inf, overflow
        expected = _in_chamber_by_order(cfg, x)
        got = in_weyl_chamber(cfg, x)
    if kind == TYPE_B and np.any(x == math.inf):  # the one point of difference
        expected = False
    assert got == expected
