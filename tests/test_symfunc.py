import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dunkl_lab import symfunc
from dunkl_lab.symfunc import (
    SymPoly,
    conjugate,
    dominance_leq,
    elementary_eval,
    gen_pochhammer,
    hook_c,
    hook_c_prime,
    jack_coeffs,
    jack_eval,
    jack_to_monomial,
    monomial_eval,
    multinomial_m,
    partitions_of,
    schur_eval,
    sympoly_eval,
)

partition_st = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(
    lambda l: tuple(sorted(l, reverse=True)))


def test_partitions_of_counts():
    assert len(partitions_of(6, 6)) == 11
    assert len(partitions_of(6, 2)) == 4   # (6),(5,1),(4,2),(3,3)
    assert partitions_of(0, 3) == [()]
    # every partition is weakly decreasing and within the length cap
    for lam in partitions_of(7, 3):
        assert len(lam) <= 3
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


@given(partition_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_dominance():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert not dominance_leq((2, 2), (3,))  # unequal weight
    assert dominance_leq((2, 2), (2, 2))


def test_multinomial_m():
    # number of distinct rearrangements of (2,1,0) is 6; of (1,1,0) is 3
    assert multinomial_m((2, 1), 3) == 6
    assert multinomial_m((1, 1), 3) == 3
    assert multinomial_m((), 5) == 1


def test_monomial_eval_hand():
    x = np.array([2.0, 3.0])
    # m_(2,1) = x1^2 x2 + x1 x2^2 = 12 + 18
    assert monomial_eval((2, 1), x) == pytest.approx(30.0)
    assert monomial_eval((1,), x) == pytest.approx(5.0)
    assert monomial_eval((), x) == pytest.approx(1.0)
    batch = np.array([[2.0, 3.0], [1.0, 1.0]])
    assert np.allclose(monomial_eval((2, 1), batch), [30.0, 2.0])


@st.composite
def _monomial_case(draw):
    n = draw(st.integers(1, 4))
    lam = tuple(sorted(draw(st.lists(st.integers(1, 5), max_size=n)), reverse=True))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))  # (), (m,) or (a, b)
    # magnitudes from 0.01 keep every product out of the subnormal range
    coord = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))
    return lam, draw(arrays(float, lead + (n,), elements=coord))


@given(_monomial_case())
def test_monomial_eval_matches_brute_force(case):
    # m_lam(x) = sum over the distinct permutations a of lam (zero-padded)
    # of prod_k x_k^a_k; the tolerance is rel 1e-12 of the summed term
    # magnitudes, since terms of mixed sign may cancel
    lam, x = case
    n = x.shape[-1]
    perms = set(itertools.permutations(tuple(lam) + (0,) * (n - len(lam))))
    terms = [np.prod([x[..., k] ** a[k] for k in range(n)], axis=0) for a in perms]
    ref = np.sum(terms, axis=0)
    scale = np.sum(np.abs(terms), axis=0)
    got = monomial_eval(lam, x)
    assert np.shape(got) == x.shape[:-1]
    if x.ndim == 1:
        assert isinstance(got, float)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def test_elementary_eval():
    x = np.array([1.0, 2.0, 3.0])
    assert elementary_eval(2, x) == pytest.approx(11.0)
    assert elementary_eval(3, x) == pytest.approx(6.0)
    assert elementary_eval(0, x) == pytest.approx(1.0)


def test_schur_hand_value():
    # s_(2,1)(x1,x2) = x1 x2 (x1 + x2)
    x = np.array([2.0, 5.0])
    assert schur_eval((2, 1), x) == pytest.approx(70.0)


def test_jack_p2_coefficient():
    for alpha in (0.1, 1.0, 2.0, 10.0):
        c = jack_coeffs((2,), alpha, 3).coeffs
        assert c[(2,)] == pytest.approx(1.0, abs=1e-14)
        assert c[(1, 1)] == pytest.approx(2.0 / (1.0 + alpha), abs=1e-13)


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2),
                                 (3, 2, 1), (4, 2)])
def test_jack_alpha_one_is_schur(lam):
    rng = np.random.default_rng(5)
    x = rng.uniform(0.3, 1.7, size=4)
    assert jack_eval(lam, 1.0, x) == pytest.approx(schur_eval(lam, x), rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_jack_column_is_elementary(k, alpha):
    # P_{(1^k)} = e_k for every alpha
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.5, size=5)
    lam = (1,) * k
    assert jack_eval(lam, alpha, x) == pytest.approx(elementary_eval(k, x), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.permutations([0, 1, 2, 3]), st.floats(0.3, 3.0))
def test_jack_symmetry_and_homogeneity(perm, c):
    lam = (2, 1)
    x = np.array([0.4, -0.9, 1.3, 0.7])
    base = jack_eval(lam, 1.7, x)
    assert jack_eval(lam, 1.7, x[perm]) == pytest.approx(base, rel=1e-12)
    assert jack_eval(lam, 1.7, c * x) == pytest.approx(c ** 3 * base, rel=1e-10)


def _operator_apply(alpha, x, f, h=1e-5):
    """Sum x_i^2 d_i^2 f + (2/alpha) sum_{i != j} x_i^2/(x_i - x_j) d_i f,
    by central differences."""
    n = len(x)
    out = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp, fm, f0 = f(x + e), f(x - e), f(x)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp + fm - 2 * f0) / (h * h)
        out += x[i] ** 2 * d2
        for j in range(n):
            if j != i:
                out += (2.0 / alpha) * x[i] ** 2 / (x[i] - x[j]) * d1
    return out


@pytest.mark.parametrize("lam,alpha", [((2,), 0.8), ((2, 1), 1.0), ((3, 1), 2.5)])
def test_jack_is_operator_eigenfunction(lam, alpha):
    # eigenvalue sum lam_i (lam_i - 1) + (2/alpha) sum lam_i (N - i)
    n = 3
    eig = sum(p * (p - 1) for p in lam) + (2.0 / alpha) * sum(
        p * (n - i - 1) for i, p in enumerate(lam))
    x = np.array([0.9, 1.4, 2.2])
    val = jack_eval(lam, alpha, x)
    applied = _operator_apply(alpha, x, lambda z: jack_eval(lam, alpha, z))
    assert applied == pytest.approx(eig * val, rel=1e-5)


def test_jack_triangular_in_dominance():
    poly = jack_coeffs((3, 1), 1.3, 4)
    for mu in poly.coeffs:
        assert dominance_leq(mu, (3, 1))


def _operator_column_by_scan(sigma, n_vars):
    """Oracle for symfunc._operator_column: scan every target partition nu
    and every position pair of nu for a split that gives back sigma."""
    t1 = float(sum(p * (p - 1) for p in sigma))
    sig_sorted = tuple(sorted(symfunc._pad(sigma, n_vars), reverse=True))
    diag_e = 0.0
    off = {}
    for nu in partitions_of(sum(sigma), n_vars):
        b = symfunc._pad(nu, n_vars)
        coeff = 0.0
        for i in range(n_vars):
            for j in range(i + 1, n_vars):
                rest = list(b[:i]) + list(b[i + 1:j]) + list(b[j + 1:])
                bi, bj = b[i], b[j]
                lo, hi = min(bi, bj), max(bi, bj)
                for q in range(0, (bi + bj) // 2 + 1):
                    p = bi + bj - q
                    if tuple(sorted(rest + [p, q], reverse=True)) != sig_sorted:
                        continue
                    if p == q:
                        if bi == bj == p:
                            coeff += p
                    elif lo == q and hi == p:
                        coeff += p
                    elif q < lo and hi < p:
                        coeff += p - q
        if coeff == 0.0:
            continue
        if nu == sigma:
            diag_e = coeff
        else:
            off[nu] = coeff
    return t1, diag_e, off


def _jack_coeffs_by_gather(lam, alpha, n_vars):
    """Oracle for jack_coeffs: for each mu in the dominance chain, gather
    the operator's action from every earlier coefficient."""
    chain = [mu for mu in partitions_of(sum(lam), n_vars) if dominance_leq(mu, lam)]

    def eigen(mu):
        t1, diag_e, _ = symfunc._operator_column(mu, n_vars)
        return t1 + (2.0 / alpha) * diag_e

    e_lam = eigen(lam)
    u = {lam: 1.0}
    for mu in chain:
        if mu == lam:
            continue
        acc = 0.0
        for sigma, u_sig in u.items():
            if sigma == mu:
                continue
            _, _, off = symfunc._operator_column(sigma, n_vars)
            if mu in off:
                acc += (2.0 / alpha) * off[mu] * u_sig
        u[mu] = acc / (e_lam - eigen(mu))
    return SymPoly("monomial", u, n_vars)


_COLUMN_CASES = [(sigma, n) for n in range(1, 6) for w in range(13)
                 for sigma in partitions_of(w, n)]
_COLUMN_CASES += [(sigma, 3) for w in range(13, 25) for sigma in partitions_of(w, 3)]


def test_operator_column_matches_scan():
    # every partition with N <= 5 and weight <= 12, and N = 3 up to weight 24
    for sigma, n in _COLUMN_CASES:
        assert symfunc._operator_column(sigma, n) == _operator_column_by_scan(sigma, n), (sigma, n)


_JACK_CASES = [(lam, n) for n in range(1, 6) for w in range(11) for lam in partitions_of(w, n)]
_JACK_CASES += [(lam, 3) for w in range(11, 19) for lam in partitions_of(w, 3)]


@pytest.mark.parametrize("alpha", [0.25, 0.4, 1.0, 2.0 / 0.7, 2.0, 3.7])
def test_jack_coeffs_matches_gather_bit_for_bit(alpha):
    for lam, n in _JACK_CASES:
        got = jack_coeffs.__wrapped__(lam, alpha, n).coeffs
        want = _jack_coeffs_by_gather(lam, alpha, n).coeffs
        # same keys in the same order, same floats
        assert list(got.items()) == list(want.items()), (lam, n)


def test_jack_solve_reaches_every_dominated_partition(monkeypatch):
    # dominance is generated by one-box squeezes, so the scatter finalises,
    # and checks the eigenvalue gap of, every mu below lam
    seen = []
    column = symfunc._operator_column

    def recording(mu, n_vars):
        seen.append(mu)
        return column(mu, n_vars)

    monkeypatch.setattr(symfunc, "_operator_column", recording)
    for lam, n in [((4, 2), 4), ((5, 1, 1), 3), ((3, 3, 2), 5), ((6,), 6)]:
        seen.clear()
        jack_coeffs.__wrapped__(lam, 1.3, n)
        below = {mu for mu in partitions_of(sum(lam), n) if dominance_leq(mu, lam)}
        assert set(seen) == below, lam


def test_jack_solve_raises_on_eigenvalue_collision(monkeypatch):
    column = symfunc._operator_column

    def colliding(mu, n_vars):
        t1, diag_e, off = column(mu, n_vars)
        if mu == (1, 1, 1):
            t1, diag_e, _ = column((2, 1), n_vars)
        return t1, diag_e, off

    monkeypatch.setattr(symfunc, "_operator_column", colliding)
    with pytest.raises(ArithmeticError, match="eigenvalue collision"):
        jack_coeffs.__wrapped__((2, 1), 1.3, 3)


def test_hooks_single_box():
    # single box: arm 0, leg 0 -> c = 1, c' = alpha
    assert hook_c((1,), 2.5) == pytest.approx(1.0)
    assert hook_c_prime((1,), 2.5) == pytest.approx(2.5)


def _hooks_by_two_walks(tau, alpha):
    """The two separate cell walks that symfunc._hook_products replaced."""
    taup = conjugate(tau)
    c = c_prime = 1.0
    for i, row in enumerate(tau, start=1):
        for j in range(1, row + 1):
            c *= alpha * (row - j) + taup[j - 1] - i + 1
    for i, row in enumerate(tau, start=1):
        for j in range(1, row + 1):
            c_prime *= alpha * (row - j + 1) + taup[j - 1] - i
    return c, c_prime


@pytest.mark.parametrize("alpha", [2e-8, 0.3, 1.0, 2.0 / 3.0, 1.9, 1e4])
def test_one_hook_walk_matches_two_walks_bit_for_bit(alpha):
    for d in range(11):
        for tau in partitions_of(d, 6):
            ref = _hooks_by_two_walks(tau, alpha)
            assert (hook_c(tau, alpha), hook_c_prime(tau, alpha)) == ref
            assert hook_c(list(tau), alpha) == ref[0]
    with pytest.raises(ValueError):
        hook_c_prime((1, 2), alpha)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_series_coefficient_reduces_to_factorial_n1(k):
    # at N=1 the shell weight c/(c' (N/alpha)_tau) must be 1/k!
    alpha = 1.9
    tau = (k,)
    w = hook_c(tau, alpha) / (hook_c_prime(tau, alpha)
                              * gen_pochhammer(1.0 / alpha, tau, alpha))
    assert w == pytest.approx(1.0 / math.factorial(k), rel=1e-12)


def test_gen_pochhammer_values():
    # single row of length 2: b (b + 1)
    b, alpha = 1.7, 0.6
    assert gen_pochhammer(b, (2,), alpha) == pytest.approx(b * (b + 1.0))
    # second row shifts b by -1/alpha
    assert gen_pochhammer(b, (1, 1), alpha) == pytest.approx(b * (b - 1 / alpha))
    with pytest.raises(ZeroDivisionError):
        gen_pochhammer(0.0, (1,), alpha)


def test_sympoly_drops_zeros_and_eval():
    p = SymPoly("monomial", {(2,): 1.5, (1, 1): 0.0}, 3)
    assert (1, 1) not in p.coeffs
    x = np.array([1.0, 2.0, 3.0])
    assert sympoly_eval(p, x) == pytest.approx(1.5 * 14.0)


def test_jack_to_monomial_roundtrip():
    p = SymPoly("jack", {(2,): 2.0, (1, 1): -1.0}, 3, alpha=0.7)
    mono = jack_to_monomial(p)
    x = np.array([0.5, 1.5, -0.4])
    direct = 2.0 * jack_eval((2,), 0.7, x) - jack_eval((1, 1), 0.7, x)
    assert sympoly_eval(mono, x) == pytest.approx(direct, rel=1e-12)
