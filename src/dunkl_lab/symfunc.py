"""Partitions and symmetric-function bases: monomial, elementary, Schur, Jack.

Partitions are plain tuples of weakly decreasing positive ints (the empty
tuple is the zero partition).  Jack polynomials P_lambda^(alpha) are
computed as eigenfunctions of the Calogero–Sutherland-type operator

    D = sum_i x_i^2 d_i^2 + (2/alpha) sum_{i != j} x_i^2/(x_i - x_j) d_i,

which acts triangularly on the monomial basis with respect to dominance
order, so the expansion coefficients follow from a triangular eigen-system.
D keeps m_sigma with the closed-form diagonal
sum sigma_i (sigma_i - 1) + (2/alpha) sum sigma_i (N - 1 - i) (sigma
zero-padded to N parts), and otherwise only squeezes two parts p > q of
sigma to (p - k, q + k), k = 1..(p - q)//2, with weight (p - q) times the
number of position pairs carrying the new parts (Stanley, Adv. Math. 77
(1989) 76).  So each column is listed from sigma's own part pairs, and the
triangle is solved by scattering each finished coefficient into the
partitions below it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

Partition = tuple  # weakly decreasing positive ints


def _check_partition(lam):
    try:
        lam = tuple(map(operator.index, lam))
    except TypeError:
        raise ValueError(f"parts must be integers, got {lam!r}") from None
    if lam and min(lam) <= 0:
        raise ValueError("parts must be positive")
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError("parts must be weakly decreasing")
    return lam


@dataclass(frozen=True)
class SymPoly:
    """Symmetric polynomial as a map partition -> coefficient in a basis.

    basis is "monomial" or "jack"; alpha carries the Jack parameter.
    Zero coefficients are never stored.
    """

    basis: str
    coeffs: dict
    n_vars: int
    alpha: float | None = None

    def __post_init__(self):
        if self.basis not in ("monomial", "jack"):
            raise ValueError("basis must be 'monomial' or 'jack'")
        if self.basis == "jack" and self.alpha is None:
            raise ValueError("jack basis needs alpha")
        clean = {k: v for k, v in self.coeffs.items() if v != 0.0}
        object.__setattr__(self, "coeffs", clean)
        if any(len(k) > self.n_vars for k in clean):
            raise ValueError("partition longer than variable count")


def conjugate(lam: Partition) -> Partition:
    """Young-diagram transpose."""
    lam = _check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True iff |mu| = |lam| and prefix sums of mu never exceed those of lam."""
    mu, lam = _check_partition(mu), _check_partition(lam)
    if sum(mu) != sum(lam):
        return False
    acc_m = acc_l = 0
    for k in range(max(len(mu), len(lam))):
        acc_m += mu[k] if k < len(mu) else 0
        acc_l += lam[k] if k < len(lam) else 0
        if acc_m > acc_l:
            return False
    return True


def partitions_of(weight: int, max_len: int) -> list:
    """All partitions of the weight with at most max_len parts, reverse-lex;
    each count must be an integer >= 0, else ValueError."""
    for name, count in (("weight", weight), ("max_len", max_len)):
        if not isinstance(count, Integral) or count < 0:
            raise ValueError(f"{name} = {count!r}: an integer >= 0 required")
    return list(_partitions(weight, max_len))


@lru_cache(maxsize=None)
def _partitions(weight, max_len) -> tuple:
    """Cached tuple behind partitions_of; weight >= 0."""
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for p in range(min(max_part, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(weight, weight, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _partition_keys(weight, max_len) -> dict:
    """The cached partitions of _partitions, each mapped to itself: a key
    built elsewhere looks up the one stored tuple that equals it."""
    return {p: p for p in _partitions(weight, max_len)}


def multinomial_m(lam: Partition, n_vars: int) -> int:
    """Number of distinct permutations of lam padded with zeros to n_vars."""
    lam = _check_partition(lam)
    if len(lam) > n_vars:
        raise ValueError("partition longer than variable count")
    counts = {0: n_vars - len(lam)}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    out = math.factorial(n_vars)
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _distinct_perms(lam, n_vars):
    """All distinct exponent vectors obtained by permuting lam (zero-padded)."""
    padded = sorted(lam) + [0] * (n_vars - len(lam))

    def rec(pool):
        if not pool:
            yield ()
            return
        seen = set()
        for i, p in enumerate(pool):
            if p in seen:
                continue
            seen.add(p)
            for rest in rec(pool[:i] + pool[i + 1:]):
                yield (p,) + rest

    yield from rec(padded)


@lru_cache(maxsize=None)
def _exponents(lam, n_vars):
    """Distinct exponent vectors of m_lam in n_vars variables, as tuples."""
    return tuple(_distinct_perms(lam, n_vars))


def _monomial(lam, cols):
    """m_lambda from the columns of x: a point's Python floats or a batch's
    column views.  Each column's powers come from one chain of products
    p_e = p_{e-1} x_k, and each term's product is added in order to 0.0, so
    a point has the bits of its row in a batch.  lam = () gives 1.0."""
    top = lam[0] if lam else 0
    powers = []
    for v in cols:
        row = [1.0, v]
        for _ in range(2, top + 1):
            row.append(row[-1] * v)
        powers.append(row)
    total = 0.0
    for a in _exponents(lam, len(cols)):
        term = None
        for k, e in enumerate(a):
            if e:
                term = powers[k][e] if term is None else term * powers[k][e]
        total += 1.0 if term is None else term  # None: the empty partition
    return total


def _points(x, caller, batched=True):
    """x as a float array of one point (n_vars,), or, when batched, of points
    (..., n_vars); any other shape raises ValueError naming it."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or (x.ndim > 1 and not batched):
        takes = "a point (n_vars,) or a batch (..., n_vars)" if batched else "one point (n_vars,)"
        raise ValueError(f"x has shape {x.shape}, but {caller} takes {takes}")
    return x


def monomial_eval(lam: Partition, x):
    """m_lambda(x): sum of x^a over distinct permutations a of lambda.

    x may be a vector or an array (..., n_vars); vectorized over leading axes.
    One evaluator (`_monomial`) runs on the Python floats of one point, which
    gives a float, and on the column views of a batch, so a point has the
    same bits alone and as a row of a batch.
    """
    lam = _check_partition(lam)
    x = _points(x, "monomial_eval")
    if len(lam) > x.shape[-1]:
        raise ValueError("partition longer than variable count")
    if x.ndim == 1:
        return _monomial(lam, x.tolist())
    if not lam:
        return np.ones(x.shape[:-1])
    return _monomial(lam, [x[..., k] for k in range(x.shape[-1])])


def elementary_eval(k: int, x):
    """Elementary symmetric polynomial e_k(x) at one point x."""
    x = _points(x, "elementary_eval", batched=False)
    n = len(x)
    if k < 0 or k > n:
        return 0.0
    # coefficients of prod (1 + x_i t) by iterated convolution
    e = np.zeros(n + 1)
    e[0] = 1.0
    for xi in x:
        e[1:] = e[1:] + xi * e[:-1]
    return float(e[k])


def schur_eval(lam: Partition, x):
    """Schur polynomial at one point x via the bialternant ratio of alternants.

    Near-coincident coordinates are nudged apart deterministically before
    the determinant ratio (the ratio is continuous; the nudge keeps the two
    determinants individually well-conditioned).
    """
    lam = _check_partition(lam)
    x = _points(x, "schur_eval", batched=False)
    n = len(x)
    if len(lam) > n:
        raise ValueError("partition longer than variable count")
    scale = max(1.0, float(np.max(np.abs(x))))
    xs = np.sort(x)
    if n > 1 and np.min(np.diff(xs)) < 1e-7 * scale:
        x = x + scale * 1e-6 * np.arange(1, n + 1)
    lam_p = list(lam) + [0] * (n - len(lam))
    powers = [lam_p[j] + n - 1 - j for j in range(n)]
    num = np.column_stack([x ** p for p in powers])
    den = np.column_stack([x ** (n - 1 - j) for j in range(n)])
    return float(np.linalg.det(num) / np.linalg.det(den))


def _hook_products(tau, alpha):
    """(c_tau, c'_tau) from one walk over the cells (i,j) of tau: the
    products of alpha*(tau_i - j) + tau'_j - i + 1 and of
    alpha*(tau_i - j + 1) + tau'_j - i."""
    tau = _check_partition(tau)
    taup = [sum(1 for p in tau if p > j) for j in range(tau[0] if tau else 0)]
    c = c_prime = 1.0
    for i, row in enumerate(tau, start=1):
        for j in range(1, row + 1):
            c *= alpha * (row - j) + taup[j - 1] - i + 1
            c_prime *= alpha * (row - j + 1) + taup[j - 1] - i
    return c, c_prime


def hook_c(tau: Partition, alpha: float) -> float:
    """Product over cells (i,j): alpha*(tau_i - j) + tau'_j - i + 1."""
    return _hook_products(tau, alpha)[0]


def hook_c_prime(tau: Partition, alpha: float) -> float:
    """Product over cells (i,j): alpha*(tau_i - j + 1) + tau'_j - i."""
    return _hook_products(tau, alpha)[1]


def gen_pochhammer(b: float, tau: Partition, alpha: float) -> float:
    """Generalized Pochhammer symbol: product over rows of rising factorials.

    (b)_tau = prod_i prod_{k=0}^{tau_i - 1} (b - (i-1)/alpha + k).
    Raises on an exact pole (a zero factor with boxes still to multiply).
    """
    tau = _check_partition(tau)
    out = 1.0
    for i, row in enumerate(tau, start=1):
        base = b - (i - 1) / alpha
        for k in range(row):
            f = base + k
            if f == 0.0:
                raise ZeroDivisionError("generalized Pochhammer pole")
            out *= f
    return out


# ---------------------------------------------------------------------------
# Jack polynomials via the triangular eigen-system
# ---------------------------------------------------------------------------

def _pad(lam, n):
    return tuple(lam) + (0,) * (n - len(lam))


@lru_cache(maxsize=None)
def _operator_column(sigma: Partition, n_vars: int):
    """Action of D (without the 2/alpha factor split) on m_sigma.

    Returns (t1, diag_e, off), where
      D m_sigma = [t1 + (2/alpha) diag_e] m_sigma
                  + (2/alpha) sum_{nu < sigma} off[nu] m_nu,
    t1 = sum sigma_i (sigma_i - 1) from the second-derivative term and
    diag_e = sum_i sigma_i (N - 1 - i) over the zero-padded sigma.  The
    interaction term only squeezes two parts p > q of sigma toward each
    other: for k = 1..(p - q)//2 the target nu is sigma with {p, q} replaced
    by {p - k, q + k}, and off[nu] is (p - q) times the number of position
    pairs of nu that carry {p - k, q + k}.
    """
    padded = _pad(sigma, n_vars)
    keys = _partition_keys(sum(sigma), n_vars)  # off shares the cached tuples
    t1 = float(sum(p * (p - 1) for p in sigma))
    diag_e = float(sum(p * (n_vars - 1 - i) for i, p in enumerate(padded)))
    off = {}
    values = sorted(set(padded), reverse=True)
    for a, p in enumerate(values):
        for q in values[a + 1:]:
            rest = list(padded)
            rest.remove(p)
            rest.remove(q)
            for k in range(1, (p - q) // 2 + 1):
                nu = sorted(rest + [p - k, q + k], reverse=True)
                c, d = nu.count(p - k), nu.count(q + k)
                pairs = c * (c - 1) // 2 if p - k == q + k else c * d
                off[keys[tuple(v for v in nu if v)]] = float((p - q) * pairs)
    return t1, diag_e, off


@lru_cache(maxsize=None)
def jack_coeffs(lam: Partition, alpha: float, n_vars: int) -> SymPoly:
    """Monomial expansion of the Jack polynomial P_lambda^(alpha).

    Normalized so the coefficient of m_lambda is 1; coefficients vanish
    off the dominance-lower set.  0 < alpha < inf guarantees the eigenvalue gap
    (guarded anyway).  The triangle is solved by scatter: walking the
    partitions in reverse-lex order (a linear extension of dominance), each
    u[mu] is final once reached, and its column is added into the partial
    sums of the partitions it feeds.
    """
    lam = _check_partition(lam)
    if not 0 < alpha < math.inf:  # a NaN alpha fails this test, not alpha <= 0
        raise ValueError(f"alpha = {alpha!r}: 0 < alpha < inf required")
    if len(lam) > n_vars:
        raise ValueError("partition longer than variable count")
    scale = 2.0 / alpha
    t1, diag_e, _ = _operator_column(lam, n_vars)
    e_lam = t1 + scale * diag_e
    u = {}
    acc = {lam: 1.0}
    for mu in _partitions(sum(lam), n_vars):
        if mu not in acc:
            continue
        t1, diag_e, off = _operator_column(mu, n_vars)
        u_mu = 1.0
        if mu != lam:
            gap = e_lam - (t1 + scale * diag_e)
            if abs(gap) < 1e-9 * max(1.0, abs(e_lam)):
                raise ArithmeticError("eigenvalue collision in Jack triangular solve")
            u_mu = acc[mu] / gap
        u[mu] = u_mu
        for nu, c in off.items():
            acc[nu] = acc.get(nu, 0.0) + scale * c * u_mu
    return SymPoly("monomial", u, n_vars)


def jack_eval(lam: Partition, alpha: float, x):
    """Evaluate P_lambda^(alpha) at x (vectorized like monomial_eval)."""
    x = _points(x, "jack_eval")
    poly = jack_coeffs(tuple(lam), float(alpha), x.shape[-1])
    return sympoly_eval(poly, x)


def jack_to_monomial(p: SymPoly) -> SymPoly:
    """Expand a Jack-basis SymPoly into the monomial basis."""
    if p.basis == "monomial":
        return p
    out = {}
    for tau, c in p.coeffs.items():
        for mu, u in jack_coeffs(tau, p.alpha, p.n_vars).coeffs.items():
            out[mu] = out.get(mu, 0.0) + c * u
    return SymPoly("monomial", out, p.n_vars)


def sympoly_eval(p: SymPoly, x):
    """Evaluate a SymPoly at x (any basis); x's last axis must have length
    p.n_vars, else ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (p.n_vars,):
        raise ValueError(f"x has shape {x.shape}, but the polynomial is in "
                         f"n_vars = {p.n_vars} variables: its last axis must have length "
                         f"{p.n_vars}")
    mono = jack_to_monomial(p)
    total = np.zeros(x.shape[:-1])
    for mu, c in mono.coeffs.items():
        total = total + c * monomial_eval(mu, x)
    return float(total) if total.ndim == 0 else total
