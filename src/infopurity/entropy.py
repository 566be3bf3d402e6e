"""Classical and quantum entropy functionals.

All quantities are in nats.  The subentropy of a spectrum l with unit sum
is one integral whose integrand is never negative:

    Q(l) = int_0^inf [t/(1+t) - prod_k t/(t+l_k)] dt,

from ln x = int_0^inf [1/(1+t) - 1/(x+t)] dt and the divided difference
of x^n/(x+t), which is 1 - t^n/prod_k(l_k+t).  With x = 1/t and
prod_k(1 + l_k x) = 1 + x + N(x), where N(x) = sum_{j>=2} e_j x^j >= 0
holds the elementary symmetric polynomials e_j of l, the integrand is
N/((1+x)(1+x+N)): no term cancels, at any gap between eigenvalues and
at any n.  A trapezoid rule in u = ln t evaluates it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _checks
from .errors import (
    AlphaOutOfRangeError,
    DimensionTooLargeError,
    EpsilonOutOfRangeError,
    NotNormalizedError,
    ValidationError,
)
from .operators import DensityOperator, JointDistribution, Spectrum

# floor under every clamped log argument: log(0) reads as about -690.8
_LOG_FLOOR = 1e-300


def _eta(x: np.ndarray) -> np.ndarray:
    """-x ln(x) elementwise, 0 where x <= 0."""
    return np.where(x > 0.0, -x * np.log(np.maximum(x, _LOG_FLOOR)), 0.0)


def xlnx(x: float) -> float:
    """x * ln(x) with the 0 * ln(0) := 0 convention."""
    if x <= 0.0:
        return 0.0
    return x * math.log(x)


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p_k ln(p_k) of a probability vector, in nats."""
    v = _checks.probabilities(p, "p", NotNormalizedError, ndim=None)
    nz = v[v > 0.0]
    return float(-(nz * np.log(nz)).sum())


def relative_entropy(p, q) -> float:
    """Kullback-Leibler divergence sum p ln(p/q), in nats.

    Returns ``math.inf`` when the support condition fails, i.e. some
    q_k = 0 carries p_k > 1e-12.
    """
    vp = _checks.probabilities(p, "p", NotNormalizedError, ndim=None)
    vq = _checks.probabilities(q, "q", NotNormalizedError, ndim=None)
    if vp.size != vq.size:
        raise ValidationError(f"length mismatch: {vp.size} vs {vq.size}")
    dead = vq <= 0.0
    if np.any(vp[dead] > 1e-12):
        return math.inf
    live = (vp > 0.0) & ~dead
    return float((vp[live] * (np.log(vp[live]) - np.log(vq[live]))).sum())


def mutual_information(joint) -> float:
    """Mutual information of a joint distribution, in nats.

    Zero-probability cells contribute nothing; the result is non-negative
    up to roundoff.
    """
    if isinstance(joint, JointDistribution):
        p = joint.probs
    else:
        p = JointDistribution(joint).probs
    return float(_mutual_info(p))


def _mutual_info(p: np.ndarray) -> np.ndarray:
    # unvalidated kernel over the last two axes, shared with the see-saw's
    # stacked inner loop; zero cells are masked before the log
    px = p.sum(axis=-1, keepdims=True)
    py = p.sum(axis=-2, keepdims=True)
    live = p > 0.0
    logs = np.log(np.where(live, p, 1.0)) - np.log(np.maximum(px * py, _LOG_FLOOR))
    return np.where(live, p * logs, 0.0).sum(axis=(-2, -1))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy -Tr[rho ln rho] = Shannon entropy of the spectrum."""
    return shannon_entropy(rho.spectrum.clipped())


def renyi_entropy(spectrum, alpha: float) -> float:
    """Renyi entropy (1 - alpha)^-1 ln sum_k l_k^alpha of a normalized spectrum.

    The order must be positive; values of alpha within 1e-6 of 1 take the
    Shannon limit explicitly.  H_2 equals -ln(purity) identically.
    """
    alpha = _checks.real(
        alpha, "alpha", 0.0, _checks.FLOAT_MAX, AlphaOutOfRangeError, lo_open=True
    )
    v = _spectrum_values(spectrum)
    if abs(alpha - 1.0) < 1e-6:
        return shannon_entropy(v)
    # scaled by the largest entry, so a large order cannot underflow the sum
    top = v.max()
    scaled = np.log(((v[v > 0.0] / top) ** alpha).sum())
    return float(scaled / (1.0 - alpha) + alpha / (1.0 - alpha) * np.log(top))


def _spectrum_values(spectrum) -> np.ndarray:
    if isinstance(spectrum, Spectrum):
        if not spectrum.normalized:
            raise NotNormalizedError("spectrum is not flagged normalized")
        return spectrum.clipped()
    return _checks.probabilities(spectrum, "spectrum", NotNormalizedError, ndim=None)


class _Table(NamedTuple):
    """Per-n constants of the subentropy kernels, as Python floats."""

    tail: float  # H_n - 1
    q_max: float  # ln n - (H_n - 1), the largest subentropy in dimension n


@functools.lru_cache(maxsize=128)
def _table(n: int) -> _Table:
    """The cached ``_Table`` of dimension n >= 1."""
    h = np.arange(1.0, n + 1.0)
    np.divide(1.0, h, out=h)
    # np.cumsum adds in sequence: H_n = ((1 + 1/2) + 1/3) + ... + 1/n
    tail = float(np.cumsum(h, out=h)[-1]) - 1.0
    return _Table(tail, math.log(n) - tail)


@functools.lru_cache(maxsize=128)
def _binomial_terms(n: int) -> tuple[tuple[int, float, float], ...]:
    """(k, C(n, k), H_k - 1) for k = 2 .. n; H_k is summed in the same
    sequence as in ``_table``, so H_n - 1 equals its tail."""
    terms = []
    harm = 1.0
    for k in range(2, n + 1):
        harm += 1.0 / k
        terms.append((k, float(math.comb(n, k)), harm - 1.0))
    return tuple(terms)


# trapezoid nodes u = 0.3 k, |u| <= 40, of the integral in u = ln t: the
# integrand is analytic for |Im u| < pi, and the tails beyond |u| = 40 add
# less than e^-40
_STEP = 0.3
_X = np.exp(-_STEP * np.arange(-133, 134))  # x = 1/t at each node
_ONE_PLUS_X = 1.0 + _X
_WEIGHT = _STEP / (_X * _ONE_PLUS_X)  # step * dt/du / (1 + x)


@functools.lru_cache(maxsize=8)
def _power_table(rows: int) -> np.ndarray:
    """x^j at every node, one row per j = 2 .. rows + 1, read-only.  Powers
    past the float maximum are clipped to it: e_2 + ... + e_m < 1, so no
    row sum overflows, and a huge N reads as N/(1+x+N) = 1."""
    with np.errstate(over="ignore"):
        table = _X ** np.arange(2.0, rows + 2.0)[:, None]
    np.minimum(table, _checks.FLOAT_MAX, out=table)
    table.setflags(write=False)
    return table


def _powers(m: int) -> np.ndarray:
    # rows x^2 .. x^m, sliced from the table of the next power of two, so
    # a sweep over m holds at most twice the largest table
    return _power_table(1 << (m - 1).bit_length())[: m - 1]


def _subentropy(values: list[float]) -> float:
    # unchecked kernel of subentropy: non-negative floats with a positive
    # sum.  Zeros do not change Q and are dropped; the rest are sorted, so
    # the bits do not depend on the input order, and divided by their
    # math.fsum.  Every term of the e_j recurrence and of the sum is >= 0.
    nodes = sorted(v for v in values if v > 0.0)
    total = math.fsum(nodes)
    m = len(nodes)
    e = [1.0] + [0.0] * m
    for k, v in enumerate(nodes, 1):
        v /= total
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    n_x = np.array(e[2:]) @ _powers(m)
    return float(_WEIGHT @ (n_x / (_ONE_PLUS_X + n_x)))


def subentropy(spectrum) -> float:
    """Subentropy Q of a normalized spectrum, in nats.

    Q = -sum_k l_k^n ln(l_k) / prod_{j!=k}(l_k - l_j) for distinct
    eigenvalues and its limit for repeated ones, evaluated as the
    integral in the module docstring.  The input must sum to 1 within
    1e-10 and is divided by its ``math.fsum``: the value is Q of that
    normalized spectrum, in [0, ln n - harmonic_tail(n)].  Against an
    exact divided difference it is within 5e-16 on equispaced, clustered,
    Dirichlet, zero-containing and near-pure spectra up to n = 64, and
    within 5e-15 on the mixed spectrum up to n = 1024.  Neither input
    order nor form (list, ndarray, ``Spectrum``) changes a bit.  Raises
    ``NotNormalizedError`` for an input that is not a probability vector
    and ``DimensionTooLargeError`` if the value leaves
    [0, ln n - harmonic_tail(n)] by more than 1e-12.
    """
    if isinstance(spectrum, Spectrum):
        values = _spectrum_values(spectrum).tolist()
    else:
        values = _checks.probability_list(spectrum, "spectrum", NotNormalizedError)
    return _in_range(_subentropy(values), len(values), "subentropy")


# the binomial sum runs up to the largest n of the CLI and of every workload;
# at n = 12 its cancellation already costs 1.3e-3 in the lower curve
_BINOMIAL_MAX_N = 8
# the integral costs O(n^2) Python steps, 32 ms per call at n = 1024
_LOWER_CURVE_MAX_N = 1024


def subentropy_depolarized(n: int, epsilon: float) -> float:
    """Closed-form subentropy of a depolarized pure state, in nats.

    The spectrum is (b, a, ..., a) with a = (1 - eps)/n and b = eps + a.
    For n <= 8 and n eps/(1 - eps) >= 0.2 this evaluates the binomial sum

        sum_{k=2}^n C(n,k) a^k (ln a - S_k)/(b-a)^(k-1)
          - b^n (ln b - S_n)/(b-a)^(n-1) - S_n,

    with S_k the harmonic tail; every other (n, eps) runs the integral of
    ``subentropy``, within 3e-16 of an exact divided difference at
    n = 9..64 and 5e-15 up to n = 1024.  Equal to ln n - S_n at eps = 0
    and 0 at eps = 1.  Raises ``DimensionTooLargeError`` for n > 1024 and
    where the result is not finite or leaves [0, ln n - S_n] by > 1e-12.
    """
    n = _checks.integer(n, "dimension n", 2)
    epsilon = _checks.real(epsilon, "epsilon", 0.0, 1.0, EpsilonOutOfRangeError)
    return _subentropy_depolarized(n, float(epsilon))


def _subentropy_depolarized(n: int, epsilon: float) -> float:
    # unchecked kernel of subentropy_depolarized: an int n >= 2 and a float eps
    # in [0, 1]; at n <= 8 and eps >= 0.2/8.2 no binomial term leaves the floats
    if n > _LOWER_CURVE_MAX_N:
        raise DimensionTooLargeError(f"n = {n} is above the lower curve's {_LOWER_CURVE_MAX_N}")
    a = (1.0 - epsilon) / n
    b = epsilon + a
    if n > _BINOMIAL_MAX_N or (epsilon < 1.0 and n * epsilon / (1.0 - epsilon) < 0.2):
        q = _subentropy([b] + [a] * (n - 1))
    else:
        c = epsilon  # b - a, exactly
        sig_n = _table(n).tail  # S_n = H_n - 1
        q = -sig_n
        if a > 0.0:
            log_a = math.log(a)
            for k, comb, sig_k in _binomial_terms(n):
                q += comb * a**k * (log_a - sig_k) / c ** (k - 1)
        q -= b**n * (math.log(b) - sig_n) / c ** (n - 1)
    return _in_range(q, n, "subentropy", epsilon)


def _in_range(value: float, n: int, what: str, epsilon: float | None = None) -> float:
    # the range guard of subentropy and the lower curve: Q and ln n - S_n - Q
    # both lie in [0, ln n - S_n]; nan or a miss above 1e-12 raises, roundoff
    # below 0 is 0
    q_max = _table(n).q_max
    if not -1e-12 <= value <= q_max + 1e-12:
        at = "" if epsilon is None else f" at eps = {epsilon!r}"
        raise DimensionTooLargeError(
            f"n = {n} gives {what} {value!r} outside [0, {q_max!r}]{at}"
        )
    return value if value >= 0.0 else 0.0
