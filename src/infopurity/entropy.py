"""Classical and quantum entropy functionals.

All quantities are in nats.  The subentropy is evaluated through a
confluent Newton divided-difference table of f(x) = x^n ln(x), which
keeps degenerate and near-degenerate spectra exact instead of relying on
cancellation-prone limits of the rational eigenvalue formula.
"""

from __future__ import annotations

import functools
import math

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

# adjacent eigenvalues closer than this (relative) gap are merged into one
# confluent node and handled by derivatives
CLUSTER_RTOL = 1e-7

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


def _clusters(values: np.ndarray) -> list[tuple[float, int]]:
    """(value, multiplicity) nodes of an ascending vector: adjacent entries
    whose gap is below CLUSTER_RTOL * max(1, |value|) merge into one node
    at the cluster mean."""
    clusters: list[list[float]] = []
    for x in values.tolist():
        if clusters and x - clusters[-1][-1] < CLUSTER_RTOL * max(1.0, abs(x)):
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [(sum(c) / len(c), len(c)) for c in clusters]


@functools.lru_cache(maxsize=128)
def _harmonic(n: int) -> np.ndarray:
    """H_0 .. H_n as a read-only array (H_0 = 0), cached per n."""
    h = np.zeros(n + 1)
    h[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    h.setflags(write=False)
    return h


def _xnlnx_derivative(x: float, k: int, n: int, harm: np.ndarray) -> float:
    """k-th derivative of f(t) = t^n ln(t) at t = x >= 0, for 0 <= k <= n-1.

    Closed form: n!/(n-k)! * x^(n-k) * (ln x + H_n - H_{n-k}); extends
    continuously to 0 with value 0 because n - k >= 1.
    """
    if x <= 0.0:
        return 0.0
    coef = math.perm(n, k)
    return coef * x ** (n - k) * (math.log(x) + harm[n] - harm[n - k])


def _confluent_divided_difference(nodes: list[tuple[float, int]], n: int) -> float:
    """Order-(total-1) divided difference of f(x) = x^n ln(x) on the
    (value, multiplicity) nodes.

    Repeated nodes are resolved by f[x,...,x (m times)] = f^(m-1)(x)/(m-1)!.
    """
    harm = _harmonic(n)
    zs: list[float] = []
    cluster_id: list[int] = []
    for idx, (val, mult) in enumerate(nodes):
        zs.extend([val] * mult)
        cluster_id.extend([idx] * mult)
    m = len(zs)
    col = [_xnlnx_derivative(z, 0, n, harm) for z in zs]
    for j in range(1, m):
        nxt = []
        for i in range(m - j):
            if cluster_id[i + j] == cluster_id[i]:
                nxt.append(
                    _xnlnx_derivative(zs[i], j, n, harm) / math.factorial(j)
                )
            else:
                nxt.append((col[i + 1] - col[i]) / (zs[i + j] - zs[i]))
        col = nxt
    return col[0]


def subentropy(spectrum) -> float:
    """Subentropy Q of a normalized spectrum, in nats.

    Equals the negated order-(n-1) divided difference of x^n ln(x) at the
    eigenvalues; for non-degenerate spectra this coincides with the
    rational sum -sum_k l_k^n ln(l_k) / prod_{j!=k}(l_k - l_j).  Ranges
    over [0, ln n - harmonic_tail(n)], the maximum sitting at the
    maximally mixed spectrum.
    """
    v = _spectrum_values(spectrum)
    n = v.size
    if n == 1:
        return 0.0
    q = -_confluent_divided_difference(_clusters(np.sort(v)), n)
    if -1e-12 < q < 0.0:
        q = 0.0
    return float(q)


def _depolarized_series(n: int, epsilon: float, harm: list[float]) -> float:
    """Small-epsilon expansion of Q around the fully degenerate spectrum.

    Expands the divided difference f[a,...,a,b] of f(x) = x^n ln(x) as a
    power series in c = b - a = epsilon, using the exact derivative chain
    f^(n-1)(x) = n! x (ln x + H_n - 1), f^(n)(x) = n! (ln x + H_n) and
    f^(n+j)(x) = n! (-1)^(j-1) (j-1)! x^-j.  Converges geometrically with
    ratio ~ n * epsilon / (1 - epsilon).
    """
    a = (1.0 - epsilon) / n
    c = epsilon
    log_a = math.log(a)
    total = n * a * (log_a + harm[n] - 1.0)  # m = 0 term
    total += c * (log_a + harm[n])  # m = 1 term
    term_base = float(math.factorial(n))
    for m in range(2, 300):
        j = m - 1
        term = (
            term_base
            * (-1.0) ** (j - 1)
            * math.factorial(j - 1)
            * a ** (-j)
            * c**m
            / math.factorial(n + m - 1)
        )
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return -total


def subentropy_depolarized(n: int, epsilon: float) -> float:
    """Closed-form subentropy of a depolarized pure state, in nats.

    The spectrum is (b, a, ..., a) with a = (1 - eps)/n and b = eps + a.
    For eps away from zero this evaluates the binomial sum

        sum_{k=2}^n C(n,k) a^k (ln a - S_k)/(b-a)^(k-1)
          - b^n (ln b - S_n)/(b-a)^(n-1) - S_n,

    with S_k the harmonic tail; small eps switches to the confluent power
    series to avoid the (b-a)^(k-1) cancellation.  Continuous at eps -> 0
    with limit ln n - S_n, and zero at eps = 1.  Raises
    ``DimensionTooLargeError`` where float64 overflows or the result is
    not finite.
    """
    n = _checks.integer(n, "dimension n", 2)
    epsilon = _checks.real(epsilon, "epsilon", 0.0, 1.0, EpsilonOutOfRangeError)
    return _subentropy_depolarized(n, float(epsilon))


def _subentropy_depolarized(n: int, epsilon: float) -> float:
    # unchecked kernel of subentropy_depolarized: an int n >= 2 and a float
    # eps in [0, 1]; the table entries are Python floats, so a vanishing
    # (b-a)^(k-1) raises ZeroDivisionError instead of warning and giving nan
    harm = _harmonic(n).tolist()
    try:
        if epsilon < 1.0 and n * epsilon / (1.0 - epsilon) < 0.2:
            q = _depolarized_series(n, epsilon, harm)
        else:
            a = (1.0 - epsilon) / n
            b = epsilon + a
            c = epsilon  # b - a, exactly
            sig_n = harm[n] - 1.0  # S_n = H_n - 1
            total = -sig_n
            if a > 0.0:
                log_a = math.log(a)
                for k in range(2, n + 1):
                    total += (
                        math.comb(n, k)
                        * a**k
                        * (log_a - (harm[k] - 1.0))
                        / c ** (k - 1)
                    )
            total -= b**n * (math.log(b) - sig_n) / c ** (n - 1)
            q = total
    except (OverflowError, ZeroDivisionError) as exc:
        raise DimensionTooLargeError(
            f"n = {n} leaves the float64 range at eps = {epsilon!r}"
        ) from exc
    if not math.isfinite(q):
        raise DimensionTooLargeError(f"n = {n} gives subentropy {q!r} at eps = {epsilon!r}")
    if -1e-12 < q < 0.0:
        q = 0.0
    return q
