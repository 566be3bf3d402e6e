"""Closed-form information-purity tradeoff curves and extremal spectra.

Two exact curves over purity P in [1/n, 1]:

* ``min_informational_power`` -- the smallest informational power any
  measurement with element purity >= P can have; attained by the
  depolarized uniformly-distributed rank-one POVM.
* ``max_accessible_information`` -- the largest accessible information
  any ensemble with state purity <= P can carry; attained by commuting
  states with at most two distinct non-null eigenvalues.

The supporting extremizers (maximum subentropy at fixed purity, extremal
Renyi entropies at fixed purity) and the explicit optimal structures are
exposed alongside, plus an independent antiderivative-based evaluation of
the first curve used for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _checks
from .entropy import _in_range, _subentropy_depolarized, _table, xlnx
from .errors import (
    AlphaOutOfRangeError,
    CountTooSmallError,
    DimensionTooLargeError,
    EpsilonOutOfRangeError,
    InvalidKError,
    NoFeasibleCandidateError,
    PurityOutOfRangeError,
    ValidationError,
)
from .montecarlo import HaarSampler
from .operators import (
    DensityOperator,
    Ensemble,
    Povm,
    eig_hermitian,
)


def harmonic_tail(k: int) -> float:
    """Partial harmonic sum 1/2 + 1/3 + ... + 1/k (zero for k = 1), read
    from the cached per-k table as H_k - 1."""
    return _table(_checks.integer(k, "k", 1, error=InvalidKError)).tail


def _dim_and_purity(n: int, purity: float) -> tuple[int, float]:
    n = _checks.integer(n, "dimension n", 2)
    return n, _checks.real(purity, "purity", 1.0 / n, 1.0, PurityOutOfRangeError)


# Unchecked kernels: the public closed forms check their arguments once,
# through _dim_and_purity, and call these with an int n >= 2 and values
# already in range; curve_csv_text calls them per grid point after
# checking once for the whole grid.


def _epsilon(n: int, purity: float) -> float:
    return math.sqrt(max(n * purity - 1.0, 0.0) / (n - 1))


def _min_power(n: int, epsilon: float) -> float:
    # q_max = ln n - (H_n - 1), so this is (ln n - (H_n - 1)) - Q
    value = _table(n).q_max - _subentropy_depolarized(n, epsilon)
    if -1e-12 < value < 0.0:
        value = 0.0
    return value


def _max_access(n: int, m: int, a: float, b: float) -> float:
    # (m, a, b) from _two_level_params
    value = math.log(n) + m * xlnx(a) + xlnx(b)
    if -1e-12 < value < 0.0:
        value = 0.0
    return value


def epsilon_for_purity(n: int, purity: float) -> float:
    """Depolarization strength whose depolarized pure state has the given
    purity: eps = sqrt((n P - 1)/(n - 1))."""
    return _epsilon(*_dim_and_purity(n, purity))


def purity_for_epsilon(n: int, epsilon: float) -> float:
    """Purity ((n-1) eps^2 + 1)/n of a depolarized pure state, for an
    integer n >= 2 and -1/(n-1) <= eps <= 1."""
    n = _checks.integer(n, "dimension n", 2)
    epsilon = _checks.real(epsilon, "epsilon", -1.0 / (n - 1), 1.0, EpsilonOutOfRangeError)
    return ((n - 1) * epsilon**2 + 1.0) / n


@dataclass(frozen=True)
class TradeoffPoint:
    """One sample of a tradeoff curve: value in nats at purity P."""

    n: int
    purity: float
    value: float
    source: str  # "min_power" or "max_access"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubentropyMaxSolution:
    """Extremal state of the subentropy maximization at fixed purity."""

    n: int
    purity: float
    epsilon: float
    value: float


@dataclass(frozen=True)
class ExtremalSpectrumSolution:
    """Two-level spectrum extremizing a Renyi entropy at fixed purity."""

    n: int
    purity: float
    alpha: float
    kind: str  # "min" or "max"
    n_a: int
    n_b: int
    branch: str  # "+" or "-"
    a: float
    b: float
    value: float

    def spectrum(self) -> np.ndarray:
        """The padded eigenvalue vector (a * n_a, b * n_b, 0, ...)."""
        v = np.zeros(self.n)
        v[: self.n_a] = self.a
        v[self.n_a : self.n_a + self.n_b] = self.b
        return np.sort(v)[::-1]


def min_informational_power(n: int, purity: float) -> TradeoffPoint:
    """Minimum informational power over POVMs with element purity >= P.

    Equals ln n - harmonic_tail(n) - Q_dep(n, eps(P)) with Q_dep the
    closed-form depolarized subentropy; zero at P = 1/n and
    ln n - harmonic_tail(n) at P = 1.  Finite for n <= 1024, and within
    3e-10 relative of a 40-digit mpmath value for n = 9..64 at
    eps >= 0.2/(n + 0.2); the relative error grows as P nears 1/n and the
    value 0.  Raises ``DimensionTooLargeError`` where Q_dep does.
    """
    n, purity = _dim_and_purity(n, purity)
    eps = _epsilon(n, purity)
    a = (1.0 - eps) / n
    b = eps + a
    return TradeoffPoint(
        n=n,
        purity=purity,
        value=_min_power(n, eps),
        source="min_power",
        params={"epsilon": eps, "a": a, "b": b},
    )


def _two_level_params(n: int, purity: float) -> tuple[int, int, float, float]:
    # m = floor(1/P), nudged so exact grid points P = 1/k resolve to m = k
    m = int(math.floor(1.0 / purity + 1e-12))
    m = min(max(m, 1), n)
    alpha = m + 1
    r = max(purity * alpha - 1.0, 0.0)
    a = (1.0 + math.sqrt(r / m)) / alpha
    b = max((1.0 - math.sqrt(m * r)) / alpha, 0.0)
    return m, alpha, a, b


def max_accessible_information(n: int, purity: float) -> TradeoffPoint:
    """Maximum accessible information over ensembles with state purity <= P.

    Closed form ln n + m a ln a + b ln b with m = floor(1/P),
    a = (1 + sqrt((P(m+1) - 1)/m))/(m+1), b = (1 - sqrt(m(P(m+1) - 1)))/(m+1).
    Equals ln n at P = 1 and zero at P = 1/n; continuous in P with a
    derivative kink at every P = 1/k.
    """
    n, purity = _dim_and_purity(n, purity)
    m, alpha, a, b = _two_level_params(n, purity)
    return TradeoffPoint(
        n=n,
        purity=purity,
        value=_max_access(n, m, a, b),
        source="max_access",
        params={"m": m, "alpha": alpha, "a": a, "b": b},
    )


def curve_csv_text(n: int, points: int) -> str:
    """CSV body of both tradeoff curves on a uniform purity grid.

    Each row holds both curves at one of ``points`` purities spread evenly
    over [1/n, 1].  Raises ``ValidationError`` unless n and points are
    integers >= 2, and ``DimensionTooLargeError`` where the lower curve does.
    """
    n = _checks.integer(n, "dimension n", 2)
    points = _checks.integer(points, "points", 2)
    lines = ["n,P,impurity,q_w,s_a_max"]
    # the grid runs from 1/n to 1 exactly, so the kernels need no clamp
    for p in np.linspace(1.0 / n, 1.0, points).tolist():
        q = _min_power(n, _epsilon(n, p))
        m, _, a, b = _two_level_params(n, p)
        s = _max_access(n, m, a, b)
        lines.append(f"{n},{p:.6f},{1.0 - p:.6f},{q:.6f},{s:.6f}")
    return "\n".join(lines) + "\n"


def max_subentropy_at_purity(n: int, purity: float) -> SubentropyMaxSolution:
    """Maximum of the subentropy over states of fixed purity.

    Attained by a depolarized pure state with eps = sqrt((nP - 1)/(n - 1));
    the value dominates the subentropy of every spectrum at that purity.
    Raises ``DimensionTooLargeError`` where ``subentropy_depolarized`` does.
    """
    n, purity = _dim_and_purity(n, purity)
    eps = _epsilon(n, purity)
    return SubentropyMaxSolution(
        n=n, purity=purity, epsilon=eps, value=_subentropy_depolarized(n, eps)
    )


def extremal_renyi_at_purity(
    n: int, purity: float, alpha: float, kind: str
) -> ExtremalSpectrumSolution:
    """Extremal Renyi entropy H_alpha over the simplex slice of fixed purity.

    Enumerates every feasible two-level assignment: multiplicities
    n_a, n_b >= 1 with n_a + n_b <= n and both sign branches of

        a_pm = (1 pm sqrt(n_b/n_a (P s - 1)))/s,
        b_pm = (1 mp sqrt(n_a/n_b (P s - 1)))/s,   s = n_a + n_b,

    discarding candidates with P s < 1 or negative eigenvalues, and
    returns the arg-extremum.  Ties (e.g. alpha = 2, where every candidate
    evaluates to -ln P) resolve to the smallest s, then the "+" branch.
    """
    n, purity = _dim_and_purity(n, purity)
    alpha = _checks.real(
        alpha, "alpha", 0.0, _checks.FLOAT_MAX, AlphaOutOfRangeError, lo_open=True
    )
    if kind not in ("min", "max"):
        raise ValidationError(f"kind {kind!r} must be 'min' or 'max'")

    shannon_limit = abs(alpha - 1.0) < 1e-6
    candidates = []
    for n_a in range(1, n):
        for n_b in range(1, n - n_a + 1):
            s = n_a + n_b
            r = purity * s - 1.0
            if r < -1e-12:
                continue
            r = max(r, 0.0)
            for sign, branch in ((1.0, "+"), (-1.0, "-")):
                a = (1.0 + sign * math.sqrt(n_b / n_a * r)) / s
                b = (1.0 - sign * math.sqrt(n_a / n_b * r)) / s
                if a < -1e-12 or b < -1e-12:
                    continue
                a = max(a, 0.0)
                b = max(b, 0.0)
                if shannon_limit:
                    value = -(n_a * xlnx(a) + n_b * xlnx(b))
                else:
                    # scaled by the larger level, so a large order cannot underflow
                    top = max(a, b)
                    scaled = math.log(n_a * (a / top) ** alpha + n_b * (b / top) ** alpha)
                    value = scaled / (1.0 - alpha) + alpha / (1.0 - alpha) * math.log(top)
                candidates.append((value, s, 0 if branch == "+" else 1, n_a, n_b, branch, a, b))
    if not candidates:
        raise NoFeasibleCandidateError(
            f"no feasible two-level spectrum at n={n}, purity={purity}"
        )

    best = None
    for cand in candidates:
        if best is None:
            best = cand
            continue
        better = cand[0] < best[0] - 1e-12 if kind == "min" else cand[0] > best[0] + 1e-12
        tied = abs(cand[0] - best[0]) <= 1e-12
        if better or (tied and (cand[1], cand[2]) < (best[1], best[2])):
            best = cand
    value, _, _, n_a, n_b, branch, a, b = best
    return ExtremalSpectrumSolution(
        n=n,
        purity=purity,
        alpha=alpha,
        kind=kind,
        n_a=n_a,
        n_b=n_b,
        branch=branch,
        a=a,
        b=b,
        value=value,
    )


def optimal_commuting_ensemble(n: int, purity: float) -> Ensemble:
    """The commuting ensemble attaining ``max_accessible_information``.

    n equiprobable diagonal states, cyclic shifts of the eigenvalue vector
    (a repeated m = floor(1/P) times, b once, zeros filling up to n).  The
    ensemble averages to the maximally mixed state, every member has
    purity P, and its Holevo bound is attained (commuting states).
    """
    n, purity = _dim_and_purity(n, purity)
    m, _, a, b = _two_level_params(n, purity)
    vec = np.zeros(n)
    vec[: min(m, n)] = a
    if m < n:
        vec[m] = b
    vec /= vec.sum()
    states = [DensityOperator(np.diag(np.roll(vec, x)).astype(complex)) for x in range(n)]
    return Ensemble([(1.0 / n, s) for s in states])


def depolarized_scrooge_povm(
    n: int, epsilon: float, count: int, seed: int
) -> Povm:
    """Discrete surrogate of the depolarized uniformly-distributed POVM.

    Samples ``count`` Haar pure states, forms elements
    (n/count) * D_eps(|phi><phi|), then symmetrizes by S^(-1/2) . S^(-1/2)
    with S the element sum, so completeness holds exactly.  As count grows
    the informational power approaches ``min_informational_power`` at the
    matching purity.
    """
    n = _checks.integer(n, "dimension n", 2)
    count = _checks.integer(count, "count", n * n, error=CountTooSmallError)
    epsilon = _checks.real(epsilon, "epsilon", -1.0 / (n - 1), 1.0, EpsilonOutOfRangeError)

    phis = HaarSampler(n, seed).states(count)
    projectors = np.einsum("yi,yj->yij", phis, phis.conj())
    elements = (n / count) * (
        epsilon * projectors
        + (1.0 - epsilon) / n * np.eye(n)[None, :, :]
    )
    s = elements.sum(axis=0)
    spec, basis = eig_hermitian(s)
    inv_sqrt = (basis * (1.0 / np.sqrt(spec.values))) @ basis.conj().T
    symmetrized = np.einsum("ab,ybc,cd->yad", inv_sqrt, elements, inv_sqrt)
    return Povm(symmetrized)


def depolarized_haar_ensemble(n: int, epsilon: float, size: int, seed: int = 0) -> Ensemble:
    """Uniform-weight ensemble of ``size`` depolarized Haar pure states."""
    n = _checks.integer(n, "dimension n", 2)
    epsilon = _checks.real(epsilon, "epsilon", -1.0 / (n - 1), 1.0, EpsilonOutOfRangeError)
    phis = HaarSampler(n, seed).states(size)
    eye = np.eye(n)
    states = []
    for phi in phis:
        proj = np.outer(phi, phi.conj())
        states.append(DensityOperator(epsilon * proj + (1.0 - epsilon) / n * eye))
    return Ensemble([(1.0 / size, s) for s in states])


def _eta_antiderivative(m: int, x: float) -> float:
    # m-fold antiderivative of eta(x) = -x ln x: -x^(m+1)/(m+1)! (ln x - S_{m+1})
    if x <= 0.0:
        return 0.0
    return -(x ** (m + 1)) / math.factorial(m + 1) * (math.log(x) - _table(m + 1).tail)


# the largest n of the antiderivative chain's measured domain
_HAAR_INTEGRAL_MAX_N = 64


def min_power_haar_integral(n: int, epsilon: float) -> float:
    """Independent antiderivative-chain evaluation of the first curve.

    Computes the Haar average of eta((b-a) t + a) over the squared overlap
    t of a fixed pure state with a Haar state, using the exact iterated
    antiderivatives of eta composed with the affine map, and returns
    ln n - n * (that average).  Must coincide with
    ``min_informational_power(n, purity_for_epsilon(n, eps))``.  Its
    measured domain: within 2.1e-9 relative of a 40-digit mpmath value
    for n <= 8 at eps >= 0.05 and n <= 64 at eps >= 0.1.  Below it the
    sum cancels (relative error 0.78 at n = 5, eps = 1e-3), and above
    n = 64 no domain was measured.  Raises ``DimensionTooLargeError``
    outside that domain and where the value leaves
    [0, ln n - harmonic_tail(n)] by more than 1e-12.
    """
    n = _checks.integer(n, "dimension n", 2)
    # the affine map must be non-constant
    epsilon = _checks.real(
        epsilon, "epsilon", 1e-6, 1.0, EpsilonOutOfRangeError, lo_open=True
    )
    if n > _HAAR_INTEGRAL_MAX_N or epsilon < (0.05 if n <= 8 else 0.1):
        raise DimensionTooLargeError(
            f"n = {n}, eps = {epsilon!r} is outside the antiderivative chain's "
            "domain: eps >= 0.05 for n <= 8, eps >= 0.1 for n <= 64"
        )
    a = (1.0 - epsilon) / n
    b = epsilon + a
    c = epsilon  # b - a, exactly

    def f_anti(m: int, x: float) -> float:
        # antiderivatives compose through the affine map g(x) = c x + a
        return _eta_antiderivative(m, c * x + a) / c**m

    integral = f_anti(n - 1, 1.0)
    for k in range(2, n + 1):
        integral -= f_anti(k - 1, 0.0) / math.factorial(n - k)
    integral *= math.factorial(n - 1)
    return _in_range(math.log(n) - n * integral, n, "informational power", epsilon)
