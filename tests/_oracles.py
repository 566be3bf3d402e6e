"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths under test: the
subentropy oracle integrates over the probability simplex with scipy
quadrature, the rational-sum oracle evaluates the eigenvalue formula
directly, the divided-difference oracle runs the confluent Newton table
of x^n ln x in mpmath with exact derivatives at repeated nodes and enough
digits to absorb the smallest gap (the depolarized subentropy and the
lower curve ln n - (H_n - 1) - Q at 40 digits are read from it), the
derivative-form subentropy of a depolarized pure state
differentiates the divided-difference identity term by term,
accessible information for qubits is maximized on a dense
great-circle grid of projective measurements, and the constrained-entropy
oracle walks the purity circle inside the 3-simplex.  The capacity
reference is the iterative-scaling (Blahut-Arimoto) fixed point the
library's capacity prior once used, kept with its stall rule so the
Newton solver can be shown never to fall below it.  The scalar ascent and
restart picker are the one-restart-at-a-time loop the optimizers ran
before their restarts went into lock-step; the lock-step loop must take
the same trials row by row.  The einsum kernels and the Newton step are
the power optimizer's earlier channel, gradient and KKT solve: the matmul
kernels must agree with them to roundoff, the Newton step bit for bit.
The Monte Carlo has two references.  The uniform oracle redraws each
shard's uniforms from a fresh Philox stream and maps them by the Beta(1,
n - 1) inverse CDF written as a power, 1 - (1 - u)^(1/(n-1)); the
estimator must agree with it to roundoff.  The state oracle is the
Monte Carlo's earliest kernel, which built every state vector and read
the squared modulus of its first entry; the estimator draws other
uniforms, so it must agree with it statistically.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy import integrate

from infopurity import EpsilonOutOfRangeError, HaarSampler, _checks
from infopurity.montecarlo import SHARD_SIZE


def subentropy_quadrature(values) -> float:
    """Simplex-integral subentropy for n = 2 or 3 eigenvalues."""
    lam = np.asarray(values, dtype=float)
    n = lam.size
    sigma_n = sum(1.0 / j for j in range(2, n + 1))

    def h(*xs):
        weight = 1.0 - sum(xs)
        mix = float(np.dot(lam[: n - 1], xs)) + lam[n - 1] * weight
        return mix * math.log(mix) if mix > 0 else 0.0

    if n == 2:
        val = integrate.quad(h, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
        norm = 1.0  # (n-1)! = 1
    elif n == 3:
        val = integrate.dblquad(
            lambda x2, x1: h(x1, x2),
            0.0,
            1.0,
            0.0,
            lambda x1: 1.0 - x1,
            epsabs=1e-12,
            epsrel=1e-12,
        )[0]
        norm = 2.0  # (n-1)! = 2
    else:
        raise ValueError("quadrature oracle implemented for n in (2, 3)")
    return -n * norm * val - sigma_n


def subentropy_rational_sum(values) -> float:
    """Direct eigenvalue-formula subentropy; valid for distinct positive
    eigenvalues only."""
    lam = np.asarray(values, dtype=float)
    n = lam.size
    total = 0.0
    for k in range(n):
        denom = 1.0
        for j in range(n):
            if j != k:
                denom *= lam[k] - lam[j]
        total += lam[k] ** n * math.log(lam[k]) / denom
    return -total


def subentropy_divided_difference(values) -> float:
    """Subentropy of values/sum(values) as the negated order-(n-1) divided
    difference of f(x) = x^n ln x, in mpmath.

    Equal nodes take f^(k)(x)/k! = C(n, k) x^(n-k) (ln x + H_n - H_(n-k)).
    The table loses about log10(1/gap) digits per order, so it runs at
    30 + n log10(1/gap) digits for the smallest gap between distinct
    entries; about 70 ms at n = 64 with gaps of 1e-6.
    """
    n = len(values)
    distinct = sorted(set(float(v) for v in values))
    gap = min((b - a for a, b in zip(distinct, distinct[1:])), default=1.0)
    with mpmath.workdps(30 + int(n * max(0.0, -math.log10(gap)))):
        nodes = [mpmath.mpf(float(v)) for v in values]
        total = mpmath.fsum(nodes)
        z = sorted(v / total for v in nodes)
        harm = [mpmath.mpf(0)]
        for k in range(1, n + 1):
            harm.append(harm[-1] + mpmath.mpf(1) / k)

        @functools.lru_cache(maxsize=None)
        def taylor(x, k):
            if x == 0:
                return mpmath.mpf(0)
            return mpmath.binomial(n, k) * x ** (n - k) * (mpmath.log(x) + harm[n] - harm[n - k])

        col = [taylor(x, 0) for x in z]
        for j in range(1, n):
            for i in range(n - j):
                gap = z[i + j] - z[i]
                col[i] = (col[i + 1] - col[i]) / gap if gap else taylor(z[i], j)
        return float(-col[0])


@functools.lru_cache(maxsize=None)
def depolarized_subentropy_oracle(n: int, epsilon: float) -> float:
    """Subentropy of (eps + a, a, ..., a), a = (1 - eps)/n, by
    ``subentropy_divided_difference``."""
    a = (1.0 - epsilon) / n
    return subentropy_divided_difference([epsilon + a] + [a] * (n - 1))


def min_power_oracle(n: int, epsilon: float) -> float:
    """The lower curve ln n - (H_n - 1) - Q of the depolarized pure state,
    subtracted at 40 digits."""
    with mpmath.workdps(40):
        top = mpmath.log(n) - mpmath.fsum(mpmath.mpf(1) / j for j in range(2, n + 1))
        return float(top - mpmath.mpf(depolarized_subentropy_oracle(n, epsilon)))


def _joint_information(p: np.ndarray) -> float:
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mask = p > 0.0
    return float((p[mask] * (np.log(p[mask]) - np.log(np.outer(px, py)[mask]))).sum())


def qubit_projective_grid_max(sub_normalized, points: int = 10**4) -> float:
    """Max mutual information over great-circle projective qubit
    measurements, theta resolution pi/points (~3e-4 rad)."""
    rhos = np.asarray(sub_normalized, dtype=complex)
    theta = np.linspace(0.0, np.pi, points, endpoint=False)
    u = np.stack([np.cos(theta / 2), np.sin(theta / 2)]).T.astype(complex)
    v = np.stack([-np.sin(theta / 2), np.cos(theta / 2)]).T.astype(complex)
    pu = np.einsum("ti,xij,tj->tx", u.conj(), rhos, u).real
    pv = np.einsum("ti,xij,tj->tx", v.conj(), rhos, v).real
    best = -1.0
    for k in range(points):
        p = np.clip(np.stack([pu[k], pv[k]]).T, 0.0, None)
        best = max(best, _joint_information(p))
    return best


def renyi_of(lam: np.ndarray, alpha: float) -> np.ndarray:
    lam = np.maximum(lam, 0.0)
    if abs(alpha - 1.0) < 1e-6:
        terms = np.where(lam > 0, lam * np.log(np.maximum(lam, 1e-300)), 0.0)
        return -terms.sum(axis=-1)
    return np.log((lam**alpha).sum(axis=-1)) / (1.0 - alpha)


def renyi_extrema_grid_3(purity: float, alpha: float, points: int = 20001):
    """Min and max Renyi entropy on the purity circle inside the
    3-simplex, dense theta grid plus the exact positivity-boundary
    points (where the extrema of clipped arcs live)."""
    center = np.ones(3) / 3.0
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    v = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    r = math.sqrt(purity - 1.0 / 3.0)
    theta = np.linspace(0.0, 2.0 * math.pi, points)
    lam = center[None, :] + r * (
        np.cos(theta)[:, None] * u[None, :] + np.sin(theta)[:, None] * v[None, :]
    )
    # exact boundary points lambda_k = 0 on the circle
    extras = []
    for k in range(3):
        a_k, b_k = r * u[k], r * v[k]
        rho = math.hypot(a_k, b_k)
        if rho < 1e-15:
            continue
        target = -center[k] / rho
        if abs(target) > 1.0:
            continue
        base = math.atan2(b_k, a_k)
        for t in (base + math.acos(target), base - math.acos(target)):
            extras.append(
                center + r * (math.cos(t) * u + math.sin(t) * v)
            )
    if extras:
        lam = np.vstack([lam, extras])
    ok = (lam >= -1e-9).all(axis=1)
    lam = np.maximum(lam[ok], 0.0)
    h = renyi_of(lam, alpha)
    return float(h.min()), float(h.max())


def sample_fixed_purity_spectra(n: int, purity: float, count: int, rng) -> np.ndarray:
    """Rejection-sample spectra uniformly on the purity sphere cap inside
    the simplex; n = 2 is the unique two-point spectrum."""
    r = math.sqrt(purity - 1.0 / n)
    if n == 2:
        lam = np.array([0.5 + r / math.sqrt(2.0), 0.5 - r / math.sqrt(2.0)])
        return np.tile(lam, (count, 1))
    out = []
    while len(out) < count:
        g = rng.normal(size=(4 * count, n))
        g -= g.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        lam = 1.0 / n + r * g / np.maximum(norms, 1e-300)
        lam = lam[(lam >= 0.0).all(axis=1)]
        out.extend(lam[: count - len(out)])
    return np.asarray(out)


def subentropy_depolarized_derivative_form(
    n: int, epsilon: float
) -> tuple[float, float]:
    """Subentropy of a depolarized pure state via the derivative identity.

    Evaluates (n-2)!^-1 d^(n-2)/da^(n-2) [(a^n ln a - b^n ln b)/(b - a)]
    through the multinomial expansion of the a-derivatives.  Returns
    ``(value, correction)`` where ``correction = S_n ((n-1) a + b - 1)``
    is the unit-trace term by which this route nominally differs from the
    binomial-sum route; it vanishes identically (|correction| < 1e-12).
    """
    n = _checks.integer(n, "dimension n", 2)
    # epsilon = 0 makes every eigenvalue equal, where this route divides by 0
    epsilon = _checks.real(
        epsilon, "epsilon", 0.0, 1.0, EpsilonOutOfRangeError, lo_open=True
    )
    a = (1.0 - epsilon) / n
    b = epsilon + a
    c = epsilon  # b - a, exactly
    sig_n = sum(1.0 / j for j in range(2, n + 1))  # H_n - 1

    # d^(n-2)/da^(n-2) [b^n ln b / (b - a)] = (n-2)! b^n ln b / (b-a)^(n-1)
    part_b = b**n * math.log(b) / c ** (n - 1)

    part_a = 0.0
    if a > 0.0:
        log_a = math.log(a)
        for k in range(2, n + 1):
            inner = math.comb(n, k) * log_a
            for j in range(1, n - 1):
                inner -= math.comb(n, k + j) * (-1.0) ** j / j
            part_a += a**k / c ** (k - 1) * inner

    value = part_a - part_b
    correction = sig_n * ((n - 1) * a + b - 1.0)
    return float(value), float(correction)


def random_density_matrix(n: int, rng) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(n: int, rng) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def random_symmetrized_povm(n: int, outcomes: int, rng):
    """Random full-rank POVM built from Wishart pieces, symmetrized to
    exact completeness; returned as a list of matrices."""
    g = rng.normal(size=(outcomes, n, 2)) + 1j * rng.normal(size=(outcomes, n, 2))
    raw = np.einsum("kiv,kjv->kij", g, g.conj())
    s = raw.sum(axis=0)
    evals, basis = np.linalg.eigh(s)
    inv_sqrt = (basis * (1.0 / np.sqrt(evals))) @ basis.conj().T
    return [inv_sqrt @ e @ inv_sqrt for e in raw]


def blahut_arimoto_prior(channel, tol: float, warm=None):
    """Blahut-Arimoto best prior of ``channel[x, y] = p(y|x)``; returns
    (prior, value) after at most 1000 iterations.

    Stops on the gap certificate or when an iteration gains less than
    max(tol * 1e-2, 1e-15); a warm-start prior is floored at 1e-12.
    """
    channel = np.asarray(channel, dtype=float)
    x_count = channel.shape[0]
    if warm is None:
        prior = np.full(x_count, 1.0 / x_count)
    else:
        prior = np.maximum(warm, 1e-12)
        prior = prior / prior.sum()
    log_channel = np.log(np.maximum(channel, 1e-300))
    value = -math.inf
    for _ in range(1000):
        out = prior @ channel
        d = (channel * (log_channel - np.log(np.maximum(out, 1e-300))[None, :])).sum(axis=1)
        new_value = float(prior @ d)
        gap = float(d.max() - new_value)
        stalled = new_value - value < max(tol * 1e-2, 1e-15)
        value = new_value
        if gap < max(tol, 1e-13) or stalled:
            return prior, value
        scaled = prior * np.exp(d - d.max())
        prior = scaled / scaled.sum()
    return prior, value


def ascend_scalar(value, state, direction, attempt, tol, max_sweeps: int = 300):
    """One restart of the backtracking ascent, a trial at a time.

    ``attempt(state, move, step)`` returns ``(value, state)`` or None for
    an infeasible trial.  Returns ``(value, state, sweeps, converged,
    step)``.
    """
    step = 0.2
    strikes = 0
    for sweep in range(1, max_sweeps + 1):
        move = direction(state)
        gained = 0.0
        while step > 1e-14:
            trial = attempt(state, move, step)
            if trial is not None and trial[0] > value:
                gained = trial[0] - value
                value, state = trial
                step = min(step * 1.3, 1e3)
                break
            step *= 0.4
        strikes = strikes + 1 if gained < tol else 0
        if strikes >= 3:
            return value, state, sweep, True, step
    return value, state, max_sweeps, False, step


def best_restart_scalar(runs):
    """Index of the first highest-value run with a feasible state, and
    the sweeps summed over all runs; each run is ``(value, state, sweeps,
    ...)`` with ``state`` None when the restart had no feasible start."""
    best = None
    sweeps = 0
    for k, run in enumerate(runs):
        sweeps += run[2]
        if run[1] is not None and (best is None or run[0] > runs[best][0]):
            best = k
    if best is None:
        raise ValueError("no feasible start")
    return best, sweeps


def power_channel_einsum(povm_stack, states):
    """b[r, x, y] = <s_x| E_y |s_x>, floored at 0, by one einsum."""
    b = np.einsum("rxi,yij,rxj->rxy", states.conj(), povm_stack, states).real
    return np.maximum(b, 0.0)


def power_gradient_einsum(povm_stack, logs, states):
    """sum_y logs[r, x, y] E_y |s_x> by one einsum."""
    return np.einsum("rxy,yij,rxj->rxi", logs, povm_stack, states)


def newton_step_reference(prior, d, channel, best):
    """The capacity prior's Newton step as first written: the free set's
    KKT system [[H + mu I, 1], [1^T, 0]] rebuilt and solved per pass."""
    q = prior @ channel
    live = q > 0.0
    free = prior > 0.0
    free[best] = True
    while True:
        idx = np.flatnonzero(free)
        m = idx.size
        rows = channel[idx]
        if m < 2 or rows[:, ~live].any():
            return None
        h = (rows[:, live] / q[live]) @ rows[:, live].T
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = h + (1e-9 * np.trace(h) / m) * np.eye(m)
        kkt[m, m] = 0.0
        step = np.linalg.solve(kkt, np.append(d[idx], 0.0))[:m]
        leave = (prior[idx] == 0.0) & (step < 0.0)
        if not leave.any():
            break
        free[idx[leave]] = False
    full = np.zeros_like(prior)
    full[idx] = step
    return full


def _shard_counts(samples: int) -> list[int]:
    counts = [SHARD_SIZE] * (samples // SHARD_SIZE)
    if samples % SHARD_SIZE:
        counts.append(samples % SHARD_SIZE)
    return counts


def _min_power_summary(n: int, epsilon: float, t: np.ndarray):
    """(mean, std error) of ln n - n * eta(eps t + (1 - eps)/n), in one pass."""
    x = epsilon * t + (1.0 - epsilon) / n
    vals = np.where(x > 0.0, -x * np.log(np.maximum(x, 1e-300)), 0.0)
    return math.log(n) - n * vals.mean(), n * math.sqrt(vals.var(ddof=1) / len(t))


def haar_overlaps_from_states(n: int, seed: int, stream: int, count: int) -> np.ndarray:
    """|<e1|phi>|^2 of ``count`` Haar states read off the full state vectors."""
    return np.abs(HaarSampler(n, seed, stream).states(count)[:, 0]) ** 2


def mc_min_power_from_states(n: int, epsilon: float, samples: int, seed: int, stream: int):
    """(mean, std error) of the minimum-power Monte Carlo with every shard
    building its state vectors, reduced in one pass over all samples."""
    t = np.concatenate(
        [
            haar_overlaps_from_states(n, seed, stream + i, c)
            for i, c in enumerate(_shard_counts(samples))
        ]
    )
    return _min_power_summary(n, epsilon, t)


def mc_min_power_from_uniforms(n: int, epsilon: float, samples: int, seed: int, stream: int):
    """(mean, std error) of the minimum-power Monte Carlo with shard i
    drawing its overlaps from a fresh Philox stream keyed by
    (seed, stream + i), reduced in one pass over all samples."""
    t = np.concatenate(
        [
            1 - (1 - np.random.Generator(np.random.Philox(key=[seed, stream + i])).random(c))
            ** (1 / (n - 1))
            for i, c in enumerate(_shard_counts(samples))
        ]
    )
    return _min_power_summary(n, epsilon, t)
