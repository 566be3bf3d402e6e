"""Accessible information and informational power: exact bounds and
numerical optimizers for small dimension (n <= 8).

The accessible-information optimizer is a see-saw over rank-one POVMs:
each sweep moves the outcome vectors along the mutual-information
gradient, restores completeness exactly by S^(-1/2) . S^(-1/2)
symmetrization, and keeps the step only if the information increased
(backtracking line search), so the best value is monotone.  The
informational-power optimizer alternates a capacity-style fixed point on
the prior of a candidate pure-state alphabet with per-state gradient
ascent.  Neither certifies global optimality; restarts from independent
Haar frames plus a deterministic spectral start make the known optima of
the test families reliably reachable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import mutual_information, shannon_entropy, subentropy
from .errors import DimensionTooLargeError, ValidationError
from .montecarlo import HaarSampler
from .operators import (
    DensityOperator,
    Ensemble,
    HermitianOperator,
    Povm,
    born_joint,
    eig_hermitian,
    pure_state_density,
)

_LOG_FLOOR = 1e-300
MAX_OPT_DIM = 8


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the see-saw optimizers.

    ``tol`` is the per-sweep information gain (nats) below which, for
    three consecutive sweeps, a restart is declared converged.
    ``max_outcomes`` caps the number of rank-one outcomes (or candidate
    states); defaults to n^2.
    """

    restarts: int = 4
    max_iters: int = 300
    tol: float = 1e-9
    seed: int = 0
    max_outcomes: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts {self.restarts} must be >= 1")
        if self.tol <= 0.0:
            raise ValidationError(f"tol {self.tol!r} must be > 0")


@dataclass(frozen=True)
class InfoResult:
    """Optimizer outcome: value in nats plus the optimizing object."""

    value: float
    argmax: object
    iterations: int
    converged: bool


def jrw_lower(ensemble: Ensemble) -> float:
    """Subentropy lower bound on the accessible information:
    Q(rho) - sum_x w_x Q(sigma_x), in nats.

    Clipped at zero; a warning is emitted if roundoff drives the raw
    value below -1e-9.
    """
    value = subentropy(ensemble.average.spectrum)
    for w, state in ensemble.items:
        if w > 0.0:
            value -= w * subentropy(state.spectrum)
    if value < -1e-9:
        warnings.warn(
            f"subentropy bound below zero by {value:.3e}; clipping",
            stacklevel=2,
        )
    return max(value, 0.0)


def holevo_upper(ensemble: Ensemble) -> float:
    """Holevo upper bound S(rho) - sum_x w_x S(sigma_x), in nats.

    Attained exactly when the ensemble states pairwise commute.
    """
    value = shannon_entropy(ensemble.average.spectrum.clipped())
    for w, state in ensemble.items:
        if w > 0.0:
            value -= w * shannon_entropy(state.spectrum.clipped())
    return max(value, 0.0)


def _check_opt_dim(n: int):
    if n > MAX_OPT_DIM:
        raise DimensionTooLargeError(
            f"dimension {n} exceeds optimizer limit {MAX_OPT_DIM}"
        )


def _mutual_info_matrix(p: np.ndarray) -> float:
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mask = p > 0.0
    logs = np.log(p[mask]) - np.log(np.maximum(np.outer(px, py)[mask], _LOG_FLOOR))
    return float((p[mask] * logs).sum())


def _inv_sqrt_psd(s: np.ndarray) -> np.ndarray | None:
    spec, basis = eig_hermitian(HermitianOperator(s, tol=1e-8))
    if spec.values[-1] < 1e-12:
        return None
    return (basis * (1.0 / np.sqrt(spec.values))) @ basis.conj().T


def _vectors_to_joint(rhos: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # p[x, y] = <v_y| rho_x |v_y>, rho_x sub-normalized
    p = np.einsum("yi,xij,yj->xy", vecs.conj(), rhos, vecs).real
    return np.maximum(p, 0.0)


def _symmetrize_vectors(vecs: np.ndarray) -> np.ndarray | None:
    s = np.einsum("yi,yj->ij", vecs, vecs.conj())
    inv_sqrt = _inv_sqrt_psd(s)
    if inv_sqrt is None:
        return None
    return vecs @ inv_sqrt.T


def _see_saw_accessible(rhos, weights, start_vecs, max_iters, tol):
    """One see-saw restart; returns (value, vectors, sweeps, converged)."""
    vecs = _symmetrize_vectors(start_vecs)
    if vecs is None:
        return -1.0, None, 0, False
    p = _vectors_to_joint(rhos, vecs)
    value = _mutual_info_matrix(p)
    step = 0.2
    strikes = 0
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        py = p.sum(axis=0)
        logs = (
            np.log(np.maximum(p, _LOG_FLOOR))
            - np.log(np.maximum(weights, _LOG_FLOOR))[:, None]
            - np.log(np.maximum(py, _LOG_FLOOR))[None, :]
        )
        grad = np.einsum("xy,xij->yij", logs, rhos)
        moved = np.einsum("yij,yj->yi", grad, vecs)
        gained = 0.0
        while step > 1e-14:
            trial = _symmetrize_vectors(vecs + step * moved)
            if trial is not None:
                p_trial = _vectors_to_joint(rhos, trial)
                v_trial = _mutual_info_matrix(p_trial)
                if v_trial > value:
                    gained = v_trial - value
                    vecs, p, value = trial, p_trial, v_trial
                    step = min(step * 1.3, 1e3)
                    break
            step *= 0.4
        strikes = strikes + 1 if gained < tol else 0
        if strikes >= 3:
            return value, vecs, sweeps, True
    return value, vecs, sweeps, False


def accessible_info_opt(
    ensemble: Ensemble, cfg: OptimizerConfig | None = None
) -> InfoResult:
    """Maximize the mutual information of an ensemble over POVMs.

    Restart 0 starts from the projective measurement in the eigenbasis of
    the average state (exactly optimal for commuting ensembles); further
    restarts use Haar frames of ``max_outcomes`` rank-one outcomes.  The
    returned POVM is exactly complete and reproduces ``value`` through
    the Born rule.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    n = ensemble.dim
    _check_opt_dim(n)
    k_out = cfg.max_outcomes if cfg.max_outcomes is not None else n * n
    if k_out < n:
        raise ValidationError(f"max_outcomes {k_out} < dimension {n}")
    rhos = ensemble.sub_normalized()
    weights = ensemble.weights

    _, avg_basis = eig_hermitian(ensemble.average.op)

    def run_restart(r: int):
        if r == 0:
            start = avg_basis.T.conj()
        else:
            start = HaarSampler(n, cfg.seed, stream_id=r).states(k_out)
        return _see_saw_accessible(rhos, weights, start, cfg.max_iters, cfg.tol)

    outcomes = [run_restart(r) for r in range(cfg.restarts)]

    best = None
    iterations = 0
    for r, (value, vecs, sweeps, converged) in enumerate(outcomes):
        iterations += sweeps
        if vecs is None:
            continue
        if best is None or value > best[0]:
            best = (value, vecs, converged)
    if best is None:
        raise ValidationError("optimizer failed to produce a feasible POVM")

    _, vecs, converged = best
    povm = Povm([HermitianOperator(np.outer(v, v.conj())) for v in vecs])
    value = mutual_information(born_joint(ensemble, povm))
    return InfoResult(value=value, argmax=povm, iterations=iterations, converged=converged)


def _capacity_prior(
    channel: np.ndarray,
    tol: float,
    max_iters: int = 1000,
    warm: np.ndarray | None = None,
):
    """Iterative-scaling fixed point for the best prior of a fixed channel.

    ``channel[x, y]`` holds p(y|x); returns (prior, value, iterations).
    A warm-start prior is floored at 1e-12 so extinguished letters can
    re-enter.
    """
    x_count = channel.shape[0]
    if warm is None:
        prior = np.full(x_count, 1.0 / x_count)
    else:
        prior = np.maximum(warm, 1e-12)
        prior = prior / prior.sum()
    log_channel = np.log(np.maximum(channel, _LOG_FLOOR))
    value = -math.inf
    for it in range(max_iters):
        out = prior @ channel
        d = (channel * (log_channel - np.log(np.maximum(out, _LOG_FLOOR))[None, :])).sum(axis=1)
        new_value = float(prior @ d)
        gap = float(d.max() - new_value)
        stalled = new_value - value < max(tol * 1e-2, 1e-15)
        value = new_value
        if gap < max(tol, 1e-13) or stalled:
            return prior, value, it + 1
        scaled = prior * np.exp(d - d.max())
        prior = scaled / scaled.sum()
    return prior, value, max_iters


def _fixed_prior_information(prior: np.ndarray, channel: np.ndarray) -> float:
    out = prior @ channel
    logs = np.log(np.maximum(channel, _LOG_FLOOR)) - np.log(
        np.maximum(out, _LOG_FLOOR)
    )[None, :]
    return float(prior @ (channel * logs).sum(axis=1))


def _ensemble_channel(states: np.ndarray, povm_stack: np.ndarray) -> np.ndarray:
    b = np.einsum("xi,yij,xj->xy", states.conj(), povm_stack, states).real
    return np.maximum(b, 0.0)


def _power_restart(povm_stack, states, max_iters, tol):
    """Alternate the prior fixed point with per-state gradient ascent at
    fixed prior; returns (value, prior, states, sweeps, converged)."""
    prior, value, _ = _capacity_prior(_ensemble_channel(states, povm_stack), tol)
    step = 0.2
    strikes = 0
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        b = _ensemble_channel(states, povm_stack)
        out = prior @ b
        logs = np.log(np.maximum(b, _LOG_FLOOR)) - np.log(
            np.maximum(out, _LOG_FLOOR)
        )[None, :]
        moved = np.einsum("xy,yij,xj->xi", logs, povm_stack, states)
        fixed_value = _fixed_prior_information(prior, b)
        gained = 0.0
        while step > 1e-14:
            trial = states + step * moved
            norms = np.sqrt((np.abs(trial) ** 2).sum(axis=1, keepdims=True))
            trial = trial / np.maximum(norms, _LOG_FLOOR)
            trial_channel = _ensemble_channel(trial, povm_stack)
            if _fixed_prior_information(prior, trial_channel) > fixed_value:
                # re-optimize the prior only for accepted state moves
                p2, v2, _ = _capacity_prior(trial_channel, tol, warm=prior)
                if v2 > value:
                    gained = v2 - value
                    states, prior, value = trial, p2, v2
                    step = min(step * 1.3, 1e3)
                    break
            step *= 0.4
        strikes = strikes + 1 if gained < tol else 0
        if strikes >= 3:
            return value, prior, states, sweeps, True
    return value, prior, states, sweeps, False


def informational_power_opt(
    povm: Povm, cfg: OptimizerConfig | None = None
) -> InfoResult:
    """Maximize the mutual information of a POVM over input ensembles.

    Pure-state alphabets of ``max_outcomes`` candidates suffice; restart 0
    seeds them with the leading eigenvectors of (a deterministic spread
    of) the POVM elements, further restarts with Haar states.  For each
    alphabet the prior is globally optimized by the capacity fixed point,
    then the states follow the information gradient.  Restarts run one
    after another in the calling thread: the sweeps hold the interpreter
    lock, so worker threads would not speed them up.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    n = povm.dim
    _check_opt_dim(n)
    k_cand = cfg.max_outcomes if cfg.max_outcomes is not None else n * n
    if k_cand < n:
        raise ValidationError(f"max_outcomes {k_cand} < dimension {n}")
    stack = povm.stack()

    def eigenvector_candidates() -> np.ndarray:
        picks = np.unique(np.linspace(0, len(povm) - 1, k_cand).astype(int))
        vecs = []
        for idx in picks:
            _, basis = eig_hermitian(povm.elements[int(idx)])
            for col in basis.T:
                vecs.append(col)
                if len(vecs) >= k_cand:
                    return np.array(vecs)
        while len(vecs) < k_cand:
            vecs.append(vecs[len(vecs) % max(len(vecs), 1)])
        return np.array(vecs)

    def run_restart(r: int):
        if r == 0:
            start = eigenvector_candidates()
        else:
            start = HaarSampler(n, cfg.seed, stream_id=1000 + r).states(k_cand)
        return _power_restart(stack, start, cfg.max_iters, cfg.tol)

    outcomes = [run_restart(r) for r in range(cfg.restarts)]

    best = None
    iterations = 0
    for value, prior, states, sweeps, converged in outcomes:
        iterations += sweeps
        if best is None or value > best[0]:
            best = (value, prior, states, converged)
    _, prior, states, converged = best

    keep = prior > 1e-12
    weights = prior[keep] / prior[keep].sum()
    members = [
        (float(w), pure_state_density(v)) for w, v in zip(weights, states[keep])
    ]
    ensemble = Ensemble(members)
    value = mutual_information(born_joint(ensemble, povm))
    return InfoResult(
        value=value, argmax=ensemble, iterations=iterations, converged=converged
    )


def symmetric_upper_bound(
    ensemble: Ensemble,
    phi_search: OptimizerConfig | None = None,
) -> float:
    """Single-state upper bound on the accessible information:
    ln n - n min_phi sum_x w_x eta(<phi| sigma_x |phi>), in nats.

    The inner minimum over normalized pure states is found by multi-start
    projected gradient descent on the unit sphere (32 starts by default).
    Valid as an upper bound for ensembles averaging to the maximally
    mixed state.
    """
    cfg = phi_search if phi_search is not None else OptimizerConfig(restarts=32)
    n = ensemble.dim
    _check_opt_dim(n)
    sigmas = np.stack([s.matrix for s in ensemble.states])
    weights = ensemble.weights

    def objective(phi: np.ndarray) -> float:
        u = np.einsum("i,xij,j->x", phi.conj(), sigmas, phi).real
        u = np.clip(u, 0.0, None)
        vals = np.where(u > 0.0, -u * np.log(np.maximum(u, _LOG_FLOOR)), 0.0)
        return float(weights @ vals)

    def descend(phi: np.ndarray) -> float:
        phi = phi / np.linalg.norm(phi)
        value = objective(phi)
        step = 0.2
        strikes = 0
        for _ in range(cfg.max_iters):
            u = np.einsum("i,xij,j->x", phi.conj(), sigmas, phi).real
            coef = weights * (-(np.log(np.maximum(u, _LOG_FLOOR)) + 1.0))
            grad = np.einsum("x,xij,j->i", coef, sigmas, phi)
            grad -= np.vdot(phi, grad) * phi  # tangent projection
            gained = 0.0
            while step > 1e-14:
                trial = phi - step * grad
                trial = trial / np.linalg.norm(trial)
                v2 = objective(trial)
                if v2 < value:
                    gained = value - v2
                    phi, value = trial, v2
                    step = min(step * 1.3, 1e3)
                    break
                step *= 0.4
            strikes = strikes + 1 if gained < max(cfg.tol, 1e-13) else 0
            if strikes >= 3:
                break
        return value

    _, avg_basis = eig_hermitian(ensemble.average.op)
    starts = [np.eye(n, dtype=complex)[k] for k in range(n)]
    starts += [avg_basis[:, k].astype(complex) for k in range(n)]
    fill = max(cfg.restarts - len(starts), 0)
    if fill:
        starts += list(HaarSampler(n, cfg.seed, stream_id=2000).states(fill))

    return math.log(n) - n * min(descend(phi) for phi in starts)


@dataclass(frozen=True)
class DualityReport:
    """Informational power versus distorted accessible information over a
    grid of states."""

    w_value: float
    a_values: tuple
    max_a_value: float
    duality_gap: float
    lower_bound_holds: bool


def distorted_ensemble(povm: Povm, rho: DensityOperator) -> Ensemble:
    """The ensemble {sqrt(rho) pi_y sqrt(rho)} induced by a state.

    Its members sum to rho, so it is a valid ensemble; elements of
    negligible weight (< 1e-14) are dropped.
    """
    spec, basis = eig_hermitian(rho.op)
    root = (basis * np.sqrt(spec.clipped())) @ basis.conj().T
    members = []
    for element in povm.elements:
        mat = root @ element.matrix @ root
        w = float(np.trace(mat).real)
        if w < 1e-14:
            continue
        members.append((w, DensityOperator(mat / w)))
    total = sum(w for w, _ in members)
    members = [(w / total, s) for w, s in members]
    return Ensemble(members)


def duality_check(
    povm: Povm,
    rho_grid,
    cfg: OptimizerConfig | None = None,
) -> DualityReport:
    """Verify W(povm) >= A(distorted ensemble) over a grid of states.

    The informational power dominates the accessible information of every
    rho-distorted POVM ensemble, with equality at the maximizing rho; the
    report carries the individual values and the residual gap at the
    grid maximum.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    w = informational_power_opt(povm, cfg).value
    a_values = []
    for rho in rho_grid:
        ens = distorted_ensemble(povm, rho)
        a_values.append(accessible_info_opt(ens, cfg).value)
    max_a = max(a_values)
    return DualityReport(
        w_value=w,
        a_values=tuple(a_values),
        max_a_value=max_a,
        duality_gap=w - max_a,
        lower_bound_holds=all(w >= a - 1e-6 for a in a_values),
    )
