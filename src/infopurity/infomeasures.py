"""Accessible information and informational power: exact bounds and
numerical optimizers for small dimension (n <= 8).

The accessible-information optimizer is a see-saw over rank-one POVMs:
each sweep moves the outcome vectors along the mutual-information
gradient, restores completeness exactly by S^(-1/2) . S^(-1/2)
symmetrization, and keeps the step only if the information increased
(backtracking line search), so the best value is monotone.  The
informational-power optimizer moves a candidate pure-state alphabet by
per-state gradient ascent at fixed prior; each move it keeps also takes
one active-set Newton iteration of the best prior of the alphabet (its
channel capacity).  That prior is solved to a proven gap at the start
and at the end of each restart.  Neither optimizer certifies global
optimality over POVMs or alphabets; restarts from independent Haar frames
plus a deterministic spectral start make the known optima of the test
families reliably reachable.

Every optimizer runs all of its restarts in lock-step through one
backtracking ascent over stacked arrays (restart = leading axis): each
restart keeps its own step and convergence state, so it takes exactly the
trials it would take alone, while the linear algebra of one sweep runs
once for the whole stack.  The stack keeps its height: a restart that is
not searching (converged, infeasible, or already risen this sweep) rides
along at step 0, its trial is discarded, and the optimizers' callbacks
neither raise on such a row nor act on it alone.  Each line search starts
at step 1.0, below the working step of nearly every restart, and
backtracks by 0.4 from there.  The see-saw keeps the log of its joint and
the column sums from each evaluation for the next gradient, and the Haar
restart frames are drawn once per (dimension, seed, stream) and cached.
The three optimizers read their operators A_k (the ensemble's states, the
POVM's elements) through one kernel pair over vector stacks: the
expectations <v| A_k |v> and the weighted action sum_k w_k A_k |v>.

Two routines first look for a certificate in their input and skip the
ascent when they find one; both certificates hold for commuting
ensembles whose common eigenbasis is the eigenbasis U of the average
state.  ``accessible_info_opt`` returns the measurement in U when its
information is within ``tol`` of the Holevo bound, which no POVM exceeds;
it then reports 0 iterations and a single "spectral" restart record.
``symmetric_upper_bound`` takes its minimum over pure states at a column
of U when every state is diagonal in U, where the objective is concave in
|U^dag phi|^2.  Any other input runs the full ascent.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _checks
from .entropy import (
    _LOG_FLOOR,
    _eta,
    _mutual_info,
    _mutual_info_terms,
    _shannon,
    mutual_information,
    subentropy,
)
from .errors import (
    DimensionTooLargeError,
    EpsilonOutOfRangeError,
    NoConvergenceError,
    NonHermitianError,
    ValidationError,
)
from .montecarlo import HaarSampler
from .operators import (
    DensityOperator,
    Ensemble,
    Povm,
    born_joint,
    eig_hermitian,
    pure_state_density,
)
from .tradeoff import depolarized_haar_ensemble

MAX_OPT_DIM = 8
# sweeps per restart before it is reported unconverged
_MAX_SWEEPS = 300
# Newton iterations per capacity-prior solve before it is reported
# uncertified; at zero, kept state moves take no prior iteration either
_PRIOR_ITERS = 50
_SYM_STARTS = 32
# line-search step every restart starts from
_FIRST_STEP = 1.0
# largest off-diagonal entry (absolute) of a state counted as diagonal in a basis
_DIAGONAL_ATOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by the see-saw optimizers.

    ``restarts`` counts the starts: restart 0 is a deterministic spectral
    start, the others are Haar draws keyed by ``seed``.  ``tol`` is the
    per-sweep information gain (nats) below which, for three consecutive
    sweeps, a restart is declared converged.  Every restart runs at most
    300 sweeps over n^2 rank-one outcomes (or candidate states).
    """

    restarts: int = 4
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        _checks.integer(self.restarts, "restarts", 1)
        _checks.real(self.tol, "tol", 0.0, _checks.FLOAT_MAX, lo_open=True)
        _checks.integer(self.seed, "seed", 0, _checks.SEED_MAX)


@dataclass(frozen=True)
class RestartRecord:
    """What one restart did: its start ``kind`` (``"spectral"``,
    ``"eigenvector"`` or ``"haar"``), final value in nats (-inf without a
    feasible start), sweeps, converged flag and final line-search step.
    It has no wall time: the restarts run in lock-step on one clock.  A
    certified spectral exit is one record with 0 sweeps, converged, at the
    untouched first step 1.0.
    """

    kind: str
    value: float
    sweeps: int
    converged: bool
    step: float


@dataclass(frozen=True)
class InfoResult:
    """Optimizer outcome: value in nats plus the optimizing object, and
    one ``RestartRecord`` per restart in restart order.  ``iterations``
    sums the sweeps of every restart; it is 0, with a single record, when
    ``accessible_info_opt`` certifies its spectral start without a sweep."""

    value: float
    argmax: object
    iterations: int
    converged: bool
    restarts: tuple = ()


@functools.lru_cache(maxsize=64)
def _haar_frame(n: int, seed: int, stream_id: int, count: int) -> np.ndarray:
    """``HaarSampler(n, seed, stream_id).states(count)``, read-only and
    cached: every call of an optimizer starts its Haar restarts from the
    same frames of its seed."""
    frame = HaarSampler(n, seed, stream_id=stream_id).states(count)
    frame.setflags(write=False)
    return frame


def _spectral_difference(ensemble: Ensemble, entropy) -> float:
    # entropy(rho) - sum_x w_x entropy(sigma_x) over the cached spectra
    value = entropy(ensemble.average.spectrum)
    for w, state in ensemble.items:
        if w > 0.0:
            value -= w * entropy(state.spectrum)
    return value


def jrw_lower(ensemble: Ensemble) -> float:
    """Subentropy lower bound on the accessible information:
    Q(rho) - sum_x w_x Q(sigma_x), in nats.

    Clipped at zero; a warning is emitted if roundoff drives the raw
    value below -1e-9.  Raises ``DimensionTooLargeError`` if the raw value
    exceeds ``holevo_upper``, which bounds every accessible information,
    by more than 1e-9: the subentropies have then lost their accuracy.
    """
    value = _spectral_difference(ensemble, subentropy)
    holevo = holevo_upper(ensemble)
    if value > holevo + 1e-9:
        raise DimensionTooLargeError(
            f"subentropy bound {value:.12g} exceeds the Holevo bound {holevo:.12g}"
        )
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
    return max(_spectral_difference(ensemble, lambda s: _shannon(s.clipped())), 0.0)


def _ascend(value, state, direction, attempt, tol):
    """Backtracking ascent shared by the three optimizers, on R restarts
    ("rows") in lock-step.

    ``value`` has shape (R,); ``state`` is a tuple of arrays with the row
    as leading axis.  A row starting at -inf never runs.  Each sweep takes
    ``move = direction(state)`` and tries ``attempt(state, move, step)``,
    which returns trial values (-inf if infeasible) and trial states,
    until no row is searching.  Per row, the first trial that raises the
    value is kept and grows the row's step by 1.3 (up to 1e3); every other
    trial shrinks it by 0.4 (down to 1e-14).  Every row starts at step
    1.0.  Three sweeps in a row gaining less than ``tol`` stop a row as
    converged, so each row takes exactly the trials it would take alone.
    Returns per-row ``(value, state, sweeps, converged, step)``; sweeps is
    300 for an unconverged row, 0 for an infeasible one.

    The stack keeps its height: every call sees all R rows.  A row that
    is not searching (converged, infeasible, or already risen this sweep)
    is tried at step 0 and its trial is discarded, so the callbacks must
    not raise on such a row and must have no per-row side effect for it.
    When every row rose, the trial stack replaces the state; otherwise
    the rows that rose are written into it in place.
    """
    # the per-row bookkeeping runs on Python floats, as in a one-row loop
    value = np.asarray(value, dtype=float).tolist()
    rows = len(value)
    step = [_FIRST_STEP] * rows
    strikes = [0] * rows
    sweeps = [_MAX_SWEEPS if math.isfinite(v) else 0 for v in value]
    converged = [False] * rows
    running = [r for r in range(rows) if sweeps[r]]
    for sweep in range(1, _MAX_SWEEPS + 1):
        if not running:
            break
        move = direction(state)
        gained = [0.0] * rows
        search = [r for r in running if step[r] > 1e-14]
        while search:
            trial_step = [0.0] * rows
            for r in search:
                trial_step[r] = step[r]
            trial_value, trial = attempt(state, move, np.array(trial_step))
            trial_value = trial_value.tolist()
            up, rest = [], []
            for r in search:
                v = trial_value[r]
                if v > value[r]:
                    gained[r] = v - value[r]
                    value[r] = v
                    step[r] = min(step[r] * 1.3, 1e3)
                    up.append(r)
                else:
                    step[r] *= 0.4
                    if step[r] > 1e-14:
                        rest.append(r)
            if len(up) == rows:
                state = trial
            elif up:
                rose = np.zeros(rows, dtype=bool)
                rose[up] = True
                for part, new in zip(state, trial):  # a masked copy: no gather
                    np.copyto(part, new, where=rose.reshape(-1, *[1] * (part.ndim - 1)))
            search = rest
        still = []
        for r in running:
            strikes[r] = strikes[r] + 1 if gained[r] < tol else 0
            if strikes[r] >= 3:
                sweeps[r] = sweep
                converged[r] = True
            else:
                still.append(r)
        running = still
    return np.array(value), state, np.array(sweeps), np.array(converged), np.array(step)


def _best_restart(first_kind, value, sweeps, converged, step):
    """The first highest-value feasible row, the sweeps summed over all
    rows and one ``RestartRecord`` per row (row 0 of ``first_kind``, the
    others Haar)."""
    if not np.isfinite(value).any():
        raise ValidationError("optimizer failed to produce a feasible start")
    kinds = [first_kind] + ["haar"] * (value.size - 1)
    records = tuple(
        RestartRecord(kind, float(v), int(s), bool(c), float(t))
        for kind, v, s, c, t in zip(kinds, value, sweeps, converged, step)
    )
    return int(np.argmax(value)), int(sweeps.sum()), records


def _symmetrize_vectors(vecs: np.ndarray):
    """v_y -> S^(-1/2) v_y per row, with S = sum_y |v_y><v_y|.

    Returns ``(vectors, feasible)``; a row is infeasible when its S is
    singular (smallest eigenvalue below 1e-12), and its vectors are then
    meaningless.
    """
    s = vecs.swapaxes(-1, -2) @ vecs.conj()
    dev = np.abs(s - s.conj().swapaxes(-1, -2)).max()
    if not dev <= 1e-8:  # NaN and inf entries fail too
        raise NonHermitianError(f"frame operator not finite and Hermitian: {dev:.3e}")
    try:
        evals, basis = np.linalg.eigh(s)  # reads one triangle
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    feasible = evals[:, 0] >= 1e-12
    evals = np.where(feasible[:, None], evals, 1.0)
    # v S^(-1/2) applied to row vectors: (S^(-1/2))^T = conj(U) diag(evals^-1/2) U^T
    inv_sqrt_t = (basis.conj() * (1.0 / np.sqrt(evals))[:, None, :]) @ basis.swapaxes(-1, -2)
    return vecs @ inv_sqrt_t, feasible


def _expectations(flat, vecs):
    """e[..., k] = <v| A_k |v>, floored at 0, for a stack of vectors
    ``vecs`` (last axis n) and operators A_k flattened to ``(K, n^2)``."""
    outer = vecs.conj()[..., :, None] * vecs[..., None, :]
    return np.maximum((outer.reshape(*vecs.shape[:-1], -1) @ flat.T).real, 0.0)


def _weighted_action(flat, weights, vecs):
    """sum_k weights[..., k] A_k |v> for a stack of vectors ``vecs`` (last
    axis n) and operators A_k flattened to ``(K, n^2)``."""
    return ((weights @ flat).reshape(*vecs.shape, -1) @ vecs[..., None])[..., 0]


def _see_saw_accessible(rhos, weights, start_vecs, tol):
    """Every see-saw restart in lock-step from an ``(R, K, n)`` stack of
    outcome vectors; returns ``_ascend``'s arrays with state ``(vecs,
    log_p, py)``: the vectors, the floored log of the joint p and its
    column sums, kept from the evaluation for the next gradient."""
    log_weights = np.log(np.maximum(weights, _LOG_FLOOR))[:, None]
    flat = rhos.reshape(len(rhos), -1)

    def evaluate(vecs):
        vecs, feasible = _symmetrize_vectors(vecs)
        # p[r, x, y] = <v_y| rho_x |v_y>, rho_x sub-normalized
        p = _expectations(flat, vecs).swapaxes(-1, -2)
        info, log_p, py = _mutual_info_terms(p)
        return np.where(feasible, info, -np.inf), (vecs, log_p, py)

    def direction(state):
        vecs, log_p, py = state
        logs = log_p - log_weights - np.log(np.maximum(py, _LOG_FLOOR))[:, None, :]
        return (_weighted_action(flat, logs.swapaxes(-1, -2), vecs),)

    def attempt(state, move, step):
        return evaluate(state[0] + step[:, None, None] * move[0])

    value, state = evaluate(start_vecs)
    return _ascend(value, state, direction, attempt, tol)


def _see_saw_restarts(ensemble: Ensemble, avg_basis: np.ndarray, cfg: OptimizerConfig):
    """Every see-saw restart of ``accessible_info_opt``: restart 0 from the
    n conjugated columns of ``avg_basis``, padded with zero vectors that
    stay exactly zero, the others from Haar frames of n^2 outcomes.
    Returns the winning restart's outcome vectors (n of them for restart
    0), the summed sweeps, its converged flag and the restart records."""
    n = ensemble.dim
    spectral = np.zeros((n * n, n), dtype=complex)
    spectral[:n] = avg_basis.T.conj()
    starts = np.stack([spectral] + [
        _haar_frame(n, cfg.seed, r, n * n) for r in range(1, cfg.restarts)
    ])
    value, (vecs, _, _), sweeps, converged, step = _see_saw_accessible(
        ensemble.sub_normalized(), ensemble.weights, starts, cfg.tol
    )
    row, iterations, records = _best_restart("spectral", value, sweeps, converged, step)
    vecs = vecs[row, :n] if row == 0 else vecs[row]
    return vecs, iterations, bool(converged[row]), records


def accessible_info_opt(
    ensemble: Ensemble, cfg: OptimizerConfig = OptimizerConfig()
) -> InfoResult:
    """Maximize the mutual information of an ensemble over POVMs.

    First the projective measurement in the eigenbasis U of the average
    state is tried.  If its information is already within ``cfg.tol`` of
    ``holevo_upper``, which bounds every POVM, it is returned as is: 0
    iterations, converged, and one "spectral" record of 0 sweeps.  This
    certificate holds for commuting ensembles whose common eigenbasis is
    U.  Otherwise the see-saw runs: restart 0 from the projective
    measurement in conj(U) (the same as U for real ensembles), further
    restarts from Haar frames of n^2 rank-one outcomes, all in lock-step
    on one stack; restart 0 keeps its n outcomes.  The returned POVM is
    exactly complete and reproduces ``value`` through the Born rule.
    """
    n = ensemble.dim
    _checks.integer(n, "dimension", 1, MAX_OPT_DIM, DimensionTooLargeError)
    _, avg_basis = eig_hermitian(ensemble.average.op)
    # p[x, y] = <u_y| rho_x |u_y> for the columns u_y of U
    p = np.einsum("iy,xij,jy->xy", avg_basis.conj(), ensemble.sub_normalized(), avg_basis).real
    spectral_value = float(_mutual_info(np.maximum(p, 0.0)))
    if spectral_value >= holevo_upper(ensemble) - cfg.tol:
        vecs, iterations, converged = avg_basis.T, 0, True
        records = (RestartRecord("spectral", spectral_value, 0, True, _FIRST_STEP),)
    else:
        vecs, iterations, converged, records = _see_saw_restarts(ensemble, avg_basis, cfg)
    povm = Povm(vecs[:, :, None] * vecs.conj()[:, None, :])
    value = mutual_information(born_joint(ensemble, povm))
    return InfoResult(value, povm, iterations, converged, records)


def _row_divergences(prior: np.ndarray, channel: np.ndarray, log_channel: np.ndarray):
    """Relative entropy of each row p(.|x) of the channel to the output
    distribution prior @ channel, and the log-ratios log p(y|x) - log q(y)
    it sums; leading axes stack channels."""
    out = (prior[..., None, :] @ channel)[..., 0, :]
    logs = log_channel - np.log(np.maximum(out, _LOG_FLOOR))[..., None, :]
    return (channel * logs).sum(axis=-1), logs


def _newton_step(prior, d, channel, best):
    """Newton direction of I(p) on the free set, or None when that set
    has a single letter or the quadratic model does not hold.

    The free set is the support plus ``best``; a zero letter whose step
    is negative leaves it.  I(p) has gradient D_x - 1 and Hessian
    -W diag(1/q) W^T (q = pW), so the step s solves the KKT system
    [[H + mu I, 1], [1^T, 0]] with right-hand side d_F; mu is 1e-9 of the
    mean diagonal, because duplicated rows make H singular.  A free letter
    reaching an output of probability zero has unbounded curvature.

    On m = 2 or 3 free letters, 94% of the steps of a (2, 64) Scrooge
    POVM, the step is solved in its null-space form on Python floats:
    s_m = -(s_1 + ... + s_{m-1}) leaves G y = r with
    G_ij = h_ij - h_im - h_mj + h_mm + mu (1 + delta_ij) and
    r_i = d_i - d_m, one division at m = 2 and a pivoted 2 x 2 elimination
    at m = 3.  Only these two sizes are unrolled: 0.74 us at 3 letters,
    against 9.1 us for a generic Python elimination and 14 us for
    ``np.linalg.solve``.  From 4 letters the bordered LAPACK solve is kept
    so that those steps keep their bits; a generic Python elimination
    would gain little at 4 letters (12 us) and loses from 5 (18 us, and
    55 against 23 us at 9).  The Schur complement a - lambda b, with a and
    b two solves against H + mu I, is avoided: on near-duplicate rows a and
    b cancel along the all-ones vector.
    """
    q = prior @ channel
    live = q > 0.0
    dead = None if np.count_nonzero(live) == live.size else ~live
    # the free-set bookkeeping runs on Python lists, as in _prior_step
    weights, dl = prior.tolist(), d.tolist()
    free = [x for x, p in enumerate(weights) if p > 0.0 or x == best]
    while True:
        m = len(free)
        if m < 2:
            return None
        rows = channel.take(free, axis=0)
        if dead is not None and rows[:, dead].any():
            return None
        # the column gather's Fortran-ordered copy fixes the BLAS path of h
        rows = rows[:, live]
        h = (rows / q[live]) @ rows.T
        if m > 3:
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = h
            kkt.flat[: m * (m + 2) : m + 2] += 1e-9 * np.trace(h) / m
            kkt[m, m] = 0.0
            rhs = np.zeros(m + 1)
            rhs[:m] = [dl[x] for x in free]
            step = np.linalg.solve(kkt, rhs)[:m].tolist()
        else:
            step = _null_space_step(h.tolist(), [dl[x] for x in free])
        leave = [x for x, s in zip(free, step) if s < 0.0 and weights[x] == 0.0]
        if not leave:
            break
        free = [x for x in free if x not in leave]
    full = [0.0] * len(weights)
    for x, s in zip(free, step):
        full[x] = s
    return np.array(full)


def _null_space_step(h, d):
    # the Newton step on 2 or 3 free letters from the Hessian block h and
    # the divergences d, as Python lists; see _newton_step
    if len(h) == 2:
        (h00, h01), (h10, h11) = h
        mu = 1e-9 * (h00 + h11) / 2
        y = (d[0] - d[1]) / (h00 - h01 - h10 + h11 + 2.0 * mu)
        return [y, -y]
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = h
    mu = 1e-9 * (h00 + h11 + h22) / 3
    g00 = h00 - h02 - h20 + h22 + 2.0 * mu
    g01 = h01 - h02 - h21 + h22 + mu
    g10 = h10 - h12 - h20 + h22 + mu
    g11 = h11 - h12 - h21 + h22 + 2.0 * mu
    r0, r1 = d[0] - d[2], d[1] - d[2]
    # elimination with the larger first-column pivot: Cramer's rule left
    # residuals of 1e-7 relative on channels with near-zero outputs
    if abs(g10) > abs(g00):
        g00, g01, r0, g10, g11, r1 = g10, g11, r1, g00, g01, r0
    ratio = g10 / g00
    y1 = (r1 - ratio * r0) / (g11 - ratio * g01)
    y0 = (r0 - g01 * y1) / g00
    return [y0, y1, -(y0 + y1)]


def _prior_step(prior, value, d, channel, log_channel, target):
    """One iteration of the capacity-prior ascent of I(p) on the simplex
    from ``prior``, whose value is ``value`` and whose divergences
    D(W_x || pW) are ``d``; ``log_channel`` is the floored log of
    ``channel``.

    It takes the Newton step of ``_newton_step``, cut by a ratio test that
    zeroes the letter blocking it and halved until the value rises (or,
    with the value flat to 1e-15, the gap max_x D_x - I(p) shrinks); if no
    Newton step rises, it takes a Frank-Wolfe step toward argmax_x D_x,
    which ascends while that gap is positive.  Returns the moved
    ``(prior, value, d)``, or None when the gap is already below
    ``target`` or neither step rises.
    """
    # the per-letter bookkeeping runs on Python floats: at a few dozen
    # letters numpy's per-call cost outweighs the arithmetic
    dl = d.tolist()
    best = dl.index(max(dl))
    gap = dl[best] - value
    if gap < target:
        return None

    def rise(step, t, blocker=None):
        # halve t until prior + t * step raises the value, or shrinks the
        # gap with the value flat to roundoff: near the optimum the gain,
        # of order gap^2, is below what the value resolves
        for _ in range(50):
            trial = np.maximum(prior + t * step, 0.0)
            if blocker is not None:
                trial[blocker] = 0.0
                blocker = None
            trial = trial / trial.sum()
            d, _ = _row_divergences(trial, channel, log_channel)
            trial_value = float(trial @ d)
            if trial_value > value or (
                trial_value > value - 1e-15 and d.max() - trial_value < gap
            ):
                return trial, trial_value, d
            t *= 0.5
        return None

    moved = None
    step = _newton_step(prior, d, channel, best)
    if step is not None:
        # ratio test: the first letter the step drives to zero, if before t = 1
        ratios = [
            (p / -s, x) for x, (p, s) in enumerate(zip(prior.tolist(), step.tolist())) if s < 0.0
        ]
        t, blocker = min(ratios, default=(1.0, None))
        moved = rise(step, t, blocker) if t < 1.0 else rise(step, 1.0)
    if moved is None:
        toward = -prior
        toward[best] += 1.0
        moved = rise(toward, 1.0)
    return moved


def _capacity_prior(channel: np.ndarray, tol: float, warm: np.ndarray | None = None):
    """Certified best prior of a fixed channel: ``_prior_step`` repeated
    from the uniform prior or from ``warm``.

    ``channel[x, y]`` holds p(y|x).  Warm-start letters at or below 1e-12
    start at exactly zero and re-enter through the free set.  Returns
    ``(prior, value, certified)``: certified when max_x D(W_x || pW) - I(p),
    an upper bound on capacity - value, is below max(tol, 1e-13);
    uncertified when neither step rises or after ``_PRIOR_ITERS``
    iterations.
    """
    x_count = channel.shape[0]
    if warm is None:
        prior = np.full(x_count, 1.0 / x_count)
    else:
        prior = np.where(warm > 1e-12, warm, 0.0)
        prior = prior / prior.sum()
    log_channel = np.log(np.maximum(channel, _LOG_FLOOR))
    target = max(tol, 1e-13)
    d, _ = _row_divergences(prior, channel, log_channel)
    value = float(prior @ d)
    for _ in range(_PRIOR_ITERS):
        moved = _prior_step(prior, value, d, channel, log_channel, target)
        if moved is None:
            break
        prior, value, d = moved
    return prior, value, bool(d.max() - value < target)


def _fixed_prior_information(prior: np.ndarray, channel: np.ndarray, log_channel: np.ndarray):
    # per row of a (R, K) prior stack and (R, K, Y) channel and log-channel
    # stacks: the information, the divergences and the log-ratios they sum
    d, logs = _row_divergences(prior, channel, log_channel)
    return (prior[:, None, :] @ d[:, :, None])[:, 0, 0], d, logs


def _power_restart(povm_stack, states, tol):
    """Every restart in lock-step from an ``(R, K, n)`` stack of states:
    state gradient ascent at fixed prior, where each state move that
    raises the information at fixed prior also advances the prior by one
    ``_prior_step``.  The prior is certified by a full capacity solve
    before the ascent and once more after it, so the values and the
    converged flags (which need that certificate) are those of certified
    priors.  Returns ``_ascend``'s arrays with state ``(states, prior)``."""
    flat = povm_stack.reshape(len(povm_stack), -1)
    target = max(tol, 1e-13)

    def channels(states):
        # the channel of a state stack and its floored log
        channel = _expectations(flat, states)
        return channel, np.log(np.maximum(channel, _LOG_FLOOR))

    def certify(channel, rows, warm):
        # certified capacity prior of the listed rows; the others get -inf
        value, prior = np.full(len(channel), -np.inf), np.empty(channel.shape[:2])
        certified = np.zeros(len(channel), dtype=bool)
        for r in rows:
            prior[r], value[r], certified[r] = _capacity_prior(channel[r], tol, warm[r])
        return value, prior, certified

    def direction(state):
        states, prior, channel, log_channel = state
        fixed_value, _, logs = _fixed_prior_information(prior, channel, log_channel)
        return _weighted_action(flat, logs, states), fixed_value

    def attempt(state, move, step):
        states, prior, _, _ = state
        moved, fixed_value = move
        trial = states + step[:, None, None] * moved
        norms = np.sqrt((np.abs(trial) ** 2).sum(axis=2, keepdims=True))
        trial = trial / np.maximum(norms, _LOG_FLOOR)
        channel, log_channel = channels(trial)
        value, d, _ = _fixed_prior_information(prior, channel, log_channel)
        passed = value > fixed_value
        prior = prior.copy()
        # each kept move takes one iteration of the capacity solve, none
        # when the solve is capped at zero; rows tried at step 0 take none
        for r in np.flatnonzero(passed & (step > 0.0)) if _PRIOR_ITERS else ():
            stepped = _prior_step(
                prior[r], float(value[r]), d[r], channel[r], log_channel[r], target
            )
            if stepped is not None:
                prior[r], value[r], _ = stepped
        value[~passed] = -np.inf
        return value, (trial, prior, channel, log_channel)

    channel, log_channel = channels(states)
    value, prior, _ = certify(channel, range(len(states)), [None] * len(states))
    value, state, sweeps, converged, step = _ascend(
        value, (states, prior, channel, log_channel), direction, attempt, tol
    )
    states, prior, channel, _ = state
    value, prior, certified = certify(channel, np.flatnonzero(np.isfinite(value)), prior)
    return value, (states, prior), sweeps, converged & certified, step


def informational_power_opt(povm: Povm, cfg: OptimizerConfig = OptimizerConfig()) -> InfoResult:
    """Maximize the mutual information of a POVM over input ensembles.

    Pure-state alphabets of n^2 candidates suffice; restart 0 seeds them
    with the leading eigenvectors of (a deterministic spread of) the POVM
    elements, further restarts with Haar states.  The states follow the
    information gradient at fixed prior, and each state move that raises
    the information also advances the prior by one active-set Newton
    iteration toward the capacity of the alphabet.  The prior is solved to
    its capacity certificate at the start and at the end of each restart,
    so the values and the winning restart are those of certified priors,
    and ``converged`` also requires that final certificate.  All restarts
    run in lock-step in the calling thread: the gradient steps are
    stacked, the prior iterations and solves run one restart at a time.
    """
    n = povm.dim
    _checks.integer(n, "dimension", 1, MAX_OPT_DIM, DimensionTooLargeError)
    k_cand = n * n
    stack = povm.stack()

    def eigenvector_candidates() -> np.ndarray:
        picks = np.unique(np.linspace(0, len(povm) - 1, k_cand).astype(int))
        vecs = []
        for idx in picks:
            vecs.extend(eig_hermitian(povm.elements[int(idx)])[1].T)
            if len(vecs) >= k_cand:
                break
        vecs += [vecs[0]] * (k_cand - len(vecs))  # POVMs of fewer than n elements
        return np.array(vecs[:k_cand])

    starts = np.stack([eigenvector_candidates()] + [
        _haar_frame(n, cfg.seed, 1000 + r, k_cand) for r in range(1, cfg.restarts)
    ])
    value, (states, prior), sweeps, converged, step = _power_restart(
        stack, starts, cfg.tol
    )
    row, iterations, records = _best_restart("eigenvector", value, sweeps, converged, step)
    states, prior = states[row], prior[row]

    keep = prior > 1e-12
    weights = prior[keep] / prior[keep].sum()
    members = [
        (float(w), pure_state_density(v)) for w, v in zip(weights, states[keep])
    ]
    ensemble = Ensemble(members)
    value = mutual_information(born_joint(ensemble, povm))
    return InfoResult(value, ensemble, iterations, bool(converged[row]), records)


def _neg_symmetric_objective(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # -sum_x w_x eta(u[r, x]) per row of an (R, X) overlap stack
    return -(_eta(u) @ weights)


def _symmetric_descent(sigmas: np.ndarray, weights: np.ndarray, avg_basis: np.ndarray):
    """-min_phi sum_x w_x eta(<phi| sigma_x |phi>) by projected gradient
    descent on the unit sphere from 32 starts: the n basis vectors, the n
    columns of ``avg_basis`` and Haar states (seed 0, stream 2000) for the
    rest, run in lock-step as one stack.  Each row holds its state as a
    (1, n) block, so the kernels multiply every row on its own and a row
    gets the same bits in a stack of any height."""
    n = sigmas.shape[-1]
    flat = sigmas.reshape(len(sigmas), -1)

    def neg_objective(phi: np.ndarray) -> np.ndarray:
        # eta vanishes at and below zero, so the kernel's floor at 0 keeps it
        return _neg_symmetric_objective(_expectations(flat, phi), weights)[:, 0]

    def direction(state):
        (phi,) = state
        coef = weights * (-(np.log(np.maximum(_expectations(flat, phi), _LOG_FLOOR)) + 1.0))
        grad = _weighted_action(flat, coef, phi)
        grad -= np.einsum("rki,rki->rk", phi.conj(), grad)[..., None] * phi  # tangent projection
        return (grad,)

    def attempt(state, move, step):
        trial = state[0] - step[:, None, None] * move[0]
        trial = trial / np.linalg.norm(trial, axis=-1, keepdims=True)
        return neg_objective(trial), (trial,)

    starts = np.concatenate([
        np.eye(n, dtype=complex),
        avg_basis.T,
        _haar_frame(n, 0, 2000, _SYM_STARTS - 2 * n),
    ])
    phi = (starts / np.linalg.norm(starts, axis=1, keepdims=True))[:, None, :]
    return _ascend(neg_objective(phi), (phi,), direction, attempt, 1e-9)[0].max()


def symmetric_upper_bound(ensemble: Ensemble) -> float:
    """Single-state upper bound on the accessible information:
    ln n - n min_phi sum_x w_x eta(<phi| sigma_x |phi>), in nats.

    If every state is diagonal in the eigenbasis U of the average state
    (off-diagonal entries of U^dag sigma_x U at most 1e-12 in absolute
    value), the objective is concave in the probability vector
    |U^dag phi|^2, so the minimum is taken directly over the n columns of
    U; off-diagonal entries within that tolerance move the result by at
    most about 3e-11 * n^2 nats.  Otherwise the minimum over
    normalized pure states is found by projected gradient descent on the
    unit sphere from 32 starts: the n basis vectors, the n columns of U,
    and Haar states (seed 0, stream 2000) for the rest, run in lock-step
    as one stack.  A descent stops after three sweeps in a row that lower
    the objective by less than 1e-9, or after 300 sweeps.  Valid as an
    upper bound for ensembles averaging to the maximally mixed state.
    """
    n = ensemble.dim
    _checks.integer(n, "dimension", 1, MAX_OPT_DIM, DimensionTooLargeError)
    sigmas = np.stack([s.matrix for s in ensemble.states])
    _, avg_basis = eig_hermitian(ensemble.average.op)
    rotated = avg_basis.conj().T @ sigmas @ avg_basis
    if np.abs(rotated[:, ~np.eye(n, dtype=bool)]).max(initial=0.0) <= _DIAGONAL_ATOL:
        diagonal = np.diagonal(rotated, axis1=1, axis2=2).real.T  # (n, X)
        neg_min = _neg_symmetric_objective(diagonal, ensemble.weights).max()
    else:
        neg_min = _symmetric_descent(sigmas, ensemble.weights, avg_basis)
    return math.log(n) + n * neg_min


@dataclass(frozen=True)
class TightnessReport:
    """Gap between the optimized accessible information and its subentropy
    lower bound for a depolarized Haar ensemble."""

    dim: int
    epsilon: float
    ensemble_size: int
    jrw_value: float
    optimized_value: float
    gap: float
    converged: bool


def jrw_tightness_probe(
    n: int,
    epsilon: float,
    ensemble_size: int,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> TightnessReport:
    """Probe tightness of the subentropy lower bound on depolarized Haar
    ensembles: build {D_eps(phi_x)} from Haar samples, optimize the
    accessible information and report the gap to the bound.  The gap is
    expected to shrink as the ensemble grows."""
    n = _checks.integer(n, "probe dimension n", 2, 3)
    epsilon = _checks.real(epsilon, "epsilon", 0.0, 1.0, EpsilonOutOfRangeError)
    ensemble = depolarized_haar_ensemble(n, epsilon, ensemble_size, seed=cfg.seed)
    bound = jrw_lower(ensemble)
    result = accessible_info_opt(ensemble, cfg)
    return TightnessReport(
        dim=n,
        epsilon=epsilon,
        ensemble_size=ensemble_size,
        jrw_value=bound,
        optimized_value=result.value,
        gap=result.value - bound,
        converged=result.converged,
    )


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


def duality_check(povm: Povm, rho_grid, cfg: OptimizerConfig = OptimizerConfig()) -> DualityReport:
    """Verify W(povm) >= A(distorted ensemble) over a grid of states.

    The informational power dominates the accessible information of every
    rho-distorted POVM ensemble, with equality at the maximizing rho; the
    report carries the individual values and the residual gap at the
    grid maximum.
    """
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
