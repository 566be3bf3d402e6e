"""The lock-step ascent behind the three optimizers.

``_ascend`` runs every restart of an optimizer as one row of a stack.
Each row keeps its own step and convergence state, so it must take
exactly the trials that the one-restart-at-a-time loop in ``_oracles``
takes on that row alone: the tests below record each lock-step call,
replay its rows through the scalar loop and compare sweeps, flags, final
steps and values.  They also cover the infeasible-row path, the zero
padding of the spectral restart and the per-restart records.  Commuting
ensembles take the certified exits of ``accessible_info_opt`` and
``symmetric_upper_bound`` before any ascent, so their rows are driven
through the see-saw and descent routines directly.
"""

import math
import warnings

import numpy as np
import pytest

from infopurity import (
    Ensemble,
    InfoResult,
    OptimizerConfig,
    ValidationError,
    accessible_info_opt,
    depolarized_scrooge_povm,
    eig_hermitian,
    informational_power_opt,
    optimal_commuting_ensemble,
)
from infopurity.infomeasures import (
    _best_restart,
    _see_saw_accessible,
    _see_saw_restarts,
    _symmetric_descent,
    _symmetrize_vectors,
)
from infopurity.montecarlo import HaarSampler

from _oracles import ascend_scalar, best_restart_scalar, random_density_matrix


def random_ensemble(n, size, rng):
    weights = rng.dirichlet(np.ones(size))
    return Ensemble([(w, random_density_matrix(n, rng)) for w in weights])


def _row(parts, r):
    return tuple(part[r] for part in parts)


def _one_row_stack(parts):
    return tuple(part[None] for part in parts)


def replay_rows(call):
    """Run each row of a recorded lock-step call through the scalar loop,
    with the stacked callbacks applied to a stack of that one row."""
    value, state, direction, attempt, tol, _ = call

    def direction_1(s):
        return _row(direction(_one_row_stack(s)), 0)

    def attempt_1(s, move, step):
        v, trial = attempt(_one_row_stack(s), _one_row_stack(move), np.array([step]))
        return (float(v[0]), _row(trial, 0)) if np.isfinite(v[0]) else None

    runs = []
    for r in range(value.size):
        if np.isfinite(value[r]):
            runs.append(ascend_scalar(float(value[r]), _row(state, r), direction_1, attempt_1, tol))
        else:
            runs.append((-math.inf, None, 0, False, 1.0))
    return runs


def assert_rows_match(call):
    value, _, sweeps, converged, step = call[-1]
    runs = replay_rows(call)
    for r, run in enumerate(runs):
        assert sweeps[r] == run[2], f"row {r}"
        assert converged[r] == run[3], f"row {r}"
        assert step[r] == run[4], f"row {r}"
        if run[1] is None:
            assert value[r] == -math.inf
        else:
            assert value[r] == pytest.approx(run[0], abs=1e-13), f"row {r}"
    row, total, _ = _best_restart("haar", value, sweeps, converged, step)
    assert (row, total) == best_restart_scalar(runs)


@pytest.mark.parametrize("n, size, seed", [(2, 3, 1), (2, 5, 2), (3, 4, 3), (3, 6, 4), (4, 5, 5)])
def test_see_saw_rows_match_scalar(calls, n, size, seed):
    accessible_info_opt(random_ensemble(n, size, np.random.default_rng(seed)))
    assert len(calls) == 1
    assert_rows_match(calls[0])


@pytest.mark.parametrize(
    "ensemble",
    [
        optimal_commuting_ensemble(2, 0.7),
        optimal_commuting_ensemble(3, 0.5),
        random_ensemble(3, 4, np.random.default_rng(6)),
    ],
    ids=["commuting-2", "commuting-3", "random-3"],
)
def test_symmetric_bound_rows_match_scalar(calls, ensemble):
    sigmas = np.stack([s.matrix for s in ensemble.states])
    _, avg_basis = eig_hermitian(ensemble.average.op)
    _symmetric_descent(sigmas, ensemble.weights, avg_basis)
    assert len(calls) == 1
    assert calls[0][0].size == 32
    assert_rows_match(calls[0])


@pytest.mark.parametrize("args", [(2, 0.9, 16, 5), (3, 0.9, 27, 7)])
def test_power_rows_match_scalar(calls, args):
    informational_power_opt(depolarized_scrooge_povm(*args))
    assert len(calls) == 1
    assert_rows_match(calls[0])


def _haar_frames(n, streams):
    return np.stack([HaarSampler(n, 0, stream_id=s).states(n * n) for s in streams])


def test_rank_deficient_row_is_dropped():
    ensemble = random_ensemble(3, 4, np.random.default_rng(7))
    rhos, weights = ensemble.sub_normalized(), ensemble.weights
    good = _haar_frames(3, (1, 2))
    bad = np.repeat(good[0, :1], 9, axis=0)  # every vector equal: S has rank one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _, sweeps, converged, step = _see_saw_accessible(
            rhos, weights, np.stack([good[0], bad, good[1]]), 1e-9
        )
    alone = _see_saw_accessible(rhos, weights, good, 1e-9)
    assert value[1] == -math.inf
    assert (sweeps[1], converged[1], step[1]) == (0, False, 1.0)
    assert value[[0, 2]] == pytest.approx(alone[0], abs=1e-13)
    assert sweeps[[0, 2]].tolist() == alone[2].tolist()
    assert converged[[0, 2]].tolist() == alone[3].tolist()
    row, total, records = _best_restart("haar", value, sweeps, converged, step)
    assert row != 1
    assert total == alone[2].sum()
    assert records[1].value == -math.inf


def test_all_rows_rank_deficient_raises():
    ensemble = random_ensemble(2, 3, np.random.default_rng(8))
    vec = HaarSampler(2, 0, stream_id=1).state()
    starts = np.stack([np.tile(vec, (4, 1)), np.tile(1j * vec, (4, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _see_saw_accessible(ensemble.sub_normalized(), ensemble.weights, starts, 1e-9)
    value, _, sweeps, converged, step = run
    with pytest.raises(ValidationError, match="optimizer failed to produce a feasible start"):
        _best_restart("haar", value, sweeps, converged, step)


@pytest.mark.parametrize("n, purity", [(2, 0.7), (3, 0.5), (4, 0.4)])
def test_spectral_restart_keeps_n_outcomes(calls, n, purity):
    ensemble = optimal_commuting_ensemble(n, purity)
    _, avg_basis = eig_hermitian(ensemble.average.op)
    best, _, _, records = _see_saw_restarts(ensemble, avg_basis, OptimizerConfig())
    values = [rec.value for rec in records]
    assert values.index(max(values)) == 0  # the spectral restart wins
    assert len(best) == n
    vecs = calls[0][-1][1][0]
    assert vecs.shape[1] == n * n
    assert not vecs[0, n:].any()  # the padding stays exactly zero
    assert len(accessible_info_opt(ensemble).argmax) == n


def test_haar_restart_win_keeps_n_squared_outcomes():
    # restart 2 beats the spectral restart by 4.6e-6 nats on this input
    ensemble = random_ensemble(2, 3, np.random.default_rng(27))
    res = accessible_info_opt(ensemble)
    values = [rec.value for rec in res.restarts]
    assert values.index(max(values)) > 0  # a Haar restart wins
    assert len(res.argmax) == 4


def test_symmetrize_matches_eig_hermitian():
    vecs = _haar_frames(3, (1, 2, 3))
    out, feasible = _symmetrize_vectors(vecs)
    assert feasible.all()
    for r in range(len(vecs)):
        s = vecs[r].T @ vecs[r].conj()
        spec, basis = eig_hermitian(s)
        inv_sqrt = (basis * (1.0 / np.sqrt(spec.values))) @ basis.conj().T
        assert np.allclose(out[r], vecs[r] @ inv_sqrt.T, rtol=0.0, atol=1e-12)
        frame = out[r].T @ out[r].conj()
        assert np.allclose(frame, np.eye(3), rtol=0.0, atol=1e-12)


def test_restart_records():
    cfg = OptimizerConfig(restarts=3)
    ensemble = random_ensemble(2, 4, np.random.default_rng(12))
    povm = depolarized_scrooge_povm(2, 0.9, 16, 5)
    for res, first in (
        (accessible_info_opt(ensemble, cfg), "spectral"),
        (informational_power_opt(povm, cfg), "eigenvector"),
    ):
        assert [rec.kind for rec in res.restarts] == [first, "haar", "haar"]
        assert sum(rec.sweeps for rec in res.restarts) == res.iterations
        values = [rec.value for rec in res.restarts]
        best = res.restarts[values.index(max(values))]
        assert best.converged == res.converged
        assert best.value == pytest.approx(res.value, abs=1e-9)
        assert all(0.0 < rec.step <= 1e3 for rec in res.restarts)


def test_restarts_default_empty():
    assert InfoResult(value=0.0, argmax=None, iterations=0, converged=True).restarts == ()
