"""The lock-step ascent behind the three optimizers.

``_ascend`` runs every restart of an optimizer as one row of a stack.
Each row keeps its own step and convergence state, so it must take
exactly the trials that the one-restart-at-a-time loop in ``_oracles``
takes on that row alone: the tests below record each lock-step call,
replay its rows through the scalar loop and compare sweeps, flags, final
steps and values.  They also cover the infeasible-row path, the zero
padding of the spectral restart and the per-restart records, and that the
stack keeps its height: rows that are not searching ride along at step 0
and take no capacity-prior step.  Golden pins hold the optimizers'
results to the bit.  Commuting ensembles take the certified exits of
``accessible_info_opt`` and ``symmetric_upper_bound`` before any ascent,
so their rows are driven through the see-saw and descent routines
directly.
"""

import hashlib
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
    symmetric_upper_bound,
)
from infopurity import infomeasures
from infopurity.infomeasures import (
    _ascend,
    _best_restart,
    _haar_frame,
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


def test_prior_steps_only_on_searching_rows(calls, monkeypatch):
    # a row tried at step 0 takes no capacity-prior step: the lock-step run
    # takes as many as its rows replayed alone (solves not counted)
    counted = {"on": True, "steps": 0}
    real_step, real_solve = infomeasures._prior_step, infomeasures._capacity_prior

    def step_spy(*args):
        counted["steps"] += counted["on"]
        return real_step(*args)

    def solve_spy(*args):
        counted["on"] = False
        try:
            return real_solve(*args)
        finally:
            counted["on"] = True

    monkeypatch.setattr(infomeasures, "_prior_step", step_spy)
    monkeypatch.setattr(infomeasures, "_capacity_prior", solve_spy)
    informational_power_opt(depolarized_scrooge_povm(2, 0.9, 16, 5))
    lockstep, counted["steps"] = counted["steps"], 0
    replay_rows(calls[0])
    assert lockstep == counted["steps"] > 0


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


def test_stack_keeps_its_height():
    # rows of a toy ascent (maximize -(x - c)^2 per row) finish at different
    # sweeps; every callback still sees all rows, a row that is not searching
    # is tried at step 0, and each row matches the scalar loop
    centers = np.array([0.5, -2.0, 40.0, 3.0])
    seen = []

    def value_of(x):
        return -((x[:, 0] - centers) ** 2)

    def direction(state):
        assert len(state[0]) == len(centers)
        return ((2.0 * (centers - state[0][:, 0]))[:, None],)

    def attempt(state, move, step):
        assert len(state[0]) == len(move[0]) == len(step) == len(centers)
        seen.append(step.copy())
        trial = state[0] + step[:, None] * move[0]
        return value_of(trial), (trial,)

    start = np.zeros((len(centers), 1))
    start_value = value_of(start)
    start_value[3] = -np.inf  # an infeasible row never searches
    value, _, sweeps, converged, step = _ascend(start_value, (start.copy(),), direction,
                                                attempt, 1e-9)
    assert len(set(sweeps[:3].tolist())) > 1
    assert all(s[3] == 0.0 for s in seen)
    assert any((s == 0.0).any() and (s[:3] > 0.0).any() for s in seen)

    for r in range(3):
        c = centers[r : r + 1]

        def direction_1(s):
            return (2.0 * (c - s[0]),)

        def attempt_1(s, move, step):
            trial = s[0] + step * move[0]
            return float(-((trial - c) ** 2)[0]), (trial,)

        run = ascend_scalar(float(start_value[r]), (start[r],), direction_1, attempt_1, 1e-9)
        assert (value[r], sweeps[r], converged[r], step[r]) == (run[0], *run[2:])
    assert (value[3], sweeps[3], converged[3], step[3]) == (-math.inf, 0, False, 1.0)


def test_haar_frame_is_a_cached_read_only_draw():
    frame = _haar_frame(3, 5, 1001, 9)
    assert frame.tobytes() == HaarSampler(3, 5, stream_id=1001).states(9).tobytes()
    assert _haar_frame(3, 5, 1001, 9) is frame
    with pytest.raises(ValueError):
        frame[0, 0] = 0.0
    for other in (_haar_frame(3, 6, 1001, 9), _haar_frame(3, 5, 1002, 9)):
        assert not np.array_equal(other, frame)
    assert _haar_frame.cache_info().maxsize == 64


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


# Golden bits of the optimizers, recorded before the see-saw state kept its
# logs, rows stopped leaving the lock-step stack and the Haar restart
# frames were cached: any change that moves a value, a sweep count, a
# final step or an argmax byte fails here.
def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _records_pin(records):
    return tuple((r.kind, r.value.hex(), r.step.hex(), r.sweeps, r.converged) for r in records)


def _result_pin(res, *argmax):
    return (res.value.hex(), res.iterations, res.converged, _records_pin(res.restarts),
            _digest(*argmax))


def _acc_pin(n, size, seed):
    res = accessible_info_opt(random_ensemble(n, size, np.random.default_rng(seed)))
    return _result_pin(res, res.argmax.stack())


def _power_pin(args):
    res = informational_power_opt(depolarized_scrooge_povm(*args))
    ens = res.argmax
    return _result_pin(res, ens.weights, np.stack([s.matrix for s in ens.states]))


def _commuting_pin():
    ensemble = optimal_commuting_ensemble(3, 0.5)
    _, avg_basis = eig_hermitian(ensemble.average.op)
    vecs, iterations, converged, records = _see_saw_restarts(
        ensemble, avg_basis, OptimizerConfig()
    )
    return (iterations, converged, _records_pin(records), _digest(vecs))


def _symmetric_pin(calls, n, size, seed):
    bound = symmetric_upper_bound(random_ensemble(n, size, np.random.default_rng(seed)))
    value, _, sweeps, converged, step = calls[-1][-1]
    return (bound.hex(), _digest(value, sweeps, converged, step))


GOLDEN_ACC = {(2, 3, 11): ('0x1.99f77a3aa8822p-3',
              78,
              True,
              (('spectral', '0x1.99f77a3aa8820p-3', '0x1.f03b06f08d4c5p+0', 13, True),
               ('haar', '0x1.99f77a39276e8p-3', '0x1.71f588315c625p+1', 25, True),
               ('haar', '0x1.99f77a3a466d0p-3', '0x1.707e6ec17f7acp+1', 18, True),
               ('haar', '0x1.99f77a39967abp-3', '0x1.50c924b491286p+0', 22, True)),
              '86a6d7e53de5d78b'),
 (2, 5, 12): ('0x1.34539c0299915p-3',
              67,
              True,
              (('spectral', '0x1.34539c028ecb5p-3', '0x1.932ff5a372ce1p+2', 14, True),
               ('haar', '0x1.34539c0249abap-3', '0x1.932ff5a372ce1p+2', 14, True),
               ('haar', '0x1.34539c0299917p-3', '0x1.108dfd17737f1p+2', 16, True),
               ('haar', '0x1.34539c01da42fp-3', '0x1.11a36dd2b5f0bp+2', 23, True)),
              '6dcb80b85b535711'),
 (3, 4, 13): ('0x1.df72129208045p-3',
              269,
              True,
              (('spectral', '0x1.df72129208048p-3', '0x1.c3c6eeb929796p+3', 52, True),
               ('haar', '0x1.df7212706eeb7p-3', '0x1.6c4d35aa91ed7p+2', 66, True),
               ('haar', '0x1.df721282333ecp-3', '0x1.1958a5b982c28p+2', 72, True),
               ('haar', '0x1.df7212674f314p-3', '0x1.6114cbd2fce24p+3', 79, True)),
              'baef1e02c69476e0'),
 (3, 6, 14): ('0x1.a579167962f1bp-3',
              391,
              True,
              (('spectral', '0x1.a4de38b35a429p-3', '0x1.e8762dd12bf9cp+4', 27, True),
               ('haar', '0x1.a579166592449p-3', '0x1.905ee6486e466p+4', 138, True),
               ('haar', '0x1.a579167962f16p-3', '0x1.2cbb24deaacbap+4', 95, True),
               ('haar', '0x1.a579165666a98p-3', '0x1.8ec8f74ec22fcp+4', 131, True)),
              'a2828904d13e6633'),
 (4, 3, 15): ('0x1.c941761b988b6p-3',
              1200,
              False,
              (('spectral', '0x1.c941761b988b3p-3', '0x1.6cf162ed673e3p+2', 300, False),
               ('haar', '0x1.c90da7cd9eedep-3', '0x1.6cf162ed673e6p+2', 300, False),
               ('haar', '0x1.c920b0c63d6d6p-3', '0x1.6cf162ed673e6p+2', 300, False),
               ('haar', '0x1.c8f1b8135c6b0p-3', '0x1.6cf162ed673f8p+2', 300, False)),
              '0ac9bae771d91e0b'),
 (4, 5, 16): ('0x1.a5a05cad8b81ep-3',
              610,
              True,
              (('spectral', '0x1.a5a05cad8b822p-3', '0x1.c592ced7f3a04p+3', 59, True),
               ('haar', '0x1.a5a05ba025e97p-3', '0x1.f8a33a319a47dp+2', 179, True),
               ('haar', '0x1.a5a05c44d39c3p-3', '0x1.9550ba8c098b5p+1', 186, True),
               ('haar', '0x1.a5a05b83ac129p-3', '0x1.faa4e92f0bef8p+2', 186, True)),
              '574f0cd0eaed325c')}
GOLDEN_POWER = {(2, 0.85, 64, 3): ('0x1.50ac104954558p-3',
                    93,
                    True,
                    (('eigenvector', '0x1.50ac10486d98ep-3', '0x1.df0ac32ebf52dp+1', 19, True),
                     ('haar', '0x1.50ac10461cdb9p-3', '0x1.11a36dd2b5f0bp+2', 23, True),
                     ('haar', '0x1.50ac10495455dp-3', '0x1.ce72ea3db37aap+2', 25, True),
                     ('haar', '0x1.50ac10494564bp-3', '0x1.e0f264402b4c6p+1', 26, True)),
                    '9171c390c85383dd'),
 (2, 0.9, 16, 5): ('0x1.8f105d43f6c90p-3',
                   73,
                   True,
                   (('eigenvector', '0x1.8f105d423a095p-3', '0x1.62522f6b49586p+2', 17, True),
                    ('haar', '0x1.8f105d43e7f2ap-3', '0x1.43d519728b931p+1', 21, True),
                    ('haar', '0x1.8f105d3ff05afp-3', '0x1.62522f6b49586p+2', 17, True),
                    ('haar', '0x1.8f105d43f6c80p-3', '0x1.707e6ec17f7abp+1', 18, True)),
                   '677dc14293d6cb53'),
 (3, 0.9, 27, 7): ('0x1.3ef34c2aac081p-2',
                   147,
                   True,
                   (('eigenvector', '0x1.3ef34c2916038p-2', '0x1.e8a4600062ed1p+1', 54, True),
                    ('haar', '0x1.3ef34c2aac097p-2', '0x1.736e1f73fa368p+1', 32, True),
                    ('haar', '0x1.3ef34c29ec3c5p-2', '0x1.736e1f73fa368p+1', 32, True),
                    ('haar', '0x1.3ef34c26cf5fcp-2', '0x1.a6a7f52e8fba8p+1', 29, True)),
                   '83c6e5daf8470095')}
GOLDEN_COMMUTING = (62,
 True,
 (('spectral', '0x1.9f323ecbf984fp-2', '0x1.54484932d2e7ep-48', 3, True),
  ('haar', '0x1.9f323ecbf97e8p-2', '0x1.9e816840b2a80p-2', 21, True),
  ('haar', '0x1.9f323ecbf93c8p-2', '0x1.9e816840b2a80p-2', 21, True),
  ('haar', '0x1.9f323ecbf984ap-2', '0x1.6ad322389d068p-2', 17, True)),
 '13923878edaa57c5')
GOLDEN_SYMMETRIC = {(2, 4, 17): ('0x1.828dab65b222dp-2', '35f0db4397036e05'),
 (3, 5, 18): ('0x1.3a972b7543fdcp-1', 'a12a49241656d01d')}


@pytest.mark.parametrize("case", sorted(GOLDEN_ACC))
def test_golden_bits_accessible(case):
    assert _acc_pin(*case) == GOLDEN_ACC[case]


def test_golden_bits_commuting_spectral_wins():
    pin = _commuting_pin()
    values = [float.fromhex(rec[1]) for rec in pin[2]]
    assert values.index(max(values)) == 0
    assert pin == GOLDEN_COMMUTING


@pytest.mark.parametrize("case", sorted(GOLDEN_POWER))
def test_golden_bits_power(case):
    assert _power_pin(case) == GOLDEN_POWER[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_SYMMETRIC))
def test_golden_bits_symmetric_descent(calls, case):
    assert _symmetric_pin(calls, *case) == GOLDEN_SYMMETRIC[case]
