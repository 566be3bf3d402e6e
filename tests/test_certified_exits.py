"""The certified exits of ``accessible_info_opt`` and ``symmetric_upper_bound``.

Both routines skip their ascent when the input carries a certificate:
the eigenbasis measurement of the average state meets the Holevo bound
within ``tol``, or every state is diagonal in that eigenbasis.  The tests
below check that commuting ensembles in a generic basis take both exits,
that a degenerate average or a non-commuting perturbation falls back to
the ascent, and that the vertex formula agrees with the descent it skips.
"""

import math

import numpy as np
import pytest

from infopurity import (
    Ensemble,
    OptimizerConfig,
    accessible_info_opt,
    eig_hermitian,
    holevo_upper,
    optimal_commuting_ensemble,
    symmetric_upper_bound,
)
from infopurity.infomeasures import _see_saw_restarts, _symmetric_descent

from _oracles import random_hermitian


def haar_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(pairs, v):
    return [(w, v @ s @ v.conj().T) for w, s in pairs]


def rotated_commuting(n, size, seed):
    """Random diagonal states in a Haar basis; the average is non-degenerate."""
    rng = np.random.default_rng(seed)
    v = haar_unitary(n, rng)
    weights = rng.dirichlet(np.ones(size))
    return rotated([(w, np.diag(rng.dirichlet(np.ones(n)))) for w in weights], v)


@pytest.mark.parametrize("n, seed", [(2, 1), (3, 2), (4, 3)])
def test_rotated_commuting_takes_both_exits(calls, n, seed):
    ensemble = Ensemble(rotated_commuting(n, n + 2, seed))
    gaps = np.diff(np.linalg.eigvalsh(ensemble.average.matrix))
    assert gaps.min() > 1e-3  # non-degenerate average
    res = accessible_info_opt(ensemble)
    symmetric_upper_bound(ensemble)
    assert calls == []
    assert (res.iterations, res.converged, len(res.argmax)) == (0, True, n)
    (record,) = res.restarts
    assert (record.kind, record.sweeps, record.converged) == ("spectral", 0, True)
    assert record.value == pytest.approx(res.value, abs=1e-13)
    assert res.value == pytest.approx(holevo_upper(ensemble), abs=1e-12)
    # the see-saw it skips finds nothing better
    _, avg_basis = eig_hermitian(ensemble.average.op)
    _, _, _, records = _see_saw_restarts(ensemble, avg_basis, OptimizerConfig())
    assert max(rec.value for rec in records) <= res.value + 1e-12


@pytest.mark.parametrize("n, purity", [(2, 0.7), (3, 0.5), (4, 0.4)])
def test_degenerate_average_falls_back(calls, n, purity):
    # the average is I/n up to roundoff, so its eigh basis is an arbitrary
    # one, not the rotated common eigenbasis
    base = optimal_commuting_ensemble(n, purity)
    v = haar_unitary(n, np.random.default_rng(7))
    ensemble = Ensemble(rotated([(w, s.matrix) for w, s in base.items], v))
    res = accessible_info_opt(ensemble)
    sym = symmetric_upper_bound(ensemble)
    assert len(calls) == 2  # the see-saw, then the descent
    assert res.iterations > 0 and res.converged
    assert res.value == pytest.approx(holevo_upper(ensemble), abs=1e-6)
    assert sym == pytest.approx(symmetric_upper_bound(base), abs=1e-9)


@pytest.mark.parametrize("n, seed", [(2, 1), (3, 2), (4, 3)])
def test_non_commuting_perturbation(calls, n, seed):
    h = random_hermitian(n, np.random.default_rng(100 + seed))
    h -= np.trace(h) / n * np.eye(n)
    h *= 1e-6 / np.abs(h).max()
    ensemble = Ensemble([(w, s + h) for w, s in rotated_commuting(n, n + 2, seed)])
    symmetric_upper_bound(ensemble)
    assert len(calls) == 1  # off-diagonal entries of 1e-6: the descent runs
    # the Holevo gap this perturbation opens is below the default tol, so the
    # certificate still holds there; a tol below that gap runs the see-saw
    holevo = holevo_upper(ensemble)
    res = accessible_info_opt(ensemble)
    assert res.iterations == 0
    assert 0.0 < holevo - res.value <= 1e-9
    res = accessible_info_opt(ensemble, OptimizerConfig(tol=1e-14))
    assert len(calls) == 2
    assert res.iterations > 0
    assert res.value == pytest.approx(holevo, abs=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_vertex_formula_matches_descent(calls, n, seed):
    ensemble = Ensemble(rotated_commuting(n, 2 * n, seed))
    vertex = symmetric_upper_bound(ensemble)
    assert calls == []
    sigmas = np.stack([s.matrix for s in ensemble.states])
    _, avg_basis = eig_hermitian(ensemble.average.op)
    descent = _symmetric_descent(sigmas, ensemble.weights, avg_basis)
    assert vertex == pytest.approx(math.log(n) + n * descent, abs=1e-12)
