"""The certified capacity prior behind ``informational_power_opt``.

``_capacity_prior(channel, tol, warm)`` returns the best input prior of a
fixed channel ``channel[x, y] = p(y|x)`` with a certificate: the gap
max_x D(W_x || pW) - I(p) bounds the capacity minus the returned value
from above.  Closed-form capacities pin the value; the Blahut-Arimoto
reference in ``_oracles`` is a floor the solver must always reach.  The
Newton step as first written, also in ``_oracles``, must agree with every
step of the solver bit for bit.
"""

import math

import numpy as np
import pytest

from infopurity import depolarized_scrooge_povm, informational_power_opt
from infopurity import infomeasures
from infopurity.infomeasures import _capacity_prior, _newton_step

from _oracles import _joint_information, blahut_arimoto_prior, newton_step_reference

LN2 = math.log(2.0)


def _entropy(*probs) -> float:
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def _bsc(p):
    return [[1.0 - p, p], [p, 1.0 - p]]


def _symmetric(k, delta):
    w = np.full((k, k), delta / (k - 1))
    np.fill_diagonal(w, 1.0 - delta)
    return w


def _gap(channel, prior):
    # max_x D(W_x || q) - I(p), summed over the nonzero entries only
    q = prior @ channel
    d = [
        sum(w * math.log(w / qy) for w, qy in zip(row, q) if w > 0.0)
        for row in channel
    ]
    return max(d) - float(prior @ np.array(d))


CLOSED_FORM = [
    *[
        pytest.param(_bsc(p), LN2 - _entropy(p, 1.0 - p), id=f"bsc-{p}")
        for p in (0.0, 0.01, 0.11, 0.3, 0.5)
    ],
    *[
        pytest.param(
            [[1.0, 0.0], [p, 1.0 - p]],
            math.log(1.0 + (1.0 - p) * p ** (p / (1.0 - p))),
            id=f"z-{p}",
        )
        for p in (0.1, 0.5, 0.9)
    ],
    *[
        pytest.param([[1.0 - e, 0.0, e], [0.0, 1.0 - e, e]], (1.0 - e) * LN2, id=f"erasure-{e}")
        for e in (0.0, 0.25, 0.9)
    ],
    pytest.param(
        _symmetric(4, 0.3),
        math.log(4.0) - _entropy(0.7, 0.1, 0.1, 0.1),
        id="4-ary-symmetric",
    ),
    # duplicated rows make the Newton system singular
    pytest.param(
        _bsc(0.11)[:1] * 2 + _bsc(0.11)[1:] * 3,
        LN2 - _entropy(0.11, 0.89),
        id="duplicated-rows",
    ),
    # mixtures of the two BSC rows never carry weight: rank 2, four letters
    pytest.param(
        _bsc(0.2) + [[0.5, 0.5], [0.62, 0.38]],
        LN2 - _entropy(0.2, 0.8),
        id="rank-deficient",
    ),
]

WARM = [
    # the extinguished letter must re-enter; Blahut-Arimoto stalls here
    pytest.param(
        _symmetric(3, 0.2), [0.5, 0.5, 0.0], math.log(3.0) - _entropy(0.8, 0.1, 0.1),
        id="re-enter",
    ),
    pytest.param(
        _symmetric(3, 0.2), [0.5, 0.5 - 1e-13, 1e-13], math.log(3.0) - _entropy(0.8, 0.1, 0.1),
        id="re-enter-below-floor",
    ),
    # the missing letter alone reaches output 2, where q is zero
    pytest.param(np.eye(3), [0.5, 0.5, 0.0], math.log(3.0), id="re-enter-new-output"),
    pytest.param(_bsc(0.11), [1.0, 0.0], LN2 - _entropy(0.11, 0.89), id="bsc-one-letter"),
]


def _check(channel, capacity, warm=None, tol=1e-9):
    channel = np.asarray(channel, dtype=float)
    warm = None if warm is None else np.asarray(warm, dtype=float)
    prior, value, certified = _capacity_prior(channel, tol, warm)
    assert certified is True
    assert prior.min() >= 0.0
    assert prior.sum() == pytest.approx(1.0, abs=1e-15)
    assert value == pytest.approx(_joint_information(prior[:, None] * channel), abs=1e-14)
    assert _gap(channel, prior) < max(tol, 1e-13) + 1e-14
    assert value == pytest.approx(capacity, abs=1e-10)
    assert value >= blahut_arimoto_prior(channel, tol, warm)[1] - 1e-12


@pytest.mark.parametrize("channel, capacity", CLOSED_FORM)
def test_closed_form_capacity(channel, capacity):
    _check(channel, capacity)


@pytest.mark.parametrize("channel, warm, capacity", WARM)
def test_warm_start_letter_reenters(channel, warm, capacity):
    _check(channel, capacity, warm)


def test_reference_stalls_on_extinguished_letter():
    # the fault the certificate closes: the floored letter gains too little
    # per iteration, so the fixed point stops far below the capacity
    capacity = math.log(3.0) - _entropy(0.8, 0.1, 0.1)
    _, value = blahut_arimoto_prior(_symmetric(3, 0.2), 1e-9, np.array([0.5, 0.5, 0.0]))
    assert value < capacity - 1e-3


@pytest.mark.parametrize("seed", range(5))
def test_never_below_reference_on_random_channels(seed):
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(16, 0.5), size=9)
    warm = rng.dirichlet(np.ones(9))
    warm[rng.choice(9, size=4, replace=False)] = 0.0
    for start in (None, warm / warm.sum()):
        prior, value, certified = _capacity_prior(channel, 1e-9, start)
        assert certified is True
        assert _gap(channel, prior) < 1e-9 + 1e-14
        assert value >= blahut_arimoto_prior(channel, 1e-9, start)[1] - 1e-12


def test_capped_solve_reports_unconverged(monkeypatch):
    povm = depolarized_scrooge_povm(2, 0.9, 16, 5)
    monkeypatch.setattr(infomeasures, "_PRIOR_ITERS", 0)
    res = informational_power_opt(povm)
    assert res.converged is False


def _same(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.tobytes() == b.tobytes()
    )


def _assert_matches_reference(monkeypatch, channel, warm=None, tol=1e-9):
    # every Newton step equals the reference's on the same input, and the
    # solve equals a solve that runs on the reference throughout
    channel = np.asarray(channel, dtype=float)
    warm = None if warm is None else np.asarray(warm, dtype=float)
    calls = []

    def checked(prior, d, channel, best):
        step = _newton_step(prior, d, channel, best)
        assert _same(step, newton_step_reference(prior, d, channel, best))
        calls.append(step is None)
        return step

    monkeypatch.setattr(infomeasures, "_newton_step", checked)
    prior, value, certified = _capacity_prior(channel, tol, warm)
    monkeypatch.setattr(infomeasures, "_newton_step", newton_step_reference)
    ref_prior, ref_value, ref_certified = _capacity_prior(channel, tol, warm)
    assert prior.tobytes() == ref_prior.tobytes()
    assert (value, certified) == (ref_value, ref_certified)
    return calls


@pytest.mark.parametrize(
    "channel, warm",
    [pytest.param(p.values[0], None, id=p.id) for p in CLOSED_FORM]
    + [pytest.param(p.values[0], p.values[1], id=p.id) for p in WARM],
)
def test_newton_step_matches_reference(monkeypatch, channel, warm):
    _assert_matches_reference(monkeypatch, channel, warm)


@pytest.mark.parametrize("letters", [4, 9])
def test_newton_step_matches_reference_on_random_channels(monkeypatch, letters):
    # 500 channels per alphabet size; some have an output only one letter
    # reaches, and warm starts zero some letters (that one included).  At 64
    # outputs the Hessian's BLAS path shows in the last bits: a C-ordered
    # copy of the free rows fails here
    rng = np.random.default_rng(letters)
    calls = []
    for k in range(500):
        channel = rng.dirichlet(np.full(64, 0.5), size=letters)
        warm = None
        if k % 2:
            warm = rng.dirichlet(np.ones(letters))
            warm[rng.choice(letters, size=letters // 2, replace=False)] = 0.0
        if k % 3 == 0:
            channel[1:, -1] = 0.0
            channel /= channel.sum(axis=1, keepdims=True)
            if warm is not None:
                warm[0] = 0.0
        calls += _assert_matches_reference(monkeypatch, channel, warm)
    # both branches ran: Newton steps and refusals
    assert 0 < sum(calls) < len(calls)
