"""The certified capacity prior behind ``informational_power_opt``.

``_capacity_prior(channel, tol, warm)`` returns the best input prior of a
fixed channel ``channel[x, y] = p(y|x)`` with a certificate: the gap
max_x D(W_x || pW) - I(p) bounds the capacity minus the returned value
from above.  Closed-form capacities pin the value; the Blahut-Arimoto
reference in ``_oracles`` is a floor the solver must always reach.  The
Newton step as first written, also in ``_oracles``, is the step's oracle:
a step that LAPACK solves (four or more free letters) must equal it bit
for bit, and a closed-form step (two or three) must make the same refusal,
have the same support and lie within 1e-12 of it.  The one exception is
the ``rank-deficient`` channel, whose free set is singular up to the
regularisation: there a closed-form step the oracle misses by more than
1e-12 must solve its KKT system to a backward-stable residual.  The solve is
``_prior_step`` repeated; ``informational_power_opt`` runs the full solve
only at the start and end of each restart and one step per kept state
move in between.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopurity import OptimizerConfig, depolarized_scrooge_povm, informational_power_opt
from infopurity import infomeasures
from infopurity.infomeasures import (
    _LOG_FLOOR,
    _capacity_prior,
    _newton_step,
    _null_space_step,
    _prior_step,
    _row_divergences,
)

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


def _repeated_step(channel, tol, warm):
    # the solve written out as _prior_step repeated from the same start
    if warm is None:
        prior = np.full(len(channel), 1.0 / len(channel))
    else:
        prior = np.where(warm > 1e-12, warm, 0.0)
        prior = prior / prior.sum()
    log_channel = np.log(np.maximum(channel, _LOG_FLOOR))
    target = max(tol, 1e-13)
    d, _ = _row_divergences(prior, channel, log_channel)
    value = float(prior @ d)
    for _ in range(infomeasures._PRIOR_ITERS):
        moved = _prior_step(prior, value, d, channel, log_channel, target)
        if moved is None:
            break
        prior, value, d = moved
    return prior, value, bool(d.max() - value < target)


@pytest.mark.parametrize("letters", [2, 4, 9, 27])
def test_repeated_step_is_the_solve(letters):
    # bit for bit, from uniform and from warm starts with zeroed letters
    rng = np.random.default_rng(100 + letters)
    cases = [
        (np.asarray(p.values[0], dtype=float), None) for p in CLOSED_FORM
    ] + [
        (np.asarray(p.values[0], dtype=float), np.asarray(p.values[1], dtype=float))
        for p in WARM
    ]
    for k in range(100):
        channel = rng.dirichlet(np.full(64, 0.5), size=letters)
        warm = rng.dirichlet(np.ones(letters)) if k % 2 else None
        if warm is not None:
            warm[rng.choice(letters, size=letters // 2, replace=False)] = 0.0
        cases.append((channel, warm))
    for channel, warm in cases:
        prior, value, certified = _capacity_prior(channel, 1e-9, warm)
        ref_prior, ref_value, ref_certified = _repeated_step(channel, 1e-9, warm)
        assert prior.tobytes() == ref_prior.tobytes()
        assert (value, certified) == (ref_value, ref_certified)


def test_capped_solve_reports_unconverged(monkeypatch):
    povm = depolarized_scrooge_povm(2, 0.9, 16, 5)
    monkeypatch.setattr(infomeasures, "_PRIOR_ITERS", 0)
    res = informational_power_opt(povm)
    assert res.converged is False


def _same(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.tobytes() == b.tobytes()
    )


def _kkt_residual_ok(h, d, step):
    # (H + mu I) s + lambda 1 = d_F, lambda the least-squares multiplier,
    # to a residual <= 1e-12 (||H + mu I|| ||s|| + ||d_F||)
    h, d, s = np.asarray(h), np.asarray(d), np.asarray(step)
    kkt = h + 1e-9 * np.trace(h) / len(h) * np.eye(len(h))
    multiplier = np.mean(d - kkt @ s)
    residual = np.linalg.norm(kkt @ s + multiplier - d)
    scale = np.linalg.norm(kkt, 2) * np.linalg.norm(s) + np.linalg.norm(d)
    return residual <= 1e-12 * scale


def _assert_matches_reference(monkeypatch, channel, warm=None, tol=1e-9, singular=False):
    # every Newton step agrees with the reference's on the same input: bit
    # for bit when LAPACK solved it, to 1e-12 with the same refusal and
    # support when the closed form did (2.2e-14 measured on the random
    # channels below).  ``singular`` marks a channel whose free set is
    # singular up to mu: a closed-form step there may miss the oracle by
    # more, but must then solve its own KKT system.  The solve stays within
    # 1e-15 in value and 1e-14 in prior of a solve that runs on the
    # reference throughout, with the same certificate.  Returns each
    # step's kind
    channel = np.asarray(channel, dtype=float)
    warm = None if warm is None else np.asarray(warm, dtype=float)
    kinds, closed = [], []
    null_space_step = infomeasures._null_space_step

    def recorded(h, d):
        closed.append((h, d, null_space_step(h, d)))
        return closed[-1][2]

    def checked(prior, d, channel, best):
        closed.clear()
        step = _newton_step(prior, d, channel, best)
        ref = newton_step_reference(prior, d, channel, best)
        if step is None or not closed:
            assert _same(step, ref)
            kinds.append("refused" if step is None else "lapack")
        else:
            assert ref is not None
            assert np.array_equal(np.flatnonzero(step), np.flatnonzero(ref))
            if np.abs(step - ref).max() <= 1e-12:
                kinds.append("closed")
            else:
                # mu alone bounds such a step (8.3e7 on rank-deficient);
                # a 60-digit solve puts both solves about 3e-8 relative off
                assert singular and _kkt_residual_ok(*closed[-1])
                kinds.append("closed-singular")
        return step

    monkeypatch.setattr(infomeasures, "_null_space_step", recorded)
    monkeypatch.setattr(infomeasures, "_newton_step", checked)
    prior, value, certified = _capacity_prior(channel, tol, warm)
    monkeypatch.setattr(infomeasures, "_newton_step", newton_step_reference)
    ref_prior, ref_value, ref_certified = _capacity_prior(channel, tol, warm)
    assert np.abs(prior - ref_prior).max() <= 1e-14
    assert abs(value - ref_value) <= 1e-15
    assert certified == ref_certified
    return kinds


@pytest.mark.parametrize(
    "channel, warm, singular",
    [pytest.param(p.values[0], None, p.id == "rank-deficient", id=p.id) for p in CLOSED_FORM]
    + [pytest.param(p.values[0], p.values[1], False, id=p.id) for p in WARM],
)
def test_newton_step_matches_reference(monkeypatch, channel, warm, singular):
    kinds = _assert_matches_reference(monkeypatch, channel, warm, singular=singular)
    # the exception is still needed there, and only there
    assert ("closed-singular" in kinds) == singular


@pytest.mark.parametrize("letters", [2, 3, 4, 9])
def test_newton_step_matches_reference_on_random_channels(monkeypatch, letters):
    # 500 channels per alphabet size; some have an output only one letter
    # reaches, and warm starts zero some letters (that one included, unless
    # it is the last one left).  At 64 outputs the Hessian's BLAS path
    # shows in the last bits: a C-ordered copy of the free rows fails here
    rng = np.random.default_rng(letters)
    kinds = []
    for k in range(500):
        channel = rng.dirichlet(np.full(64, 0.5), size=letters)
        warm = None
        if k % 2:
            warm = rng.dirichlet(np.ones(letters))
            warm[rng.choice(letters, size=letters // 2, replace=False)] = 0.0
        if k % 3 == 0:
            channel[1:, -1] = 0.0
            channel /= channel.sum(axis=1, keepdims=True)
            if warm is not None and warm[1:].any():
                warm[0] = 0.0
        kinds += _assert_matches_reference(monkeypatch, channel, warm)
    # every branch the alphabet reaches ran; the optimal priors of 9 random
    # letters keep 4 or more of them, so no step there is closed-form
    reached = {
        2: {"refused", "closed"},
        3: {"refused", "closed"},
        4: {"refused", "closed", "lapack"},
        9: {"refused", "lapack"},
    }
    assert set(kinds) == reached[letters]


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(2, 8),
    st.sampled_from([0.02, 0.05, 0.5, 1.0]),
    st.sampled_from(["random", "duplicated", "rank-deficient"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_null_space_step_solves_the_kkt_system(letters, outputs, alpha, rows, warm, seed):
    # the closed form on the Hessian block _newton_step builds: the step
    # sums to exactly zero, since its last entry is minus the sum of the
    # others, and meets (H + mu I) s + lambda 1 = d_F, lambda the
    # least-squares multiplier, to a backward-stable residual
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(outputs, alpha), size=letters)
    if rows == "duplicated":
        channel[-1] = channel[0]
    elif rows == "rank-deficient":
        # the last row mixes rows 0 and 1 (row 0 alone at two letters)
        w = rng.uniform()
        channel[-1] = w * channel[0] + (1.0 - w) * channel[1 % (letters - 1)]
    prior = rng.dirichlet(np.ones(letters))
    if warm:
        # a zero letter stays free as the best one; its outputs may be
        # nearly empty under the others, so its curvature is large
        prior[rng.integers(letters)] = 0.0
        prior = prior / prior.sum()
    d, _ = _row_divergences(prior, channel, np.log(np.maximum(channel, _LOG_FLOOR)))
    q = prior @ channel
    live = q > 0.0
    if (channel[:, ~live] > 0.0).any():
        return  # _newton_step refuses: unbounded curvature
    free = channel[:, live]
    h = (free / q[live]) @ free.T
    step = _null_space_step(h.tolist(), d.tolist())
    assert sum(step) == 0.0
    assert _kkt_residual_ok(h, d, step)


# informational_power_opt on the first cycle of the seed-7 scrooge-power
# bench pool: (n, eps, count, seed) of depolarized_scrooge_povm and the
# value the optimizer returned while it certified the prior after every
# accepted state move
POWER_CYCLE = [
    (2, 0.8937643199907, 64, 1469265226, 0.17428680599706828),
    (2, 0.916352853536779, 16, 1926751966, 0.23552203666382895),
    (2, 0.8337810784985888, 64, 119253154, 0.15256534116132486),
    (2, 0.9310330168094393, 64, 644602188, 0.18214684086241434),
    (3, 0.8007897956848362, 27, 1073283950, 0.2289266467522808),
    (2, 0.9195604143128069, 64, 1763574599, 0.19148617711756655),
    (2, 0.8701902429265581, 64, 1753345572, 0.1671361078998887),
    (2, 0.841763841815116, 64, 650757181, 0.16138567632259157),
    (2, 0.8382304381481187, 64, 2126996169, 0.15564896388271332),
    (2, 0.875682238843693, 16, 955794088, 0.20136560852456653),
    (2, 0.8830246028111739, 64, 1094029749, 0.15967951058944901),
    (2, 0.918899287882063, 64, 2137820580, 0.19966026630517547),
    (2, 0.8933268844161744, 256, 732347575, 0.15843497378777172),
    (2, 0.8322963047353399, 64, 2123775745, 0.1523670367747483),
    (2, 0.8240318050786767, 64, 1841358262, 0.17392958979884174),
    (2, 0.8065913011942075, 64, 1315418783, 0.12822742389840192),
    (2, 0.8053520418160395, 64, 303992514, 0.1497315945362274),
    (2, 0.8699309037987933, 16, 1105715322, 0.20664287602189363),
    (2, 0.9375751659789278, 64, 1768373432, 0.18906856517191076),
    (2, 0.8771176469899271, 64, 1351253092, 0.17561098326672467),
    (3, 0.8745310153090257, 81, 814704260, 0.24216811232656424),
    (2, 0.8017691038313759, 64, 531534247, 0.13947335869766442),
    (2, 0.8288603215977967, 64, 2080950718, 0.15327005216592834),
    (2, 0.8300910085980493, 64, 1486127663, 0.14325737997975502),
]


def test_one_step_per_move_keeps_the_values():
    # a prior certified only before and after the ascent reaches the same
    # optima as one certified after every accepted move
    for n, eps, count, seed, value in POWER_CYCLE:
        res = informational_power_opt(depolarized_scrooge_povm(n, eps, count, seed))
        assert res.value == pytest.approx(value, abs=5e-9)
        assert all(rec.converged for rec in res.restarts)


def test_certified_solves_per_restart(monkeypatch):
    # one certified solve per restart before the ascent and one per
    # feasible restart after it; a solve per accepted move fails this
    solves, ascents = [], []
    solve, ascend = infomeasures._capacity_prior, infomeasures._ascend

    def counted_solve(*args):
        solves.append(len(ascents))
        return solve(*args)

    def counted_ascend(*args):
        ascents.append(len(solves))
        return ascend(*args)

    monkeypatch.setattr(infomeasures, "_capacity_prior", counted_solve)
    monkeypatch.setattr(infomeasures, "_ascend", counted_ascend)
    cfg = OptimizerConfig(restarts=5)
    res = informational_power_opt(depolarized_scrooge_povm(2, 0.85, 64, 6), cfg)
    feasible = sum(np.isfinite(rec.value) for rec in res.restarts)
    assert res.iterations > 100
    assert ascents == [5]
    assert solves == [0] * 5 + [1] * feasible
    assert feasible == 5
