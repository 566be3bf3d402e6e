"""The lower curve above n = 8.

Above n = 8 the depolarized subentropy runs the integral of
``subentropy`` at every eps, and the binomial sum is never reached: its
cancellation costs 5e-10 in Q at n = 9 just above its switch
eps_s = 0.2/(n + 0.2) and 8e-8 at n = 12, and from n = 16 its value
leaves the range of Q.  The grid straddles eps_s and spans eps up to
0.95.  Above n = 1024 the lower curve raises before any work."""

import math
import time

import pytest

from infopurity import (
    DimensionTooLargeError,
    epsilon_for_purity,
    max_subentropy_at_purity,
    min_informational_power,
    purity_for_epsilon,
    subentropy_depolarized,
)
from infopurity import entropy

from _oracles import depolarized_subentropy_oracle, min_power_oracle

DIMENSIONS = [9, 10, 12, 16, 24, 32, 64]


def _epsilons(n):
    switch = 0.2 / (n + 0.2)
    return [f * switch for f in (1.001, 1.05, 1.5)] + [0.05, 0.1, 0.3, 0.49, 0.7, 0.95]


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_matches_oracle_above_n8(n):
    for eps in _epsilons(n):
        assert abs(subentropy_depolarized(n, eps) - depolarized_subentropy_oracle(n, eps)) <= 1e-15
        purity = purity_for_epsilon(n, eps)
        want = min_power_oracle(n, epsilon_for_purity(n, purity))
        assert abs(min_informational_power(n, purity).value - want) <= 1e-9 * want


def test_binomial_sum_runs_only_up_to_n8(monkeypatch):
    seen = []
    terms = entropy._binomial_terms

    def recorder(n):
        seen.append(n)
        return terms(n)

    monkeypatch.setattr(entropy, "_binomial_terms", recorder)
    for n in [*range(2, 9), *DIMENSIONS, 256, 1024]:
        for eps in [*_epsilons(n), 1.0]:
            subentropy_depolarized(n, eps)
            max_subentropy_at_purity(n, purity_for_epsilon(n, eps))
            min_informational_power(n, purity_for_epsilon(n, eps))
    # the recorder sees the binomial sum at n = 2..8, so it is wired in
    assert sorted(set(seen)) == list(range(2, 9))


@pytest.mark.parametrize("n", [128, 1024])
def test_finite_up_to_n1024(n):
    top = math.log(n) - entropy._table(n).tail
    for eps in (1e-6, 0.01, 0.5, 1.0):
        q = subentropy_depolarized(n, eps)
        assert 0.0 <= q <= top
        assert 0.0 <= min_informational_power(n, purity_for_epsilon(n, eps)).value <= top


@pytest.mark.parametrize(
    "call",
    [
        lambda: min_informational_power(1025, 0.5),
        lambda: subentropy_depolarized(1025, 1e-5),
        lambda: max_subentropy_at_purity(10**5, 0.5),
    ],
    ids=["min-power", "subentropy", "subentropy-max-n1e5"],
)
def test_above_n1024_raises_at_once(call):
    start = time.perf_counter()
    with pytest.raises(DimensionTooLargeError):
        call()
    assert time.perf_counter() - start < 0.1
