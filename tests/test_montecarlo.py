import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from infopurity import (
    HaarSampler,
    OptimizerConfig,
    ValidationError,
    depolarized_haar_ensemble,
    jrw_tightness_probe,
    mc_min_power_estimate,
    min_informational_power,
    purity_for_epsilon,
)
from infopurity import montecarlo

from _oracles import (
    haar_overlaps_from_states,
    mc_min_power_from_states,
    mc_min_power_from_uniforms,
)


class TestHaarSampler:
    def test_unit_norm(self):
        states = HaarSampler(4, seed=0).states(200)
        norms = np.abs((states * states.conj()).sum(axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_bitwise_reproducibility(self):
        a = HaarSampler(3, seed=42, stream_id=7).states(50)
        b = HaarSampler(3, seed=42, stream_id=7).states(50)
        assert np.array_equal(a, b)

    def test_batching_does_not_change_the_stream(self):
        whole = HaarSampler(3, seed=9).states(20)
        s = HaarSampler(3, seed=9)
        pieces = np.vstack([s.states(7), s.states(13)])
        assert np.array_equal(whole, pieces)

    def test_streams_differ(self):
        a = HaarSampler(2, seed=1, stream_id=0).state()
        b = HaarSampler(2, seed=1, stream_id=1).state()
        assert not np.allclose(a, b)

    def test_first_moment_is_maximally_mixed(self):
        for n in (2, 3):
            states = HaarSampler(n, seed=5).states(10**5)
            mean_proj = np.einsum("xi,xj->ij", states, states.conj()) / len(states)
            assert np.max(np.abs(mean_proj - np.eye(n) / n)) < 0.01

    def test_second_moment_overlap(self):
        n = 3
        states = HaarSampler(n, seed=6).states(10**5)
        ref = HaarSampler(n, seed=7).state()
        overlaps = np.abs(states @ ref.conj()) ** 2
        se = overlaps.std(ddof=1) / math.sqrt(len(overlaps))
        assert abs(overlaps.mean() - 1.0 / n) < 3 * se


class TestMcEstimate:
    def test_zero_epsilon_is_exact(self):
        est = mc_min_power_estimate(3, 0.0, 10**4, HaarSampler(3, 1))
        assert abs(est.mean) < 1e-13
        assert est.std_error < 1e-15
        assert est.samples == 10**4

    def test_reproducible_to_the_bit(self):
        a = mc_min_power_estimate(2, 0.8, 50_000, HaarSampler(2, 3))
        b = mc_min_power_estimate(2, 0.8, 50_000, HaarSampler(2, 3))
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_three_sigma_consistency(self):
        analytic = min_informational_power(2, purity_for_epsilon(2, 0.7)).value
        bad = 0
        for seed in range(60):
            est = mc_min_power_estimate(2, 0.7, 20_000, HaarSampler(2, seed))
            if abs(est.mean - analytic) > 3 * est.std_error:
                bad += 1
        assert bad <= 2

    def test_reference_state_invariance(self):
        # projecting on a random fixed state instead of e1 moves the mean
        # by less than 3 standard errors
        n, eps, count = 2, 0.7, 200_000
        a = (1 - eps) / n
        ref = HaarSampler(n, seed=100).state()
        phis = HaarSampler(n, seed=3).states(count)
        t = np.abs(phis @ ref.conj()) ** 2
        arg = eps * t + a
        vals = -arg * np.log(arg)
        alt_mean = math.log(n) - n * vals.mean()
        base = mc_min_power_estimate(n, eps, count, HaarSampler(n, 3))
        assert abs(alt_mean - base.mean) < 3 * base.std_error

    def test_input_guards(self):
        with pytest.raises(ValidationError):
            mc_min_power_estimate(2, 0.5, 100, HaarSampler(2, 0))


class TestOverlapShard:
    """A shard draws one uniform per sample and maps it to the Haar overlap
    |<e1|phi>|^2 by the inverse CDF of its Beta(1, n - 1) law; it must agree
    with an independent redraw to roundoff, with real Haar states in law,
    and never build a state."""

    ROWS = [
        (2, 0.7, 3 * montecarlo.SHARD_SIZE + 1234, 3, 0),
        (5, 0.4, montecarlo.SHARD_SIZE + 1, 11, 5),
        (8, 1.0, 20_000, 0, 2),
    ]

    @staticmethod
    def _shard_overlaps(monkeypatch, n, samples, seed):
        # at epsilon = 1 the shard hands eta exactly 1.0 * t + 0.0 = t
        seen = []
        eta = montecarlo._eta

        def record(x):
            seen.append(x.copy())
            return eta(x)

        monkeypatch.setattr(montecarlo, "_eta", record)
        mc_min_power_estimate(n, 1.0, samples, HaarSampler(n, seed))
        return np.concatenate(seen)

    @pytest.mark.parametrize("n", [*range(2, 9), 16, 64])
    def test_matches_full_state_kernel(self, monkeypatch, n):
        # two-sample Kolmogorov-Smirnov test of the shard's overlaps against
        # those of built Haar states on other streams
        fast = self._shard_overlaps(monkeypatch, n, 20_000, 40 + n)
        ref = haar_overlaps_from_states(n, 90 + n, 0, 10_000)
        assert fast.shape == (20_000,) and fast.min() >= 0.0 and fast.max() <= 1.0
        assert stats.ks_2samp(fast, ref).pvalue > 1e-3

    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize("n, eps, samples, seed, stream", ROWS)
    def test_estimate_matches_uniform_oracle(
        self, monkeypatch, n, eps, samples, seed, stream, calls
    ):
        # the shards run in order in the calling thread: starting one fails;
        # a second call on a fresh sampler gives the same estimate again
        def refuse(self):
            raise AssertionError("the estimator started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        mean, std_error = mc_min_power_from_uniforms(n, eps, samples, seed, stream)
        for _ in range(calls):
            est = mc_min_power_estimate(n, eps, samples, HaarSampler(n, seed, stream))
            assert est.samples == samples
            assert abs(est.mean - mean) <= 1e-14
            assert abs(est.std_error - std_error) <= 1e-14

    @pytest.mark.parametrize("n, eps, samples, seed, stream", ROWS)
    def test_estimate_matches_full_state_kernel(self, n, eps, samples, seed, stream):
        mean, std_error = mc_min_power_from_states(n, eps, samples, seed, stream)
        est = mc_min_power_estimate(n, eps, samples, HaarSampler(n, seed, stream))
        assert abs(est.mean - mean) < 4 * math.hypot(est.std_error, std_error)
        assert abs(est.std_error / std_error - 1) < 0.05

    def test_never_builds_states(self, monkeypatch):
        def refuse(self, count):
            raise AssertionError("the estimator built state vectors")

        monkeypatch.setattr(HaarSampler, "states", refuse)
        samples = 2 * montecarlo.SHARD_SIZE + 5
        assert mc_min_power_estimate(3, 0.5, samples, HaarSampler(3, 1)).samples == samples


# (mean, std_error) of mc_min_power_estimate(n, 0.5, 2 * SHARD_SIZE + 777,
# HaarSampler(n, 20 + n)) as float.hex, recorded once each shard drew one
# uniform per sample
GOLDEN = {
    2: ("0x1.609035052e690p-5", "0x1.0206d3461df33p-11"),
    3: ("0x1.f21a6dff649e0p-5", "0x1.66b3cc00f9116p-12"),
    4: ("0x1.2598f4385b330p-4", "0x1.79625b083b2a7p-11"),
    5: ("0x1.38fff2283df40p-4", "0x1.2d7415f74743ap-10"),
    6: ("0x1.49e12bfec1b80p-4", "0x1.94660af90542cp-10"),
    7: ("0x1.5eec10d921350p-4", "0x1.ee367abd57a17p-10"),
    8: ("0x1.78224a830f980p-4", "0x1.1ff1b7597d859p-9"),
}


class TestBlockedOverlaps:
    """Each shard draws its overlaps as one block of at most 2^14 uniforms;
    the estimates keep their bits and the working set does not grow
    with n."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("calls", [1, 2])
    def test_golden_estimates(self, n, calls):
        # every call in a row, each on a fresh sampler, gives the GOLDEN bits:
        # the estimator keeps no state from one call to the next
        mean, std_error = GOLDEN[n]
        for _ in range(calls):
            est = mc_min_power_estimate(
                n, 0.5, 2 * montecarlo.SHARD_SIZE + 777, HaarSampler(n, 20 + n)
            )
            assert est.mean == float.fromhex(mean)
            assert est.std_error == float.fromhex(std_error)

    @pytest.mark.parametrize("n", [2, 8, 32, 1024])
    def test_shard_working_set_does_not_grow_with_n(self, n):
        # one 16384-sample shard peaked at 1, 4 and 16 MiB at n = 2, 8 and
        # 32 when it drew 2n uniforms per sample in one array; with one
        # uniform per sample it peaks at 0.65 MiB at every n
        mc_min_power_estimate(n, 0.5, 16384)
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mc_min_power_estimate(n, 0.5, 16384)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not outer:
                tracemalloc.stop()
        assert peak <= 0.75 * 2**20


class TestTightnessProbe:
    def test_trivial_epsilon_zero(self):
        rep = jrw_tightness_probe(2, 0.0, 64, OptimizerConfig(seed=1, restarts=2))
        assert rep.jrw_value == pytest.approx(0.0, abs=1e-12)
        assert rep.optimized_value == pytest.approx(0.0, abs=1e-9)

    def test_small_scale_gap(self):
        rep = jrw_tightness_probe(2, 1.0, 300, OptimizerConfig(seed=7, restarts=2))
        assert rep.gap >= -1e-9
        assert rep.gap < 0.05

    def test_half_depolarized_thousand_states(self):
        rep = jrw_tightness_probe(2, 0.5, 1000, OptimizerConfig(seed=7, restarts=2))
        assert abs(rep.gap) < 0.02

    def test_dimension_guard(self):
        with pytest.raises(ValidationError):
            jrw_tightness_probe(4, 0.5, 64, OptimizerConfig())


class TestDepolarizedHaarEnsemble:
    def test_members_have_depolarized_purity(self):
        eps = 0.6
        e = depolarized_haar_ensemble(2, eps, 32, seed=2)
        from infopurity import purity

        target = purity_for_epsilon(2, eps)
        for _, state in e.items:
            assert purity(state) == pytest.approx(target, abs=1e-12)
