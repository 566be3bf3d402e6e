import math
import os
import tracemalloc

import numpy as np
import pytest

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

from _oracles import haar_overlaps_from_states, mc_min_power_from_states


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

    def test_worker_count_invariance(self):
        values = {
            mc_min_power_estimate(2, 1.0, 60_000, HaarSampler(2, 3), threads=k).mean
            for k in (1, 2, 3, 5)
        }
        assert len(values) == 1

    @staticmethod
    def _record_workers(monkeypatch):
        requested = []

        class Recording(montecarlo.ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        return requested

    def _estimate(self, threads):
        samples = 3 * montecarlo.SHARD_SIZE
        return mc_min_power_estimate(2, 0.6, samples, HaarSampler(2, 4), threads=threads)

    def test_threads_is_a_cap(self, monkeypatch):
        # at most one worker per shard and per usable CPU, whatever is asked for
        requested = self._record_workers(monkeypatch)
        capped = self._estimate(10**6)
        single = self._estimate(1)
        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert requested == [min(3, usable), 1]
        assert capped.mean == single.mean

    def test_cap_counts_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU (taskset, a cpuset) gets one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        requested = self._record_workers(monkeypatch)
        self._estimate(8)
        assert requested == [1]

    def test_cap_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        requested = self._record_workers(monkeypatch)
        for cpus in (None, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            self._estimate(8)
        assert requested == [1, 2]

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
    """The shard reads |<e1|phi>|^2 from the radius uniforms alone; it must
    agree with the full-state kernel and never fall back to it."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_full_state_kernel(self, n):
        for seed, stream, count in [(0, 0, 4096), (3, 7, 999), (42, 1, 1)]:
            fast = HaarSampler(n, seed, stream)._overlaps(count)
            ref = haar_overlaps_from_states(n, seed, stream, count)
            assert fast.shape == ref.shape == (count,)
            assert np.max(np.abs(fast - ref) / ref) <= 4e-15

    def test_advances_the_stream_like_states(self):
        whole = HaarSampler(3, seed=9, stream_id=2).states(20)
        s = HaarSampler(3, seed=9, stream_id=2)
        head = s._overlaps(7)
        assert np.array_equal(s.states(13), whole[7:])
        assert np.max(np.abs(head - np.abs(whole[:7, 0]) ** 2)) <= 4e-15 * head.max()

    @pytest.mark.parametrize(
        "n, eps, samples, seed, stream",
        [
            (2, 0.7, 3 * montecarlo.SHARD_SIZE + 1234, 3, 0),
            (5, 0.4, montecarlo.SHARD_SIZE + 1, 11, 5),
            (8, 1.0, 20_000, 0, 2),
        ],
    )
    def test_estimate_matches_full_state_kernel(self, n, eps, samples, seed, stream):
        mean, std_error = mc_min_power_from_states(n, eps, samples, seed, stream)
        for threads in (1, 2):
            est = mc_min_power_estimate(
                n, eps, samples, HaarSampler(n, seed, stream), threads=threads
            )
            assert est.samples == samples
            assert abs(est.mean - mean) <= 1e-14
            assert abs(est.std_error - std_error) <= 1e-14

    def test_never_builds_states(self, monkeypatch):
        def refuse(self, count):
            raise AssertionError("the estimator built state vectors")

        monkeypatch.setattr(HaarSampler, "states", refuse)
        samples = 2 * montecarlo.SHARD_SIZE + 5
        values = {
            mc_min_power_estimate(3, 0.5, samples, HaarSampler(3, 1), threads=k).mean
            for k in (1, 2)
        }
        assert len(values) == 1


def _block(n):
    return max(1, montecarlo._BLOCK_UNIFORMS // (2 * n))


# (mean, std_error) of mc_min_power_estimate(n, 0.5, 2 * SHARD_SIZE + 777,
# HaarSampler(n, 20 + n)) as float.hex, recorded before shards were blocked
GOLDEN = {
    2: ("0x1.63e9a580e1b80p-5", "0x1.026e732c6ac4fp-11"),
    3: ("0x1.ef3d1c1e9bfe0p-5", "0x1.643f96d2f7b58p-12"),
    4: ("0x1.204aa808d2fc0p-4", "0x1.794ae5e341dbap-11"),
    5: ("0x1.38c5bc4f0d710p-4", "0x1.2c645ab3cf4e0p-10"),
    6: ("0x1.47b0924e64300p-4", "0x1.92aaf5141bdecp-10"),
    7: ("0x1.5d9c3ed4c60b0p-4", "0x1.ef75468f67bdep-10"),
    8: ("0x1.5d94c2f9e64d0p-4", "0x1.220cfb0afbef0p-9"),
}


class TestBlockedOverlaps:
    """A shard draws its states in blocks of a fixed number of uniforms; the
    overlaps, the stream position and the estimates keep every bit."""

    @pytest.mark.parametrize("n", [*range(2, 9), 16, 64])
    def test_equals_one_draw(self, n):
        b = _block(n)
        for count in (1, b - 1, b, b + 1, 3 * b + 7, 16384):
            radius_sq, _ = HaarSampler(n, 5, 3)._draw(count)
            whole = radius_sq[:, 0] / radius_sq.sum(axis=1)
            blocked = HaarSampler(n, 5, 3)._overlaps(count)
            assert blocked.shape == (count,)
            assert np.array_equal(blocked, whole), (n, count)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_leaves_the_stream_where_one_draw_does(self, n):
        count = 3 * _block(n) + 7
        drawn = HaarSampler(n, 2, 9)
        drawn._draw(count)
        blocked = HaarSampler(n, 2, 9)
        blocked._overlaps(count)
        assert np.array_equal(blocked.states(5), drawn.states(5))

    @pytest.mark.parametrize("block_uniforms", [1, 7, 1000, 1 << 20])
    def test_block_size_does_not_matter(self, monkeypatch, block_uniforms):
        n, count = 3, 2 * montecarlo.SHARD_SIZE + 777
        ref_overlaps = HaarSampler(n, 1, 4)._overlaps(1234)
        ref = mc_min_power_estimate(n, 0.5, count, HaarSampler(n, 23))
        monkeypatch.setattr(montecarlo, "_BLOCK_UNIFORMS", block_uniforms)
        assert np.array_equal(HaarSampler(n, 1, 4)._overlaps(1234), ref_overlaps)
        est = mc_min_power_estimate(n, 0.5, count, HaarSampler(n, 23), threads=2)
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("threads", [1, 2])
    def test_golden_estimates(self, n, threads):
        est = mc_min_power_estimate(
            n, 0.5, 2 * montecarlo.SHARD_SIZE + 777, HaarSampler(n, 20 + n), threads=threads
        )
        mean, std_error = GOLDEN[n]
        assert est.mean == float.fromhex(mean)
        assert est.std_error == float.fromhex(std_error)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_shard_working_set_does_not_grow_with_n(self, n):
        # one 16384-sample shard peaked at 1, 4 and 16 MiB before blocking
        mc_min_power_estimate(n, 0.5, 16384, threads=1)
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mc_min_power_estimate(n, 0.5, 16384, threads=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not outer:
                tracemalloc.stop()
        assert peak <= 1.25 * 2**20


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
