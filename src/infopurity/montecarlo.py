"""Haar-measure sampling and statistical estimation.

Determinism contract: a state drawn at a given (seed, stream_id, draw
index) is bit-identical across runs, batch sizes and worker counts.
Streams are counter-based (Philox) keyed by (seed, stream_id); estimates
shard the sample budget over consecutive stream ids and combine the
per-shard summaries in a fixed-shape pairwise tree, so the reduction is
independent of scheduling and of the number of workers.  The estimator
needs only the overlap t = |<e1|phi>|^2 of a Haar state, which follows
the Beta(1, n - 1) law: shard i draws one uniform per sample from stream
base + i and maps it through the inverse CDF, so no state vector is
built and the cost per sample does not depend on n.  ``states()``
draws 2 * dim uniforms per state from the same streams; the estimator
does not call it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _checks
from .entropy import _eta
from .errors import EpsilonOutOfRangeError, ValidationError

# samples per shard; part of the fixed stream layout
SHARD_SIZE = 1 << 14


class HaarSampler:
    """Reproducible Haar-distributed pure states of a fixed dimension.

    Complex standard Gaussians are generated by an explicit Box-Muller
    transform of counter-based uniforms (two uniforms per complex entry,
    the even columns giving the radii and the odd columns the angles),
    then normalized.  Each drawn state consumes exactly 2 * dim uniforms,
    so the draw index alone determines the output bits.
    """

    def __init__(self, dim: int, seed: int, stream_id: int = 0):
        self.dim = _checks.integer(dim, "dimension", 1)
        self.seed = _checks.integer(seed, "seed", 0, _checks.SEED_MAX)
        self.stream_id = _checks.integer(stream_id, "stream_id", 0, _checks.SEED_MAX)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def states(self, count: int) -> np.ndarray:
        """Draw ``count`` unit-norm state vectors, shape (count, dim)."""
        count = _checks.integer(count, "count", 1)
        u = self._gen.random((count, 2 * self.dim))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))  # 1 - u in (0, 1]
        angle = 2.0 * np.pi * u[:, 1::2]
        z = radius * (np.cos(angle) + 1j * np.sin(angle))
        return z / np.sqrt((np.abs(z) ** 2).sum(axis=1, keepdims=True))

    def state(self) -> np.ndarray:
        """Draw a single unit-norm state vector."""
        return self.states(1)[0]

    def __repr__(self) -> str:
        return (
            f"HaarSampler(dim={self.dim}, seed={self.seed}, "
            f"stream_id={self.stream_id})"
        )


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error, both in nats."""

    mean: float
    std_error: float
    samples: int


def _combine(s1, s2):
    # Chan's pairwise update of (count, mean, M2) summaries
    n1, m1, sq1 = s1
    n2, m2, sq2 = s2
    n = n1 + n2
    delta = m2 - m1
    return (n, m1 + delta * n2 / n, sq1 + sq2 + delta * delta * n1 * n2 / n)


def _tree_reduce(summaries):
    while len(summaries) > 1:
        nxt = [
            _combine(summaries[i], summaries[i + 1])
            for i in range(0, len(summaries) - 1, 2)
        ]
        if len(summaries) % 2:
            nxt.append(summaries[-1])
        summaries = nxt
    return summaries[0]


def mc_min_power_estimate(
    n: int,
    epsilon: float,
    samples: int,
    sampler: HaarSampler | None = None,
    *,
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of the minimum-informational-power curve.

    Unbiased estimator ln n - n * mean(eta((b-a) t + a)) of t = |<e1|phi>|^2
    over Haar states phi, with a = (1-eps)/n, b = eps + a and
    eta(x) = -x ln x.  The fixed reference state e1 is justified by unitary
    invariance of the Haar measure, and t follows the Beta(1, n - 1) law.
    ``sampler`` provides the (seed, stream_id) base, (0, 0) by default;
    shard i of 2^14 samples draws one uniform u per sample, in one call,
    from stream_id base + i and takes t = 1 - (1 - u)^(1/(n-1)), computed
    as -expm1(log1p(-u) / (n - 1)); no state vector is built.
    ``threads`` caps the worker threads, which are also at most one per
    shard and one per CPU this process may run on; the result does not
    depend on it.
    """
    n = _checks.integer(n, "dimension n", 2)
    epsilon = _checks.real(epsilon, "epsilon", 0.0, 1.0, EpsilonOutOfRangeError)
    samples = _checks.integer(samples, "samples", 1000)
    threads = _checks.integer(threads, "threads", 1)
    if sampler is None:
        sampler = HaarSampler(n, 0)
    if sampler.dim != n:
        raise ValidationError(f"sampler dim {sampler.dim} != n {n}")

    a = (1.0 - epsilon) / n
    c = epsilon
    shard_counts = [SHARD_SIZE] * (samples // SHARD_SIZE)
    if samples % SHARD_SIZE:
        shard_counts.append(samples % SHARD_SIZE)

    def run_shard(i: int):
        u = HaarSampler(n, sampler.seed, sampler.stream_id + i)._gen.random(shard_counts[i])
        # t = -expm1(log1p(-u) / (n - 1)) inverts the Beta(1, n - 1) CDF
        vals = _eta(c * -np.expm1(np.log1p(-u) / (n - 1)) + a)
        mean = float(vals.mean())
        sq = float(((vals - mean) ** 2).sum())
        return (len(vals), mean, sq)

    if hasattr(os, "sched_getaffinity"):  # honours taskset and cpusets
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(threads, len(shard_counts), cpus)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        summaries = list(pool.map(run_shard, range(len(shard_counts))))

    total, mean, sq = _tree_reduce(summaries)
    estimate = math.log(n) - n * mean
    std_error = n * math.sqrt(sq / (total - 1) / total)
    return McEstimate(mean=estimate, std_error=std_error, samples=total)
