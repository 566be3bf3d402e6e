"""Haar-measure sampling and statistical estimation.

Determinism contract: a state drawn at a given (seed, stream_id, draw
index) is bit-identical across runs, batch sizes and worker counts.
Streams are counter-based (Philox) keyed by (seed, stream_id); estimates
shard the sample budget over consecutive stream ids and combine the
per-shard summaries in a fixed-shape pairwise tree, so the reduction is
independent of scheduling and of the number of workers.  The estimator
reads only the radius uniforms of those same streams: the overlap
|<e1|phi>|^2 of a Haar state is a ratio of squared radii, so no state
vector is built.  A shard draws its states in blocks of a fixed number of
uniforms into buffers it allocates once, so each worker holds a working
set of 0.53-0.71 MiB at every dimension (traced allocations of one
2^14-sample estimate at n = 2..129); the blocks continue one stream, so
estimates do not depend on the block size.  Each overlap's row sum adds
the columns in numpy's pairwise order (``_row_sums``), so it keeps the
bits of ``sum(axis=1)`` without numpy's per-row reduction loop.
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
# uniforms drawn at once by a shard; not part of the layout
_BLOCK_UNIFORMS = 1 << 15


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a 2-D float array into ``out``, bit for bit, as
    column adds.

    numpy sums each row pairwise: fewer than 8 entries in sequence; up to
    128 in 8 accumulators r_j = a_j + a_{j+8} + ..., combined as
    ((r_0 + r_1) + (r_2 + r_3)) + ((r_4 + r_5) + (r_6 + r_7)) and followed
    by the entries past the last full group of 8 in sequence; more as two
    halves split at a multiple of 8.  Its per-row inner loop costs more
    than the adds on the few columns of a Haar shard.
    """
    d = a.shape[1]
    if d > 128:
        half = d // 2 - d // 2 % 8
        rest = _row_sums(a[:, half:], np.empty_like(out))
        return np.add(_row_sums(a[:, :half], out), rest, out=out)
    if d < 8:
        np.copyto(out, a[:, 0])
        done = 1
    else:
        done = d - d % 8
        acc = a[:, :8] if done == 8 else a[:, :8] + a[:, 8:16]
        for g in range(16, done, 8):
            acc += a[:, g : g + 8]
        pairs = acc[:, 0::2] + acc[:, 1::2]
        np.add(pairs[:, 0] + pairs[:, 1], pairs[:, 2] + pairs[:, 3], out=out)
    for k in range(done, d):
        np.add(out, a[:, k], out=out)
    return out


class HaarSampler:
    """Reproducible Haar-distributed pure states of a fixed dimension.

    Complex standard Gaussians are generated by an explicit Box-Muller
    transform of counter-based uniforms (two uniforms per complex entry),
    then normalized.  Each drawn state consumes exactly 2 * dim uniforms,
    so the draw index alone determines the output bits.
    """

    def __init__(self, dim: int, seed: int, stream_id: int = 0):
        self.dim = _checks.integer(dim, "dimension", 1)
        self.seed = _checks.integer(seed, "seed", 0, _checks.SEED_MAX)
        self.stream_id = _checks.integer(stream_id, "stream_id", 0, _checks.SEED_MAX)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def _draw(self, count: int, out=None) -> tuple[np.ndarray, np.ndarray]:
        """ln(1 - u) = -r^2 / 2 of each radius and the angle uniforms of
        the next ``count`` states, each of shape (count, dim).

        The one home of the stream layout: each state consumes 2 * dim
        uniforms, the even columns giving the radii and the odd columns
        the angles.  ``out`` is a pair of C-contiguous float buffers of
        shapes (count, 2 * dim) and (count, dim) that receive the uniforms
        and the log-radii; without it both are allocated.
        """
        if out is None:
            out = np.empty((count, 2 * self.dim)), np.empty((count, self.dim))
        uniforms, log_radius = out
        self._gen.random(out=uniforms)
        np.negative(uniforms[:, 0::2], out=log_radius)
        np.log1p(log_radius, out=log_radius)  # 1 - u in (0, 1]
        return log_radius, uniforms[:, 1::2]

    def _overlaps(self, count: int) -> np.ndarray:
        """|<e1|phi>|^2 of the next ``count`` states, without building them.

        With z_k = r_k e^{i theta_k} the phases cancel, so the overlap is
        r_0^2 / sum_k r_k^2, read here as ln(1 - u_0) / sum_k ln(1 - u_k):
        the factor -2 cancels exactly.  It equals
        ``abs(states(count)[:, 0]) ** 2`` up to rounding and advances the
        stream by the same draws.  The states are drawn in blocks of about ``_BLOCK_UNIFORMS``
        uniforms into uniform, log-radius and row-sum buffers allocated
        once per call, so 2^14 overlaps peak at 0.52-0.70 MiB at every
        dimension; consecutive draws continue one stream and each overlap
        reads only its own row, so the result does not depend on the block
        size.
        """
        out = np.empty(count)
        rows = min(count, max(1, _BLOCK_UNIFORMS // (2 * self.dim)))
        uniforms = np.empty((rows, 2 * self.dim))
        log_radius = np.empty((rows, self.dim))
        total = np.empty(rows)
        for start in range(0, count, rows):
            k = min(rows, count - start)
            block, _ = self._draw(k, (uniforms[:k], log_radius[:k]))
            np.divide(block[:, 0], _row_sums(block, total[:k]), out=out[start : start + k])
        return out

    def states(self, count: int) -> np.ndarray:
        """Draw ``count`` unit-norm state vectors, shape (count, dim)."""
        count = _checks.integer(count, "count", 1)
        log_radius, angle_u = self._draw(count)
        radius = np.sqrt(-2.0 * log_radius)
        angle = 2.0 * np.pi * angle_u
        z = radius * (np.cos(angle) + 1j * np.sin(angle))
        norms = np.sqrt(_row_sums(np.abs(z) ** 2, np.empty(count)))
        return z / norms[:, None]

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

    Unbiased estimator ln n - n * mean(eta((b-a) |<e1|phi>|^2 + a)) over
    Haar states phi, with a = (1-eps)/n, b = eps + a and eta(x) = -x ln x.
    The fixed reference state e1 is justified by unitary invariance of the
    Haar measure.  ``sampler`` provides the (seed, stream_id) base,
    (0, 0) by default; shard i of 2^14 samples draws from stream_id
    base + i, consuming the same uniforms as ``HaarSampler.states`` but
    reading only their radius columns: |<e1|phi>|^2 = r_0^2 / sum_k r_k^2,
    so no state vector is built and the determinism contract is unchanged.
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
        sub = HaarSampler(n, sampler.seed, sampler.stream_id + i)
        vals = _eta(c * sub._overlaps(shard_counts[i]) + a)
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
