"""Layered benchmark of the infopurity package.

    python3 bench/run.py --workload sandwich --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop with one client
for ``--seconds`` seconds, checks every item against the library's own
closed forms and bounds, and prints each metric by name and unit.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record, with provenance, goes to ``bench/out/``.  The exit code is 0
only if every item passed its check.

The traced run ignores ``--seconds``: it runs the workload's fixed first
``trace_items`` items, each twice, untraced and with every layer function
wrapped (``tracing.py``), in alternating order, so its counts repeat
exactly for a seed; the ratio of the two times is
``trace.overhead_frac``.  On curve-mc it then re-runs the Monte Carlo of
one cycle of items at one thread, as the single-thread baseline of
``montecarlo.thread_speedup``.

Metric names, units and directions come from ``BENCHMARK.json``.
``INFOPURITY_THREADS`` is removed from the environment, so the CLI's
optimizers run at the library's default thread count whatever the
caller's environment holds.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def spec_units(trace: int) -> dict[str, str]:
    """name -> unit of the metrics a run reports, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load(workload_name: str, seed: int):
    if not (ROOT / "src" / "infopurity" / "__init__.py").is_file():
        raise ImportError("no infopurity package in this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    return workload, workloads.make_pool(workload, seed)


def run_item(workload, spec, tmp, i, tracer=None) -> tuple[float, str | None]:
    """One checked item: its wall seconds and the failed check, if any."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            problem = workload.run(spec, tmp)
        else:
            problem = tracer.root(tracing.ITEM, i, workload.run, spec, tmp)
    except Exception as exc:  # an item that raises counts as failed
        problem = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, problem


def run_items(workload, pool, tmp, seconds: float):
    """Closed loop over the pool for ``seconds``; returns per-item seconds,
    failures and wall."""
    times, failures = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        spec = pool[i % len(pool)]
        seconds_, problem = run_item(workload, spec, tmp, i)
        times.append(seconds_)
        if problem:
            failures.append({"item": i, "label": spec["label"], "problem": problem})
        i += 1
    return times, failures, time.perf_counter() - start


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 items beyond it, and its value."""
    ordered = sorted(times_ms)
    k = max(len(ordered) - 11, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def setup_probe_seconds(args) -> list[float]:
    """Process start to first item (import plus input generation), measured
    from outside on fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


def untraced(args, workload, pool, tmp) -> tuple[dict, dict, int, list]:
    times, failures, wall = run_items(workload, pool, tmp, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_probe_seconds(args)
    ms = [t * 1e3 for t in times]
    pct, tail_ms = tail(ms)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": (len(times) - len(failures)) / wall,
        "item_p50_ms": statistics.median(ms),
        "item_tail_ms": tail_ms,
        "failed_frac": len(failures) / len(times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "tail_percentile": pct,
        "items": len(times),
        "timed_wall_s": wall,
        "setup_probe_s": setups,
        "items_by_label": _by_label(pool, ms),
    }
    return values, extra, len(times), failures


def traced(args, workload, pool, tmp) -> tuple[dict, dict, int, list]:
    # every item runs twice, untraced and traced in alternating order, so the
    # overhead ratio compares the same inputs at the same moment
    tracer = tracing.Tracer()
    plain, timed, failures = [], [], []
    for i, spec in enumerate(pool[:workload.trace_items]):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
            try:
                seconds, problem = run_item(workload, spec, tmp, i, tracer if traced_now else None)
            finally:
                tracer.uninstall()
            (timed if traced_now else plain).append(seconds)
            if problem:
                failures.append({"item": i, "label": spec["label"], "problem": problem})
    if hasattr(workload, "check_mc"):
        tracer.install()
        try:
            for j, spec in enumerate(pool[:len(workload.cycle)]):
                try:
                    problem = tracer.root(tracing.MC_BASELINE, j, workload.check_mc, spec, 1)
                except Exception as exc:  # counted like a failed item
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    failures.append({"item": j, "label": spec["label"], "problem": problem})
        finally:
            tracer.uninstall()
    values, summary = tracing.layer_metrics(tracer, sum(timed) / sum(plain) - 1.0)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracing.write_spans(spans_path, tracer)
    summary["spans_file"] = spans_path.name  # beside the record
    summary["items_by_label"] = _by_label(pool, [t * 1e3 for t in plain])
    return values, summary, len(plain) + len(timed), failures


def _by_label(pool, times_ms: list[float]) -> dict:
    """Count, median and maximum latency of the items of each class."""
    groups: dict[str, list[float]] = {}
    for i, ms in enumerate(times_ms):
        groups.setdefault(pool[i % len(pool)]["label"], []).append(ms)
    return {
        label: {"count": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)}
        for label, v in sorted(groups.items())
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("INFOPURITY_THREADS", None)
    try:
        workload, pool = load(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = traced if args.trace else untraced
        values, extra, attempted, failures = run(args, workload, pool, tmp)

    units = spec_units(args.trace)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "extra": extra,
        "failures": failures[:20],
        "provenance": provenance(args.seed),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {attempted}  failed {len(failures)}")
    for failure in failures[:5]:
        print(f"  FAILED item {failure['item']} ({failure['label']}): {failure['problem']}")
    for name in units:
        print(f"  {name:42s} {values[name]:14.6g} {units[name]}")
    if not args.trace:
        # always 0 on a passing run, so enforced by the exit code, not gated
        print(f"  {'failed_frac':42s} {values['failed_frac']:14.6g} ratio")
        print(f"  item_tail_ms is p{extra['tail_percentile']:.1f} of {extra['items']} items")
    else:
        print(f"  self time accounts for {extra['accounted_frac']:.4f} of item wall time")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
