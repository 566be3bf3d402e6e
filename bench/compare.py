"""Compare two sets of benchmark results.

    python3 bench/compare.py bench/baseline bench/out

Each argument is a result record written by ``run.py`` or a directory of
them.  For every workload and metric present in both sets this prints
each side's median and quartiles, the pair wins of the second set over
the first (runs paired in seed order, ties counting for neither) and a
verdict:

* ``improved``: the second set wins at least nine tenths of the pairs and
  its median is better by more than the first set's quartile spread;
* ``worse``: for a gated end-to-end metric, a median worse than the
  first by more than both the metric's bound in ``BENCHMARK.json`` and
  the first set's quartile spread; for a per-layer metric, the improved
  rule with the sides swapped;
* ``unresolved``: a gated metric that is not worse but whose run-to-run
  spread (quartile distance over median) is wider than its bound, unless
  every run of the second set reads better than every run of the first;
  a per-layer metric whose medians differ by more than the spread without
  either side winning nine tenths of the pairs;
* ``unchanged`` otherwise.

The exit code is 1 if any gated end-to-end metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        data = json.loads(f.read_text())
        if isinstance(data, dict) and "metrics" in data and "workload" in data:
            records.append(data)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> tuple[str, int, int]:
    """Verdict of ``b`` against ``a``, with the pair wins of each side."""
    sign = 1.0 if better == "higher" else -1.0
    wins_b = wins_a = 0
    for x, y in zip(a, b):
        if sign * (y - x) > 0:
            wins_b += 1
        elif sign * (y - x) < 0:
            wins_a += 1
    pairs = min(len(a), len(b))
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    spread = qa3 - qa1
    gain = sign * (mb - ma)
    if pairs and wins_b >= 0.9 * pairs and gain > spread:
        return "improved", wins_b, wins_a
    if bound is None:
        if pairs and wins_a >= 0.9 * pairs and -gain > spread:
            return "worse", wins_b, wins_a
        return ("unchanged" if abs(gain) <= spread else "unresolved"), wins_b, wins_a
    if -gain > max(bound * abs(ma), spread):
        return "worse", wins_b, wins_a
    if spread > bound * abs(ma):
        all_better = min(sign * y for y in b) > max(sign * x for x in a)
        return ("unchanged" if all_better else "unresolved"), wins_b, wins_a
    return "unchanged", wins_b, wins_a


def compare(first: list[dict], second: list[dict], spec: dict) -> tuple[list[list], bool]:
    gated = {m["name"]: m for m in spec["end_to_end"]}
    layered = {m["name"]: m for m in spec["per_layer"]}
    rows, regressed = [], False
    groups = sorted({(r["workload"], r["trace"]) for r in first} & {(r["workload"], r["trace"]) for r in second})
    for workload, trace in groups:
        a_runs = sorted((r for r in first if (r["workload"], r["trace"]) == (workload, trace)), key=lambda r: r["seed"])
        b_runs = sorted((r for r in second if (r["workload"], r["trace"]) == (workload, trace)), key=lambda r: r["seed"])
        names = [n for n in a_runs[0]["metrics"] if n in b_runs[0]["metrics"]]
        for name in names:
            meta = gated.get(name) or layered.get(name) or {"better": "lower"}
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            verdict_, wins_b, wins_a = verdict(a, b, meta["better"], meta.get("bound"))
            regressed |= name in gated and verdict_ == "worse"
            rows.append([workload, name, len(a), *quartiles(a), len(b), *quartiles(b),
                         f"{wins_b}-{wins_a}", verdict_])
    return rows, regressed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("first", type=Path, help="results of the parent (a record or a directory)")
    p.add_argument("second", type=Path, help="results of the change")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows, regressed = compare(load_records(args.first), load_records(args.second), spec)
    if not rows:
        print("no workload and metric in common", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':40s} {'n':>3s} {'q1':>11s} {'median':>11s} {'q3':>11s}"
          f" {'n':>3s} {'q1':>11s} {'median':>11s} {'q3':>11s} {'wins':>6s}  verdict")
    for w, name, na, a1, am, a3, nb, b1, bm, b3, wins, v in rows:
        print(f"{w:14s} {name:40s} {na:3d} {a1:11.5g} {am:11.5g} {a3:11.5g}"
              f" {nb:3d} {b1:11.5g} {bm:11.5g} {b3:11.5g} {wins:>6s}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
