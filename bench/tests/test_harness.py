"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import infopurity as ip  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_bounds_and_predictions():
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert list(tracing.PREDICTIONS) == [m["name"] for m in SPEC["per_layer"]]


def test_names_follow_the_naming_rule():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def _flat(spec: dict) -> list:
    return [np.asarray(v).ravel() for k, v in sorted(spec.items()) if k != "label"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs_not_item_mix(name):
    wl = workloads.WORKLOADS[name]
    a, b, again = (workloads.make_pool(wl, s) for s in (1, 2, 1))
    assert [s["label"] for s in a] == [s["label"] for s in b]
    assert any(
        not all(np.array_equal(x, y) for x, y in zip(_flat(s), _flat(t))) for s, t in zip(a, b)
    )
    assert all(
        all(np.array_equal(x, y) for x, y in zip(_flat(s), _flat(t))) for s, t in zip(a, again)
    )


def _cheapest(name: str) -> dict:
    wl = workloads.WORKLOADS[name]
    pool = workloads.make_pool(wl, 3)
    label = {"sandwich": "random-n2-k3", "scrooge-power": "n2-count16", "curve-mc": "n2"}[name]
    return next(s for s in pool if s["label"] == label)


def _shifted(fn, field):
    def corrupt(*args, **kwargs):
        out = fn(*args, **kwargs)
        return type(out)(**{**out.__dict__, field: out.__dict__[field] + 0.5})
    return corrupt


# one deliberate corruption per workload, each on an output a check reads
CORRUPTIONS = {
    "sandwich": (ip, "accessible_info_opt", "value"),
    "scrooge-power": (ip.cli, "informational_power_opt", "value"),
    "curve-mc": (ip.cli, "mc_min_power_estimate", "mean"),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_output_counts_as_failed(name, monkeypatch, tmp_path):
    wl = workloads.WORKLOADS[name]
    spec = _cheapest(name)
    assert run.run_item(wl, spec, str(tmp_path), 0)[1] is None
    module, attr, field = CORRUPTIONS[name]
    monkeypatch.setattr(module, attr, _shifted(getattr(module, attr), field))
    times, failures, _ = run.run_items(wl, [spec], str(tmp_path), 0.01)
    assert times and len(failures) == len(times)


def test_raising_item_counts_as_failed(monkeypatch, tmp_path):
    wl = workloads.WORKLOADS["sandwich"]

    def boom(*args, **kwargs):
        raise ip.NoConvergenceError("injected")

    monkeypatch.setattr(ip, "jrw_lower", boom)
    _, failures, _ = run.run_items(wl, [_cheapest("sandwich")], str(tmp_path), 0.01)
    assert failures and "NoConvergenceError" in failures[0]["problem"]


def test_tail_is_highest_percentile_with_ten_beyond():
    pct, value = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    pct, value = run.tail([float(v) for v in range(1, 31)])
    assert value == 20.0 and sum(v > value for v in range(1, 31)) == 10


def test_tracer_accounts_for_item_time_and_restores(tmp_path):
    wl = workloads.WORKLOADS["sandwich"]
    spec = _cheapest("sandwich")
    original = ip.operators.eig_hermitian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ip.infomeasures.eig_hermitian is not original
        assert isinstance(ip.DensityOperator(np.eye(2) / 2), ip.DensityOperator)
        _, problem = run.run_item(wl, spec, str(tmp_path), 0, tracer)
    finally:
        tracer.uninstall()
    assert problem is None
    assert ip.infomeasures.eig_hermitian is original
    assert ip.operators.DensityOperator.__init__.__name__ == "__init__"
    assert not hasattr(ip.operators.DensityOperator.__init__, "__wrapped__")
    metrics, summary = tracing.layer_metrics(tracer, 0.0)
    assert summary["items"] == 1
    assert summary["accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["operators.eig_calls_per_item"] > 0
    assert metrics["infomeasures.acc_sweeps_per_item"] > 0
    assert metrics["fileio.bytes_per_item"] == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 1.2 for v in base]
    assert compare.verdict(base, faster, "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 0.7 for v in base], "higher", 0.1)[0] == "worse"
    assert compare.verdict(base, list(reversed(base)), "higher", 0.1)[0] == "unchanged"
    noisy = [1.0, 3.0, 1.5, 2.5, 2.0, 1.0, 3.0, 1.5, 2.5, 2.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    # a wide parent spread must not hide a clear regression
    assert compare.verdict(noisy, [2 * v for v in noisy], "lower", 0.25)[0] == "worse"
    assert compare.verdict(noisy, [v * 1.3 for v in noisy], "lower", 0.25)[0] == "unresolved"
    assert compare.verdict(base, faster, "higher", None)[0] == "improved"


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "curve-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tiny_run_prints_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "curve-mc", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in {**units, "failed_frac": "ratio"}.items():
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}$", proc.stdout, re.M)


def test_traced_run_covers_a_fixed_item_set(monkeypatch, tmp_path):
    wl = workloads.WORKLOADS["sandwich"]
    monkeypatch.setattr(wl, "trace_items", 2)
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = run.parse_args(["--workload", "sandwich", "--seed", "3", "--seconds", "0", "--trace", "1"])
    pool = workloads.make_pool(wl, 3)
    first = run.traced(args, wl, pool, str(tmp_path))
    again = run.traced(args, wl, pool, str(tmp_path))
    assert first[2] == again[2] == 4 and not first[3]
    for name in ("operators.eig_calls_per_item", "infomeasures.acc_sweeps_per_item"):
        assert first[0][name] == again[0][name] > 0
