"""The benchmark's three workloads: input pools, items and their checks.

Each workload is a closed loop with a single client: the next item starts
only after the previous one has finished and been checked.  An item's
class (dimension, ensemble size, POVM count, ...) is fixed by its position
in the workload's cycle; only its random content comes from the run seed.
A different seed therefore changes the inputs but not the item mix.

Every item calls the library only through the stable public API: the
top-level ``infopurity`` names, ``infopurity.fileio`` and
``infopurity.cli.main(argv)`` run in-process.  ``trace_items`` is the
fixed number of leading pool items the traced run covers.  Names are looked up on the
module at call time, so the tracer's wrappers (and a test's deliberate
corruption) take effect.  ``run(spec, tmp)`` writes its files under the
scratch directory ``tmp`` and returns ``None`` for a verified item, or a
one-line description of the failed check.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import infopurity as ip
from infopurity import cli, fileio


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _fields(text: str) -> dict[str, str]:
    """``key: value`` lines of a CLI report."""
    pairs = (line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return {k.strip(): v.strip() for k, v in pairs}


# --------------------------------------------------------------------------
# sandwich: exact bounds around the accessible-information see-saw


def _random_density(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


class Sandwich:
    name = "sandwich"
    why = (
        "criterion-6 bound sandwich: ~150 tiny eigensolves per item in a sequential "
        "see-saw; operators and infomeasures busy, fileio and montecarlo idle"
    )
    # Random ensembles of n >= 3 have a heavy-tailed see-saw cost, so a run
    # holds only six of them (one per 72-item stretch) and the throughput
    # stays steady.  The commuting n = 4 items, nearly constant in cost, are
    # the slowest common class: the tail percentile falls among them.
    cycle = tuple(
        item
        for heavy in (("random", 3, 3), ("random", 3, 4), ("random", 4, 3),
                      ("random", 3, 5), ("random", 3, 6), ("random", 4, 5))
        for block in range(6)
        for item in ((heavy,) if block == 0 else (("random", 2, 3),)) + (
            ("commuting", 4), ("random", 2, 4), ("random", 2, 5), ("commuting", 2),
            ("random", 2, 6), ("random", 2, 3), ("commuting", 4), ("random", 2, 4),
            ("random", 2, 5), ("commuting", 3), ("random", 2, 6),
        )
    )
    pool_size = 3 * 432
    trace_items = 432  # one cycle

    def spec(self, rng, cls) -> dict:
        kind, n = cls[0], cls[1]
        if kind == "commuting":
            # one purity per grid cell of (1/n, 1], jittered by the seed
            cell = int(rng.integers(8))
            purity = 1.0 / n + (1.0 - 1.0 / n) * (cell + rng.uniform(0.05, 1.0)) / 8
            return {"label": f"commuting-n{n}", "kind": kind, "n": n,
                    "purity": min(purity, 1.0)}
        size = cls[2]
        return {
            "label": f"random-n{n}-k{size}",
            "kind": kind,
            "n": n,
            "weights": rng.dirichlet(np.ones(size)),
            "states": [_random_density(rng, n) for _ in range(size)],
        }

    def run(self, spec: dict, tmp: str) -> str | None:
        n = spec["n"]
        if spec["kind"] == "commuting":
            ensemble = ip.optimal_commuting_ensemble(n, spec["purity"])
        else:
            ensemble = ip.Ensemble(list(zip(spec["weights"], spec["states"])))
        lo, hi = ip.jrw_lower(ensemble), ip.holevo_upper(ensemble)
        v = ip.accessible_info_opt(ensemble).value
        if not lo - 1e-6 <= v <= hi + 1e-6:
            return f"accessible info {v!r} outside [{lo!r}, {hi!r}]"
        if spec["kind"] == "commuting":
            sym = ip.symmetric_upper_bound(ensemble)
            curve = ip.max_accessible_information(n, spec["purity"]).value
            if abs(v - curve) >= 1e-4:
                return f"accessible info {v!r} differs from the curve {curve!r}"
            if v > sym + 1e-6:
                return f"accessible info {v!r} above the symmetric bound {sym!r}"
        return None


# --------------------------------------------------------------------------
# scrooge-power: large POVM stacks through fileio and the capacity prior


class ScroogePower:
    name = "scrooge-power"
    why = (
        "Scrooge POVMs of 16 to 256 elements: per-element validation, fileio text "
        "and the capacity prior; never enters the accessible-info see-saw"
    )
    # Optimizer cost varies by about a third between POVMs of one class and a
    # run holds only ~45 items, so the classes are laid out for steady order
    # statistics: three in four items are (2, 64), which hold both the median
    # and the tail percentile; as many cheaper (2, 16) items sit below them as
    # dearer n = 3 and 256-element items sit above.  Counts stop at 256 and
    # start above n^2, where the cost is most erratic.
    cycle = (
        (2, 64), (2, 16), (2, 64), (2, 64), (3, 27), (2, 64), (2, 64), (2, 64),
        (2, 64), (2, 16), (2, 64), (2, 64), (2, 256), (2, 64), (2, 64), (2, 64),
        (2, 64), (2, 16), (2, 64), (2, 64), (3, 81), (2, 64), (2, 64), (2, 64),
    )
    pool_size = 256
    trace_items = 24  # one cycle

    def spec(self, rng, cls) -> dict:
        n, count = cls
        return {
            "label": f"n{n}-count{count}",
            "n": n,
            "count": count,
            "epsilon": float(rng.uniform(0.8, 0.95)),
            "seed": int(rng.integers(2**31)),
        }

    def run(self, spec: dict, tmp: str) -> str | None:
        n = spec["n"]
        povm = ip.depolarized_scrooge_povm(n, spec["epsilon"], spec["count"], spec["seed"])
        path = os.path.join(tmp, "scrooge-povm.json")
        fileio.save_povm(path, povm)
        code, text = _run_cli(["optimize-power", "--povm", path])
        if code != 0:
            return f"optimize-power exited {code}"
        report = _fields(text)
        value = float(report["value"])
        floor = ip.min_informational_power(n, min(ip.purity(e) for e in povm.elements)).value
        if not floor - 1e-6 <= value <= math.log(n) + 1e-9:
            return f"informational power {value!r} outside [{floor!r}, ln {n}]"
        ensemble = fileio.load_ensemble(report["ensemble written"])
        again = ip.mutual_information(ip.born_joint(ensemble, povm))
        if abs(again - value) > 1e-9:
            return f"reloaded ensemble gives {again!r}, optimizer printed {value!r}"
        return None


# --------------------------------------------------------------------------
# curve-mc: closed forms, subentropy and the Haar Monte Carlo


class CurveMc:
    name = "curve-mc"
    why = (
        "both closed-form curves, subentropy maxima and the threaded Haar Monte Carlo "
        "for n = 2..8; the eigensolver and the optimizers never run"
    )
    cycle = tuple(range(2, 9))
    pool_size = 512
    trace_items = 210  # thirty cycles
    points = 500
    spectra = 250
    haar_checks = 20
    mc_samples = 4 * 16384
    mc_threads = 2

    def spec(self, rng, n) -> dict:
        return {
            "label": f"n{n}",
            "n": n,
            "spectra": rng.dirichlet(np.ones(n), size=self.spectra),
            "haar_eps": rng.uniform(0.05, 1.0, size=self.haar_checks if n <= 6 else 0),
            "mc_eps": float(rng.uniform(0.1, 1.0)),
            "mc_seed": int(rng.integers(2**31)),
        }

    def run(self, spec: dict, tmp: str) -> str | None:
        return self.check_curve(spec, tmp) or self.check_mc(spec, self.mc_threads)

    def check_curve(self, spec: dict, tmp: str) -> str | None:
        n = spec["n"]
        path = os.path.join(tmp, "curve.csv")
        code, _ = _run_cli(["curve", "--n", str(n), "--points", str(self.points), "--out", path])
        if code != 0:
            return f"curve exited {code}"
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if len(rows) != self.points:
            return f"curve has {len(rows)} rows, expected {self.points}"
        q = [float(r[3]) for r in rows]
        s = [float(r[4]) for r in rows]
        if any(b < a for a, b in zip(q, q[1:])) or any(b < a for a, b in zip(s, s[1:])):
            return "curve is not monotone in purity"
        if any(qi > si for qi, si in zip(q, s)):
            return "min-power curve exceeds max-accessible curve"
        ends = (rows[0][3], rows[0][4], rows[-1][3], rows[-1][4])
        exact = ("0.000000", "0.000000",
                 f"{math.log(n) - ip.harmonic_tail(n):.6f}", f"{math.log(n):.6f}")
        if ends != exact:
            return f"curve endpoints {ends} differ from {exact}"
        for eps in spec["haar_eps"]:
            eps = float(eps)
            direct = ip.min_informational_power(n, ip.purity_for_epsilon(n, eps)).value
            integral = ip.min_power_haar_integral(n, eps)
            if abs(direct - integral) >= 1e-10:
                return f"Haar integral {integral!r} differs from closed form {direct!r}"
        for lam in spec["spectra"]:
            margin = ip.max_subentropy_at_purity(n, float(lam @ lam)).value - ip.subentropy(lam)
            if margin < -1e-9:
                return f"subentropy exceeds its purity maximum by {-margin:.3e}"
        return None

    def check_mc(self, spec: dict, threads: int) -> str | None:
        code, text = _run_cli([
            "mc-scrooge", "--n", str(spec["n"]), "--epsilon", repr(spec["mc_eps"]),
            "--samples", str(self.mc_samples), "--seed", str(spec["mc_seed"]),
            "--threads", str(threads),
        ])
        if code != 0:
            return f"mc-scrooge exited {code}"
        z = float(_fields(text)["z"])
        if not abs(z) < 5.0:
            return f"Monte Carlo estimate off the curve by z = {z}"
        return None


WORKLOADS = {w.name: w for w in (Sandwich(), ScroogePower(), CurveMc())}


def make_pool(workload, seed: int) -> list[dict]:
    """The run's inputs: ``pool_size`` items cycling through the workload's
    classes, their content drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    cycle = workload.cycle
    return [workload.spec(rng, cycle[i % len(cycle)]) for i in range(workload.pool_size)]
