"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and wall-clock budget and prints
one ``criterion N PASS`` line (visible with ``pytest -s``).  Purity grids
are restricted to the feasible range [1/n, 1]; combinations below 1/n are
skipped as outside the domain of every operation involved.
"""

import math
import time

import numpy as np

from infopurity import (
    Ensemble,
    HaarSampler,
    OptimizerConfig,
    accessible_info_opt,
    harmonic_tail,
    holevo_upper,
    jrw_lower,
    jrw_tightness_probe,
    max_accessible_information,
    max_subentropy_at_purity,
    mc_min_power_estimate,
    min_informational_power,
    min_power_haar_integral,
    optimal_commuting_ensemble,
    purity_for_epsilon,
    subentropy,
    subentropy_depolarized,
    extremal_renyi_at_purity,
)
from infopurity.cli import curve_csv_text

from _oracles import (
    random_density_matrix,
    renyi_extrema_grid_3,
    sample_fixed_purity_spectra,
    subentropy_depolarized_derivative_form,
)

EPS_GRID = [round(0.1 * k, 1) for k in range(1, 11)]  # 0.1 .. 1.0


def report(num: int, elapsed: float, budget: float, detail: str):
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s / budget {budget:g}s): {detail}")
    assert elapsed < budget


def test_criterion_01_curve_endpoints():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 9):
        worst = max(
            worst,
            abs(min_informational_power(n, 1.0).value - (math.log(n) - harmonic_tail(n))),
            abs(max_accessible_information(n, 1.0).value - math.log(n)),
            abs(min_informational_power(n, 1.0 / n).value),
            abs(max_accessible_information(n, 1.0 / n).value),
        )
    assert worst < 1e-12
    report(1, time.time() - t0, 1.0, f"endpoint reproduction, worst dev {worst:.1e}")


def test_criterion_02_dual_derivation_identity():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 7):
        for eps in EPS_GRID:
            direct = min_informational_power(n, purity_for_epsilon(n, eps)).value
            integral = min_power_haar_integral(n, eps)
            worst = max(worst, abs(direct - integral))
    assert worst < 1e-10
    report(2, time.time() - t0, 1.0, f"two formula routes agree, worst dev {worst:.1e}")


def test_criterion_03_derivative_form_cross_check():
    t0 = time.time()
    worst_corr = 0.0
    worst_val = 0.0
    for n in range(2, 7):
        for eps in EPS_GRID:
            value, corr = subentropy_depolarized_derivative_form(n, eps)
            worst_corr = max(worst_corr, abs(corr))
            worst_val = max(worst_val, abs(value - subentropy_depolarized(n, eps)))
    assert worst_corr < 1e-12
    assert worst_val < 1e-10
    report(
        3,
        time.time() - t0,
        1.0,
        f"unit-trace correction {worst_corr:.1e}, route agreement {worst_val:.1e}",
    )


def test_criterion_04_monte_carlo_tightness():
    # at n >= 16, 2.5e6 samples keep se below 2e-3 (2.8e-3 at n = 64,
    # eps = 1 with 10^6); all fifteen estimates take about 0.7 s on one
    # thread of a 2-vCPU box
    t0 = time.time()
    worst_z = 0.0
    worst_se = 0.0
    rows = ((2, 10**6), (3, 10**6), (16, 2_500_000), (32, 2_500_000), (64, 2_500_000))
    for n, samples in rows:
        for eps in (0.3, 0.7, 1.0):
            est = mc_min_power_estimate(n, eps, samples, HaarSampler(n, seed=3))
            analytic = min_informational_power(n, purity_for_epsilon(n, eps)).value
            z = abs(est.mean - analytic) / est.std_error
            worst_z = max(worst_z, z)
            worst_se = max(worst_se, est.std_error)
            assert z < 3.0, (n, eps, z)
            assert est.std_error < 2e-3
    report(
        4,
        time.time() - t0,
        30.0,
        f"n = 2..64 estimates, worst |z| {worst_z:.2f}, worst se {worst_se:.1e}",
    )


def test_criterion_05_max_info_attainment():
    t0 = time.time()
    worst = 0.0
    cases = []
    for n in (2, 3):
        for p in (0.4, 0.6, 0.9):
            if p < 1.0 / n:
                continue  # purity below 1/n is not a valid constraint
            cases.append((n, p))
    for n, p in cases:
        ensemble = optimal_commuting_ensemble(n, p)
        value = accessible_info_opt(ensemble).value
        target = max_accessible_information(n, p).value
        worst = max(worst, abs(value - target))
        assert abs(value - target) < 1e-4
    report(
        5,
        time.time() - t0,
        60.0,
        f"optimizer attains the curve on {len(cases)} commuting cases, worst dev {worst:.1e}",
    )


def test_criterion_06_bound_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    def random_ensemble(n, size):
        w = rng.dirichlet(np.ones(size))
        return Ensemble([(w[k], random_density_matrix(n, rng)) for k in range(size)])

    worst_lo = worst_hi = math.inf
    for n, size, trials in ((2, 4, 200), (3, 5, 100)):
        for _ in range(trials):
            e = random_ensemble(n, size)
            lo, hi = jrw_lower(e), holevo_upper(e)
            v = accessible_info_opt(e).value
            worst_lo = min(worst_lo, v - lo)
            worst_hi = min(worst_hi, hi - v)
            assert lo - 1e-6 <= v <= hi + 1e-6
    report(
        6,
        time.time() - t0,
        300.0,
        f"300 random ensembles, min margins above/below ({worst_lo:.1e}, {worst_hi:.1e})",
    )


def test_criterion_07_extremal_renyi_vs_grid():
    t0 = time.time()
    worst = 0.0
    for p in (0.4, 0.5, 0.7):
        for alpha in (0.5, 2.0, 1.0):  # 1.0 takes the Shannon-limit branch
            gmin, gmax = renyi_extrema_grid_3(p, alpha)
            lmin = extremal_renyi_at_purity(3, p, alpha, "min").value
            lmax = extremal_renyi_at_purity(3, p, alpha, "max").value
            worst = max(worst, abs(gmin - lmin), abs(gmax - lmax))
            assert abs(gmin - lmin) < 1e-3
            assert abs(gmax - lmax) < 1e-3
            if alpha == 2.0:
                assert abs(lmin + math.log(p)) < 1e-12
                assert abs(lmax + math.log(p)) < 1e-12
    report(7, time.time() - t0, 120.0, f"closed form vs simplex grid, worst dev {worst:.1e}")


def test_criterion_08_max_subentropy_dominance():
    t0 = time.time()
    rng = np.random.default_rng(77)
    checked = 0
    worst_margin = math.inf
    for n in (2, 3, 4):
        for p in (0.4, 0.6, 0.8):
            if p < 1.0 / n:
                continue
            bound = max_subentropy_at_purity(n, p).value
            spectra = sample_fixed_purity_spectra(n, p, 10**4, rng)
            for lam in spectra:
                q = subentropy(lam / lam.sum())
                worst_margin = min(worst_margin, bound - q)
                checked += 1
            assert worst_margin >= -1e-9
    report(
        8,
        time.time() - t0,
        120.0,
        f"{checked} sampled spectra dominated, min margin {worst_margin:.1e}",
    )


def test_criterion_09_depolarized_scrooge_jrw_tightness():
    t0 = time.time()
    gaps = []
    for eps in (0.7, 1.0):
        rep = jrw_tightness_probe(2, eps, 1000, OptimizerConfig(seed=7))
        gaps.append(rep.gap)
        assert abs(rep.gap) < 0.02
    report(
        9,
        time.time() - t0,
        300.0,
        f"1000-state Haar ensembles, gaps {gaps[0]:.4f} / {gaps[1]:.4f}",
    )


def test_criterion_10_curve_reproduction():
    t0 = time.time()
    for n in (2, 3, 4):
        rows = [
            line.split(",") for line in curve_csv_text(n, 512).splitlines()[1:]
        ]
        q = np.array([float(r[3]) for r in rows])
        s = np.array([float(r[4]) for r in rows])
        assert np.all(np.diff(q) >= 0.0)
        assert np.all(np.diff(s) >= 0.0)
        assert np.all(q <= s)
        # value continuity across every kink P = 1/k (modulus h |ln h|)
        h = 1e-10
        for k in range(2, n + 1):
            above = max_accessible_information(n, 1.0 / k + h).value
            at = max_accessible_information(n, 1.0 / k).value
            assert abs(above - at) < 1e-8
            if k < n:
                below = max_accessible_information(n, 1.0 / k - h).value
                assert abs(at - below) < 1e-8
    report(10, time.time() - t0, 1.0, "512-row curves monotone, ordered, kink-continuous")
