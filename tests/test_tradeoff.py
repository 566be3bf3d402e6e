import math

import numpy as np
import pytest

from infopurity import (
    CountTooSmallError,
    EpsilonOutOfRangeError,
    InvalidKError,
    PurityOutOfRangeError,
    depolarized_scrooge_povm,
    epsilon_for_purity,
    extremal_renyi_at_purity,
    harmonic_tail,
    holevo_upper,
    max_accessible_information,
    max_subentropy_at_purity,
    min_informational_power,
    min_power_haar_integral,
    optimal_commuting_ensemble,
    purity,
    purity_for_epsilon,
    subentropy,
)

from _oracles import min_power_oracle, renyi_extrema_grid_3, sample_fixed_purity_spectra

# frozen reference values, cross-derived below from independent routes
T1_2_075 = 0.0882642699303731  # antiderivative route at eps = sqrt(0.5)
T2_3_04 = 0.1184800782289013  # Holevo bound of the commuting construction
LEMMA2_MIN_SHANNON_3_04 = 0.9801322104392085  # purity-circle grid search


class TestHarmonicTail:
    def test_values(self):
        assert harmonic_tail(1) == 0.0
        assert harmonic_tail(2) == 0.5
        assert harmonic_tail(4) == pytest.approx(0.5 + 1 / 3 + 0.25, abs=1e-15)

    def test_invalid(self):
        with pytest.raises(InvalidKError):
            harmonic_tail(0)

    def test_returns_float(self):
        for k in range(1, 21):
            assert type(harmonic_tail(k)) is float


class TestMinInformationalPower:
    def test_endpoints_exact(self):
        for n in range(2, 9):
            hi = min_informational_power(n, 1.0)
            lo = min_informational_power(n, 1.0 / n)
            assert abs(hi.value - (math.log(n) - harmonic_tail(n))) < 1e-12
            assert abs(lo.value) < 1e-12

    def test_qubit_midpoint(self):
        point = min_informational_power(2, 0.75)
        assert point.value == pytest.approx(T1_2_075, abs=1e-12)
        assert point.value == pytest.approx(
            min_power_haar_integral(2, math.sqrt(0.5)), abs=1e-10
        )
        assert point.params["epsilon"] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_parameter_invariants(self):
        for n in (2, 4, 6):
            for p in np.linspace(1.0 / n, 1.0, 17):
                point = min_informational_power(n, float(p))
                eps, a, b = (point.params[k] for k in ("epsilon", "a", "b"))
                assert eps == pytest.approx(
                    math.sqrt((n * point.purity - 1) / (n - 1)), abs=1e-12
                )
                assert (n - 1) * a + b == pytest.approx(1.0, abs=1e-12)
                assert 0.0 <= point.value <= math.log(n) + 1e-10

    def test_purity_range(self):
        with pytest.raises(PurityOutOfRangeError):
            min_informational_power(3, 0.2)
        with pytest.raises(PurityOutOfRangeError):
            min_informational_power(3, 1.01)


class TestMaxAccessibleInformation:
    def test_endpoints_exact(self):
        for n in range(2, 9):
            assert abs(max_accessible_information(n, 1.0).value - math.log(n)) < 1e-12
            assert abs(max_accessible_information(n, 1.0 / n).value) < 1e-12

    def test_known_value(self):
        assert max_accessible_information(3, 0.4).value == pytest.approx(
            T2_3_04, abs=1e-12
        )

    def test_two_level_constraints(self):
        for n in (2, 3, 5):
            for p in np.linspace(1.0 / n, 1.0, 23):
                point = max_accessible_information(n, float(p))
                m, a, b = (point.params[k] for k in ("m", "a", "b"))
                assert m * a + b == pytest.approx(1.0, abs=1e-12)
                assert m * a * a + b * b == pytest.approx(point.purity, abs=1e-10)

    def test_value_continuity_at_kinks(self):
        # the curve behaves like b ln(b) near a kink, so the continuity
        # modulus is h |ln h|; h = 1e-10 keeps that below the 1e-8 gate
        h = 1e-10
        for n in (2, 3, 4, 5, 6):
            for k in range(2, n + 1):
                at = max_accessible_information(n, 1.0 / k).value
                above = max_accessible_information(n, 1.0 / k + h).value
                assert abs(above - at) < 1e-8
                if k < n:
                    below = max_accessible_information(n, 1.0 / k - h).value
                    assert abs(above - below) < 1e-8
                # value at the kink is ln(n) - ln(k)
                assert at == pytest.approx(math.log(n) - math.log(k), abs=1e-10)


class TestCurveOrdering:
    def test_lower_curve_below_upper(self):
        for n in range(2, 7):
            grid = np.linspace(1.0 / n, 1.0, 512)
            q = np.array([min_informational_power(n, float(p)).value for p in grid])
            s = np.array([max_accessible_information(n, float(p)).value for p in grid])
            assert np.all(q <= s + 1e-10)
            assert np.all(np.diff(q) >= -1e-12)
            assert np.all(np.diff(s) >= -1e-12)


class TestMaxSubentropyAtPurity:
    def test_endpoints(self):
        assert max_subentropy_at_purity(4, 1.0).value == pytest.approx(0.0, abs=1e-13)
        sol = max_subentropy_at_purity(4, 0.25)
        assert sol.epsilon == 0.0
        assert sol.value == pytest.approx(math.log(4) - harmonic_tail(4), abs=1e-13)

    def test_dominates_sampled_spectra(self):
        rng = np.random.default_rng(21)
        for n, p in ((3, 0.5), (4, 0.6)):
            bound = max_subentropy_at_purity(n, p).value
            for lam in sample_fixed_purity_spectra(n, p, 2000, rng):
                lam = lam / lam.sum()
                assert subentropy(lam) <= bound + 1e-9


class TestExtremalRenyi:
    def test_alpha_two_ties_to_neg_log_purity(self):
        for n, p in ((2, 0.7), (3, 0.5), (4, 0.4)):
            for kind in ("min", "max"):
                sol = extremal_renyi_at_purity(n, p, 2.0, kind)
                assert sol.value == pytest.approx(-math.log(p), abs=1e-12)
        # deterministic tie-break: smallest multiplicity total, then "+"
        sol = extremal_renyi_at_purity(3, 0.5, 2.0, "min")
        assert (sol.n_a + sol.n_b, sol.branch) == (2, "+")

    def test_pure_state_min(self):
        sol = extremal_renyi_at_purity(2, 1.0, 0.5, "min")
        assert sol.value == 0.0
        assert sol.spectrum() == pytest.approx([1.0, 0.0])

    def test_known_shannon_minimum(self):
        sol = extremal_renyi_at_purity(3, 0.4, 1.0, "min")
        assert sol.value == pytest.approx(LEMMA2_MIN_SHANNON_3_04, abs=1e-12)
        assert (sol.n_a, sol.n_b, sol.branch) == (2, 1, "+")

    def test_matches_grid_search(self):
        for p in (0.4, 0.5, 0.7):
            for alpha in (0.5, 1.0, 2.0):
                gmin, gmax = renyi_extrema_grid_3(p, alpha)
                assert extremal_renyi_at_purity(3, p, alpha, "min").value == pytest.approx(
                    gmin, abs=1e-3
                )
                assert extremal_renyi_at_purity(3, p, alpha, "max").value == pytest.approx(
                    gmax, abs=1e-3
                )

    def test_spectrum_feasibility(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            p = float(rng.uniform(1.0 / n, 1.0))
            alpha = float(rng.choice([0.5, 1.0, 1.7, 2.0, 3.0]))
            kind = "min" if rng.random() < 0.5 else "max"
            sol = extremal_renyi_at_purity(n, p, alpha, kind)
            lam = sol.spectrum()
            assert lam.sum() == pytest.approx(1.0, abs=1e-10)
            assert (lam**2).sum() == pytest.approx(p, abs=1e-10)
            assert lam.min() >= -1e-12


class TestOptimalCommutingEnsemble:
    def test_pure_case_is_orthogonal_encoding(self):
        e = optimal_commuting_ensemble(3, 1.0)
        assert holevo_upper(e) == pytest.approx(math.log(3), abs=1e-12)

    def test_mixed_case_is_informationless(self):
        e = optimal_commuting_ensemble(3, 1.0 / 3.0)
        assert holevo_upper(e) == pytest.approx(0.0, abs=1e-10)

    def test_matches_curve_value(self):
        for n, p in ((2, 0.6), (2, 0.9), (3, 0.4), (3, 0.7), (4, 0.3)):
            e = optimal_commuting_ensemble(n, p)
            assert holevo_upper(e) == pytest.approx(
                max_accessible_information(n, p).value, abs=1e-10
            )

    def test_structure(self):
        e = optimal_commuting_ensemble(3, 0.4)
        assert np.max(np.abs(e.average.matrix - np.eye(3) / 3)) < 1e-12
        for _, state in e.items:
            assert purity(state) == pytest.approx(0.4, abs=1e-10)
        lam = np.sort(np.diag(e.states[0].matrix).real)[::-1]
        assert lam == pytest.approx([0.4387425886723793, 0.4387425886723793, 0.1225148226552413], abs=1e-9)


class TestScroogePovm:
    def test_completeness_exact(self):
        m = depolarized_scrooge_povm(2, 0.6, 64, seed=9)
        assert np.max(np.abs(m.stack().sum(axis=0) - np.eye(2))) < 1e-10

    def test_zero_epsilon_elements_proportional_to_identity(self):
        m = depolarized_scrooge_povm(3, 0.0, 16, seed=2)
        for e in m.elements:
            assert np.max(np.abs(e.matrix - np.eye(3) / 16)) < 1e-12

    def test_count_guard(self):
        with pytest.raises(CountTooSmallError):
            depolarized_scrooge_povm(3, 0.5, 8, seed=0)

    def test_negative_epsilon_supported(self):
        m = depolarized_scrooge_povm(3, -0.5, 32, seed=4)
        assert np.max(np.abs(m.stack().sum(axis=0) - np.eye(3))) < 1e-10
        with pytest.raises(EpsilonOutOfRangeError):
            depolarized_scrooge_povm(3, -0.6, 32, seed=4)


class TestHaarIntegralRoute:
    def test_pure_point(self):
        for n in (2, 3, 5):
            assert min_power_haar_integral(n, 1.0) == pytest.approx(
                math.log(n) - harmonic_tail(n), abs=1e-12
            )

    def test_cross_path_identity(self):
        for n in range(2, 7):
            for eps in np.linspace(0.1, 1.0, 10):
                direct = min_informational_power(n, purity_for_epsilon(n, float(eps)))
                assert min_power_haar_integral(n, float(eps)) == pytest.approx(
                    direct.value, abs=1e-10
                )

    def test_epsilon_guard(self):
        with pytest.raises(EpsilonOutOfRangeError):
            min_power_haar_integral(3, 1e-7)

    # at and just above the domain's cuts eps = 0.05 (n <= 8) and eps = 0.1
    # (n <= 64); the rows just below raise (tests/test_input_boundary.py)
    @pytest.mark.parametrize(
        "n, eps",
        [(2, 0.05), (2, 0.0501), (8, 0.05), (8, 0.0501), (9, 0.1), (9, 0.1001),
         (57, 0.1), (64, 0.1), (64, 0.1001), (64, 1.0)],
    )
    def test_matches_oracle_inside_the_domain(self, n, eps):
        want = min_power_oracle(n, eps)
        assert abs(min_power_haar_integral(n, eps) - want) <= 2.1e-9 * want


class TestEpsilonPurityMaps:
    def test_round_trip(self):
        for n in (2, 5):
            for eps in (0.0, 0.3, 1.0):
                assert epsilon_for_purity(n, purity_for_epsilon(n, eps)) == pytest.approx(
                    eps, abs=1e-12
                )
