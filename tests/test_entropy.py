import math

import numpy as np
import pytest

from infopurity import (
    AlphaOutOfRangeError,
    DensityOperator,
    EpsilonOutOfRangeError,
    NotNormalizedError,
    mutual_information,
    relative_entropy,
    renyi_entropy,
    shannon_entropy,
    subentropy,
    subentropy_depolarized,
    von_neumann_entropy,
)
from infopurity.entropy import _clusters, _harmonic
from infopurity.tradeoff import harmonic_tail
from infopurity.operators import depolarize, purity

from _oracles import (
    random_density_matrix,
    subentropy_depolarized_derivative_form,
    subentropy_quadrature,
    subentropy_rational_sum,
)

LN2 = math.log(2)

# frozen from the scipy simplex-quadrature oracle (recomputed below)
Q_075_025 = 0.1503555363682671
Q_SCROOGE_075 = 0.1048829106295721


def sigma(k):
    return sum(1.0 / j for j in range(2, k + 1))


class TestShannon:
    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)

    def test_quarter(self):
        # direct summation: 0.25 ln 4 + 0.75 ln(4/3)
        expected = 0.25 * math.log(4) + 0.75 * math.log(4 / 3)
        assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(NotNormalizedError):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(NotNormalizedError):
            shannon_entropy([1.2, -0.2])

    def test_rejects_non_finite(self):
        with pytest.raises(NotNormalizedError):
            shannon_entropy([np.nan, 0.5, 0.5])


class TestMutualInformation:
    def test_independent(self):
        assert mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-14)

    def test_perfect_correlation(self):
        assert mutual_information([[0.5, 0], [0, 0.5]]) == pytest.approx(LN2, abs=1e-14)

    def test_binary_symmetric(self):
        got = mutual_information([[0.375, 0.125], [0.125, 0.375]])
        assert got == pytest.approx(LN2 - shannon_entropy([0.25, 0.75]), abs=1e-13)
        assert got == pytest.approx(0.1308120359411370, abs=1e-13)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(12)).reshape(3, 4)
            i = mutual_information(p)
            assert -1e-12 <= i <= min(math.log(3), math.log(4)) + 1e-12


class TestRelativeEntropy:
    def test_identical(self):
        assert relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-14)

    def test_matches_mutual_information_identity(self):
        # D(p || q) for the conditional of the binary-symmetric example
        assert relative_entropy([0.75, 0.25], [0.5, 0.5]) == pytest.approx(
            0.1308120359411370, abs=1e-13
        )

    def test_support_violation_is_infinite(self):
        assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf


class TestVonNeumann:
    def test_pure_state(self):
        rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(4), abs=1e-12)

    def test_two_pure_state_average(self):
        # average of |0> and |+> has spectrum (1 +- 1/sqrt(2))/2
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        avg = 0.5 * np.diag([1.0, 0.0]) + 0.5 * np.outer(plus, plus.conj())
        lam = np.array([(1 + 1 / math.sqrt(2)) / 2, (1 - 1 / math.sqrt(2)) / 2])
        expected = float(-(lam * np.log(lam)).sum())
        assert expected == pytest.approx(0.4164955306996875, abs=1e-15)
        assert von_neumann_entropy(DensityOperator(avg)) == pytest.approx(
            expected, abs=1e-12
        )


class TestRenyi:
    def test_alpha_two_is_neg_log_purity(self):
        v = np.array([0.6, 0.3, 0.1])
        assert renyi_entropy(v, 2.0) == pytest.approx(-math.log((v**2).sum()), abs=1e-14)

    def test_uniform_any_alpha(self):
        assert renyi_entropy([0.5, 0.5], 0.5) == pytest.approx(LN2, abs=1e-14)

    def test_alpha_three(self):
        expected = -0.5 * math.log(0.7**3 + 0.3**3)
        assert expected == pytest.approx(0.4971261366719336, abs=1e-15)
        assert renyi_entropy([0.7, 0.3], 3.0) == pytest.approx(expected, abs=1e-14)

    def test_alpha_one_branch_brackets_shannon(self):
        v = [0.5, 0.3, 0.2]
        s = shannon_entropy(v)
        assert abs(renyi_entropy(v, 1.0 + 1e-7) - s) < 1e-6
        assert abs(renyi_entropy(v, 1.0 - 1e-7) - s) < 1e-6

    def test_invalid_alpha(self):
        with pytest.raises(AlphaOutOfRangeError):
            renyi_entropy([0.5, 0.5], 0.0)


class TestSubentropy:
    def test_pure_state_zero(self):
        for n in (2, 3, 5):
            v = np.zeros(n)
            v[0] = 1.0
            assert subentropy(v) == 0.0

    def test_maximally_mixed(self):
        for n in (2, 3, 4, 6):
            expected = math.log(n) - sigma(n)
            assert subentropy(np.full(n, 1.0 / n)) == pytest.approx(expected, abs=1e-12)

    def test_against_quadrature_oracle(self):
        assert subentropy_quadrature([0.75, 0.25]) == pytest.approx(Q_075_025, abs=1e-13)
        assert subentropy([0.75, 0.25]) == pytest.approx(Q_075_025, abs=1e-12)
        three = [0.5, 0.3, 0.2]
        assert subentropy(three) == pytest.approx(
            subentropy_quadrature(three), abs=1e-9
        )

    def test_matches_rational_sum_when_separated(self):
        rng = np.random.default_rng(12)
        checked = 0
        for n in (2, 3, 4, 5, 6):
            while checked < 150 * (n - 1):
                v = np.sort(rng.dirichlet(np.ones(n)))
                if v[0] < 1e-4 or np.min(np.diff(v)) <= 1e-3:
                    continue
                checked += 1
                assert subentropy(v) == pytest.approx(
                    subentropy_rational_sum(v), abs=1e-10
                )

    def test_continuity_across_clustering_threshold(self):
        base = np.array([0.4, 0.4, 0.2])
        bumped = np.array([0.4 + 1e-9, 0.4 - 1e-9, 0.2])
        assert abs(subentropy(base) - subentropy(bumped)) < 1e-6

    def test_bounded_by_entropy(self):
        rng = np.random.default_rng(13)
        for n in range(2, 7):
            for _ in range(1000):
                v = rng.dirichlet(np.ones(n))
                q = subentropy(v)
                s = shannon_entropy(v)
                assert -1e-12 <= q <= s + 1e-10
                assert s <= math.log(n) + 1e-12

    def test_concavity(self):
        rng = np.random.default_rng(14)
        for n in (2, 3, 4):
            for _ in range(40):
                r1 = random_density_matrix(n, rng)
                r2 = random_density_matrix(n, rng)
                q1 = subentropy(np.linalg.eigvalsh(r1))
                q2 = subentropy(np.linalg.eigvalsh(r2))
                for t in (0.25, 0.5, 0.75):
                    mix = np.linalg.eigvalsh(t * r1 + (1 - t) * r2)
                    assert subentropy(mix) >= t * q1 + (1 - t) * q2 - 1e-9

    def test_depolarization_monotonicity(self):
        # purity rises with eps while subentropy falls toward the pure state
        rng = np.random.default_rng(15)
        rho = DensityOperator(random_density_matrix(3, rng))
        eps_grid = np.linspace(0.0, 1.0, 11)
        purities = []
        subents = []
        for eps in eps_grid:
            out = depolarize(rho.op, float(eps))
            purities.append(purity(out))
            subents.append(subentropy(np.linalg.eigvalsh(out.matrix)))
        assert np.all(np.diff(purities) >= -1e-12)
        assert np.all(np.diff(subents) <= 1e-9)

    def test_requires_normalization(self):
        with pytest.raises(NotNormalizedError):
            subentropy([0.5, 0.4])


class TestConfluentNodeSet:
    def test_clusters_tight_gaps(self):
        nodes = _clusters(np.sort([0.5, 0.5 + 1e-9, 0.25, 0.25 - 1e-12]))
        assert [m for _, m in nodes] == [2, 2]
        assert sum(m for _, m in nodes) == 4

    def test_keeps_separated_values(self):
        nodes = _clusters(np.sort([0.6, 0.3, 0.1]))
        assert [m for _, m in nodes] == [1, 1, 1]

    @pytest.mark.parametrize(
        "spectrum, value",
        [
            ([0.5, 0.5], 0.1931471805599453),
            ([0.25, 0.25, 0.25, 0.25], 0.30296102778655754),
            ([0.3, 0.3 + 1e-9, 0.2, 0.2 - 1e-9], 0.2989494961377314),
            ([0.7, 0.1, 0.1, 0.1], 0.2006729319376534),
            ([0.5, 0.5, 0.0], 0.1931471805599453),
            ([0.4, 0.2 + 5e-8, 0.2, 0.2 - 5e-8], 0.29136693464227487),
        ],
        ids=["pair", "mixed-4", "two-tight-pairs", "one-triple", "zero-node", "tight-triple"],
    )
    def test_clustered_subentropy_exact(self, spectrum, value):
        # the clustering and the confluent table, pinned to the last bit
        assert subentropy(spectrum) == value


class TestHarmonicTable:
    def test_read_only(self):
        table = _harmonic(6)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0.0

    def test_equals_fresh_cumsum_bit_for_bit(self):
        for n in range(1, 65):
            fresh = np.zeros(n + 1)
            fresh[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
            assert np.array_equal(_harmonic(n), fresh)

    def test_cache_hit_returns_same_object(self):
        assert _harmonic(7) is _harmonic(7)

    def test_harmonic_tail_is_its_own_sum(self):
        # harmonic_tail keeps its scalar loop and does not read the table
        before = _harmonic.cache_info()
        for k in range(1, 65):
            assert harmonic_tail(k) == sum(1.0 / j for j in range(2, k + 1))
        assert _harmonic.cache_info() == before


class TestSubentropyDepolarized:
    def test_pure_limit(self):
        for n in (2, 3, 6):
            assert subentropy_depolarized(n, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_limit(self):
        for n in (2, 4, 8):
            assert subentropy_depolarized(n, 0.0) == pytest.approx(
                math.log(n) - sigma(n), abs=1e-13
            )

    def test_scrooge_qubit_value(self):
        got = subentropy_depolarized(2, 1 / math.sqrt(2))
        assert subentropy_quadrature(
            [(1 + 1 / math.sqrt(2)) / 2, (1 - 1 / math.sqrt(2)) / 2]
        ) == pytest.approx(Q_SCROOGE_075, abs=1e-13)
        assert got == pytest.approx(Q_SCROOGE_075, abs=1e-12)

    def test_matches_general_spectrum_path(self):
        for n in range(2, 7):
            for eps in np.linspace(0.01, 1.0, 25):
                a = (1 - eps) / n
                spec = np.array([eps + a] + [a] * (n - 1))
                assert subentropy_depolarized(n, float(eps)) == pytest.approx(
                    subentropy(spec), abs=1e-9
                )

    def test_small_epsilon_branch_is_smooth(self):
        for n in (2, 5, 8):
            lo = subentropy_depolarized(n, 1e-9)
            assert lo == pytest.approx(math.log(n) - sigma(n), abs=1e-10)
            vals = [subentropy_depolarized(n, e) for e in np.geomspace(1e-8, 0.2, 40)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_range_check(self):
        with pytest.raises(EpsilonOutOfRangeError):
            subentropy_depolarized(3, -0.2)
        with pytest.raises(EpsilonOutOfRangeError):
            subentropy_depolarized(3, 1.2)


class TestDerivativeForm:
    def test_correction_vanishes_by_trace(self):
        _, corr = subentropy_depolarized_derivative_form(2, 0.5)
        assert corr == 0.0

    def test_agreement_with_binomial_route(self):
        for n in (3, 4, 5, 6):
            for eps in np.linspace(0.1, 1.0, 10):
                value, corr = subentropy_depolarized_derivative_form(n, float(eps))
                assert abs(corr) < 1e-12
                assert value == pytest.approx(
                    subentropy_depolarized(n, float(eps)), abs=1e-10
                )

    def test_pure_state(self):
        value, _ = subentropy_depolarized_derivative_form(2, 1.0)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_rejects_confluent_point(self):
        with pytest.raises(EpsilonOutOfRangeError):
            subentropy_depolarized_derivative_form(3, 0.0)
