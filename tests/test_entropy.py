import math

import numpy as np
import pytest

from infopurity import (
    AlphaOutOfRangeError,
    DensityOperator,
    EpsilonOutOfRangeError,
    NotNormalizedError,
    Spectrum,
    max_subentropy_at_purity,
    min_informational_power,
    mutual_information,
    purity_for_epsilon,
    relative_entropy,
    renyi_entropy,
    shannon_entropy,
    subentropy,
    subentropy_depolarized,
    von_neumann_entropy,
)
from infopurity.entropy import _clusters, _harmonic, _table
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

    def test_record_holds_the_table_as_python_floats(self):
        # C(n, k) from the exact recurrence equals math.comb rounded once
        for n in range(1, 201):
            record = _table(n)
            assert record.harm == tuple(_harmonic(n).tolist())
            assert record.tail == float(_harmonic(n)[n] - 1.0)
            assert record.q_max == math.log(n) - record.tail
            assert record.terms == tuple(
                (k, float(math.comb(n, k)), record.harm[k] - 1.0) for k in range(2, n + 1)
            )
        # past the float range the terms stop before the first C(n, k) that
        # does not convert to a float
        last_k, last_comb, _ = _table(1100).terms[-1]
        assert last_comb == float(math.comb(1100, last_k))
        with pytest.raises(OverflowError):
            float(math.comb(1100, last_k + 1))
        assert _table(1100) is _table(1100)

    def test_harmonic_tail_reads_the_table(self):
        # the tail is the table entry H_k - 1; summed from 1 instead of 1/2,
        # it sits within 9e-15 of the plain loop 1/2 + ... + 1/k to k = 2000
        loop = 0.0
        for k in range(1, 2001):
            if k > 1:
                loop += 1.0 / k
            assert harmonic_tail(k) == float(_harmonic(k)[k] - 1.0)
            assert abs(harmonic_tail(k) - loop) <= 9e-15


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


# Golden values, as float.hex, of the subentropy kernels: any change to the
# clustering, the confluent table or the depolarized sums that moves a bit
# fails here.  The inputs are exact Python floats; the Dirichlet draws are
# written out so that no generator version can move them.
GOLDEN_DIRICHLET = {
    2: [0.8816407837551165, 0.11835921624488352],
    3: [0.044574567761684225, 0.3413263514648242, 0.6140990807734914],
    4: [0.18363363690195741, 0.40759602388138577, 0.34096563687368525, 0.06780470234297156],
    5: [0.3974615427963056, 0.15145945661337218, 0.16997941098517458, 0.2805145704483091,
        0.000585019156838706],
    6: [0.013220356720422861, 0.5176707946717415, 0.35604378188829966, 0.053438237355297305,
        0.05174931820013667, 0.007877511164101916],
    7: [0.2987783761578501, 0.15901406972300658, 0.10833132636543456, 0.027774376197659257,
        0.026468157510591433, 0.34016939434864985, 0.03946429969680819],
    8: [0.08152898202599887, 0.024928025784904148, 0.20462237582859824, 0.02974418803980612,
        0.16664184300829832, 0.04583231454820134, 0.36415597033764785, 0.08254630042654519],
}

# the curve-mc spectrum (bench seed 19, item 46) whose subentropy exceeds its
# purity maximum by 2.563e-08: the float table is off by about +1.9e-7 here,
# and that known error is pinned too (ROADMAP item 2 mends it)
SEED19_SPECTRUM = [0.1768212575933507, 0.1620147167270692, 0.1701166753881463,
                   0.16237879399722197, 0.162667706417952, 0.16600084987625982]
SEED19_SUBENTROPY = "0x1.5de306a06b0d2p-2"


def _two_level(n):
    # the first n // 2 entries twice the rest
    weights = [2.0 if k < n // 2 else 1.0 for k in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def golden_spectrum(kind, n):
    if kind == "dirichlet":
        return GOLDEN_DIRICHLET[n]
    if kind == "repeated":
        return _two_level(n)
    if kind == "near-degenerate":
        # adjacent entries of _two_level split by 8e-8, below CLUSTER_RTOL
        v = _two_level(n)
        for k in range(0, n - 1, 2):
            v[k] += 4e-8
            v[k + 1] -= 4e-8
        return v
    if kind == "zero":
        zeros = max(1, n // 3)
        live = n - zeros
        return [0.0] * zeros + [(k + 1) / (live * (live + 1) / 2) for k in range(live)]
    # "near-mixed": gaps of 2e-3 around 1/n, the regime of the seed-19 spectrum
    return [1.0 / n + 2e-3 * (k - (n - 1) / 2) for k in range(n)]


def golden_epsilons(n):
    # the series branch runs while n eps / (1 - eps) < 0.2, i.e. eps < 0.2 / (n + 0.2)
    switch = 0.2 / (n + 0.2)
    return [1e-6, 0.5 * switch, 0.999 * switch, switch, 1.001 * switch, 2.0 * switch, 0.5, 1.0]


# subentropy(golden_spectrum(kind, n)) for n = 2..8
GOLDEN_SUBENTROPY = {
    "dirichlet": [
        "0x1.6d047aea17df7p-4", "0x1.9a8333b417a88p-3", "0x1.182f54f5f5c24p-2",
        "0x1.269e2bc207f49p-2", "0x1.eebb8e2a036b4p-3", "0x1.3b9f36ad62b1dp-2",
        "0x1.4871910f0db92p-2",
    ],
    "repeated": [
        "0x1.65343dadc38aep-3", "0x1.ffffffffffff4p-3", "0x1.2ac2fe8a8801ep-2",
        "0x1.438b3d8af044bp-2", "0x1.55c8935a5ae69p-2", "0x1.61db686ebf466p-2",
        "0x1.6be8b10513a04p-2",
    ],
    "near-degenerate": [
        "0x1.65343c75364d9p-3", "0x1.ffffff058a28fp-3", "0x1.2ac2fe8a8801ep-2",
        "0x1.438b3d8af0445p-2", "0x1.55c8931813032p-2", "0x1.61db6832903e0p-2",
        "0x1.6be8b10513a04p-2",
    ],
    "zero": [
        "-0x0.0p+0", "0x1.65343dadc38acp-3", "0x1.f3df32bb2a902p-3",
        "0x1.215f94db3e4c1p-2", "0x1.215f94db3e4bfp-2", "0x1.3aa181d97d356p-2",
        "0x1.4c41bac538e5dp-2",
    ],
    "near-mixed": [
        "0x1.8b9066440e0a6p-3", "0x1.0fa480022f20cp-2", "0x1.363951896700ep-2",
        "0x1.4de9fd4093f2dp-2", "0x1.5dee551031107p-2", "0x1.6979d732ec73ap-2",
        "0x1.722fd4dbf79dep-2",
    ],
}

# f(n, eps) on golden_epsilons(n), keyed by n = 2..8
GOLDEN_DEPOLARIZED = {
    "subentropy_depolarized": {
        2: [
            "0x1.8b90bfbe8d04ap-3", "0x1.8adc2bf6aec2cp-3", "0x1.88bf6fdd54ab8p-3",
            "0x1.88bdfdb0f4d50p-3", "0x1.88bc8b2574740p-3", "0x1.803e781dde048p-3",
            "0x1.33ed9a7bcb418p-3", "0x0.0p+0",
        ],
        3: [
            "0x1.0fa54955ea540p-2", "0x1.0f658a750aa36p-2", "0x1.0ea7bb8628cdbp-2",
            "0x1.0ea739f54a2c0p-2", "0x1.0ea6b8438e440p-2", "0x1.0bb35940108b0p-2",
            "0x1.a267c4cca1d20p-3", "0x0.0p+0",
        ],
        4: [
            "0x1.363b6a6937d52p-2", "0x1.360f0fc3f50c2p-2", "0x1.358b346c4092ep-2",
            "0x1.358ada7d82a00p-2", "0x1.358a80780b800p-2", "0x1.337f58ddf6cc0p-2",
            "0x1.db19fba8ee050p-3", "0x0.0p+0",
        ],
        5: [
            "0x1.4dee5bd93fb37p-2", "0x1.4dce374911b80p-2", "0x1.4d6eb23686a6fp-2",
            "0x1.4d6e7113d6000p-2", "0x1.4d6e2fe0b6000p-2", "0x1.4bf384542d700p-2",
            "0x1.fd9366439bfd0p-3", "0x0.0p+0",
        ],
        6: [
            "0x1.5df631bdb9a1dp-2", "0x1.5dddf770a87cep-2", "0x1.5d95f675c170bp-2",
            "0x1.5d95c55bf66bap-2", "0x1.5d959435c0000p-2", "0x1.5c78234ef0000p-2",
            "0x1.0a5f7341f6230p-2", "0x0.0p+0",
        ],
        7: [
            "0x1.6986ba2d7efebp-2", "0x1.6973dc19dbd24p-2", "0x1.693bc5d0db8f2p-2",
            "0x1.693b9f90d0000p-2", "0x1.693b7946c0000p-2", "0x1.685d10035c000p-2",
            "0x1.12b16c6c1eb88p-2", "0x0.0p+0",
        ],
        8: [
            "0x1.72432e3ebe12dp-2", "0x1.72341782297fcp-2", "0x1.7207395c4e821p-2",
            "0x1.72071ac000000p-2", "0x1.7206fc2080000p-2", "0x1.7154fc9766000p-2",
            "0x1.18f52cc762e80p-2", "0x0.0p+0",
        ],
    },
    "max_subentropy_at_purity": {
        2: [
            "0x1.8b90bfbe8d046p-3", "0x1.8adc2bf6aec2ep-3", "0x1.88bf6fdd54ab6p-3",
            "0x1.88bdfdb0f4d3fp-3", "0x1.88bc8b2574740p-3", "0x1.803e781dde040p-3",
            "0x1.33ed9a7bcb418p-3", "0x0.0p+0",
        ],
        3: [
            "0x1.0fa54955ea540p-2", "0x1.0f658a750aa36p-2", "0x1.0ea7bb8628cd6p-2",
            "0x1.0ea739f54a2c0p-2", "0x1.0ea6b8438e440p-2", "0x1.0bb35940108b0p-2",
            "0x1.a267c4cca1d20p-3", "0x0.0p+0",
        ],
        4: [
            "0x1.363b6a6937d50p-2", "0x1.360f0fc3f50bfp-2", "0x1.358b346c4092cp-2",
            "0x1.358ada7d82600p-2", "0x1.358a80780b600p-2", "0x1.337f58ddf6d00p-2",
            "0x1.db19fba8ee050p-3", "0x0.0p+0",
        ],
        5: [
            "0x1.4dee5bd93fb3ap-2", "0x1.4dce374911b82p-2", "0x1.4d6eb23686a6ep-2",
            "0x1.4d6e7113d5000p-2", "0x1.4d6e2fe0b4800p-2", "0x1.4bf384542d400p-2",
            "0x1.fd9366439bfd0p-3", "0x0.0p+0",
        ],
        6: [
            "0x1.5df631bdb9a1cp-2", "0x1.5dddf770a87d0p-2", "0x1.5d95f675c170cp-2",
            "0x1.5d95c55bf66b9p-2", "0x1.5d959435c8000p-2", "0x1.5c78234eef800p-2",
            "0x1.0a5f7341f6230p-2", "0x0.0p+0",
        ],
        7: [
            "0x1.6986ba2d7efecp-2", "0x1.6973dc19dbd21p-2", "0x1.693bc5d0db8f1p-2",
            "0x1.693b9f90a198cp-2", "0x1.693b7946a0000p-2", "0x1.685d10035a800p-2",
            "0x1.12b16c6c1eb88p-2", "0x0.0p+0",
        ],
        8: [
            "0x1.72432e3ebe12bp-2", "0x1.72341782297fcp-2", "0x1.7207395c4e81dp-2",
            "0x1.72071ac1c4d07p-2", "0x1.7206fc1e80000p-2", "0x1.7154fc9764000p-2",
            "0x1.18f52cc762e80p-2", "0x0.0p+0",
        ],
    },
    "min_informational_power": {
        2: [
            "0x1.7760000000000p-43", "0x1.69278fbf71c00p-12", "0x1.68a7f09ce8300p-10",
            "0x1.696106ccd3e80p-10", "0x1.6a1a4c8d03e00p-10", "0x1.6a48f4160ef80p-8",
            "0x1.5e8c950b0ce90p-5", "0x1.8b90bfbe8e7bcp-3",
        ],
        3: [
            "0x1.1980000000000p-42", "0x1.fdf7070651000p-13", "0x1.fb1b9f8540400p-11",
            "0x1.fc1ec14283000p-11", "0x1.fd2224ba53000p-11", "0x1.f8f80aed71400p-9",
            "0x1.f38b377cd4240p-5", "0x1.0fa54955eb6d8p-2",
        ],
        4: [
            "0x1.51c0000000000p-42", "0x1.62d52a20d6800p-13", "0x1.606bf9f128000p-11",
            "0x1.611fd76d8d800p-11", "0x1.61d3e25b8d800p-11", "0x1.5e08c5a12b600p-9",
            "0x1.22b9b25308910p-4", "0x1.363b6a693926cp-2",
        ],
        5: [
            "0x1.7720000000000p-42", "0x1.0124817b95000p-13", "0x1.fea68aea0f800p-12",
            "0x1.ffab15b0ab000p-12", "0x1.0057f11955800p-11", "0x1.fad78513eac00p-10",
            "0x1.3c92a2ddccb10p-4", "0x1.4dee5bd9412acp-2",
        ],
        6: [
            "0x1.9240000000000p-42", "0x1.83a4d12b70000p-14", "0x1.80ed1fe70d000p-12",
            "0x1.81b1871321c00p-12", "0x1.82761fccd0000p-12", "0x1.7e0e6ecbb4000p-10",
            "0x1.4e5af9ef14440p-4", "0x1.5df631bdbb340p-2",
        ],
        7: [
            "0x1.a600000000000p-42", "0x1.2de13a4d2b000p-14", "0x1.2bd1729456c00p-12",
            "0x1.2c6a737c30000p-12", "0x1.2d039b8293000p-12", "0x1.29aa2a2624c00p-10",
            "0x1.5b55370587b10p-4", "0x1.6986ba2d80a4cp-2",
        ],
        8: [
            "0x1.b5d0000000000p-42", "0x1.e2d792c918000p-15", "0x1.dfa7138a35800p-13",
            "0x1.e09be7d7c0800p-13", "0x1.e19101fe44000p-13", "0x1.dc634eb791000p-11",
            "0x1.653805dd73820p-4", "0x1.72432e3ebfc88p-2",
        ],
    },
}

DEPOLARIZED_FORMS = {
    "subentropy_depolarized": subentropy_depolarized,
    "max_subentropy_at_purity": lambda n, eps: max_subentropy_at_purity(
        n, purity_for_epsilon(n, eps)
    ).value,
    "min_informational_power": lambda n, eps: min_informational_power(
        n, purity_for_epsilon(n, eps)
    ).value,
}


class TestGoldenValues:
    @pytest.mark.parametrize("kind", list(GOLDEN_SUBENTROPY))
    def test_subentropy(self, kind):
        got = [subentropy(golden_spectrum(kind, n)).hex() for n in range(2, 9)]
        assert got == GOLDEN_SUBENTROPY[kind]

    def test_golden_spectra_cluster_as_named(self):
        # the near-degenerate spectra really merge, the near-mixed ones do not
        for n in range(2, 9):
            tight = _clusters(sorted(golden_spectrum("near-degenerate", n)))
            assert len(tight) == len(_clusters(sorted(_two_level(n)))) <= 2
            assert len(_clusters(sorted(golden_spectrum("near-mixed", n)))) == n

    def test_seed19_known_error_stays(self):
        assert subentropy(SEED19_SPECTRUM).hex() == SEED19_SUBENTROPY

    @pytest.mark.parametrize("name", list(DEPOLARIZED_FORMS))
    def test_depolarized_forms(self, name):
        f = DEPOLARIZED_FORMS[name]
        for n in range(2, 9):
            got = [f(n, eps).hex() for eps in golden_epsilons(n)]
            assert got == GOLDEN_DEPOLARIZED[name][n], f"n = {n}"

    def test_epsilon_grid_crosses_the_series_switch(self):
        for n in range(2, 9):
            ratios = [n * e / (1.0 - e) for e in golden_epsilons(n) if e < 1.0]
            assert min(ratios) < 0.2 <= max(ratios)


class TestInputForms:
    @pytest.mark.parametrize("kind", list(GOLDEN_SUBENTROPY))
    def test_list_array_and_spectrum_agree(self, kind):
        for n in range(2, 9):
            values = golden_spectrum(kind, n)
            forms = [values, np.array(values), Spectrum(values, normalized=True)]
            got = [subentropy(v) for v in forms]
            assert all(type(q) is float for q in got)
            assert len({q.hex() for q in got}) == 1
