import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopurity import (
    AlphaOutOfRangeError,
    DensityOperator,
    DimensionTooLargeError,
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
from infopurity import _checks, entropy
from infopurity.entropy import (
    _LOG_FLOOR,
    _binomial_terms,
    _mutual_info,
    _mutual_info_terms,
    _power_table,
    _powers,
    _subentropy,
    _table,
)
from infopurity.tradeoff import harmonic_tail
from infopurity.operators import depolarize, purity

from _oracles import (
    mutual_info_masked,
    random_density_matrix,
    subentropy_depolarized_derivative_form,
    subentropy_divided_difference,
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


@st.composite
def _joint_stacks(draw):
    """(R, X, Y) stacks of joints with zero cells, zero rows and zero
    columns, each normalized unless it is all zero; every other cell lies
    far above the log floor."""
    r, x, y = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cell = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    p = np.array(draw(st.lists(cell, min_size=r * x * y, max_size=r * x * y))).reshape(r, x, y)
    p[:, draw(st.lists(st.integers(0, x - 1), max_size=x)), :] = 0.0
    p[:, :, draw(st.lists(st.integers(0, y - 1), max_size=y))] = 0.0
    total = p.sum(axis=(1, 2), keepdims=True)
    return np.divide(p, total, out=p, where=total > 0.0)


class TestMutualInfoTerms:
    """The see-saw's kernel returns the masked kernel's information and
    the floored logs and column sums its gradient once recomputed."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_joint_stacks(), st.booleans())
    def test_matches_masked_kernel_bit_for_bit(self, p, swapped):
        if swapped:  # the see-saw passes a transposed view
            p = np.ascontiguousarray(p.swapaxes(1, 2)).swapaxes(1, 2)
        info, log_p, py = _mutual_info_terms(p)
        want = mutual_info_masked(p)
        # only the sign of an exact zero may differ: adding +0.0 clears it
        assert (info + 0.0).tobytes() == (want + 0.0).tobytes()
        assert _mutual_info(p).tobytes() == info.tobytes()
        assert log_p.tobytes() == np.log(np.maximum(p, _LOG_FLOOR)).tobytes()
        assert py.tobytes() == p.sum(axis=1).tobytes()
        assert np.isfinite(log_p).all()


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


def _max_subentropy(n):
    # ln n - (H_n - 1) with the harmonic sum rounded once
    return math.log(n) - math.fsum(1.0 / j for j in range(2, n + 1))


def _oracle_rows(n):
    """(family, spectrum) rows of the oracle table at dimension n."""
    rng = np.random.default_rng(n)
    rows = []
    for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        v = [1.0 / n + delta * (k - (n - 1) / 2) for k in range(n)]
        if min(v) > 0.0:
            rows.append((f"equispaced-{delta:g}", v))
    half = n // 2
    w = [0.3 + 1e-5 * k for k in range(half)] + [0.7 + 1e-5 * k for k in range(n - half)]
    rows.append(("two-cluster", [x / sum(w) for x in w]))
    for alpha in (0.3, 1.0, 30.0):
        rows.append((f"dirichlet-{alpha:g}", rng.dirichlet(np.full(n, alpha)).tolist()))
    z = rng.dirichlet(np.ones(n))
    z[: max(1, n // 3)] = 0.0
    rows.append(("zero", (z / z.sum()).tolist()))
    rows.append(("near-pure", [1.0 - 1e-9] + [1e-9 / (n - 1)] * (n - 1)))
    for spread in (0.01, 0.1):
        v = 1.0 + spread * rng.uniform(-1.0, 1.0, n)
        rows.append((f"perturbed-{spread:g}", (v / v.sum()).tolist()))
    return rows


class TestSubentropyOracle:
    @pytest.mark.parametrize("n", [*range(2, 9), 12, 16, 24, 32, 48, 64])
    def test_within_1e14_of_divided_difference(self, n):
        for family, values in _oracle_rows(n):
            want = subentropy_divided_difference(values)
            assert abs(subentropy(values) - want) <= 1e-14, family

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        centres=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        spread_exp=st.integers(3, 14),
        zeros=st.integers(0, 2),
    )
    def test_clustered_spectra_stay_in_range(self, sizes, centres, spread_exp, zeros):
        # clusters of up to 8 entries spaced 10^-spread_exp apart
        w = [0.0] * zeros
        for size, centre in zip(sizes, centres):
            w += [centre + 10.0**-spread_exp * k for k in range(size)]
        values = [x / sum(w) for x in w]
        n = len(values)
        q = subentropy(values)
        bound = min(shannon_entropy(values), _max_subentropy(n)) if n > 1 else 0.0
        assert 0.0 <= q <= bound + 1e-15

    @pytest.mark.parametrize("n", [128, 256, 1024])
    def test_maximally_mixed_at_large_n(self, n):
        # the confluent table raised a bare OverflowError from n = 256 on
        assert abs(subentropy([1.0 / n] * n) - _max_subentropy(n)) <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_without_warnings_up_to_n_1024(self):
        rng = np.random.default_rng(1024)
        for n in (2, 16, 128, 1024):
            rows = [
                [1.0 / n] * n,
                rng.dirichlet(np.full(n, 0.3)),
                [1.0 - 1e-9] + [1e-9 / (n - 1)] * (n - 1),
                [0.0] * (n // 2) + [1.0 / (n - n // 2)] * (n - n // 2),
            ]
            for values in rows:
                assert 0.0 <= subentropy(values) <= _max_subentropy(n) + 1e-14
            q = subentropy_depolarized(n, 1e-5)
            assert 0.0 <= q <= _max_subentropy(n) + 1e-14


class TestQuadratureTable:
    def test_rows_are_clipped_read_only_powers(self):
        table = _power_table(32)
        assert not table.flags.writeable
        x = table[0] ** 0.5
        with np.errstate(over="ignore"):
            want = np.minimum(x ** np.arange(2.0, 34.0)[:, None], np.finfo(float).max)
        assert np.allclose(table, want, rtol=1e-13)
        assert np.isfinite(table).all() and table.max() == np.finfo(float).max
        # m = 20 reads the first 19 rows of the table for 32
        assert np.shares_memory(_powers(20), table)
        assert np.array_equal(_powers(20), table[:19])
        assert np.array_equal(_powers(3), table[:2])

    def test_sweep_over_m_holds_at_most_64_mb(self):
        _power_table.cache_clear()
        tracemalloc.start()
        try:
            for m in range(2, 1025):
                assert _powers(m).shape[0] == m - 1
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 64 * 2**20


class TestConfluentNodeSet:
    @pytest.mark.parametrize(
        "spectrum, value",
        [
            ([0.5, 0.5], 0.1931471805599453),
            ([0.25, 0.25, 0.25, 0.25], 0.3029610277865572),
            ([0.3, 0.3 + 1e-9, 0.2, 0.2 - 1e-9], 0.2989494961377247),
            ([0.7, 0.1, 0.1, 0.1], 0.2006729319376534),
            ([0.5, 0.5, 0.0], 0.1931471805599453),
            ([0.4, 0.2 + 5e-8, 0.2, 0.2 - 5e-8], 0.2913669346422732),
        ],
        ids=["pair", "mixed-4", "two-tight-pairs", "one-triple", "zero-node", "tight-triple"],
    )
    def test_clustered_subentropy_exact(self, spectrum, value):
        # repeated and nearly repeated eigenvalues, pinned to the last bit
        # and within 1.2e-16 of the divided-difference oracle
        assert subentropy(spectrum) == value
        assert abs(value - subentropy_divided_difference(spectrum)) <= 1.2e-16


def _fresh_harmonic(n):
    # H_0 .. H_n from np.cumsum, the sum the tables must reproduce bit for bit
    fresh = np.zeros(n + 1)
    fresh[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    return fresh


class TestHarmonicTable:
    def test_read_only(self):
        # the cached records are shared by every caller, so none is mutable
        record = _table(6)
        with pytest.raises(AttributeError):
            record.tail = 0.0
        assert type(_binomial_terms(6)) is tuple

    def test_equals_fresh_cumsum_bit_for_bit(self):
        for n in [*range(1, 65), 1000, 10**6]:
            fresh = _fresh_harmonic(n)
            assert _table(n).tail == float(fresh[n] - 1.0)
            if n <= 1000:
                # the binomial terms sum H_k in the same sequence
                sig = [t[2] for t in _binomial_terms(n)]
                assert sig == (fresh[2 : len(sig) + 2] - 1.0).tolist()

    def test_cache_hit_returns_same_object(self):
        assert _table(7) is _table(7)
        assert _binomial_terms(7) is _binomial_terms(7)

    def test_record_holds_the_table_as_python_floats(self):
        # C(n, k) is math.comb rounded once
        for n in range(1, 201):
            record = _table(n)
            harm = _fresh_harmonic(n)
            assert record.tail == float(harm[n] - 1.0)
            assert record.q_max == math.log(n) - record.tail
            assert _binomial_terms(n) == tuple(
                (k, float(math.comb(n, k)), float(harm[k] - 1.0)) for k in range(2, n + 1)
            )
        # the depolarized kernel reads them at n <= 8 only, where every
        # C(n, k) is a small exact float and no term is cut
        for n in range(2, 9):
            assert [t[0] for t in _binomial_terms(n)] == list(range(2, n + 1))
        assert [t[1] for t in _binomial_terms(8)] == [28.0, 56.0, 70.0, 56.0, 28.0, 8.0, 1.0]

    def test_harmonic_tail_reads_the_table(self):
        # the tail is the table entry H_k - 1; summed from 1 instead of 1/2,
        # it sits within 9e-15 of the plain loop 1/2 + ... + 1/k to k = 2000
        loop = 0.0
        for k in range(1, 2001):
            if k > 1:
                loop += 1.0 / k
            assert harmonic_tail(k) == _table(k).tail
            assert abs(harmonic_tail(k) - loop) <= 9e-15

    def test_tail_builds_no_binomial_terms(self):
        # harmonic_tail reads only H_n: a sweep over k stays cheap, and
        # k = 10^6 keeps no per-k list
        _table.cache_clear()
        _binomial_terms.cache_clear()
        for k in range(1, 2001):
            harmonic_tail(k)
        assert _binomial_terms.cache_info().currsize == 0
        tracemalloc.start()
        try:
            harmonic_tail(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * 2**20


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
# quadrature or the depolarized sums that moves a bit fails here.  The
# inputs are exact Python floats; the Dirichlet draws are written out so
# that no generator version can move them.
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

# the curve-mc spectrum (bench seed 19, item 46) whose subentropy the
# confluent table overstated by 1.9e-7, 2.563e-08 above its purity maximum
SEED19_SPECTRUM = [0.1768212575933507, 0.1620147167270692, 0.1701166753881463,
                   0.16237879399722197, 0.162667706417952, 0.16600084987625982]
SEED19_SUBENTROPY = "0x1.5de2f9966a2bcp-2"


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
        # adjacent entries of _two_level split by 8e-8
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
        "0x1.6d047aea17df8p-4", "0x1.9a8333b417a86p-3", "0x1.182f54f5f5c2ap-2",
        "0x1.269e2bc207f4fp-2", "0x1.eebb8e2a036a6p-3", "0x1.3b9f36ad62af9p-2",
        "0x1.4871910f0db80p-2",
    ],
    "repeated": [
        "0x1.65343dadc38adp-3", "0x1.fffffffffffffp-3", "0x1.2ac2fe8a88008p-2",
        "0x1.438b3d8af047dp-2", "0x1.55c8935a5ae5cp-2", "0x1.61db686ebf34ep-2",
        "0x1.6be8b1051466ep-2",
    ],
    "near-degenerate": [
        "0x1.65343c75364d6p-3", "0x1.ffffff058a28cp-3", "0x1.2ac2fe8a87fd9p-2",
        "0x1.438b3d8af044dp-2", "0x1.55c8931813053p-2", "0x1.61db68329025bp-2",
        "0x1.6be8b10514606p-2",
    ],
    "zero": [
        "0x0.0p+0", "0x1.65343dadc38adp-3", "0x1.f3df32bb2a8f8p-3",
        "0x1.215f94db3e4c4p-2", "0x1.215f94db3e4c4p-2", "0x1.3aa181d97d35ep-2",
        "0x1.4c41bac538e7ap-2",
    ],
    "near-mixed": [
        "0x1.8b9066440e1f7p-3", "0x1.0fa48002303a2p-2", "0x1.36395189511c4p-2",
        "0x1.4de9fd59ce692p-2", "0x1.5dee546b6deaap-2", "0x1.6979e1b1682fbp-2",
        "0x1.722f9b18da561p-2",
    ],
}

# f(n, eps) on golden_epsilons(n), keyed by n = 2..8
GOLDEN_DEPOLARIZED = {
    "subentropy_depolarized": {
        2: [
            "0x1.8b90bfbe8d046p-3", "0x1.8adc2bf6aec2cp-3", "0x1.88bf6fdd54ab8p-3",
            "0x1.88bdfdb0f4d50p-3", "0x1.88bc8b2574740p-3", "0x1.803e781dde048p-3",
            "0x1.33ed9a7bcb418p-3", "0x0.0p+0",
        ],
        3: [
            "0x1.0fa54955ea53cp-2", "0x1.0f658a750aa38p-2", "0x1.0ea7bb8628cd9p-2",
            "0x1.0ea739f54a2c0p-2", "0x1.0ea6b8438e440p-2", "0x1.0bb35940108b0p-2",
            "0x1.a267c4cca1d20p-3", "0x0.0p+0",
        ],
        4: [
            "0x1.363b6a6937d4ap-2", "0x1.360f0fc3f50b8p-2", "0x1.358b346c40926p-2",
            "0x1.358ada7d82a00p-2", "0x1.358a80780b800p-2", "0x1.337f58ddf6cc0p-2",
            "0x1.db19fba8ee050p-3", "0x0.0p+0",
        ],
        5: [
            "0x1.4dee5bd93fb36p-2", "0x1.4dce374911b80p-2", "0x1.4d6eb23686a6bp-2",
            "0x1.4d6e7113d6000p-2", "0x1.4d6e2fe0b6000p-2", "0x1.4bf384542d700p-2",
            "0x1.fd9366439bfd0p-3", "0x0.0p+0",
        ],
        6: [
            "0x1.5df631bdb9a19p-2", "0x1.5dddf770a87cap-2", "0x1.5d95f675c1708p-2",
            "0x1.5d95c55bf66b2p-2", "0x1.5d959435c0000p-2", "0x1.5c78234ef0000p-2",
            "0x1.0a5f7341f6230p-2", "0x0.0p+0",
        ],
        7: [
            "0x1.6986ba2d7efe4p-2", "0x1.6973dc19dbd1cp-2", "0x1.693bc5d0db8e9p-2",
            "0x1.693b9f90d0000p-2", "0x1.693b7946c0000p-2", "0x1.685d10035c000p-2",
            "0x1.12b16c6c1eb88p-2", "0x0.0p+0",
        ],
        8: [
            "0x1.72432e3ebe126p-2", "0x1.72341782297f1p-2", "0x1.7207395c4e816p-2",
            "0x1.72071ac000000p-2", "0x1.7206fc2080000p-2", "0x1.7154fc9766000p-2",
            "0x1.18f52cc762e80p-2", "0x0.0p+0",
        ],
    },
    "max_subentropy_at_purity": {
        2: [
            "0x1.8b90bfbe8d046p-3", "0x1.8adc2bf6aec2cp-3", "0x1.88bf6fdd54ab8p-3",
            "0x1.88bdfdb0f4d40p-3", "0x1.88bc8b2574740p-3", "0x1.803e781dde040p-3",
            "0x1.33ed9a7bcb418p-3", "0x0.0p+0",
        ],
        3: [
            "0x1.0fa54955ea53dp-2", "0x1.0f658a750aa38p-2", "0x1.0ea7bb8628cd9p-2",
            "0x1.0ea739f54a2c0p-2", "0x1.0ea6b8438e440p-2", "0x1.0bb35940108b0p-2",
            "0x1.a267c4cca1d20p-3", "0x0.0p+0",
        ],
        4: [
            "0x1.363b6a6937d4ap-2", "0x1.360f0fc3f50bap-2", "0x1.358b346c40926p-2",
            "0x1.358ada7d82600p-2", "0x1.358a80780b600p-2", "0x1.337f58ddf6d00p-2",
            "0x1.db19fba8ee050p-3", "0x0.0p+0",
        ],
        5: [
            "0x1.4dee5bd93fb36p-2", "0x1.4dce374911b7fp-2", "0x1.4d6eb23686a6bp-2",
            "0x1.4d6e7113d5000p-2", "0x1.4d6e2fe0b4800p-2", "0x1.4bf384542d400p-2",
            "0x1.fd9366439bfd0p-3", "0x0.0p+0",
        ],
        6: [
            "0x1.5df631bdb9a1ap-2", "0x1.5dddf770a87cap-2", "0x1.5d95f675c1708p-2",
            "0x1.5d95c55bf66b4p-2", "0x1.5d959435c8000p-2", "0x1.5c78234eef800p-2",
            "0x1.0a5f7341f6230p-2", "0x0.0p+0",
        ],
        7: [
            "0x1.6986ba2d7efe4p-2", "0x1.6973dc19dbd1cp-2", "0x1.693bc5d0db8eap-2",
            "0x1.693b9f90a1984p-2", "0x1.693b7946a0000p-2", "0x1.685d10035a800p-2",
            "0x1.12b16c6c1eb88p-2", "0x0.0p+0",
        ],
        8: [
            "0x1.72432e3ebe128p-2", "0x1.72341782297f2p-2", "0x1.7207395c4e816p-2",
            "0x1.72071ac1c4d02p-2", "0x1.7206fc1e80000p-2", "0x1.7154fc9764000p-2",
            "0x1.18f52cc762e80p-2", "0x0.0p+0",
        ],
    },
    "min_informational_power": {
        2: [
            "0x1.7760000000000p-43", "0x1.69278fbf72000p-12", "0x1.68a7f09ce8200p-10",
            "0x1.696106ccd3e00p-10", "0x1.6a1a4c8d03e00p-10", "0x1.6a48f4160ef80p-8",
            "0x1.5e8c950b0ce90p-5", "0x1.8b90bfbe8e7bcp-3",
        ],
        3: [
            "0x1.19b0000000000p-42", "0x1.fdf7070650000p-13", "0x1.fb1b9f853fe00p-11",
            "0x1.fc1ec14283000p-11", "0x1.fd2224ba53000p-11", "0x1.f8f80aed71400p-9",
            "0x1.f38b377cd4240p-5", "0x1.0fa54955eb6d8p-2",
        ],
        4: [
            "0x1.5220000000000p-42", "0x1.62d52a20d9000p-13", "0x1.606bf9f128c00p-11",
            "0x1.611fd76d8d800p-11", "0x1.61d3e25b8d800p-11", "0x1.5e08c5a12b600p-9",
            "0x1.22b9b25308910p-4", "0x1.363b6a693926cp-2",
        ],
        5: [
            "0x1.7760000000000p-42", "0x1.0124817b96800p-13", "0x1.fea68aea10400p-12",
            "0x1.ffab15b0ab000p-12", "0x1.0057f11955800p-11", "0x1.fad78513eac00p-10",
            "0x1.3c92a2ddccb10p-4", "0x1.4dee5bd9412acp-2",
        ],
        6: [
            "0x1.9260000000000p-42", "0x1.83a4d12b76000p-14", "0x1.80ed1fe70e000p-12",
            "0x1.81b1871323000p-12", "0x1.82761fccd0000p-12", "0x1.7e0e6ecbb4000p-10",
            "0x1.4e5af9ef14440p-4", "0x1.5df631bdbb340p-2",
        ],
        7: [
            "0x1.a680000000000p-42", "0x1.2de13a4d30000p-14", "0x1.2bd1729458800p-12",
            "0x1.2c6a737c32000p-12", "0x1.2d039b8293000p-12", "0x1.29aa2a2624c00p-10",
            "0x1.5b55370587b10p-4", "0x1.6986ba2d80a4cp-2",
        ],
        8: [
            "0x1.b600000000000p-42", "0x1.e2d792c92c000p-15", "0x1.dfa7138a39000p-13",
            "0x1.e09be7d7c3000p-13", "0x1.e19101fe44000p-13", "0x1.dc634eb791000p-11",
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

    def test_seed19_within_purity_maximum(self):
        q = subentropy(SEED19_SPECTRUM)
        assert q.hex() == SEED19_SUBENTROPY
        assert abs(q - subentropy_divided_difference(SEED19_SPECTRUM)) <= 1e-16
        top = max_subentropy_at_purity(6, math.fsum(x * x for x in SEED19_SPECTRUM)).value
        assert top - q > 1e-7

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
        rng = np.random.default_rng(16)
        for n in range(2, 9):
            values = golden_spectrum(kind, n)
            forms = [
                values,
                np.array(values),
                Spectrum(values, normalized=True),
                values[::-1],
                rng.permutation(values),
            ]
            got = [subentropy(v) for v in forms]
            assert all(type(q) is float for q in got)
            assert len({q.hex() for q in got}) == 1


def _checked_reference(x):
    # the array rule and the kernel on the floored values it returns, or
    # None where the rule raises
    try:
        v = _checks.probabilities(x, "spectrum", NotNormalizedError, ndim=None)
    except NotNormalizedError:
        return None
    return _subentropy(v.tolist())


def _near_sum_bound(x):
    # a sum within a few ulps of 1 +- 1e-10, where numpy's pairwise sum and
    # Python's sum may round to opposite sides of the bound
    try:
        v = np.asarray(x, dtype=float).reshape(-1)
        return abs(abs(math.fsum(v) - 1.0) - 1e-10) < 1e-14
    except (TypeError, ValueError, OverflowError):
        return False


def _assert_checked_like_arrays(x):
    want = _checked_reference(x)
    if want is None:
        with pytest.raises(NotNormalizedError):
            subentropy(x)
    else:
        assert subentropy(x).hex() == want.hex()


@st.composite
def _spectrum_inputs(draw):
    """Spectra near the probability rule's edges, in every input form."""
    n = draw(st.integers(0, 12))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    values = [w / total for w in weights] if total > 0.0 else weights
    # sums off by about 1e-10 on either side of the bound
    scale = draw(st.sampled_from([0.0, 0.5e-10, 0.9e-10, 1.1e-10, 2e-10, 1e-9, 0.1]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    values = [v * (1.0 + sign * scale) for v in values]
    if values and draw(st.booleans()):
        k = draw(st.integers(0, len(values) - 1))
        values[k] = draw(
            st.sampled_from(
                [-0.5e-12, -0.999e-12, -1.001e-12, -2e-12, -0.1, math.nan, math.inf, -math.inf, 0.0, -0.0]
            )
        )
    form = draw(st.sampled_from(["list", "array", "2d", "column", "strings", "ints"]))
    if form == "array":
        return np.array(values)
    if form == "2d":
        return np.array(values).reshape(2 if len(values) % 2 == 0 else 1, -1)
    if form == "column":
        return [[v] for v in values]
    if form == "strings":
        return [repr(v) for v in values]
    if form == "ints":
        return [round(v) for v in values if math.isfinite(v)]
    return values


class TestSubentropyCheck:
    """``subentropy`` checks a list or an array on the Python list it builds;
    it raises exactly where the array rule of ``_checks.probabilities``
    does and otherwise returns the kernel's bits on the floored values."""

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(_spectrum_inputs())
    def test_decides_like_the_array_rule(self, x):
        if not _near_sum_bound(x):
            _assert_checked_like_arrays(x)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=10,
        )
    )
    def test_fuzz_decides_like_the_array_rule(self, x):
        if not _near_sum_bound(x):
            _assert_checked_like_arrays(x)

    @pytest.mark.parametrize(
        "x",
        [
            [],
            np.zeros((0, 3)),
            "abc",
            ["a", "b"],
            [0.5, [0.5]],
            {"a": 1.0},
            [0.5, math.nan, 0.5],
            np.array([1.0, math.inf]),
            [1.0 + 1.1e-10],
            [1.0 - 1.1e-10],
            [1.0 + 2e-12, -2e-12],
            np.array([[0.5, 0.25], [0.25, 0.0]]),
            [True],
            ["0.25", "0.75"],
            [1e308, 1e308],
        ],
        ids=[
            "empty", "empty-2d", "string", "strings", "ragged", "dict", "nan", "inf",
            "sum-above", "sum-below", "below-floor", "2d", "bool", "numeric-strings",
            "sum-overflow",
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_edge_inputs(self, x):
        _assert_checked_like_arrays(x)

    @pytest.mark.parametrize("miss", [-2e-12, math.nan, 2e-12])
    def test_range_guard_raises(self, monkeypatch, miss):
        n = 5
        value = miss if miss <= 0.0 else _table(n).q_max + miss
        monkeypatch.setattr(entropy, "_subentropy", lambda values: value)
        with pytest.raises(DimensionTooLargeError):
            subentropy(np.full(n, 1.0 / n))

    @pytest.mark.parametrize("miss", [-0.5e-12, 0.5e-12])
    def test_range_guard_passes_roundoff(self, monkeypatch, miss):
        n = 5
        value = miss if miss < 0.0 else _table(n).q_max + miss
        monkeypatch.setattr(entropy, "_subentropy", lambda values: value)
        assert subentropy(np.full(n, 1.0 / n)) == max(value, 0.0)
