import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopurity import (
    DensityOperator,
    DimensionTooLargeError,
    Ensemble,
    HaarSampler,
    OptimizerConfig,
    Povm,
    accessible_info_opt,
    born_joint,
    depolarized_haar_ensemble,
    depolarized_scrooge_povm,
    distorted_ensemble,
    duality_check,
    holevo_upper,
    informational_power_opt,
    jrw_lower,
    max_accessible_information,
    mutual_information,
    optimal_commuting_ensemble,
    pure_state_density,
    symmetric_upper_bound,
)
from infopurity import infomeasures
from infopurity.cli import main
from infopurity.entropy import shannon_entropy
from infopurity.fileio import save_ensemble
from infopurity.infomeasures import _expectations, _weighted_action

from _oracles import (
    descent_gradient_einsum,
    descent_overlaps_einsum,
    power_channel_einsum,
    power_gradient_einsum,
    qubit_projective_grid_max,
    random_density_matrix,
    random_symmetrized_povm,
    see_saw_gradient_einsum,
    see_saw_joint_einsum,
)

LN2 = math.log(2)

# dense great-circle grid value for the {|0>, |+>} half-half ensemble
ACC_ZERO_PLUS = 0.2766516498602580


def basis_projector(n, k):
    return np.diag(np.eye(n)[k]).astype(complex)


def zero_plus_ensemble():
    return Ensemble(
        [(0.5, pure_state_density([1, 0])), (0.5, pure_state_density([1, 1]))]
    )


def random_ensemble(n, size, rng):
    weights = rng.dirichlet(np.ones(size))
    return Ensemble([(w, random_density_matrix(n, rng)) for w in weights])


class TestBounds:
    def test_jrw_orthogonal_pure(self):
        e = Ensemble([(0.5, basis_projector(2, 0)), (0.5, basis_projector(2, 1))])
        assert jrw_lower(e) == pytest.approx(LN2 - 0.5, abs=1e-12)

    def test_jrw_single_state(self):
        rho = DensityOperator(random_density_matrix(3, np.random.default_rng(0)))
        assert jrw_lower(Ensemble([(1.0, rho)])) == pytest.approx(0.0, abs=1e-12)

    def test_jrw_zero_plus(self):
        assert jrw_lower(zero_plus_ensemble()) == pytest.approx(
            0.1048829106295721, abs=1e-10
        )

    def test_holevo_orthogonal_pure(self):
        for n in (2, 4):
            e = Ensemble([(1.0 / n, basis_projector(n, k)) for k in range(n)])
            assert holevo_upper(e) == pytest.approx(math.log(n), abs=1e-12)

    def test_holevo_zero_plus(self):
        assert holevo_upper(zero_plus_ensemble()) == pytest.approx(
            0.4164955306996875, abs=1e-10
        )

    def test_holevo_single_state(self):
        rho = DensityOperator(random_density_matrix(2, np.random.default_rng(1)))
        assert holevo_upper(Ensemble([(1.0, rho)])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("excess, raises", [(0.0, False), (2e-9, True), (1.0, True)])
    def test_jrw_above_holevo_raises(self, monkeypatch, tmp_path, excess, raises):
        # a subentropy that has lost its accuracy shows as a bound above
        # Holevo's; Q is replaced by S, plus excess on the mixed average
        # state of two pure ones
        e = zero_plus_ensemble()

        def inflated(spectrum):
            value = shannon_entropy(spectrum.clipped())
            return value + excess if spectrum.values[0] < 0.99 else value

        monkeypatch.setattr(infomeasures, "subentropy", inflated)
        path = tmp_path / "e.json"
        save_ensemble(path, e)
        if raises:
            with pytest.raises(DimensionTooLargeError, match="exceeds the Holevo bound"):
                jrw_lower(e)
            assert main(["bounds", "--ensemble", str(path)]) == 4
        else:
            assert jrw_lower(e) == holevo_upper(e)
            assert main(["bounds", "--ensemble", str(path)]) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 8),
        st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_jrw_below_holevo_on_commuting_ensembles(self, n, raw, seed):
        # diagonal states in one basis: the subentropy bound stays below the
        # Holevo bound, which such an ensemble attains
        rng = np.random.default_rng(seed)
        weights = np.array(raw) / sum(raw)
        states = [np.diag(rng.dirichlet(np.full(n, 0.5))) for _ in raw]
        e = Ensemble(list(zip(weights, states)))
        assert jrw_lower(e) <= holevo_upper(e) + 1e-9


class TestAccessibleInfoOpt:
    def test_orthogonal_pure_reaches_log2(self):
        e = Ensemble([(0.5, basis_projector(2, 0)), (0.5, basis_projector(2, 1))])
        res = accessible_info_opt(e)
        assert res.value == pytest.approx(LN2, abs=1e-9)
        assert res.converged

    def test_zero_plus_matches_grid_oracle(self):
        e = zero_plus_ensemble()
        oracle = qubit_projective_grid_max(e.sub_normalized())
        assert oracle == pytest.approx(ACC_ZERO_PLUS, abs=1e-9)
        res = accessible_info_opt(e)
        assert res.value == pytest.approx(oracle, abs=1e-4)

    def test_commuting_ensemble_attains_holevo(self):
        e = optimal_commuting_ensemble(3, 0.4)
        res = accessible_info_opt(e)
        assert res.value == pytest.approx(
            max_accessible_information(3, 0.4).value, abs=1e-9
        )

    def test_returned_povm_reproduces_value(self):
        e = zero_plus_ensemble()
        res = accessible_info_opt(e)
        povm = res.argmax
        assert np.max(np.abs(povm.stack().sum(axis=0) - np.eye(2))) < 1e-8
        assert mutual_information(born_joint(e, povm)) == pytest.approx(
            res.value, abs=1e-9
        )

    def test_dimension_guard(self):
        e = Ensemble([(1.0, DensityOperator(np.eye(9, dtype=complex) / 9))])
        with pytest.raises(DimensionTooLargeError):
            accessible_info_opt(e)

    def test_sandwich_on_random_ensembles(self):
        rng = np.random.default_rng(33)
        for n, size, trials in ((2, 4, 20), (3, 5, 10)):
            for _ in range(trials):
                e = random_ensemble(n, size, rng)
                value = accessible_info_opt(e).value
                assert jrw_lower(e) - 1e-6 <= value <= holevo_upper(e) + 1e-6

    def test_holevo_tight_for_random_diagonal_ensembles(self):
        rng = np.random.default_rng(34)
        for n in (2, 3, 4):
            for _ in range(17):
                weights = rng.dirichlet(np.ones(n + 1))
                e = Ensemble(
                    [
                        (w, np.diag(rng.dirichlet(np.ones(n))).astype(complex))
                        for w in weights
                    ]
                )
                res = accessible_info_opt(e)
                assert abs(res.value - holevo_upper(e)) < 1e-4


class TestInformationalPowerOpt:
    def test_projective_basis(self):
        for n in (2, 3, 4, 5, 6):
            m = Povm([basis_projector(n, k) for k in range(n)])
            res = informational_power_opt(m)
            assert res.value == pytest.approx(math.log(n), abs=1e-6)

    def test_trivial_povm(self):
        m = Povm([np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2])
        assert informational_power_opt(m).value == pytest.approx(0.0, abs=1e-12)

    def test_discrete_scrooge_near_curve_value(self):
        m = depolarized_scrooge_povm(2, 1.0, 10**4, seed=5)
        res = informational_power_opt(m, OptimizerConfig(restarts=2))
        assert abs(res.value - (LN2 - 0.5)) < 0.01

    def test_returned_ensemble_reproduces_value(self):
        m = Povm([basis_projector(2, 0), basis_projector(2, 1)])
        res = informational_power_opt(m)
        ensemble = res.argmax
        assert mutual_information(born_joint(ensemble, m)) == pytest.approx(
            res.value, abs=1e-9
        )

    def test_dominates_uniformly_distorted_accessible_info(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            m = Povm(random_symmetrized_povm(2, 4, rng))
            w = informational_power_opt(m).value
            ens = distorted_ensemble(m, DensityOperator(np.eye(2, dtype=complex) / 2))
            a = accessible_info_opt(ens).value
            assert w >= a - 1e-9

    @pytest.mark.parametrize("n, count", [(2, 16), (2, 64), (2, 256), (3, 27), (3, 81)])
    def test_matmul_kernels_match_einsum(self, n, count):
        stack = depolarized_scrooge_povm(n, 0.9, count, seed=count).stack()
        flat = stack.reshape(count, -1)
        states = np.stack([HaarSampler(n, 0, stream_id=r).states(n * n) for r in range(4)])
        channel = _expectations(flat, states)
        ref = power_channel_einsum(stack, states)
        assert np.abs(channel - ref).max() <= 1e-15 * np.abs(ref).max()
        logs = np.log(np.maximum(channel, 1e-300)) - np.log(channel.mean(axis=1, keepdims=True))
        grad = _weighted_action(flat, logs, states)
        ref = power_gradient_einsum(stack, logs, states)
        assert np.abs(grad - ref).max() <= 1e-15 * np.abs(ref).max()


def _close(got, ref):
    return np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_see_saw_kernels_match_einsum(n):
    # the see-saw's joint and gradient through the shared kernels, on
    # sub-normalized states and four Haar frames of n^2 outcomes
    rng = np.random.default_rng(40 + n)
    weights = rng.dirichlet(np.ones(n + 2))
    rhos = np.stack([w * random_density_matrix(n, rng) for w in weights])
    flat = rhos.reshape(len(rhos), -1)
    vecs = np.stack([HaarSampler(n, 1, stream_id=r).states(n * n) for r in range(4)])
    p = _expectations(flat, vecs).swapaxes(-1, -2)
    assert _close(p, see_saw_joint_einsum(rhos, vecs))
    logs = rng.standard_normal(p.shape)
    grad = _weighted_action(flat, logs.swapaxes(-1, -2), vecs)
    assert _close(grad, see_saw_gradient_einsum(rhos, logs, vecs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_descent_kernels_match_einsum(n):
    # the descent's overlaps and gradient through the shared kernels, on
    # 32 unit vectors held as (1, n) blocks
    rng = np.random.default_rng(50 + n)
    sigmas = np.stack([random_density_matrix(n, rng) for _ in range(n + 3)])
    flat = sigmas.reshape(len(sigmas), -1)
    phi = HaarSampler(n, 2, stream_id=0).states(32)
    u = _expectations(flat, phi[:, None, :])[:, 0]
    ref = descent_overlaps_einsum(sigmas, phi)
    assert ref.min() > 0.0  # the kernel's floor at 0 does not act
    assert _close(u, ref)
    coef = rng.standard_normal(u.shape)
    grad = _weighted_action(flat, coef[:, None, :], phi[:, None, :])[:, 0]
    assert _close(grad, descent_gradient_einsum(sigmas, coef, phi))


class TestSymmetricUpperBound:
    def test_orthogonal_pure(self):
        e = Ensemble([(0.5, basis_projector(2, 0)), (0.5, basis_projector(2, 1))])
        assert symmetric_upper_bound(e) == pytest.approx(LN2, abs=1e-9)

    def test_maximally_mixed_copies(self):
        mm = DensityOperator(np.eye(3, dtype=complex) / 3)
        e = Ensemble([(0.5, mm), (0.5, mm)])
        assert symmetric_upper_bound(e) == pytest.approx(0.0, abs=1e-9)

    def test_haar_ensemble_near_curve_value(self):
        e = depolarized_haar_ensemble(2, 1.0, 1000, seed=3)
        assert abs(symmetric_upper_bound(e) - (LN2 - 0.5)) < 0.02

    def test_upper_bounds_optimizer_on_uniform_average(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            # ensemble averaging to the maximally mixed state: povm / n
            m = Povm(random_symmetrized_povm(2, 4, rng))
            e = distorted_ensemble(m, DensityOperator(np.eye(2, dtype=complex) / 2))
            assert symmetric_upper_bound(e) >= accessible_info_opt(e).value - 1e-6


class TestDualityCheck:
    def test_projective_with_mixed_grid(self):
        m = Povm([basis_projector(2, 0), basis_projector(2, 1)])
        grid = [
            DensityOperator(np.eye(2, dtype=complex) / 2),
            DensityOperator(np.diag([0.8, 0.2]).astype(complex)),
        ]
        rep = duality_check(m, grid)
        assert rep.lower_bound_holds
        assert rep.w_value == pytest.approx(LN2, abs=1e-9)
        assert rep.max_a_value == pytest.approx(LN2, abs=1e-9)

    def test_trivial_povm(self):
        m = Povm([np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2])
        grid = [DensityOperator(np.diag([0.7, 0.3]).astype(complex))]
        rep = duality_check(m, grid)
        assert rep.w_value == pytest.approx(0.0, abs=1e-12)
        assert rep.max_a_value == pytest.approx(0.0, abs=1e-12)

    def test_random_qubit_povm_grid_maximum(self):
        rng = np.random.default_rng(42)
        m = Povm(random_symmetrized_povm(2, 4, rng))
        mm = np.eye(2, dtype=complex) / 2
        grid = [DensityOperator(mm)]
        for t in np.linspace(0.1, 0.95, 19):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            proj = np.outer(v, v.conj()) / np.vdot(v, v).real
            grid.append(DensityOperator((1 - t) * mm + t * proj))
        rep = duality_check(m, grid)
        assert rep.lower_bound_holds
        assert abs(rep.duality_gap) < 1e-2

    def test_distorted_family_sums_to_rho(self):
        rng = np.random.default_rng(43)
        m = Povm(random_symmetrized_povm(3, 5, rng))
        rho = DensityOperator(random_density_matrix(3, rng))
        e = distorted_ensemble(m, rho)
        assert np.max(np.abs(e.average.matrix - rho.matrix)) < 1e-10
