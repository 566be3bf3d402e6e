import numpy as np
import pytest

from infopurity import (
    DensityOperator,
    DimensionMismatchError,
    Ensemble,
    EpsilonOutOfRangeError,
    HermitianOperator,
    JointDistribution,
    NonHermitianError,
    Povm,
    Spectrum,
    ValidationError,
    ZeroTraceError,
    born_joint,
    depolarize,
    eig_hermitian,
    elementary_symmetric2,
    pure_state_density,
    purity,
)

from _oracles import random_density_matrix, random_hermitian


def basis_projector(n, k):
    return np.diag(np.eye(n)[k]).astype(complex)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((2, 3)))

    def test_tolerates_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 2e-12j, 0.0]])
        op = HermitianOperator(m)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0


class TestEigHermitian:
    def test_already_diagonal(self):
        spec, basis = eig_hermitian(np.diag([0.7, 0.3]).astype(complex))
        assert spec.values.tolist() == [0.7, 0.3]
        assert np.allclose(basis, np.eye(2))

    def test_pauli_x(self):
        spec, _ = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        assert spec.values == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_random_4x4_reconstruction(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(4, rng)
        spec, basis = eig_hermitian(h)
        rec = basis @ np.diag(spec.values) @ basis.conj().T
        assert np.max(np.abs(rec - h)) < 1e-9

    def test_lapack_failure_raises(self, monkeypatch):
        from infopurity import NoConvergenceError

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(NoConvergenceError):
            eig_hermitian(h)

    def test_round_trip_1000_random(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            h = random_hermitian(n, rng)
            spec, basis = eig_hermitian(h)
            rec = basis @ np.diag(spec.values) @ basis.conj().T
            assert np.max(np.abs(rec - h)) < 1e-9
            assert np.max(np.abs(basis @ basis.conj().T - np.eye(n))) < 1e-9
            assert np.all(np.diff(spec.values) <= 1e-12)
            pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(n)]
            assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0.0)


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(np.eye(3, dtype=complex) / 3) == pytest.approx(1 / 3, abs=1e-14)

    def test_rank_one_projector(self):
        assert purity(basis_projector(2, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_depolarized_pure_state_law(self):
        # P(D_eps(phi)) = ((n-1) eps^2 + 1)/n
        d = depolarize(basis_projector(2, 0), 0.5)
        assert purity(d) == pytest.approx(0.625, abs=1e-14)

    def test_zero_trace_rejected(self):
        with pytest.raises(ZeroTraceError):
            purity(np.diag([1.0, -1.0]).astype(complex))


class TestElementarySymmetric2:
    def test_pure(self):
        assert elementary_symmetric2(np.array([1.0, 0.0])) == 0.0

    def test_uniform_pair(self):
        assert elementary_symmetric2(np.array([0.5, 0.5])) == pytest.approx(0.25)

    def test_purity_identity(self):
        v = np.array([0.5, 0.3, 0.2])
        e2 = elementary_symmetric2(v)
        assert e2 == pytest.approx(0.31, abs=1e-12)
        assert 1.0 - 2.0 * e2 == pytest.approx(purity(np.diag(v).astype(complex)), abs=1e-12)


class TestDepolarize:
    def test_identity_map(self):
        h = HermitianOperator(random_hermitian(3, np.random.default_rng(4)))
        assert np.allclose(depolarize(h, 1.0).matrix, h.matrix, atol=1e-13)

    def test_full_depolarization(self):
        rho = random_density_matrix(4, np.random.default_rng(5))
        out = depolarize(HermitianOperator(rho), 0.0)
        assert np.max(np.abs(out.matrix - np.eye(4) / 4)) < 1e-13

    def test_negative_branch_flips_qubit_projector(self):
        out = depolarize(basis_projector(2, 0), -1.0)
        assert np.max(np.abs(out.matrix - basis_projector(2, 1))) < 1e-13

    def test_range_check(self):
        with pytest.raises(EpsilonOutOfRangeError):
            depolarize(basis_projector(3, 0), -0.6)
        with pytest.raises(EpsilonOutOfRangeError):
            depolarize(basis_projector(3, 0), 1.1)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        h = HermitianOperator(random_hermitian(5, rng))
        for eps in (-0.25, 0.0, 0.3, 1.0):
            assert depolarize(h, eps).trace == pytest.approx(h.trace, abs=1e-13)

    def test_self_duality_under_trace(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            x = random_hermitian(n, rng)
            y = random_hermitian(n, rng)
            for eps in (-1.0 / (n - 1), 0.0, 0.3, 1.0):
                lhs = np.trace(depolarize(HermitianOperator(x), eps).matrix @ y)
                rhs = np.trace(x @ depolarize(HermitianOperator(y), eps).matrix)
                assert abs(lhs - rhs) < 1e-10

    def test_purity_law_and_convexity(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            rho = DensityOperator(random_density_matrix(n, rng))
            for eps in (0.0, 0.2, 0.7, 1.0):
                out = depolarize(rho.op, eps)
                expected = eps**2 * purity(rho) + (1 - eps**2) / n
                assert purity(out) == pytest.approx(expected, abs=1e-12)
            rho2 = DensityOperator(random_density_matrix(n, rng))
            for t in (0.25, 0.5, 0.75):
                mix = t * rho.matrix + (1 - t) * rho2.matrix
                assert purity(HermitianOperator(mix)) <= (
                    t * purity(rho) + (1 - t) * purity(rho2) + 1e-10
                )


class TestQuantumTypes:
    def test_density_operator_validation(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([0.6, 0.6]).astype(complex))  # trace 1.2
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))  # not PSD

    def test_spectrum_sorted_and_flagged(self):
        s = Spectrum([0.2, 0.5, 0.3])
        assert s.values.tolist() == [0.5, 0.3, 0.2]
        assert s.normalized
        assert not Spectrum([1.0, -1.0]).normalized

    def test_ensemble_validation(self):
        good = Ensemble([(0.5, basis_projector(2, 0)), (0.5, basis_projector(2, 1))])
        assert good.dim == 2
        assert np.allclose(good.average.matrix, np.eye(2) / 2)
        with pytest.raises(ValidationError):
            Ensemble([(0.6, basis_projector(2, 0)), (0.6, basis_projector(2, 1))])
        with pytest.raises(ValidationError):
            Ensemble([(-0.1, basis_projector(2, 0)), (1.1, basis_projector(2, 1))])

    def test_povm_validation(self):
        Povm([basis_projector(2, 0), basis_projector(2, 1)])
        with pytest.raises(ValidationError):
            Povm([basis_projector(2, 0), 0.5 * basis_projector(2, 1)])  # incomplete
        with pytest.raises(ValidationError):
            Povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])  # not PSD

    def test_povm_names_first_non_psd_element(self):
        elements = [np.eye(2, dtype=complex) / 5 for _ in range(5)]
        elements[3] = np.diag([0.3, -0.1]).astype(complex)
        elements[4] = np.diag([0.1, 0.5]).astype(complex)
        with pytest.raises(ValidationError) as err:
            Povm(elements)
        assert err.value.field == "elements[3]"

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[0.2, 0.1], [0.0, 0.2]]), NonHermitianError),
            (np.array([[0.2, 1e-10j], [1e-10j, 0.2]]), NonHermitianError),
            (np.array([[np.nan, 0.0], [0.0, 0.2]]), ValidationError),
            (np.array([[0.2, np.inf], [np.inf, 0.2]]), ValidationError),
        ],
        ids=["non-hermitian", "just-above-tolerance", "nan", "inf"],
    )
    def test_stack_raises_first_elements_own_error(self, as_list, bad, error):
        # the stacked check names what HermitianOperator says of the first
        # bad element; a later bad element of another kind is not reached
        stack = np.stack([np.eye(2, dtype=complex) / 6] * 6)
        stack[2] = bad
        stack[4] = [[0.2, np.nan], [0.0, 0.2]]
        with pytest.raises(error) as want:
            HermitianOperator(bad)
        with pytest.raises(error) as got:
            Povm(list(stack) if as_list else stack)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_stack_keeps_element_bits(self):
        # each element equals its one-matrix Hermitian part, bit for bit
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
        raw = raw @ raw.conj().swapaxes(1, 2)
        inv = np.linalg.inv(np.linalg.cholesky(raw.sum(axis=0)))
        stack = inv @ raw @ inv.conj().T
        stack += 1e-12j * rng.standard_normal(stack.shape)  # inside the tolerance
        for elements in (stack, list(stack), list(Povm(stack).elements)):
            m = Povm(elements)
            want = [HermitianOperator(x).matrix for x in stack]
            assert [e.matrix.tobytes() for e in m.elements] == [w.tobytes() for w in want]
            assert m.stack().tobytes() == np.stack(want).tobytes()
            assert not m.stack().flags.writeable
            assert not m.elements[0].matrix.flags.writeable

    def test_operators_and_arrays_in_one_list(self):
        # operators are kept as they are, the arrays beside them checked one at
        # a time, and the PSD check on the stack names the element it fails
        half = basis_projector(2, 0) / 2
        op = HermitianOperator(half)
        rest = basis_projector(2, 1) / 2
        m = Povm([op, rest, op, rest * (1 + 1e-12j)])
        assert m.elements[0] is op and m.elements[2] is op
        want = [half, rest, half, HermitianOperator(rest * (1 + 1e-12j)).matrix]
        assert m.stack().tobytes() == np.stack(want).tobytes()
        assert not m.stack().flags.writeable
        with pytest.raises(DimensionMismatchError, match=r"mixed dimensions \[2, 3\]"):
            Povm([op, np.eye(3, dtype=complex)])
        with pytest.raises(DimensionMismatchError):
            Povm([HermitianOperator(np.eye(3)), op, rest])
        with pytest.raises(ValidationError) as err:
            Povm([op, HermitianOperator(np.diag([1.5, 0.0])), np.diag([-1.0, 1.0])])
        assert err.value.field == "elements[2]"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HermitianOperator([[np.nan, 0.0], [0.0, 1.0]]),
            lambda: DensityOperator([[0.5, np.inf], [np.inf, 0.5]]),
            lambda: Povm([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])]),
            lambda: eig_hermitian(np.full((2, 2), np.nan, dtype=complex)),
            lambda: Ensemble(
                [(np.nan, basis_projector(2, 0)), (1.0, basis_projector(2, 1))]
            ),
            lambda: Spectrum([np.nan, 1.0]),
            lambda: JointDistribution([[np.nan, 0.5], [0.25, 0.25]]),
            lambda: HermitianOperator([["a", "b"], ["c", "d"]]),
        ],
        ids=[
            "hermitian", "density", "povm", "eig", "ensemble-weight", "spectrum",
            "joint", "non-numeric",
        ],
    )
    def test_rejects_non_finite(self, build):
        with pytest.raises(ValidationError):
            build()


class TestBornJoint:
    def test_single_outcome(self):
        e = Ensemble([(1.0, DensityOperator(np.eye(3, dtype=complex) / 3))])
        m = Povm([np.eye(3, dtype=complex)])
        assert np.allclose(born_joint(e, m).probs, [[1.0]], atol=1e-14)

    def test_perfect_correlation(self):
        e = Ensemble([(0.5, basis_projector(2, 0)), (0.5, basis_projector(2, 1))])
        m = Povm([basis_projector(2, 0), basis_projector(2, 1)])
        assert np.allclose(born_joint(e, m).probs, [[0.5, 0], [0, 0.5]])

    def test_zero_plus_ensemble(self):
        e = Ensemble(
            [(0.5, pure_state_density([1, 0])), (0.5, pure_state_density([1, 1]))]
        )
        m = Povm([basis_projector(2, 0), basis_projector(2, 1)])
        assert np.allclose(born_joint(e, m).probs, [[0.5, 0.0], [0.25, 0.25]])

    def test_dimension_mismatch(self):
        e = Ensemble([(1.0, DensityOperator(np.eye(2, dtype=complex) / 2))])
        m = Povm([np.eye(3, dtype=complex)])
        with pytest.raises(DimensionMismatchError):
            born_joint(e, m)

    def test_row_marginals_are_weights(self):
        rng = np.random.default_rng(10)
        weights = rng.dirichlet(np.ones(4))
        e = Ensemble(
            [(w, random_density_matrix(3, rng)) for w in weights]
        )
        g = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
        raw = np.einsum("kiv,kjv->kij", g, g.conj())
        s = raw.sum(axis=0)
        evals, basis = np.linalg.eigh(s)
        inv = (basis * (1.0 / np.sqrt(evals))) @ basis.conj().T
        m = Povm([inv @ x @ inv for x in raw])
        joint = born_joint(e, m)
        assert np.max(np.abs(joint.p_x - weights)) < 1e-12
