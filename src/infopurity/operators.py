"""Complex Hermitian linear algebra and quantum objects.

Dense matrices only.  Everything here is a plain value object: instances
are immutable after construction and all operations are pure functions,
so they can be used freely from concurrent code.
"""

from __future__ import annotations

import numpy as np

from . import _checks
from .errors import (
    DimensionMismatchError,
    EpsilonOutOfRangeError,
    InfopurityError,
    NoConvergenceError,
    NonHermitianError,
    ValidationError,
    ZeroTraceError,
)

TOL_HERM = 1e-10
TOL_PSD = 1e-9
TOL_TRACE = 1e-10
TOL_COMPLETENESS = 1e-8


def _as_square_complex(entries) -> np.ndarray:
    m = _checks.array(entries, "matrix", ndim=2, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class HermitianOperator:
    """A dense complex matrix checked (and stored) as Hermitian.

    The constructor rejects inputs whose anti-Hermitian part exceeds
    1e-10 in max-abs; the stored matrix is the Hermitian part of the
    input, so downstream arithmetic sees an exactly Hermitian operator.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries):
        m = _as_square_complex(entries)
        dev = np.max(np.abs(m - m.conj().T))
        if dev > TOL_HERM:
            raise NonHermitianError(
                f"max |M - M^dag| = {dev:.3e} exceeds tolerance {TOL_HERM:.1e}"
            )
        self.matrix: np.ndarray = _frozen((m + m.conj().T) / 2.0)

    @classmethod
    def _checked(cls, matrix: np.ndarray) -> HermitianOperator:
        # wraps a read-only matrix that has passed the constructor's checks
        op = cls.__new__(cls)
        op.matrix = matrix
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class Spectrum:
    """Real eigenvalue vector stored in non-increasing order.

    ``normalized`` flags spectra of density operators (non-negative up to
    a -1e-9 roundoff floor, unit sum within 1e-10); general Hermitian
    spectra carry ``normalized=False``.
    """

    __slots__ = ("values", "normalized")

    def __init__(self, values, normalized: bool | None = None):
        v = np.sort(_checks.array(values, "spectrum"))[::-1].copy()
        if normalized is None:
            normalized = bool(
                abs(v.sum() - 1.0) <= TOL_TRACE and v[-1] >= -TOL_PSD
            )
        elif normalized:
            _checks.probabilities(v, "normalized spectrum", floor=-TOL_PSD)
        self.values: np.ndarray = _frozen(v)
        self.normalized: bool = normalized

    @property
    def n(self) -> int:
        return self.values.size

    def clipped(self) -> np.ndarray:
        """Values with tiny negative roundoff floored at zero."""
        return np.maximum(self.values, 0.0)

    def __repr__(self) -> str:
        return f"Spectrum({self.values.tolist()}, normalized={self.normalized})"


def eig_hermitian(x: HermitianOperator | np.ndarray) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Returns ``(spectrum, basis)`` with eigenvalues sorted non-increasing
    and ``basis`` unitary such that ``X = basis @ diag(values) @ basis^dag``.
    Each basis column carries a canonical phase: its largest-magnitude
    entry (the first one, among entries equal to it within a relative
    1e-9) is real and positive, so saved bases do not depend on the LAPACK
    build.  The basis inside a degenerate cluster is an arbitrary
    orthonormal completion.

    Raises ``NoConvergenceError`` if LAPACK fails to converge.
    """
    if not isinstance(x, HermitianOperator):
        x = HermitianOperator(x)
    try:
        evals, basis = np.linalg.eigh(x.matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh did not converge: {exc}") from exc
    evals, basis = evals[::-1], basis[:, ::-1]
    mag = np.abs(basis)
    cols = np.arange(basis.shape[1])
    rows = np.argmax(mag >= mag.max(axis=0) * (1.0 - 1e-9), axis=0)
    pivots = basis[rows, cols]
    basis = basis * (pivots.conj() / np.abs(pivots))
    basis[rows, cols] = np.abs(pivots)  # exactly real, free of phase roundoff
    return Spectrum(evals, normalized=None), basis


class DensityOperator:
    """Positive-semidefinite unit-trace Hermitian operator.

    The spectrum is computed once at construction (eigenvalues only, by
    LAPACK ``eigvalsh``; used for validation) and cached on the instance.
    """

    __slots__ = ("op", "spectrum")

    def __init__(self, entries):
        op = entries if isinstance(entries, HermitianOperator) else HermitianOperator(entries)
        if abs(op.trace - 1.0) > TOL_TRACE:
            raise ValidationError(f"trace is {op.trace!r}, must be 1 within 1e-10")
        try:
            evals = np.linalg.eigvalsh(op.matrix)  # ascending
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"eigvalsh did not converge: {exc}") from exc
        if evals[0] < -TOL_PSD:
            raise ValidationError(
                f"matrix is not PSD: min eigenvalue {evals[0]:.3e} < -1e-9"
            )
        self.op: HermitianOperator = op
        self.spectrum: Spectrum = Spectrum(evals, normalized=True)

    @classmethod
    def _checked(cls, op: HermitianOperator, evals: np.ndarray) -> DensityOperator:
        # wraps an operator that has passed the constructor's checks, with
        # its ascending eigenvalues
        state = cls.__new__(cls)
        state.op = op
        state.spectrum = Spectrum(evals, normalized=True)
        return state

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def pure_state_density(vector) -> DensityOperator:
    """Projector |v><v| / <v|v> as a DensityOperator."""
    v = _checks.array(vector, "state vector", ndim=None, dtype=complex)
    nrm2 = float(np.vdot(v, v).real)
    if nrm2 <= 0.0:
        raise ValidationError("zero vector cannot define a pure state")
    return DensityOperator(np.outer(v, v.conj()) / nrm2)


class Ensemble:
    """Weighted family of density operators with unit total weight.

    Stored as (weight, normalized state) pairs; the sub-normalized members
    are ``weight * state``.  The weighted average must itself be a valid
    density operator.
    """

    __slots__ = ("dim", "items", "weights", "states", "average")

    def __init__(self, items):
        items = _checks.items(items, "items", pairs=True)
        weights = _checks.probabilities([w for w, _ in items], "weights", floor=0.0)
        states = [s for _, s in items]
        raw = [k for k, s in enumerate(states) if not isinstance(s, DensityOperator)]
        if raw:
            # checked as one stack; if a state fails or they do not stack,
            # one at a time, so the first failing state raises its own error
            built = _density_stack([states[k] for k in raw])
            for k, state in zip(raw, built or [DensityOperator(states[k]) for k in raw]):
                states[k] = state
        pairs = list(zip(weights.tolist(), states))
        dims = {s.dim for _, s in pairs}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed dimensions {sorted(dims)} in ensemble")
        self.dim: int = pairs[0][1].dim
        self.items: tuple = tuple(pairs)
        self.weights: np.ndarray = _frozen(weights)
        self.states: tuple = tuple(s for _, s in pairs)
        avg = sum(w * s.matrix for w, s in pairs)
        self.average: DensityOperator = DensityOperator(avg)

    def __len__(self) -> int:
        return len(self.items)

    def sub_normalized(self) -> np.ndarray:
        """Stack of the sub-normalized members w_x * sigma_x, shape (X, n, n)."""
        return np.stack([w * s.matrix for w, s in self.items])

    def __repr__(self) -> str:
        return f"Ensemble(dim={self.dim}, size={len(self.items)})"


def _square_stack(elements) -> np.ndarray | None:
    # equal-shape square matrices as one (K, n, n) complex array with
    # K, n >= 1; None for anything else, which is checked one at a time
    try:
        stack = np.asarray(elements, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        return None
    square = stack.ndim == 3 and stack.shape[1] == stack.shape[2]
    return stack if square and stack.size else None


def _hermitian_parts(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the Hermitian parts of a (K, n, n) complex stack and, per matrix,
    # whether HermitianOperator would reject it (non-finite or non-Hermitian)
    flipped = stack.conj().swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf: caught as non-finite
        dev = np.abs(stack - flipped).max(axis=(1, 2))
        parts = (stack + flipped) / 2.0
    return parts, ~np.isfinite(stack).all(axis=(1, 2)) | (dev > TOL_HERM)


def _hermitian_stack(stack: np.ndarray, field: str | None = None) -> np.ndarray:
    """The Hermitian parts of a ``(K, n, n)`` complex stack (K, n >= 1),
    each matrix checked as ``HermitianOperator`` checks one, in one pass
    over the stack; read-only.

    The first element that fails is rebuilt alone, so it raises that
    constructor's own error; with ``field`` the error becomes a
    ``ValidationError`` naming the element as ``field[k]``.
    """
    parts, bad = _hermitian_parts(stack)
    if bad.any():
        k = int(np.argmax(bad))
        try:
            HermitianOperator(stack[k])
        except InfopurityError as exc:
            if field is None:
                raise
            raise ValidationError(str(exc), field=f"{field}[{k}]") from exc
    return _frozen(parts)


def _density_stack(entries: list) -> list[DensityOperator] | None:
    """``DensityOperator``s of equal-shape square ``entries``, checked as
    the constructor checks each one but as one stack, with one stacked
    ``eigvalsh``; None if they do not stack or any of them fails."""
    stack = _square_stack(entries)
    if stack is None:
        return None
    parts, bad = _hermitian_parts(stack)
    bad |= ~(np.abs(np.trace(parts, axis1=1, axis2=2).real - 1.0) <= TOL_TRACE)
    if bad.any():
        return None
    try:
        evals = np.linalg.eigvalsh(parts)  # ascending
    except np.linalg.LinAlgError:
        return None
    if (evals[:, 0] < -TOL_PSD).any():
        return None
    return [
        DensityOperator._checked(HermitianOperator._checked(m), e)
        for m, e in zip(_frozen(parts), evals)
    ]


class Povm:
    """Positive operators summing to the identity (within 1e-8 max-abs).

    An ``(Y, n, n)`` array or a list of equal-shape square matrices is
    checked and symmetrized as one stack; ``HermitianOperator`` elements
    are taken as they are.
    """

    __slots__ = ("dim", "elements", "_stack")

    def __init__(self, elements):
        operators = False
        if not isinstance(elements, np.ndarray):
            elements = _checks.items(elements, "elements")
            operators = all(isinstance(e, HermitianOperator) for e in elements)
        # HermitianOperator elements never form an array: they skip the attempt
        stack = None if operators else _square_stack(elements)
        if stack is not None:
            stack = _hermitian_stack(stack)
            ops = tuple(HermitianOperator._checked(m) for m in stack)
        else:
            ops = tuple(
                e if isinstance(e, HermitianOperator) else HermitianOperator(e)
                for e in elements
            )
            if not ops:
                raise ValidationError("POVM needs at least one element")
            dims = {e.dim for e in ops}
            if len(dims) != 1:
                raise DimensionMismatchError(f"mixed dimensions {sorted(dims)} in POVM")
            stack = _frozen(np.stack([e.matrix for e in ops]))
        dim = stack.shape[1]
        min_evals = np.linalg.eigvalsh(stack)[:, 0]
        bad = np.flatnonzero(min_evals < -TOL_PSD)
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"min eigenvalue {min_evals[k]:.3e} < -1e-9",
                field=f"elements[{k}]",
            )
        dev = np.max(np.abs(stack.sum(axis=0) - np.eye(dim)))
        if dev > TOL_COMPLETENESS:
            raise ValidationError(
                f"completeness violated: max |sum - identity| = {dev:.3e} > 1e-8"
            )
        self.dim: int = dim
        self.elements: tuple = ops
        self._stack: np.ndarray = stack

    def __len__(self) -> int:
        return len(self.elements)

    def stack(self) -> np.ndarray:
        """Elements as one (Y, n, n) array."""
        return self._stack

    def __repr__(self) -> str:
        return f"Povm(dim={self.dim}, outcomes={len(self.elements)})"


class JointDistribution:
    """Joint probability matrix p[x, y] with row/column marginals."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = _checks.probabilities(probs, "joint distribution", ndim=2)
        self.probs: np.ndarray = _frozen(p)

    @property
    def p_x(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    @property
    def p_y(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def __repr__(self) -> str:
        return f"JointDistribution(shape={self.probs.shape})"


def purity(x) -> float:
    """Tr[X^2] / Tr[X]^2 for a Hermitian operator.

    Ranges over [1/n, 1] on density operators.  Raises ``ZeroTraceError``
    when |Tr X| <= 1e-12.
    """
    m = (x if isinstance(x, (DensityOperator, HermitianOperator)) else HermitianOperator(x)).matrix
    tr = float(np.trace(m).real)
    if abs(tr) <= 1e-12:
        raise ZeroTraceError(f"trace {tr!r} too close to zero")
    # for Hermitian M, Tr[M^2] equals the squared Frobenius norm
    tr2 = float(np.vdot(m, m).real)
    return tr2 / tr**2


def elementary_symmetric2(spectrum) -> float:
    """Second elementary symmetric polynomial sum_{k<j} l_k l_j.

    Satisfies ``purity = 1 - 2 * elementary_symmetric2`` for unit-trace
    spectra.
    """
    v = spectrum.values if isinstance(spectrum, Spectrum) else _checks.array(spectrum, "spectrum")
    s = float(v.sum())
    return (s * s - float(np.dot(v, v))) / 2.0


def depolarize(x, epsilon: float) -> HermitianOperator:
    """eps * X + (1 - eps) * Tr[X] * I / n, positive for -1/(n-1) <= eps <= 1."""
    op = x if isinstance(x, HermitianOperator) else HermitianOperator(x)
    n = op.dim
    lo = -1.0 / (n - 1) if n > 1 else 0.0
    epsilon = _checks.real(epsilon, "epsilon", lo, 1.0, EpsilonOutOfRangeError)
    out = epsilon * op.matrix + (1.0 - epsilon) * op.trace * np.eye(n) / n
    return HermitianOperator(out)


def born_joint(ensemble: Ensemble, povm: Povm) -> JointDistribution:
    """Born-rule joint distribution p[x, y] = Tr[rho_x pi_y]."""
    if ensemble.dim != povm.dim:
        raise DimensionMismatchError(
            f"ensemble dim {ensemble.dim} != POVM dim {povm.dim}"
        )
    rhos = ensemble.sub_normalized()
    probs = np.einsum("xij,yji->xy", rhos, povm.stack()).real
    return JointDistribution(probs)
