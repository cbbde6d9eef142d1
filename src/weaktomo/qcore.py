"""Finite-dimensional states, bases, observables, and distance metrics.

All matrices are stored against the computational reference basis.  Vectors
are one-dimensional complex arrays; bases keep their vectors as columns.
Arrays held by the types below are frozen (read-only views) after validation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError

# Tolerance policy: exact-path algebra at 1e-12, anything that went through
# an eigen-decomposition at 1e-10, probability floor at 1e-14.
ATOL_EXACT = 1e-12
ATOL_EIG = 1e-10
PROB_FLOOR = 1e-14


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} holds a non-finite value")


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {dim!r}")


def fix_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude entry is real positive.

    Ties in magnitude are broken by the lowest index (np.argmax picks the
    first maximum).  Zero vectors are returned unchanged.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    k = int(np.argmax(np.abs(amplitudes)))
    pivot = amplitudes[k]
    if pivot == 0:
        return amplitudes.copy()
    return amplitudes * (abs(pivot) / pivot)


@dataclass(frozen=True)
class StateVector:
    """Pure state: unit-norm complex amplitudes in the reference basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_dim(amp.size)
        _check_finite(amp, "state vector")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > ATOL_EXACT:
            raise ValueError(f"state vector norm {norm} is not 1 within {ATOL_EXACT}")
        object.__setattr__(self, "amplitudes", _frozen(amp, complex))

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        _check_finite(amp, "state vector")
        norm = np.linalg.norm(amp)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amp / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, positive semidefinite, unit trace.

    ``min_eigenvalue`` is the smallest eigenvalue found by the PSD check.
    """

    elements: np.ndarray
    min_eigenvalue: float = field(init=False, repr=False, compare=False)
    # (eigenvalues, eigenvectors) of ``elements`` when the matrix was built
    # from its eigendecomposition; fidelity reuses it instead of calling eigh.
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _check_dim(mat.shape[0])
        _check_finite(mat, "density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_EXACT:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > ATOL_EXACT:
            raise ValueError(f"trace {np.trace(mat)} is not 1 within {ATOL_EXACT}")
        # PSD check goes through eigh, so it gets the looser tolerance.
        min_eig = float(np.linalg.eigvalsh(mat).min())
        if min_eig < -ATOL_EIG:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "elements", _frozen(mat, complex))
        object.__setattr__(self, "min_eigenvalue", min_eig)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def _density_from_spectrum(vals: np.ndarray, vecs: np.ndarray) -> DensityMatrix:
    """The validated DensityMatrix V diag(vals) V^dag, carrying (vals, vecs)."""
    rho = DensityMatrix((vecs * vals) @ vecs.conj().T)
    vals, vecs = _frozen(vals, float), np.asarray(vecs, dtype=complex)
    vecs.setflags(write=False)
    object.__setattr__(rho, "_spectrum", (vals, vecs))
    return rho


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of C^d; vectors are the columns of ``vectors``."""

    vectors: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"basis must be a square matrix, got shape {mat.shape}")
        _check_dim(mat.shape[0])
        _check_finite(mat, "basis")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(mat.shape[0]))) > ATOL_EXACT:
            raise ValueError("basis columns are not orthonormal within 1e-12")
        object.__setattr__(self, "vectors", _frozen(mat, complex))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def column(self, j: int) -> StateVector:
        return StateVector(self.vectors[:, j])


@dataclass(frozen=True)
class TransitionMatrix:
    """Overlaps beta[j, i] = <b_j|a_i> between two orthonormal bases.

    The matrix is unitary by construction.  ``is_mub`` reports whether all
    overlap magnitudes equal 1/sqrt(d) within 1e-12 (mutually unbiased pair).
    """

    beta: np.ndarray
    is_mub: bool = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.beta, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"transition matrix must be square, got {mat.shape}")
        d = mat.shape[0]
        _check_dim(d)
        if np.max(np.abs(mat.conj().T @ mat - np.eye(d))) > ATOL_EXACT:
            raise ValueError("transition matrix is not unitary within 1e-12")
        mub = bool(np.max(np.abs(np.abs(mat) - 1.0 / np.sqrt(d))) <= ATOL_EXACT)
        object.__setattr__(self, "beta", _frozen(mat, complex))
        object.__setattr__(self, "is_mub", mub)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class Observable:
    """Hermitian observable with its eigensystem attached.

    ``eigenvalues`` are ascending; ``eigenbasis`` columns are the matching
    eigenvectors.  ``non_degenerate`` is True when the smallest eigenvalue
    gap exceeds 1e-10.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: OrthonormalBasis
    non_degenerate: bool

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        vals = np.asarray(self.eigenvalues, dtype=float)
        _check_finite(mat, "observable")
        _check_finite(vals, "observable eigenvalues")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_EXACT:
            raise ValueError("observable is not Hermitian within 1e-12")
        if mat.shape[0] != vals.size or mat.shape[0] != self.eigenbasis.dim:
            raise DimensionMismatchError("observable parts have mismatched dims")
        v = self.eigenbasis.vectors
        rebuilt = (v * vals) @ v.conj().T
        if np.max(np.abs(rebuilt - mat)) > ATOL_EIG:
            raise ValueError("eigensystem does not reproduce the observable within 1e-10")
        object.__setattr__(self, "matrix", _frozen(mat, complex))
        object.__setattr__(self, "eigenvalues", _frozen(vals, float))

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        mat = np.asarray(matrix, dtype=complex)
        hermitized = (mat + mat.conj().T) / 2.0
        if np.max(np.abs(mat - hermitized)) > ATOL_EXACT:
            raise ValueError("observable is not Hermitian within 1e-12")
        vals, vecs = np.linalg.eigh(hermitized)
        gap = np.diff(vals).min() if vals.size > 1 else np.inf
        return cls(hermitized, vals, OrthonormalBasis(vecs), bool(gap > ATOL_EIG))

    @classmethod
    def from_eigensystem(cls, eigenvalues, basis: OrthonormalBasis) -> "Observable":
        vals = np.asarray(eigenvalues, dtype=float)
        v = basis.vectors
        mat = (v * vals) @ v.conj().T
        gaps = np.diff(np.sort(vals))
        gap = gaps.min() if gaps.size else np.inf
        return cls(mat, vals, basis, bool(gap > ATOL_EIG))

    @classmethod
    def projector(cls, state: StateVector) -> "Observable":
        """|a><a| with its known eigensystem: eigenvalues (0, ..., 0, 1) over
        the columns [complement of a | a], so no eigh runs.  The matrix is
        the Hermitized outer product, bit for bit what ``from_matrix`` keeps."""
        a = state.amplitudes[:, None]
        outer = np.outer(a, a.conj())
        unit = a / np.linalg.norm(a)
        vals = np.zeros(state.dim)
        vals[-1] = 1.0
        basis = OrthonormalBasis(np.hstack([_complement(unit), unit]))
        return cls((outer + outer.conj().T) / 2.0, vals, basis, state.dim == 2)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _complement(given: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the complement of the given orthonormal
    (d, n) columns: the left singular vectors past the first n."""
    return np.linalg.svd(given)[0][:, given.shape[1]:]


def _complete_basis(columns: list[np.ndarray]) -> OrthonormalBasis:
    """Orthonormal basis whose first columns are the given orthonormal ones,
    kept verbatim, followed by their ``_complement``.  Columns that are not
    orthonormal fail the OrthonormalBasis check."""
    given = np.column_stack(columns)
    return OrthonormalBasis(np.hstack([given, _complement(given)]))


def reference_basis(dim: int) -> OrthonormalBasis:
    """Computational basis: the identity columns."""
    _check_dim(dim)
    return OrthonormalBasis(np.eye(dim, dtype=complex))


def fourier_basis(dim: int) -> OrthonormalBasis:
    """Discrete-Fourier basis, mutually unbiased to the reference basis.

    Column j has entries exp(2*pi*i*j*k/d)/sqrt(d), k = 0..d-1.  Every
    overlap with a reference-basis vector has magnitude 1/sqrt(d).
    """
    _check_dim(dim)
    k, j = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return OrthonormalBasis(np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim))


def transition_matrix(basis_a: OrthonormalBasis, basis_b: OrthonormalBasis) -> TransitionMatrix:
    """Overlap matrix beta[j, i] = <b_j|a_i> between two bases."""
    if basis_a.dim != basis_b.dim:
        raise DimensionMismatchError(f"dims {basis_a.dim} and {basis_b.dim} differ")
    return TransitionMatrix(basis_b.vectors.conj().T @ basis_a.vectors)


def random_pure_state(dim: int, seed) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian vector."""
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amp / np.linalg.norm(amp))


def random_density_matrix(dim: int, rank: int, seed) -> DensityMatrix:
    """Random density matrix from the Ginibre ensemble, rho = G G^dag / tr."""
    _check_dim(dim)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def _as_density(x) -> np.ndarray:
    if isinstance(x, StateVector):
        return np.outer(x.amplitudes, x.amplitudes.conj())
    if isinstance(x, DensityMatrix):
        return x.elements
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(x).__name__}")


def fidelity(x, y) -> float:
    """Fidelity between two states (pure or mixed, in any combination).

    Pure-pure pairs use |<x|y>|^2; a pure-mixed pair uses <psi|rho|psi>;
    the general case is (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, with rho = x
    and sqrt(rho) taken from the eigendecomposition x carries, if it does.
    """
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        return float(abs(x.overlap(y)) ** 2)
    if isinstance(x, StateVector):
        x, y = y, x
    if isinstance(y, StateVector):
        rho = _as_density(x)
        if rho.shape[0] != y.dim:
            raise DimensionMismatchError(f"dims {rho.shape[0]} and {y.dim} differ")
        val = np.vdot(y.amplitudes, rho @ y.amplitudes).real
        return float(min(max(val, 0.0), 1.0))
    rho, sigma = _as_density(x), _as_density(y)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes {rho.shape} and {sigma.shape} differ")
    vals, vecs = x._spectrum if x._spectrum is not None else np.linalg.eigh(rho)
    sq = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(sq @ sigma @ sq)
    root = np.sqrt(np.clip(inner, 0.0, None)).sum()
    return float(min(root**2, 1.0))


def trace_distance(x, y) -> float:
    """Trace distance (1/2) tr |rho - sigma|; accepts pure or mixed states."""
    rho, sigma = _as_density(x), _as_density(y)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes {rho.shape} and {sigma.shape} differ")
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
