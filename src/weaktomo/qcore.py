"""Finite-dimensional states, bases, observables, and distance metrics.

All matrices are stored against the computational reference basis.  Vectors
are one-dimensional complex arrays; bases keep their vectors as columns.
Every array enters the types below through one check, ``_checked_array``:
a vector or a square matrix, of dimension at least 2, with finite entries.
Arrays held by the types below are frozen (read-only views) after validation.
"""

import functools
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


def _check_integer(value, name: str, low=-np.inf, high=np.inf, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer, not a bool, in [low, high]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise error(f"{name} must lie in [{low}, {high}], got {value}")


def _check_dim(dim: int) -> None:
    _check_integer(dim, "dimension", 2, error=InvalidDimensionError)


def _checked_array(arr, name: str, ndim: int) -> np.ndarray:
    """``arr`` as a complex vector (``ndim`` 1) or square matrix (``ndim`` 2)
    of dimension >= 2 with finite entries.  A wrong rank or a non-square matrix
    raises DimensionMismatchError, a dimension below 2 InvalidDimensionError."""
    out = np.asarray(arr, dtype=complex)
    if out.ndim != ndim or out.shape != out.shape[:1] * ndim:
        kind = "a vector" if ndim == 1 else "a square matrix"
        raise DimensionMismatchError(f"{name} must be {kind}, got shape {out.shape}")
    _check_dim(out.shape[0])
    _check_finite(out, name)
    return out


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
        amp = _checked_array(self.amplitudes, "state vector", 1)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > ATOL_EXACT:
            raise ValueError(f"state vector norm {norm} is not 1 within {ATOL_EXACT}")
        object.__setattr__(self, "amplitudes", _frozen(amp, complex))

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        amp = _checked_array(amplitudes, "state vector", 1)
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


def _unit_trace_hermitian(elements) -> np.ndarray:
    """The frozen matrix, once it passes ``_checked_array`` and is Hermitian and
    of trace 1 within 1e-12: the checks every density matrix gets."""
    mat = _checked_array(elements, "density matrix", 2)
    if np.max(np.abs(mat - mat.conj().T)) > ATOL_EXACT:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(mat).real - 1.0) > ATOL_EXACT:
        raise ValueError(f"trace {np.trace(mat)} is not 1 within {ATOL_EXACT}")
    return _frozen(mat, complex)


_NEGATIVE_EIGENVALUE = "density matrix has an eigenvalue below -1e-10"


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, positive semidefinite, unit trace.

    The PSD check is a Cholesky factorisation of rho + 1e-10 I, which
    succeeds exactly when no eigenvalue of rho is below -1e-10.  A state
    built by ``_density_from_spectrum`` or ``_density_from_cholesky``
    carries a square root of its matrix, which ``fidelity`` reads.
    """

    elements: np.ndarray
    # A square root L of ``elements`` (L L^dag = rho) when the matrix was
    # built from one: V sqrt(Lambda) from its eigendecomposition, or its
    # Cholesky factor; fidelity reads it instead of calling eigh.
    _root: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _unit_trace_hermitian(self.elements)
        try:
            np.linalg.cholesky(mat + ATOL_EIG * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            raise ValueError(_NEGATIVE_EIGENVALUE) from None
        object.__setattr__(self, "elements", mat)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def _carrying_root(mat: np.ndarray, root: np.ndarray) -> DensityMatrix:
    """The checked matrix as a DensityMatrix with its square root attached."""
    root.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "elements", mat)
    object.__setattr__(rho, "_root", root)
    return rho


def _density_from_spectrum(vals: np.ndarray, vecs: np.ndarray) -> DensityMatrix:
    """The DensityMatrix V diag(vals) V^dag, carrying V sqrt(vals).

    It is checked as every density matrix is, except that PSD is read off
    the spectrum it is built from: no value below -1e-10, and V unitary
    within 1e-10.
    """
    vals, vecs = np.asarray(vals, dtype=float), np.asarray(vecs, dtype=complex)
    mat = _unit_trace_hermitian((vecs * vals) @ vecs.conj().T)
    if vals.min() < -ATOL_EIG:
        raise ValueError(_NEGATIVE_EIGENVALUE)
    # V^dag V - I, with 1 taken off a strided view of the diagonal: np.eye
    # fills I through a flat iterator, about 5.6 kB of transient memory at
    # any d, which would set this route's peak apart from the Cholesky one's.
    defect = vecs.conj().T @ vecs
    defect.reshape(-1)[:: vals.size + 1] -= 1.0
    if np.max(np.abs(defect)) > ATOL_EIG:
        raise ValueError("eigenvectors are not orthonormal within 1e-10")
    return _carrying_root(mat, vecs * np.sqrt(np.clip(vals, 0.0, None)))


def _density_from_cholesky(mat: np.ndarray) -> DensityMatrix:
    """The DensityMatrix ``mat``, carrying its Cholesky factor L (L L^dag =
    mat).  The factorisation is the PSD check, a stricter one than every
    other density matrix gets: it succeeds only on a positive definite
    matrix, and raises ``np.linalg.LinAlgError`` otherwise."""
    root = np.linalg.cholesky(mat)
    return _carrying_root(_unit_trace_hermitian(mat), root)


def _orthonormal_columns(arr, name: str) -> np.ndarray:
    """The frozen matrix, once it passes ``_checked_array`` and has orthonormal columns."""
    mat = _checked_array(arr, name, 2)
    if np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) > ATOL_EXACT:
        raise ValueError(f"{name} columns are not orthonormal within 1e-12")
    return _frozen(mat, complex)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of C^d; vectors are the columns of ``vectors``."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _orthonormal_columns(self.vectors, "basis"))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def column(self, j: int) -> StateVector:
        return StateVector(self.vectors[:, j])


@dataclass(frozen=True)
class TransitionMatrix:
    """Overlaps beta[j, i] = <b_j|a_i> between two orthonormal bases.  Column
    i is a_i in basis B's coordinates, so beta is checked as a basis is."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _orthonormal_columns(self.beta, "transition matrix"))

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    @functools.cached_property
    def is_mub(self) -> bool:
        """Whether every |beta| is 1/sqrt(d) within 1e-12: a mutually unbiased pair."""
        return bool(np.max(np.abs(np.abs(self.beta) - 1.0 / np.sqrt(self.dim))) <= ATOL_EXACT)


@dataclass(frozen=True)
class Observable:
    """Hermitian observable with its eigensystem attached.

    ``eigenbasis`` columns are the eigenvectors of ``eigenvalues``, in the
    order given (``from_matrix`` gives them ascending).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: OrthonormalBasis

    def __post_init__(self):
        mat = _checked_array(self.matrix, "observable", 2)
        vals = np.asarray(self.eigenvalues, dtype=float)
        _checked_array(vals, "observable eigenvalues", 1)
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_EXACT:
            raise ValueError("observable is not Hermitian within 1e-12")
        if mat.shape[0] != vals.size or mat.shape[0] != self.eigenbasis.dim:
            raise DimensionMismatchError("observable parts have mismatched dims")
        rebuilt = _spectral_sum(vals, self.eigenbasis)
        if np.max(np.abs(rebuilt - mat)) > ATOL_EIG:
            raise ValueError("eigensystem does not reproduce the observable within 1e-10")
        object.__setattr__(self, "matrix", _frozen(mat, complex))
        object.__setattr__(self, "eigenvalues", _frozen(vals, float))

    @functools.cached_property
    def non_degenerate(self) -> bool:
        """True when the smallest gap between eigenvalues exceeds 1e-10."""
        return bool(np.diff(np.sort(self.eigenvalues)).min() > ATOL_EIG)

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        mat = _checked_array(matrix, "observable", 2)
        hermitized = (mat + mat.conj().T) / 2.0
        if np.max(np.abs(mat - hermitized)) > ATOL_EXACT:
            raise ValueError("observable is not Hermitian within 1e-12")
        vals, vecs = np.linalg.eigh(hermitized)
        return cls(hermitized, vals, OrthonormalBasis(vecs))

    @classmethod
    def from_eigensystem(cls, eigenvalues, basis: OrthonormalBasis) -> "Observable":
        vals = np.asarray(eigenvalues, dtype=float)
        if vals.shape != (basis.dim,):
            raise DimensionMismatchError("observable parts have mismatched dims")
        return cls(_spectral_sum(vals, basis), vals, basis)

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
        return cls((outer + outer.conj().T) / 2.0, vals, basis)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _spectral_sum(vals: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """sum_k vals[k] v_k v_k^dag over the basis vectors v_k: diag(vals) over
    the reference basis, built without its two products by the identity.
    Adding 0.0 turns each -0.0 eigenvalue into the 0.0 that the products
    give, so the two are byte-equal."""
    if _is_reference(basis):
        return np.diag(vals + 0.0).astype(complex)
    v = basis.vectors
    return (v * vals) @ v.conj().T


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
    """Computational basis: the identity columns.  Each dimension's basis is
    built and checked once, and every call returns that same object."""
    _check_dim(dim)
    return _reference_basis(int(dim))


@functools.lru_cache(maxsize=16)
def _reference_basis(dim: int) -> OrthonormalBasis:
    return OrthonormalBasis(np.eye(dim, dtype=complex))


def _is_reference(basis: OrthonormalBasis) -> bool:
    """Whether ``basis`` is the object ``reference_basis`` returns, whose
    vectors are the identity, so a product by them can be skipped."""
    return basis is _reference_basis(basis.dim)


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
    return TransitionMatrix(_overlaps(basis_a, basis_b))


def _overlaps(basis_a: OrthonormalBasis, basis_b: OrthonormalBasis) -> np.ndarray:
    """beta[j, i] = <b_j|a_i>: B^dag A, which is B^dag itself when A is the
    reference basis.  Adding 0.0 turns each -0.0 that conj leaves into the
    0.0 that the product by the identity gives, so the two are byte-equal."""
    bv_dag = basis_b.vectors.conj().T
    return bv_dag + 0.0 if _is_reference(basis_a) else bv_dag @ basis_a.vectors


def random_pure_state(dim: int, seed) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian vector."""
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amp / np.linalg.norm(amp))


def random_density_matrix(dim: int, rank: int, seed) -> DensityMatrix:
    """Random density matrix from the Ginibre ensemble, rho = G G^dag / tr.
    A rank that is no integer in [1, dim] raises ValueError."""
    _check_dim(dim)
    _check_integer(rank, "rank", 1, dim)
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
    the general case is (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, with rho = x,
    read as (sum_k sqrt(mu_k))^2 over the eigenvalues mu_k of L^dag sigma L,
    for any L with L L^dag = rho: the square root x carries (V sqrt(Lambda)
    or a Cholesky factor, see ``DensityMatrix``), else V sqrt(Lambda) from
    eigh of rho.  L = sqrt(rho) U for a unitary U, so those are the
    eigenvalues of sqrt(rho) sigma sqrt(rho).
    Eigenvalues below d * eps * max(mu), numpy's rank tolerance, are
    rounding noise of the zero ones and are dropped.
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
    factor = x._root
    if factor is None:
        vals, vecs = np.linalg.eigh(rho)
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    inner = np.linalg.eigvalsh(factor.conj().T @ sigma @ factor)
    kept = inner[inner > max(inner[-1], 0.0) * inner.size * np.finfo(float).eps]
    return float(min(np.sqrt(kept).sum() ** 2, 1.0))


def trace_distance(x, y) -> float:
    """Trace distance (1/2) tr |rho - sigma|; accepts pure or mixed states.

    For two pure states it is the norm of the part of y orthogonal to x,
    ||y - <x|y> x||, in O(d).
    """
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        overlap = x.overlap(y)
        return float(np.linalg.norm(y.amplitudes - overlap * x.amplitudes))
    rho, sigma = _as_density(x), _as_density(y)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes {rho.shape} and {sigma.shape} differ")
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
