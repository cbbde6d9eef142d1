"""State reconstruction from weak-value data.

Pure-state schemes
------------------
postselected       one post-selection outcome, amplitudes from one table row
all_data           every defined row yields a candidate; candidates are
                   phase-aligned and probability-weighted into one estimate
single_projector   one weakly measured projector |phi><phi|, all outcomes
single_observable  one non-degenerate observable; the state is the kernel of
                   M = beta diag(lambda) - diag(w) beta

Mixed-state schemes reassemble the density matrix element by element in the
measured or the post-selection eigenbasis, then project onto the physical
set (Hermitian, PSD, unit trace).  Partial tomography targets a single
matrix element between two chosen vectors without reconstructing the rest.

Matrix conventions: every routine takes beta[j, i] = <b_j|a_i> with basis A
the eigenbasis of what is weakly measured and basis B the post-selection
basis.  Returned matrices are expressed against basis A, which in this
package is always the computational reference basis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousReconstructionError,
    DegenerateDataError,
    DimensionMismatchError,
    MissingDataError,
    PreconditionError,
    SchemeInapplicableError,
    UnusablePostselectionError,
)
from .qcore import (
    PROB_FLOOR,
    DensityMatrix,
    Observable,
    OrthonormalBasis,
    StateVector,
    TransitionMatrix,
    _density_from_spectrum,
    fix_global_phase,
)
from .weakval import WeakValueTable

# Division guards: |beta| and |w| entries are unusable below 1e-12 relative
# to the largest magnitude in the same array.
REL_GUARD = 1e-12
# Kernel membership threshold for M^dag M eigenvalues.
KERNEL_REL = 1e-8


@dataclass(frozen=True)
class PureStateEstimate:
    """Merged pure-state estimate with per-row candidates.

    per_row[j] is the candidate from table row j (None when that row was
    unusable); consistency is the largest pairwise infidelity among the
    candidates, zero for exact data.
    """

    merged: StateVector
    per_row: list
    consistency: float


@dataclass(frozen=True)
class DensityEstimate:
    """Raw reassembled matrix plus its physical projection.

    physical is the nearest state to raw (see ``project_to_physical``);
    hermiticity_defect = max |raw - raw^dag| entrywise; min_eig_raw is the
    smallest eigenvalue of the Hermitized raw matrix before projection.
    """

    raw: np.ndarray
    physical: DensityMatrix
    hermiticity_defect: float
    min_eig_raw: float


@dataclass(frozen=True)
class KernelProblem:
    """Diagnostics for the single-observable scheme.

    smallest_eig is the least eigenvalue of M^dag M; kernel_dim counts the
    eigenvalues below 1e-8 * max|M|^2.  kernel_dim >= 2 means the data do
    not single out a state.
    """

    eigenvalues: np.ndarray
    weak_values: np.ndarray
    M: np.ndarray
    smallest_eig: float
    kernel_dim: int


@dataclass(frozen=True)
class ElementPair:
    """Both orientations of one off-diagonal element plus their mismatch.

    For exact data element_ab == conj(element_ba); the hermiticity gap is a
    direct noise indicator because the two come from independent runs.
    """

    element_ba: complex
    element_ab: complex
    hermiticity_gap: float


def _guard_divisors(arr: np.ndarray, what: str, error_cls) -> None:
    scale = np.max(np.abs(arr))
    bad = np.where(np.abs(arr) <= REL_GUARD * scale)[0] if scale > 0 else np.arange(arr.size)
    if scale == 0 or bad.size:
        raise error_cls(f"{what} vanishes at indices {bad.tolist()}")


def reconstruct_pure_postselected(w_row, beta_row) -> StateVector:
    """Amplitudes from a single post-selection outcome: psi_i ~ W_i / beta_i.

    Parameters
    ----------
    w_row : array of complex
        Weak values of the basis-A projectors for one outcome j.
    beta_row : array of complex
        The matching transition-matrix row <b_j|a_i>.
    """
    w = np.asarray(w_row, dtype=complex).reshape(-1)
    beta = np.asarray(beta_row, dtype=complex).reshape(-1)
    if w.size != beta.size:
        raise DimensionMismatchError("weak-value row and beta row lengths differ")
    _guard_divisors(beta, "transition amplitude <b_j|a_i>", UnusablePostselectionError)
    amp = w / beta
    norm = np.linalg.norm(amp)
    if norm == 0:
        raise DegenerateDataError("all weak values in the row are zero")
    return StateVector(fix_global_phase(amp / norm))


def reconstruct_pure_all_data(table: WeakValueTable, beta: TransitionMatrix) -> PureStateEstimate:
    """Merge the per-outcome candidates from every usable table row.

    Each defined row j gives a candidate state via the postselected formula.
    Candidates are phase-aligned against the highest-probability row and
    averaged with weights P[j], then renormalized.  The spread among the
    candidates (max pairwise infidelity) is reported as ``consistency``.
    """
    if beta.dim != table.dim:
        raise DimensionMismatchError("table and transition matrix dims differ")
    d = table.dim
    scale = np.max(np.abs(beta.beta))
    per_row: list = [None] * d
    for j in range(d):
        if not table.defined[j]:
            continue
        if np.min(np.abs(beta.beta[j])) <= REL_GUARD * scale:
            continue
        amp = table.W[j] / beta.beta[j]
        norm = np.linalg.norm(amp)
        if norm == 0:
            continue
        per_row[j] = StateVector(fix_global_phase(amp / norm))
    usable = [j for j in range(d) if per_row[j] is not None]
    if not usable:
        raise SchemeInapplicableError("no usable rows: all masked, unnormalizable, "
                                      "or blocked by vanishing beta entries")
    ref = max(usable, key=lambda j: table.P[j])
    ref_amp = per_row[ref].amplitudes
    merged = np.zeros(d, dtype=complex)
    for j in usable:
        overlap = np.vdot(ref_amp, per_row[j].amplitudes)
        phase = overlap / abs(overlap) if overlap != 0 else 1.0
        merged += table.P[j] * per_row[j].amplitudes * np.conj(phase)
    norm = np.linalg.norm(merged)
    if norm == 0:
        raise DegenerateDataError("candidates cancel; merged state is the zero vector")
    # Pairwise overlaps <c_a|c_b>, a < b, from one Gram matrix of the candidates.
    cand = np.stack([per_row[j].amplitudes for j in usable], axis=1)
    upper = np.triu_indices(len(usable), 1)
    overlaps = (cand.conj().T @ cand)[upper]
    return PureStateEstimate(
        merged=StateVector(fix_global_phase(merged / norm)),
        per_row=per_row,
        consistency=float(np.max(1.0 - np.abs(overlaps) ** 2, initial=0.0)),
    )


def reconstruct_pure_single_projector(w, phi: StateVector,
                                      basis_b: OrthonormalBasis) -> StateVector:
    """Recover the state from weak values of one projector |phi><phi|.

    With W_j the weak value at outcome j, eta_j = <b_j|phi> / W_j and
    |psi> ~ sum_j eta_j |b_j>.  Every outcome must have nonzero overlap with
    phi and a nonzero weak value; offenders are named in the error.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.size != basis_b.dim or phi.dim != basis_b.dim:
        raise DimensionMismatchError("weak values, phi, and basis B dims differ")
    overlaps = basis_b.vectors.conj().T @ phi.amplitudes
    bad = np.where(np.abs(overlaps) <= 1e-12)[0]
    if bad.size:
        raise SchemeInapplicableError(
            f"<b_j|phi> vanishes at j={bad.tolist()}; those outcomes carry no signal"
        )
    _guard_divisors(w, "weak value W_j", UnusablePostselectionError)
    eta = overlaps / w
    amp = basis_b.vectors @ eta
    norm = np.linalg.norm(amp)
    if norm == 0:
        raise DegenerateDataError("eta coefficients cancel to the zero vector")
    return StateVector(fix_global_phase(amp / norm))


def reconstruct_pure_single_observable(w, observable: Observable, beta: TransitionMatrix,
                                       rows=None) -> tuple[StateVector, KernelProblem]:
    """Recover the state from weak values of one non-degenerate observable.

    Builds M = beta diag(lambda) - diag(w) beta, whose kernel contains the
    state's amplitudes in the observable eigenbasis, and takes the
    eigenvector of M^dag M with the smallest eigenvalue (least-squares
    kernel on noisy data).  ``rows`` optionally restricts to the defined
    outcomes.

    Raises
    ------
    PreconditionError
        If the observable spectrum is degenerate (gap <= 1e-10).
    AmbiguousReconstructionError
        If kernel_dim >= 2: several states reproduce the same weak values,
        so this data set cannot distinguish them.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    d = beta.dim
    if w.size != d or observable.dim != d:
        raise DimensionMismatchError("weak values, observable, and beta dims differ")
    if not observable.non_degenerate:
        raise PreconditionError("observable spectrum is degenerate; outcomes do not "
                                "separate the eigenbasis")
    lam = observable.eigenvalues
    row_idx = np.arange(d) if rows is None else np.asarray(rows, dtype=int)
    m = beta.beta[row_idx] * lam[None, :] - w[row_idx, None] * beta.beta[row_idx]
    h = m.conj().T @ m
    vals, vecs = np.linalg.eigh(h)
    m_scale = np.max(np.abs(m))
    threshold = KERNEL_REL * m_scale**2
    kernel_dim = int(np.sum(vals < threshold))
    problem = KernelProblem(
        eigenvalues=lam.copy(),
        weak_values=w.copy(),
        M=m,
        smallest_eig=float(max(vals[0], 0.0)),
        kernel_dim=kernel_dim,
    )
    if kernel_dim >= 2:
        raise AmbiguousReconstructionError(
            f"kernel dimension {kernel_dim}: the weak values admit multiple states; "
            "a second observable or basis is required"
        )
    # Kernel vector lives in the observable eigenbasis; map back.
    amp = observable.eigenbasis.vectors @ vecs[:, 0]
    return StateVector(fix_global_phase(amp)), problem


def _project_pipeline(raw: np.ndarray) -> DensityEstimate:
    defect = float(np.max(np.abs(raw - raw.conj().T)))
    physical, min_eig = _nearest_state(raw)
    return DensityEstimate(
        raw=raw,
        physical=physical,
        hermiticity_defect=defect,
        min_eig_raw=min_eig,
    )


def reconstruct_mixed_abasis(table: WeakValueTable, beta: TransitionMatrix) -> DensityEstimate:
    """Density-matrix elements in the measured basis A.

    <a_i|rho|a_j> = sum_k P_k (beta_kj / beta_ki) W_ki.  Every table row is
    needed (one term per outcome), and every beta entry divides.
    """
    if beta.dim != table.dim:
        raise DimensionMismatchError("table and transition matrix dims differ")
    missing = np.where(~table.defined)[0]
    if missing.size:
        raise MissingDataError(f"table rows {missing.tolist()} are undefined; "
                               "the a-basis sum needs every outcome")
    if np.min(np.abs(beta.beta)) <= REL_GUARD * np.max(np.abs(beta.beta)):
        raise SchemeInapplicableError("beta has (numerically) zero entries; the a-basis "
                                      "formula divides by every <b_k|a_i>")
    coeff = table.P[:, None] * table.W / beta.beta
    raw = coeff.T @ beta.beta
    return _project_pipeline(raw)


def reconstruct_mixed_bbasis(table: WeakValueTable, beta: TransitionMatrix) -> DensityEstimate:
    """Density-matrix elements in the post-selection basis B, rotated back.

    <b_i|rho|b_j> = P_j sum_k W_jk (beta_ik / beta_jk).  The b-basis matrix
    is rotated to the reference basis with B = beta^dag (basis A being the
    reference basis) before the physicality projection.
    """
    if beta.dim != table.dim:
        raise DimensionMismatchError("table and transition matrix dims differ")
    missing = np.where(~table.defined)[0]
    if missing.size:
        raise MissingDataError(f"table rows {missing.tolist()} are undefined; "
                               "column j of the b-basis matrix needs row j")
    if np.min(np.abs(beta.beta)) <= REL_GUARD * np.max(np.abs(beta.beta)):
        raise SchemeInapplicableError("beta has (numerically) zero entries; the b-basis "
                                      "formula divides by every <b_j|a_k>")
    ratios = table.W / beta.beta
    in_b = (beta.beta @ ratios.T) * table.P[None, :]
    raw = beta.beta.conj().T @ in_b @ beta.beta
    return _project_pipeline(raw)


def estimate_element_nonorthogonal(w: complex, p_b: float, overlap_ba: complex) -> complex:
    """One matrix element from one weak measurement: <a|rho|b>.

    w is the weak value of |a><a| post-selected on |b>, p_b = <b|rho|b>,
    and overlap_ba = <b|a> must be nonzero (use the orthogonal-pair scheme
    otherwise).
    """
    if abs(overlap_ba) <= 1e-12:
        raise PreconditionError("<b|a> = 0: vectors are orthogonal, use "
                                "estimate_element_orthogonal with a bridge state")
    if p_b <= PROB_FLOOR:
        raise PreconditionError(f"post-selection probability {p_b:.3e} is below {PROB_FLOOR}")
    return complex(p_b / overlap_ba) * complex(w)


def estimate_element_orthogonal(w: complex, w_prime: complex,
                                p_a: float, p_b: float) -> ElementPair:
    """Matrix element between orthogonal |a>, |b> via the bridge (|a>+|b>)/sqrt2.

    With C the projector onto the bridge state, w is its weak value
    post-selected on |a| and w_prime post-selected on |b>:

        <b|rho|a> = P_a (2w - 1),    <a|rho|b> = P_b (2w' - 1).

    The two runs are independent, so |<b|rho|a> - conj(<a|rho|b>)| is a
    noise indicator (exactly zero on exact data).
    """
    if p_a <= PROB_FLOOR or p_b <= PROB_FLOOR:
        raise PreconditionError("both post-selection probabilities must exceed 1e-14")
    element_ba = p_a * (2.0 * complex(w) - 1.0)
    element_ab = p_b * (2.0 * complex(w_prime) - 1.0)
    return ElementPair(
        element_ba=complex(element_ba),
        element_ab=complex(element_ab),
        hermiticity_gap=float(abs(element_ba - np.conj(element_ab))),
    )


def _simplex_projection(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of ascending eigenvalues onto the probability simplex.

    Shifts every eigenvalue down by one threshold and clips at zero, with the
    threshold chosen so the result sums to one; (0.7, 0.5, -0.2) becomes
    (0.6, 0.4, 0).
    """
    desc = vals[::-1]
    k = np.arange(1, vals.size + 1)
    shifts = (np.cumsum(desc) - 1.0) / k
    # The condition holds for a leading run of k; use its end.  k = 1 always
    # qualifies in exact arithmetic, but not in floats once desc[0] - 1 rounds.
    run = np.flatnonzero(desc - shifts > 0)
    if not run.size:
        raise DegenerateDataError(f"eigenvalue {desc[0]:.3e} is too large for a unit trace")
    return np.clip(vals - shifts[run[-1]], 0.0, None)


def _nearest_state(raw) -> tuple[DensityMatrix, float]:
    """Nearest state to raw, plus the smallest eigenvalue of its Hermitian part."""
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {raw.shape}")
    hermitized = (raw + raw.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(hermitized)
    if np.clip(vals, 0.0, None).sum() <= PROB_FLOOR:
        raise DegenerateDataError("matrix has no positive spectral weight to normalize")
    return _density_from_spectrum(_simplex_projection(vals), vecs), float(vals[0])


def project_to_physical(raw: np.ndarray) -> DensityMatrix:
    """Nearest state to raw in Frobenius norm.

    Hermitizes raw and projects its eigenvalues onto the probability simplex
    in the same eigenbasis (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)),
    which gives the unit-trace PSD matrix closest to raw.
    Raises DegenerateDataError when raw has no positive spectral weight.
    """
    return _nearest_state(raw)[0]
