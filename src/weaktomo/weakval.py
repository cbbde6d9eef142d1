"""Weak values and the post-selected weak-value table.

The central object is the d x n table W[j, i]: the weak value of the i-th
weakly measured observable on outcome j of a post-selection in basis B,
together with the outcome probabilities P_j.  A basis-A table measures the
d projectors onto the vectors of basis A (n = d); a single-observable table
measures one observable (n = 1).  Rows whose post-selection probability
vanishes are masked, not errored.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UndefinedWeakValueError
from .qcore import (
    ATOL_EXACT,
    PROB_FLOOR,
    DensityMatrix,
    Observable,
    OrthonormalBasis,
    StateVector,
    _as_density,
    _check_finite,
    _is_reference,
    _overlaps,
)


@dataclass(frozen=True)
class WeakValueTable:
    """Weak values W[j, i] with outcome probabilities P[j] and a row mask.

    W has one row per post-selection outcome and one column per pointer.
    Masked (undefined) rows hold zeros in W; ``defined`` carries the
    information.  Estimated tables additionally hold per-entry standard
    errors for the real and imaginary parts and the number of trials they
    were estimated from; exact tables have no standard errors and
    ``n_trials`` 0.
    """

    dim: int
    W: np.ndarray
    P: np.ndarray
    defined: np.ndarray
    stderr_re: np.ndarray | None = None
    stderr_im: np.ndarray | None = None
    n_trials: int = 0

    def __post_init__(self):
        d = self.dim
        W = np.array(self.W, dtype=complex)
        P = np.array(self.P, dtype=float)
        defined = np.array(self.defined, dtype=bool)
        if (W.ndim != 2 or W.shape[0] != d or W.shape[1] < 1
                or P.shape != (d,) or defined.shape != (d,)):
            raise DimensionMismatchError(
                f"table shapes {W.shape}/{P.shape}/{defined.shape} do not match dim {d}"
            )
        _check_finite(W, "weak-value table")
        _check_finite(P, "outcome probabilities")
        if P.min() < -ATOL_EXACT or P.max() > 1.0 + ATOL_EXACT:
            raise ValueError("outcome probabilities leave [0, 1]")
        if abs(P.sum() - 1.0) > ATOL_EXACT:
            raise ValueError(f"outcome probabilities sum to {P.sum()}, not 1")
        P = np.clip(P, 0.0, 1.0)
        W[~defined] = 0.0
        for name in ("stderr_re", "stderr_im"):
            err = getattr(self, name)
            if err is not None:
                err = np.array(err, dtype=float)
                if err.shape != W.shape:
                    raise DimensionMismatchError(f"{name} shape {err.shape} != {W.shape}")
                _check_finite(err, name)
                err[~defined] = 0.0
                err.setflags(write=False)
                object.__setattr__(self, name, err)
        for name, arr in (("W", W), ("P", P), ("defined", defined)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_pointers(self) -> int:
        return self.W.shape[1]


def weak_value(rho, observable: Observable, post: StateVector) -> complex:
    """Weak value tr(Pi A rho) / tr(Pi rho) for post-selection Pi = |post><post|.

    Parameters
    ----------
    rho : DensityMatrix or StateVector
        Pre-selected state.
    observable : Observable
        Weakly measured observable A.
    post : StateVector
        Post-selection state.

    Raises
    ------
    UndefinedWeakValueError
        If the post-selection probability tr(Pi rho) is below 1e-14.
    """
    mat = _as_density(rho)
    d = mat.shape[0]
    if observable.dim != d or post.dim != d:
        raise DimensionMismatchError(
            f"dims rho={d}, A={observable.dim}, post={post.dim} do not agree"
        )
    b = post.amplitudes
    prob = np.vdot(b, mat @ b).real
    if prob <= PROB_FLOOR:
        raise UndefinedWeakValueError(
            f"post-selection probability {prob:.3e} is below {PROB_FLOOR}"
        )
    return complex(np.vdot(b, observable.matrix @ mat @ b) / prob)


def weak_value_table(rho, measured, basis_b: OrthonormalBasis) -> WeakValueTable:
    """Weak-value table of what is weakly measured, over the outcomes of basis B.

    ``measured`` is an OrthonormalBasis A, whose d projectors give the d
    columns W[j, i] = <b_j|a_i><a_i|rho|b_j> / <b_j|rho|b_j>, or a single
    Observable, whose one column is W[j, 0] = <b_j|A rho|b_j> / <b_j|rho|b_j>.
    P[j] = <b_j|rho|b_j>; rows with P[j] <= 1e-14 are masked.
    """
    mat = _as_density(rho)
    d = mat.shape[0]
    if measured.dim != d or basis_b.dim != d:
        raise DimensionMismatchError(
            f"dims rho={d}, A={measured.dim}, B={basis_b.dim} do not agree"
        )
    bv = basis_b.vectors
    rho_b = mat @ bv                             # rho_b[:, j] = rho|b_j>
    if isinstance(measured, Observable):
        numer = np.einsum("ij,ji->i", bv.conj().T, measured.matrix @ mat @ bv)[:, None]
    else:
        beta = _overlaps(measured, basis_b)      # beta[j, i] = <b_j|a_i>
        # cross[i, j] = <a_i|rho|b_j>; a_i is e_i in the reference basis.
        cross = rho_b if _is_reference(measured) else measured.vectors.conj().T @ rho_b
        numer = beta * cross.T
    P = np.einsum("ij,ji->i", bv.conj().T, rho_b).real
    defined = P > PROB_FLOOR
    W = np.zeros(numer.shape, dtype=complex)
    W[defined] = numer[defined] / P[defined, None]
    return WeakValueTable(dim=d, W=W, P=np.clip(P, 0.0, 1.0), defined=defined)


@dataclass(frozen=True)
class SumRuleReport:
    """Largest deviations from the algebraic identities an exact table obeys.

    row_sum_dev:   max_j |sum_i W[j,i] - 1| over defined rows.
    imag_dev:      max_i |Im sum_j P[j] W[j,i]|.
    diag_dev:      max_i |sum_j P[j] W[j,i] - <a_i|rho|a_i>|, None when no
                   rho was supplied for the cross-check.
    """

    row_sum_dev: float
    imag_dev: float
    diag_dev: float | None

    def within(self, tol: float) -> bool:
        devs = [self.row_sum_dev, self.imag_dev]
        if self.diag_dev is not None:
            devs.append(self.diag_dev)
        return max(devs) <= tol


def check_sum_rules(
    table: WeakValueTable,
    rho: StateVector | DensityMatrix | None = None,
    basis_a: OrthonormalBasis | None = None,
) -> SumRuleReport:
    """Evaluate the weak-value sum rules on a table.

    For every defined row the weak values of a complete projector family sum
    to one, and the P-weighted column sums reproduce the diagonal of rho in
    basis A (real, so their imaginary part must vanish).  When ``rho`` is
    given, as a StateVector or a DensityMatrix, the diagonal is cross-checked
    explicitly; ``basis_a`` defaults to the computational reference basis.
    The rules hold for a basis-A table only; any other pointer count raises
    DimensionMismatchError.
    """
    if table.n_pointers != table.dim:
        raise DimensionMismatchError(
            f"sum rules need one pointer per basis-A projector ({table.dim}), "
            f"got {table.n_pointers}")
    rows = table.defined
    if rows.any():
        row_sum_dev = float(np.max(np.abs(table.W[rows].sum(axis=1) - 1.0)))
    else:
        row_sum_dev = 0.0
    weighted = table.P @ table.W                 # masked rows contribute zero
    imag_dev = float(np.max(np.abs(weighted.imag))) if table.dim else 0.0
    diag_dev = None
    if rho is not None:
        av = basis_a.vectors if basis_a is not None else np.eye(table.dim, dtype=complex)
        diag = np.einsum("ij,ji->i", av.conj().T, _as_density(rho) @ av).real
        diag_dev = float(np.max(np.abs(weighted - diag)))
    return SumRuleReport(row_sum_dev=row_sum_dev, imag_dev=imag_dev, diag_dev=diag_dev)
