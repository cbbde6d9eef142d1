"""Reconstruction schemes: frozen worked examples plus failure taxonomy."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import (
    oracle_clip_renormalise,
    oracle_consistency,
    oracle_gram_consistency,
    oracle_mixed_bbasis,
    oracle_nearest_state,
)
from weaktomo import (
    AmbiguousReconstructionError,
    DegenerateDataError,
    DensityMatrix,
    DimensionMismatchError,
    ExperimentConfig,
    InvalidDimensionError,
    MissingDataError,
    Observable,
    OrthonormalBasis,
    PreconditionError,
    SchemeInapplicableError,
    StateVector,
    TransitionMatrix,
    UnusablePostselectionError,
    WeakValueTable,
    estimate_element_nonorthogonal,
    estimate_element_orthogonal,
    fidelity,
    fourier_basis,
    project_to_physical,
    random_density_matrix,
    random_pure_state,
    reconstruct_mixed_abasis,
    reconstruct_mixed_bbasis,
    reconstruct_pure_all_data,
    reconstruct_pure_postselected,
    reconstruct_pure_single_observable,
    reconstruct_pure_single_projector,
    reference_basis,
    run_reconstruction,
    transition_matrix,
    weak_value,
    weak_value_table,
)
from weaktomo.qcore import _complete_basis
from weaktomo.recon import _nearest_state

RHO_EXAMPLE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
# (sqrt(3)/2, 1/2): every scheme below recovers this state from exact data
PSI_EXAMPLE = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)


def _qubit_setup():
    psi = StateVector(PSI_EXAMPLE)
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(psi.projector(), basis_a, basis_b)
    return psi, basis_a, basis_b, beta, table


# ---------------------------------------------------------------- postselected


def test_postselected_qubit_example():
    psi, _, _, beta, table = _qubit_setup()
    assert table.W[0, 0].real == pytest.approx(0.6340, abs=5e-5)
    assert table.W[0, 1].real == pytest.approx(0.3660, abs=5e-5)
    assert table.P[0] == pytest.approx(0.933, abs=5e-4)
    est = reconstruct_pure_postselected(table.W[0], beta.beta[0])
    assert np.max(np.abs(est.amplitudes - PSI_EXAMPLE)) < 1e-12


@pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (4, 2), (8, 3)])
def test_postselected_random_states(dim, seed):
    psi = random_pure_state(dim, seed)
    basis_a = reference_basis(dim)
    basis_b = fourier_basis(dim)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(psi.projector(), basis_a, basis_b)
    j = int(np.argmax(table.P))
    est = reconstruct_pure_postselected(table.W[j], beta.beta[j])
    assert fidelity(est, psi) >= 1.0 - 1e-12


def test_postselected_zero_beta_entries_named():
    # beta row from the identity transition has a hard zero at index 1
    w_row = np.array([1.0, 0.0], dtype=complex)
    beta_row = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(UnusablePostselectionError, match=r"\[1\]"):
        reconstruct_pure_postselected(w_row, beta_row)


def test_postselected_all_zero_row_is_degenerate():
    beta = transition_matrix(reference_basis(2), fourier_basis(2))
    with pytest.raises(DegenerateDataError):
        reconstruct_pure_postselected(np.zeros(2, dtype=complex), beta.beta[0])


# -------------------------------------------------------------------- all_data


def test_all_data_qubit_example():
    psi, _, _, beta, table = _qubit_setup()
    assert table.W[1, 0].real == pytest.approx(2.3660, abs=5e-5)
    assert table.W[1, 1].real == pytest.approx(-1.3660, abs=5e-5)
    est = reconstruct_pure_all_data(table, beta)
    assert fidelity(est.merged, psi) >= 1.0 - 1e-12
    assert est.consistency < 1e-12
    assert all(cand is not None for cand in est.per_row)
    for cand in est.per_row:
        assert fidelity(cand, psi) >= 1.0 - 1e-12


def test_all_data_skips_masked_rows():
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)
    table = weak_value_table(psi.projector(), basis_a, basis_b)
    est = reconstruct_pure_all_data(table, transition_matrix(basis_a, basis_b))
    assert est.per_row[1] is None
    assert fidelity(est.merged, psi) >= 1.0 - 1e-12


def test_all_data_identity_beta_inapplicable():
    psi, basis_a, _, _, _ = _qubit_setup()
    table = weak_value_table(psi.projector(), basis_a, basis_a)
    with pytest.raises(SchemeInapplicableError):
        reconstruct_pure_all_data(table, transition_matrix(basis_a, basis_a))


# ------------------------------------------------------------ single_projector


def test_single_projector_qubit_example():
    psi, basis_a, basis_b, _, _ = _qubit_setup()
    phi = basis_a.column(0)
    proj = Observable.projector(phi)
    w = np.array([weak_value(psi.projector(), proj, basis_b.column(j))
                  for j in range(2)])
    assert w[0].real == pytest.approx(0.6340, abs=5e-5)
    assert w[1].real == pytest.approx(2.3660, abs=5e-5)
    eta = (basis_b.vectors.conj().T @ phi.amplitudes) / w
    assert eta[0].real == pytest.approx(1.1153, abs=1e-4)
    assert eta[1].real == pytest.approx(0.2989, abs=1e-4)
    est = reconstruct_pure_single_projector(w, phi, basis_b)
    assert fidelity(est, psi) >= 1.0 - 1e-12


def test_single_projector_orthogonal_outcome_named():
    phi = StateVector(np.eye(2, dtype=complex)[:, 0])
    with pytest.raises(SchemeInapplicableError, match=r"j=\[1\]"):
        reconstruct_pure_single_projector(np.array([1.0, 1.0], dtype=complex),
                                          phi, reference_basis(2))


def test_single_projector_zero_weak_value_unusable():
    # phi overlaps every b_j, so the vanishing entry of w itself is the fault
    phi = StateVector(np.eye(2, dtype=complex)[:, 0])
    with pytest.raises(UnusablePostselectionError):
        reconstruct_pure_single_projector(np.array([1.0, 0.0], dtype=complex),
                                          phi, fourier_basis(2))


# ----------------------------------------------------------- single_observable


def test_single_observable_qubit_example():
    psi, basis_a, basis_b, beta, _ = _qubit_setup()
    obs = Observable.from_eigensystem(np.array([1.0, -1.0]), basis_a)
    w = np.array([weak_value(psi.projector(), obs, basis_b.column(j))
                  for j in range(2)])
    assert w[0].real == pytest.approx(0.2679, abs=5e-5)
    assert w[1].real == pytest.approx(3.7321, abs=5e-5)
    est, problem = reconstruct_pure_single_observable(w, obs, beta)
    assert fidelity(est, psi) >= 1.0 - 1e-12
    # M row 0 = 0.7071 * (1 - w_0, -1 - w_0)
    expect_row0 = np.array([0.7321, -1.2679]) / np.sqrt(2.0)
    assert np.max(np.abs(problem.M[0] - expect_row0)) < 5e-5
    assert problem.kernel_dim == 1
    assert problem.smallest_eig < 1e-12


def test_single_observable_kernel_contains_state():
    for seed in range(5):
        psi = random_pure_state(3, seed + 40)
        basis_a = reference_basis(3)
        basis_b = fourier_basis(3)
        beta = transition_matrix(basis_a, basis_b)
        obs = Observable.from_eigensystem(np.array([0.0, 1.0, 2.0]), basis_a)
        w = np.array([weak_value(psi.projector(), obs, basis_b.column(j))
                      for j in range(3)])
        est, problem = reconstruct_pure_single_observable(w, obs, beta)
        amp_eig = obs.eigenbasis.vectors.conj().T @ psi.amplitudes
        assert np.max(np.abs(problem.M @ amp_eig)) < 1e-13
        assert fidelity(est, psi) >= 1.0 - 1e-10


def test_single_observable_degenerate_spectrum_rejected():
    beta = transition_matrix(reference_basis(2), fourier_basis(2))
    obs = Observable.from_eigensystem(np.array([1.0, 1.0]), reference_basis(2))
    with pytest.raises(PreconditionError):
        reconstruct_pure_single_observable(np.ones(2, dtype=complex), obs, beta)


def test_single_observable_single_row_is_ambiguous():
    # one usable outcome cannot pin a qutrit: the least-squares kernel of a
    # rank-1 problem is two dimensional
    psi = random_pure_state(3, 77)
    basis_a = reference_basis(3)
    basis_b = fourier_basis(3)
    beta = transition_matrix(basis_a, basis_b)
    obs = Observable.from_eigensystem(np.array([0.0, 1.0, 2.0]), basis_a)
    w = np.array([weak_value(psi.projector(), obs, basis_b.column(j))
                  for j in range(3)])
    with pytest.raises(AmbiguousReconstructionError):
        reconstruct_pure_single_observable(w, obs, beta, rows=[0])


def test_single_observable_residual_grows_with_noise():
    basis_a = reference_basis(3)
    basis_b = fourier_basis(3)
    beta = transition_matrix(basis_a, basis_b)
    obs = Observable.from_eigensystem(np.array([0.0, 1.0, 2.0]), basis_a)
    medians = []
    for scale in (1e-4, 1e-3, 1e-2):
        residuals = []
        for seed in range(100):
            psi = random_pure_state(3, 1000 + seed)
            w = np.array([weak_value(psi.projector(), obs, basis_b.column(j))
                          for j in range(3)])
            rng = np.random.default_rng([int(scale * 1e6), seed])
            noisy = w + scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            try:
                _, problem = reconstruct_pure_single_observable(noisy, obs, beta)
            except AmbiguousReconstructionError:
                continue
            residuals.append(problem.smallest_eig)
        medians.append(np.median(residuals))
    assert medians[0] < medians[1] < medians[2]


# ------------------------------------------------------------- mixed schemes


def test_mixed_abasis_qubit_example():
    rho = DensityMatrix(RHO_EXAMPLE)
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(rho, basis_a, basis_b)
    est = reconstruct_mixed_abasis(table, beta)
    assert est.raw[0, 1] == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(est.raw - RHO_EXAMPLE)) < 1e-12
    assert np.max(np.abs(est.physical.elements - RHO_EXAMPLE)) < 1e-12
    assert est.hermiticity_defect < 1e-12
    assert est.min_eig_raw > -1e-12


def test_mixed_bbasis_qubit_example():
    # The b-basis read-out of the worked example holds <b_0|rho|b_1> = 0.25
    # and rotates back to rho; the package's b-basis name is the one
    # mixed-state estimator, checked against this read-out by
    # test_mixed_estimator_matches_the_bbasis_oracle.
    rho = DensityMatrix(RHO_EXAMPLE)
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(rho, basis_a, basis_b)
    raw = oracle_mixed_bbasis(table.W, table.P, beta.beta)
    b0 = basis_b.column(0).amplitudes
    b1 = basis_b.column(1).amplitudes
    assert np.vdot(b0, raw @ b1) == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(raw - RHO_EXAMPLE)) < 1e-12
    assert reconstruct_mixed_bbasis is reconstruct_mixed_abasis


@pytest.mark.parametrize("dim,rank,seed", [(2, 2, 0), (3, 2, 1), (4, 4, 2)])
def test_mixed_bases_mutually_agree(dim, rank, seed):
    # Both public names and the b-basis read-out recover the same state.
    rho = random_density_matrix(dim, rank, seed)
    basis_a = reference_basis(dim)
    basis_b = fourier_basis(dim)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(rho, basis_a, basis_b)
    est_a = reconstruct_mixed_abasis(table, beta)
    est_b = reconstruct_mixed_bbasis(table, beta)
    raw_b = oracle_mixed_bbasis(table.W, table.P, beta.beta)
    assert np.max(np.abs(est_a.raw - rho.elements)) < 1e-10
    assert np.max(np.abs(raw_b - rho.elements)) < 1e-10
    assert np.max(np.abs(est_a.physical.elements - est_b.physical.elements)) < 1e-10


def test_mixed_abasis_missing_row_named():
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)
    table = weak_value_table(psi.projector(), basis_a, basis_b)
    with pytest.raises(MissingDataError, match=r"\[1\]"):
        reconstruct_mixed_abasis(table, transition_matrix(basis_a, basis_b))


def test_mixed_schemes_identity_beta_inapplicable():
    rho = DensityMatrix(RHO_EXAMPLE)
    basis_a = reference_basis(2)
    table = weak_value_table(rho, basis_a, basis_a)
    beta = transition_matrix(basis_a, basis_a)
    with pytest.raises(SchemeInapplicableError):
        reconstruct_mixed_abasis(table, beta)


def test_pure_state_scheme_equivalence():
    # all_data merge and the a-basis principal eigenvector describe the same
    # state when the input is exactly pure
    psi = random_pure_state(4, 9)
    basis_a = reference_basis(4)
    basis_b = fourier_basis(4)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(psi.projector(), basis_a, basis_b)
    pure_est = reconstruct_pure_all_data(table, beta)
    mixed_est = reconstruct_mixed_abasis(table, beta)
    vals, vecs = np.linalg.eigh(mixed_est.physical.elements)
    principal = StateVector(vecs[:, -1])
    assert abs(principal.overlap(pure_est.merged)) ** 2 >= 1.0 - 1e-9


# ------------------------------------------------------------ single elements


def test_element_nonorthogonal_qubit_examples():
    rho = RHO_EXAMPLE
    b = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    p_b = np.vdot(b, rho @ b).real
    assert p_b == pytest.approx(0.75, abs=1e-12)
    for i, frozen in ((0, 0.7071), (1, 0.3536)):
        a = np.eye(2, dtype=complex)[:, i]
        overlap = np.vdot(b, a)
        w = overlap * np.vdot(a, rho @ b) / p_b
        element = estimate_element_nonorthogonal(w, p_b, overlap)
        assert element == pytest.approx(np.vdot(a, rho @ b), abs=1e-12)
        assert abs(element) == pytest.approx(frozen, abs=5e-5)


def test_element_nonorthogonal_guards():
    with pytest.raises(PreconditionError):
        estimate_element_nonorthogonal(1.0 + 0j, 0.5, 0.0 + 0j)
    with pytest.raises(PreconditionError):
        estimate_element_nonorthogonal(1.0 + 0j, 0.0, 0.7071 + 0j)


def test_element_orthogonal_qubit_example():
    # rho = |+><+|: <b|rho|a> = 0.5 for a = e0, b = e1, recovered through the
    # bridge state with zero hermiticity gap on exact data
    rho = np.full((2, 2), 0.5, dtype=complex)
    a = np.eye(2, dtype=complex)[:, 0]
    b = np.eye(2, dtype=complex)[:, 1]
    bridge = (a + b) / np.sqrt(2.0)
    proj_c = np.outer(bridge, bridge.conj())
    p_a = np.vdot(a, rho @ a).real
    p_b = np.vdot(b, rho @ b).real
    w = np.vdot(a, proj_c @ rho @ a) / p_a
    w_prime = np.vdot(b, proj_c @ rho @ b) / p_b
    pair = estimate_element_orthogonal(w, w_prime, p_a, p_b)
    assert pair.element_ba == pytest.approx(0.5 + 0j, abs=1e-12)
    assert pair.element_ab == pytest.approx(0.5 + 0j, abs=1e-12)
    assert pair.hermiticity_gap < 1e-12


def test_element_orthogonal_gap_tracks_perturbation():
    p_a, p_b = 0.75, 0.25
    w, w_prime = 2.0 / 3.0 + 0j, 1.0 + 0j
    gaps = []
    for eps in (1e-4, 1e-3, 1e-2):
        pair = estimate_element_orthogonal(w + eps, w_prime, p_a, p_b)
        gaps.append(pair.hermiticity_gap)
        assert pair.hermiticity_gap == pytest.approx(2.0 * p_a * eps, rel=1e-9)
    assert gaps[1] / gaps[0] == pytest.approx(10.0, rel=1e-9)
    assert gaps[2] / gaps[1] == pytest.approx(10.0, rel=1e-9)


def test_element_orthogonal_requires_probability():
    with pytest.raises(PreconditionError):
        estimate_element_orthogonal(1.0 + 0j, 1.0 + 0j, 0.0, 0.5)


# ------------------------------------------------------- physical projection


def test_project_physical_no_op_on_physical_input():
    rho = random_density_matrix(4, 3, 30)
    out = project_to_physical(rho.elements)
    assert np.max(np.abs(out.elements - rho.elements)) < 1e-12


def test_project_physical_clips_negative_eigenvalue():
    out = project_to_physical(np.diag([1.1, -0.1]).astype(complex))
    assert np.max(np.abs(out.elements - np.diag([1.0, 0.0]))) < 1e-12


def test_project_physical_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        project_to_physical(np.zeros((2, 3), dtype=complex))


def test_project_physical_rejects_negative_weight():
    # Nothing is refused: a spectrum with no positive weight has a nearest
    # state too, the simplex point its eigenvalues shift onto.
    for d in (2, 3, 5):
        state = project_to_physical(-np.eye(d, dtype=complex))
        assert np.max(np.abs(state.elements - np.eye(d) / d)) <= 1e-15
    state = project_to_physical(np.diag([-0.3, -0.1]).astype(complex))
    assert np.max(np.abs(state.elements - np.diag([0.4, 0.6]))) <= 1e-15


def test_project_physical_rejects_eigenvalue_beyond_unit_trace_resolution():
    # 1e17 - 1 rounds to 1e17, so no eigenvalue count passes the threshold
    # test; the nearest state is then the top eigenvector's projector, or an
    # even mixture of the tied top ones
    for vals, expected in (([0.0, 1e17, -3.0], [0.0, 1.0, 0.0]),
                           ([1e17, 5.0, 1e17], [0.5, 0.0, 0.5])):
        state = project_to_physical(np.diag(vals).astype(complex))
        assert state.elements.tobytes() == np.diag(expected).astype(complex).tobytes()


def test_project_physical_is_nearest_state():
    # Clip-and-renormalise would give (7/12, 5/12, 0), farther from the input.
    raw = np.diag([0.7, 0.5, -0.2]).astype(complex)
    out = project_to_physical(raw)
    assert np.max(np.abs(out.elements - np.diag([0.6, 0.4, 0.0]))) < 1e-12


def test_project_physical_refuses_non_finite_and_empty_input_before_lapack(monkeypatch):
    calls = _count_eigen_calls(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        project_to_physical(np.diag([np.inf, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="non-finite"):
        project_to_physical(np.array([[0.5, np.nan], [0.0, 0.5]], dtype=complex))
    with pytest.raises(InvalidDimensionError):
        project_to_physical(np.zeros((0, 0), dtype=complex))
    assert calls == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}


def test_project_physical_of_entries_near_the_float_limit():
    # Each ended in a RecursionError after overflow warnings: (raw + raw^dag)
    # overflowed, and the simplex projection re-entered on infinities.  Their
    # top eigenvalue (about 1e308) cannot resolve a unit trace, so the nearest
    # state is its eigenvector's projector.
    state = project_to_physical(np.array([[1e308, 0], [0, -1e308]], dtype=complex))
    assert state.elements.tobytes() == np.diag([1.0, 0.0]).astype(complex).tobytes()
    state = project_to_physical(np.array([[1, 1e308], [1e308, 0]], dtype=complex))
    assert np.max(np.abs(state.elements - 0.5)) <= 1e-15


# --------------------------------------------------- LAPACK calls per estimate


def _count_eigen_calls(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("scheme", ["mixed_a", "mixed_b"])
def test_exact_mixed_run_makes_no_eigh_three_eigvalsh_two_cholesky(monkeypatch, scheme):
    # The full-rank truth's raw estimate needs no clipping, so the projection
    # is one shift.  cholesky: the Ginibre truth's PSD check, and the shifted
    # estimate's, whose factor fidelity reads.  eigvalsh: the inner root of
    # fidelity and trace_distance; min_eig_raw makes the third on first read
    # and no more after it.
    calls = _count_eigen_calls(monkeypatch)
    bundle = run_reconstruction(ExperimentConfig(scheme=scheme, dim=8, state_spec="ginibre",
                                                 seed=5))
    assert calls == {"eigh": 0, "eigvalsh": 2, "cholesky": 2}
    first = bundle.estimate.min_eig_raw
    assert bundle.estimate.min_eig_raw == first > 0.0
    assert calls == {"eigh": 0, "eigvalsh": 3, "cholesky": 2}


def test_clipped_exact_mixed_run_makes_one_eigh(monkeypatch):
    # A rank-2 truth's raw estimate has eigenvalues at rounding level around
    # 0, some negative, so the shifted matrix is refused by cholesky and the
    # projection goes through eigh, whose spectrum gives min_eig_raw and the
    # root fidelity reads.
    calls = _count_eigen_calls(monkeypatch)
    bundle = run_reconstruction(ExperimentConfig(scheme="mixed_a", dim=8, state_spec="ginibre",
                                                 state_rank=2, seed=5))
    assert calls == {"eigh": 1, "eigvalsh": 2, "cholesky": 2}
    assert bundle.estimate.min_eig_raw < 0.0


def test_least_eigenvalue_at_the_shift_takes_the_spectral_branch(monkeypatch):
    # Eigenvalues (0.25, 0.5, 1): tau = (1.75 - 1) / 3 = 0.25, so H - tau I
    # is singular, and cholesky refuses its zero pivot.
    calls = _count_eigen_calls(monkeypatch)
    state, min_eig = _nearest_state(np.diag([0.25, 0.5, 1.0]).astype(complex))
    assert calls == {"eigh": 1, "eigvalsh": 0, "cholesky": 1}
    assert min_eig == 0.25
    assert np.max(np.abs(state.elements - np.diag([0.0, 0.25, 0.75]))) <= 1e-16
    assert np.max(np.abs(state._root @ state._root.conj().T - state.elements)) <= 1e-15


def test_all_data_reconstruction_makes_no_eigendecomposition(monkeypatch):
    # the whole exact run: a pure truth is never expanded to a checked d x d
    # matrix, and pure-pure fidelity and trace distance are O(d)
    calls = _count_eigen_calls(monkeypatch)
    bundle = run_reconstruction(ExperimentConfig(scheme="all_data", dim=16, seed=5))
    assert calls == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}
    assert bundle.metrics["fidelity"] >= 1.0 - 1e-12


# ------------------------------------------------------------ property tests

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 6)


def _random_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0]


def _noisy_table(table: WeakValueTable, rng, scale: float) -> WeakValueTable:
    shape = table.W.shape
    noise = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return WeakValueTable(dim=table.dim, W=table.W + noise, P=table.P,
                          defined=table.defined)


@given(seed=SEEDS, d=DIMS, scale=st.floats(0.0, 0.5))
def test_all_data_consistency_matches_pairwise_oracle(seed, d, scale):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(d, seed)
    basis_a, basis_b = reference_basis(d), OrthonormalBasis(_random_unitary(rng, d))
    beta = transition_matrix(basis_a, basis_b)
    table = _noisy_table(weak_value_table(psi, basis_a, basis_b), rng, scale)
    est = reconstruct_pure_all_data(table, beta)
    candidates = [c.amplitudes for c in est.per_row if c is not None]
    assert abs(est.consistency - oracle_consistency(candidates)) <= 1e-12


# Two cases where the Gram matrix's lower triangle would give another maximum.
@example(seed=3, d=5, blocked=2, masked=0.2, scale=0.3)
@example(seed=24, d=8, blocked=0, masked=0.2, scale=0.3)
@given(seed=SEEDS, d=st.integers(2, 16), blocked=st.integers(0, 14),
       masked=st.floats(0.0, 0.7), scale=st.floats(0.0, 0.5))
def test_all_data_consistency_equals_the_gram_oracle_bit_for_bit(seed, d, blocked, masked,
                                                                 scale):
    # Basis B starts with `blocked` vectors orthogonal to a_0, whose rows
    # beta blocks; a random share of the other rows is masked.
    rng = np.random.default_rng(seed)
    blocked = min(blocked, d - 2)
    cols = []
    if blocked:
        g = rng.standard_normal((d - 1, blocked)) + 1j * rng.standard_normal((d - 1, blocked))
        cols = list(np.vstack([np.zeros(blocked), np.linalg.qr(g)[0]]).T)
    basis_a = reference_basis(d)
    basis_b = _complete_basis(cols) if cols else OrthonormalBasis(_random_unitary(rng, d))
    beta = transition_matrix(basis_a, basis_b)
    table = _noisy_table(weak_value_table(random_pure_state(d, seed), basis_a, basis_b),
                         rng, scale)
    keep = table.defined & (rng.random(d) >= masked)
    assume((keep & (np.abs(beta.beta).min(axis=1) > 1e-12 * np.abs(beta.beta).max())).any())
    est = reconstruct_pure_all_data(
        WeakValueTable(dim=d, W=table.W, P=table.P, defined=keep), beta)
    candidates = [c.amplitudes for c in est.per_row if c is not None]
    assert all(est.per_row[j] is None for j in range(blocked))
    assert est.consistency == oracle_gram_consistency(candidates)


@given(seed=SEEDS, d=st.integers(2, 8), scale=st.floats(1e-6, 1e6))
def test_mixed_estimator_matches_the_bbasis_oracle(seed, d, scale):
    # Arbitrary complex W, random P and a random unitary beta: the a-basis
    # sum and the b-basis read-out rotated back are one formula.
    rng = np.random.default_rng(seed)
    beta = TransitionMatrix(_random_unitary(rng, d))
    w = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    p = rng.dirichlet(np.ones(d))
    table = WeakValueTable(dim=d, W=w, P=p, defined=np.ones(d, dtype=bool))
    raw = reconstruct_mixed_abasis(table, beta).raw
    expected = oracle_mixed_bbasis(table.W, table.P, beta.beta)
    assert np.max(np.abs(raw - expected)) <= 1e-12 * np.max(np.abs(raw))


@given(seed=SEEDS, vals=st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=6))
def test_projection_returns_the_nearest_state(seed, vals):
    vals = np.array(vals)
    assume(np.clip(vals, 0.0, None).sum() > 1e-3)
    rng = np.random.default_rng(seed)
    v = _random_unitary(rng, vals.size)
    raw = (v * vals) @ v.conj().T
    out = project_to_physical(raw).elements
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    clipped = oracle_clip_renormalise(raw)
    assert np.linalg.norm(out - raw) <= np.linalg.norm(clipped - raw) + 1e-12


def _spectrum(kind: str, rng, d: int) -> np.ndarray:
    if kind == "interior":
        # a unit-trace positive definite spectrum under a common shift
        p = rng.uniform(0.1, 1.0, d)
        return p / p.sum() + rng.uniform(-1.0, 1.0)
    if kind == "clipping":
        return rng.uniform(-1.0, 2.0, d)
    return rng.choice(rng.uniform(-1.0, 1.0, 2), d)  # tied: two values repeated


@given(seed=SEEDS, d=st.integers(2, 16), kind=st.sampled_from(["interior", "clipping", "tied"]),
       skew=st.floats(0.0, 0.1))
def test_projection_matches_the_eigh_oracle_on_both_branches(seed, d, kind, skew):
    rng = np.random.default_rng(seed)
    v = _random_unitary(rng, d)
    raw = (v * _spectrum(kind, rng, d)) @ v.conj().T
    raw = raw + skew * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    state = project_to_physical(raw)
    out = state.elements
    assert np.max(np.abs(out - oracle_nearest_state(raw))) <= 1e-12
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    assert np.max(np.abs(state._root @ state._root.conj().T - out)) <= 1e-12
    if kind == "interior" and skew == 0.0:
        # the shifted matrix is the state, and its Cholesky factor its root
        assert not np.triu(state._root, 1).any()


@given(seed=SEEDS, d=st.integers(2, 6), exponent=st.floats(-300.0, 308.0),
       shape=st.sampled_from(["dense", "diagonal", "tied", "constant"]))
def test_projection_of_any_finite_matrix_is_a_state_or_a_trace_error(seed, d, exponent, shape):
    # Entries up to 1e308 in magnitude, with no warning (the suite turns
    # them into errors).  Top eigenvalues tied within 1 at magnitudes whose
    # rounding exceeds 1e-12 may miss the unit trace; that is refused.
    rng = np.random.default_rng(seed)
    if shape == "dense":
        raw = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    elif shape == "diagonal":
        raw = np.diag(rng.uniform(-1, 1, d)).astype(complex)
    elif shape == "tied":
        raw = np.diag(rng.choice([-1.0, 0.5, 1.0], d)).astype(complex)
    else:
        raw = np.full((d, d), rng.choice([-1.0, 1.0]), dtype=complex)
    raw = raw / np.abs(raw).max() * 10.0**exponent
    try:
        state = project_to_physical(raw)
    except ValueError as exc:
        assert "trace" in str(exc)
        return
    assert abs(np.trace(state.elements) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(state.elements).min() >= -1e-12


@given(seed=SEEDS, d=DIMS, rank=st.integers(1, 6))
def test_projection_is_the_identity_on_states(seed, d, rank):
    rho = random_density_matrix(d, min(rank, d), seed)
    out = project_to_physical(rho.elements)
    assert np.max(np.abs(out.elements - rho.elements)) <= 1e-12


@given(seed=SEEDS, d=DIMS, scale=st.floats(0.0, 0.3))
def test_min_eig_raw_is_the_least_eigenvalue_of_the_raw_estimate(seed, d, scale):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(d, d, seed)
    basis_a, basis_b = reference_basis(d), fourier_basis(d)
    table = _noisy_table(weak_value_table(rho, basis_a, basis_b), rng, scale)
    est = reconstruct_mixed_abasis(table, transition_matrix(basis_a, basis_b))
    hermitized = (est.raw + est.raw.conj().T) / 2.0
    assert abs(est.min_eig_raw - np.linalg.eigvalsh(hermitized).min()) <= 1e-12


def _support_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    # (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 on the eigenvectors of rho
    # whose eigenvalues are not rounding-level zeros
    vals, vecs = np.linalg.eigh(rho)
    kept = vals > 1e-12
    factor = vecs[:, kept] * np.sqrt(vals[kept])
    return np.sqrt(np.linalg.eigvalsh(factor.conj().T @ sigma @ factor)).sum() ** 2


@given(seed=SEEDS, d=DIMS, scale=st.floats(0.0, 0.01))
def test_fidelity_with_carried_spectrum_equals_fresh_matrix(seed, d, scale):
    # The raw matrix needs no clipping, so the state carries the Cholesky
    # factor of the shifted matrix.  Pushing its least eigenvalue below zero
    # makes it clip, and the state carries V sqrt(Lambda) of the projected
    # spectrum.  That state is rank-deficient, where eigh of the fresh matrix
    # returns rounding-level eigenvalues at the exact zeros the carried
    # spectrum holds, and their square roots (about 1e-8) enter fidelity; it
    # is checked against the fidelity read on its support.
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(1.0, 2.0, d)
    v = _random_unitary(rng, d)
    noise = scale * rng.standard_normal((d, d))
    truth = random_density_matrix(d, d, seed + 1)
    interior = (v * (spectrum / spectrum.sum())) @ v.conj().T + noise
    carried = project_to_physical(interior)
    assert not np.triu(carried._root, 1).any()
    fresh = DensityMatrix(carried.elements)
    assert fresh._root is None
    assert abs(fidelity(carried, truth) - fidelity(fresh, truth)) <= 1e-12
    clipped = project_to_physical(interior - 2.0 * np.outer(v[:, 0], v[:, 0].conj()))
    assert np.triu(clipped._root, 1).any()
    assert abs(fidelity(clipped, truth)
               - _support_fidelity(clipped.elements, truth.elements)) <= 1e-12
    for state in (carried, clipped):
        root = state._root
        assert np.max(np.abs(root @ root.conj().T - state.elements)) <= 1e-12
