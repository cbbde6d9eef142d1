"""Reconstruction schemes: frozen worked examples plus failure taxonomy."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import oracle_clip_renormalise, oracle_consistency
from weaktomo import (
    AmbiguousReconstructionError,
    DegenerateDataError,
    DensityMatrix,
    DimensionMismatchError,
    ExperimentConfig,
    MissingDataError,
    Observable,
    OrthonormalBasis,
    PreconditionError,
    SchemeInapplicableError,
    StateVector,
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
    rho = DensityMatrix(RHO_EXAMPLE)
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(rho, basis_a, basis_b)
    est = reconstruct_mixed_bbasis(table, beta)
    b0 = basis_b.column(0).amplitudes
    b1 = basis_b.column(1).amplitudes
    element_b = np.vdot(b0, est.physical.elements @ b1)
    assert element_b == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(est.physical.elements - RHO_EXAMPLE)) < 1e-12


@pytest.mark.parametrize("dim,rank,seed", [(2, 2, 0), (3, 2, 1), (4, 4, 2)])
def test_mixed_bases_mutually_agree(dim, rank, seed):
    rho = random_density_matrix(dim, rank, seed)
    basis_a = reference_basis(dim)
    basis_b = fourier_basis(dim)
    beta = transition_matrix(basis_a, basis_b)
    table = weak_value_table(rho, basis_a, basis_b)
    est_a = reconstruct_mixed_abasis(table, beta)
    est_b = reconstruct_mixed_bbasis(table, beta)
    assert np.max(np.abs(est_a.raw - rho.elements)) < 1e-10
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
    with pytest.raises(SchemeInapplicableError):
        reconstruct_mixed_bbasis(table, beta)


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
    with pytest.raises(DegenerateDataError):
        project_to_physical(-np.eye(2, dtype=complex))


def test_project_physical_rejects_eigenvalue_beyond_unit_trace_resolution():
    # 1e17 - 1 rounds to 1e17, so no eigenvalue count passes the threshold test
    with pytest.raises(DegenerateDataError):
        project_to_physical(np.diag([1e17, 0.0]).astype(complex))


def test_project_physical_is_nearest_state():
    # Clip-and-renormalise would give (7/12, 5/12, 0), farther from the input.
    raw = np.diag([0.7, 0.5, -0.2]).astype(complex)
    out = project_to_physical(raw)
    assert np.max(np.abs(out.elements - np.diag([0.6, 0.4, 0.0]))) < 1e-12


# ------------------------------------------- one eigendecomposition per estimate


def _count_eigen_calls(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("scheme", ["mixed_a", "mixed_b"])
def test_exact_mixed_run_makes_one_eigh_and_four_eigvalsh(monkeypatch, scheme):
    # eigh: the physical projection. eigvalsh: the PSD checks of the truth
    # and of the estimate, the inner root of fidelity, and trace_distance.
    calls = _count_eigen_calls(monkeypatch)
    run_reconstruction(ExperimentConfig(scheme=scheme, dim=16, state_spec="ginibre", seed=5))
    assert calls == {"eigh": 1, "eigvalsh": 4}


def test_all_data_reconstruction_makes_no_eigendecomposition(monkeypatch):
    psi = random_pure_state(16, 5)
    basis_a, basis_b = reference_basis(16), fourier_basis(16)
    table = weak_value_table(psi, basis_a, basis_b)
    beta = transition_matrix(basis_a, basis_b)
    calls = _count_eigen_calls(monkeypatch)
    reconstruct_pure_all_data(table, beta)
    assert calls == {"eigh": 0, "eigvalsh": 0}


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


@given(seed=SEEDS, d=DIMS, scale=st.floats(0.0, 0.01))
def test_fidelity_with_carried_spectrum_equals_fresh_matrix(seed, d, scale):
    # Full-rank projections only: on a rank-deficient one, eigh of the fresh
    # matrix returns rounding-level eigenvalues where the carried spectrum
    # holds exact zeros, and their square roots (about 1e-8) enter fidelity.
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(1.0, 2.0, d)
    v = _random_unitary(rng, d)
    noise = scale * rng.standard_normal((d, d))
    raw = (v * (spectrum / spectrum.sum())) @ v.conj().T + noise
    carried = project_to_physical(raw)
    assert carried._spectrum is not None
    truth = random_density_matrix(d, d, seed + 1)
    fresh = DensityMatrix(carried.elements)
    assert abs(fidelity(carried, truth) - fidelity(fresh, truth)) <= 1e-12
