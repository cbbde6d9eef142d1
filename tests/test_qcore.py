"""Foundation types: bases, random ensembles, metrics, phase convention."""

from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weaktomo

from weaktomo import (
    DensityMatrix,
    ExperimentConfig,
    NoiseModel,
    PointerConfig,
    WeakValueTable,
    DimensionMismatchError,
    InvalidDimensionError,
    Observable,
    OrthonormalBasis,
    StateVector,
    TransitionMatrix,
    fidelity,
    fix_global_phase,
    fourier_basis,
    project_to_physical,
    random_density_matrix,
    random_pure_state,
    reference_basis,
    trace_distance,
    transition_matrix,
    serialize,
)
from weaktomo.qcore import _density_from_spectrum

INV_SQRT2 = 1.0 / np.sqrt(2.0)
NAN, INF = float("nan"), float("inf")
DIAG_NAN = np.diag([NAN, 1.0])
TABLE = dict(W=np.zeros((2, 2)), P=[0.5, 0.5], defined=[True, True])


@pytest.mark.parametrize("make", [
    lambda: StateVector([NAN, 1.0]),
    lambda: DensityMatrix(DIAG_NAN),
    lambda: OrthonormalBasis(np.diag([INF, 1.0])),
    lambda: TransitionMatrix(DIAG_NAN),
    lambda: TransitionMatrix(np.diag([1.0, -INF])),
    lambda: Observable(DIAG_NAN, [0.0, 1.0], reference_basis(2)),
    lambda: Observable(np.diag([0.0, 1.0]), [NAN, 1.0], reference_basis(2)),
    lambda: WeakValueTable(**{**TABLE, "W": DIAG_NAN}),
    lambda: WeakValueTable(**{**TABLE, "P": [NAN, 0.5]}),
    lambda: WeakValueTable(**TABLE, stderr_re=DIAG_NAN, stderr_im=np.zeros((2, 2))),
    lambda: PointerConfig(2, g=NAN),
    lambda: PointerConfig(2, mean_q=INF),
    lambda: NoiseModel(readout_sigma_scale=INF),
    lambda: NoiseModel(systematic_offset=NAN),
    lambda: ExperimentConfig(dim=2, scheme="all_data", pointer_g=NAN),
    lambda: serialize.dumps({"x": NAN}),
], ids=["state", "density", "basis", "beta_nan", "beta_inf", "observable", "eigenvalues",
        "table_W", "table_P", "table_stderr", "pointer_g", "pointer_mean_q", "noise_scale",
        "noise_offset", "config", "dumps"])
def test_non_finite_input_is_rejected(make):
    with pytest.raises(ValueError):
        make()


def _raised_in_weaktomo(exc: BaseException) -> bool:
    """Whether the innermost frame of the exception's traceback is weaktomo
    code, so its message is the package's own and not numpy's."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).parent == Path(weaktomo.__file__).parent


# Finite entries stay below 1e100: a norm or a Gram product of entries near
# the float maximum overflows, which is arithmetic and not the entry check.
ENTRIES = st.sampled_from([0.0, 1.0, NAN, INF, -INF]) | st.floats(-1e100, 1e100)


@given(make=st.sampled_from([StateVector, StateVector.normalized, DensityMatrix,
                             OrthonormalBasis, TransitionMatrix, Observable.from_matrix,
                             project_to_physical]),
       arr=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                      elements=ENTRIES))
@example(make=StateVector.normalized, arr=np.ones(3))
@example(make=TransitionMatrix, arr=np.eye(3))
@example(make=project_to_physical, arr=np.diag([2.0, -1.0]))
def test_every_array_type_returns_a_valid_object_or_its_own_value_error(make, arr):
    # Any rank, side or entry: a checked object of dimension >= 2, or a
    # ValueError raised by weaktomo itself.  A RuntimeWarning on the way
    # fails the test too: pyproject.toml turns it into an error.
    try:
        out = make(arr)
    except ValueError as exc:
        assert _raised_in_weaktomo(exc), exc
        return
    assert out.dim >= 2 and arr.ndim in (1, 2) and np.isfinite(arr).all()


@pytest.mark.parametrize("make, arr, error, message", [
    (StateVector, np.eye(2), DimensionMismatchError,
     "state vector must be a vector, got shape (2, 2)"),
    (StateVector.normalized, np.ones((4, 1)), DimensionMismatchError,
     "state vector must be a vector"),
    (StateVector, np.ones(1), InvalidDimensionError, "dimension must lie in [2, inf], got 1"),
    (DensityMatrix, np.ones((2, 3)), DimensionMismatchError,
     "density matrix must be a square matrix"),
    (OrthonormalBasis, np.ones(4), DimensionMismatchError, "basis must be a square matrix"),
    (TransitionMatrix, np.ones((2, 2, 2)), DimensionMismatchError,
     "transition matrix must be a square matrix"),
    (TransitionMatrix, np.ones((2, 2)), ValueError,
     "transition matrix columns are not orthonormal"),
    (Observable.from_matrix, np.ones((2, 3)), DimensionMismatchError,
     "observable must be a square matrix"),
    (lambda m: Observable(m, [0.0, 1.0], reference_basis(2)), np.ones((2, 3)),
     DimensionMismatchError, "observable must be a square matrix, got shape (2, 3)"),
    (lambda v: Observable.from_eigensystem(v, fourier_basis(2)), np.arange(3.0),
     DimensionMismatchError, "observable parts have mismatched dims"),
    (project_to_physical, np.zeros((1, 1)), InvalidDimensionError, "dimension must lie in"),
], ids=["state_2d", "normalized_2d", "state_d1", "density_2x3", "basis_1d", "beta_3d",
        "beta_not_unitary", "from_matrix_2x3", "observable_2x3", "eigensystem_3_of_2",
        "project_1x1"])
def test_one_array_check_names_the_array_and_the_fault(make, arr, error, message):
    with pytest.raises(error) as info:
        make(arr)
    assert str(info.value).startswith(message)
    assert isinstance(info.value, ValueError)


def test_fourier_basis_d2_columns():
    b = fourier_basis(2)
    assert np.allclose(b.vectors[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert np.allclose(b.vectors[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-12)


def test_fourier_basis_d4_unitary():
    v = fourier_basis(4).vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-14


def test_fourier_basis_d3_mub_magnitudes():
    beta = transition_matrix(reference_basis(3), fourier_basis(3))
    assert np.allclose(np.abs(beta.beta), 1.0 / np.sqrt(3.0), atol=1e-12)
    assert beta.is_mub


def test_fourier_basis_rejects_small_dim():
    with pytest.raises(InvalidDimensionError):
        fourier_basis(1)


def test_transition_matrix_self_is_identity():
    b = fourier_basis(3)
    assert np.max(np.abs(transition_matrix(b, b).beta - np.eye(3))) < 1e-12


def test_transition_matrix_reference_to_fourier_d2():
    beta = transition_matrix(reference_basis(2), fourier_basis(2)).beta
    expected = np.array([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]])
    assert np.max(np.abs(beta - expected)) < 1e-12


def test_transition_matrix_haar_pair_unitary():
    rng = np.random.default_rng(12)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    beta = transition_matrix(OrthonormalBasis(q1), OrthonormalBasis(q2)).beta
    assert np.max(np.abs(beta.conj().T @ beta - np.eye(5))) < 1e-12


def test_transition_matrix_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        transition_matrix(reference_basis(2), reference_basis(3))


def test_random_pure_state_deterministic_and_normalized():
    a = random_pure_state(2, 7)
    b = random_pure_state(2, 7)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12


def test_random_pure_state_haar_marginal():
    # |psi_0|^2 of a Haar qubit state is uniform on [0,1]: mean 0.5.
    vals = [abs(random_pure_state(2, s).amplitudes[0]) ** 2 for s in range(100_000)]
    assert abs(np.mean(vals) - 0.5) < 0.005


def test_random_density_matrix_rank1_is_pure():
    rho = random_density_matrix(3, 1, 4).elements
    assert np.max(np.abs(rho @ rho - rho)) < 1e-10


def test_random_density_matrix_invariants():
    for seed in range(5):
        rho = random_density_matrix(4, 3, seed)
        m = rho.elements
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(m).min() > -1e-12


def test_random_density_matrix_full_rank_positive():
    vals = np.linalg.eigvalsh(random_density_matrix(3, 3, 1).elements)
    assert vals.min() > 0


def test_random_density_matrix_rank_bounds():
    with pytest.raises(ValueError):
        random_density_matrix(3, 0, 0)
    with pytest.raises(ValueError):
        random_density_matrix(3, 4, 0)
    with pytest.raises(ValueError, match="rank must be an integer, got 2.5"):
        random_density_matrix(3, 2.5, 0)


def test_fidelity_and_trace_distance_same_state():
    psi = random_pure_state(3, 9)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12
    assert trace_distance(psi, psi) < 1e-12


def test_fidelity_orthogonal_pure():
    a = StateVector(np.array([1.0, 0.0], dtype=complex))
    b = StateVector(np.array([0.0, 1.0], dtype=complex))
    assert fidelity(a, b) < 1e-12
    assert abs(trace_distance(a, b) - 1.0) < 1e-12


def test_trace_distance_diagonal_example():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    sig = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert abs(trace_distance(rho, sig) - 0.5) < 1e-12


def test_fidelity_symmetric_mixed():
    for seed in range(10):
        x = random_density_matrix(3, 3, 2 * seed)
        y = random_density_matrix(3, 3, 2 * seed + 1)
        assert abs(fidelity(x, y) - fidelity(y, x)) < 1e-12
    # rank-deficient input: the rounding-level eigenvalues at the zero ones
    # are dropped, not square-rooted, so the symmetry holds as for full rank
    x = random_density_matrix(3, 2, 3)
    y = random_density_matrix(3, 3, 8)
    assert abs(fidelity(x, y) - fidelity(y, x)) < 1e-12


def _support_fidelity(rho, sigma, rank):
    # (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 on the top-rank eigenvectors of rho
    vals, vecs = np.linalg.eigh(rho.elements)
    factor = vecs[:, -rank:] * np.sqrt(vals[-rank:])
    return np.sqrt(np.linalg.eigvalsh(factor.conj().T @ sigma.elements @ factor)).sum() ** 2


@pytest.mark.parametrize("d", [16, 64, 256])
def test_fidelity_of_rank_deficient_states_is_read_on_the_support(d):
    for seed in range(3):
        rho = random_density_matrix(d, 2, seed)
        sigma = random_density_matrix(d, 2, seed + 100)
        exact = _support_fidelity(rho, sigma, 2)
        assert abs(fidelity(rho, sigma) - exact) <= 1e-12
        assert abs(fidelity(sigma, rho) - exact) <= 1e-12


def _pure_trace_distance_by_eigvalsh(psi, phi):
    return 0.5 * np.abs(np.linalg.eigvalsh(
        np.outer(psi.amplitudes, psi.amplitudes.conj())
        - np.outer(phi.amplitudes, phi.amplitudes.conj()))).sum()


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16),
       theta=st.floats(0.0, 2 * np.pi))
def test_pure_trace_distance_is_the_orthogonal_component(seed, d, theta):
    psi, phi = random_pure_state(d, seed), random_pure_state(d, [seed, 1])
    dist = trace_distance(psi, phi)
    assert abs(dist - _pure_trace_distance_by_eigvalsh(psi, phi)) <= 1e-12
    assert abs(dist - trace_distance(phi, psi)) <= 1e-12
    assert abs(dist - np.sqrt(1.0 - fidelity(psi, phi))) <= 1e-7
    # the same ray: 1 - |<psi|phi>|^2 cancels to +-2e-16 here, whose square
    # root would read about 1.5e-8
    assert trace_distance(psi, StateVector(np.exp(1j * theta) * psi.amplitudes)) <= 1e-15


def _state_with_spectrum(vals, seed):
    d = len(vals)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    mat = (q * np.asarray(vals)) @ q.conj().T
    return (mat + mat.conj().T) / 2.0


@pytest.mark.parametrize("d", [2, 64])
def test_density_matrix_psd_check_draws_the_line_at_minus_1e_10(d):
    for lowest, accepted in ((-0.99e-10, True), (-1.01e-10, False)):
        vals = np.full(d, (1.0 - lowest) / (d - 1))
        vals[0] = lowest
        mat = _state_with_spectrum(vals, d)
        if accepted:
            DensityMatrix(mat)
        else:
            with pytest.raises(ValueError, match="below -1e-10"):
                DensityMatrix(mat)
    for rank in (1, 2):
        vals = np.zeros(d)
        vals[:rank] = 1.0 / rank
        DensityMatrix(_state_with_spectrum(vals, d + rank))
        random_density_matrix(d, rank, rank)


def test_density_from_spectrum_checks_the_spectrum_it_carries():
    d = 4
    vals = np.array([0.0, 0.2, 0.3, 0.5])
    vecs = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)) + 0j)[0]
    rho = _density_from_spectrum(vals, vecs)
    assert np.max(np.abs(rho.elements - (vecs * vals) @ vecs.conj().T)) == 0.0
    assert rho._root.tobytes() == (vecs * np.sqrt(vals)).tobytes()
    negative = np.array([-1e-9, 0.2, 0.3, 0.5 + 1e-9])
    with pytest.raises(ValueError, match="below -1e-10"):
        _density_from_spectrum(negative, vecs)
    # Column 0 has weight 0, so stretching it leaves the matrix as it was and
    # only the unitarity check sees it.
    for column, message in ((3, "trace"), (0, "orthonormal")):
        stretched = vecs.copy()
        stretched[:, column] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match=message):
            _density_from_spectrum(vals, stretched)


def test_reference_basis_is_built_once_per_dimension():
    assert reference_basis(5) is reference_basis(5)
    assert reference_basis(np.int64(5)) is reference_basis(5)
    assert not reference_basis(5).vectors.flags.writeable
    assert reference_basis(5).vectors.tolist() == np.eye(5).tolist()
    with pytest.raises(InvalidDimensionError):
        reference_basis(1)
    with pytest.raises(InvalidDimensionError):
        reference_basis(5.0)


def test_trace_distance_triangle_inequality():
    for seed in range(10):
        x = random_density_matrix(3, 3, 3 * seed)
        y = random_density_matrix(3, 2, 3 * seed + 1)
        z = random_density_matrix(3, 3, 3 * seed + 2)
        assert trace_distance(x, z) <= trace_distance(x, y) + trace_distance(y, z) + 1e-10


def test_fidelity_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        fidelity(random_pure_state(2, 0), random_pure_state(3, 0))


def test_fix_global_phase_largest_amplitude_positive():
    v = np.array([0.1, -0.9j, 0.3], dtype=complex)
    out = fix_global_phase(v)
    k = np.argmax(np.abs(out))
    assert out[k].imag == pytest.approx(0.0, abs=1e-15)
    assert out[k].real > 0
    assert np.allclose(np.abs(out), np.abs(v))


def test_fix_global_phase_tie_breaks_low_index():
    v = np.array([1j, -1j], dtype=complex)
    out = fix_global_phase(v)
    assert out[0].real > 0 and abs(out[0].imag) < 1e-15


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex))


def test_density_matrix_rejects_nonhermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))


def test_observable_eigensystem_roundtrip():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    obs = Observable.from_matrix(h + h.conj().T)
    rebuilt = (obs.eigenbasis.vectors * obs.eigenvalues) @ obs.eigenbasis.vectors.conj().T
    assert np.max(np.abs(rebuilt - obs.matrix)) < 1e-10
    assert obs.non_degenerate


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_reference_basis_shortcut_is_byte_equal_to_the_product(d):
    # over reference_basis(d) the observable is diag(lambda), built without
    # the products by its identity vectors; a fresh basis with the same
    # vectors goes through them, and turns each -0.0 eigenvalue into 0.0
    fresh = OrthonormalBasis(np.eye(d))
    rng = np.random.default_rng(d)
    for lam in (np.arange(d, dtype=float), -np.arange(d, dtype=float),
                rng.standard_normal(d), np.where(rng.random(d) < 0.5, -0.0, 0.0)):
        short = Observable.from_eigensystem(lam, reference_basis(d))
        full = Observable.from_eigensystem(lam, fresh)
        assert short.matrix.tobytes() == full.matrix.tobytes()
        assert short.eigenvalues.tobytes() == full.eigenvalues.tobytes()
        # the rebuild check reads the same diagonal: it keeps the matrix
        # within 1e-10 and refuses one beyond it, over either basis
        for basis in (reference_basis(d), fresh):
            off = np.zeros((d, d), dtype=complex)
            off[0, 1] = off[1, 0] = 5e-11
            Observable(short.matrix + off, lam, basis)
            with pytest.raises(ValueError, match="does not reproduce"):
                Observable(short.matrix + 4 * off, lam, basis)


def test_observable_projector_degenerate_for_d3():
    proj = Observable.projector(random_pure_state(3, 2))
    assert not proj.non_degenerate  # eigenvalue 0 is repeated
    assert np.allclose(sorted(np.round(proj.eigenvalues, 10)), [0, 0, 1])
    # the constructor derives it from any repeated spectrum, in any order
    repeated = Observable(np.diag([1.0, 2.0, 1.0]), [1.0, 2.0, 1.0], reference_basis(3))
    assert not repeated.non_degenerate
    assert Observable(np.diag([2.0, 0.0, 1.0]), [2.0, 0.0, 1.0], reference_basis(3)).non_degenerate


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16),
       stretch=st.sampled_from([1.0, 1.0 + 4e-13, 1.0 - 4e-13]))
def test_observable_projector_has_its_known_eigensystem(seed, d, stretch):
    # the matrix is bit for bit what from_matrix keeps of the outer product;
    # the eigensystem is (0, ..., 0, 1) with the state itself last
    amp = random_pure_state(d, seed).amplitudes * stretch
    proj = Observable.projector(StateVector(amp))
    outer = np.outer(amp, amp.conj())
    assert proj.matrix.tobytes() == Observable.from_matrix(outer).matrix.tobytes()
    assert proj.eigenvalues.tolist() == [0.0] * (d - 1) + [1.0]
    assert proj.non_degenerate == (d == 2)
    vecs = proj.eigenbasis.vectors
    assert np.max(np.abs(vecs[:, -1] - amp / np.linalg.norm(amp))) <= 1e-15
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= 1e-12
