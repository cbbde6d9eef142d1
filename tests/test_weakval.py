"""Weak values, tables, and the sum rules they satisfy."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weaktomo import (
    DensityMatrix,
    DimensionMismatchError,
    Observable,
    OrthonormalBasis,
    StateVector,
    UndefinedWeakValueError,
    WeakValueTable,
    check_sum_rules,
    fourier_basis,
    random_density_matrix,
    random_pure_state,
    reference_basis,
    transition_matrix,
    weak_value,
    weak_value_table,
)

from oracles import oracle_table, oracle_weak_value

RHO_EXAMPLE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)


def test_weak_value_identity_observable():
    rho = random_density_matrix(3, 3, 0)
    post = random_pure_state(3, 1)
    ident = Observable.from_matrix(np.eye(3, dtype=complex))
    assert weak_value(rho, ident, post) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_weak_value_reduces_to_expectation():
    post = random_pure_state(2, 3)
    obs = Observable.from_matrix(np.array([[0.2, 0.5], [0.5, -0.7]], dtype=complex))
    w = weak_value(post.projector(), obs, post)
    expect = np.vdot(post.amplitudes, obs.matrix @ post.amplitudes)
    assert w == pytest.approx(complex(expect), abs=1e-12)
    assert abs(w.imag) < 1e-12


def test_weak_value_phase_example():
    # pre (|0> + e^{i 0.1}|1>)/sqrt2, measure |1><1|, post (|0> - |1>)/sqrt2:
    # exactly 1/2 - (i/2) cot(0.05)
    theta = 0.1
    pre = StateVector.normalized(np.array([1.0, np.exp(1j * theta)]))
    post = StateVector.normalized(np.array([1.0, -1.0]))
    proj1 = Observable.projector(StateVector(np.array([0.0, 1.0], dtype=complex)))
    w = weak_value(pre.projector(), proj1, post)
    assert w.real == pytest.approx(0.5, abs=1e-12)
    assert w.imag == pytest.approx(-0.5 / np.tan(theta / 2.0), abs=1e-10)
    assert w.imag == pytest.approx(-9.9917, abs=5e-5)


def test_weak_value_undefined_postselection():
    rho = StateVector(np.array([1.0, 0.0], dtype=complex)).projector()
    post = StateVector(np.array([0.0, 1.0], dtype=complex))
    obs = Observable.projector(StateVector(np.array([1.0, 0.0], dtype=complex)))
    with pytest.raises(UndefinedWeakValueError):
        weak_value(rho, obs, post)


def test_weak_value_shift_invariance():
    # W(A + cI) = W(A) + c
    rho = random_density_matrix(3, 2, 5)
    post = random_pure_state(3, 6)
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obs = Observable.from_matrix(h + h.conj().T)
    for c in (0.5, -2.0, 3.25):
        shifted = Observable.from_matrix(obs.matrix + c * np.eye(3))
        assert weak_value(rho, shifted, post) == pytest.approx(
            weak_value(rho, obs, post) + c, abs=1e-12)


def test_weak_value_pure_state_form():
    # for rho = |psi><psi|, W = <b|A|psi>/<b|psi>
    psi = random_pure_state(4, 11)
    post = random_pure_state(4, 12)
    rng = np.random.default_rng(13)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    obs = Observable.from_matrix(h + h.conj().T)
    w = weak_value(psi.projector(), obs, post)
    direct = np.vdot(post.amplitudes, obs.matrix @ psi.amplitudes) / np.vdot(
        post.amplitudes, psi.amplitudes)
    assert w == pytest.approx(complex(direct), abs=1e-12)


def test_table_maximally_mixed():
    d = 3
    rho = DensityMatrix(np.eye(d, dtype=complex) / d)
    table = weak_value_table(rho, reference_basis(d), fourier_basis(d))
    assert np.allclose(table.W, 1.0 / d, atol=1e-12)
    assert np.allclose(table.P, 1.0 / d, atol=1e-12)
    assert table.defined.all()


def test_table_frozen_qubit_example():
    rho = DensityMatrix(RHO_EXAMPLE)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    expected_w = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0, 0.0]])
    assert np.max(np.abs(table.W - expected_w)) < 1e-12
    assert np.allclose(table.P, [0.75, 0.25], atol=1e-12)


def test_table_basis_state_rows():
    d = 4
    rho = StateVector(np.eye(d, dtype=complex)[:, 0]).projector()
    table = weak_value_table(rho, reference_basis(d), fourier_basis(d))
    assert np.allclose(table.W[:, 0], 1.0, atol=1e-12)
    assert np.max(np.abs(table.W[:, 1:])) < 1e-12


@pytest.mark.parametrize("dim,rank,seed", [(2, 2, 0), (3, 1, 1), (4, 4, 2), (8, 3, 3)])
def test_table_matches_independent_oracle(dim, rank, seed):
    rho = random_density_matrix(dim, rank, seed)
    basis_a = reference_basis(dim)
    basis_b = fourier_basis(dim)
    table = weak_value_table(rho, basis_a, basis_b)
    w_ref, p_ref, def_ref = oracle_table(rho.elements, basis_a.vectors, basis_b.vectors)
    assert np.array_equal(table.defined, def_ref)
    assert np.max(np.abs(table.P - p_ref)) < 1e-13
    assert np.max(np.abs(table.W[def_ref] - w_ref[def_ref])) < 1e-13


def test_table_dual_route_agreement():
    # Eq-form W = beta * <a|rho|b> / P against the projector trace form.
    rho = random_density_matrix(5, 5, 21)
    basis_a = reference_basis(5)
    basis_b = fourier_basis(5)
    table = weak_value_table(rho, basis_a, basis_b)
    for j in range(5):
        b = basis_b.column(j)
        for i in range(5):
            a = basis_a.vectors[:, i]
            proj = np.outer(a, a.conj())
            direct = oracle_weak_value(rho.elements, proj, b.amplitudes)
            assert abs(table.W[j, i] - direct) < 1e-13


def test_single_observable_table_matches_trace_form():
    # one pointer: W[j, 0] is the weak value of the observable at outcome j
    rho = random_density_matrix(4, 4, 22)
    obs = Observable.from_eigensystem(np.arange(4.0), reference_basis(4))
    basis_b = fourier_basis(4)
    table = weak_value_table(rho, obs, basis_b)
    assert table.W.shape == (4, 1) and table.n_pointers == 1
    for j in range(4):
        b = basis_b.vectors[:, j]
        assert abs(table.W[j, 0] - oracle_weak_value(rho.elements, obs.matrix, b)) < 1e-13
    assert np.array_equal(table.P, weak_value_table(rho, reference_basis(4), basis_b).P)
    with pytest.raises(DimensionMismatchError):
        check_sum_rules(table)


def test_table_masks_zero_probability_row():
    # state orthogonal to b_1 = (|0> - |1>)/sqrt2
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    table = weak_value_table(psi.projector(), reference_basis(2), fourier_basis(2))
    assert table.defined[0] and not table.defined[1]
    assert np.all(table.W[1] == 0)


def test_sum_rules_random_states():
    for seed in range(8):
        rho = random_density_matrix(4, 3, seed)
        basis_a = reference_basis(4)
        table = weak_value_table(rho, basis_a, fourier_basis(4))
        report = check_sum_rules(table, rho=rho, basis_a=basis_a)
        assert report.row_sum_dev < 1e-10
        assert report.imag_dev < 1e-10
        assert report.diag_dev < 1e-10
        assert report.within(1e-10)


@st.composite
def sum_rule_cases(draw):
    """A Haar-pure or rank-r Ginibre truth at d in 2..16, and a random
    orthonormal post-selection basis (QR of a complex Gaussian)."""
    d = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.none() | st.integers(1, d))
    truth = random_pure_state(d, seed) if rank is None else random_density_matrix(d, rank, seed)
    rng = np.random.default_rng([seed, d])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return truth, OrthonormalBasis(q)


@given(case=sum_rule_cases())
@example(case=(StateVector.normalized(np.ones(2)), fourier_basis(2)))  # row 1 masked
def test_sum_rules_hold_on_every_exact_table(case):
    truth, basis_b = case
    d = truth.dim
    table = weak_value_table(truth, reference_basis(d), basis_b)
    assert check_sum_rules(table, truth).within(1e-12 * d)


def test_sum_rules_refuse_a_state_or_basis_of_another_dimension():
    table = weak_value_table(random_pure_state(2, 0), reference_basis(2), fourier_basis(2))
    for rho, basis_a, dims in ((random_pure_state(3, 0), None, "rho=3, A=2"),
                               (random_density_matrix(3, 3, 0), None, "rho=3, A=2"),
                               (random_pure_state(2, 0), reference_basis(3), "rho=2, A=3")):
        with pytest.raises(DimensionMismatchError, match=f"^dims table=2, {dims} do not agree"):
            check_sum_rules(table, rho=rho, basis_a=basis_a)


def test_sum_rules_detect_perturbation():
    rho = DensityMatrix(RHO_EXAMPLE)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    w = table.W.copy()
    w[0, 0] += 0.1
    bad = WeakValueTable(W=w, P=table.P, defined=table.defined)
    report = check_sum_rules(bad)
    assert report.row_sum_dev == pytest.approx(0.1, abs=1e-12)


def test_sum_rules_skip_masked_rows():
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    table = weak_value_table(psi.projector(), reference_basis(2), fourier_basis(2))
    report = check_sum_rules(table, rho=psi.projector(), basis_a=reference_basis(2))
    assert report.row_sum_dev < 1e-10  # undefined row excluded
    assert report.diag_dev < 1e-10


def test_table_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        WeakValueTable(W=np.zeros((2, 2), dtype=complex),
                       P=np.array([0.7, 0.7]), defined=np.array([True, True]))


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_reference_basis_shortcut_is_byte_equal_to_the_product(d):
    # reference_basis(d) skips the products by its identity vectors; a fresh
    # basis with the same vectors goes through them
    fresh = OrthonormalBasis(np.eye(d))
    rng = np.random.default_rng(d)
    random_b = OrthonormalBasis(np.linalg.qr(rng.standard_normal((d, d))
                                             + 1j * rng.standard_normal((d, d)))[0])
    for basis_b in (fourier_basis(d), random_b):
        assert (transition_matrix(reference_basis(d), basis_b).beta.tobytes()
                == transition_matrix(fresh, basis_b).beta.tobytes())
        for rho in (random_density_matrix(d, d, d), random_pure_state(d, d)):
            short = weak_value_table(rho, reference_basis(d), basis_b)
            full = weak_value_table(rho, fresh, basis_b)
            assert short.W.tobytes() == full.W.tobytes()
            assert short.P.tobytes() == full.P.tobytes()
