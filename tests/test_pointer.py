"""Pointer model: first-order shifts, the exact law, sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaktomo import (
    PROB_FLOOR,
    DensityMatrix,
    DimensionMismatchError,
    InvalidRecordsError,
    NoiseModel,
    Observable,
    PointerConfig,
    PreconditionError,
    RecordStream,
    StateVector,
    WeakValueTable,
    estimate_weak_values,
    exact_law,
    fourier_basis,
    random_density_matrix,
    random_pure_state,
    reference_basis,
    sample_records,
    table_shifts,
    weak_value_table,
)

from weaktomo.pointer import _sampled_table

from oracles import (
    oracle_first_order_probability,
    oracle_gaussian_pointer,
    oracle_grid,
    oracle_grid_evolution,
    oracle_pointer_covariance,
    oracle_shifts,
)

RHO_EXAMPLE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)


def _phase_probe_state(theta=0.1):
    return StateVector.normalized(np.array([1.0, np.exp(1j * theta)]))


# ---------------------------------------------------------------- first order


# (W, g, expected dq, expected dp) at sigma_q = 1, so sigma_p = 1/2.
FIRST_ORDER_CASES = {
    # dq = g Re W, dp = 2 g sigma_p^2 Im W, checked against the oracle
    "values": (complex(0.5, -0.5 / np.tan(0.05)), 0.01, 0.005, -0.049958),
    "zero_coupling": (3.0 + 4.0j, 0.0, 0.0, 0.0),
    "real_w_moves_q_only": (2.5 + 0.0j, 0.05, 0.125, 0.0),
}


@pytest.mark.parametrize("case", FIRST_ORDER_CASES)
def test_table_shifts_on_single_pointer_table(case):
    w, g, dq_want, dp_want = FIRST_ORDER_CASES[case]
    # a d x 1 table: outcome 0 carries W, outcome 1 a second weak value
    table = WeakValueTable(dim=2, W=[[w], [1.0 - 2.0j]], P=[0.5, 0.5], defined=[True, True])
    dq, dp = table_shifts(table, PointerConfig.uniform(1, g=g, sigma_q=1.0))
    assert dq.shape == dp.shape == (2, 1)
    assert dq[0, 0] == pytest.approx(dq_want, abs=1e-15)
    assert dp[0, 0] == pytest.approx(dp_want, abs=1e-6)
    for row in range(2):
        dq_ref, dp_ref = oracle_shifts(table.W[row, 0], g, 0.5)
        assert dq[row, 0] == pytest.approx(dq_ref, abs=1e-15)
        assert dp[row, 0] == pytest.approx(dp_ref, abs=1e-15)
    if g == 0.0:
        assert not dq.any() and not dp.any()
    if w.imag == 0.0:
        assert dp[0, 0] == 0.0


def test_table_shifts_elementwise():
    rho = DensityMatrix(RHO_EXAMPLE)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    cfg = PointerConfig.uniform(2, g=0.05, sigma_q=1.0)
    dq, dp = table_shifts(table, cfg)
    assert np.max(np.abs(dq - 0.05 * table.W.real)) < 1e-15
    assert np.max(np.abs(dp - 2.0 * 0.05 * 0.25 * table.W.imag)) < 1e-15


def test_table_shifts_pointer_count_mismatch():
    rho = DensityMatrix(RHO_EXAMPLE)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    with pytest.raises(DimensionMismatchError):
        table_shifts(table, PointerConfig.uniform(3, g=0.05))


def test_exact_probability_moves_with_mean_momentum():
    # nonzero <p> shifts P by 2 g Im(W) <p> at first order, which the exact
    # law reproduces.
    psi = StateVector.normalized(np.array([0.8, 0.3 + 0.52j]))
    post = fourier_basis(2).column(1)
    proj = Observable.projector(StateVector(np.eye(2, dtype=complex)[:, 0]))
    cfg = PointerConfig.uniform(1, g=0.01, sigma_q=1.0, mean_p=0.3)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    approx = oracle_first_order_probability(rho, post.amplitudes, proj.matrix, 0.01, 0.3)
    P, _, _ = exact_law(psi, proj, fourier_basis(2), cfg)
    base = np.abs(np.vdot(post.amplitudes, psi.amplitudes)) ** 2
    assert approx != pytest.approx(base, abs=1e-4)  # the correction is active
    assert approx == pytest.approx(P[1], abs=2e-3 * base)


# ------------------------------------------------------------- grid oracle


def test_gaussian_pointer_moments():
    # the grid oracle starts from the Gaussian the closed form assumes
    q, k = oracle_grid(256, 10.0)
    psi = oracle_gaussian_pointer(q, mean_q=0.3, mean_p=0.7, sigma_q=1.0)
    prob = np.abs(psi) ** 2
    assert np.sum(q * prob) == pytest.approx(0.3, abs=1e-9)
    var = np.sum((q - 0.3) ** 2 * prob)
    assert np.sqrt(var) == pytest.approx(1.0, abs=1e-9)
    phi = np.fft.fft(psi)
    phi /= np.linalg.norm(phi)
    assert np.sum(k * np.abs(phi) ** 2) == pytest.approx(0.7, abs=1e-9)


def test_gaussian_pointer_covariance_vanishes():
    q, k = oracle_grid(256, 10.0)
    psi = oracle_gaussian_pointer(q, mean_q=0.3, mean_p=0.7, sigma_q=1.0)
    assert abs(oracle_pointer_covariance(psi, q, k)) < 1e-10


# --------------------------------------------------------------- exact law


def _oracle_cases():
    """(name, rho, measured, observable matrices of its pointers) at d = 2, 3."""
    cases = []
    for d in (2, 3):
        for kind, rho in (("pure", random_pure_state(d, 5)),
                          ("ginibre", random_density_matrix(d, d, 5))):
            lam = np.array([0.0, 1.0, 2.5])[:d]
            obs = Observable.from_eigensystem(lam, reference_basis(d))
            proj = Observable.projector(StateVector.normalized(np.ones(d)))
            # the projector's eigenvalue 0 is degenerate at d = 3
            measured = [("observable", obs, [obs.matrix]),
                        ("projector", proj, [proj.matrix])]
            if d == 2:
                measured.insert(0, ("basis", reference_basis(2),
                                    [np.diag(e).astype(complex) for e in np.eye(2)]))
            cases += [(f"{name}/{kind}/{d}", rho, m, mats) for name, m, mats in measured]
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_exact_law_matches_grid_oracle(case):
    _, rho, measured, mats = case
    cfg = PointerConfig.uniform(len(mats), g=0.3, sigma_q=0.8, mean_q=0.1, mean_p=0.4)
    basis_b = fourier_basis(rho.dim)
    P, dq, dp = exact_law(rho, measured, basis_b, cfg)
    assert P.shape == (rho.dim,) and dq.shape == dp.shape == (rho.dim, len(mats))
    mat = np.outer(rho.amplitudes, rho.amplitudes.conj()) if isinstance(
        rho, StateVector) else rho.elements
    per_pointer = [np.full(len(mats), x) for x in (cfg.g, cfg.sigma_q, cfg.mean_q, cfg.mean_p)]
    for j in range(rho.dim):
        prob, dq_grid, dp_grid = oracle_grid_evolution(mat, mats, *per_pointer,
                                                       basis_b.vectors[:, j])
        assert abs(P[j] - prob) <= 1e-9
        assert np.max(np.abs(dq[j] - dq_grid)) <= 1e-9
        assert np.max(np.abs(dp[j] - dp_grid)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 32),
       g=st.floats(0.0, 1.0, exclude_min=True), one_pointer=st.booleans(),
       pure=st.booleans())
def test_exact_law_probabilities_sum_to_one(seed, d, g, one_pointer, pure):
    rho = random_pure_state(d, seed) if pure else random_density_matrix(d, d, seed)
    if one_pointer:
        lam = np.random.default_rng(seed).standard_normal(d)
        measured = Observable.from_eigensystem(lam, fourier_basis(d))
    else:
        measured = reference_basis(d)
    cfg = PointerConfig.uniform(1 if one_pointer else d, g=g, sigma_q=0.8,
                                mean_q=0.1, mean_p=0.4)
    P, _, _ = exact_law(rho, measured, fourier_basis(d), cfg)
    assert abs(P.sum() - 1.0) <= 1e-12


def test_exact_law_pointer_count_mismatch():
    rho = DensityMatrix(RHO_EXAMPLE)
    with pytest.raises(DimensionMismatchError):
        exact_law(rho, reference_basis(2), fourier_basis(2), PointerConfig.uniform(1))
    obs = Observable.from_matrix(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(DimensionMismatchError):
        exact_law(rho, obs, fourier_basis(2), PointerConfig.uniform(2))


def test_exact_evolution_eigenstate_is_exact():
    # pre an eigenstate of A: the pointer translates by exactly g * eigenvalue
    # at every order, and the momentum never moves.
    pre = StateVector(np.eye(2, dtype=complex)[:, 0])
    obs = Observable.from_matrix(np.diag([1.0, -1.0]).astype(complex))
    cfg = PointerConfig.uniform(1, g=0.3, sigma_q=1.0)
    P, dq, dp = exact_law(pre, obs, fourier_basis(2), cfg)
    assert dq[0, 0] == pytest.approx(0.3, abs=1e-9)
    assert dp[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert P[0] == pytest.approx(0.5, abs=1e-9)


def test_exact_evolution_first_order_error_scales_quadratically():
    # halving g divides the residual |dq/g - Re W| by about four
    psi = StateVector.normalized(np.array([0.8, 0.3 + 0.52j]))
    post = fourier_basis(2).column(1)
    proj = Observable.projector(StateVector(np.eye(2, dtype=complex)[:, 0]))
    w = np.vdot(post.amplitudes, proj.matrix @ psi.amplitudes) / np.vdot(
        post.amplitudes, psi.amplitudes)
    gs = np.array([0.04, 0.02, 0.01, 0.005])
    err_q = np.empty(gs.size)
    err_p = np.empty(gs.size)
    for m, g in enumerate(gs):
        cfg = PointerConfig.uniform(1, g=float(g), sigma_q=1.0)
        _, dq, dp = exact_law(psi, proj, fourier_basis(2), cfg)
        err_q[m] = abs(dq[1, 0] / g - w.real)
        err_p[m] = abs(dp[1, 0] / (2.0 * g * cfg.sigma_p ** 2) - w.imag)
    slope_q = np.polyfit(np.log(gs), np.log(err_q), 1)[0]
    slope_p = np.polyfit(np.log(gs), np.log(err_p), 1)[0]
    assert 1.7 <= slope_q <= 2.3
    assert 1.7 <= slope_p <= 2.3
    # successive g-halvings shrink the residual by ~2^2
    assert np.all(err_q[:-1] / err_q[1:] > 3.0)
    assert np.all(err_q[:-1] / err_q[1:] < 5.0)


def test_exact_evolution_two_pointers_match_single_runs():
    # commuting couplings: each pointer's marginal shift agrees with the
    # corresponding single-pointer experiment far below first-order size
    psi = StateVector.normalized(np.array([0.8, 0.3 + 0.52j]))
    basis = reference_basis(2)
    cfg2 = PointerConfig.uniform(2, g=0.01, sigma_q=1.0)
    _, dq2, dp2 = exact_law(psi, basis, fourier_basis(2), cfg2)
    cfg1 = PointerConfig.uniform(1, g=0.01, sigma_q=1.0)
    for i in range(2):
        proj = Observable.projector(basis.column(i))
        _, dq1, dp1 = exact_law(psi, proj, fourier_basis(2), cfg1)
        assert dq2[0, i] == pytest.approx(dq1[0, 0], abs=1e-3 * 0.01)
        assert dp2[0, i] == pytest.approx(dp1[0, 0], abs=1e-3 * 0.01)


def test_exact_evolution_mixed_state_matches_component_average():
    # rho = sum w_m |chi_m><chi_m|: conditional means combine with
    # probability weights, not uniformly.
    rho = DensityMatrix(RHO_EXAMPLE)
    obs = Observable.projector(StateVector(np.eye(2, dtype=complex)[:, 0]))
    cfg = PointerConfig.uniform(1, g=0.02, sigma_q=1.0)
    P, dq, _ = exact_law(rho, obs, fourier_basis(2), cfg)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    assert dq[1, 0] / 0.02 == pytest.approx(table.W[1, 0].real, abs=2e-3)
    assert P[1] == pytest.approx(table.P[1], abs=1e-4)


def test_exact_evolution_orthogonal_postselection():
    # an unreachable outcome is a masked row: zero probability, zero shifts
    pre = StateVector(np.eye(2, dtype=complex)[:, 0])
    obs = Observable.projector(pre)
    cfg = PointerConfig.uniform(1, g=0.01, sigma_q=1.0)
    P, dq, dp = exact_law(pre, obs, reference_basis(2), cfg)
    assert P[1] <= PROB_FLOOR
    assert dq[1, 0] == 0.0 and dp[1, 0] == 0.0
    assert P[0] == pytest.approx(1.0, abs=1e-12)
    assert dq[0, 0] == pytest.approx(0.01, abs=1e-12)


# -------------------------------------------------------------------- config


def test_pointer_config_rejects_negative_coupling():
    with pytest.raises(ValueError):
        PointerConfig.uniform(1, g=-0.01)


def test_noise_model_rejects_negative_scale():
    with pytest.raises(ValueError):
        NoiseModel(readout_sigma_scale=-1.0)


# ------------------------------------------------------------------ sampling


def test_sampling_outcome_frequencies():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    cfg = PointerConfig.uniform(2, g=0.05)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=1_000_000, seed=0)
    est = estimate_weak_values(records, cfg, 2)
    assert est.P[0] == pytest.approx(0.5, abs=0.002)


def test_sampling_noiseless_readouts_recover_means_exactly():
    rho = DensityMatrix(RHO_EXAMPLE)
    cfg = PointerConfig.uniform(2, g=0.05)
    quiet = NoiseModel(readout_sigma_scale=0.0)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=2048, seed=1, noise=quiet)
    est = estimate_weak_values(records, cfg, 2)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    assert np.max(np.abs(est.W - table.W)) < 1e-12
    assert np.max(est.stderr_re) < 1e-12
    assert np.max(est.stderr_im) < 1e-12


def test_sampling_tiny_readout_noise_reveals_shift():
    # with the readout spread scaled to 1e-9 every position record sits at
    # g Re W to better than six digits
    rho = DensityMatrix(RHO_EXAMPLE)
    cfg = PointerConfig.uniform(2, g=0.05)
    noise = NoiseModel(readout_sigma_scale=1e-9)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=512, seed=2, noise=noise)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    q_mask = records.quadrature == 0
    for j, i, r in zip(records.outcome[q_mask], records.pointer[q_mask],
                       records.readout[q_mask]):
        assert r == pytest.approx(0.05 * table.W[j, i].real, abs=1e-7)


def test_sampling_systematic_offset_biases_positions():
    rho = DensityMatrix(RHO_EXAMPLE)
    cfg = PointerConfig.uniform(2, g=0.05)
    noise = NoiseModel(readout_sigma_scale=0.0, systematic_offset=0.25)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=1024, seed=3, noise=noise)
    est = estimate_weak_values(records, cfg, 2)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    # offset / g = 5 lands on every real part; imaginary parts are untouched
    assert np.max(np.abs(est.W.real - table.W.real - 5.0)) < 1e-12
    assert np.max(np.abs(est.W.imag - table.W.imag)) < 1e-12


@pytest.mark.parametrize("cfg, noise, shots", [
    (PointerConfig(2), NoiseModel(systematic_offset=7.4e152), 1000),
    (PointerConfig(2, sigma_q=1e150), NoiseModel(readout_sigma_scale=1e10), 1000),
    (PointerConfig(2), NoiseModel(systematic_offset=1e152), 10**6),
    (PointerConfig(2, sigma_q=1e153), NoiseModel(), 10**6),
    (PointerConfig(2, mean_q=1.34e154), NoiseModel(systematic_offset=4e152), 1000),
    (PointerConfig(2, sigma_q=1e154), NoiseModel(), 1),
    (PointerConfig(2, sigma_q=5e-155), NoiseModel(), 1),
], ids=["offset_over_g", "spread_times_scale", "shots_offset", "shots_spread",
        "shots_mean_and_offset", "one_shot_position_tail", "one_shot_momentum_tail"])
def test_sampling_refuses_pointer_and_noise_values_that_overflow_together(cfg, noise, shots):
    # each value has a finite square; what the sampler forms from two, or
    # from the shots and the readouts of a cell, does not; a single readout
    # 1.34 spreads of 1e154 from its mean squares past the float range
    for sample in (sample_records, _sampled_table):
        with pytest.raises(ValueError, match="finite square"):
            sample(random_pure_state(2, 0), reference_basis(2), fourier_basis(2), cfg,
                   shots, 0, noise)


def test_sampling_estimates_consistent_within_four_sigma():
    rho = DensityMatrix(RHO_EXAMPLE)
    cfg = PointerConfig.uniform(2, g=0.4, sigma_q=1.0)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=1_000_000, seed=0)
    est = estimate_weak_values(records, cfg, 2)
    table = weak_value_table(rho, reference_basis(2), fourier_basis(2))
    z_re = np.abs(est.W.real - table.W.real) / est.stderr_re
    z_im = np.abs(est.W.imag - table.W.imag) / est.stderr_im
    assert np.max(z_re) < 4.0
    assert np.max(z_im) < 4.0
    # at this coupling and trial count the leading entry is pinned to ~0.004
    assert est.stderr_re[0, 0] < 0.005
    assert est.W[0, 0].real == pytest.approx(2.0 / 3.0, abs=0.02)


def test_sampling_masked_outcome_never_drawn():
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    cfg = PointerConfig.uniform(2, g=0.05)
    records = sample_records(psi.projector(), reference_basis(2),
                             fourier_basis(2), cfg, shots=4096, seed=4)
    assert not np.any(records.outcome == 1)
    est = estimate_weak_values(records, cfg, 2)
    assert est.defined[0] and not est.defined[1]
    assert np.all(est.W[1] == 0)


def test_sampling_same_seed_reproduces_stream():
    rho = random_density_matrix(3, 3, 9)
    cfg = PointerConfig.uniform(3, g=0.05)
    a = sample_records(rho, reference_basis(3), fourier_basis(3), cfg,
                       shots=10_000, seed=11)
    b = sample_records(rho, reference_basis(3), fourier_basis(3), cfg,
                       shots=10_000, seed=11)
    assert a.to_csv() == b.to_csv()
    c = sample_records(rho, reference_basis(3), fourier_basis(3), cfg,
                       shots=10_000, seed=12)
    assert a.to_csv() != c.to_csv()


def test_record_csv_round_trip():
    rho = DensityMatrix(RHO_EXAMPLE)
    cfg = PointerConfig.uniform(2, g=0.05)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=500, seed=5)
    back = RecordStream.from_csv(records.to_csv())
    assert np.array_equal(back.trial, records.trial)
    assert np.array_equal(back.outcome, records.outcome)
    assert np.array_equal(back.pointer, records.pointer)
    assert np.array_equal(back.quadrature, records.quadrature)
    assert np.array_equal(back.readout, records.readout)
    assert back.n_trials == records.n_trials


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), one_pointer=st.booleans(),
       shots=st.integers(1, 300), sigma_scale=st.floats(0.0, 3.0),
       offset=st.floats(-1.0, 1.0))
def test_record_csv_round_trip_property(seed, d, one_pointer, shots, sigma_scale, offset):
    if one_pointer:
        measured = Observable.from_eigensystem(np.arange(d, dtype=float), reference_basis(d))
    else:
        measured = reference_basis(d)
    cfg = PointerConfig.uniform(1 if one_pointer else d, g=0.2)
    records = sample_records(random_density_matrix(d, d, seed), measured, fourier_basis(d),
                             cfg, shots=shots, seed=seed,
                             noise=NoiseModel(sigma_scale, offset))
    text = records.to_csv()
    back = RecordStream.from_csv(text)
    for name in ("trial", "outcome", "pointer", "quadrature", "readout"):
        mine, theirs = getattr(records, name), getattr(back, name)
        assert theirs.dtype == mine.dtype and theirs.tobytes() == mine.tobytes()
    assert back.n_trials == records.n_trials == shots
    assert back.to_csv() == text


def test_record_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        RecordStream.from_csv("a,b,c\n1,2,3\n")


VALID_RECORDS = ("trial,outcome_j,pointer,quadrature,readout\n"
                 "0,0,0,q,0.1\n0,0,1,q,0.2\n1,1,0,p,0.3\n1,1,1,p,0.4\n")
# Each case replaces data row 3 of VALID_RECORDS (d = 2, two pointers).
BAD_ROW_3 = {
    "outcome": "1,2,0,p,0.3",
    "pointer": "1,1,2,p,0.3",
    "readout": "1,1,0,p,nan",
    "fields": "1,1,0,p",
    "quadrature": "1,1,0,x,0.3",
}


def bad_records(case):
    return VALID_RECORDS.replace("1,1,0,p,0.3", BAD_ROW_3[case])


def test_valid_records_fixture_estimates():
    records = RecordStream.from_csv(VALID_RECORDS)
    table = estimate_weak_values(records, PointerConfig.uniform(2, g=0.1), 2)
    assert table.defined.tolist() == [False, False]


@pytest.mark.parametrize("case", sorted(BAD_ROW_3))
def test_bad_records_row_is_named(case):
    with pytest.raises(InvalidRecordsError, match=r"records row 3\b") as err:
        records = RecordStream.from_csv(bad_records(case))
        estimate_weak_values(records, PointerConfig.uniform(2, g=0.1), 2)
    assert err.value.code == "invalid-records"


def test_bad_records_in_memory_stream_are_rejected():
    # Streams built in code get the same checks as parsed ones.
    records = RecordStream.from_csv(VALID_RECORDS)
    bad = RecordStream(trial=records.trial, outcome=records.outcome,
                       pointer=records.pointer, quadrature=[0, 0, 1, 2],
                       readout=[0.1, 0.2, 0.3, np.inf])
    with pytest.raises(InvalidRecordsError, match="records row 4: quadrature 2"):
        estimate_weak_values(bad, PointerConfig.uniform(2, g=0.1), 2)
    single = RecordStream(trial=[0, 1], outcome=[0, 1], pointer=[0, 1],
                          quadrature=[0, 1], readout=[0.1, 0.2])
    with pytest.raises(InvalidRecordsError, match="records row 2: pointer 1"):
        estimate_weak_values(single, PointerConfig.uniform(1, g=0.1), 2)


# Each case edits VALID_RECORDS out of the per-trial layout: the text
# replaced, its replacement, and the first bad row with what is wrong there.
BAD_TRIALS = {
    "row missing": ("0,0,1,q,0.2\n", "", "records row 2: trial 1 where 0 belongs"),
    "pointers swapped": ("0,0,0,q,0.1\n0,0,1,q,0.2", "0,0,1,q,0.2\n0,0,0,q,0.1",
                         "records row 1: pointer 1 where 0 belongs"),
    "two outcomes": ("0,0,1,q,0.2", "0,1,1,q,0.2", "records row 2: outcome 1 where 0 belongs"),
    "trial skipped": ("1,1,0,p,0.3\n1,1,1,p,0.4", "2,1,0,p,0.3\n2,1,1,p,0.4",
                      "records row 3: trial 2 where 1 belongs"),
    "quadrature": ("0,0,1,q,0.2", "0,0,1,p,0.2", "records row 2: quadrature p where q belongs"),
    "last trial short": ("1,1,1,p,0.4\n", "",
                         "records row 3: the last trial has 1 of 2 pointer rows"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRIALS))
def test_records_out_of_trial_layout_are_rejected(case):
    old, new, message = BAD_TRIALS[case]
    records = RecordStream.from_csv(VALID_RECORDS.replace(old, new))
    with pytest.raises(InvalidRecordsError, match=message):
        estimate_weak_values(records, PointerConfig.uniform(2, g=0.1), 2)


def test_single_observable_sampling_and_column_estimate():
    rho = DensityMatrix(RHO_EXAMPLE)
    obs = Observable.from_matrix(np.diag([1.0, -1.0]).astype(complex))
    cfg = PointerConfig.uniform(1, g=0.05)
    quiet = NoiseModel(readout_sigma_scale=0.0)
    records = sample_records(rho, obs, fourier_basis(2), cfg,
                             shots=2048, seed=6, noise=quiet)
    col = estimate_weak_values(records, cfg, 2)
    assert col.W.shape == (2, 1)
    bv = fourier_basis(2).vectors
    for j in range(2):
        b = bv[:, j]
        expect = np.vdot(b, obs.matrix @ RHO_EXAMPLE @ b) / np.vdot(b, RHO_EXAMPLE @ b)
        assert col.W[j, 0] == pytest.approx(complex(expect), abs=1e-12)
    assert col.n_trials == 2048


def test_estimation_requires_positive_coupling():
    rho = DensityMatrix(RHO_EXAMPLE)
    cfg = PointerConfig.uniform(2, g=0.05)
    records = sample_records(rho, reference_basis(2), fourier_basis(2),
                             cfg, shots=64, seed=7)
    dead = PointerConfig.uniform(2, g=0.0)
    with pytest.raises(PreconditionError):
        estimate_weak_values(records, dead, 2)
