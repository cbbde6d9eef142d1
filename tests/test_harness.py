"""End-to-end experiment runs, the phase demo, and scheme comparison."""

import math
import os
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from weaktomo import (
    AmbiguousReconstructionError,
    ElementPair,
    ExperimentConfig,
    MissingDataError,
    OrthonormalBasis,
    PreconditionError,
    PURE_SCHEMES,
    RecordStream,
    ResourceLimitError,
    SCHEMES,
    SchemeInapplicableError,
    StateVector,
    compare_schemes,
    demo_phase_detection,
    fourier_basis,
    random_pure_state,
    ramp_probe,
    reference_basis,
    run_reconstruction,
    simulate,
    thread_cap,
    transition_matrix,
    weak_value_table,
)
from weaktomo import harness, pointer, qcore
from weaktomo.harness import _resolve_state
from weaktomo.qcore import _complete_basis

RHO_EXAMPLE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
PSI_EXAMPLE = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)


# ------------------------------------------------------- derived attributes


def test_derived_attributes_read_their_formulas():
    # A value that other fields fix is a read-only attribute, not a field, and
    # reads its formula: on a sampled stream, a mixed_a run and an orthogonal
    # pair's partial run.
    cfg = ExperimentConfig(dim=3, scheme="mixed_a", state_spec="ginibre", state_seed=2,
                           data_mode="sampled", shots=20_000, seed=4)
    records = simulate(cfg)
    assert records.n_trials == int(records.trial.max()) + 1 == cfg.shots
    assert RecordStream(*[np.empty(0)] * 5).n_trials == 0
    mixed = run_reconstruction(cfg)
    raw = mixed.estimate.raw
    assert (mixed.scheme, mixed.table.dim) == (cfg.scheme, mixed.table.W.shape[0])
    assert mixed.estimate.hermiticity_defect == float(np.max(np.abs(raw - raw.conj().T))) > 0
    pair = run_reconstruction(ExperimentConfig(
        dim=2, scheme="partial", state_spec="explicit", state=RHO_EXAMPLE,
        partial_a=np.array([1.0, 0.0], dtype=complex),
        partial_b=np.array([0.0, 1.0], dtype=complex),
        data_mode="sampled", shots=20_000, seed=4)).estimate
    assert isinstance(pair, ElementPair)
    assert pair.hermiticity_gap == float(abs(pair.element_ba - np.conj(pair.element_ab))) > 0
    for obj, name in ((records, "n_trials"), (mixed, "scheme"), (mixed.table, "dim"),
                      (mixed.estimate, "hermiticity_defect"), (pair, "hermiticity_gap")):
        assert name not in {f.name for f in fields(obj)}
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)


# ------------------------------------------------------------------ exact runs


@pytest.mark.parametrize("scheme", PURE_SCHEMES)
def test_pure_schemes_exact_recovery(scheme):
    cfg = ExperimentConfig(dim=4, scheme=scheme, state_seed=1)
    bundle = run_reconstruction(cfg)
    assert bundle.metrics["fidelity"] >= 1.0 - 1e-10
    assert bundle.metrics["trace_distance"] < 1e-5
    assert bundle.scheme == scheme
    assert bundle.wall_time > 0.0


def test_mixed_scheme_explicit_state_exact():
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", state_spec="explicit",
                           state=RHO_EXAMPLE)
    bundle = run_reconstruction(cfg)
    assert bundle.metrics["trace_distance"] < 1e-10
    assert bundle.metrics["hermiticity_gap"] < 1e-12
    assert np.max(np.abs(bundle.estimate.physical.elements - RHO_EXAMPLE)) < 1e-10


def test_mixed_scheme_ginibre_exact():
    for scheme in ("mixed_a", "mixed_b"):
        cfg = ExperimentConfig(dim=3, scheme=scheme, state_spec="ginibre",
                               state_rank=2, state_seed=5)
        bundle = run_reconstruction(cfg)
        assert bundle.metrics["trace_distance"] < 1e-10


def test_mixed_b_is_the_mixed_a_scheme():
    assert SCHEMES["mixed_b"] is SCHEMES["mixed_a"]


@given(state_seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_state_schemes_agree_on_exact_data(state_seed, d):
    # One Haar-pure truth and Fourier B: every scheme that estimates the
    # whole state recovers it from the exact table.
    for scheme in (*PURE_SCHEMES, "mixed_a"):
        bundle = run_reconstruction(ExperimentConfig(dim=d, scheme=scheme,
                                                     state_seed=state_seed))
        assert bundle.metrics["fidelity"] >= 1.0 - 1e-10, scheme


def test_single_observable_reports_kernel():
    cfg = ExperimentConfig(dim=3, scheme="single_observable", state_seed=2)
    bundle = run_reconstruction(cfg)
    assert bundle.metrics["kernel_residual"] < 1e-12
    assert bundle.kernel is not None
    assert bundle.table.n_pointers == 1
    assert bundle.table.n_trials == 0


@pytest.mark.parametrize("lambdas", [np.ones((2, 2)), np.arange(3.0), np.arange(5.0)])
def test_single_observable_needs_one_eigenvalue_per_dimension(lambdas):
    # a 2 x 2 array holds 4 values but is no spectrum of a d=4 observable
    cfg = ExperimentConfig(dim=4, scheme="single_observable", lambdas=lambdas)
    with pytest.raises(ValueError, match=rf"^lambdas must hold 4 eigenvalues, "
                                         rf"got shape \({lambdas.shape[0]},"):
        run_reconstruction(cfg)


def test_exact_mode_ignores_shots_and_noise():
    a = run_reconstruction(ExperimentConfig(dim=3, scheme="all_data", state_seed=3))
    b = run_reconstruction(ExperimentConfig(dim=3, scheme="all_data", state_seed=3,
                                        shots=999, noise_sigma_scale=7.0,
                                        noise_offset=1.5))
    assert a.metrics == b.metrics
    assert np.array_equal(a.table.W, b.table.W)


def test_pure_scheme_rejects_mixed_state():
    cfg = ExperimentConfig(dim=3, scheme="all_data", state_spec="ginibre",
                           state_rank=2, state_seed=4)
    with pytest.raises(SchemeInapplicableError):
        run_reconstruction(cfg)


def test_postselected_undefined_row():
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    cfg = ExperimentConfig(dim=2, scheme="postselected", state_spec="explicit",
                           state=psi, postselect_row=1)
    with pytest.raises(MissingDataError):
        run_reconstruction(cfg)


# ------------------------------------------------------------- provided data


def test_reconstruction_accepts_precomputed_table():
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", state_spec="explicit",
                           state=RHO_EXAMPLE)
    from weaktomo import DensityMatrix
    table = weak_value_table(DensityMatrix(RHO_EXAMPLE), reference_basis(2),
                             fourier_basis(2))
    bundle = run_reconstruction(cfg, table=table)
    assert bundle.metrics["trace_distance"] < 1e-10


def test_reconstruction_rejects_mismatched_payloads():
    cfg_table = ExperimentConfig(dim=2, scheme="all_data", state_seed=1)
    table = run_reconstruction(cfg_table).table
    with pytest.raises(SchemeInapplicableError):
        run_reconstruction(ExperimentConfig(dim=2, scheme="single_projector",
                                            state_seed=1), table=table)
    column = run_reconstruction(ExperimentConfig(dim=2, scheme="single_observable",
                                                 state_seed=1)).table
    with pytest.raises(SchemeInapplicableError):
        run_reconstruction(cfg_table, table=column)
    with pytest.raises(SchemeInapplicableError):
        run_reconstruction(ExperimentConfig(dim=3, scheme="all_data",
                                            state_seed=1), table=table)


def test_partial_scheme_generates_its_own_data():
    # partial reads the d x 1 table of its pair's projector over the pair's
    # own basis, not a basis-A table
    cfg = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit",
                           state=RHO_EXAMPLE)
    bundle = run_reconstruction(cfg)
    assert (bundle.table.dim, bundle.table.n_pointers) == (2, 1)
    assert run_reconstruction(cfg, table=bundle.table).estimate == bundle.estimate
    table = weak_value_table(_resolve_state(cfg), reference_basis(2),
                             fourier_basis(2))
    with pytest.raises(SchemeInapplicableError):
        run_reconstruction(cfg, table=table)


@pytest.mark.parametrize("orthogonal", [False, True])
def test_partial_run_completes_the_pair_basis_once(monkeypatch, orthogonal):
    calls = []
    real = harness._complete_basis
    monkeypatch.setattr(harness, "_complete_basis",
                        lambda columns: calls.append(len(columns)) or real(columns))
    pair = {}
    if orthogonal:
        pair = dict(partial_a=np.array([1.0, 0.0, 0.0], dtype=complex),
                    partial_b=np.array([0.0, 0.0, 1.0], dtype=complex))
    for mode in ("exact", "sampled"):
        run_reconstruction(ExperimentConfig(dim=3, scheme="partial", state_spec="ginibre",
                                            state_seed=2, data_mode=mode, shots=5_000,
                                            **pair))
    # one post-selection vector, b, or two, a and b through the bridge
    assert calls == [2 if orthogonal else 1] * 2


# ------------------------------------------------------------------- partial


def test_partial_default_pair_qubit_example():
    cfg = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit",
                           state=RHO_EXAMPLE)
    bundle = run_reconstruction(cfg)
    # <a_0|rho|b> with b = (e0 + e1)/sqrt2
    assert bundle.estimate == pytest.approx(0.7071 + 0j, abs=5e-5)
    assert bundle.metrics["element_error"] < 1e-12


def test_partial_orthogonal_pair_qubit_example():
    cfg = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit",
                           state=RHO_EXAMPLE,
                           partial_a=np.array([1.0, 0.0], dtype=complex),
                           partial_b=np.array([0.0, 1.0], dtype=complex))
    bundle = run_reconstruction(cfg)
    assert isinstance(bundle.estimate, ElementPair)
    assert bundle.estimate.element_ba == pytest.approx(0.25 + 0j, abs=1e-12)
    assert bundle.metrics["element_error"] < 1e-12
    assert bundle.metrics["hermiticity_gap"] < 1e-12


def test_partial_sampled_routes():
    # budgets are 4x the observed errors (0.014 and 0.020) at this exact
    # configuration; the strong coupling keeps the readout noise small
    # relative to the element without changing the unbiased estimator
    cfg = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit",
                           state=RHO_EXAMPLE, data_mode="sampled",
                           shots=200_000, seed=0, pointer_g=0.4)
    bundle = run_reconstruction(cfg)
    assert bundle.metrics["element_error"] < 0.06
    ortho = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit",
                             state=RHO_EXAMPLE, data_mode="sampled",
                             shots=200_000, seed=0, pointer_g=0.4,
                             partial_a=np.array([1.0, 0.0], dtype=complex),
                             partial_b=np.array([0.0, 1.0], dtype=complex))
    bundle2 = run_reconstruction(ortho)
    assert bundle2.metrics["element_error"] < 0.09


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_partial_unreachable_post_selection_is_missing_data(mode, orthogonal):
    # <b|rho|b> = 0, so no weak value exists at b in either mode
    if orthogonal:
        state = np.array([1.0, 0.0], dtype=complex)
        pair = dict(partial_a=np.array([1.0, 0.0], dtype=complex),
                    partial_b=np.array([0.0, 1.0], dtype=complex))
    else:
        # the default pair: a = e0, b = (e0 + e1)/sqrt2, orthogonal to the truth
        state, pair = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0), {}
    cfg = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit", state=state,
                           data_mode=mode, shots=2_000, seed=0, **pair)
    with pytest.raises(MissingDataError):
        run_reconstruction(cfg)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), rank=st.integers(1, 5),
       orthogonal=st.booleans())
def test_exact_partial_returns_the_matrix_element(seed, d, rank, orthogonal):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    a /= np.linalg.norm(a)
    if orthogonal:
        b -= np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    assume(orthogonal or abs(np.vdot(b, a)) > 1e-2)
    cfg = ExperimentConfig(dim=d, scheme="partial", state_spec="ginibre",
                           state_rank=min(rank, d), state_seed=seed,
                           partial_a=a, partial_b=b)
    rho = _resolve_state(cfg).elements
    estimate = run_reconstruction(cfg).estimate
    if orthogonal:
        assert isinstance(estimate, ElementPair)
        assert abs(estimate.element_ab - np.vdot(a, rho @ b)) <= 1e-12
        assert abs(estimate.element_ba - np.vdot(b, rho @ a)) <= 1e-12
    else:
        assert abs(estimate - np.vdot(a, rho @ b)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16), n=st.integers(1, 2))
def test_complete_basis_keeps_the_given_columns(seed, d, n):
    rng = np.random.default_rng(seed)
    given_cols = np.linalg.qr(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))[0]
    basis = _complete_basis([given_cols[:, k] for k in range(n)])
    assert isinstance(basis, OrthonormalBasis)
    assert basis.vectors[:, :n].tobytes() == np.ascontiguousarray(given_cols).tobytes()
    assert np.max(np.abs(basis.vectors.conj().T @ basis.vectors - np.eye(d))) <= 1e-12


@given(state_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       d=st.integers(2, 6), scheme=st.sampled_from(["mixed_a", "mixed_b"]),
       mode=st.sampled_from(["exact", "sampled"]))
# the general square-root fidelity read 0.8248158395 here
@example(state_seed=9, seed=7, d=3, scheme="mixed_a", mode="sampled")
def test_mixed_scheme_on_pure_truth_scores_the_overlap(state_seed, seed, d, scheme, mode):
    cfg = ExperimentConfig(dim=d, scheme=scheme, data_mode=mode, state_seed=state_seed,
                           seed=seed, shots=20_001)
    bundle = run_reconstruction(cfg)
    psi = random_pure_state(d, state_seed).amplitudes
    overlap = np.vdot(psi, bundle.estimate.physical.elements @ psi).real
    assert abs(bundle.metrics["fidelity"] - overlap) <= 1e-14


# ------------------------------------------------------------------- sampling


def test_sampled_all_data_error_bound():
    # frozen budget: 4x the observed trace distance 0.069 at this exact
    # configuration (dim 4, one million shots, seed 0)
    cfg = ExperimentConfig(dim=4, scheme="all_data", data_mode="sampled",
                           shots=1_000_000, seed=0, state_seed=0)
    bundle = run_reconstruction(cfg)
    assert bundle.metrics["trace_distance"] < 0.28
    assert bundle.metrics["fidelity"] > 0.9


def test_sampled_mixed_error_bound():
    # frozen budget: 4x the observed trace distance 0.096 at this exact
    # configuration (explicit qubit, one hundred thousand shots, seed 0)
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", data_mode="sampled",
                           shots=100_000, seed=0, state_spec="explicit",
                           state=RHO_EXAMPLE)
    bundle = run_reconstruction(cfg)
    assert bundle.metrics["trace_distance"] < 0.40


def test_sampled_runs_are_deterministic():
    cfg = ExperimentConfig(dim=3, scheme="all_data", data_mode="sampled",
                           shots=20_000, seed=7, state_seed=1)
    a = run_reconstruction(cfg)
    b = run_reconstruction(cfg)
    assert a.metrics == b.metrics
    assert np.array_equal(a.table.W, b.table.W)
    c = run_reconstruction(ExperimentConfig(dim=3, scheme="all_data",
                                        data_mode="sampled", shots=20_000,
                                        seed=8, state_seed=1))
    assert not np.array_equal(a.table.W, c.table.W)


def test_sampled_table_carries_standard_errors():
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", data_mode="sampled",
                           shots=50_000, seed=2, state_spec="explicit",
                           state=RHO_EXAMPLE)
    bundle = run_reconstruction(cfg)
    assert bundle.table.stderr_re is not None
    assert np.all(bundle.table.stderr_re[bundle.table.defined] > 0)


# ----------------------------------------------------------------- phase demo


def test_demo_exact_report_values():
    report = demo_phase_detection(0.1)
    assert report.weak_value.real == pytest.approx(0.5, abs=1e-12)
    assert report.weak_value.imag == pytest.approx(-9.9917, abs=5e-5)
    assert report.dq == pytest.approx(0.005, abs=1e-12)
    assert report.dp_shift == pytest.approx(-0.049958, abs=1e-6)
    assert report.leading_order_dp == pytest.approx(-0.05, abs=1e-12)
    # the exact shift sits within 0.1 percent of the small-angle value
    assert abs(report.dp_shift - report.leading_order_dp) < 1e-3 * abs(
        report.leading_order_dp)
    assert report.post_prob == pytest.approx(math.sin(0.05) ** 2, abs=1e-15)
    assert report.theta_estimate is None
    assert not report.low_signal_warning


def test_demo_predicted_error_scaling():
    # predicted relative error ~ 1/(g sigma_p sqrt(shots)), independent of
    # theta for small theta
    r_small = demo_phase_detection(0.1, shots=10_000_000)
    assert r_small.predicted_rel_error == pytest.approx(0.0632, abs=5e-4)
    r_tiny = demo_phase_detection(0.01, shots=10_000_000)
    assert r_tiny.predicted_rel_error == pytest.approx(r_small.predicted_rel_error,
                                                       rel=0.02)


def test_demo_half_turn_phase():
    report = demo_phase_detection(math.pi)
    assert report.weak_value == pytest.approx(0.5 + 0j, abs=1e-12)
    assert report.dp_shift == pytest.approx(0.0, abs=1e-12)
    assert report.post_prob == pytest.approx(1.0, abs=1e-12)


def test_demo_recovers_theta_from_samples():
    report = demo_phase_detection(0.1, shots=10_000_000, seed=0)
    assert abs(report.theta_estimate - 0.1) / 0.1 < 4.0 * report.predicted_rel_error
    assert report.retained > 20_000
    assert not report.low_signal_warning


def test_demo_recovers_small_theta():
    report = demo_phase_detection(0.01, shots=10_000_000, seed=6)
    assert abs(report.theta_estimate - 0.01) / 0.01 < 4.0 * report.predicted_rel_error


@pytest.mark.parametrize("theta", [0.1, 0.01])
def test_demo_predicted_error_is_calibrated(theta):
    # z = (theta_hat - theta) / (theta rel) over n seeds.  To first order in
    # the noise z has mean 0 and spread 1; the curvature of theta(Im W) adds
    # the bias rel (theta/2) cot(theta/2).  Each bound is four standard
    # errors of n seeds plus the next order the model leaves out: rel^2 for
    # the mean, rel for the spread.
    n = 2000
    rel = demo_phase_detection(theta, shots=10_000_000).predicted_rel_error
    z = np.array([demo_phase_detection(theta, shots=10_000_000, seed=s).theta_estimate
                  for s in range(n)])
    z = (z - theta) / (theta * rel)
    bias = rel * (theta / 2.0) / math.tan(theta / 2.0)
    assert abs(z.mean() - bias) <= 4.0 / math.sqrt(n) + rel**2
    assert abs(z.std(ddof=1) - 1.0) <= 4.0 / math.sqrt(2.0 * n) + rel


def test_demo_warns_when_starved():
    report = demo_phase_detection(0.01, shots=100, seed=0)
    assert report.low_signal_warning
    if report.retained == 0:
        assert report.theta_estimate is None


def test_demo_domain_guards():
    for theta in (0.0, -0.5, math.pi + 0.01):
        with pytest.raises(PreconditionError):
            demo_phase_detection(theta)
    with pytest.raises(PreconditionError):
        demo_phase_detection(0.1, g=0.0)
    with pytest.raises(PreconditionError):
        demo_phase_detection(0.1, sigma_p=-1.0)
    with pytest.raises(PreconditionError):
        demo_phase_detection(0.1, shots=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            demo_phase_detection(0.1, g=bad)
        with pytest.raises(PreconditionError):
            demo_phase_detection(0.1, sigma_p=bad)
    with pytest.raises(ValueError, match="shots must be an integer, got 2.5"):
        demo_phase_detection(0.1, shots=2.5)


def test_demo_numbers_that_leave_the_float_range_raise():
    # Finite inputs: dp = 2 g Im W sigma_p^2 overflows to -inf at g = 1e307.
    for shots in (0, 1000):
        with pytest.raises(ArithmeticError, match="leave the float range"):
            demo_phase_detection(0.1, g=1e307, shots=shots)


def test_demo_sampling_cost_does_not_grow_with_shots():
    report = demo_phase_detection(0.1, shots=10**15, seed=2)
    kept = 10**15 * report.post_prob
    assert abs(report.retained - kept) < 7.0 * math.sqrt(kept)
    assert abs(report.theta_estimate - 0.1) / 0.1 < 4.0 * report.predicted_rel_error
    with pytest.raises(ResourceLimitError):
        demo_phase_detection(0.1, shots=2**63)


def test_demo_same_seed_reproduces():
    a = demo_phase_detection(0.1, shots=100_000, seed=3)
    b = demo_phase_detection(0.1, shots=100_000, seed=3)
    assert a.theta_estimate == b.theta_estimate
    assert a.retained == b.retained


# ------------------------------------------------------------------- compare


def test_compare_exact_rows_and_discard():
    cfg = ExperimentConfig(dim=2, scheme="all_data", state_spec="explicit",
                           state=PSI_EXAMPLE)
    rows = compare_schemes(cfg, ["postselected", "all_data", "partial"], [0])
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], row)
    assert "skipped" in by_scheme["partial"]
    assert by_scheme["postselected"]["median"] < 1e-10
    assert by_scheme["all_data"]["median"] < 1e-10
    # keeping only outcome 0 of the Fourier basis discards P_1 = 0.067
    assert by_scheme["postselected"]["discard_fraction"] == pytest.approx(
        0.067, abs=5e-4)
    assert by_scheme["all_data"]["discard_fraction"] == 0.0


def test_compare_skips_pure_schemes_on_mixed_state():
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", state_spec="ginibre",
                           state_rank=2, state_seed=1)
    rows = compare_schemes(cfg, ["all_data", "mixed_a"], [0])
    skipped = [r for r in rows if "skipped" in r]
    assert len(skipped) == 1 and skipped[0]["scheme"] == "all_data"
    assert any(r["scheme"] == "mixed_a" and r["median"] < 1e-10 for r in rows)


def test_compare_sampled_error_halves_with_quadrupled_shots():
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                           shots=1, seed=0, state_seed=0)
    rows = compare_schemes(cfg, ["all_data"], [100_000, 400_000], n_seeds=20)
    medians = {r["shots"]: r["median"] for r in rows if "median" in r}
    ratio = medians[400_000] / medians[100_000]
    assert 0.5 / 1.3 < ratio < 0.5 * 1.3


def test_compare_runs_in_the_calling_thread(monkeypatch):
    # No worker thread is started; a rerun gives the same rows.
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                           shots=5_000, seed=0, state_seed=0)
    schemes = ["all_data", "mixed_a", "mixed_b", "single_observable"]
    first = compare_schemes(cfg, schemes, [5_000, 20_000], n_seeds=8)

    def refuse(self):
        raise AssertionError("compare_schemes started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert compare_schemes(cfg, schemes, [5_000, 20_000], n_seeds=8) == first


@pytest.mark.parametrize("schemes, shot_grid, n_seeds, message", [
    (["all_data"], [1000], 0, "n_seeds must lie in [1, inf], got 0"),
    (["all_data"], [1000], -3, "n_seeds must lie in [1, inf], got -3"),
    (["all_data"], [1000], 2.0, "n_seeds must be an integer, got 2.0"),
    (["all_data"], [1000.7], 4, "shots must be an integer, got 1000.7"),
    (["partial"], [1000.7], 4, "shots must be an integer, got 1000.7"),
    (["all_data"], [True], 4, "shots must be an integer, got True"),
    (["all_data"], [0], 4, "shots must lie in [1, inf], got 0"),
    (["all_data"], [1000, 4000, np.int64(1000)], 4, "repeated shot counts: [1000]"),
    (["all_data", "mixed_a", "all_data", "partial", "partial"], [1000], 4,
     "repeated schemes: ['all_data', 'partial']"),
    ([], [1000], 4, "no schemes to compare"),
    (["all_data"], [], 4, "no shot counts to compare"),
])
def test_compare_rejects_bad_sweep_arguments_before_any_work(
        monkeypatch, schemes, shot_grid, n_seeds, message):
    # A skipped scheme (partial) does not exempt the grid from its checks.
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                           shots=1000, seed=0, state_seed=0)

    def refuse(cfg):
        raise AssertionError("the sweep resolved its state")

    monkeypatch.setattr(harness, "_resolve_state", refuse)
    with pytest.raises(ValueError) as raised:
        compare_schemes(cfg, schemes, shot_grid, n_seeds=n_seeds)
    assert str(raised.value) == message


def test_compare_sweeps_a_numpy_seed_as_a_python_int():
    # np.int64(2**63 - 1) + 1 would wrap to a negative seed
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled", shots=5_000,
                           seed=2**63 - 1, state_seed=0, pointer_g=0.2)
    schemes = ["postselected", "all_data", "mixed_a"]
    rows = compare_schemes(cfg, schemes, [5_000], n_seeds=2)
    assert compare_schemes(replace(cfg, seed=np.int64(2**63 - 1)), schemes, [5_000],
                           n_seeds=2) == rows


@pytest.mark.parametrize("data_mode, shot_grid", [("sampled", [20_000, np.int64(5_000)]),
                                                  ("exact", [0])])
@pytest.mark.parametrize("state_spec", ["explicit", "haar-pure"])
def test_compare_checks_one_config_per_shot_count(monkeypatch, data_mode, shot_grid,
                                                  state_spec):
    # Every array-valued field is set, and every row is the one the
    # experiments give run one by one; the sweep builds one config per shot
    # count, plus one to pin an unpinned state_seed, whatever its schemes and
    # seeds.
    d = 3
    rng = np.random.default_rng(4)
    state = random_pure_state(d, 8).amplitudes
    basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    cfg = ExperimentConfig(dim=d, scheme="mixed_a", data_mode=data_mode, shots=shot_grid[0],
                           seed=11, state_spec=state_spec, state=state,
                           basis_spec="explicit", basis_b=basis, pointer_g=0.2,
                           phi=np.array([1.0, 2.0, 1j]), lambdas=np.array([0.5, -1.0, 2.0]),
                           partial_a=np.array([1.0, 0.0, 0.0]),
                           partial_b=np.array([0.0, 1.0, 1.0]))
    schemes = ["postselected", "mixed_b", "single_observable", "single_projector", "partial"]
    checked = []
    real = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        lambda self: checked.append(self.shots) or real(self))
    rows = compare_schemes(cfg, schemes, shot_grid, n_seeds=3)
    pinned = [cfg.shots] if state_spec != "explicit" else []
    assert checked == pinned + shot_grid
    checked.clear()
    compare_schemes(cfg, schemes[:1], shot_grid, n_seeds=1)
    assert checked == pinned + shot_grid
    monkeypatch.setattr(ExperimentConfig, "__post_init__", real)
    pinned_cfg = replace(cfg, state_seed=cfg.seed) if pinned else cfg
    n_seeds = 1 if data_mode == "exact" else 3
    expected = _one_by_one(pinned_cfg, schemes[:4], [int(s) for s in shot_grid], n_seeds)
    by_cell = {(row["scheme"], row["shots"]): row for row in rows if "skipped" not in row}
    assert sorted(by_cell) == sorted({key[:2] for key in expected})
    for (scheme, shots), row in by_cell.items():
        values = [expected[(scheme, shots, s)] for s in range(n_seeds)]
        q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
        assert (row["median"], row["iqr"]) == (float(q50), float(q75 - q25))


@pytest.mark.parametrize("shot_grid", [[1000, 10**12], [10**12, 1000]])
def test_compare_raises_the_readout_check_of_a_grid_shot_count(shot_grid):
    # At 1e12 shots the momentum readouts of a pointer centred at 1e148
    # could square past the float range; the base config's 1000 shots pass.
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled", shots=1000,
                           seed=0, state_seed=0, pointer_mean_p=1e148)
    with pytest.raises(ValueError) as one_by_one:
        run_reconstruction(replace(cfg, scheme="mixed_a", shots=10**12, seed=1))
    assert "momentum_readout_bound_times_root_2_shots" in str(one_by_one.value)
    with pytest.raises(ValueError) as swept:
        compare_schemes(cfg, ["mixed_a", "all_data"], shot_grid, n_seeds=2)
    assert str(swept.value) == str(one_by_one.value)


TABLE_SCHEMES = tuple(name for name, scheme in SCHEMES.items()
                      if scheme.score is harness._state_score)


def _one_by_one(cfg, schemes, shot_grid, n_seeds):
    """Trace distance, or the error raised, of every (scheme, shots, seed
    index) experiment that compare_schemes(cfg, ...) runs, each run alone."""
    truth = _resolve_state(cfg)
    seeds = [cfg.seed] if cfg.data_mode == "exact" else range(cfg.seed, cfg.seed + n_seeds)
    out = {}
    for scheme in schemes:
        if SCHEMES[scheme].pure and not isinstance(truth, StateVector):
            continue
        for shots in shot_grid:
            for s_idx, seed in enumerate(seeds):
                try:
                    out[(scheme, shots, s_idx)] = run_reconstruction(replace(
                        cfg, scheme=scheme, shots=shots, seed=seed)).metrics["trace_distance"]
                except Exception as exc:
                    out[(scheme, shots, s_idx)] = exc
    return out


PURE_TABLE_SCHEMES = ["postselected", "all_data", "single_projector", "single_observable"]


# single_projector fails in cell (300, 0), but postselected's failure in
# (300, 1) sorts first; the same with another error class; one cell where
# several schemes fail on one table; every scheme passing, mixed_b beside
# mixed_a.
@example(d=5, seed=2, state=("haar-pure", None), exact=False, shot_grid=[300, 2_000],
         n_seeds=3, schemes=PURE_TABLE_SCHEMES)
@example(d=5, seed=9, state=("haar-pure", None), exact=False, shot_grid=[150, 600],
         n_seeds=3, schemes=PURE_TABLE_SCHEMES)
@example(d=2, seed=2, state=("haar-pure", None), exact=False, shot_grid=[300],
         n_seeds=3, schemes=list(TABLE_SCHEMES))
@example(d=4, seed=5, state=("haar-pure", None), exact=False, shot_grid=[30_000],
         n_seeds=3, schemes=list(TABLE_SCHEMES))
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 100),
       state=st.sampled_from([("haar-pure", None), ("ginibre", 1), ("ginibre", None)]),
       exact=st.booleans(),
       shot_grid=st.lists(st.sampled_from([300, 2_000, 30_000]), min_size=1, max_size=2,
                          unique=True),
       n_seeds=st.integers(1, 3),
       schemes=st.lists(st.sampled_from(TABLE_SCHEMES), min_size=1, unique=True))
def test_compare_scores_every_cell_as_run_reconstruction_does(
        d, seed, state, exact, shot_grid, n_seeds, schemes):
    # Every trace distance the sweep computes is the one run_reconstruction
    # gives for that experiment's config, bit for bit; mixed_b takes the
    # mixed_a score; and when experiments fail, the sweep raises the error
    # of the first failing (scheme, shots, seed index) in sorted order.
    cfg = ExperimentConfig(dim=d, scheme="mixed_a", data_mode="exact" if exact else "sampled",
                           shots=shot_grid[0], seed=seed, state_spec=state[0],
                           state_rank=state[1], state_seed=seed + 1, pointer_g=0.2)
    if exact:
        shot_grid = [0]
    expected = _one_by_one(cfg, schemes, shot_grid, n_seeds)
    scored = {}
    # Each table the sweep draws, by id, with its (shots, seed); the tables
    # are held so that no id is reused.
    drawn = {}
    real_tables, real_score = harness._tables, harness._score

    def recording_tables(cfg, src, law, seeds):
        tables = real_tables(cfg, src, law, seeds)
        drawn.update((id(table), (table, cfg.shots, seed)) for table, seed in zip(tables, seeds))
        return tables

    def recording_score(scheme, truth, src, table):
        result = real_score(scheme, truth, src, table)
        name = min(name for name in schemes if SCHEMES[name] is scheme)
        _, shots, seed_ = drawn[id(table)]
        scored[(name, shots, seed_)] = result[1]["trace_distance"]
        return result

    failures = [key for key in sorted(expected) if isinstance(expected[key], Exception)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_tables", recording_tables)
        patch.setattr(harness, "_score", recording_score)
        if failures:
            first = expected[failures[0]]
            with pytest.raises(type(first)) as raised:
                compare_schemes(cfg, schemes, shot_grid, n_seeds=n_seeds)
            assert str(raised.value) == str(first)
            return
        rows = compare_schemes(cfg, schemes, shot_grid, n_seeds=n_seeds)
    for (scheme, shots, seed_), value in scored.items():
        key = (scheme, shots, (seed_ - cfg.seed) if not exact else 0)
        assert value == expected[key]
    # every experiment was scored, once, under its own name or mixed_a's
    names = {key[0] for key in expected}
    scored_names = {key[0] for key in scored}
    assert scored_names == (names - {"mixed_b"} if "mixed_a" in names else names)
    assert len(scored) == sum(key[0] in scored_names for key in expected)
    by_cell = {(row["scheme"], row["shots"]): row for row in rows if "skipped" not in row}
    for scheme, shots in by_cell:
        values = [expected[(scheme, shots, s)] for s in range(1 if exact else n_seeds)]
        q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
        assert by_cell[(scheme, shots)]["median"] == float(q50)
        assert by_cell[(scheme, shots)]["iqr"] == float(q75 - q25)
        if scheme == "mixed_b" and "mixed_a" in schemes:
            assert by_cell[(scheme, shots)] == {**by_cell[("mixed_a", shots)],
                                                "scheme": "mixed_b"}


def _count_calls(monkeypatch, names):
    """Count the calls of each named function that pointer binds, patched
    wherever a weaktomo module binds the name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(pointer, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (pointer, harness):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_compare_computes_one_law_per_measured_and_one_draw_per_batch(monkeypatch):
    # The basis-A schemes share a law and each batch of tables; single_projector
    # and single_observable measure their own observables.  At d=3 the 3 seeds
    # of a shot count fit one batch, so each of the 3 sources draws once per
    # shot count.  Run one by one, the 6 schemes x 2 shots x 3 seeds make 36
    # laws and 36 draws.  Each law is one weak-value table, and the discard
    # fraction reads the basis-A law's P: no sweep builds a table of its own
    # for it.
    names = ("_law", "_draw_cells", "weak_value_table")
    cfg = ExperimentConfig(dim=3, scheme="all_data", data_mode="sampled", shots=20_000,
                           seed=4, state_seed=9, pointer_g=0.2)
    calls = _count_calls(monkeypatch, names)
    rows = compare_schemes(cfg, [*TABLE_SCHEMES, "partial"], [20_000, 80_000], n_seeds=3)
    assert calls == {"_law": 3, "_draw_cells": 3 * 2, "weak_value_table": 3}
    calls.update(dict.fromkeys(names, 0))
    _one_by_one(cfg, TABLE_SCHEMES, [20_000, 80_000], 3)
    assert calls == {"_law": 36, "_draw_cells": 36, "weak_value_table": 36}
    calls.update(dict.fromkeys(names, 0))
    compare_schemes(replace(cfg, data_mode="exact"), TABLE_SCHEMES, [0])
    assert calls == {"_law": 0, "_draw_cells": 0, "weak_value_table": 3}
    calls.update(dict.fromkeys(names, 0))
    compare_schemes(cfg, ["postselected"], [20_000], n_seeds=2)
    assert calls == {"_law": 1, "_draw_cells": 1, "weak_value_table": 1}
    # A budget of 36 cells holds two seeds of 2 d^2 = 18: the 3 seeds take
    # batches of 2 and 1, and the rows do not move.
    monkeypatch.setattr(harness, "_BATCH_CELLS", 36)
    calls.update(dict.fromkeys(names, 0))
    assert compare_schemes(cfg, [*TABLE_SCHEMES, "partial"], [20_000, 80_000],
                           n_seeds=3) == rows
    assert calls == {"_law": 3, "_draw_cells": 3 * 2 * 2, "weak_value_table": 3}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_peak_at_large_d_stays_near_one_run():
    # At d=128 a seed's 2 d^2 cells exceed the batch budget, so each batch
    # holds one seed; drawn all at once, the 20 seeds stacked about 14 times
    # one run's peak.
    cfg = ExperimentConfig(dim=128, scheme="mixed_a", data_mode="sampled", shots=10**6,
                           seed=3, state_seed=5)
    schemes = ["postselected", "all_data", "mixed_a", "mixed_b"]
    run_reconstruction(cfg)  # warm-up: first-call allocations are not the run's
    one_run = _traced_peak(lambda: run_reconstruction(cfg))
    sweep = _traced_peak(lambda: compare_schemes(cfg, schemes, [10**6], n_seeds=20))
    assert sweep < 1.5 * one_run, (sweep, one_run)


@pytest.mark.parametrize("seed, n_seeds, error, message", [
    # at seed 25 both schemes fail on the one table of one cell: mixed_a's
    # error sorts first
    (18, 10, MissingDataError, "table rows [0] are undefined; the a-basis sum needs "
                               "every outcome"),
])
@pytest.mark.parametrize("schemes", [["postselected", "mixed_a"], ["mixed_a", "postselected"]])
def test_compare_raises_the_first_failing_experiment_in_sorted_order(
        seed, n_seeds, error, message, schemes):
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", data_mode="sampled", shots=1000,
                           seed=seed, state_seed=3)
    expected = _one_by_one(cfg, schemes, [1000], n_seeds)
    first = next(expected[key] for key in sorted(expected)
                 if isinstance(expected[key], Exception))
    assert (type(first), str(first)) == (error, message)
    with pytest.raises(error) as raised:
        compare_schemes(cfg, schemes, [1000], n_seeds=n_seeds)
    assert str(raised.value) == message


@pytest.mark.parametrize("schemes", [["single_observable", "single_projector"],
                                     ["single_projector", "single_observable"]])
def test_compare_raises_the_first_failing_experiment_across_error_classes(schemes):
    # single_projector misses an outcome from seed 0 on; single_observable
    # fails only at seed 12, with an ambiguous kernel, but its key sorts first
    cfg = ExperimentConfig(dim=3, scheme="single_observable", data_mode="sampled",
                           shots=30, seed=0, state_seed=5)
    expected = _one_by_one(cfg, schemes, [30], 13)
    failures = sorted(key for key in expected if isinstance(expected[key], Exception))
    assert failures[0] == ("single_observable", 30, 12)
    assert ("single_projector", 30, 0) in failures
    assert ({type(expected[key]) for key in failures}
            == {AmbiguousReconstructionError, MissingDataError})
    with pytest.raises(AmbiguousReconstructionError) as raised:
        compare_schemes(cfg, schemes, [30], n_seeds=13)
    assert str(raised.value) == str(expected[failures[0]])


def test_compare_builds_one_observable_per_measured_object(monkeypatch):
    # single_projector and single_observable each measure one Observable,
    # built once per sweep and read by all 40 of its experiments
    built = []
    real = qcore.Observable.__post_init__
    monkeypatch.setattr(qcore.Observable, "__post_init__",
                        lambda self: built.append(self.dim) or real(self))
    cfg = ExperimentConfig(dim=8, scheme="all_data", data_mode="sampled", shots=10_000,
                           seed=3, state_seed=5)
    compare_schemes(cfg, TABLE_SCHEMES, [10_000, 100_000], n_seeds=20)
    assert built == [8, 8]


def test_thread_cap_env(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.delenv("WEAKTOMO_THREADS", raising=False)
    assert thread_cap() == cpus
    monkeypatch.setenv("WEAKTOMO_THREADS", "1")
    assert thread_cap() == 1
    monkeypatch.setenv("WEAKTOMO_THREADS", "0")
    assert thread_cap() == cpus
    monkeypatch.setenv("WEAKTOMO_THREADS", "not-a-number")
    assert thread_cap() == cpus
    monkeypatch.setenv("WEAKTOMO_THREADS", str(cpus + 100))
    assert thread_cap() == cpus


# ---------------------------------------------------------------- validation


def test_config_validation():
    for fields in ({"dim": 1},
                   {"dim": 2.5},
                   {"dim": 3.0},
                   {"dim": True},
                   {"scheme": "no-such-scheme"},
                   {"data_mode": "psychic"},
                   {"data_mode": "sampled", "shots": 0},
                   {"state_spec": "explicit"},
                   {"scheme": "postselected", "postselect_row": 2},
                   {"pointer_g": -0.1},
                   {"noise_sigma_scale": -1.0},
                   {"pointer_sigma_q": 0.0},
                   {"pointer_mean_p": math.inf},
                   {"noise_offset": math.nan},
                   # squares the sampler and the estimator form must be finite
                   {"data_mode": "sampled", "shots": 10, "pointer_sigma_q": 1e-200},
                   {"data_mode": "sampled", "shots": 10, "noise_offset": 1e200},
                   {"pointer_sigma_q": 1e200},
                   {"pointer_mean_q": -1e200},
                   {"noise_sigma_scale": 1e200},
                   # and so must those formed from two values: offset / g
                   # shifts each estimated Re W by 1.5e154, so a row's squared
                   # norm, 2 (offset / g)^2, is not finite; nor is the square
                   # of the readout spread sigma_q times the noise scale
                   {"data_mode": "sampled", "shots": 1000, "noise_offset": 7.4e152},
                   {"data_mode": "sampled", "shots": 1000, "pointer_sigma_q": 1e150,
                    "noise_sigma_scale": 1e10},
                   # and so must a cell's sum of squared readouts, up to
                   # 2 shots (|mean| + |offset| + 40 spread)^2: one readout
                   # 1.34 spreads from the mean squares past the float range
                   {"data_mode": "sampled", "shots": 10**6, "noise_offset": 1e152},
                   {"data_mode": "sampled", "shots": 10**6, "pointer_sigma_q": 1e153},
                   {"data_mode": "sampled", "shots": 1000, "pointer_mean_q": 1.34e154,
                    "noise_offset": 4e152},
                   {"data_mode": "sampled", "shots": 1, "pointer_sigma_q": 1e154},
                   {"data_mode": "sampled", "shots": 2.5},
                   {"shots": True},
                   {"shots": -5},
                   {"pointer_g": True},
                   {"pointer_sigma_q": np.bool_(True)},
                   {"noise_sigma_scale": False},
                   {"seed": 2.5},
                   {"seed": -1},
                   {"state_seed": 1.5},
                   {"state_spec": "ginibre", "state_rank": 1.5},
                   {"state_spec": "ginibre", "state_rank": 3},
                   {"postselect_row": 0.5}):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"dim": 2, "scheme": "all_data", **fields})
    # numpy integers are integers
    ExperimentConfig(dim=2, scheme="mixed_a", data_mode="sampled", shots=np.int64(5),
                     seed=np.uint32(1), state_seed=np.int64(2), state_spec="ginibre",
                     state_rank=np.int8(1), postselect_row=np.int64(1))


def test_ramp_probe_overlaps_every_fourier_vector():
    for dim in (2, 3, 4, 8):
        probe = ramp_probe(dim)
        beta = transition_matrix(reference_basis(dim), fourier_basis(dim))
        overlaps = beta.beta @ probe.amplitudes
        assert np.min(np.abs(overlaps)) > 1e-3
