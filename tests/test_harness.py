"""End-to-end experiment runs, the phase demo, and scheme comparison."""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from weaktomo import (
    ElementPair,
    ExperimentConfig,
    MissingDataError,
    OrthonormalBasis,
    PreconditionError,
    PURE_SCHEMES,
    ResourceLimitError,
    SCHEMES,
    SchemeInapplicableError,
    compare_schemes,
    demo_phase_detection,
    fourier_basis,
    random_pure_state,
    ramp_probe,
    reference_basis,
    run_reconstruction,
    thread_cap,
    transition_matrix,
    weak_value_table,
)
from weaktomo.harness import _resolve_state
from weaktomo.qcore import _complete_basis

RHO_EXAMPLE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
PSI_EXAMPLE = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)


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
    cfg = ExperimentConfig(dim=2, scheme="partial", state_spec="explicit",
                           state=RHO_EXAMPLE)
    table = weak_value_table(_resolve_state(cfg), reference_basis(2),
                             fourier_basis(2))
    with pytest.raises(SchemeInapplicableError):
        run_reconstruction(cfg, table=table)


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


def test_compare_thread_count_does_not_change_results(monkeypatch):
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                           shots=5_000, seed=0, state_seed=0)
    monkeypatch.setenv("WEAKTOMO_THREADS", "1")
    serial = compare_schemes(cfg, ["all_data", "mixed_a"], [5_000], n_seeds=8)
    monkeypatch.setenv("WEAKTOMO_THREADS", "4")
    threaded = compare_schemes(cfg, ["all_data", "mixed_a"], [5_000], n_seeds=8)
    assert serial == threaded


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
