"""End-to-end acceptance checks.

Each test exercises one package-level guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``).  The checks are
self-contained: every expected value is either an algebraic identity or a
tolerance the package commits to.
"""

import math
import time

import numpy as np
import pytest

from weaktomo import (
    ExperimentConfig,
    Observable,
    PURE_SCHEMES,
    PointerConfig,
    StateVector,
    check_sum_rules,
    compare_schemes,
    demo_phase_detection,
    estimate_element_orthogonal,
    exact_law,
    fourier_basis,
    random_density_matrix,
    random_pure_state,
    run_reconstruction,
    serialize,
)
from weaktomo.harness import _resolve_state

DIMS = (2, 3, 4, 8)
N_STATES = 50
PSI_EXAMPLE = np.array([math.sqrt(3.0) / 2.0, 0.5], dtype=complex)


def _verdict(label, ok, detail):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pure_runs():
    t0 = time.perf_counter()
    bundles = []
    for scheme in PURE_SCHEMES:
        for d in DIMS:
            for seed in range(N_STATES):
                bundles.append(run_reconstruction(ExperimentConfig(
                    dim=d, scheme=scheme, state_seed=seed)))
    return bundles, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mixed_runs():
    t0 = time.perf_counter()
    bundles = {}
    for scheme in ("mixed_a", "mixed_b"):
        for d in DIMS:
            for seed in range(N_STATES):
                bundles[(scheme, d, seed)] = run_reconstruction(ExperimentConfig(
                    dim=d, scheme=scheme, state_spec="ginibre", state_seed=seed))
    return bundles, time.perf_counter() - t0


def test_exact_pure_round_trips(pure_runs):
    # every pure-state scheme recovers 50 Haar states per dimension exactly
    bundles, elapsed = pure_runs
    worst = min(b.metrics["fidelity"] for b in bundles)
    ok = worst >= 1.0 - 1e-10 and elapsed < 10.0
    _verdict("exact pure-state round trips", ok,
             f"{len(bundles)} runs, worst fidelity deficit {1.0 - worst:.2e}, "
             f"{elapsed:.2f}s")


def test_exact_mixed_round_trips(mixed_runs):
    # both density-matrix assembly routes match the truth entrywise and
    # agree with each other
    bundles, elapsed = mixed_runs
    worst_err = 0.0
    worst_mutual = 0.0
    for d in DIMS:
        for seed in range(N_STATES):
            truth = random_density_matrix(d, d, seed).elements
            raw_a = bundles[("mixed_a", d, seed)].estimate.raw
            raw_b = bundles[("mixed_b", d, seed)].estimate.raw
            worst_err = max(worst_err,
                            np.abs(raw_a - truth).max(),
                            np.abs(raw_b - truth).max())
            worst_mutual = max(worst_mutual, np.abs(raw_a - raw_b).max())
    ok = worst_err <= 1e-10 and worst_mutual <= 1e-10 and elapsed < 10.0
    _verdict("exact mixed-state round trips", ok,
             f"{len(bundles)} runs, worst elementwise error {worst_err:.2e}, "
             f"worst mutual gap {worst_mutual:.2e}, {elapsed:.2f}s")


def test_sum_rules_on_every_exact_table(pure_runs, mixed_runs):
    # rows sum to one and P-weighted columns reproduce the state's diagonal
    # on every exact table the round-trip runs produced
    bundles = [b for b in pure_runs[0] if b.table.n_pointers == b.table.dim]
    bundles += list(mixed_runs[0].values())
    worst = 0.0
    for bundle in bundles:
        rho = _resolve_state(bundle.config)
        report = check_sum_rules(bundle.table, rho)
        worst = max(worst, report.row_sum_dev, report.imag_dev, report.diag_dev)
    ok = worst <= 1e-10
    _verdict("weak-value sum rules", ok,
             f"{len(bundles)} tables, worst deviation {worst:.2e}")


def test_pointer_shift_convergence():
    # the exact law approaches the first-order shift formulas quadratically
    # in g, for both quadratures
    psi = StateVector.normalized(np.array([0.8, 0.3 + 0.52j]))
    post = fourier_basis(2).column(1)
    proj = Observable.projector(StateVector(np.eye(2, dtype=complex)[:, 0]))
    w = np.vdot(post.amplitudes, proj.matrix @ psi.amplitudes) / np.vdot(
        post.amplitudes, psi.amplitudes)
    gs = np.array([0.04, 0.02, 0.01, 0.005])
    err_q = np.empty(gs.size)
    err_p = np.empty(gs.size)
    t0 = time.perf_counter()
    for m, g in enumerate(gs):
        cfg = PointerConfig.uniform(1, g=float(g), sigma_q=1.0)
        _, dq, dp = exact_law(psi, proj, fourier_basis(2), cfg)
        err_q[m] = abs(dq[1, 0] / g - w.real)
        err_p[m] = abs(dp[1, 0] / (2.0 * g * cfg.sigma_p ** 2) - w.imag)
    elapsed = time.perf_counter() - t0
    slope_q = float(np.polyfit(np.log(gs), np.log(err_q), 1)[0])
    slope_p = float(np.polyfit(np.log(gs), np.log(err_p), 1)[0])
    ok = (1.7 <= slope_q <= 2.3) and (1.7 <= slope_p <= 2.3) and elapsed < 30.0
    _verdict("pointer-shift convergence", ok,
             f"log-log slopes q={slope_q:.3f}, p={slope_p:.3f}, {elapsed:.2f}s")


def test_phase_detection_demo():
    # closed-form shift values, agreement with the leading-order estimate,
    # and phase recovery from a seeded sampled run
    t0 = time.perf_counter()
    exact = demo_phase_detection(0.1)
    im_ok = exact.weak_value.imag == pytest.approx(-9.9917, abs=5e-5)
    dp_ok = exact.dp_shift == pytest.approx(-0.049958, abs=1e-6)
    leading_rel = abs(exact.dp_shift - exact.leading_order_dp) / abs(
        exact.leading_order_dp)
    sampled = demo_phase_detection(0.1, shots=10**7, seed=0)
    theta_rel = abs(sampled.theta_estimate - 0.1) / 0.1
    elapsed = time.perf_counter() - t0
    ok = (im_ok and dp_ok and leading_rel < 1e-3
          and theta_rel < 4.0 * sampled.predicted_rel_error and elapsed < 60.0)
    _verdict("phase-detection demo", ok,
             f"Im W {exact.weak_value.imag:.6f}, dp {exact.dp_shift:.6f}, "
             f"leading-order gap {leading_rel:.2e}, "
             f"theta error {theta_rel:.2%} at 1e7 shots, {elapsed:.2f}s")


def test_single_element_estimation():
    # both routes to one matrix element are exact on 100 random states, and
    # the orthogonal route's hermiticity gap responds linearly to an
    # injected weak-value error
    worst = 0.0
    worst_gap = 0.0
    for d in (2, 3):
        for seed in range(N_STATES):
            rho = random_density_matrix(d, d, seed)
            a = random_pure_state(d, 1000 + seed).amplitudes
            b = random_pure_state(d, 2000 + seed).amplitudes
            non = run_reconstruction(ExperimentConfig(
                dim=d, scheme="partial", state_spec="explicit",
                state=rho.elements, partial_a=a, partial_b=b))
            worst = max(worst, non.metrics["element_error"])
            b_orth = b - a * np.vdot(a, b)
            b_orth /= np.linalg.norm(b_orth)
            orth = run_reconstruction(ExperimentConfig(
                dim=d, scheme="partial", state_spec="explicit",
                state=rho.elements, partial_a=a, partial_b=b_orth))
            worst = max(worst, orth.metrics["element_error"])
            worst_gap = max(worst_gap, orth.metrics["hermiticity_gap"])

    # gap linearity: starting from consistent data (zero gap), perturbing w
    # by eps moves the gap to exactly 2 P_a eps
    p_a, p_b = 0.6, 0.3
    w = 0.25 + 0.4j
    w_prime = (np.conj(p_a * (2.0 * w - 1.0)) / p_b + 1.0) / 2.0
    base = estimate_element_orthogonal(w, w_prime, p_a, p_b)
    gaps = [estimate_element_orthogonal(w + eps, w_prime, p_a, p_b).hermiticity_gap
            for eps in (1e-3, 1e-2, 1e-1)]
    ratios = [gaps[1] / gaps[0], gaps[2] / gaps[1]]
    linear_ok = (base.hermiticity_gap <= 1e-12
                 and all(abs(r - 10.0) < 1e-6 for r in ratios))
    ok = worst <= 1e-12 and worst_gap <= 1e-12 and linear_ok
    _verdict("single-element estimation", ok,
             f"200 runs, worst element error {worst:.2e}, worst gap "
             f"{worst_gap:.2e}, gap growth ratios {ratios[0]:.3f}, {ratios[1]:.3f}")


def test_statistical_convergence():
    # sampled full-table tomography tightens like 1/sqrt(shots): the median
    # trace distance over 20 seeds falls monotonically and the 100x shot
    # increase buys about an order of magnitude
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                           state_spec="explicit", state=PSI_EXAMPLE,
                           shots=1, seed=0)
    t0 = time.perf_counter()
    rows = compare_schemes(cfg, ["all_data"], [10**4, 10**5, 10**6], n_seeds=20)
    elapsed = time.perf_counter() - t0
    medians = [r["median"] for r in sorted(
        (r for r in rows if "median" in r), key=lambda r: r["shots"])]
    ratio = medians[0] / medians[2]
    ok = (medians[0] > medians[1] > medians[2] and 5.0 <= ratio <= 20.0
          and elapsed < 300.0)
    _verdict("statistical convergence", ok,
             f"median trace distances {medians[0]:.4f} > {medians[1]:.4f} > "
             f"{medians[2]:.4f}, 1e4/1e6 ratio {ratio:.2f}, {elapsed:.1f}s")


def test_deterministic_seeded_outputs(monkeypatch):
    # reruns of a seeded experiment serialize to identical bytes, and the
    # worker-count cap never leaks into any reported number
    cfg = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                           state_spec="explicit", state=PSI_EXAMPLE,
                           shots=20_000, seed=7)
    dumps = []
    csvs = []
    for _ in range(2):
        bundle = run_reconstruction(cfg)
        dumps.append(serialize.dumps(serialize.bundle_to_json(bundle)).encode())
        csvs.append(serialize.table_to_csv(bundle.table).encode())
    json_ok = dumps[0] == dumps[1]
    csv_ok = csvs[0] == csvs[1]

    def comparison_bytes(threads):
        monkeypatch.setenv("WEAKTOMO_THREADS", threads)
        base = ExperimentConfig(dim=2, scheme="all_data", data_mode="sampled",
                                state_spec="explicit", state=PSI_EXAMPLE,
                                shots=1, seed=3)
        rows = compare_schemes(base, ["postselected", "all_data"],
                               [1000, 4000], n_seeds=6)
        return serialize.comparison_to_csv(rows).encode()

    thread_ok = comparison_bytes("1") == comparison_bytes("4")
    ok = json_ok and csv_ok and thread_ok
    _verdict("deterministic seeded outputs", ok,
             f"rerun JSON identical: {json_ok}, rerun CSV identical: {csv_ok}, "
             f"thread-count invariant: {thread_ok}")
