"""In-memory sampled runs: per-cell sufficient statistics instead of shots.

An in-memory sampled run draws each cell's count, sum and sum of squares
straight from their joint law instead of drawing trials.  It must give
estimates with the law of sampling the record stream and estimating from
it (the same distribution, not the same bits), it must raise what that
route raises, and neither its time nor its memory may grow with the number
of shots.  The records route itself stays byte for byte as it was; the
golden digests pin it.
"""

import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_table, oracle_weak_value
from test_cli import run_cli
from weaktomo import (
    ExperimentConfig,
    NoiseModel,
    Observable,
    PointerConfig,
    ResourceLimitError,
    StateVector,
    estimate_weak_values,
    fourier_basis,
    random_density_matrix,
    reference_basis,
    run_reconstruction,
    sample_records,
    serialize,
    simulate,
)
from weaktomo.pointer import (
    RECORD_ROW_LIMIT,
    _draw_cells,
    _estimate_cells,
    _law,
    _record_cells,
)

SHOTS = 50_001
NOISE = NoiseModel(readout_sigma_scale=1.3, systematic_offset=0.01)
G = 0.2
# Distribution tests: this many seeds of a run of DIST_SHOTS shots per route.
SEEDS = range(200)
DIST_SHOTS = 4_000
# A per-cell z-score may reach this bound.  Each test makes at most a few
# hundred comparisons, so a correct sampler exceeds it with probability
# about 1e-4, while a cell mean off by half a run's standard error reads
# about 7 over 200 seeds.
Z_BOUND = 5.0


def in_memory_table(rho, measured, basis_b, cfg, shots, seed, noise):
    """The table an in-memory sampled run estimates: the source's law, one
    seed's cell sums drawn from it, and the estimate they give."""
    law = _law(rho, measured, basis_b, cfg)
    return _estimate_cells(_draw_cells(*law, cfg, shots, [seed], noise), cfg)[0]


def _table_args(d: int, state_seed: int):
    rho = random_density_matrix(d, d, state_seed)
    return rho, reference_basis(d), fourier_basis(d), PointerConfig.uniform(d, g=G)


def _column_args(d: int, state_seed: int):
    rho = random_density_matrix(d, d, state_seed)
    obs = Observable.from_eigensystem(np.arange(d, dtype=float), reference_basis(d))
    return rho, obs, fourier_basis(d), PointerConfig.uniform(1, g=G)


def _via_records(args, shots, seed, noise=NOISE):
    records = sample_records(*args, shots=shots, seed=seed, noise=noise)
    return estimate_weak_values(records, args[3], args[2].dim)


def _quantities(tables) -> dict[str, np.ndarray]:
    """Every estimated quantity, stacked over seeds (seed on axis 0)."""
    for t in tables:
        assert t.defined.all()
    return {
        "Re W": np.array([t.W.real for t in tables]),
        "Im W": np.array([t.W.imag for t in tables]),
        "P": np.array([t.P for t in tables]),
        "stderr_re": np.array([t.stderr_re for t in tables]),
        "stderr_im": np.array([t.stderr_im for t in tables]),
    }


def _assert_z(name, mean, ref, var_of_mean):
    z = np.abs(mean - ref) / np.sqrt(var_of_mean)
    assert z.max() < Z_BOUND, (name, float(z.max()))


def _assert_same_law(args, W_true, P_true):
    """Per-cell z-tests over SEEDS: the in-memory route against the records
    route (every quantity) and against the closed form (W and P)."""
    n = len(SEEDS)
    in_memory = _quantities([in_memory_table(*args, DIST_SHOTS, s, NOISE) for s in SEEDS])
    via_records = _quantities([_via_records(args, DIST_SHOTS, s) for s in SEEDS])
    for name, a in in_memory.items():
        b = via_records[name]
        _assert_z(f"{name} vs records", a.mean(axis=0), b.mean(axis=0),
                  (a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / n)
    # The systematic offset shifts every position readout, so every Re W
    # by offset / g.
    W_shifted = W_true + NOISE.systematic_offset / G
    for name, ref in (("Re W", W_shifted.real), ("Im W", W_shifted.imag), ("P", P_true)):
        a = in_memory[name]
        _assert_z(f"{name} vs closed form", a.mean(axis=0), ref, a.var(axis=0, ddof=1) / n)
    # The estimates spread as far around the truth, in units of the standard
    # error each run reports, on both routes: z^2 pooled over seeds and cells.
    for part, ref, err in (("Re W", W_shifted.real, "stderr_re"),
                           ("Im W", W_shifted.imag, "stderr_im")):
        z2 = [((q[part] - ref) / q[err]) ** 2 for q in (in_memory, via_records)]
        _assert_z(f"{part} z^2 vs records", z2[0].mean(), z2[1].mean(),
                  (z2[0].var(ddof=1) + z2[1].var(ddof=1)) / z2[0].size)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_in_memory_table_equals_records_path(d):
    args = _table_args(d, 40 + d)
    W, P, _ = oracle_table(args[0].elements, args[1].vectors, args[2].vectors)
    _assert_same_law(args, W, P)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_in_memory_column_equals_records_path(d):
    args = _column_args(d, 50 + d)
    rho, obs, basis_b = args[0].elements, args[1].matrix, args[2].vectors
    W = np.array([[oracle_weak_value(rho, obs, basis_b[:, j])] for j in range(d)])
    _W_table, P, _ = oracle_table(rho, np.eye(d), basis_b)
    _assert_same_law(args, W, P)


def _scaled_chi2(cells, spreads):
    """(n - 1) s^2 / sigma^2 and n - 1 of every cell with n >= 2, over a
    stack of seeds."""
    counts, sums, sumsq, _ = cells
    keep = counts > 1
    n = counts[keep]
    spreads = np.broadcast_to(spreads, counts.shape)
    return (sumsq[keep] - sums[keep] ** 2 / n) / spreads[keep] ** 2, n - 1


@pytest.mark.parametrize("route", ["in_memory", "records"])
def test_cell_sum_of_squares_is_chi2(route):
    # d = 3 at 600 shots: 18 cells with about 100 readouts each, per seed.
    # The in-memory route draws every seed in one batch.
    args = _table_args(3, 7)
    P, dq, dp = _law(*args)
    pcfg = args[3]
    spreads = np.empty((3, 3, 2))
    spreads[..., 0] = pcfg.sigma_q * NOISE.readout_sigma_scale
    spreads[..., 1] = pcfg.sigma_p * NOISE.readout_sigma_scale
    if route == "in_memory":
        stacks = [_draw_cells(P, dq, dp, pcfg, 600, SEEDS, NOISE)]
    else:
        stacks = [_record_cells(sample_records(*args, 600, seed, NOISE), 3, 3)
                  for seed in SEEDS]
    u, k = [], []
    for cells in stacks:
        x, dof = _scaled_chi2(cells, spreads)
        u.append((x - dof) / np.sqrt(2.0 * dof))
        k.append(dof)
    u, k = np.concatenate(u), np.concatenate(k)
    # Standardised chi^2_k: mean 0, variance 1 and E[u^4] = 3 + 12 / k.
    assert abs(u.mean()) * np.sqrt(u.size) < Z_BOUND
    var_of_u2 = np.mean(2.0 + 12.0 / k) / u.size
    assert abs(np.mean(u**2) - 1.0) / np.sqrt(var_of_u2) < Z_BOUND


@given(d=st.integers(2, 6), one_pointer=st.booleans(), state_seed=st.integers(0, 2**31 - 1),
       shots=st.one_of(st.integers(1, 3), st.integers(4, 10**7)),
       scale=st.sampled_from([0.0, 1.3]),
       seeds=st.lists(st.integers(0, 2**64), min_size=1, max_size=6))
def test_a_batch_of_seeds_gives_each_seed_the_bits_it_has_alone(
        d, one_pointer, state_seed, shots, scale, seeds):
    # One to three shots leave cells empty or with one readout; a zero noise
    # scale gives every readout its cell's mean.
    args = (_column_args if one_pointer else _table_args)(d, state_seed)
    law, pcfg = _law(*args), args[3]
    noise = NoiseModel(readout_sigma_scale=scale, systematic_offset=0.01)
    batch = _estimate_cells(_draw_cells(*law, pcfg, shots, seeds, noise), pcfg)
    assert len(batch) == len(seeds)
    for seed, table in zip(seeds, batch):
        alone, = _estimate_cells(_draw_cells(*law, pcfg, shots, [seed], noise), pcfg)
        for name in ("W", "P", "defined", "stderr_re", "stderr_im"):
            got, want = getattr(table, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert table.n_trials == alone.n_trials == shots


def test_masked_outcome_gives_an_undefined_row_on_both_routes():
    # |+> post-selected in the Fourier basis never reaches outcome 1.
    psi = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    args = (psi, reference_basis(2), fourier_basis(2), PointerConfig.uniform(2, g=G))
    for table in (in_memory_table(*args, SHOTS, 7, NOISE), _via_records(args, SHOTS, 7)):
        assert table.defined.tolist() == [True, False]
        assert table.P[1] == 0.0 and table.P[0] == 1.0
        assert not table.W[1].any()
        assert not table.stderr_re[1].any() and not table.stderr_im[1].any()


def _assert_trial_invariants(table, shots: int):
    """What any table estimated from ``shots`` trials satisfies."""
    assert table.n_trials == shots
    per_outcome = np.round(table.P * shots)
    assert np.allclose(table.P * shots, per_outcome, rtol=0, atol=1e-9)
    assert per_outcome.sum() == shots
    # A defined row has position and momentum trials, so at least two.
    assert (per_outcome[table.defined] >= 2).all()
    for err in (table.stderr_re, table.stderr_im):
        assert np.isfinite(err).all() and (err >= 0).all()
        assert not err[~table.defined].any()


@given(shots=st.integers(1, 2), seed=st.integers(0, 2**31 - 1))
def test_one_or_two_shots_give_zero_standard_errors(shots, seed):
    # Two shots are one position and one momentum trial, so every cell
    # holds at most one readout; one shot defines no row.
    args = _table_args(3, 9)
    for table in (in_memory_table(*args, shots, seed, NOISE),
                  _via_records(args, shots, seed)):
        _assert_trial_invariants(table, shots)
        assert not table.stderr_re.any() and not table.stderr_im.any()
        assert table.defined.sum() == (shots == 2 and table.P.max() == 1.0)


@given(shots=st.integers(1, 400), seed=st.integers(0, 2**31 - 1))
def test_small_runs_keep_the_trial_invariants_of_the_records_route(shots, seed):
    args = _column_args(3, 11)
    for table in (in_memory_table(*args, shots, seed, NOISE),
                  _via_records(args, shots, seed)):
        _assert_trial_invariants(table, shots)


@given(shots=st.integers(1, 20_000), seed=st.integers(0, 2**31 - 1))
def test_noiseless_readout_gives_exact_means_and_no_spread(shots, seed):
    args = _table_args(3, 13)
    W, _, _ = oracle_table(args[0].elements, args[1].vectors, args[2].vectors)
    exact = NoiseModel(readout_sigma_scale=0.0)
    for table in (in_memory_table(*args, shots, seed, exact),
                  _via_records(args, shots, seed, exact)):
        rows = table.defined
        # Exact to rounding: summing n equal readouts is not exact in floats.
        assert np.abs(table.W[rows] - W[rows]).max(initial=0.0) < 1e-12
        assert max(table.stderr_re.max(), table.stderr_im.max()) < 1e-8


def test_in_memory_path_raises_what_sample_then_estimate_raises():
    rho = random_density_matrix(2, 2, 1)
    a, b = reference_basis(2), fourier_basis(2)
    cases = [
        (PointerConfig.uniform(2, g=0.2), 0),   # shots < 1
        (PointerConfig.uniform(2, g=0.2), 2.5),  # shots no integer
        (PointerConfig.uniform(3, g=0.2), 10),  # pointer count
        (PointerConfig.uniform(2, g=0.0), 10),  # g <= 0
    ]
    for pcfg, shots in cases:
        with pytest.raises(Exception) as expected:
            estimate_weak_values(sample_records(rho, a, b, pcfg, shots, 1), pcfg, 2)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            in_memory_table(rho, a, b, pcfg, shots, 1, None)


def test_records_beyond_the_row_limit_raise_before_allocating():
    args = _table_args(2, 1)
    shots = RECORD_ROW_LIMIT // 2 + 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="record rows exceed"):
            sample_records(*args, shots=shots, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # The same run in memory needs no records.
    assert in_memory_table(*args, shots, 1, None).n_trials == shots


def test_shots_beyond_a_64_bit_count_are_a_resource_limit_on_both_routes():
    args = _table_args(2, 1)
    with pytest.raises(ResourceLimitError):
        sample_records(*args, shots=2**63, seed=1)
    with pytest.raises(ResourceLimitError, match="64-bit"):
        in_memory_table(*args, 2**63, 1, None)
    assert in_memory_table(*args, 2**63 - 1, 1, None).n_trials == 2**63 - 1


def test_in_memory_run_equals_cli_records_round_trip(tmp_path):
    # a d-pointer table scheme and a one-pointer scheme
    for scheme, state_spec in (("mixed_a", "ginibre"), ("single_observable", "haar-pure")):
        data = {"dim": 3, "scheme": scheme, "state_spec": state_spec,
                "data_mode": "sampled", "shots": SHOTS, "seed": 7, "pointer_g": 0.2,
                "noise_sigma_scale": 1.3, "noise_offset": 0.01}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        records, bundle = tmp_path / "records.csv", tmp_path / "bundle.json"
        for argv in (("simulate", "--config", str(cfg_path), "--sampled",
                      "--out", str(records), "--quiet"),
                     ("reconstruct", "--config", str(cfg_path), "--records", str(records),
                      "--out", str(bundle), "--quiet")):
            proc = run_cli(*argv)
            assert proc.returncode == 0, proc.stderr
        cfg = serialize.config_from_dict(data)
        pcfg = cfg.pointer_config(1 if scheme == "single_observable" else cfg.dim)
        in_process = run_reconstruction(
            cfg, table=estimate_weak_values(simulate(cfg), pcfg, cfg.dim))
        assert bundle.read_text() == serialize.dumps(serialize.bundle_to_json(in_process))


def _traced_peak_mb(shots: int) -> float:
    cfg = ExperimentConfig(dim=4, scheme="mixed_a", data_mode="sampled",
                           state_spec="ginibre", shots=shots, seed=3)
    tracemalloc.start()
    try:
        run_reconstruction(cfg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_in_memory_peak_does_not_grow_with_shots():
    _traced_peak_mb(1_000)  # warm-up: first-call allocations are not the run's
    small, large = _traced_peak_mb(100_000), _traced_peak_mb(800_000)
    assert abs(large - small) < 1.0, (small, large)


TRUTH = random_density_matrix(3, 3, 17).elements


def _mixed_a(shots: int) -> ExperimentConfig:
    return ExperimentConfig(dim=3, scheme="mixed_a", data_mode="sampled",
                            state_spec="explicit", state=TRUTH, shots=shots, seed=3)


def _timed_peak(cfg: ExperimentConfig):
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        bundle = run_reconstruction(cfg)
        return bundle, time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_in_memory_run_of_a_trillion_shots_is_as_cheap_as_a_thousand():
    shots = 10**12
    run_reconstruction(_mixed_a(1_000))  # warm-up
    _, _, small_peak = _timed_peak(_mixed_a(1_000))
    bundle, seconds, peak = _timed_peak(_mixed_a(shots))
    assert seconds < 0.5
    assert bundle.table.n_trials == shots
    # Within 7 binomial standard deviations of the closed form.
    _, P, _ = oracle_table(TRUTH, np.eye(3), fourier_basis(3).vectors)
    assert (np.abs(bundle.table.P - P) < 7.0 * np.sqrt(P * (1 - P) / shots)).all()
    assert abs(peak - small_peak) < 0.05 * small_peak, (small_peak, peak)
