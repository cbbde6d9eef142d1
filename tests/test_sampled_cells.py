"""In-memory sampled runs: per-cell sums instead of a record stream.

An in-memory sampled run reduces every block of trials to per-cell count,
sum and sum of squares as it is drawn.  It must give the estimate that
sampling the full record stream and then estimating from it gives, bit for
bit, and its memory must not grow with the number of shots.
"""

import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from weaktomo import (
    ExperimentConfig,
    NoiseModel,
    Observable,
    PointerConfig,
    estimate_weak_values,
    fourier_basis,
    random_density_matrix,
    reference_basis,
    run_reconstruction,
    sample_records,
    serialize,
)
from weaktomo.pointer import _sampled_table

SHOTS = 50_001
NOISE = NoiseModel(readout_sigma_scale=1.3, systematic_offset=0.01)


def _assert_same(a, b, fields):
    for name in fields:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("d", [2, 3, 8])
def test_in_memory_table_equals_records_path(d):
    rho = random_density_matrix(d, d, 40 + d)
    args = (rho, reference_basis(d), fourier_basis(d), PointerConfig.uniform(d, g=0.2))
    via_records = estimate_weak_values(
        sample_records(*args, shots=SHOTS, seed=5, noise=NOISE), args[3], d)
    in_memory = _sampled_table(*args, SHOTS, 5, NOISE)
    _assert_same(in_memory, via_records, ("W", "P", "defined", "stderr_re", "stderr_im"))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_in_memory_column_equals_records_path(d):
    rho = random_density_matrix(d, d, 50 + d)
    obs = Observable.from_eigensystem(np.arange(d, dtype=float), reference_basis(d))
    args = (rho, obs, fourier_basis(d), PointerConfig.uniform(1, g=0.2))
    via_records = estimate_weak_values(
        sample_records(*args, shots=SHOTS, seed=5, noise=NOISE), args[3], d)
    in_memory = _sampled_table(*args, SHOTS, 5, NOISE)
    _assert_same(in_memory, via_records,
                 ("W", "P", "defined", "stderr_re", "stderr_im", "n_trials"))


def test_in_memory_path_raises_what_sample_then_estimate_raises():
    rho = random_density_matrix(2, 2, 1)
    a, b = reference_basis(2), fourier_basis(2)
    cases = [
        (PointerConfig.uniform(2, g=0.2), 0),   # shots < 1
        (PointerConfig.uniform(3, g=0.2), 10),  # pointer count
        (PointerConfig.uniform(2, g=0.0), 10),  # g <= 0
    ]
    for pcfg, shots in cases:
        with pytest.raises(Exception) as expected:
            estimate_weak_values(sample_records(rho, a, b, pcfg, shots, 1), pcfg, 2)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            _sampled_table(rho, a, b, pcfg, shots, 1, None)


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
            proc = subprocess.run([sys.executable, "-m", "weaktomo", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        in_memory = run_reconstruction(serialize.config_from_dict(data))
        assert bundle.read_text() == serialize.dumps(serialize.bundle_to_json(in_memory))


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
