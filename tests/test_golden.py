"""Golden digests of seeded sampler and estimator outputs.

The digests were captured once from the record-stream implementation of
the sampler and estimators.  Any change to how trials are drawn, how
readouts are formed or how cell sums are accumulated must keep these bytes
identical; a mismatch here means seeded outputs changed.  None of the
pinned outputs goes through an eigendecomposition, so thread counts of the
linear-algebra backend do not enter them.
"""

import hashlib

import numpy as np
import pytest

from weaktomo import (
    NoiseModel,
    Observable,
    PointerConfig,
    StateVector,
    estimate_weak_value_column,
    estimate_weak_values,
    fourier_basis,
    random_density_matrix,
    reference_basis,
    sample_observable_records,
    sample_records,
    serialize,
)

# Not a multiple of BLOCK_TRIALS, so the last block is partial.
SHOTS = 50_001
SEED = 7
NOISE = NoiseModel(readout_sigma_scale=1.3, systematic_offset=0.01)

RECORDS_CSV = {
    2: "d505a6e24aaa1c5e7be791efc43f5a93845b504c07214405261f98d82a3b9975",
    3: "c50ef23f4787fd451ea33276a0c3c2d9acf4f2aca763343631a08b12bd21cfcc",
    8: "b58000a7b4c9cee56ee51cd62998855ba4f5bfd97ab93738f860aa0a3b16593f",
}
TABLE_CSV = {
    2: "89180232555b34d08a17f62068bbfabff3c349d93f3a14ea34ffc63d8488783e",
    3: "fbebb18301009ab2971ffadff497e073867c729a9d0f6fc41b8efd995f770e1c",
    8: "9fcf37522e0b658f12b93e8819f82c5b5370dd05f5f7c2457640d6d762021822",
}
COLUMN = {
    2: "142295914c93defc6a59362c23a8bf4c9f631371d10ff29fc6d1acbe4ff5e577",
    3: "060bcfce60e9db0c79880519932273af79b741ef4316477f7dea75b6328a1666",
    8: "501fa7a6ab31d3d750ba95b3e0d73f4a9b916728989208c72ad10e45da71a5d4",
}
MASKED_TABLE_CSV = "e091a2bbe5156f113fd77f16deafc89bebf1fe99e924e4a2064e58268c415b0f"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _column_digest(col) -> str:
    h = hashlib.sha256()
    for arr, dtype in ((col.w, "<c16"), (col.P, "<f8"), (col.defined, "|b1"),
                       (col.stderr_re, "<f8"), (col.stderr_im, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(str(int(col.n_trials)).encode())
    return h.hexdigest()


def _table_run(d: int):
    rho = random_density_matrix(d, d, 100 + d)
    cfg = PointerConfig.uniform(d, g=0.2)
    records = sample_records(rho, reference_basis(d), fourier_basis(d), cfg,
                             shots=SHOTS, seed=SEED, noise=NOISE)
    return records, estimate_weak_values(records, cfg, d)


def _column_run(d: int):
    rho = random_density_matrix(d, d, 200 + d)
    obs = Observable.from_eigensystem(np.arange(d, dtype=float), reference_basis(d))
    cfg = PointerConfig.uniform(1, g=0.2)
    records = sample_observable_records(rho, obs, fourier_basis(d), cfg,
                                        shots=SHOTS, seed=SEED, noise=NOISE)
    return estimate_weak_value_column(records, cfg, d)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_golden_records_and_table(d):
    records, table = _table_run(d)
    assert _sha(records.to_csv()) == RECORDS_CSV[d]
    assert _sha(serialize.table_to_csv(table)) == TABLE_CSV[d]


@pytest.mark.parametrize("d", [2, 3, 8])
def test_golden_single_pointer_column(d):
    assert _column_digest(_column_run(d)) == COLUMN[d]


def test_golden_masked_row_table():
    # |+> post-selected in the Fourier basis never reaches outcome 1.
    psi = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    cfg = PointerConfig.uniform(2, g=0.2)
    records = sample_records(psi, reference_basis(2), fourier_basis(2), cfg,
                             shots=SHOTS, seed=SEED, noise=NOISE)
    table = estimate_weak_values(records, cfg, 2)
    assert not table.defined[1]
    assert _sha(serialize.table_to_csv(table)) == MASKED_TABLE_CSV
