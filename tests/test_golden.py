"""Golden digests of seeded sampler and estimator outputs.

The digests were captured once from the record-stream implementation of
the sampler and estimators.  Any change to how trials are drawn, how
readouts are formed or how cell sums are accumulated must keep these bytes
identical; a mismatch here means seeded outputs changed.  None of the
sampler and estimator outputs goes through an eigendecomposition, so thread
counts of the linear-algebra backend do not enter them.  The result-bundle
digests at the end pin whole seeded runs of every scheme.

Run as a script (``PYTHONPATH=src python tests/test_golden.py``) it prints
every pinned key with the digest this tree computes and ``ok`` or ``MOVED``,
so a deliberate re-capture is a reviewed diff of the printed digests.  It
exits 1 when any digest moved, so it can gate a refactor from the shell.
"""

import hashlib
import sys

import numpy as np
import pytest

from weaktomo import (
    SCHEMES,
    ExperimentConfig,
    NoiseModel,
    Observable,
    PointerConfig,
    StateVector,
    compare_schemes,
    estimate_weak_values,
    fourier_basis,
    random_density_matrix,
    reference_basis,
    run_reconstruction,
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
    # The bytes of a one-pointer table's column, laid out as flat arrays.
    h = hashlib.sha256()
    for arr, dtype in ((col.W[:, 0], "<c16"), (col.P, "<f8"), (col.defined, "|b1"),
                       (col.stderr_re[:, 0], "<f8"), (col.stderr_im[:, 0], "<f8")):
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
    records = sample_records(rho, obs, fourier_basis(d), cfg,
                             shots=SHOTS, seed=SEED, noise=NOISE)
    return estimate_weak_values(records, cfg, d)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_golden_records_and_table(d):
    records, table = _table_run(d)
    assert _sha(records.to_csv()) == RECORDS_CSV[d]
    assert _sha(serialize.table_to_csv(table)) == TABLE_CSV[d]


@pytest.mark.parametrize("d", [2, 3, 8])
def test_golden_single_pointer_column(d):
    assert _column_digest(_column_run(d)) == COLUMN[d]


def _masked_run():
    # |+> post-selected in the Fourier basis never reaches outcome 1.
    psi = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    cfg = PointerConfig.uniform(2, g=0.2)
    records = sample_records(psi, reference_basis(2), fourier_basis(2), cfg,
                             shots=SHOTS, seed=SEED, noise=NOISE)
    return estimate_weak_values(records, cfg, 2)


def test_golden_masked_row_table():
    table = _masked_run()
    assert not table.defined[1]
    assert _sha(serialize.table_to_csv(table)) == MASKED_TABLE_CSV


# Seeded result bundles of every scheme, exact and sampled, at d = 2 and 3.
# Unlike the digests above these go through eigendecompositions (fidelity,
# physical projection), so they pin the LAPACK build as well; at d <= 3
# no BLAS threading enters.  Keys are "scheme/mode/d"; "partial_orth" is
# the orthogonal-pair route of the partial scheme.  The four exact
# single_projector/single_observable digests were re-captured once, when the
# exact one-pointer column moved to the vectorised weak-value arithmetic the
# sampler uses (every value within 1e-15 of the per-outcome loop before).
# The eight mixed_a/mixed_b digests were re-captured once, when the physical
# projection became the nearest-state projection and its eigendecomposition
# began to supply min_eig_raw and the estimate's square root in fidelity
# (exact values within 4e-14 of before; sampled ones moved by the projection).
# All 30 were re-captured once when every table came to be written under
# "table" in one layout with its trial count (the "column" key went) and
# exact partial began reading its weak values from the table over the pair's
# completed basis: 29 moved by layout only, partial/exact/2 also moved its
# element by 5.6e-17.  The 15 sampled digests were re-captured once, when
# in-memory sampled runs began drawing per-cell sufficient statistics instead
# of trials: the same law, different bits (tests/test_sampled_cells.py pins
# the law); the records digests above did not move.  The four mixed_b
# digests were re-captured once, when mixed_b became the mixed_a estimator
# under its b-basis name (every value within 5.2e-15 of the b-basis
# rotation before); test_mixed_b_bundle_is_the_mixed_a_bundle_renamed pins
# that their bundles differ only in the scheme name.  The 14 pure-scheme
# digests whose trace_distance moved (by at most 1.6e-16) were re-captured
# once, when the pure-pure trace distance became the O(d) norm of the
# orthogonal component; the four sampled mixed_a/mixed_b digests were
# re-captured with them, when fidelity began to read the eigenvalues of
# L^dag sigma L, L = V sqrt(Lambda), and to drop rounding-level ones (their
# fidelity moved by at most 1.3e-14).  Nothing else in any bundle moved.
# The six partial digests were re-captured once, when partial became an
# ordinary one-pointer table scheme and its bundle began to carry the d x 1
# table it read under "table" in place of null; with "table" set back to
# null each new bundle hashes to the digest it replaced.  The eight
# mixed_a/mixed_b digests and COMPARISON["ginibre/sampled/3"] below were
# re-captured once, when a raw estimate that needs no clipping began to be
# projected as H - tau I with its Cholesky factor as the carried root, and
# min_eig_raw to come from eigvalsh on that branch: physical moved by at
# most 5.0e-16, fidelity by 8.9e-16, trace_distance by 2.0e-16 and
# min_eig_raw by 1.5e-16; the comparison's medians by 8.3e-17 and its
# interquartile ranges by 1.2e-16.  The other 35 digests did not move.
PURE = ("postselected", "all_data", "single_projector", "single_observable")
BUNDLE = {
    "postselected/exact/2": "b86eef6be9f19a8646ee5869a27dd895f4de884f9b55d14091e3926f73a2f347",
    "postselected/exact/3": "cdae187a1592a208b9e9a44ee688e5d507f11a86afb78462d3a7bca1839b06a7",
    "postselected/sampled/2": "fe72f470920b99de368f5c7f1c49d4d0032257dc4c1d69e4ffced9a8a6208609",
    "postselected/sampled/3": "d563e6edbd197d609a0e771501c54403c1a3c9aa0e238e70ed7e35948ab1343f",
    "all_data/exact/2": "e3dd512947e9d58acde61ba8ec07252b688c1e8d6282d02c987695178f9cc933",
    "all_data/exact/3": "0dffec02fe2158c6474ef7567d6600ab6ba8e7fc6341d3bd8cc31487cf4abd6a",
    "all_data/sampled/2": "e4d383bafc3d552d6dbce2471bca3021b16b5b0f2ddee19c0100b3465fdcba76",
    "all_data/sampled/3": "0bbf49725facbcd2fd8a2ee166be1cd3a41ac9e83d303033b3f2790a5b523aa7",
    "single_projector/exact/2": "ac2be1c0e87501d6ccf21886d6e8f8f9d5734c7d5316187ce53104f202d48a8e",
    "single_projector/exact/3": "9aea5d9fefed527a6c19baaae78e91a609ff3549d8ceef3581bebcb408e47859",
    "single_projector/sampled/2": "affb53b383ac6229c72788b2dfd77642341ff9895dbe7c57f17d847ce7aa5304",
    "single_projector/sampled/3": "183773d5b637d0fee7879f9b7776d36aa263ace732a9f53467e2eb07f2ab3a6c",
    "single_observable/exact/2": "42f92f99837ff42fac733a74a66a172ebb33e6e6aa21c5a32f4deee7139128e8",
    "single_observable/exact/3": "0c31ec855088a627ba50dde4d2618713082413413229eba840e87483e39dee0a",
    "single_observable/sampled/2": "8c403ba5b17e3b36567aa1b272dbeeca69a743094d3981812f6ff6119c99a5a1",
    "single_observable/sampled/3": "ce7436fc2866e552bddbd51b16982c697131c1a5bfbf8f722f0a90f56268e5d9",
    "mixed_a/exact/2": "37dada697416b7017d44abfe12094427fb0899eb5af5f398ac9d96ec6e04c4c4",
    "mixed_a/exact/3": "9e2f22b549be5d3d113e6b70eac5370efa9ce9e7fad092500f78d036f882136b",
    "mixed_a/sampled/2": "a7708d69a1cf01cc069a6bd7d5ac41d37f2d00f0d9bcc5b6e4c2c39ae4976d73",
    "mixed_a/sampled/3": "f3c1f3bd54c42a18a4b2ba4ed06a048e8f7d3d17f5c8897b238180b5be62ae7d",
    "mixed_b/exact/2": "0828a577c67debfe19709125f2c06829e15c88e0da52bdc712f17b4cfd9d9832",
    "mixed_b/exact/3": "80bcd9d162926a02e0633ffbf89040d4e21fdfa764bd6c064df16427fa923ce5",
    "mixed_b/sampled/2": "d1eb1914d75be777981f2bdfeee2925d8c9e7ffe3b226633887096a158ff290c",
    "mixed_b/sampled/3": "7993a37f454b0456b3b1938485d2ee465f98ee801ba72add3aae1d6f2aade8ca",
    "partial/exact/2": "df30175eabfb44a216bd04df65502a1533d06b9bc35202c4989ed114a760ad93",
    "partial/exact/3": "4559f96faa8926f573a3d751dafcaf087ec5211808b269b12038f1dccb8fef8f",
    "partial/sampled/2": "76df846f20a7622818030200ca30c86052df62423adca43d85e293f5aa2d9dd6",
    "partial/sampled/3": "678a61f76d5e4e6a2b3b7396bff3c3c2848f520ae3ece020594ff942ed6dd750",
    "partial_orth/exact/3": "29e050bfbf7a0d45c370d921f09cbafb58a8fb5aab4dd905dc1dd8e9d5e03a41",
    "partial_orth/sampled/3": "6f64ddc128b75534d3e443802c7bb6e4cb7c3cfb69e8c5028c4e9c75c06872eb",
}


def _bundle_config(key: str):
    scheme, mode, d = key.split("/")
    d = int(d)
    kwargs = dict(dim=d, data_mode=mode, shots=SHOTS, seed=SEED, pointer_g=0.2,
                  noise_sigma_scale=1.3, noise_offset=0.01)
    if scheme == "partial_orth":
        scheme = "partial"
        kwargs.update(partial_a=np.eye(d, dtype=complex)[0],
                      partial_b=np.eye(d, dtype=complex)[d - 1])
    if scheme in PURE:
        kwargs.update(state_spec="haar-pure", state_seed=300 + d)
    else:
        kwargs.update(state_spec="ginibre", state_seed=400 + d)
    return ExperimentConfig(scheme=scheme, **kwargs)


def _bundle_keys():
    keys = [f"{scheme}/{mode}/{d}" for scheme in SCHEMES for mode in ("exact", "sampled")
            for d in (2, 3)]
    return keys + ["partial_orth/exact/3", "partial_orth/sampled/3"]


def _bundle_digest(key: str) -> str:
    bundle = run_reconstruction(_bundle_config(key))
    return _sha(serialize.dumps(serialize.bundle_to_json(bundle)))


@pytest.mark.parametrize("key", _bundle_keys())
def test_golden_bundle(key):
    assert _bundle_digest(key) == BUNDLE[key]


@pytest.mark.parametrize("mode_d", ["exact/2", "exact/3", "sampled/2", "sampled/3"])
def test_mixed_b_bundle_is_the_mixed_a_bundle_renamed(mode_d):
    a, b = (serialize.dumps(serialize.bundle_to_json(run_reconstruction(
        _bundle_config(f"{scheme}/{mode_d}")))) for scheme in ("mixed_a", "mixed_b"))
    assert b == a.replace('"mixed_a"', '"mixed_b"')


# Comparison CSVs of seeded compare_schemes sweeps.  They pin every cell's
# trace distance through its median and interquartile range, so a sweep that
# shares work across schemes must give the bytes of one run per experiment.
# "basis_a/sampled/2" runs the four schemes that read the basis-A table;
# "columns/sampled/3" the two that measure one observable on one pointer;
# "all/exact/3" every scheme, partial skipped; "ginibre/sampled/3" a mixed
# truth, the pure schemes skipped.
COMPARISON_SCHEMES = {
    "basis_a/sampled/2": ("postselected", "all_data", "mixed_a", "mixed_b"),
    "columns/sampled/3": ("single_projector", "single_observable"),
    "all/exact/3": tuple(SCHEMES),
    "ginibre/sampled/3": ("postselected", "all_data", "mixed_a", "mixed_b"),
}
COMPARISON = {
    "basis_a/sampled/2": "cfe0a93611b2772cb31c3d18926bd395b9e800ad0cd01bdc6f7c57e67bf5ebcd",
    "columns/sampled/3": "262ef88cbdda41ef3a462db266a8e162977c90503b5e6236226095437b7a359c",
    "all/exact/3": "b91c114338b0e5cb4cd2cad1c0ca18e3c98eeb70bcb4d29853323e2a6f582803",
    "ginibre/sampled/3": "4cf3cb9878428d6dd93bf752017196e78a29625395080eb5c5bcd94ca381befc",
}


def _comparison_csv(key: str) -> str:
    name, mode, d = key.split("/")
    d = int(d)
    spec = ("ginibre", 500 + d) if name == "ginibre" else ("haar-pure", 600 + d)
    grid = (0,) if mode == "exact" else (4_000, SHOTS)
    cfg = ExperimentConfig(dim=d, scheme="mixed_a", data_mode=mode, shots=grid[0], seed=SEED,
                           state_spec=spec[0], state_seed=spec[1], pointer_g=0.2,
                           noise_sigma_scale=1.3, noise_offset=0.01)
    return serialize.comparison_to_csv(
        compare_schemes(cfg, COMPARISON_SCHEMES[key], grid, n_seeds=6))


@pytest.mark.parametrize("key", list(COMPARISON))
def test_golden_comparison(key):
    assert _sha(_comparison_csv(key)) == COMPARISON[key]


def _current_digests():
    """(pinned name, pinned digest, digest of this tree) for every pinned key."""
    for d in (2, 3, 8):
        records, table = _table_run(d)
        yield f"RECORDS_CSV[{d}]", RECORDS_CSV[d], _sha(records.to_csv())
        yield f"TABLE_CSV[{d}]", TABLE_CSV[d], _sha(serialize.table_to_csv(table))
        yield f"COLUMN[{d}]", COLUMN[d], _column_digest(_column_run(d))
    yield ("MASKED_TABLE_CSV", MASKED_TABLE_CSV,
           _sha(serialize.table_to_csv(_masked_run())))
    for key in _bundle_keys():
        yield f"BUNDLE[{key!r}]", BUNDLE[key], _bundle_digest(key)
    for key in COMPARISON:
        yield f"COMPARISON[{key!r}]", COMPARISON[key], _sha(_comparison_csv(key))


if __name__ == "__main__":
    moved = 0
    for name, pinned, current in _current_digests():
        moved += current != pinned
        print(f"{name:38} {current} {'ok' if current == pinned else 'MOVED'}")
    sys.exit(1 if moved else 0)
