"""Golden digests of seeded sampler and estimator outputs.

The digests were captured once from the record-stream implementation of
the sampler and estimators.  Any change to how trials are drawn, how
readouts are formed or how cell sums are accumulated must keep these bytes
identical; a mismatch here means seeded outputs changed.  None of the
sampler and estimator outputs goes through an eigendecomposition, so thread
counts of the linear-algebra backend do not enter them.  The result-bundle
digests at the end pin whole seeded runs of every scheme.
"""

import hashlib

import numpy as np
import pytest

from weaktomo import (
    SCHEMES,
    ExperimentConfig,
    NoiseModel,
    Observable,
    PointerConfig,
    StateVector,
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


def test_golden_masked_row_table():
    # |+> post-selected in the Fourier basis never reaches outcome 1.
    psi = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    cfg = PointerConfig.uniform(2, g=0.2)
    records = sample_records(psi, reference_basis(2), fourier_basis(2), cfg,
                             shots=SHOTS, seed=SEED, noise=NOISE)
    table = estimate_weak_values(records, cfg, 2)
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
PURE = ("postselected", "all_data", "single_projector", "single_observable")
BUNDLE = {
    "postselected/exact/2": "5cc79257aba5653d3caa4f3c6f9ece453392be6ee76b680b53b5f4496b52e5f9",
    "postselected/exact/3": "2cfbff9cd42a78afb886e9c4df2721d173f4f580db4fdd5ee7db0bb1e7ac68bb",
    "postselected/sampled/2": "373d0f586feba3da1169e4066e421c7bd392f756535e5425bdd9a8ef83dd6fbb",
    "postselected/sampled/3": "bd3b34ae5a81aab3cadf0265032e566ce1b26f3582bd50b9213571e05fd2d0f5",
    "all_data/exact/2": "d730f64453f3d0553d64a819c24a61e36d66d03305f11113aba0618ca53a444a",
    "all_data/exact/3": "b04922ef577c86a6a0bd3404413a77926890022cd19e8ab92700da551ea6550f",
    "all_data/sampled/2": "d81509adb9393b97e08bb3fb7e87f9915825d948304da002b297c8f95a5f10c0",
    "all_data/sampled/3": "342dcfea4272de640b17e2b300098db78f5d7a0edd7c6f8f8330c8e1fa76e090",
    "single_projector/exact/2": "a9cf6a70fb19eb302e700d67f022855086a8704c5ce1e27d838d07c037031776",
    "single_projector/exact/3": "0d4802e039a576fc00a19f2b017c9a71d9f664e512367305c9f940e74f1f3a54",
    "single_projector/sampled/2": "a744cf458e8538a79748d4a09269e9164e67c3a35218fbece0e9f027b138c8ae",
    "single_projector/sampled/3": "f53e1b3807226ee06ef65864e7d4d2d91f384c865a82a1682a06ffa54598c780",
    "single_observable/exact/2": "8295ca43aa1af928c0faf6d51ce4e7e1654c460391101e3330698e2c0fd36494",
    "single_observable/exact/3": "54443defe5f6f8c495718da5baedaebf9058251bd456b4d5b3fddbbfbed5bc8f",
    "single_observable/sampled/2": "db88ceecbbd3dcdbb3a19223265d5d254f1e1bdb315e7b93867992a5f01323ad",
    "single_observable/sampled/3": "7c8eb52a693a115cdfcebbee55df58bf315a79ec37aa59bc30ea3df9e9980935",
    "mixed_a/exact/2": "c07a348c44e7aebfa179e14566341c26d4800950d686d7bac2f5812e9f922db9",
    "mixed_a/exact/3": "b9052b6fd020ff39b6d9ce1975e343e519aa608bd5e769a985d88a9b9d129f38",
    "mixed_a/sampled/2": "9d054f1f7c4536e8c10cd24d0b061cff77b59bedffccaf5d0944075917be630b",
    "mixed_a/sampled/3": "d2ce0ee31723f94e3dd80adcd619c3debff3d37dfa4d80b547935f79eb00fd1c",
    "mixed_b/exact/2": "4304ebc2b66fdcd8668bba164c457e2685354e5a9b256775ead50eeb83adf13e",
    "mixed_b/exact/3": "aac8db4543a1ca9558920363e408c8e9e9a3a34767b48081ef70bab99494cd6a",
    "mixed_b/sampled/2": "994d7afb0f9a312bc6f9a5817925eb4b93757f99ca005558dbb373690767de88",
    "mixed_b/sampled/3": "340efa402229491b5e4670bdca5126c83eb70ef04bbf81b0ce71f99b84a04f8b",
    "partial/exact/2": "45c9e91438734e92028f7bbd68502d2414266a9b8a80a395ccc201f8c322e090",
    "partial/exact/3": "a8fdf379efac94094070bebf3e0f6c6b61e3b81aa3e068e939dc68fab843d0d6",
    "partial/sampled/2": "d035bf4920c11780b810c75a636eee5d70e1c94f3372a20582c75cdb09125965",
    "partial/sampled/3": "5bd9225e5925356c596c8dfbddcac8295ed2dda3e54f4f00fc55db3bd726f93e",
    "partial_orth/exact/3": "0c7fc89955a23639eae52e9cee881c1594cddebc603cdf358299f2a7275c1752",
    "partial_orth/sampled/3": "4ddfcaebb5abd3a28ff0255b947bfb81fea4b20e18ec528f8810491c2a86e8ea",
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


@pytest.mark.parametrize("key", _bundle_keys())
def test_golden_bundle(key):
    bundle = run_reconstruction(_bundle_config(key))
    assert _sha(serialize.dumps(serialize.bundle_to_json(bundle))) == BUNDLE[key]
