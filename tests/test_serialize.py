"""JSON and CSV codecs: lossless round trips and stable layouts."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaktomo import (
    ExperimentConfig,
    WeakValueTable,
    demo_phase_detection,
    run_reconstruction,
)
from weaktomo import serialize as ser

RHO_EXAMPLE = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)


# ------------------------------------------------------------------- arrays


def test_array_json_vector_round_trip():
    vec = np.array([1.0 / 3.0, math.sqrt(2.0) + 1j * math.pi, -0.25j])
    obj = json.loads(json.dumps(ser.array_to_json(vec)))
    back = ser.array_from_json(obj)
    assert back.ndim == 1
    assert np.array_equal(back, vec)  # bit-exact through repr floats


def test_array_json_matrix_is_flat_row_major():
    mat = np.array([[1.0, 2.0 + 3.0j], [4.0, 5.0]], dtype=complex)
    obj = ser.array_to_json(mat)
    assert obj["dim"] == 2
    assert obj["re"] == [1.0, 2.0, 4.0, 5.0]
    assert obj["im"] == [0.0, 3.0, 0.0, 0.0]
    back = ser.array_from_json(obj)
    assert back.shape == (2, 2)
    assert np.array_equal(back, mat)


def test_array_json_size_disambiguates():
    with pytest.raises(ValueError):
        ser.array_from_json({"dim": 2, "re": [1.0, 2.0, 3.0], "im": [0.0, 0.0, 0.0]})
    with pytest.raises(ValueError):
        ser.array_from_json({"dim": 2, "re": [1.0, 2.0], "im": [0.0]})
    with pytest.raises(ValueError):
        ser.array_to_json(np.zeros((2, 2, 2)))


def test_decode_state_by_shape():
    from weaktomo import DensityMatrix, StateVector
    vec = np.array([1.0, 0.0], dtype=complex)
    assert isinstance(ser.decode_state(ser.array_to_json(vec)), StateVector)
    assert isinstance(ser.decode_state(ser.array_to_json(RHO_EXAMPLE)), DensityMatrix)


# -------------------------------------------------------------------- tables


def _exact_table():
    bundle = run_reconstruction(ExperimentConfig(dim=2, scheme="mixed_a",
                                             state_spec="explicit",
                                             state=RHO_EXAMPLE))
    return bundle.table


def _sampled_table():
    bundle = run_reconstruction(ExperimentConfig(dim=2, scheme="mixed_a",
                                             state_spec="explicit",
                                             state=RHO_EXAMPLE,
                                             data_mode="sampled",
                                             shots=5_000, seed=0))
    return bundle.table


def test_table_json_round_trip_exact():
    table = _exact_table()
    obj = json.loads(json.dumps(ser.table_to_json(table)))
    assert "stderr_re" not in obj
    back = ser.table_from_json(obj)
    assert back.dim == table.dim
    assert np.array_equal(back.W, table.W)
    assert np.array_equal(back.P, table.P)
    assert np.array_equal(back.defined, table.defined)
    assert back.stderr_re is None


def test_table_json_round_trip_with_errors():
    table = _sampled_table()
    back = ser.table_from_json(json.loads(json.dumps(ser.table_to_json(table))))
    assert np.array_equal(back.W, table.W)
    assert np.array_equal(back.stderr_re, table.stderr_re)
    assert np.array_equal(back.stderr_im, table.stderr_im)
    assert table.n_trials == 5_000
    assert back.n_trials == table.n_trials


@st.composite
def _tables(draw):
    """d x d and d x 1 tables with masked rows, exact or estimated."""
    d = draw(st.integers(2, 6))
    n = draw(st.sampled_from([d, 1]))

    def grid(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    finite = st.floats(allow_nan=False, allow_infinity=False)
    defined = grid(st.booleans(), d)
    defined[draw(st.integers(0, d - 1))] = True
    weights = grid(st.floats(1e-3, 1.0), d) * defined
    w = grid(finite, 2 * d * n).reshape(2, d, n)
    kwargs = {}
    if draw(st.booleans()):
        errors = st.floats(0.0, 1e300)
        kwargs = dict(stderr_re=grid(errors, d * n).reshape(d, n),
                      stderr_im=grid(errors, d * n).reshape(d, n),
                      n_trials=draw(st.integers(1, 2**62)))
    return WeakValueTable(dim=d, W=w[0] + 1j * w[1], P=weights / weights.sum(),
                          defined=defined, **kwargs)


@given(table=_tables())
def test_table_json_round_trip_property(table):
    back = ser.table_from_json(json.loads(ser.dumps(ser.table_to_json(table))))
    assert (back.dim, back.n_trials) == (table.dim, table.n_trials)
    for name in ("W", "P", "defined", "stderr_re", "stderr_im"):
        mine, theirs = getattr(table, name), getattr(back, name)
        if mine is None:
            assert theirs is None
        else:
            assert theirs.dtype == mine.dtype and theirs.tobytes() == mine.tobytes()


def test_table_csv_layout():
    table = _exact_table()
    text = ser.table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "j,i,re_w,im_w,p_j"
    assert len(lines) == 1 + table.dim * table.dim
    j, i, re_w, im_w, p_j = lines[1].split(",")
    assert (int(j), int(i)) == (0, 0)
    assert float(re_w) == table.W[0, 0].real
    assert float(p_j) == table.P[0]


def test_table_csv_includes_errors_and_skips_masked_rows():
    table = _sampled_table()
    text = ser.table_to_csv(table)
    assert text.startswith("j,i,re_w,im_w,p_j,stderr_re,stderr_im\n")
    from weaktomo import StateVector, fourier_basis, reference_basis, weak_value_table
    psi = StateVector.normalized(np.array([1.0, 1.0]))
    masked = weak_value_table(psi.projector(), reference_basis(2), fourier_basis(2))
    lines = ser.table_to_csv(masked).strip().split("\n")
    assert len(lines) == 1 + 2  # only row j=0 survives
    assert all(line.split(",")[0] == "0" for line in lines[1:])


# ------------------------------------------------------------------- configs


def test_config_round_trip_defaults():
    cfg = ExperimentConfig(dim=3, scheme="all_data")
    data = json.loads(json.dumps(ser.config_to_dict(cfg)))
    assert ser.config_from_dict(data) == cfg


def test_config_round_trip_arrays():
    cfg = ExperimentConfig(
        dim=2, scheme="partial", state_spec="explicit", state=RHO_EXAMPLE,
        partial_a=np.array([1.0, 0.0], dtype=complex),
        partial_b=np.array([0.0, 1.0], dtype=complex),
    )
    back = ser.config_from_dict(json.loads(json.dumps(ser.config_to_dict(cfg))))
    assert np.array_equal(back.state, cfg.state)
    assert np.array_equal(back.partial_a, cfg.partial_a)
    assert np.array_equal(back.partial_b, cfg.partial_b)


def test_config_round_trip_phi_array_and_lambdas():
    cfg = ExperimentConfig(
        dim=2, scheme="single_observable",
        lambdas=np.array([1.0, -1.0]),
        phi=np.array([0.6, 0.8], dtype=complex),
    )
    back = ser.config_from_dict(json.loads(json.dumps(ser.config_to_dict(cfg))))
    assert np.array_equal(back.lambdas, cfg.lambdas)
    assert np.array_equal(np.asarray(back.phi), np.asarray(cfg.phi))


def test_config_nested_pointer_and_noise_aliases():
    data = {
        "dim": 2,
        "scheme": "all_data",
        "pointer": {"g": 0.1, "sigma_q": 2.0, "mean_p": 0.25, "n_pointers": 2},
        "noise": {"sigma_scale": 1.5, "offset": 0.01},
    }
    cfg = ser.config_from_dict(data)
    assert cfg.pointer_g == 0.1
    assert cfg.pointer_sigma_q == 2.0
    assert cfg.pointer_mean_p == 0.25
    assert cfg.noise_sigma_scale == 1.5
    assert cfg.noise_offset == 0.01


def test_config_nested_long_form_aliases():
    data = {
        "dim": 2,
        "scheme": "all_data",
        "noise": {"readout_sigma_scale": 0.5, "systematic_offset": -0.1},
    }
    cfg = ser.config_from_dict(data)
    assert cfg.noise_sigma_scale == 0.5
    assert cfg.noise_offset == -0.1


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ser.config_from_dict({"dim": 2, "scheme": "all_data", "bogus": 1})
    with pytest.raises(ValueError, match="unknown pointer config key"):
        ser.config_from_dict({"dim": 2, "scheme": "all_data",
                              "pointer": {"coupling": 0.1}})


# ------------------------------------------------------------------- bundles


def test_bundle_json_shape_and_no_wall_time():
    bundle = run_reconstruction(ExperimentConfig(dim=2, scheme="mixed_a",
                                             state_spec="explicit",
                                             state=RHO_EXAMPLE))
    obj = ser.bundle_to_json(bundle)
    assert sorted(obj) == ["config", "diagnostics", "estimate",
                           "metrics", "scheme", "table"]
    assert "wall_time" not in ser.dumps(obj)
    assert obj["estimate"]["kind"] == "density_estimate"
    assert obj["diagnostics"]["scheme"] == "mixed_a"
    assert "min_eig_raw" in obj["diagnostics"]
    assert obj["table"]["n_trials"] == 0


def test_bundle_json_estimate_kinds():
    state_bundle = run_reconstruction(ExperimentConfig(dim=2, scheme="all_data",
                                                   state_seed=1))
    assert ser.bundle_to_json(state_bundle)["estimate"]["kind"] == "state_vector"

    kernel_bundle = run_reconstruction(ExperimentConfig(dim=2, scheme="single_observable",
                                                    state_seed=1))
    obj = ser.bundle_to_json(kernel_bundle)
    assert obj["estimate"]["kind"] == "state_vector"
    assert "smallest_eig" in obj["diagnostics"]
    assert obj["diagnostics"]["kernel_dim"] == 1
    assert obj["table"]["n_trials"] == 0

    element_bundle = run_reconstruction(ExperimentConfig(dim=2, scheme="partial",
                                                     state_spec="explicit",
                                                     state=RHO_EXAMPLE))
    assert ser.bundle_to_json(element_bundle)["estimate"]["kind"] == "element"

    pair_bundle = run_reconstruction(ExperimentConfig(
        dim=2, scheme="partial", state_spec="explicit", state=RHO_EXAMPLE,
        partial_a=np.array([1.0, 0.0], dtype=complex),
        partial_b=np.array([0.0, 1.0], dtype=complex)))
    obj = ser.bundle_to_json(pair_bundle)
    assert obj["estimate"]["kind"] == "element_pair"
    assert "hermiticity_gap" in obj["diagnostics"]


def test_table_json_reads_older_files_without_n_trials():
    obj = ser.table_to_json(_sampled_table())
    del obj["n_trials"]
    assert ser.table_from_json(obj).n_trials == 0


@pytest.mark.parametrize("decode, obj", [
    (ser.table_from_json, {"dim": 1, "W_re": [[1.0]], "W_im": [[math.inf]], "P": [1.0],
                           "defined": [True]}),
    (ser.decode_state, {"dim": 2, "re": [1.0, 0.0], "im": [0.0, -math.inf]}),
])
def test_non_finite_json_is_rejected_without_a_numpy_warning(decode, obj):
    # re + 1j * im would evaluate 0 * inf and warn before the finite check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            decode(obj)


def test_single_pointer_bundle_table_loads_back():
    # one layout for every table: a sampled one-pointer run's table reloads
    # from the bundle as the table the run read
    bundle = run_reconstruction(ExperimentConfig(dim=3, scheme="single_observable",
                                                 data_mode="sampled", shots=5_000,
                                                 seed=2, state_seed=1))
    obj = json.loads(ser.dumps(ser.bundle_to_json(bundle)))
    back = ser.table_from_json(obj["table"])
    assert back.n_pointers == 1
    for name in ("W", "P", "defined", "stderr_re", "stderr_im", "n_trials"):
        assert np.array_equal(getattr(back, name), getattr(bundle.table, name)), name
    assert back.n_trials == 5_000


def test_bundle_json_byte_identical_reruns():
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", state_spec="explicit",
                           state=RHO_EXAMPLE, data_mode="sampled",
                           shots=10_000, seed=5)
    a = ser.dumps(ser.bundle_to_json(run_reconstruction(cfg)))
    b = ser.dumps(ser.bundle_to_json(run_reconstruction(cfg)))
    assert a == b


def test_config_survives_bundle_round_trip():
    cfg = ExperimentConfig(dim=2, scheme="mixed_a", state_spec="explicit",
                           state=RHO_EXAMPLE, data_mode="sampled",
                           shots=10_000, seed=5)
    obj = json.loads(ser.dumps(ser.bundle_to_json(run_reconstruction(cfg))))
    back = ser.config_from_dict(obj["config"])
    for name in cfg.__dataclass_fields__:
        mine, theirs = getattr(cfg, name), getattr(back, name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs)
        else:
            assert mine == theirs


# ----------------------------------------------------------- reports and csv


def test_demo_report_json():
    report = demo_phase_detection(0.1, shots=1_000_000, seed=0)
    obj = json.loads(json.dumps(ser.demo_report_to_json(report)))
    assert obj["weak_value"]["im"] == pytest.approx(-9.9917, abs=5e-5)
    assert obj["retained"] == report.retained
    assert obj["theta_estimate"] == report.theta_estimate
    assert obj["low_signal_warning"] is False


def test_comparison_csv_layout():
    rows = [
        {"scheme": "all_data", "shots": 1000, "metric": "trace_distance",
         "median": 0.125, "iqr": 0.5, "discard_fraction": 0.0},
        {"scheme": "partial", "skipped": "estimates one element"},
    ]
    text = ser.comparison_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "scheme,shots,metric,median,iqr,discard_fraction"
    assert lines[1] == "all_data,1000,trace_distance,0.125,0.5,0.0"
    assert lines[2] == "partial,,skipped: estimates one element,,,"


def test_dumps_is_deterministic():
    obj = {"b": 1.0 / 3.0, "a": [1, 2], "c": {"z": True, "y": None}}
    text = ser.dumps(obj)
    assert text == ser.dumps(dict(reversed(obj.items())))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_dump_and_load_path(tmp_path):
    target = tmp_path / "out.json"
    payload = {"x": [1.5, 2.5], "name": "case"}
    ser.dump_path(payload, target)
    assert ser.load_path(target) == payload
    assert target.read_text().endswith("\n")
