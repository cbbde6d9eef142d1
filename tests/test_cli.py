"""CLI behavior through real subprocesses: pipelines, exit codes, outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaktomo import serialize as ser

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, env=None, cwd=None):
    base = dict(os.environ)
    # The package in this tree, installed or not.
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    if env:
        base.update(env)
    return subprocess.run([sys.executable, "-m", "weaktomo", *argv],
                          capture_output=True, text=True, env=base, cwd=cwd)


# ----------------------------------------------------------------------- gen


def test_gen_pure_state_stdout():
    proc = run_cli("gen", "--kind", "pure", "--dim", "3", "--seed", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    state = ser.array_from_json(payload)
    assert state.shape == (3,)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    again = run_cli("gen", "--kind", "pure", "--dim", "3", "--seed", "1")
    assert again.stdout == proc.stdout


def test_gen_mixed_state():
    proc = run_cli("gen", "--kind", "mixed", "--dim", "2", "--rank", "2")
    mat = ser.array_from_json(json.loads(proc.stdout))
    assert mat.shape == (2, 2)
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(mat)) > -1e-12


def test_gen_basis():
    proc = run_cli("gen", "--kind", "basis", "--dim", "4")
    mat = ser.array_from_json(json.loads(proc.stdout))
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-12


def test_gen_config_pins_state_seed(tmp_path):
    out = tmp_path / "cfg.json"
    proc = run_cli("gen", "--kind", "config", "--dim", "2", "--seed", "5",
                   "--out", str(out))
    assert proc.returncode == 0
    assert f"wrote {out}" in proc.stdout
    cfg = json.loads(out.read_text())
    assert cfg["scheme"] == "all_data"
    assert cfg["seed"] == 5
    assert cfg["state_seed"] == 5


def test_gen_rejects_unknown_kind():
    proc = run_cli("gen", "--kind", "banana", "--dim", "2")
    assert proc.returncode == 2


# -------------------------------------------------------------------- verify


def test_verify_state_basis_and_config(tmp_path):
    state = tmp_path / "state.json"
    run_cli("gen", "--kind", "pure", "--dim", "2", "--out", str(state), "--quiet")
    proc = run_cli("verify", str(state))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["kind"] == "state_vector" and out["ok"] is True

    mixed = tmp_path / "mixed.json"
    run_cli("gen", "--kind", "mixed", "--dim", "2", "--out", str(mixed), "--quiet")
    out = json.loads(run_cli("verify", str(mixed)).stdout)
    assert out["kind"] == "density_matrix"
    rho = ser.array_from_json(json.loads(mixed.read_text()))
    assert out["min_eigenvalue"] == float(np.linalg.eigvalsh(rho).min())

    basis = tmp_path / "basis.json"
    run_cli("gen", "--kind", "basis", "--dim", "3", "--out", str(basis), "--quiet")
    out = json.loads(run_cli("verify", str(basis)).stdout)
    assert out["kind"] == "orthonormal_basis"

    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--kind", "config", "--dim", "2", "--out", str(cfg), "--quiet")
    out = json.loads(run_cli("verify", str(cfg)).stdout)
    assert out["kind"] == "config" and out["ok"] is True


def test_verify_table_sum_rules(tmp_path):
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--kind", "config", "--dim", "2", "--out", str(cfg), "--quiet")
    table_path = tmp_path / "table.json"
    proc = run_cli("simulate", "--config", str(cfg), "--exact",
                   "--out", str(table_path), "--quiet")
    assert proc.returncode == 0
    good = run_cli("verify", str(table_path))
    assert good.returncode == 0
    assert json.loads(good.stdout)["ok"] is True

    payload = json.loads(table_path.read_text())
    payload["W_re"][0][0] += 0.1
    table_path.write_text(json.dumps(payload))
    bad = run_cli("verify", str(table_path))
    assert bad.returncode == 1
    err = json.loads(bad.stderr)
    assert err["error"] == "sum-rule-violation"
    assert json.loads(bad.stdout)["ok"] is False


def test_verify_rejects_unrecognized_payload(tmp_path):
    f = tmp_path / "junk.json"
    f.write_text('{"foo": 1}')
    proc = run_cli("verify", str(f))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "precondition"


def test_verify_non_json_file(tmp_path):
    f = tmp_path / "data.json"
    f.write_text("not json at all")
    proc = run_cli("verify", str(f))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "parse-error"


def test_verify_rejects_non_finite_state(tmp_path):
    f = tmp_path / "state.json"
    f.write_text('{"dim": 2, "re": [NaN, 1.0], "im": [0.0, 0.0]}')
    proc = run_cli("verify", str(f))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "non-finite" in json.loads(proc.stderr)["message"]


# ------------------------------------------------------------------ pipeline


def test_exact_pipeline_reaches_machine_precision(tmp_path):
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--kind", "config", "--dim", "3", "--seed", "2",
            "--out", str(cfg), "--quiet")
    table = tmp_path / "table.json"
    run_cli("simulate", "--config", str(cfg), "--exact", "--out", str(table),
            "--quiet")
    bundle_path = tmp_path / "bundle.json"
    proc = run_cli("reconstruct", "--config", str(cfg), "--table", str(table),
                   "--out", str(bundle_path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("all_data: ")
    bundle = json.loads(bundle_path.read_text())
    assert bundle["metrics"]["fidelity"] >= 1.0 - 1e-10
    assert bundle["estimate"]["kind"] == "state_vector"


def test_sampled_pipeline_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--kind", "config", "--dim", "2", "--seed", "3",
            "--out", str(cfg), "--quiet")
    records = tmp_path / "records.csv"
    proc = run_cli("simulate", "--config", str(cfg), "--sampled",
                   "--shots", "20000", "--out", str(records), "--quiet")
    assert proc.returncode == 0
    text = records.read_text()
    assert text.startswith("trial,outcome_j,pointer,quadrature,readout\n")
    proc = run_cli("reconstruct", "--config", str(cfg), "--records",
                   str(records), "--quiet", "--out", str(tmp_path / "b.json"))
    assert proc.returncode == 0
    bundle = json.loads((tmp_path / "b.json").read_text())
    assert 0.0 <= bundle["metrics"]["trace_distance"] <= 1.0
    assert bundle["table"]["stderr_re"] is not None


def test_single_pointer_records_column_route(tmp_path):
    # single-observable records carry one pointer; noiseless readouts make
    # the reconstruction exact
    psi = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dim": 2, "scheme": "single_observable", "state_spec": "explicit",
        "state": {"dim": 2, "re": psi.real.tolist(), "im": psi.imag.tolist()},
        "noise_sigma_scale": 0.0,
    }))
    records = tmp_path / "records.csv"
    proc = run_cli("simulate", "--config", str(cfg_path), "--sampled", "--shots", "2048",
                   "--seed", "0", "--out", str(records), "--quiet")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("reconstruct", "--config", str(cfg_path), "--records",
                   str(records), "--out", str(tmp_path / "b.json"), "--quiet")
    assert proc.returncode == 0
    bundle = json.loads((tmp_path / "b.json").read_text())
    assert bundle["metrics"]["fidelity"] >= 1.0 - 1e-10
    assert bundle["table"]["n_trials"] == 2048
    assert bundle["diagnostics"]["kernel_dim"] == 1


@pytest.mark.parametrize("scheme", ["single_projector", "single_observable"])
def test_simulate_single_pointer_schemes_round_trip(tmp_path, scheme):
    # simulate writes the d x 1 data the scheme reads, in both modes
    common = ("--set", "dim=3", "--set", f"scheme={scheme}", "--seed", "1")
    table, records = tmp_path / "table.json", tmp_path / "records.csv"
    assert run_cli("simulate", *common, "--exact", "--out", str(table)).returncode == 0
    assert np.array(json.loads(table.read_text())["W_re"]).shape == (3, 1)
    proc = run_cli("reconstruct", *common, "--exact", "--table", str(table), "--quiet")
    assert proc.returncode == 0, proc.stderr
    exact = json.loads(proc.stdout)
    assert exact["metrics"]["fidelity"] >= 1.0 - 1e-10
    assert exact["table"]["n_trials"] == 0
    assert run_cli("simulate", *common, "--sampled", "--shots", "5000",
                   "--out", str(records)).returncode == 0
    assert {line.split(",")[2] for line in records.read_text().splitlines()[1:]} == {"0"}
    proc = run_cli("reconstruct", *common, "--sampled", "--shots", "5000",
                   "--records", str(records), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["table"]["n_trials"] == 5000
    # the sum rules hold for a basis-A table only
    proc = run_cli("verify", str(table))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "dimension-mismatch"


def test_simulate_partial_is_inapplicable():
    proc = run_cli("simulate", "--set", "dim=2", "--set", "scheme=partial",
                   "--set", "state_spec=ginibre")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "scheme-inapplicable"


@pytest.mark.parametrize("mode", ["--exact", "--sampled"])
def test_simulate_pure_scheme_on_mixed_truth_is_inapplicable(mode):
    # the default scheme, all_data, reconstructs a pure state; reconstruct
    # would refuse the data, so simulate refuses to write them
    proc = run_cli("simulate", "--set", "dim=2", "--set", "state_spec=ginibre",
                   "--shots", "100", mode)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "scheme-inapplicable"
    assert proc.stdout == ""


def test_simulate_refuses_a_record_stream_beyond_the_row_limit(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli("simulate", "--set", "dim=2", "--set", "scheme=all_data", "--sampled",
                   "--shots", str(10**12), "--out", str(out))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "resource-limit"
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_reconstruct_inapplicable_scheme_exit_code(tmp_path):
    # the identity basis makes beta diagonal, so the a-basis formula divides
    # by hard zeros and the scheme refuses
    cfg_path = tmp_path / "cfg.json"
    eye = np.eye(2)
    cfg_path.write_text(json.dumps({
        "dim": 2, "scheme": "mixed_a", "state_spec": "ginibre",
        "basis_spec": "explicit",
        "basis_b": {"dim": 2, "re": eye.reshape(-1).tolist(),
                    "im": (0.0 * eye).reshape(-1).tolist()},
    }))
    proc = run_cli("reconstruct", "--config", str(cfg_path))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "scheme-inapplicable"


@pytest.mark.parametrize("case", ["outcome", "pointer", "readout", "fields", "quadrature"])
def test_reconstruct_bad_records_exit_code(tmp_path, case):
    from test_pointer import bad_records
    records = tmp_path / "bad.csv"
    records.write_text(bad_records(case))
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=mixed_a",
                   "--set", "state_spec=ginibre", "--records", str(records))
    assert proc.returncode == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "invalid-records"
    assert error["message"].startswith("records row 3:")


@pytest.mark.parametrize("defect, row", [("line 6 deleted", 5), ("row 2 reads p", 2)])
def test_reconstruct_rejects_records_out_of_trial_layout(tmp_path, defect, row):
    records = tmp_path / "records.csv"
    assert run_cli("simulate", "--set", "dim=2", "--set", "scheme=mixed_a",
                   "--set", "state_spec=ginibre", "--sampled", "--shots", "1000",
                   "--out", str(records)).returncode == 0
    lines = records.read_text().splitlines(keepends=True)
    if defect == "line 6 deleted":
        del lines[5]
    else:
        t, j, i, _, r = lines[2].split(",")
        lines[2] = ",".join([t, j, i, "p", r])
    records.write_text("".join(lines))
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=mixed_a",
                   "--set", "state_spec=ginibre", "--records", str(records))
    assert proc.returncode == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "invalid-records"
    assert error["message"].startswith(f"records row {row}:")


@pytest.mark.parametrize("line_end, code", [("\r\n", 0), ("\r", 1)])
def test_reconstruct_reads_crlf_records_and_rejects_lone_cr(tmp_path, line_end, code):
    # The file is read as it is: \r\n ends a line, a lone \r is no line end.
    records = tmp_path / "records.csv"
    argv = ["--set", "dim=2", "--set", "scheme=mixed_a", "--set", "state_spec=ginibre"]
    assert run_cli("simulate", *argv, "--sampled", "--shots", "100",
                   "--out", str(records)).returncode == 0
    lf = tmp_path / "lf.json"
    assert run_cli("reconstruct", *argv, "--records", str(records), "--quiet",
                   "--out", str(lf)).returncode == 0
    records.write_bytes(records.read_bytes().replace(b"\n", line_end.encode()))
    out = tmp_path / "b.json"
    proc = run_cli("reconstruct", *argv, "--records", str(records), "--quiet",
                   "--out", str(out))
    assert proc.returncode == code
    if code == 0:
        assert out.read_bytes() == lf.read_bytes()
    else:
        assert json.loads(proc.stderr)["error"] == "invalid-records"


def test_reconstruct_records_index_beyond_64_bits_is_invalid_records(tmp_path):
    from test_pointer import VALID_RECORDS
    records = tmp_path / "big.csv"
    records.write_text(VALID_RECORDS.replace("1,1,0,p,0.3", "99999999999999999999,1,0,p,0.3"))
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=all_data",
                   "--records", str(records))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "invalid-records"
    assert error["message"] == ("records row 3: trial 99999999999999999999 "
                                "does not fit 64 bits")


def test_reconstruct_header_only_records_are_invalid_records(tmp_path):
    records = tmp_path / "empty.csv"
    records.write_text("trial,outcome_j,pointer,quadrature,readout\n")
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=all_data",
                   "--records", str(records))
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {"error": "invalid-records",
                                       "message": "record stream is empty"}


@pytest.mark.parametrize("field, text", [("dim", "1e400"), ("n_trials", "1e400"),
                                         ("dim", "2.5"), ("n_trials", "-3")])
@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_table_count_that_is_no_integer_is_invalid_value(tmp_path, command, field, text):
    table = tmp_path / "table.json"
    assert run_cli("simulate", "--set", "dim=2", "--set", "scheme=all_data", "--exact",
                   "--out", str(table), "--quiet").returncode == 0
    value = {"dim": 2, "n_trials": 0}[field]
    table.write_text(table.read_text().replace(f'"{field}": {value}', f'"{field}": {text}'))
    argv = ([str(table)] if command == "verify" else
            ["--set", "dim=2", "--set", "scheme=all_data", "--table", str(table)])
    proc = run_cli(command, *argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "invalid-value"
    assert error["message"].startswith(f"{field} must be a non-negative integer")


def test_reconstruct_seeded_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    run_cli("gen", "--kind", "config", "--dim", "2", "--seed", "9",
            "--out", str(cfg), "--quiet")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli("reconstruct", "--config", str(cfg), "--sampled", "--shots", "5000",
            "--out", str(out_a), "--quiet")
    run_cli("reconstruct", "--config", str(cfg), "--sampled", "--shots", "5000",
            "--out", str(out_b), "--quiet")
    assert out_a.read_bytes() == out_b.read_bytes()


# ---------------------------------------------------------------- demo-phase


def test_demo_phase_exact_output():
    proc = run_cli("demo-phase", "--theta", "0.1", "--exact")
    assert proc.returncode == 0
    im_line = next(l for l in proc.stdout.splitlines() if l.startswith("Im W"))
    assert float(im_line.split()[-1]) == pytest.approx(-9.9917, abs=5e-5)
    dp_line = next(l for l in proc.stdout.splitlines() if l.startswith("dp"))
    assert float(dp_line.split()[1]) == pytest.approx(-0.049958, abs=1e-6)
    assert "theta estimate" not in proc.stdout


def test_demo_phase_sampled_output(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("demo-phase", "--theta", "0.1", "--shots", "10000000",
                   "--seed", "0", "--out", str(out))
    assert proc.returncode == 0
    assert "theta estimate" in proc.stdout
    report = json.loads(out.read_text())
    assert abs(report["theta_estimate"] - 0.1) / 0.1 < 4.0 * report["predicted_rel_error"]
    rerun = tmp_path / "rerun.json"
    run_cli("demo-phase", "--theta", "0.1", "--shots", "10000000",
            "--seed", "0", "--out", str(rerun), "--quiet")
    assert rerun.read_bytes() == out.read_bytes()


def test_demo_phase_domain_error():
    proc = run_cli("demo-phase", "--theta", "0", "--exact")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "precondition"


# ------------------------------------------------------------------- compare


def test_compare_exact_csv(tmp_path):
    proc = run_cli("compare", "--set", "dim=2", "--set", "state_seed=1",
                   "--exact", "--schemes", "all_data,mixed_a,partial",
                   "--shots-grid", "0", "--quiet")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "scheme,shots,metric,median,iqr,discard_fraction"
    body = {line.split(",")[0]: line for line in lines[1:]}
    assert "skipped" in body["partial"]
    assert float(body["all_data"].split(",")[3]) < 1e-10
    assert float(body["mixed_a"].split(",")[3]) < 1e-10


def test_compare_thread_env_does_not_change_bytes(tmp_path):
    args = ("compare", "--set", "dim=2", "--set", "state_seed=0", "--sampled",
            "--shots", "1", "--schemes", "all_data", "--shots-grid", "2000",
            "--seeds", "5", "--quiet")
    one = run_cli(*args, env={"WEAKTOMO_THREADS": "1"})
    four = run_cli(*args, env={"WEAKTOMO_THREADS": "4"})
    assert one.returncode == 0 and four.returncode == 0
    assert one.stdout == four.stdout


def test_compare_sampled_defaults_base_shots_to_grid():
    # the grid sets the per-cell shot counts, so --shots may be omitted
    proc = run_cli("compare", "--set", "dim=2", "--set", "state_seed=1",
                   "--sampled", "--schemes", "all_data",
                   "--shots-grid", "500,2000", "--seeds", "4", "--quiet")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "scheme,shots,metric,median,iqr,discard_fraction"
    assert len(lines) == 3
    assert lines[1].startswith("all_data,500,trace_distance,")
    assert lines[2].startswith("all_data,2000,trace_distance,")


def test_compare_rejects_unknown_scheme():
    proc = run_cli("compare", "--set", "dim=2", "--exact",
                   "--schemes", "telepathy", "--shots-grid", "0")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "invalid-value"


# ------------------------------------------------------------------- usage


def test_missing_config_file_is_usage_error():
    proc = run_cli("reconstruct", "--config", "/nonexistent/cfg.json")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


def test_malformed_set_is_usage_error():
    proc = run_cli("simulate", "--set", "dim", "--exact")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


def test_unknown_config_key_is_usage_error():
    proc = run_cli("simulate", "--set", "dim=2", "--set", "wormhole=1", "--exact")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


@pytest.mark.parametrize("mode", ["--exact", "--sampled"])
def test_negative_noise_scale_is_usage_error(mode, tmp_path):
    out = tmp_path / "b.json"
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=all_data",
                   "--set", "noise_sigma_scale=-1", "--shots", "100", mode,
                   "--out", str(out))
    assert proc.returncode == 2
    assert "usage error" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("setting", ["shots=2.5", "shots=true", "seed=1e400", "seed=2.5",
                                     "seed=-1", "state_seed=1.5", "state_seed=-1",
                                     "state_rank=1.5", "state_rank=0", "state_rank=3",
                                     "postselect_row=0.5"])
def test_integer_field_that_is_no_integer_is_usage_error(setting, tmp_path):
    out = tmp_path / "b.json"
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=mixed_a",
                   "--set", "state_spec=ginibre", "--set", "shots=100", "--sampled",
                   "--set", setting, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["pointer_g=true", "pointer_sigma_q=false",
                                     "pointer_mean_q=true", "pointer_mean_p=false",
                                     "noise_sigma_scale=false", "noise_offset=true",
                                     "shots=-5"])
def test_bool_number_or_negative_exact_shots_is_usage_error(setting, tmp_path):
    out = tmp_path / "b.json"
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=all_data", "--exact",
                   "--set", setting, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error")
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    ["noise_offset=1e152"], ["pointer_sigma_q=1e153"],
    ["pointer_mean_q=1.34e154", "noise_offset=4e152", "shots=1000"],
    ["pointer_sigma_q=1e154", "shots=1"]])
def test_readout_sums_beyond_the_float_range_are_a_usage_error(settings, tmp_path):
    out = tmp_path / "b.json"
    sets = [arg for setting in settings for arg in ("--set", setting)]
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=all_data", "--sampled",
                   "--shots", "1000000", *sets, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error")
    assert "readout_bound_times_root_2_shots" in proc.stderr
    assert not out.exists()


def test_dotted_set_reaches_nested_fields(tmp_path):
    out = tmp_path / "b.json"
    proc = run_cli("reconstruct", "--set", "dim=2", "--set", "scheme=mixed_a",
                   "--set", "pointer.g=0.1", "--set", "noise.sigma_scale=0.5",
                   "--sampled", "--shots", "4000", "--out", str(out), "--quiet")
    assert proc.returncode == 0
    bundle = json.loads(out.read_text())
    assert bundle["config"]["pointer_g"] == 0.1
    assert bundle["config"]["noise_sigma_scale"] == 0.5


def test_help_lists_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("gen", "simulate", "reconstruct", "verify", "demo-phase",
                 "compare"):
        assert name in proc.stdout
    sub = run_cli("reconstruct", "--help")
    for flag in ("--config", "--set", "--table", "--records", "--exact",
                 "--sampled", "--out", "--quiet"):
        assert flag in sub.stdout
