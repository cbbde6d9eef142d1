"""JSON and CSV codecs for states, tables, configs, and result bundles.

All JSON is emitted with sorted keys and two-space indent so that equal
objects serialize to identical bytes.  Floats go through Python's repr,
which round-trips exactly; complex arrays are stored as separate re/im
parts, row-major for matrices.  Every weak-value table, d x d or d x 1,
exact or estimated, has one JSON layout (``table_to_json``).
"""

import csv
import io
import json

import numpy as np

from .qcore import DensityMatrix, StateVector
from .weakval import WeakValueTable
from .harness import ExperimentConfig, PhaseDemoReport, ResultBundle
from .recon import DensityEstimate, ElementPair

_ARRAY_FIELDS = ("state", "basis_b", "lambdas", "partial_a", "partial_b")


def _count(value, name: str) -> int:
    """A non-negative integer field; a float must be finite and integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _floats(obj, key: str) -> np.ndarray:
    try:
        return np.asarray(obj[key], dtype=float)
    except OverflowError:
        raise ValueError(f"{key} holds a number beyond the float range") from None


def array_to_json(arr) -> dict:
    """Encode a complex vector or matrix as {"dim", "re", "im"}.

    re/im are flat lists, row-major for matrices; dim plus the list length
    decides vector vs matrix on decode.
    """
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a vector or matrix, got ndim={arr.ndim}")
    return {"dim": arr.shape[0],
            "re": arr.real.reshape(-1).tolist(),
            "im": arr.imag.reshape(-1).tolist()}


def array_from_json(obj) -> np.ndarray:
    re = _floats(obj, "re").reshape(-1)
    im = _floats(obj, "im").reshape(-1)
    if re.shape != im.shape:
        raise ValueError("re and im parts have different lengths")
    arr = re.astype(complex)
    arr.imag = im  # not re + 1j * im, which evaluates 0 * inf on an infinite im
    d = _count(obj["dim"], "dim")
    if arr.size == d:
        return arr
    if arr.size == d * d:
        return arr.reshape(d, d)
    raise ValueError(f"dim {d} admits {d} or {d * d} entries, got {arr.size}")


def decode_state(obj):
    """Decode {"dim","re","im"} into a StateVector (1-D) or DensityMatrix (2-D)."""
    arr = array_from_json(obj)
    return StateVector(arr) if arr.ndim == 1 else DensityMatrix(arr)


def table_to_json(table: WeakValueTable) -> dict:
    """Encode a d x n_pointers table losslessly; W rows are lists of n_pointers
    entries, and ``n_trials`` (0 for exact data) goes next to the standard
    errors of an estimated table."""
    out = {
        "dim": table.dim,
        "W_re": table.W.real.tolist(),
        "W_im": table.W.imag.tolist(),
        "P": table.P.tolist(),
        "defined": table.defined.tolist(),
        "n_trials": table.n_trials,
    }
    if table.stderr_re is not None:
        out["stderr_re"] = table.stderr_re.tolist()
        out["stderr_im"] = table.stderr_im.tolist()
    return out


def table_from_json(obj) -> WeakValueTable:
    """Decode ``table_to_json`` output; files without ``n_trials`` read as 0.
    A ``dim`` or ``n_trials`` that is not a non-negative integer, or a
    number beyond the float range, raises ValueError."""
    w = _floats(obj, "W_re").astype(complex)
    w.imag = _floats(obj, "W_im")  # by parts, as in array_from_json
    kwargs = {}
    if "stderr_re" in obj:
        kwargs["stderr_re"] = _floats(obj, "stderr_re")
        kwargs["stderr_im"] = _floats(obj, "stderr_im")
    return WeakValueTable(
        dim=_count(obj["dim"], "dim"),
        W=w,
        P=_floats(obj, "P"),
        defined=np.asarray(obj["defined"], dtype=bool),
        n_trials=_count(obj.get("n_trials", 0), "n_trials"),
        **kwargs,
    )


def table_to_csv(table: WeakValueTable) -> str:
    """Flat CSV export, one line per defined (outcome j, pointer i) cell.

    Undefined rows are omitted rather than written as zeros; the JSON codec
    is the lossless one.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    has_err = table.stderr_re is not None
    header = ["j", "i", "re_w", "im_w", "p_j"]
    if has_err:
        header += ["stderr_re", "stderr_im"]
    writer.writerow(header)
    for j in range(table.dim):
        if not table.defined[j]:
            continue
        for i in range(table.n_pointers):
            row = [j, i, repr(float(table.W[j, i].real)),
                   repr(float(table.W[j, i].imag)), repr(float(table.P[j]))]
            if has_err:
                row += [repr(float(table.stderr_re[j, i])),
                        repr(float(table.stderr_im[j, i]))]
            writer.writerow(row)
    return buf.getvalue()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name in cfg.__dataclass_fields__:
        value = getattr(cfg, name)
        if name in _ARRAY_FIELDS:
            out[name] = None if value is None else array_to_json(value)
        elif name == "phi":
            out[name] = value if isinstance(value, str) else array_to_json(value)
        else:
            out[name] = value
    return out


_NESTED_ALIASES = {
    "pointer": {"g": "pointer_g", "sigma_q": "pointer_sigma_q",
                "mean_q": "pointer_mean_q", "mean_p": "pointer_mean_p"},
    "noise": {"sigma_scale": "noise_sigma_scale", "readout_sigma_scale":
              "noise_sigma_scale", "offset": "noise_offset",
              "systematic_offset": "noise_offset"},
}


def config_from_dict(data: dict) -> ExperimentConfig:
    kwargs = dict(data)
    # Accept nested pointer/noise objects as aliases for the flat fields.
    for group, names in _NESTED_ALIASES.items():
        sub = kwargs.pop(group, None)
        if sub is None:
            continue
        for key, value in sub.items():
            if key == "n_pointers":
                continue  # derived from dim and scheme
            if key not in names:
                raise ValueError(f"unknown {group} config key: {key}")
            kwargs[names[key]] = value
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(kwargs) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in _ARRAY_FIELDS:
        if kwargs.get(name) is not None:
            kwargs[name] = array_from_json(kwargs[name])
    phi = kwargs.get("phi")
    if isinstance(phi, dict):
        kwargs["phi"] = array_from_json(phi)
    return ExperimentConfig(**kwargs)


def _complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _estimate_to_json(estimate) -> dict:
    if isinstance(estimate, StateVector):
        return {"kind": "state_vector", **array_to_json(estimate.amplitudes)}
    if isinstance(estimate, DensityEstimate):
        return {
            "kind": "density_estimate",
            "physical": array_to_json(estimate.physical.elements),
            "raw": array_to_json(estimate.raw),
            "hermiticity_defect": estimate.hermiticity_defect,
            "min_eig_raw": estimate.min_eig_raw,
        }
    if isinstance(estimate, ElementPair):
        return {
            "kind": "element_pair",
            "element_ba": _complex_to_json(estimate.element_ba),
            "element_ab": _complex_to_json(estimate.element_ab),
            "hermiticity_gap": estimate.hermiticity_gap,
        }
    if isinstance(estimate, complex):
        return {"kind": "element", **_complex_to_json(estimate)}
    raise TypeError(f"cannot serialize estimate of type {type(estimate).__name__}")


def _diagnostics(bundle: ResultBundle) -> dict:
    out = {"scheme": bundle.scheme}
    for key in ("consistency", "hermiticity_gap", "element_error"):
        if key in bundle.metrics:
            out[key] = float(bundle.metrics[key])
    est = bundle.estimate
    if isinstance(est, DensityEstimate):
        out["min_eig_raw"] = est.min_eig_raw
        out["hermiticity_gap"] = est.hermiticity_defect
    if bundle.kernel is not None:
        out["smallest_eig"] = bundle.kernel.smallest_eig
        out["kernel_dim"] = bundle.kernel.kernel_dim
    return out


def bundle_to_json(bundle: ResultBundle) -> dict:
    """Serialize a run.  Wall time is deliberately left out so that repeated
    seeded runs produce byte-identical files.  The table the scheme read, of
    any pointer count, goes under "table" in the ``table_to_json`` layout,
    with its trial count; partial tomography writes None."""
    table = bundle.table
    return {
        "scheme": bundle.scheme,
        "config": config_to_dict(bundle.config),
        "estimate": _estimate_to_json(bundle.estimate),
        "metrics": {k: float(v) for k, v in sorted(bundle.metrics.items())},
        "diagnostics": _diagnostics(bundle),
        "table": None if table is None else table_to_json(table),
    }


def demo_report_to_json(report: PhaseDemoReport) -> dict:
    return {
        "theta": report.theta,
        "g": report.g,
        "sigma_p": report.sigma_p,
        "shots": report.shots,
        "seed": report.seed,
        "weak_value": _complex_to_json(report.weak_value),
        "dq": report.dq,
        "dp_shift": report.dp_shift,
        "leading_order_dp": report.leading_order_dp,
        "post_prob": report.post_prob,
        "retained": report.retained,
        "theta_estimate": report.theta_estimate,
        "predicted_rel_error": report.predicted_rel_error,
        "low_signal_warning": report.low_signal_warning,
    }


def comparison_to_csv(rows) -> str:
    """CSV with one line per (scheme, shots) cell; skipped schemes carry the
    reason in the metric column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scheme", "shots", "metric", "median", "iqr", "discard_fraction"])
    for row in rows:
        if "skipped" in row:
            writer.writerow([row["scheme"], "", f"skipped: {row['skipped']}", "", "", ""])
        else:
            writer.writerow([
                row["scheme"], row["shots"], row["metric"],
                repr(row["median"]), repr(row["iqr"]), repr(row["discard_fraction"]),
            ])
    return buf.getvalue()


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def dump_path(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load_path(path):
    with open(path) as fh:
        return json.load(fh)
