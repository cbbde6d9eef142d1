"""Command line interface.

Subcommands:
  gen          write a random state, a basis, or a starter config
  simulate     produce the data a config's scheme reads: exact table JSON or
               sampled records CSV
  reconstruct  run a reconstruction scheme on simulated or loaded data
  verify       check invariants of a state/basis/table/config file
  demo-phase   small-phase detection demo
  compare      score schemes against each other over a shot grid

Exit codes: 0 on success, 1 on domain errors (a JSON object with "error" and
"message" fields goes to stderr), 2 on usage errors.  Arithmetic that leaves
the float range is a domain error, never a warning and a non-finite result.
"""

import argparse
import json
import sys

import numpy as np

from . import serialize
from .errors import PreconditionError, WeakTomoError
from .harness import (
    SCHEMES,
    ExperimentConfig,
    compare_schemes,
    demo_phase_detection,
    run_reconstruction,
    simulate,
)
from .pointer import RecordStream, estimate_weak_values
from .qcore import (
    DensityMatrix,
    OrthonormalBasis,
    StateVector,
    fourier_basis,
    random_density_matrix,
    random_pure_state,
)
from .weakval import check_sum_rules

_STATE_SCHEMES = tuple(name for name, scheme in SCHEMES.items()
                       if scheme.measured is not None)


class _UsageError(Exception):
    """Missing or invalid configuration: exit code 2, not a domain error."""


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _apply_set(data: dict, values) -> None:
    for item in values or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        head, dot, tail = key.partition(".")
        if dot:  # dotted keys update nested objects, e.g. pointer.g=0.1
            data.setdefault(head, {})[tail] = value
        else:
            data[key] = value


def _build_config(args, default_scheme: str | None = None) -> ExperimentConfig:
    try:
        data = serialize.load_path(args.config) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {args.config}: {exc}") from exc
    _apply_set(data, getattr(args, "set", None))
    if default_scheme and "scheme" not in data:
        data["scheme"] = default_scheme
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "shots", None) is not None:
        data["shots"] = args.shots
    if getattr(args, "exact", False):
        data["data_mode"] = "exact"
    if getattr(args, "sampled", False):
        data["data_mode"] = "sampled"
    try:
        return serialize.config_from_dict(data)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise _UsageError(f"invalid config: {exc}") from exc


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.kind == "pure":
        payload = serialize.array_to_json(random_pure_state(args.dim, args.seed).amplitudes)
    elif args.kind == "mixed":
        rank = args.rank if args.rank else args.dim
        payload = serialize.array_to_json(
            random_density_matrix(args.dim, rank, args.seed).elements)
    elif args.kind == "basis":
        payload = serialize.array_to_json(fourier_basis(args.dim).vectors)
    else:
        # Pin state_seed so a later --seed override only moves the sampling
        # stream, not the true state the data came from.
        cfg = ExperimentConfig(dim=args.dim, scheme="all_data", seed=args.seed,
                               state_seed=args.seed)
        payload = serialize.config_to_dict(cfg)
    _emit(serialize.dumps(payload), args)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _build_config(args, default_scheme="all_data")
    data = simulate(cfg)
    if cfg.data_mode == "exact":
        _emit(serialize.dumps(serialize.table_to_json(data)), args)
    else:
        _emit(data.to_csv(), args)
    return 0


def _load_data(args, cfg):
    """The weak-value table from --table or --records, or None."""
    if args.table:
        return serialize.table_from_json(serialize.load_path(args.table))
    if args.records:
        # newline="": the reader, not the file layer, decides what ends a line.
        with open(args.records, newline="") as fh:
            records = RecordStream.from_csv(fh.read())
        # The records' own pointer count, so the scheme's check names a
        # mismatch; pointers past d are left for the estimator to reject by row.
        n_pointers = (int(np.clip(records.pointer.max() + 1, 1, cfg.dim))
                      if records.n_trials else cfg.dim)
        return estimate_weak_values(records, cfg.pointer_config(n_pointers), cfg.dim)
    return None


def _cmd_reconstruct(args) -> int:
    cfg = _build_config(args)
    bundle = run_reconstruction(cfg, table=_load_data(args, cfg))
    if not args.quiet:
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(bundle.metrics.items()))
        print(f"{bundle.scheme}: {parts}")
    payload = serialize.dumps(serialize.bundle_to_json(bundle))
    if args.out:
        _emit(payload, args)
    elif args.quiet:
        sys.stdout.write(payload)
    return 0


def _verify_matrix(arr: np.ndarray) -> dict:
    herm = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    trace = complex(np.trace(arr))
    if herm <= 1e-10 and abs(trace - 1.0) <= 1e-8:
        rho = DensityMatrix(arr)
        return {"kind": "density_matrix", "dim": rho.dim,
                "hermiticity_dev": herm,
                "trace_dev": abs(trace - 1.0),
                "min_eigenvalue": float(np.linalg.eigvalsh(rho.elements).min())}
    gram_dev = float(np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0]))))
    if gram_dev <= 1e-10:
        basis = OrthonormalBasis(arr)
        return {"kind": "orthonormal_basis", "dim": basis.dim, "gram_dev": gram_dev}
    raise PreconditionError("matrix is neither a density matrix (hermitian, "
                            "unit trace) nor an orthonormal basis")


def _cmd_verify(args) -> int:
    payload = serialize.load_path(args.file)
    if "W_re" in payload:
        table = serialize.table_from_json(payload)
        report = check_sum_rules(table)
        ok = report.within(args.tol)
        out = {"kind": "weak_value_table", "dim": table.dim,
               "row_sum_dev": report.row_sum_dev, "imag_dev": report.imag_dev,
               "tol": args.tol, "ok": ok}
        print(serialize.dumps(out), end="")
        if not ok:
            print(json.dumps({"error": "sum-rule-violation",
                              "message": f"sum-rule deviation exceeds {args.tol}"}),
                  file=sys.stderr)
            return 1
        return 0
    if "scheme" in payload:
        cfg = serialize.config_from_dict(payload)
        print(serialize.dumps({"kind": "config", "dim": cfg.dim,
                               "scheme": cfg.scheme, "ok": True}), end="")
        return 0
    if "re" in payload:
        arr = serialize.array_from_json(payload)
        if arr.ndim == 1:
            state = StateVector(arr)
            out = {"kind": "state_vector", "dim": state.dim,
                   "norm_dev": abs(float(np.linalg.norm(arr)) - 1.0), "ok": True}
        else:
            out = {**_verify_matrix(arr), "ok": True}
        print(serialize.dumps(out), end="")
        return 0
    raise PreconditionError("unrecognized payload; expected a state, basis, "
                            "table, or config file")


def _cmd_demo_phase(args) -> int:
    shots = 0 if args.exact else args.shots
    report = demo_phase_detection(args.theta, g=args.g, sigma_p=args.dp,
                                  shots=shots, seed=args.seed)
    if not args.quiet:
        w = report.weak_value
        print(f"weak value      {_fmt(w.real)}{w.imag:+.6g}i")
        print(f"Im W            {_fmt(w.imag)}")
        print(f"dq              {_fmt(report.dq)}")
        print(f"dp              {_fmt(report.dp_shift)}   "
              f"(leading order {_fmt(report.leading_order_dp)})")
        print(f"post-selection  {_fmt(report.post_prob)}")
        if report.shots:
            est = report.theta_estimate
            print(f"retained        {report.retained} of {report.shots}")
            print(f"theta estimate  {'n/a' if est is None else _fmt(est)} "
                  f"(true {_fmt(report.theta)})")
            print(f"predicted rel. error {_fmt(report.predicted_rel_error)}")
            if report.low_signal_warning:
                print("warning: shot budget too small for this theta")
    if args.out:
        _emit(serialize.dumps(serialize.demo_report_to_json(report)), args)
    return 0


def _cmd_compare(args) -> int:
    shot_grid = [int(s) for s in args.shots_grid.split(",") if s.strip()]
    if args.sampled and args.shots is None and shot_grid:
        # the grid overrides the shot count per cell; the base config only
        # needs a positive value to validate
        args.shots = shot_grid[0]
    cfg = _build_config(args, default_scheme="all_data")
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    rows = compare_schemes(cfg, schemes, shot_grid, n_seeds=args.seeds)
    csv_text = serialize.comparison_to_csv(rows)
    if not args.quiet:
        for row in rows:
            if "skipped" in row:
                print(f"{row['scheme']:>18}  skipped ({row['skipped']})")
            else:
                print(f"{row['scheme']:>18}  shots={row['shots']:<9} "
                      f"median={_fmt(row['median'])}  iqr={_fmt(row['iqr'])}  "
                      f"discard={_fmt(row['discard_fraction'])}")
    if args.out:
        _emit(csv_text, args)
    elif args.quiet:
        sys.stdout.write(csv_text)
    return 0


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (repeatable; value is JSON "
                            "when parseable, else a string)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true",
                          help="closed-form weak values, no sampling")
        mode.add_argument("--sampled", action="store_true",
                          help="estimate from sampled shots (simulate writes their records)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress progress text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktomo",
        description="Quantum state tomography from weak-measurement data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random state, a basis, or a config")
    p.add_argument("--kind", choices=("pure", "mixed", "basis", "config"),
                   default="pure")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, default=0, help="rank for --kind mixed")
    _add_common(p, config=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("simulate", help="produce weak-measurement data")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a state from data")
    _add_common(p)
    p.add_argument("--table", help="weak-value table JSON produced by simulate --exact")
    p.add_argument("--records", help="records CSV produced by simulate --sampled")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("verify", help="check invariants of a saved payload")
    p.add_argument("file", help="state, basis, table, or config JSON")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="sum-rule tolerance for tables")
    p.set_defaults(func=_cmd_verify, out=None, quiet=False)

    p = sub.add_parser("demo-phase", help="small-phase detection demo")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--g", type=float, default=0.01)
    p.add_argument("--dp", type=float, default=0.5,
                   help="pointer momentum spread")
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="closed-form report only, no sampling")
    _add_common(p, config=False)
    p.set_defaults(func=_cmd_demo_phase)

    p = sub.add_parser("compare", help="score schemes over a shot grid")
    _add_common(p)
    p.add_argument("--schemes", default=",".join(_STATE_SCHEMES))
    p.add_argument("--shots-grid", default="10000", metavar="N,N,...",
                   help="comma-separated shot counts")
    p.add_argument("--seeds", type=int, default=20,
                   help="independent seeds per cell")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WeakTomoError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "parse-error", "message": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(json.dumps({"error": "invalid-value", "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io-error", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
