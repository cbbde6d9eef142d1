#!/usr/bin/env python3
"""Benchmark of weaktomo, run from the root of a checkout.

    python3 perfbench/run.py --workload exact_large_d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in a fresh process
    python3 perfbench/run.py --smoke            # reference self-test and tiny workloads

A run imports weaktomo from the checkout's ``src``, sets up (import, inputs,
one untimed warm-up operation), then runs the workload's fixed number of
operations one after another and checks each one outside the timed region.
--seconds is accepted, as every benchmark command takes it, but the run
length is that fixed number of operations, not a duration.  With --trace 0
it reports the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced pass.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  perfbench/README.md defines
every metric.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))


def _pin_threads() -> None:
    """One BLAS thread; weaktomo's own worker cap no higher than nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        wanted = int(os.environ.get("WEAKTOMO_THREADS", ""))
    except ValueError:
        wanted = NPROC
    os.environ["WEAKTOMO_THREADS"] = str(min(max(wanted, 1), NPROC))


_pin_threads()  # before numpy is first imported, here or in a child process

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WARMUP_INDEX = 1_000_000


def load_program():
    """Import weaktomo from this checkout's src, then the workloads; None
    when the checkout holds no weaktomo package."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import weaktomo
    except ImportError:
        return None
    if Path(weaktomo.__file__).resolve().parent != (src / "weaktomo").resolve():
        return None
    import workloads
    return workloads


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "WEAKTOMO_THREADS": os.environ["WEAKTOMO_THREADS"]}


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least 10 of n samples above it,
    or None when n < 40 and no such percentile is a tail."""
    return math.floor(100 * (1 - 10 / n)) if n >= 40 else None


def set_up(name: str, seed: int, smoke: bool):
    """Import, build the warm-up inputs and run one warm-up operation.

    Returns the workload and the seconds this took, counted from before the
    first import of numpy or weaktomo.
    """
    t0 = time.perf_counter()
    wl = load_program()
    if wl is None:
        print("weaktomo is not importable from src/ of this checkout", file=sys.stderr)
        sys.exit(2)
    OUT.mkdir(exist_ok=True)
    work = wl.WORKLOADS[name](seed, smoke=smoke, scratch=str(OUT))
    x = work.inputs(WARMUP_INDEX)
    work.prepare(x)
    try:
        work.op(x)
    finally:
        work.cleanup(x)
    return work, time.perf_counter() - t0


def setup_helpers(name: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh helper processes, run one at a time."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--setup-only"], capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup helper failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_ops(work, n: int, trace: bool):
    """Run n operations; return per-op seconds (or traced counters), failures
    and check errors.  The checks stay outside the timed region."""
    from tracing import Tracer
    tracer = Tracer() if trace else None
    times, per_op, errors, failed = [], [], [], 0
    for index in range(n):
        x = work.inputs(index)
        work.prepare(x)
        try:
            gc.collect()
            try:
                if trace:
                    since = len(tracer.spans)
                    out, acc = work.traced_op(tracer, x)
                    per_op.append((tracer.totals(since), acc))
                else:
                    start = time.perf_counter()
                    out = work.op(x)
                    times.append(time.perf_counter() - start)
            except Exception:
                failed += 1
                print(f"operation {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            try:
                errors += [f"operation {index}: {e}" for e in work.check(x, out)]
            except Exception:
                errors.append(f"operation {index}: the check raised\n{traceback.format_exc()}")
            del out
        finally:
            work.cleanup(x)
    return times, per_op, tracer, failed, errors


def e2e_metrics(times: list[float], setup: list[float], peak_mb: float) -> dict:
    import numpy as np
    p = tail_percentile(len(times))
    return {"setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(times),
            "op_s.tail": float(np.percentile(times, 75 if p is None else p)),
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": peak_mb}


def layer_metrics(wl, per_op: list[tuple[dict, dict]]) -> dict:
    """Median over traced operations of each layer's time and counters."""
    out = {f"{span}_s": statistics.median(t.get(span, 0.0) for t, _ in per_op)
           for span in wl.LAYER_SPANS}
    out.update({name: statistics.median(acc[name] for _, acc in per_op)
                for name in wl.COUNTERS})
    # Raw estimates with a negative eigenvalue: the count over the whole pass.
    out["recon.negative_raw"] = sum(acc["recon.negative_raw"] for _, acc in per_op)
    return out


def run_workload(args) -> int:
    work, setup = set_up(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    import workloads as wl
    n = work.n_ops(bool(args.trace))
    times, per_op, tracer, failed, errors = run_ops(work, n, bool(args.trace))
    env = environment()
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(wl, per_op) if per_op else {}
        # The traced operation's root span, for the tracing overhead.
        extra = {"traced_op_s": [t["op"] for t, _ in per_op]}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup] + ([] if args.smoke else
                            setup_helpers(args.workload, args.seed, work.setup_processes - 1))
        values = e2e_metrics(times, setups, peak_mb) if times else {}
        extra = {"op_times": times, "setup_times": setups,
                 "tail_percentile": tail_percentile(len(times))}
    result = {"correct": not errors, "attempted": n, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "env": env, **extra, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; a table, then one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<26} {entry['value']:<14.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def smoke(args) -> int:
    """Reference self-test, then every workload at tiny sizes."""
    import reference
    problems = reference.selftest()
    for line in problems:
        print(f"reference self-test: {line}", file=sys.stderr)
    print(f"reference self-test: {'ok' if not problems else 'FAILED'}")
    code = run_all(args)
    return code or (1 if problems else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted and unused: a run holds a fixed number of operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reference self-test and tiny sizes, a few seconds")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke and args.workload == "all":
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
