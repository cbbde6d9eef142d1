#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly and summarise.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads exact_large_d

Each run is a fresh ``run.py`` process with its own seed (set k, run i gets
seed first_seed + k * runs + i).  For every end-to-end metric the command
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the minimum and maximum, and the spread: the interquartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  With
two sets it also prints how far the second median moved, in the metric's
worse direction, as a share of the first.  The raw results go to
.perfbench_out/steady-<unix time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    record = {"args": vars(args), "results": {}}
    failed_shares = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                result = run_once(workload, seed)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                runs.append({"seed": seed, **result})
            sets.append(runs)
        record["results"][workload] = sets
        failed_shares[workload] = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                                   for runs in sets]
        print(f"\n{workload}: {args.sets} x {args.runs} runs; "
              f"failed share per set {failed_shares[workload]}; attempted per run "
              f"{sorted({r['attempted'] for runs in sets for r in runs})}")
        print(f"  {'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'spread':>7} {'bound':>6}"
              + ("  shift" if args.sets == 2 else ""))
        for name, meta in metrics.items():
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            s = stats[0]
            line = (f"  {name:<12} {meta['unit']:<5} {s['median']:>10.5g} {s['q1']:>10.5g} "
                    f"{s['q3']:>10.5g} {s['min']:>10.5g} {s['max']:>10.5g} "
                    f"{s['spread']:>7.3f} {meta['bound']:>6.3f}")
            if args.sets == 2:
                sign = 1 if meta["better"] == "lower" else -1
                shift = sign * (stats[1]["median"] - s["median"]) / s["median"]
                line += f"  {shift:+.3f} (set 2 spread {stats[1]['spread']:.3f})"
            print(line)
    OUTDIR = ROOT / ".perfbench_out"
    OUTDIR.mkdir(exist_ok=True)
    path = OUTDIR / f"steady-{int(time.time())}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
