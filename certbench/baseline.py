"""Run the benchmark over several seeds and summarise each workload.

    python3 certbench/baseline.py --seeds 10 --out certbench/baseline.json

For every workload: untraced runs with seeds 1..N, then one traced run
with seed 1.  For each end-to-end metric it prints the median over the
seeds and the spread, the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json.  With ``--out``
it writes the summary, the traced per-layer numbers and the
environment block as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": list(range(1, args.seeds + 1)), "traced_seed": 1, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in summary["seeds"]:
            result, summary["env"] = run(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} items failed")
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        traced, _ = run(workload, summary["traced_seed"], seconds, 1)
        entry = {"end_to_end": {}, "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
            print(f"  {workload} {name:<14} median {statistics.median(values):10.5g}  "
                  f"spread {spread(values):.4f}  bound {bound}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
