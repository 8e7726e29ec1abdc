"""Run workloads with several seeds and summarise each metric.

    python3 bench/repeat.py [--runs 10] [--first-seed 1] [--trace 0|1]
                            [--workload NAME ...] [--out FILE]

Runs `bench/run.py` once per seed and workload, one process after another,
for BENCHMARK.json's `run_seconds`, then prints for every metric the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
`--out` writes the same summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {}
    for name in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = declared["command"] + [
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(declared["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            values = " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            )
            print(f"{name} seed {seed}: attempted={result['attempted']} {values}")
            results.append(result)
        metrics = {}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = dict(summarise(values), unit=first["unit"])
        summary[name] = {
            "runs": args.runs,
            "attempted": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for metric, s in metrics.items():
            print(
                f"{name:14s} {metric:30s} median {s['median']:<12.6g} "
                f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                f"spread {s['spread']:.3f} {s['unit']}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
