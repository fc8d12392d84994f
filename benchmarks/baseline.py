"""Repeat benchmark runs over seeds and record each metric's median and spread.

    python3 benchmarks/baseline.py --seeds 1-10 --seconds 30 --trace 0 \\
        --out benchmarks/results/baseline_seeds1-10.json

Each run is `run.py` in its own process, workloads interleaved seed by
seed.  For every workload and metric the file holds the values in run
order, their median and quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
Each run also keeps the environment and the lines run.py prints but does
not put in its JSON (f_score, cli_decode_s, failed_frac, times as timed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["printed"] = {}
    for line in lines[:-1]:
        if line.startswith("environment "):
            result["environment"] = json.loads(line.partition(" ")[2])
        elif line.startswith("workload "):
            result["printed"]["run"] = line
        elif line.startswith("  (as timed"):
            result["printed"]["as_timed"] = line.strip()
        elif " = " in line and not line.startswith(" "):
            name, _, value = line.partition(" = ")
            if name not in result["metrics"]:
                result["printed"][name] = value
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=seed_range, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append({"seed": seed, **result})
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload, results in runs.items():
        names = results[0]["metrics"]
        summary = {}
        if len(results) > 1:
            summary = {name: summarize([r["metrics"][name]["value"] for r in results]) for name in names}
        report["workloads"][workload] = {"summary": summary, "runs": results}
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.5g}  spread {s['spread']:.4f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
