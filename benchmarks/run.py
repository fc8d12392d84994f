"""The lanebev benchmark: per-frame pipeline workloads in fresh processes.

Run from the repository root:

    python3 benchmarks/run.py --workload oracle_frames --seed 1 --seconds 20 --trace 0

Workloads (inputs drawn from --seed; see workloads.py):

  oracle_frames  seeded scene -> encode -> ideal prediction (D = 8) ->
                 stored tensor -> decode -> fit -> stored lanes -> evaluate,
                 then evaluate_frames over the scored frames; must be exact
  noisy_frames   the same path on noisy predictions (loss first), many
                 clusters and false positives
  fleet_views    fleet rig render -> homography to the fleet's virtual
                 camera -> warp -> feature pyramid (C = 64) -> IPM maps

A run starts PROCESSES fresh interpreters one after another (two per
slot with --trace 1: one untraced, one traced), each running a closed
loop of frames for an equal share of --seconds, with one BLAS thread.
They all start with the same scored frames, then time frames of their own
(worker.frame_index).  Frame times are pooled over the untraced processes
and scaled to a reference machine speed (see speed_factors).  Set-up
time (process start, `import lanebev`, the workload's set-up and one
warm-up frame, scaled the same way) and peak memory are medians over the
processes.  The CLI decode of a stored oracle frame is timed as its own
process.

Every frame is checked (workloads.py); a frame that fails its check or
raises is counted in `failed`.  The per-frame counts of the first scored
frames and the run-level F-Score must be bit-identical in every process,
or the run is not `correct`.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from the traced processes' spans (written to
.bench_work/spans/), with the tracing overhead measured against the
untraced processes of the same run.  The last line of the output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOADS = ("oracle_frames", "noisy_frames", "fleet_views")
CLI_DECODE_WORKLOAD = "oracle_frames"
PROCESSES = 3
CLI_DECODE_RUNS = 3
DEADLINE_S = 170  # a run gives up, without a result, once this much time has passed
REFERENCE_PROBE_S = 1e-3


class BenchError(Exception):
    """The benchmark could not measure: nothing is reported."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: every frame then runs on one CPU, the one the speed
    # probe times, and the dense products do not wait on the second vCPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(cmd, env, deadline):
    """Run cmd to completion; kill it, and wait for it, at the monotonic time `deadline`."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish before the run's deadline") from exc


def run_worker(workload, seed, seconds, traced, block, workdir, env, deadline) -> dict:
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced, "block": block, "workdir": str(workdir)}
    spawned = time.monotonic()
    proc = run_process([sys.executable, str(WORKER), json.dumps(cfg)], env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["lanebev_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"worker imported lanebev from {result['lanebev_file']}, not from {SRC}")
    result["setup_s"] = result["first_frame_monotonic"] - spawned
    result["traced"] = traced
    return result


def cli_decode(workdir, env, deadline) -> tuple[float, int]:
    """Median wall time of `python -m lanebev.cli decode` on the stored frame 0,
    and how many of the runs did not reproduce the in-process lanes file."""
    expected = (workdir / "frame0.json").read_bytes()
    times, mismatches = [], 0
    for k in range(CLI_DECODE_RUNS):
        out = workdir / f"cli{k}.json"
        cmd = [sys.executable, "-m", "lanebev.cli", "decode", "--pred", str(workdir / "frame0.bldt"), "--out", str(out)]
        start = time.monotonic()
        proc = run_process(cmd, env, deadline)
        times.append(time.monotonic() - start)
        if proc.returncode != 0 or not out.is_file() or out.read_bytes() != expected:
            mismatches += 1
    return statistics.median(times), mismatches


def counts_repeat(runs) -> bool:
    """True when every process gave bit-identical scored-frame counts and run totals."""
    return all((r["counts"], r["totals"]) == (runs[0]["counts"], runs[0]["totals"]) for r in runs)


def mean_count(counts, key) -> float:
    return sum(c.get(key, 0) for c in counts) / len(counts)


def speed_factors(run) -> dict[int, float]:
    """Per frame id, REFERENCE_PROBE_S over the probe time around that frame
    (mean of the probes just before and just after it); frame id -1, the
    process's set-up, uses the probes at its start and before its first frame.

    This machine's speed drifts by up to 50% for seconds to minutes at a
    time, by the same share for the frames as for the probe loop
    (worker.probe_s) timed between them.  A time multiplied by its factor
    is the time the same work takes at the reference speed, the speed at
    which the probe loop takes REFERENCE_PROBE_S.
    """
    probes = run["probe_s"]
    factors = {i: 2.0 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1]) for i in range(len(run["frame_s"]))}
    factors[spans.RUN_FRAME_ID] = 2.0 * REFERENCE_PROBE_S / (run["start_probe_s"] + probes[0])
    return factors


def adjusted_frames(runs) -> list[float]:
    """Frame times of `runs` at the reference speed."""
    out = []
    for r in runs:
        factors = speed_factors(r)
        out.extend(t * factors[i] for i, t in enumerate(r["frame_s"]))
    return out


def frame_stats(frames) -> dict:
    return {
        "frames_per_s": (len(frames) / sum(frames), "1/s"),
        "frame_p50_ms": (statistics.median(frames) * 1e3, "ms"),
        "frame_p90_ms": (statistics.quantiles(frames, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(runs) -> dict:
    untraced = [r for r in runs if not r["traced"]]
    return {
        **frame_stats(adjusted_frames(untraced)),
        "setup_s": (statistics.median(r["setup_s"] * speed_factors(r)[spans.RUN_FRAME_ID] for r in untraced), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def unadjusted(runs) -> dict:
    untraced = [r for r in runs if not r["traced"]]
    return {
        **frame_stats([t for r in untraced for t in r["frame_s"]]),
        "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
    }


def per_layer(runs, cli_s, span_files) -> dict:
    summary = spans.summarize(span_files, [speed_factors(r) for r in runs if r["traced"]])
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    counts, totals = runs[0]["counts"], runs[0]["totals"]
    metrics = {f"{name}_ms": (summary["call_ms"].get(name, 0.0), "ms") for name in spans.TIMED_CALLS}
    kept = sum(c.get("points_kept", 0) for c in counts)
    confident = sum(c.get("confident_cells", 0) for c in counts)
    traced_frames = sum(len(r["frame_s"]) for r in traced)
    import_s = statistics.median(r["import_s"] for r in runs)

    def fps(group):
        frames = adjusted_frames(group)
        return len(frames) / sum(frames)

    metrics.update(
        {
            "postproc.confident_cells": (mean_count(counts, "confident_cells"), "count"),
            "postproc.instances_kept": (mean_count(counts, "instances_kept"), "count"),
            "postproc.points_kept_ratio": (kept / confident if confident else 0.0, "ratio"),
            "lane_grid.points_deduped": (mean_count(counts, "points_deduped"), "count"),
            "metrics.pairs_costed": (mean_count(counts, "pairs_costed"), "count"),
            "metrics.precision": (totals.get("precision", 0.0), "ratio"),
            "data_io.bytes_written": (mean_count(counts, "bytes_written"), "B"),
            "view_transform.map_bytes": (totals.get("map_bytes", 0), "B"),
            "view_transform.map_nnz": (totals.get("map_nnz", 0), "count"),
            "view_transform.map_density": (totals.get("map_density", 0.0), "ratio"),
            "view_transform.apply_flops": (totals.get("apply_flops", 0), "flop"),
            "camera_geometry.rig_repeat_share": (sum(r["rig_repeats"] for r in traced) / traced_frames, "ratio"),
            "cli.import_s": (import_s, "s"),
            "cli.import_share": (import_s / cli_s if cli_s else 0.0, "ratio"),
            "trace.overhead_share": (1.0 - fps(traced) / fps(untraced), "ratio"),
        }
    )
    for module, share in summary["self_share"].items():
        metrics[f"{module}.self_share"] = (share, "ratio")
    return metrics


def measure(args) -> tuple[dict, int, int, bool]:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    # (block, traced) per process; a traced process times the same frames
    # as the untraced one before it
    plan = [(block, traced) for block in range(PROCESSES) for traced in ((False, True) if args.trace else (False,))]
    share = args.seconds / len(plan)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        runs, span_files = [], []
        for k, (block, traced) in enumerate(plan):
            workdir = Path(tmp) / f"p{k}"
            workdir.mkdir()
            runs.append(run_worker(args.workload, args.seed, share, traced, block, workdir, env, deadline))
            if traced:
                spans_dir = WORK_ROOT / "spans"
                spans_dir.mkdir(exist_ok=True)
                span_files.append(spans_dir / f"{args.workload}-seed{args.seed}-p{k}.jsonl")
                shutil.move(workdir / "spans.jsonl", span_files[-1])
        cli_s, cli_mismatches = None, 0
        if args.workload == CLI_DECODE_WORKLOAD:
            cli_s, cli_mismatches = cli_decode(workdir, env, deadline)

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["frame_s"]) for r in runs) + (CLI_DECODE_RUNS if cli_s is not None else 0)
    failed = len(failures) + cli_mismatches
    for message in failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    if cli_mismatches:
        print(f"failed: {cli_mismatches} CLI decode(s) differ from the in-process decode", file=sys.stderr)

    repeat = counts_repeat(runs)
    if not repeat:
        print("failed: exact counts differ between processes of the same seed", file=sys.stderr)
    correct = failed == 0 and repeat and bool(runs[0]["totals"])

    sizes = "/".join(str(len(r["frame_s"])) for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  {len(plan)} processes x {share:.2f} s  frames {sizes}")
    print(f"environment {json.dumps(runs[0]['environment'])}")
    e2e = end_to_end(runs)
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}")
    n_frames = sum(len(r["frame_s"]) for r in runs if not r["traced"])
    print(f"  ({n_frames} frames, {n_frames - int(0.9 * n_frames)} beyond p90; times at the reference speed)")
    raw = ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in unadjusted(runs).items())
    print(f"  (as timed, without the speed adjustment: {raw})")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    if "f_score" in runs[0]["totals"]:
        print(f"f_score = {runs[0]['totals']['f_score']:.6g} (micro, over the first {len(runs[0]['counts'])} frames)")
    if cli_s is not None:
        print(f"cli_decode_s = {cli_s:.6g} s (median of {CLI_DECODE_RUNS}; {cli_mismatches} differ from in-process)")
    if args.trace:
        metrics = per_layer(runs, cli_s, span_files)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        metrics = e2e
    return metrics, attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lanebev" / "__init__.py").is_file():
        print(f"error: no lanebev sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, correct = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
