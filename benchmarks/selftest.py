"""Self-test of the benchmark's checks: corrupted output must count as failed.

    python3 benchmarks/selftest.py

For each workload one library call is swapped for a version whose output
is deliberately wrong, and every frame the benchmark's own loop
(worker.run_frames) runs must then be counted as failed; with the real
library none may fail.  It also checks that a frame that raises is
counted, that a CLI decode which differs from the in-process decode is
counted, that differing exact counts make a run incorrect, and that a run
reports exactly the metrics BENCHMARK.json lists.  Exits 1 on the first
check that does not hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import library  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from lanebev import Lane3D  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def shifted_lanes(load_lanes):
    """Stored lanes read back 0.5 m to the left: F stays 1, lateral error does not."""
    return lambda path: [Lane3D(points=lane.points + [0.0, 0.5, 0.0], id=lane.id) for lane in load_lanes(path)]


def nan_loss(total_loss):
    return lambda *args, **kwargs: float("nan")


def brighter_warp(warp_image):
    return lambda *args, **kwargs: warp_image(*args, **kwargs) + 0.05


def raising(fn):
    def broken(*args, **kwargs):
        raise RuntimeError("deliberate failure")

    return broken


CORRUPTIONS = [
    ("oracle_frames", "load_lanes", shifted_lanes),
    ("oracle_frames", "decode_grid", raising),
    ("noisy_frames", "total_loss", nan_loss),
    ("fleet_views", "warp_image", brighter_warp),
]


def run_scored_frames(workload: str, workdir: Path, corrupt=None) -> dict:
    api = library.library_api(spans.NoTracer())
    if corrupt is not None:
        name, make = corrupt
        setattr(api, name, make(getattr(api, name)))
    wl = WORKLOADS[workload](api, 1, workdir)
    return worker.run_frames(wl, spans.NoTracer(), seconds=0.0)


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        sys.exit(1)


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for workload in WORKLOADS:
            workdir = Path(tmp) / workload
            workdir.mkdir()
            clean = run_scored_frames(workload, workdir)
            expect(not clean["failures"], f"{workload}: {len(clean['frame_s'])} clean frames pass")
        for workload, name, make in CORRUPTIONS:
            workdir = Path(tmp) / f"{workload}-{name}"
            workdir.mkdir()
            bad = run_scored_frames(workload, workdir, (name, make))
            n = len(bad["frame_s"])
            expect(len(bad["failures"]) == n, f"{workload}: corrupted {name} fails {len(bad['failures'])} of {n} frames")

        oracle_dir = Path(tmp) / "oracle_frames"
        env = run.child_env()
        deadline = time.monotonic() + run.DEADLINE_S
        _, mismatches = run.cli_decode(oracle_dir, env, deadline)
        expect(mismatches == 0, "CLI decode reproduces the in-process lanes file")
        lanes_file = oracle_dir / "frame0.json"
        lanes_file.write_text(lanes_file.read_text().replace("1", "2", 1))
        _, mismatches = run.cli_decode(oracle_dir, env, deadline)
        expect(mismatches == run.CLI_DECODE_RUNS, "a CLI decode that differs from the in-process one is counted")

    same = {"counts": [{"confident_cells": 700}], "totals": {"f_score": 1.0}}
    other = {"counts": [{"confident_cells": 701}], "totals": {"f_score": 1.0}}
    expect(run.counts_repeat([same, dict(same)]), "identical exact counts repeat")
    expect(not run.counts_repeat([same, other]), "differing exact counts do not")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(Path(run.__file__)), "--workload", "oracle_frames", "--seed", "1", "--seconds", "2", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=dict(os.environ))
        expect(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(reported == listed, f"--trace {trace} reports exactly the {key} metrics of BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
