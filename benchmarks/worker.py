"""One measured process: import lanebev, set up a workload, run frames, report.

run.py starts this script in a fresh interpreter for every measured
process:

    python3 worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                        "trace": ..., "block": ..., "workdir": ...}'

and reads the one JSON line it prints.  Frames run as a closed loop: frame
i + 1 starts when frame i has finished, with no worker threads.  The loop
runs for `seconds` of wall time and at least the workload's scored frames.
"""

import time

PROBE_ITERATIONS = 20_000  # about 1 ms of interpreted work on a 2-vCPU Xeon VM at its fastest


def probe_s() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(PROBE_ITERATIONS):
        acc += k * 0.5
    return time.perf_counter() - t0


START_PROBE_S = probe_s()
_t0 = time.perf_counter()
import lanebev  # noqa: E402  (timed: a fresh import is the CLI's cold start)

IMPORT_S = time.perf_counter() - _t0

import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import library  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


FRAME_BLOCK = 1_200_000  # frame ids per process block; a multiple of 4 rigs and 6 lane counts


def frame_index(block: int, j: int, scored_frames: int) -> int:
    """Frame id of the j-th frame of a process: the scored frames are the
    same in every process, the rest come from the process's own block, so
    the processes of a run time different frames."""
    return j if j < scored_frames else block * FRAME_BLOCK + j


def run_frames(wl, tracer, seconds: float, block: int = 0) -> dict:
    """Closed-loop frames for `seconds` of wall time and at least
    wl.scored_frames frames.  A frame that raises or fails its check counts
    as failed; the loop goes on.  The probe is timed before every frame and
    once after the last, outside the frame times.  Spans carry the frame's
    position j in this loop as their frame id."""
    frame_s, probes, failures, counts, scored, rigs = [], [], [], [], [], []
    start = time.perf_counter()
    j = 0
    while j < wl.scored_frames or time.perf_counter() - start < seconds:
        i = frame_index(block, j, wl.scored_frames)
        probes.append(probe_s())
        t0 = time.perf_counter()
        try:
            with tracer.frame(j):
                out = wl.frame(i)
        except Exception as exc:  # the benchmark counts it and keeps measuring
            frame_s.append(time.perf_counter() - t0)
            failures.append(f"frame {i}: raised {type(exc).__name__}: {exc}")
            if j < wl.scored_frames:
                counts.append({"raised": type(exc).__name__})
            j += 1
            continue
        frame_s.append(time.perf_counter() - t0)
        problems = wl.check(out)
        if problems:
            failures.append(f"frame {i}: " + "; ".join(problems))
        if j < wl.scored_frames:
            counts.append(wl.counts(out))
            scored.append(out)
        rigs.append(out.get("rig"))
        j += 1
    probes.append(probe_s())
    totals = wl.finish(scored) if len(scored) == wl.scored_frames else {}
    seen, repeats = set(), 0
    for rig in rigs:
        if rig is not None:
            repeats += rig in seen
            seen.add(rig)
    return {
        "frame_s": frame_s,
        "probe_s": probes,
        "failures": failures,
        "counts": counts,
        "totals": totals,
        "rig_repeats": repeats,
    }


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workdir = Path(cfg["workdir"])
    tracer = spans.Tracer() if cfg["trace"] else spans.NoTracer()
    api = library.library_api(tracer)
    wl = workloads.WORKLOADS[cfg["workload"]](api, cfg["seed"], workdir)
    # One untimed frame first: first-call costs and the first touch of
    # set-up memory are set-up, not frame time.
    with tracer.frame(spans.WARMUP_FRAME_ID):
        wl.frame(0)
    first_frame = time.monotonic()
    result = run_frames(wl, tracer, cfg["seconds"], cfg["block"])
    if cfg["trace"]:
        tracer.write(workdir / "spans.jsonl")
    result.update(
        import_s=IMPORT_S,
        start_probe_s=START_PROBE_S,
        first_frame_monotonic=first_frame,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
        lanebev_file=lanebev.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
