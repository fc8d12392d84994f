"""Spans around the benchmark's calls into lanebev, and what they add up to.

A traced run wraps every library function the workloads call (library.py),
so each call records one span: name ("module.function"), start, end,
parent span and frame id.  Spans stay in memory and are written out once,
when the process ends; run.py reads them back and summarizes them.  An
untraced run calls the library functions unwrapped, so tracing costs
nothing when it is off.  This module does not import lanebev.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter

MODULES = ("synth", "camera_geometry", "view_transform", "lane_grid", "losses", "postproc", "metrics", "data_io")

# Calls whose median duration is a per-layer metric ("<span name>_ms").
TIMED_CALLS = (
    "synth.generate_scene",
    "synth.render_ground_pattern",
    "camera_geometry.compute_homography",
    "camera_geometry.warp_image",
    "lane_grid.encode_lanes",
    "lane_grid.ideal_prediction",
    "losses.total_loss",
    "view_transform.build_ipm_sampling_map",
    "view_transform.apply_pyramid",
    "postproc.decode_grid",
    "postproc.fit_lanes",
    "metrics.evaluate",
    "metrics.evaluate_frames",
    "data_io.write_tensor",
    "data_io.read_tensor",
    "data_io.save_lanes",
    "data_io.load_lanes",
)

FRAME = "frame"  # name of the span that encloses one frame
RUN_FRAME_ID = -1  # frame id of spans outside the timed frames (set-up, run-level evaluation)
WARMUP_FRAME_ID = -2  # frame id of the untimed warm-up frame, left out of every summary


def span_name(fn) -> str:
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, frame]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.frame_id = RUN_FRAME_ID

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, self.frame_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def frame(self, frame_id: int):
        self.frame_id = frame_id
        try:
            with self.span(FRAME):
                yield
        finally:
            self.frame_id = RUN_FRAME_ID

    def wrap(self, fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, frame in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "frame": frame}) + "\n")


class NoTracer:
    """Stand-in for Tracer when tracing is off: no spans, no wrappers."""

    @staticmethod
    def frame(frame_id: int):
        return contextlib.nullcontext()

    @staticmethod
    def wrap(fn):
        return fn


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def summarize(span_files, speed_factors) -> dict:
    """Per-call medians and per-module self-time shares over traced processes.

    `speed_factors[k]` maps the frame ids of file k to the factor that
    scales its times to the reference machine speed (run.speed_factors).
    Returns {"call_ms": {span name: median ms}, "self_share": {module:
    share}}.  A span's self time is its duration minus the time its child
    spans cover; a module's share is its self time inside frames over the
    total frame time.
    """
    durations: dict[str, list[float]] = {}
    self_time = dict.fromkeys(MODULES, 0.0)
    frame_time = 0.0
    for path, factors in zip(span_files, speed_factors):
        records = read_spans(path)
        child_time = [0.0] * len(records)
        for s in records:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s, covered in zip(records, child_time):
            if s["frame"] == WARMUP_FRAME_ID:
                continue
            factor = factors[s["frame"]]
            duration = (s["end"] - s["start"]) * factor
            if s["name"] == FRAME:
                frame_time += duration
                continue
            durations.setdefault(s["name"], []).append(duration)
            module = s["name"].partition(".")[0]
            if s["frame"] != RUN_FRAME_ID and module in self_time:
                self_time[module] += duration - covered * factor
    return {
        "call_ms": {name: statistics.median(d) * 1e3 for name, d in durations.items()},
        "self_share": {m: (t / frame_time if frame_time else 0.0) for m, t in self_time.items()},
    }
