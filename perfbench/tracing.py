"""In-memory span tracer for the benchmark's traced run.

The tracer wraps velofusion's public functions from outside the package: for
every target it replaces the function object wherever a velofusion module
holds it (the defining module, modules that imported it by name, and the
package's re-exports), so calls across module boundaries and calls inside
the defining module are both recorded. Each call becomes one span with its
name, start, end, parent span and frame-pair id, and the target's count hook
adds the work counts the per-layer metrics need. `installed()` puts every
original back on exit, whatever happened inside.

A target whose module or function no longer exists is skipped: its spans are
absent and its metrics read zero.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Each hook is called as hook(counts, args, kwargs, result, error) after the
# span has been closed, so its own cost stays out of the span.
CountHook = Callable[[Counter, tuple, dict, object, BaseException | None], None]

STATUS_NAMES = ("OK", "NO_RADAR_RETURN", "OUT_OF_CAMERA", "OUT_OF_RADAR_FOV",
                "DEGENERATE_GEOMETRY")
_TENSOR_HEADER_BYTES = 64


@dataclass(frozen=True)
class Span:
    name: str
    start: float           # perf_counter seconds
    end: float
    parent: int            # index of the enclosing span in the same trace, -1 at top level
    pair: int | None       # later frame index of the frame pair being run, if any


@dataclass(frozen=True)
class Target:
    module: str            # defining module, e.g. "velofusion.fusion"
    attr: str              # function name in that module
    span: str              # span and metric prefix, e.g. "fusion.estimate_frame"
    count: CountHook | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_simulate_adc(c, args, kwargs, result, error):
    if result is not None:
        scene = _arg(args, kwargs, 0, "scene")
        c["sim.simulate_adc.voxel_writes"] += len(scene.scatterers) * result.samples.size


def _count_synth_flow(c, args, kwargs, result, error):
    if result is not None:
        scene = _arg(args, kwargs, 0, "scene")
        c["sim.synth_flow.points"] += len(scene.scatterers) * scene.lidar_points_per_scatterer
        c["sim.synth_flow.covered_px"] += int(np.count_nonzero(result.covered))


def _count_build_radar_cube(c, args, kwargs, result, error):
    """FFT work computed from the shapes, not measured.

    flops: 5 N log2 N per transformed axis. bytes: each of the four axis FFTs
    reads and writes its complex64 tensor, and the float32 magnitude cube is
    written once.
    """
    if result is None:
        return
    n_chirps, n_samples, n_az, n_el = _arg(args, kwargs, 0, "adc").samples.shape
    n_range = result.magnitudes.shape[0]
    full = n_chirps * n_samples * n_az * n_el
    cut = n_chirps * n_range * n_az * n_el
    c["cube.build_radar_cube.flops_computed"] += (
        5 * full * math.log2(n_samples)
        + 5 * cut * (math.log2(n_chirps) + math.log2(n_az) + math.log2(n_el))
    )
    c["cube.build_radar_cube.bytes_computed"] += 2 * 8 * full + 3 * 2 * 8 * cut + 4 * cut


def _count_threshold_cube(c, args, kwargs, result, error):
    if result is not None:
        c["cube.threshold_cube.kept"] += int(np.count_nonzero(result.magnitudes))
        c["cube.threshold_cube.voxels"] += result.magnitudes.size


def _count_collapse_doppler(c, args, kwargs, result, error):
    if result is not None:
        c["velcube.collapse_doppler.valid_voxels"] += int(np.count_nonzero(result.valid))
        c["velcube.collapse_doppler.voxels"] += result.valid.size


def _count_estimate_frame(c, args, kwargs, result, error):
    if result is None:
        return
    c["fusion.estimate_frame.points"] += len(result)
    for code, n in enumerate(np.bincount(result.status, minlength=len(STATUS_NAMES))):
        name = STATUS_NAMES[code] if code < len(STATUS_NAMES) else str(code)
        c[f"fusion.status.{name}"] += int(n)


def _count_query(c, args, kwargs, result, error):
    if result is not None and result[1]:
        c["velcube.query_radial_velocity.found"] += 1


def _count_solve(c, args, kwargs, result, error):
    if error is not None and type(error).__name__ == "DegenerateGeometryError":
        c["fusion.solve_full_velocity.degenerate"] += 1


def _count_cluster(c, args, kwargs, result, error):
    if result is not None:
        c["metrics.cluster_points.points"] += len(result)
        c["metrics.cluster_points.noise_points"] += int(np.count_nonzero(result < 0))


def _count_write_tensor(c, args, kwargs, result, error):
    if error is None:
        array = _arg(args, kwargs, 1, "array")
        c["io.write_tensor.bytes"] += _TENSOR_HEADER_BYTES + np.asarray(array).nbytes


def _count_read_tensor(c, args, kwargs, result, error):
    if result is not None:
        c["io.read_tensor.bytes"] += _TENSOR_HEADER_BYTES + result.nbytes


TARGETS = (
    Target("velofusion.sim", "simulate_adc", "sim.simulate_adc", _count_simulate_adc),
    Target("velofusion.sim", "synth_lidar", "sim.synth_lidar"),
    Target("velofusion.sim", "synth_flow", "sim.synth_flow", _count_synth_flow),
    Target("velofusion.sim", "ground_truth_velocities", "sim.ground_truth_velocities"),
    Target("velofusion.cube", "build_radar_cube", "cube.build_radar_cube",
           _count_build_radar_cube),
    Target("velofusion.cube", "threshold_cube", "cube.threshold_cube", _count_threshold_cube),
    Target("velofusion.velcube", "collapse_doppler", "velcube.collapse_doppler",
           _count_collapse_doppler),
    Target("velofusion.velcube", "query_radial_velocity", "velcube.query_radial_velocity",
           _count_query),
    Target("velofusion.fusion", "estimate_frame", "fusion.estimate_frame",
           _count_estimate_frame),
    Target("velofusion.fusion", "solve_full_velocity", "fusion.solve_full_velocity",
           _count_solve),
    Target("velofusion.metrics", "build_tracks", "metrics.build_tracks"),
    Target("velofusion.metrics", "cluster_points", "metrics.cluster_points", _count_cluster),
    Target("velofusion.metrics", "evaluate_tracks", "metrics.evaluate_tracks"),
    Target("velofusion.io", "write_tensor", "io.write_tensor", _count_write_tensor),
    Target("velofusion.io", "read_tensor", "io.read_tensor", _count_read_tensor),
    Target("velofusion.io", "write_frame_sequence", "io.write_frame_sequence"),
    Target("velofusion.io", "read_frame_sequence", "io.read_frame_sequence"),
    Target("velofusion.io", "write_velocity_sequence", "io.write_velocity_sequence"),
    Target("velofusion.io", "read_velocity_sequence", "io.read_velocity_sequence"),
    Target("velofusion.cli", "cmd_simulate", "cli.simulate"),
    Target("velofusion.cli", "cmd_process", "cli.process"),
    Target("velofusion.cli", "cmd_evaluate", "cli.evaluate"),
)


class Tracer:
    """Spans and work counts of one traced pass over a workload's sequence."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.pair: int | None = None
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(target.span, start, end, parent, self.pair)
                if target.count is not None:
                    target.count(self.counts, args, kwargs, result, error)
        return traced

    @contextmanager
    def installed(self, targets: tuple[Target, ...] = TARGETS):
        """Wrap every target for the duration of the block, then restore."""
        patched: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                try:
                    home = importlib.import_module(target.module)
                except ImportError:
                    continue
                original = getattr(home, target.attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, target)
                for name, module in list(sys.modules.items()):
                    if module is None or not (name == "velofusion"
                                              or name.startswith("velofusion.")):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def top_level_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s is not None and s.parent < 0)

    def layer_values(self) -> dict[str, float]:
        """Busy time, self time and call count per span name, plus the counts."""
        busy: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            duration = span.end - span.start
            busy[span.name] += duration
            own[span.name] += duration - child_time[index]
            calls[span.name] += 1
        values: dict[str, float] = dict(self.counts)
        for name in busy:
            values[f"{name}.busy_s"] = busy[name]
            values[f"{name}.self_s"] = own[name]
            values[f"{name}.calls"] = calls[name]
        return values


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass; absent spans read zero."""
    v = tracer.layer_values()

    def get(key: str) -> float:
        return float(v.get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{t.span}.busy_s": get(f"{t.span}.busy_s") for t in TARGETS}
    for span in ("fusion.estimate_frame", "metrics.build_tracks",
                 "io.write_frame_sequence", "io.read_frame_sequence"):
        out[f"{span}.self_s"] = get(f"{span}.self_s")
    for span in ("sim.simulate_adc", "velcube.query_radial_velocity",
                 "fusion.solve_full_velocity", "metrics.cluster_points",
                 "io.write_tensor", "io.read_tensor"):
        out[f"{span}.calls"] = get(f"{span}.calls")
    for key in ("sim.simulate_adc.voxel_writes", "sim.synth_flow.points",
                "sim.synth_flow.covered_px", "cube.build_radar_cube.flops_computed",
                "cube.build_radar_cube.bytes_computed",
                "velcube.collapse_doppler.valid_voxels",
                "fusion.estimate_frame.points", "fusion.solve_full_velocity.degenerate",
                "metrics.cluster_points.points", "metrics.cluster_points.noise_points",
                "io.write_tensor.bytes", "io.read_tensor.bytes"):
        out[key] = get(key)
    for name in STATUS_NAMES:
        out[f"fusion.status.{name}"] = get(f"fusion.status.{name}")
    out["sim.synth_flow.splat_ratio"] = ratio(get("sim.synth_flow.covered_px"),
                                              get("sim.synth_flow.points"))
    out["cube.build_radar_cube.gflops_per_s"] = ratio(
        get("cube.build_radar_cube.flops_computed") / 1e9,
        get("cube.build_radar_cube.busy_s"))
    out["cube.threshold_cube.keep_ratio"] = ratio(get("cube.threshold_cube.kept"),
                                                  get("cube.threshold_cube.voxels"))
    out["velcube.collapse_doppler.valid_ratio"] = ratio(
        get("velcube.collapse_doppler.valid_voxels"), get("velcube.collapse_doppler.voxels"))
    out["fusion.estimate_frame.points_per_s"] = ratio(get("fusion.estimate_frame.points"),
                                                      get("fusion.estimate_frame.busy_s"))
    out["velcube.query_radial_velocity.found_ratio"] = ratio(
        get("velcube.query_radial_velocity.found"), get("velcube.query_radial_velocity.calls"))
    return out
