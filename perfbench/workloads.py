"""The benchmark's workloads: inputs made from a seed, run through velofusion.

Every workload is one fixed sequence of frame pairs. A pass over it
simulates each pair, processes it (radar cube -> threshold -> Doppler
collapse -> per-point fusion) and finally clusters, tracks and scores the
whole sequence, which is what a user of the package runs. The benchmark
repeats that pass on the same inputs for its timed window, so every pass
must produce the same digest.

Functions are always called through their module (`sim.simulate_adc`, not
an imported name), so the traced run sees the benchmark's own calls.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path

import numpy as np

import velofusion
from velofusion import cli, cube, fusion, metrics, sim, velcube
from velofusion import io as vio

ROOT = Path(__file__).resolve().parent.parent
DEMO_SCENE = ROOT / "scenes" / "demo.json"
EPS, MIN_POINTS = 0.3, 5          # the CLI's clustering defaults


@dataclass(frozen=True)
class Inputs:
    scene: velofusion.SceneConfig
    radar: velofusion.RadarConfig
    camera: velofusion.CameraModel
    pairs: tuple[int, ...]        # later frame index of each frame pair

    @property
    def points_per_frame(self) -> int:
        return len(self.scene.scatterers) * self.scene.lidar_points_per_scatterer


@dataclass(frozen=True)
class Expect:
    """What a correct pass over a workload's sequence looks like."""

    tracks: int                   # tracks found, each spanning every pair
    ave_max: float                # m/s
    avae_weighted_max: float      # deg
    ok_fraction_min: float        # OK points / points attempted


@dataclass
class Pass:
    """Timings and outputs of one pass over a sequence."""

    e2e_s: float
    simulate_ms: list[float]
    process_ms: list[float]
    process_s: float              # total process time of the pass
    evaluate_s: float
    pairs_attempted: int
    pairs_failed: int
    ops_attempted: int            # point estimates
    status: dict[str, int]        # status name -> points; failed pairs count under RAISED
    digest_frames: str
    digest_report: str
    report: dict
    track_lengths: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ops_failed(self) -> int:
        return self.ops_attempted - self.status.get("OK", 0)


def _digest_frames(estimates: list[tuple[int, np.ndarray, np.ndarray]]) -> str:
    h = hashlib.sha256()
    for frame_index, status, velocities in estimates:
        h.update(int(frame_index).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(status, dtype=np.uint8).tobytes())
        h.update(np.ascontiguousarray(velocities, dtype="<f8").tobytes())
    return h.hexdigest()


def _digest_report(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _status_counts(statuses: list[np.ndarray]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for status in statuses:
        for code, n in enumerate(np.bincount(status, minlength=1)):
            if n:
                name = velofusion.PointStatus(code).name
                counts[name] = counts.get(name, 0) + int(n)
    return counts


# --------------------------------------------------------------------------
# Inputs

# Ten movers 5 deg apart on three range rings. Neighbours in azimuth are
# 0.6 m apart in range, so clustering separates them, but several share one
# radar context window, which exercises the largest-|v| window rule. Speeds
# and headings follow a fixed pattern: the layout is fixed so accuracy
# figures compare across seeds, and the seed drives noise and jitter.
CROWD_MOVERS = 10
CROWD_RINGS_M = (2.4, 3.0, 3.6)
CROWD_HEADINGS_DEG = (0.0, 90.0, 45.0, 135.0, 180.0)   # relative to the line of sight
CROWD_RADAR = dict(n_samples=64, n_chirps=16, n_azimuth_bins=16, n_elevation_bins=4,
                   range_resolution=0.075)


def crowd_inputs(seed: int, small: bool = False) -> Inputs:
    scatterers = []
    for i in range(CROWD_MOVERS):
        az = math.radians(-22.5 + 5.0 * i)
        rng_m = CROWD_RINGS_M[i % len(CROWD_RINGS_M)]
        speed = 0.3 + 0.08 * i
        heading = az + math.radians(CROWD_HEADINGS_DEG[i % len(CROWD_HEADINGS_DEG)])
        scatterers.append(velofusion.Scatterer(
            (rng_m * math.cos(az), rng_m * math.sin(az), 0.0),
            (speed * math.cos(heading), speed * math.sin(heading), 0.0),
        ))
    n_pairs = 2
    scene = velofusion.SceneConfig(
        scatterers=tuple(scatterers), frame_interval=0.1, n_frames=n_pairs + 1,
        noise_floor=0.1, lidar_points_per_scatterer=60 if small else 300,
        lidar_jitter_sigma=0.02, seed=seed,
    )
    return Inputs(scene, velofusion.RadarConfig(**CROWD_RADAR), vio.default_camera(),
                  tuple(range(1, n_pairs + 1)))


def cli_inputs(seed: int, small: bool = False) -> Inputs:
    """scenes/demo.json cut to the frames its pairs need; the seed drives ADC
    noise and LiDAR jitter."""
    scene, radar, camera = vio.load_scene(DEMO_SCENE)
    n_pairs = 2 if small else 4
    return Inputs(replace(scene, seed=seed, n_frames=n_pairs + 1), radar, camera,
                  tuple(range(1, n_pairs + 1)))


# --------------------------------------------------------------------------
# In-process pipeline

def simulate_pair(inputs: Inputs, f: int):
    scene = inputs.scene
    cloud = sim.synth_lidar(scene, f)
    adc = sim.simulate_adc(scene, f, inputs.radar)
    flow = sim.synth_flow(scene, f - 1, inputs.camera)
    truth = sim.ground_truth_velocities(scene, cloud)
    return cloud, adc, flow, truth


def process_pair(inputs: Inputs, cloud, adc, flow):
    radar = inputs.radar
    radar_cube = cube.threshold_cube(cube.build_radar_cube(adc, radar), radar.threshold_db)
    vc = velcube.collapse_doppler(radar_cube, radar)
    pair = velofusion.FramePair(dt=inputs.scene.frame_interval)
    return fusion.estimate_frame(cloud, vc, flow, inputs.camera, pair)


def run_pipeline(inputs: Inputs, tracer=None) -> Pass:
    """One pass: simulate -> process every pair, then build and score tracks."""
    n_points = inputs.points_per_frame
    simulate_ms: list[float] = []
    process_ms: list[float] = []
    frames: list = []
    errors: list[str] = []
    failed = 0
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        for f in inputs.pairs:
            if tracer:
                tracer.pair = f
            try:
                t0 = time.perf_counter()
                cloud, adc, flow, truth = simulate_pair(inputs, f)
                t1 = time.perf_counter()
                est = process_pair(inputs, cloud, adc, flow)
                t2 = time.perf_counter()
            except Exception:
                failed += 1
                errors.append(f"pair {f} raised: {traceback.format_exc(limit=3)}")
                continue
            simulate_ms.append((t1 - t0) * 1e3)
            process_ms.append((t2 - t1) * 1e3)
            frames.append(metrics.EvalFrame(f, f * inputs.scene.frame_interval, est.positions,
                                            est.velocities, est.status, truth.velocities))
        if tracer:
            tracer.pair = None
        t3 = time.perf_counter()
        try:
            tracks = metrics.build_tracks(frames, EPS, MIN_POINTS)
            report = metrics.evaluate_tracks(tracks).to_dict()
        except Exception:
            tracks, report = [], {}
            errors.append(f"evaluation raised: {traceback.format_exc(limit=3)}")
        end = time.perf_counter()

    status = _status_counts([fr.status for fr in frames])
    if failed:
        status["RAISED"] = failed * n_points
    return Pass(
        e2e_s=end - start,
        simulate_ms=simulate_ms,
        process_ms=process_ms,
        process_s=sum(process_ms) / 1e3,
        evaluate_s=end - t3,
        pairs_attempted=len(inputs.pairs),
        pairs_failed=failed,
        ops_attempted=len(inputs.pairs) * n_points,
        status=status,
        digest_frames=_digest_frames([(fr.frame_index, fr.status, fr.velocities)
                                      for fr in frames]),
        digest_report=_digest_report(report),
        report=report,
        track_lengths=sorted(len(t.frames) for t in tracks),
        errors=errors,
    )


def warm_up(inputs: Inputs) -> None:
    """Simulate and process the sequence's first pair (set-up, untimed)."""
    cloud, adc, flow, _ = simulate_pair(inputs, inputs.pairs[0])
    process_pair(inputs, cloud, adc, flow)


# --------------------------------------------------------------------------
# Command line round trip

def write_cli_scene(inputs: Inputs, path: Path, n_frames: int | None = None) -> None:
    """The demo scene file with its frame count cut to what the sequence needs."""
    obj = json.loads(DEMO_SCENE.read_text())
    obj["n_frames"] = n_frames or inputs.scene.n_frames
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _cli(argv: list[str]) -> None:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"velofusion {argv[0]} exited {code}: {err.getvalue().strip()}")


def cli_warm_up(inputs: Inputs, workdir: Path) -> None:
    """simulate + process one frame pair through the CLI (set-up, untimed)."""
    scene_path = workdir / "warm_scene.json"
    write_cli_scene(inputs, scene_path, n_frames=2)
    try:
        _cli(["simulate", "--scene", str(scene_path), "--out", str(workdir / "warm_frames"),
              "--seed", str(inputs.scene.seed)])
        _cli(["process", "--in", str(workdir / "warm_frames"),
              "--out", str(workdir / "warm_velocities")])
    finally:
        for name in ("warm_scene.json", "warm_frames", "warm_velocities"):
            _remove(workdir / name)


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def run_cli(inputs: Inputs, scene_path: Path, workdir: Path, tracer=None) -> Pass:
    """One pass through `velofusion simulate`, `process` and `evaluate`.

    The CLI exposes whole-command times only, so the per-pair figures of this
    workload are the command time divided by the number of pairs, io included.
    """
    frames_dir, vel_dir = workdir / "frames", workdir / "velocities"
    report_path = workdir / "report.json"
    n_pairs = len(inputs.pairs)
    try:
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            _cli(["simulate", "--scene", str(scene_path), "--out", str(frames_dir),
                  "--seed", str(inputs.scene.seed)])
            t1 = time.perf_counter()
            _cli(["process", "--in", str(frames_dir), "--out", str(vel_dir)])
            t2 = time.perf_counter()
            _cli(["evaluate", "--est", str(vel_dir), "--truth", str(frames_dir),
                  "--report", str(report_path)])
            t3 = time.perf_counter()
        clouds, _ = vio.read_velocity_sequence(vel_dir)
        report = json.loads(report_path.read_text())
    except Exception:
        # A failed or raising command fails every pair of the pass.
        n = n_pairs * inputs.points_per_frame
        return Pass(e2e_s=0.0, simulate_ms=[], process_ms=[], process_s=0.0, evaluate_s=0.0,
                    pairs_attempted=n_pairs, pairs_failed=n_pairs, ops_attempted=n,
                    status={"RAISED": n}, digest_frames="", digest_report="", report={},
                    errors=[f"CLI pass raised: {traceback.format_exc(limit=3)}"])
    finally:
        for path in (frames_dir, vel_dir, report_path):
            _remove(path)

    estimates = [(idx, clouds[idx][1].status, clouds[idx][1].velocities) for idx in sorted(clouds)]
    return Pass(
        e2e_s=t3 - t0,
        simulate_ms=[(t1 - t0) / n_pairs * 1e3],
        process_ms=[(t2 - t1) / n_pairs * 1e3],
        process_s=t2 - t1,
        evaluate_s=t3 - t2,
        pairs_attempted=n_pairs,
        pairs_failed=0,
        ops_attempted=n_pairs * inputs.points_per_frame,
        status=_status_counts([status for _, status, _ in estimates]),
        digest_frames=_digest_frames(estimates),
        digest_report=_digest_report(report),
        report=report,
    )


# --------------------------------------------------------------------------
# Correctness

def check_pass(p: Pass, inputs: Inputs, expect: Expect) -> list[str]:
    """Failures of one pass against the workload's expectations."""
    problems = list(p.errors)
    if p.track_lengths and p.track_lengths != [len(inputs.pairs)] * expect.tracks:
        problems.append(f"expected {expect.tracks} tracks spanning all {len(inputs.pairs)} "
                        f"pairs, got track lengths {p.track_lengths}")
    ok_fraction = p.status.get("OK", 0) / p.ops_attempted
    if not ok_fraction >= expect.ok_fraction_min:
        problems.append(f"OK fraction {ok_fraction:.4f} < {expect.ok_fraction_min}")
    if sum(p.status.values()) != p.ops_attempted:
        problems.append(f"{sum(p.status.values())} point outcomes for "
                        f"{p.ops_attempted} points attempted")
    if p.report:
        if not p.report["ave"] <= expect.ave_max:
            problems.append(f"AVE {p.report['ave']:.4f} m/s > {expect.ave_max}")
        if not p.report["avae_weighted_deg"] <= expect.avae_weighted_max:
            problems.append(f"weighted AVAE {p.report['avae_weighted_deg']:.2f} deg > "
                            f"{expect.avae_weighted_max}")
    return problems
