"""Synthetic scene generator: ADC cubes, LiDAR clouds and dense optical flow.

A scene is a set of point scatterers moving at constant velocity in the radar
frame. Frame index f places every scatterer at position + velocity * f * dt
(stop-and-hop: positions are frozen within one cube). Each scatterer
contributes a separable complex phase ramp to the ADC tensor:

    sample(c, s, a, e) = amp * exp(j 2 pi (f_rng * s + f_dop * c + f_az * a + f_el * e))

with f_rng = range / (range_resolution * n_samples) cycles per sample and
f_dop = v_radial / (speed_resolution * n_chirps) cycles per chirp. The angle
ramps use the same linear angle-to-bin map as the cube stage (f_az =
azimuth / azimuth_fov cycles per antenna element), which keeps the synthetic
array geometry and the cube's bin readout mutually consistent across the
whole field of view.

All generators are pure functions of (scene, frame_index): randomness comes
from per-frame, per-stream child seeds of scene.seed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .cube import AdcCube, RadarConfig
from .fusion import project_points
from .types import CameraModel, FlowField, PointCloud, PointStatus, VelocityPointCloud
from .velcube import cartesian_to_polar

logger = logging.getLogger(__name__)

_LIDAR_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class Scatterer:
    """Point target with constant velocity and unit-less return amplitude."""

    position: tuple[float, float, float]                    # m, radar frame at frame 0
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)  # m/s
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if len(self.position) != 3 or len(self.velocity) != 3:
            raise ValueError("position and velocity must be 3-vectors")
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class SceneConfig:
    scatterers: tuple[Scatterer, ...] = ()
    frame_interval: float = 0.1            # s between frames
    n_frames: int = 2
    noise_floor: float = 0.0               # std of the complex ADC noise
    lidar_points_per_scatterer: int = 100
    lidar_jitter_sigma: float = 0.02       # m, isotropic
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if not self.frame_interval > 0:
            raise ValueError(f"frame_interval must be positive, got {self.frame_interval}")
        if self.n_frames < 2:
            raise ValueError(f"n_frames must be >= 2, got {self.n_frames}")
        if self.noise_floor < 0:
            raise ValueError(f"noise_floor must be >= 0, got {self.noise_floor}")
        if self.lidar_points_per_scatterer < 1:
            raise ValueError("lidar_points_per_scatterer must be >= 1")
        if self.lidar_jitter_sigma < 0:
            raise ValueError("lidar_jitter_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def advance_scene(scene: SceneConfig, n_frames: int = 1) -> SceneConfig:
    """Scene with every scatterer moved forward by n_frames frame intervals.

    The remaining frame count shrinks accordingly, so frame f of the advanced
    scene matches frame f + n_frames of the original.
    """
    if not 0 <= n_frames <= scene.n_frames - 2:
        raise ValueError(
            f"cannot advance {n_frames} frames in a {scene.n_frames} frame scene"
        )
    dt = n_frames * scene.frame_interval
    moved = tuple(
        replace(s, position=tuple(np.asarray(s.position) + dt * np.asarray(s.velocity)))
        for s in scene.scatterers
    )
    return replace(scene, scatterers=moved, n_frames=scene.n_frames - n_frames)


def _positions_at(scene: SceneConfig, frame_index: int) -> np.ndarray:
    t = frame_index * scene.frame_interval
    if not scene.scatterers:
        return np.zeros((0, 3))
    pos = np.array([s.position for s in scene.scatterers], dtype=np.float64)
    vel = np.array([s.velocity for s in scene.scatterers], dtype=np.float64)
    return pos + t * vel


def _check_frame_index(scene: SceneConfig, frame_index: int) -> None:
    if not 0 <= frame_index < scene.n_frames:
        raise ValueError(f"frame_index {frame_index} outside [0, {scene.n_frames})")


def simulate_adc(scene: SceneConfig, frame_index: int, cfg: RadarConfig) -> AdcCube:
    """Raw ADC tensor (chirp, sample, az antenna, el antenna) for one frame."""
    _check_frame_index(scene, frame_index)
    shape = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    acc = np.zeros(shape, dtype=np.complex128)

    positions = _positions_at(scene, frame_index)
    chirps = np.arange(cfg.n_chirps)
    samples = np.arange(cfg.n_samples)
    az_ant = np.arange(cfg.n_azimuth_bins)
    el_ant = np.arange(cfg.n_elevation_bins)

    for i, scat in enumerate(scene.scatterers):
        rng_m, az, el = cartesian_to_polar(positions[i])
        if rng_m >= cfg.max_range:
            raise ValueError(
                f"scatterer {i} at range {rng_m:.3f} m exceeds max range "
                f"{cfg.max_range:.3f} m at frame {frame_index}"
            )
        v_radial = float(np.dot(scat.velocity, positions[i] / rng_m))
        if abs(v_radial) >= cfg.max_speed:
            raise ValueError(
                f"scatterer {i} radial velocity {v_radial:.3f} m/s exceeds the "
                f"unambiguous interval +-{cfg.max_speed:.3f} m/s at frame {frame_index}"
            )
        f_rng = rng_m / (cfg.range_resolution * cfg.n_samples)   # cycles / sample
        f_dop = v_radial / (cfg.speed_resolution * cfg.n_chirps)  # cycles / chirp
        f_az = az / cfg.azimuth_fov                               # cycles / element
        f_el = el / cfg.elevation_fov
        acc += scat.amplitude * np.einsum(
            "c,s,a,e->csae",
            np.exp(2j * np.pi * f_dop * chirps),
            np.exp(2j * np.pi * f_rng * samples),
            np.exp(2j * np.pi * f_az * az_ant),
            np.exp(2j * np.pi * f_el * el_ant),
        )

    if scene.noise_floor > 0:
        rng = np.random.default_rng([scene.seed, frame_index, _NOISE_STREAM])
        scale = scene.noise_floor / np.sqrt(2.0)
        acc += scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return AdcCube(acc.astype(np.complex64))


def synth_lidar(scene: SceneConfig, frame_index: int) -> PointCloud:
    """Jittered point samples around each scatterer, labeled by scatterer index."""
    _check_frame_index(scene, frame_index)
    if not scene.scatterers:
        return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    rng = np.random.default_rng([scene.seed, frame_index, _LIDAR_STREAM])
    positions = _positions_at(scene, frame_index)
    k = scene.lidar_points_per_scatterer
    pts = []
    labels = []
    for i in range(len(scene.scatterers)):
        jitter = scene.lidar_jitter_sigma * rng.standard_normal((k, 3))
        pts.append(positions[i] + jitter)
        labels.append(np.full(k, i, dtype=np.int64))
    return PointCloud(np.concatenate(pts), np.concatenate(labels))


def synth_flow(scene: SceneConfig, frame_index: int, camera: CameraModel) -> FlowField:
    """Dense flow from frame_index to frame_index + 1, anchored at the earlier
    frame's pixels.

    Each LiDAR point of the earlier frame is projected in both frames; the
    pixel displacement is stored at its (rounded) earlier pixel with a
    z-buffer so the closest surface wins. Points behind the camera in either
    frame are skipped and counted.
    """
    _check_frame_index(scene, frame_index)
    if frame_index + 1 >= scene.n_frames:
        raise ValueError(
            f"flow needs frame {frame_index + 1}, but the scene has "
            f"{scene.n_frames} frames"
        )
    cloud = synth_lidar(scene, frame_index)
    vel = np.array([s.velocity for s in scene.scatterers], dtype=np.float64)
    later = cloud.positions + scene.frame_interval * vel[cloud.labels] \
        if len(cloud) else cloud.positions

    flow = np.zeros((camera.height, camera.width, 2), dtype=np.float32)
    covered = np.zeros((camera.height, camera.width), dtype=bool)
    zbuf: dict[tuple[int, int], float] = {}  # nearest depth per splatted pixel

    u0, v0, z0 = project_points(cloud.positions, camera)
    u1, v1, z1 = project_points(later, camera)
    behind = 0
    for i in range(len(cloud)):
        if z0[i] <= 0 or z1[i] <= 0:
            behind += 1
            continue
        col = int(np.floor(u0[i] + 0.5))
        row = int(np.floor(v0[i] + 0.5))
        if not (0 <= col < camera.width and 0 <= row < camera.height):
            continue
        if z0[i] < zbuf.get((row, col), np.inf):
            zbuf[row, col] = z0[i]
            flow[row, col, 0] = u1[i] - u0[i]
            flow[row, col, 1] = v1[i] - v0[i]
            covered[row, col] = True
    if behind:
        logger.info("synth_flow frame %d: skipped %d points behind the camera",
                    frame_index, behind)
    return FlowField(flow, covered, scene.frame_interval)


def ground_truth_velocities(scene: SceneConfig, cloud: PointCloud) -> VelocityPointCloud:
    """Exact per-point velocities taken from each point's source scatterer."""
    if cloud.labels is None:
        raise ValueError("cloud has no labels; ground truth needs labeled points")
    n = len(scene.scatterers)
    bad = (cloud.labels < 0) | (cloud.labels >= n)
    if bad.any():
        raise ValueError(
            f"labels {sorted(set(cloud.labels[bad]))} outside [0, {n}) are unlabeled"
        )
    vel = np.array([s.velocity for s in scene.scatterers], dtype=np.float64)
    velocities = vel[cloud.labels] if len(cloud) else np.zeros((0, 3))
    status = np.full(len(cloud), PointStatus.OK, dtype=np.uint8)
    return VelocityPointCloud(cloud.positions.copy(), velocities, status)
