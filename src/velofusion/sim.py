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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cube import AdcCube, RadarConfig
from .types import (
    CameraModel,
    FlowField,
    PointCloud,
    PointStatus,
    VelocityPointCloud,
    nearest_pixels,
    project_points,
)
from .velcube import cartesian_to_polar

logger = logging.getLogger(__name__)

_LIDAR_STREAM = 0
_NOISE_STREAM = 1
_NOISE_BLOCK_VALUES = 1 << 17  # float64 values in one noise block, 1 MiB
# OpenBLAS 0.3.31 runs a matrix product with m * n * k below this on the
# calling thread and hands larger ones to its worker threads.
_BLAS_SERIAL_MNK = 65_536


@dataclass(frozen=True)
class Scatterer:
    """Point target with constant velocity and unit-less return amplitude."""

    position: tuple[float, float, float]                    # m, radar frame at frame 0
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)  # m/s
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if np.shape(self.position) != (3,) or np.shape(self.velocity) != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.isfinite(self.position).all() and np.isfinite(self.velocity).all()):
            raise ValueError(f"non-finite position {self.position} or velocity {self.velocity}")
        if not (self.amplitude > 0 and np.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude}")
        object.__setattr__(self, "position", tuple(self.position))
        object.__setattr__(self, "velocity", tuple(self.velocity))


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


def _scatterer_arrays(scene: SceneConfig, frame_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Positions at frame_index and velocities of the scatterers, (n, 3) each."""
    pos = np.array([s.position for s in scene.scatterers], dtype=np.float64).reshape(-1, 3)
    vel = np.array([s.velocity for s in scene.scatterers], dtype=np.float64).reshape(-1, 3)
    return pos + frame_index * scene.frame_interval * vel, vel


def _check_frame_index(scene: SceneConfig, frame_index: int) -> None:
    if not 0 <= frame_index < scene.n_frames:
        raise ValueError(f"frame_index {frame_index} outside [0, {scene.n_frames})")


def _radar_geometry(
    positions: np.ndarray, velocities: np.ndarray, cfg: RadarConfig, frame_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(range, azimuth, elevation, radial velocity) of every scatterer.

    Raises ValueError naming the first scatterer the radar cannot render and
    its first failed check, in the order zero range, max range, angular field
    of view, unambiguous speed. A scatterer outside the angular FoV would alias
    to a ghost inside it.
    """
    x, y, z = positions.T
    zero = np.flatnonzero(~(x * x + y * y + z * z > 0))
    n_ok = zero[0] if len(zero) else len(positions)
    rng_m, az, el = cartesian_to_polar(positions[:n_ok])
    # A stack of (1, 3) @ (3, 1) products runs numpy's dot on each row, so the
    # radial velocities have the bits of one np.dot per scatterer.
    unit = positions[:n_ok] / rng_m[:, None]
    v_radial = (velocities[:n_ok, None, :] @ unit[:, :, None])[:, 0, 0]
    too_far = rng_m >= cfg.max_range
    outside = (np.abs(az) > cfg.azimuth_fov / 2) | (np.abs(el) > cfg.elevation_fov / 2)
    too_fast = np.abs(v_radial) >= cfg.max_speed
    bad = np.flatnonzero(too_far | outside | too_fast)
    at = f"at frame {frame_index}"
    if len(bad):
        i = bad[0]
        if too_far[i]:
            raise ValueError(f"scatterer {i} at range {rng_m[i]:.3f} m exceeds max range "
                             f"{cfg.max_range:.3f} m {at}")
        if outside[i]:
            raise ValueError(
                f"scatterer {i} at azimuth {np.degrees(az[i]):.1f} deg, elevation "
                f"{np.degrees(el[i]):.1f} deg is outside the radar field of view "
                f"+-{np.degrees(cfg.azimuth_fov) / 2:.1f} x "
                f"+-{np.degrees(cfg.elevation_fov) / 2:.1f} deg {at}")
        raise ValueError(
            f"scatterer {i} radial velocity {v_radial[i]:.3f} m/s exceeds the "
            f"unambiguous interval +-{cfg.max_speed:.3f} m/s {at}")
    if n_ok < len(positions):
        raise ValueError(f"scatterer {n_ok} at zero range has no direction {at}")
    return rng_m, az, el, v_radial


def _phase_ramps(freqs: np.ndarray, n: int) -> np.ndarray:
    """(K, n) complex ramps exp(j 2 pi f k), k = 0..n-1, one row per frequency."""
    return np.exp(2j * np.pi * freqs[:, None] * np.arange(n))


def _noise_rows(n_cols: int) -> int:
    """Rows of the (chirp x sample, az x el) ADC matrix in one noise block."""
    return max(1, _NOISE_BLOCK_VALUES // n_cols)


def noise_blocks(scene: SceneConfig, frame_index: int, cfg: RadarConfig,
                 out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The frame's scaled complex ADC noise as float64 blocks of whole rows
    of the (chirp x sample, az x el) matrix, at most 1 MiB each: every real
    part, then every imaginary part. Together they are the frame's two
    whole-tensor draws, bit for bit. Yields nothing when the scene has no
    noise.

    Each block is a new array, unless `out` (float64, one block's shape) is
    given: then every block is drawn into it and holds only until the next
    block is drawn.
    """
    _check_frame_index(scene, frame_index)
    if not scene.noise_floor > 0:
        return
    rng = np.random.default_rng([scene.seed, frame_index, _NOISE_STREAM])
    scale = scene.noise_floor / np.sqrt(2.0)
    n_rows, n_cols = cfg.n_chirps * cfg.n_samples, cfg.n_azimuth_bins * cfg.n_elevation_bins
    step = _noise_rows(n_cols)
    for _ in ("real", "imag"):
        for lo in range(0, n_rows, step):
            rows = min(step, n_rows - lo)
            block = (rng.standard_normal((rows, n_cols)) if out is None
                     else rng.standard_normal(out=out[:rows]))
            block *= scale
            yield block


def simulate_adc(scene: SceneConfig, frame_index: int, cfg: RadarConfig,
                 noise: Iterator[np.ndarray] | None = None) -> AdcCube:
    """Raw ADC tensor (chirp, sample, az antenna, el antenna) for one frame.

    The scatterers' separable ramps are summed as complex128 matrix
    products, (chirp x sample, K) @ (K, az x el) with the amplitudes in the
    right factor. Scatterers go in blocks of at most
    rows x cols / (4 (rows + cols)), the blocks of the whole-tensor render,
    each added to the ones before, so every sum keeps its grouping. The
    tensor is rendered in blocks of the noise's rows, and every product in
    slices of m rows with m x K x (az x el) < 65,536 (one row where
    K x (az x el) alone reaches it): below that size OpenBLAS 0.3.31 runs a
    call on the calling thread. On the demo radar that is 85 rows; 86 would
    wake the worker thread, which then spins on after every call. The left
    factor is formed per slice, so memory does not grow with K. Each slice's
    product goes to one small buffer, and its real or imaginary part is
    summed in float64, which is the complex sum's own arithmetic.

    The complex Gaussian noise is added in float64 before the cast to
    complex64: the real parts of every block, then the imaginary parts.
    `noise` yields the frame's `noise_blocks`; when it is not given they are
    drawn here, inline, into one reused block. The render runs twice, a pass
    for the real parts and then one for the imaginary parts, each in the
    noise's block order, so no part waits for its noise in a scratch of the
    tensor's size: a noisy frame's working set is the complex64 output, one
    block of sums, the noise blocks and one slice. On a 2-vCPU Xeon the
    second pass costs about 0.45 ms a frame on a 64 x 16 x 16 x 4 radar with
    10 scatterers, and on the demo radar the render is faster than with a
    float64 scratch, whose 8 MB were faulted in again for every frame.
    """
    _check_frame_index(scene, frame_index)
    n_c, n_s, n_a, n_e = shape = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins,
                                  cfg.n_elevation_bins)
    positions, velocities = _scatterer_arrays(scene, frame_index)
    rng_m, az, el, v_radial = _radar_geometry(positions, velocities, cfg, frame_index)
    amplitudes = np.array([s.amplitude for s in scene.scatterers], dtype=np.float64)
    f_rng = rng_m / (cfg.range_resolution * cfg.n_samples)     # cycles / sample
    f_dop = v_radial / (cfg.speed_resolution * cfg.n_chirps)    # cycles / chirp
    f_az = az / cfg.azimuth_fov                                 # cycles / element
    f_el = el / cfg.elevation_fov

    n_rows, n_cols = n_c * n_s, n_a * n_e
    k_block = max(1, n_rows * n_cols // (4 * (n_rows + n_cols)))
    step = min(_noise_rows(n_cols), n_rows)
    k_max = max(1, min(len(amplitudes), k_block))  # scatterers in the largest block
    m = min(max(1, (_BLAS_SERIAL_MNK - 1) // (k_max * n_cols)), n_rows)
    noisy = scene.noise_floor > 0
    if noisy and noise is None:
        noise = noise_blocks(scene, frame_index, cfg, out=np.empty((step, n_cols)))
    out = np.empty((n_rows, n_cols), dtype=np.complex64)
    scratch = np.empty if len(amplitudes) else np.zeros  # no scatterer renders zeros
    acc = scratch((step, n_cols))
    prod = np.empty((m, n_cols), dtype=np.complex128)
    for half in ("real", "imag"):  # the noise's order
        for lo in range(0, n_rows, step):
            hi = min(lo + step, n_rows)
            for k in range(0, len(amplitudes), k_block):
                part = slice(k, k + k_block)
                chirp_ramps = _phase_ramps(f_dop[part], n_c)
                sample_ramps = _phase_ramps(f_rng[part], n_s)
                right = ((amplitudes[part, None] * _phase_ramps(f_az[part], n_a))[:, :, None]
                         * _phase_ramps(f_el[part], n_e)[:, None, :]).reshape(-1, n_cols)
                for r in range(lo, hi, m):
                    e = min(r + m, hi)
                    c_lo, c_hi = r // n_s, -(-e // n_s)  # the chirps that rows r..e-1 fall in
                    left = (chirp_ramps[:, c_lo:c_hi, None]
                            * sample_ramps[:, None, :]).reshape(len(chirp_ramps), -1)
                    p = np.matmul(left[:, r - c_lo * n_s:e - c_lo * n_s].T, right,
                                  out=prod[:e - r])
                    if k == 0:
                        acc[r - lo:e - lo] = getattr(p, half)
                    else:
                        acc[r - lo:e - lo] += getattr(p, half)
            rows = acc[:hi - lo]
            if noisy:
                rows = next(noise)
                rows += acc[:hi - lo]
            getattr(out, half)[lo:hi] = rows
    return AdcCube(out.reshape(shape))


def synth_lidar(scene: SceneConfig, frame_index: int) -> PointCloud:
    """Jittered point samples around each scatterer, labeled by scatterer index."""
    _check_frame_index(scene, frame_index)
    rng = np.random.default_rng([scene.seed, frame_index, _LIDAR_STREAM])
    k = scene.lidar_points_per_scatterer
    n = len(scene.scatterers)
    # One draw for all scatterers: the same stream as k x 3 draws per scatterer.
    jitter = scene.lidar_jitter_sigma * rng.standard_normal((n * k, 3))
    positions = np.repeat(_scatterer_arrays(scene, frame_index)[0], k, axis=0) + jitter
    return PointCloud(positions, np.repeat(np.arange(n, dtype=np.int64), k))


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
    vel = _scatterer_arrays(scene)[1]
    later = cloud.positions + scene.frame_interval * vel[cloud.labels]

    u0, v0, z0 = project_points(cloud.positions, camera)
    u1, v1, z1 = project_points(later, camera)
    front = np.flatnonzero((z0 > 0) & (z1 > 0))
    behind = len(cloud) - len(front)
    on_image, rows, cols = nearest_pixels(u0[front], v0[front], (camera.height, camera.width))
    points = front[on_image]
    pixels = rows * camera.width + cols
    # Z-buffer: per pixel the nearest earlier-frame depth wins, the lowest
    # point index on a tie (the sort is stable and points are in index order).
    order = np.lexsort((z0[points], pixels))
    pixels, first = np.unique(pixels[order], return_index=True)
    points = points[order[first]]
    rows, cols = np.divmod(pixels, camera.width)

    flow = np.zeros((camera.height, camera.width, 2), dtype=np.float32)
    covered = np.zeros((camera.height, camera.width), dtype=bool)
    flow[rows, cols, 0] = u1[points] - u0[points]
    flow[rows, cols, 1] = v1[points] - v0[points]
    covered[rows, cols] = True
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
    velocities = _scatterer_arrays(scene)[1][cloud.labels]
    status = np.full(len(cloud), PointStatus.OK, dtype=np.uint8)
    return VelocityPointCloud(cloud.positions.copy(), velocities, status)
