"""Shared data containers used across the pipeline stages.

Coordinate conventions:
  radar frame:  x forward, y left, z up (right-handed)
  camera frame: x right, y down, z forward (optical axis)
All positions are in meters, velocities in m/s, angles in radians.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

_ORTHO_TOL = 1e-9


class PointStatus(IntEnum):
    """Per-point outcome of the velocity estimation."""

    OK = 0
    NO_RADAR_RETURN = 1
    OUT_OF_CAMERA = 2
    OUT_OF_RADAR_FOV = 3
    DEGENERATE_GEOMETRY = 4


def check_rotation(rotation: np.ndarray, what: str) -> np.ndarray:
    """Validate a 3x3 right-handed orthonormal matrix and return it as float64."""
    rot = np.asarray(rotation, dtype=np.float64)
    if rot.shape != (3, 3):
        raise ValueError(f"{what}: expected shape (3, 3), got {rot.shape}")
    err = np.abs(rot.T @ rot - np.eye(3)).max()
    if err > _ORTHO_TOL:
        raise ValueError(f"{what}: not orthonormal (max |R^T R - I| = {err:.3e})")
    det = float(np.linalg.det(rot))
    if abs(det - 1.0) > _ORTHO_TOL:
        raise ValueError(f"{what}: determinant {det!r} is not +1")
    return rot


@dataclass
class PointCloud:
    """LiDAR-style point set in the radar frame.

    labels carries the source object index per point (used only to build
    synthetic ground truth, never consumed by the estimation pipeline).
    """

    positions: np.ndarray                 # (N, 3) float64, meters
    labels: np.ndarray | None = None      # (N,) int64 or None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.positions),):
                raise ValueError(
                    f"labels shape {self.labels.shape} does not match "
                    f"{len(self.positions)} points"
                )

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class CameraModel:
    """Pinhole camera with a rigid extrinsic transform from the radar frame.

    A camera-frame point is  p_cam = rotation @ p_radar + translation,
    and projects to pixel (fx * x / z + cx, fy * y / z + cy).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))    # radar -> camera
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))  # meters

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        self.rotation = check_rotation(self.rotation, "camera extrinsic rotation")
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.translation.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {self.translation.shape}")


def project_points(points: np.ndarray, camera: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pinhole projection of radar-frame points.

    Returns (u, v, depth) arrays; u/v are NaN wherever depth <= 0 (behind the
    camera, no pixel).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cam = pts @ camera.rotation.T + camera.translation
    depth = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * cam[:, 0] / depth + camera.cx
        v = camera.fy * cam[:, 1] / depth + camera.cy
    u = np.where(depth > 0, u, np.nan)
    v = np.where(depth > 0, v, np.nan)
    return u, v, depth


def nearest_pixels(u: np.ndarray, v: np.ndarray, shape: tuple[int, int]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pixel each image coordinate (u, v) lands on: the nearest one, with
    halves rounded up, on an image of shape (height, width).

    Returns (on_image, rows, cols): the indices of the coordinates that land
    on the image, in order, and their int64 pixel rows and columns. NaN
    coordinates (no pixel) never land on it.
    """
    col, row = np.floor(np.asarray([u, v], dtype=np.float64) + 0.5)
    height, width = shape
    on_image = np.flatnonzero((col >= 0) & (col < width) & (row >= 0) & (row < height))
    return on_image, row[on_image].astype(np.int64), col[on_image].astype(np.int64)


@dataclass
class FlowField:
    """Dense optical flow between two frames separated by dt seconds.

    flow[row, col] is the pixel displacement (du, dv) of whatever surface
    covers that pixel in the earlier frame. Covered pixels hold finite flow,
    uncovered pixels (0, 0).
    """

    flow: np.ndarray       # (H, W, 2) float32, pixels
    covered: np.ndarray    # (H, W) bool
    dt: float              # seconds

    def __post_init__(self) -> None:
        self.flow = np.asarray(self.flow, dtype=np.float32)
        self.covered = np.asarray(self.covered, dtype=bool)
        if self.flow.ndim != 3 or self.flow.shape[2] != 2:
            raise ValueError(f"flow must be (H, W, 2), got {self.flow.shape}")
        if self.covered.shape != self.flow.shape[:2]:
            raise ValueError(
                f"covered shape {self.covered.shape} does not match flow {self.flow.shape[:2]}"
            )
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        # Counted in place: no full-image temporaries for a sparse field.
        on_covered = self.flow[self.covered]
        if np.count_nonzero(self.flow) != np.count_nonzero(on_covered):
            raise ValueError("uncovered pixels must carry zero flow")
        if not np.isfinite(on_covered).all():
            raise ValueError("covered pixels must carry finite flow")


@dataclass
class FramePair:
    """Camera pose change between the two frames of a flow measurement.

    rotation_a_to_b re-expresses a vector from the later camera frame (where
    the solve happens) in the earlier one. Identity for a static rig; camera
    translation between the frames is folded into the point coordinates by
    the caller.
    """

    rotation_a_to_b: np.ndarray = field(default_factory=lambda: np.eye(3))
    dt: float = 0.1  # seconds

    def __post_init__(self) -> None:
        self.rotation_a_to_b = check_rotation(self.rotation_a_to_b, "frame pair rotation")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass
class VelocityPointCloud:
    """Point cloud with an estimated 3D velocity and a status per point.

    Positions and velocities are in the radar frame. Points whose status is
    not OK carry a zero velocity.
    """

    positions: np.ndarray    # (N, 3) float64, meters
    velocities: np.ndarray   # (N, 3) float64, m/s
    status: np.ndarray       # (N,) uint8, PointStatus values

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.status = np.asarray(self.status, dtype=np.uint8)
        n = len(self.positions)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.velocities.shape != (n, 3):
            raise ValueError(f"velocities must be ({n}, 3), got {self.velocities.shape}")
        if self.status.shape != (n,):
            raise ValueError(f"status must be ({n},), got {self.status.shape}")
        bad = ~np.isin(self.status, [s.value for s in PointStatus])
        if bad.any():
            raise ValueError(f"unknown status codes: {sorted(set(self.status[bad]))}")
        not_ok = self.status != PointStatus.OK
        if np.any(self.velocities[not_ok] != 0):
            raise ValueError("points without OK status must carry zero velocity")

    def __len__(self) -> int:
        return len(self.positions)
