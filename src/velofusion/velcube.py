"""Velocity cube: per-voxel radial velocity from the Doppler argmax.

Collapsing the Doppler axis of a radar cube, with the relative-intensity
threshold applied on the way, leaves one radial velocity per spatial voxel
plus a validity mask. Points are looked up through an axis-aligned context
window around their nearest bin; the strongest mover (largest |velocity|)
among the valid voxels in the window wins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import (
    AdcCube,
    RadarConfig,
    RadarCube,
    _cut_range_bins,
    doppler_bin_velocities,
    threshold_cut,
)
from .types import positive_int


@dataclass
class VelocityCube:
    """Radial velocity per (range, azimuth, elevation) voxel."""

    velocity: np.ndarray   # (n_range, n_az, n_el) float64, m/s
    valid: np.ndarray      # same shape, bool
    config: RadarConfig

    def __post_init__(self) -> None:
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.velocity.ndim != 3:
            raise ValueError(f"velocity cube must have 3 axes, got {self.velocity.shape}")
        if self.valid.shape != self.velocity.shape:
            raise ValueError(
                f"valid mask shape {self.valid.shape} != velocity shape {self.velocity.shape}"
            )
        if np.any(self.velocity[~self.valid] != 0):
            raise ValueError("invalid voxels must carry zero velocity")
        if not (np.abs(self.velocity[self.valid]) <= self.config.max_speed).all():  # NaN fails
            raise ValueError("valid voxel velocities must be finite and within the "
                             "unambiguous interval")


@dataclass
class ContextWindow:
    """Bin extents of the search window around a queried point."""

    azimuth_extent: int = 10
    elevation_extent: int = 10
    range_extent: int = 20

    def __post_init__(self) -> None:
        for name in ("azimuth_extent", "elevation_extent", "range_extent"):
            setattr(self, name, positive_int(name, getattr(self, name)))


def collapse_doppler(cube: RadarCube, cfg: RadarConfig) -> VelocityCube:
    """Pick the strongest Doppler bin per spatial voxel of the thresholded cube.

    A voxel is valid when its strongest bin is positive and reaches the cut
    cfg.threshold_db below the cube's global peak, the rule of threshold_cube;
    invalid voxels carry velocity 0. Exact magnitude ties go to the bin of
    smallest |velocity|, then to the lower bin index. The cut keeps the global
    peak and every bin tied with a surviving voxel's strongest, so collapsing
    a threshold_cube output gives the same velocity cube.

    The strongest bin is mag.max(axis=-1). On build_radar_cube's cube the
    Doppler axis is outermost in memory, so numpy reduces it over whole
    (range, azimuth, elevation) slices: 0.2 ms on a demo cube (2-vCPU Xeon).
    A caller-built C-ordered cube collapses to the same bits, only slower:
    there the reduce runs along each voxel's short contiguous row, 4.3 ms on
    a demo cube.
    """
    mag = cube.magnitudes
    expected = (cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins, cfg.n_chirps)
    if mag.shape != expected:
        raise ValueError(f"cube shape {mag.shape} does not match config {expected}")
    return VelocityCube(*_collapse(mag, cfg), cfg)


def _collapse(mag: np.ndarray, cfg: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """collapse_doppler's (velocity, valid) of a (range, azimuth, elevation,
    doppler) magnitude array over any number of range bins that hold the
    global peak."""
    strongest = mag.max(axis=-1)
    cut = threshold_cut(float(strongest.max()), cfg.threshold_db)
    valid = (strongest >= cut) & (strongest > 0)
    vels = doppler_bin_velocities(cfg)
    # Reorder Doppler bins by tie-break priority so the first argmax hit wins.
    order = np.lexsort((np.arange(cfg.n_chirps), np.abs(vels)))
    velocity = np.zeros(valid.shape)
    velocity[valid] = vels[order[np.argmax(mag[valid][:, order], axis=-1)]]
    return velocity, valid


def velocity_cube(adc: AdcCube, cfg: RadarConfig) -> tuple[VelocityCube, np.ndarray]:
    """collapse_doppler(build_radar_cube(adc, cfg), cfg), bit for bit, with the
    angle and Doppler products run only on the range bins that can reach the
    cut (see cube._cut_range_bins); the other bins are invalid.

    Returns the velocity cube and the indices of the range bins whose angle
    and Doppler spectra were computed. On a demo frame these are 4 to 8 of
    128, and the call takes about half the time and memory of the full build.
    """
    bins, cube = _cut_range_bins(adc, cfg)
    velocity = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros(velocity.shape, dtype=bool)
    velocity[bins], valid[bins] = _collapse(cube.magnitudes, cfg)
    return VelocityCube(velocity, valid, cfg), bins


def cartesian_to_polar(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(..., 3) radar-frame points -> (range m, azimuth rad, elevation rad).

    x points forward, y left, z up; azimuth = atan2(y, x), elevation is the
    angle above the xy plane. Each output has the input's leading shape, so
    one point gives three scalars.
    """
    pts = np.asarray(points, dtype=np.float64)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    with np.errstate(over="ignore"):  # a huge coordinate is at range inf
        rng = np.sqrt(x * x + y * y + z * z)
    if np.any(rng == 0.0):
        raise ValueError("zero-range point has no direction")
    az = np.arctan2(y, x)
    el = np.arcsin(np.clip(z / rng, -1.0, 1.0))
    return rng, az, el


def point_bins(points: np.ndarray, cfg: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nearest (range, azimuth, elevation) bin of every point.

    Returns (bins, inside): bins is (N, 3) int64, inside is False for points
    outside the cube coverage (zero range, a non-finite coordinate, beyond
    max range, a range too large for float64, or outside the angular FoV),
    whose bins read 0.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    bins = np.zeros((len(pts), 3), dtype=np.int64)
    x, y, z = pts.T
    with np.errstate(over="ignore"):  # a huge coordinate is beyond max range
        idx = np.flatnonzero(np.isfinite(pts).all(axis=1) & (x * x + y * y + z * z > 0))
    rng, az, el = cartesian_to_polar(pts[idx])
    keep = ((rng <= cfg.max_range) & (np.abs(az) <= cfg.azimuth_fov / 2)
            & (np.abs(el) <= cfg.elevation_fov / 2))
    idx, rng, az, el = idx[keep], rng[keep], az[keep], el[keep]
    bins[idx, 0] = np.clip(np.rint(rng / cfg.range_resolution), 0, cfg.n_range_bins - 1)
    bins[idx, 1] = np.clip(cfg.n_azimuth_bins // 2 + np.rint(az / cfg.azimuth_bin_width),
                           0, cfg.n_azimuth_bins - 1)
    bins[idx, 2] = np.clip(cfg.n_elevation_bins // 2 + np.rint(el / cfg.elevation_bin_width),
                           0, cfg.n_elevation_bins - 1)
    inside = np.zeros(len(pts), dtype=bool)
    inside[idx] = True
    return bins, inside


def _sliding_max(a: np.ndarray, extent: int, axis: int) -> np.ndarray:
    """Max over a window of extent bins along one axis, clamped at the edges.

    The window of bin c spans [c - extent // 2, c + extent - 1 - extent // 2]:
    an even extent places the extra bin below the center. Bins beyond the
    cube read -1. Windows of doubling width are built by pairwise maxima
    until one more doubling would exceed extent; two of them, overlapping,
    cover the window.
    """
    n = a.shape[axis]
    pad = [(0, 0)] * a.ndim
    pad[axis] = (extent // 2, extent - 1 - extent // 2)
    m = np.moveaxis(np.pad(a, pad, constant_values=-1), axis, 0)
    width = 1
    while 2 * width <= extent:  # m[i] = max of the padded bins [i, i + width)
        m = np.maximum(m[:-width], m[width:])
        width *= 2
    return np.moveaxis(np.maximum(m[:n], m[extent - width:extent - width + n]), 0, axis)


def window_table(vc: VelocityCube, window: ContextWindow) -> VelocityCube:
    """The context-window rule evaluated around every voxel at once.

    Voxel (r, a, e) of the result holds the largest-|velocity| valid voxel of
    the window centered there, |velocity| ties going to the positive sign; it
    is invalid when the window holds no valid voxel. Window edges are clamped
    to the cube, never wrapped. Each distinct valid velocity gets a rank in
    that order (invalid voxels -1), so the rule is a separable sliding max of
    ranks along range, azimuth and elevation.
    """
    values, inverse = np.unique(vc.velocity[vc.valid], return_inverse=True)
    order = np.lexsort((values > 0, np.abs(values)))
    rank_of = np.empty(len(values), dtype=np.int64)
    rank_of[order] = np.arange(len(values))
    rank = np.full(vc.velocity.shape, -1, dtype=np.int64)
    rank[vc.valid] = rank_of[inverse]
    extents = (window.range_extent, window.azimuth_extent, window.elevation_extent)
    for axis, extent in enumerate(extents):
        rank = _sliding_max(rank, extent, axis)
    found = rank >= 0
    velocity = np.zeros(vc.velocity.shape)
    velocity[found] = values[order][rank[found]]
    return VelocityCube(velocity, found, vc.config)


def query_radial_velocity(
    vc: VelocityCube, point: np.ndarray, window: ContextWindow
) -> tuple[float, bool]:
    """One point's read of window_table: (velocity, found).

    found is False when the point lies outside the cube coverage or its
    window holds no valid voxel.
    """
    bins, inside = point_bins(point, vc.config)
    if not inside[0]:
        return 0.0, False
    table = window_table(vc, window)
    voxel = tuple(bins[0])
    return float(table.velocity[voxel]), bool(table.valid[voxel])
