"""Radar cube construction: windowed FFTs over the raw ADC tensor.

The ADC tensor is indexed (chirp, sample, azimuth antenna, elevation antenna).
Hanning windows are applied along the sample and chirp axes, then FFTs along
all four axes produce a magnitude cube indexed (range, azimuth, elevation,
doppler). The Doppler and both angle axes are center-shifted so zero velocity
and boresight sit at the middle bin; the range axis is left unshifted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadarConfig:
    """FMCW radar geometry and resolution settings.

    Angle bins map linearly across the field of view with boresight at the
    center bin, so one azimuth bin spans azimuth_fov / n_azimuth_bins radians.
    With one_sided_range=False the full complex-baseband range spectrum is
    kept (n_samples bins); True keeps the lower half only.
    """

    n_samples: int = 128
    n_chirps: int = 32
    n_azimuth_bins: int = 32
    n_elevation_bins: int = 8
    range_resolution: float = 0.0469            # m per range bin
    speed_resolution: float = 0.175             # m/s per doppler bin
    azimuth_fov: float = math.radians(64.0)     # rad
    elevation_fov: float = math.radians(40.0)   # rad
    threshold_db: float = 5.0                   # relative intensity cut
    one_sided_range: bool = False

    def __post_init__(self) -> None:
        for name in ("n_samples", "n_chirps", "n_azimuth_bins", "n_elevation_bins"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        for name in ("range_resolution", "speed_resolution", "azimuth_fov",
                     "elevation_fov", "threshold_db"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def n_range_bins(self) -> int:
        return self.n_samples // 2 if self.one_sided_range else self.n_samples

    @property
    def max_range(self) -> float:
        """Range coverage of the cube in meters."""
        return self.n_range_bins * self.range_resolution

    @property
    def max_speed(self) -> float:
        """Unambiguous radial speed in m/s (half the sampled Doppler span)."""
        return (self.n_chirps // 2) * self.speed_resolution

    @property
    def azimuth_bin_width(self) -> float:
        return self.azimuth_fov / self.n_azimuth_bins

    @property
    def elevation_bin_width(self) -> float:
        return self.elevation_fov / self.n_elevation_bins


@dataclass
class AdcCube:
    """Raw complex ADC samples, indexed (chirp, sample, az antenna, el antenna)."""

    samples: np.ndarray  # complex64

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex64)
        if self.samples.ndim != 4:
            raise ValueError(f"ADC tensor must have 4 axes, got shape {self.samples.shape}")


@dataclass
class RadarCube:
    """Magnitude spectrum indexed (range, azimuth, elevation, doppler)."""

    magnitudes: np.ndarray  # float32, non-negative

    def __post_init__(self) -> None:
        self.magnitudes = np.ascontiguousarray(self.magnitudes, dtype=np.float32)
        if self.magnitudes.ndim != 4:
            raise ValueError(f"cube must have 4 axes, got shape {self.magnitudes.shape}")
        if len(self.magnitudes) and self.magnitudes.min() < 0:
            raise ValueError("cube magnitudes must be non-negative")


def build_radar_cube(adc: AdcCube, cfg: RadarConfig) -> RadarCube:
    """Transform an ADC tensor into a (range, azimuth, elevation, doppler) cube.

    Sample and chirp axes are Hanning-windowed before their FFTs; the angle
    axes are transformed unwindowed. Doppler and angle axes are fftshifted so
    zero velocity / boresight land at bin n // 2.
    """
    expected = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    if adc.samples.shape != expected:
        raise ValueError(
            f"ADC shape {adc.samples.shape} does not match config "
            f"(chirps, samples, az, el) = {expected}"
        )
    w_chirp = np.hanning(cfg.n_chirps).astype(np.float32)
    w_sample = np.hanning(cfg.n_samples).astype(np.float32)
    x = adc.samples * w_chirp[:, None, None, None]
    x *= w_sample[None, :, None, None]

    x = np.fft.fft(x, axis=1)[:, : cfg.n_range_bins]            # sample -> range
    x = np.fft.fftshift(np.fft.fft(x, axis=0), axes=0)          # chirp -> doppler
    x = np.fft.fftshift(np.fft.fft(x, axis=2), axes=2)          # az antenna -> azimuth
    x = np.fft.fftshift(np.fft.fft(x, axis=3), axes=3)          # el antenna -> elevation

    mag = np.abs(x).astype(np.float32, copy=False)
    # (doppler, range, az, el) -> (range, az, el, doppler)
    return RadarCube(np.ascontiguousarray(mag.transpose(1, 2, 3, 0)))


def threshold_cube(cube: RadarCube, threshold_db: float) -> RadarCube:
    """Zero every voxel more than threshold_db below the global peak.

    The cut is in amplitude decibels: a voxel survives iff
    20 * log10(peak / value) <= threshold_db. An all-zero cube passes through
    unchanged and the operation is idempotent.
    """
    if not threshold_db > 0:
        raise ValueError(f"threshold_db must be positive, got {threshold_db}")
    mag = cube.magnitudes
    peak = float(mag.max()) if mag.size else 0.0
    if peak == 0.0:
        return RadarCube(mag.copy())
    cut = peak * 10.0 ** (-threshold_db / 20.0)
    return RadarCube(np.where(mag >= cut, mag, 0.0).astype(np.float32))


def doppler_bin_velocities(cfg: RadarConfig) -> np.ndarray:
    """Radial velocity represented by each (shifted) Doppler bin."""
    return (np.arange(cfg.n_chirps) - cfg.n_chirps // 2) * cfg.speed_resolution


def bin_to_physical(
    range_bin: int, azimuth_bin: int, elevation_bin: int, doppler_bin: int, cfg: RadarConfig
) -> tuple[float, float, float, float]:
    """Map cube bin indices to (range m, azimuth rad, elevation rad, velocity m/s)."""
    bounds = (
        ("range_bin", range_bin, cfg.n_range_bins),
        ("azimuth_bin", azimuth_bin, cfg.n_azimuth_bins),
        ("elevation_bin", elevation_bin, cfg.n_elevation_bins),
        ("doppler_bin", doppler_bin, cfg.n_chirps),
    )
    for name, value, count in bounds:
        if not 0 <= value < count:
            raise ValueError(f"{name} {value} outside [0, {count})")
    rng = range_bin * cfg.range_resolution
    az = (azimuth_bin - cfg.n_azimuth_bins // 2) * cfg.azimuth_bin_width
    el = (elevation_bin - cfg.n_elevation_bins // 2) * cfg.elevation_bin_width
    vel = (doppler_bin - cfg.n_chirps // 2) * cfg.speed_resolution
    return rng, az, el, vel
