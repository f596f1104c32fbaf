"""Radar cube construction: four DFT-matrix products over the raw ADC tensor.

The ADC tensor is indexed (chirp, sample, azimuth antenna, elevation antenna).
Each axis is transformed by a product with its complex64 DFT matrix, which
carries the Hanning window on the sample and chirp axes and the center shift
on the others, giving a magnitude cube indexed (range, azimuth, elevation,
doppler). The Doppler and both angle axes are center-shifted so zero velocity
and boresight sit at the middle bin; the range axis is left unshifted and
keeps one bin per sample of the complex-baseband spectrum.

build_radar_cube runs the range, elevation and azimuth products as one BLAS
call per chirp, each over the whole chirp, and the Doppler product as one call
per chunk of range bins: 3 n_chirps calls per frame plus one per chunk (104 on
the default radar, in 8 chunks of 16 bins), however many antennas there are.
On the default radar every one of them is wide enough for OpenBLAS to run it
on its worker threads. The chirps go through the range and angle products in
groups, and the Doppler product through its chunks, in one complex buffer the
size of the ADC tensor and a 1 MiB scratch (_magnitudes). The process
command's path, velcube.velocity_cube, makes the same range calls but runs
the angle and Doppler calls only over the few range bins that can reach the
threshold cut (_cut_range_bins): 4 to 8 of 128 on a demo frame.

The magnitude of each Doppler chunk is written straight into its place in
that product's own memory order (doppler, range, elevation, azimuth); the
cube is a transposed view of it, so the Doppler axis is outermost in memory
and a reduce over it runs over whole (range, azimuth, elevation) slices.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadarConfig:
    """FMCW radar geometry and resolution settings.

    Angle bins map linearly across the field of view with boresight at the
    center bin, so one azimuth bin spans azimuth_fov / n_azimuth_bins radians.
    The range axis keeps the full complex-baseband spectrum: n_samples bins.
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
        return self.n_samples

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


_FINITE_BLOCK = 1 << 18  # values per np.isfinite call of _all_finite


def _all_finite(values: np.ndarray) -> bool:
    """np.isfinite(values).all() without a mask of the array's size: the
    values are read in memory order, at most _FINITE_BLOCK at a time."""
    flat = np.ravel(values, order="K")  # a view unless values is strided
    return all(np.isfinite(flat[k:k + _FINITE_BLOCK]).all()
               for k in range(0, flat.size, _FINITE_BLOCK))


@dataclass
class AdcCube:
    """Raw complex ADC samples, indexed (chirp, sample, az antenna, el antenna).

    Every sample must be finite: one NaN spreads through the DFT products to
    the whole cube and silently invalidates every voxel.
    """

    samples: np.ndarray  # complex64

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex64)
        if self.samples.ndim != 4:
            raise ValueError(f"ADC tensor must have 4 axes, got shape {self.samples.shape}")
        if not _all_finite(self.samples.view(np.float32)):
            raise ValueError("ADC samples must be finite")


@dataclass
class RadarCube:
    """Magnitude spectrum indexed (range, azimuth, elevation, doppler).

    The array is kept as given, in whatever memory order: build_radar_cube's
    is a transposed view with the Doppler axis outermost, which
    threshold_cube keeps. Any order holds the same values and collapses to the
    same bits; the Doppler-major one collapses fastest.
    """

    magnitudes: np.ndarray  # float32, finite, non-negative

    def __post_init__(self) -> None:
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float32)
        if self.magnitudes.ndim != 4:
            raise ValueError(f"cube must have 4 axes, got shape {self.magnitudes.shape}")
        if not _all_finite(self.magnitudes):
            raise ValueError("cube magnitudes must be finite")
        if len(self.magnitudes) and self.magnitudes.min() < 0:
            raise ValueError("cube magnitudes must be non-negative")


@functools.lru_cache(maxsize=None)
def _dft_matrix(n: int, window: bool, shift: bool) -> np.ndarray:
    """Read-only complex64 n x n DFT matrix, formed in float64.

    window scales column j by the float32 Hanning weight of sample j; shift
    puts the rows in fftshift order, so zero frequency is row n // 2.
    """
    k = np.arange(n)
    phase = np.outer(np.roll(k, n // 2) if shift else k, k) % n / n
    weights = np.hanning(n).astype(np.float32) if window else 1.0
    m = (np.exp(-2j * np.pi * phase) * weights).astype(np.complex64)
    m.flags.writeable = False
    return m


def _expected_shape(adc: AdcCube, cfg: RadarConfig) -> tuple[int, int, int, int]:
    expected = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    if adc.samples.shape != expected:
        raise ValueError(
            f"ADC shape {adc.samples.shape} does not match config "
            f"(chirps, samples, az, el) = {expected}"
        )
    return expected


def _range_spectrum(samples: np.ndarray, out: np.ndarray) -> None:
    """The windowed range product of every chirp of samples into out, both
    (chirp, sample or range, A, E)."""
    n_c, n_s = samples.shape[:2]
    np.matmul(_dft_matrix(n_s, True, False), samples.reshape(n_c, n_s, -1),
              out=out.reshape(n_c, n_s, -1))                                        # (C, R, A, E)


# BLAS kernels compute a product in tiles of a few rows and columns, at most 16,
# and run the rows and columns left over at the end through narrower kernels that
# may round differently. _magnitudes' chunks and _gathered_bins keep every entry
# of a product in the kind of tile it has in the full build's product.
_TILE = 16


# Complex64 values in the scratch of _magnitudes, 1 MiB: the angle products run
# on as many whole chirps as fit in it, at least one, and the Doppler product on
# as many range bins as fit, at least the fewest that span _TILE columns.
_SCRATCH_VALUES = 1 << 17


def _magnitudes(shape: tuple[int, int, int, int], range_spectrum) -> RadarCube:
    """build_radar_cube's magnitudes of a range spectrum of the given shape,
    (chirp, range, azimuth, elevation), for any number of range bins, seen as
    (range, azimuth, elevation, doppler). range_spectrum(chirps, out) writes
    the spectrum of a slice of chirps into out.

    The chirps go in groups through one buffer p of the spectrum's size and a
    scratch of a few chirps, each step writing the other: the range spectrum
    into the scratch, the elevation product into p, one transposing copy that
    moves azimuth last into the scratch, and the azimuth product into p, so p
    ends holding the chirps in (chirp, range, elevation, azimuth) order. The
    angle products take one call per chirp, the transformed axis last. The
    Doppler product then runs over chunks of range bins through the scratch,
    and its magnitudes are written straight into their place in the Doppler
    product's own order (doppler, range, elevation, azimuth). Each output
    entry is a product over one range bin's entries alone, and every chunk but
    the last spans a multiple of _TILE columns, so a run on some of the range
    bins gives those bins the values a run on all of them gives, and the same
    bits on the bins _gathered_bins picks.
    """
    n_c, n_r, n_a, n_e = shape
    width = n_a * n_e                                   # values per chirp and range bin
    group = min(n_c, max(1, _SCRATCH_VALUES // (n_r * width)))
    unit = _TILE // math.gcd(_TILE, width)              # range bins per _TILE columns
    chunk = min(n_r, max(unit, _SCRATCH_VALUES // (n_c * width) // unit * unit))
    scratch = np.empty(max(group * n_r, n_c * chunk) * width, dtype=np.complex64)
    p = np.empty(shape, dtype=np.complex64)
    for c in range(0, n_c, group):
        chirps = slice(c, c + group)
        q = p[chirps]
        k, s = len(q), scratch[:q.size]
        range_spectrum(chirps, s.reshape(q.shape))                                  # (C, R, A, E)
        np.matmul(s.reshape(k, -1, n_e), _dft_matrix(n_e, False, True).T,
                  out=q.reshape(k, -1, n_e))                                        # (C, R, A, E)
        np.copyto(s.reshape(k, n_r, n_e, n_a),
                  q.reshape(k, n_r, n_a, n_e).transpose(0, 1, 3, 2))               # (C, R, E, A)
        np.matmul(s.reshape(k, -1, n_a), _dft_matrix(n_a, False, True).T,
                  out=q.reshape(k, -1, n_a))                                        # (C, R, E, A)
    mag = np.empty((n_c, n_r, n_e, n_a), dtype=np.float32)
    angles, out = p.reshape(n_c, -1), mag.reshape(n_c, -1)
    for r in range(0, n_r, chunk):
        cols = slice(r * width, min(r + chunk, n_r) * width)
        d = np.matmul(_dft_matrix(n_c, True, True), angles[:, cols],
                      out=scratch[:n_c * (cols.stop - cols.start)].reshape(n_c, -1))
        np.abs(d, out=out[:, cols])                                                 # (C, R, E, A)
    return RadarCube(mag.transpose(1, 3, 2, 0))                                     # (R, A, E, C)


def build_radar_cube(adc: AdcCube, cfg: RadarConfig) -> RadarCube:
    """Transform an ADC tensor into a (range, azimuth, elevation, doppler) cube.

    Sample and chirp axes are Hanning-windowed; the angle axes are not.
    Doppler and angle axes are center-shifted so zero velocity / boresight
    land at bin n // 2. The products run in one complex buffer the size of
    the ADC tensor and a 1 MiB scratch, larger only where one chirp or one
    _TILE-wide chunk of range bins needs more (_magnitudes).
    The magnitudes are written contiguously in the Doppler product's order,
    (doppler, range, elevation, azimuth), and the cube indexes them through a
    transposed view of that buffer.
    """
    expected = _expected_shape(adc, cfg)
    return _magnitudes(expected, lambda chirps, out: _range_spectrum(adc.samples[chirps], out))


# Relative slack on the range-bin bound of _cut_range_bins. The rounding of
# the three complex64 products and of the bound's own float32 sums stays below
# about (n_chirps + n_azimuth_bins + n_elevation_bins + 16) * 2**-24 * sqrt(2)
# of the bound, 1e-5 on the default radar and below 1e-4 up to a thousand bins
# over the three axes, and the float32 rounding of the cut is 6e-8 of it: 1e-3
# covers both with room.
BOUND_SLACK = 1e-3


def _gathered_bins(keep: np.ndarray, n_a: int, n_e: int) -> np.ndarray:
    """The range bins keep marks, plus the fewest others that make each
    gathered product's length along the range axis (n_a, n_e or n_a * n_e
    rows per bin) congruent to the full build's modulo _TILE, with the top
    bins, which hold the full build's leftover rows, among them. Ascending."""
    n_r = len(keep)
    keep = keep.copy()
    keep[n_r - max(-(-(n_r * x % _TILE) // x) for x in (n_a, n_e)):] = True
    free = np.flatnonzero(~keep)
    extra = len(free) % (_TILE // math.gcd(_TILE, n_a, n_e))
    keep[free[len(free) - extra:]] = True
    return np.flatnonzero(keep)


def _bins_magnitudes(y: np.ndarray, bins: np.ndarray) -> RadarCube:
    """build_radar_cube's magnitudes of the given range bins of the range
    spectrum y, (range bin, azimuth, elevation, doppler)."""
    # The bins are in range, and mode="clip" takes them into out unbuffered.
    return _magnitudes((y.shape[0], len(bins), *y.shape[2:]),
                       lambda chirps, out: np.take(y[chirps], bins, axis=1, out=out,
                                                   mode="clip"))


def _cut_range_bins(adc: AdcCube, cfg: RadarConfig) -> tuple[np.ndarray, RadarCube]:
    """The range bins that can hold a voxel within cfg.threshold_db of the
    global peak, with build_radar_cube's magnitudes on them.

    Every voxel of range bin r is at most B[r] = sum_c max_d |D[d, c]| *
    sum_(a, e) |Y[c, r, a, e]|, with Y the range spectrum and D the Doppler
    matrix: the angle matrices' entries have unit modulus. The angle and
    Doppler products run first on the bin of largest B, whose strongest
    magnitude P1 is at most the global peak, and then on every bin with
    B[r] * (1 + BOUND_SLACK) > threshold_cut(P1); each run also takes the
    bins _gathered_bins adds. A skipped bin stays below
    the float32 cut even after rounding, so it holds neither the peak nor a
    voxel that reaches the cut, and the computed bins hold the build's bits.
    Bins whose bound is not finite, or whose per-chirp sums come near the
    float32 limit, are computed, so a cube that overflows raises as the
    build does.
    """
    n_c, n_r, n_a, n_e = _expected_shape(adc, cfg)
    y = np.empty((n_c, n_r, n_a, n_e), dtype=np.complex64)
    _range_spectrum(adc.samples, y)
    sums = np.empty((n_c, n_r))
    row = np.empty((n_r, n_a * n_e), dtype=np.float32)
    for c in range(n_c):
        np.abs(y[c].reshape(n_r, -1), out=row)
        sums[c] = row.sum(axis=1)
    bound = np.abs(_dft_matrix(n_c, True, True)).max(axis=0).astype(np.float64) @ sums
    bound[sums.max(axis=0) * (1 + BOUND_SLACK) >= np.finfo(np.float32).max] = np.inf
    first = np.zeros(n_r, dtype=bool)
    first[np.argmax(bound)] = True
    bins = _gathered_bins(first, n_a, n_e)
    peak = float(_bins_magnitudes(y, bins).magnitudes.max())
    keep = ~(bound * (1 + BOUND_SLACK) <= threshold_cut(peak, cfg.threshold_db)) | first
    bins = _gathered_bins(keep, n_a, n_e)
    return bins, _bins_magnitudes(y, bins)


def threshold_cut(peak: float, threshold_db: float) -> float:
    """Amplitude threshold_db decibels below peak.

    The cut is formed in float64 from float(peak). Callers compare it with
    float32 magnitudes, so it is rounded to float32 there: a voxel equal to
    the rounded cut survives.
    """
    if not threshold_db > 0:
        raise ValueError(f"threshold_db must be positive, got {threshold_db}")
    return peak * 10.0 ** (-threshold_db / 20.0)


def threshold_cube(cube: RadarCube, threshold_db: float) -> RadarCube:
    """Zero every voxel more than threshold_db below the global peak.

    The cut is in amplitude decibels: a voxel survives iff
    20 * log10(peak / value) <= threshold_db. An all-zero cube passes through
    unchanged and the operation is idempotent. The result keeps the input's
    memory order.
    """
    mag = cube.magnitudes
    peak = float(mag.max()) if mag.size else 0.0
    cut = threshold_cut(peak, threshold_db)
    return RadarCube(np.where(mag >= cut, mag, 0.0))


def doppler_bin_velocities(cfg: RadarConfig) -> np.ndarray:
    """Radial velocity represented by each (shifted) Doppler bin."""
    return (np.arange(cfg.n_chirps) - cfg.n_chirps // 2) * cfg.speed_resolution
