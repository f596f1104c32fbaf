from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velofusion.cube import RadarCube, RadarConfig, threshold_cube, threshold_cut
from velofusion.velcube import (
    ContextWindow,
    VelocityCube,
    cartesian_to_polar,
    collapse_doppler,
    point_bins,
    query_radial_velocity,
    window_table,
)

from helpers import brute_collapse, brute_window_at, brute_window_query, window_coverage

SMALL = RadarConfig(
    n_samples=16,
    n_chirps=8,
    n_azimuth_bins=8,
    n_elevation_bins=4,
)


def _mag(cfg: RadarConfig) -> np.ndarray:
    return np.zeros(
        (cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins, cfg.n_chirps),
        dtype=np.float32,
    )


def test_collapse_zero_cube_is_invalid_everywhere():
    vc = collapse_doppler(RadarCube(_mag(SMALL)), SMALL)
    assert not vc.valid.any()
    assert np.all(vc.velocity == 0)


def test_collapse_single_peak():
    cfg = RadarConfig()
    mag = _mag(cfg)
    mag[64, 16, 4, 20] = 3.0
    vc = collapse_doppler(RadarCube(mag), cfg)
    assert vc.valid[64, 16, 4]
    assert vc.velocity[64, 16, 4] == pytest.approx(0.7)
    assert vc.valid.sum() == 1


def test_collapse_tie_prefers_smaller_speed():
    cfg = RadarConfig()
    mag = _mag(cfg)
    # equal peaks at -0.35 m/s (bin 14) and +0.70 m/s (bin 20)
    mag[10, 3, 2, 14] = 2.0
    mag[10, 3, 2, 20] = 2.0
    vc = collapse_doppler(RadarCube(mag), cfg)
    assert vc.velocity[10, 3, 2] == pytest.approx(-0.35)


def test_collapse_tie_on_speed_prefers_lower_bin():
    cfg = RadarConfig()
    mag = _mag(cfg)
    # equal peaks at -0.70 (bin 12) and +0.70 (bin 20): same magnitude of
    # velocity, so the lower doppler bin wins
    mag[10, 3, 2, 12] = 2.0
    mag[10, 3, 2, 20] = 2.0
    vc = collapse_doppler(RadarCube(mag), cfg)
    assert vc.velocity[10, 3, 2] == pytest.approx(-0.7)


def test_collapse_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(5):
        mag = _mag(SMALL)
        # quantized magnitudes with plenty of zeros to force ties
        vals = rng.integers(0, 4, size=mag.shape).astype(np.float32)
        mag[:] = vals * 0.5
        vc = collapse_doppler(RadarCube(mag), SMALL)
        thresholded = threshold_cube(RadarCube(mag), SMALL.threshold_db).magnitudes
        want_vel, want_valid = brute_collapse(thresholded, SMALL)
        assert np.array_equal(vc.valid, want_valid)
        assert np.array_equal(vc.velocity, want_vel)


@pytest.mark.parametrize("n_chirps", range(2, 10))
def test_collapse_matches_brute_force_for_every_chirp_count(n_chirps):
    """Odd counts make the halves of the Doppler axis overlap."""
    cfg = replace(SMALL, n_chirps=n_chirps)
    rng = np.random.default_rng(n_chirps)
    for levels in (1, 3, 50):
        mag = (rng.integers(0, levels + 1, size=_mag(cfg).shape) * 0.5).astype(np.float32)
        vc = collapse_doppler(RadarCube(mag), cfg)
        thresholded = threshold_cube(RadarCube(mag), cfg.threshold_db).magnitudes
        want_vel, want_valid = brute_collapse(thresholded, cfg)
        assert np.array_equal(vc.valid, want_valid)
        assert np.array_equal(vc.velocity, want_vel)


@pytest.mark.parametrize("n", range(1, 34))
def test_last_axis_max_is_numpy_max(n):
    """collapse_doppler's strongest bin, mag.max(axis=-1) over the Doppler-major
    view that build_radar_cube returns, is the C-ordered max bit for bit, and
    from two chirps on the collapse finds a peak at any Doppler bin."""
    rng = np.random.default_rng(n)
    a = np.abs(rng.standard_normal((5, 3, 2, n))).astype(np.float32)
    peak = int(rng.integers(n))
    a[0, 0, 0, peak] = np.float32(7.0)  # one peak at a random bin
    view = np.ascontiguousarray(a.transpose(3, 0, 2, 1)).transpose(1, 3, 2, 0)
    cube = RadarCube(view)
    assert np.shares_memory(cube.magnitudes, view)
    got = cube.magnitudes.max(axis=-1)
    assert got.shape == (5, 3, 2) and got[0, 0, 0] == 7.0
    assert np.array_equal(got, a.max(axis=-1))
    if n < 2:  # RadarConfig needs two chirps
        return
    cfg = RadarConfig(n_samples=5, n_chirps=n, n_azimuth_bins=3, n_elevation_bins=2)
    vc = collapse_doppler(cube, cfg)
    assert vc.valid[0, 0, 0]
    assert vc.velocity[0, 0, 0] == (peak - n // 2) * cfg.speed_resolution
    want_vel, want_valid = brute_collapse(threshold_cube(RadarCube(a), cfg.threshold_db).magnitudes, cfg)
    assert np.array_equal(vc.valid, want_valid)
    assert vc.velocity.tobytes() == want_vel.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_chirps=st.integers(2, 33), levels=st.integers(1, 6))
def test_collapse_is_the_same_in_every_memory_order(seed, n_chirps, levels):
    """C order, build_radar_cube's Doppler-major order and a random axis order
    of one set of tied, quantized magnitudes collapse to the same bits."""
    cfg = replace(SMALL, n_chirps=n_chirps)
    rng = np.random.default_rng(seed)
    mag = (rng.integers(0, levels + 1, size=_mag(cfg).shape) * 0.5).astype(np.float32)
    perm = rng.permutation(4)
    layouts = [
        mag,
        np.ascontiguousarray(mag.transpose(3, 0, 2, 1)).transpose(1, 3, 2, 0),
        np.ascontiguousarray(mag.transpose(perm)).transpose(np.argsort(perm)),
    ]
    want_vel, want_valid = brute_collapse(
        threshold_cube(RadarCube(mag), cfg.threshold_db).magnitudes, cfg)
    for m in layouts:
        assert np.array_equal(m, mag)
        cube = RadarCube(m)
        assert np.shares_memory(cube.magnitudes, m)
        vc = collapse_doppler(cube, cfg)
        assert np.array_equal(vc.valid, want_valid)
        assert vc.velocity.tobytes() == want_vel.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 6),
       scale=st.floats(1e-3, 1e3), threshold_db=st.floats(0.1, 40.0))
def test_collapse_of_thresholded_cube_is_bit_identical(seed, levels, scale, threshold_db):
    """The process path collapses the raw cube; threshold_cube first changes no bit."""
    cfg = replace(SMALL, threshold_db=threshold_db)
    rng = np.random.default_rng(seed)
    # few levels: many exact ties within a voxel and many voxels near the cut
    mag = (rng.integers(0, levels + 1, size=_mag(cfg).shape) * scale).astype(np.float32)
    raw = collapse_doppler(RadarCube(mag), cfg)
    cut_first = collapse_doppler(threshold_cube(RadarCube(mag), threshold_db), cfg)
    assert np.array_equal(raw.valid, cut_first.valid)
    assert np.array_equal(raw.velocity, cut_first.velocity)


def test_collapse_voxel_at_the_float32_cut():
    """The cut is formed in float64 and compared in float32, as threshold_cube does."""
    cut64 = threshold_cut(5.0, SMALL.threshold_db)
    cut32 = np.float32(cut64)
    assert float(cut32) < cut64  # only a float32 comparison keeps a voxel at cut32
    mag = _mag(SMALL)
    mag[0, 0, 0, 5] = 5.0
    mag[1, 2, 3, 6] = cut32
    mag[2, 2, 3, 2] = np.nextafter(cut32, np.float32(0))
    vc = collapse_doppler(RadarCube(mag), SMALL)
    assert vc.valid[1, 2, 3] and vc.velocity[1, 2, 3] == pytest.approx(2 * 0.175)
    assert not vc.valid[2, 2, 3] and vc.velocity[2, 2, 3] == 0
    assert np.count_nonzero(vc.valid) == 2
    kept = threshold_cube(RadarCube(mag), SMALL.threshold_db).magnitudes
    assert kept[1, 2, 3, 6] == cut32 and kept[2, 2, 3, 2] == 0


def test_velocity_cube_validation():
    cfg = SMALL
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros_like(vel, dtype=bool)
    vel[0, 0, 0] = 0.5  # invalid voxel with nonzero velocity
    with pytest.raises(ValueError):
        VelocityCube(vel, valid, cfg)
    valid[0, 0, 0] = True
    VelocityCube(vel, valid, cfg)
    for bad in (99.0, np.nan, np.inf, -np.inf):  # beyond the unambiguous span, or not a number
        vel[0, 0, 0] = bad
        with pytest.raises(ValueError, match="finite and within the unambiguous interval"):
            VelocityCube(vel, valid, cfg)


def test_cartesian_to_polar_examples():
    r, az, el = cartesian_to_polar(np.array([1.0, 0.0, 0.0]))
    assert (r, az, el) == (1.0, 0.0, 0.0)
    r, az, el = cartesian_to_polar(np.array([1.0, 1.0, 0.0]))
    assert r == pytest.approx(np.sqrt(2))
    assert az == pytest.approx(np.pi / 4)
    r, az, el = cartesian_to_polar(np.array([0.0, 0.0, 2.0]))
    assert el == pytest.approx(np.pi / 2)
    with pytest.raises(ValueError):
        cartesian_to_polar(np.zeros(3))


def test_cartesian_to_polar_batch_matches_single_points():
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 3))
    rng, az, el = cartesian_to_polar(pts)
    assert rng.shape == az.shape == el.shape == (40,)
    for k, p in enumerate(pts):
        assert (rng[k], az[k], el[k]) == cartesian_to_polar(p)
    with pytest.raises(ValueError):
        cartesian_to_polar(np.vstack([pts, np.zeros((1, 3))]))


def test_point_bins_center_and_borders():
    cfg = RadarConfig()
    # azimuth 22 deg -> bin 27
    p22 = 2.0 * np.array([np.cos(np.radians(22)), np.sin(np.radians(22)), 0.0])
    pts = np.array([
        [3.0016, 0.0, 0.0],
        [7.0, 0.0, 0.0],   # beyond max range
        [1.0, 1.0, 0.0],   # outside azimuth fov (45 deg > 32 deg)
        [0.0, 0.0, 0.0],   # zero range: no direction
        p22,
    ])
    bins, inside = point_bins(pts, cfg)
    assert list(inside) == [True, False, False, False, True]
    assert tuple(bins[0]) == (64, 16, 4)
    assert bins[4, 1] == 27
    assert np.all(bins[~inside] == 0)
    assert bins.dtype == np.int64


def _random_cube(rng, cfg, density):
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = rng.random(vel.shape) < density
    # few distinct speeds of both signs, so |v| ties between signs are common
    vel[valid] = rng.integers(-3, 4, size=int(valid.sum())) * cfg.speed_resolution
    return VelocityCube(vel, valid, cfg)


@pytest.mark.parametrize("extents", [
    (1, 1, 1), (3, 2, 5), (2, 3, 4), (4, 4, 6), (5, 3, 7),
    (9, 5, 17),     # as large as or larger than every axis of SMALL
    (40, 40, 40),   # far larger than the cube
])
def test_window_table_matches_brute_force_every_voxel(extents):
    rng = np.random.default_rng(sum(extents))
    cfg = SMALL
    window = ContextWindow(*extents)
    for density in (0.0, 0.03, 0.3):
        vc = _random_cube(rng, cfg, density)
        table = window_table(vc, window)
        for voxel in np.ndindex(vc.velocity.shape):
            want = brute_window_at(vc.velocity, vc.valid, voxel, extents)
            assert (table.velocity[voxel], bool(table.valid[voxel])) == want, voxel


def test_query_singleton():
    cfg = RadarConfig()
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros_like(vel, dtype=bool)
    vel[64, 16, 4] = -1.2
    valid[64, 16, 4] = True
    vc = VelocityCube(vel, valid, cfg)
    v, found = query_radial_velocity(vc, np.array([3.0, 0.0, 0.0]), ContextWindow())
    assert found and v == pytest.approx(-1.2)


def test_query_prefers_larger_speed_then_positive():
    cfg = RadarConfig()
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros_like(vel, dtype=bool)
    vel[64, 16, 4] = 0.35
    vel[65, 16, 4] = -0.70
    valid[64, 16, 4] = True
    valid[65, 16, 4] = True
    vc = VelocityCube(vel, valid, cfg)
    v, found = query_radial_velocity(vc, np.array([3.0, 0.0, 0.0]), ContextWindow())
    assert found and v == pytest.approx(-0.70)
    # now add an equal-magnitude positive candidate: positive wins the tie
    vel2 = vel.copy()
    vel2[66, 16, 4] = 0.70
    valid2 = valid.copy()
    valid2[66, 16, 4] = True
    vc2 = VelocityCube(vel2, valid2, cfg)
    v, found = query_radial_velocity(vc2, np.array([3.0, 0.0, 0.0]), ContextWindow())
    assert found and v == pytest.approx(0.70)


def test_query_no_valid_voxel():
    cfg = RadarConfig()
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros_like(vel, dtype=bool)
    vc = VelocityCube(vel, valid, cfg)
    v, found = query_radial_velocity(vc, np.array([3.0, 0.0, 0.0]), ContextWindow())
    assert (v, found) == (0.0, False)


def test_query_out_of_coverage():
    cfg = RadarConfig()
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.ones_like(vel, dtype=bool)
    vc = VelocityCube(vel, valid, cfg)
    assert query_radial_velocity(vc, np.array([9.0, 0.0, 0.0]), ContextWindow())[1] is False
    assert query_radial_velocity(vc, np.zeros(3), ContextWindow())[1] is False
    assert query_radial_velocity(vc, np.array([1.0, 1.0, 0.0]), ContextWindow())[1] is False


def test_query_window_clamps_instead_of_wrapping():
    cfg = RadarConfig()
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros_like(vel, dtype=bool)
    # the only valid voxel sits at the far end of the range axis; a wrapped
    # window around a near point would reach it, a clamped one must not
    vel[127, 16, 4] = 1.0
    valid[127, 16, 4] = True
    vc = VelocityCube(vel, valid, cfg)
    near = np.array([0.1, 0.0, 0.0])
    assert query_radial_velocity(vc, near, ContextWindow(range_extent=20))[1] is False


def test_query_matches_brute_force():
    rng = np.random.default_rng(31)
    cfg = SMALL
    window = ContextWindow(azimuth_extent=3, elevation_extent=2, range_extent=5)
    for _ in range(40):
        vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
        valid = rng.random(vel.shape) < 0.3
        quantized = rng.integers(-3, 4, size=vel.shape) * cfg.speed_resolution
        vel[valid] = quantized[valid]
        vc = VelocityCube(vel, valid, cfg)
        r = rng.uniform(0.05, cfg.max_range * 0.99)
        az = rng.uniform(-cfg.azimuth_fov / 2, cfg.azimuth_fov / 2)
        el = rng.uniform(-cfg.elevation_fov / 2, cfg.elevation_fov / 2)
        p = r * np.array([
            np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el),
        ])
        got = query_radial_velocity(vc, p, window)
        want = brute_window_query(vel, valid, cfg, p, (3, 2, 5))
        assert got[1] == want[1]
        assert got[0] == pytest.approx(want[0])


def test_bigger_window_never_loses_a_return():
    rng = np.random.default_rng(37)
    cfg = SMALL
    for _ in range(20):
        vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
        valid = rng.random(vel.shape) < 0.05
        vel[valid] = rng.uniform(-cfg.max_speed, cfg.max_speed, size=int(valid.sum()))
        vc = VelocityCube(vel, valid, cfg)
        p = np.array([rng.uniform(0.1, 0.7), rng.uniform(-0.05, 0.05), 0.0])
        small = query_radial_velocity(vc, p, ContextWindow(2, 2, 2))
        big = query_radial_velocity(vc, p, ContextWindow(6, 4, 10))
        if small[1]:
            assert big[1]
            assert abs(big[0]) >= abs(small[0]) - 1e-12


def test_window_extent_validation():
    with pytest.raises(ValueError):
        ContextWindow(azimuth_extent=0)
    with pytest.raises(ValueError):
        ContextWindow(range_extent=-1)


@pytest.mark.parametrize("kwargs, name", [
    (dict(azimuth_extent=2.5), "azimuth_extent"),
    (dict(azimuth_extent=True), "azimuth_extent"),
    (dict(elevation_extent=3.0), "elevation_extent"),
    (dict(range_extent="4"), "range_extent"),
    (dict(range_extent=np.float64(4.0)), "range_extent"),
    (dict(elevation_extent=np.int64(0)), "elevation_extent"),
])
def test_window_extents_must_be_integers(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        ContextWindow(**kwargs)


def test_window_accepts_numpy_integers():
    window = ContextWindow(np.int64(3), np.int32(2), np.uint8(5))
    assert window == ContextWindow(3, 2, 5)
    assert all(type(extent) is int for extent in vars(window).values())
    vc = _random_cube(np.random.default_rng(5), SMALL, 0.3)
    got, want = window_table(vc, window), window_table(vc, ContextWindow(3, 2, 5))
    assert np.array_equal(got.velocity, want.velocity)
    assert np.array_equal(got.valid, want.valid)


def test_window_coverage_defaults():
    cfg = RadarConfig()
    az, el, rng_m = window_coverage(cfg, ContextWindow())
    assert np.degrees(az) == pytest.approx(20.0)
    assert np.degrees(el) == pytest.approx(50.0)
    assert rng_m == pytest.approx(0.938)


def test_window_coverage_scales_with_extents():
    cfg = RadarConfig()
    az, el, rng_m = window_coverage(cfg, ContextWindow(5, 2, 10))
    assert np.degrees(az) == pytest.approx(10.0)
    assert np.degrees(el) == pytest.approx(10.0)
    assert rng_m == pytest.approx(0.469)
