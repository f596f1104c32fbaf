import numpy as np
import pytest

from velofusion.cube import (
    AdcCube,
    RadarConfig,
    bin_to_physical,
    build_radar_cube,
    doppler_bin_velocities,
    threshold_cube,
)
from velofusion.sim import Scatterer, SceneConfig, simulate_adc

from helpers import dft_cube_oracle

SMALL = RadarConfig(
    n_samples=16,
    n_chirps=8,
    n_azimuth_bins=8,
    n_elevation_bins=4,
)


def test_config_derived_quantities():
    cfg = RadarConfig()
    assert cfg.n_range_bins == 128
    assert cfg.max_range == pytest.approx(6.0032)
    assert cfg.max_speed == pytest.approx(2.8)
    assert np.degrees(cfg.azimuth_bin_width) == pytest.approx(2.0)
    assert np.degrees(cfg.elevation_bin_width) == pytest.approx(5.0)
    assert RadarConfig(one_sided_range=True).n_range_bins == 64


def test_config_validation():
    with pytest.raises(ValueError):
        RadarConfig(n_samples=1)
    with pytest.raises(ValueError):
        RadarConfig(range_resolution=0.0)
    with pytest.raises(ValueError):
        RadarConfig(azimuth_fov=-1.0)


def test_build_zero_adc_gives_zero_cube():
    adc = AdcCube(np.zeros((8, 16, 8, 4), dtype=np.complex64))
    cube = build_radar_cube(adc, SMALL)
    assert cube.magnitudes.shape == (16, 8, 4, 8)
    assert cube.magnitudes.dtype == np.float32
    assert np.all(cube.magnitudes == 0)


def test_build_rejects_wrong_shape():
    adc = AdcCube(np.zeros((8, 16, 8, 2), dtype=np.complex64))
    with pytest.raises(ValueError, match="does not match config"):
        build_radar_cube(adc, SMALL)


def test_build_matches_direct_dft():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((8, 16, 8, 4)) + 1j * rng.standard_normal((8, 16, 8, 4))
    adc = AdcCube(raw.astype(np.complex64))
    cube = build_radar_cube(adc, SMALL)
    want = dft_cube_oracle(adc.samples, SMALL)
    assert cube.magnitudes.shape == want.shape
    assert np.allclose(cube.magnitudes, want, rtol=1e-4, atol=1e-4 * want.max())


def test_build_matches_direct_dft_one_sided():
    cfg = RadarConfig(
        n_samples=16, n_chirps=8, n_azimuth_bins=8, n_elevation_bins=4,
        one_sided_range=True,
    )
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((8, 16, 8, 4)) + 1j * rng.standard_normal((8, 16, 8, 4))
    adc = AdcCube(raw.astype(np.complex64))
    cube = build_radar_cube(adc, cfg)
    want = dft_cube_oracle(adc.samples, cfg)
    assert cube.magnitudes.shape == (8, 8, 4, 8)
    assert np.allclose(cube.magnitudes, want, rtol=1e-4, atol=1e-4 * want.max())


def test_build_is_homogeneous():
    rng = np.random.default_rng(9)
    raw = (rng.standard_normal((8, 16, 8, 4)) + 1j * rng.standard_normal((8, 16, 8, 4)))
    a = build_radar_cube(AdcCube(raw.astype(np.complex64)), SMALL)
    b = build_radar_cube(AdcCube((2.5 * raw).astype(np.complex64)), SMALL)
    assert np.allclose(b.magnitudes, 2.5 * a.magnitudes,
                       rtol=1e-5, atol=1e-5 * a.magnitudes.max())


def test_single_target_lands_on_expected_bins():
    cfg = RadarConfig()
    scene = SceneConfig(
        scatterers=(Scatterer(position=(3.0, 0.0, 0.0), velocity=(0.7, 0.0, 0.0)),),
        noise_floor=0.0,
    )
    cube = build_radar_cube(simulate_adc(scene, 0, cfg), cfg)
    r, a, e, d = np.unravel_index(np.argmax(cube.magnitudes), cube.magnitudes.shape)
    # 3.0 / 0.0469 = 63.97 and 0.7 / 0.175 = 4 above center
    assert (r, a, e, d) == (64, 16, 4, 20)
    rng_m, az, el, vel = bin_to_physical(r, a, e, d, cfg)
    assert rng_m == pytest.approx(3.0016)
    assert az == pytest.approx(0.0)
    assert el == pytest.approx(0.0)
    assert vel == pytest.approx(0.7)


def test_threshold_examples():
    mag = np.array([10.0, 6.0, 1.0], dtype=np.float32).reshape(3, 1, 1, 1)
    out = threshold_cube(_cube(mag), 10.0).magnitudes.ravel()
    # relative levels 0, -4.44, -20 dB; the 5 dB floor here is 10 dB
    assert np.allclose(out, [10.0, 6.0, 0.0])
    out = threshold_cube(_cube(mag), 5.0).magnitudes.ravel()
    assert np.allclose(out, [10.0, 6.0, 0.0])
    out = threshold_cube(_cube(mag), 25.0).magnitudes.ravel()
    assert np.allclose(out, [10.0, 6.0, 1.0])


def test_threshold_keeps_values_or_zeroes_them():
    rng = np.random.default_rng(11)
    mag = rng.random((6, 5, 4, 3)).astype(np.float32)
    out = threshold_cube(_cube(mag), 5.0).magnitudes
    changed = out != mag
    assert np.all(out[changed] == 0)
    assert np.all(out <= mag)
    assert np.argmax(out) == np.argmax(mag)


def test_threshold_cut_factor():
    # 5 dB below peak in amplitude terms is a factor of 0.56234
    mag = np.zeros((2, 1, 1, 1), dtype=np.float32)
    mag[0] = 1.0
    mag[1] = 0.5624
    assert threshold_cube(_cube(mag), 5.0).magnitudes[1, 0, 0, 0] > 0
    mag[1] = 0.5622
    assert threshold_cube(_cube(mag), 5.0).magnitudes[1, 0, 0, 0] == 0


def test_threshold_idempotent_and_zero_safe():
    rng = np.random.default_rng(12)
    mag = rng.random((4, 4, 2, 6)).astype(np.float32)
    once = threshold_cube(_cube(mag), 5.0)
    twice = threshold_cube(once, 5.0)
    assert np.array_equal(once.magnitudes, twice.magnitudes)
    zero = threshold_cube(_cube(np.zeros((2, 2, 2, 2), dtype=np.float32)), 5.0)
    assert np.all(zero.magnitudes == 0)


def test_threshold_rejects_bad_level():
    with pytest.raises(ValueError):
        threshold_cube(_cube(np.ones((1, 1, 1, 1), dtype=np.float32)), 0.0)


def test_bin_to_physical_examples():
    cfg = RadarConfig()
    rng_m, az, el, vel = bin_to_physical(64, 16, 4, 16, cfg)
    assert rng_m == pytest.approx(64 * 0.0469)
    assert az == 0.0 and el == 0.0 and vel == 0.0
    _, az, _, vel = bin_to_physical(10, 27, 0, 20, cfg)
    assert np.degrees(az) == pytest.approx(22.0)
    assert vel == pytest.approx(0.7)
    _, az, el, vel = bin_to_physical(0, 0, 0, 0, cfg)
    assert np.degrees(az) == pytest.approx(-32.0)
    assert np.degrees(el) == pytest.approx(-20.0)
    assert vel == pytest.approx(-2.8)


def test_bin_to_physical_bounds():
    cfg = RadarConfig()
    with pytest.raises(ValueError, match="range"):
        bin_to_physical(128, 0, 0, 0, cfg)
    with pytest.raises(ValueError, match="azimuth"):
        bin_to_physical(0, 32, 0, 0, cfg)
    with pytest.raises(ValueError, match="elevation"):
        bin_to_physical(0, 0, -1, 0, cfg)
    with pytest.raises(ValueError, match="doppler"):
        bin_to_physical(0, 0, 0, 99, cfg)


def test_doppler_bin_velocities():
    cfg = RadarConfig()
    vels = doppler_bin_velocities(cfg)
    assert vels.shape == (32,)
    assert vels[16] == 0.0
    assert vels[0] == pytest.approx(-2.8)
    assert vels[20] == pytest.approx(0.7)
    assert np.allclose(np.diff(vels), cfg.speed_resolution)


def test_hanning_beats_rectangular_on_sidelobes():
    def largest_sidelobe_db(window: np.ndarray) -> float:
        n = len(window)
        tone = np.exp(2j * np.pi * (n / 4 + 0.5) * np.arange(n) / n)
        spec = np.abs(np.fft.fft(window * tone, 64 * n))
        k = int(np.argmax(spec))
        lo = k
        while lo - 1 >= 0 and spec[lo - 1] <= spec[lo]:
            lo -= 1
        hi = k
        while hi + 1 < len(spec) and spec[hi + 1] <= spec[hi]:
            hi += 1
        outside = np.concatenate([spec[:lo], spec[hi + 1:]])
        return 20.0 * np.log10(spec[k] / outside.max())

    hann = largest_sidelobe_db(np.hanning(64))
    rect = largest_sidelobe_db(np.ones(64))
    assert hann >= 30.0
    assert rect >= 12.0
    assert hann > rect


def _cube(mag: np.ndarray):
    from velofusion.cube import RadarCube

    return RadarCube(mag)
