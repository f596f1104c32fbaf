import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from velofusion import cube as cube_module
from velofusion.cube import (
    AdcCube,
    RadarConfig,
    RadarCube,
    _cut_range_bins,
    _dft_matrix,
    build_radar_cube,
    doppler_bin_velocities,
    threshold_cube,
    threshold_cut,
)
from velofusion.io import load_scene
from velofusion.sim import Scatterer, SceneConfig, simulate_adc
from velofusion.velcube import collapse_doppler, velocity_cube

from helpers import (
    RAGGED_RADAR,
    bin_to_physical,
    center_shift,
    dft_cube_oracle,
    transposing_radar_cube,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"

SMALL = RadarConfig(
    n_samples=16,
    n_chirps=8,
    n_azimuth_bins=8,
    n_elevation_bins=4,
)
# The benchmark's crowd radar: 4 elevation bins and 16 chirps give the per-chirp
# products other shapes, and so other BLAS kernels, than the demo's.
CROWD_RADAR = RadarConfig(n_samples=64, n_chirps=16, n_azimuth_bins=16, n_elevation_bins=4,
                          range_resolution=0.075)


def test_config_derived_quantities():
    cfg = RadarConfig()
    assert cfg.n_range_bins == 128
    assert cfg.max_range == pytest.approx(6.0032)
    assert cfg.max_speed == pytest.approx(2.8)
    assert np.degrees(cfg.azimuth_bin_width) == pytest.approx(2.0)
    assert np.degrees(cfg.elevation_bin_width) == pytest.approx(5.0)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, 1.0)])
def test_adc_cube_rejects_non_finite_samples(bad):
    samples = np.ones((2, 4, 2, 2), dtype=np.complex64)
    AdcCube(samples)
    samples[1, 3, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        AdcCube(samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_radar_cube_rejects_non_finite_magnitudes(bad):
    mag = np.ones((4, 2, 2, 4), dtype=np.float32)
    RadarCube(mag)
    mag[1, 0, 1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        RadarCube(mag)


@pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (-1.0, "non-negative")])
def test_radar_cube_keeps_a_transposed_view_and_checks_it(bad, message):
    """build_radar_cube's layout: a (doppler, range, elevation, azimuth) buffer
    seen as (range, azimuth, elevation, doppler) is kept, not copied."""
    buf = np.ones((4, 3, 2, 5), dtype=np.float32)
    view = buf.transpose(1, 3, 2, 0)
    assert np.shares_memory(RadarCube(view).magnitudes, buf)
    buf[2, 1, 0, 3] = bad
    with pytest.raises(ValueError, match=message):
        RadarCube(view)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["real", "imaginary", "last block"])
def test_adc_cube_finds_non_finite_values_in_every_block(bad, where):
    # 3 x 2^17 complex samples are 1.5 finiteness blocks of float32 values
    samples = np.ones((3, 256, 32, 16), dtype=np.complex64)
    assert samples.size * 2 > cube_module._FINITE_BLOCK
    flat = samples.reshape(-1)
    if where == "real":
        flat[5] = complex(bad, 1.0)
    elif where == "imaginary":
        flat[cube_module._FINITE_BLOCK // 2 + 3] = complex(1.0, bad)
    else:
        flat[-1] = complex(1.0, bad)
    with pytest.raises(ValueError, match="ADC samples must be finite"):
        AdcCube(samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_radar_cube_finds_non_finite_values_in_the_last_block(bad):
    buf = np.ones((3, 128, 8, 128), dtype=np.float32)  # 1.5 finiteness blocks
    assert cube_module._FINITE_BLOCK < buf.size < 2 * cube_module._FINITE_BLOCK
    RadarCube(buf.transpose(1, 3, 2, 0))
    buf[-1, -1, -1, -1] = bad
    with pytest.raises(ValueError, match="cube magnitudes must be finite"):
        RadarCube(buf.transpose(1, 3, 2, 0))
    with pytest.raises(ValueError, match="cube magnitudes must be finite"):
        RadarCube(buf[:, 1::2])  # strided: read from a copy


def test_finiteness_checks_take_a_bounded_mask():
    cfg = RadarConfig()
    shape = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    samples = np.ones(shape, dtype=np.complex64)
    mag = np.ones((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins, cfg.n_chirps),
                  dtype=np.float32)
    for make, values in ((AdcCube, samples), (RadarCube, mag)):
        tracemalloc.start()
        make(values)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= cube_module._FINITE_BLOCK * 1.25, make.__name__


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


@pytest.fixture(scope="module")
def demo_adc():
    scene, cfg, _ = load_scene(SCENES / "demo.json")
    return simulate_adc(scene, 1, cfg), cfg


def test_build_matches_direct_dft_on_the_demo_radar(demo_adc):
    adc, cfg = demo_adc
    want = dft_cube_oracle(adc.samples, cfg)
    got = build_radar_cube(adc, cfg).magnitudes
    assert np.abs(got - want).max() <= 1e-6 * want.max()


def test_build_matches_direct_dft_on_the_crowd_radar():
    scene, _, _ = load_scene(SCENES / "demo.json")
    cfg = CROWD_RADAR
    rng = np.random.default_rng(41)
    noise = rng.standard_normal((2, 16, 64, 16, 4)).astype(np.float32)
    for adc in (simulate_adc(scene, 1, cfg), AdcCube(noise[0] + 1j * noise[1])):
        want = dft_cube_oracle(adc.samples, cfg)
        got = build_radar_cube(adc, cfg).magnitudes
        assert got.shape == (64, 16, 4, 16)
        assert np.abs(got - want).max() <= 1e-6 * want.max()


def _noise_adc(cfg, seed):
    shape = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    rng = np.random.default_rng(seed)
    return AdcCube((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                   .astype(np.complex64))


def _adc_frames(name):
    """A few ADC frames on each radar shape the package runs, with noise."""
    if name == "demo":
        scene, cfg, _ = load_scene(SCENES / "demo.json")
        return [simulate_adc(scene, f, cfg) for f in range(3)], cfg
    if name == "tiny":
        scene, cfg, _ = load_scene(SCENES / "tiny.json")
        return [simulate_adc(scene, f, cfg) for f in range(scene.n_frames)], cfg
    if name == "crowd":
        scene, _, _ = load_scene(SCENES / "demo.json")
        return [simulate_adc(scene, 1, CROWD_RADAR), _noise_adc(CROWD_RADAR, 3)], CROWD_RADAR
    cfg = SMALL if name == "small" else replace(SMALL, n_chirps=7, n_samples=9,
                                                n_azimuth_bins=5, n_elevation_bins=3)
    return [_noise_adc(cfg, seed) for seed in range(3)], cfg


@pytest.mark.parametrize("name", ["demo", "tiny", "crowd", "small", "odd_chirps"])
def test_build_is_the_transposing_build_bit_for_bit(name):
    """The magnitude written in the Doppler product's own memory order holds
    the values a transposing abs wrote, and the Doppler axis, outermost in
    memory, stays so through threshold_cube."""
    adcs, cfg = _adc_frames(name)
    for adc in adcs:
        cube = build_radar_cube(adc, cfg)
        assert np.array_equal(cube.magnitudes, transposing_radar_cube(adc, cfg))
        for mag in (cube.magnitudes, threshold_cube(cube, cfg.threshold_db).magnitudes):
            assert mag.strides[-1] == max(mag.strides)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(*[st.integers(2, 9)] * 4))
def test_build_matches_direct_dft_on_small_shapes(seed, shape):
    """Odd lengths check that each matrix's row order is np.fft.fftshift."""
    n_chirps, n_samples, n_az, n_el = shape
    cfg = RadarConfig(n_samples=n_samples, n_chirps=n_chirps, n_azimuth_bins=n_az,
                      n_elevation_bins=n_el)
    for n in shape:
        assert np.array_equal(center_shift(np.arange(n), 0), np.fft.fftshift(np.arange(n)))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    adc = AdcCube(raw.astype(np.complex64))
    want = dft_cube_oracle(adc.samples, cfg)
    got = build_radar_cube(adc, cfg).magnitudes
    assert got.shape == (n_samples, n_az, n_el, n_chirps)
    assert np.abs(got - want).max() <= 1e-6 * want.max()


def test_cached_dft_matrix_is_read_only():
    m = _dft_matrix(8, True, True)
    assert _dft_matrix(8, True, True) is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0


def test_build_memory_peak_on_the_demo_radar(demo_adc):
    """One complex buffer of the ADC's size, the magnitudes and a 1 MiB scratch."""
    adc, cfg = demo_adc
    build_radar_cube(adc, cfg)  # matrices cached
    tracemalloc.start()
    try:
        build_radar_cube(adc, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.95 * adc.samples.nbytes


def test_threshold_memory_peak_on_the_demo_radar(demo_adc):
    """The result is the one cube-sized allocation, beside the mask; it keeps
    the input's memory order."""
    adc, cfg = demo_adc
    cube = build_radar_cube(adc, cfg)
    tracemalloc.start()
    try:
        out = threshold_cube(cube, cfg.threshold_db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * cube.magnitudes.nbytes
    assert out.magnitudes.strides == cube.magnitudes.strides


def test_build_rejects_a_cube_that_overflows_float32():
    adc = AdcCube(np.full((8, 16, 8, 4), 3e38, dtype=np.complex64))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        build_radar_cube(adc, SMALL)


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
    out = threshold_cube(RadarCube(mag), 10.0).magnitudes.ravel()
    # relative levels 0, -4.44, -20 dB; the 5 dB floor here is 10 dB
    assert np.allclose(out, [10.0, 6.0, 0.0])
    out = threshold_cube(RadarCube(mag), 5.0).magnitudes.ravel()
    assert np.allclose(out, [10.0, 6.0, 0.0])
    out = threshold_cube(RadarCube(mag), 25.0).magnitudes.ravel()
    assert np.allclose(out, [10.0, 6.0, 1.0])


def test_threshold_keeps_values_or_zeroes_them():
    rng = np.random.default_rng(11)
    mag = rng.random((6, 5, 4, 3)).astype(np.float32)
    out = threshold_cube(RadarCube(mag), 5.0).magnitudes
    changed = out != mag
    assert np.all(out[changed] == 0)
    assert np.all(out <= mag)
    assert np.argmax(out) == np.argmax(mag)


def test_threshold_cut_factor():
    # 5 dB below peak in amplitude terms is a factor of 0.56234
    mag = np.zeros((2, 1, 1, 1), dtype=np.float32)
    mag[0] = 1.0
    mag[1] = 0.5624
    assert threshold_cube(RadarCube(mag), 5.0).magnitudes[1, 0, 0, 0] > 0
    mag[1] = 0.5622
    assert threshold_cube(RadarCube(mag), 5.0).magnitudes[1, 0, 0, 0] == 0


def test_threshold_idempotent_and_zero_safe():
    rng = np.random.default_rng(12)
    mag = rng.random((4, 4, 2, 6)).astype(np.float32)
    once = threshold_cube(RadarCube(mag), 5.0)
    twice = threshold_cube(once, 5.0)
    assert np.array_equal(once.magnitudes, twice.magnitudes)
    zero = threshold_cube(RadarCube(np.zeros((2, 2, 2, 2), dtype=np.float32)), 5.0)
    assert np.all(zero.magnitudes == 0)


def test_threshold_rejects_bad_level():
    with pytest.raises(ValueError):
        threshold_cube(RadarCube(np.ones((1, 1, 1, 1), dtype=np.float32)), 0.0)


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


def _assert_velocity_cube_is_the_build(adc, cfg):
    """velocity_cube is the full build's collapse bit for bit, and every bin
    it computed holds the full build's magnitudes."""
    full = build_radar_cube(adc, cfg)
    want = collapse_doppler(full, cfg)
    vc, bins = velocity_cube(adc, cfg)
    assert np.array_equal(vc.valid, want.valid)
    assert np.array_equal(vc.velocity, want.velocity)
    got_bins, cut = _cut_range_bins(adc, cfg)
    assert np.array_equal(got_bins, bins) and len(bins) >= 1
    assert np.array_equal(cut.magnitudes, full.magnitudes[bins])
    return bins


def _tone_adc(cfg, freqs):
    """One complex exponential over (chirp, sample, azimuth, elevation), at
    freqs cycles per axis length."""
    shape = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    phase = sum(np.arange(n).reshape([-1 if i == axis else 1 for i in range(4)]) * f / n
                for axis, (n, f) in enumerate(zip(shape, freqs)))
    return np.exp(2j * np.pi * phase)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(2, 24), st.integers(2, 64), st.integers(2, 16),
                       st.integers(2, 8)),
       threshold_db=st.sampled_from([0.5, 3.0, 5.0, 10.0, 20.0, 40.0]),
       scale=st.integers(-20, 20), kind=st.sampled_from(["zero", "noise", "tone"]),
       noise_decades=st.integers(0, 30))
def test_velocity_cube_is_the_build_on_random_radars(seed, shape, threshold_db, scale, kind,
                                                    noise_decades):
    n_chirps, n_samples, n_az, n_el = shape
    cfg = RadarConfig(n_samples=n_samples, n_chirps=n_chirps, n_azimuth_bins=n_az,
                      n_elevation_bins=n_el, threshold_db=threshold_db)
    rng = np.random.default_rng(seed)
    raw = np.zeros(shape, dtype=np.complex128)
    if kind != "zero":
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "tone":
        raw = _tone_adc(cfg, rng.uniform(0, shape)) + 10.0 ** -noise_decades * raw
    _assert_velocity_cube_is_the_build(AdcCube((10.0 ** scale * raw).astype(np.complex64)), cfg)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(2, 12), st.integers(2, 40), st.sampled_from([3, 5, 6, 7, 9]),
                       st.sampled_from([2, 3, 5])),
       scratch=st.floats(0.0, 1.0), tone=st.booleans())
@example(seed=1, shape=(4, 4, 3, 2), scratch=0.3, tone=True)
@example(seed=2, shape=(16, 9, 6, 3), scratch=0.1, tone=True)
@example(seed=3, shape=(10, 33, 7, 5), scratch=0.05, tone=False)
def test_build_keeps_its_bits_across_chirp_groups_and_range_chunks(seed, shape, scratch, tone):
    """With the scratch cut down to a fraction of the tensor, the angle
    products run in several chirp groups and the Doppler product in several
    range-bin chunks, both with a remainder; an odd n_az * n_el puts the
    chunk edges at multiples of 16 range bins, an even one at 8 or 4. The
    build stays the two-buffer reference bit for bit, and velocity_cube
    stays the build's collapse."""
    n_chirps, n_samples, n_az, n_el = shape
    cfg = RadarConfig(n_samples=n_samples, n_chirps=n_chirps, n_azimuth_bins=n_az,
                      n_elevation_bins=n_el)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if tone:
        raw = _tone_adc(cfg, rng.uniform(0, shape)) + 1e-3 * raw
    adc = AdcCube(raw.astype(np.complex64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube_module, "_SCRATCH_VALUES", max(1, int(scratch * raw.size)))
        assert np.array_equal(build_radar_cube(adc, cfg).magnitudes,
                              transposing_radar_cube(adc, cfg))
        _assert_velocity_cube_is_the_build(adc, cfg)


def test_velocity_cube_of_a_zero_adc_computes_only_the_first_bins():
    """Every bound is 0, so only the bin of largest bound runs, with one more
    that keeps the demo radar's azimuth products whole tiles of 16 rows."""
    cfg = RadarConfig()
    adc = AdcCube(np.zeros((cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins,
                            cfg.n_elevation_bins), dtype=np.complex64))
    vc, bins = velocity_cube(adc, cfg)
    assert not vc.valid.any()
    assert len(bins) == 2


@pytest.mark.parametrize("name", ["demo", "tiny", "crowd", "small", "odd_chirps"])
def test_velocity_cube_is_the_build_on_every_radar_shape(name):
    adcs, cfg = _adc_frames(name)
    for adc in adcs:
        _assert_velocity_cube_is_the_build(adc, cfg)


def test_velocity_cube_is_the_build_on_the_ragged_radar():
    cfg = RAGGED_RADAR
    rng = np.random.default_rng(5)
    for tone in ((3.0, 20.4, 1.5, 0.5), (100.2, 7.7, 4.9, 3.1)):
        adc = _tone_adc(cfg, tone) + 0.05 * _noise_adc(cfg, int(rng.integers(1000))).samples
        _assert_velocity_cube_is_the_build(AdcCube(adc.astype(np.complex64)), cfg)


def test_velocity_cube_is_the_build_on_every_demo_frame():
    scene, cfg, _ = load_scene(SCENES / "demo.json")
    for f in range(scene.n_frames):
        bins = _assert_velocity_cube_is_the_build(simulate_adc(scene, f, cfg), cfg)
        if 1 <= f <= 4:
            assert len(bins) <= 8, (f, bins)


@pytest.mark.parametrize("at_cut", [True, False], ids=["at-the-cut", "just-below-the-cut"])
def test_velocity_cube_keeps_a_bin_whose_maximum_meets_its_bound_at_the_cut(at_cut):
    """A tone at zero Doppler and boresight adds up in phase, so each range
    bin's strongest magnitude is its bound up to rounding. The threshold is
    set so that the float32 cut lands on a side bin's strongest magnitude,
    or one float32 step above it: the side bin is then valid, or not, as in
    the full build."""
    cfg = replace(SMALL, n_samples=32)
    adc = AdcCube(_tone_adc(cfg, (0.0, 9.37, 0.0, 0.0)).astype(np.complex64))
    full = build_radar_cube(adc, cfg).magnitudes
    strongest = full.max(axis=(1, 2, 3))
    peak, side = float(strongest.max()), np.float32(strongest[12])
    assert 1e-3 < side / peak < 0.5
    target = side if at_cut else np.nextafter(side, np.float32(np.inf))
    db = 20 * math.log10(peak / float(target))
    for _ in range(100):  # nudge the threshold until the float32 cut is the target
        cut = np.float32(threshold_cut(peak, db))
        if cut == target:
            break
        db = math.nextafter(db, math.inf if cut > target else -math.inf)
    assert cut == target
    cfg = replace(cfg, threshold_db=db)
    bins = _assert_velocity_cube_is_the_build(adc, cfg)
    assert 12 in bins
    vc, _ = velocity_cube(adc, cfg)
    assert vc.valid[12].any() == at_cut


def test_velocity_cube_raises_as_the_build_on_a_float32_overflow():
    adc = AdcCube(np.full((8, 16, 8, 4), 3e38, dtype=np.complex64))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="finite") as build_error:
            build_radar_cube(adc, SMALL)
        with pytest.raises(ValueError, match="finite") as error:
            velocity_cube(adc, SMALL)
    assert str(error.value) == str(build_error.value)


def test_velocity_cube_memory_peak_on_the_demo_radar(demo_adc):
    """The range spectrum is the one ADC-sized buffer."""
    adc, cfg = demo_adc
    velocity_cube(adc, cfg)  # matrices cached
    tracemalloc.start()
    try:
        velocity_cube(adc, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * adc.samples.nbytes
