import logging
import math
import os
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velofusion.cube import RadarConfig, build_radar_cube
from velofusion.fusion import read_flow
from velofusion.io import load_scene
from velofusion.sim import (
    Scatterer,
    SceneConfig,
    ground_truth_velocities,
    noise_blocks,
    simulate_adc,
    synth_flow,
    synth_lidar,
)
from velofusion.types import CameraModel, PointStatus

from helpers import (
    RAGGED_RADAR,
    advance_scene,
    assert_adc_close,
    oracle_simulate_adc,
    oracle_synth_flow,
    oracle_synth_lidar,
    random_rotation,
    whole_tensor_simulate_adc,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"

# 0.25 m bins keep a usable max range (4 m) with only 16 samples
SMALL = RadarConfig(
    n_samples=16,
    n_chirps=8,
    n_azimuth_bins=8,
    n_elevation_bins=4,
    range_resolution=0.25,
)


def _scene(*scatterers, **kw):
    kw.setdefault("noise_floor", 0.0)
    return SceneConfig(scatterers=tuple(scatterers), **kw)


def test_empty_scene_is_silent():
    adc = simulate_adc(_scene(), 0, SMALL)
    assert adc.samples.shape == (8, 16, 8, 4)
    assert np.all(adc.samples == 0)


def test_scene_validation():
    with pytest.raises(ValueError):
        SceneConfig(n_frames=1)
    with pytest.raises(ValueError):
        SceneConfig(frame_interval=0.0)
    with pytest.raises(ValueError):
        SceneConfig(noise_floor=-0.1)
    with pytest.raises(ValueError):
        SceneConfig(seed=-1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scatterer_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Scatterer(position=(1.0, bad, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        Scatterer(position=(1.0, 0.0, 0.0), velocity=(0.0, 0.0, bad))
    with pytest.raises(ValueError, match="amplitude"):
        Scatterer(position=(1.0, 0.0, 0.0), amplitude=abs(bad))


def _at(rng_m, az_deg, el_deg=0.0, velocity=(0.0, 0.0, 0.0), amplitude=1.0):
    az, el = np.radians(az_deg), np.radians(el_deg)
    return Scatterer(position=(rng_m * np.cos(el) * np.cos(az),
                               rng_m * np.cos(el) * np.sin(az), rng_m * np.sin(el)),
                     velocity=velocity, amplitude=amplitude)


def test_scatterer_outside_coverage_is_rejected():
    cfg = RadarConfig()
    far = _scene(Scatterer(position=(10.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="range"):
        simulate_adc(far, 0, cfg)
    fast = _scene(Scatterer(position=(3.0, 0.0, 0.0), velocity=(5.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="radial velocity"):
        simulate_adc(fast, 0, cfg)
    # The FoV is +-32 deg in azimuth and +-20 deg in elevation: a scatterer at
    # +40 deg azimuth would render as a ghost at azimuth bin 4 (-24 deg).
    for az_deg, el_deg in [(40.0, 0.0), (-32.1, 0.0), (0.0, 20.1), (10.0, -25.0)]:
        with pytest.raises(ValueError, match=r"^scatterer 0 .* outside the radar field of "
                                             r"view \+-32\.0 x \+-20\.0 deg at frame 0$"):
            simulate_adc(_scene(_at(3.0, az_deg, el_deg)), 0, cfg)
    simulate_adc(_scene(_at(3.0, 31.9, 19.9), _at(3.0, -31.9, -19.9)), 0, cfg)


def test_single_target_peak_location():
    cfg = RadarConfig()
    scene = _scene(Scatterer(position=(3.0, 0.0, 0.0), velocity=(0.7, 0.0, 0.0)))
    cube = build_radar_cube(simulate_adc(scene, 0, cfg), cfg)
    assert np.unravel_index(np.argmax(cube.magnitudes), cube.magnitudes.shape) == (64, 16, 4, 20)


def test_offset_target_peak_location():
    cfg = RadarConfig()
    az = np.radians(22.0)
    r = 47 * cfg.range_resolution
    scene = _scene(Scatterer(position=(r * np.cos(az), r * np.sin(az), 0.0)))
    cube = build_radar_cube(simulate_adc(scene, 0, cfg), cfg)
    assert np.unravel_index(np.argmax(cube.magnitudes), cube.magnitudes.shape) == (47, 27, 4, 16)


def test_amplitude_scales_linearly():
    base = _scene(Scatterer(position=(2.0, 0.1, 0.0), amplitude=1.0))
    double = _scene(Scatterer(position=(2.0, 0.1, 0.0), amplitude=2.0))
    a = simulate_adc(base, 0, SMALL).samples
    b = simulate_adc(double, 0, SMALL).samples
    assert np.allclose(b, 2.0 * a, rtol=1e-5)


def test_superposition_of_scatterers():
    s1 = Scatterer(position=(1.0, 0.1, 0.0), velocity=(0.2, 0.0, 0.0))
    s2 = Scatterer(position=(2.0, -0.2, 0.05), velocity=(-0.3, 0.0, 0.0), amplitude=0.7)
    a = simulate_adc(_scene(s1), 0, SMALL).samples.astype(np.complex128)
    b = simulate_adc(_scene(s2), 0, SMALL).samples.astype(np.complex128)
    both = simulate_adc(_scene(s1, s2), 0, SMALL).samples
    assert np.allclose(both, a + b, rtol=1e-4, atol=1e-5)


def test_frame_index_matches_advanced_scene():
    s = Scatterer(position=(2.0, 0.3, 0.0), velocity=(0.4, -0.1, 0.02))
    scene = _scene(s, n_frames=5)
    later = simulate_adc(scene, 3, SMALL).samples
    stepped = simulate_adc(advance_scene(scene, 3), 0, SMALL).samples
    assert np.allclose(later, stepped, rtol=1e-4, atol=1e-6)


def test_noise_is_deterministic_per_seed_and_frame():
    scene = _scene(Scatterer(position=(2.0, 0.0, 0.0)), noise_floor=0.1, seed=5)
    a = simulate_adc(scene, 0, SMALL).samples
    b = simulate_adc(scene, 0, SMALL).samples
    c = simulate_adc(scene, 1, SMALL).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_floor_zero_is_exactly_noiseless():
    scene = _scene(n_frames=2, noise_floor=0.0)
    assert np.all(simulate_adc(scene, 0, SMALL).samples == 0)


def test_noise_scale():
    scene = _scene(noise_floor=0.2, seed=9)
    noise = simulate_adc(scene, 0, SMALL).samples
    # complex std should be about noise_floor
    measured = np.sqrt(np.mean(np.abs(noise.astype(np.complex128)) ** 2))
    assert measured == pytest.approx(0.2, rel=0.1)


# The benchmark's crowd layout: ten movers 5 deg apart on three range rings.
CROWD_RADAR = RadarConfig(n_samples=64, n_chirps=16, n_azimuth_bins=16, n_elevation_bins=4,
                          range_resolution=0.075)


def _crowd_scene(noise_floor):
    movers = []
    for i in range(10):
        az = -22.5 + 5.0 * i
        heading = np.radians(az + (0.0, 90.0, 45.0, 135.0, 180.0)[i % 5])
        speed = 0.3 + 0.08 * i
        movers.append(_at((2.4, 3.0, 3.6)[i % 3], az,
                          velocity=(speed * np.cos(heading), speed * np.sin(heading), 0.0)))
    return _scene(*movers, n_frames=3, noise_floor=noise_floor, seed=5)


def _random_scene(seed, n, cfg, noise_floor=0.0):
    """n scatterers with random amplitudes spread over the radar's coverage."""
    rng = np.random.default_rng(seed)
    # 80 % of the FoV, so a frame's motion cannot carry a scatterer out of it
    half_az, half_el = 0.4 * np.degrees(cfg.azimuth_fov), 0.4 * np.degrees(cfg.elevation_fov)
    return _scene(*(
        _at(rng.uniform(0.2, 0.9) * cfg.max_range, rng.uniform(-half_az, half_az),
            rng.uniform(-half_el, half_el),
            velocity=tuple(rng.uniform(-0.5, 0.5, 3) * cfg.max_speed / 0.9),
            amplitude=rng.uniform(0.2, 3.0))
        for _ in range(n)), noise_floor=noise_floor, seed=seed)


def _adc_case(name, noise_floor):
    if name in ("demo", "empty"):
        scene, cfg, _ = load_scene(SCENES / "demo.json")
        scene = replace(scene, n_frames=3, noise_floor=noise_floor)
        return (scene if name == "demo" else replace(scene, scatterers=())), cfg
    if name == "tiny":
        scene, cfg, _ = load_scene(SCENES / "tiny.json")
        return replace(scene, noise_floor=noise_floor), cfg
    if name == "crowd":
        return _crowd_scene(noise_floor), CROWD_RADAR
    if name == "ragged":
        return _random_scene(9, 12, RAGGED_RADAR, noise_floor), RAGGED_RADAR
    # 300 scatterers on SMALL: 50 blocks of 6, so the blocked sum runs
    return _random_scene(4, 300, SMALL, noise_floor), SMALL


@pytest.mark.parametrize("noise_floor", [0.0, 0.1])
@pytest.mark.parametrize("name", ["demo", "tiny", "crowd", "many"])
def test_simulate_adc_matches_per_scatterer_oracle(name, noise_floor):
    scene, cfg = _adc_case(name, noise_floor)
    for f in range(scene.n_frames):
        assert_adc_close(simulate_adc(scene, f, cfg).samples,
                         oracle_simulate_adc(scene, f, cfg), scene)


@pytest.mark.parametrize("noise_floor", [0.0, 0.1])
@pytest.mark.parametrize("name", ["demo", "tiny", "crowd", "many", "empty", "ragged"])
def test_simulate_adc_is_the_whole_tensor_render_bit_for_bit(name, noise_floor):
    """Row blocks, noise blocks and BLAS row slices change no bit of the ADC,
    whether the noise is drawn inline or handed in as the frame's blocks."""
    scene, cfg = _adc_case(name, noise_floor)
    for f in range(scene.n_frames):
        want = whole_tensor_simulate_adc(scene, f, cfg).view(np.float32)
        assert np.array_equal(simulate_adc(scene, f, cfg).samples.view(np.float32), want)
        handed = simulate_adc(scene, f, cfg, noise_blocks(scene, f, cfg)).samples
        assert np.array_equal(handed.view(np.float32), want)


@pytest.mark.parametrize("name", ["demo", "tiny", "ragged", "empty"])
def test_noise_blocks_count_and_size(name):
    scene, cfg = _adc_case(name, 0.1)
    blocks = list(noise_blocks(scene, 1, cfg))
    n_rows, n_cols = cfg.n_chirps * cfg.n_samples, cfg.n_azimuth_bins * cfg.n_elevation_bins
    assert n_rows * n_cols == math.prod(simulate_adc(scene, 1, cfg).samples.shape)
    # the fewest blocks of whole rows of at most 1 MiB, for the real parts and then the imaginary
    assert len(blocks) == 2 * -(-n_rows // ((1 << 20) // (8 * n_cols)))
    assert all(b.dtype == np.float64 and b.nbytes <= 1 << 20 for b in blocks)
    assert sum(b.size for b in blocks) == 2 * n_rows * n_cols
    assert not list(noise_blocks(replace(scene, noise_floor=0.0), 1, cfg))


def _thread_cpu_s() -> tuple[float, float]:
    """CPU seconds of this thread and of every other thread of the process."""
    tick, own, others = os.sysconf("SC_CLK_TCK"), 0, 0
    for task in Path("/proc/self/task").iterdir():
        try:
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the thread ended
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        if int(task.name) == threading.get_native_id():
            own += ticks
        else:
            others += ticks
    return own / tick, others / tick


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads Linux per-thread CPU")
def test_simulate_adc_keeps_blas_on_the_calling_thread():
    """Every product of the render stays under OpenBLAS's threading size, so
    its worker threads stay idle while demo frames render. A worker woken
    even once per chirp spins for about as long as the render runs."""
    scene, cfg = _adc_case("demo", 0.1)
    simulate_adc(scene, 0, cfg)
    time.sleep(0.5)  # a worker woken by an earlier test stops spinning
    own, others = _thread_cpu_s()
    for _ in range(3):
        for f in range(3):
            simulate_adc(scene, f, cfg)
    own_after, others_after = _thread_cpu_s()
    assert others_after - others < 0.05 * (own_after - own)


def test_assert_adc_close_separates_an_ulp_from_a_wrong_sample():
    scene = _crowd_scene(0.0)
    want = oracle_simulate_adc(scene, 1, CROWD_RADAR)
    got = want.copy()
    parts = got.reshape(-1).view(np.float32)
    parts[:3] = np.nextafter(parts[:3], np.float32(np.inf))
    assert_adc_close(got, want, scene)
    k = np.argmax(np.abs(parts))
    parts[k] = np.nextafter(np.nextafter(parts[k], np.float32(np.inf)), np.float32(np.inf))
    with pytest.raises(AssertionError, match="1 components differ"):
        assert_adc_close(got, want, scene)


@pytest.mark.parametrize("n", [0, 1, 300])
def test_simulate_adc_noise_is_the_oracle_stream(n):
    """Without scatterers the tensor is the noise alone, bit for bit; the
    noise added to a scene is that same tensor."""
    noisy = _random_scene(8, n, SMALL, noise_floor=0.3)
    noise = simulate_adc(replace(noisy, scatterers=()), 1, SMALL).samples
    assert np.array_equal(noise.view(np.float32),
                          oracle_simulate_adc(replace(noisy, scatterers=()), 1, SMALL)
                          .view(np.float32))
    quiet = replace(noisy, noise_floor=0.0)
    both = simulate_adc(noisy, 1, SMALL).samples.astype(np.complex128)
    signal = simulate_adc(quiet, 1, SMALL).samples.astype(np.complex128)
    assert np.allclose(both - signal, noise, rtol=0, atol=1e-6 * max(n, 1))
    assert not simulate_adc(replace(quiet, scatterers=()), 1, SMALL).samples.any()


_OK = Scatterer(position=(2.0, 0.3, 0.1), velocity=(0.2, 0.0, 0.0))
_FAR = Scatterer(position=(10.0, 0.0, 0.0))
_FAST = Scatterer(position=(2.0, 0.0, 0.0), velocity=(1.0, 0.0, 0.0))
_WIDE = _at(2.0, 40.0)
_HIGH = _at(2.0, 0.0, 25.0)
_ZERO = Scatterer(position=(0.0, 0.0, 0.0))
_ZERO_AT_2 = Scatterer(position=(-0.2, 0.0, 0.0), velocity=(1.0, 0.0, 0.0))
_KIND_WORDS = {"zero range": "at zero range has no direction",
               "max range": "exceeds max range", "field of view": "radar field of view",
               "unambiguous speed": "exceeds the unambiguous interval"}


@pytest.mark.parametrize("scatterers, frame, index, kind", [
    ((_OK, _FAR, _FAST), 0, 1, "max range"),
    ((_OK, _FAST, _FAR), 0, 1, "unambiguous speed"),
    ((_WIDE, _FAR), 0, 0, "field of view"),
    ((_OK, _OK, _HIGH), 0, 2, "field of view"),
    ((Scatterer(position=(10.0, 0.0, 0.0), velocity=(5.0, 0.0, 0.0)),), 0, 0, "max range"),
    ((_at(2.0, 40.0, velocity=(1.0, 0.0, 0.0)),), 0, 0, "field of view"),
    ((_FAR, _ZERO), 0, 0, "max range"),
    ((_OK, _ZERO, _FAR), 0, 1, "zero range"),
    ((_OK, _ZERO_AT_2), 2, 1, "zero range"),
    ((_OK, _ZERO_AT_2), 1, 1, "field of view"),
])
def test_simulate_adc_names_the_loops_first_bad_scatterer(scatterers, frame, index, kind):
    scene = _scene(*scatterers, n_frames=3)
    with pytest.raises(ValueError) as want:
        oracle_simulate_adc(scene, frame, SMALL)
    assert str(want.value) == f"scatterer {index}: {kind}"
    with pytest.raises(ValueError, match=rf"^scatterer {index} .*{_KIND_WORDS[kind]}"
                                         rf".* at frame {frame}$"):
        simulate_adc(scene, frame, SMALL)


def test_simulate_adc_memory_does_not_grow_with_scatterers():
    """2,000 scatterers: the blocked product's peak stays below the loop's,
    which holds the accumulator and one outer product at a time."""
    cfg = RadarConfig(n_samples=64, n_chirps=4, n_azimuth_bins=16, n_elevation_bins=8,
                      range_resolution=0.1, speed_resolution=0.5)
    scene = _random_scene(6, 2000, cfg)
    peaks = []
    for render in (simulate_adc, oracle_simulate_adc):
        tracemalloc.start()
        try:
            render(scene, 0, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_simulate_adc_memory_peak_on_a_noisy_demo_frame():
    """With the noise drawn inline, the complex64 output is the one
    tensor-sized array: the imaginary parts are rendered again in their own
    pass instead of waiting in a float64 scratch."""
    scene, cfg = _adc_case("demo", 0.1)
    simulate_adc(scene, 1, cfg)  # ramps and BLAS warmed up
    tracemalloc.start()
    try:
        adc = simulate_adc(scene, 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * adc.samples.nbytes


def test_synth_lidar_deterministic_and_labeled():
    scene = _scene(
        Scatterer(position=(2.0, 0.0, 0.0)),
        Scatterer(position=(4.0, 1.0, 0.2)),
        lidar_points_per_scatterer=50,
        lidar_jitter_sigma=0.02,
        seed=3,
    )
    a = synth_lidar(scene, 0)
    b = synth_lidar(scene, 0)
    assert np.array_equal(a.positions, b.positions)
    assert len(a) == 100
    assert a.labels is not None
    assert np.array_equal(np.unique(a.labels), [0, 1])
    spread = a.positions[a.labels == 0] - np.array([2.0, 0.0, 0.0])
    assert np.all(np.linalg.norm(spread, axis=1) < 0.02 * 6)
    assert np.linalg.norm(spread.mean(axis=0)) < 0.02


@pytest.mark.parametrize("n_scatterers, k", [(0, 5), (1, 1), (3, 7), (12, 300)])
def test_synth_lidar_equals_per_scatterer_draws(n_scatterers, k):
    rng = np.random.default_rng(n_scatterers)
    scene = _scene(
        *(Scatterer(position=tuple(rng.uniform(-3.0, 3.0, 3)),
                    velocity=tuple(rng.uniform(-1.0, 1.0, 3)))
          for _ in range(n_scatterers)),
        lidar_points_per_scatterer=k, lidar_jitter_sigma=0.03, n_frames=4, seed=8,
    )
    for f in (0, 3):
        got, want = synth_lidar(scene, f), oracle_synth_lidar(scene, f)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.labels, want.labels)


def test_synth_lidar_zero_jitter_is_exact():
    scene = _scene(
        Scatterer(position=(2.0, 0.5, -0.1)),
        lidar_points_per_scatterer=10,
        lidar_jitter_sigma=0.0,
    )
    cloud = synth_lidar(scene, 0)
    assert np.all(cloud.positions == np.array([2.0, 0.5, -0.1]))


def test_synth_lidar_tracks_motion():
    scene = _scene(
        Scatterer(position=(2.0, 0.0, 0.0), velocity=(1.0, 0.0, 0.0)),
        lidar_points_per_scatterer=5,
        lidar_jitter_sigma=0.0,
        frame_interval=0.1,
        n_frames=3,
    )
    cloud = synth_lidar(scene, 2)
    assert np.allclose(cloud.positions, [2.2, 0.0, 0.0])


def _identity_camera(fx=500.0):
    return CameraModel(fx=fx, fy=fx, cx=320.0, cy=240.0, width=640, height=480)


def test_synth_flow_static_scene_is_zero():
    scene = _scene(
        Scatterer(position=(0.0, 0.0, 2.0)),
        lidar_points_per_scatterer=20,
        lidar_jitter_sigma=0.01,
        n_frames=2,
    )
    flow = synth_flow(scene, 0, _identity_camera())
    assert flow.covered.any()
    assert np.all(flow.flow[flow.covered] == 0)
    assert flow.dt == pytest.approx(0.1)


def test_synth_flow_known_displacement():
    # identity extrinsics: the camera axis is radar +z; a point 2 m out moving
    # 0.2 m/s along +x shifts fx * (0.02 / 2) = 5 px per 0.1 s frame
    scene = _scene(
        Scatterer(position=(0.0, 0.0, 2.0), velocity=(0.2, 0.0, 0.0)),
        lidar_points_per_scatterer=1,
        lidar_jitter_sigma=0.0,
        frame_interval=0.1,
        n_frames=2,
    )
    flow = synth_flow(scene, 0, _identity_camera(fx=500.0))
    assert flow.covered[240, 320]
    assert flow.flow[240, 320] == pytest.approx([5.0, 0.0], abs=1e-4)
    assert flow.covered.sum() == 1


def test_synth_flow_radial_motion_through_axis_is_zero():
    scene = _scene(
        Scatterer(position=(0.0, 0.0, 2.0), velocity=(0.0, 0.0, 0.5)),
        lidar_points_per_scatterer=1,
        lidar_jitter_sigma=0.0,
        n_frames=2,
    )
    flow = synth_flow(scene, 0, _identity_camera())
    assert flow.covered[240, 320]
    assert np.allclose(flow.flow[240, 320], [0.0, 0.0], atol=1e-9)


def test_synth_flow_skips_points_behind_camera():
    scene = _scene(
        Scatterer(position=(0.0, 0.0, -2.0)),
        lidar_points_per_scatterer=5,
        lidar_jitter_sigma=0.0,
        n_frames=2,
    )
    flow = synth_flow(scene, 0, _identity_camera())
    assert not flow.covered.any()


def _assert_flow_matches_oracle(scene, camera, frame_index=0):
    got = synth_flow(scene, frame_index, camera)
    want, behind = oracle_synth_flow(scene, frame_index, camera)
    assert np.array_equal(got.flow, want.flow)
    assert np.array_equal(got.covered, want.covered)
    assert got.dt == want.dt
    return got, behind


def test_synth_flow_nearest_depth_wins_a_shared_pixel():
    # three scatterers on one ray through pixel (240, 370): the middle one is
    # nearest, the farthest comes first in point order
    camera = _identity_camera()
    scene = _scene(
        Scatterer(position=(0.3, 0.0, 3.0), velocity=(0.4, 0.0, 0.0)),
        Scatterer(position=(0.1, 0.0, 1.0), velocity=(0.0, 0.2, 0.0)),
        Scatterer(position=(0.2, 0.0, 2.0), velocity=(-0.3, 0.0, 0.0)),
        lidar_points_per_scatterer=3, lidar_jitter_sigma=0.0,
    )
    flow, _ = _assert_flow_matches_oracle(scene, camera)
    assert flow.covered.sum() == 1 and flow.covered[240, 370]
    assert flow.flow[240, 370] == pytest.approx([0.0, 10.0], abs=1e-4)


def test_synth_flow_depth_tie_goes_to_lowest_point_index():
    # two scatterers at the same spot moving apart: equal depths, different flow
    camera = _identity_camera()
    scene = _scene(
        Scatterer(position=(0.0, 0.0, 2.0), velocity=(0.2, 0.0, 0.0)),
        Scatterer(position=(0.0, 0.0, 2.0), velocity=(-0.2, 0.0, 0.0)),
        lidar_points_per_scatterer=2, lidar_jitter_sigma=0.0,
    )
    flow, _ = _assert_flow_matches_oracle(scene, camera)
    assert flow.flow[240, 320] == pytest.approx([5.0, 0.0], abs=1e-4)


def test_synth_flow_skips_off_image_and_one_frame_behind(caplog):
    # off the image; behind the camera only in the later frame; behind only in
    # the earlier frame; and one point that is splatted
    camera = _identity_camera()
    scene = _scene(
        Scatterer(position=(5.0, 0.0, 1.0)),
        Scatterer(position=(0.0, 0.0, 0.05), velocity=(0.0, 0.0, -1.0)),
        Scatterer(position=(0.0, 0.0, -0.05), velocity=(0.0, 0.0, 1.0)),
        Scatterer(position=(0.0, 0.1, 2.0)),
        lidar_points_per_scatterer=4, lidar_jitter_sigma=0.0,
    )
    with caplog.at_level(logging.INFO, logger="velofusion.sim"):
        flow, behind = _assert_flow_matches_oracle(scene, camera)
    assert behind == 8
    assert "skipped 8 points behind the camera" in caplog.text
    assert flow.covered.sum() == 1 and flow.covered[265, 320]


@pytest.mark.parametrize("seed", range(4))
def test_synth_flow_matches_oracle_with_rotated_camera(seed):
    # dense jittered objects around a rotated, translated camera: many points
    # share pixels, some fall behind or off the image
    rng = np.random.default_rng(seed)
    camera = CameraModel(fx=300.0, fy=320.0, cx=80.0, cy=60.0, width=160, height=120,
                         rotation=random_rotation(rng, max_angle=0.6),
                         translation=rng.uniform(-0.3, 0.3, 3))
    scene = _scene(
        *(Scatterer(position=(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                              rng.uniform(-0.5, 4.0)),
                    velocity=tuple(rng.uniform(-2.0, 2.0, 3)))
          for _ in range(8)),
        lidar_points_per_scatterer=200, lidar_jitter_sigma=0.05, n_frames=3, seed=seed,
    )
    for f in (0, 1):
        _assert_flow_matches_oracle(scene, camera, f)


# A camera whose image coordinates are the point's x and y at depth 1, so
# scatterers at z = 1 without jitter land on exact (u, v) values.
UNIT_CAMERA = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=8, height=6)


def _splat_and_read(uv):
    """synth_flow over one point per (u, v) at depth 1, each with its own
    velocity, and read_flow at the same coordinates."""
    scene = _scene(
        *(Scatterer(position=(u, v, 1.0), velocity=(0.1 * (i + 1), -0.05 * (i + 1), 0.0))
          for i, (u, v) in enumerate(uv)),
        lidar_points_per_scatterer=1, lidar_jitter_sigma=0.0,
    )
    flow = synth_flow(scene, 0, UNIT_CAMERA)
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    vec, covered = read_flow(flow, uv[:, 0], uv[:, 1])
    return flow, vec, covered


def test_synth_flow_writes_where_read_flow_reads():
    # (u, v) -> (row, col), or None off the image: halves round up, so the
    # last half pixel of each axis is off the image and -0.5 is on it.
    cases = [
        ((-0.5, 0.0), (0, 0)),
        ((2.5, 1.5), (2, 3)),
        ((3.5, -0.5), (0, 4)),
        ((7.49, 4.0), (4, 7)),
        ((6.0, 5.49), (5, 6)),
        ((1.5, 4.5), (5, 2)),
        ((0.49, 2.5), (3, 0)),
        ((7.5, 1.0), None),     # u = width - 0.5
        ((5.0, 5.5), None),     # v = height - 0.5
        ((-0.51, 3.0), None),
        ((4.0, -0.51), None),
    ]
    flow, vec, covered = _splat_and_read([uv for uv, _ in cases])
    for i, (_, pixel) in enumerate(cases):
        if pixel is None:
            assert not covered[i]
            continue
        assert covered[i] and flow.covered[pixel]
        np.testing.assert_array_equal(vec[i], flow.flow[pixel])
        # the point's own displacement, not a neighbour's
        np.testing.assert_allclose(vec[i], [0.01 * (i + 1), -0.005 * (i + 1)], rtol=1e-5)
    assert flow.covered.sum() == sum(pixel is not None for _, pixel in cases)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 2 * UNIT_CAMERA.width + 2),
                          st.integers(-3, 2 * UNIT_CAMERA.height + 2)),
                min_size=1, max_size=30))
def test_synth_flow_and_read_flow_agree_on_half_pixels(halves):
    # coordinates on the half-pixel grid around and across the image; points
    # sharing a pixel tie on depth, so the lowest index writes it
    uv = [(a / 2, b / 2) for a, b in halves]
    flow, vec, covered = _splat_and_read(uv)
    winners = {}
    for i, (u, v) in enumerate(uv):
        row, col = math.floor(v + 0.5), math.floor(u + 0.5)
        on_image = 0 <= row < UNIT_CAMERA.height and 0 <= col < UNIT_CAMERA.width
        assert covered[i] == on_image
        if on_image:
            winner = winners.setdefault((row, col), i)
            np.testing.assert_array_equal(vec[i], vec[winner])
            np.testing.assert_array_equal(vec[i], flow.flow[row, col])
            np.testing.assert_allclose(vec[i], [0.01 * (winner + 1), -0.005 * (winner + 1)],
                                       rtol=1e-5)
    assert flow.covered.sum() == len(winners)


def test_synth_flow_empty_scene():
    flow, behind = _assert_flow_matches_oracle(_scene(n_frames=2), _identity_camera())
    assert not flow.covered.any() and behind == 0


def test_synth_flow_needs_a_next_frame():
    scene = _scene(Scatterer(position=(0.0, 0.0, 2.0)), n_frames=2)
    with pytest.raises(ValueError):
        synth_flow(scene, 1, _identity_camera())


def test_synth_flow_antisymmetry():
    rng = np.random.default_rng(17)
    scats = tuple(
        Scatterer(
            position=(0.3 * i - 0.6, 0.2 * rng.standard_normal(), 2.0 + 0.5 * i),
            velocity=tuple(0.3 * rng.standard_normal(3)),
        )
        for i in range(4)
    )
    scene = _scene(*scats, lidar_points_per_scatterer=40,
                   lidar_jitter_sigma=0.005, n_frames=3, seed=21)
    fwd = synth_flow(scene, 0, _identity_camera())

    stepped = advance_scene(scene, 1)
    reversed_scene = SceneConfig(
        scatterers=tuple(
            Scatterer(position=s.position, velocity=tuple(-np.asarray(s.velocity)),
                      amplitude=s.amplitude)
            for s in stepped.scatterers
        ),
        frame_interval=scene.frame_interval,
        n_frames=2,
        noise_floor=0.0,
        lidar_points_per_scatterer=scene.lidar_points_per_scatterer,
        lidar_jitter_sigma=scene.lidar_jitter_sigma,
        seed=scene.seed,
    )
    bwd = synth_flow(reversed_scene, 0, _identity_camera())

    # where a forward flow vector lands on a pixel covered by the backward
    # field, the two should roughly cancel
    ys, xs = np.nonzero(fwd.covered)
    checked = 0
    for y, x in zip(ys, xs):
        du, dv = fwd.flow[y, x]
        x2 = int(np.floor(x + du + 0.5))
        y2 = int(np.floor(y + dv + 0.5))
        if 0 <= x2 < 640 and 0 <= y2 < 480 and bwd.covered[y2, x2]:
            total = fwd.flow[y, x] + bwd.flow[y2, x2]
            assert np.all(np.abs(total) < 1.0)
            checked += 1
    assert checked > 10


def test_ground_truth_velocities():
    scene = _scene(
        Scatterer(position=(2.0, 0.0, 0.0), velocity=(0.5, 0.0, 0.0)),
        Scatterer(position=(4.0, 1.0, 0.0), velocity=(0.0, -0.2, 0.1)),
        lidar_points_per_scatterer=3,
        lidar_jitter_sigma=0.0,
    )
    cloud = synth_lidar(scene, 0)
    gt = ground_truth_velocities(scene, cloud)
    assert np.all(gt.status == PointStatus.OK)
    assert np.allclose(gt.velocities[cloud.labels == 0], [0.5, 0.0, 0.0])
    assert np.allclose(gt.velocities[cloud.labels == 1], [0.0, -0.2, 0.1])


def test_ground_truth_requires_labels():
    scene = _scene(Scatterer(position=(2.0, 0.0, 0.0)))
    cloud = synth_lidar(scene, 0)
    from velofusion.types import PointCloud

    unlabeled = PointCloud(cloud.positions)
    with pytest.raises(ValueError):
        ground_truth_velocities(scene, unlabeled)
