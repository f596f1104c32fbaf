from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velofusion.cube import RadarConfig, build_radar_cube, threshold_cube
from velofusion.fusion import (
    DEFAULT_COND_BOUND,
    closed_form_cond,
    estimate_frame,
    read_flow,
    solve_velocities,
)
from velofusion.io import default_camera, load_scene
from velofusion.sim import Scatterer, SceneConfig, synth_flow, synth_lidar, simulate_adc
from velofusion.types import (
    CameraModel,
    FlowField,
    FramePair,
    PointCloud,
    PointStatus,
    VelocityPointCloud,
    project_points,
)
from velofusion.velcube import ContextWindow, VelocityCube, collapse_doppler, query_radial_velocity

from helpers import oracle_estimate_frame, random_rotation

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _identity_camera(fx=500.0):
    return CameraModel(fx=fx, fy=fx, cx=320.0, cy=240.0, width=640, height=480)


def _project_one(point, camera):
    u, v, depth = project_points(np.asarray(point, dtype=np.float64)[None, :], camera)
    return float(u[0]), float(v[0]), float(depth[0])


def test_projection_examples():
    cam = _identity_camera()
    u, v, z = _project_one([0.0, 0.0, 2.0], cam)
    assert (u, v, z) == (320.0, 240.0, 2.0)
    u, v, z = _project_one([0.4, 0.0, 2.0], cam)
    assert u == pytest.approx(420.0)
    assert v == pytest.approx(240.0)


def test_projection_behind_camera():
    cam = _identity_camera()
    u, v, z = _project_one([0.0, 0.0, -1.0], cam)
    assert z == -1.0
    assert np.isnan(u) and np.isnan(v)


def test_projection_uses_extrinsics():
    cam = default_camera()
    # forward camera: radar +x is the optical axis, +y maps to image left
    u, v, z = _project_one([2.0, 0.0, 0.0], cam)
    assert (u, v, z) == (320.0, 240.0, 2.0)
    u, _, _ = _project_one([2.0, 0.5, 0.0], cam)
    assert u < 320.0


_CALIBRATION = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.mark.parametrize("key, value, message", [
    ("fx", 0.0, "focal lengths"),
    ("fy", -1.0, "focal lengths"),
    ("fx", np.nan, "focal lengths"),
    ("cx", np.nan, "principal point"),
    ("cy", np.inf, "principal point"),
    ("rotation", np.full((3, 3), np.nan), "rotation: entries must be finite"),
    ("rotation", np.diag([1.0, 1.0, np.nan]), "rotation: entries must be finite"),
    ("rotation", np.diag([1.0, 1.0, 2.0]), "not orthonormal"),
    ("rotation", np.diag([1.0, 1.0, -1.0]), "determinant"),
    ("translation", [0.0, np.nan, 0.0], "translation must be finite"),
    ("translation", [0.0, 0.0, -np.inf], "translation must be finite"),
])
def test_camera_model_rejects_bad_calibration(key, value, message):
    CameraModel(**_CALIBRATION)
    with pytest.raises(ValueError, match=message):
        CameraModel(**{**_CALIBRATION, key: value})


def test_read_flow():
    flow = np.zeros((20, 30, 2), dtype=np.float32)
    covered = np.zeros((20, 30), dtype=bool)
    flow[11, 10] = (1.5, -2.0)
    covered[11, 10] = True
    field = FlowField(flow, covered, 0.1)
    u = np.array([10.0, 10.4, -3.0, 10.0, np.nan, 29.6, 10.0])
    v = np.array([11.0, 10.6, 10.0, 10.0, 11.0, 11.0, 19.5])
    vec, ok = read_flow(field, u, v)
    # (10.4, 10.6) rounds to pixel (10, 11); off the image, uncovered or NaN
    # pixels are not covered and read zero flow
    assert list(ok) == [True, True, False, False, False, False, False]
    assert np.allclose(vec[:2], [[1.5, -2.0], [1.5, -2.0]])
    assert np.all(vec[2:] == 0)
    assert vec.dtype == np.float64


def test_flow_field_rejects_flow_on_uncovered_pixels():
    flow = np.zeros((4, 5, 2), dtype=np.float32)
    covered = np.zeros((4, 5), dtype=bool)
    flow[1, 2] = (0.5, 0.0)
    covered[1, 2] = True
    FlowField(flow, covered, 0.1)
    for bad in (0.25, -1e-30, np.nan):
        field = flow.copy()
        field[3, 4, 1] = bad
        with pytest.raises(ValueError, match="uncovered"):
            FlowField(field, covered, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flow_field_rejects_non_finite_covered_flow(bad):
    flow = np.zeros((4, 5, 2), dtype=np.float32)
    covered = np.zeros((4, 5), dtype=bool)
    covered[1, 2] = covered[3, 4] = True
    flow[1, 2] = (0.5, 0.0)
    flow[3, 4, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        FlowField(flow, covered, 0.1)


def test_velocity_point_cloud_rejects_non_finite_velocities():
    positions = np.array([[1.0, 0.0, 2.0], [np.nan, 0.0, 2.0]])
    velocities = np.zeros((2, 3))
    status = np.array([PointStatus.OK, PointStatus.OK], dtype=np.uint8)
    VelocityPointCloud(positions, velocities, status)  # cluster_points labels NaN positions noise
    for bad in (np.nan, np.inf):
        velocities[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            VelocityPointCloud(positions, velocities, status)


def _solve_one(p_norm, q, r_hat, r_dot, dt=0.1):
    """solve_velocities for one point (one-row arrays): (velocity (3,), solved)."""
    vel, solved = solve_velocities(p_norm, q, r_hat, [r_dot], dt)
    return vel[0], bool(solved[0])


def test_solve_stationary_point_is_zero():
    q = np.array([0.5, -0.2, 2.0])
    vel, solved = _solve_one((0.25, -0.1), q, q / np.linalg.norm(q), 0.0)
    assert solved
    assert np.allclose(vel, 0.0, atol=1e-12)


def test_solve_pure_radial_motion():
    vel, solved = _solve_one((0.0, 0.0), [0.0, 0.0, 2.0], [0.0, 0.0, 1.0], 0.5)
    assert solved
    assert np.allclose(vel, [0.0, 0.0, 0.5], atol=1e-12)


def test_solve_requires_unit_r_hat():
    with pytest.raises(ValueError, match="unit"):
        _solve_one((0.0, 0.0), [0.0, 0.0, 2.0], [0.0, 0.0, 1.1], 0.5)


def test_solve_degenerate_geometry():
    # r_hat lies in the span of the two flow rows: singular system
    vel, solved = _solve_one((0.0, 0.0), [0.0, 0.0, 2.0], [1.0, 0.0, 0.0], 0.5)
    assert not solved
    assert np.all(vel == 0)


def _forward_instance(rng):
    """Generate a consistent (p_norm, q, r_hat, r_dot, dt, truth) tuple.

    The later-frame position q and the velocity truth are drawn, the earlier
    observation is reconstructed by moving the point backwards.
    """
    dt = rng.uniform(0.02, 0.2)
    truth = rng.uniform(-2.0, 2.0, 3)
    q = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(1.0, 8.0)])
    p = q - dt * truth
    if p[2] < 0.2:
        return None
    p_norm = (p[0] / p[2], p[1] / p[2])
    r_hat = q / np.linalg.norm(q)
    r_dot = float(r_hat @ truth)
    return p_norm, q, r_hat, r_dot, dt, truth


def test_solve_round_trip_many():
    rng = np.random.default_rng(41)
    done = 0
    while done < 300:
        inst = _forward_instance(rng)
        if inst is None:
            continue
        p_norm, q, r_hat, r_dot, dt, truth = inst
        vel, solved = _solve_one(p_norm, q, r_hat, r_dot, dt)
        if not solved:
            continue
        assert np.linalg.norm(vel - truth) <= 1e-9 * max(np.linalg.norm(truth), 1.0)
        done += 1


def test_solve_is_frame_rate_invariant():
    truth = np.array([0.4, -0.2, 0.6])
    q = np.array([0.3, 0.1, 3.0])
    r_hat = q / np.linalg.norm(q)
    for dt in (0.1, 0.05):
        p = q - dt * truth
        p_norm = (p[0] / p[2], p[1] / p[2])
        vel, solved = _solve_one(p_norm, q, r_hat, float(r_hat @ truth), dt)
        assert solved
        assert np.allclose(vel, truth, atol=1e-10)


def _full_flow(camera, dt=0.1):
    flow = np.zeros((camera.height, camera.width, 2), dtype=np.float32)
    covered = np.ones((camera.height, camera.width), dtype=bool)
    return FlowField(flow, covered, dt)


def _cube_with_voxels(cfg, voxels):
    vel = np.zeros((cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins))
    valid = np.zeros_like(vel, dtype=bool)
    for (r, a, e), v in voxels.items():
        vel[r, a, e] = v
        valid[r, a, e] = True
    return VelocityCube(vel, valid, cfg)


def test_estimate_frame_empty_cloud():
    cfg = RadarConfig()
    camera = default_camera()
    out = estimate_frame(
        PointCloud(np.zeros((0, 3))),
        _cube_with_voxels(cfg, {}),
        _full_flow(camera),
        camera,
        FramePair(),
    )
    assert len(out.positions) == 0


def test_estimate_frame_status_paths():
    cfg = RadarConfig()
    camera = default_camera()
    vc = _cube_with_voxels(cfg, {(64, 16, 4): 0.35, (25, 31, 4): 0.2})
    points = np.array([
        [3.0, 0.0, 0.0],     # radar return, on the camera axis -> ok
        [10.0, 0.0, 0.0],    # beyond max range
        [2.0, -1.0, 0.0],    # inside fov, no valid voxel nearby
        [1.0, 0.577, 0.0],   # 30 deg off axis: radar sees it, image does not
    ])
    out = estimate_frame(PointCloud(points), vc, _full_flow(camera), camera, FramePair())
    assert list(out.status) == [
        PointStatus.OK,
        PointStatus.OUT_OF_RADAR_FOV,
        PointStatus.NO_RADAR_RETURN,
        PointStatus.OUT_OF_CAMERA,
    ]
    assert np.allclose(out.velocities[0], [0.35, 0.0, 0.0], atol=1e-12)
    assert np.all(out.velocities[1:] == 0)


def test_estimate_frame_degenerate_status():
    cfg = RadarConfig()
    camera = default_camera()
    vc = _cube_with_voxels(cfg, {(64, 16, 4): 0.35})
    out = estimate_frame(
        PointCloud(np.array([[3.0, 0.0, 0.0]])),
        vc,
        _full_flow(camera),
        camera,
        FramePair(),
        cond_bound=1.0,  # nothing is well-conditioned enough
    )
    assert out.status[0] == PointStatus.DEGENERATE_GEOMETRY
    assert np.all(out.velocities == 0)


def test_estimate_frame_checks_calibration():
    cfg = RadarConfig()
    camera = default_camera()
    vc = _cube_with_voxels(cfg, {})
    cloud = PointCloud(np.array([[3.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="dt"):
        estimate_frame(cloud, vc, _full_flow(camera, dt=0.2), camera, FramePair(dt=0.1))
    small = CameraModel(fx=600.0, fy=600.0, cx=160.0, cy=120.0, width=320, height=240,
                        rotation=camera.rotation)
    with pytest.raises(ValueError, match="does not match"):
        estimate_frame(cloud, vc, _full_flow(camera), small, FramePair())


def test_estimate_frame_preserves_order():
    cfg = RadarConfig()
    camera = default_camera()
    vc = _cube_with_voxels(cfg, {(64, 16, 4): 0.35})
    rng = np.random.default_rng(47)
    points = rng.uniform([2.8, -0.1, -0.1], [3.2, 0.1, 0.1], size=(25, 3))
    out = estimate_frame(PointCloud(points), vc, _full_flow(camera), camera, FramePair())
    assert np.array_equal(out.positions, points)
    assert len(out.status) == 25


def test_estimate_frame_radial_and_flow_consistency():
    cfg = RadarConfig()
    camera = default_camera()
    rng = np.random.default_rng(53)
    voxels = {}
    points = []
    for _ in range(15):
        r = rng.uniform(1.0, 5.5)
        az = rng.uniform(-0.4, 0.4)
        p = r * np.array([np.cos(az), np.sin(az), 0.0])
        points.append(p)
        rb = int(round(r / cfg.range_resolution))
        ab = cfg.n_azimuth_bins // 2 + int(round(az / cfg.azimuth_bin_width))
        voxels[(rb, ab, 4)] = rng.integers(-16, 16) * cfg.speed_resolution
    vc = _cube_with_voxels(cfg, voxels)
    points = np.array(points)
    flow = _full_flow(camera)
    pair = FramePair()
    window = ContextWindow()
    out = estimate_frame(PointCloud(points), vc, flow, camera, pair, window)
    ok = out.status == PointStatus.OK
    assert ok.sum() >= 10
    for i in np.nonzero(ok)[0]:
        p = points[i]
        r_hat = p / np.linalg.norm(p)
        r_dot, found = query_radial_velocity(vc, p, window)
        assert found
        # third constraint row: the radial component is reproduced exactly
        assert float(out.velocities[i] @ r_hat) == pytest.approx(r_dot, abs=1e-9)
        # first two rows: the backtracked point reprojects onto the earlier
        # normalized image coordinates
        q_cam = camera.rotation @ p
        vel_cam = camera.rotation @ out.velocities[i]
        u, v, _ = _project_one(p, camera)
        u_p = (u - camera.cx) / camera.fx  # zero flow everywhere
        v_p = (v - camera.cy) / camera.fy
        back = q_cam - pair.dt * vel_cam
        assert back[0] / back[2] == pytest.approx(u_p, abs=1e-9)
        assert back[1] / back[2] == pytest.approx(v_p, abs=1e-9)


def _run_scene_estimate(scene, cfg, camera):
    cloud = synth_lidar(scene, 1)
    cube = threshold_cube(build_radar_cube(simulate_adc(scene, 1, cfg), cfg), cfg.threshold_db)
    vc = collapse_doppler(cube, cfg)
    flow = synth_flow(scene, 0, camera)
    out = estimate_frame(cloud, vc, flow, camera, FramePair(dt=scene.frame_interval))
    return out


def test_estimate_frame_synthetic_round_trip():
    cfg = RadarConfig()
    camera = default_camera()
    scene = SceneConfig(
        scatterers=(Scatterer(position=(2.0, 0.0, 0.0), velocity=(0.3, 0.0, 0.0)),),
        frame_interval=0.1,
        n_frames=2,
        noise_floor=0.0,
        lidar_points_per_scatterer=60,
        lidar_jitter_sigma=0.004,
        seed=7,
    )
    out = _run_scene_estimate(scene, cfg, camera)
    ok = out.status == PointStatus.OK
    assert ok.sum() >= 10
    err = np.linalg.norm(out.velocities[ok] - np.array([0.3, 0.0, 0.0]), axis=1)
    bound = max(cfg.speed_resolution / 2, 0.5 * 2.0 / (camera.fx * scene.frame_interval))
    assert np.all(err <= bound + 0.02)


def test_estimate_frame_rate_invariance():
    cfg = RadarConfig()
    camera = default_camera()
    means = []
    for dt in (0.1, 0.05):
        scene = SceneConfig(
            scatterers=(Scatterer(position=(2.0, 0.0, 0.0), velocity=(0.3, 0.0, 0.0)),),
            frame_interval=dt,
            n_frames=2,
            noise_floor=0.0,
            lidar_points_per_scatterer=60,
            lidar_jitter_sigma=0.004,
            seed=11,
        )
        out = _run_scene_estimate(scene, cfg, camera)
        ok = out.status == PointStatus.OK
        assert ok.sum() >= 10
        means.append(out.velocities[ok].mean(axis=0))
    assert np.linalg.norm(means[0] - means[1]) <= 0.05
    for m in means:
        assert np.linalg.norm(m - [0.3, 0.0, 0.0]) <= 0.08


def test_solve_velocities_matches_one_point_solves():
    rng = np.random.default_rng(59)
    insts = [inst for inst in (_forward_instance(rng) for _ in range(80)) if inst is not None]
    p_norm = np.array([inst[0] for inst in insts])
    q = np.array([inst[1] for inst in insts])
    r_hat = np.array([inst[2] for inst in insts])
    r_dot = np.array([inst[3] for inst in insts])
    # at p_norm (0, 0) the flow rows are the x and y axes; an r_hat along
    # one of them makes the system singular
    p_norm[0] = [0.0, 0.0]
    r_hat[0] = [1.0, 0.0, 0.0]
    vel, solved = solve_velocities(p_norm, q, r_hat, r_dot, 0.1)
    assert not solved[0] and np.all(vel[0] == 0)
    for k in range(1, len(insts)):
        one, one_solved = _solve_one(p_norm[k], q[k], r_hat[k], r_dot[k], 0.1)
        assert solved[k] == one_solved
        np.testing.assert_array_equal(vel[k], one)


# --------------------------------------------------------------------------
# Batched estimate_frame against the per-point oracle loop

# 6.4 m of range over 32 bins, a radar FoV wider than the camera's.
ORACLE_RADAR = RadarConfig(n_samples=32, n_chirps=8, n_azimuth_bins=8, n_elevation_bins=4,
                           range_resolution=0.2)
# The forward camera moved 1 m ahead of the radar: radar-visible points
# closer than that lie behind it.
AHEAD_CAMERA = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480,
                           rotation=default_camera().rotation,
                           translation=np.array([0.05, -0.02, -1.0]))
# A camera 2 m ahead of the radar and 2 m to its left, looking along radar
# -y. Under zero flow a point's constraint matrix is singular exactly when
# its camera ray is perpendicular to its radar line of sight, that is on the
# sphere whose diameter runs from the radar origin to the camera center.
SIDE_CENTER = np.array([2.0, 2.0, 0.0])
SIDE_ROTATION = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
SIDE_CAMERA = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480,
                          rotation=SIDE_ROTATION, translation=-SIDE_ROTATION @ SIDE_CENTER)
_SIDE_ANGLES = np.radians([-45.0, -40.0, -35.0, -30.0])
ON_SIDE_SPHERE = SIDE_CENTER / 2 + np.sqrt(2.0) * np.stack(
    [np.cos(_SIDE_ANGLES), np.sin(_SIDE_ANGLES), np.zeros(4)], axis=1)


def _oracle_scene(rng, n_points=300, density=0.1, coverage=0.7):
    cfg = ORACLE_RADAR
    shape = (cfg.n_range_bins, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    vel = np.zeros(shape)
    valid = rng.random(shape) < density
    vel[valid] = rng.integers(-3, 4, size=int(valid.sum())) * cfg.speed_resolution
    vc = VelocityCube(vel, valid, cfg)
    r = rng.uniform(0.05, cfg.max_range * 1.15, n_points)
    az = rng.uniform(-0.8, 0.8, n_points)
    el = rng.uniform(-0.5, 0.5, n_points)
    pts = r[:, None] * np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], 1)
    pts[:4] = 0.0                                   # zero-norm points
    pts[4:8] = [[1.5, 0.3, 0.0], [2.5, -0.6, 0.0], [3.5, 0.0, 0.0], [5.0, 1.2, 0.0]]  # center row
    pts[8:12] = [[-1.0, 0.2, 0.1], [0.3, 0.0, 0.0], [0.5, 0.1, 0.0], [2.0, 0.0, 0.0]]
    camera = default_camera()
    flow = rng.normal(0.0, 2.0, (camera.height, camera.width, 2)).astype(np.float32)
    covered = rng.random((camera.height, camera.width)) < coverage
    flow[~covered] = 0.0
    return PointCloud(pts), vc, FlowField(flow, covered, 0.1)


def _assert_matches_oracle(cloud, vc, flow, camera, pair, window, cond_bound=1e6):
    got = estimate_frame(cloud, vc, flow, camera, pair, window, cond_bound)
    status, velocities = oracle_estimate_frame(cloud, vc, flow, camera, pair, window, cond_bound)
    np.testing.assert_array_equal(got.status, status)
    np.testing.assert_array_equal(got.velocities, velocities)
    return got


@pytest.mark.parametrize("window", [
    ContextWindow(1, 1, 1), ContextWindow(3, 2, 5), ContextWindow(4, 3, 6),
    ContextWindow(10, 10, 20), ContextWindow(20, 9, 64),  # the last exceeds every axis
])
@pytest.mark.parametrize("camera", [default_camera(), AHEAD_CAMERA], ids=["forward", "ahead"])
def test_estimate_frame_matches_oracle(window, camera):
    rng = np.random.default_rng(window.range_extent + int(camera.translation[2]))
    seen = np.zeros(len(PointStatus), dtype=int)
    for density in (0.02, 0.2):
        cloud, vc, flow = _oracle_scene(rng, density=density)
        out = _assert_matches_oracle(cloud, vc, flow, camera, FramePair(), window)
        seen += np.bincount(out.status, minlength=len(PointStatus))
    assert seen[PointStatus.OK] and seen[PointStatus.OUT_OF_CAMERA] and \
        seen[PointStatus.OUT_OF_RADAR_FOV]
    if window.range_extent < 20:
        assert seen[PointStatus.NO_RADAR_RETURN]


def test_estimate_frame_matches_oracle_behind_camera_and_uncovered():
    rng = np.random.default_rng(61)
    cloud, vc, flow = _oracle_scene(rng, density=1.0, coverage=0.5)
    out = _assert_matches_oracle(cloud, vc, flow, AHEAD_CAMERA, FramePair(), ContextWindow())
    u, v, depth = project_points(cloud.positions, AHEAD_CAMERA)
    in_radar = out.status != PointStatus.OUT_OF_RADAR_FOV
    # both ways of missing the camera occur: behind it, and on an uncovered pixel
    assert np.any(in_radar & (depth <= 0))
    assert np.any(in_radar & (depth > 0) & (out.status == PointStatus.OUT_OF_CAMERA))


@pytest.mark.parametrize("cond_bound", [1e6, 50.0, 1.0])
def test_estimate_frame_matches_oracle_degenerate_rotation(cond_bound):
    """The side camera's extrinsic rotation puts points on the singular sphere."""
    rng = np.random.default_rng(67)
    cloud, vc, flow = _oracle_scene(rng, density=1.0, coverage=1.0)
    flow = FlowField(np.zeros_like(flow.flow), flow.covered, flow.dt)
    points = cloud.positions.copy()
    points[4:8] = ON_SIDE_SPHERE
    points[8:12] = ON_SIDE_SPHERE * [1.05, 1.0, 1.0]  # just off the sphere
    out = _assert_matches_oracle(PointCloud(points), vc, flow, SIDE_CAMERA, FramePair(),
                                 ContextWindow(), cond_bound)
    assert np.all(out.status[4:8] == PointStatus.DEGENERATE_GEOMETRY)
    if cond_bound == 1.0:
        assert not np.any(out.status == PointStatus.OK)
    else:
        assert np.all(out.status[8:12] == PointStatus.OK)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(0, 120))
def test_estimate_frame_permutation_equivariant(seed, n_points):
    rng = np.random.default_rng(seed)
    cloud, vc, flow = _oracle_scene(rng, n_points=max(n_points, 12))
    cloud = PointCloud(cloud.positions[:n_points])
    camera = replace(default_camera(),
                     rotation=random_rotation(rng, 0.2) @ default_camera().rotation)
    perm = rng.permutation(n_points)
    base = estimate_frame(cloud, vc, flow, camera, FramePair())
    shuffled = estimate_frame(PointCloud(cloud.positions[perm]), vc, flow, camera, FramePair())
    np.testing.assert_array_equal(shuffled.status, base.status[perm])
    np.testing.assert_array_equal(shuffled.velocities, base.velocities[perm])


# --------------------------------------------------------------------------
# The closed-form condition number behind the DEGENERATE_GEOMETRY decision

_EPS = np.finfo(np.float64).eps
_COND_BOUNDS = (1.0, 50.0, 1e6, 1e12, np.inf)


def _unit(x):
    return x / np.linalg.norm(x)


def _constraint_matrices(p_norm, r_hat):
    """The stacked constraint matrices exactly as solve_velocities builds them."""
    m = np.zeros((len(p_norm), 3, 3))
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    m[:, 0, 2], m[:, 1, 2] = 0.0 - p_norm[:, 0], 0.0 - p_norm[:, 1]
    m[:, 2] = r_hat
    return m


@st.composite
def _constraint_rows(draw):
    """(u_p, v_p, r_hat) of one constraint matrix, drawn from a family that
    stresses the closed form: any line of sight, one nearly or exactly
    perpendicular to (u, v, 1) (singular), one nearly along it (the two small
    singular values coincide), M = +-I, an exactly singular matrix on the
    optical axis, or one whose two largest singular values coincide.
    """
    kind = draw(st.sampled_from(["random", "near_perp", "along", "identity", "axis_singular",
                                 "top_double"]))
    if kind == "identity":
        return 0.0, 0.0, np.array([0.0, 0.0, draw(st.sampled_from([1.0, -1.0]))])
    angle = draw(st.floats(0.0, 2 * np.pi))
    if kind == "axis_singular":
        return 0.0, 0.0, np.array([np.cos(angle), np.sin(angle), 0.0])
    if kind == "top_double":
        # u_p = w cos(angle), v_p = w sin(angle) and r_hat = w r_z w_hat +
        # b w_perp + r_z e_z with |b| = w^2: then M M^T - I has the eigenvalue
        # w^2 twice.
        w = draw(st.floats(0.01, 1.0))
        b = w * w * draw(st.sampled_from([1.0, -1.0]))
        r_z = np.sqrt((1.0 - b * b) / (1.0 + w * w))
        w_hat, w_perp = np.array([np.cos(angle), np.sin(angle)]), np.array([-np.sin(angle), np.cos(angle)])
        r_xy = w * r_z * w_hat + b * w_perp
        tilt = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
        return w * w_hat[0], w * w_hat[1], _unit(np.append(r_xy, r_z) + tilt)
    coord = st.floats(-1e3, 1e3)
    u, v = draw(coord), draw(coord)
    direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if np.linalg.norm(direction) < 1e-3:
        direction = np.array([0.3, -0.5, 0.8])
    n_hat = _unit(np.array([u, v, 1.0]))
    if kind == "random":
        return u, v, _unit(direction)
    tilt = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    if kind == "along":
        return u, v, _unit(n_hat + tilt * direction)
    perp = np.cross(n_hat, direction)
    if np.linalg.norm(perp) < 1e-3:
        perp = np.cross(n_hat, [1.0, 0.0, 0.0])
    return u, v, _unit(_unit(perp) + tilt * n_hat)


def _lapack_factors(matrix) -> bool:
    """Whether LAPACK's LU factors the matrix: np.linalg.solve raises on an
    exactly zero pivot."""
    try:
        np.linalg.solve(matrix, np.zeros(3))
    except np.linalg.LinAlgError:
        return False
    return True


def test_solve_velocities_leaves_an_unfactorable_point_unsolved_at_an_infinite_bound():
    """An exactly singular matrix whose LAPACK cond is finite (~1e17) is
    rank-deficient, not solved, at cond_bound = inf."""
    r_hat = np.array([0.9507, 0.2194, -0.2194])
    r_hat /= np.linalg.norm(r_hat)
    assert not _lapack_factors(_constraint_matrices(np.array([[0.0, 1.0]]), r_hat[None])[0])
    vel, solved = solve_velocities([[0.0, 1.0]], [[0.4, -0.3, 5.0]], r_hat, [0.1], 0.1, np.inf)
    assert solved.tolist() == [False] and vel.tolist() == [[0.0, 0.0, 0.0]]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_constraint_rows(), max_size=12))
def test_solve_velocities_decides_as_lapack_cond(rows):
    """solved is np.isfinite(c) & (c < bound) for c = np.linalg.cond(M) and
    the bound capped at 1 / (3 eps), where M is rank-deficient to working
    precision, so a matrix LAPACK cannot factor is never solved. The
    velocities keep every bit of np.linalg.solve, and the closed form agrees
    with LAPACK: within 64 eps cond, and within its band where the two
    largest singular values coincide."""
    p_norm = np.array([row[:2] for row in rows], dtype=np.float64).reshape(-1, 2)
    r_hat = np.array([row[2] for row in rows], dtype=np.float64).reshape(-1, 3)
    q = np.tile([0.4, -0.3, 5.0], (len(rows), 1))
    r_dot = np.linspace(-1.0, 1.0, len(rows))
    m = _constraint_matrices(p_norm, r_hat)
    cond = np.linalg.cond(m) if len(rows) else np.zeros(0)
    unfactorable = np.array([not _lapack_factors(x) for x in m], dtype=bool)
    rhs = np.stack([(q[:, 0] - p_norm[:, 0] * q[:, 2]) / 0.1,
                    (q[:, 1] - p_norm[:, 1] * q[:, 2]) / 0.1, r_dot], axis=1)
    for bound in _COND_BOUNDS:
        expected = np.isfinite(cond) & (cond < min(bound, 1 / (3 * _EPS)))
        velocities = np.zeros((len(rows), 3))
        velocities[expected] = np.linalg.solve(m[expected], rhs[expected, :, None])[:, :, 0]
        vel, solved = solve_velocities(p_norm, q, r_hat, r_dot, 0.1, bound)
        np.testing.assert_array_equal(solved, expected)
        np.testing.assert_array_equal(vel, velocities)
        assert not solved[unfactorable].any()  # DEGENERATE_GEOMETRY at every bound

    c = closed_form_cond(p_norm[:, 0], p_norm[:, 1], r_hat)
    with np.errstate(all="ignore"):
        err = np.abs(c - cond)
    checked = cond < 1e12
    assert np.all(err[checked] <= 64 * (np.sqrt(_EPS) + _EPS * cond[checked]) * cond[checked])
    s = np.linalg.svd(m, compute_uv=False) if len(rows) else np.zeros((0, 3))
    apart = checked & (s[:, 0] - s[:, 1] > 1e-3 * s[:, 0])
    assert np.all(err[apart] <= 64 * _EPS * cond[apart] * cond[apart])


@pytest.mark.parametrize("r_z", [1.0, -1.0])
def test_closed_form_cond_of_identity_is_one(r_z):
    """A point on the optical axis seen along it: M = +-I, where Smith's p is 0."""
    c = closed_form_cond(np.zeros(1), np.zeros(1), np.array([[0.0, 0.0, r_z]]))
    assert c.tolist() == [1.0]


def _count_lapack_cond(monkeypatch):
    calls = []
    lapack_cond = np.linalg.cond

    def counting_cond(x, *args, **kwargs):
        calls.append(len(x))
        return lapack_cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    return calls


def test_lapack_cond_not_called_on_a_demo_frame(monkeypatch):
    scene, cfg, camera = load_scene(SCENES / "demo.json")
    cloud = synth_lidar(scene, 1)
    vc = collapse_doppler(build_radar_cube(simulate_adc(scene, 1, cfg), cfg), cfg)
    flow = synth_flow(scene, 0, camera)
    calls = _count_lapack_cond(monkeypatch)
    for cond_bound in (DEFAULT_COND_BOUND, np.inf):
        out = estimate_frame(cloud, vc, flow, camera, FramePair(scene.frame_interval),
                             cond_bound=cond_bound)
        assert np.count_nonzero(out.status == PointStatus.OK) > 100
    assert calls == []
    solve_velocities(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), 0.1)
    assert calls == []


def test_lapack_cond_decides_the_singular_sphere(monkeypatch):
    rng = np.random.default_rng(67)
    cloud, vc, flow = _oracle_scene(rng, density=1.0, coverage=1.0)
    flow = FlowField(np.zeros_like(flow.flow), flow.covered, flow.dt)
    points = cloud.positions.copy()
    points[4:8] = ON_SIDE_SPHERE
    calls = _count_lapack_cond(monkeypatch)
    out = estimate_frame(PointCloud(points), vc, flow, SIDE_CAMERA, FramePair())
    assert len(calls) == 1 and calls[0] >= 4
    assert np.all(out.status[4:8] == PointStatus.DEGENERATE_GEOMETRY)
