"""Closed-form fusion of radar radial velocity with optical flow.

For a point q observed at the later frame of a flow pair, three linear
constraints pin down its full 3D velocity m (expressed in the later camera
frame, then rotated back into the radar frame):

    [ R1 - u_p * R3 ]       [ (q1 - u_p * q3) / dt ]
    [ R2 - v_p * R3 ] * m = [ (q2 - v_p * q3) / dt ]
    [     r_hat     ]       [        r_dot         ]

R1..R3 are the rows of the rotation carrying earlier-frame vectors into the
later camera frame, (u_p, v_p) the normalized image coordinates of the
point's earlier observation (reconstructed by walking its pixel back along
the flow), and r_dot the radial velocity along the radar line of sight
r_hat. For a static rig the rotation is the identity and both camera frames
coincide.
"""
from __future__ import annotations

import numpy as np

from .types import (
    CameraModel,
    FlowField,
    FramePair,
    PointCloud,
    PointStatus,
    VelocityPointCloud,
    nearest_pixels,
    project_points,
)
from .velcube import (
    ContextWindow,
    VelocityCube,
    cartesian_to_polar,
    point_bins,
    query_radial_velocity,  # noqa: F401  the benchmark's tracer looks this name up here
    window_table,
)

DEFAULT_COND_BOUND = 1e6


def read_flow(flow: FlowField, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow vectors (N, 2) at the nearest pixels to (u, v), and a mask of the
    points that land on a covered pixel; the rest read zero flow. NaN
    coordinates (no pixel) are never covered.
    """
    on_image, rows, cols = nearest_pixels(u, v, flow.covered.shape)
    covered = np.zeros(len(u), dtype=bool)
    covered[on_image] = flow.covered[rows, cols]
    flow_vec = np.zeros((len(u), 2))
    flow_vec[on_image] = flow.flow[rows, cols]  # uncovered pixels hold zero flow
    return flow_vec, covered


def solve_velocities(
    p_norm: np.ndarray,
    q_cam: np.ndarray,
    r_hat: np.ndarray,
    r_dot: np.ndarray,
    pair: FramePair,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the three flow/radial constraints of many points at once.

    p_norm (N, 2) holds the normalized image coordinates of the earlier
    observations, q_cam (N, 3) the positions in the later camera frame,
    r_hat (N, 3) the unit radar lines of sight and r_dot (N,) the radial
    velocities. The solved velocities are expressed in the frame the
    rotation maps from; with an identity rotation everything lives in the
    one static camera frame. Returns (velocities (N, 3), solved (N,)): a
    point whose constraint matrix has a non-finite condition number or one
    that reaches cond_bound is not solved and gets zero velocity.
    """
    p = np.asarray(p_norm, dtype=np.float64).reshape(-1, 2)
    q = np.asarray(q_cam, dtype=np.float64).reshape(-1, 3)
    r_hat = np.asarray(r_hat, dtype=np.float64).reshape(-1, 3)
    r_dot = np.asarray(r_dot, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(r_hat, axis=1)
    off_unit = np.abs(norm - 1.0) > 1e-9
    if off_unit.any():
        raise ValueError(f"r_hat must be a unit vector, got norm {norm[off_unit][0]!r}")
    u_p, v_p = p[:, 0], p[:, 1]
    rot = pair.rotation_a_to_b
    m = np.stack([rot[0] - u_p[:, None] * rot[2], rot[1] - v_p[:, None] * rot[2], r_hat], axis=1)
    rhs = np.stack([(q[:, 0] - u_p * q[:, 2]) / pair.dt, (q[:, 1] - v_p * q[:, 2]) / pair.dt,
                    r_dot], axis=1)
    cond = np.linalg.cond(m)
    solved = np.isfinite(cond) & (cond < cond_bound)
    velocities = np.zeros((len(p), 3))
    velocities[solved] = np.linalg.solve(m[solved], rhs[solved, :, None])[:, :, 0]
    return velocities, solved


def estimate_frame(
    cloud: PointCloud,
    vc: VelocityCube,
    flow: FlowField,
    camera: CameraModel,
    pair: FramePair,
    window: ContextWindow | None = None,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> VelocityPointCloud:
    """Estimate a 3D velocity for every point of the later frame's cloud.

    Points keep their input order. A point that cannot be estimated gets a
    zero velocity and a status explaining why, checked in this order: radar
    coverage, radar return in the context window, camera pixel with flow,
    then the conditioning of the solve. Calibration inconsistencies raise
    before any point is processed.
    """
    window = window or ContextWindow()
    if flow.flow.shape[:2] != (camera.height, camera.width):
        raise ValueError(
            f"flow grid {flow.flow.shape[:2]} does not match camera image "
            f"{(camera.height, camera.width)}"
        )
    if abs(flow.dt - pair.dt) > 1e-9 * max(flow.dt, pair.dt):
        raise ValueError(f"flow dt {flow.dt!r} disagrees with frame pair dt {pair.dt!r}")

    pts = cloud.positions
    bins, inside = point_bins(pts, vc.config)
    table = window_table(vc, window)
    voxels = tuple(bins.T)
    r_dot = table.velocity[voxels]

    u, v, _ = project_points(pts, camera)
    flow_vec, covered = read_flow(flow, u, v)

    # Assigned from the last check to the first, so the first failing check wins.
    status = np.full(len(pts), PointStatus.OK, dtype=np.uint8)
    status[~covered] = PointStatus.OUT_OF_CAMERA
    status[~table.valid[voxels]] = PointStatus.NO_RADAR_RETURN
    status[~inside] = PointStatus.OUT_OF_RADAR_FOV

    # Walk each pixel back along the flow to the earlier frame, then
    # normalize with the intrinsics.
    idx = np.flatnonzero(status == PointStatus.OK)
    p = pts[idx]
    p_norm = np.stack([(u[idx] - flow_vec[idx, 0] - camera.cx) / camera.fx,
                       (v[idx] - flow_vec[idx, 1] - camera.cy) / camera.fy], axis=1)
    rng = cartesian_to_polar(p)[0]
    q_cam = p @ camera.rotation.T + camera.translation
    r_hat_cam = (p / rng[:, None]) @ camera.rotation.T
    vel_cam, solved = solve_velocities(p_norm, q_cam, r_hat_cam, r_dot[idx], pair, cond_bound)
    status[idx[~solved]] = PointStatus.DEGENERATE_GEOMETRY
    velocities = np.zeros((len(pts), 3))
    velocities[idx[solved]] = vel_cam[solved] @ camera.rotation  # back into the radar frame
    return VelocityPointCloud(pts.copy(), velocities, status)
