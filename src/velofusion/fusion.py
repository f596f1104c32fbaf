"""Closed-form fusion of radar radial velocity with optical flow.

The rig is static: the camera has one pose for both frames of a flow pair.
For a point q observed at the later frame, three linear constraints pin
down its full 3D velocity m in the camera frame:

    [ 1  0  -u_p ]       [ (q1 - u_p * q3) / dt ]
    [ 0  1  -v_p ] * m = [ (q2 - v_p * q3) / dt ]
    [   r_hat    ]       [        r_dot         ]

(u_p, v_p) are the normalized image coordinates of the point's earlier
observation (reconstructed by walking its pixel back along the flow), and
r_dot the radial velocity along the radar line of sight r_hat. The first
two rows say that q - dt * m projects onto (u_p, v_p).
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

# The condition number at which a point is DEGENERATE_GEOMETRY; far below
# rank deficiency (about 1e15), so the LU of a solved point has no zero pivot.
COND_BOUND = 1e6
_EPS = np.finfo(np.float64).eps


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


def frobenius_cond(u_p: np.ndarray, v_p: np.ndarray, r_hat: np.ndarray) -> np.ndarray:
    """Frobenius-norm condition numbers (N,) |M|_F |adj M|_F / |det M| of the
    constraint matrices with rows (1, 0, -u_p), (0, 1, -v_p) and r_hat. For
    3x3 matrices cond_2 <= cond_F <= 3 cond_2 (Golub & Van Loan, Matrix
    Computations, 2.3). Exactly singular matrices give inf, M = +-I gives 3,
    and inputs whose squares overflow give inf or NaN.
    """
    rx, ry, rz = r_hat[:, 0], r_hat[:, 1], r_hat[:, 2]
    with np.errstate(all="ignore"):
        w2 = u_p * u_p + v_p * v_p
        norm2 = 2.0 + w2 + (rx * rx + ry * ry + rz * rz)  # |M|_F^2
        adj2 = ((rz + v_p * ry) ** 2 + (rz + u_p * rx) ** 2 + (v_p * rx) ** 2 + (u_p * ry) ** 2
                + rx * rx + ry * ry + w2 + 1.0)  # |adj M|_F^2
        return np.sqrt(norm2 * adj2) / np.abs(u_p * rx + v_p * ry + rz)  # / |det M|


def solve_velocities(
    p_norm: np.ndarray,
    q_cam: np.ndarray,
    r_hat: np.ndarray,
    r_dot: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the three flow/radial constraints of many points at once.

    p_norm (N, 2) holds the normalized image coordinates of the earlier
    observations, q_cam (N, 3) the positions in the camera frame, r_hat
    (N, 3) the unit radar lines of sight in that frame, r_dot (N,) the
    radial velocities and dt the seconds between the frames. Returns
    (velocities (N, 3) in the camera frame, solved (N,)): a point whose
    constraint matrix has a non-finite condition number or one that
    reaches COND_BOUND is not solved and gets zero velocity.

    The decision is np.linalg.cond's, taken without one SVD per point: with
    c = frobenius_cond and the relative tolerance tol = 64 eps (1 + c), which
    covers the rounding of c and of LAPACK's cond_2, a point is solved when
    tol < 1 and c (1 + tol) < COND_BOUND, since cond_2 <= c, and degenerate
    when tol < 1 and c (1 - tol) >= 3 COND_BOUND, since c <= 3 cond_2.
    np.linalg.cond runs on the rest, one SVD each: points whose cond_2 may lie
    within about 3x of the bound, and those whose c is not finite or above
    about 7e13.
    The solved points go through np.linalg.solve.
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
    m = np.zeros((len(p), 3, 3))
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    m[:, 0, 2], m[:, 1, 2] = 0.0 - u_p, 0.0 - v_p  # not -u_p: a zero u_p gives +0.0
    m[:, 2] = r_hat
    rhs = np.stack([(q[:, 0] - u_p * q[:, 2]) / dt, (q[:, 1] - v_p * q[:, 2]) / dt,
                    r_dot], axis=1)
    c = frobenius_cond(u_p, v_p, r_hat)
    with np.errstate(all="ignore"):
        tol = 64.0 * _EPS * (1.0 + c)
        sure = tol < 1  # False where c is NaN, inf or above about 7e13
        solved = sure & (c * (1.0 + tol) < COND_BOUND)
        degenerate = sure & (c * (1.0 - tol) >= 3.0 * COND_BOUND)
    undecided = np.flatnonzero(~(solved | degenerate))
    if len(undecided):
        cond = np.linalg.cond(m[undecided])
        solved[undecided] = np.isfinite(cond) & (cond < COND_BOUND)
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
    vel_cam, solved = solve_velocities(p_norm, q_cam, r_hat_cam, r_dot[idx], pair.dt)
    status[idx[~solved]] = PointStatus.DEGENERATE_GEOMETRY
    velocities = np.zeros((len(pts), 3))
    velocities[idx[solved]] = vel_cam[solved] @ camera.rotation  # back into the radar frame
    return VelocityPointCloud(pts.copy(), velocities, status)
