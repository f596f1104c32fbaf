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

DEFAULT_COND_BOUND = 1e6
_EPS = np.finfo(np.float64).eps
# At this condition number a 3x3 matrix is rank-deficient to working
# precision (np.linalg.matrix_rank's default tolerance, 3 eps sigma_max), and
# LAPACK's LU may meet an exactly zero pivot: such a point is degenerate
# whatever the cond_bound.
_RANK_DEFICIENT_COND = 1.0 / (3.0 * _EPS)


def check_cond_bound(cond_bound: float) -> None:
    """Reject a cond_bound that is no condition number bound: one below 1, or NaN."""
    if not cond_bound >= 1:  # written so that NaN fails
        raise ValueError(f"cond_bound must be >= 1, got {cond_bound!r}")


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


def closed_form_cond(u_p: np.ndarray, v_p: np.ndarray, r_hat: np.ndarray) -> np.ndarray:
    """2-norm condition numbers (N,) of the constraint matrices with rows
    (1, 0, -u_p), (0, 1, -v_p) and r_hat, from elementwise float64 ufuncs only.

    The eigenvalues of M M^T are 1 + mu, where mu are the eigenvalues of
    E = M M^T - I. E's entries are u^2, v^2, uv, the residuals
    b = (r_x - u r_z, r_y - v r_z) and |r_hat|^2 - 1, so they carry no
    cancellation; its characteristic polynomial is
    mu^3 - tr(E) mu^2 + (kappa w^2 - |b|^2) mu + gamma^2 with
    w^2 = u^2 + v^2, kappa = |r_hat|^2 - 1 and gamma = u r_y - v r_x. The
    largest root mu1 comes from Smith's trigonometric formula (CACM 1961);
    the other two have the product -gamma^2 / mu1 <= 0, so the larger one,
    mu2, solves a quadratic whose discriminant is a sum of squares. With
    det M = r_hat . (u, v, 1) = s1 s2 s3, cond = s1 / s3 = (1 + mu1)
    sqrt(1 + mu2) / |det M|.

    Against np.linalg.cond the relative error is a few eps * cond, except
    near matrices whose two largest singular values coincide, where the
    trigonometric formula loses half the digits (up to ~sqrt(eps)). Exactly
    singular matrices give inf; M = I gives 1. Inputs whose squares overflow
    give NaN.
    """
    rx, ry, rz = r_hat[:, 0], r_hat[:, 1], r_hat[:, 2]
    with np.errstate(all="ignore"):
        e00, e11, e01 = u_p * u_p, v_p * v_p, u_p * v_p
        e02, e12 = rx - u_p * rz, ry - v_p * rz
        e22 = (rx * rx + ry * ry + rz * rz) - 1.0
        w2 = e00 + e11
        gamma2 = (u_p * ry - v_p * rx) ** 2
        # Smith: mu1 = q + 2 p cos(acos(det(B) / 2) / 3), B = (E - q I) / p.
        q = (e00 + e11 + e22) / 3.0
        b00, b11, b22 = e00 - q, e11 - q, e22 - q
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                     + 2.0 * (e01 * e01 + e02 * e02 + e12 * e12)) / 6.0)
        b00, b11, b22, b01, b02, b12 = b00 / p, b11 / p, b22 / p, e01 / p, e02 / p, e12 / p
        det_b = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                 + b02 * (b01 * b12 - b11 * b02))
        phi = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0
        mu1 = np.where(p > 0, q + 2.0 * p * np.cos(phi), q)  # p = 0: E = q I
        # mu2 + mu3 from the trace, or for mu1 > 1 (where the trace's
        # rounding would grow with mu1) from the quadratic coefficient.
        s = np.where(mu1 > 1.0,
                     (e22 * w2 - (e02 * e02 + e12 * e12) + gamma2 / mu1) / mu1,
                     (w2 + e22) - mu1)
        prod = gamma2 / np.maximum(mu1, np.finfo(np.float64).tiny)  # -mu2 * mu3; 0 when mu1 = 0
        root = np.sqrt(s * s + 4.0 * prod)
        mu2 = np.where(s >= 0, (s + root) / 2.0, 2.0 * prod / (root - s))
        det = u_p * rx + v_p * ry + rz
        return (1.0 + mu1) * np.sqrt(1.0 + mu2) / np.abs(det)


def solve_velocities(
    p_norm: np.ndarray,
    q_cam: np.ndarray,
    r_hat: np.ndarray,
    r_dot: np.ndarray,
    dt: float,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the three flow/radial constraints of many points at once.

    p_norm (N, 2) holds the normalized image coordinates of the earlier
    observations, q_cam (N, 3) the positions in the camera frame, r_hat
    (N, 3) the unit radar lines of sight in that frame, r_dot (N,) the
    radial velocities and dt the seconds between the frames. Returns
    (velocities (N, 3) in the camera frame, solved (N,)): a point whose
    constraint matrix has a non-finite condition number or one that
    reaches the bound is not solved and gets zero velocity. The bound is
    cond_bound (a condition number, so at least 1), capped at 1 / (3 eps),
    where the matrix is rank-deficient to working precision.

    The decision is np.linalg.cond's, taken without one SVD per point:
    closed_form_cond gives each condition number c in closed form, and
    np.linalg.cond runs only on the points it cannot decide, those whose c
    is not finite or lies within 64 (sqrt(eps) + eps c) c of the bound.
    That band covers the closed form's error and LAPACK's. The solved points
    go through np.linalg.solve.
    """
    check_cond_bound(cond_bound)
    bound = min(cond_bound, _RANK_DEFICIENT_COND)
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
    c = closed_form_cond(u_p, v_p, r_hat)
    with np.errstate(all="ignore"):
        tol = 64.0 * (np.sqrt(_EPS) + _EPS * c) * c
        decided = (np.abs(c - bound) > tol) & (tol < c)  # False where c is NaN or inf
    solved = decided & (c < bound)
    undecided = np.flatnonzero(~decided)
    if len(undecided):
        cond = np.linalg.cond(m[undecided])
        solved[undecided] = np.isfinite(cond) & (cond < bound)
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
    vel_cam, solved = solve_velocities(p_norm, q_cam, r_hat_cam, r_dot[idx], pair.dt, cond_bound)
    status[idx[~solved]] = PointStatus.DEGENERATE_GEOMETRY
    velocities = np.zeros((len(pts), 3))
    velocities[idx[solved]] = vel_cam[solved] @ camera.rotation  # back into the radar frame
    return VelocityPointCloud(pts.copy(), velocities, status)
