"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written without np.fft and, apart from the
stages named in a docstring, without reusing package internals: DFTs are
explicit matrix products, searches are plain loops. Slow but unambiguous.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from velofusion.cube import RadarConfig
from velofusion.metrics import ASSOCIATION_GATE, ObjectTrack, TrackFrame, cluster_points
from velofusion.sim import SceneConfig
from velofusion.types import FlowField, PointCloud, PointStatus, project_points
from velofusion.velcube import ContextWindow


def hanning_closed_form(n: int) -> np.ndarray:
    i = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * i / (n - 1)))


def dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def center_shift(x: np.ndarray, axis: int) -> np.ndarray:
    """Move the zero bin of a DFT axis to index n // 2."""
    return np.roll(x, x.shape[axis] // 2, axis=axis)


def dft_cube_oracle(samples: np.ndarray, cfg: RadarConfig) -> np.ndarray:
    """(chirp, sample, az, el) ADC -> (range, az, el, doppler) magnitudes."""
    x = samples.astype(np.complex128)
    x = x * hanning_closed_form(cfg.n_chirps)[:, None, None, None]
    x = x * hanning_closed_form(cfg.n_samples)[None, :, None, None]
    x = np.tensordot(dft_matrix(cfg.n_samples), x, axes=([1], [1]))  # -> (range, chirp, az, el)
    x = np.tensordot(dft_matrix(cfg.n_chirps), x, axes=([1], [1]))   # -> (doppler, range, az, el)
    x = center_shift(x, 0)
    x = np.tensordot(dft_matrix(cfg.n_azimuth_bins), x, axes=([1], [2]))  # -> (az, doppler, range, el)
    x = center_shift(x, 0)
    x = np.tensordot(dft_matrix(cfg.n_elevation_bins), x, axes=([1], [3]))  # -> (el, az, doppler, range)
    x = center_shift(x, 0)
    return np.abs(x).transpose(3, 1, 0, 2)  # -> (range, az, el, doppler)


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


def window_coverage(cfg: RadarConfig, window: ContextWindow) -> tuple[float, float, float]:
    """Physical span of a context window: (azimuth rad, elevation rad, range m)."""
    return (
        window.azimuth_extent * cfg.azimuth_bin_width,
        window.elevation_extent * cfg.elevation_bin_width,
        window.range_extent * cfg.range_resolution,
    )


def brute_collapse(mag: np.ndarray, cfg: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel Doppler argmax with explicit tie rules, by exhaustive loop."""
    nr, na, ne, nd = mag.shape
    velocity = np.zeros((nr, na, ne))
    valid = np.zeros((nr, na, ne), dtype=bool)
    for r in range(nr):
        for a in range(na):
            for e in range(ne):
                best = None
                for d in range(nd):
                    m = mag[r, a, e, d]
                    v = (d - nd // 2) * cfg.speed_resolution
                    key = (-m, abs(v), d)  # max magnitude, then min |v|, then low bin
                    if best is None or key < best[0]:
                        best = (key, m, v)
                if best[1] > 0:
                    velocity[r, a, e] = best[2]
                    valid[r, a, e] = True
    return velocity, valid


def brute_point_bins(point: np.ndarray, cfg: RadarConfig) -> tuple[int, int, int] | None:
    """Nearest (range, az, el) bin of one point, None outside the coverage."""
    x, y, z = point
    rng = float(np.sqrt(x * x + y * y + z * z))
    if rng == 0.0 or rng > cfg.max_range:
        return None
    az = float(np.arctan2(y, x))
    el = float(np.arcsin(np.clip(z / rng, -1.0, 1.0)))
    if abs(az) > cfg.azimuth_fov / 2 or abs(el) > cfg.elevation_fov / 2:
        return None

    def clamp(v: int, n: int) -> int:
        return min(max(v, 0), n - 1)

    return (
        clamp(round(rng / cfg.range_resolution), cfg.n_range_bins),
        clamp(cfg.n_azimuth_bins // 2 + round(az / (cfg.azimuth_fov / cfg.n_azimuth_bins)),
              cfg.n_azimuth_bins),
        clamp(cfg.n_elevation_bins // 2
              + round(el / (cfg.elevation_fov / cfg.n_elevation_bins)),
              cfg.n_elevation_bins),
    )


def brute_window_at(
    velocity: np.ndarray,
    valid: np.ndarray,
    bins: tuple[int, int, int],
    extents: tuple[int, int, int],
) -> tuple[float, bool]:
    """Reference context-window rule around one voxel: clamped window, max
    |v|, ties to the positive sign then to the first bin in scan order."""
    rb, ab, eb = bins
    n_rng, n_az, n_el = velocity.shape
    ext_az, ext_el, ext_rng = extents
    best = None
    def span(center: int, extent: int, count: int) -> range:
        return range(max(center - extent // 2, 0),
                     min(center + (extent - 1 - extent // 2), count - 1) + 1)

    for r in span(rb, ext_rng, n_rng):
        for a in span(ab, ext_az, n_az):
            for e in span(eb, ext_el, n_el):
                if not valid[r, a, e]:
                    continue
                v = velocity[r, a, e]
                if best is None or abs(v) > abs(best) or (abs(v) == abs(best) and v > 0 > best):
                    best = v
    if best is None:
        return 0.0, False
    return float(best), True


def brute_window_query(
    velocity: np.ndarray,
    valid: np.ndarray,
    cfg: RadarConfig,
    point: np.ndarray,
    extents: tuple[int, int, int],
) -> tuple[float, bool]:
    """Reference context-window lookup of one point; (0.0, False) outside
    the coverage. extents are (azimuth, elevation, range) bins."""
    bins = brute_point_bins(point, cfg)
    if bins is None:
        return 0.0, False
    return brute_window_at(velocity, valid, bins, extents)


def oracle_estimate_frame(cloud, vc, flow, camera, pair, window, cond_bound=1e6):
    """The per-point estimation loop: (status, velocities) of every point.

    Each point runs the status chain in order (radar coverage, window
    return, camera pixel with flow, conditioning) and one 3x3 solve.
    """
    extents = (window.azimuth_extent, window.elevation_extent, window.range_extent)
    n = len(cloud)
    velocities = np.zeros((n, 3))
    status = np.full(n, PointStatus.OK, dtype=np.uint8)
    for i in range(n):
        point = cloud.positions[i]
        bins = brute_point_bins(point, vc.config)
        if bins is None:
            status[i] = PointStatus.OUT_OF_RADAR_FOV
            continue
        r_dot, found = brute_window_at(vc.velocity, vc.valid, bins, extents)
        if not found:
            status[i] = PointStatus.NO_RADAR_RETURN
            continue
        x_c, y_c, depth = (point[None, :] @ camera.rotation.T + camera.translation)[0]
        if depth <= 0:
            status[i] = PointStatus.OUT_OF_CAMERA
            continue
        u = camera.fx * x_c / depth + camera.cx
        v = camera.fy * y_c / depth + camera.cy
        col, row = int(np.floor(u + 0.5)), int(np.floor(v + 0.5))
        h, w = flow.covered.shape
        if not (0 <= col < w and 0 <= row < h) or not flow.covered[row, col]:
            status[i] = PointStatus.OUT_OF_CAMERA
            continue
        flow_vec = flow.flow[row, col].astype(np.float64)
        u_p = (u - flow_vec[0] - camera.cx) / camera.fx
        v_p = (v - flow_vec[1] - camera.cy) / camera.fy
        x, y, z = point
        rng = np.sqrt(x * x + y * y + z * z)
        q = camera.rotation @ point + camera.translation
        m = np.array([[1.0, 0.0, 0.0 - u_p], [0.0, 1.0, 0.0 - v_p],
                      camera.rotation @ (point / rng)])
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond >= cond_bound:
            status[i] = PointStatus.DEGENERATE_GEOMETRY
            continue
        rhs = np.array([(q[0] - u_p * q[2]) / pair.dt, (q[1] - v_p * q[2]) / pair.dt, r_dot])
        velocities[i] = camera.rotation.T @ np.linalg.solve(m, rhs)
    return status, velocities


def oracle_cluster_points(points: np.ndarray, eps: float, min_points: int) -> np.ndarray:
    """DBSCAN labels from the dense N x N distance matrix and union-find.

    Core points have >= min_points neighbors within eps (itself included),
    clusters are connected components of core points, a border point joins
    its nearest core neighbor's cluster (lowest index on ties), labels are
    numbered by first appearance, noise is -1.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    within = dist <= eps
    core = within.sum(axis=1) >= min_points
    parent = np.arange(n)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    core_idx = np.flatnonzero(core)
    for a in core_idx:
        for b in np.flatnonzero(within[a] & core):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    labels = np.full(n, -1, dtype=np.int64)
    for a in core_idx:
        labels[a] = find(a)
    for a in np.flatnonzero(~core):
        cands = np.flatnonzero(within[a] & core)
        if len(cands):
            labels[a] = find(cands[np.argmin(dist[a, cands])])
    out = np.full(n, -1, dtype=np.int64)
    mapping: dict[int, int] = {}
    for i in range(n):
        if labels[i] >= 0:
            out[i] = mapping.setdefault(labels[i], len(mapping))
    return out
    best = None
    for r in range(max(rb - ext_rng // 2, 0),
                   min(rb + (ext_rng - 1 - ext_rng // 2), cfg.n_range_bins - 1) + 1):
        for a in range(max(ab - ext_az // 2, 0),
                       min(ab + (ext_az - 1 - ext_az // 2), cfg.n_azimuth_bins - 1) + 1):
            for e in range(max(eb - ext_el // 2, 0),
                           min(eb + (ext_el - 1 - ext_el // 2), cfg.n_elevation_bins - 1) + 1):
                if not valid[r, a, e]:
                    continue
                v = velocity[r, a, e]
                if best is None or abs(v) > abs(best) or (abs(v) == abs(best) and v > 0 > best):
                    best = v
    if best is None:
        return 0.0, False
    return float(best), True


def oracle_simulate_adc(scene, frame_index: int, cfg: RadarConfig) -> np.ndarray:
    """The per-scatterer ADC render: one complex128 outer product of the four
    phase ramps per scatterer, summed in scatterer order, then the noise.

    Checks each scatterer in turn (zero range, max range, angular FoV,
    unambiguous speed) and raises ValueError("scatterer i: <check>") at the
    first failure. Returns the complex64 samples.
    """
    shape = (cfg.n_chirps, cfg.n_samples, cfg.n_azimuth_bins, cfg.n_elevation_bins)
    acc = np.zeros(shape, dtype=np.complex128)
    t = frame_index * scene.frame_interval
    chirps = np.arange(cfg.n_chirps)
    samples = np.arange(cfg.n_samples)
    az_ant = np.arange(cfg.n_azimuth_bins)
    el_ant = np.arange(cfg.n_elevation_bins)
    for i, scat in enumerate(scene.scatterers):
        pos = np.asarray(scat.position, dtype=np.float64) \
            + t * np.asarray(scat.velocity, dtype=np.float64)
        x, y, z = pos
        rng_m = np.sqrt(x * x + y * y + z * z)
        if rng_m == 0.0:
            raise ValueError(f"scatterer {i}: zero range")
        az = np.arctan2(y, x)
        el = np.arcsin(np.clip(z / rng_m, -1.0, 1.0))
        if rng_m >= cfg.max_range:
            raise ValueError(f"scatterer {i}: max range")
        if abs(az) > cfg.azimuth_fov / 2 or abs(el) > cfg.elevation_fov / 2:
            raise ValueError(f"scatterer {i}: field of view")
        v_radial = float(np.dot(np.asarray(scat.velocity, dtype=np.float64), pos / rng_m))
        if abs(v_radial) >= cfg.max_speed:
            raise ValueError(f"scatterer {i}: unambiguous speed")
        f_rng = rng_m / (cfg.range_resolution * cfg.n_samples)
        f_dop = v_radial / (cfg.speed_resolution * cfg.n_chirps)
        f_az = az / cfg.azimuth_fov
        f_el = el / cfg.elevation_fov
        acc += scat.amplitude * np.einsum(
            "c,s,a,e->csae",
            np.exp(2j * np.pi * f_dop * chirps),
            np.exp(2j * np.pi * f_rng * samples),
            np.exp(2j * np.pi * f_az * az_ant),
            np.exp(2j * np.pi * f_el * el_ant),
        )
    if scene.noise_floor > 0:
        rng = np.random.default_rng([scene.seed, frame_index, 1])
        scale = scene.noise_floor / np.sqrt(2.0)
        acc += scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return acc.astype(np.complex64)


def assert_adc_close(got: np.ndarray, want: np.ndarray, scene) -> None:
    """Equal within one float32 ulp per real and imaginary component, or within
    the rounding noise of a complex128 sum of the scatterers' terms where that
    sum cancels to nearly zero: 2 (K + 4) eps64 sum(|amplitude|), K scatterers,
    which bounds the gap between any two summation orders of the terms."""
    a = got.view(np.float32)
    b = want.view(np.float32)
    k = len(scene.scatterers)
    noise = 2 * (k + 4) * np.finfo(np.float64).eps * sum(s.amplitude for s in scene.scatterers)
    tol = np.spacing(np.maximum(np.abs(a), np.abs(b))) + np.float32(noise)
    bad = np.flatnonzero(~(np.abs(a - b) <= tol))
    assert not len(bad), (f"{len(bad)} components differ, first at flat index {bad[0]}: "
                          f"{a.flat[bad[0]]!r} vs {b.flat[bad[0]]!r}")


def oracle_synth_lidar(scene, frame_index: int) -> PointCloud:
    """LiDAR samples drawn scatterer by scatterer: k x 3 normals each."""
    if not scene.scatterers:
        return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    rng = np.random.default_rng([scene.seed, frame_index, 0])
    t = frame_index * scene.frame_interval
    k = scene.lidar_points_per_scatterer
    pts, labels = [], []
    for i, scat in enumerate(scene.scatterers):
        center = np.asarray(scat.position, dtype=np.float64) \
            + t * np.asarray(scat.velocity, dtype=np.float64)
        pts.append(center + scene.lidar_jitter_sigma * rng.standard_normal((k, 3)))
        labels.append(np.full(k, i, dtype=np.int64))
    return PointCloud(np.concatenate(pts), np.concatenate(labels))


def oracle_synth_flow(scene, frame_index: int, camera) -> tuple[FlowField, int]:
    """The per-point z-buffer splat: the flow field and the number of points
    skipped behind the camera.

    Points are visited in index order and a pixel is overwritten only by a
    strictly nearer earlier-frame depth, so the lowest index wins a tie.
    Projection is the package's `project_points`.
    """
    cloud = oracle_synth_lidar(scene, frame_index)
    vel = np.array([s.velocity for s in scene.scatterers], dtype=np.float64)
    later = cloud.positions + scene.frame_interval * vel[cloud.labels] \
        if len(cloud) else cloud.positions
    flow = np.zeros((camera.height, camera.width, 2), dtype=np.float32)
    covered = np.zeros((camera.height, camera.width), dtype=bool)
    zbuf: dict[tuple[int, int], float] = {}
    u0, v0, z0 = project_points(cloud.positions, camera)
    u1, v1, z1 = project_points(later, camera)
    behind = 0
    for i in range(len(cloud)):
        if z0[i] <= 0 or z1[i] <= 0:
            behind += 1
            continue
        col = int(np.floor(u0[i] + 0.5))
        row = int(np.floor(v0[i] + 0.5))
        if not (0 <= col < camera.width and 0 <= row < camera.height):
            continue
        if z0[i] < zbuf.get((row, col), np.inf):
            zbuf[row, col] = z0[i]
            flow[row, col, 0] = u1[i] - u0[i]
            flow[row, col, 1] = v1[i] - v0[i]
            covered[row, col] = True
    return FlowField(flow, covered, scene.frame_interval), behind


def oracle_build_tracks(frames, eps: float, min_points: int) -> list[ObjectTrack]:
    """Tracks with every cluster summarised by masked means, one cluster at a
    time, then greedy nearest-centroid association against the tracks whose
    last frame is the frame before. Clustering is the package's
    `cluster_points`, which has its own oracle above."""
    tracks: list[ObjectTrack] = []
    active: dict[int, ObjectTrack] = {}
    for frame in sorted(frames, key=lambda f: f.frame_index):
        labels = cluster_points(frame.positions, eps, min_points)
        observations = []
        for cid in range(labels.max() + 1 if len(labels) else 0):
            members = labels == cid
            ok = members & (frame.status == PointStatus.OK)
            observations.append(TrackFrame(
                frame_index=frame.frame_index,
                timestamp=frame.timestamp,
                centroid=frame.positions[members].mean(axis=0),
                mean_velocity=frame.velocities[ok].mean(axis=0) if ok.any() else None,
                gt_velocity=(frame.gt_velocities[members].mean(axis=0)
                             if frame.gt_velocities is not None else None),
                n_points=int(members.sum()),
                n_ok=int(ok.sum()),
            ))
        pairs = []
        for tid, track in active.items():
            if track.frames[-1].frame_index != frame.frame_index - 1:
                continue
            for cid, obs in enumerate(observations):
                d = float(np.linalg.norm(obs.centroid - track.frames[-1].centroid))
                if d <= ASSOCIATION_GATE:
                    pairs.append((d, tid, cid))
        pairs.sort()
        taken_tracks: set[int] = set()
        taken_clusters: set[int] = set()
        next_active: dict[int, ObjectTrack] = {}
        for d, tid, cid in pairs:
            if tid in taken_tracks or cid in taken_clusters:
                continue
            taken_tracks.add(tid)
            taken_clusters.add(cid)
            active[tid].frames.append(observations[cid])
            next_active[tid] = active[tid]
        for cid, obs in enumerate(observations):
            if cid not in taken_clusters:
                track = ObjectTrack(track_id=len(tracks), frames=[obs])
                tracks.append(track)
                next_active[track.track_id] = track
        active = next_active
    return tracks


def single_frame_tracks(estimates: np.ndarray, truths: np.ndarray) -> list[ObjectTrack]:
    """One single-frame track per (estimate, truth) row, centered on +x, so
    that evaluate_tracks scores exactly these rows, in order."""
    return [ObjectTrack(i, [TrackFrame(0, 0.0, np.array([1.0, 0.0, 0.0]), est, gt, 1, 1)])
            for i, (est, gt) in enumerate(zip(np.asarray(estimates, dtype=np.float64),
                                              np.asarray(truths, dtype=np.float64)))]


def advance_scene(scene: SceneConfig, n_frames: int = 1) -> SceneConfig:
    """Scene with every scatterer moved forward by n_frames frame intervals.

    The remaining frame count shrinks accordingly, so frame f of the advanced
    scene matches frame f + n_frames of the original.
    """
    if not 0 <= n_frames <= scene.n_frames - 2:
        raise ValueError(
            f"cannot advance {n_frames} frames in a {scene.n_frames} frame scene"
        )
    dt = n_frames * scene.frame_interval
    moved = tuple(
        replace(s, position=tuple(np.asarray(s.position) + dt * np.asarray(s.velocity)))
        for s in scene.scatterers
    )
    return replace(scene, scatterers=moved, n_frames=scene.n_frames - n_frames)


def random_rotation(rng: np.random.Generator, max_angle: float = 0.3) -> np.ndarray:
    """Random small rotation via Rodrigues' formula."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    k = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# Scene-file values of the wrong JSON type, as (block, key, value): block is
# None for a top-level key, "radar", "camera" or "scatterers[0]". Integer
# fields take no float (not even 16.0) and no bool, float fields only finite
# numbers, and vector and matrix fields only numbers or rectangular nested
# lists of numbers (no bool).
BAD_SCENE_FIELDS = [
    (None, "noise_floor", True),
    (None, "frame_interval", "0.1"),
    ("radar", "threshold_db", True),
    ("radar", "range_resolution", float("inf")),
    ("camera", "fx", "600"),
    (None, "n_frames", 2.5),
    (None, "n_frames", True),
    (None, "lidar_points_per_scatterer", 2.5),
    (None, "seed", 1.5),
    ("radar", "n_samples", 32.5),
    ("radar", "n_chirps", 16.0),
    ("camera", "width", 160.5),
    ("camera", "height", False),
    ("camera", "translation", [True, 0, 0]),
    ("camera", "rotation", [[0, -1, 0], [0, 0, -1], [True, 0, 0]]),
    ("camera", "rotation", [[0, -1, 0], [0, 0, -1], [1, 0]]),
    ("scatterers[0]", "amplitude", True),
    ("scatterers[0]", "velocity", [0.3, False, 0]),
    ("scatterers[0]", "position", "1.8, 0.2, 0.0"),
]


def set_scene_field(scene: dict, block: str | None, key: str, value) -> dict:
    """The scene dict with one key set, at the top level, in a block or in
    the first scatterer."""
    if block == "scatterers[0]":
        target = scene["scatterers"][0]
    else:
        target = scene if block is None else scene.setdefault(block, {})
    target[key] = value
    return scene
