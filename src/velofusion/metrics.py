"""Object-wise velocity metrics: clustering, tracks, AVE and angular error."""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .types import PointStatus

logger = logging.getLogger(__name__)

ANGLE_EPS = 1e-6          # m/s; pairs with a smaller norm carry no direction
ASSOCIATION_GATE = 0.5    # m, max centroid jump between consecutive frames


# Neighbors are looked up in a grid whose cells are a hair wider than eps
# (relative margin, plus a few ulps of the cloud's span), so rounding of the
# cell coordinates cannot split a pair at exactly eps across two cells that
# are not adjacent.
_CELL_MARGIN = 1e-9
_NEIGHBOR_OFFSETS = np.indices((3, 3, 3)).reshape(3, -1).T - 1  # (27, 3), each in {-1, 0, 1}


def _grid_cells(pts: np.ndarray, cell: float) -> tuple[np.ndarray, list[int]]:
    """Integer key of every point's grid cell, with keys of adjacent cells
    differing by a neighbor offset's key.

    Per axis, occupied cell coordinates are renumbered so gaps wider than one
    empty cell shrink to exactly one: adjacency is kept and the key space
    stays within (2N + 1)^3, which fits int64 up to a million points.
    """
    coords = np.floor((pts - pts.min(axis=0)) / cell)
    dims = []
    compact = np.empty(coords.shape, dtype=np.int64)
    for axis in range(3):
        occupied, inverse = np.unique(coords[:, axis], return_inverse=True)
        steps = np.minimum(np.diff(occupied), 2).astype(np.int64)
        compact[:, axis] = np.concatenate([[1], 1 + np.cumsum(steps)])[inverse]
        dims.append(int(compact[:, axis].max()) + 2)
    return (compact[:, 0] * dims[1] + compact[:, 1]) * dims[2] + compact[:, 2], dims


def _neighbor_pairs(pts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair (i, j) with distance <= eps, the point itself
    included, and the pair's distance."""
    span = float(np.ptp(pts, axis=0).max())
    keys, dims = _grid_cells(pts, eps * (1 + _CELL_MARGIN) + 16 * np.finfo(float).eps * span)
    order = np.argsort(keys, kind="stable")
    cell_keys, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    offset_keys = (_NEIGHBOR_OFFSETS[:, 0] * dims[1] + _NEIGHBOR_OFFSETS[:, 1]) * dims[2] \
        + _NEIGHBOR_OFFSETS[:, 2]
    coords = [np.ascontiguousarray(c) for c in pts.T]
    firsts, seconds, dists = [], [], []
    for offset in offset_keys:
        slot = np.minimum(np.searchsorted(cell_keys, keys + offset), len(cell_keys) - 1)
        hit = np.flatnonzero(cell_keys[slot] == keys + offset)
        n = counts[slot[hit]]
        i = np.repeat(hit, n)
        step = np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
        j = order[np.repeat(starts[slot[hit]], n) + step]
        # Squared differences summed in x, y, z order, as np.sum over the
        # coordinate axis of pts[i] - pts[j] would.
        dist2 = np.zeros(len(i))
        for c in coords:
            d = c[i] - c[j]
            dist2 += d * d
        dist = np.sqrt(dist2)
        near = dist <= eps
        firsts.append(i[near])
        seconds.append(j[near])
        dists.append(dist[near])
    return np.concatenate(firsts), np.concatenate(seconds), np.concatenate(dists)


def _min_label_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node index of every node's connected component, for edges
    given in both directions: min-label hooking plus pointer jumping."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        a, b = a[differ], b[differ]
        np.minimum.at(label, la[differ], lb[differ])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def cluster_points(points: np.ndarray, eps: float, min_points: int) -> np.ndarray:
    """Density-based Euclidean clustering (DBSCAN), labels (N,) int.

    Core points have >= min_points neighbors within eps (the point itself
    counts); clusters are the connected components of the core points, border
    points join the cluster of their nearest core neighbor (the lowest index
    on a tie), everything else is noise (-1), as are points with a non-finite
    coordinate. Labels are numbered by first point appearance; apart from
    border points equidistant from two clusters' cores, membership does not
    depend on point order. Neighbors come from a grid hash, so memory grows
    with the number of neighbor pairs, not with N^2.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, got {min_points}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
    if len(finite) == 0:
        return np.full(n, -1, dtype=np.int64)
    i, j, dist = _neighbor_pairs(pts[finite], eps)
    if len(finite) < n:
        i, j = finite[i], finite[j]
    core = np.bincount(i, minlength=n) >= min_points
    labels = np.full(n, -1, dtype=np.int64)
    both = core[i] & core[j]
    root = _min_label_components(n, i[both], j[both])
    labels[core] = root[core]
    # Border points: the nearest core neighbor, lowest index on a tie.
    border = ~core[i] & core[j]
    bi, bj = i[border], j[border]
    pick = np.lexsort((bj, dist[border], bi))
    bi, bj = bi[pick], bj[pick]
    first = np.ones(len(bi), dtype=bool)
    first[1:] = bi[1:] != bi[:-1]
    labels[bi[first]] = root[bj[first]]

    # Renumber by first appearance.
    out = np.full(n, -1, dtype=np.int64)
    members = np.flatnonzero(labels >= 0)
    roots, first_seen, inverse = np.unique(labels[members], return_index=True,
                                           return_inverse=True)
    rank = np.empty(len(roots), dtype=np.int64)
    rank[np.argsort(first_seen)] = np.arange(len(roots))
    out[members] = rank[inverse]
    return out


@dataclass
class TrackFrame:
    """One observation of a tracked object."""

    frame_index: int
    timestamp: float                      # s
    centroid: np.ndarray                  # (3,) m, radar frame
    mean_velocity: np.ndarray | None      # (3,) m/s over OK points, None if none
    gt_velocity: np.ndarray | None        # (3,) m/s, None when unknown
    n_points: int
    n_ok: int


@dataclass
class ObjectTrack:
    """Temporally consecutive cluster observations of one object."""

    track_id: int
    frames: list[TrackFrame] = field(default_factory=list)

    def __post_init__(self) -> None:
        for prev, cur in zip(self.frames, self.frames[1:]):
            if cur.frame_index != prev.frame_index + 1:
                raise ValueError(
                    f"track {self.track_id}: frames {prev.frame_index} -> "
                    f"{cur.frame_index} are not consecutive"
                )


@dataclass
class MetricsReport:
    ave: float                   # m/s
    ave_radial: float            # m/s
    ave_tangential: float        # m/s
    avae_deg: float              # degrees
    avae_weighted_deg: float     # degrees
    n_frames: int                # evaluated (track, frame) pairs

    def __post_init__(self) -> None:
        for name in ("ave", "ave_radial", "ave_tangential"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("avae_deg", "avae_weighted_deg"):
            if not 0 <= getattr(self, name) <= 180:
                raise ValueError(f"{name} must lie in [0, 180]")

    def to_dict(self) -> dict:
        return asdict(self)


def ave(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Average Euclidean error between velocity vectors, m/s."""
    est = np.asarray(estimates, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(truths, dtype=np.float64).reshape(-1, 3)
    if est.shape != gt.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {gt.shape}")
    if len(est) == 0:
        raise ValueError("no velocity pairs to evaluate")
    return float(np.mean(np.linalg.norm(est - gt, axis=1)))


def decompose_radial_tangential(
    velocity: np.ndarray, position: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split velocities (..., 3) into components along and across the line of
    sight to the positions (..., 3)."""
    pos = np.asarray(position, dtype=np.float64)
    rng = np.linalg.norm(pos, axis=-1, keepdims=True)
    if np.any(rng == 0.0):
        raise ValueError("zero position has no radial direction")
    r_hat = pos / rng
    vel = np.asarray(velocity, dtype=np.float64)
    radial = np.sum(vel * r_hat, axis=-1, keepdims=True) * r_hat
    return radial, vel - radial


def angular_errors(estimates: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-pair angle in degrees plus ground-truth-norm weights.

    Pairs where either vector's norm falls below ANGLE_EPS are excluded; the
    third return value is how many were dropped.
    """
    est = np.asarray(estimates, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(truths, dtype=np.float64).reshape(-1, 3)
    if est.shape != gt.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {gt.shape}")
    norm_est = np.linalg.norm(est, axis=1)
    norm_gt = np.linalg.norm(gt, axis=1)
    keep = (norm_est >= ANGLE_EPS) & (norm_gt >= ANGLE_EPS)
    excluded = int(np.sum(~keep))
    cos = np.sum(est[keep] * gt[keep], axis=1) / (norm_est[keep] * norm_gt[keep])
    angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    return angles, norm_gt[keep], excluded


def avae(estimates: np.ndarray, truths: np.ndarray, weighted: bool = False) -> float:
    """Average velocity angular error in degrees.

    weighted=True weights each pair by its ground-truth speed, emphasizing
    fast objects. Near-zero pairs are excluded (count logged).
    """
    angles, weights, excluded = angular_errors(estimates, truths)
    if excluded:
        logger.info("avae: excluded %d near-zero pairs", excluded)
    if len(angles) == 0:
        raise ValueError("no pairs with a measurable direction")
    if weighted:
        return float(np.sum(weights * angles) / np.sum(weights))
    return float(np.mean(angles))


@dataclass
class EvalFrame:
    """Aligned truth/estimate data of one frame, input to track building."""

    frame_index: int
    timestamp: float
    positions: np.ndarray            # (N, 3) truth points
    velocities: np.ndarray           # (N, 3) estimated
    status: np.ndarray               # (N,) PointStatus codes
    gt_velocities: np.ndarray | None  # (N, 3) exact truth or None


def _cluster_frames(frame: EvalFrame, labels: np.ndarray) -> list[TrackFrame]:
    """One TrackFrame per cluster of a frame, summed with bincount over the
    labels: every bin accumulates its points in index order, as the masked
    mean over the cluster's rows would."""
    n_clusters = int(labels.max()) + 1 if len(labels) else 0
    member = labels >= 0
    ok = member & (frame.status == PointStatus.OK)

    def sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
        bins = 3 * labels[mask, None] + np.arange(3)
        return np.bincount(bins.ravel(), weights=values[mask].ravel(),
                           minlength=3 * n_clusters).reshape(n_clusters, 3)

    n_points = np.bincount(labels[member], minlength=n_clusters)
    n_ok = np.bincount(labels[ok], minlength=n_clusters)
    centroids = sums(member, frame.positions) / n_points[:, None]
    mean_velocities = sums(ok, frame.velocities) / np.maximum(n_ok, 1)[:, None]
    gt_velocities = (sums(member, frame.gt_velocities) / n_points[:, None]
                     if frame.gt_velocities is not None else [None] * n_clusters)
    return [
        TrackFrame(frame.frame_index, frame.timestamp, centroids[c],
                   mean_velocities[c] if n_ok[c] else None, gt_velocities[c],
                   int(n_points[c]), int(n_ok[c]))
        for c in range(n_clusters)
    ]


def build_tracks(frames: list[EvalFrame], eps: float, min_points: int) -> list[ObjectTrack]:
    """Cluster each frame and chain clusters into tracks.

    Clusters of consecutive frames are matched greedily by ascending centroid
    distance, capped at ASSOCIATION_GATE meters; unmatched clusters open new
    tracks.
    """
    tracks: list[ObjectTrack] = []
    active: dict[int, ObjectTrack] = {}  # track_id -> track with a frame at f-1
    for frame in sorted(frames, key=lambda f: f.frame_index):
        observations = _cluster_frames(frame, cluster_points(frame.positions, eps, min_points))

        # Greedy nearest-centroid association against last frame's tracks.
        pairs = []
        for tid, track in active.items():
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


def scored_frames(
    tracks: list[ObjectTrack],
) -> tuple[list[tuple[int, TrackFrame]], np.ndarray, np.ndarray, np.ndarray]:
    """The (track id, frame) pairs that are scored, in track and frame order,
    with their estimates, truths and centroids as (M, 3) arrays.

    A track frame is scored when its cluster has OK points; the estimate is
    their mean velocity. The truth is the stored per-frame truth when present,
    otherwise the centroid displacement to the track's next frame over the
    timestamp step; a last frame without stored truth is not scored.
    """
    scored, truths = [], []
    for track in tracks:
        for tf, nxt in zip(track.frames, [*track.frames[1:], None]):
            if tf.mean_velocity is None:
                continue
            if tf.gt_velocity is not None:
                truths.append(tf.gt_velocity)
            elif nxt is not None:
                dt = nxt.timestamp - tf.timestamp
                if not dt > 0:
                    raise ValueError(f"track {track.track_id}: non-increasing timestamps "
                                     f"{tf.timestamp} -> {nxt.timestamp}")
                truths.append((nxt.centroid - tf.centroid) / dt)
            else:
                continue
            scored.append((track.track_id, tf))
    estimates = np.array([tf.mean_velocity for _, tf in scored]).reshape(-1, 3)
    centroids = np.array([tf.centroid for _, tf in scored]).reshape(-1, 3)
    return scored, estimates, np.array(truths).reshape(-1, 3), centroids


def evaluate_tracks(tracks: list[ObjectTrack]) -> MetricsReport:
    """Aggregate object-wise velocity metrics over the scored track frames
    (`scored_frames`)."""
    scored, est, gt, centroids = scored_frames(tracks)
    if not scored:
        raise ValueError("no evaluable track frames (no OK points or no truth)")
    radial, tangential = decompose_radial_tangential(est - gt, centroids)
    angles, weights, excluded = angular_errors(est, gt)
    if excluded:
        logger.info("evaluate_tracks: %d pairs lack a measurable direction", excluded)
    if len(angles):
        avae_deg = float(np.mean(angles))
        avae_w = float(np.sum(weights * angles) / np.sum(weights))
    else:
        avae_deg = 0.0
        avae_w = 0.0
    return MetricsReport(
        ave=ave(est, gt),
        ave_radial=float(np.mean(np.linalg.norm(radial, axis=1))),
        ave_tangential=float(np.mean(np.linalg.norm(tangential, axis=1))),
        avae_deg=avae_deg,
        avae_weighted_deg=avae_w,
        n_frames=len(scored),
    )
