"""Object-wise velocity metrics: clustering, tracks, AVE and angular error."""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .types import PointStatus, positive_int

logger = logging.getLogger(__name__)

ANGLE_EPS = 1e-6          # m/s; pairs with a smaller norm carry no direction
ASSOCIATION_GATE = 0.5    # m, max centroid jump between consecutive frames


# Neighbors are looked up in a grid whose cells are a hair wider than eps
# (relative margin, plus a few ulps of the cloud's span), so rounding of the
# cell coordinates cannot split a pair at exactly eps across two cells that
# are not adjacent.
_CELL_MARGIN = 1e-9
_NEIGHBOR_OFFSETS = np.indices((3, 3, 3)).reshape(3, -1).T - 1  # (27, 3), each in {-1, 0, 1}
_PAIR_CHUNK = 1 << 14     # point pairs per batch checked point by point


def _grid_cells(cols: list[np.ndarray], cell: float) -> tuple[np.ndarray, list[int]]:
    """Integer key of every point's grid cell, from its x, y and z coordinate
    arrays, with keys of adjacent cells differing by a neighbor offset's key.

    Per axis, occupied cell coordinates are renumbered so gaps wider than one
    empty cell shrink to exactly one: adjacency is kept and the key space
    stays within (2N + 1)^3, which fits int64 up to a million points.
    """
    keys, dims = 0, []
    for c in cols:
        coords = np.floor((c - c.min()) / cell)
        occupied = np.sort(coords)
        occupied = occupied[np.concatenate([[True], occupied[1:] != occupied[:-1]])]
        renumbered = np.concatenate([[1], 1 + np.cumsum(np.minimum(np.diff(occupied), 2))])
        dims.append(int(renumbered[-1]) + 2)
        keys = keys * dims[-1] + renumbered.astype(np.int64)[np.searchsorted(occupied, coords)]
    return keys, dims


def _length(diffs) -> np.ndarray:
    """Euclidean length from the x, y and z differences, the squares summed
    in that order onto 0, as np.sum over the coordinate axis would."""
    total = 0.0
    for d in diffs:
        total = total + d * d
    return np.sqrt(total)


def _adjacent_cells(cell_keys: np.ndarray, dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (a, b) of indices into the sorted occupied cell keys
    whose keys differ by a neighbor offset's key, a == b included."""
    offset_keys = (_NEIGHBOR_OFFSETS[:, 0] * dims[1] + _NEIGHBOR_OFFSETS[:, 1]) * dims[2] \
        + _NEIGHBOR_OFFSETS[:, 2]
    target = (cell_keys[:, None] + offset_keys).ravel()
    slot = np.minimum(np.searchsorted(cell_keys, target), len(cell_keys) - 1)
    hit = np.flatnonzero(cell_keys[slot] == target)
    return hit // len(offset_keys), slot[hit]


def _neighborhoods(cols: list[np.ndarray], eps: float, min_points: int) -> np.ndarray:
    """Every point's cluster root, from the points' contiguous x, y and z
    coordinate arrays: for a core point the lowest index in its connected
    component of core points, for a border point the root of its nearest
    core neighbor (the lowest index on a tie), -1 for noise.

    Each pair of adjacent grid cells (A, B), A == B included, is decided by
    its points' bounding boxes where it can be. Rounded subtraction, squaring,
    addition and sqrt are monotone, so every point pair's distance lies
    between the gap of the two boxes and the diagonal of their union, both
    taken with the same formula as the point distance (`_length`). A pair
    whose gap exceeds eps is skipped. A pair whose union diagonal is within
    eps and that holds at least min_points points (|A| when A == B) makes
    every one of them core and neighbors of each other, so it only adds |B|
    to each count of A and joins the two cells' trees. The other pairs are
    checked point by point, but only between the points of A whose gap to
    B's box is within eps and the points of B whose gap to A's box is: by the
    same monotonicity, no other point has a neighbor in the other cell.

    The box tests and the checked point pairs come in fixed batches, the
    pairs twice. The first pass counts neighbors and keeps one bit per pair,
    whether it is within eps; the second hooks the pairs between core points
    into a min-label forest and keeps each border point's nearest core. No
    batch's pairs outlive it, so memory grows with the points and the
    checked pairs' bits, not with the pairs within eps.
    """
    n = len(cols[0])
    span = max(float(c.max() - c.min()) for c in cols)
    keys, dims = _grid_cells(cols, eps * (1 + _CELL_MARGIN) + 16 * np.finfo(float).eps * span)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    cell_keys, sizes = keys[starts], np.diff(np.append(starts, n))
    coords = [c[order] for c in cols]
    lo = [np.minimum.reduceat(c, starts) for c in coords]
    hi = [np.maximum.reduceat(c, starts) for c in coords]

    a, b = _adjacent_cells(cell_keys, dims)
    diagonal = _length(np.maximum(h[a], h[b]) - np.minimum(l[a], l[b]) for l, h in zip(lo, hi))
    gap = _length(np.maximum(np.maximum(l[b] - h[a], l[a] - h[b]), 0.0) for l, h in zip(lo, hi))
    held = np.where(a == b, sizes[a], sizes[a] + sizes[b])
    dense = (diagonal <= eps) & (held >= min_points)
    check = ~dense & (gap <= eps) & (a <= b)  # (B, A) is checked with (A, B)

    # Decided pairs. Counts, cells and batches number the points in key
    # order, the forest's nodes are the original indices. Each cell of a
    # dense pair starts as one tree under its lowest index.
    cell_of = np.repeat(np.arange(len(cell_keys)), sizes)
    count = np.bincount(a[dense], weights=sizes[b[dense]],
                        minlength=len(cell_keys)).astype(np.int64)[cell_of]
    lowest = np.minimum.reduceat(order, starts)
    in_dense = np.zeros(len(cell_keys), dtype=bool)
    in_dense[a[dense]] = True
    starred = in_dense[cell_of]
    root = np.arange(n)
    root[order[starred]] = lowest[cell_of[starred]]
    root = _hook(root, lowest[a[dense]], lowest[b[dense]])

    # Undecided pairs, between the points of each cell that can reach the
    # other cell's box: first those of A for every pair (A, B), then those of
    # B. The box tests and the point pairs both run in batches of numbered
    # items, the point pairs row-major within each cell pair; item k belongs
    # to the first cell (pair) whose end exceeds k.
    ca, cb = a[check], b[check]
    total = 0
    if len(ca):
        src, dst = np.concatenate([ca, cb]), np.concatenate([cb, ca])
        tested = np.cumsum(sizes[src])
        reach, n_reach = [], np.zeros(len(src), dtype=np.int64)
        for k0 in range(0, int(tested[-1]), _PAIR_CHUNK):
            k = np.arange(k0, min(k0 + _PAIR_CHUNK, int(tested[-1])))
            p = np.searchsorted(tested, k, side="right")
            s = starts[src[p]] + k - tested[p] + sizes[src[p]]
            d = dst[p]
            reaches = _length(np.maximum(np.maximum(l[d] - c[s], c[s] - h[d]), 0.0)
                              for c, l, h in zip(coords, lo, hi)) <= eps
            reach.append(s[reaches])
            n_reach += np.bincount(p[reaches], minlength=len(src))
        reach = np.concatenate(reach)
        first_at, second_at = np.split(np.cumsum(n_reach) - n_reach, 2)
        n_first, n_second = np.split(n_reach, 2)
        ends = np.cumsum(n_first * n_second)
        begins = ends - n_first * n_second
        total = int(ends[-1])

    def batches():
        for k0 in range(0, total, _PAIR_CHUNK):
            k = np.arange(k0, min(k0 + _PAIR_CHUNK, total))
            p = np.searchsorted(ends, k, side="right")
            row, col = np.divmod(k - begins[p], n_second[p])
            yield reach[first_at[p] + row], reach[second_at[p] + col], ca[p] != cb[p]

    # A pair inside one cell is listed in both orders, a pair across two once.
    near_bits = []
    for i, j, across in batches():
        near = _length(c[i] - c[j] for c in coords) <= eps
        count += np.bincount(i[near], minlength=n) + np.bincount(j[near & across], minlength=n)
        near_bits.append(np.packbits(near))

    core = count >= min_points
    nearest = np.full(n, n)  # of each border point, by original index; n for none
    nearest_dist = np.full(n, np.inf)
    for (i, j, _), bits in zip(batches(), near_bits):
        near = np.unpackbits(bits, count=len(i)).view(bool)
        i, j = i[near], j[near]
        both = core[i] & core[j]
        root = _hook(root, order[i[both]], order[j[both]])
        i, j = np.concatenate([i, j]), np.concatenate([j, i])  # a repeat changes no minimum
        border = ~core[i] & core[j]
        if border.any():
            dist = _length(c[i[border]] - c[j[border]] for c in coords)
            bi, bj = order[i[border]], order[j[border]]
            pick = np.lexsort((bj, dist, bi))
            pick = pick[np.concatenate([[True], bi[pick[1:]] != bi[pick[:-1]]])]
            bi, bj, dist = bi[pick], bj[pick], dist[pick]
            closer = (dist < nearest_dist[bi]) | ((dist == nearest_dist[bi]) & (bj < nearest[bi]))
            nearest[bi[closer]] = bj[closer]
            nearest_dist[bi[closer]] = dist[closer]

    out = np.full(n, -1, dtype=np.int64)
    out[order[core]] = root[order[core]]
    border = nearest < n
    out[border] = root[nearest[border]]
    return out


def _hook(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The flat min-label forest `label` with the trees that the edges (a, b)
    join merged: every node's label is the smallest node of its tree. Roots
    are hooked under the smaller root, then pointers jump until flat."""
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        a, b = a[differ], b[differ]
        la, lb = la[differ], lb[differ]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
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
    depend on point order. `_neighborhoods` gives every finite point its
    cluster root (the lowest index of its core component, -1 for noise) from
    a grid hash whose adjacent cell pairs are decided by their points'
    bounding boxes where they can be. Of the other pairs, only the points
    that can reach the other cell are checked, in fixed batches, so memory
    grows with N and one bit per checked pair, not with the pairs within eps.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    min_points = positive_int("min_points", min_points)
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    finite = np.isfinite(pts)
    finite = finite[:, 0] & finite[:, 1] & finite[:, 2]
    labels = np.full(n, -1, dtype=np.int64)
    if finite.any():
        labels[finite] = _neighborhoods([c[finite] for c in pts.T], eps, min_points)

    # Renumber by first appearance; every root is a point index.
    members = np.flatnonzero(labels >= 0)
    first_seen = np.full(n, n)
    np.minimum.at(first_seen, labels[members], members)
    roots = np.flatnonzero(first_seen < n)
    rank = np.full(n + 1, -1, dtype=np.int64)  # noise's label -1 reads rank[n]
    rank[roots[np.argsort(first_seen[roots])]] = np.arange(len(roots))
    return rank[labels]


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
        # written so that NaN fails each check; JSON has no NaN or Infinity
        for name in ("ave", "ave_radial", "ave_tangential"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
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
        bins = np.where(mask, labels + 1, 0)  # bin 0 takes the unmasked points, dropped
        return np.stack([np.bincount(bins, weights=v, minlength=n_clusters + 1)[1:]
                         for v in values.T], axis=1)

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


def build_tracks(frames: Iterable[EvalFrame], eps: float, min_points: int) -> list[ObjectTrack]:
    """Cluster each frame and chain clusters into tracks.

    The frames are read one at a time and only their clusters are kept, so
    any iterable in ascending frame order will do; a frame index that is not
    greater than the one before it raises. Clusters of consecutive frames are
    matched greedily by ascending centroid distance, capped at
    ASSOCIATION_GATE meters; unmatched clusters open new tracks, and a gap in
    the frame indices ends every track.
    """
    tracks: list[ObjectTrack] = []
    active: dict[int, ObjectTrack] = {}  # track_id -> track with a frame at f-1
    last = None  # frame index of the previous frame
    for frame in frames:
        if last is not None:
            if frame.frame_index <= last:
                raise ValueError(f"frame {frame.frame_index} follows frame {last}: frames "
                                 f"must come in ascending frame order")
            if frame.frame_index > last + 1:
                active = {}
        last = frame.frame_index
        observations = _cluster_frames(frame, cluster_points(frame.positions, eps, min_points))

        # Greedy nearest-centroid association against last frame's tracks.
        pairs = []
        for tid, track in active.items():
            last_centroid = track.frames[-1].centroid
            for cid, obs in enumerate(observations):
                delta = obs.centroid - last_centroid
                d = math.sqrt(delta.dot(delta))  # np.linalg.norm's formula for a vector
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
