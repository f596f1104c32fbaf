import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velofusion import metrics, sim
from velofusion.io import load_scene
from velofusion.metrics import (
    EvalFrame,
    MetricsReport,
    ObjectTrack,
    TrackFrame,
    angular_errors,
    ave,
    build_tracks,
    cluster_points,
    decompose_radial_tangential,
    evaluate_tracks,
    scored_frames,
)
from velofusion.types import PointStatus

from helpers import crowd_scene, oracle_build_tracks, oracle_cluster_points, single_frame_tracks

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _blob(center, n, rng, sigma=0.05):
    return center + sigma * rng.standard_normal((n, 3))


def test_cluster_two_blobs_and_noise():
    rng = np.random.default_rng(61)
    a = _blob(np.array([0.0, 0.0, 0.0]), 20, rng)
    b = _blob(np.array([5.0, 0.0, 0.0]), 20, rng)
    lone = np.array([[20.0, 20.0, 20.0]])
    labels = cluster_points(np.vstack([a, b, lone]), eps=0.5, min_points=5)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:40])) == 1
    assert labels[0] != labels[20]
    assert labels[40] == -1
    # first-appearance numbering
    assert labels[0] == 0 and labels[20] == 1


def test_cluster_empty_and_singleton():
    assert cluster_points(np.zeros((0, 3)), 0.5, 3).shape == (0,)
    assert list(cluster_points(np.zeros((1, 3)), 0.5, 1)) == [0]
    assert list(cluster_points(np.zeros((1, 3)), 0.5, 2)) == [-1]


def test_cluster_chain_connectivity():
    # points 0.4 apart in a line: all mutually reachable through cores
    pts = np.array([[0.4 * i, 0.0, 0.0] for i in range(10)])
    labels = cluster_points(pts, eps=0.5, min_points=3)
    assert len(set(labels)) == 1 and labels[0] == 0


def test_cluster_permutation_stable():
    rng = np.random.default_rng(67)
    pts = np.vstack([
        _blob(np.array([0.0, 0.0, 0.0]), 15, rng),
        _blob(np.array([3.0, 1.0, 0.0]), 12, rng),
        _blob(np.array([-2.0, 4.0, 1.0]), 18, rng),
    ])
    base = cluster_points(pts, eps=0.4, min_points=4)
    for trial in range(5):
        perm = rng.permutation(len(pts))
        shuffled = cluster_points(pts[perm], eps=0.4, min_points=4)
        # cluster memberships must be identical up to the permutation
        groups_base = {}
        groups_perm = {}
        for i, lab in enumerate(base):
            groups_base.setdefault(lab, set()).add(i)
        for j, lab in enumerate(shuffled):
            groups_perm.setdefault(lab, set()).add(int(perm[j]))
        assert groups_base.pop(-1, set()) == groups_perm.pop(-1, set())
        assert {frozenset(g) for g in groups_base.values()} == \
               {frozenset(g) for g in groups_perm.values()}


def test_cluster_parameter_validation():
    with pytest.raises(ValueError):
        cluster_points(np.zeros((2, 3)), 0.0, 3)
    with pytest.raises(ValueError):
        cluster_points(np.zeros((2, 3)), 0.5, 0)


@pytest.mark.parametrize("min_points", [2.5, 3.0, True, False, "3", None])
def test_cluster_min_points_must_be_an_integer(min_points):
    # a float would silently round up to the next count, True would read as 1
    with pytest.raises(ValueError, match="min_points"):
        cluster_points(np.zeros((4, 3)), 0.3, min_points)


def test_cluster_min_points_takes_numpy_integers():
    assert list(cluster_points(np.zeros((3, 3)), 0.3, np.int64(3))) == [0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 160),
    layout=st.sampled_from(["uniform", "blobs", "lattice"]),
    eps=st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]),
    min_points=st.integers(1, 8),
)
def test_cluster_matches_dense_oracle(seed, n, layout, eps, min_points):
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        pts = rng.uniform(-1.0, 1.0, (n, 3)) * rng.uniform(0.2, 3.0)
    elif layout == "blobs":
        centers = rng.uniform(-2.0, 2.0, (4, 3))
        pts = centers[rng.integers(0, 4, n)] + rng.normal(0.0, eps / 2, (n, 3))
    else:
        # points spaced exactly eps apart along the axes: every axis
        # neighbor sits at distance eps, or a rounding error away from it
        pts = rng.integers(-3, 4, (n, 3)) * eps + rng.uniform(-50.0, 50.0, 3).round()
    np.testing.assert_array_equal(cluster_points(pts, eps, min_points),
                                  oracle_cluster_points(pts, eps, min_points))


def _cell_pair_cloud(rng: np.random.Generator, layout: str, min_points: int):
    """A cloud and eps that send grid cell pairs down one of the paths of
    the bounding-box rule, with a little uniform noise for border points."""
    eps = 0.25
    centers = rng.integers(-12, 13, (int(rng.integers(1, 6)), 3)) * eps
    sizes = rng.integers(1, 60, len(centers))
    if layout == "tight":
        # blobs far narrower than eps: their cell pairs are all near
        pts = np.repeat(centers, sizes, axis=0) + rng.normal(0.0, 0.01, (sizes.sum(), 3))
    elif layout == "exact":
        # binary-exact points on boxes whose diagonal is exactly eps:
        # 3-4-5 sixteenths, or eps along one axis
        eps, extent = [(0.3125, np.array([3, 4, 0]) / 16),
                       (0.25, np.array([0, 0, 4]) / 16)][int(rng.integers(2))]
        corners = rng.integers(0, 2, (sizes.sum(), 3)) * extent
        inside = rng.integers(0, 4, (sizes.sum(), 3)) * extent / 4
        pts = np.repeat(centers, sizes, axis=0) \
            + np.where(rng.random((sizes.sum(), 1)) < 0.5, corners, inside)
    elif layout == "small":
        # all-near pairs that hold fewer than min_points points, some of them
        # touching so that a pair's sum can reach min_points
        sizes = rng.integers(1, max(min_points, 2), len(centers) * 3)
        centers = np.repeat(centers, 3, axis=0) + rng.integers(-1, 2, (len(sizes), 3)) * eps / 2
        pts = np.repeat(centers, sizes, axis=0) + rng.normal(0.0, 0.005, (sizes.sum(), 3))
    elif layout == "duplicates":
        pts = np.repeat(centers + rng.normal(0.0, 0.1, centers.shape), sizes, axis=0)
    elif layout == "huge":
        # blobs at +-1e6, where one ulp is about 1.2e-10 m
        pts = np.repeat(centers + rng.choice([-1e6, 1e6], (len(centers), 3)), sizes, axis=0) \
            + rng.normal(0.0, 0.02, (sizes.sum(), 3))
    else:
        pts = np.repeat(centers, sizes, axis=0) + rng.normal(0.0, 0.03, (sizes.sum(), 3))
        pts[rng.random(len(pts)) < 0.1, int(rng.integers(3))] = np.nan
    noise = centers[rng.integers(0, len(centers), 8)] + rng.uniform(-2 * eps, 2 * eps, (8, 3))
    pts = np.vstack([pts, noise])
    return pts[rng.permutation(len(pts))], eps


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["tight", "exact", "small", "duplicates", "huge", "nan"]),
    min_points=st.integers(1, 12),
)
def test_cluster_cell_pair_paths_match_dense_oracle(seed, layout, min_points):
    pts, eps = _cell_pair_cloud(np.random.default_rng(seed), layout, min_points)
    with np.errstate(invalid="ignore"):
        want = oracle_cluster_points(pts, eps, min_points)
    np.testing.assert_array_equal(cluster_points(pts, eps, min_points), want)


def test_cluster_lattice_at_exactly_eps():
    # a chain spaced exactly eps apart (binary-exact values): one cluster when
    # pairs at distance eps count as neighbors, all noise otherwise
    pts = np.array([[0.25 * i, 0.0, 0.0] for i in range(12)])
    for offset in (0.0, 1e6 + 0.125, -7.75):
        labels = cluster_points(pts + offset, eps=0.25, min_points=3)
        assert list(labels) == [0] * 12
        np.testing.assert_array_equal(labels, oracle_cluster_points(pts + offset, 0.25, 3))


def test_cluster_border_ties_go_to_lowest_core_index():
    # border point 4 sits exactly 0.5 from core 0 (cluster A) and core 2
    # (cluster B); the lower index wins
    pts = np.array([
        [-0.5, 0.0, 0.0], [-0.75, 0.0, 0.0], [0.5, 0.0, 0.0], [0.75, 0.0, 0.0],
        [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
    ])
    labels = cluster_points(pts, eps=0.5, min_points=4)
    np.testing.assert_array_equal(labels, oracle_cluster_points(pts, 0.5, 4))
    assert labels[4] == labels[0] != labels[2]


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_cluster_border_ties_across_pair_batches(chunk):
    # the two equidistant cores of border point 4 reach it in different
    # batches of checked pairs, so the running nearest core decides the tie
    pts = np.array([
        [-0.5, 0.0, 0.0], [-0.75, 0.0, 0.0], [0.5, 0.0, 0.0], [0.75, 0.0, 0.0],
        [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
    ])
    for perm in ([0, 1, 2, 3, 4, 5, 6], [2, 3, 0, 1, 4, 6, 5], [4, 6, 5, 3, 2, 1, 0]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_PAIR_CHUNK", chunk)
            labels = cluster_points(pts[perm], eps=0.5, min_points=4)
        np.testing.assert_array_equal(labels, oracle_cluster_points(pts[perm], 0.5, 4))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["tight", "exact", "small", "duplicates", "huge", "nan"]),
    min_points=st.integers(1, 12),
    chunk=st.sampled_from([1, 7, 64]),
)
def test_cluster_labels_do_not_depend_on_the_pair_batch(seed, layout, min_points, chunk):
    pts, eps = _cell_pair_cloud(np.random.default_rng(seed), layout, min_points)
    want = cluster_points(pts, eps, min_points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_PAIR_CHUNK", chunk)
        np.testing.assert_array_equal(cluster_points(pts, eps, min_points), want)


def test_cluster_non_finite_points_are_noise():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [np.nan, 0.0, 0.0],
                    [0.0, 0.1, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0]])
    labels = cluster_points(pts, eps=0.3, min_points=2)
    assert list(labels) == [0, 0, -1, 0, -1, -1]
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(labels, oracle_cluster_points(pts, 0.3, 2))
    assert list(cluster_points(pts[2:3], 0.3, 1)) == [-1]


def test_cluster_twenty_thousand_points_without_dense_matrix():
    # 20 blobs of 1000 jittered lattice points, 5 m apart: the dense 20k x 20k
    # distance matrix alone would take 3.2 GB. Blobs further apart than eps
    # cluster independently, so each blob is checked against the dense
    # oracle on its own.
    rng = np.random.default_rng(71)
    eps, min_points = 0.3, 6
    grid = np.stack(np.meshgrid(*[np.arange(10)] * 3, indexing="ij"), -1).reshape(-1, 3)
    blobs = [c + 0.18 * grid + rng.normal(0.0, 0.03, grid.shape)
             for c in 5.0 * rng.permutation(np.stack(np.meshgrid(
                 np.arange(5), np.arange(4), [0], indexing="ij"), -1).reshape(-1, 3))]
    pts = np.vstack(blobs)
    tracemalloc.start()
    labels = cluster_points(pts, eps, min_points)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 100e6
    next_label = 0
    for k, blob in enumerate(blobs):
        want = oracle_cluster_points(blob, eps, min_points)
        clustered = want >= 0
        want[clustered] += next_label
        next_label = max(next_label, int(want.max()) + 1)
        np.testing.assert_array_equal(labels[1000 * k:1000 * (k + 1)], want)


def test_cluster_crowd_sized_blobs_in_little_memory():
    # ten 300-point movers, each far narrower than eps: all of their point
    # pairs are neighbors, which the cells' bounding boxes decide without
    # building the 900k pairs
    rng = np.random.default_rng(73)
    eps, min_points = 0.3, 5
    blobs = [c + 0.02 * rng.standard_normal((300, 3))
             for c in np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], -1)]
    pts = np.vstack(blobs)
    tracemalloc.start()
    labels = cluster_points(pts, eps, min_points)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 4e6
    for k, blob in enumerate(blobs):
        np.testing.assert_array_equal(labels[300 * k:300 * (k + 1)],
                                      oracle_cluster_points(blob, eps, min_points) + k)


_DIRECTIONS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, 1), (1, 0, -1),
               (1, 1, 1), (1, -1, 1)]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 300), min_size=2, max_size=3),
    min_points=st.integers(1, 12),
    gap=st.floats(0.7, 1.5),
    direction=st.sampled_from(_DIRECTIONS),
    sigma=st.floats(0.0, 0.1),
    shift=st.floats(-0.5, 0.5),
    offset=st.sampled_from([0.0, 1e6, -1e6]),
)
def test_cluster_tight_blobs_about_eps_apart_match_dense_oracle(
        seed, sizes, min_points, gap, direction, sigma, shift, offset):
    # Blobs in adjacent cells whose boxes are nearer than eps while their
    # union is wider: the pairs checked point by point, from the points of
    # either blob that can reach the other's box. A lone anchor point 4 eps
    # below sets the grid origin, so the blobs' middle sits on a cell edge on
    # every axis, moved by shift eps along the chain.
    rng = np.random.default_rng(seed)
    eps = 0.3
    step = gap * eps * np.asarray(direction) / np.linalg.norm(direction)
    anchor = np.full(3, offset)
    middle = anchor + 4 * eps * (1 + 1e-9) + shift * step
    offsets = np.arange(len(sizes)) - (len(sizes) - 1) / 2
    centers = middle + offsets[:, None] * step
    pts = np.vstack([anchor[None]] + [
        c + sigma * eps * rng.standard_normal((n, 3)) for c, n in zip(centers, sizes)])
    pts = pts[rng.permutation(len(pts))]
    np.testing.assert_array_equal(cluster_points(pts, eps, min_points),
                                  oracle_cluster_points(pts, eps, min_points))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    min_points=st.integers(1, 12),
    layout=st.sampled_from(["axis", "diagonal"]),
    offset=st.sampled_from([0.0, 1e6, -1e6]),
)
def test_cluster_boxes_exactly_eps_apart_match_dense_oracle(seed, sizes, min_points, layout,
                                                            offset):
    # Binary-exact points on the corners of two 1/16 m boxes whose gap is
    # exactly eps, along an axis or as a 3-4-5 diagonal: the facing corners
    # are exactly eps apart, so a point pruned at a gap of eps would drop a
    # neighbor.
    rng = np.random.default_rng(seed)
    eps, gap = {"axis": (0.25, np.array([0.25, 0.0, 0.0])),
                "diagonal": (0.3125, np.array([0.1875, 0.25, 0.0]))}[layout]
    side = 1 / 16
    first = rng.integers(0, 2, (sizes[0], 3)) * side
    second = rng.integers(0, 2, (sizes[1], 3)) * side + np.where(gap > 0, side + gap, 0.0)
    pts = offset + np.vstack([first, second])
    pts = pts[rng.permutation(len(pts))]
    np.testing.assert_array_equal(cluster_points(pts, eps, min_points),
                                  oracle_cluster_points(pts, eps, min_points))


def _crowd_frame(seed: int):
    return sim.synth_lidar(crowd_scene(seed), 2)


@pytest.mark.parametrize("seed", [3, 11, 507])
def test_cluster_crowd_neighbours_match_dense_oracle(seed):
    # Frame 2 of the benchmark's crowd layout, where movers 7 and 8 sit in
    # adjacent grid cells. Movers whose boxes are further than eps apart
    # cluster apart, so each group of nearer movers is checked against the
    # dense oracle on its own.
    eps, min_points = 0.3, 5
    cloud = _crowd_frame(seed)
    movers = [cloud.positions[cloud.labels == m] for m in range(10)]
    assert np.array_equal(cloud.labels, np.sort(cloud.labels))
    box_gap = np.array([[np.linalg.norm(np.maximum(np.maximum(p.min(0) - q.max(0),
                                                              q.min(0) - p.max(0)), 0.0))
                         for q in movers] for p in movers])
    groups = []
    for m in range(10):
        if groups and (box_gap[m, groups[-1]] <= 1.01 * eps).any():
            groups[-1].append(m)
        else:
            groups.append([m])
    assert all((box_gap[np.ix_(g, h)] > 1.01 * eps).all()
               for g in groups for h in groups if g is not h)
    assert [7, 8] in groups
    labels = cluster_points(cloud.positions, eps, min_points)
    next_label = 0
    for group in groups:
        member = np.isin(cloud.labels, group)
        want = oracle_cluster_points(cloud.positions[member], eps, min_points)
        want[want >= 0] += next_label
        next_label = max(next_label, int(want.max()) + 1)
        np.testing.assert_array_equal(labels[member], want)
    joined = len(set(labels[cloud.labels == 7]) | set(labels[cloud.labels == 8])) == 1
    # Seed 507 is a known defect of the crowd layout, not of the clustering:
    # jittered points of movers 7 and 8 come closer than eps, so the two
    # movers are one cluster.
    assert joined == (seed == 507)


def test_cluster_checks_few_point_pairs_on_crowd_neighbours(monkeypatch):
    # Of movers 7 and 8, only the points that can reach the other mover's
    # cell are checked: every difference array that `_length` is given,
    # summed (the all-pairs rule between the two cells gives it 225k values).
    given = []
    length = metrics._length

    def counting(diffs):
        diffs = list(diffs)
        given.extend(np.size(d) for d in diffs)
        return length(diffs)

    monkeypatch.setattr(metrics, "_length", counting)
    cluster_points(_crowd_frame(3).positions, 0.3, 5)
    assert 0 < sum(given) <= 3000


def test_cluster_crowded_tiny_frame_in_little_memory():
    # tiny.json's two movers share a grid cell from frame 15 on: 640k point
    # pairs within eps, which are counted and hooked batch by batch.
    scene, _, _ = load_scene(SCENES / "tiny.json")
    scene = replace(scene, lidar_points_per_scatterer=400, n_frames=22)
    pts = sim.synth_lidar(scene, 21).positions
    tracemalloc.start()
    labels = cluster_points(pts, 0.3, 5)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 4e6
    assert list(np.unique(labels)) == [0]


def test_ave_examples():
    est = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert ave(est, est) == 0.0
    truth = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert ave(est, truth) == pytest.approx(0.5)  # norms 1 and 0
    truth2 = est + np.array([[0.0, 2.0, 0.0], [0.0, 2.0, 0.0]])
    assert ave(est, truth2) == pytest.approx(2.0)


def test_ave_translation_invariance():
    rng = np.random.default_rng(71)
    est = rng.standard_normal((30, 3))
    truth = rng.standard_normal((30, 3))
    shift = np.array([0.3, -1.0, 2.0])
    assert ave(est + shift, truth + shift) == pytest.approx(ave(est, truth))


def test_ave_validation():
    with pytest.raises(ValueError):
        ave(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ave(np.zeros((0, 3)), np.zeros((0, 3)))


def test_decompose_examples():
    rad, tan = decompose_radial_tangential(
        np.array([1.0, 1.0, 0.0]), np.array([2.0, 0.0, 0.0])
    )
    assert np.allclose(rad, [1.0, 0.0, 0.0])
    assert np.allclose(tan, [0.0, 1.0, 0.0])
    rad, tan = decompose_radial_tangential(
        np.array([0.5, 0.0, 0.0]), np.array([3.0, 0.0, 0.0])
    )
    assert np.allclose(tan, 0.0)


def test_decompose_is_exact_split():
    rng = np.random.default_rng(73)
    for _ in range(50):
        v = rng.standard_normal(3)
        p = rng.standard_normal(3)
        if np.linalg.norm(p) < 1e-3:
            continue
        rad, tan = decompose_radial_tangential(v, p)
        assert np.allclose(rad + tan, v, atol=1e-15)
        assert abs(float(rad @ tan)) < 1e-12


def test_decompose_batches_rows():
    rng = np.random.default_rng(74)
    v = rng.standard_normal((4, 5, 3))
    p = rng.standard_normal((4, 5, 3))
    rad, tan = decompose_radial_tangential(v, p)
    assert rad.shape == tan.shape == (4, 5, 3)
    for idx in np.ndindex(4, 5):
        want_rad, want_tan = decompose_radial_tangential(v[idx], p[idx])
        np.testing.assert_allclose(rad[idx], want_rad, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(tan[idx], want_tan, rtol=1e-14, atol=1e-15)
    p[2, 3] = 0.0
    with pytest.raises(ValueError, match="zero position"):
        decompose_radial_tangential(v, p)


def _avae(est, truth):
    """(plain, weighted) AVAE in degrees as evaluate_tracks scores the rows."""
    report = evaluate_tracks(single_frame_tracks(est, truth))
    return report.avae_deg, report.avae_weighted_deg


def test_avae_examples():
    est = np.array([[1.0, 0.0, 0.0]])
    assert _avae(est, est) == pytest.approx((0.0, 0.0))
    assert _avae(est, np.array([[0.0, 2.0, 0.0]])) == pytest.approx((90.0, 90.0))
    # two pairs at 90 and 30 degrees, truth norms 1 and 3:
    # unweighted (90 + 30) / 2 = 60, weighted (90 + 3 * 30) / 4 = 45
    est = np.array([[0.0, 1.0, 0.0], [np.sqrt(3.0) / 2, 0.5, 0.0]])
    truth = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert _avae(est, truth) == pytest.approx((60.0, 45.0))


def test_avae_scale_invariance():
    rng = np.random.default_rng(79)
    est = rng.standard_normal((20, 3))
    truth = rng.standard_normal((20, 3))
    assert _avae(3.0 * est, truth) == pytest.approx(_avae(est, truth))


def test_avae_excludes_near_zero_pairs():
    est = np.array([[0.0, 1.0, 0.0], [1e-9, 0.0, 0.0]])
    truth = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    angles, weights, excluded = angular_errors(est, truth)
    assert excluded == 1
    assert len(angles) == 1
    assert angles[0] == pytest.approx(90.0)
    assert _avae(est, truth) == pytest.approx((90.0, 90.0))
    # every pair excluded: no direction is scored, and the report reads 0 deg
    assert _avae(truth[1:], truth[1:]) == (0.0, 0.0)


def test_centroid_velocity():
    # Without stored truth a frame is scored against the centroid displacement
    # to the next frame; the last frame has no successor and is not scored.
    est = np.array([0.9, 0.0, 0.0])
    frames = [
        TrackFrame(0, 0.0, np.array([0.0, 0.0, 0.0]), est, None, 5, 5),
        TrackFrame(1, 0.1, np.array([0.1, 0.0, 0.0]), est, None, 5, 5),
    ]
    scored, estimates, truths, centroids = scored_frames([ObjectTrack(0, frames)])
    assert scored == [(0, frames[0])]
    assert np.allclose(truths, [[1.0, 0.0, 0.0]])
    assert np.array_equal(estimates, [est]) and np.array_equal(centroids, [frames[0].centroid])
    frames[1].timestamp = 0.0
    with pytest.raises(ValueError, match="non-increasing timestamps"):
        scored_frames([ObjectTrack(0, frames)])


def test_scored_frames_truth_rule():
    # Track 0: stored truth wins over the displacement; a frame without OK
    # points is skipped; a last frame with stored truth is scored.
    # Track 1: no stored truth, so only frames with a successor are scored.
    v = np.array([0.5, 0.0, 0.0])
    gt = np.array([0.0, 0.3, 0.0])
    first = [TrackFrame(f, 0.1 * f, np.array([f, 0.0, 0.0]), v, gt, 5, 5) for f in range(3)]
    first[1].mean_velocity = None
    second = [TrackFrame(f, 0.1 * f, np.array([0.0, 0.2 * f, 1.0]), v, None, 5, 5)
              for f in range(3)]
    scored, estimates, truths, centroids = scored_frames(
        [ObjectTrack(0, first), ObjectTrack(1, second)])
    assert scored == [(0, first[0]), (0, first[2]), (1, second[0]), (1, second[1])]
    assert np.array_equal(estimates, [v] * 4)
    assert np.array_equal(truths[:2], [gt, gt])
    assert np.array_equal(truths[2:], [(second[1].centroid - second[0].centroid) / 0.1,
                                       (second[2].centroid - second[1].centroid) / (0.2 - 0.1)])
    assert np.array_equal(centroids, [tf.centroid for _, tf in scored])
    scored, estimates, truths, centroids = scored_frames([])
    assert scored == [] and estimates.shape == truths.shape == centroids.shape == (0, 3)


def test_object_track_requires_consecutive_frames():
    frames = [
        TrackFrame(0, 0.0, np.zeros(3), None, None, 5, 5),
        TrackFrame(2, 0.2, np.zeros(3), None, None, 5, 5),
    ]
    with pytest.raises(ValueError):
        ObjectTrack(0, frames)


def _eval_frame(idx, t, centers, velocities, gt, n=8, sigma=0.01, seed=0):
    rng = np.random.default_rng([seed, idx])
    pos, vel, truth = [], [], []
    for c, v, g in zip(centers, velocities, gt):
        pos.append(c + sigma * rng.standard_normal((n, 3)))
        vel.append(np.tile(v, (n, 1)))
        truth.append(np.tile(g, (n, 1)))
    status = np.full(n * len(centers), PointStatus.OK, dtype=np.uint8)
    return EvalFrame(idx, t, np.vstack(pos), np.vstack(vel), status, np.vstack(truth))


def _make_frames(n_frames, vel_est, vel_gt, start=(0.0, 0.0, 0.0), dt=0.1, seed=0):
    frames = []
    start = np.asarray(start)
    for f in range(n_frames):
        center = start + f * dt * np.asarray(vel_gt)
        frames.append(
            _eval_frame(f, f * dt, [center], [np.asarray(vel_est)], [np.asarray(vel_gt)],
                        seed=seed)
        )
    return frames


def test_build_and_evaluate_perfect_tracks():
    frames = _make_frames(5, (0.4, 0.0, 0.0), (0.4, 0.0, 0.0))
    tracks = build_tracks(frames, eps=0.3, min_points=4)
    assert len(tracks) == 1
    assert [f.frame_index for f in tracks[0].frames] == [0, 1, 2, 3, 4]
    report = evaluate_tracks(tracks)
    assert report.ave == pytest.approx(0.0, abs=1e-12)
    assert report.avae_deg == pytest.approx(0.0, abs=1e-5)
    assert report.n_frames == 5


def test_evaluate_constant_offset():
    frames = _make_frames(4, (0.5, 0.0, 0.0), (0.4, 0.0, 0.0))
    report = evaluate_tracks(build_tracks(frames, eps=0.3, min_points=4))
    assert report.ave == pytest.approx(0.1, abs=1e-9)
    assert report.avae_deg == pytest.approx(0.0, abs=1e-6)


def test_evaluate_decomposes_radial_tangential():
    # object on the +x axis, estimate errs purely tangentially
    frames = _make_frames(3, (0.4, 0.2, 0.0), (0.4, 0.0, 0.0), start=(5.0, 0.0, 0.0))
    report = evaluate_tracks(build_tracks(frames, eps=0.3, min_points=4))
    assert report.ave_radial == pytest.approx(0.0, abs=1e-2)
    assert report.ave_tangential == pytest.approx(0.2, abs=1e-2)


def test_two_objects_two_tracks():
    rng = np.random.default_rng(83)
    frames = []
    for f in range(4):
        t = 0.1 * f
        frames.append(
            _eval_frame(
                f, t,
                centers=[np.array([0.0, 0.0, 0.0]) + t * np.array([0.5, 0.0, 0.0]),
                         np.array([4.0, 1.0, 0.0])],
                velocities=[np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])],
                gt=[np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])],
            )
        )
    tracks = build_tracks(frames, eps=0.3, min_points=4)
    assert len(tracks) == 2
    assert all(len(tr.frames) == 4 for tr in tracks)


def test_track_association_gate_splits_teleporting_cluster():
    frames = []
    for f in range(4):
        center = np.array([0.0, 0.0, 0.0]) if f < 2 else np.array([3.0, 0.0, 0.0])
        frames.append(
            _eval_frame(f, 0.1 * f, [center], [np.array([0.1, 0.0, 0.0])],
                        [np.array([0.1, 0.0, 0.0])])
        )
    tracks = build_tracks(frames, eps=0.3, min_points=4)
    assert len(tracks) == 2
    assert [f.frame_index for f in tracks[0].frames] == [0, 1]
    assert [f.frame_index for f in tracks[1].frames] == [2, 3]


def test_track_ends_at_a_gap_in_frame_indices():
    frames = [f for f in _make_frames(5, (0.4, 0.0, 0.0), (0.4, 0.0, 0.0))
              if f.frame_index in (1, 2, 4)]
    tracks = build_tracks(iter(frames), eps=0.3, min_points=4)
    assert [[f.frame_index for f in t.frames] for t in tracks] == [[1, 2], [4]]


@pytest.mark.parametrize("order, message", [([2, 1, 0], "frame 1 follows frame 2"),
                                            ([0, 1, 1], "frame 1 follows frame 1")])
def test_build_tracks_rejects_frames_out_of_order(order, message):
    frames = _make_frames(3, (0.4, 0.0, 0.0), (0.4, 0.0, 0.0))
    with pytest.raises(ValueError, match=message):
        build_tracks([frames[i] for i in order], eps=0.3, min_points=4)


def test_evaluate_falls_back_to_centroid_velocity():
    # frames without stored truth: ground truth comes from centroid motion
    frames = []
    vel = np.array([0.5, 0.0, 0.0])
    for f in range(4):
        base = _eval_frame(f, 0.1 * f, [f * 0.1 * vel], [vel], [vel])
        frames.append(
            EvalFrame(f, base.timestamp, base.positions, base.velocities, base.status, None)
        )
    report = evaluate_tracks(build_tracks(frames, eps=0.3, min_points=4))
    # centroid displacement reproduces the velocity up to the jitter of the
    # per-frame point draws
    assert report.ave < 0.1


def _assert_same_tracks(got, want):
    assert [t.track_id for t in got] == [t.track_id for t in want]
    for track, ref in zip(got, want):
        assert len(track.frames) == len(ref.frames)
        for tf, rf in zip(track.frames, ref.frames):
            assert (tf.frame_index, tf.timestamp, tf.n_points, tf.n_ok) == \
                (rf.frame_index, rf.timestamp, rf.n_points, rf.n_ok)
            assert np.array_equal(tf.centroid, rf.centroid)
            for a, b in ((tf.mean_velocity, rf.mean_velocity), (tf.gt_velocity, rf.gt_velocity)):
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_frames=st.integers(0, 5),
    n_objects=st.integers(0, 4),
    points=st.integers(1, 40),
    ok_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    noise=st.integers(0, 5),
    steps=st.lists(st.integers(1, 2), min_size=5, max_size=5),
)
def test_build_tracks_matches_per_cluster_oracle(seed, n_frames, n_objects, points,
                                                 ok_fraction, noise, steps):
    # Objects drift across frames; per frame each object keeps a random share
    # of its points (none makes an empty frame), isolated points are noise,
    # some clusters have no OK points, some frames carry no truth and frame
    # indices may skip one.
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, (n_objects, 3))
    drift = rng.uniform(-0.3, 0.3, (n_objects, 3))
    frames = []
    for f in range(n_frames):
        counts = rng.integers(0, points + 1, n_objects)
        pos = [centers[o] + f * drift[o] + rng.normal(0.0, 0.05, (c, 3))
               for o, c in enumerate(counts)]
        pos.append(rng.uniform(-50.0, 50.0, (noise, 3)))
        pos = np.concatenate(pos)[rng.permutation(int(counts.sum()) + noise)]
        n = len(pos)
        ok = rng.random(n) < ok_fraction
        status = np.where(ok, PointStatus.OK, rng.integers(1, 5, n)).astype(np.uint8)
        velocities = rng.standard_normal((n, 3))  # the mean must skip the non-OK ones
        gt = rng.standard_normal((n, 3)) if rng.random() < 0.5 else None
        index = sum(steps[:f + 1])
        frames.append(EvalFrame(index, 0.1 * index, pos, velocities, status, gt))
    _assert_same_tracks(build_tracks(frames, eps=0.3, min_points=4),
                        oracle_build_tracks(frames, eps=0.3, min_points=4))


def test_evaluate_requires_usable_frames():
    with pytest.raises(ValueError):
        evaluate_tracks([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", range(5))
def test_report_rejects_non_finite(field, bad):
    values = [0.1, 0.05, 0.08, 3.0, 2.5]
    values[field] = bad
    with pytest.raises(ValueError):
        MetricsReport(*values, 7)


def test_report_round_trips_to_dict():
    rep = MetricsReport(0.1, 0.05, 0.08, 3.0, 2.5, 7)
    d = rep.to_dict()
    assert d["ave"] == 0.1
    assert d["n_frames"] == 7
    assert set(d) == {"ave", "ave_radial", "ave_tangential",
                      "avae_deg", "avae_weighted_deg", "n_frames"}
