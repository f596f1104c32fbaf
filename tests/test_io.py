import io as std_io
import json
import struct

import numpy as np
import pytest

from velofusion.cube import RadarConfig
from velofusion.io import (
    FORMAT_VERSION,
    MAGIC,
    FormatError,
    FrameBundle,
    default_camera,
    load_scene,
    read_frame_sequence,
    read_tensor,
    read_velocity_sequence,
    write_frame_sequence,
    write_report,
    write_tensor,
    write_velocity_sequence,
)
from velofusion.metrics import MetricsReport
from velofusion.sim import Scatterer, SceneConfig, ground_truth_velocities, synth_flow, synth_lidar, simulate_adc

from helpers import BAD_SCENE_FIELDS, set_scene_field

_HEADER = struct.Struct("<4sIII6Q")


def _round_trip(arr):
    buf = std_io.BytesIO()
    write_tensor(buf, arr)
    buf.seek(0)
    return read_tensor(buf)


@pytest.mark.parametrize("dtype", ["<f4", "<f8", "<c8", "<i8", "u1"])
def test_tensor_round_trip_dtypes(dtype, tmp_path):
    rng = np.random.default_rng(101)
    arr = (rng.standard_normal((3, 4, 2)) * 100).astype(dtype)
    got = _round_trip(arr)
    assert got.dtype == np.dtype(dtype)
    assert got.shape == arr.shape
    assert np.array_equal(got.view(np.uint8), arr.view(np.uint8))
    path = tmp_path / "t.crlv"
    write_tensor(path, arr)
    got = read_tensor(path)
    assert np.array_equal(got.view(np.uint8), arr.view(np.uint8))


def test_tensor_scalar_and_empty():
    assert _round_trip(np.float32(3.5).reshape(())).shape == ()
    empty = _round_trip(np.zeros((0, 3), dtype=np.float64))
    assert empty.shape == (0, 3)


def test_tensor_write_rejects_rank_and_dtype():
    with pytest.raises(ValueError, match="rank"):
        write_tensor(std_io.BytesIO(), np.zeros((1,) * 7, dtype=np.float32))
    with pytest.raises(ValueError, match="dtype"):
        write_tensor(std_io.BytesIO(), np.zeros(3, dtype=np.int32))


def _header(magic=MAGIC, version=FORMAT_VERSION, code=1, rank=1, dims=(4, 0, 0, 0, 0, 0)):
    return _HEADER.pack(magic, version, code, rank, *dims)


def test_read_truncated_header():
    with pytest.raises(FormatError, match="byte offset 0"):
        read_tensor(std_io.BytesIO(b"CRL"))


def test_read_bad_magic():
    data = _header(magic=b"NOPE") + b"\x00" * 16
    with pytest.raises(FormatError, match="magic.*byte offset 0"):
        read_tensor(std_io.BytesIO(data))


def test_read_bad_version():
    data = _header(version=9) + b"\x00" * 16
    with pytest.raises(FormatError, match="version 9.*byte offset 4"):
        read_tensor(std_io.BytesIO(data))


def test_read_bad_dtype_code():
    data = _header(code=77) + b"\x00" * 16
    with pytest.raises(FormatError, match="dtype code 77.*byte offset 8"):
        read_tensor(std_io.BytesIO(data))


def test_read_bad_rank():
    data = _header(rank=7) + b"\x00" * 16
    with pytest.raises(FormatError, match="rank 7.*byte offset 12"):
        read_tensor(std_io.BytesIO(data))


def test_read_nonzero_padding_dim():
    data = _header(rank=1, dims=(4, 0, 5, 0, 0, 0)) + b"\x00" * 16
    with pytest.raises(FormatError, match="padding dim 5 at byte offset 32"):
        read_tensor(std_io.BytesIO(data))


def test_read_payload_size_mismatch():
    short = _header() + b"\x00" * 10
    with pytest.raises(FormatError, match="expected 16 bytes.*got 10"):
        read_tensor(std_io.BytesIO(short))
    extra = _header() + b"\x00" * 20
    with pytest.raises(FormatError, match="got 20"):
        read_tensor(std_io.BytesIO(extra))


def test_read_error_names_the_file(tmp_path):
    path = tmp_path / "broken.crlv"
    path.write_bytes(b"garbage")
    with pytest.raises(FormatError, match="broken.crlv"):
        read_tensor(path)


def test_read_huge_header_does_not_allocate():
    # dims that would overflow a naive 64-bit product must still just report
    # a size mismatch
    data = _header(rank=4, dims=(2**62, 2**62, 2**62, 8, 0, 0)) + b"\x00" * 4
    with pytest.raises(FormatError, match="payload size mismatch"):
        read_tensor(std_io.BytesIO(data))


def _demo_scene_dict():
    return {
        "scatterers": [
            {"position": [2.0, 0.0, 0.0], "velocity": [0.3, 0.0, 0.0]},
            {"position": [4.0, 1.0, 0.0], "velocity": [0.0, 0.0, 0.0], "amplitude": 1.4},
        ],
        "frame_interval": 0.05,
        "n_frames": 4,
        "noise_floor": 0.02,
        "lidar_points_per_scatterer": 12,
        "lidar_jitter_sigma": 0.01,
        "seed": 9,
        "radar": {"n_chirps": 16, "azimuth_fov": float(np.radians(60.0))},
        "camera": {"fx": 500.0, "fy": 500.0},
    }


def test_load_scene(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_demo_scene_dict()))
    scene, radar, camera = load_scene(path)
    assert len(scene.scatterers) == 2
    assert scene.scatterers[1].amplitude == pytest.approx(1.4)
    assert scene.n_frames == 4
    assert radar.n_chirps == 16
    assert radar.azimuth_fov == pytest.approx(np.radians(60.0))
    assert radar.n_samples == 128  # untouched default
    assert camera.fx == 500.0
    assert camera.width == 640


def test_load_scene_defaults(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"scatterers": []}))
    scene, radar, camera = load_scene(path)
    assert scene.scatterers == ()
    assert radar == RadarConfig()
    assert camera.rotation[2, 0] == 1.0  # forward-looking rig


def test_load_scene_rejects_unknown_keys(tmp_path):
    for mutate in (
        lambda d: d.update(wheels=4),
        lambda d: d["scatterers"][0].update(spin=1),
        lambda d: d["radar"].update(gain=3),
        lambda d: d["camera"].update(lens="wide"),
    ):
        obj = _demo_scene_dict()
        mutate(obj)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="unknown keys"):
            load_scene(path)


@pytest.mark.parametrize("mutate", [
    lambda d: d["scatterers"].__setitem__(1, 5),
    lambda d: d.update(radar=[1]),
    lambda d: d.update(camera="wide"),
])
def test_load_scene_rejects_non_object_entries(mutate, tmp_path):
    obj = _demo_scene_dict()
    mutate(obj)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="expected a JSON object"):
        load_scene(path)


def test_load_scene_requires_scatterers(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"n_frames": 3}))
    with pytest.raises(FormatError, match="scatterers"):
        load_scene(path)


@pytest.mark.parametrize("field, bad", [("position", np.nan), ("velocity", np.inf),
                                        ("position", -np.inf)])
def test_load_scene_rejects_non_finite_scatterers(field, bad, tmp_path):
    obj = _demo_scene_dict()
    obj["scatterers"][1][field][1] = bad  # written as NaN or Infinity, which json reads
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=r"scatterers\[1\]: non-finite"):
        load_scene(path)


def test_load_scene_invalid_values(tmp_path):
    obj = _demo_scene_dict()
    obj["n_frames"] = 1
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="n_frames"):
        load_scene(path)


@pytest.mark.parametrize("block, key, value", BAD_SCENE_FIELDS)
def test_load_scene_rejects_wrong_field_types(block, key, value, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(set_scene_field(_demo_scene_dict(), block, key, value)))
    where = "scene.json" if block is None else f"scene.json: {block}"
    with pytest.raises(FormatError, match=f"{where}: '{key}' must be"):
        load_scene(path)


def _tiny_bundles():
    cfg = RadarConfig(n_samples=16, n_chirps=8, n_azimuth_bins=8, n_elevation_bins=4,
                      range_resolution=0.25)
    camera = default_camera()
    scene = SceneConfig(
        scatterers=(Scatterer(position=(2.0, 0.0, 0.0), velocity=(0.2, 0.0, 0.0)),),
        noise_floor=0.05,
        lidar_points_per_scatterer=10,
        n_frames=2,
        seed=4,
    )
    bundles = []
    for f in range(2):
        lidar = synth_lidar(scene, f)
        bundles.append(FrameBundle(
            frame_index=f,
            timestamp=f * scene.frame_interval,
            adc=simulate_adc(scene, f, cfg),
            lidar=lidar,
            flow=synth_flow(scene, f - 1, camera) if f >= 1 else None,
            ground_truth=ground_truth_velocities(scene, lidar),
        ))
    return bundles, cfg, camera, scene


def test_frame_sequence_round_trip(tmp_path):
    bundles, cfg, camera, scene = _tiny_bundles()
    write_frame_sequence(tmp_path / "seq", bundles, cfg, camera, scene.frame_interval)
    got, radar2, camera2, interval = read_frame_sequence(tmp_path / "seq")
    assert radar2 == cfg
    assert camera2.fx == camera.fx
    assert np.array_equal(camera2.rotation, camera.rotation)
    assert interval == scene.frame_interval
    assert len(got) == 2
    for orig, back in zip(bundles, got):
        assert back.frame_index == orig.frame_index
        assert back.timestamp == orig.timestamp
        assert np.array_equal(back.adc.samples, orig.adc.samples)
        assert np.array_equal(back.lidar.positions, orig.lidar.positions)
        assert np.array_equal(back.lidar.labels, orig.lidar.labels)
        assert np.array_equal(back.ground_truth.velocities, orig.ground_truth.velocities)
        if orig.flow is None:
            assert back.flow is None
        else:
            assert np.array_equal(back.flow.flow, orig.flow.flow)
            assert np.array_equal(back.flow.covered, orig.flow.covered)
            assert back.flow.dt == orig.flow.dt


def test_empty_frame_sequence(tmp_path):
    write_frame_sequence(tmp_path / "seq", [], RadarConfig(), default_camera(), 0.1)
    got, _, _, _ = read_frame_sequence(tmp_path / "seq")
    assert got == []


def _write_sequence(kind, base):
    """A two-frame sequence of the given kind; returns its reader and the
    name of one of its tensors."""
    bundles, cfg, camera, scene = _tiny_bundles()
    if kind == "frames":
        write_frame_sequence(base, bundles, cfg, camera, scene.frame_interval)
        return read_frame_sequence, "adc.crlv"
    clouds = {b.frame_index: (b.timestamp, b.ground_truth) for b in bundles}
    write_velocity_sequence(base, clouds, scene.frame_interval)
    return read_velocity_sequence, "velocities.crlv"


def _edit_json(path, **changes):
    obj = json.loads(path.read_text())
    obj.update(changes)
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("kind", ["frames", "velocities"])
def test_sequence_rejects_wrong_kind(kind, tmp_path):
    read, _ = _write_sequence(kind, tmp_path / "seq")
    _edit_json(tmp_path / "seq" / "manifest.json", kind="other")
    with pytest.raises(FormatError, match=f"kind 'other' is not '{kind}'"):
        read(tmp_path / "seq")


@pytest.mark.parametrize("read", [read_frame_sequence, read_velocity_sequence],
                         ids=["frames", "velocities"])
def test_sequence_missing_manifest(read, tmp_path):
    with pytest.raises(FormatError, match="manifest.json"):
        read(tmp_path / "nothing")


@pytest.mark.parametrize("kind", ["frames", "velocities"])
def test_sequence_detects_corrupt_tensor(kind, tmp_path):
    read, name = _write_sequence(kind, tmp_path / "seq")
    victim = tmp_path / "seq" / "frame_000001" / name
    victim.write_bytes(victim.read_bytes()[:100])
    with pytest.raises(FormatError, match=name):
        read(tmp_path / "seq")


@pytest.mark.parametrize("kind, key, value", [
    ("frames", "n_frames", "2"),
    ("frames", "n_frames", -1),
    ("frames", "n_frames", 1.0),
    ("frames", "n_frames", True),
    ("velocities", "frame_indices", 5),
    ("velocities", "frame_indices", [0, "1"]),
    ("velocities", "frame_indices", [-1]),
    ("frames", "frame_interval", "0.1"),
    ("velocities", "frame_interval", 0),
    ("velocities", "frame_interval", float("nan")),
])
def test_sequence_manifest_rejects_bad_types(kind, key, value, tmp_path):
    read, _ = _write_sequence(kind, tmp_path / "seq")
    _edit_json(tmp_path / "seq" / "manifest.json", **{key: value})
    with pytest.raises(FormatError, match=f"manifest.json: '{key}' must be"):
        read(tmp_path / "seq")


@pytest.mark.parametrize("key", ["radar", "camera"])
def test_frame_manifest_rejects_non_object_blocks(key, tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    _edit_json(tmp_path / "seq" / "manifest.json", **{key: 5})
    with pytest.raises(FormatError, match=f"manifest.json: {key}: expected a JSON object"):
        read(tmp_path / "seq")


@pytest.mark.parametrize("block, key, value", [
    ("radar", "n_elevation_bins", 4.0),
    ("radar", "one_sided_range", 0),
    ("camera", "height", 480.5),
])
def test_frame_manifest_rejects_wrong_field_types(block, key, value, tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    manifest = json.loads((tmp_path / "seq" / "manifest.json").read_text())
    manifest[block][key] = value
    (tmp_path / "seq" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"manifest.json: {block}: '{key}' must be"):
        read(tmp_path / "seq")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frame_sequence_rejects_non_finite_flow(bad, tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    fdir = tmp_path / "seq" / "frame_000001"
    flow = read_tensor(fdir / "flow.crlv")
    row, col = np.argwhere(read_tensor(fdir / "flow_covered.crlv"))[0]
    flow[row, col, 1] = bad
    write_tensor(fdir / "flow.crlv", flow)
    with pytest.raises(FormatError, match="frame_000001: covered pixels must carry finite flow"):
        read(tmp_path / "seq")


@pytest.mark.parametrize("kind, key, value", [
    ("frames", "timestamp", "0.1"),
    ("velocities", "timestamp", None),
    ("frames", "flow_dt", "0.1"),
    ("frames", "flow_dt", None),
    ("frames", "flow_dt", float("inf")),
])
def test_sequence_meta_rejects_bad_types(kind, key, value, tmp_path):
    read, _ = _write_sequence(kind, tmp_path / "seq")
    _edit_json(tmp_path / "seq" / "frame_000001" / "meta.json", **{key: value})
    with pytest.raises(FormatError, match=f"meta.json: '{key}' must be"):
        read(tmp_path / "seq")


def test_frame_sequence_rejects_non_positive_flow_dt(tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    _edit_json(tmp_path / "seq" / "frame_000001" / "meta.json", flow_dt=-0.1)
    with pytest.raises(FormatError, match="frame_000001: dt must be positive"):
        read(tmp_path / "seq")


def test_velocity_sequence_round_trip(tmp_path):
    bundles, _, _, scene = _tiny_bundles()
    clouds = {1: (0.1, bundles[1].ground_truth)}
    write_velocity_sequence(tmp_path / "vel", clouds, scene.frame_interval)
    got, interval = read_velocity_sequence(tmp_path / "vel")
    assert interval == scene.frame_interval
    assert set(got) == {1}
    timestamp, cloud = got[1]
    assert timestamp == 0.1
    assert np.array_equal(cloud.positions, bundles[1].ground_truth.positions)
    assert np.array_equal(cloud.velocities, bundles[1].ground_truth.velocities)
    assert np.array_equal(cloud.status, bundles[1].ground_truth.status)


def test_write_report(tmp_path):
    write_report(tmp_path / "report.json", MetricsReport(0.1, 0.05, 0.08, 3.0, 2.5, 7))
    obj = json.loads((tmp_path / "report.json").read_text())
    assert obj["ave"] == 0.1
    assert obj["avae_weighted_deg"] == 2.5
