import io as std_io
import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from velofusion.cube import RadarConfig
from velofusion.io import (
    _FIELD_CHECKS,
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
    _settings_dict,
)
from velofusion.metrics import MetricsReport
from velofusion.sim import Scatterer, SceneConfig, ground_truth_velocities, synth_flow, synth_lidar, simulate_adc
from velofusion.types import CameraModel

from helpers import BAD_SCENE_FIELDS, set_scene_field

SCENES = Path(__file__).resolve().parent.parent / "scenes"

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


def test_tensor_write_serializes_any_layout_little_endian_in_c_order():
    base = np.arange(24, dtype="<f8").reshape(2, 3, 4)
    for arr in (base.transpose(2, 0, 1), base[:, ::2], base.astype(">f8"),
                np.asfortranarray(base)):
        buf = std_io.BytesIO()
        write_tensor(buf, arr)
        assert buf.getvalue()[_HEADER.size:] == np.ascontiguousarray(arr, "<f8").tobytes()
        assert np.array_equal(_round_trip(arr), arr)


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
    with pytest.raises(FormatError, match=re.escape(f"{where}: '{key}' must be")):
        load_scene(path)


def test_load_scene_requires_scatterer_positions(tmp_path):
    obj = _demo_scene_dict()
    del obj["scatterers"][1]["position"]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=re.escape("scatterers[1]: missing required key "
                                                    "'position'")):
        load_scene(path)


def test_load_scene_omitted_velocity_is_static(tmp_path):
    obj = _demo_scene_dict()
    del obj["scatterers"][0]["velocity"]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    scene, _, _ = load_scene(path)
    assert scene.scatterers[0] == Scatterer(position=(2.0, 0.0, 0.0))
    assert scene.scatterers[0].velocity == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["demo.json", "tiny.json"])
def test_settings_writer_round_trips_through_load_scene(name, tmp_path):
    scene, radar, camera = load_scene(SCENES / name)
    obj = {**_settings_dict(scene), "radar": _settings_dict(radar),
           "camera": _settings_dict(camera)}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    scene2, radar2, camera2 = load_scene(path)
    assert scene2 == scene
    assert radar2 == radar
    assert _settings_dict(camera2) == _settings_dict(camera)


def test_every_settings_field_has_a_json_check():
    """A field whose annotation has no JSON check would reach its dataclass
    unchecked, as a bool once reached a float vector."""
    unchecked = [(cls.__name__, f.name)
                 for cls in (RadarConfig, CameraModel, SceneConfig, Scatterer)
                 for f in fields(cls) if f.type not in _FIELD_CHECKS]
    assert unchecked == [("SceneConfig", "scatterers")]  # load_scene reads it separately


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
    frames, radar2, camera2, interval = read_frame_sequence(tmp_path / "seq")
    got = list(frames)
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


def test_frame_sequence_streams_frames_and_writes_the_manifest_last(tmp_path):
    bundles, cfg, camera, scene = _tiny_bundles()
    base = tmp_path / "seq"

    def arriving():
        for k, bundle in enumerate(bundles):
            assert sorted(p.name for p in base.iterdir()) == [f"frame_{i:06d}" for i in range(k)]
            yield bundle

    assert write_frame_sequence(base, arriving(), cfg, camera, scene.frame_interval) == 2
    assert json.loads((base / "manifest.json").read_text())["n_frames"] == 2
    # the reader checks the manifest; a frame is read when the loop reaches it
    victim = base / "frame_000001" / "adc.crlv"
    victim.write_bytes(victim.read_bytes()[:100])
    frames, _, _, _ = read_frame_sequence(base)
    assert next(frames).frame_index == 0
    with pytest.raises(FormatError, match="frame_000001/adc.crlv"):
        next(frames)


@pytest.mark.parametrize("indices", [[5], [0, 2], [0, 0]])
def test_frame_sequence_rejects_misnumbered_bundles(indices, tmp_path):
    k = len(indices) - 1
    with pytest.raises(ValueError, match=f"bundle {k} has frame_index {indices[k]}"):
        write_frame_sequence(tmp_path / "seq", [FrameBundle(i, 0.1 * i) for i in indices],
                             RadarConfig(), default_camera(), 0.1)
    written = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert written == [f"frame_{i:06d}" for i in range(k)]


@pytest.mark.parametrize("components", [(), ("lidar",), ("lidar", "ground_truth"),
                                        ("adc", "flow")])
def test_frame_sequence_decodes_only_the_named_components(components, tmp_path):
    bundles, cfg, camera, scene = _tiny_bundles()
    write_frame_sequence(tmp_path / "seq", bundles, cfg, camera, scene.frame_interval)
    skipped = {"adc": "adc.crlv", "flow": "flow.crlv", "lidar": "lidar_positions.crlv",
               "ground_truth": "gt_velocities.crlv"}
    for name, tensor in skipped.items():
        if name not in components and (name != "lidar" or "ground_truth" not in components):
            victim = tmp_path / "seq" / "frame_000001" / tensor
            victim.write_bytes(victim.read_bytes()[:100])
    frames, radar, _, _ = read_frame_sequence(tmp_path / "seq", components)
    got = list(frames)
    assert radar == cfg
    for orig, back in zip(bundles, got):
        for name in skipped:
            if name in components and getattr(orig, name) is not None:
                assert back.timestamp == orig.timestamp
                assert getattr(back, name) is not None
            else:
                assert getattr(back, name) is None
        if "ground_truth" in components:
            assert np.array_equal(back.ground_truth.velocities, orig.ground_truth.velocities)
    # the frame's meta is checked whether or not its flow is decoded
    _edit_json(tmp_path / "seq" / "frame_000001" / "meta.json", flow_dt="0.1")
    with pytest.raises(FormatError, match="meta.json: 'flow_dt' must be"):
        list(read_frame_sequence(tmp_path / "seq", components)[0])


@pytest.mark.parametrize("components, message", [
    (("lidar", "radar"), r"unknown frame components \['radar'\]"),
    ("adc", r"unknown frame components \['a', 'c', 'd'\]"),
    (("ground_truth",), "ground_truth needs the lidar component"),
], ids=["unknown", "string", "truth-without-lidar"])
def test_frame_sequence_rejects_bad_components(components, message, tmp_path):
    bundles, cfg, camera, scene = _tiny_bundles()
    write_frame_sequence(tmp_path / "seq", bundles, cfg, camera, scene.frame_interval)
    with pytest.raises(ValueError, match=message):
        read_frame_sequence(tmp_path / "seq", components)


def test_empty_frame_sequence(tmp_path):
    write_frame_sequence(tmp_path / "seq", [], RadarConfig(), default_camera(), 0.1)
    frames, _, _, _ = read_frame_sequence(tmp_path / "seq")
    assert list(frames) == []


def _estimate_bundles():
    """The two frames as `process` writes them: frame 0 has no flow and so
    no estimate; frame 1's estimate is its ground truth."""
    bundles, cfg, camera, scene = _tiny_bundles()
    estimates = [FrameBundle(b.frame_index, b.timestamp,
                             estimate=b.ground_truth if b.flow is not None else None)
                 for b in bundles]
    return estimates, cfg, camera, scene


def _write_sequence(kind, base):
    """A two-frame sequence of simulated frames ("frames") or of estimates
    ("velocities"); returns its reader and the name of one of its tensors."""
    if kind == "frames":
        bundles, cfg, camera, scene = _tiny_bundles()
        write_frame_sequence(base, bundles, cfg, camera, scene.frame_interval)
        return read_frame_sequence, "adc.crlv"
    bundles, cfg, camera, scene = _estimate_bundles()
    write_frame_sequence(base, bundles, cfg, camera, scene.frame_interval)
    return read_velocity_sequence, "velocities.crlv"


def _read_whole(read, directory):
    """Read a sequence to its last frame: a frame sequence's frames are read
    as its iterator is consumed."""
    result = read(directory)
    if read is read_frame_sequence:
        list(result[0])


def _edit_json(path, **changes):
    obj = json.loads(path.read_text())
    obj.update(changes)
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("kind", ["frames", "velocities"])
def test_sequence_rejects_wrong_kind(kind, tmp_path):
    """A manifest of another kind is not read. In the velocities case it is
    the manifest estimates had before they were a frame component, which
    listed the estimated frames; such a directory is processed again."""
    read, _ = _write_sequence(kind, tmp_path / "seq")
    manifest = tmp_path / "seq" / "manifest.json"
    if kind == "frames":
        found = "other"
        _edit_json(manifest, kind=found)
    else:
        found = "velocities"
        manifest.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": found,
                                        "frame_indices": [1], "frame_interval": 0.1}))
    with pytest.raises(FormatError, match=f"kind '{found}' is not 'frames'"):
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
        _read_whole(read, tmp_path / "seq")


@pytest.mark.parametrize("kind, key, value", [
    ("frames", "n_frames", "2"),
    ("frames", "n_frames", -1),
    ("frames", "n_frames", 1.0),
    ("frames", "n_frames", True),
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
    ("camera", "height", 480.5),
    ("camera", "translation", [0, True, 0]),
])
def test_frame_manifest_rejects_wrong_field_types(block, key, value, tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    manifest = json.loads((tmp_path / "seq" / "manifest.json").read_text())
    manifest[block][key] = value
    (tmp_path / "seq" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"manifest.json: {block}: '{key}' must be"):
        read(tmp_path / "seq")


def test_frame_manifest_rejects_one_sided_range(tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    manifest = json.loads((tmp_path / "seq" / "manifest.json").read_text())
    assert len(manifest["radar"]) == 9
    manifest["radar"]["one_sided_range"] = False
    (tmp_path / "seq" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=re.escape("radar: unknown keys ['one_sided_range']")):
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
        _read_whole(read, tmp_path / "seq")


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
        _read_whole(read, tmp_path / "seq")


def test_frame_sequence_rejects_non_positive_flow_dt(tmp_path):
    read, _ = _write_sequence("frames", tmp_path / "seq")
    _edit_json(tmp_path / "seq" / "frame_000001" / "meta.json", flow_dt=-0.1)
    with pytest.raises(FormatError, match="frame_000001: dt must be positive"):
        _read_whole(read, tmp_path / "seq")


def test_velocity_sequence_round_trip(tmp_path):
    bundles, cfg, camera, scene = _estimate_bundles()
    write_frame_sequence(tmp_path / "vel", bundles, cfg, camera, scene.frame_interval)
    assert sorted(p.name for p in (tmp_path / "vel" / "frame_000000").iterdir()) == ["meta.json"]
    frames, _, _, _ = read_frame_sequence(tmp_path / "vel")
    assert [b.estimate is not None for b in frames] == [False, True]
    got, interval = read_velocity_sequence(tmp_path / "vel")
    assert interval == scene.frame_interval
    assert set(got) == {1}
    timestamp, cloud = got[1]
    assert timestamp == bundles[1].timestamp
    assert np.array_equal(cloud.positions, bundles[1].estimate.positions)
    assert np.array_equal(cloud.velocities, bundles[1].estimate.velocities)
    assert np.array_equal(cloud.status, bundles[1].estimate.status)


def test_write_report(tmp_path):
    write_report(tmp_path / "report.json", MetricsReport(0.1, 0.05, 0.08, 3.0, 2.5, 7))
    obj = json.loads((tmp_path / "report.json").read_text())
    assert obj["ave"] == 0.1
    assert obj["avae_weighted_deg"] == 2.5
