"""On-disk formats: binary tensors, frame sequences, scene files, reports.

Tensor file layout (little-endian, 64-byte header, then the raw payload):

    offset  size  field
    0       4     magic "CRLV"
    4       4     format version (u32, currently 1)
    8       4     dtype code (u32): 1=f32 2=f64 3=c64 4=i64 5=u8
    12      4     rank (u32, max 6)
    16      48    dims (6 x u64; entries beyond rank must be 0)
    64      ...   payload, C order; complex64 is interleaved (re, im) f32

A frame sequence is a directory with a manifest.json and one frame_NNNNNN/
subdirectory per frame holding the frame's tensors plus a meta.json.
"""
from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .cube import AdcCube, RadarConfig
from .sim import Scatterer, SceneConfig
from .types import CameraModel, FlowField, PointCloud, PointStatus, VelocityPointCloud

MAGIC = b"CRLV"
FORMAT_VERSION = 1
MAX_RANK = 6
_HEADER = struct.Struct("<4sIII6Q")  # 64 bytes

_CODE_TO_DTYPE = {
    1: np.dtype("<f4"),
    2: np.dtype("<f8"),
    3: np.dtype("<c8"),
    4: np.dtype("<i8"),
    5: np.dtype("<u1"),
}
_KIND_TO_CODE = {("f", 4): 1, ("f", 8): 2, ("c", 8): 3, ("i", 8): 4, ("u", 1): 5}


class FormatError(ValueError):
    """A file does not conform to one of the package's formats."""


def _dtype_code(dtype: np.dtype) -> int:
    code = _KIND_TO_CODE.get((dtype.kind, dtype.itemsize))
    if code is None:
        raise ValueError(f"unsupported tensor dtype {dtype}")
    return code


def write_tensor(dest: str | Path | BinaryIO, array: np.ndarray) -> None:
    """Write an array in the binary tensor format (overwrites)."""
    arr = np.asarray(array)  # tobytes() below serializes any layout in C order
    code = _dtype_code(arr.dtype)
    if arr.ndim > MAX_RANK:
        raise ValueError(f"tensor rank {arr.ndim} exceeds the format maximum {MAX_RANK}")
    dims = list(arr.shape) + [0] * (MAX_RANK - arr.ndim)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, code, arr.ndim, *dims)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    if hasattr(dest, "write"):
        dest.write(header)
        dest.write(payload)
    else:
        with open(dest, "wb") as f:
            f.write(header)
            f.write(payload)


def read_tensor(src: str | Path | BinaryIO) -> np.ndarray:
    """Read a tensor file; raises FormatError (with a byte offset) on damage."""
    if hasattr(src, "read"):
        return _read_tensor_stream(src)
    with open(src, "rb") as f:
        try:
            return _read_tensor_stream(f)
        except FormatError as err:
            raise FormatError(f"{src}: {err}") from None


def _read_tensor_stream(f: BinaryIO) -> np.ndarray:
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise FormatError(
            f"truncated header: got {len(header)} of {_HEADER.size} bytes at byte offset 0"
        )
    magic, version, code, rank, *dims = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} (expected {MAGIC!r}) at byte offset 0")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format version {version} (expected {FORMAT_VERSION}) at byte offset 4"
        )
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise FormatError(f"unknown dtype code {code} at byte offset 8")
    if rank > MAX_RANK:
        raise FormatError(f"rank {rank} exceeds maximum {MAX_RANK} at byte offset 12")
    for i in range(rank, MAX_RANK):
        if dims[i] != 0:
            raise FormatError(
                f"nonzero padding dim {dims[i]} at byte offset {16 + 8 * i} (rank is {rank})"
            )
    shape = tuple(dims[:rank])
    count = 1
    for d in shape:
        count *= d  # python ints: no overflow for absurd headers
    expected = count * dtype.itemsize
    payload = f.read()
    if len(payload) != expected:
        raise FormatError(
            f"payload size mismatch: expected {expected} bytes for shape {shape} "
            f"dtype {dtype}, got {len(payload)} at byte offset {_HEADER.size}"
        )
    return np.frombuffer(payload, dtype=dtype, count=count).reshape(shape).copy()


# --------------------------------------------------------------------------
# JSON helpers (sorted keys and indent keep writes byte-reproducible)

def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_json(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise FormatError(f"{path}: missing") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from None
    return _object(obj, str(path))


def _object(obj, where: str) -> dict:
    """A copy of a JSON object; anything else is a FormatError."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return dict(obj)


def _take(obj: dict, where: str, key: str, default=None, required: bool = False):
    if required and key not in obj:
        raise FormatError(f"{where}: missing required key '{key}'")
    return obj.pop(key, default)


def _reject_extras(obj: dict, where: str) -> None:
    if obj:
        raise FormatError(f"{where}: unknown keys {sorted(obj)}")


def _number(value, where: str, key: str) -> float:
    """A finite JSON number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise FormatError(f"{where}: '{key}' must be a finite number, got {value!r}")
    return value


def _non_negative_int(value, where: str, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError(f"{where}: '{key}' must be an integer >= 0, got {value!r}")
    return value


def _bool(value, where: str, key: str) -> bool:
    if not isinstance(value, bool):
        raise FormatError(f"{where}: '{key}' must be true or false, got {value!r}")
    return value


# Type checks by annotation (the dataclasses' modules postpone annotations, so
# these are strings); fields of any other type are checked by the dataclass.
_FIELD_CHECKS = {"int": _non_negative_int, "float": _number, "bool": _bool}


def _take_fields(obj: dict, where: str, cls) -> dict:
    """Take every field of dataclass cls that obj sets out of obj, with int
    fields checked to be integers >= 0, float fields finite numbers and bool
    fields JSON booleans."""
    kwargs = {}
    for f in fields(cls):
        if f.name in obj:
            check = _FIELD_CHECKS.get(f.type)
            value = obj.pop(f.name)
            kwargs[f.name] = check(value, where, f.name) if check else value
    return kwargs


def radar_config_to_dict(cfg: RadarConfig) -> dict:
    return asdict(cfg)


def radar_config_from_dict(obj: dict, where: str) -> RadarConfig:
    obj = _object(obj, where)
    kwargs = _take_fields(obj, where, RadarConfig)
    _reject_extras(obj, where)
    try:
        return RadarConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise FormatError(f"{where}: {err}") from None


def camera_to_dict(camera: CameraModel) -> dict:
    return {
        "fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy,
        "width": camera.width, "height": camera.height,
        "rotation": camera.rotation.tolist(),
        "translation": camera.translation.tolist(),
    }


# Forward-looking rig: camera optical axis along radar +x, image x right
# (radar -y), image y down (radar -z).
FORWARD_CAMERA_ROTATION = ((0.0, -1.0, 0.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))


def default_camera() -> CameraModel:
    return CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480,
                       rotation=np.array(FORWARD_CAMERA_ROTATION), translation=np.zeros(3))


def camera_from_dict(obj: dict, where: str) -> CameraModel:
    """A camera from its JSON object; unset fields keep default_camera()'s."""
    obj = _object(obj, where)
    kwargs = _take_fields(obj, where, CameraModel)
    _reject_extras(obj, where)
    try:
        return replace(default_camera(), **kwargs)
    except (TypeError, ValueError) as err:
        raise FormatError(f"{where}: {err}") from None


def load_scene(path: str | Path) -> tuple[SceneConfig, RadarConfig, CameraModel]:
    """Parse a scene file (schema documented in the README)."""
    path = Path(path)
    obj = _read_json(path)
    where = str(path)
    raw_scatterers = _take(obj, where, "scatterers", required=True)
    if not isinstance(raw_scatterers, list):
        raise FormatError(f"{where}: 'scatterers' must be a list")
    scatterers = []
    for i, entry in enumerate(raw_scatterers):
        swhere = f"{where}: scatterers[{i}]"
        entry = _object(entry, swhere)
        pos = _take(entry, swhere, "position", required=True)
        vel = _take(entry, swhere, "velocity", required=True)
        amp = _take(entry, swhere, "amplitude", 1.0)
        _reject_extras(entry, swhere)
        try:
            scatterers.append(Scatterer(tuple(pos), tuple(vel), amp))
        except (TypeError, ValueError) as err:
            raise FormatError(f"{swhere}: {err}") from None
    kwargs = _take_fields(obj, where, SceneConfig)
    radar_obj = _take(obj, where, "radar", {})
    camera_obj = _take(obj, where, "camera", {})
    _reject_extras(obj, where)
    try:
        scene = SceneConfig(tuple(scatterers), **kwargs)
    except (TypeError, ValueError) as err:
        raise FormatError(f"{where}: {err}") from None
    radar = radar_config_from_dict(radar_obj, f"{where}: radar")
    camera = camera_from_dict(camera_obj, f"{where}: camera")
    return scene, radar, camera


# --------------------------------------------------------------------------
# Frame sequences

@dataclass
class FrameBundle:
    """Everything recorded for one frame; absent components are None."""

    frame_index: int
    timestamp: float
    adc: AdcCube | None = None
    lidar: PointCloud | None = None
    flow: FlowField | None = None
    ground_truth: VelocityPointCloud | None = None


def _frame_dir(base: Path, frame_index: int) -> Path:
    return base / f"frame_{frame_index:06d}"


def write_frame_sequence(
    directory: str | Path,
    bundles: list[FrameBundle],
    radar: RadarConfig,
    camera: CameraModel,
    frame_interval: float,
) -> None:
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    _write_json(base / "manifest.json", {
        "format_version": FORMAT_VERSION,
        "kind": "frames",
        "n_frames": len(bundles),
        "frame_interval": frame_interval,
        "radar": radar_config_to_dict(radar),
        "camera": camera_to_dict(camera),
    })
    for bundle in bundles:
        fdir = _frame_dir(base, bundle.frame_index)
        fdir.mkdir(parents=True, exist_ok=True)
        meta = {"frame_index": bundle.frame_index, "timestamp": bundle.timestamp}
        if bundle.adc is not None:
            write_tensor(fdir / "adc.crlv", bundle.adc.samples)
        if bundle.lidar is not None:
            write_tensor(fdir / "lidar_positions.crlv", bundle.lidar.positions)
            if bundle.lidar.labels is not None:
                write_tensor(fdir / "lidar_labels.crlv", bundle.lidar.labels)
        if bundle.flow is not None:
            write_tensor(fdir / "flow.crlv", bundle.flow.flow)
            write_tensor(fdir / "flow_covered.crlv", bundle.flow.covered.astype(np.uint8))
            meta["flow_dt"] = bundle.flow.dt
        if bundle.ground_truth is not None:
            write_tensor(fdir / "gt_velocities.crlv", bundle.ground_truth.velocities)
        _write_json(fdir / "meta.json", meta)


def _read_manifest(base: Path, kind: str) -> tuple[dict, str, float]:
    """A sequence's manifest with its kind, format version and frame interval
    checked and taken out, its location, and the frame interval."""
    where = str(base / "manifest.json")
    manifest = _read_json(base / "manifest.json")
    found = _take(manifest, where, "kind", required=True)
    if found != kind:
        raise FormatError(f"{where}: kind {found!r} is not {kind!r}")
    version = _take(manifest, where, "format_version", required=True)
    if version != FORMAT_VERSION:
        raise FormatError(f"{where}: unsupported format version {version}")
    frame_interval = _number(_take(manifest, where, "frame_interval", required=True),
                             where, "frame_interval")
    if not frame_interval > 0:
        raise FormatError(f"{where}: 'frame_interval' must be positive, got {frame_interval}")
    return manifest, where, frame_interval


@contextmanager
def _frame_reader(base: Path, idx: int):
    """Read a frame's meta.json and check its frame_index and timestamp, then
    yield (frame directory, timestamp, the rest of the meta, its location);
    a ValueError raised while the caller reads the frame's tensors becomes a
    FormatError naming the frame directory."""
    fdir = _frame_dir(base, idx)
    where = str(fdir / "meta.json")
    meta = _read_json(fdir / "meta.json")
    frame_index = _take(meta, where, "frame_index", required=True)
    if frame_index != idx:
        raise FormatError(f"{where}: frame_index {frame_index!r} != directory index {idx}")
    timestamp = _number(_take(meta, where, "timestamp", required=True), where, "timestamp")
    try:
        yield fdir, timestamp, meta, where
    except FormatError:
        raise
    except ValueError as err:
        raise FormatError(f"{fdir}: {err}") from None


def read_frame_sequence(
    directory: str | Path,
) -> tuple[list[FrameBundle], RadarConfig, CameraModel, float]:
    base = Path(directory)
    manifest, where, frame_interval = _read_manifest(base, "frames")
    n_frames = _non_negative_int(_take(manifest, where, "n_frames", required=True),
                                 where, "n_frames")
    radar = radar_config_from_dict(_take(manifest, where, "radar", {}), f"{where}: radar")
    camera = camera_from_dict(_take(manifest, where, "camera", {}), f"{where}: camera")
    _reject_extras(manifest, where)

    bundles = []
    for idx in range(n_frames):
        with _frame_reader(base, idx) as (fdir, timestamp, meta, mwhere):
            flow_dt = _take(meta, mwhere, "flow_dt")
            _reject_extras(meta, mwhere)
            bundle = FrameBundle(frame_index=idx, timestamp=timestamp)
            if (fdir / "adc.crlv").exists():
                bundle.adc = AdcCube(read_tensor(fdir / "adc.crlv"))
            if (fdir / "lidar_positions.crlv").exists():
                labels = None
                if (fdir / "lidar_labels.crlv").exists():
                    labels = read_tensor(fdir / "lidar_labels.crlv")
                bundle.lidar = PointCloud(read_tensor(fdir / "lidar_positions.crlv"), labels)
            if (fdir / "flow.crlv").exists():
                flow_dt = _number(flow_dt, mwhere, "flow_dt")
                covered = read_tensor(fdir / "flow_covered.crlv").astype(bool)
                bundle.flow = FlowField(read_tensor(fdir / "flow.crlv"), covered, flow_dt)
            if (fdir / "gt_velocities.crlv").exists():
                if bundle.lidar is None:
                    raise FormatError(f"{fdir}: ground truth without lidar positions")
                vel = read_tensor(fdir / "gt_velocities.crlv")
                status = np.full(len(vel), PointStatus.OK, dtype=np.uint8)
                bundle.ground_truth = VelocityPointCloud(
                    bundle.lidar.positions.copy(), vel, status)
        bundles.append(bundle)
    return bundles, radar, camera, frame_interval


def write_velocity_sequence(
    directory: str | Path,
    clouds: dict[int, tuple[float, VelocityPointCloud]],
    frame_interval: float,
) -> None:
    """Write estimated velocity clouds keyed by frame index."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    _write_json(base / "manifest.json", {
        "format_version": FORMAT_VERSION,
        "kind": "velocities",
        "frame_indices": sorted(clouds),
        "frame_interval": frame_interval,
    })
    for idx in sorted(clouds):
        timestamp, cloud = clouds[idx]
        fdir = _frame_dir(base, idx)
        fdir.mkdir(parents=True, exist_ok=True)
        _write_json(fdir / "meta.json", {"frame_index": idx, "timestamp": timestamp})
        write_tensor(fdir / "positions.crlv", cloud.positions)
        write_tensor(fdir / "velocities.crlv", cloud.velocities)
        write_tensor(fdir / "status.crlv", cloud.status)


def read_velocity_sequence(
    directory: str | Path,
) -> tuple[dict[int, tuple[float, VelocityPointCloud]], float]:
    base = Path(directory)
    manifest, where, frame_interval = _read_manifest(base, "velocities")
    indices = _take(manifest, where, "frame_indices", required=True)
    if not isinstance(indices, list):
        raise FormatError(f"{where}: 'frame_indices' must be a list, got {indices!r}")
    indices = [_non_negative_int(idx, where, "frame_indices") for idx in indices]
    _reject_extras(manifest, where)
    clouds: dict[int, tuple[float, VelocityPointCloud]] = {}
    for idx in indices:
        with _frame_reader(base, idx) as (fdir, timestamp, meta, mwhere):
            _reject_extras(meta, mwhere)
            clouds[idx] = (timestamp, VelocityPointCloud(
                read_tensor(fdir / "positions.crlv"),
                read_tensor(fdir / "velocities.crlv"),
                read_tensor(fdir / "status.crlv"),
            ))
    return clouds, frame_interval


def write_report(path: str | Path, report) -> None:
    _write_json(Path(path), report.to_dict())
