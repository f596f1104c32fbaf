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
subdirectory per frame holding the frame's tensors plus a meta.json. `simulate`
writes the sensor data and ground truth of each frame; `process` writes a
sequence of the same kind whose frames hold only the estimate (positions,
velocities, status), with frame 0, which has no flow, holding only its meta.
Writing a sequence replaces whatever sequence the directory held.
"""
from __future__ import annotations

import json
import math
import shutil
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from io import SEEK_END
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator

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
    arr = np.asarray(array)
    code = _dtype_code(arr.dtype)
    if arr.ndim > MAX_RANK:
        raise ValueError(f"tensor rank {arr.ndim} exceeds the format maximum {MAX_RANK}")
    dims = list(arr.shape) + [0] * (MAX_RANK - arr.ndim)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, code, arr.ndim, *dims)
    # no copy when the array already is C-contiguous and little-endian
    payload = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
    if hasattr(dest, "write"):
        dest.write(header)
        dest.write(payload)
    else:
        with open(dest, "wb") as f:
            f.write(header)
            f.write(payload)


def read_tensor(src: str | Path | BinaryIO) -> np.ndarray:
    """Read a tensor file, or a seekable stream from its position to its end;
    raises FormatError (with a byte offset) on damage."""
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
    start = f.tell()
    got = f.seek(0, SEEK_END) - start  # checked before the array is allocated
    if got == expected:
        f.seek(start)
        out = np.empty(shape, dtype=dtype)
        got = f.readinto(out.reshape(-1).view(np.uint8))
    if got != expected:
        raise FormatError(
            f"payload size mismatch: expected {expected} bytes for shape {shape} "
            f"dtype {dtype}, got {got} at byte offset {_HEADER.size}"
        )
    return out


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


def _numbers(value, where: str, key: str):
    """A number or a rectangular nested list of numbers, never a bool."""
    level = [value]
    while level and all(isinstance(v, list) and len(v) == len(level[0]) for v in level):
        level = [x for v in level for x in v]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in level):
        raise FormatError(f"{where}: '{key}' must be a number or a rectangular nested "
                          f"list of numbers, got {value!r}")
    return value


# The JSON check of a settings field, by its annotation (the dataclasses'
# modules postpone annotations, so these are strings). The shape of a vector
# or matrix and the finiteness of its entries are left to the dataclass.
_FIELD_CHECKS = {
    "int": _non_negative_int,
    "float": _number,
    "np.ndarray": _numbers,
    "tuple[float, float, float]": _numbers,
}


def _settings(cls, obj, where: str, preset: dict | None = None):
    """The settings dataclass cls built from a JSON object over the preset
    field values, each field the object sets checked by its annotation. A
    field that neither the object, the preset nor a default sets is a
    missing key, and any key that is not a field is unknown."""
    obj = _object(obj, where)
    kwargs = dict(preset or {})
    for f in fields(cls):
        if f.name in obj:
            kwargs[f.name] = _FIELD_CHECKS[f.type](obj.pop(f.name), where, f.name)
        elif f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise FormatError(f"{where}: missing required key '{f.name}'")
    _reject_extras(obj, where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise FormatError(f"{where}: {err}") from None


def _settings_dict(settings) -> dict:
    """The JSON object of a settings dataclass: asdict, arrays as lists."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in asdict(settings).items()}


# Forward-looking rig: camera optical axis along radar +x, image x right
# (radar -y), image y down (radar -z).
FORWARD_CAMERA_ROTATION = ((0.0, -1.0, 0.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))


def default_camera() -> CameraModel:
    return CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480,
                       rotation=np.array(FORWARD_CAMERA_ROTATION), translation=np.zeros(3))


def _radar_and_camera(obj: dict, where: str) -> tuple[RadarConfig, CameraModel]:
    """The radar and camera blocks taken out of obj; unset camera fields keep
    default_camera()'s values."""
    radar_obj = _take(obj, where, "radar", {})
    camera_obj = _take(obj, where, "camera", {})
    return (_settings(RadarConfig, radar_obj, f"{where}: radar"),
            _settings(CameraModel, camera_obj, f"{where}: camera", vars(default_camera())))


def load_scene(path: str | Path) -> tuple[SceneConfig, RadarConfig, CameraModel]:
    """Parse a scene file (schema documented in the README)."""
    path = Path(path)
    obj = _read_json(path)
    where = str(path)
    raw_scatterers = _take(obj, where, "scatterers", required=True)
    if not isinstance(raw_scatterers, list):
        raise FormatError(f"{where}: 'scatterers' must be a list")
    scatterers = tuple(_settings(Scatterer, entry, f"{where}: scatterers[{i}]")
                       for i, entry in enumerate(raw_scatterers))
    radar, camera = _radar_and_camera(obj, where)
    scene = _settings(SceneConfig, obj, where, {"scatterers": scatterers})
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
    estimate: VelocityPointCloud | None = None


def _frame_dir(base: Path, frame_index: int) -> Path:
    return base / f"frame_{frame_index:06d}"


def write_frame_sequence(
    directory: str | Path,
    bundles: Iterable[FrameBundle],
    radar: RadarConfig,
    camera: CameraModel,
    frame_interval: float,
) -> int:
    """Replace the sequence in directory: delete its manifest.json and frame
    directories, write frame k as the k-th bundle arrives and manifest.json
    last, so a write that fails partway leaves none. A bundle is let go once
    it is written, before the next one is asked for. Returns the number of
    frames written."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    (base / "manifest.json").unlink(missing_ok=True)
    for old in base.glob("frame_*"):
        if old.name[6:].isdigit() and old.is_dir():
            shutil.rmtree(old)
    n_frames = 0
    for bundle in bundles:
        if bundle.frame_index != n_frames:
            raise ValueError(f"bundle {n_frames} has frame_index {bundle.frame_index}")
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
        if bundle.estimate is not None:
            write_tensor(fdir / "positions.crlv", bundle.estimate.positions)
            write_tensor(fdir / "velocities.crlv", bundle.estimate.velocities)
            write_tensor(fdir / "status.crlv", bundle.estimate.status)
        _write_json(fdir / "meta.json", meta)
        n_frames += 1
        del bundle  # frame k is written; it need not wait for frame k+1 to be built
    _write_json(base / "manifest.json", {
        "format_version": FORMAT_VERSION,
        "kind": "frames",
        "n_frames": n_frames,
        "frame_interval": frame_interval,
        "radar": _settings_dict(radar),
        "camera": _settings_dict(camera),
    })
    return n_frames


FRAME_COMPONENTS = ("adc", "lidar", "flow", "ground_truth", "estimate")


def read_frame_sequence(
    directory: str | Path,
    components: Collection[str] = FRAME_COMPONENTS,
    flow_frames_only: bool = False,
) -> tuple[Iterator[FrameBundle], RadarConfig, CameraModel, float]:
    """Check the component names and the manifest now. The frames iterator
    reads and checks each frame's meta.json when the loop reaches the frame
    and decodes only the named FrameBundle components; the others stay None
    and their tensors are not read. With flow_frames_only, a frame without
    flow comes with every component None, so none of its tensors is read. A
    damaged tensor is a FormatError naming its frame directory."""
    unknown = set(components) - set(FRAME_COMPONENTS)
    if unknown:
        raise ValueError(f"unknown frame components {sorted(unknown)}")
    if "ground_truth" in components and "lidar" not in components:
        raise ValueError("ground_truth needs the lidar component")
    base = Path(directory)
    where = str(base / "manifest.json")
    manifest = _read_json(base / "manifest.json")
    kind = _take(manifest, where, "kind", required=True)
    if kind != "frames":
        raise FormatError(f"{where}: kind {kind!r} is not 'frames'")
    version = _take(manifest, where, "format_version", required=True)
    if version != FORMAT_VERSION:
        raise FormatError(f"{where}: unsupported format version {version}")
    frame_interval = _number(_take(manifest, where, "frame_interval", required=True),
                             where, "frame_interval")
    if not frame_interval > 0:
        raise FormatError(f"{where}: 'frame_interval' must be positive, got {frame_interval}")
    n_frames = _non_negative_int(_take(manifest, where, "n_frames", required=True),
                                 where, "n_frames")
    radar, camera = _radar_and_camera(manifest, where)
    _reject_extras(manifest, where)

    def read_frame(idx: int) -> FrameBundle:
        fdir = _frame_dir(base, idx)
        mwhere = str(fdir / "meta.json")
        meta = _read_json(fdir / "meta.json")
        frame_index = _take(meta, mwhere, "frame_index", required=True)
        if frame_index != idx:
            raise FormatError(f"{mwhere}: frame_index {frame_index!r} != directory index {idx}")
        timestamp = _number(_take(meta, mwhere, "timestamp", required=True),
                            mwhere, "timestamp")
        flow_dt = _take(meta, mwhere, "flow_dt")
        _reject_extras(meta, mwhere)
        bundle = FrameBundle(frame_index=idx, timestamp=timestamp)
        if flow_frames_only and not (fdir / "flow.crlv").exists():
            return bundle
        if "adc" in components and (fdir / "adc.crlv").exists():
            bundle.adc = AdcCube(read_tensor(fdir / "adc.crlv"))
        if "lidar" in components and (fdir / "lidar_positions.crlv").exists():
            labels = None
            if (fdir / "lidar_labels.crlv").exists():
                labels = read_tensor(fdir / "lidar_labels.crlv")
            bundle.lidar = PointCloud(read_tensor(fdir / "lidar_positions.crlv"), labels)
        if (fdir / "flow.crlv").exists():
            flow_dt = _number(flow_dt, mwhere, "flow_dt")
            if "flow" in components:
                covered = read_tensor(fdir / "flow_covered.crlv").astype(bool)
                bundle.flow = FlowField(read_tensor(fdir / "flow.crlv"), covered, flow_dt)
        if "ground_truth" in components and (fdir / "gt_velocities.crlv").exists():
            if bundle.lidar is None:
                raise FormatError(f"{fdir}: ground truth without lidar positions")
            vel = read_tensor(fdir / "gt_velocities.crlv")
            status = np.full(len(vel), PointStatus.OK, dtype=np.uint8)
            bundle.ground_truth = VelocityPointCloud(bundle.lidar.positions.copy(), vel, status)
        if "estimate" in components and (fdir / "positions.crlv").exists():
            bundle.estimate = VelocityPointCloud(read_tensor(fdir / "positions.crlv"),
                                                 read_tensor(fdir / "velocities.crlv"),
                                                 read_tensor(fdir / "status.crlv"))
        return bundle

    def frames():
        for idx in range(n_frames):
            try:
                bundle = read_frame(idx)
            except FormatError:
                raise
            except ValueError as err:
                raise FormatError(f"{_frame_dir(base, idx)}: {err}") from None
            # Frame k stays referenced here until frame k+1 is read. Let go
            # first, it lowered process's peak by about 1 MB, and in a new
            # process glibc then trimmed and re-faulted about 9 MB of heap per
            # demo frame.
            yield bundle
    return frames(), radar, camera, frame_interval


def read_velocity_sequence(
    directory: str | Path,
) -> tuple[dict[int, tuple[float, VelocityPointCloud]], float]:
    """The estimates of a sequence that `process` wrote, as {frame index:
    (timestamp, estimate)} over the frames that hold one, and the frame
    interval. It holds every estimate at once, so the package itself reads
    estimates through read_frame_sequence; this stays for perfbench's
    `cli_roundtrip` workload, which reads the estimates back with it."""
    frames, _, _, frame_interval = read_frame_sequence(directory, ("estimate",))
    clouds = {b.frame_index: (b.timestamp, b.estimate) for b in frames if b.estimate is not None}
    return clouds, frame_interval


def write_report(path: str | Path, report) -> None:
    _write_json(Path(path), report.to_dict())
