import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from velofusion.cli import main
from velofusion.cube import build_radar_cube, threshold_cube
from velofusion.fusion import estimate_frame
from velofusion.io import read_frame_sequence, read_tensor, read_velocity_sequence, write_tensor
from velofusion.types import FramePair
from velofusion.velcube import ContextWindow, collapse_doppler

from helpers import BAD_SCENE_FIELDS, set_scene_field

SCENES = Path(__file__).resolve().parent.parent / "scenes"


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One simulate + process + evaluate run on the tiny scene, shared."""
    base = tmp_path_factory.mktemp("cli")
    frames = base / "frames"
    vel = base / "vel"
    report = base / "report.json"
    assert main(["simulate", "--scene", str(SCENES / "tiny.json"),
                 "--out", str(frames), "--seed", "11"]) == 0
    assert main(["process", "--in", str(frames), "--out", str(vel)]) == 0
    assert main(["evaluate", "--est", str(vel), "--truth", str(frames),
                 "--report", str(report)]) == 0
    return frames, vel, report


def test_simulate_writes_expected_tree(pipeline_dirs):
    frames, _, _ = pipeline_dirs
    assert (frames / "manifest.json").exists()
    for f in range(3):
        fdir = frames / f"frame_{f:06d}"
        assert (fdir / "adc.crlv").exists()
        assert (fdir / "lidar_positions.crlv").exists()
        assert (fdir / "gt_velocities.crlv").exists()
        assert (fdir / "flow.crlv").exists() == (f >= 1)


def test_process_estimates_frames(pipeline_dirs, capsys):
    _, vel, _ = pipeline_dirs
    clouds, _ = read_velocity_sequence(vel)
    assert set(clouds) == {1, 2}
    for _, cloud in clouds.values():
        assert len(cloud) == 60
        assert (cloud.status == 0).sum() > 10


@pytest.mark.parametrize("threshold_db", [1.0, 80.0])
def test_process_applies_the_manifest_threshold(pipeline_dirs, tmp_path, threshold_db):
    frames, vel, _ = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["radar"]["threshold_db"] = threshold_db
    (edited / "manifest.json").write_text(json.dumps(manifest))
    assert main(["process", "--in", str(edited), "--out", str(tmp_path / "vel")]) == 0
    got, _ = read_velocity_sequence(tmp_path / "vel")
    at_default, _ = read_velocity_sequence(vel)
    bundles, radar, camera, _ = read_frame_sequence(edited)
    assert radar.threshold_db == threshold_db
    for bundle in bundles[1:]:
        cube = threshold_cube(build_radar_cube(bundle.adc, radar), threshold_db)
        want = estimate_frame(bundle.lidar, collapse_doppler(cube, radar), bundle.flow, camera,
                              FramePair(dt=bundle.flow.dt), ContextWindow())
        assert np.array_equal(got[bundle.frame_index][1].status, want.status)
        assert np.array_equal(got[bundle.frame_index][1].velocities, want.velocities)
    assert any(not np.array_equal(got[i][1].velocities, at_default[i][1].velocities)
               for i in got)


def test_process_prints_per_frame_timing(pipeline_dirs, capsys, tmp_path):
    frames, _, _ = pipeline_dirs
    main(["process", "--in", str(frames), "--out", str(tmp_path / "vel2")])
    out = capsys.readouterr().out
    assert "frame 1:" in out and " ok, " in out and " s" in out


def test_evaluate_report(pipeline_dirs):
    _, _, report = pipeline_dirs
    obj = json.loads(report.read_text())
    assert set(obj) == {"ave", "ave_radial", "ave_tangential",
                       "avae_deg", "avae_weighted_deg", "n_frames"}
    assert obj["ave"] < 0.3
    assert obj["n_frames"] >= 2


def test_plot_speeds_outputs(pipeline_dirs, tmp_path):
    frames, vel, _ = pipeline_dirs
    out_csv = tmp_path / "speeds.csv"
    out_svg = tmp_path / "speeds.svg"
    assert main(["plot-speeds", "--est", str(vel), "--truth", str(frames),
                 "--out-csv", str(out_csv), "--out-svg", str(out_svg)]) == 0
    with open(out_csv) as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert set(rows[0]) == {
        "track_id", "frame_index", "timestamp", "speed_est", "speed_truth",
        "radial_speed_est", "radial_speed_truth",
        "tangential_speed_est", "tangential_speed_truth",
    }
    svg = out_svg.read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg


def test_unknown_scene_file_fails_cleanly(tmp_path, capsys):
    code = main(["simulate", "--scene", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "\n" not in captured.err.rstrip("\n")


def test_corrupt_scene_file_fails_cleanly(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text('{"scatterers": [], "n_frames": 1}')
    code = main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "n_frames" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_scene_fails_cleanly(tmp_path, capsys, bad):
    scene = tmp_path / "scene.json"
    scene.write_text((SCENES / "tiny.json").read_text().replace("[1.8, 0.2, 0.0]",
                                                                f"[1.8, {bad}, 0.0]"))
    assert bad in scene.read_text()
    code = main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "scatterers[0]: non-finite position" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, key, value", BAD_SCENE_FIELDS)
def test_wrong_field_type_scene_fails_cleanly(tmp_path, capsys, block, key, value):
    scene = tmp_path / "scene.json"
    obj = json.loads((SCENES / "tiny.json").read_text())
    scene.write_text(json.dumps(set_scene_field(obj, block, key, value)))
    code = main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}' must be" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_flow_fails_cleanly(pipeline_dirs, tmp_path, capsys):
    frames, _, _ = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    fdir = edited / "frame_000002"
    flow = read_tensor(fdir / "flow.crlv")
    row, col = np.argwhere(read_tensor(fdir / "flow_covered.crlv"))[0]
    flow[row, col, 0] = np.nan
    write_tensor(fdir / "flow.crlv", flow)
    capsys.readouterr()
    code = main(["process", "--in", str(edited), "--out", str(tmp_path / "vel")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "frame_000002: covered pixels must carry finite flow" in err


@pytest.mark.parametrize("command, manifest, key, value", [
    ("process", "frames", "n_frames", "2"),
    ("evaluate", "vel", "frame_indices", 5),
])
def test_bad_manifest_types_fail_cleanly(pipeline_dirs, tmp_path, capsys,
                                         command, manifest, key, value):
    frames, vel, _ = pipeline_dirs
    copies = {"frames": tmp_path / "frames", "vel": tmp_path / "vel"}
    shutil.copytree(frames, copies["frames"])
    shutil.copytree(vel, copies["vel"])
    path = copies[manifest] / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    capsys.readouterr()
    argv = {"process": ["process", "--in", str(copies["frames"]),
                        "--out", str(tmp_path / "out")],
            "evaluate": ["evaluate", "--est", str(copies["vel"]),
                         "--truth", str(copies["frames"]), "--report", str(tmp_path / "r.json")]}
    assert main(argv[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}' must be" in err


def test_evaluate_rejects_missing_truth_frames(pipeline_dirs, tmp_path, capsys):
    _, vel, _ = pipeline_dirs
    short = tmp_path / "short_frames"
    assert main(["simulate", "--scene", str(SCENES / "tiny.json"),
                 "--out", str(tmp_path / "full"), "--seed", "11"]) == 0
    # rebuild a truth directory holding only frames 0 and 1
    import shutil

    shutil.copytree(tmp_path / "full", short)
    shutil.rmtree(short / "frame_000002")
    manifest = json.loads((short / "manifest.json").read_text())
    manifest["n_frames"] = 2
    (short / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["evaluate", "--est", str(vel), "--truth", str(short),
                 "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "frame count mismatch" in err
    assert "2 estimate frames vs 2 truth frames" in err
    assert "[2]" in err


def test_evaluate_rejects_point_count_mismatch(pipeline_dirs, tmp_path, capsys):
    frames, vel, _ = pipeline_dirs
    import shutil

    broken = tmp_path / "vel_broken"
    shutil.copytree(vel, broken)
    fdir = broken / "frame_000001"
    for name in ("positions", "velocities", "status"):
        arr = read_tensor(fdir / f"{name}.crlv")
        write_tensor(fdir / f"{name}.crlv", arr[:-1])
    capsys.readouterr()
    code = main(["evaluate", "--est", str(broken), "--truth", str(frames),
                 "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "59 estimated points vs 60 truth points" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "velofusion.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for word in ("simulate", "process", "evaluate", "plot-speeds"):
        assert word in proc.stdout


def test_simulate_seed_override_changes_data(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for seed, out in (("1", a), ("2", b)):
        assert main(["simulate", "--scene", str(SCENES / "tiny.json"),
                     "--out", str(out), "--seed", seed]) == 0
    ta = read_tensor(a / "frame_000000" / "lidar_positions.crlv")
    tb = read_tensor(b / "frame_000000" / "lidar_positions.crlv")
    assert not np.array_equal(ta, tb)
