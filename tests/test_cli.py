import csv
import json
import shutil
import subprocess
import sys
import tracemalloc
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
    frames_in, radar, camera, _ = read_frame_sequence(edited)
    assert radar.threshold_db == threshold_db
    for bundle in list(frames_in)[1:]:
        cube = threshold_cube(build_radar_cube(bundle.adc, radar), threshold_db)
        want = estimate_frame(bundle.lidar, collapse_doppler(cube, radar), bundle.flow, camera,
                              FramePair(dt=bundle.flow.dt), ContextWindow())
        assert np.array_equal(got[bundle.frame_index][1].status, want.status)
        assert np.array_equal(got[bundle.frame_index][1].velocities, want.velocities)
    assert any(not np.array_equal(got[i][1].velocities, at_default[i][1].velocities)
               for i in got)


def test_process_applies_window_and_cond_bound_flags(pipeline_dirs, tmp_path):
    frames, vel, _ = pipeline_dirs
    assert main(["process", "--in", str(frames), "--out", str(tmp_path / "vel"),
                 "--window-az", "1", "--window-el", "1", "--window-range", "1",
                 "--cond-bound", "5"]) == 0
    got, _ = read_velocity_sequence(tmp_path / "vel")
    at_default, _ = read_velocity_sequence(vel)
    frames_in, radar, camera, _ = read_frame_sequence(frames)
    for bundle in list(frames_in)[1:]:
        vc = collapse_doppler(build_radar_cube(bundle.adc, radar), radar)
        want = estimate_frame(bundle.lidar, vc, bundle.flow, camera,
                              FramePair(dt=bundle.flow.dt), ContextWindow(1, 1, 1), 5.0)
        assert np.array_equal(got[bundle.frame_index][1].status, want.status)
        assert np.array_equal(got[bundle.frame_index][1].velocities, want.velocities)
    assert any(not np.array_equal(got[i][1].status, at_default[i][1].status) for i in got)


@pytest.mark.parametrize("cond_bound", ["nan", "0", "-5"])
def test_process_rejects_a_bad_cond_bound(pipeline_dirs, tmp_path, capsys, cond_bound):
    frames, _, _ = pipeline_dirs
    capsys.readouterr()
    code = main(["process", "--in", str(frames), "--out", str(tmp_path / "vel"),
                 f"--cond-bound={cond_bound}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cond_bound must be >= 1" in err
    assert not (tmp_path / "vel").exists()


@pytest.mark.parametrize("flag, message", [
    ("--cond-bound=nan", "cond_bound must be >= 1, got nan"),
    ("--window-az=0", "azimuth_extent must be an integer >= 1, got 0"),
])
def test_process_rejects_bad_flags_before_reading_frames(pipeline_dirs, tmp_path, capsys,
                                                         flag, message):
    frames, _, _ = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    for f in range(3):
        (edited / f"frame_{f:06d}" / "adc.crlv").write_bytes(b"not a tensor")
    capsys.readouterr()
    code = main(["process", "--in", str(edited), "--out", str(tmp_path / "vel"), flag])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "frame_" not in err
    assert not (tmp_path / "vel").exists()


@pytest.mark.parametrize("command", ["process", "evaluate"])
def test_manifest_with_one_sided_range_fails_cleanly(pipeline_dirs, tmp_path, capsys, command):
    """A sequence written while RadarConfig had one_sided_range is simulated again."""
    frames, vel, _ = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["radar"]["one_sided_range"] = False
    (edited / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    argv = {"process": ["process", "--in", str(edited), "--out", str(out)],
            "evaluate": ["evaluate", "--est", str(vel), "--truth", str(edited),
                         "--report", str(out)]}
    capsys.readouterr()
    assert main(argv[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "manifest.json: radar: unknown keys ['one_sided_range']" in err
    assert not out.exists()


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


def test_evaluation_reads_only_lidar_and_truth(pipeline_dirs, tmp_path, capsys):
    """evaluate and plot-speeds never decode the truth's ADC or flow tensors,
    so damaged ones change nothing there, while process still rejects them."""
    frames, vel, report = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    for f in range(3):
        (edited / f"frame_{f:06d}" / "adc.crlv").write_bytes(b"not a tensor")
    (edited / "frame_000001" / "flow.crlv").unlink()
    flow = edited / "frame_000002" / "flow.crlv"
    flow.write_bytes(flow.read_bytes()[:100])
    assert main(["evaluate", "--est", str(vel), "--truth", str(edited),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_bytes() == report.read_bytes()
    for truth, out in [(frames, tmp_path / "intact"), (edited, tmp_path / "damaged")]:
        assert main(["plot-speeds", "--est", str(vel), "--truth", str(truth),
                     "--out-csv", str(out) + ".csv", "--out-svg", str(out) + ".svg"]) == 0
    for suffix in (".csv", ".svg"):
        assert (Path(str(tmp_path / "damaged") + suffix).read_bytes()
                == Path(str(tmp_path / "intact") + suffix).read_bytes())
    capsys.readouterr()
    assert main(["process", "--in", str(edited), "--out", str(tmp_path / "vel")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "frame_000000" in err and "adc.crlv" in err


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


@pytest.mark.parametrize("key, value, message", [
    ("translation", [0.0, float("nan"), 0.0], "translation must be finite"),
    ("rotation", [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, float("nan")]],
     "rotation: entries must be finite"),
])
def test_non_finite_camera_scene_fails_cleanly(tmp_path, capsys, key, value, message):
    scene = tmp_path / "scene.json"
    obj = json.loads((SCENES / "tiny.json").read_text())
    scene.write_text(json.dumps(set_scene_field(obj, "camera", key, value)))
    assert "NaN" in scene.read_text()
    code = main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_adc_fails_cleanly(pipeline_dirs, tmp_path, capsys, bad):
    frames, _, _ = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    fdir = edited / "frame_000001"
    adc = read_tensor(fdir / "adc.crlv")
    adc[3, 5, 1, 0] = bad
    write_tensor(fdir / "adc.crlv", adc)
    capsys.readouterr()
    code = main(["process", "--in", str(edited), "--out", str(tmp_path / "vel")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "frame_000001: ADC samples must be finite" in err
    assert not (tmp_path / "vel" / "manifest.json").exists()


@pytest.mark.parametrize("value, message", [
    (np.nan, "frame_000001: velocities must be finite"),
    (1e200, "ave must be finite and >= 0"),  # finite, but AVE overflows to inf
])
def test_evaluate_writes_no_report_for_non_finite_values(pipeline_dirs, tmp_path, capsys,
                                                          value, message):
    frames, vel, _ = pipeline_dirs
    edited = tmp_path / "vel"
    shutil.copytree(vel, edited)
    fdir = edited / "frame_000001"
    velocities = read_tensor(fdir / "velocities.crlv")
    ok = np.flatnonzero(read_tensor(fdir / "status.crlv") == 0)[0]
    velocities[ok, 1] = value
    write_tensor(fdir / "velocities.crlv", velocities)
    capsys.readouterr()
    report = tmp_path / "report.json"
    with np.errstate(over="ignore"):
        code = main(["evaluate", "--est", str(edited), "--truth", str(frames),
                     "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert not report.exists()


@pytest.mark.parametrize("command, manifest, key, value", [
    ("process", "frames", "n_frames", "2"),
    ("evaluate", "vel", "n_frames", -1),
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
    assert main(["simulate", "--scene", str(SCENES / "tiny.json"),
                 "--out", str(tmp_path / "full"), "--seed", "11"]) == 0
    # truth directories holding only frames 0 and 1, and only frame 0
    for n_frames, missing in ((2, [2]), (1, [1, 2])):
        short = tmp_path / f"short_{n_frames}"
        shutil.copytree(tmp_path / "full", short)
        for f in range(n_frames, 3):
            shutil.rmtree(short / f"frame_{f:06d}")
        manifest = json.loads((short / "manifest.json").read_text())
        manifest["n_frames"] = n_frames
        (short / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["evaluate", "--est", str(vel), "--truth", str(short),
                     "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert (f"frame count mismatch: 2 estimate frames vs {n_frames} truth frames "
                f"(estimate frames {missing} missing from truth)") in err
        assert not (tmp_path / "r.json").exists()


def test_evaluate_reads_no_truth_past_the_last_estimate(pipeline_dirs, tmp_path):
    """Estimates and truth are read side by side, so truth frames past the
    last estimate frame are never read, however damaged."""
    frames, vel, report = pipeline_dirs
    scene = json.loads((SCENES / "tiny.json").read_text())
    scene["n_frames"] = 5
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    longer = tmp_path / "longer"
    assert main(["simulate", "--scene", str(tmp_path / "scene.json"),
                 "--out", str(longer), "--seed", "11"]) == 0
    for f in (3, 4):
        (longer / f"frame_{f:06d}" / "meta.json").write_text("not json")
    assert main(["evaluate", "--est", str(vel), "--truth", str(longer),
                 "--report", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r.json").read_bytes() == report.read_bytes()


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


@pytest.mark.parametrize("existing", [False, True], ids=["empty-out", "over-a-sequence"])
def test_failed_simulate_leaves_no_manifest(pipeline_dirs, tmp_path, capsys, existing):
    """A scatterer that leaves the radar's field of view at frame 2 fails the
    run after frames 0 and 1 are written; no manifest marks the directory as
    a sequence, also where an older sequence's manifest was."""
    out = tmp_path / "frames"
    if existing:
        shutil.copytree(pipeline_dirs[0], out)
    scene = json.loads((SCENES / "tiny.json").read_text())
    scene["scatterers"][0].update(position=[2.0, 1.2, 0.0], velocity=[0.0, 0.3, 0.0])
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    capsys.readouterr()
    assert main(["simulate", "--scene", str(tmp_path / "scene.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "outside the radar field of view" in err and "at frame 2" in err
    assert not (out / "manifest.json").exists()


def test_failed_process_over_a_sequence_leaves_no_manifest(pipeline_dirs, tmp_path, capsys):
    """A process that fails at frame 2 leaves no manifest where an older
    estimate sequence was."""
    frames, vel, _ = pipeline_dirs
    edited, out = tmp_path / "frames", tmp_path / "vel"
    shutil.copytree(frames, edited)
    shutil.copytree(vel, out)
    (edited / "frame_000002" / "adc.crlv").write_bytes(b"not a tensor")
    capsys.readouterr()
    assert main(["process", "--in", str(edited), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "frame_000002" in err and "adc.crlv" in err
    assert not (out / "manifest.json").exists()


def test_process_without_flow_leaves_no_manifest(pipeline_dirs, tmp_path, capsys):
    """A sequence without flow has no frame to process."""
    frames = tmp_path / "frames"
    shutil.copytree(pipeline_dirs[0], frames)
    for victim in frames.glob("frame_*/flow*.crlv"):
        victim.unlink()
    capsys.readouterr()
    assert main(["process", "--in", str(frames), "--out", str(tmp_path / "vel")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no processable frames" in err
    assert not (tmp_path / "vel" / "manifest.json").exists()


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_simulate_replaces_a_longer_sequence(tmp_path):
    scene = json.loads((SCENES / "tiny.json").read_text())
    scene["n_frames"] = 6
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    out = tmp_path / "frames"
    assert main(["simulate", "--scene", str(tmp_path / "scene.json"), "--out", str(out)]) == 0
    assert main(["simulate", "--scene", str(SCENES / "tiny.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "frame_000000", "frame_000001", "frame_000002", "manifest.json"]


def test_process_replaces_a_frame_sequence(pipeline_dirs, tmp_path):
    """Estimates written over a simulate output leave none of its tensors,
    and they evaluate as the estimates written into an empty directory do."""
    frames, vel, report = pipeline_dirs
    out = tmp_path / "vel"
    shutil.copytree(frames, out)
    assert main(["process", "--in", str(frames), "--out", str(out)]) == 0
    assert _tree(out) == _tree(vel)
    assert main(["evaluate", "--est", str(out), "--truth", str(frames),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_bytes() == report.read_bytes()


@pytest.mark.parametrize("spelling", ["same", "dot-dot", "symlink"])
def test_process_rejects_out_equal_to_in(pipeline_dirs, tmp_path, capsys, spelling):
    frames, _, _ = pipeline_dirs
    seq = tmp_path / "frames"
    shutil.copytree(frames, seq)
    before = _tree(seq)
    out = {"same": seq, "dot-dot": tmp_path / "frames" / ".." / "frames",
           "symlink": tmp_path / "link"}[spelling]
    if spelling == "symlink":
        out.symlink_to(seq, target_is_directory=True)
    capsys.readouterr()
    assert main(["process", "--in", str(seq), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "is the --in directory" in captured.err
    assert captured.out == ""
    assert _tree(seq) == before


def test_process_decodes_no_ground_truth(pipeline_dirs, tmp_path):
    frames, vel, _ = pipeline_dirs
    edited = tmp_path / "frames"
    shutil.copytree(frames, edited)
    for victim in edited.glob("frame_*/gt_velocities.crlv"):
        victim.write_bytes(b"not a tensor")
    assert main(["process", "--in", str(edited), "--out", str(tmp_path / "vel")]) == 0
    assert _tree(tmp_path / "vel") == _tree(vel)


def test_evaluate_rejects_a_sequence_without_estimates(pipeline_dirs, tmp_path, capsys):
    frames, _, _ = pipeline_dirs
    capsys.readouterr()
    assert main(["evaluate", "--est", str(frames), "--truth", str(frames),
                 "--report", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "holds no estimates" in err
    assert not (tmp_path / "r.json").exists()


def _peak_bytes(argv: list[str]) -> int:
    """The tracemalloc peak of one CLI command."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commands_memory_does_not_grow_with_frames(tmp_path, capsys):
    """Every command holds one frame at a time, so eight times the frames
    stays within 1.5x the peak. The frames are dense (600 points) and the
    movers move apart, so every frame costs the same to cluster."""
    scene = json.loads((SCENES / "tiny.json").read_text())
    scene["lidar_points_per_scatterer"] = 300
    scene["scatterers"][1]["velocity"] = [0.0, -0.25, 0.0]
    peaks = {}
    for n_frames in (3, 24):
        base = tmp_path / str(n_frames)
        base.mkdir()
        scene["n_frames"] = n_frames
        (base / "scene.json").write_text(json.dumps(scene))
        frames, vel = str(base / "frames"), str(base / "vel")
        evaluate = ["evaluate", "--est", vel, "--truth", frames,
                    "--report", str(base / "report.json")]
        plot = ["plot-speeds", "--est", vel, "--truth", frames,
                "--out-csv", str(base / "speeds.csv"), "--out-svg", str(base / "speeds.svg")]
        peaks[n_frames] = [
            _peak_bytes(["simulate", "--scene", str(base / "scene.json"), "--out", frames]),
            _peak_bytes(["process", "--in", frames, "--out", vel]),
        ]
        if n_frames == 3:
            # Warm-up runs, so that what a command allocates only on its first
            # call in a process does not count toward the 3-frame peak.
            assert main(evaluate) == 0 and main(plot) == 0
        peaks[n_frames] += [_peak_bytes(evaluate), _peak_bytes(plot)]
    for command, small, large in zip(("simulate", "process", "evaluate", "plot-speeds"),
                                     peaks[3], peaks[24]):
        assert large <= 1.5 * small, f"{command}: {small} B at 3 frames, {large} B at 24"
