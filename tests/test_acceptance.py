"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL line so the whole battery can be read at a glance with `pytest -s
tests/test_acceptance.py`.
"""
import io as std_io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from velofusion.cli import main
from velofusion.cube import RadarConfig, RadarCube, bin_to_physical, build_radar_cube, threshold_cube
from velofusion.fusion import estimate_frame, solve_velocities
from velofusion.io import FormatError, load_scene, read_tensor, write_tensor
from velofusion.metrics import EvalFrame, avae, ave, build_tracks, evaluate_tracks
from velofusion.sim import Scatterer, SceneConfig, ground_truth_velocities, simulate_adc, synth_flow, synth_lidar
from velofusion.types import FramePair
from velofusion.velcube import ContextWindow, collapse_doppler, window_coverage

from helpers import random_rotation

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _report(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {state}{suffix}")
    assert ok, f"{name}{suffix}"


def test_radar_chain_accuracy():
    """Random single scatterers land on the right cube voxel."""
    cfg = RadarConfig()
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_bins = 0.0
    worst_vel = 0.0
    for _ in range(20):
        r = rng.uniform(0.4, 5.6)
        az = rng.uniform(-1, 1) * (cfg.azimuth_fov / 2 - cfg.azimuth_bin_width)
        el = rng.uniform(-1, 1) * (cfg.elevation_fov / 2 - cfg.elevation_bin_width)
        v = rng.uniform(-1, 1) * (cfg.max_speed - cfg.speed_resolution)
        unit = np.array([
            np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el),
        ])
        scene = SceneConfig(
            scatterers=(Scatterer(tuple(r * unit), tuple(v * unit)),),
            noise_floor=0.0,
        )
        cube = build_radar_cube(simulate_adc(scene, 0, cfg), cfg)
        rb, ab, eb, db = np.unravel_index(np.argmax(cube.magnitudes), cube.magnitudes.shape)
        got_r, got_az, got_el, got_v = bin_to_physical(rb, ab, eb, db, cfg)
        worst_bins = max(
            worst_bins,
            abs(got_r - r) / cfg.range_resolution,
            abs(got_az - az) / cfg.azimuth_bin_width,
            abs(got_el - el) / cfg.elevation_bin_width,
        )
        vc = collapse_doppler(cube, cfg)
        assert vc.valid[rb, ab, eb]
        worst_vel = max(worst_vel, abs(vc.velocity[rb, ab, eb] - v))
    elapsed = time.perf_counter() - start
    ok = worst_bins <= 1.0 + 1e-9 and worst_vel <= cfg.speed_resolution / 2 + 1e-9 \
        and elapsed < 10.0
    _report(
        "radar chain accuracy (20 random scatterers)", ok,
        f"worst bin error {worst_bins:.3f}, worst radial velocity error "
        f"{worst_vel:.4f} m/s, {elapsed:.1f} s",
    )


def test_closed_form_round_trip():
    """1000 noise-free constraint inversions recover the exact velocity."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    done = 0
    start = time.perf_counter()
    while done < 1000:
        rot = random_rotation(rng, max_angle=np.radians(10.0))
        dt = rng.uniform(0.02, 0.2)
        truth = rng.uniform(-2.0, 2.0, 3)
        q = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(1.0, 8.0)])
        p = q - dt * (rot @ truth)
        if p[2] < 0.2:
            continue
        u_p, v_p = p[0] / p[2], p[1] / p[2]
        los = rot.T @ q
        r_hat = los / np.linalg.norm(los)
        m = np.vstack([rot[0] - u_p * rot[2], rot[1] - v_p * rot[2], r_hat])
        if np.linalg.cond(m) >= 1e4:
            continue
        # One point; an unsolved one reads zero velocity and fails the bound.
        vel = solve_velocities((u_p, v_p), q, r_hat, [float(r_hat @ truth)],
                               FramePair(rot, dt))[0][0]
        worst = max(worst, np.linalg.norm(vel - truth) / max(np.linalg.norm(truth), 1e-30))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _report(
        "closed-form round trip (1000 draws)", ok,
        f"worst relative error {worst:.2e}, {elapsed:.2f} s",
    )


def test_end_to_end_pipeline():
    """Three objects (static, radial, tangential) tracked at SNR 20 dB."""
    scene, cfg, camera = load_scene(SCENES / "demo.json")
    start = time.perf_counter()
    frames = []
    for f in range(1, scene.n_frames):
        cloud = synth_lidar(scene, f)
        cube = threshold_cube(build_radar_cube(simulate_adc(scene, f, cfg), cfg),
                              cfg.threshold_db)
        vc = collapse_doppler(cube, cfg)
        flow = synth_flow(scene, f - 1, camera)
        est = estimate_frame(cloud, vc, flow, camera, FramePair(dt=scene.frame_interval))
        gt = ground_truth_velocities(scene, cloud)
        frames.append(EvalFrame(f, f * scene.frame_interval, est.positions,
                                est.velocities, est.status, gt.velocities))
    tracks = build_tracks(frames, eps=0.3, min_points=5)
    report = evaluate_tracks(tracks)
    elapsed = time.perf_counter() - start
    ok = (
        len(tracks) == 3
        and all(len(t.frames) == scene.n_frames - 1 for t in tracks)
        and report.ave <= 0.12
        and report.avae_weighted_deg <= 10.0
        and elapsed < 60.0
    )
    _report(
        "end-to-end synthetic pipeline (49 frame pairs, 3 objects)", ok,
        f"ave {report.ave:.4f} m/s, weighted avae {report.avae_weighted_deg:.2f} deg, "
        f"{elapsed:.1f} s",
    )


def test_threshold_concentrates_returns():
    """Uniform noise 10 dB under the peak is removed by the 5 dB threshold."""
    cfg = RadarConfig()
    r_true, az_true = 3.0016, np.radians(10.0)
    unit = np.array([np.cos(az_true), np.sin(az_true), 0.0])
    scene = SceneConfig(
        scatterers=(Scatterer(tuple(r_true * unit), tuple(0.9 * unit)),),
        noise_floor=0.0,
    )
    cube = build_radar_cube(simulate_adc(scene, 0, cfg), cfg)
    rng = np.random.default_rng(31415)
    peak = float(cube.magnitudes.max())
    noisy = cube.magnitudes + rng.uniform(
        0.0, peak * 10 ** (-10 / 20), size=cube.magnitudes.shape
    ).astype(np.float32)
    vc = collapse_doppler(threshold_cube(RadarCube(noisy), cfg.threshold_db), cfg)
    rb_true = round(r_true / cfg.range_resolution)
    ab_true = cfg.n_azimuth_bins // 2 + round(az_true / cfg.azimuth_bin_width)
    valid_r, valid_a, _ = np.nonzero(vc.valid)
    ok = (
        len(valid_r) > 0
        and np.all(np.abs(valid_r - rb_true) <= 3)
        and np.all(np.abs(valid_a - ab_true) <= 3)
    )
    spread = (
        f"{len(valid_r)} valid voxels, range bins "
        f"{valid_r.min()}..{valid_r.max()} (true {rb_true}), azimuth bins "
        f"{valid_a.min()}..{valid_a.max()} (true {ab_true})"
    ) if len(valid_r) else "no valid voxels"
    _report("thresholding concentrates returns (noise 10 dB below peak)", ok, spread)


def _brute_ave(est, truth):
    total = 0.0
    for e, g in zip(est, truth):
        total += math.sqrt(sum((a - b) ** 2 for a, b in zip(e, g)))
    return total / len(est)


def _brute_avae(est, truth, weighted):
    angles, weights = [], []
    for e, g in zip(est, truth):
        ne = math.sqrt(sum(v * v for v in e))
        ng = math.sqrt(sum(v * v for v in g))
        if ne < 1e-6 or ng < 1e-6:
            continue
        cos = sum(a * b for a, b in zip(e, g)) / (ne * ng)
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
        weights.append(ng if weighted else 1.0)
    return sum(a * w for a, w in zip(angles, weights)) / sum(weights)


def test_metric_oracles():
    """AVE/AVAE agree with a pure-Python recomputation; hand example exact."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        est = rng.uniform(-3, 3, (n, 3))
        truth = rng.uniform(-3, 3, (n, 3))
        truth[rng.random(n) < 0.1] = 0.0  # exercise the zero-truth exclusion
        pairs = [
            (ave(est, truth), _brute_ave(est.tolist(), truth.tolist())),
            (avae(est, truth), _brute_avae(est.tolist(), truth.tolist(), False)),
            (avae(est, truth, weighted=True), _brute_avae(est.tolist(), truth.tolist(), True)),
        ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    # angles 30 and 90 degrees with truth speeds 2 and 1
    est = np.array([[math.sqrt(3) / 2, 0.5, 0.0], [1.0, 0.0, 0.0]])
    truth = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    hand_plain = avae(est, truth)
    hand_weighted = avae(est, truth, weighted=True)
    ok = worst < 1e-12 and abs(hand_plain - 60.0) < 1e-9 and abs(hand_weighted - 50.0) < 1e-9
    _report(
        "metric oracles (100 random instances + hand example)", ok,
        f"worst relative difference {worst:.2e}, hand example "
        f"{hand_plain:.6f}/{hand_weighted:.6f} deg",
    )


def test_window_coverage_figures():
    """Default 10 x 10 x 20 bin window spans 20 deg x 50 deg x 0.938 m."""
    az, el, rng_m = window_coverage(RadarConfig(), ContextWindow())
    az_deg, el_deg = np.degrees(az), np.degrees(el)
    ok = (
        abs(az_deg - 20.0) <= 0.05
        and abs(el_deg - 50.0) <= 0.05
        and abs(rng_m - 0.938) <= 0.0005
    )
    _report(
        "context window coverage", ok,
        f"{az_deg:.2f} deg x {el_deg:.2f} deg x {rng_m:.4f} m",
    )


def _run_cli_chain(base: Path) -> dict[str, bytes]:
    frames = base / "frames"
    vel = base / "vel"
    assert main(["simulate", "--scene", str(SCENES / "tiny.json"),
                 "--out", str(frames), "--seed", "3"]) == 0
    assert main(["process", "--in", str(frames), "--out", str(vel)]) == 0
    assert main(["evaluate", "--est", str(vel), "--truth", str(frames),
                 "--report", str(base / "report.json")]) == 0
    assert main(["plot-speeds", "--est", str(vel), "--truth", str(frames),
                 "--out-csv", str(base / "speeds.csv"),
                 "--out-svg", str(base / "speeds.svg")]) == 0
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*")) if p.is_file()
    }


def test_determinism_and_fuzzing(tmp_path):
    """Seeded CLI runs are bit-identical; corrupt files fail in order."""
    tree_a = _run_cli_chain(tmp_path / "a")
    tree_b = _run_cli_chain(tmp_path / "b")
    identical = set(tree_a) == set(tree_b) and all(
        tree_a[k] == tree_b[k] for k in tree_a
    )

    base_arr = np.arange(20, dtype=np.float32).reshape(4, 5)
    buf = std_io.BytesIO()
    write_tensor(buf, base_arr)
    base = buf.getvalue()
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    n_errors = n_ok = 0
    crashed = None
    for _ in range(10_000):
        data = bytearray(base)
        op = rng.integers(0, 4)
        if op == 0:
            data = data[: int(rng.integers(0, len(data)))]
        elif op == 1:
            for i in rng.integers(0, len(data), size=int(rng.integers(1, 9))):
                data[int(i)] ^= int(rng.integers(1, 256))
        elif op == 2:
            data += bytes(rng.integers(0, 256, size=int(rng.integers(1, 17))).tolist())
        else:
            pos = int(rng.integers(0, 64))
            n = int(rng.integers(1, 9))
            for i in range(pos, min(pos + n, len(data))):
                data[i] = int(rng.integers(0, 256))
        try:
            read_tensor(std_io.BytesIO(bytes(data)))
            n_ok += 1
        except FormatError:
            n_errors += 1
        except Exception as err:  # anything else counts as a crash
            crashed = repr(err)
            break
    fuzz_elapsed = time.perf_counter() - start

    # a few directory-level corruptions on the real artifacts
    import shutil
    from velofusion.io import read_frame_sequence

    structured = True
    seq = tmp_path / "a" / "frames"
    for mutate in (
        lambda d: (d / "manifest.json").unlink(),
        lambda d: (d / "manifest.json").write_text("{not json"),
        lambda d: (d / "frame_000001" / "adc.crlv").write_bytes(b"CRLVxx"),
        lambda d: (d / "frame_000000" / "meta.json").write_text(json.dumps({"timestamp": 0})),
    ):
        victim = tmp_path / "victim"
        shutil.copytree(seq, victim)
        mutate(victim)
        try:
            read_frame_sequence(victim)
            structured = False
        except FormatError:
            pass
        except Exception:
            structured = False
        shutil.rmtree(victim)

    ok = (
        identical
        and crashed is None
        and n_errors > 1000
        and structured
        and fuzz_elapsed < 60.0
    )
    _report(
        "determinism and format robustness", ok,
        f"trees identical: {identical}, fuzz: {n_errors} structured errors / "
        f"{n_ok} clean reads in {fuzz_elapsed:.1f} s"
        + (f", crash: {crashed}" if crashed else ""),
    )
