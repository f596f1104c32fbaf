"""Tests of the benchmark itself, each workload at its smallest size.

Run from the repository root:  python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import velofusion.cli  # noqa: E402
import velofusion.fusion  # noqa: E402
import velofusion.metrics  # noqa: E402
import velofusion.sim  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {
    "setup_s": "s", "e2e_s": "s", "simulate_pair_p50_ms": "ms", "process_pair_p50_ms": "ms",
    "process_pair_tail_ms": "ms", "process_points_per_s": "points/s", "evaluate_s": "s",
    "peak_rss_mb": "MB", "ave_mps": "m/s", "avae_weighted_deg": "deg", "ok_fraction": "ratio",
}
PER_LAYER = [
    "sim.simulate_adc.busy_s", "sim.simulate_adc.calls", "sim.simulate_adc.voxel_writes",
    "sim.synth_flow.busy_s", "sim.synth_flow.points", "sim.synth_flow.covered_px",
    "sim.synth_lidar.busy_s",
    "cube.build_radar_cube.busy_s", "cube.build_radar_cube.flops_computed",
    "cube.build_radar_cube.bytes_computed", "cube.build_radar_cube.gflops_per_s",
    "cube.threshold_cube.busy_s", "cube.threshold_cube.keep_ratio",
    "velcube.collapse_doppler.busy_s", "velcube.collapse_doppler.valid_voxels",
    "velcube.collapse_doppler.valid_ratio",
    "fusion.estimate_frame.busy_s", "fusion.estimate_frame.self_s",
    "fusion.estimate_frame.points", "fusion.estimate_frame.points_per_s",
    "velcube.query_radial_velocity.busy_s", "velcube.query_radial_velocity.calls",
    "velcube.query_radial_velocity.found_ratio",
    "fusion.solve_full_velocity.busy_s", "fusion.solve_full_velocity.calls",
    "fusion.solve_full_velocity.degenerate",
    *(f"fusion.status.{name}" for name in tracing.STATUS_NAMES),
    "metrics.build_tracks.busy_s", "metrics.build_tracks.self_s",
    "metrics.cluster_points.busy_s", "metrics.cluster_points.calls",
    "metrics.cluster_points.points", "metrics.cluster_points.noise_points",
    "metrics.evaluate_tracks.busy_s",
    *(f"io.{op}_tensor.{m}" for op in ("write", "read") for m in ("busy_s", "calls", "bytes")),
    *(f"io.{op}_frame_sequence.{m}" for op in ("write", "read") for m in ("busy_s", "self_s")),
    "io.write_velocity_sequence.busy_s", "io.read_velocity_sequence.busy_s",
    "cli.simulate.busy_s", "cli.process.busy_s", "cli.evaluate.busy_s",
    "ops_attempted", "ops_failed", "trace.overhead_s", "trace.residual_s",
]


def run_small(workload: str, seed: int, trace: bool = False) -> dict:
    harness = bench.Harness(workload, seed, small=True)
    return harness.run(seconds=0.0, trace=trace)


def test_spec_names_every_required_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert set(PER_LAYER) <= {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    result = run_small(workload, seed=1, trace=True)
    assert result["correct"], result["summary"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    e2e = bench.metric_block(result["e2e"], SPEC["end_to_end"])
    layers = bench.metric_block(result["per_layer"], SPEC["per_layer"])
    assert {k: v["unit"] for k, v in e2e.items()} == END_TO_END
    for name, metric in {**e2e, **layers}.items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    assert all(m["value"] > 0 for m in e2e.values())
    summary = result["summary"]
    assert summary["ops_attempted"] == sum(summary["status"].values())
    assert layers["ops_attempted"]["value"] == summary["ops_attempted"]
    assert sum(layers[f"fusion.status.{s}"]["value"] for s in tracing.STATUS_NAMES) == \
        summary["ops_attempted"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_digest_repeats_per_seed(workload):
    first, again, other = (run_small(workload, seed)["summary"] for seed in (1, 1, 2))
    assert (first["digest_frames"], first["digest_report"]) == \
        (again["digest_frames"], again["digest_report"])
    assert first["digest_frames"] != other["digest_frames"]
    assert first["digest_report"] != other["digest_report"]


def _inputs(workload: str):
    make = {"crowd": workloads.crowd_inputs, "cli_roundtrip": workloads.cli_inputs}[workload]
    return make(1, small=True), bench.Harness(workload, 1, small=True).expect


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_zero_velocity_estimator_fails_the_checks(workload, monkeypatch):
    inputs, expect = _inputs(workload)
    estimate_frame = velofusion.fusion.estimate_frame

    def zero_velocities(*args, **kwargs):
        est = estimate_frame(*args, **kwargs)
        return dataclasses.replace(est, velocities=np.zeros_like(est.velocities))

    assert workloads.check_pass(workloads.run_pipeline(inputs), inputs, expect) == []
    monkeypatch.setattr(velofusion.fusion, "estimate_frame", zero_velocities)
    problems = workloads.check_pass(workloads.run_pipeline(inputs), inputs, expect)
    assert any(p.startswith("AVE ") for p in problems), problems


def _raise_key_error(*args, **kwargs):
    raise KeyError("injected")


@pytest.mark.parametrize("target", [(velofusion.sim, "simulate_adc"),
                                    (velofusion.metrics, "build_tracks")])
def test_raising_stage_is_counted_and_the_pass_completes(target, monkeypatch):
    inputs, expect = _inputs("crowd")
    monkeypatch.setattr(*target, _raise_key_error)
    p = workloads.run_pipeline(inputs)
    assert p.errors and workloads.check_pass(p, inputs, expect)
    if target[1] == "simulate_adc":
        assert p.pairs_failed == len(inputs.pairs)
        assert p.status == {"RAISED": p.ops_attempted} and p.ops_failed == p.ops_attempted


def test_raising_command_fails_every_pair_of_the_pass(tmp_path, monkeypatch):
    inputs, expect = _inputs("cli_roundtrip")
    monkeypatch.setattr(velofusion.cli, "main", _raise_key_error)
    p = workloads.run_cli(inputs, tmp_path / "scene.json", tmp_path)
    assert p.pairs_failed == len(inputs.pairs) and p.status == {"RAISED": p.ops_attempted}
    assert workloads.check_pass(p, inputs, expect)


def _velofusion_attributes() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "velofusion" or name.startswith("velofusion.")
            for attr, value in vars(module).items() if callable(value)}


def test_traced_run_restores_every_wrapped_attribute():
    import velofusion.fusion
    before = _velofusion_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert velofusion.fusion.query_radial_velocity is not \
                before[("velofusion.fusion", "query_radial_velocity")]
            raise RuntimeError("leave the block early")
    assert _velofusion_attributes() == before

    result = run_small("cli_roundtrip", seed=1, trace=True)
    assert result["per_layer"]["io.read_tensor.calls"] > 0
    assert _velofusion_attributes() == before
    n_spans = [len(spans) for spans in result["spans"]]
    run_small("crowd", seed=1)
    assert [len(spans) for spans in result["spans"]] == n_spans


def test_absent_target_gives_absent_span_not_a_crash():
    targets = (tracing.Target("velofusion.fusion", "no_such_function", "fusion.gone"),
               tracing.Target("velofusion.no_such_module", "f", "gone.f"))
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        pass
    assert tracer.spans == []
    assert tracing.layer_metrics(tracer)["fusion.estimate_frame.busy_s"] == 0.0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span("a", 0.0, 10.0, -1, 1), tracing.Span("b", 2.0, 5.0, 0, 1),
                    tracing.Span("b", 6.0, 7.0, 0, 1), tracing.Span("c", 3.0, 4.0, 1, 1)]
    values = tracer.layer_values()
    assert values["a.busy_s"] == 10.0 and values["a.self_s"] == 6.0
    assert values["b.busy_s"] == 4.0 and values["b.self_s"] == 3.0
    assert values["b.calls"] == 2
    assert tracer.top_level_s() == 10.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert bench.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert bench.tail([float(i) for i in range(20)]) == (10.0, 55.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
