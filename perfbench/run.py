"""velofusion benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

A run sets up the workload several times (import, inputs, one warm-up
pair), then repeats a pass over the workload's sequence until --seconds is
used up, and checks every pass's outputs. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates traced and untraced passes and reports the per-layer
metrics. The line before it holds the environment, digests, sample counts
and failure accounting. The exit code is 1 when a check fails.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("crowd", "cli_roundtrip")
SETUP_REPEATS = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMER_NOTE = ("only process-level timers (time.perf_counter wall clock) are available: no "
              "hardware counters and no cache control, so cube flops and bytes are computed "
              "from array shapes, not measured")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = nproc
    return {name: nproc for name in THREAD_VARIABLES}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With 21 samples or fewer no sample above the median has ten beyond it,
    and the middle sample (the upper one of an even count) is reported
    instead, so the figure never reads below the median and moves smoothly
    with the sample count. The percentile is the share of samples at or
    below the value.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def environment(caps: dict[str, str], seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "thread_caps": caps,
        "seed": seed,
        "timers": TIMER_NOTE,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Harness:
    """Set-up, timed passes and checks of one workload in this process."""

    def __init__(self, workload: str, seed: int, small: bool = False,
                 import_s: float = 0.0) -> None:
        import workloads as w
        self.w = w
        self.workload = workload
        self.seed = seed
        self.small = small
        self.import_s = import_s
        self.workdir: Path | None = None
        self.scene_path: Path | None = None
        self.inputs = None
        self.expect = {
            # The acceptance bounds of the demo scene; about a third of its
            # points are OK.
            "cli_roundtrip": w.Expect(tracks=3, ave_max=0.12, avae_weighted_max=10.0,
                                      ok_fraction_min=0.25),
            # The window rule mixes up neighbouring movers: AVE is 0.44-0.55 m/s
            # and 12-37 % of points are OK, depending on size and seed. An
            # estimator that returns zero velocity scores the mean speed,
            # 0.63-0.66 m/s, so the AVE bound lies between the two.
            "crowd": w.Expect(tracks=w.CROWD_MOVERS, ave_max=0.6, avae_weighted_max=90.0,
                              ok_fraction_min=0.1),
        }[workload]

    def setup_once(self) -> float:
        w = self.w
        start = time.perf_counter()
        if self.workload == "cli_roundtrip":
            self.inputs = w.cli_inputs(self.seed, self.small)
            self.scene_path = self.workdir / "scene.json"
            w.write_cli_scene(self.inputs, self.scene_path)
            w.cli_warm_up(self.inputs, self.workdir)
        else:
            self.inputs = w.crowd_inputs(self.seed, self.small)
            w.warm_up(self.inputs)
        return time.perf_counter() - start

    def one_pass(self, tracer=None):
        gc.collect()  # start every pass without the previous pass's garbage
        if self.workload == "cli_roundtrip":
            return self.w.run_cli(self.inputs, self.scene_path, self.workdir, tracer)
        return self.w.run_pipeline(self.inputs, tracer)

    def run(self, seconds: float, trace: bool) -> dict:
        """Set up, repeat passes for `seconds`, check them and compute the metrics."""
        from tracing import Tracer
        scratch = ROOT / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            self.workdir = Path(tmp)
            setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
            untraced, traced = [], []
            start = time.perf_counter()
            while True:
                n = len(untraced) + len(traced)
                if trace and n % 2 == 0:
                    tracer = Tracer()
                    traced.append((tracer, self.one_pass(tracer)))
                else:
                    untraced.append(self.one_pass())
                n += 1
                elapsed = time.perf_counter() - start
                if n >= (2 if trace else 1) and elapsed + elapsed / n > seconds:
                    break
            reference = None
            if self.workload == "cli_roundtrip":
                reference = self.w.run_pipeline(self.inputs)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
        return self.summarise(setups, untraced, traced, reference)

    def check(self, passes, reference) -> list[str]:
        first = passes[0]
        problems = []
        for i, p in enumerate(passes):
            problems += [f"pass {i}: {msg}"
                         for msg in self.w.check_pass(p, self.inputs, self.expect)]
            if (p.digest_frames, p.digest_report) != (first.digest_frames, first.digest_report):
                problems.append(f"pass {i}: outputs differ from pass 0 on the same inputs")
        if reference is not None:
            problems += [f"in-process reference: {msg}"
                         for msg in self.w.check_pass(reference, self.inputs, self.expect)]
            if (reference.digest_frames, reference.digest_report) != \
                    (first.digest_frames, first.digest_report):
                problems.append("CLI outputs differ from the in-process pipeline")
        return problems

    def summarise(self, setups, untraced, traced, reference) -> dict:
        from tracing import layer_metrics
        passes = untraced + [p for _, p in traced]
        first = passes[0]
        simulate_ms = [x for p in untraced for x in p.simulate_ms]
        process_ms = [x for p in untraced for x in p.process_ms]
        tail_ms, tail_pct = tail(process_ms) if process_ms else (0.0, 100.0)
        e2e = {
            "setup_s": self.import_s + statistics.median(setups),
            "e2e_s": statistics.median(p.e2e_s for p in untraced),
            "simulate_pair_p50_ms": statistics.median(simulate_ms) if simulate_ms else 0.0,
            "process_pair_p50_ms": statistics.median(process_ms) if process_ms else 0.0,
            "process_pair_tail_ms": tail_ms,
            "process_points_per_s": (
                sum(p.ops_attempted - p.status.get("RAISED", 0) for p in untraced)
                / max(sum(p.process_s for p in untraced), 1e-12)),
            "evaluate_s": statistics.median(p.evaluate_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ave_mps": first.report.get("ave", 0.0),
            "avae_weighted_deg": first.report.get("avae_weighted_deg", 0.0),
            "ok_fraction": first.status.get("OK", 0) / first.ops_attempted,
        }
        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "passes": len(untraced),
            "traced_passes": len(traced),
            "samples": {
                "setup_s": len(setups), "e2e_s": len(untraced), "evaluate_s": len(untraced),
                "simulate_pair_p50_ms": len(simulate_ms), "process_pair_p50_ms": len(process_ms),
                "process_pair_tail_ms": len(process_ms),
                "process_points_per_s": len(untraced),
            },
            "process_pair_tail_percentile": tail_pct,
            "pairs_per_pass": len(self.inputs.pairs),
            "points_per_frame": self.inputs.points_per_frame,
            "digest_frames": first.digest_frames,
            "digest_report": first.digest_report,
            "ops_attempted": first.ops_attempted,
            "ops_failed": first.ops_failed,
            "status": first.status,
            "report": first.report,
            "problems": self.check(passes, reference),
        }
        result = {
            "correct": not summary["problems"],
            "attempted": sum(p.pairs_attempted for p in passes),
            "failed": sum(p.pairs_failed for p in passes),
            "e2e": e2e,
            "summary": summary,
        }
        if traced:
            layers = [layer_metrics(tracer) for tracer, _ in traced]
            per_layer = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
            traced_e2e = statistics.median(p.e2e_s for _, p in traced)
            top = statistics.median(tracer.top_level_s() for tracer, _ in traced)
            per_layer.update({
                "ops_attempted": float(first.ops_attempted),
                "ops_failed": float(first.ops_failed),
                "trace.e2e_s": traced_e2e,
                "trace.untraced_e2e_s": e2e["e2e_s"],
                "trace.overhead_s": traced_e2e - e2e["e2e_s"],
                "trace.top_level_s": top,
                "trace.residual_s": traced_e2e - top,
            })
            result["per_layer"] = per_layer
            result["spans"] = [tracer.spans for tracer, _ in traced]
        return result


def write_spans(path: Path, traces: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for rep, spans in enumerate(traces):
            origin = min((s.start for s in spans if s is not None), default=0.0)
            for index, s in enumerate(spans):
                f.write(json.dumps({"pass": rep, "id": index, "name": s.name,
                                    "start": s.start - origin, "end": s.end - origin,
                                    "parent": s.parent, "pair": s.pair}) + "\n")


def metric_block(values: dict[str, float], spec: list[dict]) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def print_table(metrics: dict, samples: dict) -> None:
    for name, m in metrics.items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}{count}")


def run_one(args, caps: dict[str, str]) -> int:
    if not (ROOT / "src" / "velofusion").is_dir() or not (ROOT / "scenes" / "demo.json").is_file():
        print(f"error: no velofusion source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import velofusion  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - start

    spec = load_spec()
    harness = Harness(args.workload, args.seed, import_s=import_s)
    result = harness.run(args.seconds, bool(args.trace))
    summary = result["summary"]
    summary["environment"] = environment(caps, args.seed)
    if args.trace:
        metrics = metric_block(result["per_layer"], spec["per_layer"])
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, result["spans"])
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
        summary["trace_note"] = ("per-layer values are medians over traced passes; "
                                 "trace.overhead_s = traced e2e_s - untraced e2e_s; "
                                 "trace.residual_s = traced e2e_s - busy time of top-level spans")
    else:
        metrics = metric_block(result["e2e"], spec["end_to_end"])
    print_table(metrics, summary["samples"] if not args.trace else {})
    for problem in summary["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.stderr.strip():
            print(proc.stderr.strip(), file=sys.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, cap_threads())


if __name__ == "__main__":
    sys.exit(main())
