"""Command line front end: simulate / process / evaluate / plot-speeds."""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .cube import build_radar_cube
from .fusion import DEFAULT_COND_BOUND, check_cond_bound, estimate_frame
from .io import (
    FrameBundle,
    load_scene,
    read_frame_sequence,
    write_frame_sequence,
    write_report,
)
from .metrics import (
    EvalFrame,
    build_tracks,
    decompose_radial_tangential,
    evaluate_tracks,
    scored_frames,
)
from .sim import ground_truth_velocities, simulate_adc, synth_flow, synth_lidar
from .types import FramePair
from .velcube import ContextWindow, collapse_doppler


def cmd_simulate(args: argparse.Namespace) -> int:
    scene, radar, camera = load_scene(args.scene)
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)

    def bundles():
        for f in range(scene.n_frames):
            lidar = synth_lidar(scene, f)
            yield FrameBundle(
                frame_index=f,
                timestamp=f * scene.frame_interval,
                adc=simulate_adc(scene, f, radar),
                lidar=lidar,
                flow=synth_flow(scene, f - 1, camera) if f >= 1 else None,
                ground_truth=ground_truth_velocities(scene, lidar),
            )
    n_frames = write_frame_sequence(args.out, bundles(), radar, camera, scene.frame_interval)
    print(f"simulate: wrote {n_frames} frames to {args.out}")
    return 0


def cmd_process(args: argparse.Namespace) -> int:
    # The flags and the output directory are checked before any frame is read.
    window = ContextWindow(args.window_az, args.window_el, args.window_range)
    check_cond_bound(args.cond_bound)
    out = Path(args.out)
    if out.exists() and Path(args.in_dir).exists() and out.samefile(args.in_dir):
        # writing would delete the input's frames before they are read
        raise ValueError(f"--out {args.out} is the --in directory; write the estimates "
                         f"to another directory")
    frames, radar, camera, frame_interval = read_frame_sequence(args.in_dir,
                                                                ("adc", "lidar", "flow"))

    def bundles():
        n_estimated = 0
        for bundle in frames:
            estimate = None
            if bundle.adc is not None and bundle.lidar is not None and bundle.flow is not None:
                start = time.perf_counter()
                vc = collapse_doppler(build_radar_cube(bundle.adc, radar), radar)
                estimate = estimate_frame(bundle.lidar, vc, bundle.flow, camera,
                                          FramePair(bundle.flow.dt), window,
                                          cond_bound=args.cond_bound)
                elapsed = time.perf_counter() - start
                n_ok = int(np.sum(estimate.status == 0))
                print(f"frame {bundle.frame_index}: {len(estimate)} points, {n_ok} ok, "
                      f"{elapsed:.3f} s")
                n_estimated += 1
            yield FrameBundle(bundle.frame_index, bundle.timestamp, estimate=estimate)
        if not n_estimated:
            raise ValueError("no processable frames (a frame needs adc, lidar and flow)")
    n_frames = write_frame_sequence(args.out, bundles(), radar, camera, frame_interval)
    print(f"process: wrote {n_frames} frames to {args.out}")
    return 0


def _eval_frames(est_dir: str, truth_dir: str) -> Iterator[EvalFrame]:
    """Each frame of est_dir that holds an estimate, beside the truth frame of
    the same index, read one frame at a time. read_frame_sequence yields
    frame k k-th, so the two sequences advance in step; truth frames past the
    last estimate frame are not read."""
    estimates, _, _, _ = read_frame_sequence(est_dir, ("estimate",))
    truths, _, _, _ = read_frame_sequence(truth_dir, ("lidar", "ground_truth"))
    n_estimates = n_truths = 0
    for bundle in estimates:
        truth = next(truths, None)
        n_truths += truth is not None
        est, idx = bundle.estimate, bundle.frame_index
        if est is None:
            continue
        if truth is None:
            missing = [idx, *(b.frame_index for b in estimates if b.estimate is not None)]
            raise ValueError(
                f"frame count mismatch: {n_estimates + len(missing)} estimate frames vs "
                f"{n_truths} truth frames (estimate frames {missing} missing from truth)"
            )
        if truth.lidar is None:
            raise ValueError(f"truth frame {idx} has no lidar positions")
        if len(est) != len(truth.lidar):
            raise ValueError(
                f"frame {idx}: {len(est)} estimated points vs {len(truth.lidar)} truth points"
            )
        gt = truth.ground_truth.velocities if truth.ground_truth is not None else None
        n_estimates += 1
        yield EvalFrame(idx, bundle.timestamp, truth.lidar.positions,
                        est.velocities, est.status, gt)
    if not n_estimates:
        raise ValueError(f"{est_dir} holds no estimates (process writes them)")


def cmd_evaluate(args: argparse.Namespace) -> int:
    tracks = build_tracks(_eval_frames(args.est, args.truth), args.eps, args.min_points)
    report = evaluate_tracks(tracks)
    write_report(args.report, report)
    print(
        f"evaluate: {report.n_frames} track-frames, ave {report.ave:.4f} m/s "
        f"(radial {report.ave_radial:.4f}, tangential {report.ave_tangential:.4f}), "
        f"avae {report.avae_deg:.2f} deg (weighted {report.avae_weighted_deg:.2f})"
    )
    return 0


def _speed_rows(tracks) -> list[dict]:
    scored, est, truth, centroids = scored_frames(tracks)
    est_rad, est_tan = decompose_radial_tangential(est, centroids)
    gt_rad, gt_tan = decompose_radial_tangential(truth, centroids)
    # one column per chart series, in _SERIES order
    speeds = np.linalg.norm([est, truth, est_rad, gt_rad, est_tan, gt_tan], axis=-1).T
    # scored_frames keeps build_tracks' order: rows sorted by (track_id, frame_index)
    return [dict(track_id=track_id, frame_index=tf.frame_index, timestamp=tf.timestamp,
                 **dict(zip([key for key, *_ in _SERIES], row.tolist())))
            for (track_id, tf), row in zip(scored, speeds)]


_SERIES = [
    ("speed_est", "speed est", "#1f77b4", None),
    ("speed_truth", "speed truth", "#1f77b4", "6,3"),
    ("radial_speed_est", "radial est", "#d62728", None),
    ("radial_speed_truth", "radial truth", "#d62728", "6,3"),
    ("tangential_speed_est", "tangential est", "#2ca02c", None),
    ("tangential_speed_truth", "tangential truth", "#2ca02c", "6,3"),
]


def _svg_speed_chart(rows: list[dict]) -> str:
    """One stacked panel per track, six speed curves each. No dependencies."""
    track_ids = sorted({r["track_id"] for r in rows})
    width, panel_h, margin = 720, 180, 50
    height = margin + len(track_ids) * (panel_h + margin)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">'
    ]
    # Legend along the top edge.
    x = margin
    for _, label, color, dash in _SERIES:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<line x1="{x}" y1="20" x2="{x + 24}" y2="20" '
                   f'stroke="{color}" stroke-width="2"{dash_attr}/>')
        out.append(f'<text x="{x + 28}" y="24">{label}</text>')
        x += 110
    for p, tid in enumerate(track_ids):
        tr = [r for r in rows if r["track_id"] == tid]
        top = margin + p * (panel_h + margin)
        x0, x1 = min(r["frame_index"] for r in tr), max(r["frame_index"] for r in tr)
        ymax = max(max(r[key] for key, *_ in _SERIES) for r in tr) * 1.1 or 1.0
        span = max(x1 - x0, 1)

        def sx(f: float) -> float:
            return margin + (f - x0) / span * (width - 2 * margin)

        def sy(s: float) -> float:
            return top + panel_h - s / ymax * panel_h

        out.append(f'<rect x="{margin}" y="{top}" width="{width - 2 * margin}" '
                   f'height="{panel_h}" fill="none" stroke="#999"/>')
        out.append(f'<text x="{margin}" y="{top - 6}">track {tid} '
                   f'(speed m/s vs frame)</text>')
        out.append(f'<text x="{margin - 44}" y="{top + 12}">{ymax:.2f}</text>')
        out.append(f'<text x="{margin - 44}" y="{top + panel_h}">0.00</text>')
        out.append(f'<text x="{margin}" y="{top + panel_h + 14}">{x0}</text>')
        out.append(f'<text x="{width - margin - 20}" y="{top + panel_h + 14}">{x1}</text>')
        for key, _, color, dash in _SERIES:
            pts = " ".join(f"{sx(r['frame_index']):.2f},{sy(r[key]):.2f}" for r in tr)
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"{dash_attr}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot_speeds(args: argparse.Namespace) -> int:
    tracks = build_tracks(_eval_frames(args.est, args.truth), args.eps, args.min_points)
    rows = _speed_rows(tracks)
    if not rows:
        raise ValueError("no plottable track frames")
    fields = ["track_id", "frame_index", "timestamp", "speed_est", "speed_truth",
              "radial_speed_est", "radial_speed_truth",
              "tangential_speed_est", "tangential_speed_truth"]
    with open(args.out_csv, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    Path(args.out_svg).write_text(_svg_speed_chart(rows))
    print(f"plot-speeds: {len(rows)} rows over {len({r['track_id'] for r in rows})} "
          f"tracks -> {args.out_csv}, {args.out_svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="velofusion",
        description="Point-wise 3D velocity estimation from synthetic radar, "
                    "LiDAR and optical flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene file into a frame sequence")
    p.add_argument("--scene", required=True, help="scene description (JSON)")
    p.add_argument("--out", required=True, help="output sequence directory")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("process", help="estimate per-point velocities for a sequence")
    p.add_argument("--in", dest="in_dir", required=True, help="input frame sequence")
    p.add_argument("--out", required=True,
                   help="output sequence directory for the estimates (not --in)")
    p.add_argument("--window-az", type=int, default=10, help="context window azimuth bins")
    p.add_argument("--window-el", type=int, default=10, help="context window elevation bins")
    p.add_argument("--window-range", type=int, default=20, help="context window range bins")
    p.add_argument("--cond-bound", type=float, default=DEFAULT_COND_BOUND,
                   help="condition number above which the solve is degenerate")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("evaluate", help="object-wise metrics of estimates vs truth")
    p.add_argument("--est", required=True, help="sequence directory that process wrote")
    p.add_argument("--truth", required=True, help="truth frame sequence directory")
    p.add_argument("--report", required=True, help="metrics report output (JSON)")
    p.add_argument("--eps", type=float, default=0.3, help="clustering radius, m")
    p.add_argument("--min-points", type=int, default=5, help="clustering core threshold")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot-speeds", help="per-track speed curves as CSV and SVG")
    p.add_argument("--est", required=True, help="sequence directory that process wrote")
    p.add_argument("--truth", required=True, help="truth frame sequence directory")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.add_argument("--eps", type=float, default=0.3, help="clustering radius, m")
    p.add_argument("--min-points", type=int, default=5, help="clustering core threshold")
    p.set_defaults(func=cmd_plot_speeds)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        message = " ".join(str(err).split())  # keep the error on one line
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
