"""Command line front end.

Subcommands:
  design   closed-form field-of-view and resolution figures
  trace    forward ray bundle from a point source, spot statistics
  render   image seen by the scene's eye camera, written as PPM
  sweep    defocus series: renders at several camera offsets plus a CSV
  presets  list, print, or write the built-in scenes

Exit codes: 0 success, 2 bad usage or unparsable input, 3 invalid
geometry, 4 empty or degenerate ray statistics, 5 file I/O failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .design import LayoutParams, design_report
from .errors import (DegenerateBundle, EmptySpot, InvalidGeometry, IoError,
                     ParseError, UsageError, ValidationError)
from .geometry import Pose, closest_point_to_rays, normalize, vec3
from .presets import PRESET_BUILDERS, build_preset
from .render import (best_offset, defocus_sweep, render_view, sharpness_metric,
                     write_csv, write_ppm)
from .scene import HMD_PRESETS, parse_scene, serialize_scene
from .tracer import Cone, spot_diagram, terminal_rays, trace_bundle

EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_EMPTY = 4
EXIT_IO = 5


def _parse_triplet(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    try:
        v = vec3(*(float(p) for p in parts))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in {text!r}") from None
    if not np.isfinite(v).all():
        raise argparse.ArgumentTypeError(f"expected finite numbers in {text!r}")
    return v


def _parse_half_angle(text: str) -> float:
    try:
        deg = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < math.radians(deg) <= math.pi:  # as cone_directions checks
        raise argparse.ArgumentTypeError(f"half angle must lie in (0, 180] "
                                         f"degrees, got {text!r}")
    return deg


def _parse_offsets(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad offset list {text!r}") from None


def _add_scene_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scene", nargs="?", help="scene file path")
    sub.add_argument("--preset", help="built-in scene name (see `presets`)")


def _load_scene(args, parser: argparse.ArgumentParser):
    if bool(args.scene) == bool(args.preset):
        parser.error("give a scene file or --preset, not both or neither")
    if args.preset:
        try:
            return build_preset(args.preset)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    try:
        with open(args.scene, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {args.scene}: {exc}") from None
    return parse_scene(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tmdsim",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("design", help="closed-form design figures")
    p.add_argument("--hmd", choices=sorted(HMD_PRESETS), default="dk2")
    p.add_argument("--l1", type=float, default=60.0, help="flat panel width, mm")
    p.add_argument("--l2", type=float, default=math.inf,
                   help="eyepiece aperture, mm (default: unbounded)")
    p.add_argument("--l3", type=float, default=120.0, help="plate window, mm")
    p.add_argument("--a", type=float, default=30.0, help="eye to combiner, mm")
    p.add_argument("--d", type=float, default=30.0, help="combiner to panel, mm")
    p.add_argument("--d2", type=float, default=40.0, help="plate to eyepiece, mm")
    p.add_argument("--d4", type=float, default=40.0, help="eye to plate, mm")
    p.add_argument("--a-mag", type=float, default=1.5,
                   help="convex combiner angular magnification")
    p.add_argument("--pitch", type=float, default=0.0, help="plate pitch, mm")
    p.add_argument("--csv", help="also write the report as CSV")

    p = subs.add_parser("trace", help="forward bundle and spot statistics")
    _add_scene_args(p)
    p.add_argument("--source", type=_parse_triplet, required=True,
                   help="point source position x,y,z in mm")
    p.add_argument("--axis", type=_parse_triplet,
                   help="cone axis x,y,z (default: toward the eye)")
    p.add_argument("--half-angle", type=_parse_half_angle, default=2.0,
                   help="cone half angle, degrees")
    p.add_argument("--rays", type=int, default=128)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-bounces", type=int, default=16)
    p.add_argument("--workers", type=int)
    p.add_argument("--spot-plane", type=float, metavar="Z",
                   help="z of the spot plane (default: through the focus)")
    p.add_argument("--mode", default="any",
                   choices=["any", "primary", "double_reflect",
                            "single_reflect", "pass_through"],
                   help="restrict statistics to rays with this history")
    p.add_argument("--csv", help="write spot points as u_mm,v_mm rows")

    p = subs.add_parser("render", help="render the eye view to a PPM file")
    _add_scene_args(p)
    p.add_argument("--out", required=True, help="output .ppm path")
    p.add_argument("--rpp", type=int, default=16, help="rays per pixel")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-bounces", type=int, default=12)
    p.add_argument("--workers", type=int)

    p = subs.add_parser("sweep", help="defocus sweep with sharpness scores")
    _add_scene_args(p)
    p.add_argument("--offsets", type=_parse_offsets, default=(10.0, 0.0, -10.0, -20.0),
                   help="comma separated camera offsets in mm")
    p.add_argument("--rpp", type=int, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir", help="write one PPM per offset plus sweep.csv")

    p = subs.add_parser("presets", help="list or export built-in scenes")
    p.add_argument("name", nargs="?", help="preset to print")
    p.add_argument("--out", help="write the scene file here instead of stdout")
    return parser


def _cmd_design(args) -> int:
    params = LayoutParams(l1=args.l1, l2=args.l2, l3=args.l3, a=args.a,
                          d=args.d, d2=args.d2, d4=args.d4, a_mag=args.a_mag)
    if args.l1 <= 0 or args.l3 <= 0 or args.a <= 0 or args.d <= 0 \
            or args.d2 <= 0 or args.d4 <= 0 or args.l2 <= 0:
        print("design: lengths must be positive", file=sys.stderr)
        return EXIT_USAGE
    report = design_report(HMD_PRESETS[args.hmd], params, pitch=args.pitch)
    for key, value in report.lines():
        print(f"{key},{value}")
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
    return 0


def _cmd_trace(args, parser) -> int:
    scene = _load_scene(args, parser)
    if args.rays <= 0:
        parser.error("--rays must be positive")
    axis = args.axis
    if axis is None:
        axis = scene.eye.pose.position - args.source
    axis = normalize(axis)
    cone = Cone(axis, math.radians(args.half_angle))
    bundle = trace_bundle(scene, args.source, args.rays, cone,
                          seed=args.seed, max_bounces=args.max_bounces,
                          workers=args.workers)
    stats = bundle.stats
    print(f"rays,{args.rays}")
    print(f"emitted_weight,{stats['emitted_weight']:.9g}")
    for name in sorted(stats["terminals"]):
        print(f"terminal_{name},{stats['terminals'][name]}")
    for name in sorted(stats["mode_weight"]):
        print(f"weight_{name},{stats['mode_weight'][name]:.9g}")
    mode = None if args.mode == "any" else args.mode
    rays = terminal_rays(bundle, mode)
    focus, focus_rms = closest_point_to_rays(rays)
    print(f"focus_x_mm,{focus[0]:.9g}")
    print(f"focus_y_mm,{focus[1]:.9g}")
    print(f"focus_z_mm,{focus[2]:.9g}")
    print(f"focus_rms_mm,{focus_rms:.9g}")
    plane_z = args.spot_plane if args.spot_plane is not None else float(focus[2])
    plane = Pose.facing(vec3(0.0, 0.0, plane_z), vec3(0.0, 0.0, 1.0))
    print(f"spot_plane_z_mm,{plane_z:.9g}")
    try:
        spot = spot_diagram(bundle, plane, mode)
    except EmptySpot:
        if args.spot_plane is not None:
            raise
        # auto plane sits behind a diverging bundle; report it as empty
        spot = None
    print(f"spot_points,{0 if spot is None else len(spot.points)}")
    print(f"spot_rms_mm,{'nan' if spot is None else format(spot.rms_radius, '.9g')}")
    if args.csv:
        rows = ["u_mm,v_mm"]
        if spot is not None:
            rows += [f"{u:.9g},{v:.9g}" for u, v in spot.points]
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


def _cmd_render(args, parser) -> int:
    scene = _load_scene(args, parser)
    if args.rpp <= 0:
        parser.error("--rpp must be positive")
    image = render_view(scene, rays_per_pixel=args.rpp, seed=args.seed,
                        max_bounces=args.max_bounces, workers=args.workers)
    write_ppm(image, args.out)
    print(f"wrote,{args.out}")
    print(f"sharpness,{sharpness_metric(image):.9g}")
    return 0


def _cmd_sweep(args, parser) -> int:
    scene = _load_scene(args, parser)
    if args.rpp <= 0:
        parser.error("--rpp must be positive")
    if not args.offsets:
        parser.error("--offsets must not be empty")
    keep = args.out_dir is not None
    sweep = defocus_sweep(scene, offsets=args.offsets, rays_per_pixel=args.rpp,
                          seed=args.seed, keep_images=keep, workers=args.workers)
    for off, s in zip(sweep.offsets, sweep.sharpness):
        print(f"{off:.9g},{s:.9g}")
    print(f"best_offset_mm,{best_offset(sweep):.9g}")
    if keep:
        os.makedirs(args.out_dir, exist_ok=True)
        for off, img in zip(sweep.offsets, sweep.images):
            write_ppm(img, os.path.join(args.out_dir, f"offset_{off:+g}mm.ppm"))
        write_csv(sweep, os.path.join(args.out_dir, "sweep.csv"))
    return 0


def _cmd_presets(args, parser) -> int:
    if args.name is None:
        for name in PRESET_BUILDERS:
            print(name)
        return 0
    try:
        scene = build_preset(args.name)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    text = serialize_scene(scene)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote,{args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "design":
            return _cmd_design(args)
        if args.command == "trace":
            return _cmd_trace(args, parser)
        if args.command == "render":
            return _cmd_render(args, parser)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        return _cmd_presets(args, parser)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidGeometry, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (EmptySpot, DegenerateBundle) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
