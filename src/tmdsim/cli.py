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
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .design import LayoutParams, design_report
from .errors import (DegenerateBundle, EmptySpot, InvalidGeometry, IoError,
                     ParseError, UsageError, ValidationError, read_bytes,
                     write_bytes)
from .geometry import (Pose, closest_point_to_rays, normalize,
                       require_magnitude, vec3)
from .presets import PRESET_BUILDERS, build_preset
from .render import (MAX_RPP, best_offset, defocus_sweep, render_view,
                     sharpness_metric, write_csv, write_ppm)
from .scene import HMD_PRESETS, parse_scene, serialize_scene
from .tracer import MAX_RAYS, Cone, spot_diagram, terminal_rays, trace_bundle

# The errors main() reports, each with its exit code (see the module
# docstring); the first match wins.
EXIT_CODES = {ParseError: 2, UsageError: 2, InvalidGeometry: 3,
              ValidationError: 3, EmptySpot: 4, DegenerateBundle: 4,
              IoError: 5, OSError: 5}
# The count flags of `trace`, `render` and `sweep` (a command checks those
# it takes, in this order), each with its upper limit or None.
_COUNT_LIMITS = (("--rays", MAX_RAYS), ("--rpp", MAX_RPP), ("--max-bounces", None))


def _parse_number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _parse_finite(text: str) -> float:
    x = _parse_number(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _parse_aperture(text: str) -> float:
    """A finite number, or inf for an unbounded aperture."""
    x = _parse_number(text)
    return x if x == math.inf else _parse_finite(text)


def _parse_triplet(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    return vec3(*(_parse_finite(p) for p in parts))


def _parse_half_angle(text: str) -> float:
    deg = _parse_number(text)
    if not 0.0 < math.radians(deg) <= math.pi:  # as cone_directions checks
        raise argparse.ArgumentTypeError(f"half angle must lie in (0, 180] "
                                         f"degrees, got {text!r}")
    return deg


def _parse_offsets(text: str) -> tuple:
    return tuple(_parse_finite(p) for p in text.split(","))


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
    blob = read_bytes(args.scene)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(blob.count(b"\n", 0, exc.start) + 1,
                         f"byte {blob[exc.start]:#04x} is not UTF-8 text") from None
    return parse_scene(text)


def _check_counts(args, parser: argparse.ArgumentParser) -> None:
    """Exit 2 on a count argument below 1 or above its limit."""
    for flag, limit in _COUNT_LIMITS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        if value <= 0:
            parser.error(f"{flag} must be positive")
        if limit is not None and value > limit:
            parser.error(f"{flag} must be at most {limit}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tmdsim",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("design", help="closed-form design figures")
    p.add_argument("--hmd", choices=sorted(HMD_PRESETS), default="dk2")
    p.add_argument("--l1", type=_parse_finite, default=60.0,
                   help="flat panel width, mm")
    p.add_argument("--l2", type=_parse_aperture, default=math.inf,
                   help="eyepiece aperture, mm (default: inf, unbounded)")
    p.add_argument("--l3", type=_parse_finite, default=120.0, help="plate window, mm")
    p.add_argument("--a", type=_parse_finite, default=30.0, help="eye to combiner, mm")
    p.add_argument("--d", type=_parse_finite, default=30.0,
                   help="combiner to panel, mm")
    p.add_argument("--d2", type=_parse_finite, default=40.0,
                   help="plate to eyepiece, mm")
    p.add_argument("--d4", type=_parse_finite, default=40.0, help="eye to plate, mm")
    p.add_argument("--a-mag", type=_parse_finite, default=1.5,
                   help="convex combiner angular magnification")
    p.add_argument("--pitch", type=_parse_finite, default=0.0, help="plate pitch, mm")
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
    p.add_argument("--spot-plane", type=_parse_finite, metavar="Z",
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
    # A value that starts like a negative number (-5,-3,-60 or -1e6, not
    # only -5) follows its flag as one: no option here looks like a number.
    for p in subs.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _cmd_design(args) -> int:
    params = LayoutParams(l1=args.l1, l2=args.l2, l3=args.l3, a=args.a,
                          d=args.d, d2=args.d2, d4=args.d4, a_mag=args.a_mag)
    if min(args.l1, args.l2, args.l3, args.a, args.d, args.d2, args.d4) <= 0:
        raise UsageError("design lengths must be positive")
    report = design_report(HMD_PRESETS[args.hmd], params, pitch=args.pitch)
    for key, value in report.lines():
        print(f"{key},{value}")
    if args.csv:
        write_bytes(args.csv, report.to_csv().encode("ascii"))
    return 0


def _cmd_trace(args, scene) -> int:
    if args.spot_plane is not None:
        require_magnitude("spot plane z", args.spot_plane)
    axis = scene.eye.pose.position - args.source if args.axis is None else args.axis
    try:
        axis = normalize(axis)
    except ValueError:
        if args.axis is not None:
            raise UsageError("--axis must be a nonzero vector") from None
        raise UsageError("--source sits on the eye, so the cone has no "
                         "default axis; give --axis") from None
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
        write_bytes(args.csv, ("\n".join(rows) + "\n").encode("ascii"))
    return 0


def _cmd_render(args, scene) -> int:
    image = render_view(scene, rays_per_pixel=args.rpp, seed=args.seed,
                        max_bounces=args.max_bounces, workers=args.workers)
    write_ppm(image, args.out)
    print(f"wrote,{args.out}")
    print(f"sharpness,{sharpness_metric(image):.9g}")
    return 0


def _cmd_sweep(args, scene) -> int:
    keep = args.out_dir is not None
    names = [f"offset_{off:+g}mm.ppm" for off in args.offsets]
    if keep and len(set(names)) < len(names):
        raise UsageError("--out-dir would write two offsets to one image "
                         "name (the names keep 6 significant digits)")
    sweep = defocus_sweep(scene, offsets=args.offsets, rays_per_pixel=args.rpp,
                          seed=args.seed, keep_images=keep, workers=args.workers)
    for off, s in zip(sweep.offsets, sweep.sharpness):
        print(f"{off:.9g},{s:.9g}")
    print(f"best_offset_mm,{best_offset(sweep):.9g}")
    if keep:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot write {args.out_dir}: {exc}") from None
        for name, img in zip(names, sweep.images):
            write_ppm(img, os.path.join(args.out_dir, name))
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
        write_bytes(args.out, text.encode("utf-8"))
        print(f"wrote,{args.out}")
    else:
        sys.stdout.write(text)
    return 0


# The commands that run on a scene: main loads it and checks the counts
# first, so a scene error comes before a count error.
_RUNS = {"trace": _cmd_trace, "render": _cmd_render, "sweep": _cmd_sweep}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _RUNS:
            scene = _load_scene(args, parser)
            _check_counts(args, parser)
            return _RUNS[args.command](args, scene)
        if args.command == "design":
            return _cmd_design(args)
        return _cmd_presets(args, parser)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
