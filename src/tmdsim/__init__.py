"""Geometric-optics toolkit for transmissive-mirror near-eye displays."""

from .design import (LayoutParams, design_report, fov_ame, fov_convex_mirror,
                     fov_half_mirror, resolution_estimate, subtended_angle_deg)
from .elements import (ConvexMirror, HalfMirror, Screen, ThinLens, TmdPlate,
                       classify_tmd_mode)
from .errors import (DegenerateBundle, EmptySpot, InvalidGeometry, IoError,
                     NoIntersection, ParseError, TmdSimError, UsageError,
                     ValidationError)
from .geometry import Pose, Ray, closest_point_to_rays, intersect_plane
from .presets import PRESET_BUILDERS, build_preset
from .render import (Image, SweepResult, best_offset, defocus_sweep,
                     read_ppm, render_view, sharpness_metric, tone_map,
                     write_csv, write_ppm)
from .scene import (EyeCamera, HMD_PRESETS, HmdSpec, Scene, make_pattern,
                    parse_scene, serialize_scene)
from .tracer import (BundleResult, Cone, SpotDiagram, spot_diagram,
                     terminal_rays, trace_bundle, trace_ray)

__version__ = "0.1.0"

__all__ = [
    "BundleResult", "Cone", "ConvexMirror", "DegenerateBundle", "EmptySpot",
    "EyeCamera", "HalfMirror", "HMD_PRESETS", "HmdSpec", "Image",
    "InvalidGeometry", "IoError", "LayoutParams", "NoIntersection",
    "ParseError", "Pose", "PRESET_BUILDERS", "Ray", "Scene",
    "Screen", "SpotDiagram", "SweepResult", "ThinLens", "TmdPlate",
    "TmdSimError", "UsageError", "ValidationError", "best_offset",
    "build_preset", "classify_tmd_mode", "closest_point_to_rays", "defocus_sweep",
    "design_report", "fov_ame", "fov_convex_mirror", "fov_half_mirror",
    "intersect_plane", "make_pattern", "parse_scene", "read_ppm",
    "render_view", "resolution_estimate", "serialize_scene",
    "sharpness_metric", "spot_diagram", "subtended_angle_deg",
    "terminal_rays", "tone_map", "trace_bundle", "trace_ray", "write_csv",
    "write_ppm",
]
