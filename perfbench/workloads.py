"""The three benchmark workloads.

Each workload builds its inputs once from the seed, then runs one "op" per
loop turn.  An op calls ``pause()`` between its steps (bundles, scenes) so
the runner can take an untimed calibration slice there (see
``calibrate.py``).  An op calls the library's public functions the way the
``trace``, ``render`` and ``sweep`` subcommands of ``tmdsim.cli`` do, hashes
its output and lists anything wrong with it.  Functions are looked up on
their modules at call time (``tracer.trace_bundle``), so the wrappers of
``tracing.Recorder`` see them in a traced run.

Sizes: ``full`` is what the benchmark measures; ``smoke`` is the small
version its own tests run.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tmdsim import geometry, render, tracer
from tmdsim.geometry import Pose, normalize, vec3
from tmdsim.presets import build_preset
from tmdsim.scene import EyeCamera

SIZES = {
    # rays per trace bundle, render side in pixels (None: the scene's own
    # 256 x 256 sensor, else its central side x side window)
    "full": {"rays": 2000, "side": None},
    "smoke": {"rays": 64, "side": 32},
}

TRACE_MAX_BOUNCES = 16
RENDER_RPP = 16
RENDER_WORKERS = 2
SWEEP_RPP = 4
SWEEP_OFFSETS = (10.0, 0.0, -10.0, -20.0)
CONE_HALF_ANGLE_DEG = 2.0

# AME screen plane: d2 + f behind the plate, f from the dk2 field of view
# and the 60 mm screen (presets.ame_lens_focal_length).
_AME_SCREEN_Z = -(40.0 + 30.0 / math.tan(math.radians(55.0)))

# (preset, source, aim point or None for the eye, spot plane z or None for
# the plane through the least-squares focus).
#  - ame_dk2: a screen pixel; the lens collimates it, so the focus lies
#    behind the rays and the spot is taken on the eye plane (z = +40).
#  - tmd_see_through: pitch 0.5 and the polarizer absorb the primary and
#    single-reflection paths.
#  - convex_mirror: a screen point seen in the sphere cap.
#  - half_mirror: aimed at the combiner's centre, so every ray branches.
#    Aiming straight down (axis 0,-1,0) is what the panel's normal
#    suggests, but cone_directions rejects an axis parallel to +-y.
TRACE_BUNDLES = (
    ("ame_dk2", (2.0, -1.5, _AME_SCREEN_Z + 0.5), None, 40.0),
    ("tmd_see_through", (5.0, -3.0, -59.5), None, None),
    ("convex_mirror", (0.5, -0.5, -194.0), None, None),
    ("half_mirror", (1.0, 19.0, 21.0), (0.0, 0.0, 20.0), None),
)
RENDER_PRESETS = ("ame_dk2", "tmd_see_through")
SWEEP_PRESETS = ("defocus_flat", "defocus_eyepiece")


@dataclass
class OpResult:
    digest: str
    problems: list
    bundles: list = field(default_factory=list)  # trace ops only


def _hash_floats(h, values) -> None:
    h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())


def _cropped_camera(camera: EyeCamera, side: int) -> EyeCamera:
    """`camera` with only the central side x side pixels of its sensor.
    The pixel pitch stays, so defocus blur spans as many pixels as in the
    full image and the sweep still peaks at offset 0."""
    return EyeCamera(camera.ident, camera.pose, camera.focal_length,
                     camera.aperture_diameter, (side, side, camera.sensor[2]))


class Workload:
    name = ""
    presets: tuple = ()
    threads = 1        # threads an op runs at once

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.out_dir = out_dir
        self.scenes = {name: build_preset(name) for name in self.presets}

    def _camera(self, scene):
        side = self.size["side"]
        return scene.eye if side is None else _cropped_camera(scene.eye, side)

    def _camera_rays(self, rpp: int) -> int:
        total = 0
        for scene in self.scenes.values():
            w_px, h_px, _ = self._camera(scene).sensor
            total += w_px * h_px * rpp
        return total


class TraceBundles(Workload):
    """Four forward bundles through the scalar tracer, as `tmdsim trace`."""

    name = "trace_bundles"
    presets = tuple(b[0] for b in TRACE_BUNDLES)

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.rays = self.size["rays"]
        self.bundles = []
        for name, source, aim, spot_z in TRACE_BUNDLES:
            scene = self.scenes[name]
            source = vec3(*source)
            target = scene.eye.pose.position if aim is None else vec3(*aim)
            cone = tracer.Cone(normalize(target - source),
                               math.radians(CONE_HALF_ANGLE_DEG))
            self.bundles.append((scene, source, cone, spot_z))
        self.primary_rays = self.rays * len(self.bundles)

    def op(self, pause=lambda: None) -> OpResult:
        h = hashlib.sha256()
        problems = []
        bundles = []
        for i, (scene, source, cone, spot_z) in enumerate(self.bundles):
            if i:
                pause()
            bundle = tracer.trace_bundle(scene, source, self.rays, cone,
                                         seed=self.seed,
                                         max_bounces=TRACE_MAX_BOUNCES,
                                         workers=1)
            rays = tracer.terminal_rays(bundle, None)
            focus, focus_rms = geometry.closest_point_to_rays(rays)
            plane_z = float(focus[2]) if spot_z is None else spot_z
            plane = Pose.facing(vec3(0.0, 0.0, plane_z), vec3(0.0, 0.0, 1.0))
            spot = tracer.spot_diagram(bundle, plane, None)
            stats = bundle.stats
            h.update(json.dumps(stats, sort_keys=True).encode())
            _hash_floats(h, focus)
            _hash_floats(h, [focus_rms, plane_z, spot.rms_radius])
            _hash_floats(h, spot.points)
            if stats["emitted_weight"] != float(self.rays):
                problems.append(f"{scene.name}: emitted weight "
                                f"{stats['emitted_weight']} != {self.rays}")
            if not (np.all(np.isfinite(spot.points))
                    and math.isfinite(spot.rms_radius)
                    and math.isfinite(focus_rms)):
                problems.append(f"{scene.name}: non-finite spot or focus")
            bundles.append(bundle)
        return OpResult(h.hexdigest(), problems, bundles)


class RenderPlate(Workload):
    """Two plate renders with two workers, as `tmdsim render`."""

    name = "render_plate"
    presets = RENDER_PRESETS
    threads = RENDER_WORKERS

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.primary_rays = self._camera_rays(RENDER_RPP)

    def render(self, scene, workers: int):
        return render.render_view(scene, self._camera(scene),
                                  rays_per_pixel=RENDER_RPP, seed=self.seed,
                                  workers=workers)

    def op(self, pause=lambda: None) -> OpResult:
        h = hashlib.sha256()
        problems = []
        for i, scene in enumerate(self.scenes.values()):
            if i:
                pause()
            image = self.render(scene, RENDER_WORKERS)
            sharpness = render.sharpness_metric(image)
            render.write_ppm(image, self.out_dir / f"{scene.name}.ppm")
            h.update(image.pixels.tobytes())
            px = image.pixels
            if not (np.all(np.isfinite(px)) and px.min() >= 0.0
                    and px.max() > 0.0 and sharpness > 0.0):
                problems.append(f"{scene.name}: image is black, negative "
                                f"or non-finite")
        return OpResult(h.hexdigest(), problems)


class SweepDefocus(Workload):
    """Two single-worker defocus sweeps, as `tmdsim sweep --out-dir`."""

    name = "sweep_defocus"
    presets = SWEEP_PRESETS

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.primary_rays = self._camera_rays(SWEEP_RPP) * len(SWEEP_OFFSETS)

    def op(self, pause=lambda: None) -> OpResult:
        h = hashlib.sha256()
        problems = []
        for i, scene in enumerate(self.scenes.values()):
            if i:
                pause()
            sweep = render.defocus_sweep(scene, self._camera(scene),
                                         offsets=SWEEP_OFFSETS,
                                         rays_per_pixel=SWEEP_RPP,
                                         seed=self.seed, workers=1)
            render.write_csv(sweep, self.out_dir / f"{scene.name}.csv")
            _hash_floats(h, sweep.sharpness)
            best = render.best_offset(sweep)
            if best != 0.0:
                problems.append(f"{scene.name}: best offset {best} != 0")
        return OpResult(h.hexdigest(), problems)


def trace_counts(bundles) -> dict:
    """Exact per-op counts from trace bundles' path trees (zeros when the
    op traced none)."""
    segments = paths = 0
    terminals = {k: 0 for k in (tracer.TERMINAL_ABSORBED,
                                tracer.TERMINAL_ESCAPED,
                                tracer.TERMINAL_REACHED_EYE,
                                tracer.TERMINAL_MAX_BOUNCES)}
    for bundle in bundles:
        for root in bundle.paths:
            for path in root.walk():
                paths += 1
                segments += len(path.segments)
                terminals[path.terminal] += 1
    return {"segments": segments, "paths": paths, "terminals": terminals}


WORKLOADS = {w.name: w for w in (TraceBundles, RenderPlate, SweepDefocus)}
