"""Canonical scene layouts.

Three viewer architectures — half-mirror combiner, curved-mirror combiner
and the air-mounted eyepiece (screen + lens behind a transmissive mirror
plate) — plus a bare see-through plate and the two bench scenes used for
focus sweeps.  All builders return validated, immutable scenes with the
eye placed and aimed.
"""
from __future__ import annotations

import math

import numpy as np

from .elements import (DEFAULT_MODE_WEIGHTS, HalfMirror, ConvexMirror, Screen,
                       ThinLens, TmdPlate)
from .errors import InvalidGeometry
from .geometry import Pose, vec3
from .scene import (DEFAULT_IMAGE_RES, EyeCamera, HMD_PRESETS, HmdSpec, Scene,
                    camera_pose, make_pattern)

_SQ2 = math.sqrt(0.5)


def _screen(ident, position, normal, extent, pattern, flip, up=(0.0, 1.0, 0.0),
            res=DEFAULT_IMAGE_RES):
    return Screen(ident, Pose.facing(position, normal, up), extent,
                  make_pattern(pattern, res), flip, pattern)


def half_mirror_preset(l1: float, a: float, d: float, *,
                       reflectance: float = 0.5,
                       pattern: str = "checker 8") -> Scene:
    """Half-mirror combiner: eye at the origin looking +z, a 45-degree
    splitter at distance `a`, and an l1-wide screen hung a further `d`
    up the folded axis.  The reflected view spans 2*atan(l1 / (2(a+d))).
    """
    if l1 <= 0 or a <= 0 or d <= 0:
        raise InvalidGeometry("half-mirror layout needs l1, a, d > 0")
    m = 8.0 * (a + l1 + d)
    mirror = HalfMirror("combiner",
                        Pose.facing(vec3(0, 0, a), (0.0, _SQ2, -_SQ2)),
                        (m, m), reflectance)
    screen = _screen("panel", vec3(0, d, a), (0.0, -1.0, 0.0), (l1, l1),
                     pattern, (False, False), up=(0.0, 0.0, 1.0))
    background = _screen("world", vec3(0, 0, a + 1500.0), (0.0, 0.0, -1.0),
                         (20000.0, 20000.0), "uniform 0.2", (False, False))
    eye = EyeCamera("eye", camera_pose(vec3(0, 0, 0), (0.0, 0.0, 1.0)))
    return Scene((mirror, screen), eye, background, "half_mirror")


def convex_mirror_preset(l1: float, a: float, d: float, a_mag: float, *,
                         pattern: str = "checker 8") -> Scene:
    """Curved-combiner layout, unfolded onto the axis: the eye at the origin
    faces the cap at distance `a`; the screen plane sits behind the viewer so
    the mirror-to-screen distance is `d` (hence d > a).  The cap radius comes
    from `a_mag` with the eye as the reference distance.
    """
    if l1 <= 0 or a <= 0 or d <= 0:
        raise InvalidGeometry("curved-mirror layout needs l1, a, d > 0")
    if d <= a:
        raise InvalidGeometry("unfolded layout needs d > a (screen behind the viewer)")
    m = 2.0 * l1 + 20.0
    mirror = ConvexMirror("combiner", Pose.facing(vec3(0, 0, a), (0.0, 0.0, -1.0)),
                          a_mag, (m, m), eye_distance=a)
    screen = _screen("panel", vec3(0, 0, a - d), (0.0, 0.0, 1.0), (l1, l1),
                     pattern, (False, False))
    eye = EyeCamera("eye", camera_pose(vec3(0, 0, 0), (0.0, 0.0, 1.0)))
    return Scene((mirror, screen), eye, None, "convex_mirror")


def tmd_see_through_preset(l1: float, l3: float, d2: float, d4: float, *,
                           pitch: float = 0.0,
                           mode_weights: tuple = DEFAULT_MODE_WEIGHTS,
                           polarizer: bool = False,
                           mirror_ratio: float = 3.0,
                           pattern: str = "checker 8") -> Scene:
    """Bare plate viewer: an l1-wide screen at d2 behind the plate floats as
    an aerial image at d2 in front of it; the eye sits at d4.  The plate
    passes the world straight through, so a dim far background is included.
    """
    if min(l1, l3, d2, d4) <= 0:
        raise InvalidGeometry("see-through layout needs l1, l3, d2, d4 > 0")
    plate = TmdPlate("plate", Pose.identity(), (l3, l3), pitch=pitch,
                     mirror_ratio=mirror_ratio, mode_weights=mode_weights,
                     polarizer=polarizer)
    screen = _screen("panel", vec3(0, 0, -d2), (0.0, 0.0, 1.0), (l1, l1),
                     pattern, (True, True))
    background = _screen("world", vec3(0, 0, -2000.0), (0.0, 0.0, 1.0),
                         (20000.0, 20000.0), "uniform 0.25", (False, False))
    eye = EyeCamera("eye", camera_pose(vec3(0, 0, d4), (0.0, 0.0, -1.0)))
    return Scene((plate, screen), eye, background, "tmd_see_through")


def ame_lens_focal_length(hmd: HmdSpec, screen_width: float) -> float:
    """Eyepiece focal length that spreads the screen across the device FOV."""
    return 0.5 * screen_width / math.tan(0.5 * math.radians(hmd.fov_deg))


def ame_preset(hmd: HmdSpec, d2: float, d4: float, *,
               screen_width: float = 60.0,
               lens_aperture: float = 50.0,
               tmd_size: float = None,
               pitch: float = 0.0,
               mode_weights: tuple = DEFAULT_MODE_WEIGHTS,
               polarizer: bool = False,
               pattern: str = "checker 8") -> Scene:
    """Air-mounted eyepiece: screen + collimating lens at d2 behind the
    plate, eye at d4 in front.  The plate images the lens to d2 on the eye
    side, so with d4 = d2 the eyepiece floats exactly at the eye.

    The lens focal length follows from the device FOV and the screen width;
    the screen sits at the focal plane and is pre-flipped both ways because
    the double reflection inverts the view.
    """
    if d2 <= 0 or d4 <= 0:
        raise InvalidGeometry("air-mounted eyepiece needs d2, d4 > 0")
    if screen_width <= 0 or lens_aperture <= 0:
        raise InvalidGeometry("screen width and lens aperture must be positive")
    l3 = 3.0 * screen_width if tmd_size is None else float(tmd_size)
    if l3 <= 0:
        raise InvalidGeometry("plate size must be positive")
    if lens_aperture > l3:
        raise InvalidGeometry("lens aperture exceeds the plate window")
    f = ame_lens_focal_length(hmd, screen_width)
    aspect = hmd.per_eye_resolution[1] / hmd.per_eye_resolution[0]
    plate = TmdPlate("plate", Pose.identity(), (l3, l3), pitch=pitch,
                     mode_weights=mode_weights, polarizer=polarizer)
    lens = ThinLens("eyepiece", Pose.facing(vec3(0, 0, -d2), (0.0, 0.0, 1.0)),
                    focal_length=f, aperture_diameter=lens_aperture)
    screen = _screen("panel", vec3(0, 0, -(d2 + f)), (0.0, 0.0, 1.0),
                     (screen_width, screen_width * aspect), pattern, (True, True))
    eye = EyeCamera("eye", camera_pose(vec3(0, 0, d4), (0.0, 0.0, -1.0)))
    return Scene((plate, lens, screen), eye, None, f"ame_{hmd.name}")


def defocus_scene(eyepiece: bool, *, pitch: float = 0.0,
                  mode_weights: tuple = (1.0, 0.0, 0.0),
                  pattern: str = "checker 8") -> Scene:
    """Bench scene for focus sweeps: the camera starts focused exactly on
    the aerial image, so sharpness peaks at zero camera offset.

    Without the eyepiece the plate simply mirrors the screen plane itself
    (aerial image at +60).  With it, a short lens forms a magnified
    intermediate image between lens and plate, which the plate then floats
    at +40; the pattern there is twice the bare-screen size.  The camera
    sits at the relay's exit pupil (+160, the double-mirrored lens plane),
    where the whole aerial field is visible unvignetted.
    """
    plate = TmdPlate("plate", Pose.identity(), (150.0, 150.0), pitch=pitch,
                     mode_weights=mode_weights)
    if not eyepiece:
        screen = _screen("panel", vec3(0, 0, -60.0), (0.0, 0.0, 1.0),
                         (40.0, 40.0), pattern, (True, True))
        eye = EyeCamera("camera", camera_pose(vec3(0, 0, 160.0), (0.0, 0.0, -1.0)),
                        focal_length=100.0, aperture_diameter=8.0,
                        sensor=(256, 256, 0.2))
        return Scene((plate, screen), eye, None, "defocus_flat")
    # 40 mm lens, screen 60 mm behind it: real image 120 mm past the lens
    # (magnification -2), i.e. 40 mm short of the plate; aerial image at +40.
    lens = ThinLens("relay", Pose.facing(vec3(0, 0, -160.0), (0.0, 0.0, 1.0)),
                    focal_length=40.0, aperture_diameter=80.0)
    screen = _screen("panel", vec3(0, 0, -220.0), (0.0, 0.0, 1.0),
                     (40.0, 40.0), pattern, (True, True))
    eye = EyeCamera("camera", camera_pose(vec3(0, 0, 160.0), (0.0, 0.0, -1.0)),
                    focal_length=120.0, aperture_diameter=16.0,
                    sensor=(256, 256, 0.35))
    return Scene((plate, lens, screen), eye, None, "defocus_eyepiece")


PRESET_BUILDERS = {
    "half_mirror": lambda: half_mirror_preset(40.0, 20.0, 20.0),
    "convex_mirror": lambda: convex_mirror_preset(8.0, 5.0, 200.0, 1.5),
    "tmd_see_through": lambda: tmd_see_through_preset(40.0, 150.0, 60.0, 60.0,
                                                      pitch=0.5, polarizer=True),
    "ame_dk2": lambda: ame_preset(HMD_PRESETS["dk2"], 40.0, 40.0, tmd_size=120.0),
    "ame_cardboard": lambda: ame_preset(HMD_PRESETS["cardboard"], 40.0, 40.0,
                                        tmd_size=120.0),
    "defocus_flat": lambda: defocus_scene(False),
    "defocus_eyepiece": lambda: defocus_scene(True),
}


def build_preset(name: str) -> Scene:
    try:
        builder = PRESET_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choices: "
                       f"{', '.join(sorted(PRESET_BUILDERS))}") from None
    return builder()
