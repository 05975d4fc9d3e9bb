"""Scene description: element container, eye camera, device table and the
plain-text scene file format.

A scene file is a sequence of blocks::

    eye <id> {
      position = 0 0 60
      look = 0 0 -1
      up = 0 1 0
      focal_length = 100.0
      aperture = 4.0
      sensor = 256 256 0.5
    }
    element tmd <id> {
      position = 0 0 0
      normal = 0 0 1
      extent = 120 120
      pitch = 0.5
      weights = 0.6 0.3 0.1
      polarizer = true
    }
    element screen <id> { ... }
    background <id> { ... }

`#` starts a comment.  Keys take one value each (a number, `true`/`false`,
or a fixed-length tuple of numbers); unknown keys and malformed lines raise
ParseError with the line number.  Units are millimeters and degrees.
Serialization writes keys alphabetically so files diff cleanly, and
parse(serialize(scene)) reproduces every numeric field to 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .elements import (DEFAULT_MODE_WEIGHTS, DEFAULT_REFLECTANCE, Absorber,
                       ConvexMirror, HalfMirror, Screen, ThinLens, TmdPlate)
from .errors import InvalidGeometry, ParseError, ValidationError
from .geometry import Pose, normalize, orthonormal_frame, require_finite

DEFAULT_SENSOR = (256, 256, 0.5)
DEFAULT_IMAGE_RES = 64


@dataclass(frozen=True)
class HmdSpec:
    """Display device parameters used by the design calculator."""

    name: str
    fov_deg: float
    resolution: tuple
    per_eye_resolution: tuple

    def __post_init__(self):
        if not 0 < self.fov_deg < 180:
            raise InvalidGeometry("device FOV must lie in (0, 180) degrees")
        for r in (self.resolution, self.per_eye_resolution):
            if len(r) != 2 or r[0] <= 0 or r[1] <= 0:
                raise InvalidGeometry("device resolutions must be positive pairs")


# Built-in devices.
HMD_PRESETS = {
    "cardboard": HmdSpec("cardboard", 90.0, (1280, 800), (640, 800)),
    "dk2": HmdSpec("dk2", 110.0, (1920, 1080), (960, 1080)),
}


def camera_pose(position, look, up=(0.0, 1.0, 0.0)) -> Pose:
    """Pose for something that looks along `look`; its w axis points backwards."""
    return Pose(np.asarray(position, dtype=np.float64),
                orthonormal_frame(-normalize(look), up))


@dataclass(frozen=True)
class EyeCamera:
    """Thin-lens viewer.  Looks along its -w axis; the focus plane sits at
    `focal_length` in front, and `sensor` is (width_px, height_px, pitch_mm).
    """

    ident: str
    pose: Pose
    focal_length: float = 100.0
    aperture_diameter: float = 4.0
    sensor: tuple = DEFAULT_SENSOR

    def __post_init__(self):
        require_finite("camera focal length", self.focal_length)
        require_finite("camera aperture", self.aperture_diameter)
        require_finite("camera sensor", self.sensor)
        if self.focal_length <= 0:
            raise InvalidGeometry("camera focal length must be positive")
        if self.aperture_diameter <= 0:
            raise InvalidGeometry("camera aperture must be positive")
        w, h, p = self.sensor
        if int(w) <= 0 or int(h) <= 0 or float(p) <= 0:
            raise InvalidGeometry("camera sensor must be positive (w, h, pitch)")
        object.__setattr__(self, "sensor", (int(w), int(h), float(p)))

    @property
    def look(self) -> np.ndarray:
        return -self.pose.normal


@dataclass(frozen=True)
class Scene:
    """Immutable element container plus exactly one eye."""

    elements: tuple
    eye: EyeCamera
    background: Optional[Screen] = None
    name: str = "scene"

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        idents = [e.ident for e in self.surfaces] + [self.eye.ident]
        dupes = {i for i in idents if idents.count(i) > 1}
        if dupes or "" in idents:
            raise ValidationError(f"element identifiers must be unique and non-empty "
                                  f"(duplicates: {sorted(dupes)})")

    @property
    def surfaces(self) -> tuple:
        """Everything a ray can hit: the elements, then the background."""
        if self.background is None:
            return self.elements
        return self.elements + (self.background,)

    def element(self, ident: str):
        for e in self.elements:
            if e.ident == ident:
                return e
        raise KeyError(ident)


def make_pattern(spec: str, res: int = DEFAULT_IMAGE_RES) -> np.ndarray:
    """Build a named test image: `uniform [v]`, `checker [n]`, `hgrad`,
    `vstep` (bright top half) or `spot` (bright centre square)."""
    parts = str(spec).split()
    if not parts:
        raise ValueError("empty pattern spec")
    name = parts[0]
    if name == "uniform":
        value = float(parts[1]) if len(parts) > 1 else 1.0
        if value < 0:
            raise ValueError("uniform pattern value must be non-negative")
        return np.full((res, res), value)
    if name == "checker":
        n = int(parts[1]) if len(parts) > 1 else 8
        if n <= 0 or n > res:
            raise ValueError(f"checker cell count {n} not in 1..{res}")
        idx = np.arange(res) * n // res
        return ((idx[:, None] + idx[None, :]) % 2).astype(np.float64)
    if name == "hgrad":
        col = np.linspace(0.0, 1.0, res)
        return np.tile(col, (res, 1))
    if name == "vstep":
        img = np.zeros((res, res))
        img[: res // 2, :] = 1.0
        return img
    if name == "spot":
        img = np.zeros((res, res))
        q = res // 4
        img[q: res - q, q: res - q] = 1.0
        return img
    raise ValueError(f"unknown pattern {name!r}")


# ---------------------------------------------------------------------------
# Parsing

_TRUE, _FALSE = "true", "false"


def _tokens(value: str):
    return value.split()


def _as_float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(line, f"expected a number, got {tok!r}") from None


def _as_count(tok: str, line: int) -> int:
    value = _as_float(tok, line)
    if not math.isfinite(value):
        raise ParseError(line, f"expected a count, got {tok!r}")
    return int(value)


def _take_floats(keys, name, line, count, default=None):
    if name not in keys:
        if default is None:
            raise ParseError(line, f"missing required key {name!r}")
        return default
    toks, vline = keys.pop(name)
    if len(toks) != count:
        raise ParseError(vline, f"{name} expects {count} value(s), got {len(toks)}")
    vals = tuple(_as_float(t, vline) for t in toks)
    return vals if count > 1 else vals[0]


def _take_bool(keys, name, line, default=False):
    if name not in keys:
        return default
    toks, vline = keys.pop(name)
    if len(toks) != 1 or toks[0] not in (_TRUE, _FALSE):
        raise ParseError(vline, f"{name} expects true or false")
    return toks[0] == _TRUE


def _take_bools(keys, name, line, count, default):
    if name not in keys:
        return default
    toks, vline = keys.pop(name)
    if len(toks) != count or any(t not in (_TRUE, _FALSE) for t in toks):
        raise ParseError(vline, f"{name} expects {count} true/false value(s)")
    return tuple(t == _TRUE for t in toks)


def _take_pose(keys, line) -> Pose:
    position = _take_floats(keys, "position", line, 3, (0.0, 0.0, 0.0))
    norm = _take_floats(keys, "normal", line, 3, (0.0, 0.0, 1.0))
    up = _take_floats(keys, "up", line, 3, (0.0, 1.0, 0.0))
    # Non-finite numbers are invalid geometry, not a bad orientation.
    require_finite("position", position)
    require_finite("orientation", norm + up)
    try:
        return Pose.facing(position, norm, up)
    except (InvalidGeometry, ValueError) as exc:
        raise ParseError(line, f"bad orientation: {exc}") from None


def _take_image(keys, line):
    """Returns (grid, spec) from either a named pattern or inline data."""
    if "image_data" in keys:
        toks, vline = keys.pop("image_data")
        keys.pop("image", None)
        keys.pop("image_res", None)
        if len(toks) < 3:
            raise ParseError(vline, "image_data needs: rows cols v0 v1 ...")
        rows, cols = _as_count(toks[0], vline), _as_count(toks[1], vline)
        vals = [_as_float(t, vline) for t in toks[2:]]
        if rows <= 0 or cols <= 0 or len(vals) != rows * cols:
            raise ParseError(vline, f"image_data expects {rows}x{cols} samples")
        return np.array(vals).reshape(rows, cols), None
    spec = "checker 8"
    if "image" in keys:
        toks, vline = keys.pop("image")
        spec = " ".join(toks)
    else:
        vline = line
    res = _take_floats(keys, "image_res", line, 1, float(DEFAULT_IMAGE_RES))
    try:
        return make_pattern(spec, int(res)), spec
    except (ValueError, OverflowError) as exc:
        raise ParseError(vline, str(exc)) from None


def _build_screen(ident, keys, line) -> Screen:
    pose = _take_pose(keys, line)
    extent = _take_floats(keys, "extent", line, 2)
    image, spec = _take_image(keys, line)
    flip = _take_bools(keys, "flip", line, 2, (False, False))
    brightness = _take_floats(keys, "brightness", line, 1, 1.0)
    return Screen(ident, pose, extent, image * brightness, flip, spec)


def _build_element(kind, ident, keys, line):
    if kind == "screen":
        return _build_screen(ident, keys, line)
    if kind == "tmd":
        return TmdPlate(
            ident, _take_pose(keys, line),
            _take_floats(keys, "extent", line, 2),
            pitch=_take_floats(keys, "pitch", line, 1, TmdPlate.pitch),
            mirror_ratio=_take_floats(keys, "mirror_ratio", line, 1,
                                      TmdPlate.mirror_ratio),
            mode_weights=_take_floats(keys, "weights", line, 3, DEFAULT_MODE_WEIGHTS),
            polarizer=_take_bool(keys, "polarizer", line),
            angular_fill=_take_bool(keys, "angular_fill", line))
    if kind == "half_mirror":
        return HalfMirror(
            ident, _take_pose(keys, line),
            _take_floats(keys, "extent", line, 2),
            reflectance=_take_floats(keys, "reflectance", line, 1, DEFAULT_REFLECTANCE))
    if kind == "convex_mirror":
        return ConvexMirror(
            ident, _take_pose(keys, line),
            a_mag=_take_floats(keys, "a_mag", line, 1, 1.0),
            extent=_take_floats(keys, "extent", line, 2),
            eye_distance=_take_floats(keys, "eye_distance", line, 1))
    if kind == "lens":
        housing = _take_floats(keys, "housing", line, 2, (0.0, 0.0))
        return ThinLens(
            ident, _take_pose(keys, line),
            focal_length=_take_floats(keys, "focal_length", line, 1),
            aperture_diameter=_take_floats(keys, "aperture", line, 1),
            housing_extent=housing if housing != (0.0, 0.0) else None)
    if kind == "absorber":
        return Absorber(ident, _take_pose(keys, line),
                        _take_floats(keys, "extent", line, 2))
    raise ParseError(line, f"unknown element kind {kind!r}")


def _build_eye(ident, keys, line) -> EyeCamera:
    position = _take_floats(keys, "position", line, 3, (0.0, 0.0, 0.0))
    look = _take_floats(keys, "look", line, 3, (0.0, 0.0, -1.0))
    up = _take_floats(keys, "up", line, 3, (0.0, 1.0, 0.0))
    sensor = _take_floats(keys, "sensor", line, 3, tuple(map(float, DEFAULT_SENSOR)))
    require_finite("eye position", position)
    require_finite("eye orientation", look + up)
    try:
        pose = camera_pose(position, look, up)
    except (InvalidGeometry, ValueError) as exc:
        raise ParseError(line, f"bad eye orientation: {exc}") from None
    return EyeCamera(ident, pose,
                     focal_length=_take_floats(keys, "focal_length", line, 1,
                                               EyeCamera.focal_length),
                     aperture_diameter=_take_floats(keys, "aperture", line, 1,
                                                    EyeCamera.aperture_diameter),
                     sensor=sensor)


def parse_scene(text: str) -> Scene:
    """Parse scene text; raises ParseError (syntax) or ValidationError
    (structurally impossible scene)."""
    blocks = []   # (kind, ident, {key: (tokens, line)}, header_line)
    current = None
    name = "scene"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if current is None:
                raise ParseError(lineno, "unmatched '}'")
            blocks.append(current)
            current = None
            continue
        if line.endswith("{"):
            if current is not None:
                raise ParseError(lineno, "nested blocks are not allowed")
            head = line[:-1].split()
            if len(head) == 3 and head[0] == "element":
                current = (head[1], head[2], {}, lineno)
            elif len(head) == 2 and head[0] in ("eye", "background"):
                current = (head[0], head[1], {}, lineno)
            else:
                raise ParseError(lineno, f"bad block header {line!r}")
            continue
        if line.startswith("scene "):
            if current is not None:
                raise ParseError(lineno, "scene name inside a block")
            name = line.split(None, 1)[1]
            continue
        if current is None:
            raise ParseError(lineno, f"statement outside any block: {line!r}")
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        if key in current[2]:
            raise ParseError(lineno, f"duplicate key {key!r}")
        current[2][key] = (_tokens(value), lineno)
    if current is not None:
        raise ParseError(len(text.splitlines()), f"unterminated block {current[0]!r}")

    elements = []
    eyes = []
    backgrounds = []
    for kind, ident, keys, line in blocks:
        try:
            if kind == "eye":
                eyes.append(_build_eye(ident, keys, line))
            elif kind == "background":
                backgrounds.append(_build_screen(ident, keys, line))
            else:
                elements.append(_build_element(kind, ident, keys, line))
        except InvalidGeometry as exc:
            raise ValidationError(f"{kind} {ident!r}: {exc}") from None
        if keys:
            stray, (_, vline) = next(iter(keys.items()))
            raise ParseError(vline, f"unknown key {stray!r} in {kind} block")
    if len(eyes) != 1:
        raise ValidationError(f"scene needs exactly one eye, found {len(eyes)}")
    if len(backgrounds) > 1:
        raise ValidationError("scene allows at most one background")
    return Scene(tuple(elements), eyes[0],
                 backgrounds[0] if backgrounds else None, name)


# ---------------------------------------------------------------------------
# Serialization

def _fmt(v) -> str:
    if isinstance(v, bool):
        return _TRUE if v else _FALSE
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _fmt_seq(vals) -> str:
    return " ".join(_fmt(v) for v in vals)


def _pose_keys(pose: Pose) -> dict:
    return {"position": _fmt_seq(pose.position),
            "normal": _fmt_seq(pose.normal),
            "up": _fmt_seq(pose.v_axis)}


def _screen_keys(s: Screen) -> dict:
    keys = _pose_keys(s.pose)
    keys["extent"] = _fmt_seq(s.extent)
    keys["flip"] = _fmt_seq(s.flip_uv)
    if s.image_spec is not None:
        keys["image"] = s.image_spec
        keys["image_res"] = _fmt(s.image.shape[0])
    else:
        rows, cols = s.image.shape
        keys["image_data"] = f"{rows} {cols} " + _fmt_seq(s.image.ravel())
    return keys


def _element_keys(e) -> tuple:
    if isinstance(e, Screen):
        return "screen", _screen_keys(e)
    if isinstance(e, TmdPlate):
        keys = _pose_keys(e.pose)
        keys.update(extent=_fmt_seq(e.extent), pitch=_fmt(e.pitch),
                    mirror_ratio=_fmt(e.mirror_ratio),
                    weights=_fmt_seq(e.mode_weights),
                    polarizer=_fmt(e.polarizer),
                    angular_fill=_fmt(e.angular_fill))
        return "tmd", keys
    if isinstance(e, HalfMirror):
        keys = _pose_keys(e.pose)
        keys.update(extent=_fmt_seq(e.extent), reflectance=_fmt(e.reflectance))
        return "half_mirror", keys
    if isinstance(e, ConvexMirror):
        keys = _pose_keys(e.pose)
        keys.update(extent=_fmt_seq(e.extent), a_mag=_fmt(e.a_mag),
                    eye_distance=_fmt(e.eye_distance))
        return "convex_mirror", keys
    if isinstance(e, ThinLens):
        keys = _pose_keys(e.pose)
        keys.update(focal_length=_fmt(e.focal_length),
                    aperture=_fmt(e.aperture_diameter),
                    housing=_fmt_seq(e.housing_extent))
        return "lens", keys
    if isinstance(e, Absorber):
        keys = _pose_keys(e.pose)
        keys["extent"] = _fmt_seq(e.extent)
        return "absorber", keys
    raise TypeError(f"cannot serialize {type(e).__name__}")


def _emit_block(out, header, keys):
    out.append(header + " {")
    for key in sorted(keys):
        out.append(f"  {key} = {keys[key]}")
    out.append("}")


def serialize_scene(scene: Scene) -> str:
    """Render a scene back to its text form (keys alphabetical)."""
    out = [f"scene {scene.name}", ""]
    eye = scene.eye
    _emit_block(out, f"eye {eye.ident}", {
        "position": _fmt_seq(eye.pose.position),
        "look": _fmt_seq(eye.look),
        "up": _fmt_seq(eye.pose.v_axis),
        "focal_length": _fmt(eye.focal_length),
        "aperture": _fmt(eye.aperture_diameter),
        "sensor": _fmt_seq(eye.sensor),
    })
    for e in scene.elements:
        kind, keys = _element_keys(e)
        _emit_block(out, f"element {kind} {e.ident}", keys)
    if scene.background is not None:
        _emit_block(out, f"background {scene.background.ident}",
                    _screen_keys(scene.background))
    return "\n".join(out) + "\n"
