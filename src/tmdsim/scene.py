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
ELEMENT_KEYS and EYE_KEYS list each block's keys.  Serialization writes keys
alphabetically so files diff cleanly, and parse(serialize(scene))
reproduces every position and parameter bit for bit and every rotation to
1e-15: a pose is saved as its own axes, not as the hints it was built from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elements import (Absorber, ConvexMirror, HalfMirror, Screen, ThinLens,
                       TmdPlate)
from .errors import InvalidGeometry, ParseError, ValidationError
from .geometry import (MAX_LENGTH, MIN_LENGTH, Pose, normalize,
                       orthonormal_frame, require_finite, require_magnitude)

DEFAULT_SENSOR = (256, 256, 0.5)
DEFAULT_IMAGE_RES = 64
# The largest screen image side (`image_res`, `image_data` rows and columns)
# a scene file may ask for, and the largest eye sensor.  The parser refuses
# more before anything is allocated, and `EyeCamera` a larger sensor: a
# 4096-texel side is a 128 MiB grid, and a render holds about 60 bytes per
# sensor pixel.
MAX_IMAGE_SIDE = 4096
MAX_SENSOR_PIXELS = 4096 * 4096


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
        require_finite("camera focal length", self.focal_length, MIN_LENGTH,
                       MAX_LENGTH)
        require_finite("camera aperture", self.aperture_diameter, MIN_LENGTH,
                       MAX_LENGTH)
        w, h, p = self.sensor
        require_finite("camera sensor pitch", p, MIN_LENGTH, MAX_LENGTH)
        require_finite("camera sensor", (w, h))
        if w != int(w) or h != int(h):
            raise InvalidGeometry(f"camera sensor width and height must be whole "
                                  f"pixel counts, got {w} x {h}")
        if min(w, h) < 1 or w * h > MAX_SENSOR_PIXELS:
            raise InvalidGeometry(f"camera sensor must be at least 1 x 1 and have "
                                  f"at most {MAX_SENSOR_PIXELS} pixels, got {w} x {h}")
        object.__setattr__(self, "sensor", (int(w), int(h), float(p)))

    @property
    def look(self) -> np.ndarray:
        return -self.pose.normal

    @property
    def extent(self) -> float:
        """The pupil as a plane_hits extent: a disk of the aperture diameter."""
        return self.aperture_diameter


@dataclass(frozen=True)
class Scene:
    """Immutable element container plus exactly one eye."""

    elements: tuple
    eye: EyeCamera
    background: Optional[Screen] = None
    name: str = "scene"

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        # The saved text must read back as this scene: an identifier is one
        # word of a block header, the name the rest of one line.
        idents = [e.ident for e in self.surfaces] + [self.eye.ident]
        for ident in idents:
            if str(ident).split() != [ident] or "#" in ident or idents.count(ident) > 1:
                raise ValidationError(f"element identifier {ident!r} must be unique, "
                                      f"one word and without '#'")
        name = self.name
        if str(name).strip().splitlines() != [name] or "#" in name or name.endswith("{"):
            raise ValidationError(f"scene name {name!r} must be one line without '#', "
                                  f"outer whitespace or a final '{{'")

    @property
    def surfaces(self) -> tuple:
        """Everything a ray can hit: the elements, then the background."""
        if self.background is None:
            return self.elements
        return self.elements + (self.background,)


def make_pattern(spec: str, res: int = DEFAULT_IMAGE_RES) -> np.ndarray:
    """Build a named test image: `uniform [v]`, `checker [n]`, `hgrad`,
    `vstep` (bright top half) or `spot` (bright centre square).  Any other
    name, or a word past those, raises ValueError."""
    name, *args = str(spec).split() or [""]
    takes = {"uniform": 1, "checker": 1, "hgrad": 0, "vstep": 0, "spot": 0}.get(name)
    if takes is None:
        raise ValueError(f"unknown pattern {name!r}")
    if len(args) > takes:
        raise ValueError(f"pattern {name!r} takes at most {takes} value(s), "
                         f"got {len(args)}")
    if name == "uniform":
        value = float(args[0]) if args else 1.0
        if value < 0:
            raise ValueError("uniform pattern value must be non-negative")
        return np.full((res, res), value)
    if name == "checker":
        n = int(args[0]) if args else 8
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
    img = np.zeros((res, res))  # spot
    q = res // 4
    img[q: res - q, q: res - q] = 1.0
    return img


# ---------------------------------------------------------------------------
# The format

REQUIRED = object()   # the default of a key that a block must give


def _sensor_limit(value):
    # Non-finite and negative sizes are left to EyeCamera: invalid geometry.
    w, h, _ = value
    if (min(w, h) > 0 and math.isfinite(w) and math.isfinite(h)
            and w * h > MAX_SENSOR_PIXELS):
        raise ValueError(f"must have at most {MAX_SENSOR_PIXELS} pixels, "
                         f"got {w:.15g} x {h:.15g}")
    return value


def _zero_is_none(value):
    return None if value == (0.0, 0.0) else value


# The keys of each block past its pose, as (key, field, arity, default
# [, finish]).  A key sets the named constructor field.  Its arity is a
# count of numbers (one number reads as a float, more as a tuple) or `bool`
# for one true/false.  An absent key takes the default, or is an error if
# the default is REQUIRED.  `finish`, where given, turns the value read into
# the field's value, or refuses it with a ValueError.  Parsing and saving
# both read these tables; only the pose, the screen block and the eye's
# `look` are read and written by hand.
ELEMENT_KEYS = {
    "tmd": (TmdPlate, (
        ("extent", "extent", 2, REQUIRED),
        ("pitch", "pitch", 1, TmdPlate.pitch),
        ("mirror_ratio", "mirror_ratio", 1, TmdPlate.mirror_ratio),
        ("weights", "mode_weights", 3, TmdPlate.mode_weights),
        ("polarizer", "polarizer", bool, TmdPlate.polarizer),
        ("angular_fill", "angular_fill", bool, TmdPlate.angular_fill))),
    "half_mirror": (HalfMirror, (
        ("extent", "extent", 2, REQUIRED),
        ("reflectance", "reflectance", 1, HalfMirror.reflectance))),
    "convex_mirror": (ConvexMirror, (
        ("a_mag", "a_mag", 1, 1.0),
        ("extent", "extent", 2, REQUIRED),
        ("eye_distance", "eye_distance", 1, REQUIRED))),
    "lens": (ThinLens, (
        ("focal_length", "focal_length", 1, REQUIRED),
        ("aperture", "aperture_diameter", 1, REQUIRED),
        # `0 0`, like an absent line, leaves the mount to the aperture.
        ("housing", "housing_extent", 2, ThinLens.housing_extent,
         _zero_is_none))),
    "absorber": (Absorber, (
        ("extent", "extent", 2, REQUIRED),)),
}
EYE_KEYS = (
    ("focal_length", "focal_length", 1, EyeCamera.focal_length),
    ("aperture", "aperture_diameter", 1, EyeCamera.aperture_diameter),
    ("sensor", "sensor", 3, EyeCamera.sensor, _sensor_limit))


# ---------------------------------------------------------------------------
# Parsing

_TRUE, _FALSE = "true", "false"


def _as_float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(line, f"expected a number, got {tok!r}") from None


def _as_count(tok: str, line: int) -> int:
    """A whole number, written as an integer or as a float such as 256.0."""
    value = _as_float(tok, line)
    if not (math.isfinite(value) and value.is_integer()):
        raise ParseError(line, f"expected a whole count, got {tok!r}")
    return int(value)


def _take(keys, key, line, arity, default=REQUIRED, finish=None):
    """Pop `key` from a block and read its value (see ELEMENT_KEYS)."""
    if key not in keys:
        if default is REQUIRED:
            raise ParseError(line, f"missing required key {key!r}")
        return default
    toks, vline = keys.pop(key)
    if arity is bool:
        if len(toks) != 1 or toks[0] not in (_TRUE, _FALSE):
            raise ParseError(vline, f"{key} expects true or false")
        return toks[0] == _TRUE
    if len(toks) != arity:
        raise ParseError(vline, f"{key} expects {arity} value(s), got {len(toks)}")
    value = tuple(_as_float(t, vline) for t in toks)
    value = value if arity > 1 else value[0]
    try:
        return finish(value) if finish else value
    except ValueError as exc:
        raise ParseError(vline, f"{key} {exc}") from None


def _take_fields(keys, entries, line) -> dict:
    return {field: _take(keys, key, line, *rest) for key, field, *rest in entries}


def _take_pose(keys, line) -> Pose:
    position = _take(keys, "position", line, 3, (0.0, 0.0, 0.0))
    norm = _take(keys, "normal", line, 3, (0.0, 0.0, 1.0))
    up = _take(keys, "up", line, 3, (0.0, 1.0, 0.0))
    # Non-finite numbers are invalid geometry, not a bad orientation.
    require_magnitude("position", position)
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
        if max(rows, cols) > MAX_IMAGE_SIDE:
            raise ParseError(vline, f"image_data sides must be at most "
                                    f"{MAX_IMAGE_SIDE}, got {rows}x{cols}")
        vals = [_as_float(t, vline) for t in toks[2:]]
        if rows <= 0 or cols <= 0 or len(vals) != rows * cols:
            raise ParseError(vline, f"image_data expects {rows}x{cols} samples")
        return np.array(vals).reshape(rows, cols), None
    toks, vline = keys.pop("image", (["checker", "8"], line))
    spec = " ".join(toks)
    toks, rline = keys.pop("image_res", ([str(DEFAULT_IMAGE_RES)], line))
    if len(toks) != 1:
        raise ParseError(rline, f"image_res expects 1 value(s), got {len(toks)}")
    res = _as_count(toks[0], rline)
    if res > MAX_IMAGE_SIDE:
        raise ParseError(rline, f"image_res must be at most {MAX_IMAGE_SIDE}, "
                                f"got {res}")
    try:
        return make_pattern(spec, res), spec
    except (ValueError, OverflowError) as exc:
        raise ParseError(vline, str(exc)) from None


def _build_screen(ident, keys, line) -> Screen:
    pose = _take_pose(keys, line)
    extent = _take(keys, "extent", line, 2)
    image, spec = _take_image(keys, line)
    flip, fline = keys.pop("flip", ([_FALSE, _FALSE], line))
    if len(flip) != 2 or not {*flip} <= {_TRUE, _FALSE}:
        raise ParseError(fline, "flip expects 2 true/false value(s)")
    brightness = _take(keys, "brightness", line, 1, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # Screen refuses inf, nan
        image = image * brightness
    # A scaled pattern is no longer the named one, so it is saved as data.
    return Screen(ident, pose, extent, image,
                  (flip[0] == _TRUE, flip[1] == _TRUE),
                  spec if brightness == 1.0 else None)


def _build_element(kind, ident, keys, line):
    if kind == "screen":
        return _build_screen(ident, keys, line)
    if kind not in ELEMENT_KEYS:
        raise ParseError(line, f"unknown element kind {kind!r}")
    cls, entries = ELEMENT_KEYS[kind]
    return cls(ident, _take_pose(keys, line), **_take_fields(keys, entries, line))


def _build_eye(ident, keys, line) -> EyeCamera:
    position = _take(keys, "position", line, 3, (0.0, 0.0, 0.0))
    look = _take(keys, "look", line, 3, (0.0, 0.0, -1.0))
    up = _take(keys, "up", line, 3, (0.0, 1.0, 0.0))
    require_magnitude("eye position", position)
    require_finite("eye orientation", look + up)
    try:
        pose = camera_pose(position, look, up)
    except (InvalidGeometry, ValueError) as exc:
        raise ParseError(line, f"bad eye orientation: {exc}") from None
    return EyeCamera(ident, pose, **_take_fields(keys, EYE_KEYS, line))


def parse_scene(text: str) -> Scene:
    """Parse scene text; raises ParseError (syntax) or ValidationError
    (structurally impossible scene)."""
    blocks = []   # (kind, ident, {key: (tokens, line)}, header_line, element)
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
                current = (head[1], head[2], {}, lineno, True)
            elif len(head) == 2 and head[0] in ("eye", "background"):
                current = (head[0], head[1], {}, lineno, False)
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
        current[2][key] = (value.split(), lineno)
    if current is not None:
        raise ParseError(len(text.splitlines()), f"unterminated block {current[0]!r}")

    elements = []
    eyes = []
    backgrounds = []
    for kind, ident, keys, line, element in blocks:
        try:
            if element:
                elements.append(_build_element(kind, ident, keys, line))
            elif kind == "eye":
                eyes.append(_build_eye(ident, keys, line))
            else:
                backgrounds.append(_build_screen(ident, keys, line))
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
    """A value as the parser reads it back: true/false, a whole count, a
    float's repr (which reloads to the same bits), or a sequence of these."""
    if isinstance(v, bool):
        return _TRUE if v else _FALSE
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (tuple, list, np.ndarray)):
        return " ".join(map(_fmt, v))
    return repr(float(v))


def _pose_keys(pose: Pose) -> dict:
    return {"position": _fmt(pose.position), "normal": _fmt(pose.normal),
            "up": _fmt(pose.v_axis)}


def _table_keys(obj, entries) -> dict:
    return {key: _fmt(getattr(obj, field)) for key, field, *_ in entries}


def _screen_keys(s: Screen) -> dict:
    keys = _pose_keys(s.pose)
    keys["extent"] = _fmt(s.extent)
    keys["flip"] = _fmt(s.flip_uv)
    if s.image_spec is not None:
        keys["image"] = s.image_spec
        keys["image_res"] = _fmt(s.image.shape[0])
    else:
        keys["image_data"] = _fmt(s.image.shape) + " " + _fmt(s.image.ravel())
    return keys


def _element_keys(e) -> tuple:
    if isinstance(e, Screen):
        return "screen", _screen_keys(e)
    for kind, (cls, entries) in ELEMENT_KEYS.items():
        if isinstance(e, cls):
            return kind, {**_pose_keys(e.pose), **_table_keys(e, entries)}
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
        "position": _fmt(eye.pose.position), "look": _fmt(eye.look),
        "up": _fmt(eye.pose.v_axis), **_table_keys(eye, EYE_KEYS)})
    for e in scene.elements:
        kind, keys = _element_keys(e)
        _emit_block(out, f"element {kind} {e.ident}", keys)
    if scene.background is not None:
        _emit_block(out, f"background {scene.background.ident}",
                    _screen_keys(scene.background))
    return "\n".join(out) + "\n"
