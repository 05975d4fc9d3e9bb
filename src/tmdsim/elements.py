"""Optical elements and their single-ray interactions.

Covered elements: ideal thin lens, half mirror, curved mirror combiner,
transmissive mirror plate (a dihedral corner reflector array that forms a
plane-symmetric real image) and emissive screens.  Interactions are pure
functions; the one stochastic choice (which slat interaction a plate cell
produces) takes its uniform draw as an explicit argument so callers own
the randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidGeometry, NoIntersection, OutOfBounds
from .geometry import (MODE_DOUBLE, MODE_PASS, MODE_SINGLE, PLANE_EPS, Pose,
                       Ray, intersect_plane, normalize_rows, reflect_rows,
                       require_finite)

DEFAULT_REFLECTANCE = 0.5
DEFAULT_MODE_WEIGHTS = (0.6, 0.3, 0.1)

INTERACT_DOUBLE = "double_reflect"
INTERACT_SINGLE_U = "single_reflect_u"
INTERACT_SINGLE_V = "single_reflect_v"
INTERACT_PASS = "pass_through"
INTERACT_ABSORB = "absorbed"

# Plate interaction codes of the batch forms index this tuple.
PLATE_INTERACTIONS = (INTERACT_DOUBLE, INTERACT_SINGLE_U, INTERACT_SINGLE_V,
                      INTERACT_PASS, INTERACT_ABSORB)
_DOUBLE, _SINGLE_U, _SINGLE_V, _PASS, _ABSORB = range(5)
# Local-frame direction sign flips per (non-absorbed) plate interaction code.
_PLATE_FLIPS = np.array([(-1.0, -1.0, 1.0), (-1.0, 1.0, 1.0),
                         (1.0, -1.0, 1.0), (1.0, 1.0, 1.0)])
_MODE_TAG = {
    INTERACT_DOUBLE: MODE_DOUBLE,
    INTERACT_SINGLE_U: MODE_SINGLE,
    INTERACT_SINGLE_V: MODE_SINGLE,
    INTERACT_PASS: MODE_PASS,
}


def _positive_extent(extent) -> tuple:
    require_finite("extent", extent)
    w, h = float(extent[0]), float(extent[1])
    if w <= 0 or h <= 0:
        raise InvalidGeometry(f"extent must be positive, got {(w, h)}")
    return (w, h)


@dataclass(frozen=True)
class ThinLens:
    """Ideal thin lens: circular clear aperture in an absorbing mount."""

    ident: str
    pose: Pose
    focal_length: float
    aperture_diameter: float
    housing_extent: Optional[tuple] = None

    def __post_init__(self):
        require_finite("lens focal length", self.focal_length)
        require_finite("lens aperture", self.aperture_diameter)
        if self.focal_length == 0:
            raise InvalidGeometry("lens focal length must be nonzero")
        if self.aperture_diameter <= 0:
            raise InvalidGeometry("lens aperture must be positive")
        d = float(self.aperture_diameter)
        housing = self.housing_extent or (d, d)
        housing = _positive_extent(housing)
        if min(housing) < d - 1e-12:
            raise InvalidGeometry("lens housing smaller than the clear aperture")
        object.__setattr__(self, "housing_extent", housing)

    @property
    def extent(self) -> tuple:
        """The rectangle a ray hits: the mount around the clear aperture."""
        return self.housing_extent


@dataclass(frozen=True)
class HalfMirror:
    """Flat beam splitter: reflects a fraction of each ray, transmits the rest."""

    ident: str
    pose: Pose
    extent: tuple
    reflectance: float = DEFAULT_REFLECTANCE

    def __post_init__(self):
        object.__setattr__(self, "extent", _positive_extent(self.extent))
        require_finite("half-mirror reflectance", self.reflectance)
        if not 0.0 < self.reflectance < 1.0:
            raise InvalidGeometry("half-mirror reflectance must be in (0, 1)")


@dataclass(frozen=True)
class ConvexMirror:
    """Spherical-cap combiner whose paraxial view magnification is a_mag.

    The cap radius is 2 * eye_distance * a_mag / (a_mag - 1) (flat at
    a_mag = 1) with the curvature centre on the incoming-ray side, so an
    eye at eye_distance sees angles stretched by a_mag near the axis.
    """

    ident: str
    pose: Pose
    a_mag: float
    extent: tuple
    eye_distance: float

    def __post_init__(self):
        object.__setattr__(self, "extent", _positive_extent(self.extent))
        require_finite("mirror magnification", self.a_mag)
        require_finite("mirror eye_distance", self.eye_distance)
        if self.a_mag <= 0:
            raise InvalidGeometry("mirror magnification must be positive")
        if self.eye_distance <= 0:
            raise InvalidGeometry("mirror eye_distance must be positive")

    @property
    def flat(self) -> bool:
        return self.a_mag == 1.0

    @property
    def curvature_radius(self) -> float:
        if self.flat:
            return math.inf
        return 2.0 * self.eye_distance * self.a_mag / (self.a_mag - 1.0)

    @property
    def centre(self) -> np.ndarray:
        """Centre of curvature (meaningless for a flat mirror)."""
        return self.pose.position + self.curvature_radius * self.pose.normal


@dataclass(frozen=True)
class TmdPlate:
    """Transmissive mirror plate modelled at the exit-cell level.

    Each ray either double-reflects (the imaging path: both transverse
    direction components negate), single-reflects off one slat orientation
    (ghost path), passes straight through, or is absorbed.  A nonzero pitch
    quantizes reflected-mode exit points to p x p cell centres, which is
    what limits resolution.  `mode_weights` are the (double, single, pass)
    probabilities; the remainder is absorbed.
    """

    ident: str
    pose: Pose
    extent: tuple
    pitch: float = 0.0
    mirror_ratio: float = 3.0
    mode_weights: tuple = DEFAULT_MODE_WEIGHTS
    polarizer: bool = False
    angular_fill: bool = False

    def __post_init__(self):
        object.__setattr__(self, "extent", _positive_extent(self.extent))
        require_finite("plate pitch", self.pitch)
        require_finite("plate mirror_ratio", self.mirror_ratio)
        require_finite("plate mode weights", self.mode_weights)
        if self.pitch < 0:
            raise InvalidGeometry("plate pitch cannot be negative")
        if self.mirror_ratio <= 0:
            raise InvalidGeometry("plate mirror_ratio must be positive")
        w = tuple(float(x) for x in self.mode_weights)
        if len(w) != 3 or any(x < 0 or x > 1 for x in w) or sum(w) > 1.0 + 1e-9:
            raise InvalidGeometry(f"mode weights {w} must lie in [0,1] and sum to <= 1")
        object.__setattr__(self, "mode_weights", w)


@dataclass(frozen=True)
class Screen:
    """Emissive rectangle sampled bilinearly; Lambertian, so the viewing
    direction never matters.  flip_uv mirrors the image horizontally /
    vertically, which presets use to pre-compensate the plate's inversion.
    """

    ident: str
    pose: Pose
    extent: tuple
    image: np.ndarray
    flip_uv: tuple = (False, False)
    image_spec: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "extent", _positive_extent(self.extent))
        img = np.array(self.image, dtype=np.float64)
        if img.ndim != 2 or img.size == 0:
            raise InvalidGeometry("screen image must be a non-empty 2-d grid")
        require_finite("screen radiance", img)
        if img.min() < 0:
            raise InvalidGeometry("screen radiance samples must be non-negative")
        img.flags.writeable = False
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "flip_uv", (bool(self.flip_uv[0]), bool(self.flip_uv[1])))


@dataclass(frozen=True)
class Absorber:
    """Matte-black rectangle; rays that hit it are simply gone."""

    ident: str
    pose: Pose
    extent: tuple

    def __post_init__(self):
        object.__setattr__(self, "extent", _positive_extent(self.extent))


def split_weights(weights: np.ndarray, fraction: float):
    """Split each weight into (weight*fraction, remainder) so the two parts
    sum back to the weight exactly.  The larger part is computed by product
    and the smaller by complement; the subtraction is then exact (Sterbenz).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction outside [0, 1]")
    if fraction >= 0.5:
        part = weights * fraction
        return part, weights - part
    rest = weights * (1.0 - fraction)
    return weights - rest, rest


def split_weight(weight: float, fraction: float):
    """`split_weights` for one weight."""
    part, rest = split_weights(np.array([weight], dtype=np.float64), fraction)
    return float(part[0]), float(rest[0])


# Batch interactions.  Each takes the rays that hit one element as rows
# (hit points, incoming directions, ...) and returns the outgoing rows; the
# outgoing directions are not yet normalized, exactly as the scalar forms
# below hand them to `Ray`, which normalizes them.  The scalar forms are
# 1-row calls of these, so each interaction's maths exists once.

def refract_thin_lens(lens: ThinLens, points: np.ndarray, directions: np.ndarray):
    """(clear, out_directions) for rays hitting the lens plane at `points`.

    `clear` marks the rows inside the clear aperture; the other rows hit
    the mount and their directions are meaningless.  In the lens frame a
    ray crossing at transverse offset h has its slope changed by -h/f
    (measured per unit travel along the axis, in the direction of
    propagation), so a point source at distance s_o images exactly at
    1/s_i = 1/f - 1/s_o.  Rays through the centre are unchanged.
    """
    u, v = lens.pose.uv_of(points)
    clear = u * u + v * v <= (0.5 * lens.aperture_diameter) ** 2
    dl = lens.pose.to_local_dirs(directions)
    aw = np.abs(dl[:, 2])
    if (clear & (aw < 1e-12)).any():
        raise NoIntersection(f"ray grazes lens {lens.ident!r}")
    out_local = np.stack([dl[:, 0] / aw - u / lens.focal_length,
                          dl[:, 1] / aw - v / lens.focal_length,
                          np.copysign(1.0, dl[:, 2])], axis=1)
    return clear, lens.pose.to_world_dirs(normalize_rows(out_local))


def split_half_mirror(mirror: HalfMirror, directions: np.ndarray,
                      weights: np.ndarray):
    """(reflected_directions, reflected_weights, transmitted_weights); the
    transmitted rays keep their directions and the two weights of a row sum
    to its incident weight exactly."""
    w_r, w_t = split_weights(weights, mirror.reflectance)
    return reflect_rows(directions, mirror.pose.normal), w_r, w_t


def sphere_cap_hits(mirror: ConvexMirror, origins: np.ndarray,
                    directions: np.ndarray) -> np.ndarray:
    """Hit distance of each ray on a curved combiner's cap (inf on a miss).

    The curvature centre sits on the +w side of the vertex for a_mag > 1.
    Of the two sphere crossings the one on the cap near the vertex wins;
    the far hemisphere (sag beyond one radius) is not a cap.
    """
    R = mirror.curvature_radius
    pose = mirror.pose
    oc = origins - mirror.centre
    b = np.vecdot(directions, oc)
    disc = b * b - (np.vecdot(oc, oc) - R * R)
    sq = np.sqrt(np.where(disc < 0, 0.0, disc))
    best = np.full(len(origins), np.inf)
    best_wl = np.full(len(origins), np.inf)
    for t in (-b - sq, -b + sq):
        points = origins + t[:, None] * directions
        u, v = pose.uv_of(points)
        wl = np.abs(np.vecdot(points - pose.position, pose.normal))
        ok = ((disc >= 0) & (t > PLANE_EPS) & (np.abs(u) <= 0.5 * mirror.extent[0])
              & (np.abs(v) <= 0.5 * mirror.extent[1]) & (wl <= abs(R))
              & (wl < best_wl))
        best = np.where(ok, t, best)
        best_wl = np.where(ok, wl, best_wl)
    return best


def reflect_convex_mirror(mirror: ConvexMirror, points: np.ndarray,
                          directions: np.ndarray) -> np.ndarray:
    """Specular reflection at `points` on the combiner (flat at a_mag = 1)."""
    if mirror.flat:
        return reflect_rows(directions, mirror.pose.normal)
    return reflect_rows(directions, normalize_rows(mirror.centre - points))


def double_band(plate: TmdPlate, incidence: np.ndarray):
    """Double-reflect weight for rows of plate-local incidence directions.
    With angular_fill it shrinks with incidence angle, p_eff = p_double *
    (1 - tan(theta) / (2 * mirror_ratio)), clamped to [0,1]; the freed mass
    is absorbed."""
    p_d = plate.mode_weights[0]
    if not plate.angular_fill:
        return p_d
    cw = np.abs(incidence[:, 2])
    tan = np.sqrt(np.maximum(1.0 - cw * cw, 0.0)) / np.maximum(cw, 1e-12)
    return np.minimum(np.maximum(p_d * (1.0 - tan / (2.0 * plate.mirror_ratio)),
                                 0.0), 1.0)


def classify_plate_modes(plate: TmdPlate, incidence: np.ndarray,
                         draws: np.ndarray) -> np.ndarray:
    """Plate interaction codes (indices into PLATE_INTERACTIONS) for rows of
    plate-local incidence directions and uniform draws in [0, 1).

    [0,1) is partitioned into double | single | pass bands of the plate's
    mode weights (the double band from `double_band`), remainder absorbed.
    A polarizer keeps the partition but blocks the single band: that light
    is absorbed, not redistributed.  The single band is itself split evenly
    between the two slat orientations.
    """
    _, p_s, p_p = plate.mode_weights
    b1 = double_band(plate, incidence)
    b2 = b1 + p_s
    single = (_ABSORB if plate.polarizer
              else np.where(draws < b1 + 0.5 * p_s, _SINGLE_U, _SINGLE_V))
    return np.where(draws < b1, _DOUBLE,
                    np.where(draws < b2, single,
                             np.where(draws < b2 + p_p, _PASS, _ABSORB)))


def classify_tmd_mode(incidence, plate: TmdPlate, draw: float) -> str:
    """One plate interaction for a plate-local incidence direction and a
    uniform draw in [0,1) (see classify_plate_modes)."""
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw {draw} outside [0, 1)")
    incidence = np.asarray(incidence, dtype=np.float64)[None]
    code = classify_plate_modes(plate, incidence, np.array([draw]))[0]
    return PLATE_INTERACTIONS[code]


def quantize_uv(u, v, pitch: float):
    """Snap plate-local coordinates to the centre of their pitch cell."""
    return (np.floor(u / pitch) + 0.5) * pitch, (np.floor(v / pitch) + 0.5) * pitch


def plate_exit(plate: TmdPlate, points: np.ndarray, local_dirs: np.ndarray,
               codes: np.ndarray):
    """(exit_points, out_directions) of rays that hit the plate at `points`
    with plate-local directions `local_dirs`, for already chosen interaction
    codes (no absorbed rows).

    double_reflect negates both transverse direction components (the
    retroreflection that builds the plane-symmetric image), single_reflect_u/v
    negates one, pass_through none.  For the reflected modes a nonzero pitch
    snaps the exit point to the containing cell centre; pass-through exits
    exactly at the hit point.
    """
    pose = plate.pose
    u, v = pose.uv_of(points)
    if plate.pitch > 0:
        snap = codes != _PASS
        qu, qv = quantize_uv(u, v, plate.pitch)
        u, v = np.where(snap, qu, u), np.where(snap, qv, v)
    exits = pose.position + u[:, None] * pose.u_axis + v[:, None] * pose.v_axis
    return exits, pose.to_world_dirs(local_dirs * _PLATE_FLIPS[codes])


def _hit(ray: Ray, pose: Pose, extent, what: str):
    hit = intersect_plane(ray, pose, extent)
    if hit is None:
        raise NoIntersection(f"ray misses {what}")
    return hit


def thin_lens_transform(ray: Ray, lens: ThinLens) -> Ray:
    """Refract a ray through an ideal thin lens (see refract_thin_lens)."""
    d = lens.aperture_diameter
    hit = _hit(ray, lens.pose, (d, d), f"lens {lens.ident!r}")
    clear, out = refract_thin_lens(lens, hit.point[None], ray.direction[None])
    if not clear[0]:
        raise NoIntersection(f"ray misses the clear aperture of lens {lens.ident!r}")
    return replace(ray, origin=hit.point, direction=out[0])


def half_mirror_interact(ray: Ray, mirror: HalfMirror):
    """Split a ray on a half mirror into (reflected, transmitted).

    The two branch weights sum to the incident weight exactly.
    """
    hit = _hit(ray, mirror.pose, mirror.extent, f"half mirror {mirror.ident!r}")
    out, w_r, w_t = split_half_mirror(mirror, ray.direction[None],
                                      np.array([ray.weight]))
    reflected = replace(ray, origin=hit.point, direction=out[0],
                        weight=float(w_r[0]))
    transmitted = replace(ray, origin=hit.point, weight=float(w_t[0]))
    return reflected, transmitted


def convex_mirror_transform(ray: Ray, mirror: ConvexMirror) -> Ray:
    """Specular reflection off the combiner cap (flat when a_mag = 1)."""
    what = f"mirror {mirror.ident!r}"
    if mirror.flat:
        point = _hit(ray, mirror.pose, mirror.extent, what).point
    else:
        t = float(sphere_cap_hits(mirror, ray.origin[None], ray.direction[None])[0])
        if t == math.inf:
            raise NoIntersection(f"ray misses {what}")
        point = ray.at(t)
    out = reflect_convex_mirror(mirror, point[None], ray.direction[None])
    return replace(ray, origin=point, direction=out[0])


def tmd_transform(ray: Ray, plate: TmdPlate, mode: str) -> Ray:
    """Carry a ray through the plate for an already chosen interaction mode
    (see plate_exit)."""
    if mode not in _MODE_TAG:
        raise ValueError(f"unknown plate mode {mode!r}")
    hit = _hit(ray, plate.pose, plate.extent, f"plate {plate.ident!r}")
    local = plate.pose.to_local_dirs(ray.direction[None])
    exits, out = plate_exit(plate, hit.point[None], local,
                            np.array([PLATE_INTERACTIONS.index(mode)]))
    return replace(ray, origin=exits[0], direction=out[0], mode=_MODE_TAG[mode])


def sample_screen(screen: Screen, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Radiance of each row of local (u, v) screen coordinates: bilinear
    between texel centres, clamped at the borders.  No bounds check."""
    w, h = screen.extent
    su = (u + 0.5 * w) / w
    sv = (v + 0.5 * h) / h
    if screen.flip_uv[0]:
        su = 1.0 - su
    if screen.flip_uv[1]:
        sv = 1.0 - sv
    rows, cols = screen.image.shape
    x = su * cols - 0.5
    y = (1.0 - sv) * rows - 0.5
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    xa = np.clip(x0.astype(np.int64), 0, cols - 1)
    xb = np.clip(x0.astype(np.int64) + 1, 0, cols - 1)
    ya = np.clip(y0.astype(np.int64), 0, rows - 1)
    yb = np.clip(y0.astype(np.int64) + 1, 0, rows - 1)
    img = screen.image
    top = img[ya, xa] * (1.0 - fx) + img[ya, xb] * fx
    bot = img[yb, xa] * (1.0 - fx) + img[yb, xb] * fx
    return top * (1.0 - fy) + bot * fy


def screen_emit(screen: Screen, uv, toward=None) -> float:
    """Radiance leaving the screen at local (u, v); direction-independent
    (see sample_screen).  Raises OutOfBounds when (u, v) falls outside the
    screen extent.
    """
    u, v = float(uv[0]), float(uv[1])
    w, h = screen.extent
    if abs(u) > 0.5 * w + 1e-9 or abs(v) > 0.5 * h + 1e-9:
        raise OutOfBounds(f"({u}, {v}) outside screen {screen.ident!r}")
    return float(sample_screen(screen, np.array([u]), np.array([v]))[0])
