"""Optical elements and their single-ray interactions.

Covered elements: ideal thin lens, half mirror, curved mirror combiner,
transmissive mirror plate (a dihedral corner reflector array that forms a
plane-symmetric real image) and emissive screens.  Interactions are pure
functions; the one stochastic choice (which slat interaction a plate cell
produces) takes its uniform draw as an explicit argument so callers own
the randomness.  `leave` is the interaction table of both tracers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidGeometry, NoIntersection
from .geometry import (MODE_DOUBLE, MODE_PASS, MODE_SINGLE, PLANE_EPS,
                       Crossings, Pose, Ray, along_rows, dot_rows,
                       inside_extent, normalize_rows, plane_facing, plane_hits,
                       reflect_rows, require_finite, subset, sub_rows,
                       take_rows)

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
# Branch codes of `leave`, indices into this tuple; a plate interaction code
# c other than absorption leaves on branch _PLATE + c.
BRANCHES = ("lens", "half_mirror_reflect", "half_mirror_transmit",
            "mirror_reflect") + PLATE_INTERACTIONS[:4]
_LENS, _REFLECT, _TRANSMIT, _MIRROR, _PLATE = range(5)
# The history tag a ray takes on each branch (None: it keeps its own).
BRANCH_MODES = (None,) * 4 + (MODE_DOUBLE, MODE_SINGLE, MODE_SINGLE, MODE_PASS)


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
        if not math.isfinite(0.5 * self.aperture_diameter / abs(self.focal_length)):
            raise InvalidGeometry("lens focal length too short for its aperture")
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
        if not (self.flat or math.isfinite(self.curvature_radius)
                and np.isfinite(self.centre).all()):
            raise InvalidGeometry("mirror curvature radius or centre not finite")

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
        if self.pitch and not math.isfinite(0.5 * max(self.extent) / self.pitch):
            raise InvalidGeometry("plate pitch too small for its extent")
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
        img = np.asarray(self.image, dtype=np.float64)
        if img.ndim != 2 or img.size == 0:
            raise InvalidGeometry("screen image must be a non-empty 2-d grid")
        require_finite("screen radiance", img)
        if img.min() < 0:
            raise InvalidGeometry("screen radiance samples must be non-negative")
        # The texels are held once, inside a border that repeats the edge
        # texels (what `sample_screen` reads); `image` is the interior.
        texels = np.pad(img, 1, mode="edge")
        texels.flags.writeable = False
        object.__setattr__(self, "_texels", texels)
        object.__setattr__(self, "image", texels[1:-1, 1:-1])
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


# Batch interactions.  Each takes the rays that hit one element as rows
# (hit points, incoming directions, ...) and returns the outgoing rows; the
# outgoing directions are not yet normalized, exactly as the scalar forms
# below hand them to `Ray`, which normalizes them.  The scalar forms and
# the renderer call these, so each interaction's maths exists once.

def refract_thin_lens(lens: ThinLens, u: np.ndarray, v: np.ndarray,
                      directions: np.ndarray):
    """(rows, exit_local) for rays crossing the lens plane at local (u, v)
    with world `directions`.

    `rows` indexes the rays that pass (None when every ray does): those
    inside the clear aperture that do not graze the lens plane.  The mount
    absorbs the others.  `exit_local` holds the passing rays' exit
    directions in the lens frame, not normalized: each tracer normalizes
    them by its own rule.  In the lens frame a ray crossing at transverse
    offset h has its slope changed by -h/f (measured per unit travel along
    the axis, in the direction of propagation), so a point source at
    distance s_o images exactly at 1/s_i = 1/f - 1/s_o.  Rays through the
    centre are unchanged.
    """
    rows = subset(inside_extent(u, v, lens.aperture_diameter))
    local = lens.pose.to_local_dirs(take_rows(directions, rows))
    aw = np.abs(local[:, 2])
    fine = aw > 1e-12
    if not fine.all():
        fine = np.flatnonzero(fine)
        local, aw = local[fine], aw[fine]
        rows = fine if rows is None else rows[fine]
    f = lens.focal_length
    out = np.empty((len(local), 3))
    np.subtract(local[:, 0] / aw, take_rows(u, rows) / f, out=out[:, 0])
    np.subtract(local[:, 1] / aw, take_rows(v, rows) / f, out=out[:, 1])
    np.sign(local[:, 2], out=out[:, 2])
    return rows, out


def sphere_cap_hits(mirror: ConvexMirror, origins: np.ndarray,
                    directions: np.ndarray) -> Optional[Crossings]:
    """The rays' Crossings with a curved combiner's cap, t inf where a ray
    misses it, or None when every ray misses.

    `origins` are rows, or one 3-vector that every ray starts from.  The
    curvature centre sits on the +w side of the vertex for a_mag > 1.  Of
    the two sphere crossings the one on the cap near the vertex wins; the
    far hemisphere (sag beyond one radius) is not a cap.
    """
    R = mirror.curvature_radius
    pose = mirror.pose
    origins = np.broadcast_to(origins, directions.shape)
    oc = sub_rows(origins, mirror.centre)
    b = np.vecdot(directions, oc)
    disc = b * b - (np.vecdot(oc, oc) - R * R)
    # Only the rays that meet the sphere (meet: None for all) get roots.
    meet = subset(disc >= 0)
    if meet is not None and len(meet) == 0:
        return None
    origins, directions, b = (take_rows(a, meet) for a in (origins, directions, b))
    sq = np.sqrt(take_rows(disc, meet))
    n = len(directions)
    best, best_wl = np.full(n, np.inf), np.full(n, np.inf)
    points, u, v = np.empty((n, 3)), np.empty(n), np.empty(n)
    for t in (-b - sq, -b + sq):
        p = along_rows(origins, t, directions)
        rel = sub_rows(p, pose.position)
        pu, pv = dot_rows(rel, pose.u_axis), dot_rows(rel, pose.v_axis)
        wl = np.abs(dot_rows(rel, pose.normal))
        ok = ((t > PLANE_EPS) & inside_extent(pu, pv, mirror.extent)
              & (wl <= abs(R)) & (wl < best_wl))
        for out, new in ((best, t), (best_wl, wl), (u, pu), (v, pv)):
            np.copyto(out, new, where=ok)
        np.copyto(points, p, where=ok[:, None])
    found = subset(best < np.inf)
    if found is not None and len(found) == 0:
        return None
    points, u, v = (take_rows(a, found) for a in (points, u, v))
    if meet is not None:  # back to one distance per ray given
        t = np.full(len(disc), np.inf)
        t[meet] = best
        best, found = t, take_rows(meet, found)
    return Crossings(best, found, points, u, v)


def reflect_convex_mirror(mirror: ConvexMirror, points: np.ndarray,
                          directions: np.ndarray) -> np.ndarray:
    """Specular reflection at `points` on the combiner (flat at a_mag = 1)."""
    if mirror.flat:
        return reflect_rows(directions, mirror.pose.normal)
    normals = normalize_rows(sub_rows(mirror.centre, points))
    return reflect_rows(directions, normals, np.vecdot(directions, normals))


def nearest_hits(surfaces, origins: np.ndarray, directions: np.ndarray, left):
    """Nearest hit of each ray on `surfaces`: (element index or -1,
    distance or inf, each element's Crossings, None for an element not
    tested or hit by no ray).

    A surface is a curved cap or has a `pose` and an `extent`, a rectangle
    or a disk (geometry.plane_hits): the eye, which the forward tracer
    lists last, is the disk of its pupil.  `origins` are rows, or one
    3-vector that every ray starts from.  Each plane is tested only for the
    rays it could still win, those whose crossing lies nearer than their
    best hit so far.  A plane that no ray can reach within its bound is
    dropped before any crossing point is built, and d.n is computed once
    per distinct normal (compared as bytes, so each ray keeps the bits of
    its own d.n).

    What a ray may hit next is decided here, for both tracers.  `left` is
    the element the rays just left, of any kind (-1 for none): one index
    for the batch, or one per ray.  A flat `left` is not tested (its rows get
    a bound of -inf): a ray leaves it on its plane nudged 1e-6 mm, which at
    grazing incidence is less than the exit point's rounding.  A curved
    cap is tested again, as a ray may meet it again.  Of equal distances
    the element listed first wins, so the eye must be strictly nearer.
    """
    tmin = np.full(len(directions), np.inf)
    near = np.full(len(directions), -1)
    hits = [None] * len(surfaces)
    facings = {}  # normal bytes -> plane_facing of the batch
    per_ray = np.ndim(left) > 0
    for k, el in enumerate(surfaces):
        if isinstance(el, ConvexMirror) and not el.flat:
            hits[k] = sphere_cap_hits(el, origins, directions)
        elif per_ray or k != left:
            normal = el.pose.normal
            key = normal.tobytes()
            if key not in facings:
                facings[key] = plane_facing(directions, normal)
            bound = np.where(left == k, -np.inf, tmin) if per_ray else tmin
            hits[k] = plane_hits(origins, directions, el.pose, el.extent,
                                 bound, facings[key])
        if hits[k] is not None:
            closer = hits[k].t < tmin
            np.copyto(near, k, where=closer)
            np.copyto(tmin, hits[k].t, where=closer)
    return near, tmin, hits


def hit_groups(near: np.ndarray, hits: list):
    """The rays of a `nearest_hits` result grouped by the element they hit,
    as (k, rows, points, u, v) in ascending k: `rows` are the rays' indices
    (None when every ray hit k) and points, u, v their hit record."""
    for k, record in enumerate(hits):
        if record is None:
            continue
        rows = np.flatnonzero(near == k)
        if len(rows) == 0:
            continue
        rows = None if len(rows) == len(near) else rows
        yield (k, rows, *record.at(rows))


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


def plate_exit(plate: TmdPlate, points: np.ndarray, u: np.ndarray,
               v: np.ndarray, local_dirs: np.ndarray, codes):
    """(exit_points, out_directions) of rays that hit the plate at `points`
    (local coordinates u, v) with plate-local directions `local_dirs`, for
    already chosen interaction codes: one for every row or one per row, and
    none of them absorbed.

    double_reflect negates both transverse direction components (the
    retroreflection that builds the plane-symmetric image), single_reflect_u/v
    negates one, pass_through none.  A ray exits at its hit point, except
    that a nonzero pitch snaps the reflected modes to the centre of the
    containing cell.
    """
    pose = plate.pose
    flips = _PLATE_FLIPS[codes]
    flipped = np.empty((len(local_dirs), 3))
    for j in range(3):
        np.multiply(local_dirs[:, j], flips[..., j], out=flipped[:, j])
    out = pose.to_world_dirs(flipped)
    snap = np.asarray(codes) != _PASS
    if plate.pitch == 0 or not snap.any():
        return points, out
    qu, qv = quantize_uv(u, v, plate.pitch)
    cells = along_rows(along_rows(pose.position, qu, pose.u_axis), qv, pose.v_axis)
    return (cells if snap.all() else np.where(snap[:, None], cells, points)), out


def leave(el, points: np.ndarray, u: np.ndarray, v: np.ndarray,
          directions: np.ndarray, weights: np.ndarray, draws=None,
          normalize=normalize_rows, cutoff: float = 0.0) -> list:
    """The branches leaving `el` for the rays that hit it at `points`
    (local u, v): the one place where both tracers decide what leaves a hit.

    A branch is (code, rows, exit_points, exit_directions, weights): `code`
    indexes BRANCHES (one per row for a sampled plate), `rows` are its
    places among the hit rays (None for all).  Every reader takes a branch
    one way: a ray on it leaves from its exit point, along its exit
    direction, with its weight, and takes the tag BRANCH_MODES gives its
    code (None: it keeps its own).  A ray on no branch ends on the element
    it hit; a screen or an absorber gives none, an unknown element raises
    TypeError.  Only a lens normalizes its exits, by `normalize`, the one
    rounding the tracers pin apart (geometry.py).  A half mirror's two
    weights sum to the incident one exactly.  A plate given `draws` sends
    each ray on the branch `classify_plate_modes` picks; without, it splits
    every ray over its nonzero fractions (double band, half the single band
    per slat or none under the polarizer, pass band).  A split keeps the
    rows whose share reaches `cutoff`.
    """
    if isinstance(el, TmdPlate):
        local = el.pose.to_local_dirs(directions)
        if draws is not None:
            codes = classify_plate_modes(el, local, draws)
            kept = subset(codes != _ABSORB)
            codes = take_rows(codes, kept)
            exits, out = plate_exit(
                el, *(take_rows(a, kept) for a in (points, u, v, local)), codes)
            return [(_PLATE + codes, kept, exits, out, take_rows(weights, kept))]
        _, p_s, p_p = el.mode_weights
        single = 0.5 * (0.0 if el.polarizer else p_s)
        branches = []
        for code, frac in enumerate((double_band(el, local), single, single, p_p)):
            if isinstance(frac, float) and frac == 0.0:
                continue  # no row of this branch carries any weight
            share = weights * frac
            keep = None if cutoff <= 0.0 else subset(share >= cutoff)
            if keep is None or len(keep):
                exits, out = plate_exit(
                    el, *(take_rows(a, keep) for a in (points, u, v, local)), code)
                branches.append((_PLATE + code, keep, exits, out,
                                 take_rows(share, keep)))
        return branches
    if isinstance(el, ThinLens):
        rows, out = refract_thin_lens(el, u, v, directions)
        return [(_LENS, rows, take_rows(points, rows),
                 el.pose.to_world_dirs(normalize(out)), take_rows(weights, rows))]
    if isinstance(el, ConvexMirror):
        return [(_MIRROR, None, points,
                 reflect_convex_mirror(el, points, directions), weights)]
    if isinstance(el, HalfMirror):
        reflected = reflect_rows(directions, el.pose.normal)
        branches = []
        for code, out, share in zip((_REFLECT, _TRANSMIT), (reflected, directions),
                                    split_weights(weights, el.reflectance)):
            keep = None if cutoff <= 0.0 else subset(share >= cutoff)
            if keep is None or len(keep):
                branches.append((code, keep, take_rows(points, keep),
                                 take_rows(out, keep), take_rows(share, keep)))
        return branches
    if isinstance(el, (Screen, Absorber)):
        return []
    raise TypeError(f"no interaction for element {type(el).__name__}")


def _hit(ray: Ray, el, what: str):
    """The one-row (points, u, v) of a ray's hit on `el`, else NoIntersection."""
    hits = nearest_hits((el,), ray.origin[None], ray.direction[None], -1)[2]
    if hits[0] is None:
        raise NoIntersection(f"ray misses {what} {el.ident!r}")
    return hits[0].at(None)


def _leaving(ray: Ray, el, what: str) -> list:
    """The rays leaving `el` where `ray` hits it, one per branch taking it."""
    point, u, v = _hit(ray, el, what)
    return [replace(ray, origin=exits[0], direction=out[0], weight=float(w[0]),
                    mode=BRANCH_MODES[code] or ray.mode)
            for code, _, exits, out, w in leave(el, point, u, v, ray.direction[None],
                                                np.array([ray.weight]))
            if len(w)]


def thin_lens_transform(ray: Ray, lens: ThinLens) -> Ray:
    """Refract a ray through an ideal thin lens (see refract_thin_lens)."""
    passed = _leaving(ray, lens, "lens")
    if not passed:
        raise NoIntersection(f"ray misses the clear aperture of lens {lens.ident!r}")
    return passed[0]


def half_mirror_interact(ray: Ray, mirror: HalfMirror):
    """Split a ray on a half mirror into (reflected, transmitted).

    The two branch weights sum to the incident weight exactly.
    """
    return tuple(_leaving(ray, mirror, "half mirror"))


def convex_mirror_transform(ray: Ray, mirror: ConvexMirror) -> Ray:
    """Specular reflection off the combiner cap (flat when a_mag = 1)."""
    return _leaving(ray, mirror, "mirror")[0]


def tmd_transform(ray: Ray, plate: TmdPlate, mode: str) -> Ray:
    """Carry a ray through the plate for an already chosen interaction mode
    (see plate_exit)."""
    if mode not in BRANCHES[_PLATE:]:
        raise ValueError(f"unknown plate mode {mode!r}")
    point, u, v = _hit(ray, plate, "plate")
    local = plate.pose.to_local_dirs(ray.direction[None])
    code = BRANCHES.index(mode)
    exits, out = plate_exit(plate, point, u, v, local, code - _PLATE)
    return replace(ray, origin=exits[0], direction=out[0], mode=BRANCH_MODES[code])


def sample_screen(screen: Screen, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Radiance of each row of local (u, v) screen coordinates: bilinear
    between texel centres; past the borders the edge texels hold.  No bounds
    check; a NaN or infinite coordinate gives a NaN row."""
    # The same IEEE operations as the plain bilinear form, in its order,
    # done in place on few buffers.
    w, h = screen.extent
    x = u + 0.5 * w  # su, then x, then fx
    x /= w
    y = v + 0.5 * h  # sv, then y, then fy
    y /= h
    if screen.flip_uv[0]:
        np.subtract(1.0, x, out=x)
    if screen.flip_uv[1]:
        np.subtract(1.0, y, out=y)
    rows, cols = screen.image.shape
    x *= cols
    x -= 0.5
    np.subtract(1.0, y, out=y)
    y *= rows
    y -= 0.5
    x0 = np.floor(x)
    y0 = np.floor(y)
    x -= x0
    y -= y0
    # Texel (y, x) sits at (y + 1, x + 1) of the edge-padded buffer, so a
    # corner clamped to [-1, last] reads the texels the border clamps to.
    # fmax/fmin take a NaN corner to -1, whose fx or fy is NaN anyway.
    np.fmin(np.fmax(x0, -1.0, out=x0), cols - 1, out=x0)
    np.fmin(np.fmax(y0, -1.0, out=y0), rows - 1, out=y0)
    y0 *= cols + 2
    y0 += x0
    i = y0.astype(np.intp)
    i += cols + 3  # flat index of the corner's texel; its row is cols + 2 long
    img = screen._texels.ravel()
    g = np.subtract(1.0, x, out=x0)
    top = img.take(i)
    top *= g
    right = img[1:].take(i)
    right *= x
    top += right
    bot = img[cols + 2:].take(i)
    bot *= g
    right = img[cols + 3:].take(i)
    right *= x
    bot += right
    top *= np.subtract(1.0, y, out=g)
    bot *= y
    top += bot
    return top
