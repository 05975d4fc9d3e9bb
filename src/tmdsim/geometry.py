"""Vector, ray and pose primitives shared by every optical element.

Conventions: lengths in millimeters, angles in radians, directions are
unit-norm numpy arrays of shape (3,).  A pose's local w axis is the surface
normal of whatever is attached to it.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateBundle, InvalidGeometry

PLANE_EPS = 1e-9        # smallest accepted ray/surface hit distance, mm
PARALLEL_EPS = 1e-12    # |d.n| below this counts as parallel to the surface
RAY_ADVANCE = 1e-6      # origin advance after every interaction, mm
WEIGHT_CUTOFF = 1e-4    # rays below this weight are dropped
# The envelope of scene numbers, in which no product or quotient of them
# overflows: a length something divides by (or a_mag, a mirror_ratio) lies in
# [MIN_LENGTH, MAX_LENGTH] mm, a position |x| <= MAX_LENGTH, a radiance in
# [0, MAX_RADIANCE].  Direction hints, and a Pose or Ray, take any finite number.
MAX_LENGTH = 1e6
MIN_LENGTH = 1e-6
MAX_RADIANCE = 1e6
# A `max_bounces` budget counts surface hits, the final screen or eye hit
# included: both tracers stop a ray that has already made max_bounces
# interactions before it can hit anything else.
# A ray whose weight is below WEIGHT_CUTOFF leaves the walk at the start of
# a pass, unsearched, in both tracers (the forward tracer logs it faded);
# the interaction table, `elements.leave`, drops no row.

MODE_PRIMARY = "primary"
MODE_DOUBLE = "double_reflect"
MODE_SINGLE = "single_reflect"
MODE_PASS = "pass_through"


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([float(x), float(y), float(z)], dtype=np.float64)


def _length(v: np.ndarray) -> float:
    """sqrt(v @ v); a square that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return math.sqrt(float(v @ v))


def normalize(v) -> np.ndarray:
    """Unit vector along v; raises ValueError on a zero or non-finite v."""
    v = np.asarray(v, dtype=np.float64)
    n = _length(v)
    if not 1e-300 <= n < math.inf:
        # A finite v whose square over- or underflows is taken at unit scale:
        # times the power of two that puts its largest |component| in
        # [0.5, 1), which changes only exponents.
        m = float(np.abs(v).max())
        if not 0.0 < m < math.inf:
            raise ValueError("cannot normalize a zero or non-finite vector")
        v = np.ldexp(v, -math.frexp(m)[1])
        n = _length(v)
    return v / n


# Row forms.  Rays are held as (n, 3) row arrays, and both tracers do their
# row arithmetic through the forms below.  numpy rounds the same sum
# differently depending on how a call is laid out, so the layout is fixed
# here, once, and every form gives a row the same bits whichever rows share
# its batch (a lone row, a pair or the full batch; the per-ray API's one-row
# calls round like any batch):
#
# - Every dot of rows with a fixed 3-vector is a gemv, `(n, 3) @ (3,)` on
#   C-contiguous rows, through `dot_rows`.  numpy sends a one-row
#   `(1, 3) @ (3,)` to dot, which rounds differently, so a lone row is
#   padded to two.  np.vecdot, einsum, an `(n, 3) @ (3, k)` gemm or a
#   `(3, n)` layout would each round some rows differently.
# - A rotation is `d @ R` into the local frame and `d @ R.T` out of it, with
#   R.T held C-contiguous: a one-row product on the transposed view rounds
#   differently from its batch.
# - A per-row scalar or a fixed 3-vector broadcast over rows is computed one
#   column at a time (`along_rows`, `sub_rows`, `normalize_rows`,
#   `reflect_rows`): the same IEEE operation on every element, with long
#   inner loops instead of 3-long ones.
# - Every form writes its rows into a fresh C-ordered (n, 3) array, never
#   one laid out like its input: np.empty_like of a Fortran-ordered array
#   or a stride-0 broadcast gives Fortran order, on which the next gemv
#   rounds differently.  `dot_rows` makes its rows C-contiguous itself.
# - Rays that share their origin (a camera's rays for one aperture sample)
#   may hand it over as one 3-vector: `plane_hits` computes
#   (position - origin).n once, as a one-row `dot_rows`, and `along_rows`
#   broadcasts the origin.  Each ray gets the bits of its origin copied to
#   every row.
#
# Pinned rounding.  Rows are normalized by `normalize_rows` (the square root
# of np.vecdot) or `linalg_normalize_rows` (np.linalg.norm's sum
# (x*x + y*y) + z*z).  The interaction table (`elements.leave`) rounds one way
# for every reader, so both walkers get the same bits for the same hit rows:
# lens exits by `linalg_normalize_rows`, curved-mirror normals by
# `normalize_rows`.  Each walker then rounds only its own inputs, both pinned
# by the goldens: the renderer's camera rays by `linalg_normalize_rows`
# (`normalize_rows` fails 6 render goldens, 4 worker-count checks and the
# full `render_plate` digest), and the forward kernel's exits once more,
# `advanced_rows(start, normalize_rows(d))` (dropping the inner call fails 8
# of the 14 trace goldens and the full `trace_bundles` digest).


def dot_rows(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Dot of each row with a fixed 3-vector, as one gemv on C rows."""
    rows = np.ascontiguousarray(rows)
    if len(rows) == 1:
        return (np.concatenate((rows, rows)) @ vec)[:1]
    return rows @ vec


def _cols(a: np.ndarray):
    """The three columns of (n, 3) rows, or the components of a fixed
    3-vector."""
    return a.T if a.ndim == 2 else a


def along_rows(o: np.ndarray, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """o + t[:, None] * d, either of o and d a fixed 3-vector."""
    out = np.empty((len(t), 3))
    for col, dj, oj in zip(out.T, _cols(d), _cols(o)):
        np.multiply(t, dj, out=col)
        col += oj
    return out


def sub_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b over rows, either of them a fixed 3-vector."""
    out = np.empty((len(a if a.ndim == 2 else b), 3))
    for col, aj, bj in zip(out.T, _cols(a), _cols(b)):
        np.subtract(aj, bj, out=col)
    return out


def take_rows(a: np.ndarray, rows: Optional[np.ndarray]) -> np.ndarray:
    """The rows of `a` at the indices `rows` (all of `a` when None)."""
    return a if rows is None else np.take(a, rows, axis=0)


def subset(mask: np.ndarray) -> Optional[np.ndarray]:
    """Indices of the true rows, or None when every row is true."""
    idx = np.flatnonzero(mask)
    return None if len(idx) == len(mask) else idx


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """`normalize` applied to each row, with its bits for a row of length in
    [1e-300, inf).  A shorter row raises ValueError, where `normalize`
    rescales it: `normalize([1e-301, 0, 0])` is [1, 0, 0]."""
    n = np.sqrt(np.vecdot(v, v))
    if not ((n >= 1e-300) & (n < math.inf)).all():
        raise ValueError("cannot normalize a zero or non-finite vector")
    out = np.empty((len(v), 3))
    for j in range(3):
        np.divide(v[:, j], n, out=out[:, j])
    return out


def linalg_normalize_rows(v: np.ndarray) -> np.ndarray:
    """v / np.linalg.norm(v, axis=1, keepdims=True), in place: the norm is
    sqrt((x*x + y*y) + z*z) a column at a time, np.linalg.norm's sum."""
    n = v[:, 0] * v[:, 0]
    sq = np.empty_like(n)
    for j in (1, 2):
        np.multiply(v[:, j], v[:, j], out=sq)
        n += sq
    np.sqrt(n, out=n)
    for j in range(3):
        v[:, j] /= n
    return v


def reflect_rows(directions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Mirror each row about a unit normal, d - 2(d.n)n, for one (3,) normal
    (d.n by `dot_rows`' gemv) or one per row (by np.vecdot)."""
    s = 2.0 * (dot_rows(directions, normals) if normals.ndim == 1
               else np.vecdot(directions, normals))
    out = np.empty((len(directions), 3))
    for col, nj, dj in zip(out.T, _cols(normals), directions.T):
        np.multiply(s, nj, out=col)
        np.subtract(dj, col, out=col)
    return out


def reflect(direction, normal) -> np.ndarray:
    """Mirror a direction about a unit surface normal: d - 2(d.n)n."""
    d = np.asarray(direction, dtype=np.float64)
    return reflect_rows(d[None], np.asarray(normal, dtype=np.float64))[0]


def require_finite(what: str, value, low: float = -math.inf,
                   high: float = math.inf) -> None:
    """Raise InvalidGeometry unless every number in `value` is finite and in
    [low, high]."""
    a = np.asarray(value, dtype=np.float64)
    if not (np.isfinite(a) & (a >= low) & (a <= high)).all():
        span = "" if -low == high == math.inf else f" in [{low:g}, {high:g}]"
        raise InvalidGeometry(f"{what} must be finite{span}, got "
                              f"{np.asarray(value).tolist()}")


def require_magnitude(what: str, value, low: float = 0.0) -> None:
    """require_finite on |value| in [low, MAX_LENGTH]: a position or offset,
    or with low = MIN_LENGTH a signed length."""
    require_finite(f"|{what}|", np.abs(np.asarray(value, dtype=np.float64)),
                   low, MAX_LENGTH)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Ray:
    """A directed half-line carrying a weight and an interaction-mode tag.
    A non-finite origin or direction raises InvalidGeometry, a zero
    direction ValueError."""

    origin: np.ndarray
    direction: np.ndarray
    weight: float = 1.0
    mode: str = MODE_PRIMARY

    def __post_init__(self):
        require_finite("ray origin", self.origin)
        require_finite("ray direction", self.direction)
        object.__setattr__(self, "origin", _frozen(self.origin))
        object.__setattr__(self, "direction", _frozen(normalize(self.direction)))
        w = float(self.weight)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"ray weight {w} outside [0, 1]")
        object.__setattr__(self, "weight", w)

    @classmethod
    def from_unit(cls, origin: np.ndarray, direction: np.ndarray,
                  weight: float, mode: str) -> "Ray":
        """Ray whose read-only float64 origin and unit direction are kept as
        given, bit for bit: batch kernels that already applied every
        normalization `Ray` would rebuild their rays this way."""
        ray = object.__new__(cls)
        object.__setattr__(ray, "origin", origin)
        object.__setattr__(ray, "direction", direction)
        object.__setattr__(ray, "weight", weight)
        object.__setattr__(ray, "mode", mode)
        return ray


class RayRows(Sequence):
    """Read-only sequence of `Ray`s held as rows: (n, 3) origins, (n, 3)
    unit directions, n weights and n mode names.

    Indexing and iteration give `Ray.from_unit` objects over row views,
    bit for bit the rows given; a slice gives another RayRows.  The
    `origins` and `directions` arrays are read-only copies, which batch
    maths (`closest_point_to_rays`) uses without building a `Ray`.
    """

    def __init__(self, origins, directions, weights, modes):
        self.origins = _frozen(origins)
        self.directions = _frozen(directions)
        self.weights = _frozen(weights)
        self.modes = np.array(modes, dtype=object)
        self.modes.flags.writeable = False
        n = len(self.weights)
        if not (self.origins.shape == self.directions.shape == (n, 3)
                and self.modes.shape == (n,)):
            raise ValueError("ray rows need (n, 3) origins and directions "
                             "and n weights and modes")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RayRows(self.origins[i], self.directions[i],
                           self.weights[i], self.modes[i])
        i = operator.index(i)
        return Ray.from_unit(self.origins[i], self.directions[i],
                             float(self.weights[i]), self.modes[i])

    def __iter__(self):
        for o, d, w, m in zip(self.origins, self.directions,
                              self.weights.tolist(), self.modes.tolist()):
            yield Ray.from_unit(o, d, w, m)


def advanced(ray: Ray) -> Ray:
    """Nudge a ray forward along its own line to avoid self-intersection."""
    return replace(ray, origin=ray.origin + RAY_ADVANCE * ray.direction)


def nudged_rows(origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Origins moved RAY_ADVANCE along their unit directions (rows)."""
    return origins + RAY_ADVANCE * directions


def advanced_rows(origins: np.ndarray, directions: np.ndarray):
    """`advanced` for rays given as rows with unit directions: the nudged
    origins and the directions re-normalized as `Ray` does on construction."""
    return nudged_rows(origins, directions), normalize_rows(directions)


def _cross(a, b) -> tuple:
    """a x b on Python floats: np.cross's products and differences, so the
    same bits, without its per-call array set-up."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def orthonormal_frame(w, up=(0.0, 1.0, 0.0)) -> np.ndarray:
    """3x3 rotation whose columns are (u, v, w) for a given w axis and up
    hint.  Raises InvalidGeometry when the hint is zero or parallel to w,
    |up x w| < 1e-9 |up|, whatever its length."""
    w = normalize(w).tolist()
    up = np.asarray(up, dtype=np.float64)
    u = np.array(_cross(up.tolist(), w))
    # Both lengths are taken at the hint's unit scale (times the power of two
    # that `normalize` uses), so neither square under- or overflows and a
    # zero cross product is refused.  np.linalg.norm(u) of a 3-vector is
    # this same sqrt of u @ u.
    scale = -math.frexp(float(np.abs(up).max()))[1]
    length = _length(np.ldexp(u, scale))
    if length < 1e-9 * _length(np.ldexp(up, scale)) or length == 0.0:
        raise InvalidGeometry("up direction is parallel to the surface normal")
    u = normalize(u).tolist()
    v = _cross(w, u)
    return np.array([[u[0], v[0], w[0]], [u[1], v[1], w[1]],
                     [u[2], v[2], w[2]]])


_EYE = _frozen(np.eye(3))
_ORTHO_TOL = 1e-10 + 1e-5 * _EYE  # np.allclose's atol + rtol * |b|


@dataclass(frozen=True)
class Pose:
    """Rigid placement: world position plus a local->world rotation."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        require_finite("pose position", self.position)
        require_finite("pose rotation", self.rotation)
        object.__setattr__(self, "position", _frozen(self.position))
        R = np.array(self.rotation, dtype=np.float64)
        # np.allclose(R @ R.T, np.eye(3), atol=1e-10), written out.
        if R.shape != (3, 3) or not (np.abs(R @ R.T - _EYE) <= _ORTHO_TOL).all():
            raise InvalidGeometry("pose rotation is not orthonormal")
        object.__setattr__(self, "rotation", _frozen(R))
        # R.T held C-contiguous for `to_world_dirs` (see the row forms).
        object.__setattr__(self, "_rotation_t",
                           _frozen(np.ascontiguousarray(R.T)))

    @classmethod
    def identity(cls, position=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(np.asarray(position, dtype=np.float64), np.eye(3))

    @classmethod
    def facing(cls, position, normal, up=(0.0, 1.0, 0.0)) -> "Pose":
        """Pose whose w axis points along `normal`."""
        return cls(np.asarray(position, dtype=np.float64),
                   orthonormal_frame(normal, up))

    @property
    def u_axis(self) -> np.ndarray:
        return self.rotation[:, 0]

    @property
    def v_axis(self) -> np.ndarray:
        return self.rotation[:, 1]

    @property
    def normal(self) -> np.ndarray:
        return self.rotation[:, 2]

    def to_world_point(self, p) -> np.ndarray:
        return self.position + self.rotation @ np.asarray(p, dtype=np.float64)

    def to_world_dir(self, d) -> np.ndarray:
        return self.rotation @ np.asarray(d, dtype=np.float64)

    def to_local_dirs(self, d: np.ndarray) -> np.ndarray:
        """World directions given as rows, in the local frame."""
        return d @ self.rotation

    def to_world_dirs(self, d: np.ndarray) -> np.ndarray:
        """Local directions given as rows, in the world frame."""
        return d @ self._rotation_t


class PlaneHit(NamedTuple):
    t: float
    point: np.ndarray
    uv: tuple


class Crossings(NamedTuple):
    """Where rays meet a surface: a shape on the plane of a pose (see
    plane_hits; plane_crossings is the unbounded plane) or a curved cap
    (elements.sphere_cap_hits).

    t is each ray's hit distance, inf for a ray that does not count: on a
    plane, one parallel to it, crossing it no farther than PLANE_EPS ahead,
    no nearer than its bound or off the shape; on a cap, one that misses
    it.  `rows` indexes the rays that have a crossing point (None when every
    ray has one): those ahead of a plane within their bound, or those that
    hit a cap.  `points` are their crossings and u, v their local
    coordinates, in the order of `rows`.
    """
    t: np.ndarray
    rows: Optional[np.ndarray]
    points: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def at(self, rays: Optional[np.ndarray]):
        """(points, u, v) of the rays at the sorted indices `rays` (every
        ray when None), all of them in `rows`."""
        if self.rows is not None and rays is not None:
            if len(rays) == len(self.rows):
                rays = None  # every ray in `rows`
            else:
                rays = np.searchsorted(self.rows, rays)
        return tuple(take_rows(a, rays) for a in (self.points, self.u, self.v))


def plane_facing(directions: np.ndarray, normal: np.ndarray):
    """(dots, parallel) of rows with a plane normal: each row's d.n, with 1.0
    in place of the rows parallel to the plane, and the mask of those rows,
    or None when no row is parallel."""
    dots = dot_rows(directions, normal)
    parallel = np.abs(dots) < PARALLEL_EPS
    if not parallel.any():
        return dots, None
    return np.where(parallel, 1.0, dots), parallel


def inside_extent(u, v, extent):
    """Mask of the local (u, v) points on a shape centred on the origin: a
    rectangle of full (width, height) `extent`, or a disk whose diameter is
    the one number `extent`.  The edge counts as inside."""
    if np.ndim(extent) == 0:
        return u * u + v * v <= (0.5 * extent) ** 2
    return (np.abs(u) <= 0.5 * extent[0]) & (np.abs(v) <= 0.5 * extent[1])


def plane_hits(origins: np.ndarray, directions: np.ndarray, pose: Pose,
               extent, bound=None, facing=None) -> Optional[Crossings]:
    """The rays' Crossings with a shape centred on the pose, t inf where a
    ray misses it, or None when every ray misses.

    `extent` is a rectangle's full (width, height), or one number, a disk's
    diameter (see inside_extent).  `origins` are rows, or one 3-vector that
    every ray starts from.  Hits farther than PLANE_EPS along the ray, and
    nearer than its `bound` if one is given (one distance per ray; -inf
    rules a ray out), are accepted.  `facing` is plane_facing of the
    directions on the pose's normal, if already computed.  When no ray is
    ahead of the plane within its bound, it returns None before building
    any crossing point; the shape's edges are tested only on the rays ahead
    of the plane, whose points, u and v are kept even off the shape.
    """
    dots, parallel = (plane_facing(directions, pose.normal) if facing is None
                      else facing)
    # One row, (position - origin).n, when the rays share their origin.
    t = dot_rows(sub_rows(pose.position, np.atleast_2d(origins)),
                 pose.normal) / dots
    ahead = t > PLANE_EPS
    if parallel is not None:
        ahead &= ~parallel
    if bound is not None:
        ahead &= t < bound
    if not ahead.any():
        return None
    rows = subset(ahead)
    if rows is not None:
        t[~ahead] = np.inf
    if origins.ndim == 2:
        origins = take_rows(origins, rows)
    points = along_rows(origins, take_rows(t, rows),
                        take_rows(directions, rows))
    rel = sub_rows(points, pose.position)
    u, v = dot_rows(rel, pose.u_axis), dot_rows(rel, pose.v_axis)
    inside = inside_extent(u, v, extent)
    if not inside.any():
        return None
    out = ~inside
    t[out if rows is None else rows[out]] = np.inf
    return Crossings(t, rows, points, u, v)


def plane_crossings(origins: np.ndarray, directions: np.ndarray,
                    pose: Pose) -> Optional[Crossings]:
    """Where each ray meets the unbounded plane of `pose`: plane_hits on a
    rectangle of infinite extent, None when no ray crosses it ahead."""
    return plane_hits(origins, directions, pose, (math.inf, math.inf))


def intersect_plane(ray: Ray, pose: Pose, extent) -> Optional[PlaneHit]:
    """First hit of a ray on a bounded rectangle, or None (see plane_hits)."""
    hit = plane_hits(ray.origin[None], ray.direction[None], pose, extent)
    if hit is None:
        return None
    return PlaneHit(float(hit.t[0]), hit.points[0],
                    (float(hit.u[0]), float(hit.v[0])))


def closest_point_to_rays(rays: Sequence[Ray]):
    """Least-squares point minimising distance to all ray lines.

    `rays` is any sequence of `Ray`; a `RayRows` hands over its origin and
    direction arrays as they are, any other sequence is packed into rows.
    Returns (point, rms_residual).  Raises DegenerateBundle when the normal
    equations are ill-conditioned (fewer than two rays, or a near-parallel
    bundle) or not finite (a NaN direction or origin).
    """
    if len(rays) < 2:
        raise DegenerateBundle("need at least two rays")
    if isinstance(rays, RayRows):
        d, o = rays.directions, rays.origins
    else:
        d = np.array([r.direction for r in rays])
        o = np.array([r.origin for r in rays])
    P = np.einsum("ni,nj->nij", d, d)  # each d_i * d_j, one product
    np.subtract(_EYE, P, out=P)
    A = sequential_sum(P)
    b = sequential_sum(np.matmul(P, o[:, :, None])[:, :, 0])
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise DegenerateBundle("bundle has a non-finite ray; no convergence point")
    if not np.linalg.cond(A) <= 1e12:
        raise DegenerateBundle("bundle is (near-)parallel; no convergence point")
    point = np.linalg.solve(A, b)
    e = np.matmul(P, (point - o)[:, :, None])[:, :, 0]
    sq = float(sequential_sum(np.vecdot(e, e)))
    return point, math.sqrt(sq / len(rays))


def sequential_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis in row order, as a Python loop accumulating
    from 0.0 would (np.sum adds pairwise, which rounds differently).  The
    final + 0.0 turns the -0.0 an all-negative-zero column leaves into the
    loop's +0.0."""
    return np.cumsum(a, axis=0)[-1] + 0.0
