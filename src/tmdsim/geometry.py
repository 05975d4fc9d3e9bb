"""Vector, ray and pose primitives shared by every optical element.

Conventions: lengths in millimeters, angles in radians, directions are
unit-norm numpy arrays of shape (3,).  A pose's local w axis is the surface
normal of whatever is attached to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateBundle, InvalidGeometry

PLANE_EPS = 1e-9        # smallest accepted ray/surface hit distance, mm
PARALLEL_EPS = 1e-12    # |d.n| below this counts as parallel to the surface
RAY_ADVANCE = 1e-6      # origin advance after every interaction, mm
WEIGHT_CUTOFF = 1e-4    # rays below this weight are dropped

MODE_PRIMARY = "primary"
MODE_DOUBLE = "double_reflect"
MODE_SINGLE = "single_reflect"
MODE_PASS = "pass_through"


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([float(x), float(y), float(z)], dtype=np.float64)


def normalize(v) -> np.ndarray:
    """Unit vector along v; raises ValueError on a (near-)zero input."""
    v = np.asarray(v, dtype=np.float64)
    n = math.sqrt(float(v @ v))
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


# Batch forms.  Rays are held as (n, 3) row arrays.  Every 3-vector dot is an
# np.vecdot and every rotation a stacked np.matmul: both round each row
# exactly like the scalar `a @ b` on that row, so a batch result is bit for
# bit the result of the scalar code on each ray.

def normalize_rows(v: np.ndarray) -> np.ndarray:
    """`normalize` applied to each row (same bits per row)."""
    n = np.sqrt(np.vecdot(v, v))
    if (n < 1e-300).any():
        raise ValueError("cannot normalize a zero vector")
    return v / n[:, None]


def reflect_rows(directions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Mirror each row about a unit normal (one (3,) normal or one per row)."""
    return directions - (2.0 * np.vecdot(directions, normals))[:, None] * normals


def reflect(direction, normal) -> np.ndarray:
    """Mirror a direction about a unit surface normal: d - 2(d.n)n."""
    d = np.asarray(direction, dtype=np.float64)
    return reflect_rows(d[None], np.asarray(normal, dtype=np.float64))[0]


def require_finite(what: str, value) -> None:
    """Raise InvalidGeometry unless every number in `value` is finite."""
    if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
        raise InvalidGeometry(f"{what} must be finite, got "
                              f"{np.asarray(value).tolist()}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Ray:
    """A directed half-line carrying a weight and an interaction-mode tag."""

    origin: np.ndarray
    direction: np.ndarray
    weight: float = 1.0
    mode: str = MODE_PRIMARY

    def __post_init__(self):
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

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def advanced(ray: Ray) -> Ray:
    """Nudge a ray forward along its own line to avoid self-intersection."""
    return replace(ray, origin=ray.origin + RAY_ADVANCE * ray.direction)


def advanced_rows(origins: np.ndarray, directions: np.ndarray):
    """`advanced` for rays given as rows with unit directions: the nudged
    origins and the directions re-normalized as `Ray` does on construction."""
    return origins + RAY_ADVANCE * directions, normalize_rows(directions)


def orthonormal_frame(w, up=(0.0, 1.0, 0.0)) -> np.ndarray:
    """3x3 rotation whose columns are (u, v, w) for a given w axis and up hint."""
    w = normalize(w)
    up = np.asarray(up, dtype=np.float64)
    u = np.cross(up, w)
    if np.linalg.norm(u) < 1e-9:
        raise InvalidGeometry("up direction is parallel to the surface normal")
    u = normalize(u)
    v = np.cross(w, u)
    return np.column_stack([u, v, w])


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
        if R.shape != (3, 3) or not np.allclose(R @ R.T, np.eye(3), atol=1e-10):
            raise InvalidGeometry("pose rotation is not orthonormal")
        object.__setattr__(self, "rotation", _frozen(R))

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

    def to_local_point(self, p) -> np.ndarray:
        return self.rotation.T @ (np.asarray(p, dtype=np.float64) - self.position)

    def to_world_point(self, p) -> np.ndarray:
        return self.position + self.rotation @ np.asarray(p, dtype=np.float64)

    def to_local_dir(self, d) -> np.ndarray:
        return self.rotation.T @ np.asarray(d, dtype=np.float64)

    def to_world_dir(self, d) -> np.ndarray:
        return self.rotation @ np.asarray(d, dtype=np.float64)

    def to_local_dirs(self, d: np.ndarray) -> np.ndarray:
        """`to_local_dir` of each row (same bits per row)."""
        return np.matmul(self.rotation.T[None], d[:, :, None])[:, :, 0]

    def to_world_dirs(self, d: np.ndarray) -> np.ndarray:
        """`to_world_dir` of each row (same bits per row)."""
        return np.matmul(self.rotation[None], d[:, :, None])[:, :, 0]

    def uv_of(self, points: np.ndarray):
        """Local (u, v) coordinates of world points given as rows."""
        rel = points - self.position
        return np.vecdot(rel, self.u_axis), np.vecdot(rel, self.v_axis)


class PlaneHit(NamedTuple):
    t: float
    point: np.ndarray
    uv: tuple


def plane_crossings(origins: np.ndarray, directions: np.ndarray, pose: Pose):
    """Where each ray meets the unbounded plane of `pose`.

    Returns (t, points, u, v) over the rows.  t is inf for a ray parallel to
    the plane or crossing it no farther than PLANE_EPS ahead; the other
    values of such a row are meaningless.
    """
    n = pose.normal
    denom = np.vecdot(directions, n)
    parallel = np.abs(denom) < PARALLEL_EPS
    t = np.vecdot(pose.position - origins, n) / np.where(parallel, 1.0, denom)
    ahead = ~parallel & (t > PLANE_EPS)
    t = np.where(ahead, t, np.inf)
    points = origins + np.where(ahead, t, 0.0)[:, None] * directions
    u, v = pose.uv_of(points)
    return t, points, u, v


def plane_hits(origins: np.ndarray, directions: np.ndarray, pose: Pose,
               extent) -> Optional[np.ndarray]:
    """Hit distance of each ray on a bounded rectangle (inf where a ray
    misses), or None when every ray misses.

    `extent` is the full (width, height) of the rectangle centred on the
    pose; hits farther than PLANE_EPS along the ray are accepted.
    """
    t, _, u, v = plane_crossings(origins, directions, pose)
    t[_outside(u, v, extent)] = np.inf
    return t if np.isfinite(t).any() else None


def _outside(u, v, extent):
    return (np.abs(u) > 0.5 * float(extent[0])) | (np.abs(v) > 0.5 * float(extent[1]))


def intersect_plane(ray: Ray, pose: Pose, extent) -> Optional[PlaneHit]:
    """First hit of a ray on a bounded rectangle, or None (see plane_hits)."""
    t, points, u, v = plane_crossings(ray.origin[None], ray.direction[None], pose)
    if t[0] == np.inf or _outside(u, v, extent)[0]:
        return None
    return PlaneHit(float(t[0]), points[0], (float(u[0]), float(v[0])))


def closest_point_to_rays(rays: Sequence[Ray]):
    """Least-squares point minimising distance to all ray lines.

    Returns (point, rms_residual).  Raises DegenerateBundle when the normal
    equations are ill-conditioned (fewer than two rays, or a near-parallel
    bundle).
    """
    if len(rays) < 2:
        raise DegenerateBundle("need at least two rays")
    d = np.array([r.direction for r in rays])
    o = np.array([r.origin for r in rays])
    P = np.eye(3) - d[:, :, None] * d[:, None, :]
    A = sequential_sum(P)
    b = sequential_sum(np.matmul(P, o[:, :, None])[:, :, 0])
    if np.linalg.cond(A) > 1e12:
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
