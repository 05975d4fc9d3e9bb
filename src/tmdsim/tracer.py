"""Non-sequential forward ray tracer, batched by bounce.

Rays walk the scene by nearest intersection.  The kernel holds every live
ray of a bundle as rows of arrays (origin, direction, weight, mode, ray id,
path id) and advances all of them one bounce per pass: one (K, N) matrix of
hit distances over the K surfaces and the eye, an argmin for the nearest,
then one batch interaction per element.  Each row goes through the same
floating-point operations as a ray traced on its own, so a bundle is bit
for bit independent of how its rays are batched.

Half mirrors branch into a path tree: the stronger branch continues the
parent path, the weaker one becomes a child path.  Plate interactions are
chosen per ray from a counter-based random stream keyed by (seed, ray
index, bounce index).  Bundle directions come from a fixed low-discrepancy
sequence over the emission cone, so results never depend on scheduling;
`workers` is still accepted and validated but starts no pool.

A bundle's statistics and terminal rays are computed with the trace; the
`TracePath` trees of `BundleResult.paths` are built from the per-bounce
segment log on first access.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .elements import (Absorber, ConvexMirror, HalfMirror, PLATE_INTERACTIONS,
                       Screen, ThinLens, TmdPlate, classify_plate_modes,
                       plate_exit, reflect_convex_mirror, refract_thin_lens,
                       sphere_cap_hits, split_half_mirror)
# Re-exported per-ray forms: profilers that wrap names in this module
# (perfbench/tracing.py) look them up here.  The kernel calls the batch forms.
from .elements import (classify_tmd_mode, convex_mirror_transform,  # noqa: F401
                       half_mirror_interact, thin_lens_transform, tmd_transform)
from .errors import EmptySpot, InvalidGeometry, UsageError
from .geometry import (MODE_DOUBLE, MODE_PASS, MODE_PRIMARY, MODE_SINGLE,
                       WEIGHT_CUTOFF, Pose, Ray, advanced_rows, normalize_rows,
                       orthonormal_frame, plane_crossings, plane_hits,
                       sequential_sum)
from .geometry import advanced, intersect_plane  # noqa: F401
from .scene import Scene

WORKERS_ENV = "TMDSIM_WORKERS"

TERMINAL_ABSORBED = "absorbed"
TERMINAL_ESCAPED = "escaped"
TERMINAL_REACHED_EYE = "reached_eye"
TERMINAL_MAX_BOUNCES = "max_bounces"

_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer on uint64 arrays; all arithmetic wraps at 64 bits.
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_draws(seed: int, ray_ids: np.ndarray, bounce: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1), one per uint64 ray id, keyed by
    (seed, ray id, bounce)."""
    key = _mix64(np.array([seed & _MASK64], dtype=np.uint64))
    h = _mix64(_mix64(key ^ ray_ids) ^ np.uint64(bounce & _MASK64))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def uniform_draw(seed: int, ray_index: int, bounce: int) -> float:
    """Deterministic uniform in [0, 1) keyed by (seed, ray, bounce)."""
    ids = np.array([ray_index & _MASK64], dtype=np.uint64)
    return float(uniform_draws(seed, ids, bounce)[0])


@dataclass(frozen=True)
class RngStream:
    """Per-ray random stream; draws are pure functions of the key."""

    seed: int
    ray_index: int

    def draw(self, bounce: int) -> float:
        return uniform_draw(self.seed, self.ray_index, bounce)


# R2 additive recurrence (plastic constant); fixed, index-addressable.
_R2_A1 = 0.7548776662466927
_R2_A2 = 0.5698402909980532


def r2_sequence(n: int, start: int = 0) -> np.ndarray:
    """(n, 2) low-discrepancy points in [0, 1)."""
    i = np.arange(start + 1, start + n + 1, dtype=np.float64)
    return np.stack([(0.5 + _R2_A1 * i) % 1.0, (0.5 + _R2_A2 * i) % 1.0], axis=1)


@dataclass(frozen=True)
class Cone:
    """Emission cone: axis direction plus half angle in radians."""

    axis: np.ndarray
    half_angle: float


def cone_directions(cone: Cone, n: int) -> np.ndarray:
    """n unit directions filling the cone, uniform in solid angle, from the
    fixed low-discrepancy sequence (ray i always gets the same direction)."""
    if not 0 < cone.half_angle <= math.pi:
        raise ValueError("cone half angle must lie in (0, pi]")
    try:
        R = orthonormal_frame(cone.axis)
    except InvalidGeometry:
        # The default up hint is parallel to an axis along +-y.
        R = orthonormal_frame(cone.axis, up=(0.0, 0.0, 1.0))
    uv = r2_sequence(n)
    cos_t = 1.0 - uv[:, 0] * (1.0 - math.cos(cone.half_angle))
    sin_t = np.sqrt(np.maximum(1.0 - cos_t ** 2, 0.0))
    phi = 2.0 * math.pi * uv[:, 1]
    local = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
    return local @ R.T


@dataclass(frozen=True)
class TraceSegment:
    """One flight leg: the ray in flight, what it hit and what happened there.
    `point` is where the next leg starts (for pitched plates that is the
    quantized cell centre, not the geometric hit)."""

    ray: Ray
    element: Optional[str]
    interaction: str
    point: Optional[np.ndarray]


@dataclass
class TracePath:
    segments: list
    terminal: str
    children: list = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


# Segment labels; the kernel logs indices into this tuple.  Plate code c
# (an index into PLATE_INTERACTIONS) other than absorption is label
# _PLATE + c.
_LABELS = ("faded", "max_bounces", "escaped", "reached_eye", "screen",
           "absorbed", "lens", "half_mirror_reflect", "half_mirror_transmit",
           "mirror_reflect") + PLATE_INTERACTIONS[:4]
(_FADED, _MAX_BOUNCES, _ESCAPED, _REACHED_EYE, _SCREEN, _ABSORBED, _LENS,
 _REFLECT, _TRANSMIT, _MIRROR, _PLATE) = range(11)
_PLATE_ABSORB = PLATE_INTERACTIONS.index("absorbed")
_TERMINALS = (TERMINAL_ABSORBED, TERMINAL_MAX_BOUNCES, TERMINAL_ESCAPED,
              TERMINAL_REACHED_EYE)
# Terminal index of each label that ends a path, else -1.
_TERMINAL_OF = np.array([0, 1, 2, 3, 0, 0] + [-1] * (len(_LABELS) - 6))
_PROPAGATING = (1, 2, 3)  # terminals whose last ray is still in flight
_MODES = (MODE_PRIMARY, MODE_DOUBLE, MODE_SINGLE, MODE_PASS)
_PLATE_MODE = np.array([1, 2, 2, 3])  # mode index per non-absorbed plate code


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BundleResult:
    """A traced bundle: its seed, statistics and the kernel's segment log.

    Path ids number the paths in creation order: the emitted rays first,
    then half-mirror children as they spawn.  `dfs` lists the path ids in
    depth-first order (a path, then its children in spawn order) and `ends`
    the log row of each path's terminal segment in that order.  `paths`,
    one TracePath tree per emitted ray, is built from the log on first
    access."""

    def __init__(self, log: list, parents: list, idents: list, modes: list,
                 seed: int):
        self.seed = seed
        self.modes = modes
        self.idents = idents
        self.parents = np.concatenate(parents)
        self.n_roots = len(parents[0])
        (self.pid, self.step, self.label, self.elem, self.origin,
         self.direction, self.weight, self.mode, self.point) = (
            np.concatenate(column) for column in zip(*log))
        ends = np.flatnonzero(_TERMINAL_OF[self.label] >= 0)
        self.path_end = np.empty(len(self.parents), dtype=np.int64)
        self.path_end[self.pid[ends]] = ends
        self.dfs = self._dfs_order()
        self.ends = self.path_end[self.dfs]
        self.stats = _bundle_stats(self)
        self._paths = None

    def _dfs_order(self) -> np.ndarray:
        if len(self.parents) == self.n_roots:
            return np.arange(self.n_roots)
        children = [[] for _ in self.parents]
        for child, parent in enumerate(self.parents.tolist()):
            if parent >= 0:
                children[parent].append(child)
        order = []
        stack = list(range(self.n_roots - 1, -1, -1))
        while stack:
            path = stack.pop()
            order.append(path)
            stack.extend(reversed(children[path]))
        return np.array(order)

    def rays(self, rows: np.ndarray) -> list:
        """Ray objects of the logged in-flight rays at `rows`, bit for bit."""
        names = self.modes
        return [Ray.from_unit(o, d, w, names[m]) for o, d, w, m in zip(
            _read_only(self.origin[rows]), _read_only(self.direction[rows]),
            self.weight[rows].tolist(), self.mode[rows].tolist())]

    @property
    def paths(self) -> list:
        if self._paths is None:
            segments = [[] for _ in self.parents]
            order = np.lexsort((self.step, self.pid))
            points = _read_only(self.point[order])
            idents = self.idents + [None]
            for pid, ray, elem, label, point, missing in zip(
                    self.pid[order].tolist(), self.rays(order),
                    self.elem[order].tolist(), self.label[order].tolist(),
                    points, np.isnan(points[:, 0]).tolist()):
                segments[pid].append(TraceSegment(
                    ray, idents[elem], _LABELS[label], None if missing else point))
            terminals = _TERMINAL_OF[self.label[self.path_end]].tolist()
            paths = [TracePath(seg, _TERMINALS[t])
                     for seg, t in zip(segments, terminals)]
            for child, parent in enumerate(self.parents.tolist()):
                if parent >= 0:
                    paths[parent].children.append(paths[child])
            self._paths = paths[:self.n_roots]
        return self._paths

    def propagating(self, mode: Optional[str]) -> np.ndarray:
        """Log rows of the last in-flight rays of paths that end escaped,
        at the eye or at the bounce budget, in depth-first path order;
        `mode` keeps only rays carrying that history tag."""
        ends = self.ends
        keep = np.isin(_TERMINAL_OF[self.label[ends]], _PROPAGATING)
        if mode is not None:
            keep &= self.mode[ends] == (self.modes.index(mode)
                                         if mode in self.modes else -1)
        return ends[keep]


def _hit_distances(surface, origins, directions):
    if isinstance(surface, ConvexMirror) and not surface.flat:
        return sphere_cap_hits(surface, origins, directions)
    return plane_hits(origins, directions, surface.pose, surface.extent)


def _eye_distances(eye, origins, directions):
    t, _, u, v = plane_crossings(origins, directions, eye.pose)
    t[u * u + v * v > (0.5 * eye.aperture_diameter) ** 2] = np.inf
    return t


def _trace(scene: Scene, origins, directions, weights, mode: str, ray_ids,
           seed: int, max_bounces: int) -> BundleResult:
    """Trace rays (rows) to their terminals, all live rays one bounce per
    pass.  Every ray alive at pass k has made k interactions."""
    surfaces = scene.surfaces
    eye_k = len(surfaces)
    modes = list(_MODES) if mode in _MODES else list(_MODES) + [mode]
    n = len(origins)
    O, D, W = origins, directions, weights
    M = np.full(n, modes.index(mode))
    rid = ray_ids
    pid = np.arange(n)
    parents = [np.full(n, -1)]
    log = []
    step = 0
    while len(pid):
        n = len(pid)
        label = np.full(n, _FADED)
        elem = np.full(n, -1)
        point = np.full((n, 3), np.nan)
        live = np.flatnonzero(W >= WEIGHT_CUTOFF)
        cont = np.zeros(n, dtype=bool)
        out_dir = np.empty((n, 3))
        out_w = W.copy()
        out_m = M.copy()
        spawned = []
        if step >= max_bounces:
            label[live] = _MAX_BOUNCES
        elif len(live):
            o, d = O[live], D[live]
            T = np.full((eye_k + 1, len(live)), np.inf)
            for k, surface in enumerate(surfaces):
                t = _hit_distances(surface, o, d)
                if t is not None:
                    T[k] = t
            T[eye_k] = _eye_distances(scene.eye, o, d)
            # argmin keeps the first of equal distances, so an earlier
            # surface wins a tie and the eye (last row) must be nearer.
            near = np.argmin(T, axis=0)
            t = T[near, np.arange(len(live))]
            hit = np.isfinite(t)
            label[live[~hit]] = _ESCAPED
            live, near, t = live[hit], near[hit], t[hit]
            elem[live] = near
            point[live] = O[live] + t[:, None] * D[live]
            for k in np.unique(near).tolist():
                rows = live[near == k]
                if k == eye_k:
                    label[rows] = _REACHED_EYE
                    continue
                surface = surfaces[k]
                p, d = point[rows], D[rows]
                if isinstance(surface, Screen):
                    label[rows] = _SCREEN
                elif isinstance(surface, Absorber):
                    label[rows] = _ABSORBED
                elif isinstance(surface, ThinLens):
                    clear, out = refract_thin_lens(surface, p, d)
                    label[rows] = np.where(clear, _LENS, _ABSORBED)
                    cont[rows[clear]] = True
                    out_dir[rows] = out
                elif isinstance(surface, HalfMirror):
                    reflected, w_r, w_t = split_half_mirror(surface, d, W[rows])
                    keep = (w_r >= w_t)[:, None]
                    label[rows] = np.where(keep[:, 0], _REFLECT, _TRANSMIT)
                    cont[rows] = True
                    out_dir[rows] = np.where(keep, reflected, d)
                    out_w[rows] = np.where(keep[:, 0], w_r, w_t)
                    child_w = np.where(keep[:, 0], w_t, w_r)
                    spawn = child_w >= WEIGHT_CUTOFF
                    spawned.append((rows[spawn], np.where(keep, d, reflected)[spawn],
                                    child_w[spawn]))
                elif isinstance(surface, ConvexMirror):
                    label[rows] = _MIRROR
                    cont[rows] = True
                    out_dir[rows] = reflect_convex_mirror(surface, p, d)
                elif isinstance(surface, TmdPlate):
                    local = surface.pose.to_local_dirs(d)
                    codes = classify_plate_modes(
                        surface, local, uniform_draws(seed, rid[rows], step))
                    kept = codes != _PLATE_ABSORB
                    label[rows[~kept]] = _ABSORBED
                    rows, codes = rows[kept], codes[kept]
                    point[rows], out_dir[rows] = plate_exit(
                        surface, p[kept], local[kept], codes)
                    label[rows] = _PLATE + codes
                    out_m[rows] = _PLATE_MODE[codes]
                    cont[rows] = True
                else:  # pragma: no cover - scene validation prevents this
                    raise TypeError(f"untraceable element {type(surface).__name__}")
        log.append((pid, np.full(n, step), label, elem, O, D, W, M, point))

        # Survivors continue their paths; spawned branches start new ones.
        go = np.flatnonzero(cont)
        src = np.concatenate([go] + [rows for rows, _, _ in spawned])
        n_new = len(src) - len(go)
        first = sum(len(p) for p in parents)
        parents.append(pid[src[len(go):]])
        exit_dir = np.concatenate([out_dir[go]] + [dirs for _, dirs, _ in spawned])
        O, D = advanced_rows(point[src], normalize_rows(exit_dir))
        W = np.concatenate([out_w[go]] + [w for _, _, w in spawned])
        M = out_m[src]
        rid = rid[src]
        pid = np.concatenate([pid[go], np.arange(first, first + n_new)])
        step += 1
    idents = [s.ident for s in surfaces] + [scene.eye.ident]
    return BundleResult(log, parents, idents, modes, seed)


def trace_ray(scene: Scene, ray: Ray, max_bounces: int = 16,
              rng: Optional[RngStream] = None) -> TracePath:
    """Trace one ray to a terminal, branching at half mirrors.

    Plate modes are drawn from the rng stream at the current bounce index.
    Branches below the weight cutoff are never spawned, and a ray whose own
    weight sinks below the cutoff terminates as absorbed.
    """
    if rng is None:
        rng = RngStream(0, 0)
    ids = np.array([rng.ray_index & _MASK64], dtype=np.uint64)
    return _trace(scene, ray.origin[None], ray.direction[None],
                  np.array([ray.weight]), ray.mode, ids, rng.seed,
                  max_bounces).paths[0]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else the TMDSIM_WORKERS variable,
    else 1.  Outputs never depend on it; only wall time does.  Raises
    UsageError when the variable is not an integer."""
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "1") or "1"
        try:
            workers = int(text)
        except ValueError:
            raise UsageError(f"{WORKERS_ENV} must be an integer, "
                             f"got {text!r}") from None
    return max(1, int(workers))


def _first_seen(codes: np.ndarray) -> list:
    """Distinct values of `codes` in order of first appearance."""
    _, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)].tolist()


def _bundle_stats(bundle: BundleResult) -> dict:
    # Every dict lists its keys in order of first appearance in depth-first
    # path order (a path's segments, then its children); the mode weights
    # are summed sequentially in that order.
    rank = np.empty_like(bundle.dfs)
    rank[bundle.dfs] = np.arange(len(bundle.dfs))
    labels = bundle.label[np.lexsort((bundle.step, rank[bundle.pid]))]
    counts = np.bincount(labels, minlength=len(_LABELS))
    interactions = {_LABELS[i]: int(counts[i]) for i in _first_seen(labels)}
    ends = bundle.ends
    terminal = _TERMINAL_OF[bundle.label[ends]]
    mode = bundle.mode[ends]
    weight = bundle.weight[ends]
    terminals = {_TERMINALS[t]: int(np.count_nonzero(terminal == t))
                 for t in _first_seen(terminal)}
    mode_weight = {bundle.modes[m]: float(sequential_sum(weight[mode == m]))
                   for m in _first_seen(mode)}
    # The first pass logs the emitted rays in order.
    emitted = float(sequential_sum(bundle.weight[:bundle.n_roots]))
    return {"emitted_weight": emitted, "interactions": interactions,
            "terminals": terminals, "mode_weight": mode_weight}


def trace_bundle(scene: Scene, source_point, n_rays: int, cone: Cone,
                 seed: int = 42, max_bounces: int = 16,
                 workers: Optional[int] = None) -> BundleResult:
    """Trace a cone of rays from a point source.

    Ray i always takes direction i of the cone sequence and random stream
    (seed, i), so the result is identical for any worker count (`workers`
    is validated and otherwise unused: the batch runs in one thread).
    """
    if n_rays <= 0:
        raise ValueError("n_rays must be positive")
    resolve_workers(workers)
    source = np.asarray(source_point, dtype=np.float64)
    directions = normalize_rows(cone_directions(cone, n_rays))
    origins = np.broadcast_to(source, (n_rays, 3)).copy()
    return _trace(scene, origins, directions, np.ones(n_rays), MODE_PRIMARY,
                  np.arange(n_rays, dtype=np.uint64), seed, max_bounces)


@dataclass(frozen=True)
class SpotDiagram:
    points: np.ndarray  # (n, 2) plane-local coordinates, mm
    rms_radius: float


def terminal_rays(bundle: BundleResult, mode: Optional[str] = None):
    """Final in-flight rays of every path still propagating at its end.

    `mode` restricts the list to rays carrying that interaction history tag
    (e.g. "double_reflect"); None keeps everything.
    """
    return bundle.rays(bundle.propagating(mode))


def spot_diagram(bundle: BundleResult, plane: Pose,
                 mode: Optional[str] = None) -> SpotDiagram:
    """Crossings of the terminal rays with an unbounded plane.

    rms_radius is taken about the centroid.  Raises EmptySpot when no
    terminal ray crosses the plane going forward.
    """
    rows = bundle.propagating(mode)
    t, _, u, v = plane_crossings(bundle.origin[rows], bundle.direction[rows], plane)
    crossing = np.isfinite(t)
    if not crossing.any():
        raise EmptySpot("no terminal ray crosses the spot plane")
    pts = np.stack([u[crossing], v[crossing]], axis=1)
    centred = pts - pts.mean(axis=0)
    return SpotDiagram(pts, float(np.sqrt((centred ** 2).sum(axis=1).mean())))
