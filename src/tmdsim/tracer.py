"""Non-sequential forward ray tracer, batched by bounce.

Rays walk the scene by nearest intersection.  The kernel holds every live
ray of a bundle as rows of arrays (origin, direction, weight, mode, ray id,
path id) and advances all of them one bounce per pass: the nearest-hit
search the renderer shares (`elements.nearest_hits`) over the surfaces
and then the eye's round pupil, given the element each ray just left,
then, per element group of the renderer's `elements.hit_groups`, the one
interaction table both tracers read, `elements.leave`, which decides what
leaves the hits from the points and (u, v) of their hit record, a plane's
or a curved cap's.  The cap test and the curved-mirror reflection are the
renderer's, with the same rounding.  Each row goes through the same
floating-point operations as a ray traced on its own, so a bundle is bit
for bit independent of how its rays are batched.

A ray takes its branch as `leave` states; each branch taken is a leg, and
the next pass concatenates the legs.  Two rules are the kernel's own: half
mirrors branch into a path tree (the stronger branch continues the parent
path, the weaker one a child path), and plate branches are drawn per ray
from a counter-based random stream keyed by (seed, ray index, bounce
index).  Bundle directions come from a fixed low-discrepancy sequence over
the emission cone, so results never depend on scheduling; `workers` is
still accepted and validated but starts no pool.

A bundle's statistics and terminal rays are computed with the trace; the
`TracePath` trees of `BundleResult.paths` are built from the per-bounce
segment log on first access.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .elements import (BRANCH_MODES, BRANCHES, HalfMirror, Screen, TmdPlate,
                       hit_groups, leave, nearest_hits)
# Re-exported per-ray forms: profilers that wrap names in this module
# (perfbench/tracing.py) look them up here.  The kernel calls the batch forms.
from .elements import (classify_tmd_mode, convex_mirror_transform,  # noqa: F401
                       half_mirror_interact, thin_lens_transform, tmd_transform)
from .errors import EmptySpot, InvalidGeometry, UsageError
from .geometry import (MODE_DOUBLE, MODE_PASS, MODE_PRIMARY, MODE_SINGLE,
                       WEIGHT_CUTOFF, Pose, Ray, RayRows,
                       advanced_rows, normalize_rows,
                       orthonormal_frame, plane_crossings,
                       require_finite, require_magnitude, sequential_sum, take_rows)
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


# R2 additive recurrence (plastic constant); fixed, index-addressable.
_R2_A1 = 0.7548776662466927
_R2_A2 = 0.5698402909980532


def r2_sequence(n: int, start: int = 0) -> np.ndarray:
    """(n, 2) low-discrepancy points in [0, 1)."""
    i = np.arange(start + 1, start + n + 1, dtype=np.float64)
    # x - floor(x) gives the bits of x % 1.0 for these positive x, faster.
    x = np.stack([0.5 + _R2_A1 * i, 0.5 + _R2_A2 * i], axis=1)
    return x - np.floor(x)


@dataclass(frozen=True)
class Cone:
    """Emission cone: axis direction plus half angle in radians."""

    axis: np.ndarray
    half_angle: float


def cone_directions(cone: Cone, n: int) -> np.ndarray:
    """n unit directions filling the cone, uniform in solid angle, from the
    fixed low-discrepancy sequence (ray i always gets the same direction).
    Raises InvalidGeometry for a non-finite axis or half angle, ValueError
    for a half angle outside (0, pi]."""
    require_finite("cone axis", cone.axis)
    require_finite("cone half angle", cone.half_angle)
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


# Segment labels; the kernel logs indices into this tuple.  A ray that
# leaves an element on branch c of the interaction table (an index into
# elements.BRANCHES) is label _BRANCH + c.
_LABELS = ("faded", "max_bounces", "escaped", "reached_eye", "screen",
           "absorbed") + BRANCHES
_FADED, _MAX_BOUNCES, _ESCAPED, _REACHED_EYE, _SCREEN, _ABSORBED, _BRANCH = range(7)
_TERMINALS = (TERMINAL_ABSORBED, TERMINAL_MAX_BOUNCES, TERMINAL_ESCAPED,
              TERMINAL_REACHED_EYE)
# Terminal index of each label that ends a path, else -1.
_TERMINAL_OF = np.array([0, 1, 2, 3, 0, 0] + [-1] * (len(_LABELS) - 6))
# Whether a path ending on each label ends with its last ray still in
# flight: escaped, at the eye or at the bounce budget.
_PROPAGATES = np.isin(_TERMINAL_OF, (1, 2, 3))
_MODES = (MODE_PRIMARY, MODE_DOUBLE, MODE_SINGLE, MODE_PASS)
# _RETAG[c, m]: the mode index of a ray carrying index m (of _MODES and at
# most one more) that leaves on branch c; m where BRANCH_MODES gives None.
_RETAG = np.array([[_MODES.index(tag) if tag else m for m in range(len(_MODES) + 1)]
                   for tag in BRANCH_MODES])


def dfs_order(parents: np.ndarray, n_roots: int) -> np.ndarray:
    """Path ids in depth-first order: a path, then its children in spawn
    order, each followed by its own subtree.

    `parents` holds each path's parent id, -1 for the `n_roots` roots that
    come first; a child's id is above its parent's, and siblings' ids rise
    in spawn order.  When every child's parent is a root, the order is a
    stable sort by each path's root.  Otherwise each path's key is its
    ancestor chain read from the root, padded with -1, so a lexsort puts a
    parent before its children.
    """
    if n_roots == len(parents):  # no children: creation order
        return np.arange(n_roots)
    if (parents[n_roots:] < n_roots).all():
        root = parents.copy()
        root[:n_roots] = np.arange(n_roots)
        return np.argsort(root, kind="stable")
    chain = [np.arange(len(parents))]
    while (chain[-1] >= 0).any():
        up = chain[-1]
        chain.append(np.where(up >= 0, parents[up], -1))
    chain = np.array(chain[:-1])  # row k: each path's k-th ancestor, or -1
    depth = np.count_nonzero(chain >= 0, axis=0) - 1
    k = depth - np.arange(len(chain))[:, None]  # chain row of root level j
    keys = np.where(k >= 0, np.take_along_axis(chain, np.maximum(k, 0), 0), -1)
    return np.lexsort(keys[::-1])


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
        self.dfs = dfs_order(self.parents, self.n_roots)
        self.ends = self.path_end[self.dfs]
        self.stats = _bundle_stats(self)
        self._paths = None
        self._names = np.array(modes, dtype=object)

    def rays(self, rows: np.ndarray) -> RayRows:
        """The logged in-flight rays at `rows`, bit for bit."""
        return RayRows(take_rows(self.origin, rows),
                       take_rows(self.direction, rows),
                       self.weight[rows], self._names[self.mode[rows]])

    @property
    def paths(self) -> list:
        if self._paths is None:
            segments = [[] for _ in self.parents]
            order = np.lexsort((self.step, self.pid))
            points = self.point[order]
            points.flags.writeable = False
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
        keep = _PROPAGATES[self.label[ends]]
        if mode is not None:
            keep &= self.mode[ends] == (self.modes.index(mode)
                                         if mode in self.modes else -1)
        return ends[keep]


def _rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows] for sorted distinct indices `rows`: `a` itself, uncopied,
    when they are all of its rows."""
    return take_rows(a, None if len(rows) == len(a) else rows)


def _put(out: np.ndarray, rows: np.ndarray, values) -> None:
    """out[rows] = values for sorted distinct indices `rows`, as one block
    copy when they are all of its rows."""
    if len(rows) == len(out):
        out[...] = values
    else:
        out[rows] = values


def _trace(scene: Scene, origins, directions, weights, mode: str, ray_ids,
           seed: int, max_bounces: int) -> BundleResult:
    """Trace rays (rows) to their terminals, all live rays one bounce per
    pass.  Every ray alive at pass k has made k interactions."""
    surfaces = scene.surfaces
    searched = surfaces + (scene.eye,)  # the eye last: it must be strictly nearer
    # The label of a ray that hits each searched element and takes no branch.
    stops = [_SCREEN if isinstance(s, Screen) else _ABSORBED
             for s in surfaces] + [_REACHED_EYE]
    modes = list(_MODES) if mode in _MODES else list(_MODES) + [mode]
    n_paths = n = len(origins)
    O, D, W = origins, directions, weights
    M = np.full(n, modes.index(mode))
    rid = ray_ids
    pid = np.arange(n)
    parents = [np.full(n, -1)]
    log = []
    step = 0
    left = np.full(n, -1)  # the element each ray just left, or -1
    while len(pid):
        n = len(pid)
        label = np.full(n, _FADED)
        elem = np.full(n, -1)
        point = np.full((n, 3), np.nan)
        live = np.flatnonzero(W >= WEIGHT_CUTOFF)
        legs = []  # per branch taken: (path ids, rows, exits, directions, weights, tags)
        if step >= max_bounces:
            label[live] = _MAX_BOUNCES
        elif len(live):
            near, _, hits = nearest_hits(searched, _rows(O, live),
                                         _rows(D, live), _rows(left, live))
            label[live[near < 0]] = _ESCAPED
            elem[live] = near
            for k, at, p, u, v in hit_groups(near, hits):
                rows = take_rows(live, at)
                _put(point, rows, p)
                label[rows] = stops[k]  # unless a branch leaves
                if k == len(surfaces):  # the eye
                    continue
                surface = surfaces[k]
                draws = (uniform_draws(seed, rid[rows], step)
                         if isinstance(surface, TmdPlate) else None)
                branches = leave(surface, p, u, v, _rows(D, rows),
                                 _rows(W, rows), draws)
                if isinstance(surface, HalfMirror):
                    # The stronger branch (the same on every row, by split_weights;
                    # reflect on a tie) continues each path, the weaker a child.
                    strong, (code, _, *weak) = sorted(
                        branches, key=lambda b: b[4][0], reverse=True)
                    spawn = np.flatnonzero(weak[2] >= WEIGHT_CUTOFF)
                    sub = rows[spawn]
                    parents.append(pid[sub])
                    legs.append((np.arange(n_paths, n_paths + len(sub)), sub,
                                 *(_rows(a, spawn) for a in weak),
                                 _RETAG[code, M[sub]]))
                    n_paths += len(sub)
                    branches = [strong]
                for code, sub, exits, exit_dirs, w in branches:
                    sub = take_rows(rows, sub)
                    label[sub] = _BRANCH + code
                    _put(point, sub, exits)
                    legs.append((pid[sub], sub, exits, exit_dirs, w,
                                 _RETAG[code, M[sub]]))
        log.append((pid, np.full(n, step), label, elem, O, D, W, M, point))
        if not legs:
            break
        pid, src, start, exit_dir, W, M = (np.concatenate(c) for c in zip(*legs))
        O, D = advanced_rows(start, normalize_rows(exit_dir))
        left = elem[src]
        rid = rid[src]
        step += 1
    idents = [s.ident for s in searched]
    return BundleResult(log, parents, idents, modes, seed)


def trace_ray(scene: Scene, ray: Ray, max_bounces: int = 16, seed: int = 0,
              ray_index: int = 0) -> TracePath:
    """Trace one ray to a terminal, branching at half mirrors.

    Plate modes are drawn from the random stream (seed, ray_index) at the
    current bounce index, as ray `ray_index` of a bundle traced with `seed`
    draws them.  Branches below the weight cutoff are never spawned, and a
    ray whose own weight sinks below the cutoff terminates as absorbed.
    Raises ValueError for a bounce budget that is not a whole number of at
    least 1.
    """
    max_bounces = positive_count("max_bounces", max_bounces)
    ids = np.array([ray_index & _MASK64], dtype=np.uint64)
    return _trace(scene, ray.origin[None], ray.direction[None],
                  np.array([ray.weight]), ray.mode, ids, seed,
                  max_bounces).paths[0]


def _whole(what: str, value, error=ValueError) -> int:
    """`value` as an int: an integer, or a float such as 4.0 that holds one.
    Raises `error` for any other value."""
    try:
        return operator.index(value)
    except TypeError:
        if not (isinstance(value, float) and value.is_integer()):
            raise error(f"{what} must be a whole number, "
                        f"got {value!r}") from None
        return int(value)


def positive_count(what: str, value) -> int:
    """`value` as an int of at least 1 (see _whole).  Raises ValueError for
    any other value."""
    count = _whole(what, value)
    if count < 1:
        raise ValueError(f"{what} must be >= 1")
    return count


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else the TMDSIM_WORKERS variable,
    else 1.  Outputs never depend on it; only wall time does.  Raises
    UsageError when the variable is not an integer, or the count is not a
    whole number (as positive_count reads one) of at least 1."""
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "1") or "1"
        try:
            workers = int(text)
        except ValueError:
            raise UsageError(f"{WORKERS_ENV} must be an integer, "
                             f"got {text!r}") from None
    workers = _whole("the worker count", workers, UsageError)
    if workers < 1:
        raise UsageError(f"the worker count must be at least 1, got {workers}")
    return workers


_NEVER = np.iinfo(np.int64).max


def _first_seen(codes: np.ndarray, keys: Optional[np.ndarray] = None) -> list:
    """Distinct values of the non-negative integer `codes` in order of first
    appearance, or in order of their least `keys` (distinct int64 keys, one
    per code) when given."""
    if keys is None:
        keys = np.arange(len(codes))
    first = np.full(codes.max() + 1, _NEVER)
    np.minimum.at(first, codes, keys)
    seen = np.flatnonzero(first < _NEVER)
    return seen[np.argsort(first[seen])].tolist()


def _bundle_stats(bundle: BundleResult) -> dict:
    # Every dict lists its keys in order of first appearance in depth-first
    # path order (a path's segments, then its children); the mode weights
    # are summed sequentially in that order.
    rank = np.empty_like(bundle.dfs)
    rank[bundle.dfs] = np.arange(len(bundle.dfs))
    # Each log row's place in that order: its path's rank, then its step.
    order = rank[bundle.pid] * (bundle.step[-1] + 1) + bundle.step
    counts = np.bincount(bundle.label, minlength=len(_LABELS))
    interactions = {_LABELS[i]: int(counts[i])
                    for i in _first_seen(bundle.label, order)}
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


# The most rays `trace_bundle` takes, refused before anything is traced: a
# bundle logs about 120 bytes per ray and bounce.
MAX_RAYS = 1_000_000


def trace_bundle(scene: Scene, source_point, n_rays: int, cone: Cone,
                 seed: int = 42, max_bounces: int = 16,
                 workers: Optional[int] = None) -> BundleResult:
    """Trace a cone of rays from a point source.

    Ray i always takes direction i of the cone sequence and random stream
    (seed, i), so the result is identical for any worker count (`workers`
    is validated and otherwise unused: the batch runs in one thread).
    Raises ValueError when `n_rays` or `max_bounces` is not a whole number
    of at least 1, or `n_rays` is above MAX_RAYS, and InvalidGeometry when
    a source coordinate is not finite or above MAX_LENGTH in magnitude.
    """
    n_rays = positive_count("n_rays", n_rays)
    if n_rays > MAX_RAYS:
        raise ValueError(f"n_rays must be at most {MAX_RAYS}, got {n_rays}")
    max_bounces = positive_count("max_bounces", max_bounces)
    resolve_workers(workers)
    require_magnitude("source point", source_point)
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
    """Final in-flight rays of every path still propagating at its end, in
    depth-first path order, as a read-only sequence of `Ray` (a `RayRows`
    over the bundle's log rows).

    `mode` keeps only rays carrying that interaction history tag
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
    hits = plane_crossings(take_rows(bundle.origin, rows),
                           take_rows(bundle.direction, rows), plane)
    if hits is None:
        raise EmptySpot("no terminal ray crosses the spot plane")
    pts = np.stack([hits.u, hits.v], axis=1)
    centred = pts - pts.mean(axis=0)
    return SpotDiagram(pts, float(np.sqrt((centred ** 2).sum(axis=1).mean())))
