"""Backward image formation from the eye camera.

One ray per pixel per aperture sample leaves a thin-lens camera (focus
plane at its focal length), walks the scene in vectorized batches, and
accumulates screen/background radiance weighted by path weight.  Plate
interactions are not sampled here: each batch splits deterministically
into its double / single / pass branches with the mode weights applied as
multipliers.  That keeps images noise-free and makes the polarizer
identity exact — blocking the single band is bitwise identical to zeroing
its weight.  Images are deterministic in (scene, camera, seed); the worker
count only changes wall time because pixel blocks are fixed and disjoint.
Several workers are forked processes, each rendering whole blocks with
the same code, so they overlap where threads would queue on the GIL.

The camera never occludes itself: the scene's eye is the ray source, not
a surface.

The batch loop is written so that reworking it cannot move a pixel: numpy
rounds the same sum differently depending on how the call is laid out.

- Every dot of a row with a fixed vector is a gemv, `(n, 3) @ (3,)` on
  C-contiguous rows (the sphere cap's row-by-row dots are einsums).
  `np.vecdot`, `einsum`, an `(n, 3) @ (3, k)` gemm or a `(3, n)` layout
  would each round some rows differently.
- A gemv rounds each row the same whichever rows are around it, except a
  one-row `(1, 3) @ (3,)`, which numpy sends to dot.  So rows are only
  split off by index (`np.take`) into the groups the maths needs, each
  hit element's rays in batch order, and the plane test tests its bounds
  on the whole batch when a single row is ahead of the plane.
- A per-row scalar or a fixed 3-vector broadcast over `(n, 3)` rows is
  computed one column at a time (the helpers below): the same IEEE
  operation on every element, with long inner loops instead of 3-long ones.
- ROW_BLOCK and the one batch per aperture sample fix which batches exist
  and the order in which samples add into each pixel.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .elements import (Absorber, ConvexMirror, HalfMirror, Screen, ThinLens,
                       TmdPlate, double_band, quantize_uv, sample_screen,
                       split_weights)
from .errors import IoError
from .geometry import (PARALLEL_EPS, PLANE_EPS, RAY_ADVANCE, WEIGHT_CUTOFF,
                       Pose)
from .scene import EyeCamera, Scene
from .tracer import r2_sequence, resolve_workers, uniform_draw

ROW_BLOCK = 32  # rows per work unit; fixed so outputs ignore the worker count


@dataclass
class Image:
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) linear radiance

    def luminance(self) -> np.ndarray:
        return self.pixels.mean(axis=2)


@dataclass
class SweepResult:
    offsets: tuple
    sharpness: tuple
    images: Optional[list] = None


# ---------------------------------------------------------------------------
# Row arithmetic.  Each helper does, one column at a time, exactly the IEEE
# operations of the (n, 3) broadcast written in its docstring.

def _col(a: np.ndarray, j: int):
    """Column j of (n, 3) rows, or component j of a fixed 3-vector."""
    return a[:, j] if a.ndim == 2 else a[j]


def _along(o: np.ndarray, t: np.ndarray, d: np.ndarray, minus=None) -> np.ndarray:
    """o + t[:, None] * d, then `- minus` (a fixed 3-vector) if given."""
    out = np.empty_like(d)
    for j in range(3):
        col = out[:, j]
        np.multiply(t, d[:, j], out=col)
        col += o[:, j]
        if minus is not None:
            col -= minus[j]
    return out


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b, either of them a fixed 3-vector."""
    out = np.empty_like(a if a.ndim == 2 else b)
    for j in range(3):
        np.subtract(_col(a, j), _col(b, j), out=out[:, j])
    return out


def _normalized(v: np.ndarray) -> np.ndarray:
    """v / np.linalg.norm(v, axis=1, keepdims=True), in place."""
    n = np.linalg.norm(v, axis=1)
    for j in range(3):
        v[:, j] /= n
    return v


def _reflected(d: np.ndarray, dots: np.ndarray, n: np.ndarray) -> np.ndarray:
    """d - 2.0 * dots[:, None] * n for one normal (3,) or one per row."""
    s = 2.0 * dots
    out = np.empty_like(d)
    for j in range(3):
        col = out[:, j]
        np.multiply(s, _col(n, j), out=col)
        np.subtract(d[:, j], col, out=col)
    return out


def _rows(a: np.ndarray, idx: Optional[np.ndarray]) -> np.ndarray:
    return a if idx is None else np.take(a, idx, axis=0)


def _subset(mask: np.ndarray) -> Optional[np.ndarray]:
    """Indices of the true rows, or None when every row is true."""
    idx = np.flatnonzero(mask)
    return None if len(idx) == len(mask) else idx


# ---------------------------------------------------------------------------
# Scene preparation

class _Record:
    """One surface's pose and half extent, read once per render."""

    def __init__(self, el):
        self.el = el
        self.pos = el.pose.position
        self.axes = el.pose.rotation  # columns (u, v, w)
        self.u_ax, self.v_ax, self.w_ax = (self.axes[:, j] for j in range(3))
        self.half = (0.5 * el.extent[0], 0.5 * el.extent[1])


def _plane_ts(rec: _Record, o: np.ndarray, d: np.ndarray) -> Optional[np.ndarray]:
    """Hit distance of each row on the element's rectangle (inf on a miss),
    or None when no row hits.  The bounds are tested only on the rows ahead
    of the plane, or on the whole batch when a single row is."""
    denom = d @ rec.w_ax
    near = np.abs(denom) < PARALLEL_EPS
    if near.any():
        denom = np.where(near, 1.0, denom)
    t = (_sub(rec.pos, o) @ rec.w_ax) / denom
    ahead = ~near & (t > PLANE_EPS)
    rows = np.flatnonzero(ahead)
    if len(rows) == 0:
        return None
    if len(rows) in (1, len(t)):
        rows = None
    rel = _along(_rows(o, rows), _rows(t, rows), _rows(d, rows), rec.pos)
    inside = ((np.abs(rel @ rec.u_ax) <= rec.half[0])
              & (np.abs(rel @ rec.v_ax) <= rec.half[1]))
    if rows is None:
        ok = ahead & inside
    else:
        ok = np.zeros(len(t), dtype=bool)
        ok[rows[inside]] = True
    return np.where(ok, t, np.inf) if ok.any() else None


def _cap_ts(rec: _Record, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    R = rec.el.curvature_radius
    oc = _sub(o, rec.el.centre)
    b = np.einsum("ij,ij->i", d, oc)
    c = np.einsum("ij,ij->i", oc, oc) - R * R
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    best = np.full(len(o), np.inf)
    score = np.full(len(o), np.inf)
    for root in (-b - sq, -b + sq):
        rel = _along(o, root, d, rec.pos)
        u = rel @ rec.u_ax
        v = rel @ rec.v_ax
        wl = np.abs(rel @ rec.w_ax)
        ok = ((disc >= 0) & (root > PLANE_EPS) & (wl <= abs(R))
              & (np.abs(u) <= rec.half[0]) & (np.abs(v) <= rec.half[1]))
        better = ok & (wl < score)
        best = np.where(better, root, best)
        score = np.where(better, wl, score)
    return best


# ---------------------------------------------------------------------------
# Batch tracing

def _trace_batches(records, o, d, w, pix, acc, max_bounces: int):
    if not records:
        return
    queue = deque([(o, d, w, pix, 0)])
    while queue:
        o, d, w, pix, bounce = queue.popleft()
        if len(o) == 0 or bounce >= max_bounces:
            continue
        # Nearest hit: the first element wins a tie, as np.argmin would.
        tmin = np.full(len(o), np.inf)
        el_idx = np.full(len(o), -1)
        hit = []
        for k, rec in enumerate(records):
            if isinstance(rec.el, ConvexMirror) and not rec.el.flat:
                ts = _cap_ts(rec, o, d)
            else:
                ts = _plane_ts(rec, o, d)
            if ts is None:
                continue
            closer = ts < tmin
            np.copyto(el_idx, k, where=closer)
            np.copyto(tmin, ts, where=closer)
            hit.append(k)
        for k in hit:
            rows = np.flatnonzero(el_idx == k)
            if len(rows) == 0:
                continue
            rec = records[k]
            if isinstance(rec.el, Absorber):
                continue
            if len(rows) == len(o):
                t, bo, bd, bw, bp = tmin, o, d, w, pix
            else:
                t, bo, bd, bw, bp = (np.take(a, rows, axis=0)
                                     for a in (tmin, o, d, w, pix))
            _interact(rec, t, bo, bd, bw, bp, acc, queue, bounce + 1)


def _push(queue, point, nd, nw, bp, bounce, keep=None):
    """Queue rays leaving `point` along `nd`: the rows in `keep` of the
    other arrays (all rows when None); `nd` already holds only those."""
    point, nw, bp = (_rows(a, keep) for a in (point, nw, bp))
    queue.append((point + RAY_ADVANCE * nd, nd, nw, bp, bounce))


def _interact(rec, t, bo, bd, bw, bp, acc, queue, bounce):
    """Apply the element of `rec` to the rays that hit it at distances `t`:
    accumulate screen radiance into `acc`, queue the outgoing rays."""
    el = rec.el
    point = _along(bo, t, bd)
    if isinstance(el, ConvexMirror):
        if el.flat:
            nd = _reflected(bd, bd @ rec.w_ax, rec.w_ax)
        else:
            n = _normalized(_sub(el.centre, point))
            nd = _reflected(bd, np.einsum("ij,ij->i", bd, n), n)
        _push(queue, point, nd, bw, bp, bounce)
        return
    if isinstance(el, HalfMirror):
        wr, wt = split_weights(bw, el.reflectance)
        for nd, nw in ((_reflected(bd, bd @ rec.w_ax, rec.w_ax), wr), (bd, wt)):
            keep = nw >= WEIGHT_CUTOFF
            if keep.any():
                keep = _subset(keep)
                _push(queue, point, _rows(nd, keep), nw, bp, bounce, keep)
        return
    rel = _sub(point, rec.pos)
    u = rel @ rec.u_ax
    v = rel @ rec.v_ax
    if isinstance(el, Screen):
        acc[bp] += bw * sample_screen(el, u, v)
    elif isinstance(el, ThinLens):
        _refract(rec, point, u, v, bd, bw, bp, queue, bounce)
    elif isinstance(el, TmdPlate):
        _plate(rec, point, u, v, bd, bw, bp, queue, bounce)
    else:  # pragma: no cover
        raise TypeError(f"unrenderable element {type(el).__name__}")


def _refract(rec, point, u, v, bd, bw, bp, queue, bounce):
    lens: ThinLens = rec.el
    inside = u * u + v * v <= (0.5 * lens.aperture_diameter) ** 2
    if not inside.any():
        return
    keep = _subset(inside)
    dl = _rows(bd, keep) @ rec.axes
    aw = np.abs(dl[:, 2])
    fine = aw > 1e-12
    out = np.empty_like(dl)
    safe = np.where(fine, aw, 1.0)
    np.subtract(dl[:, 0] / safe, _rows(u, keep) / lens.focal_length, out=out[:, 0])
    np.subtract(dl[:, 1] / safe, _rows(v, keep) / lens.focal_length, out=out[:, 1])
    np.sign(dl[:, 2], out=out[:, 2])
    nd = _normalized(out) @ rec.axes.T
    if not fine.all():
        fine = np.flatnonzero(fine)
        nd = np.take(nd, fine, axis=0)
        keep = fine if keep is None else keep[fine]
    _push(queue, point, nd, bw, bp, bounce, keep)


def _plate(rec, point, u, v, bd, bw, bp, queue, bounce):
    plate: TmdPlate = rec.el
    _, p_s, p_p = plate.mode_weights
    dl = bd @ rec.axes
    p_d = double_band(plate, dl)
    single = 0.5 * (0.0 if plate.polarizer else p_s)
    cell = point
    if plate.pitch > 0:
        # pos + qu * u_axis + qv * v_axis, a column at a time.
        qu, qv = quantize_uv(u, v, plate.pitch)
        cell = np.empty_like(point)
        for j in range(3):
            col = cell[:, j]
            np.multiply(qu, rec.u_ax[j], out=col)
            np.add(rec.pos[j], col, out=col)
            col += qv * rec.v_ax[j]
    # (flip u, flip v) of the local direction, weight and exit point of the
    # double, two single and pass branches (see elements.plate_exit).
    for flips, frac, exit_at in (((True, True), p_d, cell),
                                 ((True, False), single, cell),
                                 ((False, True), single, cell),
                                 ((False, False), p_p, point)):
        nw = bw * frac
        keep = nw >= WEIGHT_CUTOFF
        if not keep.any():
            continue
        keep = _subset(keep)
        local = np.array(_rows(dl, keep))
        for j, flip in enumerate(flips):
            if flip:
                np.negative(local[:, j], out=local[:, j])
        _push(queue, exit_at, local @ rec.axes.T, nw, bp, bounce, keep)


# ---------------------------------------------------------------------------
# Camera sampling and the public API

def _aperture_points(camera: EyeCamera, rays_per_pixel: int, seed: int):
    """Lens-disk sample offsets shared by every pixel.  A single sample sits
    at the centre (pinhole); more get a seed-rotated low-discrepancy set."""
    if rays_per_pixel < 1:
        raise ValueError("rays_per_pixel must be >= 1")
    if rays_per_pixel == 1:
        return np.zeros((1, 2))
    uv = r2_sequence(rays_per_pixel)
    shift = np.array([uniform_draw(seed, 0x0A9E, 0), uniform_draw(seed, 0x0A9E, 1)])
    uv = (uv + shift) % 1.0
    radius = 0.5 * camera.aperture_diameter
    r = radius * np.sqrt(uv[:, 0])
    phi = 2.0 * math.pi * uv[:, 1]
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def _render_rows(records, camera: EyeCamera, rows: slice, offsets: np.ndarray,
                 max_bounces: int) -> np.ndarray:
    w_px, h_px, pitch = camera.sensor
    U, V = camera.pose.u_axis, camera.pose.v_axis
    W = camera.pose.normal
    E = camera.pose.position
    f = camera.focal_length
    xs = (np.arange(w_px) + 0.5 - 0.5 * w_px) * pitch
    ys = (0.5 * h_px - (np.arange(rows.start, rows.stop) + 0.5)) * pitch
    # In-focus point for each pixel, on the plane one focal length out.
    P = (E - f * W)[None, None, :] + ys[:, None, None] * V + xs[None, :, None] * U
    P = P.reshape(-1, 3)
    n = len(P)
    acc = np.zeros(n)
    pix = np.arange(n)
    for ax, ay in offsets:
        origin = E + ax * U + ay * V
        d = _normalized(_sub(P, origin))
        o = np.broadcast_to(origin, (n, 3)).copy()
        _trace_batches(records, o, d, np.ones(n), pix, acc, max_bounces)
    return acc / len(offsets)


def _pool_size(workers: int, n_blocks: int) -> int:
    """Processes worth forking for `workers` over `n_blocks` row blocks:
    never more than there are blocks or usable cores, because the pool
    forks every one of them at its first task."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return min(workers, n_blocks, cores)


def render_view(scene: Scene, camera: Optional[EyeCamera] = None,
                rays_per_pixel: int = 16, seed: int = 42,
                max_bounces: int = 12, workers: Optional[int] = None) -> Image:
    """Render the scene from its eye (or an explicit camera).

    Deterministic in (scene, camera, rays_per_pixel, seed): pixel rows are
    processed in fixed blocks whatever the worker count.  With more than
    one worker the blocks are rendered by a pool of forked processes, at
    most one per usable core and per block; where the platform cannot
    fork, they are rendered in this process.  Raises UsageError for a
    worker count below 1 and ValueError for a bounce budget below 1.
    """
    if max_bounces < 1:
        raise ValueError("max_bounces must be >= 1")
    camera = camera or scene.eye
    records = [_Record(el) for el in scene.surfaces]
    w_px, h_px, _ = camera.sensor
    offsets = _aperture_points(camera, rays_per_pixel, seed)
    blocks = [slice(r, min(r + ROW_BLOCK, h_px)) for r in range(0, h_px, ROW_BLOCK)]
    run = partial(_render_rows, records, camera, offsets=offsets,
                  max_bounces=max_bounces)

    acc = np.zeros((h_px, w_px))
    nprocs = _pool_size(resolve_workers(workers), len(blocks))
    results = map(run, blocks)
    if nprocs > 1:
        # Imported here because only multi-worker renders use them, and
        # they add about 20 ms to every start-up otherwise.  Forked, not
        # spawned, children start with numpy and the package imported;
        # where the platform cannot fork, the serial map above stands.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(nprocs, multiprocessing.get_context("fork")) as pool:
                results = list(pool.map(run, blocks))
    for block, rows_acc in zip(blocks, results):
        acc[block] = rows_acc.reshape(block.stop - block.start, w_px)
    pixels = np.repeat(acc[:, :, None], 3, axis=2)
    return Image(w_px, h_px, pixels)


def sharpness_metric(image: Image) -> float:
    """Mean squared forward-difference gradient over mean intensity squared.

    Zero for constant images (including all black).
    """
    lum = image.luminance()
    mean = float(lum.mean())
    if mean == 0.0:
        return 0.0
    gx = np.diff(lum, axis=1)
    gy = np.diff(lum, axis=0)
    energy = float((gx ** 2).sum() + (gy ** 2).sum())
    count = gx.size + gy.size
    if count == 0:
        return 0.0
    return energy / count / mean ** 2


def defocus_sweep(scene: Scene, camera: Optional[EyeCamera] = None,
                  offsets=(10.0, 0.0, -10.0, -20.0), rays_per_pixel: int = 16,
                  seed: int = 42, keep_images: bool = False,
                  workers: Optional[int] = None) -> SweepResult:
    """Render at a series of axial camera offsets and score sharpness.

    Positive offsets move the camera backwards along its own axis (away
    from the scene), so the camera-to-target distance becomes the base
    distance plus the offset.
    """
    camera = camera or scene.eye
    sharp = []
    images = [] if keep_images else None
    for off in offsets:
        moved = EyeCamera(camera.ident,
                          Pose(camera.pose.position + float(off) * camera.pose.normal,
                               camera.pose.rotation),
                          camera.focal_length, camera.aperture_diameter,
                          camera.sensor)
        img = render_view(scene, moved, rays_per_pixel, seed, workers=workers)
        sharp.append(sharpness_metric(img))
        if keep_images:
            images.append(img)
    return SweepResult(tuple(float(o) for o in offsets), tuple(sharp), images)


def best_offset(sweep: SweepResult) -> float:
    """Offset with the highest sharpness (first one on ties)."""
    return sweep.offsets[int(np.argmax(sweep.sharpness))]


# ---------------------------------------------------------------------------
# Output formats

def tone_map(image: Image) -> np.ndarray:
    """Linear radiance to bytes: clamp(x / max * 255), no gamma."""
    m = float(image.pixels.max())
    if m <= 0.0:
        return np.zeros(image.pixels.shape, dtype=np.uint8)
    scaled = image.pixels * (255.0 / m)
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def write_ppm(image: Image, path) -> None:
    """Binary PPM (P6, maxval 255)."""
    data = tone_map(image)
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header + data.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def read_ppm(path) -> Image:
    """Read back a P6 file written by write_ppm (byte values as floats)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise IoError(f"{path} is not a P6/255 image")
    w, h = (int(x) for x in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3)
    return Image(w, h, pixels.reshape(h, w, 3).astype(np.float64))


def write_csv(sweep: SweepResult, path) -> None:
    """Sweep table: offset_mm,sharpness with 9 significant digits."""
    rows = ["offset_mm,sharpness"]
    for off, s in zip(sweep.offsets, sweep.sharpness):
        rows.append(f"{off:.9g},{s:.9g}")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(rows) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
