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

The camera never occludes itself: the scene's eye is the ray source, not
a surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elements import (Absorber, ConvexMirror, HalfMirror, Screen, ThinLens,
                       TmdPlate, split_weights)
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
# Scene preparation

@dataclass
class _Record:
    kind: str
    el: object
    pos: np.ndarray
    axes: np.ndarray  # 3x3, columns (u, v, w)
    half: tuple       # bounding half extent (plane kinds)


def _prep_scene(scene: Scene):
    records = []
    elements = list(scene.elements)
    if scene.background is not None:
        elements.append(scene.background)
    for el in elements:
        if isinstance(el, Screen):
            kind = "screen"
            extent = el.extent
        elif isinstance(el, TmdPlate):
            kind = "tmd"
            extent = el.extent
        elif isinstance(el, HalfMirror):
            kind = "half_mirror"
            extent = el.extent
        elif isinstance(el, ThinLens):
            kind = "lens"
            extent = el.housing_extent
        elif isinstance(el, ConvexMirror):
            kind = "mirror_flat" if el.a_mag == 1.0 else "mirror_cap"
            extent = el.extent
        elif isinstance(el, Absorber):
            kind = "absorber"
            extent = el.extent
        else:  # pragma: no cover
            raise TypeError(f"unrenderable element {type(el).__name__}")
        records.append(_Record(kind, el, el.pose.position, el.pose.rotation,
                               (0.5 * extent[0], 0.5 * extent[1])))
    return records


def _plane_ts(rec: _Record, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    w = rec.axes[:, 2]
    denom = d @ w
    near = np.abs(denom) < PARALLEL_EPS
    t = ((rec.pos - o) @ w) / np.where(near, 1.0, denom)
    point = o + t[:, None] * d
    rel = point - rec.pos
    u = rel @ rec.axes[:, 0]
    v = rel @ rec.axes[:, 1]
    ok = (~near) & (t > PLANE_EPS) & (np.abs(u) <= rec.half[0]) & (np.abs(v) <= rec.half[1])
    return np.where(ok, t, np.inf)


def _cap_ts(rec: _Record, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    m: ConvexMirror = rec.el
    R = m.curvature_radius
    centre = rec.pos + R * rec.axes[:, 2]
    oc = o - centre
    b = np.einsum("ij,ij->i", d, oc)
    c = np.einsum("ij,ij->i", oc, oc) - R * R
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    best = np.full(len(o), np.inf)
    score = np.full(len(o), np.inf)
    for root in (-b - sq, -b + sq):
        point = o + root[:, None] * d
        rel = point - rec.pos
        u = rel @ rec.axes[:, 0]
        v = rel @ rec.axes[:, 1]
        wl = np.abs(rel @ rec.axes[:, 2])
        ok = ((disc >= 0) & (root > PLANE_EPS) & (wl <= abs(R))
              & (np.abs(u) <= rec.half[0]) & (np.abs(v) <= rec.half[1]))
        better = ok & (wl < score)
        best = np.where(better, root, best)
        score = np.where(better, wl, score)
    return best


def _sample_screen(screen: Screen, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized twin of elements.screen_emit (same maths, same clamping)."""
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


# ---------------------------------------------------------------------------
# Batch tracing

def _trace_batches(records, o, d, w, pix, acc, max_bounces: int):
    if not records:
        return
    queue = [(o, d, w, pix, 0)]
    while queue:
        o, d, w, pix, bounce = queue.pop(0)
        if len(o) == 0 or bounce > max_bounces:
            continue
        ts = np.empty((len(records), len(o)))
        for k, rec in enumerate(records):
            ts[k] = _cap_ts(rec, o, d) if rec.kind == "mirror_cap" else _plane_ts(rec, o, d)
        el_idx = np.argmin(ts, axis=0)
        tmin = ts[el_idx, np.arange(len(o))]
        live = np.isfinite(tmin)
        for k, rec in enumerate(records):
            mask = live & (el_idx == k)
            if not mask.any():
                continue
            t = tmin[mask]
            bo, bd, bw, bp = o[mask], d[mask], w[mask], pix[mask]
            point = bo + t[:, None] * bd
            rel = point - rec.pos
            u = rel @ rec.axes[:, 0]
            v = rel @ rec.axes[:, 1]
            if rec.kind == "screen":
                np.add.at(acc, bp, bw * _sample_screen(rec.el, u, v))
            elif rec.kind == "absorber":
                pass
            elif rec.kind == "lens":
                lens: ThinLens = rec.el
                inside = u * u + v * v <= (0.5 * lens.aperture_diameter) ** 2
                if inside.any():
                    dl = bd[inside] @ rec.axes
                    aw = np.abs(dl[:, 2])
                    fine = aw > 1e-12
                    safe = np.where(fine, aw, 1.0)
                    sx = dl[:, 0] / safe - u[inside] / lens.focal_length
                    sy = dl[:, 1] / safe - v[inside] / lens.focal_length
                    out = np.stack([sx, sy, np.sign(dl[:, 2])], axis=1)
                    out /= np.linalg.norm(out, axis=1, keepdims=True)
                    nd = out @ rec.axes.T
                    no = point[inside] + RAY_ADVANCE * nd
                    queue.append((no[fine], nd[fine], bw[inside][fine],
                                  bp[inside][fine], bounce + 1))
            elif rec.kind in ("half_mirror",):
                mirror: HalfMirror = rec.el
                n = rec.axes[:, 2]
                rd = bd - 2.0 * (bd @ n)[:, None] * n
                wr, wt = split_weights(bw, mirror.reflectance)
                for nd, nw in ((rd, wr), (bd, wt)):
                    keep = nw >= WEIGHT_CUTOFF
                    if keep.any():
                        no = point[keep] + RAY_ADVANCE * nd[keep]
                        queue.append((no, nd[keep], nw[keep], bp[keep], bounce + 1))
            elif rec.kind == "mirror_flat":
                n = rec.axes[:, 2]
                nd = bd - 2.0 * (bd @ n)[:, None] * n
                queue.append((point + RAY_ADVANCE * nd, nd, bw, bp, bounce + 1))
            elif rec.kind == "mirror_cap":
                m: ConvexMirror = rec.el
                centre = rec.pos + m.curvature_radius * rec.axes[:, 2]
                n = centre - point
                n /= np.linalg.norm(n, axis=1, keepdims=True)
                nd = bd - 2.0 * np.einsum("ij,ij->i", bd, n)[:, None] * n
                queue.append((point + RAY_ADVANCE * nd, nd, bw, bp, bounce + 1))
            elif rec.kind == "tmd":
                plate: TmdPlate = rec.el
                p_d, p_s, p_p = plate.mode_weights
                dl = bd @ rec.axes
                if plate.angular_fill:
                    cw = np.abs(dl[:, 2])
                    tan = np.sqrt(np.maximum(1.0 - cw ** 2, 0.0)) / np.maximum(cw, 1e-12)
                    pd_eff = np.clip(p_d * (1.0 - tan / (2.0 * plate.mirror_ratio)), 0.0, 1.0)
                else:
                    pd_eff = np.full(len(bd), p_d)
                ps_eff = 0.0 if plate.polarizer else p_s
                if plate.pitch > 0:
                    qu = (np.floor(u / plate.pitch) + 0.5) * plate.pitch
                    qv = (np.floor(v / plate.pitch) + 0.5) * plate.pitch
                    qpoint = (rec.pos + qu[:, None] * rec.axes[:, 0]
                              + qv[:, None] * rec.axes[:, 1])
                else:
                    qpoint = point
                branches = (
                    ((-1.0, -1.0, 1.0), pd_eff, qpoint),
                    ((-1.0, 1.0, 1.0), 0.5 * ps_eff, qpoint),
                    ((1.0, -1.0, 1.0), 0.5 * ps_eff, qpoint),
                    ((1.0, 1.0, 1.0), p_p, point),
                )
                for flips, frac, exit_point in branches:
                    nw = bw * frac
                    keep = nw >= WEIGHT_CUTOFF
                    if not keep.any():
                        continue
                    nd = (dl[keep] * np.asarray(flips)) @ rec.axes.T
                    no = exit_point[keep] + RAY_ADVANCE * nd
                    queue.append((no, nd, nw, bp[keep], bounce + 1))
            else:  # pragma: no cover
                raise TypeError(rec.kind)


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
        d = P - origin
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        o = np.broadcast_to(origin, (n, 3)).copy()
        _trace_batches(records, o, d, np.ones(n), pix, acc, max_bounces)
    return acc / len(offsets)


def render_view(scene: Scene, camera: Optional[EyeCamera] = None,
                rays_per_pixel: int = 16, seed: int = 42,
                max_bounces: int = 12, workers: Optional[int] = None) -> Image:
    """Render the scene from its eye (or an explicit camera).

    Deterministic in (scene, camera, rays_per_pixel, seed): pixel rows are
    processed in fixed blocks whatever the worker count.
    """
    camera = camera or scene.eye
    records = _prep_scene(scene)
    w_px, h_px, _ = camera.sensor
    offsets = _aperture_points(camera, rays_per_pixel, seed)
    blocks = [slice(r, min(r + ROW_BLOCK, h_px)) for r in range(0, h_px, ROW_BLOCK)]

    def run(block: slice) -> np.ndarray:
        return _render_rows(records, camera, block, offsets, max_bounces)

    acc = np.zeros((h_px, w_px))
    nworkers = resolve_workers(workers)
    if nworkers == 1:
        results = map(run, blocks)
    else:
        # Imported here because only multi-worker renders use it, and it
        # pulls logging and threading into every start-up otherwise.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
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
