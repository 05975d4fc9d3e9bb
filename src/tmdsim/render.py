"""Backward image formation from the eye camera.

One ray per pixel per aperture sample leaves a thin-lens camera (focus
plane at its focal length), walks the scene in vectorized batches, and
accumulates screen/background radiance weighted by path weight.  Plate
interactions are not sampled here: the interaction table splits each
batch deterministically into its double / single / pass branches with
the mode weights applied as multipliers.  That keeps images noise-free
and makes the polarizer identity exact — blocking the single band is
bitwise identical to zeroing its weight.  Images are deterministic in
(scene, camera, seed); the worker count only changes wall time because
pixel blocks are fixed and disjoint.
N workers are the calling process and N - 1 forked children (none for
one), each taking the next whole block from a shared pipe, one at a time,
and writing its rows into one shared map with the same code, so they
overlap where threads would queue on the GIL.

The camera never occludes itself: the scene's eye is the ray source, not
a surface.

The row arithmetic, the nearest-hit search (`elements.nearest_hits`) and
the interaction table (`elements.leave`, which decides what leaves a hit,
and gives a screen or an absorber no branch) are the forward tracer's,
under the layout rules stated once in geometry.py, so no rework of the
batch loop can move a pixel.  The search is given the element a batch
just left, and takes the camera rays of one aperture sample with their
shared origin as one 3-vector.  The one rounding of its own that the
goldens pin is the row normalization of its camera rays and lens exits
(the table's `normalize` argument), `geometry.linalg_normalize_rows`.
ROW_BLOCK and the one batch per aperture sample fix which batches exist
and the order in which samples add into each pixel.
"""
from __future__ import annotations

import math
import mmap
import os
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .elements import Screen, hit_groups, leave, nearest_hits, sample_screen
from .errors import IoError, read_bytes, write_bytes
from .geometry import (WEIGHT_CUTOFF, Pose, linalg_normalize_rows,
                       nudged_rows, require_finite, sub_rows, take_rows)
from .scene import EyeCamera, Scene
from .tracer import (positive_count, r2_sequence, resolve_workers,
                     uniform_draw)

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
# Batch tracing

def _trace_batches(surfaces, o, d, w, pix, acc, max_bounces: int):
    if not surfaces:
        return
    # Each batch carries the index of the element its rays just left (-1
    # for camera rays); the search decides what that rules out.
    # Camera rays share one origin, a 3-vector; every other batch has rows.
    queue = deque([(o, d, w, pix, -1, 0)])
    while queue:
        o, d, w, pix, left, bounce = queue.popleft()
        if len(d) == 0 or bounce >= max_bounces:
            continue
        near, _, hits = nearest_hits(surfaces, o, d, left)
        for k, rows, point, u, v in hit_groups(near, hits):
            bd, bw, bp = (take_rows(a, rows) for a in (d, w, pix))
            _interact(surfaces[k], k, point, u, v, bd, bw, bp, acc, queue,
                      bounce + 1)


def _interact(el, k, point, u, v, bd, bw, bp, acc, queue, bounce):
    """Apply element `el` (index k) to the rays that hit it at `point`,
    local (u, v): accumulate screen radiance into `acc`, queue the rays
    that leave on each branch of the interaction table, plate branches
    split by weight and below-cutoff rows dropped."""
    if isinstance(el, Screen):
        radiance = sample_screen(el, u, v)
        radiance *= bw
        acc[bp] += radiance
        return
    for _, rows, exits, nd, nw in leave(el, point, u, v, bd, bw,
                                        normalize=linalg_normalize_rows,
                                        cutoff=WEIGHT_CUTOFF):
        queue.append((nudged_rows(exits, nd), nd, nw, take_rows(bp, rows),
                      k, bounce))


# ---------------------------------------------------------------------------
# Camera sampling and the public API

def _aperture_points(camera: EyeCamera, rays_per_pixel: int, seed: int):
    """Lens-disk sample offsets shared by every pixel.  A single sample sits
    at the centre (pinhole); more get a seed-rotated low-discrepancy set."""
    if rays_per_pixel == 1:
        return np.zeros((1, 2))
    uv = r2_sequence(rays_per_pixel)
    shift = np.array([uniform_draw(seed, 0x0A9E, 0), uniform_draw(seed, 0x0A9E, 1)])
    uv = (uv + shift) % 1.0
    radius = 0.5 * camera.aperture_diameter
    r = radius * np.sqrt(uv[:, 0])
    phi = 2.0 * math.pi * uv[:, 1]
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def _render_rows(surfaces, camera: EyeCamera, rows: slice, offsets: np.ndarray,
                 max_bounces: int) -> np.ndarray:
    w_px, h_px, pitch = camera.sensor
    U, V = camera.pose.u_axis, camera.pose.v_axis
    W = camera.pose.normal
    E = camera.pose.position
    f = camera.focal_length
    xs = (np.arange(w_px) + 0.5 - 0.5 * w_px) * pitch
    ys = (0.5 * h_px - (np.arange(rows.start, rows.stop) + 0.5)) * pitch
    # In-focus point for each pixel, on the plane one focal length out,
    # (E - f W + y V) + x U built one column at a time.
    C = E - f * W
    P = np.empty((3, len(ys), len(xs)))
    for j in range(3):
        np.add((C[j] + ys * V[j])[:, None], xs * U[j], out=P[j])
    P = P.reshape(3, -1).T
    n = len(P)
    acc = np.zeros(n)
    pix = np.arange(n)
    for ax, ay in offsets:
        origin = E + ax * U + ay * V
        d = linalg_normalize_rows(sub_rows(P, origin))
        _trace_batches(surfaces, origin, d, np.ones(n), pix, acc, max_bounces)
    return acc / len(offsets)


def _pool_size(workers: int, n_blocks: int) -> int:
    """Processes worth rendering with for `workers` over `n_blocks` row
    blocks: never more than there are blocks or usable cores; 1 without fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return min(workers, n_blocks, cores)


# Block indices go into the work pipe as 4-byte tokens before any process
# reads them, so they must fit the pipe at once: at most 4096 bytes, one
# page, the least a Linux pipe holds (64 KiB by default).  A sensor with
# more blocks than that many tokens hands its blocks out in runs of
# consecutive ones.
_TOKEN_BYTES = 4
_MAX_TOKENS = 4096 // _TOKEN_BYTES


def _taken_blocks(fd: int, run: int, n_blocks: int):
    """Block indices this process takes from the work pipe `fd`: the `run`
    blocks from each token it reads, until the pipe is empty."""
    while token := os.read(fd, _TOKEN_BYTES):
        first = int.from_bytes(token, "little") * run
        yield from range(first, min(first + run, n_blocks))


def _failure_report(exc: BaseException) -> bytes:
    """The pickle a child sends back for `exc`: the exception itself when it
    survives a pickle round trip, else a RuntimeError with its traceback."""
    import pickle
    import traceback
    try:
        report = pickle.dumps(exc)
        pickle.loads(report)
        return report
    except Exception:
        text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return pickle.dumps(RuntimeError(f"a render worker failed:\n{text}"))


def _render_blocks(render_block, n_blocks: int, nprocs: int, shape) -> np.ndarray:
    """Render blocks 0..n_blocks-1 with this process and nprocs - 1 forked
    children; `render_block(acc, i)` writes block i's rows into `acc`.

    Every process takes the next block index from one pipe filled before
    the fork (a small pipe read is atomic, so no lock is needed) and writes
    its rows into one shared anonymous map, returned as an array.  A child
    sends an exception back over its own pipe, and the caller raises it
    after reaping every child.  If the caller's own share fails, it stops
    and reaps the children before raising: no child outlives the call.
    """
    # Imported here because only a failing render uses them.
    import pickle
    import signal

    acc = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]),
                        dtype=np.float64).reshape(shape)
    run = -(-n_blocks // _MAX_TOKENS)
    work, fill = os.pipe()
    children = {}  # pid -> read end of the pipe its failure comes back on
    try:
        with open(fill, "wb") as pipe:
            pipe.write(np.arange(-(-n_blocks // run), dtype="<u4").tobytes())
        for _ in range(nprocs - 1):
            report, send = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(report)
                os.close(send)
                raise
            if pid == 0:
                status = 1
                try:
                    # Hold no read end of a report pipe, so that a report
                    # nobody reads fails instead of blocking.
                    for fd in (report, *children.values()):
                        os.close(fd)
                    for i in _taken_blocks(work, run, n_blocks):
                        render_block(acc, i)
                    status = 0
                except BaseException as exc:
                    with open(send, "wb") as pipe:
                        pipe.write(_failure_report(exc))
                finally:
                    # Never return into the caller's code, nor run its
                    # atexit handlers or stdio flushes.
                    os._exit(status)
            children[pid] = report
            os.close(send)
        for i in _taken_blocks(work, run, n_blocks):
            render_block(acc, i)
        failures = []
        for pid, report in list(children.items()):
            # Read the report before reaping: a child blocks on a large one.
            with open(report, "rb", closefd=False) as pipe:
                text = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if text:
                failures.append(pickle.loads(text))
            elif status != 0:
                failures.append(RuntimeError(
                    f"render worker {pid} ended with status {status}"))
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGTERM)
        for pid, report in children.items():
            os.close(report)  # a child blocked sending a report gets EPIPE
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(work)
    if failures:
        raise failures[0]
    return acc


# The most aperture samples `render_view` takes, refused before anything is
# traced: 10000 of them put a 256 x 256 render at minutes.
MAX_RPP = 10_000


def render_view(scene: Scene, camera: Optional[EyeCamera] = None,
                rays_per_pixel: int = 16, seed: int = 42,
                max_bounces: int = 12, workers: Optional[int] = None) -> Image:
    """Render the scene from its eye (or an explicit camera).

    Deterministic in (scene, camera, rays_per_pixel, seed): pixel rows are
    processed in fixed blocks whatever the worker count.  N workers, capped
    at the usable cores and the block count, are this process and N - 1
    forked children: each takes the next block index from a shared pipe and
    writes its rows into a shared map.  Where the platform cannot fork, N
    is 1.  Raises UsageError for a worker count below 1 and ValueError when
    `rays_per_pixel` or `max_bounces` is not a whole number of at least 1,
    or `rays_per_pixel` is above MAX_RPP; a failure in a child is raised
    here with its type and message.
    """
    max_bounces = positive_count("max_bounces", max_bounces)
    rays_per_pixel = positive_count("rays_per_pixel", rays_per_pixel)
    if rays_per_pixel > MAX_RPP:
        raise ValueError(f"rays_per_pixel must be at most {MAX_RPP}, "
                         f"got {rays_per_pixel}")
    camera = camera or scene.eye
    w_px, h_px, _ = camera.sensor
    offsets = _aperture_points(camera, rays_per_pixel, seed)
    n_blocks = -(-h_px // ROW_BLOCK)

    def render_block(acc, i):
        rows = slice(i * ROW_BLOCK, min((i + 1) * ROW_BLOCK, h_px))
        acc[rows] = _render_rows(scene.surfaces, camera, rows, offsets,
                                 max_bounces).reshape(-1, w_px)

    nprocs = _pool_size(resolve_workers(workers), n_blocks)
    acc = _render_blocks(render_block, n_blocks, nprocs, (h_px, w_px))
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
    distance plus the offset.  Raises ValueError when `offsets` is empty
    and InvalidGeometry for a non-finite offset.
    """
    if len(offsets) == 0:
        raise ValueError("a defocus sweep needs at least one offset")
    require_finite("sweep offsets", offsets)
    camera = camera or scene.eye
    sharp = []
    images = [] if keep_images else None
    for off in offsets:
        moved = replace(camera, pose=Pose(
            camera.pose.position + float(off) * camera.pose.normal,
            camera.pose.rotation))
        img = render_view(scene, moved, rays_per_pixel, seed, workers=workers)
        sharp.append(sharpness_metric(img))
        if keep_images:
            images.append(img)
        del img  # an image not kept is gone before the next render
    return SweepResult(tuple(float(o) for o in offsets), tuple(sharp), images)


def best_offset(sweep: SweepResult) -> float:
    """Offset with the highest sharpness (first one on ties)."""
    return sweep.offsets[int(np.argmax(sweep.sharpness))]


# ---------------------------------------------------------------------------
# Output formats

def tone_map(image: Image) -> np.ndarray:
    """Linear radiance to bytes, no gamma: x * (255 / max), rounded half to
    even and clipped to [0, 255]; all zeros when max is not positive.  It
    rounds and clips in place, so it holds one float copy of the image."""
    m = float(image.pixels.max())
    if m <= 0.0:
        return np.zeros(image.pixels.shape, dtype=np.uint8)
    scaled = image.pixels * (255.0 / m)
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    return scaled.astype(np.uint8)


def write_ppm(image: Image, path) -> None:
    """Binary PPM (P6, maxval 255)."""
    data = np.ascontiguousarray(tone_map(image))
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    write_bytes(path, header, data)


def read_ppm(path) -> Image:
    """Read back a P6 file written by write_ppm (byte values as floats).

    It reads only write_ppm's header: `P6`, a positive width and height in
    decimal digits, and `255`, on three newline-ended lines.  Other netpbm
    headers (all on one line, with `# comment` lines, other whitespace or
    another maxval) raise IoError, as do a file that cannot be read and
    one that holds fewer pixel bytes than its header says.
    """
    parts = read_bytes(path).split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise IoError(f"{path} is not a P6/255 image")
    sizes = parts[1].split()
    try:
        if len(sizes) != 2 or not all(s.isdigit() for s in sizes):
            raise ValueError(sizes)
        w, h = (int(s) for s in sizes)  # ValueError past int()'s digit limit
    except ValueError:
        raise IoError(f"{path} has no width and height in its header") from None
    if w == 0 or h == 0:
        raise IoError(f"{path} has a size of {w} x {h}; both must be positive")
    if len(parts[3]) < w * h * 3:
        raise IoError(f"{path} holds {len(parts[3])} pixel bytes, "
                      f"fewer than its {w} x {h} size needs")
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3)
    return Image(w, h, pixels.reshape(h, w, 3).astype(np.float64))


def write_csv(sweep: SweepResult, path) -> None:
    """Sweep table: offset_mm,sharpness with 9 significant digits."""
    rows = ["offset_mm,sharpness"]
    for off, s in zip(sweep.offsets, sweep.sharpness):
        rows.append(f"{off:.9g},{s:.9g}")
    write_bytes(path, ("\n".join(rows) + "\n").encode("ascii"))
