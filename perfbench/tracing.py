"""Layer spans for the traced benchmark run.

The recorder wraps public names of the tmdsim modules in place, so every
call into a layer is timed at the layer boundary, including calls that one
tmdsim module makes to a name it imported from another (``tracer`` calling
``intersect_plane``, ``defocus_sweep`` calling ``render_view``).  Nothing
under ``src/`` is edited; the wrappers exist only in the traced process and
are removed again by :meth:`Recorder.uninstall`.

Two kinds of wrapper:

* span wrappers for calls made a few times per op: each call is kept as
  ``(op, span_id, parent_id, name, start, end, camera_rays)``;
* counter wrappers for calls made per ray segment (tens of thousands per
  op): each op keeps ``[calls, seconds, non-None results]`` per name,
  because a span per call would not fit in memory.

Everything stays in memory until :meth:`Recorder.dump` at the end.
"""
from __future__ import annotations

import inspect
import itertools
import json
import statistics
from time import perf_counter

# (module, attribute, span name).  Names starting "render.render_view_s"
# get the scene name appended so each preset has its own span.
SPAN_TARGETS = (
    ("tracer", "trace_bundle", "tracer.trace_bundle_s"),
    ("tracer", "terminal_rays", "tracer.terminal_rays_s"),
    ("tracer", "spot_diagram", "tracer.spot_diagram_s"),
    ("geometry", "closest_point_to_rays", "geometry.closest_point_s"),
    ("render", "render_view", "render.render_view_s"),
    ("render", "sharpness_metric", "render.sharpness_s"),
    ("render", "tone_map", "render.tone_map_s"),
    ("render", "write_ppm", "render.write_ppm_s"),
    ("render", "defocus_sweep", "render.defocus_sweep_s"),
    ("render", "write_csv", "render.write_csv_s"),
)

# Names the tracer module imported from geometry and elements; its inner
# loop looks them up in its own globals, so wrapping them there counts
# every call the forward tracer makes.
COUNTER_TARGETS = (
    ("intersect_plane", "geometry.intersect_plane"),
    ("advanced", "geometry.advanced"),
    ("classify_tmd_mode", "elements.classify_tmd_mode"),
    ("tmd_transform", "elements.tmd_transform"),
    ("thin_lens_transform", "elements.thin_lens_transform"),
    ("half_mirror_interact", "elements.half_mirror_interact"),
    ("convex_mirror_transform", "elements.convex_mirror_transform"),
)
COUNTER_NAMES = tuple(name for _, name in COUNTER_TARGETS)


class Recorder:
    """Span and counter store for one traced process."""

    def __init__(self, modules: dict):
        self._modules = modules      # short name -> imported tmdsim module
        self._saved = []             # (module, attribute, original)
        self._stack = []             # open span ids, innermost last
        self._ids = itertools.count()
        self.spans = []
        self.counters = {}           # op -> {name: [calls, seconds, hits]}
        self.op = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counters[op] = {name: [0, 0.0, 0] for name in COUNTER_NAMES}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, name in SPAN_TARGETS:
            self._patch(self._modules[mod_name], attr, self._span_wrapper(
                getattr(self._modules[mod_name], attr), name))
        tracer_mod = self._modules["tracer"]
        for attr, name in COUNTER_TARGETS:
            self._patch(tracer_mod, attr,
                        self._counter_wrapper(getattr(tracer_mod, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, fn, name):
        per_scene = name == "render.render_view_s"
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name
            rays = 0
            if per_scene:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                scene = bound.arguments["scene"]
                camera = bound.arguments["camera"] or scene.eye
                label = f"{name}.{scene.name}"
                w_px, h_px, _ = camera.sensor
                rays = w_px * h_px * bound.arguments["rays_per_pixel"]
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op, span_id, parent, label, start, end, rays))

        return wrapper

    def _counter_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            entry = self.counters[self.op][name]
            entry[0] += 1
            entry[1] += elapsed
            if out is not None:
                entry[2] += 1
            return out

        return wrapper

    # -- reduction --------------------------------------------------------

    def per_op(self, ops) -> list:
        """One dict per op: span seconds summed by name, camera rays, and
        the counter entries."""
        rows = {op: {"spans": {}, "camera_rays": 0} for op in ops}
        for op, _, _, label, start, end, rays in self.spans:
            row = rows[op]
            row["spans"][label] = row["spans"].get(label, 0.0) + (end - start)
            row["camera_rays"] += rays
        for op in ops:
            rows[op]["counters"] = self.counters[op]
        return [rows[op] for op in ops]

    def dump(self, path) -> None:
        data = {
            "spans": [dict(zip(("op", "id", "parent", "name", "start", "end",
                                "camera_rays"), s)) for s in self.spans],
            "counters": {str(op): c for op, c in self.counters.items()},
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def median_of(rows, get) -> float:
    """Median over ops of one per-op value (0.0 when there are no ops)."""
    values = [get(row) for row in rows]
    return float(statistics.median(values)) if values else 0.0
