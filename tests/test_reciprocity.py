"""Reciprocity between the forward tracer and the renderer.

The plate forms an exact real image, so light traced forward from a
screen point to the eye and then sent back from where it met the eye must
retrace its path.  At pitch 0 (snapping an exit to its cell centre cannot
be undone) a forward `trace_ray` from a screen point, on a drawn random
stream, whose root path ends at the eye is reversed at its eye hit and
handed to the renderer's batch loop as one pixel.  Every
`render._interact` call is recorded, and one branch of the renderer's
tree must:

- visit the forward path's elements in reverse order, each at the forward
  hit point, then the source screen within 1e-9 mm of the source;
- carry exactly the product of the renderer's split fractions along that
  branch: the plate's band fraction for the forward path's plate
  interaction (from the renderer's own incidence), and the half mirror's
  reflectance or its complement.  A root path takes a half mirror's
  stronger branch, the part `split_weights` computes as a product.

Source points and directions come from a forward bundle out of the eye's
pupil into the scene: the last leg of a path that ends on a screen,
reversed.  The scenes are the golden scene builders that hold a screen,
the turned ones and the curved caps included, and the forward ping-pong
builder with splitters that transmit more than they reflect, so that root
paths cross them.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import test_render_golden as render_golden
import test_trace_golden as trace_golden
from tmdsim import render
from tmdsim.elements import (PLATE_INTERACTIONS, HalfMirror, Screen, TmdPlate,
                             double_band)
from tmdsim.geometry import WEIGHT_CUTOFF, Ray
from tmdsim.scene import Scene
from tmdsim.tracer import Cone, trace_bundle, trace_ray

TOLERANCE = 1e-9   # mm
MAX_BOUNCES = 16   # trace_ray's default budget, for both tracers

_SCENES: dict = {}


def _at_pitch_zero(scene):
    flat = [replace(el, pitch=0.0) if isinstance(el, TmdPlate) else el
            for el in scene.elements]
    return Scene(tuple(flat), scene.eye, scene.background, scene.name)


def _scene(name):
    if name not in _SCENES:
        kind, case = name.split(":")
        if kind == "trace":
            scene = trace_golden.case_inputs(case)[0]
        elif kind == "render":
            scene = render_golden.CASES[case]()[0]
        else:
            scene = trace_golden._ping_pong_scene(0.3, 0.2)
        _SCENES[name] = _at_pitch_zero(scene)
    return _SCENES[name]


# Every golden scene with a screen (the forward `mixed` case has none).
SCENE_NAMES = sorted(
    name for name in ([f"trace:{case}" for case in trace_golden.CASES]
                      + [f"render:{case}" for case in render_golden.CASES]
                      + ["builder:ping_pong_transmit"])
    if any(isinstance(el, Screen) for el in _scene(name).surfaces))


def _sources(scene, rng):
    """(screen index, point, direction) of rays that leave a screen toward
    the eye: the reversed last legs of a forward bundle from a point in the
    eye's pupil that end on a screen."""
    eye = scene.eye
    r = 0.5 * eye.aperture_diameter * rng.uniform(0.0, 0.98)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    pupil = eye.pose.position + r * (math.cos(phi) * eye.pose.u_axis
                                     + math.sin(phi) * eye.pose.v_axis)
    w, h, pitch = eye.sensor
    view = math.atan(0.5 * math.hypot(w, h) * pitch / eye.focal_length)
    cone = Cone(eye.look, min(view, 0.4) * rng.uniform(0.3, 1.0))
    bundle = trace_bundle(scene, pupil, 400, cone, seed=int(rng.integers(1 << 31)))
    index = {el.ident: k for k, el in enumerate(scene.surfaces)}
    found = []
    for path in bundle.paths:
        last = path.segments[-1]
        if last.interaction == "screen":
            found.append((index[last.element], last.point, -last.ray.direction))
    return found


def _forward(scene, rng):
    """(screen index, source point, forward path) of a forward trace_ray
    from a screen point whose root path ends at the eye, or None."""
    for _ in range(4):
        sources = _sources(scene, rng)
        for i in rng.permutation(len(sources)).tolist():
            screen, point, direction = sources[i]
            path = trace_ray(scene, Ray(point, direction), MAX_BOUNCES,
                             seed=int(rng.integers(1 << 31)),
                             ray_index=int(rng.integers(1 << 31)))
            if path.terminal == "reached_eye":
                return screen, point, path
    return None


def _backward(scene, eye_point, direction, monkeypatch):
    """Every `_interact` call of one reversed ray in the renderer's batch
    loop: (element index, bounce, hit point, direction, weight)."""
    calls = []
    interact = render._interact

    def recorded(el, k, point, u, v, bd, bw, bp, acc, queue, bounce):
        calls.append((k, bounce, point[0].copy(), bd.copy(), bw.copy()))
        return interact(el, k, point, u, v, bd, bw, bp, acc, queue, bounce)

    monkeypatch.setattr(render, "_interact", recorded)
    render._trace_batches(scene.surfaces, eye_point, direction[None],
                          np.ones(1), np.arange(1), np.zeros(1), MAX_BOUNCES)
    return calls


def _split(el, label, bd, w):
    """The weight the renderer hands on past `el` on the branch of the
    forward interaction `label`."""
    if isinstance(el, TmdPlate):
        code = PLATE_INTERACTIONS.index(label)
        _, p_s, p_p = el.mode_weights
        single = 0.5 * (0.0 if el.polarizer else p_s)
        band = (double_band(el, el.pose.to_local_dirs(bd)), single, single, p_p)
        return w * band[code]
    if isinstance(el, HalfMirror):
        r = el.reflectance
        return w * (r if label == "half_mirror_reflect" else 1.0 - r)
    return w  # a lens or a mirror passes the whole weight on


@given(st.sampled_from(SCENE_NAMES), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_a_reversed_forward_path_retraces_it_in_the_renderer(name, seed):
    scene = _scene(name)
    forward = _forward(scene, np.random.default_rng(seed))
    if forward is None:
        reject()
    screen, source, path = forward
    eye_hit = path.segments[-1]
    assert eye_hit.element == scene.eye.ident
    legs = path.segments[:-1][::-1]
    index = {el.ident: k for k, el in enumerate(scene.surfaces)}
    want = [(index[seg.element], seg.point) for seg in legs] + [(screen, source)]

    with pytest.MonkeyPatch.context() as mp:
        calls = _backward(scene, eye_hit.point, -eye_hit.ray.direction, mp)

    w = np.ones(1)
    for step, (k, point) in enumerate(want):
        matches = [call for call in calls if call[0] == k and call[1] == step + 1]
        assert matches, (name, step, scene.surfaces[k].ident)
        _, _, at, bd, bw = min(matches,
                               key=lambda call: np.linalg.norm(call[2] - point))
        assert np.linalg.norm(at - point) <= TOLERANCE, (name, step)
        assert bw.tobytes() == w.tobytes(), (name, step)
        if step < len(legs):
            w = _split(scene.surfaces[k], legs[step].interaction, bd, w)
            if w[0] < WEIGHT_CUTOFF:
                reject()  # the renderer drops this branch here


def test_the_scenes_include_turned_and_curved_ones():
    assert {"render:mixed_turned", "trace:ame_dk2_turned",
            "trace:convex_mirror", "render:mixed",
            "builder:ping_pong_transmit"} <= set(SCENE_NAMES)
