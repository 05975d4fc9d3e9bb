"""Every reader of the interaction table takes a branch one way.

`elements.leave` states it: a ray on a branch leaves from the branch's
exit point, along its direction, with its weight.  Here `leave` is
replaced, in every module that reads it, by a table whose lens and
half-mirror branches carry half the weight and leave from exit points
moved by a fixed offset.  The forward tracer, the per-ray forms and the
renderer must all follow it, with no rule of their own about which
element may move or weaken a ray.  Nor may a reader round a lens exit its
own way: every one of them gets the table's bits.
"""
from dataclasses import replace

import numpy as np
import pytest

from tmdsim import elements, render, tracer
from tmdsim.elements import (HalfMirror, Screen, ThinLens, half_mirror_interact,
                             nearest_hits, thin_lens_transform)
from tmdsim.geometry import MODE_PRIMARY, Pose, Ray, normalize_rows, vec3
from tmdsim.presets import build_preset
from tmdsim.render import render_view
from tmdsim.tracer import Cone, trace_bundle

OFFSET = vec3(0.25, -0.5, 1.0)


def _reweighted(leave, offset):
    """`leave`, with its lens and half-mirror branches at half weight and,
    unless `offset` is None, their exit points moved by `offset`."""
    def table(el, *args, **kwargs):
        branches = leave(el, *args, **kwargs)
        if not isinstance(el, (ThinLens, HalfMirror)):
            return branches
        return [(code, rows, exits if offset is None else exits + offset,
                 dirs, 0.5 * w) for code, rows, exits, dirs, w in branches]
    return table


@pytest.fixture
def reweight(monkeypatch):
    def install(offset):
        table = _reweighted(elements.leave, offset)
        for module in (elements, tracer, render):
            monkeypatch.setattr(module, "leave", table)
    return install


@pytest.mark.parametrize("preset", ["ame_dk2", "defocus_eyepiece"])
def test_the_forward_tracer_takes_a_lens_branch_as_given(preset, reweight):
    # A cone from just in front of the panel, through the lens.
    scene = build_preset(preset)
    [lens] = [el for el in scene.surfaces if isinstance(el, ThinLens)]
    [panel] = [el for el in scene.surfaces if isinstance(el, Screen)]
    source = panel.pose.position + vec3(0.0, 0.0, 1.0)
    reweight(OFFSET)
    bundle = trace_bundle(scene, source, 64, Cone(vec3(0.0, 0.0, 1.0), 0.2))
    seen = 0
    for root in bundle.paths:
        for path in root.walk():
            for seg, after in zip(path.segments, path.segments[1:]):
                if seg.element != lens.ident:
                    continue
                ray = seg.ray
                hit = nearest_hits((lens,), ray.origin[None], ray.direction[None],
                                   -1)[2][0].at(None)[0][0]
                assert seg.point.tobytes() == (hit + OFFSET).tobytes()
                assert after.ray.weight == 0.5 * ray.weight
                seen += 1
    assert seen > 0


def test_the_per_ray_forms_take_their_branches_as_given(reweight):
    pose = Pose.facing(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 1.0))
    lens = ThinLens("lens", pose, 50.0, 20.0)
    mirror = HalfMirror("half", Pose.facing(vec3(0.0, 0.0, 0.0),
                                            vec3(0.0, 1.0, 1.0)), (40.0, 40.0), 0.3)
    ray = Ray(vec3(1.0, 2.0, -50.0), vec3(0.01, -0.02, 1.0), 0.75)
    plain = [thin_lens_transform(ray, lens), *half_mirror_interact(ray, mirror)]
    reweight(OFFSET)
    moved = [thin_lens_transform(ray, lens), *half_mirror_interact(ray, mirror)]
    for got, want in zip(moved, plain, strict=True):
        assert got.origin.tobytes() == (want.origin + OFFSET).tobytes()
        assert got.direction.tobytes() == want.direction.tobytes()
        assert got.weight == 0.5 * want.weight


@pytest.mark.parametrize("preset", ["ame_dk2", "half_mirror", "defocus_eyepiece"])
def test_the_renderer_takes_a_branch_weight_as_given(preset, reweight):
    scene = build_preset(preset)
    camera = replace(scene.eye, sensor=(24, 20, scene.eye.sensor[2]))
    plain = render_view(scene, camera, rays_per_pixel=2, workers=1).pixels
    reweight(None)
    halved = render_view(scene, camera, rays_per_pixel=2, workers=1).pixels
    assert plain.any()
    assert halved.tobytes() == (0.5 * plain).tobytes()


@pytest.mark.parametrize("preset", ["ame_dk2", "defocus_eyepiece"])
def test_every_reader_gets_the_same_lens_exit_bits(preset):
    # Rays from a point between the panel and the eyepiece, a third of the
    # way out, through a grid over the clear aperture: their exits diverge,
    # and the two row normalizations round 1.5-3% of them apart.
    scene = build_preset(preset)
    [lens] = [el for el in scene.surfaces if isinstance(el, ThinLens)]
    [panel] = [el for el in scene.surfaces if isinstance(el, Screen)]
    pose = lens.pose
    source = (pose.position + 0.3 * (panel.pose.position - pose.position)
              + 2.0 * pose.u_axis + 1.0 * pose.v_axis)
    grid = np.linspace(-0.45, 0.45, 48) * lens.aperture_diameter
    u, v = (a.reshape(-1, 1) for a in np.meshgrid(grid, grid))
    inside = np.hypot(u, v)[:, 0] < 0.45 * lens.aperture_diameter
    u, v = u[inside], v[inside]
    origins = np.tile(source, (len(u), 1))
    directions = normalize_rows(pose.position + u * pose.u_axis + v * pose.v_axis
                                - source)
    near, _, hits = nearest_hits((lens,), origins, directions, -1)
    assert (near == 0).all()
    k = scene.surfaces.index(lens)
    queue = []
    render._interact(lens, k, *hits[0].at(None), directions, np.ones(len(u)),
                     np.arange(len(u)), None, queue, 0)
    [(_, queued, _, passed, _, _)] = queue
    assert len(passed) == len(u)
    for at, got in enumerate(queued):
        ray = Ray.from_unit(origins[at], directions[at], 1.0, MODE_PRIMARY)
        want = Ray(origins[at], got).direction
        assert thin_lens_transform(ray, lens).direction.tobytes() == want.tobytes()
    # The forward kernel's lens leg, as its next pass logs it.
    bundle = tracer._trace(scene, origins, directions, np.ones(len(u)), MODE_PRIMARY,
                           np.arange(len(u), dtype=np.uint64), 0, 2)
    assert (bundle.elem[bundle.step == 0] == k).all()
    legs = bundle.direction[bundle.step == 1]
    assert legs.tobytes() == normalize_rows(normalize_rows(queued)).tobytes()
