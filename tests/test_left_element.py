"""A ray never hits the flat element it just left, in either tracer.

Rays grazing a pass-only plate at |d.n| = 1e-9 leave it nudged 1e-6 mm
along their direction, 1e-15 mm off the plane: less than the rounding of
the exit point, so a full plane test would find the plate again about a
micrometre ahead for many of them.
"""
import numpy as np
import pytest

from tmdsim import render
from tmdsim.elements import Screen, TmdPlate
from tmdsim.geometry import Pose, Ray, orthonormal_frame, vec3
from tmdsim.scene import EyeCamera, Scene, camera_pose, make_pattern
from tmdsim.tracer import trace_ray

# The golden scenes' general rigid motion (tests/test_*_golden.py).
TURN = orthonormal_frame(vec3(0.3, -0.5, 0.8), (0.6, 0.7, 0.2))
SHIFT = vec3(7.0, -4.0, 3.0)
GRAZE = 1e-9
N = 200


def _turned(position, normal, up=(0.0, 1.0, 0.0)):
    return Pose.facing(TURN @ vec3(*position) + SHIFT, TURN @ vec3(*normal),
                       TURN @ vec3(*up))


def _grazing():
    """A pass-only plate, a uniform wall across the rays' way, and N rays
    that start 20 * GRAZE above the plate and cross it about 20 mm on."""
    plate = TmdPlate("plate", _turned((0, 0, 0), (0, 0, 1)), (400.0, 400.0),
                     mode_weights=(0.0, 0.0, 0.5))
    wall = Screen("wall", _turned((300, 0, 0), (-1, 0, 0)), (1000.0, 1000.0),
                  make_pattern("uniform 1.0", 4))
    eye = EyeCamera("eye", camera_pose(TURN @ vec3(0, 0, 500) + SHIFT,
                                       TURN @ vec3(0, 0, -1)))
    rng = np.random.default_rng(7)
    phi = rng.uniform(-0.3, 0.3, N)
    local = np.column_stack([np.cos(phi), np.sin(phi), np.full(N, -GRAZE)])
    directions = local @ TURN.T
    pose = plate.pose
    origins = (pose.position + rng.uniform(-150, -50, (N, 1)) * pose.u_axis
               + rng.uniform(-100, 100, (N, 1)) * pose.v_axis
               + 20.0 * GRAZE * pose.normal)
    assert np.abs(directions @ pose.normal) == pytest.approx(np.full(N, GRAZE),
                                                             rel=1e-6)
    return Scene((plate, wall), eye), origins, directions


def test_forward_paths_meet_the_plate_once():
    scene, origins, directions = _grazing()
    for i in range(N):
        path = trace_ray(scene, Ray(origins[i], directions[i]), seed=1, ray_index=i)
        elements = [s.element for s in path.segments]
        assert elements in (["plate"], ["plate", "wall"]), elements
        if elements == ["plate"]:
            assert path.segments[0].interaction == "absorbed"
        else:
            assert path.segments[0].interaction == "pass_through"
            assert path.segments[1].ray.weight == 1.0


def test_renderer_batch_meets_the_plate_once(monkeypatch):
    scene, origins, directions = _grazing()
    rows = {}
    interact = render._interact

    def counting(el, k, point, *rest):
        rows[el.ident] = rows.get(el.ident, 0) + len(point)
        return interact(el, k, point, *rest)

    monkeypatch.setattr(render, "_interact", counting)
    acc = np.zeros(N)
    render._trace_batches(scene.surfaces, origins, directions, np.ones(N),
                          np.arange(N), acc, max_bounces=12)
    assert rows == {"plate": N, "wall": N}
    # The pass branch halves each ray's weight once on its way to the wall.
    assert (acc == 0.5).all()
