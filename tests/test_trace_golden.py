"""Bit-for-bit golden digests of forward-trace bundles.

Each digest covers a bundle's statistics, its terminal rays and its full
path trees (interaction labels, element names, leg start points, in-flight
rays, terminals and branching).  The values were recorded with the per-ray
scalar tracer that the batched kernel replaced, so any change to the
arithmetic of the forward trace, however small, fails here.  The turned
cases, a scene moved by a rigid motion with no axis-aligned part, were
recorded once both tracers shared geometry.py's row forms (gemv dots in
place of np.vecdot): their labels, weights and statistics are those of
the earlier tracer, and each coordinate is within 3.2e-13 relative of
its value there.
"""
import hashlib
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim.elements import (Absorber, ConvexMirror, HalfMirror, Screen,
                             ThinLens, TmdPlate)
from tmdsim.errors import DegenerateBundle
from tmdsim.geometry import (Pose, Ray, closest_point_to_rays, normalize,
                             orthonormal_frame, vec3)
from tmdsim.presets import build_preset
from tmdsim.scene import EyeCamera, Scene, camera_pose, make_pattern
from tmdsim.tracer import (Cone, cone_directions, terminal_rays, trace_bundle,
                           trace_ray)

N_RAYS = 48
SEED = 5


def _facing_z(z, normal=(0.0, 0.0, 1.0)):
    return Pose.facing(vec3(0.0, 0.0, z), vec3(*normal))


def _ping_pong_scene(ra, rb):
    # Two facing splitters: long branch trees, and depending on the
    # reflectances a trunk that fades out or one cut off by the bounce
    # budget.
    a = HalfMirror("a", _facing_z(0.0), (80.0, 80.0), reflectance=ra)
    b = HalfMirror("b", _facing_z(12.0), (80.0, 80.0), reflectance=rb)
    wall = Screen("wall", _facing_z(-400.0), (300.0, 300.0),
                  make_pattern("checker 4", 16))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 300.0), (0.0, 0.0, -1.0)))
    return Scene((a, b), eye, wall, "ping_pong")


def _mixed_scene():
    # A lens whose mount is hit, an angle-dependent pitched plate, a flat
    # mirror, a curved cap and an absorber.
    lens = ThinLens("lens", _facing_z(-30.0), 35.0, 16.0,
                    housing_extent=(40.0, 40.0))
    plate = TmdPlate("plate", Pose.identity(), (90.0, 90.0), pitch=0.3,
                     mode_weights=(0.5, 0.3, 0.15), angular_fill=True,
                     mirror_ratio=1.5)
    flat = ConvexMirror("flat", _facing_z(45.0, (0.3, 0.0, -1.0)), 1.0,
                        (30.0, 30.0), eye_distance=40.0)
    cap = ConvexMirror("cap", _facing_z(-70.0, (0.0, 0.2, 1.0)), 1.8,
                       (60.0, 60.0), eye_distance=50.0)
    stop = Absorber("stop", _facing_z(25.0), (6.0, 6.0))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 60.0), (0.0, 0.0, -1.0)),
                    aperture_diameter=10.0)
    return Scene((lens, plate, flat, cap, stop), eye, None, "mixed")


def _panel(scene):
    return next(el for el in scene.elements if el.ident == "panel")


def _in_front_of_panel(offset):
    return lambda scene: _panel(scene).pose.position + vec3(*offset)


def _eye(scene):
    return scene.eye.pose.position


# A rigid motion with no axis-aligned part: every normal and up hint it
# carries has three nonzero components, so each dot and rotation of the
# tracer sums three nonzero products.
TURN = orthonormal_frame(vec3(0.3, -0.5, 0.8), (0.6, 0.7, 0.2))
SHIFT = vec3(7.0, -4.0, 3.0)


def _turned_pose(pose):
    return Pose.facing(TURN @ pose.position + SHIFT, TURN @ pose.normal,
                       TURN @ pose.v_axis)


def _turned(scene):
    moved = [replace(el, pose=_turned_pose(el.pose)) for el in scene.surfaces]
    background = moved.pop() if scene.background is not None else None
    eye = replace(scene.eye, pose=_turned_pose(scene.eye.pose))
    return Scene(tuple(moved), eye, background, scene.name)


def _turned_case(name):
    build, source_of, aim_of, half_angle = CASES[name]

    def turned(point_of):
        return lambda scene: TURN @ point_of(build()) + SHIFT

    return (lambda: _turned(build()), turned(source_of), turned(aim_of),
            half_angle)


# name -> (scene builder, source(scene), aim(scene), cone half angle, deg)
CASES = {
    "half_mirror": (lambda: build_preset("half_mirror"),
                    _in_front_of_panel((1.0, -1.0, 1.0)),
                    lambda scene: vec3(0.0, 0.0, 20.0), 2.0),
    "convex_mirror": (lambda: build_preset("convex_mirror"),
                      _in_front_of_panel((0.5, -0.5, 1.0)), _eye, 2.0),
    "tmd_see_through": (lambda: build_preset("tmd_see_through"),
                        _in_front_of_panel((5.0, -3.0, 0.5)), _eye, 2.0),
    "ame_dk2": (lambda: build_preset("ame_dk2"),
                _in_front_of_panel((2.0, -1.5, 0.5)), _eye, 2.0),
    "ame_cardboard": (lambda: build_preset("ame_cardboard"),
                      _in_front_of_panel((-3.0, 2.5, 0.5)), _eye, 3.0),
    "defocus_flat": (lambda: build_preset("defocus_flat"),
                     _in_front_of_panel((3.0, -2.0, 0.5)), _eye, 3.0),
    "defocus_eyepiece": (lambda: build_preset("defocus_eyepiece"),
                         _in_front_of_panel((3.0, -2.0, 0.5)), _eye, 3.0),
    "ping_pong_fade": (lambda: _ping_pong_scene(0.5, 0.5),
                       lambda scene: vec3(1.0, 2.0, 5.0),
                       lambda scene: vec3(0.0, 0.0, 12.0), 20.0),
    "ping_pong_budget": (lambda: _ping_pong_scene(0.97, 0.9),
                         lambda scene: vec3(1.0, 2.0, 5.0),
                         lambda scene: vec3(0.0, 0.0, 12.0), 20.0),
    "ping_pong_leak": (lambda: _ping_pong_scene(0.97, 0.3),
                       lambda scene: vec3(1.0, 2.0, 5.0),
                       lambda scene: vec3(0.0, 0.0, 12.0), 20.0),
    "mixed": (_mixed_scene, lambda scene: vec3(1.0, -2.0, -60.0),
              lambda scene: vec3(0.0, 0.0, 0.0), 25.0),
}
CASES.update({f"{name}_turned": _turned_case(name)
              for name in ("ame_dk2", "mixed", "ping_pong_leak")})

GOLDEN = {
    "ame_cardboard":
        "c089d208348851cf75ee3424ec4ad02d2030f627845a39fb0f654febdd8dd5cc",
    "ame_dk2":
        "8c343624c2afb1405c6a614633f4d05488527ee8c8e6bf68367a06d1dec4e1cb",
    "ame_dk2_turned":
        "73beed4a11571a3ac479795ae6bbdc6cf9a3cb6893841846cc5cfb4c3373c04e",
    "convex_mirror":
        "727df59c73f908bdb70da82606602ccc7af3dd58fdba7de059036d2ede01b737",
    "defocus_eyepiece":
        "6d96dbea07364d56bba4c4d7d8a538a39ad7a488faf2f0b1d262455f7aa8c150",
    "defocus_flat":
        "31177bfa1670475dc3c3951de293444613417f89c6870f15f7d5e0c3c4c99b44",
    "half_mirror":
        "220ca0c9f125d0b6ce54c8ff684904e36ec10f42ddefde63ec5fedb1ac83114e",
    "mixed":
        "69fe6b8a8b3a2886815a3d6e3882662f3bbf9cb474e5a7b5cfaa0c0e9be1fa24",
    "mixed_turned":
        "2dc351f53d36cff6ed5096c2f50a0ddcb2d7becbe63df720959eef4f5431b9bf",
    "ping_pong_budget":
        "a37d23afb250c6881c15c3e718f99d1d59882311a109525b0b3645352442bd79",
    "ping_pong_fade":
        "6059c139fdbd88508c98ea7cef7f8c736506719c9d7b84001869dce4045e9437",
    "ping_pong_leak":
        "f567e4bdf282a3576a1edfda7aae861697642e7a37a22b6fdbe17aa1f5ec0298",
    "ping_pong_leak_turned":
        "016b75bbf64d172d5b67606d82a7fbf2d7b42293b218027aca65a21f7b61a6d8",
    "tmd_see_through":
        "8936f126a1c8d6fd495826679033469f56b1c8ee215205151d426298870d2b3c",
}

_SCENES: dict = {}


def case_inputs(name):
    """(scene, source, cone) of a golden case; scenes are built once."""
    build, source_of, aim_of, half_angle = CASES[name]
    if name not in _SCENES:
        _SCENES[name] = build()
    scene = _SCENES[name]
    source = source_of(scene)
    cone = Cone(normalize(aim_of(scene) - source), math.radians(half_angle))
    return scene, source, cone


def _ray_bytes(ray):
    return (ray.origin.tobytes() + ray.direction.tobytes()
            + struct.pack("<d", ray.weight) + ray.mode.encode())


def update_with_path(h, path):
    """Feed one path tree, depth first, into a hash."""
    for node in path.walk():
        h.update(f"path|{node.terminal}|{len(node.segments)}|"
                 f"{len(node.children)}".encode())
        for seg in node.segments:
            h.update(f"seg|{seg.interaction}|{seg.element}|".encode())
            h.update(_ray_bytes(seg.ray))
            h.update(b"none" if seg.point is None
                     else np.asarray(seg.point, dtype=np.float64).tobytes())


def bundle_digest(bundle):
    h = hashlib.sha256()
    h.update(json.dumps(bundle.stats, sort_keys=True).encode())
    for ray in terminal_rays(bundle):
        h.update(_ray_bytes(ray))
    for root in bundle.paths:
        update_with_path(h, root)
    return h.hexdigest()


def case_digest(name, **kw):
    scene, source, cone = case_inputs(name)
    return bundle_digest(trace_bundle(scene, source, N_RAYS, cone, seed=SEED,
                                      **kw))


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundle_matches_golden_digest(name):
    assert case_digest(name) == GOLDEN[name]


def _path_digest(path):
    h = hashlib.sha256()
    update_with_path(h, path)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_ray_matches_the_first_bundle_paths(name):
    # Every case, turned ones included, traces its first 16 rays one row at
    # a time: a layout that rounds a lone row differently shows here.
    scene, source, cone = case_inputs(name)
    bundle = trace_bundle(scene, source, N_RAYS, cone, seed=SEED)
    dirs = cone_directions(cone, N_RAYS)
    for i in range(16):
        path = trace_ray(scene, Ray(source, dirs[i]), seed=SEED, ray_index=i)
        assert _path_digest(path) == _path_digest(bundle.paths[i]), i


@given(st.sampled_from(sorted(CASES)), st.integers(0, 2 ** 32),
       st.integers(1, 24), st.data())
@settings(max_examples=40, deadline=None)
def test_trace_ray_matches_bundle_path(name, seed, n, data):
    i = data.draw(st.integers(0, n - 1))
    scene, source, cone = case_inputs(name)
    bundle = trace_bundle(scene, source, n, cone, seed=seed)
    dirs = cone_directions(cone, n)
    path = trace_ray(scene, Ray(source, dirs[i]), seed=seed, ray_index=i)
    assert _path_digest(path) == _path_digest(bundle.paths[i])


@given(st.sampled_from(sorted(CASES)), st.integers(0, 2 ** 32),
       st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_worker_count_never_changes_a_bundle(name, seed, n):
    scene, source, cone = case_inputs(name)
    one = trace_bundle(scene, source, n, cone, seed=seed, workers=1)
    three = trace_bundle(scene, source, n, cone, seed=seed, workers=3)
    assert bundle_digest(one) == bundle_digest(three)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stats_keys_in_depth_first_order(name):
    # The stats dicts list their keys as a walk of the path trees first
    # meets them, segment by segment.
    scene, source, cone = case_inputs(name)
    bundle = trace_bundle(scene, source, N_RAYS, cone, seed=SEED)
    interactions, terminals, modes = {}, {}, {}
    for root in bundle.paths:
        for path in root.walk():
            for seg in path.segments:
                interactions.setdefault(seg.interaction)
            terminals.setdefault(path.terminal)
            modes.setdefault(path.segments[-1].ray.mode)
    assert list(bundle.stats["interactions"]) == list(interactions)
    assert list(bundle.stats["terminals"]) == list(terminals)
    assert list(bundle.stats["mode_weight"]) == list(modes)


def _assert_same_ray(ray, want):
    assert np.array_equal(ray.origin, want.origin)
    assert np.array_equal(ray.direction, want.direction)
    assert ray.weight == want.weight and type(ray.weight) is float
    assert ray.mode == want.mode


def _focus_or_error(rays):
    try:
        point, rms = closest_point_to_rays(rays)
    except DegenerateBundle as exc:
        return str(exc)
    return point.tobytes(), rms


@pytest.mark.parametrize("name", sorted(CASES))
def test_terminal_rays_sequence_matches_the_log_rows(name):
    scene, source, cone = case_inputs(name)
    bundle = trace_bundle(scene, source, N_RAYS, cone, seed=SEED)
    rows = bundle.propagating(None)
    want = [Ray.from_unit(bundle.origin[r], bundle.direction[r],
                          float(bundle.weight[r]), bundle.modes[bundle.mode[r]])
            for r in rows]
    seq = terminal_rays(bundle)
    n = len(seq)
    assert n == len(want) > 0
    for got, ray in zip(seq, want):
        _assert_same_ray(got, ray)
    for i in range(-n, n):
        _assert_same_ray(seq[i], want[i])
    a, b = n // 3, n - n // 4
    part = seq[a:b]
    assert len(part) == b - a
    for got, ray in zip(part, want[a:b]):
        _assert_same_ray(got, ray)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[i]
    assert not seq.origins.flags.writeable
    assert not seq.directions.flags.writeable
    assert not seq[0].origin.flags.writeable
    with pytest.raises(ValueError):
        seq.origins[0, 0] = 1.0
    assert _focus_or_error(seq) == _focus_or_error(list(seq))
