"""Bit-for-bit golden digests of backward renders.

Each digest is a sha256 of an image's linear float64 pixels.  The values
were recorded with the mask-gather renderer that the index-grouped batch
loop replaced, so any change to the arithmetic of the backward tracer, or
to the order in which samples add into a pixel, fails here.

The presets render on a small sensor cropped around the centre of their
own (same pixel pitch), 40 x 34 pixels, so a render is two row blocks.  The
custom scenes cover the element branches the presets leave out, and two
degenerate batch shapes: one-row batches (a 1 x 1 sensor) and a batch in
which exactly one ray is ahead of a plane or hits an element.  The turned
scenes move a scene by a rigid motion with no axis-aligned part.  The
digests of the turned mixed and ping-pong crops were recorded on the
renderer that still kept its own copy of the row arithmetic; the turned
1 x 1 view, whose one-row batches now round like any batch, on the shared
row forms of geometry.py (it reads the same bits on both).  The
convex_mirror_crop, mixed and mixed_turned digests were re-recorded when
the renderer's curved-cap test and reflection moved to the forward
tracer's rounding (np.vecdot dots, `normalize_rows` normals): 77 pixels
moved, each by at most 1.5e-12 relative and 2e-14 absolute, and the tone
mapped bytes of every case stayed the same.  The absorbers digests were
recorded while the renderer still skipped an absorber's rays by a test of
its own; the interaction table now gives them no branch.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim import render
from tmdsim.elements import (Absorber, ConvexMirror, HalfMirror, Screen,
                             ThinLens, TmdPlate)
from tmdsim.geometry import Pose, normalize, orthonormal_frame, vec3
from tmdsim.presets import (PRESET_BUILDERS, build_preset, half_mirror_preset,
                            tmd_see_through_preset)
from tmdsim.render import render_view
from tmdsim.scene import EyeCamera, Scene, camera_pose, make_pattern

CROP = (40, 34)


def _facing(position, normal=(0.0, 0.0, 1.0), up=(0.0, 1.0, 0.0)):
    return Pose.facing(vec3(*position), vec3(*normal), up)


def _with_sensor(camera, width, height, pitch=None):
    return EyeCamera(camera.ident, camera.pose, camera.focal_length,
                     camera.aperture_diameter,
                     (width, height, camera.sensor[2] if pitch is None else pitch))


def _cropped(name):
    scene = build_preset(name)
    return scene, _with_sensor(scene.eye, *CROP)


def _ping_pong():
    # An angle-dependent plate over two parallel splitters tilted by 45
    # degrees.  The plate's double band shrinks toward the corners, so the
    # rows of a batch carry different weights.  Between the splitters the
    # trapped branch walks sideways, halving its weight at every hit, and
    # fades below WEIGHT_CUTOFF (some rows of a batch before others) well
    # before the 24-bounce budget ends.  No ray comes back up to the plate.
    plate = TmdPlate("plate", _facing((0.0, 0.0, 40.0)), (200.0, 200.0),
                     mode_weights=(0.9, 0.0, 0.1), angular_fill=True,
                     mirror_ratio=0.2)
    tilt = (0.0, 1.0, 1.0)
    b = HalfMirror("b", _facing((0.0, 0.0, -40.0), tilt), (200.0, 200.0),
                   reflectance=0.5)
    a = HalfMirror("a", _facing(tuple(vec3(0.0, 0.0, -40.0)
                                      - 3.0 * normalize(vec3(*tilt))), tilt),
                   (200.0, 200.0), reflectance=0.5)
    side = Screen("side", _facing((0.0, 60.0, -20.0), (0.0, -1.0, 0.0),
                                  (0.0, 0.0, 1.0)),
                  (900.0, 900.0), make_pattern("hgrad", 16))
    wall = Screen("wall", _facing((0.0, 0.0, -400.0)), (900.0, 900.0),
                  make_pattern("checker 4", 16))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 300.0), (0.0, 0.0, -1.0)),
                    sensor=(24, 20, 1.5))
    return Scene((plate, a, b, side), eye, wall, "ping_pong")


def _mixed():
    # A lens whose mount is hit, a pitched polarizer plate with angular
    # fill, a 45-degree flat mirror onto a side screen, a curved cap and
    # an absorber, in front of a plate-imaged panel and a background.
    lens = ThinLens("lens", _facing((28.0, 0.0, 60.0)), 35.0, 16.0,
                    housing_extent=(30.0, 30.0))
    flat = ConvexMirror("flat", _facing((-30.0, 8.0, 50.0), (1.0, 0.0, 1.0)),
                        1.0, (20.0, 20.0), eye_distance=150.0)
    cap = ConvexMirror("cap", _facing((-5.0, -30.0, 40.0), (0.0, 0.2, 1.0)),
                       1.8, (24.0, 24.0), eye_distance=160.0)
    stop = Absorber("stop", _facing((8.0, 14.0, 100.0)), (6.0, 6.0))
    plate = TmdPlate("plate", Pose.identity(), (140.0, 140.0), pitch=0.3,
                     mode_weights=(0.5, 0.3, 0.15), angular_fill=True,
                     mirror_ratio=1.5, polarizer=True)
    panel = Screen("panel", _facing((0.0, 0.0, -60.0)), (60.0, 60.0),
                   make_pattern("checker 8", 32), (True, False))
    side = Screen("side", _facing((90.0, 0.0, 50.0), (-1.0, 0.0, 0.0)),
                  (200.0, 200.0), make_pattern("hgrad", 16))
    # Behind the eye: only light sent back up (off the cap) reaches it.
    sky = Screen("sky", _facing((0.0, 0.0, 400.0), (0.0, 0.0, -1.0)),
                 (2000.0, 2000.0), make_pattern("checker 4", 16))
    world = Screen("world", _facing((0.0, 0.0, -600.0)), (4000.0, 4000.0),
                   make_pattern("uniform 0.2", 4))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 200.0), (0.0, 0.0, -1.0)),
                    aperture_diameter=6.0, sensor=(48, 40, 1.0))
    return Scene((lens, flat, cap, stop, plate, panel, side, sky), eye, world,
                 "mixed")


def _absorbers():
    # Absorbers met on three bounces: one across the top rows takes camera
    # rays, one above a 45-degree splitter takes its reflected branch, and
    # a stop behind the splitter takes part of the transmitted one before
    # it reaches the panel.
    near = Absorber("near", _facing((0.0, 7.0, 150.0)), (60.0, 2.0))
    split = HalfMirror("split", _facing((0.0, 0.0, 40.0), (0.0, 1.0, 1.0)),
                       (60.0, 60.0), reflectance=0.3)
    roof = Absorber("roof", _facing((0.0, 60.0, 40.0), (0.0, -1.0, 0.0),
                                    (0.0, 0.0, 1.0)), (400.0, 400.0))
    stop = Absorber("stop", _facing((-6.0, -4.0, 0.0)), (10.0, 8.0))
    panel = Screen("panel", _facing((0.0, 0.0, -60.0)), (60.0, 60.0),
                   make_pattern("checker 8", 32))
    world = Screen("world", _facing((0.0, 0.0, -600.0)), (4000.0, 4000.0),
                   make_pattern("uniform 0.2", 4))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 200.0), (0.0, 0.0, -1.0)),
                    aperture_diameter=6.0, sensor=(40, 34, 1.0))
    return Scene((near, split, roof, stop, panel), eye, world, "absorbers")


def _pixel_direction(camera, x, y):
    w_px, h_px, pitch = camera.sensor
    pose = camera.pose
    target = (pose.position - camera.focal_length * pose.normal
              + (0.5 * h_px - (y + 0.5)) * pitch * pose.v_axis
              + (x + 0.5 - 0.5 * w_px) * pitch * pose.u_axis)
    return normalize(target - pose.position)


ONE_RAY_SENSOR = (12, 10, 1.0)


def _one_ray_scene(with_tilted=True):
    # Pinhole rays from the eye.  The tilted absorber's plane passes 1 mm
    # from the eye with its normal chosen so that only the corner pixel's
    # ray is ahead of it, and the tiny mirror is hit by that pixel's ray
    # alone, which sends a one-row batch on to the side screen.
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 200.0), (0.0, 0.0, -1.0)),
                    sensor=ONE_RAY_SENSOR)
    corner = _pixel_direction(eye, ONE_RAY_SENSOR[0] - 1, 0)
    nxt = _pixel_direction(eye, ONE_RAY_SENSOR[0] - 2, 0)
    # Normal in the plane of the eye axis and the corner direction, tipped
    # so the corner ray leans toward it and its neighbour leans away.
    axis = vec3(0.0, 0.0, -1.0)
    side = normalize(corner - (corner @ axis) * axis)
    lean = 0.5 * ((corner @ side) / (corner @ axis) + (nxt @ side) / (nxt @ axis))
    normal = normalize(side - lean * axis)
    assert corner @ normal > 0 > nxt @ normal
    elements = []
    if with_tilted:
        elements.append(Absorber("tilted", Pose.facing(
            eye.pose.position + 1.0 * normal, normal), (1000.0, 1000.0)))
    hit = eye.pose.position + 150.0 * corner
    elements.append(ConvexMirror("tiny", _facing(tuple(hit), (1.0, 0.0, 1.0)), 1.0,
                                 (0.2, 0.2), eye_distance=100.0))
    elements.append(Screen("side", _facing((200.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                           (2000.0, 2000.0), make_pattern("hgrad", 8)))
    world = Screen("world", _facing((0.0, 0.0, -300.0)), (4000.0, 4000.0),
                   make_pattern("checker 2", 8))
    return Scene(tuple(elements), eye, world, "one_ray"), eye


def _one_pixel(name):
    scene = build_preset(name)
    return scene, _with_sensor(scene.eye, 1, 1)


def _one_pixel_mixed(target):
    # A 1 x 1 camera of the mixed scene aimed at one spot, so every batch
    # of the render has a single row.
    scene = _mixed()
    eye = scene.eye
    camera = EyeCamera(eye.ident, camera_pose(eye.pose.position,
                                              vec3(*target) - eye.pose.position),
                       eye.focal_length, eye.aperture_diameter, (1, 1, 1.0))
    return scene, camera


# A rigid motion with no axis-aligned part: every normal and up hint it
# carries has three nonzero components, so each dot and rotation of the
# renderer sums three nonzero products.
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


def _turned_view(scene, camera):
    return _turned(scene), camera and replace(camera, pose=_turned_pose(camera.pose))


# name -> (scene, camera) builder
CASES = {f"{name}_crop": (lambda name=name: _cropped(name))
         for name in sorted(PRESET_BUILDERS)}
CASES.update({
    "ping_pong": lambda: (_ping_pong(), None),
    "mixed": lambda: (_mixed(), None),
    "absorbers": lambda: (_absorbers(), None),
    "one_ray_ahead": _one_ray_scene,
    "one_ray_hit": lambda: _one_ray_scene(with_tilted=False),
    "ame_dk2_1x1": lambda: _one_pixel("ame_dk2"),
    "mixed_1x1_cap": lambda: _one_pixel_mixed((-5.0, -30.0, 40.0)),
    # On the rim of the clear aperture: the pinhole ray hits the mount,
    # some of the four aperture samples pass the lens.
    "mixed_1x1_rim": lambda: _one_pixel_mixed((36.2, 0.0, 60.0)),
})
CASES.update({f"{name}_turned": lambda name=name: _turned_view(*CASES[name]())
              for name in ("mixed", "ping_pong", "mixed_1x1_cap")})
MAX_BOUNCES = {"ping_pong": 24}
RPP = (1, 4)
SEED = 9

GOLDEN = {
    "absorbers/rpp1":
        "350386fe1ca5c0d45f83eb414ced72b520c511749aee0f12a7c2ddac4aec093f",
    "absorbers/rpp4":
        "1f3c59e88dbd32c7f114ed9e29de52a436acbacdefa7e7e5e5ec2449e963a3fe",
    "ame_cardboard_crop/rpp1":
        "1657cb9380f79efdf97ffe8517ca1e3d41023697b5c35d4dad5e49e440094c20",
    "ame_cardboard_crop/rpp4":
        "2155e126fa451ac75c1b571498ba1244882c44bb46cae51467c061c364c72dad",
    "ame_dk2_1x1/rpp1":
        "8bf2735a32b3ad78424e31b0e1ee9f7485ee95389578689bf1d059112c18dacb",
    "ame_dk2_1x1/rpp4":
        "e4d370f1d705b5ccaa8fde296b80eebe7b2afba1f04c1dfcaa144152f197f7ae",
    "ame_dk2_crop/rpp1":
        "7e1d4fa5dd531ab4b67f403671c80b07f3af5bf8c0cdd7904d18f7499df09407",
    "ame_dk2_crop/rpp4":
        "75d02f42fe0cdcbaecc4d47fffa7104da53b60f6c5eba4d3ee2711891de77415",
    "convex_mirror_crop/rpp1":
        "f0220b5761fc9bb36b729d6ad72e014a752358b432a2f385ca951e97eb2c686c",
    "convex_mirror_crop/rpp4":
        "55d19d79844031adcd7ecf4eb4e23b96c35f7e34a0836f99a7b76081e6265274",
    "defocus_eyepiece_crop/rpp1":
        "7a4c604d4904287d7a6d1d51bad2124340452080e05e3bf55e6596754c12204f",
    "defocus_eyepiece_crop/rpp4":
        "95ed4956fcfc55f34420285a41fd93e25a0cc8593206dc1a597817e860a373b3",
    "defocus_flat_crop/rpp1":
        "1dedc24daa1eed8af446ce7132625198afe9efb499086a8452cee09d09a7cef2",
    "defocus_flat_crop/rpp4":
        "792f730e1a0c01ac4768363a1fbf52eba352a77c4841fc478c1181ebac23d5fe",
    "half_mirror_crop/rpp1":
        "6af9c72737114dee659690aa045f65529d9255b42e4fd55cc1808ec8c3f0367d",
    "half_mirror_crop/rpp4":
        "6397544d3355e3a850074a3fea8438cb5fda5b5a2446adec14eed6d93f4e62b3",
    "mixed/rpp1":
        "ea4aae303c99d96912a7b474b8a6fce759fda05e9d7623d86e4cb9b274d59aed",
    "mixed/rpp4":
        "e4eaabac0864349e7264b7879b205aa754ba32cf470c9ebcbc3dd47060b6b3fd",
    "mixed_1x1_cap/rpp1":
        "ad34225d865aabdffaa886f9e3809997a584ba2ab5d0f1b8aea83124e43ca6f7",
    "mixed_1x1_cap/rpp4":
        "ec2552bf8a198c985a0d6b9a54acfcccec8b4e7390b44a09db3b8b2da170047e",
    "mixed_1x1_cap_turned/rpp1":
        "ad34225d865aabdffaa886f9e3809997a584ba2ab5d0f1b8aea83124e43ca6f7",
    "mixed_1x1_cap_turned/rpp4":
        "d9c9f151c9710f346f5ea80b3916efa79be373bcacbf1a0b2852016c7a4ec98e",
    "mixed_1x1_rim/rpp1":
        "c79e69891b927d0cc9fea498663cedb006ef2917ab3365ba492657cc844cd6e0",
    "mixed_1x1_rim/rpp4":
        "6d05b4886bdebc40c3143c45abd07489c9748e0e37b602eb72551943f0dad430",
    "mixed_turned/rpp1":
        "45865d7bff64e66e74d80dd8608af7837784ebc73670e53d1ef9afd69ebe5cb8",
    "mixed_turned/rpp4":
        "eb643e507d6c05dec0008386a047b7c38a9ff28a22476a45ece6e2d6773ef7ff",
    "one_ray_ahead/rpp1":
        "920dcde93133c5ea4c097bfbd44cbee66b3b32fb3355d6b18a99ba3f7a83c4f4",
    "one_ray_ahead/rpp4":
        "46047a2ad13ffa8c8af27ccbb6ac2b48b885daa59ce5f577906014fc1b30e155",
    "one_ray_hit/rpp1":
        "dc110534054ca1625ff9fee167b8643eefc2d941fd5522f2143bd1ee602e135a",
    "one_ray_hit/rpp4":
        "89ee4fe212198b82be7801304207123b94fe54421a1fbcefb9c92cf906f2126e",
    "ping_pong/rpp1":
        "c983ce2982d8da0c3fbeaaebf9d67a5eda7f55ca585334d821393f292200f921",
    "ping_pong/rpp4":
        "2feb4d3201714b7645bbfdaa898bb5f6cc0cd015c486e4f77ccb8b651e17b055",
    "ping_pong_turned/rpp1":
        "f0334389ded4e75740d93e4b77fc9fb1df1d02df0449315552564c90510c1056",
    "ping_pong_turned/rpp4":
        "ed2afefb0329d1cc885eed3d071028e5ca94e08c2c03b312f3a6fa33f51bb4f9",
    "tmd_see_through_crop/rpp1":
        "7dc42446cc46f89e3784852a1cbd73a85e62a9020615c1527d45abfa0b4ad904",
    "tmd_see_through_crop/rpp4":
        "cfd81c7179517a6c87cb6374fd7b162df6d5185484cf6d7cd809cdae9207b0aa",
}

_SCENES: dict = {}


def _digest(image):
    h = hashlib.sha256(f"{image.width}x{image.height}|".encode())
    h.update(np.ascontiguousarray(image.pixels, dtype=np.float64).tobytes())
    return h.hexdigest()


def render_digest(name, rpp, workers=1):
    if name not in _SCENES:
        _SCENES[name] = CASES[name]()
    scene, camera = _SCENES[name]
    return _digest(render_view(scene, camera, rays_per_pixel=rpp, seed=SEED,
                               max_bounces=MAX_BOUNCES.get(name, 12),
                               workers=workers))


@pytest.mark.parametrize("rpp", RPP)
@pytest.mark.parametrize("name", sorted(CASES))
def test_render_matches_golden_digest(name, rpp):
    assert render_digest(name, rpp) == GOLDEN[f"{name}/rpp{rpp}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_worker_count_never_changes_a_render(name):
    assert render_digest(name, 4, workers=3) == GOLDEN[f"{name}/rpp4"]


def test_one_ray_scene_isolates_the_corner_pixel():
    # The tilted absorber takes the corner ray and nothing else; without it
    # the tiny mirror sends that ray alone to the side screen.
    scene, camera = _one_ray_scene()
    bare, _ = _one_ray_scene(with_tilted=False)
    world = Scene((), camera, scene.background)
    pinhole = dict(rays_per_pixel=1, workers=1)
    ref = render_view(world, camera, **pinhole).luminance()
    for s, expect_corner in ((scene, 0.0), (bare, None)):
        lum = render_view(s, camera, **pinhole).luminance()
        differs = np.argwhere(lum != ref)
        assert differs.tolist() == [[0, ONE_RAY_SENSOR[0] - 1]]
        if expect_corner is not None:
            assert lum[0, -1] == expect_corner


def test_plate_rows_below_the_cutoff_are_dropped_alone():
    # Toward the corners the angular-fill double band falls to zero, so in
    # one batch some rows keep their double branch and others drop it.  On
    # a uniform panel each pixel is the sum of its surviving branch weights.
    plate = TmdPlate("plate", Pose.identity(), (200.0, 200.0),
                     mode_weights=(0.9, 0.0, 0.1), angular_fill=True,
                     mirror_ratio=0.1)
    panel = Screen("panel", _facing((0.0, 0.0, -50.0)), (900.0, 900.0),
                   make_pattern("uniform 1.0", 4))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 300.0), (0.0, 0.0, -1.0)),
                    sensor=(24, 20, 1.5))
    scene = Scene((plate, panel), eye)
    lum = render_view(scene, rays_per_pixel=1, workers=1).luminance()
    assert lum[0, 0] == pytest.approx(0.1, rel=1e-12)
    assert lum[-1, -1] == pytest.approx(0.1, rel=1e-12)
    assert lum[10, 12] > 0.5
    assert np.array_equal(render_view(scene, rays_per_pixel=4, workers=3).pixels,
                          render_view(scene, rays_per_pixel=4, workers=1).pixels)


# Scenes with a branch whose share is nonzero but below WEIGHT_CUTOFF: the
# plate's pass band and the splitter's transmitted share, each 5e-5 of a ray.
# The digests were recorded while the interaction table still dropped those
# rows itself; the renderer now drops them at the start of its next pass.
CUTOFF_CASES = {
    "faint_pass": lambda: tmd_see_through_preset(
        40, 150, 60, 60, pitch=0.5, mode_weights=(0.9, 0.0, 5e-5)),
    "faint_transmit": lambda: half_mirror_preset(40, 20, 20,
                                                 reflectance=0.99995),
}
CUTOFF_GOLDEN = {
    "faint_pass":
        "97ffdbda389a03415ec76ef3e8e48390d7d496d9ea99e00bfa07b192286f7ca7",
    "faint_transmit":
        "2a669e2ee00929efdedcd5039895f52ca69c68c4911ae0338543190c25ccc03d",
}


def _cutoff_render(name, workers):
    scene = CUTOFF_CASES[name]()
    camera = _with_sensor(scene.eye, 48, 40)
    return render_view(scene, camera, rays_per_pixel=4, seed=SEED,
                       workers=workers)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("name", sorted(CUTOFF_CASES))
def test_rows_below_the_cutoff_match_golden_digest(name, workers):
    assert _digest(_cutoff_render(name, workers)) == CUTOFF_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CUTOFF_CASES))
def test_the_cutoff_golden_scenes_drop_light(name, monkeypatch):
    # Without the cutoff the faint branch adds to the image, so the digests
    # above pin where its rows leave the walk.
    kept = _cutoff_render(name, 1).pixels
    monkeypatch.setattr(render, "WEIGHT_CUTOFF", 0.0)
    assert (_cutoff_render(name, 1).pixels > kept).any()


@given(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0),
                 st.floats(-60.0, 100.0)),
       st.sampled_from((3, 7, 33)), st.sampled_from(RPP))
@settings(max_examples=60, deadline=None)
def test_centre_pixel_ignores_the_view_size(target, n, rpp):
    # The centre pixel of an odd n x n view sits at xs = ys = 0, so its rays
    # are bit for bit those of the 1 x 1 view aimed the same way; only the
    # rows that share their batches differ (one row alone in the 1 x 1).
    scene, one = _turned_view(*_one_pixel_mixed(target))
    pixels = [render_view(scene, camera, rays_per_pixel=rpp, seed=SEED,
                          workers=1).pixels
              for camera in (one, _with_sensor(one, n, n))]
    assert pixels[1][n // 2, n // 2].tobytes() == pixels[0][0, 0].tobytes()
