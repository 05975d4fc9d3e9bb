"""Both tracers' nearest-hit search against a plain scan.

Each tracer tests a plane only for the rays it could still win: those
crossing it nearer than their best hit so far.  Wrapped around every
search of a real trace or render of the golden scenes, and of a scene
whose planes coincide so that rays tie exactly, the search must give the
element, the distance bits and the hit-record bits of a scan that tests
every element for every ray, rules out the flat element a ray just left
and keeps the first of equal distances, so that an earlier element wins a
tie.  The forward tracer lists the eye last in its search, so the eye must
be strictly nearer than every surface; the scan tests the eye's pupil as
the forward tracer once did beside the search, on the unbounded plane's
crossings.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_left_element
import test_render_golden as render_golden
import test_trace_golden as trace_golden
from tmdsim import render, tracer
from tmdsim.elements import (Absorber, ConvexMirror, HalfMirror, Screen,
                            hit_groups, nearest_hits, sphere_cap_hits)
from tmdsim.geometry import (Pose, normalize, normalize_rows, plane_crossings,
                             plane_hits, vec3)
from tmdsim.render import render_view
from tmdsim.scene import EyeCamera, Scene, camera_pose, make_pattern
from tmdsim.tracer import Cone, trace_bundle

TURN, SHIFT = trace_golden.TURN, trace_golden.SHIFT


def _pupil_crossings(pose, diameter, o, d):
    """The eye test as the forward tracer wrote it beside the search: the
    crossings of the unbounded plane, t set to inf off the disk."""
    hits = plane_crossings(o, d, pose)
    if hits is None:
        return None
    u, v = hits.u, hits.v
    out = u * u + v * v > (0.5 * diameter) ** 2
    hits.t[out if hits.rows is None else hits.rows[out]] = np.inf
    return hits


def _scan(surfaces, o, d, left):
    """(element or -1, distance or inf, records by element, exact ties) of
    every element tested for every ray."""
    o = np.broadcast_to(o, d.shape).copy()
    left = np.broadcast_to(left, len(d))
    ts, records = [], {}
    for k, el in enumerate(surfaces):
        if isinstance(el, ConvexMirror) and not el.flat:
            records[k] = sphere_cap_hits(el, o, d)
        elif isinstance(el, EyeCamera):
            records[k] = _pupil_crossings(el.pose, el.aperture_diameter, o, d)
        else:
            records[k] = plane_hits(o, d, el.pose, el.extent)
        ts.append(np.full(len(d), np.inf) if records[k] is None
                  else records[k].t)
    T = np.array(ts)
    rays = np.flatnonzero(left >= 0)
    T[left[rays], rays] = np.inf
    near = np.argmin(T, axis=0)  # the first of equal distances
    t = T[near, np.arange(len(d))]
    near[t == np.inf] = -1
    ties = int(np.count_nonzero(((T == t).sum(axis=0) > 1) & (t < np.inf)))
    return near, t, records, ties


def _assert_same(near, t, records, want):
    want_near, want_t, want_records, _ = want
    assert np.array_equal(near, want_near)
    assert t.tobytes() == want_t.tobytes()
    for k in np.unique(near[near >= 0]).tolist():
        rays = np.flatnonzero(near == k)
        for a, b in zip(records[k].at(rays), want_records[k].at(rays)):
            assert a.tobytes() == b.tobytes()


class Checked:
    """The shared search, as both tracers call it, wrapped with the scan;
    counts calls, calls whose last surface is an eye, and ties."""

    def __init__(self, mp):
        self.calls = self.eyes = self.ties = 0

        def checked_search(surfaces, o, d, left):
            near, t, hits = nearest_hits(surfaces, o, d, left)
            want = _scan(surfaces, o, d, left)
            _assert_same(near, t, hits, want)
            self.calls += 1
            self.eyes += isinstance(surfaces[-1], EyeCamera)
            self.ties += want[3]
            return near, t, hits

        mp.setattr(tracer, "nearest_hits", checked_search)
        mp.setattr(render, "nearest_hits", checked_search)


_SCENES: dict = {}


@given(st.sampled_from(sorted(trace_golden.CASES)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_forward_search_matches_the_scan(name, seed, n):
    scene, source, cone = trace_golden.case_inputs(name)
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        trace_bundle(scene, source, n, cone, seed=seed)
    assert checked.calls > 0 and checked.eyes == checked.calls


@given(st.sampled_from(sorted(render_golden.CASES)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((1, 4)))
@settings(max_examples=30, deadline=None)
def test_backward_search_matches_the_scan(name, seed, rpp):
    if name not in _SCENES:
        _SCENES[name] = render_golden.CASES[name]()
    scene, camera = _SCENES[name]
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        render_view(scene, camera, rays_per_pixel=rpp, seed=seed,
                    max_bounces=render_golden.MAX_BOUNCES.get(name, 12),
                    workers=1)
    assert checked.calls > 0 and checked.eyes == 0


def _turned(position, normal=(0.0, 0.0, 1.0)):
    return Pose.facing(TURN @ vec3(*position) + SHIFT, TURN @ vec3(*normal),
                       TURN @ vec3(0.0, 1.0, 0.0))


def _coincident(stop_first):
    """A stop and a panel on one plane, and a rim on the eye's plane: a ray
    that meets two of them meets both at the same distance, bit for bit."""
    plane = _turned((0.0, 0.0, 0.0))
    stop = Absorber("stop", plane, (20.0, 20.0))
    panel = Screen("panel", plane, (60.0, 60.0), make_pattern("uniform 1.0", 4))
    eye = EyeCamera("eye", camera_pose(TURN @ vec3(0.0, 0.0, 100.0) + SHIFT,
                                       TURN @ vec3(0.0, 0.0, -1.0)),
                    sensor=(16, 16, 2.0))
    rim = Absorber("rim", eye.pose, (10.0, 10.0))
    return Scene((stop, panel, rim) if stop_first else (panel, stop, rim), eye)


@pytest.mark.parametrize("stop_first", [True, False])
def test_coincident_planes_tie_to_the_first(stop_first):
    scene = _coincident(stop_first)
    source = TURN @ vec3(1.0, -2.0, 50.0) + SHIFT
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        for aim in ((0.0, 0.0, 100.0), (0.0, 0.0, 0.0)):
            axis = normalize(TURN @ vec3(*aim) + SHIFT - source)
            bundle = trace_bundle(scene, source, 64, Cone(axis, math.radians(4.0)))
            # The rim covers the eye's aperture and comes first, so no ray
            # reaches the eye; the stop's plane is the panel's.
            assert "reached_eye" not in bundle.stats["terminals"]
            want_screen = aim[2] == 0.0 and not stop_first
            assert ("screen" in bundle.stats["interactions"]) == want_screen
        image = render_view(scene, rays_per_pixel=4, seed=3, workers=1)
    assert checked.ties > 0
    # The centre pixels look at the stop, which hides the panel only when
    # it comes first.
    centre = image.luminance()[6:10, 6:10]
    assert (centre == 0.0).all() if stop_first else (centre > 0.0).all()


def test_grazing_rays_skip_the_element_they_left():
    # Without the left-element rule, some of these rays would meet the
    # plate again right after leaving it (see test_left_element).
    scene, origins, directions = test_left_element._grazing()
    n = len(origins)
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        tracer._trace(scene, origins, directions, np.ones(n), "primary",
                      np.arange(n, dtype=np.uint64), 1, 16)
        render._trace_batches(scene.surfaces, origins, directions, np.ones(n),
                              np.arange(n), np.zeros(n), max_bounces=12)
    assert checked.calls > 0


def _shared_normals():
    """A splitter, a panel and a far wall that share the normal +z, a stop
    whose normal is +z with a negative zero x component, a tilted absorber,
    and rays from above: most aim down, some are parallel to the planes."""
    def facing(position, normal):
        return Pose.facing(vec3(*position), vec3(*normal))

    up, signed = (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0)
    split = HalfMirror("split", facing((0.0, 0.0, 0.0), up), (80.0, 80.0), 0.3)
    stop = Absorber("stop", facing((0.0, 0.0, -10.0), signed), (8.0, 8.0))
    tilted = Absorber("tilted", facing((12.0, 0.0, -15.0), (0.0, 0.6, 0.8)),
                      (10.0, 10.0))
    panel = Screen("panel", facing((0.0, 0.0, -20.0), up), (30.0, 30.0),
                   make_pattern("checker 4", 16))
    wall = Screen("wall", facing((0.0, 0.0, -100.0), up), (400.0, 400.0),
                  make_pattern("uniform 0.5", 4))
    eye = EyeCamera("eye", camera_pose(vec3(0.0, 0.0, 100.0), (0.0, 0.0, -1.0)))
    scene = Scene((split, stop, tilted, panel), eye, wall)
    rng = np.random.default_rng(11)
    n = 48
    directions = np.column_stack([rng.uniform(-0.4, 0.4, (n, 2)),
                                  np.full(n, -1.0)])
    directions[::6, 2] = 0.0  # parallel to every plane but the tilted one
    directions = directions / np.linalg.norm(directions, axis=1)[:, None]
    origins = np.column_stack([rng.uniform(-10.0, 10.0, (n, 2)),
                               np.full(n, 30.0)])
    return scene, origins, directions


def test_planes_sharing_a_normal_match_the_scan():
    scene, origins, directions = _shared_normals()
    normals = [el.pose.normal for el in scene.surfaces if el.ident != "tilted"]
    assert all(np.array_equal(a, normals[0]) for a in normals)
    assert len({a.tobytes() for a in normals}) == 2
    assert (directions[::6] @ normals[0] == 0.0).all()
    n = len(origins)
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        bundle = tracer._trace(scene, origins, directions, np.ones(n),
                               "primary", np.arange(n, dtype=np.uint64), 1, 16)
        for o in (origins, origins[0]):  # rows, and one shared origin
            render._trace_batches(scene.surfaces, o, directions, np.ones(n),
                                  np.arange(n), np.zeros(n), max_bounces=12)
    assert checked.calls > 0
    hit = set(bundle.idents[k] for k in bundle.elem[bundle.elem >= 0].tolist())
    assert hit == {"split", "stop", "tilted", "panel", "wall"}


def _at_the_eye(surfaces, n=32):
    """An eye and a scene of `surfaces`, and n rays from 50 mm in front of
    the eye aimed inside its pupil."""
    eye = EyeCamera("eye", camera_pose(TURN @ vec3(0.0, 0.0, 100.0) + SHIFT,
                                       TURN @ vec3(0.0, 0.0, -1.0)),
                    sensor=(16, 16, 2.0))
    source = TURN @ vec3(0.3, -0.2, 50.0) + SHIFT
    axis = normalize(eye.pose.position - source)
    return Scene(surfaces(eye), eye), source, Cone(axis, math.radians(1.5)), n


def test_a_surface_on_the_eye_plane_wins_the_tie():
    # A rim on the eye's own plane, wider than the pupil: every ray meets
    # the rim and the eye at the same distance, bit for bit, and the rim,
    # listed before the eye, wins.  Without the rim every ray reaches the eye.
    scene, source, cone, n = _at_the_eye(
        lambda eye: (Absorber("rim", eye.pose, (10.0, 10.0)),))
    d = normalize_rows(tracer.cone_directions(cone, n))
    rim, eye = scene.surfaces[0], scene.eye
    t_rim = plane_hits(source, d, rim.pose, rim.extent).t
    t_eye = plane_hits(source, d, eye.pose, eye.extent).t
    assert np.isfinite(t_eye).all() and t_rim.tobytes() == t_eye.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        checked = Checked(mp)
        bundle = trace_bundle(scene, source, n, cone)
    assert checked.ties == n
    assert bundle.stats["terminals"] == {"absorbed": n}
    open_scene = Scene((), scene.eye)
    assert (trace_bundle(open_scene, source, n, cone).stats["terminals"]
            == {"reached_eye": n})


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.floats(1e-3, 60.0), st.booleans())
@settings(max_examples=200, deadline=None)
def test_disk_plane_hits_match_the_pupil_test(seed, n, diameter, shared):
    # One number as the extent is a disk of that diameter: the same
    # distances and hit records as the unbounded plane's crossings with t
    # set to inf off the disk, on rows that straddle its rim, some aimed
    # at the rim itself.
    rng = np.random.default_rng(seed)
    pose = Pose.facing(rng.uniform(-50.0, 50.0, 3), rng.standard_normal(3),
                       rng.standard_normal(3))
    o = pose.position + 80.0 * normalize_rows(rng.standard_normal((n, 3)))
    if shared:
        o = o[0]
    radius = 0.5 * diameter * rng.uniform(0.0, 1.5, (n, 1))
    radius[1::3] = 0.5 * diameter
    phi = rng.uniform(0.0, 2.0 * math.pi, (n, 1))
    aim = (pose.position + radius * np.cos(phi) * pose.u_axis
           + radius * np.sin(phi) * pose.v_axis)
    d = normalize_rows(aim - o)
    d[::7] = normalize_rows(rng.standard_normal((len(d[::7]), 3)))
    want = _pupil_crossings(pose, diameter, o, d)
    got = plane_hits(o, d, pose, diameter)
    if got is None:
        assert want is None or not np.isfinite(want.t).any()
        return
    assert got.t.tobytes() == want.t.tobytes()
    rows = np.flatnonzero(np.isfinite(want.t))
    for a, b in zip(got.at(rows), want.at(rows)):
        assert a.tobytes() == b.tobytes()


def test_hit_groups_follow_the_nearest_element():
    # Every ray the search gives an element is in that element's one group,
    # in ascending element order, with its hit record; a group that holds
    # every ray has rows None.  The rays have just left the splitter.
    scene, origins, directions = _shared_normals()
    surfaces = scene.surfaces + (scene.eye,)
    near, _, hits = nearest_hits(surfaces, origins, directions, 0)
    groups = list(hit_groups(near, hits))
    assert [k for k, *_ in groups] == sorted(set(near[near >= 0].tolist()))
    assert len(groups) > 2
    for k, rows, points, u, v in groups:
        assert np.array_equal(rows, np.flatnonzero(near == k))
        for a, b in zip((points, u, v), hits[k].at(rows)):
            assert a.tobytes() == b.tobytes()
    k, rows = groups[0][:2]
    near, _, hits = nearest_hits(surfaces, origins[rows], directions[rows], 0)
    [(k_all, rows_all, *_)] = hit_groups(near, hits)
    assert k_all == k and rows_all is None
