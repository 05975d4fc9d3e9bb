"""The hit search and the curved-mirror forms both tracers share.

Both tracers call one nearest-hit search, one sphere-cap test and one
curved-mirror reflection.  The properties here check that the two ways of
naming the element a batch just left mean one rule, in which a curved cap
left is tested again as if nothing had been left, and that the shared
cap test and reflection give, bit for bit, what the forward tracer
computed with its own copy before they were merged (the copy is kept
below).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import test_render_golden as render_golden
import test_trace_golden as trace_golden
from tmdsim.elements import (ConvexMirror, nearest_hits, reflect_convex_mirror,
                             sphere_cap_hits)
from tmdsim.geometry import (PLANE_EPS, Pose, along_rows, dot_rows, normalize,
                             normalize_rows, sub_rows)


# ---------------------------------------------------------------------------
# The forms the forward tracer kept before the merge.

def _uv(pose, points):
    """Local (u, v) of world points given as rows."""
    rel = sub_rows(points, pose.position)
    return dot_rows(rel, pose.u_axis), dot_rows(rel, pose.v_axis)


def _reflect(directions, normals, dots):
    """d - 2(d.n)n over rows, one normal per row."""
    s = 2.0 * dots
    out = np.empty((len(directions), 3))
    for j in range(3):
        col = out[:, j]
        np.multiply(s, normals[:, j], out=col)
        np.subtract(directions[:, j], col, out=col)
    return out


def _trace_cap_ts(mirror, origins, directions):
    """The forward tracer's cap test, np.vecdot for its per-row dots."""
    R = mirror.curvature_radius
    pose = mirror.pose
    oc = sub_rows(origins, mirror.centre)
    b = np.vecdot(directions, oc)
    disc = b * b - (np.vecdot(oc, oc) - R * R)
    sq = np.sqrt(np.where(disc < 0, 0.0, disc))
    best = np.full(len(origins), np.inf)
    best_wl = np.full(len(origins), np.inf)
    for t in (-b - sq, -b + sq):
        points = along_rows(origins, t, directions)
        u, v = _uv(pose, points)
        wl = np.abs(dot_rows(sub_rows(points, pose.position), pose.normal))
        ok = ((disc >= 0) & (t > PLANE_EPS) & (np.abs(u) <= 0.5 * mirror.extent[0])
              & (np.abs(v) <= 0.5 * mirror.extent[1]) & (wl <= abs(R))
              & (wl < best_wl))
        best = np.where(ok, t, best)
        best_wl = np.where(ok, wl, best_wl)
    return best


def _trace_reflect(mirror, points, directions):
    """The forward tracer's curved-mirror reflection."""
    n = normalize_rows(mirror.centre - points)
    return _reflect(directions, n, np.vecdot(directions, n))


# ---------------------------------------------------------------------------
# Caps and rays.

def _golden_caps():
    caps = []
    for name in ("convex_mirror", "mixed", "mixed_turned"):
        scene = trace_golden.case_inputs(name)[0]
        caps += [el for el in scene.surfaces
                 if isinstance(el, ConvexMirror) and not el.flat]
    return caps


GOLDEN_CAPS = _golden_caps()


def _random_cap(rng):
    a_mag = rng.choice([rng.uniform(0.3, 0.85), rng.uniform(1.15, 3.0)])
    pose = Pose.facing(rng.uniform(-50.0, 50.0, 3), normalize(rng.standard_normal(3)),
                       normalize(rng.standard_normal(3)))
    return ConvexMirror("cap", pose, a_mag, tuple(rng.uniform(10.0, 80.0, 2)),
                        eye_distance=rng.uniform(20.0, 80.0))


def _aimed_rays(rng, pose, extent, n, shared):
    """n rays from points around `pose` (one point for all when shared),
    aimed at points spread over and beyond its rectangle."""
    m, span = 1 if shared else n, max(extent)
    o = (pose.position + rng.uniform(-span, span, (m, 3))
         + rng.choice([-1.0, 1.0], (m, 1)) * rng.uniform(5.0, 90.0, (m, 1))
         * pose.normal)
    o = o[0] if shared else o
    targets = (pose.position
               + rng.uniform(-0.7, 0.7, (n, 1)) * extent[0] * pose.u_axis
               + rng.uniform(-0.7, 0.7, (n, 1)) * extent[1] * pose.v_axis)
    return o, normalize_rows(targets - o)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(("rows", "stride0")),
       st.integers(-1, len(GOLDEN_CAPS) - 1))
@settings(max_examples=200, deadline=None)
def test_cap_forms_keep_each_tracers_bits(seed, n, layout, golden):
    rng = np.random.default_rng(seed)
    cap = GOLDEN_CAPS[golden] if golden >= 0 else _random_cap(rng)
    o, d = _aimed_rays(rng, cap.pose, cap.extent, n, layout == "stride0")
    if layout == "stride0":
        o = np.broadcast_to(o, (n, 3))
    want = _trace_cap_ts(cap, o, d)
    hits = sphere_cap_hits(cap, o, d)
    if hits is None:
        assert (want == np.inf).all()
        return
    assert hits.t.tobytes() == want.tobytes()
    # The record's winners are the rays with a hit, their points o + t d.
    rows = np.flatnonzero(hits.t < np.inf)
    points, u, v = hits.at(rows)
    assert points.tobytes() == along_rows(o[rows], hits.t[rows], d[rows]).tobytes()
    want_u, want_v = _uv(cap.pose, points)
    assert u.tobytes() == want_u.tobytes() and v.tobytes() == want_v.tobytes()
    out = reflect_convex_mirror(cap, points, d[rows])
    assert out.tobytes() == _trace_reflect(cap, points, d[rows]).tobytes()


# ---------------------------------------------------------------------------
# The element a batch just left, named once or per ray.

_SCENES: dict = {}


def _scene(name):
    if name not in _SCENES:
        kind, case = name.split(":")
        _SCENES[name] = (trace_golden.case_inputs(case)[0] if kind == "trace"
                         else render_golden.CASES[case]()[0])
    return _SCENES[name]


SCENE_NAMES = sorted([f"trace:{name}" for name in trace_golden.CASES]
                     + [f"render:{name}" for name in render_golden.CASES])


@given(st.sampled_from(SCENE_NAMES), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 40), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_left_once_or_per_ray_is_one_rule(name, seed, n, shared, data):
    # Rays start near element `left` (or near some element, for -1), off
    # its plane so that some would meet it again, and head for points on
    # every element of the scene.
    surfaces = _scene(name).surfaces
    left = data.draw(st.integers(-1, len(surfaces) - 1))
    cap = left >= 0 and isinstance(surfaces[left], ConvexMirror) \
        and not surfaces[left].flat
    rng = np.random.default_rng(seed)
    start = surfaces[left if left >= 0 else rng.integers(len(surfaces))]
    m = 1 if shared else n
    o = (start.pose.position
         + rng.uniform(-0.5, 0.5, (m, 1)) * start.extent[0] * start.pose.u_axis
         + rng.uniform(-0.5, 0.5, (m, 1)) * start.extent[1] * start.pose.v_axis
         + rng.uniform(-20.0, 20.0, (m, 1)) * start.pose.normal)
    o = o[0] if shared else o
    aims = rng.integers(len(surfaces), size=n)
    targets = np.array([surfaces[k].pose.position for k in aims])
    targets += rng.uniform(-0.6, 0.6, (n, 1)) * np.array(
        [surfaces[k].extent[0] * surfaces[k].pose.u_axis for k in aims])
    targets += rng.uniform(-0.6, 0.6, (n, 1)) * np.array(
        [surfaces[k].extent[1] * surfaces[k].pose.v_axis for k in aims])
    ahead = np.linalg.norm(targets - o, axis=1) > 1e-6
    if not ahead.any():
        return
    targets = targets[ahead]
    d = normalize_rows(targets - o)
    if not shared:
        o = o[ahead]

    results = [nearest_hits(surfaces, o, d, left),
               nearest_hits(surfaces, o, d, np.full(len(d), left))]
    if cap:  # a cap left is tested again, as if no element had been left
        results.append(nearest_hits(surfaces, o, d, -1))
    near, t, hits = results[0]
    for other_near, other_t, other_hits in results:
        if cap:
            assert other_hits[left] is not None or not (other_near == left).any()
        elif left >= 0:
            assert not (other_near == left).any() and other_hits[left] is None
        assert np.array_equal(near, other_near)
        assert t.tobytes() == other_t.tobytes()
        for k in np.unique(near[near >= 0]).tolist():
            rows = np.flatnonzero(near == k)
            for a, b in zip(hits[k].at(rows), other_hits[k].at(rows)):
                assert a.tobytes() == b.tobytes()
