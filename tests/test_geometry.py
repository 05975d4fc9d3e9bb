import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim import geometry
from tmdsim.elements import ThinLens, TmdPlate, plate_exit, refract_thin_lens
from tmdsim.errors import DegenerateBundle, InvalidGeometry
from tmdsim.geometry import (PLANE_EPS, RAY_ADVANCE, Pose, Ray, RayRows,
                             advanced, along_rows, closest_point_to_rays,
                             dot_rows, intersect_plane,
                             normalize, normalize_rows, orthonormal_frame,
                             pick_rows, plane_crossings, plane_hits, reflect,
                             reflect_rows, sub_rows, vec3)

finite = st.floats(-1e3, 1e3, allow_nan=False)
unit_ish = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)


def rand_dir(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestNormalizeReflect:
    def test_normalize_unit_length(self):
        v = normalize(vec3(3.0, 4.0, 0.0))
        assert np.allclose(v, [0.6, 0.8, 0.0])

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            normalize(vec3(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_normalize_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            normalize(vec3(bad, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_normalize_rows_non_finite_raises(self, bad):
        rows = np.array([[3.0, 4.0, 0.0], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError):
            normalize_rows(rows)

    def test_reflect_normal_incidence(self):
        d = vec3(0.0, 0.0, -1.0)
        n = vec3(0.0, 0.0, 1.0)
        assert np.allclose(reflect(d, n), [0.0, 0.0, 1.0])

    def test_reflect_grazing_preserved(self):
        d = normalize(vec3(1.0, 0.0, 0.0))
        n = vec3(0.0, 0.0, 1.0)
        assert np.allclose(reflect(d, n), d)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_reflect_involution_and_norm(self, seed):
        rng = np.random.default_rng(seed)
        d, n = rand_dir(rng), rand_dir(rng)
        r = reflect(d, n)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12
        assert np.allclose(reflect(r, n), d, atol=1e-12)

    def test_reflect_flips_normal_component_only(self):
        rng = np.random.default_rng(3)
        d, n = rand_dir(rng), rand_dir(rng)
        r = reflect(d, n)
        assert abs(float(r @ n) + float(d @ n)) < 1e-12
        tang = d - (d @ n) * n
        assert np.allclose(r - (r @ n) * n, tang, atol=1e-12)


class TestRay:
    def test_direction_normalized(self):
        r = Ray(vec3(0, 0, 0), vec3(0.0, 0.0, 5.0))
        assert np.allclose(r.direction, [0, 0, 1])

    def test_at(self):
        r = Ray(vec3(1.0, 2.0, 3.0), vec3(0.0, 1.0, 0.0))
        assert np.allclose(r.origin + 2.5 * r.direction, [1.0, 4.5, 3.0])

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            Ray(vec3(0, 0, 0), vec3(0, 0, 1), weight=1.5)
        with pytest.raises(ValueError):
            Ray(vec3(0, 0, 0), vec3(0, 0, 1), weight=-0.1)

    def test_arrays_frozen(self):
        r = Ray(vec3(0, 0, 0), vec3(0, 0, 1))
        with pytest.raises(ValueError):
            r.origin[0] = 1.0

    def test_advanced_nudges_along_direction(self):
        r = Ray(vec3(0, 0, 0), vec3(0, 0, 1), weight=0.5, mode="pass_through")
        a = advanced(r)
        assert np.allclose(a.origin, [0, 0, RAY_ADVANCE])
        assert np.allclose(a.direction, r.direction)
        assert a.weight == r.weight and a.mode == r.mode


class TestFrameAndPose:
    def test_frame_orthonormal_and_w(self):
        w = normalize(vec3(0.3, -0.2, 0.9))
        R = orthonormal_frame(w)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.allclose(R[:, 2], w)
        assert np.linalg.det(R) > 0

    def test_frame_parallel_up_rejected(self):
        with pytest.raises(InvalidGeometry):
            orthonormal_frame(vec3(0.0, 1.0, 0.0), up=(0.0, 1.0, 0.0))

    def test_pose_rejects_skewed_rotation(self):
        R = np.eye(3)
        R[0, 1] = 0.01
        with pytest.raises(InvalidGeometry):
            Pose(vec3(0, 0, 0), R)

    def test_facing_normal(self):
        p = Pose.facing(vec3(1.0, 2.0, 3.0), vec3(0.0, 0.0, 1.0))
        assert np.allclose(p.normal, [0, 0, 1])
        assert np.allclose(p.position, [1, 2, 3])

    @given(finite, finite, finite, unit_ish, unit_ish, unit_ish)
    @settings(max_examples=50, deadline=None)
    def test_point_round_trip(self, px, py, pz, wx, wy, wz):
        pose = Pose.facing(vec3(1.0, -2.0, 0.5), normalize(vec3(wx, wy, wz)))
        p = vec3(px, py, pz)
        local = pose.to_local_dirs((p - pose.position)[None])[0]
        back = pose.to_world_point(local)
        assert np.allclose(back, p, atol=1e-9)

    @given(unit_ish, unit_ish, unit_ish)
    @settings(max_examples=50, deadline=None)
    def test_dir_round_trip_preserves_norm(self, dx, dy, dz):
        pose = Pose.facing(vec3(0, 0, 0), normalize(vec3(0.2, 0.3, 0.9)))
        d = normalize(vec3(dx, dy, dz))
        local = pose.to_local_dirs(d[None])[0]
        assert abs(np.linalg.norm(local) - 1.0) < 1e-12
        assert np.allclose(pose.to_world_dir(local), d, atol=1e-12)


def _np_cross_frame(w, up=(0.0, 1.0, 0.0)):
    """orthonormal_frame through np.cross, np.linalg.norm and
    np.column_stack: the reference for its bits and its rejections.  The
    hint is parallel when |up x w| < 1e-9 |up|, both lengths taken with the
    hint scaled to put its largest |component| in [0.5, 1), and a zero
    hint always is."""
    w = normalize(w)
    up = np.asarray(up, dtype=np.float64)
    u = np.cross(up, w)
    scale = -math.frexp(np.abs(up).max())[1]
    if (np.linalg.norm(np.ldexp(u, scale))
            < 1e-9 * np.linalg.norm(np.ldexp(up, scale)) or not u.any()):
        raise InvalidGeometry("up direction is parallel to the surface normal")
    u = normalize(u)
    v = np.cross(w, u)
    return np.column_stack([u, v, w])


def _outcome(build, *args):
    """The bytes `build` returns, or the exception type it raises."""
    try:
        return build(*args).tobytes()
    except (InvalidGeometry, ValueError) as exc:
        return type(exc)


def _pose_accepts(R) -> bool:
    try:
        Pose(vec3(0.0, 0.0, 0.0), R)
    except InvalidGeometry:
        return False
    return True


def _allclose_accepts(R) -> bool:
    return bool(np.allclose(R @ R.T, np.eye(3), atol=1e-10))


vector = st.tuples(*[st.floats(-10.0, 10.0)] * 3)


class TestFrameBits:
    @given(vector, vector)
    @settings(max_examples=300, deadline=None)
    def test_frame_matches_np_cross(self, w, up):
        assert (_outcome(orthonormal_frame, w, up)
                == _outcome(_np_cross_frame, w, up))

    @given(vector, st.floats(-9.0, -8.0), st.sampled_from((-1.0, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_near_parallel_up_rejected_alike(self, w, log_tilt, sign, seed):
        """Up hints tilted about 1e-9 off the axis straddle the rejection."""
        if math.hypot(*w) < 1e-6:
            w = (0.0, 0.0, 1.0)
        up = sign * normalize(w) + 10.0 ** log_tilt * rand_dir(
            np.random.default_rng(seed))
        assert (_outcome(orthonormal_frame, w, up)
                == _outcome(_np_cross_frame, w, up))

    def test_both_sides_of_the_parallel_bound(self):
        w = normalize(vec3(0.3, -0.5, 0.8))
        perp = normalize(np.cross(w, vec3(1.0, 0.0, 0.0)))
        seen = set()
        for tilt in np.geomspace(5e-10, 2e-9, 41):
            got = _outcome(orthonormal_frame, w, w + tilt * perp)
            assert got == _outcome(_np_cross_frame, w, w + tilt * perp)
            seen.add(got is InvalidGeometry)
        assert seen == {True, False}

    @pytest.mark.parametrize("exponent", [-1000, -600, -40, 0, 600])
    def test_hint_length_does_not_decide_parallel(self, exponent):
        # A hint scaled by a power of two gives the same frame, bit for bit,
        # and one along w is refused, however long or short it is.
        w = normalize(vec3(0.3, -0.5, 0.8))
        frame = orthonormal_frame(w).tobytes()
        assert orthonormal_frame(w, np.ldexp(vec3(0.0, 1.0, 0.0),
                                             exponent)).tobytes() == frame
        with pytest.raises(InvalidGeometry):
            orthonormal_frame(w, np.ldexp(w, exponent))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("diagonal", [0, 1, 2])
    def test_pose_diagonal_band_edge(self, side, diagonal):
        """R R^T's diagonal entry steps across 1 +- (1e-10 + 1e-5) one ulp
        of R at a time: the pose accepts exactly what np.allclose does."""
        edge = math.sqrt(1.0 + side * (1e-10 + 1e-5))
        seen = set()
        for k in range(-60, 61):
            R = np.eye(3)
            R[diagonal, diagonal] = edge + k * math.ulp(edge)
            assert _pose_accepts(R) == _allclose_accepts(R)
            seen.add(_pose_accepts(R))
        assert seen == {True, False}

    def test_pose_off_diagonal_band_edge(self):
        seen = set()
        for skew in np.linspace(0.9e-10, 1.1e-10, 81):
            R = np.eye(3)
            R[0, 1] = skew
            assert _pose_accepts(R) == _allclose_accepts(R)
            seen.add(_pose_accepts(R))
        assert seen == {True, False}

    @given(vector, vector, st.tuples(*[st.floats(-2e-5, 2e-5)] * 3),
           st.floats(-3e-10, 3e-10), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_pose_accepts_what_allclose_accepts(self, w, up, stretch, skew, at):
        try:
            R = orthonormal_frame(w, up)
        except (InvalidGeometry, ValueError):
            R = np.eye(3)
        R = R * (1.0 + np.array(stretch))  # column j scaled by 1 + stretch[j]
        R[at, (at + 1) % 3] += skew
        assert _pose_accepts(R) == _allclose_accepts(R)


class TestPlaneIntersection:
    def setup_method(self):
        self.plane = Pose.facing(vec3(0, 0, 0), vec3(0.0, 0.0, 1.0))

    def test_head_on(self):
        hit = intersect_plane(Ray(vec3(0, 0, 5.0), vec3(0, 0, -1.0)),
                              self.plane, (2.0, 2.0))
        assert hit is not None
        assert abs(hit.t - 5.0) < 1e-12
        assert np.allclose(hit.uv, [0.0, 0.0])

    def test_uv_matches_local_axes(self):
        hit = intersect_plane(Ray(vec3(0.5, -0.3, 4.0), vec3(0, 0, -1.0)),
                              self.plane, (2.0, 2.0))
        assert np.allclose(hit.uv, [0.5, -0.3], atol=1e-12)

    def test_outside_extent_misses(self):
        ray = Ray(vec3(1.6, 0.0, 4.0), vec3(0, 0, -1.0))
        assert intersect_plane(ray, self.plane, (3.0, 3.0)) is None

    def test_behind_misses(self):
        ray = Ray(vec3(0, 0, 5.0), vec3(0, 0, 1.0))
        assert intersect_plane(ray, self.plane, (2.0, 2.0)) is None

    def test_parallel_misses(self):
        ray = Ray(vec3(0, 0, 5.0), vec3(1.0, 0, 0))
        assert intersect_plane(ray, self.plane, (200.0, 200.0)) is None

    def test_no_ray_ahead_builds_no_crossing_point(self, monkeypatch):
        # A batch wholly behind the plane (one ray parallel to it), and one
        # in front whose bounds rule every ray out, are dropped before any
        # crossing point is built.
        calls = []
        along_rows = geometry.along_rows

        def counted(o, t, d):
            calls.append(len(t))
            return along_rows(o, t, d)

        monkeypatch.setattr(geometry, "along_rows", counted)
        d = normalize_rows(np.array([[0.1, 0.0, 1.0], [0.0, -0.2, 1.0],
                                     [1.0, 0.0, 0.0]]))
        behind = np.array([[0.0, 0.0, 5.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
        assert plane_hits(behind, d, self.plane, (200.0, 200.0)) is None
        ahead = -behind
        for bound in (np.full(3, 2.0), np.full(3, -np.inf)):
            assert plane_hits(ahead, d, self.plane, (200.0, 200.0),
                              bound) is None
        assert calls == []
        # Without a bound, the two rays that cross the plane get points.
        hits = plane_hits(ahead, d, self.plane, (200.0, 200.0))
        assert hits.rows.tolist() == [0, 1] and calls == [2]

    def test_origin_on_plane_does_not_self_hit(self):
        ray = Ray(vec3(0.0, 0.0, PLANE_EPS / 4), vec3(0, 0, -1.0))
        assert intersect_plane(ray, self.plane, (2.0, 2.0)) is None

    def test_tilted_plane_oracle(self):
        # 45-degree plane through origin; ray along -z from (0, 0, 2)
        # meets it at the origin.
        plane = Pose.facing(vec3(0, 0, 0), normalize(vec3(0.0, 1.0, 1.0)))
        hit = intersect_plane(Ray(vec3(0, 0, 2.0), vec3(0, 0, -1.0)),
                              plane, (4.0, 4.0))
        assert hit is not None
        assert np.allclose(hit.point, [0, 0, 0], atol=1e-12)


def _crossings(o, d, pose):
    # plane_crossings with points, u and v spread over every row (nan off
    # the plane; t inf on every row when no ray crosses it).
    hits = plane_crossings(o, d, pose)
    spread = np.full((len(d), 5), np.nan)
    if hits is None:
        return np.column_stack([np.full(len(d), np.inf), spread])
    spread[slice(None) if hits.rows is None else hits.rows] = np.column_stack(
        [hits.points, hits.u, hits.v])
    return np.column_stack([hits.t, spread])


def _hits(o, d, pose):
    hits = plane_hits(o, d, pose, (120.0, 80.0))
    return np.full(len(o), np.inf) if hits is None else hits.t


def _uv(pose, points):
    # Local (u, v) of world points given as rows, as plane_crossings takes
    # them from its crossing points.
    rel = sub_rows(points, pose.position)
    return dot_rows(rel, pose.u_axis), dot_rows(rel, pose.v_axis)


# Each shared row form as a function of (origins, directions, pose), giving
# one result row per ray.
ROW_FORMS = {
    "dot_rows": lambda o, d, pose: dot_rows(d, pose.normal),
    "to_local_dirs": lambda o, d, pose: pose.to_local_dirs(d),
    "to_world_dirs": lambda o, d, pose: pose.to_world_dirs(d),
    "plane_crossings": _crossings,
    "plane_hits": _hits,
    "reflect_rows": lambda o, d, pose: reflect_rows(d, pose.normal),
}


def _refracted(o, d, pose):
    # Every row passes: the clear aperture is far wider than the rows' spread.
    _, out = refract_thin_lens(ThinLens("lens", pose, 50.0, 1e6),
                               *_uv(pose, o), d)
    return out


def _plate_exit(o, d, pose):
    plate = TmdPlate("plate", pose, (1e6, 1e6), pitch=0.7)
    exits, out = plate_exit(plate, o, *_uv(pose, o), pose.to_local_dirs(d),
                            np.arange(len(o)) % 4)
    return np.column_stack([exits, out])


# ROW_FORMS and the other forms that allocate their own output rows.
LAYOUT_FORMS = dict(ROW_FORMS, **{
    "sub_rows": lambda o, d, pose: sub_rows(pose.position, o),
    "along_rows": lambda o, d, pose: along_rows(o, dot_rows(d, pose.normal), d),
    "normalize_rows": lambda o, d, pose: normalize_rows(o),
    "pick_rows": lambda o, d, pose: pick_rows(o[:, 0] > 0.0, o, d),
    "refract_thin_lens": _refracted,
    "plate_exit": _plate_exit,
})


def _random_rows(seed, n):
    rng = np.random.default_rng(seed)
    pose = Pose.facing(rng.uniform(-50.0, 50.0, 3), rng.standard_normal(3),
                       rng.standard_normal(3))
    o = rng.uniform(-100.0, 100.0, (n, 3))
    d = normalize_rows(rng.standard_normal((n, 3)))
    return pose, o, d


class TestBatchInvariance:
    @given(st.sampled_from(sorted(ROW_FORMS)), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_bits_ignore_the_batch(self, form, seed, n, data):
        # On a general rotation every dot sums three nonzero products, so a
        # form laid out differently for some batch sizes would round row i
        # differently alone, in a pair or in the full batch.
        rng = np.random.default_rng(seed)
        pose = Pose.facing(rng.uniform(-50.0, 50.0, 3), rng.standard_normal(3),
                           rng.standard_normal(3))
        o = rng.uniform(-100.0, 100.0, (n, 3))
        d = normalize_rows(rng.standard_normal((n, 3)))
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        f = ROW_FORMS[form]
        full = f(o, d, pose)[i]
        alone = f(o[i:i + 1], d[i:i + 1], pose)[0]
        pair = f(o[[j, i]], d[[j, i]], pose)[1]
        assert full.tobytes() == alone.tobytes() == pair.tobytes()

    @given(st.sampled_from(sorted(LAYOUT_FORMS)), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_bits_ignore_the_memory_layout(self, form, seed, n, data):
        # Outputs are C-ordered rows whatever the inputs' layout, so the
        # gemv that follows rounds a row the same on C rows, on a Fortran
        # copy and on a stride-0 broadcast of one row (how rays that share
        # an origin reach the curved cap).
        pose, o, d = _random_rows(seed, n)
        i = data.draw(st.integers(0, n - 1))
        f = LAYOUT_FORMS[form]
        assert (f(o, d, pose).tobytes()
                == f(np.asfortranarray(o), np.asfortranarray(d), pose).tobytes())
        copied = np.repeat(o[i:i + 1], n, axis=0)
        shared = np.broadcast_to(o[i], (n, 3))
        assert f(copied, d, pose).tobytes() == f(shared, d, pose).tobytes()
        assert (f(copied, np.repeat(d[i:i + 1], n, axis=0), pose).tobytes()
                == f(shared, np.broadcast_to(d[i], (n, 3)), pose).tobytes())

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_shared_origin_and_bound_keep_the_bits(self, seed, n):
        # One 3-vector origin gives the bits of that origin copied to every
        # row.  A bound keeps exactly the rays crossing nearer than it, with
        # the unbounded record's bits; the others read inf.
        pose, o, d = _random_rows(seed, n)
        o = np.repeat(o[:1], n, axis=0)
        full = plane_crossings(o, d, pose)
        if full is None:  # no ray crosses the plane ahead
            assert plane_crossings(o[0], d, pose) is None
            return
        rng = np.random.default_rng(seed)
        bound = rng.uniform(-50.0, 300.0, n)
        for value in (np.inf, -np.inf, full.t):  # full.t: a tie is not nearer
            pick = rng.random(n) < 0.2
            bound[pick] = np.broadcast_to(value, n)[pick]
        keep = full.t < bound
        rows = np.flatnonzero(keep)
        for origins in (o, o[0]):
            assert (_crossings(origins, d, pose).tobytes()
                    == _crossings(o, d, pose).tobytes())
            # The bound lives in plane_hits; an unbounded rectangle keeps
            # every crossing of the plane.
            got = plane_hits(origins, d, pose, (np.inf, np.inf), bound)
            if got is None:
                assert len(rows) == 0
                continue
            assert got.t.tobytes() == np.where(keep, full.t, np.inf).tobytes()
            assert np.array_equal(np.arange(n) if got.rows is None else got.rows,
                                  rows)
            for a, b in zip(got.at(rows), full.at(rows)):
                assert a.tobytes() == b.tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_record_gives_the_recomputed_hit_bits(self, seed, n, data):
        # What Crossings.at hands to an interaction is what the interaction
        # would compute from the winners' t: o + t d, then its local u, v.
        rng = np.random.default_rng(seed)
        pose = Pose.facing(rng.uniform(-50.0, 50.0, 3), rng.standard_normal(3),
                           rng.standard_normal(3))
        o = rng.uniform(-100.0, 100.0, (n, 3))
        d = normalize_rows(rng.standard_normal((n, 3)))
        hits = plane_hits(o, d, pose, (120.0, 80.0))
        if hits is None:
            return
        inside = np.flatnonzero(np.isfinite(hits.t))
        keep = data.draw(st.lists(st.booleans(), min_size=len(inside),
                                  max_size=len(inside)))
        winners = inside[np.array(keep, dtype=bool)]
        if data.draw(st.booleans()) and len(inside) == n:
            winners = None  # every ray wins, as the renderer passes it
        rows = np.arange(n) if winners is None else winners
        point = along_rows(o[rows], hits.t[rows], d[rows])
        u, v = _uv(pose, point)
        got = hits.at(winners)
        for a, b in zip(got, (point, u, v)):
            assert a.tobytes() == b.tobytes()


class TestClosestPoint:
    def test_recovers_common_point(self):
        rng = np.random.default_rng(11)
        target = vec3(3.0, -2.0, 7.0)
        rays = []
        for _ in range(12):
            d = rand_dir(rng)
            rays.append(Ray(target - rng.uniform(1, 5) * d, d))
        p, rms = closest_point_to_rays(rays)
        assert np.allclose(p, target, atol=1e-9)
        assert rms < 1e-9

    def test_skew_pair_midpoint(self):
        # x-axis and the line {x=0, y=1} along z: gap is 1, so the
        # least-squares point is the midpoint and each residual is 0.5.
        r1 = Ray(vec3(-4.0, 0.0, 0.0), vec3(1.0, 0.0, 0.0))
        r2 = Ray(vec3(0.0, 1.0, -3.0), vec3(0.0, 0.0, 1.0))
        p, rms = closest_point_to_rays([r1, r2])
        assert np.allclose(p, [0.0, 0.5, 0.0], atol=1e-12)
        assert abs(rms - 0.5) < 1e-12

    def test_parallel_bundle_degenerate(self):
        rays = [Ray(vec3(x, 0.0, 0.0), vec3(0, 0, 1.0)) for x in (0.0, 1.0, 2.0)]
        with pytest.raises(DegenerateBundle):
            closest_point_to_rays(rays)

    def test_too_few_rays(self):
        with pytest.raises(DegenerateBundle):
            closest_point_to_rays([Ray(vec3(0, 0, 0), vec3(0, 0, 1.0))])

    def test_point_independent_of_ray_origins(self):
        # sliding origins along their own lines must not move the answer
        rng = np.random.default_rng(5)
        target = vec3(-1.0, 4.0, 2.0)
        dirs = [rand_dir(rng) for _ in range(6)]
        near = [Ray(target - 2.0 * d, d) for d in dirs]
        far = [Ray(target - 50.0 * d, d) for d in dirs]
        p1, _ = closest_point_to_rays(near)
        p2, _ = closest_point_to_rays(far)
        assert np.allclose(p1, p2, atol=1e-8)

    def test_ray_rows_give_the_list_bits(self):
        rng = np.random.default_rng(3)
        rays = RayRows(rng.standard_normal((7, 3)),
                       normalize_rows(rng.standard_normal((7, 3))),
                       np.full(7, 0.5), ["primary"] * 7)
        p1, rms1 = closest_point_to_rays(rays)
        p2, rms2 = closest_point_to_rays(list(rays))
        assert p1.tobytes() == p2.tobytes() and rms1 == rms2
        with pytest.raises(DegenerateBundle):
            closest_point_to_rays(rays[:1])

    def test_ray_rows_reject_mismatched_rows(self):
        with pytest.raises(ValueError):
            RayRows(np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2), ["a"] * 2)
        with pytest.raises(ValueError):
            RayRows(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), ["a"] * 3)
