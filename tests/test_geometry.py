import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim.errors import DegenerateBundle, InvalidGeometry
from tmdsim.geometry import (PLANE_EPS, RAY_ADVANCE, Pose, Ray, advanced,
                             closest_point_to_rays, intersect_plane,
                             normalize, normalize_rows, orthonormal_frame,
                             reflect, vec3)

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
        assert np.allclose(r.at(2.5), [1.0, 4.5, 3.0])

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
        back = pose.to_world_point(pose.to_local_point(p))
        assert np.allclose(back, p, atol=1e-9)

    @given(unit_ish, unit_ish, unit_ish)
    @settings(max_examples=50, deadline=None)
    def test_dir_round_trip_preserves_norm(self, dx, dy, dz):
        pose = Pose.facing(vec3(0, 0, 0), normalize(vec3(0.2, 0.3, 0.9)))
        d = normalize(vec3(dx, dy, dz))
        local = pose.to_local_dir(d)
        assert abs(np.linalg.norm(local) - 1.0) < 1e-12
        assert np.allclose(pose.to_world_dir(local), d, atol=1e-12)


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
