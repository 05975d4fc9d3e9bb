import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim.elements import (ConvexMirror, HalfMirror, INTERACT_ABSORB,
                             INTERACT_DOUBLE, INTERACT_PASS,
                             INTERACT_SINGLE_U, INTERACT_SINGLE_V,
                             PLATE_INTERACTIONS, Screen, ThinLens, TmdPlate,
                             classify_tmd_mode, convex_mirror_transform,
                             half_mirror_interact, plate_exit, quantize_uv,
                             refract_thin_lens, sample_screen, split_weights,
                             thin_lens_transform, tmd_transform)
from tmdsim.errors import InvalidGeometry, NoIntersection
from tmdsim.geometry import (Pose, Ray, closest_point_to_rays,
                             linalg_normalize_rows, normalize,
                             orthonormal_frame, plane_hits, vec3)


def facing_z(position=(0.0, 0.0, 0.0)):
    return Pose.facing(vec3(*position), vec3(0.0, 0.0, 1.0))


def line_point_distance(ray, point):
    rel = point - ray.origin
    return float(np.linalg.norm(rel - (rel @ ray.direction) * ray.direction))


def split_one(weight, fraction):
    """split_weights of one weight, as Python floats."""
    part, rest = split_weights(np.array([weight]), fraction)
    return float(part[0]), float(rest[0])


class TestSplitWeight:
    def test_halves(self):
        assert split_one(1.0, 0.5) == (0.5, 0.5)

    def test_order(self):
        part, rest = split_one(0.8, 0.25)
        assert part == pytest.approx(0.2)
        assert rest == pytest.approx(0.6)

    @given(st.floats(0.0, 1.0, allow_nan=False),
           st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=400, deadline=None)
    def test_sum_is_exact(self, w, f):
        part, rest = split_one(w, f)
        assert part + rest == w
        assert part >= 0.0 and rest >= 0.0

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            split_weights(np.array([1.0]), 1.5)


class TestThinLens:
    def lens(self, f=50.0, aperture=40.0, housing=None):
        return ThinLens("L", facing_z(), focal_length=f,
                        aperture_diameter=aperture, housing_extent=housing)

    def test_centre_ray_undeviated(self):
        lens = self.lens()
        ray = Ray(vec3(-2.0, 1.0, 10.0), normalize(vec3(0.2, -0.1, -1.0)))
        out = thin_lens_transform(ray, lens)
        assert np.allclose(out.origin, [0, 0, 0], atol=1e-9)
        assert np.allclose(out.direction, ray.direction, atol=1e-12)

    def test_parallel_rays_meet_at_focus(self):
        # Columns parallel to the axis converge one focal length behind.
        lens = self.lens(f=50.0)
        outs = [thin_lens_transform(Ray(vec3(h, 0.0, 10.0), vec3(0, 0, -1.0)), lens)
                for h in (-15.0, -4.0, 7.0, 12.0)]
        focus = vec3(0.0, 0.0, -50.0)
        for out in outs:
            assert line_point_distance(out, focus) < 1e-9

    def test_two_f_conjugates_are_stigmatic(self):
        lens = self.lens(f=50.0)
        src = vec3(5.0, -3.0, 100.0)
        img = vec3(-5.0, 3.0, -100.0)
        outs = []
        for hx, hy in ((-12.0, 5.0), (0.0, -9.0), (14.0, 14.0), (3.0, 1.0)):
            d = normalize(vec3(hx, hy, 0.0) - src)
            outs.append(thin_lens_transform(Ray(src, d), lens))
        for out in outs:
            assert line_point_distance(out, img) < 1e-9
        p, rms = closest_point_to_rays(outs)
        assert np.allclose(p, img, atol=1e-9)
        assert rms < 1e-9

    def test_thin_lens_equation_oracle(self):
        # Source at 75 mm with f = 50 images at 150: 1/50 - 1/75 = 1/150.
        lens = self.lens(f=50.0)
        src = vec3(0.0, 2.0, 75.0)
        outs = []
        for hx in (-10.0, 4.0, 11.0):
            d = normalize(vec3(hx, 0.0, 0.0) - src)
            outs.append(thin_lens_transform(Ray(src, d), lens))
        p, rms = closest_point_to_rays(outs)
        assert rms < 1e-9
        # transverse magnification -s_i/s_o = -2
        assert np.allclose(p, [0.0, -4.0, -150.0], atol=1e-8)

    def test_reverse_travel_symmetric(self):
        lens = self.lens(f=50.0)
        out = thin_lens_transform(Ray(vec3(10.0, 0.0, -25.0),
                                      normalize(vec3(-10.0, 0.0, 25.0))), lens)
        assert out.direction[2] > 0  # keeps travelling toward +z

    def test_outside_aperture(self):
        lens = self.lens(aperture=10.0)
        with pytest.raises(NoIntersection):
            thin_lens_transform(Ray(vec3(8.0, 0.0, 5.0), vec3(0, 0, -1.0)), lens)

    def test_mount_ring_outside_the_aperture_square(self):
        # A 30 mm housing round a 10 mm aperture: a ray at (8, 8) lands on
        # the mount, outside the 10 x 10 square that holds the aperture, and
        # is stopped there; a ray past the housing misses the lens.
        lens = self.lens(aperture=10.0, housing=(30.0, 30.0))
        with pytest.raises(NoIntersection, match="clear aperture of lens 'L'"):
            thin_lens_transform(Ray(vec3(8.0, 8.0, 5.0), vec3(0, 0, -1.0)), lens)
        with pytest.raises(NoIntersection, match="ray misses lens 'L'"):
            thin_lens_transform(Ray(vec3(16.0, 0.0, 5.0), vec3(0, 0, -1.0)), lens)

    def test_housing_validation(self):
        with pytest.raises(InvalidGeometry):
            ThinLens("L", facing_z(), 50.0, 40.0, housing_extent=(30.0, 60.0))

    def test_mount_takes_grazing_and_outside_rows(self):
        # Row 1 lies in the lens plane, row 2 crosses it at |w| = 1e-12 and
        # row 3 outside the clear aperture: none of them passes, and the
        # rows that do keep their own exit directions.
        lens = self.lens(aperture=10.0)
        u = np.array([1.0, 2.0, 0.0, 6.0, -3.0])
        v = np.array([0.0, 1.0, 1.0, 0.0, 2.0])
        d = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1e-12],
                      [0.0, 0.0, -1.0], [0.1, 0.0, -1.0]])
        rows, out = refract_thin_lens(lens, u, v, d)
        assert rows.tolist() == [0, 4]
        alone = [refract_thin_lens(lens, u[[i]], v[[i]], d[[i]])[1] for i in (0, 4)]
        assert out.tobytes() == np.concatenate(alone).tobytes()
        assert refract_thin_lens(lens, u[:1], v[:1], d[:1])[0] is None


class TestHalfMirror:
    def test_weights_sum_exactly(self):
        m = HalfMirror("M", facing_z(), (100.0, 100.0), reflectance=0.37)
        ray = Ray(vec3(3.0, 1.0, 5.0), vec3(0, 0, -1.0), weight=0.9)
        r, t = half_mirror_interact(ray, m)
        assert r.weight + t.weight == ray.weight
        assert r.weight == pytest.approx(0.9 * 0.37)

    def test_mirror_law(self):
        m = HalfMirror("M", Pose.facing(vec3(0, 0, 0), normalize(vec3(0, 1.0, 1.0))),
                       (100.0, 100.0))
        ray = Ray(vec3(0, 0, 5.0), vec3(0, 0, -1.0))
        r, t = half_mirror_interact(ray, m)
        assert np.allclose(r.direction, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(t.direction, ray.direction)
        assert np.allclose(r.origin, t.origin)

    def test_reflectance_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(InvalidGeometry):
                HalfMirror("M", facing_z(), (10.0, 10.0), reflectance=bad)


class TestConvexMirror:
    def mirror(self, a_mag=1.5, d=200.0):
        return ConvexMirror("C", facing_z((0.0, 0.0, -d)), a_mag,
                            (80.0, 80.0), eye_distance=d)

    def test_curvature_radius(self):
        assert self.mirror(1.5, 200.0).curvature_radius == pytest.approx(1200.0)
        assert math.isinf(self.mirror(1.0).curvature_radius)

    def test_flat_case_reflects(self):
        m = self.mirror(a_mag=1.0)
        out = convex_mirror_transform(Ray(vec3(0, 0, 0), vec3(0, 0, -1.0)), m)
        assert np.allclose(out.direction, [0, 0, 1.0])
        assert np.allclose(out.origin, [0, 0, -200.0])

    def test_on_axis_retroreflects(self):
        m = self.mirror()
        out = convex_mirror_transform(Ray(vec3(0, 0, 0), vec3(0, 0, -1.0)), m)
        assert np.allclose(out.origin, [0, 0, -200.0], atol=1e-9)
        assert np.allclose(out.direction, [0, 0, 1.0], atol=1e-12)

    def test_paraxial_angular_magnification(self):
        # An eye ray tipped by theta comes back tipped by theta / a_mag:
        # the mirrored scene appears stretched a_mag times.
        m = self.mirror(a_mag=1.5, d=200.0)
        theta = 1e-5
        ray = Ray(vec3(0, 0, 0), normalize(vec3(math.sin(theta), 0.0, -math.cos(theta))))
        out = convex_mirror_transform(ray, m)
        theta_out = math.atan2(out.direction[0], out.direction[2])
        assert theta / theta_out == pytest.approx(1.5, rel=1e-3)

    def test_miss_raises(self):
        m = self.mirror()
        with pytest.raises(NoIntersection):
            convex_mirror_transform(Ray(vec3(0, 0, 0), vec3(0, 0, 1.0)), m)

    def test_validation(self):
        with pytest.raises(InvalidGeometry):
            ConvexMirror("C", facing_z(), -0.5, (10.0, 10.0), 100.0)
        with pytest.raises(InvalidGeometry):
            ConvexMirror("C", facing_z(), 1.5, (10.0, 10.0), 0.0)


class TestClassify:
    def plate(self, **kw):
        kw.setdefault("mode_weights", (0.6, 0.3, 0.1))
        return TmdPlate("P", facing_z(), (100.0, 100.0), **kw)

    NORMAL = vec3(0.0, 0.0, -1.0)

    def test_band_layout(self):
        p = self.plate()
        assert classify_tmd_mode(self.NORMAL, p, 0.0) == INTERACT_DOUBLE
        assert classify_tmd_mode(self.NORMAL, p, 0.5999) == INTERACT_DOUBLE
        assert classify_tmd_mode(self.NORMAL, p, 0.6) == INTERACT_SINGLE_U
        assert classify_tmd_mode(self.NORMAL, p, 0.74) == INTERACT_SINGLE_U
        assert classify_tmd_mode(self.NORMAL, p, 0.75) == INTERACT_SINGLE_V
        assert classify_tmd_mode(self.NORMAL, p, 0.8999) == INTERACT_SINGLE_V
        assert classify_tmd_mode(self.NORMAL, p, 0.9) == INTERACT_PASS
        assert classify_tmd_mode(self.NORMAL, p, 0.99999) == INTERACT_PASS

    def test_absorbed_tail(self):
        p = self.plate(mode_weights=(0.5, 0.2, 0.1))
        assert classify_tmd_mode(self.NORMAL, p, 0.85) == INTERACT_ABSORB

    def test_polarizer_blocks_single_band(self):
        p = self.plate(polarizer=True)
        assert classify_tmd_mode(self.NORMAL, p, 0.65) == INTERACT_ABSORB
        # the other bands keep their places (no renormalization)
        assert classify_tmd_mode(self.NORMAL, p, 0.55) == INTERACT_DOUBLE
        assert classify_tmd_mode(self.NORMAL, p, 0.95) == INTERACT_PASS

    def test_matches_cumulative_oracle(self):
        # independent re-derivation: walk the cumulative bands by hand
        rng = np.random.default_rng(2024)
        for _ in range(300):
            raw = rng.uniform(0, 1, 3)
            weights = tuple(raw / max(raw.sum(), 1.0))
            polar = bool(rng.integers(0, 2))
            p = self.plate(mode_weights=weights, polarizer=polar)
            draw = float(rng.uniform(0, 1))
            p_d, p_s, p_p = weights
            if draw < p_d:
                want = INTERACT_DOUBLE
            elif draw < p_d + p_s:
                if polar:
                    want = INTERACT_ABSORB
                elif draw < p_d + 0.5 * p_s:
                    want = INTERACT_SINGLE_U
                else:
                    want = INTERACT_SINGLE_V
            elif draw < p_d + p_s + p_p:
                want = INTERACT_PASS
            else:
                want = INTERACT_ABSORB
            assert classify_tmd_mode(self.NORMAL, p, draw) == want

    def test_angular_fill_normal_incidence_unchanged(self):
        p = self.plate(angular_fill=True)
        assert classify_tmd_mode(self.NORMAL, p, 0.59) == INTERACT_DOUBLE

    def test_angular_fill_shrinks_double_band(self):
        # 45-degree incidence, slat ratio 3: effective double weight is
        # 0.6 * (1 - 1/6) = 0.5.
        p = self.plate(angular_fill=True, mirror_ratio=3.0)
        d45 = normalize(vec3(1.0, 0.0, -1.0))
        assert classify_tmd_mode(d45, p, 0.499) == INTERACT_DOUBLE
        assert classify_tmd_mode(d45, p, 0.501) == INTERACT_SINGLE_U

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            classify_tmd_mode(self.NORMAL, self.plate(), 1.0)

    def test_weight_validation(self):
        with pytest.raises(InvalidGeometry):
            self.plate(mode_weights=(0.7, 0.3, 0.2))
        with pytest.raises(InvalidGeometry):
            self.plate(mode_weights=(-0.1, 0.3, 0.1))


class TestQuantize:
    def test_examples(self):
        assert quantize_uv(0.26, -0.26, 0.1) == (pytest.approx(0.25),
                                                 pytest.approx(-0.25))
        assert quantize_uv(0.0, 0.0, 0.5) == (0.25, 0.25)

    @given(st.floats(-50.0, 50.0, allow_nan=False),
           st.floats(-50.0, 50.0, allow_nan=False),
           st.floats(0.01, 2.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_cell_centre_within_half_pitch(self, u, v, p):
        qu, qv = quantize_uv(u, v, p)
        assert abs(qu - u) <= 0.5 * p + 1e-9
        assert abs(qv - v) <= 0.5 * p + 1e-9
        # centres sit at (k + 1/2) * p
        assert abs((qu / p - 0.5) - round(qu / p - 0.5)) < 1e-6


class TestTmdTransform:
    def plate(self, pitch=0.0):
        return TmdPlate("P", facing_z(), (200.0, 200.0), pitch=pitch)

    def rays_from(self, src, targets):
        return [Ray(src, normalize(t - src)) for t in targets]

    def test_double_reflect_images_mirrored_source(self):
        plate = self.plate()
        src = vec3(7.0, -2.0, -40.0)
        img = vec3(7.0, -2.0, 40.0)
        targets = [vec3(x, y, 0.0) for x, y in ((0, 0), (30, 10), (-20, 25), (5, -35))]
        for ray in self.rays_from(src, targets):
            out = tmd_transform(ray, plate, INTERACT_DOUBLE)
            assert line_point_distance(out, img) < 1e-9
            assert out.mode == "double_reflect"

    def test_pass_through_stays_on_source_line(self):
        plate = self.plate()
        src = vec3(-4.0, 9.0, -15.0)
        for ray in self.rays_from(src, [vec3(12.0, 3.0, 0.0), vec3(-8.0, -6.0, 0.0)]):
            out = tmd_transform(ray, plate, INTERACT_PASS)
            assert line_point_distance(out, src) < 1e-9
            assert np.allclose(out.direction, ray.direction)

    def test_single_reflect_is_astigmatic(self):
        # u-flip converges in u at the mirrored depth but diverges in v.
        plate = self.plate()
        src = vec3(6.0, 4.0, -30.0)
        outs = [tmd_transform(ray, plate, INTERACT_SINGLE_U)
                for ray in self.rays_from(src, [vec3(x, y, 0.0)
                                                for x, y in ((0, 0), (25, -10), (-15, 20))])]
        for out in outs:
            # crossing the mirrored-source plane z=+30 at u = source u
            t = (30.0 - out.origin[2]) / out.direction[2]
            hit = out.origin + t * out.direction
            assert abs(hit[0] - 6.0) < 1e-9
        ys = [(out.origin + (30.0 - out.origin[2]) / out.direction[2]
               * out.direction)[1] for out in outs]
        assert max(ys) - min(ys) > 1.0

    def test_pitch_quantizes_reflected_exit_only(self):
        plate = self.plate(pitch=0.5)
        ray = Ray(vec3(10.26, -3.14, 20.0), vec3(0, 0, -1.0))
        out = tmd_transform(ray, plate, INTERACT_DOUBLE)
        assert np.allclose(out.origin, [10.25, -3.25, 0.0], atol=1e-12)
        out = tmd_transform(ray, plate, INTERACT_PASS)
        assert np.allclose(out.origin, [10.26, -3.14, 0.0], atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tmd_transform(Ray(vec3(0, 0, 5.0), vec3(0, 0, -1.0)),
                          self.plate(), "warp")


# The golden scenes' general rigid motion (tests/test_*_golden.py).
TURN = orthonormal_frame(vec3(0.3, -0.5, 0.8), (0.6, 0.7, 0.2))
SHIFT = vec3(7.0, -4.0, 3.0)


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from((INTERACT_DOUBLE, INTERACT_SINGLE_U, INTERACT_SINGLE_V,
                        INTERACT_PASS)))
@settings(max_examples=60, deadline=None)
def test_per_ray_forms_give_the_batch_bits(seed, mode):
    # thin_lens_transform and tmd_transform read (u, v) from the hit record:
    # a ray gets the bits of the batch forms fed the plane_hits record, with
    # lens exits normalized as the interaction table does it.
    rng = np.random.default_rng(seed)
    pose = Pose.facing(SHIFT, TURN @ vec3(0.0, 0.0, 1.0), TURN @ vec3(0.0, 1.0, 0.0))
    target = pose.position + TURN @ vec3(*rng.uniform(-7.0, 7.0, 2), 0.0)
    origin = pose.position + TURN @ (rng.uniform(-20.0, 20.0, 3) + vec3(0, 0, 60))
    ray = Ray(origin, target - origin)
    o, d = ray.origin[None], ray.direction[None]

    lens = ThinLens("lens", pose, 35.0, 20.0)
    point, u, v = plane_hits(o, d, pose, (20.0, 20.0)).at(None)
    _, out = refract_thin_lens(lens, u, v, d)
    want = Ray(point[0], pose.to_world_dirs(linalg_normalize_rows(out))[0])
    got = thin_lens_transform(ray, lens)
    assert got.origin.tobytes() == want.origin.tobytes()
    assert got.direction.tobytes() == want.direction.tobytes()

    plate = TmdPlate("plate", pose, (30.0, 30.0), pitch=0.3)
    point, u, v = plane_hits(o, d, pose, plate.extent).at(None)
    exits, out = plate_exit(plate, point, u, v, pose.to_local_dirs(d),
                            PLATE_INTERACTIONS.index(mode))
    want = Ray(exits[0], out[0])
    got = tmd_transform(ray, plate, mode)
    assert got.origin.tobytes() == want.origin.tobytes()
    assert got.direction.tobytes() == want.direction.tobytes()


def emit(screen, uv):
    """sample_screen at one local (u, v), as a Python float."""
    return float(sample_screen(screen, np.array([uv[0]]), np.array([uv[1]]))[0])


class TestScreenEmit:
    def screen(self, image, extent=(2.0, 2.0), flip=(False, False)):
        return Screen("S", facing_z(), extent, np.asarray(image, float), flip)

    def test_uniform(self):
        s = self.screen(np.full((4, 4), 0.7))
        for uv in ((0.0, 0.0), (0.99, -0.99), (-1.0, 1.0)):
            assert emit(s, uv) == pytest.approx(0.7)

    def test_bilinear_midpoint(self):
        s = self.screen([[0.0, 1.0], [0.0, 1.0]])
        assert emit(s, (0.0, 0.3)) == pytest.approx(0.5)
        assert emit(s, (-0.5, 0.0)) == pytest.approx(0.0)
        assert emit(s, (0.5, 0.0)) == pytest.approx(1.0)

    def test_row_zero_is_top(self):
        s = self.screen([[1.0, 1.0], [0.0, 0.0]])
        assert emit(s, (0.0, 0.9)) == pytest.approx(1.0)
        assert emit(s, (0.0, -0.9)) == pytest.approx(0.0)

    def test_flip_u(self):
        s = self.screen([[0.0, 1.0], [0.0, 1.0]], flip=(True, False))
        assert emit(s, (0.5, 0.0)) == pytest.approx(0.0)
        assert emit(s, (-0.5, 0.0)) == pytest.approx(1.0)

    def test_flip_v(self):
        s = self.screen([[1.0, 1.0], [0.0, 0.0]], flip=(False, True))
        assert emit(s, (0.0, 0.9)) == pytest.approx(0.0)

    def test_out_of_bounds(self):
        # No bounds check: past the border the edge texels' values hold.
        s = self.screen([[0.0, 1.0], [0.0, 1.0]])
        assert emit(s, (1.5, 0.0)) == emit(s, (1.0, 0.0)) == 1.0
        assert emit(s, (-1.5, 0.0)) == emit(s, (-1.0, 0.0)) == 0.0

    def test_negative_image_rejected(self):
        with pytest.raises(InvalidGeometry):
            self.screen([[0.5, -0.1], [0.0, 0.0]])


def _bilinear_reference(screen, u, v):
    """Bilinear screen lookup in plain Python floats."""
    w, h = screen.extent
    su = (u + 0.5 * w) / w
    sv = (v + 0.5 * h) / h
    if screen.flip_uv[0]:
        su = 1.0 - su
    if screen.flip_uv[1]:
        sv = 1.0 - sv
    rows, cols = screen.image.shape
    x = su * cols - 0.5
    y = (1.0 - sv) * rows - 0.5
    x0, y0 = math.floor(x), math.floor(y)
    fx, fy = x - x0, y - y0
    xa, xb = min(max(x0, 0), cols - 1), min(max(x0 + 1, 0), cols - 1)
    ya, yb = min(max(y0, 0), rows - 1), min(max(y0 + 1, 0), rows - 1)
    img = screen.image
    top = img[ya, xa] * (1.0 - fx) + img[ya, xb] * fx
    bot = img[yb, xa] * (1.0 - fx) + img[yb, xb] * fx
    return float(top * (1.0 - fy) + bot * fy)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.tuples(st.booleans(), st.booleans()))
@settings(max_examples=60, deadline=None)
def test_sample_screen_one_row_is_its_batch_row_bit_for_bit(seed, n, flip):
    rng = np.random.default_rng(seed)
    extent = tuple(rng.uniform(0.5, 300.0, 2))
    image = rng.uniform(0.0, 2.0, tuple(rng.integers(1, 9, 2)))
    s = Screen("S", facing_z(), extent, image, flip)
    u = rng.uniform(-0.5, 0.5, n) * extent[0]
    v = rng.uniform(-0.5, 0.5, n) * extent[1]
    batch = sample_screen(s, u, v)
    for i in range(n):
        one = emit(s, (u[i], v[i]))
        assert one == batch[i] == _bilinear_reference(s, float(u[i]), float(v[i]))



def _indexed_sample_screen(screen, u, v):
    # sample_screen as it was before its four flat gathers: clipped integer
    # indices into the 2-D image.
    w, h = screen.extent
    su = (u + 0.5 * w) / w
    sv = (v + 0.5 * h) / h
    if screen.flip_uv[0]:
        su = 1.0 - su
    if screen.flip_uv[1]:
        sv = 1.0 - sv
    rows, cols = screen.image.shape
    x = su * cols - 0.5
    y = (1.0 - sv) * rows - 0.5
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    xa = np.clip(x0.astype(np.int64), 0, cols - 1)
    xb = np.clip(x0.astype(np.int64) + 1, 0, cols - 1)
    ya = np.clip(y0.astype(np.int64), 0, rows - 1)
    yb = np.clip(y0.astype(np.int64) + 1, 0, rows - 1)
    img = screen.image
    top = img[ya, xa] * (1.0 - fx) + img[ya, xb] * fx
    bot = img[yb, xa] * (1.0 - fx) + img[yb, xb] * fx
    return top * (1.0 - fy) + bot * fy


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.tuples(st.booleans(), st.booleans()),
       st.sampled_from(("any", "1x1", "1xn", "nx1")))
@settings(max_examples=100, deadline=None)
def test_sample_screen_keeps_the_indexed_bits(seed, n, flip, shape):
    rng = np.random.default_rng(seed)
    side = int(rng.integers(2, 9))
    size = {"any": tuple(rng.integers(1, 9, 2)), "1x1": (1, 1),
            "1xn": (1, side), "nx1": (side, 1)}[shape]
    extent = tuple(rng.uniform(0.5, 300.0, 2))
    s = Screen("S", facing_z(), extent, rng.uniform(0.0, 2.0, size), flip)
    # Up to one and a half widths off centre: border texels clamp.
    u = rng.uniform(-1.5, 1.5, n) * extent[0]
    v = rng.uniform(-1.5, 1.5, n) * extent[1]
    assert sample_screen(s, u, v).tobytes() == _indexed_sample_screen(s, u, v).tobytes()


def _screen_coords(rng, kind, n, side, texels):
    """n local coordinates along a screen side of length `side` holding
    `texels` texels: on either border, on texel centres (and the centres of
    the two held texels past each border), or up to 1e6 sides off centre."""
    if kind == "border":
        return rng.choice((-0.5, 0.5), n) * side
    if kind == "centre":
        k = rng.integers(-2, texels + 2, n)
        return ((k + 0.5) / texels - 0.5) * side
    return rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 6.0, n) * side


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.tuples(st.booleans(), st.booleans()),
       st.sampled_from(("any", "1x1", "1xn", "nx1")),
       st.tuples(*[st.sampled_from(("border", "centre", "far", "inside"))] * 2))
@settings(max_examples=150, deadline=None)
def test_sample_screen_keeps_the_indexed_bits_on_borders_centres_and_far_off(
        seed, n, flip, shape, kinds):
    rng = np.random.default_rng(seed)
    side = int(rng.integers(2, 9))
    size = {"any": tuple(rng.integers(1, 9, 2)), "1x1": (1, 1),
            "1xn": (1, side), "nx1": (side, 1)}[shape]
    extent = tuple(rng.uniform(0.5, 300.0, 2))
    s = Screen("S", facing_z(), extent, rng.uniform(0.0, 2.0, size), flip)
    u, v = (rng.uniform(-0.5, 0.5, n) * extent[i] if kind == "inside"
            else _screen_coords(rng, kind, n, extent[i], size[1 - i])
            for i, kind in enumerate(kinds))
    assert sample_screen(s, u, v).tobytes() == _indexed_sample_screen(s, u, v).tobytes()


def test_sample_screen_far_past_a_border_holds_that_border():
    # Beyond 2**63 texels an int64 cast of the corner would wrap to the
    # other border; the clamped corner never leaves the padded buffer.
    s = TestScreenEmit().screen([[6.0, 9.0], [6.0, 9.0]])
    u = np.array([1e300, -1e300, 1e20, -1e20, 1e6, -1e6])
    assert sample_screen(s, u, np.zeros(6)).tolist() == [9.0, 6.0] * 3
    assert sample_screen(s, np.zeros(2), np.array([1e300, -1e300])).tolist() == [7.5, 7.5]


def test_sample_screen_non_finite_rows_are_nan():
    s = TestScreenEmit().screen(np.arange(12.0).reshape(3, 4))
    bad = [np.nan, np.inf, -np.inf]
    u = np.array(bad + [0.0] * 3 + [0.25])
    v = np.array([0.0] * 3 + bad + [0.5])
    # inf - floor(inf) sets the invalid flag, as x - x0 always has; only
    # the flag is forgiven here, never an exception.
    with np.errstate(invalid="ignore"):
        out = sample_screen(s, u, v)
    assert np.isnan(out[:6]).all()
    assert out[6] == sample_screen(s, u[6:], v[6:])[0]
    with np.errstate(all="raise"):  # a NaN row alone sets no flag at all
        assert np.isnan(sample_screen(s, np.array([np.nan]), np.array([0.3]))).all()


def test_replaced_screen_samples_its_new_image():
    s = TestScreenEmit().screen(np.full((4, 4), 0.7))
    other = replace(s, image=np.array([[1.0, 3.0]]))
    uv = (np.array([-1.0, 0.0, 1.0]), np.zeros(3))
    assert sample_screen(other, *uv).tolist() == [1.0, 2.0, 3.0]
    assert sample_screen(s, *uv).tolist() == [0.7] * 3


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7)])
def test_screen_image_is_the_read_only_interior_of_its_padded_buffer(shape):
    given_image = np.random.default_rng(5).uniform(0.0, 2.0, shape)
    s = TestScreenEmit().screen(given_image)
    rows, cols = shape
    assert np.array_equal(s.image, given_image)
    assert not s.image.flags.writeable
    with pytest.raises(ValueError):
        s.image[0, 0] = 1.0
    buffer = s.image.base
    assert buffer.size == (rows + 2) * (cols + 2)
    assert np.shares_memory(s.image, buffer)
    assert not np.shares_memory(s.image, given_image)


@pytest.mark.parametrize("transform,element,what", [
    (thin_lens_transform, ThinLens("E", facing_z(), 50.0, 10.0), "lens"),
    (half_mirror_interact, HalfMirror("E", facing_z(), (10.0, 10.0)),
     "half mirror"),
    (convex_mirror_transform,
     ConvexMirror("E", facing_z(), 1.0, (10.0, 10.0), 100.0), "mirror"),
    (convex_mirror_transform,
     ConvexMirror("E", facing_z(), 1.5, (10.0, 10.0), 100.0), "mirror"),
    (lambda ray, plate: tmd_transform(ray, plate, INTERACT_PASS),
     TmdPlate("E", facing_z(), (10.0, 10.0)), "plate"),
])
def test_per_ray_miss_names_the_element(transform, element, what):
    # Past the rectangle, and heading away from the element.
    for ray in (Ray(vec3(20.0, 0.0, 5.0), vec3(0, 0, -1.0)),
                Ray(vec3(0.0, 0.0, 5.0), vec3(0, 0, 1.0))):
        with pytest.raises(NoIntersection, match=f"^ray misses {what} 'E'$"):
            transform(ray, element)


class TestValidationMisc:
    def test_extent_positive(self):
        with pytest.raises(InvalidGeometry):
            TmdPlate("P", facing_z(), (0.0, 10.0))

    def test_pitch_negative(self):
        with pytest.raises(InvalidGeometry):
            TmdPlate("P", facing_z(), (10.0, 10.0), pitch=-0.5)
