import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmdsim.elements import Absorber, HalfMirror, Screen, ThinLens, TmdPlate
from tmdsim.errors import EmptySpot, UsageError
from tmdsim.geometry import (Pose, Ray, closest_point_to_rays, normalize,
                             vec3)
from tmdsim.scene import EyeCamera, Scene, camera_pose, make_pattern
from tmdsim import tracer
from tmdsim.tracer import (MAX_RAYS, Cone, cone_directions, dfs_order,
                           r2_sequence, resolve_workers, spot_diagram,
                           terminal_rays, trace_bundle, trace_ray,
                           uniform_draw, uniform_draws)

Z_PLUS = vec3(0.0, 0.0, 1.0)


def facing_z(position):
    return Pose.facing(vec3(*position), Z_PLUS)


def simple_eye(position=(0.0, 0.0, 60.0)):
    return EyeCamera("eye", camera_pose(vec3(*position), -Z_PLUS))


def plate_scene(pitch=0.0, mode_weights=(1.0, 0.0, 0.0), polarizer=False,
                eye_pos=(0.0, 0.0, 60.0), extent=(200.0, 200.0)):
    plate = TmdPlate("plate", facing_z((0, 0, 0)), extent, pitch=pitch,
                     mode_weights=mode_weights, polarizer=polarizer)
    return Scene((plate,), simple_eye(eye_pos))


class TestUniformDraw:
    def test_frozen_values(self):
        assert uniform_draw(42, 0, 0) == 0.3869742762400409
        assert uniform_draw(42, 1, 0) == 0.577125795355946
        assert uniform_draw(42, 0, 1) == 0.7129353372857994
        assert uniform_draw(0, 0, 0) == 0.13870941014555427

    def test_range_and_spread(self):
        draws = [uniform_draw(7, i, b) for i in range(200) for b in range(5)]
        assert all(0.0 <= d < 1.0 for d in draws)
        hist, _ = np.histogram(draws, bins=10, range=(0, 1))
        assert hist.min() > 50  # 1000 draws, expect ~100 per bin

    def test_keys_independent(self):
        assert uniform_draw(1, 2, 3) != uniform_draw(1, 3, 2)
        assert uniform_draw(1, 2, 3) != uniform_draw(2, 2, 3)

    def test_stream_wrapper(self):
        draws = uniform_draws(42, np.arange(8, dtype=np.uint64), 2)
        assert draws[5] == uniform_draw(42, 5, 2)


def _stack_walk(parents, n_roots):
    """Depth-first path order by an explicit stack: the reference for
    dfs_order."""
    children = [[] for _ in parents]
    for child, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(child)
    order = []
    stack = list(range(n_roots - 1, -1, -1))
    while stack:
        path = stack.pop()
        order.append(path)
        stack.extend(reversed(children[path]))
    return order


@st.composite
def forests(draw):
    """Parent ids of a path forest: the roots first, then children whose
    parent id is below their own (often the path just before, for depth)."""
    n_roots = draw(st.integers(1, 6))
    parents = [-1] * n_roots
    for child in range(n_roots, n_roots + draw(st.integers(0, 60))):
        parents.append(draw(st.one_of(st.just(child - 1),
                                      st.integers(0, child - 1))))
    return parents, n_roots


@given(forests())
@example(([-1], 1))
@example(([-1] * 5, 5))
@example(([-1] + list(range(16)), 1))
@example(([-1, -1] + list(range(1, 17)) + [0, 0], 2))
@settings(max_examples=200, deadline=None)
def test_dfs_order_matches_a_stack_walk(forest):
    parents, n_roots = forest
    got = dfs_order(np.array(parents), n_roots)
    assert got.tolist() == _stack_walk(parents, n_roots)


class TestSequences:
    def test_r2_frozen_start(self):
        pts = r2_sequence(2)
        assert pts[0] == pytest.approx((0.25487767, 0.06984029), abs=1e-8)
        assert pts[1] == pytest.approx((0.00975533, 0.63968058), abs=1e-8)

    def test_r2_windowing(self):
        assert np.allclose(r2_sequence(5)[2:], r2_sequence(3, start=2))

    def test_r2_range(self):
        pts = r2_sequence(500)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    @pytest.mark.parametrize("n,start", [(1, 0), (2000, 0), (10**5, 0),
                                         (10**5, 12345), (77, 2**31)])
    def test_r2_keeps_the_bits_of_the_remainder_form(self, n, start):
        # The sequence as it was written with % 1.0; floor must not move a bit.
        i = np.arange(start + 1, start + n + 1, dtype=np.float64)
        a1, a2 = 0.7548776662466927, 0.5698402909980532
        ref = np.stack([(0.5 + a1 * i) % 1.0, (0.5 + a2 * i) % 1.0], axis=1)
        assert np.array_equal(r2_sequence(n, start).view(np.int64),
                              ref.view(np.int64))

    def test_cone_directions_inside_cone(self):
        axis = normalize(vec3(0.3, -0.5, 0.8))
        cone = Cone(axis, math.radians(7.0))
        dirs = cone_directions(cone, 300)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        cosines = dirs @ axis
        assert cosines.min() >= math.cos(math.radians(7.0)) - 1e-12

    def test_cone_deterministic(self):
        cone = Cone(Z_PLUS, 0.1)
        assert np.array_equal(cone_directions(cone, 16), cone_directions(cone, 16))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cone_axis_along_y(self, sign):
        axis = vec3(0.0, sign, 0.0)
        dirs = cone_directions(Cone(axis, math.radians(5.0)), 200)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert (dirs @ axis).min() >= math.cos(math.radians(5.0)) - 1e-12

    def test_cone_validation(self):
        with pytest.raises(ValueError):
            cone_directions(Cone(Z_PLUS, 0.0), 4)


class TestTraceRay:
    def test_screen_terminal(self):
        screen = Screen("panel", facing_z((0, 0, -50)), (40.0, 40.0),
                        make_pattern("uniform", 8))
        scene = Scene((screen,), simple_eye())
        path = trace_ray(scene, Ray(vec3(0, 0, 20.0), -Z_PLUS))
        assert path.terminal == "absorbed"
        assert path.segments[-1].interaction == "screen"
        assert path.segments[-1].element == "panel"

    def test_escape(self):
        scene = plate_scene()
        path = trace_ray(scene, Ray(vec3(0, 0, 20.0), vec3(1.0, 0.0, 0.0)))
        assert path.terminal == "escaped"

    def test_reaches_eye_inside_aperture_only(self):
        scene = plate_scene()
        path = trace_ray(scene, Ray(vec3(1.0, 0.0, 30.0), Z_PLUS))
        assert path.terminal == "reached_eye"
        path = trace_ray(scene, Ray(vec3(10.0, 0.0, 30.0), Z_PLUS))
        assert path.terminal == "escaped"

    def test_absorber(self):
        stop = Absorber("stop", facing_z((0, 0, -10)), (30.0, 30.0))
        scene = Scene((stop,), simple_eye())
        path = trace_ray(scene, Ray(vec3(0, 0, 20.0), -Z_PLUS))
        assert path.terminal == "absorbed"
        assert path.segments[-1].element == "stop"

    def test_nearest_element_wins(self):
        near = Absorber("near", facing_z((0, 0, -10)), (30.0, 30.0))
        far = Absorber("far", facing_z((0, 0, -20)), (30.0, 30.0))
        scene = Scene((far, near), simple_eye())
        path = trace_ray(scene, Ray(vec3(0, 0, 20.0), -Z_PLUS))
        assert path.segments[-1].element == "near"

    def test_lens_mount_absorbs(self):
        lens = ThinLens("L", facing_z((0, 0, 0)), 50.0, 20.0,
                        housing_extent=(60.0, 60.0))
        scene = Scene((lens,), simple_eye())
        path = trace_ray(scene, Ray(vec3(25.0, 0.0, 20.0), -Z_PLUS))
        assert path.terminal == "absorbed"
        path = trace_ray(scene, Ray(vec3(5.0, 0.0, 20.0), -Z_PLUS))
        assert path.terminal == "escaped"
        assert path.segments[0].interaction == "lens"

    def test_grazing_ray_is_absorbed_at_the_lens(self):
        # |d.n| is exactly 1e-12: not parallel to the plane (below 1e-12),
        # so the ray hits the clear aperture 100 mm on, but not clear of
        # grazing (above 1e-12) either.  Both tracers send it to the mount.
        lens = ThinLens("L", facing_z((0, 0, 0)), 50.0, 20.0)
        scene = Scene((lens,), simple_eye())
        path = trace_ray(scene, Ray(vec3(-100.0, 0.0, -1e-10),
                                    vec3(1.0, 0.0, 1e-12)))
        assert [(seg.element, seg.interaction) for seg in path.segments] == [
            ("L", "absorbed")]
        assert path.terminal == "absorbed"

    def test_half_mirror_branches_and_weights(self):
        mirror = HalfMirror("hm", facing_z((0, 0, 0)), (50.0, 50.0),
                            reflectance=0.7)
        scene = Scene((mirror,), simple_eye((0.0, 0.0, -60.0)))
        path = trace_ray(scene, Ray(vec3(0.0, 3.0, 20.0), -Z_PLUS))
        # reflected side is stronger: parent carries it
        assert path.segments[0].interaction == "half_mirror_reflect"
        assert len(path.children) == 1
        weights = [path.segments[-1].ray.weight,
                   path.children[0].segments[-1].ray.weight]
        assert weights[0] == pytest.approx(0.7)
        assert sum(weights) == 1.0

    def test_half_mirror_tie_prefers_reflection(self):
        mirror = HalfMirror("hm", facing_z((0, 0, 0)), (50.0, 50.0),
                            reflectance=0.5)
        scene = Scene((mirror,), simple_eye())
        path = trace_ray(scene, Ray(vec3(0.0, 3.0, 20.0), -Z_PLUS))
        assert path.segments[0].interaction == "half_mirror_reflect"

    def test_weight_cutoff_prunes_children(self):
        # 14 mirrors at r=0.5 halve the weight each pass: branches beyond
        # 2^-13 < 1e-4 are dropped and the trunk fades out.
        mirrors = tuple(HalfMirror(f"m{i}", facing_z((0, 0, -5.0 * i)),
                                   (50.0, 50.0)) for i in range(14))
        scene = Scene(mirrors, simple_eye())
        path = trace_ray(scene, Ray(vec3(0, 3.0, 20.0), -Z_PLUS),
                         max_bounces=64)
        walk = list(path.walk())
        weights = [p.segments[-1].ray.weight for p in walk]
        assert all(w >= 1e-4 or p.segments[-1].interaction == "faded"
                   for w, p in zip(weights, walk))
        assert any(p.segments[-1].interaction == "faded" for p in walk)

    def test_max_bounces(self):
        # two facing mirrors ping-pong forever
        a = HalfMirror("a", facing_z((0, 0, 0)), (50.0, 50.0), reflectance=0.99)
        b = HalfMirror("b", facing_z((0, 0, 10.0)), (50.0, 50.0), reflectance=0.99)
        scene = Scene((a, b), simple_eye((0.0, 0.0, 200.0)))
        path = trace_ray(scene, Ray(vec3(0.0, 1.0, 5.0), Z_PLUS), max_bounces=6)
        assert path.terminal == "max_bounces"

    def test_plate_modes_follow_stream(self):
        scene = plate_scene(mode_weights=(0.6, 0.3, 0.1))
        ray = Ray(vec3(0.0, 1.0, 30.0), -Z_PLUS)
        p1 = trace_ray(scene, ray, seed=9, ray_index=0)
        p2 = trace_ray(scene, ray, seed=9, ray_index=0)
        assert p1.segments[0].interaction == p2.segments[0].interaction
        seen = {trace_ray(scene, ray, seed=9, ray_index=i).segments[0].interaction
                for i in range(200)}
        assert "double_reflect" in seen and "pass_through" in seen


class TestBundle:
    SRC = vec3(4.0, -6.0, -50.0)

    def bundle(self, scene, n=150, seed=3, **kw):
        cone = Cone(normalize(vec3(-0.03, 0.05, 1.0)), math.radians(4.0))
        return trace_bundle(scene, self.SRC, n, cone, seed=seed, **kw)

    def test_double_reflection_images_source(self):
        b = self.bundle(plate_scene())
        rays = terminal_rays(b, "double_reflect")
        assert len(rays) > 100
        point, rms = closest_point_to_rays(rays)
        assert np.allclose(point, [4.0, -6.0, 50.0], atol=1e-9)
        assert rms < 1e-9

    def test_mode_fractions_track_weights(self):
        b = self.bundle(plate_scene(mode_weights=(0.6, 0.3, 0.1)), n=2000)
        t = b.stats["interactions"]
        n_classified = sum(t.get(k, 0) for k in
                           ("double_reflect", "single_reflect_u",
                            "single_reflect_v", "pass_through", "absorbed"))
        assert t["double_reflect"] / n_classified == pytest.approx(0.6, abs=0.05)
        assert t["pass_through"] / n_classified == pytest.approx(0.1, abs=0.03)

    def test_polarizer_removes_single_modes(self):
        b = self.bundle(plate_scene(mode_weights=(0.6, 0.3, 0.1),
                                    polarizer=True), n=500)
        assert "single_reflect_u" not in b.stats["interactions"]
        assert "single_reflect_v" not in b.stats["interactions"]
        assert "single_reflect" not in b.stats["mode_weight"]

    def test_mode_weight_bounded_by_emitted(self):
        b = self.bundle(plate_scene(mode_weights=(0.6, 0.3, 0.1)), n=400)
        assert sum(b.stats["mode_weight"].values()) <= b.stats["emitted_weight"] + 1e-9

    def test_same_seed_reproduces(self):
        s1 = self.bundle(plate_scene(mode_weights=(0.5, 0.3, 0.2)), seed=11)
        s2 = self.bundle(plate_scene(mode_weights=(0.5, 0.3, 0.2)), seed=11)
        assert s1.stats == s2.stats
        r1 = terminal_rays(s1)
        r2 = terminal_rays(s2)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.origin, b.origin)
            assert np.array_equal(a.direction, b.direction)

    def test_different_seed_differs(self):
        s1 = self.bundle(plate_scene(mode_weights=(0.5, 0.3, 0.2)), seed=11)
        s2 = self.bundle(plate_scene(mode_weights=(0.5, 0.3, 0.2)), seed=12)
        assert s1.stats != s2.stats

    def test_worker_count_invisible(self):
        s1 = self.bundle(plate_scene(mode_weights=(0.5, 0.3, 0.2)), workers=1)
        s4 = self.bundle(plate_scene(mode_weights=(0.5, 0.3, 0.2)), workers=4)
        assert s1.stats == s4.stats
        for a, b in zip(terminal_rays(s1), terminal_rays(s4)):
            assert np.array_equal(a.origin, b.origin)

    def test_workers_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("TMDSIM_WORKERS", "abc")
        with pytest.raises(UsageError, match="TMDSIM_WORKERS"):
            resolve_workers()
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("workers", [0, -5])
    def test_worker_count_below_one(self, workers, monkeypatch):
        with pytest.raises(UsageError, match="at least 1"):
            resolve_workers(workers)
        monkeypatch.setenv("TMDSIM_WORKERS", str(workers))
        with pytest.raises(UsageError, match="at least 1"):
            resolve_workers()
        with pytest.raises(UsageError, match="at least 1"):
            self.bundle(plate_scene(), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, "3"])
    def test_worker_count_must_be_a_whole_number(self, workers):
        # The whole-number rule of every other count, as a usage error.
        with pytest.raises(UsageError, match="whole number"):
            resolve_workers(workers)
        with pytest.raises(UsageError, match="whole number"):
            self.bundle(plate_scene(), workers=workers)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bounce_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="max_bounces"):
            self.bundle(plate_scene(), max_bounces=budget)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_trace_ray_bounce_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="max_bounces must be >= 1"):
            trace_ray(plate_scene(), Ray(vec3(0, 0, 20.0), -Z_PLUS),
                      max_bounces=budget)

    @pytest.mark.parametrize("counts", [{"n": 3.7}, {"n": "150"},
                                        {"max_bounces": 2.5},
                                        {"max_bounces": math.nan}])
    def test_non_integral_counts_are_rejected(self, counts):
        with pytest.raises(ValueError, match="must be a whole number"):
            self.bundle(plate_scene(), **counts)

    def test_ray_count_above_the_limit_is_refused_first(self, monkeypatch):
        # Refused before the cone's directions are made; MAX_RAYS itself
        # gets that far.
        def reached(*args):
            raise LookupError("the count was accepted")

        monkeypatch.setattr(tracer, "cone_directions", reached)
        with pytest.raises(LookupError):
            self.bundle(plate_scene(), n=MAX_RAYS)
        for n in (MAX_RAYS + 1, 10**12, float(10**12)):
            with pytest.raises(ValueError, match=f"n_rays must be at most {MAX_RAYS}"):
                self.bundle(plate_scene(), n=n)

    def test_whole_float_counts_act_as_integers(self):
        want = self.bundle(plate_scene(), n=40, max_bounces=3).stats
        assert self.bundle(plate_scene(), n=40.0, max_bounces=3.0).stats == want

    @pytest.mark.parametrize("budget", [2.5, math.inf, "3"])
    def test_trace_ray_non_integral_budget(self, budget):
        with pytest.raises(ValueError, match="max_bounces must be a whole number"):
            trace_ray(plate_scene(), Ray(vec3(0, 0, 20.0), -Z_PLUS),
                      max_bounces=budget)

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv("TMDSIM_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("TMDSIM_WORKERS")
        assert resolve_workers() == 1


class TestSpot:
    def test_plane_crossings_and_rms(self):
        scene = plate_scene()
        cone = Cone(Z_PLUS, math.radians(3.0))
        b = trace_bundle(scene, vec3(0.0, 0.0, -40.0), 200, cone, seed=5)
        plane = Pose.facing(vec3(0.0, 0.0, 40.0), Z_PLUS)
        spot = spot_diagram(b, plane, "double_reflect")
        assert spot.rms_radius < 1e-9
        assert len(spot.points) > 100

    def test_quantization_blur_matches_uniform_law(self):
        # cell-centre snapping displaces each exit point by a uniform
        # (-p/2, p/2)^2 offset, an rms radius of p/sqrt(6)
        for pitch in (0.3, 0.5):
            scene = plate_scene(pitch=pitch)
            cone = Cone(Z_PLUS, math.radians(3.0))
            b = trace_bundle(scene, vec3(0.2, -0.1, -40.0), 400, cone, seed=8)
            plane = Pose.facing(vec3(0.2, -0.1, 40.0), Z_PLUS)
            spot = spot_diagram(b, plane, "double_reflect")
            want = pitch / math.sqrt(6.0)
            assert spot.rms_radius == pytest.approx(want, rel=0.15)

    def test_empty_spot(self):
        scene = plate_scene()
        cone = Cone(Z_PLUS, math.radians(3.0))
        b = trace_bundle(scene, vec3(0.0, 0.0, -40.0), 50, cone, seed=5)
        plane = Pose.facing(vec3(0.0, 0.0, -3000.0), Z_PLUS)
        with pytest.raises(EmptySpot):
            spot_diagram(b, plane)


class TestLensImaging:
    def test_bundle_through_lens_converges(self):
        lens = ThinLens("L", facing_z((0, 0, 0)), 50.0, 60.0)
        scene = Scene((lens,), simple_eye((0.0, 0.0, 500.0)))
        src = vec3(5.0, 0.0, -100.0)
        cone = Cone(normalize(vec3(-0.05, 0.0, 1.0)), math.radians(8.0))
        b = trace_bundle(scene, src, 200, cone, seed=2)
        rays = [r for r in terminal_rays(b) if r.direction[2] > 0]
        point, rms = closest_point_to_rays(rays)
        # 1/v = 1/50 - 1/100 -> v = 100, magnification -1
        assert np.allclose(point, [-5.0, 0.0, 100.0], atol=1e-8)
        assert rms < 1e-8
