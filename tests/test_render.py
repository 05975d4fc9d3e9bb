import itertools
import math

import numpy as np
import pytest

from tmdsim.elements import Screen, TmdPlate
from tmdsim.errors import IoError
from tmdsim.geometry import Pose, normalize, vec3
from tmdsim.presets import build_preset, defocus_scene, tmd_see_through_preset
from tmdsim.render import (Image, SweepResult, best_offset, defocus_sweep,
                           read_ppm, render_view, sharpness_metric, tone_map,
                           write_csv, write_ppm)
from tmdsim.scene import EyeCamera, Scene, camera_pose, make_pattern
from tmdsim.tracer import Cone, trace_bundle


def grey_image(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return Image(arr.shape[1], arr.shape[0], np.repeat(arr[:, :, None], 3, axis=2))


def flat_mirror_scene(pattern, sensor=(128, 128, 0.4)):
    """Plate at z=0 floats the screen at z=-60 to +60; camera focused there."""
    plate = TmdPlate("plate", Pose.facing(vec3(0, 0, 0), vec3(0, 0, 1.0)),
                     (200.0, 200.0), pitch=0.0, mode_weights=(1.0, 0.0, 0.0))
    screen = Screen("panel", Pose.facing(vec3(0, 0, -60.0), vec3(0, 0, 1.0)),
                    (40.0, 40.0), make_pattern(pattern, 64))
    eye = EyeCamera("camera", camera_pose(vec3(0, 0, 160.0), (0.0, 0.0, -1.0)),
                    focal_length=100.0, aperture_diameter=8.0, sensor=sensor)
    return Scene((plate, screen), eye)


class TestToneMap:
    def test_black_stays_black(self):
        img = grey_image(np.zeros((3, 3)))
        assert np.all(tone_map(img) == 0)

    def test_peak_hits_255(self):
        img = grey_image([[0.0, 1.0], [2.0, 0.5]])
        data = tone_map(img)
        assert data.dtype == np.uint8
        assert data[1, 0, 0] == 255
        assert data[0, 1, 0] == 128  # 127.5 rounds half to even -> 128
        assert data[0, 0, 0] == 0

    def test_scale_invariance(self):
        base = np.random.default_rng(0).uniform(0, 1, (5, 5))
        assert np.array_equal(tone_map(grey_image(base)),
                              tone_map(grey_image(base * 7.3)))


class TestPpm:
    def test_exact_bytes_single_black_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        write_ppm(grey_image(np.zeros((1, 1))), path)
        assert path.read_bytes() == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = grey_image(rng.uniform(0, 1, (6, 9)))
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert back.width == 9 and back.height == 6
        assert np.array_equal(back.pixels.astype(np.uint8), tone_map(img))

    def test_write_failure(self):
        with pytest.raises(IoError):
            write_ppm(grey_image(np.zeros((1, 1))), "/nonexistent/dir/x.ppm")

    def test_read_failure(self, tmp_path):
        with pytest.raises(IoError):
            read_ppm(tmp_path / "missing.ppm")
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(IoError):
            read_ppm(bad)


class TestCsv:
    def test_format(self, tmp_path):
        sweep = SweepResult((10.0, 0.0, -10.0), (0.25, 0.5, 0.125))
        path = tmp_path / "sweep.csv"
        write_csv(sweep, path)
        assert path.read_text() == ("offset_mm,sharpness\n"
                                    "10,0.25\n0,0.5\n-10,0.125\n")


class TestSharpness:
    def test_constant_zero(self):
        assert sharpness_metric(grey_image(np.full((8, 8), 0.6))) == 0.0
        assert sharpness_metric(grey_image(np.zeros((8, 8)))) == 0.0

    def test_brightness_invariant(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 1.0, (16, 16))
        a = sharpness_metric(grey_image(base))
        b = sharpness_metric(grey_image(base * 3.7))
        assert a == pytest.approx(b, rel=1e-12)

    def test_blur_reduces_sharpness(self):
        img = make_pattern("checker 8", 64)
        soft = (img + np.roll(img, 1, axis=0) + np.roll(img, 1, axis=1)
                + np.roll(img, (1, 1), axis=(0, 1))) / 4.0
        assert sharpness_metric(grey_image(img)) > sharpness_metric(grey_image(soft))

    def test_exhaustive_4x4_against_brute_force(self):
        # every 4x4 binary image with eight on-pixels, checked against a
        # from-scratch loop implementation; the two pixel checkerboards
        # must be the unique argmax pair
        def brute(a):
            total = 0.0
            count = 0
            for r in range(4):
                for c in range(3):
                    total += (a[r, c + 1] - a[r, c]) ** 2
                    count += 1
            for r in range(3):
                for c in range(4):
                    total += (a[r + 1, c] - a[r, c]) ** 2
                    count += 1
            mean = a.sum() / 16.0
            return total / count / mean ** 2 if mean else 0.0

        best_val, best_keys = -1.0, []
        for ones in itertools.combinations(range(16), 8):
            a = np.zeros(16)
            a[list(ones)] = 1.0
            a = a.reshape(4, 4)
            got = sharpness_metric(grey_image(a))
            want = brute(a)
            assert got == pytest.approx(want, rel=1e-12)
            if got > best_val + 1e-12:
                best_val, best_keys = got, [ones]
            elif abs(got - best_val) <= 1e-12:
                best_keys.append(ones)
        checker = tuple(i for i in range(16) if (i // 4 + i % 4) % 2 == 0)
        anti = tuple(i for i in range(16) if (i // 4 + i % 4) % 2 == 1)
        assert sorted(best_keys) == sorted([checker, anti])
        assert best_val == pytest.approx(4.0)


class TestRenderEngine:
    def test_deterministic_rerun(self):
        scene = build_preset("tmd_see_through")
        a = render_view(scene, rays_per_pixel=2, seed=9)
        b = render_view(scene, rays_per_pixel=2, seed=9)
        assert np.array_equal(a.pixels, b.pixels)

    def test_seed_changes_lens_sampling(self):
        scene = build_preset("tmd_see_through")
        a = render_view(scene, rays_per_pixel=4, seed=1)
        b = render_view(scene, rays_per_pixel=4, seed=2)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_pinhole_ignores_seed(self):
        scene = build_preset("tmd_see_through")
        a = render_view(scene, rays_per_pixel=1, seed=1)
        b = render_view(scene, rays_per_pixel=1, seed=2)
        assert np.array_equal(a.pixels, b.pixels)

    def test_worker_count_bit_identical(self):
        scene = build_preset("tmd_see_through")
        a = render_view(scene, rays_per_pixel=2, seed=5, workers=1)
        b = render_view(scene, rays_per_pixel=2, seed=5, workers=4)
        assert np.array_equal(a.pixels, b.pixels)

    def test_workers_env_bit_identical(self, monkeypatch):
        scene = build_preset("tmd_see_through")
        a = render_view(scene, rays_per_pixel=2, seed=5)
        monkeypatch.setenv("TMDSIM_WORKERS", "3")
        b = render_view(scene, rays_per_pixel=2, seed=5)
        assert np.array_equal(a.pixels, b.pixels)

    def test_aerial_image_is_erect(self):
        # double reflection preserves both transverse axes: a left-dark /
        # right-bright gradient stays that way, a bright top stays on top
        img = render_view(flat_mirror_scene("hgrad"), rays_per_pixel=1)
        lum = img.luminance()
        h, w = lum.shape
        assert lum[:, 3 * w // 4].mean() > lum[:, w // 4].mean() * 1.5
        img = render_view(flat_mirror_scene("vstep"), rays_per_pixel=1)
        lum = img.luminance()
        assert lum[: h // 4].mean() > lum[3 * h // 4:].mean() * 2

    def test_uniform_scene_uniform_centre(self):
        img = render_view(flat_mirror_scene("uniform 0.8"), rays_per_pixel=1)
        lum = img.luminance()
        h, w = lum.shape
        centre = lum[h // 4: -h // 4, w // 4: -w // 4]
        assert np.allclose(centre, 0.8, atol=1e-9)

    def test_polarizer_equals_zeroed_single_weight(self):
        kw = dict(pitch=0.5, mirror_ratio=3.0)
        blocked = tmd_see_through_preset(40.0, 150.0, 60.0, 60.0,
                                         mode_weights=(0.6, 0.3, 0.1),
                                         polarizer=True, **kw)
        zeroed = tmd_see_through_preset(40.0, 150.0, 60.0, 60.0,
                                        mode_weights=(0.6, 0.0, 0.1),
                                        polarizer=False, **kw)
        ghosted = tmd_see_through_preset(40.0, 150.0, 60.0, 60.0,
                                         mode_weights=(0.6, 0.3, 0.1),
                                         polarizer=False, **kw)
        a = render_view(blocked, rays_per_pixel=2, seed=42)
        b = render_view(zeroed, rays_per_pixel=2, seed=42)
        c = render_view(ghosted, rays_per_pixel=2, seed=42)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_finer_pitch_renders_sharper(self):
        # camera focused on the floated image; enough lens samples that the
        # cell-centre snapping integrates into genuine blur
        imgs = {}
        for pitch in (0.3, 0.5):
            scene = defocus_scene(False, pitch=pitch)
            imgs[pitch] = sharpness_metric(render_view(scene, rays_per_pixel=16))
        assert imgs[0.3] >= imgs[0.5]


class TestBounceBudget:
    def test_both_tracers_count_the_final_hit(self):
        # screen -> lens -> plate -> eye forward, eye -> plate -> lens ->
        # screen backward: three surface hits either way.
        scene = build_preset("ame_dk2")
        eye = scene.eye
        camera = EyeCamera(eye.ident, eye.pose, eye.focal_length,
                           eye.aperture_diameter, (32, 32, eye.sensor[2]))
        screen_z = scene.element("panel").pose.position[2]
        source = vec3(2.0, -1.5, screen_z + 0.5)
        cone = Cone(normalize(eye.pose.position - source), math.radians(2.0))
        full = render_view(scene, camera, rays_per_pixel=1, workers=1)
        assert full.pixels.max() > 0.0
        for budget, sees in ((2, False), (3, True)):
            image = render_view(scene, camera, rays_per_pixel=1,
                                max_bounces=budget, workers=1)
            terminals = trace_bundle(scene, source, 64, cone,
                                     max_bounces=budget).stats["terminals"]
            if sees:
                assert np.array_equal(image.pixels, full.pixels)
                assert terminals.get("reached_eye", 0) > 0
            else:
                assert not image.pixels.any()
                assert terminals == {"max_bounces": 64}


class TestSweep:
    def test_flat_bench_peaks_at_zero(self):
        sweep = defocus_sweep(build_preset("defocus_flat"),
                              offsets=(0.0, -10.0), rays_per_pixel=8)
        assert sweep.sharpness[0] > sweep.sharpness[1]
        assert best_offset(sweep) == 0.0

    def test_keep_images(self):
        sweep = defocus_sweep(build_preset("defocus_flat"), offsets=(0.0,),
                              rays_per_pixel=1, keep_images=True)
        assert len(sweep.images) == 1
        assert sweep.images[0].width == 256
