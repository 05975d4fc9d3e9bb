import contextlib
import itertools
import math
import os
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim import render
from tmdsim.elements import Screen, TmdPlate
from tmdsim.errors import InvalidGeometry, IoError
from tmdsim.geometry import Pose, linalg_normalize_rows, normalize, vec3
from tmdsim.presets import build_preset, defocus_scene, tmd_see_through_preset
from tmdsim.render import (MAX_RPP, ROW_BLOCK, Image, SweepResult, _pool_size,
                           best_offset, defocus_sweep, read_ppm, render_view,
                           sharpness_metric, tone_map, write_csv, write_ppm)
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



def _linalg_normalized(v):
    # The renderer's row normalization before it went a column at a time.
    n = np.linalg.norm(v, axis=1)
    for j in range(3):
        v[:, j] /= n
    return v


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.data())
@settings(max_examples=100, deadline=None)
def test_normalized_keeps_the_linalg_norm_bits(seed, n, data):
    # Rows of magnitude 1e-150 to 1e150, some with zero components, in a
    # batch and alone.
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-150, 150, (n, 1))
    v[rng.random((n, 3)) < 0.2] = 0.0
    v[:, 2] = np.where((v == 0.0).all(axis=1), 1.0, v[:, 2])
    i = data.draw(st.integers(0, n - 1))
    assert (linalg_normalize_rows(v.copy()).tobytes()
            == _linalg_normalized(v.copy()).tobytes())
    assert (linalg_normalize_rows(v[i:i + 1].copy()).tobytes()
            == _linalg_normalized(v[i:i + 1].copy()).tobytes())

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

    @pytest.mark.parametrize("blob", [
        b"P6\nabc\n255\n\x00\x00\x00",  # a size that is not a number
        b"P6\n1\n255\n\x00\x00\x00",  # one size
        b"P6\n1 1 1\n255\n\x00\x00\x00",  # three sizes
        b"P6\n1.5 1\n255\n\x00\x00\x00",  # a fractional size
        b"P6\n1_0 +1\n255\n" + b"\x00" * 30,  # what int() reads, not digits
        b"P6\n" + b"9" * 5000 + b" 1\n255\n",  # past int()'s digit limit
        b"P6\n-1 2\n255\n",  # a negative width
        b"P6\n2 0\n255\n",  # a zero height
        b"P6\n2 2\n255\n" + b"\x00" * 11,  # 11 of 12 pixel bytes
        b"P6\n2 2\n255\n",  # no pixel data
        b"P6 1 1 255\n\x00\x00\x00",  # netpbm's one-line header
        b"P6\n# made elsewhere\n1 1\n255\n\x00\x00\x00",  # a comment line
    ], ids=["word", "one_size", "three_sizes", "fraction", "int_syntax",
            "huge", "negative", "zero", "short_data", "no_data", "one_line",
            "comment"])
    def test_malformed_file_raises_io_error(self, tmp_path, blob):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(blob)
        with pytest.raises(IoError, match="bad.ppm"):
            read_ppm(bad)

    def test_trailing_bytes_are_ignored(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03\x04")
        assert read_ppm(path).pixels.tolist() == [[[1.0, 2.0, 3.0]]]


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
        (panel,) = [e for e in scene.elements if e.ident == "panel"]
        screen_z = panel.pose.position[2]
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

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match="max_bounces"):
            render_view(build_preset("defocus_flat"), rays_per_pixel=1,
                        max_bounces=budget)

    def test_rays_per_pixel_above_the_limit_is_refused_first(self, monkeypatch):
        # Refused before the aperture samples are made; MAX_RPP itself gets
        # that far.
        def reached(*args):
            raise LookupError("the count was accepted")

        monkeypatch.setattr(render, "_aperture_points", reached)
        scene = build_preset("defocus_flat")
        with pytest.raises(LookupError):
            render_view(scene, rays_per_pixel=MAX_RPP)
        for rpp in (MAX_RPP + 1, 10**12):
            with pytest.raises(ValueError,
                               match=f"rays_per_pixel must be at most {MAX_RPP}"):
                render_view(scene, rays_per_pixel=rpp)

    @pytest.mark.parametrize("counts", [{"rays_per_pixel": 2.5},
                                        {"rays_per_pixel": "4"},
                                        {"max_bounces": 2.5},
                                        {"max_bounces": math.nan}])
    def test_non_integral_counts_are_rejected(self, counts):
        with pytest.raises(ValueError, match="must be a whole number"):
            render_view(build_preset("defocus_flat"),
                        **{"rays_per_pixel": 1, **counts})


@pytest.fixture
def forking(monkeypatch):
    """Render with as many processes as asked for, up to the block count,
    whatever the core count."""
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    monkeypatch.setattr(render, "_pool_size", min)


@contextlib.contextmanager
def _deadline(seconds):
    def hung(signum, frame):
        raise TimeoutError("render_view did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _camera(width, height, scene=None):
    eye = (scene or build_preset("defocus_flat")).eye
    return EyeCamera(eye.ident, eye.pose, eye.focal_length,
                     eye.aperture_diameter, (width, height, eye.sensor[2]))


def _four_block_render(workers):
    return render_view(build_preset("defocus_flat"), _camera(8, 4 * ROW_BLOCK),
                       rays_per_pixel=1, workers=workers)


def _in_children_only(monkeypatch, action):
    """Run `action` in place of every block a forked child takes.  The
    caller renders its blocks slowly, so that a child starts in time to
    take one."""
    caller = os.getpid()
    rows = render._render_rows

    def patched(*args, **kwargs):
        if os.getpid() != caller:
            return action()
        time.sleep(0.5)
        return rows(*args, **kwargs)

    monkeypatch.setattr(render, "_render_rows", patched)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerPool:
    def test_pool_size_is_capped(self):
        # Pure arithmetic: no render and no process is started here.
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        assert 1 <= _pool_size(10**6, 8) <= min(8, cores)
        assert _pool_size(10**6, 10**6) == cores
        assert _pool_size(3, 1) == 1
        assert _pool_size(1, 8) == 1
        assert _pool_size(2, 8) == min(2, cores)

    def test_pool_size_is_one_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert _pool_size(3, 8) == 1

    def test_one_worker_forks_nothing(self, monkeypatch):
        # One process renders every block through the shared scheduler
        # without forking; a second worker would fork.
        want = _four_block_render(workers=1).pixels

        def no_fork():
            raise AssertionError("a one-worker render forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert np.array_equal(_four_block_render(workers=1).pixels, want)
        monkeypatch.setattr(render, "_pool_size", min)
        with pytest.raises(AssertionError, match="forked"):
            _four_block_render(workers=2)

    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch, forking):
        # Every process, the caller first among them, fails on its first
        # block: the caller must raise that error (not hang) and leave no
        # child behind.
        def broken(*args, **kwargs):
            raise ValueError("interaction failed")

        monkeypatch.setattr(render, "_interact", broken)
        with _deadline(60), pytest.raises(ValueError, match="interaction failed"):
            render_view(build_preset("defocus_flat"), _camera(16, 2 * ROW_BLOCK),
                        rays_per_pixel=1, workers=2)
        _assert_no_child_left()

    @pytest.mark.parametrize("size", [10, 200_000])
    def test_error_only_in_a_child_reaches_the_caller(self, monkeypatch, forking,
                                                      size):
        # The caller renders its share; one child fails.  A report larger
        # than a pipe holds must not deadlock the caller's wait.
        message = "child failed " + "x" * size

        def fail():
            raise ValueError(message)

        _in_children_only(monkeypatch, fail)
        with _deadline(60), pytest.raises(ValueError) as info:
            _four_block_render(workers=2)
        assert type(info.value) is ValueError and str(info.value) == message
        _assert_no_child_left()

    def test_an_unpicklable_child_error_arrives_as_its_traceback(
            self, monkeypatch, forking):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        def fail():
            raise LocalError("no pickle for me")

        _in_children_only(monkeypatch, fail)
        with _deadline(60), pytest.raises(RuntimeError,
                                          match="(?s)LocalError.*no pickle for me"):
            _four_block_render(workers=2)
        _assert_no_child_left()

    def test_a_child_killed_without_a_report_is_an_error(self, monkeypatch,
                                                         forking):
        # Its blocks were never written: the image must not come back.
        _in_children_only(monkeypatch,
                          lambda: os.kill(os.getpid(), signal.SIGKILL))
        with _deadline(60), pytest.raises(RuntimeError, match="status -9"):
            _four_block_render(workers=2)
        _assert_no_child_left()

    def test_an_interrupt_in_the_callers_share_stops_the_children(
            self, monkeypatch, forking):
        # The children would sleep far past the deadline: the caller must
        # end them, not wait for them.
        caller = os.getpid()

        def slow_children(*args, **kwargs):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(600)

        monkeypatch.setattr(render, "_render_rows", slow_children)
        with _deadline(60), pytest.raises(KeyboardInterrupt):
            _four_block_render(workers=3)
        _assert_no_child_left()

    @pytest.mark.parametrize("height", [2 * ROW_BLOCK + 5, ROW_BLOCK - 3])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_match_one_worker(self, forking, workers, height):
        # A partial last block, and a sensor of one block.
        scene = build_preset("tmd_see_through")
        camera = _camera(24, height, scene)
        one = render_view(scene, camera, rays_per_pixel=2, seed=7, workers=1)
        with _deadline(120):
            many = render_view(scene, camera, rays_per_pixel=2, seed=7,
                               workers=workers)
        assert np.array_equal(one.pixels, many.pixels)
        _assert_no_child_left()

    def test_more_blocks_than_a_pipe_holds(self, monkeypatch, forking):
        # One row per block and more blocks than 64 KiB of 4-byte indices:
        # handing them out must not block, and every row is written.
        height = 16384 + 123
        monkeypatch.setattr(render, "ROW_BLOCK", 1)
        monkeypatch.setattr(render, "_render_rows",
                            lambda surfaces, camera, rows, offsets, budget:
                            np.arange(rows.start, rows.stop, dtype=np.float64) + 1)
        with _deadline(120):
            image = render_view(build_preset("defocus_flat"), _camera(1, height),
                                rays_per_pixel=1, workers=3)
        assert np.array_equal(image.pixels[:, 0, 0], np.arange(height) + 1.0)
        _assert_no_child_left()


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

    @pytest.mark.parametrize("rpp", [2.5, math.inf])
    def test_non_integral_rays_per_pixel_is_rejected(self, rpp):
        with pytest.raises(ValueError,
                           match="rays_per_pixel must be a whole number"):
            defocus_sweep(build_preset("defocus_flat"), offsets=(0.0,),
                          rays_per_pixel=rpp)

    @pytest.mark.parametrize("offsets", [(), [], np.array([])])
    def test_empty_offsets_are_rejected(self, offsets):
        with pytest.raises(ValueError, match="at least one offset"):
            defocus_sweep(build_preset("defocus_flat"), offsets=offsets,
                          rays_per_pixel=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_is_rejected(self, bad):
        # Before any render, and without a numpy warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGeometry, match="sweep offsets"):
                defocus_sweep(build_preset("defocus_flat"), offsets=(0.0, bad),
                              rays_per_pixel=1)
