import math

import numpy as np
import pytest

from tmdsim.elements import HalfMirror, Screen, ThinLens, TmdPlate
from tmdsim.errors import ParseError, ValidationError
from tmdsim.presets import (PRESET_BUILDERS, ame_lens_focal_length,
                            build_preset)
from tmdsim.scene import (EyeCamera, HMD_PRESETS, MAX_IMAGE_SIDE,
                          MAX_SENSOR_PIXELS, Scene, camera_pose, make_pattern,
                          parse_scene, serialize_scene)

MINIMAL = """
scene demo
eye cam {
  position = 0 0 60
  look = 0 0 -1
}
element screen panel {
  position = 0 0 -60
  normal = 0 0 1
  extent = 40 40
  image = checker 8
}
"""


class TestPatterns:
    def test_checker_blocks(self):
        img = make_pattern("checker 8", 64)
        assert img.shape == (64, 64)
        # 8x8 pixel cells alternating, corner cell uniform
        assert np.all(img[:8, :8] == img[0, 0])
        assert img[0, 0] != img[0, 8]
        assert img[0, 8] == img[8, 0]
        assert set(np.unique(img)) == {0.0, 1.0}

    def test_uniform(self):
        img = make_pattern("uniform 0.3", 16)
        assert img.shape == (16, 16)
        assert np.all(img == 0.3)

    def test_hgrad_monotone(self):
        img = make_pattern("hgrad", 32)
        assert img[0, 0] == 0.0 and img[0, -1] == 1.0
        assert np.all(np.diff(img[5]) >= 0)
        assert np.array_equal(img[0], img[-1])

    def test_vstep_top_bright(self):
        img = make_pattern("vstep", 10)
        assert np.all(img[:5] == 1.0) and np.all(img[5:] == 0.0)

    def test_spot_centre(self):
        img = make_pattern("spot", 16)
        assert img[8, 8] == 1.0 and img[0, 0] == 0.0

    def test_bad_specs(self):
        for spec in ("", "nosuch", "checker 0", "checker 99", "uniform -1"):
            with pytest.raises(ValueError):
                make_pattern(spec, 32)


class TestHmdPresets:
    def test_catalogue(self):
        assert set(HMD_PRESETS) == {"cardboard", "dk2"}
        cb = HMD_PRESETS["cardboard"]
        assert cb.fov_deg == 90.0
        assert cb.resolution == (1280, 800)
        assert cb.per_eye_resolution == (640, 800)
        dk = HMD_PRESETS["dk2"]
        assert dk.fov_deg == 110.0
        assert dk.resolution == (1920, 1080)
        assert dk.per_eye_resolution == (960, 1080)


class TestCameraPose:
    def test_looks_against_normal(self):
        pose = camera_pose((0.0, 0.0, 10.0), (0.0, 0.0, -1.0))
        assert np.allclose(pose.normal, [0, 0, 1.0])
        eye = EyeCamera("e", pose)
        assert np.allclose(eye.look, [0, 0, -1.0])


class TestParse:
    def test_minimal(self):
        scene = parse_scene(MINIMAL)
        assert scene.name == "demo"
        assert scene.eye.ident == "cam"
        assert np.allclose(scene.eye.pose.position, [0, 0, 60.0])
        (panel,) = scene.elements
        assert isinstance(panel, Screen)
        assert panel.extent == (40.0, 40.0)
        assert panel.image_spec == "checker 8"
        assert scene.background is None

    def test_comments_and_blank_lines(self):
        text = MINIMAL.replace("extent = 40 40", "extent = 40 40  # mm\n\n")
        scene = parse_scene(text)
        assert scene.element("panel").extent == (40.0, 40.0)

    def test_defaults_applied(self):
        scene = parse_scene(MINIMAL)
        assert scene.eye.focal_length == 100.0
        assert scene.eye.aperture_diameter == 4.0
        assert scene.eye.sensor == (256, 256, 0.5)

    @pytest.mark.parametrize("mutation, lineno", [
        ("element screen panel {", 7),   # duplicated header -> nested block
        ("extent = 40", 10),             # wrong arity
        ("extent == 40 40", 10),         # not key = value
        ("pitch = 40 40", 10),           # unknown key for screen
    ])
    def test_errors_carry_line_numbers(self, mutation, lineno):
        lines = MINIMAL.strip().splitlines()
        lines[lineno - 1] = mutation
        with pytest.raises(ParseError) as err:
            parse_scene("\n".join(lines))
        assert err.value.line == lineno

    def test_unmatched_close(self):
        with pytest.raises(ParseError) as err:
            parse_scene("}\n")
        assert err.value.line == 1

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_scene("eye cam {\n  position = 0 0 0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_scene("widget foo {\n}\n")
        assert "header" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_scene(MINIMAL.replace("element screen panel",
                                        "element prism panel"))

    def test_duplicate_key(self):
        bad = MINIMAL.replace("extent = 40 40",
                              "extent = 40 40\n  extent = 1 1")
        with pytest.raises(ParseError) as err:
            parse_scene(bad)
        assert "duplicate" in str(err.value)

    def test_not_a_number(self):
        with pytest.raises(ParseError):
            parse_scene(MINIMAL.replace("extent = 40 40", "extent = wide 40"))

    def test_needs_exactly_one_eye(self):
        with pytest.raises(ValidationError):
            parse_scene(MINIMAL.replace("eye cam {", "element absorber cam {")
                        .replace("look = 0 0 -1", "extent = 1 1"))
        two = MINIMAL + "\neye spare {\n  position = 0 0 99\n}\n"
        with pytest.raises(ValidationError):
            parse_scene(two)

    def test_single_background(self):
        bg = ("background world {\n  position = 0 0 -500\n  normal = 0 0 1\n"
              "  extent = 4000 4000\n  image = uniform 0.25\n}\n")
        scene = parse_scene(MINIMAL + bg)
        assert scene.background is not None
        assert scene.background.ident == "world"
        with pytest.raises(ValidationError):
            parse_scene(MINIMAL + bg + bg.replace("world", "world2"))

    def test_duplicate_idents_rejected(self):
        dup = MINIMAL + """
element tmd panel {
  position = 0 0 0
  normal = 0 0 1
  extent = 10 10
}
"""
        with pytest.raises(ValidationError):
            parse_scene(dup)

    def test_invalid_geometry_becomes_validation_error(self):
        with pytest.raises(ValidationError):
            parse_scene(MINIMAL.replace("extent = 40 40", "extent = -40 40"))

    def test_parse_error_str_has_line(self):
        err = ParseError(7, "boom")
        assert str(err) == "line 7: boom"

    def test_image_data_literal(self):
        text = MINIMAL.replace("image = checker 8",
                               "image_data = 2 2 0 1 1 0")
        scene = parse_scene(text)
        panel = scene.element("panel")
        assert np.array_equal(panel.image, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("line", ["image_res = 16.9", "image_res = nan",
                                      "image_data = 2.5 2 0 1 1 0",
                                      "image_data = 2 1.5 0 1 1"])
    def test_fractional_image_counts_are_parse_errors(self, line):
        text = MINIMAL.replace("image = checker 8", f"image = checker 8\n  {line}")
        with pytest.raises(ParseError, match="whole count") as err:
            parse_scene(text)
        assert err.value.line == 12  # the count's own line

    @pytest.mark.parametrize("line,shape", [("image_res = 16.0", (16, 16)),
                                            ("image_data = 2.0 2 0 1 1 0", (2, 2))])
    def test_whole_float_image_counts_are_accepted(self, line, shape):
        text = MINIMAL.replace("image = checker 8", f"image = checker 8\n  {line}")
        assert parse_scene(text).element("panel").image.shape == shape

    @pytest.mark.parametrize("line", [f"image_res = {MAX_IMAGE_SIDE + 1}",
                                      f"image_data = {MAX_IMAGE_SIDE + 1} 1 0",
                                      f"image_data = 1 {MAX_IMAGE_SIDE + 1} 0",
                                      "image_res = 999999999999"])
    def test_oversized_images_are_parse_errors(self, line):
        # Refused before any grid is allocated.
        text = MINIMAL.replace("image = checker 8", f"image = checker 8\n  {line}")
        with pytest.raises(ParseError, match=f"at most {MAX_IMAGE_SIDE}") as err:
            parse_scene(text)
        assert err.value.line == 12

    def test_sensor_pixel_limit(self):
        side = math.isqrt(MAX_SENSOR_PIXELS)
        assert side * side == MAX_SENSOR_PIXELS
        for sensor, ok in (((side, side), True), ((side + 1, side), False),
                           ((1, MAX_SENSOR_PIXELS), True),
                           ((99999999, 99999999), False)):
            text = MINIMAL.replace("look = 0 0 -1", "look = 0 0 -1\n  sensor = "
                                   f"{sensor[0]} {sensor[1]} 0.2")
            if ok:
                assert parse_scene(text).eye.sensor[:2] == sensor
            else:
                with pytest.raises(ParseError, match="at most") as err:
                    parse_scene(text)
                assert err.value.line == 6

    def test_all_element_kinds(self):
        text = MINIMAL + """
element tmd plate {
  position = 0 0 0
  normal = 0 0 1
  extent = 100 100
  pitch = 0.5
  weights = 0.6 0.3 0.1
  polarizer = true
}
element half_mirror hm {
  position = 0 0 20
  normal = 0 0 1
  extent = 50 50
  reflectance = 0.4
}
element convex_mirror cm {
  position = 0 0 -200
  normal = 0 0 1
  extent = 80 80
  a_mag = 1.5
  eye_distance = 200
}
element lens eyepiece {
  position = 0 0 -40
  normal = 0 0 1
  focal_length = 45
  aperture = 50
  housing = 60 60
}
element absorber stop {
  position = 0 0 -90
  normal = 0 0 1
  extent = 10 10
}
"""
        scene = parse_scene(text)
        plate = scene.element("plate")
        assert isinstance(plate, TmdPlate)
        assert plate.pitch == 0.5 and plate.polarizer
        assert plate.mode_weights == (0.6, 0.3, 0.1)
        hm = scene.element("hm")
        assert isinstance(hm, HalfMirror) and hm.reflectance == 0.4
        lens = scene.element("eyepiece")
        assert isinstance(lens, ThinLens)
        assert lens.housing_extent == (60.0, 60.0)
        assert scene.element("cm").curvature_radius == pytest.approx(1200.0)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESET_BUILDERS))
    def test_presets_round_trip(self, name):
        scene = build_preset(name)
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert serialize_scene(again) == text
        assert again.name == scene.name
        assert [e.ident for e in again.elements] == [e.ident for e in scene.elements]
        for a, b in zip(again.elements, scene.elements):
            assert type(a) is type(b)
            assert np.allclose(a.pose.position, b.pose.position, atol=1e-12)
            assert np.allclose(a.pose.rotation, b.pose.rotation, atol=1e-12)
        assert np.allclose(again.eye.pose.position, scene.eye.pose.position)
        assert again.eye.sensor == scene.eye.sensor

    def test_awkward_floats_survive(self):
        scene = parse_scene(MINIMAL.replace("position = 0 0 60",
                                            "position = 0.1 0.30000000000000004 59.999999999"))
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert np.allclose(again.eye.pose.position, scene.eye.pose.position,
                           atol=1e-12, rtol=0)


class TestAmeFocal:
    def test_matches_device_fov(self):
        f = ame_lens_focal_length(HMD_PRESETS["dk2"], 60.0)
        # lens focal length chosen so the screen width spans the device FOV
        assert 2 * math.degrees(math.atan(30.0 / f)) == pytest.approx(110.0)
