import math
import re
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim import elements
from tmdsim.elements import HalfMirror, Screen, ThinLens, TmdPlate
from tmdsim.errors import InvalidGeometry, ParseError, ValidationError
from tmdsim.presets import (PRESET_BUILDERS, ame_lens_focal_length,
                            build_preset)
from tmdsim.scene import (ELEMENT_KEYS, EYE_KEYS, EyeCamera, HMD_PRESETS,
                          MAX_IMAGE_SIDE, MAX_SENSOR_PIXELS, REQUIRED, Scene,
                          camera_pose, make_pattern, parse_scene,
                          serialize_scene)

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


def _element(scene, ident):
    (found,) = [e for e in scene.elements if e.ident == ident]
    return found


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

    @pytest.mark.parametrize("spec", ["checker 8 9", "uniform 0.5 junk", "hgrad 7",
                                      "vstep 1", "spot x"])
    def test_words_past_the_pattern_are_refused(self, spec):
        with pytest.raises(ValueError, match="takes at most"):
            make_pattern(spec, 32)
        with pytest.raises(ParseError) as err:
            parse_scene(MINIMAL.replace("image = checker 8", f"image = {spec}"))
        assert err.value.line == 11


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

    def test_sensor_pixel_limit(self):
        pose = camera_pose((0.0, 0.0, 10.0), (0.0, 0.0, -1.0))
        side = math.isqrt(MAX_SENSOR_PIXELS)
        assert EyeCamera("e", pose, sensor=(side, side, 0.2)).sensor[:2] == (side, side)
        for w, h in ((side + 1, side), (1e8, 1e8), (10**12, 1)):
            with pytest.raises(InvalidGeometry,
                               match=f"at most {MAX_SENSOR_PIXELS} pixels"):
                EyeCamera("e", pose, sensor=(w, h, 0.2))


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
        assert _element(scene, "panel").extent == (40.0, 40.0)

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

    @pytest.mark.parametrize("header,block", [
        ("element eye cam {", "eye cam {"),
        ("element background world {", "background world {")])
    def test_eye_and_background_are_not_element_kinds(self, header, block):
        bg = ("background world {\n  position = 0 0 -500\n  normal = 0 0 1\n"
              "  extent = 4000 4000\n  image = uniform 0.25\n}\n")
        text = (MINIMAL + bg).replace(block, header)
        with pytest.raises(ParseError, match="unknown element kind") as err:
            parse_scene(text)
        assert err.value.line == text.splitlines().index(header) + 1
        assert parse_scene(MINIMAL + bg).background.ident == "world"

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
        panel = _element(scene, "panel")
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
        assert _element(parse_scene(text), "panel").image.shape == shape

    @pytest.mark.parametrize("pattern", ["uniform 0.5", "hgrad", "spot", "checker 8"])
    @pytest.mark.parametrize("res", ["0", "-3"])
    def test_image_res_below_one_is_a_parse_error(self, pattern, res):
        text = MINIMAL.replace("image = checker 8",
                               f"image = {pattern}\n  image_res = {res}")
        with pytest.raises(ParseError, match="image_res must be at least 1") as err:
            parse_scene(text)
        assert err.value.line == 12

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
        plate = _element(scene, "plate")
        assert isinstance(plate, TmdPlate)
        assert plate.pitch == 0.5 and plate.polarizer
        assert plate.mode_weights == (0.6, 0.3, 0.1)
        hm = _element(scene, "hm")
        assert isinstance(hm, HalfMirror) and hm.reflectance == 0.4
        lens = _element(scene, "eyepiece")
        assert isinstance(lens, ThinLens)
        assert lens.housing_extent == (60.0, 60.0)
        assert _element(scene, "cm").curvature_radius == pytest.approx(1200.0)


class TestPoseHintScale:
    """A finite hint whose squared length over- or underflows is taken at
    unit scale, without a numpy warning."""

    @pytest.mark.parametrize("key,unit,scaled", [
        ("normal", "1 2 3", "1e300 2e300 3e300"),
        ("normal", "1 2 3", "1e-200 2e-200 3e-200"),
        ("normal", "0 0 1", "0 0 1e300"),
        ("normal", "0 0 1", "0 0 5e-324"),
        ("normal", "-1 0.5 2", "-0.85e308 0.425e308 1.7e308"),
        ("up", "0 1 0", "0 1e300 0"),
        ("up", "0 1 0", "0 1e-200 0"),
        ("up", "1 1 0", "1.5e308 1.5e308 0"),
    ])
    def test_scaled_element_hint_parses_like_the_unit_one(self, key, unit, scaled):
        def panel_rotation(value):
            lines = {"normal": f"normal = {value}", "up": f"normal = 1 2 3\n  up = {value}"}
            text = MINIMAL.replace("normal = 0 0 1", lines[key])
            return _element(parse_scene(text), "panel").pose.rotation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = panel_rotation(scaled)
        assert np.abs(got - panel_rotation(unit)).max() <= 1e-15

    @pytest.mark.parametrize("look,up", [("0 0 -1e300", "0 1 0"),
                                         ("0 0 -1e-200", "0 1 0"),
                                         ("1e300 0 -1e300", "0 1e300 0")])
    def test_scaled_eye_hints_parse_like_the_unit_ones(self, look, up):
        def eye_rotation(look, up):
            text = MINIMAL.replace("look = 0 0 -1", f"look = {look}\n  up = {up}")
            return parse_scene(text).eye.pose.rotation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eye_rotation(look, up)
        unit = tuple(" ".join("0" if float(t) == 0 else str(np.sign(float(t)))
                              for t in hint.split()) for hint in (look, up))
        assert np.abs(got - eye_rotation(*unit)).max() <= 1e-15

    # The parallel bound is relative, |up x normal| < 1e-9 |up|: a short
    # hint counts as parallel only when its direction is.
    @pytest.mark.parametrize("line", ["normal = 0 0 0", "normal = 0 0 1\n  up = 0 0 1e-300",
                                      "normal = 0 0 1\n  up = 0 0 0",
                                      "normal = 0 0 1\n  up = 1e-210 0 1e-200",
                                      "normal = 1 0 0\n  up = 1e300 1e-12 0"])
    def test_zero_parallel_or_tiny_up_hints_stay_refused(self, line):
        with pytest.raises(ParseError, match="bad orientation"):
            parse_scene(MINIMAL.replace("normal = 0 0 1", line))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESET_BUILDERS))
    def test_presets_round_trip(self, name):
        scene = build_preset(name)
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert serialize_scene(again) == text
        # Every screen saves its named pattern, not its samples.
        screens = [s for s in scene.surfaces if isinstance(s, Screen)]
        assert screens and text.count("image = ") == len(screens)
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

    @pytest.mark.parametrize("brightness", ["0.3", "3"])
    def test_brightness_survives_a_save(self, brightness):
        text = (MINIMAL.replace("image = checker 8",
                                f"image = checker 4\n  brightness = {brightness}")
                + "background world {\n  extent = 4000 4000\n"
                f"  image = uniform 0.25\n  brightness = {brightness}\n}}\n")
        scene = parse_scene(text)
        assert scene.background.image.max() == 0.25 * float(brightness)
        saved = serialize_scene(scene)
        again = parse_scene(saved)
        assert "image_data" in saved and "brightness" not in saved
        for a, b in ((scene.elements[0], again.elements[0]),
                     (scene.background, again.background)):
            assert np.array_equal(a.image, b.image)
        assert serialize_scene(again) == saved


    @pytest.mark.parametrize("side", [64, 4])
    def test_a_replaced_screen_image_reloads(self, side):
        # The new image is no longer the preset's `checker 8`, so it is
        # saved as data; at side 4 the pattern would not even build.
        scene = build_preset("defocus_flat")
        plate, screen = scene.elements
        screen = replace(screen, image=np.zeros((side, side)))
        again = _element(parse_scene(serialize_scene(
            replace(scene, elements=(plate, screen)))), "panel")
        assert again.image.tobytes() == screen.image.tobytes()
        assert screen.image_spec is again.image_spec is None

    def test_a_screen_keeps_the_spec_its_image_is(self):
        scene = build_preset("defocus_flat")
        screen = replace(scene.elements[1], image=make_pattern("checker 8", 16))
        assert screen.image_spec == "checker 8"
        for spec in ("checker 9", "uniform -1", "warp"):
            assert replace(screen, image_spec=spec).image_spec is None
        assert replace(screen, image=np.zeros((16, 8))).image_spec is None

    @pytest.mark.parametrize("ident", ["my mirror", "comb#1", "a\nb", "tab\t", 5])
    def test_an_identifier_that_would_not_reload_is_refused(self, ident):
        scene = parse_scene(MINIMAL)
        panel = replace(scene.elements[0], ident=ident)
        with pytest.raises(ValidationError, match=re.escape(repr(ident))):
            replace(scene, elements=(panel,))
        with pytest.raises(ValidationError):
            replace(scene, eye=replace(scene.eye, ident=ident))

    @pytest.mark.parametrize("name", ["a#b", "a\nb", " lead", "trail ", "", "x {", None])
    def test_a_name_that_would_not_reload_is_refused(self, name):
        with pytest.raises(ValidationError, match="scene name"):
            replace(parse_scene(MINIMAL), name=name)

    @pytest.mark.parametrize("name", ["two words", "x{y", "tab\tinside"])
    def test_a_name_that_reloads_is_kept(self, name):
        scene = replace(parse_scene(MINIMAL), name=name)
        assert parse_scene(serialize_scene(scene)).name == name


# Each block kind's constructor and the keys that fill its fields.
TABLES = {**ELEMENT_KEYS, "eye": (EyeCamera, EYE_KEYS)}


class TestFormatTable:
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_table_names_every_field(self, kind):
        cls, entries = TABLES[kind]
        named = [field for _, field, *_ in entries] + ["ident", "pose"]
        assert sorted(named) == sorted(f.name for f in fields(cls))

    def test_screen_block_names_every_field(self):
        # extent, flip and the image keys (image, image_res, image_data,
        # brightness) are read and written by hand.
        assert sorted(f.name for f in fields(Screen)) == [
            "extent", "flip_uv", "ident", "image", "image_spec", "pose"]

    def test_every_element_class_has_a_kind(self):
        classes = {cls for cls in vars(elements).values() if is_dataclass(cls)
                   and "ident" in {f.name for f in fields(cls)}}
        assert classes == {cls for cls, _ in ELEMENT_KEYS.values()} | {Screen}


NUMBER = st.floats(0.5, 500.0)
# Values the constructors accept, by field; any other field takes NUMBER
# for each of its numbers, or a boolean.
VALUES = {
    "reflectance": st.floats(0.01, 0.99),
    "mode_weights": st.tuples(*[st.floats(0.0, 0.33)] * 3),
    "aperture_diameter": st.floats(0.5, 50.0),
    "housing_extent": st.just((0.0, 0.0)) | st.tuples(*[st.floats(50.0, 500.0)] * 2),
    "sensor": st.tuples(st.integers(1, 64), st.integers(1, 64), st.floats(0.01, 1.0)),
}
KINDS = sorted(ELEMENT_KEYS) + ["screen"]
PATTERNS = ["checker 4", "checker 1", "uniform", "uniform 0.3", "hgrad", "vstep",
            "spot"]


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(_text, value))
    return repr(value)


@st.composite
def _pose_lines(draw, facing="normal"):
    """A position and hints that are neither unit nor orthogonal, and never
    near parallel."""
    i, j, _ = draw(st.permutations(range(3)))
    jitter = st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)
    normal, up = draw(jitter), draw(jitter)
    normal[i] += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 3.0))
    up[j] += draw(st.floats(0.5, 3.0))
    position = draw(st.tuples(*[st.floats(-1000.0, 1000.0)] * 3))
    return [f"position = {_text(position)}", f"{facing} = {_text(tuple(normal))}",
            f"up = {_text(tuple(up))}"]


@st.composite
def _table_lines(draw, entries):
    lines = []
    for key, field, arity, default, *_ in entries:
        if default is not REQUIRED and draw(st.booleans()):
            continue  # absent: the default applies
        values = VALUES.get(field, st.booleans() if arity is bool
                            else st.tuples(*[NUMBER] * arity))
        lines.append(f"{key} = {_text(draw(values))}")
    return lines


@st.composite
def _screen_lines(draw):
    lines = [f"extent = {_text(draw(st.tuples(NUMBER, NUMBER)))}"]
    if draw(st.booleans()):
        lines.append(f"flip = {_text(draw(st.tuples(st.booleans(), st.booleans())))}")
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        data = draw(st.tuples(*[st.floats(0.0, 100.0)] * (rows * cols)))
        lines.append(f"image_data = {rows} {cols} {_text(data)}")
    else:
        lines.append(f"image = {draw(st.sampled_from(PATTERNS))}")
        lines.append(f"image_res = {draw(st.integers(4, 16))}")
    if draw(st.booleans()):
        lines.append(f"brightness = {_text(draw(st.floats(0.0, 10.0)))}")
    return lines


def _block(header, lines) -> str:
    return header + " {\n" + "".join(f"  {line}\n" for line in lines) + "}\n"


@st.composite
def scene_texts(draw):
    """A scene file with every element kind, perhaps a background, and the
    keys of each block drawn from the format tables."""
    kinds = draw(st.permutations(KINDS)) + draw(st.lists(st.sampled_from(KINDS),
                                                         max_size=3))
    blocks = [_block("eye eye", draw(_pose_lines("look"))
                     + draw(_table_lines(EYE_KEYS)))]
    for n, kind in enumerate(kinds):
        lines = draw(_screen_lines() if kind == "screen"
                     else _table_lines(ELEMENT_KEYS[kind][1]))
        blocks.append(_block(f"element {kind} e{n}", draw(_pose_lines()) + lines))
    if draw(st.booleans()):
        blocks.append(_block("background world", draw(_pose_lines())
                             + draw(_screen_lines())))
    return "scene generated\n" + "".join(blocks)


def _assert_same(a, b):
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "pose":
            assert x.position.tobytes() == y.position.tobytes()
            assert np.max(np.abs(x.rotation - y.rotation)) <= 1e-15
        elif isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert repr(x) == repr(y)


@st.composite
def replaced_images(draw):
    """A new image for a screen: a drawn grid, or a named pattern at a
    drawn side, which the screen's own spec may or may not rebuild."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        values = draw(st.lists(st.floats(0.0, 100.0), min_size=rows * cols,
                               max_size=rows * cols))
        return np.reshape(values, (rows, cols))
    return make_pattern(draw(st.sampled_from(PATTERNS)), draw(st.integers(4, 16)))


@st.composite
def scenes(draw):
    """A parsed `scene_texts` scene, some of whose screens were given a new
    image with dataclasses.replace."""
    scene = parse_scene(draw(scene_texts()))

    def redrawn(e):
        if isinstance(e, Screen) and draw(st.booleans()):
            return replace(e, image=draw(replaced_images()))
        return e
    return replace(scene, elements=tuple(map(redrawn, scene.elements)),
                   background=redrawn(scene.background))


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(scenes())
    def test_saved_scene_reloads_the_same(self, scene):
        """Saving a scene and parsing it again gives every field but the
        pose, and every position, bit for bit, and every rotation to 1e-15.
        A pose is saved as its own axes, not as the hints it was built
        from, and the frame rebuilt from them can move by an ulp; saving
        rotations that reload exactly is left open (ROADMAP, scene files as
        a checked boundary)."""
        again = parse_scene(serialize_scene(scene))
        assert again.name == scene.name
        assert len(again.elements) == len(scene.elements)
        for a, b in zip(scene.elements, again.elements):
            _assert_same(a, b)
        _assert_same(scene.eye, again.eye)
        assert (scene.background is None) == (again.background is None)
        if scene.background is not None:
            _assert_same(scene.background, again.background)


# Tokens that stand in for one value of a saved preset.
POOL = ("nan", "inf", "-1", "0", "1e308", "99999999", "true", "x")
PRESET_TEXTS = {name: serialize_scene(build_preset(name)) for name in PRESET_BUILDERS}
# A preset parses in under 0.3 MiB of traced memory; one screen image at its
# side limit would take 128 MiB.
PARSE_BUDGET = 16 * 2 ** 20


# Every key some block takes (the pose's, the eye's `look` and the screen
# block's included), and every block header kind.
KEY_POOL = sorted({key for _, entries in ELEMENT_KEYS.values()
                   for key, *_ in entries}
                  | {key for key, *_ in EYE_KEYS}
                  | {"position", "normal", "up", "look", "extent", "flip",
                     "image", "image_res", "image_data", "brightness"})
HEADER_POOL = (*(f"element {kind}" for kind in (*ELEMENT_KEYS, "screen")),
               "eye", "background")


@st.composite
def mutated_texts(draw):
    """A saved preset with one line dropped or repeated, one value token
    replaced by a token of POOL, one key replaced by a key of KEY_POOL, or
    one block header's kind replaced by a kind of HEADER_POOL."""
    text = PRESET_TEXTS[draw(st.sampled_from(sorted(PRESET_TEXTS)))]
    lines = text.splitlines(keepends=True)
    how = draw(st.sampled_from(("drop", "repeat", "replace", "rekey",
                                "rehead")))
    if how == "drop":
        i = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:i] + lines[i + 1:])
    if how == "repeat":
        i = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:i + 1] + lines[i:])
    if how == "rehead":
        i = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.endswith("{\n")]))
        ident = lines[i].split()[-2]
        line = f"{draw(st.sampled_from(HEADER_POOL))} {ident} {{\n"
        return "".join(lines[:i] + [line] + lines[i + 1:])
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if "=" in line]))
    key, value = lines[i].split("=", 1)
    if how == "rekey":
        line = f"  {draw(st.sampled_from(KEY_POOL))} ={value}"
        return "".join(lines[:i] + [line] + lines[i + 1:])
    tokens = value.split()
    tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(POOL))
    return "".join(lines[:i] + [f"{key}= {' '.join(tokens)}\n"] + lines[i + 1:])


class TestMutatedTextProperty:
    @settings(max_examples=400, deadline=None)
    @given(mutated_texts())
    def test_one_mutation_gives_a_scene_or_a_documented_error(self, text):
        """A mutated preset parses to a scene inside the count limits, or
        raises ParseError or ValidationError, and the parse never allocates
        past PARSE_BUDGET."""
        tracemalloc.start()
        try:
            scene = parse_scene(text)
        except (ParseError, ValidationError):
            scene = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < PARSE_BUDGET
        if scene is not None:
            for screen in scene.surfaces:
                if isinstance(screen, Screen):
                    assert max(screen.image.shape) <= MAX_IMAGE_SIDE
            w, h, _ = scene.eye.sensor
            assert w * h <= MAX_SENSOR_PIXELS


class TestAmeFocal:
    def test_matches_device_fov(self):
        f = ame_lens_focal_length(HMD_PRESETS["dk2"], 60.0)
        # lens focal length chosen so the screen width spans the device FOV
        assert 2 * math.degrees(math.atan(30.0 / f)) == pytest.approx(110.0)
