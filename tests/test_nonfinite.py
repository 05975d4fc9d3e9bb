"""Non-finite numbers are rejected at the boundary.

A nan or inf in any number of a pose, an element or the eye raises
InvalidGeometry from the constructor, and a scene file carrying one makes
the CLI exit with code 3 before anything is traced or rendered.  A
non-finite number on the command line (`trace --source`, `--axis` or
`--spot-plane`, a `design` length, a `sweep` offset) is a usage error
(code 2); only `design --l2 inf`, the unbounded eyepiece, is accepted.
A sensor's width and height in pixels must also be whole numbers (256.0
is one): a fractional count is invalid geometry, not truncated.  Called
directly, the tracer refuses a non-finite source point or ray origin, and
the focus fit a bundle whose normal equations are not finite.  Finite
element numbers whose arithmetic overflows (a plate pitch or a lens focal
length near zero, a curved cap with an infinite radius) are invalid
geometry too, in a constructor and in a scene file alike.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim.cli import main
from tmdsim.elements import (Absorber, ConvexMirror, HalfMirror, Screen,
                             ThinLens, TmdPlate)
from tmdsim.errors import DegenerateBundle, InvalidGeometry
from tmdsim.geometry import Pose, Ray, RayRows, closest_point_to_rays, vec3
from tmdsim.presets import build_preset
from tmdsim.scene import EyeCamera, serialize_scene
from tmdsim.tracer import Cone, cone_directions, trace_bundle

BAD = st.sampled_from([math.nan, math.inf, -math.inf])


def _pose(position=(1.0, 2.0, 3.0), rotation=None):
    return Pose(position, np.eye(3) if rotation is None else rotation)


# constructor -> keyword arguments of a valid instance
VALID = {
    Pose: dict(position=(1.0, 2.0, 3.0), rotation=np.eye(3)),
    ThinLens: dict(ident="lens", pose=_pose(), focal_length=35.0,
                   aperture_diameter=16.0, housing_extent=(30.0, 30.0)),
    HalfMirror: dict(ident="hm", pose=_pose(), extent=(80.0, 60.0),
                     reflectance=0.4),
    ConvexMirror: dict(ident="cap", pose=_pose(), a_mag=1.5, extent=(40.0, 40.0),
                       eye_distance=50.0),
    TmdPlate: dict(ident="plate", pose=_pose(), extent=(120.0, 100.0), pitch=0.5,
                   mirror_ratio=3.0, mode_weights=(0.6, 0.3, 0.1)),
    Screen: dict(ident="panel", pose=_pose(), extent=(40.0, 30.0),
                 image=np.full((4, 5), 0.5)),
    Absorber: dict(ident="stop", pose=_pose(), extent=(6.0, 6.0)),
    EyeCamera: dict(ident="eye", pose=_pose(), focal_length=100.0,
                    aperture_diameter=4.0, sensor=(64, 48, 0.5)),
}
# (constructor, numeric field) pairs; each field is a number or an array
FIELDS = [(cls, name) for cls, kw in VALID.items() for name, value in kw.items()
          if name not in ("ident", "pose")]


def _poked(value, flat_index, bad):
    """`value` with one of its numbers replaced by `bad`, in its own shape."""
    if np.ndim(value) == 0:
        return bad
    arr = np.array(value, dtype=np.float64)
    arr.flat[flat_index % arr.size] = bad
    return arr if isinstance(value, np.ndarray) else tuple(arr.tolist())


def test_valid_instances_build():
    for cls, kw in VALID.items():
        cls(**kw)


@given(st.sampled_from(FIELDS), st.integers(0, 19), BAD)
@settings(max_examples=150, deadline=None)
def test_non_finite_field_raises_invalid_geometry(field, flat_index, bad):
    cls, name = field
    kw = dict(VALID[cls])
    kw[name] = _poked(kw[name], flat_index, bad)
    with pytest.raises(InvalidGeometry, match="finite"):
        cls(**kw)


@given(st.sampled_from([cls for cls in VALID if cls is not Pose]),
       st.sampled_from(["position", "rotation"]), st.integers(0, 8), BAD)
@settings(max_examples=60, deadline=None)
def test_element_on_a_non_finite_pose_cannot_be_built(cls, field, flat_index, bad):
    kw = dict(VALID[Pose])
    kw[field] = _poked(kw[field], flat_index, bad)
    with pytest.raises(InvalidGeometry, match="finite"):
        cls(**dict(VALID[cls], pose=Pose(**kw)))


SCENE = """
scene every_kind
eye cam {
  aperture = 4.0
  focal_length = 100.0
  look = 0 0 -1
  position = 0 0 60
  sensor = 8 6 0.5
  up = 0 1 0
}
element tmd plate {
  extent = 200 200
  mirror_ratio = 3.0
  normal = 0 0 1
  pitch = 0.5
  position = 0 0 0
  up = 0 1 0
  weights = 0.6 0.3 0.1
}
element lens eyepiece {
  aperture = 16.0
  focal_length = 35.0
  housing = 30 30
  normal = 0 0 1
  position = 0 0 -30
}
element half_mirror splitter {
  extent = 80 80
  normal = 0 0.6 0.8
  position = 0 0 -80
  reflectance = 0.4
}
element convex_mirror cap {
  a_mag = 1.5
  eye_distance = 50.0
  extent = 40 40
  normal = 0 0 1
  position = 0 30 -120
}
element absorber stop {
  extent = 6 6
  normal = 0 0 1
  position = 0 0 20
}
element screen panel {
  brightness = 0.8
  extent = 40 40
  image_data = 2 2 0.1 0.2 0.3 0.4
  normal = 0 0 1
  position = 0 0 -60
}
background world {
  extent = 900 900
  image = uniform 0.2
  normal = 0 0 1
  position = 0 0 -400
}
"""


def _numeric_tokens():
    """(line index, token index) of every number in SCENE that is a
    geometric or radiometric quantity (image_data's grid size is a count)."""
    spots = []
    for i, line in enumerate(SCENE.splitlines()):
        if " = " not in line:
            continue
        key, value = (part.strip() for part in line.split(" = ", 1))
        tokens = value.split()
        first = 2 if key == "image_data" else 0
        for j, tok in enumerate(tokens[first:], start=first):
            try:
                float(tok)
            except ValueError:
                break
            spots.append((i, j))
    return spots


SPOTS = _numeric_tokens()


def test_scene_renders_as_written(tmp_path, capsys):
    path = tmp_path / "ok.scene"
    path.write_text(SCENE)
    assert main(["render", str(path), "--out", str(tmp_path / "ok.ppm"),
                 "--rpp", "1"]) == 0


@given(st.sampled_from(SPOTS), st.sampled_from(["nan", "inf", "-inf"]))
@settings(max_examples=80, deadline=None)
def test_cli_exits_3_on_a_non_finite_scene_number(tmp_path_factory, spot, bad):
    line, tok = spot
    lines = SCENE.splitlines()
    key, value = lines[line].split(" = ", 1)
    tokens = value.split()
    tokens[tok] = bad
    lines[line] = f"{key} = {' '.join(tokens)}"
    folder = tmp_path_factory.mktemp("nonfinite")
    path = folder / "bad.scene"
    path.write_text("\n".join(lines) + "\n")
    assert main(["render", str(path), "--out", str(folder / "bad.ppm"),
                 "--rpp", "1"]) == 3
    assert not (folder / "bad.ppm").exists()


# (preset, element block, key, value): a finite number whose arithmetic
# overflows.  Each rendered a plausible image (the real image gone, or a
# black view) and exited 0.
OVERFLOWS = [
    ("tmd_see_through", "element tmd", "pitch", "1e-320"),
    ("ame_dk2", "element lens", "focal_length", "1e-320"),
    ("convex_mirror", "element convex_mirror", "eye_distance", "1e308"),
]
OVERFLOW_IDS = ["plate_pitch", "lens_focal_length", "cap_eye_distance"]


@pytest.mark.parametrize("cls,field,value", [
    (TmdPlate, "pitch", 1e-320),
    (ThinLens, "focal_length", 1e-320),
    (ThinLens, "focal_length", -1e-320),
    (ConvexMirror, "eye_distance", 1e308),
], ids=["plate_pitch", "lens_focal_length", "lens_negative_focal_length",
        "cap_eye_distance"])
def test_an_element_whose_arithmetic_overflows_is_invalid(cls, field, value):
    with pytest.raises(InvalidGeometry):
        cls(**dict(VALID[cls], **{field: value}))


def test_a_flat_cap_takes_any_finite_eye_distance():
    ConvexMirror(**dict(VALID[ConvexMirror], a_mag=1.0, eye_distance=1e308))


def _with_value(text, block, key, value):
    """`text` with `key` set to `value` in the first block opened by `block`."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(block))
    at = next(i for i in range(start, len(lines))
              if lines[i].strip().startswith(f"{key} = "))
    lines[at] = f"  {key} = {value}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("preset,block,key,value", OVERFLOWS, ids=OVERFLOW_IDS)
@pytest.mark.parametrize("argv", [["render", "--rpp", "1"],
                                  ["trace", "--source", "0,0,-60", "--rays", "8"]],
                         ids=["render", "trace"])
def test_cli_exits_3_on_a_scene_whose_arithmetic_overflows(
        tmp_path, capsys, preset, block, key, value, argv):
    path = tmp_path / "overflow.scene"
    path.write_text(_with_value(serialize_scene(build_preset(preset)), block,
                                key, value))
    out = tmp_path / "view.ppm"
    extra = ["--out", str(out)] if argv[0] == "render" else []
    assert main([argv[0], str(path), *argv[1:], *extra]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--source", "nan,20,21"),
                                        ("--source", "1,inf,21"),
                                        ("--axis", "0,-inf,0")])
def test_cli_rejects_a_non_finite_trace_vector(flag, value, capsys):
    argv = ["trace", "--preset", "half_mirror", "--source", "1,20,21",
            "--rays", "8", flag, value]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "finite" in capsys.readouterr().err


def _focus(origin, direction):
    # Two rays as rows, which closest_point_to_rays takes unchecked; the
    # first carries the given origin and direction.
    origins = np.array([origin, (0.0, 1.0, 0.0)])
    directions = np.array([direction, (0.0, 0.6, 0.8)])
    return lambda: closest_point_to_rays(
        RayRows(origins, directions, np.ones(2), ["primary"] * 2))


@pytest.mark.parametrize("call,error", [
    (lambda: trace_bundle(build_preset("half_mirror"), (math.nan, 20.0, 21.0),
                          8, Cone(vec3(0.0, 0.0, -1.0), 0.1)), InvalidGeometry),
    (lambda: Ray(vec3(math.nan, 0.0, 0.0), vec3(0.0, 0.0, 1.0)),
     InvalidGeometry),
    (lambda: Ray(vec3(0.0, 0.0, 0.0), vec3(0.0, math.nan, 1.0)),
     InvalidGeometry),
    (lambda: cone_directions(Cone(vec3(0.0, 0.0, math.inf), 0.1), 8),
     InvalidGeometry),
    (lambda: cone_directions(Cone(vec3(0.0, 0.0, 1.0), math.nan), 8),
     InvalidGeometry),
    (_focus((math.nan, 20.0, 21.0), (0.0, 0.0, 1.0)), DegenerateBundle),
    (_focus((1.0, 20.0, 21.0), (0.0, math.nan, 1.0)), DegenerateBundle),
], ids=["trace_bundle_source", "ray_origin", "ray_direction", "cone_axis",
        "cone_half_angle", "focus_origin", "focus_direction"])
def test_a_direct_call_refuses_a_non_finite_ray(call, error):
    # Each would otherwise give a plausible-looking result: a bundle of
    # escaped rays, or a NaN focus.
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda: Ray(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 0.0)),
    lambda: cone_directions(Cone(vec3(0.0, 0.0, 1.0), 4.0), 8),
], ids=["ray_zero_direction", "cone_wide_half_angle"])
def test_a_finite_but_unusable_ray_input_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


DESIGN_FLAGS = ["--l1", "--l2", "--l3", "--a", "--d", "--d2", "--d4", "--a-mag",
                "--pitch"]


@pytest.mark.parametrize("argv", [
    *(["design", f"{flag}={bad}"] for flag in DESIGN_FLAGS
      for bad in ("nan", "inf", "-inf") if (flag, bad) != ("--l2", "inf")),
    ["sweep", "--preset", "defocus_flat", "--rpp", "1", "--offsets", "0,nan"],
    ["sweep", "--preset", "defocus_flat", "--rpp", "1", "--offsets", "inf,0"],
    ["trace", "--preset", "half_mirror", "--source", "0,0,5", "--rays", "8",
     "--spot-plane", "nan"],
])
def test_cli_rejects_a_non_finite_number(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert "finite" in out.err
    assert out.out == ""


def test_design_takes_an_unbounded_eyepiece(capsys):
    assert main(["design", "--l2", "inf"]) == 0
    explicit = capsys.readouterr().out
    assert main(["design"]) == 0
    assert explicit == capsys.readouterr().out != ""


@pytest.mark.parametrize("sensor", [(3.7, 2, 0.5), (64, 48.5, 0.5), (0.5, 2, 0.5)])
def test_a_fractional_sensor_pixel_count_is_invalid(sensor):
    with pytest.raises(InvalidGeometry, match="whole pixel counts"):
        EyeCamera("eye", _pose(), sensor=sensor)


def test_a_whole_float_sensor_pixel_count_is_accepted():
    eye = EyeCamera("eye", _pose(), sensor=(256.0, np.float64(48.0), 0.5))
    assert eye.sensor == (256, 48, 0.5)


@pytest.mark.parametrize("sensor,code", [("10.9 12.5 0.5", 3), ("8.0 6 0.5", 0)])
def test_cli_renders_only_whole_sensor_pixel_counts(tmp_path, capsys, sensor, code):
    path = tmp_path / "sensor.scene"
    path.write_text(SCENE.replace("sensor = 8 6 0.5", f"sensor = {sensor}"))
    out = tmp_path / "view.ppm"
    assert main(["render", str(path), "--out", str(out), "--rpp", "1"]) == code
    assert out.exists() == (code == 0)
    if code:
        assert capsys.readouterr().err.startswith("error: ")
