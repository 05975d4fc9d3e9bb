import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmdsim
from tmdsim import cli, render, tracer
from tmdsim.cli import main
from tmdsim.scene import parse_scene

GOOD_SCENE = """
scene demo
eye cam {
  position = 0 0 60
}
element tmd plate {
  position = 0 0 0
  normal = 0 0 1
  extent = 200 200
  weights = 1 0 0
}
element screen panel {
  position = 0 0 -60
  normal = 0 0 1
  extent = 40 40
  image = checker 8
}
"""

ABSORBING_SCENE = """
eye cam {
  position = 0 0 60
}
element absorber wall {
  position = 0 0 0
  normal = 0 0 1
  extent = 5000 5000
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDesign:
    def test_dk2(self, capsys):
        code, out, _ = run(capsys, "design", "--hmd", "dk2")
        assert code == 0
        assert "ame_fov_deg,110.000000" in out
        assert "half_mirror_fov_deg,53.130102" in out
        assert "ame_limiting_factor,device_fov" in out

    def test_cardboard(self, capsys):
        code, out, _ = run(capsys, "design", "--hmd", "cardboard")
        assert code == 0
        assert "ame_fov_deg,90.000000" in out
        assert "effective_px,640" in out

    def test_window_limited_layout(self, capsys):
        code, out, _ = run(capsys, "design", "--hmd", "dk2", "--l3", "80")
        assert code == 0
        assert "ame_limiting_factor,tmd_window" in out

    def test_pitch_column(self, capsys):
        code, out, _ = run(capsys, "design", "--pitch", "0.5")
        assert code == 0
        assert "effective_px,228.503681" in out

    def test_unknown_hmd_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["design", "--hmd", "visionpro"])
        assert err.value.code == 2

    def test_negative_length(self, capsys):
        code, out, err = run(capsys, "design", "--l1", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "positive" in err

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run(capsys, "design", "--csv", str(path))
        assert code == 0
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("architecture,")
        assert len(rows) == 4


class TestSceneLoading:
    def test_scene_and_preset_conflict(self, tmp_path, capsys):
        f = tmp_path / "s.scene"
        f.write_text(GOOD_SCENE)
        with pytest.raises(SystemExit) as err:
            main(["trace", str(f), "--preset", "half_mirror",
                  "--source", "0,0,-60"])
        assert err.value.code == 2

    def test_neither_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--source", "0,0,-60"])
        assert err.value.code == 2

    def test_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--preset", "warp", "--source", "0,0,-60"])
        assert err.value.code == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "broken.scene"
        f.write_text("bogus {\n}\n")
        code, _, err = run(capsys, "trace", str(f), "--source", "0,0,-60")
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("header", ["element eye cam {",
                                        "element background world {"])
    def test_eye_or_background_as_element_kind_exit_2(self, header, tmp_path,
                                                      capsys):
        f = tmp_path / "kind.scene"
        f.write_text(GOOD_SCENE.replace("eye cam {", header))
        code, _, err = run(capsys, "trace", str(f), "--source", "0,0,-60")
        assert code == 2
        assert "line 3: unknown element kind" in err

    def test_validation_error_exit_3(self, tmp_path, capsys):
        f = tmp_path / "twoeyes.scene"
        f.write_text(GOOD_SCENE + "\neye spare {\n  position = 0 0 70\n}\n")
        code, _, err = run(capsys, "trace", str(f), "--source", "0,0,-60")
        assert code == 3
        assert "exactly one eye" in err

    def test_missing_file_exit_5(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        code, _, err = run(capsys, "trace", str(plain / "file.scene"),
                           "--source", "0,0,-60")
        assert code == 5

    def test_non_utf8_scene_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.scene"
        f.write_bytes(b"scene x\n\xff\xfe\n")
        code, out, err = run(capsys, "render", str(f),
                             "--out", str(tmp_path / "o.ppm"))
        assert code == 2
        assert err == "error: line 2: byte 0xff is not UTF-8 text\n"
        assert out == ""


class TestTrace:
    def test_plate_scene_focus(self, tmp_path, capsys):
        f = tmp_path / "s.scene"
        f.write_text(GOOD_SCENE)
        code, out, _ = run(capsys, "trace", str(f), "--source", "5,-3,-60",
                           "--rays", "64", "--mode", "double_reflect")
        assert code == 0
        lines = dict(l.split(",", 1) for l in out.strip().splitlines())
        assert float(lines["focus_x_mm"]) == pytest.approx(5.0, abs=1e-6)
        assert float(lines["focus_z_mm"]) == pytest.approx(60.0, abs=1e-6)
        assert float(lines["focus_rms_mm"]) < 1e-9
        assert float(lines["spot_rms_mm"]) < 1e-9

    def test_explicit_spot_plane_and_csv(self, tmp_path, capsys):
        f = tmp_path / "s.scene"
        f.write_text(GOOD_SCENE)
        csv = tmp_path / "spot.csv"
        code, out, _ = run(capsys, "trace", str(f), "--source", "0,0,-60",
                           "--rays", "32", "--mode", "double_reflect",
                           "--spot-plane", "60", "--csv", str(csv))
        assert code == 0
        assert "spot_plane_z_mm,60" in out
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "u_mm,v_mm"
        assert len(rows) > 10

    def test_rays_must_be_positive(self, tmp_path, capsys):
        f = tmp_path / "s.scene"
        f.write_text(GOOD_SCENE)
        with pytest.raises(SystemExit) as err:
            main(["trace", str(f), "--source", "0,0,-60", "--rays", "0"])
        assert err.value.code == 2

    def test_bad_triplet(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--preset", "half_mirror", "--source", "1,2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("angle", ["nan", "0", "-2", "200", "inf", "x"])
    def test_half_angle_outside_0_180_exit_2(self, angle, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--preset", "half_mirror", "--source", "0,0,5",
                  f"--half-angle={angle}"])
        assert err.value.code == 2
        assert "--half-angle" in capsys.readouterr().err

    def test_half_angle_180_accepted(self, capsys):
        code, out, _ = run(capsys, "trace", "--preset", "half_mirror",
                           "--source", "0,0,5", "--rays", "32",
                           "--half-angle", "180")
        assert code == 0
        assert "emitted_weight,32" in out

    def test_degenerate_exit_4(self, tmp_path, capsys):
        f = tmp_path / "dark.scene"
        f.write_text(ABSORBING_SCENE)
        code, _, err = run(capsys, "trace", str(f), "--source", "0,0,-50",
                           "--axis", "0,0,1")
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["--preset", "half_mirror", "--source", "0,0,5", "--axis", "0,0,0"],
        # The default axis points from the source to the eye: zero here.
        ["--preset", "tmd_see_through", "--source", "0,0,60"],
    ])
    def test_zero_cone_axis_exit_2(self, argv, capsys):
        code, out, err = run(capsys, "trace", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_cone_axis_along_y(self, capsys):
        code, out, _ = run(capsys, "trace", "--preset", "half_mirror",
                           "--source", "1,20,21", "--axis", "0,-1,0")
        assert code == 0
        assert "rays,128" in out

    @pytest.mark.parametrize("command", [
        ["trace", "--preset", "half_mirror", "--source", "0,0,5", "--rays", "8"],
        ["render", "--preset", "defocus_flat", "--rpp", "1", "--out", "x.ppm"],
    ])
    def test_non_integer_workers_env_exit_2(self, command, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TMDSIM_WORKERS", "abc")
        code, out, err = run(capsys, *command)
        assert code == 2
        assert "TMDSIM_WORKERS must be an integer" in err
        assert out == ""

    def test_preset_runs(self, capsys):
        code, out, _ = run(capsys, "trace", "--preset", "half_mirror",
                           "--source", "0,0,5", "--rays", "32")
        assert code == 0
        assert "emitted_weight,32" in out


# The stdout `key,value` lines of `tmdsim trace` and its --csv spot file,
# byte for byte: sha256 of stdout, of the CSV file (None when none is
# written) and the exit code.  half_mirror's cone is aimed at the combiner,
# so its bundle branches and the depth-first path order shapes the output.
TRACE_RUNS = {
    "ame_dk2": ["--source", "2,-1.5,-60.5"],
    "half_mirror": ["--source", "1,19,21", "--axis=-1,-19,-1"],
    "tmd_see_through": ["--source", "5,-3,-59.5"],
}
TRACE_GOLDEN = {
    ("ame_dk2", "any"): (
        "7a18d340625dba514e914a0eca7328deee5070ed23137ad6d92014de83b7c4ba",
        "efe21f78c2f7f0d1e14c2e3403ed1d514a14c63d50d381100cf020956c69db1b", 0),
    ("ame_dk2", "double_reflect"): (
        "7cede849694657703b9f6ae1f252b9ca49159e3cbeaafe712567332a0027b47c",
        "fdc25857446fc0dc5966bcc4ac155d84743502c13395d0ee4e20b65c471f64ea", 0),
    ("half_mirror", "any"): (
        "12916d694f286014ab244cf488ee16bec98a6195ea83fb3587a0cc2e1005997d",
        "d1d58d4ee751be56d07cb6826bba5a236720e844e022f83c7937394f301e5bc3", 0),
    # No ray of an unplated scene is double_reflect: the focus fails (exit 4).
    ("half_mirror", "double_reflect"): (
        "74541ae3d89ea676163ec3ab8e445c428d2fc77446e0ba1f497ba30b235dc3e5",
        None, 4),
    ("tmd_see_through", "any"): (
        "a0116a99b57ac0aca7bfbe6d40dd03a136b54bff834eb492be2f866ea76489e9",
        "618e774707d223e0e284aaeb02bc49f73b4ad16bc7f84ea20d9b6106fb0f8ba7", 0),
    ("tmd_see_through", "double_reflect"): (
        "4bef3233cc885bba83068cf5ca95405d960e9a405726443e8b254df80719b0f4",
        "e953749793c50a490d6bf06785ec162ec09e4425da6a2dc0ebec1c7a6c687f21", 0),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset,mode", sorted(TRACE_GOLDEN))
def test_trace_stdout_and_csv_match_golden(preset, mode, tmp_path, capsys):
    csv = tmp_path / "spot.csv"
    code, out, _ = run(capsys, "trace", "--preset", preset, *TRACE_RUNS[preset],
                       "--rays", "256", "--mode", mode, "--csv", str(csv))
    csv_digest = _sha256(csv.read_bytes()) if csv.exists() else None
    assert (_sha256(out.encode()), csv_digest, code) == TRACE_GOLDEN[preset, mode]


# The files `tmdsim render` and `tmdsim sweep --out-dir` write, byte for
# byte: sha256 of each PPM (header and tone-mapped pixels) and of sweep.csv.
RENDER_FILE_GOLDEN = {
    "ame_dk2": "87ac4c5cabb84e8def6d94cf61f85cd42796b6fe4dd4dca8f3ce91c6e212aee8",
    "tmd_see_through":
        "3aa53171362957fc1b7bf4f58ee7fbc5ddfda06f353b952e0bc01e6d9c66d845",
}
SWEEP_FILE_GOLDEN = {
    "offset_+10mm.ppm":
        "8a30fd12425ebcaa474e17bdbd2aa4b6c49dbc9e54b8e72bed48aa3e2fd12652",
    "offset_+0mm.ppm":
        "379297b4c3d356effe799d9f80c8ee45e15ce2e900b7f43b25de77194bf3bf97",
    "offset_-10mm.ppm":
        "ef8baa8f7fd5a8f22ea7cb33932e0c8041329049a314e892518f983f4ea3d5dc",
    "offset_-20mm.ppm":
        "a488aa0e4ea66d22f244086dfe30b41cf7c58d65a17917d8fb9304967bde7c9e",
    "sweep.csv":
        "31c1e10f91fa4cc5aabebf598d936cc1550ab20a318aa2ba7f52c792685fe382",
}


@pytest.mark.parametrize("preset", sorted(RENDER_FILE_GOLDEN))
def test_render_ppm_matches_golden(preset, tmp_path, capsys):
    out = tmp_path / "view.ppm"
    code, _, _ = run(capsys, "render", "--preset", preset, "--rpp", "2",
                     "--out", str(out))
    assert code == 0
    assert _sha256(out.read_bytes()) == RENDER_FILE_GOLDEN[preset]


def test_sweep_files_match_golden(tmp_path, capsys):
    outdir = tmp_path / "series"
    code, _, _ = run(capsys, "sweep", "--preset", "defocus_flat", "--rpp", "1",
                     "--out-dir", str(outdir))
    assert code == 0
    written = {p.name: _sha256(p.read_bytes()) for p in outdir.iterdir()}
    assert written == SWEEP_FILE_GOLDEN


class TestRender:
    def test_writes_ppm_deterministically(self, tmp_path, capsys):
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        args = ["render", "--preset", "defocus_flat", "--rpp", "2", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"P6\n256 256\n255\n")

    def test_worker_env_same_bytes(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        args = ["render", "--preset", "tmd_see_through", "--rpp", "1"]
        assert main(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("TMDSIM_WORKERS", "4")
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exit_5(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        code, _, err = run(capsys, "render", "--preset", "defocus_flat",
                           "--rpp", "1", "--out", str(plain / "x.ppm"))
        assert code == 5


class TestSweep:
    def test_writes_series_and_csv(self, tmp_path, capsys):
        outdir = tmp_path / "series"
        code, out, _ = run(capsys, "sweep", "--preset", "defocus_flat",
                           "--rpp", "8", "--offsets", "0,-10",
                           "--out-dir", str(outdir))
        assert code == 0
        assert "best_offset_mm,0" in out
        assert (outdir / "offset_+0mm.ppm").exists()
        assert (outdir / "offset_-10mm.ppm").exists()
        csv = (outdir / "sweep.csv").read_text().strip().splitlines()
        assert csv[0] == "offset_mm,sharpness"
        assert len(csv) == 3

    def test_offsets_sharing_an_image_name_exit_2(self, tmp_path, capsys):
        # Image names keep 6 significant digits: these two offsets would
        # both write offset_+0.123456mm.ppm.
        outdir = tmp_path / "series"
        code, out, err = run(capsys, "sweep", "--preset", "defocus_flat",
                             "--rpp", "1", "--offsets", "0.1234561,0.1234562",
                             "--out-dir", str(outdir))
        assert code == 2
        assert "one image name" in err
        assert out == ""
        assert not outdir.exists()

    def test_empty_offsets(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--preset", "defocus_flat", "--offsets", ","])
        assert err.value.code == 2


class TestCountsBelowOne:
    # Trace, render and sweep take --workers; trace and render take
    # --max-bounces.  Render and sweep would write into the cwd, which
    # must stay empty.
    COMMANDS = [
        ["trace", "--preset", "half_mirror", "--source", "0,0,5", "--rays", "8"],
        ["render", "--preset", "defocus_flat", "--rpp", "1", "--out", "x.ppm"],
        ["sweep", "--preset", "defocus_flat", "--rpp", "1", "--offsets", "0",
         "--out-dir", "series"],
    ]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_worker_count_exit_2(self, command, count, capsys, monkeypatch,
                                 tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *command, "--workers", count)
        assert code == 2
        assert "worker count must be at least 1" in err
        assert out == ""
        monkeypatch.setenv("TMDSIM_WORKERS", count)
        code, out, err = run(capsys, *command)
        assert code == 2
        assert "worker count must be at least 1" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", COMMANDS[:2])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_max_bounces_exit_2(self, command, budget, capsys, monkeypatch,
                                tmp_path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([*command, "--max-bounces", budget])
        assert err.value.code == 2
        assert "--max-bounces must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestPresets:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "presets")
        names = out.strip().splitlines()
        assert code == 0
        assert "tmd_see_through" in names and "ame_dk2" in names

    def test_print_parseable(self, capsys):
        code, out, _ = run(capsys, "presets", "ame_cardboard")
        assert code == 0
        scene = parse_scene(out)
        assert scene.name == "ame_cardboard"

    def test_write_file(self, tmp_path, capsys):
        path = tmp_path / "p.scene"
        code, _, _ = run(capsys, "presets", "half_mirror", "--out", str(path))
        assert code == 0
        assert "combiner" in [e.ident for e in parse_scene(path.read_text()).elements]

    def test_unknown(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["presets", "warp"])
        assert err.value.code == 2

    def test_out_without_a_name_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as err:
            main(["presets", "--out", str(path)])
        assert err.value.code == 2
        assert "--out needs a preset name" in capsys.readouterr().err
        assert not path.exists()


# Each file a command reads or writes: BAD stands for a path under a
# regular file, which no command can open.
BAD = "<bad>"


@pytest.mark.parametrize("verb,argv", [
    ("read", ["trace", BAD, "--source", "0,0,-60"]),
    ("write", ["design", "--csv", BAD]),
    ("write", ["trace", "--preset", "ame_dk2", *TRACE_RUNS["ame_dk2"],
               "--rays", "8", "--csv", BAD]),
    ("write", ["render", "--preset", "defocus_flat", "--rpp", "1", "--out", BAD]),
    ("write", ["sweep", "--preset", "defocus_flat", "--rpp", "1",
               "--offsets", "0", "--out-dir", BAD]),
    ("write", ["presets", "half_mirror", "--out", BAD]),
], ids=["scene", "design_csv", "trace_csv", "render_out", "sweep_out_dir",
        "presets_out"])
def test_a_failed_read_or_write_is_reported_one_way(verb, argv, tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    bad = str(plain / "x")
    code, _, err = run(capsys, *(bad if a == BAD else a for a in argv))
    assert code == 5
    assert err.startswith(f"error: cannot {verb} {bad}: ")
    assert err.count("\n") == 1


def _run_python(*args):
    """`python ...` in a child process that imports the same package as
    these tests, installed or not."""
    src = str(Path(tmdsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _run_module(*args):
    return _run_python("-m", "tmdsim", *args)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _run_module("design", "--hmd", "dk2")
        assert proc.returncode == 0
        assert "ame_fov_deg,110.000000" in proc.stdout

    def test_no_command_is_usage_error(self):
        proc = _run_module()
        assert proc.returncode == 2

    def test_import_leaves_the_worker_pool_unloaded(self):
        # Only multi-worker renders need these; importing them at start-up
        # would cost every command about 20 ms.
        proc = _run_python("-c", "import sys, tmdsim.cli; print(sorted(m for m in "
                           "('multiprocessing', 'concurrent.futures') "
                           "if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestLimits:
    """Oversized counts exit 2 with an error line before anything is
    allocated, instead of a traceback from numpy's allocator."""

    SCENES = {
        "image_res": GOOD_SCENE.replace("image = checker 8",
                                        "image = checker 8\n  image_res = 999999999999"),
        "sensor": GOOD_SCENE.replace("position = 0 0 60",
                                     "position = 0 0 60\n  sensor = 99999999 99999999 0.2"),
    }

    @staticmethod
    def assert_refused(proc, message):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert any(line.startswith(("error:", "tmdsim: error:")) and message in line
                   for line in proc.stderr.splitlines()), proc.stderr

    @pytest.mark.parametrize("key", sorted(SCENES))
    def test_oversized_scene_file(self, key, tmp_path):
        scene = tmp_path / "big.scene"
        scene.write_text(self.SCENES[key])
        out = tmp_path / "x.ppm"
        self.assert_refused(_run_module("render", str(scene), "--out", str(out)),
                            "at most")
        assert not out.exists()

    def test_the_flags_take_the_library_limits(self):
        assert (cli.MAX_RAYS, cli.MAX_RPP) == (tracer.MAX_RAYS, render.MAX_RPP)

    # The commands of TestCountsBelowOne; a flag given again overrides it.
    COUNTS = list(zip(TestCountsBelowOne.COMMANDS, ("--rays", "--rpp", "--rpp"),
                      (cli.MAX_RAYS, cli.MAX_RPP, cli.MAX_RPP)))

    @pytest.mark.parametrize("command,flag,limit", COUNTS)
    def test_oversized_ray_counts(self, command, flag, limit, tmp_path,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.assert_refused(_run_module(*command, flag, "1000000000000"),
                            f"{flag} must be at most {limit}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flag,limit", COUNTS)
    def test_one_past_the_limit(self, command, flag, limit, capsys, tmp_path,
                                monkeypatch):
        monkeypatch.chdir(tmp_path)

        def traced(*args, **kwargs):
            raise AssertionError("an oversized count reached the tracer")

        for name in ("trace_bundle", "render_view", "defocus_sweep"):
            monkeypatch.setattr(cli, name, traced)
        with pytest.raises(SystemExit) as err:
            main([*command, flag, str(limit + 1)])
        assert err.value.code == 2
        assert f"{flag} must be at most {limit}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestNegativeValues:
    """A value whose first number is negative reads the same whether it
    follows its flag as a separate argument or after `=`."""

    TRACE = ["trace", "--preset", "tmd_see_through", "--rays", "20"]
    CASES = [
        ([*TRACE, "--source", "-5,-3,-60"], "--source"),
        ([*TRACE, "--source", "0,0,-60", "--axis", "-1,0,0"], "--axis"),
        ([*TRACE, "--source", "0,0,-60", "--spot-plane", "-1e6"], "--spot-plane"),
        (["sweep", "--preset", "defocus_flat", "--offsets", "-10,0", "--rpp", "1"],
         "--offsets"),
        (["design", "--l1", "-1e3"], "--l1"),
        (["trace", "--preset", "tmd_see_through", "--source", "0,0,-60",
          "--rays", "-5"], "--rays"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("argv,flag", CASES, ids=[flag for _, flag in CASES])
    def test_separate_value_reads_as_its_equals_form(self, argv, flag, capsys):
        at = argv.index(flag)
        joined = [*argv[:at], f"{flag}={argv[at + 1]}", *argv[at + 2:]]
        separate = self.outcome(capsys, argv)
        assert separate == self.outcome(capsys, joined)
        assert "expected one argument" not in separate[2]

    def test_a_negative_design_length_exits_2(self, capsys):
        assert self.outcome(capsys, ["design", "--l1", "-1e3"]) == (
            2, "", "error: design lengths must be positive\n")

    def test_a_negative_ray_count_keeps_its_error(self, capsys):
        code, out, err = self.outcome(capsys, self.CASES[-1][0])
        assert (code, out) == (2, "")
        assert "--rays must be positive" in err
