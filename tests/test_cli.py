import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmdsim
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
        code, _, err = run(capsys, "design", "--l1", "-5")
        assert code == 2
        assert "positive" in err

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

    def test_validation_error_exit_3(self, tmp_path, capsys):
        f = tmp_path / "twoeyes.scene"
        f.write_text(GOOD_SCENE + "\neye spare {\n  position = 0 0 70\n}\n")
        code, _, err = run(capsys, "trace", str(f), "--source", "0,0,-60")
        assert code == 3
        assert "exactly one eye" in err

    def test_missing_file_exit_5(self, capsys):
        code, _, err = run(capsys, "trace", "/no/such/file.scene",
                           "--source", "0,0,-60")
        assert code == 5


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

    def test_unwritable_path_exit_5(self, capsys):
        code, _, err = run(capsys, "render", "--preset", "defocus_flat",
                           "--rpp", "1", "--out", "/no/such/dir/x.ppm")
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

    def test_empty_offsets(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--preset", "defocus_flat", "--offsets", ","])
        assert err.value.code == 2


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
        assert parse_scene(path.read_text()).element("combiner") is not None

    def test_unknown(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["presets", "warp"])
        assert err.value.code == 2


def _run_module(*args):
    """`python -m tmdsim ...` in a child process that imports the same
    package as these tests, installed or not."""
    src = str(Path(tmdsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tmdsim", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _run_module("design", "--hmd", "dk2")
        assert proc.returncode == 0
        assert "ame_fov_deg,110.000000" in proc.stdout

    def test_no_command_is_usage_error(self):
        proc = _run_module()
        assert proc.returncode == 2
