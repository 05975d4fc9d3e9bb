"""Self-tests of the benchmark at its smoke size.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Each test starts ``run.py`` in a subprocess, as the benchmark command, with
``--size smoke`` (64-ray bundles, 32 x 32 renders) and a short run.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("tracer.segments", "tracer.paths", "tracer.segments_per_ray",
         "geometry.intersect_plane.hit_ratio", "render.camera_rays")


def bench(workload, seed=7, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return proc


def result(workload, **kw):
    proc = bench(workload, **kw)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def exact_counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name in EXACT or name.endswith(".calls")
            or name.startswith("tracer.terminal.")}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, group):
    info, res = result(workload, trace=trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1 and info["ops"] == res["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == expected
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    for key in ("cpu_count", "python", "numpy", "seed", "digest"):
        assert info[key] is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digests_and_counts(workload):
    info_a, res_a = result(workload, seed=11, trace=1)
    info_b, res_b = result(workload, seed=11, trace=1)
    assert info_a["digest"] == info_b["digest"]
    assert exact_counts(res_a["metrics"]) == exact_counts(res_b["metrics"])


def test_trace_counts_are_nonzero_where_the_layer_runs():
    _, res = result("trace_bundles", trace=1)
    values = {name: m["value"] for name, m in res["metrics"].items()}
    for name in ("tracer.segments", "geometry.intersect_plane.calls",
                 "geometry.advanced.calls", "elements.tmd_transform.calls",
                 "elements.thin_lens_transform.calls",
                 "elements.half_mirror_interact.calls",
                 "elements.convex_mirror_transform.calls"):
        assert values[name] > 0, name
    assert 0.0 < values["geometry.intersect_plane.hit_ratio"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_recorded_digest(workload):
    info, res = result(workload, seed=42)
    assert info["recorded_digest"] is not None
    assert info["digest"] == info["recorded_digest"]
    assert res["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_calibration_leaves_out_pauses_and_restores_affinity():
    sys.path.insert(0, str(HERE))
    import os
    from time import perf_counter

    from calibrate import Calibrator

    before = os.sched_getaffinity(0)
    cal = Calibrator(sorted(before))
    cal.begin()
    start = perf_counter()
    cal.pause()
    calibrated, raw = cal.end(perf_counter() - start)
    assert os.sched_getaffinity(0) == before
    assert 0.0 <= raw < 1e-3          # the interval held only a pause
    assert cal.factors[-1] > 0.0
    assert calibrated == raw * cal.factors[-1]
