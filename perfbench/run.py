"""tmdsim benchmark: one workload per process, closed loop, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace_bundles --seed 42 \
        --seconds 25 --trace 0

Runs the workload's ops back to back for ``--seconds`` (the next op starts
when the last one ends) and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json;
with ``--trace 1`` the loop runs with layer wrappers installed and the
metrics are the ``per_layer`` ones.  The line before it is an ``info``
object: machine, versions, seed, digests, op count and the uncalibrated
timings.  Every reported time is calibrated to a nominal machine speed by
slices of a fixed reference kernel taken around each op (``calibrate.py``).

The library is imported from ``src/`` of the checkout that holds this
file; nothing is installed.  See NOTES.md for what each number means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Calibrator
from tracing import COUNTER_NAMES, SPAN_TARGETS, Recorder, median_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 42
SETUP_PROBES = 11
SETUP_TIMEOUT_S = 60
TAIL_OPS_BEYOND = 10


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: fewer rays, smaller images (self-tests)")
    return p.parse_args(argv)


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _setup_times(presets) -> dict:
    """Median per stage over SETUP_PROBES fresh interpreters, each probe's
    stages scaled by the calibration slices taken around it."""
    cal = Calibrator()
    runs = []
    for _ in range(SETUP_PROBES):
        cal.begin()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *presets],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        stages = json.loads(proc.stdout.strip().splitlines()[-1])
        cal.end(stages["setup_s"])
        runs.append({key: value * cal.factors[-1]
                     for key, value in stages.items()})
        runs[-1]["raw_setup_s"] = stages["setup_s"]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _tail(times):
    """(value, quantile) at the highest quantile with at least ten ops
    beyond it, never below the median: with fewer than 20 ops it is the
    median."""
    q = max(0.5, 1.0 - TAIL_OPS_BEYOND / len(times))
    ordered = sorted(times)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), q


def _expected_digest(size: str, workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return recorded["digests"][size].get(workload)


def _run_op(wl, reference, pause):
    """(result or None, problems) of one op; a digest other than
    `reference` is a problem."""
    try:
        result = wl.op(pause)
    except Exception:  # an op that raises is a failed op; keep measuring
        return None, [traceback.format_exc(limit=3)]
    problems = list(result.problems)
    if reference is not None and result.digest != reference:
        problems.append(f"digest {result.digest} != {reference}")
    return result, problems


def _layer_metrics(wl, rows, counts, times, setup, speedup):
    from workloads import RENDER_PRESETS, SWEEP_PRESETS

    def span(name):
        return median_of(rows, lambda r: r["spans"].get(name, 0.0))

    def counter(name, field):
        return median_of(rows, lambda r: r["counters"][name][field])

    values = {key: setup[key] for key in setup
              if key not in ("setup_s", "raw_setup_s")}
    for _, _, name in SPAN_TARGETS:
        if name == "render.render_view_s":
            for preset in RENDER_PRESETS + SWEEP_PRESETS:
                values[f"{name}.{preset}"] = span(f"{name}.{preset}")
        else:
            values[name] = span(name)
    values["tracer.self_s"] = median_of(rows, lambda r: r["spans"].get(
        "tracer.trace_bundle_s", 0.0) - sum(r["counters"][n][1]
                                            for n in COUNTER_NAMES))
    for name in COUNTER_NAMES:
        values[f"{name}.calls"] = counter(name, 0)
        values[f"{name}_s"] = counter(name, 1)
    calls = values["geometry.intersect_plane.calls"]
    values["geometry.intersect_plane.hit_ratio"] = (
        counter("geometry.intersect_plane", 2) / calls if calls else 0.0)
    segments = median_of(counts, lambda c: c["segments"])
    values["tracer.segments"] = segments
    values["tracer.paths"] = median_of(counts, lambda c: c["paths"])
    values["tracer.segments_per_ray"] = segments / wl.primary_rays
    for kind in counts[0]["terminals"]:
        values[f"tracer.terminal.{kind}"] = median_of(
            counts, lambda c: c["terminals"][kind])
    values["render.camera_rays"] = median_of(rows, lambda r: r["camera_rays"])
    values["render.speedup_w2"] = speedup
    values["traced.rays_per_s"] = wl.primary_rays * len(times) / sum(times)
    return values


def _speedup_w2(wl, rows, reference, failures) -> float:
    """render_view time at workers=1 over its traced time at workers=2;
    the workers=1 images must hash to the same digest."""
    h = hashlib.sha256()
    start = perf_counter()
    for scene in wl.scenes.values():
        h.update(wl.render(scene, 1).pixels.tobytes())
    one = perf_counter() - start
    if h.hexdigest() != reference:
        failures.append("render_view at workers=1 differs from workers=2")
    two = statistics.median(
        sum(t for name, t in r["spans"].items()
            if name.startswith("render.render_view_s.")) for r in rows)
    return one / two


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tmdsim" / "__init__.py").is_file():
        print(f"error: no tmdsim sources under {SRC}", file=sys.stderr)
        return 2
    # The workloads' worker counts are the only source of threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tmdsim
    from workloads import WORKLOADS, trace_counts

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_specs()
    cls = WORKLOADS[args.workload]
    setup = _setup_times(cls.presets)

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = cls(args.seed, args.size, out_dir)
    # Untimed warm-up; its digest is the reference unless one is recorded.
    expected = _expected_digest(args.size, args.workload, args.seed)
    cal = Calibrator(sorted(os.sched_getaffinity(0)) if wl.threads > 1
                     else None)
    warm, failures = _run_op(wl, expected, cal.pause)
    reference = expected or (warm.digest if warm else None)

    recorder = Recorder({"tracer": sys.modules["tmdsim.tracer"],
                         "geometry": sys.modules["tmdsim.geometry"],
                         "render": sys.modules["tmdsim.render"]})
    if args.trace:
        recorder.install()
    times, raw_times, counts, failed = [], [], [], 0
    deadline = perf_counter() + args.seconds
    try:
        while True:
            op = len(times)
            recorder.begin_op(op)
            cal.begin()
            start = perf_counter()
            result, problems = _run_op(wl, reference, cal.pause)
            calibrated, raw = cal.end(perf_counter() - start)
            times.append(calibrated)
            raw_times.append(raw)
            if problems:
                failed += 1
                failures.extend(problems)
            if args.trace:
                counts.append(trace_counts(result.bundles if result else []))
            if perf_counter() >= deadline:
                break
    finally:
        recorder.uninstall()

    if args.trace:
        rows = recorder.per_op(range(len(times)))
        speedup = (_speedup_w2(wl, rows, reference, failures)
                   if args.workload == "render_plate" else 0.0)
        values = _layer_metrics(wl, rows, counts, times, setup, speedup)
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        specs = per_layer
    else:
        tail, tail_q = _tail(times)
        values = {
            "setup_s": setup["setup_s"],
            "rays_per_s": wl.primary_rays * len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = end_to_end

    for text in failures[:5]:
        print(f"failure: {text}", file=sys.stderr)
    info = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "tmdsim": tmdsim.__version__, "machine": platform.machine(),
        "ops": len(times), "primary_rays_per_op": wl.primary_rays,
        "failed_ops_ratio": failed / len(times),
        "raw_rays_per_s": wl.primary_rays * len(raw_times) / sum(raw_times),
        "raw_op_p50_s": statistics.median(raw_times),
        "raw_setup_s": setup["raw_setup_s"],
        "speed_factor_p50": statistics.median(cal.factors),
        "digest": warm.digest if warm else None, "recorded_digest": expected,
    }
    if not args.trace:
        info["op_tail_quantile"] = tail_q
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": len(times),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
