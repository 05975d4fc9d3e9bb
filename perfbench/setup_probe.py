"""Set-up cost as a user pays it, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py PRESET [PRESET ...]

Imports ``tmdsim.cli``, then builds each preset and round-trips it through
the text scene format (serialize, parse, serialize again, which must give
the same text).  Prints one JSON object with the seconds spent per stage.
``run.py`` starts this several times with ``src`` on ``PYTHONPATH``.
"""
import json
import sys
from time import perf_counter


def main(names) -> int:
    start = perf_counter()
    import tmdsim.cli  # noqa: F401  (the import is what is timed)
    from tmdsim.presets import build_preset
    from tmdsim.scene import parse_scene, serialize_scene
    imported = perf_counter()
    times = {"cli.import_s": imported - start, "scene.build_preset_s": 0.0,
             "scene.serialize_s": 0.0, "scene.parse_s": 0.0}
    for name in names:
        t0 = perf_counter()
        scene = build_preset(name)
        t1 = perf_counter()
        text = serialize_scene(scene)
        t2 = perf_counter()
        parsed = parse_scene(text)
        t3 = perf_counter()
        times["scene.build_preset_s"] += t1 - t0
        times["scene.serialize_s"] += t2 - t1
        times["scene.parse_s"] += t3 - t2
        if serialize_scene(parsed) != text:
            print(f"preset {name} does not round-trip", file=sys.stderr)
            return 1
    times["setup_s"] = times["cli.import_s"] + times["scene.build_preset_s"] \
        + times["scene.serialize_s"] + times["scene.parse_s"]
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
