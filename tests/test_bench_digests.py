"""The benchmark's workloads still hash to the digests it pins.

Runs one op of each workload in `perfbench/workloads.py` (at the size the
benchmark measures, and the two render ops also at its smoke size) and
compares its output digest with `perfbench/expected.json`.  A speed-up that
moves a bundle statistic, a spot point or a pixel fails here, in the test
suite, and not only in a benchmark run.  Nothing under `perfbench/` is
written; the render ops write their images to a temporary directory.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    no_bytecode = sys.dont_write_bytecode
    try:
        sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = no_bytecode
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload,size", [("trace_bundles", "full"),
                                           ("render_plate", "smoke"),
                                           ("sweep_defocus", "smoke"),
                                           ("render_plate", "full"),
                                           ("sweep_defocus", "full")])
def test_op_digest_matches_the_pinned_one(workloads, workload, size, tmp_path):
    op = workloads.WORKLOADS[workload](EXPECTED["seed"], size, tmp_path)
    result = op.op()
    assert result.problems == []
    assert result.digest == EXPECTED["digests"][size][workload]
