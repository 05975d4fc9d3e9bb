"""The bundle bookkeeping of the forward tracer against plain reference forms.

`BundleResult` orders its statistics, terminal rays and paths by integer
bookkeeping: first appearances (`_first_seen`), the depth-first path order
(`dfs_order`), the rows of paths still in flight (`propagating`) and the
statistics dicts (`_bundle_stats`).  The references below compute the same
things the direct way, with np.unique, np.lexsort and np.isin; every dict
must match them in its values and in its key order, and every row list
element for element.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_trace_golden as trace_golden
from tmdsim.geometry import (MODE_DOUBLE, MODE_PASS, MODE_PRIMARY, MODE_SINGLE,
                             normalize, sequential_sum, vec3)
from tmdsim.presets import PRESET_BUILDERS, build_preset
from tmdsim.tracer import (_LABELS, _TERMINAL_OF, _TERMINALS, Cone,
                           _bundle_stats, _first_seen, dfs_order, trace_bundle)

SCENES = {name: build_preset(name) for name in sorted(PRESET_BUILDERS)}
# Two facing splitters whose weaker branches meet the other one: children of
# children, beyond `dfs_order`'s sort for one-level trees.
SCENES["ping_pong_leak"] = trace_golden._ping_pong_scene(0.97, 0.3)
# None is `tmdsim trace --mode any`; "lens_flare" is a tag no ray carries.
MODES = (None, MODE_PRIMARY, MODE_DOUBLE, MODE_SINGLE, MODE_PASS, "lens_flare")


def ref_first_seen(codes):
    _, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)].tolist()


def ref_dfs_order(parents, n_roots):
    chain = [np.arange(len(parents))]
    while (chain[-1] >= 0).any():
        up = chain[-1]
        chain.append(np.where(up >= 0, parents[up], -1))
    chain = np.array(chain[:-1])
    depth = np.count_nonzero(chain >= 0, axis=0) - 1
    k = depth - np.arange(len(chain))[:, None]
    keys = np.where(k >= 0, np.take_along_axis(chain, np.maximum(k, 0), 0), -1)
    return np.lexsort(keys[::-1])


def ref_bundle_stats(bundle):
    rank = np.empty_like(bundle.dfs)
    rank[bundle.dfs] = np.arange(len(bundle.dfs))
    labels = bundle.label[np.lexsort((bundle.step, rank[bundle.pid]))]
    counts = np.bincount(labels, minlength=len(_LABELS))
    interactions = {_LABELS[i]: int(counts[i]) for i in ref_first_seen(labels)}
    ends = bundle.ends
    terminal = _TERMINAL_OF[bundle.label[ends]]
    mode = bundle.mode[ends]
    weight = bundle.weight[ends]
    terminals = {_TERMINALS[t]: int(np.count_nonzero(terminal == t))
                 for t in ref_first_seen(terminal)}
    mode_weight = {bundle.modes[m]: float(sequential_sum(weight[mode == m]))
                   for m in ref_first_seen(mode)}
    emitted = float(sequential_sum(bundle.weight[:bundle.n_roots]))
    return {"emitted_weight": emitted, "interactions": interactions,
            "terminals": terminals, "mode_weight": mode_weight}


def ref_propagating(bundle, mode):
    ends = bundle.ends
    keep = np.isin(_TERMINAL_OF[bundle.label[ends]], (1, 2, 3))
    if mode is not None:
        keep &= bundle.mode[ends] == (bundle.modes.index(mode)
                                      if mode in bundle.modes else -1)
    return ends[keep]


def _same_dict(got, want):
    assert got == want
    assert list(got) == list(want)  # key order, not only the items


@given(st.sampled_from(sorted(SCENES)),
       st.tuples(*[st.floats(-60.0, 60.0)] * 3),
       st.one_of(st.none(), st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
       st.floats(0.5, 60.0), st.integers(1, 160), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 6))
@example("half_mirror", (1.0, 19.0, 21.0), (-1.0, -19.0, -1.0), 2.0, 128, 42, 16)
@example("ping_pong_leak", (1.0, 2.0, 5.0), (-0.1, -0.2, 0.7), 20.0, 16, 5, 6)
@example("tmd_see_through", (5.0, -3.0, -59.5), None, 2.0, 128, 7, 16)
@example("ame_dk2", (2.0, -1.5, -60.5), None, 3.0, 64, 1, 2)
@settings(max_examples=80, deadline=None)
def test_bundle_bookkeeping_matches_the_references(name, source, axis,
                                                   half_angle_deg, n_rays, seed,
                                                   max_bounces):
    scene = SCENES[name]
    source = vec3(*source)
    if axis is None:  # aim at the eye, as `tmdsim trace` does by default
        axis = scene.eye.pose.position - source
    if math.hypot(*axis) < 1e-3:
        axis = (0.0, 0.0, 1.0)
    cone = Cone(normalize(axis), math.radians(half_angle_deg))
    bundle = trace_bundle(scene, source, n_rays, cone, seed=seed,
                          max_bounces=max_bounces)
    assert bundle.dfs.tolist() == ref_dfs_order(bundle.parents,
                                                bundle.n_roots).tolist()
    stats, want = bundle.stats, ref_bundle_stats(bundle)
    assert stats["emitted_weight"] == want["emitted_weight"]
    for key in ("interactions", "terminals", "mode_weight"):
        _same_dict(stats[key], want[key])
    _same_dict(_bundle_stats(bundle), want)
    for mode in MODES:
        assert (bundle.propagating(mode).tolist()
                == ref_propagating(bundle, mode).tolist())


@given(st.lists(st.integers(0, 13), min_size=1, max_size=300))
@example([0])
@example([13, 0, 13, 5])
@settings(max_examples=200, deadline=None)
def test_first_seen_matches_unique(codes):
    codes = np.array(codes)
    assert _first_seen(codes) == ref_first_seen(codes)


@given(st.lists(st.integers(0, 13), min_size=1, max_size=300),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_first_seen_by_keys_matches_unique_of_the_sorted_codes(codes, rnd):
    """With keys, the order is that of the codes sorted by key."""
    keys = list(range(len(codes)))
    rnd.shuffle(keys)
    codes, keys = np.array(codes), np.array(keys, dtype=np.int64)
    assert _first_seen(codes, keys) == ref_first_seen(codes[np.argsort(keys)])
