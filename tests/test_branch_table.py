"""The interaction table both tracers read (`elements.leave`).

The forward tracer samples a plate's branch per ray from its draws; the
renderer splits every ray over the plate's fractions.  The two modes must
give every plate knob (pitch, polarizer, angular fill, mode weights) one
meaning:

- every row takes at most one sampled branch, the one that
  `classify_plate_modes` picks for its draw;
- a sampled row leaves from the same point along the same direction, bit
  for bit, as the same row of the split branch with its code (a split
  sends every row on each of its branches, whatever its share);
- under the polarizer neither mode has a single-reflection branch.

The half mirror's two weights sum to the incident weight exactly, and the
same one of them is the larger on every row (the forward tracer reads
which branch continues a path off the first row).  A lens passes no ray
outside its clear aperture.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmdsim.elements import (BRANCHES, Absorber, HalfMirror, PLATE_INTERACTIONS,
                             Screen, ThinLens, TmdPlate, classify_plate_modes,
                             leave, split_weights)
from tmdsim.geometry import (WEIGHT_CUTOFF, Pose, along_rows, normalize_rows,
                             orthonormal_frame, vec3)

# The golden scenes' general rigid motion (tests/test_*_golden.py).
TURN = orthonormal_frame(vec3(0.3, -0.5, 0.8), (0.6, 0.7, 0.2))
SHIFT = vec3(7.0, -4.0, 3.0)
POSE = Pose.facing(SHIFT, TURN @ vec3(0.0, 0.0, 1.0), TURN @ vec3(0.0, 1.0, 0.0))
SIDE = 40.0
PLATE = BRANCHES.index(PLATE_INTERACTIONS[0])  # branch of plate code 0
SINGLE = {PLATE + PLATE_INTERACTIONS.index(name)
          for name in ("single_reflect_u", "single_reflect_v")}
ABSORBED = PLATE_INTERACTIONS.index("absorbed")


def _hits(seed, n):
    """n rays hitting the plane of POSE inside a SIDE x SIDE square: (points,
    u, v, world directions, weights, draws).  The weights reach from below
    the cutoff to 1, and a split keeps every row."""
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-0.5 * SIDE, 0.5 * SIDE, (2, n))
    points = along_rows(along_rows(POSE.position, u, POSE.u_axis), v, POSE.v_axis)
    local = rng.normal(size=(n, 3))
    local[:, 2] = np.copysign(np.maximum(np.abs(local[:, 2]), 0.05), local[:, 2])
    directions = POSE.to_world_dirs(normalize_rows(local))
    weights = 10.0 ** rng.uniform(-5.0, 0.0, n)
    return points, u, v, directions, weights, rng.uniform(0.0, 1.0, n)


def _by_row(branches, n):
    """Each row's (code, exit point, exit direction), None where it takes
    no branch; fails if a row takes two."""
    rows = [None] * n
    for code, places, exits, dirs, _ in branches:
        places = range(n) if places is None else places.tolist()
        codes = np.broadcast_to(code, (len(places),))
        for j, i in enumerate(places):
            assert rows[i] is None, f"row {i} takes two branches"
            rows[i] = (int(codes[j]), exits[j], dirs[j])
    return rows


mode_weights = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(
    lambda w: tuple(x / max(1.0, sum(w)) for x in w))
plates = st.builds(
    lambda pitch, ratio, weights, polarizer, fill: TmdPlate(
        "plate", POSE, (SIDE, SIDE), pitch, ratio, weights, polarizer, fill),
    st.one_of(st.just(0.0), st.floats(0.01, 5.0)), st.floats(0.5, 5.0),
    mode_weights, st.booleans(), st.booleans())


@given(plates, st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_sampled_and_split_plate_branches_agree(plate, seed, n):
    points, u, v, directions, weights, draws = _hits(seed, n)
    sampled = leave(plate, points, u, v, directions, weights, draws)
    split = leave(plate, points, u, v, directions, weights)

    codes = classify_plate_modes(plate, POSE.to_local_dirs(directions), draws)
    taken = _by_row(sampled, n)
    for i, code in enumerate(codes.tolist()):
        if code == ABSORBED:
            assert taken[i] is None
        else:
            assert taken[i][0] == PLATE + code

    kept = {}  # (code, row) -> (exit point, exit direction) of the split
    for code, places, exits, dirs, _ in split:
        assert np.ndim(code) == 0
        assert places is None
        for i in range(n):
            kept[code, i] = exits[i], dirs[i]
    for i, row in enumerate(taken):
        if row is not None:
            want_point, want_dir = kept[row[0], i]
            assert row[1].tobytes() == want_point.tobytes()
            assert row[2].tobytes() == want_dir.tobytes()

    if plate.polarizer:
        assert not {code for code, *_ in split} & SINGLE
        assert not {row[0] for row in taken if row is not None} & SINGLE


@given(plates, st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_split_branches_are_the_nonzero_fractions(plate, seed, n):
    # Without a cutoff every row takes each branch whose fraction is
    # nonzero, weighted by that fraction; a zero fraction has no branch.
    points, u, v, directions, weights, _ = _hits(seed, n)
    _, p_s, p_p = plate.mode_weights
    single = 0.0 if plate.polarizer else 0.5 * p_s
    fixed = {PLATE + 1: single, PLATE + 2: single, PLATE + 3: p_p}
    split = leave(plate, points, u, v, directions, weights)
    codes = [code for code, *_ in split]
    want = ([PLATE] if plate.angular_fill or plate.mode_weights[0] else [])
    want += [code for code, frac in fixed.items() if frac]
    assert codes == want
    for code, places, _, _, share in split:
        assert places is None
        if code in fixed:
            assert share.tobytes() == (weights * fixed[code]).tobytes()


@given(st.floats(0.01, 0.99), st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_half_mirror_weights_sum_to_the_input(reflectance, seed, n):
    mirror = HalfMirror("half", POSE, (SIDE, SIDE), reflectance)
    points, u, v, directions, weights, _ = _hits(seed, n)
    (c_r, rows_r, at_r, _, w_r), (c_t, rows_t, at_t, d_t, w_t) = leave(
        mirror, points, u, v, directions, weights)
    assert (BRANCHES[c_r], BRANCHES[c_t]) == ("half_mirror_reflect",
                                              "half_mirror_transmit")
    assert rows_r is None and rows_t is None
    assert ((w_r + w_t) == weights).all()
    assert at_r is points and at_t is points and d_t is directions


# Weights a live ray can carry, from the cutoff to the emitted weight.
SPREAD = [WEIGHT_CUTOFF, math.nextafter(WEIGHT_CUTOFF, 1.0), 1e-3, 0.1, 1.0 / 3.0,
          0.5, 0.7, math.nextafter(1.0, 0.0), 1.0]


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.lists(st.floats(WEIGHT_CUTOFF, 1.0), min_size=1, max_size=60))
@example(0.5, SPREAD)
@example(0.5 - 2.0 ** -54, SPREAD)  # 1 - R rounds to 0.5: a tie on every row
@example(0.5 - 2.0 ** -53, SPREAD)
@example(math.nextafter(0.5, 1.0), SPREAD)
@settings(max_examples=300, deadline=None)
def test_one_half_mirror_share_is_the_larger_on_every_row(reflectance, weights):
    reflected, transmitted = split_weights(np.array(weights), reflectance)
    larger = reflected >= transmitted
    assert larger.all() or not larger.any()


@given(st.floats(2.0, 39.0), st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_lens_passes_only_its_clear_aperture(aperture, seed, n):
    lens = ThinLens("lens", POSE, 50.0, aperture, (SIDE, SIDE))
    points, u, v, directions, weights, _ = _hits(seed, n)
    (code, rows, exits, _, passed), = leave(lens, points, u, v, directions,
                                            weights)
    inside = np.flatnonzero(u * u + v * v <= (0.5 * aperture) ** 2)
    rows = np.arange(n) if rows is None else rows
    assert BRANCHES[code] == "lens"
    assert rows.tolist() == inside.tolist()
    assert exits.tobytes() == points[rows].tobytes()
    assert passed.tobytes() == weights[rows].tobytes()


def test_screens_and_absorbers_give_no_branch_and_others_raise():
    points, u, v, directions, weights, _ = _hits(0, 5)
    image = np.ones((2, 2))
    for el in (Screen("s", POSE, (SIDE, SIDE), image),
               Absorber("a", POSE, (SIDE, SIDE))):
        assert leave(el, points, u, v, directions, weights) == []
    with pytest.raises(TypeError, match="no interaction for element object"):
        leave(object(), points, u, v, directions, weights)
