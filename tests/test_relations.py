"""Relation rule tests: hand-evaluated cases, boundaries, and properties."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relation_cases import RELATION_CASES, Box
from scenediff import relations
from scenediff.relations import (
    FAR_DISTANCE,
    N_LABELS,
    NEAR_DISTANCE,
    RelationLabel,
    extract_relations,
    footprint_contains,
    inverse_relation,
    n_pairs,
    pair_index,
    pair_slots,
    relation_between,
    relation_labels,
)


def test_case_table_covers_every_label_four_times():
    assert len(RELATION_CASES) == 44
    counts = {}
    for _, _, expected, _ in RELATION_CASES:
        counts[expected] = counts.get(expected, 0) + 1
    assert set(counts) == set(RelationLabel)
    assert all(c == 4 for c in counts.values())


@pytest.mark.parametrize(
    "subject, obj, expected, note",
    RELATION_CASES,
    ids=[f"{c[2].name.lower()}-{i % 4}" for i, c in enumerate(RELATION_CASES)],
)
def test_hand_case(subject, obj, expected, note):
    assert relation_between(subject, obj) is expected, note


def test_label_count_and_values():
    assert N_LABELS == 11
    assert [int(label) for label in RelationLabel] == list(range(11))


def test_text_roundtrip():
    for label in RelationLabel:
        assert RelationLabel.from_text(label.text()) is label
    assert RelationLabel.from_text("closely left of") is RelationLabel.CLOSELY_LEFT_OF
    assert RelationLabel.from_text("  Behind ") is RelationLabel.BEHIND
    with pytest.raises(KeyError):
        RelationLabel.from_text("beside")


def test_inverse_relation_pairs():
    expected = {
        RelationLabel.LEFT_OF: RelationLabel.RIGHT_OF,
        RelationLabel.IN_FRONT_OF: RelationLabel.BEHIND,
        RelationLabel.CLOSELY_LEFT_OF: RelationLabel.CLOSELY_RIGHT_OF,
        RelationLabel.CLOSELY_IN_FRONT_OF: RelationLabel.CLOSELY_BEHIND,
        RelationLabel.ABOVE: RelationLabel.BELOW,
        RelationLabel.NONE: RelationLabel.NONE,
    }
    for label, inv in expected.items():
        assert inverse_relation(label) is inv
        assert inverse_relation(inv) is label
    for label in RelationLabel:
        assert inverse_relation(inverse_relation(label)) is label


def test_vertical_gap_must_be_strict():
    # dz equals the half-height sum exactly (0.75), so the pair stays
    # planar; zero planar offset lands in the right sector by atan2(0, 0).
    subject = Box((0.0, 0.0, 1.0), (0.3, 0.3, 0.5))
    obj = Box((0.0, 0.0, 0.25), (1.0, 1.0, 1.0))
    assert relation_between(subject, obj) is RelationLabel.CLOSELY_RIGHT_OF


def test_height_gap_without_footprint_overlap_stays_planar():
    high = Box((2.0, 0.0, 5.0), (0.4, 0.4, 0.4))
    low = Box((0.0, 0.0, 0.2), (0.4, 0.4, 0.4))
    assert relation_between(high, low) is RelationLabel.RIGHT_OF
    # Same with a tiny planar offset: close planar, never above.
    near_high = Box((0.1, 0.0, 5.0), (0.1, 0.1, 0.1))
    near_low = Box((0.0, 0.0, 0.05), (0.1, 0.1, 0.1))
    assert relation_between(near_high, near_low) is RelationLabel.CLOSELY_RIGHT_OF


def test_custom_thresholds():
    subject = Box((2.0, 0.0, 0.2), (0.4, 0.4, 0.4))
    obj = Box((0.0, 0.0, 0.2), (0.4, 0.4, 0.4))
    assert relation_between(subject, obj, near=2.0) is RelationLabel.CLOSELY_RIGHT_OF
    assert relation_between(subject, obj, far=1.5) is RelationLabel.NONE


def test_footprint_contains_is_center_in_box():
    table = Box((0.0, 0.0, 0.25), (1.0, 2.0, 0.5))
    assert footprint_contains(table, Box((0.5, -1.0, 2.0), (0.1, 0.1, 0.1)))
    assert not footprint_contains(table, Box((0.51, 0.0, 2.0), (0.1, 0.1, 0.1)))
    assert not footprint_contains(table, Box((0.0, 1.01, 2.0), (9.0, 9.0, 9.0)))


def test_pair_index_enumerates_upper_triangle():
    n = 5
    flat = [pair_index(j, k, n) for j in range(n) for k in range(j + 1, n)]
    assert flat == list(range(n_pairs(n)))
    assert n_pairs(5) == 10
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)
    with pytest.raises(ValueError):
        pair_index(3, 1, 5)
    with pytest.raises(ValueError):
        pair_index(0, 5, 5)
    for n in range(8):
        j, k = pair_slots(n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert list(zip(j.tolist(), k.tolist())) == pairs
        assert [pair_index(a, b, n) for a, b in pairs] == list(range(n_pairs(n)))
        with pytest.raises(ValueError):
            j[...] = 0
        with pytest.raises(ValueError):
            k[...] = 0


def test_extract_relations_matches_pairwise_calls():
    boxes = [
        Box((0.0, 0.0, 0.2), (0.4, 0.4, 0.4)),
        Box((-0.7, 0.0, 0.2), (0.4, 0.4, 0.4)),
        Box((0.0, -2.0, 0.2), (0.4, 0.4, 0.4)),
        Box((4.0, 4.0, 0.2), (0.4, 0.4, 0.4)),
    ]
    flat = extract_relations(boxes)
    assert len(flat) == n_pairs(4)
    for j in range(4):
        for k in range(j + 1, 4):
            assert flat[pair_index(j, k, 4)] is relation_between(boxes[j], boxes[k])


_coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
_extents = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)
_boxes = st.builds(
    Box,
    st.tuples(_coords, _coords, _coords),
    st.tuples(_extents, _extents, _extents),
)


@settings(max_examples=200, deadline=None)
@given(a=_boxes, b=_boxes)
def test_antisymmetry(a, b):
    # Coincident planar centers are degenerate (no direction to invert);
    # generated scenes always separate object centers.
    assume(a.location[0] != b.location[0] or a.location[1] != b.location[1])
    forward = relation_between(a, b)
    backward = relation_between(b, a)
    assert isinstance(forward, RelationLabel)
    assert backward is inverse_relation(forward)


@settings(max_examples=200, deadline=None)
@given(dx=_coords, dy=_coords, z=_coords)
def test_planar_bands(dx, dy, z):
    """With equal heights the label is decided purely by planar distance."""
    subject = Box((dx, dy, z), (0.4, 0.4, 0.4))
    obj = Box((0.0, 0.0, z), (0.4, 0.4, 0.4))
    label = relation_between(subject, obj)
    dist = math.hypot(dx, dy)
    if dist > FAR_DISTANCE:
        assert label is RelationLabel.NONE
    elif dist <= NEAR_DISTANCE:
        assert RelationLabel.CLOSELY_LEFT_OF <= label <= RelationLabel.CLOSELY_BEHIND
    else:
        assert RelationLabel.LEFT_OF <= label <= RelationLabel.BEHIND


# ---------------------------------------------------------------------------
# The array form of the rule


def _labels_of(subjects, objects, **thresholds):
    """relation_labels over boxes: subject i against object i."""
    boxes = list(subjects) + list(objects)
    n = len(subjects)
    return relation_labels(np.array([b.location for b in boxes]),
                           np.array([b.size for b in boxes]),
                           np.arange(n), np.arange(n, 2 * n), **thresholds)


def test_relation_labels_match_the_hand_cases():
    # 44 pairs in one call take the array path, not the scalar one.
    assert len(RELATION_CASES) >= relations._ARRAY_PAIRS
    got = _labels_of([s for s, *_ in RELATION_CASES], [o for _, o, *_ in RELATION_CASES])
    assert got.tolist() == [expected for _, _, expected, _ in RELATION_CASES]


def _edge_boxes(rng, n):
    """Seeded (subject, object) pairs whose planar distance lies within a
    few ulps of the near and far thresholds, or whose angle lies within a
    few ulps of a quadrant edge. Half of the objects sit at the origin, the
    others at random places, so the offsets are rounded differences. Both
    boxes are 0.4 cubes at one height, so no pair is vertical."""
    ulps = rng.integers(-4, 5, size=n) * np.finfo(float).eps
    origins = np.where(rng.random((n, 1)) < 0.5, 0.0, rng.uniform(-3.0, 3.0, (n, 2)))
    kind = rng.integers(3, size=n)
    radius = np.where(kind == 0, NEAR_DISTANCE, FAR_DISTANCE) * (1.0 + ulps)
    angle = rng.uniform(-math.pi, math.pi, n)
    edge = rng.choice([-3.0, -1.0, 1.0, 3.0], size=n) * math.pi / 4.0
    on_edge = kind == 2
    radius[on_edge] = rng.uniform(0.2, 3.2, on_edge.sum())
    angle[on_edge] = edge[on_edge] * (1.0 + ulps[on_edge])
    offsets = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    size = (0.4, 0.4, 0.4)
    objects = [Box((*o, 0.2), size) for o in origins.tolist()]
    subjects = [Box((*(o + d), 0.2), size) for o, d in zip(origins, offsets)]
    return subjects, objects


def _plain_port(subjects, objects):
    """The planar rule with numpy's hypot and arctan2 and nothing else."""
    d = np.array([s.location for s in subjects]) - np.array([o.location for o in objects])
    dist, theta = np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])
    q = math.pi / 4.0
    base = np.select([(-q <= theta) & (theta < q), (q <= theta) & (theta < 3.0 * q),
                      (-3.0 * q <= theta) & (theta < -q)],
                     [RelationLabel.RIGHT_OF, RelationLabel.IN_FRONT_OF, RelationLabel.BEHIND],
                     RelationLabel.LEFT_OF)
    base = np.where(dist <= NEAR_DISTANCE, base + 4, base)
    return np.where(dist > FAR_DISTANCE, RelationLabel.NONE, base)


def test_relation_labels_are_exact_at_the_thresholds():
    subjects, objects = _edge_boxes(np.random.default_rng(7), 30000)
    want = [relation_between(s, o) for s, o in zip(subjects, objects)]
    assert RelationLabel.ABOVE not in want and RelationLabel.BELOW not in want
    assert _labels_of(subjects, objects).tolist() == want
    # The set separates an exact form from a plain port: numpy's hypot and
    # arctan2 round some of these pairs to the other side of a threshold.
    assert (_plain_port(subjects, objects) != np.array(want)).any()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_relation_labels_follow_custom_thresholds_and_non_finite_input():
    rng = np.random.default_rng(3)
    boxes = [Box(rng.uniform(-3.0, 3.0, 3), rng.uniform(0.1, 2.0, 3)) for _ in range(400)]
    subjects, objects = boxes[:200], boxes[200:]
    for near, far in ((0.5, 2.0), (NEAR_DISTANCE, FAR_DISTANCE)):
        want = [relation_between(s, o, near=near, far=far) for s, o in zip(subjects, objects)]
        assert _labels_of(subjects, objects, near=near, far=far).tolist() == want
    odd = [Box((math.inf, 0.0, 0.0), (1.0, 1.0, 1.0)), Box((math.nan, 1.0, 0.0), (1.0, 1.0, 1.0)),
           Box((math.inf, math.inf, 0.0), (1.0, 1.0, 1.0)), Box((0.0, 0.0, 5.0), (1.0, 1.0, 1.0))]
    pairs = [(a, b) for a in odd for b in odd] * 3  # enough pairs for the array path
    want = [relation_between(a, b) for a, b in pairs]
    assert _labels_of(*zip(*pairs)).tolist() == want
