"""Pairwise spatial relation rules on the ground plane.

X and Y span the ground plane, Z points up. All distances are in meters.
Eleven labels: four far planar directions, four close planar directions,
above, below, and none. The planar direction between a subject s and an
object o comes from the angle of the center offset, theta = atan2(Ys - Yo,
Xs - Xo), split into four half-open quadrants; the close variants apply when
the planar center distance is at most ``near``, the far variants when it is
in (near, far], and ``none`` when it exceeds ``far``. Above/below require a
vertical center gap larger than the mean of the two heights plus a footprint
overlap, and take precedence over the planar rules.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

NEAR_DISTANCE = 1.0
FAR_DISTANCE = 3.0


class RelationLabel(enum.IntEnum):
    LEFT_OF = 0
    RIGHT_OF = 1
    IN_FRONT_OF = 2
    BEHIND = 3
    CLOSELY_LEFT_OF = 4
    CLOSELY_RIGHT_OF = 5
    CLOSELY_IN_FRONT_OF = 6
    CLOSELY_BEHIND = 7
    ABOVE = 8
    BELOW = 9
    NONE = 10

    def text(self) -> str:
        return self.name.lower().replace("_", " ")

    @classmethod
    def from_text(cls, text: str) -> "RelationLabel":
        key = text.strip().lower().replace(" ", "_")
        try:
            return cls[key.upper()]
        except KeyError:
            raise KeyError(f"unknown relation label {text!r}") from None


#: Number of distinct relation labels; matches SceneConfig.k_e.
N_LABELS = len(RelationLabel)

_CLOSE_SHIFT = RelationLabel.CLOSELY_LEFT_OF - RelationLabel.LEFT_OF


def inverse_relation(label: RelationLabel) -> RelationLabel:
    """Label seen from the other endpoint of the pair.

    Left/right, front/behind, and above/below swap; none is its own inverse.
    The enum is laid out so every direction pair differs in the lowest bit.
    """
    label = RelationLabel(label)
    if label is RelationLabel.NONE:
        return label
    return RelationLabel(label ^ 1)


def inverse_relations(labels) -> np.ndarray:
    """Array form of inverse_relation; labels past ``NONE`` (the empty and
    mask states of a graph's relation alphabet) pass through unchanged."""
    labels = np.asarray(labels, dtype=np.int64)
    return np.where(labels < RelationLabel.NONE, labels ^ 1, labels)


def footprint_contains(container, inner) -> bool:
    """True when ``inner``'s center lies inside ``container``'s ground box.

    The ground box is axis aligned with full extents ``size[0]`` x ``size[1]``
    centered on the container; rotation is ignored for this test.
    """
    return (
        abs(inner.location[0] - container.location[0]) <= container.size[0] / 2.0
        and abs(inner.location[1] - container.location[1]) <= container.size[1] / 2.0
    )


def relation_between(subject, obj, near: float = NEAR_DISTANCE,
                     far: float = FAR_DISTANCE) -> RelationLabel:
    """Relation label of ``subject`` relative to ``obj``.

    Vertical labels are checked first, then the far cutoff, then the planar
    quadrant with its near/far split. Total: every pair gets exactly one
    label. Boundary conventions: distance exactly ``near`` is close, exactly
    ``far`` is still a far planar label.
    """
    dx = subject.location[0] - obj.location[0]
    dy = subject.location[1] - obj.location[1]
    dz = subject.location[2] - obj.location[2]

    half_heights = (subject.size[2] + obj.size[2]) / 2.0
    if footprint_contains(obj, subject) or footprint_contains(subject, obj):
        if dz > half_heights:
            return RelationLabel.ABOVE
        if -dz > half_heights:
            return RelationLabel.BELOW

    dist = math.hypot(dx, dy)
    if dist > far:
        return RelationLabel.NONE

    theta = math.atan2(dy, dx)
    quarter = math.pi / 4.0
    if -quarter <= theta < quarter:
        base = RelationLabel.RIGHT_OF
    elif quarter <= theta < 3.0 * quarter:
        base = RelationLabel.IN_FRONT_OF
    elif -3.0 * quarter <= theta < -quarter:
        base = RelationLabel.BEHIND
    else:
        base = RelationLabel.LEFT_OF

    if dist <= near:
        return RelationLabel(base + _CLOSE_SHIFT)
    return base


_QUARTER = math.pi / 4.0
# numpy's hypot and arctan2 may differ from math.hypot and math.atan2 in the
# last bits, so distances and angles within this relative margin of a
# threshold are labelled by relation_between itself.
_EDGE = 1e-9
# Quadrant edges, each widened to a band: an angle in odd band 2i + 1 is
# near edge i, one in even band 2i lies between edges i - 1 and i.
_THETA_EDGES = np.array([b + s * _EDGE * abs(b)
                         for b in (-3.0 * _QUARTER, -_QUARTER, _QUARTER, 3.0 * _QUARTER)
                         for s in (-1.0, 1.0)])
_SECTOR_BASE = (RelationLabel.LEFT_OF, RelationLabel.BEHIND, RelationLabel.RIGHT_OF,
                RelationLabel.IN_FRONT_OF, RelationLabel.LEFT_OF)
# Planar label by (distance band, angle band): distance band 0 is close, 2
# far and 4 beyond far. Odd bands are labelled by relation_between, so their
# entries are never read.
_PLANAR = np.full((5, 9), int(RelationLabel.NONE), dtype=np.int64)
_PLANAR[0, ::2] = [int(b) + _CLOSE_SHIFT for b in _SECTOR_BASE]
_PLANAR[2, ::2] = [int(b) for b in _SECTOR_BASE]
# Below this many pairs, numpy's fixed cost per call exceeds the scalar rule's.
_ARRAY_PAIRS = 32


class _Box:
    """Location and size of one object, as relation_between reads them."""

    __slots__ = ("location", "size")

    def __init__(self, location, size):
        self.location, self.size = location, size


def relation_labels(locations, sizes, subjects, objects, near: float = NEAR_DISTANCE,
                    far: float = FAR_DISTANCE) -> np.ndarray:
    """Array form of relation_between over pairs of M objects.

    ``locations`` and ``sizes`` are (M, 3) arrays; entry p of the result is
    the label of object ``subjects[p]`` relative to object ``objects[p]``.
    The labels equal relation_between's bit for bit. The vertical rule uses
    the same float operations. The pairs whose distance or angle lies within
    a relative 1e-9 of a threshold, or is NaN, are labelled by
    relation_between on their own coordinates, and so is every pair of a
    call with fewer than _ARRAY_PAIRS pairs.
    """
    subjects, objects = np.asarray(subjects), np.asarray(objects)
    if subjects.shape[0] < _ARRAY_PAIRS:
        labels = np.empty(subjects.shape[0], dtype=np.int64)
        rescan = range(subjects.shape[0])
    else:
        d = locations[subjects] - locations[objects]
        half = sizes / 2.0
        ad = np.abs(d[:, :2])
        contains = ((ad <= half[objects, :2]).all(axis=1)
                    | (ad <= half[subjects, :2]).all(axis=1))
        half_heights = (sizes[subjects, 2] + sizes[objects, 2]) / 2.0
        up = d[:, 2] > half_heights
        vertical = contains & (up | (-d[:, 2] > half_heights))
        theta = np.arctan2(d[:, 1], d[:, 0])
        band = np.searchsorted([near - _EDGE * near, near + _EDGE * near,
                                far - _EDGE * far, far + _EDGE * far],
                               np.hypot(d[:, 0], d[:, 1]))
        sector = np.searchsorted(_THETA_EDGES, theta)
        labels = np.where(vertical, np.where(up, RelationLabel.ABOVE, RelationLabel.BELOW),
                          _PLANAR[band, sector])
        rescan = np.flatnonzero((band | sector) & 1 | np.isnan(theta)).tolist()
    if rescan:
        boxes = list(map(_Box, locations.tolist(), sizes.tolist()))
        subjects, objects = subjects.tolist(), objects.tolist()
        for p in rescan:
            labels[p] = relation_between(boxes[subjects[p]], boxes[objects[p]],
                                         near=near, far=far)
    return labels


def pair_index(j: int, k: int, n: int) -> int:
    """Flat index of the unordered pair (j, k), j < k, in row-major upper
    triangle order over n slots."""
    if not 0 <= j < k < n:
        raise ValueError(f"need 0 <= j < k < n, got j={j} k={k} n={n}")
    return j * n - j * (j + 1) // 2 + (k - j - 1)


def n_pairs(n: int) -> int:
    return n * (n - 1) // 2


@functools.cache
def pair_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only slot arrays (j, k) of every pair j < k over n slots, in
    ``pair_index`` order: pair p joins slots j[p] and k[p]."""
    slots = np.triu_indices(n, 1)
    for arr in slots:
        arr.flags.writeable = False
    return slots


def extract_relations(objects, near: float = NEAR_DISTANCE,
                      far: float = FAR_DISTANCE) -> list[RelationLabel]:
    """Relation labels for all ordered pairs j < k of ``objects``.

    Returns a flat list in ``pair_index`` order: entry for (j, k) is the
    label of subject j relative to object k. The label for (k, j) is the
    inverse and is not stored.
    """
    objs = list(objects)
    return [relation_between(objs[j], objs[k], near=near, far=far)
            for j, k in zip(*pair_slots(len(objs)))]
