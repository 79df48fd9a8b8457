"""Concrete scene representation: placed object instances and layout codecs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

#: Layout matrix column order.
LAYOUT_COLUMNS = ("t_x", "t_y", "t_z", "s_x", "s_y", "s_z", "cos_r", "sin_r")
LAYOUT_DIM = len(LAYOUT_COLUMNS)
# Padding rows carry a unit rotation so every row decodes to a valid pose.
PAD_ROW = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def normalize_angle(r: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (float(r) + math.pi) % (2.0 * math.pi) - math.pi


def value_eq(self, other):
    """Dataclass equality that compares array fields by value
    (``np.array_equal``), for frozen dataclasses holding arrays."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        if f.compare:
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
    return True


@dataclass(frozen=True)
class ObjectInstance:
    """One placed object.

    Attributes:
        category: integer category label in [0, k_c).
        location: (t_x, t_y, t_z) center position in meters.
        size: (s_x, s_y, s_z) full axis-aligned extents in meters.
        rotation: yaw around Z in radians, normalized to [-pi, pi).
        feature: appearance feature vector of dimension d.
        asset_id: optional identifier of the retrieved library asset.
    """

    category: int
    location: tuple[float, float, float]
    size: tuple[float, float, float]
    rotation: float
    feature: np.ndarray
    asset_id: str | None = None

    def __post_init__(self):
        if self.category < 0:
            raise ValueError("category label must be non-negative")
        loc = tuple(map(float, self.location))
        size = tuple(map(float, self.size))
        if len(loc) != 3 or len(size) != 3:
            raise ValueError("location and size must have three components")
        if min(size) <= 0:
            raise ValueError("sizes are full extents and must be positive")
        feature = np.array(self.feature, dtype=np.float64).reshape(-1)
        feature.flags.writeable = False
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rotation", normalize_angle(self.rotation))
        object.__setattr__(self, "feature", feature)

    __eq__ = value_eq


@dataclass(frozen=True)
class Scene:
    """A set of placed objects with a stable identifier."""

    id: str
    objects: tuple[ObjectInstance, ...] = field(default_factory=tuple)

    def __post_init__(self):
        objects = tuple(self.objects)
        if len(objects) < 1:
            raise ValueError("a scene holds at least one object")
        object.__setattr__(self, "objects", objects)

    @property
    def n_objects(self) -> int:
        return len(self.objects)


def layout_rows(objects) -> np.ndarray:
    """Stack objects into an (n, 8) layout matrix.

    Columns follow LAYOUT_COLUMNS; rotation is stored as the unit vector
    (cos r, sin r).
    """
    return np.array([(*o.location, *o.size, math.cos(o.rotation), math.sin(o.rotation))
                     for o in objects], dtype=np.float64).reshape(-1, LAYOUT_DIM)


def scene_to_layout(scene: Scene) -> np.ndarray:
    """The scene's (n, 8) layout matrix; see layout_rows."""
    return layout_rows(scene.objects)


def layout_row_to_pose(row) -> tuple[tuple[float, float, float], tuple[float, float, float], float]:
    """Split one layout row into (location, size, rotation).

    Sizes are clamped to a small positive floor so a decoded row always
    yields a valid object.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (LAYOUT_DIM,):
        raise ValueError(f"layout row must have {LAYOUT_DIM} entries")
    location = (float(row[0]), float(row[1]), float(row[2]))
    size = tuple(max(float(v), 1e-3) for v in row[3:6])
    rotation = math.atan2(float(row[7]), float(row[6]))
    return location, size, rotation
