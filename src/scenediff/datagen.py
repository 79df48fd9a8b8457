"""Procedural scene datasets with known structure.

Scenes are built so that every probabilistic component has checkable ground
truth: object features cluster by named style, which lets a freshly fitted
codebook recover one code signature per style; horizontal placements are
sampled inside the open sectors of the relation extractor, so the stored
relation labels re-extract exactly from geometry; the toy support enumerates
a handful of scene variants with fixed layouts and known multiplicities, so
sampled graph distributions can be compared against exact frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SceneConfig
from .errors import DatasetError
from .graph import GraphArrays, SemanticGraph, canonicalize_scene, derive_graph_arrays
from .instructions import Instruction, StyleConstraint
from .quantizer import Codebook, fit_codebook
from .relations import RelationLabel, n_pairs, pair_slots
from .scene import LAYOUT_DIM, PAD_ROW, ObjectInstance, Scene, value_eq

# Bound on the temporaries of derive_graphs_and_layouts, per chunk of scenes.
_DERIVE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Asset:
    """Retrievable library entry: a concrete mesh stand-in."""

    asset_id: str
    category: int
    feature: np.ndarray
    size: tuple[float, float, float]

    def __post_init__(self):
        feat = np.array(self.feature, dtype=np.float64)
        feat.flags.writeable = False
        object.__setattr__(self, "feature", feat)

    __eq__ = value_eq


@dataclass(frozen=True)
class AssetLibrary:
    assets: tuple[Asset, ...]
    _encoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate asset ids")

    def __iter__(self):
        return iter(self.assets)

    def __len__(self):
        return len(self.assets)

    def get(self, asset_id: str) -> Asset:
        for a in self.assets:
            if a.asset_id == asset_id:
                return a
        raise KeyError(asset_id)

    def of_category(self, category: int) -> list[Asset]:
        return sorted((a for a in self.assets if a.category == category),
                      key=lambda a: a.asset_id)

    def encoded(self, codebook: Codebook) -> dict[int, tuple[tuple[Asset, ...], np.ndarray]]:
        """Per category, its assets in id order and their (k, n_f) codes under
        ``codebook``. Each asset is encoded once per codebook; later calls
        return the stored table."""
        key = (codebook.n_f, codebook.entries.shape, codebook.entries.tobytes())
        table = self._encoded.get(key)
        if table is None:
            table = {}
            for category in sorted({a.category for a in self.assets}):
                assets = tuple(self.of_category(category))
                table[category] = (assets,
                                   codebook.encode(np.stack([a.feature for a in assets])))
            self._encoded[key] = table
        return table


@dataclass(frozen=True)
class DatasetBundle:
    """Everything a two-stage model needs about one scene family.

    The dataset is held as stacked arrays: ``graph_arrays`` has scene i's
    padded labels in row i, and ``layouts`` (n_scenes, n_max, LAYOUT_DIM)
    its padded layout. ``graphs``, one SemanticGraph per scene, is built
    from the arrays on first access; loading a bundle and building a
    pipeline never ask for it.
    """

    config: SceneConfig
    scenes: tuple[Scene, ...]
    graph_arrays: GraphArrays
    layouts: np.ndarray  # (n_scenes, n_max, LAYOUT_DIM), padded
    codebook: Codebook
    library: AssetLibrary
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if len(self.scenes) != len(self.graph_arrays) or \
                len(self.scenes) != self.layouts.shape[0]:
            raise ValueError("scenes, graphs, and layouts must align")
        arr = np.asarray(self.layouts, dtype=np.float64).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "layouts", arr)

    @property
    def n_scenes(self) -> int:
        return len(self.scenes)

    @property
    def graphs(self) -> tuple[SemanticGraph, ...]:
        return self.graph_arrays.graphs

    def layout_pairs(self) -> list[tuple[SemanticGraph, np.ndarray]]:
        return [(g, self.layouts[i]) for i, g in enumerate(self.graphs)]


def pad_layout(layout: np.ndarray, n_max: int) -> np.ndarray:
    layout = np.asarray(layout, dtype=np.float64)
    if layout.ndim != 2 or layout.shape[1] != LAYOUT_DIM:
        raise ValueError("layout must be (n, 8)")
    if layout.shape[0] > n_max:
        raise ValueError("more rows than slots")
    out = np.tile(PAD_ROW, (n_max, 1))
    out[: layout.shape[0]] = layout
    return out


def derive_graphs_and_layouts(scenes, codebook: Codebook, config: SceneConfig):
    """Padded label arrays and padded layouts of a scene family, as a
    bundle stores them: ``(graph_arrays, layouts)`` with layouts shaped
    (n_scenes, n_max, LAYOUT_DIM).

    Scenes go in chunks whose temporaries stay within _DERIVE_CHUNK_BYTES;
    derive_graph_arrays derives each chunk at n_max slots into its rows of
    the output arrays. No SemanticGraph is built. Raises ValueError when
    there are no scenes or a scene does not fit ``config``.
    """
    scenes = tuple(scenes)
    if not scenes:
        raise ValueError("need at least one scene")
    n, n_f, size = config.n_max, config.n_f, len(scenes)
    # Per object: its feature, room for two of the encoder's (k_f, d)
    # distance arrays, its layout row and list entries; per pair: the
    # relation rule's temporaries; per scene: its padded labels and layout.
    per_scene = 8 * (n * (config.d * (1 + 2 * config.k_f) + 2 * LAYOUT_DIM + 32)
                     + 24 * n_pairs(n) + n * (1 + n_f) + n_pairs(n))
    chunk = max(1, _DERIVE_CHUNK_BYTES // per_scene)
    cats = np.empty((size, n), dtype=np.int64)
    codes = np.empty((size, n, n_f), dtype=np.int64)
    rels = np.empty((size, n_pairs(n)), dtype=np.int64)
    layouts = np.empty((size, n, LAYOUT_DIM), dtype=np.float64)
    for lo in range(0, size, chunk):
        part = slice(lo, lo + chunk)
        cats[part], codes[part], rels[part], layouts[part] = derive_graph_arrays(
            scenes[part], codebook, config, n)
    return GraphArrays(cats, codes, rels, k_c=config.k_c, k_f=config.k_f,
                       k_e=config.k_e), layouts


# Quadrant centers for deliberate horizontal placement, in the order
# (left, right, behind, front) relative to the anchor.
_SECTOR_CENTERS = {
    RelationLabel.LEFT_OF: math.pi,
    RelationLabel.RIGHT_OF: 0.0,
    RelationLabel.BEHIND: -math.pi / 2.0,
    RelationLabel.IN_FRONT_OF: math.pi / 2.0,
}
_SECTOR_MARGIN = 0.12
_NEAR_BAND = (0.45, 0.93)
_FAR_BAND = (1.4, 2.7)


def _place_relative(anchor_xy, label: RelationLabel, closely: bool,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Position whose extracted relation to the anchor is exactly the label."""
    center = _SECTOR_CENTERS[label]
    angle = center + rng.uniform(-(math.pi / 4.0 - _SECTOR_MARGIN),
                                 math.pi / 4.0 - _SECTOR_MARGIN)
    lo, hi = _NEAR_BAND if closely else _FAR_BAND
    d = rng.uniform(lo, hi)
    return (anchor_xy[0] + d * math.cos(angle), anchor_xy[1] + d * math.sin(angle))


def _style_features(config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Well separated style centroids, one per style name."""
    n_styles = len(config.style_names)
    if n_styles < 1:
        raise ValueError("dataset generation needs named styles")
    if config.k_f != n_styles:
        raise ValueError(
            "the code alphabet must have one entry per style so that a fitted "
            f"codebook recovers styles exactly (k_f={config.k_f}, styles={n_styles})"
        )
    return rng.normal(0.0, 2.0, size=(n_styles, config.d))


def _category_sizes(config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.3, 1.2, size=(config.k_c, 3))


# Further k-means++ starts after the seeded codebook fit fails to separate
# the styles, each from its own child of the dataset seed.
_CODEBOOK_RETRIES = 4


def _fit_style_codebook(config: SceneConfig, centroids: np.ndarray,
                        features: np.ndarray, seed: int):
    """Fit the codebook and attach recovered per-style signatures.

    The fit seeded with ``seed`` runs first; while two styles share a
    signature, the fit restarts from the next of _CODEBOOK_RETRIES children
    of SeedSequence(seed). Raises DatasetError when every start fails.
    """
    for start in [seed, *np.random.SeedSequence(seed).spawn(_CODEBOOK_RETRIES)]:
        codebook = fit_codebook(features, config.k_f, config.n_f, seed=start)
        signatures = [tuple(row) for row in codebook.encode(centroids).tolist()]
        if len(set(signatures)) == len(signatures):
            return codebook, config.with_style_codes(tuple(signatures))
    raise DatasetError("codebook failed to separate the style centroids")


def _build_library(config: SceneConfig, centroids: np.ndarray,
                   sizes: np.ndarray) -> AssetLibrary:
    assets = []
    for c in range(config.k_c):
        for s in range(len(config.style_names)):
            assets.append(Asset(
                asset_id=f"asset-{c:02d}-{s:02d}",
                category=c,
                feature=centroids[s],
                size=tuple(float(v) for v in sizes[c]),
            ))
    return AssetLibrary(tuple(assets))


def _on_floor(size) -> float:
    return float(size[2]) / 2.0


def generate_dataset(config: SceneConfig, n_scenes: int, seed: int = 0) -> DatasetBundle:
    """Sample a scene family with style-clustered features.

    Every scene picks two to four objects, assigns each a category and a
    style, and chains horizontal placements so each new object stands in a
    deliberately sampled relation to an earlier one. Object features equal
    their style centroid, so quantization, stylization ground truth, and
    asset retrieval are all exact.
    """
    if n_scenes < 1:
        raise ValueError("need at least one scene")
    rng = np.random.default_rng(seed)
    centroids = _style_features(config, rng)
    sizes = _category_sizes(config, rng)
    n_styles = len(config.style_names)

    raw_scenes = []
    top = min(4, config.n_max)
    for i in range(n_scenes):
        n_obj = int(rng.integers(2, top + 1))
        cats = rng.integers(config.k_c, size=n_obj)
        styles = rng.integers(n_styles, size=n_obj)
        objects = []
        for j in range(n_obj):
            size = tuple(float(v) for v in sizes[cats[j]])
            if j == 0:
                xy = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
            else:
                anchor = int(rng.integers(j))
                label = RelationLabel(int(rng.choice([0, 1, 2, 3])))
                closely = bool(rng.integers(2))
                ax = objects[anchor].location
                xy = _place_relative((ax[0], ax[1]), label, closely, rng)
            objects.append(ObjectInstance(
                category=int(cats[j]),
                location=(xy[0], xy[1], _on_floor(sizes[cats[j]])),
                size=size,
                rotation=float(rng.uniform(-math.pi, math.pi)),
                feature=centroids[styles[j]],
                asset_id=f"asset-{int(cats[j]):02d}-{int(styles[j]):02d}",
            ))
        raw_scenes.append(canonicalize_scene(Scene(id=f"scene-{i:04d}", objects=tuple(objects))))

    features = np.stack([o.feature for s in raw_scenes for o in s.objects])
    codebook, recovered = _fit_style_codebook(config, centroids, features, seed)
    library = _build_library(recovered, centroids, sizes)

    arrays, layouts = derive_graphs_and_layouts(raw_scenes, codebook, recovered)
    return DatasetBundle(
        config=recovered,
        scenes=tuple(raw_scenes),
        graph_arrays=arrays,
        layouts=layouts,
        codebook=codebook,
        library=library,
        instructions=tuple(_sample_instruction_pool(arrays, recovered, rng)),
    )


def _sample_instruction_pool(arrays: GraphArrays, config: SceneConfig,
                             rng: np.random.Generator, limit: int = 16):
    """A few single-triplet instructions the dataset demonstrably satisfies."""
    pool = []
    seen = set()
    j, k = pair_slots(arrays.n_slots)
    for cats, rels in zip(arrays.categories, arrays.relations):
        cj, ck = cats[j], cats[k]
        keep = (cj < config.k_c) & (ck < config.k_c) & (rels < RelationLabel.NONE)
        for trip in zip(cj[keep].tolist(), map(RelationLabel, rels[keep].tolist()),
                        ck[keep].tolist()):
            if trip not in seen:
                seen.add(trip)
                pool.append(Instruction(triplets=(trip,)))
            if len(pool) >= limit:
                return pool
    return pool


# ---------------------------------------------------------------------------
# Toy support: eight scene variants with fixed layouts and multiplicities.

TOY_CATEGORIES = ("table", "chair", "lamp", "shelf")
TOY_STYLES = ("oak", "walnut")
# (chair closely?, third category, chair style) -> dataset count
TOY_VARIANTS = (
    (False, "lamp", "oak", 4),
    (False, "lamp", "walnut", 3),
    (False, "shelf", "oak", 3),
    (False, "shelf", "walnut", 2),
    (True, "lamp", "oak", 2),
    (True, "lamp", "walnut", 2),
    (True, "shelf", "oak", 1),
    (True, "shelf", "walnut", 1),
)
_TOY_SIZES = {
    "table": (1.2, 0.8, 0.5),
    "chair": (0.5, 0.5, 0.9),
    "lamp": (0.3, 0.3, 1.5),
    "shelf": (0.8, 0.3, 1.8),
}


def toy_variant_scene(index: int, config: SceneConfig, centroids: np.ndarray,
                      scene_id: str) -> Scene:
    """Fixed-geometry realization of one toy variant."""
    closely, third, chair_style, _ = TOY_VARIANTS[index]
    style_idx = {name: i for i, name in enumerate(TOY_STYLES)}
    chair_x = -0.7 if closely else -2.0

    def obj(name: str, style: str, x: float, y: float) -> ObjectInstance:
        size = _TOY_SIZES[name]
        return ObjectInstance(
            category=config.category_index(name),
            location=(x, y, size[2] / 2.0),
            size=size,
            rotation=0.0,
            feature=centroids[style_idx[style]],
            asset_id=f"asset-{config.category_index(name):02d}-{style_idx[style]:02d}",
        )

    scene = Scene(id=scene_id, objects=(
        obj("table", "oak", 0.0, 0.0),
        obj("chair", chair_style, chair_x, 0.0),
        obj(third, "oak", 0.0, -2.0),
    ))
    return canonicalize_scene(scene)


def toy_support(seed: int = 0, n_max: int = 4) -> DatasetBundle:
    """Small scene family whose graph distribution is known exactly.

    Eight variants of a three-object room: a table anchors the scene, a
    chair stands left of it (either closely or at distance), and either a
    lamp or a shelf stands behind it. Chair style varies between oak and
    walnut; everything else is oak. Layouts are fixed per variant, so the
    exact layout denoiser is a lookup, and the dataset multiplicities give
    the target distribution for distribution-matching checks.
    """
    base = SceneConfig(
        category_names=TOY_CATEGORIES,
        k_f=len(TOY_STYLES),
        n_f=4,
        n_max=n_max,
        d=16,
        style_names=TOY_STYLES,
    )
    rng = np.random.default_rng(seed)
    centroids = _style_features(base, rng)

    scenes = []
    for v, (_, _, _, count) in enumerate(TOY_VARIANTS):
        for r in range(count):
            scenes.append(toy_variant_scene(v, base, centroids, f"toy-{v}-{r}"))

    features = np.stack([o.feature for s in scenes for o in s.objects])
    codebook, recovered = _fit_style_codebook(base, centroids, features, seed)
    library = _build_library(recovered, centroids,
                             np.array([_TOY_SIZES[c] for c in TOY_CATEGORIES]))
    arrays, layouts = derive_graphs_and_layouts(scenes, codebook, recovered)
    return DatasetBundle(
        config=recovered,
        scenes=tuple(scenes),
        graph_arrays=arrays,
        layouts=layouts,
        codebook=codebook,
        library=library,
        instructions=toy_instructions(recovered),
    )


def toy_instructions(config: SceneConfig) -> tuple[Instruction, ...]:
    """Ten instructions, each satisfied by at least two toy variants."""
    cat = config.category_index
    L = RelationLabel

    def style(name: str, category: str | None = None) -> StyleConstraint:
        return StyleConstraint(
            codes=config.style_signature(name),
            category=None if category is None else cat(category),
        )

    chair_left = (cat("chair"), L.LEFT_OF, cat("table"))
    chair_close = (cat("chair"), L.CLOSELY_LEFT_OF, cat("table"))
    lamp_behind = (cat("lamp"), L.BEHIND, cat("table"))
    shelf_behind = (cat("shelf"), L.BEHIND, cat("table"))
    return (
        Instruction(triplets=(chair_left,)),
        Instruction(triplets=(chair_close,)),
        Instruction(triplets=(lamp_behind,)),
        Instruction(triplets=(shelf_behind,)),
        Instruction(triplets=(chair_left,), style=style("oak", "chair")),
        Instruction(style=style("walnut", "chair")),
        Instruction(style=style("oak")),
        Instruction(triplets=(lamp_behind, chair_left)),
        Instruction(triplets=(shelf_behind,), style=style("walnut", "chair")),
        Instruction(triplets=(chair_close, lamp_behind)),
    )


def toy_variant_map(bundle: DatasetBundle) -> dict[bytes, int]:
    """Graph key to toy variant index, for classifying sampled graphs."""
    keys: dict[bytes, int] = {}
    for scene, row in zip(bundle.scenes, bundle.graph_arrays.label_rows()):
        keys.setdefault(row.tobytes(), int(scene.id.split("-")[1]))
    return keys


def toy_variant_of(graph: SemanticGraph, bundle: DatasetBundle) -> int | None:
    """Index of the toy variant a graph realizes, or None if off support."""
    return toy_variant_map(bundle).get(graph.key())


def toy_target_distribution(bundle: DatasetBundle) -> np.ndarray:
    counts = np.array([c for *_, c in TOY_VARIANTS], dtype=np.float64)
    return counts / counts.sum()
