"""Semantic scene graphs: categories, quantized appearance codes, relations.

Every categorical variable with k real labels lives in an alphabet of k + 2
states: the real labels 0..k-1, the padding state ``empty`` at index k, and
the corruption state ``mask`` at index k + 1. Clean graphs never contain
masks; padded slots use empty consistently across categories, codes and
incident relations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import SceneConfig
from .relations import inverse_relations, n_pairs, pair_index, pair_slots, relation_labels
from .scene import LAYOUT_DIM, PAD_ROW, Scene, layout_rows


def empty_state(k: int) -> int:
    return k


def mask_state(k: int) -> int:
    return k + 1


@dataclass(frozen=True)
class SemanticGraph:
    """Discrete scene graph over n object slots.

    Attributes:
        categories: (n,) int labels, values in [0, k_c + 1].
        codes: (n, n_f) int labels, values in [0, k_f + 1].
        relations: (n * (n - 1) / 2,) int labels in pair_index order for
            slot pairs j < k, values in [0, k_e + 1]. The relation of the
            flipped pair is obtained through inverse_relation.
        k_c, k_f, k_e: real vocabulary sizes for the three variable kinds.

    Graphs holding mask states are valid intermediate diffusion states.
    """

    categories: np.ndarray
    codes: np.ndarray
    relations: np.ndarray
    k_c: int
    k_f: int
    k_e: int = 11

    def __post_init__(self):
        cats = np.array(self.categories, dtype=np.int64)
        codes = np.array(self.codes, dtype=np.int64)
        rels = np.array(self.relations, dtype=np.int64)
        n = cats.shape[0]
        if cats.ndim != 1:
            raise ValueError("categories must be one-dimensional")
        if codes.shape[0] != n or codes.ndim != 2:
            raise ValueError("codes must have shape (n, n_f)")
        if rels.shape != (n_pairs(n),):
            raise ValueError("relations must hold one label per slot pair j < k")
        for arr, k in ((cats, self.k_c), (codes, self.k_f), (rels, self.k_e)):
            # Read as unsigned, a negative label is huge: one max checks both
            # ends. A graph's few labels are quicker to scan as a list.
            if arr.size and max(arr.view(np.uint64).ravel().tolist()) > mask_state(k):
                raise ValueError("label outside its alphabet")
        for arr in (cats, codes, rels):
            arr.flags.writeable = False
        object.__setattr__(self, "categories", cats)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "relations", rels)

    @property
    def n_slots(self) -> int:
        return self.categories.shape[0]

    @property
    def n_f(self) -> int:
        return self.codes.shape[1]

    @property
    def n_objects(self) -> int:
        """Number of slots holding a real category label."""
        return int((self.categories < self.k_c).sum())

    def has_mask(self) -> bool:
        return bool(
            (self.categories == mask_state(self.k_c)).any()
            or (self.codes == mask_state(self.k_f)).any()
            or (self.relations == mask_state(self.k_e)).any()
        )

    def relation(self, j: int, k: int) -> int:
        """Directed relation label of subject slot j relative to slot k."""
        if j == k:
            raise ValueError("no self relation")
        if j < k:
            return int(self.relations[pair_index(j, k, self.n_slots)])
        return int(inverse_relations(self.relations[pair_index(k, j, self.n_slots)]))

    def empty_consistent(self) -> bool:
        """True when every empty slot has all-empty codes and relations and
        every real slot has real codes and real relations to real slots."""
        is_empty = self.categories == empty_state(self.k_c)
        is_real = self.categories < self.k_c
        if not (is_empty | is_real).all():
            return False
        codes_empty = (self.codes == empty_state(self.k_f)).all(axis=1)
        codes_real = (self.codes < self.k_f).all(axis=1)
        if not (codes_empty[is_empty].all() and codes_real[is_real].all()):
            return False
        j, k = pair_slots(self.n_slots)
        both_real = is_real[j] & is_real[k]
        return bool((self.relations[both_real] < self.k_e).all()
                    and (self.relations[~both_real] == empty_state(self.k_e)).all())

    def key(self) -> bytes:
        """Hashable content key; equal keys mean equal graphs of one shape."""
        return (
            self.categories.tobytes()
            + self.codes.tobytes()
            + self.relations.tobytes()
        )

    def __eq__(self, other):
        if not isinstance(other, SemanticGraph):
            return NotImplemented
        return (
            (self.k_c, self.k_f, self.k_e) == (other.k_c, other.k_f, other.k_e)
            and self.categories.shape == other.categories.shape
            and self.codes.shape == other.codes.shape
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.k_c, self.k_f, self.k_e, self.n_slots, self.n_f, self.key()))


def distinct_rows(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array, numbered in order of first
    appearance: ``(first, inverse, counts)``, where row ``first[u]`` is the
    first of the ``counts[u]`` rows equal to it, and row i equals row
    ``first[inverse[i]]``. Rows compare by their bytes.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse], counts[order]


@dataclass(frozen=True, eq=False)
class GraphArrays:
    """N semantic graphs of one shape as stacked label arrays.

    Attributes:
        categories: (N, n) int labels; row i is graph i's categories.
        codes: (N, n, n_f) int labels.
        relations: (N, n_pairs(n)) int labels in pair_index order.
        k_c, k_f, k_e: real vocabulary sizes, as in SemanticGraph.

    The arrays are converted to int64 without a copy when they already are,
    and made read-only. SemanticGraph objects are built only on request:
    ``graph(i)`` builds one, ``graphs`` all N once, on first access.
    """

    categories: np.ndarray
    codes: np.ndarray
    relations: np.ndarray
    k_c: int
    k_f: int
    k_e: int = 11

    def __post_init__(self):
        arrays = [np.ascontiguousarray(a, dtype=np.int64)
                  for a in (self.categories, self.codes, self.relations)]
        cats, codes, rels = arrays
        if cats.ndim != 2 or codes.ndim != 3 or codes.shape[:2] != cats.shape:
            raise ValueError("need categories (N, n) and codes (N, n, n_f)")
        if rels.shape != (cats.shape[0], n_pairs(cats.shape[1])):
            raise ValueError("relations must hold one label per slot pair j < k")
        for name, arr, k in zip(("categories", "codes", "relations"), arrays,
                                (self.k_c, self.k_f, self.k_e)):
            # As in SemanticGraph, one max of the unsigned view checks both ends.
            if arr.size and arr.view(np.uint64).max() > mask_state(k):
                raise ValueError("label outside its alphabet")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_graphs(cls, graphs) -> "GraphArrays":
        """Stack SemanticGraphs of one shape and vocabulary."""
        graphs = list(graphs)
        if not graphs:
            raise ValueError("empty graph dataset")
        if len({(g.codes.shape, g.k_c, g.k_f, g.k_e) for g in graphs}) != 1:
            raise ValueError("dataset graphs must share shape and vocabulary")
        return cls(np.stack([g.categories for g in graphs]), np.stack([g.codes for g in graphs]),
                   np.stack([g.relations for g in graphs]),
                   k_c=graphs[0].k_c, k_f=graphs[0].k_f, k_e=graphs[0].k_e)

    def __len__(self) -> int:
        return self.categories.shape[0]

    @property
    def n_slots(self) -> int:
        return self.categories.shape[1]

    @property
    def n_f(self) -> int:
        return self.codes.shape[2]

    def label_rows(self) -> np.ndarray:
        """(N, width) rows of categories, codes and relations side by side;
        row i's bytes are ``graph(i).key()``."""
        return np.concatenate([self.categories, self.codes.reshape(len(self), -1),
                               self.relations], axis=1)

    @functools.cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """distinct_rows of the label rows: the distinct graphs in order of
        first appearance, computed once."""
        return distinct_rows(self.label_rows())

    def graph(self, i: int) -> SemanticGraph:
        return SemanticGraph(self.categories[i], self.codes[i], self.relations[i],
                             k_c=self.k_c, k_f=self.k_f, k_e=self.k_e)

    @functools.cached_property
    def graphs(self) -> tuple[SemanticGraph, ...]:
        return tuple(self.graph(i) for i in range(len(self)))


def _scene_objects(scenes, config: SceneConfig, n_slots: int):
    """Per-scene object counts, every object in scene order, their
    categories (lists) and their features stacked. ValueError unless every
    scene fits: at most ``n_slots`` objects, categories inside the
    vocabulary, features of dimension d."""
    if not scenes:
        raise ValueError("need at least one scene")
    counts = [s.n_objects for s in scenes]
    if max(counts) > n_slots:
        n = next(n for n in counts if n > n_slots)
        raise ValueError(f"a scene holds {n} objects, more than {n_slots} slots")
    objects = [o for s in scenes for o in s.objects]
    cats = [o.category for o in objects]
    if max(cats) >= config.k_c:
        c = next(c for c in cats if c >= config.k_c)
        raise ValueError(f"category {c} outside vocabulary of {config.k_c}")
    try:
        features = np.array([o.feature for o in objects])
    except ValueError:  # features of different lengths
        features = None
    if features is None or features.shape[1] != config.d:
        raise ValueError("object feature dimension disagrees with config")
    return counts, objects, cats, features


@functools.cache
def _filled_slots(n_slots: int) -> np.ndarray:
    """Read-only (n_slots + 1, n_slots) table: row n marks the first n slots."""
    table = np.arange(n_slots) < np.arange(n_slots + 1)[:, None]
    table.flags.writeable = False
    return table


def check_scenes_fit(scenes, config: SceneConfig, n_slots: int | None = None) -> None:
    """Raise ValueError unless every scene fits ``config``: at most ``n_slots``
    objects (default ``n_max``), categories inside the vocabulary, features
    of dimension d."""
    _scene_objects(tuple(scenes), config, config.n_max if n_slots is None else n_slots)


def derive_graph_arrays(scenes, codebook, config: SceneConfig, n_slots: int):
    """Semantic graphs and layouts of scenes as padded arrays over n_slots
    slots.

    Returns (categories (S, n_slots), codes (S, n_slots, n_f), relations
    (S, n_pairs(n_slots)), layouts (S, n_slots, LAYOUT_DIM)). Object i of a
    scene fills slot i; the slots past its objects hold empty labels and
    PAD_ROW. Every object's category, codes (one ``codebook.encode`` of all
    features stacked) and layout row go to its (scene, slot) cell in one
    scatter per array, and the relations of every pair j < k of every scene
    come from one ``relation_labels`` call. Raises ValueError when a scene
    does not fit (see check_scenes_fit).
    """
    if codebook.d != config.d:
        raise ValueError(f"codebook dimension {codebook.d} != config d {config.d}")
    if codebook.n_f != config.n_f or codebook.k_f != config.k_f:
        raise ValueError("codebook shape disagrees with config")
    counts, objects, cats, features = _scene_objects(tuple(scenes), config, n_slots)
    # The cells holding an object, in scene then slot order: the objects' order.
    real = _filled_slots(n_slots)[counts]
    n_scenes = real.shape[0]
    out_cats = np.full((n_scenes, n_slots), empty_state(config.k_c), dtype=np.int64)
    out_cats[real] = cats
    out_codes = np.full((n_scenes, n_slots, config.n_f), empty_state(config.k_f),
                        dtype=np.int64)
    out_codes[real] = codebook.encode(features)
    layouts = np.empty((n_scenes, n_slots, LAYOUT_DIM), dtype=np.float64)
    layouts[:] = PAD_ROW
    layouts[real] = layout_rows(objects)
    # Pair p joins slots j[p] < k[p]; a scene holds it when slot k[p] is filled.
    j, k = pair_slots(n_slots)
    held = real[:, k]
    pair_scene, p = np.nonzero(held)
    first = pair_scene * n_slots
    cells = layouts.reshape(-1, LAYOUT_DIM)
    out_rels = np.full((n_scenes, n_pairs(n_slots)), empty_state(config.k_e), dtype=np.int64)
    out_rels[held] = relation_labels(cells[:, 0:3], cells[:, 3:6], first + j[p], first + k[p])
    return out_cats, out_codes, out_rels, layouts


def derive_semantic_graph(scene: Scene, codebook, config: SceneConfig,
                          n_slots: int | None = None) -> SemanticGraph:
    """Encode a scene into its semantic graph over ``n_slots`` slots, by
    default one per object (unpadded); see derive_graph_arrays."""
    n_slots = scene.n_objects if n_slots is None else n_slots
    cats, codes, rels, _ = derive_graph_arrays((scene,), codebook, config, n_slots)
    return SemanticGraph(cats[0], codes[0], rels[0],
                         k_c=config.k_c, k_f=config.k_f, k_e=config.k_e)


def pad_graph(graph: SemanticGraph, n_max: int) -> SemanticGraph:
    """Grow a graph to n_max slots by appending empty slots.

    Padding is idempotent; a graph already at n_max comes back unchanged.
    """
    n = graph.n_slots
    if n > n_max:
        raise ValueError(f"graph has {n} slots, cannot pad to {n_max}")
    if n == n_max:
        return graph
    cats = np.full(n_max, empty_state(graph.k_c), dtype=np.int64)
    cats[:n] = graph.categories
    codes = np.full((n_max, graph.n_f), empty_state(graph.k_f), dtype=np.int64)
    codes[:n] = graph.codes
    rels = np.full(n_pairs(n_max), empty_state(graph.k_e), dtype=np.int64)
    # The pairs of the first n slots are the pairs with k < n, in the same order.
    rels[pair_slots(n_max)[1] < n] = graph.relations
    return SemanticGraph(cats, codes, rels, k_c=graph.k_c, k_f=graph.k_f, k_e=graph.k_e)


def permute_graph(graph: SemanticGraph, perm) -> SemanticGraph:
    """Relabel slots with a bijection; slot j of the input lands at perm[j].

    Relations move to the slot pair (min(perm[j]), perm[k]) ... max) and are
    replaced by their inverse when the pair orientation flips.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = graph.n_slots
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a bijection on the slot indices")
    cats = np.empty_like(graph.categories)
    codes = np.empty_like(graph.codes)
    cats[perm] = graph.categories
    codes[perm] = graph.codes
    # Directed (n, n) relation table, relabelled, then read back at j < k.
    j, k = pair_slots(n)
    table = np.empty((n, n), dtype=np.int64)
    table[perm[j], perm[k]] = graph.relations
    table[perm[k], perm[j]] = inverse_relations(graph.relations)
    rels = table[j, k]
    return SemanticGraph(cats, codes, rels, k_c=graph.k_c, k_f=graph.k_f, k_e=graph.k_e)


def canonical_order(scene: Scene) -> np.ndarray:
    """Permutation sending scene objects into canonical slot order.

    Objects sort by (category, t_x, t_y, t_z); ties keep their original list
    order, so the order is total and deterministic. Entry j of the result is
    the canonical slot of input object j, matching permute_graph's convention.
    """
    keyed = sorted(
        range(scene.n_objects),
        key=lambda i: (
            scene.objects[i].category,
            scene.objects[i].location[0],
            scene.objects[i].location[1],
            scene.objects[i].location[2],
            i,
        ),
    )
    perm = np.empty(scene.n_objects, dtype=np.int64)
    for slot, original in enumerate(keyed):
        perm[original] = slot
    return perm


def canonicalize_scene(scene: Scene) -> Scene:
    """Reorder the scene's objects into canonical order."""
    perm = canonical_order(scene)
    objects = [None] * scene.n_objects
    for i, obj in enumerate(scene.objects):
        objects[int(perm[i])] = obj
    return Scene(id=scene.id, objects=tuple(objects))
