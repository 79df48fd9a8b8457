"""Semantic scene graphs: categories, quantized appearance codes, relations.

Every categorical variable with k real labels lives in an alphabet of k + 2
states: the real labels 0..k-1, the padding state ``empty`` at index k, and
the corruption state ``mask`` at index k + 1. Clean graphs never contain
masks; padded slots use empty consistently across categories, codes and
incident relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SceneConfig
from .relations import extract_relations, inverse_relations, n_pairs, pair_index, pair_slots
from .scene import Scene


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
            # Read as unsigned, a negative label is huge: one max checks both ends.
            if arr.size and arr.view(np.uint64).max() > mask_state(k):
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


def check_scenes_fit(scenes, config: SceneConfig, n_slots: int | None = None) -> None:
    """Raise ValueError unless every scene fits ``config``: at most ``n_slots``
    objects (default ``n_max``), categories inside the vocabulary, features
    of dimension d."""
    n_slots = config.n_max if n_slots is None else n_slots
    k_c, d = config.k_c, config.d
    for scene in scenes:
        if scene.n_objects > n_slots:
            raise ValueError(f"a scene holds {scene.n_objects} objects, more than {n_slots} slots")
        for obj in scene.objects:
            if obj.category >= k_c:
                raise ValueError(f"category {obj.category} outside vocabulary of {k_c}")
            if obj.feature.shape[0] != d:
                raise ValueError("object feature dimension disagrees with config")


def derive_graph_arrays(scenes, codebook, config: SceneConfig, n_slots: int):
    """Semantic graphs of scenes as padded label arrays over n_slots slots.

    Returns (categories (S, n_slots), codes (S, n_slots, n_f), relations
    (S, n_pairs(n_slots))). Object i of a scene fills slot i; the slots past
    its objects hold empty labels. Categories come straight from the
    objects, codes from one ``codebook.encode`` of every feature stacked,
    relations from the scalar geometric rules of ``extract_relations``.
    The padded rows are built as lists and converted once per kind.
    Raises ValueError when a scene does not fit (see check_scenes_fit).
    """
    if codebook.d != config.d:
        raise ValueError(f"codebook dimension {codebook.d} != config d {config.d}")
    if codebook.n_f != config.n_f or codebook.k_f != config.k_f:
        raise ValueError("codebook shape disagrees with config")
    check_scenes_fit(scenes, config, n_slots)
    codes = codebook.encode(np.array([o.feature for s in scenes for o in s.objects])).tolist()
    empty_cat, empty_rel = empty_state(config.k_c), empty_state(config.k_e)
    empty_codes = [empty_state(config.k_f)] * config.n_f
    cat_rows, code_rows, rel_rows = [], [], []
    start = 0
    for scene in scenes:
        n = scene.n_objects
        cat_rows.append([o.category for o in scene.objects] + [empty_cat] * (n_slots - n))
        code_rows.append(codes[start:start + n] + [empty_codes] * (n_slots - n))
        start += n
        rels = [empty_rel] * n_pairs(n_slots)
        # Pair (j, k) of the scene's n objects sits at pair_index(j, k, n_slots).
        j, k = pair_slots(n)
        for a, b, label in zip(j.tolist(), k.tolist(), extract_relations(scene.objects)):
            rels[pair_index(a, b, n_slots)] = label
        rel_rows.append(rels)
    return (np.array(cat_rows, dtype=np.int64), np.array(code_rows, dtype=np.int64),
            np.array(rel_rows, dtype=np.int64))


def derive_semantic_graph(scene: Scene, codebook, config: SceneConfig) -> SemanticGraph:
    """Encode a scene into its (unpadded) semantic graph, one slot per
    object; see derive_graph_arrays."""
    cats, codes, rels = derive_graph_arrays((scene,), codebook, config, scene.n_objects)
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
