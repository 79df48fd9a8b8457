"""Instruction to scene: graph sampling, layout decoding, asset retrieval.

The pipeline owns the schedules and exact denoisers for one dataset bundle
and exposes the four entry points: free generation, completion of a partial
scene, rearrangement (same objects, new positions), and stylization (same
geometry, new finishes). The last three condition the samplers by clamping
the appropriate slots at every reverse step, so frozen scene content comes
back bit-identical rather than merely similar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datagen import Asset, AssetLibrary, DatasetBundle
# pad_graph stays importable here: perfbench's traced run wraps pipeline.pad_graph.
from .graph import SemanticGraph, derive_semantic_graph, pad_graph  # noqa: F401
from .graph_diffusion import (
    KERNEL_INDEPENDENT,
    EmpiricalGraphDenoiser,
    FrozenGraph,
    build_graph_schedule,
    reverse_sample,
    reverse_sample_batch,
)
from .instructions import Instruction, StyleConstraint, parse_instruction
from .layout_diffusion import (
    ExactEpsDenoiser,
    build_gaussian_schedule,
    reverse_sample_layout,
)
from .quantizer import Codebook
from .scene import ObjectInstance, Scene, layout_row_to_pose, scene_to_layout


@dataclass(frozen=True)
class GenerationConfig:
    """Sampler settings shared by every pipeline entry point."""

    graph_steps: int = 100
    layout_steps: int = 100
    kernel: str = KERNEL_INDEPENDENT
    leak: float = 0.01

    def __post_init__(self):
        if self.graph_steps < 1 or self.layout_steps < 1:
            raise ValueError("need at least one diffusion step per stage")


def retrieve_object(category: int, codes, library: AssetLibrary,
                    codebook: Codebook) -> Asset:
    """Library asset best matching a category and code signature.

    Assets of the category are ranked by how many code chunks they share
    with the query; chunks holding empty or mask states are wildcards. Ties
    resolve to the lowest asset id, so retrieval is deterministic. Asset
    codes come from ``library.encoded(codebook)``, which encodes each asset
    once per codebook.
    """
    entry = library.encoded(codebook).get(int(category))
    if entry is None:
        raise KeyError(f"no assets for category {category}")
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    if codes.shape[0] != codebook.n_f:
        raise ValueError("code signature length disagrees with the codebook")
    assets, asset_codes = entry
    score = ((asset_codes == codes) & (codes < codebook.k_f)).sum(axis=1)
    return assets[int(np.argmax(score))]


class ScenePipeline:
    """Exact two-stage sampler for one dataset bundle."""

    def __init__(self, bundle: DatasetBundle, gen: GenerationConfig | None = None):
        self.bundle = bundle
        self.config = bundle.config
        self.gen = gen or GenerationConfig()
        self.graph_schedule = build_graph_schedule(
            self.config, self.gen.graph_steps, self.gen.kernel, leak=self.gen.leak
        )
        self.graph_denoiser = EmpiricalGraphDenoiser(bundle.graph_arrays, self.graph_schedule)
        self.layout_schedule = build_gaussian_schedule(self.gen.layout_steps)
        self.layout_denoiser = ExactEpsDenoiser(bundle.graph_arrays, self.layout_schedule,
                                                bundle.layouts)
        bundle.library.encoded(bundle.codebook)  # encode every asset now, not per retrieval

    def _resolve(self, instruction) -> Instruction | None:
        if instruction is None:
            return None
        if isinstance(instruction, str):
            return parse_instruction(instruction, self.config)
        if isinstance(instruction, Instruction):
            return instruction
        raise TypeError("instruction must be None, text, or an Instruction")

    def _object_from_slot(self, slot: int, graph: SemanticGraph, layout_row: np.ndarray,
                          assets: dict) -> ObjectInstance:
        """The object a slot decodes to. ``assets`` memoises retrieval, a pure
        function of (category, codes), across the slots of one call."""
        category = int(graph.categories[slot])
        codes = graph.codes[slot]
        key = (category, codes.tobytes())
        asset = assets.get(key)
        if asset is None:
            asset = assets[key] = retrieve_object(category, codes, self.bundle.library,
                                                  self.bundle.codebook)
        location, size, rotation = layout_row_to_pose(layout_row)
        return ObjectInstance(
            category=category,
            location=location,
            size=size,
            rotation=rotation,
            feature=asset.feature,
            asset_id=asset.asset_id,
        )

    def _real_slots(self, graph: SemanticGraph) -> list[int]:
        return [int(s) for s in np.flatnonzero(graph.categories < self.config.k_c)]

    def generate(self, instruction=None, *, rng: np.random.Generator, n: int = 1,
                 id_prefix: str = "generated") -> list[Scene]:
        """Sample n scenes, optionally conditioned on an instruction."""
        instr = self._resolve(instruction)
        graphs = reverse_sample_batch(
            self.graph_denoiser, self.graph_schedule, n, rng, instructions=instr,
        )
        layouts = reverse_sample_layout(self.layout_denoiser, graphs, self.layout_schedule, rng)
        assets: dict = {}
        return [
            Scene(id=f"{id_prefix}-{i:04d}", objects=tuple(
                self._object_from_slot(s, g, layout[s], assets) for s in self._real_slots(g)))
            for i, (g, layout) in enumerate(zip(graphs, layouts))
        ]

    def unconditional(self, *, rng: np.random.Generator, n: int = 1,
                      id_prefix: str = "sampled") -> list[Scene]:
        return self.generate(None, rng=rng, n=n, id_prefix=id_prefix)

    def _edit(self, scene: Scene, instruction: Instruction | None,
              rng: np.random.Generator, **freeze) -> SemanticGraph:
        """Sample a graph for an edit: the scene's padded graph, clamped as
        ``freeze`` (FrozenGraph.from_graph's keywords) asks."""
        base = derive_semantic_graph(scene, self.bundle.codebook, self.config,
                                     self.config.n_max)
        return reverse_sample(
            self.graph_denoiser, self.graph_schedule, rng, instruction=instruction,
            frozen=FrozenGraph.from_graph(base, **freeze),
        )

    def complete(self, scene: Scene, instruction=None, *,
                 rng: np.random.Generator, scene_id: str | None = None) -> Scene:
        """Extend a partial scene; existing objects come back bit-identical.

        The partial scene's slots freeze in both stages: graph sampling
        clamps their categories, codes, and mutual relations, and layout
        sampling clamps their rows. Slots left empty by the posterior stay
        absent from the result.
        """
        instr = self._resolve(instruction)
        n0 = scene.n_objects
        if n0 > self.config.n_max:
            raise ValueError("partial scene already exceeds the slot budget")
        graph = self._edit(scene, instr, rng, freeze_categories=True, freeze_codes=True,
                           freeze_relations=True, slots=range(n0))
        original = scene_to_layout(scene)
        layout = reverse_sample_layout(self.layout_denoiser, graph, self.layout_schedule, rng,
                                       frozen_rows={i: original[i] for i in range(n0)})
        objects = tuple(
            scene.objects[s] if s < n0 else self._object_from_slot(s, graph, layout[s], {})
            for s in self._real_slots(graph)
        )
        return Scene(id=scene_id or f"{scene.id}-completed", objects=objects)

    def rearrange(self, scene: Scene, instruction=None, *,
                  rng: np.random.Generator, scene_id: str | None = None) -> Scene:
        """Keep the object set, resample relations and positions.

        Categories and codes freeze on every slot, so the result has exactly
        the original objects (same assets, features, and sizes) at new poses
        decoded from the resampled relation structure.
        """
        graph = self._edit(scene, self._resolve(instruction), rng,
                           freeze_categories=True, freeze_codes=True)
        layout = reverse_sample_layout(self.layout_denoiser, graph, self.layout_schedule, rng)
        objects = []
        for slot in self._real_slots(graph):
            location, _, rotation = layout_row_to_pose(layout[slot])
            objects.append(replace(scene.objects[slot], location=location, rotation=rotation))
        return Scene(id=scene_id or f"{scene.id}-rearranged", objects=tuple(objects))

    def stylize(self, scene: Scene, style, *, rng: np.random.Generator,
                scene_id: str | None = None) -> Scene:
        """Keep geometry, resample finishes toward a style constraint.

        ``style`` is a StyleConstraint or a style name (name means the whole
        room). Categories, relations, and the full layout freeze; codes
        resample under the style instruction and assets re-retrieve.
        """
        if isinstance(style, str):
            style = StyleConstraint(codes=self.config.style_signature(style))
        if not isinstance(style, StyleConstraint):
            raise TypeError("style must be a StyleConstraint or a style name")
        graph = self._edit(scene, Instruction(style=style), rng,
                           freeze_categories=True, freeze_relations=True)
        objects = []
        for slot in self._real_slots(graph):
            orig = scene.objects[slot]
            asset = retrieve_object(orig.category, graph.codes[slot],
                                    self.bundle.library, self.bundle.codebook)
            objects.append(replace(orig, feature=asset.feature, asset_id=asset.asset_id))
        return Scene(id=scene_id or f"{scene.id}-stylized", objects=tuple(objects))
