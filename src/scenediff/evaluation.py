"""Metrics that re-check generated scenes from their geometry.

Instruction recall never trusts the sampled graph: each scene is re-encoded
(relations re-extracted from object poses, codes re-quantized from features)
and the instruction is checked against that. Distribution match is total
variation between the empirical sample distribution over whole graphs and a
known target; samples off the target support count with their full mass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import SceneConfig
from .graph import derive_graph_arrays, derive_semantic_graph
from .instructions import (
    Instruction,
    StyleConstraint,
    instruction_match_stages,
    instruction_matches,
)
from .quantizer import Codebook
from .scene import Scene


def scene_satisfies(scene: Scene, instruction: Instruction, config: SceneConfig,
                    codebook: Codebook) -> bool:
    """Check an instruction against the scene's re-derived graph."""
    graph = derive_semantic_graph(scene, codebook, config)
    return instruction_matches(graph, instruction)


# Scenes per array pass of irecall; bounds its temporaries.
_RECALL_CHUNK = 32


def irecall(scenes, instruction: Instruction, config: SceneConfig,
            codebook: Codebook) -> float:
    """Fraction of scenes whose geometry realizes the instruction. Chunks of
    scenes are re-derived together, padded to their largest scene, and
    checked in one pass of instruction_match_stages."""
    scenes = tuple(scenes)
    if not scenes:
        raise ValueError("need at least one scene")
    hits = 0
    for lo in range(0, len(scenes), _RECALL_CHUNK):
        part = scenes[lo:lo + _RECALL_CHUNK]
        cats, codes, rels, _ = derive_graph_arrays(part, codebook, config,
                                                   max(s.n_objects for s in part))
        triplets, style = instruction_match_stages(cats, codes, rels, instruction, config.k_c)
        hits += int((triplets & style).sum())
    return hits / len(scenes)


def empirical_distribution(items) -> dict:
    """Relative frequencies keyed by the item (graphs use their key bytes)."""
    counts: dict = {}
    total = 0
    for item in items:
        key = item.key() if hasattr(item, "key") else item
        counts[key] = counts.get(key, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("empty sample")
    return {k: c / total for k, c in counts.items()}


def tv_distance(p: dict, q: dict) -> float:
    """Total variation 0.5 sum |p - q| over the union of supports."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def style_match_rate(scenes, style: StyleConstraint, config: SceneConfig,
                     codebook: Codebook) -> float:
    """Fraction of scenes whose re-encoded features meet a style constraint."""
    return irecall(scenes, Instruction(style=style), config, codebook)


@dataclass(frozen=True)
class EvalReport:
    n_scenes: int
    instruction_text: str
    irecall: float
    style_match: float | None = None

    def to_json(self) -> str:
        payload = {
            "n_scenes": self.n_scenes,
            "instruction": self.instruction_text,
            "irecall": self.irecall,
        }
        if self.style_match is not None:
            payload["style_match"] = self.style_match
        return json.dumps(payload, indent=2, sort_keys=True)


def evaluate_scenes(scenes, instruction: Instruction, config: SceneConfig,
                    codebook: Codebook, *, text: str = "") -> EvalReport:
    scenes = list(scenes)
    report_style = None
    if instruction.style is not None:
        report_style = style_match_rate(scenes, instruction.style, config, codebook)
    return EvalReport(
        n_scenes=len(scenes),
        instruction_text=text,
        irecall=irecall(scenes, instruction, config, codebook),
        style_match=report_style,
    )
