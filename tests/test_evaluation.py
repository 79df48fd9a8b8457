"""Geometry-first metrics: recall, style match, distribution distance."""
from __future__ import annotations

import json

import numpy as np
import pytest

from scenediff.evaluation import (
    EvalReport,
    empirical_distribution,
    evaluate_scenes,
    irecall,
    scene_satisfies,
    style_match_rate,
    tv_distance,
)
from scenediff.instructions import Instruction, StyleConstraint
from scenediff.relations import RelationLabel


def test_tv_distance_hand_values():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)
    assert tv_distance({}, {"a": 0.25, "b": 0.75}) == pytest.approx(0.5)
    # Off-support mass counts fully.
    assert tv_distance({"a": 0.5, "c": 0.5}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.5)


def test_empirical_distribution_counts_and_keys(toy):
    dist = empirical_distribution(["x", "x", "y", "x"])
    assert dist == {"x": 0.75, "y": 0.25}
    graphs = [toy.graphs[0], toy.graphs[0], toy.graphs[-1]]
    gdist = empirical_distribution(graphs)
    assert gdist[toy.graphs[0].key()] == pytest.approx(2.0 / 3.0)
    assert gdist[toy.graphs[-1].key()] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="empty"):
        empirical_distribution([])


def test_sampling_the_target_gives_small_tv(toy, rng):
    from scenediff.datagen import toy_target_distribution

    probs = toy_target_distribution(toy)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    target = {v: float(p) for v, p in enumerate(probs)}
    draws = rng.choice(len(probs), size=4000, p=probs)
    sample = empirical_distribution([int(i) for i in draws])
    assert tv_distance(sample, target) < 0.05


def test_irecall_counts_geometric_hits(toy):
    # Scenes 0..3 realize variant 0 (far chair); the last scene is variant 7.
    far = toy.instructions[0]
    close = toy.instructions[1]
    scenes = [toy.scenes[0], toy.scenes[1], toy.scenes[-1]]
    assert irecall(scenes, far, toy.config, toy.codebook) == pytest.approx(2.0 / 3.0)
    assert irecall(scenes, close, toy.config, toy.codebook) == pytest.approx(1.0 / 3.0)
    assert scene_satisfies(toy.scenes[-1], close, toy.config, toy.codebook)
    with pytest.raises(ValueError):
        irecall([], far, toy.config, toy.codebook)


def test_irecall_equals_the_per_scene_check(toy):
    """irecall derives the scenes' graphs in array passes of a chunk of
    scenes each; scene by scene the verdicts must be scene_satisfies'. The
    39 scenes span two chunks and mix object counts, up to more than the
    config's n_max slots."""
    from scenediff.scene import Scene

    scenes = list(toy.scenes) * 2 + [
        Scene(id="one", objects=toy.scenes[0].objects[:1]),
        Scene(id="two", objects=toy.scenes[-1].objects[1:]),
        Scene(id="six", objects=toy.scenes[0].objects + toy.scenes[-1].objects),
    ]
    for instruction in toy.instructions:
        want = sum(scene_satisfies(s, instruction, toy.config, toy.codebook) for s in scenes)
        assert irecall(scenes, instruction, toy.config, toy.codebook) == want / len(scenes)


def test_irecall_ignores_the_sampled_graph(toy):
    # A moved chair must flip the verdict even though nothing else changed.
    from scenediff.scene import ObjectInstance, Scene

    src = toy.scenes[0]
    chair = src.objects[1]
    moved = ObjectInstance(
        category=chair.category,
        location=(-0.7, 0.0, chair.location[2]),
        size=chair.size,
        rotation=chair.rotation,
        feature=chair.feature,
        asset_id=chair.asset_id,
    )
    close_scene = Scene(id="moved", objects=(src.objects[0], moved, src.objects[2]))
    close = toy.instructions[1]
    assert not scene_satisfies(src, close, toy.config, toy.codebook)
    assert scene_satisfies(close_scene, close, toy.config, toy.codebook)


def test_style_match_rate(toy):
    walnut_chair = StyleConstraint(codes=toy.config.style_signature("walnut"),
                                   category=1)
    oak_room = StyleConstraint(codes=toy.config.style_signature("oak"))
    scenes = [toy.scenes[0], toy.scenes[-1]]  # oak room, then walnut chair
    assert style_match_rate(scenes, walnut_chair, toy.config, toy.codebook) == 0.5
    assert style_match_rate(scenes, oak_room, toy.config, toy.codebook) == 0.5
    with pytest.raises(ValueError):
        style_match_rate([], oak_room, toy.config, toy.codebook)


def test_evaluate_scenes_report(toy):
    instr = Instruction(
        triplets=((1, RelationLabel.CLOSELY_LEFT_OF, 0),),
        style=StyleConstraint(codes=toy.config.style_signature("walnut"), category=1),
    )
    scenes = [toy.scenes[0], toy.scenes[-1]]
    report = evaluate_scenes(scenes, instr, toy.config, toy.codebook,
                             text="walnut chair close to the table")
    assert report.n_scenes == 2
    assert report.irecall == 0.5
    assert report.style_match == 0.5
    payload = json.loads(report.to_json())
    assert list(payload) == sorted(payload)
    assert payload["instruction"] == "walnut chair close to the table"
    assert payload["irecall"] == 0.5
    assert payload["style_match"] == 0.5


def test_report_without_style_omits_the_field(toy):
    report = evaluate_scenes([toy.scenes[0]], toy.instructions[0],
                             toy.config, toy.codebook)
    payload = json.loads(report.to_json())
    assert "style_match" not in payload
    assert report.style_match is None
    bare = EvalReport(n_scenes=1, instruction_text="", irecall=1.0)
    assert "style_match" not in json.loads(bare.to_json())
