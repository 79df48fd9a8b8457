"""End-to-end pipeline: generation, completion, rearrangement, stylization."""
from __future__ import annotations

import numpy as np
import pytest

from scenediff import pipeline
from scenediff.datagen import toy_variant_of
from scenediff.errors import UnsatisfiableInstructionError
from scenediff.graph import derive_semantic_graph, pad_graph
from scenediff.instructions import (
    Instruction,
    StyleConstraint,
    instruction_matches,
    render_instruction,
)
from scenediff.pipeline import GenerationConfig, ScenePipeline, retrieve_object
from scenediff.scene_io import scene_to_dict
from scenediff.relations import RelationLabel
from scenediff.scene import ObjectInstance, Scene, layout_row_to_pose


@pytest.fixture(scope="module")
def pipe(toy):
    return ScenePipeline(toy, GenerationConfig(graph_steps=25, layout_steps=10))


def _derived(scene, toy):
    return pad_graph(derive_semantic_graph(scene, toy.codebook, toy.config),
                     toy.config.n_max)


# ---------------------------------------------------------------------------
# Asset retrieval


def test_retrieve_object_matches_signatures(toy):
    oak = toy.config.style_signature("oak")
    walnut = toy.config.style_signature("walnut")
    a = retrieve_object(1, oak, toy.library, toy.codebook)
    b = retrieve_object(1, walnut, toy.library, toy.codebook)
    assert a.asset_id == "asset-01-00"
    assert b.asset_id == "asset-01-01"
    assert np.array_equal(toy.codebook.encode(a.feature), np.array(oak))
    assert np.array_equal(toy.codebook.encode(b.feature), np.array(walnut))


def test_retrieve_object_wildcards_and_ties(toy):
    k_f = toy.config.k_f
    # Empty and mask states match nothing, so an all-wildcard query ties
    # every candidate and retrieval falls back to the lowest asset id.
    for wild in (k_f, k_f + 1):
        asset = retrieve_object(1, [wild] * 4, toy.library, toy.codebook)
        assert asset.asset_id == "asset-01-00"
    # A single informative chunk still separates the styles.
    walnut = toy.config.style_signature("walnut")
    probe = [k_f, k_f, walnut[2], k_f]
    assert retrieve_object(1, probe, toy.library, toy.codebook).asset_id == "asset-01-01"


def test_retrieve_object_validation(toy):
    with pytest.raises(KeyError):
        retrieve_object(9, [0, 0, 0, 0], toy.library, toy.codebook)
    with pytest.raises(ValueError, match="signature length"):
        retrieve_object(1, [0, 0], toy.library, toy.codebook)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(graph_steps=0)
    with pytest.raises(ValueError):
        GenerationConfig(layout_steps=0)


# ---------------------------------------------------------------------------
# Free generation


def test_generate_honors_instruction(pipe, toy):
    instr = toy.instructions[1]
    scenes = pipe.generate(instr, rng=np.random.default_rng(0), n=4)
    assert [s.id for s in scenes] == [f"generated-{i:04d}" for i in range(4)]
    for scene in scenes:
        assert instruction_matches(_derived(scene, toy), instr)


def test_generate_accepts_instruction_text(pipe, toy):
    instr = toy.instructions[2]
    text = render_instruction(instr, toy.config, seed=1)
    scenes = pipe.generate(text, rng=np.random.default_rng(1), n=2)
    for scene in scenes:
        assert instruction_matches(_derived(scene, toy), instr)
    with pytest.raises(TypeError, match="instruction must be"):
        pipe.generate(42, rng=np.random.default_rng(0))


def test_generate_is_deterministic(pipe, toy):
    a = pipe.generate(toy.instructions[0], rng=np.random.default_rng(7), n=3)
    b = pipe.generate(toy.instructions[0], rng=np.random.default_rng(7), n=3)
    assert [scene_to_dict(s) for s in a] == [scene_to_dict(s) for s in b]


def test_unconditional_scenes_stay_on_support(pipe, toy):
    scenes = pipe.unconditional(rng=np.random.default_rng(3), n=4)
    for scene in scenes:
        assert 3 == scene.n_objects
        cats = sorted(o.category for o in scene.objects)
        assert cats in ([0, 1, 2], [0, 1, 3])


def test_generate_retrieves_each_signature_once(pipe, toy, monkeypatch):
    n = 200
    calls = []

    def counting(category, codes, library, codebook):
        calls.append((category, codes.tobytes()))
        return retrieve_object(category, codes, library, codebook)

    monkeypatch.setattr(pipeline, "retrieve_object", counting)
    scenes = pipe.generate(toy.instructions[0], rng=np.random.default_rng(3), n=n)
    # The per-slot oracle: the same draws, one retrieval per slot.
    rng = np.random.default_rng(3)
    graphs = pipeline.reverse_sample_batch(pipe.graph_denoiser, pipe.graph_schedule, n, rng,
                                           instructions=toy.instructions[0])
    layouts = pipeline.reverse_sample_layout(pipe.layout_denoiser, graphs,
                                             pipe.layout_schedule, rng)
    expected, signatures = [], set()
    for i, (graph, layout) in enumerate(zip(graphs, layouts)):
        objects = []
        for slot in np.flatnonzero(graph.categories < toy.config.k_c):
            category, codes = int(graph.categories[slot]), graph.codes[slot]
            signatures.add((category, codes.tobytes()))
            asset = retrieve_object(category, codes, toy.library, toy.codebook)
            location, size, rotation = layout_row_to_pose(layout[slot])
            objects.append(ObjectInstance(category=category, location=location, size=size,
                                          rotation=rotation, feature=asset.feature,
                                          asset_id=asset.asset_id))
        expected.append(Scene(id=f"generated-{i:04d}", objects=tuple(objects)))
    assert scenes == expected
    assert sorted(calls) == sorted(signatures)
    assert len(calls) < sum(s.n_objects for s in scenes)


def test_generate_rejects_impossible_instructions(pipe):
    impossible = Instruction(triplets=((2, RelationLabel.LEFT_OF, 3),))
    with pytest.raises(UnsatisfiableInstructionError) as exc:
        pipe.generate(impossible, rng=np.random.default_rng(0))
    assert exc.value.stage == "triplets"


# ---------------------------------------------------------------------------
# Completion


def test_complete_returns_existing_objects_verbatim(pipe, toy):
    source = toy.scenes[0]
    partial = Scene(id="partial", objects=source.objects[:2])
    out = pipe.complete(partial, rng=np.random.default_rng(5))
    assert out.id == "partial-completed"
    assert out.objects[0] is partial.objects[0]
    assert out.objects[1] is partial.objects[1]
    assert out.n_objects == 3
    assert out.objects[2].category in (2, 3)


def test_complete_follows_the_instruction(pipe, toy):
    partial = Scene(id="partial", objects=toy.scenes[0].objects[:2])
    instr = toy.instructions[3]
    for seed in range(3):
        out = pipe.complete(partial, instr, rng=np.random.default_rng(seed))
        assert instruction_matches(_derived(out, toy), instr)
        assert out.objects[:2] == partial.objects[:2]


def test_complete_conflicting_instruction_raises(pipe, toy):
    partial = Scene(id="partial", objects=toy.scenes[0].objects[:2])
    closely = toy.instructions[1]  # frozen chair-table relation says otherwise
    with pytest.raises(UnsatisfiableInstructionError) as exc:
        pipe.complete(partial, closely, rng=np.random.default_rng(0))
    assert exc.value.stage == "combined"


def test_complete_rejects_oversized_scenes(pipe, toy):
    objs = (toy.scenes[0].objects * 2)[:5]
    with pytest.raises(ValueError, match="slot budget"):
        pipe.complete(Scene(id="big", objects=objs), rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Rearrangement


def test_rearrange_keeps_the_object_set(pipe, toy):
    source = toy.scenes[0]
    out = pipe.rearrange(source, rng=np.random.default_rng(2))
    assert out.id == f"{source.id}-rearranged"
    assert out.n_objects == source.n_objects
    for new, old in zip(out.objects, source.objects):
        assert new.category == old.category
        assert new.size == old.size
        assert np.array_equal(new.feature, old.feature)
        assert new.asset_id == old.asset_id


def test_rearrange_moves_the_chair_when_asked(pipe, toy):
    source = toy.scenes[0]  # chair sits far left
    assert source.objects[1].location[0] == pytest.approx(-2.0)
    out = pipe.rearrange(source, toy.instructions[1], rng=np.random.default_rng(4))
    assert instruction_matches(_derived(out, toy), toy.instructions[1])
    # Frozen categories and codes leave exactly one close variant, whose
    # layout puts the chair at x = -0.7.
    assert out.objects[1].location[0] == pytest.approx(-0.7, abs=1e-6)
    assert out.objects[1].asset_id == source.objects[1].asset_id


# ---------------------------------------------------------------------------
# Stylization


def test_stylize_room_keeps_geometry(pipe, toy):
    source = toy.scenes[0]
    out = pipe.stylize(source, "oak", rng=np.random.default_rng(6))
    assert out.id == f"{source.id}-stylized"
    assert out.n_objects == source.n_objects
    for new, old in zip(out.objects, source.objects):
        assert new.category == old.category
        assert new.location == old.location
        assert new.size == old.size
        assert new.rotation == old.rotation
        assert np.array_equal(new.feature, old.feature)  # already oak throughout


def test_stylize_category_swaps_the_finish(pipe, toy):
    source = toy.scenes[0]
    walnut = StyleConstraint(codes=toy.config.style_signature("walnut"), category=1)
    out = pipe.stylize(source, walnut, rng=np.random.default_rng(8))
    assert out.objects[1].asset_id == "asset-01-01"
    assert out.objects[1].location == source.objects[1].location
    assert out.objects[1].rotation == source.objects[1].rotation
    assert np.array_equal(out.objects[0].feature, source.objects[0].feature)
    g = _derived(out, toy)
    assert toy_variant_of(g, toy) == 1


def test_stylize_validation(pipe, toy):
    with pytest.raises(TypeError, match="style must be"):
        pipe.stylize(toy.scenes[0], 42, rng=np.random.default_rng(0))
    with pytest.raises(KeyError):
        pipe.stylize(toy.scenes[0], "gothic", rng=np.random.default_rng(0))
    # The whole room cannot go walnut: tables only come in oak.
    with pytest.raises(UnsatisfiableInstructionError):
        pipe.stylize(toy.scenes[0], "walnut", rng=np.random.default_rng(0))
