"""Procedural dataset construction, toy support, and exact ground truth."""
from __future__ import annotations

import numpy as np
import pytest

from scenediff import datagen
from scenediff.config import SceneConfig
from scenediff.datagen import (
    PAD_ROW,
    TOY_VARIANTS,
    DatasetBundle,
    generate_dataset,
    pad_layout,
    toy_instructions,
    toy_support,
    toy_target_distribution,
    toy_variant_map,
    toy_variant_of,
)
from scenediff.errors import DatasetError
from scenediff.graph import derive_semantic_graph, pad_graph
from scenediff.instructions import instruction_matches
from scenediff.relations import RelationLabel
from scenediff.scene import layout_row_to_pose, scene_to_layout


def test_toy_support_shape(toy):
    assert toy.n_scenes == 18
    assert len(toy.graphs) == 18
    assert toy.layouts.shape == (18, 4, 8)
    counts = [c for *_, c in TOY_VARIANTS]
    assert counts == [4, 3, 3, 2, 2, 2, 1, 1] and sum(counts) == 18
    uniques = {g.key() for g in toy.graphs}
    assert len(uniques) == 8
    target = toy_target_distribution(toy)
    assert target.sum() == pytest.approx(1.0)
    assert np.array_equal(target, np.array(counts) / 18.0)


def test_toy_variant_semantics(toy):
    chair, table = 1, 0
    by_variant = {}
    for i, scene in enumerate(toy.scenes):
        v = int(scene.id.split("-")[1])
        by_variant.setdefault(v, toy.graphs[i])
        # Repeats of one variant share the graph exactly.
        assert toy.graphs[i] == by_variant[v]
    oak = toy.config.style_signature("oak")
    walnut = toy.config.style_signature("walnut")
    assert oak != walnut
    for v, (closely, third, chair_style, _) in enumerate(TOY_VARIANTS):
        g = by_variant[v]
        assert g.empty_consistent()
        assert g.n_slots == 4 and g.n_objects == 3
        assert g.categories[:3].tolist() == [table, chair, toy.config.category_index(third)]
        want_rel = RelationLabel.CLOSELY_LEFT_OF if closely else RelationLabel.LEFT_OF
        assert g.relation(1, 0) == int(want_rel)
        assert g.relation(2, 0) == int(RelationLabel.BEHIND)
        want_sig = walnut if chair_style == "walnut" else oak
        assert tuple(g.codes[1]) == want_sig
        assert tuple(g.codes[0]) == oak
        assert tuple(g.codes[2]) == oak


def test_toy_layout_geometry(toy):
    for i, scene in enumerate(toy.scenes):
        v = int(scene.id.split("-")[1])
        closely = TOY_VARIANTS[v][0]
        layout = toy.layouts[i]
        assert np.array_equal(layout[:3], scene_to_layout(scene))
        assert np.array_equal(layout[3], PAD_ROW)
        table_loc, table_size, table_rot = layout_row_to_pose(layout[0])
        assert table_loc == (0.0, 0.0, 0.25)
        assert table_size == (1.2, 0.8, 0.5)
        assert table_rot == 0.0
        chair_loc, _, _ = layout_row_to_pose(layout[1])
        assert chair_loc[0] == (-0.7 if closely else -2.0)
    pairs = toy.layout_pairs()
    assert len(pairs) == 18
    assert pairs[0][0] == toy.graphs[0]
    assert np.array_equal(pairs[0][1], toy.layouts[0])


def test_toy_variant_lookup(toy):
    vmap = toy_variant_map(toy)
    assert sorted(vmap.values()) == list(range(8))
    for i, g in enumerate(toy.graphs):
        assert toy_variant_of(g, toy) == int(toy.scenes[i].id.split("-")[1])
    off = pad_graph(
        derive_semantic_graph(toy.scenes[0], toy.codebook, toy.config), 4
    )
    cats = off.categories.copy()
    cats[2] = 1  # second chair: no toy variant has one
    altered = type(off)(cats, off.codes, off.relations,
                        k_c=off.k_c, k_f=off.k_f, k_e=off.k_e)
    assert toy_variant_of(altered, toy) is None


def test_toy_bundle_is_reproducible():
    again = toy_support(seed=0)
    base = toy_support(seed=0)
    assert np.array_equal(again.layouts, base.layouts)
    assert all(a == b for a, b in zip(again.graphs, base.graphs))
    assert np.array_equal(again.codebook.entries, base.codebook.entries)
    assert again.instructions == toy_instructions(again.config)


def test_bundle_immutable_and_aligned(toy):
    with pytest.raises(ValueError):
        toy.layouts[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        DatasetBundle(
            config=toy.config,
            scenes=toy.scenes[:2],
            graphs=toy.graphs[:3],
            layouts=toy.layouts[:2],
            codebook=toy.codebook,
            library=toy.library,
            instructions=(),
        )


def test_pad_layout():
    layout = np.arange(16, dtype=np.float64).reshape(2, 8)
    padded = pad_layout(layout, 4)
    assert padded.shape == (4, 8)
    assert np.array_equal(padded[:2], layout)
    assert np.array_equal(padded[2], PAD_ROW)
    loc, size, rot = layout_row_to_pose(PAD_ROW)
    assert rot == 0.0 and min(size) == 1e-3
    with pytest.raises(ValueError):
        pad_layout(np.zeros((2, 7)), 4)
    with pytest.raises(ValueError):
        pad_layout(np.zeros((5, 8)), 4)


def _random_config():
    return SceneConfig(
        category_names=("bed", "desk", "sofa", "rug", "plant", "cabinet"),
        k_f=3,
        n_f=4,
        n_max=6,
        d=16,
        style_names=("red", "green", "blue"),
    )


def test_generate_dataset_consistency():
    bundle = generate_dataset(_random_config(), n_scenes=12, seed=1)
    assert bundle.n_scenes == 12
    assert len(bundle.config.style_codes) == 3
    assert len(set(bundle.config.style_codes)) == 3
    assert len(bundle.library) == 6 * 3
    for scene, graph, layout in zip(bundle.scenes, bundle.graphs, bundle.layouts):
        assert 2 <= scene.n_objects <= 4
        assert graph.empty_consistent()
        # Stored graphs re-derive exactly from geometry and features.
        again = pad_graph(
            derive_semantic_graph(scene, bundle.codebook, bundle.config),
            bundle.config.n_max,
        )
        assert again == graph
        assert np.array_equal(layout[: scene.n_objects], scene_to_layout(scene))
        for obj in scene.objects:
            asset = bundle.library.get(obj.asset_id)
            assert asset.category == obj.category
            assert np.array_equal(asset.feature, obj.feature)
    assert 1 <= len(bundle.instructions) <= 16
    for instr in bundle.instructions:
        assert any(instruction_matches(g, instr) for g in bundle.graphs)


def test_generate_dataset_determinism():
    a = generate_dataset(_random_config(), n_scenes=5, seed=3)
    b = generate_dataset(_random_config(), n_scenes=5, seed=3)
    assert np.array_equal(a.layouts, b.layouts)
    assert all(x == y for x, y in zip(a.graphs, b.graphs))


def test_generate_dataset_validation():
    with pytest.raises(ValueError):
        generate_dataset(_random_config(), n_scenes=0, seed=0)
    mismatched = SceneConfig(
        category_names=("a", "b"),
        k_f=4,
        n_f=2,
        n_max=4,
        d=8,
        style_names=("x", "y"),
    )
    with pytest.raises(ValueError):
        generate_dataset(mismatched, n_scenes=3, seed=0)


def test_codebook_fit_starts_from_the_seed_then_its_children(monkeypatch):
    seeds = []
    fit = datagen.fit_codebook

    def spy(*args, seed, **kwargs):
        seeds.append(seed)
        return fit(*args, seed=seed, **kwargs)

    monkeypatch.setattr(datagen, "fit_codebook", spy)
    # Seed 1 separates the styles at once; seed 4 at 50 scenes does not.
    generate_dataset(_random_config(), n_scenes=50, seed=1)
    assert seeds == [1]
    bundle = generate_dataset(_random_config(), n_scenes=50, seed=4)
    assert seeds[1] == 4
    assert [(s.entropy, s.spawn_key) for s in seeds[2:]] == [(4, (0,))]
    assert len(set(bundle.config.style_codes)) == 3
    monkeypatch.setattr(datagen, "_CODEBOOK_RETRIES", 0)
    with pytest.raises(DatasetError, match="failed to separate"):
        generate_dataset(_random_config(), n_scenes=50, seed=4)


def test_library_lookup(toy):
    chairs = toy.library.of_category(1)
    assert [a.asset_id for a in chairs] == sorted(a.asset_id for a in chairs)
    assert all(a.category == 1 for a in chairs)
    assert len(chairs) == 2
    with pytest.raises(KeyError):
        toy.library.get("missing")
    with pytest.raises(ValueError):
        chairs[0].feature[0] = 9.0
