"""The array bundle set-up against per-scene, per-graph and per-step oracles.

derive_graphs_and_layouts derives every scene's padded labels and layout
in array passes, the two exact denoisers build their tables from the
stacked label arrays, and each MaskSchedule builds its step matrices as one
stacked array. The oracles here are the per-object, per-graph and per-step
forms they replaced: they must agree bit for bit, set-up must build no
SemanticGraph, and the derivation's temporaries must stay within its chunk
budget however many scenes there are.
"""
from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest

from scenediff import datagen, graph
from scenediff.config import SceneConfig
from scenediff.datagen import PAD_ROW, derive_graphs_and_layouts, generate_dataset
from scenediff.graph import (
    SemanticGraph,
    derive_semantic_graph,
    empty_state,
    mask_state,
    pad_graph,
)
from scenediff.graph_diffusion import KERNELS, EmpiricalGraphDenoiser, build_graph_schedule
from scenediff.layout_diffusion import ExactEpsDenoiser, build_gaussian_schedule, standardize
from scenediff.pipeline import ScenePipeline
from scenediff.quantizer import Codebook
from scenediff.relations import (
    extract_relations,
    n_pairs,
    pair_index,
    relation_between,
    relation_labels,
)
from scenediff.scene import ObjectInstance, Scene, scene_to_layout
from scenediff.scene_io import load_bundle, save_bundle

RANDOM_CONFIG = SceneConfig(
    category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
    k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"),
)


@pytest.fixture(scope="module")
def random_bundle():
    return generate_dataset(RANDOM_CONFIG, 1000, seed=1)


@pytest.fixture(params=["toy", "random"])
def family(request, toy, random_bundle):
    return toy if request.param == "toy" else random_bundle


def _oracle_codes(feature, codebook):
    chunks = np.asarray(feature).reshape(codebook.n_f, codebook.d_z)
    d2 = ((chunks[:, None, :] - codebook.entries[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _oracle(scene, codebook, config):
    """Per-object encode, extract_relations, then padding to n_max slots."""
    n, n_max = scene.n_objects, config.n_max
    cats = np.full(n_max, empty_state(config.k_c), dtype=np.int64)
    codes = np.full((n_max, config.n_f), empty_state(config.k_f), dtype=np.int64)
    for i, obj in enumerate(scene.objects):
        cats[i] = obj.category
        codes[i] = _oracle_codes(obj.feature, codebook)
    rels = np.full(n_pairs(n_max), empty_state(config.k_e), dtype=np.int64)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    for (j, k), label in zip(pairs, extract_relations(scene.objects)):
        rels[pair_index(j, k, n_max)] = int(label)
    layout = np.tile(PAD_ROW, (n_max, 1))
    layout[:n] = scene_to_layout(scene)
    return cats, codes, rels, layout


def _assert_matches_oracle(arrays, layouts, scenes, codebook, config):
    assert len(arrays) == len(scenes) and layouts.shape == (len(scenes), config.n_max, 8)
    assert (arrays.k_c, arrays.k_f, arrays.k_e) == (config.k_c, config.k_f, config.k_e)
    for i, scene in enumerate(scenes):
        cats, codes, rels, want_layout = _oracle(scene, codebook, config)
        assert arrays.categories[i].tobytes() == cats.tobytes()
        assert arrays.codes[i].tobytes() == codes.tobytes()
        assert arrays.relations[i].tobytes() == rels.tobytes()
        assert layouts[i].tobytes() == want_layout.tobytes()


def _derived(scenes, codebook, config):
    arrays, layouts = derive_graphs_and_layouts(scenes, codebook, config)
    _assert_matches_oracle(arrays, layouts, scenes, codebook, config)
    return arrays


def test_derivation_matches_per_scene_oracle_on_toy(toy):
    arrays = _derived(toy.scenes, toy.codebook, toy.config)
    assert arrays.graphs == toy.graphs


def test_derivation_matches_per_scene_oracle_on_random_family(random_bundle):
    b = random_bundle
    arrays = _derived(b.scenes, b.codebook, b.config)
    assert arrays.graphs == b.graphs
    # The one-scene call is the same derivation at the scene's own width,
    # or padded to n_max directly.
    for i, scene in enumerate(b.scenes[:50]):
        g = derive_semantic_graph(scene, b.codebook, b.config)
        assert g.n_slots == scene.n_objects
        assert pad_graph(g, b.config.n_max) == arrays.graph(i)
        assert derive_semantic_graph(scene, b.codebook, b.config, b.config.n_max) == \
            pad_graph(g, b.config.n_max)


def test_quantizer_tie_goes_to_the_lowest_code():
    config = SceneConfig(category_names=("a", "b"), k_f=3, n_f=2, n_max=3, d=2)
    # Chunk 1.0 is equidistant from entries 0 and 1, chunk -1.0 from 1 and 2.
    codebook = Codebook(entries=np.array([[2.0], [0.0], [-2.0]]), n_f=2)

    def obj(category, x, feature):
        return ObjectInstance(category=category, location=(x, 0.0, 0.5),
                              size=(0.5, 0.5, 1.0), rotation=0.0, feature=feature)

    scenes = (
        Scene(id="s0", objects=(obj(0, 0.0, [1.0, -1.0]), obj(1, 2.0, [-1.0, 1.0]))),
        Scene(id="s1", objects=(obj(1, 0.0, [1.0, 1.0]),)),
        Scene(id="s2", objects=(obj(0, 0.0, [-1.0, -1.0]), obj(0, 0.5, [2.0, 0.0]),
                                obj(1, 5.0, [1.0, -1.0]))),
    )
    codes = _derived(scenes, codebook, config).codes
    assert codes[0][:2].tolist() == [[0, 1], [1, 0]]
    assert codes[1][0].tolist() == [0, 0]
    assert codes[2].tolist() == [[1, 1], [0, 1], [0, 1]]


@pytest.mark.parametrize("reps", [40, 160])
def test_derivation_temporaries_stay_within_the_chunk_budget(toy, reps):
    scenes = toy.scenes * reps  # 720 and 2880 scenes
    tracemalloc.start()
    try:
        graphs, layouts = derive_graphs_and_layouts(scenes, toy.codebook, toy.config)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graphs) == len(scenes)
    # What is still held at the end is the output; the rest of the peak was
    # temporaries.
    assert peak - current < datagen._DERIVE_CHUNK_BYTES


def test_derivation_rejects_scenes_that_do_not_fit(toy):
    with pytest.raises(ValueError, match="need at least one scene"):
        derive_graphs_and_layouts((), toy.codebook, toy.config)
    too_many = Scene(id="big", objects=toy.scenes[0].objects * 2)
    with pytest.raises(ValueError, match="6 objects, more than 4 slots"):
        derive_graphs_and_layouts((toy.scenes[0], too_many), toy.codebook, toy.config)


def test_relation_labels_equal_the_scalar_rule_on_every_bundle_pair(family):
    objects = [o for scene in family.scenes for o in scene.objects]
    starts = np.cumsum([0] + [scene.n_objects for scene in family.scenes]).tolist()
    pairs = [(lo + a, lo + b) for lo, scene in zip(starts, family.scenes)
             for a in range(scene.n_objects) for b in range(scene.n_objects) if a != b]
    subjects, objs = (np.array(side) for side in zip(*pairs))
    got = relation_labels(np.array([o.location for o in objects]),
                          np.array([o.size for o in objects]), subjects, objs)
    assert got.tolist() == [relation_between(objects[a], objects[b]) for a, b in pairs]


# ---------------------------------------------------------------------------
# Loading and building: stacked arrays only, equal to the per-graph forms


def test_loaded_bundle_matches_per_scene_derivation(family, tmp_path):
    save_bundle(family, tmp_path)
    loaded = load_bundle(tmp_path)
    _assert_matches_oracle(loaded.graph_arrays, loaded.layouts, loaded.scenes,
                           loaded.codebook, loaded.config)
    assert loaded.layouts.tobytes() == family.layouts.tobytes()
    config = loaded.config
    want = []
    for scene in loaded.scenes:
        cats, codes, rels, _ = _oracle(scene, loaded.codebook, config)
        want.append(SemanticGraph(cats, codes, rels, k_c=config.k_c, k_f=config.k_f,
                                  k_e=config.k_e))
    assert loaded.graphs == tuple(want)


def _oracle_distinct(graphs):
    """The distinct graphs' label tables and counts as np.unique over the
    per-graph rows gave them, in order of first appearance."""
    cat = np.stack([g.categories for g in graphs])
    code = np.stack([g.codes.reshape(-1) for g in graphs])
    rel = np.stack([g.relations for g in graphs])
    _, first, counts = np.unique(np.concatenate([cat, code, rel], axis=1), axis=0,
                                 return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return first, (cat[first], code[first], rel[first], counts[order].astype(np.float64))


def _oracle_key_tables(graphs, layouts):
    """The layout stats and the exact, code-free and multiset key tables as
    bytes keys of each graph built them: key -> candidates in dataset order."""
    rows = np.concatenate(list(layouts), axis=0)
    mean, std = rows.mean(axis=0), rows.std(axis=0)
    std = np.where(std < 1e-9, 1.0, std)
    tables = ({}, {}, {})
    for g, layout in zip(graphs, layouts):
        keys = (g.key(), g.categories.tobytes() + g.relations.tobytes(),
                np.sort(g.categories[g.categories < g.k_c]).tobytes())
        for table, key in zip(tables, keys):
            table.setdefault(key, []).append((layout - mean) / std)
    return mean, std, tables


def test_denoiser_tables_match_per_graph_oracle(family):
    graph_schedule = build_graph_schedule(family.config, 10)
    layout_schedule = build_gaussian_schedule(10)
    first, want = _oracle_distinct(family.graphs)
    for dataset in (family.graph_arrays, list(family.graphs)):
        den = EmpiricalGraphDenoiser(dataset, graph_schedule)
        got = (den._ucat, den._ucode, den._urel, den._counts)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert den.graphs == tuple(family.graphs[i] for i in first)
    mean, std, tables = _oracle_key_tables(family.graphs, family.layouts)
    for den in (ExactEpsDenoiser(family.graph_arrays, layout_schedule, family.layouts),
                ExactEpsDenoiser(family.layout_pairs(), layout_schedule)):
        assert den.stats.mean.tobytes() == mean.tobytes()
        assert den.stats.std.tobytes() == std.tobytes()
        for table, want_table in zip((den._exact, den._no_codes, den._multiset), tables):
            assert list(table._ids) == list(want_table)
            for key, stack in want_table.items():
                assert den._z[table.get(key)].tobytes() == np.stack(stack).tobytes()


def test_matching_layouts_come_in_dataset_order(family, caplog):
    den = ExactEpsDenoiser(family.graph_arrays, build_gaussian_schedule(10), family.layouts)
    with caplog.at_level(logging.INFO, logger="scenediff.layout_diffusion"):
        for i in range(0, family.n_scenes, 7):
            g = family.graphs[i]
            want = [standardize(family.layouts[m], den.stats)
                    for m in range(family.n_scenes) if family.graphs[m] == g]
            assert den.matching_layouts(g).tobytes() == np.stack(want).tobytes()
    assert not caplog.text


def test_set_up_builds_no_semantic_graph(random_bundle, tmp_path, monkeypatch):
    save_bundle(random_bundle, tmp_path)
    built = []
    post_init = SemanticGraph.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(SemanticGraph, "__post_init__", counted)
    pipe = ScenePipeline(load_bundle(tmp_path))
    assert not built
    # The counter does see the graphs a caller asks for.
    assert len(pipe.bundle.graphs) == len(built) == 1000
    assert len(pipe.graph_denoiser.graphs) == pipe.graph_denoiser.n_unique == 958
    assert len(built) == 1958


def test_graph_arrays_reject_bad_shapes_and_labels(toy):
    a = toy.graph_arrays
    with pytest.raises(ValueError, match="categories"):
        graph.GraphArrays(a.categories[0], a.codes, a.relations, k_c=a.k_c, k_f=a.k_f)
    with pytest.raises(ValueError, match="one label per slot pair"):
        graph.GraphArrays(a.categories, a.codes, a.relations[:, 1:], k_c=a.k_c, k_f=a.k_f)
    bad = np.array(a.relations)
    bad[0, 0] = -1
    with pytest.raises(ValueError, match="outside its alphabet"):
        graph.GraphArrays(a.categories, a.codes, bad, k_c=a.k_c, k_f=a.k_f)
    with pytest.raises(ValueError, match="empty graph dataset"):
        graph.GraphArrays.from_graphs([])
    with pytest.raises(ValueError, match="share shape"):
        graph.GraphArrays.from_graphs([toy.graphs[0], pad_graph(toy.graphs[0], 5)])
    assert not a.categories.flags.writeable


# ---------------------------------------------------------------------------
# Schedules: the per-step step-matrix builders, kept here as the oracle


def _mask_step_matrix(k, alpha, beta, gamma):
    m = k + 2
    e, msk = empty_state(k), mask_state(k)
    q = np.zeros((m, m), dtype=np.float64)
    for j in range(k):
        q[:k, j] = beta
        q[j, j] = alpha + beta
        q[msk, j] = gamma
    q[e, e] = 1.0 - gamma
    q[msk, e] = gamma
    q[msk, msk] = 1.0
    return q


def _uniform_step_matrix(k, stay):
    m = k + 2
    states = k + 1
    q = np.zeros((m, m), dtype=np.float64)
    mix = (1.0 - stay) / states
    q[:states, :states] = mix
    q[np.arange(states), np.arange(states)] += stay
    q[mask_state(k), mask_state(k)] = 1.0
    return q


@pytest.mark.parametrize("T", [1, 7, 100])
@pytest.mark.parametrize("leak", [0.0, 0.3])
@pytest.mark.parametrize("kernel", KERNELS)
def test_schedule_arrays_match_per_step_oracle(toy, kernel, leak, T):
    graph_schedule = build_graph_schedule(toy.config, T, kernel, leak=leak)
    for s in (graph_schedule.category, graph_schedule.code, graph_schedule.relation):
        if kernel in ("independent-mask", "joint-mask"):
            steps = [_mask_step_matrix(s.k, float(a), float(b), float(g))
                     for a, b, g in zip(s.alphas, s.betas, s.gammas)]
        else:
            steps = [_uniform_step_matrix(s.k, float(a)) for a in s.alphas]
        assert s.q.tobytes() == np.stack(steps).tobytes()
        qbar = [np.eye(s.k + 2)]
        for q in steps:
            qbar.append(q @ qbar[-1])
        assert s.qbar.tobytes() == np.stack(qbar).tobytes()
