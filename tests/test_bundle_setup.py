"""The batched bundle set-up against per-scene and per-step oracles.

derive_graphs_and_layouts derives every scene's padded graph and layout in
array passes, and each MaskSchedule builds its step matrices as one stacked
array. The oracles here are the per-object, per-step forms they replaced:
they must agree bit for bit, and the derivation's temporaries must stay
within its chunk budget however many scenes there are.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from scenediff import datagen
from scenediff.config import SceneConfig
from scenediff.datagen import PAD_ROW, derive_graphs_and_layouts, generate_dataset
from scenediff.graph import derive_semantic_graph, empty_state, mask_state, pad_graph
from scenediff.graph_diffusion import KERNELS, build_graph_schedule
from scenediff.quantizer import Codebook
from scenediff.relations import extract_relations, n_pairs, pair_index
from scenediff.scene import ObjectInstance, Scene, scene_to_layout

RANDOM_CONFIG = SceneConfig(
    category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
    k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"),
)


@pytest.fixture(scope="module")
def random_bundle():
    return generate_dataset(RANDOM_CONFIG, 1000, seed=1)


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


def _assert_matches_oracle(scenes, codebook, config):
    graphs, layouts = derive_graphs_and_layouts(scenes, codebook, config)
    assert len(graphs) == len(scenes) and layouts.shape == (len(scenes), config.n_max, 8)
    for scene, graph, layout in zip(scenes, graphs, layouts):
        cats, codes, rels, want_layout = _oracle(scene, codebook, config)
        assert np.array_equal(graph.categories, cats)
        assert np.array_equal(graph.codes, codes)
        assert np.array_equal(graph.relations, rels)
        assert layout.tobytes() == want_layout.tobytes()
        assert (graph.k_c, graph.k_f, graph.k_e) == (config.k_c, config.k_f, config.k_e)
    return graphs


def test_derivation_matches_per_scene_oracle_on_toy(toy):
    graphs = _assert_matches_oracle(toy.scenes, toy.codebook, toy.config)
    assert graphs == toy.graphs


def test_derivation_matches_per_scene_oracle_on_random_family(random_bundle):
    b = random_bundle
    graphs = _assert_matches_oracle(b.scenes, b.codebook, b.config)
    assert graphs == b.graphs
    # The one-scene call is the same derivation at the scene's own width.
    for scene, graph in zip(b.scenes[:50], graphs):
        g = derive_semantic_graph(scene, b.codebook, b.config)
        assert g.n_slots == scene.n_objects
        assert pad_graph(g, b.config.n_max) == graph


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
    graphs = _assert_matches_oracle(scenes, codebook, config)
    assert graphs[0].codes[:2].tolist() == [[0, 1], [1, 0]]
    assert graphs[1].codes[0].tolist() == [0, 0]
    assert graphs[2].codes.tolist() == [[1, 1], [0, 1], [0, 1]]


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
