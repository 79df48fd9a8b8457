"""The exact graph denoiser's likelihood and prediction as matrix products.

``EmpiricalGraphDenoiser.log_likelihood`` sums log Qbar_t terms through
products with the dataset one-hots. The oracles here are the direct forms it
replaces: a (B, U, S) gather of log Qbar_t[observed, clean] summed over the
slots, and an einsum of the posterior weights with per-kind one-hots.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from scenediff import graph_diffusion
from scenediff.config import SceneConfig
from scenediff.datagen import generate_dataset
from scenediff.errors import SupportError
from scenediff.graph_diffusion import (
    KERNELS,
    EmpiricalGraphDenoiser,
    FrozenGraph,
    build_graph_schedule,
    corrupt_graph,
)

T = 50
STEPS = (T, T // 2, 5, 1)

# The CLI's random family; 1000 scenes from seed 1 give 958 distinct graphs.
RANDOM_CONFIG = SceneConfig(
    category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
    k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"),
)


@pytest.fixture(scope="module")
def random_bundle():
    return generate_dataset(RANDOM_CONFIG, 1000, seed=1)


@pytest.fixture(scope="module")
def denoisers(random_bundle):
    return {kernel: EmpiricalGraphDenoiser(
        random_bundle.graphs, build_graph_schedule(random_bundle.config, T, kernel))
        for kernel in KERNELS}


def _clean_labels(den):
    return (np.stack([g.categories for g in den.graphs]),
            np.stack([g.codes.reshape(-1) for g in den.graphs]),
            np.stack([g.relations for g in den.graphs]))


def _gather_log_likelihood(den, states, t, observe):
    """log q(states | every dataset graph) by a (B, U, S) gather per kind."""
    kinds = (den.schedule.category, den.schedule.code, den.schedule.relation)
    observe = (None, None, None) if observe is None else observe
    ll = np.zeros((states[0].shape[0], den.n_unique))
    for sched, state, obs, clean in zip(kinds, states, observe, _clean_labels(den)):
        q = sched.qbar[t]
        log_q = np.where(q > 0.0, np.log(np.maximum(q, 1e-300)), -np.inf)
        contrib = log_q[state[:, None, :], clean[None, :, :]]
        if obs is not None:
            contrib = np.where(obs[:, None, :], contrib, 0.0)
        ll += contrib.sum(axis=2)
    return ll


def _einsum_prediction(den, w):
    out = []
    for sched, clean in zip((den.schedule.category, den.schedule.code, den.schedule.relation),
                            _clean_labels(den)):
        onehot = np.eye(sched.k + 1)[clean]
        out.append(np.einsum("bu,unk->bnk", w, onehot))
    return out


def _states(bundle, den, t, rng, n_noisy=24, n_random=8):
    """Forward samples of dataset graphs, then states drawn uniformly over
    the whole alphabet (mask included), most of which some graph rules out."""
    noisy = [corrupt_graph(bundle.graphs[i], t, den.schedule, rng)
             for i in rng.choice(bundle.n_scenes, n_noisy, replace=False)]
    states = [np.stack([g.categories for g in noisy]),
              np.stack([g.codes.reshape(-1) for g in noisy]),
              np.stack([g.relations for g in noisy])]
    for i, sched in enumerate((den.schedule.category, den.schedule.code, den.schedule.relation)):
        extra = rng.integers(sched.n_states, size=(n_random, states[i].shape[1]))
        states[i] = np.concatenate([states[i], extra])
    return tuple(states), n_noisy


def _observe(states, rng):
    return tuple(rng.random(s.shape) < 0.7 for s in states)


def _assert_agrees(got, want):
    assert got.shape == want.shape
    assert not np.isnan(got).any() and not np.isposinf(got).any()
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert finite.any()
    assert np.abs(got[finite] - want[finite]).max() <= 1e-12


@pytest.mark.parametrize("kernel", KERNELS)
def test_log_likelihood_matches_the_gather(random_bundle, denoisers, kernel):
    den = denoisers[kernel]
    rng = np.random.default_rng(KERNELS.index(kernel))
    for t in STEPS:
        states, _ = _states(random_bundle, den, t, rng)
        for observe in (None, _observe(states, rng)):
            _assert_agrees(den.log_likelihood(*states, t, observe),
                           _gather_log_likelihood(den, states, t, observe))


@pytest.mark.parametrize("kernel", KERNELS)
def test_prediction_matches_the_einsum(random_bundle, denoisers, kernel):
    den = denoisers[kernel]
    rng = np.random.default_rng(10 + KERNELS.index(kernel))
    for t in STEPS:
        states, n_noisy = _states(random_bundle, den, t, rng)
        # Forward samples of dataset graphs keep a positive posterior.
        states = tuple(s[:n_noisy] for s in states)
        for observe in (None, _observe(states, rng)):
            got = den.predict_arrays(*states, None, t, observe)
            w = den.posterior_weights(*states, None, t, observe)
            for p, want in zip(got, _einsum_prediction(den, w)):
                assert p.shape == want.shape
                assert np.array_equal(p == 0.0, want == 0.0)
                assert np.abs(p - want).max() <= 1e-12


# FrozenGraph.from_graph's keywords for the pipeline's three edits.
EDITS = {
    "complete": dict(freeze_categories=True, freeze_codes=True, freeze_relations=True,
                     slots=range(2)),
    "rearrange": dict(freeze_categories=True, freeze_codes=True),
    "stylize": dict(freeze_categories=True, freeze_relations=True),
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_one_chain_edit_likelihood_matches_the_gather(random_bundle, denoisers, kernel, edit):
    # One chain per call, observing what the edit leaves free: a forward
    # sample, the all-mask start and a state over the whole alphabet, each
    # with the frozen slots clamped to the edited graph's values. The last
    # two are often impossible under every graph, so the rows are compared
    # together.
    den = denoisers[kernel]
    rng = np.random.default_rng(30 + KERNELS.index(kernel))
    kinds = (den.schedule.category, den.schedule.code, den.schedule.relation)
    got, want = [], []
    for i in rng.choice(random_bundle.n_scenes, 3, replace=False):
        graph = random_bundle.graphs[i]
        f = FrozenGraph.from_graph(graph, **EDITS[edit])
        masks = (f.cat_mask, f.code_mask.reshape(-1), f.rel_mask)
        values = (f.cat_values, f.code_values.reshape(-1), f.rel_values)
        observe = tuple(~m[None] for m in masks)
        for t in STEPS:
            noisy = corrupt_graph(graph, t, den.schedule, rng)
            starts = ((noisy.categories, noisy.codes.reshape(-1), noisy.relations),
                      tuple(np.full(v.shape, s.k + 1) for v, s in zip(values, kinds)),
                      tuple(rng.integers(s.n_states, size=v.shape) for v, s in zip(values, kinds)))
            for start in starts:
                states = tuple(np.where(m, v, x)[None] for m, v, x in zip(masks, values, start))
                got.append(den.log_likelihood(*states, t, observe))
                want.append(_gather_log_likelihood(den, states, t, observe))
    _assert_agrees(np.concatenate(got), np.concatenate(want))


@pytest.mark.parametrize("kind", range(3))
@pytest.mark.parametrize("label", ["below", "above"])
def test_out_of_alphabet_label_raises(random_bundle, denoisers, kind, label):
    # A label just past a kind's alphabet would index the next kind's
    # table, and a negative one the previous kind's; both must raise, also
    # on an unobserved slot.
    den = denoisers["independent-mask"]
    kinds = (den.schedule.category, den.schedule.code, den.schedule.relation)
    g = random_bundle.graphs[0]
    states = [x.reshape(1, -1).copy() for x in (g.categories, g.codes, g.relations)]
    states[kind][0, -1] = -1 if label == "below" else kinds[kind].k + 2
    observe = tuple(np.ones(x.shape, dtype=bool) for x in states)
    observe[kind][0, -1] = False
    for obs in (None, observe):
        with pytest.raises(IndexError):
            den.log_likelihood(*states, 5, obs)


@pytest.mark.parametrize("budget", [1, 40_000])
def test_small_chunks_match_the_gather(random_bundle, denoisers, monkeypatch, budget):
    # On this bundle a budget of one byte gives one chain per chunk, and
    # 40 kB gives chunks of two chains and a last chunk of one.
    monkeypatch.setattr(graph_diffusion, "_LIKELIHOOD_CHUNK_BYTES", budget)
    rng = np.random.default_rng(20)
    for kernel in ("independent-mask", "uniform"):
        den = denoisers[kernel]
        states, _ = _states(random_bundle, den, 5, rng, n_noisy=4, n_random=1)
        for observe in (None, _observe(states, rng)):
            _assert_agrees(den.log_likelihood(*states, 5, observe),
                           _gather_log_likelihood(den, states, 5, observe))


@pytest.mark.parametrize("batch", [100, 1000])
def test_log_likelihood_memory_is_bounded(denoisers, batch):
    # Beyond its (B, U) result, one call allocates at most the chunk budget
    # and, if a product copies it, the one-hot table; the (B, U, S) gather
    # took 29 MB at B = 100 and 293 MB at B = 1000.
    den = denoisers["uniform"]
    kinds = ((den.schedule.category, den.n_slots),
             (den.schedule.code, den.n_slots * den.n_f),
             (den.schedule.relation, den.n_slots * (den.n_slots - 1) // 2))
    onehot_bytes = 8 * den.n_unique * sum(width * (s.k + 1) for s, width in kinds)
    rng = np.random.default_rng(batch)
    states = [rng.integers(s.k + 1, size=(batch, width)) for s, width in kinds]
    tracemalloc.start()
    try:
        ll = den.log_likelihood(*states, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert den.n_unique == 958 and ll.shape == (batch, 958)
    assert peak - ll.nbytes < graph_diffusion._LIKELIHOOD_CHUNK_BYTES + onehot_bytes


def _assert_same_support(got, want):
    """-inf exactly where the gather has it, and the finite sums agree."""
    assert got.shape == want.shape and not np.isnan(got).any()
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert not finite.any() or np.abs(got[finite] - want[finite]).max() <= 1e-12


def _masked_state(den, batch):
    """Every slot masked, which every graph explains at any t >= 1."""
    kinds = (den.schedule.category, den.schedule.code, den.schedule.relation)
    widths = (den.n_slots, den.n_slots * den.n_f, den.n_slots * (den.n_slots - 1) // 2)
    return [np.full((batch, w), s.k + 1) for s, w in zip(kinds, widths)]


@pytest.mark.parametrize("kernel", graph_diffusion.MASKING_KERNELS)
def test_one_possible_hypothesis_left(random_bundle, kernel):
    # Without leak a real label stays itself or masks, so a dataset graph's
    # own clean labels rule out every other graph before the last step.
    den = EmpiricalGraphDenoiser(
        random_bundle.graphs, build_graph_schedule(random_bundle.config, T, kernel, leak=0.0))
    own = np.array([0, 5, 17, 400, den.n_unique - 1])
    states = [x[own] for x in _clean_labels(den)]
    for t in STEPS[1:]:
        got = den.log_likelihood(*states, t)
        _assert_same_support(got, _gather_log_likelihood(den, states, t, None))
        assert np.array_equal(np.isfinite(got), np.eye(den.n_unique, dtype=bool)[own])


@pytest.mark.parametrize("kernel", graph_diffusion.MASKING_KERNELS)
def test_every_hypothesis_impossible(random_bundle, denoisers, kernel):
    # Slot 2 shows an empty category but a real code: a real category never
    # turns empty and an empty code never turns real, so no graph explains it.
    den = denoisers[kernel]
    states = _masked_state(den, 2)
    states[0][:, 2] = den.schedule.category.k
    states[1][:, 2 * den.n_f] = 0
    for t in STEPS:
        got = den.log_likelihood(*states, t)
        _assert_same_support(got, _gather_log_likelihood(den, states, t, None))
        assert np.isneginf(got).all()
        with pytest.raises(SupportError) as info:
            den.posterior_weights(*states, None, t)
        assert str(info.value) == "a chain state has zero likelihood under every dataset graph"


@pytest.mark.parametrize("kernel", graph_diffusion.MASKING_KERNELS)
def test_observed_and_unobserved_slots_mixed(random_bundle, denoisers, kernel):
    # The state above, observed whole, without slot 2's category, and
    # without its code: no graph, the graphs with a real slot 2, and those
    # with an empty one.
    den = denoisers[kernel]
    states = _masked_state(den, 3)
    states[0][:, 2] = den.schedule.category.k
    states[1][:, 2 * den.n_f] = 0
    observe = [np.ones(x.shape, dtype=bool) for x in states]
    observe[0][1, 2] = False
    observe[1][2, 2 * den.n_f] = False
    real = den._ucat[:, 2] < den.schedule.category.k
    assert 0 < real.sum() < den.n_unique
    # At t = T every label has masked, so any other observed label is
    # impossible; the steps before it keep both groups.
    for t in STEPS[1:]:
        got = den.log_likelihood(*states, t, tuple(observe))
        _assert_same_support(got, _gather_log_likelihood(den, states, t, observe))
        assert np.array_equal(np.isfinite(got), np.stack([real & ~real, real, ~real]))
