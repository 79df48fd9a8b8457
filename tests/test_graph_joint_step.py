"""The exact graph denoiser's joint reverse step.

With an EmpiricalGraphDenoiser, ``reverse_sample_batch`` draws one dataset
graph per chain from the posterior weights at every step and moves each free
slot by the exact posterior q(x_{t-1} | x_t, x_0) given that graph. A chain's
state then stays consistent with the graph it drew, so no chain loses every
hypothesis, and the chain ends on a dataset graph. The oracles are the
filtered dataset prior, counted directly from the bundle's graphs, and the
algebra of guidance on nested filters.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from scenediff import graph_diffusion as gd
from scenediff.config import SceneConfig
from scenediff.datagen import generate_dataset
from scenediff.errors import SupportError
from scenediff.evaluation import tv_distance
from scenediff.graph_diffusion import (
    KERNELS,
    MASKING_KERNELS,
    EmpiricalGraphDenoiser,
    FrozenGraph,
    GraphSchedule,
    apply_cfg,
    build_graph_schedule,
    corrupt_graph,
    mask_schedule_from_params,
    posterior_mixture_tensor,
    reverse_sample_batch,
    uniform_schedule_from_stays,
)
from scenediff.graph import SemanticGraph
from scenediff.instructions import Instruction, StyleConstraint, instruction_matches

T = 25

# The CLI's random family (scenediff make-dataset --family random).
RANDOM_CONFIG = SceneConfig(
    category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
    k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"),
)


def _frozen_holds(graph, frozen) -> bool:
    return bool(
        (graph.categories == frozen.cat_values)[frozen.cat_mask].all()
        and (graph.codes == frozen.code_values)[frozen.code_mask].all()
        and (graph.relations == frozen.rel_values)[frozen.rel_mask].all())


def _clamped(frozen, states):
    """The chain states with a frozen spec's slots clamped, and per kind the
    (B, S) mask of the slots left free."""
    masks = (frozen.cat_mask, frozen.code_mask.reshape(-1), frozen.rel_mask)
    values = (frozen.cat_values, frozen.code_values.reshape(-1), frozen.rel_values)
    clamped = [np.where(m, v, x) for m, v, x in zip(masks, values, states)]
    return clamped, tuple(np.broadcast_to(~m, x.shape) for m, x in zip(masks, states))


def _condition(bundle, case):
    """Sampler keywords for a case, and the dataset graphs it keeps."""
    if case == "instruction":
        instr = bundle.instructions[2 % len(bundle.instructions)]
        return {"instructions": instr}, lambda g: instruction_matches(g, instr)
    if case == "frozen":
        # The first two slots' categories and their relation: on the toy
        # bundle this keeps four of the eight distinct graphs.
        frozen = FrozenGraph.from_graph(bundle.graphs[0], freeze_categories=True,
                                        freeze_relations=True, slots=[0, 1])
        return {"frozen": frozen}, lambda g: _frozen_holds(g, frozen)
    return {}, lambda g: True


@pytest.fixture(scope="module")
def random_bundles():
    """The CLI's default random bundle (seed 0, 50 scenes, 49 distinct
    graphs) and the benchmark's (seed 1, 1000 scenes, 958)."""
    return {(seed, n): generate_dataset(RANDOM_CONFIG, n, seed=seed)
            for seed, n in ((0, 50), (1, 1000))}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("source", [(0, 50), (1, 1000)])
def test_random_family_chains_end_on_dataset_graphs(random_bundles, source, kernel):
    # The factorized step drew each slot from its own marginal, which can
    # mix slots of different dataset graphs. On these bundles at least one
    # of the three conditions below then raised SupportError or returned a
    # graph outside the dataset, under every kernel.
    bundle = random_bundles[source]
    sched = build_graph_schedule(bundle.config, T, kernel)
    den = EmpiricalGraphDenoiser(bundle.graphs, sched)
    keys = {g.key() for g in den.graphs}
    for i, case in enumerate(("unconditional", "instruction", "frozen")):
        kwargs, keep = _condition(bundle, case)
        graphs = reverse_sample_batch(den, sched, 1000, np.random.default_rng([i, *source]),
                                      **kwargs)
        assert len(graphs) == 1000
        assert all(g.key() in keys and keep(g) for g in graphs), case


@pytest.mark.parametrize("case", ["unconditional", "instruction", "frozen"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_terminal_law_is_the_filtered_dataset_prior(toy, kernel, case):
    sched = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, sched)
    kwargs, keep = _condition(toy, case)
    kept = Counter(g.key() for g in toy.graphs if keep(g))
    assert 1 < len(kept) < den.n_unique or case == "unconditional"
    target = {k: c / sum(kept.values()) for k, c in kept.items()}
    n = 4000
    graphs = reverse_sample_batch(den, sched, n, np.random.default_rng(KERNELS.index(kernel)),
                                  **kwargs)
    drawn = Counter(g.key() for g in graphs)
    assert sum(c for k, c in drawn.items() if k not in target) == 0
    # Sampling noise alone gives a TV of about 0.015 here (8 graphs, 4000
    # draws); the uniform-structure kernels start from their near-uniform
    # terminal rather than the exact one, which adds little at T = 25.
    assert tv_distance(target, {k: c / n for k, c in drawn.items()}) <= 0.05


def _corrupted_states(den, sources, t, rng, batch):
    graphs = [corrupt_graph(sources[i % len(sources)], t, den.schedule, rng)
              for i in range(batch)]
    return (np.stack([g.categories for g in graphs]),
            np.stack([g.codes.reshape(-1) for g in graphs]),
            np.stack([g.relations for g in graphs]))


@pytest.mark.parametrize("kernel", KERNELS)
def test_guidance_leaves_the_exact_weights_unchanged(toy, kernel):
    # The conditional filter is the unconditional one ANDed with the
    # instruction's, so the conditional weights are the unconditional ones
    # restricted and renormalized; guidance then returns them unchanged.
    sched = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, sched)
    (instr_kwargs, instr_keep), (frozen_kwargs, frozen_keep) = (
        _condition(toy, "instruction"), _condition(toy, "frozen"))
    instr, frozen = instr_kwargs["instructions"], frozen_kwargs["frozen"]
    sources = [g for g in den.graphs if instr_keep(g) and frozen_keep(g)]
    assert len(sources) > 1
    rng = np.random.default_rng(KERNELS.index(kernel))
    batch, moved = 64, 0
    for t in (T, T // 2, 3, 1):
        cat, code, rel = _corrupted_states(den, sources, t, rng, batch)
        w_u = den.posterior_weights(cat, code, rel, None, t)
        w_c = den.posterior_weights(cat, code, rel, den.filter_vector(instr), t)
        pairs = [(w_c, w_u)]
        # Frozen slots hold their clean values and carry no evidence.
        (cat, code, rel), observe = _clamped(frozen, (cat, code, rel))
        w_u = den.posterior_weights(cat, code, rel, den.frozen_value_filter(frozen), t, observe)
        w_c = den.posterior_weights(cat, code, rel, den.combine_filters(instr, frozen),
                                    t, observe)
        pairs.append((w_c, w_u))
        for w_c, w_u in pairs:
            moved += not np.array_equal(w_c, w_u)
            for s in (0.5, 1.0, 3.0, 10.0):
                assert np.abs(apply_cfg(w_c, w_u, s) - w_c).max() <= 1e-12
    assert moved  # the instruction filter changed some weights


def test_predict_draws_one_dataset_graph_per_chain(toy, toy_schedule):
    den = EmpiricalGraphDenoiser(toy.graphs, toy_schedule)
    t, batch = 12, 20000
    rng = np.random.default_rng(5)
    cat, code, rel = _corrupted_states(den, den.graphs[:1], t, rng, 1)
    states = tuple(np.repeat(x, batch, axis=0) for x in (cat, code, rel))
    w = den.posterior_weights(*states, None, t)[0]
    assert (w > 0.0).sum() > 1
    got = den.predict_arrays(*states, None, t, rng=rng)
    rows = [np.concatenate([g.categories, g.codes.reshape(-1), g.relations])
            for g in den.graphs]
    index = {r.tobytes(): u for u, r in enumerate(rows)}
    drawn = Counter(index[r.tobytes()] for r in np.concatenate(got, axis=1))
    assert tv_distance(dict(enumerate(w)), {u: c / batch for u, c in drawn.items()}) <= 0.02


def _direct_joint_step(states, x0, s, t, rng, free):
    """The joint step as a gather of posterior rows and one _sample_rows call."""
    out = states.reshape(-1).copy()
    if free.size:
        probs = posterior_mixture_tensor(s, t)[out[free], x0.reshape(-1)[free]]
        out[free] = gd._sample_rows(probs, rng)
    return out.reshape(states.shape)


@pytest.mark.parametrize("kernel", KERNELS)
def test_joint_step_reads_memoized_cumulative_posterior_rows(toy, kernel):
    schedule = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, schedule)
    kinds = (schedule.category, schedule.code, schedule.relation)
    rng = np.random.default_rng(KERNELS.index(kernel))
    batch = 40
    sources = [den.graphs[i % den.n_unique] for i in range(batch)]
    clean = (np.stack([g.categories for g in sources]),
             np.stack([g.codes.reshape(-1) for g in sources]),
             np.stack([g.relations for g in sources]))
    for t in (T, T // 2, 1):
        states = _corrupted_states(den, sources, t, rng, batch)
        for s, x_t, x0 in zip(kinds, states, clean):
            for frozen in (np.zeros(x_t.shape, dtype=bool), rng.random(x_t.shape) < 0.4,
                           np.ones(x_t.shape, dtype=bool)):
                free = np.flatnonzero(~frozen.reshape(-1))
                seed = int(rng.integers(2**32))
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _direct_joint_step(x_t, x0, s, t, want_rng, free)
                got = gd._joint_step_kind(x_t, x0, s, t, got_rng, free)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert np.array_equal(got[frozen], x_t[frozen])
            table = gd._mixture_cdf(s, t)
            assert gd._mixture_cdf(s, t) is table and not table.flags.writeable
    assert sorted(schedule.category._mixture_cdfs) == [1, T // 2, T]


def _reference_reverse_sample(den, schedule, n, rng, instructions=None, frozen=None):
    """reverse_sample_batch written out step by step: the dataset graphs that
    satisfy the instruction and carry the frozen values, found graph by graph
    with instruction_matches and _frozen_holds; the posterior weights over
    them, one _sample_rows draw of a dataset graph per chain, the direct
    joint step per kind, and one SemanticGraph per chain."""
    n_slots, n_f = den.n_slots, den.n_f
    kinds = (schedule.category, schedule.code, schedule.relation)
    widths = (n_slots, n_slots * n_f, n_slots * (n_slots - 1) // 2)
    states = [gd._initial_states(s, n, w, rng) for s, w in zip(kinds, widths)]
    frozen = frozen or FrozenGraph.nothing(n_slots, n_f)
    states, free = _clamped(frozen, states)
    keep = np.array([_frozen_holds(g, frozen)
                     and (instructions is None or instruction_matches(g, instructions))
                     for g in den.graphs])
    clean = (den._ucat, den._ucode, den._urel)
    for t in range(schedule.T, 0, -1):
        u = gd._sample_rows(den.posterior_weights(*states, keep, t, free), rng)
        states = [_direct_joint_step(x, c[u], s, t, rng, np.flatnonzero(f))
                  for x, c, s, f in zip(states, clean, kinds, free)]
    cat, code, rel = states
    return [SemanticGraph(cat[b], code[b].reshape(n_slots, n_f), rel[b],
                          k_c=den.k_c, k_f=den.k_f, k_e=den.k_e) for b in range(n)]


def _sampler_case(bundle, case):
    """Sampler keywords: no filter, an instruction, the frozen slots and
    instruction of one of the pipeline's three edits of a dataset graph, or
    an instruction that one toy graph alone satisfies."""
    graph = bundle.graphs[0]
    if case == "instruction":
        return {"instructions": bundle.instructions[2]}
    if case == "pinned-instruction":
        oak = StyleConstraint(codes=bundle.config.style_signature("oak"))
        return {"instructions": Instruction(triplets=bundle.instructions[7].triplets,
                                            style=oak)}
    if case == "complete":
        return {"frozen": FrozenGraph.from_graph(graph, freeze_categories=True,
                                                 freeze_codes=True, freeze_relations=True,
                                                 slots=range(2))}
    if case == "rearrange":
        return {"frozen": FrozenGraph.from_graph(graph, freeze_categories=True,
                                                 freeze_codes=True)}
    if case == "stylize":
        oak = StyleConstraint(codes=bundle.config.style_signature("oak"))
        return {"instructions": Instruction(style=oak),
                "frozen": FrozenGraph.from_graph(graph, freeze_categories=True,
                                                 freeze_relations=True)}
    return {}


SAMPLER_CASES = ("unconditional", "instruction", "complete", "rearrange", "stylize",
                 "pinned-instruction")


@pytest.mark.parametrize("batch", [1, 7, 300])
@pytest.mark.parametrize("case", SAMPLER_CASES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_sampler_matches_the_reference_loop(toy, kernel, case, batch):
    schedule = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, schedule)
    kwargs = _sampler_case(toy, case)
    seed = [KERNELS.index(kernel), SAMPLER_CASES.index(case), batch]
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_reverse_sample(den, schedule, batch, want_rng, **kwargs)
    got = reverse_sample_batch(den, schedule, batch, got_rng, **kwargs)
    assert len(got) == batch
    assert [g.key() for g in got] == [g.key() for g in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# sha256 of the graph keys of a 1-chain and then a 50-chain call on one
# generator, followed by the generator's final state. A change to the
# sampler that keeps every draw leaves these as they are.
SAMPLER_DIGESTS = {
    "independent-mask/unconditional":
        "c3c355b7d603fde02b153c39f109db8ac1ff5c646a46d497b4270d5514a9cd1f",
    "independent-mask/instruction":
        "c5416c61dbb3a3dc9a6cbd047998c6e2f2b50b2ba8a41e5c1e0f42d6add70a8d",
    "independent-mask/complete":
        "6ac8cff090c4a572880f6b3823c4d96bbdffc5b567c25cf997ca4af97dd998b6",
    "independent-mask/rearrange":
        "662f61721fb46a2b8b224e2ebcd5620745c9b56eaeada3d7a9e7d467afa11b1b",
    "independent-mask/stylize":
        "bc6fb9879db11a758865ded779cf38b0b83a08f32fca0dc96b0cc47b04b611bc",
    "independent-mask/pinned-instruction":
        "9d2487a0718d54a6fe2d338e27508bd8d5ce69e1051d46ce98d1d7383d0a1916",
    "uniform/unconditional":
        "d3e14514eede3f462de508505152e79ed0be090966b4041c9b8ab739d6151fdc",
    "uniform/instruction":
        "74603dce085f7d62a96b4fc87e2cd7b87e7bb8b468328f08ddd2a4f8b6fa0471",
    "uniform/complete":
        "892b19db567f8f265a107a88f4d4e4c3c832e6f19795fd3bf253c855c1202f65",
    "uniform/rearrange":
        "bd1f4410ac3306743b83cffd13881210c24941983ca7871befb8006355c383fc",
    "uniform/stylize":
        "65a427b3f0fd7d638ab84a7fd95618233b38eb4b442390ccdb9ff03505128bf4",
    "uniform/pinned-instruction":
        "e71a89b80f99fda9a50d4b362b9fa6a06b37fcc6301cebe34f2c185b675a1d40",
    "joint-mask/unconditional":
        "30b3f57c18a4862243e1e04d454730f0caf1e649f187da1c0978258d93f0d8f5",
    "joint-mask/instruction":
        "c090a0a9c494b08f9c4e1f0feb5bd10d9a0b5a9708d28843a64079f2d10fa617",
    "joint-mask/complete":
        "a7f8634c1bdedbc9567da14eca8ae79e0a6a6edcbbd1e1eef678026b62555df5",
    "joint-mask/rearrange":
        "98744db69a6f80aa6654b46ee438bc2990f91f0e8a3aa71c7314d584c1d42ed4",
    "joint-mask/stylize":
        "bc46dea8ed654741b2a5f5e6fd9af9c832f91a5810c125aaed03e8d0f1aa03c9",
    "joint-mask/pinned-instruction":
        "1a09549ace63a188c853f79534da6426a51c1663dcc0fd049cbcbf3cb157c028",
    "gaussian-embedding/unconditional":
        "f480b3ae01dca1e72bee7cb321a6de8273728b562bf3e12877b4dcc8854ad4f7",
    "gaussian-embedding/instruction":
        "407082c97f2dbe176d1f2a051e9fe74484a0d7acb4f9feeda3d031b8404cf5b6",
    "gaussian-embedding/complete":
        "effb240758d9c52d3ae4b8bd8c6d0fef9bab433de2e20d6367453405baef3c4a",
    "gaussian-embedding/rearrange":
        "b335bc17f964e375ee1433f7c498b74909cce8ef07b9105b059ed739a9a4d388",
    "gaussian-embedding/stylize":
        "8dbef01191cd4b6920922a462286b5103ba87e1199e6755613ba8d052f0b495a",
    "gaussian-embedding/pinned-instruction":
        "cfa29946154be03f0402f5d28f0e409f657ca12b4a496132e5961320d41335b8",
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_sampler_outputs_match_their_pinned_digests(toy, kernel, case):
    schedule = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, schedule)
    rng = np.random.default_rng([KERNELS.index(kernel), SAMPLER_CASES.index(case)])
    digest = hashlib.sha256()
    for batch in (1, 50):
        graphs = reverse_sample_batch(den, schedule, batch, rng, **_sampler_case(toy, case))
        digest.update(b"".join(g.key() for g in graphs))
    digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert digest.hexdigest() == SAMPLER_DIGESTS[f"{kernel}/{case}"]


def _never_called(*args, **kwargs):
    raise AssertionError("the sampler stepped a call with one live hypothesis")


@pytest.mark.parametrize("batch", [1, 7, 300])
@pytest.mark.parametrize("case", ["stylize", "pinned-instruction"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_one_live_hypothesis_returns_it_without_stepping(toy, kernel, case, batch,
                                                         monkeypatch):
    schedule = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, schedule)
    kwargs = _sampler_case(toy, case)
    frozen = kwargs.get("frozen") or FrozenGraph.nothing(den.n_slots, den.n_f)
    live = np.flatnonzero(den.combine_filters(kwargs.get("instructions"), frozen))
    assert live.size == 1
    seed = [KERNELS.index(kernel), batch, 13]
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_reverse_sample(den, schedule, batch, want_rng, **kwargs)
    for name in ("predict_arrays", "posterior_weights", "log_likelihood"):
        monkeypatch.setattr(EmpiricalGraphDenoiser, name, _never_called)
    got = reverse_sample_batch(den, schedule, batch, got_rng, **kwargs)
    assert [g.key() for g in got] == [g.key() for g in want]
    assert all(g is den.graphs[live[0]] for g in got)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("batch", [1, 7, 300])
@pytest.mark.parametrize("kernel", KERNELS)
def test_a_one_graph_dataset_matches_the_reference_loop(toy, kernel, batch):
    schedule = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser([toy.graphs[0]], schedule)
    seed = [KERNELS.index(kernel), batch, 1]
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_reverse_sample(den, schedule, batch, want_rng)
    got = reverse_sample_batch(den, schedule, batch, got_rng)
    assert [g.key() for g in got] == [g.key() for g in want] == [toy.graphs[0].key()] * batch
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _label_keeping_schedule(config, kernel):
    """Per-kind schedules under which no entry ever leaves its clean label:
    zero gammas under the masking kernels, stay weights of 1 under the
    others. So qbar_T is the identity, and the start (all mask, or uniform
    labels) is out of every dataset graph's reach."""
    def build(k):
        if kernel in MASKING_KERNELS:
            return mask_schedule_from_params(k, np.ones(T), np.zeros(T), np.zeros(T),
                                             kernel=kernel)
        return uniform_schedule_from_stays(k, np.ones(T), kernel=kernel)

    return GraphSchedule(*(build(k) for k in (config.k_c, config.k_f, config.k_e)))


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_live_hypothesis_fails_where_the_first_step_would(toy, kernel):
    # No dataset graph explains the start, so the loop's first step raises;
    # so do a call that skips the steps (one graph) and one that steps (all).
    schedule = _label_keeping_schedule(toy.config, kernel)
    for graphs in ([toy.graphs[0]], toy.graphs):
        den = EmpiricalGraphDenoiser(graphs, schedule)
        assert den.n_unique == (1 if len(graphs) == 1 else 8)
        for sample in (_reference_reverse_sample, reverse_sample_batch):
            with pytest.raises(SupportError):
                sample(den, schedule, 3, np.random.default_rng(0))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_discarded_uniforms_advance_the_generator_as_one_draw(bit_generator):
    for n in (0, 5, gd._DISCARD_PIECE, 2 * gd._DISCARD_PIECE + 3):
        want, got = (np.random.Generator(bit_generator(7)) for _ in range(2))
        want.random(n)
        gd._discard_uniforms(got, n)
        # MT19937 keeps its key as an array, so compare the states as JSON.
        assert (json.dumps(got.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)
                == json.dumps(want.bit_generator.state, sort_keys=True,
                              default=np.ndarray.tolist))


@pytest.mark.parametrize("kernel", KERNELS)
def test_chains_share_one_graph_per_terminal_state(toy, kernel):
    schedule = build_graph_schedule(toy.config, T, kernel)
    den = EmpiricalGraphDenoiser(toy.graphs, schedule)
    graphs = reverse_sample_batch(den, schedule, 500, np.random.default_rng(KERNELS.index(kernel)))
    by_key = {}
    for g in graphs:
        assert by_key.setdefault(g.key(), g) is g
    assert 1 < len(by_key) == len({id(g) for g in graphs})
    with pytest.raises(ValueError):
        graphs[0].categories[0] = 0  # shared graphs are read-only


@pytest.mark.parametrize("kernel", KERNELS)
def test_cumulative_table_transposes_to_a_c_contiguous_read_only_layout(toy, kernel):
    schedule = build_graph_schedule(toy.config, T, kernel)
    for s in (schedule.category, schedule.code, schedule.relation):
        for t in (1, T // 2, T):
            table = gd._mixture_cdf(s, t).T
            assert table.shape == (s.n_states, s.n_states * (s.k + 1))
            assert table.flags.c_contiguous and not table.flags.writeable
            cumulative = np.cumsum(posterior_mixture_tensor(s, t), axis=-1)
            assert table.tobytes() == cumulative.reshape(-1, s.n_states).T.tobytes()
