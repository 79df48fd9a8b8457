"""Gaussian layout diffusion: schedules, standardization, exact denoiser."""
from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest

from scenediff.graph import SemanticGraph
from scenediff.layout_diffusion import (
    MAX_STEP_VARIANCE,
    EpsDenoiser,
    ExactEpsDenoiser,
    GaussianSchedule,
    LayoutStats,
    build_gaussian_schedule,
    compute_layout_stats,
    cosine_alpha_bar,
    destandardize,
    forward_sample_layout,
    reverse_sample_layout,
    rotation_decode,
    rotation_encode,
    simple_loss,
    standardize,
)


@pytest.fixture(scope="module")
def sched():
    return build_gaussian_schedule(10)


# ---------------------------------------------------------------------------
# Rotation codec


def test_rotation_roundtrip():
    for r in (-3.0, -math.pi / 2, 0.0, 0.7, math.pi / 4, math.pi):
        c, s = rotation_encode(r)
        assert c * c + s * s == pytest.approx(1.0, abs=1e-15)
        assert rotation_decode(c, s) == pytest.approx(r, abs=1e-12)
    # Only the direction matters.
    assert rotation_decode(2.0, 2.0) == pytest.approx(math.pi / 4, abs=1e-15)
    with pytest.raises(ValueError, match="zero rotation"):
        rotation_decode(0.0, 0.0)


# ---------------------------------------------------------------------------
# Schedules


def test_cosine_ramp_shape_and_range():
    for T in (1, 4, 10, 100):
        ab = cosine_alpha_bar(T)
        assert ab.shape == (T + 1,)
        assert ab[0] == 1.0
        assert (ab > 0.0).all() and (ab <= 1.0).all()
        assert (np.diff(ab) < 0.0).all()
    with pytest.raises(ValueError):
        cosine_alpha_bar(0)


def test_build_gaussian_schedule_consistency(sched):
    T = sched.T
    assert T == 10
    assert sched.betas.shape == (T,)
    assert (sched.betas > 0.0).all() and (sched.betas <= MAX_STEP_VARIANCE).all()
    # First-step values follow directly from the ramp.
    assert sched.betas[0] == pytest.approx(1.0 - sched.alpha_bar[1], abs=1e-15)
    assert sched.posterior_var[0] == 0.0
    want_pv = (1.0 - sched.alpha_bar[:-1]) / (1.0 - sched.alpha_bar[1:]) * sched.betas
    assert np.array_equal(sched.posterior_var, want_pv)
    ratio = sched.alpha_bar[1:] / sched.alpha_bar[:-1]
    assert np.allclose(ratio, 1.0 - sched.betas, atol=1e-15)
    with pytest.raises(ValueError):
        sched.betas[0] = 0.5


def test_gaussian_schedule_validation():
    with pytest.raises(ValueError, match="one entry more"):
        GaussianSchedule(alpha_bar=[1.0, 0.5], betas=[], posterior_var=[])
    with pytest.raises(ValueError, match="exactly 1"):
        GaussianSchedule(alpha_bar=[0.9, 0.5], betas=[0.4], posterior_var=[0.0])
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        GaussianSchedule(alpha_bar=[1.0, 0.0], betas=[0.5], posterior_var=[0.0])
    with pytest.raises(ValueError, match="betas"):
        GaussianSchedule(alpha_bar=[1.0, 0.5], betas=[1.0], posterior_var=[0.0])


# ---------------------------------------------------------------------------
# Standardization


def test_compute_layout_stats_hand_case():
    a = np.zeros((2, 8))
    b = np.ones((1, 8)) * 3.0
    a[:, 0] = [1.0, 3.0]
    b[0, 0] = 5.0
    stats = compute_layout_stats([a, b])
    assert stats.mean[0] == pytest.approx(3.0)
    assert stats.std[0] == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    # Column 1 takes values 0, 0, 3: mean 1, pooled std sqrt(2).
    assert stats.mean[1] == pytest.approx(1.0)
    assert stats.std[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_constant_columns_get_unit_std():
    stats = compute_layout_stats([np.full((3, 8), 2.5)])
    assert np.array_equal(stats.std, np.ones(8))
    assert np.array_equal(stats.mean, np.full(8, 2.5))
    z = standardize(np.full((3, 8), 2.5), stats)
    assert np.array_equal(z, np.zeros((3, 8)))


def test_standardize_roundtrip(rng):
    x = rng.normal(size=(5, 8)) * 4.0 + 1.0
    stats = compute_layout_stats([x])
    z = standardize(x, stats)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(destandardize(z, stats), x, atol=1e-12)


def test_layout_stats_validation():
    with pytest.raises(ValueError, match="columns"):
        LayoutStats(mean=np.zeros(7), std=np.ones(7))
    with pytest.raises(ValueError, match="positive"):
        LayoutStats(mean=np.zeros(8), std=np.zeros(8))


# ---------------------------------------------------------------------------
# Forward process


def test_forward_sample_layout_identity_and_formula(sched, rng):
    L0 = rng.normal(size=(4, 8))
    same, noise = forward_sample_layout(L0, 0, sched, rng)
    assert np.array_equal(same, L0) and same is not L0
    assert np.array_equal(noise, np.zeros_like(L0))
    L_t, eps = forward_sample_layout(L0, 3, sched, rng)
    ab = sched.alpha_bar[3]
    assert np.array_equal(L_t, math.sqrt(ab) * L0 + math.sqrt(1.0 - ab) * eps)
    with pytest.raises(ValueError):
        forward_sample_layout(L0, 11, sched, rng)


# ---------------------------------------------------------------------------
# Exact denoiser: graph matching


def _graph(cats, codes, rels, k_c=4, k_f=2, k_e=11):
    return SemanticGraph(
        np.asarray(cats, dtype=np.int64),
        np.asarray(codes, dtype=np.int64),
        np.asarray(rels, dtype=np.int64),
        k_c=k_c, k_f=k_f, k_e=k_e,
    )


def _with(graph, *, cats=None, codes=None, rels=None):
    return _graph(
        cats if cats is not None else np.array(graph.categories),
        codes if codes is not None else np.array(graph.codes),
        rels if rels is not None else np.array(graph.relations),
        k_c=graph.k_c, k_f=graph.k_f, k_e=graph.k_e,
    )


def test_matching_prefers_the_exact_key(toy, sched):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    hit = den.matching_layouts(toy.graphs[0])
    assert hit.shape == (4, 4, 8)  # the most frequent variant appears 4 times
    want = standardize(toy.layouts[0], den.stats)
    for row in hit:
        assert np.array_equal(row, want)


def test_matching_falls_back_in_order(toy, sched, caplog):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    g = toy.graphs[0]

    codes = np.array(g.codes)
    codes[1] = 0  # chair style no dataset graph carries
    no_codes_query = _with(g, codes=codes)
    with caplog.at_level(logging.INFO, logger="scenediff.layout_diffusion"):
        hit = den.matching_layouts(no_codes_query)
    assert hit.shape[0] == 7  # both far-lamp variants share this skeleton
    assert "code-free" in caplog.text

    rels = np.array(g.relations)
    rels[0] = int(rels[0]) ^ 1  # flip the chair-table direction: unseen skeleton
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="scenediff.layout_diffusion"):
        hit = den.matching_layouts(_with(g, rels=rels))
    assert hit.shape[0] == 11  # every room containing a lamp
    assert "multiset" in caplog.text

    cats = np.array(g.categories)
    cats[2] = 1  # two chairs: a multiset no scene produces
    with pytest.raises(KeyError, match="no dataset layout matches"):
        den.matching_layouts(_with(g, cats=cats))


def test_matching_rejects_mixed_shapes(sched):
    a = _graph([0, 1], np.zeros((2, 4)), [0])
    b = _graph([0, 1, 4], [[0] * 4, [0] * 4, [2] * 4], [0, 11, 11])
    den = ExactEpsDenoiser(
        [(a, np.arange(16.0).reshape(2, 8)), (b, np.ones((3, 8)))], sched)
    query = _graph([0, 1], np.ones((2, 4)), [2])
    with pytest.raises(ValueError, match="disagree in shape"):
        den.matching_layouts(query)


def test_denoiser_dataset_validation(sched):
    with pytest.raises(ValueError, match="empty"):
        ExactEpsDenoiser([], sched)
    g = _graph([0, 1], np.zeros((2, 4)), [0])
    with pytest.raises(ValueError, match="one row per graph slot"):
        ExactEpsDenoiser([(g, np.zeros((3, 8)))], sched)


# ---------------------------------------------------------------------------
# Exact denoiser: prediction


def test_single_mode_prediction_formula(sched, rng):
    g = _graph([0, 1], np.zeros((2, 4)), [0])
    L = rng.normal(size=(2, 8)) * 2.0 + 0.5
    den = ExactEpsDenoiser([(g, L)], sched)
    z = standardize(L, den.stats)
    L_t = rng.normal(size=(2, 8))
    for t in (1, 5, 10):
        ab = sched.alpha_bar[t]
        want = (L_t - math.sqrt(ab) * z) / math.sqrt(1.0 - ab)
        assert np.allclose(den.predict(L_t, t, g), want, atol=1e-12)
    with pytest.raises(ValueError):
        den.predict(L_t, 0, g)
    with pytest.raises(ValueError):
        den.predict(L_t, 11, g)
    with pytest.raises(ValueError, match="shape disagrees"):
        den.predict(np.zeros((3, 8)), 1, g)


def test_mixture_prediction_matches_bayes_oracle(sched, rng):
    g = _graph([0, 1], np.zeros((2, 4)), [0])
    L1 = rng.normal(size=(2, 8))
    L2 = rng.normal(size=(2, 8)) + 3.0
    den = ExactEpsDenoiser([(g, L1), (g, L2)], sched)
    modes = den.matching_layouts(g)
    assert modes.shape == (2, 2, 8)
    L_t = rng.normal(size=(2, 8))
    for t in (2, 7):
        ab = sched.alpha_bar[t]
        dens = np.array([
            math.exp(-float(np.square(L_t - math.sqrt(ab) * m).sum())
                     / (2.0 * (1.0 - ab)))
            for m in modes
        ])
        w = dens / dens.sum()
        post = w[0] * modes[0] + w[1] * modes[1]
        want = (L_t - math.sqrt(ab) * post) / math.sqrt(1.0 - ab)
        assert np.allclose(den.predict(L_t, t, g), want, atol=1e-10)


# ---------------------------------------------------------------------------
# Reverse sampling


def test_single_mode_chain_recovers_the_layout(toy, sched):
    g, L = toy.graphs[0], toy.layouts[0]
    den = ExactEpsDenoiser([(g, L)], sched)
    out = reverse_sample_layout(den, g, sched, np.random.default_rng(0))
    assert out.shape == (4, 8)
    assert np.allclose(out, L, atol=1e-6)
    norms = np.hypot(out[:, 6], out[:, 7])
    assert np.allclose(norms, 1.0, atol=1e-9)


def _two_mode_dataset(sched):
    g = _graph([0, 1], np.zeros((2, 4)), [0])
    rng = np.random.default_rng(3)
    L1 = np.concatenate([rng.normal(size=(2, 6)),
                         np.tile(rotation_encode(0.3), (2, 1))], axis=1)
    L2 = L1 + 10.0
    L2[:, 6:] = rotation_encode(-1.1)
    return L1, L2, ExactEpsDenoiser([(g, L1), (g, L2)], sched), g


def test_two_mode_chain_lands_on_a_mode(sched):
    L1, L2, den, g = _two_mode_dataset(sched)
    seen = set()
    for seed in range(12):
        out = reverse_sample_layout(den, g, sched, np.random.default_rng(seed))
        d1 = float(np.abs(out - L1).max())
        d2 = float(np.abs(out - L2).max())
        assert min(d1, d2) < 1e-3
        seen.add(0 if d1 < d2 else 1)
    assert seen == {0, 1}


def test_reverse_sampling_is_deterministic(toy, sched):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    a = reverse_sample_layout(den, toy.graphs[5], sched, np.random.default_rng(9))
    b = reverse_sample_layout(den, toy.graphs[5], sched, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_frozen_rows_come_back_bit_identical(toy, sched):
    g, L = toy.graphs[0], toy.layouts[0]
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    keep = np.asarray(L[0]) + 0.25
    out = reverse_sample_layout(den, g, sched, np.random.default_rng(1),
                                frozen_rows={0: keep})
    assert np.array_equal(out[0], keep)
    with pytest.raises(ValueError, match="outside layout"):
        reverse_sample_layout(den, g, sched, np.random.default_rng(1),
                              frozen_rows={4: keep})


def test_stacked_prediction_equals_one_layout_at_a_time(toy, sched, rng):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    g = toy.graphs[0]
    stack = rng.normal(size=(5, 4, 8))
    for t in (1, 4, 10):
        want = np.stack([den.predict(L, t, g) for L in stack])
        assert np.array_equal(den.predict(stack, t, g), want)
        assert np.array_equal(den.predict(stack, t, g, modes=den.matching_layouts(g)), want)
    with pytest.raises(ValueError, match="shape disagrees"):
        den.predict(np.zeros((5, 3, 8)), 1, g)


def test_per_layout_prediction_equals_one_graph_at_a_time(toy, sched, rng):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    # Keys 4 and 7 both match three dataset layouts; 10 and 12 match two.
    for picks in ((4, 7, 4, 7, 7), (10, 12, 10)):
        graphs = [toy.graphs[i] for i in picks]
        stacks = np.stack([den.matching_layouts(g) for g in graphs])
        layouts = rng.normal(size=(len(graphs), 4, 8))
        for t in (1, 4, 10):
            want = np.stack([den.predict(L, t, g) for L, g in zip(layouts, graphs)])
            assert np.array_equal(den.predict(layouts, t, None, modes=stacks), want)
        with pytest.raises(ValueError, match="candidate stacks for"):
            den.predict(layouts[1:], 1, None, modes=stacks)
    with pytest.raises(ValueError, match="candidate stacks for"):
        den.predict(layouts[0], 1, None, modes=stacks)


def _mixed_key_batch(toy, size):
    """Graphs under four match keys, interleaved: two exact keys, a
    code-free fallback and a multiset fallback."""
    g = toy.graphs[0]
    codes = np.array(g.codes)
    codes[1] = 0  # chair style no dataset graph carries
    rels = np.array(g.relations)
    rels[0] = int(rels[0]) ^ 1  # unseen skeleton
    keys = [g, toy.graphs[5], _with(g, codes=codes), _with(g, rels=rels)]
    pattern = (2, 0, 3, 1, 1, 2, 0)
    return [keys[pattern[i % len(pattern)]] for i in range(size)]


def _shared_count_batch(toy, size):
    """Graphs under five match keys and two candidate counts, interleaved:
    keys 4 and 7 match three layouts each, keys 10, 12 and 14 two each."""
    pattern = (10, 4, 12, 7, 14, 4, 10, 7, 12)
    return [toy.graphs[pattern[i % len(pattern)]] for i in range(size)]


def _perturbed_dataset(toy, picks):
    """Toy pairs plus a copy of each picked layout with its objects moved, so
    the keys of the picked graphs hold two distinct layouts."""
    pairs = list(zip(toy.graphs, toy.layouts))
    for i in picks:
        moved = np.array(toy.layouts[i])
        moved[:, :2] += 0.3
        pairs.append((toy.graphs[i], moved))
    return pairs


def _is_point_mass(den, graph):
    m = den.matching_layouts(graph)
    return bool((m == m[0]).all())


@pytest.mark.parametrize("frozen", [False, True])
def test_a_chain_does_not_depend_on_the_other_graphs(toy, sched, frozen):
    den = ExactEpsDenoiser(_perturbed_dataset(toy, range(len(toy.graphs))), sched)
    keep = {1: np.asarray(toy.layouts[4][1]) + 0.5} if frozen else None
    graphs = _shared_count_batch(toy, 11)
    assert not any(_is_point_mass(den, g) for g in graphs)
    out = reverse_sample_layout(den, graphs, sched, np.random.default_rng(21), frozen_rows=keep)
    # Another graph with the same count, one with the other count, and the
    # code-free and multiset fallbacks (14 and 22 candidates).
    swaps = [toy.graphs[14], toy.graphs[7], *_mixed_key_batch(toy, 3)[::2]]
    for pos in (0, 3, 10):
        for g in swaps:
            changed = list(graphs)
            changed[pos] = g
            got = reverse_sample_layout(den, changed, sched, np.random.default_rng(21),
                                        frozen_rows=keep)
            assert np.array_equal(np.delete(got, pos, 0), np.delete(out, pos, 0))


def _reference_chain(den, graph, sched, blocks, i, frozen):
    """One chain decoded alone, driven by row i of each noise block."""
    L, draws = blocks[0][i].copy(), iter(blocks[1:])
    std = {idx: standardize(row, den.stats) for idx, row in frozen.items()}
    for t in range(sched.T, 0, -1):
        for idx, row in std.items():
            L[idx] = row
        beta, ab = sched.betas[t - 1], sched.alpha_bar[t]
        L = (L - beta / math.sqrt(1.0 - ab) * den.predict(L, t, graph)) / math.sqrt(1.0 - beta)
        if sched.posterior_var[t - 1] > 0.0:
            L += math.sqrt(sched.posterior_var[t - 1]) * next(draws)[i]
    out = destandardize(L, den.stats)
    out[:, 6:] /= np.hypot(out[:, 6], out[:, 7])[:, None]
    for idx, row in frozen.items():
        out[idx] = row
    return out


def _shortcut(den, graph, frozen):
    """The layout a point-mass chain returns: its key's one candidate."""
    out = destandardize(den.matching_layouts(graph)[0], den.stats)
    out[:, 6:] /= np.hypot(out[:, 6], out[:, 7])[:, None]
    for idx, row in frozen.items():
        out[idx] = row
    return out


def _noise_blocks(seed, shape, sched):
    """The start block and one block per noisy step, as a stepping call draws them."""
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal(shape)
              for _ in range(1 + int((sched.posterior_var > 0.0).sum()))]
    return blocks, rng


def test_row_i_of_each_noise_block_drives_chain_i(toy, sched):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    graphs = _mixed_key_batch(toy, 9)
    keep = {2: np.asarray(toy.layouts[3][2]) - 0.1}
    rng = np.random.default_rng(11)
    out = reverse_sample_layout(den, graphs, sched, rng, frozen_rows=keep)
    # The start and each noisy step draw one (B, n, 8) block, in that order.
    blocks, fresh = _noise_blocks(11, out.shape, sched)
    assert rng.bit_generator.state == fresh.bit_generator.state
    # Toy exact keys are point masses; the two fallback keys step.
    point = [_is_point_mass(den, g) for g in graphs]
    assert any(point) and not all(point)
    for i, g in enumerate(graphs):
        want = (_shortcut(den, g, keep) if point[i]
                else _reference_chain(den, g, sched, blocks, i, keep))
        assert np.array_equal(out[i], want)


def test_one_predict_call_per_candidate_count_and_step(toy, sched):
    den = ExactEpsDenoiser(_perturbed_dataset(toy, range(len(toy.graphs))), sched)
    graphs = _shared_count_batch(toy, 10)
    counts = [den.matching_layouts(g).shape[0] for g in graphs]
    assert len({g.key() for g in graphs}) >= 3 and len(set(counts)) == 2
    assert not any(_is_point_mass(den, g) for g in graphs)
    # Wrapped on the instance, the way a tracer sees the sampler's calls.
    calls = []
    predict = den.predict

    def counted(L_t, t, *args, **kwargs):
        calls.append((t, L_t.shape[0]))
        return predict(L_t, t, *args, **kwargs)

    den.predict = counted
    reverse_sample_layout(den, graphs, sched, np.random.default_rng(0))
    assert len(calls) == 2 * sched.T
    assert sum(b for _, b in calls) == len(graphs) * sched.T


@pytest.mark.parametrize("frozen", [False, True])
def test_point_mass_chains_return_their_layout(toy, sched, frozen):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    assert all(_is_point_mass(den, g) for g in toy.graphs)
    keep = {1: np.asarray(toy.layouts[4][1]) + 0.5} if frozen else {}
    for i, g in enumerate(toy.graphs):
        out = reverse_sample_layout(den, g, sched, np.random.default_rng(i), frozen_rows=keep)
        assert np.array_equal(out, _shortcut(den, g, keep))
    graphs = [toy.graphs[i % len(toy.graphs)] for i in (3, 16, 0, 7, 12, 3, 17)]
    out = reverse_sample_layout(den, graphs, sched, np.random.default_rng(5), frozen_rows=keep)
    for i, g in enumerate(graphs):
        assert np.array_equal(out[i], _shortcut(den, g, keep))


@pytest.mark.parametrize("frozen", [False, True])
def test_a_call_of_point_mass_chains_draws_no_noise(toy, sched, frozen):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    keep = {0: np.asarray(toy.layouts[0][0]) + 0.25} if frozen else None
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    reverse_sample_layout(den, toy.graphs[5], sched, rng, frozen_rows=keep)
    reverse_sample_layout(den, list(toy.graphs), sched, rng, frozen_rows=keep)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("frozen", [False, True])
def test_stepping_rows_of_a_mixed_batch_decode_as_without_point_masses(toy, sched, frozen):
    den = ExactEpsDenoiser(_perturbed_dataset(toy, (4, 10)), sched)
    keep = {1: np.asarray(toy.layouts[4][1]) + 0.5} if frozen else {}
    graphs = [toy.graphs[i] for i in (4, 0, 10, 16, 5, 12, 11, 4, 17, 6)]
    point = np.array([_is_point_mass(den, g) for g in graphs])
    assert point.any() and not point.all()
    rng = np.random.default_rng(13)
    out = reverse_sample_layout(den, graphs, sched, rng, frozen_rows=keep)
    blocks, fresh = _noise_blocks(13, out.shape, sched)
    assert rng.bit_generator.state == fresh.bit_generator.state
    for i in np.flatnonzero(~point):
        assert np.array_equal(out[i], _reference_chain(den, graphs[i], sched, blocks, i, keep))
    # With every point-mass graph swapped for a stepping one, no chain is
    # skipped; the rows that stepped before are unchanged.
    stepping = [g if not p else toy.graphs[10] for g, p in zip(graphs, point)]
    full = reverse_sample_layout(den, stepping, sched, np.random.default_rng(13),
                                 frozen_rows=keep)
    assert np.array_equal(full[~point], out[~point])


@pytest.mark.parametrize("T", [10, 100])
def test_one_mode_chain_lands_on_the_point_mass(toy, T):
    sched_T = build_gaussian_schedule(T)
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched_T)
    keep = {2: np.asarray(toy.layouts[3][2]) - 0.1}
    blocks, _ = _noise_blocks(17, (len(toy.graphs), 4, 8), sched_T)
    for i, g in enumerate(toy.graphs):
        for frozen in ({}, keep):
            chain = _reference_chain(den, g, sched_T, blocks, i, frozen)
            assert np.abs(chain - _shortcut(den, g, frozen)).max() <= 1e-12


def test_frozen_rows_bit_identical_across_a_batch(toy, sched):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    graphs = _mixed_key_batch(toy, 9)
    keep = {0: np.asarray(toy.layouts[0][0]) + 0.25, 2: np.asarray(toy.layouts[3][2]) - 0.1}
    rng = np.random.default_rng(4)
    out = reverse_sample_layout(den, graphs, sched, rng, frozen_rows=keep)
    for idx, row in keep.items():
        assert (out[:, idx] == row).all()
    with pytest.raises(ValueError, match="outside layout"):
        reverse_sample_layout(den, graphs, sched, rng, frozen_rows={4: keep[0]})


def test_one_batch_splits_evenly_between_two_modes(sched):
    L1, L2, den, g = _two_mode_dataset(sched)
    n = 4000
    out = reverse_sample_layout(den, [g] * n, sched, np.random.default_rng(0))
    d1 = np.abs(out - L1).max(axis=(1, 2))
    d2 = np.abs(out - L2).max(axis=(1, 2))
    assert (np.minimum(d1, d2) < 1e-3).all()
    # Each column's pooled mean is the midpoint of the two layouts' column
    # means, so the standardized modes have equal norms. The reflection that
    # swaps them then fixes the origin and preserves every step's law, so
    # each mode draws exactly half of the chains.
    share = float((d1 < d2).mean())
    assert abs(share - 0.5) < 4.5 * math.sqrt(0.25 / n)


def test_sampler_memory_per_chain_stays_small(toy):
    sched = build_gaussian_schedule(100)
    # One moved copy per key, so every chain steps with at most one more
    # candidate than the toy keys hold.
    picks = {g.key(): i for i, g in enumerate(toy.graphs)}.values()
    den = ExactEpsDenoiser(_perturbed_dataset(toy, picks), sched)
    n = 2000
    graphs = [toy.graphs[i % len(toy.graphs)] for i in range(n)]
    assert not any(_is_point_mass(den, g) for g in toy.graphs)
    tracemalloc.start()
    try:
        reverse_sample_layout(den, graphs, sched, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Drawing every step's noise at once would take 25.6 KB per chain.
    assert peak / n < 4096


def test_fallback_logs_once_per_call(toy, sched, caplog):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    graphs = _mixed_key_batch(toy, 12)
    with caplog.at_level(logging.INFO, logger="scenediff.layout_diffusion"):
        reverse_sample_layout(den, graphs, sched, np.random.default_rng(0))
    messages = [r.getMessage() for r in caplog.records]
    assert sum("code-free" in m for m in messages) == 1
    assert sum("multiset" in m for m in messages) == 1


def test_batch_without_a_match_raises(toy, sched):
    den = ExactEpsDenoiser(list(zip(toy.graphs, toy.layouts)), sched)
    g = toy.graphs[0]
    cats = np.array(g.categories)
    cats[2] = 1  # two chairs: a multiset no scene produces
    with pytest.raises(KeyError, match="no dataset layout matches"):
        reverse_sample_layout(den, [g, _with(g, cats=cats)], sched, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one graph"):
        reverse_sample_layout(den, [], sched, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Training objective


class _ZeroDenoiser(EpsDenoiser):
    def predict(self, L_t, t, graph):
        return np.zeros_like(L_t)


def test_simple_loss_separates_exact_from_zero(toy, sched):
    pairs = list(zip(toy.graphs, toy.layouts))
    den = ExactEpsDenoiser(pairs, sched)
    exact = simple_loss(den, pairs, sched, 64, np.random.default_rng(0))
    zero = simple_loss(_ZeroDenoiser(), pairs, sched, 64, np.random.default_rng(0))
    assert 0.0 <= exact < zero
    # The zero predictor's risk is the noise variance, 1 per coordinate.
    assert zero == pytest.approx(1.0, abs=0.2)
    with pytest.raises(ValueError):
        simple_loss(den, [], sched, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simple_loss(den, pairs, sched, 0, np.random.default_rng(0))
