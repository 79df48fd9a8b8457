"""Discrete diffusion over scene graphs, checked against path enumeration.

The posterior oracles here never touch the cumulative-product tensors: the
enumeration oracle multiplies per-step transition entries along every path,
and the recursion oracle pushes the clean one-hot through the step matrices
one multiply at a time. Agreement with both pins down true_posterior,
posterior_mixture_tensor, and the qbar bookkeeping at once.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from scenediff.datagen import toy_support, toy_variant_of
from scenediff.errors import SupportError, UnsatisfiableInstructionError
from scenediff.graph import SemanticGraph, empty_state, mask_state
from scenediff.graph_diffusion import (
    KERNEL_GAUSSIAN,
    KERNEL_INDEPENDENT,
    KERNEL_JOINT,
    KERNEL_UNIFORM,
    KERNELS,
    MASKING_KERNELS,
    TERMINAL_MASK_MIN,
    EmpiricalGraphDenoiser,
    FrozenGraph,
    GraphDenoiser,
    GraphSchedule,
    GuidanceConfig,
    LossWeights,
    UniformGraphDenoiser,
    apply_cfg,
    argmax_stay_probability,
    build_graph_schedule,
    build_schedule,
    corrupt_graph,
    forward_sample,
    forward_sample_array,
    mask_schedule_from_params,
    model_posterior,
    posterior_mixture_tensor,
    reverse_sample,
    reverse_sample_batch,
    schedule_to_json,
    true_posterior,
    uniform_schedule_from_stays,
    variational_bound,
)
from scenediff.instructions import Instruction, StyleConstraint, instruction_matches
from scenediff.relations import RelationLabel, pair_slots


def enum_posterior(x_t: int, x0: int, t: int, sched) -> np.ndarray | None:
    """q(x_{t-1} | x_t, x_0) by summing step products over every path.

    Returns None when the conditioning pair is unreachable.
    """
    m = sched.n_states
    out = np.zeros(m)
    for mid in itertools.product(range(m), repeat=t - 1):
        seq = (x0,) + mid + (x_t,)
        p = 1.0
        for u in range(1, t + 1):
            p *= sched.q[u - 1][seq[u], seq[u - 1]]
        out[seq[t - 1]] += p
    total = out.sum()
    if total <= 0.0:
        return None
    return out / total


def recursion_posterior(x_t: int, x0: int, t: int, sched) -> np.ndarray | None:
    """Same posterior from stepwise forward vectors, no cumulative products."""
    v = np.zeros(sched.n_states)
    v[x0] = 1.0
    for u in range(1, t):
        v = sched.q[u - 1] @ v
    joint = sched.q[t - 1][x_t, :] * v
    total = joint.sum()
    if total <= 0.0:
        return None
    return joint / total


def _check_posteriors_against(oracle, sched, atol=1e-12):
    for t in range(1, sched.T + 1):
        for x_t in range(sched.n_states):
            for x0 in range(sched.k + 1):
                want = oracle(x_t, x0, t, sched)
                if want is None:
                    with pytest.raises(ValueError):
                        true_posterior(x_t, x0, t, sched)
                    continue
                got = true_posterior(x_t, x0, t, sched)
                assert np.allclose(got, want, atol=atol), (x_t, x0, t)
                assert got.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Schedule construction


def test_default_mask_schedule_closed_forms():
    T, k = 10, 5
    s = build_schedule(T, k, KERNEL_INDEPENDENT, leak=0.0)
    for t in range(1, T + 1):
        assert s.gammas[t - 1] == pytest.approx(1.0 / (T - t + 1), abs=1e-15)
        assert s.betas[t - 1] == 0.0
        # Cumulative survival collapses to (T - t) / T.
        stay = s.qbar[t][0, 0]
        assert stay == pytest.approx((T - t) / T, abs=1e-12)
        assert s.qbar[t][mask_state(k), 0] == pytest.approx(t / T, abs=1e-12)
        # With zero leak a real label never flips to another real label.
        assert s.qbar[t][1, 0] == 0.0
        assert s.qbar[t][empty_state(k), 0] == 0.0
    assert s.terminal_mask_mass() == pytest.approx(1.0, abs=1e-12)


def test_leak_is_truncated_only_at_the_terminal_step():
    T, k, leak = 10, 3, 0.01
    s = build_schedule(T, k, KERNEL_INDEPENDENT, leak=leak)
    for t in range(1, T):
        assert s.betas[t - 1] == pytest.approx(leak / k, abs=1e-15)
    assert s.gammas[T - 1] == 1.0
    assert s.betas[T - 1] == 0.0
    assert (s.alphas >= 0.0).all()
    assert np.allclose(s.alphas + k * s.betas + s.gammas, 1.0, atol=1e-12)


@pytest.mark.parametrize("T", [10, 25, 100])
@pytest.mark.parametrize("kernel", MASKING_KERNELS)
def test_terminal_mass_for_masking_kernels(T, kernel):
    for k in (2, 11):
        s = build_schedule(T, k, kernel, leak=0.01)
        assert s.terminal_mask_mass() >= TERMINAL_MASK_MIN
        assert s.terminal_mask_mass() == pytest.approx(1.0, abs=1e-12)


def test_mask_schedule_from_params_validation():
    with pytest.raises(ValueError, match="alpha_t \\+ k beta_t \\+ gamma_t"):
        mask_schedule_from_params(2, [0.5], [0.1], [0.1])
    with pytest.raises(ValueError, match="out of range"):
        mask_schedule_from_params(2, [1.2], [0.0], [-0.2])
    with pytest.raises(ValueError, match="equal-length"):
        mask_schedule_from_params(2, [0.5, 0.5], [0.0], [0.5])
    s = mask_schedule_from_params(2, [0.6, 0.3], [0.1, 0.2], [0.2, 0.3])
    assert s.T == 2 and s.n_states == 4
    with pytest.raises(ValueError):
        s.q[0, 0, 0] = 2.0


def test_step_matrices_are_column_stochastic_and_absorbing():
    s = mask_schedule_from_params(3, [0.5, 0.2], [0.1, 0.1], [0.2, 0.5])
    msk = mask_state(3)
    assert np.allclose(s.q.sum(axis=1), 1.0, atol=1e-12)
    for t in range(s.T):
        col = s.q[t][:, msk]
        assert col[msk] == 1.0 and col.sum() == 1.0
        # Real columns: diagonal alpha + beta, off-diagonal beta, gamma to mask.
        assert s.q[t][0, 0] == pytest.approx(s.alphas[t] + s.betas[t])
        assert s.q[t][1, 0] == pytest.approx(s.betas[t])
        assert s.q[t][msk, 0] == pytest.approx(s.gammas[t])
        # Empty never leaks into real labels, only masks.
        assert s.q[t][: 3, empty_state(3)].sum() == 0.0
    assert np.array_equal(s.qbar[0], np.eye(5))
    # Cumulative tensors multiply out step by step.
    acc = np.eye(5)
    for t in range(1, s.T + 1):
        acc = s.q[t - 1] @ acc
        assert np.allclose(s.qbar[t], acc, atol=1e-15)


@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_label_diffuses_like_a_real_label(kernel):
    # At zero leak every kernel treats the empty label as one more label:
    # its cumulative column is real label 0's with the two labels swapped.
    k, T = 3, 6
    s = build_schedule(T, k, kernel, leak=0.0)
    e = empty_state(k)
    swap = np.arange(k + 2)
    swap[[0, e]] = [e, 0]
    for t in range(T + 1):
        assert np.allclose(s.qbar[t][swap, e], s.qbar[t][:, 0], atol=1e-12), t
    assert s.qbar[T][e, e] < 1.0


def test_uniform_kernel_structure():
    k, T = 4, 6
    s = build_schedule(T, k, KERNEL_UNIFORM)
    msk = mask_state(k)
    for t in range(T):
        stay = s.alphas[t]
        mix = (1.0 - stay) / (k + 1)
        assert 0.0 <= stay <= 1.0
        for j in range(k + 1):
            col = s.q[t][:, j]
            assert col[j] == pytest.approx(stay + mix, abs=1e-15)
            assert col[msk] == 0.0
            others = [col[i] for i in range(k + 1) if i != j]
            assert np.allclose(others, mix, atol=1e-15)
    # Mask is unreachable; the terminal marginal interpolates between the
    # identity and the uniform distribution with the cumulative stay weight.
    assert s.terminal_mask_mass() == 0.0
    abar_T = float(np.prod(s.alphas))
    assert abar_T < 1e-3
    for x0 in range(k + 1):
        terminal = s.qbar[T][:, x0]
        assert terminal[msk] == 0.0
        want = np.full(k + 1, (1.0 - abar_T) / (k + 1))
        want[x0] += abar_T
        assert np.allclose(terminal[: k + 1], want, atol=1e-12)


def test_gaussian_kernel_follows_argmax_readout():
    k, T = 3, 8
    s = build_schedule(T, k, KERNEL_GAUSSIAN)
    m = k + 1
    from scenediff.layout_diffusion import cosine_alpha_bar

    ab = cosine_alpha_bar(T)
    abar_expected = np.empty(T + 1)
    abar_expected[0] = 1.0
    for t in range(1, T + 1):
        p_stay = argmax_stay_probability(float(ab[t]), m)
        a = (m * p_stay - 1.0) / (m - 1.0)
        abar_expected[t] = min(max(a, 1e-12), abar_expected[t - 1])
    got = np.concatenate([[1.0], np.cumprod(s.alphas)])
    assert np.allclose(got, abar_expected, atol=1e-12)
    assert s.terminal_mask_mass() == 0.0


@pytest.mark.parametrize("T", [1, 2, 25, 100])
def test_gaussian_schedules_equal_the_scalar_readout_bit_for_bit(toy, T):
    from scenediff.layout_diffusion import cosine_alpha_bar

    ab = cosine_alpha_bar(T)
    graph = build_graph_schedule(toy.config, T, KERNEL_GAUSSIAN)
    for k, got in zip((toy.config.k_c, toy.config.k_f, toy.config.k_e),
                      (graph.category, graph.code, graph.relation)):
        abar = np.empty(T + 1)
        abar[0] = 1.0
        for t in range(1, T + 1):
            p_stay = argmax_stay_probability(float(ab[t]), k + 1)
            abar[t] = min(max(((k + 1) * p_stay - 1.0) / k, 1e-12), abar[t - 1])
        want = uniform_schedule_from_stays(k, abar[1:] / abar[:-1], kernel=KERNEL_GAUSSIAN)
        for one in (got, build_schedule(T, k, KERNEL_GAUSSIAN)):
            for name in ("alphas", "betas", "gammas", "q", "qbar"):
                assert getattr(one, name).tobytes() == getattr(want, name).tobytes(), name


def test_argmax_stay_probability_two_state_closed_form():
    # For two states the stay event is a single Gaussian comparison:
    # P = Phi(sqrt(abar / (1 - abar)) / sqrt(2)).
    for abar in (0.05, 0.2, 0.5, 0.8, 0.95):
        want = 0.5 * (1.0 + math.erf(
            math.sqrt(abar / (1.0 - abar)) / (math.sqrt(2.0) * math.sqrt(2.0))))
        got = argmax_stay_probability(abar, 2)
        assert got == pytest.approx(want, abs=1e-10)
    for m in (2, 3, 7):
        assert argmax_stay_probability(0.0, m) == pytest.approx(1.0 / m, abs=1e-9)
        assert argmax_stay_probability(1.0, m) == 1.0
        grid = [argmax_stay_probability(a, m) for a in np.linspace(0.0, 0.99, 12)]
        assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        argmax_stay_probability(-0.1, 3)
    with pytest.raises(ValueError):
        argmax_stay_probability(0.5, 1)


def test_joint_kernel_uses_edge_event_probability(toy):
    T = 7
    sched = build_graph_schedule(toy.config, T, KERNEL_JOINT, leak=0.01)
    node_gamma = np.array([1.0 / (T - t + 1) for t in range(1, T + 1)])
    assert np.allclose(sched.category.gammas, node_gamma, atol=1e-15)
    assert np.allclose(sched.code.gammas, node_gamma, atol=1e-15)
    assert np.allclose(sched.relation.gammas,
                       1.0 - (1.0 - node_gamma) ** 2, atol=1e-15)
    assert sched.T == T and sched.kernel == KERNEL_JOINT


def test_graph_schedule_requires_shared_shape():
    a = build_schedule(4, 3)
    b = build_schedule(5, 2)
    c = build_schedule(4, 11, KERNEL_UNIFORM)
    with pytest.raises(ValueError, match="share T"):
        GraphSchedule(category=a, code=b, relation=build_schedule(4, 11))
    with pytest.raises(ValueError, match="share the kernel"):
        GraphSchedule(category=a, code=build_schedule(4, 2), relation=c)


# ---------------------------------------------------------------------------
# Posteriors against enumeration


def _random_mask_schedule(k: int, T: int, rng: np.random.Generator):
    gammas = rng.uniform(0.05, 0.5, size=T)
    betas = rng.uniform(0.0, 1.0, size=T) * (1.0 - gammas) / (2.0 * k)
    alphas = 1.0 - gammas - k * betas
    return mask_schedule_from_params(k, alphas, betas, gammas)


def test_posterior_matches_path_enumeration():
    rng = np.random.default_rng(0)
    schedules = [
        build_schedule(3, 3, KERNEL_INDEPENDENT, leak=0.05),
        build_schedule(3, 3, KERNEL_UNIFORM),
        build_schedule(3, 3, KERNEL_GAUSSIAN),
        _random_mask_schedule(2, 3, rng),
        uniform_schedule_from_stays(2, rng.uniform(0.3, 0.9, size=3)),
    ]
    for sched in schedules:
        _check_posteriors_against(enum_posterior, sched)


def test_posterior_matches_recursion_grid():
    rng = np.random.default_rng(1)
    for k in (2, 4, 6):
        for T in (2, 5, 8):
            for kernel in KERNELS:
                if kernel == KERNEL_JOINT:
                    sched = build_schedule(T, k, kernel,
                                           leak=float(rng.uniform(0.0, 0.05)))
                elif kernel in MASKING_KERNELS:
                    sched = _random_mask_schedule(k, T, rng)
                else:
                    sched = build_schedule(T, k, kernel)
                _check_posteriors_against(recursion_posterior, sched)


def test_true_posterior_rejects_impossible_pairs():
    s = build_schedule(4, 3, KERNEL_INDEPENDENT, leak=0.0)
    with pytest.raises(ValueError, match="impossible pair"):
        true_posterior(1, 0, 2, s)  # no real-to-real flips at zero leak
    with pytest.raises(ValueError, match="impossible pair"):
        true_posterior(empty_state(3), 0, 2, s)  # real labels never empty
    with pytest.raises(ValueError):
        true_posterior(0, 0, 0, s)
    with pytest.raises(ValueError):
        true_posterior(9, 0, 1, s)


def test_true_posterior_is_a_point_mass_at_t1():
    s = build_schedule(5, 4, KERNEL_INDEPENDENT, leak=0.03)
    for x0 in range(s.k + 1):
        for x_t in range(s.n_states):
            if s.qbar[1][x_t, x0] <= 0.0:
                continue
            post = true_posterior(x_t, x0, 1, s)
            want = np.zeros(s.n_states)
            want[x0] = 1.0
            assert np.allclose(post, want, atol=1e-15)


def test_mixture_tensor_matches_scalar_posteriors():
    s = build_schedule(4, 3, KERNEL_INDEPENDENT, leak=0.02)
    for t in (1, 2, 4):
        M = posterior_mixture_tensor(s, t)
        assert M.shape == (s.n_states, s.k + 1, s.n_states)
        for i in range(s.n_states):
            for k0 in range(s.k + 1):
                if s.qbar[t][i, k0] <= 0.0:
                    assert np.array_equal(M[i, k0], np.zeros(s.n_states))
                else:
                    assert np.allclose(M[i, k0], true_posterior(i, k0, t, s),
                                       atol=1e-15)


def test_model_posterior_mixes_true_posteriors():
    rng = np.random.default_rng(2)
    s = build_schedule(5, 4, KERNEL_INDEPENDENT, leak=0.04)
    for t in (1, 3, 5):
        for x_t in range(s.n_states):
            p = rng.dirichlet(np.ones(s.k + 1))
            want = np.zeros(s.n_states)
            possible = False
            for k0 in range(s.k + 1):
                try:
                    tp = true_posterior(x_t, k0, t, s)
                except ValueError:
                    continue
                possible = True
                want += p[k0] * tp
            if not possible:
                with pytest.raises(ValueError, match="all mixture components"):
                    model_posterior(x_t, p, t, s)
                continue
            want /= want.sum()
            got = model_posterior(x_t, p, t, s)
            assert np.allclose(got, want, atol=1e-12)


def test_model_posterior_point_mass_recovers_true_posterior():
    s = build_schedule(6, 3, KERNEL_INDEPENDENT, leak=0.02)
    p = np.zeros(s.k + 1)
    p[1] = 1.0
    got = model_posterior(mask_state(3), p, 4, s)
    want = true_posterior(mask_state(3), 1, 4, s)
    assert np.allclose(got, want, atol=1e-15)


def test_model_posterior_rejects_impossible_predictions():
    s = build_schedule(4, 3, KERNEL_INDEPENDENT, leak=0.0)
    p = np.zeros(s.k + 1)
    p[1] = 1.0
    # Observed label 2 cannot come from clean label 1 at zero leak.
    with pytest.raises(ValueError, match="all mixture components"):
        model_posterior(2, p, 2, s)
    with pytest.raises(ValueError, match="entries"):
        model_posterior(0, np.ones(s.k + 2) / (s.k + 2), 2, s)


# ---------------------------------------------------------------------------
# Forward sampling


def test_forward_dist_and_bounds():
    s = build_schedule(5, 3, KERNEL_INDEPENDENT)
    assert np.array_equal(s.forward_dist(0, 0), np.eye(5)[:, 0])
    with pytest.raises(ValueError):
        s.forward_dist(0, 6)
    with pytest.raises(ValueError):
        s.forward_dist(7, 2)


def test_forward_samples_follow_the_marginal(rng):
    s = build_schedule(5, 3, KERNEL_INDEPENDENT, leak=0.05)
    t, x0, n = 3, 1, 20000
    draws = forward_sample_array(np.full(n, x0), t, s, rng)
    want = s.forward_dist(x0, t)
    counts = np.bincount(draws, minlength=s.n_states) / n
    se = np.sqrt(np.maximum(want * (1.0 - want), 1e-12) / n)
    assert (np.abs(counts - want) <= 4.0 * se + 1e-9).all()
    # The absorbing state never escapes.
    msk = mask_state(3)
    assert forward_sample(msk, 2, s, rng) == msk
    stuck = forward_sample_array(np.full(50, msk), 4, s, rng)
    assert (stuck == msk).all()


# ---------------------------------------------------------------------------
# Guidance algebra


def test_apply_cfg_identities_are_exact():
    p = np.array([0.3, 0.5, 0.2])
    q = np.array([0.6, 0.1, 0.3])
    out = apply_cfg(p, q, 0.0)
    assert np.array_equal(out, p) and out is not p
    same = apply_cfg(p, p.copy(), 7.5)
    assert np.array_equal(same, p)


def test_apply_cfg_tilts_and_clamps():
    got = apply_cfg(np.array([0.6, 0.4]), np.array([0.5, 0.5]), 1.0)
    assert np.allclose(got, [0.7, 0.3], atol=1e-12)
    clamped = apply_cfg(np.array([0.9, 0.1]), np.array([0.5, 0.5]), 2.0)
    assert np.allclose(clamped, [1.0, 0.0], atol=1e-12)
    batch = apply_cfg(np.full((2, 3), [0.2, 0.3, 0.5]),
                      np.full((2, 3), [0.4, 0.3, 0.3]), 0.5)
    assert batch.shape == (2, 3)
    assert np.allclose(batch.sum(axis=-1), 1.0, atol=1e-12)
    assert (batch[:, 0] < 0.2).all() and (batch[:, 2] > 0.5).all()


def test_apply_cfg_validation():
    with pytest.raises(ValueError, match="non-negative"):
        apply_cfg(np.array([1.0, 0.0]), np.array([0.5, 0.5]), -1.0)
    with pytest.raises(ValueError, match="share a shape"):
        apply_cfg(np.ones(3) / 3, np.ones(4) / 4, 1.0)
    # Guidance can only empty unnormalized inputs; normalized ones survive.
    with pytest.raises(ValueError, match="emptied"):
        apply_cfg(np.array([0.1, 0.1]), np.array([0.3, 0.3]), 1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(scale=-0.5)


# ---------------------------------------------------------------------------
# Empirical denoiser


@pytest.fixture(scope="module")
def toy_den(toy, toy_schedule):
    return EmpiricalGraphDenoiser(list(toy.graphs), toy_schedule)


def _predict_one(den, g, instruction, t):
    """predict_arrays on one graph, as per-slot category, (n, n_f, k_f + 1)
    code and relation distributions."""
    pc, pf, pe = den.predict_arrays(g.categories[None], g.codes.reshape(1, -1),
                                    g.relations[None], instruction, t)
    return pc[0], pf[0].reshape(g.n_slots, g.n_f, -1), pe[0]


def _oracle_weights(toy, sched, cat, code_flat, rel, t):
    uniq: dict[bytes, list] = {}
    for g in toy.graphs:
        entry = uniq.setdefault(g.key(), [g, 0])
        entry[1] += 1
    weights = []
    for g, cnt in uniq.values():
        logp = math.log(cnt / len(toy.graphs))
        for slot in range(g.n_slots):
            logp += math.log(max(sched.category.qbar[t][cat[slot], g.categories[slot]], 1e-300))
        flat = g.codes.reshape(-1)
        for i in range(flat.shape[0]):
            logp += math.log(max(sched.code.qbar[t][code_flat[i], flat[i]], 1e-300))
        for e in range(g.relations.shape[0]):
            logp += math.log(max(sched.relation.qbar[t][rel[e], g.relations[e]], 1e-300))
        weights.append(logp)
    w = np.exp(np.array(weights) - max(weights))
    return w / w.sum()


def test_empirical_weights_match_bayes_oracle(toy, toy_schedule, toy_den, rng):
    for t in (1, 5, 12, 25):
        g_t = corrupt_graph(toy.graphs[3], t, toy_schedule, rng)
        cat = g_t.categories
        code = g_t.codes.reshape(-1)
        rel = g_t.relations
        got = toy_den.posterior_weights(cat[None], code[None], rel[None], None, t)[0]
        want = _oracle_weights(toy, toy_schedule, cat, code, rel, t)
        assert np.allclose(got, want, atol=1e-12)
        # Predictions are the weighted dataset marginals.
        cats, codes, rels = _predict_one(toy_den, g_t, None, t)
        for slot in range(4):
            marginal = np.zeros(toy.config.k_c + 1)
            for w, g in zip(want, toy_den.graphs):
                marginal[g.categories[slot]] += w
            assert np.allclose(cats[slot], marginal, atol=1e-12)
        assert cats.shape == (4, toy.config.k_c + 1)
        assert np.allclose(cats.sum(axis=-1), 1.0, atol=1e-12)
        assert np.allclose(codes.sum(axis=-1), 1.0, atol=1e-12)
        assert np.allclose(rels.sum(axis=-1), 1.0, atol=1e-12)


def test_terminal_prediction_is_the_dataset_prior(toy, toy_schedule, toy_den):
    T = toy_schedule.T
    all_mask = SemanticGraph(
        np.full(4, mask_state(toy.config.k_c)),
        np.full((4, 4), mask_state(toy.config.k_f)),
        np.full(6, mask_state(toy.config.k_e)),
        k_c=toy.config.k_c, k_f=toy.config.k_f, k_e=toy.config.k_e,
    )
    cats, codes, _ = _predict_one(toy_den, all_mask, None, T)
    # Slot 2 holds a lamp in variants 0, 1, 4, 5 (11 of 18 scenes).
    assert cats[2, 2] == pytest.approx(11.0 / 18.0, abs=1e-12)
    assert cats[2, 3] == pytest.approx(7.0 / 18.0, abs=1e-12)
    assert cats[1, 1] == pytest.approx(1.0, abs=1e-12)
    walnut = toy.config.style_signature("walnut")
    oak = toy.config.style_signature("oak")
    chair_code = codes[1]
    # Every chair code slot splits 10/18 oak against 8/18 walnut.
    for i in range(4):
        expect = np.zeros(toy.config.k_f + 1)
        expect[oak[i]] += 10.0 / 18.0
        expect[walnut[i]] += 8.0 / 18.0
        assert np.allclose(chair_code[i], expect, atol=1e-12), i


def test_filter_vector_and_stages(toy, toy_schedule, toy_den):
    vec = toy_den.filter_vector(toy.instructions[0])
    assert vec.tolist() == [True, True, True, True, False, False, False, False]
    assert toy_den.filter_vector(None) is None
    assert toy_den.filter_vector(Instruction()) is None
    # lamp and shelf never share a room: the triplet stage fails.
    impossible = Instruction(triplets=((2, RelationLabel.LEFT_OF, 3),))
    with pytest.raises(UnsatisfiableInstructionError) as exc:
        toy_den.filter_vector(impossible)
    assert exc.value.stage == "triplets"
    unknown_style = Instruction(style=StyleConstraint(codes=(0, 0, 0, 0)))
    with pytest.raises(UnsatisfiableInstructionError) as exc:
        toy_den.filter_vector(unknown_style)
    assert exc.value.stage == "style"


def _filter_oracle(graphs, instr):
    """filter_vector's mask and failed stage (None when the mask keeps a
    graph), found graph by graph with instruction_matches."""
    mask = np.array([instruction_matches(g, instr) for g in graphs])
    if mask.any():
        return mask, None
    if instr.triplets and not any(instruction_matches(g, Instruction(triplets=instr.triplets))
                                  for g in graphs):
        return mask, "triplets"
    if instr.style is not None and not any(instruction_matches(g, Instruction(style=instr.style))
                                           for g in graphs):
        return mask, "style"
    return mask, "combined"


def _assert_filter_matches_oracle(den, instr):
    mask, stage = _filter_oracle(den.graphs, instr)
    if stage is None:
        got = den.filter_vector(instr)
        assert got.dtype == bool and got.tolist() == mask.tolist(), instr
        assert den.filter_vector(instr) is got  # cached per instruction
    else:
        with pytest.raises(UnsatisfiableInstructionError) as exc:
            den.filter_vector(instr)
        assert exc.value.stage == stage, instr
    return stage


def test_filter_vector_matches_instruction_matches_on_toy(toy, toy_schedule):
    den = EmpiricalGraphDenoiser(toy.graphs, toy_schedule)
    config = toy.config
    styles = [StyleConstraint(codes=config.style_signature(name), category=c)
              for name in config.style_names for c in (None, *range(config.k_c))]
    stages = set()
    for instr in toy.instructions:
        stages.add(_assert_filter_matches_oracle(den, instr))
        for style in styles:
            stages.add(_assert_filter_matches_oracle(
                den, Instruction(triplets=instr.triplets, style=style)))
    assert stages == {None, "style", "combined"}


def test_filter_vector_matches_instruction_matches_on_random_instructions():
    from scenediff.config import SceneConfig
    from scenediff.datagen import generate_dataset

    config = SceneConfig(category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
                         k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"))
    bundle = generate_dataset(config, 150, seed=4)
    config = bundle.config  # with the fitted style signatures
    den = EmpiricalGraphDenoiser(bundle.graphs, build_graph_schedule(config, 10))
    rng = np.random.default_rng(13)
    stages = set()
    for _ in range(150):
        triplets = tuple((int(rng.integers(config.k_c)), RelationLabel(int(rng.integers(10))),
                          int(rng.integers(config.k_c)))
                         for _ in range(int(rng.integers(3))))
        style = None
        if rng.random() < 0.6:
            codes = (config.style_codes[int(rng.integers(3))] if rng.random() < 0.7
                     else tuple(int(c) for c in rng.integers(config.k_f, size=config.n_f)))
            category = int(rng.integers(config.k_c)) if rng.random() < 0.5 else None
            style = StyleConstraint(codes=codes, category=category)
        instr = Instruction(triplets=triplets, style=style)
        if instr.is_unconditional():
            assert den.filter_vector(instr) is None
            continue
        stages.add(_assert_filter_matches_oracle(den, instr))
    assert stages == {None, "triplets", "style", "combined"}


def test_filter_combined_stage(toy, toy_schedule):
    # Dataset of the two extremes: each constraint alone is satisfiable,
    # their conjunction is not.
    den = EmpiricalGraphDenoiser([toy.graphs[0], toy.graphs[-1]], toy_schedule)
    conflict = Instruction(
        triplets=((1, RelationLabel.CLOSELY_LEFT_OF, 0),),
        style=StyleConstraint(codes=toy.config.style_signature("oak"), category=1),
    )
    with pytest.raises(UnsatisfiableInstructionError) as exc:
        den.filter_vector(conflict)
    assert exc.value.stage == "combined"


def test_combine_filters_returns_one_mask_over_the_dataset_graphs(toy, toy_den):
    from scenediff.instructions import instruction_matches

    instr = toy.instructions[0]
    frozen = FrozenGraph.from_graph(toy.graphs[-1], freeze_codes=True, slots=[1])
    keeps_instr = np.array([instruction_matches(g, instr) for g in toy_den.graphs])
    keeps_frozen = np.array([np.array_equal(g.codes[1], toy.graphs[-1].codes[1])
                             for g in toy_den.graphs])
    assert 0 < (keeps_instr & keeps_frozen).sum() < min(keeps_instr.sum(), keeps_frozen.sum())
    nothing = FrozenGraph.nothing(4, 4)
    assert toy_den.frozen_value_filter(nothing) is None
    assert toy_den.combine_filters(None, nothing) is None
    assert toy_den.combine_filters(Instruction(), nothing) is None
    for got, want in ((toy_den.frozen_value_filter(frozen), keeps_frozen),
                      (toy_den.combine_filters(None, frozen), keeps_frozen),
                      (toy_den.combine_filters(instr, nothing), keeps_instr),
                      (toy_den.combine_filters(instr, frozen), keeps_instr & keeps_frozen)):
        assert got.shape == (toy_den.n_unique,) and got.tolist() == want.tolist()


def test_filtered_prediction_restricts_support(toy, toy_schedule, toy_den):
    T = toy_schedule.T
    all_mask = SemanticGraph(
        np.full(4, mask_state(toy.config.k_c)),
        np.full((4, 4), mask_state(toy.config.k_f)),
        np.full(6, mask_state(toy.config.k_e)),
        k_c=toy.config.k_c, k_f=toy.config.k_f, k_e=toy.config.k_e,
    )
    cats, _, rels = _predict_one(toy_den, all_mask, toy.instructions[1], T)
    # Conditioned on a closely-left chair, slot 1 relation to slot 0 is fixed.
    from scenediff.relations import pair_index

    e = pair_index(0, 1, 4)
    assert rels[e, int(RelationLabel.CLOSELY_RIGHT_OF)] == pytest.approx(1.0)
    # Close variants weigh 2:2:1:1 between lamp and shelf rooms.
    assert cats[2, 2] == pytest.approx(4.0 / 6.0, abs=1e-12)
    assert cats[2, 3] == pytest.approx(2.0 / 6.0, abs=1e-12)


def test_denoiser_rejects_bad_datasets(toy, toy_schedule):
    with pytest.raises(ValueError, match="empty"):
        EmpiricalGraphDenoiser([], toy_schedule)
    masked = SemanticGraph(
        np.full(4, mask_state(toy.config.k_c)),
        np.full((4, 4), mask_state(toy.config.k_f)),
        np.full(6, mask_state(toy.config.k_e)),
        k_c=toy.config.k_c, k_f=toy.config.k_f, k_e=toy.config.k_e,
    )
    with pytest.raises(ValueError, match="clean"):
        EmpiricalGraphDenoiser([masked], toy_schedule)
    small = build_graph_schedule(
        type(toy.config)(category_names=("a",), k_f=2, n_f=4, n_max=4, d=16), 25
    )
    with pytest.raises(ValueError, match="vocabulary"):
        EmpiricalGraphDenoiser(list(toy.graphs), small)


def test_zero_likelihood_state_raises(toy):
    sched = build_graph_schedule(toy.config, 8, leak=0.0)
    den = EmpiricalGraphDenoiser([toy.graphs[0]], sched)
    g = toy.graphs[-1]  # different variant: impossible under zero leak
    with pytest.raises(ValueError, match="zero likelihood"):
        _predict_one(den, g, None, 3)


# ---------------------------------------------------------------------------
# Reverse sampling


def test_reverse_sampling_is_deterministic(toy, toy_den, toy_schedule):
    a = reverse_sample_batch(toy_den, toy_schedule, 8, np.random.default_rng(42))
    b = reverse_sample_batch(toy_den, toy_schedule, 8, np.random.default_rng(42))
    assert [g.key() for g in a] == [g.key() for g in b]
    for g in a:
        assert not g.has_mask()
        assert g.n_slots == 4


def test_reverse_sampling_honors_instruction_filter(toy, toy_den, toy_schedule):
    from scenediff.instructions import instruction_matches

    instr = toy.instructions[1]
    graphs = reverse_sample_batch(toy_den, toy_schedule, 32,
                                  np.random.default_rng(7), instructions=instr)
    for g in graphs:
        assert instruction_matches(g, instr)
    single = reverse_sample(toy_den, toy_schedule, np.random.default_rng(3),
                            instruction=instr)
    assert instruction_matches(single, instr)


def test_reverse_sampling_with_frozen_slots(toy, toy_den, toy_schedule):
    target = toy.graphs[-1]  # variant 7: close chair, shelf, walnut
    frozen = FrozenGraph.from_graph(target, freeze_categories=True,
                                    freeze_codes=True)
    graphs = reverse_sample_batch(toy_den, toy_schedule, 16,
                                  np.random.default_rng(5), frozen=frozen)
    for g in graphs:
        assert np.array_equal(g.categories, target.categories)
        assert np.array_equal(g.codes, target.codes)
        # Shelf plus walnut chair leaves only the two matching variants,
        # which differ in how close the chair sits.
        assert toy_variant_of(g, toy) in (3, 7)


def test_frozen_slot_subset(toy, toy_den, toy_schedule):
    target = toy.graphs[0]
    frozen = FrozenGraph.from_graph(target, freeze_categories=True,
                                    freeze_codes=True, freeze_relations=True,
                                    slots=(0, 1))
    assert frozen.cat_mask.tolist() == [True, True, False, False]
    graphs = reverse_sample_batch(toy_den, toy_schedule, 12,
                                  np.random.default_rng(11), frozen=frozen)
    for g in graphs:
        assert np.array_equal(g.categories[:2], target.categories[:2])
        assert g.relation(1, 0) == target.relation(1, 0)
        v = toy_variant_of(g, toy)
        # Chair stays far left and oak: variants 0 and 2 qualify.
        assert v in (0, 2)


def test_frozen_conflict_raises(toy, toy_den, toy_schedule):
    target = toy.graphs[0]
    frozen = FrozenGraph.from_graph(target, freeze_codes=True)
    # Frozen oak chair contradicts a walnut-chair instruction.
    walnut_chair = toy.instructions[5]
    with pytest.raises(UnsatisfiableInstructionError) as exc:
        reverse_sample_batch(toy_den, toy_schedule, 4, np.random.default_rng(0),
                             instructions=walnut_chair, frozen=frozen)
    assert exc.value.stage == "combined"
    bad_values = FrozenGraph.nothing(4, 4)
    bad_values.cat_mask[0] = True
    bad_values.cat_values[0] = 2  # no toy graph has a lamp in slot 0
    with pytest.raises(ValueError, match="inconsistent"):
        reverse_sample_batch(toy_den, toy_schedule, 4, np.random.default_rng(0),
                             frozen=bad_values)


def test_uniform_denoiser_runs_all_kernels(toy):
    for kernel in KERNELS:
        sched = build_graph_schedule(toy.config, 6, kernel, leak=0.01)
        den = UniformGraphDenoiser(4, 4, toy.config.k_c, toy.config.k_f)
        graphs = reverse_sample_batch(den, sched, 3, np.random.default_rng(1))
        for g in graphs:
            assert not g.has_mask()
    frozen = FrozenGraph.from_graph(toy.graphs[0], freeze_categories=True)
    with pytest.raises(TypeError, match="cannot condition"):
        reverse_sample_batch(UniformGraphDenoiser(4, 4, toy.config.k_c, toy.config.k_f),
                             build_graph_schedule(toy.config, 6), 2,
                             np.random.default_rng(0), frozen=frozen)


class _ConditionedDenoiser(GraphDenoiser):
    """Factorized denoiser whose prediction depends on ``filters``: uniform
    without an instruction, and with one tilted towards the label equal to
    the slot's state and towards label t mod (k + 1). With ``premix`` set it
    returns apply_cfg(conditional, unconditional, premix) for an instruction
    itself, which is what guidance at that scale should sample from."""

    def __init__(self, config, premix=None):
        self.n_slots, self.n_f = 4, 4
        self.ks = (config.k_c, config.k_f, config.k_e)
        self.premix = premix

    def predict_arrays(self, cat, code_flat, rel, filters, t: int, observe=None):
        states = (cat, code_flat, rel)
        uncond = tuple(np.full(x.shape + (k + 1,), 1.0 / (k + 1)) for x, k in zip(states, self.ks))
        if filters is None:
            return uncond
        cond = []
        for x, k in zip(states, self.ks):
            w = np.ones(x.shape + (k + 1,))
            w[..., t % (k + 1)] += 1.0
            np.put_along_axis(w, (x % (k + 1))[..., None], 4.0, axis=-1)
            cond.append(w / w.sum(axis=-1, keepdims=True))
        if self.premix is None:
            return tuple(cond)
        return tuple(apply_cfg(c, u, self.premix) for c, u in zip(cond, uncond))


@pytest.mark.parametrize("kernel", KERNELS)
def test_factorized_guidance_samples_the_guided_prediction(toy, kernel):
    sched = build_graph_schedule(toy.config, 6, kernel, leak=0.01)
    inst = toy.instructions[0]
    scale = 1.5

    def run(den, **kw):
        rng = np.random.default_rng(31)
        graphs = reverse_sample_batch(den, sched, 40, rng, **kw)
        return graphs, rng.bit_generator.state

    den = _ConditionedDenoiser(toy.config)
    guided = run(den, instructions=inst, guidance=GuidanceConfig(scale))
    assert guided == run(_ConditionedDenoiser(toy.config, premix=scale), instructions=inst)
    assert guided[0] != run(den, instructions=inst)[0]
    # Without an instruction there is nothing to guide towards.
    assert run(den, guidance=GuidanceConfig(scale)) == run(den)


def test_exact_denoiser_reverse_runs_all_kernels(toy):
    from scenediff.instructions import instruction_matches

    for kernel in KERNELS:
        sched = build_graph_schedule(toy.config, 8, kernel, leak=0.01)
        den = EmpiricalGraphDenoiser(list(toy.graphs), sched)
        graphs = reverse_sample_batch(den, sched, 6, np.random.default_rng(2),
                                      instructions=toy.instructions[0])
        for g in graphs:
            assert instruction_matches(g, toy.instructions[0])


def test_reverse_batch_validation(toy, toy_den, toy_schedule):
    with pytest.raises(ValueError, match="at least one chain"):
        reverse_sample_batch(toy_den, toy_schedule, 0, np.random.default_rng(0))
    # One spec is shared by every chain; a list of them is not accepted.
    with pytest.raises(TypeError, match="one FrozenGraph shared by every chain"):
        reverse_sample_batch(toy_den, toy_schedule, 3, np.random.default_rng(0),
                             frozen=[FrozenGraph.nothing(4, 4)] * 3)


@pytest.mark.parametrize("n_slots, n_f", [(5, 4), (4, 3), (3, 4)])
def test_frozen_spec_of_another_shape_raises(toy_den, toy_schedule, n_slots, n_f):
    frozen = FrozenGraph.nothing(n_slots, n_f)
    frozen.cat_mask[0] = True
    for run in (lambda: toy_den.frozen_value_filter(frozen),
                lambda: reverse_sample_batch(toy_den, toy_schedule, 2,
                                             np.random.default_rng(0), frozen=frozen)):
        with pytest.raises(ValueError, match="does not fit graphs of 4 slots with 4 codes"):
            run()


def test_inconsistent_frozen_slots_raise_before_the_instruction(toy, toy_den, toy_schedule):
    bad_values = FrozenGraph.nothing(4, 4)
    bad_values.cat_mask[0] = True
    bad_values.cat_values[0] = 2  # no toy graph has a lamp in slot 0
    impossible = Instruction(triplets=((2, RelationLabel.LEFT_OF, 3),))
    with pytest.raises(UnsatisfiableInstructionError):
        toy_den.filter_vector(impossible)
    with pytest.raises(SupportError, match="inconsistent"):
        reverse_sample_batch(toy_den, toy_schedule, 2, np.random.default_rng(0),
                             instructions=impossible, frozen=bad_values)
    with pytest.raises(SupportError, match="inconsistent"):
        toy_den.combine_filters(impossible, bad_values)


# ---------------------------------------------------------------------------
# Forward corruption


def test_corrupt_graph_identity_at_t0(toy, toy_schedule, rng):
    g = corrupt_graph(toy.graphs[2], 0, toy_schedule, rng)
    assert g == toy.graphs[2]


def test_corrupt_graph_all_mask_at_terminal(toy, rng):
    sched = build_graph_schedule(toy.config, 10, leak=0.01)
    g_T = corrupt_graph(toy.graphs[0], 10, sched, rng)
    assert (g_T.categories == mask_state(toy.config.k_c)).all()
    assert (g_T.codes == mask_state(toy.config.k_f)).all()
    assert (g_T.relations == mask_state(toy.config.k_e)).all()


def test_joint_corruption_couples_slot_masking(toy, rng):
    sched = build_graph_schedule(toy.config, 8, KERNEL_JOINT, leak=0.01)
    from scenediff.relations import pair_index

    saw_partial = False
    for _ in range(40):
        g_t = corrupt_graph(toy.graphs[0], 4, sched, rng)
        cat_masked = g_t.categories == mask_state(toy.config.k_c)
        code_masked = (g_t.codes == mask_state(toy.config.k_f)).all(axis=1)
        code_any = (g_t.codes == mask_state(toy.config.k_f)).any(axis=1)
        assert np.array_equal(cat_masked, code_masked)
        assert np.array_equal(code_masked, code_any)
        for j in range(4):
            for k in range(j + 1, 4):
                rel_masked = g_t.relations[pair_index(j, k, 4)] == mask_state(11)
                assert rel_masked == (cat_masked[j] or cat_masked[k])
        if cat_masked.any() and not cat_masked.all():
            saw_partial = True
    assert saw_partial


def test_joint_corruption_marginals_match_schedule(toy):
    sched = build_graph_schedule(toy.config, 5, KERNEL_JOINT, leak=0.02)
    rng = np.random.default_rng(17)
    t, n = 2, 3000
    clean = toy.graphs[0]
    cat_counts = np.zeros((4, toy.config.k_c + 2))
    rel_counts = np.zeros((6, 13))
    for _ in range(n):
        g_t = corrupt_graph(clean, t, sched, rng)
        for slot in range(4):
            cat_counts[slot, g_t.categories[slot]] += 1
        for e in range(6):
            rel_counts[e, g_t.relations[e]] += 1
    for slot in range(4):
        want = sched.category.forward_dist(int(clean.categories[slot]), t)
        got = cat_counts[slot] / n
        se = np.sqrt(np.maximum(want * (1 - want), 1e-12) / n)
        assert (np.abs(got - want) <= 4.5 * se + 2e-3).all(), slot
    for e in range(6):
        want = sched.relation.forward_dist(int(clean.relations[e]), t)
        got = rel_counts[e] / n
        se = np.sqrt(np.maximum(want * (1 - want), 1e-12) / n)
        assert (np.abs(got - want) <= 4.5 * se + 2e-3).all(), e


def _within(counts, n, want):
    """Observed frequencies counts / n within 4.5 standard errors of want."""
    se = np.sqrt(np.maximum(want * (1 - want), 1e-12) / max(n, 1))
    return bool((np.abs(counts / max(n, 1) - want) <= 4.5 * se + 2e-3).all())


def _leak_conditioned_product(sched, t):
    """Product of the per-step matrices restricted to the non-mask states,
    each column renormalized, i.e. q(x_t | x_0, no mask event by t); built
    from sched.q alone."""
    out = np.eye(sched.k + 1)
    for u in range(1, t + 1):
        step = sched.q[u - 1][:-1, :-1]
        out = (step / step.sum(axis=0, keepdims=True)) @ out
    return out


@pytest.mark.parametrize("leak", [0.0, 0.3])
def test_joint_corruption_matches_stepwise_oracle(toy, leak):
    sched = build_graph_schedule(toy.config, 5, KERNEL_JOINT, leak=leak)
    clean = toy.graphs[0]
    j, k = pair_slots(4)
    rng = np.random.default_rng(23)
    n = 4000
    for t in (1, 2, 4):
        # The node mask event, read off the category steps: q[u][mask, real].
        gammas = np.array([sched.category.q[u][-1, 0] for u in range(t)])
        survive = float(np.prod(1.0 - gammas))
        edge_gammas = np.array([sched.relation.q[u][-1, 0] for u in range(t)])
        assert np.prod(1.0 - edge_gammas) == pytest.approx(survive ** 2, rel=1e-12)
        patterns = np.zeros(16)
        kinds = ((sched.category, clean.categories), (sched.code, clean.codes.reshape(-1)),
                 (sched.relation, clean.relations))
        counts = [np.zeros((x0.shape[0], s.k + 1)) for s, x0 in kinds]
        for _ in range(n):
            g_t = corrupt_graph(clean, t, sched, rng)
            masked = g_t.categories == sched.category.k + 1
            patterns[int((masked * (1 << np.arange(4))).sum())] += 1
            hidden = (masked, np.repeat(masked, 4), masked[j] | masked[k])
            for c, x_t, h, (s, _) in zip(counts, (g_t.categories, g_t.codes.reshape(-1),
                                                  g_t.relations), hidden, kinds):
                assert (x_t[h] == s.k + 1).all() and (x_t[~h] <= s.k).all()
                c[np.flatnonzero(~h), x_t[~h]] += 1
        bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
        want = np.where(bits, 1.0 - survive, survive).prod(axis=1)
        assert _within(patterns, n, want), t
        for c, (s, x0) in zip(counts, kinds):
            cond = _leak_conditioned_product(s, t)
            for row, label in zip(c, x0.tolist()):
                assert _within(row, row.sum(), cond[:, label]), (t, s.k, label)


@pytest.mark.parametrize("kernel", KERNELS)
def test_corrupted_graphs_are_possible_under_their_source(toy, kernel):
    # Every entry of a draw, empty slots included, must have forward mass
    # from its clean label: log q(G_t | G_0) is finite for the source graph.
    T = 10
    sched = build_graph_schedule(toy.config, T, kernel, leak=0.3)
    den = EmpiricalGraphDenoiser(toy.graphs, sched)
    column = {g.key(): u for u, g in enumerate(den.graphs)}
    rng = np.random.default_rng(KERNELS.index(kernel))
    for t in (1, T // 2, T):
        for graph in toy.graphs:
            draws = [corrupt_graph(graph, t, sched, rng) for _ in range(20)]
            ll = den.log_likelihood(np.stack([g.categories for g in draws]),
                                    np.stack([g.codes.reshape(-1) for g in draws]),
                                    np.stack([g.relations for g in draws]), t)
            assert np.isfinite(ll[:, column[graph.key()]]).all(), (t, graph.key())


@pytest.mark.parametrize("kernel", KERNELS)
def test_corrupt_graph_rejects_t_outside_range(toy, kernel, rng):
    sched = build_graph_schedule(toy.config, 4, kernel, leak=0.01)
    for t in (-1, 5):
        with pytest.raises(ValueError, match=rf"t={t} outside \[0, 4\]"):
            corrupt_graph(toy.graphs[0], t, sched, rng)


# ---------------------------------------------------------------------------
# Variational bound


def test_bound_is_zero_for_exact_denoiser_on_point_dataset(toy):
    sched = build_graph_schedule(toy.config, 4, leak=0.0)
    g = toy.graphs[0]
    den = EmpiricalGraphDenoiser([g], sched)
    bound = variational_bound(den, g, sched, np.random.default_rng(0), n_mc=2)
    assert 0.0 <= bound <= 1e-9


def test_bound_separates_uniform_from_exact(toy):
    sched = build_graph_schedule(toy.config, 4, leak=0.0)
    pair = [toy.graphs[0], toy.graphs[-1]]
    exact = EmpiricalGraphDenoiser(pair, sched)
    uniform = UniformGraphDenoiser(4, 4, toy.config.k_c, toy.config.k_f)
    b_exact = variational_bound(exact, pair[0], sched, np.random.default_rng(1), n_mc=2)
    b_unif = variational_bound(uniform, pair[0], sched, np.random.default_rng(1), n_mc=2)
    assert b_unif > b_exact >= 0.0


def test_bound_weights_and_validation(toy):
    sched = build_graph_schedule(toy.config, 3, leak=0.0)
    g = toy.graphs[0]
    uniform = UniformGraphDenoiser(4, 4, toy.config.k_c, toy.config.k_f)
    b1 = variational_bound(uniform, g, sched, np.random.default_rng(2), n_mc=1,
                           weights=LossWeights(1.0, 0.0, 0.0))
    b2 = variational_bound(uniform, g, sched, np.random.default_rng(2), n_mc=1,
                           weights=LossWeights(2.0, 0.0, 0.0))
    assert b2 == pytest.approx(2.0 * b1, rel=1e-12)
    with pytest.raises(ValueError):
        variational_bound(uniform, g, sched, np.random.default_rng(0), n_mc=0)
    masked = SemanticGraph(
        np.full(4, mask_state(toy.config.k_c)),
        np.full((4, 4), mask_state(toy.config.k_f)),
        np.full(6, mask_state(toy.config.k_e)),
        k_c=toy.config.k_c, k_f=toy.config.k_f, k_e=toy.config.k_e,
    )
    with pytest.raises(ValueError):
        variational_bound(uniform, masked, sched, np.random.default_rng(0))


def _oracle_bound(den, graph, sched, rng, n_mc):
    """variational_bound recomputed slot by slot from the scalar posteriors,
    drawing the corrupted graphs in the bound's order."""
    weights = LossWeights()
    total = 0.0
    for t in range(1, sched.T + 1):
        for _ in range(n_mc):
            g_t = corrupt_graph(graph, t, sched, rng)
            cats, codes, rels = _predict_one(den, g_t, None, t)
            for w, kind, x0s, x_ts, preds in zip(
                    (weights.category, weights.code, weights.relation),
                    (sched.category, sched.code, sched.relation),
                    (graph.categories, graph.codes.reshape(-1), graph.relations),
                    (g_t.categories, g_t.codes.reshape(-1), g_t.relations),
                    (cats, codes.reshape(-1, codes.shape[-1]), rels)):
                for x0, x_t, p_x0 in zip(x0s.tolist(), x_ts.tolist(), preds):
                    p = model_posterior(x_t, p_x0, t, kind)
                    if t == 1:
                        term = -math.log(max(p[x0], 1e-300))
                    else:
                        q = true_posterior(x_t, x0, t, kind)
                        s = q > 0.0
                        term = float((q[s] * (np.log(q[s]) - np.log(p[s]))).sum())
                    total += w * term / n_mc
    return total


@pytest.mark.parametrize("kernel", KERNELS)
def test_bound_matches_per_slot_oracle(toy, kernel):
    sched = build_graph_schedule(toy.config, 6, kernel, leak=0.01)
    dens = (EmpiricalGraphDenoiser(list(toy.graphs), sched),
            UniformGraphDenoiser(4, 4, toy.config.k_c, toy.config.k_f))
    for den in dens:
        for g in (toy.graphs[0], toy.graphs[-1]):
            rng_bound, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
            got = variational_bound(den, g, sched, rng_bound, n_mc=2)
            want = _oracle_bound(den, g, sched, rng_oracle, n_mc=2)
            assert got > 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert rng_bound.bit_generator.state == rng_oracle.bit_generator.state


# ---------------------------------------------------------------------------
# Serialization


def test_schedule_to_json_summary(toy_schedule):
    js = schedule_to_json(toy_schedule)
    assert js["T"] == 25
    assert js["kernel"] == KERNEL_INDEPENDENT
    assert set(js["kinds"]) == {"category", "code", "relation"}
    cat = js["kinds"]["category"]
    assert cat["k"] == 4
    assert len(cat["alphas"]) == 25
    assert cat["terminal_mask_mass"] >= TERMINAL_MASK_MIN
    assert len(cat["qbar_T_sha256"]) == 64
    again = schedule_to_json(toy_schedule)
    assert again == js
