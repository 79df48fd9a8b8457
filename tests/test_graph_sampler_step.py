"""The graph sampler's per-step pieces against their direct forms.

``posterior_mixture_tensor`` memoizes one read-only tensor per schedule and
t; the oracle is the posterior formula written out entry by entry. The
factorized reverse step of one variable kind moves every entry; the oracle
draws the same rows from a loop over the distinct state values.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from scenediff import graph_diffusion as gd
from scenediff.graph_diffusion import (
    KERNELS,
    MASKING_KERNELS,
    build_graph_schedule,
    forward_sample_array,
    posterior_mixture_tensor,
)
from scenediff.graph import mask_state

T = 20


def _kinds(schedule):
    return (schedule.category, schedule.code, schedule.relation)


def _mixture_formula(s, t):
    """M[i, k, j] = Q_t[i, j] Qbar_{t-1}[j, k] / Qbar_t[i, k], 0 when the
    denominator is 0."""
    m, n_clean = s.n_states, s.k + 1
    out = np.zeros((m, n_clean, m))
    for i in range(m):
        for k0 in range(n_clean):
            denom = s.qbar[t][i, k0]
            if denom > 0.0:
                out[i, k0] = s.q[t - 1][i, :] * s.qbar[t - 1][:, k0] / denom
    return out


@pytest.mark.parametrize("kernel", KERNELS)
def test_mixture_memo_is_exact_shared_and_read_only(toy, kernel):
    for s in _kinds(build_graph_schedule(toy.config, T, kernel)):
        for t in (1, T // 2, T):
            M = posterior_mixture_tensor(s, t)
            want = _mixture_formula(s, t)
            assert M.dtype == np.float64 and M.shape == want.shape
            assert M.tobytes() == want.tobytes()
            assert posterior_mixture_tensor(s, t) is M
            with pytest.raises(ValueError):
                M[0, 0, 0] = 1.0
        assert sorted(s._mixtures) == [1, T // 2, T]
        fresh = dataclasses.replace(s)
        assert fresh._mixtures == {}
        again = posterior_mixture_tensor(fresh, 1)
        assert again is not posterior_mixture_tensor(s, 1)
        assert again.tobytes() == posterior_mixture_tensor(s, 1).tobytes()


def test_mixture_memo_rejects_steps_outside_the_schedule(toy):
    s = build_graph_schedule(toy.config, T).category
    for t in (0, T + 1):
        with pytest.raises(ValueError):
            posterior_mixture_tensor(s, t)
    assert 0 not in s._mixtures and T + 1 not in s._mixtures


def _loop_step(states, px0, schedule, t, rng):
    """The per-kind reverse step as a loop over the distinct state values."""
    M = posterior_mixture_tensor(schedule, t)
    flat = states.reshape(-1)
    p0 = px0.reshape(-1, px0.shape[-1])
    probs = np.empty((flat.size, schedule.n_states), dtype=np.float64)
    for value in np.unique(flat):
        rows = flat == value
        probs[rows] = p0[rows] @ M[value]
    totals = probs.sum(axis=1)
    if (totals <= 0.0).any():
        raise ValueError("reverse step produced an impossible state")
    return gd._sample_rows(probs, rng).reshape(states.shape)


def _step_inputs(s, batch, width, t, rng):
    """Forward samples at t, and one state every chain and slot shares: mask
    under the masking kernels, label 0 under the uniform-structure ones."""
    x0 = rng.integers(s.k + 1, size=(batch, width))
    shared = mask_state(s.k) if s.kernel in MASKING_KERNELS else 0
    px0 = rng.dirichlet(np.ones(s.k + 1), size=(batch, width))
    return (forward_sample_array(x0, t, s, rng), np.full((batch, width), shared)), px0


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("batch", [1, 7, 300])
def test_reverse_step_matches_the_value_loop(toy, kernel, batch):
    schedule = build_graph_schedule(toy.config, T, kernel)
    n = toy.config.n_max
    widths = (n, n * toy.config.n_f, n * (n - 1) // 2)
    rng = np.random.default_rng(KERNELS.index(kernel) * 1000 + batch)
    for s, width in zip(_kinds(schedule), widths):
        for t in (T, T // 2, 1):
            states_set, px0 = _step_inputs(s, batch, width, t, rng)
            for states in states_set:
                seed = int(rng.integers(2**32))
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _loop_step(states, px0, s, t, want_rng)
                got = gd._reverse_step_kind(states, px0, s, t, got_rng)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


class _ZeroUniforms:
    """A generator whose every uniform is exactly 0.0."""

    def random(self, size=None):
        return np.zeros(size)


def test_a_zero_uniform_draws_the_first_entry_with_weight():
    probs = np.array([[0.0, 0.0, 0.6, 0.4], [0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert gd._sample_rows(probs, _ZeroUniforms()).tolist() == [2, 0, 1]
