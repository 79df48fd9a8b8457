"""Discrete denoising diffusion over semantic scene graphs.

Each categorical variable (a category slot, a code slot, or a relation slot)
diffuses through an alphabet of k real labels plus empty plus mask. The
default forward kernel is mask-absorbing: at step t a surviving label is
masked with probability gamma_t = 1 / (T - t + 1), which drives the cumulative
mask probability to exactly t / T when the leak is zero and to 1 at t = T.
A small uniform leak beta_t spreads mass among the real labels so that the
chain never assigns zero likelihood to a plausible clean label.

Transition matrices are column stochastic: Q_t[i, j] = q(x_t = i | x_{t-1} = j),
the cumulative product Qbar_t = Q_t ... Q_1 gives the forward marginal of x_t
as the column Qbar_t[:, x_0].

Alternative kernels: ``uniform`` mixes the real-plus-empty labels toward the
uniform distribution on a cosine ramp; ``joint-mask`` shares one mask event
per node across its category, codes, and incident relations; and
``gaussian-embedding`` diffuses one-hot label embeddings with the Gaussian
layout machinery and tracks the induced label chain, which by symmetry of the
one-hot simplex is a uniform-structure chain whose stay probability is the
probability that the noisy embedding's argmax is unchanged.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SceneConfig
from .errors import SupportError, UnsatisfiableInstructionError
from .graph import GraphArrays, SemanticGraph, empty_state, mask_state
from .instructions import Instruction, instruction_match_stages
from .layout_diffusion import cosine_alpha_bar
from .relations import n_pairs, pair_slots

KERNEL_INDEPENDENT = "independent-mask"
KERNEL_UNIFORM = "uniform"
KERNEL_JOINT = "joint-mask"
KERNEL_GAUSSIAN = "gaussian-embedding"
KERNELS = (KERNEL_INDEPENDENT, KERNEL_UNIFORM, KERNEL_JOINT, KERNEL_GAUSSIAN)
MASKING_KERNELS = (KERNEL_INDEPENDENT, KERNEL_JOINT)

TERMINAL_MASK_MIN = 0.999

# Bound on the per-chunk temporaries of EmpiricalGraphDenoiser.log_likelihood,
# and the finite stand-in for log 0 in its tables.
_LIKELIHOOD_CHUNK_BYTES = 1 << 20
_LOG_IMPOSSIBLE = -1e300
# Uniforms per rng.random call when reverse_sample_batch skips its steps
# (512 KiB of float64).
_DISCARD_PIECE = 1 << 16


@dataclass(frozen=True)
class MaskSchedule:
    """Forward schedule for one categorical variable kind.

    Attributes:
        k: number of real labels; the alphabet has k + 2 states with empty at
            index k and mask at index k + 1.
        kernel: one of KERNELS.
        alphas, betas, gammas: (T,) per-step parameters; for mask kernels a
            real label survives with alpha_t + beta_t, flips to each other
            real label with beta_t, and masks with gamma_t. Uniform-structure
            kernels store the stay weight in alphas, the per-target mix
            weight in betas, and zero gammas.
        q: (T, k + 2, k + 2) per-step column-stochastic transition matrices.
        qbar: (T + 1, k + 2, k + 2) cumulative products, qbar[0] = identity.

    posterior_mixture_tensor and the joint reverse step's cumulative table
    memoize their per-t arrays on the schedule, one read-only array per t,
    built the first time a t is asked for.
    """

    k: int
    kernel: str
    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray
    q: np.ndarray
    qbar: np.ndarray
    _mixtures: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _mixture_cdfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.k < 1:
            raise ValueError("need at least one real label")
        for name in ("alphas", "betas", "gammas", "q", "qbar"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        T = self.alphas.shape[0]
        m = self.k + 2
        if self.q.shape != (T, m, m) or self.qbar.shape != (T + 1, m, m):
            raise ValueError("transition tensors disagree with T and k")
        if not np.array_equal(self.qbar[0], np.eye(m)):
            raise ValueError("qbar[0] must be the identity")
        if (self.q < -1e-15).any():
            raise ValueError("negative transition probability")
        col_sums = self.q.sum(axis=1)
        if not np.allclose(col_sums, 1.0, atol=1e-12):
            raise ValueError("transition matrices must be column stochastic")
        mask = mask_state(self.k)
        if not np.allclose(self.q[:, :, mask], np.eye(m)[mask], atol=0):
            raise ValueError("the mask state must be absorbing")

    @property
    def T(self) -> int:
        return self.alphas.shape[0]

    @property
    def n_states(self) -> int:
        return self.k + 2

    def forward_dist(self, x0: int, t: int) -> np.ndarray:
        """Marginal distribution of x_t given a clean label."""
        if not 0 <= t <= self.T:
            raise ValueError(f"t={t} outside [0, {self.T}]")
        if not 0 <= x0 < self.n_states:
            raise ValueError(f"label {x0} outside the alphabet")
        return self.qbar[t][:, x0].copy()

    def terminal_mask_mass(self) -> float:
        """Smallest cumulative mask probability over real source labels."""
        return float(self.qbar[self.T][mask_state(self.k), : self.k].min())


def _mask_step_matrices(k: int, alphas, betas, gammas) -> np.ndarray:
    """(T, k + 2, k + 2) mask-structure step matrices, one per parameter row."""
    m = k + 2
    e, msk = empty_state(k), mask_state(k)
    real = np.arange(k)
    q = np.zeros((alphas.shape[0], m, m), dtype=np.float64)
    q[:, :k, :k] = betas[:, None, None]
    q[:, real, real] = (alphas + betas)[:, None]
    q[:, msk, :k] = gammas[:, None]
    q[:, e, e] = 1.0 - gammas
    q[:, msk, e] = gammas
    q[:, msk, msk] = 1.0
    return q


def _uniform_step_matrices(k: int, stays, mix) -> np.ndarray:
    """(T, k + 2, k + 2) uniform-structure step matrices: each of the k + 1
    real and empty labels keeps its label with stays[t] and moves to every
    one of them with mix[t]; the mask stays put."""
    m = k + 2
    msk = mask_state(k)
    mixing = np.arange(k + 1)
    q = np.zeros((stays.shape[0], m, m), dtype=np.float64)
    q[:, : k + 1, : k + 1] = mix[:, None, None]
    q[:, mixing, mixing] += stays[:, None]
    q[:, msk, msk] = 1.0
    return q


def _assemble_schedule(k: int, kernel: str, alphas, betas, gammas, q: np.ndarray) -> MaskSchedule:
    T = q.shape[0]
    m = k + 2
    qbar = np.empty((T + 1, m, m), dtype=np.float64)
    qbar[0] = np.eye(m)
    for t in range(1, T + 1):
        qbar[t] = q[t - 1] @ qbar[t - 1]
    return MaskSchedule(
        k=k, kernel=kernel,
        alphas=np.asarray(alphas, dtype=np.float64),
        betas=np.asarray(betas, dtype=np.float64),
        gammas=np.asarray(gammas, dtype=np.float64),
        q=q, qbar=qbar,
    )


def mask_schedule_from_params(k: int, alphas, betas, gammas, *,
                              kernel: str = KERNEL_INDEPENDENT) -> MaskSchedule:
    """Build a mask-structure schedule from explicit per-step parameters.

    Every step needs alpha_t >= 0, beta_t >= 0, gamma_t in [0, 1], and
    alpha_t + k beta_t + gamma_t == 1.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    if not (alphas.shape == betas.shape == gammas.shape) or alphas.ndim != 1:
        raise ValueError("alphas, betas, gammas must be equal-length vectors")
    if (alphas < 0).any() or (betas < 0).any() or (gammas < 0).any() or (gammas > 1).any():
        raise ValueError("schedule parameters out of range")
    if not np.allclose(alphas + k * betas + gammas, 1.0, atol=1e-12):
        raise ValueError("need alpha_t + k beta_t + gamma_t == 1 at every step")
    q = _mask_step_matrices(k, alphas, betas, gammas)
    return _assemble_schedule(k, kernel, alphas, betas, gammas, q)


def uniform_schedule_from_stays(k: int, stays, *, kernel: str = KERNEL_UNIFORM) -> MaskSchedule:
    """Build a uniform-structure schedule from per-step stay weights."""
    stays = np.asarray(stays, dtype=np.float64)
    if stays.ndim != 1 or (stays < 0).any() or (stays > 1).any():
        raise ValueError("stay weights must lie in [0, 1]")
    betas = (1.0 - stays) / (k + 1)
    q = _uniform_step_matrices(k, stays, betas)
    return _assemble_schedule(k, kernel, stays, betas, np.zeros_like(stays), q)


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    erf = np.fromiter(map(math.erf, (x / math.sqrt(2.0)).ravel().tolist()), np.float64, x.size)
    return 0.5 * (1.0 + erf.reshape(x.shape))


_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(201)


def argmax_stay_probability(alpha_bar: float, n_states: int) -> float:
    """Probability that the argmax of a noisy one-hot embedding is unchanged.

    For x = sqrt(alpha_bar) e_i + sqrt(1 - alpha_bar) z with z standard normal
    in n_states dimensions, this is E_z[Phi(z + shift)^(n_states - 1)] with
    shift = sqrt(alpha_bar / (1 - alpha_bar)), evaluated by Gauss-Hermite
    quadrature.
    """
    if not 0.0 <= alpha_bar <= 1.0:
        raise ValueError("alpha_bar must lie in [0, 1]")
    if n_states < 2:
        raise ValueError("need at least two states")
    if alpha_bar >= 1.0:
        return 1.0
    shift = math.sqrt(alpha_bar / (1.0 - alpha_bar))
    phi = _std_normal_cdf(_HERMITE_NODES + shift)
    vals = phi ** (n_states - 1)
    return float((_HERMITE_WEIGHTS * vals).sum() / math.sqrt(2.0 * math.pi))


def build_schedule(T: int, k: int, kernel: str = KERNEL_INDEPENDENT, *,
                   leak: float = 0.01, node_gamma=None) -> MaskSchedule:
    """Construct the forward schedule for one variable kind.

    Mask kernels use gamma_t = 1 / (T - t + 1) and beta_t = leak / k, except
    that beta is truncated at steps where the remaining non-mask mass cannot
    cover it (only the final step at the default gamma), keeping alpha_t >= 0.
    ``node_gamma`` overrides the per-step mask event probabilities; the
    joint-mask relation schedule passes the per-edge event probability
    1 - (1 - gamma_t)^2 through it so that scalar marginals stay exact.

    The uniform kernel mixes toward the uniform distribution over the real
    and empty labels with cumulative stay weights on the cosine ramp. The
    gaussian-embedding kernel follows the label readout of one-hot Gaussian
    diffusion on the same ramp.
    """
    if T < 1:
        raise ValueError("need at least one step")
    if k < 1:
        raise ValueError("need at least one real label")
    if not 0.0 <= leak < math.inf:
        raise ValueError(f"leak must be finite and non-negative, got {leak!r}")
    if kernel in MASKING_KERNELS:
        if node_gamma is None:
            gammas = np.array([1.0 / (T - t + 1) for t in range(1, T + 1)])
        else:
            gammas = np.asarray(node_gamma, dtype=np.float64)
            if gammas.shape != (T,):
                raise ValueError("node_gamma must have one entry per step")
        betas = np.minimum(leak, 1.0 - gammas) / k
        alphas = 1.0 - gammas - k * betas
        if (alphas < -1e-15).any():
            raise ValueError("schedule parameters give a negative survival probability")
        sched = mask_schedule_from_params(k, np.clip(alphas, 0.0, None), betas, gammas,
                                          kernel=kernel)
        if node_gamma is None and sched.terminal_mask_mass() < TERMINAL_MASK_MIN:
            raise ValueError(f"terminal mask probability {sched.terminal_mask_mass():.6f} "
                             f"below {TERMINAL_MASK_MIN}")
        return sched
    if kernel == KERNEL_UNIFORM:
        ab = cosine_alpha_bar(T)
        stays = ab[1:] / ab[:-1]
        return uniform_schedule_from_stays(k, stays, kernel=kernel)
    if kernel == KERNEL_GAUSSIAN:
        # The k + 1 real and empty labels mix. The stay probability at step t
        # is argmax_stay_probability(ab[t], k + 1), to the same bits, with the
        # Hermite-node CDF evaluated for every t at once.
        ab = cosine_alpha_bar(T)[1:]
        phi = _std_normal_cdf(_HERMITE_NODES + np.sqrt(ab / (1.0 - ab))[:, None])
        p_stay = (_HERMITE_WEIGHTS * phi ** k).sum(axis=1) / math.sqrt(2.0 * math.pi)
        a = np.maximum(((k + 1) * p_stay - 1.0) / k, 1e-12)
        abar = np.minimum.accumulate(np.concatenate([[1.0], a]))
        return uniform_schedule_from_stays(k, abar[1:] / abar[:-1], kernel=kernel)
    raise ValueError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class GraphSchedule:
    """Bundle of per-kind schedules sharing T and kernel."""

    category: MaskSchedule
    code: MaskSchedule
    relation: MaskSchedule

    def __post_init__(self):
        if not (self.category.T == self.code.T == self.relation.T):
            raise ValueError("per-kind schedules must share T")
        if not (self.category.kernel == self.code.kernel == self.relation.kernel):
            raise ValueError("per-kind schedules must share the kernel")

    @property
    def T(self) -> int:
        return self.category.T

    @property
    def kernel(self) -> str:
        return self.category.kernel


def build_graph_schedule(config: SceneConfig, T: int,
                         kernel: str = KERNEL_INDEPENDENT, *,
                         leak: float = 0.01) -> GraphSchedule:
    """Schedules for categories, codes, and relations of one scene family."""
    edge_gamma = None
    if kernel == KERNEL_JOINT:
        node_gamma = np.array([1.0 / (T - t + 1) for t in range(1, T + 1)])
        edge_gamma = 1.0 - (1.0 - node_gamma) ** 2
    return GraphSchedule(
        category=build_schedule(T, config.k_c, kernel, leak=leak),
        code=build_schedule(T, config.k_f, kernel, leak=leak),
        relation=build_schedule(T, config.k_e, kernel, leak=leak, node_gamma=edge_gamma),
    )


def forward_sample(x0: int, t: int, schedule: MaskSchedule,
                   rng: np.random.Generator) -> int:
    """Draw x_t from the forward marginal given a clean label.

    A mask input stays mask at any t since the state is absorbing.
    """
    dist = schedule.forward_dist(int(x0), t)
    return int(rng.choice(schedule.n_states, p=dist))


def forward_sample_array(x0, t: int, schedule: MaskSchedule,
                         rng: np.random.Generator) -> np.ndarray:
    """Vectorized forward_sample over a label array."""
    x0 = np.asarray(x0, dtype=np.int64)
    if not 0 <= t <= schedule.T:
        raise ValueError(f"t={t} outside [0, {schedule.T}]")
    probs = schedule.qbar[t][:, x0.reshape(-1)].T
    return _sample_rows(probs, rng).reshape(x0.shape)


def _sample_rows(probs: np.ndarray, rng: np.random.Generator,
                 error: str = "a sampling row has zero total mass") -> np.ndarray:
    """One categorical draw per row of a (rows, states) probability matrix.

    Raises ValueError with ``error`` when a row has no mass.
    """
    return _sample_cdf(np.cumsum(probs.T, axis=0, out=np.empty(probs.shape[::-1])), rng, error)


def _sample_cdf(cdf: np.ndarray, rng: np.random.Generator,
                error: str = "a sampling row has zero total mass") -> np.ndarray:
    """_sample_rows on the rows' cumulative sums, laid out (states, rows).

    A row draws the first entry whose cumulative sum exceeds u, which has
    weight even when u is 0; u < total keeps it in range."""
    totals = cdf[-1]
    if (totals <= 0.0).any():
        raise ValueError(error)
    u = rng.random(cdf.shape[1]) * totals
    return (cdf <= u).sum(axis=0, dtype=np.int64)


def true_posterior(x_t: int, x0: int, t: int, schedule: MaskSchedule) -> np.ndarray:
    """Exact reverse conditional q(x_{t-1} | x_t, x_0) as a dense vector.

    Bayes over the factorized chain:
    q(x_{t-1} = j | x_t, x_0) = Q_t[x_t, j] Qbar_{t-1}[j, x_0] / Qbar_t[x_t, x_0].
    Raises when the conditioning pair has zero forward probability. At t = 1
    the result is a point mass on x_0's reachable set.
    """
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t={t} outside [1, {schedule.T}]")
    m = schedule.n_states
    if not (0 <= x_t < m and 0 <= x0 < m):
        raise ValueError("label outside the alphabet")
    denom = schedule.qbar[t][x_t, x0]
    if denom <= 0.0:
        raise ValueError(f"impossible pair: q(x_t={x_t} | x0={x0}) = 0 at t={t}")
    num = schedule.q[t - 1][x_t, :] * schedule.qbar[t - 1][:, x0]
    return num / denom


def posterior_mixture_tensor(schedule: MaskSchedule, t: int) -> np.ndarray:
    """Tensor M[i, k, j] = q(x_{t-1} = j | x_t = i, x_0 = k) for clean labels
    k in [0, k_real] (mask excluded); impossible (i, k) pairs give zero rows.

    Built once per schedule and t, then returned read-only from the
    schedule's memo."""
    out = schedule._mixtures.get(t)
    if out is None:
        out = schedule._mixtures[t] = _build_mixture(schedule, t)
    return out


def _build_mixture(schedule: MaskSchedule, t: int) -> np.ndarray:
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t={t} outside [1, {schedule.T}]")
    m = schedule.n_states
    n_clean = schedule.k + 1
    num = np.einsum("ij,jk->ikj", schedule.q[t - 1], schedule.qbar[t - 1][:, :n_clean])
    denom = schedule.qbar[t][:, :n_clean]
    out = np.zeros((m, n_clean, m), dtype=np.float64)
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok][:, None]
    out.flags.writeable = False
    return out


def _mixture_cdf(schedule: MaskSchedule, t: int) -> np.ndarray:
    """(n_states * (k + 1), n_states) table whose row x_t * (k + 1) + x_0
    holds the cumulative sums of posterior_mixture_tensor(schedule, t)[x_t, x_0].

    Built once per schedule and t, without memoizing the tensor itself, and
    stored column-major: its transpose is _sample_cdf's (states, rows) layout."""
    out = schedule._mixture_cdfs.get(t)
    if out is None:
        out = np.asfortranarray(
            np.cumsum(_build_mixture(schedule, t), axis=-1).reshape(-1, schedule.n_states))
        out.flags.writeable = False
        schedule._mixture_cdfs[t] = out
    return out


def model_posterior(x_t: int, p_x0, t: int, schedule: MaskSchedule) -> np.ndarray:
    """Reverse conditional induced by a clean-label prediction.

    Mixes the true posteriors over clean labels with weights p_x0 and
    renormalizes; mixture terms whose conditioning pair is impossible drop
    out. Raises when every term is impossible.
    """
    p_x0 = np.asarray(p_x0, dtype=np.float64)
    n_clean = schedule.k + 1
    if p_x0.shape != (n_clean,):
        raise ValueError(f"p_x0 must have {n_clean} entries (real labels plus empty)")
    M = posterior_mixture_tensor(schedule, t)
    if not 0 <= x_t < schedule.n_states:
        raise ValueError("label outside the alphabet")
    out = p_x0 @ M[x_t]
    total = out.sum()
    if total <= 0.0:
        raise ValueError("all mixture components are impossible for this state")
    return out / total


def apply_cfg(p_cond, p_uncond, scale: float) -> np.ndarray:
    """Classifier-free guidance in probability space.

    Computes p_cond + scale (p_cond - p_uncond) along the last axis, clamps
    negatives to zero, and renormalizes. scale = 0 returns p_cond unchanged;
    identical inputs pass through exactly for any scale.
    """
    p_cond = np.asarray(p_cond, dtype=np.float64)
    p_uncond = np.asarray(p_uncond, dtype=np.float64)
    if p_cond.shape != p_uncond.shape:
        raise ValueError("guided distributions must share a shape")
    if scale < 0:
        raise ValueError("guidance scale must be non-negative")
    # exact no-op cases bypass the renormalizing division
    if scale == 0.0 or np.array_equal(p_cond, p_uncond):
        return p_cond.copy()
    out = np.clip(p_cond + scale * (p_cond - p_uncond), 0.0, None)
    totals = out.sum(axis=-1, keepdims=True)
    if (totals <= 0.0).any():
        raise ValueError("guidance emptied a distribution; lower the scale")
    return out / totals


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance strength of the factorized reverse step; the exact
    denoiser's joint step leaves it unused (see reverse_sample_batch)."""

    scale: float = 0.0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("guidance scale must be non-negative")


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the per-kind bound terms."""

    category: float = 1.0
    code: float = 1.0
    relation: float = 10.0


class GraphDenoiser:
    """Interface: predict clean-label distributions from corrupted states.

    Implementations set ``n_slots`` and ``n_f``, the slot count and the code
    slots per object of the graphs they denoise; the samplers and the bound
    read the state shapes from them.
    """

    def predict_arrays(self, cat, code_flat, rel, filters, t: int, observe=None, rng=None):
        """Batched prediction on raw state arrays; mask never receives mass.

        cat: (B, n) labels, code_flat: (B, n * n_f), rel: (B, P). ``filters``
        is None, one instruction shared by the batch, or a boolean mask over
        the denoiser's hypotheses that broadcasts to (B, n_hypotheses).
        ``observe`` optionally masks which slots carry evidence, as a triple
        of boolean arrays shaped like the state arrays; clamped slots are
        excluded there because their values are not forward samples. Returns
        (pc (B, n, k_c + 1), pf (B, n * n_f, k_f + 1), pe (B, P, k_e + 1)).

        With ``rng`` given, a denoiser over a finite hypothesis set instead
        draws one hypothesis per chain from its posterior weights and returns
        that hypothesis's clean labels, (B, n), (B, n * n_f) and (B, P): one
        draw from the joint clean-graph posterior rather than its per-slot
        marginals. Only EmpiricalGraphDenoiser offers this form.
        """
        raise NotImplementedError


class EmpiricalGraphDenoiser(GraphDenoiser):
    """Exact clean-graph posterior over a finite dataset of padded graphs.

    The weight of dataset graph G_i given an observed state is its prior
    frequency times the product over all slots of the forward marginal
    Qbar_t[observed | clean], restricted by the instruction filter. The
    prediction is the per-slot marginal of the weighted dataset, or with an
    ``rng`` one dataset graph drawn from the weights; mask states never
    receive mass because clean graphs contain none.
    """

    def __init__(self, dataset, schedule: GraphSchedule):
        """dataset: a GraphArrays, or padded SemanticGraphs of one shape and
        vocabulary, which are stacked into one."""
        arrays = dataset if isinstance(dataset, GraphArrays) else GraphArrays.from_graphs(dataset)
        if not len(arrays):
            raise ValueError("empty graph dataset")
        self.schedule = schedule
        self.n_slots, self.n_f = arrays.n_slots, arrays.n_f
        self.k_c, self.k_f, self.k_e = arrays.k_c, arrays.k_f, arrays.k_e
        if schedule.category.k != self.k_c or schedule.code.k != self.k_f \
                or schedule.relation.k != self.k_e:
            raise ValueError("schedule vocabulary disagrees with the dataset")
        # Distinct graphs in order of first appearance, with their counts.
        first, _, counts = arrays.distinct
        self._distinct = GraphArrays(
            arrays.categories[first], arrays.codes[first], arrays.relations[first],
            k_c=self.k_c, k_f=self.k_f, k_e=self.k_e)
        self._ucat, self._urel = self._distinct.categories, self._distinct.relations
        self._ucode = self._distinct.codes.reshape(first.shape[0], -1)
        if ((self._ucat == mask_state(self.k_c)).any()
                or (self._ucode == mask_state(self.k_f)).any()
                or (self._urel == mask_state(self.k_e)).any()):
            raise ValueError("dataset graphs must be clean")
        self._counts = counts.astype(np.float64)
        self._log_prior = np.log(self._counts / self._counts.sum())
        scheds = (schedule.category, schedule.code, schedule.relation)
        labels = (self._ucat, self._ucode, self._urel)
        # The clean one-hots of the three kinds side by side, (U, D): the
        # columns of kind i hold its (slots, k + 1) one-hots, flattened.
        blocks = [_onehot(u, s.k + 1).reshape(self.n_unique, -1) for u, s in zip(labels, scheds)]
        self._onehot = np.concatenate(blocks, axis=1)
        ends = np.cumsum([b.shape[1] for b in blocks]).tolist()
        self._columns = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
        # Per t, one flat table: the three kinds' (k + 2, k + 1) tables of
        # log Qbar_t over clean labels, flattened and concatenated, and one
        # trailing 0; impossible pairs hold _LOG_IMPOSSIBLE (see
        # log_likelihood). One-hot column c (slot s, label l of a kind) reads
        # entry base[c] + x[s] * stride[c] for a chain state x laid out as the
        # three kinds side by side; unobserved columns read the 0.
        logs, base, stride, slot, top = [], [], [], [], []
        offset = first_slot = 0
        for s, u in zip(scheds, labels):
            clean = s.qbar[:, :, : s.k + 1].reshape(schedule.T + 1, -1)
            logs.append(np.where(clean > 0.0, np.log(np.maximum(clean, 1e-300)),
                                 _LOG_IMPOSSIBLE))
            n, width = u.shape[1], s.k + 1
            base.append(np.tile(offset + np.arange(width), n))
            stride.append(np.full(n * width, width))
            slot.append(np.repeat(first_slot + np.arange(n), width))
            top.append(np.full(n, s.k + 1))
            offset += clean.shape[1]
            first_slot += n
        pad = [np.zeros((schedule.T + 1, 1))]
        self._flat_log = np.concatenate(logs + pad, axis=1)
        self._base, self._stride, self._slot, self._top = (
            np.concatenate(a) for a in (base, stride, slot, top))
        self._filter_cache: dict[Instruction, np.ndarray] = {}

    @property
    def n_unique(self) -> int:
        return self._counts.shape[0]

    @property
    def graphs(self) -> tuple[SemanticGraph, ...]:
        """The distinct dataset graphs in order of first appearance, built on
        first access."""
        return self._distinct.graphs

    def filter_vector(self, instruction: Instruction | None) -> np.ndarray | None:
        """Boolean mask of dataset graphs matching an instruction, found in
        one pass over the label tables and cached per instruction.

        Raises UnsatisfiableInstructionError when the filter empties the
        dataset, naming the first constraint stage that did it.
        """
        if instruction is None or instruction.is_unconditional():
            return None
        cached = self._filter_cache.get(instruction)
        if cached is not None:
            return cached
        codes = self._ucode.reshape(self.n_unique, self.n_slots, self.n_f)
        triplets, style = instruction_match_stages(self._ucat, codes, self._urel,
                                                   instruction, self.k_c)
        mask = triplets & style
        if not mask.any():
            stage = ("triplets" if not triplets.any() else
                     "style" if not style.any() else "combined")
            raise UnsatisfiableInstructionError(
                f"no dataset graph satisfies the instruction (failed stage: {stage})",
                stage=stage,
            )
        self._filter_cache[instruction] = mask
        return mask

    def log_likelihood(self, cat, code_flat, rel, t: int, observe=None) -> np.ndarray:
        """(B, n_unique) log q(observed state | clean graph) at step t.

        ``observe`` optionally restricts which slots contribute, as boolean
        arrays shaped like the states; excluded slots add nothing. A state
        label outside its kind's alphabet 0..k + 1 raises IndexError.

        A chain's entries of log Qbar_t over clean labels, one per one-hot
        column, make one row whose product with a graph's one-hots sums the
        log terms of that graph's labels; one gather through the flat index
        of each column reads them. An impossible pair reads the finite
        _LOG_IMPOSSIBLE, which the other graphs' one-hot zeros turn into -0
        (-inf would give NaN). A sum holding it lies below half of it, far
        under any finite sum (one entry per slot, each at least log 1e-300),
        and becomes -inf. Chains go in chunks within _LIKELIHOOD_CHUNK_BYTES.
        """
        states = (cat, code_flat, rel)
        batch, (n_unique, width) = cat.shape[0], self._onehot.shape
        n_state = sum(x.shape[1] for x in states)
        # Per chain: the state row, the flat indices before and after the
        # observed columns redirect them, the log row (D each), the mask of
        # impossible sums (U), and the observed slots and columns.
        per_chain = 8 * (n_state + 3 * width) + n_unique + n_state + width
        chunk = max(1, _LIKELIHOOD_CHUNK_BYTES // per_chain)
        log_t = self._flat_log[t]
        unobserved = log_t.shape[0] - 1
        onehot_t = self._onehot.T
        ll = np.empty((batch, n_unique), dtype=np.float64)
        for lo in range(0, batch, chunk):
            rows = slice(lo, lo + chunk)
            raw = np.concatenate([x[rows] for x in states], axis=1)
            if raw.min() < 0 or (raw > self._top).any():
                raise IndexError("a state label lies outside its kind's alphabet")
            idx = raw[:, self._slot]
            idx *= self._stride
            idx += self._base
            if observe is not None:
                seen = np.concatenate([o[rows] for o in observe], axis=1)[:, self._slot]
                idx = np.where(seen, idx, unobserved)
            block = np.matmul(log_t[idx], onehot_t, out=ll[rows])
            np.putmask(block, block < 0.5 * _LOG_IMPOSSIBLE, -np.inf)
        return ll

    def posterior_weights(self, cat, code_flat, rel, filters, t: int,
                          observe=None) -> np.ndarray:
        """(B, n_unique) posterior over dataset graphs given observed states."""
        ll = self.log_likelihood(cat, code_flat, rel, t, observe) + self._log_prior[None, :]
        if filters is not None:
            ll = np.where(filters, ll, -np.inf)
        peak = ll.max(axis=1, keepdims=True)
        dead = ~np.isfinite(peak[:, 0])
        if dead.any():
            raise SupportError("a chain state has zero likelihood under every dataset graph")
        w = np.exp(ll - peak)
        return w / w.sum(axis=1, keepdims=True)

    def frozen_value_filter(self, frozen: FrozenGraph) -> np.ndarray | None:
        """(n_unique,) hypotheses consistent with one spec's clamped slot
        values, or None when it clamps nothing.

        This is how clamped slots condition the posterior exactly: instead of
        entering the likelihood (their values are not forward samples), they
        restrict the hypothesis set to dataset graphs carrying those values.
        """
        clamps = frozen.flat(self.n_slots, self.n_f)
        if not any(mask.any() for mask, _ in clamps):
            return None
        ok = np.ones(self.n_unique, dtype=bool)
        for u, (mask, values) in zip((self._ucat, self._ucode, self._urel), clamps):
            ok &= (u[:, mask] == values[mask]).all(axis=1)
        if not ok.any():
            raise SupportError("frozen slots are inconsistent with every dataset graph")
        return ok

    def combine_filters(self, instruction: Instruction | None,
                        frozen: FrozenGraph) -> np.ndarray | None:
        """(n_unique,) AND of frozen_value_filter and filter_vector, or None if
        neither restricts; the frozen spec's SupportError comes first."""
        base = self.frozen_value_filter(frozen)
        inst = self.filter_vector(instruction)
        if base is None or inst is None:
            return inst if base is None else base
        both = inst & base
        if not both.any():
            raise UnsatisfiableInstructionError(
                "the instruction conflicts with the frozen scene content",
                stage="combined",
            )
        return both

    def predict_arrays(self, cat, code_flat, rel, filters, t: int, observe=None, rng=None):
        filters = self.filter_vector(filters) if isinstance(filters, Instruction) else filters
        w = self.posterior_weights(cat, code_flat, rel, filters, t, observe)
        if rng is not None:
            u = _sample_rows(w, rng)
            return self._ucat[u], self._ucode[u], self._urel[u]
        return tuple((w @ self._onehot[:, cols]).reshape(x.shape + (-1,))
                     for cols, x in zip(self._columns, (cat, code_flat, rel)))


class UniformGraphDenoiser(GraphDenoiser):
    """Baseline denoiser predicting the uniform clean distribution."""

    def __init__(self, n_slots: int, n_f: int, k_c: int, k_f: int, k_e: int = 11):
        self.n_slots, self.n_f = n_slots, n_f
        self.k_c, self.k_f, self.k_e = k_c, k_f, k_e

    def predict_arrays(self, cat, code_flat, rel, filters, t: int, observe=None):
        b = cat.shape[0]
        pc = np.full((b, self.n_slots, self.k_c + 1), 1.0 / (self.k_c + 1))
        pf = np.full((b, self.n_slots * self.n_f, self.k_f + 1), 1.0 / (self.k_f + 1))
        pe = np.full((b, rel.shape[1], self.k_e + 1), 1.0 / (self.k_e + 1))
        return pc, pf, pe


def _onehot(labels: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(labels.shape + (n,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


@dataclass(frozen=True)
class FrozenGraph:
    """Per-slot clamp specification for constrained reverse sampling."""

    cat_mask: np.ndarray
    cat_values: np.ndarray
    code_mask: np.ndarray
    code_values: np.ndarray
    rel_mask: np.ndarray
    rel_values: np.ndarray

    @classmethod
    def nothing(cls, n_slots: int, n_f: int) -> "FrozenGraph":
        p = n_pairs(n_slots)
        return cls(
            np.zeros(n_slots, dtype=bool), np.zeros(n_slots, dtype=np.int64),
            np.zeros((n_slots, n_f), dtype=bool), np.zeros((n_slots, n_f), dtype=np.int64),
            np.zeros(p, dtype=bool), np.zeros(p, dtype=np.int64),
        )

    @classmethod
    def from_graph(cls, graph: SemanticGraph, *, freeze_categories=False,
                   freeze_codes=False, freeze_relations=False,
                   slots=None) -> "FrozenGraph":
        """Freeze whole variable kinds, optionally restricted to a slot set.

        With ``slots`` given, categories and codes freeze on those slots and
        relations freeze on pairs lying entirely inside the set.
        """
        n = graph.n_slots
        slot_mask = np.zeros(n, dtype=bool)
        if slots is None:
            slot_mask[:] = True
        else:
            slot_mask[np.asarray(list(slots), dtype=np.int64)] = True
        j, k = pair_slots(n)
        pair_mask = slot_mask[j] & slot_mask[k]
        cat_mask = slot_mask & bool(freeze_categories)
        code_mask = np.broadcast_to(slot_mask[:, None] & bool(freeze_codes),
                                    (n, graph.n_f)).copy()
        rel_mask = pair_mask & bool(freeze_relations)
        return cls(
            cat_mask, np.where(cat_mask, graph.categories, 0),
            code_mask, np.where(code_mask, graph.codes, 0),
            rel_mask, np.where(rel_mask, graph.relations, 0),
        )

    def flat(self, n_slots: int, n_f: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per kind, (mask, values) flattened to the samplers' state layout;
        ValueError unless the spec fits n_slots slots with n_f codes each."""
        kinds = ((self.cat_mask, self.cat_values), (self.code_mask, self.code_values),
                 (self.rel_mask, self.rel_values))
        shapes = ((n_slots,), (n_slots, n_f), (n_pairs(n_slots),))
        if any(a.shape != shape for kind, shape in zip(kinds, shapes) for a in kind):
            raise ValueError(f"frozen spec does not fit graphs of {n_slots} slots "
                             f"with {n_f} codes each")
        return tuple((mask.reshape(-1), values.reshape(-1)) for mask, values in kinds)


def _initial_states(schedule: MaskSchedule, rows: int, cols: int,
                    rng: np.random.Generator) -> np.ndarray:
    if schedule.kernel in MASKING_KERNELS:
        return np.full((rows, cols), mask_state(schedule.k), dtype=np.int64)
    return rng.integers(schedule.k + 1, size=(rows, cols), dtype=np.int64)


def _discard_uniforms(rng: np.random.Generator, n: int) -> None:
    """Advance ``rng`` exactly as n draws of ``rng.random`` would, drawing
    pieces of at most _DISCARD_PIECE values into one buffer."""
    buf = np.empty(min(n, _DISCARD_PIECE))
    for lo in range(0, n, _DISCARD_PIECE):
        rng.random(out=buf[: min(_DISCARD_PIECE, n - lo)])


def _reverse_step_kind(states: np.ndarray, px0: np.ndarray, schedule: MaskSchedule,
                       t: int, rng: np.random.Generator) -> np.ndarray:
    """Advance every entry of one kind's state matrix from time t to t - 1,
    each by the mixture of posteriors under its predicted clean labels."""
    M = posterior_mixture_tensor(schedule, t)
    flat = states.reshape(-1)
    p0 = px0.reshape(-1, px0.shape[-1])
    probs = np.empty((flat.size, schedule.n_states), dtype=np.float64)
    for value in np.unique(flat):
        rows = flat == value
        probs[rows] = p0[rows] @ M[value]
    out = _sample_rows(probs, rng, "reverse step produced an impossible state")
    return out.reshape(states.shape)


def _joint_step_kind(states: np.ndarray, x0: np.ndarray, schedule: MaskSchedule,
                     t: int, rng: np.random.Generator, free: np.ndarray) -> np.ndarray:
    """Advance one kind's state matrix from time t to t - 1 given one clean
    hypothesis per chain, ``x0`` shaped like ``states``.

    Each entry at the flat indices ``free`` draws from
    q(x_{t-1} | x_t, x_0 = its hypothesis label); frozen entries pass through
    and a kind with no free entry draws nothing. The hypothesis was drawn
    from weights that vanish unless every observed slot's pair is possible,
    so no drawn row is empty.
    """
    if not free.size:
        return states
    out = states.reshape(-1).copy()
    rows = out[free] * (schedule.k + 1) + x0.reshape(-1)[free]
    out[free] = _sample_cdf(np.take(_mixture_cdf(schedule, t).T, rows, axis=1), rng)
    return out.reshape(states.shape)


def reverse_sample_batch(denoiser: GraphDenoiser, schedule: GraphSchedule,
                         n_chains: int, rng: np.random.Generator, *,
                         instructions: Instruction | None = None,
                         guidance: GuidanceConfig | None = None,
                         frozen: FrozenGraph | None = None) -> list[SemanticGraph]:
    """Run n_chains reverse chains in lockstep and return clean graphs.

    Masking kernels start from the all-mask state; uniform-structure kernels
    start from their near-uniform terminal. ``instructions`` is one
    instruction and ``frozen`` one FrozenGraph, each shared by every chain.
    ``frozen`` clamps chosen slots to clean values at every step, which is
    how completion, rearrangement, and stylization condition on partial
    scenes.

    With an EmpiricalGraphDenoiser both condition the call through one
    hypothesis mask, combine_filters(instructions, frozen), built before the
    first step. Each step is the exact joint reverse conditional:
    ``predict_arrays(..., rng=rng)`` draws one dataset graph per chain from
    the masked posterior weights, and every free slot then draws from
    q(x_{t-1} | x_t, x_0 = that graph's label). The drawn graph stays
    consistent with the new state, so no chain loses all its hypotheses, and
    the terminal graphs are dataset graphs drawn from the masked prior.
    Guidance leaves this step unchanged: the conditional weights are the
    unconditional (frozen-masked) weights restricted to the instruction's
    hypotheses and renormalized, and apply_cfg on such a pair returns the
    conditional weights for every scale, so no unconditional pass is made.

    A call whose mask leaves one dataset graph (a stylize, or a dataset of
    one graph) returns that graph for every chain without stepping, since the
    steps can end nowhere else. It advances ``rng`` exactly as the steps
    would, by drawing and discarding their uniforms, so its graphs and the
    generator's state are the loop's. It makes no predict_arrays or
    log_likelihood calls, so a trace of it holds no spans of either.

    Any other denoiser takes no frozen slots and the factorized step: each
    slot draws from its own per-slot mixture of posteriors, and guidance
    with a positive scale mixes in a second, unconditional prediction.
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    n_slots, n_f = denoiser.n_slots, denoiser.n_f
    if frozen is None:
        frozen = FrozenGraph.nothing(n_slots, n_f)
    elif not isinstance(frozen, FrozenGraph):
        raise TypeError("frozen must be one FrozenGraph shared by every chain, or None")
    clamps = frozen.flat(n_slots, n_f)
    clamped = any(mask.any() for mask, _ in clamps)
    joint = isinstance(denoiser, EmpiricalGraphDenoiser)
    if clamped and not joint:
        raise TypeError("this denoiser cannot condition on frozen slots")
    guidance = guidance or GuidanceConfig()
    k_c, k_f, k_e = schedule.category.k, schedule.code.k, schedule.relation.k

    kinds = (schedule.category, schedule.code, schedule.relation)
    widths = (n_slots, n_slots * n_f, n_pairs(n_slots))
    cat, code, rel = (np.where(mask, values, _initial_states(s, n_chains, width, rng))
                      for s, width, (mask, values) in zip(kinds, widths, clamps))
    # Clamped slots condition the exact denoiser only through its hypothesis
    # mask and are excluded from the likelihood; see frozen_value_filter.
    seen = [np.broadcast_to(~mask, x.shape) for (mask, _), x in zip(clamps, (cat, code, rel))]
    free_cat, free_code, free_rel = (np.flatnonzero(s) for s in seen)
    observe = tuple(seen) if clamped else None
    filters = denoiser.combine_filters(instructions, frozen) if joint else instructions
    live = () if not joint else (
        range(denoiser.n_unique) if filters is None else np.flatnonzero(filters))
    if len(live) == 1:
        # Only graph h has weight, so every step draws h for every chain and
        # moves each free slot by q(x_{t-1} | x_t, x_0 = h), and t = 1 is a
        # point mass on h's labels: every chain ends on h. Fail where the
        # first step would, then draw and discard what the steps would draw.
        h = live[0]
        clean = (denoiser._ucat[h], denoiser._ucode[h], denoiser._urel[h])
        if any((s.qbar[schedule.T][x, c] <= 0.0)[o].any()
               for s, x, c, o in zip(kinds, (cat, code, rel), clean, seen)):
            raise SupportError("a chain state has zero likelihood under every dataset graph")
        _discard_uniforms(rng, schedule.T * (n_chains + free_cat.size + free_code.size
                                             + free_rel.size))
        return [denoiser.graphs[h]] * n_chains

    for t in range(schedule.T, 0, -1):
        if joint:
            hc, hf, he = denoiser.predict_arrays(cat, code, rel, filters, t, observe, rng=rng)
            cat = _joint_step_kind(cat, hc, schedule.category, t, rng, free_cat)
            code = _joint_step_kind(code, hf, schedule.code, t, rng, free_code)
            rel = _joint_step_kind(rel, he, schedule.relation, t, rng, free_rel)
            continue
        pc, pf, pe = denoiser.predict_arrays(cat, code, rel, filters, t)
        if guidance.scale > 0.0 and instructions is not None:
            uc, uf, ue = denoiser.predict_arrays(cat, code, rel, None, t)
            pc = apply_cfg(pc, uc, guidance.scale)
            pf = apply_cfg(pf, uf, guidance.scale)
            pe = apply_cfg(pe, ue, guidance.scale)
        for p, k in ((pc, k_c), (pf, k_f), (pe, k_e)):
            if p.shape[-1] != k + 1:
                raise ValueError("denoiser must predict real labels plus empty, never mask")
        # np.allclose(sums, 1, atol=1e-9) over all three kinds at once.
        sums = np.concatenate([p.sum(axis=-1) for p in (pc, pf, pe)], axis=None)
        if not (np.abs(sums - 1.0) <= 1e-9 + 1e-5).all():
            raise ValueError("denoiser prediction is not normalized")
        cat = _reverse_step_kind(cat, pc, schedule.category, t, rng)
        code = _reverse_step_kind(code, pf, schedule.code, t, rng)
        rel = _reverse_step_kind(rel, pe, schedule.relation, t, rng)

    # One immutable graph per distinct terminal state, shared by its chains.
    final, chain_of = np.unique(np.hstack([cat, code, rel]), axis=0, return_inverse=True)
    graphs = [SemanticGraph(c, f.reshape(n_slots, n_f), e, k_c=k_c, k_f=k_f, k_e=k_e)
              for c, f, e in (np.split(row, [n_slots, n_slots * (1 + n_f)]) for row in final)]
    if any(g.has_mask() for g in graphs):
        raise ValueError("reverse chain ended with mask states")
    return [graphs[u] for u in chain_of.reshape(-1).tolist()]


def reverse_sample(denoiser: GraphDenoiser, schedule: GraphSchedule,
                   rng: np.random.Generator, *,
                   instruction: Instruction | None = None,
                   frozen: FrozenGraph | None = None) -> SemanticGraph:
    """Single-chain reverse sampling; see reverse_sample_batch."""
    return reverse_sample_batch(
        denoiser, schedule, 1, rng, instructions=instruction, frozen=frozen,
    )[0]


def corrupt_graph(graph: SemanticGraph, t: int, schedule: GraphSchedule,
                  rng: np.random.Generator) -> SemanticGraph:
    """Draw G_t from the forward marginal q(G_t | G_0) in one draw per entry.

    Independent kernels draw every slot from its schedule's qbar[t][:, x_0].
    The joint-mask kernel shares one mask event per node: a node is masked
    by t with probability 1 - prod_{u <= t} (1 - gamma_u), and then its
    category, codes, and relations mask together. Every other entry draws
    from qbar[t][:-1, x_0]: each step's non-mask block is its leak-conditioned
    step times the survival factor, so that column is the product of the
    conditioned steps up to scale. A relation survives with
    prod (1 - gamma_u)^2, its own schedule's survival, so the marginals are
    qbar's.
    """
    if not 0 <= t <= schedule.T:
        raise ValueError(f"t={t} outside [0, {schedule.T}]")
    if schedule.kernel != KERNEL_JOINT:
        cat = forward_sample_array(graph.categories, t, schedule.category, rng)
        code = forward_sample_array(graph.codes, t, schedule.code, rng)
        rel = forward_sample_array(graph.relations, t, schedule.relation, rng)
        return SemanticGraph(cat, code, rel, k_c=graph.k_c, k_f=graph.k_f, k_e=graph.k_e)

    masked = rng.random(graph.n_slots) < 1.0 - np.prod(1.0 - schedule.category.gammas[:t])
    j, k = pair_slots(graph.n_slots)
    out = []
    for x0, s, hidden in ((graph.categories, schedule.category, masked),
                          (graph.codes, schedule.code, masked[:, None]),
                          (graph.relations, schedule.relation, masked[j] | masked[k])):
        x_t = np.full(x0.shape, mask_state(s.k), dtype=np.int64)
        live = ~np.broadcast_to(hidden, x0.shape)
        x_t[live] = _sample_rows(s.qbar[t][:-1, x0[live]].T, rng)
        out.append(x_t)
    return SemanticGraph(*out, k_c=graph.k_c, k_f=graph.k_f, k_e=graph.k_e)


def _bound_term(mixture: np.ndarray, x0: np.ndarray, x_t: np.ndarray,
                p_x0: np.ndarray, t: int) -> float:
    """One variable kind's bound term at step t, summed over its slots.

    ``mixture`` is posterior_mixture_tensor at t. Each slot's exact reverse
    conditional q is the row of mixture[x_t] at x0; the denoiser-induced p
    mixes the rows with the predicted clean-label weights and renormalizes,
    as model_posterior does. Returns the summed KL(q || p) (0 log 0 = 0,
    +inf where p misses mass of q), or at t = 1 the reconstruction negative
    log likelihood -log p(x0).
    """
    rows = mixture[x_t]
    p = np.einsum("sk,skj->sj", p_x0, rows)
    total = p.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("all mixture components are impossible for this state")
    p = p / total
    slots = np.arange(x0.shape[0])
    if t == 1:
        return float(-np.log(np.maximum(p[slots, x0], 1e-300)).sum())
    q = rows[slots, x0]
    support = q > 0.0
    if (p[support] <= 0.0).any():
        return float("inf")
    return float((q[support] * (np.log(q[support]) - np.log(p[support]))).sum())


def variational_bound(denoiser: GraphDenoiser, graph: SemanticGraph,
                      schedule: GraphSchedule, rng: np.random.Generator, *,
                      weights: LossWeights | None = None,
                      n_mc: int = 4) -> float:
    """Monte Carlo negative variational bound of one clean graph.

    Sums, over every step and slot, the KL between the exact reverse
    conditional and the denoiser-induced one, plus the reconstruction
    negative log likelihood at t = 1; the constant terminal term is dropped.
    The three variable kinds combine with the loss weights. Non-negative up
    to rounding; an exact denoiser on the graph's own point dataset drives
    it to zero when the leak is zero.
    """
    if graph.has_mask():
        raise ValueError("the bound is evaluated on clean graphs")
    weights = weights or LossWeights()
    if n_mc < 1:
        raise ValueError("need at least one Monte Carlo draw")
    if (graph.n_slots, graph.n_f) != (denoiser.n_slots, denoiser.n_f):
        raise ValueError("graph shape disagrees with the denoiser")
    kinds = (schedule.category, schedule.code, schedule.relation)
    clean = (graph.categories, graph.codes.reshape(-1), graph.relations)
    totals = [0.0, 0.0, 0.0]
    for t in range(1, schedule.T + 1):
        mixtures = [posterior_mixture_tensor(sched, t) for sched in kinds]
        for _ in range(n_mc):
            g_t = corrupt_graph(graph, t, schedule, rng)
            noisy = (g_t.categories, g_t.codes.reshape(-1), g_t.relations)
            preds = denoiser.predict_arrays(*(x[None] for x in noisy), None, t)
            for i, (mixture, x0, x_t, p) in enumerate(zip(mixtures, clean, noisy, preds)):
                totals[i] += _bound_term(mixture, x0, x_t, p[0], t) / n_mc
    return (weights.category * totals[0] + weights.code * totals[1]
            + weights.relation * totals[2])


def schedule_to_json(schedule: GraphSchedule) -> dict:
    """Serializable summary: per-kind parameters and terminal checksums."""
    out = {"T": schedule.T, "kernel": schedule.kernel, "kinds": {}}
    for name, s in (("category", schedule.category), ("code", schedule.code),
                    ("relation", schedule.relation)):
        out["kinds"][name] = {
            "k": s.k,
            "alphas": [float(v) for v in s.alphas],
            "betas": [float(v) for v in s.betas],
            "gammas": [float(v) for v in s.gammas],
            "terminal_mask_mass": s.terminal_mask_mass(),
            "qbar_T_sha256": hashlib.sha256(np.ascontiguousarray(s.qbar[s.T]).tobytes()).hexdigest(),
        }
    return out
