"""Variance-preserving Gaussian diffusion over layout matrices.

Layouts are (n, 8) matrices of per-object pose rows (translation, extents,
rotation as a cos/sin pair). The chain runs in a standardized space obtained
by per-column z-scoring with dataset statistics. The denoiser used here is
the exact posterior noise predictor of a finite mixture: dataset layouts
matching the conditioning graph, weighted by their likelihood under the
forward kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import SemanticGraph
from .scene import LAYOUT_DIM

logger = logging.getLogger(__name__)

MAX_STEP_VARIANCE = 0.999
# The cosine ramp's offset s (Nichol and Dhariwal), so early steps add noise.
COSINE_OFFSET = 0.008


def rotation_encode(r: float) -> tuple[float, float]:
    """Angle to unit vector (cos r, sin r)."""
    return (math.cos(r), math.sin(r))


def rotation_decode(cos_r: float, sin_r: float) -> float:
    """Unit vector back to an angle in (-pi, pi]. The input need not be
    normalized; only the direction matters."""
    if cos_r == 0.0 and sin_r == 0.0:
        raise ValueError("zero rotation vector has no angle")
    return math.atan2(sin_r, cos_r)


def cosine_alpha_bar(T: int) -> np.ndarray:
    """Cumulative signal levels alpha_bar_0..alpha_bar_T on a cosine ramp.

    alpha_bar_0 is exactly 1; per-step variances derived from the ramp are
    clipped to MAX_STEP_VARIANCE, which keeps every alpha_bar positive.
    """
    if T < 1:
        raise ValueError("need at least one step")
    steps = np.arange(T + 1, dtype=np.float64) / T
    f = np.cos((steps + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * math.pi / 2.0) ** 2
    raw = f / f[0]
    alpha_bar = np.empty(T + 1, dtype=np.float64)
    alpha_bar[0] = 1.0
    for t in range(1, T + 1):
        step = 1.0 - raw[t] / raw[t - 1]
        step = min(max(step, 0.0), MAX_STEP_VARIANCE)
        alpha_bar[t] = alpha_bar[t - 1] * (1.0 - step)
    return alpha_bar


@dataclass(frozen=True)
class GaussianSchedule:
    """Precomputed variance-preserving schedule.

    Attributes:
        alpha_bar: (T + 1,) cumulative signal levels, alpha_bar[0] == 1.
        betas: (T,) per-step variances, betas[t - 1] is the variance of
            step t.
        posterior_var: (T,) variances of the reverse-time conditionals;
            entry for t == 1 is zero, so the final step is deterministic.
    """

    alpha_bar: np.ndarray
    betas: np.ndarray
    posterior_var: np.ndarray

    def __post_init__(self):
        for name in ("alpha_bar", "betas", "posterior_var"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.alpha_bar.shape[0] != self.betas.shape[0] + 1:
            raise ValueError("alpha_bar must have one entry more than betas")
        if self.alpha_bar[0] != 1.0:
            raise ValueError("alpha_bar[0] must be exactly 1")
        if (self.alpha_bar <= 0.0).any() or (self.alpha_bar > 1.0).any():
            raise ValueError("alpha_bar must stay in (0, 1]")
        if (self.betas <= 0.0).any() or (self.betas > MAX_STEP_VARIANCE).any():
            raise ValueError(f"betas must lie in (0, {MAX_STEP_VARIANCE}]")

    @property
    def T(self) -> int:
        return self.betas.shape[0]


def build_gaussian_schedule(T: int) -> GaussianSchedule:
    """Cosine schedule with per-step variances clipped to (0, 0.999]."""
    alpha_bar = cosine_alpha_bar(T)
    betas = 1.0 - alpha_bar[1:] / alpha_bar[:-1]
    betas = np.clip(betas, 1e-12, MAX_STEP_VARIANCE)
    posterior_var = (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * betas
    return GaussianSchedule(alpha_bar=alpha_bar, betas=betas, posterior_var=posterior_var)


@dataclass(frozen=True)
class LayoutStats:
    """Per-column standardization statistics."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1).copy()
        std = np.asarray(self.std, dtype=np.float64).reshape(-1).copy()
        if mean.shape != (LAYOUT_DIM,) or std.shape != (LAYOUT_DIM,):
            raise ValueError(f"stats must have {LAYOUT_DIM} columns")
        if (std <= 0.0).any():
            raise ValueError("stds must be positive")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def compute_layout_stats(layouts) -> LayoutStats:
    """Column means and stds pooled over all rows of all layouts.

    Columns that are constant in the data get std 1 so standardization stays
    invertible.
    """
    rows = np.concatenate([np.asarray(L, dtype=np.float64) for L in layouts], axis=0)
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std < 1e-9, 1.0, std)
    return LayoutStats(mean=mean, std=std)


def standardize(layout, stats: LayoutStats) -> np.ndarray:
    return (np.asarray(layout, dtype=np.float64) - stats.mean) / stats.std


def destandardize(layout, stats: LayoutStats) -> np.ndarray:
    return np.asarray(layout, dtype=np.float64) * stats.std + stats.mean


def forward_sample_layout(L0, t: int, schedule: GaussianSchedule,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw L_t given L_0 along with the driving noise.

    L_t = sqrt(alpha_bar_t) L_0 + sqrt(1 - alpha_bar_t) eps, eps standard
    normal of the same shape. t == 0 returns L_0 with zero noise.
    """
    L0 = np.asarray(L0, dtype=np.float64)
    if not 0 <= t <= schedule.T:
        raise ValueError(f"t={t} outside [0, {schedule.T}]")
    if t == 0:
        return L0.copy(), np.zeros_like(L0)
    eps = rng.standard_normal(L0.shape)
    ab = schedule.alpha_bar[t]
    return math.sqrt(ab) * L0 + math.sqrt(1.0 - ab) * eps, eps


class EpsDenoiser:
    """Interface: predict the forward noise from a noisy layout."""

    def predict(self, L_t: np.ndarray, t: int, graph: SemanticGraph) -> np.ndarray:
        raise NotImplementedError


class ExactEpsDenoiser(EpsDenoiser):
    """Exact posterior noise predictor over a finite layout dataset.

    Conditioning selects the dataset layouts whose graph matches the query
    graph. Matching tries three keys in order: the full graph (categories,
    codes, relations), the graph with codes ignored, and finally the multiset
    of real categories; fallbacks are logged. Prediction mixes the matching
    layouts with their exact posterior weights under the forward kernel and
    converts the posterior mean to a noise estimate.
    """

    def __init__(self, dataset, schedule: GaussianSchedule):
        """dataset: iterable of (SemanticGraph, layout) pairs. Layouts are
        raw (unstandardized) and standardized by the dataset's own
        statistics."""
        pairs = [(g, np.asarray(L, dtype=np.float64)) for g, L in dataset]
        if not pairs:
            raise ValueError("empty layout dataset")
        if any(L.shape[0] != g.n_slots for g, L in pairs):
            raise ValueError("layout must have one row per graph slot")
        # Every layout's rows stacked, standardized at once, then split back.
        rows = np.concatenate([L for _, L in pairs], axis=0)
        self.stats = compute_layout_stats([rows])
        self.schedule = schedule
        self._exact: dict[bytes, list[np.ndarray]] = {}
        self._no_codes: dict[bytes, list[np.ndarray]] = {}
        self._multiset: dict[bytes, list[np.ndarray]] = {}
        standardized, lo = standardize(rows, self.stats), 0
        for g, L in pairs:
            z = standardized[lo:lo + L.shape[0]]
            lo += L.shape[0]
            self._exact.setdefault(g.key(), []).append(z)
            self._no_codes.setdefault(self._key_no_codes(g), []).append(z)
            self._multiset.setdefault(self._key_multiset(g), []).append(z)

    @staticmethod
    def _key_no_codes(g: SemanticGraph) -> bytes:
        return g.categories.tobytes() + g.relations.tobytes()

    @staticmethod
    def _key_multiset(g: SemanticGraph) -> bytes:
        real = np.sort(g.categories[g.categories < g.k_c])
        return real.tobytes()

    def matching_layouts(self, graph: SemanticGraph) -> np.ndarray:
        """Standardized stack (m, n, 8) of conditioning candidates."""
        hit = self._exact.get(graph.key())
        if hit is None:
            hit = self._no_codes.get(self._key_no_codes(graph))
            if hit is not None:
                logger.info("layout match fell back to the code-free graph key")
        if hit is None:
            hit = self._multiset.get(self._key_multiset(graph))
            if hit is not None:
                logger.info("layout match fell back to the category multiset key")
        if hit is None:
            raise KeyError("no dataset layout matches the conditioning graph")
        shapes = {h.shape for h in hit}
        if len(shapes) != 1:
            raise ValueError("matching layouts disagree in shape")
        return np.stack(hit, axis=0)

    def predict(self, L_t, t: int, graph: SemanticGraph | None,
                modes: np.ndarray | None = None) -> np.ndarray:
        """Noise estimate for one noisy layout (n, 8) or a stack (b, n, 8).

        ``modes`` is either one (m, n, 8) candidate stack shared by every
        layout, by default the graph's ``matching_layouts``, or a per-layout
        stack (b, m, n, 8) whose row i is the candidate set of layout i; the
        graph is then not read. Either way each layout gets its own weights
        and its own (1, m) @ (m, n*8) product, so its estimate does not
        depend on the other layouts in the call.
        """
        L_t = np.asarray(L_t, dtype=np.float64)
        if not 1 <= t <= self.schedule.T:
            raise ValueError(f"t={t} outside [1, {self.schedule.T}]")
        if modes is None:
            modes = self.matching_layouts(graph)
        if modes.shape[-2:] != L_t.shape[-2:]:
            raise ValueError("noisy layout shape disagrees with the matching set")
        L = L_t.reshape(-1, *modes.shape[-2:])
        if modes.ndim == 3:
            modes = modes[None]
        elif modes.shape[0] != L.shape[0]:
            raise ValueError(f"{modes.shape[0]} candidate stacks for {L.shape[0]} layouts")
        ab = self.schedule.alpha_bar[t]
        resid = L[:, None] - math.sqrt(ab) * modes
        logw = -np.square(resid).sum(axis=(2, 3)) / (2.0 * (1.0 - ab))
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        # numpy evaluates each (1, m) @ (m, n*8) product as a vector-matrix
        # product, so a layout's estimate does not depend on the stack size.
        post_mean = (w[:, None, :] @ modes.reshape(*modes.shape[:2], -1)).reshape(L.shape)
        return ((L - math.sqrt(ab) * post_mean) / math.sqrt(1.0 - ab)).reshape(L_t.shape)


def reverse_sample_layout(denoiser: ExactEpsDenoiser, graphs, schedule: GaussianSchedule,
                          rng: np.random.Generator,
                          frozen_rows: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Ancestral sampling of layouts conditioned on graphs.

    ``graphs`` is one SemanticGraph, giving one (n_slots, 8) layout, or a
    sequence of B graphs, giving a (B, n_slots, 8) stack. The chains run
    together in standardized space from pure noise down to t = 1; the final
    step adds no noise because its posterior variance is zero. Chains whose
    graphs share a key share one ``matching_layouts`` lookup, and chains
    whose keys have the same number of candidate layouts share one
    ``predict`` call per step. The start and each noisy step draw one
    (B, n_slots, 8) block of standard normals, whose row i drives chain i, so
    a layout depends on its place in the batch and on the batch size, but
    not on the other chains' graphs. Returns layouts in raw units with the
    rotation pair renormalized to unit length. frozen_rows maps row indices
    to raw rows clamped at every step in every chain; those rows come back
    bit-identical.
    """
    single = isinstance(graphs, SemanticGraph)
    batch = [graphs] if single else list(graphs)
    if not batch:
        raise ValueError("need at least one graph")
    shape = (len(batch), batch[0].n_slots, LAYOUT_DIM)
    frozen_raw = {}
    frozen_std = {}
    if frozen_rows:
        for idx, row in frozen_rows.items():
            if not 0 <= idx < shape[1]:
                raise ValueError(f"frozen row {idx} outside layout")
            frozen_raw[idx] = np.asarray(row, dtype=np.float64).copy()
            frozen_std[idx] = standardize(frozen_raw[idx], denoiser.stats)

    key_ids: dict[bytes, int] = {}
    group = np.array([key_ids.setdefault(g.key(), len(key_ids)) for g in batch])
    reps = [batch[i] for i in np.unique(group, return_index=True)[1]]
    modes = [denoiser.matching_layouts(g) for g in reps]
    if any(m.shape[1:] != shape[1:] for m in modes):
        raise ValueError("noisy layout shape disagrees with the matching set")
    count = np.array([m.shape[0] for m in modes])
    # Sort the chains by candidate count so each count is one contiguous
    # slice, decoded against its chains' stacked candidates.
    order = np.argsort(count[group], kind="stable")
    keys = group[order]
    cuts = [0, *(np.flatnonzero(np.diff(count[keys])) + 1), len(batch)]
    slices = [(slice(a, b), np.stack([modes[k] for k in keys[a:b]]))
              for a, b in zip(cuts, cuts[1:])]
    L = rng.standard_normal(shape)[order]
    for idx, row in frozen_std.items():
        L[:, idx] = row
    for t in range(schedule.T, 0, -1):
        eps_hat = np.empty_like(L)
        for sl, stacks in slices:
            eps_hat[sl] = denoiser.predict(L[sl], t, None, modes=stacks)
        beta = schedule.betas[t - 1]
        ab = schedule.alpha_bar[t]
        L = (L - beta / math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(1.0 - beta)
        var = schedule.posterior_var[t - 1]
        if var > 0.0:
            L += math.sqrt(var) * rng.standard_normal(shape)[order]
        for idx, row in frozen_std.items():
            L[:, idx] = row
    out = destandardize(L, denoiser.stats)[np.argsort(order)]
    norm = np.hypot(out[..., 6], out[..., 7])
    if (norm < 1e-12).any():
        raise ValueError("degenerate rotation vector in sampled layout")
    out[..., 6] /= norm
    out[..., 7] /= norm
    for idx, row in frozen_raw.items():
        out[:, idx] = row
    return out[0] if single else out


def simple_loss(denoiser: EpsDenoiser, dataset, schedule: GaussianSchedule,
                n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo noise-prediction objective.

    Draws (layout, t, eps) with t uniform on 1..T, corrupts the standardized
    layout, and averages the squared error per coordinate between eps and the
    denoiser's prediction.
    """
    pairs = [(g, np.asarray(L, dtype=np.float64)) for g, L in dataset]
    if not pairs or n_samples < 1:
        raise ValueError("need a non-empty dataset and at least one sample")
    stats = getattr(denoiser, "stats", None) or compute_layout_stats([L for _, L in pairs])
    total = 0.0
    count = 0
    for _ in range(n_samples):
        g, L = pairs[int(rng.integers(len(pairs)))]
        t = int(rng.integers(1, schedule.T + 1))
        z = standardize(L, stats)
        z_t, eps = forward_sample_layout(z, t, schedule, rng)
        err = denoiser.predict(z_t, t, g) - eps
        total += float(np.square(err).sum())
        count += err.size
    return total / count
