"""Product quantizer for object appearance features.

A feature vector of dimension d is split into n_f contiguous chunks of
dimension d / n_f. All chunks share one codebook of k_f centroids, so an
object's appearance becomes a sequence of n_f code indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Codebook:
    """Shared chunk codebook.

    Attributes:
        entries: (k_f, d_z) centroid matrix.
        n_f: number of chunks a feature splits into.
    """

    entries: np.ndarray
    n_f: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64).copy()
        if entries.ndim != 2 or entries.shape[0] < 1:
            raise ValueError("entries must be a (k_f, d_z) matrix")
        if self.n_f < 1:
            raise ValueError("n_f must be positive")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def k_f(self) -> int:
        return self.entries.shape[0]

    @property
    def d_z(self) -> int:
        return self.entries.shape[1]

    @property
    def d(self) -> int:
        return self.n_f * self.d_z

    def encode(self, features) -> np.ndarray:
        """Quantize one feature (d,) into its (n_f,) code sequence, or a stack
        (N, d) into (N, n_f).

        Each chunk maps to the nearest centroid in squared Euclidean
        distance; exact ties go to the lowest code index. Every chunk's
        distances are computed alone, so a feature's codes do not depend on
        the stack it comes in.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim not in (1, 2) or features.shape[-1] != self.d:
            raise ValueError(f"features of shape {features.shape}, codebook wants "
                             f"({self.d},) or (N, {self.d})")
        diff = features.reshape(-1, 1, self.d_z) - self.entries
        d2 = np.add.reduce(np.square(diff, out=diff), axis=2)
        return d2.argmin(axis=1).reshape(*features.shape[:-1], self.n_f)

    def decode(self, codes) -> np.ndarray:
        """Concatenate the centroids named by a code sequence."""
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        if codes.shape[0] != self.n_f:
            raise ValueError(f"expected {self.n_f} codes, got {codes.shape[0]}")
        if codes.min() < 0 or codes.max() >= self.k_f:
            raise ValueError("code index out of range")
        return self.entries[codes].reshape(-1).copy()


def fit_codebook(features, k_f: int, n_f: int, *, iters: int = 50,
                 seed: int | np.random.SeedSequence = 0) -> Codebook:
    """Fit the shared chunk codebook with seeded k-means.

    Chunks from every feature are pooled. Initialization is k-means++ from a
    generator seeded with ``seed``, an int or a SeedSequence; Lloyd
    iterations run for ``iters`` rounds or until no assignment changes. A
    cluster that empties is reseeded at the point farthest from its current
    centroid, which keeps the fit deterministic.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a non-empty (n, d) matrix")
    d = features.shape[1]
    if d % n_f != 0:
        raise ValueError(f"feature dimension {d} is not a multiple of n_f={n_f}")
    chunks = features.reshape(-1, d // n_f)
    if chunks.shape[0] < k_f:
        raise ValueError(f"need at least k_f={k_f} chunks, got {chunks.shape[0]}")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(chunks, k_f, rng)

    assign = np.full(chunks.shape[0], -1, dtype=np.int64)
    for _ in range(iters):
        d2 = ((chunks[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k_f):
            members = chunks[assign == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)
            else:
                dist_to_own = d2[np.arange(chunks.shape[0]), assign]
                centroids[c] = chunks[int(np.argmax(dist_to_own))]
    return Codebook(entries=centroids, n_f=n_f)


def _kmeans_pp_init(chunks: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = chunks.shape[0]
    centroids = np.empty((k, chunks.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = chunks[first]
    d2 = ((chunks - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            centroids[c] = chunks[int(rng.integers(n))]
            continue
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centroids[c] = chunks[idx]
        d2 = np.minimum(d2, ((chunks - centroids[c]) ** 2).sum(axis=1))
    return centroids


def reconstruction_error(codebook: Codebook, features) -> float:
    """Mean squared reconstruction error over a feature matrix.

    Each chunk reconstructs to its nearest centroid, so its error is its
    smallest squared distance to a centroid.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != codebook.d:
        raise ValueError(f"features must be an (n, {codebook.d}) matrix")
    chunks = features.reshape(-1, codebook.d_z)
    d2 = ((chunks[:, None, :] - codebook.entries[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum()) / features.shape[0]
