"""Output checks that use neither the sampler nor a stored copy of its output.

Each check tests a property the method must have, computed independently:
instruction recall from re-extracted geometry, graph frequencies against the
bundle's own multiplicities, histograms against the bundle's histograms
within a sampling-error bound, and the edit contracts bit for bit. A failed
check raises CheckFailed with a message naming what broke.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from scenediff import evaluation, scene_io

# c04 and c05 thresholds of the acceptance suite.
TV_BOUND = 0.05
IRECALL_FLOOR = 0.95
# Histogram bins may differ from the bundle's by this many binomial
# standard errors; with about ten bins a working sampler passes with a
# false-alarm rate below 1e-5 per run.
HIST_SIGMAS = 5.0


class CheckFailed(Exception):
    """An output broke a property the method guarantees."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_objects(scenes, library) -> None:
    """Every object names a library asset of its category and feature, and
    its yaw is finite. ObjectInstance wraps the yaw into [-pi, pi), so its
    (cos, sin) pair has unit length by construction."""
    assets = {a.asset_id: a for a in library}
    for scene in scenes:
        for obj in scene.objects:
            asset = assets.get(obj.asset_id)
            require(asset is not None, f"{scene.id}: unknown asset {obj.asset_id!r}")
            require(asset.category == obj.category,
                    f"{scene.id}: asset {obj.asset_id} is not of category {obj.category}")
            require(np.array_equal(asset.feature, obj.feature),
                    f"{scene.id}: feature differs from asset {obj.asset_id}")
            require(math.isfinite(obj.rotation),
                    f"{scene.id}: rotation {obj.rotation!r} is not finite")


def same_object(a, b) -> bool:
    return (a.category == b.category and a.location == b.location and a.size == b.size
            and a.rotation == b.rotation and np.array_equal(a.feature, b.feature)
            and a.asset_id == b.asset_id)


def check_saved(path, scenes) -> None:
    """The written file reads back as the same scenes, bit for bit."""
    loaded = scene_io.load_scenes(path)
    require(len(loaded) == len(scenes), f"{path}: {len(loaded)} scenes read, {len(scenes)} written")
    for a, b in zip(loaded, scenes):
        require(a.id == b.id and a.n_objects == b.n_objects
                and all(same_object(x, y) for x, y in zip(a.objects, b.objects)),
                f"{path}: scene {b.id} does not read back unchanged")


def check_no_mask(graphs, config) -> None:
    """No label equals its kind's mask state (k + 1 for a k-label kind)."""
    for g in graphs:
        require(not (g.categories == config.k_c + 1).any()
                and not (g.codes == config.k_f + 1).any()
                and not (g.relations == config.k_e + 1).any(),
                "a sampled graph still holds a mask label")


def tv_to_bundle(counts: Counter, bundle) -> float:
    """Total variation between sampled graph-key counts and the frequencies
    of the bundle's graph keys; off-support samples count in full."""
    target = Counter(g.key() for g in bundle.graphs)
    n_target, n_sample = sum(target.values()), sum(counts.values())
    keys = set(target) | set(counts)
    return 0.5 * sum(abs(target[k] / n_target - counts[k] / n_sample) for k in keys)


def check_tv(counts: Counter, bundle) -> float:
    tv = tv_to_bundle(counts, bundle)
    require(tv <= TV_BOUND, f"TV {tv:.4f} to the bundle's graph frequencies exceeds {TV_BOUND}")
    return tv


def check_histogram(name: str, sampled: Counter, reference: Counter) -> None:
    """Each bin's sampled share lies within HIST_SIGMAS binomial standard
    errors of the reference share; bins absent from the reference must stay
    empty."""
    n, n_ref = sum(sampled.values()), sum(reference.values())
    for key in set(sampled) | set(reference):
        p = reference[key] / n_ref
        q = sampled[key] / n
        err = math.sqrt(p * (1.0 - p) / n)
        require(abs(q - p) <= HIST_SIGMAS * err,
                f"{name} bin {key}: sampled share {q:.4f} vs bundle {p:.4f} "
                f"(allowed {HIST_SIGMAS} x {err:.4f})")


def object_count_histogram(scenes) -> Counter:
    return Counter(s.n_objects for s in scenes)


def category_histogram(scenes) -> Counter:
    return Counter(o.category for s in scenes for o in s.objects)


def irecall_hits(scenes, instruction, bundle) -> int:
    """Number of scenes whose re-derived geometry realizes the instruction."""
    hits = evaluation.irecall(scenes, instruction, bundle.config, bundle.codebook)
    return round(hits * len(scenes))


def check_recall_floor(hits: dict, totals: dict) -> float:
    worst = min(hits[i] / totals[i] for i in totals)
    require(worst >= IRECALL_FLOOR, f"iRecall {worst:.3f} below {IRECALL_FLOOR}")
    return worst


def check_complete(partial, out) -> None:
    """The partial scene's objects come back bit-identical, first, in order."""
    n0 = partial.n_objects
    require(out.n_objects >= n0, f"complete dropped objects: {out.n_objects} < {n0}")
    require(all(same_object(out.objects[j], partial.objects[j]) for j in range(n0)),
            "complete changed an object of the partial scene")


def check_rearrange(scene, out) -> None:
    """Same objects (category, size, asset, feature) in the same order."""
    require(out.n_objects == scene.n_objects, "rearrange changed the object count")
    require(all(o.category == s.category and o.size == s.size and o.asset_id == s.asset_id
                and np.array_equal(o.feature, s.feature)
                for o, s in zip(out.objects, scene.objects)),
            "rearrange changed an object's identity or size")


def check_stylize(scene, out, style, bundle) -> None:
    """Geometry bit-identical, and the re-encoded features meet the style."""
    require(out.n_objects == scene.n_objects, "stylize changed the object count")
    require(all(o.category == s.category and o.location == s.location and o.size == s.size
                and o.rotation == s.rotation
                for o, s in zip(out.objects, scene.objects)),
            "stylize moved or resized an object")
    rate = evaluation.style_match_rate([out], style, bundle.config, bundle.codebook)
    require(rate == 1.0, f"stylize result does not meet the style (match rate {rate})")
