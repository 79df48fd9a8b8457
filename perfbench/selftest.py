"""Self-test of the benchmark's output checks.

Every check must pass on a real output and fail on a deliberately broken
copy of it: a moved object in a ``complete`` result, a mask label left in a
graph, a sample set with one variant's mass shifted, and so on. Run from the
root of a source checkout:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from scenediff import GenerationConfig, ScenePipeline, datagen, graph_diffusion, scene_io  # noqa: E402
from scenediff.graph import SemanticGraph  # noqa: E402
from scenediff.instructions import StyleConstraint  # noqa: E402
from scenediff.scene import Scene  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402


def replace_object(scene: Scene, index: int, **changes) -> Scene:
    objects = list(scene.objects)
    objects[index] = dataclasses.replace(objects[index], **changes)
    return Scene(id=scene.id, objects=tuple(objects))


def main() -> int:
    bundle = datagen.toy_support(seed=0)
    cfg = bundle.config
    pipe = ScenePipeline(bundle, GenerationConfig(graph_steps=20, layout_steps=10))
    rng = np.random.default_rng(0)
    chair, table = cfg.category_index("chair"), cfg.category_index("table")
    instruction = bundle.instructions[0]  # chair left of table
    scenes = pipe.generate(instruction, rng=rng, n=20)
    graphs = graph_diffusion.reverse_sample_batch(pipe.graph_denoiser, pipe.graph_schedule,
                                                  50, rng)
    walnut_chair = StyleConstraint(codes=cfg.style_signature("walnut"), category=chair)
    source = bundle.scenes[0]
    partial = Scene(id="partial", objects=source.objects[:2])
    completed = pipe.complete(partial, rng=rng)
    rearranged = pipe.rearrange(source, rng=rng)
    stylized = pipe.stylize(source, walnut_chair, rng=rng)
    other_category = next(a for a in bundle.library if a.category != scenes[0].objects[0].category)
    oak_feature = next(a for a in bundle.library
                       if a.category == chair and a.asset_id.endswith("-00")).feature
    chair_slot = next(i for i, o in enumerate(stylized.objects) if o.category == chair)
    table_slot = next(i for i, o in enumerate(scenes[0].objects) if o.category == table)
    table_xy = scenes[0].objects[table_slot].location

    def recall(batch):
        hits = checks.irecall_hits(batch, instruction, bundle)
        checks.check_recall_floor({0: hits}, {0: len(batch)})

    def saved(written, expected):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenes.json"
            scene_io.save_scenes(written, path)
            checks.check_saved(path, expected)

    def with_mask(g: SemanticGraph) -> SemanticGraph:
        cats = g.categories.copy()
        cats[0] = cfg.k_c + 1
        return SemanticGraph(cats, g.codes, g.relations, k_c=g.k_c, k_f=g.k_f, k_e=g.k_e)

    exact = Counter({k: 100 * c for k, c in Counter(g.key() for g in bundle.graphs).items()})
    shifted = exact.copy()
    heavy, light = exact.most_common()[0][0], exact.most_common()[-1][0]
    shifted[heavy] -= 150
    shifted[light] += 150
    # The random family has 2 to 4 objects per scene: a bootstrap sample of
    # its scenes must pass, one with 2-object scenes swapped for 4-object
    # ones must not.
    random_bundle = bench.PriorRandom().make_bundle()
    picks = rng.integers(random_bundle.n_scenes, size=400)
    sample = [random_bundle.scenes[i] for i in picks]
    fours = [s for s in random_bundle.scenes if s.n_objects == 4]
    tilted = [fours[i % len(fours)] if s.n_objects == 2 and i % 2 == 0 else s
              for i, s in enumerate(sample)]

    # (what, check on the real output, check on the broken output)
    cases = [
        ("asset of another category",
         lambda: checks.check_objects(scenes, bundle.library),
         lambda: checks.check_objects(
             [replace_object(scenes[0], 0, asset_id=other_category.asset_id)], bundle.library)),
        ("rotation not finite",
         lambda: checks.check_objects(scenes, bundle.library),
         lambda: checks.check_objects(
             [replace_object(scenes[0], 0, rotation=math.nan)], bundle.library)),
        ("saved file differs from the scenes",
         lambda: saved(scenes, scenes),
         lambda: saved(scenes, [replace_object(scenes[0], 0, size=(9.0, 9.0, 9.0))] + scenes[1:])),
        ("instruction not realized by geometry",
         lambda: recall(scenes),
         lambda: recall([replace_object(s, next(i for i, o in enumerate(s.objects)
                                                if o.category == chair),
                                        location=(table_xy[0] + 2.0, table_xy[1], 0.45))
                         for s in scenes])),
        ("mask label left in a graph",
         lambda: checks.check_no_mask(graphs, cfg),
         lambda: checks.check_no_mask(graphs[:-1] + [with_mask(graphs[-1])], cfg)),
        ("one variant's mass shifted",
         lambda: checks.check_tv(exact, bundle),
         lambda: checks.check_tv(shifted, bundle)),
        ("object-count histogram tilted",
         lambda: checks.check_histogram("object count", checks.object_count_histogram(sample),
                                        checks.object_count_histogram(random_bundle.scenes)),
         lambda: checks.check_histogram("object count", checks.object_count_histogram(tilted),
                                        checks.object_count_histogram(random_bundle.scenes))),
        ("complete moved a kept object",
         lambda: checks.check_complete(partial, completed),
         lambda: checks.check_complete(partial, replace_object(
             completed, 1, location=(0.5, 0.5, completed.objects[1].location[2])))),
        ("rearrange resized an object",
         lambda: checks.check_rearrange(source, rearranged),
         lambda: checks.check_rearrange(source, replace_object(rearranged, 0, size=(2.0, 2.0, 2.0)))),
        ("stylize missed the style",
         lambda: checks.check_stylize(source, stylized, walnut_chair, bundle),
         lambda: checks.check_stylize(source, replace_object(stylized, chair_slot,
                                                             feature=oak_feature),
                                      walnut_chair, bundle)),
        ("stylize moved an object",
         lambda: checks.check_stylize(source, stylized, walnut_chair, bundle),
         lambda: checks.check_stylize(source, replace_object(stylized, 0, rotation=1.0),
                                      walnut_chair, bundle)),
    ]
    bad = 0
    for what, real, broken in cases:
        try:
            real()
            real_ok = True
        except checks.CheckFailed as exc:
            real_ok, why = False, str(exc)
        try:
            broken()
            caught = False
        except checks.CheckFailed:
            caught = True
        ok = real_ok and caught
        bad += not ok
        detail = "" if real_ok else f" (real output rejected: {why})"
        print(f"{'ok  ' if ok else 'FAIL'} {what}: real output "
              f"{'passes' if real_ok else 'fails'}, broken output "
              f"{'caught' if caught else 'NOT caught'}{detail}")
    print(f"{len(cases) - bad}/{len(cases)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
