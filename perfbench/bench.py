"""One run of one benchmark workload, in a process of its own.

run.py starts this file with BLAS/OpenMP pinned to one thread and ``src`` on
the import path; run it through run.py, not directly. The run builds its
dataset bundle, sets up (loads the bundle from disk, builds the pipeline),
runs one warm-up operation, then runs whole rounds of operations in a closed
loop (each starts when the previous one ends) until the timed operations
have taken ``--seconds``. Every output is checked, and further set-ups are
timed, between operations and off their clock. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from scenediff import datagen, graph_diffusion, pipeline, scene_io
from scenediff.config import SceneConfig
from scenediff.instructions import StyleConstraint
from scenediff.scene import Scene

import checks
import tracing

WORK_DIR = Path(__file__).resolve().parent / ".work"

# The CLI's random family (scenediff make-dataset --family random).
RANDOM_CONFIG = SceneConfig(
    category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
    k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"),
)
# generate_dataset's codebook fit fails for some seeds (see CHANGES.md);
# seed 1 succeeds at 1000 scenes and gives 958 distinct graphs.
RANDOM_BUNDLE_SEED = 1
RANDOM_BUNDLE_SCENES = 1000
TOY_SCENES = sum(count for *_, count in datagen.TOY_VARIANTS)


class Workload:
    """A bundle, sampler settings, and the round of operations a run repeats."""

    name = ""
    gen = pipeline.GenerationConfig()
    setups_per_op = 1

    def make_bundle(self):
        return datagen.toy_support(seed=0)

    def round(self, inputs: np.random.Generator) -> list[tuple]:
        raise NotImplementedError

    def run(self, pipe, op: tuple, rng: np.random.Generator, out_path: Path) -> list:
        """Perform one operation; returns its items."""
        raise NotImplementedError

    def check(self, bundle, op: tuple, items: list, out_path: Path) -> None:
        raise NotImplementedError

    def finish(self, bundle) -> dict:
        """Checks over everything the run produced; returns figures to print."""
        return {}


class GenerateToy(Workload):
    name = "generate-toy"
    gen = pipeline.GenerationConfig(graph_steps=100, layout_steps=100)
    setups_per_op = 8
    # Criterion c05's batch: 200 scenes per instruction.
    batch = 200

    def __init__(self):
        self.hits: Counter = Counter()
        self.totals: Counter = Counter()
        self.next = None

    def round(self, inputs):
        # One instruction per round, so that a run ends on a whole round of
        # about 1.5 s; successive rounds cycle through the ten instructions
        # from a seeded start.
        if self.next is None:
            self.next = int(inputs.integers(10))
        op = ("generate", self.next)
        self.next = (self.next + 1) % 10
        return [op]

    def run(self, pipe, op, rng, out_path):
        scenes = pipe.generate(pipe.bundle.instructions[op[1]], rng=rng, n=self.batch)
        scene_io.save_scenes(scenes, out_path)
        return scenes

    def check(self, bundle, op, items, out_path):
        checks.require(len(items) == self.batch, "generate returned the wrong batch size")
        checks.check_objects(items, bundle.library)
        checks.check_saved(out_path, items)
        self.hits[op[1]] += checks.irecall_hits(items, bundle.instructions[op[1]], bundle)
        self.totals[op[1]] += len(items)

    def finish(self, bundle):
        return {"min_irecall": checks.check_recall_floor(self.hits, self.totals)}


class PriorToy(Workload):
    name = "prior-toy"
    gen = pipeline.GenerationConfig(graph_steps=100, layout_steps=100)
    setups_per_op = 4
    chains = 2000

    def __init__(self):
        self.counts: Counter = Counter()

    def round(self, inputs):
        return [("prior",)]

    def run(self, pipe, op, rng, out_path):
        return graph_diffusion.reverse_sample_batch(
            pipe.graph_denoiser, pipe.graph_schedule, self.chains, rng)

    def check(self, bundle, op, items, out_path):
        checks.require(len(items) == self.chains, "wrong number of chains returned")
        checks.check_no_mask(items, bundle.config)
        self.counts.update(g.key() for g in items)

    def finish(self, bundle):
        return {"tv": checks.check_tv(self.counts, bundle),
                "samples": sum(self.counts.values())}


class PriorRandom(Workload):
    name = "prior-random"
    gen = pipeline.GenerationConfig(graph_steps=100, layout_steps=100, kernel="uniform")
    setups_per_op = 2
    chains = 100

    def __init__(self):
        self.n_objects: Counter = Counter()
        self.categories: Counter = Counter()

    def make_bundle(self):
        return datagen.generate_dataset(RANDOM_CONFIG, RANDOM_BUNDLE_SCENES,
                                        seed=RANDOM_BUNDLE_SEED)

    def round(self, inputs):
        return [("uncond",)]

    def run(self, pipe, op, rng, out_path):
        scenes = pipe.unconditional(rng=rng, n=self.chains)
        scene_io.save_scenes(scenes, out_path)
        return scenes

    def check(self, bundle, op, items, out_path):
        checks.require(len(items) == self.chains, "unconditional returned the wrong batch size")
        checks.check_objects(items, bundle.library)
        checks.check_saved(out_path, items)
        self.n_objects.update(checks.object_count_histogram(items))
        self.categories.update(checks.category_histogram(items))

    def finish(self, bundle):
        checks.check_histogram("object count", self.n_objects,
                               checks.object_count_histogram(bundle.scenes))
        checks.check_histogram("category", self.categories,
                               checks.category_histogram(bundle.scenes))
        return {"samples": sum(self.n_objects.values())}


class EditToy(Workload):
    name = "edit-toy"
    gen = pipeline.GenerationConfig(graph_steps=100, layout_steps=100)

    def round(self, inputs):
        # The seed picks the scenes; the shapes (kept prefix of 1 or 2 of the
        # 3 objects, style) are fixed so that every round costs the same.
        ops = []
        for n_kept, style in ((1, "oak"), (2, "walnut-chair")):
            i, j, k = (int(v) for v in inputs.integers(TOY_SCENES, size=3))
            ops += [("complete", i, n_kept), ("rearrange", j), ("stylize", k, style)]
        return ops

    @staticmethod
    def style(bundle, name):
        if name == "oak":
            return StyleConstraint(codes=bundle.config.style_signature("oak"))
        return StyleConstraint(codes=bundle.config.style_signature("walnut"),
                               category=bundle.config.category_index("chair"))

    @staticmethod
    def source(bundle, op):
        scene = bundle.scenes[op[1]]
        if op[0] == "complete":
            return Scene(id=scene.id, objects=scene.objects[:op[2]])
        return scene

    def run(self, pipe, op, rng, out_path):
        scene = self.source(pipe.bundle, op)
        if op[0] == "complete":
            return [pipe.complete(scene, rng=rng)]
        if op[0] == "rearrange":
            return [pipe.rearrange(scene, rng=rng)]
        return [pipe.stylize(scene, self.style(pipe.bundle, op[2]), rng=rng)]

    def check(self, bundle, op, items, out_path):
        scene, (out,) = self.source(bundle, op), items
        if op[0] == "complete":
            checks.check_complete(scene, out)
        elif op[0] == "rearrange":
            checks.check_rearrange(scene, out)
        else:
            checks.check_stylize(scene, out, self.style(bundle, op[2]), bundle)
        checks.check_objects(items, bundle.library)


WORKLOADS = {w.name: w for w in (GenerateToy, PriorToy, PriorRandom, EditToy)}


def set_up(workload, bundle_dir: Path, tracer):
    """One timed set-up: load the bundle from disk and build the pipeline."""
    if tracer:
        tracer.phase = tracing.SETUP
    t0 = time.perf_counter()
    try:
        pipe = pipeline.ScenePipeline(scene_io.load_bundle(bundle_dir), workload.gen)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.phase = None
    return pipe, elapsed


def measure(workload, bundle_dir: Path, seconds: float, seed: int, out_path: Path,
            tracer) -> dict:
    """Set up, warm up, then run whole rounds until the timed operations
    reach ``seconds``.

    Outputs are checked between operations, off the clock. Set-ups repeat
    between operations too, off the operations' clock: this machine's speed
    swings within a second, so set-ups spread over the run give a median
    that repeats from run to run where back-to-back ones do not.
    """
    pipe, first = set_up(workload, bundle_dir, tracer)
    setup_times = [first]
    if tracer:
        tracer.instrument_pipeline(pipe)
    inputs = np.random.default_rng([seed, 0])
    rng = np.random.default_rng([seed, 1])
    bundle = pipe.bundle
    warm = workload.round(inputs)[0]
    if tracer:
        tracer.phase = tracing.WARM
    items = workload.run(pipe, warm, rng, out_path)
    if tracer:
        tracer.phase = None
    workload.check(bundle, warm, items, out_path)

    busy, items, attempted, failed = 0.0, 0, 0, 0
    op_times: dict[str, list[float]] = {}
    while busy < seconds:
        for op in workload.round(inputs):
            attempted += 1
            if tracer:
                tracer.phase = tracing.OPS
            t0 = time.perf_counter()
            try:
                out = workload.run(pipe, op, rng, out_path)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            finally:
                op_times.setdefault(op[0], []).append(time.perf_counter() - t0)
                busy += op_times[op[0]][-1]
                if tracer:
                    tracer.phase = None
                    tracer.end_op()
            items += len(out)
            workload.check(bundle, op, out, out_path)
            for _ in range(workload.setups_per_op):
                setup_times.append(set_up(workload, bundle_dir, tracer)[1])
    figures = workload.finish(bundle)
    return {"busy_s": busy, "items": items, "attempted": attempted, "failed": failed,
            "setup_s": statistics.median(setup_times), "setups": len(setup_times),
            "figures": figures, "op_times": op_times}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        bundle_dir = work / "bundle"
        scene_io.save_bundle(workload.make_bundle(), bundle_dir)
        with tracer.instrumented() if tracer else contextlib.nullcontext():
            try:
                run = measure(workload, bundle_dir, args.seconds, args.seed,
                              work / "scenes.json", tracer)
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                run = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    if run is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    items_per_s = run["items"] / run["busy_s"]
    if tracer:
        _print_trace_figures(tracer, run, items_per_s)
        layer = tracer.per_layer(run["items"])
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        print(f"# {workload.name} seed {args.seed}: {run['items']} items in "
              f"{run['busy_s']:.3f} s over {run['attempted']} operations, "
              f"{run['setups']} set-ups; "
              f"checks {json.dumps(run['figures'])}")
        print("# operations (count, median ms): " + json.dumps(
            {k: [len(v), round(1e3 * statistics.median(v), 2)] for k, v in run["op_times"].items()}))
        metrics = {
            "setup_s": {"value": run["setup_s"], "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": True, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def _print_trace_figures(tracer, run, items_per_s: float) -> None:
    """Figures the README quotes: tracing cost and what a cache could reuse."""
    ops = run["attempted"] - run["failed"]
    keys = tracer.match_keys_per_op
    print(f"# traced items_per_s {items_per_s:.4f} over {run['items']} items, "
          f"{tracer.n_spans()} spans")
    print(f"# per operation: chain-steps {tracer.chain_steps / ops:.1f}, "
          f"layout-match calls {tracer.match_calls / ops:.1f}, distinct match keys "
          f"{statistics.mean(keys) if keys else 0.0:.2f}")


if __name__ == "__main__":
    sys.exit(main())
