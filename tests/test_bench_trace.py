"""The benchmark's traced run still finds every name it patches.

perfbench/tracing.py wraps named functions and denoiser methods of scenediff
(see its SPAN_METRIC table); a rename or a deletion of one of them breaks
``perfbench/run.py --trace 1``. This drives a toy pipeline through the
tracer the way the traced run does, without changing anything in perfbench.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from scenediff import pipeline
from scenediff.graph import SemanticGraph
from scenediff.scene import Scene

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_run_reports_every_per_layer_metric(toy, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import tracing

    tracer = tracing.Tracer()
    with tracer.instrumented():
        gen = pipeline.GenerationConfig(graph_steps=5, layout_steps=5)
        pipe = pipeline.ScenePipeline(toy, gen)
        tracer.instrument_pipeline(pipe)
        rng = np.random.default_rng(0)
        partial = Scene(id="partial", objects=toy.scenes[0].objects[:2])
        # Toy keys hold one distinct layout each, so their chains do not
        # step; a graph with an unseen relation falls back to the category
        # multiset, whose candidates differ, and steps.
        g = toy.graphs[0]
        rels = np.array(g.relations)
        rels[0] ^= 1
        unseen = SemanticGraph(g.categories, g.codes, rels, k_c=g.k_c, k_f=g.k_f, k_e=g.k_e)
        tracer.phase = tracing.OPS
        try:
            pipe.generate(toy.instructions[0], rng=rng, n=2)
            pipe.complete(partial, rng=rng)
            pipeline.reverse_sample_layout(pipe.layout_denoiser, unseen, pipe.layout_schedule, rng)
        finally:
            tracer.phase = None
    per_layer = tracer.per_layer(items=3)
    assert list(per_layer) == list(tracing.PER_LAYER_UNITS)
    assert len(per_layer) == 15
    for metric in ("graph_diffusion.reverse_step_s", "graph_diffusion.predict_s",
                   "graph_diffusion.likelihood_s", "graph_diffusion.filter_s",
                   "graph.derive_s", "layout_diffusion.predict_s",
                   "layout_diffusion.sample_s", "pipeline.retrieve_s"):
        assert per_layer[metric] > 0.0, metric
