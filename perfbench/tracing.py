"""Spans around calls into scenediff, recorded from outside the package.

The traced run wraps the public functions and methods each layer exposes,
patched at the name the caller looks up (``scenediff.pipeline.reverse_sample``
for the pipeline's call, an instance attribute for a denoiser method). Each
span keeps its name, start, end and parent in compact arrays until the run
ends; self time is a span's duration minus the time its direct children
cover. Counters (calls to ``Codebook.encode``, chain-steps, layout-match
keys) are kept at the same boundaries. The tracemalloc peak of
``log_likelihood`` is taken during the warm-up operation, which has the
timed operations' shapes, because tracemalloc doubles the time of a small
call and would distort the timed spans.

Nothing here changes what the wrapped code computes or draws from its RNG.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc
from array import array

import numpy as np

from scenediff import graph_diffusion, pipeline, quantizer, scene_io

# Tracer phases: spans are kept in SETUP and OPS; WARM only takes the
# tracemalloc peak.
SETUP, OPS, WARM = 1, 2, 3

# Span name -> per-layer metric whose time it adds to. A metric sums the
# self times of its spans, so nested spans of one metric (reverse_sample
# calling reverse_sample_batch) are not counted twice.
SPAN_METRIC = {
    "reverse_sample": "graph_diffusion.reverse_step_s",
    "reverse_sample_batch": "graph_diffusion.reverse_step_s",
    "predict_arrays": "graph_diffusion.predict_s",
    "log_likelihood": "graph_diffusion.likelihood_s",
    "filter_vector": "graph_diffusion.filter_s",
    "frozen_value_filter": "graph_diffusion.filter_s",
    "combine_filters": "graph_diffusion.filter_s",
    "derive_semantic_graph": "graph.derive_s",
    "pad_graph": "graph.derive_s",
    "FrozenGraph.from_graph": "graph.derive_s",
    "ExactEpsDenoiser.predict": "layout_diffusion.predict_s",
    "matching_layouts": "layout_diffusion.match_s",
    "reverse_sample_layout": "layout_diffusion.sample_s",
    "retrieve_object": "pipeline.retrieve_s",
    "save_scenes": "scene_io.save_s",
}
SETUP_SPAN_METRIC = {
    "load_bundle": "scene_io.load_s",
    "ScenePipeline": "pipeline.build_s",
}

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "scene_io.load_s": "s",
    "pipeline.build_s": "s",
    "graph_diffusion.reverse_step_s": "s",
    "graph_diffusion.predict_s": "s",
    "graph_diffusion.likelihood_s": "s",
    "graph_diffusion.likelihood_peak_mb": "MB",
    "graph_diffusion.filter_s": "s",
    "graph.derive_s": "s",
    "layout_diffusion.predict_s": "s",
    "layout_diffusion.match_s": "s",
    "layout_diffusion.sample_s": "s",
    "layout_diffusion.predict_calls": "count",
    "pipeline.retrieve_s": "s",
    "quantizer.encode_calls": "count",
    "scene_io.save_s": "s",
}


class Tracer:
    """In-memory span recorder; records only while ``phase`` is set."""

    def __init__(self):
        self.phase = None
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._phase = array("b")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.encode_calls = 0
        self.likelihood_peak_bytes = 0
        self.chain_steps = 0
        self._op_match_keys: set[bytes] = set()
        self.match_keys_per_op: list[int] = []
        self.match_calls = 0

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return idx

    def wrap(self, name: str, fn, before=None):
        """Wrap ``fn`` in a span; ``before(args)`` sees the arguments of
        calls made during the timed operations."""
        name_id = self._name_id(name)
        observe_id = self._name_id("trace.observe")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if phase not in (SETUP, OPS):
                return fn(*args, **kwargs)
            if before is not None and phase == OPS:
                # A span of its own, so the observer's cost is no layer's self time.
                idx = self._open(observe_id, phase)
                try:
                    before(args)
                finally:
                    self._close(idx)
            idx = self._open(name_id, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _open(self, name_id: int, phase: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._phase.append(phase)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def count_encode(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.phase == OPS:
                self.encode_calls += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_likelihood(self, fn):
        """Span, plus the tracemalloc peak of each call in the warm-up."""

        def measured(*args, **kwargs):
            if self.phase != WARM or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.likelihood_peak_bytes = max(self.likelihood_peak_bytes, peak)

        return self.wrap("log_likelihood", functools.wraps(fn)(measured))

    def _see_chain_states(self, args):
        self.chain_steps += args[0].shape[0]

    def _see_match_key(self, args):
        self.match_calls += 1
        self._op_match_keys.add(args[0].key())

    def end_op(self):
        self.match_keys_per_op.append(len(self._op_match_keys))
        self._op_match_keys = set()

    def instrument_pipeline(self, pipe) -> None:
        """Patch the methods the sampler looks up on the pipe's denoisers."""
        gd, ld = pipe.graph_denoiser, pipe.layout_denoiser
        gd.predict_arrays = self.wrap("predict_arrays", gd.predict_arrays,
                                      before=self._see_chain_states)
        gd.log_likelihood = self.wrap_likelihood(gd.log_likelihood)
        for name in ("filter_vector", "frozen_value_filter", "combine_filters"):
            setattr(gd, name, self.wrap(name, getattr(gd, name)))
        ld.predict = self.wrap("ExactEpsDenoiser.predict", ld.predict)
        ld.matching_layouts = self.wrap("matching_layouts", ld.matching_layouts,
                                        before=self._see_match_key)

    @contextlib.contextmanager
    def instrumented(self):
        """Patch module-level names and class attributes; restore on exit."""
        targets = [
            (scene_io, "load_bundle", self.wrap("load_bundle", scene_io.load_bundle)),
            (scene_io, "save_scenes", self.wrap("save_scenes", scene_io.save_scenes)),
            (pipeline, "ScenePipeline", self.wrap("ScenePipeline", pipeline.ScenePipeline)),
            (graph_diffusion, "reverse_sample_batch",
             self.wrap("reverse_sample_batch", graph_diffusion.reverse_sample_batch)),
            (graph_diffusion.FrozenGraph, "from_graph", classmethod(self.wrap(
                "FrozenGraph.from_graph",
                graph_diffusion.FrozenGraph.__dict__["from_graph"].__func__))),
            (quantizer.Codebook, "encode", self.count_encode(quantizer.Codebook.encode)),
        ]
        for name in ("reverse_sample", "reverse_sample_batch", "reverse_sample_layout",
                     "retrieve_object", "derive_semantic_graph", "pad_graph"):
            targets.append((pipeline, name, self.wrap(name, getattr(pipeline, name))))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, new in targets:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def _self_times(self):
        start = np.frombuffer(self._start, dtype=np.float64)
        dur = np.frombuffer(self._end, dtype=np.float64) - start
        parent = np.frombuffer(self._parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.shape[0])
        return dur, dur - child_time

    def n_spans(self) -> int:
        return len(self._start)

    def per_layer(self, items: int) -> dict[str, float]:
        """Per-layer metrics: set-up spans as medians over set-ups, timed
        spans as self seconds per item, counts per item."""
        dur, self_time = self._self_times()
        names = np.frombuffer(self._name, dtype=np.int32)
        phases = np.frombuffer(self._phase, dtype=np.int8)
        out = {metric: 0.0 for metric in PER_LAYER_UNITS}
        for name, metric in SETUP_SPAN_METRIC.items():
            sel = (names == self._name_ids.get(name, -1)) & (phases == SETUP)
            if sel.any():
                out[metric] = statistics.median(dur[sel].tolist())
        for name, metric in SPAN_METRIC.items():
            sel = (names == self._name_ids.get(name, -1)) & (phases == OPS)
            out[metric] += float(self_time[sel].sum()) / items
        predict = (names == self._name_ids.get("ExactEpsDenoiser.predict", -1)) & (phases == OPS)
        out["layout_diffusion.predict_calls"] = int(predict.sum()) / items
        out["quantizer.encode_calls"] = self.encode_calls / items
        out["graph_diffusion.likelihood_peak_mb"] = self.likelihood_peak_bytes / 2**20
        return out
