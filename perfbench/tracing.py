"""Spans around the coocrefine layers, recorded from outside the program.

``traced(tracer)`` replaces every public function of the layer modules
(data, prior, gcn, loss, train, metrics) where ``coocrefine.cli`` and
``coocrefine.train`` import or define it, plus the CLI's own ``cmd_*``
stages, with a wrapper that records one span per call. It restores the
originals on exit. Spans stay in memory; the caller writes them out when
its run ends.

``layer_metrics`` turns the spans of one traced pipeline into the
per-layer numbers. A metric whose wrapped names a later version of the
program no longer has is left out (reported absent), never an error.

``span_cost`` calibrates what the wrapper adds to one call, so that a
traced pipeline's overhead is its span count times that cost plus the time
its annotations took; no untraced twin has to run beside it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("data", "prior", "gcn", "loss", "train", "metrics")

# name -> unit of every per-layer metric, in report order
UNITS = {
    "data.load_labels_s": "s",
    "data.load_logits_s": "s",
    "data.parse_mb_per_s": "MB/s",
    "data.write_logits_s": "s",
    "prior.cooccurrence_s": "s",
    "prior.conditional_prob_s": "s",
    "gcn.step_forward_ms_p50": "ms",
    "gcn.step_forward_ms_p90": "ms",
    "gcn.step_backward_ms_p50": "ms",
    "gcn.step_backward_ms_p90": "ms",
    "gcn.bulk_forward_s": "s",
    "gcn.bulk_forward_calls": "count",
    "gcn.model_io_s": "s",
    "gcn.step_mflop": "MFLOP",
    "gcn.bulk_cache_mb": "MB",
    "loss.rasl_loss_ms_p50": "ms",
    "loss.rasl_grad_ms_p50": "ms",
    "loss.grad_zero_frac": "ratio",
    "train.step_ms_p50": "ms",
    "train.step_ms_p90": "ms",
    "train.sgd_step_ms_p50": "ms",
    "train.loop_self_s": "s",
    "train.steps": "count",
    "metrics.per_class_ap_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.delta_ap_s": "s",
    "cli.prior_self_s": "s",
    "cli.train_self_s": "s",
    "cli.eval_self_s": "s",
    "cli.analyze_self_s": "s",
    "trace.overhead_s": "s",
}

# Exact numbers: the run checks that they repeat across traced pipelines and
# across runs of the same workload and seed. "computed" ones come from
# array shapes and the dense algorithm's operation count, "counted" ones
# from calls and array elements seen at run time.
EXACT = {
    "train.steps": "counted",
    "gcn.bulk_forward_calls": "counted",
    "loss.grad_zero_frac": "counted",
    "gcn.step_mflop": "computed",
    "gcn.bulk_cache_mb": "computed",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _forward_shape(span, args, result):
    model, _, h0 = args[:3]
    span.attrs["rows"], span.attrs["classes"] = np.shape(h0)
    span.attrs["dims"] = list(model.layer_dims)


def _zero_count(span, args, result):
    span.attrs["zeros"] = int(np.count_nonzero(result == 0))
    span.attrs["size"] = int(np.size(result))


# Facts a metric needs from a call's arguments or result. A signature a later
# version changed leaves the span without them and the metric absent.
ANNOTATE = {
    "data.load_labels": _file_bytes,
    "data.load_logits": _file_bytes,
    "gcn.gcn_forward": _forward_shape,
    "loss.rasl_grad": _zero_count,
}


class Tracer:
    """In-memory span recorder; ``run`` tags the spans of one pipeline."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.annotate_s = defaultdict(float)     # run -> seconds spent in ANNOTATE
        self._open: list[Span] = []

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, parent, self.run, time.perf_counter())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                start = time.perf_counter()
                try:
                    annotate(span, args, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    pass
                self.annotate_s[self.run] += time.perf_counter() - start
            return result

        return wrapper

    def rows(self):
        return [[s.id, s.name, s.parent, s.run, s.start, s.end, s.attrs] for s in self.spans]


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds the wrapper adds to one call: a wrapped no-op minus a bare one,
    per call, median over ``repeats`` batches of ``calls``."""
    def noop():
        return None

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        costs.append(per_call(wrapped) - per_call(noop))
    return statistics.median(costs)


def _targets():
    """(module, attribute, span name) of every function the tracer wraps."""
    # by module name: the package re-exports the function ``train`` under the
    # name of its module
    for site in map(importlib.import_module, ("coocrefine.cli", "coocrefine.train")):
        for attr, obj in vars(site).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer == "cli" and attr.startswith("cmd_"):
                yield site, attr, "cli." + attr[len("cmd_"):]
            elif layer in LAYERS:
                yield site, attr, f"{layer}.{attr}"


@contextmanager
def traced(tracer: Tracer):
    patched = []
    try:
        for site, attr, name in list(_targets()):
            original = getattr(site, attr)
            setattr(site, attr, tracer.wrap(name, original))
            patched.append((site, attr, original))
        yield tracer
    finally:
        for site, attr, original in reversed(patched):
            setattr(site, attr, original)


def _dense_mflop(rows: int, n: int, dims) -> float:
    """Multiply-adds x2 of one forward+backward of the dense head, per the
    shapes: per layer P@H and (PH)@W forward; dW, g@W^T and P^T@g backward."""
    flop = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        flop += 2 * rows * n * n * d_in * 2       # P @ H, P^T @ g
        flop += 2 * rows * n * d_in * d_out * 3   # (PH) @ W, dW, g @ W^T
    return flop / 1e6


def _cache_mb(rows: int, n: int, dims) -> float:
    """Bytes of the forward cache: P@H and the pre-activation per layer."""
    return sum(8 * rows * n * (d_in + d_out) for d_in, d_out in zip(dims[:-1], dims[1:])) / 1e6


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pipeline (metrics without spans are left out)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)
    out: dict[str, float] = {}

    def total(key, *names):
        found = [s for name in names for s in by_name[name]]
        if found:
            out[key] = sum(s.seconds for s in found)

    def percentiles(key, found, qs=(50, 90)):
        if found:
            values = [s.seconds * 1e3 for s in found]
            for q in qs:
                out[f"{key}_p{q}"] = float(np.percentile(values, q))

    def self_time(span):
        return span.seconds - sum(c.seconds for c in children[span.id])

    total("data.load_labels_s", "data.load_labels")
    total("data.load_logits_s", "data.load_logits")
    loads = by_name["data.load_labels"] + by_name["data.load_logits"]
    if loads and all("bytes" in s.attrs for s in loads):
        out["data.parse_mb_per_s"] = sum(s.attrs["bytes"] for s in loads) / 1e6 / sum(s.seconds for s in loads)
    total("data.write_logits_s", "data.write_logits")
    total("prior.cooccurrence_s", "prior.cooccurrence")
    total("prior.conditional_prob_s", "prior.conditional_prob")

    # A training step runs from its forward to the end of the next SGD update;
    # a forward inside train() counts as a step when a backward follows it
    # before the next forward. Every other forward is a whole-set forward.
    steps = []                      # [forward span, update span or None]
    for run_span in by_name["train.train"]:
        forward = None
        for span in children[run_span.id]:
            if span.name == "gcn.gcn_forward":
                forward = span
            elif span.name == "gcn.gcn_backward" and forward is not None:
                steps.append([forward, None])
                forward = None
            elif span.name == "train.sgd_step" and steps and steps[-1][1] is None:
                steps[-1][1] = span
    step_ids = {fwd.id for fwd, _ in steps}
    bulk = [s for s in by_name["gcn.gcn_forward"] if s.id not in step_ids]

    percentiles("gcn.step_forward_ms", [fwd for fwd, _ in steps])
    percentiles("gcn.step_backward_ms", by_name["gcn.gcn_backward"])
    if by_name["gcn.gcn_forward"]:
        out["gcn.bulk_forward_s"] = sum(s.seconds for s in bulk)
        out["gcn.bulk_forward_calls"] = float(len(bulk))
    total("gcn.model_io_s", "gcn.save_model", "gcn.load_model")
    shaped = [fwd for fwd, _ in steps if "dims" in fwd.attrs]
    if shaped:
        widest = max(shaped, key=lambda s: s.attrs["rows"])
        out["gcn.step_mflop"] = _dense_mflop(widest.attrs["rows"], widest.attrs["classes"], widest.attrs["dims"])
    if bulk and all("dims" in s.attrs for s in bulk):
        out["gcn.bulk_cache_mb"] = max(_cache_mb(s.attrs["rows"], s.attrs["classes"], s.attrs["dims"]) for s in bulk)

    percentiles("loss.rasl_loss_ms", by_name["loss.rasl_loss"], qs=(50,))
    percentiles("loss.rasl_grad_ms", by_name["loss.rasl_grad"], qs=(50,))
    grads = by_name["loss.rasl_grad"]
    if grads and all("zeros" in s.attrs for s in grads):
        out["loss.grad_zero_frac"] = sum(s.attrs["zeros"] for s in grads) / sum(s.attrs["size"] for s in grads)

    if steps and all(update is not None for _, update in steps):
        values = [(update.end - fwd.start) * 1e3 for fwd, update in steps]
        out["train.step_ms_p50"] = float(np.percentile(values, 50))
        out["train.step_ms_p90"] = float(np.percentile(values, 90))
    percentiles("train.sgd_step_ms", by_name["train.sgd_step"], qs=(50,))
    if by_name["train.train"]:
        out["train.loop_self_s"] = sum(self_time(s) for s in by_name["train.train"])
        out["train.steps"] = float(len(steps))

    total("metrics.per_class_ap_s", "metrics.per_class_average_precision")
    total("metrics.evaluate_s", "metrics.evaluate")
    total("metrics.delta_ap_s", "metrics.delta_ap_analysis")
    for stage in ("prior", "train", "eval", "analyze"):
        if by_name[f"cli.{stage}"]:
            out[f"cli.{stage}_self_s"] = sum(self_time(s) for s in by_name[f"cli.{stage}"])
    return out
