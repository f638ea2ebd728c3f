"""Spans around the calls into cfarkit's modules, kept in memory.

:func:`instrument` replaces each public function (and the few public
methods other modules call) by a wrapper that records a span: name, start,
end, parent span and workload.  The package source is not modified; the
wrappers are installed in every module namespace that refers to the
function, so calls across module boundaries are seen.  The detector
module's own namespace is left alone: ``slide`` calls ``window_at``,
``clutter_statistic`` and ``decide`` once per range cell, and spans there
would cost more than the work they time.

:meth:`Recorder.dump` writes all spans to one JSON file when the traced
process ends; :func:`summarise` computes each layer's self time from it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("stats", "detector", "analytic", "simulation", "config", "cli")

# (module, class, method) pairs called across module boundaries
_METHODS = (
    ("stats", "RandomStream", "generator"),
    ("stats", "RandomStream", "substream"),
    ("detector", "DetectorSpec", "stream_key"),
    ("config", "RunConfig", "from_file"),
    ("config", "RunConfig", "from_text"),
    ("config", "DetectorRequest", "to_stat"),
)


class Recorder:
    """Collects spans of one traced process in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span named ``name`` around every call.

        ``attrs(bound_arguments)`` may return extra fields for the span,
        such as the number of trials the call simulates.
        """
        signature = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "start": time.perf_counter(),
                "end": None,
            }
            if signature is not None:
                span.update(attrs(signature.bind(*args, **kwargs).arguments))
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": self.spans}, fh)


def _trials_estimate(arguments) -> dict:
    return {"trials": int(arguments["runs"])}


def _trials_regulation(arguments) -> dict:
    reg = arguments["reg"]
    counts = reg.affected_counts
    points = len(counts) if counts is not None else arguments["spec"].window_length + 1
    return {"trials": int(reg.runs) * points}


_ATTRS = {
    "simulation.estimate_pd": _trials_estimate,
    "simulation.calibrate_threshold_mc": _trials_estimate,
    "simulation.pfa_regulation_curve": _trials_regulation,
}


def instrument(recorder: Recorder) -> None:
    """Install span wrappers on cfarkit's public functions and methods."""
    package = importlib.import_module("cfarkit")
    modules = {layer: importlib.import_module(f"cfarkit.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = recorder.wrap(name, fn, _ATTRS.get(name))
            for ns in namespaces:
                if ns is modules["detector"]:
                    continue
                if ns.__dict__.get(attr) is fn:
                    setattr(ns, attr, wrapped)
    # a method or pool a later version no longer has is simply not traced
    for layer, cls_name, method in _METHODS:
        raw = getattr(modules[layer], cls_name, object).__dict__.get(method)
        if raw is None:
            continue
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{method}"
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(cls, method, recorder.wrap(name, raw))

    simulation = modules["simulation"]
    pool_cls = getattr(simulation, "ProcessPoolExecutor", None)
    if pool_cls is not None:

        class CountedPool(pool_cls):
            __init__ = recorder.wrap("simulation.pool_start", pool_cls.__init__)

        simulation.ProcessPoolExecutor = CountedPool


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def summarise(spans: list[dict]) -> dict:
    """Per-layer self time, calls into the layer, and simulated trials.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.  A call into
    a layer is a span whose parent is absent or in another layer.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {layer: {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0, "trials": 0} for layer in LAYERS}
    for s in spans:
        layer = layer_of(s)
        if layer not in out:
            continue
        duration = s["end"] - s["start"]
        out[layer]["self_s"] += duration - child_time[s["id"]]
        out[layer]["trials"] += s.get("trials", 0)
        parent = by_id.get(s["parent"])
        if parent is None or layer_of(parent) != layer:
            out[layer]["calls"] += 1
            out[layer]["inclusive_s"] += duration
    return out


def count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
