"""Span recording for the traced benchmark run.

The program under test carries no span clock of its own, so the traced run
wraps the public functions at each layer boundary from here: every call of a
wrapped function records one span (name, start, end, parent, request ids).
Spans stay in memory and are written out once, when the run ends.

Parents come from a context variable, which follows asyncio tasks and is
private to each thread.  Work handed to another thread (the service's flush
worker, the pool's worker threads) starts with no open span there, so it is
linked through the request objects the program passes along: a wrapped call
can *adopt* objects (the request's ``values`` array) under the open span, and
a later call on another thread that *links* one of those objects takes that
span as its parent and its request ids.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; children may run on other threads and overlap each
other, so the covered part is the length of the union of their intervals.
"""
from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rids", "size", "up")

    def __init__(self, sid, name, start, parent=None, rids=(), size=None):
        self.up = None               # the parent Span object, in-process only
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rids = tuple(rids)
        self.size = size

    def to_dict(self):
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rids": list(self.rids),
                "size": self.size}

    @classmethod
    def from_dict(cls, record):
        span = cls(record["sid"], record["name"], record["start"],
                   record["parent"], record["rids"], record.get("size"))
        span.end = record["end"]
        return span


class Recorder:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._owners = {}            # id(obj) -> (obj, Span) for cross-thread links
        self._lock = threading.Lock()
        self._patched = []           # (namespace, attribute, original)

    # -- span lifecycle ---------------------------------------------------
    def open(self, name, *, rids=None, link=(), size=None):
        """Open a span under the one open on this thread.  With none open,
        the parent is the first still-open span (or its nearest open
        ancestor) that adopted one of the ``link`` objects."""
        parent = self._current.get()
        linked = []
        if parent is None:
            with self._lock:
                for obj in link:
                    owner = self._owners.get(id(obj))
                    if owner is not None and owner[0] is obj:
                        linked.append(owner[1])
            parent = next(filter(None, map(_open_ancestor, linked)), None)
        if rids is None:
            if parent is not None:
                rids = parent.rids
            else:
                rids = tuple(dict.fromkeys(r for span in linked for r in span.rids))
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent is not None else None, rids, size)
        span.up = parent
        token = self._current.set(span)
        return span, token

    def close(self, span, token):
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    def record(self, name, start, end, *, parent=None, rids=()):
        """Add a span whose interval was measured elsewhere."""
        span = Span(next(self._ids), name, start, parent, rids)
        span.end = end
        self.spans.append(span)

    def adopt(self, *objects):
        """Register ``objects`` as carried by the currently open span."""
        span = self._current.get()
        if span is None:
            return
        with self._lock:
            for obj in objects:
                self._owners[id(obj)] = (obj, span)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, function, name, *, adopt=None, rids=None, size=None,
             outermost=False):
        """Return ``function`` wrapped so every call records a span.

        ``adopt(args, kwargs)`` returns the objects later calls on other
        threads link to (see ``open``); ``rids(args, kwargs)`` returns
        explicit request ids; ``size(args, kwargs)`` an item count stored on
        the span.  ``outermost`` skips calls nested inside a span of the same
        name (module calls inside a network call, recursive backward).
        """
        recorder = self

        def enter(args, kwargs):
            if outermost:
                current = recorder._current.get()
                if current is not None and current.name == name:
                    return None
            span, token = recorder.open(
                name,
                rids=None if rids is None else rids(args, kwargs),
                size=None if size is None else size(args, kwargs))
            if adopt is not None:
                recorder.adopt(*adopt(args, kwargs))
            return span, token

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                opened = enter(args, kwargs)
                if opened is None:
                    return await function(*args, **kwargs)
                try:
                    return await function(*args, **kwargs)
                finally:
                    recorder.close(*opened)
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            opened = enter(args, kwargs)
            if opened is None:
                return function(*args, **kwargs)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(*opened)
        return wrapper

    def patch(self, owner, attribute, name, **options):
        """Replace ``owner.attribute`` (a class or module) with a wrapper.

        Module-level functions are also replaced wherever another loaded
        module imported them by name, so ``from .compiled import
        sample_chunk_compiled`` call sites are traced too.
        """
        function = owner.__dict__[attribute]
        wrapped = self.wrap(function, name, **options)
        self._set(owner, attribute, wrapped)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if module is owner or not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is function:
                        self._set(module, key, wrapped)
        return wrapped

    def _set(self, owner, attribute, value):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def unpatch(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans if span.end is not None],
                      handle)


def _open_ancestor(span):
    """The span itself if still open, else its nearest open ancestor."""
    while span is not None and span.end is not None:
        span = span.up
    return span


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [Span.from_dict(record) for record in json.load(handle)]


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """``{sid: self seconds}``: duration minus the union of child intervals
    clipped to the span (children may overlap and run on other threads)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ()))
        result[span.sid] = (span.end - span.start) - covered
    return result


def has_ancestor(span, name, by_sid):
    parent = by_sid.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_sid.get(parent.parent)
    return False


# ---------------------------------------------------------------------------
# The layer boundaries the traced run wraps
# ---------------------------------------------------------------------------
def _request_values(args, kwargs):
    return (args[1].values,)


def _payload_values(payloads):
    return tuple(payload.values for payload in payloads)


def _header_rid(args, kwargs):
    rid = args[1].headers.get("x-request-id")
    return (rid,) if rid is not None else ()


def install(recorder):
    """Wrap the layer boundaries of the ``repro`` stack on ``recorder``.

    Must run before any model is loaded: backends bind ``build_condition``
    at construction time.
    """
    # Submodules by full name: packages re-export functions that shadow
    # some of them (``repro.tensor.trace`` is also a function there).
    (imputer, masks, windows, ddpm, backend, compiled, engine, module, optim,
     gateway, pool, registry, service, transport, tensor, tensor_trace,
     trainer, io) = (importlib.import_module(f"repro.{name}") for name in (
         "core.imputer", "data.masks", "data.windows", "diffusion.ddpm",
         "inference.backend", "inference.compiled", "inference.engine",
         "nn.module", "nn.optim", "serving.gateway", "serving.pool",
         "serving.registry", "serving.service", "serving.transport",
         "tensor.tensor", "tensor.trace", "training.trainer", "io"))

    recorder.patch(gateway.Gateway, "handle", "gateway.handle", rids=_header_rid)
    recorder.patch(gateway, "decode_impute_request", "gateway.decode")
    recorder.patch(gateway, "encode_response_body", "gateway.encode")
    recorder.patch(service.ImputationService, "submit", "service.submit",
                   adopt=_request_values)
    recorder.patch(registry.ModelRegistry, "resolve", "registry.resolve")
    recorder.patch(registry.ModelRegistry, "backend", "registry.backend")
    recorder.patch(io, "load_model", "io.load_model")
    _patch_dispatch(recorder, pool.WorkerPool)
    recorder.patch(transport.ShmArena, "stage", "transport.stage")
    recorder.patch(transport.StagedBatch, "read_responses", "transport.read")
    recorder.patch(backend.DiffusionBackend, "impute_segment", "backend.impute_segment")
    recorder.patch(engine.InferenceEngine, "sample_plans", "engine.sample_plans",
                   size=lambda args, kwargs: len(args[1]))
    recorder.patch(compiled, "sample_chunk_compiled", "compiled.chunk",
                   size=lambda args, kwargs: len(args[1]))
    recorder.patch(compiled.CompiledSampler, "run", "compiled.replay")
    recorder.patch(tensor_trace, "compile_graph", "compiled.compile_graph")
    recorder.patch(imputer.PriSTI, "build_condition", "core.condition")
    recorder.patch(trainer.TrainingPlan, "training_step", "training.step")
    recorder.patch(windows.WindowSampler, "random_batch", "training.sample")
    recorder.patch(masks.MaskStrategy, "batch", "training.mask")
    recorder.patch(ddpm.GaussianDiffusion, "q_sample", "training.noise")
    recorder.patch(module.Module, "__call__", "nn.forward", outermost=True)
    recorder.patch(tensor.Tensor, "backward", "tensor.backward", outermost=True)
    recorder.patch(optim.Adam, "step", "optim.step")
    recorder.patch(optim._Optimizer, "clip_grad_norm", "optim.clip")
    recorder.patch(optim._Optimizer, "zero_grad", "optim.zero_grad")
    return recorder


def _patch_dispatch(recorder, pool_class):
    """``WorkerPool.dispatch`` plus a ``pool.roundtrip`` span that ends when
    the pool calls the task's completion hook (on a worker thread)."""
    original = pool_class.__dict__["dispatch"]

    def dispatch(self, task):
        span, token = recorder.open("pool.dispatch",
                                    link=_payload_values(task.payloads))
        started = span.start
        parent, rids = span.parent, span.rids
        for hook in ("on_done", "on_error"):
            inner = getattr(task, hook)

            def finished(value, inner=inner):
                recorder.record("pool.roundtrip", started, time.perf_counter(),
                                parent=parent, rids=rids)
                return inner(value)
            setattr(task, hook, finished)
        try:
            return original(self, task)
        finally:
            recorder.close(span, token)

    recorder._set(pool_class, "dispatch", dispatch)
