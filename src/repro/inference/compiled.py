"""Compiled reverse-diffusion sampling: trace one chunk, replay it flat.

The eager engine pays per-op Python overhead on every diffusion step of every
chunk — graph-node construction, fresh intermediate allocations, attribute
dispatch.  The *computation* of a chunk is fully determined by its signature
``(num_items, item shape, dtype, parameterization, step sequence)``, so this
module records it once with :mod:`repro.tensor.trace` and replays it as a
flat kernel schedule over a pre-planned buffer arena:

* :func:`_run_loop` is a Tensor-op mirror of the eager chunk path — the same
  ``noise_fn`` network call plus ``p_sample_step`` / ``_ddim_update`` algebra
  the engine and :class:`~repro.diffusion.GaussianDiffusion` run in raw
  numpy, expressed op-for-op in the same ufunc order so its results are
  bit-identical.  Run under a :class:`~repro.tensor.trace.Tracer` it yields
  the :class:`~repro.tensor.trace.TraceGraph`; run without one it is the
  eager fallback for noise that has already been drawn.
* :class:`CompiledStepCache` is the per-model LRU keyed by the chunk
  signature.  The first chunk of a signature traces, plans and validates
  (one replay on the trace inputs must reproduce the traced execution
  bit-for-bit); later chunks replay with zero graph construction.  Anything
  the tracer cannot capture — an op without a replay kernel, data-dependent
  parameters, an injected ``compile.trace`` fault — negative-caches a
  :data:`FALLBACK` sentinel so the signature never re-pays the trace cost.

Fallback never changes results or the RNG stream: a signature that cannot
compile returns ``None`` *before* any noise is drawn (the eager sampler then
draws exactly as it always did), and a replay that fails after drawing
re-runs the mirror loop eagerly on the same pre-drawn noise.

``REPRO_COMPILE=0`` (or ``false`` / ``off``) disables compilation process-wide;
``PriSTIConfig.compile_inference`` disables it per model.  Module-global
``compiled.*`` counters aggregate hits / misses / fallbacks across every
cache in the process for ``service.metrics_snapshot()`` and the gateway
``/v1/stats``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor.tensor import get_default_dtype
from ..tensor.trace import TraceUnsupported, compile_graph, trace

__all__ = [
    "FALLBACK",
    "CompiledSampler",
    "CompiledStepCache",
    "compile_enabled",
    "compiled_metrics",
    "register_compiled_metrics",
    "reset_compiled_metrics",
    "sample_chunk_compiled",
]

ENV_COMPILE = "REPRO_COMPILE"

#: Negative-cache sentinel: this signature was tried and cannot compile.
FALLBACK = object()


def compile_enabled(environ=None):
    """Whether trace-and-replay compilation is enabled process-wide."""
    raw = (environ or os.environ).get(ENV_COMPILE, "").strip().lower()
    return raw not in ("0", "false", "off")


# ---------------------------------------------------------------------------
# Process-wide counters (serving telemetry)
# ---------------------------------------------------------------------------

_GLOBAL_LOCK = threading.Lock()
_GLOBAL_COUNTERS = {
    "compiled.cache.hits": 0,
    "compiled.cache.misses": 0,
    "compiled.fallbacks": 0,
    "compiled.cache.evictions": 0,
    "compiled.programs": 0,
}


def _bump(name, amount=1):
    with _GLOBAL_LOCK:
        _GLOBAL_COUNTERS[name] += amount


def compiled_metrics():
    """The process-wide ``compiled.*`` counters across every cache.

    Process-mode pool workers fold their children's counters back into the
    parent's totals through each batch reply (see
    :func:`fold_compiled_metrics`), so on a pool-owning process this also
    covers work the children did.
    """
    with _GLOBAL_LOCK:
        return dict(_GLOBAL_COUNTERS)


def fold_compiled_metrics(delta):
    """Add another process's ``compiled.*`` deltas into this process's totals.

    The worker pool calls this with the per-batch delta of a child
    process's cumulative counters, so ``compiled_metrics()`` on the
    parent reflects compilation work wherever it physically ran.
    """
    with _GLOBAL_LOCK:
        for key, amount in delta.items():
            if key in _GLOBAL_COUNTERS and amount:
                _GLOBAL_COUNTERS[key] += int(amount)


def reset_compiled_metrics():
    """Zero the process-wide counters (tests and benchmarks)."""
    with _GLOBAL_LOCK:
        for key in _GLOBAL_COUNTERS:
            _GLOBAL_COUNTERS[key] = 0


def register_compiled_metrics(metrics):
    """Register the ``compiled.*`` metrics on a ``MetricsRegistry``.

    The instruments are callback gauges over the process-global counters, so
    one registration covers every cache in the process (and, behind a worker
    pool, everything the children fold back through their batch replies) —
    there is no second copy of the totals to drift.
    """
    for name in _GLOBAL_COUNTERS:
        metrics.gauge(name, fn=lambda name=name: _GLOBAL_COUNTERS[name])
    return metrics


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class CompiledSampler:
    """One compiled chunk program plus the lock serialising its replays.

    The replay arena is shared mutable state, so concurrent replays of the
    *same* signature are serialised here; different signatures (different
    cache entries) replay concurrently.
    """

    __slots__ = ("program", "_lock")

    def __init__(self, program):
        self.program = program
        self._lock = threading.Lock()

    @property
    def stats(self):
        return self.program.stats

    def run(self, inputs):
        with self._lock:
            return self.program.run(inputs)[0]


class CompiledStepCache:
    """LRU of compiled chunk samplers, keyed by the chunk signature.

    Owned by the *model* (one cache per set of weights) and shared by every
    engine / backend the model hands out, so serving traffic — where a fresh
    backend is constructed per batch — still replays programs traced by
    earlier batches.  ``FALLBACK`` entries negative-cache signatures that
    cannot compile.  Thread-safe.
    """

    def __init__(self, capacity=8):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("cache capacity must be a positive integer")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.evictions = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def lookup(self, key):
        """Return the entry for ``key`` (sampler, ``FALLBACK`` or ``None``)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                if entry is not FALLBACK:
                    self.hits += 1
        if entry is None:
            _bump("compiled.cache.misses")
        elif entry is not FALLBACK:
            _bump("compiled.cache.hits")
        return entry

    def store(self, key, entry):
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            _bump("compiled.cache.evictions", evicted)
        if entry is not FALLBACK:
            _bump("compiled.programs")
        return entry

    def count_fallback(self):
        """One chunk was served by the eager path after a compile decision."""
        with self._lock:
            self.fallbacks += 1
        _bump("compiled.fallbacks")

    def clear(self):
        with self._lock:
            self._entries.clear()

    def stats(self):
        with self._lock:
            compiled = sum(1 for e in self._entries.values() if e is not FALLBACK)
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "compiled_entries": compiled,
                "fallback_entries": len(self._entries) - compiled,
                "hits": self.hits,
                "misses": self.misses,
                "fallbacks": self.fallbacks,
                "evictions": self.evictions,
            }


# ---------------------------------------------------------------------------
# The Tensor-op mirror of the eager chunk path
# ---------------------------------------------------------------------------


def _ddim_sequence(engine):
    return engine.diffusion.ddim_step_sequence(engine.ddim_steps)


def _chunk_key(engine, num_items, item_shape):
    """Cache key: everything that determines the traced computation.

    The default dtype participates because leaf construction inside the
    network follows it (``set_default_dtype`` must invalidate, not corrupt);
    the model itself is implicit — the cache is owned by one model.
    """
    if engine.ddim_steps:
        fingerprint = ("ddim", tuple(_ddim_sequence(engine)), float(engine.ddim_eta))
    else:
        fingerprint = ("ddpm", engine.diffusion.num_steps)
    return (num_items, tuple(item_shape), str(engine.dtype),
            engine.parameterization, fingerprint, str(get_default_dtype()))


def _draw_noise(engine, num_items, item_shape, rngs):
    """Pre-draw start + step noise exactly as the eager batched sampler does."""
    diffusion = engine.diffusion
    if engine.ddim_steps:
        draws = len(_ddim_sequence(engine)) - 1 if engine.ddim_eta > 0 else 0
    else:
        draws = max(diffusion.num_steps - 1, 0)
    return diffusion._prepare_noise(num_items, item_shape, draws, None, rngs=rngs)


def _noise_from_prediction(engine, x, prediction, condition, step):
    """Tensor mirror of ``InferenceEngine._noise_from_prediction``."""
    if engine.parameterization == "epsilon":
        return prediction
    x0_estimate = condition + prediction
    schedule = engine.diffusion.schedule
    sqrt_ab = float(schedule.sqrt_alpha_bar(step))
    sqrt_1mab = max(float(schedule.sqrt_one_minus_alpha_bar(step)), 1e-6)
    return (x - sqrt_ab * x0_estimate) / sqrt_1mab


def _run_loop(engine, start, step_noise, condition, conditional_mask, tracer=None):
    """Run one chunk's full reverse process in Tensor ops.

    Mirrors the eager path op for op — the same ufuncs in the same operand
    order as ``GaussianDiffusion.sample`` / ``sample_ddim`` plus the engine's
    ``noise_fn`` — so the result is bit-identical to what the eager numpy
    loop computes from the same pre-drawn noise.  With ``tracer`` set the
    loop is recorded (inputs registered first, per-step scalar coefficients
    and embedding rows baked as constants); without one it doubles as the
    eager fallback for noise that has already been drawn.

    Returns the final state as a :class:`Tensor` of shape
    ``(num_items,) + item_shape``.
    """
    if tracer is not None:
        start = tracer.add_input("x", start)
        condition = tracer.add_input("condition", condition)
        conditional_mask = tracer.add_input("conditional_mask", conditional_mask)
        if step_noise.size:
            step_noise = tracer.add_input("step_noise", step_noise)
    num_items = start.shape[0]
    diffusion = engine.diffusion
    with no_grad():
        # dtype is pinned on every wrapper so no array is copied: the trace
        # resolves values by ndarray identity, and a silent cast here would
        # turn a runtime value into a baked constant.
        x = Tensor(start, dtype=start.dtype)
        cond_t = Tensor(condition, dtype=condition.dtype)
        mask_t = Tensor(conditional_mask, dtype=conditional_mask.dtype)
        target_t = 1.0 - mask_t
        noise_t = Tensor(step_noise, dtype=step_noise.dtype) if step_noise.size else None
        cache = {}

        def predicted_noise(x, step):
            steps = np.full(num_items, step, dtype=int)
            prediction = engine.predict(x * target_t, cond_t, steps, mask_t,
                                        cache=cache)
            prediction = Tensor(prediction, dtype=prediction.dtype)
            if tracer is not None:
                # A predictor that computes outside the trace (raw numpy)
                # would resolve as a capture and bake this execution's
                # prediction into every replay — refuse instead.
                tracer.require_runtime(
                    prediction.data,
                    "network prediction was not produced by traced ops")
            return _noise_from_prediction(engine, x, prediction, cond_t, step)

        if engine.ddim_steps:
            sequence = _ddim_sequence(engine)
            plan = diffusion._ddim_step_plan(sequence, engine.ddim_eta)
            for position, step in enumerate(sequence):
                eps = predicted_noise(x, step)
                noise_coef, x0_denom, direction_coef, x0_coef, sigma = plan[position]
                x0_estimate = (x - noise_coef * eps) / x0_denom
                direction = direction_coef * eps
                x = x0_coef * x0_estimate + direction
                if sigma > 0:
                    x = x + sigma * noise_t[:, position]
        else:
            eps_coef, sqrt_alpha, sigmas = diffusion._ancestral_coefficients()
            for position, step in enumerate(range(diffusion.num_steps - 1, -1, -1)):
                eps = predicted_noise(x, step)
                mean = (x - eps_coef[step] * eps) / sqrt_alpha[step]
                if step == 0:
                    x = mean
                else:
                    x = mean + sigmas[step] * noise_t[:, position]
    return x


def _replay_inputs(start, step_noise, condition, conditional_mask):
    inputs = {"x": start, "condition": condition,
              "conditional_mask": conditional_mask}
    if step_noise.size:
        inputs["step_noise"] = step_noise
    return inputs


def _inject_trace_fault():
    # Deferred import as in inference.backend: serving depends on inference,
    # so a module-level import of repro.serving.faults here would be circular.
    from ..serving import faults

    faults.inject("compile.trace")


def _bit_identical(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True))


def sample_chunk_compiled(engine, plans, condition, conditional_mask, rngs):
    """Try to serve one chunk via trace-and-replay.

    Returns the ``(len(plans),) + item_shape`` samples, or ``None`` when the
    chunk should run on the plain eager path *with the RNG untouched* (cache
    disabled, or the signature is negative-cached).  Once noise has been
    drawn here this function always returns samples — failures re-run the
    mirror loop eagerly on the same draws, so the stream stays identical to
    an uncompiled run.
    """
    cache = getattr(engine, "compiled_cache", None)
    if cache is None or not compile_enabled():
        return None
    num_items = len(plans)
    item_shape = tuple(plans[0].item_shape)
    key = _chunk_key(engine, num_items, item_shape)
    entry = cache.lookup(key)
    if entry is FALLBACK:
        cache.count_fallback()
        return None

    start, step_noise = _draw_noise(engine, num_items, item_shape, rngs)
    if entry is not None:
        try:
            return entry.run(_replay_inputs(start, step_noise, condition,
                                            conditional_mask))
        except Exception:
            cache.count_fallback()
            return _run_loop(engine, start, step_noise, condition,
                             conditional_mask).data

    # Cache miss: trace this execution, plan it, validate the replay.
    result = None
    try:
        _inject_trace_fault()
        with trace() as tracer:
            result = _run_loop(engine, start, step_noise, condition,
                               conditional_mask, tracer=tracer)
            graph = tracer.finish([result])
        program = compile_graph(graph)
        sampler = CompiledSampler(program)
        replay = sampler.run(_replay_inputs(start, step_noise, condition,
                                            conditional_mask))
        if not _bit_identical(replay, result.data):
            raise TraceUnsupported(
                "validation replay diverged from the traced execution")
        cache.store(key, sampler)
        return result.data
    except Exception:
        cache.store(key, FALLBACK)
        cache.count_fallback()
        if result is not None:
            return result.data
        # The failure struck before the traced execution finished (e.g. an
        # injected compile.trace fault): the noise is already drawn, so run
        # the mirror eagerly on the same draws.
        return _run_loop(engine, start, step_noise, condition,
                         conditional_mask).data
