"""Seeded input generation shared by the workloads.

What varies with the run's ``--seed`` is derived here: every request (window
position, visible mask, length, sample count and the request's noise seed)
and, in offline-large, the sampling noise of the impute passes.  The same
seed gives byte-identical request bodies.  The training fixture (synthetic
dataset and model initialisation) is fixed by ``FIXTURE_SEED`` instead, so
``mae`` and ``train_loss`` compare across seeds: with a seed-dependent
fixture the final loss of 60-step served models spread by a factor of four
between seeds.

Each workload's own settings are constants next to its runner in ``run.py``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

FIXTURE_SEED = 1
NUM_DAYS = 8                        # length of the synthetic dataset
MODEL_NAME = "bench"                # name of the served model
BURST = 8                           # requests per burst in burst-mixed

#: The fixed (length, num_samples) composition of every burst in
#: burst-mixed, cycled burst by burst.  With a 12-step window and the pool
#: splitting each 8-request batch 4 | 4, worker 0 runs chunks of 8+3 and 8+7
#: items and worker 1 runs 8+5 and 8+2, so each worker's compiled cache
#: holds three signatures and every burst after the warm-up replays.
BURST_TEMPLATES = (
    ((12, 1), (6, 4), (20, 1), (12, 4), (30, 1), (12, 1), (6, 1), (20, 4)),
    ((6, 1), (12, 1), (30, 4), (12, 1), (20, 1), (6, 4), (12, 1), (30, 1)),
)
assert all(len(template) == BURST for template in BURST_TEMPLATES)


def config(*, window, diffusion_steps, dtype, fit_steps, batch_size,
           num_samples=1, inference_batch_size=None):
    """A fixture model configuration: one gradient step per epoch, so
    ``fit_steps`` is the fit budget."""
    from repro import PriSTIConfig
    return PriSTIConfig.fast(
        window_length=window,
        num_diffusion_steps=diffusion_steps,
        num_samples=num_samples,
        inference_batch_size=inference_batch_size,
        batch_size=batch_size,
        dtype=dtype,
        epochs=fit_steps,
        iterations_per_epoch=1,
        seed=FIXTURE_SEED,
    )


def dataset(num_nodes):
    from repro.data.synthetic import metr_la_like
    return metr_la_like(num_nodes=num_nodes, num_days=NUM_DAYS, seed=FIXTURE_SEED)


def timed_fit(model, data):
    """``model.fit(data)``; returns the wall time of each gradient step
    (one step per epoch, stamped by the trainer's epoch callback)."""
    from repro.training import Callback

    class StepClock(Callback):
        def __init__(self):
            self.stamps = []

        def on_train_begin(self, trainer):
            self.stamps.append(time.perf_counter())

        def on_epoch_end(self, trainer, epoch, loss):
            self.stamps.append(time.perf_counter())

    clock = StepClock()
    model.fit(data, callbacks=[clock])
    return np.diff(clock.stamps)


def final_loss(model):
    """Mean epoch loss over the last fifth of the fit budget."""
    losses = model.history["loss"]
    return float(np.mean(losses[-max(len(losses) // 5, 1):]))


@dataclass
class RequestSpec:
    values: np.ndarray              # (time, node), NaN where not visible
    observed_mask: np.ndarray       # visible entries
    truth: np.ndarray               # ground truth (time, node)
    eval_mask: np.ndarray           # held-out entries the MAE scores
    num_samples: int
    seed: int


def make_requests(data, seed, count):
    """``count`` seeded burst-mixed requests cut from the dataset's test
    segment, following the burst templates."""
    rng = np.random.default_rng([int(seed), 0x5EED])
    values, observed, evaluation = data.segment("test")
    shapes = [shape for index in range(-(-count // BURST))
              for shape in BURST_TEMPLATES[index % len(BURST_TEMPLATES)]][:count]
    requests = []
    for length, num_samples in shapes:
        start = int(rng.integers(0, len(values) - length + 1))
        rows = slice(start, start + length)
        visible = observed[rows] & ~evaluation[rows]
        requests.append(RequestSpec(
            values=np.where(visible, values[rows], np.nan),
            observed_mask=visible,
            truth=values[rows].copy(),
            eval_mask=evaluation[rows] & observed[rows],
            num_samples=num_samples,
            seed=int(rng.integers(2**31)),
        ))
    return requests


def to_imputation_request(spec):
    from repro import ImputationRequest
    return ImputationRequest(model=MODEL_NAME, values=spec.values,
                             observed_mask=spec.observed_mask,
                             num_samples=spec.num_samples, seed=spec.seed)
