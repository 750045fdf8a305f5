"""Spatiotemporal dataset container and split logic.

A :class:`SpatioTemporalDataset` holds

* ``values``        — ``(time, node)`` raw sensor readings (zeros where unknown),
* ``observed_mask`` — ``(time, node)`` 1 where the raw data has a value,
* ``eval_mask``     — ``(time, node)`` 1 where a value was *artificially*
  removed for evaluation (ground truth is known there and excluded from the
  model input),
* the geographic adjacency / sensor network, and
* the sampling period (steps per day) used by seasonal baselines.

The model input mask is ``observed_mask & ~eval_mask`` — what the model is
allowed to see; evaluation is performed only on ``eval_mask`` entries, exactly
as in the paper (§IV-D: "All evaluations are performed only on the manually
masked parts of the test set").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.generators import SensorNetwork

__all__ = ["SpatioTemporalDataset", "DatasetSplit"]


#: The split names :meth:`SpatioTemporalDataset.segment` accepts.
_SEGMENT_NAMES = ("train", "valid", "test")


@dataclass
class DatasetSplit:
    """Index ranges of the train/validation/test portions of the time axis."""

    train: slice
    valid: slice
    test: slice

    @classmethod
    def fractional(cls, num_steps, train=0.7, valid=0.1):
        """Split ``[0, num_steps)`` by fractions (the METR-LA / PEMS-BAY protocol)."""
        train_end = int(num_steps * train)
        valid_end = int(num_steps * (train + valid))
        return cls(slice(0, train_end), slice(train_end, valid_end), slice(valid_end, num_steps))


class SpatioTemporalDataset:
    """Container for one spatiotemporal imputation benchmark dataset."""

    def __init__(self, values, observed_mask, eval_mask, network, steps_per_day,
                 split=None, name="dataset"):
        values = np.asarray(values, dtype=np.float64)
        observed_mask = np.asarray(observed_mask).astype(bool)
        eval_mask = np.asarray(eval_mask).astype(bool)
        if values.ndim != 2:
            raise ValueError("values must be (time, node)")
        if observed_mask.shape != values.shape or eval_mask.shape != values.shape:
            raise ValueError("masks must have the same shape as values")
        if np.any(eval_mask & ~observed_mask):
            raise ValueError("eval_mask must be a subset of observed_mask")
        if not isinstance(network, SensorNetwork):
            raise TypeError("network must be a SensorNetwork")
        if network.num_nodes != values.shape[1]:
            raise ValueError("network size does not match number of columns in values")

        self.values = values
        self.observed_mask = observed_mask
        self.eval_mask = eval_mask
        self.network = network
        self.steps_per_day = int(steps_per_day)
        self.name = name
        self.split = split or DatasetSplit.fractional(values.shape[0])

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def num_steps(self):
        return self.values.shape[0]

    @property
    def num_nodes(self):
        return self.values.shape[1]

    @property
    def adjacency(self):
        return self.network.adjacency

    @property
    def input_mask(self):
        """Mask of entries the models are allowed to see."""
        return self.observed_mask & ~self.eval_mask

    def input_values(self):
        """Values with evaluation targets and missing entries zeroed out."""
        return self.values * self.input_mask

    def segment(self, name):
        """Return ``(values, observed_mask, eval_mask)`` for a split name
        (``"train"``, ``"valid"`` or ``"test"``)."""
        if not isinstance(name, str) or name not in _SEGMENT_NAMES:
            raise ValueError(f"unknown segment {name!r}: expected one of "
                             + ", ".join(repr(known) for known in _SEGMENT_NAMES))
        selector = getattr(self.split, name)
        return (
            self.values[selector],
            self.observed_mask[selector],
            self.eval_mask[selector],
        )

    def segment_dataset(self, name):
        """Return a new dataset restricted to one split (shares the network)."""
        values, observed, evaluation = self.segment(name)
        restricted = SpatioTemporalDataset(
            values,
            observed,
            evaluation,
            self.network,
            self.steps_per_day,
            split=DatasetSplit(slice(0, len(values)), slice(0, 0), slice(0, 0)),
            name=f"{self.name}/{name}",
        )
        return restricted

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def original_missing_rate(self):
        """Fraction of entries missing in the raw data (before injection)."""
        return 1.0 - self.observed_mask.mean()

    def injected_missing_rate(self):
        """Fraction of *observed* data artificially masked for evaluation."""
        observed = max(int(self.observed_mask.sum()), 1)
        return float(self.eval_mask.sum()) / observed

    def with_eval_mask(self, eval_mask):
        """Return a copy of the dataset with a different evaluation mask."""
        return SpatioTemporalDataset(
            self.values,
            self.observed_mask,
            eval_mask,
            self.network,
            self.steps_per_day,
            split=self.split,
            name=self.name,
        )

    def __repr__(self):
        return (
            f"SpatioTemporalDataset(name={self.name!r}, steps={self.num_steps}, "
            f"nodes={self.num_nodes}, missing={self.original_missing_rate():.1%}, "
            f"injected={self.injected_missing_rate():.1%})"
        )
