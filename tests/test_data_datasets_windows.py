"""Tests for the dataset container, synthetic generators, windows and scalers."""

import numpy as np
import pytest

from repro.data import (
    DatasetSplit,
    StandardScaler,
    WindowSampler,
    aqi36_like,
    generate_signals,
    make_dataset,
    metr_la_like,
    pems_bay_like,
)
from repro.graph import highway_corridor_network


class TestDatasetContainer:
    def test_basic_properties(self, tiny_traffic_dataset):
        dataset = tiny_traffic_dataset
        assert dataset.num_nodes == 6
        assert dataset.num_steps == 4 * 24
        assert dataset.adjacency.shape == (6, 6)
        assert 0 <= dataset.original_missing_rate() < 0.3
        assert dataset.injected_missing_rate() > 0

    def test_eval_mask_subset_of_observed(self, tiny_traffic_dataset):
        dataset = tiny_traffic_dataset
        assert not np.any(dataset.eval_mask & ~dataset.observed_mask)
        assert not np.any(dataset.input_mask & dataset.eval_mask)

    def test_segments_partition_time(self, tiny_traffic_dataset):
        dataset = tiny_traffic_dataset
        lengths = [dataset.segment(name)[0].shape[0] for name in ("train", "valid", "test")]
        assert sum(lengths) == dataset.num_steps

    @pytest.mark.parametrize("name", ["validation", "__class__", "fractional"])
    def test_unknown_segment_name_rejected(self, tiny_traffic_dataset, name):
        with pytest.raises(ValueError, match="'train', 'valid', 'test'"):
            tiny_traffic_dataset.segment(name)

    def test_segment_dataset_view(self, tiny_traffic_dataset):
        view = tiny_traffic_dataset.segment_dataset("test")
        assert view.num_steps == tiny_traffic_dataset.segment("test")[0].shape[0]
        assert view.num_nodes == tiny_traffic_dataset.num_nodes

    def test_with_eval_mask_replaces(self, tiny_traffic_dataset):
        new_mask = np.zeros_like(tiny_traffic_dataset.eval_mask)
        replaced = tiny_traffic_dataset.with_eval_mask(new_mask)
        assert replaced.eval_mask.sum() == 0
        assert replaced.values is tiny_traffic_dataset.values

    def test_invalid_eval_mask_rejected(self, tiny_traffic_dataset):
        bad = np.ones_like(tiny_traffic_dataset.eval_mask)
        bad &= ~tiny_traffic_dataset.observed_mask
        bad |= ~tiny_traffic_dataset.observed_mask
        if bad.sum() == 0:
            pytest.skip("no originally-missing entries to violate the invariant")
        with pytest.raises(ValueError):
            tiny_traffic_dataset.with_eval_mask(bad)

    def test_fractional_split(self):
        split = DatasetSplit.fractional(100, train=0.7, valid=0.1)
        assert split.train == slice(0, 70)
        assert split.valid == slice(70, 80)
        assert split.test == slice(80, 100)

    def test_repr_contains_name(self, tiny_traffic_dataset):
        assert "metr-la-like" in repr(tiny_traffic_dataset)


class TestSyntheticGenerators:
    def test_generate_signals_shape_and_nonnegative(self, rng):
        network = highway_corridor_network(5, rng=rng)
        values = generate_signals(network, 100, 24, nonnegative=True, rng=rng)
        assert values.shape == (100, 5)
        assert np.all(values >= 0)

    def test_generators_reproducible(self):
        first = metr_la_like(num_nodes=5, num_days=2, seed=3)
        second = metr_la_like(num_nodes=5, num_days=2, seed=3)
        assert np.allclose(first.values, second.values)
        assert np.array_equal(first.eval_mask, second.eval_mask)

    def test_generators_differ_across_seeds(self):
        first = metr_la_like(num_nodes=5, num_days=2, seed=3)
        second = metr_la_like(num_nodes=5, num_days=2, seed=4)
        assert not np.allclose(first.values, second.values)

    def test_all_three_dataset_families(self):
        air = aqi36_like(num_nodes=5, num_days=4)
        metr = metr_la_like(num_nodes=5, num_days=2)
        bay = pems_bay_like(num_nodes=5, num_days=2)
        assert air.name.startswith("aqi36")
        assert metr.name.startswith("metr-la")
        assert bay.name.startswith("pems-bay")
        # PEMS-BAY has essentially no original missing data.
        assert bay.original_missing_rate() < air.original_missing_rate()

    def test_spatial_correlation_present(self):
        """Neighbouring sensors must correlate more than distant ones on average."""
        dataset = metr_la_like(num_nodes=10, num_days=6, seed=0)
        values = dataset.values
        correlation = np.corrcoef(values.T)
        adjacency = dataset.adjacency
        connected = adjacency > 0
        np.fill_diagonal(connected, False)
        disconnected = (adjacency == 0)
        np.fill_diagonal(disconnected, False)
        if connected.sum() and disconnected.sum():
            assert correlation[connected].mean() > correlation[disconnected].mean()

    def test_make_dataset_patterns(self, rng):
        network = highway_corridor_network(5, rng=rng)
        values = generate_signals(network, 120, 24, rng=rng)
        observed = np.ones_like(values, dtype=bool)
        for pattern in ("point", "block", "failure", "none"):
            dataset = make_dataset(network, values, observed, 24, pattern, rng=rng)
            assert dataset.num_steps == 120
        with pytest.raises(ValueError):
            make_dataset(network, values, observed, 24, "bogus", rng=rng)


class TestWindowSampler:
    def test_window_count_and_shape(self, tiny_traffic_dataset):
        sampler = WindowSampler.from_dataset(tiny_traffic_dataset, "train",
                                             window_length=12, stride=12)
        assert len(sampler) >= 1
        values, observed, evaluation = sampler.window(0)
        assert values.shape == (6, 12)
        assert observed.dtype == bool and evaluation.dtype == bool

    def test_batches_cover_all_windows(self, tiny_traffic_dataset):
        sampler = WindowSampler.from_dataset(tiny_traffic_dataset, "train",
                                             window_length=8, stride=8)
        seen = 0
        for batch in sampler.iter_batches(batch_size=3):
            assert batch.values.shape[1:] == (6, 8)
            seen += len(batch)
        assert seen == len(sampler)

    def test_random_batch_shape(self, tiny_traffic_dataset, rng):
        sampler = WindowSampler.from_dataset(tiny_traffic_dataset, "train", window_length=8)
        batch = sampler.random_batch(5, rng=rng)
        assert batch.values.shape == (5, 6, 8)
        assert batch.input_mask.shape == (5, 6, 8)
        assert not np.any(batch.input_mask & batch.eval_mask)

    def test_window_too_long_raises(self, tiny_traffic_dataset):
        with pytest.raises(ValueError):
            WindowSampler.from_dataset(tiny_traffic_dataset, "valid", window_length=10_000)

    def test_shuffle_changes_order(self, tiny_traffic_dataset):
        sampler = WindowSampler.from_dataset(tiny_traffic_dataset, "train",
                                             window_length=4, stride=2)
        ordered = [batch.starts.tolist() for batch in sampler.iter_batches(4)]
        shuffled = [batch.starts.tolist() for batch in
                    sampler.iter_batches(4, shuffle=True, rng=np.random.default_rng(0))]
        assert ordered != shuffled


class TestStandardScaler:
    def test_round_trip(self, rng):
        scaler = StandardScaler()
        values = rng.standard_normal((50, 3)) * 7 + 20
        transformed = scaler.fit_transform(values)
        assert abs(transformed.mean()) < 1e-9
        assert np.allclose(scaler.inverse_transform(transformed), values)

    def test_masked_fit_ignores_missing(self, rng):
        values = np.zeros((100, 2))
        values[:50] = 10.0
        mask = np.zeros_like(values, dtype=bool)
        mask[:50] = True
        scaler = StandardScaler().fit(values, mask)
        assert scaler.mean_ == pytest.approx(10.0)

    def test_zero_variance_guard(self):
        scaler = StandardScaler().fit(np.full((10, 2), 3.0))
        assert scaler.std_ == 1.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros(3))

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((5, 5)), np.zeros((5, 5), dtype=bool))
