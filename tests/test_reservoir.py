"""Unit tests for reservoir sampling with skipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.reservoir import ReservoirSample, skip_length


class TestSkipLength:
    def test_lower_clamp(self):
        assert skip_length(10, 1.0) == 11

    def test_inverse_transform(self):
        # ceil(m/u): for m=10, u=0.5 -> 20.
        assert skip_length(10, 0.5) == 20

    def test_small_u_big_jump(self):
        assert skip_length(5, 0.001) == 5000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            skip_length(0, 0.5)
        with pytest.raises(ValueError):
            skip_length(5, 0.0)
        with pytest.raises(ValueError):
            skip_length(5, 1.5)

    def test_distribution_matches_law(self):
        # P(next > x) = m/x: empirical check at m=10, x=30 -> 1/3.
        rng = np.random.default_rng(0)
        m = 10
        draws = np.array([skip_length(m, 1.0 - rng.random()) for _ in range(20_000)])
        assert np.mean(draws > 30) == pytest.approx(10 / 30, abs=0.02)
        assert np.mean(draws > 100) == pytest.approx(0.1, abs=0.01)


class TestReservoirSample:
    def test_fills_then_caps(self):
        r = ReservoirSample(5, seed=0)
        r.extend(range(3))
        assert len(r) == 3
        r.extend(range(100))
        assert len(r) == 5
        assert r.offered == 103

    def test_sample_subset_of_stream(self):
        r = ReservoirSample(10, seed=1)
        r.extend(range(500))
        assert set(r.items) <= set(range(500))
        assert len(set(r.items)) == 10  # distinct stream -> distinct sample

    def test_without_replacement_uniformity(self):
        # Each of 30 elements should appear in a size-5 sample with
        # probability 5/30 over many runs.
        hits = np.zeros(30)
        runs = 3000
        for seed in range(runs):
            r = ReservoirSample(5, seed=seed)
            r.extend(range(30))
            for item in r.items:
                hits[item] += 1
        probs = hits / runs
        assert np.all(np.abs(probs - 5 / 30) < 0.04)

    def test_deterministic_given_seed(self):
        a = ReservoirSample(4, seed=9)
        b = ReservoirSample(4, seed=9)
        a.extend(range(200))
        b.extend(range(200))
        assert a.items == b.items

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)

    def test_items_returns_copy(self):
        r = ReservoirSample(2, seed=0)
        r.extend([1, 2])
        items = r.items
        items.append(99)
        assert len(r.items) == 2
