"""Unit tests for the sample-count tracker (Figure 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import self_join_size
from repro.core.samplecount import (
    SampleCountFastQuery,
    SampleCountSketch,
    sample_count_estimate_offline,
)


def loaded(stream, s1=64, s2=5, seed=7, cls=SampleCountSketch, initial_range=None):
    arr = np.asarray(stream, dtype=np.int64)
    sk = cls(
        s1=s1,
        s2=s2,
        seed=seed,
        initial_range=initial_range if initial_range is not None else arr.size,
    )
    sk.update_from_stream(arr)
    return sk


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SampleCountSketch(s1=0)

    def test_rejects_bad_initial_range(self):
        with pytest.raises(ValueError, match="initial_range"):
            SampleCountSketch(s1=2, initial_range=0)

    def test_default_initial_range_is_s_log_s(self):
        sk = SampleCountSketch(s1=16, s2=4, seed=0)
        s = 64
        assert sk.initial_range == s * 6  # ceil(log2 64) = 6

    def test_memory_words(self):
        assert SampleCountSketch(s1=8, s2=2, seed=0).memory_words == 16


class TestInsertOnly:
    def test_empty_estimate_zero(self):
        assert SampleCountSketch(s1=4, seed=0).estimate() == 0.0

    def test_all_distinct_exact(self):
        # Every r_i = 1, so every X_i = n and the estimate is exactly n = SJ.
        stream = np.arange(500, dtype=np.int64)
        sk = loaded(stream, seed=3)
        assert sk.estimate() == pytest.approx(500.0)

    def test_sample_fills_up(self, small_stream):
        sk = loaded(small_stream, s1=16, s2=2, seed=5)
        assert sk.sample_size == 32  # every slot sampled within initial_range=n

    def test_invariants_after_inserts(self, small_stream):
        sk = loaded(small_stream, seed=9)
        sk.check_invariants()

    def test_estimate_close_on_skewed_stream(self, small_stream):
        exact = self_join_size(small_stream)
        sk = loaded(small_stream, s1=600, s2=5, seed=17)
        assert sk.estimate() == pytest.approx(exact, rel=0.35)

    def test_estimate_close_on_uniform_stream(self, uniform_stream):
        exact = self_join_size(uniform_stream)
        sk = loaded(uniform_stream, s1=600, s2=5, seed=18)
        assert sk.estimate() == pytest.approx(exact, rel=0.35)

    def test_query_alias(self, small_stream):
        sk = loaded(small_stream, seed=1)
        assert sk.query() == sk.estimate()

    def test_n_counts_inserts(self):
        sk = SampleCountSketch(s1=2, seed=0)
        for v in [1, 1, 2]:
            sk.insert(v)
        assert sk.n == 3

    def test_estimate_before_any_slot_triggers(self):
        # Stream far shorter than the smallest selected position: the
        # sample can be empty; estimate falls back to n.
        sk = SampleCountSketch(s1=4, s2=1, seed=0, initial_range=10_000)
        sk.insert(1)
        if sk.sample_size == 0:
            assert sk.estimate() == 1.0

    def test_basic_estimators_nan_for_empty_slots(self):
        sk = SampleCountSketch(s1=4, s2=1, seed=0, initial_range=10_000)
        sk.insert(1)
        x = sk.basic_estimators()
        assert np.isnan(x).sum() == 4 - sk.sample_size

    def test_sample_values_subset_of_stream(self, small_stream):
        sk = loaded(small_stream, seed=4)
        assert set(sk.sample_values()) <= set(small_stream.tolist())

    def test_unbiasedness_over_seeds(self):
        stream = np.array([1] * 40 + list(range(10, 170)), dtype=np.int64)
        exact = self_join_size(stream)
        estimates = [
            loaded(stream, s1=1, s2=1, seed=seed).estimate() for seed in range(400)
        ]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.25)


class TestDeletions:
    def test_insert_delete_leaves_empty(self):
        sk = SampleCountSketch(s1=8, s2=2, seed=0, initial_range=4)
        for v in [1, 2, 3, 4]:
            sk.insert(v)
        for v in [4, 3, 2, 1]:
            sk.delete(v)
        assert sk.n == 0
        assert sk.sample_size == 0
        assert sk.estimate() == 0.0
        sk.check_invariants()

    def test_delete_most_recent_semantics(self):
        # Insert v three times; a slot samples the 3rd insert.  One
        # delete must evict it; further deletes must not underflow.
        sk = SampleCountSketch(s1=4, s2=1, seed=1, initial_range=3)
        sk.insert(7)
        sk.insert(7)
        sk.insert(7)
        before = sk.sample_size
        sk.delete(7)
        sk.check_invariants()
        assert sk.n == 2
        assert sk.sample_size <= before

    def test_delete_untracked_value_only_decrements_n(self, small_stream):
        sk = loaded(small_stream, seed=2)
        absent = int(small_stream.max()) + 100
        sk.insert(absent)  # may or may not enter the sample
        n_before = sk.n
        sk.delete(absent)
        assert sk.n == n_before - 1
        sk.check_invariants()

    def test_delete_from_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SampleCountSketch(s1=2, seed=0).delete(1)

    @pytest.mark.parametrize("cls", [SampleCountSketch, SampleCountFastQuery])
    @pytest.mark.parametrize(
        "apply",
        [
            lambda sk: sk.update(5, -3),
            lambda sk: sk.update_from_frequencies([5, 6], [3, -5]),
        ],
        ids=["update", "update_from_frequencies"],
    )
    def test_refused_deletions_change_nothing(self, cls, apply):
        # Inserts come first in the stream order, so the multiset size
        # is smallest at the end: checked before anything is applied.
        sk = cls(s1=8, s2=2, seed=0)
        sk.insert(5)
        before = sk.to_dict()
        with pytest.raises(ValueError, match="empty multiset"):
            apply(sk)
        assert sk.n == 1
        assert sk.to_dict() == before
        sk.check_invariants()

    def test_mixed_workload_invariants(self, rng):
        sk = SampleCountSketch(s1=32, s2=3, seed=6, initial_range=500)
        live: list[int] = []
        for _ in range(3000):
            if live and rng.random() < 0.2:
                idx = int(rng.integers(0, len(live)))
                v = live.pop(idx)
                sk.delete(v)
            else:
                v = int(rng.integers(0, 40))
                live.append(v)
                sk.insert(v)
            if _ % 500 == 0:
                sk.check_invariants()
        sk.check_invariants()
        assert sk.n == len(live)

    def test_estimate_reasonable_after_deletions(self, rng):
        # Build a stream, delete a quarter of it, compare against the
        # exact SJ of what remains.
        values = rng.integers(0, 30, size=4000).tolist()
        sk = SampleCountSketch(s1=500, s2=5, seed=8, initial_range=4000)
        from repro.core.frequency import FrequencyVector

        fv = FrequencyVector()
        for v in values:
            sk.insert(int(v))
            fv.insert(int(v))
        deleted = 0
        for v in values:
            if deleted >= 1000:
                break
            sk.delete(int(v))
            fv.delete(int(v))
            deleted += 1
        sk.check_invariants()
        assert sk.estimate() == pytest.approx(fv.self_join_size(), rel=0.5)


class TestReservoirBehaviour:
    def test_long_stream_keeps_sample_full(self):
        # Past the warm-up, every slot stays in the sample (replacement
        # discards are immediately refilled).
        sk = SampleCountSketch(s1=8, s2=2, seed=3, initial_range=16)
        for v in np.random.default_rng(0).integers(0, 10, size=5000).tolist():
            sk.insert(int(v))
        assert sk.sample_size == 16
        sk.check_invariants()

    def test_sample_positions_roughly_uniform(self):
        # The value at a sampled slot for an all-distinct stream equals
        # its sampled position (value i inserted at position i+1), so
        # sampled values should spread across the whole stream.
        n = 20_000
        sk = SampleCountSketch(s1=64, s2=4, seed=10, initial_range=n)
        for v in range(n):
            sk.insert(v)
        vals = np.array(sk.sample_values(), dtype=np.float64)
        assert vals.size == 256
        assert 0.35 * n < vals.mean() < 0.65 * n
        assert vals.max() > 0.8 * n and vals.min() < 0.2 * n


class TestOfflineEstimator:
    def test_all_distinct_exact(self):
        assert sample_count_estimate_offline(np.arange(1000), 64, 2, rng=0) == 1000.0

    def test_empty_stream(self):
        assert sample_count_estimate_offline(np.array([], dtype=np.int64), 4, 1) == 0.0

    def test_single_value_stream(self):
        # All positions give r = n - p + 1; estimates are n(2r-1) with
        # expectation n^2.  Check the median-of-means lands in range.
        stream = np.zeros(100, dtype=np.int64)
        est = sample_count_estimate_offline(stream, 256, 5, rng=1)
        assert 0 < est <= 100 * (2 * 100 - 1)

    def test_close_to_exact(self, small_stream):
        exact = self_join_size(small_stream)
        est = sample_count_estimate_offline(small_stream, 800, 5, rng=2)
        assert est == pytest.approx(exact, rel=0.3)

    def test_matches_tracking_class_distributionally(self, small_stream):
        # Offline and tracking implementations of the same estimator
        # should produce estimates with similar medians over seeds.
        exact = self_join_size(small_stream)
        offline = np.median(
            [
                sample_count_estimate_offline(small_stream, 128, 5, rng=seed)
                for seed in range(30)
            ]
        )
        tracking = np.median(
            [
                loaded(small_stream, s1=128, s2=5, seed=seed).estimate()
                for seed in range(30)
            ]
        )
        assert offline == pytest.approx(exact, rel=0.35)
        assert tracking == pytest.approx(exact, rel=0.35)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            sample_count_estimate_offline(np.zeros((2, 2), dtype=np.int64), 4, 1)

    def test_unbiasedness_over_seeds(self):
        stream = np.array([1] * 30 + list(range(100, 200)), dtype=np.int64)
        exact = self_join_size(stream)
        estimates = [
            sample_count_estimate_offline(stream, 1, 1, rng=seed)
            for seed in range(2000)
        ]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.15)
