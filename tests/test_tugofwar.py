"""Unit tests for the tug-of-war (AMS) sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import self_join_size
from repro.core.tugofwar import TugOfWarSketch


def loaded(stream, s1=64, s2=5, seed=7):
    sk = TugOfWarSketch(s1=s1, s2=s2, seed=seed)
    sk.update_from_stream(np.asarray(stream, dtype=np.int64))
    return sk


class TestBasics:
    def test_empty_estimate_zero(self):
        assert TugOfWarSketch(s1=8, seed=0).estimate() == 0.0

    def test_single_value_exact(self):
        # All mass on one value: Z = ±f exactly, so X = f^2 = SJ for
        # every basic estimator — the estimate is exact.
        sk = TugOfWarSketch(s1=16, s2=3, seed=1)
        for _ in range(37):
            sk.insert(5)
        assert sk.estimate() == pytest.approx(37.0**2)

    def test_counters_move_by_signs(self):
        sk = TugOfWarSketch(s1=4, s2=1, seed=0)
        sk.insert(9)
        assert set(np.unique(sk.counters).tolist()) <= {-1, 1}

    def test_n_tracks_inserts_and_deletes(self):
        sk = TugOfWarSketch(s1=4, seed=0)
        sk.insert(1)
        sk.insert(2)
        sk.delete(1)
        assert sk.n == 1

    def test_memory_words(self):
        assert TugOfWarSketch(s1=8, s2=3, seed=0).memory_words == 24

    def test_error_and_confidence_accessors(self):
        sk = TugOfWarSketch(s1=64, s2=4, seed=0)
        assert sk.error_bound() == pytest.approx(0.5)
        assert sk.confidence() == pytest.approx(1 - 0.25)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TugOfWarSketch(s1=0)

    def test_delete_from_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TugOfWarSketch(s1=2, seed=0).delete(1)


class TestLinearity:
    def test_insert_then_delete_restores_state(self):
        sk = TugOfWarSketch(s1=32, s2=2, seed=3)
        sk.insert(4)
        sk.insert(7)
        before = sk.counters.copy()
        sk.insert(12345)
        sk.delete(12345)
        assert np.array_equal(sk.counters, before)
        assert sk.n == 2

    def test_refused_bulk_update_changes_nothing(self):
        # 2,000 values fill two 1,024-value scatter chunks and the last
        # is outside the hash field: no chunk may land before the
        # refusal.
        sk = TugOfWarSketch(s1=8, s2=3, seed=1)
        values = np.arange(2000, dtype=np.int64)
        values[-1] = 2147483647
        with pytest.raises(ValueError, match="contain 2147483647"):
            sk.update_from_frequencies(values, np.ones_like(values))
        assert sk.n == 0 and not sk.counters.any()

    def test_batch_equals_elementwise(self, small_stream):
        a = loaded(small_stream, seed=11)
        b = TugOfWarSketch(s1=64, s2=5, seed=11)
        for v in small_stream.tolist():
            b.insert(int(v))
        assert np.array_equal(a.counters, b.counters)
        assert a.estimate() == b.estimate()
        assert a.n == b.n == small_stream.size

    def test_update_with_count(self):
        a = TugOfWarSketch(s1=16, seed=5)
        a.update(9, 10)
        b = TugOfWarSketch(s1=16, seed=5)
        for _ in range(10):
            b.insert(9)
        assert np.array_equal(a.counters, b.counters)

    def test_update_negative_count_deletes(self):
        sk = TugOfWarSketch(s1=16, seed=5)
        sk.update(3, 5)
        sk.update(3, -5)
        assert np.all(sk.counters == 0)
        assert sk.n == 0

    def test_update_zero_count_noop(self):
        sk = TugOfWarSketch(s1=4, seed=0)
        sk.update(1, 0)
        assert sk.n == 0

    def test_update_below_zero_raises(self):
        sk = TugOfWarSketch(s1=4, seed=0)
        with pytest.raises(ValueError, match="negative"):
            sk.update(1, -1)

    def test_permutation_invariance(self, small_stream, rng):
        a = loaded(small_stream, seed=2)
        shuffled = small_stream.copy()
        rng.shuffle(shuffled)
        b = loaded(shuffled, seed=2)
        assert np.array_equal(a.counters, b.counters)

    def test_merge_is_union(self, small_stream):
        left, right = small_stream[:1000], small_stream[1000:]
        a = loaded(left, seed=9)
        b = loaded(right, seed=9)
        merged = a.merge(b)
        full = loaded(small_stream, seed=9)
        assert np.array_equal(merged.counters, full.counters)
        assert merged.n == full.n

    def test_merge_requires_same_seed(self, small_stream):
        a = loaded(small_stream, seed=1)
        b = loaded(small_stream, seed=2)
        with pytest.raises(ValueError, match="hash families"):
            a.merge(b)

    def test_merge_requires_same_shape(self):
        a = TugOfWarSketch(s1=4, s2=1, seed=0)
        b = TugOfWarSketch(s1=2, s2=2, seed=0)
        with pytest.raises(ValueError, match="shape"):
            a.merge(b)

    def test_merge_rejects_other_types(self):
        with pytest.raises(TypeError):
            TugOfWarSketch(s1=2, seed=0).merge("nope")

    def test_update_from_frequencies_validates(self):
        sk = TugOfWarSketch(s1=2, seed=0)
        with pytest.raises(ValueError, match="equal-length"):
            sk.update_from_frequencies([1, 2], [1])


class TestAccuracy:
    def test_estimate_close_on_skewed_stream(self, small_stream):
        exact = self_join_size(small_stream)
        sk = loaded(small_stream, s1=400, s2=5, seed=42)
        assert sk.estimate() == pytest.approx(exact, rel=0.25)

    def test_estimate_close_on_uniform_stream(self, uniform_stream):
        exact = self_join_size(uniform_stream)
        sk = loaded(uniform_stream, s1=400, s2=5, seed=43)
        assert sk.estimate() == pytest.approx(exact, rel=0.25)

    def test_unbiasedness_over_seeds(self):
        # Average of many independent single-estimator sketches should
        # approach the exact SJ.
        stream = np.array([1] * 30 + [2] * 20 + list(range(10, 60)), dtype=np.int64)
        exact = self_join_size(stream)
        estimates = []
        for seed in range(300):
            sk = TugOfWarSketch(s1=1, s2=1, seed=seed)
            sk.update_from_stream(stream)
            estimates.append(sk.estimate())
        assert np.mean(estimates) == pytest.approx(exact, rel=0.2)

    def test_theorem22_bound_holds_with_margin(self, small_stream):
        # With s1 = 1024 the guaranteed error is 4/32 = 12.5%; a single
        # seeded run should comfortably satisfy it.
        exact = self_join_size(small_stream)
        sk = loaded(small_stream, s1=1024, s2=5, seed=0)
        assert abs(sk.estimate() - exact) / exact <= sk.error_bound()

    def test_estimate_nonnegative(self, rng):
        for seed in range(10):
            sk = loaded(rng.integers(0, 30, size=100), s1=8, s2=3, seed=seed)
            assert sk.estimate() >= 0.0

    def test_mean_and_median_variants(self, small_stream):
        sk = loaded(small_stream, s1=64, s2=5, seed=6)
        exact = self_join_size(small_stream)
        assert sk.estimate_mean() == pytest.approx(np.mean(sk.basic_estimators()))
        assert sk.estimate_median() == pytest.approx(np.median(sk.basic_estimators()))
        # All three estimate the same quantity, loosely.
        assert sk.estimate_mean() == pytest.approx(exact, rel=1.0)


class TestInnerProduct:
    def test_join_estimate_roughly_correct(self, rng):
        a = rng.integers(0, 40, size=2000)
        b = rng.integers(0, 40, size=2000)
        from repro.core.frequency import join_size

        exact = join_size(a, b)
        x = loaded(a, s1=300, s2=5, seed=77)
        y = loaded(b, s1=300, s2=5, seed=77)
        assert x.inner_product(y) == pytest.approx(exact, rel=0.3)
        assert x.inner_product_mean(y) == pytest.approx(exact, rel=0.3)

    def test_inner_product_with_self_matches_estimate(self, small_stream):
        sk = loaded(small_stream, seed=1)
        assert sk.inner_product(sk) == pytest.approx(sk.estimate())

    def test_inner_product_requires_shared_seed(self, small_stream):
        a = loaded(small_stream, seed=1)
        b = loaded(small_stream, seed=2)
        with pytest.raises(ValueError, match="hash families"):
            a.inner_product(b)


class TestPersistence:
    def test_roundtrip(self, small_stream):
        sk = loaded(small_stream, seed=14)
        clone = TugOfWarSketch.from_dict(sk.to_dict())
        assert np.array_equal(clone.counters, sk.counters)
        assert clone.estimate() == sk.estimate()
        assert clone.n == sk.n

    def test_roundtrip_keeps_updating(self, small_stream):
        sk = loaded(small_stream, seed=14)
        clone = TugOfWarSketch.from_dict(sk.to_dict())
        sk.insert(3)
        clone.insert(3)
        assert np.array_equal(clone.counters, sk.counters)

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="payload"):
            TugOfWarSketch.from_dict({"kind": "other"})

    def test_from_dict_validates_counter_shape(self):
        payload = TugOfWarSketch(s1=2, s2=2, seed=0).to_dict()
        payload["z"] = [0, 0]
        with pytest.raises(ValueError, match="shape"):
            TugOfWarSketch.from_dict(payload)

    def test_copy_independent(self):
        sk = TugOfWarSketch(s1=4, seed=0)
        sk.insert(1)
        cp = sk.copy()
        cp.insert(2)
        assert cp.n == 2 and sk.n == 1

    def test_counters_view_read_only(self):
        sk = TugOfWarSketch(s1=4, seed=0)
        with pytest.raises(ValueError):
            sk.counters[0] = 5
