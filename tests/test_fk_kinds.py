"""The general F_k kinds: fk_moments and f0 as first-class citizens.

Tentpole requirement of ISSUE 8: the engine's kind registry grows
beyond F_2.  ``fk_moments`` estimates one fixed frequency moment
F_k = sum f_v^k via a roots-of-unity linear sketch (median of s2
means of s1 estimators); ``f0`` is a deletion-safe linear-counting
distinct counter.  Both must pass the same bars as the original
kinds: bit-identical vectorized vs canonical ingest, exact linear
merges, registry round-trips, and windowed merge-on-query equality —
plus a typed :class:`UnsupportedMomentError` (a ``ValueError``) for
moments the sketch was not built for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distinct import DistinctCountSketch
from repro.core.fkmoments import FkMomentSketch
from repro.core.moments import UnsupportedMomentError
from repro.engine import dump_sketch, loads_sketch, dumps_sketch, sketch_kinds
from repro.engine.registry import sketch_descriptions
from repro.store import SketchSpec, WindowedSketchStore


def exact_moment(values, k: int) -> float:
    counts = np.bincount(np.asarray(values, dtype=np.int64))
    return float(np.sum(counts.astype(np.float64) ** k))


FK_FACTORY = {
    "fk_moments": lambda seed=7: FkMomentSketch(k=3, s1=16, s2=3, seed=seed),
    "f0": lambda seed=7: DistinctCountSketch(16, 3, seed=seed),
}

values_strategy = st.lists(
    st.integers(min_value=0, max_value=50), min_size=0, max_size=120
)


class TestUnsupportedMoment:
    def test_bad_order_rejected_at_construction(self):
        with pytest.raises(UnsupportedMomentError):
            FkMomentSketch(k=0, s1=16, s2=3, seed=1)
        with pytest.raises(UnsupportedMomentError):
            FkMomentSketch(k=-2, s1=16, s2=3, seed=1)

    def test_wrong_order_query_rejected(self):
        sketch = FkMomentSketch(k=3, s1=16, s2=3, seed=1)
        sketch.update_from_stream(np.arange(10))
        with pytest.raises(UnsupportedMomentError):
            sketch.moment_estimate(2)
        with pytest.raises(UnsupportedMomentError):
            sketch.moment_estimate(0)

    def test_is_a_value_error(self):
        """The CLI's exit-2 contract catches ValueError; the typed
        moment error must ride that path."""
        assert issubclass(UnsupportedMomentError, ValueError)

    def test_first_moment_is_exact(self):
        sketch = FkMomentSketch(k=3, s1=16, s2=3, seed=1)
        sketch.update_from_stream([1, 1, 2, 9])
        sketch.delete(1)
        assert sketch.moment_estimate(1) == 3.0


class TestRegistry:
    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    def test_registered(self, kind):
        assert kind in sketch_kinds()

    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    def test_description_published(self, kind):
        desc = sketch_descriptions()[kind]
        assert isinstance(desc, str) and desc

    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    def test_json_round_trip_then_continue_bit_identical(self, kind):
        rng = np.random.default_rng(5)
        prefix = rng.integers(0, 60, size=400)
        suffix = rng.integers(0, 60, size=400)
        original = FK_FACTORY[kind]()
        original.update_from_stream(prefix)
        restored = loads_sketch(dumps_sketch(original))
        assert dump_sketch(restored) == dump_sketch(original)
        original.update_from_stream(suffix)
        restored.update_from_stream(suffix)
        assert dump_sketch(restored) == dump_sketch(original)
        assert restored.estimate() == original.estimate()


class TestVectorizedVsCanonical:
    """Property tests: every bulk path equals the one-at-a-time path."""

    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    @given(values=values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_stream_equals_inserts(self, kind, values):
        bulk = FK_FACTORY[kind]()
        loop = FK_FACTORY[kind]()
        bulk.update_from_stream(np.asarray(values, dtype=np.int64))
        for v in values:
            loop.insert(v)
        assert dump_sketch(bulk) == dump_sketch(loop)

    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    @given(values=values_strategy, counts=st.data())
    @settings(max_examples=40, deadline=None)
    def test_frequencies_equal_updates(self, kind, values, counts):
        distinct = sorted(set(values))
        signed = counts.draw(
            st.lists(
                st.integers(min_value=-3, max_value=3).filter(bool),
                min_size=len(distinct),
                max_size=len(distinct),
            )
        )
        bulk = FK_FACTORY[kind]()
        loop = FK_FACTORY[kind]()
        if distinct:
            # Pre-load count 3 per value so negative deltas stay legal
            # (the kinds refuse batches that drive the multiset negative).
            base_vals = np.asarray(distinct, dtype=np.int64)
            base_counts = np.full(len(distinct), 3, dtype=np.int64)
            bulk.update_from_frequencies(base_vals, base_counts)
            loop.update_from_frequencies(base_vals, base_counts)
            bulk.update_from_frequencies(
                base_vals, np.asarray(signed, dtype=np.int64)
            )
        for v, c in zip(distinct, signed):
            loop.update(v, c)
        assert dump_sketch(bulk) == dump_sketch(loop)

    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    @given(values=values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_deletions_cancel_exactly(self, kind, values):
        sketch = FK_FACTORY[kind]()
        empty = FK_FACTORY[kind]()
        sketch.update_from_stream(np.asarray(values, dtype=np.int64))
        for v in values:
            sketch.delete(v)
        assert np.array_equal(sketch.counters, empty.counters)
        assert sketch.estimate() == 0.0


    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    def test_refused_bulk_update_changes_nothing(self, kind):
        # More values than one scatter chunk (1,024 for fk_moments,
        # 4,096 for f0), the last outside the hash field: the refusal
        # must come before the first chunk lands.
        sketch = FK_FACTORY[kind]()
        values = np.arange(5000, dtype=np.int64)
        values[-1] = 2147483647
        with pytest.raises(ValueError, match="contain 2147483647"):
            sketch.update_from_frequencies(values, np.ones_like(values))
        assert sketch.n == 0 and not sketch.counters.any()


class TestMerge:
    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    def test_merge_equals_union_stream(self, kind):
        rng = np.random.default_rng(11)
        left_vals = rng.integers(0, 80, size=600)
        right_vals = rng.integers(0, 80, size=600)
        left = FK_FACTORY[kind]()
        right = FK_FACTORY[kind]()
        union = FK_FACTORY[kind]()
        left.update_from_stream(left_vals)
        right.update_from_stream(right_vals)
        union.update_from_stream(np.concatenate([left_vals, right_vals]))
        merged = left.merge(right)
        assert dump_sketch(merged) == dump_sketch(union)

    @pytest.mark.parametrize("kind", sorted(FK_FACTORY))
    def test_mismatched_seed_merge_refused(self, kind):
        with pytest.raises(ValueError):
            FK_FACTORY[kind](seed=1).merge(FK_FACTORY[kind](seed=2))


class TestWindowedStore:
    """Merge-on-query over time buckets is bit-identical to monolithic."""

    SPECS = {
        "fk_moments": SketchSpec(
            "fk_moments", {"k": 3, "s1": 16, "s2": 3, "seed": 7}
        ),
        "f0": SketchSpec("f0", {"s1": 16, "s2": 3, "seed": 7}),
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_window_query_equals_monolithic(self, kind):
        spec = self.SPECS[kind]
        rng = np.random.default_rng(3)
        n = 2000
        timestamps = rng.integers(0, 160, size=n).astype(np.int64)
        values = rng.integers(0, 90, size=n).astype(np.int64)
        store = WindowedSketchStore(spec, bucket_width=10)
        store.ingest(timestamps, values)
        for t0, t1 in ((0, 160), (0, 40), (50, 120)):
            mono = spec.build()
            sel = (timestamps >= t0) & (timestamps < t1)
            mono.update_from_stream(values[sel])
            window = store.query(t0, t1)
            assert np.array_equal(window.counters, mono.counters)
            assert window.estimate() == mono.estimate()

    def test_fk_accuracy_sanity_in_store(self):
        """A wide fk_moments store window lands near the true F_3."""
        spec = SketchSpec(
            "fk_moments", {"k": 3, "s1": 256, "s2": 5, "seed": 0}
        )
        rng = np.random.default_rng(8)
        values = (rng.zipf(1.4, size=4000) % 300).astype(np.int64)
        timestamps = rng.integers(0, 100, size=4000).astype(np.int64)
        store = WindowedSketchStore(spec, bucket_width=10)
        store.ingest(timestamps, values)
        truth = exact_moment(values, 3)
        assert abs(store.estimate(0, 100) - truth) <= 0.5 * truth

    def test_f0_deletions_keep_distinct_count_honest(self):
        spec = SketchSpec("f0", {"s1": 256, "s2": 5, "seed": 0})
        store = WindowedSketchStore(spec, bucket_width=10)
        values = np.arange(200, dtype=np.int64)
        timestamps = np.zeros(200, dtype=np.int64)
        store.ingest(timestamps, values)
        # Delete half of them at the same timestamps.
        store.ingest(
            timestamps[:100], values[:100],
            counts=np.full(100, -1, dtype=np.int64),
        )
        estimate = store.estimate(0, 10)
        assert abs(estimate - 100.0) <= 30.0
