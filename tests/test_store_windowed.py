"""The windowed sketch store: routing, merge-on-query, retention, snapshots.

The tentpole contract of ISSUE 2: a time-bucketed store that absorbs
timestamped insert/delete batches (out-of-order included) and answers
estimates over arbitrary bucket-aligned windows, with merge-on-query
**bit-identical** to a monolithic sketch built over the same window.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.frequency import FrequencyVector, self_join_size
from repro.core.tugofwar import TugOfWarSketch
from repro.engine import MergeUnsupportedError, SketchPayloadError
from repro.engine.registry import UnknownSketchKindError, dump_sketch
from repro.store import SketchSpec, WindowAlignmentError, WindowedSketchStore
from repro.store.buckets import SparseRow

TW_SPEC = SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 7})


@pytest.fixture
def events(rng):
    """5,000 timestamped events over [0, 200), shuffled out of order."""
    ts = rng.integers(0, 200, size=5000)
    values = (rng.zipf(1.4, size=5000) % 100).astype(np.int64)
    return ts, values


def monolithic(ts, values, t0, t1, spec=TW_SPEC):
    """Reference sketch built over exactly the window's events."""
    sketch = spec.build()
    mask = (ts >= t0) & (ts < t1)
    sketch.update_from_stream(values[mask])
    return sketch


class TestSketchSpec:
    def test_build_and_flags(self):
        sketch = TW_SPEC.build()
        assert isinstance(sketch, TugOfWarSketch)
        assert TW_SPEC.is_mergeable and TW_SPEC.is_linear

    def test_same_spec_sketches_merge(self):
        a, b = TW_SPEC.build(), TW_SPEC.build()
        a.insert(1)
        b.insert(2)
        assert a.merge(b).n == 2

    def test_non_mergeable_kind_flags(self):
        spec = SketchSpec("naivesampling", {"s": 8, "seed": 0})
        assert not spec.is_mergeable and not spec.is_linear

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(UnknownSketchKindError):
            SketchSpec("nope", {})

    def test_mergeable_kind_without_seed_gets_one_pinned(self):
        # A None/absent seed on a mergeable kind would make every
        # build() draw its own hash family and no two buckets could
        # ever merge; the spec pins fresh entropy once instead.
        spec = SketchSpec("tugofwar", {"s1": 8, "s2": 2})
        assert spec.params["seed"] is not None
        a, b = spec.build(), spec.build()
        a.insert(1)
        b.insert(2)
        assert a.merge(b).n == 2
        explicit = SketchSpec("tugofwar", {"s1": 8, "s2": 2, "seed": None})
        assert explicit.params["seed"] is not None
        # ... and the pinned seed survives serialisation.
        clone = SketchSpec.from_dict(spec.to_dict())
        assert clone.params["seed"] == spec.params["seed"]

    def test_round_trip(self):
        clone = SketchSpec.from_dict(TW_SPEC.to_dict())
        assert clone == TW_SPEC

    def test_bad_payload(self):
        with pytest.raises(SketchPayloadError):
            SketchSpec.from_dict({"params": {}})


class TestRoutingAndWindows:
    def test_out_of_order_ingest_routes_by_timestamp(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)  # arbitrary arrival order
        assert store.span_count == 20
        assert store.coverage == (0, 200)

    def test_window_query_bit_identical_to_monolithic(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        for t0, t1 in ((0, 200), (50, 120), (0, 10), (190, 200)):
            window = store.query(t0, t1)
            mono = monolithic(ts, values, t0, t1)
            assert np.array_equal(window.counters, mono.counters), (t0, t1)
            assert window.n == mono.n

    def test_incremental_batches_equal_single_batch(self, events):
        ts, values = events
        one = WindowedSketchStore(TW_SPEC, bucket_width=10)
        one.ingest(ts, values)
        many = WindowedSketchStore(TW_SPEC, bucket_width=10)
        for lo in range(0, ts.size, 613):  # uneven batch edges
            many.ingest(ts[lo : lo + 613], values[lo : lo + 613])
        assert np.array_equal(
            one.query(0, 200).counters, many.query(0, 200).counters
        )

    def test_multi_bucket_deletes_match_monolithic(self, events):
        # A deletion batch spanning many buckets retracts each event from
        # the bucket of its timestamp, leaving the sketch of the rest.
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        store.ingest(ts[:50], values[:50], counts=np.full(50, -1))
        for t0, t1 in ((0, 200), (50, 120), (0, 10), (190, 200)):
            window = store.query(t0, t1)
            mono = monolithic(ts[50:], values[50:], t0, t1)
            assert np.array_equal(window.counters, mono.counters), (t0, t1)
            assert window.n == mono.n

    def test_descending_single_event_ingest_keeps_spans_sorted(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        for t in range(190, -10, -10):
            store.ingest([t], [t // 10])
        assert store.spans == [(t, t + 10) for t in range(0, 200, 10)]

    def test_signed_counts_apply_deletes(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([5, 5, 15], [1, 1, 2], counts=[3, -1, 4])
        reference = TW_SPEC.build()
        reference.update_from_frequencies([1, 2], [2, 4])
        assert np.array_equal(store.query(0, 20).counters, reference.counters)

    def test_cross_bucket_delete_rejected_with_bucket_context(self):
        # Retraction semantics: a delete carries the timestamp of the
        # insert it reverses.  Routed anywhere else, the target bucket
        # never saw the occurrence and the rejection names the bucket.
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([1], [7])
        with pytest.raises(ValueError, match=r"bucket span \[10, 20\)"):
            store.ingest([15], [7], counts=[-1])
        # routed to the insert's bucket, the same delete is fine
        store.ingest([5], [7], counts=[-1])
        assert store.query(0, 10, align="outer").n == 0

    def test_refused_batch_keeps_only_the_groups_before_it(self):
        # Bucket groups load in bucket order: [0, 10) loads, [10, 20) is
        # refused and opens no span, and [20, 30) is never reached.
        store = WindowedSketchStore(
            SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 7}), 10
        )
        with pytest.raises(ValueError) as info:
            store.ingest([1, 15, 25], [5, -1, 6])
        assert str(info.value) == (
            "bucket span [10, 20): values contain -1, outside the field "
            "[0, 2147483647)"
        )
        assert store.spans == [(0, 10)]
        assert store.memory_words == 2

    def test_deletes_into_sampler_kind_wrapped(self):
        # Insertion-only kinds reject deletion counts with
        # NotImplementedError; the store's ingest contract is a
        # uniform bucket-named ValueError.
        store = WindowedSketchStore(
            SketchSpec("naivesampling", {"s": 8, "seed": 0}), bucket_width=10
        )
        with pytest.raises(ValueError, match=r"bucket span \[0, 10\)"):
            store.ingest([2], [7], counts=[-1])

    def test_unmatched_delete_on_frequency_kind_wrapped(self):
        # The exact kind signals unmatched deletes with KeyError; the
        # store converts that to its uniform bucket-named ValueError.
        store = WindowedSketchStore(SketchSpec("frequency"), bucket_width=10)
        store.ingest([1], [7])
        with pytest.raises(ValueError, match=r"bucket span \[10, 20\)"):
            store.ingest([15], [7], counts=[-1])

    @pytest.mark.parametrize(
        "spec",
        [
            SketchSpec("frequency"),
            SketchSpec("samplecount", {"s1": 8, "seed": 1}),
            SketchSpec("samplecount-fast", {"s1": 8, "seed": 1}),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_refused_deleting_group_changes_nothing(self, spec):
        # The exact kind refuses 9's -4 after 7's -1 and 8's +1; the
        # samplers refuse a net size of -2.  Neither applies a part.
        store = WindowedSketchStore(spec, bucket_width=10)
        store.ingest([1, 2], [7, 9])
        before = store.to_dict()
        with pytest.raises(ValueError, match=r"bucket span \[0, 10\)"):
            store.ingest([3, 4, 5], [7, 8, 9], counts=[-1, 1, -4])
        assert store.to_dict() == before

    def test_negative_timestamps_and_origin(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10, origin=-30)
        store.ingest([-30, -21, -1], [1, 2, 3])
        assert store.coverage == (-30, 0)
        mono = TW_SPEC.build()
        mono.update_from_stream(np.array([1, 2], dtype=np.int64))
        assert np.array_equal(store.query(-30, -10).counters, mono.counters)

    def test_empty_window_of_data_returns_empty_sketch(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        sketch = store.query(1000, 1010)
        assert sketch.n == 0 and sketch.estimate() == 0.0

    def test_query_does_not_mutate_store(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        before = store.to_dict()
        window = store.query(0, 50)
        window.insert(42)  # mutate the returned sketch only
        assert store.to_dict() == before

    def test_mismatched_arrays_rejected(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        with pytest.raises(ValueError, match="equal-length"):
            store.ingest([1, 2], [1])
        with pytest.raises(ValueError, match="counts"):
            store.ingest([1, 2], [1, 2], counts=[1])
        assert store.spans == []  # no refused call opens a bucket

    def test_negative_value_refused_by_name(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        with pytest.raises(
            ValueError, match=r"contain -1, outside the field \[0, 2147483647\)"
        ):
            store.ingest([1, 2], [5, -1])
        assert store.estimate(0, 10) == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="bucket_width"):
            WindowedSketchStore(TW_SPEC, bucket_width=0)
        with pytest.raises(ValueError, match="retention_policy"):
            WindowedSketchStore(TW_SPEC, bucket_width=1, retention_policy="x")
        with pytest.raises(ValueError, match="retention_buckets"):
            WindowedSketchStore(TW_SPEC, bucket_width=1, retention_buckets=0)
        with pytest.raises(TypeError, match="SketchSpec"):
            WindowedSketchStore("tugofwar", bucket_width=1)

    def test_bad_seed_refused_at_construction(self):
        # Not at the first ingest, which may come long after (and which
        # a store of sparse rows would pass without building a sketch).
        spec = SketchSpec("tugofwar", {"s1": 4, "seed": -1})
        with pytest.raises(
            ValueError, match=r"seed must be an integer in \[0, 2\^63\), got -1"
        ):
            WindowedSketchStore(spec, bucket_width=10)


class TestAlignment:
    @pytest.fixture
    def store(self, events):
        ts, values = events
        st = WindowedSketchStore(TW_SPEC, bucket_width=10)
        st.ingest(ts, values)
        return st

    def test_strict_rejects_misaligned(self, store):
        with pytest.raises(WindowAlignmentError, match="not aligned"):
            store.query(5, 20)
        with pytest.raises(WindowAlignmentError, match="not aligned"):
            store.query(0, 25)

    def test_outer_expands_to_buckets(self, store, events):
        ts, values = events
        assert store.window_bounds(5, 25, align="outer") == (0, 30)
        window = store.query(5, 25, align="outer")
        mono = monolithic(ts, values, 0, 30)
        assert np.array_equal(window.counters, mono.counters)

    def test_empty_window_rejected(self, store):
        with pytest.raises(ValueError, match="empty window"):
            store.query(50, 50)

    def test_bad_align_value(self, store):
        with pytest.raises(ValueError, match="align"):
            store.query(0, 10, align="inner")


class TestRetention:
    def test_compact_preserves_covering_queries(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        full_before = store.query(0, 200).counters.copy()
        folded = store.compact(before=100)
        assert folded == 10
        assert store.span_count == 11  # one compacted span + 10 buckets
        assert np.array_equal(store.query(0, 200).counters, full_before)
        mono = monolithic(ts, values, 0, 100)
        assert np.array_equal(store.query(0, 100).counters, mono.counters)

    def test_query_splitting_compacted_span_raises(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        store.compact(before=100)
        with pytest.raises(WindowAlignmentError, match="compacted span"):
            store.query(50, 150)
        # outer expands over the span instead
        assert store.window_bounds(50, 150, align="outer") == (0, 150)

    def test_compact_requires_boundary(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        with pytest.raises(WindowAlignmentError, match="boundary"):
            store.compact(before=95)

    def test_compact_all(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        assert store.compact() == 20
        assert store.span_count == 1

    def test_late_arrivals_into_one_compacted_span(self, events):
        # Three bucket groups of one batch land in one compacted span,
        # one after another, and a fourth opens a new bucket past it.
        ts, values = events
        late_ts = np.array([15, 15, 85, 85, 42, 205], dtype=np.int64)
        late_values = np.array([7, 8, 9, 7, 3, 4], dtype=np.int64)
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        store.compact(before=100)
        store.ingest(late_ts, late_values)
        assert store.spans[0] == (0, 100) and store.spans[-1] == (200, 210)
        all_ts = np.concatenate((ts, late_ts))
        all_values = np.concatenate((values, late_values))
        for t0, t1 in ((0, 100), (200, 210), (0, 210)):
            window = store.query(t0, t1)
            mono = monolithic(all_ts, all_values, t0, t1)
            assert window.n == mono.n
            assert np.array_equal(window.counters, mono.counters)

    def test_late_arrival_after_compaction_folds_into_span(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        store.compact(before=100)
        store.ingest([15], [77])  # older than the compaction horizon
        mono = monolithic(ts, values, 0, 100)
        mono.insert(77)
        assert np.array_equal(store.query(0, 100).counters, mono.counters)

    def test_evict_forgets_history(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        dropped = store.evict(before=100)
        assert dropped == 10
        mono = monolithic(ts, values, 100, 200)
        assert np.array_equal(store.query(0, 200).counters, mono.counters)

    def test_auto_retention_compact(self, events):
        ts, values = events
        store = WindowedSketchStore(
            TW_SPEC, bucket_width=10, retention_buckets=5
        )
        store.ingest(ts, values)
        # 20 buckets ingested, 5 hot: old ones folded into one span.
        assert store.span_count == 6
        assert np.array_equal(
            store.query(0, 200).counters,
            monolithic(ts, values, 0, 200).counters,
        )

    def test_auto_retention_evict(self, events):
        ts, values = events
        store = WindowedSketchStore(
            TW_SPEC, bucket_width=10, retention_buckets=5,
            retention_policy="evict",
        )
        store.ingest(ts, values)
        assert store.span_count == 5
        assert store.coverage == (150, 200)

    def test_compact_non_mergeable_kind_clear_error(self):
        spec = SketchSpec("naivesampling", {"s": 8, "seed": 0})
        store = WindowedSketchStore(spec, bucket_width=10)
        store.ingest([5, 15], [1, 2])
        with pytest.raises(TypeError, match="does not support merging"):
            store.compact()

    def test_compact_retention_rejected_for_non_mergeable_kind(self):
        # Validated at construction, not mid-ingest: auto-retention
        # fires after every batch and would otherwise explode with the
        # batch already applied.
        spec = SketchSpec("naivesampling", {"s": 8, "seed": 0})
        with pytest.raises(ValueError, match="evict"):
            WindowedSketchStore(spec, bucket_width=10, retention_buckets=2)
        # evict retention is the supported policy for samplers
        store = WindowedSketchStore(
            spec, bucket_width=10, retention_buckets=2,
            retention_policy="evict",
        )
        store.ingest([5, 15, 25, 35], [1, 2, 3, 4])
        assert store.span_count == 2


class TestNonMergeableKinds:
    def test_single_span_query_is_detached_copy(self, rng):
        spec = SketchSpec("naivesampling", {"s": 16, "seed": 3})
        store = WindowedSketchStore(spec, bucket_width=10)
        values = rng.integers(0, 50, size=500)
        store.ingest(np.full(500, 5), values)
        window = store.query(0, 10)
        expected = spec.build()
        expected.update_from_stream(values)
        assert window.to_dict() == expected.to_dict()
        window.insert(1)  # must not touch the stored bucket
        assert store.query(0, 10).to_dict() == expected.to_dict()

    def test_multi_span_query_raises_merge_unsupported(self, rng):
        spec = SketchSpec("samplecount", {"s1": 8, "s2": 2, "seed": 3})
        store = WindowedSketchStore(spec, bucket_width=10)
        store.ingest([5, 15], [1, 2])
        with pytest.raises(MergeUnsupportedError):
            store.query(0, 20)

    def test_frequency_kind_windows_are_exact(self, events):
        ts, values = events
        store = WindowedSketchStore(SketchSpec("frequency"), bucket_width=10)
        store.ingest(ts, values)
        window = store.query(30, 90)
        mask = (ts >= 30) & (ts < 90)
        assert isinstance(window, FrequencyVector)
        assert window.estimate() == float(self_join_size(values[mask]))


class TestSnapshotRestore:
    def test_round_trip_then_continued_ingestion_bit_identical(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts[:3000], values[:3000])
        payload = json.loads(json.dumps(store.to_dict()))  # through JSON
        restored = WindowedSketchStore.from_dict(payload)
        store.ingest(ts[3000:], values[3000:])
        restored.ingest(ts[3000:], values[3000:])
        assert store.to_dict() == restored.to_dict()

    def test_restore_preserves_config(self):
        store = WindowedSketchStore(
            TW_SPEC, bucket_width=7, origin=-3,
            retention_buckets=9, retention_policy="evict",
        )
        clone = WindowedSketchStore.from_dict(store.to_dict())
        assert clone.bucket_width == 7 and clone.origin == -3
        assert clone.retention_buckets == 9
        assert clone.retention_policy == "evict"

    def test_restore_rejects_wrong_kind(self):
        with pytest.raises(SketchPayloadError, match="windowed-store"):
            WindowedSketchStore.from_dict({"kind": "tugofwar"})
        with pytest.raises(SketchPayloadError):
            WindowedSketchStore.from_dict("not a mapping")

    def test_restore_rejects_missing_fields(self):
        payload = WindowedSketchStore(TW_SPEC, bucket_width=10).to_dict()
        del payload["bucket_width"]
        with pytest.raises(SketchPayloadError, match="corrupt"):
            WindowedSketchStore.from_dict(payload)

    def test_restore_wraps_validation_errors(self):
        # Constructor/structure ValueErrors must surface as payload
        # errors, not leak as bare ValueError.
        base = WindowedSketchStore(TW_SPEC, bucket_width=10)
        base.ingest([5], [1])
        for mutate in (
            lambda p: p.__setitem__("bucket_width", 0),
            lambda p: p.__setitem__("retention_policy", "weird"),
            lambda p: p.__setitem__("spans", [p["spans"][0][:2]]),
        ):
            payload = base.to_dict()
            mutate(payload)
            with pytest.raises(SketchPayloadError, match="corrupt"):
                WindowedSketchStore.from_dict(payload)

    def test_restore_keeps_unknown_kind_error_actionable(self):
        payload = WindowedSketchStore(TW_SPEC, bucket_width=10).to_dict()
        payload["spec"]["kind"] = "alien"
        with pytest.raises(UnknownSketchKindError, match="registered kinds"):
            WindowedSketchStore.from_dict(payload)

    def test_restore_rejects_overlapping_spans(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        payload = store.to_dict()
        payload["spans"][1][0] = payload["spans"][0][0]  # overlap span 0
        with pytest.raises(SketchPayloadError, match="overlap"):
            WindowedSketchStore.from_dict(payload)

    def test_restore_rejects_empty_span(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([5], [1])
        payload = store.to_dict()
        payload["spans"][0][1] = payload["spans"][0][0]
        with pytest.raises(SketchPayloadError, match="empty span"):
            WindowedSketchStore.from_dict(payload)


class TestIntrospection:
    def test_spans_and_memory(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        assert store.coverage is None and len(store) == 0
        store.ingest(ts, values)
        assert store.spans[0] == (0, 10) and store.spans[-1] == (190, 200)
        # A bucket holds its exact histogram, 2 words per distinct value,
        # until that reaches the 32x3 sketch's 96 words; on this fixture
        # the 20 buckets come to 1,918 words.
        distinct = [np.unique(values[ts // 10 == b]).size for b in range(20)]
        assert store.memory_words == sum(min(2 * d, 96) for d in distinct)
        assert store.memory_words == 1918
        assert store.bucket_of(0) == 0 and store.bucket_of(-1) == -1
        assert store.bucket_bounds(3) == (30, 40)


def sparse_rows(store) -> int:
    """How many of the store's spans hold a sparse row."""
    return sum(isinstance(span.row, SparseRow) for span in store._spans)


def dense_store(spec=TW_SPEC) -> WindowedSketchStore:
    """A store whose bucket [0, 10) already holds its sketch."""
    store = WindowedSketchStore(spec, bucket_width=10)
    store.ingest([1] * 60, range(60))
    assert sparse_rows(store) == 0
    return store


#: One small spec per linear kind of fixed size: 24 words each, so a
#: bucket holds its histogram until it has 12 distinct values.
SPARSE_SPECS = [
    SketchSpec("tugofwar", {"s1": 8, "s2": 3, "seed": 3}),
    SketchSpec("fk_moments", {"k": 3, "s1": 4, "s2": 2, "seed": 3}),
    SketchSpec("f0", {"s1": 8, "s2": 3, "seed": 3}),
]


class TestSparseRows:
    """A bucket of a linear kind keeps its exact (value, count) histogram
    until 2 words per value reach the sketch's words (TW_SPEC: 96)."""

    def test_small_bucket_holds_two_words_per_value(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([1, 2, 3, 4], [5, 6, 5, 7])
        assert store.memory_words == 6 and sparse_rows(store) == 1
        store.ingest([5], [6], counts=[-1])  # 6's net count is 0: dropped
        assert store.memory_words == 4
        assert store.query(0, 10).n == 3

    def test_densifies_once_as_large_as_the_sketch_and_stays(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([1] * 47, range(47))
        assert store.memory_words == 94 and sparse_rows(store) == 1
        store.ingest([1], [47])
        assert store.memory_words == 96 and sparse_rows(store) == 0
        store.ingest([1] * 48, range(48), counts=[-1] * 48)
        assert store.memory_words == 96 and store.query(0, 10).n == 0

    @pytest.mark.parametrize(
        "spec, densify_at",
        [
            # Folding v values updates v x words counters: a row densifies
            # at 5,120 of them, or when its pairs take the sketch's words.
            (SketchSpec("tugofwar", {"s1": 64, "s2": 5, "seed": 3}), 16),
            (SketchSpec("tugofwar", {"s1": 256, "s2": 5, "seed": 3}), 4),
            (SketchSpec("fk_moments", {"k": 3, "s1": 64, "s2": 5, "seed": 3}), 6),
            (TW_SPEC, 48),  # 96 words: the words bind first
            (SketchSpec("tugofwar", {"s1": 1024, "s2": 5, "seed": 3}), 1),
        ],
        ids=["64x5", "256x5", "fk-3x64x5", "32x3", "1024x5"],
    )
    def test_densifies_when_too_big_to_hold_or_to_fold(self, spec, densify_at):
        store = WindowedSketchStore(spec, bucket_width=10)
        store.ingest([1] * (densify_at - 1), range(densify_at - 1))
        assert store.memory_words == 2 * (densify_at - 1)
        store.ingest([1], [densify_at - 1])
        assert store.memory_words == spec.memory_words
        assert sparse_rows(store) == 0

    def test_sparse_rows_follow_the_sketch_class(self, monkeypatch):
        # The store reads "linear, of fixed size" off the sketch class
        # through the spec: frequency (sized by its data) and samplecount
        # (not linear) keep their sketches.
        for spec in (
            SketchSpec("frequency"),
            SketchSpec("samplecount", {"s1": 4, "s2": 2, "seed": 1}),
        ):
            store = WindowedSketchStore(spec, bucket_width=10)
            store.ingest([1], [5])
            assert sparse_rows(store) == 0
        monkeypatch.setattr(TugOfWarSketch, "is_fixed_size", False)
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([1], [5])
        assert sparse_rows(store) == 0 and store.memory_words == 96

    @pytest.mark.parametrize("spec", SPARSE_SPECS, ids=lambda s: s.kind)
    def test_answers_and_payload_bit_identical_to_sketches(self, spec, rng):
        # Signed, out-of-order batches: some buckets stay sparse, some
        # densify; every bucket and window must answer as the sketch of
        # its net histogram, and the payload must be that sketch's.
        store = WindowedSketchStore(spec, bucket_width=10)
        ts = rng.integers(0, 80, size=400)
        values = rng.integers(0, np.where(ts < 40, 6, 60))
        store.ingest(ts, values)
        store.ingest(ts[:50], values[:50], counts=np.full(50, -1))
        assert 0 < sparse_rows(store) < store.span_count

        def reference(lo, hi):
            sketch = spec.build()
            sel = (ts >= lo) & (ts < hi)
            counts = np.where(np.arange(ts.size) < 50, 0, 1)[sel]
            sketch.update_from_frequencies(values[sel], counts)
            return sketch

        payload = store.to_dict()
        for start, end, dumped in payload["spans"]:
            assert dumped == dump_sketch(reference(start * 10, end * 10))
        for lo, hi in ((0, 80), (30, 50), (0, 10), (70, 80)):
            got, want = store.query(lo, hi), reference(lo, hi)
            assert got.n == want.n
            assert np.array_equal(got.counters, want.counters)
        assert sum(store.query(b * 10, b * 10 + 10).n for b in range(8)) == 350

    @pytest.mark.parametrize("spec", SPARSE_SPECS, ids=lambda s: s.kind)
    def test_incremental_batches_match_one_batch(self, spec, rng):
        # Rows that densify part way through a run of batches end as the
        # rows one batch of the same events builds, bit for bit.
        ts = rng.integers(0, 80, size=600)
        values = rng.integers(0, np.where(ts < 40, 6, 60))
        one = WindowedSketchStore(spec, bucket_width=10)
        one.ingest(ts, values)
        many = WindowedSketchStore(spec, bucket_width=10)
        for lo in range(0, 600, 150):
            many.ingest(ts[lo : lo + 150], values[lo : lo + 150])
        assert 0 < sparse_rows(many) < many.span_count
        assert many.to_dict() == one.to_dict()
        assert many.memory_words == one.memory_words

    def test_compaction_over_mixed_rows_is_exact(self, rng):
        spec = SPARSE_SPECS[0]
        store = WindowedSketchStore(spec, bucket_width=10)
        ts = rng.integers(0, 60, size=300)
        values = rng.integers(0, np.where(ts < 30, 5, 40))
        store.ingest(ts, values)
        assert 0 < sparse_rows(store) < store.span_count
        whole = store.query(0, 60)
        store.compact(before=30)  # only sparse rows: the result may stay sparse
        store.compact()  # a dense row among them: the result is a sketch
        assert store.span_count == 1 and sparse_rows(store) == 0
        got = store.query(0, 60)
        assert got.n == whole.n and np.array_equal(got.counters, whole.counters)

    def test_compacting_small_rows_keeps_them_sparse(self):
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest([1, 11, 21], [4, 4, 9])
        store.compact()
        assert store.bucket_spans == [(0, 3)] and sparse_rows(store) == 1
        assert store.memory_words == 4 and store.query(0, 30).n == 3

    def test_restore_holds_sketches(self, events):
        ts, values = events
        store = WindowedSketchStore(TW_SPEC, bucket_width=10)
        store.ingest(ts, values)
        assert sparse_rows(store) > 0
        restored = WindowedSketchStore.from_dict(store.to_dict())
        assert sparse_rows(restored) == 0
        assert restored.memory_words == store.span_count * 96
        assert restored.to_dict() == store.to_dict()

    def test_refusals_match_the_sketch_and_change_nothing(self):
        messages = []
        for store in (WindowedSketchStore(TW_SPEC, bucket_width=10), dense_store()):
            store.ingest([2], [70])
            before = store.to_dict()
            refused = []
            for batch in (
                ([3, 4], [5, -1], None),
                ([3, 4], [2147483647, 5], [1, 1]),
                ([3], [5], [-1000]),
            ):
                with pytest.raises(ValueError) as info:
                    store.ingest(*batch[:2], counts=batch[2])
                refused.append(str(info.value))
            assert store.to_dict() == before
            messages.append(refused)
        assert messages[0] == messages[1]

    def test_refused_multi_chunk_batch_changes_nothing(self):
        # 2,000 distinct values fill two 1,024-value scatter chunks and
        # the last is outside the field: no chunk may land, in a dense
        # bucket or a fresh one.
        spec = SPARSE_SPECS[0]
        store = dense_store(spec)
        values = np.arange(2000)
        values[-1] = 2147483647
        before = store.query(0, 10)
        for t in (0, 10):
            with pytest.raises(ValueError, match="contain 2147483647"):
                store.ingest(np.full(2000, t), values)
        after = store.query(0, 10)
        assert after.n == before.n
        assert np.array_equal(after.counters, before.counters)
        fresh = store.query(10, 20)
        assert fresh.n == 0 and not fresh.counters.any()

    @pytest.mark.parametrize("counts", [None, [1, 2]], ids=["stream", "counted"])
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_field_refusal_carries_no_deletion_hint(self, counts, dense):
        store = dense_store() if dense else WindowedSketchStore(TW_SPEC, 10)
        with pytest.raises(ValueError) as info:
            store.ingest([3, 4], [5, -1], counts=counts)
        assert str(info.value) == (
            "bucket span [0, 10): values contain -1, outside the field "
            "[0, 2147483647)"
        )

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_refused_deletion_keeps_the_hint(self, dense):
        store = dense_store() if dense else WindowedSketchStore(TW_SPEC, 10)
        with pytest.raises(ValueError) as info:
            store.ingest([15], [7], counts=[-1])
        assert str(info.value) == (
            "bucket span [10, 20): batch would make the multiset size "
            "negative (deletions must carry the timestamp of the insert "
            "they reverse)"
        )
