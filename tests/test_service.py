"""Tests for the concurrent estimation service (repro.service).

Covers the three service guarantees — snapshot isolation, precise
merged-window cache invalidation, single-flight coalescing — plus the
line-delimited JSON server, both in-process and over a real socket.
The headline test interleaves ingest/query/compact from many threads
and demands estimates bit-identical to a serial replay of the same
operations (linearity of the tug-of-war counters makes the comparison
exact, not approximate).
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.bounds import ktw_join_error_bound
from repro.core.frequency import join_size, self_join_size
from repro.service import (
    SingleFlightCache,
    SketchService,
    SketchServiceServer,
    handle_request,
)
from repro.service import wire
from repro.service.service import dirty_intervals
from repro.store import (
    KeyedSketchStore,
    SketchSpec,
    WindowAlignmentError,
    WindowedSketchStore,
)


def make_store(**kwargs) -> WindowedSketchStore:
    spec = SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 7})
    return WindowedSketchStore(spec, bucket_width=10, **kwargs)


def make_service(**kwargs) -> SketchService:
    return SketchService(make_store(**kwargs))


def make_fleet() -> KeyedSketchStore:
    spec = SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 7})
    return KeyedSketchStore(spec, bucket_width=10)


class TestServiceBasics:
    def test_rejects_non_store(self):
        with pytest.raises(TypeError, match="WindowedSketchStore"):
            SketchService(object())

    def test_estimate_matches_plain_store(self, rng):
        ts = rng.integers(0, 100, size=2000)
        values = rng.integers(0, 50, size=2000)
        service = make_service()
        service.ingest(ts, values)
        plain = make_store()
        plain.ingest(ts, values)
        for window in [(0, 100), (20, 60), (90, 100)]:
            assert service.estimate(*window) == plain.estimate(*window)

    def test_query_returns_detached_copy(self):
        service = make_service()
        service.ingest([1, 2, 3], [5, 6, 5])
        first = service.query(0, 10)
        reference = first.counters.copy()
        first.insert(99)  # must not corrupt the cached sketch
        assert np.array_equal(service.query(0, 10).counters, reference)

    def test_second_query_is_a_cache_hit(self):
        service = make_service()
        service.ingest([1, 2], [5, 6])
        service.estimate(0, 10)
        before = service.stats()
        service.estimate(0, 10)
        after = service.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_estimate_window_reports_resolved_bounds(self):
        service = make_service()
        service.ingest([5, 25], [1, 2])
        result = service.estimate_window(5, 25, align="outer")
        assert (result.t0, result.t1) == (0, 30)
        assert result.estimate == service.estimate(0, 30)

    def test_alignment_errors_propagate(self):
        service = make_service()
        service.ingest([5], [1])
        with pytest.raises(WindowAlignmentError):
            service.estimate(3, 10)
        with pytest.raises(ValueError, match="empty window"):
            service.estimate(10, 10)

    def test_snapshot_round_trips(self, rng):
        service = make_service()
        service.ingest(rng.integers(0, 50, size=500), rng.integers(0, 9, size=500))
        restored = WindowedSketchStore.from_dict(service.snapshot())
        assert restored.estimate(0, 50) == service.estimate(0, 50)

    def test_introspection_matches_store(self):
        service = make_service()
        service.ingest([1, 15], [3, 4])
        assert service.span_count == 2
        assert service.coverage == (0, 20)
        assert service.spans == [(0, 10), (10, 20)]
        assert service.bucket_width == 10 and service.origin == 0
        assert service.memory_words > 0


class TestCacheInvalidation:
    def test_out_of_order_ingest_invalidates_covered_window(self):
        service = make_service()
        service.ingest([1, 2, 15], [5, 6, 7])
        service.estimate(0, 20)  # cached
        # A late arrival routed into bucket 0 must drop the cached
        # entry; the next estimate is the fresh merge, bit-identical
        # to a store that saw all four events.
        service.ingest([3], [5])
        fresh = make_store()
        fresh.ingest([1, 2, 15, 3], [5, 6, 7, 5])
        assert service.estimate(0, 20) == fresh.estimate(0, 20)
        assert service.stats()["invalidated"] >= 1

    def test_untouched_windows_stay_cached(self):
        service = make_service()
        service.ingest([1, 2], [5, 6])
        service.estimate(0, 10)
        invalidated_before = service.stats()["invalidated"]
        service.ingest([55], [9])  # far-away bucket
        assert service.stats()["invalidated"] == invalidated_before
        before = service.stats()["hits"]
        service.estimate(0, 10)
        assert service.stats()["hits"] == before + 1

    def test_compact_invalidates_bridged_gap_windows(self):
        # Spans [0,10) and [50,60) with a cached (empty) window over
        # the gap: compaction bridges the gap into one span, after
        # which a strict query over the gap must raise exactly like a
        # fresh store — serving the stale cached answer would be wrong.
        service = make_service()
        service.ingest([5, 55], [1, 2])
        assert service.estimate(20, 40) == 0.0  # empty gap, cached
        service.compact()
        with pytest.raises(WindowAlignmentError, match="splits the compacted span"):
            service.estimate(20, 40)

    def test_evict_invalidates_forgotten_windows(self):
        service = make_service()
        service.ingest([5, 15, 25], [1, 2, 3])
        service.estimate(0, 10)
        assert service.evict(20) == 2
        fresh = make_store()
        fresh.ingest([25], [3])
        assert service.estimate(0, 30) == fresh.estimate(0, 30)

    def test_failed_ingest_still_invalidates(self):
        # A rejected batch may be partially applied; the cache must not
        # keep serving the pre-batch answer for touched buckets.
        spec = SketchSpec("frequency", {})
        service = SketchService(WindowedSketchStore(spec, bucket_width=10))
        service.ingest([1, 2], [5, 6])
        service.estimate(0, 10)
        with pytest.raises(ValueError, match="bucket span"):
            # valid insert into bucket 0 + unmatched delete in bucket 1
            service.ingest([3, 15], [5, 9], counts=[1, -1])
        restored = WindowedSketchStore.from_dict(service.snapshot())
        assert service.estimate(0, 10) == restored.estimate(0, 10)

    def test_dirty_intervals_cover_touched_compacted_span(self):
        store = make_store()
        store.ingest([5, 15, 25], [1, 2, 3])
        store.compact()
        before = store.bucket_spans
        store.ingest([7], [9])  # lands inside the compacted [0, 3) span
        assert dirty_intervals(store, before, [0]) == [(0, 3)]


class TestCoalescing:
    class SlowStore(WindowedSketchStore):
        """A store whose merges are slow enough to overlap reliably."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.query_calls = 0

        def query_resolved(self, lo, hi):
            self.query_calls += 1
            time.sleep(0.05)
            return super().query_resolved(lo, hi)

    def test_concurrent_identical_queries_share_one_merge(self, rng):
        spec = SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 7})
        store = self.SlowStore(spec, bucket_width=10)
        store.ingest(rng.integers(0, 100, size=1000), rng.integers(0, 20, size=1000))
        service = SketchService(store)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list[float] = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            est = service.estimate(0, 100)
            with lock:
                results.append(est)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert store.query_calls == 1  # single flight: one merge for all 8
        stats = service.stats()
        assert stats["coalesced"] == n_threads - 1

    def test_waiters_see_leader_errors(self):
        service = make_service()
        service.ingest([5], [1])
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        failures: list[type] = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                service.estimate(3, 40)  # misaligned: every caller must see it
            except WindowAlignmentError:
                with lock:
                    failures.append(WindowAlignmentError)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(failures) == n_threads


class TestSingleFlightCacheUnit:
    def test_lru_eviction(self):
        cache = SingleFlightCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get(key, lambda k=key: (k.upper(), [(None, 0, 1)]))
        assert len(cache) == 2
        calls = []
        cache.get("a", lambda: (calls.append(1) or "A2", [(None, 0, 1)]))
        assert calls == [1]  # "a" was evicted, so it recomputes

    def test_invalidate_by_tag_and_range(self):
        cache = SingleFlightCache()
        cache.get("x", lambda: (1, [("F", 0, 4)]))
        cache.get("y", lambda: (2, [("G", 0, 4)]))
        assert cache.invalidate("F", [(3, 10)]) == 1
        assert cache.get("y", lambda: (3, [("G", 0, 4)])) == 2  # still cached

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SingleFlightCache(max_entries=0)

    def test_stale_flight_replaced_by_fresh_leader(self):
        # A mutation mid-flight: waiters of the old flight get its
        # (uncached) result; the next arrival leads a replacement
        # flight whose result is cached again.
        cache = SingleFlightCache()
        started = threading.Event()
        release = threading.Event()

        def slow_compute():
            started.set()
            assert release.wait(5)
            return "old", [(None, 0, 1)]

        results = {}
        leader = threading.Thread(
            target=lambda: results.update(old=cache.get("k", slow_compute))
        )
        leader.start()
        assert started.wait(5)
        cache.invalidate(None, [(0, 1)])  # marks the in-flight leader stale
        assert cache.get("k", lambda: ("new", [(None, 0, 1)])) == "new"
        release.set()
        leader.join(timeout=5)
        assert results["old"] == "old"  # overlapping caller keeps its result
        # The replacement was cached; the stale result was not.
        assert cache.get("k", lambda: ("recomputed", [])) == "new"


#: The streams each store shape serves, as the ``key=`` kwargs naming them.
STREAMS = {"stream": ({},), "fleet": ({"key": "k0"}, {"key": "k1"})}


def _join_all(threads, timeout: float = 60.0) -> None:
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), f"{t.name} did not finish in {timeout} s"


@pytest.fixture
def fast_switching():
    """Switch threads far more often, so the interleavings are denser."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("fast_switching")
@pytest.mark.parametrize("shape", sorted(STREAMS))
class TestLinearizabilityStress:
    """Interleaved ingest/query/compact vs a serial replay, bit for bit.

    Over a fleet each ingester writes its batches to two keys in turn
    and every check is made per key.
    """

    N_INGEST_THREADS = 4
    BATCHES_PER_THREAD = 12
    BATCH = 64  # events per batch, all inside the hot region

    def _batches(self):
        """Deterministic per-thread batches over the hot region [0, 400)."""
        out = []
        for t in range(self.N_INGEST_THREADS):
            rng = np.random.default_rng(1000 + t)
            thread_batches = []
            for _ in range(self.BATCHES_PER_THREAD):
                ts = rng.integers(0, 400, size=self.BATCH)
                vals = rng.integers(0, 30, size=self.BATCH)
                thread_batches.append((ts, vals))
            out.append(thread_batches)
        return out

    @staticmethod
    def _service(shape) -> SketchService:
        return SketchService(make_store() if shape == "stream" else make_fleet())

    @staticmethod
    def _routed(shape, thread_batches):
        """A thread's batches with the stream each goes to, in turn."""
        streams = STREAMS[shape]
        return [
            (streams[i % len(streams)], ts, vals)
            for i, (ts, vals) in enumerate(thread_batches)
        ]

    @staticmethod
    def _serial(shape, history):
        """Replay ``(stream, ts, vals)`` in order: the store, per-stream stores."""
        if shape == "stream":
            store = make_store()
            for _, ts, vals in history:
                store.ingest(ts, vals)
            return store, [store]
        fleet = make_fleet()
        for stream, ts, vals in history:
            fleet.ingest(stream["key"], ts, vals)
        return fleet, [fleet.store_for(s["key"]) for s in STREAMS[shape]]

    def test_concurrent_history_matches_serial_replay(self, shape):
        service = self._service(shape)
        streams = STREAMS[shape]
        # Stable region far from the hot buckets, loaded into every
        # stream before any concurrency: its estimate is the
        # snapshot-isolation canary (equal per stream: same events).
        stable_rng = np.random.default_rng(5)
        stable_ts = stable_rng.integers(1000, 1100, size=500)
        stable_vals = stable_rng.integers(0, 30, size=500)
        for stream in streams:
            service.ingest(stable_ts, stable_vals, **stream)
        stable_estimate = service.estimate(1000, 1100, **streams[0])

        batches = self._batches()
        errors: list[BaseException] = []
        stop = threading.Event()

        def ingester(thread_batches):
            try:
                for stream, ts, vals in self._routed(shape, thread_batches):
                    service.ingest(ts, vals, **stream)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def querier():
            try:
                while not stop.is_set():
                    for stream in streams:
                        # Canary: concurrent ingest into [0, 400) must
                        # never perturb the stable window — bit-identical
                        # always.
                        assert (
                            service.estimate(1000, 1100, **stream)
                            == stable_estimate
                        )
                        # Atomicity: every batch lands whole, so the hot
                        # region's multiset size is always a multiple of
                        # the batch size (a torn batch would break this).
                        hot = service.query(0, 400, align="outer", **stream)
                        assert hot.n % self.BATCH == 0, (
                            f"torn batch visible: n={hot.n}"
                        )
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def compactor():
            try:
                while not stop.is_set():
                    service.compact(before=200)  # every key of a fleet
                    time.sleep(0.002)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        ingesters = [
            threading.Thread(target=ingester, args=(b,)) for b in batches
        ]
        others = [threading.Thread(target=querier) for _ in range(2)]
        others.append(threading.Thread(target=compactor))
        for t in others:
            t.start()
        for t in ingesters:
            t.start()
        try:
            _join_all(ingesters)
        finally:
            stop.set()
        _join_all(others)
        assert not errors, errors

        # Serial replay: same batches, one thread, arbitrary fixed
        # order, same compaction horizon.  Linearity demands final
        # estimates bit-identical to the concurrent history.
        history = [(stream, stable_ts, stable_vals) for stream in streams]
        for thread_batches in batches:
            history.extend(self._routed(shape, thread_batches))
        serial, per_stream = self._serial(shape, history)
        serial.compact(before=200)
        # (0, 400, "outer") is the window the queriers kept cached.
        windows = [(0, 400, "outer"), (0, 400, "strict"), (0, 200, "strict"),
                   (200, 400, "strict"), (0, 1100, "strict"),
                   (1000, 1100, "strict")]
        for stream, store in zip(streams, per_stream):
            for window in windows:
                assert service.estimate(*window, **stream) == store.estimate(*window)
                assert np.array_equal(
                    service.query(*window, **stream).counters,
                    store.query(*window).counters,
                )

    def test_concurrent_out_of_order_ingest_invalidation(self, shape):
        # Writers repeatedly ingest *into already-queried buckets*
        # (every batch is out of order w.r.t. the queries); each
        # post-join estimate must equal the serial replay exactly.
        service = self._service(shape)
        streams = STREAMS[shape]
        batches = self._batches()
        barrier = threading.Barrier(self.N_INGEST_THREADS + 1)

        def ingester(thread_batches):
            barrier.wait()
            for stream, ts, vals in self._routed(shape, thread_batches):
                service.ingest(ts, vals, **stream)

        def querier():
            barrier.wait()
            for _ in range(50):
                for stream in streams:
                    service.estimate(0, 400, align="outer", **stream)

        threads = [
            threading.Thread(target=ingester, args=(b,)) for b in batches
        ] + [threading.Thread(target=querier)]
        for t in threads:
            t.start()
        _join_all(threads)

        history = []
        for thread_batches in batches:
            history.extend(self._routed(shape, thread_batches))
        _, per_stream = self._serial(shape, history)
        for stream, store in zip(streams, per_stream):
            for align in ("outer", "strict"):  # "outer" was cached mid-run
                assert service.estimate(0, 400, align, **stream) == store.estimate(
                    0, 400, align
                )


#: A windowed relation catalog's spec: 640 words per bucket sketch.
JOIN_SPEC = SketchSpec("tugofwar", {"s1": 128, "s2": 5, "seed": 11})


def make_joins(spec: SketchSpec = JOIN_SPEC) -> SketchService:
    """A windowed relation catalog: each relation is a fleet key."""
    return SketchService(KeyedSketchStore(spec, bucket_width=10))


@pytest.fixture
def relations(rng):
    """Two relations' timestamped tuple streams over [0, 100)."""
    n = 4000
    return {
        name: (rng.integers(0, 100, size=n), rng.integers(0, 40, size=n))
        for name in ("A", "B")
    }


@pytest.fixture
def joins(relations) -> SketchService:
    service = make_joins()
    for name, (ts, values) in relations.items():
        service.ingest(ts, values, key=name)
    return service


def window_values(relations, name, t0, t1):
    ts, values = relations[name]
    return values[(ts >= t0) & (ts < t1)]


class TestWindowedJoinEstimates:
    def test_windowed_join_close_to_exact(self, joins, relations):
        for t0, t1 in ((0, 100), (20, 60)):
            exact = join_size(
                window_values(relations, "A", t0, t1),
                window_values(relations, "B", t0, t1),
            )
            est = joins.join_estimate("A", "B", t0, t1)
            assert est == pytest.approx(exact, rel=0.5)

    def test_windowed_self_join_close_to_exact(self, joins, relations):
        exact = self_join_size(window_values(relations, "A", 30, 80))
        est = joins.at_window(30, 80).self_join_estimate("A")
        assert est == pytest.approx(exact, rel=0.5)

    @pytest.mark.parametrize(
        "t0, t1, align, covered",
        [
            (0, 100, "strict", (0, 100)),
            (20, 60, "strict", (20, 60)),
            (5, 55, "outer", (0, 60)),
        ],
        ids=["strict-0-100", "strict-20-60", "outer-5-55"],
    )
    def test_join_equals_monolithic_sketches(
        self, joins, relations, t0, t1, align, covered
    ):
        """The maintenance guarantee: a window's join is exactly the
        inner product of sketches maintained over only that window."""
        lhs, rhs = JOIN_SPEC.build(), JOIN_SPEC.build()
        lhs.update_from_stream(window_values(relations, "A", *covered))
        rhs.update_from_stream(window_values(relations, "B", *covered))
        assert joins.join_estimate("A", "B", t0, t1, align) == lhs.inner_product(
            rhs
        )

    def test_join_error_bound_is_lemma_4_4(self, joins):
        sj_a, sj_b = (
            max(0.0, joins.estimate(0, 100, key=name)) for name in ("A", "B")
        )
        bound = joins.join_error_bound("A", "B", 0, 100)
        assert bound == ktw_join_error_bound(sj_a, sj_b, 640) > 0.0

    def test_misaligned_window_raises(self, joins):
        with pytest.raises(WindowAlignmentError):
            joins.join_estimate("A", "B", 5, 60)

    def test_outer_alignment_uses_one_common_window(self, joins):
        # After compacting only A, an outer window that splits A's big
        # span must expand *both* relations to the same effective
        # window — never compare A over [0,100) against B over [40,60).
        full = joins.join_estimate("A", "B", 0, 100)
        joins.compact(key="A")  # A becomes one span [0, 100)
        assert joins.window_bounds(40, 60, "outer", key="A") == (0, 100)
        assert joins.window_bounds(40, 60, "outer", key="B") == (40, 60)
        assert joins.join_estimate("A", "B", 40, 60, align="outer") == full
        assert joins.join_estimate("A", "B", 0, 100) == full

    def test_memory_words(self, joins):
        # 2 relations x 10 buckets x 640 words: a bucket's 40 distinct
        # values are too many to fold into a 640-word sketch per query,
        # so every bucket holds its sketch.
        assert joins.memory_words == 2 * 10 * 640

    def test_compaction_keeps_joins(self, joins):
        full = joins.join_estimate("A", "B", 0, 100)
        for name in ("A", "B"):
            joins.compact(before=50, key=name)
        assert joins.join_estimate("A", "B", 0, 100) == full

    def test_deletes_update_window_estimates(self):
        service = make_joins(SketchSpec("tugofwar", {"s1": 12, "s2": 5, "seed": 2}))
        service.ingest([5, 5], [9, 9], key="A")
        with_dupes = service.at_window(0, 10).self_join_estimate("A")
        service.ingest([5], [9], counts=[-1], key="A")
        assert service.at_window(0, 10).self_join_estimate("A") < with_dupes

    def test_default_seed_still_merges_and_joins(self, relations):
        # With no explicit seed the spec pins fresh entropy once, so
        # buckets and relations still share one hash family.
        service = make_joins(SketchSpec("tugofwar", {"s1": 12, "s2": 5}))
        for name, (ts, values) in relations.items():
            service.ingest(ts, values, key=name)
        assert service.join_estimate("A", "B", 0, 100) >= 0.0
        assert service.at_window(20, 60).self_join_estimate("A") >= 0.0


class TestFleetJoins:
    """One cache entry per pair and window, tagged with both keys."""

    SPEC = SketchSpec("tugofwar", {"s1": 32, "s2": 2, "seed": 3})

    def test_join_matches_the_raw_fleet(self, rng):
        service = make_joins(self.SPEC)
        plain = KeyedSketchStore(self.SPEC, bucket_width=10)
        for name in ("F", "G"):
            ts, vals = rng.integers(0, 50, size=400), rng.integers(0, 9, size=400)
            service.ingest(ts, vals, key=name)
            plain.ingest(name, ts, vals)
        expected = plain.query("F", 0, 50).inner_product(plain.query("G", 0, 50))
        assert service.join_estimate("F", "G", 0, 50) == expected
        assert service.at_window(0, 50).self_join_estimate("F") == plain.estimate(
            "F", 0, 50
        )

    def test_pair_order_and_bound_share_one_entry(self):
        service = make_joins(self.SPEC)
        service.ingest([1], [2], key="F")
        service.ingest([1], [2], key="G")
        a = service.join_estimate("F", "G", 0, 10)
        b = service.join_estimate("G", "F", 0, 10)
        bound = service.join_error_bound("G", "F", 0, 10)
        assert a == b and bound == service.join_error_bound("F", "G", 0, 10)
        stats = service.stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 3, 1)

    def test_ingest_drops_only_the_entries_naming_its_key(self):
        service = make_joins(self.SPEC)
        for name in ("F", "G", "H"):
            service.ingest([1, 15], [2, 3], key=name)
        service.join_estimate("F", "G", 0, 10)
        service.join_estimate("F", "H", 0, 10)
        service.estimate(0, 10, key="H")
        invalidated = service.stats()["invalidated"]
        service.ingest([5], [4], key="H")
        assert service.stats()["invalidated"] == invalidated + 2
        hits, misses = service.stats()["hits"], service.stats()["misses"]
        service.join_estimate("F", "G", 0, 10)  # untouched pair: still hot
        service.join_estimate("H", "F", 0, 10)  # recomputed
        stats = service.stats()
        assert (stats["hits"], stats["misses"]) == (hits + 1, misses + 1)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda service: service.evict(before=20, key="F"),
            lambda service: service.restore(
                WindowedSketchStore(TestFleetJoins.SPEC, 10).to_dict(), key="F"
            ),
        ],
        ids=["evict", "restore"],
    )
    def test_retention_and_restore_drop_pair_entries(self, mutate):
        service = make_joins(self.SPEC)
        service.ingest([1], [2], key="F")
        service.ingest([1], [2], key="G")
        assert service.join_estimate("F", "G", 0, 10) != 0.0
        mutate(service)  # F is empty from here on
        assert service.join_estimate("F", "G", 0, 10) == 0.0
        assert service.join_error_bound("G", "F", 0, 10) == 0.0

    def test_unseen_relation_joins_to_zero(self):
        # No registration: a relation exists once a batch for it is
        # accepted, and one never ingested is an empty stream.
        service = make_joins(self.SPEC)
        service.ingest([1], [2], key="F")
        assert service.join_estimate("F", "nope", 0, 10) == 0.0
        assert service.join_error_bound("nope", "F", 0, 10) == 0.0
        assert service.keys == ["F"]

    def test_kind_without_inner_product_refused(self):
        service = SketchService(
            KeyedSketchStore(SketchSpec("fk_moments", {"s1": 8, "seed": 1}), 10)
        )
        with pytest.raises(TypeError, match="no inner product"):
            service.join_estimate("F", "G", 0, 10)

    def test_single_stream_refuses_join_keys(self):
        # The relation names are positional: the refusal says what a
        # join needs, not a ``key=`` argument the caller never wrote.
        service = make_service()
        calls = [
            lambda: service.join_estimate("F", "G", 0, 10),
            lambda: service.join_error_bound("F", "G", 0, 10),
            lambda: service.at_window(0, 10).join_estimate("F", "G"),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="unkeyed store") as info:
                call()
            assert "keyed fleet, one key per relation" in str(info.value)
            assert "key=" not in str(info.value)

    def test_at_window_drives_the_optimizer(self, rng):
        from repro.planner import JoinGraph, enumerate_greedy

        service = make_joins(self.SPEC)
        sizes = {}
        streams = {
            "A": rng.integers(0, 8, size=600),
            "B": rng.integers(0, 80, size=600),
            "C": rng.integers(40, 120, size=600),
        }
        for name, vals in streams.items():
            service.ingest(rng.integers(0, 50, size=600), vals, key=name)
            sizes[name] = 600
        plan = enumerate_greedy(
            JoinGraph.clique(sizes), service.at_window(0, 50)
        )
        assert sorted(plan.order()) == ["A", "B", "C"]
        assert plan.cost >= 0.0


@pytest.mark.usefixtures("fast_switching")
class TestJoinSnapshot:
    """A join reads both keys in one snapshot, never a torn pair."""

    BATCHES = 3000  # alternately into A and B, 4 events each

    def test_every_join_is_some_prefix_of_the_writes(self):
        spec = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 5})
        rng = np.random.default_rng(9)
        history = [
            ("AB"[i % 2], rng.integers(0, 40, size=4), rng.integers(0, 1000, size=4))
            for i in range(self.BATCHES)
        ]
        # The join after every prefix of the serial history.
        sketches = {"A": spec.build(), "B": spec.build()}
        valid = {0.0}
        for key, _, values in history:
            sketches[key].update_from_stream(values)
            valid.add(sketches["A"].inner_product(sketches["B"]))

        service = make_joins(spec)
        done = threading.Event()
        answers: list[list[float]] = [[], []]
        errors: list[BaseException] = []

        def writer():
            try:
                for key, ts, values in history:
                    service.ingest(ts, values, key=key)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                done.set()

        def reader(out):
            try:
                while not done.is_set():
                    out.append(service.join_estimate("A", "B", 0, 40))
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(out,)) for out in answers]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        _join_all(threads)
        assert not errors, errors
        seen = answers[0] + answers[1]
        torn = [a for a in seen if a not in valid]
        assert not torn, f"{len(torn)} of {len(seen)} joins were torn"
        assert service.join_estimate("A", "B", 0, 40) == sketches["A"].inner_product(
            sketches["B"]
        )


class TestServerRequests:
    @pytest.fixture()
    def service(self, rng) -> SketchService:
        service = make_service()
        service.ingest(rng.integers(0, 100, size=1000), rng.integers(0, 20, size=1000))
        return service

    def send(self, service, request) -> dict:
        return handle_request(service, json.dumps(request))

    def test_ping(self, service):
        assert self.send(service, {"op": "ping"}) == {
            "ok": True, "op": "ping", "pong": True,
        }

    def test_estimate_matches_in_process(self, service):
        response = self.send(service, {"op": "estimate", "from": 0, "until": 100})
        assert response["ok"]
        assert response["estimate"] == service.estimate(0, 100)
        assert response["window"] == [0, 100]

    def test_sketch_round_trips(self, service):
        from repro.engine import load_sketch

        response = self.send(service, {"op": "sketch", "from": 0, "until": 50})
        assert response["ok"]
        sketch = load_sketch(response["sketch"])
        assert np.array_equal(sketch.counters, service.query(0, 50).counters)

    def test_ingest_then_estimate(self, service):
        n_before = service.query(0, 100).n
        response = self.send(
            service,
            {"op": "ingest", "timestamps": [5, 15], "values": [3, 3]},
        )
        assert response == {"ok": True, "op": "ingest", "ingested": 2}
        assert service.query(0, 100).n == n_before + 2

    @pytest.mark.parametrize(
        "column,bad,refusal",
        [
            ("timestamps", [1.7], "must be integer-typed, got float64"),
            ("values", [2.9], "must be integer-typed, got float64"),
            ("values", ["5"], "must be integer-typed, got <U1"),
            ("counts", [1.5], "must be integer-typed, got float64"),
            ("timestamps", [2**63], f"must fit in int64, got {2**63}"),
            # numpy reads these Python ints as float64 and object.
            ("values", [1, 2**63], f"must fit in int64, got {2**63}"),
            ("values", [2**64], f"must fit in int64, got {2**64}"),
            ("counts", [-(2**63) - 1], f"must fit in int64, got {-(2**63)-1}"),
        ],
        ids=[
            "float-ts", "float-values", "str-values", "float-counts", "big-ts",
            "big-values", "huge-values", "small-counts",
        ],
    )
    def test_ingest_refuses_non_integer_columns(self, service, column, bad, refusal):
        # The binary path's rule: pack_ingest refuses the same column
        # with the same words, and nothing is stored, truncated or wrapped.
        columns = {"timestamps": [1], "values": [2], "counts": [1], column: bad}
        refusal = f"{column} {refusal}"
        with pytest.raises(wire.WireError, match=refusal):
            wire.pack_ingest(**columns)
        before = service.snapshot()
        response = self.send(service, {"op": "ingest", **columns})
        assert response == {"ok": False, "error": refusal}
        assert service.snapshot() == before

    def test_ingest_takes_bool_and_empty_columns(self, service):
        n_before = service.query(0, 100).n
        response = self.send(
            service,
            {"op": "ingest", "timestamps": [5], "values": [True], "counts": [2]},
        )
        assert response == {"ok": True, "op": "ingest", "ingested": 1}
        empty = {"op": "ingest", "timestamps": [], "values": [], "counts": []}
        assert self.send(service, empty)["ok"]
        assert service.query(0, 100).n == n_before + 2

    def test_compact_and_info_and_stats(self, service):
        assert self.send(service, {"op": "compact", "before": 50})["folded"] == 5
        info = self.send(service, {"op": "info"})
        assert info["kind"] == "tugofwar" and info["coverage"] == [0, 100]
        assert [0, 50] in info["spans"]  # the compacted span
        stats = self.send(service, {"op": "stats"})
        assert set(stats["cache"]) >= {"hits", "misses", "coalesced"}

    def test_user_errors_are_responses_not_exceptions(self, service):
        cases = [
            "{not json",
            json.dumps(["not", "an", "object"]),
            json.dumps({"no": "op"}),
            json.dumps({"op": "warp"}),
            json.dumps({"op": "estimate"}),  # missing window
            json.dumps({"op": "estimate", "from": 3, "until": 40}),  # misaligned
            json.dumps({"op": "estimate", "from": 40, "until": 3}),  # inverted
            json.dumps({"op": "ingest", "timestamps": 7, "values": [1]}),
            json.dumps({"op": "evict"}),  # missing 'before'
        ]
        for line in cases:
            response = handle_request(service, line)
            assert response["ok"] is False and response["error"], line

    def test_over_the_wire(self, service):
        server = SketchServiceServer(service, ("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as conn:
                wire = conn.makefile("rw", encoding="utf-8")
                for request, check in [
                    ({"op": "ping"}, lambda r: r["pong"] is True),
                    (
                        {"op": "estimate", "from": 0, "until": 100},
                        lambda r: r["estimate"] == service.estimate(0, 100),
                    ),
                    ({"op": "info"}, lambda r: r["kind"] == "tugofwar"),
                ]:
                    wire.write(json.dumps(request) + "\n")
                    wire.flush()
                    response = json.loads(wire.readline())
                    assert response["ok"] and check(response)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_max_requests_shuts_the_server_down(self, service):
        server = SketchServiceServer(service, ("127.0.0.1", 0), max_requests=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as conn:
            wire = conn.makefile("rw", encoding="utf-8")
            for _ in range(2):
                wire.write(json.dumps({"op": "ping"}) + "\n")
                wire.flush()
                assert json.loads(wire.readline())["ok"]
        thread.join(timeout=10)
        assert not thread.is_alive()  # serve_forever returned on its own
        server.server_close()

    def test_snapshot_op_round_trips_the_store(self, service):
        response = self.send(service, {"op": "snapshot"})
        assert response["ok"]
        restored = WindowedSketchStore.from_dict(response["snapshot"])
        assert restored.estimate(0, 100) == service.estimate(0, 100)

    def test_shutdown_op_acks_then_stops_serving(self, service):
        server = SketchServiceServer(service, ("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as conn:
            wire = conn.makefile("rw", encoding="utf-8")
            wire.write(json.dumps({"op": "shutdown"}) + "\n")
            wire.flush()
            response = json.loads(wire.readline())
            assert response == {"ok": True, "op": "shutdown", "stopping": True}
        thread.join(timeout=10)
        assert not thread.is_alive()  # the ack came before the stop
        server.server_close()

    def test_rejects_objects_without_the_service_surface(self):
        with pytest.raises(TypeError, match="serving surface"):
            SketchServiceServer(object())

    def test_rejects_non_positive_read_timeout(self, service):
        with pytest.raises(ValueError, match="read_timeout"):
            SketchServiceServer(service, ("127.0.0.1", 0), read_timeout=0)

    def test_stalled_connection_cannot_block_shutdown(self, service):
        # A dead client holds a socket open without ever sending a full
        # line.  The per-connection read timeout must reclaim its
        # handler thread, so a --max-requests shutdown completes and no
        # thread outlives the server.
        server = SketchServiceServer(
            service, ("127.0.0.1", 0), max_requests=2, read_timeout=0.3
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        stalled = socket.create_connection((host, port), timeout=10)
        try:
            stalled.sendall(b'{"op": "ping"')  # half a line, never finished
            with socket.create_connection((host, port), timeout=10) as conn:
                wire = conn.makefile("rw", encoding="utf-8")
                for _ in range(2):
                    wire.write(json.dumps({"op": "ping"}) + "\n")
                    wire.flush()
                    assert json.loads(wire.readline())["ok"]
            thread.join(timeout=10)
            assert not thread.is_alive()  # budget shutdown was not blocked
            # The stalled handler times out and closes the connection:
            # the dead client sees EOF instead of pinning a thread.
            stalled.settimeout(10)
            assert stalled.recv(1) == b""
        finally:
            stalled.close()
            server.server_close()
