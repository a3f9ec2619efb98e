"""The concurrent estimation service: cached merged-window queries.

The paper's pitch is that optimizers need *fast, high-quality join-size
estimates at query time*.  :mod:`repro.store` gave us continuously
maintained windowed sketches; this module puts a query-serving front on
them so many threads can estimate while ingestion keeps running:

* **Snapshot isolation.**  Every public operation runs under a
  writer-preferring :class:`~repro.service.concurrency.ReadWriteLock`:
  queries share the read side, mutations (ingest / compact / evict)
  hold the write side alone.  A query therefore never observes a
  half-applied ingest batch — it sees the store either before or after
  each whole mutation, which is exactly linearizability for this API
  (the stress test replays concurrent histories serially and demands
  bit-identical estimates).

* **Merged-window cache.**  ``query``/``estimate`` results are cached
  in an LRU keyed by the request tuple ``(key, t0, t1, align)``.  Each
  entry records the bucket-span range it was merged from, tagged with
  its key; a mutation computes its *dirty intervals* — the covering
  spans of every bucket the batch touched, plus any spans created or
  removed by compaction, eviction, or retention — and drops exactly
  the entries of its key whose ranges intersect.  Windows over
  untouched history, and every other key's windows, stay hot.

* **Request coalescing.**  Concurrent identical cold queries share one
  merge: the first caller computes under the read lock, the rest wait
  for its result (single flight).  A mutation landing mid-flight marks
  the flight stale so the result is served to the overlapping callers
  but never cached; the first later caller leads a fresh replacement
  flight that the rest coalesce onto.

:class:`SketchService` serves one :class:`~repro.store.windowed.
WindowedSketchStore` (the key ``None``) or a :class:`~repro.store.
keyed.KeyedSketchStore` fleet, where every data-path op names a key
and resolves that key's windowed store.

A fleet of tug-of-war sketches is also the paper's Section 4 catalog
with a time axis: each relation is a key, every key's sketches share
one seed, and the inner product of two keys' window sketches estimates
their join size over that window.  ``join_estimate`` and
``join_error_bound`` merge both windows under one read lock (one
snapshot of both keys) and cache the estimate and its Lemma 4.4 bound
in one entry per order-normalised pair and window, tagged with both
keys, so a mutation of either key drops it.  ``at_window`` adapts a
fixed window to the ``join_estimate(left, right)`` protocol the
:mod:`repro.planner` enumerators consume.

The ``repro serve`` CLI command puts this module on the wire through
the threaded :class:`~repro.service.server.SketchServiceServer`
(line-delimited JSON and binary frames on one port), the same server
every shard worker runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.bounds import ktw_join_error_bound
from ..engine.protocol import Sketch
from ..engine.registry import dump_sketch, load_sketch, sketch_class
from ..store.keyed import KeyedSketchStore, _store_items, validate_key
from ..store.windowed import WindowedSketchStore
from .concurrency import ReadWriteLock, SingleFlightCache

__all__ = ["SketchService", "WindowEstimate", "dirty_intervals"]

#: A bucket interval meaning "every window involving this tag".
_EVERYWHERE = (-(1 << 62), 1 << 62)


@dataclass(frozen=True)
class WindowEstimate:
    """One served estimate with the window it actually summarises."""

    estimate: float
    t0: int  # resolved window start (inclusive), after alignment
    t1: int  # resolved window end (exclusive), after alignment


@dataclass(eq=False)
class _WindowEntry:
    """A cached merged window: the sketch, its estimate, its bounds."""

    sketch: Sketch
    estimate: float
    lo: int
    hi: int


def dirty_intervals(
    store: WindowedSketchStore,
    spans_before: Sequence[tuple[int, int]],
    touched_buckets: Iterable[int],
) -> list[tuple[int, int]]:
    """Bucket intervals a mutation may have changed answers over.

    ``spans_before`` is the store's :attr:`~repro.store.windowed.
    WindowedSketchStore.bucket_spans` snapshot taken before the
    mutation; ``touched_buckets`` are the bucket indices an ingest
    batch routed events to (empty for compact/evict).  The result is

    * the covering span of every touched bucket (a span's sketch
      cannot be split, so the whole span's answers changed), and
    * every span created or removed by the mutation (compaction can
      bridge gaps between old spans, changing alignment behaviour for
      windows that never held data — those cached entries must go too).
    """
    before = set(spans_before)
    after = set(store.bucket_spans)
    intervals = set(before ^ after)
    for bucket in touched_buckets:
        b = int(bucket)
        intervals.add(store.covering_span(b) or (b, b + 1))
    return sorted(intervals)


def check_key(key: str | None, keyed: bool, server: str = "service") -> str | None:
    """A request's ``key``, checked against the shape of the store served.

    A single stream refuses a key and a fleet refuses a missing one,
    each with ``TypeError`` (not ``ValueError``) naming the fix, so a
    mismatch fails the same way on a node and at the cluster front.
    """
    if not keyed:
        if key is not None:
            raise TypeError(
                f"this {server} serves an unkeyed store; "
                f"got an unexpected keyword argument key={key!r}"
            )
        return None
    if key is None:
        raise TypeError(f"this {server} serves a keyed fleet; pass key='...'")
    return validate_key(key)


def _copy_sketch(sketch: Sketch) -> Sketch:
    """A detached copy the caller may mutate without touching the cache."""
    copy = getattr(sketch, "copy", None)
    if callable(copy):
        return copy()
    return load_sketch(dump_sketch(sketch))


class SketchService:
    """Thread-safe, cached windowed estimates over one stream or a fleet.

    Parameters
    ----------
    store:
        The :class:`~repro.store.windowed.WindowedSketchStore` or
        :class:`~repro.store.keyed.KeyedSketchStore` fleet to serve.
        The service owns it from here on: all access must go through
        the service, or the cache and isolation guarantees are void.
    cache_entries:
        Capacity of the merged-window LRU cache (shared by all keys).

    Every data-path method takes a ``key``.  A single stream refuses
    one; a fleet needs one, except that ``compact``,
    ``evict``, ``snapshot``, ``restore`` and ``stats`` read a missing
    key as "every key".  Both mismatches raise ``TypeError`` (in the
    wire surface's handled-error table, with the cluster front's
    wording), so a mismatched request fails instead of answering from
    the wrong stream.  A fleet answers an unseen key as an empty
    stream.  A tug-of-war fleet also joins two keys (relations):
    :meth:`join_estimate`, :meth:`join_error_bound` and
    :meth:`at_window`.

    Examples
    --------
    >>> from repro.store import KeyedSketchStore, SketchSpec, WindowedSketchStore
    >>> spec = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1})
    >>> service = SketchService(WindowedSketchStore(spec, bucket_width=10))
    >>> service.ingest([3, 27, 14], [5, 5, 9])
    >>> service.estimate(0, 30) == service.estimate(0, 30)  # second is cached
    True
    >>> fleet = SketchService(KeyedSketchStore(spec, bucket_width=10))
    >>> fleet.ingest([3, 27, 14], [5, 5, 9], key="a")
    >>> fleet.estimate(0, 30, key="a") == service.estimate(0, 30)
    True
    >>> fleet.estimate(0, 30, key="never-seen")
    0.0
    >>> fleet.join_estimate("a", "never-seen", 0, 30)
    0.0
    """

    def __init__(
        self, store: WindowedSketchStore | KeyedSketchStore, cache_entries: int = 256
    ):
        if not isinstance(store, (WindowedSketchStore, KeyedSketchStore)):
            raise TypeError(
                "store must be a WindowedSketchStore or a KeyedSketchStore, "
                f"got {type(store).__name__}"
            )
        self._store = store
        self._keyed = isinstance(store, KeyedSketchStore)
        self._rw = ReadWriteLock()
        self._cache = SingleFlightCache(cache_entries)

    # ------------------------------------------------------------------
    # Key resolution: a data-path op's windowed store and cache tag
    # ------------------------------------------------------------------
    def _resolve(
        self, key: str | None
    ) -> tuple[WindowedSketchStore, str | None]:
        """The windowed store an op on ``key`` acts on, and its cache tag.

        The tag is the key on a fleet and None on a single stream.
        Call under the lock.  A fleet's unseen key resolves to a
        detached empty store built from the template, so it answers
        like a dedicated store that never saw an event.
        """
        tag = check_key(key, self._keyed)
        if tag is None:
            return self._store, None
        store = self._store.store_for(tag)
        return (self._store._build_store() if store is None else store), tag

    # ------------------------------------------------------------------
    # Mutations (exclusive; invalidate precisely, then return)
    # ------------------------------------------------------------------
    def ingest(
        self,
        timestamps: np.ndarray | Iterable[int],
        values: np.ndarray | Iterable[int],
        counts: np.ndarray | Iterable[int] | None = None,
        *,
        key: str | None = None,
    ) -> None:
        """Apply one timestamped batch atomically (no query sees it half-done).

        Cached windows (of ``key`` alone, on a fleet) intersecting the
        covering spans of the touched buckets are invalidated before
        this returns, so any query *issued after* the call completes
        observes the batch.  A batch the store rejects (e.g. a
        mis-routed delete) keeps the bucket groups before the refused
        one — invalidation still runs, so the cache never outlives the
        store state it described.  On a fleet, the fleet's ``ingest``
        decides whether an unseen key materialises.
        """
        ts = np.asarray(timestamps, dtype=np.int64)
        touched: np.ndarray = (
            np.unique((ts - self._store.origin) // self._store.bucket_width)
            if ts.ndim == 1 and ts.size
            else np.empty(0, dtype=np.int64)
        )
        with self._rw.write():
            store, tag = self._resolve(key)
            before = store.bucket_spans
            try:
                if tag is None:
                    store.ingest(ts, values, counts=counts)
                else:
                    self._store.ingest(tag, ts, values, counts=counts)
            finally:
                store, _ = self._resolve(tag)
                self._cache.invalidate(
                    tag, dirty_intervals(store, before, touched.tolist())
                )

    def compact(self, before: int | None = None, key: str | None = None) -> int:
        """Fold old spans into one (one key, or every key of a fleet).

        Drops the cached windows the fold affects; returns spans folded.
        """
        return self._retain(key, lambda store: store.compact(before=before))

    def evict(self, before: int, key: str | None = None) -> int:
        """Forget spans older than ``before`` (one key, or every key).

        Drops their cached windows; returns spans dropped.
        """
        return self._retain(key, lambda store: store.evict(before))

    def _retain(self, key: str | None, apply) -> int:
        """Run a compact/evict ``apply`` on one store or a whole fleet."""
        with self._rw.write():
            if self._keyed and key is None:
                # The fleet checks ``before`` once, even with no keys;
                # each key's windows are invalidated under its own tag.
                target = self._store
                stores = {k: self._store.store_for(k) for k in self._store.keys}
            else:
                target, tag = self._resolve(key)
                stores = {tag: target}
            spans_before = {tag: s.bucket_spans for tag, s in stores.items()}
            try:
                return apply(target)
            finally:
                for tag, store in stores.items():
                    self._cache.invalidate(
                        tag, dirty_intervals(store, spans_before[tag], ())
                    )

    # ------------------------------------------------------------------
    # Queries (shared; coalesced and cached per (key, window))
    # ------------------------------------------------------------------
    def query(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> Sketch:
        """The merged sketch of the window, as an independent copy."""
        return _copy_sketch(self._entry(key, t0, t1, align).sketch)

    def estimate(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> float:
        """Self-join estimate over the window (cached merge-on-query)."""
        return self._entry(key, t0, t1, align).estimate

    def estimate_window(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> WindowEstimate:
        """The estimate together with the window it actually covers."""
        entry = self._entry(key, t0, t1, align)
        return WindowEstimate(entry.estimate, entry.lo, entry.hi)

    def sketch_window(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> tuple[Sketch, int, int]:
        """A detached merged sketch plus its resolved window, atomically.

        Both come from one cache entry, so the reported bounds always
        describe the returned sketch — reading them through two
        separate calls could interleave with a concurrent mutation.
        """
        entry = self._entry(key, t0, t1, align)
        return _copy_sketch(entry.sketch), entry.lo, entry.hi

    def window_bounds(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> tuple[int, int]:
        """The timestamp window a query would actually cover."""
        with self._rw.read():
            return self._resolve(key)[0].window_bounds(t0, t1, align)

    def _entry(self, key: str | None, t0: int, t1: int, align: str) -> _WindowEntry:
        tag = check_key(key, self._keyed)

        def compute() -> tuple[_WindowEntry, list]:
            with self._rw.read():
                store, _ = self._resolve(tag)
                lo, hi = store.window_bounds(t0, t1, align)
                sketch = store.query_resolved(lo, hi)
            b0 = (lo - self._store.origin) // self._store.bucket_width
            b1 = (hi - self._store.origin) // self._store.bucket_width
            entry = _WindowEntry(sketch, float(sketch.estimate()), lo, hi)
            return entry, [(tag, b0, b1)]

        return self._cache.get((tag, int(t0), int(t1), str(align)), compute)

    # ------------------------------------------------------------------
    # Joins between two keys of a fleet (cached per pair and window)
    # ------------------------------------------------------------------
    def join_estimate(
        self, left: str, right: str, t0: int, t1: int, align: str = "strict"
    ) -> float:
        """Estimated ``|left join right|`` over ``[t0, t1)`` (cached).

        The inner product of both keys' sketches over one common
        window: under ``align="outer"`` the window expands until it
        splits neither key's spans, never to two different per-key
        windows.  A key that never received a batch is an empty
        relation, so its joins answer 0.0.
        """
        return self._pair(left, right, t0, t1, align)[0]

    def join_error_bound(
        self, left: str, right: str, t0: int, t1: int, align: str = "strict"
    ) -> float:
        """Lemma 4.4 standard error of :meth:`join_estimate` (cached).

        ``sqrt(2 SJ(left) SJ(right) / k)`` with ``k = s1 * s2`` and the
        two window sketches' own self-join estimates (clamped at 0);
        it shares :meth:`join_estimate`'s cache entry, so asking for
        both costs one merge.
        """
        return self._pair(left, right, t0, t1, align)[1]

    def at_window(self, t0: int, t1: int, align: str = "strict") -> "_WindowView":
        """A fixed-window view usable anywhere a
        :class:`~repro.planner.estimators.CardinalityEstimator` is —
        e.g. ``enumerate_greedy(JoinGraph.clique(sizes),
        service.at_window(0, 3600))`` picks a join order from cached
        windowed estimates.  The view also answers
        ``join_error_bound``, so it satisfies the planner's bound-aware
        backend protocol
        (:class:`~repro.planner.estimators.ErrorBoundedCatalog`).
        """
        return _WindowView(self, t0, t1, align)

    def _pair(
        self, left: str, right: str, t0: int, t1: int, align: str
    ) -> tuple[float, float]:
        """The cached (join estimate, error bound) of two keys' window."""
        if not hasattr(sketch_class(self.spec.kind), "inner_product"):
            raise TypeError(
                f"{self.spec.kind!r} sketches have no inner product; "
                "join estimates need a 'tugofwar' fleet"
            )
        a, b = sorted((check_key(left, self._keyed), check_key(right, self._keyed)))

        def compute() -> tuple[tuple[float, float], list]:
            with self._rw.read():
                stores = (self._resolve(a)[0], self._resolve(b)[0])
                # Each key may expand an outer window over its own
                # compacted spans; iterate to the window both accept.
                lo, hi = int(t0), int(t1)
                moved = True
                while moved:
                    moved = False
                    for store in stores:
                        bounds = store.window_bounds(lo, hi, align)
                        if bounds != (lo, hi):
                            (lo, hi), moved = bounds, True
                lhs, rhs = (store.query_resolved(lo, hi) for store in stores)
            bound = ktw_join_error_bound(
                max(0.0, lhs.estimate()), max(0.0, rhs.estimate()), lhs.s1 * lhs.s2
            )
            b0 = (lo - self._store.origin) // self._store.bucket_width
            b1 = (hi - self._store.origin) // self._store.bucket_width
            return (lhs.inner_product(rhs), bound), [(a, b0, b1), (b, b0, b1)]

        return self._cache.get(((a, b), int(t0), int(t1), str(align)), compute)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def spec(self):
        """The store's :class:`~repro.store.spec.SketchSpec` (immutable)."""
        return self._store.spec

    @property
    def bucket_width(self) -> int:
        return self._store.bucket_width

    @property
    def origin(self) -> int:
        return self._store.origin

    @property
    def keys(self) -> list[str]:
        """Every materialised key of a fleet (consistent snapshot)."""
        with self._rw.read():
            return self._store.keys

    @property
    def key_count(self) -> int:
        with self._rw.read():
            return self._store.key_count

    @property
    def spans(self) -> list[tuple[int, int]]:
        """Timestamp ranges of the stored spans (a fleet's: across keys)."""
        with self._rw.read():
            return self._store.spans

    @property
    def span_count(self) -> int:
        with self._rw.read():
            return self._store.span_count

    @property
    def coverage(self) -> tuple[int, int] | None:
        with self._rw.read():
            return self._store.coverage

    @property
    def memory_words(self) -> int:
        with self._rw.read():
            return self._store.memory_words

    def info(self) -> dict:
        """A consistent one-shot summary of the served store.

        All fields come from a single read-lock acquisition, so the
        spans, coverage, and memory accounting always describe one
        store state — unlike reading the properties individually,
        which could interleave with a mutation.  This is the payload
        behind the wire ``info`` op.  A fleet adds ``keyed: True`` and
        its key inventory, so wire clients (and the cluster's keyed
        probe) tell it from a single stream without a second round
        trip.
        """
        from ..kernels import active_backend

        with self._rw.read():
            store = self._store
            info = {
                "kind": store.spec.kind,
                "spec": store.spec.to_dict(),
                "bucket_width": store.bucket_width,
                "origin": store.origin,
            }
            if self._keyed:
                info["keyed"] = True
                info["keys"] = store.keys
                info["key_count"] = store.key_count
                info["max_keys"] = store.max_keys
            coverage = store.coverage
            info["spans"] = [list(span) for span in store.spans]
            info["coverage"] = None if coverage is None else list(coverage)
            info["memory_words"] = store.memory_words
        info["kernel_backend"] = active_backend()
        return info

    def snapshot(self, key: str | None = None) -> dict:
        """A consistent checkpoint: the whole store, or one fleet key's."""
        with self._rw.read():
            if key is None:
                return self._store.to_dict()
            return self._resolve(key)[0].to_dict()

    def restore(self, snapshot, key: str | None = None) -> None:
        """Replace the served store (or one fleet key) with a checkpoint.

        The recovery half of replication: a respawned (or suspect)
        replica is handed a healthy peer's snapshot and swaps it in as
        its *absolute* state — RNG state included, so continued
        ingestion is bit-identical to a replica that never failed.
        The snapshot must describe the same sketch spec and bucket
        geometry this service was configured with; restoring across
        configs would silently break the value-partition invariant,
        so it raises ``ValueError`` instead.  With ``key`` the payload
        is one windowed-store snapshot for that key of the fleet.
        Every restored key's cached windows are dropped: any answer
        may have changed.
        """
        if key is not None:
            tag = check_key(key, self._keyed)
            with self._rw.write():
                try:
                    self._store.restore(tag, snapshot)
                finally:
                    self._cache.invalidate(tag, [_EVERYWHERE])
            return
        store = type(self._store).from_dict(snapshot)
        with self._rw.write():
            current = self._store
            for field in ("bucket_width", "origin"):
                if getattr(store, field) != getattr(current, field):
                    raise ValueError(
                        f"restore snapshot disagrees on {field}: "
                        f"{getattr(store, field)!r} != "
                        f"{getattr(current, field)!r}"
                    )
            if store.spec.to_dict() != current.spec.to_dict():
                raise ValueError(
                    f"restore snapshot disagrees on spec: "
                    f"{store.spec.to_dict()!r} != {current.spec.to_dict()!r}"
                )
            tags = set(current.keys) | set(store.keys) if self._keyed else {None}
            self._store = store
            for tag in tags:
                self._cache.invalidate(tag, [_EVERYWHERE])

    def stats(self, key: str | None = None) -> dict:
        """Cache statistics plus the store's net logical item count.

        ``items`` (inserts minus deletes, summed over spans) is the
        per-shard load signal the cluster's ``stats()`` aggregates to
        make partition skew observable.  A fleet adds ``items_by_key``,
        restricted to ``key`` when one is given (an unseen key reports
        0 items), so one tenant's load is observable without shipping
        the whole fleet's inventory.
        """
        from ..kernels import active_backend

        tag = None if key is None else check_key(key, self._keyed)
        stats = dict(self._cache.stats)
        with self._rw.read():
            if self._keyed:
                items = self._store.items_by_key()
                if tag is not None:
                    items = {tag: items.get(tag, 0)}
                stats["keyed"] = True
                stats["key_count"] = len(items)
                stats["items"] = sum(items.values())
                stats["items_by_key"] = {k: items[k] for k in sorted(items)}
            else:
                stats["items"] = _store_items(self._store)
        stats["kernel_backend"] = active_backend()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self._store!r}, cache={self._cache.stats})"
        )


class _WindowView:
    """A fixed window of a :class:`SketchService` fleet, as a planner catalog."""

    __slots__ = ("_service", "_t0", "_t1", "_align")

    def __init__(self, service: SketchService, t0: int, t1: int, align: str):
        self._service = service
        self._t0 = int(t0)
        self._t1 = int(t1)
        self._align = align

    def join_estimate(self, left: str, right: str) -> float:
        """|left join right| over this view's window (cached)."""
        return self._service.join_estimate(
            left, right, self._t0, self._t1, align=self._align
        )

    def self_join_estimate(self, name: str) -> float:
        """SJ(name) over this view's window (cached)."""
        return self._service.estimate(self._t0, self._t1, self._align, key=name)

    def join_error_bound(self, left: str, right: str) -> float:
        """Lemma 4.4 standard error over this view's window (cached).

        Makes the view a full bound-aware estimation backend: the
        planner's pessimistic policy
        (:class:`~repro.planner.estimators.BoundAwareCardinalities`)
        can plan over live windowed data straight from the service.
        """
        return self._service.join_error_bound(
            left, right, self._t0, self._t1, align=self._align
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_WindowView([{self._t0}, {self._t1}), align={self._align!r}, "
            f"of {self._service!r})"
        )
