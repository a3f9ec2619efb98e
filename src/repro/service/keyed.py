"""The keyed estimation service: per-(key, window) cached queries.

:class:`KeyedSketchService` is :class:`~repro.service.service.
SketchService` lifted over a :class:`~repro.store.keyed.
KeyedSketchStore` fleet.  The concurrency story is identical — one
writer-preferring :class:`~repro.service.concurrency.ReadWriteLock`
guards the whole fleet, queries coalesce through one
:class:`~repro.service.concurrency.SingleFlightCache` — but every
cache entry and every dirty interval now carries the key as its tag:

* a cached window is keyed ``(key, t0, t1, align)`` and records the
  bucket-span range ``(key, b0, b1)`` it was merged from;
* an ingest for ``key`` invalidates only intervals tagged with that
  key, so one tenant's writes never evict another tenant's hot
  windows — cache isolation mirroring the store's structural
  cross-key isolation.

Query methods take ``key`` as a keyword-only argument and refuse to
run without one.  The wire surface passes ``key=`` through only when a
request names one, so both mismatches fail with a ``TypeError``
(already in the surface's handled-error table) instead of silently
answering from the wrong stream: a keyed request against a
single-stream service trips the unexpected-keyword ``TypeError``, and
a key-less request against this service trips :func:`_require_key`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..engine.protocol import Sketch
from ..store.keyed import KeyedSketchStore, validate_key
from .concurrency import ReadWriteLock, SingleFlightCache
from .service import WindowEstimate, _WindowEntry, _copy_sketch, dirty_intervals

__all__ = ["KeyedSketchService"]

#: A bucket interval meaning "every window of this key".
_EVERYWHERE = (-(1 << 62), 1 << 62)


def _require_key(key: str | None) -> str:
    """The key of a keyed operation, refused with a useful TypeError.

    ``TypeError`` (not ``ValueError``) so a key-less request against a
    keyed fleet fails the same way — with a message naming the fix —
    whether it hits this service directly or the cluster front end.
    """
    if key is None:
        raise TypeError("this service serves a keyed fleet; pass key='...'")
    return validate_key(key)


class KeyedSketchService:
    """Thread-safe, cached windowed estimates over a keyed fleet.

    Parameters
    ----------
    store:
        The :class:`~repro.store.keyed.KeyedSketchStore` to serve.
        The service owns it from here on: all access must go through
        the service, or the cache and isolation guarantees are void.
    cache_entries:
        Capacity of the merged-window LRU cache (shared by all keys).

    Examples
    --------
    >>> from repro.store import KeyedSketchStore, SketchSpec
    >>> fleet = KeyedSketchStore(
    ...     SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1}),
    ...     bucket_width=10,
    ... )
    >>> service = KeyedSketchService(fleet)
    >>> service.ingest([3, 27], [5, 5], key="a")
    >>> service.estimate(0, 30, key="a") == service.estimate(0, 30, key="a")
    True
    """

    def __init__(self, store: KeyedSketchStore, cache_entries: int = 256):
        if not isinstance(store, KeyedSketchStore):
            raise TypeError(
                f"store must be a KeyedSketchStore, got {type(store).__name__}"
            )
        self._store = store
        self._rw = ReadWriteLock()
        self._cache = SingleFlightCache(cache_entries)

    # ------------------------------------------------------------------
    # Mutations (exclusive; invalidate only the touched key's windows)
    # ------------------------------------------------------------------
    def ingest(
        self,
        timestamps: np.ndarray | Iterable[int],
        values: np.ndarray | Iterable[int],
        counts: np.ndarray | Iterable[int] | None = None,
        max_workers: int | None = None,
        *,
        key: str | None = None,
    ) -> None:
        """Apply one key's timestamped batch atomically.

        Only cached windows *of that key* intersecting the covering
        spans of the touched buckets are invalidated; other keys'
        entries stay hot.  As in the single-stream service, a rejected
        batch may be partially applied — invalidation still runs.
        """
        key = _require_key(key)
        ts = np.asarray(timestamps, dtype=np.int64)
        touched: np.ndarray = (
            np.unique((ts - self._store.origin) // self._store.bucket_width)
            if ts.ndim == 1 and ts.size
            else np.empty(0, dtype=np.int64)
        )
        with self._rw.write():
            per_key = self._store.store_for(key)
            before = [] if per_key is None else per_key.bucket_spans
            try:
                self._store.ingest(
                    key, ts, values, counts=counts, max_workers=max_workers
                )
            finally:
                per_key = self._store.store_for(key)
                if per_key is not None:
                    self._cache.invalidate(
                        key, dirty_intervals(per_key, before, touched.tolist())
                    )

    def compact(self, before: int | None = None, key: str | None = None) -> int:
        """Fold old spans (one key, or every key); drops affected windows."""
        with self._rw.write():
            keys = [validate_key(key)] if key is not None else self._store.keys
            spans_before = {
                k: s.bucket_spans
                for k in keys
                if (s := self._store.store_for(k)) is not None
            }
            try:
                return self._store.compact(before=before, key=key)
            finally:
                for k, spans in spans_before.items():
                    per_key = self._store.store_for(k)
                    if per_key is not None:
                        self._cache.invalidate(
                            k, dirty_intervals(per_key, spans, ())
                        )

    def evict(self, before: int, key: str | None = None) -> int:
        """Forget old spans (one key, or every key); drops their windows."""
        with self._rw.write():
            keys = [validate_key(key)] if key is not None else self._store.keys
            spans_before = {
                k: s.bucket_spans
                for k in keys
                if (s := self._store.store_for(k)) is not None
            }
            try:
                return self._store.evict(before, key=key)
            finally:
                for k, spans in spans_before.items():
                    per_key = self._store.store_for(k)
                    if per_key is not None:
                        self._cache.invalidate(
                            k, dirty_intervals(per_key, spans, ())
                        )

    # ------------------------------------------------------------------
    # Queries (shared; coalesced and cached per (key, window))
    # ------------------------------------------------------------------
    def query(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> Sketch:
        """The merged sketch of one key's window, as an independent copy."""
        return _copy_sketch(self._entry(key, t0, t1, align).sketch)

    def estimate(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> float:
        """Self-join estimate over one key's window (cached)."""
        return self._entry(key, t0, t1, align).estimate

    def estimate_window(
        self,
        t0: int,
        t1: int,
        align: str = "strict",
        *,
        key: str | None = None,
    ) -> WindowEstimate:
        """The estimate together with the window it actually covers."""
        entry = self._entry(key, t0, t1, align)
        return WindowEstimate(entry.estimate, entry.lo, entry.hi)

    def sketch_window(
        self,
        t0: int,
        t1: int,
        align: str = "strict",
        *,
        key: str | None = None,
    ) -> tuple[Sketch, int, int]:
        """A detached merged sketch plus its resolved window, atomically."""
        entry = self._entry(key, t0, t1, align)
        return _copy_sketch(entry.sketch), entry.lo, entry.hi

    def window_bounds(
        self,
        t0: int,
        t1: int,
        align: str = "strict",
        *,
        key: str | None = None,
    ) -> tuple[int, int]:
        """The timestamp window a query for ``key`` would actually cover."""
        key = _require_key(key)
        with self._rw.read():
            return self._store.window_bounds(key, t0, t1, align=align)

    def _entry(self, key: str, t0: int, t1: int, align: str) -> _WindowEntry:
        key = _require_key(key)
        cache_key = (key, int(t0), int(t1), str(align))

        def compute() -> tuple[_WindowEntry, list]:
            with self._rw.read():
                lo, hi = self._store.window_bounds(key, t0, t1, align=align)
                sketch = self._store.query(key, lo, hi, align="strict")
            b0 = (lo - self._store.origin) // self._store.bucket_width
            b1 = (hi - self._store.origin) // self._store.bucket_width
            entry = _WindowEntry(sketch, float(sketch.estimate()), lo, hi)
            return entry, [(key, b0, b1)]

        return self._cache.get(cache_key, compute)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def spec(self):
        """The fleet's shared :class:`~repro.store.spec.SketchSpec`."""
        return self._store.spec

    @property
    def bucket_width(self) -> int:
        return self._store.bucket_width

    @property
    def origin(self) -> int:
        return self._store.origin

    @property
    def keys(self) -> list[str]:
        """Every materialised key (consistent snapshot)."""
        with self._rw.read():
            return self._store.keys

    @property
    def key_count(self) -> int:
        with self._rw.read():
            return self._store.key_count

    @property
    def spans(self) -> list[tuple[int, int]]:
        """Distinct timestamp span ranges across every key, sorted."""
        with self._rw.read():
            out = set()
            for k in self._store.keys:
                store = self._store.store_for(k)
                if store is not None:
                    out.update(tuple(span) for span in store.spans)
            return sorted(out)

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
        """A consistent one-shot summary of the served fleet.

        Same shape as :meth:`SketchService.info` plus ``keyed: True``
        and the key inventory, so wire clients (and the cluster's
        keyed-capability probe) can tell a fleet from a single-stream
        store without a second round trip.
        """
        with self._rw.read():
            coverage = self._store.coverage
            spans = set()
            for k in self._store.keys:
                store = self._store.store_for(k)
                if store is not None:
                    spans.update(tuple(span) for span in store.spans)
            from ..kernels import active_backend

            return {
                "kind": self._store.spec.kind,
                "spec": self._store.spec.to_dict(),
                "bucket_width": self._store.bucket_width,
                "origin": self._store.origin,
                "keyed": True,
                "keys": self._store.keys,
                "key_count": self._store.key_count,
                "max_keys": self._store.max_keys,
                "spans": [list(span) for span in sorted(spans)],
                "coverage": None if coverage is None else list(coverage),
                "memory_words": self._store.memory_words,
                "kernel_backend": active_backend(),
            }

    def snapshot(self, key: str | None = None) -> dict:
        """A consistent checkpoint: one key's store, or the whole fleet."""
        with self._rw.read():
            if key is None:
                return self._store.to_dict()
            return self._store.snapshot(validate_key(key))

    def restore(self, snapshot, key: str | None = None) -> None:
        """Swap in a :meth:`snapshot` checkpoint (one key or whole fleet).

        With ``key`` the payload must be one per-key windowed-store
        snapshot matching the fleet template; without, it must be a
        whole-fleet ``"keyed-store"`` payload whose template matches
        this service's.  Either way the affected keys' cached windows
        are dropped wholesale: every answer may have changed.
        """
        if key is not None:
            key = validate_key(key)
            with self._rw.write():
                try:
                    self._store.restore(key, snapshot)
                finally:
                    self._cache.invalidate(key, [_EVERYWHERE])
            return
        fleet = KeyedSketchStore.from_dict(snapshot)
        with self._rw.write():
            current = self._store
            for field in ("bucket_width", "origin"):
                if getattr(fleet, field) != getattr(current, field):
                    raise ValueError(
                        f"restore snapshot disagrees on {field}: "
                        f"{getattr(fleet, field)!r} != "
                        f"{getattr(current, field)!r}"
                    )
            if fleet.spec.to_dict() != current.spec.to_dict():
                raise ValueError(
                    f"restore snapshot disagrees on spec: "
                    f"{fleet.spec.to_dict()!r} != {current.spec.to_dict()!r}"
                )
            dirty = set(current.keys) | set(fleet.keys)
            self._store = fleet
            for k in dirty:
                self._cache.invalidate(k, [_EVERYWHERE])

    def stats(self, key: str | None = None) -> dict:
        """Cache statistics plus per-key net logical item counts.

        With ``key`` the item inventory is restricted to that key (an
        unseen key reports 0 items) — the wire ``stats`` op's keyed
        form, so one tenant's load is observable without shipping the
        whole fleet's inventory.
        """
        with self._rw.read():
            items = self._store.items_by_key()
        if key is not None:
            key = validate_key(key)
            items = {key: items.get(key, 0)}
        from ..kernels import active_backend

        stats = dict(self._cache.stats)
        stats["keyed"] = True
        stats["key_count"] = len(items)
        stats["items"] = sum(items.values())
        stats["items_by_key"] = {k: items[k] for k in sorted(items)}
        stats["kernel_backend"] = active_backend()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KeyedSketchService({self._store!r}, cache={self._cache.stats})"
        )
