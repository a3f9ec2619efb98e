"""Concurrency primitives behind the estimation service.

Two pieces, both deliberately small and self-contained:

* :class:`ReadWriteLock` — a writer-preferring readers–writer lock.
  Queries (merge-on-query over bucket spans) hold the read side so any
  number can run concurrently; mutations (ingest / compact / evict)
  hold the write side exclusively.  Because a writer drains every
  in-flight reader before touching the store and blocks new readers
  while it works, a query can never observe a half-applied ingest
  batch — the snapshot-isolation guarantee the service advertises.
  Writer preference keeps a steady query load from starving ingestion.

* :class:`SingleFlightCache` — an LRU cache with request coalescing.
  Each entry carries the bucket ranges its value was computed from, so
  a mutation invalidates exactly the entries whose ranges intersect
  the dirtied spans (see :func:`repro.service.service.dirty_intervals`)
  and nothing else.  Concurrent misses on one key are *coalesced*:
  the first caller (the leader) computes, everyone else waits on the
  leader's result instead of repeating the merge.  A mutation that
  lands while a leader is computing marks the flight *stale* — the
  result is still returned to the callers whose requests overlapped
  the mutation (any linearizable order may put their queries first)
  but it is never inserted into the cache, and the first caller
  arriving *after* the mutation replaces the stale flight with a
  fresh one that later callers coalesce onto as usual.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Tuple

__all__ = ["ReadWriteLock", "SingleFlightCache"]

#: (tag, b0, b1): a value depends on bucket range [b0, b1) of the store
#: identified by ``tag`` (None for a single stream, the key on a fleet;
#: a join depends on two keys and carries one range for each).
Range = Tuple[object, int, int]


class ReadWriteLock:
    """A writer-preferring readers–writer lock with context managers.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Arriving writers block *new* readers (preference), so
    ingestion cannot be starved by a continuous stream of queries.
    Not reentrant — neither side may be acquired while already held by
    the same thread.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the shared (reader) side for the duration of the block."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._active_readers -= 1
                if not self._active_readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the exclusive (writer) side for the duration of the block."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class _Flight:
    """One in-progress computation that concurrent misses share."""

    __slots__ = ("done", "value", "error", "stale")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None
        self.stale = False


class SingleFlightCache:
    """LRU cache with range-based invalidation and request coalescing.

    ``compute`` callbacks return ``(value, ranges)`` where ``ranges``
    is a sequence of ``(tag, b0, b1)`` bucket ranges the value depends
    on; :meth:`invalidate` drops every entry with a range intersecting
    the dirtied intervals of ``tag``.  Statistics (``hits``,
    ``misses``, ``coalesced``, ``invalidated``) are running totals.
    """

    def __init__(self, max_entries: int = 256):
        if int(max_entries) < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[object, tuple[Range, ...]]] = (
            OrderedDict()
        )
        self._inflight: dict[Hashable, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.invalidated = 0

    def get(
        self,
        key: Hashable,
        compute: Callable[[], tuple[object, Sequence[Range]]],
    ) -> object:
        """The cached value for ``key``, computing (once) on a miss."""
        is_leader = False
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached[0]
            flight = self._inflight.get(key)
            if flight is None or flight.stale:
                # Fresh leader.  A stale in-progress flight is
                # *replaced*, not joined: its result predates a
                # mutation this caller must observe.  Earlier waiters
                # keep waiting on the old flight (their requests
                # overlapped the mutation, so its result is a valid
                # linearization for them); everyone from here on
                # coalesces onto the replacement, whose result is
                # cacheable again.  The old leader's cleanup checks
                # identity before touching ``_inflight``, so it cannot
                # evict the replacement.
                flight = _Flight()
                self._inflight[key] = flight
                is_leader = True
                self.misses += 1
            else:
                self.coalesced += 1
        if is_leader:
            return self._lead(key, flight, compute)
        flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return flight.value

    def _lead(
        self,
        key: Hashable,
        flight: _Flight,
        compute: Callable[[], tuple[object, Sequence[Range]]],
    ) -> object:
        try:
            value, ranges = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                if self._inflight.get(key) is flight:
                    del self._inflight[key]
            flight.done.set()
            raise
        flight.value = value
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]
            if not flight.stale:
                self._entries[key] = (value, tuple(ranges))
                self._entries.move_to_end(key)
                while len(self._entries) > self._max_entries:
                    self._entries.popitem(last=False)
        flight.done.set()
        return value

    def invalidate(
        self, tag: object, intervals: Iterable[tuple[int, int]]
    ) -> int:
        """Drop entries of ``tag`` intersecting any ``[lo, hi)`` interval.

        Every in-flight computation is conservatively marked stale (a
        flight does not know its ranges until it finishes); returns the
        number of cached entries dropped.
        """
        spans = [(int(lo), int(hi)) for lo, hi in intervals]
        if not spans:
            return 0
        with self._lock:
            doomed = [
                key
                for key, (_, ranges) in self._entries.items()
                if any(
                    rtag == tag and lo < b1 and hi > b0
                    for rtag, b0, b1 in ranges
                    for lo, hi in spans
                )
            ]
            for key in doomed:
                del self._entries[key]
            self.invalidated += len(doomed)
            for flight in self._inflight.values():
                flight.stale = True
        return len(doomed)

    def clear(self) -> None:
        """Drop every cached entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            for flight in self._inflight.values():
                flight.stale = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        """Running totals: hits, misses, coalesced, invalidated, entries."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "invalidated": self.invalidated,
                "entries": len(self._entries),
            }
