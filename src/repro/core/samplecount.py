"""The improved sample-count algorithm (Figure 1 of the paper).

Sample-count is the first AMS self-join estimator: pick a uniformly
random stream position p with value v, count the occurrences ``r`` of v
at or after p, and use ``X = n (2 r - 1)`` — an unbiased estimator of
``SJ(R)`` whose median-of-means over ``s = s1 * s2`` copies is within
``4 t^{1/4} / sqrt(s1)`` relative error with probability
``1 - 2^{-s2/2}`` (Theorem 2.1).

The naive implementation costs Omega(k) per insert when the inserted
value occurs k times among the sample points (Omega(s) on skewed data)
plus Theta(s) per insert for reservoir maintenance.  The paper's
contribution — reproduced faithfully here — is the O(1)-amortised
update structure:

* ``Pos[i]`` / the ``P_m`` look-up table: each sample slot i knows the
  *future* stream position at which it will (re)sample, selected with
  the reservoir-sampling *skipping* technique of [Vit85], so positions
  are replaced in O(1) amortised time instead of s coin flips per
  insert.
* ``N_v``: one running occurrence counter per value *currently in the
  sample* (O(s) of them), incremented once per insert — instead of
  incrementing up to s per-slot counters.
* ``EntryN_v[i]``: snapshot of ``N_v`` when slot i entered, so slot i's
  count is reconstructed at query time as ``r_i = N_v - EntryN_v[i]``.
* ``S_v``: a doubly-linked list of the slots holding value v, ordered
  most-recently-entered first, so a deletion can evict exactly the
  slots whose sampled insertion is the one being reversed.

Deletions follow the canonical-sequence semantics of Section 2.1: a
``delete(v)`` reverses the most recent undeleted ``insert(v)``.  After
decrementing ``N_v``, every slot at the head of ``S_v`` whose snapshot
now equals ``N_v`` is exactly a slot that sampled the reversed
insertion, and is removed from the sample (it is *not* replaced; the
paper's Chernoff argument shows at least s/2 slots survive when
deletions are at most a 1/5 fraction of any prefix).

Two query paths are provided, matching the two variants in the paper:

* :class:`SampleCountSketch` — O(1) amortised updates, O(s) queries
  (the Figure 1 algorithm);
* :class:`SampleCountFastQuery` — maintains the group sums ``Y_j``
  during updates (the ``k_{v,j}`` / ``Num_j`` scheme described at the
  end of Section 2.1) for O(s2) queries at O(s2) amortised update cost.

For the experiment harness there is also
:func:`sample_count_estimate_offline`, a vectorised known-n evaluator
that draws the s positions up front and computes every ``r_i`` with
numpy; it implements the same estimator (the [AMS99] insertion-only
description) and is validated against the tracking classes in the test
suite.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Iterable

import numpy as np

from ..engine.protocol import EXPAND_MAX, Sketch, as_histogram, expand_histogram
from ..engine.registry import SketchPayloadError, register_sketch
from ..kernels import (
    counter_key,
    counter_u01,
    counter_u01_one,
    counter_u64_one,
    sampler_segment_counts,
)
from ..streams.reservoir import _fresh_seed, _require_counter_rng, skip_length
from .estimators import group_shape_for, median_of_means

__all__ = [
    "SampleCountSketch",
    "SampleCountFastQuery",
    "sample_count_estimate_offline",
]

_NO_SLOT = -1


def _default_initial_range(s: int) -> int:
    """The paper's warm-up window: positions drawn from {1..s log s}."""
    return s * max(1, math.ceil(math.log2(max(s, 2))))


@register_sketch
class SampleCountSketch(Sketch):
    """Tracks SJ(R) under inserts and deletes in O(s) memory words.

    Parameters
    ----------
    s1:
        Accuracy parameter: group size for the averaging stage
        (Theorem 2.1 error ~ ``4 t^{1/4} / sqrt(s1)``).
    s2:
        Confidence parameter: number of groups medianed.
    seed:
        Seed of the counter RNG of :mod:`repro.kernels` that selects
        positions (reservoir sampling).  Every draw is keyed by the
        (stream position, slot) pair, so draws are pure functions of
        the seed, which is what lets :meth:`update_from_stream`
        precompute the whole replacement chain and batch the suffix
        counting through a compiled kernel.
    initial_range:
        The window {1..initial_range} from which the initial positions
        are drawn.  Defaults to the paper's ``s * ceil(log2 s)``.  For
        insertion-only experiments with a known stream length n, pass
        ``initial_range=n`` to reproduce the a-priori-n scheme of
        [AMS99] (uniform positions over the whole stream).

    Notes
    -----
    Slot i's group is ``i // s1``; group means are medianed at query
    time.  Slots whose position has not yet arrived (or that were
    evicted by a deletion) simply do not contribute — exactly the
    "ignore i that are not in the sample" rule of steps 28–31.
    """

    kind = "samplecount"
    is_fixed_size = True  # s sample slots, whatever the data
    describe = (
        "AMS sample-count tracker for the self-join size F_2 "
        "(position-sampled; insert/delete, not mergeable)"
    )

    #: Histogram entries with counts above this take the arithmetic
    #: repeat walk of :meth:`_insert_repeated` instead of expansion
    #: (identical draws either way).
    _EXPAND_MAX = EXPAND_MAX

    #: Reservoir events per compiled segment-counting call: bounds the
    #: (events, tracked-values) count matrix to a few MB per call.
    _EVENT_CHUNK = 256

    def __init__(
        self,
        s1: int,
        s2: int = 1,
        seed: int | None = None,
        initial_range: int | None = None,
    ):
        self.s1, self.s2 = group_shape_for(s1, s2)
        s = self.s1 * self.s2
        self._s = s
        self.seed = _fresh_seed() if seed is None else int(seed)
        self._key = counter_key(self.seed)
        self.initial_range = (
            int(initial_range) if initial_range is not None else _default_initial_range(s)
        )
        if self.initial_range < 1:
            raise ValueError(f"initial_range must be >= 1, got {self.initial_range}")

        self._n = 0  # current multiset size
        # Future positions: P_m look-up table, position -> [slot indices].
        self._pending: dict[int, list[int]] = {}
        # Slot i's initial position is draw i at reserved stream
        # position 0 (real positions start at 1, so replacement draws
        # never alias the initialisation draws).
        for i in range(s):
            m = 1 + counter_u64_one(self._key, 0, i) % self.initial_range
            self._pending.setdefault(m, []).append(i)

        # Per-slot state.
        self._in_sample = np.zeros(s, dtype=bool)
        self._val = np.zeros(s, dtype=np.int64)  # Val[i]
        self._entry = np.zeros(s, dtype=np.int64)  # EntryN_v[i]
        # Doubly-linked S_v lists (next/prev arrays + per-value heads).
        self._next = np.full(s, _NO_SLOT, dtype=np.int64)
        self._prev = np.full(s, _NO_SLOT, dtype=np.int64)
        self._head: dict[int, int] = {}
        # Running counts N_v for values occurring in the sample.
        self._nv: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Hooks overridden by the fast-query variant (no-ops here)
    # ------------------------------------------------------------------
    def _hook_slot_entered(self, i: int, v: int) -> None:
        """Called after slot i enters the sample holding value v."""

    def _hook_slot_discarded(self, i: int, v: int, r: int) -> None:
        """Called after a reservoir replacement discards slot i (count r)."""

    def _hook_value_inserted(self, v: int) -> None:
        """Called after N_v is incremented by an insert of v."""

    def _hook_value_inserted_bulk(self, v: int, count: int) -> None:
        """Called after N_v is incremented by ``count`` inserts of v.

        The bulk-ingestion path aggregates segment occurrences of a
        tracked value; subclasses must make this equivalent to
        ``count`` calls of :meth:`_hook_value_inserted`.
        """

    def _hook_value_delete_pre(self, v: int) -> None:
        """Called on delete(v) for a tracked v, before N_v is decremented."""

    def _hook_slot_evicted_by_delete(self, i: int, v: int) -> None:
        """Called after a delete evicts slot i from the sample."""

    # ------------------------------------------------------------------
    # Linked-list plumbing for the S_v lists
    # ------------------------------------------------------------------
    def _push_head(self, v: int, i: int) -> None:
        old = self._head.get(v, _NO_SLOT)
        self._next[i] = old
        self._prev[i] = _NO_SLOT
        if old != _NO_SLOT:
            self._prev[old] = i
        self._head[v] = i

    def _unlink(self, v: int, i: int) -> None:
        nxt = int(self._next[i])
        prv = int(self._prev[i])
        if prv != _NO_SLOT:
            self._next[prv] = nxt
        else:
            if nxt != _NO_SLOT:
                self._head[v] = nxt
            else:
                del self._head[v]
        if nxt != _NO_SLOT:
            self._prev[nxt] = prv
        self._next[i] = _NO_SLOT
        self._prev[i] = _NO_SLOT

    # ------------------------------------------------------------------
    # Reservoir skipping [Vit85]
    # ------------------------------------------------------------------
    def _next_position(self, i: int, p: int) -> int:
        """The next replacement position of slot i firing at position p.

        A size-1 reservoir at ``base = max(p, initial_range)`` next
        accepts at :func:`~repro.streams.reservoir.skip_length`'s
        ``ceil(base / u)`` (survival law P(next > x) = base / x);
        the expected gap ~ base is what makes all s reservoirs cost
        O(1) amortised once n >= s log s.  The uniform is draw ``i`` at
        stream position ``p`` — a pure function of (seed, p, i), so the
        batched walker can compute the whole replacement chain up
        front and still land on exactly the positions a scalar insert
        loop would have drawn.
        """
        return skip_length(
            max(p, self.initial_range), counter_u01_one(self._key, p, i)
        )

    def _pending_add(self, position: int, i: int) -> None:
        """Register slot i to (re)sample at ``position``.

        Pending lists are kept sorted by slot index — the canonical
        order slots sharing a position are processed in — so the
        scalar loop and the batched walker (which discovers the same
        positions in a different traversal order) serialise to
        identical state.
        """
        bisect.insort(self._pending.setdefault(position, []), i)

    def _schedule_replacement(self, i: int, current_pos: int) -> None:
        # The initial application considers only positions beyond the
        # warm-up window (paper, Section 2.1).
        nxt = self._next_position(i, current_pos)
        self._pending_add(nxt, i)

    # ------------------------------------------------------------------
    # Sample maintenance
    # ------------------------------------------------------------------
    def _discard(self, i: int) -> None:
        """Reservoir replacement: drop slot i's current sample point."""
        v = int(self._val[i])
        r = self._nv[v] - int(self._entry[i])
        self._unlink(v, i)
        self._in_sample[i] = False
        self._hook_slot_discarded(i, v, r)
        if v not in self._head:
            # v no longer occurs in the sample; stop tracking N_v to
            # preserve the O(s) space bound.
            del self._nv[v]

    def _add_sample_point(self, i: int, v: int) -> None:
        self._val[i] = v
        self._entry[i] = self._nv.setdefault(v, 0)
        self._push_head(v, i)
        self._in_sample[i] = True
        self._hook_slot_entered(i, v)

    # ------------------------------------------------------------------
    # Operations (Figure 1 main loop)
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Process insert(v) in O(1) amortised time (steps 7–19)."""
        v = int(value)
        self._n += 1
        entering = self._pending.pop(self._n, None)
        if entering is not None:
            for i in sorted(entering):
                self._schedule_replacement(i, self._n)
                if self._in_sample[i]:
                    self._discard(i)
                self._add_sample_point(i, v)
        if v in self._nv:
            self._nv[v] += 1
            self._hook_value_inserted(v)

    def delete(self, value: int) -> None:
        """Process delete(v) (steps 20–26).

        Reverses the most recent undeleted insert(v): decrements n and
        (if v is tracked) N_v, then evicts every slot whose entry
        snapshot equals the decremented N_v — precisely the slots that
        sampled the reversed insertion.
        """
        v = int(value)
        if self._n <= 0:
            raise ValueError("cannot delete from an empty multiset")
        self._n -= 1
        if v not in self._nv:
            return
        self._hook_value_delete_pre(v)
        self._nv[v] -= 1
        nv = self._nv[v]
        while v in self._head and int(self._entry[self._head[v]]) == nv:
            i = self._head[v]
            self._unlink(v, i)
            self._in_sample[i] = False
            self._hook_slot_evicted_by_delete(i, v)
        if v not in self._head:
            del self._nv[v]

    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in (signed).

        Equivalent to ``|count|`` :meth:`insert` or :meth:`delete`
        calls, except that a count that would make the multiset size
        negative is refused before any of them runs.
        """
        if self._n + int(count) < 0:
            raise ValueError("cannot delete from an empty multiset")
        super().update(value, count)

    def update_from_stream(self, values: Iterable[int] | np.ndarray) -> None:
        """Insert a whole stream in bulk: chain first, then count.

        Because every draw is a pure function of (seed, position,
        slot), the complete chain of reservoir events inside the batch
        — which positions fire, which slots enter, where each slot's
        next replacement lands — is computable *up front*, before a
        single stream element is examined.  The elements between
        events then only bump ``N_v`` counters, which the compiled
        :func:`repro.kernels.sampler_segment_counts` kernel tallies a
        whole chunk of segments at a time.  State after the batch is
        bit-identical to the per-element :meth:`insert` loop; the
        property suite asserts exact integer equality.

        Hooks do not fire during the walk; derived aggregates (the
        fast-query group sums) are pure functions of the base state
        and are rebuilt once at the end via :meth:`_rebuild_derived`.
        """
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"stream must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            return
        n0 = self._n
        end = n0 + int(arr.size)

        # --- chain phase: precompute every reservoir event in-batch.
        # Each slot's replacement chain p -> next_position(i, p) is
        # independent of every other slot's, so all active chains
        # advance in lockstep rounds of one vectorised draw batch; a
        # chain leaves the rounds when it escapes the batch.
        due = [p for p in self._pending if p <= end]
        pos_list: list[int] = []
        id_list: list[int] = []
        for p in due:
            for i in self._pending.pop(p):
                pos_list.append(p)
                id_list.append(i)
        ev_pos_parts: list[np.ndarray] = []
        ev_id_parts: list[np.ndarray] = []
        pos = np.asarray(pos_list, dtype=np.int64)
        ids = np.asarray(id_list, dtype=np.int64)
        endf = float(end)
        while pos.size:
            ev_pos_parts.append(pos)
            ev_id_parts.append(ids)
            base = np.maximum(pos, self.initial_range).astype(np.float64)
            u = counter_u01(self._key, pos, ids)
            # Same double ops as the scalar max(base+1, ceil(base/u)).
            nxt = np.maximum(base + 1.0, np.ceil(base / u))
            done = nxt > endf
            for x, i in zip(nxt[done].tolist(), ids[done].tolist()):
                # Exact float->int (the ceil result is integral, and
                # any double above 2**53 is already an exact integer).
                self._pending_add(int(x), i)
            keep = ~done
            pos = nxt[keep].astype(np.int64)
            ids = ids[keep]
        events: list[tuple[int, list[int]]] = []
        if ev_pos_parts:
            all_pos = np.concatenate(ev_pos_parts)
            all_ids = np.concatenate(ev_id_parts)
            order = np.lexsort((all_ids, all_pos))
            all_pos = all_pos[order]
            all_ids = all_ids[order]
            cuts = np.flatnonzero(np.diff(all_pos)) + 1
            bounds = np.concatenate(([0], cuts, [all_pos.size]))
            events = [
                (int(all_pos[a]), all_ids[a:b].tolist())
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
            ]

        # --- walk phase: chunked segment counting + structural updates.
        last = n0  # absolute stream position fully processed
        for lo in range(0, len(events), self._EVENT_CHUNK):
            chunk = events[lo : lo + self._EVENT_CHUNK]
            ev_pos = np.asarray([p for p, _ in chunk], dtype=np.int64)
            ev_vals = arr[ev_pos - 1 - n0]
            nv_count = len(self._nv)
            if nv_count:
                tracked_now = np.fromiter(
                    self._nv.keys(), dtype=np.int64, count=nv_count
                )
                keys = np.unique(np.concatenate((tracked_now, ev_vals)))
            else:
                keys = np.unique(ev_vals)
            nv_code = np.zeros(keys.size, dtype=np.int64)
            tracked_mask = np.zeros(keys.size, dtype=bool)
            if nv_count:
                tcodes = np.searchsorted(keys, tracked_now)
                nv_code[tcodes] = np.fromiter(
                    self._nv.values(), dtype=np.int64, count=nv_count
                )
                tracked_mask[tcodes] = True
            code_of = {v: c for c, v in enumerate(keys.tolist())}
            # Segment j covers the elements strictly between event j-1
            # and event j (the event element itself is handled inline,
            # exactly like the scalar walk).
            starts = np.empty(len(chunk), dtype=np.int64)
            starts[0] = last - n0
            starts[1:] = ev_pos[:-1] - n0
            ends = ev_pos - 1 - n0
            seg = sampler_segment_counts(arr, keys, starts, ends)

            ev_val_list = ev_vals.tolist()
            for j, (p, entering) in enumerate(chunk):
                np.add(nv_code, seg[j], out=nv_code, where=tracked_mask)
                v = ev_val_list[j]
                cv = code_of[v]
                for i in entering:
                    if self._in_sample[i]:
                        v_old = int(self._val[i])
                        self._unlink(v_old, i)
                        self._in_sample[i] = False
                        if v_old not in self._head:
                            c_old = code_of[v_old]
                            tracked_mask[c_old] = False
                            nv_code[c_old] = 0
                    if not tracked_mask[cv]:
                        tracked_mask[cv] = True
                        nv_code[cv] = 0
                    self._val[i] = v
                    self._entry[i] = nv_code[cv]
                    self._push_head(v, i)
                    self._in_sample[i] = True
                # The event element itself: v is tracked now (the
                # entering slots hold it), so its own insert counts.
                nv_code[cv] += 1
            last = int(ev_pos[-1])
            self._nv = {
                int(v): int(c)
                for v, c in zip(
                    keys[tracked_mask].tolist(), nv_code[tracked_mask].tolist()
                )
            }

        # --- tail: elements after the last in-batch event.
        if self._nv and last < end:
            tracked = np.fromiter(self._nv.keys(), dtype=np.int64, count=len(self._nv))
            tracked.sort()
            tail = sampler_segment_counts(
                arr,
                tracked,
                np.asarray([last - n0], dtype=np.int64),
                np.asarray([end - n0], dtype=np.int64),
            )
            for v, c in zip(tracked.tolist(), tail[0].tolist()):
                if c:
                    self._nv[v] += c
        self._n = end
        self._rebuild_derived()

    def _insert_repeated(self, v: int, count: int) -> None:
        """Insert ``count`` occurrences of one value without expansion.

        Bit-identical to ``count`` :meth:`insert` calls: the gap
        between two pending sample positions collapses to one ``N_v``
        bump, and each pending position inside the run executes the
        full Figure 1 insert step with the same random draws.
        """
        end = self._n + count
        heap = [p for p in self._pending if p <= end]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            entering = self._pending.pop(p, None)
            if entering is None:
                continue  # duplicate heap entry for an already-handled position
            self._count_tracked(v, p - 1 - self._n)
            self._n += 1
            for i in sorted(entering):
                nxt = self._next_position(i, p)
                self._pending_add(nxt, i)
                if nxt <= end:
                    heapq.heappush(heap, nxt)
                if self._in_sample[i]:
                    self._discard(i)
                self._add_sample_point(i, v)
            if v in self._nv:
                self._nv[v] += 1
                self._hook_value_inserted(v)
        self._count_tracked(v, end - self._n)

    def _count_tracked(self, v: int, gap: int) -> None:
        """Advance ``gap`` positions that all insert ``v``, no events."""
        if gap <= 0:
            return
        self._n += gap
        if v in self._nv:
            self._nv[v] += gap
            self._hook_value_inserted_bulk(v, gap)

    def update_from_frequencies(
        self, values: Iterable[int] | np.ndarray, counts: Iterable[int] | np.ndarray
    ) -> None:
        """Fold a signed histogram in as a concrete operation sequence.

        The sample is position-dependent, so a histogram fixes a stream
        order: each value's insertions appear consecutively, values in
        the given order, followed by the deletions.  Insertion runs with
        modest counts are expanded into chunked value arrays and folded
        through :meth:`update_from_stream`; huge counts take the
        arithmetic :meth:`_insert_repeated` walk (a billion-occurrence
        entry costs O(s log) work, not O(count) memory).  Draws are
        pure functions of stream position, so both routes produce
        exactly the state of per-element inserts.  Deletions are
        applied per occurrence (each is O(1) amortised).  The multiset
        is smallest after the last deletion, so a batch that would make
        its size negative is refused before anything is applied.
        """
        vals, cnts = as_histogram(values, counts)
        if self._n + int(cnts.sum()) < 0:
            raise ValueError("cannot delete from an empty multiset")
        for piece in expand_histogram(vals, cnts, self._EXPAND_MAX):
            if isinstance(piece, tuple):
                self._insert_repeated(*piece)
            else:
                self.update_from_stream(piece)
        negative = cnts < 0
        for v, c in zip(vals[negative].tolist(), (-cnts[negative]).tolist()):
            for _ in range(c):
                self.delete(v)

    # ------------------------------------------------------------------
    # Queries (steps 27–32): O(s)
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """Per-slot X_i = n (2 r_i - 1); NaN for slots not in the sample."""
        x = np.full(self._s, np.nan, dtype=np.float64)
        n = float(self._n)
        for v, count in self._nv.items():
            i = self._head.get(v, _NO_SLOT)
            while i != _NO_SLOT:
                r = count - int(self._entry[i])
                x[i] = n * (2.0 * r - 1.0)
                i = int(self._next[i])
        return x

    def estimate(self) -> float:
        """Median over groups of the group means (steps 28–32).

        Slots not currently in the sample are ignored; groups with no
        in-sample slots are excluded from the median.  If the sample is
        empty (stream shorter than the smallest selected position, or
        everything evicted), the minimum-possible self-join size n is
        returned (SJ(R) >= n always, with equality for all-distinct
        data); for an empty multiset the estimate is 0.
        """
        if self._n == 0:
            return 0.0
        x = self.basic_estimators().reshape(self.s2, self.s1)
        mask = ~np.isnan(x)
        members = mask.sum(axis=1)
        valid = members > 0
        if not valid.any():
            return float(self._n)
        sums = np.where(mask, x, 0.0).sum(axis=1)
        group_means = sums[valid] / members[valid]
        return float(np.median(group_means))

    def query(self) -> float:
        """Alias for :meth:`estimate` (the paper's 'query' operation)."""
        return self.estimate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current multiset size (inserts minus deletes)."""
        return self._n

    @property
    def s(self) -> int:
        """Total number of sample slots s = s1 * s2."""
        return self._s

    @property
    def sample_size(self) -> int:
        """Number of slots currently holding a sample point."""
        return int(self._in_sample.sum())

    @property
    def memory_words(self) -> int:
        """Storage in the paper's cost model: Theta(s) words; we report s."""
        return self._s

    def sample_values(self) -> list[int]:
        """The multiset of values currently held by sample slots."""
        return [int(v) for v, ok in zip(self._val.tolist(), self._in_sample) if ok]

    def check_invariants(self) -> None:
        """Assert the Figure 1 data-structure invariants (for tests).

        * every in-sample slot is linked into exactly one S_v list and
          its value is tracked in N_v;
        * list order is most-recent-first: entry snapshots are
          non-increasing from head to tail;
        * every tracked N_v exceeds the entry snapshot of every slot in
          S_v (a slot's own sampled insertion already incremented N_v);
        * no N_v is tracked for values absent from the sample.
        """
        linked: set[int] = set()
        for v, head in self._head.items():
            if v not in self._nv:
                raise AssertionError(f"S_{v} exists but N_{v} is not tracked")
            i = head
            prev_entry = None
            prev_slot = _NO_SLOT
            while i != _NO_SLOT:
                if i in linked:
                    raise AssertionError(f"slot {i} linked twice")
                linked.add(i)
                if not self._in_sample[i]:
                    raise AssertionError(f"linked slot {i} not marked in-sample")
                if int(self._val[i]) != v:
                    raise AssertionError(f"slot {i} in S_{v} holds value {self._val[i]}")
                entry = int(self._entry[i])
                if entry >= self._nv[v]:
                    raise AssertionError(
                        f"slot {i}: entry {entry} >= N_v {self._nv[v]} for value {v}"
                    )
                if prev_entry is not None and entry > prev_entry:
                    raise AssertionError(f"S_{v} not ordered most-recent-first")
                if int(self._prev[i]) != prev_slot:
                    raise AssertionError(f"slot {i} has broken prev link")
                prev_entry = entry
                prev_slot = i
                i = int(self._next[i])
        in_sample = {int(i) for i in np.flatnonzero(self._in_sample)}
        if linked != in_sample:
            raise AssertionError(
                f"linked slots {sorted(linked)} != in-sample slots {sorted(in_sample)}"
            )

    # ------------------------------------------------------------------
    # Persistence (Sketch protocol)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the complete tracker state to plain Python types.

        The RNG cursor is the ``seed`` plus the stream position ``n``
        and the pending table already stored (draws are stateless), so
        a reloaded tracker continues the exact random sequence of the
        original — streaming can resume from a checkpoint with
        bit-identical behaviour.
        """
        return {
            "kind": self.kind,
            "s1": self.s1,
            "s2": self.s2,
            "initial_range": self.initial_range,
            "n": self._n,
            "rng_scheme": "counter",
            "pending": [
                [int(p), [int(i) for i in slots]]
                for p, slots in sorted(self._pending.items())
            ],
            "in_sample": np.flatnonzero(self._in_sample).tolist(),
            "val": self._val.tolist(),
            "entry": self._entry.tolist(),
            "next": self._next.tolist(),
            "prev": self._prev.tolist(),
            "head": [[int(v), int(i)] for v, i in sorted(self._head.items())],
            "nv": [[int(v), int(c)] for v, c in sorted(self._nv.items())],
            "seed": self.seed,
        }

    def _rebuild_derived(self) -> None:
        """Recompute any state derived from the base slot structures.

        No-op here; the fast-query subclass rebuilds its group sums.
        """

    @classmethod
    def from_dict(cls, payload: dict) -> "SampleCountSketch":
        """Reconstruct a tracker from :meth:`to_dict` output.

        Raises :class:`SketchPayloadError` for a payload that does not
        use the counter RNG, a slot index or link outside ``[0, s)``,
        or a pending position at or before ``n``.
        """
        if payload.get("kind") != cls.kind:
            raise ValueError(f"not a {cls.__name__} payload: {payload.get('kind')!r}")
        _require_counter_rng(payload, "rng_scheme")
        sketch = cls(
            int(payload["s1"]),
            int(payload["s2"]),
            seed=int(payload["seed"]),
            initial_range=int(payload["initial_range"]),
        )
        s = sketch._s

        def slot(i) -> int:
            i = int(i)
            if not 0 <= i < s:
                raise SketchPayloadError(f"slot index {i} out of range for s={s}")
            return i

        sketch._n = int(payload["n"])
        sketch._pending = {}
        for p, slots in payload["pending"]:
            if int(p) <= sketch._n:
                raise SketchPayloadError(
                    f"pending position {p} is not after n={sketch._n}"
                )
            sketch._pending[int(p)] = [slot(i) for i in slots]
        members = [slot(i) for i in payload["in_sample"]]
        sketch._in_sample = np.zeros(s, dtype=bool)
        sketch._in_sample[np.asarray(members, dtype=np.int64)] = True
        for key, attr in (
            ("val", "_val"),
            ("entry", "_entry"),
            ("next", "_next"),
            ("prev", "_prev"),
        ):
            array = np.asarray(payload[key], dtype=np.int64)
            if array.shape != (s,):
                raise SketchPayloadError(
                    f"field {key!r} has shape {array.shape}, expected ({s},)"
                )
            if key in ("next", "prev") and ((array < _NO_SLOT) | (array >= s)).any():
                raise SketchPayloadError(f"field {key!r} links a slot outside [0, {s})")
            setattr(sketch, attr, array)
        sketch._head = {int(v): slot(i) for v, i in payload["head"]}
        sketch._nv = {int(v): int(c) for v, c in payload["nv"]}
        sketch._rebuild_derived()
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(s1={self.s1}, s2={self.s2}, n={self._n}, "
            f"sample={self.sample_size}/{self._s})"
        )


@register_sketch
class SampleCountFastQuery(SampleCountSketch):
    """The fast-query sample-count variant (end of Section 2.1).

    Maintains, for every group j, the running sum ``Ysum_j`` of the
    counts ``r_i`` of the in-sample slots in the group, together with
    ``Num_j`` (how many slots contribute) and ``k_{v,j}`` (how many of
    them hold value v).  Updates touch at most s2 group entries per
    operation (O(s2) amortised); a query is O(s2): each group's mean
    basic estimator is ``n (2 Ysum_j / Num_j - 1)`` and the estimate is
    the median over groups, computed as ``n (2 Y* - 1)`` from the
    median Y* of the per-group mean counts — exactly the paper's
    formulation.
    """

    kind = "samplecount-fast"
    describe = (
        "sample-count variant with O(s2) amortised queries via "
        "incremental group sums; insert/delete, not mergeable"
    )

    def __init__(
        self,
        s1: int,
        s2: int = 1,
        seed: int | None = None,
        initial_range: int | None = None,
    ):
        super().__init__(s1, s2, seed=seed, initial_range=initial_range)
        self._ysum = np.zeros(self.s2, dtype=np.int64)  # sum of r_i per group
        self._num = np.zeros(self.s2, dtype=np.int64)  # Num_j
        self._k: dict[int, dict[int, int]] = {}  # k_{v,j}

    # -- hook implementations ------------------------------------------
    def _hook_slot_entered(self, i: int, v: int) -> None:
        j = i // self.s1
        per_value = self._k.setdefault(v, {})
        per_value[j] = per_value.get(j, 0) + 1
        self._num[j] += 1
        # The slot's r starts at 0 here; the enclosing insert's
        # _hook_value_inserted bump brings it to 1.

    def _hook_slot_discarded(self, i: int, v: int, r: int) -> None:
        j = i // self.s1
        self._ysum[j] -= r
        self._decrement_k(v, j)
        self._num[j] -= 1

    def _hook_value_inserted(self, v: int) -> None:
        for j, count in self._k[v].items():
            self._ysum[j] += count

    def _hook_value_inserted_bulk(self, v: int, count: int) -> None:
        for j, slots in self._k[v].items():
            self._ysum[j] += count * slots

    def _hook_value_delete_pre(self, v: int) -> None:
        for j, count in self._k[v].items():
            self._ysum[j] -= count

    def _hook_slot_evicted_by_delete(self, i: int, v: int) -> None:
        # The evicted slot's r is 0 after the pre-decrement, so Ysum is
        # already correct; only the membership counters change.
        j = i // self.s1
        self._decrement_k(v, j)
        self._num[j] -= 1

    def _decrement_k(self, v: int, j: int) -> None:
        per_value = self._k[v]
        per_value[j] -= 1
        if per_value[j] == 0:
            del per_value[j]
        if not per_value:
            del self._k[v]

    # -- O(s2) query -----------------------------------------------------
    def estimate(self) -> float:
        """Median over groups of ``n (2 Ysum_j / Num_j - 1)``."""
        if self._n == 0:
            return 0.0
        valid = self._num > 0
        if not valid.any():
            return float(self._n)
        mean_counts = self._ysum[valid].astype(np.float64) / self._num[valid]
        y_star = float(np.median(mean_counts))
        return float(self._n) * (2.0 * y_star - 1.0)

    def _rebuild_derived(self) -> None:
        """Recompute Ysum / Num / k_{v,j} from the restored slot state.

        The group aggregates are pure functions of the base structures,
        so deserialisation restores the base state and replays this —
        the same computation :meth:`check_invariants` checks against.
        """
        self._ysum = np.zeros(self.s2, dtype=np.int64)
        self._num = np.zeros(self.s2, dtype=np.int64)
        self._k = {}
        for v, count in self._nv.items():
            i = self._head.get(v, _NO_SLOT)
            while i != _NO_SLOT:
                j = i // self.s1
                self._num[j] += 1
                self._ysum[j] += count - int(self._entry[i])
                per_value = self._k.setdefault(v, {})
                per_value[j] = per_value.get(j, 0) + 1
                i = int(self._next[i])

    def check_invariants(self) -> None:
        """Base invariants plus consistency of Ysum/Num/k with slot state."""
        super().check_invariants()
        num = np.zeros(self.s2, dtype=np.int64)
        ysum = np.zeros(self.s2, dtype=np.int64)
        k: dict[int, dict[int, int]] = {}
        for v, count in self._nv.items():
            i = self._head.get(v, _NO_SLOT)
            while i != _NO_SLOT:
                j = i // self.s1
                num[j] += 1
                ysum[j] += count - int(self._entry[i])
                k.setdefault(v, {})
                k[v][j] = k[v].get(j, 0) + 1
                i = int(self._next[i])
        if not np.array_equal(num, self._num):
            raise AssertionError(f"Num mismatch: {self._num.tolist()} vs {num.tolist()}")
        if not np.array_equal(ysum, self._ysum):
            raise AssertionError(
                f"Ysum mismatch: {self._ysum.tolist()} vs {ysum.tolist()}"
            )
        if k != self._k:
            raise AssertionError(f"k_{{v,j}} mismatch: {self._k} vs {k}")


# ----------------------------------------------------------------------
# Vectorised offline evaluator (known-n, insertion-only)
# ----------------------------------------------------------------------
def sample_count_estimate_offline(
    values: np.ndarray | Iterable[int],
    s1: int,
    s2: int = 1,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Sample-count estimate of SJ for a full in-memory stream.

    Implements the [AMS99] insertion-only description directly: draw
    ``s = s1 * s2`` positions uniformly (with replacement, each slot an
    independent choice), set ``r_i`` to the number of occurrences of
    the sampled value at or after the sampled position, and combine
    ``X_i = n (2 r_i - 1)`` by median-of-means.  Vectorised with one
    stable argsort; used by the experiment harness to sweep sample
    sizes over million-element streams.

    Parameters
    ----------
    values:
        The insertion-only stream (1-D integer array).
    s1, s2:
        Accuracy / confidence split (total sample size s1 * s2).
    rng:
        ``numpy.random.Generator``, seed, or None.
    """
    s1, s2 = group_shape_for(s1, s2)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"stream must be 1-D, got shape {arr.shape}")
    n = arr.size
    if n == 0:
        return 0.0

    s = s1 * s2
    positions = gen.integers(0, n, size=s)

    # occurrence-rank machinery: for every stream position p compute
    # how many occurrences of arr[p] appear strictly before p, and the
    # total frequency of arr[p].
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    if n > 1:
        is_start[1:] = sorted_vals[1:] != sorted_vals[:-1]
    group_id = np.cumsum(is_start) - 1
    group_start = np.flatnonzero(is_start)
    within_group = np.arange(n) - group_start[group_id]
    group_sizes = np.diff(np.append(group_start, n))

    before = np.empty(n, dtype=np.int64)
    before[order] = within_group
    freq = np.empty(n, dtype=np.int64)
    freq[order] = group_sizes[group_id]

    r = freq[positions] - before[positions]  # occurrences at or after p (>= 1)
    x = float(n) * (2.0 * r.astype(np.float64) - 1.0)
    return median_of_means(x.reshape(s2, s1))
