"""The windowed sketch store: time-bucketed continuous maintenance.

The paper's setting is *maintenance*: estimates must stay available as
the data evolves, not just after a one-shot build.  This module adds
the time dimension.  A :class:`WindowedSketchStore` partitions the
timestamp axis into fixed-width buckets, keeps one row per bucket that
has seen an event — a sketch of any registry-known kind (see
:class:`~repro.store.spec.SketchSpec`), or while it is small the exact
histogram that sketch would summarise — and answers estimates over
arbitrary bucket-aligned windows ``[t0, t1)`` by merging the covered
rows on the fly.  Because mergeable sketches combine exactly
(tug-of-war counters add — linearity), the merged window sketch is
**bit-identical** to a monolithic sketch built over the same window,
which the test suite and ``benchmarks/bench_engine.py`` assert.

Design points:

* **Routing.**  Ingestion takes parallel ``(timestamps, values)``
  arrays (plus optional signed ``counts`` for insert/delete batches),
  groups them by bucket with one stable argsort — so out-of-order
  arrivals land in the right bucket and within-bucket arrival order is
  preserved for order-sensitive samplers — and feeds each bucket
  through the vectorised :mod:`repro.engine.ingest` paths.
* **Spans.**  Buckets are stored as half-open *spans* of bucket
  indices.  A fresh bucket is a width-one span; compaction merges old
  spans into one wide span.  Queries must cover whole spans (a sketch
  cannot be split), which is exactly the bucket-alignment rule.
* **Sparse rows.**  A span of a linear kind whose size the spec fixes
  (``is_linear`` and ``is_fixed_size``: ``tugofwar``, ``fk_moments``,
  ``f0``) starts as a :class:`~repro.store.buckets.SparseRow`: the
  values whose net count is nonzero, with those counts, 2 words per
  value.  It densifies — one build and one ``update_from_frequencies``
  of the histogram — after the first batch that brings it to the
  sketch's ``memory_words``, or that makes folding it into a query
  cost ``_FOLD_BUDGET`` counter updates, and holds the sketch from
  then on.  The counters are integers and the sketch is linear, so
  every answer, payload and refusal is the one the sketch would give.
* **Merge-on-query.**  ``query(t0, t1)`` merges the covered span
  sketches with :func:`repro.engine.sharded.merge_sketches`, folds the
  covered sparse rows into the result with one
  ``update_from_frequencies``, and never mutates the store;
  single-span queries of non-mergeable kinds are answered from a
  serialisation round-trip copy.
* **Retention.**  ``compact`` folds history older than a horizon into
  one span (still queryable as part of any window containing it);
  ``evict`` forgets it.  Both can run automatically after ingestion
  via the ``retention_buckets`` / ``retention_policy`` settings.
* **Snapshot/restore.**  The whole store round-trips through
  ``to_dict`` / ``from_dict`` using the engine serialization registry,
  RNG state included, so a restored store continues bit-identically.
  A sparse row is written as the sketch it stands for, so a restored
  store holds sketches only.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Mapping

import numpy as np

from ..engine.ingest import ingest_stream
from ..engine.protocol import Sketch
from ..engine.registry import (
    SketchPayloadError,
    UnknownSketchKindError,
    dump_sketch,
    load_sketch,
)
from ..engine.sharded import merge_sketches
from .buckets import BucketLayout, BucketSpan, SparseRow, WindowAlignmentError
from .spec import SketchSpec

__all__ = ["WindowedSketchStore", "WindowAlignmentError", "BucketSpan"]

#: Counter updates a query miss may spend folding one sparse row.
#: Folding ``v`` values into a sketch of ``w`` words updates ``v * w``
#: counters, where a dense row costs one merge of ``w`` additions; a
#: row densifies once ``v * w`` reaches the budget (16 values at 64x5,
#: 4 at 256x5, none from 5,120 words up).  On the cffi kernels a counter
#: update takes ~1.5 ns and a dense merge ~2.5 us per row, so a sparse
#: row folds in about the time of three dense merges.
_FOLD_BUDGET = 5_120


class WindowedSketchStore:
    """Time-bucketed sketches with vectorised ingestion and merge-on-query.

    Parameters
    ----------
    spec:
        The :class:`~repro.store.spec.SketchSpec` every bucket sketch
        is built from.  Mergeable kinds must carry an explicit seed in
        their params so bucket sketches are combinable.
    bucket_width:
        Width of one time bucket (integer time units, >= 1).  A
        prebuilt :class:`~repro.store.buckets.BucketLayout` may be
        passed instead (``origin`` is then ignored); a keyed fleet
        hands one shared layout to every per-key store.
    origin:
        Timestamp where bucket 0 begins; bucket boundaries are
        ``origin + k * bucket_width``.
    retention_buckets:
        If set, history older than this many buckets behind the newest
        ingested bucket is compacted or evicted after every ingest.
    retention_policy:
        ``"compact"`` folds expired spans into one span (history stays
        queryable in windows that contain it); ``"evict"`` drops them.

    Examples
    --------
    >>> store = WindowedSketchStore(
    ...     SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1}),
    ...     bucket_width=10,
    ... )
    >>> store.ingest([3, 27, 14], [5, 5, 9])   # out of order is fine
    >>> round(store.estimate(0, 30), 1) >= 0
    True
    """

    def __init__(
        self,
        spec: SketchSpec,
        bucket_width: int,
        origin: int = 0,
        retention_buckets: int | None = None,
        retention_policy: str = "compact",
    ):
        if not isinstance(spec, SketchSpec):
            raise TypeError(f"spec must be a SketchSpec, got {type(spec).__name__}")
        self.spec = spec
        self.layout = (
            bucket_width
            if isinstance(bucket_width, BucketLayout)
            else BucketLayout(bucket_width, origin)
        )
        if retention_buckets is not None and int(retention_buckets) < 1:
            raise ValueError(
                f"retention_buckets must be >= 1, got {retention_buckets}"
            )
        self.retention_buckets = (
            None if retention_buckets is None else int(retention_buckets)
        )
        if retention_policy not in ("compact", "evict"):
            raise ValueError(
                f"retention_policy must be 'compact' or 'evict', got "
                f"{retention_policy!r}"
            )
        if (
            self.retention_buckets is not None
            and retention_policy == "compact"
            and not spec.is_mergeable
        ):
            # Caught here, not mid-ingest: retention runs after every
            # batch, so a non-mergeable kind would otherwise blow up
            # only once enough buckets exist — with the batch already
            # half-applied.
            raise ValueError(
                f"retention_policy='compact' cannot be used with the "
                f"non-mergeable sketch kind {spec.kind!r}; use "
                "retention_policy='evict'"
            )
        self.retention_policy = retention_policy
        # Builds one sketch per spec object, which also refuses a spec
        # whose sketches could not be built (a bad seed, say) here.
        words = spec.memory_words
        # Held values at which a sparse row densifies: when its pairs
        # take the sketch's words, or its fold the whole budget.
        self._densify_at = min(
            -(-words // 2), -(-_FOLD_BUDGET // max(words, 1))
        )
        self._sparse = (
            spec.is_linear and spec.is_fixed_size and self._densify_at > 1
        )
        self._spans: List[BucketSpan] = []  # sorted by start, non-overlapping

    # ------------------------------------------------------------------
    # Bucket arithmetic (delegated to the shared BucketLayout core)
    # ------------------------------------------------------------------
    @property
    def bucket_width(self) -> int:
        """Width of one time bucket (integer time units)."""
        return self.layout.bucket_width

    @property
    def origin(self) -> int:
        """Timestamp where bucket 0 begins."""
        return self.layout.origin

    def bucket_of(self, timestamp: int) -> int:
        """The bucket index containing ``timestamp`` (floor semantics)."""
        return self.layout.bucket_of(timestamp)

    def bucket_bounds(self, bucket: int) -> tuple[int, int]:
        """The half-open timestamp range ``[t0, t1)`` of one bucket."""
        return self.layout.bucket_bounds(bucket)

    def _boundary_bucket(self, t: int) -> int:
        """The bucket starting at ``t``; raises unless ``t`` is a boundary."""
        return self.layout.boundary_bucket(t)

    def _window_buckets(self, t0: int, t1: int, align: str) -> tuple[int, int]:
        """Convert a timestamp window to a half-open bucket range."""
        return self.layout.window_buckets(t0, t1, align)

    def _spans_in(self, b0: int, b1: int) -> List[BucketSpan]:
        return [s for s in self._spans if s.start < b1 and s.end > b0]

    # ------------------------------------------------------------------
    # Rows: sparse until they are too big to hold or to fold
    # ------------------------------------------------------------------
    def _new_row(self) -> Sketch | SparseRow:
        """An empty row: sparse for the linear kinds of fixed size."""
        return SparseRow() if self._sparse else self.spec.build()

    def _settle(self, row: Sketch | SparseRow) -> Sketch | SparseRow:
        """``row``, densified if it is a sparse row that has grown too big."""
        if isinstance(row, SparseRow) and row.values.size >= self._densify_at:
            return self._fold([row])
        return row

    def _as_sketch(self, row: Sketch | SparseRow) -> Sketch:
        """The sketch ``row`` stands for (a sketch stands for itself)."""
        return self._fold([row]) if isinstance(row, SparseRow) else row

    def _fold(self, rows: list) -> Sketch:
        """A fresh sketch of the union of ``rows``' multisets.

        The sketches merge as queries always have (a lone one with a
        fresh build, so the result never aliases a stored row), and the
        sparse rows then fold in with one ``update_from_frequencies`` of
        their summed histogram (a value held by several rows is hashed
        once); the counters are integers, so this is bit-identical to
        merging the sketches the sparse rows stand for.
        """
        sketches = [r for r in rows if not isinstance(r, SparseRow)]
        sparse = [r for r in rows if isinstance(r, SparseRow)]
        if len(sketches) < 2:
            sketches.insert(0, self.spec.build())
        merged = merge_sketches(sketches)
        if sparse:
            pooled = SparseRow.union(sparse) if len(sparse) > 1 else sparse[0]
            merged.update_from_frequencies(pooled.values, pooled.counts)
        return merged

    def _merge_rows(self, rows: list) -> Sketch | SparseRow:
        """One row of the union of ``rows``: sparse while they all are."""
        if all(isinstance(r, SparseRow) for r in rows):
            return self._settle(SparseRow.union(rows))
        return self._fold(rows)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        timestamps: np.ndarray | Iterable[int],
        values: np.ndarray | Iterable[int],
        counts: np.ndarray | Iterable[int] | None = None,
    ) -> None:
        """Route a timestamped batch to its buckets and bulk-load each.

        Parameters
        ----------
        timestamps, values:
            Parallel 1-D integer arrays; any timestamp order (late and
            out-of-order arrivals are routed by value, not position).
        counts:
            Optional signed multiplicities: entry i applies ``counts[i]``
            occurrences of ``values[i]`` (negative = deletions, applied
            through each sketch's own delete semantics).  Omitted means
            one insertion per entry.  Deletions are *retractions*: they
            must carry the timestamp of the insert they reverse, so
            they route to the bucket that holds it — a bucket sketch
            summarises only its own events.  As in the paper's tracking
            model, validity of the delete stream is the caller's
            responsibility; detection of a mis-routed delete is
            best-effort (guaranteed for the exact ``frequency`` kind,
            but a linear sketch only notices when a bucket's total
            count would go negative).  A detected violation (or any
            sketch-level precondition failure) raises ``ValueError``
            with the offending bucket named.

        Bucket groups load one at a time in bucket order.  When one is
        refused, the groups before it stay applied, no later group is,
        and the refused group opens no span.  A linear kind's refused
        row is left as it was; the exact ``frequency`` kind applies a
        deletion group entry by entry, so restore a refused batch of it
        from the last snapshot.
        """
        ts = np.asarray(timestamps, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if ts.ndim != 1 or vals.ndim != 1 or ts.shape != vals.shape:
            raise ValueError(
                f"timestamps {ts.shape} and values {vals.shape} must be "
                "equal-length 1-D arrays"
            )
        cnts = None
        if counts is not None:
            cnts = np.asarray(counts, dtype=np.int64)
            if cnts.shape != vals.shape:
                raise ValueError(
                    f"counts {cnts.shape} must match values {vals.shape}"
                )
        if ts.size == 0:
            return

        buckets = (ts - self.origin) // self.bucket_width
        if bool((buckets == buckets[0]).all()):
            # Arrival-batched streams routinely land a whole batch in
            # one bucket; the stable sort below would be the identity
            # permutation, so skip it (and the fancy-index copies).
            starts = np.array([0])
            ends = np.array([buckets.size])
        else:
            # Stable sort: groups by bucket while preserving arrival
            # order within each bucket (order matters for the samplers).
            order = np.argsort(buckets, kind="stable")
            buckets = buckets[order]
            vals = vals[order]
            if cnts is not None:
                cnts = cnts[order]
            cuts = np.flatnonzero(np.diff(buckets)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [buckets.size]))

        for lo, hi in zip(starts.tolist(), ends.tolist()):
            self._load_group(
                int(buckets[lo]),
                vals[lo:hi],
                None if cnts is None else cnts[lo:hi],
            )
        self._apply_retention()

    def _load_into(
        self, row: Sketch | SparseRow, values: np.ndarray, counts
    ) -> Sketch | SparseRow:
        """Apply one segment to ``row``; returns the row that now holds it.

        A sparse row that has grown too big comes back as its sketch.  A
        stream is hashed into its histogram once: when an empty sparse
        row's first stream already holds too many values, a fresh sketch
        takes the histogram in its place.
        """
        if not isinstance(row, SparseRow):
            if counts is None:
                ingest_stream(row, values)
            else:
                row.update_from_frequencies(values, counts)
            return row
        if counts is None:
            values, counts = np.unique(values, return_counts=True)
            if not row.values.size and values.size >= self._densify_at:
                row = self.spec.build()
        row.update_from_frequencies(values, counts)
        return self._settle(row)

    def _load_group(self, bucket: int, values: np.ndarray, counts) -> None:
        """Apply one bucket group to the span holding it, naming it on failure.

        A bucket no span covers gets a width-one span, which joins the
        sorted span list (O(log S) lookup and insertion) only once its
        group has loaded; late arrivals older than a compacted span
        fold into it, so spans never overlap.  A sketch-level rejection
        (most commonly a delete routed to a bucket that never saw the
        insert) is re-raised as ``ValueError`` with the span's
        timestamp range, and a hint about deletions when the refused
        group carries one.  ``KeyError`` is included because the exact
        ``frequency`` kind signals unmatched deletes that way, and
        ``NotImplementedError`` because insertion-only kinds reject
        deletion counts with it.
        """
        i = bisect.bisect_right(self._spans, bucket, key=lambda s: s.start)
        covered = i > 0 and self._spans[i - 1].covers(bucket)
        span = (
            self._spans[i - 1]
            if covered
            else BucketSpan(bucket, bucket + 1, self._new_row())
        )
        try:
            span.row = self._load_into(span.row, values, counts)
        except (ValueError, KeyError, NotImplementedError) as exc:
            lo, _ = self.bucket_bounds(span.start)
            _, hi = self.bucket_bounds(span.end - 1)
            reason = exc.args[0] if exc.args else exc
            hint = (
                " (deletions must carry the timestamp of the insert "
                "they reverse)"
                if counts is not None and int(counts.min()) < 0
                else ""
            )
            raise ValueError(
                f"bucket span [{lo}, {hi}): {reason}{hint}"
            ) from exc
        if not covered:
            self._spans.insert(i, span)

    def _apply_retention(self) -> None:
        if self.retention_buckets is None or not self._spans:
            return
        horizon = max(s.end for s in self._spans) - self.retention_buckets
        if self.retention_policy == "evict":
            self._evict_spans(horizon)
        else:
            self._compact_spans(horizon)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window_bounds(
        self, t0: int, t1: int, align: str = "strict"
    ) -> tuple[int, int]:
        """The timestamp window a query would actually cover.

        Expands ``[t0, t1)`` to bucket boundaries (under ``align``
        rules) and then to whole spans, so the caller knows the exact
        range the returned estimate summarises.
        """
        return self.layout.align_spans(t0, t1, align, self.bucket_spans)

    def query(self, t0: int, t1: int, align: str = "strict") -> Sketch:
        """The sketch of every event in the window ``[t0, t1)``.

        Merges the covered span sketches on the fly; the store is
        never mutated and the result is an independent sketch.  For
        mergeable kinds it is bit-identical to a monolithic sketch of
        the window's events.  A window covering several spans of a
        non-mergeable kind raises
        :class:`~repro.engine.protocol.MergeUnsupportedError`.
        """
        lo, hi = self.window_bounds(t0, t1, align)
        return self.query_resolved(lo, hi)

    def query_resolved(self, lo: int, hi: int) -> Sketch:
        """:meth:`query` for an already-resolved span-aligned window.

        ``(lo, hi)`` must come from :meth:`window_bounds`; callers that
        need both the resolved window and its sketch (the estimation
        service caches the pair) use this to resolve once instead of
        twice.
        """
        b0 = (lo - self.origin) // self.bucket_width
        b1 = (hi - self.origin) // self.bucket_width
        spans = self._spans_in(b0, b1)
        if not spans:
            return self.spec.build()
        if len(spans) == 1 and not self.spec.is_mergeable:
            # Detached copy through the serialization registry, so the
            # caller cannot mutate the stored bucket.
            return load_sketch(dump_sketch(spans[0].row))
        return self._fold([s.row for s in spans])

    def estimate(self, t0: int, t1: int, align: str = "strict") -> float:
        """Self-join estimate over the window (merge-on-query)."""
        return float(self.query(t0, t1, align=align).estimate())

    # ------------------------------------------------------------------
    # Retention: compaction and eviction
    # ------------------------------------------------------------------
    def compact(self, before: int | None = None) -> int:
        """Merge spans strictly older than ``before`` into one span.

        ``before`` must lie on a bucket boundary (``None`` compacts all
        spans).  Only spans *entirely* before the horizon are touched.
        Returns the number of spans that were folded together (0 if
        fewer than two qualified).
        """
        horizon = None if before is None else self._boundary_bucket(before)
        return self._compact_spans(horizon)

    def _compact_spans(self, horizon: int | None) -> int:
        old = [
            s for s in self._spans if horizon is None or s.end <= horizon
        ]
        if len(old) < 2:
            return 0
        if not self.spec.is_mergeable:
            raise TypeError(
                f"cannot compact {self.spec.kind!r} buckets: the kind does "
                "not support merging (use retention_policy='evict')"
            )
        merged = BucketSpan(
            min(s.start for s in old),
            max(s.end for s in old),
            self._merge_rows([s.row for s in old]),
        )
        old_ids = {id(s) for s in old}
        kept = [s for s in self._spans if id(s) not in old_ids]
        self._spans = sorted(kept + [merged], key=lambda s: s.start)
        return len(old)

    def evict(self, before: int) -> int:
        """Drop spans entirely older than ``before`` (a bucket boundary).

        Evicted history is forgotten: subsequent windows that would
        have covered it simply see no events there.  Returns the
        number of spans dropped.
        """
        return self._evict_spans(self._boundary_bucket(before))

    def _evict_spans(self, horizon: int) -> int:
        old = [s for s in self._spans if s.end <= horizon]
        self._spans = [s for s in self._spans if s.end > horizon]
        return len(old)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[tuple[int, int]]:
        """Timestamp ranges ``[t0, t1)`` of the stored spans, in order."""
        return [
            (self.bucket_bounds(s.start)[0], self.bucket_bounds(s.end - 1)[1])
            for s in self._spans
        ]

    @property
    def bucket_spans(self) -> list[tuple[int, int]]:
        """Bucket-index ranges ``[b0, b1)`` of the stored spans, in order.

        The bucket-level twin of :attr:`spans`; the estimation service
        diffs this structure around mutations to invalidate exactly the
        cached windows a mutation could have changed.
        """
        return [(s.start, s.end) for s in self._spans]

    def covering_span(self, bucket: int) -> tuple[int, int] | None:
        """The bucket-index span holding ``bucket``, or None if uncovered.

        Because a span's sketch cannot be split, any mutation that
        touches one bucket of a span affects every query whose window
        intersects the *whole* span — which is why cache invalidation
        works on covering spans, not raw buckets.
        """
        b = int(bucket)
        i = bisect.bisect_right(self._spans, b, key=lambda s: s.start) - 1
        if i >= 0 and self._spans[i].covers(b):
            return self._spans[i].start, self._spans[i].end
        return None

    @property
    def span_count(self) -> int:
        """Number of stored bucket spans."""
        return len(self._spans)

    @property
    def coverage(self) -> tuple[int, int] | None:
        """Timestamp range from oldest to newest span, or None if empty."""
        if not self._spans:
            return None
        lo, _ = self.bucket_bounds(self._spans[0].start)
        _, hi = self.bucket_bounds(self._spans[-1].end - 1)
        return lo, hi

    @property
    def memory_words(self) -> int:
        """Words held across the spans (paper cost model).

        A span holding a sketch counts the sketch's words; a sparse row
        counts 2 per (value, count) pair it holds.  A store restored by
        :meth:`from_dict` holds sketches only, so it reports the full
        sketch words for every span.
        """
        return sum(s.row.memory_words for s in self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedSketchStore(kind={self.spec.kind!r}, "
            f"width={self.bucket_width}, spans={len(self._spans)}, "
            f"coverage={self.coverage})"
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the whole store (config + every bucket sketch).

        A sparse row is written as the sketch it stands for, so the
        payload does not depend on which spans are sparse (and a
        restored store holds sketches only).
        """
        return {
            "kind": "windowed-store",
            "spec": self.spec.to_dict(),
            "bucket_width": self.bucket_width,
            "origin": self.origin,
            "retention_buckets": self.retention_buckets,
            "retention_policy": self.retention_policy,
            "spans": [
                [s.start, s.end, dump_sketch(self._as_sketch(s.row))]
                for s in self._spans
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WindowedSketchStore":
        """Reconstruct a store from :meth:`to_dict` output.

        Bucket sketches are restored through the serialization
        registry, RNG state included, so continued ingestion is
        bit-identical to a store that was never snapshotted.
        """
        if not isinstance(payload, Mapping):
            raise SketchPayloadError(
                f"store payload must be a mapping, got {type(payload).__name__}"
            )
        if payload.get("kind") != "windowed-store":
            raise SketchPayloadError(
                f"not a windowed-store payload: kind={payload.get('kind')!r}"
            )
        try:
            store = cls(
                SketchSpec.from_dict(payload["spec"]),
                bucket_width=int(payload["bucket_width"]),
                origin=int(payload.get("origin", 0)),
                retention_buckets=payload.get("retention_buckets"),
                retention_policy=payload.get("retention_policy", "compact"),
            )
            spans = [
                BucketSpan(int(b0), int(b1), load_sketch(sketch))
                for b0, b1, sketch in payload["spans"]
            ]
        except (SketchPayloadError, UnknownSketchKindError):
            raise  # already actionable; don't bury under a generic wrapper
        except (KeyError, TypeError, ValueError) as exc:
            raise SketchPayloadError(f"corrupt windowed-store payload: {exc}") from exc
        spans.sort(key=lambda s: s.start)
        for span in spans:
            if span.end <= span.start:
                raise SketchPayloadError(
                    f"corrupt windowed-store payload: empty span "
                    f"[{span.start}, {span.end})"
                )
        for a, b in zip(spans, spans[1:]):
            if b.start < a.end:
                raise SketchPayloadError(
                    f"corrupt windowed-store payload: spans "
                    f"[{a.start}, {a.end}) and [{b.start}, {b.end}) overlap"
                )
        store._spans = spans
        return store
