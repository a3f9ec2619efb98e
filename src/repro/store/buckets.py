"""The bucket/span arithmetic core shared by every windowed store.

Extracted from :class:`~repro.store.windowed.WindowedSketchStore` so
the keyed fleet (:class:`~repro.store.keyed.KeyedSketchStore`) can
reuse the exact same time-axis geometry — bucket indexing, boundary
checks, strict/outer window alignment — without duplicating the rules
or instantiating a throwaway store.  One :class:`BucketLayout` is the
single source of truth for "where does timestamp t live" and "is this
window answerable"; every per-key store of a keyed fleet shares one
layout, which is what makes per-key answers comparable and cluster
scatter–gather well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..engine.protocol import Sketch, as_histogram
from ..kernels.dispatch import _as_domain_values

__all__ = ["BucketLayout", "BucketSpan", "SparseRow", "WindowAlignmentError"]

_NO_VALUES = np.empty(0, dtype=np.int64)
_NO_VALUES.setflags(write=False)


class WindowAlignmentError(ValueError):
    """Raised when a window boundary falls inside a bucket span.

    A span's sketch summarises every event in the span; it cannot be
    split at query time.  Pass ``align="outer"`` to expand the window
    to the smallest span-aligned superset instead.
    """


class SparseRow:
    """The exact frequency vector of a span, held in place of its sketch.

    A linear sketch is a function of its frequency vector alone, so a
    span that has seen few distinct values can hold the values whose
    net count is nonzero, with those counts, in 2 words per value; one
    ``update_from_frequencies`` of that histogram into a fresh sketch
    gives back its counters bit for bit.  The row takes a sketch's
    histogram update and refuses what the sketch's own would refuse — a
    batch that would make ``n`` negative, or a value outside the hash
    field — with the same message, before anything changes.
    """

    __slots__ = ("values", "counts", "n")

    def __init__(
        self, values: np.ndarray = _NO_VALUES, counts: np.ndarray = _NO_VALUES
    ):
        self.values = values  # sorted, distinct
        self.counts = counts  # their net counts, all nonzero
        self.n = int(counts.sum())

    @classmethod
    def union(cls, rows: Sequence["SparseRow"]) -> "SparseRow":
        """One row holding the sum of ``rows``' frequency vectors."""
        return cls(*_net(
            np.concatenate([r.values for r in rows]),
            np.concatenate([r.counts for r in rows]),
        ))

    @property
    def memory_words(self) -> int:
        """Two words per held (value, count) pair."""
        return 2 * self.values.size

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Add a signed histogram, checked as a linear sketch checks it."""
        vals, cnts = as_histogram(values, counts)
        total = int(cnts.sum())
        if self.n + total < 0:
            raise ValueError("batch would make the multiset size negative")
        _as_domain_values(vals)
        self.values, self.counts = _net(
            np.concatenate((self.values, vals)),
            np.concatenate((self.counts, cnts)),
        )
        self.n += total


def _net(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort a histogram, sum repeated values and drop zero counts."""
    order = np.argsort(values, kind="stable")
    values, counts = values[order], counts[order]
    if values.size > 1:
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        values, counts = values[starts], np.add.reduceat(counts, starts)
    live = counts != 0
    return values[live], counts[live]


@dataclass(eq=False)
class BucketSpan:
    """A half-open range of bucket indices and the row summarising it.

    The row is the span's sketch, or a :class:`SparseRow` while the
    span is a small one of a linear kind (see
    :class:`~repro.store.windowed.WindowedSketchStore`).
    """

    start: int  # first bucket index covered (inclusive)
    end: int  # one past the last bucket index covered
    row: Sketch | SparseRow

    def covers(self, bucket: int) -> bool:
        """Whether ``bucket`` falls inside this span."""
        return self.start <= bucket < self.end


@dataclass(frozen=True)
class BucketLayout:
    """The time-axis geometry of a windowed store: width and origin.

    Immutable and shared freely: a keyed fleet hands the same layout
    to every per-key store so all of them agree on bucket boundaries.
    """

    bucket_width: int
    origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bucket_width", int(self.bucket_width))
        object.__setattr__(self, "origin", int(self.origin))
        if self.bucket_width < 1:
            raise ValueError(
                f"bucket_width must be >= 1, got {self.bucket_width}"
            )

    def bucket_of(self, timestamp: int) -> int:
        """The bucket index containing ``timestamp`` (floor semantics)."""
        return (int(timestamp) - self.origin) // self.bucket_width

    def bucket_bounds(self, bucket: int) -> tuple[int, int]:
        """The half-open timestamp range ``[t0, t1)`` of one bucket."""
        t0 = self.origin + int(bucket) * self.bucket_width
        return t0, t0 + self.bucket_width

    def boundary_bucket(self, t: int) -> int:
        """The bucket starting at ``t``; raises unless ``t`` is a boundary."""
        offset = int(t) - self.origin
        if offset % self.bucket_width:
            raise WindowAlignmentError(
                f"timestamp {t} is not a bucket boundary (width "
                f"{self.bucket_width}, origin {self.origin})"
            )
        return offset // self.bucket_width

    def window_buckets(self, t0: int, t1: int, align: str) -> tuple[int, int]:
        """Convert a timestamp window to a half-open bucket range."""
        t0, t1 = int(t0), int(t1)
        if t1 <= t0:
            raise ValueError(f"empty window: [{t0}, {t1})")
        if align not in ("strict", "outer"):
            raise ValueError(f"align must be 'strict' or 'outer', got {align!r}")
        b0 = (t0 - self.origin) // self.bucket_width
        b1 = -((-(t1 - self.origin)) // self.bucket_width)  # ceil division
        if align == "strict":
            lo, _ = self.bucket_bounds(b0)
            _, hi = self.bucket_bounds(b1 - 1)
            if lo != t0 or hi != t1:
                raise WindowAlignmentError(
                    f"window [{t0}, {t1}) is not aligned to bucket boundaries "
                    f"(width {self.bucket_width}, origin {self.origin}); the "
                    f"covering aligned window is [{lo}, {hi}) — pass "
                    f'align="outer" to use it'
                )
        return b0, b1

    def align_spans(
        self,
        t0: int,
        t1: int,
        align: str,
        spans: Sequence[tuple[int, int]],
    ) -> tuple[int, int]:
        """The timestamp window a span-respecting query actually covers.

        Expands ``[t0, t1)`` to bucket boundaries (under ``align``
        rules) and then to whole spans from ``spans`` (bucket-index
        pairs, as :attr:`WindowedSketchStore.bucket_spans` reports);
        under ``align="strict"`` a window that would split a span is a
        :class:`WindowAlignmentError`.
        """
        b0, b1 = self.window_buckets(t0, t1, align)
        for start, end in spans:
            if start >= b1 or end <= b0:
                continue
            if start < b0 or end > b1:
                if align == "strict":
                    s0, _ = self.bucket_bounds(start)
                    _, s1 = self.bucket_bounds(end - 1)
                    raise WindowAlignmentError(
                        f"window [{t0}, {t1}) splits the compacted span "
                        f"[{s0}, {s1}); cover the whole span or pass "
                        f'align="outer"'
                    )
                b0 = min(b0, start)
                b1 = max(b1, end)
        lo, _ = self.bucket_bounds(b0)
        _, hi = self.bucket_bounds(b1 - 1)
        return lo, hi
