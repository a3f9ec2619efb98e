"""Frequency vectors and exact join / self-join computation.

The paper's quantities are all functions of the frequency vector of an
attribute: the self-join size ``SJ(R) = sum_i f_i^2`` (the second
frequency moment F2, a.k.a. Gini's repeat rate) and the join size
``|R1 join R2| = sum_i f_i * g_i``.  This module provides the exact,
full-histogram computations that the limited-storage sketches are
compared against, together with the skew statistics used throughout
the experimental study.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from ..engine.protocol import Sketch, as_histogram
from ..engine.registry import register_sketch

__all__ = [
    "FrequencyVector",
    "self_join_size",
    "join_size",
    "first_moment",
    "distinct_values",
]

_INT64_MAX = (1 << 63) - 1


def _as_value_array(values: Iterable[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"value stream must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"value stream must be integer-typed, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _dense_span(arr: np.ndarray) -> tuple[int, int] | None:
    """``(lo, span)`` when the value range is narrow enough to bincount.

    A span up to 4x the batch size (with a small floor) keeps the
    dense table within a constant factor of the batch itself; the hard
    cap bounds the allocation for tiny batches over a wide range.
    Computed with Python ints so a range straddling the int64 extremes
    cannot overflow — it simply fails the test and falls back.
    """
    lo, hi = int(arr.min()), int(arr.max())
    span = hi - lo + 1
    if span <= max(4 * arr.size, 1024) and span <= (1 << 22):
        return lo, span
    return None


def _dense_or_sorted_histogram(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique values, counts)`` of an int64 stream.

    Dense value ranges take a single O(n) ``bincount`` over the offset
    values instead of the O(n log n) sort inside ``np.unique`` — for
    large ingest batches over bounded key domains this is the
    difference between wire-bound and sort-bound throughput.
    """
    dense = _dense_span(arr)
    if dense is not None:
        lo, span = dense
        table = np.bincount(arr - lo, minlength=span)
        present = np.flatnonzero(table)
        return present + lo, table[present].astype(np.int64, copy=False)
    return np.unique(arr, return_counts=True)


def _aggregate_histogram(
    vals: np.ndarray, cnts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts per distinct value (vectorised int64 sums).

    The accumulators are int64 and wrap silently on overflow, so the
    caller must guarantee the grand total fits — e.g. via the
    ``size * max`` bound :meth:`FrequencyVector.update_from_frequencies`
    checks before taking this path.
    """
    dense = _dense_span(vals)
    if dense is not None:
        lo, span = dense
        totals = np.zeros(span, dtype=np.int64)
        np.add.at(totals, vals - lo, cnts)
        present = np.flatnonzero(totals)
        return present + lo, totals[present]
    uniq, inverse = np.unique(vals, return_inverse=True)
    totals = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(totals, inverse, cnts)
    return uniq, totals


@register_sketch
class FrequencyVector(Sketch):
    """An exact histogram of a multiset of integer attribute values.

    This is the "full histogram" the paper's introduction describes as
    the exact-but-expensive alternative to sketching: storage is
    proportional to the number of distinct values.  It supports
    insertions and deletions so it can be driven by the same operation
    streams as the sketches, and it is the ground truth in every test
    and experiment.
    """

    kind = "frequency"
    is_linear = True  # counts add; any update order gives the same state
    describe = (
        "exact frequency-vector ground truth (every moment, any join); "
        "mergeable, memory grows with distinct values"
    )

    __slots__ = ("_counts", "_n")

    def __init__(self, counts: Mapping[int, int] | None = None):
        self._counts: Counter = Counter()
        self._n = 0
        if counts:
            for value, count in counts.items():
                if count < 0:
                    raise ValueError(f"negative count {count} for value {value}")
                if count:
                    self._counts[int(value)] = int(count)
                    self._n += int(count)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_stream(cls, values: Iterable[int] | np.ndarray) -> "FrequencyVector":
        """Build the histogram of an insertion-only value stream."""
        arr = _as_value_array(values)
        fv = cls()
        if arr.size:
            uniq, counts = np.unique(arr, return_counts=True)
            fv._counts = Counter(
                {int(v): int(c) for v, c in zip(uniq.tolist(), counts.tolist())}
            )
            fv._n = int(arr.size)
        return fv

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Insert one occurrence of ``value``."""
        self._counts[int(value)] += 1
        self._n += 1

    def delete(self, value: int) -> None:
        """Delete one occurrence of ``value``.

        Raises
        ------
        KeyError
            If ``value`` has no remaining occurrences; the tracking
            problem is defined over multisets so deleting an absent
            member is a caller bug, never silently ignored.
        """
        v = int(value)
        current = self._counts.get(v, 0)
        if current <= 0:
            raise KeyError(f"cannot delete value {value}: not present")
        if current == 1:
            del self._counts[v]
        else:
            self._counts[v] = current - 1
        self._n -= 1

    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once (signed)."""
        v, c = int(value), int(count)
        if c == 0:
            return
        new = self._counts.get(v, 0) + c
        if new < 0:
            raise KeyError(
                f"cannot delete {-c} occurrences of value {value}: "
                f"only {self._counts.get(v, 0)} present"
            )
        if new == 0:
            del self._counts[v]
        else:
            self._counts[v] = new
        self._n += c

    def update_from_frequencies(
        self, values: Iterable[int] | np.ndarray, counts: Iterable[int] | np.ndarray
    ) -> None:
        """Fold a signed frequency histogram into the vector.

        Equivalent to pairwise :meth:`update` calls in the given order,
        except that a refused batch changes nothing: an entry that
        would drive a count negative raises ``KeyError`` exactly as
        :meth:`update` would at that point of the batch, before any
        entry is applied.

        Insert-only batches (no negative counts) are aggregated with
        one vectorised histogram before touching the dictionary, so a
        large batch over a modest domain costs one pass plus one
        dictionary update per *distinct* value — not one per entry.
        Batches containing deletions check running per-value totals
        entry by entry in batch order, the order the refusal contract
        is defined in; batches whose totals could overflow the int64
        accumulators also take that path, keeping the class exact
        (Python-int arithmetic) at any magnitude.
        """
        vals, cnts = as_histogram(values, counts)
        if vals.size == 0:
            return
        if int(cnts.min()) >= 0 and int(cnts.max()) <= _INT64_MAX // int(
            cnts.size
        ):
            # Aggregation cannot change the outcome of an all-insert
            # batch (counts only grow), so the order-sensitive error
            # contract is vacuous here and the vector path is exact.
            # The size*max bound proves the grand total — hence every
            # per-value total and the _n increment — fits int64, so
            # the int64 accumulators cannot wrap.
            uniq, totals = _aggregate_histogram(vals, cnts)
            for v, c in zip(uniq.tolist(), totals.tolist()):
                if c:
                    self._counts[v] += c
            self._n += int(cnts.sum())
            return
        totals: dict[int, int] = {}
        for v, c in zip(vals.tolist(), cnts.tolist()):
            have = totals.get(v, self._counts.get(v, 0))
            if have + c < 0:
                raise KeyError(
                    f"cannot delete {-c} occurrences of value {v}: "
                    f"only {have} present"
                )
            totals[v] = have + c
        for v, total in totals.items():
            if total:
                self._counts[v] = total
            else:
                self._counts.pop(v, None)
        self._n += sum(cnts.tolist())

    def update_from_stream(self, values: Iterable[int] | np.ndarray) -> None:
        """Insert every element of a stream via one vectorised histogram."""
        arr = _as_value_array(values)
        if arr.size == 0:
            return
        uniq, counts = _dense_or_sorted_histogram(arr)
        for v, c in zip(uniq.tolist(), counts.tolist()):
            self._counts[int(v)] += int(c)
        self._n += int(arr.size)

    # ------------------------------------------------------------------
    # Exact statistics
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """The multiset size n (first frequency moment)."""
        return self._n

    @property
    def distinct(self) -> int:
        """Number of distinct values currently present (F0)."""
        return len(self._counts)

    def frequency(self, value: int) -> int:
        """Current frequency of ``value`` (0 if absent)."""
        return self._counts.get(int(value), 0)

    def self_join_size(self) -> int:
        """Exact SJ(R) = sum of squared frequencies (F2)."""
        return sum(c * c for c in self._counts.values())

    def join_size(self, other: "FrequencyVector") -> int:
        """Exact |R1 join R2| = sum over the shared domain of f_i * g_i."""
        if not isinstance(other, FrequencyVector):
            raise TypeError(f"expected FrequencyVector, got {type(other).__name__}")
        # Iterate the smaller histogram for speed.
        small, large = self._counts, other._counts
        if len(small) > len(large):
            small, large = large, small
        return sum(c * large.get(v, 0) for v, c in small.items())

    def skew(self) -> float:
        """SJ(R) / n — the average frequency of a stream member.

        Equals 1.0 for all-distinct data and n for a single repeated
        value; a convenient scale-free skew measure.
        """
        if self._n == 0:
            return 0.0
        return self.self_join_size() / self._n

    def max_frequency(self) -> int:
        """Largest single-value frequency (F_infinity)."""
        return max(self._counts.values(), default=0)

    def estimate(self) -> float:
        """The Sketch-protocol query: the (exact) self-join size.

        The frequency vector is the zero-error member of the engine's
        sketch family, so its "estimate" is simply SJ(R).
        """
        return float(self.self_join_size())

    # ------------------------------------------------------------------
    # Sketch protocol: algebra, accounting, persistence
    # ------------------------------------------------------------------
    def merge(self, other: "FrequencyVector") -> "FrequencyVector":
        """Exact histogram of the union of the two underlying multisets."""
        if not isinstance(other, FrequencyVector):
            raise TypeError(f"expected FrequencyVector, got {type(other).__name__}")
        merged = self.copy()
        for v, c in other._counts.items():
            merged._counts[v] += c
        merged._n += other._n
        return merged

    @property
    def memory_words(self) -> int:
        """Storage in the paper's cost model: one word per distinct value.

        This is the quantity the limited-storage sketches beat: it
        grows with the domain, not with a chosen budget.
        """
        return len(self._counts)

    def to_dict(self) -> dict:
        """Serialise the histogram to plain Python types."""
        return {
            "kind": self.kind,
            "counts": [[int(v), int(c)] for v, c in sorted(self._counts.items())],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FrequencyVector":
        """Reconstruct a frequency vector from :meth:`to_dict` output."""
        if payload.get("kind") != cls.kind:
            raise ValueError(f"not a FrequencyVector payload: {payload.get('kind')!r}")
        return cls({int(v): int(c) for v, c in payload["counts"]})

    # ------------------------------------------------------------------
    # Views / conversions
    # ------------------------------------------------------------------
    def items(self):
        """Iterate ``(value, frequency)`` pairs."""
        return self._counts.items()

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, counts)`` as sorted parallel int64 arrays."""
        if not self._counts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        values = np.fromiter(self._counts.keys(), dtype=np.int64, count=len(self._counts))
        order = np.argsort(values)
        values = values[order]
        counts = np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))[
            order
        ]
        return values, counts

    def copy(self) -> "FrequencyVector":
        """An independent deep copy."""
        fv = FrequencyVector()
        fv._counts = Counter(self._counts)
        fv._n = self._n
        return fv

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyVector):
            return NotImplemented
        return self._counts == other._counts

    def __len__(self) -> int:
        return self._n

    def __contains__(self, value: int) -> bool:
        return int(value) in self._counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrequencyVector(n={self._n}, distinct={self.distinct})"


# ----------------------------------------------------------------------
# Array-level conveniences (fast paths used by the experiment harness)
# ----------------------------------------------------------------------
def self_join_size(values: Iterable[int] | np.ndarray) -> int:
    """Exact self-join size of a value stream (vectorised)."""
    arr = _as_value_array(values)
    if arr.size == 0:
        return 0
    _, counts = np.unique(arr, return_counts=True)
    return int(np.sum(counts.astype(np.int64) ** 2))


def join_size(
    left: Iterable[int] | np.ndarray, right: Iterable[int] | np.ndarray
) -> int:
    """Exact join size of two value streams (vectorised)."""
    a = _as_value_array(left)
    b = _as_value_array(right)
    if a.size == 0 or b.size == 0:
        return 0
    av, ac = np.unique(a, return_counts=True)
    bv, bc = np.unique(b, return_counts=True)
    ai = np.isin(av, bv)
    bi = np.isin(bv, av)
    return int(np.sum(ac[ai].astype(np.int64) * bc[bi].astype(np.int64)))


def first_moment(values: Iterable[int] | np.ndarray) -> int:
    """Stream length n (trivial, provided for symmetry)."""
    return int(_as_value_array(values).size)


def distinct_values(values: Iterable[int] | np.ndarray) -> int:
    """Number of distinct values in a stream (F0)."""
    arr = _as_value_array(values)
    if arr.size == 0:
        return 0
    return int(np.unique(arr).size)
