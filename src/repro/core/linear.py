"""The shared core of the fixed-size linear sketches.

The tug-of-war sketch (Section 2.2), the F_k sketch and the F_0 sketch
each keep integer counters that are a linear map of the frequency
vector, drawn through one seeded hash family: insert(v) adds v's
contribution to every counter, and delete(v) subtracts exactly that.
Everything that follows from linearity alone lives here, once:

* the signed-size bookkeeping of ``insert``, ``delete`` and ``update``;
* the refusals of a batch, in one order, before any counter changes
  (:func:`checked_histogram`, which the windowed store's sparse rows
  share);
* the chunked histogram fold of ``update_from_frequencies``;
* ``merge`` as counter addition, its compatibility check, ``copy`` and
  the read-only counter view.

A kind supplies its constructor and hash family, the attributes that
fix its counter layout (:attr:`LinearSketch._shape`), how one chunk of
a histogram and one signed value reach its counters (``_scatter`` and
``_update_one``), its estimators and its payload.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from ..engine.protocol import Sketch, as_histogram
from ..kernels.dispatch import _as_domain_values

__all__ = ["LinearSketch", "checked_histogram"]


def checked_histogram(
    n: int,
    values: np.ndarray | Iterable[int],
    counts: np.ndarray | Iterable[int],
    chunk: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """A signed histogram that a multiset of size ``n`` may take.

    Returns ``(values, counts, total)``: int64 arrays and their net
    count.  Refuses with ``ValueError``, in this order, a pair that is
    not two equal-length 1-D arrays, a batch that would make the
    multiset size negative, and — when the batch is wider than one
    ``chunk``, the values a single kernel call checks for itself — a
    value outside the hash field.  Called before the first counter
    changes, so a refused batch leaves the state as it was.
    """
    vals, cnts = as_histogram(values, counts)
    total = int(cnts.sum())
    if n + total < 0:
        raise ValueError("batch would make the multiset size negative")
    if vals.size > chunk:
        _as_domain_values(vals)
    return vals, cnts, total


class LinearSketch(Sketch):
    """A sketch whose int64 counters are a linear map of the frequencies.

    A subclass's constructor sets the attributes named in
    :attr:`_shape`, ``_family`` (the seeded hash family, read-only and
    shared by every copy), ``_c`` (the counters) and ``_n = 0``; it
    implements :meth:`_scatter` and :meth:`_update_one`.  Two sketches
    merge when they are of one class, with equal shapes and equal
    families (built from the same seed).
    """

    is_linear = True  # the counters are a linear map of the frequencies
    is_fixed_size = True  # the shape alone sets the counters, whatever the data

    #: The attributes that fix the counter layout, in the order a
    #: refused merge names them; ``s1`` and ``s2`` come last.
    _shape: tuple[str, ...] = ("s1", "s2")

    #: Values per kernel call of a batch update: bounds the (s, chunk)
    #: matrix a kernel materialises, so the working set stays
    #: cache-resident (a 4096-wide chunk at s=1280 is a 40 MB uint64
    #: matrix, measurably slower on memory-bandwidth-bound hosts).
    _chunk = 1024

    __slots__ = ("s1", "s2", "_family", "_c", "_n")

    @abc.abstractmethod
    def _scatter(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Add one chunk of a checked histogram into the counters."""

    @abc.abstractmethod
    def _update_one(self, value: int, count: int) -> None:
        """Add ``count`` occurrences of ``value`` into the counters."""

    # ------------------------------------------------------------------
    # Updates (O(words) per operation)
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Process insert(v): add v's contribution to every counter."""
        self._update_one(value, 1)
        self._n += 1

    def delete(self, value: int) -> None:
        """Process delete(v): subtract exactly what insert(v) added.

        The state after ``insert(v); delete(v)`` is the state before,
        so no accuracy is lost under deletions (unlike sample-count,
        which drops sample points).  Only the multiset size is guarded
        here; keeping every value's net count >= 0 is the caller's
        contract.
        """
        if self._n <= 0:
            raise ValueError("cannot delete from an empty multiset")
        self._update_one(value, -1)
        self._n -= 1

    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once.

        ``count`` may be negative (a batch of deletions); equivalent to
        ``|count|`` insert or delete calls at the cost of one.
        """
        c = int(count)
        if c == 0:
            return
        if self._n + c < 0:
            raise ValueError(
                f"deleting {-c} occurrences would make the multiset size negative"
            )
        self._update_one(value, c)
        self._n += c

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a whole (possibly signed) frequency histogram in.

        The vectorised bulk path: one :meth:`_scatter` per chunk of
        :attr:`_chunk` values, after :func:`checked_histogram` has
        refused whatever it would refuse.  Integer addition commutes,
        so the result is bit-identical to the equivalent sequence of
        :meth:`update` calls on every kernel backend.
        """
        vals, cnts, total = checked_histogram(self._n, values, counts, self._chunk)
        chunk = self._chunk
        for start in range(0, vals.size, chunk):
            self._scatter(vals[start : start + chunk], cnts[start : start + chunk])
        self._n += total

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Fold an insertion-only stream in via its histogram."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            return
        uniq, counts = np.unique(arr, return_counts=True)
        self.update_from_frequencies(uniq, counts)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merge(self, other: "LinearSketch") -> "LinearSketch":
        """Return the sketch of the union of the two underlying multisets.

        Requires the same class, shape and hash family; the counters
        then simply add, so the merge is bit-identical to the
        monolithic build.
        """
        self._check_compatible(other)
        return self._with(self._c + other._c, self._n + other._n)

    def _check_compatible(self, other: "LinearSketch") -> None:
        if not isinstance(other, type(self)):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )
        for name in self._shape:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(
                    f"shape mismatch: {self._shape_text()} vs {other._shape_text()}"
                )
        if self._family != other._family:
            raise ValueError(
                "sketches use different hash families; build both with the same seed"
            )

    def _shape_text(self) -> str:
        """The shape as a refused merge names it, e.g. ``k=3,(64,5)``."""
        extra = "".join(f"{name}={getattr(self, name)}," for name in self._shape[:-2])
        return f"{extra}({self.s1},{self.s2})"

    def _with(self, counters: np.ndarray, n: int) -> "LinearSketch":
        """A sketch of this class, shape and family holding ``counters``."""
        dup = object.__new__(type(self))
        for name in self._shape:
            setattr(dup, name, getattr(self, name))
        dup._family = self._family  # immutable after construction
        dup._c = counters
        dup._n = n
        return dup

    def copy(self) -> "LinearSketch":
        """Independent deep copy sharing the same (immutable) hash family."""
        return self._with(self._c.copy(), self._n)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current multiset size (inserts minus deletes)."""
        return self._n

    @property
    def memory_words(self) -> int:
        """Storage in the paper's memory-word model: one word per counter."""
        return self._c.size

    @property
    def counters(self) -> np.ndarray:
        """Read-only view of the raw counters."""
        view = self._c.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = ", ".join(f"{name}={getattr(self, name)}" for name in self._shape)
        return (
            f"{type(self).__name__}({shape}, n={self._n}, "
            f"words={self.memory_words})"
        )
