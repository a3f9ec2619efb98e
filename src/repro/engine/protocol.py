"""The common :class:`Sketch` contract every tracker implements.

Each of the paper's synopses — tug-of-war, sample-count (and its
fast-query and frequency-moment variants), naive-sampling, and the
exact :class:`~repro.core.frequency.FrequencyVector` ground truth —
supports the same core operations: process ``insert(v)`` / ``delete(v)``
updates, answer an ``estimate()`` query, and report its storage cost in
the paper's memory-word model.  This module captures that contract as
an abstract base class so that the ingestion pipeline
(:mod:`repro.engine.ingest`), the serialization registry
(:mod:`repro.engine.registry`), and the sharded build path
(:mod:`repro.engine.sharded`) can treat every sketch uniformly.

Beyond the abstract core, the base class supplies portable default
implementations of the bulk-update surface (``update``,
``update_from_frequencies``, ``update_from_stream``) in terms of the
per-element operations; concrete sketches override them with
vectorised fast paths where their structure allows (the tug-of-war
sketch folds a whole histogram in with chunked matrix products;
sample-count walks a stream in vectorised segments between reservoir
events; naive-sampling advances its reservoir by skip arithmetic).

Three class-level attributes describe a sketch's algebra:

``kind``
    The registry key under which the sketch serialises (``None`` for
    unregistered sketches).
``is_linear``
    True when the sketch state is a linear function of the frequency
    vector, i.e. any insert/delete sequence may be coalesced into a
    signed histogram and applied in any order with bit-identical
    results.  The ingestion pipeline keys its batching strategy off
    this flag.
``is_fixed_size``
    True when ``memory_words`` is set by the constructor's parameters
    alone, whatever the data.  A windowed store holds a small bucket of
    a linear sketch of fixed size as its exact histogram instead (see
    :mod:`repro.store.windowed`).
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Sketch", "MergeUnsupportedError", "as_histogram", "expand_histogram"]


def as_histogram(
    values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``(values, counts)`` histogram pair into int64 arrays.

    The shared precondition of every ``update_from_frequencies``
    implementation: both inputs convert to equal-length 1-D int64
    arrays.  Raises ``ValueError`` otherwise.
    """
    vals = np.asarray(values, dtype=np.int64)
    cnts = np.asarray(counts, dtype=np.int64)
    if vals.shape != cnts.shape or vals.ndim != 1:
        raise ValueError(
            f"values {vals.shape} and counts {cnts.shape} must be equal-length 1-D"
        )
    return vals, cnts


#: Histogram entries with counts at most this are expanded into stream
#: chunks by :func:`expand_histogram`; larger counts come out as runs.
EXPAND_MAX = 1 << 16

#: Target number of elements per expanded chunk.
EXPAND_CHUNK = 1 << 17


def expand_histogram(
    vals: np.ndarray, cnts: np.ndarray, expand_max: int = EXPAND_MAX
) -> Iterator[np.ndarray | tuple[int, int]]:
    """Yield a histogram's insertions in stream order, as chunks and runs.

    The stream order of a histogram puts each value's occurrences
    consecutively, values in the given order.  Consecutive entries
    with counts up to ``expand_max`` are materialised with
    ``np.repeat`` into int64 arrays of about :data:`EXPAND_CHUNK`
    elements; an entry with a larger count is yielded as a
    ``(value, count)`` tuple so a position-sampling sketch can fold it
    in arithmetically instead of expanding it.  Entries with counts
    <= 0 are skipped.
    """
    pend_vals: list[int] = []
    pend_cnts: list[int] = []
    pending = 0
    for v, c in zip(vals.tolist(), cnts.tolist()):
        if c <= 0:
            continue
        if c <= expand_max:
            pend_vals.append(v)
            pend_cnts.append(c)
            pending += c
            if pending < EXPAND_CHUNK:
                continue
        if pend_vals:
            yield np.repeat(np.asarray(pend_vals, dtype=np.int64), pend_cnts)
            pend_vals, pend_cnts, pending = [], [], 0
        if c > expand_max:
            yield v, c
    if pend_vals:
        yield np.repeat(np.asarray(pend_vals, dtype=np.int64), pend_cnts)


class MergeUnsupportedError(TypeError):
    """Raised when a sketch family does not support merging.

    Mergeability requires the sketch state of a union stream to be
    computable from the states of its parts; position-based samplers
    (sample-count, naive-sampling) do not have that property, while
    linear sketches (tug-of-war, frequency vectors) do.
    """


class Sketch(abc.ABC):
    """Abstract base class for all self-join / frequency trackers.

    Subclasses must implement the per-element update operations, the
    query, the memory accounting, and the serialization pair
    ``to_dict`` / ``from_dict``.  The bulk-update defaults below reduce
    to per-element calls and are overridden with vectorised
    implementations wherever the concrete sketch permits.
    """

    #: Registry key for serialization; set by concrete sketches.
    kind: str | None = None

    #: Whether the sketch is a linear function of the frequency vector.
    is_linear: bool = False

    #: Whether ``memory_words`` is set by the parameters, not the data.
    is_fixed_size: bool = False

    #: Optional one-line human description surfaced by the registry
    #: (``repro sketch kinds``); concrete sketches override it.
    describe: str = ""

    __slots__ = ()

    # -- abstract core -----------------------------------------------------
    @abc.abstractmethod
    def insert(self, value: int) -> None:
        """Process insert(v): add one occurrence of ``value``."""

    @abc.abstractmethod
    def delete(self, value: int) -> None:
        """Process delete(v): remove one occurrence of ``value``."""

    @abc.abstractmethod
    def estimate(self) -> float:
        """Answer the query operation (the tracked quantity's estimate)."""

    @property
    @abc.abstractmethod
    def memory_words(self) -> int:
        """Storage cost in the paper's memory-word model."""

    @abc.abstractmethod
    def to_dict(self) -> dict:
        """Serialise the full sketch state to JSON-compatible types.

        The payload must carry the sketch's ``kind`` so
        :func:`repro.engine.registry.load_sketch` can dispatch.
        """

    @classmethod
    @abc.abstractmethod
    def from_dict(cls, payload: dict) -> "Sketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""

    # -- bulk updates (portable defaults; override for speed) --------------
    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once.

        Negative counts are batched deletions.  The default reduces to
        ``|count|`` per-element calls; linear sketches override this
        with an O(words) implementation.
        """
        c = int(count)
        for _ in range(c):
            self.insert(value)
        for _ in range(-c):
            self.delete(value)

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a (possibly signed) frequency histogram into the sketch.

        The default applies :meth:`update` pairwise in the given order;
        vectorised sketches override it.
        """
        vals, cnts = as_histogram(values, counts)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            self.update(v, c)

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Insert every element of a stream, in order.

        The default is a per-element loop, which is correct for every
        sketch (including order-sensitive samplers); concrete sketches
        override it with their vectorised bulk-ingestion path.
        """
        for v in np.asarray(values, dtype=np.int64).tolist():
            self.insert(v)

    # -- algebra ------------------------------------------------------------
    def merge(self, other: "Sketch") -> "Sketch":
        """Return the sketch of the union of the two underlying streams.

        Only mergeable families override this; the default raises
        :class:`MergeUnsupportedError` with a clear message.
        """
        raise MergeUnsupportedError(
            f"{type(self).__name__} does not support merging: its state is "
            "not a function of the union multiset (position-based sampling)"
        )
