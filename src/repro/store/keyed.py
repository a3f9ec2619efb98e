"""The keyed sketch fleet: one windowed store per logical stream.

The single-stream :class:`~repro.store.windowed.WindowedSketchStore`
answers "the estimate over window W"; real serving traffic is *keyed* —
one logical sketch per tenant / topic / metric.  This module lifts the
windowed machinery to that fleet dimension: a
:class:`KeyedSketchStore` lazily materialises one windowed store per
key, all built from one shared :class:`~repro.store.spec.SketchSpec`
template and one shared :class:`~repro.store.buckets.BucketLayout`, so
every key agrees on bucket boundaries, every per-key sketch carries
the same seed (the precondition for cluster merge), and a per-key
answer is bit-identical to a dedicated single-stream store fed only
that key's events.

Keys are strings (tenant ids, metric names); cardinality is bounded by
``max_keys`` with a typed :class:`KeyCardinalityError` so a runaway
key space degrades into a clear refusal instead of unbounded memory.
Snapshot/restore works per key (a tenant can be checkpointed or
migrated alone) and for the whole fleet (``to_dict`` kind
``"keyed-store"``).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..engine.protocol import Sketch
from ..engine.registry import SketchPayloadError, UnknownSketchKindError
from .buckets import BucketLayout
from .spec import SketchSpec
from .windowed import WindowedSketchStore

__all__ = ["KeyedSketchStore", "KeyCardinalityError"]

#: Keys travel the binary wire with a u16 length prefix.
_MAX_KEY_BYTES = 65535


class KeyCardinalityError(ValueError):
    """Raised when ingesting a new key would exceed ``max_keys``.

    Subclasses ``ValueError`` so the service surface's handled-error
    table and the CLI's exit-2 contract pick it up unchanged.
    """


def validate_key(key: object) -> str:
    """Validate a fleet key: a non-empty, wire-encodable string."""
    if not isinstance(key, str) or not key:
        raise ValueError(
            f"key must be a non-empty string, got {key!r}"
        )
    if len(key.encode("utf-8")) > _MAX_KEY_BYTES:
        raise ValueError(
            f"key exceeds {_MAX_KEY_BYTES} UTF-8 bytes"
        )
    return key


class KeyedSketchStore:
    """A lazy ``key -> WindowedSketchStore`` fleet over one template.

    Parameters
    ----------
    spec:
        The shared :class:`~repro.store.spec.SketchSpec` every per-key
        bucket sketch is built from.  One seed for the whole fleet:
        sketches of the *same key* on different shards must merge.
    bucket_width, origin:
        The shared time-axis geometry (see
        :class:`~repro.store.buckets.BucketLayout`); a prebuilt layout
        may be passed as ``bucket_width``.
    retention_buckets, retention_policy:
        Applied independently inside every per-key store, exactly as
        in :class:`~repro.store.windowed.WindowedSketchStore`.
    max_keys:
        Upper bound on the number of distinct keys ever materialised;
        ``None`` means unbounded.  Exceeding it raises
        :class:`KeyCardinalityError` before any state changes.

    Examples
    --------
    >>> fleet = KeyedSketchStore(
    ...     SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1}),
    ...     bucket_width=10,
    ... )
    >>> fleet.ingest("tenant-a", [3, 14], [5, 9])
    >>> fleet.ingest("tenant-b", [3], [5])
    >>> fleet.key_count
    2
    >>> round(fleet.estimate("tenant-b", 0, 10), 1)
    1.0
    """

    def __init__(
        self,
        spec: SketchSpec,
        bucket_width: int,
        origin: int = 0,
        retention_buckets: int | None = None,
        retention_policy: str = "compact",
        max_keys: int | None = None,
    ):
        if not isinstance(spec, SketchSpec):
            raise TypeError(f"spec must be a SketchSpec, got {type(spec).__name__}")
        self.spec = spec
        self.layout = (
            bucket_width
            if isinstance(bucket_width, BucketLayout)
            else BucketLayout(bucket_width, origin)
        )
        if max_keys is not None and int(max_keys) < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys}")
        self.max_keys = None if max_keys is None else int(max_keys)
        self.retention_buckets = retention_buckets
        self.retention_policy = retention_policy
        # Fail fast on bad retention settings, non-mergeable kinds
        # under compact retention and a spec no sketch can be built
        # from: the first key may only arrive hours into serving, far
        # from the misconfiguration.
        self._build_store()
        self._stores: dict[str, WindowedSketchStore] = {}

    def _build_store(self) -> WindowedSketchStore:
        return WindowedSketchStore(
            self.spec,
            self.layout,
            retention_buckets=self.retention_buckets,
            retention_policy=self.retention_policy,
        )

    # ------------------------------------------------------------------
    # Key management
    # ------------------------------------------------------------------
    @property
    def bucket_width(self) -> int:
        """Width of one time bucket (shared by every key)."""
        return self.layout.bucket_width

    @property
    def origin(self) -> int:
        """Timestamp where bucket 0 begins (shared by every key)."""
        return self.layout.origin

    @property
    def keys(self) -> list[str]:
        """Every materialised key, sorted."""
        return sorted(self._stores)

    @property
    def key_count(self) -> int:
        """Number of materialised keys."""
        return len(self._stores)

    def store_for(self, key: str, create: bool = False) -> WindowedSketchStore | None:
        """The per-key windowed store, or None for an unseen key.

        With ``create=True`` an unseen key materialises a fresh empty
        store from the shared template — unless that would exceed
        ``max_keys``, which raises :class:`KeyCardinalityError` with
        nothing changed.
        """
        key = validate_key(key)
        store = self._stores.get(key)
        if store is not None or not create:
            return store
        if self.max_keys is not None and len(self._stores) >= self.max_keys:
            raise KeyCardinalityError(
                f"cannot materialise key {key!r}: the fleet already holds "
                f"max_keys={self.max_keys} keys"
            )
        store = self._build_store()
        self._stores[key] = store
        return store

    def drop(self, key: str) -> bool:
        """Forget a key and its whole history; True if it existed."""
        return self._stores.pop(validate_key(key), None) is not None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        key: str,
        timestamps: np.ndarray | Iterable[int],
        values: np.ndarray | Iterable[int],
        counts: np.ndarray | Iterable[int] | None = None,
    ) -> None:
        """Route one key's timestamped batch into its windowed store.

        Semantics are exactly
        :meth:`~repro.store.windowed.WindowedSketchStore.ingest` on the
        key's own store; other keys are untouched (cross-key isolation
        is structural — there is no shared mutable state between per-key
        stores beyond the immutable template).

        ``max_keys`` is checked first, and an unseen key is kept only
        if the batch is accepted (even empty) or one of its groups loaded.
        """
        fresh = validate_key(key) not in self._stores
        store = self.store_for(key, create=True)
        try:
            store.ingest(timestamps, values, counts=counts)
        except BaseException:
            if fresh and not store.span_count:
                del self._stores[key]
            raise

    # ------------------------------------------------------------------
    # Queries (an unseen key is an empty stream, not an error)
    # ------------------------------------------------------------------
    def window_bounds(
        self, key: str, t0: int, t1: int, align: str = "strict"
    ) -> tuple[int, int]:
        """The window a query for ``key`` would actually cover."""
        store = self.store_for(key)
        if store is None:
            return self.layout.align_spans(t0, t1, align, [])
        return store.window_bounds(t0, t1, align=align)

    def query(self, key: str, t0: int, t1: int, align: str = "strict") -> Sketch:
        """The sketch of ``key``'s events in ``[t0, t1)``.

        An unseen key answers with the template's empty sketch — the
        same answer a dedicated store that never saw an event would
        give, which keeps keyed cluster scatter–gather well defined
        (most shards have never seen most keys).
        """
        store = self.store_for(key)
        if store is None:
            self.layout.align_spans(t0, t1, align, [])  # validate the window
            return self.spec.build()
        return store.query(t0, t1, align=align)

    def estimate(self, key: str, t0: int, t1: int, align: str = "strict") -> float:
        """Estimate over the window for one key (merge-on-query)."""
        return float(self.query(key, t0, t1, align=align).estimate())

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def compact(self, before: int | None = None, key: str | None = None) -> int:
        """Fold old spans (one key, or every key); returns spans folded."""
        if key is not None:
            store = self.store_for(key)
            return 0 if store is None else store.compact(before=before)
        if before is not None:
            self.layout.boundary_bucket(before)  # validate once up front
        return sum(s.compact(before=before) for s in self._stores.values())

    def evict(self, before: int, key: str | None = None) -> int:
        """Drop old spans (one key, or every key); returns spans dropped."""
        if key is not None:
            store = self.store_for(key)
            return 0 if store is None else store.evict(before)
        self.layout.boundary_bucket(before)  # validate once up front
        return sum(s.evict(before) for s in self._stores.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[tuple[int, int]]:
        """Distinct timestamp span ranges across every key, sorted."""
        return sorted({span for s in self._stores.values() for span in s.spans})

    @property
    def span_count(self) -> int:
        """Total bucket spans across every key."""
        return sum(s.span_count for s in self._stores.values())

    @property
    def coverage(self) -> tuple[int, int] | None:
        """Timestamp hull across every key, or None if all empty."""
        ranges = [s.coverage for s in self._stores.values() if s.coverage]
        if not ranges:
            return None
        return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)

    @property
    def memory_words(self) -> int:
        """Words held across every key's spans.

        A span holding a sketch counts its words; a sparse row counts
        2 per (value, count) pair it holds (see
        :attr:`WindowedSketchStore.memory_words`).
        """
        return sum(s.memory_words for s in self._stores.values())

    def items_by_key(self) -> dict[str, int]:
        """Net logical item count (inserts minus deletes) per key.

        The load-skew signal: cluster ``stats()`` aggregates this per
        shard so hot keys are observable before they hurt.
        """
        return {key: _store_items(store) for key, store in self._stores.items()}

    def __len__(self) -> int:
        return len(self._stores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KeyedSketchStore(kind={self.spec.kind!r}, "
            f"width={self.bucket_width}, keys={self.key_count}, "
            f"spans={self.span_count})"
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, key: str) -> dict:
        """One key's full windowed-store payload (empty store if unseen)."""
        store = self.store_for(key)
        return (store if store is not None else self._build_store()).to_dict()

    def restore(self, key: str, payload: Mapping) -> None:
        """Replace one key's history with a snapshot payload.

        The payload must be a windowed-store snapshot matching the
        fleet's template (same spec, width, origin); restoring a new
        key counts against ``max_keys``.
        """
        key = validate_key(key)
        store = WindowedSketchStore.from_dict(payload)
        if (
            store.spec != self.spec
            or store.bucket_width != self.bucket_width
            or store.origin != self.origin
        ):
            raise ValueError(
                "snapshot does not match the fleet template: it was taken "
                f"from a {store.spec.kind!r} store with width "
                f"{store.bucket_width}, origin {store.origin}"
            )
        if (
            key not in self._stores
            and self.max_keys is not None
            and len(self._stores) >= self.max_keys
        ):
            raise KeyCardinalityError(
                f"cannot restore key {key!r}: the fleet already holds "
                f"max_keys={self.max_keys} keys"
            )
        self._stores[key] = store

    def to_dict(self) -> dict:
        """Serialise the whole fleet (template + every per-key store)."""
        return {
            "kind": "keyed-store",
            "spec": self.spec.to_dict(),
            "bucket_width": self.bucket_width,
            "origin": self.origin,
            "retention_buckets": self.retention_buckets,
            "retention_policy": self.retention_policy,
            "max_keys": self.max_keys,
            "stores": {
                key: self._stores[key].to_dict() for key in self.keys
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "KeyedSketchStore":
        """Reconstruct a fleet from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping):
            raise SketchPayloadError(
                f"store payload must be a mapping, got {type(payload).__name__}"
            )
        if payload.get("kind") != "keyed-store":
            raise SketchPayloadError(
                f"not a keyed-store payload: kind={payload.get('kind')!r}"
            )
        try:
            fleet = cls(
                SketchSpec.from_dict(payload["spec"]),
                bucket_width=int(payload["bucket_width"]),
                origin=int(payload.get("origin", 0)),
                retention_buckets=payload.get("retention_buckets"),
                retention_policy=payload.get("retention_policy", "compact"),
                max_keys=payload.get("max_keys"),
            )
            stores = payload.get("stores", {})
            if not isinstance(stores, Mapping):
                raise SketchPayloadError(
                    "corrupt keyed-store payload: 'stores' must be a mapping"
                )
            for key in sorted(stores):
                fleet.restore(validate_key(key), stores[key])
        except (SketchPayloadError, UnknownSketchKindError, KeyCardinalityError):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SketchPayloadError(
                f"corrupt keyed-store payload: {exc}"
            ) from exc
        return fleet


def _store_items(store: WindowedSketchStore) -> int:
    """Net logical items of one windowed store, summed across spans.

    Every built-in kind tracks its multiset size (``n``; the exact
    frequency vector calls it ``total``); a kind without either counts
    as zero rather than failing stats.
    """
    total = 0
    for span in store._spans:
        n = getattr(span.row, "n", None)
        if n is None:
            n = getattr(span.row, "total", 0)
        total += int(n)
    return total
