"""The keyed estimation service: a :class:`SketchService` that needs a fleet.

:class:`~repro.service.service.SketchService` serves a
:class:`~repro.store.keyed.KeyedSketchStore` as readily as one
windowed store: every op names a key, and cache entries and dirty
intervals carry that key as their tag.  :class:`KeyedSketchService`
adds only a constructor that refuses anything but a fleet.
"""

from __future__ import annotations

from ..store.keyed import KeyedSketchStore
from .service import SketchService

__all__ = ["KeyedSketchService"]


class KeyedSketchService(SketchService):
    """A :class:`~repro.service.service.SketchService` over a fleet only.

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
        super().__init__(store, cache_entries)
