"""Windowed signature catalogs: join estimates over time windows.

A plain :class:`~repro.relational.catalog.SignatureCatalog` answers
"how big is ``F join G`` *right now*"; a statistics-maintenance loop in
a real optimizer also needs "how big was it over the last hour" and
"how big is it restricted to this day's arrivals".  The windowed
catalog supplies that: every relation is backed by a
:class:`~repro.store.windowed.WindowedSketchStore` of tug-of-war
sketches built from one shared seed, so the window-merged sketches of
any two relations are sign-compatible and their inner product is the
Section 4.3 join-size estimate — restricted to the requested window.

The windowed guarantee inherits the store's: the merged sketch of a
window is bit-identical to a sketch maintained over just that window's
tuples, so windowed estimates are exactly the estimates a per-window
catalog would have produced, at a fraction of the state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.bounds import ktw_join_error_bound
from ..core.tugofwar import TugOfWarSketch
from ..store.spec import SketchSpec
from ..store.windowed import WindowedSketchStore
from .catalog import UnknownRelationError

__all__ = ["WindowedSignatureCatalog"]


class WindowedSignatureCatalog:
    """One windowed tug-of-war store per relation; windowed join estimates.

    Parameters
    ----------
    k:
        Signature words per bucket, split as ``s1 = k // s2`` grouped
        estimators (the catalog medians over ``s2`` groups, the
        (s1, s2)-grid generalisation of the paper's k-TW mean).  When
        ``k`` is not a multiple of ``s2`` the remainder words are not
        allocated; the :attr:`k` property always reports the actual
        allocation ``s1 * s2``.
    bucket_width:
        Time-bucket width shared by every relation's store, so windows
        line up across relations.
    s2:
        Number of median groups (1 reproduces the literal k-TW mean).
    seed:
        Seed of the sign families; shared across relations and buckets
        (required for cross-relation inner products and bucket merges).
    origin:
        Timestamp where bucket 0 begins.
    retention_buckets, retention_policy:
        Per-relation retention, forwarded to each store.
    """

    def __init__(
        self,
        k: int,
        bucket_width: int,
        s2: int = 5,
        seed: int | None = None,
        origin: int = 0,
        retention_buckets: int | None = None,
        retention_policy: str = "compact",
    ):
        if k < s2 or s2 < 1:
            raise ValueError(f"need k >= s2 >= 1, got k={k}, s2={s2}")
        self._spec = SketchSpec(
            "tugofwar", {"s1": int(k) // int(s2), "s2": int(s2), "seed": seed}
        )
        self.bucket_width = int(bucket_width)
        self.origin = int(origin)
        self.retention_buckets = retention_buckets
        self.retention_policy = retention_policy
        # Fail fast on a bad width or retention setting: the first
        # relation may be registered long after construction.
        self._build_store()
        self._stores: dict[str, WindowedSketchStore] = {}

    def _build_store(self) -> WindowedSketchStore:
        return WindowedSketchStore(
            self._spec,
            bucket_width=self.bucket_width,
            origin=self.origin,
            retention_buckets=self.retention_buckets,
            retention_policy=self.retention_policy,
        )

    # -- registration ------------------------------------------------------
    def register(self, name: str) -> WindowedSketchStore:
        """Start tracking a relation (its store begins empty)."""
        if name in self._stores:
            raise KeyError(f"relation {name!r} already registered")
        store = self._stores[name] = self._build_store()
        return store

    def drop(self, name: str) -> None:
        """Stop tracking a relation and free its buckets."""
        if name not in self._stores:
            raise UnknownRelationError(name, self._stores)
        del self._stores[name]

    # -- incremental maintenance -------------------------------------------
    def ingest(
        self,
        name: str,
        timestamps: np.ndarray | Iterable[int],
        values: np.ndarray | Iterable[int],
        counts: np.ndarray | Iterable[int] | None = None,
    ) -> None:
        """Route a timestamped tuple batch to one relation's buckets."""
        self._store(name).ingest(timestamps, values, counts=counts)

    # -- windowed estimation -----------------------------------------------
    def window_bounds(
        self,
        t0: int,
        t1: int,
        names: Iterable[str] | None = None,
        align: str = "strict",
    ) -> tuple[int, int]:
        """The common window a query over ``names`` actually covers.

        With ``align="outer"`` each relation's store may need to expand
        the window over its own (possibly compacted) spans; estimates
        must compare sketches of *one* shared window, so the expansion
        is iterated across all the named relations to a fixpoint.  With
        ``align="strict"`` this simply validates the window against
        every store.
        """
        targets = self.relations if names is None else list(names)
        lo, hi = int(t0), int(t1)
        changed = True
        while changed:
            changed = False
            for name in targets:
                nlo, nhi = self._store(name).window_bounds(lo, hi, align)
                if (nlo, nhi) != (lo, hi):
                    lo, hi = nlo, nhi
                    changed = True
        return lo, hi

    def join_estimate(
        self, left: str, right: str, t0: int, t1: int, align: str = "strict"
    ) -> float:
        """Estimated ``|left join right|`` over tuples in ``[t0, t1)``.

        Both relations are queried over the *same* effective window —
        under ``align="outer"`` that is the common expansion reported
        by :meth:`window_bounds`, never two different per-relation
        windows.
        """
        lo, hi = self.window_bounds(t0, t1, names=(left, right), align=align)
        lhs = self._window_sketch(left, lo, hi, "outer")
        rhs = self._window_sketch(right, lo, hi, "outer")
        return lhs.inner_product(rhs)

    def self_join_estimate(
        self, name: str, t0: int, t1: int, align: str = "strict"
    ) -> float:
        """Estimated SJ of one relation over ``[t0, t1)``."""
        return self._window_sketch(name, t0, t1, align).estimate()

    def join_error_bound(
        self, left: str, right: str, t0: int, t1: int, align: str = "strict"
    ) -> float:
        """Lemma 4.4 standard error over the window, from estimated SJs.

        ``sqrt(2 SJ(F) SJ(G) / k)`` with the windowed sketches' own
        self-join estimates plugged in — computable online, per window,
        over the same common window :meth:`join_estimate` uses.
        """
        lo, hi = self.window_bounds(t0, t1, names=(left, right), align=align)
        sj_l = max(0.0, self.self_join_estimate(left, lo, hi, "outer"))
        sj_r = max(0.0, self.self_join_estimate(right, lo, hi, "outer"))
        return ktw_join_error_bound(sj_l, sj_r, self.k)

    def _window_sketch(
        self, name: str, t0: int, t1: int, align: str
    ) -> TugOfWarSketch:
        return self._store(name).query(t0, t1, align=align)

    # -- introspection -----------------------------------------------------
    @property
    def k(self) -> int:
        """Signature words actually allocated per bucket (s1 * s2).

        May be below the constructor's ``k`` when it was not a
        multiple of ``s2`` (the remainder words are dropped).
        """
        return int(self._spec.params["s1"]) * int(self._spec.params["s2"])

    @property
    def relations(self) -> list[str]:
        """Registered relation names (sorted)."""
        return sorted(self._stores)

    @property
    def memory_words(self) -> int:
        """Words held across every relation's buckets.

        A bucket counts its sketch's :attr:`k` words once it holds the
        sketch, and 2 per distinct value while it holds the exact
        histogram (fewer than ``k / 2`` values, and fewer than
        ``5120 / k``: 8 at ``k = 640``).
        """
        return sum(store.memory_words for store in self._stores.values())

    def store(self, name: str) -> WindowedSketchStore:
        """Direct access to one relation's store (compaction, snapshots)."""
        return self._store(name)

    def _store(self, name: str) -> WindowedSketchStore:
        store = self._stores.get(name)
        if store is None:
            raise UnknownRelationError(name, self._stores)
        return store

    def __contains__(self, name: str) -> bool:
        return name in self._stores

    def __len__(self) -> int:
        return len(self._stores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedSignatureCatalog(k={self.k}, width={self.bucket_width}, "
            f"relations={len(self)})"
        )
