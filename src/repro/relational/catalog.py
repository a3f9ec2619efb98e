"""Signature catalogs: per-relation synopses answering pairwise joins.

The scheme of Section 4: "maintain a small signature of each relation
independently, such that join sizes can be quickly and accurately
estimated between any pair of relations using only these signatures" —
no per-pair state, so adding a relation costs one signature, not a row
of a quadratic matrix.

:class:`SignatureCatalog` uses k-TW signatures (Section 4.3);
:class:`SampleCatalog` uses Bernoulli sample signatures (Section 4.1).
Both expose the same interface so the optimizer demo and the join
benchmarks can swap them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.bounds import ktw_join_error_bound
from ..core.join import SampleJoinSignature
from ..core.tugofwar import TugOfWarSketch
from ..store.spec import SketchSpec

__all__ = ["SignatureCatalog", "SampleCatalog", "UnknownRelationError"]


class UnknownRelationError(LookupError):
    """An estimate was requested for a relation the catalog never saw.

    Deliberately *not* a ``KeyError``: the raw mapping miss this used
    to surface as looks like an internal bug, whereas an unregistered
    relation is a caller-level condition with an obvious fix — so the
    message names the relation, lists what *is* registered, and says
    how to register.
    """

    def __init__(self, name: str, registered: Iterable[str]):
        self.name = name
        self.registered = sorted(registered)
        known = ", ".join(self.registered) or "<none>"
        super().__init__(
            f"relation {name!r} is not registered in this catalog "
            f"(registered relations: {known}); call register({name!r}) "
            "before routing updates or estimates to it"
        )


class SignatureCatalog:
    """Tracks one k-TW join signature per registered relation.

    A k-TW signature is a :class:`~repro.core.tugofwar.TugOfWarSketch`
    with ``s1 = k`` and ``s2 = 1``, built from one spec, so every pair
    of relations shares sign functions and can be estimated.

    Parameters
    ----------
    k:
        Signature size (memory words per relation).
    seed:
        Seed for the shared sign functions; ``None`` draws one, once.
    """

    def __init__(self, k: int, seed: int | None = None):
        if k < 1:
            raise ValueError(f"signature size k must be >= 1, got {k}")
        self._spec = SketchSpec("tugofwar", {"s1": int(k), "s2": 1, "seed": seed})
        # Fail fast on a bad seed, not at the first register.
        self._spec.build()
        self._signatures: dict[str, TugOfWarSketch] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str, values: Iterable[int] | np.ndarray | None = None):
        """Start tracking a relation; optionally bulk-load its values."""
        if name in self._signatures:
            raise KeyError(f"relation {name!r} already registered")
        sig = self._spec.build()
        if values is not None:
            sig.update_from_stream(np.asarray(values, dtype=np.int64))
        self._signatures[name] = sig
        return sig

    def drop(self, name: str) -> None:
        """Stop tracking a relation."""
        if name not in self._signatures:
            raise UnknownRelationError(name, self._signatures)
        del self._signatures[name]

    # -- incremental maintenance --------------------------------------------
    def insert(self, name: str, value: int) -> None:
        """Route insert(v) on a relation to its signature."""
        self._sig(name).insert(value)

    def delete(self, name: str, value: int) -> None:
        """Route delete(v) on a relation to its signature."""
        self._sig(name).delete(value)

    def insert_many(self, name: str, values: Iterable[int] | np.ndarray) -> None:
        """Bulk-insert a batch of tuples through the vectorised path.

        Equivalent to per-tuple :meth:`insert` calls but the signature
        folds the whole batch in with one kernel scatter.
        """
        self._sig(name).update_from_stream(np.asarray(values, dtype=np.int64))

    def update_from_frequencies(
        self,
        name: str,
        values: Iterable[int] | np.ndarray,
        counts: Iterable[int] | np.ndarray,
    ) -> None:
        """Apply a signed histogram of tuple changes to one relation.

        A batch that would leave the relation with fewer than zero
        tuples is refused and the relation is left unchanged.
        """
        self._sig(name).update_from_frequencies(values, counts)

    # -- estimation ----------------------------------------------------------
    def join_estimate(self, left: str, right: str) -> float:
        """k-TW estimate of |left join right| from signatures alone."""
        return self._sig(left).inner_product_mean(self._sig(right))

    def self_join_estimate(self, name: str) -> float:
        """k-TW estimate of SJ(name)."""
        return self._sig(name).estimate_mean()

    def join_error_bound(self, left: str, right: str) -> float:
        """Lemma 4.4 standard error using the *estimated* self-joins.

        sqrt(2 SJ(F) SJ(G) / k) with the signature's own SJ estimates
        plugged in — the bound a real optimizer could compute online.
        """
        sj_l = max(0.0, self.self_join_estimate(left))
        sj_r = max(0.0, self.self_join_estimate(right))
        return ktw_join_error_bound(sj_l, sj_r, self.k)

    # -- introspection ---------------------------------------------------------
    @property
    def relations(self) -> list[str]:
        """Registered relation names (sorted)."""
        return sorted(self._signatures)

    @property
    def k(self) -> int:
        """Words per relation signature."""
        return int(self._spec.params["s1"])

    @property
    def memory_words(self) -> int:
        """Total catalog storage: k words per registered relation."""
        return self.k * len(self._signatures)

    def _sig(self, name: str) -> TugOfWarSketch:
        sig = self._signatures.get(name)
        if sig is None:
            raise UnknownRelationError(name, self._signatures)
        return sig

    def __contains__(self, name: str) -> bool:
        return name in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SignatureCatalog(k={self.k}, relations={len(self)})"


class SampleCatalog:
    """Tracks one Bernoulli sample signature per relation (Section 4.1)."""

    def __init__(self, p: float, seed: int | None = None):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"sampling probability must be in (0, 1], got {p}")
        self.p = float(p)
        self._seed_seq = np.random.SeedSequence(seed)
        self._signatures: dict[str, SampleJoinSignature] = {}

    def register(self, name: str, values: Iterable[int] | np.ndarray | None = None):
        """Start tracking a relation; optionally bulk-load its values."""
        if name in self._signatures:
            raise KeyError(f"relation {name!r} already registered")
        child_seed = self._seed_seq.spawn(1)[0]
        sig = SampleJoinSignature(self.p, seed=int(child_seed.generate_state(1)[0]))
        if values is not None:
            sig.update_from_stream(np.asarray(values, dtype=np.int64))
        self._signatures[name] = sig
        return sig

    def drop(self, name: str) -> None:
        """Stop tracking a relation."""
        if name not in self._signatures:
            raise UnknownRelationError(name, self._signatures)
        del self._signatures[name]

    def insert(self, name: str, value: int) -> None:
        """Route insert(v) on a relation to its signature."""
        self._sig(name).insert(value)

    def delete(self, name: str, value: int) -> None:
        """Route delete(v) on a relation to its signature."""
        self._sig(name).delete(value)

    def insert_many(self, name: str, values: Iterable[int] | np.ndarray) -> None:
        """Bulk-insert a batch of tuples via one vectorised Bernoulli draw."""
        self._sig(name).update_from_stream(np.asarray(values, dtype=np.int64))

    def join_estimate(self, left: str, right: str) -> float:
        """t_cross estimate of |left join right|."""
        return self._sig(left).join_estimate(self._sig(right))

    def self_join_estimate(self, name: str) -> float:
        """Scaled sample self-join estimate of SJ(name)."""
        return self._sig(name).self_join_estimate()

    @property
    def relations(self) -> list[str]:
        """Registered relation names (sorted)."""
        return sorted(self._signatures)

    @property
    def memory_words(self) -> int:
        """Total stored sample values across relations."""
        return sum(sig.memory_words for sig in self._signatures.values())

    def _sig(self, name: str) -> SampleJoinSignature:
        sig = self._signatures.get(name)
        if sig is None:
            raise UnknownRelationError(name, self._signatures)
        return sig

    def __contains__(self, name: str) -> bool:
        return name in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampleCatalog(p={self.p}, relations={len(self)})"
