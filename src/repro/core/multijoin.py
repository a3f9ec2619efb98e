"""Multi-way join signatures (Section 5's "extending to three-way joins").

The paper's conclusion lists extending the signature scheme to
three-way joins as future work.  The standard construction (later
published as Dobra–Garofalakis–Gehrke–Rastogi, SIGMOD 2002) assigns
position j of an m-way chain the sign function

    xi_1 = e_1,   xi_j = e_{j-1} * e_j (1 < j < m),   xi_m = e_{m-1},

built from m-1 mutually independent 4-wise independent families, so
that for every value v the product over positions collapses:
``prod_j xi_j(v) = e_1(v)^2 ... e_{m-1}(v)^2 = 1``.  With
``S_j = sum_v xi_j(v) f_j(v)`` it follows that

    E[ S_1 * S_2 * ... * S_m ] = sum_v f_1(v) f_2(v) ... f_m(v)
                               = |R_1 join R_2 join ... join R_m|

for an m-way equality join on one attribute — exactly the setting of
the paper (footnote 2).  For m = 2 the construction degenerates to the
k-TW signature of Section 4.3 (both positions use e_1).

As with k-TW, k independent copies are kept and averaged; the variance
grows with the number of ways (each extra way contributes another
self-join factor to the variance bound), which is why the paper calls
the m > 2 case out as future work rather than a free generalisation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..engine.protocol import as_histogram
from .hashing import SignHashFamily

__all__ = ["MultiJoinFamily", "MultiJoinSignature"]


class MultiJoinSignature:
    """One relation's signature for a fixed position in an m-way chain.

    Like the tug-of-war sketch, the state is a *linear* function of the
    relation's frequency vector, so deletions are exact retractions and
    any insert/delete sequence may be coalesced into a signed histogram
    with bit-identical results.  The bulk paths below carry the same
    validation as the engine's vectorised ingestion (a batch may never
    drive the relation size negative), and setting ``is_linear`` lets
    :func:`repro.engine.ingest.ingest_operations` route operation
    streams through its linear pipeline — which also rejects a delete
    with no remaining insert exactly where a per-element replay would.
    """

    #: State is linear in the frequency vector (engine batching contract).
    is_linear = True

    __slots__ = ("_family", "_position", "_z", "_n")

    def __init__(self, family: "MultiJoinFamily", position: int):
        self._family = family
        self._position = position
        self._z = np.zeros(family.k, dtype=np.int64)
        self._n = 0

    def _signs(self, value: int) -> np.ndarray:
        return self._family.position_signs(self._position, value)

    def insert(self, value: int) -> None:
        """New tuple with joining-attribute value v."""
        self._z += self._signs(value)
        self._n += 1

    def delete(self, value: int) -> None:
        """Remove a tuple with joining-attribute value v.

        Deletions are retractions of earlier inserts.  As with every
        linear sketch, detection of an invalid delete is best-effort
        (the signature cannot afford per-value counts): relation-level
        emptiness is caught here, while per-value validation happens in
        the engine's operation pipeline, which tracks the live multiset.
        """
        if self._n <= 0:
            raise ValueError("cannot delete from an empty relation")
        self._z -= self._signs(value)
        self._n -= 1

    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once (signed).

        Negative counts are batched deletions; equivalent to ``|count|``
        individual insert/delete calls but O(k) total.
        """
        c = int(count)
        if c == 0:
            return
        if self._n + c < 0:
            raise ValueError(
                f"deleting {-c} occurrences would make the relation size negative"
            )
        self._z += np.int64(c) * self._signs(value).astype(np.int64)
        self._n += c

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a signed frequency histogram into the signature.

        The vectorised insert/delete path, mirroring
        :meth:`repro.core.tugofwar.TugOfWarSketch.update_from_frequencies`:
        bit-identical to the equivalent sequence of :meth:`update`
        calls (linearity), with the same precondition — the net batch
        may not drive the relation size negative.
        """
        vals, cnts = as_histogram(values, counts)
        if vals.size == 0:
            return
        total = int(cnts.sum())
        if self._n + total < 0:
            raise ValueError("batch would make the relation size negative")
        signs = self._family.position_signs_many(self._position, vals)  # (k, m)
        self._z += signs.astype(np.int64) @ cnts
        self._n += total

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Bulk-load an insertion-only value stream via its histogram."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            return
        uniq, counts = np.unique(arr, return_counts=True)
        self.update_from_frequencies(uniq, counts)

    @property
    def position(self) -> int:
        """This relation's position in the join chain (0-based)."""
        return self._position

    @property
    def counters(self) -> np.ndarray:
        """Read-only view of the k counters."""
        view = self._z.view()
        view.flags.writeable = False
        return view

    @property
    def k(self) -> int:
        """Signature size in memory words."""
        return int(self._z.size)

    @property
    def n(self) -> int:
        """Current relation size."""
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiJoinSignature(position={self._position}, k={self.k}, n={self._n})"


class MultiJoinFamily:
    """Factory and estimator for m-way chain-join signatures.

    Parameters
    ----------
    k:
        Words per relation signature (k independent basic estimators).
    ways:
        Number of relations m in the join (>= 2).
    seed:
        Seed; spawns ``ways - 1`` mutually independent sign families.

    Examples
    --------
    >>> relations = [[1, 1, 2], [1, 2, 2], [1, 2]]
    >>> fam = MultiJoinFamily(k=4096, ways=3, seed=0)
    >>> sigs = [fam.signature(j) for j in range(3)]
    >>> for sig, rel in zip(sigs, relations): sig.update_from_stream(rel)
    >>> est = fam.join_estimate(sigs)   # ~ |R0 ⋈ R1 ⋈ R2| = 2 + 2 = 4
    """

    def __init__(self, k: int, ways: int, seed: int | None = None):
        if k < 1:
            raise ValueError(f"signature size k must be >= 1, got {k}")
        if ways < 2:
            raise ValueError(f"an m-way join needs m >= 2, got {ways}")
        self.k = int(k)
        self.ways = int(ways)
        self.seed = seed
        seq = np.random.SeedSequence(seed)
        children = seq.spawn(self.ways - 1)
        self._families = [
            SignHashFamily(self.k, seed=int(c.generate_state(1)[0])) for c in children
        ]

    # -- sign plumbing -----------------------------------------------------
    def position_signs(self, position: int, value: int) -> np.ndarray:
        """xi_position(value) for all k copies (int8 array of ±1)."""
        self._check_position(position)
        if position == 0:
            return self._families[0].signs_one(value)
        if position == self.ways - 1:
            return self._families[-1].signs_one(value)
        return (
            self._families[position - 1].signs_one(value)
            * self._families[position].signs_one(value)
        )

    def position_signs_many(self, position: int, values: np.ndarray) -> np.ndarray:
        """xi_position at many values: int8 array (k, len(values))."""
        self._check_position(position)
        if position == 0:
            return self._families[0].signs_many(values)
        if position == self.ways - 1:
            return self._families[-1].signs_many(values)
        return (
            self._families[position - 1].signs_many(values)
            * self._families[position].signs_many(values)
        )

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.ways:
            raise ValueError(
                f"position must be in [0, {self.ways}), got {position}"
            )

    # -- signatures and estimation --------------------------------------------
    def signature(self, position: int) -> MultiJoinSignature:
        """A fresh signature for the relation at ``position`` in the chain."""
        self._check_position(position)
        return MultiJoinSignature(self, position)

    def signatures(self) -> list[MultiJoinSignature]:
        """One fresh signature per chain position, in order."""
        return [self.signature(j) for j in range(self.ways)]

    def join_estimate(self, signatures: Iterable[MultiJoinSignature]) -> float:
        """Mean over the k copies of the product of all m counters.

        ``signatures`` must be exactly one signature per position of
        this family, in any order.
        """
        sigs = list(signatures)
        if len(sigs) != self.ways:
            raise ValueError(
                f"need exactly {self.ways} signatures, got {len(sigs)}"
            )
        positions = sorted(s.position for s in sigs)
        if positions != list(range(self.ways)):
            raise ValueError(
                f"signatures must cover positions 0..{self.ways - 1} exactly, "
                f"got {positions}"
            )
        for s in sigs:
            if s._family is not self:
                raise ValueError("signature belongs to a different MultiJoinFamily")
        product = np.ones(self.k, dtype=np.float64)
        for s in sigs:
            product *= s.counters.astype(np.float64)
        return float(product.mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiJoinFamily(k={self.k}, ways={self.ways}, seed={self.seed!r})"
