"""The tug-of-war (AMS) sketch for tracking self-join sizes.

Section 2.2 of the paper.  The sketch keeps ``s = s1 * s2`` atomic
counters ``Z_{i,j} = sum_v eps_{i,j}(v) * f_v`` where each ``eps`` is a
4-wise independent +/-1 mapping of the value domain.  Every member of
the multiset "pulls the rope" in the direction its value hashes to;
[AMS99] shows ``E[Z^2] = SJ(R)`` and ``Var[Z^2] <= 2 SJ(R)^2``, so the
median of s2 means of s1 squared counters is within ``4 / sqrt(s1)``
relative error with probability ``1 - 2^(-s2/2)`` (Theorem 2.2).

The tracking extension is immediate and exact: insert(v) adds
``eps(v)`` to every counter, delete(v) subtracts it.  The sketch is a
linear function of the frequency vector, which also gives us:

* **mergeability** — sketches of disjoint streams built with the same
  hash seeds add component-wise;
* **batch updates** — a whole frequency histogram can be folded in with
  one fused scatter kernel call, which is how the experiment harness
  processes million-element streams in milliseconds;
* **join estimation** — the inner product of two sketches estimates
  the join size.  The paper's k-TW join signature (Section 4.3) is
  this sketch with ``s1 = k, s2 = 1``, and :meth:`inner_product_mean`
  is its estimator.

Costs match Theorem 2.2: O(s) time per insert/delete/query, O(s)
memory words.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..engine.protocol import Sketch, as_histogram
from ..engine.registry import register_sketch
from .. import kernels
from .estimators import (
    group_shape_for,
    median_of_means,
    theoretical_confidence,
    theoretical_relative_error,
)
from .hashing import SignHashFamily

__all__ = ["TugOfWarSketch"]

#: Chunk width for batch updates: bounds the (s, chunk) sign matrix
#: materialised at once so the working set stays cache-resident (a
#: 4096-wide chunk at s=1280 is a 40 MB uint64 matrix — measurably
#: slower than this width on memory-bandwidth-bound hosts).
_BATCH_CHUNK = 1024

#: Highest sign-family independence a sketch accepts: 4 is what the
#: variance analysis needs, and the hashing ablation uses 2.  A payload
#: asking for more is refused before its matrix is drawn.
MAX_INDEPENDENCE = 4


@register_sketch
class TugOfWarSketch(Sketch):
    """Tracks the self-join size of a multiset under inserts and deletes.

    Parameters
    ----------
    s1:
        Number of basic estimators averaged per group; controls
        accuracy (error ~ ``4 / sqrt(s1)``).
    s2:
        Number of groups medianed; controls confidence
        (failure ~ ``2^(-s2/2)``).
    seed:
        Seed for the 4-wise independent sign family.  Sketches that
        must be merged or joined against each other **must** share a
        seed (checked at merge/join time via the family itself).
    independence:
        k-wise independence of the sign family, at most
        :data:`MAX_INDEPENDENCE`; 4 (the default) is what the variance
        analysis requires.  Exposed for the 2-wise ablation benchmark.

    Examples
    --------
    >>> sk = TugOfWarSketch(s1=64, s2=5, seed=7)
    >>> for v in [1, 2, 2, 3, 3, 3]:
    ...     sk.insert(v)
    >>> sk.delete(3)
    >>> est = sk.estimate()   # true SJ is 1 + 4 + 4 = 9
    """

    kind = "tugofwar"
    is_linear = True  # state is a linear map of the frequency vector
    describe = (
        "AMS tug-of-war linear sketch for the self-join size F_2; "
        "mergeable, deletion-exact"
    )

    __slots__ = ("s1", "s2", "_signs", "_z", "_n")

    def __init__(
        self,
        s1: int,
        s2: int = 1,
        seed: int | None = None,
        independence: int = 4,
    ):
        if not 1 <= independence <= MAX_INDEPENDENCE:
            raise ValueError(
                f"independence must lie in [1, {MAX_INDEPENDENCE}], "
                f"got {independence}"
            )
        self.s1, self.s2 = group_shape_for(s1, s2)
        self._signs = SignHashFamily(
            self.s1 * self.s2, seed=seed, independence=independence
        )
        self._z = np.zeros(self.s1 * self.s2, dtype=np.int64)
        self._n = 0

    # ------------------------------------------------------------------
    # Updates (Theorem 2.2: O(s) per operation)
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Process insert(v): add eps(v) to every counter."""
        kernels.tugofwar_update_one(self._signs.coefficients, value, 1, self._z)
        self._n += 1

    def delete(self, value: int) -> None:
        """Process delete(v): subtract eps(v) from every counter.

        Deletions are exact inverses of insertions, so the sketch state
        after ``insert(v); delete(v)`` is identical to the state
        before — no accuracy is lost under deletions (unlike
        sample-count, which drops sample points).
        """
        if self._n <= 0:
            raise ValueError("cannot delete from an empty multiset")
        kernels.tugofwar_update_one(self._signs.coefficients, value, -1, self._z)
        self._n -= 1

    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once.

        ``count`` may be negative (a batch of deletions).  Equivalent
        to ``count`` individual insert/delete calls but O(s) total.
        """
        c = int(count)
        if c == 0:
            return
        if self._n + c < 0:
            raise ValueError(
                f"deleting {-c} occurrences would make the multiset size negative"
            )
        kernels.tugofwar_update_one(self._signs.coefficients, value, c, self._z)
        self._n += c

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a whole frequency histogram into the sketch.

        This is the vectorised bulk-loading path used by the experiment
        harness: for each distinct value v with count c it performs
        ``Z += c * eps(v)`` via the fused scatter kernel
        (:func:`repro.kernels.tugofwar_scatter`), chunked so the
        working set stays cache-resident.  The result is bit-identical
        to the equivalent sequence of :meth:`update` calls (linearity)
        on every kernel backend, which the test suite verifies.
        """
        vals, cnts = as_histogram(values, counts)
        total = int(cnts.sum())
        if self._n + total < 0:
            raise ValueError("batch would make the multiset size negative")
        coeffs = self._signs.coefficients
        for start in range(0, vals.size, _BATCH_CHUNK):
            kernels.tugofwar_scatter(
                coeffs,
                vals[start : start + _BATCH_CHUNK],
                cnts[start : start + _BATCH_CHUNK],
                self._z,
            )
        self._n += total

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Fold an insertion-only stream in via its histogram."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            return
        uniq, counts = np.unique(arr, return_counts=True)
        self.update_from_frequencies(uniq, counts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """The s1*s2 individual estimators ``X_{i,j} = Z_{i,j}^2``.

        Figure 15 of the paper plots exactly these values (sorted) to
        show why median-of-means combining is essential.
        """
        z = self._z.astype(np.float64)
        return z * z

    def estimate(self) -> float:
        """Median-of-means self-join estimate (steps 2–3 of the algorithm)."""
        return median_of_means(self.basic_estimators().reshape(self.s2, self.s1))

    def estimate_mean(self) -> float:
        """Plain-average variant (ablation; no median stage)."""
        return float(self.basic_estimators().mean())

    def estimate_median(self) -> float:
        """Plain-median variant (ablation; no averaging stage)."""
        return float(np.median(self.basic_estimators()))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merge(self, other: "TugOfWarSketch") -> "TugOfWarSketch":
        """Return the sketch of the union of the two underlying multisets.

        Requires identical shape *and* identical hash families (built
        from the same seed); the counters are then simply additive.
        """
        self._check_compatible(other)
        merged = self.copy()
        merged._z = self._z + other._z
        merged._n = self._n + other._n
        return merged

    def inner_product(self, other: "TugOfWarSketch") -> float:
        """Median-of-means estimate of the *join size* with ``other``.

        This is the k-TW join estimator of Section 4.3 generalised to
        the (s1, s2) grid: each product ``Z_F * Z_G`` has expectation
        ``|F join G|`` and variance at most ``2 SJ(F) SJ(G)``
        (Lemma 4.4).  The paper's k-TW scheme is the s2 = 1 case (plain
        mean of k products); use :meth:`inner_product_mean` for the
        literal scheme.
        """
        self._check_compatible(other)
        products = (self._z.astype(np.float64) * other._z.astype(np.float64)).reshape(
            self.s2, self.s1
        )
        return median_of_means(products)

    def inner_product_mean(self, other: "TugOfWarSketch") -> float:
        """The literal k-TW estimator: arithmetic mean of the products."""
        self._check_compatible(other)
        return float((self._z.astype(np.float64) * other._z.astype(np.float64)).mean())

    def _check_compatible(self, other: "TugOfWarSketch") -> None:
        if not isinstance(other, TugOfWarSketch):
            raise TypeError(f"expected TugOfWarSketch, got {type(other).__name__}")
        if (self.s1, self.s2) != (other.s1, other.s2):
            raise ValueError(
                f"shape mismatch: ({self.s1},{self.s2}) vs ({other.s1},{other.s2})"
            )
        if self._signs != other._signs:
            raise ValueError(
                "sketches use different hash families; build both with the same seed"
            )

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current multiset size (inserts minus deletes)."""
        return self._n

    @property
    def memory_words(self) -> int:
        """Storage in the paper's memory-word cost model: s = s1 * s2."""
        return self.s1 * self.s2

    @property
    def counters(self) -> np.ndarray:
        """Read-only view of the raw Z counters (flat, length s)."""
        view = self._z.view()
        view.flags.writeable = False
        return view

    def error_bound(self) -> float:
        """Theorem 2.2 guaranteed relative error ``4 / sqrt(s1)``."""
        return theoretical_relative_error(self.s1)

    def confidence(self) -> float:
        """Theorem 2.2 success probability ``1 - 2^(-s2/2)``."""
        return theoretical_confidence(self.s2)

    def copy(self) -> "TugOfWarSketch":
        """Independent deep copy sharing the same (immutable) hashes."""
        dup = TugOfWarSketch.__new__(TugOfWarSketch)
        dup.s1, dup.s2 = self.s1, self.s2
        dup._signs = self._signs  # immutable after construction
        dup._z = self._z.copy()
        dup._n = self._n
        return dup

    def to_dict(self) -> dict:
        """Serialise the full sketch state to plain Python types."""
        return {
            "kind": self.kind,
            "s1": self.s1,
            "s2": self.s2,
            "n": self._n,
            "z": self._z.tolist(),
            "signs": self._signs.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TugOfWarSketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""
        if payload.get("kind") != "tugofwar":
            raise ValueError(f"not a TugOfWarSketch payload: {payload.get('kind')!r}")
        sketch = cls.__new__(cls)
        sketch.s1 = int(payload["s1"])
        sketch.s2 = int(payload["s2"])
        sketch._n = int(payload["n"])
        sketch._z = np.asarray(payload["z"], dtype=np.int64)
        if sketch._z.shape != (sketch.s1 * sketch.s2,):
            raise ValueError(
                f"counter vector has shape {sketch._z.shape}, "
                f"expected ({sketch.s1 * sketch.s2},)"
            )
        sketch._signs = SignHashFamily.from_dict(
            payload["signs"],
            count=sketch._z.size,
            independence=range(1, MAX_INDEPENDENCE + 1),
        )
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TugOfWarSketch(s1={self.s1}, s2={self.s2}, n={self._n}, "
            f"words={self.memory_words})"
        )
