"""A *mergeable* F_k sketch: roots-of-unity counters, median-of-means.

The [AMS99] F_k estimator of Section 2.1 samples stream *positions*,
which makes it fundamentally non-mergeable: the sample of a union
stream cannot be computed from the samples of its parts (the same
reason :class:`~repro.core.samplecount.SampleCountSketch` is excluded
from sharded builds).  To give higher moments the same systems story
as the tug-of-war F_2 sketch — windowing, compaction, cluster
scatter–gather — this module keeps a *linear* synopsis instead.

Each of the ``s = s1 * s2`` slots hashes every value ``v`` to a digit
``b(v) in {0..k-1}`` with a k-wise independent family and maintains
the k integer counters ``C[m] = sum_{v: b(v)=m} f_v``.  At query time
the slot forms the complex sum ``Z = sum_m C[m] * w^m`` over the
primitive k-th root of unity ``w = exp(2*pi*i/k)`` and reports the
basic estimator ``X = Re(Z^k)``.  Expanding ``Z^k`` over value tuples,
every tuple whose values are not all equal carries a factor
``E[w^(m*b(v))] = 0`` for some ``1 <= m < k``, while the all-equal
tuples contribute ``f_v^k * w^(k*b(v)) = f_v^k`` deterministically —
so ``E[X] = F_k`` and the usual median of s2 means of s1 slots
concentrates it.  ``k = 2`` degenerates to the tug-of-war sketch
(``w = -1``, ``Z`` a signed counter, ``X = Z^2``); ``k = 1`` is exact.

The state is an integer linear map of the frequency vector: deletions
subtract what insertions add, merge is element-wise counter addition
(bit-identical to the monolithic build; both are
:class:`~repro.core.linear.LinearSketch`'s), and all floating-point
math happens at query time only.

Unlike F_2's universal ``4/sqrt(s1)`` bound, the relative variance of
this estimator for ``k >= 3`` depends on the frequency profile: it is
small on skewed streams (where F_k is dominated by heavy values — the
regime the statistical-guarantee harness asserts) and grows as the
stream flattens, where ``Z^k`` cross-term noise dominates the small
true moment.  Size ``s1`` for the skew you expect.
"""

from __future__ import annotations

import numpy as np

from ..engine.registry import register_sketch
from .. import kernels
from .estimators import group_shape_for, median_of_means
from .hashing import PolynomialHashFamily
from .linear import LinearSketch
from .moments import UnsupportedMomentError

__all__ = ["FkMomentSketch"]


@register_sketch
class FkMomentSketch(LinearSketch):
    """Tracks the k-th frequency moment under inserts and deletes.

    Parameters
    ----------
    k:
        The moment order the sketch is built for (k >= 1).  The digit
        hash is taken modulo k, so one sketch answers exactly one
        order (plus the always-exact F_1).
    s1:
        Slots averaged per group; controls accuracy.
    s2:
        Groups medianed; controls confidence.
    seed:
        Seed for the k-wise independent digit family.  Sketches that
        must be merged **must** share a seed (checked at merge time
        via the family itself).

    Examples
    --------
    >>> sk = FkMomentSketch(k=3, s1=64, s2=5, seed=7)
    >>> for v in [1, 2, 2, 3, 3, 3]:
    ...     sk.insert(v)
    >>> est = sk.moment_estimate(3)   # true F_3 is 1 + 8 + 27 = 36
    """

    kind = "fk_moments"
    describe = (
        "roots-of-unity linear sketch for one fixed frequency moment "
        "F_k; mergeable, deletion-exact"
    )

    _shape = ("k", "s1", "s2")
    __slots__ = ("k",)

    def __init__(
        self,
        k: int = 2,
        s1: int = 256,
        s2: int = 1,
        seed: int | None = None,
    ):
        k = int(k)
        if k < 1:
            raise UnsupportedMomentError(
                f"moment order k must be >= 1, got {k}"
            )
        self.k = k
        self.s1, self.s2 = group_shape_for(s1, s2)
        # The vanishing of cross terms in E[Z^k] needs the digits of up
        # to k distinct values to be independent; 4-wise is kept as the
        # floor so k = 2 matches the tug-of-war analysis.
        self._family = PolynomialHashFamily(
            self.s1 * self.s2, independence=max(k, 4), seed=seed
        )
        self._c = np.zeros((self.s1 * self.s2, k), dtype=np.int64)
        self._n = 0

    def _scatter(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Add each ``c_v`` into column ``b(v)`` of every slot, fused."""
        kernels.fk_scatter(
            self._family.coefficients, values, counts, self._c, self.k
        )

    def _update_one(self, value: int, count: int) -> None:
        kernels.fk_update_one(
            self._family.coefficients, value, count, self._c, self.k
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """The s1*s2 individual estimators ``X = Re(Z^k)`` per slot."""
        omega = np.exp(2j * np.pi * np.arange(self.k) / self.k)
        z = self._c.astype(np.float64) @ omega
        return (z**self.k).real

    def moment_estimate(self, k: int) -> float:
        """Median-of-means F_k estimate for the configured order.

        F_1 is answered exactly for every sketch (it is the tracked
        multiset size); any other order must match the ``k`` the
        digit hash was built for, else :class:`UnsupportedMomentError`.
        """
        k = int(k)
        if k < 1:
            raise UnsupportedMomentError(
                f"moment order k must be >= 1, got {k}"
            )
        if k == 1:
            return float(self._n)
        if k != self.k:
            raise UnsupportedMomentError(
                f"this fk_moments sketch is built for k={self.k} (its digit "
                f"hash is modulo {self.k}) and cannot answer k={k}"
            )
        if self._n == 0:
            return 0.0
        return median_of_means(self.basic_estimators().reshape(self.s2, self.s1))

    def estimate(self) -> float:
        """The configured-order moment estimate (F_k for the built k)."""
        return self.moment_estimate(self.k)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the full sketch state to plain Python types."""
        return {
            "kind": self.kind,
            "k": self.k,
            "s1": self.s1,
            "s2": self.s2,
            "n": self._n,
            "counters": self._c.tolist(),
            "digits": self._family.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FkMomentSketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""
        if payload.get("kind") != "fk_moments":
            raise ValueError(
                f"not a FkMomentSketch payload: {payload.get('kind')!r}"
            )
        sketch = cls.__new__(cls)
        sketch.k = int(payload["k"])
        if sketch.k < 1:
            raise ValueError(f"moment order k must be >= 1, got {sketch.k}")
        sketch.s1 = int(payload["s1"])
        sketch.s2 = int(payload["s2"])
        sketch._n = int(payload["n"])
        sketch._c = np.asarray(payload["counters"], dtype=np.int64)
        if sketch._c.shape != (sketch.s1 * sketch.s2, sketch.k):
            raise ValueError(
                f"counter matrix has shape {sketch._c.shape}, "
                f"expected ({sketch.s1 * sketch.s2}, {sketch.k})"
            )
        sketch._family = PolynomialHashFamily.from_dict(
            payload["digits"],
            count=sketch._c.shape[0],
            independence=(max(sketch.k, 4),),
        )
        return sketch
