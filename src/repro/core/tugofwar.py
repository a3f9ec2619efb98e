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
linear function of the frequency vector (its updates, merge and copy
are :class:`~repro.core.linear.LinearSketch`'s), which also gives us:

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

import numpy as np

from ..engine.registry import register_sketch
from .. import kernels
from .estimators import (
    group_shape_for,
    median_of_means,
    theoretical_confidence,
    theoretical_relative_error,
)
from .hashing import SignHashFamily
from .linear import LinearSketch

__all__ = ["TugOfWarSketch"]

#: Highest sign-family independence a sketch accepts: 4 is what the
#: variance analysis needs, and the hashing ablation uses 2.  A payload
#: asking for more is refused before its matrix is drawn.
MAX_INDEPENDENCE = 4


@register_sketch
class TugOfWarSketch(LinearSketch):
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
    describe = (
        "AMS tug-of-war linear sketch for the self-join size F_2; "
        "mergeable, deletion-exact"
    )

    __slots__ = ()

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
        self._family = SignHashFamily(
            self.s1 * self.s2, seed=seed, independence=independence
        )
        self._c = np.zeros(self.s1 * self.s2, dtype=np.int64)  # the Z counters
        self._n = 0

    def _scatter(self, values: np.ndarray, counts: np.ndarray) -> None:
        """``Z += c * eps(v)`` for each (v, c), in the fused scatter kernel."""
        kernels.tugofwar_scatter(self._family.coefficients, values, counts, self._c)

    def _update_one(self, value: int, count: int) -> None:
        kernels.tugofwar_update_one(
            self._family.coefficients, value, count, self._c
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """The s1*s2 individual estimators ``X_{i,j} = Z_{i,j}^2``.

        Figure 15 of the paper plots exactly these values (sorted) to
        show why median-of-means combining is essential.
        """
        z = self._c.astype(np.float64)
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
        products = (self._c.astype(np.float64) * other._c.astype(np.float64)).reshape(
            self.s2, self.s1
        )
        return median_of_means(products)

    def inner_product_mean(self, other: "TugOfWarSketch") -> float:
        """The literal k-TW estimator: arithmetic mean of the products."""
        self._check_compatible(other)
        return float((self._c.astype(np.float64) * other._c.astype(np.float64)).mean())

    def error_bound(self) -> float:
        """Theorem 2.2 guaranteed relative error ``4 / sqrt(s1)``."""
        return theoretical_relative_error(self.s1)

    def confidence(self) -> float:
        """Theorem 2.2 success probability ``1 - 2^(-s2/2)``."""
        return theoretical_confidence(self.s2)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the full sketch state to plain Python types."""
        return {
            "kind": self.kind,
            "s1": self.s1,
            "s2": self.s2,
            "n": self._n,
            "z": self._c.tolist(),
            "signs": self._family.to_dict(),
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
        sketch._c = np.asarray(payload["z"], dtype=np.int64)
        if sketch._c.shape != (sketch.s1 * sketch.s2,):
            raise ValueError(
                f"counter vector has shape {sketch._c.shape}, "
                f"expected ({sketch.s1 * sketch.s2},)"
            )
        sketch._family = SignHashFamily.from_dict(
            payload["signs"],
            count=sketch._c.size,
            independence=range(1, MAX_INDEPENDENCE + 1),
        )
        return sketch
