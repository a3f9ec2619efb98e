"""A *mergeable*, deletion-safe F_0 (distinct count) sketch.

[AMS99] observes that F_0 admits small-space estimation; this module
provides the variant that fits the repo's systems layers: *linear
counting* over integer occupancy counters ([Whang et al. 1990]'s
estimator made retraction-safe).  Each of ``s2`` repetitions hashes
every value into one of ``s1`` buckets with an independent family and
maintains the integer counter ``C[b] = sum_{v: h(v)=b} f_v``.

Because the counters hold *net frequencies* rather than sticky bits,
the sketch survives deletions exactly: under strict-turnstile streams
(net ``f_v >= 0`` for every value, the same contract the windowed
store's signed ingest enforces), ``C[b] == 0`` if and only if no live
value hashes to b.  Each repetition reports the linear-counting
estimate ``-s1 * ln(z / s1)`` from its zero-bucket count ``z``
(capped at ``z = 1`` when saturated), and the final answer is the
median across repetitions.

The state is an integer linear map of the frequency vector, so merge
is element-wise counter addition — bit-identical to the monolithic
build, and :class:`~repro.core.linear.LinearSketch`'s like every
update — and the sketch inherits windowing, compaction, and cluster
scatter–gather for free.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine.registry import register_sketch
from .estimators import group_shape_for
from .hashing import PolynomialHashFamily
from .linear import LinearSketch

__all__ = ["DistinctCountSketch"]


@register_sketch
class DistinctCountSketch(LinearSketch):
    """Tracks the number of distinct live values (F_0) under updates.

    Parameters
    ----------
    s1:
        Occupancy buckets per repetition; controls accuracy (the load
        factor ``F_0 / s1`` drives the linear-counting error, so size
        s1 to a small multiple of the expected distinct count).
    s2:
        Independent repetitions medianed; controls confidence.
    seed:
        Seed for the bucket hash families.  Sketches that must be
        merged **must** share a seed (checked at merge time).

    Examples
    --------
    >>> sk = DistinctCountSketch(s1=64, s2=5, seed=7)
    >>> for v in [1, 2, 2, 3, 3, 3]:
    ...     sk.insert(v)
    >>> sk.delete(3)
    >>> est = sk.estimate()   # true F_0 is still 3 (net f_3 = 2)
    """

    kind = "f0"
    describe = (
        "deletion-safe linear-counting sketch for the distinct count "
        "F_0; mergeable under strict-turnstile streams"
    )

    _chunk = 4096  # its (s2, chunk) bucket matrix has only s2 rows
    __slots__ = ()

    def __init__(self, s1: int = 256, s2: int = 1, seed: int | None = None):
        self.s1, self.s2 = group_shape_for(s1, s2)
        self._family = PolynomialHashFamily(self.s2, independence=4, seed=seed)
        self._c = np.zeros((self.s2, self.s1), dtype=np.int64)
        self._n = 0

    def _scatter(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Scatter-add the counts into each repetition's buckets."""
        buckets = self._family.hash_many(values) % self.s1  # (s2, m)
        for rep in range(self.s2):
            np.add.at(self._c[rep], buckets[rep].astype(np.intp), counts)

    def _update_one(self, value: int, count: int) -> None:
        buckets = (self._family.hash_one(value) % self.s1).astype(np.intp)
        self._c[np.arange(self.s2), buckets] += np.int64(count)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """Per-repetition linear-counting estimates (length s2)."""
        zeros = (self._c == 0).sum(axis=1).astype(np.float64)
        zeros = np.maximum(zeros, 1.0)  # saturated reps cap at z = 1
        return -float(self.s1) * np.log(zeros / float(self.s1))

    def estimate(self) -> float:
        """Median across repetitions of the linear-counting estimate."""
        if self._n == 0:
            return 0.0
        return float(np.median(self.basic_estimators()))

    def saturation(self) -> float:
        """Worst-repetition bucket occupancy ``1 - z/s1`` in [0, 1].

        Near 1.0 the estimate degrades (the zero count underflows);
        callers sizing s1 can watch this.
        """
        zeros = (self._c == 0).sum(axis=1)
        return float(1.0 - zeros.min() / self.s1)

    def error_bound(self) -> float:
        """Standard-error heuristic for linear counting at the current load.

        From [Whang et al. 1990]: StdErr(n_hat)/n ~
        sqrt(s1) * (e^t - t - 1)^0.5 / (t * s1) with t = n/s1.  A
        guidance number, not a worst-case guarantee.
        """
        if self._n == 0:
            return 0.0
        t = max(self.estimate(), 1.0) / float(self.s1)
        return math.sqrt(self.s1 * max(math.expm1(t) - t, 0.0)) / (t * self.s1)

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
            "counters": self._c.tolist(),
            "buckets": self._family.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DistinctCountSketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""
        if payload.get("kind") != "f0":
            raise ValueError(
                f"not a DistinctCountSketch payload: {payload.get('kind')!r}"
            )
        sketch = cls.__new__(cls)
        sketch.s1 = int(payload["s1"])
        sketch.s2 = int(payload["s2"])
        sketch._n = int(payload["n"])
        sketch._c = np.asarray(payload["counters"], dtype=np.int64)
        if sketch._c.shape != (sketch.s2, sketch.s1):
            raise ValueError(
                f"counter matrix has shape {sketch._c.shape}, "
                f"expected ({sketch.s2}, {sketch.s1})"
            )
        sketch._family = PolynomialHashFamily.from_dict(
            payload["buckets"], count=sketch.s2, independence=(4,)
        )
        return sketch
