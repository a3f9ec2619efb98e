"""Join-size estimation from per-relation signatures (Section 4).

The goal: maintain a small signature of each relation *independently*
(no per-pair state), such that the join size ``|F join G| = sum_i
f_i * g_i`` of any two relations can be estimated from their signatures
alone.  Two schemes from the paper:

**Sample signatures** (Section 4.1, the ``t_cross`` procedure of
[HNSS93]): keep each tuple's join-attribute value with probability p;
estimate the join size as the join size of the two samples scaled by
``p^-2``.  Lemma 4.1 bounds the variance via the degree sequence of the
value-equality bipartite graph; Lemma 4.2 turns it into the Theta(n²/B)
storage bound under a sanity bound B.  Theorem 4.3 (see
:mod:`repro.core.bounds` and :mod:`repro.data.adversarial`) shows no
signature scheme does asymptotically better.

**k-TW signatures** (Section 4.3): per relation keep k tug-of-war
counters ``S(F)_i = sum_v eps_i(v) f_v`` built from *shared* 4-wise
independent sign families.  Lemma 4.4:

    E[S(F) S(G)] = |F join G|,
    Var[S(F) S(G)] <= 2 SJ(F) SJ(G),

so the arithmetic mean of the k products estimates the join size within
``sqrt(2 SJ(F) SJ(G) / k)`` standard error — better than sampling
whenever the self-join sizes satisfy ``C < n sqrt(B)`` (Section 4.4).

A k-TW signature is a :class:`~repro.core.tugofwar.TugOfWarSketch`
with ``s1 = k`` and ``s2 = 1``.  Sketches built from one seed share
their sign functions; ``inner_product_mean`` is the mean of the k
products, ``inner_product`` of an ``s2 > 1`` grid its median-of-means
variant, and sketches of different seeds refuse to combine.
:class:`~repro.relational.catalog.SignatureCatalog` keeps one per
relation; this module holds the sample signatures.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["SampleJoinSignature", "sample_join_estimate"]


class SampleJoinSignature:
    """Bernoulli-sample join signature (Section 4.1 / t_cross).

    Each tuple's joining-attribute value is kept independently with
    probability p.  The stored state is the histogram of the kept
    values (equivalent to the value list, never larger).  Deletions
    remove a sampled occurrence if one exists — each tuple's coin is
    independent, so deleting a tuple deletes its sampled copy with the
    same probability it was sampled.

    The join estimate for two signatures with probabilities p and q is
    ``(join of the sample histograms) / (p q)``.
    """

    __slots__ = ("p", "_rng", "_counts", "_n")

    def __init__(self, p: float, seed: int | None = None):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"sampling probability must be in (0, 1], got {p}")
        self.p = float(p)
        self._rng = np.random.default_rng(seed)
        self._counts: dict[int, int] = {}
        self._n = 0

    def insert(self, value: int) -> None:
        """Offer one tuple; kept with probability p."""
        self._n += 1
        if self._rng.random() < self.p:
            v = int(value)
            self._counts[v] = self._counts.get(v, 0) + 1

    def delete(self, value: int) -> None:
        """Remove one tuple; drops a sampled copy with probability ~p.

        A deleted tuple was in the sample iff its insertion coin came
        up heads; since coins are exchangeable within a value we drop
        one sampled occurrence with probability (sampled copies) /
        (live copies) — statistically identical and implementable
        without per-tuple state.  Requires the caller to track live
        counts; we approximate with the unconditional p when the exact
        live count is unknown, which is unbiased in expectation.
        """
        if self._n <= 0:
            raise ValueError("cannot delete from an empty relation")
        self._n -= 1
        v = int(value)
        have = self._counts.get(v, 0)
        if have and self._rng.random() < self.p:
            if have == 1:
                del self._counts[v]
            else:
                self._counts[v] = have - 1

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Vectorised Bernoulli sampling of a whole stream."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            return
        keep = self._rng.random(arr.size) < self.p
        kept = arr[keep]
        if kept.size:
            uniq, counts = np.unique(kept, return_counts=True)
            for v, c in zip(uniq.tolist(), counts.tolist()):
                self._counts[int(v)] = self._counts.get(int(v), 0) + int(c)
        self._n += int(arr.size)

    def join_estimate(self, other: "SampleJoinSignature") -> float:
        """Join size of the sample histograms scaled by 1/(p q)."""
        if not isinstance(other, SampleJoinSignature):
            raise TypeError(f"expected SampleJoinSignature, got {type(other).__name__}")
        small, large = self._counts, other._counts
        if len(small) > len(large):
            small, large = large, small
        raw = sum(c * large.get(v, 0) for v, c in small.items())
        return raw / (self.p * other.p)

    def self_join_estimate(self) -> float:
        """SJ estimate from the sample histogram, scaled by 1/p^2.

        Biased upward by the diagonal pairs (a sampled tuple joins
        itself); corrected the same way as naive-sampling's estimator:
        subtract the sample size before scaling the cross term.
        """
        sample_size = sum(self._counts.values())
        sample_sj = sum(c * c for c in self._counts.values())
        cross = sample_sj - sample_size
        return sample_size / self.p + cross / (self.p * self.p)

    @property
    def memory_words(self) -> int:
        """Stored sample size (number of kept attribute values)."""
        return sum(self._counts.values())

    @property
    def expected_memory_words(self) -> float:
        """n * p, the expected signature size."""
        return self._n * self.p

    @property
    def n(self) -> int:
        """Current relation size."""
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampleJoinSignature(p={self.p}, n={self._n}, kept={self.memory_words})"


def sample_join_estimate(
    left: np.ndarray | Iterable[int],
    right: np.ndarray | Iterable[int],
    p: float,
    rng: np.random.Generator | int | None = None,
) -> float:
    """One-shot t_cross estimate for two in-memory relations.

    Samples both streams with probability p using independent coins and
    returns the scaled sample-join size; the offline fast path used by
    the join experiments.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must be in (0, 1], got {p}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    a = np.asarray(left, dtype=np.int64)
    b = np.asarray(right, dtype=np.int64)
    sa = a[gen.random(a.size) < p]
    sb = b[gen.random(b.size) < p]
    if sa.size == 0 or sb.size == 0:
        return 0.0
    av, ac = np.unique(sa, return_counts=True)
    bv, bc = np.unique(sb, return_counts=True)
    ai = np.isin(av, bv)
    bi = np.isin(bv, av)
    raw = float(np.sum(ac[ai].astype(np.float64) * bc[bi].astype(np.float64)))
    return raw / (p * p)
