"""The naive-sampling baseline (Section 2.3 of the paper).

The standard approach sample-count and tug-of-war are compared against:
draw ``s`` elements of the sequence without replacement, build a tiny
histogram of the sample, compute its self-join size ``SJ(S)``, and
unbias it with

    X = n + (SJ(S) - s) * n * (n - 1) / (s * (s - 1)),

so that ``E[X] = SJ(A)`` (each of the ``SJ(S) - s`` cross pairs in the
sample witnesses one of the ``SJ(A) - n`` equal-value ordered pairs of
the sequence, each sampled with probability ``s(s-1)/(n(n-1))``).

Lemma 2.3 shows this needs an Omega(sqrt n)-sized sample to avoid a
factor-2 error (birthday bound: a smaller sample of the "n/2 pairs"
data set usually contains no duplicate at all); the experimental study
confirms it is far less accurate than the AMS estimators at equal
storage.  The adversarial pair of relations from the lemma is built by
:func:`repro.data.adversarial.lemma23_pair`.

Two implementations are provided:

* :class:`NaiveSamplingEstimator` — a streaming tracker that maintains
  a size-s uniform sample of an insertion-only stream with a classic
  reservoir [Vit85] (the scenario of Section 2.3, where n is the
  stream length so far);
* :func:`naive_sampling_estimate_offline` — the vectorised known-n
  evaluator used by the experiment harness.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..engine.protocol import EXPAND_MAX, Sketch, as_histogram, expand_histogram
from ..engine.registry import register_sketch
from ..streams.reservoir import ReservoirSample

__all__ = [
    "NaiveSamplingEstimator",
    "naive_sampling_estimate_offline",
    "scale_sample_self_join",
]


def scale_sample_self_join(sample_sj: float, sample_size: int, n: int) -> float:
    """Scale a sample's self-join size into an estimate for the sequence.

    Implements ``X = n + (SJ(S) - s) n (n-1) / (s (s-1))``.  For a
    degenerate one-element sample the cross-pair term is undefined and
    the minimum-possible estimate n is returned (SJ >= n always).
    """
    if sample_size < 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    if sample_size <= 1:
        return float(n)
    return float(n) + (float(sample_sj) - sample_size) * n * (n - 1) / (
        sample_size * (sample_size - 1)
    )


@register_sketch
class NaiveSamplingEstimator(Sketch):
    """Streaming naive-sampling tracker for insertion-only sequences.

    Maintains a uniform without-replacement sample of the stream seen
    so far via reservoir sampling, so a query can be answered at any
    point without knowing the final length in advance.

    Parameters
    ----------
    s:
        Sample size (the storage budget in memory words).
    seed:
        Seed of the reservoir's position-keyed counter RNG, which lets
        bulk ingest run through the compiled reservoir-chain kernel.

    Notes
    -----
    Section 2.3 defines naive-sampling for insertion-only sequences
    only; :meth:`delete` raises ``NotImplementedError`` by design, and
    the experimental comparison on update streams with deletions is
    restricted to the two AMS algorithms.
    """

    kind = "naivesampling"
    is_fixed_size = True  # s sample slots, whatever the data
    describe = (
        "scale-up-the-sample self-join baseline (Section 3 straw man); "
        "insertion-only, not mergeable"
    )

    #: Histogram entries with counts above this take the reservoir's
    #: arithmetic repeat jumps instead of expansion (same draws).
    _EXPAND_MAX = EXPAND_MAX

    def __init__(self, s: int, seed: int | None = None):
        if s < 1:
            raise ValueError(f"sample size s must be >= 1, got {s}")
        self.s = int(s)
        self._reservoir = ReservoirSample(self.s, seed=seed)

    def insert(self, value: int) -> None:
        """Offer one stream element to the reservoir."""
        self._reservoir.offer(int(value))

    def delete(self, value: int) -> None:
        """Unsupported: the paper defines naive-sampling for inserts only."""
        raise NotImplementedError(
            "naive-sampling is defined for insertion-only sequences (Section 2.3)"
        )

    def update_from_stream(self, values: Iterable[int] | np.ndarray) -> None:
        """Offer a whole stream via the reservoir's skip-jump bulk path.

        Work happens only at accepted positions — O(s log(n/s)) of them
        — and the result is bit-identical to per-element :meth:`insert`
        calls (same random draws at the same positions).
        """
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"stream must be 1-D, got shape {arr.shape}")
        self._reservoir.offer_array(arr)

    def update_from_frequencies(
        self, values: Iterable[int] | np.ndarray, counts: Iterable[int] | np.ndarray
    ) -> None:
        """Fold an insertion-only histogram in (negative counts raise).

        Entries with modest counts are expanded with ``np.repeat`` into
        chunked value arrays and offered through the bulk reservoir
        path; entries with huge counts keep the reservoir's arithmetic
        repeat jumps, so a value with a billion occurrences still costs
        O(s log) work, not O(count) memory.  Both routes consume the
        same draws as offering every occurrence one by one, so the
        resulting sample is identical to the per-element loop.
        Deletion counts are rejected the same way :meth:`delete` is.
        """
        vals, cnts = as_histogram(values, counts)
        if (cnts < 0).any():
            raise NotImplementedError(
                "naive-sampling is defined for insertion-only sequences (Section 2.3)"
            )
        for piece in expand_histogram(vals, cnts, self._EXPAND_MAX):
            if isinstance(piece, tuple):
                self._reservoir.offer_repeated(*piece)
            else:
                self._reservoir.offer_array(piece)

    def estimate(self) -> float:
        """Histogram the sample, compute SJ(S), scale up (Section 2.3)."""
        sample = self._reservoir.items
        n = self._reservoir.offered
        if n == 0:
            return 0.0
        arr = np.asarray(sample, dtype=np.int64)
        _, counts = np.unique(arr, return_counts=True)
        sample_sj = float(np.sum(counts.astype(np.float64) ** 2))
        return scale_sample_self_join(sample_sj, arr.size, n)

    @property
    def n(self) -> int:
        """Number of stream elements offered so far."""
        return self._reservoir.offered

    @property
    def sample_size(self) -> int:
        """Number of elements currently held (min(s, n))."""
        return len(self._reservoir.items)

    @property
    def memory_words(self) -> int:
        """Storage in the paper's cost model: the sample size s."""
        return self.s

    def to_dict(self) -> dict:
        """Serialise the estimator (reservoir contents + RNG state)."""
        return {"kind": self.kind, "s": self.s, "reservoir": self._reservoir.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "NaiveSamplingEstimator":
        """Reconstruct an estimator from :meth:`to_dict` output."""
        if payload.get("kind") != cls.kind:
            raise ValueError(
                f"not a NaiveSamplingEstimator payload: {payload.get('kind')!r}"
            )
        estimator = cls(int(payload["s"]))
        estimator._reservoir = ReservoirSample.from_dict(payload["reservoir"])
        if estimator._reservoir.k != estimator.s:
            raise ValueError(
                f"reservoir size {estimator._reservoir.k} != sample size {estimator.s}"
            )
        return estimator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NaiveSamplingEstimator(s={self.s}, n={self.n})"


def naive_sampling_estimate_offline(
    values: np.ndarray | Iterable[int],
    s: int,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Naive-sampling estimate for a full in-memory stream.

    Draws ``min(s, n)`` elements without replacement, computes the
    sample self-join size, and scales with
    :func:`scale_sample_self_join`.  This is the harness fast path; it
    matches the streaming class distributionally (both produce uniform
    without-replacement samples).
    """
    if s < 1:
        raise ValueError(f"sample size s must be >= 1, got {s}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"stream must be 1-D, got shape {arr.shape}")
    n = arr.size
    if n == 0:
        return 0.0
    k = min(int(s), n)
    sample = gen.choice(arr, size=k, replace=False)
    _, counts = np.unique(sample, return_counts=True)
    sample_sj = float(np.sum(counts.astype(np.float64) ** 2))
    return scale_sample_self_join(sample_sj, k, n)
