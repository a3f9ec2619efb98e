"""Empirical (eps, delta) validation of the tug-of-war guarantee.

Theorem 2.2: for *any* fixed input, the median of s2 means of s1
squared counters is within relative error ``eps = 4 / sqrt(s1)`` of
SJ(R) with probability at least ``1 - delta``, ``delta = 2^(-s2/2)``,
over the sketch's own randomness.  This harness fixes the inputs — a
Zipf stream, the paper's adversarial `path` set, and a deletion-heavy
workload — and measures the failure frequency across 200 independent
sketch seeds per input.  Everything is seeded and deterministic.

The check is one-sided on purpose: the theorem promises failures are
*rarer* than delta (in practice far rarer, since the Chebyshev +
Chernoff analysis is loose), so the empirical rate must not exceed
delta.  A companion test confirms the median stage earns its keep:
widening s2 must not hurt the failure rate on the worst input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimators import (
    theoretical_confidence,
    theoretical_relative_error,
)
from repro.core.frequency import self_join_size
from repro.core.tugofwar import TugOfWarSketch
from repro.data.adversarial import path_dataset
from repro.engine.ingest import ingest_operations
from repro.streams.canonical import remaining_multiset
from repro.streams.operations import mixed_workload

S1, S2 = 64, 5
EPS = theoretical_relative_error(S1)  # 4 / sqrt(64) = 0.5
DELTA = 1.0 - theoretical_confidence(S2)  # 2^(-5/2) ~ 0.177
N_SEEDS = 200


def _zipf_stream() -> np.ndarray:
    rng = np.random.default_rng(123)
    return (rng.zipf(1.3, size=6000) % 2000).astype(np.int64)


def _adversarial_stream() -> np.ndarray:
    # The paper's `path` set scaled down: worst case for sampling-based
    # estimators, and maximally skewed between singletons and one heavy
    # value — a stress input for the variance bound.
    return path_dataset(singletons=4000, heavy_count=80, rng=9)


def _failure_rate(values: np.ndarray, s1: int = S1, s2: int = S2) -> float:
    """Fraction of sketch seeds whose estimate misses the eps band."""
    truth = float(self_join_size(values))
    eps = theoretical_relative_error(s1)
    failures = 0
    for seed in range(N_SEEDS):
        sketch = TugOfWarSketch(s1=s1, s2=s2, seed=seed)
        sketch.update_from_stream(values)
        if abs(sketch.estimate() - truth) > eps * truth:
            failures += 1
    return failures / N_SEEDS


class TestTheorem22Empirically:
    def test_zipf_stream_within_eps_delta(self):
        assert _failure_rate(_zipf_stream()) <= DELTA

    def test_adversarial_stream_within_eps_delta(self):
        assert _failure_rate(_adversarial_stream()) <= DELTA

    def test_deletion_workload_within_eps_delta(self):
        """The tracking guarantee: deletions do not degrade accuracy.

        The sketch state after an insert/delete program equals the
        state over the canonical surviving multiset exactly
        (linearity), so the (eps, delta) bound applies to the
        *remaining* multiset.
        """
        base = _zipf_stream()[:4000]
        ops = list(mixed_workload(base, delete_fraction=0.2, rng=77))
        truth = float(
            sum(c * c for c in remaining_multiset(ops).values())
        )
        failures = 0
        for seed in range(N_SEEDS):
            sketch = TugOfWarSketch(s1=S1, s2=S2, seed=seed)
            ingest_operations(sketch, ops)
            if abs(sketch.estimate() - truth) > EPS * truth:
                failures += 1
        assert failures / N_SEEDS <= DELTA

    def test_more_confidence_groups_never_hurt_much(self):
        """delta shrinks with s2: at equal s1, failures with s2=5
        must not exceed failures with s2=1 beyond seed noise."""
        values = _adversarial_stream()
        wide = _failure_rate(values, s1=S1, s2=5)
        single = _failure_rate(values, s1=S1, s2=1)
        assert wide <= single + 0.05

    def test_relative_error_shrinks_with_s1(self):
        """The eps = 4/sqrt(s1) trend: quadrupling s1 should at least
        halve the median relative error on the Zipf input."""
        values = _zipf_stream()
        truth = float(self_join_size(values))

        def median_rel_error(s1: int) -> float:
            errors = []
            for seed in range(60):
                sketch = TugOfWarSketch(s1=s1, s2=S2, seed=seed)
                sketch.update_from_stream(values)
                errors.append(abs(sketch.estimate() - truth) / truth)
            return float(np.median(errors))

        assert median_rel_error(64) <= 0.75 * median_rel_error(4)

    def test_bound_constants_match_theorem(self):
        assert EPS == pytest.approx(0.5)
        assert DELTA == pytest.approx(2.0 ** -2.5)
        assert N_SEEDS >= 200


class TestFkMomentsEmpirically:
    """The same 200-seed harness for the general F_k kind at k=3.

    The roots-of-unity estimator is unbiased for F_k with the same
    median-of-means amplification as tug-of-war, so the harness holds
    the (eps, delta) band to the same one-sided budget: measured
    failures across 200 sketch seeds must not exceed delta.
    """

    K = 3

    def _f3(self, values: np.ndarray) -> float:
        return float(np.sum(np.bincount(values).astype(np.float64) ** self.K))

    def test_zipf_stream_within_eps_delta(self):
        from repro.core.fkmoments import FkMomentSketch

        values = _zipf_stream()
        truth = self._f3(values)
        failures = 0
        for seed in range(N_SEEDS):
            sketch = FkMomentSketch(k=self.K, s1=S1, s2=S2, seed=seed)
            sketch.update_from_stream(values)
            if abs(sketch.moment_estimate(self.K) - truth) > EPS * truth:
                failures += 1
        assert failures / N_SEEDS <= DELTA

    def test_deletion_workload_within_eps_delta(self):
        """Deletions are exact for the linear counter state, so the
        (eps, delta) band applies to the surviving multiset's F_3."""
        from repro.core.fkmoments import FkMomentSketch

        base = _zipf_stream()[:4000]
        ops = list(mixed_workload(base, delete_fraction=0.2, rng=77))
        truth = float(
            sum(c ** self.K for c in remaining_multiset(ops).values())
        )
        failures = 0
        for seed in range(N_SEEDS):
            sketch = FkMomentSketch(k=self.K, s1=S1, s2=S2, seed=seed)
            ingest_operations(sketch, ops)
            if abs(sketch.moment_estimate(self.K) - truth) > EPS * truth:
                failures += 1
        assert failures / N_SEEDS <= DELTA


class TestTheorem21SampleCountEmpirically:
    """The 200-seed harness for sample-count under the counter RNG.

    Theorem 2.1: with slot positions uniform over a known length n,
    the median of s2 means of s1 per-slot estimates is within relative
    error ``eps = 4 t^{1/4} / sqrt(s1)`` of SJ(A) with probability at
    least ``1 - 2^(-s2/2)`` (t = domain size).  The Zipf input is
    folded into a small domain (t = 81) so the band is non-vacuous at
    a tractable s1, and ``initial_range=n`` reproduces the theorem's
    known-n position draw.  The sketches draw from the counter RNG,
    so this validates the (eps, delta) guarantee for the
    position-keyed draws the compiled kernels use.
    """

    SC_S1 = 144

    @staticmethod
    def _small_domain_stream() -> np.ndarray:
        rng = np.random.default_rng(123)
        return (rng.zipf(1.3, size=6000) % 81).astype(np.int64)

    def _failure_rate(self, cls, values: np.ndarray) -> float:
        from repro.core.bounds import sample_count_error_bound

        truth = float(self_join_size(values))
        t = int(np.unique(values).size)
        eps = sample_count_error_bound(self.SC_S1, t)
        failures = 0
        for seed in range(N_SEEDS):
            sketch = cls(
                s1=self.SC_S1, s2=S2, seed=seed, initial_range=values.size
            )
            sketch.update_from_stream(values)
            if abs(sketch.estimate() - truth) > eps * truth:
                failures += 1
        return failures / N_SEEDS

    def test_zipf_stream_within_eps_delta(self):
        from repro.core.samplecount import SampleCountSketch

        values = self._small_domain_stream()
        assert self._failure_rate(SampleCountSketch, values) <= DELTA

    def test_fast_query_variant_within_eps_delta(self):
        """The O(s2)-query variant computes the identical estimator, so
        the Theorem 2.1 band applies unchanged."""
        from repro.core.samplecount import SampleCountFastQuery

        values = self._small_domain_stream()
        assert self._failure_rate(SampleCountFastQuery, values) <= DELTA

    def test_adversarial_stream_within_eps_delta(self):
        """The `path` set is sampling's worst case; the theorem band
        (much looser here — eps grows with t^{1/4}) must still hold."""
        from repro.core.samplecount import SampleCountSketch

        values = _adversarial_stream()
        assert self._failure_rate(SampleCountSketch, values) <= DELTA

    def test_band_is_the_paper_bound(self):
        from repro.core.bounds import sample_count_error_bound

        assert sample_count_error_bound(
            self.SC_S1, 81
        ) == pytest.approx(4.0 * 81 ** 0.25 / 12.0)


class TestNaiveSamplingEmpirically:
    """Naive sampling has no (eps, delta) theorem — Lemma 2.3 proves a
    sub-sqrt(n) sample *cannot* have one.  The harness therefore pins
    both sides of that story under the counter RNG: at equal storage
    (s = s1 * s2 words, what the AMS sketches use) the measured
    failure rate against the tug-of-war band stays inside the same
    one-sided delta budget on the benign Zipf input (an empirical
    band, not a theorem), while on the Lemma 2.3 path data a
    sqrt(n)-starved sample misses the band on essentially every seed —
    the separation the paper proves.
    """

    def _failure_rate(self, values: np.ndarray, s: int, eps: float) -> float:
        from repro.core.naivesampling import NaiveSamplingEstimator

        truth = float(self_join_size(values))
        failures = 0
        for seed in range(N_SEEDS):
            estimator = NaiveSamplingEstimator(s=s, seed=seed)
            estimator.update_from_stream(values)
            if abs(estimator.estimate() - truth) > eps * truth:
                failures += 1
        return failures / N_SEEDS

    def test_zipf_stream_within_empirical_band_at_equal_storage(self):
        rate = self._failure_rate(_zipf_stream(), s=S1 * S2, eps=EPS)
        assert rate <= DELTA

    def test_lemma23_separation_on_path_data(self):
        """A sample far below sqrt(n) almost never catches a duplicate
        of the heavy value, so the estimate collapses to ~n and misses
        the band on nearly every seed (birthday bound)."""
        values = _adversarial_stream()  # n = 4080, sqrt(n) ~ 64
        rate = self._failure_rate(values, s=40, eps=EPS)
        assert rate >= 0.9
