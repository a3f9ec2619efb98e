"""Unit tests for k-TW and sample join signatures (Section 4).

A k-TW signature is a :class:`TugOfWarSketch` with ``s1 = k`` and
``s2 = 1``; its join estimate is ``inner_product_mean``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import join_size, self_join_size
from repro.core.join import SampleJoinSignature, sample_join_estimate
from repro.core.tugofwar import TugOfWarSketch
from repro.experiments.joins import (
    join_accuracy_sweep,
    ktw_error_vs_bound,
    make_relation_pair,
)
from repro.relational import SignatureCatalog


@pytest.fixture
def relation_pair(rng):
    left = rng.integers(0, 50, size=3000).astype(np.int64)
    right = rng.integers(0, 50, size=2500).astype(np.int64)
    return left, right


def ktw(values, k: int, seed: int, s2: int = 1) -> TugOfWarSketch:
    """A loaded k-TW signature: k words as ``s2`` groups of ``k // s2``."""
    sig = TugOfWarSketch(s1=k // s2, s2=s2, seed=seed)
    sig.update_from_stream(values)
    return sig


class TestKtwSignature:
    def test_join_estimate_close(self, relation_pair):
        left, right = relation_pair
        exact = join_size(left, right)
        est = ktw(left, 512, seed=3).inner_product_mean(ktw(right, 512, seed=3))
        assert est == pytest.approx(exact, rel=0.3)

    def test_self_join_estimate_close(self, relation_pair):
        left, _ = relation_pair
        exact = self_join_size(left)
        assert ktw(left, 512, seed=4).estimate_mean() == pytest.approx(exact, rel=0.3)

    def test_unbiasedness_over_families(self, rng):
        left = rng.integers(0, 12, size=400).astype(np.int64)
        right = rng.integers(0, 12, size=400).astype(np.int64)
        exact = join_size(left, right)
        estimates = [
            ktw(left, 1, seed).inner_product_mean(ktw(right, 1, seed))
            for seed in range(300)
        ]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.25)

    def test_variance_within_lemma44_bound(self, rng):
        # Var[S(F)S(G)] <= 2 SJ(F) SJ(G): empirical variance of 1-TW
        # estimators over many families must respect it (with margin).
        left = rng.integers(0, 20, size=500).astype(np.int64)
        right = rng.integers(0, 20, size=500).astype(np.int64)
        bound = 2.0 * self_join_size(left) * self_join_size(right)
        estimates = [
            ktw(left, 1, seed).inner_product_mean(ktw(right, 1, seed))
            for seed in range(400)
        ]
        assert np.var(estimates) <= 1.5 * bound

    def test_cross_family_rejected(self, relation_pair):
        # A family is named by its seed: two signatures built apart
        # from equal (k, seed) share sign functions and combine, and
        # signatures of different seeds are refused.
        left, right = relation_pair
        a, b = ktw(left, 8, seed=0), ktw(right, 8, seed=0)
        assert a.inner_product_mean(b) == float(
            (a.counters.astype(np.float64) * b.counters).mean()
        )
        with pytest.raises(ValueError, match="different hash families"):
            a.inner_product_mean(ktw(right, 8, seed=1))

    def test_median_of_means_variant(self, relation_pair):
        left, right = relation_pair
        exact = join_size(left, right)
        a = ktw(left, 500, seed=6, s2=5)
        b = ktw(right, 500, seed=6, s2=5)
        assert a.inner_product(b) == pytest.approx(exact, rel=0.35)

    def test_empirical_rms_within_bound(self, rng):
        # Lemma 4.4: RMS error of k-TW <= sqrt(2 SJ SJ / k).
        left = rng.integers(0, 30, size=1000).astype(np.int64)
        right = rng.integers(0, 30, size=1000).astype(np.int64)
        exact = join_size(left, right)
        k = 64
        bound = np.sqrt(2.0 * self_join_size(left) * self_join_size(right) / k)
        errors = [
            ktw(left, k, seed).inner_product_mean(ktw(right, k, seed)) - exact
            for seed in range(60)
        ]
        rms = np.sqrt(np.mean(np.square(errors)))
        assert rms <= 1.3 * bound


class TestPinnedKtwValues:
    """Exact k-TW values, computed before the join signature became a
    ``TugOfWarSketch``: the experiments and the catalog must keep
    answering them bit for bit."""

    @pytest.fixture(scope="class")
    def pair(self):
        return make_relation_pair("zipf1.0", n=20_000, overlap=0.5, seed=3)

    def test_join_accuracy_sweep(self, pair):
        sweep = join_accuracy_sweep(*pair, budgets=(16, 256), seed=5, repeats=3)
        assert (
            sweep["exact_join"], sweep["self_join_left"], sweep["self_join_right"]
        ) == (3527572, 7052036, 3475442)
        assert [
            (p.scheme, p.memory_words, p.estimate, p.relative_error)
            for p in sweep["points"]
        ] == [
            ("k-TW", 16, 3361796.0, 0.046994363261756246),
            ("sample", 16, 1562500.0, 0.5570607772144693),
            ("k-TW", 256, 3800587.890625, 0.012707740267243304),
            ("sample", 256, 3369140.625, 0.04491230086869949),
        ]

    def test_ktw_error_vs_bound(self, pair):
        assert ktw_error_vs_bound(*pair, k=64, trials=8, seed=2) == {
            "exact_join": 3527572,
            "rms_error": 607569.6221873232,
            "bound": 875159.6657880492,
            "ratio": 0.6942386011816815,
            "k": 64,
            "trials": 8,
        }

    def test_signature_catalog(self, pair):
        left, right = pair
        catalog = SignatureCatalog(k=128, seed=11)
        catalog.register("F", left)
        catalog.register("G", right)
        assert (
            catalog.join_estimate("F", "G"),
            catalog.self_join_estimate("F"),
            catalog.self_join_estimate("G"),
            catalog.join_error_bound("F", "G"),
        ) == (4388739.4375, 7364364.375, 4444446.40625, 715132.4481868757)
        catalog.insert("F", 7)
        catalog.delete("G", int(right[0]))
        catalog.insert_many("G", [1, 2, 2])
        catalog.update_from_frequencies("F", [3, 4], [2, -1])
        assert (
            catalog.join_estimate("F", "G"),
            catalog.self_join_estimate("F"),
            catalog.join_error_bound("F", "G"),
            catalog.memory_words,
        ) == (4393054.21875, 7365341.15625, 715552.5211907489, 256)


class TestSampleJoinSignature:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            SampleJoinSignature(0.0)
        with pytest.raises(ValueError):
            SampleJoinSignature(1.5)

    def test_p_one_is_exact(self, relation_pair):
        left, right = relation_pair
        a = SampleJoinSignature(1.0, seed=0)
        b = SampleJoinSignature(1.0, seed=1)
        a.update_from_stream(left)
        b.update_from_stream(right)
        assert a.join_estimate(b) == pytest.approx(float(join_size(left, right)))

    def test_p_one_self_join_exact(self, relation_pair):
        left, _ = relation_pair
        sig = SampleJoinSignature(1.0, seed=0)
        sig.update_from_stream(left)
        assert sig.self_join_estimate() == pytest.approx(float(self_join_size(left)))

    def test_expected_memory(self):
        sig = SampleJoinSignature(0.1, seed=0)
        sig.update_from_stream(np.arange(10_000))
        assert sig.expected_memory_words == pytest.approx(1000.0)
        assert 700 <= sig.memory_words <= 1300

    def test_join_estimate_roughly_unbiased(self, rng):
        left = rng.integers(0, 15, size=2000).astype(np.int64)
        right = rng.integers(0, 15, size=2000).astype(np.int64)
        exact = join_size(left, right)
        estimates = []
        for seed in range(60):
            a = SampleJoinSignature(0.2, seed=seed)
            b = SampleJoinSignature(0.2, seed=seed + 1000)
            a.update_from_stream(left)
            b.update_from_stream(right)
            estimates.append(a.join_estimate(b))
        assert np.mean(estimates) == pytest.approx(exact, rel=0.2)

    def test_insert_and_delete_counts(self):
        sig = SampleJoinSignature(1.0, seed=0)
        sig.insert(5)
        sig.insert(5)
        assert sig.memory_words == 2
        sig.delete(5)
        assert sig.n == 1
        assert sig.memory_words == 1

    def test_delete_from_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SampleJoinSignature(0.5, seed=0).delete(1)

    def test_join_estimate_rejects_other_types(self):
        with pytest.raises(TypeError):
            SampleJoinSignature(0.5, seed=0).join_estimate(42)


class TestSampleJoinEstimateOffline:
    def test_p_one_exact(self, relation_pair):
        left, right = relation_pair
        est = sample_join_estimate(left, right, 1.0, rng=0)
        assert est == pytest.approx(float(join_size(left, right)))

    def test_roughly_unbiased(self, rng):
        left = rng.integers(0, 10, size=1500).astype(np.int64)
        right = rng.integers(0, 10, size=1500).astype(np.int64)
        exact = join_size(left, right)
        ests = [
            sample_join_estimate(left, right, 0.25, rng=seed) for seed in range(60)
        ]
        assert np.mean(ests) == pytest.approx(exact, rel=0.2)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sample_join_estimate([1], [1], 0.0)

    def test_empty_sample_gives_zero(self):
        assert sample_join_estimate([], [1, 2], 0.5, rng=0) == 0.0
