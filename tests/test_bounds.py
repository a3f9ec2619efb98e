"""Unit tests for the analytic facts and bounds (core.bounds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bounds
from repro.core.frequency import join_size, self_join_size


class TestFact11:
    def test_formula(self):
        assert bounds.join_size_upper_bound(10, 30) == 20.0

    def test_holds_on_random_relations(self, rng):
        for _ in range(20):
            a = rng.integers(0, 25, size=400)
            b = rng.integers(0, 25, size=400)
            assert join_size(a, b) <= bounds.join_size_upper_bound(
                self_join_size(a), self_join_size(b)
            )

    def test_tight_for_identical_relations(self, rng):
        a = rng.integers(0, 25, size=300)
        assert join_size(a, a) == bounds.join_size_upper_bound(
            self_join_size(a), self_join_size(a)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bounds.join_size_upper_bound(-1, 0)


class TestFact12:
    def test_roundtrip(self):
        n, a = 1000, 1.7
        sj = bounds.exponential_sj(n, a)
        assert bounds.exponential_parameter_from_sj(n, sj) == pytest.approx(a)

    def test_sj_formula(self):
        # SJ = n^2 (a-1)/(a+1); for a = 3: n^2 / 2.
        assert bounds.exponential_sj(10, 3.0) == pytest.approx(50.0)

    def test_sj_matches_sampled_distribution(self):
        # Draw a large exponential-frequency stream and compare SJ.
        n, a = 200_000, 2.0
        ranks = np.arange(1, 40)
        freqs = n * (a - 1.0) * a ** (-ranks.astype(np.float64))
        sj_analytic = float(np.sum(freqs**2))
        assert sj_analytic == pytest.approx(bounds.exponential_sj(n, a), rel=0.01)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bounds.exponential_sj(10, 1.0)
        with pytest.raises(ValueError):
            bounds.exponential_parameter_from_sj(10, 0.0)
        with pytest.raises(ValueError):
            bounds.exponential_parameter_from_sj(10, 101.0)
        with pytest.raises(ValueError):
            bounds.exponential_parameter_from_sj(0, 1.0)


class TestErrorBounds:
    def test_tug_of_war(self):
        assert bounds.tug_of_war_error_bound(16) == pytest.approx(1.0)

    def test_sample_count_scales_with_domain(self):
        # 4 t^{1/4} / sqrt(s1): at t = 10^4 and s1 = 1600 -> 1.0.
        assert bounds.sample_count_error_bound(1600, 10_000) == pytest.approx(1.0)

    def test_sample_count_worse_than_tug_of_war(self):
        for t in (10, 1000, 100_000):
            assert bounds.sample_count_error_bound(64, t) >= bounds.tug_of_war_error_bound(
                64
            )

    def test_success_probability(self):
        assert bounds.success_probability(2) == pytest.approx(0.5)

    def test_naive_sampling_required_size(self):
        assert bounds.naive_sampling_required_size(10_000) == pytest.approx(100.0)

    def test_reject_bad_inputs(self):
        with pytest.raises(ValueError):
            bounds.tug_of_war_error_bound(0)
        with pytest.raises(ValueError):
            bounds.sample_count_error_bound(1, 0)
        with pytest.raises(ValueError):
            bounds.success_probability(0)
        with pytest.raises(ValueError):
            bounds.naive_sampling_required_size(-1)


class TestSignatureBounds:
    def test_sample_signature_words(self):
        assert bounds.sample_signature_words(100, 1000, c=3.0) == pytest.approx(30.0)

    def test_lower_bound_bits(self):
        # (n - sqrt(B))^2 / B with n = 100, B = 400: (80)^2/400 = 16.
        assert bounds.signature_lower_bound_bits(100, 400) == pytest.approx(16.0)

    def test_upper_and_lower_bounds_consistent(self):
        # The sampling upper bound (in words) must be at least the
        # lower bound (in bits) divided by a word size, for all valid B.
        n = 10_000
        for b in (n, 10 * n, n * n // 4):
            upper_words = bounds.sample_signature_words(n, b)
            lower_bits = bounds.signature_lower_bound_bits(n, b)
            assert upper_words * 32 >= lower_bits

    def test_ktw_signature_words(self):
        assert bounds.ktw_signature_words(100, 200, 10.0, c=2.0) == pytest.approx(400.0)

    def test_sanity_bound_validation(self):
        with pytest.raises(ValueError, match="sanity bound"):
            bounds.sample_signature_words(100, 50)
        with pytest.raises(ValueError, match="sanity bound"):
            bounds.signature_lower_bound_bits(100, 100 * 100)

    def test_ktw_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bounds.ktw_signature_words(-1, 1, 1)
        with pytest.raises(ValueError):
            bounds.ktw_signature_words(1, 1, 0)


class TestSection44:
    def test_crossover_condition(self):
        n = 1000
        b = 10_000
        threshold = n * np.sqrt(b)
        assert bounds.ktw_beats_sampling(n, threshold * 0.9, b)
        assert not bounds.ktw_beats_sampling(n, threshold * 1.1, b)

    def test_break_even_factor_paper_values(self):
        # Section 4.4's quoted factors from Table 1 (n, SJ) pairs.
        cases = {
            "selfsimilar": (120_000, 3.41e9, 6700),
            "zipf1.5": (120_000, 2.59e9, 4000),
            "poisson": (120_000, 9.12e8, 500),
            "zipf1.0": (500_000, 4.30e9, 150),
            "brown2": (855_043, 5.84e9, 50),
        }
        for name, (n, sj, factor) in cases.items():
            got = bounds.ktw_break_even_sanity_bound(n, sj)
            assert got == pytest.approx(factor, rel=0.15), name

    def test_advantage_paper_values(self):
        # "the advantage is about 1000, 20, and 150" for uniform, mf3,
        # path at B = n.
        cases = {
            "uniform": (1_000_000, 3.15e7, 1000),
            "mf3": (19_968, 6.19e5, 20),
            "path": (40_800, 6.80e5, 150),
        }
        for name, (n, sj, adv) in cases.items():
            got = bounds.ktw_advantage(n, sj, float(n))
            assert got == pytest.approx(adv, rel=0.2), name

    def test_break_even_below_one_means_win_at_n(self):
        # uniform: factor << 1, so k-TW wins already at B = n.
        assert bounds.ktw_break_even_sanity_bound(1_000_000, 3.15e7) < 1.0

    def test_advantage_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bounds.ktw_advantage(100, 0.0, 100.0)
        with pytest.raises(ValueError):
            bounds.ktw_break_even_sanity_bound(0, 1.0)


class TestLemma44:
    def test_formula(self):
        assert bounds.ktw_join_error_bound(50.0, 200.0, 100) == pytest.approx(
            np.sqrt(2.0 * 50.0 * 200.0 / 100)
        )

    def test_zero_self_join_gives_zero_error(self):
        assert bounds.ktw_join_error_bound(0.0, 1000.0, 64) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-negative"):
            bounds.ktw_join_error_bound(-1.0, 1.0, 8)
        with pytest.raises(ValueError, match="k must be"):
            bounds.ktw_join_error_bound(1.0, 1.0, 0)

    def test_matches_signature_error_bound(self, rng):
        # The shared formula is the one a k-TW catalog reports, with
        # its k x 1 tug-of-war signatures' own self-join estimates.
        from repro.core.tugofwar import TugOfWarSketch
        from repro.relational import SignatureCatalog

        values = rng.integers(0, 20, size=500)
        sig = TugOfWarSketch(s1=128, s2=1, seed=0)
        sig.update_from_stream(values)
        catalog = SignatureCatalog(128, seed=0)
        catalog.register("F", values)
        sj = sig.estimate_mean()
        assert catalog.join_error_bound("F", "F") == bounds.ktw_join_error_bound(
            sj, sj, 128
        )
