"""Unit tests for the estimator-combination machinery."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    group_shape_for,
    mean_estimate,
    median_estimate,
    median_of_means,
    split_parameters,
    theoretical_confidence,
    theoretical_relative_error,
)


class TestMedianOfMeans:
    def test_flat_input(self):
        # groups: (1,3) mean 2; (10,10) mean 10; (2,4) mean 3 -> median 3
        out = median_of_means([1, 3, 10, 10, 2, 4], s1=2, s2=3)
        assert out == pytest.approx(3.0)

    def test_2d_input(self):
        arr = np.array([[1.0, 3.0], [10.0, 10.0], [2.0, 4.0]])
        assert median_of_means(arr) == pytest.approx(3.0)

    def test_single_group_is_mean(self):
        vals = [3.0, 5.0, 7.0]
        assert median_of_means(vals, s1=3, s2=1) == pytest.approx(np.mean(vals))

    def test_single_member_groups_is_median(self):
        vals = [3.0, 100.0, 7.0]
        assert median_of_means(vals, s1=1, s2=3) == pytest.approx(np.median(vals))

    def test_flat_requires_shape(self):
        with pytest.raises(ValueError, match="requires"):
            median_of_means([1.0, 2.0])

    def test_flat_wrong_size(self):
        with pytest.raises(ValueError, match="expected s1"):
            median_of_means([1.0, 2.0, 3.0], s1=2, s2=2)

    def test_2d_shape_mismatch(self):
        arr = np.zeros((2, 3))
        with pytest.raises(ValueError, match="groups"):
            median_of_means(arr, s2=4)
        with pytest.raises(ValueError, match="members"):
            median_of_means(arr, s1=4)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            median_of_means(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="zero"):
            median_of_means(np.zeros((0, 0)))

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError, match=">= 1"):
            median_of_means([1.0], s1=0, s2=1)

    def test_robust_to_outlier_group(self):
        # One wild group must not move the median.
        groups = np.array([[1.0] * 4, [1.0] * 4, [1e9] * 4])
        assert median_of_means(groups) == pytest.approx(1.0)

    @settings(max_examples=400, deadline=None)
    @given(
        s2=st.sampled_from([1, 2, 5, 6]),
        s1=st.integers(1, 4),
        values=st.lists(
            st.one_of(
                st.sampled_from([
                    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                    5e-324, -5e-324, 1e308, -1e308,
                ]),
                st.floats(),
                st.integers(-9, 9).map(float),
            ),
            min_size=24, max_size=24,
        ),
    )
    # A group mean of -0.0 (the sum underflows when halved), alone and
    # as the middle of five; and a NaN from inf - inf beside a NaN.
    @example(s2=1, s1=2, values=[-5e-324, 0.0] + [0.0] * 22)
    @example(s2=5, s1=2, values=[-1.0] * 4 + [-5e-324, 0.0] + [1.0] * 18)
    @example(s2=2, s1=2, values=[-5e-324, 0.0] * 12)
    @example(s2=2, s1=2, values=[math.inf, -math.inf, math.nan] + [1.0] * 21)
    def test_same_bits_as_numpy_median(self, s2, s1, values):
        """The sorted-middle answer is np.median's float, bit for bit,
        signed zeros, infinities and NaNs included."""
        arr = np.array(values[: s1 * s2], dtype=np.float64).reshape(s2, s1)
        with np.errstate(all="ignore"):
            want = float(np.median(arr.mean(axis=1)))
            got = median_of_means(arr)
        assert struct.pack("<d", got) == struct.pack("<d", want)


class TestSimpleCombiners:
    def test_mean(self):
        assert mean_estimate([2.0, 4.0]) == pytest.approx(3.0)

    def test_median(self):
        assert median_estimate([1.0, 50.0, 3.0]) == pytest.approx(3.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean_estimate([])

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median_estimate([])


class TestSplitParameters:
    def test_tiny_budgets_all_accuracy(self):
        for s in (1, 2, 3, 4):
            assert split_parameters(s) == (s, 1)

    def test_larger_budgets_use_five_groups(self):
        s1, s2 = split_parameters(100)
        assert s2 == 5
        assert s1 == 20

    def test_product_within_budget(self):
        for s in (1, 5, 7, 64, 1000, 16384):
            s1, s2 = split_parameters(s)
            assert 1 <= s1 * s2 <= s

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            split_parameters(0)


class TestGroupShape:
    def test_passthrough(self):
        assert group_shape_for(3, 4) == (3, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="s1"):
            group_shape_for(0, 1)
        with pytest.raises(ValueError, match="s2"):
            group_shape_for(1, 0)


class TestTheoreticalBounds:
    def test_error_bound_formula(self):
        assert theoretical_relative_error(16) == pytest.approx(1.0)
        assert theoretical_relative_error(64) == pytest.approx(0.5)

    def test_confidence_formula(self):
        assert theoretical_confidence(2) == pytest.approx(0.5)
        assert theoretical_confidence(10) == pytest.approx(1 - 2**-5)

    def test_bounds_reject_bad_input(self):
        with pytest.raises(ValueError):
            theoretical_relative_error(0)
        with pytest.raises(ValueError):
            theoretical_confidence(0)
