"""Unit tests for FrequencyVector and the exact SJ/join helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import (
    FrequencyVector,
    distinct_values,
    first_moment,
    join_size,
    self_join_size,
)


class TestFrequencyVector:
    def test_empty(self):
        fv = FrequencyVector()
        assert fv.total == 0
        assert fv.distinct == 0
        assert fv.self_join_size() == 0

    def test_insert_counts(self):
        fv = FrequencyVector()
        for v in [1, 2, 2, 3, 3, 3]:
            fv.insert(v)
        assert fv.total == 6
        assert fv.distinct == 3
        assert fv.frequency(3) == 3
        assert fv.frequency(99) == 0

    def test_self_join_size(self):
        fv = FrequencyVector({1: 1, 2: 2, 3: 3})
        assert fv.self_join_size() == 1 + 4 + 9

    def test_delete(self):
        fv = FrequencyVector({5: 2})
        fv.delete(5)
        assert fv.total == 1
        assert fv.frequency(5) == 1
        fv.delete(5)
        assert fv.total == 0
        assert 5 not in fv

    def test_delete_absent_raises(self):
        fv = FrequencyVector({1: 1})
        with pytest.raises(KeyError, match="not present"):
            fv.delete(2)

    def test_delete_below_zero_raises(self):
        fv = FrequencyVector({1: 1})
        fv.delete(1)
        with pytest.raises(KeyError):
            fv.delete(1)

    @pytest.mark.parametrize(
        "values, counts, message",
        [
            ([7, 8], [-1, -1], "value 8: only 0 present"),
            ([9, 7, 7], [-1, 1, -3], "delete 3 occurrences of value 7: only 2"),
            ([9, 7, 7], [1, -2, 1], "delete 2 occurrences of value 7: only 1"),
        ],
        ids=["absent-value", "running-total", "entry-order"],
    )
    def test_refused_batch_changes_nothing(self, values, counts, message):
        # Refused at the entry pairwise updates would refuse, with the
        # running totals of the entries before it, none of them applied.
        fv = FrequencyVector()
        fv.update_from_frequencies([7, 9], [1, 1])
        with pytest.raises(KeyError, match=message):
            fv.update_from_frequencies(values, counts)
        assert (fv.frequency(7), fv.frequency(9), fv.total, fv.distinct) == (
            1, 1, 2, 2
        )

    def test_from_stream(self, small_stream):
        fv = FrequencyVector.from_stream(small_stream)
        assert fv.total == small_stream.size
        assert fv.self_join_size() == self_join_size(small_stream)

    def test_from_empty_stream(self):
        fv = FrequencyVector.from_stream(np.array([], dtype=np.int64))
        assert fv.total == 0

    def test_join_size_symmetric(self, small_stream, uniform_stream):
        a = FrequencyVector.from_stream(small_stream)
        b = FrequencyVector.from_stream(uniform_stream % 60)
        assert a.join_size(b) == b.join_size(a)

    def test_join_with_self_is_sj(self, small_stream):
        fv = FrequencyVector.from_stream(small_stream)
        assert fv.join_size(fv) == fv.self_join_size()

    def test_join_size_manual(self):
        a = FrequencyVector({1: 2, 2: 3})
        b = FrequencyVector({2: 5, 3: 7})
        assert a.join_size(b) == 15

    def test_join_disjoint_is_zero(self):
        a = FrequencyVector({1: 4})
        b = FrequencyVector({2: 4})
        assert a.join_size(b) == 0

    def test_join_type_error(self):
        with pytest.raises(TypeError, match="FrequencyVector"):
            FrequencyVector().join_size([1, 2, 3])

    def test_skew_all_distinct(self):
        fv = FrequencyVector.from_stream(np.arange(100))
        assert fv.skew() == pytest.approx(1.0)

    def test_skew_single_value(self):
        fv = FrequencyVector({7: 50})
        assert fv.skew() == pytest.approx(50.0)

    def test_skew_empty(self):
        assert FrequencyVector().skew() == 0.0

    def test_max_frequency(self):
        fv = FrequencyVector({1: 3, 2: 9, 3: 1})
        assert fv.max_frequency() == 9
        assert FrequencyVector().max_frequency() == 0

    def test_as_arrays_sorted(self):
        fv = FrequencyVector({5: 2, 1: 3, 9: 1})
        values, counts = fv.as_arrays()
        assert values.tolist() == [1, 5, 9]
        assert counts.tolist() == [3, 2, 1]

    def test_as_arrays_empty(self):
        values, counts = FrequencyVector().as_arrays()
        assert values.size == 0 and counts.size == 0

    def test_copy_is_independent(self):
        fv = FrequencyVector({1: 1})
        cp = fv.copy()
        cp.insert(2)
        assert fv.distinct == 1
        assert cp.distinct == 2

    def test_equality(self):
        assert FrequencyVector({1: 2}) == FrequencyVector({1: 2})
        assert FrequencyVector({1: 2}) != FrequencyVector({1: 3})
        assert FrequencyVector() != object()

    def test_len_and_contains(self):
        fv = FrequencyVector({4: 3})
        assert len(fv) == 3
        assert 4 in fv
        assert 5 not in fv

    def test_constructor_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative"):
            FrequencyVector({1: -1})

    def test_constructor_skips_zero_counts(self):
        fv = FrequencyVector({1: 0, 2: 3})
        assert 1 not in fv
        assert fv.total == 3

    def test_insert_delete_roundtrip(self, rng):
        fv = FrequencyVector()
        values = rng.integers(0, 20, size=200).tolist()
        for v in values:
            fv.insert(int(v))
        for v in values:
            fv.delete(int(v))
        assert fv == FrequencyVector()

    def test_update_from_frequencies_no_int64_overflow(self):
        # Per-value and total sums beyond int64: the vectorised path
        # must not silently wrap (the class is the exactness ground
        # truth, so Python-int arithmetic is the contract).
        fv = FrequencyVector()
        big = (1 << 62) + 3
        fv.update_from_frequencies([5, 5, 5], [big, big, big])
        assert fv.frequency(5) == 3 * big
        assert fv.total == 3 * big
        # And the vectorised path still composes with prior state.
        fv.update_from_frequencies([5, 6], [1, 2])
        assert fv.frequency(5) == 3 * big + 1
        assert fv.total == 3 * big + 3

    def test_update_from_frequencies_matches_per_entry_near_bound(self):
        batch_vals = [1, 2, 1, 2]
        batch_cnts = [(1 << 62), 7, (1 << 62), 5]
        fast = FrequencyVector()
        fast.update_from_frequencies(batch_vals, batch_cnts)
        slow = FrequencyVector()
        for v, c in zip(batch_vals, batch_cnts):
            slow.update(v, c)
        assert fast == slow
        assert fast.total == slow.total == 2 * (1 << 62) + 12


class TestArrayHelpers:
    def test_self_join_size_manual(self):
        assert self_join_size(np.array([1, 1, 2])) == 5

    def test_self_join_size_empty(self):
        assert self_join_size(np.array([], dtype=np.int64)) == 0

    def test_self_join_size_all_distinct_is_n(self):
        assert self_join_size(np.arange(1000)) == 1000

    def test_self_join_size_single_value_is_n_squared(self):
        assert self_join_size(np.zeros(40, dtype=np.int64)) == 1600

    def test_join_size_manual(self):
        assert join_size([1, 1, 2], [1, 2, 2]) == 2 * 1 + 1 * 2

    def test_join_size_empty(self):
        assert join_size([], [1, 2]) == 0

    def test_join_size_matches_frequency_vector(self, rng):
        a = rng.integers(0, 50, size=500)
        b = rng.integers(0, 50, size=700)
        fa = FrequencyVector.from_stream(a)
        fb = FrequencyVector.from_stream(b)
        assert join_size(a, b) == fa.join_size(fb)

    def test_first_moment(self):
        assert first_moment([1, 2, 3]) == 3

    def test_distinct_values(self):
        assert distinct_values([1, 1, 2, 9]) == 3
        assert distinct_values([]) == 0

    def test_rejects_float_stream(self):
        with pytest.raises(TypeError, match="integer"):
            self_join_size(np.array([1.5, 2.5]))

    def test_rejects_2d_stream(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            self_join_size(np.zeros((2, 2), dtype=np.int64))

    def test_negative_values_allowed(self):
        assert self_join_size(np.array([-1, -1, 3])) == 5
