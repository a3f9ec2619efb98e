"""Windowed signature catalogs: join estimates restricted to time windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import join_size, self_join_size
from repro.core.tugofwar import TugOfWarSketch
from repro.relational import UnknownRelationError, WindowedSignatureCatalog
from repro.store import WindowAlignmentError


@pytest.fixture
def tuples(rng):
    """Two relations' timestamped tuple streams over [0, 100)."""
    n = 4000
    return {
        "A": (rng.integers(0, 100, size=n), rng.integers(0, 40, size=n)),
        "B": (rng.integers(0, 100, size=n), rng.integers(0, 40, size=n)),
    }


@pytest.fixture
def catalog(tuples):
    cat = WindowedSignatureCatalog(k=640, bucket_width=10, seed=11)
    for name, (ts, values) in tuples.items():
        cat.register(name)
        cat.ingest(name, ts, values)
    return cat


def window_values(tuples, name, t0, t1):
    ts, values = tuples[name]
    return values[(ts >= t0) & (ts < t1)]


class TestWindowedJoinEstimates:
    def test_windowed_join_close_to_exact(self, catalog, tuples):
        for t0, t1 in ((0, 100), (20, 60)):
            exact = join_size(
                window_values(tuples, "A", t0, t1),
                window_values(tuples, "B", t0, t1),
            )
            est = catalog.join_estimate("A", "B", t0, t1)
            assert est == pytest.approx(exact, rel=0.5)

    def test_windowed_self_join_close_to_exact(self, catalog, tuples):
        exact = self_join_size(window_values(tuples, "A", 30, 80))
        est = catalog.self_join_estimate("A", 30, 80)
        assert est == pytest.approx(exact, rel=0.5)

    def test_window_estimate_equals_per_window_catalog(self, catalog, tuples):
        """The maintenance guarantee: a window query reproduces exactly
        the estimate of a signature maintained over only that window."""
        mono_a = TugOfWarSketch(s1=128, s2=5, seed=11)
        mono_a.update_from_stream(window_values(tuples, "A", 20, 60))
        mono_b = TugOfWarSketch(s1=128, s2=5, seed=11)
        mono_b.update_from_stream(window_values(tuples, "B", 20, 60))
        assert catalog.join_estimate("A", "B", 20, 60) == mono_a.inner_product(
            mono_b
        )

    def test_join_error_bound_positive(self, catalog):
        assert catalog.join_error_bound("A", "B", 0, 100) > 0.0

    def test_misaligned_window_raises(self, catalog):
        with pytest.raises(WindowAlignmentError):
            catalog.join_estimate("A", "B", 5, 60)

    def test_outer_alignment(self, catalog, tuples):
        est = catalog.join_estimate("A", "B", 5, 55, align="outer")
        assert est == catalog.join_estimate("A", "B", 0, 60)

    def test_outer_alignment_uses_one_common_window(self, catalog):
        # After compacting only A, an outer window that splits A's big
        # span must expand *both* relations to the same effective
        # window — never compare A over [0,100) against B over [40,60).
        catalog.store("A").compact()  # A becomes one span [0, 100)
        assert catalog.window_bounds(
            40, 60, names=("A", "B"), align="outer"
        ) == (0, 100)
        est = catalog.join_estimate("A", "B", 40, 60, align="outer")
        assert est == catalog.join_estimate("A", "B", 0, 100)


class TestCatalogManagement:
    def test_register_contains_drop(self, catalog):
        assert "A" in catalog and len(catalog) == 2
        assert catalog.relations == ["A", "B"]
        catalog.drop("B")
        assert "B" not in catalog

    def test_duplicate_register_raises(self, catalog):
        with pytest.raises(KeyError, match="already"):
            catalog.register("A")

    def test_unknown_relation_clear_error(self, catalog):
        with pytest.raises(UnknownRelationError, match="not registered"):
            catalog.join_estimate("A", "nope", 0, 100)
        with pytest.raises(UnknownRelationError):
            catalog.ingest("nope", [1], [1])
        with pytest.raises(UnknownRelationError):
            catalog.drop("nope")

    def test_memory_and_k(self, catalog):
        assert catalog.k == 640
        # 2 relations x 10 buckets x 640 words: a bucket's 40 distinct
        # values are too many to fold into a 640-word sketch per query,
        # so every bucket holds its sketch.
        assert catalog.memory_words == 2 * 10 * 640

    def test_store_access_for_retention(self, catalog, tuples):
        full = catalog.join_estimate("A", "B", 0, 100)
        catalog.store("A").compact(before=50)
        catalog.store("B").compact(before=50)
        assert catalog.join_estimate("A", "B", 0, 100) == full

    def test_deletes_update_window_estimates(self, tuples):
        cat = WindowedSignatureCatalog(k=64, bucket_width=10, seed=2)
        cat.register("A")
        cat.ingest("A", [5, 5], [9, 9])
        with_dupes = cat.self_join_estimate("A", 0, 10)
        cat.ingest("A", [5], [9], counts=[-1])
        assert cat.self_join_estimate("A", 0, 10) < with_dupes

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="k >= s2"):
            WindowedSignatureCatalog(k=2, bucket_width=10, s2=5)

    # A bad store setting is refused at construction, not at the first
    # register, which may come long after.
    def test_zero_bucket_width_refused_at_construction(self):
        with pytest.raises(ValueError, match="bucket_width"):
            WindowedSignatureCatalog(k=16, bucket_width=0)

    def test_unknown_retention_policy_refused_at_construction(self):
        with pytest.raises(ValueError, match="retention_policy"):
            WindowedSignatureCatalog(
                k=16, bucket_width=10, retention_policy="bogus"
            )

    def test_zero_retention_buckets_refused_at_construction(self):
        with pytest.raises(ValueError, match="retention_buckets"):
            WindowedSignatureCatalog(k=16, bucket_width=10, retention_buckets=0)

    def test_bad_seed_refused_at_construction(self):
        with pytest.raises(
            ValueError, match=r"seed must be an integer in \[0, 2\^63\), got -1"
        ):
            WindowedSignatureCatalog(k=16, bucket_width=10, seed=-1)

    def test_k_reports_actual_allocation(self):
        # A k that is not a multiple of s2 drops the remainder words;
        # the property reports what was actually allocated.
        cat = WindowedSignatureCatalog(k=642, bucket_width=10, s2=5, seed=0)
        assert cat.k == 640
        cat.register("A")
        cat.ingest("A", [5], [1])
        assert cat.memory_words == 2  # one held (value, count) pair
        # 8 distinct values (8 x 640 counters to fold) make a bucket
        # hold its 640 allocated words from then on.
        cat.ingest("A", [15] * 8, range(8))
        assert cat.memory_words == 2 + 640

    def test_default_seed_still_merges_and_joins(self, tuples):
        # With no explicit seed the spec pins fresh entropy once, so
        # buckets and relations still share one hash family.
        cat = WindowedSignatureCatalog(k=64, bucket_width=10)
        for name, (ts, values) in tuples.items():
            cat.register(name)
            cat.ingest(name, ts, values)
        assert cat.join_estimate("A", "B", 0, 100) >= 0.0
        assert cat.self_join_estimate("A", 20, 60) >= 0.0
