"""KeyedSketchStore: a lazy key -> windowed-store fleet over one template.

Tentpole store layer of ISSUE 8.  The bars: lazy materialisation,
structural cross-key isolation (deletions included), unseen keys
answering as empty streams, bounded key cardinality with a typed
error, per-key snapshot/restore, and whole-fleet serialisation that
round-trips bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SketchPayloadError
from repro.store import SketchSpec, WindowedSketchStore
from repro.store.keyed import KeyCardinalityError, KeyedSketchStore, validate_key

SPEC = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 7})


def make_fleet(**kwargs) -> KeyedSketchStore:
    return KeyedSketchStore(SPEC, bucket_width=10, **kwargs)


def zipf_batch(seed: int, n: int = 500) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    timestamps = rng.integers(0, 80, size=n).astype(np.int64)
    values = (rng.zipf(1.4, size=n) % 200).astype(np.int64)
    return timestamps, values


class TestKeyLifecycle:
    def test_keys_materialise_lazily(self):
        fleet = make_fleet()
        assert fleet.key_count == 0 and fleet.keys == []
        ts, vals = zipf_batch(1)
        fleet.ingest("tenant-a", ts, vals)
        assert fleet.keys == ["tenant-a"] and len(fleet) == 1

    def test_store_for_without_create_does_not_materialise(self):
        fleet = make_fleet()
        assert fleet.store_for("ghost") is None
        assert fleet.key_count == 0
        assert isinstance(fleet.store_for("ghost", create=True), WindowedSketchStore)
        assert fleet.keys == ["ghost"]

    def test_unseen_key_queries_as_empty_stream(self):
        fleet = make_fleet()
        ts, vals = zipf_batch(1)
        fleet.ingest("tenant-a", ts, vals)
        ghost = fleet.query("ghost", 0, 80)
        empty = SPEC.build()
        assert np.array_equal(ghost.counters, empty.counters)
        assert fleet.estimate("ghost", 0, 80) == 0.0
        # Querying an unseen key must not materialise it.
        assert fleet.keys == ["tenant-a"]

    def test_unseen_key_window_still_validated(self):
        fleet = make_fleet()
        with pytest.raises(ValueError):
            fleet.query("ghost", 30, 10)

    def test_drop_forgets_history(self):
        fleet = make_fleet()
        ts, vals = zipf_batch(1)
        fleet.ingest("tenant-a", ts, vals)
        assert fleet.drop("tenant-a") is True
        assert fleet.drop("tenant-a") is False
        assert fleet.estimate("tenant-a", 0, 80) == 0.0

    @pytest.mark.parametrize("bad", ["", 7, None, b"k"])
    def test_invalid_keys_rejected(self, bad):
        fleet = make_fleet()
        with pytest.raises(ValueError, match="key"):
            fleet.ingest(bad, [0], [1])
        with pytest.raises(ValueError, match="key"):
            validate_key(bad)

    def test_oversized_key_rejected(self):
        with pytest.raises(ValueError, match="UTF-8"):
            validate_key("k" * 70_000)


class TestKeyCardinality:
    def test_max_keys_enforced_with_typed_error(self):
        fleet = make_fleet(max_keys=2)
        fleet.ingest("a", [0], [1])
        fleet.ingest("b", [0], [1])
        with pytest.raises(KeyCardinalityError, match="max_keys=2"):
            fleet.ingest("c", [0], [1])
        # Nothing changed: the refused key was not materialised.
        assert fleet.keys == ["a", "b"]
        # Existing keys still accept ingest.
        fleet.ingest("a", [5], [2])

    def test_cardinality_error_is_a_value_error(self):
        assert issubclass(KeyCardinalityError, ValueError)

    def test_restore_counts_against_max_keys(self):
        fleet = make_fleet(max_keys=1)
        fleet.ingest("a", [0], [1])
        donor = make_fleet()
        donor.ingest("b", [0], [1])
        with pytest.raises(KeyCardinalityError):
            fleet.restore("b", donor.snapshot("b"))
        # Replacing an existing key is always allowed.
        fleet.restore("a", donor.snapshot("b"))

    def test_bad_max_keys_rejected(self):
        with pytest.raises(ValueError, match="max_keys"):
            make_fleet(max_keys=0)

    def test_bad_seed_refused_at_construction(self):
        spec = SketchSpec("tugofwar", {"s1": 4, "seed": -1})
        with pytest.raises(
            ValueError, match=r"seed must be an integer in \[0, 2\^63\), got -1"
        ):
            KeyedSketchStore(spec, bucket_width=10)

    def test_new_keys_build_no_sketch(self, monkeypatch):
        # The template is checked once, when the fleet is made: a new
        # key's store and its first small buckets build nothing.
        fleet = make_fleet()
        builds = []
        build = SketchSpec.build
        monkeypatch.setattr(
            SketchSpec, "build", lambda spec: builds.append(1) or build(spec)
        )
        for i in range(50):
            fleet.ingest(f"tenant-{i}", [i, i + 10], [i, i + 1])
        assert builds == [] and fleet.memory_words == 50 * 2 * 2

    def test_restore_holds_every_row_dense(self):
        # A snapshot writes each sparse row as the sketch it stands for:
        # the restored fleet answers and serialises the same, but holds
        # the full 48 words in each of its 2 x 5 rows.
        fleet = make_fleet()
        for i in range(5):
            fleet.ingest(f"tenant-{i}", [i, i + 10], [i, i + 1])
        restored = KeyedSketchStore.from_dict(fleet.to_dict())
        assert fleet.memory_words == 5 * 2 * 2
        assert restored.memory_words == 5 * 2 * SPEC.memory_words == 480
        assert restored.to_dict() == fleet.to_dict()
        for key in fleet.keys:
            got, want = restored.query(key, 0, 20), fleet.query(key, 0, 20)
            assert np.array_equal(got.counters, want.counters)


class TestIsolationAndGeometry:
    def test_per_key_matches_dedicated_store(self):
        """Each key's answers equal a standalone WindowedSketchStore
        fed only that key's events — bit for bit."""
        fleet = make_fleet()
        streams = {name: zipf_batch(seed) for seed, name in enumerate(["a", "b", "c"])}
        for name, (ts, vals) in streams.items():
            fleet.ingest(name, ts, vals)
        for name, (ts, vals) in streams.items():
            solo = WindowedSketchStore(SPEC, bucket_width=10)
            solo.ingest(ts, vals)
            for t0, t1 in ((0, 80), (10, 50)):
                got = fleet.query(name, t0, t1)
                want = solo.query(t0, t1)
                assert np.array_equal(got.counters, want.counters)

    def test_deletions_do_not_leak_across_keys(self):
        fleet = make_fleet()
        ts, vals = zipf_batch(3)
        fleet.ingest("a", ts, vals)
        fleet.ingest("b", ts, vals)
        before_b = fleet.estimate("b", 0, 80)
        # Delete all of key a's events; b must be untouched.
        fleet.ingest("a", ts, vals, counts=np.full(len(ts), -1, dtype=np.int64))
        assert fleet.estimate("a", 0, 80) == 0.0
        assert fleet.estimate("b", 0, 80) == before_b

    def test_fleet_shares_bucket_geometry(self):
        fleet = make_fleet()
        fleet.ingest("a", [3], [1])
        fleet.ingest("b", [907], [1])
        assert fleet.bucket_width == 10 and fleet.origin == 0
        for key in ("a", "b"):
            store = fleet.store_for(key)
            assert store.bucket_width == 10 and store.origin == 0
        assert fleet.coverage == (0, 910)
        assert fleet.span_count == 2

    def test_items_by_key_counts_logical_items(self):
        fleet = make_fleet()
        fleet.ingest("a", [0, 1, 2], [5, 6, 7])
        fleet.ingest("b", [0], [5])
        fleet.ingest("b", [1], [5], counts=[-1])
        assert fleet.items_by_key() == {"a": 3, "b": 0}

    def test_retention_applies_per_key(self):
        fleet = KeyedSketchStore(
            SPEC, bucket_width=10, retention_buckets=2, retention_policy="evict"
        )
        fleet.ingest("a", [5, 95], [1, 2])
        assert fleet.store_for("a").span_count == 1  # old bucket evicted
        fleet.ingest("b", [5], [1])
        assert fleet.store_for("b").span_count == 1  # b has its own horizon

    def test_compact_and_evict_fan_out(self):
        fleet = make_fleet()
        for key in ("a", "b"):
            fleet.ingest(key, [5, 25, 45], [1, 2, 3])
        assert fleet.compact(before=40) == 4  # 2 spans folded per key
        assert fleet.evict(40, key="a") == 1  # only a's compacted head
        assert fleet.store_for("a").span_count == 1
        assert fleet.store_for("b").span_count == 2


class TestSerialisation:
    def test_whole_fleet_round_trip_bit_identical(self):
        fleet = make_fleet(max_keys=8)
        for seed, name in enumerate(["a", "b"]):
            ts, vals = zipf_batch(seed)
            fleet.ingest(name, ts, vals)
        clone = KeyedSketchStore.from_dict(fleet.to_dict())
        assert clone.keys == fleet.keys
        assert clone.max_keys == fleet.max_keys
        for name in fleet.keys:
            got = clone.query(name, 0, 80)
            want = fleet.query(name, 0, 80)
            assert np.array_equal(got.counters, want.counters)
        # Continued ingest stays bit-identical (template round-tripped).
        ts, vals = zipf_batch(9)
        fleet.ingest("a", ts, vals)
        clone.ingest("a", ts, vals)
        assert np.array_equal(
            clone.query("a", 0, 80).counters, fleet.query("a", 0, 80).counters
        )

    def test_per_key_snapshot_restore(self):
        fleet = make_fleet()
        ts, vals = zipf_batch(4)
        fleet.ingest("a", ts, vals)
        payload = fleet.snapshot("a")
        other = make_fleet()
        other.restore("a", payload)
        assert np.array_equal(
            other.query("a", 0, 80).counters, fleet.query("a", 0, 80).counters
        )

    def test_snapshot_of_unseen_key_is_empty_store(self):
        payload = make_fleet().snapshot("ghost")
        restored = WindowedSketchStore.from_dict(payload)
        assert restored.span_count == 0

    def test_restore_refuses_mismatched_template(self):
        fleet = make_fleet()
        alien = WindowedSketchStore(SPEC, bucket_width=60)
        with pytest.raises(ValueError, match="template"):
            fleet.restore("a", alien.to_dict())
        other_spec = WindowedSketchStore(
            SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 8}), bucket_width=10
        )
        with pytest.raises(ValueError, match="template"):
            fleet.restore("a", other_spec.to_dict())

    def test_from_dict_rejects_corrupt_payloads(self):
        fleet = make_fleet()
        fleet.ingest("a", [0], [1])
        good = fleet.to_dict()
        assert good["kind"] == "keyed-store"
        with pytest.raises(SketchPayloadError, match="kind"):
            KeyedSketchStore.from_dict({**good, "kind": "windowed-store"})
        with pytest.raises(SketchPayloadError):
            KeyedSketchStore.from_dict([1, 2])
        with pytest.raises(SketchPayloadError, match="stores"):
            KeyedSketchStore.from_dict({**good, "stores": [1]})
        broken = dict(good)
        del broken["spec"]
        with pytest.raises(SketchPayloadError):
            KeyedSketchStore.from_dict(broken)

    def test_plain_store_payload_not_accepted(self):
        plain = WindowedSketchStore(SPEC, bucket_width=10)
        with pytest.raises(SketchPayloadError):
            KeyedSketchStore.from_dict(plain.to_dict())

    def test_keyed_fleet_of_fk_kinds(self):
        """The new kinds compose with the keyed store unchanged."""
        for spec in (
            SketchSpec("fk_moments", {"k": 3, "s1": 16, "s2": 3, "seed": 7}),
            SketchSpec("f0", {"s1": 16, "s2": 3, "seed": 7}),
        ):
            fleet = KeyedSketchStore(spec, bucket_width=10)
            ts, vals = zipf_batch(5)
            fleet.ingest("a", ts, vals)
            clone = KeyedSketchStore.from_dict(fleet.to_dict())
            assert np.array_equal(
                clone.query("a", 0, 80).counters,
                fleet.query("a", 0, 80).counters,
            )
