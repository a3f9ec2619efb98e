"""Keyed fleets across spawned shard processes.

Cluster layer of ISSUE 8.  The routing invariant under test: events
route by hash of the (key, value) pair, so a keyed 2-shard cluster's
per-key answers are bit-identical to a monolithic
:class:`KeyedSketchStore` — deletions of ``(key, v)`` land on the
shard holding that pair's inserts, and one tenant's deletions never
perturb another's estimates.  Keyed/unkeyed mismatches are typed
errors at the front door, not wrong answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfigError,
    ClusterService,
    LocalCluster,
    ShardRequestError,
    store_config,
)
from repro.engine import dump_sketch
from repro.service.surface import handle_request_mapping
from repro.store import SketchSpec, WindowedSketchStore
from repro.store.keyed import KeyedSketchStore

MERGEABLE_KINDS = {
    "tugofwar": {"s1": 16, "s2": 3, "seed": 7},
    "frequency": {},
    "fk_moments": {"k": 3, "s1": 16, "s2": 3, "seed": 7},
    "f0": {"s1": 16, "s2": 3, "seed": 7},
}


def keyed_template(kind: str = "tugofwar") -> KeyedSketchStore:
    return KeyedSketchStore(
        SketchSpec(kind, MERGEABLE_KINDS[kind]), bucket_width=10
    )


def tenant_batches(seed: int, keys=("tenant-a", "tenant-b", "tenant-c")):
    """Per-key (timestamps, values) batches from one seeded stream."""
    rng = np.random.default_rng(seed)
    batches = {}
    for i, key in enumerate(keys):
        n = 300 + 50 * i
        batches[key] = (
            rng.integers(0, 120, size=n).astype(np.int64),
            (rng.zipf(1.4, size=n) % 80).astype(np.int64),
        )
    return batches


@pytest.fixture(scope="module")
def keyed_cluster():
    """One spawned 2-shard keyed fleet shared by this module's tests."""
    with LocalCluster(store_config(keyed_template()), num_shards=2) as cluster:
        yield cluster


@pytest.fixture()
def keyed_service(keyed_cluster):
    service = ClusterService(keyed_cluster.replica_clients())
    yield service
    # Reset worker state between tests (keys linger as empty stores,
    # so tests use their own key names and scoped assertions).
    service.evict(10**12)
    service.close()


class TestKeyedBitIdentity:
    @pytest.mark.parametrize("kind", sorted(MERGEABLE_KINDS))
    def test_two_shards_equal_monolithic_fleet(self, kind):
        """Every mergeable kind: sharded keyed answers == monolithic."""
        template = keyed_template(kind)
        mono = keyed_template(kind)
        batches = tenant_batches(seed=3)
        with LocalCluster(store_config(template), num_shards=2) as cluster:
            service = ClusterService(cluster.replica_clients())
            try:
                for key, (ts, vals) in batches.items():
                    service.ingest(ts, vals, key=key)
                    mono.ingest(key, ts, vals)
                for key in batches:
                    for t0, t1 in ((0, 120), (20, 70)):
                        got = service.query(t0, t1, key=key)
                        want = mono.query(key, t0, t1)
                        assert dump_sketch(got) == dump_sketch(want)
                        assert service.estimate(t0, t1, key=key) == mono.estimate(
                            key, t0, t1
                        )
            finally:
                service.close()

    def test_cross_key_deletion_isolation(self, keyed_service):
        """Deleting all of one tenant's events leaves the others'
        estimates bit-identical — across shard processes."""
        mono = keyed_template()
        batches = tenant_batches(seed=5, keys=("del-a", "del-b"))
        for key, (ts, vals) in batches.items():
            keyed_service.ingest(ts, vals, key=key)
            mono.ingest(key, ts, vals)
        before_b = keyed_service.query(0, 120, key="del-b")
        ts, vals = batches["del-a"]
        deletions = np.full(len(ts), -1, dtype=np.int64)
        keyed_service.ingest(ts, vals, counts=deletions, key="del-a")
        mono.ingest("del-a", ts, vals, counts=deletions)
        assert keyed_service.estimate(0, 120, key="del-a") == 0.0
        after_b = keyed_service.query(0, 120, key="del-b")
        assert dump_sketch(after_b) == dump_sketch(before_b)
        assert dump_sketch(after_b) == dump_sketch(mono.query("del-b", 0, 120))

    def test_unseen_key_answers_empty(self, keyed_service):
        keyed_service.ingest([1], [5], key="seen")
        assert keyed_service.estimate(0, 10, key="never-ingested") == 0.0


class TestKeyedRetention:
    @pytest.mark.parametrize("op", ["evict", "compact"])
    def test_one_tenant_retention_leaves_others_identical(self, keyed_service, op):
        """A keyed evict or compact reaches every shard but one key."""
        mine, other = f"{op}-mine", f"{op}-other"
        for key in (mine, other):
            keyed_service.ingest([1, 2, 15], [5, 6, 5], key=key)
        other_before = dump_sketch(keyed_service.query(0, 20, key=other))
        request = {"op": op, "key": mine}
        if op == "evict":
            request["before"] = 10
        reply = handle_request_mapping(keyed_service, request)
        assert reply["ok"], reply
        assert reply["evicted" if op == "evict" else "folded"] >= 1
        if op == "evict":
            assert keyed_service.estimate(0, 10, key=mine) == 0.0
        assert dump_sketch(keyed_service.query(0, 20, key=other)) == other_before
        assert keyed_service.estimate(0, 10, key=other) == 1.25


class TestKeyedObservability:
    def test_stats_per_key_and_per_shard(self, keyed_service):
        keyed_service.ingest([1, 2, 3], [5, 6, 7], key="obs-a")
        keyed_service.ingest([1], [5], key="obs-b")
        keyed_service.ingest([2], [5], key="obs-b", counts=[-1])
        stats = keyed_service.stats()
        assert stats["keyed"] is True
        assert stats["shards"] == 2
        assert stats["items_by_key"]["obs-a"] == 3
        assert stats["items_by_key"]["obs-b"] == 0
        assert stats["items"] == sum(stats["items_per_shard"])
        assert len(stats["items_per_shard"]) == 2
        only_a = keyed_service.stats(key="obs-a")
        assert only_a["items_by_key"] == {"obs-a": 3}

    def test_refused_batch_materialises_no_key(self, keyed_service):
        with pytest.raises(ShardRequestError, match="outside the field"):
            keyed_service.ingest([1], [-1], key="refused-tenant")
        assert "refused-tenant" not in keyed_service.stats()["items_by_key"]
        assert "refused-tenant" not in keyed_service.info()["keys"]

    def test_info_reports_keys(self, keyed_service):
        keyed_service.ingest([1], [5], key="info-a")
        info = keyed_service.info()
        assert info["keyed"] is True
        assert "info-a" in info["keys"]
        assert info["key_count"] == len(info["keys"])
        assert keyed_service.keyed is True


class TestKeyedUnkeyedMismatch:
    def test_keyed_cluster_refuses_keyless_data_ops(self, keyed_service):
        with pytest.raises(TypeError, match="keyed fleet.*key="):
            keyed_service.estimate(0, 10)
        with pytest.raises(TypeError, match="keyed fleet.*key="):
            keyed_service.ingest([1], [5])

    def test_plain_cluster_refuses_keyed_ops(self):
        plain = WindowedSketchStore(
            SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 7}),
            bucket_width=10,
        )
        with LocalCluster(store_config(plain), num_shards=1) as cluster:
            service = ClusterService(cluster.replica_clients())
            try:
                with pytest.raises(TypeError, match="unkeyed store"):
                    service.estimate(0, 10, key="a")
                with pytest.raises(TypeError, match="unkeyed store"):
                    service.ingest([1], [5], key="a")
                with pytest.raises(TypeError, match="unkeyed store"):
                    service.stats(key="a")
            finally:
                service.close()

    def test_plain_cluster_refuses_keyed_retention_and_snapshots(self):
        plain = WindowedSketchStore(
            SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 7}),
            bucket_width=10,
        )
        with LocalCluster(store_config(plain), num_shards=1) as cluster:
            service = ClusterService(cluster.replica_clients())
            try:
                service.ingest([1, 15], [5, 5])
                snapshot = service.snapshot()
                for request in (
                    {"op": "compact", "key": "a"},
                    {"op": "evict", "before": 10, "key": "a"},
                    {"op": "snapshot", "key": "a"},
                    {"op": "restore", "snapshot": snapshot, "key": "a"},
                ):
                    reply = handle_request_mapping(service, request)
                    assert reply["ok"] is False, request
                    assert "key" in reply["error"]
                assert service.snapshot() == snapshot
            finally:
                service.close()

    def test_mixed_keyed_and_plain_workers_rejected(self, keyed_cluster):
        plain = WindowedSketchStore(
            SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 7}),
            bucket_width=10,
        )
        with LocalCluster(store_config(plain), num_shards=1) as other:
            with pytest.raises(ClusterConfigError, match="keyed"):
                ClusterService(
                    [keyed_cluster.replica_clients()[0], other.replica_clients()[0]]
                )
