"""Fault-injection tests for the replicated cluster (ISSUE 7).

Four rings, every one anchored on the same invariant — the sketches
are linear and seed-deterministic, so no matter what dies, stalls, or
moves, a recovered fleet's answer must be **bit-identical** to a
monolithic :class:`WindowedSketchStore` fed the same stream:

1. **Worker death** — SIGKILL each replica of a 2x2 fleet in turn,
   mid-stream, for every mergeable kind: the next ingest detects the
   dead replica, respawns it through the supervisor, restores it from
   the healthy peer's snapshot, and the final answer is bit-identical.
2. **Stragglers** — a SIGSTOPped (or hook-stalled) replica must cost a
   hedged read one hedge delay, not a timeout.
3. **Mid-stream resharding** — ingest half at N shards, reshard to M
   under load, ingest the rest *including deletions that target
   old-epoch inserts*: epochs own time ranges, deletions carry the
   insert's timestamp, so the merged answer stays exact across the
   epoch boundary.
4. **At-most-once across replicas** — a partial-write retry against a
   replica set never double-applies on any replica: the ambiguous
   replica is quarantined and overwritten from a peer's absolute-state
   snapshot, and each replica's own store ends bit-identical to the
   monolith.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfigError,
    ClusterService,
    DropRequests,
    FaultInjector,
    LocalCluster,
    ShardMergeUnsupportedError,
    ShardRequestError,
    StallRequests,
    store_config,
)
from repro.cluster.client import _SendFailed
from repro.engine import dump_sketch, load_sketch, merge_sketches
from repro.store import SketchSpec, WindowedSketchStore

MERGEABLE_KINDS = {
    "tugofwar": {"s1": 16, "s2": 3, "seed": 7},
    "frequency": {},
}


def template(kind: str = "tugofwar") -> WindowedSketchStore:
    return WindowedSketchStore(
        SketchSpec(kind, MERGEABLE_KINDS[kind]), bucket_width=10
    )


def two_phase_stream(rng, n: int = 1200):
    """(phase-1 inserts, phase-2 inserts + deletions of phase 1).

    Phase 1 lands in buckets [0, 100); phase 2 adds inserts in
    [100, 200) plus deletions reversing a third of phase 1 *at the
    original timestamps* — the store's deletion contract, and the
    shape that crosses any mid-stream cutover.
    """
    ts1 = rng.integers(0, 100, size=n).astype(np.int64)
    vals1 = rng.integers(0, 300, size=n).astype(np.int64)
    ts2 = rng.integers(100, 200, size=n).astype(np.int64)
    vals2 = rng.integers(0, 300, size=n).astype(np.int64)
    drop = rng.choice(n, size=n // 3, replace=False)
    ts_rest = np.concatenate([ts2, ts1[drop]])
    vals_rest = np.concatenate([vals2, vals1[drop]])
    counts_rest = np.concatenate(
        [np.ones(n, dtype=np.int64), np.full(n // 3, -1, dtype=np.int64)]
    )
    return (ts1, vals1), (ts_rest, vals_rest, counts_rest)


def replica_dump(client, t0: int, t1: int) -> dict:
    """One replica's own full-window sketch, straight over the wire."""
    response = client.request({"op": "sketch", "from": t0, "until": t1})
    return dump_sketch(load_sketch(response["sketch"]))


# ----------------------------------------------------------------------
# 1. Worker death: kill every replica in turn, for every mergeable kind
# ----------------------------------------------------------------------
class TestKillRecovery:
    @pytest.mark.parametrize("kind", sorted(MERGEABLE_KINDS))
    @pytest.mark.parametrize(
        "shard,replica", [(0, 0), (0, 1), (1, 0), (1, 1)]
    )
    def test_kill_each_replica_mid_stream(self, kind, shard, replica, rng):
        mono = template(kind)
        (ts1, vals1), (ts2, vals2, cnts2) = two_phase_stream(rng)
        with LocalCluster(
            store_config(template(kind)), 2, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest(ts1, vals1)
                mono.ingest(ts1, vals1)
                dead_pid = FaultInjector(cluster).kill(shard, replica)
                # The next ingest detects the dead replica, respawns it
                # through the supervisor, and restores it from the
                # surviving peer's snapshot — all inside one call.
                service.ingest(ts2, vals2, counts=cnts2)
                mono.ingest(ts2, vals2, counts=cnts2)
                assert service.failed_replicas == []
                assert cluster.worker(shard, replica).process.pid != dead_pid
                assert dump_sketch(service.query(0, 200)) == dump_sketch(
                    mono.query(0, 200)
                )
                # The respawned replica itself (not just the merged
                # answer) carries the exact shard state: killing its
                # peer now still leaves a bit-identical fleet.
                FaultInjector(cluster).kill(shard, 1 - replica)
                tail_ts = np.array([195], dtype=np.int64)
                tail_vals = np.array([7], dtype=np.int64)
                service.ingest(tail_ts, tail_vals)
                mono.ingest(tail_ts, tail_vals)
                assert service.failed_replicas == []
                assert dump_sketch(service.query(0, 200)) == dump_sketch(
                    mono.query(0, 200)
                )
            finally:
                service.close()

    def test_all_replicas_of_a_shard_dead_is_typed(self, rng):
        with LocalCluster(
            store_config(template()), 2, replication=1
        ) as cluster:
            # No supervisor: a dead singleton shard cannot be rebuilt.
            service = ClusterService(cluster.replica_clients())
            try:
                service.ingest([5], [1])
                cluster.worker(0, 0).process.kill()
                cluster.worker(1, 0).process.kill()
                cluster.worker(0, 0).process.wait()
                cluster.worker(1, 0).process.wait()
                from repro.cluster import (
                    ShardProtocolError,
                    ShardUnreachableError,
                )

                # A dead worker surfaces as unreachable on a fresh
                # dial, or as an ambiguous-delivery protocol error on
                # the stale connection it held — both typed.
                with pytest.raises(
                    (ShardProtocolError, ShardUnreachableError)
                ):
                    service.ingest([15], [2])
            finally:
                service.close()


# ----------------------------------------------------------------------
# 2. Stragglers: hedged reads answer around a stalled replica
# ----------------------------------------------------------------------
class TestStragglers:
    def test_sigstop_replica_hedged_query_completes(self, rng):
        mono = template()
        ts = rng.integers(0, 200, size=1500).astype(np.int64)
        vals = rng.integers(0, 300, size=1500).astype(np.int64)
        with LocalCluster(
            store_config(template()), 2, replication=2, client_timeout=30.0
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            injector = FaultInjector(cluster)
            try:
                service.ingest(ts, vals)
                mono.ingest(ts, vals)
                injector.stall(0, 0)  # the primary of shard 0
                start = time.monotonic()
                sketch = service.query(0, 200)
                elapsed = time.monotonic() - start
                # The stalled primary would hold the query until the
                # 30 s client timeout; the hedge answers from the
                # healthy peer after ~hedge_delay instead.
                assert elapsed < 2.5
                assert dump_sketch(sketch) == dump_sketch(mono.query(0, 200))
            finally:
                injector.resume_all()
                service.close()

    def test_hook_stalled_replica_hedged_query_completes(self, rng):
        # Signal-free twin of the SIGSTOP test: the straggler is a
        # deterministic client-hook sleep on the primary.
        mono = template()
        ts = rng.integers(0, 200, size=1000).astype(np.int64)
        vals = rng.integers(0, 300, size=1000).astype(np.int64)
        with LocalCluster(
            store_config(template()), 2, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest(ts, vals)
                mono.ingest(ts, vals)
                primary = cluster.replica_sets()[0][0].client
                with StallRequests(primary, seconds=5.0, ops={"sketch"}):
                    start = time.monotonic()
                    sketch = service.query(0, 200)
                    elapsed = time.monotonic() - start
                assert elapsed < 2.5
                assert dump_sketch(sketch) == dump_sketch(mono.query(0, 200))
            finally:
                service.close()

    def test_dropped_request_fails_over_and_repairs(self, rng):
        # An injected unreachable on the primary: the read fails over
        # to the peer, the primary is quarantined, and the next repair
        # pass restores it — no respawn needed, the process is fine.
        mono = template()
        ts = rng.integers(0, 200, size=1000).astype(np.int64)
        vals = rng.integers(0, 300, size=1000).astype(np.int64)
        with LocalCluster(
            store_config(template()), 2, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest(ts, vals)
                mono.ingest(ts, vals)
                primary = cluster.replica_sets()[0][0].client
                with DropRequests(primary, times=1, ops={"sketch"}):
                    sketch = service.query(0, 200)
                assert dump_sketch(sketch) == dump_sketch(mono.query(0, 200))
                assert service.failed_replicas == []
            finally:
                service.close()


# ----------------------------------------------------------------------
# 3. Mid-stream resharding: epochs own time ranges, deletions stay exact
# ----------------------------------------------------------------------
class TestReshard:
    @pytest.mark.parametrize("kind", sorted(MERGEABLE_KINDS))
    @pytest.mark.parametrize("to_shards", [1, 3, 4])
    def test_mid_stream_reshard_bit_identical(self, kind, to_shards, rng):
        mono = template(kind)
        (ts1, vals1), (ts2, vals2, cnts2) = two_phase_stream(rng)
        with LocalCluster(
            store_config(template(kind)), 2, replication=1
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest(ts1, vals1)
                mono.ingest(ts1, vals1)
                epoch = service.reshard(to_shards, cutover=100)
                assert epoch == 1
                assert service.num_epochs == 2
                assert service.num_shards == to_shards
                # The rest of the stream: new-epoch inserts plus
                # deletions that target old-epoch inserts at their
                # original timestamps — they must route back to the
                # old epoch's shards.
                service.ingest(ts2, vals2, counts=cnts2)
                mono.ingest(ts2, vals2, counts=cnts2)
                for window in [(0, 200), (50, 150), (0, 100), (100, 200)]:
                    assert dump_sketch(
                        service.query(*window)
                    ) == dump_sketch(mono.query(*window))
            finally:
                service.close()

    def test_snapshot_restore_round_trip_across_epochs(self, rng):
        mono = template()
        (ts1, vals1), (ts2, vals2, cnts2) = two_phase_stream(rng, n=600)
        with LocalCluster(
            store_config(template()), 2, replication=1
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest(ts1, vals1)
                mono.ingest(ts1, vals1)
                service.reshard(3, cutover=100)
                service.ingest(ts2, vals2, counts=cnts2)
                mono.ingest(ts2, vals2, counts=cnts2)
                snapshot = service.snapshot()
                assert len(snapshot["epochs"]) == 2
                assert snapshot["epochs"][1]["start"] == 100
                # Rebuilding every epoch's shard stores offline and
                # merging them reproduces the exact answer.
                stores = [
                    WindowedSketchStore.from_dict(payload)
                    for entry in snapshot["epochs"]
                    for payload in entry["shards"]
                ]
                merged = merge_sketches(
                    [store.query(0, 200) for store in stores]
                )
                assert dump_sketch(merged) == dump_sketch(mono.query(0, 200))
                # And the wire restore round-trips it back into a fleet.
                service.restore(snapshot)
                assert dump_sketch(service.query(0, 200)) == dump_sketch(
                    mono.query(0, 200)
                )
            finally:
                service.close()

    def test_reshard_without_supervisor_refused(self):
        with LocalCluster(store_config(template()), 1) as cluster:
            service = ClusterService(cluster.replica_clients())
            try:
                with pytest.raises(ClusterConfigError, match="supervisor"):
                    service.reshard(2)
            finally:
                service.close()

    def test_reshard_cutovers_must_advance(self, rng):
        with LocalCluster(
            store_config(template()), 1, replication=1
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest([5], [1])
                service.reshard(2, cutover=100)
                with pytest.raises(ClusterConfigError, match="ordered"):
                    service.reshard(2, cutover=50)
            finally:
                service.close()

    def test_new_epoch_deletion_without_insert_is_typed(self):
        # A deletion timestamped into the empty new epoch (instead of
        # at its insert's timestamp) must surface the store's typed
        # deletion-contract error, not silently corrupt a shard.
        with LocalCluster(
            store_config(template()), 1, replication=1
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest([5], [9])
                service.reshard(2, cutover=100)
                with pytest.raises(
                    ShardRequestError, match="deletions must carry"
                ):
                    service.ingest(
                        [150], [9], counts=np.array([-1], dtype=np.int64)
                    )
            finally:
                service.close()

    def test_sampler_kind_cannot_form_a_replica_set(self):
        spec = SketchSpec("samplecount", {"s1": 8, "s2": 2, "seed": 1})
        store = WindowedSketchStore(
            spec, bucket_width=10, retention_policy="evict"
        )
        with LocalCluster(store_config(store), 1, replication=2) as cluster:
            with pytest.raises(ShardMergeUnsupportedError, match="samplecount"):
                ClusterService(
                    cluster.replica_clients(), supervisor=cluster
                )


# ----------------------------------------------------------------------
# 4. At-most-once across a replica set: retries never double-apply
# ----------------------------------------------------------------------
class TestAtMostOnceReplication:
    def test_partial_write_retry_never_double_applies(self, monkeypatch, rng):
        # White-box, real sockets: one replica's send dies mid-frame on
        # a stale connection — the provably-ambiguous case the client
        # refuses to retry.  The front end must quarantine exactly that
        # replica and overwrite it from its peer's absolute-state
        # snapshot; the acked peer is never re-sent the batch, so
        # nothing can double-count anywhere.
        monkeypatch.setattr("repro.cluster.client._sleep", lambda _t: None)
        mono = template()
        ts = rng.integers(0, 200, size=800).astype(np.int64)
        vals = rng.integers(0, 300, size=800).astype(np.int64)
        with LocalCluster(
            store_config(template()), 1, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                victim = cluster.replica_sets()[0][1].client
                original = victim._send_counted

                def die_mid_frame(data):
                    victim._send_counted = original
                    raise _SendFailed(10)  # bytes escaped: ambiguous

                victim._send_counted = die_mid_frame
                service.ingest(ts, vals)
                mono.ingest(ts, vals)
                assert service.failed_replicas == []
                expected = dump_sketch(mono.query(0, 200))
                assert dump_sketch(service.query(0, 200)) == expected
                # Strongest form: each replica's own store — read
                # directly over the wire, no merging — is exact.
                for worker in cluster.replica_sets()[0]:
                    assert replica_dump(worker.client, 0, 200) == expected
            finally:
                service.close()

    def test_dropped_ingest_repairs_without_double_apply(self, rng):
        # The injected-unreachable twin: the drop fires before any
        # bytes move, the batch lands on the healthy peer only, and
        # repair clones the peer's post-batch state onto the dropped
        # replica.  Both replicas must end exact — a resend to the
        # acked peer would show up as a doubled sketch here.
        mono = template()
        ts = rng.integers(0, 200, size=800).astype(np.int64)
        vals = rng.integers(0, 300, size=800).astype(np.int64)
        with LocalCluster(
            store_config(template()), 1, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                victim = cluster.replica_sets()[0][0].client
                with DropRequests(victim, times=1, ops={"ingest"}):
                    service.ingest(ts, vals)
                mono.ingest(ts, vals)
                assert service.failed_replicas == []
                expected = dump_sketch(mono.query(0, 200))
                assert dump_sketch(service.query(0, 200)) == expected
                for worker in cluster.replica_sets()[0]:
                    assert replica_dump(worker.client, 0, 200) == expected
            finally:
                service.close()

    def test_quorum_read_repairs_a_diverged_replica(self, rng):
        # Feed one replica a doctored extra batch behind the front
        # end's back; a quorum read must out-vote it and read-repair
        # it back to the majority state.
        mono = template()
        ts = rng.integers(0, 200, size=600).astype(np.int64)
        vals = rng.integers(0, 300, size=600).astype(np.int64)
        with LocalCluster(
            store_config(template()), 1, replication=3
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(),
                supervisor=cluster,
                read_mode="quorum",
            )
            try:
                service.ingest(ts, vals)
                mono.ingest(ts, vals)
                rogue = cluster.replica_sets()[0][2].client
                rogue.request({
                    "op": "ingest", "timestamps": [5], "values": [11],
                })
                expected = dump_sketch(mono.query(0, 200))
                assert dump_sketch(service.query(0, 200)) == expected
                assert service.failed_replicas == []
                # Read repair rewrote the rogue replica in place.
                assert replica_dump(rogue, 0, 200) == expected
            finally:
                service.close()


# ----------------------------------------------------------------------
# Replica-aware aggregation and validation (the old single-replica
# assumptions in info/stats/homogeneity)
# ----------------------------------------------------------------------
class TestReplicaAwareAggregation:
    def test_homogeneity_validated_per_replica(self):
        template_a = template()
        spec_b = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 8})
        template_b = WindowedSketchStore(spec_b, bucket_width=10)
        with LocalCluster(store_config(template_a), 1) as a, \
                LocalCluster(store_config(template_b), 1) as b:
            # Shard 0's *second replica* disagrees — validating only
            # each set's primary would never look at it.
            sets = [[a.replica_clients()[0][0], b.replica_clients()[0][0]]]
            with pytest.raises(
                ClusterConfigError, match=r"replica 1.*disagrees on spec"
            ):
                ClusterService(sets)

    def test_info_counts_logical_memory_once(self, rng):
        ts = rng.integers(0, 200, size=500).astype(np.int64)
        vals = rng.integers(0, 300, size=500).astype(np.int64)
        with LocalCluster(
            store_config(template()), 2, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest(ts, vals)
                info = service.info()
                assert info["shards"] == 2
                assert info["replication"] == [2, 2]
                assert info["epochs"] == 1
                # Logical footprint: one replica per set, not the sum
                # over all four workers.
                per_replica = sum(
                    group[0].client.request({"op": "info"})["memory_words"]
                    for group in [
                        cluster.replica_sets()[0],
                        cluster.replica_sets()[1],
                    ]
                )
                assert info["memory_words"] == per_replica
                assert service.replication == [2, 2]
            finally:
                service.close()

    def test_stats_reports_every_replica(self, rng):
        with LocalCluster(
            store_config(template()), 1, replication=2
        ) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            try:
                service.ingest([5, 15], [1, 2])
                service.estimate(0, 20)
                stats = service.stats()
                assert stats["shards"] == 1
                assert stats["replication"] == [2]
                assert stats["replicas"] == 2
                assert len(stats["per_replica"]) == 1
                assert len(stats["per_replica"][0]) == 2
                assert stats["misses"] >= 1
            finally:
                service.close()
