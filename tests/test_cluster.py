"""Tests for the scale-out cluster layer (repro.cluster).

Three rings, from algebra to processes:

1. **Socket-free algebra** — value-hash partition → per-shard build →
   merge is bit-identical to the monolithic sketch for every mergeable
   kind (hypothesis sweeps signed streams and shard counts 1–8), and
   the sampler kinds refuse to merge across shards; a cluster of
   in-process sampler shards is refused with a typed error.
2. **Facade semantics** — :class:`ClusterService` routing, window
   fixpoint resolution under divergent per-shard compaction, config
   validation, and the generalized dispatch table serving a cluster.
3. **Real processes** — a :class:`LocalCluster` of spawned workers:
   over-the-wire ingest and scatter–gather estimates bit-identical to
   a monolithic :class:`WindowedSketchStore`, deletion routing, clean
   shutdown.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfigError,
    ClusterService,
    LocalCluster,
    ShardClient,
    ShardMergeUnsupportedError,
    ShardRequestError,
    ShardUnreachableError,
    build_store,
    store_config,
)
from repro.engine import (
    HashPartitioner,
    MergeUnsupportedError,
    dump_sketch,
    merge_sketches,
    sharded_build,
)
from repro.service import SketchService, handle_request
from repro.store import SketchSpec, WindowedSketchStore

MERGEABLE_KINDS = {
    "tugofwar": {"s1": 16, "s2": 3, "seed": 7},
    "frequency": {},
    "fk_moments": {"k": 3, "s1": 16, "s2": 3, "seed": 7},
    "f0": {"s1": 16, "s2": 3, "seed": 7},
}
SAMPLER_KINDS = {
    "samplecount": {"s1": 8, "s2": 2, "seed": 7},
    "samplecount-fast": {"s1": 8, "s2": 2, "seed": 7},
    "moments": {"s1": 8, "s2": 2, "seed": 7},
    "naivesampling": {"s": 16, "seed": 7},
}


def signed_streams():
    """(values, counts) pairs whose per-value running balance stays >= 0.

    Validity must survive any value partition: because all occurrences
    of a value stay on one shard in stream order, per-value prefix
    validity is exactly the invariant that transfers.
    """

    @st.composite
    def build(draw):
        raw = draw(
            st.lists(
                st.tuples(
                    st.booleans(),
                    st.integers(min_value=0, max_value=12),
                    st.integers(min_value=1, max_value=3),
                ),
                max_size=80,
            )
        )
        live: dict[int, int] = {}
        values, counts = [], []
        for is_delete, v, c in raw:
            if is_delete and live.get(v, 0) >= c:
                live[v] -= c
                values.append(v)
                counts.append(-c)
            else:
                live[v] = live.get(v, 0) + c
                values.append(v)
                counts.append(c)
        return values, counts

    return build()


def build_per_shard(spec, values, counts, partitioner):
    """Per-shard signed builds over a value partition, then one merge.

    What a fleet's workers hold and its front end gathers, minus the
    wire.  ``sharded_build`` covers insert-only streams; signed ones
    are built here.
    """
    vals = np.asarray(values, dtype=np.int64)
    cnts = np.asarray(counts, dtype=np.int64)
    parts = []
    for idx in partitioner.split(vals):
        sketch = spec.build()
        sketch.update_from_frequencies(vals[idx], cnts[idx])
        parts.append(sketch)
    return merge_sketches(parts)


class InProcessShard:
    """A one-replica shard answering from a service in this process.

    Speaks the dispatch table like a worker does, so a
    :class:`ClusterService` can be pointed at it without spawning one.
    """

    address = "in-process"

    def __init__(self, spec: SketchSpec):
        self._service = SketchService(WindowedSketchStore(spec, bucket_width=10))

    def request(self, payload):
        return handle_request(self._service, json.dumps(payload))


def in_process_shards(spec: SketchSpec, num_shards: int) -> list[list]:
    return [[InProcessShard(spec)] for _ in range(num_shards)]


class TestPartitionedAlgebra:
    @pytest.mark.parametrize("kind,params", sorted(MERGEABLE_KINDS.items()))
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_insert_only_bit_identical(self, kind, params, num_shards, rng):
        spec = SketchSpec(kind, params)
        stream = rng.integers(0, 200, size=4000)
        mono = spec.build()
        mono.update_from_stream(stream)
        built = sharded_build(
            spec.build, stream, partitioner=HashPartitioner(num_shards, seed=5)
        )
        assert dump_sketch(built) == dump_sketch(mono)

    @pytest.mark.parametrize("kind,params", sorted(SAMPLER_KINDS.items()))
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sampler_kinds_do_not_merge_across_shards(
        self, kind, params, num_shards
    ):
        spec = SketchSpec(kind, params)
        assert not spec.is_mergeable  # what ClusterService refuses on
        with pytest.raises(MergeUnsupportedError):
            sharded_build(
                spec.build, [1, 2, 3], partitioner=HashPartitioner(num_shards)
            )

    @pytest.mark.parametrize("kind,params", sorted(SAMPLER_KINDS.items()))
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_sampler_kinds_raise_typed_error(self, kind, params, num_shards):
        shards = in_process_shards(SketchSpec(kind, params), num_shards)
        with pytest.raises(ShardMergeUnsupportedError, match="scatter"):
            ClusterService(shards)

    def test_typed_error_is_a_merge_unsupported_error(self):
        assert issubclass(ShardMergeUnsupportedError, MergeUnsupportedError)

    def test_value_partition_routes_deletes_with_their_inserts(self):
        spec = SketchSpec("frequency", {})
        merged = build_per_shard(
            spec, [5, 9, 5, 9, 5], [2, 3, -1, -3, -1], HashPartitioner(4, seed=1)
        )
        assert merged.estimate() == 0.0  # everything retracted exactly

    @given(stream=signed_streams(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_signed_streams_bit_identical_any_shard_count(self, stream, k):
        values, counts = stream
        for kind, params in MERGEABLE_KINDS.items():
            spec = SketchSpec(kind, params)
            mono = spec.build()
            if values:
                mono.update_from_frequencies(values, counts)
            built = build_per_shard(
                spec, values, counts, HashPartitioner(k, seed=3)
            )
            assert dump_sketch(built) == dump_sketch(mono)

    @given(k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_sampler_kinds_typed_error_any_shard_count(self, k):
        for kind, params in SAMPLER_KINDS.items():
            with pytest.raises(ShardMergeUnsupportedError):
                ClusterService(in_process_shards(SketchSpec(kind, params), k))


def make_template(**kwargs) -> WindowedSketchStore:
    spec = SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 7})
    return WindowedSketchStore(spec, bucket_width=10, **kwargs)


@pytest.fixture(scope="module")
def two_shard_cluster():
    """One spawned 2-shard fleet shared by the process-level tests."""
    with LocalCluster(store_config(make_template()), num_shards=2) as cluster:
        yield cluster


@pytest.fixture()
def cluster_service(two_shard_cluster):
    service = ClusterService(two_shard_cluster.replica_clients())
    yield service
    # Reset worker state between tests: evict everything ever stored
    # (the horizon must lie on a bucket boundary).  Closing the shared
    # clients is safe — they re-dial lazily for the next test.
    service.evict(10**12)
    service.close()


class TestClusterServiceEndToEnd:
    def test_bit_identical_to_monolithic_store(self, cluster_service, rng):
        mono = make_template()
        for _ in range(3):  # several batches, out-of-order timestamps
            ts = rng.integers(0, 200, size=1500)
            vals = rng.integers(0, 300, size=1500)
            cluster_service.ingest(ts, vals)
            mono.ingest(ts, vals)
        for window in [(0, 200), (50, 100), (0, 10), (190, 200)]:
            assert cluster_service.estimate(*window) == mono.estimate(*window)
            assert np.array_equal(
                cluster_service.query(*window).counters,
                mono.query(*window).counters,
            )

    def test_deletions_route_to_the_right_shard(self, cluster_service, rng):
        mono = make_template()
        ts = rng.integers(0, 100, size=800)
        vals = rng.integers(0, 60, size=800)
        cluster_service.ingest(ts, vals)
        mono.ingest(ts, vals)
        # Retract half the batch: same timestamps, negative counts.
        half = slice(0, 400)
        cluster_service.ingest(ts[half], vals[half], counts=-np.ones(400, np.int64))
        mono.ingest(ts[half], vals[half], counts=-np.ones(400, np.int64))
        assert cluster_service.estimate(0, 100) == mono.estimate(0, 100)

    def test_window_queries_gather_through_gather_merge(
        self, cluster_service, monkeypatch
    ):
        # Tracers time the gather step by patching this module attribute.
        from repro.cluster import service as cluster_module

        gathered = []

        def counting(sketches):
            gathered.append(len(sketches))
            return merge_sketches(sketches)

        cluster_service.ingest([1, 12], [3, 4])
        expected = cluster_service.estimate(0, 20)
        monkeypatch.setattr(cluster_module, "gather_merge", counting)
        assert cluster_service.estimate(0, 20) == expected
        assert gathered == [2]  # one sketch per shard

    def test_estimate_window_reports_resolved_bounds(self, cluster_service):
        cluster_service.ingest([5, 25], [1, 2])
        result = cluster_service.estimate_window(5, 25, align="outer")
        assert (result.t0, result.t1) == (0, 30)
        assert result.estimate == cluster_service.estimate(0, 30)

    def test_info_surface(self, cluster_service):
        cluster_service.ingest([1, 15], [3, 4])
        assert cluster_service.bucket_width == 10
        assert cluster_service.origin == 0
        assert cluster_service.spec.kind == "tugofwar"
        assert cluster_service.coverage == (0, 20)
        assert cluster_service.spans == [(0, 20)]
        assert cluster_service.memory_words > 0
        assert cluster_service.num_shards == 2

    def test_stats_aggregates_shards(self, cluster_service):
        cluster_service.ingest([1], [5])
        cluster_service.estimate(0, 10)
        stats = cluster_service.stats()
        assert stats["shards"] == 2
        assert stats["misses"] >= 1

    def test_alignment_errors_surface_as_value_errors(self, cluster_service):
        cluster_service.ingest([5], [1])
        with pytest.raises(ShardRequestError, match="aligned"):
            cluster_service.estimate(3, 10)

    def test_dispatch_table_serves_a_cluster(self, cluster_service, rng):
        ts = rng.integers(0, 50, size=300)
        vals = rng.integers(0, 40, size=300)
        ingest = handle_request(
            cluster_service,
            json.dumps({
                "op": "ingest",
                "timestamps": ts.tolist(),
                "values": vals.tolist(),
            }),
        )
        assert ingest["ok"] and ingest["ingested"] == 300
        mono = make_template()
        mono.ingest(ts, vals)
        estimate = handle_request(
            cluster_service, json.dumps({"op": "estimate", "from": 0, "until": 50})
        )
        assert estimate["ok"] and estimate["estimate"] == mono.estimate(0, 50)
        info = handle_request(cluster_service, json.dumps({"op": "info"}))
        assert info["ok"] and info["kind"] == "tugofwar"
        stats = handle_request(cluster_service, json.dumps({"op": "stats"}))
        assert stats["ok"] and stats["cache"]["shards"] == 2

    def test_dispatch_table_refuses_non_integer_columns(self, cluster_service):
        for request, refusal in [
            (
                {"timestamps": [1.7], "values": [2.9], "counts": [1.5]},
                "timestamps must be integer-typed, got float64",
            ),
            (
                {"timestamps": [1], "values": ["5"]},
                "values must be integer-typed, got <U1",
            ),
        ]:
            response = handle_request(
                cluster_service, json.dumps({"op": "ingest", **request})
            )
            assert response == {"ok": False, "error": refusal}
        assert cluster_service.spans == []

    def test_snapshot_carries_partition_map_and_restores(self, cluster_service, rng):
        ts = rng.integers(0, 100, size=500)
        vals = rng.integers(0, 80, size=500)
        cluster_service.ingest(ts, vals)
        snapshot = cluster_service.snapshot()
        assert set(snapshot) == {"kind", "epochs", "replication"}
        assert snapshot["kind"] == "cluster-snapshot"
        epoch = snapshot["epochs"][-1]
        assert epoch["partitioner"]["policy"] == "hash"
        assert epoch["partitioner"]["num_shards"] == 2
        restored = [
            WindowedSketchStore.from_dict(payload)
            for payload in epoch["shards"]
        ]
        merged = merge_sketches([s.query(0, 100) for s in restored])
        assert merged.estimate() == cluster_service.estimate(0, 100)

    def test_restore_refuses_a_snapshot_without_epochs(self, cluster_service):
        epoch = cluster_service.snapshot()["epochs"][-1]
        flat = {
            "kind": "cluster-snapshot",
            "partitioner": epoch["partitioner"],
            "shards": epoch["shards"],
        }
        with pytest.raises(ClusterConfigError, match="'epochs'"):
            cluster_service.restore(flat)

    def test_compact_and_outer_fixpoint_across_divergent_shards(
        self, cluster_service
    ):
        # Find values that hash to each shard under the service's own
        # partition seed, then craft divergent compaction: shard A
        # holds buckets {0, 1} (compacts to one [0, 20) span), shard B
        # holds bucket 0 only.  An outer query of [0, 10) must converge
        # on the hull [0, 20) and stay bit-identical to a monolithic
        # store of the same events.
        partitioner = cluster_service._partitioner
        assignment = partitioner.assign(np.arange(100, dtype=np.int64))
        value_a = int(np.flatnonzero(assignment == 0)[0])
        value_b = int(np.flatnonzero(assignment == 1)[0])
        ts = np.array([5, 15, 5], dtype=np.int64)
        vals = np.array([value_a, value_a, value_b], dtype=np.int64)
        cluster_service.ingest(ts, vals)
        assert cluster_service.compact() >= 1
        mono = make_template()
        mono.ingest(ts, vals)
        result = cluster_service.estimate_window(0, 10, align="outer")
        assert (result.t0, result.t1) == (0, 20)
        assert result.estimate == mono.estimate(0, 20)


class TestClusterValidation:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ClusterConfigError, match="at least one"):
            ClusterService([])

    def test_unreachable_shard_is_typed(self):
        client = ShardClient("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(ShardUnreachableError, match="unreachable"):
            ClusterService([[client]])

    def test_bare_clients_refused(self):
        client = ShardClient("127.0.0.1", 1)
        with pytest.raises(ClusterConfigError, match="replica set"):
            ClusterService([client])
        with pytest.raises(ClusterConfigError, match="at least one replica"):
            ClusterService([[]])

    def test_mismatched_workers_rejected(self):
        template_a = make_template()
        spec_b = SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 8})
        template_b = WindowedSketchStore(spec_b, bucket_width=10)
        with LocalCluster(store_config(template_a), 1) as a, \
                LocalCluster(store_config(template_b), 1) as b:
            with pytest.raises(ClusterConfigError, match="disagrees on spec"):
                ClusterService(
                    [a.replica_clients()[0], b.replica_clients()[0]]
                )

    def test_sampler_cluster_refused_with_typed_error(self):
        spec = SketchSpec("samplecount", {"s1": 8, "s2": 2, "seed": 1})
        store = WindowedSketchStore(
            spec, bucket_width=10, retention_policy="evict"
        )
        with LocalCluster(store_config(store), 1) as cluster:
            with pytest.raises(ShardMergeUnsupportedError, match="samplecount"):
                ClusterService(cluster.replica_clients())

    def test_partition_seed_defaults_to_spec_seed(self, two_shard_cluster):
        service = ClusterService(two_shard_cluster.replica_clients())
        try:
            assert service._partitioner.seed == 7  # the spec's seed
        finally:
            service.close()

    def test_worker_config_round_trip(self):
        template = make_template(retention_buckets=5, retention_policy="evict")
        rebuilt = build_store(store_config(template))
        assert rebuilt.spec == template.spec
        assert rebuilt.bucket_width == template.bucket_width
        assert rebuilt.retention_buckets == 5
        assert rebuilt.retention_policy == "evict"

    def test_corrupt_worker_config_rejected(self):
        with pytest.raises(ClusterConfigError, match="spec"):
            build_store({"bucket_width": 10})
        with pytest.raises(ClusterConfigError, match="invalid worker config"):
            build_store({"spec": {"kind": "tugofwar"}, "bucket_width": 0})


class TestLocalClusterLifecycle:
    def test_spawn_failure_reports_worker_stderr(self):
        with pytest.raises(ShardUnreachableError, match="stderr"):
            LocalCluster({"spec": {"kind": "no-such-kind"}}, 1, spawn_timeout=30)

    def test_shutdown_is_idempotent_and_kills_workers(self):
        cluster = LocalCluster(store_config(make_template()), 1)
        process = cluster.workers[0].process
        cluster.shutdown()
        assert process.poll() == 0  # clean exit via the wire shutdown op
        cluster.shutdown()  # second call is a no-op
        assert cluster.num_shards == 0
