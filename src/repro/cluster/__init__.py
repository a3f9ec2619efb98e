"""The scale-out cluster layer: hash-partitioned shard workers.

The paper's sketches are *linear*: a tug-of-war sketch of a
value-partitioned stream is the elementwise sum of per-partition
sketches built from the same seed.  Horizontal scale-out is therefore
mathematically free, and this package cashes it in:

* :mod:`repro.cluster.worker` — a shard worker: one empty windowed
  store from the cluster-wide spec behind the threaded
  :class:`~repro.service.server.SketchServiceServer`, which speaks
  line-JSON and binary frames through the same op table as
  single-node ``repro serve``;
* :mod:`repro.cluster.local` — :class:`LocalCluster`, spawning N
  shards x R replicas on ephemeral ports with clean shutdown, plus
  the supervisor surface (``respawn``, ``spawn_replica_set``) that
  recovery and resharding call back into;
* :mod:`repro.cluster.client` — :class:`ShardClient`, the persistent
  thread-safe wire conversation with one worker, with at-most-once
  retry classification and a ``fault_hook`` injection point;
* :mod:`repro.cluster.service` — :class:`ClusterService`, the
  cluster-aware facade satisfying the same estimate / sketch / ingest
  / info surface as :class:`~repro.service.service.SketchService`, so
  the wire dispatch table and the CLI serve a fleet unchanged; its
  gather step merges per-shard window sketches, bit-identical to the
  monolithic sketch for every mergeable kind (linearity over the
  value partition).  Adds replica-set fan-out, hedged / quorum reads
  with read repair, dead-replica recovery, and time-keyed epoch
  resharding;
* :mod:`repro.cluster.faults` — deterministic fault injection for
  tests and chaos drills (:class:`FaultInjector` signals,
  :class:`DropRequests` / :class:`StallRequests` client hooks);
* :mod:`repro.cluster.errors` — the typed failure surface
  (:class:`ShardMergeUnsupportedError`, :class:`ShardUnreachableError`,
  :class:`ShardProtocolError`, :class:`ClusterConfigError`).
"""

from .client import ShardClient, ShardRequestError
from .errors import (
    ClusterConfigError,
    ShardMergeUnsupportedError,
    ShardProtocolError,
    ShardUnreachableError,
)
from .faults import DropRequests, FaultInjector, StallRequests
from .local import LocalCluster, WorkerProcess
from .service import ClusterService
from .worker import build_store, run_worker, store_config

__all__ = [
    "ClusterService",
    "LocalCluster",
    "WorkerProcess",
    "ShardClient",
    "ShardRequestError",
    "ShardMergeUnsupportedError",
    "ShardUnreachableError",
    "ShardProtocolError",
    "ClusterConfigError",
    "FaultInjector",
    "DropRequests",
    "StallRequests",
    "store_config",
    "build_store",
    "run_worker",
]
