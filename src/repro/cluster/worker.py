"""The shard worker: one estimation service in its own process.

A worker is deliberately boring — that is the point of the multi-layer
refactor.  It is nothing but an empty
:class:`~repro.store.windowed.WindowedSketchStore` (or
:class:`~repro.store.keyed.KeyedSketchStore` fleet) built from a
cluster-wide :class:`~repro.store.spec.SketchSpec` template, fronted
by the same :class:`~repro.service.service.SketchService` as
single-node ``repro serve`` and served by the threaded
:class:`~repro.service.server.SketchServiceServer` (line-JSON and
binary frames on one port).  The generalized dispatch table already
speaks every op the cluster needs (``ingest``, ``sketch``, ``info``,
``snapshot``, ``shutdown``), so the worker adds exactly one thing: a
machine-readable *ready line* on stdout announcing the ephemeral port
it bound, which the spawner (:class:`~repro.cluster.local.
LocalCluster`) parses.

Every worker of one cluster is built from the **same** spec (same
kind, same parameters, same seed) — the precondition for the
scatter–gather merge to be bit-identical to a monolithic build.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Mapping, TextIO

from ..service.server import DEFAULT_READ_TIMEOUT, SketchServiceServer
from ..service.service import SketchService
from ..store.keyed import KeyedSketchStore
from ..store.spec import SketchSpec
from ..store.windowed import WindowedSketchStore
from .errors import ClusterConfigError

__all__ = ["store_config", "build_store", "run_worker"]


def store_config(store: WindowedSketchStore | KeyedSketchStore) -> dict:
    """The cluster-wide store template of an existing store.

    Captures configuration only — spec, bucket geometry, retention —
    never data: a cluster shards *future* ingest by value-hash, and
    already-built sketches cannot be split back into values.  A keyed
    fleet's template carries ``keyed: True`` (plus its ``max_keys``
    bound), so every shard materialises a
    :class:`~repro.store.keyed.KeyedSketchStore` of its own.
    """
    config = {
        "spec": store.spec.to_dict(),
        "bucket_width": store.bucket_width,
        "origin": store.origin,
        "retention_buckets": store.retention_buckets,
        "retention_policy": store.retention_policy,
    }
    if isinstance(store, KeyedSketchStore):
        config["keyed"] = True
        config["max_keys"] = store.max_keys
    return config


def build_store(config: Mapping) -> WindowedSketchStore | KeyedSketchStore:
    """An empty store (or keyed fleet) from a :func:`store_config` template."""
    if not isinstance(config, Mapping) or "spec" not in config:
        raise ClusterConfigError(
            "worker config must be a mapping with a 'spec' entry"
        )
    try:
        if config.get("keyed"):
            return KeyedSketchStore(
                SketchSpec.from_dict(config["spec"]),
                bucket_width=int(config.get("bucket_width", 1)),
                origin=int(config.get("origin", 0)),
                retention_buckets=config.get("retention_buckets"),
                retention_policy=config.get("retention_policy", "compact"),
                max_keys=config.get("max_keys"),
            )
        return WindowedSketchStore(
            SketchSpec.from_dict(config["spec"]),
            bucket_width=int(config.get("bucket_width", 1)),
            origin=int(config.get("origin", 0)),
            retention_buckets=config.get("retention_buckets"),
            retention_policy=config.get("retention_policy", "compact"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterConfigError(f"invalid worker config: {exc}") from exc


def run_worker(
    config: Mapping,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_entries: int = 256,
    read_timeout: float | None = DEFAULT_READ_TIMEOUT,
    max_requests: int | None = None,
    max_frame_bytes: int | None = None,
    announce: TextIO | None = None,
) -> int:
    """Serve one shard until a ``shutdown`` op (or request budget) stops it.

    The server sniffs each connection, so a worker answers line-JSON
    and binary-frame clients alike; ``max_frame_bytes`` bounds a
    binary frame's payload (default 64 MiB).

    Prints exactly one JSON ready line to ``announce`` (default
    stdout) once the port is bound::

        {"ready": true, "host": "127.0.0.1", "port": 49152, "kind": "tugofwar"}

    Returns a process exit code (0 on a clean shutdown).
    """
    out = sys.stdout if announce is None else announce
    store = build_store(config)
    service = SketchService(store, cache_entries=cache_entries)
    server_kwargs = {}
    if max_frame_bytes is not None:
        server_kwargs["max_frame_bytes"] = int(max_frame_bytes)
    server = SketchServiceServer(
        service,
        address=(host, port),
        max_requests=max_requests,
        read_timeout=read_timeout,
        **server_kwargs,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        json.dumps(
            {
                "ready": True,
                "host": bound_host,
                "port": bound_port,
                "kind": store.spec.kind,
                "pid": os.getpid(),
            }
        ),
        file=out,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return 0
