"""The unified sketch engine: protocol, registry, ingestion, sharding.

This package is the system layer above the individual algorithms of
:mod:`repro.core`:

* :mod:`repro.engine.protocol` — the :class:`Sketch` contract every
  tracker implements (updates, queries, bulk loads, merge, dict
  round-trip);
* :mod:`repro.engine.registry` — kind-keyed serialization, so any
  sketch persists and reloads through one
  :func:`load_sketch` / :func:`dump_sketch` entry point;
* :mod:`repro.engine.ingest` — vectorised bulk ingestion: operation
  coalescing into signed histograms and the batched ``replay`` used by
  the streams, relational, and experiment layers;
* :mod:`repro.engine.partition` — stream partitioners (contiguous and
  stable value-hash), the one split policy shared by the in-process
  sharded build and the multi-process cluster router;
* :mod:`repro.engine.sharded` — partition / build-per-shard / merge
  construction for mergeable sketches.
"""

from .ingest import (
    coalesce_operations,
    ingest_operations,
    ingest_stream,
    replay_batched,
)
from .partition import (
    ContiguousPartitioner,
    HashPartitioner,
    Partitioner,
    key_digest,
    partitioner_from_dict,
    stable_hash64,
)
from .protocol import MergeUnsupportedError, Sketch
from .registry import (
    SketchPayloadError,
    UnknownSketchKindError,
    dump_sketch,
    dumps_sketch,
    load_sketch,
    loads_sketch,
    register_sketch,
    sketch_class,
    sketch_descriptions,
    sketch_kinds,
)
from .sharded import merge_sketches, sharded_build

__all__ = [
    "Sketch",
    "MergeUnsupportedError",
    "register_sketch",
    "sketch_kinds",
    "sketch_descriptions",
    "sketch_class",
    "dump_sketch",
    "load_sketch",
    "dumps_sketch",
    "loads_sketch",
    "UnknownSketchKindError",
    "SketchPayloadError",
    "coalesce_operations",
    "ingest_stream",
    "ingest_operations",
    "replay_batched",
    "merge_sketches",
    "sharded_build",
    "Partitioner",
    "ContiguousPartitioner",
    "HashPartitioner",
    "stable_hash64",
    "key_digest",
    "partitioner_from_dict",
]
