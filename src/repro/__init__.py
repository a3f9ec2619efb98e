"""repro — Tracking Join and Self-Join Sizes in Limited Storage.

A full, production-quality reproduction of Alon, Gibbons, Matias &
Szegedy (PODS 1999 / JCSS 2002): the tug-of-war (AMS) and sample-count
self-join trackers with insertion *and deletion* support, the
naive-sampling baseline, k-TW and sampling join signatures, the
analytic bounds, the 13 Table 1 data-set generators, and an experiment
harness regenerating every figure and table of the paper's evaluation.

On top of the algorithms sits the **engine** (:mod:`repro.engine`): a
common :class:`Sketch` protocol, a kind-keyed serialization registry
(:func:`dump_sketch` / :func:`load_sketch`), vectorised bulk ingestion
(:func:`ingest_stream`, batched ``replay``), and a sharded
build-and-merge path (:func:`sharded_build`) for parallel loading.
The **store** layer (:mod:`repro.store`) adds continuous maintenance:
:class:`WindowedSketchStore` buckets timestamped updates and answers
estimates over arbitrary time windows by merging bucket sketches on
the fly, and :class:`WindowedSignatureCatalog` lifts that to windowed
join-size estimates between relations.  The **service** layer
(:mod:`repro.service`) serves those estimates under concurrent load:
:class:`SketchService` / :class:`CatalogService` add reader–writer
snapshot isolation, a merged-window LRU cache with per-dirty-bucket
invalidation, and request coalescing, and
:class:`~repro.service.server.SketchServiceServer` (the ``repro
serve`` command) serves it over TCP as line-delimited JSON or binary
frames, chosen per connection.  The **cluster** layer
(:mod:`repro.cluster`) scales that out across processes:
:class:`LocalCluster` spawns hash-partitioned shard workers and
:class:`ClusterService` (``repro serve --shards N``) routes ingest by
stable value-hash and answers windows by scatter–gather merge —
bit-identical to a monolithic store, because the sketches are linear.
The **planner** layer
(:mod:`repro.planner`) closes the paper's motivating loop: join-graph
plan enumeration (greedy and DPsize-style dynamic programming, the
``repro plan`` command) over pluggable cardinality policies — exact
statistics, tug-of-war sketch estimates, or sketch estimates inflated
by the Lemma 4.4 error bound for pessimistic planning.

Quick start::

    import numpy as np
    from repro import TugOfWarSketch, self_join_size

    stream = np.random.default_rng(0).zipf(1.6, size=100_000) % 10_000
    sketch = TugOfWarSketch(s1=256, s2=5, seed=42)
    sketch.update_from_stream(stream)          # or .insert(v) / .delete(v)
    print(sketch.estimate(), self_join_size(stream))

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
figure/table reproductions.
"""

from .cluster import (
    ClusterService,
    LocalCluster,
    ShardClient,
    ShardMergeUnsupportedError,
    ShardUnreachableError,
)
from .core import (
    MERSENNE_PRIME_31,
    DistinctCountSketch,
    FkMomentSketch,
    FrequencyMomentTracker,
    FrequencyVector,
    JoinSignatureFamily,
    MultiJoinFamily,
    MultiJoinSignature,
    NaiveSamplingEstimator,
    PolynomialHashFamily,
    SampleCountFastQuery,
    SampleCountSketch,
    SampleJoinSignature,
    SignHashFamily,
    TugOfWarJoinSignature,
    TugOfWarSketch,
    UnsupportedMomentError,
    bounds,
    distinct_values,
    exact_moment,
    fk_estimate_offline,
    fk_sample_size_bound,
    join_size,
    median_of_means,
    naive_sampling_estimate_offline,
    sample_count_estimate_offline,
    sample_join_estimate,
    self_join_size,
    split_parameters,
)
from .engine import (
    ContiguousPartitioner,
    HashPartitioner,
    MergeUnsupportedError,
    Partitioner,
    Sketch,
    SketchPayloadError,
    UnknownSketchKindError,
    coalesce_operations,
    dump_sketch,
    dumps_sketch,
    ingest_operations,
    ingest_stream,
    load_sketch,
    loads_sketch,
    merge_sketches,
    sharded_build,
    sketch_kinds,
)
from .planner import (
    BoundAwareCardinalities,
    CrossProductError,
    ExactCardinalities,
    JoinGraph,
    PlanNode,
    SketchCardinalities,
    enumerate_dp,
    enumerate_greedy,
    evaluate_plan,
    plan_join,
    render_plan,
)
from .relational import (
    Relation,
    SampleCatalog,
    SignatureCatalog,
    UnknownRelationError,
    WindowedSignatureCatalog,
)
from .service import CatalogService, KeyedSketchService, SketchService, SketchServiceServer
from .store import (
    KeyCardinalityError,
    KeyedSketchStore,
    SketchSpec,
    WindowAlignmentError,
    WindowedSketchStore,
)
from .streams import (
    Delete,
    Insert,
    OperationSequence,
    Query,
    ReservoirSample,
    canonical_sequence,
    replay,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core sketches and estimators
    "TugOfWarSketch",
    "SampleCountSketch",
    "SampleCountFastQuery",
    "NaiveSamplingEstimator",
    "sample_count_estimate_offline",
    "naive_sampling_estimate_offline",
    # exact computation
    "FrequencyVector",
    "self_join_size",
    "join_size",
    "distinct_values",
    # join signatures
    "JoinSignatureFamily",
    "TugOfWarJoinSignature",
    "SampleJoinSignature",
    "sample_join_estimate",
    "MultiJoinFamily",
    "MultiJoinSignature",
    # frequency moments
    "FrequencyMomentTracker",
    "FkMomentSketch",
    "DistinctCountSketch",
    "UnsupportedMomentError",
    "exact_moment",
    "fk_estimate_offline",
    "fk_sample_size_bound",
    # hashing
    "PolynomialHashFamily",
    "SignHashFamily",
    "MERSENNE_PRIME_31",
    # combination machinery
    "median_of_means",
    "split_parameters",
    # analytic bounds
    "bounds",
    # engine: protocol, serialization registry, ingestion, sharding
    "Sketch",
    "MergeUnsupportedError",
    "sketch_kinds",
    "dump_sketch",
    "load_sketch",
    "dumps_sketch",
    "loads_sketch",
    "UnknownSketchKindError",
    "SketchPayloadError",
    "coalesce_operations",
    "ingest_stream",
    "ingest_operations",
    "merge_sketches",
    "sharded_build",
    "Partitioner",
    "ContiguousPartitioner",
    "HashPartitioner",
    # cluster: hash-partitioned shard workers, scatter–gather serving
    "ClusterService",
    "LocalCluster",
    "ShardClient",
    "ShardMergeUnsupportedError",
    "ShardUnreachableError",
    # relational layer
    "Relation",
    "SignatureCatalog",
    "SampleCatalog",
    "WindowedSignatureCatalog",
    "UnknownRelationError",
    # planner: join graphs, enumerators, estimator policies
    "JoinGraph",
    "PlanNode",
    "render_plan",
    "evaluate_plan",
    "plan_join",
    "enumerate_greedy",
    "enumerate_dp",
    "ExactCardinalities",
    "SketchCardinalities",
    "BoundAwareCardinalities",
    "CrossProductError",
    # windowed store
    "SketchSpec",
    "WindowedSketchStore",
    "KeyedSketchStore",
    "KeyCardinalityError",
    "WindowAlignmentError",
    # estimation service
    "SketchService",
    "KeyedSketchService",
    "CatalogService",
    "SketchServiceServer",
    # streams
    "Insert",
    "Delete",
    "Query",
    "OperationSequence",
    "replay",
    "canonical_sequence",
    "ReservoirSample",
]
