#!/usr/bin/env python
"""Engine throughput benchmark: batched and sharded vs per-element.

Measures, on one synthetic Zipf stream:

1. **tug-of-war** — per-element ``insert`` loop vs the engine's
   vectorised ``update_from_stream`` bulk load, plus a 4-way sharded
   build (serial and threaded) that must merge to a **bit-identical**
   sketch;
2. **sample-count** — per-element loop vs the vectorised segment
   walker (states must match bit for bit);
3. **naive-sampling** — per-element reservoir offers vs skip-jump
   bulk offers (reservoirs must match bit for bit);
4. **windowed store** — timestamped ingestion throughput (serial and
   threaded) into a time-bucketed store plus merge-on-query latency
   over growing windows (the median of 21 individually timed calls),
   with every windowed estimate checked **bit-identical** against a
   monolithic sketch of the same window;
5. **estimation service** — a load generator against
   :class:`repro.service.SketchService`: cold (merge-on-query) vs
   cached merged-window estimate latency (p50/p99), then query
   latency under multi-threaded ingest+query churn, with the final
   concurrent state checked **bit-identical** against a serial replay;
6. **query planner** — DP enumeration scaling over chain/star/clique
   join graphs up to n = 12 relations (must stay sub-second, with
   bit-identical plans across repeated runs), and plan-quality regret
   of the sketch and bound-aware estimator policies against exact
   statistics on a seeded star workload (the DP must beat the greedy
   heuristic's true cost);
7. **cluster scale-out** — the first measured multi-process scaling
   curve: ingest throughput and scatter–gather query p50/p99 against
   real spawned shard-worker fleets at 1/2/4/8 shards, with every
   cluster estimate checked **bit-identical** against a monolithic
   store of the same stream.  The 2x 4-shard bar is enforced when the
   host has >= 4 usable cores (one per worker); on smaller hosts the
   curve is still measured and reported, but a wall-clock speedup bar
   is physically meaningless there, so it is skipped with a notice.
   The section additionally races the two wire protocols end to end:
   batched ingest through a threaded front end over a 2-shard fleet
   in line-JSON vs the length-prefixed binary protocol (zero-copy
   packed columns, pipelined), with both fleets' estimates checked
   **bit-identical** against an in-process service;
8. **fault tolerance** — replicated-fleet behaviour under injected
   faults: ingest overhead vs replication factor 1/2/3 (fan-out to a
   replica set, every factor bit-identical to a monolithic store),
   hedged vs unhedged query p99 with one deterministically stalled
   replica, and end-to-end repair latency (detect a killed replica,
   respawn it, restore it from the healthy peer's snapshot) with
   bit-identity preserved throughout;
9. **kernel backends** — the compiled-vs-numpy ingest race: every
   loadable :mod:`repro.kernels` backend (numpy / cffi) runs the same
   fused tug-of-war scatter, F_k digit scatter, and partitioner
   hash-route over one signed histogram, with every compiled state
   checked **bit-identical** against the numpy oracle.  The >= 5x
   compiled-over-numpy bar is enforced when the cffi backend loads,
   on every run but ``--smoke``; reported-only under ``--smoke`` and
   on hosts where it does not load;
10. **sampler kernels** (section 2b) — the counter-RNG sampler race:
   both sampler kinds ingest the same stream through the per-element
   insert loop and the batched path under every loadable kernel
   backend, with every batched state checked for **exact state
   identity** (full snapshot equality) against the numpy oracle and
   the per-element loop.  The >= 5x batched-numpy-over-loop bar is
   enforced for the fast-query sample-count variant and
   naive-sampling whenever the cffi backend loads; the plain
   sample-count tracker is reported unenforced.

The acceptance bar (ISSUE 1): batched ingestion at least 10x faster
than the per-element loop on a million-element stream, and the sharded
build bit-identical to the single-shot build.  ISSUE 2 adds the
windowed bar: merge-on-query over any bucket range must equal the
monolithic build bit for bit.  ISSUE 3 adds the serving bar: cached
merged-window queries at least 10x lower latency than cold
merge-on-query, and concurrent ingest+query ending bit-identical to a
serial replay.  ISSUE 4 adds the planner bar: sub-second deterministic
DP enumeration at n = 12 and a strict DP-beats-greedy win on the star
workload.  ISSUE 5 adds the cluster bar: 4-shard over-the-wire ingest
throughput at least 2x the single-process (1-shard) serving pipeline,
with bit-identical scatter–gather answers.  ISSUE 6 adds the wire bar:
binary-protocol batched ingest at least 10x the line-JSON path's
values/second through the same client → front end → shard topology,
bit-identical to an in-process service (reported but not enforced
under ``--smoke``).  ISSUE 7 adds the fault-tolerance bar: with one
replica stalled, hedged query p99 at least 5x better than unhedged
(enforced on full runs; reported under ``--smoke``), and recovery
from a killed replica bit-identical.  The sampler bar: batched
sampler ingest at least 5x the per-element insert loop for
samplecount-fast and naivesampling when the cffi backend loads, with
all ingest routes landing on identical snapshots.
The script exits non-zero if any check fails.

``--json PATH`` additionally writes a machine-readable summary
(per-section latency percentiles and throughput) so the performance
trajectory is tracked across PRs.

Run:  PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--json PATH]
      PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
          [--sections NAMES] --json PATH
      # --smoke: the service, keyed, planner, cluster, faults, ingest
      # and samplers sections, CI-sized; --sections runs a subset
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

from repro.core.naivesampling import NaiveSamplingEstimator
from repro.core.samplecount import SampleCountSketch
from repro.core.tugofwar import TugOfWarSketch
from repro.engine import sharded_build
from repro.planner import (
    BoundAwareCardinalities,
    ExactCardinalities,
    JoinGraph,
    SketchCardinalities,
    enumerate_dp,
    enumerate_greedy,
    evaluate_plan,
)
from repro.relational import Relation, SignatureCatalog
from repro.service import SketchService
from repro.store import SketchSpec, WindowedSketchStore


def timed(fn) -> tuple[float, object]:
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def throughput(n: int, seconds: float) -> str:
    """Human-readable elements/second."""
    if seconds <= 0:
        return "inf"
    return f"{n / seconds / 1e6:8.2f} M elem/s"


def service_section(args, n: int) -> tuple[list[str], dict]:
    """Section 5: the estimation-service load generator.

    Self-contained (builds its own stream and store) so ``--smoke``
    can run it alone.  Returns (failed acceptance checks, metrics).
    """
    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    stream = (rng.zipf(1.2, size=n) % (n // 10)).astype(np.int64)
    num_buckets = 64
    timestamps = (np.arange(n, dtype=np.int64) * num_buckets) // n
    spec = SketchSpec(
        "tugofwar", {"s1": args.s1, "s2": args.s2, "seed": args.seed}
    )
    store = WindowedSketchStore(spec, bucket_width=1)
    store.ingest(timestamps, stream)
    service = SketchService(store, cache_entries=512)

    # A mix of window sizes and offsets, every one span-aligned.
    windows = [
        (b0, b0 + width)
        for width in (8, 16, 32, 64)
        for b0 in range(0, num_buckets - width + 1, 8)
    ]

    def percentiles(samples: list[float]) -> tuple[float, float]:
        arr = np.asarray(samples) * 1e3  # -> milliseconds
        return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))

    cold: list[float] = []
    for window in windows:  # first touch: every query is a miss
        t, _ = timed(lambda w=window: service.estimate(*w))
        cold.append(t)
    cached: list[float] = []
    for _ in range(10):
        for window in windows:
            t, _ = timed(lambda w=window: service.estimate(*w))
            cached.append(t)
    cold_p50, cold_p99 = percentiles(cold)
    hot_p50, hot_p99 = percentiles(cached)
    ratio = cold_p50 / hot_p50 if hot_p50 else float("inf")

    print(f"estimation service ({len(windows)} windows over {num_buckets} buckets)")
    print(f"  cold merge-on-query   p50 {cold_p50:9.4f} ms   p99 {cold_p99:9.4f} ms")
    print(f"  cached merged-window  p50 {hot_p50:9.4f} ms   p99 {hot_p99:9.4f} ms"
          f"   ({ratio:.0f}x)")
    if ratio < 10.0:
        failures.append(
            f"service: cached speedup {ratio:.1f}x below the 10x bar"
        )
    for window in windows:
        if service.estimate(*window) != store.estimate(*window):
            failures.append(f"service: cached estimate for {window} != store")
            break

    # Multi-threaded churn: writers ingest late arrivals into already
    # queried buckets while readers hammer the window mix.
    n_writers, n_readers = 2, 4
    batches_per_writer, batch = (10, 2_000) if n <= 100_000 else (20, 10_000)
    writer_batches = []
    for w in range(n_writers):
        wrng = np.random.default_rng(args.seed + 100 + w)
        writer_batches.append([
            (
                wrng.integers(0, num_buckets, size=batch),
                (wrng.zipf(1.2, size=batch) % (n // 10)).astype(np.int64),
            )
            for _ in range(batches_per_writer)
        ])
    stop = threading.Event()
    latencies: list[list[float]] = [[] for _ in range(n_readers)]
    errors: list[BaseException] = []

    def writer(batches):
        try:
            for ts, vals in batches:
                service.ingest(ts, vals)
        except BaseException as exc:
            errors.append(exc)

    def reader(bucket: list[float]):
        try:
            i = 0
            while not stop.is_set():
                window = windows[i % len(windows)]
                t, _ = timed(lambda w=window: service.estimate(*w))
                bucket.append(t)
                i += 1
        except BaseException as exc:
            errors.append(exc)

    readers = [
        threading.Thread(target=reader, args=(latencies[i],))
        for i in range(n_readers)
    ]
    writers = [threading.Thread(target=writer, args=(b,)) for b in writer_batches]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    all_latencies = [t for bucket in latencies for t in bucket]
    churn_p50, churn_p99 = percentiles(all_latencies)
    print(f"  under ingest churn    p50 {churn_p50:9.4f} ms   p99 {churn_p99:9.4f} ms"
          f"   ({n_readers} readers, {n_writers} writers)")
    if errors:
        failures.append(f"service: concurrent run raised {errors[0]!r}")

    # Serial replay of the same history must match bit for bit.
    replay = WindowedSketchStore(spec, bucket_width=1)
    replay.ingest(timestamps, stream)
    for batches in writer_batches:
        for ts, vals in batches:
            replay.ingest(ts, vals)
    identical = all(
        service.estimate(*w) == replay.estimate(*w)
        and np.array_equal(service.query(*w).counters, replay.query(*w).counters)
        for w in windows
    )
    print(f"  post-churn estimates bit-identical to serial replay: {identical}")
    if not identical:
        failures.append("service: post-churn state != serial replay")
    stats = service.stats()
    print(f"  cache: hits={stats['hits']:,} misses={stats['misses']:,} "
          f"coalesced={stats['coalesced']:,} invalidated={stats['invalidated']:,}")
    metrics = {
        "cold_p50_ms": cold_p50,
        "cold_p99_ms": cold_p99,
        "cached_p50_ms": hot_p50,
        "cached_p99_ms": hot_p99,
        "cached_speedup": ratio,
        "churn_p50_ms": churn_p50,
        "churn_p99_ms": churn_p99,
    }
    return failures, metrics


def keyed_section(
    args, n: int, key_counts: tuple[int, ...] = (1, 100, 10_000)
) -> tuple[list[str], dict]:
    """Section 6: keyed-fleet ingest+query as key cardinality grows.

    One n-event Zipf stream is spread over 1, 100, and 10k keys and
    driven through a :class:`SketchService` over the fleet — concurrent
    writers each owning a key slice race readers querying sampled keys — so
    the numbers answer "what does multi-tenancy cost?" at both ends of
    the cardinality spectrum.  Acceptance: per-key answers are
    bit-identical to a monolithic per-key store fed only that key's
    events, and one key's ingest must not evict another key's cached
    window (the per-(key, window) invalidation contract).
    """
    from repro.store import KeyedSketchStore

    failures: list[str] = []
    metrics: dict = {}
    num_buckets = 16
    spec = SketchSpec(
        "tugofwar", {"s1": args.s1, "s2": args.s2, "seed": args.seed}
    )
    print(f"keyed fleet (n={n:,} events, {num_buckets} buckets)")

    for key_count in key_counts:
        rng = np.random.default_rng(args.seed)
        stream = (rng.zipf(1.2, size=n) % max(n // 10, 16)).astype(np.int64)
        timestamps = rng.integers(0, num_buckets, size=n).astype(np.int64)
        key_ids = rng.integers(0, key_count, size=n)
        keys = [f"tenant-{i}" for i in range(key_count)]

        service = SketchService(
            KeyedSketchStore(spec, bucket_width=1), cache_entries=512
        )

        # Writers each own a contiguous key slice: the fleet's write
        # lock is shared, so this measures contention, not parallelism.
        n_writers = min(4, key_count) if key_count > 1 else 1
        order = np.argsort(key_ids, kind="stable")
        slices: list[list[tuple[str, np.ndarray, np.ndarray]]] = [
            [] for _ in range(n_writers)
        ]
        bounds = np.searchsorted(key_ids[order], np.arange(key_count + 1))
        for i in range(key_count):
            sel = order[bounds[i]:bounds[i + 1]]
            if sel.size:
                slices[i % n_writers].append(
                    (keys[i], timestamps[sel], stream[sel])
                )

        errors: list[BaseException] = []

        def writer(batches):
            try:
                for key, ts, vals in batches:
                    service.ingest(ts, vals, key=key)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        sampled = keys[:: max(key_count // 32, 1)][:32]
        stop = threading.Event()
        read_latencies: list[float] = []

        def reader():
            try:
                i = 0
                while not stop.is_set():
                    key = sampled[i % len(sampled)]
                    t, _ = timed(
                        lambda k=key: service.estimate(0, num_buckets, key=k)
                    )
                    read_latencies.append(t)
                    i += 1
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(batches,))
            for batches in slices
            if batches
        ] + [threading.Thread(target=reader) for _ in range(2)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads[: -2]:
            t.join()
        ingest_s = time.perf_counter() - start
        stop.set()
        for t in threads[-2:]:
            t.join()
        if errors:
            failures.append(
                f"keyed: {key_count}-key run raised {errors[0]!r}"
            )

        # Steady-state query latency once every write has landed.
        hot: list[float] = []
        for _ in range(3):
            for key in sampled:
                t, _ = timed(
                    lambda k=key: service.estimate(0, num_buckets, key=k)
                )
                hot.append(t)
        hot_ms = float(np.percentile(np.asarray(hot) * 1e3, 50))
        churn_ms = (
            float(np.percentile(np.asarray(read_latencies) * 1e3, 50))
            if read_latencies
            else float("nan")
        )
        # Held words against the sparse floor: 2 words per distinct
        # (key, bucket, value) triple, what exact histograms would hold.
        memory_words = service.memory_words
        floor_words = 2 * np.unique(
            (key_ids * num_buckets + timestamps) * (int(stream.max()) + 1)
            + stream
        ).size
        print(
            f"  {key_count:>6,} keys  ingest {ingest_s:7.3f} s  "
            f"{throughput(n, ingest_s)}   query p50 {hot_ms:8.4f} ms  "
            f"(churn p50 {churn_ms:8.4f} ms)   words {memory_words:,} "
            f"(sparse floor {floor_words:,})"
        )
        metrics[f"keys_{key_count}"] = {
            "ingest_s": ingest_s,
            "ingest_meps": n / ingest_s / 1e6 if ingest_s else float("inf"),
            "query_p50_ms": hot_ms,
            "churn_p50_ms": churn_ms,
            "memory_words": memory_words,
            "sparse_floor_words": floor_words,
        }

        # Bit-identity: each sampled key vs a monolithic store fed only
        # that key's slice of the stream.
        for key in sampled[:8]:
            i = keys.index(key)
            sel = key_ids == i
            if not sel.any():
                continue  # a key the stream never touched
            mono = WindowedSketchStore(spec, bucket_width=1)
            mono.ingest(timestamps[sel], stream[sel])
            got = service.query(0, num_buckets, key=key)
            want = mono.query(0, num_buckets)
            if not np.array_equal(got.counters, want.counters):
                failures.append(
                    f"keyed: {key_count}-key fleet, {key} != monolithic"
                )
                break

        # Cache isolation: a hot window of key A must survive an
        # ingest into key B (and the reverse must invalidate).
        if key_count >= 2:
            a, b = keys[0], keys[1]
            service.estimate(0, num_buckets, key=a)  # warm A
            before = service.stats()["hits"]
            service.ingest([0], [1], key=b)
            service.estimate(0, num_buckets, key=a)
            if service.stats()["hits"] != before + 1:
                failures.append(
                    f"keyed: {key_count}-key fleet, B's ingest evicted "
                    "A's cached window"
                )
    return failures, metrics


def cluster_section(args, n: int) -> tuple[list[str], dict]:
    """Section 8: multi-process scale-out — the cluster scaling curve.

    Spawns a real :class:`repro.cluster.LocalCluster` worker fleet per
    shard count, drives it through :class:`repro.cluster.
    ClusterService` (value-hash routing, scatter–gather merge), and
    measures over-the-wire ingest throughput plus query latency.  Two
    client threads keep batches in flight so JSON encoding on the
    client overlaps decode+ingest on the workers — the same pipelining
    a real front end does.  Every configuration's estimates must be
    bit-identical to a monolithic store of the same stream, and the
    4-shard ingest throughput must be at least 2x the 1-shard
    (single-process) serving pipeline.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.cluster import ClusterService, LocalCluster, store_config

    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    stream = (rng.zipf(1.2, size=n) % (n // 10)).astype(np.int64)
    num_buckets = 64
    timestamps = (np.arange(n, dtype=np.int64) * num_buckets) // n
    spec = SketchSpec(
        "tugofwar", {"s1": args.s1, "s2": args.s2, "seed": args.seed}
    )
    mono = WindowedSketchStore(spec, bucket_width=1)
    t_direct, _ = timed(lambda: mono.ingest(timestamps, stream))

    windows = [
        (b0, b0 + width)
        for width in (8, 16, 32, 64)
        for b0 in range(0, num_buckets - width + 1, 16)
    ]
    batch = max(n // 40, 1)
    batches = [
        (timestamps[i:i + batch], stream[i:i + batch])
        for i in range(0, n, batch)
    ]

    print(f"cluster scale-out ({n:,} events, {num_buckets} buckets, "
          f"{len(batches)} wire batches)")
    print(f"  direct in-process ingest      {t_direct:8.3f} s  "
          f"{throughput(n, t_direct)}   (no wire, reference)")

    metrics: dict = {
        "direct_ingest_s": t_direct,
        "direct_ingest_meps": n / t_direct / 1e6 if t_direct else float("inf"),
        "shards": {},
    }
    ingest_tput: dict[int, float] = {}
    for num_shards in (1, 2, 4, 8):
        config = store_config(WindowedSketchStore(spec, bucket_width=1))
        with LocalCluster(config, num_shards) as cluster, \
                ClusterService(cluster.replica_clients()) as service:
            # Two client threads keep the wire full: encode of batch
            # k+1 overlaps the workers' decode+ingest of batch k.
            with ThreadPoolExecutor(max_workers=2) as pool:
                t_ingest, _ = timed(lambda: list(
                    pool.map(lambda b: service.ingest(*b), batches)
                ))
            latencies = []
            for _ in range(3):
                for window in windows:
                    t, _ = timed(lambda w=window: service.estimate(*w))
                    latencies.append(t * 1e3)
            p50 = float(np.percentile(latencies, 50))
            p99 = float(np.percentile(latencies, 99))
            identical = all(
                service.estimate(*w) == mono.estimate(*w)
                and np.array_equal(
                    service.query(*w).counters, mono.query(*w).counters
                )
                for w in ((0, num_buckets), (0, 8), (16, 48))
            )
        tput = n / t_ingest if t_ingest else float("inf")
        ingest_tput[num_shards] = tput
        print(f"  {num_shards} shard{'s' if num_shards > 1 else ' '} "
              f"  wire ingest {t_ingest:8.3f} s  {throughput(n, t_ingest)}"
              f"   query p50 {p50:7.3f} ms  p99 {p99:7.3f} ms"
              f"   bit-identical: {identical}")
        if not identical:
            failures.append(
                f"cluster: {num_shards}-shard estimates != monolithic store"
            )
        metrics["shards"][str(num_shards)] = {
            "ingest_s": t_ingest,
            "ingest_meps": tput / 1e6,
            "query_p50_ms": p50,
            "query_p99_ms": p99,
        }
    speedup = (
        ingest_tput[4] / ingest_tput[1] if ingest_tput[1] else float("inf")
    )
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cores = os.cpu_count() or 1
    metrics["speedup_4v1"] = speedup
    metrics["usable_cores"] = cores
    print(f"  4-shard vs single-process ingest speedup: {speedup:.2f}x "
          f"({cores} usable cores)")
    if cores >= 4:
        if speedup < 2.0:
            failures.append(
                f"cluster: 4-shard ingest speedup {speedup:.2f}x below the "
                "2x bar"
            )
    else:
        # Four workers cannot beat one worker on wall clock without
        # cores to run on; the curve above is still the scaling
        # artifact, but the bar would only measure the host.
        print(f"  NOTE: {cores} usable core(s) < 4 — the 2x wall-clock bar "
              "is not enforceable on this host; skipped")

    print()
    # The wire race self-sizes: full runs use 4 batches of 400k so the
    # per-batch framing cost is amortised for both protocols; --smoke
    # keeps the CI-sized stream (4 batches of n/4).
    wire_n = n if args.smoke else max(n, 1_600_000)
    wire_failures, metrics["wire"] = wire_section(args, wire_n)
    failures.extend(wire_failures)
    return failures, metrics


def wire_section(args, n: int) -> tuple[list[str], dict]:
    """Section 8 (wire): line-JSON vs binary protocol, end to end.

    Each protocol drives an identical serving topology — a client
    through a :class:`repro.service.SketchServiceServer` front end
    (the one ``repro serve`` runs), scatter–gathering over a 2-shard
    :class:`repro.cluster.LocalCluster` fleet — so every ingested
    value crosses the wire twice (client→front, front→shard) in that
    protocol.  The stream is weighted ingest — 17-digit keys over a
    dense 4096-value domain plus a signed-count column — in batches
    timestamped at a single
    bucket (the arrival-batched common case the scalar-timestamp frame
    encodes in 8 bytes total): the shape where the line-JSON protocol
    pays decimal string encode + parse per value per column per hop
    and rescans megabyte lines for the ``\\n`` terminator, while the
    binary protocol ships length-prefixed packed int64 columns that
    every hop decodes zero-copy.

    The bar (ISSUE 6): binary wire ingest at least **10x** the
    line-JSON path's values/second on this fleet (enforced on full
    runs; measured and reported in ``--smoke``), with both fleets'
    estimates bit-identical to an in-process monolithic service over
    the same stream — frequency-kind estimates are exact integers, so
    equality is exact, not approximate.
    """
    from repro.cluster import ClusterService, LocalCluster, store_config
    from repro.cluster.client import ShardClient
    from repro.service import SketchServiceServer

    failures: list[str] = []
    num_buckets = 4
    batch = max(n // num_buckets, 1)  # one single-bucket batch per bucket
    base = 7_654_321_098_765_432  # 17 decimal digits per key on the JSON wire
    rng = np.random.default_rng(args.seed + 9)
    values = base + rng.integers(0, 4096, size=n).astype(np.int64)
    counts = rng.integers(1, 5, size=n).astype(np.int64)
    batches = []
    for index, start in enumerate(range(0, n, batch)):
        vals = values[start:start + batch]
        ts = np.full(
            vals.size, (index % num_buckets), dtype=np.int64
        )
        batches.append((ts, vals, counts[start:start + batch]))

    spec = SketchSpec("frequency", {})
    mono = WindowedSketchStore(spec, bucket_width=1)
    for ts, vals, cnts in batches:
        mono.ingest(ts, vals, counts=cnts)
    windows = [(0, num_buckets), (0, 2), (1, 3), (0, 3)]
    expected = {w: mono.estimate(*w) for w in windows}

    # Min over repeats, fresh fleet each: wall-clock minimum is the
    # noise-robust cost estimator on a shared host (anything above the
    # minimum is interference, not protocol cost).  --smoke reports a
    # single CI-sized shot.
    repeats = 1 if args.smoke else 3
    print(f"wire protocols ({n:,} events, {len(batches)} batches of "
          f"{batch:,}, client -> front end -> 2 shards, "
          f"best of {repeats})")
    metrics: dict = {}
    rates: dict[str, float] = {}
    for protocol in ("json", "binary"):
        t_ingest = float("inf")
        latencies: list[float] = []
        identical = True
        for _ in range(repeats):
            config = store_config(WindowedSketchStore(spec, bucket_width=1))
            with LocalCluster(config, 2, protocol=protocol) as cluster, \
                    ClusterService(cluster.replica_clients()) as service:
                front = SketchServiceServer(
                    service, ("127.0.0.1", 0), read_timeout=600.0
                )
                thread = threading.Thread(
                    target=front.serve_forever, daemon=True
                )
                thread.start()
                try:
                    host, port = front.server_address[:2]
                    with ShardClient(
                        host, port, timeout=600.0, protocol=protocol
                    ) as client:
                        if protocol == "binary":
                            t_run, total = timed(
                                lambda: client.ingest_batches(
                                    batches, window=8
                                )
                            )
                        else:
                            # The legacy path: one JSON request per
                            # round trip, values as decimal strings at
                            # each hop.
                            def json_ingest():
                                total = 0
                                for ts, vals, cnts in batches:
                                    total += client.request({
                                        "op": "ingest",
                                        "timestamps": ts,
                                        "values": vals,
                                        "counts": cnts,
                                    })["ingested"]
                                return total

                            t_run, total = timed(json_ingest)
                        answers = {}
                        for _ in range(5):
                            for window in windows:
                                t, response = timed(
                                    lambda w=window: client.request({
                                        "op": "estimate", "from": w[0],
                                        "until": w[1],
                                    })
                                )
                                latencies.append(t * 1e3)
                                answers[window] = response["estimate"]
                finally:
                    front.shutdown()
                    thread.join(timeout=30)
                    front.server_close()
            t_ingest = min(t_ingest, t_run)
            identical = identical and total == n and all(
                answers[w] == expected[w] for w in windows
            )
        rate = n / t_ingest if t_ingest else float("inf")
        rates[protocol] = rate
        p50 = float(np.percentile(latencies, 50))
        p99 = float(np.percentile(latencies, 99))
        print(f"  {protocol:6s} wire ingest {t_ingest:8.3f} s  "
              f"{throughput(n, t_ingest)}   query p50 {p50:7.3f} ms  "
              f"p99 {p99:7.3f} ms   bit-identical: {identical}")
        if not identical:
            failures.append(
                f"wire: {protocol} fleet estimates != in-process service"
            )
        metrics[protocol] = {
            "ingest_s": t_ingest,
            "ingest_values_per_s": rate,
            "query_p50_ms": p50,
            "query_p99_ms": p99,
        }
    speedup = (
        rates["binary"] / rates["json"] if rates["json"] else float("inf")
    )
    metrics["binary_vs_json_speedup"] = speedup
    print(f"  binary vs line-JSON wire ingest speedup: {speedup:.2f}x")
    if args.smoke:
        # CI-sized streams under-fill the pipeline; the bar is
        # enforced on full runs and reported here.
        print("  NOTE: --smoke reports the ratio without enforcing the "
              "10x bar (CI-sized stream)")
    elif speedup < 10.0:
        failures.append(
            f"wire: binary ingest speedup {speedup:.2f}x below the 10x bar"
        )
    return failures, metrics


def fault_section(args, n: int) -> tuple[list[str], dict]:
    """Section 9: fault tolerance — replication cost, hedging, repair.

    Three measurements against real spawned fleets (ISSUE 7):

    * **replication overhead** — over-the-wire ingest throughput on a
      2-shard fleet at replication factor 1/2/3 (``--smoke``: 1/2).
      Fan-out to a replica set is the same linear build R times over,
      so every factor's answers must stay **bit-identical** to a
      monolithic store of the stream;
    * **hedged p99 under a straggler** — before every query the
      primary replica of shard 0 is deterministically stalled (a
      client-hook sleep that fires outside the connection lock, so
      stalled requests pile up in parallel, not in line).  The hedged
      front end answers from the healthy peer one hedge delay later;
      the unhedged front end waits out the stall.  The acceptance bar:
      hedged query p99 at least **5x** better than unhedged (enforced
      on full runs; measured and reported in ``--smoke``);
    * **repair latency** — SIGKILL one replica mid-stream and time the
      next ingest end to end: it must detect the dead replica, respawn
      it through the supervisor, restore it from the healthy peer's
      snapshot, and leave answers **bit-identical** with no replica
      out of rotation.
    """
    from repro.cluster import (
        ClusterService,
        FaultInjector,
        LocalCluster,
        StallRequests,
        store_config,
    )

    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    stream = (rng.zipf(1.2, size=n) % (n // 10)).astype(np.int64)
    num_buckets = 64
    timestamps = (np.arange(n, dtype=np.int64) * num_buckets) // n
    spec = SketchSpec(
        "tugofwar", {"s1": args.s1, "s2": args.s2, "seed": args.seed}
    )
    mono = WindowedSketchStore(spec, bucket_width=1)
    mono.ingest(timestamps, stream)
    batch = max(n // 20, 1)
    batches = [
        (timestamps[i:i + batch], stream[i:i + batch])
        for i in range(0, n, batch)
    ]
    checks = ((0, num_buckets), (0, 8), (16, 48))

    def identical(service) -> bool:
        return all(
            service.estimate(*w) == mono.estimate(*w)
            and np.array_equal(
                service.query(*w).counters, mono.query(*w).counters
            )
            for w in checks
        )

    def fresh_config() -> dict:
        return store_config(WindowedSketchStore(spec, bucket_width=1))

    print(f"fault tolerance ({n:,} events, 2 shards, "
          f"{len(batches)} wire batches)")
    metrics: dict = {"replication": {}}

    # -- replication overhead: ingest cost of fanning to R replicas --
    factors = (1, 2) if args.smoke else (1, 2, 3)
    base_tput = None
    for factor in factors:
        with LocalCluster(fresh_config(), 2, replication=factor) as cluster, \
                ClusterService(
                    cluster.replica_clients(), supervisor=cluster
                ) as service:
            t_ingest, _ = timed(
                lambda: [service.ingest(*b) for b in batches]
            )
            ok = identical(service)
        tput = n / t_ingest if t_ingest else float("inf")
        if base_tput is None:
            base_tput = tput
        overhead = base_tput / tput if tput else float("inf")
        print(f"  replication={factor}   wire ingest {t_ingest:8.3f} s  "
              f"{throughput(n, t_ingest)}   overhead vs R=1: "
              f"{overhead:.2f}x   bit-identical: {ok}")
        if not ok:
            failures.append(
                f"faults: replication={factor} answers != monolithic store"
            )
        metrics["replication"][str(factor)] = {
            "ingest_s": t_ingest,
            "ingest_meps": tput / 1e6,
            "overhead_vs_r1": overhead,
        }

    # -- hedged vs unhedged p99 with one deterministically stalled
    # replica.  Both front ends share one 2x2 fleet (same sketches,
    # same wire); only the read policy differs.
    stall_s = 0.25 if args.smoke else 0.75
    queries = 10 if args.smoke else 20
    window = (0, num_buckets)
    with LocalCluster(fresh_config(), 2, replication=2) as cluster:
        primary = cluster.replica_sets()[0][0].client
        hedged = ClusterService(
            cluster.replica_clients(), supervisor=cluster, pool_size=64
        )
        unhedged = ClusterService(
            cluster.replica_clients(), hedge_delay=None, pool_size=64
        )
        try:
            for b in batches:
                hedged.ingest(*b)

            def stalled_queries(service) -> list[float]:
                latencies = []
                for _ in range(queries):
                    # Clear straggler demotion so every round dispatches
                    # to the (stalled) primary first — worst case, not
                    # the adapted steady state.
                    service._reset_replica_state()
                    with StallRequests(primary, stall_s, ops={"sketch"}):
                        t, _ = timed(lambda: service.estimate(*window))
                    latencies.append(t * 1e3)
                return latencies

            hedged_lat = stalled_queries(hedged)
            time.sleep(stall_s)  # drain abandoned sleepers off the client
            unhedged_lat = stalled_queries(unhedged)
            ok = identical(hedged) and identical(unhedged)
        finally:
            unhedged.close()
            hedged.close()
    hedged_p99 = float(np.percentile(hedged_lat, 99))
    unhedged_p99 = float(np.percentile(unhedged_lat, 99))
    ratio = unhedged_p99 / hedged_p99 if hedged_p99 else float("inf")
    print(f"  stalled-replica query   hedged p99 {hedged_p99:8.3f} ms   "
          f"unhedged p99 {unhedged_p99:8.3f} ms   ratio: {ratio:.2f}x   "
          f"bit-identical: {ok}")
    if not ok:
        failures.append("faults: stalled-fleet answers != monolithic store")
    metrics["hedging"] = {
        "stall_s": stall_s,
        "hedged_p99_ms": hedged_p99,
        "unhedged_p99_ms": unhedged_p99,
        "p99_ratio": ratio,
    }
    if args.smoke:
        print("  NOTE: --smoke reports the hedging ratio without enforcing "
              "the 5x bar (CI-sized host)")
    elif ratio < 5.0:
        failures.append(
            f"faults: hedged p99 only {ratio:.2f}x better than unhedged, "
            "below the 5x bar"
        )

    # -- repair: kill a replica mid-stream, time the recovering ingest --
    with LocalCluster(fresh_config(), 2, replication=2) as cluster, \
            ClusterService(
                cluster.replica_clients(), supervisor=cluster
            ) as service:
        half = len(batches) // 2
        for b in batches[:half]:
            service.ingest(*b)
        FaultInjector(cluster).kill(0, replica=1)
        t_repair, _ = timed(lambda: service.ingest(*batches[half]))
        for b in batches[half + 1:]:
            service.ingest(*b)
        recovered = not service.failed_replicas
        ok = identical(service)
    print(f"  killed-replica repair   detect+respawn+restore ingest "
          f"{t_repair:8.3f} s   recovered: {recovered}   "
          f"bit-identical: {ok}")
    if not recovered:
        failures.append("faults: replica still out of rotation after repair")
    if not ok:
        failures.append("faults: post-repair answers != monolithic store")
    metrics["repair"] = {"repair_ingest_s": t_repair, "recovered": recovered}
    return failures, metrics


class _SeededSelectivities:
    """A deterministic synthetic estimator for enumeration timing.

    Per-edge selectivities are drawn once from a seeded RNG, so the
    scaling runs measure pure enumeration work (no sketch math) and
    repeated enumerations see identical inputs.
    """

    def __init__(self, graph: JoinGraph, seed: int):
        self._graph = graph
        self._rng = np.random.default_rng(seed)
        self._sel: dict[tuple[str, str], float] = {}

    def join_estimate(self, left: str, right: str) -> float:
        key = (left, right) if left <= right else (right, left)
        sel = self._sel.get(key)
        if sel is None:
            sel = float(self._rng.uniform(5e-4, 2e-2))
            self._sel[key] = sel
        return sel * self._graph.size(left) * self._graph.size(right)


def ingest_section(args, n: int) -> tuple[list[str], dict]:
    """Compiled-vs-numpy kernel ingest race (ISSUE 9).

    Races every loadable :mod:`repro.kernels` backend on the fused
    tug-of-war bulk-ingest scatter over one signed histogram, asserting
    **exact counter bit-identity** against the numpy oracle for each
    compiled backend, then reports the same race for the F_k digit
    scatter and the partitioner's fused hash-route kernel.  The >= 5x
    compiled-over-numpy bar is enforced whenever a compiled backend
    loads and the run is not ``--smoke``; everywhere else the ratio is
    reported so the trajectory is still tracked.
    """
    from repro import kernels
    from repro.core.fkmoments import FkMomentSketch
    from repro.engine.partition import HashPartitioner

    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    # A signed histogram (inserts and deletions) the length of the
    # stream: every (value, count) pair drives one fused scatter.
    values = (rng.zipf(1.2, size=n) % max(n // 10, 10)).astype(np.int64)
    counts = rng.integers(1, 5, size=n, dtype=np.int64)
    counts[rng.random(n) < 0.25] *= -1
    head = max(1, -int(counts[counts < 0].sum()) + 1)
    counts[0] = head  # keep the running multiset size non-negative
    repeats = 1 if args.smoke else 3

    prior = kernels.active_backend()
    info = kernels.kernel_info(probe=True)
    backends = list(info["available"])  # numpy is always first
    print("kernel ingest race")
    print(f"  backends available: {', '.join(backends)} (active: {prior})")
    section: dict = {
        "backends": backends,
        "kernel": info,
        "tugofwar_s": {},
        "fk_moments_s": {},
        "partition_s": {},
    }
    tow_counters: dict[str, np.ndarray] = {}
    fk_counters: dict[str, np.ndarray] = {}
    assignments: dict[str, np.ndarray] = {}
    try:
        for name in backends:
            kernels.set_backend(name)

            warm = TugOfWarSketch(s1=args.s1, s2=args.s2, seed=args.seed)
            warm.update_from_frequencies(values[:64], np.abs(counts[:64]))
            best = float("inf")
            for _ in range(repeats):
                sk = TugOfWarSketch(s1=args.s1, s2=args.s2, seed=args.seed)
                t, _ = timed(
                    lambda sk=sk: sk.update_from_frequencies(values, counts)
                )
                best = min(best, t)
                tow_counters[name] = sk.counters.copy()
            section["tugofwar_s"][name] = best
            print(f"  tugofwar  {name:>6}   {best:8.3f} s  "
                  f"{throughput(n, best)}")

            fk = FkMomentSketch(k=3, s1=args.s1, s2=args.s2, seed=args.seed)
            fk.update_from_frequencies(values[:64], np.abs(counts[:64]))
            fk = FkMomentSketch(k=3, s1=args.s1, s2=args.s2, seed=args.seed)
            t_fk, _ = timed(
                lambda: fk.update_from_frequencies(values, counts)
            )
            fk_counters[name] = fk.counters.copy()
            section["fk_moments_s"][name] = t_fk
            print(f"  fk k=3    {name:>6}   {t_fk:8.3f} s  "
                  f"{throughput(n, t_fk)}")

            part = HashPartitioner(8, seed=args.seed)
            part.assign(values[:64])  # warm-up
            t_p, assigned = timed(lambda: part.assign(values))
            assignments[name] = assigned
            section["partition_s"][name] = t_p
            print(f"  partition {name:>6}   {t_p:8.3f} s  "
                  f"{throughput(n, t_p)}")
    finally:
        kernels.set_backend(prior)

    for label, states in (
        ("tugofwar", tow_counters),
        ("fk k=3", fk_counters),
        ("partition", assignments),
    ):
        oracle = states["numpy"]
        for name, state in states.items():
            if not np.array_equal(state, oracle):
                failures.append(
                    f"kernels: {label} {name} state != numpy oracle"
                )
        print(f"  {label} bit-identical across backends: "
              f"{all(np.array_equal(s, oracle) for s in states.values())}")

    compiled = {
        b: section["tugofwar_s"][b] for b in backends if b != "numpy"
    }
    if compiled:
        best_name = min(compiled, key=compiled.get)
        ratio = section["tugofwar_s"]["numpy"] / compiled[best_name]
        section["tugofwar_speedup"] = ratio
        section["tugofwar_best_backend"] = best_name
        print(f"  compiled speedup ({best_name} over numpy): {ratio:.1f}x")
        if not args.smoke and ratio < 5.0:
            failures.append(
                f"kernels: compiled ingest speedup {ratio:.1f}x below "
                f"the 5x bar"
            )
        elif ratio < 5.0:
            print("  NOTE: 5x bar reported only (smoke run)")
    else:
        print("  NOTE: no compiled backend loadable on this host; "
              "numpy-only run")

    return failures, section


def sampler_section(args, n: int) -> tuple[list[str], dict]:
    """Section 2b: counter-RNG sampler ingest race.

    Races the two sampler kinds' batched ingest under every loadable
    kernel backend against the per-element insert loop, asserting
    **exact state identity** (full ``to_dict`` equality) against the
    numpy oracle for each compiled backend and against the
    per-element loop (every ingest route must land on the same
    integers).

    The >= 5x batched-numpy-over-loop bar is enforced for the
    fast-query sample-count variant and for naive-sampling whenever a
    compiled backend loads (the compiled-toolchain CI lane); the plain
    sample-count tracker is reported unenforced — its per-event sample
    walk is shared Python cost on every backend, so its batched win is
    structurally smaller.
    """
    from repro import kernels
    from repro.core.naivesampling import NaiveSamplingEstimator
    from repro.core.samplecount import SampleCountFastQuery

    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    values = (rng.zipf(1.3, size=n) % max(n // 5, 10)).astype(np.int64)

    kinds = [
        (
            "samplecount",
            False,
            lambda: SampleCountSketch(
                args.s1, args.s2, seed=args.seed, initial_range=n
            ),
        ),
        (
            "samplecount-fast",
            True,
            lambda: SampleCountFastQuery(
                args.s1, args.s2, seed=args.seed, initial_range=n
            ),
        ),
        (
            "naivesampling",
            True,
            lambda: NaiveSamplingEstimator(s=args.s1 * args.s2, seed=args.seed),
        ),
    ]

    prior = kernels.active_backend()
    backends = list(kernels.available_backends())  # numpy is always first
    compiled_loaded = "cffi" in backends
    print("sampler ingest race (counter RNG, batched vs per-element loop)")
    print(f"  backends available: {', '.join(backends)} (active: {prior})")
    section: dict = {"backends": backends, "kinds": {}}
    try:
        def insert_loop(sk):
            def run():
                for v in values.tolist():
                    sk.insert(v)

            return run

        for name, gated, build in kinds:
            scalar = build()
            t_scalar, _ = timed(insert_loop(scalar))

            batched_s: dict[str, float] = {}
            states: dict[str, dict] = {}
            for backend in backends:
                kernels.set_backend(backend)
                warm = build()
                warm.update_from_stream(values[:256])
                sk = build()
                t, _ = timed(lambda sk=sk: sk.update_from_stream(values))
                batched_s[backend] = t
                states[backend] = sk.to_dict()
            kernels.set_backend(prior)

            if scalar.to_dict() != states["numpy"]:
                failures.append(
                    f"samplers: {name} per-element loop != batched state"
                )
            for backend, state in states.items():
                if state != states["numpy"]:
                    failures.append(
                        f"samplers: {name} {backend} state != numpy oracle"
                    )

            speedup = (
                t_scalar / batched_s["numpy"]
                if batched_s["numpy"]
                else float("inf")
            )
            entry = {
                "counter_scalar_s": t_scalar,
                "batched_s": batched_s,
                "batched_speedup": speedup,
                "gated": gated,
            }
            print(f"  {name}")
            print(f"    per-element loop   {t_scalar:8.3f} s  "
                  f"{throughput(n, t_scalar)}")
            for backend in backends:
                t = batched_s[backend]
                print(f"    batched {backend:>7}    {t:8.3f} s  "
                      f"{throughput(n, t)}")
            print(f"    numpy-batched over per-element loop: {speedup:.1f}x"
                  + ("" if gated else "  (reported, not gated)"))
            compiled = {b: batched_s[b] for b in backends if b != "numpy"}
            if compiled:
                best = min(compiled, key=compiled.get)
                ratio = (
                    batched_s["numpy"] / compiled[best]
                    if compiled[best]
                    else float("inf")
                )
                entry["compiled_best_backend"] = best
                entry["compiled_speedup_vs_numpy"] = ratio
                print(f"    compiled speedup ({best} over numpy): {ratio:.1f}x")
            section["kinds"][name] = entry

            if gated and speedup < 5.0:
                if compiled_loaded:
                    failures.append(
                        f"samplers: {name} batched speedup {speedup:.1f}x "
                        f"below the 5x bar"
                    )
                else:
                    print("    NOTE: 5x bar reported only (no compiled "
                          "backend loads)")
    finally:
        kernels.set_backend(prior)

    return failures, section


def _shape_graph(shape: str, n: int) -> JoinGraph:
    sizes = {f"R{i}": 1_000 + 37 * i for i in range(n)}
    if shape == "chain":
        return JoinGraph.chain(sizes)
    if shape == "clique":
        return JoinGraph.clique(sizes)
    items = list(sizes.items())
    return JoinGraph.star(items[0][0], items[0][1], dict(items[1:]))


def planner_section(args) -> tuple[list[str], dict]:
    """Section 7: DP enumeration scaling and plan-quality regret."""
    failures: list[str] = []
    metrics: dict = {"enumeration_ms": {}, "quality": {}}

    # -- enumeration scaling: chain/star/clique up to n = 12 ------------
    print("query planner: DP enumeration scaling")
    repeats = 3
    for shape in ("chain", "star", "clique"):
        for n in (8, 12):
            graph = _shape_graph(shape, n)
            estimator = _SeededSelectivities(graph, seed=args.seed)
            for mode in ("left-deep", "bushy"):
                runs = []
                plans = []
                for _ in range(repeats):
                    t, plan = timed(
                        lambda: enumerate_dp(graph, estimator, mode=mode)
                    )
                    runs.append(t)
                    plans.append(plan)
                p50 = float(np.percentile(np.asarray(runs) * 1e3, 50))
                identical = all(
                    p.structure() == plans[0].structure()
                    and p.cost == plans[0].cost
                    for p in plans[1:]
                )
                print(f"  {shape:6s} n={n:2d} {mode:9s}  p50 {p50:8.2f} ms"
                      f"   bit-identical across runs: {identical}")
                metrics["enumeration_ms"][f"{shape}/n{n}/{mode}"] = p50
                if not identical:
                    failures.append(
                        f"planner: {shape} n={n} {mode} plans differ "
                        "across repeated runs"
                    )
                if n == 12 and min(runs) >= 1.0:
                    failures.append(
                        f"planner: {shape} n=12 {mode} enumeration took "
                        f"{min(runs):.2f} s (sub-second bar)"
                    )

    # -- plan quality: greedy vs DP, sketch vs exact vs bound-aware -----
    # A star workload where the classic small-dimension cross-product
    # trick pays off: every dimension covers the fact domain, so each
    # fact join keeps the intermediate near |F|, while crossing the
    # tiny dimensions first costs |D1| * |D2|.  Left-deep greedy cannot
    # see that; bushy DP (cross products allowed) must find it.
    rng = np.random.default_rng(args.seed)
    domain = 64
    fact_n = 50_000 if args.quick or args.smoke else 200_000
    relations = {
        "F": Relation("F", (rng.zipf(1.4, size=fact_n) % domain).astype(np.int64))
    }
    for i, dim_n in enumerate((60, 70, 80), start=1):
        relations[f"D{i}"] = Relation(
            f"D{i}", rng.integers(0, domain, size=dim_n).astype(np.int64)
        )
    graph = JoinGraph.star(
        "F", relations["F"].size,
        {name: rel.size for name, rel in relations.items() if name != "F"},
    )
    exact = ExactCardinalities(relations)
    catalog = SignatureCatalog(k=1024, seed=args.seed)
    for name, rel in relations.items():
        catalog.register(name, rel.values_array())
    policies = {
        "exact": exact,
        "sketch": SketchCardinalities(catalog),
        "bound": BoundAwareCardinalities(catalog),
    }

    greedy = enumerate_greedy(graph, exact)
    greedy_true = evaluate_plan(greedy, graph, exact).cost
    dp = enumerate_dp(graph, exact, mode="bushy", allow_cross_products=True)
    dp_true = evaluate_plan(dp, graph, exact).cost
    print(f"\nquery planner: plan quality (star, |F|={relations['F'].size:,})")
    print(f"  greedy left-deep      true cost {greedy_true:14,.0f}")
    print(f"  DP bushy (+cross)     true cost {dp_true:14,.0f}"
          f"   ({greedy_true / dp_true:.2f}x cheaper)")
    metrics["quality"]["greedy_true_cost"] = greedy_true
    metrics["quality"]["dp_true_cost"] = dp_true
    if not dp_true < greedy_true:
        failures.append(
            f"planner: DP true cost {dp_true:,.0f} does not beat greedy "
            f"{greedy_true:,.0f} on the star workload"
        )

    best_true = dp_true
    for name, estimator in policies.items():
        plan = enumerate_dp(
            graph, estimator, mode="bushy", allow_cross_products=True
        )
        true_cost = evaluate_plan(plan, graph, exact).cost
        regret = true_cost / best_true if best_true else float("inf")
        print(f"  policy {name:6s} DP     true cost {true_cost:14,.0f}"
              f"   regret {regret:7.3f}x")
        metrics["quality"][f"{name}_regret"] = regret
        if regret > 5.0:
            failures.append(
                f"planner: {name} policy regret {regret:.2f}x above the 5x bar"
            )
    return failures, metrics


def main(argv=None) -> int:
    """Run the benchmark; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="100k-element stream for CI smoke runs (default: 1M)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the service, keyed, planner, cluster, faults, "
        "and ingest sections, CI-sized",
    )
    parser.add_argument(
        "--sections",
        default=None,
        metavar="NAMES",
        help="with --smoke: comma-separated subset to run "
        "(service,keyed,planner,cluster,faults,ingest,samplers; "
        "default: all)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write a machine-readable summary (per-section percentiles "
        "and throughput) to this file",
    )
    parser.add_argument("--s1", type=int, default=256)
    parser.add_argument("--s2", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.kernels import kernel_info

    summary: dict = {
        "mode": "smoke" if args.smoke else ("quick" if args.quick else "full"),
        "seed": args.seed,
        "kernel": kernel_info(probe=True),
        "sections": {},
    }

    def finish(failures: list[str], ok_message: str) -> int:
        if args.json_path:
            summary["failures"] = failures
            with open(args.json_path, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            print(f"wrote benchmark summary to {args.json_path}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(ok_message)
        return 0

    if args.smoke:
        runners = {
            "service": lambda: service_section(args, n=100_000),
            "keyed": lambda: keyed_section(
                args, n=60_000, key_counts=(1, 100, 1_000)
            ),
            "planner": lambda: planner_section(args),
            "cluster": lambda: cluster_section(args, n=400_000),
            "faults": lambda: fault_section(args, n=200_000),
            "ingest": lambda: ingest_section(args, n=200_000),
            # Full-size stream on purpose: the reservoir's O(k log n)
            # accept count amortises only at scale, so the 5x bar is
            # meaningless on a CI-sized stream.
            "samplers": lambda: sampler_section(args, n=1_000_000),
        }
        if args.sections is None:
            selected = list(runners)
        else:
            selected = [s.strip() for s in args.sections.split(",") if s.strip()]
            unknown = [s for s in selected if s not in runners]
            if unknown:
                parser.error(
                    f"unknown --sections entries {unknown}; "
                    f"choose from {sorted(runners)}"
                )
        failures = []
        for name in selected:
            section_failures, summary["sections"][name] = runners[name]()
            failures.extend(section_failures)
            print()
        return finish(
            failures,
            f"{', '.join(selected)} benchmark checks passed",
        )

    n = 100_000 if args.quick else 1_000_000
    rng = np.random.default_rng(args.seed)
    # Domain scales with n (as in the paper's data sets) so quick and
    # full runs have comparable distinct/length ratios.
    stream = (rng.zipf(1.2, size=n) % (n // 10)).astype(np.int64)
    print(f"stream: n={n:,} (zipf), sketch s1={args.s1} s2={args.s2}\n")
    failures = []

    # ------------------------------------------------------------------
    # 1. tug-of-war: per-element vs batched vs sharded
    # ------------------------------------------------------------------
    def tw() -> TugOfWarSketch:
        return TugOfWarSketch(s1=args.s1, s2=args.s2, seed=args.seed)

    loop_sketch = tw()

    def tw_loop():
        for v in stream.tolist():
            loop_sketch.insert(v)

    t_loop, _ = timed(tw_loop)

    batch_sketch = tw()
    t_batch, _ = timed(lambda: batch_sketch.update_from_stream(stream))

    t_shard, sharded = timed(
        lambda: sharded_build(tw, stream, num_shards=args.shards)
    )
    t_shard_mt, sharded_mt = timed(
        lambda: sharded_build(
            tw, stream, num_shards=args.shards, max_workers=args.shards
        )
    )

    speedup = t_loop / t_batch if t_batch else float("inf")
    print("tug-of-war")
    print(f"  per-element loop   {t_loop:8.3f} s  {throughput(n, t_loop)}")
    print(f"  batched ingest     {t_batch:8.3f} s  {throughput(n, t_batch)}"
          f"   ({speedup:.1f}x)")
    print(f"  sharded x{args.shards} serial  {t_shard:8.3f} s  "
          f"{throughput(n, t_shard)}")
    print(f"  sharded x{args.shards} thread  {t_shard_mt:8.3f} s  "
          f"{throughput(n, t_shard_mt)}")

    if not np.array_equal(loop_sketch.counters, batch_sketch.counters):
        failures.append("tug-of-war: batched state != per-element state")
    for label, built in (("serial", sharded), ("threaded", sharded_mt)):
        if np.array_equal(built.counters, batch_sketch.counters):
            print(f"  sharded {label} merge bit-identical to single-shot: True")
        else:
            failures.append(f"tug-of-war: {label} sharded merge not bit-identical")
    if speedup < 10.0:
        failures.append(
            f"tug-of-war: batched speedup {speedup:.1f}x below the 10x bar"
        )
    summary["sections"]["tugofwar"] = {
        "loop_s": t_loop,
        "batched_s": t_batch,
        "batched_speedup": speedup,
        "batched_meps": n / t_batch / 1e6 if t_batch else float("inf"),
        "sharded_threaded_s": t_shard_mt,
    }

    # 1b. compiled-vs-numpy kernel backend race (ISSUE 9)
    print()
    ingest_failures, summary["sections"]["ingest"] = ingest_section(args, n=n)
    failures.extend(ingest_failures)

    # ------------------------------------------------------------------
    # 2. sample-count: per-element vs vectorised segment walker
    # ------------------------------------------------------------------
    sc_loop = SampleCountSketch(args.s1, args.s2, seed=args.seed, initial_range=n)

    def sc_loop_run():
        for v in stream.tolist():
            sc_loop.insert(v)

    t_sc_loop, _ = timed(sc_loop_run)
    sc_batch = SampleCountSketch(args.s1, args.s2, seed=args.seed, initial_range=n)
    t_sc_batch, _ = timed(lambda: sc_batch.update_from_stream(stream))
    sc_speedup = t_sc_loop / t_sc_batch if t_sc_batch else float("inf")
    print("\nsample-count")
    print(f"  per-element loop   {t_sc_loop:8.3f} s  {throughput(n, t_sc_loop)}")
    print(f"  batched ingest     {t_sc_batch:8.3f} s  {throughput(n, t_sc_batch)}"
          f"   ({sc_speedup:.1f}x)")
    if sc_loop.estimate() != sc_batch.estimate():
        failures.append("sample-count: batched estimate != per-element estimate")
    summary["sections"]["samplecount"] = {
        "loop_s": t_sc_loop,
        "batched_s": t_sc_batch,
        "batched_speedup": sc_speedup,
        "batched_meps": n / t_sc_batch / 1e6 if t_sc_batch else float("inf"),
    }

    # 2b. counter-RNG sampler race: batched vs the per-element loop.
    # Full-size even under --quick: the reservoir's O(k log n) accept
    # count amortises only at scale, so a 100k stream would measure
    # nothing (same reasoning as the wire section's floor).
    print()
    sampler_failures, summary["sections"]["samplers"] = sampler_section(
        args, n=max(n, 1_000_000)
    )
    failures.extend(sampler_failures)

    # ------------------------------------------------------------------
    # 3. naive-sampling: per-element offers vs skip-jump bulk offers
    # ------------------------------------------------------------------
    ns_loop = NaiveSamplingEstimator(s=args.s1 * args.s2, seed=args.seed)

    def ns_loop_run():
        for v in stream.tolist():
            ns_loop.insert(v)

    t_ns_loop, _ = timed(ns_loop_run)
    ns_batch = NaiveSamplingEstimator(s=args.s1 * args.s2, seed=args.seed)
    t_ns_batch, _ = timed(lambda: ns_batch.update_from_stream(stream))
    ns_speedup = t_ns_loop / t_ns_batch if t_ns_batch else float("inf")
    print("\nnaive-sampling")
    print(f"  per-element loop   {t_ns_loop:8.3f} s  {throughput(n, t_ns_loop)}")
    print(f"  batched ingest     {t_ns_batch:8.3f} s  {throughput(n, t_ns_batch)}"
          f"   ({ns_speedup:.1f}x)")
    if ns_loop.estimate() != ns_batch.estimate():
        failures.append("naive-sampling: batched estimate != per-element estimate")
    summary["sections"]["naivesampling"] = {
        "loop_s": t_ns_loop,
        "batched_s": t_ns_batch,
        "batched_speedup": ns_speedup,
        "batched_meps": n / t_ns_batch / 1e6 if t_ns_batch else float("inf"),
    }

    # ------------------------------------------------------------------
    # 4. windowed store: bucketed ingest + merge-on-query vs monolithic
    # ------------------------------------------------------------------
    num_buckets = 64
    # Timestamps walk the bucket axis in arrival order, with 5% of the
    # batch scattered out of order (late arrivals).
    timestamps = (np.arange(n, dtype=np.int64) * num_buckets) // n
    late = rng.random(n) < 0.05
    timestamps = np.where(
        late, rng.integers(0, num_buckets, size=n), timestamps
    ).astype(np.int64)
    spec = SketchSpec(
        "tugofwar", {"s1": args.s1, "s2": args.s2, "seed": args.seed}
    )

    def build_store(max_workers=None) -> WindowedSketchStore:
        st = WindowedSketchStore(spec, bucket_width=1)
        st.ingest(timestamps, stream, max_workers=max_workers)
        return st

    t_store, store = timed(build_store)
    t_store_mt, store_mt = timed(lambda: build_store(max_workers=args.shards))

    print("\nwindowed store (64 buckets)")
    print(f"  bucketed ingest    {t_store:8.3f} s  {throughput(n, t_store)}")
    print(f"  bucketed ingest x{args.shards} {t_store_mt:7.3f} s  "
          f"{throughput(n, t_store_mt)}")

    query_latencies: dict[str, float] = {}
    for b0, b1 in ((0, 1), (16, 48), (0, num_buckets)):
        # Each call timed on its own; the median shrugs off the calls a
        # GC pause or a scheduler tick lands on.
        calls = [timed(lambda: store.query(b0, b1)) for _ in range(21)]
        latency_ms = statistics.median(t for t, _ in calls) * 1e3
        window = calls[-1][1]
        query_latencies[f"[{b0},{b1})"] = latency_ms
        mono = tw()
        mono.update_from_stream(stream[(timestamps >= b0) & (timestamps < b1)])
        identical = np.array_equal(window.counters, mono.counters)
        print(f"  query [{b0:2d}, {b1:2d})     {latency_ms:8.3f} ms"
              f"   bit-identical to monolithic: {identical}")
        if not identical:
            failures.append(
                f"windowed store: query [{b0}, {b1}) != monolithic sketch"
            )
    summary["sections"]["windowed_store"] = {
        "ingest_s": t_store,
        "ingest_meps": n / t_store / 1e6 if t_store else float("inf"),
        "ingest_threaded_s": t_store_mt,
        "query_latency_ms": query_latencies,
    }
    if not np.array_equal(
        store_mt.query(0, num_buckets).counters,
        store.query(0, num_buckets).counters,
    ):
        failures.append("windowed store: threaded ingest != serial ingest")

    # ------------------------------------------------------------------
    # 5. estimation service: cold vs cached, then ingest+query churn
    # ------------------------------------------------------------------
    print()
    service_failures, summary["sections"]["service"] = service_section(args, n=n)
    failures.extend(service_failures)

    # ------------------------------------------------------------------
    # 6. keyed fleet: ingest+query as key cardinality grows
    # ------------------------------------------------------------------
    print()
    keyed_failures, summary["sections"]["keyed"] = keyed_section(
        args, n=min(n, 400_000)
    )
    failures.extend(keyed_failures)

    # ------------------------------------------------------------------
    # 7. query planner: DP enumeration scaling + plan-quality regret
    # ------------------------------------------------------------------
    print()
    planner_failures, summary["sections"]["planner"] = planner_section(args)
    failures.extend(planner_failures)

    # ------------------------------------------------------------------
    # 8. cluster scale-out: multi-process sharding curve at 1/2/4/8
    # ------------------------------------------------------------------
    print()
    cluster_failures, summary["sections"]["cluster"] = cluster_section(args, n=n)
    failures.extend(cluster_failures)

    # ------------------------------------------------------------------
    # 9. fault tolerance: replication cost, hedged reads, repair
    # ------------------------------------------------------------------
    print()
    fault_failures, summary["sections"]["faults"] = fault_section(args, n=n)
    failures.extend(fault_failures)

    print()
    return finish(failures, "all engine benchmark checks passed")


if __name__ == "__main__":
    sys.exit(main())
