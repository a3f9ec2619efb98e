#!/usr/bin/env python
"""Quickstart: track a self-join size in limited storage.

Builds a skewed stream, tracks its self-join size (second frequency
moment) with all three Section 2 algorithms, updates through deletions,
compares against the exact answer, and finishes with the engine layer:
sharded parallel builds and sketch serialization — the 60-second tour
of the library's public API.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    FrequencyVector,
    NaiveSamplingEstimator,
    SampleCountSketch,
    TugOfWarSketch,
    dumps_sketch,
    loads_sketch,
    self_join_size,
    sharded_build,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # A Zipf-ish stream: 100k values over ~8k distinct.
    stream = (rng.zipf(1.3, size=100_000) % 8_192).astype(np.int64)
    exact = self_join_size(stream)
    print(f"stream: n={stream.size:,}, exact self-join size = {exact:,}")

    # --- tug-of-war: 1280 memory words (s1=256 accuracy, s2=5 confidence)
    tw = TugOfWarSketch(s1=256, s2=5, seed=42)
    tw.update_from_stream(stream)  # vectorised bulk load
    print(
        f"tug-of-war    ({tw.memory_words:>5} words): {tw.estimate():>14,.0f}"
        f"   (error {abs(tw.estimate() - exact) / exact:.1%},"
        f" guaranteed <= {tw.error_bound():.0%} w.p. {tw.confidence():.0%})"
    )

    # --- sample-count: the Figure 1 tracker, O(1) amortised updates
    sc = SampleCountSketch(s1=256, s2=5, seed=42, initial_range=stream.size)
    sc.update_from_stream(stream)
    print(f"sample-count  ({sc.memory_words:>5} words): {sc.estimate():>14,.0f}")

    # --- naive-sampling baseline at the same budget
    ns = NaiveSamplingEstimator(s=1280, seed=42)
    ns.update_from_stream(stream)
    print(f"naive-sampling({ns.memory_words:>5} words): {ns.estimate():>14,.0f}")

    # --- deletions: both AMS trackers handle them online
    print("\ndeleting 10,000 stream elements ...")
    exact_fv = FrequencyVector.from_stream(stream)
    for v in stream[:10_000].tolist():
        tw.delete(int(v))
        sc.delete(int(v))
        exact_fv.delete(int(v))
    exact_after = exact_fv.self_join_size()
    print(f"exact      after deletes: {exact_after:>14,}")
    print(f"tug-of-war after deletes: {tw.estimate():>14,.0f}")
    print(f"sample-cnt after deletes: {sc.estimate():>14,.0f}")

    # --- sketches are mergeable (same seed => counters add)
    left = TugOfWarSketch(s1=256, s2=5, seed=99)
    right = TugOfWarSketch(s1=256, s2=5, seed=99)
    left.update_from_stream(stream[: stream.size // 2])
    right.update_from_stream(stream[stream.size // 2 :])
    merged = left.merge(right)
    print(f"\nmerged halves estimate:   {merged.estimate():>14,.0f} (exact {exact:,})")

    # --- engine: sharded build (partition -> build per shard -> merge)
    # is bit-identical to the single-shot build.
    sharded = sharded_build(
        lambda: TugOfWarSketch(s1=256, s2=5, seed=99),
        stream,
        num_shards=4,
    )
    single = TugOfWarSketch(s1=256, s2=5, seed=99)
    single.update_from_stream(stream)
    identical = bool(np.array_equal(sharded.counters, single.counters))
    print(f"4-way sharded build bit-identical to single-shot: {identical}")

    # --- engine: any sketch round-trips through the serialization
    # registry (JSON in, the right class back out).
    payload = dumps_sketch(sharded)
    restored = loads_sketch(payload)
    print(
        f"serialised {len(payload):,} bytes -> {type(restored).__name__}, "
        f"estimate {restored.estimate():>14,.0f}"
    )


if __name__ == "__main__":
    main()
