"""Sharded build path: partition, build per shard, merge — exactly.

Acceptance criterion of ISSUE 1: a sharded 4-way build merges to a
bit-identical tug-of-war sketch versus the single-shot build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frequency import FrequencyVector
from repro.core.samplecount import SampleCountSketch
from repro.core.tugofwar import TugOfWarSketch
from repro.engine import (
    HashPartitioner,
    MergeUnsupportedError,
    merge_sketches,
    sharded_build,
)


def _stream(n=20_000):
    rng = np.random.default_rng(21)
    return (rng.zipf(1.3, size=n) % 2_000).astype(np.int64)


class _ShardRecorder:
    """A stand-in sketch that keeps the shards it saw, in merge order."""

    def __init__(self, shards=()):
        self.shards = list(shards)

    def update_from_stream(self, shard):
        self.shards.append(np.asarray(shard).copy())

    def merge(self, other):
        return _ShardRecorder(self.shards + other.shards)


class TestShardedBuild:
    def test_partition_preserves_order_and_content(self):
        # The default split: contiguous, in stream order, balanced.
        values = _stream()
        built = sharded_build(_ShardRecorder, values, num_shards=4)
        shards = built.shards
        assert len(shards) == 4
        assert np.array_equal(np.concatenate(shards), values)
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_partitioner_overrides_num_shards(self):
        made = []

        def factory():
            made.append(_ShardRecorder())
            return made[-1]

        built = sharded_build(
            factory, _stream(1000), num_shards=8,
            partitioner=HashPartitioner(3, seed=1),
        )
        assert len(made) == 3 and len(built.shards) == 3

    def test_rejects_non_1d_stream(self):
        with pytest.raises(ValueError, match="1-D"):
            sharded_build(FrequencyVector, np.zeros((2, 2), dtype=np.int64))

    def test_more_shards_than_elements(self):
        # Empty shards build empty sketches, which merge as identities.
        built = sharded_build(FrequencyVector, [1, 2], num_shards=5)
        assert built == FrequencyVector.from_stream([1, 2])

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            sharded_build(FrequencyVector, _stream(100), num_shards=0)

    def test_tugofwar_bit_identical_to_single_shot(self):
        values = _stream()
        factory = lambda: TugOfWarSketch(s1=64, s2=5, seed=17)  # noqa: E731
        single = factory()
        single.update_from_stream(values)
        sharded = sharded_build(factory, values, num_shards=4)
        assert np.array_equal(sharded.counters, single.counters)
        assert sharded.n == single.n
        assert sharded.estimate() == single.estimate()

    def test_frequency_vector_sharded_build_exact(self):
        values = _stream()
        sharded = sharded_build(FrequencyVector, values, num_shards=3)
        assert sharded == FrequencyVector.from_stream(values)

    def test_mismatched_seeds_refuse_to_merge(self):
        seeds = iter([1, 2, 3, 4])
        factory = lambda: TugOfWarSketch(16, 3, seed=next(seeds))  # noqa: E731
        with pytest.raises(ValueError, match="seed"):
            sharded_build(factory, _stream(1000), num_shards=4)

    def test_unmergeable_sketch_raises(self):
        factory = lambda: SampleCountSketch(16, 3, seed=1)  # noqa: E731
        with pytest.raises(MergeUnsupportedError):
            sharded_build(factory, _stream(1000), num_shards=2)

    def test_merge_sketches_requires_nonempty(self):
        with pytest.raises(ValueError):
            merge_sketches([])

    def test_hash_partitioner_build_bit_identical(self):
        values = _stream()
        factory = lambda: TugOfWarSketch(s1=64, s2=5, seed=17)  # noqa: E731
        single = factory()
        single.update_from_stream(values)
        built = sharded_build(
            factory, values, partitioner=HashPartitioner(4, seed=2)
        )
        assert np.array_equal(built.counters, single.counters)
        assert built.n == single.n


class TestTreeMerge:
    """merge_sketches is a balanced tree; the fold result is preserved."""

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 9])
    def test_bit_identical_to_left_fold(self, count):
        from functools import reduce

        values = _stream(6_000)
        parts = []
        for i in range(count):
            sketch = TugOfWarSketch(s1=32, s2=3, seed=5)
            sketch.update_from_stream(values[i::count])
            parts.append(sketch)
        folded = reduce(lambda a, b: a.merge(b), parts)
        tree = merge_sketches(parts)
        assert np.array_equal(tree.counters, folded.counters)
        assert tree.n == folded.n
        assert tree.estimate() == folded.estimate()

    @pytest.mark.parametrize("count", [2, 5, 8])
    def test_frequency_vectors_merge_exactly(self, count):
        values = _stream(4_000)
        parts = [
            FrequencyVector.from_stream(values[i::count]) for i in range(count)
        ]
        assert merge_sketches(parts) == FrequencyVector.from_stream(values)

    def test_single_sketch_returned_as_is(self):
        sketch = TugOfWarSketch(s1=8, s2=3, seed=1)
        assert merge_sketches([sketch]) is sketch

    def test_logarithmic_merge_depth(self):
        # The satellite's point: 64 shard sketches must combine in
        # ceil(log2 64) = 6 rounds of pairwise merges, not a 63-deep
        # sequential chain.  Depth is observed through a counter.
        class Counting:
            def __init__(self, depth=0):
                self.depth = depth

            def merge(self, other):
                return Counting(max(self.depth, other.depth) + 1)

        merged = merge_sketches([Counting() for _ in range(64)])
        assert merged.depth == 6
        merged = merge_sketches([Counting() for _ in range(9)])
        assert merged.depth == 4  # ceil(log2 9), not 8
