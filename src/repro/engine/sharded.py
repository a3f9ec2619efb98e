"""Sharded sketch construction: partition, build per shard, merge.

Mergeable sketches built from the *same seed* over disjoint sub-streams
combine into the sketch of the whole stream (for the tug-of-war sketch
the counters simply add — linearity again).  That makes the build
embarrassingly parallel: split a stream into shards, bulk-load one
sketch per shard, and :meth:`~repro.engine.protocol.Sketch.merge` the
results.  The merged sketch is **bit-identical** to a single-shot
build, which the test suite and ``benchmarks/bench_engine.py`` verify.

How the stream is split is a policy, factored out as
:class:`~repro.engine.partition.Partitioner`: the default contiguous
split is right for a one-shot parallel build, while the stable
value-hash split is the invariant the multi-process cluster layer
(:mod:`repro.cluster`) routes on.  Both give bit-identical merged
results for linear sketches — a value partition and a position
partition of the same multiset sum to the same counters.

The shards are built one after another, each through the vectorised
bulk path, so this is already far faster than per-element ingestion;
builds that run in parallel are the cluster layer's, whose shard
workers are processes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, TypeVar

import numpy as np

from .partition import ContiguousPartitioner, Partitioner
from .protocol import Sketch

__all__ = ["merge_sketches", "sharded_build"]

S = TypeVar("S", bound=Sketch)


def merge_sketches(sketches: Sequence[S]) -> S:
    """Combine a non-empty sequence of same-seed sketches with ``merge``.

    The combination is a *balanced tree*, not a left fold: adjacent
    pairs merge, then pairs of pairs, so ``n`` inputs take ``ceil(log2
    n)`` rounds of depth instead of ``n - 1`` sequential merges.  Wide
    scatter–gather merges (one sketch per cluster shard) therefore do
    not degrade to O(n) sequential work chains.  Merging is associative
    for every mergeable kind (integer counter addition / histogram
    union), so the result is bit-identical to the old left fold — the
    engine tests assert exactly that.
    """
    if not sketches:
        raise ValueError("cannot merge an empty sequence of sketches")
    level: List[S] = list(sketches)
    while len(level) > 1:
        paired = [
            level[i].merge(level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def sharded_build(
    factory: Callable[[], S],
    values: np.ndarray | Iterable[int],
    num_shards: int = 4,
    partitioner: Partitioner | None = None,
) -> S:
    """Build a sketch of ``values`` by sharding, bulk-loading, merging.

    Parameters
    ----------
    factory:
        Zero-argument callable producing a fresh, empty sketch.  Every
        call **must** produce sketches built from the same seed, or the
        merge step will (correctly) refuse to combine them.
    values:
        The insertion-only stream to sketch.
    num_shards:
        Number of partitions (also the number of shard sketches).
        Ignored when an explicit ``partitioner`` is given.
    partitioner:
        The split policy; defaults to a
        :class:`~repro.engine.partition.ContiguousPartitioner` over
        ``num_shards``.  Pass a
        :class:`~repro.engine.partition.HashPartitioner` to build under
        the cluster's value-partition invariant — for linear sketches
        the merged result is bit-identical either way.

    Returns
    -------
    The merged sketch — bit-identical to ``factory()`` bulk-loaded with
    the whole stream, for any linear sketch.
    """
    if partitioner is None:
        partitioner = ContiguousPartitioner(num_shards)
    arr = np.asarray(values, dtype=np.int64)
    parts = []
    for idx in partitioner.split(arr):
        sketch = factory()
        sketch.update_from_stream(arr[idx])
        parts.append(sketch)
    return merge_sketches(parts)
