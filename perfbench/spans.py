"""Span tracing around the served system's layer boundaries.

The benchmark never edits the program: a traced process calls
:func:`install` before it serves, which replaces the public functions
at each layer boundary (the names the program looks up at call time)
with timing wrappers.  Each wrapper records one span — layer, start,
end, parent span and the client op that caused it — in memory; the
process writes a per-op aggregate with :meth:`Tracer.summary` when it
shuts down.

Op attribution.  A *root* wrapper (the front's or the worker's frame
dispatch) opens one op per request frame and publishes it
process-wide, together with a stack of *anchor* spans.  Spans opened
on a thread with an empty span stack — the cluster's scatter threads —
take the innermost anchor as parent, so shard requests nest under the
cluster call that issued them.  This relies on one client op being in
flight per process at a time, which the closed-loop load generator
guarantees.

Self time.  A span's self time is its duration minus the part of it
that its children cover (interval union, so parallel shard requests
are not double counted).  Shard-request subtrees are kept apart: their
union per op is the front's shard critical path, which the load
generator later splits into front codec, worker service time and
waiting (:func:`breakdown`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_now = time.perf_counter

#: The layer of the front's per-shard request spans (kept apart from
#: the self-time tree, see :meth:`Tracer.summary`).
SHARD_REQUEST = "cluster.shard_request"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._anchors: list[int] = []
        self._op_seq = 0
        self._op_current: int | None = None
        self._op_names: dict[int, str] = {}
        # (span id, parent id, layer, op seq, start, end)
        self._spans: list[tuple] = []
        # (op seq, size key) -> [summed size, samples]
        self._sizes: dict[tuple, list] = defaultdict(lambda: [0, 0])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, *, root_op=None, anchor=False, size=None):
        """A timing wrapper around ``fn`` recording spans of ``layer``.

        ``root_op(args)`` marks a root: it names the op each call
        opens.  ``anchor`` lets scatter threads parent their spans on
        this one.  ``size = (key, fn(args, result) -> int)`` adds a
        per-op size counter.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if root_op is not None:
                tracer._op_seq += 1
                seq = tracer._op_seq
                tracer._op_names[seq] = root_op(args)
                tracer._op_current = seq
                parent = None
            else:
                seq = tracer._op_current
                if seq is None:
                    return fn(*args, **kwargs)
                if stack:
                    parent = stack[-1]
                elif tracer._anchors:
                    parent = tracer._anchors[-1]
                else:
                    return fn(*args, **kwargs)
            sid = next(tracer._ids)
            stack.append(sid)
            anchored = anchor or root_op is not None
            if anchored:
                tracer._anchors.append(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if anchored:
                    tracer._anchors.pop()
                if root_op is not None:
                    tracer._op_current = None
                tracer._spans.append((sid, parent, layer, seq, start, end))
            if size is not None:
                entry = tracer._sizes[(seq, size[0])]
                entry[0] += int(size[1](args, result))
                entry[1] += 1
            return result

        return wrapper

    def timed_enter(self, factory, layer: str):
        """Wrap a context-manager factory; only ``__enter__`` is a span.

        Used for the reader–writer lock, whose acquisition is the
        waiting this layer measures (the held section belongs to the
        caller's span).
        """
        tracer = self

        class _Timed:
            __slots__ = ("_cm",)

            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                return tracer.wrap(self._cm.__enter__, layer)()

            def __exit__(self, *exc_info):
                return self._cm.__exit__(*exc_info)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _Timed(factory(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summary(self, window: tuple[float, float] | None = None) -> dict:
        """Per-op-name aggregates of the recorded spans.

        With ``window = (start, end)`` (``time.perf_counter`` values,
        which are system-wide on Linux) only ops whose root span began
        inside it count.

        ``ops[op] = {"n", "dur"}`` counts root spans and sums their
        durations; ``self[op][layer]`` sums self time outside shard
        requests; ``shard[op]`` holds the union of shard-request
        intervals per op (``union``), their count (``requests``) and the
        self time of the spans inside them (``codec``); ``calls``
        counts spans per layer and ``sizes`` sums the size counters.
        """
        spans = self._spans
        if window is not None:
            lo, hi = window
            kept = {
                s[3] for s in spans if s[1] is None and lo <= s[4] <= hi
            }
            spans = [s for s in spans if s[3] in kept]
        by_id = {s[0]: s for s in spans}
        children: dict[int, list] = defaultdict(list)
        for s in spans:
            if s[1] is not None and s[1] in by_id:
                children[s[1]].append(s)
        in_request: dict[int, bool] = {}

        def under_request(sid: int) -> bool:
            chain = []
            found = False
            cur = by_id.get(sid)
            while cur is not None:
                known = in_request.get(cur[0])
                if known is not None:
                    found = known
                    break
                chain.append(cur[0])
                if cur[2] == SHARD_REQUEST:
                    found = True
                    break
                cur = by_id.get(cur[1]) if cur[1] is not None else None
            for link in chain:
                in_request[link] = found
            return found

        ops: dict = defaultdict(lambda: {"n": 0, "dur": 0.0})
        self_time: dict = defaultdict(lambda: defaultdict(float))
        calls: dict = defaultdict(lambda: defaultdict(int))
        shard: dict = defaultdict(
            lambda: {"union": 0.0, "requests": 0, "codec": defaultdict(float)}
        )
        requests_by_seq: dict[int, list] = defaultdict(list)
        for sid, parent, layer, seq, start, end in spans:
            op = self._op_names.get(seq, "?")
            calls[op][layer] += 1
            if parent is None:
                ops[op]["n"] += 1
                ops[op]["dur"] += end - start
            if layer == SHARD_REQUEST:
                requests_by_seq[seq].append((start, end))
                continue
            covered = _union(
                [(c[4], c[5]) for c in children.get(sid, ())], start, end
            )
            own = (end - start) - covered
            if parent is not None and under_request(parent):
                shard[op]["codec"][layer] += own
            else:
                self_time[op][layer] += own
        for seq, intervals in requests_by_seq.items():
            op = self._op_names.get(seq, "?")
            shard[op]["union"] += _union(intervals, float("-inf"), float("inf"))
            shard[op]["requests"] += len(intervals)
        seqs = {s[3] for s in spans}
        sizes: dict = defaultdict(lambda: defaultdict(int))
        for (seq, key), (value, count) in self._sizes.items():
            if seq in seqs:
                entry = sizes[self._op_names.get(seq, "?")]
                entry[key] += value
                entry[key + ".n"] += count
        return {
            "ops": {k: dict(v) for k, v in ops.items()},
            "self": {k: dict(v) for k, v in self_time.items()},
            "calls": {k: dict(v) for k, v in calls.items()},
            "shard": {
                k: {**v, "codec": dict(v["codec"])} for k, v in shard.items()
            },
            "sizes": {k: dict(v) for k, v in sizes.items()},
        }

    def write(self, path: str, window=None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.summary(window), handle)


def _union(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _opcode_name(args) -> str:
    from repro.service import wire

    # handle_frame(service, version, opcode, flags, payload)
    return wire.OPCODE_NAMES.get(args[2], str(args[2]))


def _spans_in_window(args, result) -> int:
    store, lo, hi = args[0], int(args[1]), int(args[2])
    b0 = (lo - store.origin) // store.bucket_width
    b1 = (hi - store.origin) // store.bucket_width
    return sum(1 for s, e in store.bucket_spans if s < b1 and e > b0)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of this process's ``repro`` modules.

    The same set is installed in the front and in the workers; a
    wrapper that a process never calls records nothing.
    """
    import repro.kernels as kernels
    from repro.cluster import client as cluster_client
    from repro.cluster import service as cluster_service
    from repro.core.hashing import PolynomialHashFamily
    from repro.core.tugofwar import TugOfWarSketch
    from repro.engine.partition import HashPartitioner
    from repro.service import aserver, server, surface, wire
    from repro.service.concurrency import ReadWriteLock
    from repro.service.keyed import KeyedSketchService
    from repro.service.service import SketchService
    from repro.store import keyed as store_keyed
    from repro.store import spec as store_spec
    from repro.store import windowed as store_windowed

    def patch(owner, name, layer, **kwargs):
        setattr(owner, name, tracer.wrap(getattr(owner, name), layer, **kwargs))

    # Frame dispatch: the root of every op (front and worker).
    patch(aserver, "handle_frame", "aserver.dispatch", root_op=_opcode_name)
    patch(server, "handle_frame", "service.dispatch", root_op=_opcode_name)
    # repro.service.wire: payload codec on both sides of every hop.
    for name in ("unpack_ingest", "decode_compact"):
        patch(wire, name, "wire.decode")
    for name in ("encode_compact", "pack_ingest"):
        patch(wire, name, "wire.encode")
    patch(wire, "pack_frame", "wire.encode",
          size=("wire.frame_bytes", lambda args, result: len(result)))
    # repro.cluster: routing, fan-out, shard round trips, gather.
    for name in ("ingest", "estimate_window", "sketch_window", "info", "stats"):
        patch(cluster_service.ClusterService, name, "cluster.fanout",
              anchor=True)
    HashPartitioner.split = tracer.wrap(HashPartitioner.split, "cluster.route")
    patch(cluster_service, "stable_hash64", "cluster.route")
    patch(cluster_service, "gather_merge", "cluster.gather")
    patch(cluster_client.ShardClient, "request", SHARD_REQUEST)
    # repro.service.service / keyed / concurrency: the worker's service.
    for cls in (SketchService, KeyedSketchService):
        patch(cls, "ingest", "service.ingest")
        patch(cls, "sketch_window", "service.query")
        patch(cls, "estimate_window", "service.query")
    for name in ("read", "write"):
        setattr(ReadWriteLock, name, tracer.timed_enter(
            getattr(ReadWriteLock, name), "service.lock_wait"))
    # repro.store: bucket routing, merge-on-query, sketch construction.
    patch(store_windowed.WindowedSketchStore, "ingest", "store.ingest")
    patch(store_keyed.KeyedSketchStore, "ingest", "store.ingest")
    patch(store_windowed.WindowedSketchStore, "query_resolved", "store.query",
          size=("store.spans", _spans_in_window))
    patch(store_keyed.KeyedSketchStore, "query", "store.query")
    patch(store_spec.SketchSpec, "build", "store.build")
    # repro.engine: per-bucket histogram, (de)serialisation, merge.
    patch(store_windowed, "ingest_stream", "engine.ingest")
    patch(surface, "dump_sketch", "engine.serialize")
    patch(cluster_service, "load_sketch", "engine.deserialize")
    patch(TugOfWarSketch, "merge", "engine.merge")
    # repro.kernels: the fused scatter.
    patch(kernels, "tugofwar_scatter", "kernels.scatter",
          size=("kernels.events", lambda args, result: len(args[1])))
    # repro.core: hash-family construction and the estimators.
    patch(PolynomialHashFamily, "__init__", "core.hash_family")
    patch(TugOfWarSketch, "estimate", "core.estimate")
    patch(TugOfWarSketch, "inner_product", "core.estimate")


# ----------------------------------------------------------------------
# Cross-process accounting
# ----------------------------------------------------------------------
#: Client op -> (front op it sends, front ops per client op, worker op).
CLIENT_OPS = {
    "ingest": ("ingest", 1, "ingest"),
    "estimate": ("estimate", 1, "sketch"),
    "join": ("sketch", 2, "sketch"),
}


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum several processes' :meth:`Tracer.summary` outputs."""
    out: dict = {"ops": {}, "self": {}, "calls": {}, "shard": {}, "sizes": {}}
    for summary in summaries:
        for op, entry in summary["ops"].items():
            slot = out["ops"].setdefault(op, {"n": 0, "dur": 0.0})
            slot["n"] += entry["n"]
            slot["dur"] += entry["dur"]
        for field in ("self", "calls", "sizes"):
            for op, layers in summary[field].items():
                slot = out[field].setdefault(op, {})
                for layer, value in layers.items():
                    slot[layer] = slot.get(layer, 0) + value
        for op, entry in summary["shard"].items():
            slot = out["shard"].setdefault(
                op, {"union": 0.0, "requests": 0, "codec": {}}
            )
            slot["union"] += entry["union"]
            slot["requests"] += entry["requests"]
            for layer, value in entry["codec"].items():
                slot["codec"][layer] = slot["codec"].get(layer, 0.0) + value
    return out


def breakdown(front: dict, workers: dict, client: dict) -> dict:
    """Per client op: each layer's self seconds on the op's blocking path.

    ``client[op] = {"n", "e2e", "layers"}`` comes from the load
    generator (count, summed latency, summed client-side layer time).
    A client op's latency is split into

    * the front's self time per layer (``f`` front ops per client op);
    * the front's shard critical path — the union of its parallel shard
      requests — split into the front's request codec (mean per
      request), the worker's layers (mean per worker request) and
      ``cluster.shard_wait_s``, the rest of the round trip;
    * client-side layers (the join's decode, deserialise, estimate);
    * ``other``: time no span owns — the load generator's socket
      calls and the front's event loop, queueing and executor hop.

    Means are per-op aggregates, because op ids do not cross processes.
    """
    result = {}
    for op, stats in client.items():
        if not stats["n"] or op not in CLIENT_OPS:
            continue
        front_op, per_client, worker_op = CLIENT_OPS[op]
        front_ops = front["ops"].get(front_op, {"n": 0, "dur": 0.0})
        n_front = front_ops["n"] or 1
        layers: dict[str, float] = defaultdict(float)
        for layer, t in front["self"].get(front_op, {}).items():
            layers[layer] += per_client * t / n_front
        shard = front["shard"].get(front_op)
        requests_per_op = 0.0
        if shard and shard["requests"]:
            n_req = shard["requests"]
            requests_per_op = n_req / n_front
            worker_ops = workers["ops"].get(worker_op, {"n": 0, "dur": 0.0})
            n_worker = worker_ops["n"] or 1
            codec = 0.0
            for layer, t in shard["codec"].items():
                layers[layer] += per_client * t / n_req
                codec += t / n_req
            for layer, t in workers["self"].get(worker_op, {}).items():
                layers[layer] += per_client * t / n_worker
            wait = shard["union"] / n_front - codec - worker_ops["dur"] / n_worker
            layers["cluster.shard_wait"] += per_client * wait
        for layer, t in stats["layers"].items():
            layers[layer] += t / stats["n"]
        e2e = stats["e2e"] / stats["n"]
        owned = per_client * front_ops["dur"] / n_front + sum(
            t for t in stats["layers"].values()
        ) / stats["n"]
        result[op] = {
            "n": stats["n"],
            "e2e_s": e2e,
            "layers_s": dict(layers),
            "other_s": e2e - owned,
            "shard_requests": per_client * requests_per_op,
        }
    return result
