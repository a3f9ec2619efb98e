"""Served-fleet benchmark: ingest, windowed queries and tenant joins.

Run from the repository root::

    python3 perfbench/run.py --workload stream-ingest --seed 1 --seconds 10 --trace 0

It launches the fleet ``repro serve --shards 2`` deploys — an asyncio
front over a scatter-gather cluster of two shard workers, replication
1, binary wire, kernel backend ``auto`` — and drives it from this
process, the load generator, over one connection in a closed loop.
Every answer is checked against an in-process monolithic store; any
failed op or mismatch makes the run exit 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  The
run is split over one fresh fleet per ``FLEET_SECONDS`` of ``--seconds``
(at least one, at most ``MAX_FLEETS``), each set up, run for its share
of the time and checked; ``setup_s`` is the median set-up and the
latencies of all of them are pooled.  ``ingest_eps`` is the events of
the fastest 95% of ingest requests over their summed latency, so that a
few stalled requests do not swing it; each fleet's rate over all its
requests is in the ``detail`` line.  p99 tails,
where at least 1000 samples support them, and the error rate are in
the ``detail`` line; they are not gated metrics.
Timings are reported at a reference host speed: the load generator
times a fixed calibration loop between requests (``harness.HostSpeed``)
and divides times — multiplies rates — by how much slower than the
reference the host ran; the ``detail`` line also gives them as measured.
``--trace 1`` runs the workload twice on fresh fleets, untraced then
traced, each for half the time, and prints the per-layer metrics: every
fleet process times the calls into each layer's public functions
(``spans.py``) and the load generator attributes each op's latency to
the layers.  Before the result line the run prints a ``stamp`` line
(host, kernels, seed, sizes) and a ``detail`` line (tail latencies,
error rate, and in traced runs the per-op breakdown).

Build outputs — the compiled kernel library, temporary files and
process logs — go to ``.bench_build/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
SIMD_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
              "avx512bw", "avx512vl", "neon", "asimd")
#: Layers whose self time the traced run reports, in seconds per op.
TIME_LAYERS = (
    "wire.decode", "wire.encode", "aserver.dispatch", "cluster.route",
    "cluster.fanout", "cluster.shard_wait", "cluster.gather",
    "service.dispatch", "service.ingest", "service.query",
    "service.lock_wait", "store.ingest", "store.query", "store.build",
    "engine.ingest", "engine.serialize", "engine.deserialize",
    "engine.merge", "kernels.scatter", "core.hash_family", "core.estimate",
)
#: Calibration samples taken before and after each fleet set-up.
SETUP_SAMPLES = 20
#: Pings timed on each fresh fleet (the transport floor).
PINGS = 100
#: p99 is reported only from at least this many samples.
P99_MIN_SAMPLES = 1000
#: The untraced run launches one fresh fleet per this many seconds ...
FLEET_SECONDS = 5.0
#: ... and at most this many.
MAX_FLEETS = 5
#: ``ingest_eps`` counts the ingest requests up to this latency quantile:
#: the slowest 5%, where a stall or a burst of host contention lands,
#: would otherwise swing the rate from run to run.
INGEST_KEEP = 0.95


def _prepare(root: str) -> str:
    """Point the program and its build outputs at this checkout."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program source at {src}/repro; run from the "
            "repository root"
        )
    build = os.path.join(root, BUILD_DIR)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(build, "repro-kernels")
    os.environ["REPRO_KERNEL_BACKEND"] = "auto"
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    return build


def _host() -> dict:
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                name, _, value = line.partition(":")
                name = name.strip()
                if name == "model name" and model == "unknown":
                    model = value.strip()
                elif name in ("flags", "Features") and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "simd": [flag for flag in SIMD_FLAGS if flag in flags],
        "python": platform.python_version(),
    }


def _warm_kernels() -> dict:
    """Load the kernel backend before anything is timed.

    The first run in a checkout compiles the cffi library into
    ``.bench_build/repro-kernels``; later runs and the fleet processes
    load it from there.
    """
    from repro import kernels

    cache = os.environ["REPRO_KERNEL_CACHE"]
    cached = os.path.isdir(cache) and any(
        name.endswith(".so") for name in os.listdir(cache)
    )
    start = time.perf_counter()
    kernels.tugofwar_scatter(
        np.ones((1, 4), dtype=np.uint64), [1], [1], np.zeros(1, dtype=np.int64)
    )
    elapsed = time.perf_counter() - start
    compiled = kernels.active_backend() == "cffi" and not cached
    return {"kernel_load_s": elapsed,
            "kernel_compile_s": elapsed if compiled else 0.0}


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def _tails(recs) -> dict:
    """Sample counts, and p99 where at least 1000 samples support it."""
    tails = {}
    for op in ("ingest", "query"):
        samples = [t for rec in recs for t in rec.latency[op]]
        tails[f"{op}_samples"] = len(samples)
        if len(samples) >= P99_MIN_SAMPLES:
            tails[f"{op}_p99_ms"] = (
                statistics.quantiles(samples, n=100)[98] * 1000.0
            )
    return tails


def _segment(workload, build: str, seconds: float, trace_dir=None,
             corrupt: bool = False) -> dict:
    """Launch a fleet (and pre-load it), run for ``seconds``, check, stop.

    The set-up is bracketed by calibration samples and the run ticks its
    own :class:`~harness.HostSpeed`, so every timing can be scaled to
    the reference host speed.
    """
    from harness import Fleet, HostSpeed
    from workloads import Recorder

    log = os.path.join(build, f"fleet-{os.getpid()}.log")
    around = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        around.sample()
    start = time.perf_counter()
    fleet = Fleet(workload.config(), log, trace_dir=trace_dir)
    try:
        workload.preload(fleet.conn, Recorder())
        setup = time.perf_counter() - start
        for _ in range(SETUP_SAMPLES):
            around.sample()
        conn = fleet.conn
        pings = []
        for _ in range(PINGS):
            begin = time.perf_counter()
            conn.request("ping")
            pings.append(time.perf_counter() - begin)
        before = conn.request("stats")["cache"]
        clock = HostSpeed()
        rec = Recorder(clock)
        window_start = time.perf_counter()
        workload.run(conn, rec, seconds)
        window_end = time.perf_counter()
        if trace_dir is not None:
            with open(os.path.join(trace_dir, "window.json"), "w") as handle:
                json.dump([window_start, window_end], handle)
        after = conn.request("stats")["cache"]
        workload.final_checks(conn)
        info = conn.request("info")
        rss = fleet.rss_mb()
    finally:
        fleet.close()
    if corrupt:
        workload.corrupt()
    hits = after["hits"] - before["hits"]
    return {
        "rec": rec,
        "mismatches": workload.gate(),
        "slowness": clock.slowness,
        "setup_raw_s": setup,
        "setup_s": setup / around.slowness,
        "ping_ms": _median_ms(pings),
        "rss_mb": rss,
        "state_words": (
            workload.state_words if workload.state_words is not None
            else int(info["memory_words"])
        ),
        "cache_hits": hits,
        "cache_lookups": hits + after["misses"] - before["misses"],
    }


def _ingest_rate(sizes: list[int], latency: list[float]) -> float:
    """Events per second of the ingests up to the ``INGEST_KEEP`` quantile."""
    latency = np.asarray(latency)
    kept = latency <= np.quantile(latency, INGEST_KEEP)
    return float(np.asarray(sizes)[kept].sum() / latency[kept].sum())


def _end_to_end(segments: list[dict]) -> tuple[dict, dict]:
    """Pooled end-to-end metrics at reference host speed, and as measured.

    Each segment's latencies are scaled by that segment's slowness, then
    pooled; set-up, memory and state are medians over segments.
    """
    def pooled(op: str, scale: bool) -> list[float]:
        return [t / (s["slowness"] if scale else 1.0)
                for s in segments for t in s["rec"].latency[op]]

    sizes = [n for s in segments for n in s["rec"].ingest_sizes]
    metrics, measured = {}, {}
    for scale, out in ((True, metrics), (False, measured)):
        out["setup_s"] = (statistics.median(
            s["setup_s" if scale else "setup_raw_s"] for s in segments), "s")
        out["ingest_eps"] = (_ingest_rate(sizes, pooled("ingest", scale)), "1/s")
        out["ingest_p50_ms"] = (_median_ms(pooled("ingest", scale)), "ms")
        out["query_p50_ms"] = (_median_ms(pooled("query", scale)), "ms")
    metrics["rss_mb"] = (statistics.median(s["rss_mb"] for s in segments), "MiB")
    metrics["state_words"] = (
        statistics.median(s["state_words"] for s in segments), "words")
    return metrics, {name: value for name, (value, _) in measured.items()}


def _segment_detail(segment: dict) -> dict:
    rec = segment["rec"]
    return {
        "slowness": segment["slowness"],
        "setup_s": segment["setup_raw_s"],
        "ingest_eps": _ingest_rate(rec.ingest_sizes, rec.latency["ingest"]),
        "ingest_eps_all": rec.events / sum(rec.latency["ingest"]),
        "ingest_p50_ms": _median_ms(rec.latency["ingest"]),
        "query_p50_ms": _median_ms(rec.latency["query"]),
    }


def _client_ops(rec) -> dict:
    """Per client op: count, summed latency, summed client-side layers."""
    ops = {}
    if rec.latency["ingest"]:
        ops["ingest"] = {"n": len(rec.latency["ingest"]),
                         "e2e": sum(rec.latency["ingest"]), "layers": {}}
    if rec.latency["query"]:
        op = "join" if rec.ops.get("join") else "estimate"
        ops[op] = {"n": len(rec.latency["query"]),
                   "e2e": sum(rec.latency["query"]),
                   "layers": dict(rec.client_layers)}
    return ops


def _per_layer(untraced: dict, traced: dict, trace_dir: str) -> tuple[dict, dict]:
    """The traced run's per-layer metrics and the per-op breakdown.

    Times are scaled to the reference host speed like the end-to-end
    metrics; the breakdown in the returned detail is as measured.
    """
    from spans import breakdown, merge_summaries

    def load(name):
        with open(os.path.join(trace_dir, f"{name}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    front = load("front")
    workers = merge_summaries([load("worker0"), load("worker1")])
    fleet = merge_summaries([front, workers])
    ops = breakdown(front, workers, _client_ops(traced["rec"]))
    plain = _client_ops(untraced["rec"])
    total = sum(entry["n"] for entry in ops.values())

    slow = traced["slowness"]

    def per_op(values) -> float:
        return sum(values) / total / slow

    metrics = {
        f"{name}_s": (per_op(e["n"] * e["layers_s"].get(name, 0.0)
                             for e in ops.values()), "s/op")
        for name in TIME_LAYERS
    }

    def count(layer: str, field: str = "calls") -> float:
        return sum(layers.get(layer, 0) for layers in fleet[field].values())

    scatter_calls = count("kernels.scatter")
    worker_sketch = workers["sizes"].get("sketch", {})
    rec = traced["rec"]
    metrics.update({
        "wire.ingest_request_bytes": (
            rec.ingest_bytes / max(len(rec.latency["ingest"]), 1), "B"),
        "wire.sketch_response_bytes": (
            worker_sketch.get("wire.frame_bytes", 0)
            / max(worker_sketch.get("wire.frame_bytes.n", 0), 1), "B"),
        "aserver.ping_ms": (untraced["ping_ms"] / untraced["slowness"], "ms"),
        "cluster.shard_requests": (
            per_op(e["n"] * e["shard_requests"] for e in ops.values()), "count/op"),
        "service.cache_hit_ratio": (
            traced["cache_hits"] / max(traced["cache_lookups"], 1), "ratio"),
        "store.sketch_builds": (count("store.build") / total, "count/op"),
        "store.spans_per_query": (
            count("store.spans", "sizes") / max(count("store.spans.n", "sizes"), 1),
            "count"),
        "kernels.scatter_calls": (scatter_calls / total, "count/op"),
        "kernels.events_per_call": (
            count("kernels.events", "sizes") / max(scatter_calls, 1), "count"),
        "core.hash_family_builds": (count("core.hash_family") / total, "count/op"),
        "trace.unowned_s": (per_op(e["n"] * e["other_s"] for e in ops.values()), "s/op"),
        "trace.e2e_s": (per_op(e["n"] * e["e2e_s"] for e in ops.values()), "s/op"),
        "trace.overhead_s": (
            per_op(e["n"] * (e["e2e_s"] - plain[op]["e2e"] / plain[op]["n"]
                             * slow / untraced["slowness"])
                   for op, e in ops.items() if op in plain), "s/op"),
    })
    detail = {
        op: {
            "ops": e["n"],
            "e2e_traced_ms": e["e2e_s"] * 1e3,
            "e2e_untraced_ms": plain[op]["e2e"] / plain[op]["n"] * 1e3
            if op in plain else None,
            "self_ms": {k: v * 1e3 for k, v in sorted(e["layers_s"].items())},
            "other_ms": e["other_s"] * 1e3,
            "other_share": e["other_s"] / e["e2e_s"],
        }
        for op, e in ops.items()
    }
    detail["cache_hit_base"] = traced["cache_lookups"]
    detail["host_slowness"] = {"untraced": untraced["slowness"], "traced": slow}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one recorded answer (gate self-test)")
    args = parser.parse_args(argv)

    build = _prepare(os.getcwd())
    sys.path.insert(0, HERE)
    from repro import kernels
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    warm = _warm_kernels()
    stamp = {**_host(), "numpy": np.__version__,
             "kernels": kernels.kernel_info(), **warm,
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    workload_cls = WORKLOADS[args.workload]

    if args.trace:
        trace_dir = os.path.join(build, f"trace-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
        half = args.seconds / 2.0
        plain = _segment(workload_cls(args.seed), build, half,
                         corrupt=args.corrupt)
        traced_workload = workload_cls(args.seed)
        traced = _segment(traced_workload, build, half, trace_dir=trace_dir)
        segments = [plain, traced]
        metrics, detail = _per_layer(plain, traced, trace_dir)
        for name in os.listdir(trace_dir):
            os.unlink(os.path.join(trace_dir, name))
        os.rmdir(trace_dir)
        stamp["sizes"] = traced_workload.sizes()
    else:
        # The run is split over several fresh fleets: each launch lands
        # its processes differently on the cores, and pooling segments
        # measures the fleet, not one launch.
        fleets = max(1, min(MAX_FLEETS, int(args.seconds // FLEET_SECONDS)))
        workloads = [workload_cls(args.seed) for _ in range(fleets)]
        segments = [
            _segment(w, build, args.seconds / fleets,
                     corrupt=args.corrupt and i == 0)
            for i, w in enumerate(workloads)
        ]
        metrics, measured = _end_to_end(segments)
        lookups = sum(s["cache_lookups"] for s in segments)
        detail = {
            "measured": measured,
            "segments": [_segment_detail(s) for s in segments],
            "tails": _tails([s["rec"] for s in segments]),
            "ping_ms": statistics.median(s["ping_ms"] for s in segments),
            "cache_hit_ratio": sum(s["cache_hits"] for s in segments) / max(lookups, 1),
            "cache_hit_base": lookups,
        }
        stamp["sizes"] = workloads[-1].sizes()

    attempted = sum(s["rec"].attempted for s in segments)
    failed = sum(s["rec"].failed + len(s["mismatches"]) for s in segments)
    detail["op_error_rate"] = failed / max(attempted, 1)
    detail["errors"] = [
        m for s in segments for m in s["rec"].errors + s["mismatches"]
    ][:10]
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
