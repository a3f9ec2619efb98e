"""Command-line interface: reproduce any paper figure or table.

Usage (also via ``python -m repro``):

    python -m repro table1 [--scale 0.1] [--seed 0]
    python -m repro figure 2 [--scale 0.1] [--max-log2-s 12]
    python -m repro figure 15
    python -m repro convergence [--datasets poisson mf2]
    python -m repro section44 [--paper-values]
    python -m repro sweep --dataset zipf1.0 [--scale 0.05]

Sketch persistence and distributed builds (the engine layer)::

    python -m repro sketch build --kind tugofwar --dataset zipf1.0 \
        --shards 4 --out sk.json
    python -m repro sketch info sk.json
    python -m repro sketch merge left.json right.json --out union.json
    python -m repro sketch estimate union.json
    python -m repro sketch kinds

The windowed store (continuous maintenance over time buckets)::

    python -m repro store init --kind tugofwar --bucket-width 100 \
        --out st.json
    python -m repro store init --kind fk_moments --moment-k 3 --keyed \
        --bucket-width 100 --out fleet.json
    python -m repro store ingest st.json --events-file events.txt
    python -m repro store ingest fleet.json --events-file events.txt \
        --key tenant-a
    python -m repro store query st.json --from 0 --until 1000
    python -m repro store query fleet.json --from 0 --until 1000 \
        --key tenant-a
    python -m repro store compact st.json --before 500
    python -m repro store snapshot st.json --out checkpoint.json
    python -m repro store info st.json

The estimation service (line-delimited JSON over TCP)::

    python -m repro serve st.json --port 7099
    echo '{"op": "estimate", "from": 0, "until": 1000}' | nc 127.0.0.1 7099

The scale-out cluster (hash-partitioned shard workers behind one
cluster-aware front end speaking the same wire protocol)::

    python -m repro serve st.json --shards 4 --port 7099
    python -m repro cluster info --connect 127.0.0.1:7099
    python -m repro cluster estimate --connect 127.0.0.1:7099 \
        --from 0 --until 1000
    python -m repro cluster ingest-bench --connect 127.0.0.1:7099 \
        --events 100000

The query planner (join-graph enumeration over estimator policies)::

    python -m repro plan --shape chain --relations 6 --policy all
    python -m repro plan --shape star --relations 5 --enumerator dp-bushy \
        --allow-cross-products

Every reproduction subcommand prints the same rows/series the
corresponding paper artifact reports.  Heavy runs scale down with
``--scale`` (fraction of the paper's stream lengths).  User-level
failures (missing files, corrupt payloads, unknown kinds, misaligned
windows, unknown figure/data-set/algorithm names) exit with code 2 and
a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


class CliError(Exception):
    """A user-correctable failure: printed as one line, exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables and figures from 'Tracking Join and "
        "Self-Join Sizes in Limited Storage' (PODS 1999).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scale_default: float = 0.1) -> None:
        p.add_argument("--scale", type=float, default=scale_default,
                       help="fraction of the paper's stream lengths (1.0 = paper)")
        p.add_argument("--seed", type=int, default=0)

    p_table1 = sub.add_parser("table1", help="Table 1: data-set characteristics")
    add_common(p_table1)

    p_fig = sub.add_parser("figure", help="Figures 2-15")
    p_fig.add_argument("number", type=int, help="figure number (2-15)")
    add_common(p_fig)
    p_fig.add_argument("--max-log2-s", type=int, default=12,
                       help="largest sample size 2^this (paper: 14)")
    p_fig.add_argument("--repeats", type=int, default=1,
                       help="estimates per point (paper plots 1)")

    p_conv = sub.add_parser(
        "convergence", help="Section 3.1: 15%%-convergence summary"
    )
    add_common(p_conv, scale_default=0.05)
    p_conv.add_argument("--max-log2-s", type=int, default=12)
    p_conv.add_argument("--datasets", nargs="*", default=None,
                        help="subset of Table 1 names (default: all)")

    p_s44 = sub.add_parser("section44", help="Section 4.4: k-TW vs sampling")
    add_common(p_s44)
    p_s44.add_argument("--paper-values", action="store_true",
                       help="use the paper's (n, SJ) instead of generating data")

    p_sweep = sub.add_parser("sweep", help="accuracy sweep on one data set")
    p_sweep.add_argument("--dataset", required=True)
    add_common(p_sweep, scale_default=0.05)
    p_sweep.add_argument("--max-log2-s", type=int, default=12)
    p_sweep.add_argument("--repeats", type=int, default=1)

    p_sketch = sub.add_parser(
        "sketch", help="build, save, load, and merge sketches (engine layer)"
    )
    sketch_sub = p_sketch.add_subparsers(dest="sketch_command", required=True)

    p_build = sketch_sub.add_parser(
        "build", help="bulk-load a sketch from a stream and save it as JSON"
    )
    p_build.add_argument("--kind", default="tugofwar",
                         help="registered sketch kind (see `sketch kinds`)")
    source = p_build.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="Table 1 data-set name")
    source.add_argument("--values-file",
                        help="text file of whitespace-separated integer values")
    p_build.add_argument("--scale", type=float, default=0.1,
                         help="fraction of the paper stream length (with --dataset)")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--s1", type=int, default=256,
                         help="accuracy parameter (ignored by frequency)")
    p_build.add_argument("--s2", type=int, default=5,
                         help="confidence parameter (ignored by frequency)")
    p_build.add_argument("--moment-k", type=int, default=2,
                         help="moment order for the fk_moments kind "
                         "(F_k = sum of f_v^k; ignored by other kinds)")
    p_build.add_argument("--shards", type=int, default=1,
                         help="sharded build: partition, build per shard, merge "
                         "(mergeable kinds only)")
    p_build.add_argument("--workers", type=int, default=None,
                         help="thread count for the sharded build (default serial)")
    p_build.add_argument("--out", required=True, help="output JSON path")

    p_info = sketch_sub.add_parser("info", help="inspect a saved sketch")
    p_info.add_argument("path")

    p_estimate = sketch_sub.add_parser(
        "estimate", help="print a saved sketch's estimate"
    )
    p_estimate.add_argument("path")

    p_merge = sketch_sub.add_parser(
        "merge", help="merge two or more same-seed saved sketches"
    )
    p_merge.add_argument("paths", nargs="+", help="input sketch JSON files")
    p_merge.add_argument("--out", required=True, help="output JSON path")

    sketch_sub.add_parser(
        "kinds", help="list registered sketch kinds and what each estimates"
    )

    p_store = sub.add_parser(
        "store", help="windowed sketch store: continuous maintenance over time"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_st_init = store_sub.add_parser(
        "init", help="create an empty windowed store file"
    )
    p_st_init.add_argument("--kind", default="tugofwar",
                           help="registered sketch kind for every bucket")
    p_st_init.add_argument("--bucket-width", type=int, required=True,
                           help="time units per bucket")
    p_st_init.add_argument("--origin", type=int, default=0,
                           help="timestamp where bucket 0 begins")
    p_st_init.add_argument("--s1", type=int, default=256)
    p_st_init.add_argument("--s2", type=int, default=5)
    p_st_init.add_argument("--seed", type=int, default=0)
    p_st_init.add_argument("--moment-k", type=int, default=2,
                           help="moment order for the fk_moments kind "
                           "(ignored by other kinds)")
    p_st_init.add_argument("--keyed", action="store_true",
                           help="create a keyed fleet: every key gets its "
                           "own windowed store built lazily from this "
                           "template (multi-tenant isolation)")
    p_st_init.add_argument("--max-keys", type=int, default=None,
                           help="with --keyed: refuse ingest for new keys "
                           "beyond this many (default unbounded)")
    p_st_init.add_argument("--retention", type=int, default=None,
                           help="buckets of history to keep hot; older spans "
                           "are compacted or evicted after each ingest")
    p_st_init.add_argument("--retention-policy", choices=("compact", "evict"),
                           default="compact")
    p_st_init.add_argument("--out", required=True, help="output JSON path")

    p_st_ingest = store_sub.add_parser(
        "ingest", help="route a timestamped batch into the store's buckets"
    )
    p_st_ingest.add_argument("path", help="store JSON file (updated in place)")
    p_st_ingest.add_argument("--events-file", required=True,
                             help="whitespace-separated columns: timestamp "
                             "value [signed count]")
    p_st_ingest.add_argument("--workers", type=int, default=None,
                             help="thread count for per-bucket loading")
    p_st_ingest.add_argument("--key", default=None,
                             help="stream key of the batch (required for "
                             "keyed fleets, refused by plain stores)")

    p_st_query = store_sub.add_parser(
        "query", help="merge-on-query estimate over a time window"
    )
    p_st_query.add_argument("path")
    p_st_query.add_argument("--from", dest="t0", type=int, required=True,
                            help="window start (inclusive)")
    p_st_query.add_argument("--until", dest="t1", type=int, required=True,
                            help="window end (exclusive)")
    p_st_query.add_argument("--align", choices=("strict", "outer"),
                            default="strict",
                            help="strict: window must hit bucket/span "
                            "boundaries; outer: expand to the covering spans")
    p_st_query.add_argument("--key", default=None,
                            help="stream key to query (required for keyed "
                            "fleets, refused by plain stores)")

    p_st_compact = store_sub.add_parser(
        "compact", help="fold old bucket spans into one merged span"
    )
    p_st_compact.add_argument("path")
    p_st_compact.add_argument("--before", type=int, default=None,
                              help="bucket boundary; spans entirely before it "
                              "are merged (default: all spans)")

    p_st_snapshot = store_sub.add_parser(
        "snapshot", help="checkpoint the store to another file"
    )
    p_st_snapshot.add_argument("path")
    p_st_snapshot.add_argument("--out", required=True,
                               help="checkpoint JSON path")

    p_st_info = store_sub.add_parser("info", help="inspect a store file")
    p_st_info.add_argument("path")

    p_plan = sub.add_parser(
        "plan", help="enumerate join plans over a seeded workload and "
        "compare estimator policies"
    )
    p_plan.add_argument("--shape", choices=("chain", "star", "clique"),
                        default="chain",
                        help="join-graph topology of the workload")
    p_plan.add_argument("--relations", type=int, default=6,
                        help="number of relations in the workload")
    p_plan.add_argument("--rows", type=int, default=4000,
                        help="base relation cardinality (the fact table of a "
                        "star is 20x this)")
    p_plan.add_argument("--policy",
                        choices=("exact", "sketch", "bound", "all"),
                        default="all",
                        help="cardinality-estimation backend(s) to plan under")
    p_plan.add_argument("--enumerator",
                        choices=("greedy", "dp-leftdeep", "dp-bushy"),
                        default="dp-bushy",
                        help="plan-enumeration algorithm")
    p_plan.add_argument("--k", type=int, default=1024,
                        help="signature words per relation (sketch/bound "
                        "policies)")
    p_plan.add_argument("--confidence", type=float, default=1.0,
                        help="error-bound multiplier of the bound-aware "
                        "policy (standard errors added to each estimate)")
    p_plan.add_argument("--allow-cross-products", action="store_true",
                        help="let plans join unconnected relation sets "
                        "(costed as cartesian products)")
    p_plan.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve", help="serve windowed estimates over TCP "
        "(line-JSON and binary frames on one port)"
    )
    p_serve.add_argument("path", help="store JSON file (loaded into memory)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = pick an ephemeral port)")
    p_serve.add_argument("--cache-entries", type=int, default=256,
                         help="merged-window LRU cache capacity")
    p_serve.add_argument("--max-requests", type=int, default=None,
                         help="exit after serving this many requests "
                         "(bounded smoke runs)")
    p_serve.add_argument("--shards", type=int, default=None, metavar="N",
                         help="serve a scale-out cluster: spawn N shard "
                         "worker processes on ephemeral ports (the store "
                         "file is the config template and must be empty; "
                         "ingest is value-hash routed, queries are "
                         "scatter-gathered)")
    p_serve.add_argument("--replication", type=int, default=1, metavar="R",
                         help="with --shards: workers per shard (replica "
                         "set); ingest fans out to every replica, queries "
                         "are hedged, and a dead replica is respawned and "
                         "restored from a healthy peer")
    p_serve.add_argument("--read-timeout", type=float, default=300.0,
                         help="per-connection read timeout in seconds "
                         "(0 disables); stalled clients cannot pin "
                         "handler threads")
    p_serve.add_argument("--protocol", choices=("auto", "json", "binary"),
                         default="auto",
                         help="wire protocols accepted: 'auto' sniffs each "
                         "connection's first byte and serves both; 'json' "
                         "or 'binary' restrict the port to one")
    p_serve.add_argument("--max-frame-bytes", type=int, default=None,
                         metavar="N",
                         help="refuse binary frames with payloads larger "
                         "than N bytes (default 64 MiB); also bounds a "
                         "JSON request line")

    p_cluster = sub.add_parser(
        "cluster", help="scale-out cluster: shard workers and wire tools"
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    p_cw = cluster_sub.add_parser(
        "worker", help="run one shard worker (spawned by `serve --shards`; "
        "announces a JSON ready line with its bound port)"
    )
    p_cw.add_argument("--config-json", required=True,
                      help="store template JSON: "
                      '{"spec": {...}, "bucket_width": ..., "origin": ...}')
    p_cw.add_argument("--host", default="127.0.0.1")
    p_cw.add_argument("--port", type=int, default=0,
                      help="TCP port (0 = pick an ephemeral port)")
    p_cw.add_argument("--cache-entries", type=int, default=256)
    p_cw.add_argument("--read-timeout", type=float, default=300.0,
                      help="per-connection read timeout in seconds "
                      "(0 disables)")
    p_cw.add_argument("--max-requests", type=int, default=None)
    p_cw.add_argument("--max-frame-bytes", type=int, default=None,
                      metavar="N",
                      help="refuse binary frames with payloads larger "
                      "than N bytes (default 64 MiB)")

    def add_connect(p: argparse.ArgumentParser) -> None:
        p.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="address of a serving front end or shard worker")

    p_ci = cluster_sub.add_parser(
        "info", help="one-line summary of a running cluster or worker"
    )
    add_connect(p_ci)

    p_ce = cluster_sub.add_parser(
        "estimate", help="windowed estimate over the wire"
    )
    add_connect(p_ce)
    p_ce.add_argument("--from", dest="t0", type=int, required=True,
                      help="window start (inclusive)")
    p_ce.add_argument("--until", dest="t1", type=int, required=True,
                      help="window end (exclusive)")
    p_ce.add_argument("--align", choices=("strict", "outer"), default="strict")
    p_ce.add_argument("--key", default=None,
                      help="stream key to query (keyed fleets only)")

    p_cb = cluster_sub.add_parser(
        "ingest-bench", help="synthetic ingest load over the wire, with "
        "throughput report"
    )
    add_connect(p_cb)
    p_cb.add_argument("--events", type=int, default=100_000,
                      help="total synthetic events to ingest")
    p_cb.add_argument("--batch", type=int, default=10_000,
                      help="events per ingest request")
    p_cb.add_argument("--buckets", type=int, default=64,
                      help="spread timestamps over this many buckets")
    p_cb.add_argument("--values", type=int, default=10_000,
                      help="value domain size")
    p_cb.add_argument("--key", default=None,
                      help="ingest every batch under this stream key "
                      "(keyed fleets only)")
    p_cb.add_argument("--seed", type=int, default=0)

    def add_scenario(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shards", type=int, default=2,
                       help="shard count of the spawned fleet")
        p.add_argument("--replication", type=int, default=2,
                       help="workers per shard")
        p.add_argument("--events", type=int, default=20_000,
                       help="synthetic events to stream through the fleet")
        p.add_argument("--kind", default="tugofwar",
                       help="mergeable sketch kind for every worker")
        p.add_argument("--s1", type=int, default=32)
        p.add_argument("--s2", type=int, default=3)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--bucket-width", type=int, default=100)

    p_cr = cluster_sub.add_parser(
        "reshard", help="self-contained mid-stream reshard scenario: spawn "
        "a fleet, ingest half the stream, reshard N->M under load, ingest "
        "the rest (with deletions of pre-reshard inserts), and verify the "
        "merged answer is bit-identical to a monolithic store"
    )
    add_scenario(p_cr)
    p_cr.add_argument("--to", dest="to_shards", type=int, default=3,
                      help="shard count after the mid-stream reshard")

    p_cc = cluster_sub.add_parser(
        "chaos", help="self-contained fault-injection smoke: spawn a "
        "replicated fleet, ingest half the stream, kill or stall a worker, "
        "finish the stream, and verify recovery plus bit-identity against "
        "a monolithic store"
    )
    add_scenario(p_cc)
    p_cc.add_argument("--mode", choices=("kill", "stall"), default="kill",
                      help="kill: SIGKILL a replica mid-stream (exercises "
                      "respawn + restore); stall: SIGSTOP it (exercises "
                      "hedged reads)")

    return parser


def _describe_sketch(sketch, path: str) -> str:
    """One-line human summary of a loaded sketch."""
    n = getattr(sketch, "n", None)
    size = "" if n is None else f", n={n:,}"
    return (
        f"{path}: kind={sketch.kind}, words={sketch.memory_words:,}{size}"
        f", estimate={sketch.estimate():,.1f}"
    )


def _read_text(path: str) -> str:
    """Read a file, turning OS failures into one-line CLI errors."""
    from pathlib import Path

    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _default_sketch_params(
    kind: str,
    s1: int,
    s2: int,
    seed: int,
    initial_range: int | None = None,
    moment_k: int = 2,
) -> dict:
    """Constructor params for a registered kind from the CLI knobs.

    The one shared mapping behind ``sketch build`` and ``store init``,
    so a kind's parameter convention lives in a single place.  Kinds
    not special-cased here are assumed to take ``(s1, s2, seed)``; a
    kind that does not is reported as a :class:`CliError` by the
    callers' probe build.
    """
    if kind == "naivesampling":
        return {"s": s1 * s2, "seed": seed}
    if kind == "frequency":
        return {}
    params: dict = {"s1": s1, "s2": s2, "seed": seed}
    if kind == "fk_moments":
        params["k"] = moment_k
    if initial_range is not None and kind in (
        "samplecount", "samplecount-fast", "moments"
    ):
        params["initial_range"] = initial_range
    return params


def _load_int_table(path: str, what: str):
    """Load a whitespace-separated integer table as a 2-D int64 array.

    The one loader behind ``sketch build --values-file`` and
    ``store ingest --events-file``; OS and parse failures become
    one-line :class:`CliError` messages describing ``what`` was
    expected.
    """
    import numpy as np

    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=2)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except ValueError as exc:
        raise CliError(f"{path}: expected {what}: {exc}") from exc


def _sketch_main(args) -> int:
    """The `sketch` subcommand group: build / info / estimate / merge."""
    import json
    from pathlib import Path

    from .engine import (
        MergeUnsupportedError,
        SketchPayloadError,
        UnknownSketchKindError,
        dump_sketch,
        loads_sketch,
        sharded_build,
        sketch_kinds,
    )
    from .store import SketchSpec

    def load_file(path: str):
        try:
            return loads_sketch(_read_text(path))
        except (SketchPayloadError, UnknownSketchKindError) as exc:
            raise CliError(f"{path}: {exc}") from exc

    def save_file(sketch, path: str) -> None:
        Path(path).write_text(json.dumps(dump_sketch(sketch)))

    if args.sketch_command == "kinds":
        from .engine import sketch_descriptions
        from .kernels import kernel_info

        descriptions = sketch_descriptions()
        for kind in sketch_kinds():
            desc = descriptions.get(kind)
            print(f"{kind}: {desc}" if desc else kind)
        info = kernel_info(probe=True)
        print(
            f"kernel backend: {info['active']} "
            f"(available: {', '.join(info['available'])})"
        )
        return 0

    if args.sketch_command in ("info", "estimate"):
        sketch = load_file(args.path)
        if args.sketch_command == "estimate":
            print(f"{sketch.estimate():.6g}")
        else:
            print(_describe_sketch(sketch, args.path))
        return 0

    if args.sketch_command == "merge":
        sketches = [load_file(p) for p in args.paths]
        merged = sketches[0]
        try:
            for other in sketches[1:]:
                merged = merged.merge(other)
        except (MergeUnsupportedError, ValueError, TypeError) as exc:
            raise CliError(f"cannot merge: {exc}") from exc
        save_file(merged, args.out)
        print(_describe_sketch(merged, args.out))
        return 0

    if args.sketch_command == "build":
        if args.dataset is not None:
            from .data.registry import load_dataset

            try:
                values = load_dataset(args.dataset, rng=args.seed, scale=args.scale)
            except KeyError as exc:
                raise CliError(f"unknown data set: {exc.args[0]}") from exc
        else:
            values = _load_int_table(
                args.values_file, "whitespace-separated integers"
            ).reshape(-1)
        n = int(values.size)

        try:
            spec = SketchSpec(
                args.kind,
                _default_sketch_params(
                    args.kind, args.s1, args.s2, args.seed,
                    initial_range=max(n, 1), moment_k=args.moment_k,
                ),
            )
            sketch = spec.build()  # probe: the params must fit the kind
        except (UnknownSketchKindError, ValueError) as exc:
            # ValueError covers bad parameter values, e.g. an
            # UnsupportedMomentError for `--moment-k 0`.
            raise CliError(str(exc)) from exc
        except TypeError as exc:
            raise CliError(
                f"sketch kind {args.kind!r} does not accept the default "
                f"CLI parameters: {exc}"
            ) from exc
        if args.shards > 1:
            try:
                sketch = sharded_build(
                    spec.build, values,
                    num_shards=args.shards, max_workers=args.workers,
                )
            except MergeUnsupportedError as exc:
                raise CliError(f"cannot build sharded: {exc}") from exc
        else:
            sketch.update_from_stream(values)
        save_file(sketch, args.out)
        print(_describe_sketch(sketch, args.out))
        return 0

    raise AssertionError(
        f"unhandled sketch command {args.sketch_command!r}"
    )  # pragma: no cover


def _load_store_file(path: str):
    """Load a store JSON file under the one-line error contract.

    Shared by ``store`` and ``serve``: missing files, bad JSON, and
    corrupt/unknown-kind payloads all become :class:`CliError`.  The
    payload's ``kind`` field picks the store class — a plain
    :class:`~repro.store.windowed.WindowedSketchStore` or a
    ``"keyed-store"`` :class:`~repro.store.keyed.KeyedSketchStore`
    fleet — so every store-consuming command handles both.
    """
    import json

    from .engine import SketchPayloadError, UnknownSketchKindError
    from .store import KeyedSketchStore, WindowedSketchStore

    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from exc
    keyed = isinstance(payload, dict) and payload.get("kind") == "keyed-store"
    store_cls = KeyedSketchStore if keyed else WindowedSketchStore
    try:
        return store_cls.from_dict(payload)
    except (SketchPayloadError, UnknownSketchKindError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _store_main(args) -> int:
    """The `store` subcommand group: init/ingest/query/compact/snapshot/info."""
    import json
    from pathlib import Path

    from .engine import MergeUnsupportedError, UnknownSketchKindError
    from .store import (
        KeyedSketchStore,
        SketchSpec,
        WindowAlignmentError,
        WindowedSketchStore,
    )

    load_store = _load_store_file

    def save_store(store, path: str) -> None:
        # Atomic replace: ingest/compact rewrite the only copy of the
        # store, and a mid-write interruption must not truncate it.
        import os

        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(store.to_dict()))
        os.replace(tmp, target)

    def describe(store, path: str) -> str:
        coverage = store.coverage
        window = "empty" if coverage is None else f"[{coverage[0]}, {coverage[1]})"
        keyed = (
            f", keys={store.key_count}"
            if isinstance(store, KeyedSketchStore)
            else ""
        )
        return (
            f"{path}: kind={store.spec.kind}{keyed}, "
            f"width={store.bucket_width}, "
            f"spans={store.span_count}, coverage={window}, "
            f"words={store.memory_words:,}"
        )

    def checked_key(store) -> str | None:
        """The --key flag validated against the store's shape."""
        key = getattr(args, "key", None)
        if isinstance(store, KeyedSketchStore):
            if key is None:
                raise CliError(
                    f"{args.path} is a keyed fleet; pass --key to pick "
                    "the stream"
                )
            return key
        if key is not None:
            raise CliError(
                f"{args.path} is a plain windowed store; --key only "
                "applies to keyed fleets (`store init --keyed`)"
            )
        return None

    if args.store_command == "init":
        if args.max_keys is not None and not args.keyed:
            raise CliError("--max-keys requires --keyed")
        try:
            spec = SketchSpec(
                args.kind,
                _default_sketch_params(
                    args.kind, args.s1, args.s2, args.seed,
                    moment_k=args.moment_k,
                ),
            )
            spec.build()  # probe: the params must fit the kind
            store_kwargs = dict(
                bucket_width=args.bucket_width,
                origin=args.origin,
                retention_buckets=args.retention,
                retention_policy=args.retention_policy,
            )
            store = (
                KeyedSketchStore(spec, max_keys=args.max_keys, **store_kwargs)
                if args.keyed
                else WindowedSketchStore(spec, **store_kwargs)
            )
        except (UnknownSketchKindError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        except TypeError as exc:
            raise CliError(
                f"sketch kind {args.kind!r} does not accept the default "
                f"CLI parameters: {exc}"
            ) from exc
        save_store(store, args.out)
        print(describe(store, args.out))
        return 0

    store = load_store(args.path)

    if args.store_command == "ingest":
        key = checked_key(store)
        events = _load_int_table(
            args.events_file, "integer columns 'timestamp value [count]'"
        )
        if events.size == 0:
            raise CliError(f"{args.events_file}: no events")
        if events.shape[1] not in (2, 3):
            raise CliError(
                f"{args.events_file}: expected 2 or 3 columns "
                f"(timestamp value [count]), got {events.shape[1]}"
            )
        counts = events[:, 2] if events.shape[1] == 3 else None
        try:
            if key is not None:
                store.ingest(
                    key, events[:, 0], events[:, 1], counts=counts,
                    max_workers=args.workers,
                )
            else:
                store.ingest(
                    events[:, 0], events[:, 1], counts=counts,
                    max_workers=args.workers,
                )
        except (ValueError, NotImplementedError) as exc:
            # NotImplementedError: e.g. deletion counts routed to a
            # naive-sampling bucket (insertion-only by design).
            # ValueError also covers KeyCardinalityError (a fleet at
            # its --max-keys bound refusing a new key).
            raise CliError(f"{args.events_file}: {exc}") from exc
        save_store(store, args.path)
        print(f"ingested {events.shape[0]:,} events")
        print(describe(store, args.path))
        return 0

    if args.store_command == "query":
        key = checked_key(store)
        try:
            if key is not None:
                t0, t1 = store.window_bounds(
                    key, args.t0, args.t1, align=args.align
                )
                estimate = store.estimate(
                    key, args.t0, args.t1, align=args.align
                )
            else:
                t0, t1 = store.window_bounds(args.t0, args.t1, align=args.align)
                estimate = store.estimate(args.t0, args.t1, align=args.align)
        except (ValueError, MergeUnsupportedError) as exc:
            # WindowAlignmentError and empty/inverted windows are both
            # ValueErrors; either way a user-correctable window problem.
            raise CliError(str(exc)) from exc
        print(f"window [{t0}, {t1}): estimate={estimate:.6g}")
        return 0

    if args.store_command == "compact":
        try:
            folded = store.compact(before=args.before)
        except (WindowAlignmentError, TypeError) as exc:
            raise CliError(str(exc)) from exc
        save_store(store, args.path)
        print(f"compacted {folded} spans")
        print(describe(store, args.path))
        return 0

    if args.store_command == "snapshot":
        # Round-trip through from_dict so a checkpoint that cannot be
        # restored is never written.
        restored = type(store).from_dict(store.to_dict())
        save_store(restored, args.out)
        print(describe(restored, args.out))
        return 0

    if args.store_command == "info":
        print(describe(store, args.path))
        if isinstance(store, KeyedSketchStore):
            for key in store.keys:
                per_key = store.store_for(key)
                for t0, t1 in per_key.spans:
                    print(f"  key={key}: span [{t0}, {t1})")
        else:
            for t0, t1 in store.spans:
                print(f"  span [{t0}, {t1})")
        return 0

    raise AssertionError(
        f"unhandled store command {args.store_command!r}"
    )  # pragma: no cover


def _plan_workload(shape: str, n: int, rows: int, seed: int):
    """A seeded planning workload: (join graph, materialized relations).

    Deterministic in ``(shape, n, rows, seed)``.  Relations share one
    joining attribute (the paper's footnote-2 model); the *graph*
    restricts which pairs a query joins:

    * ``chain`` — overlapping half-window domains, so adjacent
      relations join and non-adjacent ones are (truly) disjoint;
    * ``star`` — one large skewed fact table, small dimensions over
      subdomains of varying width (so edge selectivities differ);
    * ``clique`` — everything over one shared domain with varying
      sizes and skew (the old all-pairs setting, made explicit).
    """
    import numpy as np

    from .planner import JoinGraph
    from .relational import Relation

    if n < 2:
        raise CliError(f"--relations must be at least 2, got {n}")
    if rows < 1:
        raise CliError(f"--rows must be positive, got {rows}")
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:
        raise CliError(f"--seed: {exc}") from exc
    relations: dict[str, Relation] = {}

    if shape == "star":
        dims = [f"D{i}" for i in range(1, n)]
        domain = max(4 * rows, 16)
        fact_values = (rng.zipf(1.3, size=20 * rows) % domain).astype(np.int64)
        relations["F"] = Relation("F", fact_values)
        dim_sizes: dict[str, int] = {}
        for i, dim in enumerate(dims):
            width = max(int(domain * rng.uniform(0.05, 0.6)), 4)
            size = max(rows // (i + 2), 20)
            relations[dim] = Relation(
                dim, rng.integers(0, width, size=size).astype(np.int64)
            )
            dim_sizes[dim] = relations[dim].size
        graph = JoinGraph.star("F", relations["F"].size, dim_sizes)
        return graph, relations

    names = [f"R{i}" for i in range(n)]
    if shape == "chain":
        width = max(rows, 16)
        for i, name in enumerate(names):
            size = max(int(rows * rng.uniform(0.5, 1.5)), 10)
            lo = i * (width // 2)
            relations[name] = Relation(
                name, rng.integers(lo, lo + width, size=size).astype(np.int64)
            )
        graph = JoinGraph.chain({m: relations[m].size for m in names})
        return graph, relations

    if shape == "clique":
        domain = max(rows // 2, 16)
        for name in names:
            size = max(int(rows * rng.uniform(0.4, 1.6)), 10)
            exponent = float(rng.uniform(1.2, 1.9))
            relations[name] = Relation(
                name, (rng.zipf(exponent, size=size) % domain).astype(np.int64)
            )
        graph = JoinGraph.clique({m: relations[m].size for m in names})
        return graph, relations

    raise CliError(f"unknown workload shape: {shape!r}")


def _plan_main(args) -> int:
    """The `plan` command: enumerate and compare join plans."""
    from .planner import (
        BoundAwareCardinalities,
        CrossProductError,
        ExactCardinalities,
        SketchCardinalities,
        evaluate_plan,
        plan_join,
        render_plan,
    )
    from .relational import SignatureCatalog

    graph, relations = _plan_workload(
        args.shape, args.relations, args.rows, args.seed
    )
    exact = ExactCardinalities(relations)
    policies: dict[str, object] = {"exact": exact}
    selected = (
        ["exact", "sketch", "bound"] if args.policy == "all" else [args.policy]
    )
    if "sketch" in selected or "bound" in selected:
        try:
            catalog = SignatureCatalog(k=args.k, seed=args.seed)
        except ValueError as exc:
            raise CliError(f"--k: {exc}") from exc
        for name, rel in relations.items():
            catalog.register(name, rel.values_array())
        if "sketch" in selected:
            policies["sketch"] = SketchCardinalities(catalog)
        if "bound" in selected:
            try:
                policies["bound"] = BoundAwareCardinalities(
                    catalog, confidence=args.confidence
                )
            except ValueError as exc:
                raise CliError(str(exc)) from exc

    def enumerate_policy(estimator):
        try:
            return plan_join(
                graph,
                estimator,
                args.enumerator,
                allow_cross_products=args.allow_cross_products,
            )
        except CrossProductError as exc:
            raise CliError(f"{exc} (or pass --allow-cross-products)") from exc

    sizes = ", ".join(f"{m}={graph.size(m):,}" for m in graph.relations)
    print(
        f"workload: shape={args.shape}, relations={len(graph)}, "
        f"edges={len(graph.edges)}, seed={args.seed}"
    )
    print(f"cardinalities: {sizes}")
    print(f"enumerator: {args.enumerator}"
          + (" (cross products allowed)" if args.allow_cross_products else ""))

    exact_tree = enumerate_policy(exact)
    baseline = evaluate_plan(exact_tree, graph, exact).cost
    for policy in selected:
        tree = exact_tree if policy == "exact" else enumerate_policy(policies[policy])
        true_cost = evaluate_plan(tree, graph, exact).cost
        regret = true_cost / baseline if baseline > 0 else 1.0
        print(f"\npolicy={policy}")
        print(render_plan(tree))
        print(
            f"  estimated cost {tree.cost:,.6g}   true cost "
            f"{true_cost:,.6g}   regret vs exact-policy plan {regret:.3f}x"
        )
    return 0


def _read_timeout_of(args) -> float | None:
    """The server read timeout from the CLI knob (0 disables)."""
    timeout = getattr(args, "read_timeout", 300.0)
    if timeout is None or timeout == 0:
        return None
    if timeout < 0:
        raise CliError(f"--read-timeout must be >= 0, got {timeout}")
    return float(timeout)


def _serve_front_kwargs(args) -> dict:
    """The protocol/framing knobs shared by both serve front ends."""
    kwargs = {"protocol": args.protocol}
    if args.max_frame_bytes is not None:
        kwargs["max_frame_bytes"] = args.max_frame_bytes
    return kwargs


def _serve_main(args) -> int:
    """The `serve` command: expose a store as an estimation service.

    The front end is the threaded :class:`~repro.service.server.
    SketchServiceServer` every shard worker also runs: line-JSON and
    binary-frame clients on one port (``--protocol`` restricts it),
    pipelined connections, bounded frames and request lines.  Without
    ``--shards`` the store file is loaded into one
    in-process :class:`~repro.service.service.SketchService`.  With
    ``--shards N`` the file is a *config template*: N shard worker
    processes are spawned on ephemeral ports, and the front end serves
    the same wire protocols through a scatter–gather
    :class:`~repro.cluster.service.ClusterService`.
    """
    from .service import SketchService, SketchServiceServer
    from .store import KeyedSketchStore

    store = _load_store_file(args.path)
    read_timeout = _read_timeout_of(args)

    if args.shards is not None:
        return _serve_cluster(args, store, read_timeout)

    try:
        service = SketchService(store, cache_entries=args.cache_entries)
        server = SketchServiceServer(
            service,
            address=(args.host, args.port),
            max_requests=args.max_requests,
            read_timeout=read_timeout,
            **_serve_front_kwargs(args),
        )
    except (ValueError, OSError) as exc:
        # Bad cache size or an unbindable host/port are user errors.
        raise CliError(str(exc)) from exc
    host, port = server.server_address[:2]
    keyed = (
        f", keys={store.key_count}"
        if isinstance(store, KeyedSketchStore)
        else ""
    )
    from .kernels import active_backend

    print(
        f"serving {args.path} on {host}:{port} "
        f"(kind={store.spec.kind}{keyed}, spans={store.span_count}, "
        f"protocol={args.protocol}, kernel={active_backend()})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    stats = service.stats()
    print(
        f"served: cache hits={stats['hits']}, misses={stats['misses']}, "
        f"coalesced={stats['coalesced']}, invalidated={stats['invalidated']}"
    )
    return 0


def _serve_cluster(args, store, read_timeout) -> int:
    """`serve --shards N`: spawn the fleet, front it, tear it down."""
    from .cluster import (
        ClusterService,
        LocalCluster,
        ShardMergeUnsupportedError,
        ShardUnreachableError,
        store_config,
    )
    from .service import SketchServiceServer

    if args.shards < 1:
        raise CliError(f"--shards must be >= 1, got {args.shards}")
    replication = getattr(args, "replication", 1)
    if replication < 1:
        raise CliError(f"--replication must be >= 1, got {replication}")
    if store.span_count:
        raise CliError(
            f"{args.path} already holds {store.span_count} spans; a cluster "
            "shards future ingest by value-hash and cannot split existing "
            "sketches — start from an empty store (`repro store init`)"
        )
    try:
        cluster = LocalCluster(
            store_config(store),
            args.shards,
            read_timeout=read_timeout,
            replication=replication,
        )
    except ShardUnreachableError as exc:
        raise CliError(f"cannot spawn shard workers: {exc}") from exc
    service = server = None
    try:
        try:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            server = SketchServiceServer(
                service,
                address=(args.host, args.port),
                max_requests=args.max_requests,
                read_timeout=read_timeout,
                **_serve_front_kwargs(args),
            )
        except (ValueError, OSError, ShardMergeUnsupportedError) as exc:
            # Unbindable host/port, unreachable or inconsistent shards,
            # and non-mergeable kinds are all user-correctable.
            raise CliError(str(exc)) from exc
        host, port = server.server_address[:2]
        from .kernels import active_backend

        print(
            f"serving {args.path} on {host}:{port} "
            f"(kind={store.spec.kind}, protocol={args.protocol}, "
            f"shards={cluster.num_shards}, "
            f"replication={cluster.replication}, "
            f"kernel={active_backend()}: "
            f"{', '.join(cluster.addresses)})",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            server.server_close()
        try:
            stats = service.stats()
            print(
                f"served: cache hits={stats['hits']}, "
                f"misses={stats['misses']}, shards={stats['shards']}"
            )
        except (OSError, ValueError):  # pragma: no cover - workers died
            pass
        return 0
    finally:
        if service is not None:
            service.close()
        cluster.shutdown()


def _parse_connect(text: str) -> tuple[str, int]:
    """Split HOST:PORT under the one-line error contract."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise CliError(f"--connect must be HOST:PORT, got {text!r}")
    return host, int(port)


def _cluster_main(args) -> int:
    """The `cluster` subcommand group: worker / info / estimate / ingest-bench."""
    import json

    from .cluster import (
        ClusterConfigError,
        ShardProtocolError,
        ShardRequestError,
        ShardUnreachableError,
        run_worker,
    )
    from .cluster.client import ShardClient

    if args.cluster_command == "worker":
        try:
            config = json.loads(args.config_json)
        except json.JSONDecodeError as exc:
            raise CliError(f"--config-json is not valid JSON: {exc}") from exc
        try:
            return run_worker(
                config,
                host=args.host,
                port=args.port,
                cache_entries=args.cache_entries,
                read_timeout=_read_timeout_of(args),
                max_requests=args.max_requests,
                max_frame_bytes=args.max_frame_bytes,
            )
        except (ClusterConfigError, ValueError, OSError) as exc:
            # Corrupt templates, unknown kinds, unbindable ports.
            raise CliError(str(exc)) from exc

    if args.cluster_command in ("reshard", "chaos"):
        return _cluster_scenario(args)

    host, port = _parse_connect(args.connect)
    wire_errors = (ShardUnreachableError, ShardProtocolError, ShardRequestError)

    if args.cluster_command == "info":
        with ShardClient(host, port, timeout=10.0) as client:
            try:
                info = client.request({"op": "info"})
            except wire_errors as exc:
                raise CliError(str(exc)) from exc
        coverage = info.get("coverage")
        window = (
            "empty" if coverage is None else f"[{coverage[0]}, {coverage[1]})"
        )
        keyed = (
            f", keys={info.get('key_count', 0)}" if info.get("keyed") else ""
        )
        print(
            f"{args.connect}: kind={info['kind']}{keyed}, "
            f"width={info['bucket_width']}, spans={len(info['spans'])}, "
            f"coverage={window}, words={info['memory_words']:,}"
        )
        return 0

    if args.cluster_command == "estimate":
        request = {
            "op": "estimate",
            "from": args.t0,
            "until": args.t1,
            "align": args.align,
        }
        if args.key is not None:
            request["key"] = args.key
        with ShardClient(host, port, timeout=30.0) as client:
            try:
                response = client.request(request)
            except wire_errors as exc:
                raise CliError(str(exc)) from exc
        lo, hi = response["window"]
        print(f"window [{lo}, {hi}): estimate={response['estimate']:.6g}")
        return 0

    if args.cluster_command == "ingest-bench":
        import time

        import numpy as np

        if min(args.events, args.batch, args.buckets, args.values) < 1:
            raise CliError(
                "--events, --batch, --buckets, and --values must all be "
                "positive"
            )
        rng = np.random.default_rng(args.seed)
        with ShardClient(host, port, timeout=60.0) as client:
            try:
                info = client.request({"op": "info"})
                width = int(info["bucket_width"])
                origin = int(info["origin"])
                sent = 0
                start = time.perf_counter()
                while sent < args.events:
                    size = min(args.batch, args.events - sent)
                    timestamps = origin + rng.integers(
                        0, args.buckets * width, size=size
                    )
                    values = rng.integers(0, args.values, size=size)
                    payload = {
                        "op": "ingest",
                        "timestamps": timestamps.tolist(),
                        "values": values.tolist(),
                    }
                    if args.key is not None:
                        payload["key"] = args.key
                    client.request(payload)
                    sent += size
                elapsed = time.perf_counter() - start
            except wire_errors as exc:
                raise CliError(str(exc)) from exc
        rate = sent / elapsed if elapsed else float("inf")
        print(
            f"ingested {sent:,} events in {elapsed:.3f} s "
            f"({rate / 1e6:.2f} M events/s) over {args.connect}"
        )
        return 0

    raise AssertionError(
        f"unhandled cluster command {args.cluster_command!r}"
    )  # pragma: no cover


def _cluster_scenario(args) -> int:
    """`cluster reshard` / `cluster chaos`: self-contained fault drills.

    Both spawn a throwaway replicated fleet, stream a synthetic signed
    workload through it while applying the requested disruption
    (mid-stream N->M reshard, or a killed / stalled worker), and verify
    the scatter-gathered answer is **bit-identical** to a monolithic
    store fed the same stream.  A one-line JSON verdict goes to stdout;
    a divergent answer exits 2.
    """
    import json
    import time

    import numpy as np

    from .cluster import (
        ClusterConfigError,
        ClusterService,
        FaultInjector,
        LocalCluster,
        ShardMergeUnsupportedError,
        ShardProtocolError,
        ShardRequestError,
        ShardUnreachableError,
        store_config,
    )
    from .engine.registry import dump_sketch
    from .store.spec import SketchSpec
    from .store.windowed import WindowedSketchStore

    if args.shards < 1:
        raise CliError(f"--shards must be >= 1, got {args.shards}")
    if args.replication < 1:
        raise CliError(f"--replication must be >= 1, got {args.replication}")
    if args.events < 8:
        raise CliError(f"--events must be >= 8, got {args.events}")
    if args.bucket_width < 1:
        raise CliError(
            f"--bucket-width must be >= 1, got {args.bucket_width}"
        )
    if args.cluster_command == "chaos" and args.replication < 2:
        raise CliError(
            "chaos needs --replication >= 2: recovery restores the hurt "
            "replica from a healthy peer of the same shard"
        )
    if args.cluster_command == "reshard" and args.to_shards < 1:
        raise CliError(f"--to must be >= 1, got {args.to_shards}")

    params = {"s1": args.s1, "s2": args.s2, "seed": args.seed}
    if args.kind == "frequency":
        params = {}  # the exact histogram takes no size/seed knobs
    width = args.bucket_width
    try:
        spec = SketchSpec(args.kind, params)
        mono = WindowedSketchStore(spec, bucket_width=width)
    except (LookupError, TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc

    # The stream: first half lands in buckets [0, 8), the rest in
    # buckets [8, 16) plus deletions reversing a quarter of the
    # first-half inserts at their original timestamps — the shape that
    # exercises cross-epoch (and cross-fault) deletion routing.
    rng = np.random.default_rng(args.seed)
    half = args.events // 2
    ts1 = rng.integers(0, 8 * width, size=half, dtype=np.int64)
    vals1 = rng.integers(0, 1000, size=half, dtype=np.int64)
    ts2 = rng.integers(
        8 * width, 16 * width, size=args.events - half, dtype=np.int64
    )
    vals2 = rng.integers(0, 1000, size=args.events - half, dtype=np.int64)
    deletions = half // 4
    drop = rng.choice(half, size=deletions, replace=False)
    ts_rest = np.concatenate([ts2, ts1[drop]])
    vals_rest = np.concatenate([vals2, vals1[drop]])
    counts_rest = np.concatenate(
        [np.ones(len(ts2), dtype=np.int64),
         np.full(deletions, -1, dtype=np.int64)]
    )

    wire_errors = (
        ClusterConfigError,
        ShardMergeUnsupportedError,
        ShardProtocolError,
        ShardRequestError,
        ShardUnreachableError,
    )
    verdict = {
        "scenario": args.cluster_command,
        "kind": args.kind,
        "shards": args.shards,
        "replication": args.replication,
        "events": int(args.events),
        "deletions": int(deletions),
    }
    started = time.perf_counter()
    try:
        cluster = LocalCluster(
            store_config(mono), args.shards, replication=args.replication
        )
    except ShardUnreachableError as exc:
        raise CliError(f"cannot spawn shard workers: {exc}") from exc
    service = None
    injector = FaultInjector(cluster)
    try:
        try:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            mono.ingest(ts1, vals1)
            service.ingest(ts1, vals1)

            if args.cluster_command == "reshard":
                verdict["to_shards"] = int(args.to_shards)
                service.reshard(args.to_shards, cutover=8 * width)
                verdict["epochs"] = service.num_epochs
            elif args.mode == "kill":
                verdict["mode"] = "kill"
                injector.kill(0, args.replication - 1)
            else:
                verdict["mode"] = "stall"

            if args.cluster_command == "chaos" and args.mode == "stall":
                # Finish the stream first (ingest fans out to every
                # replica and would wait on the straggler), then stall
                # the primary and time one hedged read around it.
                mono.ingest(ts_rest, vals_rest, counts_rest)
                service.ingest(ts_rest, vals_rest, counts_rest)
                injector.stall(0, 0)
                t0 = time.perf_counter()
                fleet_sketch = service.query(0, 16 * width)
                verdict["hedged_query_s"] = round(
                    time.perf_counter() - t0, 6
                )
                injector.resume_all()
            else:
                mono.ingest(ts_rest, vals_rest, counts_rest)
                service.ingest(ts_rest, vals_rest, counts_rest)
                fleet_sketch = service.query(0, 16 * width)
            verdict["failed_replicas"] = [
                list(entry) for entry in service.failed_replicas
            ]
        except wire_errors as exc:
            raise CliError(str(exc)) from exc
        verdict["identical"] = (
            dump_sketch(fleet_sketch) == dump_sketch(mono.query(0, 16 * width))
        )
        verdict["elapsed_s"] = round(time.perf_counter() - started, 6)
        print(json.dumps(verdict), flush=True)
        if verdict["failed_replicas"]:
            raise CliError(
                "replicas still out of rotation after recovery: "
                f"{verdict['failed_replicas']}"
            )
        if not verdict["identical"]:
            raise CliError(
                "cluster answer diverged from the monolithic store "
                "(bit-identity check failed)"
            )
        return 0
    finally:
        injector.resume_all()
        if service is not None:
            service.close()
        cluster.shutdown()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    try:
        return _dispatch(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    """Route one parsed command; raises :class:`CliError` on user errors."""
    if args.command == "sketch":
        return _sketch_main(args)
    if args.command == "store":
        return _store_main(args)
    if args.command == "plan":
        return _plan_main(args)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "cluster":
        return _cluster_main(args)

    # Imports deferred so `--help` stays instant.
    from .experiments import figures, tables
    from .experiments.metrics import convergence_from_sweep

    return _experiments_main(args, figures, tables, convergence_from_sweep)


def _from_registry(call):
    """Run one registry-keyed runner under the exit-2 user-error contract.

    The figure/data-set/algorithm registries raise ``KeyError`` with a
    user-facing sentence (``figures.figure``, ``run_figure``,
    ``load_dataset``, ``estimate_once``); at the CLI boundary those are
    user errors, not tracebacks.  Wrapped per call site — not around
    the whole dispatch — so a genuine mapping bug elsewhere still
    surfaces loudly.
    """
    try:
        return call()
    except KeyError as exc:
        raise CliError(exc.args[0] if exc.args else exc) from exc


def _experiments_main(args, figures, tables, convergence_from_sweep) -> int:
    """The reproduction commands: table1 / figure / convergence / ..."""
    if args.command == "table1":
        rows = tables.table1(seed=args.seed, scale=args.scale)
        print(tables.format_table1(rows))
        return 0

    if args.command == "figure":
        if args.number == 15:
            out = figures.figure15(estimators=1024, scale=args.scale, seed=args.seed)
            print(figures.format_figure15(out))
            return 0
        sweep = _from_registry(lambda: figures.figure(
            args.number,
            scale=args.scale,
            max_log2_s=args.max_log2_s,
            seed=args.seed,
            repeats=args.repeats,
        ))
        print(sweep.format_table())
        conv = convergence_from_sweep(sweep)
        print("\n15%-convergence:", ", ".join(f"{a}={s}" for a, s in conv.items()))
        return 0

    if args.command == "convergence":
        table = _from_registry(lambda: tables.convergence_table(
            datasets=args.datasets,
            scale=args.scale,
            max_log2_s=args.max_log2_s,
            seed=args.seed,
        ))
        print(tables.format_convergence_table(table))
        return 0

    if args.command == "section44":
        rows = tables.table_section44(
            seed=args.seed, scale=args.scale, use_paper_values=args.paper_values
        )
        print(tables.format_table_section44(rows))
        return 0

    if args.command == "sweep":
        sweep = _from_registry(lambda: figures.run_figure(
            args.dataset,
            scale=args.scale,
            max_log2_s=args.max_log2_s,
            seed=args.seed,
            repeats=args.repeats,
        ))
        print(sweep.format_table())
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
