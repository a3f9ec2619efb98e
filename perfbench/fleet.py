"""One process of the served fleet, launched the way ``repro serve`` does.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/fleet.py worker --config-json JSON [--trace PATH]
    python3 perfbench/fleet.py front --workers H:P,H:P [--trace PATH]

``worker`` is ``repro cluster worker``: :func:`repro.cluster.run_worker`
over an empty store built from the template, announcing its port on a
JSON ready line.  ``front`` is the front of ``repro serve --shards N``:
a :class:`~repro.cluster.service.ClusterService` over one binary
:class:`~repro.cluster.client.ShardClient` per worker (replication 1)
behind an :class:`~repro.service.aserver.EventLoopServer` speaking both
protocols.  A ``shutdown`` op to the front stops it, and the front then
stops its workers.  With ``--trace`` the process installs the timing
wrappers of :mod:`spans` before it serves and, when it stops, writes
its span aggregate to PATH, restricted to the ops that began inside
the measured window the load generator wrote to ``window.json`` next
to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from spans import Tracer, install

#: The ``repro serve`` defaults these processes reproduce.
READ_TIMEOUT = 300.0
CACHE_ENTRIES = 256


def _worker(args) -> int:
    from repro.cluster import run_worker

    return run_worker(
        json.loads(args.config_json),
        host="127.0.0.1",
        port=0,
        cache_entries=CACHE_ENTRIES,
        read_timeout=READ_TIMEOUT,
    )


def _front(args) -> int:
    from repro.cluster import ClusterService
    from repro.cluster.client import ShardClient
    from repro.service import EventLoopServer

    clients = []
    for address in args.workers.split(","):
        host, _, port = address.rpartition(":")
        clients.append([ShardClient(host, int(port), protocol="binary")])
    service = ClusterService(clients)
    try:
        server = EventLoopServer(
            service,
            address=("127.0.0.1", 0),
            read_timeout=READ_TIMEOUT,
            protocol="auto",
        )
        host, port = server.server_address[:2]
        print(json.dumps({"ready": True, "host": host, "port": port,
                          "pid": os.getpid()}), flush=True)
        try:
            server.serve_forever()
        finally:
            server.server_close()
    finally:
        service.shutdown_workers()
        service.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("worker", "front"))
    parser.add_argument("--config-json")
    parser.add_argument("--workers")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    try:
        return _worker(args) if args.role == "worker" else _front(args)
    finally:
        if tracer is not None:
            window_path = os.path.join(os.path.dirname(args.trace), "window.json")
            window = None
            if os.path.exists(window_path):
                with open(window_path, encoding="utf-8") as handle:
                    window = json.load(handle)
            tracer.write(args.trace, window)


if __name__ == "__main__":
    sys.exit(main())
