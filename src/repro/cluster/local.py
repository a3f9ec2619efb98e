"""Spawn and supervise a local shard-worker fleet.

:class:`LocalCluster` turns ``N`` into ``N`` worker *processes*: each
one ``python -m repro cluster worker`` on an ephemeral port, announced
through a JSON ready line on its stdout.  This is the piece that takes
the scale-out layer past the GIL — every worker is a separate
interpreter, so per-shard ingestion and merge-on-query run truly in
parallel on separate cores.

With ``replication=R`` every shard becomes a *replica set* of R
workers built from the same template: the front end
(:class:`~repro.cluster.service.ClusterService`) fans each ingest
slice out to all of them, so every replica holds the same
deterministic state and any one of them can answer a query or donate
a snapshot to a respawned peer.

Lifecycle contract:

* **spawn** — workers that fail to announce readiness within the
  timeout are killed and reported as
  :class:`~repro.cluster.errors.ShardUnreachableError`, with their
  stderr attached (a silent zombie fleet is worse than a loud error);
* **respawn** — the supervisor half of worker-death recovery: the
  front end hands back the dead worker's client and receives a fresh
  worker (empty store, new port) in the same replica-set slot, ready
  for a ``restore`` from a healthy peer;
* **shutdown** — the wire ``shutdown`` op first (clean: the worker
  acks, drains, exits 0), ``terminate``/``kill`` as escalating
  fallbacks, so ``with LocalCluster(...)`` can never leak processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Mapping

from .client import ShardClient
from .errors import ClusterConfigError, ShardUnreachableError

__all__ = ["LocalCluster", "WorkerProcess"]


def _worker_env() -> dict:
    """The child environment, with this ``repro`` importable.

    The spawner may itself run from a source tree never installed into
    site-packages; prepending the package parent to ``PYTHONPATH``
    guarantees the child resolves the same code the parent runs.
    """
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


class WorkerProcess:
    """One spawned shard worker: its process, address, and client."""

    def __init__(
        self,
        process: subprocess.Popen,
        host: str,
        port: int,
        protocol: str = "binary",
        client_timeout: float | None = None,
    ):
        self.process = process
        self.host = host
        self.port = port
        client_kwargs = {} if client_timeout is None else {
            "timeout": float(client_timeout)
        }
        self.client = ShardClient(host, port, protocol=protocol, **client_kwargs)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerProcess(pid={self.process.pid}, {self.address})"


def _read_ready_line(process: subprocess.Popen, timeout: float) -> dict:
    """Parse the worker's JSON ready line, with a hard deadline."""
    result: list = []

    def read() -> None:
        result.append(process.stdout.readline())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout)
    if not result or not result[0]:
        raise ShardUnreachableError(
            "worker did not announce readiness "
            f"within {timeout:.0f}s"
        )
    try:
        ready = json.loads(result[0])
    except json.JSONDecodeError as exc:
        raise ShardUnreachableError(
            f"worker announced garbage instead of a ready line: "
            f"{result[0][:120]!r}"
        ) from exc
    if not isinstance(ready, dict) or not ready.get("ready"):
        raise ShardUnreachableError(
            f"worker announced a non-ready line: {ready!r}"
        )
    return ready


class LocalCluster:
    """``num_shards`` replica sets of worker processes on local ports.

    Parameters
    ----------
    config:
        The cluster-wide store template (see
        :func:`~repro.cluster.worker.store_config`): spec, bucket
        width, origin, retention.  Every worker gets the same one.
    num_shards:
        Number of replica sets (value-hash partitions) to spawn.
    replication:
        Workers per replica set.  The default 1 is the pre-replication
        fleet: one process per shard.
    host:
        Interface the workers bind (loopback by default).
    read_timeout:
        Per-connection read timeout passed to each worker.
    spawn_timeout:
        Seconds each worker gets to announce readiness.
    client_timeout:
        Connect/response timeout of the spawned
        :class:`~repro.cluster.client.ShardClient` per worker — the
        knob that bounds how long a front end waits on a stalled
        replica before classifying it unreachable.

    Use as a context manager — ``__exit__`` always shuts the fleet
    down, clean-first::

        with LocalCluster(config, num_shards=4, replication=2) as cluster:
            service = ClusterService(
                cluster.replica_clients(), supervisor=cluster
            )
            ...
    """

    def __init__(
        self,
        config: Mapping,
        num_shards: int,
        host: str = "127.0.0.1",
        read_timeout: float | None = None,
        spawn_timeout: float = 30.0,
        protocol: str = "binary",
        replication: int = 1,
        client_timeout: float | None = None,
    ):
        if int(num_shards) < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if int(replication) < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if protocol not in ("json", "binary"):
            raise ValueError(
                f"protocol must be 'json' or 'binary', got {protocol!r}"
            )
        self.config = dict(config)
        self.replication = int(replication)
        self.workers: list[WorkerProcess] = []
        self._sets: list[list[WorkerProcess]] = []
        self._protocol = protocol
        self._spawn_timeout = float(spawn_timeout)
        self._client_timeout = client_timeout
        self._command = [
            sys.executable, "-m", "repro", "cluster", "worker",
            "--config-json", json.dumps(self.config),
            "--host", host, "--port", "0",
        ]
        if read_timeout is not None:
            self._command += ["--read-timeout", str(float(read_timeout))]
        self._env = _worker_env()
        try:
            for _ in range(int(num_shards)):
                self._sets.append(
                    [self._spawn_worker() for _ in range(self.replication)]
                )
        except BaseException:
            self.shutdown()
            raise

    def _spawn_worker(self) -> WorkerProcess:
        """Spawn one worker, wait for its ready line, register it."""
        process = subprocess.Popen(
            self._command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._env,
        )
        try:
            ready = _read_ready_line(process, self._spawn_timeout)
        except ShardUnreachableError as exc:
            raise ShardUnreachableError(
                f"{exc}; worker stderr:\n{self._drain(process)}"
            ) from exc
        worker = WorkerProcess(
            process,
            str(ready["host"]),
            int(ready["port"]),
            protocol=self._protocol,
            client_timeout=self._client_timeout,
        )
        self.workers.append(worker)
        return worker

    @staticmethod
    def _drain(process: subprocess.Popen) -> str:
        """Kill a half-started worker and return its stderr tail."""
        process.kill()
        try:
            _, stderr = process.communicate(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill failed
            return "<worker did not exit>"
        return (stderr or "").strip()[-2000:] or "<empty>"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._sets)

    @property
    def addresses(self) -> list[str]:
        return [worker.address for worker in self.workers]

    def worker(self, shard: int, replica: int = 0) -> WorkerProcess:
        """The worker process serving ``replica`` of replica set ``shard``."""
        return self._sets[shard][replica]

    def replica_sets(self) -> list[list[WorkerProcess]]:
        """The worker processes, grouped by replica set, in shard order."""
        return [list(group) for group in self._sets]

    def replica_clients(self) -> list[list[ShardClient]]:
        """Every replica's wire client, grouped by set, in shard order."""
        return [[worker.client for worker in group] for group in self._sets]

    # ------------------------------------------------------------------
    # Supervision (the recovery half of replication)
    # ------------------------------------------------------------------
    def respawn(self, client: ShardClient) -> ShardClient:
        """Replace the worker behind ``client`` with a fresh one.

        The front end calls this after classifying a replica
        unreachable: the old process is killed outright (it is usually
        already dead), a new worker is spawned into the same
        replica-set slot, and the new client is returned for the
        caller to ``restore`` state into.  The new worker starts with
        an *empty* store — restoring from a healthy peer's snapshot is
        the caller's job, because only the caller knows which peer is
        healthy.
        """
        for group in self._sets:
            for index, worker in enumerate(group):
                if worker.client is client:
                    client.close()
                    worker.process.kill()
                    worker.process.wait()
                    for stream in (worker.process.stdout,
                                   worker.process.stderr):
                        if stream is not None:
                            stream.close()
                    self.workers.remove(worker)
                    replacement = self._spawn_worker()
                    group[index] = replacement
                    return replacement.client
        raise ClusterConfigError(
            f"cannot respawn {client.address}: no such worker in this cluster"
        )

    def spawn_replica_set(self, replication: int | None = None) -> list[ShardClient]:
        """Spawn one new replica set (for epoch-based resharding).

        Returns the new workers' clients in replica order.  The set is
        appended to this cluster's supervision list, so ``shutdown``
        covers it like any other.
        """
        count = self.replication if replication is None else int(replication)
        if count < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        group = [self._spawn_worker() for _ in range(count)]
        self._sets.append(group)
        return [worker.client for worker in group]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker: wire ``shutdown`` first, signals as fallback."""
        for worker in self.workers:
            try:
                worker.client.request({"op": "shutdown"})
            except (OSError, ValueError):
                pass  # already dead or unreachable; signals below
            worker.client.close()
        for worker in self.workers:
            process = worker.process
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait()
            for stream in (process.stdout, process.stderr):
                if stream is not None:
                    stream.close()
        self.workers = []
        self._sets = []

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalCluster(shards={self.num_shards}, "
            f"replication={self.replication}, workers={self.addresses})"
        )
