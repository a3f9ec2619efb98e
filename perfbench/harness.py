"""Launch the served fleet, talk to it, and track the host's speed.

:class:`Fleet` starts two shard workers and the front the way
``repro serve --shards 2`` does (see ``fleet.py``), waits until the
front answers ``ping``, and stops every process it started.
:class:`Connection` is the load generator's client: one TCP
connection to the front speaking the binary frames of
:mod:`repro.service.wire`, one request in flight at a time.
:class:`HostSpeed` times a fixed calibration loop between requests, so
timings can be scaled to a reference host speed.
"""

from __future__ import annotations

import json
import os
import select
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

from repro.service import wire

HERE = os.path.dirname(os.path.abspath(__file__))
NUM_SHARDS = 2
#: Seconds a process may take to announce its port, or to exit.
SPAWN_TIMEOUT = 60.0
EXIT_TIMEOUT = 30.0


class HostSpeed:
    """How slow the host runs now, from a fixed calibration loop.

    A shared virtual host changes speed by tens of percent over
    minutes, for every process alike.  :meth:`tick`, called between
    requests, pauses the load every ``INTERVAL_S`` — a short sleep lets
    the fleet go idle — and times ``BURST`` runs of a ~0.5 ms loop of
    numpy sorting, array arithmetic and interpreted Python.  The loop
    runs no code of the program under test, so a faster program does
    not make the host look faster.  :attr:`slowness` is the median loop time over
    ``REFERENCE_S``, the loop's median on the 2-vCPU Xeon host this
    benchmark was built on: times divided by it and rates multiplied by
    it read as they would at that reference speed.
    """

    REFERENCE_S = 0.00055
    INTERVAL_S = 0.25
    BURST = 8
    IDLE_S = 0.002

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._values = rng.integers(0, 1 << 20, 16384)
        self._block = rng.integers(0, 1 << 30, 32768)
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        np.unique(self._values, return_counts=True)
        int((self._block * 3 + 1).sum())
        total = 0
        for i in range(4000):
            total += i * i
        table = {}
        for i in range(1000):
            table[i] = str(i)
        self.samples.append(time.perf_counter() - start)

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            time.sleep(self.IDLE_S)
            for _ in range(self.BURST):
                self.sample()
            self._next = time.perf_counter() + self.INTERVAL_S

    @property
    def slowness(self) -> float:
        return statistics.median(self.samples) / self.REFERENCE_S


class OpFailed(RuntimeError):
    """The front answered a request with an error frame."""


class Connection:
    """One binary-protocol connection to the front."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def receive(self, opcode: int) -> bytes:
        """The payload of the next response, which must answer ``opcode``."""
        frame = wire.read_frame(self.rfile)
        if frame is None:
            raise ConnectionError("the front closed the connection")
        _version, answered, flags, payload = frame
        if flags & wire.FLAG_ERROR:
            raise OpFailed(str(wire.decode_compact(payload).get("error")))
        if answered != opcode or not flags & wire.FLAG_RESPONSE:
            raise OpFailed(f"response to opcode {answered} for {opcode}")
        return payload

    def request(self, op: str, **fields) -> dict:
        """Send one control op and return its decoded response."""
        opcode = wire.OPCODES_BY_NAME[op]
        self.send(wire.pack_frame(opcode, wire.encode_compact(fields)))
        return wire.decode_compact(self.receive(opcode))

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _spawn(args: list[str], log) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "fleet.py"), *args],
        stdout=subprocess.PIPE,
        stderr=log,
    )


def _ready_line(process: subprocess.Popen, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    readable, _, _ = select.select([process.stdout], [], [], max(remaining, 0))
    line = process.stdout.readline() if readable else b""
    if not line:
        raise RuntimeError(f"fleet process {process.pid} did not announce a port")
    return json.loads(line)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Fleet:
    """Two shard workers behind one front, launched and stopped together.

    ``trace_dir`` switches on tracing in every fleet process; each
    writes ``front.json`` / ``worker<i>.json`` there when it stops.
    """

    def __init__(self, config: dict, log_path: str, trace_dir: str | None = None):
        self.trace_dir = trace_dir
        self.processes: list[subprocess.Popen] = []
        self.conn: Connection | None = None
        self._log = open(log_path, "ab")
        try:
            self._launch(config)
        except BaseException:
            self.close()
            raise

    def _trace_args(self, name: str) -> list[str]:
        if self.trace_dir is None:
            return []
        return ["--trace", os.path.join(self.trace_dir, f"{name}.json")]

    def _launch(self, config: dict) -> None:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        workers = [
            _spawn(["worker", "--config-json", json.dumps(config),
                    *self._trace_args(f"worker{i}")], self._log)
            for i in range(NUM_SHARDS)
        ]
        self.processes.extend(workers)
        addresses = []
        for process in workers:
            ready = _ready_line(process, deadline)
            addresses.append(f"{ready['host']}:{ready['port']}")
        front = _spawn(["front", "--workers", ",".join(addresses),
                        *self._trace_args("front")], self._log)
        self.processes.insert(0, front)
        ready = _ready_line(front, deadline)
        self.conn = Connection(ready["host"], int(ready["port"]))
        if not self.conn.request("ping").get("pong"):
            raise RuntimeError("the front did not answer ping")

    def rss_mb(self) -> float:
        """Summed peak RSS of the front and the workers."""
        return sum(vm_hwm_mb(p.pid) for p in self.processes)

    def close(self) -> None:
        """Stop the front (which stops its workers) and reap everything.

        Without an acknowledged ``shutdown`` — a launch that failed
        half-way, a broken connection — every process is killed.
        """
        stopped = False
        if self.conn is not None:
            try:
                self.conn.request("shutdown")
                stopped = True
            except (OSError, OpFailed):
                pass
            self.conn.close()
            self.conn = None
        for process in self.processes:
            if not stopped:
                process.kill()
            try:
                process.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        self.processes = []
        self._log.close()
