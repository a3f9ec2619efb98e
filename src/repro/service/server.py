"""Threaded estimation server: line-JSON and binary frames on one port.

Protocol (negotiated per connection by first-byte sniffing):

* a first byte of ``{`` (or anything but the binary magic) starts a
  **line-JSON** conversation — one JSON object per line in each
  direction, exactly as every prior release spoke;
* a first byte of ``0xAB`` (the frame magic, which can never begin
  UTF-8 JSON) starts a **binary** conversation of length-prefixed
  frames (:mod:`repro.service.wire`): packed ingest batches decoded
  zero-copy, compact control payloads, HELLO version negotiation.

Every request carries an op; every response carries ``"ok": true``
plus op-specific fields, or ``"ok": false`` with a one-line ``error``
(the wire twin of the CLI's exit-2 user-error contract — malformed
requests never take the server down, and internal tracebacks never
leak to the client).  Supported operations (JSON spelling)::

    {"op": "ping"}
    {"op": "estimate", "from": 0, "until": 600, "align": "outer"}
    {"op": "sketch",   "from": 0, "until": 600}       # full merged sketch
    {"op": "ingest",   "timestamps": [...], "values": [...], "counts": [...]}
    {"op": "compact",  "before": 300}
    {"op": "evict",    "before": 300}
    {"op": "info"}
    {"op": "stats"}
    {"op": "snapshot"}                                # whole-store checkpoint
    {"op": "shutdown"}                                # ack, then stop serving

Dispatch lives in :mod:`repro.service.surface` — one table shared
with the shard worker and the cluster facade, so this module
contributes only transport: a ``ThreadingTCPServer``, one thread per
connection, and the thread that reads a request dispatches it and
writes the answer.  A connection carries any number of requests and
they are answered strictly in order, so a client may pipeline: write
many requests before reading any response.  Correctness is delegated
to the service (snapshot isolation, merged-window caching, request
coalescing).  Every port, front or shard worker, gets the same
protections:

* ``TCP_NODELAY`` on each connection, so the answer to a pipelined
  request is not held back by Nagle's algorithm until the client's
  delayed ACK (~40 ms) releases the one before it;
* a listen backlog of 128 connections (``socketserver`` defaults to 5,
  and a burst of connects beyond that waits out SYN retransmits);
* a binary frame above ``max_frame_bytes`` is refused before
  allocation, its payload drained in chunks, and the connection keeps
  serving;
* a JSON request line longer than ``max(max_frame_bytes, 64 KiB)`` is
  refused once and the connection closed;
* a read timeout (default 300 s): a dead client that holds its socket
  open without ever sending a complete request has its handler thread
  reclaimed instead of pinned forever.

Ingested state lives in memory; snapshot the service
(``{"op": "snapshot"}`` over the wire, or :meth:`SketchService.
snapshot` from the owning process) if durability is needed.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from . import wire
from .surface import (
    _error_frame,
    handle_frame,
    handle_request,
    validate_service,
)

__all__ = [
    "SketchServiceServer",
    "handle_request",
    "DEFAULT_READ_TIMEOUT",
    "PROTOCOLS",
]

#: Seconds a connection may sit idle mid-request before it is dropped.
DEFAULT_READ_TIMEOUT = 300.0

#: Protocols a server may be restricted to (``auto`` sniffs per
#: connection and accepts both).
PROTOCOLS = ("auto", "json", "binary")

#: Bytes drained per read when discarding an oversized frame's payload.
_DRAIN_CHUNK = 1 << 20

#: The header's length field is a u32: parsing the header against this
#: bound never refuses, so the real size check can drain an oversized
#: payload instead of leaving the stream unsynchronized.
_ANY_LENGTH = 1 << 32


def _json_line(response: dict) -> bytes:
    return (json.dumps(response) + "\n").encode("utf-8")


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: sniff the protocol, then serve until hangup.

    The connection socket carries the server's ``read_timeout``: a
    peer that stops mid-request (dead client, half-open TCP session)
    trips the timeout and the handler thread exits instead of sitting
    in a blocking read forever — so a stalled connection can never pin
    a thread past shutdown.
    """

    # Every response leaves in one send call, so Nagle's algorithm has
    # no small writes to coalesce; it would only hold a pipelined
    # answer back until the peer's delayed ACK of the previous one.
    disable_nagle_algorithm = True

    def setup(self) -> None:  # pragma: no cover - exercised over sockets
        if self.server.read_timeout is not None:
            self.request.settimeout(self.server.read_timeout)
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        try:
            first = self.rfile.peek(1)[:1]
        except (socket.timeout, TimeoutError, OSError):
            return
        if not first:
            return  # EOF before a single byte
        binary = first == wire.MAGIC[:1]
        allowed = self.server.protocol
        if binary and allowed == "json":
            self._write(_error_frame(
                wire.OP_HELLO, "this port serves the line-JSON protocol only"
            ))
            return
        if not binary and allowed == "binary":
            self._write(_json_line({
                "ok": False,
                "error": "this port serves the binary protocol only",
            }))
            return
        if binary:
            self._handle_binary()
        else:
            self._handle_json()

    def _write(self, data: bytes) -> bool:
        try:
            self.wfile.write(data)
            return True
        except OSError:
            return False

    def _finish_one(self, stopping: bool) -> bool:
        """Book-keep one served request; True when serving must stop."""
        if self.server.count_request() or stopping:
            # shutdown() only signals the serve_forever loop; it is
            # safe to call from a handler thread.
            self.server.shutdown()
            return True
        return False

    def _handle_json(self) -> None:
        limit = self.server.max_line_bytes
        while True:
            try:
                raw = self.rfile.readline(limit + 1)
            except (socket.timeout, TimeoutError, OSError):
                return  # stalled or torn connection: reclaim the thread
            if not raw:
                return  # orderly EOF
            if len(raw) > limit and not raw.endswith(b"\n"):
                # The rest of the line is still unread, so the stream
                # cannot be resynchronized: answer once, then close.
                self._write(_json_line({
                    "ok": False,
                    "error": f"request line exceeds the {limit}-byte limit",
                }))
                return
            line = raw.strip()
            if not line:
                continue
            response = handle_request(self.server.service, line)
            if not self._write(_json_line(response)):
                return
            stopping = bool(
                response.get("ok") and response.get("op") == "shutdown"
            )
            if self._finish_one(stopping):
                return

    def _handle_binary(self) -> None:
        limit = self.server.max_frame_bytes
        while True:
            try:
                header = self.rfile.read(wire.HEADER_SIZE)
                if not header:
                    return  # orderly EOF at a frame boundary
                version, opcode, flags, length = wire.unpack_header(
                    header, _ANY_LENGTH
                )
                if length > limit:
                    # Refused without allocating; draining keeps the
                    # connection frame-aligned, so it survives.
                    self._drain(length)
                    response = _error_frame(
                        opcode,
                        f"frame payload of {length} bytes exceeds the "
                        f"{limit}-byte limit",
                    )
                    stopping = False
                else:
                    payload = self.rfile.read(length) if length else b""
                    if len(payload) != length:
                        raise wire.FrameFormatError(
                            f"truncated frame payload: got {len(payload)} "
                            f"of {length} bytes"
                        )
                    response, stopping = self.server.dispatch_frame(
                        version, opcode, flags, payload
                    )
            except (socket.timeout, TimeoutError, OSError):
                return
            except wire.WireError as exc:
                # The stream is unsynchronized past a framing error:
                # answer once, then drop the connection.
                self._write(_error_frame(wire.OP_HELLO, str(exc)))
                return
            if not self._write(response):
                return
            if self._finish_one(stopping):
                return

    def _drain(self, length: int) -> None:
        remaining = length
        while remaining:
            chunk = self.rfile.read(min(remaining, _DRAIN_CHUNK))
            if not chunk:
                raise ConnectionError(
                    "connection closed while draining an oversized frame"
                )
            remaining -= len(chunk)


class SketchServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server exposing one estimation service.

    ``repro serve`` fronts a store (or a cluster) with it, and every
    shard worker runs one.

    Parameters
    ----------
    service:
        The service to expose (all concurrency control lives there).
        Anything satisfying the estimate/sketch/ingest/info surface:
        a :class:`~repro.service.service.SketchService`, or the
        cluster facade :class:`~repro.cluster.service.ClusterService`.
    address:
        ``(host, port)``; port 0 binds an ephemeral port, readable from
        :attr:`server_address` after construction.
    max_requests:
        If set, the server shuts itself down after serving this many
        requests — the hook smoke tests and the CI service job use to
        get a bounded run without process signalling.
    read_timeout:
        Seconds a connection may stall mid-request before it is
        dropped (None disables).  Keeps dead clients from pinning
        handler threads.
    protocol:
        ``"auto"`` (default) sniffs each connection's first byte and
        serves line-JSON and binary clients on the same port;
        ``"json"`` / ``"binary"`` refuse the other protocol with a
        one-response explanation.
    max_frame_bytes:
        Upper bound on a binary frame payload; a larger frame is
        refused before allocation and drained.  JSON request lines
        are bounded at ``max(max_frame_bytes, 64 KiB)``.
    """

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 128

    def __init__(
        self,
        service,
        address: tuple[str, int] = ("127.0.0.1", 0),
        max_requests: int | None = None,
        read_timeout: float | None = DEFAULT_READ_TIMEOUT,
        protocol: str = "auto",
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
    ):
        validate_service(service)
        self.service = service
        self.max_requests = None if max_requests is None else int(max_requests)
        if read_timeout is not None and float(read_timeout) <= 0:
            raise ValueError(
                f"read_timeout must be positive or None, got {read_timeout}"
            )
        self.read_timeout = None if read_timeout is None else float(read_timeout)
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"protocol must be one of {PROTOCOLS}, got {protocol!r}"
            )
        self.protocol = protocol
        if int(max_frame_bytes) < wire.HEADER_SIZE:
            raise ValueError(
                f"max_frame_bytes must be at least {wire.HEADER_SIZE}, "
                f"got {max_frame_bytes}"
            )
        self.max_frame_bytes = int(max_frame_bytes)
        self.max_line_bytes = max(self.max_frame_bytes, 1 << 16)
        self._served = 0
        self._served_lock = threading.Lock()
        super().__init__(tuple(address), _RequestHandler)

    def dispatch_frame(self, version, opcode, flags, payload):
        """Serve one binary frame: ``(response frame, stopping)``."""
        return handle_frame(self.service, version, opcode, flags, payload)

    def count_request(self) -> bool:
        """Record one served request; True when the budget is exhausted."""
        if self.max_requests is None:
            return False
        with self._served_lock:
            self._served += 1
            return self._served >= self.max_requests
