"""The transport-independent service surface: one op table, every server.

Three things serve estimates in this repo — the threaded server
behind ``repro serve``, the shard worker (a service behind that same
server), and the cluster scatter–gather facade a front serves.  They
all dispatch through the table below, so an op (name, opcode,
handler, error wording, idempotency) exists exactly once; a transport
contributes only framing.

Entry points:

* :func:`handle_request` — one line-JSON request in, one response
  mapping out (never raises);
* :func:`handle_frame` — one binary frame in, one response frame out
  (never raises), including HELLO version negotiation;
* :func:`validate_service` — the structural check that an object
  satisfies the estimate / sketch / ingest / info surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..engine.protocol import MergeUnsupportedError
from ..engine.registry import dump_sketch
from . import wire

__all__ = [
    "OpSpec",
    "OPS",
    "OPS_BY_CODE",
    "SERVICE_SURFACE",
    "HANDLED_ERRORS",
    "validate_service",
    "handle_request",
    "handle_request_mapping",
    "handle_frame",
]

#: The attributes a service object must answer for the dispatch table.
#: Structural, not nominal: SketchService and ClusterService both
#: qualify, and anything else that does is servable by construction.
SERVICE_SURFACE = (
    "estimate_window",
    "sketch_window",
    "ingest",
    "compact",
    "evict",
    "info",
    "snapshot",
    "restore",
    "stats",
    "spec",
    "bucket_width",
    "origin",
    "spans",
    "coverage",
    "memory_words",
)

#: Exception types a handler may raise that become ``ok: false``
#: responses instead of taking the connection (or the server) down.
HANDLED_ERRORS = (
    ValueError,  # misaligned/empty windows, bad batches (incl. subclasses)
    TypeError,
    LookupError,
    NotImplementedError,  # deletion counts on insertion-only kinds
    MergeUnsupportedError,
    ConnectionError,  # a cluster front end's shard became unreachable
    OverflowError,
)


def validate_service(service) -> None:
    """Reject objects that do not satisfy the serving surface."""
    missing = [attr for attr in SERVICE_SURFACE if not hasattr(service, attr)]
    if missing:
        raise TypeError(
            f"service {type(service).__name__} does not satisfy the "
            f"serving surface; missing {', '.join(missing)}"
        )


def _window(request: Mapping) -> tuple[int, int, str]:
    """Extract (t0, t1, align) from a request, validating presence."""
    if "from" not in request or "until" not in request:
        raise ValueError("window ops need 'from' and 'until' timestamps")
    align = request.get("align", "strict")
    return int(request["from"]), int(request["until"]), str(align)


def _keyed(request: Mapping) -> dict:
    """The ``key=`` kwarg a request asks for, or nothing.

    The key is forwarded *only when present*: a keyed request against
    a single-stream service then raises a ``TypeError`` (a handled
    error naming the "unkeyed store") instead of silently answering
    from the wrong stream, and a key-less one leaves the service to
    decide (a fleet refuses it on the data path and reads it as
    "every key" for compact, evict, snapshot, restore and stats).
    """
    key = request.get("key")
    if key is None:
        return {}
    if not isinstance(key, str) or not key:
        raise ValueError(f"'key' must be a non-empty string, got {key!r}")
    return {"key": key}


def _op_ping(service, request: Mapping) -> dict:
    return {"pong": True}


def _op_estimate(service, request: Mapping) -> dict:
    t0, t1, align = _window(request)
    result = service.estimate_window(t0, t1, align=align, **_keyed(request))
    return {
        "window": [result.t0, result.t1],
        "estimate": result.estimate,
    }


def _op_sketch(service, request: Mapping) -> dict:
    t0, t1, align = _window(request)
    sketch, lo, hi = service.sketch_window(t0, t1, align=align, **_keyed(request))
    return {"window": [lo, hi], "sketch": dump_sketch(sketch)}


def _op_ingest(service, request: Mapping) -> dict:
    timestamps = request.get("timestamps")
    values = request.get("values")
    batch_types = (list, np.ndarray)
    if not isinstance(timestamps, batch_types) or not isinstance(
        values, batch_types
    ):
        raise ValueError("ingest needs 'timestamps' and 'values' lists")
    counts = request.get("counts")
    if counts is not None and not isinstance(counts, batch_types):
        raise ValueError("'counts' must be a list when present")
    timestamps = wire.integer_column(timestamps, "timestamps")
    values = wire.integer_column(values, "values")
    if counts is not None:
        counts = wire.integer_column(counts, "counts")
    service.ingest(timestamps, values, counts=counts, **_keyed(request))
    return {"ingested": len(values)}


def _op_compact(service, request: Mapping) -> dict:
    before = request.get("before")
    folded = service.compact(
        None if before is None else int(before), **_keyed(request)
    )
    return {"folded": folded}


def _op_evict(service, request: Mapping) -> dict:
    if "before" not in request:
        raise ValueError("evict needs a 'before' bucket boundary")
    return {"evicted": service.evict(int(request["before"]), **_keyed(request))}


def _op_info(service, request: Mapping) -> dict:
    # One service call, not one per field: the service assembles a
    # consistent summary (and a cluster facade answers it with a
    # single scatter instead of one per property).
    return service.info()


def _op_stats(service, request: Mapping) -> dict:
    return {"cache": service.stats(**_keyed(request))}


def _op_snapshot(service, request: Mapping) -> dict:
    return {"snapshot": service.snapshot(**_keyed(request))}


def _op_restore(service, request: Mapping) -> dict:
    if "snapshot" not in request or not isinstance(request["snapshot"], Mapping):
        raise ValueError("restore needs a 'snapshot' mapping")
    service.restore(request["snapshot"], **_keyed(request))
    return {"restored": True}


def _op_shutdown(service, request: Mapping) -> dict:
    # The ack is written before the server stops (the transport
    # triggers the actual shutdown after responding), so the peer that
    # asked always learns the request was honoured.
    return {"stopping": True}


@dataclass(frozen=True)
class OpSpec:
    """One operation: its wire names, handler, and retry semantics.

    ``idempotent`` is the contract clients key retries on: repeating
    an idempotent op cannot change the outcome, while replaying a
    non-idempotent one (``ingest`` — signed, cumulative) corrupts
    state, so a client that cannot prove non-delivery must surface the
    ambiguity instead of resending.
    """

    name: str
    opcode: int
    handler: Callable[[object, Mapping], dict]
    idempotent: bool = True
    stops_server: bool = False


_SPECS = (
    OpSpec("ping", wire.OP_PING, _op_ping),
    OpSpec("estimate", wire.OP_ESTIMATE, _op_estimate),
    OpSpec("sketch", wire.OP_SKETCH, _op_sketch),
    OpSpec("ingest", wire.OP_INGEST, _op_ingest, idempotent=False),
    OpSpec("compact", wire.OP_COMPACT, _op_compact),
    OpSpec("evict", wire.OP_EVICT, _op_evict),
    OpSpec("info", wire.OP_INFO, _op_info),
    OpSpec("stats", wire.OP_STATS, _op_stats),
    OpSpec("snapshot", wire.OP_SNAPSHOT, _op_snapshot),
    # Restore writes *absolute* state, so unlike ingest a replay cannot
    # change the outcome — idempotent, and safe to resend on ambiguity.
    OpSpec("restore", wire.OP_RESTORE, _op_restore),
    OpSpec("shutdown", wire.OP_SHUTDOWN, _op_shutdown, stops_server=True),
)

OPS: dict[str, OpSpec] = {spec.name: spec for spec in _SPECS}
OPS_BY_CODE: dict[int, OpSpec] = {spec.opcode: spec for spec in _SPECS}


def _run_handler(service, spec: OpSpec, request: Mapping) -> dict:
    """One dispatch: handler success or a one-line error response."""
    try:
        return {"ok": True, "op": spec.name, **spec.handler(service, request)}
    except HANDLED_ERRORS as exc:
        return {"ok": False, "error": str(exc)}


def handle_request_mapping(service, request) -> dict:
    """Serve one already-decoded request mapping; never raises."""
    if not isinstance(request, Mapping) or "op" not in request:
        return {"ok": False, "error": "request must be a JSON object with an 'op'"}
    spec = OPS.get(str(request["op"]))
    if spec is None:
        return {
            "ok": False,
            "error": f"unknown op {request['op']!r}; supported: {sorted(OPS)}",
        }
    return _run_handler(service, spec, request)


def handle_request(service, line: str | bytes) -> dict:
    """Serve one line-JSON request; never raises (errors become responses).

    The single entry point behind every JSON transport and any
    in-process driver (tests call it directly), so wire behaviour and
    error wording have exactly one definition.  ``service`` is
    anything satisfying the estimate/sketch/ingest/info surface —
    a :class:`~repro.service.service.SketchService` or a
    :class:`~repro.cluster.service.ClusterService`.
    """
    try:
        request = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: a bytes line that is not UTF-8 at all
        # (e.g. binary frames leaking into a JSON conversation) is as
        # recoverable as malformed JSON.
        return {"ok": False, "error": f"invalid JSON: {exc}"}
    return handle_request_mapping(service, request)


def _error_frame(opcode: int, message: str) -> bytes:
    return wire.pack_frame(
        opcode,
        wire.encode_compact({"ok": False, "error": message}),
        flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
    )


def handle_frame(
    service, version: int, opcode: int, flags: int, payload
) -> tuple[bytes, bool]:
    """Serve one binary frame; returns ``(response frame, stopping)``.

    Never raises: version skew, unknown opcodes, and malformed
    payloads all come back as error frames (the binary twin of the
    ``ok: false`` line), so one bad request costs the peer one
    response, not the connection.
    """
    if version not in wire.SUPPORTED_VERSIONS:
        return (
            _error_frame(
                opcode,
                f"unsupported protocol version {version}; this side "
                f"speaks {list(wire.SUPPORTED_VERSIONS)}",
            ),
            False,
        )
    if flags & wire.FLAG_RESPONSE:
        return _error_frame(opcode, "received a response frame as a request"), False
    if opcode == wire.OP_HELLO:
        try:
            request = wire.decode_compact(payload) if len(payload) else None
            response: dict = {"ok": True, "op": "hello", **wire.hello_response(request)}
        except wire.WireError as exc:
            return _error_frame(opcode, str(exc)), False
        return (
            wire.pack_frame(
                opcode, wire.encode_compact(response), flags=wire.FLAG_RESPONSE
            ),
            False,
        )
    spec = OPS_BY_CODE.get(opcode)
    if spec is None:
        supported = sorted(OPS_BY_CODE) + [wire.OP_HELLO]
        return (
            _error_frame(
                opcode, f"unknown opcode {opcode}; supported: {supported}"
            ),
            False,
        )
    try:
        if opcode == wire.OP_INGEST:
            timestamps, values, counts, key = wire.unpack_ingest(payload)
            request = {
                "op": spec.name,
                "timestamps": timestamps,
                "values": values,
            }
            if counts is not None:
                request["counts"] = counts
            if key is not None:
                request["key"] = key
        else:
            decoded = wire.decode_compact(payload) if len(payload) else {}
            if decoded is None:
                decoded = {}
            if not isinstance(decoded, Mapping):
                raise wire.FrameFormatError(
                    f"{spec.name} payload must be a mapping, got "
                    f"{type(decoded).__name__}"
                )
            request = {"op": spec.name, **decoded}
    except wire.WireError as exc:
        return _error_frame(opcode, str(exc)), False
    response = _run_handler(service, spec, request)
    ok = bool(response.get("ok"))
    response_flags = wire.FLAG_RESPONSE | (0 if ok else wire.FLAG_ERROR)
    try:
        body = wire.encode_compact(response)
    except wire.WireError as exc:  # pragma: no cover - defensive
        return _error_frame(opcode, f"unencodable response: {exc}"), False
    return (
        wire.pack_frame(opcode, body, flags=response_flags),
        ok and spec.stops_server,
    )
