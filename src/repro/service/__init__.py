"""Concurrent estimation serving: the system face of the reproduction.

The paper motivates sketches with query optimizers that need *fast,
high-quality join-size estimates at query time*.  This package is the
layer that actually serves those estimates under concurrent load:

* :class:`~repro.service.service.SketchService` — a thread-safe front
  on one :class:`~repro.store.windowed.WindowedSketchStore` or a
  :class:`~repro.store.keyed.KeyedSketchStore` fleet:
  reader–writer snapshot isolation (queries never observe a
  half-applied ingest batch), an LRU merged-window cache keyed by
  ``(key, t0, t1, align)`` invalidated precisely per key and dirty
  bucket span, and single-flight coalescing of concurrent identical
  queries.  Over a fleet of tug-of-war sketches it also answers
  cached join estimates and their error bounds between two keys
  (each a relation), and ``at_window`` adapts any window to the
  optimizer's catalog protocol.
  :class:`~repro.service.keyed.KeyedSketchService` is the same class
  with a constructor that accepts only a fleet.
* :mod:`~repro.service.surface` — the transport-independent op table
  (op name ⇄ opcode ⇄ handler ⇄ idempotency) every server dispatches
  through, so each operation is defined exactly once.
* :mod:`~repro.service.wire` — the length-prefixed binary protocol:
  struct-packed frame headers, zero-copy packed ingest batches,
  compact control payloads, HELLO version negotiation.
* :class:`~repro.service.server.SketchServiceServer` — the one TCP
  transport, behind ``repro serve`` and every shard worker: line-JSON
  and binary frames on one port (first-byte sniffing), pipelined
  connections answered in order, errors surfaced as one-line
  ``{"ok": false, ...}`` responses or error frames.
  :class:`~repro.service.aserver.EventLoopServer` is the same server
  under the name the served-fleet benchmark times its front by.
"""

from .aserver import EventLoopServer
from .concurrency import ReadWriteLock, SingleFlightCache
from .keyed import KeyedSketchService
from .server import DEFAULT_READ_TIMEOUT, PROTOCOLS, SketchServiceServer
from .service import SketchService, WindowEstimate, dirty_intervals
from .surface import OPS, handle_frame, handle_request, validate_service
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameFormatError,
    FrameTooLargeError,
    ProtocolVersionError,
    WireError,
)

__all__ = [
    "SketchService",
    "KeyedSketchService",
    "WindowEstimate",
    "SketchServiceServer",
    "EventLoopServer",
    "handle_request",
    "handle_frame",
    "validate_service",
    "OPS",
    "PROTOCOLS",
    "DEFAULT_READ_TIMEOUT",
    "DEFAULT_MAX_FRAME_BYTES",
    "WireError",
    "FrameFormatError",
    "FrameTooLargeError",
    "ProtocolVersionError",
    "ReadWriteLock",
    "SingleFlightCache",
    "dirty_intervals",
]
