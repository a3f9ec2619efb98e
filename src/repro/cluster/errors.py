"""Typed failures of the scale-out cluster layer.

Every error a cluster operation can surface is a subclass of a
standard exception the serving and CLI layers already route:

* :class:`ShardMergeUnsupportedError` extends
  :class:`~repro.engine.protocol.MergeUnsupportedError` (a
  ``TypeError``) — scatter–gather needs per-shard sketches that sum
  to the monolithic sketch, which position-based sampler kinds
  (``samplecount``, ``naivesampling``, ...) cannot provide.
* :class:`ShardUnreachableError` extends ``ConnectionError`` — a
  worker that cannot be reached (never spawned, crashed, network
  refused).  ``ConnectionError`` is an ``OSError``, so CLI paths that
  already treat socket failures as exit-2 user errors inherit the
  right behaviour, and the wire dispatch table reports it as a
  one-line ``{"ok": false}`` response instead of a traceback.
* :class:`ShardProtocolError` extends ``ValueError`` — a worker
  answered, but with something that is not a valid protocol response
  (torn line, non-JSON, missing fields).
* :class:`ClusterConfigError` extends ``ValueError`` — the shard set
  is not a coherent cluster (mismatched sketch specs, bucket widths,
  origins, or an empty shard list).
"""

from __future__ import annotations

from ..engine.protocol import MergeUnsupportedError

__all__ = [
    "ShardMergeUnsupportedError",
    "ShardUnreachableError",
    "ShardProtocolError",
    "ClusterConfigError",
]


class ShardMergeUnsupportedError(MergeUnsupportedError):
    """The sketch kind cannot be served by scatter–gather.

    Cluster queries merge per-shard window sketches into the answer;
    that requires the kind's state over a value partition to sum to
    the monolithic state.  Linear kinds (``tugofwar``, ``frequency``)
    have that property bit for bit; sampler kinds do not.
    """


class ShardUnreachableError(ConnectionError):
    """A shard worker could not be reached (or died mid-conversation)."""


class ShardProtocolError(ValueError):
    """A shard broke the wire protocol, or an ingest's delivery is ambiguous.

    Raised for a reply that is neither valid line-JSON nor a
    well-formed binary response frame (malformed frame, mispaired
    opcode, undecodable payload, no ``ok`` field), for an op with no
    binary opcode, and for an ``ingest`` the client cannot tell was
    applied.
    """


class ClusterConfigError(ValueError):
    """The shard set does not form a coherent cluster configuration."""
