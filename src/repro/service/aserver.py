"""``EventLoopServer``: the threaded server under the front's name.

``repro serve`` fronts a store or a cluster with
:class:`~repro.service.server.SketchServiceServer`, the transport every
shard worker runs.  This subclass changes one thing: it looks binary
dispatch up as ``repro.service.aserver.handle_frame``, so the
served-fleet benchmark (``perfbench/``), which launches its front with
this class, times front dispatch apart from worker dispatch.
"""

from __future__ import annotations

from .server import SketchServiceServer
from .surface import handle_frame

__all__ = ["EventLoopServer"]


class EventLoopServer(SketchServiceServer):
    """A :class:`~repro.service.server.SketchServiceServer` whose frame
    dispatch is looked up in this module."""

    def dispatch_frame(self, version, opcode, flags, payload):
        """Serve one binary frame through this module's ``handle_frame``."""
        return handle_frame(self.service, version, opcode, flags, payload)
