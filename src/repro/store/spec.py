"""Sketch specifications: reproducible construction of bucket sketches.

A windowed store must be able to create a fresh sketch for any time
bucket at any moment — when the first event of a new bucket arrives,
when an out-of-order event opens an old bucket, when a snapshot is
restored on another host.  All those sketches must be *identically
configured* (same kind, same parameters, and for mergeable kinds the
same hash seed) or the merge-on-query step would correctly refuse to
combine them.

:class:`SketchSpec` captures that configuration as data: a registry
``kind`` (see :mod:`repro.engine.registry`) plus the keyword arguments
of the sketch's constructor.  It is the unit of store configuration,
serialises alongside the buckets, and answers the algebraic
questions the store routes on (``is_linear``, ``is_mergeable``,
``is_fixed_size``) without instantiating anything.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..engine.protocol import Sketch
from ..engine.registry import SketchPayloadError, sketch_class

__all__ = ["SketchSpec"]


@dataclass(frozen=True)
class SketchSpec:
    """A recipe for building identically-configured sketches.

    Parameters
    ----------
    kind:
        A registered sketch kind (``"tugofwar"``, ``"frequency"``, ...).
    params:
        Constructor keyword arguments, JSON-compatible.  For mergeable
        kinds the ``seed`` entry is what makes every bucket sketch of
        one store combinable.

    Examples
    --------
    >>> spec = SketchSpec("tugofwar", {"s1": 64, "s2": 5, "seed": 7})
    >>> a, b = spec.build(), spec.build()
    >>> a.merge(b).n
    0
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        cls = sketch_class(self.kind)  # fail fast on unknown kinds
        params = dict(self.params)
        # A mergeable kind whose constructor is seeded *must* build
        # every sketch from one concrete seed, or no two builds could
        # ever merge.  An absent/None seed is pinned to fresh entropy
        # here, once, so the spec (and everything serialised from it)
        # stays reproducible from this point on.
        if (
            self.is_mergeable
            and "seed" in inspect.signature(cls).parameters
            and params.get("seed") is None
        ):
            params["seed"] = int(np.random.SeedSequence().generate_state(1)[0])
        object.__setattr__(self, "params", params)

    def build(self) -> Sketch:
        """A fresh, empty sketch of this specification."""
        return sketch_class(self.kind)(**self.params)

    @functools.cached_property
    def memory_words(self) -> int:
        """``memory_words`` of a fresh sketch, from one build per spec.

        A windowed store reads it when it is made, so that build also
        runs the constructor's checks (a seed the hash family refuses
        is refused then, not at the first ingest), and every per-key
        store of a fleet, sharing the template spec, reuses it.
        """
        return self.build().memory_words

    @property
    def is_mergeable(self) -> bool:
        """Whether sketches of this kind can be combined with ``merge``."""
        return sketch_class(self.kind).merge is not Sketch.merge

    @property
    def is_linear(self) -> bool:
        """Whether the sketch state is linear in the frequency vector."""
        return bool(sketch_class(self.kind).is_linear)

    @property
    def is_fixed_size(self) -> bool:
        """Whether ``memory_words`` is set by the params, not the data."""
        return bool(sketch_class(self.kind).is_fixed_size)

    def to_dict(self) -> dict:
        """Serialise the spec to a JSON-compatible payload."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SketchSpec":
        """Reconstruct a spec from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping) or "kind" not in payload:
            raise SketchPayloadError(
                "sketch spec payload must be a mapping with a 'kind' key"
            )
        return cls(str(payload["kind"]), dict(payload.get("params", {})))
