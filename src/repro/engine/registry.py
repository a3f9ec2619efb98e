"""Kind-keyed serialization registry: one entry point for any sketch.

Every concrete :class:`~repro.engine.protocol.Sketch` registers itself
under a short string ``kind`` (``"tugofwar"``, ``"samplecount"``, ...).
:func:`dump_sketch` turns any registered sketch into a JSON-compatible
payload and :func:`load_sketch` reconstructs the right class from a
payload, so callers — the CLI's ``sketch save/load/merge`` commands,
checkpointing harnesses, networked workers shipping partial sketches —
never need to know the concrete type in advance.

Registration happens at class-definition time via the
:func:`register_sketch` decorator in each sketch's own module, so
importing :mod:`repro` populates the registry with every built-in
kind.  Unknown or malformed payloads raise dedicated error types
(:class:`UnknownSketchKindError`, :class:`SketchPayloadError`) with
actionable messages.
"""

from __future__ import annotations

import json
from typing import Mapping, Type, TypeVar

from .protocol import Sketch

__all__ = [
    "register_sketch",
    "sketch_kinds",
    "sketch_descriptions",
    "sketch_class",
    "dump_sketch",
    "load_sketch",
    "dumps_sketch",
    "loads_sketch",
    "UnknownSketchKindError",
    "SketchPayloadError",
]

_REGISTRY: dict[str, Type[Sketch]] = {}

S = TypeVar("S", bound=Type[Sketch])


class UnknownSketchKindError(KeyError):
    """Raised when a payload names a ``kind`` no sketch registered."""

    def __init__(self, kind: object):
        super().__init__(kind)
        self.kind = kind

    def __str__(self) -> str:
        known = ", ".join(sketch_kinds()) or "<none>"
        return (
            f"unknown sketch kind {self.kind!r}; registered kinds: {known}. "
            "Import the module defining the sketch before loading."
        )


class SketchPayloadError(ValueError):
    """Raised when a payload is structurally invalid or corrupt."""


def register_sketch(cls: S) -> S:
    """Class decorator: register ``cls`` under its ``kind`` attribute.

    The class must define a non-empty string ``kind`` and the
    ``to_dict`` / ``from_dict`` pair.  Re-registering a kind with a
    different class is an error (a silent overwrite would make
    ``load_sketch`` ambiguous).
    """
    kind = getattr(cls, "kind", None)
    if not isinstance(kind, str) or not kind:
        raise TypeError(
            f"{cls.__name__} must define a non-empty string `kind` to register"
        )
    existing = _REGISTRY.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"sketch kind {kind!r} already registered to {existing.__name__}"
        )
    _REGISTRY[kind] = cls
    return cls


def sketch_kinds() -> list[str]:
    """All registered kinds, sorted."""
    return sorted(_REGISTRY)


def sketch_descriptions() -> dict[str, str]:
    """``{kind: one-line description}`` for every registered kind, sorted.

    The description is the class's optional ``describe`` attribute
    (empty string when a kind does not set one); ``repro sketch kinds``
    prints this table so new kinds are discoverable.
    """
    return {
        kind: str(getattr(_REGISTRY[kind], "describe", "") or "")
        for kind in sketch_kinds()
    }


def sketch_class(kind: str) -> Type[Sketch]:
    """The class registered under ``kind`` (raises if unknown)."""
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise UnknownSketchKindError(kind)
    return cls


def dump_sketch(sketch: Sketch) -> dict:
    """Serialise any registered sketch to a JSON-compatible payload.

    The payload's ``"kind"`` key routes :func:`load_sketch` back to the
    defining class; dumping an unregistered sketch is an error so a
    payload that cannot round-trip is never produced.
    """
    payload = sketch.to_dict()
    if not isinstance(payload, dict) or "kind" not in payload:
        raise SketchPayloadError(
            f"{type(sketch).__name__}.to_dict() must return a dict with a 'kind' key"
        )
    if payload["kind"] not in _REGISTRY:
        raise UnknownSketchKindError(payload["kind"])
    return payload


def load_sketch(payload: Mapping) -> Sketch:
    """Reconstruct a sketch of any registered kind from its payload.

    Raises
    ------
    SketchPayloadError
        If the payload is not a mapping, lacks a ``kind``, or its body
        is corrupt (missing fields, wrong shapes, bad types, values out
        of range).
    UnknownSketchKindError
        If the named kind was never registered.
    """
    if not isinstance(payload, Mapping):
        raise SketchPayloadError(
            f"sketch payload must be a mapping, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind is None:
        raise SketchPayloadError("sketch payload has no 'kind' key")
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise UnknownSketchKindError(kind)
    try:
        return cls.from_dict(dict(payload))
    except (UnknownSketchKindError, SketchPayloadError):
        raise
    except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise SketchPayloadError(
            f"corrupt payload for sketch kind {kind!r}: {exc}"
        ) from exc


def dumps_sketch(sketch: Sketch, **json_kwargs) -> str:
    """JSON-string convenience wrapper around :func:`dump_sketch`."""
    return json.dumps(dump_sketch(sketch), **json_kwargs)


def loads_sketch(text: str) -> Sketch:
    """JSON-string convenience wrapper around :func:`load_sketch`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SketchPayloadError(f"sketch payload is not valid JSON: {exc}") from exc
    return load_sketch(payload)
