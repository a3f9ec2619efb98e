"""The length-prefixed binary wire protocol (frames + payload codecs).

The line-JSON protocol spends most of an ingest batch's budget
materialising and re-parsing Python objects: every value becomes a
decimal string on the way out and a freshly allocated ``int`` on the
way in, at every hop.  This module defines the binary twin: fixed
``struct``-packed frame headers, batched ingest carried as packed
little-endian int64 arrays decoded zero-copy with ``np.frombuffer``,
and a compact msgpack-style encoding for control payloads and
responses, whose integer columns (a sketch's counters) travel packed
rather than one tagged object per value.

Frame layout (all integers little-endian)::

    offset  size  field
    0       2     magic    0xAB 0x52  (0xAB can never start UTF-8 JSON,
                                       so one port can sniff both)
    2       1     version  protocol version (currently 3)
    3       1     opcode   operation (see OP_*)
    4       2     flags    bit 0: response, bit 1: error response
    6       4     length   payload bytes that follow the header

A request frame carries ``flags == 0``; the response echoes the opcode
with :data:`FLAG_RESPONSE` set (plus :data:`FLAG_ERROR` when the body
is a ``{"ok": false, "error": ...}`` refusal).  Control payloads are
compact-encoded mappings shaped exactly like the line-JSON protocol's
objects minus the ``"op"`` key (the opcode carries it); the response
payload is the same mapping a JSON response line would hold.

Ingest payload (opcode :data:`OP_INGEST`)::

    offset  size  field
    0       1     payload flags  bit 0: counts present,
                                 bit 1: scalar timestamp,
                                 bit 2: key present
    1       3     padding
    4       4     n        number of events (u32)
    8       8     scalar timestamp (i64; 0 unless bit 1 set)
    16      8n    values      packed <i8
    16+8n   8n    timestamps  packed <i8 (absent when scalar)
    ...     8n    counts      packed <i8 (present when bit 0 set)
    ...     2+k   key         u16 length + UTF-8 bytes (when bit 2 set)

The key trailer rides after the packed columns so the int64 arrays
stay 8-aligned at fixed offsets and decode zero-copy whether or not
the batch is keyed.

Version negotiation: a client may open with :data:`OP_HELLO` carrying
``{"versions": [...]}``; the server answers with the highest version
both sides speak or an error frame when there is none.  Version 3 is
the only version: version 2 sketch payloads shipped every hash
coefficient, version 3 ones name the family by seed and digest, so a
version-2 peer is refused at its first frame rather than mid-payload.
The header layout itself is version-invariant — magic, version,
opcode, flags, length always parse — so a version-skewed peer gets a
readable error frame instead of a dropped connection.  Sniffing rule
(one port, both protocols): a connection whose first byte is ``0xAB``
is binary; anything else is treated as a line-JSON conversation
(``{`` in the common case).

Size guard: frames above ``max_frame_bytes`` (default 64 MiB) raise
:class:`FrameTooLargeError` before any allocation, so a corrupt or
hostile length field cannot balloon server memory.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "SUPPORTED_VERSIONS",
    "HEADER",
    "HEADER_SIZE",
    "DEFAULT_MAX_FRAME_BYTES",
    "FLAG_RESPONSE",
    "FLAG_ERROR",
    "OP_HELLO",
    "OP_PING",
    "OP_ESTIMATE",
    "OP_SKETCH",
    "OP_INGEST",
    "OP_COMPACT",
    "OP_EVICT",
    "OP_INFO",
    "OP_STATS",
    "OP_SNAPSHOT",
    "OP_SHUTDOWN",
    "OP_RESTORE",
    "OPCODE_NAMES",
    "OPCODES_BY_NAME",
    "WireError",
    "FrameFormatError",
    "FrameTooLargeError",
    "ProtocolVersionError",
    "pack_frame",
    "unpack_header",
    "read_frame",
    "FrameDecoder",
    "encode_compact",
    "decode_compact",
    "integer_column",
    "pack_ingest",
    "unpack_ingest",
    "hello_response",
]

MAGIC = b"\xabR"
WIRE_VERSION = 3
SUPPORTED_VERSIONS = (3,)

HEADER = struct.Struct("<2sBBHI")
HEADER_SIZE = HEADER.size  # 10 bytes

#: Upper bound on a frame payload unless the server overrides it.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

FLAG_RESPONSE = 0x0001
FLAG_ERROR = 0x0002

OP_HELLO = 0
OP_PING = 1
OP_ESTIMATE = 2
OP_SKETCH = 3
OP_INGEST = 4
OP_COMPACT = 5
OP_EVICT = 6
OP_INFO = 7
OP_STATS = 8
OP_SNAPSHOT = 9
OP_SHUTDOWN = 10
OP_RESTORE = 11

OPCODE_NAMES = {
    OP_HELLO: "hello",
    OP_PING: "ping",
    OP_ESTIMATE: "estimate",
    OP_SKETCH: "sketch",
    OP_INGEST: "ingest",
    OP_COMPACT: "compact",
    OP_EVICT: "evict",
    OP_INFO: "info",
    OP_STATS: "stats",
    OP_SNAPSHOT: "snapshot",
    OP_SHUTDOWN: "shutdown",
    OP_RESTORE: "restore",
}
OPCODES_BY_NAME = {name: code for code, name in OPCODE_NAMES.items()}


class WireError(ValueError):
    """Base class for binary-protocol failures (a :class:`ValueError`:
    at the serving boundary these are peer-correctable, like bad JSON)."""


class FrameFormatError(WireError):
    """A frame or payload that does not parse (bad magic, truncation,
    malformed compact data)."""


class FrameTooLargeError(WireError):
    """A frame whose declared payload exceeds the configured maximum."""


class ProtocolVersionError(WireError):
    """The peer speaks a protocol version this side does not."""


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def pack_frame(
    opcode: int,
    payload: bytes | bytearray | memoryview = b"",
    flags: int = 0,
    version: int = WIRE_VERSION,
) -> bytes:
    """One complete frame: packed header followed by the payload."""
    return HEADER.pack(MAGIC, version, opcode, flags, len(payload)) + bytes(
        payload
    )


def unpack_header(
    header: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[int, int, int, int]:
    """Parse a 10-byte header into ``(version, opcode, flags, length)``.

    Validates the magic and the length bound — *not* the version:
    the header layout is version-invariant, so dispatch can answer a
    version-skewed peer with a proper error frame.
    """
    if len(header) != HEADER_SIZE:
        raise FrameFormatError(
            f"truncated frame header: got {len(header)} of "
            f"{HEADER_SIZE} bytes"
        )
    magic, version, opcode, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameFormatError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame payload of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return version, opcode, flags, length


def read_frame(
    rfile, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[int, int, int, bytes] | None:
    """Read one frame from a blocking binary file object.

    Returns ``(version, opcode, flags, payload)``, or ``None`` on a
    clean EOF at a frame boundary.  EOF anywhere else is a truncation
    and raises :class:`FrameFormatError`.
    """
    header = rfile.read(HEADER_SIZE)
    if not header:
        return None
    version, opcode, flags, length = unpack_header(header, max_frame_bytes)
    payload = rfile.read(length) if length else b""
    if len(payload) != length:
        raise FrameFormatError(
            f"truncated frame payload: got {len(payload)} of {length} bytes"
        )
    return version, opcode, flags, payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk feed.

    ``feed`` bytes as they arrive; iterate :meth:`frames` to drain
    every complete frame.  Malformed input raises on the *next* drain,
    leaving previously parsed frames intact — a transport loop can
    answer them before reporting the error.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = int(max_frame_bytes)
        self._buf = bytearray()

    def feed(self, data: bytes | bytearray | memoryview) -> None:
        """Append a chunk of received bytes to the parse buffer."""
        self._buf += data

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet drained as complete frames."""
        return len(self._buf)

    def frames(self):
        """Yield ``(version, opcode, flags, payload)`` for each
        complete frame currently buffered."""
        while len(self._buf) >= HEADER_SIZE:
            version, opcode, flags, length = unpack_header(
                bytes(self._buf[:HEADER_SIZE]), self.max_frame_bytes
            )
            if len(self._buf) < HEADER_SIZE + length:
                return
            payload = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            del self._buf[:HEADER_SIZE + length]
            yield version, opcode, flags, payload


# ----------------------------------------------------------------------
# Compact control-payload codec (msgpack-style, little-endian)
# ----------------------------------------------------------------------
# Type tags.  The shapes follow msgpack's fix/8/16/32 families, but
# multi-byte values are little-endian like the rest of the protocol
# (this codec only ever talks to itself across the wire).
#
# One tag has no msgpack twin: _PACKED carries an integer column — a
# sketch's counters, a frequency vector's [value, count] pairs — as raw
# machine integers instead of one tagged object per element:
#
#     size  field
#     1     0xC7
#     1     descriptor  high nibble: rank (1 or 2),
#                       low nibble: element width in bytes (1, 2, 4, 8)
#     4r    dimensions  u32 each, rank of them, none zero
#     w*n   values      signed little-endian, row-major
#
# The encoder packs an integer ndarray, a list of at least _PACK_MIN
# plain ints (bools stay tagged, so they decode as bools), or a list of
# at least _PACK_MIN equal-length rows of plain ints, at the narrowest
# width that holds every value.  It decodes to nested lists of ints, so
# a packed payload decodes to the same mapping as its JSON round trip.
_NIL = 0xC0
_FALSE = 0xC2
_TRUE = 0xC3
_PACKED = 0xC7
_FLOAT64 = 0xCB
_INT64 = 0xD3
_STR8 = 0xD9
_STR16 = 0xDA
_STR32 = 0xDB
_ARRAY16 = 0xDC
_ARRAY32 = 0xDD
_MAP16 = 0xDE
_MAP32 = 0xDF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: Nesting bound for both codec directions: a hostile payload of
#: nothing but array headers must not turn into a RecursionError.
_MAX_DEPTH = 64

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Shortest list the encoder tries to pack: below it, per-element tags
#: cost about as much as the packed header.
_PACK_MIN = 8
#: Element width in bytes -> the signed little-endian dtype of a column.
_PACKED_DTYPES = {w: np.dtype(f"<i{w}") for w in (1, 2, 4, 8)}
#: Rank -> the u32 dimension fields of a packed column.
_PACKED_DIMS = {1: struct.Struct("<I"), 2: struct.Struct("<2I")}


def _too_deep() -> FrameFormatError:
    return FrameFormatError(f"payload nests deeper than {_MAX_DEPTH} levels")


def _encode_key(key) -> str:
    """Mapping keys, stringified exactly as ``json.dumps`` would.

    Matching JSON's key coercion keeps the two protocols
    answer-identical: a response that round-trips through either wire
    decodes to the same mapping.
    """
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, np.integer)):
        return str(int(key))
    if isinstance(key, (float, np.floating)):
        return repr(float(key))
    raise FrameFormatError(
        f"cannot encode mapping key of type {type(key).__name__}"
    )


def _encode_into(out: bytearray, obj, depth: int) -> None:
    """Append ``obj``'s encoding to ``out``.

    The five types a response is built of are told apart by their
    exact type, one comparison each; anything else goes down the
    ``isinstance`` chain of :func:`_encode_other`.  Both paths write
    through the same per-tag helpers.
    """
    if depth > _MAX_DEPTH:
        raise _too_deep()
    cls = type(obj)
    if cls is int:
        _encode_int(out, obj)
    elif cls is str:
        _encode_str(out, obj)
    elif cls is dict:
        _encode_mapping(out, obj, depth)
    elif cls is list:
        _encode_array(out, obj, depth)
    elif cls is float:
        _encode_float(out, obj)
    else:
        _encode_other(out, obj, depth)


def _encode_other(out: bytearray, obj, depth: int) -> None:
    """None, bools, numpy scalars and arrays, tuples, other mappings,
    and subclasses of int and str (an ``IntEnum``).

    The order matters: a bool is an int and a ``np.float64`` a float.
    """
    if obj is None:
        out.append(_NIL)
    elif obj is True or obj is False or isinstance(obj, np.bool_):
        out.append(_TRUE if obj else _FALSE)
    elif isinstance(obj, (int, np.integer)):
        _encode_int(out, int(obj))
    elif isinstance(obj, (float, np.floating)):
        _encode_float(out, float(obj))
    elif isinstance(obj, str):
        _encode_str(out, obj)
    elif isinstance(obj, (list, tuple)):
        _encode_array(out, obj, depth)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu" and obj.ndim in (1, 2) and obj.size:
            _encode_packed(out, obj)
        else:
            _encode_into(out, obj.tolist(), depth)
    elif isinstance(obj, Mapping):
        _encode_mapping(out, obj, depth)
    else:
        raise FrameFormatError(
            f"cannot encode object of type {type(obj).__name__}"
        )


def _encode_int(out: bytearray, value: int) -> None:
    if 0 <= value <= 0x7F:
        out.append(value)
    elif -32 <= value < 0:
        out.append(value & 0xFF)
    elif _INT64_MIN <= value <= _INT64_MAX:
        out.append(_INT64)
        out += _I64.pack(value)
    else:
        raise FrameFormatError(f"integer {value} exceeds int64 range")


def _encode_float(out: bytearray, value: float) -> None:
    out.append(_FLOAT64)
    out += _F64.pack(value)


def _encode_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    size = len(raw)
    if size <= 0xFF:
        out.append(_STR8)
        out.append(size)
    elif size <= 0xFFFF:
        out.append(_STR16)
        out += _U16.pack(size)
    elif size <= 0xFFFFFFFF:
        out.append(_STR32)
        out += _U32.pack(size)
    else:
        raise FrameFormatError("string exceeds 4 GiB")
    out += raw


def _encode_array(out: bytearray, items, depth: int) -> None:
    packed = _int_column(items) if len(items) >= _PACK_MIN else None
    if packed is not None:
        _encode_packed(out, packed)
        return
    _encode_length(out, len(items), _ARRAY16, _ARRAY32, "array")
    for item in items:
        _encode_into(out, item, depth + 1)


def _encode_mapping(out: bytearray, mapping, depth: int) -> None:
    _encode_length(out, len(mapping), _MAP16, _MAP32, "mapping")
    for key, value in mapping.items():
        if type(key) is not str:
            key = _encode_key(key)
        # The key is written here rather than through _encode_into, so
        # its level's depth check is made here too.
        if depth >= _MAX_DEPTH:
            raise _too_deep()
        _encode_str(out, key)
        _encode_into(out, value, depth + 1)


def _int_column(items) -> np.ndarray | None:
    """``items`` as an int64 array when it is a list of plain ints or a
    rectangle of equal-length rows of them; None for anything else."""
    types = set(map(type, items))
    if types == {int}:
        flat, shape = items, (len(items),)
    elif types <= {list, tuple} and len(widths := set(map(len, items))) == 1:
        flat = list(itertools.chain.from_iterable(items))
        if set(map(type, flat)) != {int}:
            return None
        shape = (len(items), widths.pop())
    else:
        return None
    try:
        return np.array(flat, dtype=np.int64).reshape(shape)
    except OverflowError:
        raise FrameFormatError(
            "integer list holds a value outside the int64 range"
        ) from None


def _encode_packed(out: bytearray, arr: np.ndarray) -> None:
    lo, hi = int(arr.min()), int(arr.max())
    for width, dtype in _PACKED_DTYPES.items():
        bound = 1 << (8 * width - 1)
        if -bound <= lo and hi < bound:
            break
    else:
        raise FrameFormatError(f"integer {hi} exceeds int64 range")
    if max(arr.shape) > 0xFFFFFFFF:
        raise FrameFormatError("array exceeds 2^32 entries")
    out.append(_PACKED)
    out.append(arr.ndim << 4 | width)
    out += _PACKED_DIMS[arr.ndim].pack(*arr.shape)
    out += arr.astype(dtype, copy=False).tobytes()


def _encode_length(
    out: bytearray, count: int, tag16: int, tag32: int, what: str
) -> None:
    if count <= 0xFFFF:
        out.append(tag16)
        out += _U16.pack(count)
    elif count <= 0xFFFFFFFF:
        out.append(tag32)
        out += _U32.pack(count)
    else:
        raise FrameFormatError(f"{what} exceeds 2^32 entries")


def encode_compact(obj) -> bytes:
    """Encode a JSON-shaped object (None/bool/int/float/str/list/dict,
    plus numpy scalars and arrays) to compact bytes.

    Integer arrays and integer lists long enough to pay for it are
    packed (see the ``_PACKED`` layout); everything decodes to what a
    ``json.dumps``/``json.loads`` round trip would give.
    """
    out = bytearray()
    _encode_into(out, obj, 0)
    return bytes(out)


# The decoder walks the payload by integer offset: each helper takes
# the offset of what it reads and returns ``(object, offset after
# it)``.  Every read checks its bounds once, before a ``struct``
# ``unpack_from`` or an index, so a short or corrupt payload raises
# FrameFormatError, never IndexError or struct.error.
def _truncated(data, pos: int, wanted: int) -> FrameFormatError:
    return FrameFormatError(
        f"compact payload truncated: wanted {wanted} bytes at offset "
        f"{pos}, have {len(data) - pos}"
    )


def _decode_at(data, pos: int, depth: int):
    if depth > _MAX_DEPTH:
        raise _too_deep()
    if pos >= len(data):
        raise _truncated(data, pos, 1)
    tag = data[pos]
    pos += 1
    if tag <= 0x7F:
        return tag, pos
    if tag == _STR8:
        if pos >= len(data):
            raise _truncated(data, pos, 1)
        return _decode_str(data, pos + 1, data[pos])
    if tag == _MAP16 or tag == _MAP32:
        return _decode_mapping(data, pos, tag, depth)
    if tag >= 0xE0:
        return tag - 0x100, pos
    if tag == _INT64 or tag == _FLOAT64:
        if pos + 8 > len(data):
            raise _truncated(data, pos, 8)
        field = _I64 if tag == _INT64 else _F64
        return field.unpack_from(data, pos)[0], pos + 8
    if tag == _PACKED:
        return _decode_packed(data, pos)
    if tag == _ARRAY16 or tag == _ARRAY32:
        return _decode_array(data, pos, tag, depth)
    if tag == _NIL:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _STR16 or tag == _STR32:
        length, pos = _decode_count(data, pos, tag)
        return _decode_str(data, pos, length)
    raise FrameFormatError(f"unknown compact type tag 0x{tag:02x}")


def _decode_count(data, pos: int, tag: int):
    """The u16 or u32 count that follows a 16- or 32-bit tag."""
    field = _U16 if tag in (_ARRAY16, _MAP16, _STR16) else _U32
    if pos + field.size > len(data):
        raise _truncated(data, pos, field.size)
    return field.unpack_from(data, pos)[0], pos + field.size


def _decode_str(data, pos: int, length: int):
    end = pos + length
    if end > len(data):
        raise _truncated(data, pos, length)
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise FrameFormatError(f"invalid UTF-8 in string: {exc}") from exc


def _decode_array(data, pos: int, tag: int, depth: int):
    count, pos = _decode_count(data, pos, tag)
    if count > len(data) - pos:
        raise FrameFormatError(
            f"array claims {count} entries with only "
            f"{len(data) - pos} bytes left"
        )
    items = []
    for _ in range(count):
        item, pos = _decode_at(data, pos, depth + 1)
        items.append(item)
    return items, pos


def _decode_mapping(data, pos: int, tag: int, depth: int):
    count, pos = _decode_count(data, pos, tag)
    if 2 * count > len(data) - pos:
        raise FrameFormatError(
            f"mapping claims {count} entries with only "
            f"{len(data) - pos} bytes left"
        )
    result = {}
    for _ in range(count):
        key, pos = _decode_at(data, pos, depth + 1)
        if type(key) is not str:
            raise FrameFormatError(
                f"mapping key must decode to str, got {type(key).__name__}"
            )
        result[key], pos = _decode_at(data, pos, depth + 1)
    return result, pos


def _decode_packed(data, pos: int):
    if pos >= len(data):
        raise _truncated(data, pos, 1)
    descriptor = data[pos]
    rank, width = descriptor >> 4, descriptor & 0x0F
    dtype = _PACKED_DTYPES.get(width)
    if rank not in (1, 2) or dtype is None:
        raise FrameFormatError(
            f"bad packed-integer descriptor 0x{descriptor:02x} "
            f"(rank {rank}, width {width})"
        )
    dims = _PACKED_DIMS[rank]
    pos += 1
    if pos + dims.size > len(data):
        raise _truncated(data, pos, dims.size)
    shape = dims.unpack_from(data, pos)
    if 0 in shape:
        raise FrameFormatError(
            f"packed-integer column of shape {shape} has a zero dimension"
        )
    pos += dims.size
    count = math.prod(shape)
    if pos + width * count > len(data):
        raise _truncated(data, pos, width * count)
    values = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return values.reshape(shape).tolist(), pos + width * count


def decode_compact(data: bytes | bytearray | memoryview):
    """Decode compact bytes back to the object they encode.

    The whole payload must be one object: trailing bytes are a
    framing bug and raise :class:`FrameFormatError`.
    """
    if type(data) is not bytes:
        data = memoryview(data)  # refuses what is not bytes-like
    obj, end = _decode_at(data, 0, 0)
    if end < len(data):
        raise FrameFormatError(
            f"{len(data) - end} trailing bytes after compact payload"
        )
    return obj


# ----------------------------------------------------------------------
# Ingest payload codec (packed arrays, zero-copy decode)
# ----------------------------------------------------------------------
_INGEST_HEADER = struct.Struct("<BxxxIq")
_INGEST_HEADER_SIZE = _INGEST_HEADER.size  # 16 bytes

_INGEST_HAS_COUNTS = 0x01
_INGEST_SCALAR_TS = 0x02
_INGEST_HAS_KEY = 0x04

#: Keys travel with a u16 length prefix, so this is a hard wire limit.
_MAX_KEY_BYTES = 0xFFFF


def integer_column(values, what: str) -> np.ndarray:
    """``values`` as a 1-D little-endian int64 array, else a :class:`WireError`.

    The column rule of ingest on both protocols: :func:`pack_ingest`
    packs only integer or bool columns whose entries fit in int64, and
    the line-JSON ``ingest`` op refuses the same floats, strings,
    nested lists and oversized integers instead of truncating or
    wrapping them.  An empty column passes whatever its dtype.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise WireError(f"{what} must be a 1-D array, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "biu":
        if all(isinstance(v, int) for v in values):
            # Python ints past int64 make numpy pick float64 or object.
            big = [v for v in values if not _INT64_MIN <= v <= _INT64_MAX]
            if big:
                raise WireError(f"{what} must fit in int64, got {big[0]}")
        raise WireError(f"{what} must be integer-typed, got {arr.dtype}")
    if arr.dtype.kind == "u" and arr.size and int(arr.max()) > _INT64_MAX:
        raise WireError(f"{what} must fit in int64, got {int(arr.max())}")
    return arr.astype("<i8", copy=False)


def pack_ingest(timestamps, values, counts=None, key=None) -> bytes:
    """Encode one ingest batch as a packed binary payload.

    ``timestamps`` may be a scalar (every event at one time — the
    arrival-batched common case) or an array; a constant array is
    detected and sent in scalar form, saving 8 bytes per event.
    ``key`` routes the batch to one stream of a keyed fleet; it is
    appended as a length-prefixed UTF-8 trailer so the packed columns
    keep their fixed offsets.
    """
    vals = integer_column(values, "values")
    n = vals.size
    scalar_ts: int | None = None
    ts_arr: np.ndarray | None = None
    if np.ndim(timestamps) == 0:
        scalar_ts = int(timestamps)
    else:
        ts_arr = integer_column(timestamps, "timestamps")
        if ts_arr.shape != vals.shape:
            raise WireError(
                f"timestamps {ts_arr.shape} must match values {vals.shape}"
            )
        if n and bool((ts_arr == ts_arr[0]).all()):
            scalar_ts = int(ts_arr[0])
            ts_arr = None
    flags = 0
    parts = [b""]  # placeholder for the header
    parts.append(vals.tobytes())
    if scalar_ts is None:
        flags &= ~_INGEST_SCALAR_TS
        assert ts_arr is not None
        parts.append(ts_arr.tobytes())
    else:
        flags |= _INGEST_SCALAR_TS
    if counts is not None:
        cnts = integer_column(counts, "counts")
        if cnts.shape != vals.shape:
            raise WireError(
                f"counts {cnts.shape} must match values {vals.shape}"
            )
        flags |= _INGEST_HAS_COUNTS
        parts.append(cnts.tobytes())
    if key is not None:
        if not isinstance(key, str) or not key:
            raise WireError(f"key must be a non-empty string, got {key!r}")
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > _MAX_KEY_BYTES:
            raise WireError(f"key exceeds {_MAX_KEY_BYTES} UTF-8 bytes")
        flags |= _INGEST_HAS_KEY
        parts.append(struct.pack("<H", len(key_bytes)))
        parts.append(key_bytes)
    parts[0] = _INGEST_HEADER.pack(
        flags, n, 0 if scalar_ts is None else scalar_ts
    )
    return b"".join(parts)


def unpack_ingest(
    payload: bytes | bytearray | memoryview,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, str | None]:
    """Decode an ingest payload to ``(timestamps, values, counts, key)``.

    The arrays are zero-copy views over the payload buffer
    (``np.frombuffer``), so they are read-only and alive only as long
    as the buffer is; the store copies what it keeps, never the batch
    itself.  A scalar timestamp comes back as a broadcast (stride-0)
    array of the right length.  ``key`` is ``None`` for an unkeyed
    batch.
    """
    view = memoryview(payload)
    if len(view) < _INGEST_HEADER_SIZE:
        raise FrameFormatError(
            f"ingest payload of {len(view)} bytes is shorter than its "
            f"{_INGEST_HEADER_SIZE}-byte header"
        )
    flags, n, scalar_ts = _INGEST_HEADER.unpack(view[:_INGEST_HEADER_SIZE])
    columns = 1 + (0 if flags & _INGEST_SCALAR_TS else 1)
    if flags & _INGEST_HAS_COUNTS:
        columns += 1
    expected = _INGEST_HEADER_SIZE + 8 * n * columns
    key: str | None = None
    if flags & _INGEST_HAS_KEY:
        if len(view) < expected + 2:
            raise FrameFormatError(
                f"ingest payload length {len(view)} is too short for its "
                f"key length prefix at offset {expected}"
            )
        (key_len,) = struct.unpack_from("<H", view, expected)
        if len(view) != expected + 2 + key_len:
            raise FrameFormatError(
                f"ingest payload length {len(view)} != "
                f"{expected + 2 + key_len} ({n} events, {columns} columns, "
                f"{key_len}-byte key)"
            )
        try:
            key = str(bytes(view[expected + 2 :]), "utf-8")
        except UnicodeDecodeError as exc:
            raise FrameFormatError(f"ingest key is not valid UTF-8: {exc}")
        if not key:
            raise FrameFormatError("ingest key must not be empty")
    elif len(view) != expected:
        raise FrameFormatError(
            f"ingest payload length {len(view)} != {expected} "
            f"({n} events, {columns} columns)"
        )
    offset = _INGEST_HEADER_SIZE

    def column() -> np.ndarray:
        nonlocal offset
        arr = np.frombuffer(view, dtype="<i8", count=n, offset=offset)
        offset += 8 * n
        return arr

    values = column()
    if flags & _INGEST_SCALAR_TS:
        timestamps = np.broadcast_to(np.int64(scalar_ts), (n,))
    else:
        timestamps = column()
    counts = column() if flags & _INGEST_HAS_COUNTS else None
    return timestamps, values, counts, key


# ----------------------------------------------------------------------
# Version negotiation
# ----------------------------------------------------------------------
def hello_response(request: Mapping | None) -> dict:
    """Answer a HELLO handshake: pick the newest shared version.

    The request carries ``{"versions": [...]}`` (an absent or empty
    list means "whatever you speak").
    """
    offered: Iterable = (
        request.get("versions", SUPPORTED_VERSIONS)
        if isinstance(request, Mapping)
        else SUPPORTED_VERSIONS
    )
    try:
        offered_set = {int(v) for v in offered}
    except (TypeError, ValueError) as exc:
        raise FrameFormatError(
            f"hello 'versions' must be integers: {exc}"
        ) from exc
    if not offered_set:
        offered_set = set(SUPPORTED_VERSIONS)
    shared = offered_set & set(SUPPORTED_VERSIONS)
    if not shared:
        raise ProtocolVersionError(
            f"no shared protocol version: peer offers "
            f"{sorted(offered_set)}, this side speaks "
            f"{list(SUPPORTED_VERSIONS)}"
        )
    return {"version": max(shared)}
