"""The binary wire protocol, the threaded transport, and the
pipelined/at-most-once shard client.

Covers the frame and payload codecs (including malformed-frame fuzz,
the compact codec's golden bytes and a corruption sweep), the shared
dispatch surface, protocol negotiation on both server classes,
request pipelining, the oversized-frame and long-line guards, the
listen backlog, protocol bit-identity (in-process vs line-JSON vs
binary answers), and the shard client's at-most-once retry
classification.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import socket
import struct
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping

import numpy as np
import pytest

from repro import kernels
from repro.cluster.client import (
    ShardClient,
    ShardRequestError,
    _SendFailed,
    backoff_delay,
)
from repro.cluster.errors import ShardProtocolError, ShardUnreachableError
from repro.engine import load_sketch, sketch_kinds
from repro.service import (
    EventLoopServer,
    SketchService,
    SketchServiceServer,
    handle_request,
)
from repro.service import wire
from repro.service.surface import OPS, handle_frame
from repro.store import KeyedSketchStore, SketchSpec, WindowedSketchStore

#: Constructor parameters per kind.  Mergeable kinds pin one seed, so
#: separately built services hold interchangeable sketches.
KIND_PARAMS = {
    "tugofwar": {"s1": 32, "s2": 3, "seed": 7},
    "fk_moments": {"k": 3, "s1": 32, "s2": 3, "seed": 7},
    "f0": {"s1": 32, "s2": 3, "seed": 7},
    "samplecount": {"s1": 16, "s2": 3, "seed": 7},
    "samplecount-fast": {"s1": 16, "s2": 3, "seed": 7},
    "moments": {"s1": 16, "s2": 3, "seed": 7},
    "naivesampling": {"s": 48, "seed": 7},
}


def make_service(kind: str = "tugofwar", bucket_width: int = 10) -> SketchService:
    spec = SketchSpec(kind, KIND_PARAMS.get(kind, {}))
    store = WindowedSketchStore(spec, bucket_width=bucket_width)
    return SketchService(store)


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


# ----------------------------------------------------------------------
# Compact codec
# ----------------------------------------------------------------------
class TestCompactCodec:
    @pytest.mark.parametrize("obj", [
        None, True, False, 0, 1, 127, -1, -32, -33, 128,
        2**40, -(2**40), 2**63 - 1, -(2**63),
        0.0, -1.5, 3.141592653589793, float("inf"),
        "", "hello", "é" * 300, "x" * 70_000,
        [], [1, 2, 3], [None, True, "mixed", 1.5],
        {}, {"a": 1}, {"nested": {"deep": [1, {"er": None}]}},
    ])
    def test_roundtrip(self, obj):
        assert wire.decode_compact(wire.encode_compact(obj)) == obj

    def test_int64_overflow_refused(self):
        with pytest.raises(wire.FrameFormatError, match="int64"):
            wire.encode_compact(2**63)

    def test_numpy_scalars_and_arrays(self):
        encoded = wire.encode_compact({
            "n": np.int64(7),
            "x": np.float64(2.5),
            "flag": np.bool_(True),
            "arr": np.array([1, 2, 3], dtype=np.int64),
        })
        assert wire.decode_compact(encoded) == {
            "n": 7, "x": 2.5, "flag": True, "arr": [1, 2, 3],
        }

    def test_keys_stringified_like_json(self):
        # Both protocols must decode a response to the same mapping, so
        # key coercion matches json.dumps exactly.
        payload = {1: "a", True: "b", None: "c", 2.5: "d"}
        via_json = json.loads(json.dumps(payload))
        via_wire = wire.decode_compact(wire.encode_compact(payload))
        assert via_wire == via_json

    def test_trailing_bytes_refused(self):
        with pytest.raises(wire.FrameFormatError, match="trailing"):
            wire.decode_compact(wire.encode_compact(1) + b"\x00")

    def test_truncated_payload_refused(self):
        encoded = wire.encode_compact({"key": "value"})
        with pytest.raises(wire.FrameFormatError, match="truncated"):
            wire.decode_compact(encoded[:-3])

    def test_depth_bomb_refused_both_directions(self):
        bomb: list = []
        for _ in range(100):
            bomb = [bomb]
        with pytest.raises(wire.FrameFormatError, match="nests deeper"):
            wire.encode_compact(bomb)
        # 100 nested array16 headers claiming one element each.
        hostile = b"\xdc\x01\x00" * 100 + b"\x01"
        with pytest.raises(wire.FrameFormatError):
            wire.decode_compact(hostile)

    def test_claimed_count_beyond_buffer_refused(self):
        # An array16 claiming 65535 entries backed by nothing must be
        # refused before any allocation loop.
        hostile = b"\xdc\xff\xff"
        with pytest.raises(wire.FrameFormatError, match="claims"):
            wire.decode_compact(hostile)

    def test_unknown_tag_refused(self):
        with pytest.raises(wire.FrameFormatError, match="unknown compact"):
            wire.decode_compact(b"\xc1")

    def test_non_string_key_refused_on_decode(self):
        hostile = b"\xde\x01\x00" + b"\x05" + b"\x05"  # {5: 5}
        with pytest.raises(wire.FrameFormatError, match="key"):
            wire.decode_compact(hostile)

    @pytest.mark.parametrize("obj", [
        list(range(7)), list(range(8)),
        [127] * 8, [128] * 8, [-128] * 8, [-129] * 8,
        [32767] * 8, [32768] * 8, [-32768] * 8, [-32769] * 8,
        [2**31 - 1] * 8, [2**31] * 8, [-(2**31)] * 8, [-(2**31) - 1] * 8,
        [-(2**63)] * 8, [2**63 - 1] * 8, [-(2**63), 0, 2**63 - 1] * 3,
        [True] * 10, [1, 0] * 5 + [True],
        [1, 2, 3, 4, 5, 6, 7, 8.0], [[1, 2.5]] * 8,
        [[1, 2], [3]] * 4, [[1, 2]] * 8, [(1, 2)] * 8, [[]] * 8, [[1]] * 7,
        [[1, [2]]] * 8, ["a"] * 8, (5,) * 9,
        {"z": list(range(-300, 300)), "pairs": [[v, v * v] for v in range(20)]},
    ])
    def test_packable_lists_match_json(self, obj):
        decoded = wire.decode_compact(wire.encode_compact(obj))
        assert decoded == json_round_trip(obj)
        # == treats True and 1 alike; bools must survive as bools.
        assert repr(decoded) == repr(json_round_trip(obj))

    def test_packing_shrinks_integer_columns(self):
        column = list(range(1000))
        assert len(wire.encode_compact(column)) < 2 * 1000 + 16
        assert len(wire.encode_compact(list(range(7)))) == 3 + 7

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
    ])
    @pytest.mark.parametrize("shape", [(1,), (9,), (3, 4), (0,), (2, 0)])
    def test_integer_arrays_match_json(self, dtype, shape):
        info = np.iinfo(dtype)
        extremes = [int(info.min), min(int(info.max), 2**63 - 1), 0, 1]
        arr = np.resize(np.array(extremes, dtype=dtype), shape)
        decoded = wire.decode_compact(wire.encode_compact(arr))
        assert decoded == json_round_trip(arr.tolist())

    def test_bool_and_float_arrays_match_json(self):
        for arr in (np.array([True, False] * 5), np.arange(9) / 2):
            decoded = wire.decode_compact(wire.encode_compact(arr))
            assert repr(decoded) == repr(json_round_trip(arr.tolist()))

    @pytest.mark.parametrize("obj", [
        [2**63] * 10, [0] * 9 + [-(2**63) - 1], [[2**64, 0]] * 8,
        np.array([0, 2**63], dtype=np.uint64),
    ])
    def test_packed_int64_overflow_refused(self, obj):
        with pytest.raises(wire.FrameFormatError, match="int64"):
            wire.encode_compact(obj)

    @pytest.mark.parametrize("descriptor, dims, reason", [
        (0x08, (1,), "descriptor"),  # rank 0
        (0x38, (1, 1, 1), "descriptor"),  # rank 3
        (0x13, (1,), "descriptor"),  # width 3
        (0x10, (1,), "descriptor"),  # width 0
        (0x18, (0,), "zero dimension"),
        (0x21, (2**32 - 1, 0), "zero dimension"),
        (0x21, (0, 2**32 - 1), "zero dimension"),
        (0x18, (2,), "truncated"),  # 16 bytes claimed, 8 present
        (0x28, (2**32 - 1, 2**32 - 1), "truncated"),
    ], ids=["rank-0", "rank-3", "width-3", "width-0", "empty", "no-columns",
            "no-rows", "short", "huge"])
    def test_hostile_packed_descriptor_refused(self, descriptor, dims, reason):
        hostile = (bytes([0xC7, descriptor])
                   + struct.pack(f"<{len(dims)}I", *dims) + bytes(8))
        with pytest.raises(wire.FrameFormatError, match=reason):
            wire.decode_compact(hostile)

    @pytest.mark.parametrize("kind", sketch_kinds())
    def test_every_kind_sketch_response_matches_json(self, kind):
        # One bucket, so the unmergeable kinds answer the window too.
        service = make_service(kind, bucket_width=100)
        rng = np.random.default_rng(14)
        service.ingest(rng.integers(0, 100, size=2000),
                       rng.integers(1, 500, size=2000))
        response = handle_request(
            service, json.dumps({"op": "sketch", "from": 0, "until": 100}))
        assert response["ok"], response
        decoded = wire.decode_compact(wire.encode_compact(response))
        assert decoded == json_round_trip(response)
        assert repr(decoded) == repr(json_round_trip(response))


    def test_tugofwar_sketch_response_under_one_kib(self):
        # 320 counters and a family named by seed: the 320x4 coefficient
        # matrix no longer rides along (5,950 B when it did).
        spec = SketchSpec("tugofwar", {"s1": 64, "s2": 5, "seed": 7})
        service = SketchService(WindowedSketchStore(spec, bucket_width=100))
        rng = np.random.default_rng(3)
        service.ingest(np.zeros(20_000, dtype=np.int64),
                       rng.zipf(1.3, size=20_000) % 100_000)
        response, _ = handle_frame(
            service, wire.WIRE_VERSION, wire.OP_SKETCH, 0,
            wire.encode_compact({"from": 0, "until": 100}),
        )
        _, _, flags, payload = _parse_one(response)
        assert not flags & wire.FLAG_ERROR
        assert len(response) < 1024
        sketch = wire.decode_compact(payload)["sketch"]
        assert "coefficients" not in json.dumps(sketch)
        assert load_sketch(sketch).n == 20_000


# ----------------------------------------------------------------------
# Compact codec: golden bytes and corruption
# ----------------------------------------------------------------------
class _Color(enum.IntEnum):
    RED = 1
    GREEN = 200


class _Label(str):
    """A str subclass: it must encode as the plain string it holds."""


#: Edge values of the compact format and the bytes each must encode
#: to: the format is fixed by WIRE_VERSION, so a faster codec writes
#: these bytes too.  Longer payloads are pinned by length and SHA-256.
GOLDEN_HEX = {
    "int-33": "d3dfffffffffffffff",
    "int-32": "e0",
    "int127": "7f",
    "int128": "d38000000000000000",
    "int64-min": "d30000000000000080",
    "int64-max": "d3ffffffffffffff7f",
    "float-neg-zero": "cb0000000000000080",
    "float-inf": "cb000000000000f0ff",
    "none-bools": "dc0300c0c3c2",
    "list7": "dc070000010203040506",
    "list8": "c711080000000001020304050607",
    "list8-wide": (
        "c71808000000000000000000000000000000000100000000000000ffffff0100"
        "0000000000000200000000000000030000000000000004000000000000000500"
        "000000000000"
    ),
    "bool-in-int-list": "dc0b0001000100010001000100c3",
    "float-in-int-list": "dc080001020304050607cb0000000000002040",
    "rows": "c7210800000002000000000001ff02fc03f704f005e706dc07cf",
    "tuple": "c71109000000050505050505050505",
    "np-int64": "fb",
    "np-uint8": "d3c800000000000000",
    "np-float32": "cb000000000000e03f",
    "np-bool": "c3",
    "np-int32-array": "c71109000000fcfdfeff0001020304",
    "np-uint64-2d": (
        "c728020000000200000000000000000000000000000000010000030000000000"
        "00000400000000000000"
    ),
    "np-empty-array": "dc0000",
    "np-float-array": (
        "dc0300cb0000000000000000cb000000000000e03fcb000000000000f03f"
    ),
    "np-bool-array": "dc0200c3c2",
    "int-enum": "dc020001d3c800000000000000",
    "str-subclass": "d9056c6162656c",
    "ordered-dict": "de0200d9016201d90161dc0200cb0000000000000440c0",
    "non-str-keys": (
        "de0600d90131d90161d90566616c7365d90162d9046e756c6cd90163d903322e"
        "35d90164d9022d33d90165d903323030d90166"
    ),
    "empty": "dc0300dc0000de0000d900",
}

#: ``(length, sha256)`` of the compact bytes of longer payloads.
GOLDEN_DIGESTS = {
    "str255": (
        257, "087a4bf04cba7cdc398ce7d52d5ff60b21c85294ddde1af77618a5e1ff3493eb"),
    "str256": (
        259, "4cf6528c4c424a5a71cc0b54b15ed7395fbf1f3f87883d4d086b011f46df3bf8"),
    "str65535": (
        65538, "cb4bf3c5389de702b3d9921eb2aa2af65eaa48d6c047f091c7145c6cb82dd0cd"),
    "str65536": (
        65541, "0f9a03fc6205176f9bf5e2b7104d53ecf7038dda8d5328245506f5bcedd6165b"),
    "sketch-tugofwar": (
        373, "654d352539dda95ef2e468380d35f3b4e0f6da81cf266c8458441c69621b5411"),
    "sketch-fk_moments": (
        752, "f5febdf98407c59a9efd3737506cebb1c95f5ae4d04b03f67c96678c0da637ff"),
    "sketch-f0": (
        272, "4e62bf384d370289ec0c73095f6b93ffcc6557c5e07f3d1d38ecfb1ef41c2dfa"),
    "sketch-samplecount": (
        1663, "d898dd66bf6941a1050c58a72bfa77a4b3cbdc19b777d33ab068a0b122db11c4"),
    "sketch-samplecount-fast": (
        1668, "d590ef4e477450b6ad20b9a480928e83156330ce94c8ad2b6cfba052c145eb14"),
    "sketch-moments": (
        1659, "ed3cc11f6f9e71ee5ce6b7a48ba215a96c4fc34f4d2ad044d4a7ae9a58d2c107"),
    "sketch-naivesampling": (
        255, "b32c099771bef2aa275989fc44fd079148c1e0b4c152fc0bc551c889472969d9"),
    "keyed-info": (
        260, "47e26843e1d95d602a334560d3375829f994227be7b79a8246b6589a31390753"),
    "keyed-stats": (
        174, "f0ec992070e92daae9ba300615bca369ad3954e795d78ed95cc8b498b1b599c9"),
    "error-frame": (
        66, "920fc901c90c7f52af299e6149abbe6f44d22f9dc775907da584107e225c97c0"),
}


def _edge_values() -> dict:
    """Edge values keyed as in :data:`GOLDEN_HEX`."""
    return {
        "int-33": -33,
        "int-32": -32,
        "int127": 127,
        "int128": 128,
        "int64-min": -(2**63),
        "int64-max": 2**63 - 1,
        "float-neg-zero": -0.0,
        "float-inf": float("-inf"),
        "none-bools": [None, True, False],
        "list7": list(range(7)),
        "list8": list(range(8)),
        "list8-wide": [0, 2**40, -(2**40), 1, 2, 3, 4, 5],
        "bool-in-int-list": [1, 0] * 5 + [True],
        "float-in-int-list": [1, 2, 3, 4, 5, 6, 7, 8.0],
        "rows": [[v, -v * v] for v in range(8)],
        "tuple": (5,) * 9,
        "np-int64": np.int64(-5),
        "np-uint8": np.uint8(200),
        "np-float32": np.float32(0.5),
        "np-bool": np.bool_(True),
        "np-int32-array": np.arange(-4, 5, dtype=np.int32),
        "np-uint64-2d": np.array([[0, 2**40], [3, 4]], dtype=np.uint64),
        "np-empty-array": np.zeros(0, dtype=np.int64),
        "np-float-array": np.arange(3) / 2,
        "np-bool-array": np.array([True, False]),
        "int-enum": [_Color.RED, _Color.GREEN],
        "str-subclass": _Label("label"),
        "ordered-dict": OrderedDict([("b", 1), ("a", [2.5, None])]),
        "non-str-keys": {1: "a", False: "b", None: "c", 2.5: "d",
                         np.int64(-3): "e", _Color.GREEN: "f"},
        "empty": [[], {}, ""],
    }


def _long_values() -> dict:
    """Strings around the length-prefix bounds (UTF-8 bytes, not
    characters: each ``é`` is two)."""
    return {
        "str255": "é" * 127 + "x",
        "str256": "é" * 128,
        "str65535": "é" * 32767 + "x",
        "str65536": "é" * 32768,
    }


def _keyed_service() -> SketchService:
    spec = SketchSpec("tugofwar", KIND_PARAMS["tugofwar"])
    service = SketchService(KeyedSketchStore(spec, bucket_width=10))
    rng = np.random.default_rng(5)
    for key in ("alpha", "beta"):
        service.ingest(rng.integers(0, 30, 50), rng.integers(0, 100, 50),
                       key=key)
    return service


def _frame(service, opcode: int, request=None) -> bytes:
    payload = b"" if request is None else wire.encode_compact(request)
    response, _ = handle_frame(service, wire.WIRE_VERSION, opcode, 0, payload)
    return response


def _golden_payloads(monkeypatch) -> dict:
    """The payloads pinned by :data:`GOLDEN_DIGESTS`, as bytes."""
    # info and stats name the kernel backend, which varies by host.
    monkeypatch.setattr(kernels, "active_backend", lambda: "numpy")
    payloads = {
        name: wire.encode_compact(text)
        for name, text in _long_values().items()
    }
    for kind in KIND_PARAMS:
        payloads[f"sketch-{kind}"] = _frame(
            _loaded_service(kind), wire.OP_SKETCH, {"from": 0, "until": 100})
    keyed = _keyed_service()
    payloads["keyed-info"] = _frame(keyed, wire.OP_INFO)
    payloads["keyed-stats"] = _frame(keyed, wire.OP_STATS)
    payloads["error-frame"] = _frame(
        keyed, wire.OP_ESTIMATE, {"from": 0, "until": 30, "key": 7})
    return payloads


def _loaded_service(kind: str) -> SketchService:
    # One bucket, so the unmergeable kinds answer the window too.
    service = make_service(kind, bucket_width=100)
    rng = np.random.default_rng(14)
    service.ingest(rng.integers(0, 100, size=2000),
                   rng.integers(1, 500, size=2000))
    return service


class TestCompactGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
    def test_edge_value_bytes(self, name):
        obj = _edge_values()[name]
        golden = bytes.fromhex(GOLDEN_HEX[name])
        assert wire.encode_compact(obj) == golden
        decoded = wire.decode_compact(golden)
        assert repr(decoded) == repr(json_round_trip(_jsonable(obj)))

    def test_every_edge_value_pinned(self):
        assert sorted(GOLDEN_HEX) == sorted(_edge_values())
        assert sorted(GOLDEN_DIGESTS) == sorted(
            [*_long_values(), *(f"sketch-{kind}" for kind in KIND_PARAMS),
             "keyed-info", "keyed-stats", "error-frame"])

    def test_long_payload_bytes(self, monkeypatch):
        for name, payload in _golden_payloads(monkeypatch).items():
            digest = hashlib.sha256(payload).hexdigest()
            assert (len(payload), digest) == GOLDEN_DIGESTS[name], name

    def test_error_frame_is_flagged(self):
        response = _frame(_keyed_service(), wire.OP_ESTIMATE,
                          {"from": 0, "until": 30, "key": 7})
        _, _, flags, payload = _parse_one(response)
        assert flags & wire.FLAG_ERROR
        assert wire.decode_compact(payload)["ok"] is False


def _jsonable(obj):
    """``obj`` with numpy values made plain, as ``json.dumps`` needs."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Mapping):
        return {_jsonable_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _jsonable_key(key):
    return key.item() if isinstance(key, np.generic) else key


class TestCompactCorruption:
    """A damaged payload decodes to something or raises
    :class:`wire.FrameFormatError`; no other exception gets out."""

    @staticmethod
    def _sweep(encoded: bytes) -> int:
        refused = 0
        for end in range(len(encoded)):
            with pytest.raises(wire.FrameFormatError):
                wire.decode_compact(encoded[:end])
        damaged = bytearray(encoded)
        for pos in range(len(encoded)):
            for mask in range(1, 256):
                damaged[pos] = encoded[pos] ^ mask
                try:
                    wire.decode_compact(damaged)
                except wire.FrameFormatError:
                    refused += 1
            damaged[pos] = encoded[pos]
        return refused

    def test_sketch_response(self):
        response = handle_request(
            _loaded_service("tugofwar"),
            json.dumps({"op": "sketch", "from": 0, "until": 100}))
        assert self._sweep(wire.encode_compact(response)) > 0

    def test_nested_mapping(self):
        nested = {"a": [1, -1, 2**40, 2.5, None, True, "é"],
                  "b": {"c": list(range(-4, 12)), "d": [[1, 2]] * 8},
                  "e": "x" * 300}
        assert self._sweep(wire.encode_compact(nested)) > 0


# ----------------------------------------------------------------------
# Ingest payload codec
# ----------------------------------------------------------------------
class TestIngestCodec:
    def test_roundtrip_arrays(self):
        ts = np.array([1, 5, 9], dtype=np.int64)
        vals = np.array([10, -20, 2**62], dtype=np.int64)
        got_ts, got_vals, got_counts, got_key = wire.unpack_ingest(
            wire.pack_ingest(ts, vals)
        )
        np.testing.assert_array_equal(got_ts, ts)
        np.testing.assert_array_equal(got_vals, vals)
        assert got_counts is None
        assert got_key is None

    def test_roundtrip_with_counts(self):
        ts = np.array([1, 2], dtype=np.int64)
        vals = np.array([3, 4], dtype=np.int64)
        counts = np.array([5, -6], dtype=np.int64)
        _, _, got_counts, _ = wire.unpack_ingest(
            wire.pack_ingest(ts, vals, counts=counts)
        )
        np.testing.assert_array_equal(got_counts, counts)

    def test_scalar_timestamp_broadcasts(self):
        payload = wire.pack_ingest(42, np.array([1, 2, 3]))
        ts, vals, _, _ = wire.unpack_ingest(payload)
        np.testing.assert_array_equal(ts, [42, 42, 42])

    def test_constant_timestamp_array_sent_scalar(self):
        # A constant ts column is detected and costs 8 bytes, not 8n.
        const = wire.pack_ingest(np.full(100, 7), np.arange(100))
        varying = wire.pack_ingest(np.arange(100), np.arange(100))
        assert len(const) == len(varying) - 8 * 100 + 8 * 0
        ts, _, _, _ = wire.unpack_ingest(const)
        assert ts.tolist() == [7] * 100

    def test_zero_copy_views(self):
        payload = wire.pack_ingest(np.arange(4), np.arange(4))
        ts, vals, _, _ = wire.unpack_ingest(payload)
        assert not vals.flags.owndata  # a view over the frame buffer
        assert not vals.flags.writeable

    def test_shape_mismatch_refused(self):
        with pytest.raises(wire.WireError, match="match"):
            wire.pack_ingest(np.arange(3), np.arange(4))
        with pytest.raises(wire.WireError, match="match"):
            wire.pack_ingest(np.arange(3), np.arange(3), counts=np.arange(2))

    def test_non_integer_values_refused(self):
        with pytest.raises(wire.WireError, match="integer"):
            wire.pack_ingest(np.arange(2), np.array([1.5, 2.5]))

    def test_short_payload_refused(self):
        with pytest.raises(wire.FrameFormatError, match="shorter"):
            wire.unpack_ingest(b"\x00" * 8)

    def test_wrong_length_refused(self):
        payload = wire.pack_ingest(np.arange(3), np.arange(3))
        with pytest.raises(wire.FrameFormatError, match="length"):
            wire.unpack_ingest(payload + b"\x00" * 8)

    def test_keyed_roundtrip(self):
        ts = np.array([1, 5], dtype=np.int64)
        vals = np.array([10, -20], dtype=np.int64)
        got_ts, got_vals, got_counts, got_key = wire.unpack_ingest(
            wire.pack_ingest(ts, vals, key="tenant-α")
        )
        np.testing.assert_array_equal(got_ts, ts)
        np.testing.assert_array_equal(got_vals, vals)
        assert got_counts is None
        assert got_key == "tenant-α"

    def test_keyed_roundtrip_with_counts_and_scalar_ts(self):
        vals = np.array([3, 4], dtype=np.int64)
        counts = np.array([1, -1], dtype=np.int64)
        got_ts, _, got_counts, got_key = wire.unpack_ingest(
            wire.pack_ingest(7, vals, counts=counts, key="k")
        )
        assert got_ts.tolist() == [7, 7]
        np.testing.assert_array_equal(got_counts, counts)
        assert got_key == "k"

    def test_key_trailer_keeps_columns_zero_copy(self):
        payload = wire.pack_ingest(np.arange(4), np.arange(4), key="zz")
        ts, vals, _, key = wire.unpack_ingest(payload)
        assert key == "zz"
        assert not vals.flags.owndata
        assert not ts.flags.owndata

    def test_keyed_costs_key_bytes_plus_two(self):
        base = wire.pack_ingest(np.arange(3), np.arange(3))
        keyed = wire.pack_ingest(np.arange(3), np.arange(3), key="abc")
        assert len(keyed) == len(base) + 2 + 3

    def test_bad_keys_refused_at_pack(self):
        with pytest.raises(wire.WireError, match="non-empty string"):
            wire.pack_ingest(np.arange(2), np.arange(2), key="")
        with pytest.raises(wire.WireError, match="non-empty string"):
            wire.pack_ingest(np.arange(2), np.arange(2), key=7)
        with pytest.raises(wire.WireError, match="65535"):
            wire.pack_ingest(np.arange(2), np.arange(2), key="x" * 70000)

    def test_truncated_key_refused(self):
        payload = wire.pack_ingest(np.arange(2), np.arange(2), key="abcdef")
        with pytest.raises(wire.FrameFormatError, match="key"):
            wire.unpack_ingest(payload[:-3])

    def test_undeclared_key_length_refused(self):
        # Flag set but payload ends right after the columns.
        payload = bytearray(wire.pack_ingest(np.arange(2), np.arange(2)))
        payload[0] |= 0x04
        with pytest.raises(wire.FrameFormatError, match="key"):
            wire.unpack_ingest(bytes(payload))


# ----------------------------------------------------------------------
# Frame parsing fuzz
# ----------------------------------------------------------------------
class TestFrameFuzz:
    def test_truncated_header(self):
        with pytest.raises(wire.FrameFormatError, match="truncated"):
            wire.unpack_header(wire.MAGIC + b"\x01")

    def test_bad_magic(self):
        header = struct.pack("<2sBBHI", b"XX", 1, 1, 0, 0)
        with pytest.raises(wire.FrameFormatError, match="magic"):
            wire.unpack_header(header)

    def test_length_overflow(self):
        header = struct.pack("<2sBBHI", wire.MAGIC, 1, 1, 0, 2**31)
        with pytest.raises(wire.FrameTooLargeError, match="exceeds"):
            wire.unpack_header(header)

    def test_version_skew_parses(self):
        # The header layout is version-invariant: a skewed version must
        # parse so dispatch can answer with a readable error frame.
        header = struct.pack("<2sBBHI", wire.MAGIC, 99, 1, 0, 0)
        version, opcode, flags, length = wire.unpack_header(header)
        assert version == 99 and opcode == 1 and length == 0

    def test_read_frame_raises_after_parsing_good_prefix(self):
        stream = io.BytesIO(wire.pack_frame(wire.OP_PING) + b"garbage-not-magic")
        assert wire.read_frame(stream)[1] == wire.OP_PING
        with pytest.raises(wire.FrameFormatError, match="magic"):
            wire.read_frame(stream)

    def test_blocking_read_frame_truncated_payload(self):
        import io

        frame = wire.pack_frame(wire.OP_PING, b"\x01\x02\x03\x04")
        with pytest.raises(wire.FrameFormatError, match="truncated"):
            wire.read_frame(io.BytesIO(frame[:-2]))

    def test_blocking_read_frame_clean_eof(self):
        import io

        assert wire.read_frame(io.BytesIO(b"")) is None


# ----------------------------------------------------------------------
# Dispatch surface
# ----------------------------------------------------------------------
class TestHandleFrame:
    def test_ping_roundtrip(self):
        service = make_service()
        response, stopping = handle_frame(
            service, wire.WIRE_VERSION, wire.OP_PING, 0, b""
        )
        version, opcode, flags, payload = _parse_one(response)
        assert opcode == wire.OP_PING and flags == wire.FLAG_RESPONSE
        assert wire.decode_compact(payload)["pong"] is True
        assert not stopping

    def test_version_skew_answered_not_dropped(self):
        response, stopping = handle_frame(
            make_service(), 99, wire.OP_PING, 0, b""
        )
        _, _, flags, payload = _parse_one(response)
        assert flags & wire.FLAG_ERROR
        assert "version" in wire.decode_compact(payload)["error"]
        assert not stopping

    def test_response_flag_as_request_refused(self):
        response, _ = handle_frame(
            make_service(), wire.WIRE_VERSION, wire.OP_PING,
            wire.FLAG_RESPONSE, b"",
        )
        _, _, flags, payload = _parse_one(response)
        assert flags & wire.FLAG_ERROR

    def test_unknown_opcode_lists_supported(self):
        response, _ = handle_frame(
            make_service(), wire.WIRE_VERSION, 200, 0, b""
        )
        _, _, flags, payload = _parse_one(response)
        assert flags & wire.FLAG_ERROR
        assert "unknown opcode" in wire.decode_compact(payload)["error"]

    def test_version_1_peer_gets_typed_refusal(self):
        # Version 1 had no packed-integer tag; its peer is refused by
        # version, before any payload could fail as an unknown tag.
        assert wire.SUPPORTED_VERSIONS == (3,)
        self._assert_version_refused(1)

    def test_version_2_peer_gets_typed_refusal(self):
        # Version 2 sketch payloads shipped every hash coefficient; a
        # version-3 side names families by seed, so a mixed-version
        # fleet fails at its first frame.
        self._assert_version_refused(2)

    @staticmethod
    def _assert_version_refused(version):
        request = wire.encode_compact({"from": 0, "until": 10})
        response, stopping = handle_frame(
            make_service(), version, wire.OP_SKETCH, 0, request
        )
        _, opcode, flags, payload = _parse_one(response)
        assert opcode == wire.OP_SKETCH
        assert flags == wire.FLAG_RESPONSE | wire.FLAG_ERROR
        error = wire.decode_compact(payload)
        assert error["ok"] is False
        assert f"unsupported protocol version {version}" in error["error"]
        assert not stopping
        with pytest.raises(wire.ProtocolVersionError, match="no shared"):
            wire.hello_response({"versions": [version]})

    def test_hello_negotiates_max_shared(self):
        response, _ = handle_frame(
            make_service(), wire.WIRE_VERSION, wire.OP_HELLO, 0,
            wire.encode_compact({"versions": [0, wire.WIRE_VERSION, 7]}),
        )
        _, _, flags, payload = _parse_one(response)
        assert not flags & wire.FLAG_ERROR
        assert wire.decode_compact(payload)["version"] == wire.WIRE_VERSION

    def test_hello_no_shared_version_is_error(self):
        response, _ = handle_frame(
            make_service(), wire.WIRE_VERSION, wire.OP_HELLO, 0,
            wire.encode_compact({"versions": [99]}),
        )
        _, _, flags, payload = _parse_one(response)
        assert flags & wire.FLAG_ERROR
        assert "no shared" in wire.decode_compact(payload)["error"]

    def test_ingest_frame_lands_in_store(self):
        service = make_service(kind="frequency")
        payload = wire.pack_ingest(5, np.array([1, 1, 2]))
        response, _ = handle_frame(
            service, wire.WIRE_VERSION, wire.OP_INGEST, 0, payload
        )
        _, _, flags, body = _parse_one(response)
        assert wire.decode_compact(body) == {
            "ok": True, "op": "ingest", "ingested": 3,
        }
        assert service.estimate_window(0, 10).estimate == 5.0  # 2^2 + 1

    def test_negative_value_ingest_refused_by_name(self):
        service = make_service()
        payload = wire.pack_ingest(5, np.array([3, -1]))
        response, _ = handle_frame(
            service, wire.WIRE_VERSION, wire.OP_INGEST, 0, payload
        )
        _, _, flags, body = _parse_one(response)
        assert flags & wire.FLAG_ERROR
        error = wire.decode_compact(body)["error"]
        assert "values contain -1, outside the field [0, 2147483647)" in error

    def test_shutdown_reports_stopping(self):
        response, stopping = handle_frame(
            make_service(), wire.WIRE_VERSION, wire.OP_SHUTDOWN, 0, b""
        )
        assert stopping
        _, _, flags, payload = _parse_one(response)
        assert wire.decode_compact(payload)["stopping"] is True

    def test_every_op_exists_exactly_once(self):
        # The dispatch table is the single source: JSON names and
        # binary opcodes cover the same op set, no duplicates.
        assert sorted(OPS) == sorted(
            name for name in wire.OPCODE_NAMES.values() if name != "hello"
        )
        assert len({spec.opcode for spec in OPS.values()}) == len(OPS)


def _parse_one(frame_bytes: bytes):
    stream = io.BytesIO(frame_bytes)
    frame = wire.read_frame(stream)
    assert frame is not None and stream.read() == b""
    return frame


# ----------------------------------------------------------------------
# Servers end to end
# ----------------------------------------------------------------------
def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(server, thread):
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    assert not thread.is_alive()


def _json_exchange(sock_file, request: dict) -> dict:
    sock_file.write((json.dumps(request) + "\n").encode())
    sock_file.flush()
    return json.loads(sock_file.readline())


@pytest.mark.parametrize("server_cls", [SketchServiceServer, EventLoopServer])
class TestServersBothProtocols:
    """Contracts every port keeps, front or shard worker: both server
    classes share one transport, so each case holds for both."""

    def test_json_and_binary_interop_one_port(self, server_cls):
        service = make_service(kind="frequency")
        server = server_cls(service, ("127.0.0.1", 0), read_timeout=10.0)
        thread = _serve(server)
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as conn:
                f = conn.makefile("rwb")
                assert _json_exchange(f, {"op": "ping"})["pong"] is True
                assert _json_exchange(f, {
                    "op": "ingest", "timestamps": [1, 2], "values": [5, 5],
                })["ingested"] == 2
            with socket.create_connection((host, port), timeout=10) as conn:
                rf = conn.makefile("rb")
                conn.sendall(wire.pack_frame(
                    wire.OP_INGEST, wire.pack_ingest(3, np.array([5]))
                ))
                _, opcode, flags, payload = wire.read_frame(rf)
                assert wire.decode_compact(payload)["ingested"] == 1
                conn.sendall(wire.pack_frame(
                    wire.OP_ESTIMATE,
                    wire.encode_compact({"from": 0, "until": 10}),
                ))
                _, _, _, payload = wire.read_frame(rf)
                # 3 copies of value 5 → second moment 9, via both wires.
                assert wire.decode_compact(payload)["estimate"] == 9.0
        finally:
            _stop(server, thread)

    def test_json_only_port_refuses_binary(self, server_cls):
        server = server_cls(
            make_service(), ("127.0.0.1", 0),
            read_timeout=10.0, protocol="json",
        )
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                conn.sendall(wire.pack_frame(wire.OP_PING))
                rf = conn.makefile("rb")
                _, _, flags, payload = wire.read_frame(rf)
                assert flags & wire.FLAG_ERROR
                assert "line-JSON" in wire.decode_compact(payload)["error"]
                assert rf.read(1) == b""  # connection closed after
        finally:
            _stop(server, thread)

    def test_binary_only_port_refuses_json(self, server_cls):
        server = server_cls(
            make_service(), ("127.0.0.1", 0),
            read_timeout=10.0, protocol="binary",
        )
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                f = conn.makefile("rwb")
                response = _json_exchange(f, {"op": "ping"})
                assert response["ok"] is False
                assert "binary protocol only" in response["error"]
        finally:
            _stop(server, thread)

    def test_bad_magic_answered_then_closed(self, server_cls):
        server = server_cls(
            make_service(), ("127.0.0.1", 0), read_timeout=10.0
        )
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                conn.sendall(b"\xabX" + b"\x00" * 8)
                rf = conn.makefile("rb")
                _, _, flags, payload = wire.read_frame(rf)
                assert flags & wire.FLAG_ERROR
                assert "magic" in wire.decode_compact(payload)["error"]
                assert rf.read(1) == b""
        finally:
            _stop(server, thread)

    def test_rejects_bad_protocol_and_frame_limit(self, server_cls):
        with pytest.raises(ValueError, match="protocol"):
            server_cls(make_service(), ("127.0.0.1", 0), protocol="carrier-pigeon")
        with pytest.raises(ValueError, match="max_frame_bytes"):
            server_cls(make_service(), ("127.0.0.1", 0), max_frame_bytes=4)

    def test_pipelined_requests_answered_in_order(self, server_cls):
        service = make_service(kind="frequency", bucket_width=1)
        service.ingest(np.arange(64), np.arange(64))
        server = server_cls(service, ("127.0.0.1", 0), read_timeout=10.0)
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                n = 24
                blob = b"".join(
                    wire.pack_frame(
                        wire.OP_ESTIMATE,
                        wire.encode_compact({"from": i, "until": i + 1}),
                    )
                    for i in range(n)
                )
                conn.sendall(blob)  # all queued before any response read
                rf = conn.makefile("rb")
                windows = []
                for _ in range(n):
                    _, _, flags, payload = wire.read_frame(rf)
                    assert not flags & wire.FLAG_ERROR
                    windows.append(wire.decode_compact(payload)["window"])
                assert windows == [[i, i + 1] for i in range(n)]
        finally:
            _stop(server, thread)

    def test_max_requests_self_shutdown(self, server_cls):
        server = server_cls(
            make_service(), ("127.0.0.1", 0),
            max_requests=2, read_timeout=10.0,
        )
        thread = _serve(server)
        with socket.create_connection(
            server.server_address[:2], timeout=10
        ) as conn:
            conn.sendall(
                wire.pack_frame(wire.OP_PING) + wire.pack_frame(wire.OP_PING)
            )
            rf = conn.makefile("rb")
            for _ in range(2):
                _, opcode, flags, _ = wire.read_frame(rf)
                assert opcode == wire.OP_PING
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()

    def test_oversized_frame_refused_connection_survives(self, server_cls):
        server = server_cls(
            make_service(), ("127.0.0.1", 0),
            read_timeout=10.0, max_frame_bytes=1024,
        )
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                conn.sendall(wire.pack_frame(wire.OP_INFO, b"\x00" * 4096))
                rf = conn.makefile("rb")
                _, _, flags, payload = wire.read_frame(rf)
                assert flags & wire.FLAG_ERROR
                assert "1024" in wire.decode_compact(payload)["error"]
                # Same connection keeps serving.
                conn.sendall(wire.pack_frame(wire.OP_PING))
                _, opcode, flags, _ = wire.read_frame(rf)
                assert opcode == wire.OP_PING and not flags & wire.FLAG_ERROR
        finally:
            _stop(server, thread)

    def test_malformed_json_answered_connection_survives(self, server_cls):
        server = server_cls(
            make_service(), ("127.0.0.1", 0), read_timeout=10.0
        )
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                f = conn.makefile("rwb")
                f.write(b"{not json}\n")
                f.flush()
                bad = json.loads(f.readline())
                assert bad["ok"] is False and "invalid JSON" in bad["error"]
                assert _json_exchange(f, {"op": "ping"})["pong"] is True
        finally:
            _stop(server, thread)

    def test_over_long_json_line_refused_then_closed(self, server_cls):
        # max_frame_bytes=1024 still allows a 64 KiB request line, and
        # no more: a 200 KB line is refused without being read whole.
        server = server_cls(
            make_service(), ("127.0.0.1", 0),
            read_timeout=10.0, max_frame_bytes=1024,
        )
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                f = conn.makefile("rwb")
                padded = {"op": "ping", "pad": "x" * 200_000}
                f.write((json.dumps(padded) + "\n").encode())
                f.flush()
                refused = json.loads(f.readline())
                assert refused["ok"] is False
                assert "65536-byte limit" in refused["error"]
                assert f.readline() == b""  # connection closed after
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                f = conn.makefile("rwb")
                at_limit = {"op": "ping", "pad": ""}
                at_limit["pad"] = "x" * (65536 - len(json.dumps(at_limit)))
                line = json.dumps(at_limit)
                assert len(line) == 65536
                f.write((line + "\n").encode())
                f.flush()
                assert json.loads(f.readline())["pong"] is True
        finally:
            _stop(server, thread)

    def test_pipelined_burst_not_held_by_nagle(self, server_cls):
        # Without TCP_NODELAY on the served socket, the second answer
        # of a pipelined burst waits for the client's delayed ACK of
        # the first (~40 ms on Linux); with it, a burst takes well
        # under a millisecond on loopback.
        server = server_cls(make_service(), ("127.0.0.1", 0), read_timeout=10.0)
        thread = _serve(server)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=10
            ) as conn:
                rf = conn.makefile("rb")
                burst = wire.pack_frame(wire.OP_PING) * 8
                elapsed = []
                for _ in range(10):
                    begin = time.perf_counter()
                    conn.sendall(burst)
                    for _ in range(8):
                        _, opcode, flags, _ = wire.read_frame(rf)
                        assert opcode == wire.OP_PING
                        assert not flags & wire.FLAG_ERROR
                    elapsed.append(time.perf_counter() - begin)
            elapsed.sort()
            median = (elapsed[4] + elapsed[5]) / 2
            assert median < 0.020, f"median burst {median * 1e3:.1f} ms"
        finally:
            _stop(server, thread)

    def test_listen_backlog_holds_a_connect_burst(self, server_cls):
        # Nothing accepts until every client has connected, so each
        # connect must complete in the listen queue alone; a queue of
        # socketserver's default 5 drops the rest of the SYNs, and
        # those clients wait out a 1 s retransmit.
        server = server_cls(make_service(), ("127.0.0.1", 0), read_timeout=10.0)
        conns = []
        thread = None
        try:
            for _ in range(100):
                conns.append(socket.create_connection(
                    server.server_address[:2], timeout=0.5
                ))
            thread = _serve(server)
            for conn in conns:
                conn.settimeout(10)
                conn.sendall(wire.pack_frame(wire.OP_PING))
            for conn in conns:
                with conn.makefile("rb") as rf:
                    _, opcode, flags, _ = wire.read_frame(rf)
                assert opcode == wire.OP_PING and not flags & wire.FLAG_ERROR
        finally:
            for conn in conns:
                conn.close()
            if thread is None:
                server.server_close()
            else:
                _stop(server, thread)


# ----------------------------------------------------------------------
# Protocol bit-identity
# ----------------------------------------------------------------------
def _counter_arrays(sketch) -> tuple[np.ndarray, ...]:
    if sketch.kind == "frequency":
        return sketch.as_arrays()
    return (sketch.counters,)


class TestProtocolBitIdentity:
    """The wire must be invisible: in-process, line-JSON, and binary
    paths produce identical estimates and sketches for every mergeable
    kind — 1-D and 2-D counters, [value, count] pairs and hash
    coefficient matrices all cross the binary wire packed."""

    WINDOWS = [(0, 200), (0, 100), (50, 150)]

    @pytest.mark.parametrize("kind", ["tugofwar", "frequency", "fk_moments", "f0"])
    def test_three_paths_identical(self, kind):
        rng = np.random.default_rng(1999)
        n = 5_000
        ts = np.sort(rng.integers(0, 200, size=n))
        # Skewed but clamped inside the tug-of-war hash field.
        vals = (rng.zipf(1.3, size=n) % 1_000_000).astype(np.int64) + 1

        inproc = make_service(kind)
        inproc.ingest(ts, vals)

        wire_estimates = {}
        wire_sketches = {}
        for protocol in ("json", "binary"):
            service = make_service(kind)
            server = SketchServiceServer(
                service, ("127.0.0.1", 0), read_timeout=30.0
            )
            thread = _serve(server)
            try:
                host, port = server.server_address[:2]
                with ShardClient(host, port, protocol=protocol) as client:
                    total = client.ingest_batches(
                        (ts[i:i + 512], vals[i:i + 512])
                        for i in range(0, n, 512)
                    )
                    assert total == n
                    wire_estimates[protocol] = [
                        client.request({
                            "op": "estimate", "from": t0, "until": t1,
                            "align": "outer",
                        })["estimate"]
                        for t0, t1 in self.WINDOWS
                    ]
                    wire_sketches[protocol] = [
                        client.request({
                            "op": "sketch", "from": t0, "until": t1,
                            "align": "outer",
                        })
                        for t0, t1 in self.WINDOWS
                    ]
            finally:
                _stop(server, thread)

        expected = [
            inproc.estimate_window(t0, t1, align="outer").estimate
            for t0, t1 in self.WINDOWS
        ]
        assert wire_estimates["json"] == expected
        assert wire_estimates["binary"] == expected

        assert wire_sketches["binary"] == wire_sketches["json"]
        for (t0, t1), binary, line in zip(
            self.WINDOWS, wire_sketches["binary"], wire_sketches["json"]
        ):
            want, _, _ = inproc.sketch_window(t0, t1, align="outer")
            for response in (binary, line):
                got = load_sketch(response["sketch"])
                for a, b in zip(_counter_arrays(got), _counter_arrays(want),
                                strict=True):
                    np.testing.assert_array_equal(a, b)
                assert got.to_dict() == want.to_dict()


# ----------------------------------------------------------------------
# Shard client: retries, backoff, pipelined ingest
# ----------------------------------------------------------------------
class _OneShotServer:
    """Accepts connections and serves N JSON requests per connection,
    then closes it — a deterministic stale-socket factory."""

    def __init__(self, requests_per_connection: int = 1):
        self.service = make_service(kind="frequency")
        self.per_conn = requests_per_connection
        self.connections = 0
        self._stopped = False
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)  # closing a socket does not wake accept()
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stopped:
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            self.connections += 1
            with conn:
                f = conn.makefile("rwb")
                try:
                    for _ in range(self.per_conn):
                        line = f.readline()
                        if not line:
                            break
                        response = handle_request(self.service, line)
                        f.write((json.dumps(response) + "\n").encode())
                        f.flush()
                finally:
                    # Close the dup'd file object too, or the fd (and
                    # therefore the FIN the client is waiting for)
                    # outlives the `with conn` block.
                    f.close()

    def close(self):
        self._stopped = True
        self._thread.join(timeout=5)
        self._sock.close()


class TestShardClientRetries:
    def test_backoff_delay_jittered_and_capped(self):
        delays = [backoff_delay(a, base=0.1, cap=0.8) for a in range(6)]
        for attempt, delay in enumerate(delays):
            ceiling = min(0.8, 0.1 * 2**attempt)
            assert ceiling / 2 <= delay <= ceiling
        assert max(delays) <= 0.8

    def test_stale_connection_idempotent_op_resent(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr("repro.cluster.client._sleep", slept.append)
        server = _OneShotServer(requests_per_connection=1)
        try:
            with ShardClient(*server.address) as client:
                assert client.request({"op": "ping"})["pong"] is True
                # The socket is now stale (server closed it after one
                # request); an idempotent op reconnects with backoff.
                assert client.request({"op": "ping"})["pong"] is True
            assert server.connections == 2
            assert len(slept) == 1 and slept[0] > 0
        finally:
            server.close()

    def test_stale_connection_ambiguous_ingest_not_resent(self):
        server = _OneShotServer(requests_per_connection=1)
        try:
            with ShardClient(*server.address) as client:
                client.request({"op": "ping"})
                with pytest.raises(ShardProtocolError, match="ambiguous"):
                    client.request({
                        "op": "ingest",
                        "timestamps": [1], "values": [2],
                    })
            # Crucially, the batch was NOT silently replayed.
            assert server.connections == 1
        finally:
            server.close()

    def test_stale_connection_unsent_ingest_safely_resent(self, monkeypatch):
        # Zero bytes written ⇒ the worker cannot have seen the batch,
        # so even a non-idempotent op may be resent.
        monkeypatch.setattr("repro.cluster.client._sleep", lambda _t: None)
        server = _OneShotServer(requests_per_connection=2)
        try:
            with ShardClient(*server.address) as client:
                client.request({"op": "ping"})
                original = client._send_counted

                def fail_before_sending(data):
                    client._send_counted = original
                    raise _SendFailed(0)

                client._send_counted = fail_before_sending
                response = client.request({
                    "op": "ingest", "timestamps": [1], "values": [2],
                })
                assert response["ingested"] == 1
            assert server.connections == 2
        finally:
            server.close()

    def test_fresh_connection_failure_is_final(self):
        client = ShardClient("127.0.0.1", 1)  # nothing listens here
        with pytest.raises(ShardUnreachableError, match="unreachable"):
            client.request({"op": "ping"})

    def test_request_refusal_still_typed(self):
        server = _OneShotServer(requests_per_connection=10)
        try:
            with ShardClient(*server.address) as client:
                with pytest.raises(ShardRequestError, match="from"):
                    client.request({"op": "estimate"})
        finally:
            server.close()

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            ShardClient("127.0.0.1", 1, protocol="morse")

    def test_mispaired_response_opcode_detected(self):
        # A binary response must echo the request's opcode; a stale
        # ingest ack surfacing as the answer to a ping is a protocol
        # error, not a silently mis-decoded response.
        client = ShardClient("127.0.0.1", 1, protocol="binary")
        client._rfile = io.BytesIO(wire.pack_frame(
            wire.OP_INGEST,
            wire.encode_compact({"ok": True, "op": "ingest", "ingested": 7}),
            flags=wire.FLAG_RESPONSE,
        ))
        with pytest.raises(ShardProtocolError, match="mispaired"):
            client._read_response(wire.OP_PING)

    def test_hello_error_frame_passes_opcode_check(self):
        # OP_HELLO error frames are the server's stream-level failure
        # channel (no request opcode to echo); they must surface as
        # the worker's refusal message, not as a mispairing.
        client = ShardClient("127.0.0.1", 1, protocol="binary")
        client._rfile = io.BytesIO(wire.pack_frame(
            wire.OP_HELLO,
            wire.encode_compact({"ok": False, "error": "bad frame magic"}),
            flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
        ))
        with pytest.raises(ShardRequestError, match="bad frame magic"):
            client._read_response(wire.OP_PING)


class TestPipelinedIngest:
    def test_binary_pipelined_batches_land(self):
        service = make_service(kind="frequency", bucket_width=1)
        server = SketchServiceServer(
            service, ("127.0.0.1", 0), read_timeout=30.0
        )
        thread = _serve(server)
        try:
            host, port = server.server_address[:2]
            with ShardClient(host, port, protocol="binary") as client:
                total = client.ingest_batches(
                    ((np.full(100, i), np.full(100, 7)) for i in range(20)),
                    window=6,
                )
            assert total == 2000
            assert service.estimate_window(0, 20).estimate == 2000.0**2
        finally:
            _stop(server, thread)

    def test_pipelined_failure_is_ambiguous(self):
        # A server that dies mid-pipeline must surface ambiguity, not
        # resend: at-most-once extends to the batched path.
        server = _OneShotServer(requests_per_connection=1)
        host, port = server.address
        try:
            with ShardClient(host, port, protocol="json") as seed:
                seed.request({"op": "ping"})
            server.close()
            with ShardClient(host, port, protocol="binary") as client:
                with pytest.raises(
                    (ShardProtocolError, ShardUnreachableError)
                ):
                    client.ingest_batches(
                        ((np.full(10, i), np.full(10, 1)) for i in range(50)),
                        window=4,
                    )
        finally:
            server.close()

    def test_window_must_be_positive(self):
        client = ShardClient("127.0.0.1", 1, protocol="binary")
        with pytest.raises(ValueError, match="window"):
            client.ingest_batches([], window=0)

    def test_pipelined_refusal_tears_down_connection(self):
        # A worker refusal of one pipelined batch leaves later acks
        # unread on the socket; the client must drop the connection so
        # the next request cannot pair with a stale ingest ack.
        service = make_service(kind="frequency", bucket_width=1)
        server = SketchServiceServer(
            service, ("127.0.0.1", 0), read_timeout=30.0
        )
        thread = _serve(server)
        try:
            host, port = server.server_address[:2]
            with ShardClient(host, port, protocol="binary") as client:
                poisoned = [
                    (np.full(4, 0), np.arange(4)),
                    # Deletes values never inserted: refused (KeyError).
                    (np.full(4, 0), np.arange(100, 104), np.full(4, -1)),
                    (np.full(4, 1), np.arange(4)),
                    (np.full(4, 2), np.arange(4)),
                ]
                with pytest.raises(ShardRequestError, match="delete"):
                    client.ingest_batches(poisoned, window=8)
                assert client._sock is None
                # A fresh connection answers cleanly — before the
                # teardown fix this read a stale ingest ack instead.
                assert client.request({"op": "ping"})["pong"] is True
        finally:
            _stop(server, thread)

    def test_stale_unsent_pipeline_reconnects(self, monkeypatch):
        # Zero bytes of the first frame reached a stale socket: the
        # worker provably saw nothing, so the pipeline re-dials with
        # backoff instead of refusing with an "ambiguous" error.
        slept: list[float] = []
        monkeypatch.setattr("repro.cluster.client._sleep", slept.append)
        service = make_service(kind="frequency", bucket_width=1)
        server = SketchServiceServer(
            service, ("127.0.0.1", 0), read_timeout=30.0
        )
        thread = _serve(server)
        try:
            host, port = server.server_address[:2]
            with ShardClient(host, port, protocol="binary") as client:
                assert client.request({"op": "ping"})["pong"] is True
                original = client._send_counted

                def fail_before_sending(data):
                    client._send_counted = original
                    raise _SendFailed(0)

                client._send_counted = fail_before_sending
                total = client.ingest_batches(
                    ((np.full(10, i), np.full(10, 3)) for i in range(5)),
                    window=2,
                )
            assert total == 50
            assert len(slept) == 1 and slept[0] > 0
            assert service.estimate_window(0, 5).estimate == 50.0**2
        finally:
            _stop(server, thread)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCliKnobs:
    def test_bad_max_frame_bytes_clear_error(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "s.json")
        assert main(
            ["store", "init", "--kind", "frequency", "--bucket-width", "10",
             "--out", path]
        ) == 0
        assert main(["serve", path, "--max-frame-bytes", "4"]) == 2
        assert "max_frame_bytes" in capsys.readouterr().err

    def test_binary_protocol_served_through_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "s.json")
        assert main(
            ["store", "init", "--kind", "frequency", "--bucket-width", "10",
             "--out", path]
        ) == 0
        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(main(
                ["serve", path, "--port", "0", "--protocol", "binary",
                 "--max-requests", "2"]
            ))
        )
        thread.start()
        port = None
        for _ in range(200):
            out = capsys.readouterr().out
            if " on 127.0.0.1:" in out:
                port = int(out.split(" on 127.0.0.1:")[1].split()[0])
                break
            time.sleep(0.05)
        assert port is not None, "server never announced its port"
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(
                wire.pack_frame(
                    wire.OP_INGEST, wire.pack_ingest(1, np.array([5, 5]))
                )
                + wire.pack_frame(
                    wire.OP_ESTIMATE,
                    wire.encode_compact({"from": 0, "until": 10}),
                )
            )
            rf = conn.makefile("rb")
            _, _, _, payload = wire.read_frame(rf)
            assert wire.decode_compact(payload)["ingested"] == 2
            _, _, _, payload = wire.read_frame(rf)
            assert wire.decode_compact(payload)["estimate"] == 4.0
        thread.join(timeout=10)
        assert not thread.is_alive() and rc == [0]
