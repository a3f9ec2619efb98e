"""KeyedSketchService: per-(key, window) caching and keyed wire ops.

Service layer of ISSUE 8.  The bars: query methods refuse key-less
calls with an actionable TypeError; cache invalidation is precise per
key (one tenant's ingest never evicts another's hot windows); keyed
requests work over BOTH wire protocols on one port; and a keyed
request against an unkeyed service is a handled error, never a wrong
answer.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.service import (
    EventLoopServer,
    KeyedSketchService,
    SketchService,
    SketchServiceServer,
    wire,
)
from repro.service.surface import handle_request_mapping
from repro.store import SketchSpec, WindowedSketchStore
from repro.store.keyed import KeyedSketchStore

SPEC = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 7})


def make_keyed_service(cache_entries: int = 64) -> KeyedSketchService:
    return KeyedSketchService(
        KeyedSketchStore(SPEC, bucket_width=10), cache_entries=cache_entries
    )


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


class TestRequireKey:
    def test_query_methods_refuse_missing_key(self):
        service = make_keyed_service()
        for call in (
            lambda: service.estimate(0, 10),
            lambda: service.query(0, 10),
            lambda: service.estimate_window(0, 10),
            lambda: service.sketch_window(0, 10),
            lambda: service.window_bounds(0, 10),
            lambda: service.ingest([1], [2]),
        ):
            with pytest.raises(TypeError, match="keyed fleet.*key="):
                call()

    def test_bad_key_values_still_value_errors(self):
        service = make_keyed_service()
        with pytest.raises(ValueError, match="key"):
            service.estimate(0, 10, key="")

    def test_optional_key_methods_accept_none(self):
        service = make_keyed_service()
        service.ingest([1], [2], key="a")
        assert service.compact() == 0
        assert service.evict(0) == 0
        assert service.stats()["keyed"] is True
        assert isinstance(service.snapshot(), dict)


class TestCachePrecision:
    def test_ingest_only_invalidates_its_own_key(self):
        service = make_keyed_service()
        service.ingest([1, 2], [5, 6], key="a")
        service.ingest([1, 2], [5, 6], key="b")
        # Warm both keys' windows.
        service.estimate(0, 10, key="a")
        service.estimate(0, 10, key="b")
        hits_before = service.stats()["hits"]
        service.ingest([3], [7], key="a")
        # b's window is still hot...
        service.estimate(0, 10, key="b")
        assert service.stats()["hits"] == hits_before + 1
        # ...while a's was invalidated and recomputes.
        misses_before = service.stats()["misses"]
        service.estimate(0, 10, key="a")
        assert service.stats()["misses"] == misses_before + 1

    def test_ingest_outside_window_keeps_same_key_hot(self):
        service = make_keyed_service()
        service.ingest([1], [5], key="a")
        service.estimate(0, 10, key="a")
        hits_before = service.stats()["hits"]
        service.ingest([55], [9], key="a")  # different bucket entirely
        service.estimate(0, 10, key="a")
        assert service.stats()["hits"] == hits_before + 1

    def test_same_window_different_keys_cached_separately(self):
        service = make_keyed_service()
        service.ingest([1], [5], key="a")
        service.ingest([1, 1], [5, 5], key="b")
        assert service.estimate(0, 10, key="a") != service.estimate(
            0, 10, key="b"
        )

    def test_keyed_answers_match_raw_store(self):
        service = make_keyed_service()
        rng = np.random.default_rng(2)
        raw = KeyedSketchStore(SPEC, bucket_width=10)
        for key in ("a", "b"):
            ts = rng.integers(0, 60, size=400).astype(np.int64)
            vals = rng.integers(0, 50, size=400).astype(np.int64)
            service.ingest(ts, vals, key=key)
            raw.ingest(key, ts, vals)
        for key in ("a", "b"):
            assert service.estimate(0, 60, key=key) == raw.estimate(key, 0, 60)
            got = service.query(0, 60, key=key)
            assert np.array_equal(got.counters, raw.query(key, 0, 60).counters)


class TestSnapshotRestore:
    def test_per_key_round_trip(self):
        service = make_keyed_service()
        service.ingest([1, 2], [5, 6], key="a")
        payload = service.snapshot(key="a")
        other = make_keyed_service()
        other.restore(payload, key="a")
        assert other.estimate(0, 10, key="a") == service.estimate(
            0, 10, key="a"
        )

    def test_whole_fleet_round_trip_invalidates_everything(self):
        service = make_keyed_service()
        service.ingest([1], [5], key="a")
        service.ingest([1], [6], key="b")
        checkpoint = service.snapshot()
        service.ingest([2], [7], key="a")
        stale = service.estimate(0, 10, key="a")
        service.restore(checkpoint)
        rolled_back = service.estimate(0, 10, key="a")
        assert rolled_back != stale
        assert service.keys == ["a", "b"]

    def test_whole_fleet_restore_refuses_mismatched_template(self):
        service = make_keyed_service()
        alien = KeyedSketchStore(SPEC, bucket_width=60)
        with pytest.raises(ValueError, match="bucket_width"):
            service.restore(alien.to_dict())

    def test_stats_key_filter(self):
        service = make_keyed_service()
        service.ingest([1, 2], [5, 6], key="a")
        service.ingest([1], [5], key="b")
        full = service.stats()
        assert full["items_by_key"] == {"a": 2, "b": 1}
        assert full["items"] == 3 and full["key_count"] == 2
        only_a = service.stats(key="a")
        assert only_a["items_by_key"] == {"a": 2} and only_a["items"] == 2
        ghost = service.stats(key="ghost")
        assert ghost["items_by_key"] == {"ghost": 0}


@pytest.mark.parametrize("server_cls", [SketchServiceServer, EventLoopServer])
class TestKeyedWireBothProtocols:
    """Keyed ops must work over JSON lines AND binary frames, one port."""

    def test_keyed_ops_both_protocols_one_port(self, server_cls):
        service = make_keyed_service()
        server = server_cls(service, ("127.0.0.1", 0), read_timeout=10.0)
        thread = _serve(server)
        try:
            host, port = server.server_address[:2]
            # JSON connection: ingest + estimate for tenant-a.
            with socket.create_connection((host, port), timeout=10) as conn:
                f = conn.makefile("rwb")
                reply = _json_exchange(f, {
                    "op": "ingest", "timestamps": [1, 2, 3],
                    "values": [5, 5, 9], "key": "tenant-a",
                })
                assert reply["ok"] and reply["ingested"] == 3
                est_a = _json_exchange(f, {
                    "op": "estimate", "from": 0, "until": 10, "key": "tenant-a",
                })
                assert est_a["ok"]
            # Binary connection: keyed ingest frame + keyed estimate
            # for tenant-b on the same port.
            with socket.create_connection((host, port), timeout=10) as conn:
                rf = conn.makefile("rb")
                conn.sendall(wire.pack_frame(wire.OP_INGEST, wire.pack_ingest(
                    np.array([1, 2], dtype=np.int64),
                    np.array([5, 5], dtype=np.int64),
                    key="tenant-b",
                )))
                _, _, _, payload = wire.read_frame(rf)
                assert wire.decode_compact(payload)["ingested"] == 2
                conn.sendall(wire.pack_frame(
                    wire.OP_ESTIMATE,
                    wire.encode_compact(
                        {"from": 0, "until": 10, "key": "tenant-b"}
                    ),
                ))
                _, _, _, payload = wire.read_frame(rf)
                est_b = wire.decode_compact(payload)
                assert est_b["ok"]
            # Both transports answered from the right stream: the
            # in-process service agrees per key.
            assert est_a["estimate"] == service.estimate(0, 10, key="tenant-a")
            assert est_b["estimate"] == service.estimate(0, 10, key="tenant-b")
            assert est_a["estimate"] != est_b["estimate"]
            assert service.keys == ["tenant-a", "tenant-b"]
        finally:
            _stop(server, thread)

    def test_keyless_request_against_keyed_service_is_handled(self, server_cls):
        service = make_keyed_service()
        service.ingest([1], [5], key="a")
        server = server_cls(service, ("127.0.0.1", 0), read_timeout=10.0)
        thread = _serve(server)
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as conn:
                f = conn.makefile("rwb")
                reply = _json_exchange(f, {"op": "estimate", "from": 0, "until": 10})
                assert reply["ok"] is False
                assert "keyed fleet" in reply["error"]
                # The connection survives the handled error.
                assert _json_exchange(f, {"op": "ping"})["pong"] is True
        finally:
            _stop(server, thread)


class TestKeyedVsUnkeyedMismatch:
    def test_keyed_request_against_plain_service_is_handled(self):
        plain = SketchService(WindowedSketchStore(SPEC, bucket_width=10))
        reply = handle_request_mapping(
            plain, {"op": "estimate", "from": 0, "until": 10, "key": "a"}
        )
        assert reply["ok"] is False
        assert "key" in reply["error"]

    def test_keyed_ingest_against_plain_service_is_handled(self):
        plain = SketchService(WindowedSketchStore(SPEC, bucket_width=10))
        reply = handle_request_mapping(
            plain,
            {"op": "ingest", "timestamps": [1], "values": [5], "key": "a"},
        )
        assert reply["ok"] is False

    def test_keyed_request_in_process_answers_match_wire(self):
        service = make_keyed_service()
        service.ingest([1, 2], [5, 5], key="a")
        reply = handle_request_mapping(
            service, {"op": "estimate", "from": 0, "until": 10, "key": "a"}
        )
        assert reply["ok"] is True
        assert reply["estimate"] == service.estimate(0, 10, key="a")
        stats = handle_request_mapping(service, {"op": "stats", "key": "a"})
        assert stats["ok"] and stats["cache"]["items_by_key"] == {"a": 2}
