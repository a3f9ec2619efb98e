"""Tests for the reproduction CLI (python -m repro)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_sweep_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "zipf1.0" in out and "path" in out

    def test_figure_sweep(self, capsys):
        assert main(["figure", "8", "--scale", "0.02", "--max-log2-s", "5"]) == 0
        out = capsys.readouterr().out
        assert "poisson" in out
        assert "15%-convergence" in out

    def test_figure_15(self, capsys):
        assert main(["figure", "15", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out

    def test_figure_invalid_number_clear_error(self, capsys):
        # ISSUE 3 satellite: registry KeyErrors no longer escape as
        # tracebacks — one line on stderr, exit code 2.
        assert main(["figure", "1", "--scale", "0.02"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not an accuracy sweep" in err

    def test_convergence_subset(self, capsys):
        assert main(
            ["convergence", "--datasets", "poisson", "--scale", "0.03",
             "--max-log2-s", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "poisson" in out

    def test_section44_paper_values(self, capsys):
        assert main(["section44", "--paper-values"]) == 0
        out = capsys.readouterr().out
        assert "break-even" in out
        assert "selfsimilar" in out

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "--dataset", "mf3", "--scale", "0.05", "--max-log2-s", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "mf3" in out and "tug-of-war" in out

    def test_sweep_unknown_dataset_clear_error(self, capsys):
        assert main(["sweep", "--dataset", "nope", "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown data set" in err
        assert "zipf1.0" in err  # the message lists what *is* registered

    def test_convergence_unknown_dataset_clear_error(self, capsys):
        assert main(
            ["convergence", "--datasets", "nope", "--scale", "0.03"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown data set" in err


class TestSketchCommands:
    @pytest.fixture()
    def values_file(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "values.txt"
        path.write_text(
            "\n".join(str(v) for v in rng.integers(0, 100, size=2000).tolist())
        )
        return str(path)

    def test_kinds(self, capsys):
        assert main(["sketch", "kinds"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = {line.split(":", 1)[0] for line in lines if line}
        assert {"tugofwar", "samplecount", "frequency", "fk_moments", "f0"} <= listed
        # Every kind ships a one-line description of what it estimates.
        assert all(":" in line and line.split(":", 1)[1].strip() for line in lines)
        # The footer reports the active kernel backend.
        assert any(line.startswith("kernel backend: ") for line in lines)

    def test_build_info_estimate_round_trip(self, tmp_path, values_file, capsys):
        out_path = str(tmp_path / "sk.json")
        assert main(
            ["sketch", "build", "--kind", "tugofwar", "--values-file", values_file,
             "--s1", "64", "--s2", "5", "--seed", "9", "--out", out_path]
        ) == 0
        payload = json.loads((tmp_path / "sk.json").read_text())
        assert payload["kind"] == "tugofwar"
        assert main(["sketch", "info", out_path]) == 0
        assert "kind=tugofwar" in capsys.readouterr().out
        assert main(["sketch", "estimate", out_path]) == 0
        float(capsys.readouterr().out.strip())  # parses as a number

    def test_build_from_dataset(self, tmp_path, capsys):
        out_path = str(tmp_path / "ds.json")
        assert main(
            ["sketch", "build", "--kind", "frequency", "--dataset", "zipf1.0",
             "--scale", "0.01", "--out", out_path]
        ) == 0
        assert "kind=frequency" in capsys.readouterr().out

    def test_sharded_build_merges_to_single_shot(self, tmp_path, values_file, capsys):
        single = str(tmp_path / "single.json")
        sharded = str(tmp_path / "sharded.json")
        base = ["sketch", "build", "--kind", "tugofwar", "--values-file", values_file,
                "--s1", "32", "--s2", "3", "--seed", "4"]
        assert main(base + ["--out", single]) == 0
        assert main(base + ["--shards", "4", "--out", sharded]) == 0
        a = json.loads((tmp_path / "single.json").read_text())
        b = json.loads((tmp_path / "sharded.json").read_text())
        assert a["z"] == b["z"]  # bit-identical counters

    def test_merge_command(self, tmp_path, values_file, capsys):
        left = str(tmp_path / "left.json")
        right = str(tmp_path / "right.json")
        merged = str(tmp_path / "merged.json")
        base = ["sketch", "build", "--kind", "tugofwar", "--s1", "32", "--s2", "3",
                "--seed", "4", "--values-file", values_file]
        assert main(base + ["--out", left]) == 0
        assert main(base + ["--out", right]) == 0
        assert main(["sketch", "merge", left, right, "--out", merged]) == 0
        payload = json.loads((tmp_path / "merged.json").read_text())
        assert payload["n"] == 4000  # both halves counted

    def test_build_unknown_kind_clear_error(self, tmp_path, values_file, capsys):
        assert main(
            ["sketch", "build", "--kind", "nope", "--values-file", values_file,
             "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "unknown sketch kind" in capsys.readouterr().err

    def test_build_missing_values_file_clear_error(self, tmp_path, capsys):
        assert main(
            ["sketch", "build", "--values-file", str(tmp_path / "nope.txt"),
             "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "no such file" in capsys.readouterr().err

    def test_build_unknown_dataset_clear_error(self, tmp_path, capsys):
        assert main(
            ["sketch", "build", "--dataset", "nope",
             "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "unknown data set" in capsys.readouterr().err

    def test_sharded_build_unmergeable_kind_clear_error(
        self, tmp_path, values_file, capsys
    ):
        assert main(
            ["sketch", "build", "--kind", "samplecount", "--values-file",
             values_file, "--shards", "2", "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "does not support merging" in capsys.readouterr().err

    def test_merge_mismatched_seeds_clear_error(
        self, tmp_path, values_file, capsys
    ):
        left, right = str(tmp_path / "l.json"), str(tmp_path / "r.json")
        base = ["sketch", "build", "--kind", "tugofwar", "--s1", "16",
                "--s2", "2", "--values-file", values_file]
        assert main(base + ["--seed", "1", "--out", left]) == 0
        assert main(base + ["--seed", "2", "--out", right]) == 0
        capsys.readouterr()
        assert main(
            ["sketch", "merge", left, right, "--out", str(tmp_path / "m.json")]
        ) == 2
        assert "different hash families" in capsys.readouterr().err

    def test_estimate_missing_file_clear_error(self, tmp_path, capsys):
        # ISSUE 2 satellite: user-level failures surface as one clear
        # line and exit code 2, not a traceback.
        assert main(["sketch", "estimate", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no such file" in err

    def test_estimate_unregistered_kind_clear_error(self, tmp_path, capsys):
        path = tmp_path / "alien.json"
        path.write_text(json.dumps({"kind": "alien", "z": []}))
        assert main(["sketch", "estimate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown sketch kind" in err and "registered kinds" in err

    def test_estimate_corrupt_payload_clear_error(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        assert main(["sketch", "estimate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestStoreCommands:
    @pytest.fixture()
    def events_file(self, tmp_path):
        rng = np.random.default_rng(8)
        ts = rng.integers(0, 100, size=3000)
        values = rng.integers(0, 50, size=3000)
        path = tmp_path / "events.txt"
        path.write_text(
            "\n".join(f"{t} {v}" for t, v in zip(ts.tolist(), values.tolist()))
        )
        return str(path)

    @pytest.fixture()
    def store_file(self, tmp_path, events_file):
        path = str(tmp_path / "store.json")
        assert main(
            ["store", "init", "--kind", "tugofwar", "--bucket-width", "10",
             "--s1", "32", "--s2", "3", "--seed", "5", "--out", path]
        ) == 0
        assert main(["store", "ingest", path, "--events-file", events_file]) == 0
        return path

    def test_init_writes_config(self, tmp_path, capsys):
        path = tmp_path / "st.json"
        assert main(
            ["store", "init", "--kind", "frequency", "--bucket-width", "7",
             "--out", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["kind"] == "windowed-store"
        assert payload["bucket_width"] == 7
        assert payload["spec"]["kind"] == "frequency"

    def test_ingest_and_query(self, store_file, capsys):
        assert main(
            ["store", "query", store_file, "--from", "0", "--until", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "window [0, 100)" in out and "estimate=" in out

    def test_query_matches_monolithic_sketch(
        self, tmp_path, store_file, events_file, capsys
    ):
        # The acceptance property, end to end through the CLI: the
        # windowed estimate equals a monolithic build over the window.
        events = np.loadtxt(events_file, dtype=np.int64)
        window = events[(events[:, 0] >= 20) & (events[:, 0] < 60)][:, 1]
        values_file = tmp_path / "window_values.txt"
        values_file.write_text("\n".join(str(v) for v in window.tolist()))
        mono = tmp_path / "mono.json"
        assert main(
            ["sketch", "build", "--kind", "tugofwar", "--values-file",
             str(values_file), "--s1", "32", "--s2", "3", "--seed", "5",
             "--out", str(mono)]
        ) == 0
        capsys.readouterr()  # drain the build summary
        assert main(["sketch", "estimate", str(mono)]) == 0
        mono_est = capsys.readouterr().out.strip()
        assert main(
            ["store", "query", store_file, "--from", "20", "--until", "60"]
        ) == 0
        assert f"estimate={float(mono_est):.6g}" in capsys.readouterr().out

    def test_query_inverted_window_clear_error(self, store_file, capsys):
        assert main(
            ["store", "query", store_file, "--from", "10", "--until", "5"]
        ) == 2
        assert "empty window" in capsys.readouterr().err

    def test_init_compact_retention_with_sampler_clear_error(
        self, tmp_path, capsys
    ):
        assert main(
            ["store", "init", "--kind", "naivesampling", "--bucket-width",
             "10", "--retention", "2", "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "evict" in capsys.readouterr().err

    def test_query_misaligned_clear_error(self, store_file, capsys):
        assert main(
            ["store", "query", store_file, "--from", "5", "--until", "60"]
        ) == 2
        assert "not aligned" in capsys.readouterr().err
        assert main(
            ["store", "query", store_file, "--from", "5", "--until", "60",
             "--align", "outer"]
        ) == 0
        assert "window [0, 60)" in capsys.readouterr().out

    def test_compact_then_query_unchanged(self, store_file, capsys):
        assert main(
            ["store", "query", store_file, "--from", "0", "--until", "100"]
        ) == 0
        before = capsys.readouterr().out
        assert main(["store", "compact", store_file, "--before", "50"]) == 0
        capsys.readouterr()
        assert main(
            ["store", "query", store_file, "--from", "0", "--until", "100"]
        ) == 0
        assert capsys.readouterr().out == before

    def test_snapshot_round_trips(self, tmp_path, store_file, capsys):
        snap = str(tmp_path / "snap.json")
        assert main(["store", "snapshot", store_file, "--out", snap]) == 0
        assert json.loads((tmp_path / "snap.json").read_text()) == json.loads(
            (tmp_path / "store.json").read_text()
        )

    def test_info_lists_spans(self, store_file, capsys):
        assert main(["store", "info", store_file]) == 0
        out = capsys.readouterr().out
        assert "spans=10" in out and "span [0, 10)" in out

    def test_ingest_with_counts_column(self, tmp_path, capsys):
        path = str(tmp_path / "st.json")
        assert main(
            ["store", "init", "--kind", "tugofwar", "--bucket-width", "10",
             "--s1", "16", "--s2", "3", "--out", path]
        ) == 0
        events = tmp_path / "signed.txt"
        events.write_text("1 7 3\n2 7 -1\n15 9 2\n")
        assert main(["store", "ingest", path, "--events-file", str(events)]) == 0
        capsys.readouterr()
        assert main(["store", "query", path, "--from", "0", "--until", "20"]) == 0
        assert "estimate=" in capsys.readouterr().out

    def test_corrupt_store_payload_clear_error(self, tmp_path, store_file, capsys):
        # Validation failures inside the payload (not just bad JSON)
        # must surface as one-line errors too.
        payload = json.loads((tmp_path / "store.json").read_text())
        payload["bucket_width"] = 0
        bad = tmp_path / "bad_store.json"
        bad.write_text(json.dumps(payload))
        assert main(["store", "info", str(bad)]) == 2
        assert "corrupt" in capsys.readouterr().err
        payload["bucket_width"] = 10
        payload["spans"] = [[0, 1]]  # span entry missing its sketch
        bad.write_text(json.dumps(payload))
        assert main(["store", "info", str(bad)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_store_missing_file_clear_error(self, tmp_path, capsys):
        assert main(
            ["store", "query", str(tmp_path / "nope.json"),
             "--from", "0", "--until", "10"]
        ) == 2
        assert "no such file" in capsys.readouterr().err

    def test_ingest_deletes_into_sampler_clear_error(self, tmp_path, capsys):
        path = str(tmp_path / "ns.json")
        assert main(
            ["store", "init", "--kind", "naivesampling", "--bucket-width",
             "10", "--s1", "4", "--s2", "2", "--out", path]
        ) == 0
        events = tmp_path / "neg.txt"
        events.write_text("2 7 -1\n")
        capsys.readouterr()
        assert main(["store", "ingest", path, "--events-file", str(events)]) == 2
        assert "insertion-only" in capsys.readouterr().err

    def test_ingest_unmatched_delete_frequency_clear_error(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "fv.json")
        assert main(
            ["store", "init", "--kind", "frequency", "--bucket-width", "10",
             "--out", path]
        ) == 0
        events = tmp_path / "orphan_delete.txt"
        events.write_text("5 7 -1\n")
        capsys.readouterr()
        assert main(["store", "ingest", path, "--events-file", str(events)]) == 2
        assert "bucket span" in capsys.readouterr().err

    def test_ingest_bad_events_clear_error(self, tmp_path, store_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n")
        assert main(
            ["store", "ingest", store_file, "--events-file", str(bad)]
        ) == 2
        assert "columns" in capsys.readouterr().err

    def test_query_unmergeable_multi_span_clear_error(self, tmp_path, capsys):
        path = str(tmp_path / "ns.json")
        assert main(
            ["store", "init", "--kind", "naivesampling", "--bucket-width", "10",
             "--s1", "4", "--s2", "2", "--out", path]
        ) == 0
        events = tmp_path / "two_buckets.txt"
        events.write_text("1 7\n15 9\n")
        assert main(["store", "ingest", path, "--events-file", str(events)]) == 0
        capsys.readouterr()
        assert main(["store", "query", path, "--from", "0", "--until", "10"]) == 0
        assert "estimate=" in capsys.readouterr().out
        assert main(["store", "query", path, "--from", "0", "--until", "20"]) == 2
        assert "does not support merging" in capsys.readouterr().err

    def test_init_unknown_kind_clear_error(self, tmp_path, capsys):
        assert main(
            ["store", "init", "--kind", "nope", "--bucket-width", "10",
             "--out", str(tmp_path / "x.json")]
        ) == 2
        assert "unknown sketch kind" in capsys.readouterr().err


class TestServeCommand:
    @pytest.fixture()
    def store_file(self, tmp_path):
        rng = np.random.default_rng(8)
        events = tmp_path / "events.txt"
        events.write_text(
            "\n".join(
                f"{t} {v}"
                for t, v in zip(
                    rng.integers(0, 100, size=500).tolist(),
                    rng.integers(0, 50, size=500).tolist(),
                )
            )
        )
        path = str(tmp_path / "serve_store.json")
        assert main(
            ["store", "init", "--kind", "tugofwar", "--bucket-width", "10",
             "--s1", "32", "--s2", "3", "--seed", "5", "--out", path]
        ) == 0
        assert main(["store", "ingest", path, "--events-file", str(events)]) == 0
        return path

    def test_serve_missing_store_clear_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_serve_corrupt_store_clear_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["serve", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_serve_bad_cache_size_clear_error(self, store_file, capsys):
        assert main(["serve", store_file, "--cache-entries", "0"]) == 2
        assert "max_entries" in capsys.readouterr().err

    def test_serve_answers_over_the_wire(self, store_file, capsys):
        # End to end through the CLI entry point: bind an ephemeral
        # port, serve a bounded number of requests, compare the wire
        # answer against the store file's own merge-on-query estimate.
        import socket
        import threading
        import time
        from pathlib import Path

        from repro.store import WindowedSketchStore

        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main(["serve", store_file, "--port", "0", "--max-requests", "2"])
            )
        )
        thread.start()
        port = None
        for _ in range(100):  # wait for the "serving ... on host:port" line
            out = capsys.readouterr().out
            if " on 127.0.0.1:" in out:
                port = int(out.split(" on 127.0.0.1:")[1].split()[0])
                break
            time.sleep(0.05)
        assert port is not None, "server never announced its port"
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            wire = conn.makefile("rw", encoding="utf-8")
            for request in ({"op": "ping"}, {"op": "estimate", "from": 0, "until": 100}):
                wire.write(json.dumps(request) + "\n")
                wire.flush()
                responses = [json.loads(wire.readline())]
                assert all(r["ok"] for r in responses)
        thread.join(timeout=10)
        assert not thread.is_alive() and rc == [0]
        expected = WindowedSketchStore.from_dict(
            json.loads(Path(store_file).read_text())
        ).estimate(0, 100)
        assert responses[-1]["estimate"] == expected


class TestClusterCommand:
    """ISSUE 5: `serve --shards` and the `repro cluster` tool group."""

    @pytest.fixture()
    def empty_store(self, tmp_path):
        path = str(tmp_path / "cluster_store.json")
        assert main(
            ["store", "init", "--kind", "tugofwar", "--bucket-width", "10",
             "--s1", "32", "--s2", "3", "--seed", "5", "--out", path]
        ) == 0
        return path

    def test_worker_rejects_bad_config_json(self, capsys):
        assert main(["cluster", "worker", "--config-json", "{broken"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_worker_rejects_unknown_kind(self, capsys):
        config = json.dumps({"spec": {"kind": "warpdrive"}, "bucket_width": 1})
        assert main(["cluster", "worker", "--config-json", config]) == 2
        assert "warpdrive" in capsys.readouterr().err

    def test_info_unreachable_shard_clear_error(self, capsys):
        assert main(["cluster", "info", "--connect", "127.0.0.1:1"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_estimate_malformed_connect_clear_error(self, capsys):
        assert main(
            ["cluster", "estimate", "--connect", "nonsense",
             "--from", "0", "--until", "10"]
        ) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--events", "--batch", "--buckets", "--values"]
    )
    def test_ingest_bench_rejects_non_positive_sizes(self, capsys, flag):
        # Refused before any connection: nothing listens on port 1.
        assert main(
            ["cluster", "ingest-bench", "--connect", "127.0.0.1:1",
             flag, "0"]
        ) == 2
        assert "positive" in capsys.readouterr().err

    def test_serve_shards_rejects_nonempty_store(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("1 5\n15 9\n")
        path = str(tmp_path / "full_store.json")
        assert main(
            ["store", "init", "--kind", "tugofwar", "--bucket-width", "10",
             "--seed", "3", "--out", path]
        ) == 0
        assert main(["store", "ingest", path, "--events-file", str(events)]) == 0
        assert main(["serve", path, "--shards", "2"]) == 2
        assert "empty store" in capsys.readouterr().err

    def test_serve_shards_sampler_kind_clear_error(self, tmp_path, capsys):
        # A non-mergeable kind cannot be gather-merged; the spawn must
        # unwind into the one-line exit-2 contract, not a traceback.
        path = str(tmp_path / "sampler_store.json")
        assert main(
            ["store", "init", "--kind", "samplecount", "--bucket-width", "10",
             "--seed", "1", "--out", path]
        ) == 0
        assert main(["serve", path, "--shards", "2"]) == 2
        assert "scatter" in capsys.readouterr().err

    def test_serve_shards_rejects_bad_counts(self, empty_store, capsys):
        assert main(["serve", empty_store, "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["serve", empty_store, "--read-timeout", "-1"]) == 2
        assert "--read-timeout" in capsys.readouterr().err

    def test_serve_shards_end_to_end(self, empty_store, capsys):
        # Spawn a 2-shard cluster through the real CLI entry point,
        # ingest over the wire, and check the scatter–gather estimate
        # is bit-identical to a monolithic store of the same events.
        import socket
        import threading
        import time

        import numpy as np

        from repro.store import SketchSpec, WindowedSketchStore

        rng = np.random.default_rng(8)
        ts = rng.integers(0, 100, size=600).tolist()
        vals = rng.integers(0, 80, size=600).tolist()

        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(main(
                ["serve", empty_store, "--shards", "2", "--port", "0",
                 "--max-requests", "3"]
            ))
        )
        thread.start()
        port = None
        for _ in range(400):  # workers take a moment to spawn
            out = capsys.readouterr().out
            if " on 127.0.0.1:" in out:
                port = int(out.split(" on 127.0.0.1:")[1].split()[0])
                break
            time.sleep(0.05)
        assert port is not None, "cluster front end never announced its port"
        with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
            wire = conn.makefile("rw", encoding="utf-8")
            requests = [
                {"op": "ping"},
                {"op": "ingest", "timestamps": ts, "values": vals},
                {"op": "estimate", "from": 0, "until": 100},
            ]
            responses = []
            for request in requests:
                wire.write(json.dumps(request) + "\n")
                wire.flush()
                responses.append(json.loads(wire.readline()))
        thread.join(timeout=30)
        assert not thread.is_alive() and rc == [0]
        assert all(r["ok"] for r in responses)
        mono = WindowedSketchStore(
            SketchSpec("tugofwar", {"s1": 32, "s2": 3, "seed": 5}),
            bucket_width=10,
        )
        mono.ingest(ts, vals)
        assert responses[-1]["estimate"] == mono.estimate(0, 100)


class TestPlanCommand:
    """ISSUE 4: the `repro plan` command over seeded workloads."""

    def test_plan_chain_all_policies(self, capsys):
        assert main(
            ["plan", "--shape", "chain", "--relations", "4", "--rows", "300",
             "--policy", "all", "--k", "256", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        for policy in ("exact", "sketch", "bound"):
            assert f"policy={policy}" in out
        assert "⋈" in out  # render_plan output
        assert "regret vs exact-policy plan" in out
        assert "shape=chain" in out and "edges=3" in out

    def test_plan_single_policy_star_greedy(self, capsys):
        assert main(
            ["plan", "--shape", "star", "--relations", "4", "--rows", "300",
             "--policy", "exact", "--enumerator", "greedy", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=exact" in out and "policy=sketch" not in out

    def test_plan_deterministic_output(self, capsys):
        argv = ["plan", "--shape", "clique", "--relations", "3", "--rows",
                "200", "--policy", "sketch", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_plan_too_few_relations_clear_error(self, capsys):
        assert main(["plan", "--relations", "1"]) == 2
        assert "--relations" in capsys.readouterr().err

    def test_plan_bad_rows_clear_error(self, capsys):
        assert main(["plan", "--rows", "0"]) == 2
        assert "--rows" in capsys.readouterr().err

    def test_plan_unknown_choices_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--shape", "snowflake"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--enumerator", "exhaustive"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--policy", "psychic"])

    def test_plan_bad_confidence_clear_error(self, capsys):
        assert main(
            ["plan", "--relations", "3", "--rows", "100", "--policy", "bound",
             "--confidence", "-2"]
        ) == 2
        assert "confidence" in capsys.readouterr().err

    def test_plan_confidence_ignored_by_unrelated_policy(self, capsys):
        # --confidence only parameterises the bound policy; a sketch-only
        # run must not reject (or even build) the bound backend.
        assert main(
            ["plan", "--relations", "3", "--rows", "100", "--policy",
             "sketch", "--confidence", "-2"]
        ) == 0
        assert "policy=sketch" in capsys.readouterr().out

    def test_plan_bad_k_and_seed_clear_errors(self, capsys):
        assert main(
            ["plan", "--relations", "3", "--rows", "100", "--policy",
             "sketch", "--k", "0"]
        ) == 2
        assert "--k" in capsys.readouterr().err
        assert main(["plan", "--relations", "3", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
