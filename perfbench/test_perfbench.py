"""Self-test of the benchmark: contract shape, metric names, the gate.

Run from the repository root::

    python3 -m pytest -q perfbench

Tiny runs of every workload check that the printed metric names and
units are exactly those of ``BENCHMARK.json`` (end-to-end untraced,
per-layer traced) with a correct outcome, that the traced run measures
each workload's working layers and leaves little of an op's latency
unowned, and that a deliberately corrupted answer is caught by the
correctness gate.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _layers() -> dict:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


WORKLOADS = [w["name"] for w in _bench()["workloads"]]
#: Per-layer metrics every traced run must measure above zero, and the
#: ones each workload adds: a wrapper that stops being called reads 0.
TRACED_NONZERO = ("wire.decode_s", "wire.encode_s", "aserver.dispatch_s",
                  "service.dispatch_s")
WORKLOAD_NONZERO = {
    "stream-ingest": ("kernels.scatter_s",),
    "window-query": ("wire.sketch_response_bytes",),
    "tenant-join": ("wire.sketch_response_bytes", "store.sketch_builds",
                    "core.hash_family_builds"),
}
#: Largest share of a traced op's latency that no span may own.
MAX_OTHER_SHARE = 0.5


def _run(cwd: str, *args: str) -> tuple[int, list[dict]]:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return out.returncode, lines


def _tiny(workload: str, *extra: str) -> tuple[int, list[dict]]:
    return _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                *extra)


def test_benchmark_json_follows_the_contract():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = []
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        names.append(entry["name"])
    assert 2 <= len(bench["workloads"]) <= 8
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in bench["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [e for e in bench["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in bench["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move():
    bench = _bench()
    end_to_end = {e["name"] for e in bench["end_to_end"]}
    layers = _layers()
    assert set(layers) == {e["name"] for e in bench["per_layer"]}
    for name, entry in layers.items():
        for metric, workloads in entry["moves"].items():
            assert metric in end_to_end, name
            assert set(workloads) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_end_to_end_metrics(workload):
    code, lines = _tiny(workload, "--trace", "0")
    result = lines[-1]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {e["name"]: e["unit"] for e in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "stamp" in lines[0] and lines[0]["stamp"]["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_the_per_layer_metrics(workload):
    code, lines = _tiny(workload, "--trace", "1")
    result = lines[-1]
    assert code == 0 and result["correct"]
    want = {e["name"]: e["unit"] for e in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in TRACED_NONZERO + WORKLOAD_NONZERO[workload]:
        assert values[name] > 0, name
    assert values["cluster.shard_wait_s"] >= 0
    detail = lines[-2]["detail"]
    for op in ("ingest", "estimate", "join"):
        if op in detail:
            assert 0 <= detail[op]["other_share"] < MAX_OTHER_SHARE, op


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_catches_a_corrupted_answer(workload):
    code, lines = _tiny(workload, "--trace", "0", "--corrupt")
    result = lines[-1]
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program_source():
    bare = os.path.join(ROOT, ".bench_build", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = _run(bare, "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        assert code != 0 and not lines
    finally:
        shutil.rmtree(bare, ignore_errors=True)
