"""Sampler snapshot format: pinned bytes, pre-counter refusal, corruption.

Sampler snapshots resume a stream mid-flight, so their format is a
contract with every file already written:

* a counter-RNG snapshot serialises to exactly the bytes pinned below
  (hashes of payloads written by the code that introduced the counter
  RNG), and loading one continues the stream bit for bit;
* a snapshot that embeds a PCG64 generator state, or names any RNG
  scheme other than ``counter``, is refused with
  :class:`SketchPayloadError` rather than loaded;
* slot indices and reservoir counters that contradict the sketch's
  shape are refused at load, not at the next ingest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.moments import FrequencyMomentTracker
from repro.core.naivesampling import NaiveSamplingEstimator
from repro.core.samplecount import SampleCountFastQuery, SampleCountSketch
from repro.engine import SketchPayloadError, load_sketch, sketch_class
from repro.streams.reservoir import ReservoirSample

SAMPLER_KINDS = ("samplecount", "samplecount-fast", "moments", "naivesampling")

#: sha256 of ``json.dumps(to_dict(), sort_keys=True)`` for each kind
#: built by :func:`_build`.  A change here breaks every stored snapshot.
PINNED_SHA256 = {
    "samplecount": "192f4e7a695056cd5b3f5adcde6bb5c1618341e28de58312a9afd348f4200ad7",
    "samplecount-fast": "578a8b30f02667347b4ffd418c033c2113429509d28814fcb3bc67dc5f9c87a9",
    "moments": "85fa48cd07d38b24ba1e124a5f2da40b3c48cb2e85bf8a41a0ecdf36cec12f99",
    "naivesampling": "6664a9af9eb6415be0d913a4f6e1974a14136af36548e86de7edef1494798d26",
}


def _stream() -> np.ndarray:
    """A skewed stream from integer arithmetic alone (no generator)."""
    i = np.arange(6000, dtype=np.int64)
    return (i * 2654435761 % 4294967296) % (1 + i % 60)


def _build(kind: str):
    """One sampler of ``kind`` driven through every ingest route."""
    if kind == "naivesampling":
        sketch = NaiveSamplingEstimator(s=40, seed=20260)
    else:
        cls = {
            "samplecount": SampleCountSketch,
            "samplecount-fast": SampleCountFastQuery,
            "moments": FrequencyMomentTracker,
        }[kind]
        sketch = cls(16, 3, seed=20260)
    values = _stream()
    sketch.update_from_stream(values[:4000])
    for v in values[4000:4200].tolist():
        sketch.insert(v)
    # 70000 exceeds the expansion cap, so this also takes the run route.
    sketch.update_from_frequencies([3, 5, 11], [40, 70000, 2])
    if kind != "naivesampling":
        for v in values[:30].tolist():
            sketch.delete(v)
    return sketch


class TestPinnedFormat:
    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_counter_snapshot_bytes_are_pinned(self, kind):
        text = json.dumps(_build(kind).to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[kind]

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_pinned_snapshot_resumes_bit_identically(self, kind):
        live = _build(kind)
        restored = load_sketch(json.loads(json.dumps(live.to_dict())))
        more = _stream()[::-1].copy()
        live.update_from_stream(more)
        restored.update_from_stream(more)
        assert restored.to_dict() == live.to_dict()
        assert restored.estimate() == live.estimate()


class TestPreCounterRefusal:
    PCG64_STATE = np.random.default_rng(5).bit_generator.state

    @staticmethod
    def _payload(kind: str, mutation: str) -> dict:
        """A ``kind`` snapshot rewritten to not use the counter RNG."""
        payload = json.loads(json.dumps(_build(kind).to_dict()))
        # naivesampling keeps its RNG fields in the nested reservoir.
        fields = payload.get("reservoir", payload)
        scheme_key = "scheme" if "reservoir" in payload else "rng_scheme"
        if mutation.startswith("pcg64-state"):
            fields["rng"] = TestPreCounterRefusal.PCG64_STATE
            del fields["seed"]
            if mutation == "pcg64-state-no-scheme":
                del fields[scheme_key]
        else:
            fields[scheme_key] = mutation
        return payload

    @pytest.mark.parametrize(
        "mutation", ["pcg64-state", "pcg64-state-no-scheme", "pcg64", "philox"]
    )
    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_refused_through_registry_and_class(self, kind, mutation):
        payload = self._payload(kind, mutation)
        with pytest.raises(SketchPayloadError, match="rebuild"):
            load_sketch(payload)
        with pytest.raises(SketchPayloadError, match="rebuild"):
            sketch_class(kind).from_dict(payload)


class TestCorruptSampleCount:
    """s1=4, s2=2: slot indices must lie in [0, 8)."""

    @staticmethod
    def _payload() -> dict:
        sketch = SampleCountSketch(4, 2, seed=3, initial_range=8)
        sketch.update_from_stream(np.arange(40, dtype=np.int64) % 5)
        return sketch.to_dict()

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda p: p["head"][0].__setitem__(1, -1), id="head-negative"),
            pytest.param(lambda p: p["head"][0].__setitem__(1, 8), id="head-past-s"),
            pytest.param(lambda p: p["pending"][0][1].append(99), id="pending-slot"),
            pytest.param(
                lambda p: p["pending"][0].__setitem__(0, p["n"]), id="pending-position"
            ),
            pytest.param(lambda p: p["in_sample"].append(8), id="in-sample"),
            pytest.param(lambda p: p["next"].__setitem__(0, 8), id="next-link"),
        ],
    )
    def test_refused_at_load(self, corrupt):
        payload = self._payload()
        corrupt(payload)
        with pytest.raises(SketchPayloadError):
            SampleCountSketch.from_dict(payload)
        with pytest.raises(SketchPayloadError):
            load_sketch(payload)


class TestCorruptReservoir:
    @staticmethod
    def _payload() -> dict:
        reservoir = ReservoirSample(4, seed=7)
        reservoir.extend(range(20))
        return reservoir.to_dict()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("items", list(range(9))),
            ("skip", -5),
            ("offered", 3),
        ],
        ids=["items-over-k", "negative-skip", "offered-below-items"],
    )
    def test_refused_at_load(self, field, value):
        payload = self._payload()
        payload[field] = value
        with pytest.raises(SketchPayloadError):
            ReservoirSample.from_dict(payload)
        estimator = {"kind": "naivesampling", "s": 4, "reservoir": payload}
        with pytest.raises(SketchPayloadError):
            load_sketch(estimator)
