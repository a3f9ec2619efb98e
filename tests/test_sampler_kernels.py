"""Contract suite for the counter-RNG sampler kernels.

The numpy kernels are the bit-identity oracle: every compiled backend
must reproduce them **exactly** (integer state equality, not tolerance
comparison), and every sampler ingest route — per-element inserts,
batched streams at any chunking, histogram folds — must land on the
same integer state because draw *i* at stream position *j* is a pure
function of ``(seed, j, i)``.  This file pins all of those contracts:

* counter primitives: vectorised == scalar, identical across backends;
* ``reservoir_chain`` / ``sampler_segment_counts``: compiled == numpy;
* both sampler kinds: scalar == batched == every loadable backend,
  with batch sizes straddling the event-chunk boundary and int64
  extreme values;
* snapshot -> continue round-trips under every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.naivesampling import NaiveSamplingEstimator
from repro.core.samplecount import SampleCountFastQuery, SampleCountSketch
from repro.streams.reservoir import ReservoirSample

COMPILED = [b for b in kernels.available_backends() if b != "numpy"]
BACKENDS = kernels.available_backends()

I64 = np.iinfo(np.int64)


@pytest.fixture
def restore_backend():
    """Snapshot and restore the process-global backend selection."""
    prior = kernels.active_backend()
    try:
        yield
    finally:
        kernels.set_backend(prior)


def _stream(size: int, seed: int = 123) -> np.ndarray:
    """A skewed stream salted with int64 extremes and zero."""
    rng = np.random.default_rng(seed)
    values = (rng.zipf(1.3, size=size) % 500).astype(np.int64)
    if size >= 4:
        values[0] = I64.min
        values[1] = I64.max
        values[2] = 0
        values[size // 2] = I64.max
    return values


SAMPLERS = [
    pytest.param(
        lambda seed: SampleCountSketch(s1=16, s2=2, seed=seed),
        id="samplecount",
    ),
    pytest.param(
        lambda seed: SampleCountFastQuery(s1=16, s2=2, seed=seed),
        id="samplecount-fast",
    ),
    pytest.param(
        lambda seed: NaiveSamplingEstimator(s=24, seed=seed),
        id="naivesampling",
    ),
]


# ----------------------------------------------------------------------
# Counter-RNG primitives
# ----------------------------------------------------------------------
class TestCounterPrimitives:
    def test_key_derivation_deterministic_and_spread(self):
        keys = [kernels.counter_key(seed) for seed in range(64)]
        assert keys == [kernels.counter_key(seed) for seed in range(64)]
        assert len(set(keys)) == 64
        assert all(0 <= k < 2**64 for k in keys)

    def test_vectorised_u64_matches_scalar(self):
        key = kernels.counter_key(7)
        rng = np.random.default_rng(0)
        pos = rng.integers(0, 2**62, size=257, dtype=np.int64)
        drw = rng.integers(0, 2**20, size=257, dtype=np.int64)
        vec = kernels.counter_u64(key, pos, drw)
        ref = [
            kernels.counter_u64_one(key, int(j), int(i))
            for j, i in zip(pos, drw)
        ]
        assert vec.dtype == np.uint64
        assert vec.tolist() == ref

    def test_vectorised_u01_matches_scalar_bitwise(self):
        key = kernels.counter_key(11)
        pos = np.arange(1, 300, dtype=np.int64)
        drw = np.zeros(pos.size, dtype=np.int64)
        vec = kernels.counter_u01(key, pos, drw)
        ref = np.array(
            [kernels.counter_u01_one(key, int(j), 0) for j in pos]
        )
        # Bit-for-bit float equality, not approximate.
        assert vec.view(np.uint64).tolist() == ref.view(np.uint64).tolist()

    def test_u01_lands_in_half_open_unit_interval(self):
        key = kernels.counter_key(3)
        pos = np.arange(10_000, dtype=np.int64)
        u = kernels.counter_u01(key, pos, np.zeros(pos.size, dtype=np.int64))
        assert float(u.min()) > 0.0
        assert float(u.max()) <= 1.0

    def test_draws_are_position_pure(self):
        """Draw i at position j never depends on evaluation order."""
        key = kernels.counter_key(5)
        forward = [kernels.counter_u64_one(key, j, j % 3) for j in range(50)]
        backward = [
            kernels.counter_u64_one(key, j, j % 3)
            for j in reversed(range(50))
        ]
        assert forward == backward[::-1]

    @pytest.mark.parametrize("backend", COMPILED)
    def test_bit_identity_across_backends(self, restore_backend, backend):
        key = kernels.counter_key(29)
        rng = np.random.default_rng(1)
        pos = rng.integers(0, 2**62, size=1025, dtype=np.int64)
        drw = rng.integers(0, 2**31, size=1025, dtype=np.int64)

        kernels.set_backend("numpy")
        u64_ref = kernels.counter_u64(key, pos, drw)
        u01_ref = kernels.counter_u01(key, pos, drw)

        kernels.set_backend(backend)
        assert (kernels.counter_u64(key, pos, drw) == u64_ref).all()
        u01 = kernels.counter_u01(key, pos, drw)
        assert (u01.view(np.uint64) == u01_ref.view(np.uint64)).all()


# ----------------------------------------------------------------------
# reservoir_chain kernel
# ----------------------------------------------------------------------
class TestReservoirChain:
    CASES = [
        (4, 4, 0, 1),
        (16, 16, 0, 5000),
        (16, 1000, 3, 5000),
        (128, 128, 0, 20_000),
        (1, 1, 0, 300),
    ]

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("k,offered,skip,m", CASES)
    def test_bit_identity_across_backends(
        self, restore_backend, backend, k, offered, skip, m
    ):
        key = kernels.counter_key(41)

        kernels.set_backend("numpy")
        acc_ref, slot_ref, skip_ref = kernels.reservoir_chain(
            key, k, offered, skip, m
        )

        kernels.set_backend(backend)
        acc, slot, skip_out = kernels.reservoir_chain(key, k, offered, skip, m)
        assert acc.tolist() == acc_ref.tolist()
        assert slot.tolist() == slot_ref.tolist()
        assert skip_out == skip_ref

    def test_split_batches_continue_the_chain(self):
        """One m-offer call == two calls split anywhere in the middle."""
        key = kernels.counter_key(43)
        k, offered, m = 32, 32, 8000
        acc_all, slot_all, skip_all = kernels.reservoir_chain(
            key, k, offered, 0, m
        )
        for cut in (1, 257, 4096, m - 1):
            a1, s1, sk1 = kernels.reservoir_chain(key, k, offered, 0, cut)
            a2, s2, sk2 = kernels.reservoir_chain(
                key, k, offered + cut, sk1, m - cut
            )
            merged_acc = a1.tolist() + (a2 + cut).tolist()
            merged_slot = s1.tolist() + s2.tolist()
            assert merged_acc == acc_all.tolist()
            assert merged_slot == slot_all.tolist()
            assert sk2 == skip_all

    def test_slots_in_range(self):
        key = kernels.counter_key(47)
        _, slots, _ = kernels.reservoir_chain(key, 7, 7, 0, 10_000)
        assert slots.size > 0
        assert int(slots.min()) >= 0
        assert int(slots.max()) < 7


# ----------------------------------------------------------------------
# sampler_segment_counts kernel
# ----------------------------------------------------------------------
def _brute_segment_counts(values, keys, starts, ends):
    out = np.zeros((len(starts), len(keys)), dtype=np.int64)
    index = {int(v): c for c, v in enumerate(keys.tolist())}
    for s, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        for v in values[lo:hi].tolist():
            c = index.get(int(v))
            if c is not None:
                out[s, c] += 1
    return out


class TestSegmentCounts:
    def _case(self, seed: int, disjoint: bool):
        rng = np.random.default_rng(seed)
        values = rng.integers(-50, 50, size=2000, dtype=np.int64)
        values[0] = I64.min
        values[-1] = I64.max
        keys = np.unique(
            np.concatenate(
                [
                    rng.choice(values, size=17),
                    np.array([I64.min, I64.max, 0], dtype=np.int64),
                ]
            )
        )
        if disjoint:
            cuts = np.sort(rng.choice(2001, size=12, replace=False))
            starts = cuts[:-1:2].astype(np.int64)
            ends = cuts[1::2].astype(np.int64)
        else:
            starts = rng.integers(0, 1500, size=6, dtype=np.int64)
            ends = starts + rng.integers(0, 500, size=6).astype(np.int64)
        return values, keys, starts, ends

    @pytest.mark.parametrize("disjoint", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce(self, seed, disjoint):
        values, keys, starts, ends = self._case(seed, disjoint)
        got = kernels.sampler_segment_counts(values, keys, starts, ends)
        assert got.tolist() == _brute_segment_counts(
            values, keys, starts, ends
        ).tolist()

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("disjoint", [True, False])
    def test_bit_identity_across_backends(
        self, restore_backend, backend, disjoint
    ):
        values, keys, starts, ends = self._case(9, disjoint)

        kernels.set_backend("numpy")
        ref = kernels.sampler_segment_counts(values, keys, starts, ends)

        kernels.set_backend(backend)
        got = kernels.sampler_segment_counts(values, keys, starts, ends)
        assert got.tolist() == ref.tolist()

    def test_empty_inputs(self):
        empty_i64 = np.empty(0, dtype=np.int64)
        out = kernels.sampler_segment_counts(
            empty_i64, empty_i64, empty_i64, empty_i64
        )
        assert out.shape == (0, 0)


# ----------------------------------------------------------------------
# Sampler ingest-route equivalence (scalar == batched == backends)
# ----------------------------------------------------------------------
class TestSamplerRouteEquivalence:
    @pytest.mark.parametrize("build", SAMPLERS)
    def test_scalar_matches_batched(self, build):
        values = _stream(2000)
        a = build(17)
        for v in values.tolist():
            a.insert(v)
        b = build(17)
        b.update_from_stream(values)
        assert a.to_dict() == b.to_dict()
        assert a.estimate() == b.estimate()

    @pytest.mark.parametrize("chunk", [1, 7, 255, 256, 257, 1999])
    @pytest.mark.parametrize("build", SAMPLERS)
    def test_chunked_batches_match_single(self, build, chunk):
        """Any chunking lands on the same state (event-chunk boundary
        sizes 255/256/257 straddle the walker's internal chunk)."""
        values = _stream(2000, seed=5)
        a = build(23)
        a.update_from_stream(values)
        b = build(23)
        for lo in range(0, values.size, chunk):
            b.update_from_stream(values[lo : lo + chunk])
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("build", SAMPLERS)
    def test_backends_bit_identical(self, restore_backend, build, backend):
        values = _stream(3000, seed=7)

        kernels.set_backend("numpy")
        a = build(31)
        a.update_from_stream(values)

        kernels.set_backend(backend)
        b = build(31)
        b.update_from_stream(values)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("build", SAMPLERS)
    def test_frequencies_match_expanded_stream(self, build):
        rng = np.random.default_rng(13)
        vals = np.unique(rng.integers(0, 40, size=60, dtype=np.int64))
        cnts = rng.integers(1, 90, size=vals.size, dtype=np.int64)
        cnts[0] = 200  # exercises the huge-count repeat path below

        a = build(37)
        a._EXPAND_MAX = 128  # force the arithmetic-repeat route for cnts[0]
        a.update_from_frequencies(vals, cnts)

        b = build(37)
        b.update_from_stream(np.repeat(vals, cnts))
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("build", SAMPLERS)
    def test_seed_changes_state(self, build):
        values = _stream(1200, seed=3)
        a = build(1)
        b = build(2)
        a.update_from_stream(values)
        b.update_from_stream(values)
        assert a.to_dict() != b.to_dict()


# ----------------------------------------------------------------------
# Snapshot round-trips
# ----------------------------------------------------------------------
class TestSnapshotRoundTrips:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("build", SAMPLERS)
    def test_roundtrip_then_continue(self, restore_backend, build, backend):
        kernels.set_backend(backend)
        first, second = _stream(1500, seed=19), _stream(1500, seed=20)

        live = build(53)
        live.update_from_stream(first)
        revived = type(live).from_dict(live.to_dict())
        assert revived.to_dict() == live.to_dict()

        live.update_from_stream(second)
        revived.update_from_stream(second)
        assert revived.to_dict() == live.to_dict()
        assert revived.estimate() == live.estimate()

    @pytest.mark.parametrize("build", SAMPLERS)
    def test_counter_snapshot_carries_scheme_and_seed(self, build):
        live = build(61)
        live.update_from_stream(_stream(400, seed=2))
        payload = live.to_dict()
        inner = payload.get("reservoir", payload)
        scheme_key = "scheme" if "reservoir" in payload else "rng_scheme"
        assert inner[scheme_key] == "counter"
        assert "seed" in inner
        assert "rng" not in inner


# ----------------------------------------------------------------------
# Reservoir primitive (shared by naivesampling)
# ----------------------------------------------------------------------
class TestReservoirOfferArray:
    def test_offer_array_matches_scalar_offers(self):
        values = _stream(4000, seed=29)
        a = ReservoirSample(32, seed=71)
        for v in values.tolist():
            a.offer(v)
        b = ReservoirSample(32, seed=71)
        b.offer_array(values)
        assert a.to_dict() == b.to_dict()

    def test_offer_repeated_matches_expansion(self):
        a = ReservoirSample(16, seed=73)
        a.offer_repeated(9, 3000)
        b = ReservoirSample(16, seed=73)
        b.offer_array(np.full(3000, 9, dtype=np.int64))
        assert a.to_dict() == b.to_dict()
