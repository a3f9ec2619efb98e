"""Unit tests for the k-wise independent hash families."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro import kernels
from repro.cli import main
from repro.core import hashing
from repro.core.distinct import DistinctCountSketch
from repro.core.fkmoments import FkMomentSketch
from repro.core.hashing import (
    MERSENNE_PRIME_31,
    PolynomialHashFamily,
    SignHashFamily,
)
from repro.core.tugofwar import TugOfWarSketch
from repro.engine import SketchPayloadError, load_sketch
from repro.service import SketchService
from repro.service.surface import handle_request_mapping
from repro.store import KeyedSketchStore, SketchSpec, WindowedSketchStore


class TestPolynomialHashFamily:
    def test_shape_of_hash_one(self):
        fam = PolynomialHashFamily(count=7, seed=0)
        out = fam.hash_one(42)
        assert out.shape == (7,)

    def test_shape_of_hash_many(self):
        fam = PolynomialHashFamily(count=5, seed=0)
        out = fam.hash_many(np.arange(11))
        assert out.shape == (5, 11)

    def test_values_in_field(self):
        fam = PolynomialHashFamily(count=64, seed=3)
        out = fam.hash_many(np.arange(1000))
        assert int(out.max()) < MERSENNE_PRIME_31

    def test_deterministic_given_seed(self):
        a = PolynomialHashFamily(count=8, seed=99)
        b = PolynomialHashFamily(count=8, seed=99)
        assert np.array_equal(a.hash_many(np.arange(50)), b.hash_many(np.arange(50)))

    def test_different_seeds_differ(self):
        a = PolynomialHashFamily(count=8, seed=1)
        b = PolynomialHashFamily(count=8, seed=2)
        assert not np.array_equal(a.hash_many(np.arange(50)), b.hash_many(np.arange(50)))

    def test_hash_many_matches_hash_one(self):
        fam = PolynomialHashFamily(count=6, seed=5)
        values = np.array([0, 1, 17, 12345, 2**30])
        many = fam.hash_many(values)
        for j, v in enumerate(values):
            assert np.array_equal(many[:, j], fam.hash_one(int(v)))

    def test_default_independence_is_four(self):
        assert PolynomialHashFamily(count=1).independence == 4

    def test_degree_one_family(self):
        fam = PolynomialHashFamily(count=3, independence=1, seed=0)
        # Degree-0 polynomials are constants: same value everywhere.
        out = fam.hash_many(np.arange(10))
        assert np.all(out == out[:, :1])

    def test_rejects_value_outside_field(self):
        fam = PolynomialHashFamily(count=2, seed=0)
        with pytest.raises(ValueError, match="outside"):
            fam.hash_one(MERSENNE_PRIME_31)

    def test_rejects_array_outside_field(self):
        fam = PolynomialHashFamily(count=2, seed=0)
        with pytest.raises(ValueError, match="outside"):
            fam.hash_many(np.array([1, MERSENNE_PRIME_31 + 5], dtype=np.uint64))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            PolynomialHashFamily(count=0)

    def test_rejects_bad_independence(self):
        with pytest.raises(ValueError, match="independence"):
            PolynomialHashFamily(count=1, independence=0)

    def test_rejects_2d_input(self):
        fam = PolynomialHashFamily(count=2, seed=0)
        with pytest.raises(ValueError, match="one-dimensional"):
            fam.hash_many(np.zeros((2, 2), dtype=np.uint64))

    def test_empty_input(self):
        fam = PolynomialHashFamily(count=4, seed=0)
        out = fam.hash_many(np.array([], dtype=np.uint64))
        assert out.shape == (4, 0)

    def test_roundtrip_serialisation(self):
        fam = PolynomialHashFamily(count=5, seed=7)
        clone = PolynomialHashFamily.from_dict(
            fam.to_dict(), count=5, independence=(4,))
        assert clone == fam
        assert np.array_equal(clone.hash_many(np.arange(20)), fam.hash_many(np.arange(20)))

    def test_from_dict_validates_shape(self):
        payload = PolynomialHashFamily(count=2, seed=0).to_dict()
        payload["count"] = 3
        # The caller's expected shape is checked first; where it allows
        # 3 rows, the 3-row draw of seed 0 does not match the 2-row digest.
        with pytest.raises(SketchPayloadError, match="3 functions, expected 2"):
            PolynomialHashFamily.from_dict(payload, count=2, independence=(4,))
        with pytest.raises(SketchPayloadError, match="digest"):
            PolynomialHashFamily.from_dict(payload, count=3, independence=(4,))

    def test_coefficients_read_only(self):
        fam = PolynomialHashFamily(count=2, seed=0)
        with pytest.raises(ValueError):
            fam.coefficients[0, 0] = 0

    def test_equality_against_other_type(self):
        assert PolynomialHashFamily(count=1, seed=0) != "not a family"

    def test_uniformity_rough(self):
        # One function evaluated at many points should fill the field
        # roughly uniformly: check mean is near p/2.
        fam = PolynomialHashFamily(count=1, seed=11)
        out = fam.hash_many(np.arange(200_000)).astype(np.float64)
        assert abs(out.mean() / MERSENNE_PRIME_31 - 0.5) < 0.01

    def test_pairwise_collision_rate(self):
        # Distinct inputs collide with probability ~1/p under a random
        # polynomial; with 2000 inputs expect essentially zero collisions.
        fam = PolynomialHashFamily(count=1, seed=13)
        out = fam.hash_many(np.arange(2000))[0]
        assert np.unique(out).size >= 1999


class TestSignHashFamily:
    def test_signs_are_plus_minus_one(self):
        fam = SignHashFamily(count=16, seed=0)
        signs = fam.signs_many(np.arange(500))
        assert set(np.unique(signs).tolist()) <= {-1, 1}

    def test_signs_one_matches_many(self):
        fam = SignHashFamily(count=9, seed=4)
        many = fam.signs_many(np.arange(30))
        for v in range(30):
            assert np.array_equal(many[:, v], fam.signs_one(v))

    def test_deterministic_given_seed(self):
        a = SignHashFamily(count=8, seed=21)
        b = SignHashFamily(count=8, seed=21)
        assert np.array_equal(a.signs_many(np.arange(100)), b.signs_many(np.arange(100)))

    def test_balance(self):
        # E[eps(v)] = 0: the empirical mean over many values is small.
        fam = SignHashFamily(count=1, seed=2)
        signs = fam.signs_many(np.arange(100_000)).astype(np.float64)
        assert abs(signs.mean()) < 0.02

    def test_pairwise_decorrelation(self):
        # E[eps(u) eps(v)] = 0 for u != v: check the empirical
        # correlation of sign vectors at shifted inputs.
        fam = SignHashFamily(count=1, seed=8)
        signs = fam.signs_many(np.arange(100_000)).astype(np.float64)[0]
        corr = float(np.mean(signs[:-1] * signs[1:]))
        assert abs(corr) < 0.02

    def test_fourwise_product_mean(self):
        # E[eps(a)eps(b)eps(c)eps(d)] = 0 for distinct a,b,c,d: average
        # the 4-product over many functions at fixed distinct points.
        fam = SignHashFamily(count=20_000, seed=5)
        pts = fam.signs_many(np.array([3, 11, 27, 64])).astype(np.float64)
        prod = pts[:, 0] * pts[:, 1] * pts[:, 2] * pts[:, 3]
        assert abs(prod.mean()) < 0.03

    def test_roundtrip_serialisation(self):
        fam = SignHashFamily(count=6, seed=9)
        clone = SignHashFamily.from_dict(fam.to_dict(), count=6, independence=(4,))
        assert clone == fam
        assert np.array_equal(clone.signs_many(np.arange(40)), fam.signs_many(np.arange(40)))

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="payload"):
            SignHashFamily.from_dict({"kind": "other"}, count=1, independence=(4,))

    def test_count_property(self):
        assert SignHashFamily(count=12, seed=0).count == 12

    def test_independence_property(self):
        assert SignHashFamily(count=1, seed=0, independence=2).independence == 2

    def test_equality_against_other_type(self):
        assert SignHashFamily(count=1, seed=0) != 42


def _matrix(sketch: TugOfWarSketch) -> np.ndarray:
    """The coefficient matrix behind a tug-of-war sketch's read-only
    ``coefficients`` view."""
    return sketch._signs.coefficients.base


class TestSharedFamily:
    """Every sketch drawn from one seed hashes with one read-only matrix."""

    SPEC = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1414})

    def test_builds_share_one_read_only_matrix(self):
        a, b = self.SPEC.build(), self.SPEC.build()
        assert _matrix(a) is _matrix(b)
        assert not _matrix(a).flags.writeable
        with pytest.raises(ValueError):
            _matrix(a)[0, 0] = 0

    def test_from_dict_of_matching_payload_reuses_matrix(self):
        built = self.SPEC.build()
        built.update_from_stream(np.arange(100))
        loaded = load_sketch(built.to_dict())
        assert _matrix(loaded) is _matrix(built)
        np.testing.assert_array_equal(loaded.counters, built.counters)

    def test_changed_seed_is_another_family(self):
        built = self.SPEC.build()
        other = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1415}).build()
        payload = built.to_dict()
        payload["signs"] = other.to_dict()["signs"]
        loaded = load_sketch(payload)
        assert _matrix(loaded) is _matrix(other)
        assert _matrix(loaded) is not _matrix(built)
        assert loaded.to_dict()["signs"] == payload["signs"]
        assert loaded._signs != built._signs
        with pytest.raises(ValueError, match="different hash families"):
            built.merge(loaded)

    def test_changed_digest_refused(self):
        payload = self.SPEC.build().to_dict()
        payload["signs"]["family"]["digest"] += 1
        with pytest.raises(SketchPayloadError, match="digest"):
            load_sketch(payload)

    def test_unseeded_families_differ(self):
        a, b = PolynomialHashFamily(count=8), PolynomialHashFamily(count=8)
        assert a != b
        assert a.coefficients.base is not b.coefficients.base

    def test_equality_is_by_seed_triple(self):
        # An unseeded family draws its own matrix outside the cache; the
        # same seed given explicitly loads the shared one.
        own = PolynomialHashFamily(count=4)
        shared = PolynomialHashFamily(count=4, seed=own.seed)
        assert own.coefficients.base is not shared.coefficients.base
        assert own == shared
        other_seed = (own.seed + 1) % 2**63
        assert PolynomialHashFamily(count=4, seed=other_seed) != own
        assert PolynomialHashFamily(count=5, seed=own.seed) != own
        assert PolynomialHashFamily(
            count=4, independence=2, seed=own.seed) != own

    def test_numpy_integer_seed_shares_the_int_draw(self):
        a = PolynomialHashFamily(count=4, seed=21)
        b = PolynomialHashFamily(count=4, seed=np.int64(21))
        assert a.coefficients.base is b.coefficients.base

    def test_cache_is_bounded(self):
        for seed in range(2 * hashing._SHARED_FAMILIES):
            PolynomialHashFamily(count=1, seed=10_000 + seed)
        info = hashing._shared_family.cache_info()
        assert info.maxsize == hashing._SHARED_FAMILIES
        assert info.currsize <= info.maxsize

    def test_concurrent_builds_get_their_seeds_draw(self):
        # More seeds than the cache holds, walked by more threads than
        # cores, so hits, misses and evictions interleave.
        seeds = range(20_000, 20_000 + 2 * hashing._SHARED_FAMILIES)
        want = {
            seed: np.random.default_rng(seed).integers(
                0, MERSENNE_PRIME_31, size=(3, 4), dtype=np.uint64)
            for seed in seeds
        }
        wrong: list[int] = []

        def build(offset: int) -> None:
            for i in range(3 * len(seeds)):
                seed = seeds[(offset + i) % len(seeds)]
                family = PolynomialHashFamily(count=3, seed=seed)
                if not np.array_equal(family.coefficients, want[seed]):
                    wrong.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(17 * i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


#: One sketch of each kind that hashes with a family, and the path to
#: that family in its payload.
FAMILY_KINDS = pytest.mark.parametrize("sketch, field", [
    (TugOfWarSketch(8, 2, seed=5), ("signs", "family")),
    (FkMomentSketch(k=3, s1=8, s2=2, seed=5), ("digits",)),
    (DistinctCountSketch(8, 2, seed=5), ("buckets",)),
], ids=["tugofwar", "fk_moments", "f0"])


class TestCorruptHashPayloads:
    """A family payload is its seed triple plus a digest.  A corrupt
    field or a shape the counters cannot use is refused with the typed
    payload error, never loaded or leaked as a bare ``OverflowError``."""

    @pytest.mark.parametrize("seed", [-1, True, 2.5, 2**63, "5", None])
    def test_corrupt_seed_refused(self, seed):
        payload = TugOfWarSketch(8, 2, seed=5).to_dict()
        payload["signs"]["family"]["seed"] = seed
        with pytest.raises(SketchPayloadError, match="'seed' must be"):
            load_sketch(payload)

    @pytest.mark.parametrize("field", ["count", "independence", "digest"])
    @pytest.mark.parametrize("value", [True, 2.5, 2**63, None])
    def test_corrupt_integer_field_refused(self, field, value):
        payload = PolynomialHashFamily(count=2, seed=0).to_dict()
        payload[field] = value
        with pytest.raises(SketchPayloadError, match=f"'{field}' must be"):
            PolynomialHashFamily.from_dict(payload, count=2, independence=(4,))

    @FAMILY_KINDS
    def test_non_mapping_family_refused(self, sketch, field):
        # Each mapping on the path to the family, replaced by a list.
        for depth in range(len(field)):
            payload = sketch.to_dict()
            _family_payload(payload, field[:depth])[field[depth]] = [1, 2]
            with pytest.raises(SketchPayloadError):
                load_sketch(payload)

    @FAMILY_KINDS
    def test_count_mismatch_refused(self, sketch, field):
        payload = sketch.to_dict()
        family = _family_payload(payload, field)
        # A family of another row count, with that family's own digest.
        family.update(PolynomialHashFamily(
            family["count"] + 1, family["independence"], seed=5).to_dict())
        with pytest.raises(SketchPayloadError, match="functions, expected"):
            load_sketch(payload)

    @pytest.mark.parametrize("sketch, field, independence", [
        (TugOfWarSketch(8, 2, seed=5), ("signs", "family"), 5),
        (FkMomentSketch(k=3, s1=8, s2=2, seed=5), ("digits",), 3),
        (FkMomentSketch(k=6, s1=8, s2=2, seed=5), ("digits",), 4),
        (DistinctCountSketch(8, 2, seed=5), ("buckets",), 2),
    ], ids=["tugofwar-5", "fk3-3", "fk6-4", "f0-2"])
    def test_independence_mismatch_refused(self, sketch, field, independence):
        payload = sketch.to_dict()
        family = _family_payload(payload, field)
        family.update(PolynomialHashFamily(
            family["count"], independence, seed=5).to_dict())
        with pytest.raises(SketchPayloadError, match="independence"):
            load_sketch(payload)

    def test_two_wise_tugofwar_accepted(self):
        sketch = TugOfWarSketch(8, 2, seed=5, independence=2)
        assert load_sketch(sketch.to_dict())._signs == sketch._signs

    def test_digest_off_by_one_refused(self):
        payload = PolynomialHashFamily(count=2, seed=0).to_dict()
        payload["digest"] -= 1
        with pytest.raises(SketchPayloadError, match="does not match"):
            PolynomialHashFamily.from_dict(payload, count=2, independence=(4,))

    def test_largest_seed_accepted(self):
        family = PolynomialHashFamily(count=2, seed=2**63 - 1)
        clone = PolynomialHashFamily.from_dict(
            family.to_dict(), count=2, independence=(4,))
        assert clone.seed == 2**63 - 1
        np.testing.assert_array_equal(clone.coefficients, family.coefficients)

    @FAMILY_KINDS
    def test_shape_checked_before_the_draw(self, sketch, field, monkeypatch):
        # A few bytes of seed payload must not request a 10^12-row matrix.
        payload = sketch.to_dict()
        _family_payload(payload, field)["count"] = 10**12

        def draw(*args):
            pytest.fail(f"family drawn before its shape was checked: {args}")

        monkeypatch.setattr(hashing, "_shared_family", draw)
        with pytest.raises(SketchPayloadError, match="expected"):
            load_sketch(payload)

    @pytest.mark.parametrize("cls", [PolynomialHashFamily, SignHashFamily])
    def test_family_bounds_are_required(self, cls, monkeypatch):
        # The caller must say what its counters can use: there is no
        # unbounded form that would draw whatever a payload names.
        payload = {"count": 10**12, "independence": 4, "seed": 0, "digest": 0}
        if cls is SignHashFamily:
            payload = {"kind": "sign", "family": payload}

        def draw(*args):
            pytest.fail(f"family drawn before its shape was checked: {args}")

        monkeypatch.setattr(hashing, "_shared_family", draw)
        with pytest.raises(TypeError):
            cls.from_dict(payload)
        with pytest.raises(TypeError):
            cls.from_dict(payload, count=8)
        with pytest.raises(SketchPayloadError, match="functions, expected 8"):
            cls.from_dict(payload, count=8, independence=(4,))

    @pytest.mark.parametrize("counter", [2**63, -(2**63) - 1])
    def test_counter_beyond_int64_refused(self, counter):
        payload = TugOfWarSketch(8, 2, seed=5).to_dict()
        payload["z"][0] = counter
        with pytest.raises(SketchPayloadError):
            load_sketch(payload)


def _family_payload(payload: dict, path: tuple) -> dict:
    """The nested family mapping of a sketch payload."""
    for name in path:
        payload = payload[name]
    return payload


class TestSeedNamedPayload:
    """A family is named in a payload by ``(count, independence, seed)``
    and the digest of the matrix that triple draws."""

    @FAMILY_KINDS
    def test_payload_names_family_by_seed(self, sketch, field):
        payload = sketch.to_dict()
        family = _family_payload(payload, field)
        assert sorted(family) == ["count", "digest", "independence", "seed"]
        assert "coefficients" not in json.dumps(payload)
        assert load_sketch(payload).to_dict() == payload

    def test_unseeded_family_records_its_seed(self):
        family = PolynomialHashFamily(count=3)
        assert type(family.seed) is int and 0 <= family.seed < 2**63
        clone = PolynomialHashFamily.from_dict(
            family.to_dict(), count=3, independence=(4,))
        assert clone == family
        np.testing.assert_array_equal(clone.coefficients, family.coefficients)

    @pytest.mark.parametrize("seed", [-1, True, 2**63, 2.5, "5"])
    def test_constructor_refuses_seed_a_payload_cannot_name(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            PolynomialHashFamily(count=2, seed=seed)

    def test_digest_computed_once_per_cached_family(self, monkeypatch):
        first = PolynomialHashFamily(count=5, seed=31_337)

        def rehash(*args, **kwargs):
            pytest.fail("digest recomputed for a cached family")

        monkeypatch.setattr(hashing.hashlib, "blake2b", rehash)
        again = PolynomialHashFamily(count=5, seed=31_337)
        loaded = PolynomialHashFamily.from_dict(
            first.to_dict(), count=5, independence=(4,))
        assert again.to_dict() == loaded.to_dict() == first.to_dict()

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_oversized_family_refused_on_every_backend(self, backend):
        # A 320-row family over 8 counters once loaded, and a scalar
        # insert on it wrote past the counter buffer under cffi.
        prior = kernels.active_backend()
        kernels.set_backend(backend)
        try:
            payload = TugOfWarSketch(8, 1, seed=5).to_dict()
            payload["signs"] = TugOfWarSketch(64, 5, seed=5).to_dict()["signs"]
            with pytest.raises(SketchPayloadError, match="320 functions"):
                load_sketch(payload)
            payload = FkMomentSketch(k=3, s1=8, s2=1, seed=5).to_dict()
            payload["digits"] = FkMomentSketch(
                k=3, s1=64, s2=5, seed=5).to_dict()["digits"]
            with pytest.raises(SketchPayloadError, match="320 functions"):
                load_sketch(payload)
        finally:
            kernels.set_backend(prior)


def _pre_seed_format(payload):
    """``payload`` as written before families were named by seed: every
    family mapping carries its coefficient matrix instead of a digest."""
    if isinstance(payload, list):
        return [_pre_seed_format(item) for item in payload]
    if not isinstance(payload, dict):
        return payload
    if "digest" in payload:
        family = PolynomialHashFamily(
            payload["count"], payload["independence"], seed=payload["seed"])
        return {"count": family.count, "independence": family.independence,
                "seed": family.seed,
                "coefficients": family.coefficients.tolist()}
    return {key: _pre_seed_format(value) for key, value in payload.items()}


class TestPreSeedPayloadRefusal:
    """Payloads written before families were named by seed carry the
    whole coefficient matrix.  They get a typed refusal on every load
    path, with no migration."""

    SPEC = SketchSpec("tugofwar", {"s1": 16, "s2": 3, "seed": 1414})

    def _store(self) -> WindowedSketchStore:
        store = WindowedSketchStore(self.SPEC, bucket_width=10)
        store.ingest(np.arange(40) % 30, np.arange(40))
        return store

    @FAMILY_KINDS
    def test_load_sketch(self, sketch, field):
        with pytest.raises(SketchPayloadError, match="rebuild the sketch"):
            load_sketch(_pre_seed_format(sketch.to_dict()))

    def test_windowed_store_from_dict(self):
        legacy = _pre_seed_format(self._store().to_dict())
        with pytest.raises(SketchPayloadError, match="rebuild the sketch"):
            WindowedSketchStore.from_dict(legacy)

    def test_keyed_store_from_dict(self):
        fleet = KeyedSketchStore(self.SPEC, bucket_width=10)
        fleet.ingest("a", [1, 12], [3, 4])
        legacy = _pre_seed_format(fleet.to_dict())
        with pytest.raises(SketchPayloadError, match="rebuild the sketch"):
            KeyedSketchStore.from_dict(legacy)

    def test_service_restore_op(self):
        service = SketchService(WindowedSketchStore(self.SPEC, bucket_width=10))
        legacy = _pre_seed_format(self._store().to_dict())
        response = handle_request_mapping(
            service, {"op": "restore", "snapshot": legacy})
        assert response["ok"] is False
        assert "rebuild the sketch" in response["error"]
        assert service.info()["spans"] == []

    def test_sketch_info_cli(self, tmp_path, capsys):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(_pre_seed_format(
            TugOfWarSketch(8, 2, seed=5).to_dict())))
        assert main(["sketch", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "rebuild the sketch" in err and "Traceback" not in err
