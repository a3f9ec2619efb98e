"""Unit tests for the k-wise independent hash families."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

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
from repro.store import SketchSpec


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
        clone = PolynomialHashFamily.from_dict(fam.to_dict())
        assert clone == fam
        assert np.array_equal(clone.hash_many(np.arange(20)), fam.hash_many(np.arange(20)))

    def test_from_dict_validates_shape(self):
        payload = PolynomialHashFamily(count=2, seed=0).to_dict()
        payload["count"] = 3
        with pytest.raises(ValueError, match="shape"):
            PolynomialHashFamily.from_dict(payload)

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
        clone = SignHashFamily.from_dict(fam.to_dict())
        assert clone == fam
        assert np.array_equal(clone.signs_many(np.arange(40)), fam.signs_many(np.arange(40)))

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="payload"):
            SignHashFamily.from_dict({"kind": "other"})

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

    def test_changed_coefficient_keeps_own_matrix(self):
        built = self.SPEC.build()
        payload = built.to_dict()
        row = payload["signs"]["family"]["coefficients"][0]
        row[0] = (row[0] + 1) % MERSENNE_PRIME_31
        loaded = load_sketch(payload)
        assert _matrix(loaded) is not _matrix(built)
        assert not _matrix(loaded).flags.writeable
        assert loaded.to_dict()["signs"] == payload["signs"]
        assert loaded._signs != built._signs
        with pytest.raises(ValueError, match="different hash families"):
            built.merge(loaded)

    def test_unseeded_families_differ(self):
        a, b = PolynomialHashFamily(count=8), PolynomialHashFamily(count=8)
        assert a != b
        assert a.coefficients.base is not b.coefficients.base

    def test_equality_short_circuits_on_shared_matrix(self, monkeypatch):
        a = PolynomialHashFamily(count=4, seed=3)
        b = PolynomialHashFamily(count=4, seed=3)

        def elementwise(*args):
            pytest.fail("families sharing one matrix compared elementwise")

        monkeypatch.setattr(hashing.np, "array_equal", elementwise)
        assert a == b

    def test_numpy_integer_seed_shares_the_int_draw(self):
        a = PolynomialHashFamily(count=4, seed=21)
        b = PolynomialHashFamily(count=4, seed=np.int64(21))
        assert a.coefficients.base is b.coefficients.base

    def test_cache_is_bounded(self):
        for seed in range(2 * hashing._SHARED_FAMILIES):
            PolynomialHashFamily(count=1, seed=10_000 + seed)
        info = hashing._shared_coefficients.cache_info()
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


class TestCorruptHashPayloads:
    """Out-of-field coefficients and out-of-range counters are refused
    with the typed payload error, never loaded or leaked as a bare
    ``OverflowError``."""

    @pytest.mark.parametrize("coefficient", [
        2**40, MERSENNE_PRIME_31, -1, 2**63, 2**64,
    ])
    def test_out_of_field_coefficient_refused(self, coefficient):
        payload = TugOfWarSketch(8, 2, seed=5).to_dict()
        payload["signs"]["family"]["coefficients"][0][0] = coefficient
        with pytest.raises(SketchPayloadError):
            load_sketch(payload)

    @pytest.mark.parametrize("sketch, field", [
        (FkMomentSketch(k=3, s1=8, s2=2, seed=5), "digits"),
        (DistinctCountSketch(8, 2, seed=5), "buckets"),
    ])
    def test_other_kinds_refuse_out_of_field_coefficients(self, sketch, field):
        payload = sketch.to_dict()
        payload[field]["coefficients"][-1][-1] = 2**40
        with pytest.raises(SketchPayloadError, match="coefficients must lie"):
            load_sketch(payload)

    def test_from_dict_refuses_with_value_error(self):
        payload = PolynomialHashFamily(count=2, seed=0).to_dict()
        payload["coefficients"][1][3] = 2**40
        with pytest.raises(ValueError, match="coefficients must lie in"):
            PolynomialHashFamily.from_dict(payload)

    def test_largest_field_element_accepted(self):
        payload = PolynomialHashFamily(count=2, seed=0).to_dict()
        payload["coefficients"][0] = [MERSENNE_PRIME_31 - 1, 0, 0, 0]
        family = PolynomialHashFamily.from_dict(payload)
        assert family.coefficients[0, 0] == MERSENNE_PRIME_31 - 1

    @pytest.mark.parametrize("counter", [2**63, -(2**63) - 1])
    def test_counter_beyond_int64_refused(self, counter):
        payload = TugOfWarSketch(8, 2, seed=5).to_dict()
        payload["z"][0] = counter
        with pytest.raises(SketchPayloadError):
            load_sketch(payload)
