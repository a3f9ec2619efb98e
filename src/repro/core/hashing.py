"""k-wise independent hash families used by the sketching algorithms.

The tug-of-war sketch (Section 2.2 of the paper) and the k-TW join
signature scheme (Section 4.3) require, for each counter, a random
mapping ``v -> eps(v)`` from the value domain into ``{-1, +1}`` drawn
from a *4-wise independent* family.  Four-wise independence is exactly
what the variance analysis of [AMS99] needs: it makes
``E[eps(u) eps(v) eps(w) eps(x)]`` vanish for distinct arguments, which
in turn bounds ``Var[Z^2]`` by ``2 * SJ(R)^2``.

We implement the textbook construction: degree-(k-1) polynomials with
random coefficients over the prime field GF(p).  Evaluating a random
degree-3 polynomial at k <= 4 distinct points gives independent uniform
values over [0, p), hence 4-wise independence.  The +/-1 sign is the
least-significant bit of the polynomial value; because p is odd, one
bit of a uniform value over [0, p) has bias at most 1/(2p), which for
p = 2^31 - 1 is ~2.3e-10 — negligible against every statistical
tolerance in the paper's study (the substitution is recorded in
DESIGN.md).

Everything is vectorised with numpy so that a sketch with thousands of
counters can process an update with a handful of array operations:
coefficients are stored as a ``(num_functions, degree)`` uint64 matrix
and evaluation uses Horner's rule.  All intermediate products fit in
uint64 because coefficients and points are both < 2^31.

Every family is named by its seed: an unseeded family draws one from
OS entropy and records it.  Families built from one seed share one
read-only coefficient matrix per process (a bounded cache keyed by
``(count, independence, seed)``): the sketches of a windowed or keyed
store all use the same eps mappings, so a new bucket costs its counters
and not another copy of the polynomials.  A payload names the family
as that seed triple plus a 64-bit digest of the matrix instead of
shipping the matrix itself.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from typing import Collection, Iterable, Mapping

import numpy as np

from ..engine.registry import SketchPayloadError
from ..kernels.dispatch import _as_domain_values

__all__ = [
    "MERSENNE_PRIME_31",
    "PolynomialHashFamily",
    "SignHashFamily",
]

#: The Mersenne prime 2^31 - 1 used as the field modulus.  Domain
#: values must lie in [0, MERSENNE_PRIME_31).
MERSENNE_PRIME_31 = (1 << 31) - 1

_P = np.uint64(MERSENNE_PRIME_31)
_SHIFT = np.uint64(31)


def _mod_mersenne(y: np.ndarray) -> np.ndarray:
    """Reduce uint64 values below 2^62 modulo p = 2^31 - 1, divisionless.

    Because ``2^31 ≡ 1 (mod p)``, writing ``y = a 2^31 + b`` gives
    ``y ≡ a + b``; two shift-and-mask folds bring any product of two
    field elements (< 2^62) down to at most p + 1, and one conditional
    subtract finishes.  Bit-identical to ``y % p`` but avoids the slow
    uint64 division on the bulk-ingestion hot path (~4x faster hash
    evaluation for million-element batches).
    """
    y = (y >> _SHIFT) + (y & _P)
    y = (y >> _SHIFT) + (y & _P)
    return np.where(y >= _P, y - _P, y)


#: Distinct ``(count, independence, seed)`` coefficient matrices each
#: process keeps for sharing; the least recently used is dropped first.
#: A store or fleet needs one per spec; the bound caps what a sweep over
#: many seeds keeps alive after its sketches are gone.
_SHARED_FAMILIES = 16

#: Every integer of a family payload fits an int64: seeds lie in
#: [0, 2^63) and digests are signed.
_INT64_LIMIT = 1 << 63


def _draw_family(count: int, independence: int, seed: int) -> tuple[np.ndarray, int]:
    """A read-only ``(count, independence)`` matrix drawn from ``seed``,
    with its digest.

    Row i holds the coefficients of polynomial i, highest degree first
    (Horner order).  The digest is the first 8 bytes of the matrix's
    BLAKE2b hash as a signed int64, so it fits a payload's int64 field.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(
        0, MERSENNE_PRIME_31, size=(count, independence), dtype=np.uint64
    )
    coeffs.flags.writeable = False
    raw = hashlib.blake2b(coeffs.astype("<u8").tobytes(), digest_size=8).digest()
    return coeffs, int.from_bytes(raw, "little", signed=True)


_shared_family = functools.lru_cache(maxsize=_SHARED_FAMILIES)(_draw_family)


def _check_seed(seed) -> int:
    """``seed`` as an int, or ValueError unless it lies in [0, 2^63)."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if 0 <= int(seed) < _INT64_LIMIT:
            return int(seed)
    raise ValueError(f"seed must be an integer in [0, 2^63), got {seed!r}")


def _payload_int(payload, name: str, lo: int) -> int:
    """The integer field ``name`` of a family payload, in [lo, 2^63)."""
    value = payload.get(name)
    if type(value) is not int or not lo <= value < _INT64_LIMIT:
        bound = "-2^63" if lo < 0 else lo
        raise SketchPayloadError(
            f"corrupt hash family payload: {name!r} must be an integer "
            f"in [{bound}, 2^63), got {value!r}"
        )
    return value


class PolynomialHashFamily:
    """A bundle of ``count`` independent k-wise independent hash functions.

    Each function is a uniformly random polynomial of degree
    ``independence - 1`` over GF(p), p = 2^31 - 1, evaluated with
    Horner's rule.  The family therefore provides ``independence``-wise
    independent uniform values over [0, p).

    Parameters
    ----------
    count:
        Number of independent hash functions in the bundle.
    independence:
        Level of k-wise independence (the polynomial degree is
        ``independence - 1``).  The paper's algorithms need 4.
    seed:
        Seed for the coefficient-drawing RNG, an integer in [0, 2^63);
        ``None`` draws one from OS entropy and records it.  Two families
        built with the same ``(count, independence, seed)`` are
        identical, which is how k-TW signatures for *different
        relations* share their eps mappings (Section 4.3); with an
        explicit seed they share one read-only coefficient matrix, too.

    Notes
    -----
    The leading coefficient is allowed to be zero; this is the standard
    "random polynomial" family, which is exactly k-wise independent
    (degenerating to lower degree only blends in lower-degree members
    of the same family).
    """

    __slots__ = ("count", "independence", "seed", "_coeffs", "_digest")

    def __init__(self, count: int, independence: int = 4, seed: int | None = None):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if independence < 1:
            raise ValueError(f"independence must be >= 1, got {independence}")
        self.count = int(count)
        self.independence = int(independence)
        # An entropy seed names a one-off family: it stays out of the
        # shared cache so it cannot evict the families stores share.
        if seed is None:
            self.seed = secrets.randbelow(_INT64_LIMIT)
            draw = _draw_family
        else:
            self.seed = _check_seed(seed)
            draw = _shared_family
        self._coeffs, self._digest = draw(self.count, self.independence, self.seed)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def hash_one(self, value: int) -> np.ndarray:
        """Evaluate all ``count`` functions at a single domain value.

        Returns a uint64 array of shape ``(count,)`` with entries in
        [0, p).
        """
        v = int(value)
        if not 0 <= v < MERSENNE_PRIME_31:
            raise ValueError(
                f"value {value!r} outside hashable domain [0, {MERSENNE_PRIME_31})"
            )
        x = np.uint64(v)
        acc = self._coeffs[:, 0].copy()
        for d in range(1, self.independence):
            acc = _mod_mersenne(acc * x + self._coeffs[:, d])
        return acc

    def hash_many(self, values: np.ndarray | Iterable[int]) -> np.ndarray:
        """Evaluate all functions at many domain values at once.

        Parameters
        ----------
        values:
            Integer array of shape ``(m,)`` with entries in [0, p).

        Returns
        -------
        numpy.ndarray
            uint64 array of shape ``(count, m)``; entry ``[i, j]`` is
            function i evaluated at ``values[j]``.
        """
        vals = _as_domain_values(values)
        x = vals[np.newaxis, :]  # (1, m)
        acc = np.empty((self.count, vals.size), dtype=np.uint64)
        np.copyto(acc, self._coeffs[:, 0:1])  # broadcast fill, no extra copy
        tmp = np.empty_like(acc)
        for d in range(1, self.independence):
            acc *= x
            acc += self._coeffs[:, d : d + 1]
            # Two lazy in-place folds leave acc ≡ (mod p) and <= p + 1,
            # small enough for the next product to stay below 2^62;
            # the final conditional subtract lands in [0, p).
            np.right_shift(acc, _SHIFT, out=tmp)
            acc &= _P
            acc += tmp
            np.right_shift(acc, _SHIFT, out=tmp)
            acc &= _P
            acc += tmp
        np.subtract(acc, _P, out=acc, where=acc >= _P)
        return acc

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> np.ndarray:
        """A read-only view of the coefficient matrix (count x degree)."""
        view = self._coeffs.view()
        view.flags.writeable = False
        return view

    def to_dict(self) -> dict:
        """Serialise the family as its seed triple plus the matrix digest."""
        return {
            "count": self.count,
            "independence": self.independence,
            "seed": self.seed,
            "digest": self._digest,
        }

    @classmethod
    def from_dict(
        cls,
        payload: Mapping,
        *,
        count: int,
        independence: Collection[int],
    ) -> "PolynomialHashFamily":
        """Reconstruct a family from :meth:`to_dict` output.

        The matrix is redrawn from the seed through the shared cache.
        The payload's digest must equal the redraw's: numpy does not
        promise a ``Generator`` stream stable across versions (NEP 19),
        so a family written under another numpy may hash differently.
        ``count`` and ``independence`` (the allowed levels) are what the
        caller's counters need; they are checked before the draw, so a
        payload of a few bytes cannot request an unbounded matrix.
        Every refusal is a :class:`SketchPayloadError`, including a
        payload that still carries the ``coefficients`` of the format
        before families were named by seed.
        """
        if not isinstance(payload, Mapping):
            raise SketchPayloadError(
                "hash family payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        if "coefficients" in payload:
            raise SketchPayloadError(
                "hash family payload carries 'coefficients', the format "
                "before families were named by seed; rebuild the sketch "
                "from the stream"
            )
        size = _payload_int(payload, "count", 1)
        level = _payload_int(payload, "independence", 1)
        seed = _payload_int(payload, "seed", 0)
        digest = _payload_int(payload, "digest", -_INT64_LIMIT)
        if size != count:
            raise SketchPayloadError(
                f"corrupt hash family payload: {size} functions, "
                f"expected {count}"
            )
        if level not in independence:
            raise SketchPayloadError(
                f"corrupt hash family payload: independence {level}, "
                f"expected one of {sorted(independence)}"
            )
        family = cls.__new__(cls)
        family.count, family.independence, family.seed = size, level, seed
        family._coeffs, family._digest = _shared_family(size, level, seed)
        if digest != family._digest:
            raise SketchPayloadError(
                f"corrupt hash family payload: digest {digest} does not "
                f"match seed {seed}'s draw {family._digest}, or it was "
                "written under a numpy whose random stream differs"
            )
        return family

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolynomialHashFamily):
            return NotImplemented
        return (self.count, self.independence, self.seed) == (
            other.count, other.independence, other.seed
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolynomialHashFamily(count={self.count}, "
            f"independence={self.independence}, seed={self.seed!r})"
        )


class SignHashFamily:
    """A bundle of 4-wise independent ``v -> {-1, +1}`` mappings.

    This is the ``eps`` family of the tug-of-war sketch: the sign is
    the least-significant bit of a :class:`PolynomialHashFamily` value,
    mapped ``0 -> -1`` and ``1 -> +1``.

    The class deliberately mirrors the polynomial family's API but
    returns int8 arrays of signs, which the sketches consume directly.
    """

    __slots__ = ("_family",)

    def __init__(self, count: int, seed: int | None = None, independence: int = 4):
        self._family = PolynomialHashFamily(count, independence=independence, seed=seed)

    @property
    def count(self) -> int:
        """Number of independent sign functions."""
        return self._family.count

    @property
    def independence(self) -> int:
        """k-wise independence level of the underlying family."""
        return self._family.independence

    @property
    def seed(self) -> int:
        """Seed the family was built from (drawn from OS entropy if none
        was given)."""
        return self._family.seed

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only coefficient matrix of the underlying polynomials.

        The fused kernels (:mod:`repro.kernels`) evaluate the sign
        directly from these rows rather than through :meth:`signs_many`.
        """
        return self._family.coefficients

    def signs_one(self, value: int) -> np.ndarray:
        """Signs of all functions at one value: int8 array (count,)."""
        bits = self._family.hash_one(value) & np.uint64(1)
        return (bits.astype(np.int8) << 1) - 1

    def signs_many(self, values: np.ndarray | Iterable[int]) -> np.ndarray:
        """Signs of all functions at many values: int8 array (count, m)."""
        bits = self._family.hash_many(values) & np.uint64(1)
        return (bits.astype(np.int8) << 1) - 1

    def to_dict(self) -> dict:
        """Serialise to plain Python types."""
        return {"kind": "sign", "family": self._family.to_dict()}

    @classmethod
    def from_dict(
        cls,
        payload: Mapping,
        *,
        count: int,
        independence: Collection[int],
    ) -> "SignHashFamily":
        """Reconstruct from :meth:`to_dict` output; ``count`` and
        ``independence`` bound the family as in
        :meth:`PolynomialHashFamily.from_dict`."""
        kind = payload.get("kind") if isinstance(payload, Mapping) else None
        if kind != "sign":
            raise ValueError(f"not a SignHashFamily payload: {kind!r}")
        obj = cls.__new__(cls)
        obj._family = PolynomialHashFamily.from_dict(
            payload["family"], count=count, independence=independence
        )
        return obj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignHashFamily):
            return NotImplemented
        return self._family == other._family

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SignHashFamily(count={self.count}, seed={self.seed!r}, "
            f"independence={self.independence})"
        )
