"""The numpy reference kernels — the bit-identity oracle.

These are the canonical definitions of every fused kernel: pure
integer numpy, no compiled code, importable everywhere.  The compiled
backend (:mod:`._cffi`) must reproduce these outputs **exactly** —
every operation below is exact uint64/int64 arithmetic (products stay
under 2^62 inside the field fold; the splitmix mix wraps mod 2^64
identically in numpy and C) — which the property suite asserts for
every registered linear sketch kind.

Inputs arrive pre-validated from :mod:`.dispatch`: C-contiguous
arrays, values already checked into [0, 2^31 - 1).
"""

from __future__ import annotations

import numpy as np

_P = np.uint64((1 << 31) - 1)
_SHIFT = np.uint64(31)
_ONE = np.uint64(1)


def polynomial_fold(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Horner-evaluate every row polynomial at every value, mod p.

    ``coeffs`` is ``(s, d)`` uint64 with entries in [0, p); ``values``
    is ``(m,)`` uint64 in [0, p).  Returns ``(s, m)`` uint64 in
    [0, p).  The Mersenne reduction is the divisionless shift-fold:
    two lazy folds bound the accumulator by p + 1 (small enough for
    the next Horner product to stay below 2^62), one final conditional
    subtract lands in [0, p).
    """
    s = coeffs.shape[0]
    acc = np.empty((s, values.size), dtype=np.uint64)
    np.copyto(acc, coeffs[:, 0:1])  # in-place broadcast fill, no copy()
    x = values[np.newaxis, :]
    tmp = np.empty_like(acc)  # one scratch, reused across Horner steps
    for d in range(1, coeffs.shape[1]):
        acc *= x
        acc += coeffs[:, d : d + 1]
        np.right_shift(acc, _SHIFT, out=tmp)
        acc &= _P
        acc += tmp
        np.right_shift(acc, _SHIFT, out=tmp)
        acc &= _P
        acc += tmp
    np.subtract(acc, _P, out=acc, where=acc >= _P)
    return acc


def _fold_one(coeffs: np.ndarray, value: int) -> np.ndarray:
    """Horner-evaluate every row polynomial at one value: (s,) uint64."""
    x = np.uint64(value)
    acc = coeffs[:, 0].copy()
    for d in range(1, coeffs.shape[1]):
        y = acc * x + coeffs[:, d]
        y = (y >> _SHIFT) + (y & _P)
        y = (y >> _SHIFT) + (y & _P)
        acc = np.where(y >= _P, y - _P, y)
    return acc


def tugofwar_scatter(
    coeffs: np.ndarray, values: np.ndarray, counts: np.ndarray, z: np.ndarray
) -> None:
    """``z[i] += sum_j sign(h_i(v_j)) * c_j`` via one sign-matrix product."""
    acc = polynomial_fold(coeffs, values)
    signs = ((acc & _ONE).astype(np.int64) << 1) - 1  # lsb -> {-1, +1}
    z += signs @ counts


def tugofwar_update_one(
    coeffs: np.ndarray, value: int, count: int, z: np.ndarray
) -> None:
    """Scalar update with the sign-apply fused into the counter add."""
    bits = (_fold_one(coeffs, value) & _ONE).astype(np.int64)
    z += np.int64(count) * ((bits << 1) - 1)


def fk_scatter(
    coeffs: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    counters: np.ndarray,
    k: int,
) -> None:
    """``counters[i, h_i(v_j) % k] += c_j`` via per-digit masked sums."""
    digits = polynomial_fold(coeffs, values) % k
    for d in range(k):
        counters[:, d] += ((digits == d) * counts).sum(axis=1)


def fk_update_one(
    coeffs: np.ndarray,
    value: int,
    count: int,
    counters: np.ndarray,
    k: int,
) -> None:
    """Scalar F_k update: bump the hashed digit column of every slot."""
    digits = (_fold_one(coeffs, value) % np.uint64(k)).astype(np.intp)
    counters[np.arange(counters.shape[0]), digits] += np.int64(count)


_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(values: np.ndarray, seed_term: np.uint64) -> np.ndarray:
    """splitmix64 finalizer over ``v + seed_term``; wraps mod 2^64."""
    with np.errstate(over="ignore"):  # wraparound is the point
        z = values + seed_term
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def shard_assign(
    values: np.ndarray, seed_term: np.uint64, num_shards: int
) -> np.ndarray:
    """``splitmix64(v) % num_shards`` as int64 shard indices."""
    return (splitmix64(values, seed_term) % np.uint64(num_shards)).astype(
        np.int64
    )


# ----------------------------------------------------------------------
# Counter-based sampler RNG
# ----------------------------------------------------------------------
_G1 = np.uint64(0x9E3779B97F4A7C15)
_G2 = np.uint64(0xD1B54A32D192ED03)
_S11 = np.uint64(11)
_U1 = np.uint64(1)
_INV53 = 2.0**-53
_MASK64 = (1 << 64) - 1


def _mix_arr(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wraps mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def counter_u64(
    key: np.uint64, positions: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Vectorised counter draws: ``mix(mix(key + j*G1) + i*G2)``."""
    with np.errstate(over="ignore"):  # wraparound is the point
        h = _mix_arr(positions * _G1 + key)
        return _mix_arr(h + draws * _G2)


def counter_u01(
    key: np.uint64, positions: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Counter draws mapped into (0, 1]: exact float64 everywhere."""
    u = counter_u64(key, positions, draws)
    return ((u >> _S11) + _U1).astype(np.float64) * _INV53


def _mix_one(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reservoir_gap(pos: int, k: int, u: float) -> int:
    """Smallest gap g with ``P(G > g) <= u`` via galloping cumprod.

    The survival product is evaluated in the same sequential order as
    the compiled backend's scalar loop — ``np.cumprod`` is a strictly
    sequential reduction and each ``(x - k) / x`` term is an exactly
    rounded double op on exactly representable integers — so the
    returned gap is bit-identical to the C search.
    """
    survive = 1.0
    g0 = 0
    # Start the gallop a bit past the expected gap ~ pos/k (~70% of
    # draws resolve in one cumprod; the rest double up) — this sizing
    # minimises total touched elements, and chunking never changes the
    # result (the sequential multiply order is identical at any chunk
    # size, and a leading 1.0 factor is exact, so the first chunk can
    # skip the carried-survive prepend entirely).
    chunk = min(max(32, (5 * pos) // (4 * max(k, 1))), 1 << 16)
    kd = float(k)
    first = True
    while True:
        xs = np.arange(pos + g0 + 1, pos + g0 + 1 + chunk, dtype=np.float64)
        ratios = (xs - kd) / xs
        if first:
            cp = np.cumprod(ratios)
            first = False
        else:
            cp = np.cumprod(np.concatenate(([survive], ratios)))[1:]
        if cp[-1] <= u:
            return g0 + int(np.argmax(cp <= u))
        survive = float(cp[-1])
        g0 += chunk
        chunk = min(chunk * 2, 1 << 16)


def reservoir_chain(
    key: np.uint64, k: int, offered: int, skip: int, m: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference acceptance chain: Python skip jumps, vectorised gaps.

    Never touches individual rejected offers — each iteration jumps
    straight to the next accepted batch offset, so the cost is
    O(accepts), not O(m).  Survival ratios ``(x - k) / x`` are
    precomputed in large blocks shared by consecutive gap searches
    (positions only move forward), so each accept costs one cumprod
    over a cached slice plus one searchsorted on the monotone product
    — the ratio values and the sequential multiply order are identical
    to :func:`_reservoir_gap`, so the gaps are bit-identical.
    """
    key_i = int(key)
    accepts: list[int] = []
    positions: list[int] = []
    idx = 0
    pos = offered
    kd = float(k)
    blk = np.empty(0, dtype=np.float64)
    blk_lo = 0
    blk_len = 1 << 17

    def ratios(x0: int, count: int) -> np.ndarray:
        nonlocal blk, blk_lo
        if x0 < blk_lo or x0 + count > blk_lo + blk.size:
            xs = np.arange(x0, x0 + max(count, blk_len), dtype=np.float64)
            blk = (xs - kd) / xs
            blk_lo = x0
        off = x0 - blk_lo
        return blk[off : off + count]

    mask = _MASK64
    while True:
        remaining = m - idx
        if skip >= remaining:
            skip -= remaining
            break
        idx += skip
        pos += skip + 1
        accepts.append(idx)
        positions.append(pos)
        # _mix_one(key + pos*G1) then _mix_one(h + G2), inlined: the
        # chain runs once per accept, and the call overhead is the
        # dominant per-accept cost at typical reservoir sizes.
        z = (key_i + pos * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = ((z ^ (z >> 31)) + 0xD1B54A32D192ED03) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        u = float((z >> 11) + 1) * _INV53
        # Inline galloping gap search over the cached ratio blocks.
        # With ratios precomputed, touched elements are nearly free, so
        # the first chunk starts well past the expected gap ~ pos/k and
        # ~98% of draws finish in a single cumprod call.
        survive = 1.0
        g0 = 0
        chunk = min(max(32, 4 * (pos // k)), 1 << 16)
        first = True
        while True:
            r = ratios(pos + g0 + 1, chunk)
            # np.multiply.accumulate is cumprod without the dispatch
            # wrapper — same ufunc, same sequential rounding.
            if first:
                cp = np.multiply.accumulate(r)
                first = False
            else:
                cp = np.multiply.accumulate(
                    np.concatenate(([survive], r))
                )[1:]
            if cp[-1] <= u:
                # cp is nonincreasing: the first index with cp <= u is
                # found by bisecting the reversed (ascending) view.
                skip = g0 + cp.size - int(
                    cp[::-1].searchsorted(u, side="right")
                )
                break
            survive = float(cp[-1])
            g0 += chunk
            chunk = min(chunk * 2, 1 << 16)
        idx += 1
    # Slot draws don't feed back into the skip chain, so they are
    # deferred and computed in one vectorised pass (draw 0 at each
    # accepted position — same mix as the scalar _mix_one(h)).
    pos_arr = np.asarray(positions, dtype=np.uint64)
    slots = counter_u64(key, pos_arr, np.zeros(pos_arr.size, dtype=np.uint64))
    return (
        np.asarray(accepts, dtype=np.int64),
        (slots % np.uint64(k)).astype(np.int64),
        skip,
    )


def sampler_segment_counts(
    values: np.ndarray, keys: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per-segment tracked-value counts via one searchsorted pass.

    Only the window ``[min(starts), max(ends))`` is classified, and
    sorted pairwise-disjoint segments (the sketch walker's case)
    collapse to a single flat ``np.bincount`` over combined
    ``segment * r + code`` indices — exact integer counting either
    way, so the two routes are interchangeable bit for bit.
    """
    r = keys.shape[0]
    b = starts.shape[0]
    if r == 0 or b == 0 or values.size == 0:
        return np.zeros((b, r), dtype=np.int64)
    lo0 = int(starts.min())
    hi0 = int(ends.max())
    if hi0 <= lo0:
        return np.zeros((b, r), dtype=np.int64)
    window = values[lo0:hi0]
    codes = np.searchsorted(keys, window)
    np.minimum(codes, r - 1, out=codes)
    ok = keys[codes] == window
    disjoint = bool(np.all(ends >= starts)) and (
        b == 1 or bool(np.all(starts[1:] >= ends[:-1]))
    )
    if disjoint and b * r <= (1 << 24):
        # Sorted disjoint segments tile the window (with -1 filler for
        # the inter-segment gaps), so the per-element segment id is one
        # np.repeat instead of a searchsorted over the whole window.
        pieces = 2 * b - 1
        seg_ids = np.empty(pieces, dtype=np.int64)
        seg_lens = np.empty(pieces, dtype=np.int64)
        seg_ids[0::2] = np.arange(b, dtype=np.int64)
        seg_lens[0::2] = ends - starts
        if b > 1:
            seg_ids[1::2] = -1
            seg_lens[1::2] = starts[1:] - ends[:-1]
        seg = np.repeat(seg_ids, seg_lens)
        ok &= seg >= 0
        flat = seg[ok] * r + codes[ok]
        return np.bincount(flat, minlength=b * r).astype(np.int64).reshape(b, r)
    out = np.zeros((b, r), dtype=np.int64)
    for s in range(b):
        lo = int(starts[s]) - lo0
        hi = int(ends[s]) - lo0
        if hi <= lo:
            continue
        sub = codes[lo:hi][ok[lo:hi]]
        if sub.size:
            out[s] += np.bincount(sub, minlength=r)
    return out
