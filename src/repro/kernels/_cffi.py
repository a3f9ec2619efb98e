"""cffi ABI-mode kernels: a tiny C library compiled on first use.

The C source below is the fused hot loop — Horner evaluation,
divisionless Mersenne fold, sign/digit extraction, counter scatter —
compiled once per host with the system C compiler into a cache
directory (``REPRO_KERNEL_CACHE``, else ``~/.cache/repro-kernels``,
else the tempdir) keyed by a hash of the source, then loaded through
``cffi.FFI().dlopen``.  ABI mode deliberately: no setuptools build
machinery at runtime, just ``cc -O3 -shared`` and a dlopen, which
keeps the failure surface small and every failure mode a clean
:class:`~repro.kernels.dispatch.KernelUnavailableError` fallback.

Any exception during compiler discovery, compilation, or loading
propagates to :mod:`.dispatch`, which records it and (under ``auto``)
falls back to the next backend.

The arithmetic mirrors :mod:`._numpy` exactly — uint64 wraparound is
identical in C and numpy, and the field fold keeps every product
below 2^62 — so outputs are bit-identical by construction.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

_CDEF = """
void repro_tugofwar_scatter(
    const uint64_t *coeffs, int64_t s, int64_t degree,
    const uint64_t *values, const int64_t *counts, int64_t m,
    int64_t *z);
void repro_fk_scatter(
    const uint64_t *coeffs, int64_t s, int64_t degree,
    const uint64_t *values, const int64_t *counts, int64_t m,
    int64_t *counters, int64_t k);
void repro_splitmix64(
    const uint64_t *values, int64_t n, uint64_t seed_term,
    uint64_t *out);
void repro_shard_assign(
    const uint64_t *values, int64_t n, uint64_t seed_term,
    uint64_t num_shards, int64_t *out);
void repro_counter_u64(
    uint64_t key, const uint64_t *positions, const uint64_t *draws,
    int64_t n, uint64_t *out);
void repro_counter_u01(
    uint64_t key, const uint64_t *positions, const uint64_t *draws,
    int64_t n, double *out);
int64_t repro_reservoir_chain(
    uint64_t key, int64_t k, int64_t offered, int64_t skip, int64_t m,
    int64_t *accepts, int64_t *slots, int64_t *skip_out);
void repro_sampler_segment_counts(
    const int64_t *values, const int64_t *keys, int64_t r,
    const int64_t *starts, const int64_t *ends, int64_t b,
    int64_t *out);
"""

_CSOURCE = r"""
#include <stdint.h>

#define P31 2147483647ULL

/* Canonical reduction mod 2^31 - 1 of a value below 2^62: two
 * shift-folds (2^31 = 1 mod p) and one conditional subtract. */
static inline uint64_t fold31(uint64_t y)
{
    y = (y >> 31) + (y & P31);
    y = (y >> 31) + (y & P31);
    return y >= P31 ? y - P31 : y;
}

/* Degree 4 (4-wise independence) is the common case for every
 * registered sketch kind; a fixed-trip-count Horner chain is what
 * lets the compiler unroll and auto-vectorise the value loop (the
 * dynamic-degree loop below defeats the vectoriser's cost model). */
static inline uint64_t horner4(const uint64_t *row, uint64_t x)
{
    uint64_t acc = fold31(row[0] * x + row[1]);
    acc = fold31(acc * x + row[2]);
    return fold31(acc * x + row[3]);
}

void repro_tugofwar_scatter(
    const uint64_t *coeffs, int64_t s, int64_t degree,
    const uint64_t *values, const int64_t *counts, int64_t m,
    int64_t *z)
{
    if (degree == 4) {
        for (int64_t i = 0; i < s; i++) {
            const uint64_t *row = coeffs + (uint64_t)i * 4u;
            int64_t total = 0;
            for (int64_t j = 0; j < m; j++) {
                uint64_t acc = horner4(row, values[j]);
                total += (acc & 1u) ? counts[j] : -counts[j];
            }
            z[i] += total;
        }
        return;
    }
    for (int64_t i = 0; i < s; i++) {
        const uint64_t *row = coeffs + (uint64_t)i * (uint64_t)degree;
        int64_t total = 0;
        for (int64_t j = 0; j < m; j++) {
            uint64_t x = values[j];
            uint64_t acc = row[0];
            for (int64_t d = 1; d < degree; d++)
                acc = fold31(acc * x + row[d]);
            total += (acc & 1u) ? counts[j] : -counts[j];
        }
        z[i] += total;
    }
}

void repro_fk_scatter(
    const uint64_t *coeffs, int64_t s, int64_t degree,
    const uint64_t *values, const int64_t *counts, int64_t m,
    int64_t *counters, int64_t k)
{
    if (degree == 4) {
        for (int64_t i = 0; i < s; i++) {
            const uint64_t *row = coeffs + (uint64_t)i * 4u;
            int64_t *slots = counters + (uint64_t)i * (uint64_t)k;
            for (int64_t j = 0; j < m; j++) {
                uint64_t acc = horner4(row, values[j]);
                slots[acc % (uint64_t)k] += counts[j];
            }
        }
        return;
    }
    for (int64_t i = 0; i < s; i++) {
        const uint64_t *row = coeffs + (uint64_t)i * (uint64_t)degree;
        int64_t *slots = counters + (uint64_t)i * (uint64_t)k;
        for (int64_t j = 0; j < m; j++) {
            uint64_t x = values[j];
            uint64_t acc = row[0];
            for (int64_t d = 1; d < degree; d++)
                acc = fold31(acc * x + row[d]);
            slots[acc % (uint64_t)k] += counts[j];
        }
    }
}

static inline uint64_t splitmix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

void repro_splitmix64(
    const uint64_t *values, int64_t n, uint64_t seed_term,
    uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = splitmix(values[i] + seed_term);
}

void repro_shard_assign(
    const uint64_t *values, int64_t n, uint64_t seed_term,
    uint64_t num_shards, int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = (int64_t)(splitmix(values[i] + seed_term) % num_shards);
}

/* Counter-based sampler RNG: draw i at stream position j is
 * mix(mix(key + j*G1) + i*G2) — pure mod-2^64 integer arithmetic,
 * bit-identical to the numpy oracle by construction. */
#define CTR_G1 0x9E3779B97F4A7C15ULL
#define CTR_G2 0xD1B54A32D192ED03ULL
/* 2^-53: both the 53-bit integer below and this power-of-two scale
 * are exact doubles, so the (0, 1] map is exactly rounded. */
#define CTR_INV53 (1.0 / 9007199254740992.0)

void repro_counter_u64(
    uint64_t key, const uint64_t *positions, const uint64_t *draws,
    int64_t n, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = splitmix(positions[i] * CTR_G1 + key);
        out[i] = splitmix(h + draws[i] * CTR_G2);
    }
}

void repro_counter_u01(
    uint64_t key, const uint64_t *positions, const uint64_t *draws,
    int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = splitmix(positions[i] * CTR_G1 + key);
        uint64_t z = splitmix(h + draws[i] * CTR_G2);
        out[i] = (double)((z >> 11) + 1u) * CTR_INV53;
    }
}

/* Smallest gap g with P(G > g) <= u for the full-reservoir skip law,
 * by exact sequential product search: every (x - k) / x term and the
 * running product are exactly rounded double ops, matching the numpy
 * oracle's sequential cumprod bit for bit. */
static inline int64_t res_gap(int64_t pos, double kd, double u)
{
    double survive = 1.0;
    int64_t g = 0;
    for (;;) {
        double x = (double)(pos + g + 1);
        double nxt = survive * ((x - kd) / x);
        if (nxt <= u)
            return g;
        survive = nxt;
        g++;
    }
}

int64_t repro_reservoir_chain(
    uint64_t key, int64_t k, int64_t offered, int64_t skip, int64_t m,
    int64_t *accepts, int64_t *slots, int64_t *skip_out)
{
    double kd = (double)k;
    int64_t cnt = 0, idx = 0, pos = offered;
    for (;;) {
        int64_t remaining = m - idx;
        if (skip >= remaining) {
            skip -= remaining;
            break;
        }
        idx += skip;
        pos += skip + 1;
        uint64_t h = splitmix((uint64_t)pos * CTR_G1 + key);
        accepts[cnt] = idx;
        slots[cnt] = (int64_t)(splitmix(h) % (uint64_t)k);
        uint64_t z = splitmix(h + CTR_G2);
        double u = (double)((z >> 11) + 1u) * CTR_INV53;
        cnt++;
        skip = res_gap(pos, kd, u);
        idx++;
    }
    *skip_out = skip;
    return cnt;
}

void repro_sampler_segment_counts(
    const int64_t *values, const int64_t *keys, int64_t r,
    const int64_t *starts, const int64_t *ends, int64_t b,
    int64_t *out)
{
    for (int64_t s = 0; s < b; s++) {
        int64_t *row = out + (uint64_t)s * (uint64_t)r;
        for (int64_t j = starts[s]; j < ends[s]; j++) {
            int64_t v = values[j];
            int64_t lo = 0, hi = r;
            while (lo < hi) {
                int64_t mid = (lo + hi) >> 1;
                if (keys[mid] < v)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < r && keys[lo] == v)
                row[lo] += 1;
        }
    }
}
"""


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro-kernels")
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _compiler() -> str:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")


def _build() -> str:
    """Compile (or reuse) the kernel library; returns the .so path."""
    tag = hashlib.sha256((_CSOURCE + "|native-v2").encode()).hexdigest()[:16]
    suffix = "dylib" if sys.platform == "darwin" else "so"
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{tag}.{suffix}")
    if os.path.exists(lib_path):
        return lib_path
    compiler = _compiler()  # before anything is written to the cache
    os.makedirs(cache, exist_ok=True)
    # Write the source and build the library to temp names and rename
    # each atomically, so concurrent processes racing to compile never
    # read a half-written source nor dlopen a half-written library.
    src_path = os.path.join(cache, f"repro_kernels_{tag}.c")
    src_fd, tmp_src = tempfile.mkstemp(dir=cache, suffix=".c")
    fd, tmp_path = tempfile.mkstemp(dir=cache, suffix=f".{suffix}")
    os.close(fd)
    try:
        with os.fdopen(src_fd, "w") as fh:
            fh.write(_CSOURCE)
        os.replace(tmp_src, src_path)
        # -march=native lets gcc/clang vectorise the 64-bit multiply
        # fold (AVX-512DQ has vpmullq); the library is cached per host
        # so native codegen is safe.  Retry portable if it is rejected.
        flag_sets = (["-O3", "-march=native"], ["-O3"])
        last_error: Exception | None = None
        for flags in flag_sets:
            try:
                subprocess.run(
                    [compiler, *flags, "-fPIC", "-shared", "-o", tmp_path,
                     src_path],
                    check=True,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                break
            except subprocess.CalledProcessError as exc:
                last_error = exc
        else:
            raise RuntimeError(
                f"C compile failed: {getattr(last_error, 'stderr', last_error)}"
            )
        os.replace(tmp_path, lib_path)
    finally:
        for path in (tmp_src, tmp_path):
            if os.path.exists(path):
                os.unlink(path)
    return lib_path


import cffi  # noqa: E402  (the lazy availability probe — see dispatch)

_ffi = cffi.FFI()
_ffi.cdef(_CDEF)
_lib = _ffi.dlopen(_build())


# Arrays reach C through the buffer protocol: ``from_buffer`` takes a
# quarter of the time of ``ffi.cast`` of ``arr.ctypes.data``, and the
# pointer keeps its array alive.  It refuses a non-contiguous array,
# and a read-only output; dispatch has checked both already.
def _u64(arr: np.ndarray):
    return _ffi.from_buffer("uint64_t[]", arr)


def _i64(arr: np.ndarray):
    return _ffi.from_buffer("int64_t[]", arr)


def _i64_mut(arr: np.ndarray):
    return _ffi.from_buffer("int64_t[]", arr, require_writable=True)


def _u64_mut(arr: np.ndarray):
    return _ffi.from_buffer("uint64_t[]", arr, require_writable=True)


def tugofwar_scatter(coeffs, values, counts, z) -> None:
    """Fused Horner + fold + sign + signed scatter in C."""
    s, degree = coeffs.shape
    _lib.repro_tugofwar_scatter(
        _u64(coeffs), s, degree, _u64(values), _i64(counts),
        values.shape[0], _i64_mut(z),
    )


def fk_scatter(coeffs, values, counts, counters, k) -> None:
    """Fused Horner + fold + digit scatter in C."""
    s, degree = coeffs.shape
    _lib.repro_fk_scatter(
        _u64(coeffs), s, degree, _u64(values), _i64(counts),
        values.shape[0], _i64_mut(counters), int(k),
    )


def splitmix64(values, seed_term) -> np.ndarray:
    """splitmix64 finalizer loop in C."""
    out = np.empty(values.shape[0], dtype=np.uint64)
    _lib.repro_splitmix64(
        _u64(values), values.shape[0], int(seed_term), _u64_mut(out)
    )
    return out


def shard_assign(values, seed_term, num_shards) -> np.ndarray:
    """Fused splitmix64 + modulo shard routing in C."""
    out = np.empty(values.shape[0], dtype=np.int64)
    _lib.repro_shard_assign(
        _u64(values), values.shape[0], int(seed_term), int(num_shards),
        _i64_mut(out),
    )
    return out


def counter_u64(key, positions, draws) -> np.ndarray:
    """Vectorised counter draws in C."""
    out = np.empty(positions.shape[0], dtype=np.uint64)
    _lib.repro_counter_u64(
        int(key), _u64(positions), _u64(draws), positions.shape[0],
        _u64_mut(out),
    )
    return out


def counter_u01(key, positions, draws) -> np.ndarray:
    """Counter draws in (0, 1] in C."""
    out = np.empty(positions.shape[0], dtype=np.float64)
    _lib.repro_counter_u01(
        int(key), _u64(positions), _u64(draws), positions.shape[0],
        _ffi.from_buffer("double[]", out, require_writable=True),
    )
    return out


def reservoir_chain(key, k, offered, skip, m):
    """Sequential reservoir acceptance chain in C."""
    accepts = np.empty(m, dtype=np.int64)
    slots = np.empty(m, dtype=np.int64)
    skip_out = np.empty(1, dtype=np.int64)
    cnt = _lib.repro_reservoir_chain(
        int(key), int(k), int(offered), int(skip), int(m),
        _i64_mut(accepts), _i64_mut(slots), _i64_mut(skip_out),
    )
    return accepts[:cnt].copy(), slots[:cnt].copy(), int(skip_out[0])


def sampler_segment_counts(values, keys, starts, ends) -> np.ndarray:
    """Per-segment tracked-value counts in C (binary search per element)."""
    out = np.zeros((starts.shape[0], keys.shape[0]), dtype=np.int64)
    if keys.shape[0] and starts.shape[0] and values.shape[0]:
        _lib.repro_sampler_segment_counts(
            _i64(values), _i64(keys), keys.shape[0],
            _i64(starts), _i64(ends), starts.shape[0],
            _i64_mut(out),
        )
    return out
