"""Backend registry and dispatch for the fused ingest kernels.

Every public kernel here validates and normalises its inputs **once**
(contiguity, dtype, hash-domain range) and then hands plain C-ordered
arrays to the active backend, so the per-backend implementations are
pure arithmetic loops with identical preconditions — which is what
makes bit-identity a checkable property instead of a hope.

Backend state is process-global and guarded by a lock: the sketches
are already serialised per-instance by the store/service layers, and a
backend switch mid-stream is safe anyway because every backend
computes the same integers.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = [
    "KernelUnavailableError",
    "BACKEND_NAMES",
    "ENV_VAR",
    "available_backends",
    "active_backend",
    "set_backend",
    "get_backend",
    "kernel_info",
    "tugofwar_scatter",
    "tugofwar_update_one",
    "fk_scatter",
    "fk_update_one",
    "splitmix64",
    "shard_assign",
    "RESERVOIR_SEQ_FACTOR",
    "counter_key",
    "counter_u64_one",
    "counter_u01_one",
    "counter_u64",
    "counter_u01",
    "reservoir_chain",
    "reservoir_gap_one",
    "sampler_segment_counts",
]

#: Environment variable that selects the backend at first use.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Every backend name the registry knows (``auto`` is a policy, not a
#: backend: it resolves to the first loadable entry of _AUTO_ORDER).
BACKEND_NAMES = ("numpy", "numba", "cffi")

#: ``auto`` preference: jit first (fastest observed), then the
#: self-compiled C library, then the always-available reference.
_AUTO_ORDER = ("numba", "cffi", "numpy")

MERSENNE_PRIME_31 = (1 << 31) - 1
_P64 = np.uint64(MERSENNE_PRIME_31)
_MASK64 = (1 << 64) - 1

#: splitmix64 finalizer constants (Steele et al.), shared with
#: :mod:`repro.engine.partition` which dispatches through here.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

#: Second Weyl increment for the per-position draw index of the
#: counter-based sampler RNG (a distinct odd constant so the (j, i)
#: lattice never aliases the position stream).
COUNTER_DRAW_GAMMA = 0xD1B54A32D192ED03

#: Reservoir skip draws use the exact sequential-product search while
#: ``offered <= RESERVOIR_SEQ_FACTOR * k``; beyond that the drivers
#: switch to the lgamma bisection (whose libm calls are not bit-stable
#: across toolchains, so it never enters a compiled kernel).
RESERVOIR_SEQ_FACTOR = 65536


class KernelUnavailableError(RuntimeError):
    """An explicitly requested kernel backend cannot be loaded.

    Raised only for *explicit* requests (``set_backend("numba")`` or
    ``REPRO_KERNEL_BACKEND=numba`` with no numba installed); ``auto``
    selection never raises — it falls back to the numpy reference.
    """


_lock = threading.RLock()
_active = None  # the resolved backend module, or None before first use
_active_name: str | None = None
_loaded: dict[str, object] = {}
_load_errors: dict[str, str] = {}


def _import_backend(name: str):
    """Import one backend module, recording the failure reason."""
    if name == "numpy":
        from . import _numpy as module  # always importable
        return module
    try:
        if name == "numba":
            from . import _numba as module
        elif name == "cffi":
            from . import _cffi as module
        else:
            raise ValueError(
                f"unknown kernel backend {name!r}; "
                f"choose from {('auto',) + BACKEND_NAMES}"
            )
    except ValueError:
        raise
    except Exception as exc:  # ImportError, compile failure, OSError...
        _load_errors[name] = f"{type(exc).__name__}: {exc}"
        raise KernelUnavailableError(
            f"kernel backend {name!r} is not available on this host: "
            f"{_load_errors[name]}"
        ) from exc
    return module


def _load(name: str):
    """Load (and cache) one backend module by name."""
    with _lock:
        module = _loaded.get(name)
        if module is None:
            module = _import_backend(name)
            _loaded[name] = module
        return module


def _resolve(requested: str):
    """Resolve a requested name (possibly ``auto``) to a loaded backend."""
    if requested == "auto":
        for name in _AUTO_ORDER:
            try:
                return name, _load(name)
            except KernelUnavailableError:
                continue
        return "numpy", _load("numpy")  # unreachable: numpy always loads
    if requested not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {requested!r}; "
            f"choose from {('auto',) + BACKEND_NAMES}"
        )
    return requested, _load(requested)


def get_backend():
    """The active backend module, resolving the env selection lazily."""
    global _active, _active_name
    backend = _active
    if backend is not None:
        return backend
    with _lock:
        if _active is None:
            requested = os.environ.get(ENV_VAR, "auto").strip() or "auto"
            _active_name, _active = _resolve(requested)
        return _active


def active_backend() -> str:
    """Name of the backend the kernels currently dispatch to."""
    get_backend()
    return _active_name  # type: ignore[return-value]


def set_backend(name: str) -> str:
    """Select a backend programmatically; returns the resolved name.

    ``name`` is ``auto`` or one of :data:`BACKEND_NAMES`.  The backend
    is loaded *now*, so an explicit request for an unavailable backend
    fails here — loudly, with the underlying reason — rather than on
    the first ingest.  Overrides any earlier env/``auto`` resolution
    for the rest of the process (or until the next call).
    """
    global _active, _active_name
    with _lock:
        resolved, module = _resolve(str(name))
        _active_name, _active = resolved, module
        return resolved


def available_backends() -> tuple[str, ...]:
    """Backends that load on this host, probing each one once."""
    names = []
    for name in BACKEND_NAMES:
        try:
            _load(name)
        except KernelUnavailableError:
            continue
        names.append(name)
    return tuple(names)


def kernel_info(probe: bool = False) -> dict:
    """A JSON-compatible summary of the kernel configuration.

    With ``probe=False`` (the default, used by serving banners and
    ``info`` payloads) only already-loaded backends are listed, so
    asking for the summary never triggers a jit compile.  ``probe=True``
    (benchmarks, diagnostics) attempts to load every backend.
    """
    available = available_backends() if probe else tuple(sorted(_loaded))
    return {
        "active": active_backend(),
        "requested": os.environ.get(ENV_VAR, "auto").strip() or "auto",
        "available": list(available),
        "load_errors": dict(_load_errors),
    }


# ----------------------------------------------------------------------
# Input normalisation shared by every backend
# ----------------------------------------------------------------------
def _as_coeffs(coeffs) -> np.ndarray:
    arr = np.ascontiguousarray(coeffs, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError(f"coefficients must be 2-D, got shape {arr.shape}")
    return arr


def _as_domain_values(values) -> np.ndarray:
    """Values as contiguous uint64, validated into [0, p) in one pass."""
    try:
        vals = np.ascontiguousarray(np.asarray(values, dtype=np.uint64))
    except OverflowError:  # a Python int below 0 or past 2^64
        raise _domain_error(values) from None
    if vals.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {vals.shape}")
    if vals.size and bool((vals >= _P64).any()):
        raise _domain_error(values)
    return vals


def _domain_error(values) -> ValueError:
    """The refusal of values outside [0, p), naming the first of them.

    The check runs on the uint64 view, where a negative value reads as
    one of at least 2^63, so only the refusal looks at the caller's
    values again to name the one they sent.
    """
    arr = np.asarray(values).ravel()
    bad = arr[(arr < 0) | (arr >= MERSENNE_PRIME_31)][:1].tolist()
    shown = repr(bad[0]) if bad else "an entry"
    return ValueError(
        f"values contain {shown}, outside the field [0, {MERSENNE_PRIME_31})"
    )


def _as_counts(counts, size: int) -> np.ndarray:
    cnts = np.ascontiguousarray(counts, dtype=np.int64)
    if cnts.shape != (size,):
        raise ValueError(
            f"counts must have shape ({size},), got {cnts.shape}"
        )
    return cnts


def _check_state(state: np.ndarray, dtype, name: str) -> np.ndarray:
    if (
        not isinstance(state, np.ndarray)
        or state.dtype != dtype
        or not state.flags.c_contiguous
        or not state.flags.writeable
    ):
        raise ValueError(
            f"{name} must be a writable C-contiguous {np.dtype(dtype)} array"
        )
    return state


def _check_z(z: np.ndarray, cf: np.ndarray) -> None:
    """``z`` must be one writable int64 counter per coefficient row: the
    compiled kernels index it by row without a bound check."""
    _check_state(z, np.int64, "z")
    if z.shape != (cf.shape[0],):
        raise ValueError(f"z must have shape ({cf.shape[0]},), got {z.shape}")


def _check_counters(counters: np.ndarray, cf: np.ndarray, k) -> int:
    """``counters`` must be a writable int64 ``(rows, k)`` matrix, k >= 1,
    for the same reason as :func:`_check_z`; returns ``k`` as an int."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_state(counters, np.int64, "counters")
    if counters.shape != (cf.shape[0], k):
        raise ValueError(
            f"counters must have shape ({cf.shape[0]}, {k}), "
            f"got {counters.shape}"
        )
    return k


def _check_scalar_value(value) -> int:
    v = int(value)
    if not 0 <= v < MERSENNE_PRIME_31:
        raise ValueError(
            f"value {value!r} outside hashable domain [0, {MERSENNE_PRIME_31})"
        )
    return v


def _seed_term(seed: int) -> np.uint64:
    """The precombined splitmix64 additive term, mod 2^64."""
    return np.uint64(((int(seed) + 1) * SPLITMIX_GAMMA) & _MASK64)


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------
def tugofwar_scatter(coeffs, values, counts, z: np.ndarray) -> None:
    """Fused tug-of-war bulk update: ``z[i] += sum_j eps_i(v_j) * c_j``.

    ``eps_i(v)`` is the sign bit (lsb mapped 0 -> -1, 1 -> +1) of the
    degree-(d-1) Horner polynomial ``coeffs[i]`` evaluated at ``v``
    over GF(2^31 - 1).  Updates ``z`` (int64, shape ``(s,)``) in
    place; bit-identical across backends by exact integer arithmetic.
    """
    cf = _as_coeffs(coeffs)
    vals = _as_domain_values(values)
    _check_z(z, cf)
    if vals.size == 0:
        return
    cnts = _as_counts(counts, vals.size)
    get_backend().tugofwar_scatter(cf, vals, cnts, z)


def tugofwar_update_one(coeffs, value, count, z: np.ndarray) -> None:
    """Scalar tug-of-war update: ``z += count * eps(value)``, fused.

    The per-``insert``/``delete`` fast path: no ``(s,)`` int8 sign
    temporary, no separate sign-apply pass.
    """
    v = _check_scalar_value(value)
    cf = _as_coeffs(coeffs)
    _check_z(z, cf)
    backend = get_backend()
    fn = getattr(backend, "tugofwar_update_one", None)
    if fn is not None:
        fn(cf, v, int(count), z)
        return
    backend.tugofwar_scatter(
        cf,
        np.array([v], dtype=np.uint64),
        np.array([int(count)], dtype=np.int64),
        z,
    )


def fk_scatter(coeffs, values, counts, counters: np.ndarray, k: int) -> None:
    """Fused F_k bulk update: ``counters[i, b_i(v_j)] += c_j``.

    ``b_i(v) = h_i(v) mod k`` is the per-slot digit hash.  Updates the
    ``(s, k)`` int64 counter matrix in place.
    """
    cf = _as_coeffs(coeffs)
    vals = _as_domain_values(values)
    k = _check_counters(counters, cf, k)
    if vals.size == 0:
        return
    cnts = _as_counts(counts, vals.size)
    get_backend().fk_scatter(cf, vals, cnts, counters, k)


def fk_update_one(coeffs, value, count, counters: np.ndarray, k: int) -> None:
    """Scalar F_k update: bump one digit counter per slot, fused."""
    v = _check_scalar_value(value)
    cf = _as_coeffs(coeffs)
    k = _check_counters(counters, cf, k)
    backend = get_backend()
    fn = getattr(backend, "fk_update_one", None)
    if fn is not None:
        fn(cf, v, int(count), counters, k)
        return
    backend.fk_scatter(
        cf,
        np.array([v], dtype=np.uint64),
        np.array([int(count)], dtype=np.int64),
        counters,
        k,
    )


def splitmix64(values, seed: int = 0) -> np.ndarray:
    """The splitmix64 finalizer of each int64 value: uint64 array.

    Bit-identical to the historical pure-numpy
    :func:`repro.engine.partition.stable_hash64`, which now dispatches
    here.
    """
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    return get_backend().splitmix64(arr.view(np.uint64), _seed_term(seed))


# ----------------------------------------------------------------------
# Counter-based sampler RNG
# ----------------------------------------------------------------------
# Draw ``i`` at stream position ``j`` under seed ``s`` is the pure
# function ``mix(mix(key(s) + j*G1) + i*G2)`` where ``mix`` is the
# splitmix64 finalizer.  Pure integer arithmetic mod 2^64, so the
# scalar Python helpers below, the vectorised numpy path, and the
# compiled backends all produce the same bits — which is what lets the
# samplers precompute whole batches of draws instead of threading a
# stateful generator through every element.

_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """The splitmix64 finalizer on a Python int, mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def counter_key(seed: int) -> int:
    """Derive the 64-bit stream key of the counter RNG from a seed."""
    return _mix64(((int(seed) + 1) * SPLITMIX_GAMMA) & _MASK64)


def counter_u64_one(key: int, position: int, draw: int) -> int:
    """Scalar counter draw: uint64 for draw ``draw`` at ``position``."""
    h = _mix64((int(key) + int(position) * SPLITMIX_GAMMA) & _MASK64)
    return _mix64((h + int(draw) * COUNTER_DRAW_GAMMA) & _MASK64)


def counter_u01_one(key: int, position: int, draw: int) -> float:
    """Scalar counter draw mapped into (0, 1].

    ``((u >> 11) + 1) * 2^-53`` — both the 53-bit integer and the
    power-of-two scale are exactly representable, so the float is
    bit-identical in Python, numpy, numba, and C.
    """
    return float((counter_u64_one(key, position, draw) >> 11) + 1) * 2.0**-53


def reservoir_gap_one(k: int, position: int, u: float) -> int:
    """Scalar reservoir skip inversion: smallest gap with ``P(G > g) <= u``.

    Driver-side companion of :func:`reservoir_chain` for per-element
    offers: delegates to the numpy reference search (sequential-product
    order), so a scalar offer consumes exactly the gap the compiled
    chain would have drawn at the same position.  Only valid inside the
    sequential window (``position <= RESERVOIR_SEQ_FACTOR * k``); the
    drivers use their lgamma bisection beyond it.
    """
    from . import _numpy

    return _numpy._reservoir_gap(int(position), int(k), float(u))


def _as_index_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and bool((arr < 0).any()):
        raise ValueError(f"{name} must be non-negative")
    return arr


def counter_u64(key: int, positions, draws) -> np.ndarray:
    """Vectorised counter draws: one uint64 per (position, draw) pair.

    ``positions`` and ``draws`` are non-negative int64 arrays of equal
    length (either may be a scalar, broadcast to the other's length).
    """
    pos = np.asarray(positions, dtype=np.int64)
    drw = np.asarray(draws, dtype=np.int64)
    pos, drw = np.broadcast_arrays(pos, drw)
    pos = _as_index_array(pos, "positions")
    drw = _as_index_array(drw, "draws")
    return get_backend().counter_u64(
        np.uint64(int(key) & _MASK64), pos.view(np.uint64), drw.view(np.uint64)
    )


def counter_u01(key: int, positions, draws) -> np.ndarray:
    """Vectorised counter draws mapped into (0, 1] as float64."""
    pos = np.asarray(positions, dtype=np.int64)
    drw = np.asarray(draws, dtype=np.int64)
    pos, drw = np.broadcast_arrays(pos, drw)
    pos = _as_index_array(pos, "positions")
    drw = _as_index_array(drw, "draws")
    return get_backend().counter_u01(
        np.uint64(int(key) & _MASK64), pos.view(np.uint64), drw.view(np.uint64)
    )


def reservoir_chain(
    key: int, k: int, offered: int, skip: int, m: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the full-reservoir acceptance chain over ``m`` offers.

    Starting from a full size-``k`` reservoir that has seen ``offered``
    offers with ``skip`` rejections pending, returns ``(accepts,
    slots, skip_out)``: the batch offsets accepted, the reservoir slot
    each one replaces (draw 0 at its position), and the rejection
    count left over for the next batch.  Skip lengths are drawn by the
    exact sequential-product inversion of the Vitter skip law, so the
    whole call must stay inside the sequential window —
    ``offered + m <= RESERVOIR_SEQ_FACTOR * k`` — which the sampler
    drivers enforce by splitting batches.
    """
    k = int(k)
    offered = int(offered)
    skip = int(skip)
    m = int(m)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if offered < k:
        raise ValueError(
            f"reservoir_chain requires a full reservoir (offered >= k), "
            f"got offered={offered} k={k}"
        )
    if skip < 0:
        raise ValueError(f"skip must be >= 0, got {skip}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if offered + m > RESERVOIR_SEQ_FACTOR * k:
        raise ValueError(
            f"reservoir_chain window exceeded: offered + m = {offered + m} "
            f"> {RESERVOIR_SEQ_FACTOR} * k = {RESERVOIR_SEQ_FACTOR * k}"
        )
    accepts, slots, skip_out = get_backend().reservoir_chain(
        np.uint64(int(key) & _MASK64), k, offered, skip, m
    )
    return accepts, slots, int(skip_out)


def sampler_segment_counts(values, keys, starts, ends) -> np.ndarray:
    """Per-segment occurrence counts of each key value: ``(b, r)`` int64.

    ``values`` is the raw int64 batch, ``keys`` the sorted distinct
    values being tracked, and ``starts``/``ends`` the half-open segment
    bounds into ``values``.  ``out[s, c]`` counts occurrences of
    ``keys[c]`` in ``values[starts[s]:ends[s]]`` — the suffix-count
    (N_v) maintenance of the sample-count sketch, batched.  Exact
    integer counting, so bit-identity across backends is structural.
    """
    vals = np.ascontiguousarray(values, dtype=np.int64)
    if vals.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {vals.shape}")
    keys_arr = np.ascontiguousarray(keys, dtype=np.int64)
    if keys_arr.ndim != 1:
        raise ValueError(f"keys must be one-dimensional, got shape {keys_arr.shape}")
    if keys_arr.size > 1 and bool((np.diff(keys_arr) <= 0).any()):
        raise ValueError("keys must be strictly increasing")
    starts_arr = np.ascontiguousarray(starts, dtype=np.int64)
    ends_arr = np.ascontiguousarray(ends, dtype=np.int64)
    if starts_arr.shape != ends_arr.shape or starts_arr.ndim != 1:
        raise ValueError("starts and ends must be equal-length 1-D arrays")
    if starts_arr.size:
        if bool((starts_arr < 0).any()) or bool((ends_arr > vals.size).any()):
            raise ValueError("segment bounds outside the values array")
        if bool((ends_arr < starts_arr).any()):
            raise ValueError("segment ends must be >= starts")
    return get_backend().sampler_segment_counts(
        vals, keys_arr, starts_arr, ends_arr
    )


def shard_assign(values, seed: int = 0, num_shards: int = 1) -> np.ndarray:
    """Fused value-hash shard routing: ``splitmix64(v, seed) % shards``.

    Returns int64 shard indices in ``[0, num_shards)`` — the
    :class:`repro.engine.partition.HashPartitioner` inner loop without
    the intermediate hash array on compiled backends.
    """
    num_shards = int(num_shards)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    return get_backend().shard_assign(
        arr.view(np.uint64), _seed_term(seed), num_shards
    )
