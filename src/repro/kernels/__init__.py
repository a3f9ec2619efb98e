"""Compiled ingest kernels behind one dispatch table.

The bulk-ingest hot path of every linear sketch is the same fused
loop: evaluate a Horner polynomial over GF(2^31 - 1) per (counter,
value) pair, fold the product divisionlessly, extract a sign bit or a
digit, and scatter a signed count into the counter state.  The numpy
implementation materialises several ``(s, m)`` uint64 temporaries per
Horner step; this package provides the same kernels *fused* — one
cache-resident pass, no temporaries — behind a backend registry:

* ``numpy`` — always available; the canonical reference whose outputs
  the compiled backend must match **bit for bit** (all kernel math is
  exact integer arithmetic, so equality is exact, not approximate);
* ``cffi`` — a small C library compiled on first use with the host C
  compiler and loaded through ``cffi``'s ABI mode, used when both a
  compiler and cffi are present.

Selection: the ``REPRO_KERNEL_BACKEND`` environment variable
(``auto`` | ``numpy`` | ``cffi``, default ``auto``) or the
programmatic :func:`set_backend`.  ``auto`` prefers cffi, then numpy,
and *silently* falls back — a host without cffi or a C compiler runs
the numpy path unchanged.  An *explicit* request for an unavailable
backend raises :class:`KernelUnavailableError` instead of silently
degrading.

Importing :mod:`repro` (or this package) never imports cffi; the
compiled backend loads lazily on first kernel call or on an explicit
:func:`set_backend`.  The numpy path therefore stays the zero-
dependency oracle, and the property suite asserts compiled == numpy
bit-identity for every registered linear sketch kind.
"""

from .dispatch import (
    RESERVOIR_SEQ_FACTOR,
    KernelUnavailableError,
    active_backend,
    available_backends,
    counter_key,
    counter_u01,
    counter_u01_one,
    counter_u64,
    counter_u64_one,
    fk_scatter,
    fk_update_one,
    kernel_info,
    reservoir_chain,
    reservoir_gap_one,
    sampler_segment_counts,
    set_backend,
    shard_assign,
    splitmix64,
    tugofwar_scatter,
    tugofwar_update_one,
)

__all__ = [
    "KernelUnavailableError",
    "active_backend",
    "available_backends",
    "set_backend",
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
