"""The kernel backend contract: compiled == numpy, bit for bit.

ISSUE 9's acceptance property: every loadable :mod:`repro.kernels`
backend must reproduce the numpy oracle **exactly** — the kernels are
pure integer arithmetic, so the comparison is ``==`` on int64/uint64
arrays, never ``allclose``.  The suite drives the property through
three layers:

* raw kernels (scatter / update-one / splitmix / shard-assign) on
  adversarial inputs — boundary values ``{0, 1, p - 2}``, signed
  deletion batches, batch sizes straddling the 1024 chunk width;
* every registered **linear** sketch kind end to end: the full
  serialised state after a mixed batched + scalar workload must be
  identical under every backend;
* the selection API: env pinning, programmatic :func:`set_backend`,
  loud failure on explicitly requested unavailable backends, and the
  lazy-import guarantee (``import repro`` never pulls in cffi).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.hashing import MERSENNE_PRIME_31, PolynomialHashFamily
from repro.engine.partition import HashPartitioner, stable_hash64
from repro.engine.registry import dump_sketch, sketch_class, sketch_kinds
from repro.kernels import dispatch

SRC = str(Path(__file__).resolve().parent.parent / "src")

COMPILED = [b for b in kernels.available_backends() if b != "numpy"]

LINEAR_KINDS = [k for k in sketch_kinds() if sketch_class(k).is_linear]


@pytest.fixture
def restore_backend():
    """Snapshot and restore the process-global backend selection."""
    prior = kernels.active_backend()
    try:
        yield
    finally:
        kernels.set_backend(prior)


def _build(kind: str):
    """One instance of a linear kind with deterministic parameters."""
    cls = sketch_class(kind)
    if kind == "tugofwar":
        return cls(s1=64, s2=3, seed=11)
    if kind == "fk_moments":
        return cls(k=3, s1=64, s2=3, seed=11)
    if kind == "frequency":
        return cls()
    return cls(s1=64, s2=3, seed=11)


def _coeffs(count: int, independence: int, seed: int) -> np.ndarray:
    return PolynomialHashFamily(count, independence, seed=seed).coefficients


# ----------------------------------------------------------------------
# Raw-kernel bit-identity (property-based)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("size", [1, 7, 1023, 1024, 1025])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_tugofwar_scatter_bit_identity(
    restore_backend, backend, size, degree
):
    """Compiled scatter == numpy scatter on boundary-heavy batches."""
    coeffs = _coeffs(96, degree, seed=3)
    rng = np.random.default_rng(size * degree)
    values = rng.integers(0, MERSENNE_PRIME_31, size=size, dtype=np.uint64)
    boundary = np.array([0, 1, MERSENNE_PRIME_31 - 2], dtype=np.uint64)
    values[: min(size, 3)] = boundary[: min(size, 3)]
    counts = rng.integers(-9, 10, size=size, dtype=np.int64)

    kernels.set_backend("numpy")
    z_ref = np.zeros(96, dtype=np.int64)
    kernels.tugofwar_scatter(coeffs, values, counts, z_ref)

    kernels.set_backend(backend)
    z = np.zeros(96, dtype=np.int64)
    kernels.tugofwar_scatter(coeffs, values, counts, z)
    assert (z == z_ref).all()


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_fk_scatter_bit_identity(restore_backend, backend, k):
    """Compiled digit scatter == numpy for several moduli."""
    coeffs = _coeffs(64, max(k, 4), seed=5)
    rng = np.random.default_rng(k)
    values = rng.integers(0, MERSENNE_PRIME_31, size=1025, dtype=np.uint64)
    values[:3] = (0, 1, MERSENNE_PRIME_31 - 2)
    counts = rng.integers(-9, 10, size=1025, dtype=np.int64)

    kernels.set_backend("numpy")
    c_ref = np.zeros((64, k), dtype=np.int64)
    kernels.fk_scatter(coeffs, values, counts, c_ref, k)

    kernels.set_backend(backend)
    c = np.zeros((64, k), dtype=np.int64)
    kernels.fk_scatter(coeffs, values, counts, c, k)
    assert (c == c_ref).all()


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(0, MERSENNE_PRIME_31 - 1), min_size=1, max_size=40
    ),
    counts_seed=st.integers(0, 2**31 - 1),
    seed=st.integers(0, 2**31 - 1),
)
def test_scatter_property_all_backends(values, counts_seed, seed):
    """Hypothesis sweep: random batches agree across every backend."""
    coeffs = _coeffs(32, 4, seed=seed)
    vals = np.asarray(values, dtype=np.uint64)
    counts = np.random.default_rng(counts_seed).integers(
        -5, 6, size=vals.size, dtype=np.int64
    )
    prior = kernels.active_backend()
    try:
        kernels.set_backend("numpy")
        z_ref = np.zeros(32, dtype=np.int64)
        kernels.tugofwar_scatter(coeffs, vals, counts, z_ref)
        c_ref = np.zeros((32, 3), dtype=np.int64)
        kernels.fk_scatter(coeffs, vals, counts, c_ref, 3)
        for backend in COMPILED:
            kernels.set_backend(backend)
            z = np.zeros(32, dtype=np.int64)
            kernels.tugofwar_scatter(coeffs, vals, counts, z)
            assert (z == z_ref).all()
            c = np.zeros((32, 3), dtype=np.int64)
            kernels.fk_scatter(coeffs, vals, counts, c, 3)
            assert (c == c_ref).all()
    finally:
        kernels.set_backend(prior)


@pytest.mark.parametrize("backend", COMPILED)
def test_update_one_matches_scatter(restore_backend, backend):
    """The scalar fast path equals a one-element batch, per backend."""
    coeffs = _coeffs(48, 4, seed=9)
    kernels.set_backend(backend)
    for value in (0, 1, 12345, MERSENNE_PRIME_31 - 2):
        for count in (1, -1, 7, -7):
            z_one = np.zeros(48, dtype=np.int64)
            kernels.tugofwar_update_one(coeffs, value, count, z_one)
            z_batch = np.zeros(48, dtype=np.int64)
            kernels.tugofwar_scatter(
                coeffs,
                np.array([value], dtype=np.uint64),
                np.array([count], dtype=np.int64),
                z_batch,
            )
            assert (z_one == z_batch).all()

            c_one = np.zeros((48, 3), dtype=np.int64)
            kernels.fk_update_one(coeffs, value, count, c_one, 3)
            c_batch = np.zeros((48, 3), dtype=np.int64)
            kernels.fk_scatter(
                coeffs,
                np.array([value], dtype=np.uint64),
                np.array([count], dtype=np.int64),
                c_batch,
                3,
            )
            assert (c_one == c_batch).all()


@pytest.mark.parametrize("backend", COMPILED)
def test_splitmix_and_shard_assign_bit_identity(restore_backend, backend):
    """Partitioner kernels agree across backends, negatives included."""
    rng = np.random.default_rng(17)
    values = rng.integers(-(2**62), 2**62, size=4097, dtype=np.int64)
    for seed in (0, 1, -3, 2**40):
        kernels.set_backend("numpy")
        h_ref = kernels.splitmix64(values, seed=seed)
        a_ref = kernels.shard_assign(values, seed=seed, num_shards=7)
        kernels.set_backend(backend)
        assert (kernels.splitmix64(values, seed=seed) == h_ref).all()
        assert (
            kernels.shard_assign(values, seed=seed, num_shards=7) == a_ref
        ).all()


def test_stable_hash64_dispatches_to_kernels(restore_backend):
    """The engine's stable_hash64 and the kernel agree on every backend."""
    values = np.array([0, 1, -1, 2**40, -(2**40)], dtype=np.int64)
    reference = stable_hash64(values, seed=4)
    part_ref = HashPartitioner(5, seed=4).assign(values)
    for backend in kernels.available_backends():
        kernels.set_backend(backend)
        assert (stable_hash64(values, seed=4) == reference).all()
        assert (HashPartitioner(5, seed=4).assign(values) == part_ref).all()
    assert (part_ref == (reference % np.uint64(5)).astype(np.int64)).all()


# ----------------------------------------------------------------------
# End-to-end: every linear sketch kind, full state identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_kind_state_identical_across_backends(
    restore_backend, backend, kind
):
    """A mixed batched + scalar workload serialises identically."""
    rng = np.random.default_rng(23)
    values = rng.integers(0, 50_000, size=1500, dtype=np.int64)
    values[:3] = (0, 1, MERSENNE_PRIME_31 - 2)
    counts = rng.integers(1, 6, size=1500, dtype=np.int64)
    signed = counts.copy()
    signed[1::5] *= -1

    def workload():
        sketch = _build(kind)
        sketch.update_from_frequencies(values, counts)  # all-positive base
        sketch.update_from_frequencies(values, signed)  # signed deltas
        sketch.insert(12345)
        sketch.update(777, 3)
        sketch.delete(12345)
        return dump_sketch(sketch)

    kernels.set_backend("numpy")
    reference = workload()
    kernels.set_backend(backend)
    assert workload() == reference


@pytest.mark.parametrize("kind", ["tugofwar", "fk_moments"])
def test_scalar_path_matches_batched_path(restore_backend, kind):
    """insert/delete/update equal one update_from_frequencies call."""
    for backend in kernels.available_backends():
        kernels.set_backend(backend)
        scalar = _build(kind)
        for v in (5, 6, 6, 7, 7, 7):
            scalar.insert(v)
        scalar.delete(7)
        scalar.update(9, 4)
        batched = _build(kind)
        batched.update_from_frequencies([5, 6, 7, 9], [1, 2, 2, 4])
        assert dump_sketch(scalar) == dump_sketch(batched)


# ----------------------------------------------------------------------
# Selection API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fortran", "numba"])
def test_unknown_backend_name_raises(restore_backend, name):
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.set_backend(name)


def test_explicit_unavailable_backend_raises(tmp_path):
    """With no C compiler to build its library, an explicit ``cffi``
    request raises the typed error and ``auto`` falls back to numpy.

    A subprocess: ``CC`` unset, an empty directory as ``PATH`` and an
    empty kernel cache leave nothing to compile or load, on any host.
    """
    reason = (
        "no C compiler found"
        if importlib.util.find_spec("cffi")
        else "No module named 'cffi'"
    )
    out = _run_py(
        "from repro import kernels\n"
        "try:\n"
        "    kernels.set_backend('cffi')\n"
        "except kernels.KernelUnavailableError as exc:\n"
        "    print(exc)\n"
        "print(kernels.set_backend('auto'))\n",
        CC=None,
        PATH=str(tmp_path),
        REPRO_KERNEL_CACHE=str(tmp_path / "cache"),
    )
    refusal, resolved = out.strip().splitlines()
    assert refusal.startswith("kernel backend 'cffi' is not available")
    assert reason in refusal
    assert resolved == "numpy"


def test_set_backend_returns_resolved_name(restore_backend):
    assert kernels.set_backend("numpy") == "numpy"
    resolved = kernels.set_backend("auto")
    assert resolved in dispatch.BACKEND_NAMES
    assert kernels.active_backend() == resolved


def test_kernel_info_shape(restore_backend):
    info = kernels.kernel_info(probe=True)
    assert info["active"] in dispatch.BACKEND_NAMES
    assert info["requested"] in ("auto",) + dispatch.BACKEND_NAMES
    assert "numpy" in info["available"]
    assert isinstance(info["load_errors"], dict)
    json.dumps(info)  # JSON-compatible for banners and --json summaries


def test_out_of_domain_values_rejected(restore_backend):
    coeffs = _coeffs(8, 4, seed=1)
    z = np.zeros(8, dtype=np.int64)
    bad = np.array([MERSENNE_PRIME_31], dtype=np.uint64)
    with pytest.raises(ValueError, match="outside the field"):
        kernels.tugofwar_scatter(
            coeffs, bad, np.array([1], dtype=np.int64), z
        )
    with pytest.raises(ValueError, match="outside hashable domain"):
        kernels.tugofwar_update_one(coeffs, MERSENNE_PRIME_31, 1, z)
    with pytest.raises(ValueError, match="outside hashable domain"):
        kernels.fk_update_one(
            coeffs, -1, 1, np.zeros((8, 3), dtype=np.int64), 3
        )


@pytest.mark.parametrize("values", [
    [-1],  # a list: numpy's uint64 cast overflows
    np.array([4, -1], dtype=np.int64),  # an array: -1 wraps past p
])
def test_negative_values_named_in_refusal(restore_backend, values):
    coeffs = _coeffs(8, 4, seed=1)
    z = np.zeros(8, dtype=np.int64)
    counts = np.ones(np.size(values), dtype=np.int64)
    domain = r"values contain -1, outside the field \[0, 2147483647\)"
    with pytest.raises(ValueError, match=domain):
        kernels.tugofwar_scatter(coeffs, values, counts, z)
    with pytest.raises(ValueError, match=domain):
        kernels.fk_scatter(
            coeffs, values, counts, np.zeros((8, 3), dtype=np.int64), 3
        )
    assert not z.any()


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_scalar_update_refuses_state_of_another_shape(backend):
    """The scalar dispatchers check the state shape, as the scatters do.

    Without the check a 320-row family over 8 counters wrote past the
    counter buffer under cffi, so this runs in a subprocess: a missing
    check fails the test with the child's exit, not the whole suite.
    """
    out = _run_py(
        "import numpy as np\n"
        "from repro import kernels\n"
        "from repro.core.hashing import PolynomialHashFamily\n"
        f"kernels.set_backend({backend!r})\n"
        "cf = PolynomialHashFamily(320, 4, seed=5).coefficients\n"
        "calls = [\n"
        "    lambda: kernels.tugofwar_update_one(\n"
        "        cf, 7, 1, np.zeros(8, dtype=np.int64)),\n"
        "    lambda: kernels.fk_update_one(\n"
        "        cf, 7, 1, np.zeros((8, 3), dtype=np.int64), 3),\n"
        "    lambda: kernels.fk_update_one(\n"
        "        cf, 7, 1, np.zeros((320, 0), dtype=np.int64), 0),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('refused:', exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "must have shape (320,)" in lines[0]
    assert "must have shape (320, 3)" in lines[1]
    assert "k must be >= 1" in lines[2]


@pytest.mark.skipif("cffi" not in COMPILED, reason="cffi does not load here")
def test_cffi_kernels_read_read_only_buffers(restore_backend):
    """Each cffi kernel that reads arrays takes read-only ones, as
    ingest hands them over: the views of a wire ingest payload and a
    shared family's coefficient matrix."""
    from repro.service import wire

    rng = np.random.default_rng(23)
    _, vals, counts, _ = wire.unpack_ingest(wire.pack_ingest(
        0, rng.integers(0, 1000, size=257), rng.integers(-3, 4, size=257)
    ))
    coeffs = _coeffs(64, 4, seed=9)
    values = vals.view(np.uint64)
    keys = np.unique(vals)[::3]
    bounds = np.array([0, 100, 257], dtype=np.int64)
    for arr in (keys, bounds):
        arr.flags.writeable = False
    for arr in (coeffs, vals, values, counts, keys, bounds):
        assert not arr.flags.writeable
    # Dispatch hands these arrays on as they are, not writable copies.
    assert dispatch._as_domain_values(values) is values
    assert dispatch._as_counts(counts, counts.size) is counts

    def run():
        z = np.zeros(64, dtype=np.int64)
        kernels.tugofwar_scatter(coeffs, values, counts, z)
        digits = np.zeros((64, 3), dtype=np.int64)
        kernels.fk_scatter(coeffs, values, counts, digits, 3)
        return [
            z,
            digits,
            kernels.splitmix64(vals, seed=3),
            kernels.shard_assign(vals, seed=3, num_shards=5),
            kernels.counter_u64(11, vals, vals),
            kernels.counter_u01(11, vals, vals),
            kernels.sampler_segment_counts(
                vals, keys, bounds[:-1], bounds[1:]
            ),
        ]

    kernels.set_backend("numpy")
    expected = run()
    kernels.set_backend("cffi")
    for got, want in zip(run(), expected):
        assert got.dtype == want.dtype and (got == want).all()


def test_empty_batch_is_a_noop(restore_backend):
    coeffs = _coeffs(8, 4, seed=1)
    z = np.zeros(8, dtype=np.int64)
    kernels.tugofwar_scatter(
        coeffs,
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.int64),
        z,
    )
    assert (z == 0).all()


# ----------------------------------------------------------------------
# Lazy-import and env-pinning guarantees (subprocess: clean sys.modules)
# ----------------------------------------------------------------------
def _run_py(code: str, **env_overrides) -> str:
    """Run ``code`` in a fresh interpreter; an override of None unsets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(dispatch.ENV_VAR, None)
    env.update(env_overrides)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout


def test_import_repro_never_imports_compiled_backends():
    """Plain ``import repro`` must not pull in cffi."""
    out = _run_py(
        "import sys, repro\n"
        "import repro.core.tugofwar, repro.engine.partition\n"
        "loaded = [m for m in sys.modules\n"
        "          if m == 'cffi' or m.startswith('cffi.')\n"
        "          or m.endswith('kernels._cffi')]\n"
        "print(loaded)\n"
    )
    assert out.strip() == "[]"


def test_env_numpy_disables_compiled_backends():
    """REPRO_KERNEL_BACKEND=numpy runs pure numpy, no compiled kernel."""
    out = _run_py(
        "import sys\n"
        "from repro.core.tugofwar import TugOfWarSketch\n"
        "from repro.kernels import active_backend\n"
        "sk = TugOfWarSketch(s1=16, s2=1, seed=1)\n"
        "sk.update_from_frequencies([1, 2, 3], [1, -1, 2])\n"
        "sk.insert(9)\n"
        "print(active_backend())\n"
        "print([m for m in sys.modules\n"
        "       if m.endswith('kernels._cffi')])\n",
        REPRO_KERNEL_BACKEND="numpy",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "numpy"
    assert lines[1] == "[]"


def test_env_selects_backend():
    """An explicit env pin resolves to exactly that backend."""
    for backend in kernels.available_backends():
        out = _run_py(
            "from repro.kernels import active_backend\n"
            "print(active_backend())\n",
            REPRO_KERNEL_BACKEND=backend,
        )
        assert out.strip() == backend
