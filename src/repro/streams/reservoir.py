"""Reservoir sampling with the skipping technique of [Vit85].

Sample-count's O(1)-amortised update bound rests on treating each of
its s sample slots as an independent size-1 reservoir and, instead of
flipping a coin per insertion, drawing the *next position at which the
reservoir accepts* directly from the skip distribution.  This module
provides:

* :class:`SingleReservoir` — a size-1 reservoir exposing both the
  coin-flip and the skipping interface.  The skipping law for a
  reservoir currently holding position m is ``P(next > x) = m / x``
  (survive positions m+1..x), inverted as ``ceil(m / u)`` for u uniform
  on (0, 1].
* :class:`ReservoirSample` — a classic size-k uniform
  without-replacement reservoir (Algorithm R with an Algorithm-L style
  geometric skip once the reservoir is full), used by the
  naive-sampling tracker.

Both are deterministic given their seed, which the tests exploit.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.engine.registry import SketchPayloadError
from repro.kernels import (
    RESERVOIR_SEQ_FACTOR,
    counter_key,
    counter_u01_one,
    counter_u64_one,
    reservoir_chain,
    reservoir_gap_one,
)

__all__ = [
    "SingleReservoir",
    "ReservoirSample",
    "skip_length",
]


def _fresh_seed() -> int:
    """An entropy-derived 64-bit seed for unseeded counter reservoirs."""
    return int(np.random.SeedSequence().entropy) & ((1 << 64) - 1)


def _require_counter_rng(payload: dict, scheme_field: str) -> None:
    """Refuse a sampler snapshot that does not use the counter RNG.

    Snapshots written before the samplers moved to the counter RNG
    embed a numpy PCG64 state under ``rng``; no code continues that
    sequence, so such payloads (and any scheme other than ``counter``)
    raise :class:`SketchPayloadError` rather than load.
    """
    scheme = payload.get(scheme_field, "counter")
    if "rng" in payload or scheme != "counter":
        found = "a PCG64 'rng' state" if "rng" in payload else f"RNG scheme {scheme!r}"
        raise SketchPayloadError(
            f"sampler snapshot carries {found}; only counter-RNG snapshots "
            "load, so rebuild the sketch from the stream"
        )


def skip_length(current: int, u: float) -> int:
    """Next accepting position for a size-1 reservoir at position ``current``.

    Given u uniform on (0, 1], returns M with ``P(M > x) = current / x``
    for integers x >= current — the exact law of "replace position
    current by n+1 with probability 1/(n+1), by n+2 with probability
    (1 - 1/(n+1)) / (n+2), ...".  Clamped to ``current + 1`` (the event
    M == current has probability zero).
    """
    if current < 1:
        raise ValueError(f"current position must be >= 1, got {current}")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must be in (0, 1], got {u}")
    return max(current + 1, math.ceil(current / u))


class SingleReservoir:
    """A size-1 uniform reservoir over a stream of unknown length.

    After ``offer``-ing n items, :attr:`item` is a uniformly random one
    of them.  :meth:`next_accept_position` exposes the skipping draw so
    callers (sample-count) can schedule replacements ahead of time
    instead of offering every element.
    """

    __slots__ = ("_rng", "_count", "_item")

    def __init__(self, seed: int | None = None):
        self._rng = np.random.default_rng(seed)
        self._count = 0
        self._item = None

    def offer(self, item) -> bool:
        """Offer one stream element; returns True if it was accepted."""
        self._count += 1
        if self._count == 1 or self._rng.random() < 1.0 / self._count:
            self._item = item
            return True
        return False

    def next_accept_position(self) -> int:
        """Draw the next (1-based) position this reservoir will accept.

        Only meaningful once at least one element has been offered.
        The internal count advances to the returned position minus one,
        so the caller is expected to offer exactly that element next
        (via :meth:`accept_scheduled`).
        """
        if self._count == 0:
            raise ValueError("reservoir is empty; offer an element first")
        nxt = skip_length(self._count, 1.0 - float(self._rng.random()))
        self._count = nxt - 1
        return nxt

    def accept_scheduled(self, item) -> None:
        """Install the element at the position promised by the skip draw."""
        self._count += 1
        self._item = item

    @property
    def item(self):
        """The current sample (None before any offer)."""
        return self._item

    @property
    def seen(self) -> int:
        """Number of stream positions accounted for so far."""
        return self._count


class ReservoirSample:
    """A size-k uniform without-replacement reservoir (Algorithm R + skips).

    The first k offers fill the reservoir; afterwards element n
    replaces a uniformly random slot with probability k/n.  Once full,
    a skip counter (drawn from the exact acceptance law via sequential
    search on the product form) batches the rejected offers so the
    amortised per-offer cost is O(k/n) random draws — the [Vit85]
    optimisation naive-sampling relies on for cheap tracking.

    Every draw comes from the counter RNG of :mod:`repro.kernels`,
    keyed by stream position, which is what lets bulk offers run
    through the compiled kernels and land on the scalar loop's state.
    """

    __slots__ = ("k", "seed", "_key", "_items", "_offered", "_skip")

    def __init__(self, k: int, seed: int | None = None):
        if k < 1:
            raise ValueError(f"reservoir size k must be >= 1, got {k}")
        self.k = int(k)
        self.seed = _fresh_seed() if seed is None else int(seed)
        self._key = counter_key(self.seed)
        self._items: List = []
        self._offered = 0
        self._skip = 0  # offers to reject before the next acceptance

    def _lgamma_gap(self, n: int, u: float) -> int:
        """Skip inversion by bisection on the log-gamma closed form.

        Used once the stream dwarfs the sequential window (reachable
        through :meth:`offer_repeated` histogram entries with huge
        counts), where the sequential product would iterate once per
        skipped position.  libm's ``lgamma`` is not bit-stable across
        toolchains, so this branch stays in Python — the regime switch
        is a pure function of (n, k), so every backend agrees on which
        branch a position takes.
        """
        # log P(G > g) = lgamma-form of the survival product (monotone in g).
        log_u = math.log(u) if u > 0.0 else -800.0
        base = math.lgamma(n + 1) - math.lgamma(n + 1 - self.k)

        def log_survive(g: int) -> float:
            return math.lgamma(n + g + 1 - self.k) - math.lgamma(n + g + 1) + base

        hi = 1
        while log_survive(hi) > log_u:
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if log_survive(mid) <= log_u:
                hi = mid
            else:
                lo = mid
        return hi - 1  # smallest m with P(G > m) <= u, minus one

    def _draw_skip(self) -> int:
        """Number of offers to skip before the next acceptance.

        Uses the distribution of Vitter's Algorithm X: starting at
        stream position n (just accepted), the gap G satisfies
        ``P(G > g) = prod_{j=1..g} (n + j - k) / (n + j)``, inverted
        against a single uniform draw.

        Two regimes, one uniform consumed either way: while the
        expected gap ``n / k`` is modest, the kernel-exact sequential
        search shared with :func:`repro.kernels.reservoir_chain`;
        beyond the sequential window, the lgamma bisection.
        """
        n = self._offered
        u = counter_u01_one(self._key, n, 1)
        if n <= RESERVOIR_SEQ_FACTOR * self.k:
            return reservoir_gap_one(self.k, n, u)
        return self._lgamma_gap(n, u)

    def _draw_slot(self) -> int:
        """The reservoir slot replaced by the acceptance at ``offered``."""
        return counter_u64_one(self._key, self._offered, 0) % self.k

    def offer(self, item) -> bool:
        """Offer one stream element; returns True if it entered the sample."""
        if len(self._items) < self.k:
            self._items.append(item)
            self._offered += 1
            if len(self._items) == self.k:
                self._skip = self._draw_skip()
            return True
        if self._skip > 0:
            self._skip -= 1
            self._offered += 1
            return False
        # Accept: replace a uniform slot, then draw the next gap.
        self._offered += 1
        slot = self._draw_slot()
        self._items[slot] = item
        self._skip = self._draw_skip()
        return True

    def extend(self, items: Iterable) -> None:
        """Offer every element of an iterable."""
        for item in items:
            self.offer(item)

    def offer_array(self, values: np.ndarray) -> None:
        """Offer a whole int64 array through the compiled chain kernel.

        The full-reservoir stretch dispatches to
        :func:`repro.kernels.reservoir_chain`, which returns every
        accepted (offset, slot) pair in one compiled pass.  Batches
        crossing the sequential window are split at the boundary;
        beyond it the Python loop jumps between acceptances with
        lgamma-drawn gaps.  Draw-for-draw identical to offering every
        element through :meth:`offer`.
        """
        arr = np.ascontiguousarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
        i = 0
        n = arr.size
        # Fill phase: the first k offers are always accepted.
        while i < n and len(self._items) < self.k:
            self._items.append(int(arr[i]))
            self._offered += 1
            i += 1
            if len(self._items) == self.k:
                self._skip = self._draw_skip()
        window_end = RESERVOIR_SEQ_FACTOR * self.k
        while i < n:
            window = window_end - self._offered
            remaining = n - i
            if window > 0:
                span = min(window, remaining)
                accepts, slots, skip = reservoir_chain(
                    self._key, self.k, self._offered, self._skip, span
                )
                for off, slot in zip(accepts.tolist(), slots.tolist()):
                    self._items[slot] = int(arr[i + off])
                self._offered += span
                self._skip = skip
                i += span
                continue
            # Beyond the sequential window: arithmetic jumps, lgamma gaps.
            if self._skip >= remaining:
                self._skip -= remaining
                self._offered += remaining
                return
            i += self._skip
            self._offered += self._skip
            self._offered += 1
            slot = self._draw_slot()
            self._items[slot] = int(arr[i])
            self._skip = self._draw_skip()
            i += 1

    @property
    def items(self) -> List:
        """The current sample contents (length min(k, offered))."""
        return list(self._items)

    @property
    def offered(self) -> int:
        """Total number of elements offered so far."""
        return self._offered

    def offer_repeated(self, item, count: int) -> None:
        """Offer ``count`` copies of one item without materialising them.

        Identical (draw for draw) to calling :meth:`offer` ``count``
        times with the same item, but costs only the O(k log(n/k))
        accepted positions — a billion-copy histogram entry folds in
        without a billion-element expansion.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        while count and len(self._items) < self.k:
            self._items.append(item)
            self._offered += 1
            count -= 1
            if len(self._items) == self.k:
                self._skip = self._draw_skip()
        while count:
            if self._skip >= count:
                self._skip -= count
                self._offered += count
                return
            count -= self._skip + 1
            self._offered += self._skip + 1
            slot = self._draw_slot()
            self._items[slot] = item
            self._skip = self._draw_skip()

    def to_dict(self) -> dict:
        """Serialise the reservoir (items, counters, RNG cursor).

        The seed is the whole RNG cursor, since draws are keyed by the
        (offered, skip) position already stored.
        """
        return {
            "k": self.k,
            "items": list(self._items),
            "offered": self._offered,
            "skip": self._skip,
            "scheme": "counter",
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReservoirSample":
        """Reconstruct a reservoir from :meth:`to_dict` output.

        The RNG cursor is restored too, so continued streaming matches
        the original bit for bit.  Payloads that do not use the counter
        RNG, or whose counters contradict each other, raise
        :class:`SketchPayloadError`.
        """
        _require_counter_rng(payload, "scheme")
        reservoir = cls(int(payload["k"]), seed=int(payload["seed"]))
        items = list(payload["items"])
        offered = int(payload["offered"])
        skip = int(payload["skip"])
        if len(items) > reservoir.k:
            raise SketchPayloadError(
                f"reservoir holds {len(items)} items, more than k={reservoir.k}"
            )
        if skip < 0:
            raise SketchPayloadError(f"reservoir skip must be >= 0, got {skip}")
        if offered < len(items):
            raise SketchPayloadError(
                f"reservoir offered {offered} is below its {len(items)} items"
            )
        reservoir._items = items
        reservoir._offered = offered
        reservoir._skip = skip
        return reservoir

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReservoirSample(k={self.k}, offered={self._offered})"
