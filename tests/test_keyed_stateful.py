"""Stateful test of a served keyed fleet of sparse-first rows (hypothesis).

A ``RuleBasedStateMachine`` drives ``SketchService(KeyedSketchStore)``
with signed, out-of-order multi-key ingest, refused batches (into a
held bucket, a new bucket and a new key), compaction, eviction,
snapshot/restore and strict or outer ``estimate``/``sketch`` queries.
Its model is the exact net histogram of every (key, bucket) and the
span list of every key.  The specs are small (a bucket holds its
histogram until it has 3 to 6 distinct values), so rows cross from
sparse to dense within a few values, and every answer must equal a
fresh sketch fed the model's window: counters, ``n`` and estimate, bit
for bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service import SketchService
from repro.store import (
    BucketLayout,
    KeyedSketchStore,
    SketchSpec,
    WindowAlignmentError,
)
from repro.store.buckets import SparseRow

WIDTH = 10
BUCKETS = 8
KEYS = ("a", "b", "c")
LAYOUT = BucketLayout(WIDTH)

event = st.tuples(
    st.integers(0, BUCKETS - 1),  # bucket
    st.integers(0, WIDTH - 1),  # offset inside it
    st.integers(0, 9),  # value
    st.integers(1, 3),  # count
)


class FleetMachine(RuleBasedStateMachine):
    spec: SketchSpec

    def __init__(self):
        super().__init__()
        self.service = SketchService(
            KeyedSketchStore(self.spec, bucket_width=WIDTH), cache_entries=16
        )
        self.hist: dict[tuple[str, int], dict[int, int]] = {}
        self.spans: dict[str, list[tuple[int, int]]] = {}

    # -- model ----------------------------------------------------------
    def _covered(self, key: str, bucket: int) -> bool:
        return any(s <= bucket < e for s, e in self.spans.get(key, []))

    def _window(self, key: str, b0: int, b1: int) -> tuple[list, list]:
        totals: dict[int, int] = {}
        for (k, b), hist in self.hist.items():
            if k == key and b0 <= b < b1:
                for v, c in hist.items():
                    totals[v] = totals.get(v, 0) + c
        live = sorted(v for v, c in totals.items() if c)
        return live, [totals[v] for v in live]

    def _reference(self, key: str, lo: int, hi: int):
        sketch = self.spec.build()
        values, counts = self._window(key, lo // WIDTH, hi // WIDTH)
        if values:
            sketch.update_from_frequencies(values, counts)
        return sketch

    # -- mutations ------------------------------------------------------
    @rule(
        key=st.sampled_from(KEYS),
        events=st.lists(event, min_size=1, max_size=12),
        deletes=st.lists(st.integers(0, 10_000), max_size=4),
        counted=st.booleans(),
    )
    def ingest(self, key, events, deletes, counted):
        ts = [b * WIDTH + off for b, off, _, _ in events]
        values = [v for _, _, v, _ in events]
        counts = [c if counted else 1 for *_, c in events]
        live = [
            [b, v, c]
            for (k, b), hist in sorted(self.hist.items())
            if k == key
            for v, c in sorted(hist.items())
            if c > 0
        ]
        for pick in deletes:  # each reverses a distinct live insert
            live = [entry for entry in live if entry[2] > 0]
            if not live:
                break
            entry = live[pick % len(live)]
            entry[2] -= 1
            ts.append(entry[0] * WIDTH + pick % WIDTH)
            values.append(entry[1])
            counts.append(-1)
        signed = counted or len(counts) > len(events)
        self.service.ingest(
            ts, values, counts=counts if signed else None, key=key
        )
        spans = self.spans.setdefault(key, [])
        for t, v, c in zip(ts, values, counts):
            bucket = t // WIDTH
            if not self._covered(key, bucket):
                spans.append((bucket, bucket + 1))
                spans.sort()
            hist = self.hist.setdefault((key, bucket), {})
            hist[v] = hist.get(v, 0) + c

    def _observed(self) -> tuple:
        fleet = self.service._store
        return (
            {key: fleet.store_for(key).bucket_spans for key in fleet.keys},
            fleet.memory_words,
            json.dumps(fleet.to_dict()),
            [self.service.estimate(0, BUCKETS * WIDTH, "outer", key=k)
             for k in KEYS],
        )

    def _refuse(self, key: str, bucket: int, bad: int) -> None:
        # The batch's first bucket group is refused, so nothing changes:
        # not the keys, spans, words or any answer, and the later group
        # in the last bucket is not applied either.
        before = self._observed()
        with pytest.raises(ValueError, match="outside the field"):
            self.service.ingest(
                [bucket * WIDTH] * 3 + [(BUCKETS - 1) * WIDTH],
                [1, 2, bad, 3], key=key,
            )
        assert self._observed() == before

    def _new_buckets(self, key: str) -> list[int]:
        return [b for b in range(BUCKETS) if not self._covered(key, b)]

    @precondition(lambda self: any(self.spans.values()))
    @rule(data=st.data())
    def refused_ingest(self, data):
        # Into a bucket the key already holds: the row must be left
        # exactly as it was.
        key = data.draw(st.sampled_from(sorted(k for k, s in self.spans.items() if s)))
        start, _ = data.draw(st.sampled_from(self.spans[key]))
        self._refuse(key, start, data.draw(st.sampled_from([-1, 2147483647])))

    @precondition(
        lambda self: any(map(self._new_buckets, self.service._store.keys))
    )
    @rule(data=st.data())
    def refused_ingest_into_a_new_bucket(self, data):
        keys = [k for k in self.service._store.keys if self._new_buckets(k)]
        key = data.draw(st.sampled_from(keys))
        bucket = data.draw(st.sampled_from(self._new_buckets(key)))
        self._refuse(key, bucket, data.draw(st.sampled_from([-1, 2147483647])))

    @precondition(lambda self: set(KEYS) - set(self.service._store.keys))
    @rule(data=st.data())
    def refused_ingest_into_a_new_key(self, data):
        keys = sorted(set(KEYS) - set(self.service._store.keys))
        key = data.draw(st.sampled_from(keys))
        bucket = data.draw(st.integers(0, BUCKETS - 1))
        self._refuse(key, bucket, data.draw(st.sampled_from([-1, 2147483647])))

    @rule(key=st.one_of(st.none(), st.sampled_from(KEYS)),
          before=st.integers(0, BUCKETS))
    def compact(self, key, before):
        self.service.compact(before=before * WIDTH, key=key)
        for k in [key] if key is not None else list(self.spans):
            spans = self.spans.get(k, [])
            old = [s for s in spans if s[1] <= before]
            if len(old) >= 2:
                kept = [s for s in spans if s[1] > before]
                merged = (min(s for s, _ in old), max(e for _, e in old))
                self.spans[k] = sorted(kept + [merged])

    @rule(key=st.one_of(st.none(), st.sampled_from(KEYS)),
          before=st.integers(0, BUCKETS))
    def evict(self, key, before):
        self.service.evict(before * WIDTH, key=key)
        for k in [key] if key is not None else list(self.spans):
            gone = [s for s in self.spans.get(k, []) if s[1] <= before]
            self.spans[k] = [s for s in self.spans.get(k, []) if s[1] > before]
            for s, e in gone:
                for b in range(s, e):
                    self.hist.pop((k, b), None)

    @rule(key=st.one_of(st.none(), st.sampled_from(KEYS)))
    def snapshot_restore(self, key):
        payload = json.loads(json.dumps(self.service.snapshot(key)))
        self.service.restore(payload, key=key)
        if key is not None:
            self.spans.setdefault(key, [])

    # -- queries --------------------------------------------------------
    @rule(
        key=st.sampled_from(KEYS),
        start=st.integers(-1, BUCKETS),
        offset=st.sampled_from([0, 0, 0, 4]),
        length=st.integers(1, BUCKETS + 1),
        align=st.sampled_from(["strict", "outer"]),
        fetch_sketch=st.booleans(),
    )
    def query(self, key, start, offset, length, align, fetch_sketch):
        t0 = start * WIDTH + offset
        t1 = (start + length) * WIDTH
        try:
            lo, hi = LAYOUT.align_spans(t0, t1, align, self.spans.get(key, []))
        except WindowAlignmentError:
            with pytest.raises(WindowAlignmentError):
                self.service.estimate(t0, t1, align, key=key)
            return
        want = self._reference(key, lo, hi)
        if fetch_sketch:
            got, got_lo, got_hi = self.service.sketch_window(
                t0, t1, align, key=key
            )
            assert (got_lo, got_hi) == (lo, hi)
            assert got.n == want.n
            assert np.array_equal(got.counters, want.counters)
        else:
            assert self.service.estimate(t0, t1, align, key=key) == float(
                want.estimate()
            )

    # -- invariants -----------------------------------------------------
    @invariant()
    def spans_rows_and_items_match_the_model(self):
        fleet = self.service._store
        dense_words = self.spec.memory_words
        items = {}
        for key in fleet.keys:
            store = fleet.store_for(key)
            assert store.bucket_spans == self.spans.get(key, [])
            words = 0
            for span in store._spans:
                values, counts = self._window(key, span.start, span.end)
                if isinstance(span.row, SparseRow):
                    # A sparse row holds exactly the model's histogram,
                    # and only while it is smaller than the sketch.
                    assert span.row.values.tolist() == values
                    assert span.row.counts.tolist() == counts
                    assert 2 * len(values) < dense_words
                    words += 2 * len(values)
                else:
                    words += dense_words
            assert store.memory_words == words
            items[key] = sum(
                c for (k, _), hist in self.hist.items() if k == key
                for c in hist.values()
            )
        assert self.service.stats()["items_by_key"] == items


STATE = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


def machine_test(spec: SketchSpec):
    """The unittest case running :class:`FleetMachine` over ``spec``."""
    case = type(f"{spec.kind}Machine", (FleetMachine,), {"spec": spec}).TestCase
    case.settings = STATE
    return case


TestTugOfWarFleet = machine_test(
    SketchSpec("tugofwar", {"s1": 4, "s2": 3, "seed": 2})  # 12 words: 6 values
)
TestFkMomentsFleet = machine_test(
    SketchSpec("fk_moments", {"k": 3, "s1": 2, "s2": 1, "seed": 2})  # 6: 3 values
)
TestF0Fleet = machine_test(
    SketchSpec("f0", {"s1": 4, "s2": 2, "seed": 2})  # 8 words: 4 values
)
