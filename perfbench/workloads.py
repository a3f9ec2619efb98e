"""The three workloads: seeded inputs, closed-loop load, correctness gate.

Every workload generates its inputs with numpy from the seed and sends
only those to the fleet, one request after the previous reply.  Each
one keeps a log of what it sent and what came back, and its
:meth:`gate` replays the log into an in-process monolithic store —
``WindowedSketchStore`` or ``KeyedSketchStore`` built from the same
spec — and compares exactly: counters of every fetched sketch,
every estimate, and every join answer against ``inner_product`` of the
monolith's sketches.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster import store_config
from repro.engine.registry import load_sketch
from repro.service import wire
from repro.store import KeyedSketchStore, SketchSpec, WindowedSketchStore

from harness import OpFailed

_now = time.perf_counter

#: Bucket width in timestamp units (origin 0).
WIDTH = 1000
#: Tug-of-war shape of every store: 64 x 5 counters.
S1, S2 = 64, 5
#: Zipf exponent of the value streams and their value domain.
ZIPF = 1.2
DOMAIN = 1 << 20


def zipf_values(rng: np.random.Generator, size: int, domain: int = DOMAIN) -> np.ndarray:
    """``size`` Zipf(1.2) values folded into ``[0, domain)``."""
    return ((rng.zipf(ZIPF, size) - 1) % domain).astype(np.int64)


class Recorder:
    """Times each request of a closed loop and counts what failed.

    ``clock`` (a :class:`~harness.HostSpeed`) is ticked after every
    request, outside the timed section.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.latency: dict[str, list[float]] = {"ingest": [], "query": []}
        #: Events of each acknowledged ingest, parallel to ``latency["ingest"]``.
        self.ingest_sizes: list[int] = []
        self.ops: dict[str, int] = {}
        self.events = 0
        self.ingest_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Client-side layer time of join queries (trace accounting).
        self.client_layers: dict[str, float] = {}

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def _count(self, op: str) -> None:
        if self.clock is not None:
            self.clock.tick()
        self.attempted += 1
        self.ops[op] = self.ops.get(op, 0) + 1

    def _roundtrip(self, conn, opcode: int, frame: bytes):
        start = _now()
        conn.send(frame)
        payload = conn.receive(opcode)
        return payload, _now() - start

    def ingest(self, conn, timestamps, values, key: str | None = None) -> bool:
        """One ingest request; True when the front acknowledged every event."""
        frame = wire.pack_frame(
            wire.OP_INGEST, wire.pack_ingest(timestamps, values, key=key)
        )
        self._count("ingest")
        try:
            payload, elapsed = self._roundtrip(conn, wire.OP_INGEST, frame)
        except OpFailed as exc:
            self._fail(f"ingest: {exc}")
            return False
        ack = wire.decode_compact(payload)
        if ack.get("ingested") != len(values):
            self._fail(f"ingest acknowledged {ack.get('ingested')} of {len(values)}")
            return False
        self.latency["ingest"].append(elapsed)
        self.ingest_sizes.append(len(values))
        self.events += len(values)
        self.ingest_bytes += len(frame)
        return True

    def estimate(self, conn, t0: int, t1: int) -> float | None:
        """One self-join estimate over ``[t0, t1)``."""
        frame = wire.pack_frame(
            wire.OP_ESTIMATE, wire.encode_compact({"from": t0, "until": t1})
        )
        self._count("estimate")
        try:
            payload, elapsed = self._roundtrip(conn, wire.OP_ESTIMATE, frame)
        except OpFailed as exc:
            self._fail(f"estimate: {exc}")
            return None
        self.latency["query"].append(elapsed)
        response = wire.decode_compact(payload)
        if response.get("window") != [t0, t1]:
            self._fail(f"estimate answered window {response.get('window')}")
            return None
        return float(response["estimate"])

    def _client(self, layer: str, start: float) -> float:
        now = _now()
        self.client_layers[layer] = self.client_layers.get(layer, 0.0) + now - start
        return now

    def join(self, conn, left: str, right: str, t0: int, t1: int):
        """Join size of two keys: two ``sketch`` fetches and ``inner_product``.

        Returns ``(left sketch, right sketch, estimate)`` or None.
        """
        self._count("join")
        sketches = []
        start = _now()
        try:
            for key in (left, right):
                body = wire.encode_compact({"from": t0, "until": t1, "key": key})
                conn.send(wire.pack_frame(wire.OP_SKETCH, body))
                payload = conn.receive(wire.OP_SKETCH)
                mark = _now()
                response = wire.decode_compact(payload)
                mark = self._client("wire.decode", mark)
                sketches.append(load_sketch(response["sketch"]))
                self._client("engine.deserialize", mark)
                if response.get("window") != [t0, t1]:
                    self._fail(f"sketch answered window {response.get('window')}")
                    return None
            mark = _now()
            answer = sketches[0].inner_product(sketches[1])
            end = self._client("core.estimate", mark)
        except OpFailed as exc:
            self._fail(f"join: {exc}")
            return None
        self.latency["query"].append(end - start)
        return sketches[0], sketches[1], float(answer)


def fetch_sketch(conn, t0: int, t1: int, key: str | None = None):
    """A post-run ``sketch`` fetch for the counter check."""
    fields = {"from": t0, "until": t1}
    if key is not None:
        fields["key"] = key
    return load_sketch(conn.request("sketch", **fields)["sketch"])


def same_sketch(got, want) -> bool:
    return got.n == want.n and np.array_equal(got.counters, want.counters)


class Workload:
    """Shared shape: a store template, an optional pre-load, a run, a gate."""

    name = ""
    keyed = False

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.spec = SketchSpec(
            "tugofwar", {"s1": S1, "s2": S2, "seed": 1000 + self.seed}
        )
        self.checks: list[tuple] = []
        #: ``memory_words`` read at a fixed point of the input, when the
        #: end of the run is not one (see :class:`TenantJoin`).
        self.state_words: int | None = None

    def config(self) -> dict:
        if self.keyed:
            return store_config(KeyedSketchStore(self.spec, bucket_width=WIDTH))
        return store_config(WindowedSketchStore(self.spec, bucket_width=WIDTH))

    def preload(self, conn, rec: Recorder) -> None:
        """Set-up work before the measured run (none by default)."""

    def run(self, conn, rec: Recorder, seconds: float) -> None:
        raise NotImplementedError

    def final_checks(self, conn) -> None:
        """Fetch the sketches the gate compares counter by counter."""
        raise NotImplementedError

    def corrupt(self) -> None:
        """Falsify one recorded answer (the gate's self-test)."""
        raise NotImplementedError

    def gate(self) -> list[str]:
        """Replay the run into a monolith; one message per mismatch."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


class StreamIngest(Workload):
    """One unkeyed stream in 3000-event frames, then a short estimate phase.

    The timestamps sweep the 64 buckets in order, 4 frames per bucket,
    and start over at bucket 0 after each sweep, so the stored state —
    64 spans per shard — does not depend on how fast the fleet ingests.
    """

    name = "stream-ingest"
    FRAME = 3000
    POOL_FRAMES = 128
    FRAMES_PER_BUCKET = 4
    BUCKETS = 64
    INGEST_SHARE = 0.7
    WINDOW_LENGTHS = (1, 2, 4, 8, 16, 32, 64)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 1])
        self.pool = zipf_values(rng, self.POOL_FRAMES * self.FRAME).reshape(
            self.POOL_FRAMES, self.FRAME
        )
        self.offsets = np.arange(self.FRAME, dtype=np.int64)
        self.frames_sent = 0
        self.answers: list[tuple[int, int, float]] = []

    def frame(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Frame ``index``: in-order timestamps, sweeping 64 buckets."""
        bucket, slot = divmod(
            index % (self.BUCKETS * self.FRAMES_PER_BUCKET), self.FRAMES_PER_BUCKET
        )
        span = self.FRAMES_PER_BUCKET * self.FRAME
        ts = bucket * WIDTH + (slot * self.FRAME + self.offsets) * WIDTH // span
        return ts, self.pool[index % self.POOL_FRAMES]

    def covered(self) -> int:
        """Buckets holding data after the ingest phase."""
        return min(self.BUCKETS, (self.frames_sent - 1) // self.FRAMES_PER_BUCKET + 1)

    def windows(self) -> list[tuple[int, int]]:
        """Sliding windows ending at the newest bucket, then historical ones."""
        top = self.covered()
        sliding = [((top - n) * WIDTH, top * WIDTH)
                   for n in self.WINDOW_LENGTHS if n <= top]
        rng = np.random.default_rng([self.seed, 2])
        historical = []
        for _ in range(8):
            a, b = sorted(rng.choice(top + 1, size=2, replace=False)) if top > 1 else (0, 1)
            historical.append((int(a) * WIDTH, int(b) * WIDTH))
        return sliding + historical

    def run(self, conn, rec: Recorder, seconds: float) -> None:
        start = _now()
        ingest_until = start + self.INGEST_SHARE * seconds
        index = 0
        while index == 0 or _now() < ingest_until:
            ts, values = self.frame(index)
            rec.ingest(conn, ts, values)
            index += 1
        self.frames_sent = index
        windows = self.windows()
        picks = np.random.default_rng([self.seed, 3])
        while not self.answers or _now() < start + seconds:
            t0, t1 = windows[int(picks.integers(len(windows)))]
            estimate = rec.estimate(conn, t0, t1)
            if estimate is not None:
                self.answers.append((t0, t1, estimate))

    def final_checks(self, conn) -> None:
        top = self.covered() * WIDTH
        for t0, t1 in {(0, top), self.windows()[0], self.windows()[-1]}:
            self.checks.append((t0, t1, fetch_sketch(conn, t0, t1)))

    def corrupt(self) -> None:
        t0, t1, estimate = self.answers[0]
        self.answers[0] = (t0, t1, estimate + 1.0)

    def monolith(self) -> WindowedSketchStore:
        """The monolith of every frame sent, fed one histogram per bucket.

        A bucket's sketch is linear in the multiset of its values, so
        each bucket's pool frames are ingested once, weighted by how
        often they were sent — the same counters as frame-by-frame
        ingest, at a fraction of the cost.
        """
        store = WindowedSketchStore(self.spec, bucket_width=WIDTH)
        sent = np.arange(self.frames_sent)
        sweep = self.BUCKETS * self.FRAMES_PER_BUCKET
        times = np.zeros((self.BUCKETS, self.POOL_FRAMES), dtype=np.int64)
        np.add.at(times, ((sent % sweep) // self.FRAMES_PER_BUCKET,
                          sent % self.POOL_FRAMES), 1)
        for bucket in range(self.BUCKETS):
            used = np.flatnonzero(times[bucket])
            if used.size:
                values = self.pool[used].ravel()
                store.ingest(np.full(values.size, bucket * WIDTH), values,
                             counts=np.repeat(times[bucket, used], self.FRAME))
        return store

    def gate(self) -> list[str]:
        store = self.monolith()
        wrong = []
        expected: dict = {}
        for t0, t1, estimate in self.answers:
            if (t0, t1) not in expected:
                expected[(t0, t1)] = store.estimate(t0, t1)
            if estimate != expected[(t0, t1)]:
                wrong.append(f"estimate [{t0}, {t1}) = {estimate!r}, "
                             f"monolith {expected[(t0, t1)]!r}")
        for t0, t1, sketch in self.checks:
            if not same_sketch(sketch, store.query(t0, t1)):
                wrong.append(f"sketch [{t0}, {t1}) counters differ")
        return wrong

    def sizes(self) -> dict:
        return {"frame_events": self.FRAME, "buckets": self.BUCKETS,
                "frames_per_bucket": self.FRAMES_PER_BUCKET,
                "frames_sent": self.frames_sent, "queries": len(self.answers)}


class WindowQuery(Workload):
    """A pre-loaded store queried over sliding and repeated windows."""

    name = "window-query"
    BUCKETS = 64
    PRELOAD_FRAMES_PER_BUCKET = 4
    FRAME = 3000
    BATCH = 500
    BATCH_POOL = 64
    QUERIES_PER_INGEST = 10
    WINDOW_LENGTHS = (1, 2, 4, 8, 16, 32, 64)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 4])
        frames = self.BUCKETS * self.PRELOAD_FRAMES_PER_BUCKET
        self.preload_values = zipf_values(rng, frames * self.FRAME).reshape(
            frames, self.FRAME
        )
        self.batches = zipf_values(rng, self.BATCH_POOL * self.BATCH).reshape(
            self.BATCH_POOL, self.BATCH
        )
        newest = self.BUCKETS - 1
        self.historical = []
        for _ in range(8):
            a, b = sorted(rng.choice(newest + 1, size=2, replace=False))
            self.historical.append((int(a) * WIDTH, int(b) * WIDTH))
        self.sliding = [((self.BUCKETS - n) * WIDTH, self.BUCKETS * WIDTH)
                        for n in self.WINDOW_LENGTHS]
        #: ("ingest", batch index) or ("query", t0, t1, estimate), in order.
        self.log: list[tuple] = []

    def preload_frames(self):
        per = self.PRELOAD_FRAMES_PER_BUCKET
        offsets = np.arange(self.FRAME, dtype=np.int64)
        for index in range(self.BUCKETS * per):
            bucket, slot = divmod(index, per)
            ts = bucket * WIDTH + (slot * self.FRAME + offsets) * WIDTH // (per * self.FRAME)
            yield ts, self.preload_values[index]

    def batch(self, number: int) -> tuple[int, np.ndarray]:
        """Ingest batch ``number``: one timestamp in the newest bucket."""
        ts = (self.BUCKETS - 1) * WIDTH + number % WIDTH
        return ts, self.batches[number % self.BATCH_POOL]

    def preload(self, conn, rec: Recorder) -> None:
        for ts, values in self.preload_frames():
            if not rec.ingest(conn, ts, values):
                raise RuntimeError(f"pre-load failed: {rec.errors}")

    def run(self, conn, rec: Recorder, seconds: float) -> None:
        self.log = []
        picks = np.random.default_rng([self.seed, 5])
        deadline = _now() + seconds
        batches = queries = 0
        while queries == 0 or _now() < deadline:
            if queries and queries % self.QUERIES_PER_INGEST == 0 and (
                batches < queries // self.QUERIES_PER_INGEST
            ):
                ts, values = self.batch(batches)
                if rec.ingest(conn, ts, values):
                    self.log.append(("ingest", batches))
                batches += 1
                continue
            pool = self.sliding if picks.random() < 0.5 else self.historical
            t0, t1 = pool[int(picks.integers(len(pool)))]
            estimate = rec.estimate(conn, t0, t1)
            if estimate is not None:
                self.log.append(("query", t0, t1, estimate))
            queries += 1

    def final_checks(self, conn) -> None:
        for t0, t1 in {self.sliding[-1], self.sliding[0], self.historical[0]}:
            self.checks.append((t0, t1, fetch_sketch(conn, t0, t1)))

    def corrupt(self) -> None:
        for i, entry in enumerate(self.log):
            if entry[0] == "query":
                self.log[i] = entry[:3] + (entry[3] + 1.0,)
                return

    def gate(self) -> list[str]:
        store = WindowedSketchStore(self.spec, bucket_width=WIDTH)
        frames = list(self.preload_frames())
        store.ingest(np.concatenate([f[0] for f in frames]),
                     np.concatenate([f[1] for f in frames]))
        newest = (self.BUCKETS - 1) * WIDTH
        version = 0
        expected: dict = {}
        wrong = []
        for entry in self.log:
            if entry[0] == "ingest":
                ts, values = self.batch(entry[1])
                store.ingest(np.full(values.size, ts, dtype=np.int64), values)
                version += 1
                continue
            _, t0, t1, estimate = entry
            memo = (t0, t1, version if t1 > newest else 0)
            if memo not in expected:
                expected[memo] = store.estimate(t0, t1)
            if estimate != expected[memo]:
                wrong.append(f"estimate [{t0}, {t1}) = {estimate!r}, "
                             f"monolith {expected[memo]!r}")
        for t0, t1, sketch in self.checks:
            if not same_sketch(sketch, store.query(t0, t1)):
                wrong.append(f"sketch [{t0}, {t1}) counters differ")
        return wrong

    def sizes(self) -> dict:
        queries = sum(1 for e in self.log if e[0] == "query")
        return {"preload_events": int(self.preload_values.size),
                "buckets": self.BUCKETS, "batch_events": self.BATCH,
                "queries": queries, "batches": len(self.log) - queries}


class TenantJoin(Workload):
    """A keyed fleet: one relation per key, joins between hot relations.

    Frames go bucket by bucket: every relation sends its events for the
    current bucket, in batches of at most ``BATCH_CAP``, before the next
    bucket starts, so most frames materialise new per-(key, bucket)
    sketches.  Within a bucket the batches of a large relation are
    spread evenly among the others, so any stretch of frames carries
    events in proportion to its length and the event rate does not hinge
    on where a run stops.  The state grows with every frame, so
    ``state_words`` is read once, right after frame ``STATE_FRAMES``,
    and repeats for a given seed.
    """

    name = "tenant-join"
    keyed = True
    RELATIONS = 1500
    BUCKETS = 16
    #: Events per bucket of the largest relation; sizes fall as rank^-1.1.
    TOP_SIZE = 3000
    SKEW = 1.1
    BATCH_CAP = 256
    VALUE_DOMAIN = 1 << 16
    POOL_VALUES = 1 << 20
    FRAMES_PER_QUERY = 20
    HOT = 8
    CHECKED_COLD = 8
    STATE_FRAMES = 500

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 6])
        ranks = rng.permutation(self.RELATIONS)
        self.sizes_by_key = np.maximum(
            1, (self.TOP_SIZE / (ranks + 1.0) ** self.SKEW).astype(np.int64)
        )
        self.keys = [f"rel{i:04d}" for i in range(self.RELATIONS)]
        self.hot = [int(i) for i in np.argsort(ranks)[: self.HOT]]
        self.passes = [self._bucket_pass(rng) for _ in range(self.BUCKETS)]
        self.pass_frames = len(self.passes[0][0])
        self.pool = zipf_values(rng, self.POOL_VALUES, self.VALUE_DOMAIN)
        self.cold = [int(i) for i in rng.choice(
            np.argsort(ranks)[self.HOT:], size=self.CHECKED_COLD, replace=False)]
        self.picks = np.random.default_rng([self.seed, 7])
        self.frames_sent = 0
        #: (frames sent before it, left, right, t1, left, right, answer).
        self.joins: list[tuple] = []

    def _bucket_pass(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """One bucket's batches as (relation, size) columns, in send order.

        Batch ``j`` of a relation with ``m`` batches sorts at
        ``(j + u) / m`` for a random ``u`` of that relation: its batches
        are evenly spaced, the relations randomly interleaved.
        """
        relations, sizes, keys = [], [], []
        for relation, total in enumerate(self.sizes_by_key.tolist()):
            count = -(-total // self.BATCH_CAP)
            offset = rng.random()
            for j in range(count):
                relations.append(relation)
                sizes.append(min(self.BATCH_CAP, total - j * self.BATCH_CAP))
                keys.append((j + offset) / count)
        order = np.argsort(keys, kind="stable")
        return np.asarray(relations)[order], np.asarray(sizes)[order]

    def frame(self, index: int) -> tuple[int, int, np.ndarray]:
        """Frame ``index``: (relation, timestamp, values) of one batch."""
        bucket, slot = divmod(index % (self.BUCKETS * self.pass_frames),
                              self.pass_frames)
        relations, sizes = self.passes[bucket]
        relation, size = int(relations[slot]), int(sizes[slot])
        start = (index * 7919) % (self.POOL_VALUES - size)
        ts = bucket * WIDTH + slot * WIDTH // self.pass_frames
        return relation, ts, self.pool[start:start + size]

    def horizon(self, frames: int) -> int:
        """End of the window covering every bucket written so far."""
        return min(self.BUCKETS, (frames - 1) // self.pass_frames + 1) * WIDTH

    def run(self, conn, rec: Recorder, seconds: float) -> None:
        deadline = _now() + seconds
        index = 0
        while not self.joins or _now() < deadline:
            relation, ts, values = self.frame(index)
            rec.ingest(conn, ts, values, key=self.keys[relation])
            index += 1
            if index == self.STATE_FRAMES:
                self.state_words = int(conn.request("info")["memory_words"])
            if index % self.FRAMES_PER_QUERY == 0:
                a, b = self.picks.choice(self.hot, size=2, replace=False)
                t1 = self.horizon(index)
                result = rec.join(conn, self.keys[a], self.keys[b], 0, t1)
                if result is not None:
                    self.joins.append((index, int(a), int(b), t1, *result))
        self.frames_sent = index

    def final_checks(self, conn) -> None:
        t1 = self.horizon(self.frames_sent)
        for relation in self.hot[:2] + self.cold:
            self.checks.append((relation, t1, fetch_sketch(conn, 0, t1, self.keys[relation])))

    def corrupt(self) -> None:
        entry = self.joins[0]
        self.joins[0] = entry[:6] + (entry[6] + 1.0,)

    def gate(self) -> list[str]:
        needed = set(self.hot) | {relation for relation, _, _ in self.checks}
        store = KeyedSketchStore(self.spec, bucket_width=WIDTH)
        wrong = []
        joins = iter(self.joins)
        pending = next(joins, None)
        for index in range(self.frames_sent):
            relation, ts, values = self.frame(index)
            if relation in needed:
                store.ingest(self.keys[relation],
                             np.full(values.size, ts, dtype=np.int64), values)
            while pending is not None and pending[0] == index + 1:
                _, a, b, t1, left, right, answer = pending
                want_a = store.query(self.keys[a], 0, t1)
                want_b = store.query(self.keys[b], 0, t1)
                if not (same_sketch(left, want_a) and same_sketch(right, want_b)):
                    wrong.append(f"join sketches of {self.keys[a]}, {self.keys[b]} differ")
                if answer != want_a.inner_product(want_b):
                    wrong.append(f"join {self.keys[a]} x {self.keys[b]} = {answer!r}, "
                                 f"monolith {want_a.inner_product(want_b)!r}")
                pending = next(joins, None)
        for relation, t1, sketch in self.checks:
            if not same_sketch(sketch, store.query(self.keys[relation], 0, t1)):
                wrong.append(f"sketch of {self.keys[relation]} counters differ")
        return wrong

    def sizes(self) -> dict:
        return {"relations": self.RELATIONS, "buckets": self.BUCKETS,
                "top_relation_events_per_bucket": self.TOP_SIZE,
                "batch_cap": self.BATCH_CAP, "frames_per_bucket": self.pass_frames,
                "frames_sent": self.frames_sent, "joins": len(self.joins)}


WORKLOADS = {cls.name: cls for cls in (StreamIngest, WindowQuery, TenantJoin)}
