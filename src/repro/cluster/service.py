"""The cluster-aware serving facade: route, scatter, gather, merge.

:class:`ClusterService` satisfies the same estimate / sketch / ingest
/ info surface as :class:`~repro.service.service.SketchService`, so
everything written against the single-node service — the generalized
wire dispatch table and the CLI — works unchanged against a fleet of
shard workers (a keyed join is two keyed ``sketch`` requests whose
merged window sketches the client multiplies):

* **Ingest** routes each batch by the stable value-hash partitioner
  (:class:`~repro.engine.partition.HashPartitioner`) and scatters the
  per-shard slices concurrently.  Routing by *value* (never by time
  or round-robin) is the invariant that makes everything else true:
  per-shard sub-streams are a value partition of the global stream,
  and a deletion reaches the shard holding the inserts it retracts.
* **Queries** scatter the window to every shard, gather the per-shard
  merged sketches over the wire, and :func:`gather_merge` them — for
  every mergeable kind the result is **bit-identical** to a
  monolithic :class:`~repro.store.windowed.WindowedSketchStore` over
  the same stream (linearity: elementwise integer sums commute with
  the partition).  Non-mergeable sampler kinds are refused at
  construction with a typed
  :class:`~repro.cluster.errors.ShardMergeUnsupportedError`.
* **Windows** are resolved to a common fixpoint: under
  ``align="outer"`` shards may expand a window differently (their
  compacted spans differ because they hold different values), so the
  gather loop re-scatters the union hull until every shard agrees —
  the reported window always describes the returned sketch.

Fault tolerance (replication, hedging, recovery):

* **Replica sets.**  Each shard may be a set of R workers fed the
  same slice of every batch.  Sketch updates are deterministic given
  the spec (all randomness is seed-derived), so replicas of a shard
  are *bit-identical* by construction — any one can answer a query,
  and any healthy one can donate a ``snapshot`` to rebuild a peer.
  Delivery is tracked **per replica** by each replica's own
  at-most-once :class:`~repro.cluster.client.ShardClient`: a resend
  after an ambiguous outcome never double-applies on a replica that
  already acked, because the ambiguous replica is quarantined and
  overwritten from a peer's absolute-state snapshot instead.
* **Hedged reads.**  A query dispatches to one replica per shard and
  hedges to the next after ``hedge_delay`` seconds, first well-formed
  answer wins — a stalled replica costs one hedge delay, not a
  timeout.  ``read_mode="quorum"`` instead asks every replica,
  compares answers, and read-repairs any minority (exact, because the
  majority answer is the deterministic function of the stream).
* **Recovery.**  A replica classified unreachable is respawned via
  the ``supervisor`` (a :class:`~repro.cluster.local.LocalCluster`)
  and restored from a healthy peer's snapshot — RNG state included,
  so continued ingestion stays bit-identical.
* **Epoch-based resharding.**  :meth:`reshard` appends a new epoch of
  replica sets under a new partitioner, owning every time bucket from
  a cutover timestamp on.  Events route under the epoch owning their
  timestamp — deletions carry the insert's timestamp, so they land on
  the shard holding the insert — and answers merge across epochs by
  linearity, bit-identical to the monolithic store.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..engine.partition import HashPartitioner, key_digest, stable_hash64
from ..engine.protocol import Sketch
from ..engine.registry import load_sketch
from ..engine.sharded import merge_sketches
from ..service.service import WindowEstimate, check_key
from ..store.spec import SketchSpec
from .client import ShardRequestError
from .errors import (
    ClusterConfigError,
    ShardMergeUnsupportedError,
    ShardProtocolError,
    ShardUnreachableError,
)

__all__ = ["ClusterService", "DEFAULT_HEDGE_DELAY"]

#: Outer-alignment gather rounds before declaring divergence a bug.
_MAX_ALIGN_ROUNDS = 32

#: Seconds a hedged read waits on a replica before dispatching the
#: same request to the next one.  Far above a healthy local worker's
#: service time (tens of microseconds), far below any timeout.
DEFAULT_HEDGE_DELAY = 0.05


def gather_merge(sketches: Sequence[Sketch]) -> Sketch:
    """Balanced-tree merge of the per-unit window sketches of a query.

    The gather step of scatter–gather, kept as a module-level function
    of its own so a tracer can time it apart from the merges inside it.
    """
    return merge_sketches(sketches)


class _Replica:
    """One worker in a replica set, plus the front end's view of it."""

    __slots__ = ("client", "strikes", "dead", "suspect", "error")

    def __init__(self, client):
        self.client = client
        #: Hedge count against this replica; sorts it behind faster
        #: peers on later dispatches.  Reset by a successful repair.
        self.strikes = 0
        #: Classified unreachable (connection-level failure on a
        #: fresh dial): its state may be missing batches.
        self.dead = False
        #: Ambiguous non-idempotent outcome (partial write): its
        #: state may or may not include the last batch.
        self.suspect = False
        #: The exception that earned the mark, for error reporting.
        self.error = None

    @property
    def live(self) -> bool:
        return not self.dead and not self.suspect


class _Epoch:
    """One resharding generation: a partitioner and its replica sets.

    ``start`` is the epoch's inclusive cutover timestamp (``None`` for
    the first epoch, which owns everything earlier): an event routes
    under the last epoch whose ``start`` is at or below its timestamp.
    Keying epochs by *event time* rather than arrival order is what
    keeps deletions exact across a reshard — a deletion carries the
    timestamp of the insert it reverses (the store's own contract), so
    it routes to the epoch, and therefore the shard, holding that
    insert.
    """

    __slots__ = ("partitioner", "sets", "start")

    def __init__(self, partitioner: HashPartitioner, sets: list, start=None):
        self.partitioner = partitioner
        self.sets = sets
        self.start = start


class _Unit:
    """Read-dispatch state for one (epoch, shard) replica set."""

    __slots__ = (
        "epoch", "shard", "replicas", "candidates", "next",
        "deadline", "pending", "response", "error", "done",
    )

    def __init__(self, epoch: int, shard: int, replicas, candidates):
        self.epoch = epoch
        self.shard = shard
        self.replicas = replicas
        self.candidates = candidates
        self.next = 0
        self.deadline = None
        self.pending = set()
        self.response = None
        self.error = None
        self.done = False


def _canon(value):
    """A hashable canonical form for comparing replica answers."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if isinstance(value, float) and value != value:
        return "nan"
    return value


class ClusterService:
    """Scatter–gather serving over hash-partitioned shard workers.

    Parameters
    ----------
    clients:
        One replica set per shard: a sequence of
        :class:`~repro.cluster.client.ShardClient`, primary first
        (``[[client], ...]`` for an unreplicated fleet, or
        :meth:`~repro.cluster.local.LocalCluster.replica_clients`).
        Shard order **is** the partition map, so it must match the
        order ingest has always used against these workers.  The
        partitioner takes the spec's own seed, so a front end
        restarted against the same workers routes identically.
    supervisor:
        An object with ``respawn(client) -> client`` and
        ``spawn_replica_set(replication) -> [client]`` (a
        :class:`~repro.cluster.local.LocalCluster`).  Without one,
        dead replicas stay out of rotation instead of being respawned
        and :meth:`reshard` is refused.
    hedge_delay:
        Seconds before a read hedges to the next replica.  ``None``
        disables hedging (reads wait on the primary alone).
    read_mode:
        ``"hedged"`` (first well-formed answer wins) or ``"quorum"``
        (every replica answers, majority wins, minority is
        read-repaired from the majority).
    pool_size:
        Scatter-thread cap; defaults to ``max(8, 2 × replicas)``.
        Raise it when many hedged stragglers may be in flight at once.

    Raises
    ------
    ClusterConfigError:
        No shards, a shard given as a bare client or an empty replica
        set, unreachable shards at construction, or workers whose
        spec / bucket geometry disagree.
    ShardMergeUnsupportedError:
        The workers hold a sampler kind that cannot be gather-merged.
    """

    def __init__(
        self,
        clients: Sequence,
        supervisor=None,
        hedge_delay: float | None = DEFAULT_HEDGE_DELAY,
        read_mode: str = "hedged",
        pool_size: int | None = None,
    ):
        if not clients:
            raise ClusterConfigError("a cluster needs at least one shard")
        if read_mode not in ("hedged", "quorum"):
            raise ClusterConfigError(
                f"read_mode must be 'hedged' or 'quorum', got {read_mode!r}"
            )
        sets: list[list[_Replica]] = []
        for entry in clients:
            if hasattr(entry, "request"):
                raise ClusterConfigError(
                    "each shard is a replica set: pass [[client], ...] "
                    "(or LocalCluster.replica_clients()), not bare clients"
                )
            group = [_Replica(c) for c in entry]
            if not group:
                raise ClusterConfigError(
                    "a replica set needs at least one replica"
                )
            sets.append(group)
        self._supervisor = supervisor
        self._hedge_delay = None if hedge_delay is None else float(hedge_delay)
        self._read_mode = read_mode
        self._admin_lock = threading.Lock()
        total = sum(len(group) for group in sets)
        self._pool_size = (
            max(8, 2 * total) if pool_size is None else int(pool_size)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self._pool_size,
            thread_name_prefix="cluster-scatter",
        )
        try:
            reference = self._admit(sets)
            if "spec" not in reference:
                raise ClusterConfigError(
                    f"shard {sets[0][0].client.address} reported no sketch "
                    "spec; workers must run this repo's generalized server"
                )
            self._spec = SketchSpec.from_dict(reference["spec"])
            if not self._spec.is_mergeable:
                raise ShardMergeUnsupportedError(
                    f"sketch kind {self._spec.kind!r} cannot be served by "
                    "scatter–gather: per-shard sketches do not combine into "
                    "the monolithic sketch (position-based sampling)"
                )
        except BaseException:
            # A failed construction must not leak scatter threads: the
            # caller has no handle to close a half-built service.
            self._pool.shutdown(wait=True)
            raise
        self._reference = reference
        self._bucket_width = int(reference["bucket_width"])
        self._origin = int(reference["origin"])
        self._keyed = bool(reference.get("keyed"))
        seed = int(self._spec.params.get("seed", 0))
        self._epochs = [_Epoch(HashPartitioner(len(sets), seed=seed), sets)]

    # ------------------------------------------------------------------
    # Scatter plumbing
    # ------------------------------------------------------------------
    def _probe(self, replicas: Sequence[_Replica]) -> list[dict]:
        """One ``info`` to each replica, concurrently, in order."""
        futures = [
            self._pool.submit(replica.client.request, {"op": "info"})
            for replica in replicas
        ]
        results, first_error = [], None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def _admit(self, sets: Sequence[Sequence[_Replica]], reference=None) -> dict:
        """Probe every replica of ``sets`` at once; refuse any misfit.

        Each replica's spec, bucket geometry and store shape must equal
        ``reference`` (the cluster's, when :meth:`reshard` admits a new
        epoch) or, at construction, shard 0 replica 0's.  Returns the
        reference ``info``.
        """
        flat = [
            (s, r, replica)
            for s, group in enumerate(sets)
            for r, replica in enumerate(group)
        ]
        infos = self._probe([replica for _, _, replica in flat])
        if reference is None:
            reference, prefix, source = infos[0], "", "shard 0 replica 0"
            cited = f"{source}, {flat[0][2].client.address}"
        else:
            prefix, source = "new epoch ", "the cluster"
            cited = source
        for (s, r, replica), info in zip(flat, infos):
            where = f"{prefix}shard {s} replica {r} ({replica.client.address})"
            for field in ("spec", "bucket_width", "origin"):
                if info.get(field) != reference.get(field):
                    raise ClusterConfigError(
                        f"{where} disagrees on {field}: {info.get(field)!r} "
                        f"!= {reference.get(field)!r} ({cited})"
                    )
            if bool(info.get("keyed")) != bool(reference.get("keyed")):
                raise ClusterConfigError(
                    f"{where} serves a "
                    f"{'keyed' if info.get('keyed') else 'plain'} store while "
                    f"{source} serves a "
                    f"{'keyed' if reference.get('keyed') else 'plain'} one"
                )
        return reference

    @property
    def _partitioner(self) -> HashPartitioner:
        """The partitioner new batches route under (newest epoch's)."""
        return self._epochs[-1].partitioner

    def _units(self) -> list[tuple[int, int, list]]:
        """Every (epoch index, shard index, replica set), query order."""
        return [
            (e, s, epoch.sets[s])
            for e, epoch in enumerate(self._epochs)
            for s in range(len(epoch.sets))
        ]

    @staticmethod
    def _targets(replicas: Sequence[_Replica]) -> list[_Replica]:
        """Replicas a fan-out goes to: the live ones, in set order.

        A marked singleton is still returned — with no peer to diverge
        from, retrying it is both safe and the only option, and a
        success clears its mark (the pre-replication semantics).
        """
        live = [r for r in replicas if r.live]
        if live or len(replicas) != 1:
            return live
        return list(replicas)

    @classmethod
    def _candidates(cls, replicas: Sequence[_Replica]) -> list[_Replica]:
        """Replicas in read dispatch order: targets, fewest strikes first."""
        return sorted(cls._targets(replicas), key=lambda r: r.strikes)

    @staticmethod
    def _set_error(epoch: int, shard: int, replicas) -> Exception:
        """The error to raise when a whole replica set is out."""
        for replica in replicas:
            if replica.error is not None:
                return replica.error
        return ShardUnreachableError(
            f"every replica of shard {shard} (epoch {epoch}) is "
            "unreachable or suspect"
        )

    @staticmethod
    def _clear_if_marked(replica: _Replica) -> None:
        """A marked replica that answered is healthy again (singletons)."""
        if replica.dead or replica.suspect:
            replica.dead = replica.suspect = False
            replica.error = None

    # ------------------------------------------------------------------
    # Reads: hedged / quorum scatter
    # ------------------------------------------------------------------
    def _dispatch(self, unit: _Unit, payload: Mapping, inflight: dict) -> bool:
        """Submit the unit's next candidate; False when exhausted."""
        if unit.next >= len(unit.candidates):
            return False
        replica = unit.candidates[unit.next]
        unit.next += 1
        future = self._pool.submit(replica.client.request, dict(payload))
        inflight[future] = (unit, replica)
        unit.pending.add(future)
        if self._hedge_delay is not None:
            unit.deadline = time.monotonic() + self._hedge_delay
        return True

    def _resolve(self, unit: _Unit, response: dict, replica: _Replica) -> None:
        unit.response = response
        unit.done = True
        self._clear_if_marked(replica)
        for future in unit.pending:
            future.cancel()

    def _hedged_read(self, payload: Mapping) -> tuple[list, Exception | None]:
        """One request per unit, hedging to the next replica when slow.

        A flat state machine in the caller's thread: every dispatch
        goes straight to the pool and nothing submitted ever waits on
        another pool task, so hedging cannot deadlock the pool.
        """
        units = [
            _Unit(e, s, replicas, self._candidates(replicas))
            for e, s, replicas in self._units()
        ]
        inflight: dict = {}
        for unit in units:
            if not self._dispatch(unit, payload, inflight):
                unit.error = self._set_error(unit.epoch, unit.shard, unit.replicas)
                unit.done = True
        while any(not u.done for u in units):
            timeout = None
            if self._hedge_delay is not None:
                deadlines = [
                    u.deadline
                    for u in units
                    if not u.done
                    and u.deadline is not None
                    and u.next < len(u.candidates)
                ]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
            active = [f for f, (u, _) in inflight.items() if not u.done]
            if not active:
                for unit in units:
                    if not unit.done:
                        unit.error = self._set_error(
                            unit.epoch, unit.shard, unit.replicas
                        )
                        unit.done = True
                break
            done_set, _ = wait(active, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done_set:
                unit, replica = inflight.pop(future)
                unit.pending.discard(future)
                if unit.done:
                    try:
                        future.exception()
                    except BaseException:  # noqa: BLE001 - straggler noise
                        pass
                    continue
                try:
                    response = future.result()
                except ShardRequestError as exc:
                    # The worker answered and refused: authoritative,
                    # deterministic, identical on every replica.
                    unit.error = exc
                    unit.done = True
                except ShardUnreachableError as exc:
                    replica.dead, replica.error = True, exc
                    if not self._dispatch(unit, payload, inflight) and not unit.pending:
                        unit.error = exc
                        unit.done = True
                except ShardProtocolError as exc:
                    replica.suspect, replica.error = True, exc
                    if not self._dispatch(unit, payload, inflight) and not unit.pending:
                        unit.error = exc
                        unit.done = True
                except Exception as exc:  # noqa: BLE001 - malformed response
                    unit.error = exc
                    unit.done = True
                else:
                    self._resolve(unit, response, replica)
            if self._hedge_delay is not None:
                now = time.monotonic()
                for unit in units:
                    if unit.done or unit.deadline is None or now < unit.deadline:
                        continue
                    if unit.next < len(unit.candidates):
                        # The in-flight replica is slow: hedge past it
                        # and remember the slowness for next time.
                        for pending in unit.pending:
                            inflight[pending][1].strikes += 1
                        self._dispatch(unit, payload, inflight)
                    else:
                        unit.deadline = None
        for future in inflight:
            future.cancel()
        first_error = next((u.error for u in units if u.error is not None), None)
        return [u.response for u in units], first_error

    @staticmethod
    def _vote(answers: Sequence[tuple]) -> dict:
        """The majority answer of one replica set; the minority is marked.

        Exact, not probabilistic: replica state is a deterministic
        function of the acked stream, so a divergent answer means a
        divergent replica — the minority turns suspect and the repair
        pass restores it from the majority.  Ties go to dispatch order
        (fewest strikes first).
        """
        groups: dict = {}
        for replica, response in sorted(answers, key=lambda a: a[0].strikes):
            groups.setdefault(_canon(response), []).append((replica, response))
        ranked = sorted(groups.values(), key=len, reverse=True)
        for group in ranked[1:]:
            for replica, _ in group:
                replica.suspect = True
        return ranked[0][0][1]

    def _scatter_read(self, payload: Mapping) -> list[dict]:
        """One well-formed response per (epoch, shard) unit, in order."""
        if self._read_mode == "quorum":
            responses = [self._vote(a) for a in self._scatter_all(payload)]
        else:
            responses, first_error = self._hedged_read(payload)
            if first_error is not None:
                raise first_error
        self._repair()
        return responses

    # ------------------------------------------------------------------
    # Repair (recovery half of replication)
    # ------------------------------------------------------------------
    def _restore_replica(self, replica: _Replica, snapshot: Mapping) -> bool:
        """Overwrite one replica from a donor snapshot, respawning if dead.

        ``restore`` writes absolute state, so it clobbers an ambiguous
        partial write exactly, and it is idempotent — safe to repeat
        against a respawned worker.  Returns False only when the
        replica is unreachable and there is no supervisor to respawn
        it (the degraded, replica-down-but-serving mode).
        """
        payload = {"op": "restore", "snapshot": snapshot}
        try:
            replica.client.request(dict(payload))
            return True
        except ShardUnreachableError as exc:
            if self._supervisor is None:
                replica.error = exc
                return False
        replica.client = self._supervisor.respawn(replica.client)
        replica.client.request(dict(payload))
        return True

    def _repair(self) -> None:
        """Restore every marked replica from a healthy peer's snapshot.

        Runs after every scatter that may have marked replicas.  The
        donor's snapshot reflects everything the set has acked (the
        donor acked it), so a restored replica is bit-identical to its
        peers — including RNG state, so future ingestion stays
        identical too.  Raises when a set has no healthy donor left:
        that set's data is gone and pretending otherwise would serve
        wrong answers.
        """
        for e, epoch in enumerate(self._epochs):
            for s, replicas in enumerate(epoch.sets):
                marked = [r for r in replicas if not r.live]
                if not marked:
                    continue
                healthy = [r for r in replicas if r.live]
                if not healthy:
                    error = self._set_error(e, s, replicas)
                    if len(replicas) == 1:
                        # Pre-replication semantics: nothing is sticky
                        # for a singleton — the next op retries it.
                        replicas[0].dead = replicas[0].suspect = False
                        replicas[0].error = None
                    raise error
                donor = healthy[0]
                snapshot = donor.client.request({"op": "snapshot"})["snapshot"]
                for replica in marked:
                    if self._restore_replica(replica, snapshot):
                        replica.dead = replica.suspect = False
                        replica.error = None
                        replica.strikes = 0

    def _reset_replica_state(self) -> None:
        """Forget every mark and strike (benchmarks and tests only)."""
        for epoch in self._epochs:
            for replicas in epoch.sets:
                for replica in replicas:
                    replica.dead = replica.suspect = False
                    replica.error = None
                    replica.strikes = 0

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def ingest(
        self,
        timestamps: np.ndarray | Iterable[int],
        values: np.ndarray | Iterable[int],
        counts: np.ndarray | Iterable[int] | None = None,
        *,
        key: str | None = None,
    ) -> None:
        """Value-hash route one timestamped batch across the shards.

        Each shard's slice fans out to every live replica of its set
        concurrently; each worker applies its slice atomically under
        its own service's write lock.  Atomicity is therefore **per
        replica, not per batch**: there is no cross-shard transaction,
        so a concurrent reader can observe shard 0 after its slice
        landed and shard 1 before — a torn state the single-node
        :class:`~repro.service.service.SketchService` (one write lock)
        can never expose.  Once this call returns, every later query
        observes the whole batch on every healthy replica.

        Replication changes what a partial failure means: as long as
        **one** replica of each routed shard acks the slice, the batch
        is durable — failed peers are quarantined and rebuilt from an
        acking donor's snapshot (which already includes this batch),
        so a replica that acked is never re-sent the slice and can
        never double-count it.  Only when *every* replica of a routed
        shard fails is the batch lost, and that raises.  After a
        :meth:`reshard`, each event routes under the epoch owning its
        *timestamp* (deletions carry the insert's timestamp, so they
        land on the shard holding the insert — exact for every kind).

        On a keyed fleet the batch routes by the **(key, value) pair**:
        the value column is first mixed with ``key_digest(key)`` and
        the partitioner splits that derived column.  Deleting
        ``(key, v)`` therefore lands exactly on the shard holding its
        inserts (same key, same value, same route), while the same
        value under different keys spreads across shards instead of
        pinning every tenant's copy of a hot value to one worker.
        """
        key = check_key(key, self._keyed, "cluster")
        ts = np.asarray(timestamps, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if ts.ndim != 1 or vals.ndim != 1 or ts.shape != vals.shape:
            raise ValueError(
                f"timestamps {ts.shape} and values {vals.shape} must be "
                "equal-length 1-D arrays"
            )
        cnts = None
        if counts is not None:
            cnts = np.asarray(counts, dtype=np.int64)
            if cnts.shape != vals.shape:
                raise ValueError(
                    f"counts {cnts.shape} must match values {vals.shape}"
                )
        if vals.size == 0:
            return
        # The column the partitioner routes on: raw values for a plain
        # store, key-mixed values for a fleet (reinterpreted back to
        # int64 — the partitioner re-hashes, so the view is lossless).
        route = (
            vals
            if key is None
            else stable_hash64(vals, seed=key_digest(key)).view(np.int64)
        )
        if len(self._epochs) == 1:
            # Fast path: no epoch boundaries to consult.
            assignments = [(self._epochs[0], None)]
        else:
            starts = np.asarray(
                [epoch.start for epoch in self._epochs[1:]], dtype=np.int64
            )
            owner = np.searchsorted(starts, ts, side="right")
            assignments = [
                (epoch, np.flatnonzero(owner == e))
                for e, epoch in enumerate(self._epochs)
            ]
        jobs = []
        for epoch, selection in assignments:
            epoch_route = route if selection is None else route[selection]
            if epoch_route.size == 0:
                continue
            for shard, sub in enumerate(epoch.partitioner.split(epoch_route)):
                if sub.size == 0:
                    continue
                idx = sub if selection is None else selection[sub]
                # Raw arrays, not .tolist(): a binary client packs them
                # straight onto the wire, and a JSON client serialises
                # them itself — materialising Python lists here would pay
                # the conversion even on the zero-copy path.  Replicas of
                # a set share the arrays read-only.  The shipped values
                # are always the *original* column — the key-mixed route
                # column never leaves this process.
                payload: dict = {
                    "op": "ingest",
                    "timestamps": ts[idx],
                    "values": vals[idx],
                }
                if cnts is not None:
                    payload["counts"] = cnts[idx]
                if key is not None:
                    payload["key"] = key
                jobs.append((epoch.sets[shard], payload))
        self._fan_out(jobs)

    def _fan_out(self, jobs: Sequence[tuple]) -> list[list[tuple]]:
        """Send each ``(replica set, payload)`` job to its live replicas.

        Every job goes to every live replica of its set at once, and
        every outcome is classified by one rule: an unreachable replica
        is marked dead, an ambiguous one (``ShardProtocolError``)
        suspect, and an answer clears a singleton's mark.  Any other
        exception is raised first, before repair.  Then the repair pass
        restores every marked replica from an answering peer, and only
        then does the first refusal (``ShardRequestError``) surface: a
        refused request left every replica unchanged, so donors are
        exact, and a set whose every replica failed makes
        :meth:`_repair` raise — the request really is lost there.
        Returns each job's ``(replica, response)`` pairs, in dispatch
        order.
        """
        submitted = [
            [
                (replica, self._pool.submit(replica.client.request, dict(payload)))
                for replica in self._targets(replicas)
            ]
            for replicas, payload in jobs
        ]
        answers: list[list[tuple]] = []
        refusal = unexpected = None
        for calls in submitted:
            answered = []
            for replica, future in calls:
                try:
                    answered.append((replica, future.result()))
                except ShardRequestError as exc:
                    refusal = refusal or exc
                except ShardUnreachableError as exc:
                    replica.dead, replica.error = True, exc
                except ShardProtocolError as exc:
                    replica.suspect, replica.error = True, exc
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    unexpected = unexpected or exc
                else:
                    self._clear_if_marked(replica)
            answers.append(answered)
        if unexpected is not None:
            raise unexpected
        self._repair()
        if refusal is not None:
            raise refusal
        return answers

    def _scatter_all(self, payload: Mapping) -> list[list[tuple]]:
        """Fan one request to every live replica of every epoch.

        Returns, per (epoch, shard) unit in query order, the
        ``(replica, response)`` pairs that succeeded.  Used by
        cluster-wide mutations (compact / evict), by stats, which wants
        every replica's answer individually, and by quorum reads.
        """
        return self._fan_out(
            [(replicas, payload) for _, _, replicas in self._units()]
        )

    def compact(self, before: int | None = None, key: str | None = None) -> int:
        """Fold old spans on every shard; returns total spans folded.

        Applied on every replica of every epoch (replicas must fold
        identically to stay bit-identical); each set's fold count is
        counted once.  On a keyed fleet ``key`` limits the fold to one
        key; without it every key is folded.
        """
        payload: dict = {"op": "compact"}
        if before is not None:
            payload["before"] = int(before)
        if key is not None:
            payload["key"] = check_key(key, self._keyed, "cluster")
        groups = self._scatter_all(payload)
        return sum(group[0][1]["folded"] for group in groups)

    def evict(self, before: int, key: str | None = None) -> int:
        """Forget old spans on every shard (one key, or every key).

        Returns total spans dropped.
        """
        payload: dict = {"op": "evict", "before": int(before)}
        if key is not None:
            payload["key"] = check_key(key, self._keyed, "cluster")
        groups = self._scatter_all(payload)
        return sum(group[0][1]["evicted"] for group in groups)

    # ------------------------------------------------------------------
    # Queries (scatter–gather merge-on-query)
    # ------------------------------------------------------------------
    def _gather_window(
        self, t0: int, t1: int, align: str, key: str | None = None
    ) -> tuple[Sketch, int, int]:
        """Fetch and merge per-unit window sketches at a common window.

        Shards answer strict windows identically (bucket arithmetic is
        global); outer windows can differ when compaction folded
        different spans per shard, so the hull is re-scattered until
        every unit resolves the same range — monotone, hence finite.
        Old-epoch units participate like any other: an empty shard
        answers the requested aligned window with the empty sketch
        (the merge identity), so epochs merge exactly by linearity.
        """
        key = check_key(key, self._keyed, "cluster")
        lo, hi = int(t0), int(t1)
        for _ in range(_MAX_ALIGN_ROUNDS):
            request: dict = {"op": "sketch", "from": lo, "until": hi, "align": align}
            if key is not None:
                request["key"] = key
            responses = self._scatter_read(request)
            windows = {tuple(r["window"]) for r in responses}
            if len(windows) == 1:
                (window,) = windows
                merged = gather_merge(
                    [load_sketch(r["sketch"]) for r in responses]
                )
                return merged, int(window[0]), int(window[1])
            if align != "outer":  # pragma: no cover - defensive
                raise ClusterConfigError(
                    f"shards resolved strict window [{lo}, {hi}) "
                    f"differently: {sorted(windows)}"
                )
            lo = min(w[0] for w in windows)
            hi = max(w[1] for w in windows)
        raise ClusterConfigError(  # pragma: no cover - defensive
            f"window resolution did not converge after "
            f"{_MAX_ALIGN_ROUNDS} rounds"
        )

    def query(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> Sketch:
        """The merged sketch of the window across every shard."""
        sketch, _, _ = self._gather_window(t0, t1, align, key)
        return sketch

    def estimate(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> float:
        """Self-join estimate over the window (scatter–gather merge)."""
        sketch, _, _ = self._gather_window(t0, t1, align, key)
        return float(sketch.estimate())

    def estimate_window(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> WindowEstimate:
        """The estimate together with the window it actually covers."""
        sketch, lo, hi = self._gather_window(t0, t1, align, key)
        return WindowEstimate(float(sketch.estimate()), lo, hi)

    def sketch_window(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> tuple[Sketch, int, int]:
        """The merged window sketch plus its resolved bounds."""
        return self._gather_window(t0, t1, align, key)

    def window_bounds(
        self, t0: int, t1: int, align: str = "strict", *, key: str | None = None
    ) -> tuple[int, int]:
        """The timestamp window a query would actually cover."""
        _, lo, hi = self._gather_window(t0, t1, align, key)
        return lo, hi

    # ------------------------------------------------------------------
    # Resharding (epoch-based N → M)
    # ------------------------------------------------------------------
    def reshard(
        self,
        num_shards: int,
        replication: int | None = None,
        cutover: int | None = None,
    ) -> int:
        """Grow (or shrink) to ``num_shards`` by opening a new epoch.

        No data moves: the existing epochs keep their data, and a
        fresh epoch of empty replica sets takes ownership of every
        time bucket from ``cutover`` on, routing it under a new
        partitioner with the same seed.  ``cutover`` defaults to the
        end of the cluster's current coverage (rounded up to a bucket
        boundary), i.e. strictly after every bucket already holding
        data; events below it — including late arrivals and deletions,
        which carry the timestamp of the insert they reverse — keep
        routing under the epoch that owns their bucket, so every kind
        stays exact across the boundary.  Queries merge all epochs by
        linearity, so answers stay bit-identical to the monolithic
        store.  Returns the new epoch's index.
        """
        if self._supervisor is None:
            raise ClusterConfigError(
                "resharding needs a supervisor (a LocalCluster or "
                "equivalent) to spawn the new epoch's workers"
            )
        if int(num_shards) < 1:
            raise ClusterConfigError(
                f"a cluster needs at least one shard, got {num_shards}"
            )
        if cutover is None:
            hull = self.coverage
            cutover = self._origin if hull is None else int(hull[1])
        # Align up to a bucket boundary: a bucket is atomic, so an
        # epoch boundary inside one would split a bucket's events
        # across partitioners.
        offset = int(cutover) - self._origin
        cutover = (
            self._origin
            + -(-offset // self._bucket_width) * self._bucket_width
        )
        previous_start = self._epochs[-1].start
        if previous_start is not None and cutover < previous_start:
            raise ClusterConfigError(
                f"cutover {cutover} precedes the current epoch's own "
                f"start {previous_start}; epochs must be ordered in time"
            )
        with self._admin_lock:
            new_sets = [
                [_Replica(c) for c in self._supervisor.spawn_replica_set(replication)]
                for _ in range(int(num_shards))
            ]
            self._admit(new_sets, self._reference)
            self._epochs.append(
                _Epoch(
                    HashPartitioner(int(num_shards), seed=self._partitioner.seed),
                    new_sets,
                    start=int(cutover),
                )
            )
            total = sum(
                len(replicas) for _, _, replicas in self._units()
            )
            needed = max(8, 2 * total)
            if needed > self._pool_size:
                old = self._pool
                self._pool = ThreadPoolExecutor(
                    max_workers=needed,
                    thread_name_prefix="cluster-scatter",
                )
                self._pool_size = needed
                old.shutdown(wait=False)
            return len(self._epochs) - 1

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Shard count of the epoch new batches route under."""
        return len(self._epochs[-1].sets)

    @property
    def num_epochs(self) -> int:
        return len(self._epochs)

    @property
    def replication(self) -> list[int]:
        """Replica count per shard of the current epoch."""
        return [len(replicas) for replicas in self._epochs[-1].sets]

    @property
    def addresses(self) -> list[str]:
        """Every current-epoch replica's address, shard-major order."""
        return [
            replica.client.address
            for replicas in self._epochs[-1].sets
            for replica in replicas
        ]

    @property
    def failed_replicas(self) -> list[tuple[int, int, str]]:
        """``(epoch, shard, address)`` of replicas out of rotation."""
        return [
            (e, s, replica.client.address)
            for e, s, replicas in self._units()
            for replica in replicas
            if not replica.live
        ]

    @property
    def spec(self) -> SketchSpec:
        """The cluster-wide sketch spec (identical on every shard)."""
        return self._spec

    @property
    def bucket_width(self) -> int:
        return self._bucket_width

    @property
    def origin(self) -> int:
        return self._origin

    @property
    def keyed(self) -> bool:
        """Whether the workers serve keyed fleets (probed at startup)."""
        return self._keyed

    @staticmethod
    def _merged_spans(infos: Sequence[Mapping]) -> list[tuple[int, int]]:
        """Union of shard span ranges, coalesced into disjoint intervals.

        Shards hold different values, so their span lists differ; the
        cluster-level view is the merged cover — the ranges where *some*
        shard holds data.
        """
        intervals = sorted(
            (int(a), int(b)) for info in infos for a, b in info["spans"]
        )
        merged: list[tuple[int, int]] = []
        for a, b in intervals:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return merged

    @staticmethod
    def _coverage_hull(infos: Sequence[Mapping]) -> tuple[int, int] | None:
        """Hull from the oldest to the newest span across shards."""
        covered = [i["coverage"] for i in infos if i["coverage"] is not None]
        if not covered:
            return None
        return min(int(c[0]) for c in covered), max(int(c[1]) for c in covered)

    def info(self) -> dict:
        """The cluster-level summary, one answer per (epoch, shard).

        Exactly one replica answers for each replica set (hedged), so
        replicated fleets report logical totals — ``memory_words`` is
        the data's footprint, not R times it.
        """
        infos = self._scatter_read({"op": "info"})
        coverage = self._coverage_hull(infos)
        current = self._epochs[-1]
        info = {
            "kind": self._spec.kind,
            "spec": self._spec.to_dict(),
            "bucket_width": self._bucket_width,
            "origin": self._origin,
            "spans": [list(span) for span in self._merged_spans(infos)],
            "coverage": None if coverage is None else list(coverage),
            "memory_words": sum(int(i["memory_words"]) for i in infos),
            "shards": len(current.sets),
            "replication": [len(replicas) for replicas in current.sets],
            "epochs": len(self._epochs),
            "kernel_backend": sorted(
                {
                    str(i["kernel_backend"])
                    for i in infos
                    if i.get("kernel_backend")
                }
            ),
        }
        if self._keyed:
            keys: set[str] = set()
            for i in infos:
                keys.update(i.get("keys") or ())
            info["keyed"] = True
            info["keys"] = sorted(keys)
            info["key_count"] = len(keys)
        return info

    @property
    def spans(self) -> list[tuple[int, int]]:
        """Merged shard span cover (see :meth:`_merged_spans`)."""
        return self._merged_spans(self._scatter_read({"op": "info"}))

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def coverage(self) -> tuple[int, int] | None:
        """Hull from the oldest to the newest span across shards."""
        return self._coverage_hull(self._scatter_read({"op": "info"}))

    @property
    def memory_words(self) -> int:
        """Total logical storage across shards (one replica per set)."""
        return sum(
            int(info["memory_words"])
            for info in self._scatter_read({"op": "info"})
        )

    def snapshot(self) -> dict:
        """Per-shard checkpoints plus the partition maps that routed them.

        The partitioner config is part of the snapshot because the
        shard stores are only meaningful under the assignment that
        filled them — restoring onto a different shard count or seed
        would break the value-partition invariant.  ``epochs`` carries
        one ``{"partitioner", "start", "shards"}`` entry per epoch,
        oldest first.
        """
        responses = self._scatter_read({"op": "snapshot"})
        stores = [r["snapshot"] for r in responses]
        epochs_out = []
        offset = 0
        for epoch in self._epochs:
            count = len(epoch.sets)
            epochs_out.append(
                {
                    "partitioner": epoch.partitioner.to_dict(),
                    "start": epoch.start,
                    "shards": stores[offset:offset + count],
                }
            )
            offset += count
        return {
            "kind": "cluster-snapshot",
            "epochs": epochs_out,
            "replication": [len(replicas) for replicas in self._epochs[-1].sets],
        }

    def restore(self, snapshot: Mapping) -> None:
        """Load a :meth:`snapshot` back onto the fleet, every replica.

        The snapshot's topology (epoch count, per-epoch shard counts
        and partitioners) must match this cluster's — per-shard stores
        are only meaningful under the partition map that filled them.
        Every replica of a set receives the same absolute state, which
        also heals any divergence as a side effect.
        """
        if (
            not isinstance(snapshot, Mapping)
            or snapshot.get("kind") != "cluster-snapshot"
            or "epochs" not in snapshot
        ):
            raise ClusterConfigError(
                "restore needs a cluster-snapshot mapping with an "
                "'epochs' list (see snapshot())"
            )
        epochs_in = list(snapshot["epochs"])
        if len(epochs_in) != len(self._epochs):
            raise ClusterConfigError(
                f"snapshot has {len(epochs_in)} epoch(s), this cluster has "
                f"{len(self._epochs)}"
            )
        for index, (entry, epoch) in enumerate(zip(epochs_in, self._epochs)):
            partitioner = entry.get("partitioner")
            if dict(partitioner or {}) != epoch.partitioner.to_dict():
                raise ClusterConfigError(
                    f"snapshot epoch {index} partitioner {partitioner!r} "
                    f"disagrees with the cluster's "
                    f"{epoch.partitioner.to_dict()!r}"
                )
            if entry.get("start") != epoch.start:
                raise ClusterConfigError(
                    f"snapshot epoch {index} starts at "
                    f"{entry.get('start')!r}, the cluster's epoch at "
                    f"{epoch.start!r}"
                )
            shards = entry.get("shards")
            if not isinstance(shards, Sequence) or len(shards) != len(epoch.sets):
                raise ClusterConfigError(
                    f"snapshot epoch {index} carries "
                    f"{0 if not isinstance(shards, Sequence) else len(shards)} "
                    f"shard store(s), the cluster has {len(epoch.sets)}"
                )
        self._fan_out(
            [
                (replicas, {"op": "restore", "snapshot": store})
                for entry, epoch in zip(epochs_in, self._epochs)
                for store, replicas in zip(entry["shards"], epoch.sets)
            ]
        )

    def stats(self, key: str | None = None) -> dict:
        """Cache statistics summed over every replica, plus topology.

        ``shards`` is the current epoch's shard count (the historical
        field); ``replication`` and ``per_replica`` break the totals
        down so a replicated fleet's per-replica behaviour is visible
        instead of silently folded into one number.

        Load accounting rides along: ``items_per_shard`` is each
        shard's net logical item count (one replica per set — logical
        load, not R× it) and ``items`` their sum, so partition skew is
        observable.  On a keyed fleet ``items_by_key`` merges the
        per-key inventories across shards (restricted to one key when
        ``key`` is given), exposing hot tenants the same way.
        """
        payload: dict = {"op": "stats"}
        if key is not None:
            payload["key"] = check_key(key, self._keyed, "cluster")
        groups = self._scatter_all(payload)
        totals: dict = {}
        for group in groups:
            for _replica, response in group:
                for field, value in response["cache"].items():
                    if isinstance(value, (int, float)):
                        totals[field] = totals.get(field, 0) + value
        current_count = len(self._epochs[-1].sets)
        totals["shards"] = current_count
        totals["replication"] = [
            len(replicas) for replicas in self._epochs[-1].sets
        ]
        totals["replicas"] = sum(totals["replication"])
        totals["per_replica"] = [
            [dict(response["cache"]) for _replica, response in group]
            for group in groups[-current_count:]
        ]
        # Logical (not replica-multiplied) load: one answer per replica
        # set.  ``items_per_shard`` covers the current epoch (the sets
        # new batches route to); ``items`` sums every epoch, so
        # resharded history still counts.
        unit_items = [int(g[0][1]["cache"].get("items", 0)) for g in groups]
        items_by_key: dict[str, int] = {}
        for group in groups:
            cache = group[0][1]["cache"]
            for k, v in (cache.get("items_by_key") or {}).items():
                items_by_key[k] = items_by_key.get(k, 0) + int(v)
        totals["items"] = sum(unit_items)
        totals["items_per_shard"] = unit_items[-current_count:]
        totals["kernel_backend"] = sorted(
            {
                str(response["cache"]["kernel_backend"])
                for group in groups
                for _replica, response in group
                if response["cache"].get("kernel_backend")
            }
        )
        if self._keyed:
            totals["keyed"] = True
            totals["items_by_key"] = {
                k: items_by_key[k] for k in sorted(items_by_key)
            }
            totals["key_count"] = len(items_by_key)
        return totals

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown_workers(self) -> int:
        """Send the wire ``shutdown`` op to every replica; count the acks."""
        acked = 0
        for _e, _s, replicas in self._units():
            for replica in replicas:
                try:
                    replica.client.request({"op": "shutdown"})
                    acked += 1
                except (OSError, ValueError):
                    pass  # already gone; the spawner's signals handle the rest
        return acked

    def close(self) -> None:
        """Release the scatter pool and every shard connection."""
        self._pool.shutdown(wait=True)
        for _e, _s, replicas in self._units():
            for replica in replicas:
                replica.client.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterService(shards={self.num_shards}, "
            f"replication={self.replication}, epochs={self.num_epochs}, "
            f"kind={self._spec.kind!r}, width={self._bucket_width})"
        )
