"""Sharded, replicated serving tier over N prediction engines.

One :class:`~repro.serving.engine.PredictionEngine` + one
:class:`~repro.serving.registry.ModelRegistry` per process stops scaling
the moment the request volume (or the model count) outgrows a single
dispatcher.  :class:`ShardRouter` consistent-hashes model names over N
*shards* -- each shard owns a registry and an engine of its own -- and the
shared :class:`~repro.store.ModelStore` journal doubles as the
**replication log**:

* a publish is routed to the name's *primary* shard, whose store-backed
  registry persists it write-ahead (record file + journal line);
* every shard runs a :class:`JournalFollower` that tails
  :meth:`~repro.store.ModelStore.journal_entries` and re-admits the
  records it replicates into its own registry via
  :meth:`~repro.serving.registry.ModelRegistry.restore` -- exactly the
  :class:`~repro.store.RecoveryManager` rebuild path, applied one journal
  entry at a time instead of from a full scan;
* when a shard dies (:meth:`ShardRouter.kill_shard`), the ring simply
  skips it: a dead primary's names route to the next live shard in their
  preference order, whose follower already holds a warm replica -- no
  refit, no cold start.  A survivor that does *not* replicate a
  rebalanced name (replication factor smaller than the failure count)
  backfills it on first request straight from the store
  (``serving.shard.backfills``).

Determinism: the router spawns **no** background threads.  Followers are
poll-driven -- :meth:`ShardRouter.publish` catches the name's replica
shards up synchronously, and :meth:`ShardRouter.catch_up` sweeps every
live follower -- so a request stream that awaits its futures in order
produces ``serving.shard.*`` counters that are a pure function of the
inputs, the property the shard-kill chaos scenario asserts bitwise.

Metrics (all integer counters in :mod:`repro.runtime.metrics`):
``serving.shard.publishes`` / ``routed`` / ``failover_routes`` /
``failovers`` / ``rebalanced_keys`` / ``replica_applied`` /
``replica_skipped`` / ``replica_corrupt`` / ``backfills`` /
``rerouted``.  See the metrics table in ``docs/serving.md``.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from ..locks import named_lock
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..faults import Deadline
from ..regression.base import FittedModel
from ..runtime.metrics import metrics
from ..store.format import CorruptRecordError
from ..store.store import ModelStore
from .engine import EngineOverloadedError, EngineStoppedError, PredictionEngine
from .health import HedgedFuture, HedgePolicy, _HedgeCoordinator
from .registry import ModelRegistry, ModelVersion

__all__ = ["JournalFollower", "ShardRouter", "ShardDeadError"]


class ShardDeadError(RuntimeError):
    """No live shard is available to serve the routed name."""


def _ring_point(token: str) -> int:
    """Stable 64-bit ring coordinate for a shard vnode or a model name."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class JournalFollower:
    """Tails the shared store journal into one shard's replica registry.

    The journal is the replication log: every durable publish appends one
    checksummed line, and :meth:`poll` applies the lines beyond the
    follower's offset.  An entry is applied by reading its committed
    record file and re-admitting it with
    :meth:`~repro.serving.registry.ModelRegistry.restore` (original
    version number, key, and timestamp -- the same path crash recovery
    uses), so a replica registry is bitwise comparable to the primary's
    over the replicated names.

    ``should_replicate`` filters by name (the router passes the ring's
    preference predicate); entries the registry already holds -- for
    example on the primary shard, which published them directly -- are
    skipped idempotently (``serving.shard.replica_skipped``).  A record
    that fails its CRC is counted (``serving.shard.replica_corrupt``) and
    skipped; quarantining is left to the store's owner-side recovery.

    Offsets are *global* journal offsets (see
    :meth:`~repro.store.ModelStore.journal_view`), so they stay
    meaningful across store compaction: a generation's checkpoint
    records how many entries its snapshot stands in for, and a follower
    that wakes up behind a compaction boundary (its offset predates the
    live checkpoint) replays the snapshot plus the live tail
    idempotently -- versions it already holds are skipped, versions that
    were folded into the snapshot are applied exactly once.
    """

    def __init__(
        self,
        store: ModelStore,
        registry: ModelRegistry,
        should_replicate: Optional[Callable[[str], bool]] = None,
    ):
        self.store = store
        self.registry = registry
        self.should_replicate = should_replicate
        self._offset = 0
        self._generation: Optional[int] = None
        self._lock = named_lock("serving.shard.follower")

    @property
    def offset(self) -> int:
        """Global journal offset consumed so far (applied or skipped)."""
        with self._lock:
            return self._offset

    @property
    def generation(self) -> Optional[int]:
        """Store generation of the last consumed journal (``None`` before)."""
        with self._lock:
            return self._generation

    def lag(self) -> int:
        """Journal entries published but not yet consumed by this follower."""
        view = self.store.journal_view()
        with self._lock:
            return max(0, view.end_offset - self._offset)

    def poll(self) -> int:
        """Consume every new journal entry; returns how many were *applied*."""
        view = self.store.journal_view()
        with self._lock:
            if self._offset < view.checkpoint_offset:
                # Compaction folded entries this follower never consumed
                # into the snapshot; replay snapshot + live tail
                # idempotently (held versions are skipped by _apply).
                new = list(view.snapshot) + list(view.entries)
                metrics.increment("serving.shard.follower_boundary")
            else:
                new = list(view.entries[self._offset - view.checkpoint_offset :])
            self._offset = view.end_offset
            self._generation = view.generation
        applied = 0
        for entry in new:
            if self._apply(entry):
                applied += 1
        return applied

    def resync(self) -> int:
        """Full-scan bootstrap via :class:`~repro.store.RecoveryManager`.

        For a follower starting on a *fresh* registry against a journal
        with history it never saw (or whose tail was damaged): recovery
        re-admits every valid record in the store -- a full replica, a
        superset of the ring's replica set -- and the follower resumes
        incremental tailing from the current journal end (the *global*
        end offset, so a resync started after a compaction lands on the
        same offset scale as one started before it).  Returns the
        number of versions restored.  Raises :class:`RuntimeError` on a
        non-empty registry (use :meth:`poll` for incremental catch-up).
        """
        # Imported here, not at module top: recovery imports the registry
        # package, which imports this module -- a top-level import makes
        # ``import repro.store`` fail when it is the first repro package
        # loaded.
        from ..store.recovery import RecoveryManager

        if self.registry.names():
            raise RuntimeError(
                "resync() bootstraps a fresh follower registry; "
                "use poll() for incremental catch-up"
            )
        with self._lock:
            view = self.store.journal_view()
            self._offset = view.end_offset
            self._generation = view.generation
        report = RecoveryManager(self.store).recover(
            registry=self.registry, quarantine_corrupt=False
        )
        return len(report.restored)

    def _apply(self, entry) -> bool:
        if self.should_replicate is not None and not self.should_replicate(
            entry.name
        ):
            return False
        versions = self.registry.versions(entry.name)
        if versions and versions[-1].version >= entry.version:
            metrics.increment("serving.shard.replica_skipped")
            return False
        path = self.store.records_dir / entry.filename
        try:
            record = self.store.read(path)
        except CorruptRecordError:
            metrics.increment("serving.shard.replica_corrupt")
            return False
        model = FittedModel(record.basis(), record.coefficients)
        self.registry.restore(
            record.name, record.version, record.key, record.published_at, model
        )
        metrics.increment("serving.shard.replica_applied")
        return True


class _Shard:
    """One shard: its registry, engine, follower, and liveness flag."""

    def __init__(
        self,
        shard_id: int,
        registry: ModelRegistry,
        engine: PredictionEngine,
        follower: JournalFollower,
    ):
        self.shard_id = shard_id
        self.registry = registry
        self.engine = engine
        self.follower = follower
        self.alive = True


class ShardRouter:
    """Consistent-hash router over N engine shards with journal replication.

    Parameters
    ----------
    store:
        The shared :class:`~repro.store.ModelStore` (or a path-like store
        root, from which one is built).  Every shard's registry persists
        write-ahead into it and every follower tails its journal.
    num_shards:
        Number of shards (registry + engine pairs) to run.
    replication_factor:
        How many distinct shards hold each name: the primary plus
        ``replication_factor - 1`` successors on the hash ring.  Clamped
        to ``num_shards``.  With factor ``f``, any ``f - 1`` shard
        failures leave every name on a warm replica.
    virtual_nodes:
        Ring points per shard; more points smooth the key distribution.
    registry_kwargs / engine_kwargs:
        Forwarded to every shard's :class:`ModelRegistry` /
        :class:`PredictionEngine` (the registry always gets the shared
        ``store``, and each engine a ``fault_tag`` of ``"shard-<id>"``
        unless the kwargs override it).
    hedge:
        Optional :class:`~repro.serving.health.HedgePolicy` enabling
        hedged requests: a :meth:`submit` whose primary shard has not
        answered within the adaptive hedge delay dispatches one backup
        attempt to a warm replica (first result wins, loser cancelled),
        gated by the policy's token-bucket budget.  ``None`` (default)
        returns plain futures with unchanged behavior.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    Routing methods raise :class:`ShardDeadError` once every shard is
    dead, and :class:`KeyError` propagates for never-published names.
    """

    def __init__(
        self,
        store,
        num_shards: int = 2,
        replication_factor: int = 2,
        virtual_nodes: int = 32,
        registry_kwargs: Optional[Dict[str, object]] = None,
        engine_kwargs: Optional[Dict[str, object]] = None,
        hedge: Optional[HedgePolicy] = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.store = store if isinstance(store, ModelStore) else ModelStore(store)
        self.num_shards = int(num_shards)
        self.replication_factor = min(int(replication_factor), self.num_shards)
        self.virtual_nodes = int(virtual_nodes)
        self._lock = named_lock("serving.shard.router")
        self._names: Dict[str, None] = {}  # insertion-ordered set of names
        self._failovers = 0
        self._rebalanced_keys = 0
        self._restarts = 0

        ring: List[Tuple[int, int]] = []
        for shard_id in range(self.num_shards):
            for vnode in range(self.virtual_nodes):
                ring.append((_ring_point(f"shard:{shard_id}:{vnode}"), shard_id))
        ring.sort()
        self._ring_points = [point for point, _ in ring]
        self._ring_shards = [shard_id for _, shard_id in ring]

        self._registry_kwargs = dict(registry_kwargs or {})
        self._engine_kwargs = dict(engine_kwargs or {})
        self._hedge = _HedgeCoordinator(hedge) if hedge is not None else None
        self._shards: List[_Shard] = []
        for shard_id in range(self.num_shards):
            self._shards.append(self._build_shard(shard_id))

    def _build_shard(self, shard_id: int) -> "_Shard":
        """Fresh registry + engine + follower triple for one shard slot."""
        registry = ModelRegistry(store=self.store, **self._registry_kwargs)
        engine_kwargs = dict(self._engine_kwargs)
        # Per-shard failpoint tag: slow-shard chaos plans target exactly
        # one engine instance (FaultPlan.latency(..., tag="shard-1")).
        engine_kwargs.setdefault("fault_tag", f"shard-{shard_id}")
        engine = PredictionEngine(registry, **engine_kwargs)
        follower = JournalFollower(
            self.store,
            registry,
            should_replicate=self._make_replica_predicate(shard_id),
        )
        return _Shard(shard_id, registry, engine, follower)

    # ------------------------------------------------------------------
    # Ring placement
    # ------------------------------------------------------------------
    def preference(self, name: str) -> Tuple[int, ...]:
        """Every shard id in ring order starting at ``name``'s position.

        Index 0 is the name's home primary; the first
        ``replication_factor`` entries are its replica set.  The order is
        a pure function of the ring layout -- shard deaths never change
        it, they only change which entry routing settles on.
        """
        start = bisect.bisect_left(self._ring_points, _ring_point(f"key:{name}"))
        seen: Dict[int, None] = {}
        count = len(self._ring_shards)
        for step in range(count):
            shard_id = self._ring_shards[(start + step) % count]
            if shard_id not in seen:
                seen[shard_id] = None
                if len(seen) == self.num_shards:
                    break
        return tuple(seen)

    def replicas(self, name: str) -> Tuple[int, ...]:
        """The ``replication_factor`` ring shard ids holding ``name``.

        Static ring placement, ignoring liveness; the *effective* replica
        set (:meth:`_live_replicas`) skips dead shards, so replication
        follows the failover routing.
        """
        return self.preference(name)[: self.replication_factor]

    def primary(self, name: str) -> int:
        """The home shard id of ``name`` (alive or not)."""
        return self.preference(name)[0]

    def _live_replicas(self, name: str) -> Tuple[int, ...]:
        """First ``replication_factor`` *live* shards in preference order.

        This is the set that actually replicates ``name`` right now: as
        shards die, successors on the ring inherit replication duty, so
        a name rebalanced past its original replica set is picked up by
        its new route's follower instead of being orphaned.
        """
        live: List[int] = []
        for shard_id in self.preference(name):
            if self._shards[shard_id].alive:
                live.append(shard_id)
                if len(live) == self.replication_factor:
                    break
        return tuple(live)

    def _make_replica_predicate(self, shard_id: int) -> Callable[[str], bool]:
        def should_replicate(name: str) -> bool:
            return shard_id in self._live_replicas(name)

        return should_replicate

    def _route(self, name: str) -> _Shard:
        """First *live* shard in ``name``'s preference order."""
        preference = self.preference(name)
        for position, shard_id in enumerate(preference):
            shard = self._shards[shard_id]
            if shard.alive:
                if position > 0:
                    metrics.increment("serving.shard.failover_routes")
                return shard
        raise ShardDeadError(f"every shard holding {name!r} is dead")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardRouter":
        """Start every live shard's engine (idempotent)."""
        for shard in self._shards:
            if shard.alive:
                shard.engine.start()
        return self

    def stop(self) -> None:
        """Stop every live shard's engine (idempotent)."""
        for shard in self._shards:
            if shard.alive:
                shard.engine.stop()

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def kill_shard(self, shard_id: int) -> int:
        """Kill one shard mid-traffic; returns how many names rebalanced.

        The shard's engine is stopped (in-flight batches drain, queued
        requests fail fast) and the shard is marked dead, so the ring
        routes its names to the next live shard in their preference
        order.  Names whose *current route* was the dead shard are the
        rebalanced set (``serving.shard.rebalanced_keys``); their new
        homes already replicate them (warm failover) unless more shards
        have died than the replication factor covers, in which case the
        first request backfills from the store.  Idempotent per shard.
        """
        shard = self._shards[shard_id]
        with self._lock:
            if not shard.alive:
                return 0
            rebalanced = 0
            for name in self._names:
                route = None
                for candidate in self.preference(name):
                    if self._shards[candidate].alive:
                        route = candidate
                        break
                if route == shard_id:
                    rebalanced += 1
            shard.alive = False
            self._failovers += 1
            self._rebalanced_keys += rebalanced
        shard.engine.stop()
        metrics.increment("serving.shard.failovers")
        metrics.increment("serving.shard.rebalanced_keys", rebalanced)
        return rebalanced

    def restart_shard(
        self,
        shard_id: int,
        drive: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Restart one shard from the store: stop, rebuild, resync, rejoin.

        The zero-downtime primitive behind :meth:`rolling_restart`: the
        shard is taken out of routing (its names fail over to the next
        live shard, whose follower already holds a warm replica), its
        engine drains and stops, and a *fresh* registry + engine +
        follower triple is built with the router's original kwargs --
        simulating a process restart that owns nothing but the store
        directory.  The replacement bootstraps via
        :meth:`JournalFollower.resync` (full-store recovery, no refit)
        *before* it rejoins routing, so no request ever reaches a cold
        shard.  ``drive`` is called while the shard is down (after the
        engine stops, before the replacement is built) so tests can push
        live traffic through the degraded ring.  Returns the number of
        versions the replacement restored.  Counts
        ``serving.shard.restarts`` / ``serving.shard.restart_restored``.
        Restarting a dead shard revives it.
        """
        shard = self._shards[shard_id]
        with self._lock:
            was_alive = shard.alive
            shard.alive = False
        if was_alive:
            shard.engine.stop()
        metrics.increment("serving.shard.restarts")
        if drive is not None:
            drive(shard_id)
        replacement = self._build_shard(shard_id)
        restored = replacement.follower.resync()
        replacement.engine.start()
        # Deliberate lock-free swap: the replacement is fully built and
        # element assignment is atomic, so readers see either the old
        # (dead) shard or the new (live) one -- the same visibility
        # contract every lock-free ``_shards`` read in this class relies
        # on.
        self._shards[shard_id] = replacement
        with self._lock:
            self._restarts += 1
        metrics.increment("serving.shard.restart_restored", restored)
        return restored

    def rolling_restart(
        self, drive: Optional[Callable[[int], None]] = None
    ) -> Dict[int, int]:
        """Restart every live shard one at a time under live traffic.

        The zero-downtime drill: at any moment at most one shard is
        down, so with ``replication_factor >= 2`` every name stays on a
        warm replica and 100% of accepted requests are answered -- no
        refit-from-scratch ever lands on the serving path (warm
        :meth:`resync <JournalFollower.resync>` restores persisted
        records; sequential fitters re-arm from their stored Cholesky
        factors out of band).  ``drive`` is forwarded to each
        :meth:`restart_shard`.  Returns ``{shard_id: versions
        restored}`` in restart order.
        """
        restored: Dict[int, int] = {}
        for shard_id in self.alive_shards():
            restored[shard_id] = self.restart_shard(shard_id, drive=drive)
        return restored

    def alive_shards(self) -> Tuple[int, ...]:
        """Ids of the shards still alive, ascending."""
        return tuple(s.shard_id for s in self._shards if s.alive)

    # ------------------------------------------------------------------
    # Publishing and replication
    # ------------------------------------------------------------------
    def publish(self, name: str, model, key: Optional[str] = None) -> ModelVersion:
        """Publish on the name's primary shard and catch its replicas up.

        The primary's store-backed registry persists the record
        write-ahead (journal line included); the name's live replica
        shards then :meth:`~JournalFollower.poll` synchronously, so by
        the time this returns every warm replica already serves the new
        version -- publish-time replication instead of a background
        tailer keeps the tier deterministic.
        """
        shard = self._route(name)
        record = shard.registry.publish(name, model, key=key)
        with self._lock:
            self._names[name] = None
        metrics.increment("serving.shard.publishes")
        for shard_id in self._live_replicas(name):
            if shard_id != shard.shard_id:
                self._shards[shard_id].follower.poll()
        return record

    def catch_up(self) -> int:
        """Poll every live follower; returns total entries applied."""
        applied = 0
        for shard in self._shards:
            if shard.alive:
                applied += shard.follower.poll()
        return applied

    def follower_lag(self) -> Dict[int, int]:
        """Per-live-shard journal lag (entries published but unconsumed)."""
        return {s.shard_id: s.follower.lag() for s in self._shards if s.alive}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, name: str, x: np.ndarray, **kwargs) -> Future:
        """Route a prediction request to ``name``'s first live shard.

        A route whose registry does not hold ``name`` yet (a failover
        past the replica set) is backfilled from the store first
        (``serving.shard.backfills``).  A submit that races a concurrent
        :meth:`kill_shard` is re-routed once (``serving.shard.rerouted``).
        Overload (:class:`~repro.serving.EngineOverloadedError`), unknown
        names (:class:`KeyError`) and bad input (:class:`ValueError`)
        propagate to the caller; bad input is neither failed over nor
        hedged and leaves the shard's health untouched.

        With a :class:`~repro.serving.health.HedgePolicy` configured the
        returned object is a :class:`~repro.serving.health.HedgedFuture`:
        awaiting it past the adaptive hedge delay dispatches one backup
        attempt to a warm replica successor (budget permitting), the
        first result wins, and the loser is cancelled.  Without a policy
        the plain engine future is returned unchanged.
        """
        shard, future = self._submit_routed(name, x, **kwargs)
        hedge = self._hedge
        if hedge is None:
            return future
        hedge.note_request()
        primary_id = shard.shard_id
        return HedgedFuture(
            primary=future,
            coordinator=hedge,
            spawn=lambda: self._hedge_backup(name, x, primary_id, kwargs),
        )

    def _submit_routed(
        self, name: str, x: np.ndarray, **kwargs
    ) -> Tuple[_Shard, Future]:
        """Route + submit, returning the serving shard with the future."""
        shard = self._route(name)
        metrics.increment("serving.shard.routed")
        self._ensure_holds(shard, name)
        try:
            return shard, shard.engine.submit(name, x, **kwargs)
        except EngineStoppedError:
            # The shard died between routing and submission; route again
            # (the dead shard is now marked, so this terminates).
            metrics.increment("serving.shard.rerouted")
            shard = self._route(name)
            self._ensure_holds(shard, name)
            return shard, shard.engine.submit(name, x, **kwargs)

    def _hedge_backup(
        self, name: str, x: np.ndarray, primary_shard_id: int, kwargs: Dict
    ) -> Optional[Future]:
        """Dispatch the hedged backup to a warm replica of ``name``.

        Replica-selection rules: candidates are the name's *live*
        replica set in ring preference order, minus the shard the
        primary attempt went to -- those shards already hold the model
        via journal replication, so the hedge costs one queue slot and
        an evaluation, never a backfill-from-store on the hot path.  A
        candidate that is stopped, overloaded, or missing the name is
        skipped (hedging must never *add* load to a shard that cannot
        absorb it); ``None`` when no candidate can take the hedge.
        """
        for shard_id in self._live_replicas(name):
            if shard_id == primary_shard_id:
                continue
            shard = self._shards[shard_id]
            try:
                self._ensure_holds(shard, name)
                return shard.engine.submit(name, x, **kwargs)
            except (EngineStoppedError, EngineOverloadedError, KeyError):
                continue
        return None

    def _ensure_holds(self, shard: "_Shard", name: str) -> None:
        """Backfill ``name`` into ``shard``'s registry from the store log."""
        if name in shard.registry:
            return
        shard.follower.poll()
        if name not in shard.registry:
            raise KeyError(f"no model published under {name!r}")
        metrics.increment("serving.shard.backfills")

    def predict(
        self, name: str, x: np.ndarray, timeout: Optional[float] = 30.0
    ) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`.

        Single time budget semantics, matching
        :meth:`~repro.serving.PredictionEngine.predict`.  With
        ``timeout=None`` the wait is liveness-checked against the shard
        that holds the request (see
        :meth:`~repro.serving.PredictionEngine.await_result`), so a dead
        dispatcher fails fast with
        :class:`~repro.serving.EngineStoppedError` instead of stranding
        the caller; this un-timed path routes directly and does not
        hedge (hedging needs a bounded await to race attempts against).
        """
        if timeout is None:
            shard, future = self._submit_routed(name, x)
            return shard.engine.await_result(future, name=name)
        deadline = Deadline.after(timeout)
        future = self.submit(name, x, deadline=deadline)
        return future.result(timeout=deadline.remaining())

    # ------------------------------------------------------------------
    # Test hooks and introspection
    # ------------------------------------------------------------------
    def shard(self, shard_id: int) -> _Shard:
        """The shard object (registry/engine/follower); test hook."""
        return self._shards[shard_id]

    def engine_for(self, name: str) -> PredictionEngine:
        """The engine currently serving ``name`` (first live route)."""
        return self._route(name).engine

    def pause_dispatch(self, shard_id: int) -> None:
        """Pause one shard's dispatcher (deterministic overload staging)."""
        self._shards[shard_id].engine.pause_dispatch()

    def resume_dispatch(self, shard_id: int) -> None:
        """Resume one shard's dispatcher."""
        self._shards[shard_id].engine.resume_dispatch()

    def health(self) -> Dict[int, Dict[str, object]]:
        """Per-live-shard health view: score, liveness, readiness, queue.

        The operator-facing probe surface: a shard with a sagging score
        (slow, erroring, or queue-pressured) shows up here before it
        shows up in p99.  ``ready`` uses each engine's configured
        ``ready_threshold``; probing counts readiness transitions
        (``serving.health.degraded`` / ``recovered``).
        """
        out: Dict[int, Dict[str, object]] = {}
        for shard in self._shards:
            if not shard.alive:
                continue
            engine = shard.engine
            out[shard.shard_id] = {
                "score": engine.health_score(),
                "live": engine.live(),
                "ready": engine.ready(),
                "queue_depth": engine.stats()["queue_depth"],
                "health": engine.health.snapshot(),
            }
        return out

    def hedge_stats(self) -> Optional[Dict[str, object]]:
        """Hedge counters and live budget; ``None`` when hedging is off."""
        if self._hedge is None:
            return None
        return self._hedge.stats()

    def names(self) -> Tuple[str, ...]:
        """Every name published through this router, in publish order."""
        with self._lock:
            return tuple(self._names)

    def placement(self) -> Dict[str, Tuple[int, ...]]:
        """Replica set per published name (primary first)."""
        with self._lock:
            names = tuple(self._names)
        return {name: self.replicas(name) for name in names}

    def stats(self) -> Dict[str, object]:
        """Router-level counters plus one stats snapshot per live shard."""
        with self._lock:
            failovers = self._failovers
            rebalanced = self._rebalanced_keys
            restarts = self._restarts
            num_names = len(self._names)
        out: Dict[str, object] = {
            "num_shards": self.num_shards,
            "replication_factor": self.replication_factor,
            "alive_shards": self.alive_shards(),
            "failovers": failovers,
            "rebalanced_keys": rebalanced,
            "restarts": restarts,
            "names": num_names,
            "hedge": self.hedge_stats(),
            "shards": {
                shard.shard_id: shard.engine.stats()
                for shard in self._shards
                if shard.alive
            },
        }
        return out

    def max_version_lag(self) -> int:
        """Largest ``max_version_lag`` any live shard's engine has seen."""
        lags = [
            int(shard.engine.stats()["max_version_lag"])
            for shard in self._shards
            if shard.alive
        ]
        return max(lags) if lags else 0
