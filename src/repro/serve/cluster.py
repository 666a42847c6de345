"""Sharded serving: one front door over N shard handles.

:class:`ShardedServer` scales the serving layer horizontally the way
HiMA-D scales memory access: partition the state and move the work to
where the state lives.  Each shard *handle* owns a complete engine +
arena + batcher and serves its resident sessions independently; the
front door only routes — it places new sessions with a pluggable
:class:`~repro.serve.router.PlacementPolicy` (spilling a refused open
onto the next-best shard), forwards submits to the owning shard,
drives every shard once per :meth:`run_tick` (optionally from a thread
pool: shards share nothing, so concurrent ticks are bit-identical to
sequential ones), and merges the per-shard
:class:`~repro.serve.metrics.ServerMetrics` into one cluster snapshot.

A handle has two transports and one surface (``load``,
``queue_depth``, ``capacity``, ``session_ids`` and the
admit/submit/tick/checkpoint/detach/attach calls): an in-process
:class:`~repro.serve.shard.EngineShard`, or a
:class:`~repro.serve.proc.ProcWorker` that serves the same surface over
framed RPC to an ``EngineShard`` in a worker process
(:class:`~repro.serve.proc.ProcCluster` is this class over those).  The
front door never branches on which one it holds.

Hot spots rebalance through the checkpoint path: a
:class:`~repro.serve.router.RebalancePolicy` plans migrations between
ticks, and :meth:`migrate_session` moves a live session — state bytes
plus its pending request FIFO — with one slot read on the source and
one slot write on the destination.  Because every engine carries
identical weights and state round-trips bitwise through
:meth:`~repro.dnc.state.NumpyDNCState.to_bytes`, a migrated
session's trajectory is bit-identical to never having moved, given
equal dispatch order — and any served trajectory matches solo unbatched
stepping to <= 1e-10 (pinned in ``tests/test_serve_cluster.py``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import TiledEngine
from repro.dnc.state import NumpyDNCState
from repro.errors import CapacityError, ConfigError, ReproError
from repro.obs import PhaseTimer, Tracer
from repro.serve.batcher import StepRequest
from repro.serve.metrics import ServerMetrics
from repro.serve.router import (
    LeastLoadedPlacement,
    PlacementPolicy,
    RebalancePolicy,
)
from repro.serve.shard import EngineShard

#: Weight arrays compared across shard engines at construction: identical
#: configs with different seeds would serve *valid-looking* but wrong
#: trajectories after a migration, so the mismatch must fail fast.
_WEIGHT_ATTRS = ("w_x", "w_h", "b", "w_if", "b_if", "w_y", "b_y")


class ShardedServer:
    """Route sessions across N shard handles behind one server API.

    Construct from explicit ``engines`` (one per shard, identical
    config and weights — build them with the same ``HiMAConfig`` and
    rng seed) or from ``engine_factory`` + ``num_shards``.  The
    session/batching knobs are per shard: a 4-shard cluster with
    ``session_capacity=16`` holds 64 sessions total.

    ``parallel=True`` drives the shards' ticks from a thread pool.
    Shards share no state, so the results are bit-identical to
    sequential ticking — the threads only overlap the engines' numpy
    work on separate cores, or the worker processes' ticks for
    :class:`~repro.serve.proc.ProcCluster`.  The pool holds
    ``min(num_shards, cpu_count)`` workers.
    """

    def __init__(
        self,
        engines: Optional[Sequence[TiledEngine]] = None,
        *,
        engine_factory: Optional[Callable[[], TiledEngine]] = None,
        num_shards: Optional[int] = None,
        max_batch: int = 16,
        max_wait_ticks: int = 2,
        queue_capacity: int = 1024,
        session_capacity: int = 64,
        session_ttl_ticks: Optional[int] = None,
        placement: Optional[PlacementPolicy] = None,
        rebalance: Optional[RebalancePolicy] = None,
        parallel: bool = True,
        tracer: Optional[Tracer] = None,
        profile: bool = False,
    ):
        if engines is None:
            if engine_factory is None or num_shards is None:
                raise ConfigError(
                    "ShardedServer needs either engines= or "
                    "engine_factory= with num_shards="
                )
            if num_shards < 1:
                raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
            engines = [engine_factory() for _ in range(num_shards)]
        engines = list(engines)
        if not engines:
            raise ConfigError("ShardedServer needs at least one engine")
        self._check_uniform_engines(engines)
        shards = [
            EngineShard(
                engine,
                shard_id=index,
                max_batch=max_batch,
                max_wait_ticks=max_wait_ticks,
                queue_capacity=queue_capacity,
                session_capacity=session_capacity,
                session_ttl_ticks=session_ttl_ticks,
                tracer=tracer,
                profiler=PhaseTimer() if profile else None,
            )
            for index, engine in enumerate(engines)
        ]
        self._init_front_door(shards, placement, rebalance, parallel, tracer)

    def _init_front_door(
        self,
        shards: Sequence,
        placement: Optional[PlacementPolicy],
        rebalance: Optional[RebalancePolicy],
        parallel: bool,
        tracer: Optional[Tracer],
    ) -> None:
        self.shards = list(shards)
        #: Shared request tracer (``None`` = tracing off).  One ring for
        #: the whole cluster: shard ticks append concurrently (atomic
        #: deque appends), so the cluster's spans interleave exactly as
        #: they completed.
        self.tracer = tracer
        self.placement = placement if placement is not None else LeastLoadedPlacement()
        self.rebalance = rebalance
        self.parallel = parallel
        #: Front-door counters (refused opens, admission spills); merged
        #: into :meth:`cluster_metrics` alongside the per-shard metrics.
        self.metrics = ServerMetrics()
        #: Cluster ticks driven (each drives every shard once).
        self.tick = 0
        #: Sessions migrated between shards over the cluster's lifetime.
        self.migrations = 0
        self._shard_of: Dict[str, int] = {}
        self._session_counter = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        # Oldest-first router.submit contexts of traced requests not yet
        # dispatched: the next cluster tick parents its span on the
        # oldest one, attributing the tick to the request it serves.
        self._pending_traces: List[tuple] = []

    @staticmethod
    def _check_uniform_engines(engines: Sequence[TiledEngine]) -> None:
        first = engines[0]
        for index, engine in enumerate(engines[1:], start=1):
            if engine.config != first.config:
                raise ConfigError(
                    f"shard engine {index} config differs from shard 0; "
                    "sessions could not migrate between them"
                )
            for attr in _WEIGHT_ATTRS:
                if not np.array_equal(
                    getattr(engine.reference, attr),
                    getattr(first.reference, attr),
                ):
                    raise ConfigError(
                        f"shard engine {index} weights ({attr}) differ from "
                        "shard 0; build every shard engine from the same "
                        "config and rng seed"
                    )

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def queue_depth(self) -> int:
        """Submitted-but-uncompleted requests across all shards."""
        return sum(shard.queue_depth for shard in self.shards)

    @property
    def session_count(self) -> int:
        return len(self._shard_of)

    def shard_of(self, session_id: str) -> int:
        """The shard index currently owning ``session_id``."""
        try:
            return self._shard_of[session_id]
        except KeyError:
            raise ConfigError(f"unknown session {session_id!r}") from None

    def _owner(self, session_id: str):
        return self.shards[self.shard_of(session_id)]

    # ------------------------------------------------------------------
    def open_session(self, session_id: Optional[str] = None) -> Optional[str]:
        """Place and admit a new session; ``None`` when every shard refuses.

        The placement policy nominates a shard; when it refuses (full of
        sessions with queued work), the open spills onto the remaining
        shards in next-best ``(load, queue_depth, index)`` order.  A
        refused open counts one admission reject here, however many
        shards refused it.
        """
        if session_id is None:
            while f"session-{self._session_counter}" in self._shard_of:
                self._session_counter += 1
            session_id = f"session-{self._session_counter}"
            self._session_counter += 1
        elif session_id in self._shard_of:
            raise ConfigError(f"session {session_id!r} already exists")
        shards = self.shards
        first = self.placement.place(session_id, shards)
        if not 0 <= first < len(shards):
            raise ConfigError(
                f"placement policy returned shard {first}, cluster has "
                f"{len(shards)}"
            )
        spill = sorted(
            (i for i in range(len(shards)) if i != first),
            key=lambda i: (shards[i].load, shards[i].queue_depth, i),
        )
        for attempt, index in enumerate([first] + spill):
            opened = shards[index].admit(session_id)
            # Admission may have LRU/TTL-evicted another resident session
            # to make room — resync the routing table immediately (not
            # just at the next tick) so the victim cannot linger as a
            # phantom entry.
            self._sync_departures()
            if opened is not None:
                if attempt > 0:
                    self.metrics.admission_spills += 1
                self._shard_of[opened] = index
                return opened
        self.metrics.admission_rejects += 1
        return None

    def close_session(self, session_id: str) -> None:
        self._owner(session_id).close_session(session_id)
        del self._shard_of[session_id]

    def submit(
        self,
        session_id: str,
        x: np.ndarray,
        trace: Optional[tuple] = None,
    ) -> Optional[StepRequest]:
        """Forward one timestep to the owning shard (same contract).

        With a tracer attached the routing hop is a ``router.submit``
        span (child of ``trace`` when the frontend propagated one) and
        the shard's submit span parents on it.
        """
        tracer = self.tracer
        if tracer is None:
            return self._owner(session_id).submit(session_id, x, trace=trace)
        span = tracer.start(
            "router.submit", parent=trace, attrs={"session": session_id}
        )
        request = self._owner(session_id).submit(
            session_id, x, trace=span.context
        )
        tracer.end(span, accepted=request is not None)
        if request is not None:
            self._pending_traces.append(span.context)
        return request

    # ------------------------------------------------------------------
    def session_state(self, session_id: str) -> NumpyDNCState:
        """Copy of a session's current recurrent state (a checkpoint read)."""
        return NumpyDNCState.from_bytes(self.checkpoint_session(session_id))

    def restore_session_state(
        self, session_id: str, state: NumpyDNCState
    ) -> None:
        self.restore_session(session_id, state.to_bytes())

    def checkpoint_session(self, session_id: str) -> bytes:
        """The owning shard's ``checkpoint_session``: versioned state bytes."""
        return self._owner(session_id).checkpoint_session(session_id)

    def restore_session(self, session_id: str, payload: bytes) -> str:
        """Restore a checkpoint, placing the session first if unknown."""
        if session_id in self._shard_of:
            return self._owner(session_id).restore_session(session_id, payload)
        index = self.placement.place(session_id, self.shards)
        self.shards[index].restore_session(session_id, payload)
        # The admitting open may have evicted a resident session (see
        # open_session): resync before registering the restored one.
        self._sync_departures()
        self._shard_of[session_id] = index
        return session_id

    def migrate_session(self, session_id: str, dst_shard: int) -> None:
        """Move a live session to ``dst_shard`` mid-stream.

        Checkpoint bytes plus the pending request FIFO leave the source
        (``detach_session``) and land on the destination
        (``attach_session``): one slot read, one slot write, zero failed
        requests, and — at equal dispatch order — a bit-identical
        continued trajectory.  Raises :class:`~repro.errors.CapacityError`
        when the destination is full; if the attach itself fails, the
        session goes back onto the source before the error propagates.
        """
        src_index = self.shard_of(session_id)
        if not 0 <= dst_shard < len(self.shards):
            raise ConfigError(
                f"destination shard {dst_shard} out of range "
                f"(cluster has {len(self.shards)})"
            )
        if dst_shard == src_index:
            return
        src, dst = self.shards[src_index], self.shards[dst_shard]
        if dst.load >= dst.capacity:
            raise CapacityError(
                f"shard {dst_shard} is full; cannot migrate {session_id!r}"
            )
        payload, pending = src.detach_session(session_id)
        try:
            dst.attach_session(session_id, payload, pending)
        except ReproError:
            src.attach_session(session_id, payload, pending)
            raise
        self._shard_of[session_id] = dst_shard
        self.migrations += 1

    # ------------------------------------------------------------------
    def run_tick(self) -> List[StepRequest]:
        """Drive every shard one tick; then apply the rebalance policy.

        Completed requests return in shard order (deterministic whatever
        the thread interleaving — each shard's work is self-contained).
        Sessions the shards evicted during the tick leave the routing
        table before the rebalancer runs, so it never plans a move for a
        dead session.
        """
        tick_ctx = None
        tick_span = None
        if self.tracer is not None:
            parent = self._pending_traces[0] if self._pending_traces else None
            tick_span = self.tracer.start(
                "cluster.tick", parent=parent, attrs={"tick": self.tick}
            )
            tick_ctx = tick_span.context
        if self.parallel and len(self.shards) > 1:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=min(len(self.shards), os.cpu_count() or 1),
                    thread_name_prefix="engine-shard",
                )
            per_shard = list(
                self._executor.map(
                    lambda shard: shard.run_tick(trace=tick_ctx), self.shards
                )
            )
        else:
            per_shard = [shard.run_tick(trace=tick_ctx) for shard in self.shards]
        if tick_span is not None:
            self.tracer.end(
                tick_span,
                completed=sum(len(batch) for batch in per_shard),
            )
        self._pending_traces.clear()
        self.tick += 1
        self._sync_departures()
        if self.rebalance is not None:
            for session_id, src, dst in self.rebalance.plan(self.shards):
                if (
                    self._shard_of.get(session_id) != src
                    or self.shards[dst].load >= self.shards[dst].capacity
                ):
                    continue  # plan went stale (closed/evicted/moved/full)
                self.migrate_session(session_id, dst)
        return [request for batch in per_shard for request in batch]

    def _sync_departures(self) -> None:
        """Drop routing entries for sessions their shard evicted."""
        resident = [set(shard.session_ids()) for shard in self.shards]
        stale = [
            session_id
            for session_id, index in self._shard_of.items()
            if session_id not in resident[index]
        ]
        for session_id in stale:
            del self._shard_of[session_id]

    def drain(self, max_ticks: int = 10_000) -> List[StepRequest]:
        """Run cluster ticks until every shard's queue is empty."""
        completed: List[StepRequest] = []
        for _ in range(max_ticks):
            if self.queue_depth == 0:
                return completed
            completed.extend(self.run_tick())
        raise ConfigError(
            f"drain did not empty the queues within {max_ticks} ticks"
        )

    def close(self) -> None:
        """Shut down the tick thread pool and every shard (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def cluster_metrics(self) -> ServerMetrics:
        """Exact merge of every shard's metrics (see ServerMetrics.merge)."""
        return ServerMetrics.merge(
            [self.metrics] + [shard.metrics for shard in self.shards]
        )

    def cluster_profile(self) -> Dict[str, Dict[str, float]]:
        """Merged per-phase engine profile across shards (empty if off)."""
        merged = PhaseTimer()
        for shard in self.shards:
            merged.merge(shard.phase_stats())
        return merged.stats()

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able cluster snapshot: merged metrics + topology."""
        per_shard = [shard.metrics for shard in self.shards]
        snap = ServerMetrics.merge([self.metrics] + per_shard).snapshot()
        snap["shards"] = len(self.shards)
        snap["cluster_ticks"] = self.tick
        snap["sessions_migrated"] = self.migrations
        snap["per_shard"] = [
            {
                "shard_id": index,
                "sessions": shard.load,
                "queue_depth": shard.queue_depth,
                "requests_completed": metrics.requests_completed,
            }
            for index, (shard, metrics) in enumerate(zip(self.shards, per_shard))
        ]
        return snap


__all__ = ["ShardedServer"]
