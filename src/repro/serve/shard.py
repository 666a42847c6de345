"""The engine-owning serving worker: the single-engine server and a cluster shard.

:class:`EngineShard` is one :class:`~repro.core.engine.TiledEngine` plus
the session store, micro-batcher, resident state arena, and masked-step
dispatch that serve it.  On its own it *is* the single-engine server
(exported as ``SessionServer``); inside a
:class:`repro.serve.cluster.ShardedServer` it is the in-process shard
handle, and a :class:`repro.serve.proc.ProcWorker` serves the same
surface over RPC to an ``EngineShard`` in a worker process.

State residency: every session is pinned to one slot of a
preallocated :class:`~repro.serve.arena.StateArena` for its whole
lifetime, and each tick advances the dispatched slots through the
engine's masked in-place step — session state is copied exactly once on
join (slot write) and once on leave/checkpoint (slot read:
:meth:`session_state` / :meth:`restore_session_state`).

Checkpoint/migration surface (the cluster's rebalancing primitive):
:meth:`checkpoint_session` / :meth:`restore_session` carry a
session's full recurrent state as the versioned
:meth:`~repro.dnc.state.NumpyDNCState.to_bytes` byte string, and
:meth:`detach_session` / :meth:`attach_session` move a *live* session —
state bytes plus its pending request FIFO — between shards without
failing a single queued request.  Migration costs exactly one slot read
on the source and one slot write on the destination (the PR 4 slot
lifetime contract), so a migrated session's trajectory is bit-identical
to never having moved, given equal dispatch order.

Correctness contract (pinned by ``tests/test_serve_microbatch.py`` and
``tests/test_serve_arena.py``): stepping K sessions through the
micro-batcher is numerically identical (<= 1e-10 in float64) to
stepping each session alone through the unbatched engine, *including*
when sessions join and leave mid-stream under arbitrary
join/leave/evict churn — the batch membership may differ on every
tick.  Traffic accounting keeps
PR 1's batched-words convention: each dispatched tick logs the one-step
message pattern with every event's words scaled by that tick's batch
occupancy.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import TiledEngine
from repro.dnc.state import NumpyDNCState
from repro.errors import CapacityError, ConfigError
from repro.obs import PHASES, PhaseTimer, Tracer
from repro.serve.arena import StateArena
from repro.serve.batcher import MicroBatcher, StepRequest
from repro.serve.metrics import ServerMetrics
from repro.serve.session import SessionStore


class EngineShard:
    """Serve asynchronously arriving DNC sessions through one engine.

    The shard is deterministic and single-threaded by design: time
    advances only through :meth:`run_tick`, which makes the scheduling
    (and therefore every session's numerical trajectory) exactly
    reproducible — the property the correctness tests pin.  Because a
    shard owns its engine, store, and arena outright and shares nothing,
    a cluster may drive many shards' ticks concurrently (threads) with
    bit-identical results to driving them one after another.
    """

    def __init__(
        self,
        engine: TiledEngine,
        max_batch: int = 16,
        max_wait_ticks: int = 2,
        queue_capacity: int = 1024,
        session_capacity: int = 64,
        session_ttl_ticks: Optional[int] = None,
        metrics: Optional[ServerMetrics] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[PhaseTimer] = None,
        *,
        shard_id: int = 0,
    ):
        self.engine = engine
        self.shard_id = shard_id
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: Optional request tracer: when set, every submit/tick emits
        #: spans (``shard.submit`` / ``shard.tick`` / ``engine.step`` /
        #: per-request ``shard.dispatch``); ``None`` costs one check per
        #: hook.
        self.tracer = tracer
        #: Optional per-phase engine profiler — attached to the engine's
        #: ``profiler`` seam so each tick's step attributes its wall time
        #: to named phases; with a tracer too, the tick synthesizes
        #: ``engine.phase:*`` child spans from the stat deltas.
        self.profiler = profiler
        if profiler is not None:
            engine.profiler = profiler
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            max_wait_ticks=max_wait_ticks,
            queue_capacity=queue_capacity,
        )
        #: Resident slot-pinned state: one arena row per session.
        self.arena = StateArena(
            engine.initial_state, capacity=session_capacity
        )
        self.store = SessionStore(
            capacity=session_capacity,
            ttl_ticks=session_ttl_ticks,
            on_evict=self._on_evict,
        )
        # Reused every tick (one row per arena slot) instead of a fresh
        # np.stack allocation.
        self._x_buf = np.zeros(
            (session_capacity, engine.reference.config.input_size),
            dtype=engine.config.np_dtype,
        )
        self.tick = 0
        self._session_counter = 0

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Open sessions on this shard (the placement policies' signal)."""
        return len(self.store)

    @property
    def queue_depth(self) -> int:
        """Total queued step requests across this shard's sessions."""
        return len(self.batcher)

    @property
    def capacity(self) -> int:
        """Maximum resident sessions (the store's admission bound)."""
        return self.store.capacity

    def session_ids(self) -> List[str]:
        """Resident session ids, least recently active first."""
        return self.store.ids()

    def phase_stats(self):
        """Cumulative per-phase engine profile (empty without a
        profiler) — a :meth:`repro.obs.profiler.PhaseTimer.stats` dict."""
        return self.profiler.stats() if self.profiler is not None else {}

    # ------------------------------------------------------------------
    def _on_evict(self, session_id: str, reason: str) -> None:
        if reason == "ttl":
            self.metrics.evictions_ttl += 1
        else:
            self.metrics.evictions_lru += 1
        self.arena.release(session_id)
        self._fail_queued(session_id, f"session evicted ({reason})")

    def _fail_queued(self, session_id: str, error: str) -> None:
        for request in self.batcher.drop_session(session_id):
            request.error = error
            request.completed_tick = self.tick
            self.metrics.requests_failed += 1

    # ------------------------------------------------------------------
    def open_session(self, session_id: Optional[str] = None) -> Optional[str]:
        """Admit a new session; returns its id, or ``None`` when refused.

        Admission may evict an idle session (TTL first, then LRU — never
        one with queued requests); when the store is full of protected
        sessions the open is refused and counted as an admission reject.
        """
        if session_id is None:
            # Skip over any ids the caller already claimed explicitly.
            while f"session-{self._session_counter}" in self.store:
                self._session_counter += 1
            session_id = f"session-{self._session_counter}"
            self._session_counter += 1
        opened = self.admit(session_id)
        if opened is None:
            self.metrics.admission_rejects += 1
        return opened

    def admit(self, session_id: str) -> Optional[str]:
        """:meth:`open_session` without counting a refusal — a cluster
        tries other shards first, and its front door counts one
        admission reject per open it finally refuses."""
        try:
            self.store.create(
                session_id, self.tick, protect=self.batcher.pending_sessions()
            )
        except CapacityError:
            return None
        # Join: the session's single slot write (a zeroed initial
        # state); its state never moves again until it leaves.
        self.arena.bind(session_id)
        self.metrics.observe_state_copy(self.arena.row_nbytes)
        self.metrics.sessions_opened += 1
        return session_id

    def close_session(self, session_id: str) -> None:
        """Drop a session's state; queued requests fail with an error."""
        self._fail_queued(session_id, "session closed")
        self.store.remove(session_id)
        self.arena.release(session_id)
        self.metrics.sessions_closed += 1

    # ------------------------------------------------------------------
    def session_state(self, session_id: str) -> NumpyDNCState:
        """Copy of a session's current recurrent state (checkpoint read).

        The arena's "read one slot on leave/drain".  The returned state
        owns its arrays and can be fed to :meth:`restore_session_state`
        (here or on another shard with the same engine config) or to
        the engine's unbatched step.
        """
        state = self.arena.read_slot(session_id)
        self.metrics.observe_state_copy(state.nbytes)
        return state

    def restore_session_state(
        self, session_id: str, state: NumpyDNCState
    ) -> None:
        """Overwrite a session's recurrent state from a checkpoint."""
        self.arena.write_slot(session_id, state)
        self.metrics.observe_state_copy(state.nbytes)

    # ------------------------------------------------------------------
    def checkpoint_session(self, session_id: str) -> bytes:
        """A session's state as a portable versioned byte string.

        One slot read rendered through
        :meth:`NumpyDNCState.to_bytes`; the payload restores bitwise on
        any shard whose engine shares this one's configuration
        (:meth:`restore_session`) and is the unit the cluster's
        session migration moves.
        """
        return self.session_state(session_id).to_bytes()

    def restore_session(self, session_id: str, payload: bytes) -> str:
        """Restore a :meth:`checkpoint_session` payload into a session.

        Opens ``session_id`` first when it does not exist (raising
        :class:`~repro.errors.CapacityError` if admission is refused),
        then overwrites its state — one slot write.  Returns the
        session id.
        """
        state = NumpyDNCState.from_bytes(payload)
        if session_id not in self.store:
            if self.open_session(session_id) is None:
                raise CapacityError(
                    f"shard {self.shard_id}: cannot admit session "
                    f"{session_id!r} for checkpoint restore"
                )
        self.restore_session_state(session_id, state)
        return session_id

    def detach_session(
        self, session_id: str
    ) -> Tuple[bytes, List[StepRequest]]:
        """Remove a live session for migration; nothing fails.

        Returns ``(checkpoint_bytes, pending_requests)``: the state as
        one slot read, plus the session's queued FIFO *unfailed* — the
        exact payload :meth:`attach_session` needs on the destination
        shard.  Unlike :meth:`close_session`, client-held requests stay
        pending and the session does not count as closed.
        """
        payload = self.checkpoint_session(session_id)
        pending = self.batcher.drop_session(session_id)
        self.store.remove(session_id)
        self.arena.release(session_id)
        self.metrics.migrations_out += 1
        return payload, pending

    def attach_session(
        self,
        session_id: str,
        payload: bytes,
        pending: Sequence[StepRequest] = (),
    ) -> None:
        """Adopt a session detached from another shard.

        One slot write restores the checkpoint; the pending FIFO is
        re-enqueued in order with the original submit ticks, so the
        session resumes exactly where it left off.  Raises
        :class:`~repro.errors.ConfigError` for a duplicate id and
        :class:`~repro.errors.CapacityError` when the shard is full —
        migration never evicts a resident session to make room (the
        rebalancer must pick a destination with a free slot).
        """
        if session_id in self.store:
            raise ConfigError(
                f"shard {self.shard_id}: session {session_id!r} already exists"
            )
        if len(self.store) >= self.store.capacity:
            raise CapacityError(
                f"shard {self.shard_id} is full "
                f"({self.store.capacity} sessions); refusing migration"
            )
        state = NumpyDNCState.from_bytes(payload)
        self.store.create(
            session_id, self.tick, protect=self.batcher.pending_sessions()
        )
        self.arena.bind(session_id)
        self.restore_session_state(session_id, state)
        if pending:
            self.batcher.adopt(session_id, list(pending))
        self.metrics.migrations_in += 1

    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: str,
        x: np.ndarray,
        trace: Optional[tuple] = None,
    ) -> Optional[StepRequest]:
        """Queue one timestep for ``session_id``; ``None`` means refused.

        A refusal is backpressure (the global queue is full) and counts
        as an admission reject; the session itself stays open.  A
        malformed input (wrong shape, NaN or inf) is rejected here, at
        the offending client — never inside ``run_tick``, where it would
        poison a whole batch or, for good, the session's memory.

        ``trace`` is a propagated ``(trace_id, span_id)`` parent context
        (the router/frontend span, possibly from another process); with
        a tracer attached, the accepted request carries a
        ``shard.submit`` span's context for its dispatch span to parent
        on.
        """
        if session_id not in self.store:
            raise ConfigError(f"unknown session {session_id!r}")
        x = np.asarray(x)
        input_size = self.engine.reference.config.input_size
        if x.shape != (input_size,):
            raise ConfigError(
                f"submit expects x of shape ({input_size},), got {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ConfigError("submit expects a finite x, got NaN or inf")
        tracer = self.tracer
        span = (
            tracer.start(
                "shard.submit",
                parent=trace,
                attrs={"session": session_id, "shard": self.shard_id},
            )
            if tracer is not None
            else None
        )
        request = self.batcher.submit(session_id, x, self.tick)
        if request is None:
            self.metrics.admission_rejects += 1
        else:
            self.metrics.requests_submitted += 1
            if span is not None:
                request.trace = span.context
            elif trace is not None:
                request.trace = tuple(trace)
        if span is not None:
            tracer.end(span, accepted=request is not None)
        return request

    # ------------------------------------------------------------------
    def _traced_engine_step(self, tick_span, call):
        """Run one engine step under an ``engine.step`` span, with
        ``engine.phase:*`` child spans synthesized from the profiler's
        stat delta (stitched sequentially across the step interval —
        the phases execute in order, so the stitching is faithful up to
        the unattributed slack between laps)."""
        tracer = self.tracer
        if tracer is None or tick_span is None:
            return call()
        prof = self.profiler
        before = prof.stats() if prof is not None else None
        span = tracer.start("engine.step", parent=tick_span)
        result = call()
        tracer.end(span)
        if prof is not None:
            delta = PhaseTimer.delta(before, prof.stats())
            t = span.t_start
            for phase in PHASES:
                entry = delta.get(phase)
                if not entry or entry["seconds"] <= 0.0:
                    continue
                t_end = min(t + entry["seconds"], span.t_end)
                tracer.emit(
                    f"engine.phase:{phase}",
                    span,
                    t,
                    t_end,
                    attrs={
                        "bytes": int(entry["bytes"]),
                        "count": int(entry["count"]),
                    },
                )
                t = t_end
        return result

    def run_tick(self, trace: Optional[tuple] = None) -> List[StepRequest]:
        """Advance one scheduler tick; returns the requests completed.

        One tick = at most one batched engine step: expire idle sessions,
        ask the batcher for a dispatchable batch, and run the shared
        engine once over the member sessions.  The dispatched sessions'
        arena slots advance *in place* through the engine's masked step
        (zero state copies when every slot dispatches); batch row order
        is dispatch order.

        With a tracer attached the tick emits a ``shard.tick`` span —
        parented on ``trace`` (the cluster's tick context, possibly from
        another process) or, failing that, on the oldest traced request
        it dispatches — plus per-request ``shard.dispatch`` spans and
        the ``engine.step``/``engine.phase:*`` chain.
        """
        tracer = self.tracer
        t0_tick = time.perf_counter() if tracer is not None else 0.0
        tick = self.tick
        self.store.evict_expired(
            tick, protect=self.batcher.pending_sessions()
        )
        batch = self.batcher.next_batch(tick)
        # A session can only vanish between submit and dispatch through
        # close_session/eviction, both of which fail its queue — but a
        # stale request must degrade into an error, not a crash.
        live = [r for r in batch if r.session_id in self.store]
        for request in batch:
            if request.session_id not in self.store:
                request.error = "session state missing at dispatch"
                request.completed_tick = tick
                self.metrics.requests_failed += 1

        tick_span = None
        if tracer is not None:
            parent = trace
            if parent is None:
                for request in live:
                    if request.trace is not None:
                        parent = request.trace
                        break
            tick_span = tracer.start(
                "shard.tick",
                parent=parent,
                attrs={"shard": self.shard_id, "tick": tick},
            )
            tick_span.t_start = t0_tick

        if live:
            slots = self.arena.indices([r.session_id for r in live])
            for slot, request in zip(slots, live):
                self._x_buf[slot] = request.x  # casts to the dtype policy
            y, _ = self._traced_engine_step(
                tick_span,
                lambda: self.engine.step(
                    self._x_buf, self.arena.state, active=slots
                ),
            )
            self.metrics.observe_state_copy(
                self.engine.last_state_bytes_copied
            )
            for slot, request in zip(slots, live):
                record = self.store.touch(request.session_id, tick)
                record.steps_completed += 1
                # .copy(): each result must own its data, not alias the
                # shared batched output buffer.
                request.y = y[slot].copy()
                request.completed_tick = tick
                self.metrics.observe_wait(tick - request.submitted_tick)
                self.metrics.requests_completed += 1
                self.metrics.observe_tenant(request.session_id)
        if tracer is not None:
            t_done = time.perf_counter()
            for request in live:
                if request.trace is not None:
                    tracer.emit(
                        "shard.dispatch",
                        request.trace,
                        t0_tick,
                        t_done,
                        attrs={
                            "session": request.session_id,
                            "shard": self.shard_id,
                            "wait_ticks": request.wait_ticks,
                        },
                    )
            if tick_span is not None:
                tracer.end(tick_span, occupancy=len(live))

        self.metrics.observe_occupancy(len(live))
        self.metrics.observe_slots(self.arena.occupancy)
        self.tick = tick + 1
        return batch

    def drain(self, max_ticks: int = 10_000) -> List[StepRequest]:
        """Run ticks until no request is queued; returns all completions.

        Raises :class:`~repro.errors.ConfigError` if the queue fails to
        empty within ``max_ticks`` (a scheduler bug would otherwise spin
        forever).
        """
        completed: List[StepRequest] = []
        for _ in range(max_ticks):
            if self.queue_depth == 0:
                return completed
            completed.extend(self.run_tick())
        raise ConfigError(
            f"drain did not empty the queue within {max_ticks} ticks"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release serving resources (idempotent).

        A lone shard owns no threads or processes — its arena and store
        are plain arrays the collector reclaims — so there is nothing to
        tear down here.  The method exists so every server object in the
        stack shares one context-manager surface: callers write
        ``with make_server() as server:`` without caring whether they
        got a shard, a thread cluster (executor shutdown), or a process
        cluster (child processes stopped).
        """

    def __enter__(self) -> "EngineShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["EngineShard"]
