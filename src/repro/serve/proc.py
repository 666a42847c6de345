"""Process-level serving: the worker-process shard transport, crash-safe.

:class:`ProcCluster` is a :class:`~repro.serve.cluster.ShardedServer`
whose shard handles are :class:`ProcWorker` objects: each hosts an
:class:`~repro.serve.shard.EngineShard` in its own *process*, so shard
ticks overlap on real cores and a dead worker takes down only its own
sessions — which its handle then restores on a replacement process.
Routing, spill, migration, tick fan-out and the metrics merges are the
thread cluster's own code; this module adds the transport, the
crash recovery, and the checkpoint cadence.

**Wire protocol.** Parent and worker speak length-prefixed frames over a
``socketpair``: ``b"HP" | uint32 length | uint32 crc32 | uint64
trace_id | uint64 span_id | payload`` (pickled message).  The two
fixed trace-context words carry the distributed-tracing parent across
the process boundary — ``(0, 0)`` means untraced — and the crc32
covers them together with the payload, so a corrupted trace context is
rejected like any other corruption.  :func:`read_frame` raises
:class:`~repro.errors.FrameError` for a truncated, corrupted, or
oversized frame — never hangs, never guesses — and the parent converts
any transport failure (EOF, reset, RPC timeout) into
:class:`~repro.errors.WorkerCrashed`, the signal that triggers recovery.
Checkpoint payloads ride inside frames as the versioned
:meth:`~repro.dnc.state.NumpyDNCState.to_bytes` byte strings, the
same host-portable format the thread cluster migrates sessions with.

**Crash recovery.** Every worker shares the cluster's
:class:`~repro.serve.supervisor.CheckpointSupervisor`: workers ship
periodic per-session checkpoints (every ``checkpoint_interval`` ticks),
and the supervisor keeps each session's last checkpoint plus the replay
log of inputs submitted since.  When a worker dies — SIGKILL included —
its handle spawns a fresh process (same config, same seed, therefore
bit-identical weights), restores every resident session from its last
checkpoint, and re-submits the logged inputs in order.  Checkpoint
restoration is bitwise (wire-format contract), the engine is
deterministic, so a restored session's continued trajectory is
bit-identical at equal dispatch order from the checkpoint and <= 1e-10
vs solo stepping end-to-end whatever the batch interleaving — pinned by
``tests/test_serve_proc.py`` and demonstrated under traffic by the load
generator's rolling-restart scenario.

**Scheduling.** Opens and submits are buffered in the parent and ride
the next frame to their worker, ahead of its command — one frame per
worker per tick in steady state.  The cluster's tick fan-out drives the
workers from its thread pool, so their engine steps overlap across
processes; every reply carries the worker's completions and stats
(pending counts, wait p95, spans, phase profile), so placement, spill
and rebalancing cost no extra round trips.  Admission control is
enforced in the parent (each handle mirrors its worker's queue bound),
so a submit refusal is synchronous even though dispatch is not.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError, FrameError, ServeError, WorkerCrashed
from repro.obs import FlightRecorder, PhaseTimer, Tracer
from repro.serve.batcher import StepRequest
from repro.serve.cluster import ShardedServer
from repro.serve.metrics import ServerMetrics
from repro.serve.router import PlacementPolicy, RebalancePolicy
from repro.serve.supervisor import CheckpointSupervisor

# ---------------------------------------------------------------------------
# Length-prefixed frame protocol
# ---------------------------------------------------------------------------

FRAME_MAGIC = b"HP"
_FRAME_LEN = struct.Struct(">I")  # payload length
_FRAME_REST = struct.Struct(">IQQ")  # crc32, trace_id, span_id
#: Frames above this size are rejected as corrupt before any allocation:
#: a garbage length field must not make the reader try to buffer 4 GiB.
MAX_FRAME_BYTES = 1 << 30


def write_frame(
    sock: socket.socket,
    message: object,
    trace: Optional[Tuple[int, int]] = None,
) -> None:
    """Send one framed message: magic, length, crc32, trace context,
    pickled payload.  ``trace`` is an optional ``(trace_id, span_id)``
    span context to propagate across the process boundary; ``None``
    writes the all-zero untraced context."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    trace_id, span_id = trace if trace is not None else (0, 0)
    trace_bytes = struct.pack(">QQ", trace_id, span_id)
    crc = zlib.crc32(payload, zlib.crc32(trace_bytes))
    sock.sendall(
        FRAME_MAGIC
        + _FRAME_LEN.pack(len(payload))
        + struct.pack(">I", crc)
        + trace_bytes
        + payload
    )


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:], n - got)
        if read == 0:
            raise FrameError(
                f"connection closed mid-frame ({what}: got {got} of "
                f"{n} bytes)"
            )
        got += read
    return bytes(buf)


def read_frame_traced(
    sock: socket.socket,
) -> Tuple[object, Optional[Tuple[int, int]]]:
    """Read one framed message plus its trace context.

    Returns ``(message, trace)`` where ``trace`` is the frame header's
    ``(trace_id, span_id)`` span context, or ``None`` for the all-zero
    untraced context.  Raises :class:`EOFError` on a clean close at a
    frame boundary and :class:`~repro.errors.FrameError` for anything
    malformed: wrong magic, a length field beyond
    :data:`MAX_FRAME_BYTES`, a header or payload cut short, or a crc32
    mismatch (the crc covers trace context + payload).  A corrupted
    stream cannot be resynced — callers must treat :class:`FrameError`
    as fatal for the connection.
    """
    # Magic + length first: the length bound must be checked before the
    # reader commits to buffering anything else.
    first = sock.recv(1)
    if not first:
        raise EOFError("connection closed")
    head = first + _recv_exact(
        sock, len(FRAME_MAGIC) + _FRAME_LEN.size - 1, "header"
    )
    if head[: len(FRAME_MAGIC)] != FRAME_MAGIC:
        raise FrameError(
            f"bad frame magic {head[:len(FRAME_MAGIC)]!r} "
            f"(expected {FRAME_MAGIC!r})"
        )
    (length,) = _FRAME_LEN.unpack(head[len(FRAME_MAGIC):])
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    rest = _recv_exact(sock, _FRAME_REST.size, "header")
    crc, trace_id, span_id = _FRAME_REST.unpack(rest)
    payload = _recv_exact(sock, length, "payload")
    if zlib.crc32(payload, zlib.crc32(rest[_FRAME_LEN.size:])) != crc:
        raise FrameError("frame crc32 mismatch (payload corrupted)")
    try:
        message = pickle.loads(payload)
    except Exception as exc:  # corrupt pickle inside a well-formed frame
        raise FrameError(f"frame payload failed to unpickle: {exc}") from exc
    trace = (trace_id, span_id) if trace_id or span_id else None
    return message, trace


def read_frame(sock: socket.socket) -> object:
    """Read one framed message (see :func:`read_frame_traced`), dropping
    the trace context — the call every non-tracing reader keeps using."""
    return read_frame_traced(sock)[0]


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_completions(
    inflight: Dict[int, StepRequest], by_obj: Dict[int, int]
) -> List[Tuple[int, Optional[np.ndarray], Optional[str]]]:
    """Drain every finished request from the in-flight table.

    Completion is observed rather than inferred from ``run_tick``'s
    return value so that requests failed out-of-band — a session evicted
    or closed with work queued, a submit the worker refused — are
    reported on the very next reply.
    """
    done = [
        (rid, request) for rid, request in inflight.items() if request.done
    ]
    out = []
    for rid, request in sorted(done):
        del inflight[rid]
        by_obj.pop(id(request), None)
        out.append((rid, request.y, request.error))
    return out


def _worker_stats(shard) -> Dict[str, object]:
    stats: Dict[str, object] = {"tick": shard.tick}
    # Observability piggybacks on every reply: finished spans drain to
    # the parent (worker rings stay near-empty) and the cumulative
    # per-phase engine profile rides along for cluster_profile() and
    # the flight recorder.
    if shard.tracer is not None:
        spans = shard.tracer.drain()
        if spans:
            stats["spans"] = spans
    if shard.profiler is not None:
        stats["phase"] = shard.profiler.stats()
    return stats


def _proc_worker_main(
    sock: socket.socket,
    config,
    seed,
    shard_id: int,
    shard_kwargs: Dict[str, object],
) -> None:
    """Child-process entry point: serve one EngineShard over framed RPC."""
    from repro.core.engine import TiledEngine
    from repro.serve.shard import EngineShard

    # The parent owns lifecycle: a terminal Ctrl-C must not tear the
    # worker down mid-frame (the parent will send "stop" or kill us).
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Observability flags ride in on shard_kwargs; the worker builds its
    # own Tracer/PhaseTimer (span ids are pid-salted, so worker spans
    # stay unique when the parent adopts them).
    shard_kwargs = dict(shard_kwargs)
    obs_trace = bool(shard_kwargs.pop("obs_trace", False))
    obs_profile = bool(shard_kwargs.pop("obs_profile", False))

    engine = TiledEngine(config, rng=seed)
    shard = EngineShard(
        engine,
        shard_id=shard_id,
        tracer=Tracer() if obs_trace else None,
        profiler=PhaseTimer() if obs_profile else None,
        **shard_kwargs,
    )
    inflight: Dict[int, StepRequest] = {}
    by_obj: Dict[int, int] = {}
    known: Set[str] = set()
    #: session -> steps_completed at its last shipped checkpoint; lets
    #: ``checkpoint_all`` ship only sessions that advanced (a finished
    #: but still-resident session costs nothing per round).
    ckpt_steps: Dict[str, int] = {}

    def submit_all(
        submits: Sequence[Tuple[int, str, np.ndarray, Optional[tuple]]]
    ) -> None:
        """Enqueue parent-admitted submits; a local refusal fails fast.

        Each submit carries the parent-side trace context (or ``None``),
        so the worker's ``shard.submit`` span — and the per-request
        dispatch span after it — parent into the originating trace.  A
        refused submit enters the in-flight table already failed, so it
        is reported with the next successful reply.
        """
        for rid, session_id, x, ctx in submits:
            try:
                request = shard.submit(session_id, x, trace=ctx)
                error = "worker queue refused the submit"
            except ConfigError as exc:
                request, error = None, str(exc)
            if request is None:
                request = StepRequest(
                    session_id=session_id, x=x, submitted_tick=shard.tick,
                    seq=rid, completed_tick=shard.tick, error=error,
                )
            inflight[rid] = request
            by_obj[id(request)] = rid

    def dispatch(
        msg: Dict[str, object], frame_trace: Optional[tuple] = None
    ) -> Dict[str, object]:
        cmd = msg["cmd"]
        # Buffered admissions, then buffered submits, ride any frame
        # ahead of the command proper: a submit protects its session from
        # eviction by this very frame's open.  The parent only buffers an
        # open when it counted headroom, so a refusal here is a
        # bookkeeping bug, not a capacity condition.
        for open_sid in msg.get("opens", ()):
            if shard.admit(open_sid) is None:
                raise ConfigError(
                    f"worker store refused pre-admitted session {open_sid!r}"
                )
            known.add(open_sid)
        submit_all(msg.get("submits", ()))
        if cmd == "ping":
            ok: object = "pong"
        elif cmd == "open":
            ok = shard.admit(msg["session_id"])
        elif cmd == "close":
            shard.close_session(msg["session_id"])
            ok = True
        elif cmd == "tick":
            # The parent's cluster.tick span context rides the frame
            # header, so the worker-side shard.tick span crosses the
            # process boundary into the same trace.
            shard.run_tick(trace=frame_trace)
            ok = True
        elif cmd == "replay":
            # Crash-recovery catch-up: replayed steps are not user
            # traffic, so re-step them at engine speed now instead of
            # rationing them through the tick budget — otherwise a kill
            # storm arriving faster than one replay-step per tick per
            # session could outpace recovery forever.
            guard = 0
            bound = 10 * (len(inflight) + 1)
            while any(not r.done for r in inflight.values()) and guard < bound:
                shard.run_tick()
                guard += 1
            ok = True
        elif cmd == "checkpoint":
            session_id = msg["session_id"]
            steps = shard.store.get(session_id).steps_completed
            ckpt_steps[session_id] = steps
            ok = (shard.checkpoint_session(session_id), steps)
        elif cmd == "checkpoint_all":
            # Dirty-only: serializing a full DNC state per resident
            # session per round would dominate the tick at scale, and
            # an unchanged session's checkpoint is already upstream.
            # The parent narrows the round to the sessions whose replay
            # logs are worth truncating ("sessions").
            resident = set(shard.store.ids())
            for stale in set(ckpt_steps) - resident:
                del ckpt_steps[stale]
            ok = {}
            for session_id in msg["sessions"]:
                if session_id not in resident:
                    continue
                steps = shard.store.get(session_id).steps_completed
                if ckpt_steps.get(session_id) == steps:
                    continue
                ckpt_steps[session_id] = steps
                ok[session_id] = (
                    shard.checkpoint_session(session_id), steps
                )
        elif cmd == "restore":
            session_id = msg["session_id"]
            shard.restore_session(session_id, msg["payload"])
            ok = shard.store.get(session_id).steps_completed
        elif cmd == "detach":
            session_id = msg["session_id"]
            steps = shard.store.get(session_id).steps_completed
            payload, pending = shard.detach_session(session_id)
            rids = [by_obj.pop(id(request)) for request in pending]
            for rid in rids:
                del inflight[rid]
            # A detach is a parent-initiated handoff, not an eviction:
            # drop it from ``known`` so it is not reported as departed
            # (which would make the parent forget the migrating session).
            known.discard(session_id)
            ok = (payload, rids, steps)
        elif cmd == "attach":
            pending = [
                StepRequest(
                    session_id=msg["session_id"], x=x,
                    submitted_tick=submitted_tick, seq=0,
                )
                for _rid, x, submitted_tick in msg["pending"]
            ]
            shard.attach_session(msg["session_id"], msg["payload"], pending)
            for (rid, _x, _t), request in zip(msg["pending"], pending):
                inflight[rid] = request
                by_obj[id(request)] = rid
            ok = True
        elif cmd == "metrics":
            ok = shard.metrics.to_state()
        elif cmd == "stop":
            ok = True
        else:
            raise ConfigError(f"unknown worker command {cmd!r}")
        departed = sorted(known - set(shard.store.ids()))
        known.clear()
        known.update(shard.store.ids())
        return {
            "ok": ok,
            "completed": _worker_completions(inflight, by_obj),
            "departed": departed,
            "stats": _worker_stats(shard),
        }

    while True:
        try:
            msg, frame_trace = read_frame_traced(sock)
        except (EOFError, FrameError, OSError):
            return  # parent went away or the stream is unrecoverable
        try:
            reply = dispatch(msg, frame_trace)
        except Exception as exc:  # report, don't die: the shard is intact
            # Completions are NOT drained on the error path: the parent
            # raises before folding an error reply in, so anything done
            # stays queued here and rides the next successful reply.
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        try:
            write_frame(sock, reply)
        except OSError:
            return
        if msg.get("cmd") == "stop":
            sock.close()
            return


# ---------------------------------------------------------------------------
# The shard handle
# ---------------------------------------------------------------------------


class ProcWorker:
    """Shard handle on one engine-shard worker process.

    Serves the :class:`~repro.serve.shard.EngineShard` handle surface
    over framed RPC, so :class:`~repro.serve.cluster.ShardedServer`
    routes to it, ticks it and migrates to and from it exactly as it
    does an in-process shard.  ``submit`` returns a parent-side
    :class:`StepRequest` *mirror*, completed when the worker reports the
    step; opens and submits are buffered here and ride the next frame to
    the worker, ahead of its command.

    The handle owns everything about its worker: the process and
    socket, the buffers, the in-flight mirrors, and each resident
    session's base step (the supervisor step index of step 0 on the
    current process).  Any transport failure — EOF, reset, a reply
    timing out — surfaces as :class:`~repro.errors.WorkerCrashed` (a
    worker that times out is killed first, so recovery never races a
    wedged process); every surface call then recovers the
    worker from the shared ``supervisor`` and retries once.
    """

    def __init__(
        self,
        index: int,
        config,
        seed,
        shard_kwargs: Dict[str, object],
        rpc_timeout: float,
        *,
        supervisor: CheckpointSupervisor,
        tracer: Optional[Tracer],
        flight: Optional[FlightRecorder],
        seq: "itertools.count",
    ):
        self.index = index
        self.config = config
        self.seed = seed
        self._shard_kwargs = dict(shard_kwargs)
        self.capacity = int(shard_kwargs["session_capacity"])
        self.queue_capacity = int(shard_kwargs["queue_capacity"])
        self.rpc_timeout = rpc_timeout
        #: The cluster's shared checkpoints and replay logs.
        self.supervisor = supervisor
        #: Parent-side span collector; worker spans are adopted into it
        #: from every reply, so one traced request's tree spans processes.
        self.tracer = tracer
        self.flight = flight
        #: Mirror ``seq`` source, shared across a cluster's handles so a
        #: cluster can return completions in submit order.
        self._seq = seq
        #: Parent-side counters (submits refused at the queue bound,
        #: respawns), merged into :attr:`metrics`.
        self.parent_metrics = ServerMetrics()
        #: Replacement processes spawned after a crash.
        self.restarts = 0
        #: Ticks this handle was driven (the cluster's clock).
        self.tick = 0
        #: The worker's tick, mirrored from its latest reply.
        self._worker_tick = 0
        self._phase: Dict[str, Dict[str, float]] = {}
        #: Resident session -> base step, least recently active first.
        self._sessions: "OrderedDict[str, int]" = OrderedDict()
        #: rid -> (mirror, supervisor step index), buffered ones included.
        self._inflight: Dict[int, Tuple[StepRequest, int]] = {}
        self._rid_counter = 0
        self._opens: List[str] = []
        self._buffer: List[Tuple[int, str, np.ndarray, Optional[tuple]]] = []
        self._completed: List[StepRequest] = []
        self._spawn()

    def _spawn(self) -> None:
        # fork (not spawn): the child inherits the socketpair fd and the
        # already-imported numpy/repro modules.
        ctx = multiprocessing.get_context("fork")
        self.sock, child_sock = socket.socketpair()
        self.process = ctx.Process(
            target=_proc_worker_main,
            args=(child_sock, self.config, self.seed, self.index,
                  self._shard_kwargs),
            daemon=True,
            name=f"engine-shard-proc-{self.index}",
        )
        self.process.start()
        child_sock.close()
        self.sock.settimeout(self.rpc_timeout)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int:
        return int(self.process.pid)

    @property
    def load(self) -> int:
        """Resident sessions (buffered opens included)."""
        return len(self._sessions)

    @property
    def queue_depth(self) -> int:
        """Submitted-but-uncompleted requests (buffered ones included)."""
        return len(self._inflight)

    def session_ids(self) -> List[str]:
        """Resident session ids, least recently active first (kept from
        the completions every reply carries)."""
        return list(self._sessions)

    def phase_stats(self) -> Dict[str, Dict[str, float]]:
        """The worker's cumulative per-phase profile from its latest
        reply (reset on respawn — the dead process's history is gone)."""
        return self._phase

    @property
    def metrics(self) -> ServerMetrics:
        """The worker's metrics (one RPC) plus the parent-side counters.

        A restarted worker reports metrics from its respawn onward, and
        replayed steps are counted again by the worker that recomputed
        them — work actually performed, the honest accounting under
        restarts.
        """
        state = self._call({"cmd": "metrics"})["ok"]
        return ServerMetrics.merge(
            [self.parent_metrics, ServerMetrics.from_state(state)]
        )

    # ------------------------------------------------------------------
    def send(
        self,
        message: Dict[str, object],
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Write one request frame (no reply yet); ``trace`` rides the
        frame header (see :func:`write_frame`)."""
        try:
            write_frame(self.sock, message, trace=trace)
        except socket.timeout as exc:
            self.kill()
            raise WorkerCrashed(
                f"worker {self.index} timed out after {self.rpc_timeout}s "
                f"sending {message.get('cmd')!r}"
            ) from exc
        except (FrameError, OSError) as exc:
            raise WorkerCrashed(
                f"worker {self.index} connection failed sending "
                f"{message.get('cmd')!r}: {exc}"
            ) from exc

    def recv_reply(self, cmd: object = None) -> Dict[str, object]:
        """Read one reply frame; raises :class:`WorkerCrashed` on any
        transport failure and :class:`~repro.errors.ServeError` on a
        worker-side error reply."""
        try:
            reply = read_frame(self.sock)
        except socket.timeout as exc:
            # A wedged worker must not hold the front door hostage: kill
            # it so the crash path (respawn + restore) takes over.
            self.kill()
            raise WorkerCrashed(
                f"worker {self.index} timed out after {self.rpc_timeout}s "
                f"on {cmd!r}"
            ) from exc
        except (EOFError, FrameError, OSError) as exc:
            raise WorkerCrashed(
                f"worker {self.index} connection failed on {cmd!r}: {exc}"
            ) from exc
        if reply.get("error") is not None:
            raise ServeError(f"worker {self.index}: {reply['error']}")
        return reply

    def call(
        self,
        message: Dict[str, object],
        trace: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, object]:
        """One RPC round trip (:meth:`send` + :meth:`recv_reply`)."""
        self.send(message, trace=trace)
        return self.recv_reply(message.get("cmd"))

    def _rpc(
        self,
        message: Dict[str, object],
        trace: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, object]:
        """One round trip carrying the buffered opens and submits ahead
        of the command; the reply is folded in before it is returned."""
        if self._opens:
            message["opens"], self._opens = self._opens, []
        if self._buffer:
            message["submits"], self._buffer = self._buffer, []
        reply = self.call(message, trace=trace)
        self._fold(reply)
        return reply

    def _call(
        self,
        message: Dict[str, object],
        trace: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, object]:
        """:meth:`_rpc`; after a crash, :meth:`recover` and retry once
        (the buffers the failed frame carried are rebuilt by the
        recovery's replay, so the retry sends the command alone)."""
        try:
            return self._rpc(dict(message), trace)
        except WorkerCrashed:
            self.recover()
            return self._rpc(dict(message), trace)

    def _fold(self, reply: Dict[str, object]) -> None:
        """Fold a reply's stats, spans, completions and departures into
        the mirrors, the tracer and the flight recorder."""
        stats = reply["stats"]
        self._worker_tick = stats["tick"]
        spans = stats.get("spans")
        phase = stats.get("phase")
        if phase is not None:
            self._phase = phase
        if spans and self.tracer is not None:
            self.tracer.adopt(spans)
        if spans and self.flight is not None:
            self.flight.record(self.index, self._worker_tick, spans, phase)
        for rid, y, error in reply["completed"]:
            entry = self._inflight.pop(rid, None)
            if entry is None:
                continue
            mirror = entry[0]
            mirror.y, mirror.error = y, error
            mirror.completed_tick = self.tick
            if error is None and mirror.session_id in self._sessions:
                self._sessions.move_to_end(mirror.session_id)
            # Replay ghosts (seq -1) recompute steps already delivered
            # before a crash: resolved, never handed out a second time.
            if mirror.seq >= 0:
                self._completed.append(mirror)
        for session_id in reply["departed"]:
            self._forget(session_id)

    def _forget(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)
        self.supervisor.on_close(session_id)

    def _track(self, mirror: StepRequest, step: int) -> int:
        rid = self._rid_counter
        self._rid_counter += 1
        self._inflight[rid] = (mirror, step)
        return rid

    # ------------------------------------------------------------------
    def admit(self, session_id: str) -> Optional[str]:
        """Admit ``session_id``; ``None`` when the worker refuses (the
        front door counts the reject).

        The parent's session table is a superset of the worker's store
        (departures arrive with reply lag, buffered opens count here
        first), so with headroom here the worker is guaranteed to admit:
        the open rides the next frame, no RPC.  Otherwise one ``open``
        RPC decides — after the buffered submits, which protect their
        sessions from its eviction.
        """
        if len(self._sessions) < self.capacity:
            self._opens.append(session_id)
        elif self._call({"cmd": "open", "session_id": session_id})["ok"] is None:
            return None
        self._sessions[session_id] = 0
        self.supervisor.on_open(session_id)
        return session_id

    def close_session(self, session_id: str) -> None:
        """Drop a session; its queued requests fail with an error."""
        self._call({"cmd": "close", "session_id": session_id})
        self._forget(session_id)

    def submit(
        self,
        session_id: str,
        x: np.ndarray,
        trace: Optional[tuple] = None,
    ) -> Optional[StepRequest]:
        """Queue one timestep; returns its mirror, or ``None`` when the
        worker's queue bound is reached (backpressure).

        Admission is checked here, synchronously, against this handle's
        own in-flight count (it mirrors the worker's bound exactly, so
        the refusal semantics match the in-process shard).  ``trace``
        ships to the worker with the buffered submit, so the worker-side
        spans join the same trace.
        """
        if session_id not in self._sessions:
            raise ConfigError(f"unknown session {session_id!r}")
        x = np.asarray(x)
        input_size = self.config.word_size
        if x.shape != (input_size,):
            raise ConfigError(
                f"submit expects x of shape ({input_size},), got {x.shape}"
            )
        # Before the replay log: a refused input must never be replayed.
        if not np.isfinite(x).all():
            raise ConfigError("submit expects a finite x, got NaN or inf")
        if len(self._inflight) >= self.queue_capacity:
            self.parent_metrics.admission_rejects += 1
            return None
        step = self.supervisor.on_submit(session_id, x)
        ctx = tuple(trace) if trace is not None else None
        mirror = StepRequest(
            session_id=session_id,
            x=np.array(x, copy=True),
            submitted_tick=self.tick,
            seq=next(self._seq),
            trace=ctx,
        )
        rid = self._track(mirror, step)
        self._buffer.append((rid, session_id, mirror.x, ctx))
        return mirror

    def run_tick(self, trace: Optional[tuple] = None) -> List[StepRequest]:
        """Drive the worker one tick; returns the mirrors completed since
        the last call (including any resolved on other replies).

        With nothing in flight the tick RPC is skipped: it could only
        burn a round trip.  An idle worker's local clock (and therefore
        its session-TTL expiry) thus only advances on active ticks —
        capacity pressure still evicts via LRU on open.
        """
        if self._inflight:
            self._call({"cmd": "tick"}, trace=trace)
        self.tick += 1
        completed, self._completed = self._completed, []
        return completed

    def checkpoint_session(self, session_id: str) -> bytes:
        """One session's current state as checkpoint bytes (also a fresh
        supervisor baseline, so recovery points advance)."""
        payload, steps = self._call(
            {"cmd": "checkpoint", "session_id": session_id}
        )["ok"]
        self.supervisor.on_checkpoint(
            session_id, payload, self._sessions[session_id] + steps
        )
        return payload

    def checkpoint_all(self, min_log: int = 0) -> int:
        """Checkpoint every session whose replay log holds at least
        ``min_log`` steps (and at least one); returns the count.  With
        no session over the bar the round costs no RPC."""
        depths = {s: self.supervisor.log_depth(s) for s in self._sessions}
        wanted = [s for s, depth in depths.items() if depth and depth >= min_log]
        if not wanted:
            return 0
        shipped = self._call({"cmd": "checkpoint_all", "sessions": wanted})
        count = 0
        for session_id, (payload, steps) in shipped["ok"].items():
            if session_id in self._sessions:
                self.supervisor.on_checkpoint(
                    session_id, payload, self._sessions[session_id] + steps
                )
                count += 1
        return count

    def restore_session(self, session_id: str, payload: bytes) -> str:
        """Restore checkpoint bytes into ``session_id``, admitting it
        first when it is new (its supervisor baseline is the payload)."""
        steps = self._call({
            "cmd": "restore", "session_id": session_id, "payload": payload,
        })["ok"]
        if session_id in self._sessions:
            self.supervisor.on_checkpoint(
                session_id, payload, self._sessions[session_id] + steps
            )
        else:
            self._sessions[session_id] = 0
            self.supervisor.on_restore(session_id, payload)
        return session_id

    def detach_session(
        self, session_id: str
    ) -> Tuple[bytes, List[StepRequest]]:
        """Remove a live session for migration: ``(checkpoint bytes,
        pending mirrors)``.  The bytes double as the session's fresh
        supervisor baseline, so the pending mirrors are exactly the
        logged steps after it, in order."""
        payload, rids, steps = self._call(
            {"cmd": "detach", "session_id": session_id}
        )["ok"]
        base = self._sessions.pop(session_id) + steps
        self.supervisor.on_checkpoint(session_id, payload, base)
        return payload, [self._inflight.pop(rid)[0] for rid in rids]

    def attach_session(
        self,
        session_id: str,
        payload: bytes,
        pending: Sequence[StepRequest] = (),
    ) -> None:
        """Adopt a session detached from another handle of the cluster.

        The pending mirrors keep their identity and age (submit ticks
        are translated onto this worker's clock) under fresh rids.
        """
        base = self.supervisor.checkpoint_steps(session_id)
        first = self._rid_counter
        self._rid_counter += len(pending)
        wire = [
            (first + i, mirror.x,
             self._worker_tick - (self.tick - mirror.submitted_tick))
            for i, mirror in enumerate(pending)
        ]
        self._call({
            "cmd": "attach", "session_id": session_id, "payload": payload,
            "pending": wire,
        })
        for i, mirror in enumerate(pending):
            self._inflight[first + i] = (mirror, base + i)
        self._sessions[session_id] = base

    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Respawn the worker process and rebuild every resident session.

        Each session is rebuilt from the supervisor's plan: restore the
        last checkpoint (or re-open fresh when none exists) and
        re-submit the logged inputs in order.  Pending steps keep their
        original mirrors — client-held requests complete normally after
        the restart; already-delivered steps replay as ghosts.
        """
        self.kill()
        self.sock.close()
        if self.flight is not None:
            # Hand the dead worker's last-K tick history (spans + phase
            # stats) to the supervisor before anything overwrites it —
            # the postmortem a crash investigation starts from.
            self.supervisor.on_worker_death(
                self.index, self.flight.dump(self.index)
            )
            self.flight.clear(self.index)
        self._phase = {}
        self._spawn()
        self.restarts += 1
        self.parent_metrics.worker_restarts += 1
        # Buffered opens and submits died with the frame that carried
        # them; their sessions and logged inputs are rebuilt below.
        # Replay submits are untraced: the original request's spans were
        # already recorded (or died with the worker's ring).
        self._opens, self._buffer = [], []
        rid_of = {
            (mirror.session_id, step): rid
            for rid, (mirror, step) in self._inflight.items()
        }
        for session_id in list(self._sessions):
            payload, replay = self.supervisor.recovery_plan(session_id)
            if payload is None:
                self._opens.append(session_id)
                self._sessions[session_id] = 0
            else:
                self._rpc({
                    "cmd": "restore", "session_id": session_id,
                    "payload": payload,
                })
                self._sessions[session_id] = (
                    self.supervisor.checkpoint_steps(session_id)
                )
            for step, x in replay:
                rid = rid_of.get((session_id, step))
                if rid is None:
                    ghost = StepRequest(
                        session_id=session_id, x=x,
                        submitted_tick=self.tick, seq=-1,
                    )
                    rid = self._track(ghost, step)
                self._buffer.append((rid, session_id, x, None))
            # Step each session's log before the next one is queued: the
            # worker's queue bound caps one log, not the sum of them.
            self._rpc({"cmd": "replay"})

    def kill(self) -> None:
        """SIGKILL the worker process (the crash-drill primitive)."""
        if self.process.is_alive():
            os.kill(self.pid, signal.SIGKILL)
        self.process.join()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker cleanly; escalate to SIGKILL if it lingers
        (idempotent)."""
        if self.process.is_alive():
            try:
                self.sock.settimeout(timeout)
                write_frame(self.sock, {"cmd": "stop"})
                read_frame(self.sock)
            except (OSError, EOFError, FrameError):
                pass
            self.process.join(timeout)
            if self.process.is_alive():
                self.kill()
        else:
            self.process.join()
        self.sock.close()

    def __del__(self):  # last resort: never leak a child process
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# The process cluster
# ---------------------------------------------------------------------------


class ProcCluster(ShardedServer):
    """A :class:`~repro.serve.cluster.ShardedServer` over worker processes.

    Construct from one ``(config, seed)`` pair — every worker builds its
    :class:`~repro.core.engine.TiledEngine` from exactly these, so all
    shards carry bit-identical weights (the thread cluster enforces the
    same invariant by comparing arrays; here it holds by construction,
    which is also what makes a *replacement* worker's engine exact).
    Every other call is the thread cluster's; ``run_tick`` additionally
    returns completions in submit order.

    Fault tolerance: ``checkpoint_interval`` cluster ticks between
    checkpoint rounds (``None`` disables the cadence; recovery then
    replays each session's whole input log).  A periodic round only
    ships sessions whose replay log holds at least
    ``checkpoint_min_log`` steps — a full DNC state is megabytes at
    large ``memory_size`` while replaying a handful of steps is
    milliseconds, so short logs are cheaper to replay than to
    checkpoint (explicit :meth:`checkpoint_now` calls ship every dirty
    session regardless).  ``kill_worker`` + automatic recovery on any
    detected crash implement the rolling restart the load generator
    drills.
    """

    def __init__(
        self,
        config,
        *,
        seed=0,
        num_workers: int = 2,
        max_batch: int = 16,
        max_wait_ticks: int = 2,
        queue_capacity: int = 1024,
        session_capacity: int = 64,
        session_ttl_ticks: Optional[int] = None,
        placement: Optional[PlacementPolicy] = None,
        rebalance: Optional[RebalancePolicy] = None,
        checkpoint_interval: Optional[int] = 16,
        checkpoint_min_log: int = 8,
        rpc_timeout: float = 60.0,
        tracer: Optional[Tracer] = None,
        profile: bool = False,
        flight_recorder: int = 0,
    ):
        if num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {num_workers}")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ConfigError(
                "checkpoint_interval must be >= 1 or None, got "
                f"{checkpoint_interval}"
            )
        if checkpoint_min_log < 0:
            raise ConfigError(
                f"checkpoint_min_log must be >= 0, got {checkpoint_min_log}"
            )
        if flight_recorder < 0:
            raise ConfigError(
                f"flight_recorder must be >= 0, got {flight_recorder}"
            )
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_min_log = checkpoint_min_log
        self.supervisor = CheckpointSupervisor()
        #: Last-K tick history per worker (spans + phase stats), dumped
        #: into the supervisor's postmortems when a worker dies.
        self.flight = (
            FlightRecorder(flight_recorder) if flight_recorder > 0 else None
        )
        shard_kwargs: Dict[str, object] = dict(
            max_batch=max_batch,
            max_wait_ticks=max_wait_ticks,
            queue_capacity=queue_capacity,
            session_capacity=session_capacity,
            session_ttl_ticks=session_ttl_ticks,
            # Workers trace whenever anything consumes their spans: a
            # parent tracer wants the distributed tree, a flight
            # recorder the last-K history even with no tracer attached.
            obs_trace=tracer is not None or flight_recorder > 0,
            obs_profile=profile,
        )
        seq = itertools.count()
        # Workers fork here, before the tick fan-out's threads exist.
        workers = [
            ProcWorker(
                index, config, seed, shard_kwargs, rpc_timeout,
                supervisor=self.supervisor, tracer=tracer,
                flight=self.flight, seq=seq,
            )
            for index in range(num_workers)
        ]
        # The shards are built here, not from engines: skip the engine
        # checks of ShardedServer.__init__ and set up the front door.
        self._init_front_door(workers, placement, rebalance, True, tracer)

    @property
    def workers(self) -> List[ProcWorker]:
        return self.shards

    @property
    def num_workers(self) -> int:
        return len(self.shards)

    @property
    def worker_restarts(self) -> int:
        return sum(worker.restarts for worker in self.shards)

    def kill_worker(self, index: int) -> None:
        """SIGKILL a worker (crash drill); recovery runs on next contact."""
        self.shards[index].kill()

    def _recover_worker(self, index: int) -> None:
        self.shards[index].recover()

    def run_tick(self) -> List[StepRequest]:
        """The cluster tick, then the checkpoint cadence; completed
        mirrors return in submit order."""
        completed = super().run_tick()
        if (
            self.checkpoint_interval is not None
            and self.tick % self.checkpoint_interval == 0
        ):
            self.checkpoint_now(self.checkpoint_min_log)
        completed.sort(key=lambda request: request.seq)
        return completed

    def checkpoint_now(self, min_log: int = 0) -> int:
        """One checkpoint round; returns sessions checkpointed.

        Ships every session whose supervisor replay log holds at least
        ``min_log`` steps — and at least one (0, the default for explicit
        calls, means every session with anything to replay).  Workers
        whose sessions are all below the bar cost no RPC.
        """
        return sum(worker.checkpoint_all(min_log) for worker in self.shards)

    def snapshot(self) -> Dict[str, object]:
        """The cluster snapshot plus process liveness and recovery."""
        snap = super().snapshot()
        snap["workers"] = len(self.shards)
        snap["worker_restarts"] = self.worker_restarts
        snap["checkpoints_taken"] = self.supervisor.checkpoints_taken
        snap["sessions_recovered"] = self.supervisor.sessions_recovered
        snap["per_worker"] = [
            {
                "worker": worker.index,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "sessions": worker.load,
                "queue_depth": worker.queue_depth,
            }
            for worker in self.shards
        ]
        return snap


__all__ = [
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "write_frame",
    "read_frame",
    "read_frame_traced",
    "ProcWorker",
    "ProcCluster",
]
