"""Process-level serving: engine shards in worker processes, crash-safe.

This is the production topology the ROADMAP's millions-of-users story
needs: :class:`~repro.serve.cluster.ShardedServer`'s shards are threads
sharing one GIL and one failure domain, while :class:`ProcCluster` hosts
each :class:`~repro.serve.shard.EngineShard` in its own *process*
(:class:`ProcWorker`), so shard ticks overlap on real cores and a dead
worker takes down only its own sessions — which the cluster then
restores on a replacement process.

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
:meth:`~repro.dnc.numpy_ref.NumpyDNCState.to_bytes` byte strings, the
same host-portable format the thread cluster migrates sessions with.

**Crash recovery.** The cluster pairs every worker with the
:class:`~repro.serve.supervisor.CheckpointSupervisor`: workers ship
periodic per-session checkpoints (every ``checkpoint_interval`` ticks),
and the supervisor keeps each session's last checkpoint plus the replay
log of inputs submitted since.  When a worker dies — SIGKILL included —
the cluster spawns a fresh process (same config, same seed, therefore
bit-identical weights), restores every resident session from its last
checkpoint, and re-submits the logged inputs in order.  Checkpoint
restoration is bitwise (wire-format contract), the engine is
deterministic, so a restored session's continued trajectory is
bit-identical at equal dispatch order from the checkpoint and <= 1e-10
vs solo stepping end-to-end whatever the batch interleaving — pinned by
``tests/test_serve_proc.py`` and demonstrated under traffic by the load
generator's rolling-restart scenario.

**Scheduling.** One :meth:`ProcCluster.run_tick` drives every worker's
tick concurrently: buffered submits flush in the tick RPC (one frame per
worker per tick), all ticks are issued before any reply is awaited, and
completed requests come back with worker stats (load, queue depth,
pending counts, wait p95) that feed placement, admission spill, and
queue-depth rebalancing without extra round trips.  Admission control is
enforced at the front door (the parent mirrors every worker's queue
bound), so a submit refusal is synchronous even though dispatch is not.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    CapacityError,
    ConfigError,
    FrameError,
    ServeError,
    WorkerCrashed,
)
from repro.obs import FlightRecorder, PhaseTimer, Tracer
from repro.serve.batcher import StepRequest
from repro.serve.metrics import ServerMetrics
from repro.serve.router import (
    LeastLoadedPlacement,
    PlacementPolicy,
    RebalancePolicy,
)
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
) -> List[Tuple[int, Optional[np.ndarray], Optional[str], int, int]]:
    """Drain every finished request from the in-flight table.

    Completion is observed rather than inferred from ``run_tick``'s
    return value so that requests failed out-of-band — a session evicted
    or closed with work queued — are reported on the very next reply.
    """
    done = [
        (rid, request) for rid, request in inflight.items() if request.done
    ]
    out = []
    for rid, request in sorted(done):
        del inflight[rid]
        by_obj.pop(id(request), None)
        out.append((
            rid,
            request.y,
            request.error,
            request.submitted_tick,
            int(request.completed_tick),
        ))
    return out


def _worker_stats(shard) -> Dict[str, object]:
    p50, p95 = shard.metrics.wait_percentiles()
    stats: Dict[str, object] = {
        "load": shard.load,
        "queue_depth": shard.queue_depth,
        "pending_counts": shard.pending_counts,
        "p95_wait": p95,
        "tick": shard.tick,
    }
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
    ) -> List[Tuple[int, Optional[np.ndarray], Optional[str], int, int]]:
        """Enqueue parent-admitted submits; a local refusal fails fast.

        Each submit carries the parent-side trace context (or ``None``),
        so the worker's ``shard.submit`` span — and the per-request
        dispatch span after it — parent into the originating trace.
        """
        refused = []
        for rid, session_id, x, ctx in submits:
            try:
                request = shard.submit(session_id, x, trace=ctx)
            except ConfigError as exc:
                refused.append((rid, None, str(exc), shard.tick, shard.tick))
                continue
            if request is None:
                refused.append((
                    rid, None, "worker queue refused the submit",
                    shard.tick, shard.tick,
                ))
            else:
                inflight[rid] = request
                by_obj[id(request)] = rid
        return refused

    def dispatch(
        msg: Dict[str, object], frame_trace: Optional[tuple] = None
    ) -> Dict[str, object]:
        cmd = msg["cmd"]
        # Fast-path admissions ride any frame, ahead of the command
        # proper (their submits may be in this very tick frame).  The
        # parent only buffers an open when it counted headroom, so a
        # refusal here is a bookkeeping bug, not a capacity condition.
        for open_sid in msg.get("opens", ()):
            if shard.open_session(open_sid) is None:
                raise ConfigError(
                    f"worker store refused pre-admitted session {open_sid!r}"
                )
            known.add(open_sid)
        extra: List = []
        if cmd == "ping":
            ok: object = "pong"
        elif cmd == "open":
            ok = shard.open_session(msg["session_id"])
        elif cmd == "close":
            shard.close_session(msg["session_id"])
            ok = True
        elif cmd == "tick":
            extra = submit_all(msg.get("submits", ()))
            # The parent's cluster.tick span context rides the frame
            # header, so the worker-side shard.tick span crosses the
            # process boundary into the same trace.
            shard.run_tick(trace=frame_trace)
            ok = True
        elif cmd == "enqueue":
            # Recovery/attach replay: queue work without advancing time.
            extra = submit_all(msg.get("submits", ()))
            if msg.get("drain"):
                # Crash-recovery catch-up: replayed steps are not user
                # traffic, so re-step them at engine speed now instead
                # of rationing them through the tick budget — otherwise
                # a kill storm arriving faster than one replay-step per
                # tick per session could outpace recovery forever.
                guard = 0
                bound = 10 * (len(inflight) + 1)
                while (
                    any(not r.done for r in inflight.values())
                    and guard < bound
                ):
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
            # The parent may further narrow the round to the sessions
            # whose replay logs are worth truncating ("sessions").
            resident = set(shard.store.ids())
            for stale in set(ckpt_steps) - resident:
                del ckpt_steps[stale]
            wanted = msg.get("sessions")
            targets = (
                resident if wanted is None
                else [s for s in wanted if s in resident]
            )
            ok = {}
            for session_id in targets:
                steps = shard.store.get(session_id).steps_completed
                if ckpt_steps.get(session_id) == steps:
                    continue
                ckpt_steps[session_id] = steps
                ok[session_id] = (
                    shard.checkpoint_session(session_id), steps
                )
        elif cmd == "restore":
            shard.restore_session(msg["session_id"], msg["payload"])
            ok = True
        elif cmd == "detach":
            session_id = msg["session_id"]
            steps = shard.store.get(session_id).steps_completed
            payload, pending = shard.detach_session(session_id)
            moved = []
            for request in pending:
                rid = by_obj.pop(id(request), None)
                if rid is not None:
                    del inflight[rid]
                moved.append((rid, request.x, request.submitted_tick))
            # A detach is a parent-initiated handoff, not an eviction:
            # drop it from ``known`` so it is not reported as departed
            # (which would make the parent forget the migrating session).
            known.discard(session_id)
            ok = (payload, moved, steps)
        elif cmd == "attach":
            pending = []
            for rid, x, submitted_tick in msg.get("pending", ()):
                request = StepRequest(
                    session_id=msg["session_id"], x=x,
                    submitted_tick=submitted_tick, seq=0,
                )
                if rid is not None:
                    inflight[rid] = request
                    by_obj[id(request)] = rid
                pending.append(request)
            shard.attach_session(msg["session_id"], msg["payload"], pending)
            ok = True
        elif cmd == "metrics":
            ok = shard.metrics.to_state()
        elif cmd == "stop":
            ok = True
        else:
            raise ConfigError(f"unknown worker command {cmd!r}")
        completed = extra + _worker_completions(inflight, by_obj)
        departed = sorted(known - set(shard.store.ids()))
        known.clear()
        known.update(shard.store.ids())
        return {
            "ok": ok,
            "completed": completed,
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
            reply = {
                "error": f"{type(exc).__name__}: {exc}",
                "completed": [],
                "departed": [],
                "stats": _worker_stats(shard),
            }
        try:
            write_frame(sock, reply)
        except OSError:
            return
        if msg.get("cmd") == "stop":
            sock.close()
            return


class ProcWorker:
    """Parent-side handle on one engine-shard worker process.

    Wraps the framed-RPC connection plus the per-worker stats cache the
    cluster's placement and rebalance policies read (refreshed from
    every reply, so policy decisions cost no extra round trips).  Any
    transport failure — EOF, reset, a reply timing out — surfaces as
    :class:`~repro.errors.WorkerCrashed`; a worker that times out is
    killed first, so recovery never races a wedged process.
    """

    def __init__(
        self,
        index: int,
        config,
        seed,
        shard_kwargs: Dict[str, object],
        rpc_timeout: float = 60.0,
    ):
        self.index = index
        self.capacity = int(shard_kwargs["session_capacity"])
        self.rpc_timeout = rpc_timeout
        # fork (not spawn): the child inherits the socketpair fd and the
        # already-imported numpy/repro modules; workers are spawned from
        # the cluster constructor, before any tick threads exist.
        ctx = multiprocessing.get_context("fork")
        self.sock, child_sock = socket.socketpair()
        self.process = ctx.Process(
            target=_proc_worker_main,
            args=(child_sock, config, seed, index, dict(shard_kwargs)),
            daemon=True,
            name=f"engine-shard-proc-{index}",
        )
        self.process.start()
        child_sock.close()
        self.sock.settimeout(rpc_timeout)
        #: Stats cache from the latest reply (see ``_worker_stats``).
        self.load = 0
        self.queue_depth = 0
        self.pending_counts: Dict[str, int] = {}
        self.p95_wait: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int:
        return int(self.process.pid)

    def send(
        self,
        message: Dict[str, object],
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Write one request frame (no reply yet) — the cluster's tick
        fan-out sends to every worker before reading any reply.
        ``trace`` rides the frame header (see :func:`write_frame`)."""
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
        stats = reply.get("stats")
        if isinstance(stats, dict):
            self.load = int(stats.get("load", self.load))
            self.queue_depth = int(stats.get("queue_depth", self.queue_depth))
            self.pending_counts = dict(stats.get("pending_counts", {}))
            self.p95_wait = stats.get("p95_wait")
        if reply.get("error") is not None:
            raise ServeError(
                f"worker {self.index}: {reply['error']}"
            )
        return reply

    def call(
        self,
        message: Dict[str, object],
        trace: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, object]:
        """One RPC round trip (:meth:`send` + :meth:`recv_reply`)."""
        self.send(message, trace=trace)
        return self.recv_reply(message.get("cmd"))

    def kill(self) -> None:
        """SIGKILL the worker process (the crash-drill primitive)."""
        if self.process.is_alive():
            os.kill(self.pid, signal.SIGKILL)
        self.process.join()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker cleanly; escalate to SIGKILL if it lingers."""
        if self.process.is_alive():
            try:
                self.sock.settimeout(timeout)
                write_frame(self.sock, {"cmd": "stop"})
                read_frame(self.sock)
            except (OSError, EOFError, FrameError, WorkerCrashed):
                pass
            self.process.join(timeout)
            if self.process.is_alive():
                self.kill()
        else:
            self.process.join()
        self.sock.close()


# ---------------------------------------------------------------------------
# The process cluster
# ---------------------------------------------------------------------------


class ProcCluster:
    """Worker-process shards behind the ShardedServer serving surface.

    Construct from one ``(config, seed)`` pair — every worker builds its
    :class:`~repro.core.engine.TiledEngine` from exactly these, so all
    shards carry bit-identical weights (the thread cluster enforces the
    same invariant by comparing arrays; here it holds by construction,
    which is also what makes a *replacement* worker's engine exact).

    The serving surface matches :class:`ShardedServer` — ``open_session``
    / ``submit`` / ``run_tick`` / ``drain`` / ``close`` plus checkpoint,
    restore, and migration — so :func:`repro.serve.loadgen.run_open_loop`
    and the async front door drive either interchangeably.  ``submit``
    returns a parent-side :class:`StepRequest` mirror completed when the
    owning worker reports the step (same object contract as the
    in-process servers).

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
        admission_spill: bool = True,
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
        self.config = config
        self.seed = seed
        #: Parent-side span collector; worker spans are adopted into it
        #: from every reply, so one traced request's tree spans processes.
        self.tracer = tracer
        self.profile = profile
        #: Last-K tick history per worker (spans + phase stats), dumped
        #: into the supervisor's postmortems when a worker dies.
        self.flight = (
            FlightRecorder(flight_recorder) if flight_recorder > 0 else None
        )
        # Workers trace whenever anything consumes their spans: a parent
        # tracer wants the distributed tree, a flight recorder wants the
        # last-K history even with no tracer attached.
        trace_enabled = tracer is not None or flight_recorder > 0
        self._shard_kwargs: Dict[str, object] = dict(
            max_batch=max_batch,
            max_wait_ticks=max_wait_ticks,
            queue_capacity=queue_capacity,
            session_capacity=session_capacity,
            session_ttl_ticks=session_ttl_ticks,
            obs_trace=trace_enabled,
            obs_profile=profile,
        )
        self.queue_capacity = queue_capacity
        self.session_capacity = session_capacity
        self.rpc_timeout = rpc_timeout
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_min_log = checkpoint_min_log
        self.admission_spill = admission_spill
        self.placement = placement if placement is not None else LeastLoadedPlacement()
        self.rebalance = rebalance
        self.supervisor = CheckpointSupervisor()
        #: Front-door-local counters (worker restarts, spills, parent-side
        #: admission rejects); merged with worker metrics in snapshots.
        self.metrics = ServerMetrics()
        self.workers: List[ProcWorker] = [
            self._spawn(index) for index in range(num_workers)
        ]
        self.restarts: List[int] = [0] * num_workers
        self.tick = 0
        self.migrations = 0
        self._closed = False
        self._shard_of: Dict[str, int] = {}
        #: Parent step index corresponding to each session's step 0 on
        #: its *current* worker (shifts on recovery-restore and attach).
        self._base_steps: Dict[str, int] = {}
        self._session_counter = 0
        self._rid_counter = 0
        self._mirrors: Dict[int, StepRequest] = {}
        #: rid -> (session id, supervisor step index, worker index)
        self._rid_info: Dict[int, Tuple[str, int, int]] = {}
        #: session id -> {supervisor step index -> rid} for inflight steps
        self._inflight_rids: Dict[str, Dict[int, int]] = {}
        #: Replay-ghost rids: recomputed steps whose results were already
        #: delivered before a crash; excluded from run_tick's return.
        self._ghosts: Set[int] = set()
        #: Mirrors resolved since the last run_tick returned (run_tick
        #: drains this — completions can also arrive on open/close/
        #: checkpoint replies, and none may be dropped).
        self._completed_stash: List[StepRequest] = []
        self._buffers: List[
            List[Tuple[int, str, np.ndarray, Optional[tuple]]]
        ] = [[] for _ in range(num_workers)]
        #: Fast-path admitted sessions not yet announced to their worker;
        #: flushed with the next frame to that worker (any command).
        self._pending_opens: List[List[str]] = [[] for _ in range(num_workers)]
        self._worker_inflight: List[int] = [0] * num_workers
        #: Oldest-first router.submit contexts of traced requests not yet
        #: dispatched: the next cluster tick parents its span on the
        #: oldest one, attributing the tick to the request it serves.
        self._pending_traces: List[tuple] = []
        #: Latest cumulative per-phase profile reported by each worker
        #: (reset on respawn — the dead process's history is gone).
        self._worker_phase: List[Dict[str, Dict[str, float]]] = [
            {} for _ in range(num_workers)
        ]

    def _spawn(self, index: int) -> ProcWorker:
        return ProcWorker(
            index, self.config, self.seed, self._shard_kwargs,
            rpc_timeout=self.rpc_timeout,
        )

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def queue_depth(self) -> int:
        """Submitted-but-uncompleted requests across the cluster."""
        return sum(self._worker_inflight)

    @property
    def session_count(self) -> int:
        return len(self._shard_of)

    @property
    def worker_restarts(self) -> int:
        return sum(self.restarts)

    def shard_of(self, session_id: str) -> int:
        try:
            return self._shard_of[session_id]
        except KeyError:
            raise ConfigError(f"unknown session {session_id!r}") from None

    # ------------------------------------------------------------------
    def _process_reply(self, index: int, reply: Dict[str, object]) -> None:
        """Fold a worker reply's completions and departures into the
        parent's mirrors, logs, and routing table — and its spans and
        phase profile into the parent's tracer and flight recorder."""
        stats = reply.get("stats")
        if isinstance(stats, dict):
            spans = stats.get("spans") or []
            phase = stats.get("phase")
            if phase is not None:
                self._worker_phase[index] = phase
            if spans and self.tracer is not None:
                self.tracer.adopt(spans)
            if self.flight is not None and spans:
                self.flight.record(
                    index, int(stats.get("tick", 0)), spans, phase
                )
        for rid, y, error, submitted_tick, completed_tick in reply.get(
            "completed", ()
        ):
            info = self._rid_info.pop(rid, None)
            if info is None:
                continue
            session_id, step, worker_index = info
            steps = self._inflight_rids.get(session_id)
            if steps is not None and steps.get(step) == rid:
                del steps[step]
            self._worker_inflight[worker_index] -= 1
            mirror = self._mirrors.pop(rid, None)
            if mirror is not None:
                mirror.y = y
                mirror.error = error
                mirror.completed_tick = self.tick
                if rid in self._ghosts:
                    # A replayed, already-delivered step: recomputed to
                    # rebuild state, never handed out a second time.
                    self._ghosts.discard(rid)
                else:
                    self._completed_stash.append(mirror)
        for session_id in reply.get("departed", ()):
            self._forget_session(session_id)

    def _forget_session(self, session_id: str) -> None:
        self._shard_of.pop(session_id, None)
        self._base_steps.pop(session_id, None)
        self._inflight_rids.pop(session_id, None)
        self.supervisor.on_close(session_id)

    def _attach_opens(self, index: int, message: Dict[str, object]) -> None:
        """Piggyback any fast-path-admitted opens on this frame (the
        worker processes ``opens`` before the command proper)."""
        if self._pending_opens[index]:
            message["opens"] = self._pending_opens[index]
            self._pending_opens[index] = []

    def _rpc(self, index: int, message: Dict[str, object]) -> Dict[str, object]:
        """One RPC with reply bookkeeping; crashes propagate to callers
        (each call site owns its recovery strategy)."""
        self._attach_opens(index, message)
        reply = self.workers[index].call(message)
        self._process_reply(index, reply)
        return reply

    # ------------------------------------------------------------------
    def open_session(self, session_id: Optional[str] = None) -> Optional[str]:
        """Place and admit a new session; spill on refusal when enabled.

        The placement policy nominates a worker from cached stats; if
        that worker refuses (capacity) and ``admission_spill`` is on,
        the open is retried on the remaining workers in next-best order
        (fewest sessions, shallowest queue) before giving up — a full
        shard no longer turns away traffic the cluster still has room
        for.  Returns the session id, or ``None`` when every candidate
        refused.
        """
        if session_id is None:
            while f"session-{self._session_counter}" in self._shard_of:
                self._session_counter += 1
            session_id = f"session-{self._session_counter}"
            self._session_counter += 1
        elif session_id in self._shard_of:
            raise ConfigError(f"session {session_id!r} already exists")
        first = self.placement.place(session_id, self.workers)
        if not 0 <= first < len(self.workers):
            raise ConfigError(
                f"placement policy returned worker {first}, cluster has "
                f"{len(self.workers)}"
            )
        # Fast path: the parent's routing table is a superset of every
        # worker's store (departures arrive with reply lag, buffered
        # opens are counted here first), so when the parent counts open
        # headroom the worker is guaranteed to admit — no RPC needed,
        # the open rides the next frame to that worker.
        parent_load = sum(
            1 for widx in self._shard_of.values() if widx == first
        )
        if parent_load < self.session_capacity:
            self._pending_opens[first].append(session_id)
            self.workers[first].load += 1  # placement sees it immediately
            self._shard_of[session_id] = first
            self._base_steps[session_id] = 0
            self._inflight_rids[session_id] = {}
            self.supervisor.on_open(session_id)
            return session_id
        candidates = [first]
        if self.admission_spill:
            candidates += sorted(
                (i for i in range(len(self.workers)) if i != first),
                key=lambda i: (
                    self.workers[i].load, self.workers[i].queue_depth, i
                ),
            )
        for attempt, index in enumerate(candidates):
            try:
                reply = self._rpc(
                    index, {"cmd": "open", "session_id": session_id}
                )
            except WorkerCrashed:
                self._recover_worker(index)
                reply = self._rpc(
                    index, {"cmd": "open", "session_id": session_id}
                )
            if reply["ok"] is not None:
                if attempt > 0:
                    self.metrics.admission_spills += 1
                self._shard_of[session_id] = index
                self._base_steps[session_id] = 0
                self._inflight_rids[session_id] = {}
                self.supervisor.on_open(session_id)
                return session_id
        self.metrics.admission_rejects += 1
        return None

    def close_session(self, session_id: str) -> None:
        index = self.shard_of(session_id)
        try:
            self._rpc(index, {"cmd": "close", "session_id": session_id})
        except WorkerCrashed:
            self._recover_worker(index)
            self._rpc(index, {"cmd": "close", "session_id": session_id})
        self._forget_session(session_id)

    def submit(
        self,
        session_id: str,
        x: np.ndarray,
        trace: Optional[tuple] = None,
    ) -> Optional[StepRequest]:
        """Queue one timestep; returns a mirror request, or ``None`` when
        the owning worker's queue bound is reached (backpressure).

        The mirror is buffered and flushed with the next :meth:`run_tick`
        RPC; admission is checked here, synchronously, against the
        parent's own count of that worker's in-flight requests (it
        mirrors the worker's bound exactly, so the refusal semantics
        match the in-process servers).  With a tracer attached the
        routing hop is a ``router.submit`` span and its context ships to
        the worker with the buffered submit, so the worker-side spans
        join the same trace.
        """
        index = self.shard_of(session_id)
        x = np.asarray(x)
        input_size = self.config.word_size
        if x.shape != (input_size,):
            raise ConfigError(
                f"submit expects x of shape ({input_size},), got {x.shape}"
            )
        # Before the replay log: a refused input must never be replayed.
        if not np.isfinite(x).all():
            raise ConfigError("submit expects a finite x, got NaN or inf")
        span = None
        ctx = tuple(trace) if trace is not None else None
        if self.tracer is not None:
            span = self.tracer.start(
                "router.submit", parent=trace, attrs={"session": session_id}
            )
            ctx = span.context
        if self._worker_inflight[index] >= self.queue_capacity:
            self.metrics.admission_rejects += 1
            if span is not None:
                self.tracer.end(span, accepted=False)
            return None
        step = self.supervisor.on_submit(session_id, x)
        rid = self._rid_counter
        self._rid_counter += 1
        mirror = StepRequest(
            session_id=session_id,
            x=np.array(x, copy=True),
            submitted_tick=self.tick,
            seq=rid,
            trace=ctx,
        )
        self._mirrors[rid] = mirror
        self._rid_info[rid] = (session_id, step, index)
        self._inflight_rids[session_id][step] = rid
        self._buffers[index].append((rid, session_id, mirror.x, ctx))
        self._worker_inflight[index] += 1
        if span is not None:
            self.tracer.end(span, accepted=True)
        if ctx is not None:
            self._pending_traces.append(ctx)
        return mirror

    # ------------------------------------------------------------------
    def run_tick(self) -> List[StepRequest]:
        """Drive every worker one tick, concurrently; collect completions.

        Buffered submits flush inside each worker's tick frame; all tick
        frames are written before any reply is read, so the workers'
        engine steps overlap across processes.  A worker that crashed
        (or was SIGKILLed) since the last interaction is detected here,
        respawned, and restored from checkpoints + replay logs before
        the tick proceeds.  Completed mirrors return in submit order;
        replay ghosts (recomputed steps whose results were already
        delivered) are resolved but not returned.
        """
        tick_ctx: Optional[Tuple[int, int]] = None
        tick_span = None
        if self.tracer is not None:
            parent = self._pending_traces[0] if self._pending_traces else None
            tick_span = self.tracer.start(
                "cluster.tick", parent=parent, attrs={"tick": self.tick}
            )
            tick_ctx = tick_span.context
        self._pending_traces.clear()
        pending_reply: List[int] = []
        for index in range(len(self.workers)):
            submits = self._buffers[index]
            if not submits and self._worker_inflight[index] == 0:
                # Idle worker: nothing buffered and nothing in flight, so
                # a tick RPC could only burn a round trip.  Skipping it
                # means an idle worker's local clock (and therefore its
                # session-TTL expiry) only advances on active ticks —
                # capacity pressure still evicts via LRU on open.
                continue
            self._buffers[index] = []
            message = {"cmd": "tick", "submits": submits}
            self._attach_opens(index, message)
            try:
                self.workers[index].send(message, trace=tick_ctx)
            except WorkerCrashed:
                # The buffered submits are in the supervisor's logs (and
                # buffered opens in its session set); recovery re-opens
                # and re-enqueues them on the replacement worker.
                self._recover_worker(index)
                self.workers[index].send(
                    {"cmd": "tick", "submits": []}, trace=tick_ctx
                )
            pending_reply.append(index)
        for index in pending_reply:
            try:
                reply = self.workers[index].recv_reply("tick")
            except WorkerCrashed:
                self._recover_worker(index)
                reply = self.workers[index].call(
                    {"cmd": "tick", "submits": []}
                )
            self._process_reply(index, reply)
        if tick_span is not None:
            self.tracer.end(tick_span, workers=len(pending_reply))
        self.tick += 1
        if (
            self.checkpoint_interval is not None
            and self.tick % self.checkpoint_interval == 0
        ):
            self.checkpoint_now(min_log=self.checkpoint_min_log)
        if self.rebalance is not None:
            for session_id, src, dst in self.rebalance.plan(self.workers):
                if self._shard_of.get(session_id) != src:
                    continue
                if self.workers[dst].load >= self.workers[dst].capacity:
                    continue
                self.migrate_session(session_id, dst)
        completed = self._completed_stash
        self._completed_stash = []
        completed.sort(key=lambda request: request.seq)  # submit order
        return completed

    def checkpoint_now(self, min_log: int = 0) -> int:
        """One checkpoint round; returns sessions checkpointed.

        Ships every session whose supervisor replay log holds at least
        ``min_log`` steps — and at least one (0, the default for explicit
        calls, means every session with anything to replay).  Workers
        whose sessions are all below the bar are skipped entirely — at
        steady state a periodic round with nothing to ship costs no RPC.
        """
        count = 0
        wanted: List[List[str]] = [[] for _ in self.workers]
        for session_id, index in self._shard_of.items():
            depth = self.supervisor.log_depth(session_id)
            if depth > 0 and depth >= min_log:
                wanted[index].append(session_id)
        for index, sessions in enumerate(wanted):
            if not sessions:
                continue
            try:
                reply = self._rpc(
                    index, {"cmd": "checkpoint_all", "sessions": sessions}
                )
            except WorkerCrashed:
                self._recover_worker(index)
                continue  # the recovered worker was just restored
            for session_id, (payload, steps) in reply["ok"].items():
                if session_id not in self._shard_of:
                    continue
                parent_steps = self._base_steps[session_id] + int(steps)
                self.supervisor.on_checkpoint(
                    session_id, payload, parent_steps
                )
                count += 1
        return count

    # ------------------------------------------------------------------
    def session_state(self, session_id: str):
        """Copy of a session's current recurrent state (checkpoint read,
        decoded from the worker's wire-format payload)."""
        from repro.dnc.numpy_ref import NumpyDNCState

        return NumpyDNCState.from_bytes(self.checkpoint_session(session_id))

    def checkpoint_session(self, session_id: str) -> bytes:
        """One session's current state as checkpoint bytes (also feeds
        the supervisor, so recovery baselines advance)."""
        index = self.shard_of(session_id)
        try:
            reply = self._rpc(
                index, {"cmd": "checkpoint", "session_id": session_id}
            )
        except WorkerCrashed:
            self._recover_worker(index)
            reply = self._rpc(
                index, {"cmd": "checkpoint", "session_id": session_id}
            )
        payload, steps = reply["ok"]
        self.supervisor.on_checkpoint(
            session_id, payload, self._base_steps[session_id] + int(steps)
        )
        return payload

    def restore_session(self, session_id: str, payload: bytes) -> str:
        """Open a session from externally supplied checkpoint bytes."""
        if session_id in self._shard_of:
            raise ConfigError(f"session {session_id!r} already exists")
        index = self.placement.place(session_id, self.workers)
        try:
            self._rpc(
                index,
                {"cmd": "restore", "session_id": session_id, "payload": payload},
            )
        except WorkerCrashed:
            self._recover_worker(index)
            self._rpc(
                index,
                {"cmd": "restore", "session_id": session_id, "payload": payload},
            )
        self._shard_of[session_id] = index
        self._base_steps[session_id] = 0
        self._inflight_rids[session_id] = {}
        self.supervisor.on_restore(session_id, payload)
        return session_id

    def migrate_session(self, session_id: str, dst: int) -> None:
        """Move a live session (state + pending FIFO) to worker ``dst``.

        The detach's checkpoint bytes double as a fresh supervisor
        baseline, so a migration also advances the session's recovery
        point for free.  If the destination dies mid-attach, the session
        is restored onto the source from that same baseline — a crashed
        migration never loses the session.
        """
        src = self.shard_of(session_id)
        if not 0 <= dst < len(self.workers):
            raise ConfigError(
                f"destination worker {dst} out of range "
                f"(cluster has {len(self.workers)})"
            )
        if dst == src:
            return
        if self.workers[dst].load >= self.workers[dst].capacity:
            raise CapacityError(
                f"worker {dst} is full; cannot migrate {session_id!r}"
            )
        try:
            reply = self._rpc(src, {"cmd": "detach", "session_id": session_id})
        except WorkerCrashed:
            # The source died before handing the session over; recovery
            # rebuilds it in place and the move is abandoned this round.
            self._recover_worker(src)
            return
        payload, pending, steps = reply["ok"]
        parent_steps = self._base_steps[session_id] + int(steps)
        self.supervisor.on_checkpoint(session_id, payload, parent_steps)
        self._base_steps[session_id] = parent_steps
        for rid, _x, _t in pending:
            if rid in self._rid_info:
                sid, step, _w = self._rid_info[rid]
                self._rid_info[rid] = (sid, step, dst)
        moved = len(pending)
        self._worker_inflight[src] -= moved
        try:
            self._rpc(dst, {
                "cmd": "attach", "session_id": session_id,
                "payload": payload, "pending": pending,
            })
        except WorkerCrashed:
            self._recover_worker(dst)  # replays dst's own sessions
            self._shard_of[session_id] = src
            self._restore_session_on(src, session_id)
            return
        self._worker_inflight[dst] += moved
        self._shard_of[session_id] = dst
        self.migrations += 1

    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> None:
        """SIGKILL a worker (crash drill); recovery runs on next contact."""
        self.workers[index].kill()

    def _recover_worker(self, index: int) -> None:
        """Respawn worker ``index`` and restore every resident session.

        Each session is rebuilt from the supervisor's plan: restore the
        last checkpoint (or re-open fresh when none exists) and re-submit
        the logged inputs in order.  Pending steps keep their original
        mirrors — client-held requests complete normally after the
        restart; already-delivered steps replay as ghosts.
        """
        old = self.workers[index]
        old.kill()
        old.sock.close()
        if self.flight is not None:
            # Hand the dead worker's last-K tick history (spans + phase
            # stats) to the supervisor before anything overwrites it —
            # the postmortem a crash investigation starts from.
            self.supervisor.on_worker_death(index, self.flight.dump(index))
            self.flight.clear(index)
        self._worker_phase[index] = {}
        self.workers[index] = self._spawn(index)
        self.restarts[index] += 1
        self.metrics.worker_restarts += 1
        # In-flight counts are rebuilt from the replayed queue below;
        # buffered opens died with the process and are re-opened by the
        # per-session restore (their sessions are still in _shard_of).
        self._worker_inflight[index] = 0
        self._buffers[index] = []
        self._pending_opens[index] = []
        sessions = [
            sid for sid, widx in self._shard_of.items() if widx == index
        ]
        for session_id in sessions:
            self._restore_session_on(index, session_id)

    def _restore_session_on(self, index: int, session_id: str) -> None:
        payload, replay = self.supervisor.recovery_plan(session_id)
        if payload is not None:
            self._rpc(index, {
                "cmd": "restore", "session_id": session_id, "payload": payload,
            })
            self._base_steps[session_id] = self.supervisor.checkpoint_steps(
                session_id
            )
        else:
            reply = self._rpc(index, {"cmd": "open", "session_id": session_id})
            if reply["ok"] is None:
                raise ServeError(
                    f"worker {index} refused session {session_id!r} "
                    "during crash recovery"
                )
            self._base_steps[session_id] = 0
        inflight = self._inflight_rids.setdefault(session_id, {})
        # Replay submits are untraced: the original request's spans were
        # already recorded (or died with the worker's ring).
        submits: List[Tuple[int, str, np.ndarray, Optional[tuple]]] = []
        for step, x in replay:
            rid = inflight.get(step)
            if rid is None:
                # Already delivered before the crash: recompute to rebuild
                # state, but don't hand the result to anyone twice.
                rid = self._rid_counter
                self._rid_counter += 1
                self._ghosts.add(rid)
                self._mirrors[rid] = StepRequest(
                    session_id=session_id, x=np.array(x, copy=True),
                    submitted_tick=self.tick, seq=rid,
                )
                self._rid_info[rid] = (session_id, step, index)
                inflight[step] = rid
            else:
                self._rid_info[rid] = (session_id, step, index)
            submits.append((rid, session_id, x, None))
            self._worker_inflight[index] += 1
        if submits:
            self._rpc(
                index, {"cmd": "enqueue", "submits": submits, "drain": True}
            )

    # ------------------------------------------------------------------
    def drain(self, max_ticks: int = 10_000) -> List[StepRequest]:
        """Run cluster ticks until no request is in flight."""
        completed: List[StepRequest] = []
        for _ in range(max_ticks):
            if self.queue_depth == 0:
                return completed
            completed.extend(self.run_tick())
        raise ConfigError(
            f"drain did not empty the queues within {max_ticks} ticks"
        )

    def close(self) -> None:
        """Stop every worker process (idempotent; SIGKILL stragglers)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ProcCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # last-resort: never leak child processes
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def cluster_metrics(self) -> ServerMetrics:
        """Merged worker metrics plus the front door's local counters.

        A restarted worker reports metrics from its respawn onward (the
        dead process's history is gone), and replayed steps are counted
        again by the worker that recomputed them — the merged object
        reports work actually performed, which is the honest accounting
        under restarts.
        """
        parts = [self.metrics]
        for index in range(len(self.workers)):
            try:
                reply = self._rpc(index, {"cmd": "metrics"})
            except WorkerCrashed:
                self._recover_worker(index)
                reply = self._rpc(index, {"cmd": "metrics"})
            parts.append(ServerMetrics.from_state(reply["ok"]))
        return ServerMetrics.merge(parts)

    def cluster_profile(self) -> Dict[str, Dict[str, float]]:
        """Merged per-phase engine profile across workers (empty unless
        constructed with ``profile=True``).  Built from the cumulative
        stats each worker piggybacks on its replies — no extra RPC."""
        merged = PhaseTimer()
        for phase in self._worker_phase:
            merged.merge(phase)
        return merged.stats()

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able cluster snapshot: merged metrics + liveness."""
        snap = self.cluster_metrics().snapshot()
        snap["workers"] = len(self.workers)
        snap["cluster_ticks"] = self.tick
        snap["sessions_migrated"] = self.migrations
        snap["worker_restarts"] = self.worker_restarts
        snap["checkpoints_taken"] = self.supervisor.checkpoints_taken
        snap["sessions_recovered"] = self.supervisor.sessions_recovered
        snap["per_worker"] = [
            {
                "worker": worker.index,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": self.restarts[index],
                "sessions": worker.load,
                "queue_depth": worker.queue_depth,
            }
            for index, worker in enumerate(self.workers)
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
