"""The per-layer (traced) run.

Two parts, both measured from outside through public functions:

* the workload itself re-run three ways on the same units — plain, with
  spans recorded (a :class:`repro.obs.Tracer`, written to JSONL), and
  with the engine's public ``PhaseTimer`` hook — which gives the
  tracing/profiling overheads, the span count and self-times, and the
  engine's per-phase times on that workload;
* a fixed suite of layer probes, each timing one layer's public calls on
  arguments captured from the trajectory of the workload the layer
  serves (the same suite whichever workload is being traced, so every
  traced run reports every per-layer metric).

Timings are medians; counts must repeat exactly for a seed
(``COUNT_METRICS``; ``run.py --check-determinism`` asserts it).
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

import harness
from harness import median, median_ms, median_us
from workloads import (
    CHUNK_B, MODEL_SEED, OfflineDNC, OfflineDNCD, ResidentSparse,
    ServeInproc, ServeProcs,
)

from repro.core import kernels as SK
from repro.core.engine import TiledEngine
from repro.obs import PhaseTimer, Tracer
from repro.serve import (
    AsyncFrontend, CheckpointSupervisor, LeastLoadedPlacement, ProcCluster,
    SessionServer, ShardedServer,
)
from repro.serve.proc import read_frame, write_frame

CALLS = 200
QUICK_CALLS = 20
PHASE_NAMES = (
    "controller", "content_addressing", "sort_allocation",
    "erase_write_linkage", "read", "output", "gather_scatter",
)
BACKENDS = ("reference", "tuned")
KERNELS = ("write", "write_inplace", "read_fb", "read_vectors", "scores", "argsort")

#: name -> unit, for every per-layer metric (the order they print in).
PER_LAYER: Dict[str, str] = {
    "core.engine.step_ms": "ms",
    "core.engine.step_dncd_ms": "ms",
    "core.engine.step_masked_full_ms": "ms",
    "core.engine.step_masked_dense_ms": "ms",
    "core.engine.step_masked_compact_ms": "ms",
    "core.engine.masked_full_ticks": "count",
    "core.engine.masked_dense_ticks": "count",
    "core.engine.masked_compact_ticks": "count",
    "core.engine.state_bytes_copied_per_tick": "B",
    **{f"core.engine.phase.{p}_ms": "ms" for p in PHASE_NAMES},
    "core.engine.phase.attributed_frac": "frac",
    **{f"core.backend.{b}.{k}_ms": "ms" for b in BACKENDS for k in KERNELS},
    "core.kernels.write_bytes": "B",
    "core.kernels.read_bytes": "B",
    "core.kernels.sparse_write_inplace_ms": "ms",
    "core.kernels.sparse_fb_ms": "ms",
    "core.kernels.sparse_read_vectors_ms": "ms",
    "core.kernels.sparse_write_copy_ms": "ms",
    "core.kernels.stacked_scores_ms": "ms",
    "core.kernels.block_diag_scatter_ms": "ms",
    "hw.sorters.two_stage_sort_ms": "ms",
    "dnc.state.to_bytes_ms": "ms",
    "dnc.state.from_bytes_ms": "ms",
    "dnc.state.checkpoint_bytes": "B",
    "dnc.state.take_rows_ms": "ms",
    "dnc.state.write_rows_ms": "ms",
    "serve.batcher.submit_us": "us",
    "serve.batcher.next_batch_us": "us",
    "serve.batcher.batch_size_mean": "count",
    "serve.batcher.wait_ticks_p95": "ticks",
    "serve.arena.bind_us": "us",
    "serve.arena.release_us": "us",
    "serve.arena.read_slot_us": "us",
    "serve.arena.write_slot_us": "us",
    "serve.shard.submit_us": "us",
    "serve.shard.run_tick_ms": "ms",
    "serve.shard.tick_self_ms": "ms",
    "serve.shard.occupancy_mean": "count",
    "serve.cluster.run_tick_seq_ms": "ms",
    "serve.cluster.run_tick_par_ms": "ms",
    "serve.router.place_us": "us",
    "serve.proc.frame_encode_us": "us",
    "serve.proc.frame_decode_us": "us",
    "serve.proc.frame_bytes_per_tick": "B",
    "serve.proc.rpc_ping_us": "us",
    "serve.proc.run_tick_ms": "ms",
    "serve.proc.tick_self_ms": "ms",
    "serve.proc.checkpoint_round_ms": "ms",
    "serve.proc.checkpoint_bytes": "B",
    "serve.proc.spawn_ms": "ms",
    "serve.proc.recover_ms": "ms",
    "serve.supervisor.on_submit_us": "us",
    "serve.frontend.submit_overhead_us": "us",
    "serve.frontend.steps_per_s_frac": "frac",
    "serve.frontend.open_us": "us",
    "obs.trace.overhead_frac": "frac",
    "obs.profiler.overhead_frac": "frac",
    "obs.trace.span_count": "count",
}
#: Every other per-layer metric is better lower.
HIGHER_IS_BETTER = frozenset({
    "core.engine.masked_full_ticks",
    "core.engine.phase.attributed_frac",
    "serve.batcher.batch_size_mean",
    "serve.shard.occupancy_mean",
    "serve.frontend.steps_per_s_frac",
    "obs.trace.span_count",
})
#: Metrics that must repeat exactly for a seed.  ``serve.frontend.*`` is
#: exempt by design (asyncio interleaving moves its tick count).
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "B", "ticks")
)


class CallTimer:
    """Times every call of ``obj.attr`` (wrapped on the instance)."""

    def __init__(self, obj, attr: str):
        self.seconds: List[float] = []
        self.results: List[object] = []
        self.last_args: Tuple[tuple, dict] = ((), {})
        fn = getattr(obj, attr)

        def timed(*args, **kwargs):
            self.last_args = (args, kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds.append(time.perf_counter() - t0)
            self.results.append(result)
            return result

        setattr(obj, attr, timed)
        self._wrapped = (obj, attr)

    def restore(self) -> None:
        delattr(*self._wrapped)

    def median_us(self) -> float:
        return median(self.seconds) * 1e6 if self.seconds else 0.0


def captured_call(obj, attr: str, run: Callable[[], object]) -> Tuple[tuple, dict]:
    """Arguments ``obj.attr`` received during ``run()`` (the last call)."""
    timer = CallTimer(obj, attr)
    try:
        run()
    finally:
        timer.restore()
    return timer.last_args


def warm_engine(config, batch: int, steps: int, rng):
    """An engine, a state ``steps`` out-of-place steps into a trajectory
    on seeded inputs, and the next input."""
    engine = TiledEngine(config, rng=MODEL_SEED)
    state = engine.initial_state(batch_size=batch)
    for _ in range(steps):
        _, state = engine.step(rng.standard_normal((batch, config.word_size)), state)
    engine.traffic.clear()
    return engine, state, rng.standard_normal((batch, config.word_size))


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------


def engine_layers(rng, calls) -> Dict[str, float]:
    """``core.engine`` out-of-place steps and ``hw.sorters``."""
    out = {}
    for key, cls in (("step_ms", OfflineDNC), ("step_dncd_ms", OfflineDNCD)):
        engine, state, x = warm_engine(cls.config, CHUNK_B, 16, rng)
        holder = [state]

        def step():
            _, holder[0] = engine.step(x, holder[0])

        out[f"core.engine.{key}"] = median_ms(step, calls)
        if engine.sorter is not None:
            usage = holder[0].usage
            out["hw.sorters.two_stage_sort_ms"] = median_ms(
                lambda: engine.sorter.sort(usage), calls
            )
    return out


def backend_layers(rng, calls) -> Dict[str, float]:
    """Each dense kernel of each backend on arguments captured from one
    ``offline_dnc`` step, plus the computed bytes of the N^2 phases."""
    out = {}
    for name in BACKENDS:
        config = dataclasses.replace(OfflineDNC.config, backend=name)
        engine, state, x = warm_engine(config, CHUNK_B, 16, rng)
        be = engine.backend

        def one_step():
            engine.step(x, state)

        args = {
            method: captured_call(be, method, one_step)[0]
            for method in ("fused_erase_write_linkage", "forward_backward",
                           "read_vectors", "write_scores", "read_scores")
        }
        prefix = f"core.backend.{name}."
        write_args = args["fused_erase_write_linkage"]
        out[prefix + "write_ms"] = median_ms(
            lambda: be.fused_erase_write_linkage(*write_args), calls
        )
        resident = [a.copy() for a in write_args[:3]]
        active, scratch = np.arange(CHUNK_B), {}
        out[prefix + "write_inplace_ms"] = median_ms(
            lambda: be.fused_erase_write_linkage_inplace(
                *resident, *write_args[3:], active=active, scratch=scratch
            ),
            calls,
        )
        out[prefix + "read_fb_ms"] = median_ms(
            lambda: be.forward_backward(*args["forward_backward"]), calls
        )
        out[prefix + "read_vectors_ms"] = median_ms(
            lambda: be.read_vectors(*args["read_vectors"]), calls
        )

        def scores():
            be.write_scores(*args["write_scores"])
            be.read_scores(*args["read_scores"])

        out[prefix + "scores_ms"] = median_ms(scores, calls)
        # offline_dnc sorts through the two-stage sorter; the backend's
        # batched argsort serves the other configs, on the same usage.
        out[prefix + "argsort_ms"] = median_ms(
            lambda: be.argsort(state.usage), calls
        )
    cfg = OfflineDNC.config
    shape = dict(n=cfg.memory_size, w=cfg.word_size, r=cfg.num_reads,
                 rows=cfg.memory_size, hidden=cfg.hidden_size)
    per_element = CHUNK_B * cfg.np_dtype.itemsize
    # Computed from tensor sizes (the repo's own bytes model), not measured.
    out["core.kernels.write_bytes"] = per_element * SK.phase_touched_bytes(
        "erase_write_linkage", **shape
    )
    out["core.kernels.read_bytes"] = per_element * SK.phase_touched_bytes(
        "read", **shape
    )
    return out


def sparse_layers(rng, calls) -> Dict[str, float]:
    """The K-row kernels on arguments captured from one masked in-place
    ``resident_sparse`` step."""
    cls = ResidentSparse
    engine = TiledEngine(cls.config, rng=MODEL_SEED)
    state = engine.initial_state(batch_size=cls.slots)
    active = np.arange(cls.slots)

    def tick():
        engine.step(rng.standard_normal((cls.slots, cls.config.word_size)),
                    state, active=active)

    for _ in range(16):
        tick()
    be = engine.backend
    write_args, write_kwargs = captured_call(
        be, "sparse_erase_write_linkage_inplace", tick
    )
    fb_args = captured_call(be, "sparse_forward_backward", tick)[0]
    rv_args = captured_call(be, "sparse_read_vectors", tick)[0]
    engine.traffic.clear()
    return {
        "core.kernels.sparse_write_inplace_ms": median_ms(
            lambda: be.sparse_erase_write_linkage_inplace(*write_args, **write_kwargs),
            calls,
        ),
        "core.kernels.sparse_fb_ms": median_ms(
            lambda: be.sparse_forward_backward(*fb_args), calls
        ),
        "core.kernels.sparse_read_vectors_ms": median_ms(
            lambda: be.sparse_read_vectors(*rv_args), calls
        ),
        # The out-of-place form copies the N^2 state first; for contrast.
        "core.kernels.sparse_write_copy_ms": median_ms(
            lambda: be.sparse_erase_write_linkage(*write_args), max(5, calls // 4)
        ),
    }


def dncd_layers(rng, calls) -> Dict[str, float]:
    engine, state, x = warm_engine(OfflineDNCD.config, CHUNK_B, 8, rng)
    be = engine.backend

    def one_step():
        engine.step(x, state)

    ws = captured_call(be, "stacked_write_scores", one_step)[0]
    rs = captured_call(be, "stacked_read_scores", one_step)[0]

    def scores():
        be.stacked_write_scores(*ws)
        be.stacked_read_scores(*rs)

    blocks = SK.block_diagonal(state.linkage, OfflineDNCD.config.num_tiles)
    return {
        "core.kernels.stacked_scores_ms": median_ms(scores, calls),
        "core.kernels.block_diag_scatter_ms": median_ms(
            lambda: SK.scatter_block_diagonal(blocks), calls
        ),
    }


def state_layers(rng, calls) -> Dict[str, float]:
    """Checkpoint (de)serialisation on the ``serve_procs`` model, row
    gather/scatter on the ``serve_inproc`` arena shape."""
    _, batched, _ = warm_engine(ServeProcs.config, 2, 8, rng)
    solo = batched.unstack()[0]
    payload = solo.to_bytes()
    out = {
        "dnc.state.to_bytes_ms": median_ms(solo.to_bytes, calls),
        "dnc.state.from_bytes_ms": median_ms(
            lambda: type(solo).from_bytes(payload), calls
        ),
        "dnc.state.checkpoint_bytes": len(payload),
    }
    _, arena, _ = warm_engine(ServeInproc.config, ServeInproc.session_capacity, 4, rng)
    idx = np.arange(0, ServeInproc.session_capacity, 2)
    rows = arena.take_rows(idx)
    out["dnc.state.take_rows_ms"] = median_ms(lambda: arena.take_rows(idx), calls)
    out["dnc.state.write_rows_ms"] = median_ms(
        lambda: arena.write_rows(idx, rows), calls
    )
    return out


def serve_inproc_layers(seed, calls) -> Dict[str, float]:
    """Batcher, arena, shard and the three masked step forms, timed on a
    ``serve_inproc`` run of its own (three waves of the occupancy sweep,
    so each form gets on the order of a hundred ticks or more)."""
    wave = 3 * ServeInproc.wave[2]
    units = wave * (3 if calls >= CALLS else 1)
    w = ServeInproc(seed, units)
    server, engine = w.server, w.engine
    timers = {
        "batcher.submit": CallTimer(server.batcher, "submit"),
        "batcher.next_batch": CallTimer(server.batcher, "next_batch"),
        "arena.bind": CallTimer(server.arena, "bind"),
        "arena.release": CallTimer(server.arena, "release"),
        "shard.submit": CallTimer(server, "submit"),
        "shard.run_tick": CallTimer(server, "run_tick"),
    }
    forms: Dict[str, List[float]] = {"full": [], "dense": [], "compact": []}
    step_seconds: List[float] = []
    copied = [0]
    capacity = w.session_capacity
    dense_from = engine.config.masked_dense_min_occupancy * capacity
    raw_step = engine.step

    def step(x, state, active=None):
        t0 = time.perf_counter()
        result = raw_step(x, state, active=active)
        dt = time.perf_counter() - t0
        n = len(active)
        forms["full" if n == capacity else "dense" if n >= dense_from else "compact"].append(dt)
        step_seconds.append(dt)
        copied[0] += engine.last_state_bytes_copied
        return result

    engine.step = step
    harness.run_units(w, 0, units)
    tick_seconds = timers["shard.run_tick"].seconds
    busy = [k for k, batch in enumerate(timers["shard.run_tick"].results) if batch]
    if len(busy) != len(step_seconds):
        raise RuntimeError("a dispatching tick did not step the engine once")
    self_ms = [
        (tick_seconds[k] - step_seconds[j]) * 1e3 for j, k in enumerate(busy)
    ]
    out = {
        f"core.engine.step_masked_{form}_ms": median(s) * 1e3 if s else 0.0
        for form, s in forms.items()
    }
    out.update({
        f"core.engine.masked_{form}_ticks": len(s) for form, s in forms.items()
    })
    out["core.engine.state_bytes_copied_per_tick"] = copied[0] / len(tick_seconds)
    for key, timer in timers.items():
        if key != "shard.run_tick":
            out[f"serve.{key}_us"] = timer.median_us()
    out["serve.shard.run_tick_ms"] = median(tick_seconds[k] for k in busy) * 1e3
    out["serve.shard.tick_self_ms"] = median(self_ms)
    out["serve.batcher.batch_size_mean"] = server.metrics.mean_occupancy()
    out["serve.batcher.wait_ticks_p95"] = server.metrics.wait_percentiles()[1]
    out["serve.shard.occupancy_mean"] = server.metrics.mean_slot_occupancy()
    sid = next(iter(w.live))
    slot_state = server.arena.read_slot(sid)
    out["serve.arena.read_slot_us"] = median_us(
        lambda: server.arena.read_slot(sid), calls
    )
    out["serve.arena.write_slot_us"] = median_us(
        lambda: server.arena.write_slot(sid, slot_state), calls
    )
    w.close()
    return out


def _drive_fixed(server, sessions: int, ticks: int, x) -> Tuple[List[float], List[float], float]:
    """Closed loop over a fixed population: every session keeps one step
    outstanding.  Returns (tick seconds, request latencies, wall)."""
    sids = [server.open_session(f"t00-s{k}") for k in range(sessions)]
    pending: Dict[str, Tuple[object, float]] = {}
    tick_seconds, latencies = [], []
    t_start = time.perf_counter()
    for _ in range(ticks):
        for sid in sids:
            if sid not in pending:
                pending[sid] = (server.submit(sid, x), time.perf_counter())
        t0 = time.perf_counter()
        server.run_tick()
        now = time.perf_counter()
        tick_seconds.append(now - t0)
        for sid in [s for s, (r, _) in pending.items() if r.done]:
            latencies.append(now - pending.pop(sid)[1])
    return tick_seconds, latencies, time.perf_counter() - t_start


def cluster_layers(rng, calls) -> Dict[str, float]:
    """Two thread-cluster shards ticked one after another and in
    parallel; no end-to-end workload uses this tier (by design)."""
    config = ServeProcs.config
    x = rng.standard_normal(config.word_size)
    out = {}
    for key, parallel in (("seq", False), ("par", True)):
        with ShardedServer(
            engine_factory=lambda: TiledEngine(config, rng=MODEL_SEED),
            num_shards=2, max_batch=16, max_wait_ticks=0, session_capacity=16,
            parallel=parallel,
        ) as server:
            ticks, _, _ = _drive_fixed(server, 24, calls, x)
            out[f"serve.cluster.run_tick_{key}_ms"] = median(ticks) * 1e3
            if not parallel:
                placement = LeastLoadedPlacement()
                out["serve.router.place_us"] = median_us(
                    lambda: placement.place("t00-s99", server.shards), calls
                )
    return out


class _ProcsInproc(ServeProcs):
    """The ``serve_procs`` script against an in-process shard: the
    baseline ``serve.proc.tick_self_ms`` subtracts."""

    def _make_server(self):
        return SessionServer(
            TiledEngine(self.config, rng=MODEL_SEED, traffic_max_events=4096),
            max_batch=self.max_batch, max_wait_ticks=1,
            session_capacity=self.session_capacity,
        )

    def worker_pids(self):
        return []


def _new_cluster(**kwargs) -> ProcCluster:
    return ProcCluster(
        ServeProcs.config, seed=MODEL_SEED, num_workers=1,
        session_capacity=ServeProcs.session_capacity,
        max_batch=ServeProcs.max_batch, max_wait_ticks=1, **kwargs,
    )


def proc_layers(seed, rng, calls) -> Dict[str, float]:
    """``serve.proc`` / ``serve.supervisor`` on a ``serve_procs`` run of
    its own, then one SIGKILL recovery drill."""
    out = {}
    spawn = []
    for _ in range(5 if calls >= CALLS else 2):
        t0 = time.perf_counter()
        cluster = _new_cluster()
        cluster.workers[0].call({"cmd": "ping"})  # worker built and serving
        spawn.append(time.perf_counter() - t0)
        cluster.close()
    out["serve.proc.spawn_ms"] = median(spawn) * 1e3

    period = ServeProcs.segment_units
    units = period * (4 if calls >= CALLS else 1)
    w = ServeProcs(seed, units)
    cluster = w.server
    worker = cluster.workers[0]
    out["serve.proc.rpc_ping_us"] = median_us(
        lambda: worker.call({"cmd": "ping"}), calls
    )
    tick = CallTimer(cluster, "run_tick")
    ckpt = CallTimer(cluster, "checkpoint_now")
    frames = {}  # the latest tick message and its reply, as sent
    raw_send, raw_recv = worker.send, worker.recv_reply

    def send(message, trace=None):
        if message["cmd"] == "tick":
            frames["message"] = message
        raw_send(message, trace=trace)

    def recv_reply(cmd=None):
        reply = raw_recv(cmd)
        if cmd == "tick":
            frames["reply"] = reply
        return reply

    worker.send, worker.recv_reply = send, recv_reply
    shipped = [0]
    raw_on_checkpoint = cluster.supervisor.on_checkpoint

    def on_checkpoint(session_id, payload, steps):
        shipped[0] += len(payload)
        raw_on_checkpoint(session_id, payload, steps)

    cluster.supervisor.on_checkpoint = on_checkpoint
    baseline = _ProcsInproc(seed, units)
    shard_tick = CallTimer(baseline.server, "run_tick")
    # The same script, one wave period at a time on each side, so both
    # medians see the same minutes of the box (the difference of two
    # medians taken minutes apart read 24-59 % across five runs).
    for first in range(0, units, period):
        harness.run_units(w, first, period)
        harness.run_units(baseline, first, period)
    del worker.send, worker.recv_reply
    cluster_ms = 1e3 * harness.segment_median(tick.seconds, period)
    shard_ms = 1e3 * harness.segment_median(shard_tick.seconds, period)
    out["serve.proc.run_tick_ms"] = cluster_ms
    out["serve.proc.tick_self_ms"] = cluster_ms - shard_ms
    rounds = [s for s, n in zip(ckpt.seconds, ckpt.results) if n]
    out["serve.proc.checkpoint_round_ms"] = median(rounds) * 1e3
    out["serve.proc.checkpoint_bytes"] = shipped[0] / len(rounds)

    left, right = socket.socketpair()
    try:
        encode, decode, nbytes = 0.0, 0.0, 0
        for frame in (frames["message"], frames["reply"]):
            enc, dec = [], []
            for _ in range(calls):
                t0 = time.perf_counter()
                write_frame(left, frame)
                t1 = time.perf_counter()
                read_frame(right)
                enc.append(t1 - t0)
                dec.append(time.perf_counter() - t1)
            encode += median(enc)
            decode += median(dec)
            write_frame(left, frame)
            right.setblocking(False)
            try:
                while True:
                    nbytes += len(right.recv(1 << 20))
            except BlockingIOError:
                pass
            right.setblocking(True)
    finally:
        left.close()
        right.close()
    out["serve.proc.frame_encode_us"] = encode * 1e6
    out["serve.proc.frame_decode_us"] = decode * 1e6
    out["serve.proc.frame_bytes_per_tick"] = nbytes

    cluster.kill_worker(0)
    t0 = time.perf_counter()
    w.run_unit(units)  # detects the death, respawns, restores, replays
    out["serve.proc.recover_ms"] = (time.perf_counter() - t0) * 1e3
    if cluster.worker_restarts != 1:
        raise RuntimeError("the recovery drill did not restart the worker")
    w.close()

    supervisor = CheckpointSupervisor()
    supervisor.on_open("t00-s0")
    x = rng.standard_normal(ServeProcs.config.word_size)
    out["serve.supervisor.on_submit_us"] = median_us(
        lambda: supervisor.on_submit("t00-s0", x), 5 * calls
    )
    return out


def frontend_layers(rng, calls) -> Dict[str, float]:
    """24 asyncio clients awaiting ``AsyncFrontend.submit`` against the
    direct synchronous driver on the same cluster shape, model and
    population.  Informational and expected noisy: the executor hop puts
    a second busy thread next to the worker process."""
    sessions, steps = 24, max(4, calls // 4)
    x = rng.standard_normal(ServeProcs.config.word_size)
    with _new_cluster(checkpoint_interval=8) as cluster:
        ticks = steps * sessions // ServeProcs.max_batch
        _, direct_lat, direct_wall = _drive_fixed(cluster, sessions, ticks, x)
    direct_rate = len(direct_lat) / direct_wall

    async def run():
        opens, latencies = [], []
        async with AsyncFrontend(_new_cluster(checkpoint_interval=8)) as fe:
            sids = []
            for k in range(sessions):
                t0 = time.perf_counter()
                sids.append(await fe.open(f"t00-s{k}"))
                opens.append(time.perf_counter() - t0)

            async def client(sid):
                for _ in range(steps):
                    t0 = time.perf_counter()
                    await fe.submit(sid, x)
                    latencies.append(time.perf_counter() - t0)

            t_start = time.perf_counter()
            await asyncio.gather(*(client(sid) for sid in sids))
            wall = time.perf_counter() - t_start
        return opens, latencies, wall

    opens, latencies, wall = asyncio.run(run())
    return {
        "serve.frontend.submit_overhead_us":
            (median(latencies) - median(direct_lat)) * 1e6,
        "serve.frontend.steps_per_s_frac": (len(latencies) / wall) / direct_rate,
        "serve.frontend.open_us": median(opens) * 1e6,
    }


def layer_suite(seed: int, calls: int) -> Dict[str, float]:
    rng = np.random.default_rng(seed)
    out: Dict[str, float] = {}
    for probe in (engine_layers, backend_layers, sparse_layers, dncd_layers,
                  state_layers, cluster_layers, frontend_layers):
        out.update(probe(rng, calls))
    out.update(serve_inproc_layers(seed, calls))
    out.update(proc_layers(seed, rng, calls))
    return out


# ---------------------------------------------------------------------------
# The workload itself, plain / traced / profiled
# ---------------------------------------------------------------------------


def workload_three_ways(cls, seed: int, units: int, quick: bool):
    """Plain, traced and profiled contexts of ``cls`` run the same unit
    blocks (one segment each) in ABC-CBA order; a mode's rate is the
    median over its blocks, the rule of ``harness.segment_median``."""
    block = cls.segment_units
    rounds = 1 if quick else 4
    warm = cls.warmup_units(block)
    tracer = Tracer(capacity=1 << 18)
    contexts = {
        "plain": cls(seed, units),
        "traced": cls(seed, units, tracer=tracer),
        "profiled": cls(seed, units, profile=True),
    }
    rates: Dict[str, List[float]] = {mode: [] for mode in contexts}
    try:
        for w in contexts.values():
            harness.run_units(w, 0, warm)
            w.begin_timed()
        tracer.clear()
        phase_before = contexts["profiled"].phase_stats()
        profiled_wall = 0.0
        order = list(contexts)
        for r in range(rounds):
            for mode in (order if r % 2 == 0 else reversed(order)):
                w = contexts[mode]
                before = w.done
                marks = harness.run_units(w, warm + r * block, block)
                wall = marks[-1] - marks[0]
                rates[mode].append((w.done - before) / wall)
                if mode == "profiled":
                    profiled_wall += wall
        phases = PhaseTimer.delta(phase_before, contexts["profiled"].phase_stats())
        records = tracer.records()
        attempted = sum(w.attempted for w in contexts.values())
        failed = sum(w.failed for w in contexts.values())
        params = contexts["plain"].params()
    finally:
        for w in contexts.values():
            w.close()

    plain = median(rates["plain"])
    out = {
        "obs.trace.overhead_frac": 1.0 - median(rates["traced"]) / plain,
        "obs.profiler.overhead_frac": 1.0 - median(rates["profiled"]) / plain,
        "obs.trace.span_count": len(records),
    }
    # A fused-read backend reports "read_phase"; both are the read phase.
    seconds = {p: phases.get(p, {}).get("seconds", 0.0) for p in PHASE_NAMES}
    seconds["read"] += phases.get("read_phase", {}).get("seconds", 0.0)
    engine_steps = phases.get("controller", {}).get("count", 0)
    for p in PHASE_NAMES:
        out[f"core.engine.phase.{p}_ms"] = (
            seconds[p] / engine_steps * 1e3 if engine_steps else 0.0
        )
    out["core.engine.phase.attributed_frac"] = sum(seconds.values()) / profiled_wall
    trace_path = harness.OUT_DIR / f"trace-{cls.name}-seed{seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.export_jsonl(trace_path)
    detail = {
        "block_units": block, "rounds": rounds, "rates": rates,
        "engine_steps_profiled": engine_steps,
        "trace_jsonl": str(trace_path.relative_to(harness.REPO_ROOT)),
        "span_self_times": harness.self_times(records),
    }
    counts = {"attempted": max(1, attempted), "failed": failed,
              "traced_units": rounds * block}
    return out, detail, counts, params


def measure_per_layer(cls, seed: int, units: int, quick: bool):
    """Everything ``--trace 1`` reports, in ``PER_LAYER`` order."""
    own, detail, counts, params = workload_three_ways(cls, seed, units, quick)
    values = {**layer_suite(seed, QUICK_CALLS if quick else CALLS), **own}
    if set(values) != set(PER_LAYER):
        raise RuntimeError(
            f"per-layer metrics out of step: {sorted(set(values) ^ set(PER_LAYER))}"
        )
    ordered = {name: float(values[name]) for name in PER_LAYER}
    top = sorted(detail["span_self_times"].items(),
                 key=lambda kv: -kv[1]["self_s"])[:12]
    print(f"trace written to {detail['trace_jsonl']}; self time by span name:")
    for name, entry in top:
        print(f"  {name:44s} n={entry['count']:<7d} "
              f"self {entry['self_s'] * 1e3:10.2f} ms  "
              f"total {entry['total_s'] * 1e3:10.2f} ms")
    return ordered, detail, counts, params
