"""The five benchmark workloads.

Every workload is closed loop with a stated client count: the next
unit (engine workloads) or the next step of a session (serving
workloads) is issued only when the previous one has completed.  All
scheduling is tick- or count-based and derives from the run seed; the
program under test sees only generated inputs.  The model weights are
part of the workload definition and stay at ``MODEL_SEED``.

Unit counts are fixed per ``--seconds`` (``UNITS_PER_SECOND`` was
calibrated on the 2-vCPU reference box so one second of ``--seconds``
is about one second of timed window): fixed work, never a fixed time
window, so counts repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, List

import numpy as np

from repro.core import HiMAConfig
from repro.core.engine import TiledEngine
from repro.obs import PhaseTimer, Tracer
from repro.serve import ProcCluster, SessionServer

MODEL_SEED = 0
CHUNK_T, CHUNK_B = 8, 8
POOL = 64  # distinct input chunks / session-input rows cycled through
WARMUP_FRACTION = 0.05

#: The paper's DNC at a size whose per-tick hot state (B x N^2 x 8 B,
#: twice for ping-pong = 8 MiB) does not leave the cache hierarchy's
#: stable regime: N=512 B=8 swung 17 -> 22 ms/step with a neighbour
#: streaming memory, N=256 B=8 did not move.
MODEL = dict(
    memory_size=256, word_size=64, num_reads=4, num_tiles=16,
    hidden_size=256, dtype="float64",
)
#: Overhead-bound model for the process tier: ~0.6 ms of shard+engine in
#: a ~1.15 ms tick, so RPC framing and checkpoints are on the blocking
#: path.  (N=64 with 8 tiles, the first sizing, left the process tier
#: only 29 % of the tick, N=32 with 2 tiles 38-45 %; this one 47-48 %.)
SMALL_MODEL = dict(
    memory_size=16, word_size=16, num_reads=1, num_tiles=2,
    hidden_size=32, two_stage_sort=False, dtype="float64",
)

#: Methods wrapped with spans in the traced run of an engine workload
#: (the layer boundaries below ``engine.step``).
BACKEND_SPANS = (
    "write_scores", "read_scores", "stacked_write_scores",
    "stacked_read_scores", "argsort", "fused_erase_write_linkage",
    "fused_erase_write_linkage_inplace", "sparse_erase_write_linkage_inplace",
    "forward_backward", "read_weight_mix", "read_vectors",
    "sparse_forward_backward", "sparse_read_vectors",
)


class Spans:
    """Benchmark-side spans on a :class:`repro.obs.Tracer`.

    The tracer is the one the serving stack also writes to, so spans
    recorded here around layer calls and the spans the stack emits end
    up in one ring, with one trace id per unit or request.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stack: List[object] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self.stack[-1] if self.stack else None
        span = self.tracer.start(name, parent=parent, attrs=attrs)
        self.stack.append(span)
        try:
            yield span
        finally:
            self.stack.pop()
            self.tracer.end(span)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (on the instance) by a span-recording call."""
        fn = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(obj, attr, traced)


class Workload:
    """Common bookkeeping; subclasses implement ``_unit`` and ``verify``."""

    name = ""
    why = ""
    clients = 1
    units_per_second = 1.0
    segment_units = 1  # units per equal-work segment of the timed window
    #: True: the process (and so the worker it starts) is held on one CPU.
    one_cpu = False
    #: Every latency is read from this clock; the untraced run swaps in
    #: the host probe's, which stops while the probe runs.
    clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, units: int, tracer=None, profile=False):
        self.seed = seed
        self.units = units
        self.rng = np.random.default_rng(seed)
        self.spans = Spans(tracer) if tracer is not None else None
        self.profile = profile
        self.latencies: List[float] = []
        # Cumulative session-steps / latency samples after each unit.
        self.steps: List[int] = []
        self.samples: List[int] = []
        self.done = 0
        self.attempted = 0
        self.failed = 0

    @classmethod
    def units_for(cls, seconds: float) -> int:
        """Whole segments only, and at least two of them."""
        segments = round(cls.units_per_second * seconds / cls.segment_units)
        return cls.segment_units * max(2, segments)

    @classmethod
    def warmup_units(cls, units: int) -> int:
        return max(2, int(round(WARMUP_FRACTION * units)))

    def run_unit(self, i: int) -> None:
        if self.spans is None:
            self._unit(i)
        else:
            with self.spans.span("perf.unit", unit=i):
                self._unit(i)
        self.steps.append(self.done)
        self.samples.append(len(self.latencies))

    def begin_timed(self) -> None:
        """Warm-up is over: drop its samples and counts."""
        self.latencies.clear()
        self.steps.clear()
        self.samples.clear()
        self.done = self.attempted = self.failed = 0

    def worker_pids(self) -> List[int]:
        return []

    def counts(self) -> Dict[str, int]:
        return {"units": len(self.steps), "steps": self.done}

    def phase_stats(self) -> Dict[str, Dict[str, float]]:
        """The engine's cumulative ``PhaseTimer`` stats (profiled run)."""
        return self.engine.profiler.stats() if self.profile else {}

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared engine plumbing --------------------------------------
    def _make_engine(self, config: HiMAConfig) -> TiledEngine:
        engine = TiledEngine(config, rng=MODEL_SEED)
        if self.profile:
            engine.profiler = PhaseTimer()
        if self.spans is not None:
            self.spans.wrap(engine, "step", "engine.step")
            for method in BACKEND_SPANS:
                self.spans.wrap(engine.backend, method, f"backend.{method}")
            if engine.sorter is not None:
                self.spans.wrap(engine.sorter, "sort", "sorter.sort")
        return engine


class _Chunks(Workload):
    """``TiledEngine.run_batch`` on ``(T=8, B=8, 64)`` chunks, one client."""

    config: HiMAConfig

    def __init__(self, seed, units, tracer=None, profile=False):
        super().__init__(seed, units, tracer, profile)
        self.engine = self._make_engine(self.config)
        self.pool = self.rng.standard_normal(
            (POOL, CHUNK_T, CHUNK_B, self.config.word_size)
        )
        self.first = None  # (unit index, outputs) of the first timed unit

    def params(self):
        return {
            "config": dataclasses.asdict(self.config), "chunk": [CHUNK_T, CHUNK_B],
            "clients": self.clients, "units": self.units,
        }

    def begin_timed(self):
        super().begin_timed()
        self.first = None

    def _unit(self, i):
        t0 = self.clock()
        y = self.engine.run_batch(self.pool[i % POOL])
        self.latencies.append(self.clock() - t0)
        # The log is cumulative by contract; callers own the boundaries.
        self.engine.traffic.clear()
        self.done += CHUNK_T * CHUNK_B
        self.attempted += 1
        if self.first is None:
            self.first = (i, y)

    def corrupt_output(self):
        self.first[1][0, 0, 0] += 1e-3


class OfflineDNC(_Chunks):
    name = "offline_dnc"
    why = (
        "the paper's DNC on the tuned backend: the N^2 write and read "
        "kernels do most of the work, so kernel fusion/blocking shows here"
    )
    units_per_second = 29.0
    segment_units = 20
    config = HiMAConfig.hima_dnc(backend="tuned", **MODEL)

    def verify(self):
        i, y = self.first
        ref = self.engine.reference.run_batch(self.pool[i % POOL])
        err = float(np.max(np.abs(y - ref)))
        tol = TiledEngine.VERIFY_TOLERANCES[self.config.dtype]
        return err <= tol, f"max |engine - numpy_ref| = {err:.3e} (tol {tol:g})"


class OfflineDNCD(_Chunks):
    name = "offline_dncd"
    why = (
        "the paper's headline DNC-D with skimming and approximate softmax: "
        "stacked tile kernels and per-step allocation; a dense-kernel change "
        "must show nothing here"
    )
    units_per_second = 33.5
    segment_units = 20
    config = HiMAConfig.hima_dncd(
        skim_fraction=0.2, approx_softmax=True, backend="reference", **MODEL
    )

    def verify(self):
        # numpy_ref has no DNC-D oracle (the monolithic reference is a
        # different model), so the bar is the repo's batched-vs-solo one:
        # every sequence of the chunk re-run alone through engine.run.
        # Usage skimming picks its unsorted pool with argpartition, which
        # is discontinuous at near-ties, so batched and solo rounding can
        # pick different nearly-free slots (measured 2e-6..9e-6 on these
        # shapes); the solo bar is 1e-4 and a replay of the same batched
        # call on a fresh engine must agree bitwise.
        i, y = self.first
        x = self.pool[i % POOL]
        solo = TiledEngine(self.config, rng=MODEL_SEED)
        err = max(
            float(np.max(np.abs(y[:, b] - solo.run(x[:, b]))))
            for b in range(CHUNK_B)
        )
        replayed = np.array_equal(solo.run_batch(x), y)
        return err <= 1e-4 and replayed, (
            f"max |batched - solo| = {err:.3e} (tol 1e-4), fresh-engine "
            f"replay bitwise {'equal' if replayed else 'DIFFERENT'}"
        )


class ResidentSparse(Workload):
    """Masked in-place ``engine.step`` on a resident 2-slot sparse state."""

    name = "resident_sparse"
    why = (
        "top-K sparse access at N=1024 stepped in place on a resident state: "
        "the O(K*N) path and the masked in-place step form; dense kernels idle"
    )
    units_per_second = 32.0
    segment_units = 20
    slots = 2
    #: 4, not the 8 of the chunk workloads: N=1024 ticks are slow, and 8-tick
    #: units left 240 latency samples in a 15 s window (300 are required).
    ticks_per_unit = 4
    config = HiMAConfig(
        access_policy="sparse", access_top_k=64, backend="reference",
        **{**MODEL, "memory_size": 1024},
    )

    def __init__(self, seed, units, tracer=None, profile=False):
        super().__init__(seed, units, tracer, profile)
        self.engine = self._make_engine(self.config)
        self.state = self.engine.initial_state(batch_size=self.slots)
        self.active = np.arange(self.slots)
        self.pool = self.rng.standard_normal(
            (POOL * self.ticks_per_unit, self.slots, self.config.word_size)
        )
        self.snapshot = None
        self.first = None

    def params(self):
        return {
            "config": dataclasses.asdict(self.config), "slots": self.slots,
            "ticks_per_unit": self.ticks_per_unit, "clients": self.clients,
            "units": self.units,
        }

    def begin_timed(self):
        super().begin_timed()
        self.snapshot = self.state.copy()
        self.first = None

    def _inputs(self, i):
        base = (i % POOL) * self.ticks_per_unit
        return self.pool[base:base + self.ticks_per_unit]

    def _unit(self, i):
        xs = self._inputs(i)
        ys = []
        t0 = self.clock()
        for x in xs:
            y, _ = self.engine.step(x, self.state, active=self.active)
            ys.append(y)
        self.latencies.append(self.clock() - t0)
        self.engine.traffic.clear()
        self.done += self.ticks_per_unit * self.slots
        self.attempted += 1
        if self.first is None:
            self.first = (i, ys)

    def corrupt_output(self):
        self.first[1][0][0, 0] += 1e-3

    def verify(self):
        # Two bars, as for offline_dncd.  Top-K selection is discontinuous
        # at near-ties: batched and solo rounding can keep a different K-th
        # row, which costs about that row's weight (1e-15 typical, 1.3e-10
        # and 2.5e-8 measured at flips), so the solo bar is 1e-4; and the
        # same masked in-place ticks replayed on a fresh engine from the
        # snapshot must agree bitwise.
        i, ys = self.first
        xs = self._inputs(i)
        solo = TiledEngine(self.config, rng=MODEL_SEED)
        err = 0.0
        for slot, state in enumerate(self.snapshot.unstack()):
            for x, y in zip(xs, ys):
                y_solo, state = solo.step(x[slot], state)
                err = max(err, float(np.max(np.abs(y[slot] - y_solo))))
        replay = all(
            np.array_equal(solo.step(x, self.snapshot, active=self.active)[0], y)
            for x, y in zip(xs, ys)
        )
        return err <= 1e-4 and replay, (
            f"max |resident - solo| = {err:.3e} (tol 1e-4), fresh-engine "
            f"replay bitwise {'equal' if replay else 'DIFFERENT'}"
        )


class _Session:
    """One live scripted session of the serving driver."""

    __slots__ = ("sid", "length", "offset", "step", "request", "t_submit",
                 "span", "kept")

    def __init__(self, sid: str, length: int, offset: int):
        self.sid, self.length, self.offset = sid, length, offset
        self.step = 0
        self.request = None  # the one outstanding StepRequest, if any
        self.t_submit = 0.0
        self.span = None  # its perf.request span in the traced run
        self.kept = None  # outputs, when sampled for verification


class _Serving(Workload):
    """Tick-scripted closed-loop driver over the common serving surface.

    One unit is one scheduler tick.  The live-session count follows a
    fixed wave (rise, plateau, fall — the same occupancy sweep for every
    seed): sessions leave when their scripted length is reached or, on
    the falling edge, when the wave says so (longest-running first, and
    only with no step outstanding, so no request is ever failed by a
    close); new sessions open until the count reaches the tick's target;
    every live session without an outstanding step submits its next one;
    the server ticks once.  A request's latency runs from its ``submit``
    call to the return of the ``run_tick`` that completed it.  Tenants
    are Zipf over 8, scripted session lengths geometric with mean 40.
    """

    config: HiMAConfig
    session_capacity = 16
    max_batch = 16
    wave = (6, 16, 20)  # low, high, ticks per ramp and per plateau
    tenants = 8
    zipf_exponent = 1.2
    mean_session_len = 40.0
    sample_stride = 8
    sample_max = 8

    def __init__(self, seed, units, tracer=None, profile=False):
        super().__init__(seed, units, tracer, profile)
        self.tracer = tracer
        count = units + self.warmup_units(units) + self.session_capacity
        weights = np.arange(1, self.tenants + 1, dtype=float) ** -self.zipf_exponent
        tenant = self.rng.choice(self.tenants, size=count, p=weights / weights.sum())
        self.sids = [f"t{t:02d}-s{k}" for k, t in enumerate(tenant)]
        self.lengths = 1 + self.rng.geometric(
            1.0 / (self.mean_session_len - 1.0), size=count
        )
        self.offsets = self.rng.integers(0, POOL * 8, size=count)
        self.pool = self.rng.standard_normal((POOL * 8, self.config.word_size))
        self.live: Dict[str, _Session] = {}  # insertion order = age
        self.next_session = 0
        self.sampled: List[_Session] = []
        self.sampling = False
        self.ticks = 0
        self.opened = 0
        self.server = self._make_server()

    def _make_server(self):
        raise NotImplementedError

    def params(self):
        return {
            "config": dataclasses.asdict(self.config),
            "session_capacity": self.session_capacity,
            "max_batch": self.max_batch, "max_wait_ticks": 1,
            "live_wave": list(self.wave), "tenants": self.tenants,
            "zipf_exponent": self.zipf_exponent,
            "mean_session_len": self.mean_session_len,
            "clients": f"{self.wave[0]}-{self.wave[1]} sessions, one "
                       "outstanding step each",
            "units": self.units,
        }

    def begin_timed(self):
        super().begin_timed()
        self.sampling = True
        self.ticks = self.opened = 0

    def counts(self):
        out = super().counts()
        out.update(ticks=self.ticks, sessions_opened=self.opened,
                   requests=self.attempted - self.opened)
        return out

    def target_live(self, tick: int) -> int:
        low, high, ramp = self.wave
        phase = tick % (3 * ramp)
        if phase < ramp:  # rise
            return low + (high - low) * phase // ramp
        if phase < 2 * ramp:  # plateau
            return high
        return high - (high - low) * (phase - 2 * ramp) // ramp

    def _open(self) -> None:
        k = self.next_session
        self.next_session += 1
        self.attempted += 1
        self.opened += 1
        if self.server.open_session(self.sids[k]) is None:
            self.failed += 1
            return
        s = _Session(self.sids[k], int(self.lengths[k]), int(self.offsets[k]))
        if (self.sampling and k % self.sample_stride == 0
                and len(self.sampled) < self.sample_max):
            s.kept = []
            self.sampled.append(s)
        self.live[s.sid] = s

    def _submit(self, s: _Session) -> None:
        x = self.pool[(s.offset + s.step) % len(self.pool)]
        self.attempted += 1
        if self.spans is None:
            s.t_submit = self.clock()
            s.request = self.server.submit(s.sid, x)
        else:
            # One trace per request: the root span's context rides the
            # public ``trace=`` parameter, so the stack's own spans
            # (router/shard submit, dispatch) hang under it.
            s.span = self.tracer.start("perf.request", attrs={"session": s.sid})
            s.t_submit = s.span.t_start
            s.request = self.server.submit(s.sid, x, trace=s.span.context)
        if s.request is None:
            self.failed += 1

    def _leave(self, s: _Session) -> None:
        self.server.close_session(s.sid)
        del self.live[s.sid]

    def _unit(self, i):
        while len(self.live) < self.target_live(i):
            self._open()
        for s in self.live.values():
            if s.request is None:
                self._submit(s)
        self.server.run_tick()
        now = self.clock()
        self.ticks += 1
        for s in list(self.live.values()):
            request = s.request
            if request is None or not request.done:
                continue
            s.request = None
            if s.span is not None:
                self.tracer.end(s.span)
            if request.error is not None:
                self.failed += 1
            else:
                self.latencies.append(now - s.t_submit)
                self.done += 1
                if s.kept is not None:
                    s.kept.append(request.y)
            s.step += 1
            if s.step == s.length:
                self._leave(s)
        excess = len(self.live) - self.target_live(i + 1)
        if excess > 0:
            idle = [s for s in self.live.values() if s.request is None]
            for s in idle[:excess]:
                self._leave(s)

    def verify(self):
        if len(self.sampled) < 4:
            return False, f"only {len(self.sampled)} sessions sampled (need 4)"
        solo = TiledEngine(self.config, rng=MODEL_SEED)
        err, steps = 0.0, 0
        for s in self.sampled:
            state = solo.initial_state()
            for j, y in enumerate(s.kept):
                x = self.pool[(s.offset + j) % len(self.pool)]
                y_solo, state = solo.step(x, state)
                err = max(err, float(np.max(np.abs(y - y_solo))))
            steps += len(s.kept)
        return err <= 1e-10, (
            f"max |served - solo| = {err:.3e} over {len(self.sampled)} "
            f"sessions / {steps} steps (tol 1e-10)"
        )

    def corrupt_output(self):
        self.sampled[0].kept[0][0] += 1e-3

    def close(self):
        self.server.close()


class ServeInproc(_Serving):
    name = "serve_inproc"
    why = (
        "the session server in process: occupancy sweeps 0.4-1.0 so all three "
        "masked step forms, arena bind/release churn and batcher waits run "
        "with no RPC"
    )
    units_per_second = 155.0
    segment_units = 60  # one period of the occupancy wave
    config = HiMAConfig.hima_dnc(backend="reference", **MODEL)

    def _make_server(self):
        self.engine = TiledEngine(
            self.config, rng=MODEL_SEED, traffic_max_events=4096
        )
        return SessionServer(
            self.engine, max_batch=self.max_batch, max_wait_ticks=1,
            session_capacity=self.session_capacity, tracer=self.tracer,
            profiler=PhaseTimer() if self.profile else None,
        )


class ServeProcs(_Serving):
    name = "serve_procs"
    why = (
        "one worker process behind ProcCluster with a cheap engine: admission "
        "mirror, pickle frames, the worker shard and a checkpoint round every "
        "8th tick are on the blocking path"
    )
    units_per_second = 690.0
    segment_units = 120  # one period of the occupancy wave
    #: Parent and worker take turns (every RPC blocks), so one CPU loses
    #: nothing (measured 11 430 steps/s on one CPU, 10 730 on two), and on
    #: two each hand-over wakes a halted vCPU through the hypervisor, whose
    #: latency follows the host's load: in the same six minutes unpinned
    #: windows read 8 000-10 660 steps/s and pinned ones 11 080-12 050.
    one_cpu = True
    session_capacity = 32
    wave = (25, 31, 40)
    config = HiMAConfig(backend="reference", **SMALL_MODEL)

    def _make_server(self):
        return ProcCluster(
            self.config, seed=MODEL_SEED, num_workers=1,
            checkpoint_interval=8, session_capacity=self.session_capacity,
            max_batch=self.max_batch, max_wait_ticks=1, tracer=self.tracer,
            profile=self.profile,
        )

    def params(self):
        return {**super().params(), "num_workers": 1, "checkpoint_interval": 8,
                "one_cpu": self.one_cpu}

    def worker_pids(self):
        return [worker.pid for worker in self.server.workers]

    def phase_stats(self):
        return self.server.cluster_profile()


WORKLOADS = {
    cls.name: cls
    for cls in (OfflineDNC, OfflineDNCD, ResidentSparse, ServeInproc, ServeProcs)
}
