"""Functional tiled execution engine with traffic accounting.

:class:`TiledEngine` executes one DNC timestep *the way HiMA does*: every
kernel operates on per-tile shards (row-wise external/state memories,
submatrix-wise linkage), inter-tile data movement is performed explicitly
and logged to a :class:`TrafficLog`, and the numerical result is — by
construction and by test — identical to the monolithic reference DNC
(:class:`repro.dnc.numpy_ref.NumpyDNC`).

In distributed (DNC-D) mode every tile runs the complete soft write/read
on its local shard only; the engine verifies the *no inter-PT traffic*
property that gives DNC-D its near-ideal scaling (paper Section 5.1).
DNC-D is the DNC with ``Nt`` memory blocks instead of one, so both run
one step body: the access policy views the state over a block axis
(:meth:`repro.core.access.AccessPolicy.to_blocks`) and every kernel runs
once over all tiles, as a stacked einsum/matmul
(:mod:`repro.core.kernels`).

Batching: every step path accepts a leading batch dimension.
:meth:`TiledEngine.run_batch` advances ``B`` sequences in lock-step
through the same sharded kernels, which is the engine's throughput path —
one stacked matmul per kernel instead of ``B`` small ones.  Traffic
accounting stays structurally identical under batching: the *message*
pattern (event count, endpoints) does not change, while each event's word
count scales by ``B``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.access import make_access_policy
from repro.core.backend import make_backend
from repro.core.config import HiMAConfig
from repro.core.mapping import MemoryMap, TrafficTemplate
from repro.dnc import numpy_ref as K  # the shared numpy kernels
from repro.dnc.approx import SoftmaxApproximator, skimmed_sort_order
from repro.dnc.dncd_ref import dncd_run
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig
from repro.dnc.state import NumpyDNCState
from repro.errors import ConfigError, SimulationError
from repro.hw.sorters import TwoStageSorter
from repro.noc.packet import Message
from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class TrafficEvent:
    """One logged inter-tile transfer (words of 32-bit data)."""

    kernel: str
    src: int
    dst: int
    words: int


class TrafficLog:
    """Accumulates the inter-tile traffic of one or more steps.

    A step's messages are fixed by the partition and the dataflow (a
    :class:`~repro.core.mapping.TrafficTemplate`); only their word
    counts scale, by the number of slots stepped.  So a tick is recorded
    as ``(template, scale)`` in O(1) (:meth:`record`), and
    :meth:`add` is the one-message case of the same record.  The word
    aggregates are template totals times summed scales; :attr:`events`
    and :meth:`messages` expand the recorded ticks into
    :class:`TrafficEvent` / :class:`~repro.noc.packet.Message` objects
    only when read — one event per message, in record order.

    The log is cumulative by design: every :meth:`TiledEngine.step`,
    :meth:`TiledEngine.run`, and :meth:`TiledEngine.run_batch` call
    records its traffic and nothing ever clears it implicitly.  Callers
    that want per-run or per-phase traffic (benchmark harnesses, the perf
    model) must call :meth:`clear` at their phase boundaries.

    **Ring-buffer compaction** (``max_events``): long-running services
    that never hit a phase boundary (the :mod:`repro.serve` session
    server) can bound the log's memory.  With ``max_events=M`` the log
    retains at most ``M`` recent events: whenever an appended event
    would exceed that, the oldest events fold into the aggregates until
    ``M // 2`` remain.  The window is *computed* from the event count —
    events are never materialized to be folded — and memory stays O(M).
    The contract:

    * :meth:`total_words`, :meth:`words_by_kernel`, and
      :meth:`inter_pt_words` remain **exact** over everything ever
      logged — compaction moves words into aggregates, never drops them.
    * :attr:`events` and :meth:`messages` cover only the retained window
      (at least the most recent ``M // 2`` events).  Message ids stay
      globally stable across compactions: an event keeps the id it was
      assigned at append time (``dropped_events`` + window position).
    * :meth:`clear` resets the retained window *and* the aggregates.
    """

    def __init__(self, ct_node: int, max_events: Optional[int] = None):
        if max_events is not None and max_events < 2:
            raise ConfigError(
                f"max_events must be >= 2 (or None for unbounded), got {max_events}"
            )
        self.ct_node = ct_node
        self.max_events = max_events
        self._single: Dict[Tuple[str, int, int], TrafficTemplate] = {}
        self.clear()

    def record(self, template: TrafficTemplate, scale: int) -> None:
        """Log ``template``'s messages once, each word count times ``scale``."""
        scale = int(scale)
        if scale <= 0 or not template.size:
            return
        self._ticks.append((self._count, template, scale))
        self._count += template.size
        self._scales[template] = self._scales.get(template, 0) + scale
        self._events = None
        if self.max_events is not None:
            start = self.dropped_events
            while self._ticks[0][0] + self._ticks[0][1].size <= start:
                self._ticks.popleft()

    def add(self, kernel: str, src: int, dst: int, words: int) -> None:
        """Log one message (dropped when ``src == dst`` or ``words <= 0``)."""
        if words <= 0 or src == dst:
            return
        template = self._single.get((kernel, src, dst))
        if template is None:
            template = self._single[kernel, src, dst] = TrafficTemplate(
                [(kernel, src, dst, 1)], self.ct_node
            )
        self.record(template, words)

    @property
    def dropped_events(self) -> int:
        """Events folded into aggregates and no longer retained."""
        count, cap = self._count, self.max_events
        if cap is None or count <= cap:
            return 0
        # Each fold leaves cap // 2 events; the next comes once the
        # window is back above cap, i.e. every cap + 1 - cap // 2 events.
        half = cap // 2
        return count - half - (count - cap - 1) % (cap + 1 - half)

    @property
    def events(self) -> List[TrafficEvent]:
        """The retained window as events (cached until the next record)."""
        if self._events is None:
            start = self.dropped_events
            self._events = [
                TrafficEvent(kernel, src, dst, words * scale)
                for first, template, scale in self._ticks
                for kernel, src, dst, words
                in template.rows[max(0, start - first):]
            ]
        return self._events

    # ------------------------------------------------------------------
    def total_words(self) -> int:
        return sum(t.total_words * s for t, s in self._scales.items())

    def words_by_kernel(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for template, scale in self._scales.items():
            for kernel, words in template.words_by_kernel.items():
                totals[kernel] = totals.get(kernel, 0) + words * scale
        return totals

    def inter_pt_words(self) -> int:
        """Words exchanged directly between PTs (excludes CT traffic)."""
        return sum(t.inter_pt_words * s for t, s in self._scales.items())

    def words_by_pair(self) -> Dict[Tuple[int, int], int]:
        """Words per ``(src, dst)`` node pair over everything logged."""
        totals: Dict[Tuple[int, int], int] = {}
        for template, scale in self._scales.items():
            for pair, words in template.words_by_pair.items():
                totals[pair] = totals.get(pair, 0) + words * scale
        return totals

    def messages(
        self, link_words_per_cycle: int, kernel: Optional[str] = None
    ) -> List[Message]:
        """Convert retained events to NoC messages (flit size = link width).

        Message ids are the event's append-time index (compacted events
        never reappear, so ids stay globally stable), and an event keeps
        the same id whether or not a ``kernel`` filter is applied —
        per-kernel message sets from one log never alias ids.
        """
        first = self.dropped_events
        return [
            Message(
                first + idx, e.src, e.dst,
                size=max(1, -(-e.words // link_words_per_cycle)),
            )
            for idx, e in enumerate(self.events)
            if kernel is None or e.kernel == kernel
        ]

    def clear(self) -> None:
        """Drop all events and aggregates (callers own phase boundaries)."""
        #: ``(index of first event, template, scale)`` per recorded tick
        #: that still reaches into the retained window.
        self._ticks: Deque[Tuple[int, TrafficTemplate, int]] = deque()
        #: Summed scale per template, in first-record order.
        self._scales: Dict[TrafficTemplate, int] = {}
        self._count = 0
        self._events: Optional[List[TrafficEvent]] = None


class TiledEngine:
    """Sharded, traffic-accounted DNC execution over HiMA's tiles."""

    def __init__(
        self,
        config: HiMAConfig,
        rng: SeedLike = 0,
        traffic_max_events: Optional[int] = None,
    ):
        self.config = config
        self.memory_map = MemoryMap(config)
        # ``traffic_max_events`` bounds the log for long-running services
        # (see TrafficLog's compaction contract); None keeps the full
        # event list, which every per-run analysis relies on.
        self.traffic = TrafficLog(
            ct_node=config.num_tiles, max_events=traffic_max_events
        )
        ref_config = NumpyDNCConfig(
            input_size=config.word_size,
            output_size=config.word_size,
            memory_size=config.memory_size,
            word_size=config.word_size,
            num_reads=config.num_reads,
            hidden_size=config.hidden_size,
            skim_fraction=config.skim_fraction,
            softmax_approx=(
                SoftmaxApproximator() if config.approx_softmax else None
            ),
            dtype=config.dtype,
        )
        #: Weight container + monolithic reference semantics.
        self.reference = NumpyDNC(ref_config, rng=rng)
        #: The configured softmax (exact, or the approximate unit).
        self._softmax = self.reference._softmax
        #: Every step's inter-tile messages, fixed by the config and the
        #: memory map: a step records it once, scaled by its slot count.
        self._traffic_template = self.memory_map.step_traffic(
            ref_config.interface_size
        )
        if config.two_stage_sort and not config.distributed:
            self.sorter = TwoStageSorter(config.memory_size, config.num_tiles)
        else:
            self.sorter = None
        #: The memory-access policy owning the five N-scaling phases of
        #: the step (see :mod:`repro.core.access`): dense is the paper's
        #: verbatim path, sparse is top-K addressing at O(K·N)/step.
        self.access = make_access_policy(config)
        #: The kernel backend owning the hot path (fused write phase,
        #: content scores, batched argsort); per-engine instance — tuned
        #: backends hold scratch that must not be shared across the
        #: sharded serving stack's threads (see :mod:`repro.core.backend`).
        self.backend = make_backend(config)
        # The write phase lands in one of two places.  Plain steps
        # return fresh caller-owned arrays; the masked step (run_batch
        # included) sets ``_fused_active`` and the fused write phase then
        # advances only these slots of the resident state, in place
        # (kernels.fused_erase_write_linkage_inplace; its temporaries
        # live in the backend's scratch), with traffic words scaled by
        # the active count instead of the resident batch size.
        self._fused_active: Optional[np.ndarray] = None
        #: Occupancy from which a masked step runs in place.
        self._masked_in_place_from = config.masked_dense_min_occupancy

    # ------------------------------------------------------------------
    def initial_state(self, batch_size: Optional[int] = None) -> NumpyDNCState:
        return self.reference.initial_state(batch_size=batch_size)

    #: Bytes of state gathered + scattered by the most recent masked
    #: :meth:`step` call (0 on the dense all-slots fast path and for
    #: unmasked steps); the serving layer's copy-traffic metrics read it.
    last_state_bytes_copied: int = 0

    #: Optional :class:`repro.obs.profiler.PhaseTimer` (duck-typed — the
    #: core never imports ``repro.obs``).  ``None`` by default: the step
    #: loop's hooks then cost one attribute load and ``None`` check per
    #: phase.  Servers enabling per-phase profiling attach a timer here;
    #: each tick is attributed to named phases (content addressing,
    #: sort/allocation, erase+write+linkage, read, gather/scatter, ...)
    #: with counts, cumulative seconds, and estimated bytes touched
    #: (:meth:`repro.core.access.AccessPolicy.bytes_touched`).
    profiler = None

    def step(
        self,
        x: np.ndarray,
        state: NumpyDNCState,
        active: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, NumpyDNCState]:
        """One sharded timestep; logs traffic into :attr:`self.traffic`.

        ``x`` is ``(input_size,)`` or batched ``(B, input_size)`` with a
        matching batched ``state``.  Inputs are cast to the configured
        dtype policy.  The step's traffic is recorded into :attr:`traffic`
        cumulatively — see :class:`TrafficLog` for the clearing contract.

        **Masked in-place form** (``active`` given): ``state`` must be
        batched, and ``active`` selects which batch slots advance — an
        integer index array (order-preserving: compact row ``k`` is slot
        ``active[k]``) or a boolean mask of length ``B``.  The state is
        updated *in place*: active slots advance one step, inactive
        slots are bitwise untouched, and the returned state is the same
        object.  The returned ``y`` is ``(B, output_size)`` with
        inactive rows zero.  Under sparse access, and from
        :data:`repro.core.kernels.MIN_BLOCKED_N` memory rows under dense
        access (DNC and DNC-D: one step body), every masked step is the
        in-place form: the cheap per-row kernels run over the whole resident
        batch and the O(N^2) write phase advances the active slots where
        they live, so the N^2 fields never move and only the small
        per-row fields of the active slots are scattered back — and when
        ``active`` covers every slot (any order — it is then a
        permutation, and the per-row kernels make batch order
        irrelevant) those are rebound instead, **zero** copies.  Below
        ``MIN_BLOCKED_N`` rows a partial tick takes the compact form
        instead: the active rows are gathered, stepped out of place and
        scattered back with one vectorized fancy index per field.
        ``config.masked_dense_min_occupancy`` states this rule
        (:attr:`last_state_bytes_copied` records the cost either way).
        Traffic words scale by the number of *active* slots.
        """
        x = np.asarray(x, dtype=self.config.np_dtype)
        self.last_state_bytes_copied = 0
        if active is not None:
            return self._step_masked(x, state, active)
        return self._step_plain(x, state)

    def _step_masked(
        self, x: np.ndarray, state: NumpyDNCState, active: np.ndarray
    ) -> Tuple[np.ndarray, NumpyDNCState]:
        b = state.batch_size
        if b is None:
            raise ConfigError("step(active=...) requires a batched state")
        if x.ndim != 2 or x.shape[0] != b:
            raise ConfigError(
                f"masked step expects x of shape ({b}, input_size), "
                f"got {x.shape}"
            )
        idx = np.asarray(active)
        if idx.dtype == np.bool_:
            if idx.shape != (b,):
                raise ConfigError(
                    f"boolean active mask must have shape ({b},), "
                    f"got {idx.shape}"
                )
            idx = np.flatnonzero(idx)
        else:
            idx = idx.astype(np.intp, copy=False).reshape(-1)
            if idx.size and (idx.min() < 0 or idx.max() >= b):
                raise ConfigError(
                    f"active slot indices must lie in [0, {b}), got {idx}"
                )
            if np.unique(idx).size != idx.size:
                raise ConfigError(
                    f"active slot indices must be unique, got {idx}"
                )
        out_size = self.reference.config.output_size
        if idx.size == 0:
            return np.zeros((b, out_size), dtype=self.config.np_dtype), state
        if idx.size >= self._masked_in_place_from * b:
            return self._step_masked_dense(x, state, idx)
        # Compact form (partial dense ticks below MIN_BLOCKED_N rows):
        # gather the active rows, step them out of place, scatter back.
        prof = self.profiler
        if prof is not None:
            tg = prof.now()
        sub = state.take_rows(idx)
        if prof is not None:
            prof.lap("gather_scatter", tg, sub.nbytes)
        y_sub, new_sub = self._step_plain(x[idx], sub)
        if prof is not None:
            tg = prof.now()
        state.write_rows(idx, new_sub)
        if prof is not None:
            prof.lap("gather_scatter", tg, new_sub.nbytes)
        self.last_state_bytes_copied = sub.nbytes + new_sub.nbytes
        y = np.zeros((b, out_size), dtype=self.config.np_dtype)
        y[idx] = y_sub
        return y, state

    def _step_masked_dense(
        self, x: np.ndarray, state: NumpyDNCState, idx: np.ndarray
    ) -> Tuple[np.ndarray, NumpyDNCState]:
        """Masked step over the full resident batch, write phase in place.

        The whole capacity-``B`` batch steps with zero gathers: the
        O(N^2) write phase advances the active slots *in place* (DNC-D
        through its block views), the read kernels from
        :data:`repro.core.kernels.MIN_BLOCKED_N` rows per block contract
        only the active slots, and only the small per-row state fields
        are scattered back — or, at full occupancy, rebound (nothing is
        copied).  Inactive slots stay bitwise untouched, inactive ``y``
        rows are zero, and traffic words scale by the active count — the
        compact form's contract, at :attr:`last_state_bytes_copied` cost
        of one write per active row of the non-resident fields.
        :meth:`run_batch` is this step with every slot active.
        """
        b = state.batch_size
        full = idx.size == b
        self._fused_active = idx
        try:
            y, new_state = self._step_plain(x, state)
        finally:
            self._fused_active = None
        prof = self.profiler
        if prof is not None:
            tg = prof.now()
        copied = 0
        for name in NumpyDNCState.FIELDS:
            new = getattr(new_state, name)
            cur = getattr(state, name)
            if new is cur:
                continue  # the masked fused write phase updated it in place
            if full:
                setattr(state, name, new)
                continue
            cur[idx] = new[idx]
            copied += idx.size * cur[0].nbytes
        self.last_state_bytes_copied = copied
        if prof is not None:
            prof.lap("gather_scatter", tg, copied)
        if not full:
            mask = np.zeros(b, dtype=bool)
            mask[idx] = True
            y[~mask] = 0.0
        return y, state

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run a ``(T, input_size)`` sequence; returns ``(T, output_size)``.

        Traffic events for all ``T`` steps accumulate into
        :attr:`traffic`; the log is never cleared implicitly, so callers
        comparing runs must ``engine.traffic.clear()`` between them.
        """
        state = self.initial_state()
        outputs = np.empty(
            (inputs.shape[0], self.reference.config.output_size),
            dtype=self.config.np_dtype,
        )
        for t in range(inputs.shape[0]):
            outputs[t], state = self.step(inputs[t], state)
        return outputs

    def run_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Run ``(T, B, input_size)`` sequences; returns ``(T, B, output_size)``.

        All ``B`` sequences advance in lock-step through the sharded
        kernels.  Per-event traffic words scale by ``B`` while the message
        pattern stays that of a single step; like :meth:`run`, events
        accumulate into :attr:`traffic` until the caller clears them.
        """
        if inputs.ndim != 3 or inputs.shape[1] < 1:
            raise ConfigError(
                f"run_batch expects (T, B>=1, input_size) inputs, got {inputs.shape}"
            )
        steps, batch = inputs.shape[0], inputs.shape[1]
        state = self.initial_state(batch_size=batch)
        outputs = np.empty(
            (steps, batch, self.reference.config.output_size),
            dtype=self.config.np_dtype,
        )
        # The state is engine-private here, so it is resident: every
        # step is the masked in-place step with all slots active and no
        # O(N^2) output is allocated after the first.  Values are
        # bitwise those of plain steps — only the destination differs.
        # Public step() callers keep fresh outputs: they may retain
        # states arbitrarily (checkpoints, arenas).
        everyone = np.arange(batch)
        for t in range(steps):
            outputs[t], _ = self.step(inputs[t], state, active=everyone)
        return outputs

    # ------------------------------------------------------------------
    # The step body: DNC and DNC-D over the access policy's blocks
    # ------------------------------------------------------------------
    def _step_plain(
        self, x: np.ndarray, state: NumpyDNCState
    ) -> Tuple[np.ndarray, NumpyDNCState]:
        """The one step body of every step form; logs the step's traffic.

        Out of place it returns fresh arrays.  Under the masked in-place
        step (``self._fused_active`` set) the write phase advances
        ``state.memory`` / ``linkage`` / ``precedence`` where they live
        and the new state carries those arrays themselves.
        """
        # Slots advanced — the traffic and bytes multiplier: the active
        # count under the masked in-place step, else the lead batch.
        active = self._fused_active
        b = math.prod(x.shape[:-1]) if active is None else int(active.size)
        access = self.access
        # Per-phase profiling seam: off (None) by default, near-zero when
        # on — each enabled phase costs one perf_counter call and a dict
        # update, attributed via the access policy's bytes model.
        prof = self.profiler
        if prof is not None:
            tp = prof.now()

        # --- Controller at CT; interface vectors broadcast to PTs. -------
        lstm_h, lstm_c, interface = self._controller(x, state)
        if prof is not None:
            tp = prof.lap("controller", tp, access.bytes_touched("controller", self, b))

        # Each kernel runs once over all rows (the per-tile dataflow is
        # the step's traffic template).  DNC-D is the DNC over Nt memory
        # blocks: ``to_blocks`` views its state as (..., Nt, n[, ...])
        # tile stacks, and leaves the DNC's (one block) as it is.  The
        # phases whose cost scales with N belong to the access policy;
        # the exact O(N) elementwise ones (retention, usage, weight
        # merges) stay here.
        local, interface = access.to_blocks(state, interface)

        # --- Content-based write weighting (normalize + similarity). -----
        content_w = access.write_content(self, local, interface)
        if prof is not None:
            tp = prof.lap(
                "content_addressing", tp,
                access.bytes_touched("content_addressing", self, b),
            )

        # --- History-based write weighting (fully row-local). -------------
        psi = K.retention(interface.free_gates, local.read_w)
        usage = K.usage_update(local.usage, local.write_w, psi)

        alloc = access.allocation(self, usage)

        write_w = K.write_weight_merge(
            content_w, alloc, interface.write_gate, interface.allocation_gate
        )
        if prof is not None:
            tp = prof.lap(
                "sort_allocation", tp,
                access.bytes_touched("sort_allocation", self, b),
            )

        # --- Write phase: erase+write, linkage, precedence. ---------------
        memory, linkage, precedence = access.write_phase(
            self, local, write_w, interface
        )
        if prof is not None:
            tp = prof.lap(
                "erase_write_linkage", tp,
                access.bytes_touched("erase_write_linkage", self, b),
            )

        # --- Content-based read weighting on the updated memory. ----------
        content_r = access.read_content(self, memory, interface)
        if prof is not None:
            tp = prof.lap(
                "content_addressing", tp,
                access.bytes_touched("content_addressing", self, b),
            )

        # --- Forward-backward over the linkage blocks. ---------------------
        fwd, bwd = access.forward_backward(self, linkage, local.read_w)

        read_w = access.read_weights(
            self, content_r, fwd, bwd, interface.read_modes
        )

        # --- Memory read: local partials + psum reduction at the CT. ------
        read_vecs = access.read_vectors(self, memory, read_w)
        if prof is not None:
            tp = prof.lap("read", tp, access.bytes_touched("read", self, b))

        y = self._output(lstm_h, read_vecs)
        new_state = access.from_blocks(self, state, NumpyDNCState(
            memory=memory, usage=usage, precedence=precedence, linkage=linkage,
            write_w=write_w, read_w=read_w, read_vecs=read_vecs,
            lstm_h=lstm_h, lstm_c=lstm_c,
        ))
        if prof is not None:
            prof.lap("output", tp, access.bytes_touched("output", self, b))
        self.traffic.record(self._traffic_template, b)
        return y, new_state

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _usage_sort(self, usage: np.ndarray) -> np.ndarray:
        """The allocation order of ``usage`` ``(..., n)`` along its last
        axis; every sorter here is batch-vectorized (no Python row loop)."""
        cfg = self.config
        if cfg.skim_fraction > 0.0:
            return skimmed_sort_order(usage, cfg.skim_fraction)
        if self.sorter is not None:
            return self.sorter.sort(usage)[1]
        return self.backend.argsort(usage)

    def _controller(self, x: np.ndarray, state: NumpyDNCState):
        ref = self.reference
        h = ref.config.hidden_size
        controller_in = np.concatenate(
            [x, state.read_vecs.reshape(x.shape[:-1] + (-1,))], axis=-1
        )
        gates = controller_in @ ref.w_x + state.lstm_h @ ref.w_h + ref.b
        i_g = K._sigmoid(gates[..., 0 * h : 1 * h])
        f_g = K._sigmoid(gates[..., 1 * h : 2 * h])
        g_g = np.tanh(gates[..., 2 * h : 3 * h])
        o_g = K._sigmoid(gates[..., 3 * h : 4 * h])
        lstm_c = f_g * state.lstm_c + i_g * g_g
        lstm_h = o_g * np.tanh(lstm_c)
        flat = lstm_h @ ref.w_if + ref.b_if
        interface = K.parse_interface(
            flat, ref.config.word_size, ref.config.num_reads
        )
        return lstm_h, lstm_c, interface

    def _output(self, lstm_h: np.ndarray, read_vecs: np.ndarray) -> np.ndarray:
        ref = self.reference
        output_in = np.concatenate(
            [lstm_h, read_vecs.reshape(lstm_h.shape[:-1] + (-1,))], axis=-1
        )
        return output_in @ ref.w_y + ref.b_y

    #: Per-dtype bars for :meth:`verify_against_reference`: float64
    #: keeps the historical 1e-9; float32 accumulates ~1e-7 relative
    #: rounding through the recurrent state over a few steps.
    VERIFY_TOLERANCES = {
        "float64": 1e-9,
        "float32": 1e-3,
    }

    def verify_against_reference(
        self,
        steps: int = 3,
        rng: SeedLike = 7,
        batch_size: Optional[int] = None,
        tol: Optional[float] = None,
    ) -> float:
        """Run both paths on random input; return max abs output error.

        With ``batch_size=None`` this compares the sharded execution
        against its oracle: the monolithic reference DNC, or for DNC-D
        the per-tile oracle :func:`repro.dnc.dncd_ref.dncd_run` on the
        same weights.  With a ``batch_size`` it instead compares
        :meth:`run_batch` element-wise against ``B`` independent
        unbatched :meth:`run` calls — the batched hot path must
        reproduce the sequential path exactly.

        Raises :class:`~repro.errors.SimulationError` if the paths
        diverge beyond ``tol``, which defaults to the dtype policy's
        entry in :attr:`VERIFY_TOLERANCES`.
        """
        if tol is None:
            tol = self.VERIFY_TOLERANCES[self.config.dtype]
        gen = new_rng(rng)
        if batch_size is None:
            inputs = gen.standard_normal((steps, self.reference.config.input_size))
            ours = self.run(inputs)
            if self.config.distributed:
                oracle = "the per-tile DNC-D oracle"
                expected = dncd_run(self, inputs)
            else:
                oracle = "reference"
                expected = self.reference.run(inputs)
            error = float(np.max(np.abs(ours - expected)))
            if error > tol:
                raise SimulationError(
                    f"tiled execution diverged from {oracle} (max err {error:.3e})"
                )
            return error

        inputs = gen.standard_normal(
            (steps, batch_size, self.reference.config.input_size)
        )
        batched = self.run_batch(inputs)
        error = 0.0
        for i in range(batch_size):
            sequential = self.run(inputs[:, i])
            error = max(error, float(np.max(np.abs(batched[:, i] - sequential))))
        if error > tol:
            raise SimulationError(
                f"batched execution diverged from sequential (max err {error:.3e})"
            )
        return error


__all__ = [
    "TiledEngine",
    "TrafficLog",
    "TrafficEvent",
]
