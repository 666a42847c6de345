"""Cycle-level performance model of HiMA inference.

Per-timestep latency is the sum over the Table 1 kernel chain of

    ``max(compute, overlap) + communication``

where compute comes from the M-M engine throughput model
(:class:`repro.hw.mm_engine.MMEngine`) or the sorter cycle models, and
communication is the *simulated* NoC makespan of the exact message set the
tiled execution engine logs for that kernel — so the ladder of Figure
11(a) (two-stage sort, HiMA-NoC, submatrix partition, DNC-D, skimming)
emerges from the same mechanisms the paper describes rather than from
fitted speedup factors.

The LSTM controller is pipelined against the memory unit (timestep
``t+1``'s controller overlaps timestep ``t``'s memory work), so only the
pipeline fill and the interface broadcast remain visible — matching the
paper's small NN share in Figure 11(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

import numpy as np

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.core.kernels import KERNEL_REGISTRY
from repro.dnc.instrumentation import KernelCategory
from repro.hw.mm_engine import MMEngine
from repro.hw.power_model import WorkloadActivity
from repro.hw.sorters import CentralizedMergeSorter, MDSASorter, TwoStageSorter
from repro.noc import NoCSimulator, build_topology
from repro.utils.rng import SeedLike

#: Engine-log pseudo-kernels folded into Table 1 kernels for reporting.
_TRAFFIC_ALIASES = {
    "interface_broadcast": "lstm",
    "read_vector_collect": "memory_read",
}


@dataclass
class KernelCycles:
    """Latency split for one kernel in one timestep."""

    name: str
    category: KernelCategory
    compute: float
    comm: float

    @property
    def total(self) -> float:
        return self.compute + self.comm


class HiMAPerformanceModel:
    """End-to-end inference latency/activity model for one configuration."""

    def __init__(self, config: HiMAConfig, rng: SeedLike = 0):
        self.config = config
        self.mm_engine = MMEngine(config.macs_per_cycle)
        self.topology = build_topology(config.noc, config.num_tiles)
        self.noc = NoCSimulator(self.topology)
        self._engine = TiledEngine(config, rng=rng)
        self._kernel_comm: Optional[Dict[str, float]] = None
        self._kernel_words: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Communication: simulate the engine's real per-kernel message sets
    # ------------------------------------------------------------------
    def _collect_traffic(self) -> None:
        if self._kernel_comm is not None:
            return
        engine = self._engine
        engine.traffic.clear()
        state = engine.initial_state()
        x = np.zeros(engine.reference.config.input_size)
        # Two steps: the first write leaves most state zero; the second
        # exercises the steady-state traffic.  Keep the second step's log.
        _, state = engine.step(x, state)
        engine.traffic.clear()
        engine.step(x, state)

        comm: Dict[str, float] = {}
        words: Dict[str, int] = {}
        for kernel, kernel_words in engine.traffic.words_by_kernel().items():
            target = _TRAFFIC_ALIASES.get(kernel, kernel)
            msgs = engine.traffic.messages(
                self.config.link_words_per_cycle, kernel=kernel
            )
            latency = self.noc.run(msgs).makespan if msgs else 0
            comm[target] = comm.get(target, 0.0) + latency
            words[target] = words.get(target, 0) + kernel_words
        self._kernel_comm = comm
        self._kernel_words = words

    # ------------------------------------------------------------------
    # Per-kernel cycles
    # ------------------------------------------------------------------
    def kernel_cycles(self) -> Dict[str, KernelCycles]:
        """Compute + communication cycles per kernel for one timestep."""
        self._collect_traffic()
        cfg = self.config
        result: Dict[str, KernelCycles] = {}
        for name, spec in KERNEL_REGISTRY.items():
            if name == "usage_sort":
                compute = self._sort_cycles()
            else:
                per_tile_ops = spec.ops(cfg) / cfg.num_tiles
                compute = self.mm_engine.cycles_for_ops(int(per_tile_ops))
            comm = self._kernel_comm.get(name, 0.0)
            if name == "usage_sort" and cfg.two_stage_sort and not cfg.distributed:
                # Shard streaming overlaps the CT merge phase.
                comm = max(0.0, comm - self._merge_cycles())
            result[name] = KernelCycles(name, spec.category, compute, comm)

        result["lstm"] = self._lstm_kernel()
        return result

    def _sort_cycles(self) -> float:
        cfg = self.config
        effective = cfg.effective_sort_length
        if cfg.distributed:
            local = MDSASorter(cfg.local_rows)
            return local.cycle_count(max(1, effective // cfg.num_tiles))
        if cfg.two_stage_sort:
            return TwoStageSorter(cfg.memory_size, cfg.num_tiles).cycle_count(
                effective
            )
        # Baseline prototype: the Fig. 7(a) pre-sort + merge controller.
        return CentralizedMergeSorter().pipelined_cycle_count(
            effective, num_streams=cfg.num_tiles
        )

    def _merge_cycles(self) -> float:
        cfg = self.config
        sorter = TwoStageSorter(cfg.memory_size, cfg.num_tiles)
        return sorter.stage_cycles()[1]

    def _lstm_kernel(self) -> KernelCycles:
        """Visible controller time: pipeline fill amortized + interface."""
        cfg = self.config
        controller_in = cfg.word_size + cfg.num_reads * cfg.word_size
        lstm_ops = 2 * (controller_in + cfg.hidden_size) * 4 * cfg.hidden_size
        output_ops = 2 * (cfg.hidden_size + cfg.num_reads * cfg.word_size) * (
            cfg.word_size
        )
        fill = self.mm_engine.cycles_for_ops(lstm_ops + output_ops)
        amortized = fill / cfg.sequence_length
        comm = self._kernel_comm.get("lstm", 0.0)
        return KernelCycles("lstm", KernelCategory.NN_LSTM, amortized, comm)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def timestep_cycles(self) -> float:
        return sum(k.total for k in self.kernel_cycles().values())

    def inference_cycles(self) -> float:
        """Cycles for one test (``sequence_length`` timesteps)."""
        return self.timestep_cycles() * self.config.sequence_length

    def inference_time_us(self) -> float:
        return self.inference_cycles() / self.config.clock_hz * 1e6

    def inference_time_s(self) -> float:
        return self.inference_cycles() / self.config.clock_hz

    def category_cycles(self) -> Dict[KernelCategory, float]:
        totals = {cat: 0.0 for cat in KernelCategory}
        for kernel in self.kernel_cycles().values():
            totals[kernel.category] += kernel.total
        return totals

    def category_fractions(self) -> Dict[KernelCategory, float]:
        totals = self.category_cycles()
        grand = sum(totals.values())
        return {cat: v / grand for cat, v in totals.items()}

    def speedup_over(self, other: "HiMAPerformanceModel") -> float:
        """How much faster this config is than ``other``."""
        return other.inference_time_s() / self.inference_time_s()

    # ------------------------------------------------------------------
    # Activity for the power model
    # ------------------------------------------------------------------
    def _hop_words(self) -> float:
        """Total word-hops of one timestep on this topology (real routes)."""
        self._collect_traffic()
        hops = self.noc.routing.hops
        return float(sum(
            words * hops(src, dst)
            for (src, dst), words in self._engine.traffic.words_by_pair().items()
        ))

    def activity(self) -> WorkloadActivity:
        """Per-timestep event counts (all PTs) for the power model."""
        self._collect_traffic()
        cfg = self.config
        total_ops = sum(
            spec.ops(cfg) for name, spec in KERNEL_REGISTRY.items()
        )
        accesses = sum(
            spec.ext_mem_accesses(cfg) + spec.state_mem_accesses(cfg)
            for spec in KERNEL_REGISTRY.values()
        )
        hop_words = self._hop_words()
        controller_in = cfg.word_size + cfg.num_reads * cfg.word_size
        lstm_ops = 2 * (controller_in + cfg.hidden_size) * 4 * cfg.hidden_size
        return WorkloadActivity(
            pt_ops=total_ops,
            mem_accesses=accesses,
            noc_hop_words=hop_words,
            lstm_ops=lstm_ops,
            num_tiles=cfg.num_tiles,
            timestep_cycles=self.timestep_cycles(),
            clock_hz=cfg.clock_hz,
        )

    def kernel_activity(self) -> Dict[str, WorkloadActivity]:
        """Per-kernel event counts (for the kernel power breakdown)."""
        self._collect_traffic()
        cfg = self.config
        cycles = self.kernel_cycles()
        result: Dict[str, WorkloadActivity] = {}
        for name, spec in KERNEL_REGISTRY.items():
            result[name] = WorkloadActivity(
                pt_ops=spec.ops(cfg),
                mem_accesses=spec.ext_mem_accesses(cfg) + spec.state_mem_accesses(cfg),
                noc_hop_words=self._kernel_words.get(name, 0) * 2.0,
                lstm_ops=0,
                num_tiles=cfg.num_tiles,
                timestep_cycles=max(cycles[name].total, 1.0),
                clock_hz=cfg.clock_hz,
            )
        controller_in = cfg.word_size + cfg.num_reads * cfg.word_size
        result["lstm"] = WorkloadActivity(
            pt_ops=0,
            mem_accesses=0,
            noc_hop_words=self._kernel_words.get("lstm", 0) * 2.0,
            lstm_ops=2 * (controller_in + cfg.hidden_size) * 4 * cfg.hidden_size,
            num_tiles=cfg.num_tiles,
            timestep_cycles=max(cycles["lstm"].total, 1.0),
            clock_hz=cfg.clock_hz,
        )
        return result


__all__ = ["HiMAPerformanceModel", "KernelCycles"]
