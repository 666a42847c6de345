"""Kernel-level instrumentation in the paper's Table 1 / Figure 4 taxonomy.

:class:`KernelRecorder` accumulates, per named kernel: call count,
arithmetic op count, external-memory accesses, state-memory accesses, and
CPU seconds.  Every kernel belongs to a :class:`KernelCategory`
(the five slices of the paper's Figure 4 pie charts).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, Mapping

from repro.errors import ConfigError


class KernelCategory(Enum):
    """Figure 4 runtime categories."""

    CONTENT_WEIGHTING = "content-based weighting"
    MEMORY_ACCESS = "write/read memory access"
    HIST_WRITE_WEIGHTING = "history-based write weighting"
    HIST_READ_WEIGHTING = "history-based read weighting"
    NN_LSTM = "nn (lstm)"


#: Canonical kernel -> category map (Table 1 rows plus the controller).
KERNEL_CATEGORIES: Mapping[str, KernelCategory] = {
    "normalize": KernelCategory.CONTENT_WEIGHTING,
    "similarity": KernelCategory.CONTENT_WEIGHTING,
    "memory_write": KernelCategory.MEMORY_ACCESS,
    "memory_read": KernelCategory.MEMORY_ACCESS,
    "retention": KernelCategory.HIST_WRITE_WEIGHTING,
    "usage": KernelCategory.HIST_WRITE_WEIGHTING,
    "usage_sort": KernelCategory.HIST_WRITE_WEIGHTING,
    "allocation": KernelCategory.HIST_WRITE_WEIGHTING,
    "write_weight_merge": KernelCategory.HIST_WRITE_WEIGHTING,
    "linkage": KernelCategory.HIST_READ_WEIGHTING,
    "precedence": KernelCategory.HIST_READ_WEIGHTING,
    "forward_backward": KernelCategory.HIST_READ_WEIGHTING,
    "read_weight_merge": KernelCategory.HIST_READ_WEIGHTING,
    "lstm": KernelCategory.NN_LSTM,
}


@dataclass
class KernelStats:
    """Accumulated statistics for one kernel."""

    calls: int = 0
    ops: int = 0
    ext_mem_accesses: int = 0
    state_mem_accesses: int = 0
    seconds: float = 0.0

    def merge(self, other: "KernelStats") -> None:
        self.calls += other.calls
        self.ops += other.ops
        self.ext_mem_accesses += other.ext_mem_accesses
        self.state_mem_accesses += other.state_mem_accesses
        self.seconds += other.seconds


class KernelRecorder:
    """Accumulates :class:`KernelStats` per kernel name."""

    def __init__(self):
        self.stats: Dict[str, KernelStats] = {}

    def _get(self, kernel: str) -> KernelStats:
        if kernel not in KERNEL_CATEGORIES:
            raise ConfigError(f"unknown kernel {kernel!r}")
        return self.stats.setdefault(kernel, KernelStats())

    def add(
        self,
        kernel: str,
        ops: int = 0,
        ext_mem: int = 0,
        state_mem: int = 0,
        seconds: float = 0.0,
    ) -> None:
        """Record one kernel invocation's counters."""
        entry = self._get(kernel)
        entry.calls += 1
        entry.ops += int(ops)
        entry.ext_mem_accesses += int(ext_mem)
        entry.state_mem_accesses += int(state_mem)
        entry.seconds += seconds

    @contextmanager
    def measure(
        self, kernel: str, ops: int = 0, ext_mem: int = 0, state_mem: int = 0
    ) -> Iterator[None]:
        """Time a block and record it against ``kernel``.

        The clock is the calling thread's CPU time, not wall-clock: a
        kernel's share of the run then does not move when another
        process takes the CPU while the block runs.  (Process CPU time
        would: it also counts BLAS helper threads spinning after a call,
        into whichever block runs next.)
        """
        start = time.thread_time()
        try:
            yield
        finally:
            elapsed = time.thread_time() - start
            self.add(kernel, ops=ops, ext_mem=ext_mem, state_mem=state_mem,
                     seconds=elapsed)

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def by_category(self, field_name: str = "seconds") -> Dict[KernelCategory, float]:
        """Sum one stats field per :class:`KernelCategory`."""
        totals: Dict[KernelCategory, float] = {cat: 0.0 for cat in KernelCategory}
        for kernel, stats in self.stats.items():
            totals[KERNEL_CATEGORIES[kernel]] += getattr(stats, field_name)
        return totals

    def category_fractions(self, field_name: str = "seconds") -> Dict[KernelCategory, float]:
        """Per-category share of the total (Figure 4 pie slices)."""
        totals = self.by_category(field_name)
        grand = sum(totals.values())
        if grand == 0:
            return {cat: 0.0 for cat in totals}
        return {cat: value / grand for cat, value in totals.items()}

    def total(self, field_name: str = "seconds") -> float:
        return sum(getattr(s, field_name) for s in self.stats.values())

    def reset(self) -> None:
        self.stats.clear()


__all__ = ["KernelCategory", "KernelStats", "KernelRecorder", "KERNEL_CATEGORIES"]
