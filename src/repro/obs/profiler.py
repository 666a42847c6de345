"""Per-phase engine profiling: the ``PhaseTimer`` seam.

:class:`~repro.core.engine.TiledEngine` carries a ``profiler`` attribute
that is ``None`` by default; when a server enables profiling it attaches
a :class:`PhaseTimer` and the engine's step loop brackets each named
phase with :meth:`PhaseTimer.lap`:

    prof = self.profiler
    if prof is not None:
        tp = prof.now()
    ...content addressing...
    if prof is not None:
        tp = prof.lap("content_addressing", tp, nbytes)

so the disabled path costs one attribute load and a ``None`` check per
phase (``perf/`` reports the enabled path's price per workload as
``obs.profiler.overhead_frac``).  Each lap attributes the elapsed wall
time (one ``time.perf_counter`` call) plus an estimated bytes-touched figure
(:meth:`repro.core.access.AccessPolicy.bytes_touched`) to its phase.

Phase stats are mergeable across engines/workers (`merge`), serialize
exactly (`to_state`/`from_state` — they ride process-cluster tick
replies), and diff cleanly (`delta`) so a serving tick can attribute
its step time to phases and synthesize per-phase child spans.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

#: The named phases the engine step attributes time to, in execution
#: order.  ``gather_scatter`` covers masked-step state staging: the
#: per-row field scatter of the in-place form, or the whole-row
#: gather/scatter of the compact form (partial ticks of dense engines
#: below ``kernels.MIN_BLOCKED_N`` rows only); the rest are the phase
#: sequence of the engine's one step body (DNC and DNC-D alike).
PHASES = (
    "controller",
    "content_addressing",
    "sort_allocation",
    "erase_write_linkage",
    "read",
    "output",
    "gather_scatter",
)

StatDict = Dict[str, Dict[str, float]]


class PhaseTimer:
    """Accumulates per-phase counts, cumulative seconds, bytes touched."""

    __slots__ = ("_counts", "_seconds", "_bytes")

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        self._bytes: Dict[str, int] = {}

    # -- hot path ----------------------------------------------------

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def lap(self, phase: str, t0: float, nbytes: int = 0) -> float:
        """Attribute the time since ``t0`` to ``phase``; returns the new
        timestamp so laps chain: ``tp = prof.lap("read", tp, nbytes)``."""
        t1 = time.perf_counter()
        self._counts[phase] = self._counts.get(phase, 0) + 1
        self._seconds[phase] = self._seconds.get(phase, 0.0) + (t1 - t0)
        if nbytes:
            self._bytes[phase] = self._bytes.get(phase, 0) + int(nbytes)
        return t1

    # -- aggregation -------------------------------------------------

    def stats(self) -> StatDict:
        """``{phase: {count, seconds, bytes}}`` for all seen phases."""
        out: StatDict = {}
        for phase, count in self._counts.items():
            out[phase] = {
                "count": count,
                "seconds": self._seconds.get(phase, 0.0),
                "bytes": self._bytes.get(phase, 0),
            }
        return out

    def total_seconds(self) -> float:
        return sum(self._seconds.values())

    def reset(self) -> None:
        self._counts.clear()
        self._seconds.clear()
        self._bytes.clear()

    def merge(self, stats: Optional[StatDict]) -> None:
        """Fold another timer's :meth:`stats` into this one (cluster
        roll-up across shards/workers)."""
        if not stats:
            return
        for phase, entry in stats.items():
            self._counts[phase] = self._counts.get(phase, 0) + int(entry.get("count", 0))
            self._seconds[phase] = self._seconds.get(phase, 0.0) + float(
                entry.get("seconds", 0.0)
            )
            nbytes = int(entry.get("bytes", 0))
            if nbytes:
                self._bytes[phase] = self._bytes.get(phase, 0) + nbytes

    # -- serialization -----------------------------------------------

    def to_state(self) -> StatDict:
        return self.stats()

    @classmethod
    def from_state(cls, state: Optional[StatDict]) -> "PhaseTimer":
        timer = cls()
        timer.merge(state)
        return timer

    @staticmethod
    def delta(before: Optional[StatDict], after: Optional[StatDict]) -> StatDict:
        """Per-phase ``after - before`` (phases with no change omitted).

        Used by a serving tick to attribute one engine step: snapshot
        stats around ``engine.step`` and synthesize phase spans from the
        diff.
        """
        before = before or {}
        after = after or {}
        out: StatDict = {}
        for phase, entry in after.items():
            prev: Mapping[str, float] = before.get(phase, {})
            count = int(entry.get("count", 0)) - int(prev.get("count", 0))
            seconds = float(entry.get("seconds", 0.0)) - float(prev.get("seconds", 0.0))
            nbytes = int(entry.get("bytes", 0)) - int(prev.get("bytes", 0))
            if count or seconds or nbytes:
                out[phase] = {"count": count, "seconds": seconds, "bytes": nbytes}
        return out


__all__ = ["PHASES", "PhaseTimer", "engine_phases"]
