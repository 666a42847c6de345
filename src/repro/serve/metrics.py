"""Serving observability: latency, occupancy, and admission counters.

:class:`ServerMetrics` is the single metrics surface shared by the
:class:`~repro.serve.shard.EngineShard`, its
:class:`~repro.serve.batcher.MicroBatcher`, and the
:class:`~repro.serve.session.SessionStore`.  Latency is measured in
*scheduler ticks* (submit tick -> completion tick), the natural unit of
the discrete-tick serving loop; wall-clock throughput lives in
``perf/``, not here.

Wait times and batch occupancies are recorded as integer histograms, so
the metrics object stays O(distinct values) — not O(requests) — under
long-running serving, and the quantiles computed from them are exact
(:attr:`ServerMetrics.WAIT_QUANTILES` — p50/p95/p99 by default,
configurable per instance).

Export goes through the :mod:`repro.obs` registry:
:meth:`ServerMetrics.to_registry` adopts every counter, the exact
histograms, the per-tenant label dimension, and (optionally) per-phase
engine profile stats into one :class:`repro.obs.metrics.MetricsRegistry`,
which renders Prometheus text or structured JSON.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry


def tenant_of(session_id: str) -> str:
    """Tenant id of a session: the prefix before the first ``-``.

    The loadgen's session naming convention (``t03-copy-7`` → tenant
    ``t03``) — defined here (and re-exported by
    :mod:`repro.serve.loadgen`) so shards can attribute per-tenant
    metrics without importing the load generator.
    """
    return session_id.split("-", 1)[0]


def _quantile_key(q: float) -> str:
    """``0.95 -> "p95_wait_ticks"``, ``0.999 -> "p99.9_wait_ticks"``."""
    pct = q * 100.0
    text = f"{pct:g}"
    return f"p{text}_wait_ticks"


def _percentile_from_histogram(hist: Dict[int, int], q: float) -> Optional[float]:
    """Exact nearest-rank percentile of an integer-valued histogram."""
    total = sum(hist.values())
    if total == 0:
        return None
    rank = max(1, int(-(-q * total // 1)))  # ceil(q * total), rank is 1-based
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return float(value)
    return float(max(hist))


class ServerMetrics:
    """Counters and histograms for one serving run.

    All counters are cumulative from construction (or the last
    :meth:`reset`); :meth:`snapshot` renders everything as a flat
    JSON-able dict.
    """

    #: Additive counters, the complete list: :meth:`merge` sums exactly
    #: these, so a new counter added here aggregates across shards
    #: without touching the merge logic.
    COUNTERS = (
        "requests_submitted",
        "requests_completed",
        "requests_failed",
        "admission_rejects",
        "sessions_opened",
        "sessions_closed",
        "evictions_ttl",
        "evictions_lru",
        "migrations_in",
        "migrations_out",
        "worker_restarts",
        "admission_spills",
        "ticks",
        "state_bytes_copied",
    )

    #: Integer histograms (value -> count), summed bin-wise by :meth:`merge`.
    HISTOGRAMS = (
        "wait_histogram",
        "occupancy_histogram",
        "slot_occupancy_histogram",
    )

    #: Labeled counter dicts (label value -> count), summed key-wise by
    #: :meth:`merge` — the per-tenant dimension of ROADMAP item 5.
    LABELED = ("tenant_completed",)

    #: Default wait-latency quantiles surfaced by :meth:`snapshot`.
    WAIT_QUANTILES = (0.50, 0.95, 0.99)

    def __init__(self, quantiles: Optional[Sequence[float]] = None):
        if quantiles is not None:
            bad = [q for q in quantiles if not 0.0 < q <= 1.0]
            if bad:
                raise ValueError(f"quantiles must lie in (0, 1], got {bad}")
            self.quantiles: Tuple[float, ...] = tuple(quantiles)
        else:
            self.quantiles = self.WAIT_QUANTILES
        self.reset()

    def reset(self) -> None:
        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.admission_rejects = 0
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.evictions_ttl = 0
        self.evictions_lru = 0
        #: Sessions that arrived from / left for another engine shard
        #: (checkpoint-based migration); a migration is not an open or a
        #: close, so the cluster-wide sessions_opened stays exact.
        self.migrations_in = 0
        self.migrations_out = 0
        #: Worker processes respawned after a crash (process cluster).
        self.worker_restarts = 0
        #: Sessions admitted on a non-first-choice shard after the
        #: placement pick refused (cluster-level admission spill).
        self.admission_spills = 0
        self.ticks = 0
        #: Cumulative bytes of session state copied (slot writes/reads
        #: plus the masked step's gather/scatter staging) — the number
        #: the resident state arena drives toward zero.  Full-occupancy
        #: ticks contribute 0.
        self.state_bytes_copied = 0
        #: wait ticks (completion tick - submit tick) -> request count
        self.wait_histogram: Dict[int, int] = {}
        #: dispatched batch occupancy -> tick count (0 = idle tick)
        self.occupancy_histogram: Dict[int, int] = {}
        #: arena slots bound -> tick count
        self.slot_occupancy_histogram: Dict[int, int] = {}
        #: tenant id -> completed request count (see :func:`tenant_of`)
        self.tenant_completed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def observe_wait(self, wait_ticks: int) -> None:
        self.wait_histogram[wait_ticks] = (
            self.wait_histogram.get(wait_ticks, 0) + 1
        )

    def observe_occupancy(self, batch_size: int) -> None:
        self.ticks += 1
        self.occupancy_histogram[batch_size] = (
            self.occupancy_histogram.get(batch_size, 0) + 1
        )

    def observe_state_copy(self, nbytes: int) -> None:
        """Account ``nbytes`` of session-state copy traffic."""
        self.state_bytes_copied += int(nbytes)

    def observe_slots(self, bound_slots: int) -> None:
        """Record the arena's bound-slot count for this tick."""
        self.slot_occupancy_histogram[bound_slots] = (
            self.slot_occupancy_histogram.get(bound_slots, 0) + 1
        )

    def observe_tenant(self, session_id: str) -> None:
        """Attribute one completed request to the session's tenant."""
        tenant = tenant_of(session_id)
        self.tenant_completed[tenant] = self.tenant_completed.get(tenant, 0) + 1

    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Iterable["ServerMetrics"]) -> "ServerMetrics":
        """Exact aggregation of per-shard metrics into one object.

        Counters add; histograms sum bin-wise — so every derived
        statistic (the exact histogram percentiles, means, bytes per
        tick) computed from the merged object equals the statistic of
        one metrics object that had observed every event itself.  Note
        ``ticks`` counts *shard* ticks: a cluster tick driving S shards
        contributes S, which keeps per-tick rates comparable with a
        single server doing the same engine work.
        """
        merged = cls()
        for part in parts:
            for name in cls.COUNTERS:
                setattr(merged, name, getattr(merged, name) + getattr(part, name))
            for name in cls.HISTOGRAMS + cls.LABELED:
                hist = getattr(merged, name)
                for value, count in getattr(part, name).items():
                    hist[value] = hist.get(value, 0) + count
        return merged

    def to_state(self) -> Dict[str, object]:
        """All counters + histograms as one picklable/JSON-able dict.

        The process cluster ships worker metrics across the RPC boundary
        in this form; :meth:`from_state` rebuilds an equivalent object,
        and round-tripping is exact (integer counters, integer bins).
        """
        state: Dict[str, object] = {
            name: getattr(self, name) for name in self.COUNTERS
        }
        for name in self.HISTOGRAMS:
            state[name] = dict(getattr(self, name))
        for name in self.LABELED:
            state[name] = dict(getattr(self, name))
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ServerMetrics":
        """Inverse of :meth:`to_state` (missing keys default to empty)."""
        metrics = cls()
        for name in cls.COUNTERS:
            setattr(metrics, name, int(state.get(name, 0)))
        for name in cls.HISTOGRAMS:
            hist = getattr(metrics, name)
            for value, count in dict(state.get(name, {})).items():
                hist[int(value)] = int(count)
        for name in cls.LABELED:
            labeled = getattr(metrics, name)
            for value, count in dict(state.get(name, {})).items():
                labeled[str(value)] = int(count)
        return metrics

    def wait_percentiles(self) -> Tuple[Optional[float], Optional[float]]:
        """``(p50, p95)`` request latency in scheduler ticks."""
        return (
            _percentile_from_histogram(self.wait_histogram, 0.50),
            _percentile_from_histogram(self.wait_histogram, 0.95),
        )

    def wait_quantile(self, q: float) -> Optional[float]:
        """Exact wait-latency quantile ``q`` in scheduler ticks."""
        return _percentile_from_histogram(self.wait_histogram, q)

    def wait_quantiles(self) -> Dict[str, Optional[float]]:
        """Configured quantiles as ``{"p50_wait_ticks": ..., ...}``."""
        return {
            _quantile_key(q): _percentile_from_histogram(self.wait_histogram, q)
            for q in self.quantiles
        }

    def mean_occupancy(self, include_idle: bool = False) -> Optional[float]:
        """Mean dispatched batch size; idle (occupancy-0) ticks optional."""
        items = [
            (occ, n) for occ, n in self.occupancy_histogram.items()
            if include_idle or occ > 0
        ]
        ticks = sum(n for _, n in items)
        if ticks == 0:
            return None
        return sum(occ * n for occ, n in items) / ticks

    def mean_slot_occupancy(self) -> Optional[float]:
        """Mean arena slots bound per tick (``None`` without arena ticks)."""
        ticks = sum(self.slot_occupancy_histogram.values())
        if ticks == 0:
            return None
        return sum(
            occ * n for occ, n in self.slot_occupancy_histogram.items()
        ) / ticks

    def state_bytes_per_tick(self) -> Optional[float]:
        """Mean session-state copy traffic per scheduler tick."""
        if self.ticks == 0:
            return None
        return self.state_bytes_copied / self.ticks

    def snapshot(self) -> Dict[str, object]:
        snap = {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "admission_rejects": self.admission_rejects,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "evictions_ttl": self.evictions_ttl,
            "evictions_lru": self.evictions_lru,
            "migrations_in": self.migrations_in,
            "migrations_out": self.migrations_out,
            "worker_restarts": self.worker_restarts,
            "admission_spills": self.admission_spills,
            "ticks": self.ticks,
            "mean_batch_occupancy": self.mean_occupancy(),
            "occupancy_histogram": {
                str(k): v for k, v in sorted(self.occupancy_histogram.items())
            },
            "state_bytes_copied": self.state_bytes_copied,
            "state_bytes_per_tick": self.state_bytes_per_tick(),
            "mean_slot_occupancy": self.mean_slot_occupancy(),
            "slot_occupancy_histogram": {
                str(k): v
                for k, v in sorted(self.slot_occupancy_histogram.items())
            },
            "tenant_completed": {
                k: v for k, v in sorted(self.tenant_completed.items())
            },
        }
        snap.update(self.wait_quantiles())
        return snap

    # ------------------------------------------------------------------
    def to_registry(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
        phase_stats: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> MetricsRegistry:
        """Adopt this object into a :class:`MetricsRegistry` view.

        Every counter becomes a ``serve_*`` counter, the exact
        histograms export as histogram series, the per-tenant dimension
        becomes a ``tenant``-labeled counter, and ``phase_stats`` (a
        :meth:`repro.obs.profiler.PhaseTimer.stats` dict) adds
        ``phase``-labeled seconds/bytes/count series.  ``labels`` are
        attached to every series (e.g. ``{"shard": 3}``), so cluster
        layers can export per-shard registries side by side.
        """
        reg = registry if registry is not None else MetricsRegistry()
        for name in self.COUNTERS:
            reg.counter(f"serve_{name}", getattr(self, name), labels=labels)
        for q in self.quantiles:
            value = _percentile_from_histogram(self.wait_histogram, q)
            if value is not None:
                reg.gauge(
                    "serve_wait_ticks_quantile",
                    value,
                    labels={**(dict(labels) if labels else {}), "quantile": f"{q:g}"},
                )
        reg.histogram("serve_wait_ticks", self.wait_histogram, labels=labels)
        reg.histogram(
            "serve_batch_occupancy", self.occupancy_histogram, labels=labels
        )
        reg.histogram(
            "serve_slot_occupancy", self.slot_occupancy_histogram, labels=labels
        )
        for tenant, count in sorted(self.tenant_completed.items()):
            reg.counter(
                "serve_tenant_requests_completed",
                count,
                labels={**(dict(labels) if labels else {}), "tenant": tenant},
            )
        if phase_stats:
            for phase, entry in sorted(phase_stats.items()):
                phase_labels = {
                    **(dict(labels) if labels else {}), "phase": phase,
                }
                reg.counter(
                    "engine_phase_seconds",
                    float(entry.get("seconds", 0.0)),
                    labels=phase_labels,
                )
                reg.counter(
                    "engine_phase_bytes",
                    int(entry.get("bytes", 0)),
                    labels=phase_labels,
                )
                reg.counter(
                    "engine_phase_count",
                    int(entry.get("count", 0)),
                    labels=phase_labels,
                )
        return reg

    def to_prometheus_text(self, **kwargs) -> str:
        """Prometheus text exposition of :meth:`to_registry`."""
        return self.to_registry(**kwargs).to_prometheus_text()

    def to_json(self, **kwargs) -> Dict[str, object]:
        """Structured-JSON export of :meth:`to_registry`."""
        return self.to_registry(**kwargs).to_json()


__all__ = ["ServerMetrics", "tenant_of"]
