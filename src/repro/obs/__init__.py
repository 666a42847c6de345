"""``repro.obs`` — observability for the engine and serving stack.

Three cooperating layers (see ISSUE 8 / ROADMAP items 4–5):

* **Request tracing** (:mod:`repro.obs.trace`): :class:`Tracer` collects
  lightweight :class:`Span` records in a bounded ring.  Spans start at
  :class:`~repro.serve.frontend.AsyncFrontend` admission and propagate
  through router/shard dispatch and across
  :class:`~repro.serve.proc.ProcCluster`'s framed RPC (the trace
  context rides the frame header), so one request yields a complete
  frontend→router→shard→worker→engine span tree exportable as JSONL.

* **Per-phase engine profiling** (:mod:`repro.obs.profiler`):
  :class:`PhaseTimer` attaches to ``TiledEngine.profiler`` (``None`` by
  default) and attributes each tick to named phases — content
  addressing, sort/allocation, erase+write+linkage, read, output,
  gather/scatter — with counts, cumulative seconds, and bytes touched
  (:meth:`repro.core.access.AccessPolicy.bytes_touched`).

* **Metrics registry + exporters** (:mod:`repro.obs.metrics`):
  :class:`MetricsRegistry` unifies counters/gauges/exact histograms
  with per-tenant and per-phase labels behind Prometheus-text and
  structured-JSON exporters; :class:`~repro.serve.metrics.ServerMetrics`
  adopts it via ``to_registry()``.  The :class:`FlightRecorder`
  (:mod:`repro.obs.recorder`) keeps the last-K ticks of spans + phase
  stats per worker so a SIGKILL post-mortem shows what the dead worker
  was doing.

Everything is dependency-free, off by default, and bounded: tracing and
profiling cost one ``None`` check per hook when disabled; the enabled
price is measured per workload by ``perf/`` (``obs.trace.overhead_frac``,
``obs.profiler.overhead_frac``).
"""

from repro.obs.metrics import MetricsRegistry, validate_metrics_json
from repro.obs.profiler import PHASES, PhaseTimer
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import (
    SPAN_KEYS,
    Span,
    SpanContext,
    Tracer,
    render_span_tree,
    validate_trace_jsonl,
)

__all__ = [
    "SPAN_KEYS",
    "PHASES",
    "Span",
    "SpanContext",
    "Tracer",
    "PhaseTimer",
    "MetricsRegistry",
    "FlightRecorder",
    "render_span_tree",
    "validate_trace_jsonl",
    "validate_metrics_json",
]
