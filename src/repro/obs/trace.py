"""Request tracing: lightweight spans, a bounded ring, JSONL export.

One traced request through the serving stack yields a *span tree*:

* ``frontend.submit`` — root, opened at :class:`~repro.serve.frontend.
  AsyncFrontend` admission, closed when the awaited reply resolves;
* ``router.submit`` — the cluster front door's enqueue
  (``ShardedServer``, either shard transport), child of the frontend span;
* ``shard.submit`` — the owning :class:`~repro.serve.shard.EngineShard`
  accepting the request (behind a ``ProcWorker`` handle it is created in
  the *worker process*: the trace context rides the framed-RPC header,
  so the tree crosses the process boundary);
* ``shard.dispatch`` — per-request span covering queueing through
  completion on the shard;
* ``cluster.tick`` / ``shard.tick`` / ``engine.step`` /
  ``engine.phase:*`` — the tick that served the request.  A tick serves
  a whole micro-batch, so it is attributed to the *oldest traced
  request* it dispatches (its parent is that request's submit span);
  engine phases are synthesized from :class:`~repro.obs.profiler.
  PhaseTimer` deltas and stitched sequentially across the step
  interval.

Spans are plain records (trace id, span id, parent id, name,
``t_start``/``t_end`` on the ``time.perf_counter`` clock, pid, attrs)
collected in a bounded ring buffer — tracing an unbounded run cannot
grow memory without bound.  Worker processes ``drain()`` their rings
into tick replies; the parent :meth:`Tracer.adopt`\\ s the records, so
one process's ring ends up holding the full cross-process tree.

Span/trace ids are monotonic counters salted with the pid (no RNG: the
serving stack is deterministic and stays that way under tracing), so
ids never collide across the worker processes of one cluster.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Keys every exported span record must carry (the JSONL schema).
SPAN_KEYS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "t_start",
    "t_end",
    "pid",
    "attrs",
)

#: A propagated trace context: ``(trace_id, span_id)`` of the parent.
SpanContext = Tuple[int, int]

# Process-wide id counter: unique within a process, and salted with the
# pid below so ids are unique across a cluster's worker processes too.
_IDS = itertools.count(1)


def _new_id() -> int:
    return ((os.getpid() & 0xFFFFFF) << 32) | (next(_IDS) & 0xFFFFFFFF)


@dataclass
class Span:
    """One timed operation; ``t_end`` is set by :meth:`Tracer.end`."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    t_start: float
    t_end: Optional[float] = None
    pid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        """The ``(trace_id, span_id)`` pair children parent on."""
        return (self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return (self.t_end if self.t_end is not None else self.t_start) - self.t_start

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Bounded collector of finished spans.

    ``start``/``end`` are the whole hot-path API; everything else
    (drain/adopt/export) runs off the tick path.  Appends go through a
    ``collections.deque`` with ``maxlen``, so concurrent shard threads
    (``ShardedServer`` parallel ticks) can share one tracer without a
    lock — each append is atomic and the ring simply drops the oldest
    record when full (counted in :attr:`dropped`).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=self.capacity)
        self.dropped = 0
        self.started = 0
        self.finished = 0

    # -- hot path ----------------------------------------------------

    def start(
        self,
        name: str,
        parent: Union[Span, SpanContext, None] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span.  ``parent`` is a :class:`Span`, a propagated
        ``(trace_id, span_id)`` context, or ``None`` for a new root."""
        if parent is None:
            trace_id = _new_id()
            parent_id = None
        elif isinstance(parent, Span):
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id, parent_id = int(parent[0]), int(parent[1])
        self.started += 1
        return Span(
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            name=name,
            t_start=time.perf_counter(),
            pid=os.getpid(),
            attrs=dict(attrs) if attrs else {},
        )

    def end(self, span: Span, **attrs: object) -> Span:
        """Close ``span`` and commit it to the ring."""
        span.t_end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self.finished += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span.to_dict())
        return span

    def emit(
        self,
        name: str,
        parent: Union[Span, SpanContext, None],
        t_start: float,
        t_end: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Commit an already-timed interval (e.g. a synthesized engine
        phase) as a finished span without touching the clock."""
        span = self.start(name, parent=parent, attrs=attrs)
        span.t_start = t_start
        span.t_end = t_end
        self.finished += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span.to_dict())
        return span

    # -- collection --------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Finished span records, oldest first (ring left intact)."""
        return list(self._ring)

    def drain(self) -> List[Dict[str, object]]:
        """Pop and return all finished records (used by worker
        processes to ship spans in tick replies)."""
        records = list(self._ring)
        self._ring.clear()
        return records

    def adopt(self, records: Iterable[Dict[str, object]]) -> int:
        """Fold records drained from another tracer (a worker process)
        into this ring.  Returns the number adopted."""
        count = 0
        for record in records:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(dict(record))
            count += 1
        return count

    def clear(self) -> None:
        self._ring.clear()

    # -- export ------------------------------------------------------

    def export_jsonl(self, path: Union[str, pathlib.Path]) -> int:
        """Write one JSON object per span record; returns the count."""
        records = self.records()
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        pathlib.Path(path).write_text(text)
        return len(records)


def validate_trace_jsonl(
    source: Union[str, pathlib.Path, Sequence[str]],
) -> List[str]:
    """Problems with an exported span JSONL (path or iterable of lines).

    Schema-checks every record (keys, types, ``t_end >= t_start``) and
    the link structure: a non-null ``parent_id`` must reference a span
    in the same trace when the parent is present in the export at all
    (rings are bounded, so a dropped parent is not an error — a parent
    present under a *different* trace id is).
    """
    if isinstance(source, (str, pathlib.Path)):
        lines = pathlib.Path(source).read_text().splitlines()
    else:
        lines = list(source)
    problems: List[str] = []
    by_span: Dict[int, Dict[str, object]] = {}
    records: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: expected an object")
            continue
        for key in SPAN_KEYS:
            if key not in record:
                problems.append(f"line {lineno}: missing key {key!r}")
        for key in ("trace_id", "span_id", "pid"):
            value = record.get(key)
            if key in record and (not isinstance(value, int) or value < 0):
                problems.append(
                    f"line {lineno}: {key} must be a non-negative int, "
                    f"got {value!r}"
                )
        parent = record.get("parent_id")
        if "parent_id" in record and parent is not None and not isinstance(parent, int):
            problems.append(
                f"line {lineno}: parent_id must be an int or null, got {parent!r}"
            )
        if "name" in record and not isinstance(record.get("name"), str):
            problems.append(f"line {lineno}: name must be a string")
        t0, t1 = record.get("t_start"), record.get("t_end")
        for key, value in (("t_start", t0), ("t_end", t1)):
            if key in record and not isinstance(value, (int, float)):
                problems.append(f"line {lineno}: {key} must be a number")
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)) and t1 < t0:
            problems.append(f"line {lineno}: t_end < t_start")
        if "attrs" in record and not isinstance(record.get("attrs"), dict):
            problems.append(f"line {lineno}: attrs must be an object")
        if isinstance(record.get("span_id"), int):
            by_span[record["span_id"]] = record
        records.append(record)
    for record in records:
        parent = record.get("parent_id")
        if isinstance(parent, int) and parent in by_span:
            if by_span[parent].get("trace_id") != record.get("trace_id"):
                problems.append(
                    f"span {record.get('span_id')}: parent {parent} belongs "
                    f"to a different trace"
                )
    return problems


def render_span_tree(
    records: Iterable[Dict[str, object]],
    indent: str = "  ",
) -> str:
    """ASCII span tree, one trace per block, children indented.

    Spans whose parent is absent from ``records`` (bounded rings drop
    oldest-first) are rendered as roots.  Siblings sort by start time,
    so the rendering reads as a timeline.
    """
    records = [dict(r) for r in records]
    by_span = {r["span_id"]: r for r in records if isinstance(r.get("span_id"), int)}
    children: Dict[Optional[int], List[Dict[str, object]]] = {}
    roots: List[Dict[str, object]] = []
    for record in records:
        parent = record.get("parent_id")
        if isinstance(parent, int) and parent in by_span:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    lines: List[str] = []

    def walk(record: Dict[str, object], depth: int) -> None:
        t0 = record.get("t_start") or 0.0
        t1 = record.get("t_end") or t0
        duration_ms = (t1 - t0) * 1e3
        attrs = record.get("attrs") or {}
        attr_text = "".join(f" {k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"{indent * depth}{record.get('name')} "
            f"{duration_ms:.3f}ms pid={record.get('pid')}{attr_text}"
        )
        kids = children.get(record.get("span_id"), [])
        for kid in sorted(kids, key=lambda r: r.get("t_start") or 0.0):
            walk(kid, depth + 1)

    roots.sort(key=lambda r: (r.get("trace_id") or 0, r.get("t_start") or 0.0))
    last_trace = None
    for root in roots:
        trace = root.get("trace_id")
        if trace != last_trace:
            lines.append(f"trace {trace:x}" if isinstance(trace, int) else f"trace {trace}")
            last_trace = trace
        walk(root, 1)
    return "\n".join(lines)


__all__ = [
    "SPAN_KEYS",
    "Span",
    "SpanContext",
    "Tracer",
    "render_span_tree",
    "validate_trace_jsonl",
]
