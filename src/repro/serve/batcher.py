"""Dynamic micro-batching scheduler for asynchronously arriving requests.

The :class:`MicroBatcher` is the piece that turns many independent,
irregularly arriving per-session step requests into the dense ``(B, ...)``
batches the engine's vectorized hot path wants.  Scheduling is
discrete-tick and deterministic:

* requests queue FIFO **per session** (a session's step ``t+1`` depends
  on the state produced by step ``t``, so at most one request per session
  joins any batch);
* a batch dispatches when ``max_batch`` distinct sessions have work, or
  when the oldest pending request has waited ``max_wait_ticks`` — the
  latency bound that keeps a lone request from waiting forever for
  companions;
* total queued requests are capped at ``queue_capacity``; beyond that
  :meth:`submit` refuses (backpressure / admission control), and the
  caller decides whether to retry, shed, or slow the client.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set

import numpy as np

from repro.errors import ConfigError


@dataclass
class StepRequest:
    """One pending DNC timestep for one session.

    Filled in by the scheduler on completion: ``y`` (the model output),
    ``completed_tick``, or ``error`` when the session vanished before the
    request could run.
    """

    session_id: str
    x: np.ndarray
    submitted_tick: int
    seq: int  # global FIFO tiebreak among equal submit ticks
    y: Optional[np.ndarray] = None
    completed_tick: Optional[int] = None
    error: Optional[str] = None
    #: Propagated trace context ``(trace_id, span_id)`` of the submit
    #: span, or ``None`` when the request is untraced.  The owning shard
    #: parents its per-request dispatch span here.
    trace: Optional[tuple] = None

    @property
    def done(self) -> bool:
        return self.completed_tick is not None

    @property
    def wait_ticks(self) -> Optional[int]:
        if self.completed_tick is None:
            return None
        return self.completed_tick - self.submitted_tick


class MicroBatcher:
    """Gathers per-session FIFO queues into dispatchable micro-batches."""

    def __init__(
        self,
        max_batch: int = 16,
        max_wait_ticks: int = 2,
        queue_capacity: int = 1024,
    ):
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ticks < 0:
            raise ConfigError(
                f"max_wait_ticks must be >= 0, got {max_wait_ticks}"
            )
        if queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        self.max_batch = max_batch
        self.max_wait_ticks = max_wait_ticks
        self.queue_capacity = queue_capacity
        # Insertion-ordered so dispatch order is deterministic; each
        # session's deque is its own FIFO.
        self._queues: "OrderedDict[str, Deque[StepRequest]]" = OrderedDict()
        self._depth = 0
        self._seq = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total queued requests across all sessions."""
        return self._depth

    def pending_sessions(self) -> Set[str]:
        """Sessions with at least one queued request (eviction shield)."""
        return set(self._queues)

    def submit(
        self, session_id: str, x: np.ndarray, tick: int
    ) -> Optional[StepRequest]:
        """Enqueue one step request; ``None`` means refused (queue full)."""
        if self._depth >= self.queue_capacity:
            return None
        # Copy: clients commonly reuse one input buffer per step, and a
        # queued request must keep the values it was submitted with.
        request = StepRequest(
            session_id=session_id,
            x=np.array(x, copy=True),
            submitted_tick=tick,
            seq=self._seq,
        )
        self._seq += 1
        self._queues.setdefault(session_id, deque()).append(request)
        self._depth += 1
        return request

    def drop_session(self, session_id: str) -> List[StepRequest]:
        """Remove a session's queue (it was closed/evicted); returns it."""
        queue = self._queues.pop(session_id, None)
        if queue is None:
            return []
        self._depth -= len(queue)
        return list(queue)

    def adopt(self, session_id: str, requests: List[StepRequest]) -> None:
        """Re-enqueue existing requests — a migrated session's pending FIFO.

        The *same* request objects land at the tail of ``session_id``'s
        queue in the given order, so client-held references complete
        normally after the session moves shards.  Each request keeps its
        ``submitted_tick`` (age-based dispatch honors the original
        submit time) but is re-stamped with this batcher's sequence
        counter, folding the adopted FIFO into the local tiebreak order.
        Capacity is deliberately not re-checked: migration is
        server-initiated, and the requests were already admitted once.
        """
        if not requests:
            return
        queue = self._queues.setdefault(session_id, deque())
        for request in requests:
            request.seq = self._seq
            self._seq += 1
            queue.append(request)
        self._depth += len(requests)

    # ------------------------------------------------------------------
    def _heads(self) -> List[StepRequest]:
        """Front request of every session queue, oldest submission first."""
        heads = [queue[0] for queue in self._queues.values()]
        heads.sort(key=lambda r: (r.submitted_tick, r.seq))
        return heads

    def should_dispatch(self, tick: int) -> bool:
        """Dispatch when the batch is full or the oldest head has aged out."""
        if not self._queues:
            return False
        if len(self._queues) >= self.max_batch:
            return True
        oldest = min(
            queue[0].submitted_tick for queue in self._queues.values()
        )
        return tick - oldest >= self.max_wait_ticks

    def next_batch(self, tick: int) -> List[StepRequest]:
        """Pop up to ``max_batch`` head requests, or ``[]`` to keep waiting.

        Returns at most one request per session (state dependency), oldest
        submissions first; an empty list means the latency bound allows
        waiting another tick for a fuller batch.
        """
        if not self.should_dispatch(tick):
            return []
        batch = self._heads()[: self.max_batch]
        for request in batch:
            queue = self._queues[request.session_id]
            queue.popleft()
            if not queue:
                del self._queues[request.session_id]
            self._depth -= 1
        return batch


__all__ = ["MicroBatcher", "StepRequest"]
