"""Asyncio front door over any serving topology.

:class:`AsyncFrontend` turns the discrete-tick serving loop into the
awaitable per-request API a network handler wants: ``await open()``,
``y = await submit(sid, x)``.  It wraps any server exposing the common
surface — :class:`~repro.serve.shard.EngineShard`,
:class:`~repro.serve.cluster.ShardedServer`, or
:class:`~repro.serve.proc.ProcCluster` — without caring which topology
is underneath.

Concurrency model: the wrapped server is single-threaded by contract
(time advances only through ``run_tick``), so *all* server access — the
background tick driver and every open/submit/close — funnels through
one single-worker executor thread.  The event loop itself never blocks
on engine work, requests from any number of coroutines interleave
safely, and the serving side stays exactly as deterministic as the
server underneath.  Completion is observed on the
:class:`~repro.serve.batcher.StepRequest` objects themselves (the
``done`` flag both the in-process servers and the process cluster's
mirrors maintain), so one frontend works for both.

Backpressure is first-class: a refused open or submit raises
:class:`~repro.errors.CapacityError` immediately instead of queueing
forever — the caller (a websocket handler, a load shedder) decides
whether to retry, downgrade, or 503.  The tick driver is demand-driven:
it sleeps on an event while no request is pending, so an idle frontend
costs nothing.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import CapacityError, ServeError
from repro.obs import Tracer
from repro.serve.batcher import StepRequest


class AsyncFrontend:
    """Awaitable per-request facade over a tick-driven session server.

    Use as an async context manager::

        async with AsyncFrontend(ProcCluster(config, num_workers=4)) as fe:
            sid = await fe.open()
            y = await fe.submit(sid, x)

    The frontend owns the server's lifecycle: leaving the ``async with``
    block stops the tick driver and calls ``server.close()`` (worker
    processes, executor threads and all).  Any request still pending at
    shutdown fails with :class:`~repro.errors.ServeError` rather than
    hanging its awaiter.
    """

    def __init__(
        self,
        server,
        *,
        tick_interval: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        self.server = server
        #: When set, every admitted request gets a root ``frontend.submit``
        #: span covering admission→completion, and its context is
        #: propagated into the server's submit path so the whole
        #: downstream tree (router, shard, engine phases — and for
        #: :class:`~repro.serve.proc.ProcCluster`, worker-process spans)
        #: hangs off one trace.
        self.tracer = tracer
        #: Optional wall-clock pause between ticks (0 = tick as fast as
        #: the engine allows).  Non-zero values trade latency for larger
        #: batches under trickling traffic.
        self.tick_interval = tick_interval
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-frontend"
        )
        #: id(request) -> (request, future awaiting it)
        self._pending: Dict[int, Tuple[StepRequest, asyncio.Future]] = {}
        self._work: Optional[asyncio.Event] = None
        self._driver: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    async def _call(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def start(self) -> None:
        """Start the background tick driver (idempotent)."""
        if self._driver is None or self._driver.done():
            self._work = asyncio.Event()
            self._driver = asyncio.get_running_loop().create_task(
                self._drive(), name="serve-frontend-driver"
            )

    async def __aenter__(self) -> "AsyncFrontend":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def open(self, session_id: Optional[str] = None) -> str:
        """Open a session; raises :class:`CapacityError` when refused."""
        if self._closed:
            raise ServeError("frontend is closed")
        opened = await self._call(self.server.open_session, session_id)
        if opened is None:
            raise CapacityError(
                "server refused the session (at capacity on every shard)"
            )
        return opened

    async def close_session(self, session_id: str) -> None:
        await self._call(self.server.close_session, session_id)

    async def submit(self, session_id: str, x: np.ndarray) -> np.ndarray:
        """One DNC step: resolves to ``y`` when the server completes it.

        Raises :class:`CapacityError` on a queue-full refusal (the
        session stays open — retry after a completion drains the queue)
        and :class:`ServeError` when the step itself fails (session
        evicted, server shut down, worker-side rejection).
        """
        if self._closed:
            raise ServeError("frontend is closed")
        self.start()
        tracer = self.tracer
        if tracer is None:
            request = await self._call(self.server.submit, session_id, x)
        else:
            span = tracer.start(
                "frontend.submit", attrs={"session": session_id}
            )
            ctx = span.context
            request = await self._call(
                lambda: self.server.submit(session_id, x, trace=ctx)
            )
        if request is None:
            if tracer is not None:
                tracer.end(span, accepted=False)
            raise CapacityError("server queue is full (backpressure)")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[id(request)] = (request, future)
        self._work.set()
        try:
            result = await future
        finally:
            if tracer is not None:
                tracer.end(span, accepted=True)
        return result

    @property
    def pending(self) -> int:
        """Requests awaited on this frontend and not yet resolved."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def _resolve_done(self) -> None:
        done = [
            key for key, (request, _) in self._pending.items() if request.done
        ]
        for key in done:
            request, future = self._pending.pop(key)
            if future.done():
                continue  # awaiter gave up (cancelled/timed out)
            if request.error is not None:
                future.set_exception(ServeError(request.error))
            else:
                future.set_result(request.y)

    async def _drive(self) -> None:
        """Demand-driven tick loop: tick while work is pending, then park."""
        while not self._closed:
            if not self._pending:
                self._work.clear()
                # Re-check before parking: a submit may have landed
                # between the emptiness check and the clear.
                if not self._pending:
                    await self._work.wait()
                continue
            try:
                await self._call(self.server.run_tick)
            except Exception as exc:
                # A tick that raises (e.g. unrecoverable worker loss)
                # must fail its awaiters, not strand them.
                for _, future in self._pending.values():
                    if not future.done():
                        future.set_exception(
                            ServeError(f"server tick failed: {exc}")
                        )
                self._pending.clear()
                raise
            self._resolve_done()
            if self.tick_interval > 0:
                await asyncio.sleep(self.tick_interval)
            else:
                await asyncio.sleep(0)  # yield to awaiters between ticks

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Stop the driver, fail leftover awaiters, close the server."""
        if self._closed:
            return
        self._closed = True
        if self._driver is not None:
            if self._work is not None:
                self._work.set()  # unpark so the loop sees _closed
            self._driver.cancel()
            try:
                await self._driver
            except (asyncio.CancelledError, Exception):
                pass
        for _, future in self._pending.values():
            if not future.done():
                future.set_exception(ServeError("frontend closed"))
        self._pending.clear()
        await self._call(self.server.close)
        self._executor.shutdown(wait=True)


__all__ = ["AsyncFrontend"]
