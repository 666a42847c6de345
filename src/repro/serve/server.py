"""The micro-batching session server: many users, one batched engine.

:class:`SessionServer` is the serving layer's single-engine front door.
Clients open sessions, submit one timestep of input at a time, and the
server packs whatever sessions have pending work into a single batched
:meth:`~repro.core.engine.TiledEngine.step` per scheduler tick — so the
per-request cost approaches the engine's banked B=16 batched throughput
instead of the pay-full-price-per-user sequential path.

Since the sharding PR the implementation lives in
:class:`repro.serve.shard.EngineShard` — the engine-owning worker
(store + batcher + arena + masked-step dispatch) that
:class:`repro.serve.cluster.ShardedServer` composes N of.
``SessionServer`` *is* the 1-shard special case: a subclass pinning
``shard_id=0`` and keeping the original constructor signature, so
every pre-sharding call site and test runs unmodified.  See
:mod:`repro.serve.shard` for the state-residency and correctness
contracts, and :mod:`repro.serve.cluster` for multi-shard serving.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import TiledEngine
from repro.obs import PhaseTimer, Tracer
from repro.serve.metrics import ServerMetrics
from repro.serve.shard import EngineShard


class SessionServer(EngineShard):
    """Serve asynchronously arriving DNC sessions through one engine.

    The deterministic single-engine server: time advances only through
    :meth:`~repro.serve.shard.EngineShard.run_tick`, which makes the
    scheduling (and therefore every session's numerical trajectory)
    exactly reproducible.  An async I/O front-end would sit on top of
    this core, calling ``run_tick`` from its event loop (ROADMAP
    follow-up); horizontal scale sits beside it as
    :class:`repro.serve.cluster.ShardedServer`.
    """

    def __init__(
        self,
        engine: TiledEngine,
        max_batch: int = 16,
        max_wait_ticks: int = 2,
        queue_capacity: int = 1024,
        session_capacity: int = 64,
        session_ttl_ticks: Optional[int] = None,
        metrics: Optional[ServerMetrics] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[PhaseTimer] = None,
    ):
        super().__init__(
            engine,
            shard_id=0,
            max_batch=max_batch,
            max_wait_ticks=max_wait_ticks,
            queue_capacity=queue_capacity,
            session_capacity=session_capacity,
            session_ttl_ticks=session_ttl_ticks,
            metrics=metrics,
            tracer=tracer,
            profiler=profiler,
        )


__all__ = ["SessionServer"]
