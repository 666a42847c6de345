"""``repro.serve`` — micro-batching multi-session inference serving.

The serving layer turns the batched engine (PRs 1–2) into a multi-user
service: many independent, asynchronously arriving DNC sessions share
an engine, with per-session state resident in a slot-pinned
:class:`StateArena` (admission/eviction bookkeeping in a
capacity-bounded :class:`SessionStore`), scheduling by a
:class:`MicroBatcher`, and the loop driven by an engine-owning worker.

Two server front doors share that worker (:class:`EngineShard`):

* :class:`SessionServer` — the single-engine server (the 1-shard
  special case, API unchanged since PR 3);
* :class:`ShardedServer` — a router + engine-shard cluster: N shards,
  pluggable session placement (:class:`LeastLoadedPlacement` /
  :class:`RoundRobinPlacement` / :class:`ConsistentHashPlacement`),
  optional rebalancing (:class:`HotSpotRebalance` /
  :class:`QueueDepthRebalance`) over the checkpoint-based migration
  path, thread-parallel ticks, and exact cluster-wide metrics via
  :meth:`ServerMetrics.merge`.

A third front door leaves the process: :class:`ProcCluster` hosts each
shard in its own worker *process* (length-prefixed framed RPC, true
parallel ticks, one failure domain per worker) with checkpoint/replay
crash recovery through a :class:`CheckpointSupervisor` — a SIGKILLed
worker's sessions are restored on a replacement process with their
trajectories intact.  :class:`AsyncFrontend` wraps any of the three in
an awaitable per-request asyncio API.

:mod:`repro.serve.loadgen` generates deterministic open-loop traffic —
uniform or Zipf-tenant-skewed (:func:`generate_zipf_scripts`, the
hot-shard mix) — and replays it against any of the front doors
(:func:`run_open_loop`, :func:`run_rolling_restart`).  Timing the stack
is ``perf/``'s job (``python3 perf/run.py``).

Quickstart::

    from repro import HiMAConfig, TiledEngine
    from repro.serve import SessionServer

    server = SessionServer(TiledEngine(HiMAConfig(
        memory_size=32, word_size=16, num_tiles=4, hidden_size=32,
        two_stage_sort=False,
    )))
    sid = server.open_session()
    request = server.submit(sid, x)      # x: (input_size,)
    server.run_tick()                    # one batched engine step
    print(request.y, request.wait_ticks)
"""

from repro.serve.arena import StateArena
from repro.serve.batcher import MicroBatcher, StepRequest
from repro.serve.cluster import ShardedServer
from repro.serve.frontend import AsyncFrontend
from repro.serve.loadgen import (
    SessionScript,
    generate_scripts,
    generate_zipf_scripts,
    run_open_loop,
    run_rolling_restart,
    tenant_of,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.proc import ProcCluster, ProcWorker
from repro.serve.router import (
    ConsistentHashPlacement,
    HotSpotRebalance,
    LeastLoadedPlacement,
    PlacementPolicy,
    QueueDepthRebalance,
    RebalancePolicy,
    RoundRobinPlacement,
)
from repro.serve.server import SessionServer
from repro.serve.session import SessionRecord, SessionStore
from repro.serve.shard import EngineShard
from repro.serve.supervisor import CheckpointSupervisor

__all__ = [
    "StateArena",
    "MicroBatcher",
    "StepRequest",
    "ShardedServer",
    "AsyncFrontend",
    "SessionScript",
    "generate_scripts",
    "generate_zipf_scripts",
    "run_open_loop",
    "run_rolling_restart",
    "tenant_of",
    "ServerMetrics",
    "ProcCluster",
    "ProcWorker",
    "PlacementPolicy",
    "LeastLoadedPlacement",
    "RoundRobinPlacement",
    "ConsistentHashPlacement",
    "RebalancePolicy",
    "HotSpotRebalance",
    "QueueDepthRebalance",
    "SessionServer",
    "SessionRecord",
    "SessionStore",
    "EngineShard",
    "CheckpointSupervisor",
]
