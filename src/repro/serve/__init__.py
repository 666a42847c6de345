"""``repro.serve`` — micro-batching multi-session inference serving.

The serving layer turns the batched engine (PRs 1–2) into a multi-user
service: many independent, asynchronously arriving DNC sessions share
an engine, with per-session state resident in a slot-pinned
:class:`StateArena` (admission/eviction bookkeeping in a
capacity-bounded :class:`SessionStore`), scheduling by a
:class:`MicroBatcher`, and the loop driven by an engine-owning worker.

One engine-owning worker, :class:`EngineShard`, serves on its own as
the single-engine :class:`SessionServer` (an alias: the same class).
One cluster front door, :class:`ShardedServer`, routes over N shard
handles of either transport: pluggable session placement
(:class:`LeastLoadedPlacement` / :class:`ConsistentHashPlacement`) with
admission spill, optional rebalancing (:class:`HotSpotRebalance`) over
the checkpoint-based migration path, thread-parallel ticks, and
exact cluster-wide metrics via :meth:`ServerMetrics.merge`.

* in process — the handles are :class:`EngineShard` objects;
* in worker processes — :class:`ProcCluster` is the same front door
  over :class:`ProcWorker` handles (length-prefixed framed RPC, one
  failure domain per worker) with checkpoint/replay crash recovery
  through a :class:`CheckpointSupervisor`: a SIGKILLed worker's
  sessions are restored on a replacement process with their
  trajectories intact.

:class:`AsyncFrontend` wraps any of these servers in an awaitable
per-request asyncio API.  It is imported on first access (so are
``asyncio`` and its event loop machinery): a server that no coroutine
drives never loads them.

:mod:`repro.serve.loadgen` generates deterministic open-loop traffic —
uniform or Zipf-tenant-skewed (:func:`generate_zipf_scripts`, the
hot-shard mix) — and replays it against any of these servers
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
    RebalancePolicy,
)
from repro.serve.session import SessionRecord, SessionStore
from repro.serve.shard import EngineShard
from repro.serve.supervisor import CheckpointSupervisor

#: The single-engine server is one shard served on its own.
SessionServer = EngineShard


def __getattr__(name: str):
    if name == "AsyncFrontend":
        from repro.serve.frontend import AsyncFrontend

        return AsyncFrontend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "ConsistentHashPlacement",
    "RebalancePolicy",
    "HotSpotRebalance",
    "SessionServer",
    "SessionRecord",
    "SessionStore",
    "EngineShard",
    "CheckpointSupervisor",
]
