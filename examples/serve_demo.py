"""Serving demo: many users, one batched HiMA engine — then clusters.

Opens a handful of DNC sessions that arrive at different times, streams
their inputs through the micro-batching :class:`repro.serve.SessionServer`,
and prints the scheduler's metrics — then shows that every session's
outputs are numerically identical to running that session alone through
the unbatched engine.  The later sections scale the same serving surface
horizontally: a :class:`repro.serve.ShardedServer` routes Zipf-skewed
tenant traffic across four engine shards with tenant-keyed consistent
hashing (hot-spot rebalancing migrates sessions off the overloaded shard
mid-stream via the byte-level checkpoint path), and a
:class:`repro.serve.ProcCluster` hosts each shard in its own worker
*process* — surviving a SIGKILLed worker mid-stream through
checkpoint/replay recovery without perturbing a single trajectory.
The final section traces a request end to end across the process
cluster and prints the span tree plus the per-phase engine profile.

Every server object is a context manager; ``with`` blocks below are the
recommended usage — worker threads and child processes are released even
when the serving code raises.

Run:  python examples/serve_demo.py
"""

import numpy as np

from repro.core import HiMAConfig, TiledEngine
from repro.serve import (
    ConsistentHashPlacement,
    HotSpotRebalance,
    ProcCluster,
    SessionServer,
    ShardedServer,
    generate_scripts,
    generate_zipf_scripts,
    run_open_loop,
    tenant_of,
)

config = HiMAConfig(
    memory_size=64, word_size=16, num_reads=2, num_tiles=4, hidden_size=32,
    two_stage_sort=False,
)

# ---------------------------------------------------------------------------
# 1. A server over one shared engine; traffic bounded for long-running use.
# ---------------------------------------------------------------------------
print("=== 1. Micro-batching session server ===")
engine = TiledEngine(config, rng=0, traffic_max_events=4096)
with SessionServer(
    engine,
    max_batch=8,          # up to 8 sessions share one engine step
    max_wait_ticks=2,     # latency bound: no request waits longer to batch
    session_capacity=16,  # per-session state is O(N^2); bound it
    session_ttl_ticks=50, # idle sessions are evicted
) as server:
    scripts = generate_scripts(
        input_size=engine.reference.config.input_size,
        num_sessions=10, mean_session_len=8.0, mean_interarrival_ticks=1.0,
        rng=42,
    )
    for s in scripts[:4]:
        print(f"  {s.session_id:10s} arrives tick {s.arrival_tick:2d}, "
              f"{s.length} steps ({s.kind})")
    print(f"  ... {len(scripts)} sessions total")

    results = run_open_loop(server, scripts)

    # -----------------------------------------------------------------------
    # 2. Scheduler metrics: latency in ticks, batch occupancy, admissions.
    # -----------------------------------------------------------------------
    print("\n=== 2. Server metrics ===")
    snap = server.metrics.snapshot()
    print(f"requests completed: {snap['requests_completed']} "
          f"in {snap['ticks']} scheduler ticks")
    print(f"latency p50/p95:    {snap['p50_wait_ticks']}"
          f"/{snap['p95_wait_ticks']} ticks")
    print(f"mean batch size:    {snap['mean_batch_occupancy']:.2f} "
          f"(histogram {snap['occupancy_histogram']})")
    print(f"admission rejects:  {snap['admission_rejects']}, "
          f"evictions: {snap['evictions_ttl']} ttl + {snap['evictions_lru']} lru")
    print(f"traffic log: {len(engine.traffic.events)} retained events, "
          f"{engine.traffic.total_words():,} total words (exact under compaction)")

# ---------------------------------------------------------------------------
# 3. Correctness: served == each session stepped alone, unbatched.
# ---------------------------------------------------------------------------
print("\n=== 3. Served outputs vs solo unbatched runs ===")
worst = 0.0
for script in scripts:
    served = np.stack([r.y for r in results[script.session_id]])
    solo = engine.run(script.inputs)
    worst = max(worst, float(np.max(np.abs(served - solo))))
print(f"max abs diff across all sessions: {worst:.2e} (bound 1e-10)")

# ---------------------------------------------------------------------------
# 4. Sharded serving: a 4-shard cluster under Zipf-skewed tenant load.
#    Tenant-keyed consistent hashing piles the head tenants onto a few
#    shards; HotSpotRebalance migrates sessions off the hot shard through
#    the checkpoint path (one slot read + one slot write) mid-stream.
# ---------------------------------------------------------------------------
print("\n=== 4. Sharded cluster: skewed tenants, hot-spot rebalancing ===")
zipf_scripts = generate_zipf_scripts(
    input_size=engine.reference.config.input_size,
    num_sessions=24, num_tenants=6, zipf_exponent=1.4,
    mean_session_len=6.0, mean_interarrival_ticks=0.5, rng=7,
)
tenants = sorted({tenant_of(s.session_id) for s in zipf_scripts})
print(f"{len(zipf_scripts)} sessions across tenants {', '.join(tenants)}")

with ShardedServer(
    [TiledEngine(config, rng=0, traffic_max_events=4096) for _ in range(4)],
    max_batch=8,
    max_wait_ticks=2,
    session_capacity=12,   # per shard
    placement=ConsistentHashPlacement(key_of=tenant_of),
    rebalance=HotSpotRebalance(max_spread=2, max_moves=2),
) as cluster:
    zipf_results = run_open_loop(cluster, zipf_scripts)
    snap = cluster.snapshot()
print(f"cluster served {snap['requests_completed']} requests on "
      f"{snap['shards']} shards in {snap['cluster_ticks']} cluster ticks")
print(f"sessions migrated off hot shards: {snap['sessions_migrated']}")
print("per-shard completions:",
      [s["requests_completed"] for s in snap["per_shard"]])

worst = 0.0
solo_engine = TiledEngine(config, rng=0)
for script in zipf_scripts:
    served = np.stack([r.y for r in zipf_results[script.session_id]])
    solo = solo_engine.run(script.inputs)
    worst = max(worst, float(np.max(np.abs(served - solo))))
print(f"max abs diff vs solo runs, migrations included: {worst:.2e} "
      f"(bound 1e-10)")

# ---------------------------------------------------------------------------
# 5. Process cluster: worker processes, one SIGKILLed mid-stream.
#    Each shard lives in its own child process behind framed RPC; the
#    parent checkpoints session state, so killing a worker -9 loses
#    nothing — its sessions are restored onto a fresh process and their
#    trajectories continue exactly where the checkpoint left them.
# ---------------------------------------------------------------------------
print("\n=== 5. Process cluster: crash mid-stream, recover, verify ===")
with ProcCluster(
    config,
    seed=0,
    num_workers=2,
    max_batch=8,
    max_wait_ticks=2,
    session_capacity=24,
    checkpoint_interval=4,
) as proc_cluster:
    proc_results = {s.session_id: [] for s in zipf_scripts}
    for script in zipf_scripts:
        proc_cluster.open_session(script.session_id)
        proc_results[script.session_id] = [
            proc_cluster.submit(script.session_id, x) for x in script.inputs
        ]
    for tick in range(1, 200):
        proc_cluster.run_tick()
        if tick == 3:  # SIGKILL a worker with traffic in flight
            proc_cluster.kill_worker(0)
        if proc_cluster.queue_depth == 0:
            break
    print(f"worker restarts: {proc_cluster.worker_restarts}, "
          f"sessions recovered: {proc_cluster.supervisor.sessions_recovered}, "
          f"checkpoints taken: {proc_cluster.supervisor.checkpoints_taken}")
print("worker processes reaped:",
      all(not w.process.is_alive() for w in proc_cluster.workers))

worst = 0.0
solo_engine = TiledEngine(config, rng=0)
for script in zipf_scripts:
    served = np.stack([r.y for r in proc_results[script.session_id]])
    solo = solo_engine.run(script.inputs)
    worst = max(worst, float(np.max(np.abs(served - solo))))
print(f"max abs diff vs solo runs, kill included: {worst:.2e} (bound 1e-10)")

# ---------------------------------------------------------------------------
# 6. Large-N sparse serving: memory_size=1024 with top-K access.
#    Dense content addressing and linkage updates are O(N^2) per step —
#    unservable in the thousands of slots.  The sparse access policy
#    (access_policy="sparse", access_top_k=K) truncates addressing to
#    the K best slots and updates only the written linkage rows, so the
#    same serving stack handles N=1024+ (perf/'s ``resident_sparse``
#    workload times it; tests/test_sparse_access.py bounds the accuracy
#    delta vs dense float64).
# ---------------------------------------------------------------------------
print("\n=== 6. Large-N sparse serving: N=1024, top-K access ===")
sparse_config = HiMAConfig(
    memory_size=1024, word_size=16, num_reads=1, num_tiles=8, hidden_size=32,
    two_stage_sort=False, access_policy="sparse", access_top_k=64,
)
print(f"memory_size={sparse_config.memory_size}, "
      f"access_policy={sparse_config.access_policy!r}, "
      f"top_k={sparse_config.access_top_k}")
sparse_engine = TiledEngine(sparse_config, rng=0, traffic_max_events=4096)
sparse_scripts = generate_zipf_scripts(
    input_size=sparse_engine.reference.config.input_size,
    num_sessions=8, num_tenants=4, mean_session_len=4.0,
    mean_interarrival_ticks=0.5, rng=11,
)
with SessionServer(
    sparse_engine,
    max_batch=8,
    max_wait_ticks=2,
    session_capacity=8,
) as sparse_server:
    sparse_results = run_open_loop(sparse_server, sparse_scripts)
    snap = sparse_server.metrics.snapshot()
print(f"served {snap['requests_completed']} requests at N=1024 in "
      f"{snap['ticks']} ticks (mean batch {snap['mean_batch_occupancy']:.2f})")

worst = 0.0
solo_sparse = TiledEngine(sparse_config, rng=0)
for script in sparse_scripts:
    served = np.stack([r.y for r in sparse_results[script.session_id]])
    solo = solo_sparse.run(script.inputs)
    worst = max(worst, float(np.max(np.abs(served - solo))))
print(f"max abs diff vs solo sparse runs: {worst:.2e} (bound 1e-10)")

# ---------------------------------------------------------------------------
# 7. Observability: trace one request across processes, profile phases.
#    A Tracer attached to the cluster collects one span tree per traced
#    request — frontend/router spans in this process, shard/engine spans
#    in the worker processes (the trace context rides the RPC frame
#    header; workers drain their spans into tick replies).  profile=True
#    attaches per-phase engine timers, and the flight recorder keeps
#    each worker's last-K ticks for post-mortems.  All of it is pure
#    timing and counting: traced trajectories are bitwise the untraced
#    ones (perf/ prices it per workload as obs.trace.overhead_frac).
# ---------------------------------------------------------------------------
print("\n=== 7. Observability: cross-process span tree, phase profile ===")
from repro.obs import Tracer, render_span_tree  # noqa: E402

tracer = Tracer()
with ProcCluster(
    config,
    seed=0,
    num_workers=2,
    max_batch=8,
    max_wait_ticks=2,
    tracer=tracer,
    profile=True,
    flight_recorder=16,
) as obs_cluster:
    sid = obs_cluster.open_session("t00-traced-0")
    traced = [obs_cluster.submit(sid, x) for x in zipf_scripts[0].inputs[:3]]
    while not all(r.done for r in traced):
        obs_cluster.run_tick()
    phase_profile = obs_cluster.cluster_profile()

print("span tree (one traced request's serving ticks):")
print(render_span_tree(tracer.records()))
total = sum(entry["seconds"] for entry in phase_profile.values()) or 1.0
print("\nper-phase engine breakdown (merged across workers):")
for phase, entry in sorted(
    phase_profile.items(), key=lambda kv: -kv[1]["seconds"]
):
    print(f"  {phase:22s} {entry['seconds'] * 1e3:8.3f} ms "
          f"({100.0 * entry['seconds'] / total:5.1f}%)  "
          f"calls={entry['count']}")
