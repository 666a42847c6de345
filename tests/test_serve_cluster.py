"""Sharded serving: routing policies, cluster correctness, migration.

The acceptance bar for the router + engine-shard cluster: served
trajectories under :class:`ShardedServer` — any shard count, with
mid-stream checkpoint migrations included — must match solo unbatched
stepping to <= 1e-10; a migrated session's post-migration trajectory
must be **bitwise** identical to the never-migrated run at equal
dispatch order; and the 1-shard cluster must behave exactly like the
single-engine :class:`SessionServer` it generalizes.
"""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.dnc.state import NumpyDNCState
from repro.errors import CapacityError, ConfigError
from repro.serve import (
    ConsistentHashPlacement,
    EngineShard,
    HotSpotRebalance,
    LeastLoadedPlacement,
    ServerMetrics,
    SessionServer,
    ShardedServer,
    generate_zipf_scripts,
    run_open_loop,
    tenant_of,
)
from repro.serve.loadgen import SessionScript


def serve_config(**features):
    base = dict(
        memory_size=32, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, two_stage_sort=False,
    )
    base.update(features)
    return HiMAConfig(**base)


def make_engines(count, **features):
    return [TiledEngine(serve_config(**features), rng=0) for _ in range(count)]


def make_cluster(num_shards, parallel=False, **kwargs):
    defaults = dict(max_batch=4, max_wait_ticks=1, session_capacity=8)
    defaults.update(kwargs)
    features = defaults.pop("features", {})
    return ShardedServer(
        make_engines(num_shards, **features), parallel=parallel, **defaults
    )


def scripted(session_id, arrival, inputs):
    return SessionScript(
        session_id=session_id, arrival_tick=arrival, kind="copy",
        inputs=np.asarray(inputs),
    )


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------


class _FakeShard:
    def __init__(self, load, queue_depth=0):
        self.load = load
        self.queue_depth = queue_depth


class TestPlacementPolicies:
    def test_least_loaded_picks_min_sessions_then_queue_then_index(self):
        policy = LeastLoadedPlacement()
        shards = [_FakeShard(3), _FakeShard(1), _FakeShard(1, queue_depth=5)]
        assert policy.place("x", shards) == 1
        shards = [_FakeShard(2), _FakeShard(2), _FakeShard(2)]
        assert policy.place("x", shards) == 0

    def test_consistent_hash_is_deterministic_across_instances(self):
        shards = [_FakeShard(0)] * 4
        a = ConsistentHashPlacement()
        b = ConsistentHashPlacement()
        ids = [f"session-{i}" for i in range(50)]
        assert [a.place(s, shards) for s in ids] == [
            b.place(s, shards) for s in ids
        ]

    def test_consistent_hash_spreads_and_groups_by_key(self):
        shards = [_FakeShard(0)] * 4
        policy = ConsistentHashPlacement(key_of=tenant_of)
        placements = {
            f"t{t:02d}-copy-{i}": policy.place(f"t{t:02d}-copy-{i}", shards)
            for t in range(8) for i in range(5)
        }
        # Co-tenant sessions always land together...
        for t in range(8):
            tenant_shards = {
                placements[f"t{t:02d}-copy-{i}"] for i in range(5)
            }
            assert len(tenant_shards) == 1, t
        # ...and the tenants themselves use more than one shard.
        assert len(set(placements.values())) > 1

    def test_hash_ring_mostly_stable_when_growing(self):
        """Consistent hashing's point: adding shards remaps only the keys
        whose ring arc moved, not the whole population."""
        policy = ConsistentHashPlacement()
        ids = [f"session-{i}" for i in range(200)]
        before = [policy.place(s, [_FakeShard(0)] * 4) for s in ids]
        after = [policy.place(s, [_FakeShard(0)] * 5) for s in ids]
        moved = sum(1 for x, y in zip(before, after) if x != y)
        assert moved < len(ids) // 2  # naive modulo would move ~80%


# ---------------------------------------------------------------------------
# Cluster correctness vs solo stepping
# ---------------------------------------------------------------------------


class TestClusterNumericalIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("parallel", [False, True], ids=["seq", "threads"])
    def test_cluster_matches_solo_runs(self, num_shards, parallel, rng):
        cluster = make_cluster(num_shards, parallel=parallel)
        scripts = [
            scripted(f"s{i}", i % 3, rng.standard_normal((4 + i % 4, 16)))
            for i in range(7)
        ]
        results = run_open_loop(cluster, scripts)
        cluster.close()
        solo = TiledEngine(serve_config(), rng=0)
        for script in scripts:
            served = np.stack([r.y for r in results[script.session_id]])
            expected = solo.run(script.inputs)
            assert np.max(np.abs(served - expected)) <= 1e-10, script.session_id

    def test_one_shard_cluster_matches_session_server_bitwise(self, rng):
        """The 1-shard special case: identical engine, identical dispatch
        order, therefore identical bits."""
        scripts = [
            scripted(f"s{i}", 0, rng.standard_normal((5, 16)))
            for i in range(4)
        ]
        cluster = make_cluster(1)
        cluster_results = run_open_loop(cluster, scripts)
        cluster.close()
        server = SessionServer(
            TiledEngine(serve_config(), rng=0),
            max_batch=4, max_wait_ticks=1, session_capacity=8,
        )
        server_results = run_open_loop(server, scripts)
        for script in scripts:
            a = np.stack([r.y for r in cluster_results[script.session_id]])
            b = np.stack([r.y for r in server_results[script.session_id]])
            assert np.array_equal(a, b), script.session_id

    def test_parallel_ticks_bitwise_match_sequential(self, rng):
        """Shards share nothing: thread-parallel cluster ticks must be
        bit-identical to sequential ones."""
        scripts = [
            scripted(f"s{i}", 0, rng.standard_normal((6, 16)))
            for i in range(6)
        ]
        outs = {}
        for parallel in (False, True):
            cluster = make_cluster(3, parallel=parallel)
            results = run_open_loop(cluster, scripts)
            cluster.close()
            outs[parallel] = {
                sid: np.stack([r.y for r in reqs])
                for sid, reqs in results.items()
            }
        for sid in outs[False]:
            assert np.array_equal(outs[False][sid], outs[True][sid]), sid


# ---------------------------------------------------------------------------
# Checkpoint-based migration
# ---------------------------------------------------------------------------


class TestMigration:
    def test_migrated_session_matches_solo_with_pending_queue(self, rng):
        """Mid-stream migration with requests still queued: nothing
        fails, and the whole trajectory matches the solo run."""
        cluster = make_cluster(2)
        inputs = {f"s{i}": rng.standard_normal((6, 16)) for i in range(4)}
        requests = {}
        for sid, xs in inputs.items():
            assert cluster.open_session(sid) == sid
            requests[sid] = [cluster.submit(sid, x) for x in xs]
        cluster.run_tick()
        victim = "s0"
        src = cluster.shard_of(victim)
        cluster.migrate_session(victim, 1 - src)
        assert cluster.shard_of(victim) == 1 - src
        assert cluster.migrations == 1
        cluster.drain()
        cluster.close()
        solo = TiledEngine(serve_config(), rng=0)
        for sid, xs in inputs.items():
            assert all(r.done and r.error is None for r in requests[sid]), sid
            served = np.stack([r.y for r in requests[sid]])
            assert np.max(np.abs(served - solo.run(xs))) <= 1e-10, sid

    def test_post_migration_trajectory_bitwise_at_equal_dispatch(self, rng):
        """At equal dispatch order (the session steps alone in its batch
        before and after the move), migrating is invisible: the continued
        trajectory is bitwise the never-migrated one."""
        inputs = rng.standard_normal((6, 16))

        def run(migrate_at):
            cluster = make_cluster(2, max_batch=2, max_wait_ticks=0,
                                   session_capacity=2)
            cluster.open_session("solo")
            ys = []
            for t, x in enumerate(inputs):
                if migrate_at == t:
                    cluster.migrate_session(
                        "solo", 1 - cluster.shard_of("solo")
                    )
                request = cluster.submit("solo", x)
                cluster.run_tick()
                ys.append(request.y)
            state = cluster.session_state("solo")
            cluster.close()
            return np.stack(ys), state

        y_stay, state_stay = run(migrate_at=None)
        y_move, state_move = run(migrate_at=3)
        assert np.array_equal(y_stay, y_move)
        for name in NumpyDNCState.FIELDS:
            assert np.array_equal(
                getattr(state_stay, name), getattr(state_move, name)
            ), name

    def test_checkpoint_restore_across_shards_is_bitwise(self, rng):
        cluster = make_cluster(2)
        cluster.open_session("a")
        for x in rng.standard_normal((3, 16)):
            cluster.submit("a", x)
        cluster.drain()
        payload = cluster.checkpoint_session("a")
        state = cluster.session_state("a")
        other = cluster.shards[1 - cluster.shard_of("a")]
        other.restore_session("copy-of-a", payload)
        restored = other.session_state("copy-of-a")
        for name in NumpyDNCState.FIELDS:
            assert np.array_equal(
                getattr(state, name), getattr(restored, name)
            ), name
        cluster.close()

    def test_migration_to_full_shard_refused_and_session_survives(self, rng):
        cluster = make_cluster(2, session_capacity=1)
        placements = {}
        for sid in ("a", "b"):
            cluster.open_session(sid)
            placements[sid] = cluster.shard_of(sid)
        with pytest.raises(CapacityError):
            cluster.migrate_session("a", 1 - placements["a"])
        assert cluster.shard_of("a") == placements["a"]
        cluster.submit("a", rng.standard_normal(16))
        completed = cluster.drain()
        assert len(completed) == 1 and completed[0].error is None
        cluster.close()

    def test_failed_attach_puts_the_session_back_on_its_source(
        self, rng, monkeypatch
    ):
        cluster = make_cluster(2)
        cluster.open_session("a")
        src = cluster.shard_of("a")
        queued = [cluster.submit("a", x) for x in rng.standard_normal((2, 16))]

        def refuse(*args):
            raise CapacityError("destination refused the attach")

        monkeypatch.setattr(cluster.shards[1 - src], "attach_session", refuse)
        with pytest.raises(CapacityError):
            cluster.migrate_session("a", 1 - src)
        assert cluster.shard_of("a") == src and cluster.migrations == 0
        cluster.drain()
        assert all(r.done and r.error is None for r in queued)
        cluster.close()

    def test_detach_attach_preserves_request_objects_in_order(self, rng):
        shard_a, shard_b = make_cluster(2).shards
        shard_a.open_session("s")
        submitted = [
            shard_a.submit("s", rng.standard_normal(16)) for _ in range(3)
        ]
        payload, pending = shard_a.detach_session("s")
        assert pending == submitted  # same objects, same order
        assert shard_a.queue_depth == 0 and "s" not in shard_a.store
        assert shard_a.metrics.migrations_out == 1
        shard_b.attach_session("s", payload, pending)
        assert shard_b.queue_depth == 3
        assert shard_b.metrics.migrations_in == 1
        completed = shard_b.drain()
        assert completed == submitted
        assert all(r.error is None for r in completed)


# ---------------------------------------------------------------------------
# Rebalancing under skewed load
# ---------------------------------------------------------------------------


class TestRebalancing:
    def test_hot_spot_plan_moves_lru_from_hot_to_cold(self):
        cluster = make_cluster(2, session_capacity=8)
        for i in range(5):
            cluster.shards[0].open_session(f"hot-{i}")
        policy = HotSpotRebalance(max_spread=2, max_moves=2)
        moves = policy.plan(cluster.shards)
        # LRU-first victims, hot shard 0 -> cold shard 1, spread closes.
        assert moves == [("hot-0", 0, 1), ("hot-1", 0, 1)]
        cluster.close()

    def test_zipf_load_rebalances_and_stays_correct(self):
        cluster = make_cluster(
            4, session_capacity=12, max_batch=8,
            placement=ConsistentHashPlacement(key_of=tenant_of),
            rebalance=HotSpotRebalance(max_spread=2, max_moves=2),
        )
        scripts = generate_zipf_scripts(
            input_size=16, num_sessions=20, num_tenants=5,
            zipf_exponent=1.5, mean_session_len=5.0,
            mean_interarrival_ticks=0.5, rng=13,
        )
        results = run_open_loop(cluster, scripts)
        cluster.close()
        assert cluster.migrations > 0
        solo = TiledEngine(serve_config(), rng=0)
        checked = 0
        for script in scripts:
            requests = results[script.session_id]
            assert len(requests) == script.length
            served = np.stack([r.y for r in requests])
            expected = solo.run(script.inputs)
            assert np.max(np.abs(served - expected)) <= 1e-10
            checked += 1
        assert checked == len(scripts)


# ---------------------------------------------------------------------------
# Cluster surface: sessions, metrics, validation
# ---------------------------------------------------------------------------


class TestClusterSurface:
    def test_least_loaded_default_balances_opens(self):
        cluster = make_cluster(4)
        for _ in range(8):
            cluster.open_session()
        assert [shard.load for shard in cluster.shards] == [2, 2, 2, 2]
        cluster.close()

    def test_snapshot_merges_shard_metrics_exactly(self, rng):
        cluster = make_cluster(2)
        for i in range(4):
            sid = cluster.open_session()
            cluster.submit(sid, rng.standard_normal(16))
        cluster.drain()
        snap = cluster.snapshot()
        merged = ServerMetrics.merge(
            shard.metrics for shard in cluster.shards
        )
        assert snap["requests_completed"] == 4
        assert snap["requests_completed"] == merged.requests_completed
        assert snap["shards"] == 2
        assert snap["sessions_migrated"] == 0
        assert len(snap["per_shard"]) == 2
        assert sum(s["requests_completed"] for s in snap["per_shard"]) == 4
        cluster.close()

    def test_lru_eviction_during_open_updates_routing_table(self):
        """Admitting a session may LRU-evict another one inside the
        shard; the victim must leave the routing table immediately, not
        at the next tick."""
        cluster = make_cluster(1, session_capacity=2)
        cluster.open_session("a")
        cluster.open_session("b")
        cluster.open_session("c")  # shard evicts idle "a" to make room
        assert cluster.session_count == 2
        with pytest.raises(ConfigError):
            cluster.shard_of("a")
        # The id is free again: reopening it must not hit a phantom.
        assert cluster.open_session("a") == "a"
        cluster.close()

    def test_eviction_updates_routing_table(self, rng):
        cluster = make_cluster(1, session_ttl_ticks=2)
        sid = cluster.open_session()
        cluster.submit(sid, rng.standard_normal(16))
        cluster.drain()
        for _ in range(4):
            cluster.run_tick()  # session idles past its TTL
        assert cluster.session_count == 0
        with pytest.raises(ConfigError):
            cluster.submit(sid, rng.standard_normal(16))
        cluster.close()

    def test_close_session_routes_and_unmaps(self, rng):
        cluster = make_cluster(2)
        sid = cluster.open_session()
        cluster.close_session(sid)
        assert cluster.session_count == 0
        with pytest.raises(ConfigError):
            cluster.shard_of(sid)
        cluster.close()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardedServer()  # neither engines nor factory
        with pytest.raises(ConfigError):
            ShardedServer([])
        mixed = [
            TiledEngine(serve_config(), rng=0),
            TiledEngine(serve_config(memory_size=64), rng=0),
        ]
        with pytest.raises(ConfigError):
            ShardedServer(mixed)
        reseeded = [
            TiledEngine(serve_config(), rng=0),
            TiledEngine(serve_config(), rng=1),
        ]
        with pytest.raises(ConfigError):
            ShardedServer(reseeded)
        cluster = make_cluster(2)
        cluster.open_session("dup")
        with pytest.raises(ConfigError):
            cluster.open_session("dup")
        with pytest.raises(ConfigError):
            cluster.submit("missing", np.zeros(16))
        with pytest.raises(ConfigError):
            cluster.migrate_session("dup", 7)
        cluster.close()

    def test_engine_factory_construction(self):
        cluster = ShardedServer(
            engine_factory=lambda: TiledEngine(serve_config(), rng=0),
            num_shards=3,
            max_batch=4, session_capacity=4,
        )
        assert cluster.num_shards == 3
        assert all(isinstance(s, EngineShard) for s in cluster.shards)
        cluster.close()
