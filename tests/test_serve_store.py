"""SessionStore eviction policy, MicroBatcher scheduling, metrics, loadgen."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigError
from repro.serve import MicroBatcher, ServerMetrics, SessionStore
from repro.serve.loadgen import (
    WORKLOAD_KINDS,
    generate_scripts,
    generate_zipf_scripts,
    tenant_of,
)
from repro.serve.metrics import _percentile_from_histogram


class TestSessionStore:
    def test_create_get_touch_remove(self):
        store = SessionStore(capacity=4)
        record = store.create("a", tick=0)
        assert "a" in store and len(store) == 1
        store.touch("a", tick=5)
        assert store.get("a").last_active_tick == 5
        store.remove("a")
        assert "a" not in store
        with pytest.raises(ConfigError):
            store.get("a")

    def test_duplicate_create_rejected(self):
        store = SessionStore(capacity=4)
        store.create("a", tick=0)
        with pytest.raises(ConfigError):
            store.create("a", tick=1)

    def test_ttl_eviction(self):
        store = SessionStore(capacity=4, ttl_ticks=3)
        store.create("a", tick=0)
        store.create("b", tick=0)
        store.touch("b", tick=4)
        assert store.evict_expired(tick=4) == ["a"]  # idle 4 > ttl 3
        assert "a" not in store and "b" in store

    def test_ttl_protects_pending_sessions(self):
        store = SessionStore(capacity=4, ttl_ticks=1)
        store.create("a", tick=0)
        assert store.evict_expired(tick=10, protect={"a"}) == []
        assert "a" in store

    def test_lru_eviction_on_full_create(self):
        evicted = []
        store = SessionStore(
            capacity=2,
            on_evict=lambda sid, reason: evicted.append((sid, reason)),
        )
        store.create("a", tick=0)
        store.create("b", tick=1)
        store.touch("a", tick=2)  # b is now least recently active
        store.create("c", tick=3)
        assert evicted == [("b", "lru")]
        assert store.ids() == ["a", "c"]

    def test_full_store_without_lru_raises(self):
        store = SessionStore(capacity=1, lru_evict=False)
        store.create("a", tick=0)
        with pytest.raises(CapacityError):
            store.create("b", tick=1)

    def test_protected_sessions_never_lru_victims(self):
        store = SessionStore(capacity=2)
        store.create("a", tick=0)
        store.create("b", tick=1)
        with pytest.raises(CapacityError):
            store.create("c", tick=2, protect={"a", "b"})

    def test_create_prefers_ttl_then_lru(self):
        evicted = []
        store = SessionStore(
            capacity=2, ttl_ticks=2,
            on_evict=lambda sid, reason: evicted.append((sid, reason)),
        )
        store.create("a", tick=0)
        store.create("b", tick=9)
        store.create("c", tick=10)  # a expired (idle 10 > 2) -> ttl, not lru
        assert evicted == [("a", "ttl")]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SessionStore(capacity=0)
        with pytest.raises(ConfigError):
            SessionStore(ttl_ticks=0)


class TestMicroBatcher:
    def test_waits_then_dispatches_at_latency_bound(self):
        batcher = MicroBatcher(max_batch=4, max_wait_ticks=2)
        batcher.submit("a", np.zeros(3), tick=0)
        assert batcher.next_batch(tick=0) == []
        assert batcher.next_batch(tick=1) == []
        batch = batcher.next_batch(tick=2)
        assert [r.session_id for r in batch] == ["a"]
        assert len(batcher) == 0

    def test_full_batch_dispatches_before_wait_bound(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ticks=100)
        batcher.submit("a", np.zeros(3), tick=0)
        batcher.submit("b", np.zeros(3), tick=0)
        assert len(batcher.next_batch(tick=0)) == 2

    def test_one_request_per_session_per_batch(self):
        batcher = MicroBatcher(max_batch=4, max_wait_ticks=0)
        for tick in (0, 0, 0):
            batcher.submit("a", np.zeros(3), tick=tick)
        batcher.submit("b", np.zeros(3), tick=0)
        batch = batcher.next_batch(tick=0)
        assert sorted(r.session_id for r in batch) == ["a", "b"]
        assert len(batcher) == 2  # a's later steps stay queued, in order
        assert [r.session_id for r in batcher.next_batch(tick=1)] == ["a"]

    def test_oldest_requests_dispatch_first(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ticks=0)
        batcher.submit("late", np.zeros(3), tick=5)
        batcher.submit("early", np.zeros(3), tick=1)
        batcher.submit("mid", np.zeros(3), tick=3)
        batch = batcher.next_batch(tick=5)
        assert [r.session_id for r in batch] == ["early", "mid"]

    def test_queue_capacity_backpressure(self):
        batcher = MicroBatcher(max_batch=2, queue_capacity=2)
        assert batcher.submit("a", np.zeros(3), tick=0) is not None
        assert batcher.submit("b", np.zeros(3), tick=0) is not None
        assert batcher.submit("c", np.zeros(3), tick=0) is None

    def test_drop_session_returns_queue(self):
        batcher = MicroBatcher(max_batch=2, queue_capacity=8)
        batcher.submit("a", np.zeros(3), tick=0)
        batcher.submit("a", np.zeros(3), tick=0)
        dropped = batcher.drop_session("a")
        assert len(dropped) == 2 and len(batcher) == 0
        assert batcher.drop_session("a") == []

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ConfigError):
            MicroBatcher(max_wait_ticks=-1)
        with pytest.raises(ConfigError):
            MicroBatcher(queue_capacity=0)

    def test_adopt_requeues_same_objects_in_order(self):
        """A migrated session's pending FIFO lands on the destination
        batcher as the same request objects, order preserved, submit
        ticks intact, re-stamped into the local sequence."""
        src = MicroBatcher(max_batch=4, max_wait_ticks=0)
        for tick in (0, 1, 2):
            src.submit("s", np.zeros(3), tick=tick)
        pending = src.drop_session("s")
        dst = MicroBatcher(max_batch=4, max_wait_ticks=0)
        dst.submit("other", np.zeros(3), tick=0)
        dst.adopt("s", pending)
        assert len(dst) == 4
        first = dst.next_batch(tick=5)
        assert {r.session_id for r in first} == {"other", "s"}
        adopted = next(r for r in first if r.session_id == "s")
        assert adopted is pending[0]  # identity, not a copy
        assert adopted.submitted_tick == 0
        # The remaining adopted requests drain in FIFO order.
        assert dst.next_batch(tick=6) == [pending[1]]
        assert dst.next_batch(tick=7) == [pending[2]]

    def test_adopt_empty_is_noop(self):
        batcher = MicroBatcher()
        batcher.adopt("s", [])
        assert len(batcher) == 0
        assert "s" not in batcher.pending_sessions()


class TestServerMetrics:
    def test_percentiles_exact_nearest_rank(self):
        hist = {1: 50, 2: 45, 10: 5}  # 100 samples
        assert _percentile_from_histogram(hist, 0.50) == 1.0
        assert _percentile_from_histogram(hist, 0.95) == 2.0
        assert _percentile_from_histogram(hist, 0.99) == 10.0
        assert _percentile_from_histogram({}, 0.5) is None

    def test_wait_and_occupancy_tracking(self):
        metrics = ServerMetrics()
        for wait in (0, 0, 1, 3):
            metrics.observe_wait(wait)
        metrics.observe_occupancy(0)
        metrics.observe_occupancy(4)
        metrics.observe_occupancy(4)
        p50, p95 = metrics.wait_percentiles()
        assert p50 == 0.0 and p95 == 3.0
        assert metrics.mean_occupancy() == 4.0
        assert metrics.mean_occupancy(include_idle=True) == pytest.approx(8 / 3)
        assert metrics.ticks == 3

    def test_snapshot_is_json_shaped(self):
        import json

        metrics = ServerMetrics()
        metrics.observe_wait(2)
        metrics.observe_occupancy(3)
        snap = metrics.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["p50_wait_ticks"] == 2.0
        assert snap["occupancy_histogram"] == {"3": 1}
        assert snap["migrations_in"] == 0 and snap["migrations_out"] == 0

    def test_merge_equals_recompute_from_events(self):
        """The cross-shard aggregation contract: merging per-shard
        metrics must equal one metrics object that observed every event
        itself — counters, histograms, and every derived statistic."""
        events = [
            (0, [(0, 3), (1, 2), (0, 0)], 128),   # (waits per tick,) ...
            (1, [(2, 4), (5, 4)], 256),
            (2, [(1, 1)], 0),
        ]
        parts = []
        reference = ServerMetrics()
        for shard, ticks, copied in events:
            part = ServerMetrics()
            for wait, occupancy in ticks:
                for sink in (part, reference):
                    sink.observe_wait(wait)
                    sink.observe_occupancy(occupancy)
                    sink.observe_slots(occupancy)
            part.observe_state_copy(copied)
            reference.observe_state_copy(copied)
            part.requests_completed = len(ticks)
            reference.requests_completed += len(ticks)
            part.migrations_in = shard  # arbitrary distinct counter values
            reference.migrations_in += shard
            parts.append(part)
        merged = ServerMetrics.merge(parts)
        assert merged.snapshot() == reference.snapshot()
        assert merged.wait_percentiles() == reference.wait_percentiles()
        assert merged.mean_occupancy() == reference.mean_occupancy()
        assert merged.state_bytes_per_tick() == reference.state_bytes_per_tick()

    def test_merge_of_nothing_is_fresh(self):
        assert ServerMetrics.merge([]).snapshot() == ServerMetrics().snapshot()

    def test_counters_tuple_is_complete(self):
        """Every plain integer counter must be listed in COUNTERS, or
        merge would silently drop it."""
        metrics = ServerMetrics()
        plain = {
            name for name, value in vars(metrics).items()
            if isinstance(value, int)
        }
        assert plain == set(ServerMetrics.COUNTERS)


class TestLoadGenerator:
    def test_same_seed_same_traffic(self):
        a = generate_scripts(input_size=8, num_sessions=6, rng=11)
        b = generate_scripts(input_size=8, num_sessions=6, rng=11)
        assert [s.session_id for s in a] == [s.session_id for s in b]
        assert [s.arrival_tick for s in a] == [s.arrival_tick for s in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)

    def test_different_seed_different_traffic(self):
        a = generate_scripts(input_size=8, num_sessions=6, rng=11)
        b = generate_scripts(input_size=8, num_sessions=6, rng=12)
        assert any(
            not np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b)
        )

    def test_mixed_workloads_and_shapes(self):
        scripts = generate_scripts(
            input_size=8, num_sessions=24, mean_session_len=6.0, rng=0
        )
        kinds = {s.kind for s in scripts}
        assert kinds == set(WORKLOAD_KINDS)
        assert all(s.inputs.shape == (s.length, 8) for s in scripts)
        assert all(s.length >= 2 for s in scripts)
        arrivals = [s.arrival_tick for s in scripts]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0  # arrivals actually spread out

    def test_simultaneous_arrivals_with_zero_interarrival(self):
        scripts = generate_scripts(
            input_size=8, num_sessions=5, mean_interarrival_ticks=0.0, rng=0
        )
        assert all(s.arrival_tick == 0 for s in scripts)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            generate_scripts(input_size=8, kinds=("nope",))


class TestZipfLoadGenerator:
    def test_same_seed_same_trace(self):
        """Identical seeds pin the identical trace: ids (tenants
        included), arrivals, lengths, and every input value."""
        a = generate_zipf_scripts(input_size=8, num_sessions=30, rng=21)
        b = generate_zipf_scripts(input_size=8, num_sessions=30, rng=21)
        assert [s.session_id for s in a] == [s.session_id for s in b]
        assert [s.arrival_tick for s in a] == [s.arrival_tick for s in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)

    def test_different_seed_different_trace(self):
        a = generate_zipf_scripts(input_size=8, num_sessions=30, rng=21)
        b = generate_zipf_scripts(input_size=8, num_sessions=30, rng=22)
        assert [s.session_id for s in a] != [s.session_id for s in b]

    def test_tenants_are_zipf_skewed(self):
        scripts = generate_zipf_scripts(
            input_size=8, num_sessions=120, num_tenants=8,
            zipf_exponent=1.3, rng=4,
        )
        counts = {}
        for script in scripts:
            tenant = tenant_of(script.session_id)
            counts[tenant] = counts.get(tenant, 0) + 1
        # The head tenant dominates any uniform share.
        assert max(counts.values()) > 2 * (120 // 8)
        assert len(counts) > 1

    def test_session_ids_carry_tenant_routing_key(self):
        scripts = generate_zipf_scripts(input_size=8, num_sessions=10, rng=0)
        for script in scripts:
            assert tenant_of(script.session_id).startswith("t")
            assert script.kind in WORKLOAD_KINDS

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_zipf_scripts(input_size=8, num_tenants=0)
        with pytest.raises(ConfigError):
            generate_zipf_scripts(input_size=8, zipf_exponent=0.0)
        with pytest.raises(ConfigError):
            generate_zipf_scripts(input_size=8, kinds=("nope",))
