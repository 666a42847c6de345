"""Observability: tracer/profiler/recorder units and the serving trees.

The obs package contract, end to end:

* :class:`~repro.obs.trace.Tracer` — bounded span ring, context
  propagation, drain/adopt (the cross-process hand-off), JSONL export
  plus its validator;
* :class:`~repro.obs.profiler.PhaseTimer` — per-phase engine
  attribution, merge/delta/state algebra, and the >= 90% attribution
  bar at N=256 (engine phases must account for the step, or the
  breakdown is decoration);
* :class:`~repro.obs.recorder.FlightRecorder` — last-K tick rings and
  the worker post-mortem path through
  :meth:`~repro.serve.supervisor.CheckpointSupervisor.on_worker_death`;
* the integration trees: a traced request through
  :class:`~repro.serve.frontend.AsyncFrontend` over a
  :class:`~repro.serve.proc.ProcCluster` must yield one connected span
  tree spanning at least two processes, exported as schema-valid JSONL.

Tracing must never perturb numerics — traced runs are checked against
solo stepping at the usual 1e-10 bar.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.backend import available_backends
from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.obs import (
    PHASES,
    SPAN_KEYS,
    FlightRecorder,
    PhaseTimer,
    Tracer,
    render_span_tree,
    validate_metrics_json,
    validate_trace_jsonl,
)
from repro.serve import (
    AsyncFrontend,
    ProcCluster,
    SessionServer,
    ShardedServer,
)

SEED = 7


def serve_config(**features):
    base = dict(
        memory_size=32, word_size=8, num_reads=1, num_tiles=4,
        hidden_size=16, two_stage_sort=False,
    )
    base.update(features)
    return HiMAConfig(**base)


def solo_trajectory(config, inputs):
    engine = TiledEngine(config, rng=SEED)
    return engine.run(np.asarray(inputs))


# ---------------------------------------------------------------------------
# Tracer units
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_lifecycle_and_context_propagation(self):
        tracer = Tracer()
        root = tracer.start("frontend.submit", attrs={"session": "s0"})
        child = tracer.start("router.submit", parent=root.context)
        grandchild = tracer.start("shard.submit", parent=child)
        tracer.end(grandchild)
        tracer.end(child, accepted=True)
        tracer.end(root)
        records = tracer.records()
        assert [r["name"] for r in records] == [
            "shard.submit", "router.submit", "frontend.submit",
        ]
        by_name = {r["name"]: r for r in records}
        assert by_name["router.submit"]["parent_id"] == root.span_id
        assert by_name["shard.submit"]["parent_id"] == child.span_id
        # One trace id threads the whole tree; the root has no parent.
        assert len({r["trace_id"] for r in records}) == 1
        assert by_name["frontend.submit"]["parent_id"] is None
        assert by_name["router.submit"]["attrs"] == {"accepted": True}
        for record in records:
            assert set(record) == set(SPAN_KEYS)
            assert record["t_end"] >= record["t_start"]

    def test_ring_bound_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.end(tracer.start(f"op{i}"))
        assert len(tracer.records()) == 4
        assert [r["name"] for r in tracer.records()] == [
            "op6", "op7", "op8", "op9",
        ]
        assert tracer.dropped == 6
        assert tracer.started == tracer.finished == 10
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_emit_commits_pretimed_interval(self):
        tracer = Tracer()
        parent = tracer.start("engine.step")
        tracer.emit("engine.phase:read", parent, 1.0, 1.5)
        tracer.end(parent)
        phase = tracer.records()[0]
        assert phase["t_start"] == 1.0 and phase["t_end"] == 1.5
        assert phase["parent_id"] == parent.span_id

    def test_drain_adopt_moves_records(self):
        worker, parent = Tracer(), Tracer()
        worker.end(worker.start("shard.tick"))
        drained = worker.drain()
        assert worker.records() == []
        assert parent.adopt(drained) == 1
        assert parent.records()[0]["name"] == "shard.tick"

    def test_export_jsonl_roundtrip_validates(self, tmp_path):
        tracer = Tracer()
        root = tracer.start("a")
        tracer.end(tracer.start("b", parent=root))
        tracer.end(root)
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path) == 2
        assert validate_trace_jsonl(path) == []
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2

    def test_validator_flags_malformed_records(self):
        good = {
            "trace_id": 1, "span_id": 2, "parent_id": None, "name": "ok",
            "t_start": 0.0, "t_end": 1.0, "pid": 1, "attrs": {},
        }
        bad_time = dict(good, span_id=3, t_start=2.0, t_end=1.0)
        missing = {k: v for k, v in good.items() if k != "name"}
        cross_trace = dict(good, span_id=4, parent_id=2, trace_id=9)
        lines = [json.dumps(r) for r in (good, bad_time, missing, cross_trace)]
        problems = validate_trace_jsonl(lines + ["{not json"])
        text = "\n".join(problems)
        assert "t_end < t_start" in text
        assert "missing key 'name'" in text
        assert "different trace" in text
        assert "invalid JSON" in text

    def test_render_span_tree_indents_children(self):
        tracer = Tracer()
        root = tracer.start("frontend.submit")
        child = tracer.start("router.submit", parent=root)
        tracer.end(child)
        tracer.end(root)
        tree = render_span_tree(tracer.records())
        lines = tree.splitlines()
        assert lines[0].startswith("trace ")
        assert any(line.startswith("  frontend.submit") for line in lines)
        assert any(line.startswith("    router.submit") for line in lines)


# ---------------------------------------------------------------------------
# PhaseTimer units
# ---------------------------------------------------------------------------


class TestPhaseTimer:
    def test_lap_accumulates_and_chains(self):
        timer = PhaseTimer()
        tp = timer.now()
        tp = timer.lap("controller", tp, nbytes=128)
        tp = timer.lap("read", tp)
        tp = timer.lap("controller", tp, nbytes=64)
        stats = timer.stats()
        assert stats["controller"]["count"] == 2
        assert stats["controller"]["bytes"] == 192
        assert stats["read"]["count"] == 1
        assert timer.total_seconds() == pytest.approx(
            sum(e["seconds"] for e in stats.values())
        )

    def test_merge_delta_state_algebra(self):
        a, b = PhaseTimer(), PhaseTimer()
        tp = a.now()
        tp = a.lap("read", tp, nbytes=10)
        tp = b.now()
        tp = b.lap("read", tp, nbytes=5)
        tp = b.lap("output", tp)
        before = a.stats()
        a.merge(b.stats())
        after = a.stats()
        assert after["read"]["count"] == 2
        assert after["read"]["bytes"] == 15
        diff = PhaseTimer.delta(before, after)
        assert diff["read"]["count"] == 1 and diff["read"]["bytes"] == 5
        assert diff["output"]["count"] == 1
        # State round-trip is exact.
        assert PhaseTimer.from_state(after).stats() == after
        # Merging nothing is a no-op; delta against None is the stats.
        a.merge(None)
        assert a.stats() == after
        assert PhaseTimer.delta(None, after) == after

    @pytest.mark.parametrize("backend", available_backends())
    def test_engine_phase_attribution_at_n256(self, backend):
        """Profiled phases account for >= 90% of step wall time at N=256.

        The bar that makes the per-phase breakdown trustworthy: at
        serving scale the engine step *is* its phases, so the sum of
        attributed phase seconds must essentially equal the measured
        step time — under every registered backend.  (Failing this
        means a meaningful slice of the step runs outside any
        phase bracket.)
        """
        import time

        config = serve_config(
            memory_size=256, word_size=16, num_tiles=8, hidden_size=32,
            backend=backend,
        )
        engine = TiledEngine(config, rng=SEED)
        inputs = np.sign(
            np.random.default_rng(3).standard_normal(
                (8, engine.reference.config.input_size)
            )
        )
        engine.run(inputs[:2])  # warm-up outside the measurement
        engine.profiler = PhaseTimer()
        start = time.perf_counter()
        engine.run(inputs)
        wall = time.perf_counter() - start
        attributed = engine.profiler.total_seconds()
        assert set(engine.profiler.stats()) <= set(PHASES)
        assert attributed >= 0.90 * wall
        engine.profiler = None

    def test_dncd_step_laps_every_phase_and_counts_its_blocks(self):
        """DNC-D runs the DNC's step body, so it laps the same six
        phases; its N^2 phases count the Nt local ``n x n`` linkage
        blocks a tile holds, i.e. 1/Nt of the DNC's figure."""
        stats = {}
        for distributed in (False, True):
            config = serve_config(
                memory_size=64, word_size=8, num_reads=2, num_tiles=4,
                distributed=distributed,
            )
            engine = TiledEngine(config, rng=SEED)
            engine.profiler = PhaseTimer()
            state = engine.initial_state(batch_size=2)
            engine.step(np.zeros((2, config.word_size)), state)
            stats[distributed] = engine.profiler.stats()
        assert set(stats[True]) == set(PHASES) - {"gather_scatter"}
        n, nt, b, item = 64, 4, 2, 8
        passes = engine.backend.read_linkage_passes
        for phase, link_cells in (
            ("erase_write_linkage", 2 * n * n), ("read", passes * n * n),
        ):
            other = stats[False][phase]["bytes"] - b * item * link_cells
            assert stats[True][phase]["bytes"] == (
                other + b * item * link_cells // nt
            )


# ---------------------------------------------------------------------------
# FlightRecorder units
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_keeps_last_k_per_worker(self):
        recorder = FlightRecorder(last_k=3)
        for tick in range(6):
            recorder.record(0, tick, [{"name": f"t{tick}"}])
        recorder.record(2, 0, [], phase_stats={"read": {"count": 1}})
        dump = recorder.dump(0)
        assert [r["tick"] for r in dump] == [3, 4, 5]
        assert dump[-1]["spans"] == [{"name": "t5"}]
        assert recorder.workers() == [0, 2]
        assert recorder.dump(2)[0]["phase_stats"] == {"read": {"count": 1}}
        assert recorder.dump(7) == []
        recorder.clear(0)
        assert recorder.dump(0) == []
        with pytest.raises(ValueError):
            FlightRecorder(last_k=0)


# ---------------------------------------------------------------------------
# Serving integration: span trees across topologies
# ---------------------------------------------------------------------------


def _by_name(records):
    out = {}
    for record in records:
        out.setdefault(record["name"], []).append(record)
    return out


def _assert_connected(records):
    """Every non-root span's parent resolves inside the same trace."""
    by_span = {r["span_id"]: r for r in records}
    for record in records:
        parent = record["parent_id"]
        if parent is None:
            continue
        assert parent in by_span, record["name"]
        assert by_span[parent]["trace_id"] == record["trace_id"], record["name"]


class TestTracedServing:
    def test_session_server_tree_and_numerics(self):
        config = serve_config()
        xs = [np.full(8, 0.03 * (t + 1)) for t in range(4)]
        solo = solo_trajectory(config, xs)
        engine = TiledEngine(config, rng=SEED)
        server = SessionServer(
            engine, max_batch=4, max_wait_ticks=0,
            tracer=Tracer(), profiler=PhaseTimer(),
        )
        sid = server.open_session()
        requests = [server.submit(sid, x) for x in xs]
        while not all(r.done for r in requests):
            server.run_tick()
        for t, request in enumerate(requests):
            np.testing.assert_allclose(request.y, solo[t], atol=1e-10, rtol=0.0)
        records = server.tracer.records()
        names = _by_name(records)
        assert {"shard.submit", "shard.dispatch", "shard.tick", "engine.step"} <= set(names)
        assert {f"engine.phase:{p}" for p in PHASES} <= set(names)
        _assert_connected(records)
        # Each dispatch covers its request's full queue->done interval,
        # parented on that request's submit span.
        submit_ids = {r["span_id"] for r in names["shard.submit"]}
        assert all(r["parent_id"] in submit_ids for r in names["shard.dispatch"])
        engine.profiler = None

    def test_sharded_server_cluster_tree(self):
        config = serve_config()
        engines = [TiledEngine(config, rng=SEED) for _ in range(2)]
        tracer = Tracer()
        with ShardedServer(
            engines, max_batch=4, max_wait_ticks=0, parallel=False,
            tracer=tracer, profile=True,
        ) as cluster:
            sids = [cluster.open_session() for _ in range(2)]
            for sid in sids:
                cluster.submit(sid, np.full(8, 0.05))
            while cluster.queue_depth:
                cluster.run_tick()
            profile = cluster.cluster_profile()
        records = tracer.records()
        names = _by_name(records)
        assert {"router.submit", "shard.submit", "cluster.tick", "shard.tick"} <= set(names)
        _assert_connected(records)
        # The cluster tick parents on the oldest traced pending request.
        submit_ids = {r["span_id"] for r in names["router.submit"]}
        assert all(r["parent_id"] in submit_ids for r in names["cluster.tick"])
        assert set(profile) <= set(PHASES)
        assert sum(entry["seconds"] for entry in profile.values()) > 0.0
        for engine in engines:
            engine.profiler = None

    def test_frontend_over_proc_cluster_cross_process_tree(self, tmp_path):
        """The acceptance tree: one traced request, >= 2 pids, valid JSONL."""
        config = serve_config()
        xs = [np.full(8, 0.05 * (t + 1)) for t in range(4)]
        solo = solo_trajectory(config, xs)
        tracer = Tracer()

        async def scenario():
            cluster = ProcCluster(
                config, seed=SEED, num_workers=2, max_batch=4,
                max_wait_ticks=0, tracer=tracer, profile=True,
            )
            async with AsyncFrontend(cluster, tracer=tracer) as frontend:
                sid = await frontend.open()
                ys = [await frontend.submit(sid, x) for x in xs]
                profile = cluster.cluster_profile()
            return ys, profile

        ys, profile = asyncio.run(scenario())
        for t, y in enumerate(ys):
            np.testing.assert_allclose(y, solo[t], atol=1e-10, rtol=0.0)

        records = tracer.records()
        names = _by_name(records)
        assert {
            "frontend.submit", "router.submit", "shard.submit",
            "shard.dispatch", "cluster.tick", "shard.tick", "engine.step",
        } <= set(names)
        # The tree crosses the process boundary: frontend/router spans
        # carry the parent pid, shard/engine spans the worker pids.
        parent_pids = {r["pid"] for r in names["frontend.submit"]}
        worker_pids = {r["pid"] for r in names["shard.tick"]}
        assert parent_pids.isdisjoint(worker_pids)
        assert len(parent_pids | worker_pids) >= 2
        # Worker-side submit spans parent on the frontend's trace.
        frontend_traces = {r["trace_id"] for r in names["frontend.submit"]}
        assert {r["trace_id"] for r in names["shard.submit"]} <= frontend_traces
        _assert_connected(records)
        assert {f"engine.phase:{p}" for p in PHASES} <= set(names)
        assert sum(entry["seconds"] for entry in profile.values()) > 0.0

        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == len(records)
        problems = validate_trace_jsonl(path)
        assert problems == [], "\n".join(problems)
        tree = render_span_tree(records)
        assert "frontend.submit" in tree and "engine.step" in tree

    def test_proc_cluster_untraced_payloads_carry_no_spans(self):
        """With tracing off, tick replies stay span-free (no obs tax)."""
        config = serve_config()
        with ProcCluster(
            config, seed=SEED, num_workers=1, max_batch=4, max_wait_ticks=0,
        ) as cluster:
            sid = cluster.open_session()
            request = cluster.submit(sid, np.full(8, 0.05))
            while not request.done:
                cluster.run_tick()
            assert cluster.tracer is None
            assert cluster.flight is None
            assert cluster.cluster_profile() == {}


# ---------------------------------------------------------------------------
# Flight-recorder post-mortems under worker kills
# ---------------------------------------------------------------------------


class TestWorkerPostmortem:
    def test_kill_storm_dumps_dying_workers_last_ticks(self):
        """A SIGKILLed worker leaves its last-K tick spans with the
        supervisor, and its replacement starts with a clean ring."""
        config = serve_config()
        xs = [np.full(8, 0.04 * (t + 1)) for t in range(6)]
        solo = solo_trajectory(config, xs)
        last_k = 4
        with ProcCluster(
            config, seed=SEED, num_workers=2, max_batch=4, max_wait_ticks=0,
            checkpoint_interval=2, tracer=Tracer(), profile=True,
            flight_recorder=last_k,
        ) as cluster:
            sid = cluster.open_session()
            requests = [cluster.submit(sid, x) for x in xs[:4]]
            while not all(r.done for r in requests):
                cluster.run_tick()
            victim = cluster.shard_of(sid)
            cluster.kill_worker(victim)
            late = [cluster.submit(sid, x) for x in xs[4:]]
            while not all(r.done for r in late):
                cluster.run_tick()
            supervisor = cluster.supervisor
            # The post-mortem: the dead worker's ring, bounded at K,
            # with real tick spans (submit/tick/step) inside.
            assert supervisor.worker_postmortems >= 1
            assert victim in supervisor.postmortems
            dump = supervisor.postmortems[victim]
            assert 1 <= len(dump) <= last_k
            span_names = {
                r["name"] for entry in dump for r in entry["spans"]
            }
            assert "shard.tick" in span_names
            assert any(entry["phase_stats"] for entry in dump)
            # The replacement's ring restarted clean: post-kill records
            # only.
            fresh = cluster.flight.dump(victim)
            dumped_ticks = {entry["tick"] for entry in dump}
            assert all(
                entry["tick"] not in dumped_ticks for entry in fresh
            )
        # Recovery kept the trajectory exact through the kill.
        for t, request in enumerate(requests + late):
            np.testing.assert_allclose(request.y, solo[t], atol=1e-10, rtol=0.0)

    def test_registry_metrics_json_validator_flags_problems(self):
        assert validate_metrics_json({"metrics": []}) == []
        problems = validate_metrics_json({"metrics": [{"name": 3}]})
        assert problems
        assert validate_metrics_json([]) != []
