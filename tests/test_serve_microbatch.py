"""Serving correctness: micro-batched == solo unbatched, traffic convention.

The acceptance bar for the serving layer: stepping K sessions through
the micro-batcher must be numerically identical (<= 1e-10, float64) to
stepping each session alone through the unbatched engine — including
when sessions join and leave mid-stream, so batch membership is ragged
across ticks.  TrafficLog accounting must keep PR 1's batched-words
convention (per-tick message pattern of one step, words scaled by that
tick's occupancy).
"""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.errors import ConfigError
from repro.serve import (
    EngineShard,
    SessionScript,
    SessionServer,
    generate_scripts,
    run_open_loop,
)


def serve_config(**features):
    base = dict(
        memory_size=64, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, two_stage_sort=False,
    )
    base.update(features)
    return HiMAConfig(**base)


def make_engine(**features):
    return TiledEngine(serve_config(**features), rng=0)


def scripted(session_id, arrival, inputs):
    return SessionScript(
        session_id=session_id, arrival_tick=arrival, kind="copy",
        inputs=np.asarray(inputs),
    )


class TestMicrobatchNumericalIdentity:
    def test_concurrent_sessions_match_solo_runs(self, rng):
        engine = make_engine()
        scripts = [
            scripted(f"s{i}", 0, rng.standard_normal((6, 16)))
            for i in range(5)
        ]
        server = SessionServer(engine, max_batch=4, max_wait_ticks=1)
        results = run_open_loop(server, scripts)
        for script in scripts:
            served = np.stack([r.y for r in results[script.session_id]])
            solo = engine.run(script.inputs)
            assert np.max(np.abs(served - solo)) <= 1e-10, script.session_id

    def test_ragged_join_and_leave_matches_solo_runs(self, rng):
        """Sessions with different arrival ticks and lengths: membership
        changes on nearly every tick, and each trajectory still matches
        the session running alone."""
        engine = make_engine()
        lengths = [3, 9, 5, 2, 7, 4]
        arrivals = [0, 0, 2, 3, 5, 9]
        scripts = [
            scripted(f"s{i}", arrivals[i], rng.standard_normal((lengths[i], 16)))
            for i in range(len(lengths))
        ]
        server = SessionServer(engine, max_batch=4, max_wait_ticks=0)
        results = run_open_loop(server, scripts)
        occupancies = [
            occ for occ, n in server.metrics.occupancy_histogram.items()
            if occ > 0 for _ in range(n)
        ]
        assert len(set(occupancies)) > 1  # membership truly ragged
        for script in scripts:
            served = np.stack([r.y for r in results[script.session_id]])
            solo = engine.run(script.inputs)
            assert np.max(np.abs(served - solo)) <= 1e-10, script.session_id

    @pytest.mark.parametrize("features", [
        pytest.param(dict(two_stage_sort=True), id="two-stage-sort"),
        pytest.param(dict(skim_fraction=0.25), id="skim"),
        pytest.param(dict(distributed=True), id="dncd"),
    ])
    def test_engine_feature_paths_match_solo_runs(self, features, rng):
        engine = make_engine(**features)
        scripts = [
            scripted(f"s{i}", i % 2, rng.standard_normal((4 + i, 16)))
            for i in range(3)
        ]
        server = SessionServer(engine, max_batch=3, max_wait_ticks=1)
        results = run_open_loop(server, scripts)
        for script in scripts:
            served = np.stack([r.y for r in results[script.session_id]])
            solo = engine.run(script.inputs)
            assert np.max(np.abs(served - solo)) <= 1e-10, script.session_id

    def test_generated_poisson_load_matches_solo_runs(self):
        engine = make_engine()
        scripts = generate_scripts(
            input_size=16, num_sessions=8, mean_session_len=5.0,
            mean_interarrival_ticks=1.0, rng=3,
        )
        server = SessionServer(engine, max_batch=4, max_wait_ticks=2)
        results = run_open_loop(server, scripts)
        for script in scripts:
            served = np.stack([r.y for r in results[script.session_id]])
            solo = engine.run(script.inputs)
            assert np.max(np.abs(served - solo)) <= 1e-10, script.session_id


class TestServeTrafficConvention:
    def test_full_batch_tick_scales_words_by_occupancy(self, rng):
        """One dispatched tick with K sessions logs the single-step
        message pattern with every event's words scaled by K."""
        solo_engine = make_engine()
        solo_engine.traffic.clear()
        solo_engine.step(rng.standard_normal(16), solo_engine.initial_state())
        solo_events = len(solo_engine.traffic.events)
        solo_words = solo_engine.traffic.total_words()

        engine = make_engine()
        server = SessionServer(engine, max_batch=4, max_wait_ticks=0)
        for i in range(3):
            sid = server.open_session(f"s{i}")
            server.submit(sid, rng.standard_normal(16))
        engine.traffic.clear()
        completed = server.run_tick()
        assert len(completed) == 3
        assert len(engine.traffic.events) == solo_events
        assert engine.traffic.total_words() == 3 * solo_words

    def test_ragged_ticks_words_track_occupancy(self, rng):
        engine = make_engine()
        solo_engine = make_engine()
        solo_engine.traffic.clear()
        solo_engine.step(rng.standard_normal(16), solo_engine.initial_state())
        solo_words = solo_engine.traffic.total_words()

        server = SessionServer(engine, max_batch=8, max_wait_ticks=0)
        s0 = server.open_session()
        s1 = server.open_session()
        server.submit(s0, rng.standard_normal(16))
        server.submit(s1, rng.standard_normal(16))
        engine.traffic.clear()
        server.run_tick()  # occupancy 2
        assert engine.traffic.total_words() == 2 * solo_words
        engine.traffic.clear()
        server.submit(s0, rng.standard_normal(16))  # s1 left: occupancy 1
        server.run_tick()
        assert engine.traffic.total_words() == solo_words


class TestSchedulingPolicy:
    def test_lone_request_dispatches_within_wait_bound(self, rng):
        engine = make_engine()
        server = SessionServer(engine, max_batch=8, max_wait_ticks=3)
        sid = server.open_session()
        request = server.submit(sid, rng.standard_normal(16))
        for _ in range(3):
            server.run_tick()
            assert not request.done  # still accumulating companions
        server.run_tick()  # tick - submitted == max_wait_ticks
        assert request.done
        assert request.wait_ticks == 3

    def test_full_batch_dispatches_immediately(self, rng):
        engine = make_engine()
        server = SessionServer(engine, max_batch=2, max_wait_ticks=100)
        for i in range(2):
            sid = server.open_session()
            server.submit(sid, rng.standard_normal(16))
        completed = server.run_tick()
        assert len(completed) == 2

    def test_backpressure_rejects_when_queue_full(self, rng):
        engine = make_engine()
        server = SessionServer(engine, max_batch=2, queue_capacity=2)
        sid = server.open_session()
        assert server.submit(sid, rng.standard_normal(16)) is not None
        assert server.submit(sid, rng.standard_normal(16)) is not None
        rejected = server.submit(sid, rng.standard_normal(16))
        assert rejected is None
        assert server.metrics.admission_rejects == 1
        # Draining frees queue space again.
        server.drain()
        assert server.submit(sid, rng.standard_normal(16)) is not None

    def test_submit_rejects_malformed_input(self, rng):
        """A bad input fails at the offending client's submit, never
        inside run_tick where it would poison a whole batch."""
        engine = make_engine()
        server = SessionServer(engine, max_batch=2)
        sid = server.open_session()
        with pytest.raises(ConfigError):
            server.submit(sid, rng.standard_normal(17))
        with pytest.raises(ConfigError):
            server.submit(sid, rng.standard_normal((2, 16)))
        for bad in (np.nan, np.inf, -np.inf):
            x = rng.standard_normal(16)
            x[3] = bad
            with pytest.raises(ConfigError, match="finite"):
                server.submit(sid, x)
        assert len(server.batcher) == 0
        # The session stays open.
        assert server.submit(sid, rng.standard_normal(16)) is not None

    def test_submitted_buffer_reuse_is_safe(self, rng):
        """Clients may reuse one input buffer per step: each queued
        request keeps the values it was submitted with."""
        engine = make_engine()
        server = SessionServer(engine, max_batch=8, max_wait_ticks=5)
        sid = server.open_session()
        inputs = rng.standard_normal((3, 16))
        buf = np.empty(16)
        requests = []
        for t in range(3):
            buf[:] = inputs[t]
            requests.append(server.submit(sid, buf))
        buf[:] = 0.0
        server.drain()
        served = np.stack([r.y for r in requests])
        solo = engine.run(inputs)
        assert np.max(np.abs(served - solo)) <= 1e-10

    def test_results_in_one_tick_do_not_alias(self, rng):
        """Each completed request owns its output — results from the same
        tick must not be views of one shared batched buffer."""
        engine = make_engine()
        server = SessionServer(engine, max_batch=2, max_wait_ticks=0)
        requests = []
        for _ in range(2):
            sid = server.open_session()
            requests.append(server.submit(sid, rng.standard_normal(16)))
        server.run_tick()
        ra, rb = requests
        assert not np.shares_memory(ra.y, rb.y)
        before = rb.y.copy()
        ra.y[...] = 0.0
        assert np.array_equal(rb.y, before)

    def test_auto_session_ids_skip_caller_claimed_names(self):
        engine = make_engine()
        server = SessionServer(engine, max_batch=2)
        assert server.open_session("session-0") == "session-0"
        assert server.open_session() == "session-1"
        assert server.open_session("session-2") == "session-2"
        assert server.open_session() == "session-3"

    def test_backpressure_sheds_whole_streams_in_open_loop(self, rng):
        """A refused mid-stream submit drops the session's remaining
        steps — never a step out of the middle, which would silently put
        the session on a different trajectory than its script."""
        engine = make_engine()
        scripts = [
            scripted(f"s{i}", 0, rng.standard_normal((6, 16)))
            for i in range(3)
        ]
        server = SessionServer(
            engine, max_batch=2, max_wait_ticks=0, queue_capacity=8
        )
        results = run_open_loop(server, scripts)
        assert any(len(v) < 6 for v in results.values())  # something shed
        for script in scripts:
            requests = results[script.session_id]
            if not requests:
                continue
            served = np.stack([r.y for r in requests])
            solo = engine.run(script.inputs[: len(requests)])
            assert np.max(np.abs(served - solo)) <= 1e-10, script.session_id

    def test_closed_session_fails_queued_requests(self, rng):
        engine = make_engine()
        server = SessionServer(engine, max_batch=4, max_wait_ticks=5)
        sid = server.open_session()
        request = server.submit(sid, rng.standard_normal(16))
        server.close_session(sid)
        assert request.done and request.error is not None
        assert server.metrics.requests_failed == 1
        with pytest.raises(ConfigError):
            server.submit(sid, rng.standard_normal(16))


class TestShardExtraction:
    """SessionServer is the 1-shard special case of EngineShard — the
    extraction that makes the sharded cluster possible must leave the
    single-server surface intact."""

    def test_session_server_is_an_engine_shard(self):
        server = SessionServer(make_engine())
        assert isinstance(server, EngineShard)
        assert server.shard_id == 0
        assert server.load == 0 and server.queue_depth == 0

    def test_bare_engine_shard_serves_like_the_server(self, rng):
        """A raw EngineShard (as the cluster builds them) serves the
        identical trajectory the SessionServer front door does."""
        scripts = [
            scripted(f"s{i}", 0, rng.standard_normal((4, 16)))
            for i in range(3)
        ]
        shard = EngineShard(make_engine(), shard_id=7, max_batch=4,
                            max_wait_ticks=1)
        shard_results = run_open_loop(shard, scripts)
        server = SessionServer(make_engine(), max_batch=4, max_wait_ticks=1)
        server_results = run_open_loop(server, scripts)
        for script in scripts:
            a = np.stack([r.y for r in shard_results[script.session_id]])
            b = np.stack([r.y for r in server_results[script.session_id]])
            assert np.array_equal(a, b), script.session_id

    def test_checkpoint_bytes_roundtrip_on_server(self, rng):
        """checkpoint_session/restore_session: the byte-level checkpoint
        path works on the single server too (same shard surface)."""
        server = SessionServer(make_engine(), max_batch=2, max_wait_ticks=0)
        sid = server.open_session()
        xs = rng.standard_normal((3, 16))
        for x in xs[:2]:
            server.submit(sid, x)
            server.run_tick()
        payload = server.checkpoint_session(sid)
        assert isinstance(payload, bytes)
        server.submit(sid, xs[2])
        server.run_tick()  # diverge...
        server.restore_session(sid, payload)  # ...and rewind
        request = server.submit(sid, xs[2])
        server.run_tick()
        solo = server.engine.run(xs)
        assert np.max(np.abs(request.y - solo[2])) <= 1e-10
