"""Asyncio front door, admission spill, and deep-queue migration.

:class:`AsyncFrontend` must give awaitable per-request semantics over
every topology (:class:`SessionServer`, :class:`ShardedServer`,
:class:`ProcCluster`) with the same numerics as solo stepping, raise
:class:`CapacityError` (not hang) on refusals, and never strand an
awaiter at shutdown.  The cluster paths ride along: admission spill on
the threaded cluster, and a session migrated with a deep request queue
still matching solo stepping.
"""

import asyncio

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.errors import CapacityError, ServeError
from repro.serve import (
    AsyncFrontend,
    ProcCluster,
    RebalancePolicy,
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


def make_engine(**features):
    return TiledEngine(serve_config(**features), rng=SEED)


def solo_trajectory(config, inputs):
    engine = TiledEngine(config, rng=SEED)
    return engine.run(np.asarray(inputs))


class _PinnedPlacement:
    """Always nominates shard 0 — forces spill/rebalance paths."""

    def place(self, session_id, shards):
        return 0


class _MoveOnce(RebalancePolicy):
    """Plans one fixed migration on its first call, then none; records
    the source shard's queue depth when the move is planned."""

    def __init__(self, move):
        self.move = move
        self.queued_at_move = None

    def plan(self, shards):
        if self.queued_at_move is not None:
            return []
        self.queued_at_move = shards[self.move[1]].queue_depth
        return [self.move]


# ---------------------------------------------------------------------------
# Migration of a deep queue
# ---------------------------------------------------------------------------


class TestClusterRebalanceIntegration:
    def test_deep_queue_migrates_and_results_stay_correct(self):
        config = serve_config()
        engines = [TiledEngine(config, rng=SEED) for _ in range(2)]
        rebalance = _MoveOnce(("hot", 0, 1))
        server = ShardedServer(
            engines, max_batch=4, max_wait_ticks=0, parallel=False,
            placement=_PinnedPlacement(), rebalance=rebalance,
        )
        with server:
            hot = server.open_session("hot")
            cold = server.open_session("cold")
            assert server.shard_of(hot) == 0 and server.shard_of(cold) == 0
            xs = [np.full(8, 0.1 * (t + 1)) for t in range(9)]
            hot_requests = [server.submit(hot, x) for x in xs]
            cold_request = server.submit(cold, xs[0])
            server.run_tick()
            # The first tick served one request per session; the hot
            # session left shard 0 with the other 8 still queued.
            assert rebalance.queued_at_move == 8
            assert server.shard_of(hot) == 1
            assert server.snapshot()["sessions_migrated"] == 1
            server.drain()
            solo = solo_trajectory(config, xs)
            for t, request in enumerate(hot_requests):
                assert request.error is None
                np.testing.assert_allclose(
                    request.y, solo[t], atol=1e-10, rtol=0.0
                )
            np.testing.assert_allclose(
                cold_request.y, solo[0], atol=1e-10, rtol=0.0
            )


# ---------------------------------------------------------------------------
# Admission spill (threaded cluster)
# ---------------------------------------------------------------------------


class TestShardedServerSpill:
    def _spill_server(self):
        engines = [TiledEngine(serve_config(), rng=SEED) for _ in range(2)]
        return ShardedServer(
            engines, max_batch=4, max_wait_ticks=1, session_capacity=1,
            parallel=False, placement=_PinnedPlacement(),
        )

    def test_spill_retries_next_best_shard(self):
        with self._spill_server() as server:
            assert server.open_session("a") == "a"
            # A queued request pins "a" (in-process submits enqueue
            # immediately, unlike the proc cluster's buffered submits).
            server.submit("a", np.zeros(8))
            assert server.open_session("b") == "b"
            assert server.shard_of("b") == 1
            assert server.cluster_metrics().admission_spills == 1
            server.submit("b", np.zeros(8))
            assert server.open_session("c") is None
            server.drain()


# ---------------------------------------------------------------------------
# AsyncFrontend
# ---------------------------------------------------------------------------


class _StubServer:
    """Never completes anything — for shutdown/error-path tests."""

    def __init__(self, tick_error=None):
        self.tick_error = tick_error
        self.closed = False

    def open_session(self, session_id=None):
        return session_id or "stub"

    def close_session(self, session_id):
        pass

    def submit(self, session_id, x):
        from repro.serve.batcher import StepRequest
        return StepRequest(
            session_id=session_id, x=np.asarray(x), submitted_tick=0, seq=0
        )

    def run_tick(self):
        if self.tick_error is not None:
            raise self.tick_error

    def close(self):
        self.closed = True


class TestAsyncFrontend:
    def test_submit_resolves_to_solo_outputs(self):
        config = serve_config()
        xs = [np.full(8, 0.1 * (t + 1)) for t in range(5)]
        solo = solo_trajectory(config, xs)

        async def scenario():
            server = SessionServer(
                TiledEngine(config, rng=SEED), max_batch=4, max_wait_ticks=1
            )
            async with AsyncFrontend(server) as frontend:
                sid = await frontend.open()
                return [await frontend.submit(sid, x) for x in xs]

        ys = asyncio.run(scenario())
        for t, y in enumerate(ys):
            np.testing.assert_allclose(y, solo[t], atol=1e-10, rtol=0.0)

    def test_concurrent_sessions_interleave_correctly(self):
        config = serve_config()
        rng = np.random.default_rng(0)
        inputs = {
            f"s{i}": [rng.standard_normal(8) for _ in range(4)]
            for i in range(6)
        }
        solo = {
            sid: solo_trajectory(config, np.asarray(xs))
            for sid, xs in inputs.items()
        }

        async def run_session(frontend, sid):
            assert await frontend.open(sid) == sid
            return [await frontend.submit(sid, x) for x in inputs[sid]]

        async def scenario():
            engines = [TiledEngine(config, rng=SEED) for _ in range(2)]
            server = ShardedServer(
                engines, max_batch=4, max_wait_ticks=1, parallel=False
            )
            async with AsyncFrontend(server) as frontend:
                results = await asyncio.gather(
                    *(run_session(frontend, sid) for sid in inputs)
                )
                assert frontend.pending == 0
                return dict(zip(inputs, results))

        served = asyncio.run(scenario())
        for sid, ys in served.items():
            for t, y in enumerate(ys):
                np.testing.assert_allclose(
                    y, solo[sid][t], atol=1e-10, rtol=0.0
                )

    def test_refused_open_raises_capacity_error(self):
        async def scenario():
            server = SessionServer(
                make_engine(), max_batch=4, max_wait_ticks=1,
                session_capacity=1,
            )
            async with AsyncFrontend(server) as frontend:
                sid = await frontend.open("a")
                # Direct (sync) submit: queued but never awaited, so the
                # driver stays parked and "a" stays pinned in the store.
                server.submit(sid, np.zeros(8))
                with pytest.raises(CapacityError):
                    await frontend.open("b")

        asyncio.run(scenario())

    def test_queue_full_submit_raises_capacity_error(self):
        async def scenario():
            server = SessionServer(
                make_engine(), max_batch=4, max_wait_ticks=1,
                queue_capacity=1,
            )
            async with AsyncFrontend(server) as frontend:
                sid = await frontend.open()
                server.submit(sid, np.zeros(8))  # fills the only slot
                with pytest.raises(CapacityError):
                    await frontend.submit(sid, np.zeros(8))

        asyncio.run(scenario())

    def test_aclose_fails_leftover_awaiters(self):
        async def scenario():
            frontend = AsyncFrontend(_StubServer())
            frontend.start()
            task = asyncio.ensure_future(frontend.submit("s", np.zeros(2)))
            while frontend.pending == 0:
                await asyncio.sleep(0.005)
            await frontend.aclose()
            with pytest.raises(ServeError, match="closed"):
                await task
            assert frontend.server.closed
            with pytest.raises(ServeError):
                await frontend.submit("s", np.zeros(2))

        asyncio.run(scenario())

    def test_tick_failure_fails_awaiters_not_hangs(self):
        async def scenario():
            server = _StubServer(tick_error=RuntimeError("engine on fire"))
            frontend = AsyncFrontend(server)
            try:
                frontend.start()
                with pytest.raises(ServeError, match="tick failed"):
                    await frontend.submit("s", np.zeros(2))
            finally:
                await frontend.aclose()

        asyncio.run(scenario())

    def test_frontend_over_proc_cluster(self):
        config = serve_config()
        xs = [np.full(8, 0.05 * (t + 1)) for t in range(4)]
        solo = solo_trajectory(config, xs)

        async def scenario():
            cluster = ProcCluster(
                config, seed=SEED, num_workers=2, max_batch=4,
                max_wait_ticks=0, checkpoint_interval=2,
            )
            procs = [worker.process for worker in cluster.workers]
            async with AsyncFrontend(cluster) as frontend:
                sid = await frontend.open()
                ys = [await frontend.submit(sid, x) for x in xs]
            return ys, procs

        ys, procs = asyncio.run(scenario())
        for t, y in enumerate(ys):
            np.testing.assert_allclose(y, solo[t], atol=1e-10, rtol=0.0)
        # Leaving the async with block reaped the worker processes.
        assert all(not p.is_alive() for p in procs)
