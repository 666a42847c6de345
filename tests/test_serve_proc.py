"""Process-level serving: wire format, crash recovery, clean shutdown.

The acceptance bars for the worker-process cluster:

* a truncated/corrupted/oversized RPC frame raises a clean
  :class:`~repro.errors.FrameError` — never a hang, never garbage data;
* a SIGKILLed worker's sessions are restored on a replacement process
  with their continued trajectories **bitwise** identical to the
  never-killed run at equal dispatch order from the last checkpoint, and
  <= 1e-10 vs solo unbatched stepping end-to-end under multi-session
  churn with random kills;
* closing the cluster (context manager, success or failure) leaves no
  orphaned child processes.
"""

import socket

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.errors import CapacityError, ConfigError, FrameError, WorkerCrashed
from repro.serve import (
    CheckpointSupervisor,
    HotSpotRebalance,
    ProcCluster,
    SessionServer,
    ShardedServer,
)
from repro.serve.loadgen import (
    SessionScript,
    generate_zipf_scripts,
    run_open_loop,
    run_rolling_restart,
)
from repro.serve.proc import MAX_FRAME_BYTES, read_frame, write_frame

SEED = 7


class _PinnedPlacement:
    """Always nominates worker 0 — forces the spill path in tests."""

    def place(self, session_id, shards):
        return 0


def proc_config(**features):
    base = dict(
        memory_size=32, word_size=8, num_reads=1, num_tiles=4,
        hidden_size=16, two_stage_sort=False,
    )
    base.update(features)
    return HiMAConfig(**base)


def make_cluster(num_workers=2, **kwargs):
    defaults = dict(
        max_batch=4, max_wait_ticks=1, session_capacity=8,
        checkpoint_interval=4, rpc_timeout=30.0,
    )
    defaults.update(kwargs)
    features = defaults.pop("features", {})
    return ProcCluster(
        proc_config(**features), seed=SEED, num_workers=num_workers,
        **defaults,
    )


def solo_trajectory(config, inputs):
    engine = TiledEngine(config, rng=SEED)
    state = engine.initial_state()
    ys = []
    for x in inputs:
        y, state = engine.step(x, state)
        ys.append(y)
    return ys


# ---------------------------------------------------------------------------
# Length-prefixed frame protocol
# ---------------------------------------------------------------------------


class TestFrameProtocol:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def _framed_bytes(self, message):
        a, b = self._pair()
        try:
            write_frame(a, message)
            chunks = []
            b.setblocking(False)
            while True:
                try:
                    chunk = b.recv(65536)
                except BlockingIOError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        finally:
            a.close()
            b.close()

    def test_roundtrip_preserves_message(self):
        a, b = self._pair()
        try:
            message = {"cmd": "tick", "x": np.arange(5.0), "n": 3}
            write_frame(a, message)
            got = read_frame(b)
            assert got["cmd"] == "tick" and got["n"] == 3
            np.testing.assert_array_equal(got["x"], np.arange(5.0))
        finally:
            a.close()
            b.close()

    def test_clean_close_raises_eoferror(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(EOFError):
            read_frame(b)
        b.close()

    def test_bad_magic_raises_frame_error(self):
        a, b = self._pair()
        try:
            a.sendall(b"XX" + b"\x00" * 16)
            with pytest.raises(FrameError, match="magic"):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_length_rejected_before_allocation(self):
        a, b = self._pair()
        try:
            bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            a.sendall(b"HP" + bogus + b"\x00" * 4)
            with pytest.raises(FrameError, match="bound"):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frames_raise_clean_errors(self):
        # Every proper prefix of a valid frame must fail loudly (EOF at
        # a frame boundary, FrameError mid-frame) — never hang or parse.
        frame = self._framed_bytes({"cmd": "ping", "payload": list(range(20))})
        assert len(frame) > 12
        cut_points = {1, 2, 5, 9, len(frame) // 2, len(frame) - 1}
        for cut in sorted(cut_points):
            a, b = self._pair()
            try:
                a.sendall(frame[:cut])
                a.close()
                with pytest.raises((FrameError, EOFError)):
                    read_frame(b)
            finally:
                b.close()

    def test_corrupted_payload_bytes_raise_frame_error(self):
        frame = bytearray(
            self._framed_bytes({"cmd": "ping", "blob": b"x" * 64})
        )
        rng = np.random.default_rng(0)
        for _ in range(16):
            corrupt = bytearray(frame)
            pos = int(rng.integers(10, len(frame)))  # past the magic
            corrupt[pos] ^= 0xFF
            a, b = self._pair()
            try:
                a.sendall(bytes(corrupt))
                a.close()
                with pytest.raises((FrameError, EOFError)):
                    read_frame(b)
            finally:
                b.close()

    def test_oversized_outgoing_payload_refused(self, monkeypatch):
        import repro.serve.proc as proc_mod

        monkeypatch.setattr(proc_mod, "MAX_FRAME_BYTES", 4096)
        a, b = self._pair()
        try:
            with pytest.raises(FrameError, match="bound"):
                write_frame(a, b"\x00" * 8192)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Checkpoint supervisor
# ---------------------------------------------------------------------------


class TestCheckpointSupervisor:
    def test_log_and_prune_lifecycle(self):
        sup = CheckpointSupervisor()
        sup.on_open("s")
        for t in range(5):
            assert sup.on_submit("s", np.full(2, float(t))) == t
        assert sup.log_depth("s") == 5
        sup.on_checkpoint("s", b"ckpt", steps_completed=3)
        assert sup.log_depth("s") == 2
        payload, replay = sup.recovery_plan("s")
        assert payload == b"ckpt"
        assert [step for step, _ in replay] == [3, 4]
        assert sup.checkpoint_steps("s") == 3

    def test_recovery_without_checkpoint_replays_everything(self):
        sup = CheckpointSupervisor()
        sup.on_open("s")
        sup.on_submit("s", np.zeros(2))
        payload, replay = sup.recovery_plan("s")
        assert payload is None
        assert len(replay) == 1
        assert sup.sessions_recovered == 1

    def test_duplicate_and_unknown_sessions_error(self):
        sup = CheckpointSupervisor()
        sup.on_open("s")
        with pytest.raises(ConfigError):
            sup.on_open("s")
        with pytest.raises(ConfigError):
            sup.on_submit("ghost", np.zeros(2))
        with pytest.raises(ConfigError):
            sup.recovery_plan("ghost")
        sup.on_close("s")
        sup.on_close("s")  # idempotent

    def test_submit_copies_the_input_buffer(self):
        sup = CheckpointSupervisor()
        sup.on_open("s")
        x = np.ones(3)
        sup.on_submit("s", x)
        x[:] = -1.0
        _, replay = sup.recovery_plan("s")
        np.testing.assert_array_equal(replay[0][1], np.ones(3))


# ---------------------------------------------------------------------------
# ProcCluster basics
# ---------------------------------------------------------------------------


class TestProcClusterBasics:
    def test_served_matches_solo_multi_session(self):
        config = proc_config()
        rng = np.random.default_rng(0)
        inputs = {
            f"s{i}": [rng.standard_normal(8) for _ in range(6)]
            for i in range(5)
        }
        solo = {
            sid: solo_trajectory(config, xs) for sid, xs in inputs.items()
        }
        with make_cluster(num_workers=2) as cluster:
            requests = {sid: [] for sid in inputs}
            for sid in inputs:
                assert cluster.open_session(sid) == sid
            for t in range(6):
                for sid, xs in inputs.items():
                    requests[sid].append(cluster.submit(sid, xs[t]))
            cluster.drain()
            for sid in inputs:
                for t, request in enumerate(requests[sid]):
                    assert request.done and request.error is None
                    np.testing.assert_allclose(
                        request.y, solo[sid][t], atol=1e-10, rtol=0.0
                    )

    def test_run_tick_returns_completions_in_submit_order(self):
        with make_cluster(num_workers=2, max_wait_ticks=0) as cluster:
            sids = [cluster.open_session() for _ in range(4)]
            submitted = [cluster.submit(sid, np.zeros(8)) for sid in sids]
            completed = cluster.drain()
            assert [r.seq for r in completed] == sorted(
                r.seq for r in submitted
            )
            assert {id(r) for r in completed} == {id(r) for r in submitted}

    def test_close_session_fails_queued_requests(self):
        with make_cluster(num_workers=1) as cluster:
            sid = cluster.open_session()
            request = cluster.submit(sid, np.zeros(8))
            cluster.close_session(sid)
            cluster.run_tick()
            assert request.done and request.error is not None
            with pytest.raises(ConfigError):
                cluster.submit(sid, np.zeros(8))

    def test_parent_side_backpressure_refuses_synchronously(self):
        with make_cluster(num_workers=1, queue_capacity=2) as cluster:
            sid = cluster.open_session()
            assert cluster.submit(sid, np.zeros(8)) is not None
            assert cluster.submit(sid, np.zeros(8)) is not None
            assert cluster.submit(sid, np.zeros(8)) is None
            assert cluster.cluster_metrics().admission_rejects == 1

    def test_admission_spill_lands_on_second_worker(self):
        # Pin placement to worker 0 and protect its one slot with a
        # queued request: the next open must spill to worker 1 instead
        # of being refused (a protected session cannot be LRU-evicted).
        with make_cluster(
            num_workers=2, session_capacity=1, placement=_PinnedPlacement()
        ) as cluster:
            assert cluster.open_session("a") == "a"
            assert cluster.shard_of("a") == 0
            # Two queued steps + one tick: the second is still queued at
            # the worker afterwards, so "a" is pinned (cannot be evicted).
            cluster.submit("a", np.zeros(8))
            cluster.submit("a", np.zeros(8))
            cluster.run_tick()
            assert cluster.open_session("b") == "b"
            assert cluster.shard_of("b") == 1
            assert cluster.metrics.admission_spills == 1
            cluster.submit("b", np.zeros(8))
            cluster.submit("b", np.zeros(8))
            cluster.run_tick()
            # Both slots protected: a third open is refused cleanly.
            assert cluster.open_session("c") is None
            assert cluster.metrics.admission_rejects == 1
            cluster.drain()

    def test_checkpoint_restore_roundtrip_across_cluster(self):
        config = proc_config()
        xs = [np.full(8, 0.1 * (t + 1)) for t in range(4)]
        with make_cluster(num_workers=2) as cluster:
            sid = cluster.open_session("s")
            for x in xs[:2]:
                cluster.submit(sid, x)
            cluster.drain()
            payload = cluster.checkpoint_session(sid)
            cluster.close_session(sid)
            restored = cluster.restore_session("s2", payload)
            rest = [cluster.submit(restored, x) for x in xs[2:]]
            cluster.drain()
            solo = solo_trajectory(config, xs)
            for t, request in enumerate(rest):
                np.testing.assert_allclose(
                    request.y, solo[2 + t], atol=1e-10, rtol=0.0
                )

    def test_snapshot_reports_topology_and_liveness(self):
        with make_cluster(num_workers=2) as cluster:
            sid = cluster.open_session()
            cluster.submit(sid, np.zeros(8))
            cluster.drain()
            snap = cluster.snapshot()
            assert snap["workers"] == 2
            assert snap["worker_restarts"] == 0
            assert snap["requests_completed"] == 1
            assert len(snap["per_worker"]) == 2
            assert all(w["alive"] for w in snap["per_worker"])

    def test_close_leaves_no_orphan_processes(self):
        cluster = make_cluster(num_workers=2)
        procs = [worker.process for worker in cluster.workers]
        assert all(p.is_alive() for p in procs)
        cluster.close()
        assert all(not p.is_alive() for p in procs)
        cluster.close()  # idempotent

    def test_context_manager_reaps_workers_on_failure(self):
        with pytest.raises(RuntimeError):
            with make_cluster(num_workers=2) as cluster:
                procs = [worker.process for worker in cluster.workers]
                raise RuntimeError("boom")
        assert all(not p.is_alive() for p in procs)

    def test_zipf_open_loop_drains_clean(self):
        config = proc_config()
        scripts = generate_zipf_scripts(8, num_sessions=12, rng=3)
        with make_cluster(
            num_workers=2, session_capacity=16, queue_capacity=256
        ) as cluster:
            results = run_open_loop(cluster, scripts)
            engine = TiledEngine(config, rng=SEED)
            for script in scripts:
                served = results[script.session_id]
                assert len(served) == script.length
                baseline = engine.run(script.inputs)
                for t, request in enumerate(served):
                    assert request.error is None
                    np.testing.assert_allclose(
                        request.y, baseline[t], atol=1e-10, rtol=0.0
                    )


# ---------------------------------------------------------------------------
# One front door, two shard transports
# ---------------------------------------------------------------------------


def make_server(kind, num_shards=1, **kwargs):
    """The same small server as an in-process shard, a thread cluster or
    a process cluster."""
    knobs = dict(max_batch=4, max_wait_ticks=1, session_capacity=8)
    knobs.update(kwargs)
    if kind == "proc":
        return make_cluster(
            num_workers=num_shards, checkpoint_interval=None, **knobs
        )
    engines = [
        TiledEngine(proc_config(), rng=SEED) for _ in range(num_shards)
    ]
    if kind == "inproc":
        return SessionServer(engines[0], **knobs)
    return ShardedServer(engines, parallel=False, **knobs)


class TestOneFrontDoor:
    @pytest.mark.parametrize("kind", ["inproc", "threads", "proc"])
    def test_queued_submit_protects_its_session_from_eviction(self, kind):
        # The process cluster buffers the submit in the parent; it must
        # reach the worker ahead of the open that would evict "s0".
        with make_server(kind, session_capacity=1) as server:
            assert server.open_session("s0") == "s0"
            request = server.submit("s0", np.full(8, 0.3))
            assert server.open_session("s1") is None
            server.drain()
            assert request.done and request.error is None

    @pytest.mark.parametrize(
        "kind, num_shards",
        [("inproc", 1), ("threads", 1), ("threads", 2), ("proc", 1),
         ("proc", 2)],
    )
    def test_refused_open_counts_one_admission_reject(self, kind, num_shards):
        # A lone server counts its own refusal; a cluster counts one at
        # the front door however many shards refused.
        knobs = {} if kind == "inproc" else {"placement": _PinnedPlacement()}
        with make_server(
            kind, num_shards, session_capacity=1, **knobs
        ) as server:
            for index in range(num_shards):
                sid = f"s{index}"
                assert server.open_session(sid) == sid
                if kind != "inproc":
                    assert server.shard_of(sid) == index
                server.submit(sid, np.zeros(8))  # pins sid (queued work)
            assert server.open_session("late") is None
            merged = (
                server.metrics if kind == "inproc"
                else server.cluster_metrics()
            )
            assert merged.admission_rejects == 1
            assert merged.admission_spills == num_shards - 1
            server.drain()

    def test_hot_spot_rebalance_migrates_between_workers(self):
        config = proc_config()
        rng = np.random.default_rng(11)
        inputs = {
            f"s{i}": [rng.standard_normal(8) for _ in range(6)]
            for i in range(4)
        }
        with make_cluster(
            num_workers=2, placement=_PinnedPlacement(),
            rebalance=HotSpotRebalance(max_spread=1),
        ) as cluster:
            requests = {sid: [] for sid in inputs}
            for sid in inputs:
                assert cluster.open_session(sid) == sid
            for t in range(6):
                for sid, xs in inputs.items():
                    requests[sid].append(cluster.submit(sid, xs[t]))
                cluster.run_tick()
            cluster.drain()
            assert cluster.migrations >= 1
            assert sorted(w.load for w in cluster.workers) == [2, 2]
            for sid, xs in inputs.items():
                solo = solo_trajectory(config, xs)
                for t, request in enumerate(requests[sid]):
                    assert request.done and request.error is None
                    np.testing.assert_allclose(
                        request.y, solo[t], atol=1e-10, rtol=0.0
                    )


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_sigkill_recovery_is_bitwise_at_equal_dispatch_order(self):
        # Single session, single worker: dispatch order is trivially the
        # submit order in both runs, so recovery must be bit-exact.
        xs = [np.full(8, 0.05 * (t + 1)) for t in range(10)]

        def run(kill: bool):
            with make_cluster(
                num_workers=1, checkpoint_interval=None
            ) as cluster:
                sid = cluster.open_session("s")
                requests = []
                for x in xs[:6]:
                    requests.append(cluster.submit(sid, x))
                cluster.drain()
                cluster.checkpoint_now()
                if kill:
                    cluster.kill_worker(0)
                for x in xs[6:]:
                    requests.append(cluster.submit(sid, x))
                cluster.drain()
                payload = cluster.checkpoint_session(sid)
                return [r.y for r in requests], payload, cluster.worker_restarts

        ys_plain, ckpt_plain, restarts_plain = run(kill=False)
        ys_killed, ckpt_killed, restarts_killed = run(kill=True)
        assert restarts_plain == 0 and restarts_killed == 1
        for y_plain, y_killed in zip(ys_plain, ys_killed):
            assert np.array_equal(y_plain, y_killed)
        assert ckpt_plain == ckpt_killed  # state bitwise through recovery

    def test_kill_with_requests_in_flight_completes_them(self):
        config = proc_config()
        xs = [np.full(8, 0.1 * (t + 1)) for t in range(8)]
        with make_cluster(num_workers=1, checkpoint_interval=3) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:4]]
            cluster.run_tick()  # some complete, some still queued
            cluster.kill_worker(0)
            requests += [cluster.submit(sid, x) for x in xs[4:]]
            cluster.drain()
            solo = solo_trajectory(config, xs)
            assert cluster.worker_restarts == 1
            for t, request in enumerate(requests):
                assert request.done and request.error is None
                np.testing.assert_allclose(
                    request.y, solo[t], atol=1e-10, rtol=0.0
                )

    def test_recovery_without_any_checkpoint_replays_from_open(self):
        config = proc_config()
        xs = [np.full(8, 0.2), np.full(8, -0.1), np.full(8, 0.3)]
        with make_cluster(num_workers=1, checkpoint_interval=None) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:2]]
            cluster.drain()
            cluster.kill_worker(0)
            requests.append(cluster.submit(sid, xs[2]))
            cluster.drain()
            solo = solo_trajectory(config, xs)
            for t, request in enumerate(requests):
                np.testing.assert_allclose(
                    request.y, solo[t], atol=1e-10, rtol=0.0
                )
            assert cluster.supervisor.sessions_recovered == 1

    def test_recovery_replays_logs_that_only_fit_the_queue_one_at_a_time(
        self,
    ):
        # Without checkpoints every session replays its whole log; the
        # logs together overflow the worker's queue bound, each alone
        # fits it.
        config = proc_config()
        rng = np.random.default_rng(5)
        inputs = {
            f"s{i}": [rng.standard_normal(8) for _ in range(6)]
            for i in range(3)
        }
        with make_cluster(
            num_workers=1, checkpoint_interval=None, queue_capacity=8,
        ) as cluster:
            requests = {sid: [] for sid in inputs}
            for sid in inputs:
                assert cluster.open_session(sid) == sid
            for t in range(5):
                for sid, xs in inputs.items():
                    requests[sid].append(cluster.submit(sid, xs[t]))
                cluster.drain()
            cluster.kill_worker(0)
            for sid, xs in inputs.items():
                requests[sid].append(cluster.submit(sid, xs[5]))
            cluster.drain()
            assert cluster.worker_restarts == 1
            for sid, xs in inputs.items():
                solo = solo_trajectory(config, xs)
                for t, request in enumerate(requests[sid]):
                    assert request.done and request.error is None
                    np.testing.assert_allclose(
                        request.y, solo[t], atol=1e-10, rtol=0.0
                    )

    def test_non_finite_submit_refused_and_never_replayed(self):
        # Without checkpoints recovery replays the whole log, so a NaN
        # that reached it would poison the restored session.
        config = proc_config()
        xs = [np.full(8, 0.1 * (t + 1)) for t in range(6)]
        with make_cluster(num_workers=1, checkpoint_interval=None) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:3]]
            cluster.drain()
            poisoned = xs[3].copy()
            poisoned[2] = np.nan
            depth = cluster.supervisor.log_depth(sid)
            with pytest.raises(ConfigError, match="finite"):
                cluster.submit(sid, poisoned)
            assert cluster.supervisor.log_depth(sid) == depth
            cluster.kill_worker(0)
            requests += [cluster.submit(sid, x) for x in xs[3:]]
            cluster.drain()
            assert cluster.worker_restarts == 1
            solo = solo_trajectory(config, xs)
            for t, request in enumerate(requests):
                assert request.done and request.error is None
                np.testing.assert_allclose(
                    request.y, solo[t], atol=1e-10, rtol=0.0
                )

    def test_property_random_kills_under_churn_match_solo(self):
        # The churn property drill: multi-session traffic across two
        # workers with seeded random SIGKILLs mid-stream; every session's
        # full trajectory must stay within 1e-10 of solo stepping.
        config = proc_config()
        rng = np.random.default_rng(1234)
        sessions = {
            f"s{i}": [rng.standard_normal(8) for _ in range(10)]
            for i in range(6)
        }
        solo = {
            sid: solo_trajectory(config, xs) for sid, xs in sessions.items()
        }
        with make_cluster(
            num_workers=2, checkpoint_interval=3, session_capacity=8
        ) as cluster:
            requests = {sid: [] for sid in sessions}
            for sid in sessions:
                assert cluster.open_session(sid) == sid
            kill_ticks = {2, 5, 8}
            for t in range(10):
                for sid, xs in sessions.items():
                    request = cluster.submit(sid, xs[t])
                    assert request is not None
                    requests[sid].append(request)
                if t in kill_ticks:
                    cluster.kill_worker(int(rng.integers(0, 2)))
                cluster.run_tick()
            cluster.drain()
            assert cluster.worker_restarts == len(kill_ticks)
            worst = 0.0
            for sid in sessions:
                for t, request in enumerate(requests[sid]):
                    assert request.done and request.error is None, (
                        sid, t, request.error
                    )
                    worst = max(worst, float(np.max(np.abs(
                        request.y - solo[sid][t]
                    ))))
            assert worst <= 1e-10

    def test_rolling_restart_scenario_under_zipf_traffic(self):
        config = proc_config()
        scripts = generate_zipf_scripts(8, num_sessions=10, rng=5)
        with make_cluster(
            num_workers=2, session_capacity=16, queue_capacity=256,
            checkpoint_interval=4,
        ) as cluster:
            results, kills = run_rolling_restart(
                cluster, scripts, kill_every_ticks=4
            )
            assert kills >= 1
            # Detection is lazy (on the next RPC), and idle workers are
            # skipped entirely, so a kill landing on an idle worker at
            # the drain tail may never need a restart.
            assert 1 <= cluster.worker_restarts <= kills
            engine = TiledEngine(config, rng=SEED)
            for script in scripts:
                served = results[script.session_id]
                assert len(served) == script.length
                baseline = engine.run(script.inputs)
                for t, request in enumerate(served):
                    assert request.error is None, (script.session_id, t)
                    np.testing.assert_allclose(
                        request.y, baseline[t], atol=1e-10, rtol=0.0
                    )

    def test_garbage_on_the_wire_fails_clean_and_recovers(self):
        with make_cluster(num_workers=2) as cluster:
            sid = cluster.open_session("s")
            index = cluster.shard_of(sid)
            # Corrupt the stream from the parent side: the worker drops
            # the connection, and the next RPC must surface WorkerCrashed
            # (not hang), after which recovery restores the session.
            cluster.workers[index].sock.sendall(b"not a frame at all")
            with pytest.raises(WorkerCrashed):
                cluster.workers[index].call({"cmd": "ping"})
            cluster._recover_worker(index)
            request = cluster.submit(sid, np.zeros(8))
            cluster.drain()
            assert request.done and request.error is None

    def test_migration_between_workers_preserves_trajectory(self):
        config = proc_config()
        xs = [np.full(8, 0.1 * (t + 1)) for t in range(6)]
        with make_cluster(num_workers=2) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:3]]
            cluster.drain()
            src = cluster.shard_of(sid)
            dst = 1 - src
            cluster.migrate_session(sid, dst)
            assert cluster.shard_of(sid) == dst
            assert cluster.migrations == 1
            requests += [cluster.submit(sid, x) for x in xs[3:]]
            cluster.drain()
            solo = solo_trajectory(config, xs)
            for t, request in enumerate(requests):
                np.testing.assert_allclose(
                    request.y, solo[t], atol=1e-10, rtol=0.0
                )

    def test_kill_then_migrate_then_kill_again(self):
        config = proc_config()
        xs = [np.full(8, 0.07 * (t + 1)) for t in range(8)]
        with make_cluster(num_workers=2, checkpoint_interval=2) as cluster:
            sid = cluster.open_session("s")
            requests = [cluster.submit(sid, x) for x in xs[:3]]
            cluster.drain()
            cluster.kill_worker(cluster.shard_of(sid))
            requests.append(cluster.submit(sid, xs[3]))
            cluster.drain()
            dst = 1 - cluster.shard_of(sid)
            cluster.migrate_session(sid, dst)
            requests += [cluster.submit(sid, x) for x in xs[4:]]
            cluster.kill_worker(dst)
            cluster.drain()
            solo = solo_trajectory(config, xs)
            assert cluster.worker_restarts == 2
            for t, request in enumerate(requests):
                assert request.done and request.error is None
                np.testing.assert_allclose(
                    request.y, solo[t], atol=1e-10, rtol=0.0
                )
