"""Resident state arena: slot pinning, churn equivalence, copy metrics.

The acceptance bar for the arena serving path: under hundreds of ticks
of ragged join/leave/evict churn it must be numerically identical
(<= 1e-10 in float64; float32 within ``VERIFY_TOLERANCES``) to each
session stepping alone through the unbatched engine — while copying
session state only on join/leave.
"""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.errors import CapacityError, ConfigError
from repro.serve import SessionServer, StateArena
from repro.dnc.numpy_ref import NumpyDNCState


def serve_config(**features):
    base = dict(
        memory_size=32, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, two_stage_sort=False,
    )
    base.update(features)
    return HiMAConfig(**base)


def make_engine(**features):
    return TiledEngine(serve_config(**features), rng=0)


# ---------------------------------------------------------------------------
# StateArena unit behaviour
# ---------------------------------------------------------------------------


class TestStateArena:
    def make(self, capacity=4):
        return StateArena(make_engine().initial_state, capacity=capacity)

    def test_bind_assigns_lowest_free_slot_and_zeroes_it(self):
        arena = self.make()
        arena.state.memory[...] = 7.0
        assert arena.bind("a") == 0
        assert arena.bind("b") == 1
        assert np.all(arena.state.memory[0] == 0.0)
        assert np.all(arena.state.memory[1] == 0.0)
        assert np.all(arena.state.memory[2] == 7.0)  # unbound rows untouched

    def test_released_slot_is_reused(self):
        arena = self.make(capacity=2)
        arena.bind("a")
        arena.bind("b")
        assert arena.release("a") == 0
        assert arena.bind("c") == 0
        assert arena.occupancy == 2

    def test_capacity_and_duplicates_enforced(self):
        arena = self.make(capacity=1)
        arena.bind("a")
        with pytest.raises(ConfigError):
            arena.bind("a")
        with pytest.raises(CapacityError):
            arena.bind("b")
        with pytest.raises(ConfigError):
            arena.release("missing")

    def test_read_write_slot_roundtrip_bitwise(self, rng):
        engine = make_engine()
        arena = StateArena(engine.initial_state, capacity=3)
        arena.bind("a")
        state = engine.initial_state()
        for name in NumpyDNCState.FIELDS:
            getattr(state, name)[...] = rng.standard_normal(
                getattr(state, name).shape
            )
        arena.write_slot("a", state)
        back = arena.read_slot("a")
        for name in NumpyDNCState.FIELDS:
            assert np.array_equal(getattr(back, name), getattr(state, name))
        # The copy owns its data.
        back.memory[...] = 0.0
        assert not np.all(arena.state.memory[arena.slot_of("a")] == 0.0)

    def test_write_slot_validates_shape_and_batchedness(self):
        engine = make_engine()
        arena = StateArena(engine.initial_state, capacity=2)
        arena.bind("a")
        with pytest.raises(ConfigError):
            arena.write_slot("a", engine.initial_state(batch_size=2))
        other = TiledEngine(serve_config(memory_size=64), rng=0)
        with pytest.raises(ConfigError):
            arena.write_slot("a", other.initial_state())

    def test_indices_preserve_given_order(self):
        arena = self.make()
        for sid in ("a", "b", "c"):
            arena.bind(sid)
        assert arena.indices(["c", "a", "b"]).tolist() == [2, 0, 1]


# ---------------------------------------------------------------------------
# Churn equivalence: arena path == solo stepping
# ---------------------------------------------------------------------------


def run_churn(server, schedule, inputs_of):
    """Apply a scripted open/submit/close schedule; returns outputs per id."""
    outputs = {}
    for tick_ops in schedule:
        for op, sid in tick_ops:
            if op == "open":
                assert server.open_session(sid) == sid
                outputs[sid] = []
            elif op == "close":
                if sid in server.store:
                    server.close_session(sid)
            else:  # submit the session's next scripted input
                if sid not in server.store:
                    continue  # TTL-evicted server-side
                request = server.submit(sid, inputs_of(sid)[len(outputs[sid])])
                assert request is not None
                outputs[sid].append(request)
        server.run_tick()
    server.drain()
    return outputs


def make_schedule(rng, ticks=120, max_live=5):
    """Deterministic ragged churn: opens, closes, and per-session submits."""
    schedule = []
    live = []
    counter = [0]
    submitted = {}
    for t in range(ticks):
        ops = []
        if (len(live) < max_live and rng.random() < 0.35) or not live:
            sid = f"s{counter[0]}"
            counter[0] += 1
            ops.append(("open", sid))
            live.append(sid)
            submitted[sid] = 0
        if len(live) > 1 and rng.random() < 0.12:
            victim = live.pop(int(rng.integers(0, len(live))))
            ops.append(("close", victim))
        for sid in list(live):
            if rng.random() < 0.7 and submitted[sid] < 30:
                ops.append(("submit", sid))
                submitted[sid] += 1
        schedule.append(ops)
    return schedule


def churn_inputs():
    """Per-session scripted inputs, generated on first use."""
    cache = {}

    def inputs_of(sid):
        if sid not in cache:
            gen = np.random.default_rng(hash(sid) % (2**32))
            cache[sid] = gen.standard_normal((30, 16))
        return cache[sid]

    return inputs_of


def assert_churn_matches_solo(dtype, schedule, min_requests, **features):
    """Serve ``schedule`` through the arena; every session's completed
    prefix must match that session running alone through the unbatched
    engine.  float64 holds the 1e-10 serving bar; float32
    batched-vs-unbatched BLAS kernels round differently (the documented
    engine-wide story), bounded by the dtype's verify tolerance."""
    tol = 1e-10 if dtype == "float64" else TiledEngine.VERIFY_TOLERANCES[dtype]
    inputs_of = churn_inputs()
    server = SessionServer(
        make_engine(dtype=dtype, **features), max_batch=4, max_wait_ticks=1,
        session_capacity=6, session_ttl_ticks=25,
    )
    outputs = run_churn(server, schedule, inputs_of)
    solo_engine = make_engine(dtype=dtype, **features)
    compared_sessions = 0
    compared_requests = 0
    for sid, requests in outputs.items():
        done = []
        for r in requests:
            if r.error is not None:
                break
            assert r.done
            done.append(r.y)
        if done:
            solo = solo_engine.run(inputs_of(sid)[: len(done)])
            assert np.max(np.abs(np.stack(done) - solo)) <= tol, sid
            compared_sessions += 1
            compared_requests += len(done)
    # The schedule must actually have exercised churn and real work.
    assert compared_sessions >= 10
    assert compared_requests >= min_requests


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_churn_arena_matches_solo(dtype):
    """Hundreds of ticks of ragged join/leave/evict."""
    schedule = make_schedule(np.random.default_rng(99), ticks=130)
    assert_churn_matches_solo(dtype, schedule, min_requests=100)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_churn_dense_partial_step_matches_solo(dtype):
    """The same churn property at ``kernels.MIN_BLOCKED_N`` memory rows,
    where the masked step is in place at any occupancy: every
    partially-occupied arena tick runs the in-place write phase over the
    full resident batch."""
    schedule = make_schedule(np.random.default_rng(1234), ticks=80)
    assert_churn_matches_solo(
        dtype, schedule, min_requests=50, memory_size=128
    )


def test_churn_exercises_eviction_paths():
    """The churn schedule is only a real test if sessions get evicted."""
    schedule = make_schedule(np.random.default_rng(99), ticks=130)
    server = SessionServer(
        make_engine(), max_batch=4, max_wait_ticks=1,
        session_capacity=6, session_ttl_ticks=25,
    )
    run_churn(server, schedule, churn_inputs())
    metrics = server.metrics
    assert metrics.evictions_ttl + metrics.evictions_lru > 0
    # Slot bookkeeping stayed consistent through every evict/close.
    assert server.arena.occupancy == len(server.store)


# ---------------------------------------------------------------------------
# Input-buffer reuse and copy metrics
# ---------------------------------------------------------------------------


def test_run_tick_reuses_one_input_buffer(rng):
    engine = make_engine()
    server = SessionServer(engine, max_batch=4, max_wait_ticks=0)
    buf = server._x_buf
    sids = [server.open_session() for _ in range(3)]
    for _ in range(4):
        for sid in sids:
            server.submit(sid, rng.standard_normal(16))
        server.run_tick()
    assert server._x_buf is buf


def test_stale_buffer_rows_do_not_leak_into_later_ticks(rng):
    """Only a subset submits on tick 2: the other sessions' stale buffer
    rows must not affect anyone (mask ignores them)."""
    engine = make_engine()
    server = SessionServer(engine, max_batch=4, max_wait_ticks=0)
    a = server.open_session()
    b = server.open_session()
    xs_a = rng.standard_normal((2, 16))
    x_b = rng.standard_normal(16)
    ra0 = server.submit(a, xs_a[0])
    rb0 = server.submit(b, x_b)
    server.run_tick()
    ra1 = server.submit(a, xs_a[1])  # b sits this tick out
    server.run_tick()
    assert ra0.done and rb0.done and ra1.done
    solo_a = engine.run(xs_a)
    assert np.max(np.abs(ra1.y - solo_a[1])) <= 1e-10
    # b's state did not advance while sitting out.
    state_b = server.session_state(b)
    solo_b = engine.step(x_b, engine.initial_state())[1]
    for name in NumpyDNCState.FIELDS:
        assert np.max(np.abs(
            getattr(state_b, name) - getattr(solo_b, name)
        )) <= 1e-10, name


def test_arena_copies_state_only_on_join(rng):
    # session_capacity == session count, so every tick hits the dense
    # all-slots fast path (zero state copies).
    server = SessionServer(
        make_engine(), max_batch=4, max_wait_ticks=0, session_capacity=4
    )
    sids = [server.open_session() for _ in range(4)]
    row = server.arena.row_nbytes
    # Exactly one slot write per join ...
    assert server.metrics.state_bytes_copied == 4 * row
    for _ in range(5):
        for sid in sids:
            server.submit(sid, rng.standard_normal(16))
        server.run_tick()
    # ... and nothing per dense tick.
    assert server.metrics.state_bytes_copied == 4 * row


def test_metrics_snapshot_has_arena_counters(rng):
    engine = make_engine()
    server = SessionServer(engine, max_batch=2, max_wait_ticks=0)
    sid = server.open_session()
    server.submit(sid, rng.standard_normal(16))
    server.run_tick()
    snap = server.metrics.snapshot()
    for key in (
        "state_bytes_copied", "state_bytes_per_tick",
        "mean_slot_occupancy", "slot_occupancy_histogram",
    ):
        assert key in snap
    assert snap["state_bytes_copied"] >= server.arena.row_nbytes
    assert snap["slot_occupancy_histogram"] == {"1": 1}
    assert snap["mean_slot_occupancy"] == 1.0


# ---------------------------------------------------------------------------
# Checkpoint read/restore
# ---------------------------------------------------------------------------


def test_session_state_roundtrip_and_restore(rng):
    engine = make_engine()
    server = SessionServer(engine, max_batch=2, max_wait_ticks=0)
    sid = server.open_session()
    xs = rng.standard_normal((3, 16))
    for x in xs[:2]:
        server.submit(sid, x)
        server.run_tick()
    checkpoint = server.session_state(sid)

    # Divergence: step once more, then restore the checkpoint.
    server.submit(sid, xs[2])
    server.run_tick()
    server.restore_session_state(sid, checkpoint)
    restored = server.session_state(sid)
    for name in NumpyDNCState.FIELDS:
        assert np.array_equal(
            getattr(restored, name), getattr(checkpoint, name)
        )
    # Restored state resumes exactly where the checkpoint was taken.
    request = server.submit(sid, xs[2])
    server.run_tick()
    solo = engine.run(xs)
    assert np.max(np.abs(request.y - solo[2])) <= 1e-10

    with pytest.raises(ConfigError):
        server.restore_session_state(
            sid, engine.initial_state(batch_size=2)
        )

