"""Masked in-place engine step: the state arena's compute primitive.

``TiledEngine.step(x, state, active=idx)`` must advance exactly the
selected batch slots, bitwise-match the gather/step/scatter reference it
replaces (dispatch order preserved), and leave every inactive slot
untouched — for both engine modes and both dtype policies.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.core.kernels import MIN_BLOCKED_N
from repro.dnc.numpy_ref import NumpyDNCState
from repro.errors import ConfigError


def make_engine(**features):
    base = dict(
        memory_size=32, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, two_stage_sort=False,
    )
    base.update(features)
    return TiledEngine(HiMAConfig(**base), rng=0)


def warmed_state(engine, rng, batch):
    """A batched state advanced a few steps so every field is non-trivial."""
    state = engine.initial_state(batch_size=batch)
    for _ in range(2):
        x = rng.standard_normal((batch, 16)).astype(engine.config.np_dtype)
        _, state = engine.step(x, state)
    return state


def copy_state(state):
    return NumpyDNCState(**{
        name: getattr(state, name).copy() for name in NumpyDNCState.FIELDS
    })


def fields_equal(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in NumpyDNCState.FIELDS
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("features", [
    pytest.param({}, id="dnc"),
    pytest.param({"distributed": True}, id="dncd"),
    pytest.param({"memory_size": 128}, id="dnc-n128"),
    pytest.param({"distributed": True, "memory_size": 128}, id="dncd-n128"),
    pytest.param(
        {"distributed": True, "memory_size": 128, "skim_fraction": 0.2,
         "approx_softmax": True},
        id="dncd-skim-approx-n128",
    ),
])
def test_masked_step_matches_gather_scatter(dtype, features, rng):
    """Both masked forms — compact at N = 32, in place from N = 128 —
    against the gather/step/scatter reference."""
    engine = make_engine(dtype=dtype, **features)
    b = 6
    arena = warmed_state(engine, rng, b)
    snapshot = copy_state(arena)
    sessions = copy_state(arena).unstack()
    x = rng.standard_normal((b, 16)).astype(dtype)

    idx = np.array([4, 1, 3])  # dispatch order, deliberately not sorted
    y, out = engine.step(x, arena, active=idx)
    assert out is arena  # in place: the same state object
    # Only the compact form moves N^2 rows.
    in_place = engine.config.memory_size >= MIN_BLOCKED_N
    assert (engine.last_state_bytes_copied < arena.linkage[0].nbytes) == in_place

    # Reference: gather the same rows in the same order, step, scatter.
    ref_batched = NumpyDNCState.stack([sessions[i] for i in idx])
    y_ref, new_ref = engine.step(x[idx], ref_batched)
    ref_rows = new_ref.unstack()
    for k, i in enumerate(idx):
        assert np.array_equal(y[i], y_ref[k])
        for name in NumpyDNCState.FIELDS:
            assert np.array_equal(
                getattr(arena, name)[i], getattr(ref_rows[k], name)
            ), (name, i)
    # Inactive slots: bitwise untouched, y rows zero.
    for i in (0, 2, 5):
        for name in NumpyDNCState.FIELDS:
            assert np.array_equal(
                getattr(arena, name)[i], getattr(snapshot, name)[i]
            ), (name, i)
        assert np.all(y[i] == 0.0)


@pytest.mark.parametrize("distributed", [False, True], ids=["dnc", "dncd"])
def test_dense_fast_path_is_zero_copy_and_matches_plain_step(distributed, rng):
    engine = make_engine(distributed=distributed)
    b = 4
    arena = warmed_state(engine, rng, b)
    reference = copy_state(arena)
    x = rng.standard_normal((b, 16))

    y, out = engine.step(x, arena, active=np.arange(b))
    assert out is arena
    assert engine.last_state_bytes_copied == 0

    y_ref, new_ref = engine.step(x, reference)
    assert np.array_equal(y, y_ref)
    assert fields_equal(arena, new_ref)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_permuted_full_dispatch_is_dense_and_matches_gather_scatter(dtype, rng):
    """Full occupancy in *any* dispatch order takes the zero-copy dense
    path, and per-row kernels make the batch order irrelevant — the
    results stay bitwise those of the dispatch-ordered gather/scatter
    reference (the property the serving layer's churn equivalence needs
    after slot reuse permutes dispatch order)."""
    engine = make_engine(dtype=dtype)
    b = 5
    arena = warmed_state(engine, rng, b)
    sessions = copy_state(arena).unstack()
    x = rng.standard_normal((b, 16)).astype(dtype)
    idx = np.array([3, 0, 4, 2, 1])
    y, _ = engine.step(x, arena, active=idx)
    assert engine.last_state_bytes_copied == 0  # dense path despite order
    ref_batched = NumpyDNCState.stack([sessions[i] for i in idx])
    y_ref, new_ref = engine.step(x[idx], ref_batched)
    ref_rows = new_ref.unstack()
    for k, i in enumerate(idx):
        assert np.array_equal(y[i], y_ref[k])
        for name in NumpyDNCState.FIELDS:
            assert np.array_equal(
                getattr(arena, name)[i], getattr(ref_rows[k], name)
            ), (name, i)


def gather_step_scatter(engine, x, arena, idx):
    """The compact form spelled out: gather ``idx`` in dispatch order,
    step out of place, scatter back; inactive ``y`` rows zero."""
    y_sub, new_sub = engine.step(x[idx], arena.take_rows(idx))
    arena.write_rows(idx, new_sub)
    y = np.zeros((x.shape[0], y_sub.shape[1]), dtype=y_sub.dtype)
    y[idx] = y_sub
    return y


#: Dense-access sizes on either side of ``MIN_BLOCKED_N``: a partial
#: tick gathers at 64 rows and steps in place at 128.
COMPACT_N, IN_PLACE_N = MIN_BLOCKED_N // 2, MIN_BLOCKED_N


class TestDensePartialOccupancyPath:
    """Partial occupancy from ``MIN_BLOCKED_N`` rows: the step runs over
    the whole resident batch with the O(N^2) write phase skipping
    inactive slots in place.  The path must be numerically
    interchangeable with the compact gather path, keep inactive slots
    bitwise untouched, and slash the per-tick state movement."""

    @pytest.mark.parametrize(
        "dtype,tol", [("float64", 1e-10), ("float32", 1e-4)]
    )
    def test_dense_partial_matches_compact_path(self, dtype, tol, rng):
        engine = make_engine(dtype=dtype, memory_size=IN_PLACE_N)
        b = 6
        arena_dense = warmed_state(engine, rng, b)
        arena_compact = copy_state(arena_dense)
        worst = 0.0
        for t in range(6):
            x = rng.standard_normal((b, 16)).astype(dtype)
            idx = np.asarray(rng.permutation(b)[: 1 + t % 5])
            yd, _ = engine.step(x, arena_dense, active=idx)
            assert engine.last_state_bytes_copied < arena_dense.row_nbytes
            yc = gather_step_scatter(engine, x, arena_compact, idx)
            worst = max(worst, float(np.max(np.abs(yd - yc))))
            for name in NumpyDNCState.FIELDS:
                worst = max(worst, float(np.max(np.abs(
                    getattr(arena_dense, name) - getattr(arena_compact, name)
                ))))
        # Interchangeable paths.  float64 holds the serving bar; float32
        # is bounded by the engine's documented batched-vs-unbatched
        # story — full-capacity vs dispatch-sized gemms (m=1 especially)
        # can hit different BLAS kernels that round differently.
        assert worst <= tol

    def test_inactive_slots_bitwise_untouched_and_y_zero(self, rng):
        engine = make_engine(memory_size=IN_PLACE_N)
        b = 5
        arena = warmed_state(engine, rng, b)
        snapshot = copy_state(arena)
        idx = np.array([4, 1, 2])
        y, out = engine.step(rng.standard_normal((b, 16)), arena, active=idx)
        assert out is arena
        for i in (0, 3):
            for name in NumpyDNCState.FIELDS:
                assert np.array_equal(
                    getattr(arena, name)[i], getattr(snapshot, name)[i]
                ), (name, i)
            assert np.all(y[i] == 0.0)

    def test_dense_partial_copies_only_small_fields(self, rng):
        """With the fused in-place write phase the N^2 fields never
        move: the copy counter records one write per active row of the
        remaining fields — under half the compact path's two full-row
        copies."""
        engine = make_engine(memory_size=IN_PLACE_N)
        b = 5
        arena = warmed_state(engine, rng, b)
        idx = np.array([2, 0])
        engine.step(rng.standard_normal((b, 16)), arena, active=idx)
        big3 = (
            arena.memory[0].nbytes
            + arena.linkage[0].nbytes
            + arena.precedence[0].nbytes
        )
        assert engine.last_state_bytes_copied == idx.size * (
            arena.row_nbytes - big3
        )
        assert engine.last_state_bytes_copied < 2 * idx.size * arena.row_nbytes

    def test_threshold_selects_the_path(self, rng):
        """``memory_size`` against ``MIN_BLOCKED_N`` (the rule
        ``masked_dense_min_occupancy`` states) decides gather vs in
        place at any partial occupancy — visible through the copy
        counter."""
        b, k = 6, 5  # occupancy 0.83: N decides, not occupancy
        idx = np.array([4, 0, 2, 5, 1])
        below = make_engine(memory_size=COMPACT_N)
        assert below.config.masked_dense_min_occupancy == 1.0
        arena = warmed_state(below, rng, b)
        below.step(rng.standard_normal((b, 16)), arena, active=idx)
        assert below.last_state_bytes_copied == 2 * k * arena.row_nbytes
        above = make_engine(memory_size=IN_PLACE_N)
        assert above.config.masked_dense_min_occupancy == 0.0
        arena = warmed_state(above, rng, b)
        above.step(rng.standard_normal((b, 16)), arena, active=idx[:1])
        assert above.last_state_bytes_copied < arena.row_nbytes
        sparse = below.config.with_features(
            access_policy="sparse", access_top_k=8
        )
        assert sparse.masked_dense_min_occupancy == 0.0

    def test_distributed_engine_keeps_compact_path(self, rng):
        """Below ``MIN_BLOCKED_N`` rows a partial DNC-D tick gathers and
        scatters, as a DNC one does: the rule has no DNC-D case."""
        engine = make_engine(distributed=True, memory_size=COMPACT_N)
        b = 4
        arena = warmed_state(engine, rng, b)
        idx = np.array([1, 3, 0])
        engine.step(rng.standard_normal((b, 16)), arena, active=idx)
        assert engine.last_state_bytes_copied == 2 * idx.size * arena.row_nbytes

    def test_dense_partial_traffic_scales_by_active_count(self, rng):
        solo = make_engine(memory_size=IN_PLACE_N)
        solo.traffic.clear()
        solo.step(rng.standard_normal(16), solo.initial_state())
        solo_words = solo.traffic.total_words()

        engine = make_engine(memory_size=IN_PLACE_N)
        arena = engine.initial_state(batch_size=5)
        engine.traffic.clear()
        engine.step(
            rng.standard_normal((5, 16)), arena, active=np.array([0, 2, 4])
        )
        assert engine.traffic.total_words() == 3 * solo_words


def test_partial_mask_reports_copy_bytes(rng):
    engine = make_engine()
    b = 5
    arena = warmed_state(engine, rng, b)
    idx = np.array([2, 0])
    engine.step(rng.standard_normal((b, 16)), arena, active=idx)
    assert engine.last_state_bytes_copied == 2 * idx.size * arena.row_nbytes
    # Unmasked steps reset the counter (documented contract).
    engine.step(rng.standard_normal(16), engine.initial_state())
    assert engine.last_state_bytes_copied == 0


def test_boolean_mask_equivalent_to_indices(rng):
    engine = make_engine()
    b = 4
    arena_a = warmed_state(engine, rng, b)
    arena_b = copy_state(arena_a)
    x = np.asarray(rng.standard_normal((b, 16)))
    mask = np.array([True, False, True, False])
    ya, _ = engine.step(x, arena_a, active=mask)
    yb, _ = engine.step(x, arena_b, active=np.flatnonzero(mask))
    assert np.array_equal(ya, yb)
    assert fields_equal(arena_a, arena_b)


def test_empty_active_is_a_no_op(rng):
    engine = make_engine()
    arena = warmed_state(engine, rng, 3)
    snapshot = copy_state(arena)
    y, out = engine.step(
        np.zeros((3, 16)), arena, active=np.array([], dtype=int)
    )
    assert out is arena
    assert np.all(y == 0.0)
    assert fields_equal(arena, snapshot)


def test_masked_traffic_scales_by_active_count(rng):
    solo = make_engine()
    solo.traffic.clear()
    solo.step(rng.standard_normal(16), solo.initial_state())
    solo_words = solo.traffic.total_words()

    engine = make_engine()
    arena = engine.initial_state(batch_size=5)
    engine.traffic.clear()
    engine.step(
        rng.standard_normal((5, 16)), arena, active=np.array([0, 2, 4])
    )
    assert engine.traffic.total_words() == 3 * solo_words


class _PhasePeaks:
    """Duck-typed ``engine.profiler``: tracemalloc peak of each phase."""

    def __init__(self):
        self.peaks = {}

    def now(self):
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]

    def lap(self, phase, _t, _nbytes=0):
        current, peak = tracemalloc.get_traced_memory()
        self.peaks[phase] = max(self.peaks.get(phase, 0), peak - self.base)
        tracemalloc.reset_peak()
        self.base = current


@pytest.mark.parametrize("backend", ["reference", "tuned"])
@pytest.mark.parametrize("live", [6, 11, 13, 16])
def test_steady_state_dense_tick_allocates_no_slot_matrix(backend, live, rng):
    """The cliff this guards (ROADMAP's allocator finding: a per-tick
    temporary >= 128 KiB is a latent one): a ``linkage[idx]`` gather in
    the masked read, or N^2 scratch / fresh N^2 outputs in the write
    phase, at the serving shape.  Neither N^2 phase of a steady-state
    dense masked tick may allocate as much as one ``(N, N)`` slot
    matrix (measured per phase: the tick's ~20 live per-row fields add
    up to more than that on their own)."""
    engine = make_engine(
        memory_size=256, word_size=8, num_tiles=16, backend=backend
    )
    capacity = 16
    state = engine.initial_state(batch_size=capacity)
    active = rng.permutation(capacity)[:live]
    xs = rng.standard_normal((5, capacity, 8))
    for x in xs[:4]:
        engine.step(x, state, active=active)
    engine.profiler = _PhasePeaks()
    tracemalloc.start()
    try:
        engine.step(xs[4], state, active=active)
    finally:
        tracemalloc.stop()
    slot_matrix = state.linkage[0].nbytes
    assert engine.last_state_bytes_copied < slot_matrix
    for phase in ("erase_write_linkage", "read", "gather_scatter"):
        assert engine.profiler.peaks[phase] < slot_matrix, phase


RESIDENT_ENGINES = {
    "reference": dict(backend="reference"),
    "tuned": dict(backend="tuned"),
    "dncd": dict(distributed=True),
}


@pytest.mark.parametrize("kind", list(RESIDENT_ENGINES))
def test_run_batch_steps_one_resident_state(kind, rng):
    """The write phase lands in fresh caller-owned arrays or in the
    resident state, never in a third place: ``run_batch`` keeps nothing
    the size of a slot matrix once it returns (a second buffer set,
    staged operands, a scatter target), and a steady-state run peaks
    below one ``(N, N)`` slot matrix above its one resident state (fresh
    N^2 outputs per step are ``B`` of them)."""
    config = HiMAConfig(
        memory_size=256, word_size=8, num_reads=2, num_tiles=16,
        hidden_size=32, two_stage_sort=False, **RESIDENT_ENGINES[kind]
    )
    # A bounded traffic log: retained events are not what is measured.
    engine = TiledEngine(config, rng=0, traffic_max_events=2)
    batch = 8
    xs = rng.standard_normal((4, batch, 8))
    resident = engine.initial_state(batch_size=batch)
    tracemalloc.start()
    try:
        engine.run_batch(xs[:2])  # cold: the backend's scratch grows here
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.run_batch(xs)
        peak = tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()
    slot_matrix = resident.linkage[0].nbytes
    assert retained < slot_matrix
    assert peak - resident.nbytes < slot_matrix


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_dncd_full_tick_lands_in_the_resident_arrays(dtype, rng):
    """DNC-D at full occupancy writes through the stacked shard views of
    the state: the same three N^2-phase arrays throughout, nothing
    copied, no off-block linkage mass, every field bitwise the
    out-of-place batched step's and each slot its solo trajectory."""
    engine = make_engine(distributed=True, dtype=dtype)
    batch, nt = 3, engine.config.num_tiles
    state = engine.initial_state(batch_size=batch)
    plain = engine.initial_state(batch_size=batch)
    solo = [engine.initial_state() for _ in range(batch)]
    big3 = [id(a) for a in (state.memory, state.linkage, state.precedence)]
    n_local = engine.config.memory_size // nt
    off_block = ~np.kron(
        np.eye(nt, dtype=bool), np.ones((n_local, n_local), dtype=bool)
    )
    tol = 1e-10 if dtype == "float64" else TiledEngine.VERIFY_TOLERANCES[dtype]
    for t in range(16):
        x = rng.standard_normal((batch, 16)).astype(dtype)
        active = rng.permutation(batch) if t % 2 else np.arange(batch)
        y, out = engine.step(x, state, active=active)
        assert out is state
        assert engine.last_state_bytes_copied == 0
        assert big3 == [
            id(a) for a in (state.memory, state.linkage, state.precedence)
        ]
        assert not state.linkage[:, off_block].any()
        y_plain, plain = engine.step(x, plain)
        assert np.array_equal(y, y_plain), t
        for i in range(batch):
            y_solo, solo[i] = engine.step(x[i], solo[i])
            assert np.max(np.abs(y[i] - y_solo)) <= tol, (t, i)
    assert fields_equal(state, plain)
    stacked = NumpyDNCState.stack(solo)
    for name in NumpyDNCState.FIELDS:
        delta = np.abs(getattr(state, name) - getattr(stacked, name))
        assert np.max(delta) <= tol, name


class TestValidation:
    def setup_method(self):
        self.engine = make_engine()
        self.arena = self.engine.initial_state(batch_size=4)
        self.x = np.zeros((4, 16))

    def test_unbatched_state_rejected(self):
        with pytest.raises(ConfigError):
            self.engine.step(
                np.zeros(16), self.engine.initial_state(), active=np.array([0])
            )

    def test_wrong_x_shape_rejected(self):
        with pytest.raises(ConfigError):
            self.engine.step(
                np.zeros((3, 16)), self.arena, active=np.array([0])
            )

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ConfigError):
            self.engine.step(self.x, self.arena, active=np.array([0, 4]))
        with pytest.raises(ConfigError):
            self.engine.step(self.x, self.arena, active=np.array([-1]))

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ConfigError):
            self.engine.step(self.x, self.arena, active=np.array([1, 1]))

    def test_wrong_length_boolean_mask_rejected(self):
        with pytest.raises(ConfigError):
            self.engine.step(
                self.x, self.arena, active=np.array([True, False])
            )
