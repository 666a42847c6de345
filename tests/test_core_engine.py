"""Tiled execution engine: exactness, traffic accounting, DNC-D locality."""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine, TrafficLog
from repro.errors import SimulationError


@pytest.fixture
def engine(small_hima_config):
    return TiledEngine(small_hima_config, rng=0)


class TestExactness:
    def test_dnc_mode_matches_monolithic_reference(self, engine):
        error = engine.verify_against_reference(steps=4)
        assert error < 1e-12

    def test_dnc_mode_with_skimming_matches(self, small_hima_config):
        engine = TiledEngine(
            small_hima_config.with_features(skim_fraction=0.25), rng=0
        )
        assert engine.verify_against_reference(steps=4) < 1e-12

    def test_dnc_mode_rowwise_linkage_matches(self, small_hima_config):
        engine = TiledEngine(
            small_hima_config.with_features(submatrix_partition=False), rng=0
        )
        assert engine.verify_against_reference(steps=3) < 1e-12

    def test_dnc_mode_without_two_stage_sort_matches(self, small_hima_config):
        engine = TiledEngine(
            small_hima_config.with_features(two_stage_sort=False), rng=0
        )
        assert engine.verify_against_reference(steps=3) < 1e-12

    def test_dncd_mode_differs_from_monolithic(self, small_hima_config):
        """DNC-D is an approximation of the DNC: on the same weights its
        outputs leave the monolithic reference's, while ``verify``
        judges it against the per-tile DNC-D oracle."""
        engine = TiledEngine(
            small_hima_config.with_features(distributed=True), rng=0
        )
        inputs = np.random.default_rng(7).standard_normal(
            (4, engine.reference.config.input_size)
        )
        assert np.max(np.abs(engine.run(inputs) - engine.reference.run(inputs))) > 0
        assert engine.verify_against_reference(steps=4) < 1e-12

    def test_dncd_verify_raises_on_a_perturbed_read_merge(
        self, small_hima_config, monkeypatch
    ):
        """A DNC-D engine whose CT merges the Nt tile reads with weight
        1/(Nt+1) instead of 1/Nt fails ``verify``."""
        engine = TiledEngine(
            small_hima_config.with_features(distributed=True), rng=0
        )
        nt = engine.config.num_tiles
        merge = engine.access.read_vectors

        def merge_over_nt_plus_one(eng, memory, read_w):
            return merge(eng, memory, read_w) * (nt / (nt + 1))

        monkeypatch.setattr(engine.access, "read_vectors", merge_over_nt_plus_one)
        with pytest.raises(SimulationError, match="per-tile DNC-D oracle"):
            engine.verify_against_reference(steps=4)

    def test_state_shapes_preserved(self, engine, rng):
        state = engine.initial_state()
        y, state = engine.step(rng.standard_normal(16), state)
        assert y.shape == (16,)
        assert state.memory.shape == (64, 16)
        assert state.linkage.shape == (64, 64)


class TestTrafficAccounting:
    def test_dnc_traffic_covers_expected_kernels(self, engine, rng):
        engine.traffic.clear()
        state = engine.initial_state()
        engine.step(rng.standard_normal(16), state)
        kernels = set(engine.traffic.words_by_kernel())
        assert {"interface_broadcast", "similarity", "usage_sort",
                "linkage", "forward_backward", "memory_read"} <= kernels

    def test_dncd_has_zero_inter_pt_traffic(self, small_hima_config, rng):
        engine = TiledEngine(
            small_hima_config.with_features(distributed=True), rng=0
        )
        state = engine.initial_state()
        for _ in range(3):
            _, state = engine.step(rng.standard_normal(16), state)
        assert engine.traffic.inter_pt_words() == 0
        assert engine.traffic.total_words() > 0  # CT traffic remains

    def test_dnc_has_inter_pt_traffic(self, engine, rng):
        engine.traffic.clear()
        engine.step(rng.standard_normal(16), engine.initial_state())
        assert engine.traffic.inter_pt_words() > 0

    def test_submatrix_partition_cuts_fb_traffic(self, small_hima_config, rng):
        def fb_words(submat):
            engine = TiledEngine(
                small_hima_config.with_features(submatrix_partition=submat),
                rng=0,
            )
            state = engine.initial_state()
            _, state = engine.step(rng.standard_normal(16), state)
            engine.traffic.clear()
            engine.step(rng.standard_normal(16), state)
            return engine.traffic.words_by_kernel()["forward_backward"]

        assert fb_words(True) < fb_words(False)

    def test_traffic_log_filters_and_converts(self):
        log = TrafficLog(ct_node=4)
        log.add("linkage", 0, 1, 64)
        log.add("linkage", 1, 2, 64)
        log.add("memory_read", 0, 4, 32)
        assert log.total_words() == 160
        assert log.inter_pt_words() == 128
        messages = log.messages(link_words_per_cycle=32, kernel="linkage")
        assert len(messages) == 2
        assert all(m.size == 2 for m in messages)

    def test_traffic_log_message_ids_stable_under_filter(self):
        # An event keeps the same message id whether the caller converts
        # the whole log or one kernel's slice — per-kernel message sets
        # from one log never alias ids.
        log = TrafficLog(ct_node=4)
        log.add("linkage", 0, 1, 64)
        log.add("memory_read", 0, 4, 32)
        log.add("linkage", 1, 2, 64)
        all_ids = {
            (m.src, m.dst): m.msg_id for m in log.messages(link_words_per_cycle=32)
        }
        linkage = log.messages(link_words_per_cycle=32, kernel="linkage")
        reads = log.messages(link_words_per_cycle=32, kernel="memory_read")
        assert [m.msg_id for m in linkage] == [0, 2]
        assert [m.msg_id for m in reads] == [1]
        for m in linkage + reads:
            assert m.msg_id == all_ids[(m.src, m.dst)]
        assert not {m.msg_id for m in linkage} & {m.msg_id for m in reads}

    def test_traffic_log_ignores_self_and_empty(self):
        log = TrafficLog(ct_node=4)
        log.add("linkage", 1, 1, 64)
        log.add("linkage", 0, 1, 0)
        assert log.events == []

    def test_skimming_reduces_sort_traffic(self, small_hima_config, rng):
        def sort_words(skim):
            engine = TiledEngine(
                small_hima_config.with_features(skim_fraction=skim), rng=0
            )
            state = engine.initial_state()
            _, state = engine.step(rng.standard_normal(16), state)
            engine.traffic.clear()
            engine.step(rng.standard_normal(16), state)
            return engine.traffic.words_by_kernel()["usage_sort"]

        assert sort_words(0.5) < sort_words(0.0)

    @pytest.mark.parametrize("num_tiles", [4, 8, 16])
    @pytest.mark.parametrize(
        "features",
        [{}, {"submatrix_partition": False},
         {"access_policy": "sparse", "access_top_k": 16}],
        ids=["dense", "rowwise", "sparse"],
    )
    def test_linkage_events_match_the_literal_per_tile_loops(
        self, num_tiles, features, rng
    ):
        """The per-tile dataflow tuples ``MemoryMap`` computes once must
        log exactly what recomputing block / owners / grid index for
        every tile on every step logged: same events, same order."""
        config = HiMAConfig(
            memory_size=64, word_size=16, num_reads=2, num_tiles=num_tiles,
            hidden_size=32, two_stage_sort=False, **features,
        )
        engine = TiledEngine(config, rng=0)
        batch = 3
        engine.step(
            rng.standard_normal((batch, 16)),
            engine.initial_state(batch_size=batch),
        )
        mmap, r = engine.memory_map, config.num_reads
        rows = mmap.rows_per_tile
        fb_chain = (mmap.block_rows, mmap.block_cols)
        if engine.access.is_sparse:
            rows = max(1, config.access_top_k // num_tiles)
            fb_chain = (rows, rows)
        want = {"linkage": [], "forward_backward": []}

        def add(kernel, src, dst, words):
            if src != dst:
                want[kernel].append((kernel, src, dst, words))

        for t in range(num_tiles):
            block_rows, block_cols = mmap.linkage_block(t)
            for owner in mmap.row_segment_owners(block_rows):
                add("linkage", owner, t, batch * rows)
            for owner in mmap.row_segment_owners(block_cols):
                add("linkage", owner, t, 2 * batch * rows)
        for t in range(num_tiles):
            block_rows, block_cols = mmap.linkage_block(t)
            for owner in mmap.row_segment_owners(block_cols):
                add("forward_backward", owner, t, batch * r * rows)
            for owner in mmap.row_segment_owners(block_rows):
                add("forward_backward", owner, t, batch * r * rows)
            bi, bj = mmap.linkage_grid_index(t)
            if bj + 1 < mmap.nt_w:
                add("forward_backward", t, t + 1, batch * r * fb_chain[0])
            if bi + 1 < mmap.nt_h:
                add("forward_backward", t, t + mmap.nt_w,
                    batch * r * fb_chain[1])
        for kernel, events in want.items():
            got = [
                (e.kernel, e.src, e.dst, e.words)
                for e in engine.traffic.events if e.kernel == kernel
            ]
            assert got == events, kernel


class TestTrafficCompaction:
    KERNELS = ("linkage", "memory_read", "similarity")

    def _fill(self, log, count=100):
        for i in range(count):
            log.add(self.KERNELS[i % 3], i % 5, (i + 1) % 5, 10 + i)

    def test_aggregates_stay_exact_under_compaction(self):
        bounded = TrafficLog(ct_node=4, max_events=8)
        unbounded = TrafficLog(ct_node=4)
        self._fill(bounded)
        self._fill(unbounded)
        assert len(bounded.events) <= 8
        assert bounded.dropped_events > 0
        assert bounded.total_words() == unbounded.total_words()
        assert bounded.words_by_kernel() == unbounded.words_by_kernel()
        assert bounded.inter_pt_words() == unbounded.inter_pt_words()

    def test_retained_window_keeps_recent_events(self):
        log = TrafficLog(ct_node=4, max_events=8)
        self._fill(log, count=100)
        # The retained tail is the most recent appends, in order.
        assert [e.words for e in log.events] == [
            10 + i for i in range(100 - len(log.events), 100)
        ]
        assert len(log.events) >= 4  # at least max_events // 2 retained

    def test_message_ids_stay_globally_stable(self):
        log = TrafficLog(ct_node=4, max_events=8)
        self._fill(log, count=100)
        messages = log.messages(link_words_per_cycle=32)
        expected_first = log.dropped_events
        assert [m.msg_id for m in messages] == list(
            range(expected_first, 100)
        )

    def test_clear_resets_aggregates(self):
        log = TrafficLog(ct_node=4, max_events=8)
        self._fill(log)
        log.clear()
        assert log.events == [] and log.dropped_events == 0
        assert log.total_words() == 0
        assert log.words_by_kernel() == {}
        assert log.inter_pt_words() == 0

    def test_max_events_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            TrafficLog(ct_node=4, max_events=1)

    def test_engine_bounded_log_matches_unbounded_totals(
        self, small_hima_config, rng
    ):
        inputs = rng.standard_normal((6, 16))
        unbounded = TiledEngine(small_hima_config, rng=0)
        unbounded.run(inputs)
        bounded = TiledEngine(
            small_hima_config, rng=0, traffic_max_events=16
        )
        bounded.run(inputs)
        assert len(bounded.traffic.events) <= 16
        assert bounded.traffic.total_words() == unbounded.traffic.total_words()
        assert (
            bounded.traffic.words_by_kernel()
            == unbounded.traffic.words_by_kernel()
        )


class TestRun:
    def test_run_sequence(self, engine, rng):
        outputs = engine.run(rng.standard_normal((5, 16)))
        assert outputs.shape == (5, 16)
        assert np.all(np.isfinite(outputs))

    def test_divergence_raises(self, engine, rng, monkeypatch):
        # Corrupt the sharded path and confirm verification catches it.
        original = engine._usage_sort

        def corrupted(usage):
            order = original(usage)
            return order[::-1].copy()

        monkeypatch.setattr(engine, "_usage_sort", corrupted)
        with pytest.raises(SimulationError):
            engine.verify_against_reference(steps=3)
