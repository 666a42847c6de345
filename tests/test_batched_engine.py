"""Batched execution: equivalence with the sequential paths + traffic scaling."""

import numpy as np
import pytest

from repro.core import kernels as SK
from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig, parse_interface
from repro.errors import ConfigError


REF_KWARGS = dict(
    input_size=5, output_size=3, memory_size=16, word_size=4,
    num_reads=2, hidden_size=12,
)


@pytest.fixture
def ref_config():
    return NumpyDNCConfig(**REF_KWARGS)


def engine_config(**features):
    return HiMAConfig(
        memory_size=64, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, **features,
    )


ENGINE_FEATURES = [
    pytest.param(dict(), id="dnc"),
    pytest.param(dict(two_stage_sort=False), id="dnc-argsort"),
    pytest.param(dict(skim_fraction=0.25), id="dnc-skim"),
    pytest.param(dict(submatrix_partition=False), id="dnc-rowwise"),
    pytest.param(dict(distributed=True), id="dncd"),
    pytest.param(dict(distributed=True, skim_fraction=0.25), id="dncd-skim"),
    pytest.param(dict(approx_softmax=True), id="dnc-approx"),
]


class TestReferenceBatching:
    def test_batch_of_one_matches_run(self, ref_config, rng):
        xs = rng.standard_normal((7, 1, 5))
        batched = NumpyDNC(ref_config, rng=0).run_batch(xs)
        single = NumpyDNC(ref_config, rng=0).run(xs[:, 0])
        assert batched.shape == (7, 1, 3)
        assert np.max(np.abs(batched[:, 0] - single)) <= 1e-10

    @pytest.mark.parametrize("batch", [2, 5])
    def test_each_element_matches_independent_run(self, ref_config, rng, batch):
        xs = rng.standard_normal((6, batch, 5))
        batched = NumpyDNC(ref_config, rng=0).run_batch(xs)
        for i in range(batch):
            independent = NumpyDNC(ref_config, rng=0).run(xs[:, i])
            assert np.max(np.abs(batched[:, i] - independent)) < 1e-9, i

    def test_skimming_batch_matches_independent_runs(self, rng):
        config = NumpyDNCConfig(skim_fraction=0.5, **REF_KWARGS)
        xs = rng.standard_normal((5, 3, 5))
        batched = NumpyDNC(config, rng=0).run_batch(xs)
        for i in range(3):
            independent = NumpyDNC(config, rng=0).run(xs[:, i])
            assert np.max(np.abs(batched[:, i] - independent)) < 1e-9

    def test_batched_state_shapes(self, ref_config):
        model = NumpyDNC(ref_config, rng=0)
        state = model.initial_state(batch_size=4)
        assert state.batch_size == 4
        assert state.memory.shape == (4, 16, 4)
        assert state.read_w.shape == (4, 2, 16)
        assert model.initial_state().batch_size is None

    def test_run_batch_rejects_wrong_rank(self, ref_config, rng):
        model = NumpyDNC(ref_config, rng=0)
        with pytest.raises(ConfigError):
            model.run_batch(rng.standard_normal((6, 5)))

    def test_parse_interface_batched_matches_rows(self, ref_config, rng):
        flat = rng.standard_normal((3, ref_config.interface_size))
        batched = parse_interface(flat, 4, 2)
        for i in range(3):
            row = parse_interface(flat[i], 4, 2)
            assert np.allclose(batched.read_keys[i], row.read_keys)
            assert np.allclose(batched.read_modes[i], row.read_modes)
            assert batched.write_strength[i, 0] == pytest.approx(row.write_strength)
            assert batched.write_gate[i, 0] == pytest.approx(row.write_gate)
            assert batched.allocation_gate[i, 0] == pytest.approx(
                row.allocation_gate
            )


class TestEngineBatching:
    @pytest.mark.parametrize("features", ENGINE_FEATURES)
    def test_batch_of_one_matches_run(self, features, rng):
        engine = TiledEngine(engine_config(**features), rng=0)
        xs = rng.standard_normal((5, 1, 16))
        batched = engine.run_batch(xs)
        single = engine.run(xs[:, 0])
        assert np.max(np.abs(batched[:, 0] - single)) <= 1e-10

    @pytest.mark.parametrize("features", ENGINE_FEATURES)
    def test_each_element_matches_independent_run(self, features, rng):
        engine = TiledEngine(engine_config(**features), rng=0)
        xs = rng.standard_normal((4, 3, 16))
        batched = engine.run_batch(xs)
        for i in range(3):
            independent = engine.run(xs[:, i])
            assert np.max(np.abs(batched[:, i] - independent)) < 1e-9, i

    @pytest.mark.parametrize("features", ENGINE_FEATURES[:2] + ENGINE_FEATURES[4:5])
    def test_verify_against_reference_batched(self, features):
        engine = TiledEngine(engine_config(**features), rng=0)
        assert engine.verify_against_reference(steps=3, batch_size=4) < 1e-10

    def test_batched_dnc_mode_matches_monolithic_reference(self, rng):
        """Batched engine vs batched reference: both vectorized paths agree."""
        engine = TiledEngine(engine_config(), rng=0)
        xs = rng.standard_normal((4, 3, 16))
        ours = engine.run_batch(xs)
        reference = engine.reference.run_batch(xs)
        assert np.max(np.abs(ours - reference)) < 1e-12

    def test_run_batch_rejects_wrong_rank(self, rng):
        engine = TiledEngine(engine_config(), rng=0)
        with pytest.raises(ConfigError):
            engine.run_batch(rng.standard_normal((5, 16)))

    def test_batched_state_shapes(self, rng):
        engine = TiledEngine(engine_config(), rng=0)
        state = engine.initial_state(batch_size=3)
        y, state = engine.step(rng.standard_normal((3, 16)), state)
        assert y.shape == (3, 16)
        assert state.memory.shape == (3, 64, 16)
        assert state.linkage.shape == (3, 64, 64)

    def test_batched_two_stage_sort_is_one_call_per_step(self, rng):
        """run_batch must hand the sorter whole (B, N) batches — never a
        Python loop over batch elements."""
        engine = TiledEngine(engine_config(two_stage_sort=True), rng=0)
        calls = []
        original = engine.sorter.sort

        def spy(usage):
            calls.append(np.asarray(usage).shape)
            return original(usage)

        engine.sorter.sort = spy
        engine.run_batch(rng.standard_normal((5, 8, 16)))
        assert calls == [(8, 64)] * 5


class TestRunnerTrafficHygiene:
    def test_traffic_docs_contract_run_accumulates(self, rng):
        """run/run_batch append cumulatively; clear() is the caller's job."""
        engine = TiledEngine(engine_config(), rng=0)
        engine.run(rng.standard_normal((2, 16)))
        first = len(engine.traffic.events)
        engine.run_batch(rng.standard_normal((2, 3, 16)))
        assert len(engine.traffic.events) == 2 * first
        engine.traffic.clear()
        assert engine.traffic.events == []


class TestBatchedTraffic:
    @pytest.mark.parametrize("features", [
        pytest.param(dict(), id="dnc"),
        pytest.param(dict(distributed=True), id="dncd"),
    ])
    @pytest.mark.parametrize("batch", [2, 4, 8])
    def test_total_words_scale_linearly(self, features, batch, rng):
        def words_and_events(B):
            engine = TiledEngine(engine_config(**features), rng=0)
            engine.traffic.clear()
            if B is None:
                engine.run(rng.standard_normal((3, 16)))
            else:
                engine.run_batch(rng.standard_normal((3, B, 16)))
            return engine.traffic.total_words(), len(engine.traffic.events)

        unbatched_words, unbatched_events = words_and_events(None)
        batched_words, batched_events = words_and_events(batch)
        # Words scale with B; the message pattern does not.
        assert batched_words == batch * unbatched_words
        assert batched_events == unbatched_events

    def test_dncd_batched_keeps_zero_inter_pt_traffic(self, rng):
        engine = TiledEngine(engine_config(distributed=True), rng=0)
        engine.run_batch(rng.standard_normal((3, 4, 16)))
        assert engine.traffic.inter_pt_words() == 0
        assert engine.traffic.total_words() > 0


class TestStackedShardKernels:
    def test_vector_shard_roundtrip(self, rng):
        x = rng.standard_normal((3, 32))
        shards = SK.shard_vector(x, 4)
        assert shards.shape == (3, 4, 8)
        assert np.array_equal(SK.unshard_vector(shards), x)
        assert np.array_equal(shards[:, 1], x[:, 8:16])

    def test_matrix_shard_roundtrip(self, rng):
        m = rng.standard_normal((2, 32, 5))
        shards = SK.shard_matrix(m, 4)
        assert shards.shape == (2, 4, 8, 5)
        assert np.array_equal(SK.unshard_matrix(shards), m)
        assert np.array_equal(shards[:, 2], m[:, 16:24])

    def test_heads_shard_roundtrip(self, rng):
        read_w = rng.standard_normal((2, 3, 32))
        shards = SK.shard_heads(read_w, 4)
        assert shards.shape == (2, 4, 3, 8)
        assert np.array_equal(SK.unshard_heads(shards), read_w)
        assert np.array_equal(shards[:, 1], read_w[:, :, 8:16])

    def test_block_diagonal_roundtrip(self, rng):
        linkage = rng.standard_normal((2, 16, 16))
        blocks = SK.block_diagonal(linkage, 4)
        assert blocks.shape == (2, 4, 4, 4)
        assert np.array_equal(blocks[:, 1], linkage[:, 4:8, 4:8])
        scattered = SK.scatter_block_diagonal(blocks)
        assert np.array_equal(scattered[:, 4:8, 4:8], linkage[:, 4:8, 4:8])
        assert np.all(scattered[:, 0:4, 4:8] == 0.0)

    def test_stacked_scores_match_loop(self, rng):
        mem = rng.standard_normal((2, 4, 8, 5))
        key = rng.standard_normal((2, 5))
        rkeys = rng.standard_normal((2, 3, 5))
        scores = SK.stacked_key_scores(mem, key)
        rscores = SK.stacked_read_scores(rkeys, mem)
        for b in range(2):
            for t in range(4):
                assert np.allclose(scores[b, t], mem[b, t] @ key[b])
                assert np.allclose(rscores[b, t], rkeys[b] @ mem[b, t].T)
