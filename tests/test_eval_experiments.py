"""Experiment runners: structure, registry, and shape assertions."""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.eval import fig4, fig5, fig6, fig7, fig10, fig11, fig12, table1
from repro.eval.runners import EXPERIMENTS, ExperimentResult


SMALL = dict(memory_size=128, word_size=16, num_reads=2, hidden_size=32)


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "fig4", "fig5", "fig6c", "fig6d", "fig7", "fig10",
            "fig11a", "fig11b", "fig11c", "fig11d", "fig11e", "fig11f",
            "fig12a", "fig12bcd",
        }
        assert expected <= set(EXPERIMENTS)

    def test_result_render(self):
        result = ExperimentResult(
            "x", "demo", ["a", "b"], [[1, 2]], notes=["hello"]
        )
        text = result.render()
        assert "demo" in text and "hello" in text


class TestTable1:
    def test_rows_and_measured_columns(self):
        result = table1.run(
            HiMAConfig(**SMALL, num_tiles=4), measure_steps=1
        )
        assert len(result.rows) == 13
        assert result.headers[0] == "type"

    @pytest.mark.parametrize("config", [
        pytest.param(HiMAConfig(), id="default"),
        pytest.param(
            HiMAConfig(memory_size=64, word_size=16, num_reads=2,
                       hidden_size=32),
            id="n64",
        ),
    ])
    def test_model_equals_measured_per_step(self, config):
        result = table1.run(config, measure_steps=2)
        ext_model, ext_meas, state_model, state_meas = (
            result.headers.index(h)
            for h in ("ext model", "ext meas", "state model", "state meas")
        )
        for row in result.rows:
            assert row[ext_model] == row[ext_meas], row[1]
            assert row[state_model] == row[state_meas], row[1]


class TestFig4:
    def test_memory_unit_dominates(self):
        result = fig4.run(num_episodes=1, memory_size=256, word_size=32,
                          hidden_size=64)
        assert len(result.rows) == 5
        # The "memory unit >95%" claim, at reduced scale: still dominant.
        note = result.notes[1]
        share = float(note.split(":")[1].split("%")[0])
        assert share > 80.0

    def test_paper_reference_percentages_encoded(self):
        assert sum(fig4.PAPER_GPU_PERCENT.values()) == 100.0
        assert sum(fig4.PAPER_CPU_PERCENT.values()) == 100.0


class TestFig5:
    def test_hop_table(self):
        result = fig5.hop_table(16)
        htree_row = next(r for r in result.rows if r[0] == "htree")
        assert htree_row[2] == 8  # paper worst case

    def test_scalability_series_shapes(self):
        result = fig5.run(
            nocs=("htree", "hima"), pt_counts=(1, 4, 16), **SMALL
        ) if False else fig5.run(
            nocs=("htree", "hima"), pt_counts=(1, 4, 16),
            memory_size=128, word_size=16,
        )
        names = [row[0] for row in result.rows]
        assert "htree, DNC" in names
        assert "hima, DNC-D" in names and "ideal" in names
        for row in result.rows:
            assert len(row) == 4  # series + 3 points

    def test_dncd_scales_best_at_16_tiles(self):
        result = fig5.run(
            nocs=("htree", "hima"), pt_counts=(1, 16),
            memory_size=256, word_size=16,
        )
        by_name = {row[0]: row for row in result.rows}

        def last(name):
            return float(by_name[name][-1].rstrip("x"))

        assert last("hima, DNC-D") > last("hima, DNC") > last("htree, DNC")


class TestFig6:
    def test_memory_read_normalized_to_row_wise(self):
        result = fig6.run_memory_read(tile_counts=(16,))
        row = result.rows[0]
        assert row[1] == "1.00x"  # Nt_w = 1 reference
        # Column-wise tail is much worse.
        assert float(row[5].rstrip("x")) > 5.0

    def test_forward_backward_interior_optimum(self):
        result = fig6.run_forward_backward(tile_counts=(16,))
        row = result.rows[0]
        values = [float(c.rstrip("x")) for c in row[1:] if c != "-"]
        # Optimum (1.0) is strictly inside the sweep.
        assert values[0] > 1.0 and values[-1] > 1.0
        assert min(values) == 1.0
        assert "4x4" in result.notes[-1]


class TestFig7:
    def test_reference_row_present(self):
        result = fig7.run(lengths=(1024,), tile_counts=(4,), seed=1)
        row = result.rows[0]
        assert row[:5] == [1024, 4, 126, 263, 389]

    def test_two_stage_always_beats_naive(self):
        result = fig7.run(lengths=(256, 1024), tile_counts=(4, 16))
        for row in result.rows:
            assert row[4] < row[6]


class TestFig11:
    @pytest.fixture(scope="class")
    def overrides(self):
        return dict(memory_size=256, word_size=16, num_reads=2,
                    hidden_size=32)

    def test_speed_ladder_monotone(self, overrides):
        result = fig11.run_speed_ladder(**overrides)
        speedups = [float(r[2].rstrip("x")) for r in result.rows]
        assert speedups[0] == 1.0
        assert all(b >= a for a, b in zip(speedups, speedups[1:-1]))

    def test_power_ladder_rows(self, overrides):
        result = fig11.run_power_ladder(**overrides)
        assert len(result.rows) == 6
        watts = [float(r[1]) for r in result.rows]
        assert all(w > 0 for w in watts)

    def test_runtime_breakdown_sums_to_100(self, overrides):
        result = fig11.run_runtime_breakdown(**overrides)
        dnc_rows = [r for r in result.rows if r[0] == "HiMA-DNC"]
        total = sum(float(r[2].rstrip("%")) for r in dnc_rows)
        assert total == pytest.approx(100.0, abs=0.5)

    def test_area_table_full_scale_matches_paper(self):
        result = fig11.run_area_power_table()
        dnc_row = next(r for r in result.rows if r[0] == "dnc")
        model_total = float(dnc_row[4].split("/")[0])
        assert model_total == pytest.approx(80.69, rel=0.01)

    def test_kernel_power_rows(self, overrides):
        result = fig11.run_kernel_power(**overrides)
        assert len(result.rows) == 10

    def test_module_power_rows(self, overrides):
        result = fig11.run_module_power(**overrides)
        assert len(result.rows) == 10


class TestFig12:
    def test_scalability_dncd_closer_to_linear(self):
        result = fig12.run_scalability(tile_counts=(4, 16))
        dnc = [r for r in result.rows if r[0] == "HiMA-DNC"]
        dncd = [r for r in result.rows if r[0] == "HiMA-DNC-D"]
        dnc_scale = float(dnc[-1][5].rstrip("x"))
        dncd_scale = float(dncd[-1][5].rstrip("x"))
        ideal = float(dnc[-1][6].rstrip("x"))
        # DNC power grows super-linearly; DNC-D stays below/near linear.
        assert dnc_scale > ideal
        assert dncd_scale < dnc_scale

    def test_comparison_orderings(self):
        result = fig12.run_comparison(
            memory_size=256, word_size=16, num_reads=2, hidden_size=32
        )
        by_name = {row[0]: row for row in result.rows}

        def speed(name):
            return float(by_name[name][2].rstrip("x"))

        assert speed("HiMA-DNC-D") > speed("HiMA-DNC") > speed("MANNA")
        assert speed("HiMA-DNC") > speed("Farm")

    def test_paper_targets_encoded(self):
        assert fig12.PAPER_TARGETS["speedup_vs_gpu_dncd"] == 2646.0


class TestFig10Smoke:
    def test_tiny_settings_run_end_to_end(self):
        settings = fig10.Fig10Settings(
            task_ids=(1,), train_steps=4, finetune_steps=2, batch_size=2,
            train_examples=12, eval_examples=4, memory_size=8, word_size=4,
            num_reads=1, hidden_size=12, tile_counts=(2,),
            skim_rates=(0.0, 0.5), skim_tiles=2, seed=0,
        )
        result = fig10.run(settings)
        assert len(result.rows) == 2  # one task + mean row
        assert result.rows[0][0] == 1
        assert result.rows[-1][0] == "mean"
