"""Quickstart: the three layers of the library in ~60 lines.

1. Run a functional DNC (the model HiMA accelerates) and inspect its
   memory state.
2. Execute the same model through HiMA's tiled engine and look at the
   inter-tile traffic it generates.
3. Evaluate the cycle-level performance model for the paper's three
   prototypes.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.autodiff import Tensor
from repro.core import HiMAConfig, HiMAPerformanceModel, TiledEngine
from repro.dnc import DNC, DNCConfig
from repro.hw.power_model import PowerModel
from repro.hw.area_model import AreaModel

# ---------------------------------------------------------------------------
# 1. A functional DNC: soft write + soft read with history-based addressing.
# ---------------------------------------------------------------------------
print("=== 1. Functional DNC ===")
dnc = DNC(
    DNCConfig(input_size=8, output_size=8, memory_size=16, word_size=8,
              num_reads=2, hidden_size=32),
    rng=0,
)
inputs = Tensor(np.random.default_rng(0).standard_normal((5, 8)))
outputs, state = dnc(inputs)
memory = state.memory
print(f"outputs: {outputs.shape}, memory: {memory.memory.shape}")
print(f"usage in [0,1]: [{memory.usage.data.min():.3f}, "
      f"{memory.usage.data.max():.3f}]")
print(f"write weighting sums to {memory.write_weights.data.sum():.3f} "
      "(soft write)")
print(f"linkage diagonal is zero: {np.allclose(np.diag(memory.linkage.data), 0)}")

# ---------------------------------------------------------------------------
# 2. The tiled engine: the same math, sharded across HiMA's PTs.
# ---------------------------------------------------------------------------
print("\n=== 2. Tiled execution with traffic accounting ===")
config = HiMAConfig(memory_size=64, word_size=16, num_reads=2, num_tiles=4,
                    hidden_size=32)
engine = TiledEngine(config, rng=0)
error = engine.verify_against_reference(steps=3)
print(f"sharded vs monolithic max error: {error:.2e} (exact)")
for kernel, words in sorted(engine.traffic.words_by_kernel().items()):
    print(f"  {kernel:22s} {words:6d} words")
print(f"inter-PT words: {engine.traffic.inter_pt_words()}")

dncd_engine = TiledEngine(config.with_features(distributed=True), rng=0)
error = dncd_engine.verify_against_reference(steps=3)
bar = TiledEngine.VERIFY_TOLERANCES[config.dtype]
print(f"DNC-D vs its per-tile oracle max error: {error:.2e} "
      f"(verify raises beyond {bar:g})")
print(f"DNC-D inter-PT words: {dncd_engine.traffic.inter_pt_words()} "
      "(Section 5.1: all memory ops are local)")

# ---------------------------------------------------------------------------
# 3. The performance/area/power models at paper scale.
# ---------------------------------------------------------------------------
print("\n=== 3. HiMA prototypes (N x W = 1024 x 64, Nt = 16) ===")
power_model = PowerModel()
for name, cfg in [
    ("HiMA-baseline", HiMAConfig.baseline()),
    ("HiMA-DNC", HiMAConfig.hima_dnc()),
    ("HiMA-DNC-D", HiMAConfig.hima_dncd(skim_fraction=0.2)),
]:
    perf = HiMAPerformanceModel(cfg)
    area = AreaModel(
        cfg.memory_size, cfg.word_size, cfg.num_reads, cfg.num_tiles,
        distributed=cfg.distributed, two_stage_sort=cfg.two_stage_sort,
        multimode_noc=(cfg.noc == "hima"),
    ).breakdown()
    watts = power_model.estimate(perf.activity()).total
    print(f"  {name:14s} {perf.inference_time_us():8.2f} us/test   "
          f"{area.total:6.1f} mm^2   {watts:5.2f} W")
print("\n(paper: HiMA-DNC 11.8 us, 80.69 mm^2, 16.96 W; "
      "HiMA-DNC-D 1.95 us, 67.71 mm^2, 10.28 W)")
