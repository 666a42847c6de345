"""Figure 4 — Kernel runtime breakdown on CPU/GPU for the bAbI workload.

The CPU column is *measured live* on this machine: the instrumented numpy
DNC (paper configuration ``N x W = 1024 x 64``, LSTM 256) runs synthetic
bAbI episodes and reports per-category shares of its CPU time.  The GPU
column is the paper's published breakdown (no GPU is available offline;
see DESIGN.md substitutions).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.dnc.instrumentation import KernelCategory
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig
from repro.eval.runners import ExperimentResult, register
from repro.tasks.babi import BabiTaskSuite, encode_example

#: Paper Figure 4 category shares (percent).
PAPER_GPU_PERCENT: Dict[KernelCategory, float] = {
    KernelCategory.HIST_WRITE_WEIGHTING: 72.0,
    KernelCategory.HIST_READ_WEIGHTING: 9.0,
    KernelCategory.CONTENT_WEIGHTING: 12.0,
    KernelCategory.MEMORY_ACCESS: 4.0,
    KernelCategory.NN_LSTM: 3.0,
}
PAPER_CPU_PERCENT: Dict[KernelCategory, float] = {
    KernelCategory.HIST_WRITE_WEIGHTING: 11.0,
    KernelCategory.HIST_READ_WEIGHTING: 10.0,
    KernelCategory.CONTENT_WEIGHTING: 22.0,
    KernelCategory.MEMORY_ACCESS: 53.0,
    KernelCategory.NN_LSTM: 4.0,
}
PAPER_GPU_MS_PER_TEST = 5.16
PAPER_CPU_MS_PER_TEST = 10.94


@register("fig4")
def run(
    num_episodes: int = 3,
    memory_size: int = 1024,
    word_size: int = 64,
    hidden_size: int = 256,
    seed: int = 0,
) -> ExperimentResult:
    """Measure the CPU kernel breakdown on synthetic bAbI episodes."""
    suite = BabiTaskSuite(rng=seed)
    vocab = suite.vocabulary()
    config = NumpyDNCConfig(
        input_size=len(vocab),
        output_size=len(vocab),
        memory_size=memory_size,
        word_size=word_size,
        num_reads=4,
        hidden_size=hidden_size,
    )
    model = NumpyDNC(config, rng=seed)

    total_steps = 0
    for episode in range(num_episodes):
        task_id = (episode % 20) + 1
        example = suite.generate(task_id, 1)[0]
        inputs, _ = encode_example(example, vocab)
        model.run(inputs)
        total_steps += inputs.shape[0]

    fractions = model.recorder.category_fractions("seconds")
    seconds = model.recorder.total("seconds")
    ms_per_test = seconds / num_episodes * 1e3

    rows = []
    for cat in KernelCategory:
        rows.append([
            cat.value,
            f"{100.0 * fractions[cat]:.1f}%",
            f"{PAPER_CPU_PERCENT[cat]:.0f}%",
            f"{PAPER_GPU_PERCENT[cat]:.0f}%",
        ])
    memory_unit_share = 100.0 * (1.0 - fractions[KernelCategory.NN_LSTM])
    notes = [
        f"measured {ms_per_test:.2f} CPU ms/test over {num_episodes} episodes "
        f"({total_steps} timesteps); paper CPU {PAPER_CPU_MS_PER_TEST} "
        f"ms/test, GPU {PAPER_GPU_MS_PER_TEST} ms/test",
        f"memory unit share of runtime: {memory_unit_share:.1f}% measured "
        "(paper: >95% on both CPU and GPU)",
    ]
    return ExperimentResult(
        experiment_id="fig4",
        title="Kernel runtime breakdown (bAbI, N x W = 1024 x 64, LSTM 256)",
        headers=["category", "measured CPU", "paper CPU", "paper GPU"],
        rows=rows,
        notes=notes,
    )
