"""Table 1 — Analysis of DNC kernels.

Regenerates the kernel taxonomy with concrete access counts for the
configured ``(N, W, R, Nt)`` and *validates* the registry's access
formulas against counts measured by the instrumented reference DNC.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import HiMAConfig
from repro.core.kernels import KERNEL_REGISTRY
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig
from repro.eval.runners import ExperimentResult, register


@register("table1")
def run(config: Optional[HiMAConfig] = None, measure_steps: int = 2) -> ExperimentResult:
    """Render Table 1 and cross-check formulas against measurement."""
    config = config or HiMAConfig()
    ref = NumpyDNC(
        NumpyDNCConfig(
            input_size=config.word_size,
            output_size=config.word_size,
            memory_size=config.memory_size,
            word_size=config.word_size,
            num_reads=config.num_reads,
            hidden_size=config.hidden_size,
        ),
        rng=0,
    )
    inputs = np.random.default_rng(0).standard_normal(
        (measure_steps, config.word_size)
    )
    ref.run(inputs)

    rows = []
    notes = []
    for name, spec in KERNEL_REGISTRY.items():
        measured = ref.recorder.stats.get(name)
        # Per step, as the model counts: some kernels (normalize,
        # similarity) are called more than once a step.
        measured_ext = measured.ext_mem_accesses // measure_steps if measured else 0
        measured_state = (
            measured.state_mem_accesses // measure_steps if measured else 0
        )
        rows.append([
            spec.kernel_type,
            name,
            ", ".join(spec.primitives),
            spec.ext_mem_order,
            spec.state_mem_order,
            spec.noc_order,
            f"{spec.ext_mem_accesses(config):,}",
            f"{measured_ext:,}",
            f"{spec.state_mem_accesses(config):,}",
            f"{measured_state:,}",
            f"{spec.noc_words(config):,.0f}",
        ])
    notes.append(
        "model columns are the registry formulas; measured columns are "
        "per-step access counts from the instrumented reference DNC "
        f"(N={config.memory_size}, W={config.word_size}, "
        f"R={config.num_reads}, Nt={config.num_tiles})"
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Analysis of DNC kernels",
        headers=[
            "type", "kernel", "primitives", "ext O()", "state O()", "NoC O()",
            "ext model", "ext meas", "state model", "state meas", "NoC words",
        ],
        rows=rows,
        notes=notes,
    )
